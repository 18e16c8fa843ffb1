//! Micro-benchmarks for the solver, including the configuration
//! ablations DESIGN.md calls out (learning on/off, deletion on/off,
//! restarts on/off — paper §2.1 argues all combinations stay correct).
//! Uses the in-house harness in `rescheck_bench::micro` (no criterion;
//! the workspace builds offline).
//!
//! The first rows are Table 1's untraced solves on the instances the
//! end-to-end benchmark solves (longmult 6, pipe 16 5, pigeonhole 7).
//! With `--json <path>` they are written as a `rescheck-metrics-v2`
//! document, one row per instance: median / min / max seconds, the
//! repeat count, `available_parallelism`, and the search's work counters
//! (conflicts, learned clauses, watch-list and clause visits), which
//! pin the search the timing belongs to. The CI bench-smoke job checks
//! the shape, never the timing.

use rescheck_bench::micro::bench;
use rescheck_bench::report::{take_json_flag, write_json, SCHEMA};
use rescheck_obs::Json;
use rescheck_solver::dp::{dp_solve, DpResult};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_workloads::{bmc, equiv, pigeonhole, pipeline};
use std::path::Path;

fn available_parallelism() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Table 1's untraced solves, one JSON row per instance.
fn bench_table1_solves() -> Vec<Json> {
    let mut rows = Vec::new();
    for inst in [
        bmc::longmult(6),
        pipeline::pipe(16, 5),
        pigeonhole::instance(7),
    ] {
        let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
        assert!(solver.solve().is_unsat());
        let stats = *solver.stats();
        let summary = bench(&format!("solve-table1/{}", inst.name), || {
            let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
            assert!(solver.solve().is_unsat());
        });
        let mut row = Json::object();
        row.set("name", inst.name.as_str())
            .set("repeats", u64::from(summary.iters))
            .set("median_seconds", summary.median.as_secs_f64())
            .set("min_seconds", summary.min.as_secs_f64())
            .set("max_seconds", summary.max.as_secs_f64())
            .set("available_parallelism", available_parallelism())
            .set("conflicts", stats.conflicts)
            .set("learned_clauses", stats.learned_clauses)
            .set("watch_visits", stats.watch_visits)
            .set("clause_visits", stats.clause_visits);
        rows.push(row);
    }
    rows
}

fn bench_families() {
    for inst in [
        pigeonhole::instance(6),
        equiv::adder_miter(10),
        bmc::longmult(4),
        bmc::barrel(8, 10),
        pipeline::pipe(10, 2),
    ] {
        bench(&format!("solve/{}", inst.name), || {
            let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
            assert!(solver.solve().is_unsat());
        });
    }
}

fn bench_ablations() {
    let inst = pigeonhole::instance(6);
    let configs: [(&str, SolverConfig); 4] = [
        ("default", SolverConfig::default()),
        ("no_learning", SolverConfig::without_learning()),
        ("no_deletion", SolverConfig::without_deletion()),
        ("no_restarts", SolverConfig::without_restarts()),
    ];
    for (name, cfg) in configs {
        bench(&format!("solve_ablation/{name}"), || {
            let mut solver = Solver::from_cnf(&inst.cnf, cfg.clone());
            assert!(solver.solve().is_unsat());
        });
    }
}

fn bench_bcp_heavy() {
    // A propagation-dominated satisfiable chain: measures raw BCP.
    let mut cnf = rescheck_cnf::Cnf::new();
    let n = 20_000i64;
    cnf.add_dimacs_clause(&[1]);
    for i in 1..n {
        cnf.add_dimacs_clause(&[-i, i + 1]);
    }
    bench("bcp_chain_20k", || {
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        assert!(solver.solve().is_sat());
    });
}

fn bench_dp_vs_cdcl() {
    // The paper's §1 framing: classic Davis–Putnam resolution vs. DLL
    // search. DP decides tiny pigeonholes but its clause count explodes;
    // CDCL scales. (Run both at a size DP can still finish.)
    let inst = pigeonhole::instance(4);
    bench("dp_vs_cdcl/cdcl_php4", || {
        let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
        assert!(solver.solve().is_unsat());
    });
    bench("dp_vs_cdcl/dp_php4", || {
        let outcome = dp_solve(&inst.cnf, None);
        assert!(matches!(
            outcome.result,
            DpResult::Decided(rescheck_cnf::SatStatus::Unsatisfiable)
        ));
    });

    // Report the space story once.
    let outcome = dp_solve(&inst.cnf, None);
    println!(
        "dp space on php4: peak {} clauses from {} original ({} resolvents); \
         cdcl peak learned stays linear",
        outcome.peak_clauses,
        inst.cnf.num_clauses(),
        outcome.resolvents
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_json_flag(&mut args);
    let rows = bench_table1_solves();
    if let Some(path) = json_path {
        let mut doc = Json::object();
        doc.set("schema", SCHEMA)
            .set("command", "bench:solver")
            .set("available_parallelism", available_parallelism())
            .set("rows", Json::Array(rows));
        write_json(Path::new(&path), &doc).expect("write json");
        println!("wrote {path}");
    }
    bench_families();
    bench_ablations();
    bench_bcp_heavy();
    bench_dp_vs_cdcl();
}
