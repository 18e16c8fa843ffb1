//! Micro-benchmarks for the checkers: depth-first vs breadth-first on
//! identical traces (ablation B of DESIGN.md — the Table 2 comparison
//! as a microbenchmark). Uses the in-house harness in
//! `rescheck_bench::micro` (no criterion; the workspace builds offline).

use rescheck_bench::micro::bench;
use rescheck_checker::{check_unsat_claim, CheckConfig, Strategy};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::MemorySink;
use rescheck_workloads::{bmc, pigeonhole, Instance};

fn trace_of(inst: &Instance) -> MemorySink {
    let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
    let mut sink = MemorySink::new();
    assert!(solver.solve_traced(&mut sink).unwrap().is_unsat());
    sink
}

fn bench_strategies() {
    for inst in [
        pigeonhole::instance(6),
        bmc::longmult(4),
        bmc::barrel(8, 10),
    ] {
        let trace = trace_of(&inst);
        for strategy in Strategy::ALL {
            bench(&format!("check/{strategy}/{}", inst.name), || {
                check_unsat_claim(&inst.cnf, &trace, strategy, &CheckConfig::default())
                    .expect("genuine trace");
            });
        }
    }
}

fn bench_check_vs_solve() {
    // The paper's headline ratio: checking is much cheaper than solving.
    let inst = pigeonhole::instance(6);
    let trace = trace_of(&inst);
    bench("check_vs_solve/solve_php6", || {
        let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
        assert!(solver.solve().is_unsat());
    });
    bench("check_vs_solve/check_php6_df", || {
        check_unsat_claim(
            &inst.cnf,
            &trace,
            Strategy::DepthFirst,
            &CheckConfig::default(),
        )
        .expect("genuine trace");
    });
}

fn main() {
    bench_strategies();
    bench_check_vs_solve();
}
