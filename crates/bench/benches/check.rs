//! Check-throughput benchmark: end-to-end validation time on
//! Table-2-class instances, sequential breadth-first against the
//! parallel-dag strategy (bf's verification set walked over a dense
//! dependency DAG), plus the observability overhead of running the same
//! check under a recording [`MetricsSink`] instead of the
//! [`NullObserver`] (the hot path is allocation-free, so the gap should
//! be noise).
//!
//! Traces go through the production file path — solved once into a
//! binary temp file and checked through a [`FileTrace`] with its byte
//! map established up front (the `rescheck serve` reuse pattern) — so
//! the `pdag` row decodes from the map. A `pdag-nommap` row re-checks
//! under the buffered backing; its work counters must match the mapped
//! row bit-for-bit.
//!
//! With `--json <path>` a `rescheck-metrics-v2` document is written with
//! one row per (instance, configuration) pair carrying the median check
//! time and the learned-clauses-per-second throughput, for the CI
//! bench-smoke job (which checks shape, never timing).

use rescheck_bench::micro::bench;
use rescheck_bench::report::{take_json_flag, write_json, SCHEMA};
use rescheck_checker::{
    check_unsat_claim, check_unsat_claim_observed, CheckConfig, CheckStats, Strategy,
};
use rescheck_obs::{Json, MetricsSink};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::{BinaryWriter, FileTrace, TraceSink, TraceSource};
use rescheck_workloads::{bmc, pigeonhole, Instance};
use std::path::{Path, PathBuf};

/// Solves `inst` into a binary trace file and opens it with the byte
/// map established, as the daemon's trace cache would hand it out.
fn trace_of(inst: &Instance) -> (FileTrace, PathBuf) {
    let dir = std::env::temp_dir().join("rescheck-bench-check");
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let path = dir.join(format!("{}-{}.rtb", inst.name, std::process::id()));
    let file = std::fs::File::create(&path).expect("create trace fixture");
    let mut writer = BinaryWriter::new(std::io::BufWriter::new(file)).expect("write magic");
    let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
    assert!(solver.solve_traced(&mut writer).unwrap().is_unsat());
    writer.flush().expect("flush trace fixture");
    let trace = FileTrace::open(&path).expect("open trace fixture");
    trace.trace_map(true).expect("binary traces map");
    (trace, path)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_json_flag(&mut args);

    let mut rows: Vec<Json> = Vec::new();
    for inst in [pigeonhole::instance(6), bmc::longmult(4)] {
        let (trace, trace_path) = trace_of(&inst);
        let learned = check_unsat_claim(
            &inst.cnf,
            &trace,
            Strategy::BreadthFirst,
            &CheckConfig::default(),
        )
        .expect("genuine trace")
        .stats
        .learned_in_trace;

        let mut push_row = |config: &str, median_seconds: f64, stats: Option<&CheckStats>| {
            let mut row = Json::object();
            row.set("name", inst.name.as_str())
                .set("config", config)
                .set("learned_in_trace", learned)
                .set("median_seconds", median_seconds)
                .set(
                    "learned_per_second",
                    learned as f64 / median_seconds.max(1e-12),
                );
            // Work counters, compared bit-for-bit between the pdag rows
            // in CI.
            if let Some(stats) = stats {
                row.set("clauses_built", stats.clauses_built)
                    .set("resolutions", stats.resolutions)
                    .set("peak_memory_bytes", stats.peak_memory_bytes);
            }
            rows.push(row);
        };

        let seq = bench(&format!("check/bf/{}", inst.name), || {
            check_unsat_claim(
                &inst.cnf,
                &trace,
                Strategy::BreadthFirst,
                &CheckConfig::default(),
            )
            .expect("genuine trace");
        });
        push_row("bf", seq.median.as_secs_f64(), None);

        let stats = check_unsat_claim(
            &inst.cnf,
            &trace,
            Strategy::ParallelDag,
            &CheckConfig::default(),
        )
        .expect("genuine trace")
        .stats;
        let summary = bench(&format!("check/pdag/{}", inst.name), || {
            check_unsat_claim(
                &inst.cnf,
                &trace,
                Strategy::ParallelDag,
                &CheckConfig::default(),
            )
            .expect("genuine trace");
        });
        push_row("pdag", summary.median.as_secs_f64(), Some(&stats));

        // The buffered-backing comparison row: a fresh handle (a
        // FileTrace keeps the first backing it establishes) checked
        // with `no_mmap`, which must reproduce the mapped row's work
        // counters bit-for-bit.
        let nommap = CheckConfig {
            no_mmap: true,
            ..CheckConfig::default()
        };
        let unmapped = FileTrace::open(&trace_path).expect("open trace fixture");
        let unmapped_stats =
            check_unsat_claim(&inst.cnf, &unmapped, Strategy::ParallelDag, &nommap)
                .expect("genuine trace")
                .stats;
        assert_eq!(
            (
                unmapped_stats.clauses_built,
                unmapped_stats.resolutions,
                unmapped_stats.peak_memory_bytes,
            ),
            (
                stats.clauses_built,
                stats.resolutions,
                stats.peak_memory_bytes
            ),
            "no_mmap pdag stats diverge from the mapped row"
        );
        let summary = bench(&format!("check/pdag-nommap/{}", inst.name), || {
            check_unsat_claim(&inst.cnf, &unmapped, Strategy::ParallelDag, &nommap)
                .expect("genuine trace");
        });
        push_row(
            "pdag-nommap",
            summary.median.as_secs_f64(),
            Some(&unmapped_stats),
        );

        // Observability overhead: the same breadth-first check with a
        // recording metrics sink (spans, counters, histograms) against
        // the NullObserver baseline measured above.
        let mut sink = MetricsSink::new();
        let observed = bench(&format!("check/bf-metrics/{}", inst.name), || {
            check_unsat_claim_observed(
                &inst.cnf,
                &trace,
                Strategy::BreadthFirst,
                &CheckConfig::default(),
                &mut sink,
            )
            .expect("genuine trace");
        });
        push_row("bf-metrics", observed.median.as_secs_f64(), None);
        let overhead =
            (observed.median.as_secs_f64() / seq.median.as_secs_f64().max(1e-12) - 1.0) * 100.0;
        println!("check/observer-overhead/{}: {overhead:+.2}%", inst.name);
        std::fs::remove_file(&trace_path).ok();
    }

    if let Some(path) = json_path {
        let mut doc = Json::object();
        doc.set("schema", SCHEMA)
            .set("command", "bench:check")
            .set(
                "available_parallelism",
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1),
            )
            .set("rows", Json::Array(rows));
        write_json(Path::new(&path), &doc).expect("write json");
        println!("wrote {path}");
    }
}
