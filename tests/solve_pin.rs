//! Pins the solver's search: re-solves three instances and requires the
//! binary resolve trace to match, byte for byte, a trace checked in
//! under `tests/fixtures/`. Every search decision shows in the trace —
//! learned-clause ids, resolve sources in resolution order, level-0
//! antecedents and the final conflict — so a change to watch-list order,
//! replacement-watch choice, clause-activity rescaling or database
//! reduction fails here even when the verdict stays the same.
//!
//! The fixtures are `rescheck gen <family> <args…>` solved with
//! `rescheck solve --trace <out> --binary`, except the `-reduce20` one,
//! solved through the library with the learned-clause database reduced
//! every 20 conflicts so that tombstones, the lazy watch-list purge and
//! clause-arena compaction all happen on the pinned path. A change that
//! alters the search on purpose must regenerate them and say so.

use rescheck::prelude::*;
use rescheck::workloads::{self, Instance};
use std::path::PathBuf;

fn assert_trace_pinned(instance: &Instance, fixture: &str) {
    assert_trace_pinned_with(instance, SolverConfig::default(), fixture);
}

fn assert_trace_pinned_with(instance: &Instance, cfg: SolverConfig, fixture: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let pinned = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut sink = BinaryWriter::new(Vec::new()).unwrap();
    let mut solver = Solver::from_cnf(&instance.cnf, cfg);
    assert!(
        solver.solve_traced(&mut sink).unwrap().is_unsat(),
        "{fixture}"
    );
    sink.flush().unwrap();
    let traced = sink.into_inner();
    if traced != pinned {
        let first = traced
            .iter()
            .zip(&pinned)
            .position(|(a, b)| a != b)
            .unwrap_or(traced.len().min(pinned.len()));
        panic!(
            "{fixture}: the solver's trace changed ({} bytes vs {} pinned, first \
             difference at byte {first}; {})",
            traced.len(),
            pinned.len(),
            solver.stats()
        );
    }
}

#[test]
fn pigeonhole_6_trace_is_pinned() {
    assert_trace_pinned(
        &workloads::pigeonhole::instance(6),
        "solve-pin-pigeonhole_6.rtb",
    );
}

#[test]
fn longmult_4_trace_is_pinned() {
    assert_trace_pinned(&workloads::bmc::longmult(4), "solve-pin-longmult_4.rtb");
}

#[test]
fn pipe_8_4_trace_is_pinned() {
    assert_trace_pinned(&workloads::pipeline::pipe(8, 4), "solve-pin-pipe_8_4.rtb");
}

#[test]
fn pigeonhole_6_trace_under_frequent_reduction_is_pinned() {
    let cfg = SolverConfig {
        reduce_db_interval: 20,
        reduce_db_increment: 0,
        ..SolverConfig::default()
    };
    assert_trace_pinned_with(
        &workloads::pigeonhole::instance(6),
        cfg,
        "solve-pin-pigeonhole_6-reduce20.rtb",
    );
}
