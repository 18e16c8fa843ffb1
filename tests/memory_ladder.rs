//! The memory ladder: for each strategy, the smallest accounted-memory
//! budget under which it still validates a fixed solver trace. The paper's
//! ordering must hold on it — breadth-first is bounded and needs the
//! least, and the disk-backed depth-first walk needs no more than the
//! in-memory one it replaces — and every strategy must fail cleanly with
//! a memory-out one byte below its limit.

use rescheck::prelude::*;
use rescheck::workloads::{self, Instance};
use std::path::PathBuf;

/// Solves `instance` and writes its binary trace to a file, so the
/// disk-backed strategy maps it as `rescheck check` would.
fn binary_trace(instance: &Instance, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rescheck-memory-ladder");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.rtb", std::process::id()));
    let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let mut sink = BinaryWriter::new(file).unwrap();
    let mut solver = Solver::from_cnf(&instance.cnf, SolverConfig::default());
    assert!(solver.solve_traced(&mut sink).unwrap().is_unsat(), "{name}");
    sink.flush().unwrap();
    path
}

/// Checks under `limit`: `true` on a pass, `false` on a memory-out; any
/// other failure is a bug.
fn passes(cnf: &Cnf, trace: &FileTrace, strategy: Strategy, limit: u64) -> bool {
    let config = CheckConfig {
        memory_limit: Some(limit),
        ..CheckConfig::default()
    };
    match check_unsat_claim(cnf, trace, strategy, &config) {
        Ok(_) => true,
        Err(CheckError::MemoryLimitExceeded { .. }) => false,
        Err(other) => panic!("{strategy} under {limit} bytes: {other}"),
    }
}

/// The smallest passing limit, by binary search between a limit of zero
/// (fails) and the unlimited run's peak (passes: no charge ever exceeds
/// it).
fn smallest_passing_limit(cnf: &Cnf, trace: &FileTrace, strategy: Strategy) -> u64 {
    let unlimited = check_unsat_claim(cnf, trace, strategy, &CheckConfig::default())
        .unwrap_or_else(|e| panic!("{strategy}: {e}"));
    let (mut fails, mut holds) = (0, unlimited.stats.peak_memory_bytes);
    assert!(!passes(cnf, trace, strategy, fails));
    assert!(passes(cnf, trace, strategy, holds));
    while holds - fails > 1 {
        let mid = fails + (holds - fails) / 2;
        if passes(cnf, trace, strategy, mid) {
            holds = mid;
        } else {
            fails = mid;
        }
    }
    holds
}

fn assert_ladder(instance: &Instance, name: &str) {
    let path = binary_trace(instance, name);
    let trace = FileTrace::open(&path).unwrap();
    let limit = |strategy| {
        let limit = smallest_passing_limit(&instance.cnf, &trace, strategy);
        assert!(passes(&instance.cnf, &trace, strategy, limit));
        assert!(
            !passes(&instance.cnf, &trace, strategy, limit - 1),
            "{name} {strategy}: must memory-out one byte below its limit {limit}"
        );
        limit
    };
    let [df, bf, dfd, pdag] = [
        Strategy::DepthFirst,
        Strategy::BreadthFirst,
        Strategy::DiskDepthFirst,
        Strategy::ParallelDag,
    ]
    .map(limit);
    std::fs::remove_file(&path).ok();

    assert!(
        bf < df && bf < dfd && bf < pdag,
        "{name}: bf needs the least memory (bf {bf}, df {df}, dfd {dfd}, pdag {pdag})"
    );
    assert!(
        dfd <= df,
        "{name}: dfd must need no more memory than df (dfd {dfd}, df {df})"
    );
}

#[test]
fn pigeonhole_ladder_orders_the_strategies() {
    // Many short resolve chains.
    assert_ladder(&workloads::pigeonhole::instance(6), "php6");
}

#[test]
fn pipe_ladder_orders_the_strategies() {
    // Long resolve chains: dozens of sources per learned clause.
    assert_ladder(&workloads::pipeline::pipe(8, 4), "pipe_8_4");
}
