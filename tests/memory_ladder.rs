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

/// Accounted bytes of one cached normalized original clause: the
/// checker charges 24 bytes plus 4 per distinct literal.
fn cached_clause_bytes(cnf: &Cnf, id: usize) -> u64 {
    let mut lits: Vec<Lit> = cnf.clause(id).unwrap().to_vec();
    lits.sort_unstable();
    lits.dedup();
    24 + 4 * lits.len() as u64
}

/// Depth-first walks never free a built clause, and an unlimited run
/// never evicts a cached original, so both the mandatory bytes and the
/// cache only grow: the mandatory peak is the unlimited peak minus the
/// bytes of every cached core clause. At that budget the cache is full
/// when the last clause is built, and must yield its bytes rather than
/// fail the check.
fn assert_cache_yields_to_mandatory_charges(instance: &Instance, name: &str) {
    let path = binary_trace(instance, name);
    let trace = FileTrace::open(&path).unwrap();
    for strategy in [Strategy::DepthFirst, Strategy::DiskDepthFirst] {
        let unlimited = check_unsat_claim(&instance.cnf, &trace, strategy, &CheckConfig::default())
            .unwrap_or_else(|e| panic!("{name} {strategy}: {e}"));
        let core = unlimited.core.expect("depth-first reports a core");
        let cached: u64 = core
            .clause_ids
            .iter()
            .map(|&id| cached_clause_bytes(&instance.cnf, id))
            .sum();
        let mandatory = unlimited.stats.peak_memory_bytes - cached;
        assert!(
            passes(&instance.cnf, &trace, strategy, mandatory),
            "{name} {strategy}: must pass at its mandatory peak {mandatory} \
             ({cached} of {} peak bytes are cached originals)",
            unlimited.stats.peak_memory_bytes
        );
        assert!(
            !passes(&instance.cnf, &trace, strategy, mandatory - 1),
            "{name} {strategy}: must memory-out below its mandatory peak {mandatory}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pigeonhole_depth_first_passes_at_its_mandatory_peak_with_the_cache_full() {
    assert_cache_yields_to_mandatory_charges(&workloads::pigeonhole::instance(6), "php6-cache");
}

#[test]
fn pipe_depth_first_passes_at_its_mandatory_peak_with_the_cache_full() {
    assert_cache_yields_to_mandatory_charges(&workloads::pipeline::pipe(8, 4), "pipe_8_4-cache");
}
