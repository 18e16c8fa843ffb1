//! Proof analytics and trimming — the "other applications" of §4/§5.
//!
//! A validated proof is also an artifact worth studying and archiving:
//! this example measures the resolution-DAG shape of each benchmark
//! family's proof (depth, needed fraction, resolution counts), trims the
//! traces down to their needed subgraphs, and re-validates each trimmed
//! trace with the disk-backed depth-first checker.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example proof_analytics
//! ```

use rescheck::prelude::*;
use rescheck::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let instances = vec![
        workloads::pigeonhole::instance(6),
        workloads::parity::tseitin_cubic(12),
        workloads::equiv::adder_miter(10),
        workloads::bmc::longmult(4),
        workloads::bmc::sequential_multiplier(3, 5),
        workloads::pipeline::pipe(8, 2),
        workloads::routing::congested_channel(4, 12, 9),
        workloads::planning::agent_swap(6, 10),
    ];

    println!(
        "{:<22} {:>7} {:>7} {:>6} {:>6} {:>9} {:>7} {:>8}",
        "instance", "learned", "needed", "need%", "depth", "resols", "trim%", "core"
    );
    for instance in instances {
        let mut solver = Solver::from_cnf(&instance.cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        let result = solver.solve_traced(&mut trace)?;
        assert!(result.is_unsat(), "{}", instance.name);

        // Structural analytics — no clause is ever rebuilt.
        let stats = proof_stats(&instance.cnf, &trace)?;

        // Trim to the needed subgraph and confirm the result still
        // validates (with the disk-backed depth-first strategy, for
        // variety).
        let trimmed = trim_trace(&instance.cnf, &trace)?;
        let outcome = check_unsat_claim(
            &instance.cnf,
            &trimmed.events,
            Strategy::DiskDepthFirst,
            &CheckConfig::default(),
        )?;
        assert!(outcome.core.is_some());

        println!(
            "{:<22} {:>7} {:>7} {:>5.0}% {:>6} {:>9} {:>6.0}% {:>4}/{:<4}",
            instance.name,
            stats.learned_total,
            stats.needed,
            stats.needed_percent(),
            stats.depth,
            stats.derivation_resolutions,
            trimmed.kept_percent(),
            trimmed.core.num_clauses(),
            instance.num_clauses(),
        );
    }

    println!();
    println!(
        "Reading the table: xor-heavy proofs (longmult, tseitin) need most of what \
         they learn; padded instances (routing) have small cores; every trimmed \
         trace re-validated under the disk-backed depth-first checker."
    );
    Ok(())
}
