//! Catching a buggy solver — the reason the checker exists.
//!
//! "During the recent SAT 2002 solver competition, quite a few submitted
//! SAT solvers were found to be buggy. Thus, a rigorous checker is needed
//! to validate the solvers." (paper §3)
//!
//! This example simulates four distinct solver/trace-generation bugs by
//! corrupting a genuine trace, and shows the diagnostic the checker
//! produces for each — precise enough to start debugging from.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example catch_buggy_solver
//! ```

use rescheck::prelude::*;
use rescheck::trace::TraceEvent;
use rescheck::workloads::pigeonhole;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let instance = pigeonhole::instance(5);
    let cnf = &instance.cnf;

    // A correct solver produces a genuine trace…
    let mut solver = Solver::from_cnf(cnf, SolverConfig::default());
    let mut sink = MemorySink::new();
    assert!(solver.solve_traced(&mut sink)?.is_unsat());
    let genuine = sink.into_events();
    for strategy in Strategy::ALL {
        check_unsat_claim(cnf, &genuine, strategy, &CheckConfig::default())?;
    }
    println!("genuine trace: accepted ✓\n");

    // …and each simulated bug is caught with a specific diagnostic.
    type BugInjection = Box<dyn Fn(&mut Vec<TraceEvent>)>;
    let bugs: Vec<(&str, BugInjection)> = vec![
        (
            "learning records the wrong antecedent id",
            Box::new(|events| {
                for e in events.iter_mut() {
                    if let TraceEvent::Learned { sources, .. } = e {
                        if sources.len() >= 3 {
                            sources[1] = sources[1].wrapping_add(1);
                            return;
                        }
                    }
                }
            }),
        ),
        (
            "a resolve source is dropped",
            Box::new(|events| {
                for e in events.iter_mut() {
                    if let TraceEvent::Learned { sources, .. } = e {
                        if sources.len() >= 3 {
                            sources.remove(1);
                            return;
                        }
                    }
                }
            }),
        ),
        (
            "a level-0 implication has its value flipped",
            Box::new(|events| {
                for e in events.iter_mut() {
                    if let TraceEvent::LevelZero { lit, .. } = e {
                        *lit = !*lit;
                        return;
                    }
                }
            }),
        ),
        (
            "the final conflict points at a satisfied clause",
            Box::new(|events| {
                for e in events.iter_mut() {
                    if let TraceEvent::FinalConflict { id } = e {
                        *id = 0; // an at-least-one clause, satisfied at level 0
                        return;
                    }
                }
            }),
        ),
    ];

    for (description, inject) in bugs {
        let mut corrupted = genuine.clone();
        inject(&mut corrupted);
        println!("bug: {description}");
        for strategy in Strategy::ALL {
            match check_unsat_claim(cnf, &corrupted, strategy, &CheckConfig::default()) {
                Ok(_) => println!("  {strategy:13} MISSED THE BUG (should never happen)"),
                Err(e) => println!("  {strategy:13} rejected: {e}"),
            }
        }
        println!();
    }
    Ok(())
}
