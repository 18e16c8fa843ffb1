//! # rescheck — validating SAT solvers with an independent resolution-based checker
//!
//! A from-scratch Rust reproduction of Zhang & Malik, *"Validating SAT
//! Solvers Using an Independent Resolution-Based Checker: Practical
//! Implementations and Other Applications"* (DATE 2003).
//!
//! The toolkit contains everything the paper builds or depends on:
//!
//! - [`cnf`] — the propositional substrate (literals, clauses, DIMACS),
//! - [`solver`] — a Chaff-style CDCL solver that emits *resolve traces*,
//! - [`trace`] — the trace format (ASCII and compact binary),
//! - [`checker`] — the paper's contribution: depth-first and
//!   breadth-first resolution checkers, failure diagnostics, unsat-core
//!   extraction and iterative core minimization,
//! - [`circuit`] — gate-level netlists, Tseitin encoding, miters and BMC
//!   unrolling (the EDA substrate behind the benchmarks),
//! - [`workloads`] — generators for every benchmark family of the
//!   paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use rescheck::prelude::*;
//!
//! // A formula the solver will refute…
//! let mut cnf = Cnf::new();
//! cnf.add_dimacs_clause(&[1, 2]);
//! cnf.add_dimacs_clause(&[1, -2]);
//! cnf.add_dimacs_clause(&[-1, 2]);
//! cnf.add_dimacs_clause(&[-1, -2]);
//!
//! // …solving while recording the resolution trace…
//! let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
//! let mut trace = MemorySink::new();
//! let result = solver.solve_traced(&mut trace)?;
//! assert!(result.is_unsat());
//!
//! // …and an independent checker re-derives the empty clause.
//! let outcome = check_unsat_claim(&cnf, &trace, Strategy::DepthFirst, &CheckConfig::default())?;
//! println!("validated: {}", outcome.stats);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rescheck_checker as checker;
pub use rescheck_circuit as circuit;
pub use rescheck_cnf as cnf;
pub use rescheck_interop as interop;
pub use rescheck_solver as solver;
pub use rescheck_trace as trace;
pub use rescheck_workloads as workloads;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use rescheck_checker::{
        check_breadth_first, check_depth_first, check_disk_depth_first, check_parallel_dag,
        check_sat_claim, check_unsat_claim, minimize_core, proof_stats, trim_trace, CheckConfig,
        CheckError, CheckOutcome, ProofStats, Strategy, TrimmedTrace, UnsatCore,
    };
    pub use rescheck_cnf::{dimacs, Assignment, Clause, Cnf, LBool, Lit, SatStatus, Var};
    pub use rescheck_solver::{SolveResult, Solver, SolverConfig, SolverStats};
    pub use rescheck_trace::{
        AsciiWriter, BinaryWriter, FileTrace, MemorySink, TraceSink, TraceSource,
    };
}
