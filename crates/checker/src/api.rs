//! Top-level checking entry points.

use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::outcome::CheckOutcome;
pub use crate::outcome::Strategy;
use crate::scratch::CheckScratch;
use rescheck_cnf::{Assignment, Cnf};
use rescheck_obs::{NullObserver, Observer, Span};
use rescheck_trace::{RandomAccessTrace, TraceSource};
use std::error::Error;
use std::fmt;

/// Options shared by every checking strategy.
///
/// # Examples
///
/// ```
/// use rescheck_checker::CheckConfig;
///
/// let cfg = CheckConfig {
///     memory_limit: Some(800 << 20), // the paper's 800 MB cap
///     ..CheckConfig::default()
/// };
/// assert!(cfg.memory_limit.is_some());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckConfig {
    /// Accounted-memory budget in bytes; `None` = unlimited.
    ///
    /// The paper ran both checkers with an 800 MB limit, under which the
    /// depth-first strategy fails on the largest instances (Table 2).
    pub memory_limit: Option<u64>,
    /// Request the buffered read-whole-file backing instead of `mmap`
    /// for file traces (the `--no-mmap` CLI flag; the
    /// `RESCHECK_NO_MMAP` environment variable has the same effect).
    /// This controls only how the bytes are *backed* — every map-based
    /// code path (slice decoding, block-index sizing, cursor fetches by
    /// pointer arithmetic) stays on, so verdicts and stats
    /// are bit-identical across the two settings. The map is charged to
    /// the memory meter identically in both modes.
    pub no_mmap: bool,
    /// Cooperative cancellation handle, polled at progress strides. The
    /// default flag is inert; arm one ([`CancelFlag::armed`]) to be able
    /// to stop a check from another thread.
    pub cancel: CancelFlag,
}

impl Default for CheckConfig {
    /// Unlimited memory, `mmap` when available and an inert cancel flag.
    fn default() -> Self {
        CheckConfig {
            memory_limit: None,
            no_mmap: false,
            cancel: CancelFlag::default(),
        }
    }
}

/// Validates an UNSAT claim with the chosen strategy.
///
/// # Errors
///
/// Returns a [`CheckError`] describing the first invalid proof step — the
/// claim is *not validated* in that case and the solver (or its trace
/// generation) should be considered buggy.
///
/// # Examples
///
/// ```
/// use rescheck_checker::{check_unsat_claim, CheckConfig, Strategy};
/// use rescheck_cnf::Cnf;
/// use rescheck_solver::{Solver, SolverConfig};
/// use rescheck_trace::MemorySink;
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1]);
/// cnf.add_dimacs_clause(&[-1]);
/// let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
/// let mut trace = MemorySink::new();
/// assert!(solver.solve_traced(&mut trace)?.is_unsat());
///
/// for strategy in Strategy::ALL {
///     check_unsat_claim(&cnf, &trace, strategy, &CheckConfig::default())?;
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_unsat_claim<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    strategy: Strategy,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    check_unsat_claim_observed(cnf, trace, strategy, config, &mut NullObserver)
}

/// [`check_unsat_claim`] with an [`Observer`] receiving phase timers
/// (`check:pass1`, `check:resolve`, `final-phase`) nested under a
/// per-strategy span (`check:df`, `check:bf`, `check:dfd`,
/// `check:pdag`), resolution-shape histograms (`check.resolve.chain_len`
/// — resolve sources per learned clause — and `check.resolve.clause_len`
/// — literals in each stored resolvent), progress heartbeats
/// and end-of-run gauges (`check.clauses_built`, `check.resolutions`,
/// `check.use_count_entries`, `check.peak_memory_bytes`), plus the
/// resolution hot path's own accounting: `check.kernel.chains`,
/// `check.kernel.literals_folded`, `check.kernel.scratch_grows`,
/// `check.kernel.scratch_high_water` from the mark-array
/// [`ResolutionKernel`](crate::kernel::ResolutionKernel), and
/// `check.arena.bytes`, `check.arena.reuse_hits` from the arena clause
/// store (`scratch_grows` stalling at a constant while `chains` keeps
/// rising is the observable form of the allocation-free steady state).
/// [`Strategy::DiskDepthFirst`] additionally reports its disk-access
/// accounting: `check.dfd.index_entries` (flat offset-index size) and
/// `check.dfd.cursor_reads` (positioned trace reads performed — two per
/// built clause, one to push its sources and one to build it). Strategies that establish a
/// memory-mapped trace backing ([`Strategy::DiskDepthFirst`] and
/// [`Strategy::ParallelDag`] on binary file traces) run it inside a
/// `trace-map` phase and emit `check.map.bytes` (accounted map length) and `check.map.mmap` (1 for the `mmap`
/// backing, 0 for the buffered fallback).
///
/// # Errors
///
/// See [`check_unsat_claim`].
///
/// # Examples
///
/// ```
/// use rescheck_checker::{check_unsat_claim_observed, CheckConfig, Strategy};
/// use rescheck_cnf::Cnf;
/// use rescheck_obs::MetricsSink;
/// use rescheck_solver::{Solver, SolverConfig};
/// use rescheck_trace::MemorySink;
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1]);
/// cnf.add_dimacs_clause(&[-1]);
/// let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
/// let mut trace = MemorySink::new();
/// assert!(solver.solve_traced(&mut trace)?.is_unsat());
///
/// let mut sink = MetricsSink::new();
/// check_unsat_claim_observed(
///     &cnf, &trace, Strategy::DiskDepthFirst, &CheckConfig::default(), &mut sink,
/// )?;
/// assert!(sink.registry().phase_seconds("check:pass1").is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_unsat_claim_observed<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    strategy: Strategy,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    // Every strategy runs inside a named span, so the metrics span tree
    // reads `<caller> > check:<strategy> > check:pass1/…`. The span is
    // stopped on the error path too — flight dumps see it close.
    let mut span = Span::start(span_name(strategy), obs);
    let result = match strategy {
        Strategy::DepthFirst => crate::depth_first::run(cnf, trace, config, obs),
        Strategy::BreadthFirst => crate::breadth_first::run(cnf, trace, config, obs),
        Strategy::DiskDepthFirst => crate::disk_df::run(cnf, trace, config, obs),
        Strategy::ParallelDag => crate::dag::run(cnf, trace, config, obs),
    };
    span.stop(obs);
    result
}

/// The span every check runs inside: `check:` plus the short name.
fn span_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::DepthFirst => "check:df",
        Strategy::BreadthFirst => "check:bf",
        Strategy::DiskDepthFirst => "check:dfd",
        Strategy::ParallelDag => "check:pdag",
    }
}

/// [`check_unsat_claim_observed`] against caller-owned scratch buffers,
/// for long-lived processes (the `rescheck serve` daemon) that run many
/// checks and want to reuse the kernel, arena and original-clause cache
/// across jobs instead of rebuilding them per job.
///
/// [`Strategy::DepthFirst`], [`Strategy::BreadthFirst`] and
/// [`Strategy::DiskDepthFirst`] run against the provided
/// [`CheckScratch`]; [`Strategy::ParallelDag`] keeps state of its own
/// shape (a dense DAG) and builds it, exactly like
/// [`check_unsat_claim_observed`] — passing a scratch is never wrong,
/// just not always a speedup.
///
/// Reported stats and accounted memory are bit-identical to the
/// unscoped entry point: reuse trades allocator work, never accounting.
/// See the [`crate::CheckScratch`] docs for the warm-tier rules
/// ([`CheckScratch::begin_job`]).
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_unsat_claim_scoped<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    strategy: Strategy,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let mut span = Span::start(span_name(strategy), obs);
    let result = match strategy {
        Strategy::DepthFirst => crate::depth_first::run_scoped(cnf, trace, config, scratch, obs),
        Strategy::BreadthFirst => {
            crate::breadth_first::run_scoped(cnf, trace, config, scratch, obs)
        }
        Strategy::DiskDepthFirst => crate::disk_df::run_scoped(cnf, trace, config, scratch, obs),
        Strategy::ParallelDag => crate::dag::run(cnf, trace, config, obs),
    };
    span.stop(obs);
    result
}

/// Validates an UNSAT claim with the depth-first strategy (§3.2).
///
/// On success the outcome carries the unsatisfiable core.
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_depth_first<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    crate::depth_first::run(cnf, trace, config, &mut NullObserver)
}

/// Validates an UNSAT claim with the breadth-first strategy (§3.3).
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_breadth_first<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    crate::breadth_first::run(cnf, trace, config, &mut NullObserver)
}

/// Validates an UNSAT claim with the disk-backed depth-first strategy:
/// depth-first's on-demand traversal (needed clauses only, unsat core as
/// a by-product) with the trace left on disk — one streaming pass builds
/// a flat id → byte-offset index, and resolve-source lists are fetched
/// through a trace cursor each time the walk needs them; none is kept.
///
/// Produces bit-identical `clauses_built` / `resolutions` and the same
/// unsat core as [`check_depth_first`], while the peak accounted memory
/// replaces the resident-trace term with 16 bytes per learned clause —
/// the strategy to reach for when depth-first memory-outs.
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_disk_depth_first<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    crate::disk_df::run(cnf, trace, config, &mut NullObserver)
}

/// Validates an UNSAT claim with the parallel-dag strategy: the trace's
/// learned clauses form a dependency DAG (each depends only on the
/// learned clauses it resolves with), built once into a dense,
/// index-addressed form and then resolved in trace order on one thread.
/// The build pass resolves every clause id to a dense index first, so
/// the resolution hot loop performs no hash lookups at all, and each
/// clause is freed at its last use, as in breadth-first.
///
/// Returns the same verdict, [`CheckStats::clauses_built`] and
/// [`CheckStats::resolutions`] as [`check_breadth_first`]. (The name is
/// historical: the strategy no longer spawns threads.)
///
/// [`CheckStats::resolutions`]: crate::CheckStats::resolutions
/// [`CheckStats::clauses_built`]: crate::CheckStats::clauses_built
///
/// # Errors
///
/// See [`check_unsat_claim`].
pub fn check_parallel_dag<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
) -> Result<CheckOutcome, CheckError> {
    crate::dag::run(cnf, trace, config, &mut NullObserver)
}

/// A SAT claim that does not hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelError {
    /// IDs of the clauses the claimed model fails to satisfy.
    pub falsified_or_undetermined: Vec<usize>,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "claimed model leaves {} clause(s) unsatisfied (first ids: {:?})",
            self.falsified_or_undetermined.len(),
            &self.falsified_or_undetermined[..self.falsified_or_undetermined.len().min(8)]
        )
    }
}

impl Error for ModelError {}

/// Validates a SAT claim: every clause must be satisfied by the model.
///
/// This is the easy direction the paper notes takes linear time for CNF.
/// Clauses that are undetermined (because the model leaves one of their
/// variables unassigned) count as unsatisfied — a valid SAT certificate
/// must determine every clause.
///
/// # Errors
///
/// Returns the IDs of unsatisfied clauses.
///
/// # Examples
///
/// ```
/// use rescheck_checker::check_sat_claim;
/// use rescheck_cnf::{Assignment, Cnf};
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1, -2]);
/// let good = Assignment::from_bools(&[true, true]);
/// assert!(check_sat_claim(&cnf, &good).is_ok());
///
/// let bad = Assignment::from_bools(&[false, true]);
/// let err = check_sat_claim(&cnf, &bad).unwrap_err();
/// assert_eq!(err.falsified_or_undetermined, vec![0]);
/// ```
pub fn check_sat_claim(cnf: &Cnf, model: &Assignment) -> Result<(), ModelError> {
    let bad: Vec<usize> = cnf
        .iter()
        .filter(|(_, c)| rescheck_cnf::evaluate_lits(c, model) != rescheck_cnf::LBool::True)
        .map(|(id, _)| id)
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(ModelError {
            falsified_or_undetermined: bad,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_cnf::Lit;
    use rescheck_trace::{MemorySink, TraceSink};

    #[test]
    fn both_strategies_accept_a_valid_proof() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1]);
        let mut sink = MemorySink::new();
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.final_conflict(1).unwrap();
        for strategy in [Strategy::DepthFirst, Strategy::BreadthFirst] {
            let outcome =
                check_unsat_claim(&cnf, &sink, strategy, &CheckConfig::default()).unwrap();
            assert_eq!(outcome.stats.strategy, strategy);
        }
    }

    #[test]
    fn sat_claim_with_partial_model_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        let partial = Assignment::new(2); // nothing assigned
        let err = check_sat_claim(&cnf, &partial).unwrap_err();
        assert_eq!(err.falsified_or_undetermined, vec![0]);
        assert!(err.to_string().contains("1 clause"));
    }

    #[test]
    fn sat_claim_on_empty_formula_holds() {
        let cnf = Cnf::with_vars(3);
        assert!(check_sat_claim(&cnf, &Assignment::new(3)).is_ok());
    }

    #[test]
    fn config_default_is_unlimited() {
        let cfg = CheckConfig::default();
        assert_eq!(cfg.memory_limit, None);
        assert!(!cfg.no_mmap);
        assert!(!cfg.cancel.is_cancelled());
    }
}
