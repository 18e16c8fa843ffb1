//! Solver statistics.

use std::fmt;

/// Counters accumulated during a solve.
///
/// These feed the harness that regenerates Table 1 of the paper (learned
/// clause counts, runtimes) and are generally useful for performance
/// work.
///
/// # Examples
///
/// ```
/// use rescheck_solver::{Solver, SolverConfig};
/// use rescheck_cnf::Cnf;
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1]);
/// let mut solver = Solver::new(SolverConfig::default());
/// solver.add_formula(&cnf);
/// solver.solve();
/// assert!(solver.stats().propagations >= 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals enqueued by Boolean constraint propagation.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Learned clauses added to the database.
    pub learned_clauses: u64,
    /// Learned clauses deleted by database reductions.
    pub deleted_clauses: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learned-clause database reductions performed.
    pub db_reductions: u64,
    /// Total literals across all learned clauses (for average length).
    pub learned_literals: u64,
    /// Conflicts resolved without learning a new clause because the
    /// conflicting clause was already asserting.
    pub reused_conflicts: u64,
    /// Literals removed from learned clauses by self-subsuming
    /// minimization (each removal is a recorded resolution).
    pub minimized_literals: u64,
    /// Watch-list entries examined by propagation (blocker hits included).
    pub watch_visits: u64,
    /// Watch-list entries whose clause propagation had to dereference
    /// (the blocker was not true), tombstones included.
    pub clause_visits: u64,
}

impl SolverStats {
    /// Average learned clause length, or 0.0 if nothing was learned.
    pub fn avg_learned_len(&self) -> f64 {
        if self.learned_clauses == 0 {
            0.0
        } else {
            self.learned_literals as f64 / self.learned_clauses as f64
        }
    }
}

/// The `c decisions=…` line the CLI prints; the BCP visit counters are
/// left out so the line stays as scripts parse it.
impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={} learned={} (avg len {:.1}) \
             deleted={} restarts={} reductions={} reused={} minimized={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.learned_clauses,
            self.avg_learned_len(),
            self.deleted_clauses,
            self.restarts,
            self.db_reductions,
            self.reused_conflicts,
            self.minimized_literals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = SolverStats::default();
        assert_eq!(s.decisions, 0);
        assert_eq!(s.conflicts, 0);
        assert_eq!(s.avg_learned_len(), 0.0);
    }

    #[test]
    fn avg_learned_len() {
        let s = SolverStats {
            learned_clauses: 4,
            learned_literals: 10,
            ..SolverStats::default()
        };
        assert!((s.avg_learned_len() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn display_is_not_empty() {
        let s = SolverStats::default();
        assert!(s.to_string().contains("conflicts=0"));
    }

    #[test]
    fn display_covers_every_documented_counter() {
        let s = SolverStats {
            reused_conflicts: 3,
            minimized_literals: 17,
            ..SolverStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("reused=3"), "got: {text}");
        assert!(text.contains("minimized=17"), "got: {text}");
    }
}
