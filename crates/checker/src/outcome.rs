//! Results of a successful check.

use rescheck_cnf::Cnf;
use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Which traversal of the resolution graph a check used.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Build only the clauses needed for the proof, on demand (§3.2).
    DepthFirst,
    /// Build every learned clause in generation order, freeing each after
    /// its last use (§3.3).
    BreadthFirst,
    /// Depth-first with the trace left on disk: only a flat id → offset
    /// index stays resident and resolve-source lists are fetched on
    /// demand through a trace cursor. Bit-identical statistics and core
    /// to [`Strategy::DepthFirst`], without the `O(trace)` memory term
    /// (requires a random-access trace).
    DiskDepthFirst,
    /// Breadth-first's verification set rebuilt from a dependency DAG: a
    /// dense build pass resolves every id to an index once, then one
    /// thread walks the nodes in trace order with no hash lookups,
    /// freeing each clause at its last use. Same verdict, `clauses_built`
    /// and `resolutions` as breadth-first. (The name is historical: the
    /// walk was once spread over worker threads.)
    ParallelDag,
}

impl Strategy {
    /// Every strategy, in the order checks, oracles and tables list them.
    pub const ALL: [Strategy; 4] = [
        Strategy::DepthFirst,
        Strategy::BreadthFirst,
        Strategy::DiskDepthFirst,
        Strategy::ParallelDag,
    ];
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::DepthFirst => f.write_str("depth-first"),
            Strategy::BreadthFirst => f.write_str("breadth-first"),
            Strategy::DiskDepthFirst => f.write_str("disk-depth-first"),
            Strategy::ParallelDag => f.write_str("parallel-dag"),
        }
    }
}

/// A strategy name [`Strategy::from_str`](std::str::FromStr::from_str)
/// does not know. Its message lists the accepted short names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownStrategy(pub String);

impl fmt::Display for UnknownStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown strategy {:?} (df|bf|dfd|pdag)", self.0)
    }
}

impl Error for UnknownStrategy {}

impl FromStr for Strategy {
    type Err = UnknownStrategy;

    /// Parses a short name (`df`), its long form (`depth-first`) or the
    /// [`Display`](fmt::Display) name. The removed strategies' names stay
    /// accepted as aliases of their successors for one release: `pbf` and
    /// `parallel-bf` select [`Strategy::ParallelDag`], `hybrid` selects
    /// [`Strategy::DiskDepthFirst`].
    fn from_str(name: &str) -> Result<Strategy, UnknownStrategy> {
        match name {
            "df" | "depth-first" => Ok(Strategy::DepthFirst),
            "bf" | "breadth-first" => Ok(Strategy::BreadthFirst),
            "dfd" | "disk-df" | "disk-depth-first" | "hybrid" => Ok(Strategy::DiskDepthFirst),
            "pdag" | "parallel-dag" | "pbf" | "parallel-bf" => Ok(Strategy::ParallelDag),
            _ => Err(UnknownStrategy(name.to_string())),
        }
    }
}

/// An unsatisfiable core: the original clauses a proof actually used.
///
/// A by-product of the depth-first check (paper §3.2): the original
/// clauses touched while deriving the empty clause form a sub-formula
/// that is itself unsatisfiable. Useful for AI planning, FPGA routing and
/// model debugging (paper §4, Table 3).
///
/// # Examples
///
/// ```
/// use rescheck_checker::UnsatCore;
/// use rescheck_cnf::Cnf;
///
/// let mut cnf = Cnf::new();
/// cnf.add_dimacs_clause(&[1]);
/// cnf.add_dimacs_clause(&[-1]);
/// cnf.add_dimacs_clause(&[2, 3]); // irrelevant
/// let core = UnsatCore::new(vec![0, 1], &cnf);
/// assert_eq!(core.num_clauses(), 2);
/// assert_eq!(core.num_vars(), 1);
/// assert_eq!(core.to_subformula(&cnf).num_clauses(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsatCore {
    /// IDs (positions) of the original clauses used by the proof, sorted.
    pub clause_ids: Vec<usize>,
    num_vars: usize,
}

impl UnsatCore {
    /// Builds a core from the used clause IDs, computing the number of
    /// distinct variables those clauses mention.
    pub fn new(mut clause_ids: Vec<usize>, cnf: &Cnf) -> Self {
        clause_ids.sort_unstable();
        clause_ids.dedup();
        let mut used = vec![false; cnf.num_vars()];
        for &id in &clause_ids {
            if let Some(clause) = cnf.clause(id) {
                for lit in clause {
                    used[lit.var().index()] = true;
                }
            }
        }
        let num_vars = used.iter().filter(|&&u| u).count();
        UnsatCore {
            clause_ids,
            num_vars,
        }
    }

    /// Number of original clauses in the core.
    pub fn num_clauses(&self) -> usize {
        self.clause_ids.len()
    }

    /// Number of distinct variables the core clauses mention.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Extracts the core as a standalone formula over the same variable
    /// space, ready to be solved again (Table 3's iteration).
    pub fn to_subformula(&self, cnf: &Cnf) -> Cnf {
        cnf.subformula(self.clause_ids.iter().copied())
    }
}

/// Measurements of a check run (the per-instance data of Table 2).
#[derive(Clone, Debug)]
pub struct CheckStats {
    /// The strategy that produced these numbers.
    pub strategy: Strategy,
    /// Learned clauses defined by the trace.
    pub learned_in_trace: u64,
    /// Learned clauses actually (re)built by resolution.
    ///
    /// Depth-first builds a subset (Table 2's "Num. Cls Built");
    /// breadth-first builds all of them.
    pub clauses_built: u64,
    /// Total resolution steps performed, including the final derivation.
    pub resolutions: u64,
    /// Peak accounted memory in bytes (see [`crate::MemoryMeter`]).
    pub peak_memory_bytes: u64,
    /// Wall-clock time of the check.
    pub runtime: Duration,
    /// Size of the encoded trace in bytes, when the source knows it.
    pub trace_bytes: Option<u64>,
}

impl CheckStats {
    /// Percentage of learned clauses built (Table 2's "Built%").
    pub fn built_percent(&self) -> f64 {
        if self.learned_in_trace == 0 {
            0.0
        } else {
            100.0 * self.clauses_built as f64 / self.learned_in_trace as f64
        }
    }
}

impl fmt::Display for CheckStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: built {}/{} learned clauses ({:.1}%), {} resolutions, peak {} bytes, {:?}",
            self.strategy,
            self.clauses_built,
            self.learned_in_trace,
            self.built_percent(),
            self.resolutions,
            self.peak_memory_bytes,
            self.runtime,
        )
    }
}

/// The result of a successful UNSAT-claim validation.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The unsat core, when the strategy produces one (depth-first only).
    pub core: Option<UnsatCore>,
    /// Measurements of the run.
    pub stats: CheckStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_dedups_and_counts_vars() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[-2, 3]);
        cnf.add_dimacs_clause(&[4]);
        let core = UnsatCore::new(vec![1, 0, 1], &cnf);
        assert_eq!(core.clause_ids, vec![0, 1]);
        assert_eq!(core.num_clauses(), 2);
        assert_eq!(core.num_vars(), 3); // x1, x2, x3
        let sub = core.to_subformula(&cnf);
        assert_eq!(sub.num_clauses(), 2);
        assert_eq!(sub.num_vars(), cnf.num_vars());
    }

    #[test]
    fn built_percent() {
        let stats = CheckStats {
            strategy: Strategy::DepthFirst,
            learned_in_trace: 200,
            clauses_built: 50,
            resolutions: 0,
            peak_memory_bytes: 0,
            runtime: Duration::ZERO,
            trace_bytes: None,
        };
        assert!((stats.built_percent() - 25.0).abs() < 1e-9);
        assert!(stats.to_string().contains("25.0%"));

        let empty = CheckStats {
            learned_in_trace: 0,
            ..stats
        };
        assert_eq!(empty.built_percent(), 0.0);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::DepthFirst.to_string(), "depth-first");
        assert_eq!(Strategy::BreadthFirst.to_string(), "breadth-first");
    }

    #[test]
    fn every_strategy_name_and_alias_parses() {
        let table = [
            ("df", Strategy::DepthFirst),
            ("depth-first", Strategy::DepthFirst),
            ("bf", Strategy::BreadthFirst),
            ("breadth-first", Strategy::BreadthFirst),
            ("dfd", Strategy::DiskDepthFirst),
            ("disk-df", Strategy::DiskDepthFirst),
            ("disk-depth-first", Strategy::DiskDepthFirst),
            ("pdag", Strategy::ParallelDag),
            ("parallel-dag", Strategy::ParallelDag),
            // One-release aliases of the removed strategies.
            ("hybrid", Strategy::DiskDepthFirst),
            ("pbf", Strategy::ParallelDag),
            ("parallel-bf", Strategy::ParallelDag),
        ];
        for (name, want) in table {
            assert_eq!(name.parse::<Strategy>(), Ok(want), "{name}");
        }
        for s in Strategy::ALL {
            assert_eq!(s.to_string().parse::<Strategy>(), Ok(s));
        }
    }

    #[test]
    fn removed_and_unknown_strategies_are_rejected_with_the_kept_names() {
        for name in ["portfolio", "warp", "", "DF"] {
            let err = name.parse::<Strategy>().unwrap_err();
            assert_eq!(err, UnknownStrategy(name.to_string()));
            assert_eq!(
                err.to_string(),
                format!("unknown strategy {name:?} (df|bf|dfd|pdag)")
            );
        }
    }
}
