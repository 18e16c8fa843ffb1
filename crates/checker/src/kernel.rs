//! The mark-array resolution kernel: allocation-free chain resolution.
//!
//! The checker's hot loop — "resolve the distance clause with each
//! antecedent in order" (§3.2 of the paper) — previously called
//! [`resolve_sorted`](crate::resolve_sorted) once per antecedent. Each
//! call allocated a fresh resolvent `Vec` and re-merged the whole
//! accumulator, so a chain of `k` antecedents cost O(k·|acc|) literal
//! visits and `k` heap allocations. This kernel resolves the *entire*
//! chain against a variable-indexed stamp store instead: the seed clause
//! is marked into the store, every antecedent is folded in
//! O(|antecedent|), and the sorted resolvent is materialized exactly once
//! at the end. Total work for a chain with literal mass `L` is O(L + |r|
//! log |r|) for a resolvent `r`, and all scratch buffers are reused
//! across chains, so steady-state resolution performs **zero heap
//! allocations** (tracked by [`KernelStats::scratch_grows`]).
//!
//! The fold replicates `resolve_sorted`'s two-pointer merge semantics
//! bit-for-bit — including its behaviour on tautological inputs, where a
//! clause may contain both phases of a variable. `resolve_sorted` pairs
//! each antecedent literal with the *smallest-code unpaired* literal of
//! the same variable in the accumulator: equal literals merge, opposite
//! literals clash (both are consumed), and unpaired literals pass
//! through. The kernel reproduces this with two stamps per literal:
//! `present` (is this literal in the accumulator, stamped with the chain
//! generation) and `paired` (was this literal already paired during the
//! current fold, stamped with a fold sequence number). Bumping the
//! generation or the sequence number invalidates every stamp in O(1), so
//! nothing is ever cleared eagerly.
//!
//! The stamps live in two literal-code-indexed `u64` arrays, so a probe
//! of a variable reads at most two adjacent entries of each array, and
//! the 64-bit stamps never wrap in practice — no flush or un-pairing
//! sweep is ever needed. `resolve_sorted` remains the oracle:
//! `tests/kernel_diff.rs` drives random chains through the kernel and
//! asserts identical resolvents and identical failures.

use crate::resolve::ResolveFailure;
use rescheck_cnf::{Lit, Var};

/// Counters describing the kernel's work and scratch-memory behaviour.
///
/// `scratch_grows` is the allocation-freedom witness: it increments only
/// when the kernel's scratch footprint (mark arrays plus literal
/// buffers) grows. Once the kernel has seen the widest chain of a run it
/// stops incrementing, proving the steady state allocates nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of chains resolved (one per [`ResolutionKernel::begin`]).
    pub chains: u64,
    /// Total antecedent literals folded into accumulators.
    pub literals_folded: u64,
    /// Number of times the scratch footprint grew (reallocations).
    pub scratch_grows: u64,
    /// Peak scratch footprint in bytes across the kernel's lifetime.
    pub scratch_high_water: u64,
}

/// Resolves chains of clauses against a variable-indexed mark store.
///
/// Usage: [`begin`](Self::begin) with the seed clause, then
/// [`fold`](Self::fold) each antecedent in order (each fold enforces the
/// exactly-one-clash invariant and reports the pivot variable), then
/// [`finish`](Self::finish) to materialize the sorted resolvent.
///
/// All clauses handed to the kernel must be normalized (sorted,
/// duplicate-free), as produced by
/// [`normalize_literals`](crate::normalize_literals).
///
/// # Examples
///
/// ```
/// use rescheck_checker::kernel::ResolutionKernel;
/// use rescheck_checker::normalize_literals;
/// use rescheck_cnf::Lit;
///
/// let mut k = ResolutionKernel::new();
/// // (x + y) resolved with (¬y + z) gives (x + z).
/// k.begin(&normalize_literals([Lit::from_dimacs(1), Lit::from_dimacs(2)]));
/// let pivot = k
///     .fold(&normalize_literals([Lit::from_dimacs(-2), Lit::from_dimacs(3)]))
///     .unwrap();
/// assert_eq!(pivot.to_dimacs(), 2);
/// assert_eq!(
///     k.finish(),
///     normalize_literals([Lit::from_dimacs(1), Lit::from_dimacs(3)])
/// );
/// ```
#[derive(Debug, Default)]
pub struct ResolutionKernel {
    /// `present[code] == generation` iff the literal with that code is in
    /// the current accumulator.
    present: Vec<u64>,
    /// `paired[code] == fold_seq` iff the literal was paired during the
    /// current fold.
    paired: Vec<u64>,
    /// Stamp for the current chain; bumping it empties the accumulator.
    generation: u64,
    /// Globally monotone stamp; bumping it "unpairs" everything.
    fold_seq: u64,
    /// Insertion-ordered accumulator literals; may contain entries whose
    /// `present` stamp has since been cleared (lazy deletion).
    lits: Vec<Lit>,
    /// Resolvent buffer returned by [`finish`](Self::finish).
    out: Vec<Lit>,
    /// Clashing variables found by the current fold.
    clash: Vec<Var>,
    stats: KernelStats,
    /// Last observed scratch footprint in bytes, for growth tracking.
    footprint: u64,
}

impl ResolutionKernel {
    /// Creates a kernel with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new chain seeded with `seed`'s literals.
    ///
    /// Any in-progress chain is discarded (its stamps are invalidated in
    /// O(1) by bumping the generation).
    pub fn begin(&mut self, seed: &[Lit]) {
        debug_assert!(
            seed.windows(2).all(|w| w[0] < w[1]),
            "seed clause not normalized"
        );
        self.lits.clear();
        self.generation += 1;
        self.fold_seq += 1;
        if let Some(max) = seed.iter().map(|l| l.code() | 1).max() {
            if max >= self.present.len() {
                self.present.resize(max + 1, 0);
                self.paired.resize(max + 1, 0);
            }
        }
        let generation = self.generation;
        for &l in seed {
            self.present[l.code()] = generation;
            self.lits.push(l);
        }
        self.stats.chains += 1;
        self.note_footprint();
    }

    /// Folds one antecedent into the accumulator.
    ///
    /// Performs exactly the per-variable pairing `resolve_sorted` does:
    /// each antecedent literal pairs with the smallest-code unpaired
    /// accumulator literal of its variable — merging if equal, clashing
    /// (both consumed) if opposite — or joins the accumulator if no
    /// partner is available.
    ///
    /// Returns the pivot variable eliminated by this step.
    ///
    /// # Errors
    ///
    /// Returns [`ResolveFailure`] when the step has zero clashing
    /// variables or more than one, with `clashing_vars` identical to what
    /// [`resolve_sorted`](crate::resolve_sorted) would report for the
    /// same pair of clauses.
    pub fn fold(&mut self, antecedent: &[Lit]) -> Result<Var, ResolveFailure> {
        debug_assert!(
            antecedent.windows(2).all(|w| w[0] < w[1]),
            "antecedent clause not normalized"
        );
        self.clash.clear();
        self.fold_seq += 1;
        if let Some(max) = antecedent.iter().map(|l| l.code() | 1).max() {
            if max >= self.present.len() {
                self.present.resize(max + 1, 0);
                self.paired.resize(max + 1, 0);
            }
        }
        let generation = self.generation;
        let fold_seq = self.fold_seq;
        for &l in antecedent {
            let code = l.code();
            let positive = code & !1;
            let negative = positive | 1;
            // The smallest-code literal of this variable that is in the
            // accumulator and not yet paired during this fold.
            let head = if self.present[positive] == generation && self.paired[positive] != fold_seq
            {
                Some(positive)
            } else if self.present[negative] == generation && self.paired[negative] != fold_seq {
                Some(negative)
            } else {
                None
            };
            match head {
                // Shared literal: merged, output once.
                Some(h) if h == code => self.paired[h] = fold_seq,
                // Opposite phases: a clash, both literals consumed.
                Some(h) => {
                    self.present[h] = 0;
                    self.clash.push(l.var());
                }
                // No partner: the antecedent literal passes through.
                None => {
                    self.present[code] = generation;
                    self.paired[code] = fold_seq;
                    self.lits.push(l);
                }
            }
        }
        self.stats.literals_folded += antecedent.len() as u64;
        self.note_footprint();
        if self.clash.len() == 1 {
            Ok(self.clash[0])
        } else {
            Err(ResolveFailure {
                clashing_vars: self.clash.clone(),
            })
        }
    }

    /// Materializes the chain's resolvent as a sorted, duplicate-free
    /// literal slice.
    ///
    /// Consumes the chain: the returned slice stays valid until the next
    /// call on the kernel, and a fresh [`begin`](Self::begin) is needed
    /// to start the next chain.
    pub fn finish(&mut self) -> &[Lit] {
        self.out.clear();
        let generation = self.generation;
        for i in 0..self.lits.len() {
            let l = self.lits[i];
            // Unmark on emit so lazily-deleted duplicates are skipped.
            if self.present[l.code()] == generation {
                self.present[l.code()] = 0;
                self.out.push(l);
            }
        }
        self.out.sort_unstable();
        self.note_footprint();
        &self.out
    }

    /// Returns the kernel's lifetime counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Updates `scratch_grows`/`scratch_high_water` from current buffer
    /// capacities.
    fn note_footprint(&mut self) {
        use std::mem::size_of;
        let bytes = (self.present.capacity() * size_of::<u64>()
            + self.paired.capacity() * size_of::<u64>()
            + self.lits.capacity() * size_of::<Lit>()
            + self.out.capacity() * size_of::<Lit>()
            + self.clash.capacity() * size_of::<Var>()) as u64;
        if bytes > self.footprint {
            self.footprint = bytes;
            self.stats.scratch_grows += 1;
            self.stats.scratch_high_water = bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{normalize_literals, resolve_sorted};

    fn lits(ds: &[i64]) -> Vec<Lit> {
        normalize_literals(ds.iter().map(|&d| Lit::from_dimacs(d)))
    }

    /// Resolves a two-clause chain through a fresh kernel.
    fn kernel_pair(a: &[i64], b: &[i64]) -> Result<Vec<Lit>, ResolveFailure> {
        let mut k = ResolutionKernel::new();
        k.begin(&lits(a));
        k.fold(&lits(b))?;
        Ok(k.finish().to_vec())
    }

    #[test]
    fn paper_example() {
        assert_eq!(kernel_pair(&[1, 2], &[-2, 3]).unwrap(), lits(&[1, 3]));
    }

    #[test]
    fn unit_resolution_to_empty_clause() {
        assert!(kernel_pair(&[5], &[-5]).unwrap().is_empty());
    }

    #[test]
    fn shared_literals_are_merged_once() {
        assert_eq!(
            kernel_pair(&[1, 2, 3], &[-3, 1, 4]).unwrap(),
            lits(&[1, 2, 4])
        );
    }

    #[test]
    fn no_clash_is_an_error() {
        let err = kernel_pair(&[1, 2], &[3, 4]).unwrap_err();
        assert!(err.clashing_vars.is_empty());
    }

    #[test]
    fn double_clash_is_an_error() {
        let err = kernel_pair(&[1, 2], &[-1, -2]).unwrap_err();
        assert_eq!(
            err.clashing_vars,
            vec![Var::from_dimacs(1), Var::from_dimacs(2)]
        );
    }

    #[test]
    fn fold_reports_the_pivot() {
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[1, -2, 4]));
        assert_eq!(k.fold(&lits(&[2, 5])).unwrap(), Var::from_dimacs(2));
        assert_eq!(k.finish(), lits(&[1, 4, 5]));
    }

    #[test]
    fn long_chain_matches_iterated_oracle() {
        // Seed (p1 + x1), antecedents (¬p_i + p_{i+1} + x_{i+1}).
        let mut acc = lits(&[100, 1]);
        let mut k = ResolutionKernel::new();
        k.begin(&acc);
        for i in 1..40i64 {
            let ant = lits(&[-(100 + i - 1), 100 + i, i + 1]);
            acc = resolve_sorted(&acc, &ant).unwrap();
            assert_eq!(
                k.fold(&ant).unwrap(),
                Var::from_dimacs((100 + i - 1) as u32)
            );
        }
        assert_eq!(k.finish(), acc);
    }

    /// The per-variable pairing case table that distinguishes the kernel
    /// from a naive "negation present → clash" mark scheme. Each case is
    /// checked against the oracle.
    #[test]
    fn tautological_inputs_match_the_oracle() {
        let cases: &[(&[i64], &[i64])] = &[
            (&[7, -7], &[-7]),    // clash on x7, ¬x7 survives
            (&[7, -7], &[7]),     // no clash, both survive
            (&[-7], &[7, -7]),    // clash on x7, ¬x7 re-emitted
            (&[9], &[7, -7]),     // no clash, tautology passes through
            (&[7], &[7, -7]),     // no clash, both phases in output
            (&[7, -7], &[7, -7]), // both merge, no clash
        ];
        for (a, b) in cases {
            let oracle = resolve_sorted(&lits(a), &lits(b));
            let ours = kernel_pair(a, b);
            assert_eq!(ours, oracle, "diverged on a={a:?} b={b:?}");
        }
    }

    #[test]
    fn scratch_growth_stops_in_steady_state() {
        let mut k = ResolutionKernel::new();
        let seed = lits(&[1, 2, 3]);
        let ant = lits(&[-3, 4]);
        for _ in 0..3 {
            k.begin(&seed);
            k.fold(&ant).unwrap();
            k.finish();
        }
        let warm = k.stats();
        for _ in 0..100 {
            k.begin(&seed);
            k.fold(&ant).unwrap();
            k.finish();
        }
        let steady = k.stats();
        assert_eq!(steady.scratch_grows, warm.scratch_grows);
        assert_eq!(steady.scratch_high_water, warm.scratch_high_water);
        assert_eq!(steady.chains, warm.chains + 100);
        assert_eq!(steady.literals_folded, warm.literals_folded + 200);
    }

    #[test]
    fn kernel_is_reusable_after_a_failed_fold() {
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[1, 2]));
        assert!(k.fold(&lits(&[3, 4])).is_err());
        // The failed chain leaves no residue in the next one.
        k.begin(&lits(&[5]));
        k.fold(&lits(&[-5, 6])).unwrap();
        assert_eq!(k.finish(), lits(&[6]));
    }

    #[test]
    fn finish_without_folds_returns_the_seed() {
        let mut k = ResolutionKernel::new();
        k.begin(&lits(&[3, -1, 2]));
        assert_eq!(k.finish(), lits(&[-1, 2, 3]));
    }
}
