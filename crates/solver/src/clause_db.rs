//! The clause database: original and learned clauses with stable IDs.

use rescheck_cnf::{Clause, Lit};
use std::fmt;

/// A stable identifier for a clause in the database.
///
/// IDs follow the convention the paper's checker relies on (§3.1):
/// original clauses are numbered by order of appearance, learned clauses
/// continue the sequence, and an ID is never reused — deleted learned
/// clauses leave a tombstone.
///
/// # Examples
///
/// ```
/// use rescheck_solver::ClauseId;
///
/// let id = ClauseId::new(7);
/// assert_eq!(id.as_u64(), 7);
/// assert_eq!(id.to_string(), "#7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClauseId(u32);

impl ClauseId {
    /// Creates a clause ID from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 32 bits.
    pub fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "clause id out of range");
        ClauseId(index as u32)
    }

    /// The raw index of this ID.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The ID as used in traces.
    pub fn as_u64(self) -> u64 {
        u64::from(self.0)
    }
}

impl fmt::Debug for ClauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClauseId({})", self.0)
    }
}

impl fmt::Display for ClauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Span length marking a tombstone (no clause can be this long: the
/// arena offsets are 32-bit too).
const DEAD: u32 = u32::MAX;

/// The solver's clause store.
///
/// Original clauses are added first (their IDs match the input CNF's
/// clause positions); learned clauses are appended during search. Learned
/// clauses can be removed, leaving a tombstone so later IDs stay valid —
/// the watch lists clean dangling references lazily.
///
/// Every clause's literals live in one flat arena, in ID order; a dense
/// per-ID `(offset, len)` table locates them and a per-ID vector holds
/// activities. A clause is thus one table load plus one contiguous slice
/// away, with no per-clause allocation. When the literals of removed
/// clauses outnumber the live ones, the arena is compacted: offsets
/// move, IDs (which are trace IDs) never do.
///
/// # Examples
///
/// ```
/// use rescheck_cnf::Clause;
/// use rescheck_solver::ClauseDb;
///
/// let mut db = ClauseDb::new();
/// let id = db.add_original(Clause::from_dimacs(&[1, -2]));
/// assert_eq!(id.index(), 0);
/// assert_eq!(db.literals(id).unwrap().len(), 2);
/// assert!(!db.is_learned(id));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClauseDb {
    /// Literals of every clause, in ID order (tombstones leave gaps until
    /// the next compaction).
    arena: Vec<Lit>,
    /// Per ID: `(offset into arena, length)`, length [`DEAD`] for a
    /// tombstone.
    spans: Vec<(u32, u32)>,
    /// Per ID: clause activity (0.0 for originals).
    activity: Vec<f64>,
    num_original: usize,
    live_learned: usize,
    deleted_learned: u64,
    /// Literals of live clauses (the rest of `arena` is dead).
    live_lits: usize,
    cla_inc: f64,
}

impl ClauseDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        ClauseDb {
            cla_inc: 1.0,
            ..ClauseDb::default()
        }
    }

    /// Number of original (input) clauses.
    pub fn num_original(&self) -> usize {
        self.num_original
    }

    /// Number of learned clauses currently alive.
    pub fn num_live_learned(&self) -> usize {
        self.live_learned
    }

    /// Number of learned clauses deleted so far.
    pub fn num_deleted_learned(&self) -> u64 {
        self.deleted_learned
    }

    /// Total number of IDs ever allocated.
    pub fn num_ids(&self) -> usize {
        self.spans.len()
    }

    /// Adds an original clause.
    ///
    /// Literal duplicates are removed; original clause IDs must match the
    /// input CNF, so this must be called for *every* input clause (even
    /// tautologies) before any learned clause is added.
    ///
    /// # Panics
    ///
    /// Panics if a learned clause was already added.
    pub fn add_original(&mut self, clause: Clause) -> ClauseId {
        assert_eq!(
            self.num_original,
            self.spans.len(),
            "original clauses must be added before learned clauses"
        );
        let mut lits = clause.into_literals();
        dedup_preserving_order(&mut lits);
        self.num_original += 1;
        self.push(&lits, 0.0)
    }

    /// Adds a learned clause and returns its ID.
    pub fn add_learned(&mut self, lits: &[Lit]) -> ClauseId {
        self.live_learned += 1;
        self.push(lits, self.cla_inc)
    }

    fn push(&mut self, lits: &[Lit], activity: f64) -> ClauseId {
        let id = ClauseId::new(self.spans.len());
        let offset = u32::try_from(self.arena.len()).expect("clause arena exceeds 2^32 literals");
        let len = u32::try_from(lits.len()).expect("clause length fits in 32 bits");
        assert!(len != DEAD, "clause length fits in 32 bits");
        self.arena.extend_from_slice(lits);
        self.spans.push((offset, len));
        self.activity.push(activity);
        self.live_lits += lits.len();
        id
    }

    /// The arena range of a live clause.
    #[inline]
    fn range(&self, id: ClauseId) -> Option<std::ops::Range<usize>> {
        match self.spans.get(id.index()) {
            Some(&(offset, len)) if len != DEAD => {
                Some(offset as usize..offset as usize + len as usize)
            }
            _ => None,
        }
    }

    /// The literals of a live clause, or `None` for tombstones/bad IDs.
    #[inline]
    pub fn literals(&self, id: ClauseId) -> Option<&[Lit]> {
        let range = self.range(id)?;
        Some(&self.arena[range])
    }

    /// Mutable literals of a live clause (the solver reorders watches).
    #[inline]
    pub fn literals_mut(&mut self, id: ClauseId) -> Option<&mut [Lit]> {
        let range = self.range(id)?;
        Some(&mut self.arena[range])
    }

    /// Returns `true` if the ID refers to a live clause.
    pub fn is_live(&self, id: ClauseId) -> bool {
        self.range(id).is_some()
    }

    /// Returns `true` if the clause is learned (live learned clauses only).
    pub fn is_learned(&self, id: ClauseId) -> bool {
        id.index() >= self.num_original && self.is_live(id)
    }

    /// Removes a learned clause, leaving a tombstone.
    ///
    /// # Panics
    ///
    /// Panics if the clause is original or already removed.
    pub fn remove_learned(&mut self, id: ClauseId) {
        let span = self.spans.get_mut(id.index()).expect("clause id in range");
        assert!(span.1 != DEAD, "clause is live");
        assert!(
            id.index() >= self.num_original,
            "original clauses are never removed"
        );
        self.live_lits -= span.1 as usize;
        span.1 = DEAD;
        self.live_learned -= 1;
        self.deleted_learned += 1;
        if self.arena.len() - self.live_lits > self.live_lits {
            self.compact();
        }
    }

    /// Slides every live clause down over the gaps tombstones left. IDs
    /// are in arena order, so one forward pass moves each clause at most
    /// once and never over a live literal.
    fn compact(&mut self) {
        let mut end = 0usize;
        for span in &mut self.spans {
            if span.1 == DEAD {
                continue;
            }
            let (offset, len) = (span.0 as usize, span.1 as usize);
            self.arena.copy_within(offset..offset + len, end);
            span.0 = end as u32;
            end += len;
        }
        debug_assert_eq!(end, self.live_lits);
        self.arena.truncate(end);
    }

    /// Current activity of a clause (0.0 for originals and tombstones).
    pub fn activity(&self, id: ClauseId) -> f64 {
        if self.is_live(id) {
            self.activity[id.index()]
        } else {
            0.0
        }
    }

    /// Bumps a learned clause's activity, rescaling all activities when
    /// they grow too large.
    pub fn bump_activity(&mut self, id: ClauseId) {
        if !self.is_live(id) {
            return;
        }
        let activity = &mut self.activity[id.index()];
        *activity += self.cla_inc;
        if *activity > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    /// Applies the per-conflict clause-activity decay.
    pub fn decay_activity(&mut self, clause_decay: f64) {
        self.cla_inc /= clause_decay;
    }

    /// Iterates over live learned clause IDs.
    pub fn learned_ids(&self) -> impl Iterator<Item = ClauseId> + '_ {
        self.spans
            .iter()
            .enumerate()
            .skip(self.num_original)
            .filter(|(_, span)| span.1 != DEAD)
            .map(|(i, _)| ClauseId::new(i))
    }

    /// Accounted memory of live clauses in bytes (literals only).
    pub fn live_bytes(&self) -> u64 {
        (self.live_lits * std::mem::size_of::<Lit>()) as u64
    }
}

/// Removes duplicate literals while keeping first occurrences in place.
fn dedup_preserving_order(lits: &mut Vec<Lit>) {
    let mut seen = std::collections::HashSet::with_capacity(lits.len());
    lits.retain(|l| seen.insert(*l));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(ds: &[i64]) -> Vec<Lit> {
        ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn original_ids_are_sequential() {
        let mut db = ClauseDb::new();
        let a = db.add_original(Clause::from_dimacs(&[1]));
        let b = db.add_original(Clause::from_dimacs(&[2, -1]));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(db.num_original(), 2);
        assert_eq!(db.num_ids(), 2);
        assert!(!db.is_learned(a));
    }

    #[test]
    fn duplicates_in_original_are_removed() {
        let mut db = ClauseDb::new();
        let id = db.add_original(Clause::from_dimacs(&[1, 2, 1, -3, 2]));
        assert_eq!(db.literals(id).unwrap(), lits(&[1, 2, -3]).as_slice());
    }

    #[test]
    fn learned_ids_continue_after_original() {
        let mut db = ClauseDb::new();
        db.add_original(Clause::from_dimacs(&[1]));
        let l = db.add_learned(&lits(&[2, 3]));
        assert_eq!(l.index(), 1);
        assert!(db.is_learned(l));
        assert_eq!(db.num_live_learned(), 1);
        assert_eq!(db.learned_ids().collect::<Vec<_>>(), vec![l]);
    }

    #[test]
    #[should_panic(expected = "before learned")]
    fn original_after_learned_is_rejected() {
        let mut db = ClauseDb::new();
        db.add_learned(&lits(&[1]));
        db.add_original(Clause::from_dimacs(&[2]));
    }

    #[test]
    fn remove_leaves_tombstone() {
        let mut db = ClauseDb::new();
        db.add_original(Clause::from_dimacs(&[1]));
        let l1 = db.add_learned(&lits(&[2]));
        let l2 = db.add_learned(&lits(&[3]));
        db.remove_learned(l1);
        assert!(!db.is_live(l1));
        assert!(db.is_live(l2));
        assert!(db.literals(l1).is_none());
        assert_eq!(db.num_live_learned(), 1);
        assert_eq!(db.num_deleted_learned(), 1);
        // IDs are not reused.
        let l3 = db.add_learned(&lits(&[4]));
        assert_eq!(l3.index(), 3);
    }

    #[test]
    #[should_panic(expected = "never removed")]
    fn removing_original_panics() {
        let mut db = ClauseDb::new();
        let id = db.add_original(Clause::from_dimacs(&[1]));
        db.remove_learned(id);
    }

    #[test]
    fn activity_bump_and_decay() {
        let mut db = ClauseDb::new();
        let a = db.add_learned(&lits(&[1]));
        let b = db.add_learned(&lits(&[2]));
        db.bump_activity(a);
        assert!(db.activity(a) > db.activity(b));
        db.decay_activity(0.5);
        db.bump_activity(b);
        // After decay the increment is larger, so b overtakes a.
        assert!(db.activity(b) > db.activity(a));
    }

    #[test]
    fn activity_rescale_preserves_order() {
        let mut db = ClauseDb::new();
        let a = db.add_learned(&lits(&[1]));
        let b = db.add_learned(&lits(&[2]));
        for _ in 0..400 {
            db.decay_activity(0.5); // inc doubles each time → overflows 1e100
            db.bump_activity(a);
        }
        db.bump_activity(b);
        assert!(db.activity(a).is_finite());
        assert!(db.activity(a) > db.activity(b));
    }

    #[test]
    fn live_bytes_tracks_literals() {
        let mut db = ClauseDb::new();
        db.add_original(Clause::from_dimacs(&[1, 2]));
        let l = db.add_learned(&lits(&[3, 4, 5]));
        let per_lit = std::mem::size_of::<Lit>() as u64;
        assert_eq!(db.live_bytes(), 5 * per_lit);
        db.remove_learned(l);
        assert_eq!(db.live_bytes(), 2 * per_lit);
    }

    #[test]
    fn compaction_keeps_ids_and_literals() {
        let mut db = ClauseDb::new();
        db.add_original(Clause::from_dimacs(&[1, 2]));
        let learned: Vec<ClauseId> = (0..8)
            .map(|i| db.add_learned(&lits(&[i + 3, -(i + 4), i + 5])))
            .collect();
        db.bump_activity(learned[7]);
        let arena_before = db.arena.len();
        // The fifth removal leaves 11 live literals against 15 dead and
        // compacts; the sixth leaves 3 dead behind.
        for &id in &learned[..6] {
            db.remove_learned(id);
        }
        assert!(db.arena.len() < arena_before);
        assert_eq!(db.arena.len(), 2 + 3 * 3);
        assert_eq!(db.live_bytes(), 8 * std::mem::size_of::<Lit>() as u64);
        assert_eq!(
            db.literals(ClauseId::new(0)).unwrap(),
            lits(&[1, 2]).as_slice()
        );
        for (i, &id) in learned.iter().enumerate() {
            let i = i as i64;
            if i < 6 {
                assert!(db.literals(id).is_none());
            } else {
                assert_eq!(
                    db.literals(id).unwrap(),
                    lits(&[i + 3, -(i + 4), i + 5]).as_slice()
                );
            }
        }
        assert!(db.activity(learned[7]) > db.activity(learned[6]));
        assert_eq!(db.learned_ids().collect::<Vec<_>>(), learned[6..].to_vec());
        // New clauses append after the compacted live ones.
        let next = db.add_learned(&lits(&[9]));
        assert_eq!(next.index(), 9);
        assert_eq!(db.literals(next).unwrap(), lits(&[9]).as_slice());
    }

    #[test]
    fn literals_mut_reorders_in_place() {
        let mut db = ClauseDb::new();
        let id = db.add_original(Clause::from_dimacs(&[1, 2, 3]));
        db.literals_mut(id).unwrap().swap(0, 2);
        assert_eq!(db.literals(id).unwrap(), lits(&[3, 2, 1]).as_slice());
        let empty = db.add_original(Clause::empty());
        assert_eq!(db.literals(empty).unwrap(), &[] as &[Lit]);
        assert!(db.literals_mut(ClauseId::new(5)).is_none());
    }

    #[test]
    fn clause_id_display() {
        assert_eq!(ClauseId::new(3).to_string(), "#3");
        assert_eq!(format!("{:?}", ClauseId::new(3)), "ClauseId(3)");
        assert_eq!(ClauseId::new(9).as_u64(), 9);
    }
}
