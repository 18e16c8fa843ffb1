//! A memory-accounted cache of normalized original clauses.
//!
//! Every strategy normalizes original clauses (sort + dedup literals)
//! before resolving with them, and caches the result keyed by clause id.
//! The cache used to be a plain `HashMap` that was never charged to the
//! [`MemoryMeter`], so the accounted peak under-reported real residency —
//! on core-heavy instances by the size of the touched original clauses.
//!
//! [`OriginalCache`] fixes that: every cached clause is charged
//! [`clause_bytes`] to the meter, and eviction
//! is FIFO (insertion order) so the accounted peak stays deterministic —
//! `HashMap` iteration order is randomized per process and must not leak
//! into the byte accounting.
//!
//! The cache treats the meter's budget as *spare* capacity: if charging a
//! clause would exceed the memory limit, entries are evicted to make
//! room, and if that is not enough the clause is simply not cached. A
//! mandatory charge (an arena page or slot) goes through
//! [`make_room`], which evicts cached clauses before it lets the charge
//! fail. A cache can therefore never cause a [`MemoryLimitExceeded`]
//! failure — it only ever trades budget headroom for speed.
//!
//! # The warm tier
//!
//! When a cache outlives one job inside a reused
//! [`CheckScratch`](crate::CheckScratch), its entries are *demoted* to a
//! warm tier at job start ([`begin_job`]): they keep their normalized
//! literals but are **uncharged** — the finished job's meter is gone and
//! the next job's meter has charged nothing. On first touch the next job
//! takes the clause back out of the warm tier ([`take_warm`]) and
//! re-inserts it through the ordinary charged path, paying the identical
//! [`clause_bytes`] at the identical first-touch point a cold run would.
//! Per-job accounting is therefore a pure function of the access
//! sequence: peak bytes are bit-identical warm vs cold, and the shared
//! cache is never double-charged across back-to-back jobs on the same
//! formula.
//!
//! [`MemoryLimitExceeded`]: crate::CheckError::MemoryLimitExceeded
//! [`make_room`]: OriginalCache::make_room
//! [`begin_job`]: OriginalCache::begin_job
//! [`take_warm`]: OriginalCache::take_warm

use crate::fxhash::FxHashMap;
use crate::memory::{clause_bytes, MemoryMeter};
use crate::CheckError;
use rescheck_cnf::Lit;
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Default)]
pub(crate) struct OriginalCache {
    map: FxHashMap<u64, Arc<[Lit]>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
    /// Accounted bytes currently held by the cache.
    bytes: u64,
    /// Demoted entries from earlier jobs on the same formula: normalized
    /// but **not charged** to any meter. Promoted back through
    /// [`OriginalCache::insert`] on first touch.
    warm: FxHashMap<u64, Arc<[Lit]>>,
    /// Lifetime count of normalizations saved by the warm tier.
    warm_hits: u64,
}

impl OriginalCache {
    pub(crate) fn get(&self, id: u64) -> Option<Arc<[Lit]>> {
        self.map.get(&id).cloned()
    }

    /// Offers a freshly normalized clause to the cache, charging the
    /// meter on success. Never fails: under pressure it evicts oldest
    /// entries first, and skips caching when the clause cannot fit.
    pub(crate) fn insert(&mut self, id: u64, clause: &Arc<[Lit]>, meter: &mut MemoryMeter) {
        if self.map.contains_key(&id) {
            return;
        }
        let cost = clause_bytes(clause.len());
        while meter.alloc(cost).is_err() {
            if !self.evict_one(meter) {
                return;
            }
        }
        self.bytes += cost;
        self.order.push_back(id);
        self.map.insert(id, Arc::clone(clause));
    }

    /// Runs a mandatory charge, evicting cached clauses oldest first
    /// while it meets the budget. `charge` must leave the meter and its
    /// own state unchanged when it fails, since it is retried; its
    /// memory-out is returned only once the cache is empty.
    pub(crate) fn make_room(
        &mut self,
        meter: &mut MemoryMeter,
        mut charge: impl FnMut(&mut MemoryMeter) -> Result<(), CheckError>,
    ) -> Result<(), CheckError> {
        loop {
            match charge(meter) {
                Err(CheckError::MemoryLimitExceeded { .. }) if self.evict_one(meter) => {}
                result => return result,
            }
        }
    }

    /// Evicts the oldest entry, refunding its bytes. Returns `false` when
    /// the cache is already empty.
    fn evict_one(&mut self, meter: &mut MemoryMeter) -> bool {
        let Some(id) = self.order.pop_front() else {
            return false;
        };
        let clause = self.map.remove(&id).expect("order and map agree");
        let cost = clause_bytes(clause.len());
        self.bytes -= cost;
        meter.free(cost);
        true
    }

    /// Starts a new job on the **same formula**: demotes every charged
    /// entry to the warm tier and zeroes the per-job byte accounting.
    /// The outgoing job's meter is dropped with the job, so nothing is
    /// refunded; the incoming job's meter has charged nothing yet.
    pub(crate) fn begin_job(&mut self) {
        self.warm.extend(self.map.drain());
        self.order.clear();
        self.bytes = 0;
    }

    /// Drops every entry, warm and charged — the scratch is about to be
    /// used on a *different* formula, whose clause ids mean other things.
    pub(crate) fn reset(&mut self) {
        self.map.clear();
        self.order.clear();
        self.warm.clear();
        self.bytes = 0;
    }

    /// Takes a demoted clause out of the warm tier, if present. The
    /// caller re-offers it through [`OriginalCache::insert`], which is
    /// where (and only where) the current job's meter gets charged.
    pub(crate) fn take_warm(&mut self, id: u64) -> Option<Arc<[Lit]>> {
        let hit = self.warm.remove(&id);
        if hit.is_some() {
            self.warm_hits += 1;
        }
        hit
    }

    /// Lifetime count of normalizations the warm tier saved.
    pub(crate) fn warm_hits(&self) -> u64 {
        self.warm_hits
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    #[cfg(test)]
    pub(crate) fn warm_len(&self) -> usize {
        self.warm.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clause(lits: &[i64]) -> Arc<[Lit]> {
        lits.iter()
            .map(|&d| Lit::from_dimacs(d))
            .collect::<Vec<_>>()
            .into()
    }

    #[test]
    fn charges_the_meter() {
        let mut meter = MemoryMeter::unlimited();
        let mut cache = OriginalCache::default();
        let c = clause(&[1, 2]);
        cache.insert(0, &c, &mut meter);
        assert_eq!(meter.current(), clause_bytes(2));
        assert_eq!(cache.get(0).as_deref(), Some(c.as_ref()));
        // Reinsertion is a no-op (no double charge).
        cache.insert(0, &c, &mut meter);
        assert_eq!(meter.current(), clause_bytes(2));
    }

    #[test]
    fn never_exceeds_the_meter_budget() {
        // Budget fits one clause; the cache must evict rather than fail,
        // and skip caching entirely when nothing can be evicted.
        let mut meter = MemoryMeter::with_limit(clause_bytes(1));
        let mut cache = OriginalCache::default();
        cache.insert(0, &clause(&[1]), &mut meter);
        assert!(cache.get(0).is_some());
        cache.insert(1, &clause(&[2]), &mut meter);
        assert!(cache.get(0).is_none(), "oldest evicted to make room");
        assert!(cache.get(1).is_some());
        // A clause that can never fit is skipped without error.
        cache.insert(2, &clause(&[1, 2, 3, 4, 5, 6, 7, 8]), &mut meter);
        assert!(cache.get(2).is_none());
        assert!(meter.current() <= clause_bytes(1));
    }

    #[test]
    fn mandatory_charges_evict_before_failing() {
        // Budget: two cached one-literal clauses, nothing spare.
        let mut meter = MemoryMeter::with_limit(2 * clause_bytes(1));
        let mut cache = OriginalCache::default();
        cache.insert(0, &clause(&[1]), &mut meter);
        cache.insert(1, &clause(&[2]), &mut meter);
        assert_eq!(cache.len(), 2);
        // A mandatory charge of one entry's size evicts the oldest only.
        let cost = clause_bytes(1);
        cache.make_room(&mut meter, |m| m.alloc(cost)).unwrap();
        assert!(cache.get(0).is_none() && cache.get(1).is_some());
        assert_eq!(meter.current(), 2 * clause_bytes(1));
        // A charge beyond the whole budget empties the cache, then fails.
        let err = cache.make_room(&mut meter, |m| m.alloc(cost + 1));
        assert!(matches!(err, Err(CheckError::MemoryLimitExceeded { .. })));
        assert_eq!(cache.len(), 0);
        assert_eq!(meter.current(), clause_bytes(1));
    }

    #[test]
    fn begin_job_demotes_without_charging() {
        let mut meter = MemoryMeter::unlimited();
        let mut cache = OriginalCache::default();
        cache.insert(0, &clause(&[1, 2]), &mut meter);
        cache.insert(1, &clause(&[3]), &mut meter);

        // New job, fresh meter: nothing charged, entries demoted.
        let mut meter2 = MemoryMeter::unlimited();
        cache.begin_job();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.warm_len(), 2);

        // First touch promotes through the charged path — the same cost
        // at the same point a cold run would pay it.
        let warm = cache.take_warm(0).expect("demoted entry");
        cache.insert(0, &warm, &mut meter2);
        assert_eq!(meter2.current(), clause_bytes(2));
        assert_eq!(cache.warm_hits(), 1);
        assert_eq!(cache.warm_len(), 1);
        assert!(cache.take_warm(0).is_none(), "promotion consumes the entry");
    }

    #[test]
    fn reset_clears_the_warm_tier_too() {
        let mut meter = MemoryMeter::unlimited();
        let mut cache = OriginalCache::default();
        cache.insert(0, &clause(&[1]), &mut meter);
        cache.begin_job();
        assert_eq!(cache.warm_len(), 1);
        cache.reset();
        assert_eq!(cache.warm_len(), 0);
        assert!(cache.take_warm(0).is_none());
    }
}
