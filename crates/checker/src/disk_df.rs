//! The disk-backed depth-first checking strategy.
//!
//! Classic depth-first checking ([`crate::depth_first`]) loads the whole
//! resolve trace into memory before building a single clause, which is
//! exactly what makes it memory-out on hard instances (paper Table 2).
//! This module keeps depth-first's on-demand traversal — only the clauses
//! on the proof path are built, and an unsat core falls out — but leaves
//! the trace **on disk**:
//!
//! 1. **Index pass** (streaming): one pass over the encoded trace records
//!    each learned clause's byte offset in a flat sorted array — 16
//!    accounted bytes per learned clause instead of its whole source list
//!    (24 + 8·n bytes resident under the in-memory model).
//! 2. **Build pass** (random access): the usual iterative depth-first
//!    walk from the final conflicting clause, except that resolve-source
//!    lists are fetched on demand through a [`TraceCursor`] seek. A small
//!    memory-accounted cache keeps hot source lists (each DFS node needs
//!    its list twice: once to push children, once to build) so the
//!    common case costs one positioned read per needed clause.
//!
//! Built clauses are *not* freed after their last use — this is plain
//! depth-first with the trace residency removed,
//! so its statistics (`clauses_built`, `resolutions`, the unsat core) are
//! bit-identical to the in-memory depth-first strategy while its peak
//! accounted memory replaces the *decoded*-trace term with `O(index)`.
//!
//! For binary file traces both passes run through the established
//! [`TraceMap`]: the index pass decodes mapped bytes in place and every
//! "positioned read" of the build pass becomes a bounds-checked slice
//! parse at the indexed offset — no seek, no syscall, no read buffer.
//! The map's encoded bytes are charged to the meter up front (the same
//! under `mmap` and the buffered fallback), which is still far below
//! the decoded residency the in-memory strategies account.

use crate::api::CheckConfig;
use crate::arena::ClauseArena;
use crate::cache::OriginalCache;
use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::final_phase::{derive_empty_clause, ClauseProvider};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::kernel::ResolutionKernel;
use crate::memory::{trace_record_bytes, MemoryMeter, INDEX_ENTRY_BYTES, LEVEL_ZERO_RECORD_BYTES};
use crate::model::{learned_capacity_hint, LevelZeroMap};
use crate::outcome::{CheckOutcome, CheckStats, Strategy, UnsatCore};
use crate::resolve::normalize_literals;
use rescheck_cnf::{Cnf, Lit};
use rescheck_obs::{Event, Observer, Phase};
use rescheck_trace::{RandomAccessTrace, TraceCursor, TraceEvent, TraceMap};
use std::collections::VecDeque;
use std::io;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Learned-clause id → byte offset, stored flat and sorted: half the
/// resident footprint of a hash map at the same entry count, and the
/// 16-byte [`INDEX_ENTRY_BYTES`] accounting matches the layout exactly.
struct FlatIndex {
    entries: Vec<(u64, u64)>,
}

impl FlatIndex {
    /// Sorts the pass-1 entries by id and rejects duplicate definitions.
    fn from_entries(mut entries: Vec<(u64, u64)>) -> Result<Self, CheckError> {
        entries.sort_unstable_by_key(|&(id, _)| id);
        for pair in entries.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(CheckError::DuplicateLearnedId { id: pair[0].0 });
            }
        }
        Ok(FlatIndex { entries })
    }

    fn get(&self, id: u64) -> Option<u64> {
        self.entries
            .binary_search_by_key(&id, |&(entry_id, _)| entry_id)
            .ok()
            .map(|pos| self.entries[pos].1)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A memory-accounted FIFO cache of fetched source lists, mirroring
/// [`OriginalCache`]'s spare-budget discipline: each cached list is
/// charged [`trace_record_bytes`] to the meter, eviction is oldest-first
/// (deterministic accounting), and under pressure the cache evicts or
/// skips rather than ever causing a memory-out itself.
struct SourceCache {
    map: FxHashMap<u64, Rc<[u64]>>,
    order: VecDeque<u64>,
    bytes: u64,
    cap: Option<u64>,
    hits: u64,
}

impl SourceCache {
    fn new(cap: Option<u64>) -> Self {
        SourceCache {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            bytes: 0,
            cap,
            hits: 0,
        }
    }

    fn get(&mut self, id: u64) -> Option<Rc<[u64]>> {
        let found = self.map.get(&id).cloned();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    fn insert(&mut self, id: u64, sources: &Rc<[u64]>, meter: &mut MemoryMeter) {
        if self.map.contains_key(&id) {
            return;
        }
        let cost = trace_record_bytes(sources.len());
        if self.cap.is_some_and(|cap| cost > cap) {
            return;
        }
        while self.cap.is_some_and(|cap| self.bytes + cost > cap) {
            if !self.evict_one(meter) {
                return;
            }
        }
        while meter.alloc(cost).is_err() {
            if !self.evict_one(meter) {
                return;
            }
        }
        self.bytes += cost;
        self.order.push_back(id);
        self.map.insert(id, Rc::clone(sources));
    }

    fn evict_one(&mut self, meter: &mut MemoryMeter) -> bool {
        let Some(id) = self.order.pop_front() else {
            return false;
        };
        let sources = self.map.remove(&id).expect("order and map agree");
        let cost = trace_record_bytes(sources.len());
        self.bytes -= cost;
        meter.free(cost);
        true
    }
}

pub(crate) fn run<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let start = Instant::now();
    let num_original = cnf.num_clauses();
    let mut meter = MemoryMeter::new(config.memory_limit);
    let map = crate::model::establish_map(trace, config, obs);
    if let Some(map) = map {
        // The encoded trace stays resident (mapped or buffered) behind
        // the cursor for the whole check; charge it under both backings
        // so the peak is independent of `--no-mmap`.
        meter.alloc(map.accounted_bytes())?;
    }

    // ---- Pass 1: flat offset index + level-0 records + final conflicts.
    let pass1 = Phase::start("check:pass1", obs);
    let mut entries: Vec<(u64, u64)> = Vec::new();
    if let Some(hint) = learned_capacity_hint(trace, map.and_then(TraceMap::block_index)) {
        entries.reserve(hint);
    }
    let mut level_zero = LevelZeroMap::default();
    let mut final_ids: Vec<u64> = Vec::new();
    let mut seen: u64 = 0;
    for item in trace.offset_events()? {
        seen += 1;
        if seen.is_multiple_of(crate::depth_first::PROGRESS_STRIDE) {
            config.cancel.check()?;
        }
        let (offset, event) = item?;
        match event {
            TraceEvent::Learned { id, sources } => {
                if id < num_original as u64 {
                    return Err(CheckError::LearnedIdCollidesWithOriginal { id });
                }
                if sources.len() < 2 {
                    return Err(CheckError::Trace(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("learned clause #{id} has fewer than two resolve sources"),
                    )));
                }
                meter.alloc(INDEX_ENTRY_BYTES)?;
                entries.push((id, offset));
            }
            TraceEvent::LevelZero { lit, antecedent } => {
                level_zero.insert(lit, antecedent)?;
                meter.alloc(LEVEL_ZERO_RECORD_BYTES)?;
            }
            TraceEvent::FinalConflict { id } => final_ids.push(id),
        }
    }
    let index = FlatIndex::from_entries(entries)?;
    pass1.finish(obs);

    let start_id = *final_ids.first().ok_or(CheckError::NoFinalConflict)?;

    let mut builder = DiskDfBuilder {
        cnf,
        index: &index,
        cursor: trace.open_cursor()?,
        cache: SourceCache::new(config.source_cache_bytes),
        num_original,
        arena: ClauseArena::new(),
        kernel: ResolutionKernel::new(),
        original_cache: OriginalCache::new(config.original_cache_bytes),
        used_originals: vec![false; num_original],
        meter,
        cancel: config.cancel.clone(),
        resolutions: 0,
        clauses_built: 0,
        cursor_reads: 0,
        obs,
    };

    let resolve_phase = Phase::start("check:resolve", &mut *builder.obs);
    builder.build(start_id)?;
    resolve_phase.finish(&mut *builder.obs);

    let final_phase = Phase::start("final-phase", &mut *builder.obs);
    let final_stats = derive_empty_clause(start_id, &level_zero, &mut builder)?;
    final_phase.finish(&mut *builder.obs);

    let core_ids: Vec<usize> = builder
        .used_originals
        .iter()
        .enumerate()
        .filter(|(_, &used)| used)
        .map(|(i, _)| i)
        .collect();
    let core = UnsatCore::new(core_ids, cnf);

    let stats = CheckStats {
        strategy: Strategy::DiskDepthFirst,
        learned_in_trace: index.len() as u64,
        clauses_built: builder.clauses_built,
        resolutions: builder.resolutions + final_stats.resolutions,
        peak_memory_bytes: builder.meter.peak(),
        runtime: start.elapsed(),
        trace_bytes: trace.encoded_size(),
    };
    crate::depth_first::emit_check_gauges(builder.obs, &stats, builder.arena.len() as u64);
    crate::depth_first::emit_kernel_gauges(
        builder.obs,
        &builder.kernel.stats(),
        builder.arena.charged_bytes(),
        builder.arena.reuse_hits(),
    );
    builder.obs.observe(&Event::GaugeSet {
        name: "check.dfd.index_entries",
        value: index.len() as f64,
    });
    builder.obs.observe(&Event::GaugeSet {
        name: "check.dfd.cursor_reads",
        value: builder.cursor_reads as f64,
    });
    builder.obs.observe(&Event::GaugeSet {
        name: "check.dfd.cache_hits",
        value: builder.cache.hits as f64,
    });
    builder.obs.observe(&Event::GaugeSet {
        name: "check.dfd.cache_bytes",
        value: builder.cache.bytes as f64,
    });

    Ok(CheckOutcome {
        core: Some(core),
        stats,
    })
}

/// [`crate::depth_first`]'s `DfBuilder`, with the in-memory source table
/// replaced by cursor fetches through the flat offset index.
struct DiskDfBuilder<'a> {
    cnf: &'a Cnf,
    index: &'a FlatIndex,
    cursor: Box<dyn TraceCursor + 'a>,
    cache: SourceCache,
    num_original: usize,
    arena: ClauseArena,
    kernel: ResolutionKernel,
    original_cache: OriginalCache,
    used_originals: Vec<bool>,
    meter: MemoryMeter,
    cancel: CancelFlag,
    resolutions: u64,
    clauses_built: u64,
    cursor_reads: u64,
    obs: &'a mut dyn Observer,
}

impl DiskDfBuilder<'_> {
    /// Fetches the resolve-source list of learned clause `id`: from the
    /// hot cache when possible, otherwise via one positioned trace read.
    fn sources_of(&mut self, id: u64, referenced_by: Option<u64>) -> Result<Rc<[u64]>, CheckError> {
        if let Some(sources) = self.cache.get(id) {
            return Ok(sources);
        }
        let offset = self
            .index
            .get(id)
            .ok_or(CheckError::UnknownClause { id, referenced_by })?;
        let event = self.cursor.event_at(offset).map_err(CheckError::Trace)?;
        self.cursor_reads += 1;
        match event {
            TraceEvent::Learned { id: got, sources } if got == id => {
                let sources: Rc<[u64]> = sources.into();
                self.cache.insert(id, &sources, &mut self.meter);
                Ok(sources)
            }
            _ => Err(CheckError::Trace(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace offset for clause #{id} no longer addresses its record"),
            ))),
        }
    }

    fn original(&mut self, id: u64) -> Arc<[Lit]> {
        self.used_originals[id as usize] = true;
        if let Some(c) = self.original_cache.get(id) {
            return c;
        }
        let clause = self.cnf.clause(id as usize).expect("id < num_original");
        let lits: Arc<[Lit]> = Arc::from(normalize_literals(clause.iter().copied()));
        self.original_cache.insert(id, &lits, &mut self.meter);
        lits
    }

    /// Seeds (step 0) or folds (later steps) one source clause into the
    /// kernel.
    fn feed_source(&mut self, target: u64, step: usize, source: u64) -> Result<(), CheckError> {
        if source < self.num_original as u64 {
            let clause = self.original(source);
            if step == 0 {
                self.kernel.begin(&clause);
                return Ok(());
            }
            self.kernel.fold(&clause)
        } else {
            // Split borrow: the arena slice is read while the kernel's
            // disjoint scratch buffers are written.
            let Some(clause) = self.arena.get(source) else {
                return Err(CheckError::UnknownClause {
                    id: source,
                    referenced_by: Some(target),
                });
            };
            if step == 0 {
                self.kernel.begin(clause);
                return Ok(());
            }
            self.kernel.fold(clause)
        }
        .map_err(|failure| CheckError::NotResolvable {
            target: Some(target),
            step,
            with: source,
            failure,
        })?;
        self.resolutions += 1;
        Ok(())
    }

    /// Builds one learned clause from its already-built sources.
    fn build_one(&mut self, id: u64, sources: &[u64]) -> Result<(), CheckError> {
        for (step, &s) in sources.iter().enumerate() {
            self.feed_source(id, step, s)?;
        }
        let lits = self.kernel.finish();
        let clause_len = lits.len() as u64;
        self.arena.insert(id, lits, &mut self.meter)?;
        self.obs.observe(&Event::HistRecord {
            name: "check.resolve.chain_len",
            value: sources.len() as u64,
        });
        self.obs.observe(&Event::HistRecord {
            name: "check.resolve.clause_len",
            value: clause_len,
        });
        self.clauses_built += 1;
        if self
            .clauses_built
            .is_multiple_of(crate::depth_first::PROGRESS_STRIDE)
        {
            self.cancel.check()?;
            self.obs.observe(&Event::Progress {
                phase: "check:resolve",
                done: self.clauses_built,
                unit: "clauses",
                detail: None,
            });
        }
        Ok(())
    }

    /// Ensures clause `id` (and transitively its sources) is built —
    /// the same iterative gray-marked DFS as the in-memory depth-first
    /// builder, with each node's source list arriving by cursor fetch.
    fn build(&mut self, id: u64) -> Result<(), CheckError> {
        if id < self.num_original as u64 || self.arena.contains(id) {
            return Ok(());
        }
        let mut gray: FxHashSet<u64> = FxHashSet::default();
        let mut stack: Vec<(u64, Option<u64>)> = vec![(id, None)];
        while let Some(&(cur, parent)) = stack.last() {
            if cur < self.num_original as u64 || self.arena.contains(cur) {
                stack.pop();
                continue;
            }
            let sources = self.sources_of(cur, parent)?;
            if gray.contains(&cur) {
                // All dependencies were pushed; if one is still gray
                // the graph has a cycle, otherwise build now.
                for &s in sources.iter() {
                    if s >= self.num_original as u64 && !self.arena.contains(s) && gray.contains(&s)
                    {
                        return Err(CheckError::CyclicProof { id: s });
                    }
                }
                self.build_one(cur, &sources)?;
                stack.pop();
            } else {
                gray.insert(cur);
                for &s in sources.iter() {
                    if s >= self.num_original as u64 && !self.arena.contains(s) {
                        if gray.contains(&s) {
                            return Err(CheckError::CyclicProof { id: s });
                        }
                        stack.push((s, Some(cur)));
                    }
                }
            }
        }
        Ok(())
    }
}

impl ClauseProvider for DiskDfBuilder<'_> {
    fn clause_into(&mut self, id: u64, out: &mut Vec<Lit>) -> Result<(), CheckError> {
        if id < self.num_original as u64 {
            let clause = self.original(id);
            out.clear();
            out.extend_from_slice(&clause);
            return Ok(());
        }
        self.build(id)?;
        let clause = self.arena.get(id).expect("build(id) succeeded");
        out.clear();
        out.extend_from_slice(clause);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_obs::NullObserver;
    use rescheck_trace::{MemorySink, TraceSink};

    fn learned_proof() -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 1]).unwrap(); // (1)
        sink.learned(5, &[2, 3]).unwrap(); // (-1)
        sink.level_zero(Lit::from_dimacs(1), 4).unwrap();
        sink.final_conflict(5).unwrap();
        (cnf, sink)
    }

    #[test]
    fn accepts_learned_clause_proof_with_core() {
        let (cnf, sink) = learned_proof();
        let outcome = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        assert_eq!(outcome.stats.strategy, Strategy::DiskDepthFirst);
        assert_eq!(outcome.stats.clauses_built, 2);
        assert_eq!(outcome.stats.learned_in_trace, 2);
        assert_eq!(outcome.core.unwrap().clause_ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn stats_match_in_memory_depth_first() {
        let (cnf, sink) = learned_proof();
        let dfd = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        let df = crate::depth_first::run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver)
            .unwrap();
        assert_eq!(dfd.stats.clauses_built, df.stats.clauses_built);
        assert_eq!(dfd.stats.resolutions, df.stats.resolutions);
        assert_eq!(dfd.stats.learned_in_trace, df.stats.learned_in_trace);
        assert_eq!(dfd.core, df.core);
    }

    #[test]
    fn builds_only_needed_clauses() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-2]);
        cnf.add_dimacs_clause(&[3, 4]);
        cnf.add_dimacs_clause(&[3, -4]);
        let mut sink = MemorySink::new();
        sink.learned(5, &[3, 4]).unwrap(); // irrelevant to the proof
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.level_zero(Lit::from_dimacs(2), 1).unwrap();
        sink.final_conflict(2).unwrap();
        let outcome = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        assert_eq!(outcome.stats.clauses_built, 0);
        assert_eq!(outcome.core.unwrap().clause_ids, vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_learned_id_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(5, &[0, 1]).unwrap();
        sink.learned(5, &[1, 2]).unwrap();
        sink.final_conflict(0).unwrap();
        let err = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(err, CheckError::DuplicateLearnedId { id: 5 }));
    }

    #[test]
    fn missing_final_conflict_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let sink = MemorySink::new();
        assert!(matches!(
            run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err(),
            CheckError::NoFinalConflict
        ));
    }

    #[test]
    fn cycles_are_detected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(1, &[2, 0]).unwrap();
        sink.learned(2, &[1, 0]).unwrap();
        sink.final_conflict(1).unwrap();
        assert!(matches!(
            run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err(),
            CheckError::CyclicProof { .. }
        ));
    }

    #[test]
    fn unknown_source_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(1, &[0, 42]).unwrap();
        sink.final_conflict(1).unwrap();
        let err = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(err, CheckError::UnknownClause { id: 42, .. }));
    }

    #[test]
    fn memory_limit_applies() {
        let (cnf, sink) = learned_proof();
        let config = CheckConfig {
            memory_limit: Some(8),
            ..CheckConfig::default()
        };
        assert!(matches!(
            run(&cnf, &sink, &config, &mut NullObserver).unwrap_err(),
            CheckError::MemoryLimitExceeded { .. }
        ));
    }

    #[test]
    fn cache_serves_repeated_fetches() {
        // A diamond: #4 is a source of both #5 and #6, and each DFS node
        // needs its list twice (expand + build) — without the cache that
        // is several positioned reads, with it most fetches hit.
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]); // 0
        cnf.add_dimacs_clause(&[-2, 3]); // 1
        cnf.add_dimacs_clause(&[-3, 4]); // 2
        cnf.add_dimacs_clause(&[-3, -4]); // 3
        cnf.add_dimacs_clause(&[-1]); // 4
        let mut sink = MemorySink::new();
        sink.learned(5, &[0, 1]).unwrap(); // (1 3)
        sink.learned(6, &[5, 2]).unwrap(); // (1 4)
        sink.learned(7, &[5, 3]).unwrap(); // (1 -4)
        sink.learned(8, &[6, 7]).unwrap(); // (1)
        sink.level_zero(Lit::from_dimacs(1), 8).unwrap();
        sink.final_conflict(4).unwrap();
        let outcome = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        assert_eq!(outcome.stats.clauses_built, 4);

        // A zero-byte cache still checks correctly, just with more reads.
        let no_cache = CheckConfig {
            source_cache_bytes: Some(0),
            ..CheckConfig::default()
        };
        let uncached = run(&cnf, &sink, &no_cache, &mut NullObserver).unwrap();
        assert_eq!(uncached.stats.clauses_built, 4);
        assert_eq!(uncached.stats.resolutions, outcome.stats.resolutions);
    }

    #[test]
    fn capped_cache_stays_within_its_budget_share() {
        // The mandatory allocation sequence is identical with or without
        // the cache, so with a cap the accounted peak can exceed the
        // no-cache peak by at most the cap — and the check must pass
        // under a limit of exactly that sum.
        let (cnf, sink) = learned_proof();
        let no_cache = CheckConfig {
            source_cache_bytes: Some(0),
            ..CheckConfig::default()
        };
        let base = run(&cnf, &sink, &no_cache, &mut NullObserver)
            .unwrap()
            .stats
            .peak_memory_bytes;
        let cap = trace_record_bytes(2);
        let config = CheckConfig {
            memory_limit: Some(base + cap),
            source_cache_bytes: Some(cap),
            ..CheckConfig::default()
        };
        let outcome = run(&cnf, &sink, &config, &mut NullObserver).unwrap();
        assert!(outcome.stats.peak_memory_bytes <= base + cap);
    }
}
