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
//! 2. **Build pass** (random access): depth-first's own walk
//!    ([`DfBuilder`]), with each resolve-source list fetched on demand
//!    through a [`TraceCursor`] seek ([`DiskLists`]). The walk reads a
//!    node's list twice — once to push its children, once to build it —
//!    and keeps neither, so nothing beyond the index grows with the
//!    trace.
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
//! the decoded residency the in-memory strategies account. ASCII traces
//! are not mapped: each fetch is a buffered line read, which seeks and
//! refills the buffer only when the record is not already in it.

use crate::api::CheckConfig;
use crate::depth_first::{DfBuilder, SourceLists};
use crate::error::CheckError;
use crate::memory::{MemoryMeter, INDEX_ENTRY_BYTES, LEVEL_ZERO_RECORD_BYTES};
use crate::model::{learned_capacity_hint, validate_learned, LevelZeroMap};
use crate::outcome::{CheckOutcome, Strategy};
use crate::scratch::CheckScratch;
use rescheck_cnf::Cnf;
use rescheck_obs::{Event, Observer, Phase};
use rescheck_trace::{RandomAccessTrace, TraceCursor, TraceEvent};
use std::io;
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

/// Source lists read from the trace itself: one positioned cursor read
/// per fetch, at the offset the index recorded.
struct DiskLists<'t> {
    index: FlatIndex,
    cursor: Box<dyn TraceCursor + 't>,
    reads: u64,
}

impl SourceLists for DiskLists<'_> {
    fn sources_into(
        &mut self,
        id: u64,
        referenced_by: Option<u64>,
        out: &mut Vec<u64>,
    ) -> Result<(), CheckError> {
        let offset = self
            .index
            .get(id)
            .ok_or(CheckError::UnknownClause { id, referenced_by })?;
        let event = self.cursor.event_at(offset).map_err(CheckError::Trace)?;
        self.reads += 1;
        match event {
            TraceEvent::Learned { id: got, sources } if got == id => {
                *out = sources;
                Ok(())
            }
            _ => Err(CheckError::Trace(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace offset for clause #{id} no longer addresses its record"),
            ))),
        }
    }
}

pub(crate) fn run<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let mut scratch = CheckScratch::new();
    run_scoped(cnf, trace, config, &mut scratch, obs)
}

/// [`run`] against caller-owned scratch buffers, as
/// [`crate::depth_first::run_scoped`].
pub(crate) fn run_scoped<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
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
    if let Some(hint) = learned_capacity_hint(map) {
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
                // Duplicate ids are caught when the index is sorted.
                validate_learned(id, sources.len(), num_original, |_| false)?;
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
    let learned_in_trace = index.len() as u64;
    let mut lists = DiskLists {
        index,
        cursor: trace.open_cursor()?,
        reads: 0,
    };
    let mut builder = DfBuilder::new(cnf, &mut lists, meter, config, scratch, obs);
    builder.prove(start_id, &level_zero)?;
    let outcome = builder.finish(
        Strategy::DiskDepthFirst,
        learned_in_trace,
        start,
        trace.encoded_size(),
    );
    obs.observe(&Event::GaugeSet {
        name: "check.dfd.index_entries",
        value: learned_in_trace as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.dfd.cursor_reads",
        value: lists.reads as f64,
    });
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_cnf::Lit;
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
}
