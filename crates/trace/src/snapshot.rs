//! Shareable in-memory traces for parallel checking.
//!
//! Parallel consumers need several threads to iterate **one** trace at
//! the same time — for example a sharded pass 1 that splits the event
//! stream across counting workers. A
//! [`TraceSnapshot`] is an immutable, atomically reference-counted event
//! vector that is `Send + Sync` and clones in O(1), and
//! [`TraceSnapshot::chunks`] carves it into [`TraceChunk`]s — contiguous,
//! index-tagged windows that workers can take ownership of without
//! copying any event data.
//!
//! A snapshot is one of **two** ways to share one trace across threads.
//! It holds *decoded* events, so capturing it costs a full decode plus
//! an owned allocation per record — the right trade when the events
//! were already in memory (a solver's [`crate::MemorySink`]). For
//! binary *file* traces, a [`crate::TraceMap`] shares the *encoded*
//! bytes instead: workers decode their own disjoint shard of the
//! mapped slice (see [`crate::BlockIndex::shard_ranges`]), and nothing
//! is copied up front. Snapshots of a mapped `FileTrace` still work —
//! `capture` streams through the established map — but the sharded
//! checkers prefer decoding from the map directly.

use crate::{OffsetEventsIter, RandomAccessTrace, TraceCursor, TraceEvent, TraceSource};
use std::io;
use std::sync::Arc;

/// An immutable, thread-shareable copy of a trace.
///
/// The offset of each event (for [`RandomAccessTrace`]) is its index, as
/// for the other in-memory sources.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{MemorySink, TraceSink, TraceSnapshot, TraceSource};
///
/// let mut sink = MemorySink::new();
/// sink.learned(5, &[0, 1])?;
/// sink.final_conflict(5)?;
///
/// let snap = TraceSnapshot::capture(&sink)?;
/// let handle = snap.clone(); // O(1): shares the same events
/// std::thread::scope(|s| {
///     s.spawn(move || assert_eq!(handle.len(), 2));
/// });
/// assert_eq!(snap.events_iter()?.count(), 2);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    events: Arc<[TraceEvent]>,
    encoded_size: Option<u64>,
}

impl TraceSnapshot {
    /// Captures a snapshot by streaming `source` once.
    ///
    /// The snapshot remembers the source's `encoded_size`, so checkers
    /// report the same `trace_bytes` as they would for the original.
    ///
    /// # Errors
    ///
    /// Propagates the first read or parse error from the source.
    pub fn capture<S: TraceSource + ?Sized>(source: &S) -> io::Result<Self> {
        let events: Vec<TraceEvent> = source.events_iter()?.collect::<io::Result<_>>()?;
        Ok(TraceSnapshot {
            events: events.into(),
            encoded_size: source.encoded_size(),
        })
    }

    /// Wraps an event vector directly (no encoded size).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        TraceSnapshot {
            events: events.into(),
            encoded_size: None,
        }
    }

    /// The events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` for an event-free trace.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Splits the snapshot into at most `n` contiguous chunks of
    /// near-equal size, covering every event exactly once and in order.
    ///
    /// Returns fewer than `n` chunks when there are fewer than `n`
    /// events, and an empty vector for an empty trace. Chunks share the
    /// snapshot's storage — no events are copied.
    pub fn chunks(&self, n: usize) -> Vec<TraceChunk> {
        let total = self.events.len();
        if total == 0 || n == 0 {
            return Vec::new();
        }
        let per = total.div_ceil(n);
        let mut out = Vec::with_capacity(total.div_ceil(per));
        let mut start = 0;
        while start < total {
            let end = (start + per).min(total);
            out.push(TraceChunk {
                events: Arc::clone(&self.events),
                start,
                end,
            });
            start = end;
        }
        out
    }
}

impl From<Vec<TraceEvent>> for TraceSnapshot {
    fn from(events: Vec<TraceEvent>) -> Self {
        TraceSnapshot::from_events(events)
    }
}

impl TraceSource for TraceSnapshot {
    fn events_iter(&self) -> io::Result<Box<dyn Iterator<Item = io::Result<TraceEvent>> + '_>> {
        self.events[..].events_iter()
    }

    fn encoded_size(&self) -> Option<u64> {
        self.encoded_size
    }
}

impl RandomAccessTrace for TraceSnapshot {
    fn offset_events(&self) -> io::Result<OffsetEventsIter<'_>> {
        self.events[..].offset_events()
    }

    fn open_cursor(&self) -> io::Result<Box<dyn TraceCursor + '_>> {
        self.events[..].open_cursor()
    }
}

/// An owned, `Send` window into a [`TraceSnapshot`].
///
/// A chunk knows the global index of its first event, so sharded workers
/// can report per-event positions that merge back into the sequential
/// order.
#[derive(Clone, Debug)]
pub struct TraceChunk {
    events: Arc<[TraceEvent]>,
    start: usize,
    end: usize,
}

impl TraceChunk {
    /// Global index (within the snapshot) of this chunk's first event.
    pub fn first_index(&self) -> u64 {
        self.start as u64
    }

    /// The chunk's events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events[self.start..self.end]
    }

    /// Number of events in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if the chunk holds no events.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, TraceSink};
    use rescheck_cnf::Lit;

    fn sample() -> Vec<TraceEvent> {
        (0..10)
            .map(|i| TraceEvent::Learned {
                id: 100 + i,
                sources: vec![i, i + 1],
            })
            .chain([
                TraceEvent::LevelZero {
                    lit: Lit::from_dimacs(-3),
                    antecedent: 109,
                },
                TraceEvent::FinalConflict { id: 109 },
            ])
            .collect()
    }

    #[test]
    fn snapshot_is_send_sync_and_shares_storage() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceSnapshot>();
        assert_send_sync::<TraceChunk>();

        let snap = TraceSnapshot::from_events(sample());
        let clone = snap.clone();
        assert!(std::ptr::eq(
            snap.events().as_ptr(),
            clone.events().as_ptr()
        ));
    }

    #[test]
    fn capture_preserves_events_and_size() {
        let mut sink = MemorySink::new();
        sink.learned(5, &[0, 1]).unwrap();
        sink.final_conflict(5).unwrap();
        let snap = TraceSnapshot::capture(&sink).unwrap();
        assert_eq!(snap.events(), sink.events());
        assert_eq!(snap.encoded_size(), sink.encoded_size());
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
    }

    #[test]
    fn chunks_partition_in_order() {
        let events = sample();
        let snap = TraceSnapshot::from_events(events.clone());
        for n in 1..=events.len() + 3 {
            let chunks = snap.chunks(n);
            assert!(chunks.len() <= n);
            let mut rebuilt = Vec::new();
            let mut next_index = 0u64;
            for c in &chunks {
                assert_eq!(c.first_index(), next_index);
                assert_eq!(c.len(), c.events().len());
                assert!(!c.is_empty());
                next_index += c.len() as u64;
                rebuilt.extend_from_slice(c.events());
            }
            assert_eq!(rebuilt, events);
        }
    }

    #[test]
    fn degenerate_chunkings() {
        assert!(TraceSnapshot::from_events(Vec::new()).chunks(4).is_empty());
        let snap = TraceSnapshot::from_events(sample());
        assert!(snap.chunks(0).is_empty());
    }

    #[test]
    fn snapshot_is_a_random_access_source() {
        let events = sample();
        let snap: TraceSnapshot = events.clone().into();
        let streamed: Vec<TraceEvent> = snap
            .events_iter()
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(streamed, events);
        let mut cursor = snap.open_cursor().unwrap();
        assert_eq!(cursor.event_at(3).unwrap(), events[3]);
        let pairs: Vec<(u64, TraceEvent)> = snap
            .offset_events()
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(pairs.len(), events.len());
    }
}
