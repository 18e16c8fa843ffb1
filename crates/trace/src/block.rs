//! Block-buffered binary trace decoding.
//!
//! [`crate::BinaryReader`] issues a `read_exact` per tag byte and per
//! varint byte and materializes an owned [`TraceEvent`] (with a freshly
//! allocated `sources` vector) per record. On Table-2-scale traces those
//! per-record costs dominate checking. [`BlockDecoder`] instead refills
//! one [`READ_BUFFER_BYTES`]-sized buffer and decodes varints in place,
//! straddling block boundaries by compacting the unconsumed tail to the
//! front; source lists land in a reused scratch vector handed out as a
//! borrowed [`EventRef`], so steady-state decoding performs no heap
//! allocation at all.
//!
//! The decoder accepts exactly the byte streams [`crate::BinaryReader`]
//! accepts and reports the same `InvalidData` diagnostics on malformed
//! input (see the differential tests below).
//!
//! [`READ_BUFFER_BYTES`]: rescheck_cnf::READ_BUFFER_BYTES

use crate::binary::{TAG_FINAL, TAG_LEARNED, TAG_LEVEL_ZERO};
use crate::{EventRef, TraceEvent, BINARY_MAGIC};
use rescheck_cnf::{Lit, READ_BUFFER_BYTES};
use std::io::{self, Read};

/// Streams borrowed trace events from binary input through one reused
/// block buffer.
///
/// This is a lending reader: each [`BlockDecoder::next_event`] call
/// returns an [`EventRef`] borrowing the decoder's scratch space, valid
/// until the next call. Wrap the decoder in [`BlockDecoder::into_events`]
/// for an owned-event `Iterator` compatible with [`crate::BinaryReader`].
///
/// # Examples
///
/// ```
/// use rescheck_trace::{BlockDecoder, BinaryWriter, EventRef, TraceSink};
///
/// let mut buf = Vec::new();
/// let mut w = BinaryWriter::new(&mut buf)?;
/// w.learned(2, &[0, 1])?;
///
/// let mut decoder = BlockDecoder::new(std::io::Cursor::new(buf))?;
/// assert_eq!(
///     decoder.next_event()?,
///     Some(EventRef::Learned { id: 2, sources: &[0, 1] })
/// );
/// assert_eq!(decoder.next_event()?, None);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct BlockDecoder<R> {
    reader: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
    scratch: Vec<u64>,
    events: u64,
    bytes_read: u64,
    refills: u64,
}

impl<R: Read> BlockDecoder<R> {
    /// Creates a decoder with the default block size, consuming and
    /// validating the magic header.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if the magic does not match
    /// and [`io::ErrorKind::UnexpectedEof`] if the input is shorter than
    /// the magic.
    pub fn new(reader: R) -> io::Result<Self> {
        Self::with_block_size(reader, READ_BUFFER_BYTES)
    }

    /// Creates a decoder refilling in `block_size`-byte reads (clamped to
    /// a small minimum). Exposed so tests can force records to straddle
    /// refill boundaries.
    ///
    /// # Errors
    ///
    /// As for [`BlockDecoder::new`].
    pub fn with_block_size(reader: R, block_size: usize) -> io::Result<Self> {
        let mut decoder = BlockDecoder {
            reader,
            buf: vec![0; block_size.max(16)],
            start: 0,
            end: 0,
            eof: false,
            scratch: Vec::new(),
            events: 0,
            bytes_read: 0,
            refills: 0,
        };
        while decoder.end - decoder.start < BINARY_MAGIC.len() {
            if !decoder.fill_more()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ));
            }
        }
        if decoder.buf[decoder.start..decoder.start + BINARY_MAGIC.len()] != BINARY_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a rescheck binary trace (bad magic)",
            ));
        }
        decoder.start += BINARY_MAGIC.len();
        Ok(decoder)
    }

    /// Number of events decoded so far.
    pub fn events_decoded(&self) -> u64 {
        self.events
    }

    /// Number of bytes pulled from the underlying reader so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Number of buffer refills (reads issued on the underlying reader).
    pub fn refills(&self) -> u64 {
        self.refills
    }

    /// Wraps the decoder into an owned-event iterator (the compatibility
    /// shim matching [`crate::BinaryReader`]'s item type).
    pub fn into_events(self) -> BlockEvents<R> {
        BlockEvents { decoder: self }
    }

    /// Decodes the next record, or `None` at a clean end of input.
    ///
    /// The returned [`EventRef`] borrows the decoder's scratch buffer and
    /// is invalidated by the next call.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on malformed records (same
    /// diagnostics as [`crate::BinaryReader`]),
    /// [`io::ErrorKind::UnexpectedEof`] on truncation mid-record, and any
    /// error from the underlying reader.
    pub fn next_event(&mut self) -> io::Result<Option<EventRef<'_>>> {
        let Some(tag) = self.read_byte()? else {
            return Ok(None);
        };
        self.events += 1;
        match tag {
            TAG_LEARNED => {
                let id = self.read_varint()?;
                let count = self.read_varint()?;
                if count < 2 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "learned clause needs at least two resolve sources",
                    ));
                }
                if count > (1 << 32) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "implausible resolve-source count",
                    ));
                }
                self.scratch.clear();
                // Bound the speculative reservation: `count` is attacker-
                // controlled until the sources actually decode.
                self.scratch.reserve(count.min(65_536) as usize);
                // When the whole source list provably fits in the buffered
                // window (10 bytes is the longest varint), decode it with a
                // local cursor: one window check for the list instead of
                // one per varint.
                if (self.end - self.start) / 10 >= count as usize {
                    let mut pos = self.start;
                    for _ in 0..count {
                        let first = self.buf[pos];
                        if first < 0x80 {
                            pos += 1;
                            self.scratch.push(u64::from(first));
                        } else {
                            let chunk: &[u8; 10] = self.buf[pos..pos + 10]
                                .try_into()
                                .expect("slice of length 10");
                            let (value, consumed) = decode_varint_chunk(chunk)?;
                            pos += consumed;
                            self.scratch.push(value);
                        }
                    }
                    self.start = pos;
                } else {
                    for _ in 0..count {
                        let source = self.read_varint()?;
                        self.scratch.push(source);
                    }
                }
                Ok(Some(EventRef::Learned {
                    id,
                    sources: &self.scratch,
                }))
            }
            TAG_LEVEL_ZERO => {
                let code = self.read_varint()?;
                if code > u32::MAX as u64 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "literal code out of range",
                    ));
                }
                let antecedent = self.read_varint()?;
                Ok(Some(EventRef::LevelZero {
                    lit: Lit::from_code(code as usize),
                    antecedent,
                }))
            }
            TAG_FINAL => {
                let id = self.read_varint()?;
                Ok(Some(EventRef::FinalConflict { id }))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown binary trace tag 0x{other:02x}"),
            )),
        }
    }

    /// Pulls more bytes from the reader, compacting the unconsumed tail
    /// to the front of the buffer first. Returns `false` at end of input.
    fn fill_more(&mut self) -> io::Result<bool> {
        if self.eof {
            return Ok(false);
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        debug_assert!(self.end < self.buf.len(), "a varint is at most 10 bytes");
        loop {
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(false);
                }
                Ok(n) => {
                    self.end += n;
                    self.bytes_read += n as u64;
                    self.refills += 1;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn read_byte(&mut self) -> io::Result<Option<u8>> {
        if self.start == self.end && !self.fill_more()? {
            return Ok(None);
        }
        let byte = self.buf[self.start];
        self.start += 1;
        Ok(Some(byte))
    }

    /// Decodes one LEB128 varint, normally entirely within the buffered
    /// window; only a varint straddling a refill boundary falls back to
    /// the byte-at-a-time tail loop. Matches [`crate::varint::read_u64`]
    /// exactly, including its overflow diagnostics.
    #[inline]
    fn read_varint(&mut self) -> io::Result<u64> {
        // Hot path: a varint is at most 10 bytes, so with 10 buffered
        // bytes in hand the whole value decodes from a fixed-size chunk
        // with no per-byte window checks (the common case with a block
        // buffer three orders of magnitude larger than a record).
        if self.end - self.start >= 10 {
            let chunk: &[u8; 10] = self.buf[self.start..self.start + 10]
                .try_into()
                .expect("slice of length 10");
            let first = chunk[0];
            if first < 0x80 {
                self.start += 1;
                return Ok(u64::from(first));
            }
            let (value, consumed) = decode_varint_chunk(chunk)?;
            self.start += consumed;
            return Ok(value);
        }
        self.read_varint_boundary()
    }

    /// Cold path for varints near the end of the buffered window: byte
    /// at a time, refilling as needed.
    fn read_varint_boundary(&mut self) -> io::Result<u64> {
        let mut value: u64 = 0;
        let mut shift: u32 = 0;
        let mut consumed = 0usize;
        let window = self.end - self.start;
        while consumed < window {
            let byte = self.buf[self.start + consumed];
            consumed += 1;
            if shift == 63 && byte > 1 {
                self.start += consumed;
                return Err(varint_overflow());
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                self.start += consumed;
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                self.start += consumed;
                return Err(varint_overflow());
            }
        }
        self.start += consumed;
        loop {
            let Some(byte) = self.read_byte()? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ));
            };
            if shift == 63 && byte > 1 {
                return Err(varint_overflow());
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(varint_overflow());
            }
        }
    }
}

fn varint_overflow() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "LEB128 value overflows u64")
}

/// Decodes one LEB128 varint known to lie entirely within `chunk`,
/// returning the value and the number of bytes consumed. Overflow
/// semantics match [`crate::varint::read_u64`]: a 10th byte above 1 or
/// an 11th continuation byte is an overflow.
#[inline]
fn decode_varint_chunk(chunk: &[u8; 10]) -> io::Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in chunk.iter().enumerate() {
        if shift == 63 && byte > 1 {
            return Err(varint_overflow());
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    // All ten bytes had continuation bits: an 11th byte would be
    // required, which read_u64 rejects as overflow.
    Err(varint_overflow())
}

/// Borrowed-from-map decoding: [`BlockDecoder`]'s semantics over an
/// in-memory byte slice, with no read buffer and no copy.
///
/// This is the decoder the [`crate::TraceMap`] paths use — one-shot
/// strategies and `rescheck serve` jobs decode straight off the mapped
/// bytes. It accepts exactly
/// the streams [`BlockDecoder`] accepts and reports identical
/// diagnostics (kind and message) on malformed or truncated input; the
/// differential tests below run both decoders over the same corpora.
///
/// # Examples
///
/// ```
/// use rescheck_trace::{BinaryWriter, EventRef, SliceDecoder, TraceSink};
///
/// let mut buf = Vec::new();
/// let mut w = BinaryWriter::new(&mut buf)?;
/// w.learned(2, &[0, 1])?;
///
/// let mut decoder = SliceDecoder::new(&buf)?;
/// assert_eq!(
///     decoder.next_event()?,
///     Some(EventRef::Learned { id: 2, sources: &[0, 1] })
/// );
/// assert_eq!(decoder.next_event()?, None);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct SliceDecoder<'a> {
    data: &'a [u8],
    pos: usize,
    scratch: Vec<u64>,
    events: u64,
}

impl<'a> SliceDecoder<'a> {
    /// Creates a decoder over a whole trace, validating the magic.
    ///
    /// # Errors
    ///
    /// As for [`BlockDecoder::new`].
    pub fn new(data: &'a [u8]) -> io::Result<Self> {
        if data.len() < BINARY_MAGIC.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "failed to fill whole buffer",
            ));
        }
        if data[..BINARY_MAGIC.len()] != BINARY_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a rescheck binary trace (bad magic)",
            ));
        }
        Ok(SliceDecoder {
            data,
            pos: BINARY_MAGIC.len(),
            scratch: Vec::new(),
            events: 0,
        })
    }

    /// Current byte offset into the slice (a record boundary between
    /// calls to [`SliceDecoder::next_event`]).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Number of events decoded so far.
    pub fn events_decoded(&self) -> u64 {
        self.events
    }

    /// Decodes the next record, or `None` at the end of the slice.
    ///
    /// # Errors
    ///
    /// As for [`BlockDecoder::next_event`].
    pub fn next_event(&mut self) -> io::Result<Option<EventRef<'_>>> {
        let Some(&tag) = self.data.get(self.pos) else {
            return Ok(None);
        };
        self.pos += 1;
        self.events += 1;
        match tag {
            TAG_LEARNED => {
                let id = self.read_varint()?;
                let count = self.read_varint()?;
                if count < 2 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "learned clause needs at least two resolve sources",
                    ));
                }
                if count > (1 << 32) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "implausible resolve-source count",
                    ));
                }
                self.scratch.clear();
                // As in BlockDecoder: `count` is attacker-controlled
                // until the sources actually decode.
                self.scratch.reserve(count.min(65_536) as usize);
                for _ in 0..count {
                    let source = self.read_varint()?;
                    self.scratch.push(source);
                }
                Ok(Some(EventRef::Learned {
                    id,
                    sources: &self.scratch,
                }))
            }
            TAG_LEVEL_ZERO => {
                let code = self.read_varint()?;
                if code > u32::MAX as u64 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "literal code out of range",
                    ));
                }
                let antecedent = self.read_varint()?;
                Ok(Some(EventRef::LevelZero {
                    lit: Lit::from_code(code as usize),
                    antecedent,
                }))
            }
            TAG_FINAL => {
                let id = self.read_varint()?;
                Ok(Some(EventRef::FinalConflict { id }))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown binary trace tag 0x{other:02x}"),
            )),
        }
    }

    #[inline]
    fn read_varint(&mut self) -> io::Result<u64> {
        // Same shape as BlockDecoder::read_varint, minus refills: with
        // ten bytes in hand the whole varint decodes from a fixed-size
        // chunk; only the final few records of the slice take the
        // byte-at-a-time tail.
        if self.data.len() - self.pos >= 10 {
            let chunk: &[u8; 10] = self.data[self.pos..self.pos + 10]
                .try_into()
                .expect("slice of length 10");
            let first = chunk[0];
            if first < 0x80 {
                self.pos += 1;
                return Ok(u64::from(first));
            }
            let (value, consumed) = decode_varint_chunk(chunk)?;
            self.pos += consumed;
            return Ok(value);
        }
        let mut value: u64 = 0;
        let mut shift: u32 = 0;
        while let Some(&byte) = self.data.get(self.pos) {
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(varint_overflow());
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(varint_overflow());
            }
        }
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "failed to fill whole buffer",
        ))
    }
}

/// Owned-event iterator over a [`BlockDecoder`].
///
/// Each item clones the decoder's scratch into a fresh [`TraceEvent`];
/// use [`BlockDecoder::next_event`] directly to avoid that.
#[derive(Debug)]
pub struct BlockEvents<R> {
    decoder: BlockDecoder<R>,
}

impl<R: Read> Iterator for BlockEvents<R> {
    type Item = io::Result<TraceEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.decoder.next_event() {
            Ok(Some(event)) => Some(Ok(event.to_owned())),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{varint, BinaryReader, BinaryWriter, TraceSink};
    use rescheck_cnf::SplitMix64;

    /// Deterministic pseudo-random event stream exercising multi-byte
    /// varints and long source lists.
    fn seeded_events(seed: u64, count: usize) -> Vec<TraceEvent> {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            match rng.next_u64() % 4 {
                0 => {
                    let sign: i64 = if rng.next_u64().is_multiple_of(2) {
                        1
                    } else {
                        -1
                    };
                    let var = (rng.next_u64() % 5000 + 1) as i64;
                    events.push(TraceEvent::LevelZero {
                        lit: Lit::from_dimacs(sign * var),
                        antecedent: rng.next_u64() % (1 << 40),
                    });
                }
                1 => events.push(TraceEvent::FinalConflict {
                    id: rng.next_u64() % (1 << 50),
                }),
                _ => {
                    let len = 2 + (rng.next_u64() % 30) as usize;
                    let sources = (0..len).map(|_| rng.next_u64() % (1 << 45)).collect();
                    events.push(TraceEvent::Learned {
                        id: 1_000_000 + i as u64,
                        sources,
                    });
                }
            }
        }
        events
    }

    fn encode(events: &[TraceEvent]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf).unwrap();
        for e in events {
            w.event(e).unwrap();
        }
        buf
    }

    fn decode_all(bytes: &[u8], block_size: usize) -> io::Result<Vec<TraceEvent>> {
        let mut decoder = BlockDecoder::with_block_size(io::Cursor::new(bytes), block_size)?;
        let mut events = Vec::new();
        while let Some(event) = decoder.next_event()? {
            events.push(event.to_owned());
        }
        Ok(events)
    }

    fn decode_all_slice(bytes: &[u8]) -> io::Result<Vec<TraceEvent>> {
        let mut decoder = SliceDecoder::new(bytes)?;
        let mut events = Vec::new();
        while let Some(event) = decoder.next_event()? {
            events.push(event.to_owned());
        }
        Ok(events)
    }

    #[test]
    fn seeded_roundtrip_across_block_boundaries() {
        for seed in [1, 0xdead_beef, 42] {
            let events = seeded_events(seed, 500);
            let bytes = encode(&events);
            // A 16-byte block guarantees most records straddle refills.
            for block_size in [16, 17, 64, 4096] {
                let got = decode_all(&bytes, block_size).unwrap();
                assert_eq!(got, events, "seed {seed}, block size {block_size}");
            }
            let got = decode_all_slice(&bytes).unwrap();
            assert_eq!(got, events, "seed {seed}, slice decoder");
        }
    }

    #[test]
    fn matches_per_record_reader_on_truncated_traces() {
        let events = seeded_events(7, 50);
        let bytes = encode(&events);
        // Chop the stream at every byte boundary: the block decoder must
        // agree with BinaryReader on both the decoded prefix and the
        // error (kind and message) where one occurs.
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            let reference: io::Result<Vec<TraceEvent>> =
                match BinaryReader::new(io::Cursor::new(truncated.to_vec())) {
                    Ok(reader) => reader.collect(),
                    Err(e) => Err(e),
                };
            let block = decode_all(truncated, 16);
            let slice = decode_all_slice(truncated);
            for (label, got) in [("block", block), ("slice", slice)] {
                match (&reference, got) {
                    (Ok(a), Ok(b)) => assert_eq!(*a, b, "cut {cut} ({label})"),
                    (Err(a), Err(b)) => {
                        assert_eq!(a.kind(), b.kind(), "cut {cut} ({label})");
                        assert_eq!(a.to_string(), b.to_string(), "cut {cut} ({label})");
                    }
                    (a, b) => panic!("cut {cut} ({label}): reference {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn garbage_tail_diagnostics_match_per_record_reader() {
        let mut tails: Vec<Vec<u8>> = Vec::new();
        // Unknown tag.
        tails.push(vec![0x7f]);
        // Learned with count < 2.
        let mut t = vec![TAG_LEARNED];
        varint::write_u64(&mut t, 9).unwrap();
        varint::write_u64(&mut t, 1).unwrap();
        tails.push(t);
        // Learned with implausible count.
        let mut t = vec![TAG_LEARNED];
        varint::write_u64(&mut t, 9).unwrap();
        varint::write_u64(&mut t, (1 << 32) + 1).unwrap();
        tails.push(t);
        // Level-zero literal code out of range.
        let mut t = vec![TAG_LEVEL_ZERO];
        varint::write_u64(&mut t, u64::from(u32::MAX) + 1).unwrap();
        varint::write_u64(&mut t, 0).unwrap();
        tails.push(t);
        // Varint that overflows u64 (11 continuation bytes).
        let mut t = vec![TAG_FINAL];
        t.extend_from_slice(&[0xff; 10]);
        t.push(0x01);
        tails.push(t);
        // Varint whose 10th byte has excess high bits.
        let mut t = vec![TAG_FINAL];
        t.extend_from_slice(&[0x80; 9]);
        t.push(0x02);
        tails.push(t);

        for tail in tails {
            let mut bytes = encode(&seeded_events(3, 5));
            bytes.extend_from_slice(&tail);
            let reference: io::Result<Vec<TraceEvent>> =
                BinaryReader::new(io::Cursor::new(bytes.clone()))
                    .unwrap()
                    .collect();
            let block = decode_all(&bytes, 16);
            let slice = decode_all_slice(&bytes);
            let reference_err = reference.unwrap_err();
            for (label, got) in [("block", block), ("slice", slice)] {
                let err = got.unwrap_err();
                assert_eq!(reference_err.kind(), err.kind(), "tail {tail:?} ({label})");
                assert_eq!(
                    reference_err.to_string(),
                    err.to_string(),
                    "tail {tail:?} ({label})"
                );
            }
        }
    }

    #[test]
    fn bad_magic_and_short_magic_are_rejected() {
        let err = BlockDecoder::new(io::Cursor::new(b"NOPE".to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = BlockDecoder::new(io::Cursor::new(b"RT".to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = SliceDecoder::new(b"NOPE").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = SliceDecoder::new(b"RT").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn owned_iterator_matches_lending_api() {
        let events = seeded_events(11, 200);
        let bytes = encode(&events);
        let owned: Vec<TraceEvent> = BlockDecoder::new(io::Cursor::new(bytes.clone()))
            .unwrap()
            .into_events()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(owned, events);
        assert_eq!(owned, decode_all(&bytes, 32).unwrap());
    }

    #[test]
    fn counters_track_progress() {
        let events = seeded_events(5, 100);
        let bytes = encode(&events);
        let mut decoder = BlockDecoder::new(io::Cursor::new(bytes.clone())).unwrap();
        while decoder.next_event().unwrap().is_some() {}
        assert_eq!(decoder.events_decoded(), events.len() as u64);
        assert_eq!(decoder.bytes_read(), bytes.len() as u64);
        assert!(decoder.refills() >= 1);
    }
}
