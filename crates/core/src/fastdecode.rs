//! Table-driven batch decoding: the codec hot path.
//!
//! The scalar decoder in [`crate::image`] walks the bit stream one bit at a
//! time — faithful to the paper's hardware description, but far too slow to
//! serve as a software decompressor. This module implements the standard
//! software counterpart (see *Decoding billions of integers per second
//! through vectorization*): a 64-bit refillable bit buffer ([`Cursor`]) plus
//! a precomputed decode table ([`DecodeTable`]) that resolves tag, codeword
//! length, and dictionary rank (or the raw-literal escape) with a single
//! lookup on a fixed bit window.
//!
//! ## Decode-table format
//!
//! For each dictionary a table of `1 << window_bits` packed `u32` entries is
//! built from the codeword classes in [`crate::layout`]. Entry `i` describes
//! what happens when the next `window_bits` bits of the stream equal `i`:
//!
//! | bits    | field     | meaning                                          |
//! |---------|-----------|--------------------------------------------------|
//! | `31..24`| kind      | `HIT`, `RAW`, `BAD_RANK`, or `TOO_LONG`          |
//! | `21..16`| consumed  | codeword bits to consume (tag + index)           |
//! | `15..0` | payload   | decoded half-word (`HIT`) or offending rank (`BAD_RANK`) |
//!
//! A codeword of length `L ≤ window_bits` owns the `2^(window_bits - L)`
//! consecutive entries whose top `L` bits spell it (tags form a prefix code,
//! so the ranges never overlap). `RAW` entries consume only the 3-bit tag;
//! the 16 literal bits are pulled from the buffer afterwards. `BAD_RANK`
//! entries pre-compute the exact [`DecompressError::BadDictIndex`] the
//! scalar decoder would raise. `TOO_LONG` marks windows shorter than the
//! codeword they start; the decoder falls back to a scalar-equivalent path
//! (with the default [`LOOKUP_BITS`] window of 11 bits — the longest
//! dictionary codeword — no `TOO_LONG` entry is ever reachable, but narrower
//! windows are supported and exercised by tests).
//!
//! ## Bit-buffer invariants
//!
//! [`Cursor`] keeps up to 64 left-aligned bits in an accumulator:
//!
//! * after [`Cursor::refill`], at least `min(57, remaining)` bits are valid;
//! * bits below the valid count are zero **or** mirror upcoming stream
//!   bytes (the branch-light 8-byte refill may stage bits it has not
//!   advanced past; re-reading them is idempotent) — at true end-of-stream
//!   they are always zero;
//! * `consumed() = 8 * bytes_loaded - valid_bits` never decreases, and a
//!   failed [`Cursor::read`] reports `Truncated { at_bit: consumed() }`
//!   without consuming — bit-for-bit the contract of [`crate::BitReader`].
//!
//! The fast path runs a table step only while at least [`RAW_LEN_BITS`]
//! (19) bits remain, which bounds every in-window access; the tail of the
//! stream is decoded by the scalar-equivalent path so that success values
//! *and* error values are byte-identical to the reference decoder on every
//! input, valid or corrupt.

use crate::dict::Dictionary;
use crate::layout::{
    CodewordClass, BLOCK_INSNS, HIGH_CLASSES, LOW_CLASSES, RAW_LEN_BITS, RAW_TAG, RAW_TAG_BITS,
};
use crate::DecompressError;

/// Which decoder implementation services decompression requests.
///
/// `Scalar` is the bit-at-a-time reference ([`crate::decode_block_bytes`]);
/// `Fast` is the table-driven hot path of this module. The two are
/// byte-identical on every input — including corrupt ones, where they return
/// equal [`DecompressError`] values — so `Fast` is the default everywhere
/// and `Scalar` remains available as the differential-testing reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DecodeBackend {
    /// Bit-at-a-time reference decoder.
    Scalar,
    /// Table-driven batch decoder (this module).
    #[default]
    Fast,
}

impl DecodeBackend {
    /// Parses a backend name as used by `cpack run --backend`.
    pub fn parse(s: &str) -> Option<DecodeBackend> {
        match s {
            "scalar" => Some(DecodeBackend::Scalar),
            "fast" => Some(DecodeBackend::Fast),
            _ => None,
        }
    }

    /// The canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            DecodeBackend::Scalar => "scalar",
            DecodeBackend::Fast => "fast",
        }
    }
}

impl std::fmt::Display for DecodeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Default lookup-window width: the longest dictionary codeword (3-bit tag +
/// 8-bit index). At this width every dictionary codeword resolves in one
/// lookup and the scalar fallback is unreachable.
pub const LOOKUP_BITS: u32 = 11;

/// Decode-path counters for one [`FastDecoder::decode_block_counted`] call.
///
/// The profiling observatory (`cpack profile`) needs to see inside the
/// fast path — how many table lookups a block costs, how often it takes
/// the raw escape, how many bit-buffer refills it pays — to judge future
/// SIMD work against. The hot [`FastDecoder::decode_block`] stays
/// completely uninstrumented (its throughput is scorecard-gated); the
/// counted instantiation of the same loop collects these per block:
///
/// * `table_lookups` — decode-table steps, one per halfword resolved in
///   a window (raw escapes included: the escape is a table entry).
/// * `raw_escapes` — halfwords that took the 3-bit raw tag + 16 literal
///   bits path.
/// * `refills` — bit-buffer refill points in the decode loop (one per
///   instruction on the compressed path, one per accumulator drain on
///   the raw-block path; refills inside scalar-mirror reads not counted).
/// * `scalar_fallbacks` — halfwords decoded by the scalar mirror
///   (stream tail or a codeword longer than the window).
///
/// For a clean compressed block at the default window,
/// `table_lookups + scalar_fallbacks == 2 * BLOCK_INSNS` and
/// `refills == BLOCK_INSNS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeCounters {
    /// Decode-table lookups performed.
    pub table_lookups: u64,
    /// Raw-escape entries taken.
    pub raw_escapes: u64,
    /// Bit-buffer refill points in the decode loop.
    pub refills: u64,
    /// Halfwords decoded by the scalar-mirror fallback.
    pub scalar_fallbacks: u64,
}

/// Receives the decode loop's path events. One generic loop serves both
/// the hot path ([`Uncounted`]) and the profiler ([`DecodeCounters`]);
/// monomorphization over the zero-sized no-op sink leaves
/// [`FastDecoder::decode_block`] free of counter stores.
trait CounterSink {
    fn table_lookup(&mut self) {}
    fn raw_escape(&mut self) {}
    fn refill(&mut self) {}
    fn scalar_fallback(&mut self) {}
}

/// The hot path's sink: every event is a no-op.
struct Uncounted;

impl CounterSink for Uncounted {}

impl CounterSink for DecodeCounters {
    fn table_lookup(&mut self) {
        self.table_lookups += 1;
    }
    fn raw_escape(&mut self) {
        self.raw_escapes += 1;
    }
    fn refill(&mut self) {
        self.refills += 1;
    }
    fn scalar_fallback(&mut self) {
        self.scalar_fallbacks += 1;
    }
}

const KIND_SHIFT: u32 = 24;
const LEN_SHIFT: u32 = 16;
const LEN_MASK: u32 = 0x3F;
const KIND_HIT: u32 = 0;
const KIND_RAW: u32 = 1;
const KIND_BAD_RANK: u32 = 2;
const KIND_TOO_LONG: u32 = 3;

const fn pack(kind: u32, len: u32, payload: u16) -> u32 {
    (kind << KIND_SHIFT) | (len << LEN_SHIFT) | payload as u32
}

/// A 64-bit refillable MSB-first bit buffer over a byte slice.
///
/// Semantically equivalent to [`crate::BitReader`] (same values, same
/// `Truncated { at_bit }` positions) but amortises memory traffic to one
/// 8-byte load per ~56 bits instead of one byte load per bit.
#[derive(Clone, Debug)]
struct Cursor<'a> {
    bytes: &'a [u8],
    /// Next byte index to load into the accumulator.
    next: usize,
    /// Left-aligned accumulator: the top `acc_bits` bits are valid.
    acc: u64,
    acc_bits: u32,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor {
            bytes,
            next: 0,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Bits consumed so far (the scalar reader's `bit_pos`).
    #[inline]
    fn consumed(&self) -> u64 {
        self.next as u64 * 8 - u64::from(self.acc_bits)
    }

    /// Bits left between the read position and the end of the slice.
    #[inline]
    fn remaining(&self) -> u64 {
        self.bytes.len() as u64 * 8 - self.consumed()
    }

    /// Tops the accumulator up to at least `min(57, remaining)` valid bits.
    #[inline]
    fn refill(&mut self) {
        if self.acc_bits > 56 {
            return;
        }
        if let Some(chunk) = self.bytes.get(self.next..self.next + 8) {
            // Branch-light refill: stage a whole 8-byte word, then advance
            // past only the bytes that fit. Staged-but-unadvanced bits are
            // re-ORed identically on the next refill.
            let word = u64::from_be_bytes(chunk.try_into().expect("slice of 8"));
            self.acc |= word >> self.acc_bits;
            self.next += ((63 - self.acc_bits) >> 3) as usize;
            self.acc_bits |= 56;
        } else {
            while self.acc_bits <= 56 && self.next < self.bytes.len() {
                self.acc |= u64::from(self.bytes[self.next]) << (56 - self.acc_bits);
                self.next += 1;
                self.acc_bits += 8;
            }
        }
    }

    /// The next `n` (1–57) bits without consuming. Caller must ensure
    /// `n <= acc_bits` (guaranteed after `refill` when `remaining() >= n`).
    #[inline]
    fn peek(&self, n: u32) -> u32 {
        debug_assert!((1..=57).contains(&n) && n <= self.acc_bits);
        (self.acc >> (64 - n)) as u32
    }

    /// Consumes `n <= acc_bits` bits.
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.acc_bits);
        self.acc <<= n;
        self.acc_bits -= n;
    }

    /// Reads `n` (0–32) bits MSB-first with [`crate::BitReader`] semantics:
    /// a short stream yields `Truncated { at_bit }` at the current position
    /// without consuming anything.
    #[inline]
    fn read(&mut self, n: u32) -> Result<u32, DecompressError> {
        debug_assert!(n <= 32);
        if n == 0 {
            return Ok(0);
        }
        self.refill();
        if self.remaining() < u64::from(n) {
            return Err(DecompressError::Truncated {
                at_bit: self.consumed(),
            });
        }
        let value = self.peek(n);
        self.consume(n);
        Ok(value)
    }
}

/// Precomputed single-lookup decode table for one dictionary.
#[derive(Clone, Debug)]
struct DecodeTable {
    window_bits: u32,
    entries: Vec<u32>,
    /// Rank-ordered dictionary values, for the scalar fallback path.
    values: Vec<u16>,
    dict_len: u16,
    high: bool,
    classes: &'static [CodewordClass; 5],
}

impl DecodeTable {
    fn build(
        dict: &Dictionary,
        classes: &'static [CodewordClass; 5],
        high: bool,
        window_bits: u32,
    ) -> DecodeTable {
        assert!(
            (u32::from(RAW_TAG_BITS)..=16).contains(&window_bits),
            "window must cover at least the raw tag and at most 16 bits"
        );
        let mut entries = vec![pack(KIND_TOO_LONG, 0, 0); 1 << window_bits];
        let fill = |entries: &mut [u32], code: u32, len: u32, entry: u32| {
            let span = 1usize << (window_bits - len);
            let start = (code as usize) << (window_bits - len);
            for e in &mut entries[start..start + span] {
                *e = entry;
            }
        };
        fill(
            &mut entries,
            u32::from(RAW_TAG),
            u32::from(RAW_TAG_BITS),
            pack(KIND_RAW, u32::from(RAW_TAG_BITS), 0),
        );
        for class in classes {
            let len = u32::from(class.len_bits());
            if len > window_bits {
                continue;
            }
            for idx in 0..class.capacity() {
                let rank = class.base + idx;
                let code = (u32::from(class.tag) << class.index_bits) | u32::from(idx);
                let entry = match dict.value(rank) {
                    Some(v) => pack(KIND_HIT, len, v),
                    None => pack(KIND_BAD_RANK, len, rank),
                };
                fill(&mut entries, code, len, entry);
            }
        }
        DecodeTable {
            window_bits,
            entries,
            values: dict.iter().map(|(_, v)| v).collect(),
            dict_len: dict.len(),
            high,
            classes,
        }
    }

    /// Decodes one half-word codeword at the cursor.
    #[inline]
    fn decode<S: CounterSink>(
        &self,
        cur: &mut Cursor<'_>,
        sink: &mut S,
    ) -> Result<u16, DecompressError> {
        cur.refill();
        if cur.remaining() < u64::from(RAW_LEN_BITS) {
            // Near the end of the stream a window peek could run past the
            // slice; mirror the scalar decoder read-for-read instead so
            // truncation positions stay identical.
            sink.scalar_fallback();
            return self.decode_scalar(cur);
        }
        self.decode_prefetched(cur, sink)
    }

    /// The table step, assuming the caller already refilled and checked that
    /// at least [`RAW_LEN_BITS`] bits remain (the longest codeword).
    #[inline]
    fn decode_prefetched<S: CounterSink>(
        &self,
        cur: &mut Cursor<'_>,
        sink: &mut S,
    ) -> Result<u16, DecompressError> {
        sink.table_lookup();
        let entry = self.entries[cur.peek(self.window_bits) as usize];
        match entry >> KIND_SHIFT {
            KIND_HIT => {
                cur.consume((entry >> LEN_SHIFT) & LEN_MASK);
                Ok(entry as u16)
            }
            KIND_RAW => {
                sink.raw_escape();
                cur.consume(u32::from(RAW_TAG_BITS));
                let literal = cur.peek(16) as u16;
                cur.consume(16);
                Ok(literal)
            }
            KIND_BAD_RANK => Err(DecompressError::BadDictIndex {
                high: self.high,
                rank: entry as u16,
                dict_len: self.dict_len,
            }),
            _ => {
                sink.scalar_fallback();
                self.decode_scalar(cur)
            }
        }
    }

    /// Read-for-read mirror of the scalar `decode_halfword`, over the
    /// cursor. Used for stream tails and window-overflowing codewords.
    fn decode_scalar(&self, cur: &mut Cursor<'_>) -> Result<u16, DecompressError> {
        let first_two = cur.read(2)? as u8;
        let (tag, tag_bits) = if first_two <= 0b01 {
            (first_two, 2u8)
        } else {
            ((first_two << 1) | cur.read(1)? as u8, 3u8)
        };
        if tag == RAW_TAG {
            return Ok(cur.read(16)? as u16);
        }
        let class = self
            .classes
            .iter()
            .find(|c| c.tag == tag && c.tag_bits == tag_bits)
            .expect("every non-raw tag pattern maps to a class");
        let rank = class.base + cur.read(u32::from(class.index_bits))? as u16;
        self.values
            .get(rank as usize)
            .copied()
            .ok_or(DecompressError::BadDictIndex {
                high: self.high,
                rank,
                dict_len: self.dict_len,
            })
    }
}

/// What a decode-table entry resolves a bit window to.
///
/// Part of the hidden inspection surface consumed by the `sr32lint`
/// decode-table soundness prover (`codepack-analyze`), which re-derives the
/// expected entry for every window from the scalar tag semantics and
/// compares. Not a stable public API.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableEntryKind {
    /// A complete dictionary codeword: payload is the decoded half-word.
    Hit,
    /// The 3-bit raw-literal escape; only the tag is consumed by the table.
    Raw,
    /// A well-formed codeword whose rank lies past the dictionary: payload
    /// is the offending rank.
    BadRank,
    /// The window is shorter than the codeword it starts.
    TooLong,
}

/// One unpacked decode-table entry, as seen through [`FastDecoder::inspect`].
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableEntry {
    /// What the window resolves to.
    pub kind: TableEntryKind,
    /// Codeword bits the table step consumes.
    pub consumed: u32,
    /// Decoded half-word (`Hit`) or offending rank (`BadRank`); zero
    /// otherwise.
    pub payload: u16,
}

/// Read-only view of one decode table, for the static prover.
#[doc(hidden)]
pub struct TableView<'a> {
    table: &'a DecodeTable,
}

impl TableView<'_> {
    /// The window width the table was built for.
    pub fn window_bits(&self) -> u32 {
        self.table.window_bits
    }

    /// Number of entries (`1 << window_bits` for a well-formed table).
    pub fn len(&self) -> usize {
        self.table.entries.len()
    }

    /// `true` when the table has no entries (never, for a built table).
    pub fn is_empty(&self) -> bool {
        self.table.entries.is_empty()
    }

    /// The dictionary length the table encodes rank bounds against.
    pub fn dict_len(&self) -> u16 {
        self.table.dict_len
    }

    /// Unpacks entry `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window >= self.len()`.
    pub fn entry(&self, window: usize) -> TableEntry {
        let e = self.table.entries[window];
        let kind = match e >> KIND_SHIFT {
            KIND_HIT => TableEntryKind::Hit,
            KIND_RAW => TableEntryKind::Raw,
            KIND_BAD_RANK => TableEntryKind::BadRank,
            _ => TableEntryKind::TooLong,
        };
        TableEntry {
            kind,
            consumed: (e >> LEN_SHIFT) & LEN_MASK,
            payload: e as u16,
        }
    }
}

/// The table-driven batch decoder for one pair of dictionaries.
///
/// Construction walks both dictionaries once to build the decode tables
/// (a few thousand entries); [`FastDecoder::decode_block`] then decodes any
/// number of blocks with one table lookup per codeword. [`CodePackImage`]
/// caches one of these per image.
///
/// [`CodePackImage`]: crate::CodePackImage
///
/// ```
/// use codepack_core::{CodePackImage, CompressionConfig, FastDecoder};
/// let text = vec![0x2402_0001u32; 16];
/// let image = CodePackImage::compress(&text, &CompressionConfig::default());
/// let fast = FastDecoder::new(image.high_dict(), image.low_dict());
/// let words = fast.decode_block(image.compressed_bytes()).unwrap();
/// assert_eq!(&words[..], &text[..]);
/// ```
#[derive(Clone, Debug)]
pub struct FastDecoder {
    high: DecodeTable,
    low: DecodeTable,
}

impl FastDecoder {
    /// Builds decode tables with the default [`LOOKUP_BITS`] window.
    pub fn new(high_dict: &Dictionary, low_dict: &Dictionary) -> FastDecoder {
        FastDecoder::with_window(high_dict, low_dict, LOOKUP_BITS)
    }

    /// Builds decode tables with a custom window width (3–16 bits). Windows
    /// narrower than the longest codeword exercise the scalar fallback;
    /// useful for testing, and for trading table size against hit rate.
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` is outside `3..=16`.
    pub fn with_window(
        high_dict: &Dictionary,
        low_dict: &Dictionary,
        window_bits: u32,
    ) -> FastDecoder {
        FastDecoder {
            high: DecodeTable::build(high_dict, &HIGH_CLASSES, true, window_bits),
            low: DecodeTable::build(low_dict, &LOW_CLASSES, false, window_bits),
        }
    }

    /// Inspection view of one decode table (`true` = high dictionary).
    ///
    /// Hidden surface for the `sr32lint` table prover; not a stable API.
    #[doc(hidden)]
    pub fn inspect(&self, high: bool) -> TableView<'_> {
        TableView {
            table: if high { &self.high } else { &self.low },
        }
    }

    /// XORs `xor` into the packed entry at `window` of one decode table —
    /// the deliberate-corruption hook for the prover's negative tests. The
    /// decoder itself remains memory-safe on any poisoned table (entries
    /// only select match arms and consume counts masked to 6 bits).
    ///
    /// # Panics
    ///
    /// Panics if `window` is outside the table.
    #[doc(hidden)]
    pub fn poison_entry(&mut self, high: bool, window: usize, xor: u32) {
        let table = if high { &mut self.high } else { &mut self.low };
        table.entries[window] ^= xor;
    }

    /// Decodes one 16-instruction block starting at `bytes[0]`.
    ///
    /// Byte-identical to [`crate::decode_block_bytes`] on every input:
    /// equal output words on success and equal [`DecompressError`] values on
    /// corrupt or truncated streams. Trailing bits after the block (byte-
    /// alignment padding, subsequent blocks) are ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] if the stream is truncated or a
    /// codeword indexes past a dictionary. Never panics, whatever the input.
    pub fn decode_block(
        &self,
        bytes: &[u8],
    ) -> Result<[u32; BLOCK_INSNS as usize], DecompressError> {
        self.decode_block_impl(bytes, &mut Uncounted)
    }

    /// [`FastDecoder::decode_block`] plus [`DecodeCounters`]: identical
    /// results (success values and error values alike), with decode-path
    /// bookkeeping the profiler folds into block profiles. Both run the
    /// same generic loop; the `counted_decode_matches_uncounted` test pins
    /// the results together.
    pub fn decode_block_counted(
        &self,
        bytes: &[u8],
    ) -> (
        Result<[u32; BLOCK_INSNS as usize], DecompressError>,
        DecodeCounters,
    ) {
        let mut c = DecodeCounters::default();
        let result = self.decode_block_impl(bytes, &mut c);
        (result, c)
    }

    #[inline]
    fn decode_block_impl<S: CounterSink>(
        &self,
        bytes: &[u8],
        sink: &mut S,
    ) -> Result<[u32; BLOCK_INSNS as usize], DecompressError> {
        let mut cur = Cursor::new(bytes);
        let mut out = [0u32; BLOCK_INSNS as usize];
        if cur.read(1)? == 1 {
            // Non-compressed block: 16 raw 32-bit words. One refill covers
            // at least one word, so drain the accumulator between refills.
            let mut i = 0;
            while i < out.len() {
                sink.refill();
                cur.refill();
                if cur.remaining() < 32 {
                    return Err(DecompressError::Truncated {
                        at_bit: cur.consumed(),
                    });
                }
                while cur.acc_bits >= 32 && i < out.len() {
                    out[i] = cur.peek(32);
                    cur.consume(32);
                    i += 1;
                }
            }
            return Ok(out);
        }
        // One refill covers a whole instruction: both halfwords together are
        // at most 2 * RAW_LEN_BITS = 38 bits, and a refill stages >= 56 when
        // that much stream remains — so the common path pays one refill and
        // one bounds check per instruction instead of per halfword.
        for slot in &mut out {
            sink.refill();
            cur.refill();
            let (high, low) = if cur.remaining() >= 2 * u64::from(RAW_LEN_BITS) {
                (
                    self.high.decode_prefetched(&mut cur, sink)?,
                    self.low.decode_prefetched(&mut cur, sink)?,
                )
            } else {
                (
                    self.high.decode(&mut cur, sink)?,
                    self.low.decode(&mut cur, sink)?,
                )
            };
            *slot = (u32::from(high) << 16) | u32::from(low);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitReader;
    use crate::image::{decode_block_bytes, CodePackImage, CompressionConfig};

    fn sample_image() -> CodePackImage {
        // Frequent immediates plus per-block unique constants: exercises
        // every codeword class and the raw escape.
        let text: Vec<u32> = (0..256)
            .map(|i| match i % 16 {
                15 => 0x3c01_0000 | ((i as u32).wrapping_mul(2654435761) >> 16),
                k => 0x2402_0000 | (k as u32),
            })
            .collect();
        CodePackImage::compress(&text, &CompressionConfig::default())
    }

    /// Deterministic xorshift — no external entropy in unit tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn cursor_matches_bitreader_values_and_errors() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        for round in 0..200 {
            let len = (xorshift(&mut seed) % 40) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| xorshift(&mut seed) as u8).collect();
            let mut reader = BitReader::new(&bytes);
            let mut cursor = Cursor::new(&bytes);
            loop {
                let n = (xorshift(&mut seed) % 33) as u32;
                let want = reader.read(n);
                let got = cursor.read(n);
                assert_eq!(want, got, "round {round} read({n})");
                assert_eq!(reader.bit_pos(), cursor.consumed(), "round {round}");
                assert_eq!(reader.remaining(), cursor.remaining(), "round {round}");
                if want.is_err() && n > 0 {
                    break;
                }
            }
        }
    }

    #[test]
    fn cursor_zero_bit_read_always_succeeds() {
        let mut cur = Cursor::new(&[]);
        assert_eq!(cur.read(0), Ok(0));
        assert_eq!(cur.read(1), Err(DecompressError::Truncated { at_bit: 0 }));
    }

    #[test]
    fn default_window_resolves_every_codeword_pattern() {
        let img = sample_image();
        let fast = FastDecoder::new(img.high_dict(), img.low_dict());
        for table in [&fast.high, &fast.low] {
            assert_eq!(table.entries.len(), 1 << LOOKUP_BITS);
            for (i, &e) in table.entries.iter().enumerate() {
                assert_ne!(
                    e >> KIND_SHIFT,
                    KIND_TOO_LONG,
                    "window pattern {i:#x} unresolved at the full 11-bit window"
                );
            }
        }
    }

    #[test]
    fn fast_equals_scalar_on_clean_blocks() {
        let img = sample_image();
        let fast = FastDecoder::new(img.high_dict(), img.low_dict());
        for b in 0..img.num_blocks() {
            let offset = img.block_offset_via_index(b).unwrap() as usize;
            let bytes = &img.compressed_bytes()[offset..];
            assert_eq!(
                fast.decode_block(bytes),
                decode_block_bytes(bytes, img.high_dict(), img.low_dict()),
                "block {b}"
            );
        }
    }

    #[test]
    fn narrow_window_falls_back_and_still_matches() {
        let img = sample_image();
        for window in [3, 4, 6, 8] {
            let fast = FastDecoder::with_window(img.high_dict(), img.low_dict(), window);
            let has_too_long = fast
                .high
                .entries
                .iter()
                .any(|&e| e >> KIND_SHIFT == KIND_TOO_LONG);
            assert!(
                has_too_long,
                "a {window}-bit window must leave some codewords to the fallback"
            );
            for b in 0..img.num_blocks() {
                let offset = img.block_offset_via_index(b).unwrap() as usize;
                let bytes = &img.compressed_bytes()[offset..];
                assert_eq!(
                    fast.decode_block(bytes),
                    decode_block_bytes(bytes, img.high_dict(), img.low_dict()),
                    "window {window} block {b}"
                );
            }
        }
    }

    #[test]
    fn truncated_streams_report_identical_positions() {
        let img = sample_image();
        let fast = FastDecoder::new(img.high_dict(), img.low_dict());
        let offset = img.block_offset_via_index(0).unwrap() as usize;
        let block_len = img.block_info(0).byte_len as usize;
        let block = &img.compressed_bytes()[offset..offset + block_len];
        for cut in 0..block.len() {
            let short = &block[..cut];
            assert_eq!(
                fast.decode_block(short),
                decode_block_bytes(short, img.high_dict(), img.low_dict()),
                "truncated to {cut} bytes"
            );
        }
    }

    #[test]
    fn bad_rank_entries_match_scalar_errors() {
        // A tiny dictionary leaves most ranks unmapped: craft a codeword
        // that indexes past it and check both paths agree on the error.
        let high = Dictionary::from_ranked_values(vec![0x2402]);
        let low = Dictionary::from_ranked_values(vec![0x0000, 0x0001]);
        let fast = FastDecoder::new(&high, &low);
        // Block flag 0, then high tag 01 (class base 4) + index 0 -> rank 4.
        let mut w = crate::bits::BitWriter::new();
        w.write(0, 1);
        w.write(0b01, 2);
        w.write(0, 3);
        let bytes = w.into_bytes();
        let want = decode_block_bytes(&bytes, &high, &low);
        assert_eq!(fast.decode_block(&bytes), want);
        assert_eq!(
            want,
            Err(DecompressError::BadDictIndex {
                high: true,
                rank: 4,
                dict_len: 1,
            })
        );
    }

    #[test]
    fn counted_decode_matches_uncounted() {
        let img = sample_image();
        for window in [LOOKUP_BITS, 4] {
            let fast = FastDecoder::with_window(img.high_dict(), img.low_dict(), window);
            for b in 0..img.num_blocks() {
                let offset = img.block_offset_via_index(b).unwrap() as usize;
                let block_len = img.block_info(b).byte_len as usize;
                let whole = &img.compressed_bytes()[offset..offset + block_len];
                // Equal on clean blocks and on every truncation of them.
                for cut in (0..=whole.len()).rev() {
                    let bytes = &whole[..cut];
                    let (counted, c) = fast.decode_block_counted(bytes);
                    assert_eq!(
                        counted,
                        fast.decode_block(bytes),
                        "window {window} block {b}"
                    );
                    if cut == whole.len() {
                        assert_eq!(c.refills, u64::from(BLOCK_INSNS));
                        if window == LOOKUP_BITS {
                            assert_eq!(c.scalar_fallbacks, 0, "full window never falls back");
                            assert_eq!(
                                c.table_lookups,
                                2 * u64::from(BLOCK_INSNS),
                                "every halfword is one table lookup"
                            );
                        } else {
                            // A window-overflowing halfword counts both the
                            // lookup that found the long entry and the scalar
                            // fallback that resolved it, so the sum exceeds
                            // the halfword count.
                            assert!(c.scalar_fallbacks > 0, "narrow window must fall back");
                            assert!(
                                c.table_lookups + c.scalar_fallbacks >= 2 * u64::from(BLOCK_INSNS),
                                "every halfword does at least one of the two"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn counted_decode_counts_raw_blocks() {
        let text: Vec<u32> = (0..16u32)
            .map(|i| i.wrapping_mul(2654435761).rotate_left(7))
            .collect();
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        assert!(img.stats().raw_blocks > 0, "need a raw block to test");
        let fast = FastDecoder::new(img.high_dict(), img.low_dict());
        let offset = img.block_offset_via_index(0).unwrap() as usize;
        let (got, c) = fast.decode_block_counted(&img.compressed_bytes()[offset..]);
        assert_eq!(got.unwrap()[..], text[..]);
        assert_eq!(c.table_lookups, 0, "raw blocks never touch the tables");
        assert!(c.refills > 0);
    }

    #[test]
    fn backend_names_round_trip() {
        assert_eq!(DecodeBackend::parse("fast"), Some(DecodeBackend::Fast));
        assert_eq!(DecodeBackend::parse("scalar"), Some(DecodeBackend::Scalar));
        assert_eq!(DecodeBackend::parse("simd"), None);
        assert_eq!(DecodeBackend::default(), DecodeBackend::Fast);
        for b in [DecodeBackend::Scalar, DecodeBackend::Fast] {
            assert_eq!(DecodeBackend::parse(b.as_str()), Some(b));
            assert_eq!(b.to_string(), b.as_str());
        }
    }

    #[test]
    fn raw_blocks_decode_identically() {
        let text: Vec<u32> = (0..64u32)
            .map(|i| i.wrapping_mul(2654435761).rotate_left(7))
            .collect();
        let img = CodePackImage::compress(&text, &CompressionConfig::default());
        assert!(img.stats().raw_blocks > 0, "need a raw block to test");
        let fast = FastDecoder::new(img.high_dict(), img.low_dict());
        for b in 0..img.num_blocks() {
            let offset = img.block_offset_via_index(b).unwrap() as usize;
            let bytes = &img.compressed_bytes()[offset..];
            assert_eq!(
                fast.decode_block(bytes),
                decode_block_bytes(bytes, img.high_dict(), img.low_dict())
            );
        }
    }
}
