//! Frequency-ranked half-word dictionaries.
//!
//! CodePack fixes its two dictionaries at program load time, adapting them to
//! the specific program (paper §3.1): the most common half-word values get
//! the shortest codewords. Values that do not earn a dictionary slot are left
//! in the instruction stream as raw escapes.

/// A ranked dictionary mapping 16-bit half-word values to codeword ranks.
///
/// Rank order *is* codeword length order: lower ranks land in shorter
/// codeword classes (see [`crate::layout`]).
///
/// ```
/// use codepack_core::Dictionary;
/// // "7" appears three times, "9" twice — "7" gets the lower rank.
/// let d = Dictionary::build([7, 9, 7, 9, 7].into_iter(), 16, 2, false);
/// assert_eq!(d.rank_of(7), Some(0));
/// assert_eq!(d.rank_of(9), Some(1));
/// assert_eq!(d.rank_of(1234), None);
/// assert_eq!(d.value(0), Some(7));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dictionary {
    ranks: Vec<u16>,
    index: RankIndex,
}

impl Dictionary {
    /// Builds a dictionary from a stream of half-word occurrences.
    ///
    /// * `capacity` — maximum number of entries kept (the codeword layout
    ///   caps this below 512),
    /// * `min_count` — values occurring fewer than this many times are left
    ///   out (a dictionary slot costs 16 bits of table space, so singletons
    ///   are cheaper as raw escapes),
    /// * `pin_zero` — reserve rank 0 for the value `0x0000` regardless of
    ///   its frequency. Used for the low dictionary, whose rank 0 is the
    ///   2-bit tag-only codeword.
    ///
    /// Ranking is deterministic: by descending count, then ascending value.
    pub fn build(
        halfwords: impl Iterator<Item = u16>,
        capacity: u16,
        min_count: u32,
        pin_zero: bool,
    ) -> Dictionary {
        // Dense counts: one slot per half-word value, so counting is a
        // single add.
        let mut counts = vec![0u32; 1 << 16];
        for h in halfwords {
            counts[usize::from(h)] += 1;
        }
        if pin_zero {
            counts[0] = 0;
        }
        let min_count = min_count.max(1);
        let mut ranked: Vec<(u16, u32)> = Vec::new();
        // A small program touches few values: skip each all-zero run of
        // 16 counts with one vectorisable test.
        for (run, chunk) in counts.chunks_exact(16).enumerate() {
            if chunk.iter().fold(0, |any, &c| any | c) == 0 {
                continue;
            }
            for (i, &c) in chunk.iter().enumerate() {
                if c >= min_count {
                    ranked.push(((run * 16 + i) as u16, c));
                }
            }
        }
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let mut ranks = Vec::with_capacity(capacity as usize);
        if pin_zero {
            ranks.push(0u16);
        }
        ranks.extend(
            ranked
                .iter()
                .take(capacity as usize - ranks.len())
                .map(|&(v, _)| v),
        );
        Dictionary::from_ranked_values(ranks)
    }

    /// Reconstructs a dictionary from its rank-ordered values (e.g. when
    /// reading a `.cpk` frame header — the hardware receives exactly this table at
    /// program load time). A value listed more than once maps to its last
    /// rank.
    ///
    /// ```
    /// use codepack_core::Dictionary;
    /// let d = Dictionary::from_ranked_values(vec![7, 9]);
    /// assert_eq!(d.rank_of(9), Some(1));
    /// ```
    pub fn from_ranked_values(ranks: Vec<u16>) -> Dictionary {
        let index = RankIndex::new(&ranks);
        Dictionary { ranks, index }
    }

    /// The codeword rank of `value`, if present.
    #[inline]
    pub fn rank_of(&self, value: u16) -> Option<u16> {
        self.index.get(&self.ranks, value)
    }

    /// The value stored at `rank`, if any.
    #[inline]
    pub fn value(&self, rank: u16) -> Option<u16> {
        self.ranks.get(rank as usize).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> u16 {
        self.ranks.len() as u16
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Bytes this dictionary occupies in the compressed image (16 bits per
    /// entry — the paper's Table 4 *Dictionary* column).
    pub fn size_bytes(&self) -> u32 {
        u32::from(self.len()) * 2
    }

    /// Iterates over `(rank, value)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        self.ranks.iter().enumerate().map(|(i, &v)| (i as u16, v))
    }
}

/// The value → rank index: an open-addressed table with linear probing
/// and a fixed multiplicative hash, so its layout is a pure function of the
/// rank list. It holds at least two slots per entry (1024 for a full
/// dictionary), and building it costs O(entries) — no 2¹⁶-entry table to
/// clear for a small request.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RankIndex {
    /// `position + 1` in the rank list; 0 marks an empty slot.
    slots: Vec<u32>,
    /// `32 - log2(slots.len())`: keeps the hash's top bits.
    shift: u32,
}

impl RankIndex {
    fn new(ranks: &[u16]) -> RankIndex {
        let bits = (ranks.len() * 2)
            .max(2)
            .next_power_of_two()
            .trailing_zeros();
        let mut index = RankIndex {
            slots: vec![0; 1 << bits],
            shift: 32 - bits,
        };
        for (i, &v) in ranks.iter().enumerate() {
            let slot = index.probe(ranks, v);
            // A repeated value overwrites its slot: the last rank wins.
            index.slots[slot] = i as u32 + 1;
        }
        index
    }

    /// The slot holding `value`, or the empty slot where it belongs.
    #[inline]
    fn probe(&self, ranks: &[u16], value: u16) -> usize {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the golden-ratio multiplier spreads the top
        // bits of the product evenly over the table.
        let mut slot = (u32::from(value).wrapping_mul(0x9e37_79b9) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                0 => return slot,
                s if ranks[s as usize - 1] == value => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    #[inline]
    fn get(&self, ranks: &[u16], value: u16) -> Option<u16> {
        match self.slots[self.probe(ranks, value)] {
            0 => None,
            s => Some((s - 1) as u16),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_is_by_count_then_value() {
        let stream = [5u16, 5, 5, 3, 3, 9, 9, 1];
        let d = Dictionary::build(stream.into_iter(), 16, 1, false);
        assert_eq!(d.value(0), Some(5));
        // 3 and 9 tie at two occurrences: lower value first.
        assert_eq!(d.value(1), Some(3));
        assert_eq!(d.value(2), Some(9));
        assert_eq!(d.value(3), Some(1));
    }

    #[test]
    fn min_count_excludes_singletons() {
        let stream = [5u16, 5, 7];
        let d = Dictionary::build(stream.into_iter(), 16, 2, false);
        assert_eq!(d.len(), 1);
        assert_eq!(d.rank_of(7), None);
    }

    #[test]
    fn pin_zero_reserves_rank_zero() {
        // Zero appears once; 8 appears many times. Zero still gets rank 0.
        let stream = [8u16, 8, 8, 8, 0];
        let d = Dictionary::build(stream.into_iter(), 16, 2, true);
        assert_eq!(d.rank_of(0), Some(0));
        assert_eq!(d.rank_of(8), Some(1));
    }

    #[test]
    fn pin_zero_even_when_absent_from_stream() {
        let d = Dictionary::build([1u16, 1].into_iter(), 16, 2, true);
        assert_eq!(d.value(0), Some(0));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn capacity_truncates_tail() {
        let stream = (0..100u16).flat_map(|v| [v, v]); // all count 2
        let d = Dictionary::build(stream, 10, 2, false);
        assert_eq!(d.len(), 10);
        assert_eq!(d.rank_of(9), Some(9));
        assert_eq!(d.rank_of(10), None);
    }

    #[test]
    fn size_counts_two_bytes_per_entry() {
        let d = Dictionary::build([1u16, 1, 2, 2].into_iter(), 16, 2, false);
        assert_eq!(d.size_bytes(), 4);
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let stream: Vec<u16> = (0..1000).map(|i| (i * 37 % 256) as u16).collect();
        let a = Dictionary::build(stream.iter().copied(), 457, 2, true);
        let b = Dictionary::build(stream.iter().copied(), 457, 2, true);
        assert_eq!(a, b);
    }

    /// Last-wins linear scan: a later duplicate overrides an earlier one,
    /// as collecting `(value, rank)` pairs into a map does.
    fn last_rank(ranks: &[u16], value: u16) -> Option<u16> {
        ranks.iter().rposition(|&v| v == value).map(|i| i as u16)
    }

    /// Arbitrary rank lists — dense duplicates, arbitrary values, up to
    /// 65535 entries — never panic, and `rank_of` agrees with the
    /// last-wins scan on every listed value and on random probes.
    #[test]
    fn rank_index_matches_a_last_wins_scan() {
        use codepack_testkit::forall;
        use codepack_testkit::prop::gen;
        let value = gen::one_of(vec![gen::ints(0u16..16), gen::any_int::<u16>()]);
        let ranks = gen::weighted(vec![
            (6, gen::vec_of(value.clone(), 0..600)),
            (1, gen::vec_of(value, 60_000..65_536)),
        ]);
        let probes = gen::vec_of(gen::any_int::<u16>(), 0..64);
        forall!(cases = 48, (ranks, probes), |ranks, probes| {
            let d = Dictionary::from_ranked_values(ranks.clone());
            let listed = ranks.iter().step_by(ranks.len() / 128 + 1);
            for &v in listed.chain(&probes) {
                assert_eq!(d.rank_of(v), last_rank(&ranks, v), "value {v:#x}");
            }
        });
    }

    #[test]
    fn rank_index_at_the_u16_limit() {
        // Every value once, in reverse: a full 65535-entry table.
        let ranks: Vec<u16> = (1..=u16::MAX).rev().collect();
        let d = Dictionary::from_ranked_values(ranks.clone());
        assert_eq!(d.len(), u16::MAX);
        for (i, &v) in ranks.iter().enumerate() {
            assert_eq!(d.rank_of(v), Some(i as u16));
        }
        assert_eq!(d.rank_of(0), None);
        // One value 65535 times: the last rank wins.
        let d = Dictionary::from_ranked_values(vec![7; usize::from(u16::MAX)]);
        assert_eq!(d.rank_of(7), Some(u16::MAX - 1));
        assert_eq!(d.rank_of(8), None);
        assert_eq!(Dictionary::from_ranked_values(Vec::new()).rank_of(0), None);
    }
}
