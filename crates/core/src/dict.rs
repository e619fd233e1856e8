//! Frequency-ranked half-word dictionaries.
//!
//! CodePack fixes its two dictionaries at program load time, adapting them to
//! the specific program (paper §3.1): the most common half-word values get
//! the shortest codewords. Values that do not earn a dictionary slot are left
//! in the instruction stream as raw escapes.

use std::collections::HashMap;

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
    index: HashMap<u16, u16>,
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
        let mut counts: HashMap<u16, u32> = HashMap::new();
        for h in halfwords {
            *counts.entry(h).or_insert(0) += 1;
        }
        if pin_zero {
            counts.remove(&0);
        }
        let mut ranked: Vec<(u16, u32)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_count)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

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
        let index = ranks
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u16))
            .collect();
        Dictionary { ranks, index }
    }

    /// Reconstructs a dictionary from its rank-ordered values (e.g. when
    /// reading a `.cpk` frame header — the hardware receives exactly this table at
    /// program load time).
    ///
    /// ```
    /// use codepack_core::Dictionary;
    /// let d = Dictionary::from_ranked_values(vec![7, 9]);
    /// assert_eq!(d.rank_of(9), Some(1));
    /// ```
    pub fn from_ranked_values(ranks: Vec<u16>) -> Dictionary {
        let index = ranks
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u16))
            .collect();
        Dictionary { ranks, index }
    }

    /// The codeword rank of `value`, if present.
    #[inline]
    pub fn rank_of(&self, value: u16) -> Option<u16> {
        self.index.get(&value).copied()
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
}
