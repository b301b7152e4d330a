//! Packed bit vectors.
//!
//! GraphMat stores both the active-vertex set and the index part of its sparse
//! vectors as bit vectors (paper §4.4.2): a bit per vertex plus a dense value
//! array beats sorted `(index, value)` tuples because membership tests are O(1),
//! the bit array is small enough to stay cache resident, and it can be shared
//! read-only between all threads during the SpMV.
//!
//! [`BitVec`] is the one representation. Parallel phases never set bits one
//! at a time through a shared handle: they own word-aligned chunks of
//! [`BitVec::words_mut`] and store whole words (SEND into the message
//! vector's validity bits, APPLY into the next active set).

/// Bits per storage word: word `w` holds bits `64·w .. 64·w + 64`.
pub const WORD_BITS: usize = 64;

#[inline(always)]
fn word_index(bit: usize) -> (usize, u64) {
    (bit / WORD_BITS, 1u64 << (bit % WORD_BITS))
}

/// A fixed-length packed bit vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Create a bit vector of `len` bits, all cleared.
    pub fn new(len: usize) -> Self {
        BitVec {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Test bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, mask) = word_index(i);
        self.words[w] & mask != 0
    }

    /// Set bit `i` to 1. Returns the previous value.
    #[inline(always)]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, mask) = word_index(i);
        let prev = self.words[w] & mask != 0;
        self.words[w] |= mask;
        prev
    }

    /// Clear bit `i`.
    #[inline(always)]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, mask) = word_index(i);
        self.words[w] &= !mask;
    }

    /// Clear every bit without reallocating.
    pub fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Set every bit.
    pub fn set_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = !0u64);
        self.mask_tail();
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: &self.words,
            base: 0,
            len: self.len,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterate over the set bits whose word index lies in
    /// `word_start..word_end` — the unit the SEND phase chunks the active set
    /// by, so that concurrent chunks never share a 64-bit word.
    pub fn iter_ones_in_words(&self, word_start: usize, word_end: usize) -> OnesIter<'_> {
        let end = word_end.min(self.words.len());
        let start = word_start.min(end);
        let words = &self.words[start..end];
        OnesIter {
            words,
            base: start * WORD_BITS,
            len: self.len,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Iterate over the set bits in `lo..hi`, ascending — the unit the push
    /// kernel's frontier walk scans a partition's column span by. Whole
    /// words in between, the first word masked below `lo`, and the scan
    /// stops at the first bit at or past `hi`. Bounds past `len()` are
    /// clamped.
    pub fn iter_ones_in_range(&self, lo: usize, hi: usize) -> OnesIter<'_> {
        let hi = hi.min(self.len);
        let lo = lo.min(hi);
        let words = &self.words[lo / WORD_BITS..hi.div_ceil(WORD_BITS)];
        OnesIter {
            words,
            base: lo / WORD_BITS * WORD_BITS,
            len: hi,
            word_idx: 0,
            current: words
                .first()
                .map_or(0, |word| word & (!0u64 << (lo % WORD_BITS))),
        }
    }

    /// Access the raw words (read-only). Mostly useful for tests and for the
    /// word-at-a-time fast paths in the SpMV kernel.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the raw words, for the chunked writers that hand
    /// disjoint word ranges to different threads. Bits past `len()` in the
    /// last word must stay clear — `count_ones` and iteration rely on it.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Zero out the bits beyond `len` in the last word so `count_ones` and
    /// iteration stay correct after `set_all`.
    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Iterator over set-bit indices of a [`BitVec`] (optionally restricted to a
/// word or bit range, in which case `base` is the bit index of the first
/// word and `len` the bit index the scan stops at).
pub struct OnesIter<'a> {
    words: &'a [u64],
    base: usize,
    len: usize,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.base + self.word_idx * WORD_BITS + tz;
                if idx < self.len {
                    return Some(idx);
                } else {
                    return None;
                }
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_clear() {
        let bv = BitVec::new(130);
        assert_eq!(bv.len(), 130);
        assert_eq!(bv.count_ones(), 0);
        for i in 0..130 {
            assert!(!bv.get(i));
        }
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bv = BitVec::new(200);
        for i in (0..200).step_by(7) {
            assert!(!bv.set(i));
        }
        for i in 0..200 {
            assert_eq!(bv.get(i), i % 7 == 0);
        }
        // setting again reports previous value
        assert!(bv.set(0));
        bv.clear(0);
        assert!(!bv.get(0));
        assert_eq!(bv.count_ones(), (0..200).step_by(7).count() - 1);
    }

    #[test]
    fn iter_ones_matches_set_bits() {
        let mut bv = BitVec::new(300);
        let targets = [0usize, 1, 63, 64, 65, 127, 128, 255, 299];
        for &t in &targets {
            bv.set(t);
        }
        let got: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(got, targets.to_vec());
    }

    #[test]
    fn set_all_respects_length() {
        let mut bv = BitVec::new(70);
        bv.set_all();
        assert_eq!(bv.count_ones(), 70);
        assert_eq!(bv.iter_ones().count(), 70);
        bv.clear_all();
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn empty_bitvec() {
        let bv = BitVec::new(0);
        assert!(bv.is_empty());
        assert_eq!(bv.iter_ones().count(), 0);
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn iter_ones_in_words_matches_full_iteration() {
        let mut bv = BitVec::new(300);
        let targets = [0usize, 1, 63, 64, 65, 127, 128, 255, 299];
        for &t in &targets {
            bv.set(t);
        }
        // Any word-range split must partition the full iteration.
        for split in [0usize, 1, 2, 3, 4] {
            let lo: Vec<usize> = bv.iter_ones_in_words(0, split).collect();
            let hi: Vec<usize> = bv.iter_ones_in_words(split, bv.words().len()).collect();
            let mut all = lo;
            all.extend(hi);
            assert_eq!(all, targets.to_vec(), "split at word {split}");
        }
        // Out-of-range word bounds are clamped, not panicking.
        assert_eq!(bv.iter_ones_in_words(90, 100).count(), 0);
    }

    #[test]
    fn iter_ones_in_range_matches_a_filtered_full_iteration() {
        let mut bv = BitVec::new(300);
        let targets = [0usize, 1, 63, 64, 65, 127, 128, 255, 299];
        for &t in &targets {
            bv.set(t);
        }
        // Empty, mid-word, word-aligned, straddling and clamped bounds.
        for (lo, hi) in [
            (0, 0),
            (64, 64),
            (70, 70),
            (0, 1),
            (1, 64),
            (63, 65),
            (64, 128),
            (65, 256),
            (100, 299),
            (0, 300),
            (299, 1000),
            (400, 500),
        ] {
            let got: Vec<usize> = bv.iter_ones_in_range(lo, hi).collect();
            let expect: Vec<usize> = bv.iter_ones().filter(|&i| lo <= i && i < hi).collect();
            assert_eq!(got, expect, "range {lo}..{hi}");
        }
    }
}
