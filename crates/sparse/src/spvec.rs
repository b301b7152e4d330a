//! Sparse vectors.
//!
//! The paper considers two sparse-vector representations (§4.4.2):
//!
//! 1. a variable-sized array of sorted `(index, value)` tuples, and
//! 2. a bit vector marking the valid indices plus a constant-size (number of
//!    vertices) value array storing values only at valid indices.
//!
//! Option 2 wins across all algorithms and graphs — membership tests inside
//! the SpMV inner loop become a single bit probe, and the bit vector is small
//! enough to be shared and cached by all threads — so [`SparseVector`] is the
//! one message vector of the engine, for both execution directions: the push
//! kernel probes it per non-empty matrix column — or, when the vector holds
//! fewer entries than the partition has columns, scans its validity words
//! and looks the set entries up in the matrix instead — and the pull kernel
//! ([`crate::spmv::gspmv_csr_pull_into`]) probes it per stored source index.
//! A probe is an O(1) bit test plus array read; the scan is word operations
//! (`trailing_zeros`), not per-bit probes.
//!
//! The kernels take it by name — there is no vector trait between them and
//! it. Option 1 was measured at the push kernel before it was deleted; the
//! numbers are in `crates/bench/README.md` (Figure 7).
//!
//! # Concurrent writers
//!
//! Two write handles let multiple threads populate **one** [`SparseVector`]
//! in place, which is what keeps the superstep hot path allocation-free:
//!
//! * [`Sharded`] (from [`SparseVector::sharded`]) — for writers that own
//!   *disjoint index sets* whose boundaries are not word-aligned, e.g. the
//!   row partitions of the generalized SpMV. Validity bits are published
//!   with atomic `fetch_or` because neighbouring shards can share a 64-bit
//!   word at a range boundary.
//! * [`WordRangeWriter`] (inside [`SparseVector::fill_words`]) — for writers
//!   chunked on *word boundaries*, e.g. the SEND phase scanning the
//!   active-vertex bit vector. A chunk that owns validity words `[ws, we)`
//!   owns values `[64·ws, 64·we)`, carved out of the vector as two plain
//!   `&mut` slices ([`DisjointSlice`]): no atomics, and nothing unsafe in
//!   the writer itself.

use crate::bitvec::{BitVec, WORD_BITS};
use crate::parallel::{phase_chunks, DisjointSlice, Executor};
use crate::{ix, Index};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Bit-vector backed sparse vector (the paper's option 2).
///
/// Values are stored in a dense array indexed by vertex id; validity is
/// tracked by a [`BitVec`]. `T: Default` supplies the placeholder stored at
/// unset slots.
#[derive(Clone, Debug)]
pub struct SparseVector<T> {
    valid: BitVec,
    values: Vec<T>,
    nnz: usize,
    /// shard-check shadow state: one sticky-ownership claim per index for
    /// sharded merges, reset at the start of each parallel region.
    #[cfg(feature = "shard-check")]
    row_claims: crate::shard_check::ClaimMap,
}

#[cfg(feature = "shard-check")]
fn row_claims(n: usize) -> crate::shard_check::ClaimMap {
    crate::shard_check::ClaimMap::new(n, "SparseVector row")
}

impl<T: Clone + Default> SparseVector<T> {
    /// Create an empty sparse vector of logical length `n`.
    pub fn new(n: usize) -> Self {
        SparseVector {
            valid: BitVec::new(n),
            values: vec![T::default(); n],
            nnz: 0,
            #[cfg(feature = "shard-check")]
            row_claims: row_claims(n),
        }
    }

    /// Create a vector with every index set to `value` (e.g. the all-ones
    /// vector used for degree calculation in the paper's Figure 1).
    pub fn full(n: usize, value: T) -> Self {
        let mut valid = BitVec::new(n);
        valid.set_all();
        SparseVector {
            valid,
            values: vec![value; n],
            nnz: n,
            #[cfg(feature = "shard-check")]
            row_claims: row_claims(n),
        }
    }
}

impl<T> SparseVector<T> {
    /// Set index `i` to `value`, overwriting any previous value.
    #[inline(always)]
    pub fn set(&mut self, i: Index, value: T) {
        if !self.valid.set(ix(i)) {
            self.nnz += 1;
        }
        self.values[ix(i)] = value;
    }

    /// Mutable access to the value at `i`, if present.
    #[inline(always)]
    pub fn get_mut(&mut self, i: Index) -> Option<&mut T> {
        if self.valid.get(ix(i)) {
            Some(&mut self.values[ix(i)])
        } else {
            None
        }
    }

    /// Insert-or-update: if `i` is present, `merge(existing, value)`,
    /// otherwise set it to `value`. This is exactly the `REDUCE` accumulation
    /// of Algorithm 1 line 7.
    #[inline(always)]
    pub fn merge(&mut self, i: Index, value: T, merge: impl FnOnce(&mut T, T)) {
        if self.valid.get(ix(i)) {
            merge(&mut self.values[ix(i)], value);
        } else {
            self.valid.set(ix(i));
            self.values[ix(i)] = value;
            self.nnz += 1;
        }
    }

    /// Iterate over `(index, &value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, &T)> + '_ {
        self.valid
            .iter_ones()
            .map(move |i| (i as Index, &self.values[i]))
    }

    /// Clear all entries without deallocating.
    pub fn clear(&mut self) {
        self.valid.clear_all();
        self.nnz = 0;
    }

    /// The validity bit vector (shared read-only across threads in the SpMV).
    pub fn valid_bits(&self) -> &BitVec {
        &self.valid
    }

    /// Raw dense value storage (values at unset indices are unspecified).
    pub fn raw_values(&self) -> &[T] {
        &self.values
    }

    /// Collect into a `Vec<(Index, T)>` (for tests / display).
    pub fn to_entries(&self) -> Vec<(Index, T)>
    where
        T: Clone,
    {
        self.iter().map(|(i, v)| (i, v.clone())).collect()
    }

    /// Logical length (number of vertices).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no entries are set.
    pub fn is_empty(&self) -> bool {
        self.nnz == 0
    }

    /// Number of set entries.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Borrow the value at `i`, if present: one bit probe plus an array read.
    #[inline(always)]
    pub fn get(&self, i: Index) -> Option<&T> {
        if self.valid.get(ix(i)) {
            Some(&self.values[ix(i)])
        } else {
            None
        }
    }

    /// The set entries with index in `lo..hi`, ascending — what the push
    /// kernel's frontier walk drives a partition's column lookups with. A
    /// word scan of the validity bits, masked at both ends of the range.
    #[inline(always)]
    pub fn iter_range(&self, lo: Index, hi: Index) -> impl Iterator<Item = (Index, &T)> {
        self.valid
            .iter_ones_in_range(ix(lo), ix(hi))
            .map(move |i| (i as Index, &self.values[i]))
    }

    /// Create a shared handle through which multiple threads may merge
    /// entries concurrently, provided they touch **disjoint index sets**
    /// (see [`Sharded::merge`]). Dropping the handle folds the threads'
    /// newly-set counts back into `nnz`.
    pub fn sharded(&mut self) -> Sharded<'_, T> {
        // A new handle starts a new parallel region: prior ownership lapses.
        #[cfg(feature = "shard-check")]
        self.row_claims.reset();
        Sharded {
            values: self.values.as_mut_ptr(),
            words: self.valid.words_mut().as_mut_ptr(),
            len: self.values.len(),
            added: AtomicUsize::new(0),
            nnz: &mut self.nnz as *mut usize,
            #[cfg(feature = "shard-check")]
            claims: &self.row_claims,
            _marker: PhantomData,
        }
    }

    /// Populate the vector from **word-aligned chunks** of its index space.
    /// `f` is invoked once per chunk with a [`WordRangeWriter`] restricted to
    /// that chunk's word range `[word_start, word_end)`; since the executor
    /// hands each chunk to exactly one lane and no two chunks share a 64-bit
    /// validity word, all writes are plain (non-atomic) and race-free. `nnz`
    /// is updated once at the end.
    ///
    /// `work` is the caller's estimate of how many entries will be set;
    /// [`phase_chunks`] turns it into the chunking — one chunk run inline on
    /// the caller for a small fill, otherwise several dynamically scheduled
    /// word chunks per lane, so a frontier clustered in one contiguous id
    /// range (e.g. a BFS wavefront on a locality-ordered graph) does not
    /// serialize on a single lane.
    ///
    /// This is the SEND-phase primitive: the engine scans the active-vertex
    /// bit vector word range and inserts one message per sending vertex,
    /// with no allocation and no locks.
    pub fn fill_words<F>(&mut self, executor: &Executor, work: usize, f: F)
    where
        T: Send,
        F: Fn(&mut WordRangeWriter<'_, T>) + Sync,
    {
        let len = self.values.len();
        let added = AtomicUsize::new(0);
        let values = DisjointSlice::new(&mut self.values, "SparseVector value");
        let words = DisjointSlice::new(self.valid.words_mut(), "SparseVector word");
        let ch = phase_chunks(len.div_ceil(WORD_BITS), work, executor);
        executor.for_each_dynamic(ch.count(), |chunk_idx| {
            let (word_start, word_end) = ch.bounds(chunk_idx);
            let base = word_start * WORD_BITS;
            // SAFETY: each chunk is handed out exactly once and chunks
            // partition the word index space, so this task alone carves
            // words `[word_start, word_end)` and the values they cover.
            let (words, values) = unsafe {
                (
                    words.range(word_start, word_end),
                    values.range(base, (word_end * WORD_BITS).min(len)),
                )
            };
            let mut writer = WordRangeWriter {
                words,
                values,
                base,
                added: 0,
            };
            f(&mut writer);
            added.fetch_add(writer.added, Ordering::Relaxed);
        });
        self.nnz += added.load(Ordering::Relaxed);
    }
}

/// Concurrent merge handle for writers owning disjoint index sets (e.g. the
/// disjoint row ranges of SpMV partitions). Created by
/// [`SparseVector::sharded`].
///
/// Because two shards may share a validity *word* (range boundaries are not
/// word-aligned), validity bits are read and published atomically; values
/// need no atomics since indices are disjoint.
pub struct Sharded<'a, T> {
    values: *mut T,
    words: *mut u64,
    len: usize,
    added: AtomicUsize,
    nnz: *mut usize,
    /// Sticky per-row ownership shadow: the first lane to merge into a row
    /// owns it for the lifetime of the handle (see [`crate::shard_check`]).
    #[cfg(feature = "shard-check")]
    claims: &'a crate::shard_check::ClaimMap,
    _marker: PhantomData<&'a mut SparseVector<T>>,
}

// SAFETY: the pointers come from an exclusive (&mut) borrow of the vector
// that outlives the parallel region, and `merge` only touches disjoint
// indices from different threads; `added` is atomic and `nnz` is only
// dereferenced in Drop, after all threads are done (the borrow rules force
// the parallel region to end before the handle can be dropped by its owner).
unsafe impl<T: Send> Send for Sharded<'_, T> {}
unsafe impl<T: Send> Sync for Sharded<'_, T> {}

impl<T> Sharded<'_, T> {
    /// Insert-or-update entry `i`, mirroring [`SparseVector::merge`].
    /// `newly_set` is the caller's thread-local counter of entries this
    /// thread set for the first time; pass its final value to
    /// [`Sharded::commit`] once the thread's work is done.
    ///
    /// # Safety
    /// For the whole time the handle is shared, index `i` must be written by
    /// **at most one** thread (disjoint index ownership). `i` must be within
    /// bounds.
    #[inline(always)]
    pub unsafe fn merge(
        &self,
        i: Index,
        value: T,
        newly_set: &mut usize,
        merge: impl FnOnce(&mut T, T),
    ) {
        let i = ix(i);
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        // Claim before the raw write so a disjointness violation panics
        // before any undefined behaviour can occur.
        #[cfg(feature = "shard-check")]
        self.claims.claim_owner(i);
        let mask = 1u64 << (i % WORD_BITS);
        // Neighbouring shards may concurrently update other bits of this
        // word, so all word accesses go through an atomic view.
        let word = &*(self.words.add(i / WORD_BITS) as *const AtomicU64);
        if word.load(Ordering::Relaxed) & mask != 0 {
            merge(&mut *self.values.add(i), value);
        } else {
            *self.values.add(i) = value;
            word.fetch_or(mask, Ordering::Relaxed);
            *newly_set += 1;
        }
    }

    /// Fold a thread's local newly-set count into the vector's `nnz`
    /// (applied when the handle is dropped).
    pub fn commit(&self, newly_set: usize) {
        self.added.fetch_add(newly_set, Ordering::Relaxed);
    }
}

impl<T> Drop for Sharded<'_, T> {
    fn drop(&mut self) {
        // SAFETY: the exclusive borrow of the vector is still alive and all
        // worker threads have finished (the executor joins before returning).
        unsafe { *self.nnz += self.added.load(Ordering::Relaxed) };
    }
}

/// Write handle restricted to one word-aligned chunk of a [`SparseVector`],
/// handed out by [`SparseVector::fill_words`]: the chunk's validity words and
/// the values they cover, as exclusive slices. All writes are plain stores.
pub struct WordRangeWriter<'a, T> {
    words: &'a mut [u64],
    values: &'a mut [T],
    /// Index of `values[0]` (= 64 × the first word's index).
    base: usize,
    added: usize,
}

impl<T> WordRangeWriter<'_, T> {
    /// The word range `[start, end)` this writer may touch.
    pub fn word_range(&self) -> (usize, usize) {
        let start = self.base / WORD_BITS;
        (start, start + self.words.len())
    }

    /// The index range `[start, end)` this writer may set.
    pub fn index_range(&self) -> (usize, usize) {
        (self.base, self.base + self.values.len())
    }

    /// Set index `i` to `value`, overwriting any previous value (same
    /// semantics as [`SparseVector::set`]).
    ///
    /// # Panics
    /// Panics if `i` falls outside this writer's word range.
    #[inline(always)]
    pub fn set(&mut self, i: Index, value: T) {
        // Below-range indices wrap to huge offsets and fail the same check.
        let local = ix(i).wrapping_sub(self.base);
        assert!(
            local < self.values.len(),
            "index {i} outside this writer's word range {:?}",
            self.word_range()
        );
        self.values[local] = value;
        let word = &mut self.words[local / WORD_BITS];
        let mask = 1u64 << (local % WORD_BITS);
        self.added += usize::from(*word & mask == 0);
        *word |= mask;
    }
}

/// The name the pull kernel's callers knew the message vector by: the same
/// bit vector + value array, read by index instead of driving iteration.
/// The alias exists only for the frozen `benchmark/src/adapter.rs`, which
/// imports it; nothing in the workspace uses it, and it stays out of the
/// prelude.
pub type DenseVector<T> = SparseVector<T>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vector_set_get() {
        let mut v: SparseVector<f32> = SparseVector::new(10);
        assert_eq!(v.nnz(), 0);
        assert!(v.is_empty());
        v.set(3, 1.5);
        v.set(7, 2.5);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(3), Some(&1.5));
        assert_eq!(v.get(4), None);
        assert_eq!(v.get(7), Some(&2.5));
        assert_eq!(v.get(0), None);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn sparse_vector_overwrite_does_not_double_count() {
        let mut v: SparseVector<i32> = SparseVector::new(5);
        v.set(2, 1);
        v.set(2, 9);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(2), Some(&9));
    }

    #[test]
    fn sparse_vector_merge_accumulates() {
        let mut v: SparseVector<i32> = SparseVector::new(5);
        v.merge(1, 10, |a, b| *a += b);
        v.merge(1, 5, |a, b| *a += b);
        v.merge(2, 7, |a, b| *a += b);
        assert_eq!(v.get(1), Some(&15));
        assert_eq!(v.get(2), Some(&7));
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn sparse_vector_full_and_clear() {
        let mut v = SparseVector::full(4, 1.0f64);
        assert_eq!(v.nnz(), 4);
        assert_eq!(v.iter().count(), 4);
        v.clear();
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.iter().count(), 0);
    }

    #[test]
    fn sparse_vector_iter_sorted() {
        let mut v: SparseVector<u32> = SparseVector::new(100);
        for i in [90u32, 5, 40, 7] {
            v.set(i, i * 2);
        }
        let entries = v.to_entries();
        assert_eq!(entries, vec![(5, 10), (7, 14), (40, 80), (90, 180)]);
    }

    #[test]
    fn iter_range_yields_the_set_entries_inside_the_bounds() {
        let mut v: SparseVector<u32> = SparseVector::new(200);
        for i in [0u32, 5, 63, 64, 70, 127, 128, 199] {
            v.set(i, i * 2);
        }
        // `lo == hi`, mid-word `lo` and `hi`, `hi == len`.
        for (lo, hi) in [
            (70, 70),
            (0, 0),
            (5, 70),
            (6, 71),
            (64, 128),
            (100, 200),
            (0, 200),
        ] {
            let got: Vec<(Index, u32)> = v.iter_range(lo, hi).map(|(i, x)| (i, *x)).collect();
            let expect: Vec<(Index, u32)> = v
                .to_entries()
                .into_iter()
                .filter(|&(i, _)| lo <= i && i < hi)
                .collect();
            assert_eq!(got, expect, "range {lo}..{hi}");
        }
    }

    #[test]
    fn sparse_vector_get_mut() {
        let mut v: SparseVector<i32> = SparseVector::new(5);
        v.set(1, 3);
        *v.get_mut(1).unwrap() = 4;
        assert_eq!(v.get(1), Some(&4));
        assert!(v.get_mut(0).is_none());
    }

    #[test]
    fn sharded_merge_matches_sequential_merge() {
        // Disjoint index ranges with a boundary inside one 64-bit word.
        let mut expected: SparseVector<u64> = SparseVector::new(200);
        for i in 0..200u32 {
            expected.merge(i, i as u64, |a, b| *a += b);
            if i % 3 == 0 {
                expected.merge(i, 1, |a, b| *a += b);
            }
        }
        let mut v: SparseVector<u64> = SparseVector::new(200);
        {
            let shards = v.sharded();
            let ranges = [(0u32, 70u32), (70, 130), (130, 200)];
            std::thread::scope(|scope| {
                for (lo, hi) in ranges {
                    let shards = &shards;
                    scope.spawn(move || {
                        let mut newly = 0usize;
                        for i in lo..hi {
                            // SAFETY: ranges are disjoint.
                            unsafe { shards.merge(i, i as u64, &mut newly, |a, b| *a += b) };
                            if i % 3 == 0 {
                                // SAFETY: same disjoint range as above; re-merging
                                // an index this lane owns is explicitly allowed.
                                unsafe { shards.merge(i, 1, &mut newly, |a, b| *a += b) };
                            }
                        }
                        shards.commit(newly);
                    });
                }
            });
        }
        assert_eq!(v.nnz(), expected.nnz());
        assert_eq!(v.to_entries(), expected.to_entries());
    }

    /// The detector's acceptance test: two lanes deliberately merge into the
    /// **same** row of one `Sharded` handle — the exact bug class the unsafe
    /// disjoint-write protocol cannot tolerate — and shard-check must turn
    /// it into a panic on the second lane instead of silent UB.
    #[test]
    #[cfg(feature = "shard-check")]
    fn shard_check_catches_overlapping_sharded_claims() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Barrier;

        let mut v: SparseVector<u64> = SparseVector::new(64);
        let shards = v.sharded();
        let barrier = Barrier::new(2);
        let caught = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|lane| {
                    let shards = &shards;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        catch_unwind(AssertUnwindSafe(|| {
                            let mut newly = 0;
                            // Both lanes target row 7: a protocol violation.
                            // SAFETY: deliberately violates disjointness; the
                            // claim map panics before the racing write.
                            unsafe { shards.merge(7, lane as u64, &mut newly, |a, b| *a += b) };
                            shards.commit(newly);
                        }))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| panic!("join failed")))
                .collect::<Vec<_>>()
        });
        let panics = caught.iter().filter(|r| r.is_err()).count();
        assert_eq!(panics, 1, "exactly the second claimant must panic");
        let msg = caught
            .into_iter()
            .find_map(|r| r.err())
            .and_then(|p| p.downcast::<String>().ok())
            .unwrap_or_else(|| panic!("panic payload must be a String"));
        assert!(
            msg.contains("shard-check"),
            "diagnostic names the detector: {msg}"
        );
        assert!(
            msg.contains("SparseVector row[7]"),
            "diagnostic names the row: {msg}"
        );
        assert!(msg.contains("lane"), "diagnostic names the lanes: {msg}");
    }

    #[test]
    fn fill_words_matches_sequential_set() {
        let ex = Executor::new(4);
        let mut par: SparseVector<u32> = SparseVector::new(1000);
        par.fill_words(&ex, usize::MAX, |w| {
            let (lo, hi) = w.index_range();
            for i in (lo..hi).filter(|i| i % 7 == 0) {
                w.set(i as Index, i as u32 * 2);
            }
        });
        let mut seq: SparseVector<u32> = SparseVector::new(1000);
        for i in (0..1000).step_by(7) {
            seq.set(i as Index, i as u32 * 2);
        }
        assert_eq!(par.nnz(), seq.nnz());
        assert_eq!(par.to_entries(), seq.to_entries());
    }

    #[test]
    fn fill_words_accumulates_nnz_across_calls() {
        let ex = Executor::sequential();
        let mut v: SparseVector<u8> = SparseVector::new(128);
        v.fill_words(&ex, 10, |w| {
            let (lo, hi) = w.index_range();
            for i in lo..hi.min(10) {
                w.set(i as Index, 1);
            }
        });
        assert_eq!(v.nnz(), 10);
        // Second fill over the same indices must not double-count.
        v.fill_words(&ex, 10, |w| {
            let (lo, hi) = w.index_range();
            for i in lo..hi.min(10) {
                w.set(i as Index, 2);
            }
        });
        assert_eq!(v.nnz(), 10);
        assert_eq!(v.get(0), Some(&2));
    }

    #[test]
    #[should_panic(expected = "word range")]
    fn word_range_writer_rejects_out_of_chunk_index() {
        let mut v: SparseVector<u8> = SparseVector::new(256);
        // A small fill is a single chunk covering everything, so ask for a
        // large one on a 4-lane executor and write outside a sub-range.
        let ex = Executor::new(4);
        v.fill_words(&ex, usize::MAX, |w| {
            let (lo, _) = w.word_range();
            if lo > 0 {
                w.set(0, 1); // outside this chunk
            } else {
                w.set(255, 1); // outside chunk 0 (4 words split across lanes)
            }
        });
    }
}
