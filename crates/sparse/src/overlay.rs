//! Delta overlays: a small sorted edit set held beside a
//! [`PartitionedDcsc`] and folded into it (and into its [`CsrMirror`])
//! without rebuilding the matrix.
//!
//! A streaming graph accumulates edge insertions, weight updates and
//! deletions between compactions. Rebuilding the DCSC per batch would cost
//! O(E log E); instead the pending edits live in an [`Overlay`] — a
//! partition-aligned structure holding at most **one** [`OverlayOp`] per
//! `(row, col)` coordinate, held one way: column-major, DCSC-shaped, like
//! the push matrix it edits. No kernel reads it; two folds do:
//!
//! * [`fold_into_matrix`]: `base ⊕ overlay` written out as a push matrix,
//!   each push partition swept with its overlay partition;
//! * [`fold_into_mirror`]: `mirror ⊕ overlay` written out as a mirror, each
//!   edited row copied in plain runs of the base row between its edited
//!   columns. The fold buckets the edits by row itself, once per overlay
//!   partition (`OverlayPartition::by_row`).
//!
//! That is how edits are pushed and pulled: there is no merged kernel. A
//! push over pending edits reads a matrix they were folded into and a pull a
//! mirror, through the one push kernel ([`crate::spmv::gspmv_into`]) and the
//! one pull kernel ([`crate::spmv::pull_into`]). A fold stores what a build
//! of the edited entries over the same ranges stores, in the same order, so
//! products arrive at each destination row in **ascending source (column)
//! order**, exactly as they would from a rebuilt matrix. Since the
//! generalized add may be a non-associative floating-point sum, this is what
//! makes overlay results bit-for-bit identical to a from-scratch rebuild
//! (for bases without duplicate coordinates; an op on a duplicated
//! coordinate masks *all* stored copies).
//!
//! # One merge rule
//!
//! Everything that writes `base ⊕ overlay` walks one line merge
//! (`merge_line`). A sorted base line — a column's rows, a row's columns —
//! is handed over in runs up to each edited key, together with the stored
//! copies of that key the edit masks; the key is found by galloping from
//! where the walk stands. In GraphBLAS terms this is one `eWiseAdd` whose
//! accumulator lets the edit win. Column ids are unique keys, so a
//! partition's column sweep is the same merge one level up: the base's
//! non-empty columns are the line, the edited columns the edits. Its one
//! consumer is the copier (`Lines`), which writes the merge out: a write
//! merging a batch into the pending set ([`Overlay::merged`], where `take`
//! decides each edit) and a fold of the pending set into the base
//! ([`fold_into_matrix`], [`fold_into_mirror`], where an upsert is kept and
//! a delete dropped). Runs of unedited columns are copied in bulk.
//!
//! Every overlay comes out of one linear builder, [`Overlay::merged`]: a
//! sorted batch of edits merged into an existing overlay, partition by
//! partition, by the copier. A write therefore costs the ops held plus its
//! batch, linearly — never a sort of the pending set, nor a pass over the
//! partitions' rows; [`Overlay::from_entries`] is one sort of its entries
//! and then the same builder, over an empty overlay. A row view is built by
//! the reader that needs it, when it reads, as GraphBLAS assembles pending
//! tuples: the mirror fold and [`Overlay::transposed`] bucket each overlay
//! partition by row, one stable counting sort of its entries.
//!
//! The overlay is bucketed by the push matrix's row partitions, one-to-one:
//! [`fold_into_matrix`] sweeps push partition `p` with overlay partition
//! `p`. The pull mirror's partitions may be finer, each inside one overlay
//! partition, and [`fold_into_mirror`] merges each, row by row, with the
//! bucketed rows of the overlay partition holding it — one linear merge per
//! partition, no comparison sort. Both folds hand their partitions out
//! across an [`Executor`]'s lanes (`fold_partitions`), and neither result
//! depends on the lane count. A snapshot's first push over pending edits
//! makes the first fold, its first pull the second, and a compaction
//! publishes both.

use crate::dcsc::Dcsc;
use crate::parallel::{DisjointSlice, Executor};
use crate::partition::{Partition, PartitionedDcsc, RowRange};
use crate::pull::{CsrMirror, PullPartition};
use crate::spmv::gspmv_into;
use crate::spvec::SparseVector;
use crate::Index;
use std::ops::Range;

/// One pending edit at a matrix coordinate.
#[derive(Clone, Debug, PartialEq)]
pub enum OverlayOp<T> {
    /// Insert the entry, or replace every stored copy of it, with this value.
    Upsert(T),
    /// Remove every stored copy of the entry (a no-op if absent).
    Delete,
}

/// The edits owned by one row partition, DCSC-shaped: column-major, the
/// push matrix's order. A reader that wants them by row buckets
/// them ([`OverlayPartition::by_row`]).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct OverlayPartition<T> {
    /// Non-empty column ids, ascending.
    cols: Vec<Index>,
    /// `col_ptr[i]..col_ptr[i+1]` indexes the entries of `cols[i]`.
    col_ptr: Vec<usize>,
    /// Row ids per column, ascending, unique within a column.
    rows: Vec<Index>,
    /// The op at each `(row, col)` coordinate.
    ops: Vec<OverlayOp<T>>,
}

impl<T: Clone> OverlayPartition<T> {
    fn empty() -> Self {
        let mut lines = Lines::with_capacity(0, 0);
        lines.starts.push(0);
        OverlayPartition::from_lines(lines)
    }

    /// This partition with the edits `bucket` indexes merged in — ascending
    /// by `(col, row)`, as the partition is. The copier sweeps the held
    /// columns with the edited ones, each edited column's held ops merged
    /// with its edits as `take` decides.
    fn merged<F>(
        &self,
        edits: &[(Index, Index, OverlayOp<T>)],
        bucket: &[usize],
        take: &mut F,
    ) -> Self
    where
        F: FnMut(&(Index, Index, OverlayOp<T>), Option<&OverlayOp<T>>) -> bool,
    {
        // Upper bounds: an edit adds at most one entry and one column.
        let mut lines = Lines::with_capacity(
            self.cols.len() + bucket.len(),
            self.rows.len() + bucket.len(),
        );
        let held = (&*self.cols, &*self.col_ptr, &*self.rows, &*self.ops);
        // The bucket's edited columns, each with the run of its edits.
        let mut rest = bucket;
        let columns = std::iter::from_fn(|| {
            let c = edits[*rest.first()?].1;
            let (column, tail) = rest.split_at(rest.partition_point(|&e| edits[e].1 == c));
            rest = tail;
            Some((c, column))
        });
        lines.columns(held, columns, |lines, line, column| {
            let column = column.iter().map(|&e| (edits[e].0, &edits[e]));
            lines.line(
                &self.rows[line.clone()],
                &self.ops[line],
                column,
                |edit, held| take(edit, held.first()).then(|| edit.2.clone()),
            );
        });
        OverlayPartition::from_lines(lines)
    }
}

impl<T> OverlayPartition<T> {
    /// The partition the copier wrote: its lines are the edited columns.
    fn from_lines(lines: Lines<OverlayOp<T>>) -> Self {
        OverlayPartition {
            cols: lines.ids,
            col_ptr: lines.starts,
            rows: lines.keys,
            ops: lines.values,
        }
    }

    /// The `(row, op)` pairs of the `i`-th edited column, rows ascending.
    #[inline(always)]
    fn column(&self, i: usize) -> impl Iterator<Item = (Index, &OverlayOp<T>)> {
        let line = self.col_ptr[i]..self.col_ptr[i + 1];
        self.rows[line.clone()].iter().copied().zip(&self.ops[line])
    }

    /// The entries in rows `range`, bucketed by row: line `i` is row
    /// `range.start + i`, its keys the row's columns, ascending, and its
    /// values where in `ops` each one's op sits (no `ids`: every row has a
    /// line). A stable counting sort of the entries read in column order.
    fn by_row(&self, range: RowRange) -> Lines<usize> {
        let mut starts = vec![0usize; range.len() + 1];
        for &r in self.rows.iter().filter(|&&r| range.contains(r)) {
            starts[(r - range.start) as usize + 1] += 1;
        }
        for i in 0..range.len() {
            starts[i + 1] += starts[i];
        }
        // The scatter moves each row's start to its end, which is where the
        // next row starts: shifted up by one row after it.
        let total = starts[range.len()];
        let (mut keys, mut values) = (vec![0; total], vec![0; total]);
        for (i, &c) in self.cols.iter().enumerate() {
            for k in self.col_ptr[i]..self.col_ptr[i + 1] {
                if range.contains(self.rows[k]) {
                    let slot = &mut starts[(self.rows[k] - range.start) as usize];
                    keys[*slot] = c;
                    values[*slot] = k;
                    *slot += 1;
                }
            }
        }
        starts.copy_within(..range.len(), 1);
        starts[0] = 0;
        Lines {
            ids: Vec::new(),
            starts,
            keys,
            values,
        }
    }
}

/// The merge rule of `base ⊕ edits` over one line, written once. `base` is
/// ascending with every copy of a key adjacent; `edits` are `(key, edit)`
/// pairs ascending and unique by key. Per edit, `step(run, Some((key, edit,
/// masked)))` hands over the base run below the key and the stored copies of
/// the key (empty if none), and a last `step(run, None)` the rest of the
/// line: the runs and masked ranges cover `base` once, in order.
///
/// The key is found by galloping from where the walk stands — double a
/// bracket until it holds the key, then bisect it — so an edit in a short
/// gap costs a probe or two, and the probes stay on the cache lines the
/// consumer is about to stream. This is the one search of a base line in the
/// module. Measured in the merged pull kernel (since replaced by the mirror
/// fold): a plain two-pointer read 25.0 ms against 22.2, and a bisection of
/// the whole remaining line 2 % slower.
#[inline(always)]
fn merge_line<K>(
    base: &[Index],
    edits: impl IntoIterator<Item = (Index, K)>,
    mut step: impl FnMut(Range<usize>, Option<(Index, K, Range<usize>)>),
) {
    // One call of `step`, so that a consumer's body is inlined here (an
    // iterator chained with the final `None` kept its state on the stack).
    let (mut at, mut edits, mut more) = (0usize, edits.into_iter(), true);
    while more {
        let edit = edits.next();
        more = edit.is_some();
        let (upto, end) = match &edit {
            Some((key, _)) => {
                let (mut lo, mut hi, mut width) = (at, at, 1usize);
                while hi < base.len() && base[hi] < *key {
                    lo = hi + 1;
                    hi += width;
                    width *= 2;
                }
                let upto = lo + base[lo..hi.min(base.len())].partition_point(|k| k < key);
                let mut end = upto;
                while base.get(end) == Some(key) {
                    end += 1;
                }
                (upto, end)
            }
            None => (base.len(), base.len()),
        };
        step(at..upto, edit.map(|(key, edit)| (key, edit, upto..end)));
        at = end;
    }
}

/// The one copier of `base ⊕ edits`: lines written out DCSC-shaped — the ids
/// of the non-empty lines, where each starts, and their keys and values. A
/// write builds an overlay partition with it, and a fold a push partition
/// or, line by line, a mirror partition. An overlay partition's row buckets
/// (`OverlayPartition::by_row`) are held in one too.
struct Lines<V> {
    ids: Vec<Index>,
    starts: Vec<usize>,
    keys: Vec<Index>,
    values: Vec<V>,
}

impl<V: Clone> Lines<V> {
    fn with_capacity(lines: usize, entries: usize) -> Self {
        Lines {
            ids: Vec::with_capacity(lines),
            starts: Vec::with_capacity(lines + 1),
            keys: Vec::with_capacity(entries),
            values: Vec::with_capacity(entries),
        }
    }

    /// The `(key, value)` pairs of the `i`-th line.
    #[inline(always)]
    fn line_at(&self, i: usize) -> impl Iterator<Item = (Index, &V)> {
        let line = self.starts[i]..self.starts[i + 1];
        self.keys[line.clone()]
            .iter()
            .copied()
            .zip(&self.values[line])
    }

    /// Append the lines of a DCSC-shaped `base` — `(ids, starts, keys,
    /// values)` — swept with the edited lines `edits`, ascending by id. The
    /// base lines no edit touches are copied in bulk, run by run; an edited
    /// one is written by `line(self, the entries its base line holds, edit)`
    /// and kept if that left anything. Closes `starts`.
    #[inline(always)]
    fn columns<K>(
        &mut self,
        base: (&[Index], &[usize], &[Index], &[V]),
        edits: impl IntoIterator<Item = (Index, K)>,
        mut line: impl FnMut(&mut Self, Range<usize>, K),
    ) {
        let (ids, starts, keys, values) = base;
        merge_line(ids, edits, |run, edit| {
            let (from, to) = (starts[run.start], starts[run.end]);
            let shift = self.keys.len().wrapping_sub(from);
            self.ids.extend_from_slice(&ids[run.clone()]);
            let run_starts = starts[run].iter().map(|&p| p.wrapping_add(shift));
            self.starts.extend(run_starts);
            self.keys.extend_from_slice(&keys[from..to]);
            self.values.extend_from_slice(&values[from..to]);
            if let Some((id, edit, held)) = edit {
                let start = self.keys.len();
                line(self, starts[held.start]..starts[held.end], edit);
                if self.keys.len() > start {
                    self.ids.push(id);
                    self.starts.push(start);
                }
            }
        });
        self.starts.push(self.keys.len());
    }

    /// Append one line of `base ⊕ edits`: the base `keys`/`values` copied in
    /// runs, the copies each edit masks dropped, and `keep(edit, their
    /// values)`'s value, if any, put in their place.
    #[inline(always)]
    fn line<K>(
        &mut self,
        keys: &[Index],
        values: &[V],
        edits: impl IntoIterator<Item = (Index, K)>,
        mut keep: impl FnMut(K, &[V]) -> Option<V>,
    ) {
        merge_line(keys, edits, |run, edit| {
            self.keys.extend_from_slice(&keys[run.clone()]);
            self.values.extend_from_slice(&values[run]);
            if let Some((key, edit, held)) = edit {
                if let Some(value) = keep(edit, &values[held]) {
                    self.keys.push(key);
                    self.values.push(value);
                }
            }
        });
    }
}

/// What a compaction keeps of an op: an upsert's value, nothing of a delete.
fn upserted<T: Clone>(op: &OverlayOp<T>, _masked: &[T]) -> Option<T> {
    match op {
        OverlayOp::Upsert(w) => Some(w.clone()),
        OverlayOp::Delete => None,
    }
}

/// A sorted set of pending edits aligned to a base matrix's row partitions.
///
/// Build one with [`Overlay::from_entries`] from resolved `(row, col, op)`
/// triples — **at most one op per coordinate**; a delta log resolves
/// duplicates to latest-wins before building — or merge a batch into an
/// existing one with [`Overlay::merged`], the builder both go through. The
/// partition ranges must be exactly the base matrix's ranges so the two
/// structures can be swept together partition by partition; a pull mirror's
/// ranges may refine them.
#[derive(Clone, Debug, PartialEq)]
pub struct Overlay<T> {
    nrows: Index,
    ncols: Index,
    ranges: Vec<RowRange>,
    partitions: Vec<OverlayPartition<T>>,
    n_upserts: usize,
}

impl<T: Clone> Overlay<T> {
    /// An overlay holding no edits, bucketed by `ranges`.
    ///
    /// # Panics
    /// Panics if `ranges` is empty or not contiguous over `0..nrows`.
    pub fn empty(nrows: Index, ncols: Index, ranges: &[RowRange]) -> Self {
        assert!(!ranges.is_empty(), "at least one partition range required");
        assert_eq!(ranges[0].start, 0, "ranges must start at row 0");
        assert_eq!(
            ranges[ranges.len() - 1].end,
            nrows,
            "ranges must cover all rows"
        );
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        Overlay {
            nrows,
            ncols,
            ranges: ranges.to_vec(),
            partitions: ranges.iter().map(|_| OverlayPartition::empty()).collect(),
            n_upserts: 0,
        }
    }

    /// Build an overlay from resolved edit triples, in any order: one sort by
    /// `(col, row)`, then [`Overlay::merged`] into an empty overlay.
    ///
    /// # Panics
    /// Panics if `ranges` is empty or not contiguous over `0..nrows`, if a
    /// coordinate is out of range, or (in debug builds) if two entries share
    /// a coordinate.
    pub fn from_entries(
        nrows: Index,
        ncols: Index,
        ranges: &[RowRange],
        mut entries: Vec<(Index, Index, OverlayOp<T>)>,
    ) -> Self {
        entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
        Overlay::empty(nrows, ncols, ranges).merged(&entries, |_, _| true)
    }

    /// This overlay with `edits` merged in — the one builder every overlay
    /// comes out of. `edits` are `(row, col, op)` triples ascending by
    /// `(col, row)`, at most one per coordinate. `take(edit, held)` is asked
    /// once per edit, with the op this overlay holds at the edit's coordinate
    /// if any: `true` puts the edit's op there, `false` leaves the coordinate
    /// empty. Every other op is kept as it is.
    ///
    /// Each partition is one sweep of the module's line merge over its held
    /// columns and, within an edited column, over its held rows; held
    /// columns no edit touches are copied in bulk. Linear in the ops held
    /// plus the edits; nothing is sorted, and no partition's rows are
    /// visited.
    ///
    /// # Panics
    /// Panics if a coordinate is out of range, or (in debug builds) if the
    /// edits are not strictly ascending by `(col, row)`.
    pub fn merged<F>(&self, edits: &[(Index, Index, OverlayOp<T>)], mut take: F) -> Self
    where
        F: FnMut(&(Index, Index, OverlayOp<T>), Option<&OverlayOp<T>>) -> bool,
    {
        let (nrows, ncols) = (self.nrows, self.ncols);
        for &(r, c, _) in edits {
            assert!(
                r < nrows && c < ncols,
                "overlay entry ({r},{c}) out of bounds for {nrows}x{ncols} matrix"
            );
        }
        debug_assert!(
            edits
                .windows(2)
                .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
            "edits ascend by (col, row), at most one op per coordinate"
        );
        // Bucket the edits by partition, each bucket in the edits' order: a
        // counting sort of their indices.
        let np = self.partitions.len();
        let mut start = vec![0usize; np + 1];
        for &(r, _, _) in edits {
            start[self.partition_of(r) + 1] += 1;
        }
        for p in 0..np {
            start[p + 1] += start[p];
        }
        let mut next = start[..np].to_vec();
        let mut order = vec![0usize; edits.len()];
        for (i, &(r, _, _)) in edits.iter().enumerate() {
            let slot = &mut next[self.partition_of(r)];
            order[*slot] = i;
            *slot += 1;
        }
        let partitions: Vec<OverlayPartition<T>> = (0..np)
            .map(|p| {
                let bucket = &order[start[p]..start[p + 1]];
                self.partitions[p].merged(edits, bucket, &mut take)
            })
            .collect();
        let n_upserts = partitions
            .iter()
            .flat_map(|p| &p.ops)
            .filter(|op| matches!(op, OverlayOp::Upsert(_)))
            .count();
        Overlay {
            nrows,
            ncols,
            ranges: self.ranges.clone(),
            partitions,
            n_upserts,
        }
    }

    /// The same edits seen from the other orientation: every `(row, col, op)`
    /// as `(col, row, op)`, bucketed by `ranges` (the transposed base's row
    /// partitioning). How a `Gᵀ`-aligned overlay yields its `G`-aligned twin.
    /// This overlay's row-major order is the `(col, row)` order of the
    /// transposed one, so its partitions bucketed by row feed the builder
    /// as they are.
    pub fn transposed(&self, ranges: &[RowRange]) -> Self {
        let mut entries = Vec::with_capacity(self.nnz());
        for (p, &range) in self.partitions.iter().zip(&self.ranges) {
            let by_row = p.by_row(range);
            for (i, r) in (range.start..range.end).enumerate() {
                entries.extend(by_row.line_at(i).map(|(c, &op)| (c, r, p.ops[op].clone())));
            }
        }
        Overlay::empty(self.ncols, self.nrows, ranges).merged(&entries, |_, _| true)
    }
}

impl<T> Overlay<T> {
    /// Number of rows of the (virtual) edited matrix.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns of the (virtual) edited matrix.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Total number of pending ops.
    pub fn nnz(&self) -> usize {
        self.partitions.iter().map(|p| p.rows.len()).sum()
    }

    /// Number of upsert ops (the rest are deletes).
    pub fn n_upserts(&self) -> usize {
        self.n_upserts
    }

    /// `true` if there are no pending ops.
    pub fn is_empty(&self) -> bool {
        self.partitions.iter().all(|p| p.rows.is_empty())
    }

    /// Number of partitions (equals the base matrix's).
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The row ranges the overlay was bucketed by.
    pub fn ranges(&self) -> &[RowRange] {
        &self.ranges
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| {
                (p.cols.len() + p.rows.len()) * std::mem::size_of::<Index>()
                    + p.col_ptr.len() * std::mem::size_of::<usize>()
                    + p.ops.len() * std::mem::size_of::<OverlayOp<T>>()
            })
            .sum::<usize>()
            + self.ranges.len() * std::mem::size_of::<RowRange>()
    }

    /// Assert that this overlay is aligned with a [`PartitionedDcsc`] of
    /// `nrows × ncols` split into `base_ranges`: same shape and the exact
    /// same row partitioning — [`fold_into_matrix`] sweeps base partition
    /// `p` with overlay partition `p`.
    pub(crate) fn check_aligned(
        &self,
        nrows: Index,
        ncols: Index,
        base_ranges: impl ExactSizeIterator<Item = RowRange>,
    ) {
        self.check_shape(nrows, ncols);
        assert_eq!(
            self.partitions.len(),
            base_ranges.len(),
            "overlay/base partition count mismatch"
        );
        for (range, base_range) in self.ranges.iter().zip(base_ranges) {
            assert_eq!(*range, base_range, "overlay/base partition ranges mismatch");
        }
    }

    /// Assert that a [`CsrMirror`] of `nrows × ncols` split into
    /// `mirror_ranges` refines this overlay: same shape, and every mirror
    /// range inside one overlay range. A fold task writes only its own
    /// mirror partition and reads the one overlay partition holding it, so
    /// tasks that share an overlay partition only share reads.
    pub(crate) fn check_refined_by(
        &self,
        nrows: Index,
        ncols: Index,
        mirror_ranges: impl Iterator<Item = RowRange>,
    ) {
        self.check_shape(nrows, ncols);
        for fine in mirror_ranges.filter(|r| !r.is_empty()) {
            let outer = self.ranges[self.partition_of(fine.start)];
            assert!(
                fine.end <= outer.end,
                "mirror range {fine:?} straddles overlay ranges past {outer:?}"
            );
        }
    }

    fn check_shape(&self, nrows: Index, ncols: Index) {
        assert_eq!(self.nrows, nrows, "overlay/base row count mismatch");
        assert_eq!(self.ncols, ncols, "overlay/base col count mismatch");
    }

    /// The partition whose range holds `row` (the last one for `row ≥
    /// nrows`, which only an empty range starts at).
    fn partition_of(&self, row: Index) -> usize {
        let p = self.ranges.partition_point(|r| r.end <= row);
        p.min(self.ranges.len() - 1)
    }
}

/// `base ⊕ overlay` as a matrix: every push partition of `base` swept with
/// the overlay partition of the same rows by the copier of the module's line
/// merge — unedited columns copied in bulk, each edited one merged with its
/// ops — the partitions handed out across `executor`'s lanes. This is what
/// a snapshot's pushes over pending edits read, and what a compaction
/// publishes. The result is partitioned by `base`'s ranges and stores what a
/// build from the edited entries would, in the same order, whatever the
/// lane count: a column's rows ascending, an upsert as the one copy of its
/// coordinate, a delete as none; the base's own entries in the order they
/// were stored.
///
/// # Panics
/// Panics if `overlay` is not aligned with `base` (shape and row
/// partitioning must match exactly).
pub fn fold_into_matrix<T: Clone + Send + Sync>(
    base: &PartitionedDcsc<T>,
    overlay: &Overlay<T>,
    executor: &Executor,
) -> PartitionedDcsc<T> {
    let ranges = base.partitions().iter().map(|p| p.rows);
    overlay.check_aligned(base.nrows(), base.ncols(), ranges);
    let partitions = fold_partitions(base.n_partitions(), executor, |p| {
        let (part, edits) = (base.partition(p), &overlay.partitions[p]);
        let base = &part.matrix;
        let (_, _, rows, values) = base.parts();
        // Upper bounds: an op adds at most one entry and one column.
        let ncols = base.n_nonempty_cols() + edits.cols.len();
        let mut lines = Lines::with_capacity(ncols, base.nnz() + edits.rows.len());
        let columns = edits.cols.iter().copied().zip(0..);
        lines.columns(base.parts(), columns, |lines, line, i| {
            lines.line(
                &rows[line.clone()],
                &values[line],
                edits.column(i),
                upserted,
            );
        });
        let (ids, starts, keys, values) = (lines.ids, lines.starts, lines.keys, lines.values);
        let matrix = Dcsc::from_parts(base.nrows(), base.ncols(), ids, starts, keys, values);
        Partition {
            rows: part.rows,
            matrix,
        }
    });
    PartitionedDcsc::from_partitions(base.nrows(), base.ncols(), partitions)
}

/// `mirror ⊕ overlay` as a mirror: every mirror partition merged, row by
/// row, with the edited rows of the overlay partition holding its range by
/// the same copier — the row-major twin of [`fold_into_matrix`], on
/// `mirror`'s ranges. The overlay partitions are bucketed by row first, one
/// counting sort each; then each mirror partition is folded on its own, so
/// the partitions are handed out across `executor`'s lanes. The result does
/// not depend on the lane count.
///
/// # Panics
/// Panics if `overlay` is not refined by `mirror` (same shape, and every
/// mirror range inside one overlay range).
pub fn fold_into_mirror<T: Clone + Send + Sync>(
    mirror: &CsrMirror<T>,
    overlay: &Overlay<T>,
    executor: &Executor,
) -> CsrMirror<T> {
    let ranges = mirror.partitions().iter().map(|p| p.rows);
    overlay.check_refined_by(mirror.nrows(), mirror.ncols(), ranges);
    let parts = mirror.partitions();
    // Each overlay partition bucketed by row once, before the region; a
    // task reads the rows of its own range out of its overlay partition's.
    let buckets = overlay.partitions.iter().zip(&overlay.ranges);
    let buckets: Vec<_> = buckets.map(|(p, &range)| p.by_row(range)).collect();
    let partitions = fold_partitions(parts.len(), executor, |p| {
        let part = &parts[p];
        let q = overlay.partition_of(part.rows.start);
        let at = (part.rows.start - overlay.ranges[q].start) as usize;
        fold_rows(part, &overlay.partitions[q].ops, &buckets[q], at)
    });
    CsrMirror::from_partitions(mirror.nrows(), mirror.ncols(), partitions)
}

/// `fold(p)` for every partition `p < n`, handed out across `executor`'s
/// lanes: the one parallel region of both folds and of both derivations
/// ([`CsrMirror::derive`], [`PartitionedDcsc::derive`]), each task writing
/// only its own partition's slot.
pub(crate) fn fold_partitions<P: Send>(
    n: usize,
    executor: &Executor,
    fold: impl Fn(usize) -> P + Sync,
) -> Vec<P> {
    let mut slots: Vec<Option<P>> = (0..n).map(|_| None).collect();
    let region = DisjointSlice::new(&mut slots, "folded partition");
    executor.for_each_dynamic(n, |p| {
        // SAFETY: task `p` is the only one to carve slot `p`.
        let slot = unsafe { region.range(p, p + 1) };
        slot[0] = Some(fold(p));
    });
    // A region runs each task once, so every slot is filled (and the slots'
    // buffer is reused for the result).
    let filled: Option<Vec<P>> = slots.into_iter().collect();
    filled.unwrap_or_default()
}

/// One mirror partition merged with its rows' edits: every row copied, an
/// edited one merged with its ops by the copier. `by_row` is the overlay
/// partition holding the range bucketed by row, the partition's first row
/// its line `at`, and its values index `ops`.
fn fold_rows<T: Clone>(
    base: &PullPartition<T>,
    ops: &[OverlayOp<T>],
    by_row: &Lines<usize>,
    at: usize,
) -> PullPartition<T> {
    let rows = base.rows;
    let edited = by_row.starts[at + rows.len()] - by_row.starts[at];
    let mut lines = Lines {
        ids: Vec::new(), // every row has its start: no ids
        starts: Vec::with_capacity(rows.len() + 1),
        keys: Vec::with_capacity(base.nnz() + edited),
        values: Vec::with_capacity(base.nnz() + edited),
    };
    lines.starts.push(0);
    for (k, i) in (rows.start..rows.end).zip(at..) {
        let (cols, stored) = base.row(k);
        if by_row.starts[i] == by_row.starts[i + 1] {
            lines.keys.extend_from_slice(cols);
            lines.values.extend_from_slice(stored);
        } else {
            let edits = by_row.line_at(i).map(|(c, &op)| (c, &ops[op]));
            lines.line(cols, stored, edits, upserted);
        }
        lines.starts.push(lines.keys.len());
    }
    PullPartition::from_parts(rows, lines.starts, lines.keys, lines.values)
}

/// Generalized SpMV over `base ⊕ overlay`, writing into a caller-provided
/// output vector: [`fold_into_matrix`] on `executor`'s lanes, then
/// [`gspmv_into`] over the fold — bit-for-bit what the plain kernel
/// produces on a matrix rebuilt from the edited edge list. It folds, and
/// allocates a matrix, on every call. The repo benchmark's overlay probe
/// names it; the engine instead folds once per snapshot and pushes the fold
/// from then on.
///
/// # Panics
/// Panics if `overlay` is not aligned with `base` (shape and row
/// partitioning must match exactly) or `y` has the wrong length.
pub fn gspmv_overlay_into<X, E, Y, M, A>(
    base: &PartitionedDcsc<E>,
    overlay: &Overlay<E>,
    x: &SparseVector<X>,
    multiply: &M,
    add: &A,
    executor: &Executor,
    y: &mut SparseVector<Y>,
) where
    X: Sync,
    E: Clone + Send + Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    let folded = fold_into_matrix(base, overlay, executor);
    gspmv_into(&folded, x, multiply, add, executor, y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::partition::RowPartitioner;
    use crate::spmv::gspmv_csr_pull_into;

    /// The Figure 3 graph of the paper, as `Gᵀ` (row = dst, col = src).
    fn figure3_transpose() -> Vec<(Index, Index, f32)> {
        vec![
            (1, 0, 1.0), // A->B
            (2, 0, 3.0), // A->C
            (3, 0, 2.0), // A->D
            (2, 1, 1.0), // B->C
            (3, 2, 2.0), // C->D
            (4, 3, 2.0), // D->E
            (0, 4, 4.0), // E->A
        ]
    }

    fn build(entries: &[(Index, Index, f32)], ranges: &[RowRange]) -> PartitionedDcsc<f32> {
        let coo = Coo::from_entries(5, 5, entries.to_vec());
        PartitionedDcsc::from_coo(&coo, ranges)
    }

    /// Apply ops to an entry list the way a compaction would, returning the
    /// rebuilt entry set.
    fn apply_ops(
        entries: &[(Index, Index, f32)],
        ops: &[(Index, Index, OverlayOp<f32>)],
    ) -> Vec<(Index, Index, f32)> {
        let mut out: Vec<(Index, Index, f32)> = entries
            .iter()
            .filter(|&&(r, c, _)| !ops.iter().any(|&(or, oc, _)| or == r && oc == c))
            .copied()
            .collect();
        for (r, c, op) in ops {
            if let OverlayOp::Upsert(w) = op {
                out.push((*r, *c, *w));
            }
        }
        out
    }

    fn ranges2() -> Vec<RowRange> {
        vec![RowRange { start: 0, end: 3 }, RowRange { start: 3, end: 5 }]
    }

    fn full_frontier() -> SparseVector<f32> {
        let mut x = SparseVector::new(5);
        for i in 0..5u32 {
            x.set(i, (i + 1) as f32 * 0.5);
        }
        x
    }

    /// `base ⊕ ov` pushed — and pulled over the base's mirror with `ov`
    /// folded in, which must give the same entries.
    fn run_overlay(
        base: &PartitionedDcsc<f32>,
        ov: &Overlay<f32>,
        x: &SparseVector<f32>,
        threads: usize,
    ) -> Vec<(Index, f32)> {
        let multiply = |m: &f32, e: &f32, _: Index| m * e;
        let add = |acc: &mut f32, v: f32| *acc += v;
        let executor = Executor::new(threads);
        let mut y = SparseVector::new(5);
        gspmv_overlay_into(base, ov, x, &multiply, &add, &executor, &mut y);
        let pushed = y.to_entries();
        let mirror = CsrMirror::from_partitioned(base);
        let folded = fold_into_mirror(&mirror, ov, &executor);
        gspmv_csr_pull_into(&folded, x, &multiply, &add, &executor, &mut y);
        assert_eq!(y.to_entries(), pushed, "pull vs push, {threads} threads");
        pushed
    }

    fn run_plain(
        base: &PartitionedDcsc<f32>,
        x: &SparseVector<f32>,
        threads: usize,
    ) -> Vec<(Index, f32)> {
        let mut y = SparseVector::new(5);
        crate::spmv::gspmv_into(
            base,
            x,
            &|m: &f32, e: &f32, _| m * e,
            &|acc: &mut f32, v| *acc += v,
            &Executor::new(threads),
            &mut y,
        );
        y.to_entries()
    }

    #[test]
    fn empty_overlay_matches_plain_kernel() {
        let base = build(&figure3_transpose(), &ranges2());
        let ov: Overlay<f32> = Overlay::from_entries(5, 5, &ranges2(), vec![]);
        assert!(ov.is_empty());
        let x = full_frontier();
        for threads in [1usize, 4] {
            assert_eq!(
                run_overlay(&base, &ov, &x, threads),
                run_plain(&base, &x, threads)
            );
        }
    }

    #[test]
    fn insert_delete_update_match_rebuild() {
        let entries = figure3_transpose();
        let base = build(&entries, &ranges2());
        let ops = vec![
            (2, 1, OverlayOp::Delete),      // delete B->C
            (3, 0, OverlayOp::Upsert(9.0)), // reweight A->D
            (4, 1, OverlayOp::Upsert(7.0)), // insert B->E
            (0, 2, OverlayOp::Upsert(1.5)), // insert C->A (new column entry)
            (1, 3, OverlayOp::Delete),      // delete absent D->B: no-op
        ];
        let ov = Overlay::from_entries(5, 5, &ranges2(), ops.clone());
        assert_eq!(ov.nnz(), 5);
        assert_eq!(ov.n_upserts(), 3);
        let rebuilt = build(&apply_ops(&entries, &ops), &ranges2());
        let x = full_frontier();
        for threads in [1usize, 4] {
            assert_eq!(
                run_overlay(&base, &ov, &x, threads),
                run_plain(&rebuilt, &x, threads),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn ops_mask_all_duplicate_copies() {
        let mut entries = figure3_transpose();
        entries.push((2, 1, 10.0)); // duplicate B->C with a second weight
        entries.push((3, 0, 20.0)); // duplicate A->D
        let base = build(&entries, &ranges2());
        let ops = vec![
            (2, 1, OverlayOp::Delete),      // must remove both copies
            (3, 0, OverlayOp::Upsert(1.0)), // must replace both copies
        ];
        let ov = Overlay::from_entries(5, 5, &ranges2(), ops.clone());
        // The rebuild drops every copy of an edited coordinate.
        let rebuilt = build(&apply_ops(&entries, &ops), &ranges2());
        let x = full_frontier();
        assert_eq!(run_overlay(&base, &ov, &x, 1), run_plain(&rebuilt, &x, 1));
    }

    #[test]
    fn sparse_frontier_skips_missing_columns() {
        let entries = figure3_transpose();
        let base = build(&entries, &ranges2());
        let ops = vec![(4, 1, OverlayOp::Upsert(7.0)), (2, 0, OverlayOp::Delete)];
        let ov = Overlay::from_entries(5, 5, &ranges2(), ops.clone());
        let rebuilt = build(&apply_ops(&entries, &ops), &ranges2());
        let mut x = SparseVector::new(5);
        x.set(1, 2.0); // only source B active
        for threads in [1usize, 4] {
            assert_eq!(
                run_overlay(&base, &ov, &x, threads),
                run_plain(&rebuilt, &x, threads)
            );
        }
    }

    #[test]
    fn random_edits_match_rebuild_bit_for_bit() {
        // f64 values and a sum-reduction: any reduction-order difference vs
        // the rebuilt matrix shows up as a bit difference.
        let n: Index = 97;
        let mut state = 42u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let mut entries: Vec<(Index, Index, f64)> = Vec::new();
        for _ in 0..900 {
            let r = rand() % n;
            let c = rand() % n;
            if !entries.iter().any(|&(er, ec, _)| er == r && ec == c) {
                entries.push((r, c, (rand() % 1000) as f64 / 7.0));
            }
        }
        let counts = {
            let coo = Coo::from_entries(n, n, entries.clone());
            coo.row_counts()
        };
        let ranges = RowPartitioner::balanced_nnz(&counts, 7);
        let coo = Coo::from_entries(n, n, entries.clone());
        let base = PartitionedDcsc::from_coo(&coo, &ranges);

        // ~120 ops: half deletes of existing coordinates, half upserts
        // (mix of reweights and fresh inserts).
        let mut ops: Vec<(Index, Index, OverlayOp<f64>)> = Vec::new();
        for i in 0..120 {
            let (r, c) = if i % 2 == 0 && !entries.is_empty() {
                let e = entries[(rand() as usize) % entries.len()];
                (e.0, e.1)
            } else {
                (rand() % n, rand() % n)
            };
            if ops.iter().any(|&(or, oc, _)| or == r && oc == c) {
                continue;
            }
            let op = if i % 4 == 1 {
                OverlayOp::Delete
            } else {
                OverlayOp::Upsert((rand() % 500) as f64 / 3.0)
            };
            ops.push((r, c, op));
        }
        let ov = Overlay::from_entries(n, n, &ranges, ops.clone());

        let mut rebuilt_entries: Vec<(Index, Index, f64)> = entries
            .iter()
            .filter(|&&(r, c, _)| !ops.iter().any(|&(or, oc, _)| or == r && oc == c))
            .copied()
            .collect();
        for (r, c, op) in &ops {
            if let OverlayOp::Upsert(w) = op {
                rebuilt_entries.push((*r, *c, *w));
            }
        }
        let rebuilt_coo = Coo::from_entries(n, n, rebuilt_entries);
        let rebuilt = PartitionedDcsc::from_coo(&rebuilt_coo, &ranges);

        let mut x: SparseVector<f64> = SparseVector::new(n as usize);
        for i in 0..n {
            if i % 3 != 1 {
                x.set(i, (i as f64 + 0.25) / 3.0);
            }
        }
        let multiply = |m: &f64, e: &f64, k: Index| m * e + k as f64 * 1e-9;
        let add = |acc: &mut f64, v: f64| *acc += v;
        for threads in [1usize, 4] {
            let ex = Executor::new(threads);
            let mut want: SparseVector<f64> = SparseVector::new(n as usize);
            crate::spmv::gspmv_into(&rebuilt, &x, &multiply, &add, &ex, &mut want);
            let mut got: SparseVector<f64> = SparseVector::new(n as usize);
            gspmv_overlay_into(&base, &ov, &x, &multiply, &add, &ex, &mut got);
            let want_bits: Vec<(Index, u64)> = want
                .to_entries()
                .into_iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect();
            let got_bits: Vec<(Index, u64)> = got
                .to_entries()
                .into_iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect();
            assert_eq!(got_bits, want_bits, "{threads} threads");
        }
    }

    #[test]
    fn misaligned_partitions_are_rejected() {
        let base = build(&figure3_transpose(), &ranges2());
        let other = vec![RowRange { start: 0, end: 2 }, RowRange { start: 2, end: 5 }];
        let ov: Overlay<f32> = Overlay::from_entries(5, 5, &other, vec![]);
        let multiply = |m: &f32, e: &f32, _: Index| m * e;
        let add = |acc: &mut f32, v: f32| *acc += v;
        let (x, executor) = (full_frontier(), Executor::sequential());
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pushed = catch_unwind(AssertUnwindSafe(|| {
            let y = &mut SparseVector::new(5);
            gspmv_overlay_into(&base, &ov, &x, &multiply, &add, &executor, y)
        }));
        assert!(pushed.is_err());
        let mirror = CsrMirror::from_partitioned(&base);
        let pull = |ov: &Overlay<f32>| {
            catch_unwind(AssertUnwindSafe(|| {
                let y = &mut SparseVector::new(5);
                let folded = fold_into_mirror(&mirror, ov, &executor);
                gspmv_csr_pull_into(&folded, &x, &multiply, &add, &executor, y)
            }))
        };
        // The mirror's 0..3 straddles the overlay's 0..2 and 2..5.
        assert!(pull(&ov).is_err());
        // A pull accepts an overlay its mirror refines, 0..3 | 3..5 inside
        // 0..5 — but its 3..5 straddles 0..4 and 4..5. A push takes neither.
        let coarse = [RowRange { start: 0, end: 5 }];
        let straddled = [RowRange { start: 0, end: 4 }, RowRange { start: 4, end: 5 }];
        for (ranges, refined) in [(&coarse[..], true), (&straddled[..], false)] {
            let ov: Overlay<f32> = Overlay::from_entries(5, 5, ranges, vec![]);
            assert_eq!(pull(&ov).is_ok(), refined, "{ranges:?}");
            let pushed = catch_unwind(AssertUnwindSafe(|| {
                let y = &mut SparseVector::new(5);
                gspmv_overlay_into(&base, &ov, &x, &multiply, &add, &executor, y)
            }));
            assert!(pushed.is_err(), "{ranges:?}");
        }
    }

    /// Row buckets and the transposition against naive orders, on the
    /// hand-picked edits of the Figure 3 graph and on seeded overlays of
    /// 1×1 up to 64×64, their ranges cut with empty partitions and some
    /// partitions left without edits, some with edits on rows 0 and n − 1.
    /// `by_row` over each overlay range, and over sub-ranges of it (empty,
    /// one row, ending or starting mid-partition), lists the range's entries
    /// in `(row, col)` order; `transposed` is `from_entries` of the flipped
    /// entries, and transposing back gives the overlay again.
    #[test]
    fn row_buckets_and_the_transposition_are_the_naive_orders() {
        type Entry = (Index, Index, OverlayOp<f32>);
        // `nrows`, `ncols`, the overlay's ranges, the transposed one's, entries.
        type Case = (Index, Index, Vec<RowRange>, Vec<RowRange>, Vec<Entry>);
        let mut state = 13u64;
        let mut rand = move |below: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % below.max(1)
        };
        fn ranges_over(n: Index, rand: &mut impl FnMut(u32) -> u32) -> Vec<RowRange> {
            let mut bounds: Vec<Index> = (0..rand(5)).map(|_| rand(n + 1)).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            let ranges = bounds.windows(2);
            ranges
                .map(|w| RowRange {
                    start: w[0],
                    end: w[1],
                })
                .collect()
        }
        let figure3 = vec![
            (2, 1, OverlayOp::Delete),
            (3, 0, OverlayOp::Upsert(9.0)),
            (4, 1, OverlayOp::Upsert(7.0)),
            (0, 2, OverlayOp::Upsert(1.5)),
            (0, 4, OverlayOp::Delete),
        ];
        let other = vec![RowRange { start: 0, end: 1 }, RowRange { start: 1, end: 5 }];
        let mut cases: Vec<Case> = vec![(5, 5, ranges2(), other, figure3)];
        for _ in 0..300 {
            let (nrows, ncols) = (1 + rand(64), 1 + rand(64));
            let (ranges, other) = (ranges_over(nrows, &mut rand), ranges_over(ncols, &mut rand));
            // Rows from `top` up are never edited.
            let top = if rand(2) == 0 { nrows } else { 1 + rand(nrows) };
            let mut coords = std::collections::BTreeSet::new();
            for _ in 0..rand(3 * nrows) {
                coords.insert((rand(top), rand(ncols)));
            }
            if rand(2) == 0 {
                coords.extend([(0, rand(ncols)), (nrows - 1, rand(ncols))]);
            }
            let entries = coords.into_iter().map(|(r, c)| match rand(3) {
                0 => (r, c, OverlayOp::Delete),
                _ => (r, c, OverlayOp::Upsert(rand(100) as f32)),
            });
            cases.push((nrows, ncols, ranges, other, entries.collect()));
        }
        let mut seen = [0usize; 3]; // empty ranges, ranges without edits, rows 0 and n − 1
        for (nrows, ncols, ranges, other, mut entries) in cases {
            let ov = Overlay::from_entries(nrows, ncols, &ranges, entries.clone());
            entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
            for (p, &range) in ov.partitions.iter().zip(&ranges) {
                let a = range.start + rand(range.len() as u32);
                let b = a + rand(range.end - a + 1);
                let (rows, one) = (|start, end| RowRange { start, end }, (a + 1).min(range.end));
                let subs = [
                    rows(a, a),
                    rows(a, one),
                    rows(range.start, a),
                    rows(a, range.end),
                ];
                for sub in [range, rows(a, b)].into_iter().chain(subs) {
                    let lines = p.by_row(sub);
                    assert_eq!((lines.ids.len(), lines.starts.len()), (0, sub.len() + 1));
                    let mut got: Vec<Entry> = Vec::new();
                    for (i, r) in (sub.start..sub.end).enumerate() {
                        got.extend(lines.line_at(i).map(|(c, &op)| (r, c, p.ops[op].clone())));
                    }
                    let want = entries.iter().filter(|e| sub.contains(e.0)).cloned();
                    assert_eq!(
                        got,
                        want.collect::<Vec<_>>(),
                        "{nrows}x{ncols}, rows {sub:?}"
                    );
                }
                seen[0] += usize::from(range.is_empty());
                seen[1] += usize::from(!range.is_empty() && p.rows.is_empty());
            }
            let ends = [0, nrows - 1].map(|r| entries.iter().any(|e| e.0 == r));
            seen[2] += usize::from(nrows > 1 && ends == [true, true]);
            let flipped = entries.into_iter().map(|(r, c, op)| (c, r, op)).collect();
            let transposed = ov.transposed(&other);
            assert_eq!(
                transposed,
                Overlay::from_entries(ncols, nrows, &other, flipped)
            );
            assert_eq!(transposed.transposed(&ranges), ov, "{nrows}x{ncols}");
        }
        assert!(seen.iter().all(|&n| n > 0), "every kind of input: {seen:?}");
    }

    /// Merging batch after batch into an overlay builds what one build of
    /// the final coordinates builds: a held op the batch hits is replaced or removed as `take` says, every other one is kept.
    #[test]
    fn merged_batches_build_what_one_build_of_the_result_builds() {
        let n: Index = 61;
        let ranges = RowPartitioner::even_rows(n, 4);
        let mut state = 7u64;
        let mut rand = move |below: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % below
        };
        let mut want: std::collections::BTreeMap<(Index, Index), OverlayOp<f32>> =
            Default::default();
        let mut ov: Overlay<f32> = Overlay::empty(n, n, &ranges);
        for round in 0..12 {
            let mut batch: std::collections::BTreeMap<(Index, Index), OverlayOp<f32>> =
                Default::default();
            for _ in 0..rand(40) {
                // Few columns, so batches share columns with what is held.
                let (r, c) = (rand(n), rand(9) * 7);
                let op = match rand(3) {
                    0 => OverlayOp::Delete,
                    _ => OverlayOp::Upsert(rand(100) as f32),
                };
                batch.insert((c, r), op);
            }
            // The rule under test: a delete of a held upsert empties the
            // coordinate; anything else takes it.
            let removes = |op: &OverlayOp<f32>, held: Option<&OverlayOp<f32>>| {
                matches!(op, OverlayOp::Delete) && matches!(held, Some(OverlayOp::Upsert(_)))
            };
            let edits: Vec<_> = batch.into_iter().map(|((c, r), op)| (r, c, op)).collect();
            let mut asked = 0usize;
            ov = ov.merged(&edits, |&(r, c, ref op), held| {
                asked += 1;
                assert_eq!(
                    held,
                    want.get(&(r, c)),
                    "round {round}: held op at ({r}, {c})"
                );
                !removes(op, held)
            });
            assert_eq!(asked, edits.len(), "round {round}: take once per edit");
            for (r, c, op) in edits {
                if removes(&op, want.get(&(r, c))) {
                    want.remove(&(r, c));
                } else {
                    want.insert((r, c), op);
                }
            }
            let entries = want
                .iter()
                .map(|(&(r, c), op)| (r, c, op.clone()))
                .collect();
            assert_eq!(
                ov,
                Overlay::from_entries(n, n, &ranges, entries),
                "round {round}"
            );
        }
    }

    #[test]
    fn overlay_reports_sizes() {
        let ov = Overlay::from_entries(
            5,
            5,
            &ranges2(),
            vec![(0, 1, OverlayOp::Upsert(1.0f32)), (4, 2, OverlayOp::Delete)],
        );
        assert_eq!(ov.nnz(), 2);
        assert_eq!(ov.n_upserts(), 1);
        assert_eq!(ov.n_partitions(), 2);
        assert!(!ov.is_empty());
        // Only the column-major side is held: per op its row id and the op,
        // and here each op opens a column, its id and its start.
        let empty: Overlay<f32> = Overlay::from_entries(5, 5, &ranges2(), vec![]);
        let per_op = 2 * std::mem::size_of::<Index>()
            + std::mem::size_of::<OverlayOp<f32>>()
            + std::mem::size_of::<usize>();
        assert_eq!(ov.bytes() - empty.bytes(), 2 * per_op);
        assert_eq!(ov.nrows(), 5);
        assert_eq!(ov.ncols(), 5);
        assert_eq!(ov.ranges().len(), 2);
    }

    /// The line merge against a naive one, on seeded lines: each key stored
    /// 1–4 times, lines of 0–3, 7–9 and 64 entries (so a run or a masked
    /// range straddles the gallop's brackets), and edits before the first
    /// key, between keys, on keys and past the last. The runs and masked
    /// ranges cover every base index once, in order, and each masked range
    /// is exactly its key's copies.
    #[test]
    fn the_line_merge_is_the_naive_merge() {
        let mut state = 31u64;
        let mut rand = move |below: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % below
        };
        let mut seen = [0usize; 4]; // edits before, between, on, past
        for len in [0usize, 1, 2, 3, 7, 8, 9, 64] {
            for _ in 0..300 {
                // Keys from 1 up in steps of 1–3, each stored 1–4 times.
                let (mut base, mut key) = (Vec::<Index>::new(), 1 + rand(3));
                while base.len() < len {
                    let copies = (1 + rand(4) as usize).min(len - base.len());
                    base.extend(std::iter::repeat(key).take(copies));
                    key += 1 + rand(3);
                }
                let top = base.last().map_or(3, |&last| last + 3);
                let edits: Vec<Index> = (0..top).filter(|_| rand(2) == 0).collect();

                let mut pieces = Vec::new();
                merge_line(&base, edits.iter().map(|&k| (k, k)), |run, edit| {
                    pieces.push((run, edit));
                });
                // The naive merge: a linear scan per edit.
                let (mut want, mut at) = (Vec::new(), 0usize);
                for &k in &edits {
                    let upto = base.iter().filter(|&&b| b < k).count();
                    let end = base.iter().filter(|&&b| b <= k).count();
                    want.push((at..upto, Some((k, k, upto..end))));
                    at = end;
                    let kind = match (base.first(), base.last()) {
                        (Some(&first), _) if k < first => 0,
                        (_, Some(&last)) if k > last => 3,
                        _ if upto < end => 2,
                        _ => 1,
                    };
                    seen[kind] += usize::from(!base.is_empty());
                }
                want.push((at..base.len(), None));
                assert_eq!(pieces, want, "base {base:?}, edits {edits:?}");

                let mut covered = 0usize;
                for (run, edit) in &pieces {
                    assert_eq!(run.start, covered, "runs in order, base {base:?}");
                    covered = run.end;
                    if let Some((key, _, masked)) = edit {
                        assert_eq!(masked.start, covered, "masked in order, base {base:?}");
                        covered = masked.end;
                        let copies = base.iter().filter(|&b| b == key).count();
                        assert_eq!(masked.len(), copies, "every copy of {key}, base {base:?}");
                        assert!(base[masked.clone()].iter().all(|b| b == key));
                    }
                }
                assert_eq!(covered, base.len(), "every index once, base {base:?}");
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every kind of edit: {seen:?}");
    }
}
