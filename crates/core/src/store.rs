//! [`GraphStore`]: streaming updates over an immutable base — snapshot
//! publication, delta accumulation, compaction inside the write.
//!
//! The serving layer needs a graph that **mutates without ever blocking a
//! reader**. The store gets there by never mutating anything a reader can
//! see: the graph lives as a published [`GraphSnapshot`] — an immutable
//! topology behind an `Arc`, a base or a base with pending edits — and every
//! write produces a *new* snapshot and atomically swaps the published
//! pointer.
//!
//! # Snapshot isolation semantics
//!
//! * [`GraphStore::snapshot`] hands out the currently published
//!   `Arc<GraphSnapshot>`; a query runs against that `Arc` for its whole
//!   lifetime. In-flight queries keep the snapshot they started with —
//!   nothing a writer does can change, move, or free data a reader is
//!   traversing.
//! * [`GraphStore::apply`] admits one [`DeltaBatch`]: it resolves the batch
//!   alone (latest-wins per pair), merges it into the published overlay
//!   against the *unchanged* base ([`Topology::compile_overlay`]), and
//!   publishes a new snapshot (version + 1) whose topology is the published
//!   base with the new overlay pending. That topology's parent is always the
//!   published base, never the previous snapshot, so snapshots do not chain:
//!   a snapshot nobody holds is freed with its folds.
//!   Queries started after the swap see the batch; queries started before
//!   do not. Writers serialize on an internal mutex; readers never take it.
//! * The store holds the graph **once**, and the pending set once: the
//!   published overlay *is* the pending set, one op per edited pair,
//!   compiled against the published base. A write asks the published
//!   [`Topology`] — the only copy of the edges — about the batch's pairs
//!   only, and costs the batch plus one linear merge of what is pending.
//! * The snapshot **version** counts admitted batches. Compaction changes
//!   the representation, not the content, so it republishes under the
//!   *same* version: two snapshots with equal versions answer every query
//!   bit-for-bit identically.
//!
//! # Compaction
//!
//! Every `apply` copies the pending set once as it merges its batch in, and
//! no kernel reads pending deltas: a snapshot's topology folds them into a
//! copy of its base's DCSC of a side at the first push along that side, and
//! into a copy of its mirror at the first pull (see [`crate::topology`];
//! [`GraphSnapshot::folded_bytes`] says how many bytes the snapshot's folds
//! hold). Those read-side folds are the snapshot's, not the store's: they
//! cost a matrix's or a mirror's bytes each for as long as the snapshot
//! lives, and the next write publishes a new snapshot that folds again when
//! it is first read. Compaction turns those folds into the store's: the
//! store publishes the published snapshot's topology detached from its base
//! ([`Topology::detached`]), with an empty overlay. Its `Gᵀ` layouts are
//! the out-side folds the snapshot's reads made, shared, not copied; only a
//! snapshot that no read has folded has one layout folded then, from the
//! one its base holds — a linear merge per partition, so nothing is
//! re-sorted and no edge list is built. The new base derives the layout it
//! lacks on first use, as any base does, and keeps the old one's build
//! options and row ranges: it is **not** re-balanced to the edited degrees,
//! which is safe because no answer depends on the partitioning. Its `G` is
//! derived on the first `In`/`Both` run; a snapshot's in-side folds are not
//! published.
//!
//! Compaction runs inside a write, under the writer lock: an `apply` that
//! finds the published overlay at [`StoreOptions::compaction_threshold`]
//! effective ops or more compacts the published snapshot — which has had
//! its reads, so its folds exist — before it merges its own batch into the
//! new, empty overlay. So the pending edits never exceed the threshold plus
//! one batch, and no thread runs beside the writers. A compaction that
//! panics publishes nothing: it is counted
//! ([`StoreStats::compaction_failures`]), the write goes ahead against the
//! uncompacted snapshot, and the next write tries again.
//! [`GraphStore::compact_now`] compacts synchronously from any thread.
//!
//! Every layout, once made, stores what a build of the edited graph over the
//! same ranges would, in the same order, however often the history was
//! compacted along the way — and because a run over the snapshot reads
//! those very folds, query results are bit-for-bit identical before and
//! after a compaction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use graphmat_delta::{DeltaBatch, DeltaOverlay};
use graphmat_sparse::Index;

use crate::error::{GraphMatError, Result};
use crate::topology::Topology;

/// Default pending-op count above which the store compacts the delta into a
/// fresh base.
pub const DEFAULT_COMPACTION_THRESHOLD: usize = 4096;

/// Lock the writer mutex, shrugging off poisoning. It guards no data at
/// all — it only serializes writers, whose one mutation is the publish at
/// the *commit point* of `apply`/`compact_locked`. Everything fallible
/// (overlay compilation, a compaction's fold) runs first, against immutable
/// reads of the published snapshot. A panic mid-`apply` therefore leaves the store
/// exactly as it was: the failed batch is gone without trace (exactly-once
/// publication, never torn state), and the next writer proceeds as if the
/// panicked one had never arrived. The store must keep serving reads and
/// accepting writes even if one writer thread panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Read-lock the published-snapshot slot, shrugging off poisoning: the slot
/// holds a single `Arc` pointer, swapped atomically under the write lock —
/// there is no intermediate state a panic could expose.
fn read_published<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Write-lock the published-snapshot slot (see [`read_published`]).
fn write_published<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Tuning knobs for a [`GraphStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// The next write compacts once the published overlay holds this many
    /// effective ops (`usize::MAX` disables automatic compaction;
    /// [`GraphStore::compact_now`] still works).
    pub compaction_threshold: usize,
    /// Has no effect: compaction runs inside the write that finds the
    /// threshold reached (see the [module docs](self)). Kept so that
    /// callers that set it keep compiling.
    pub background: bool,
    /// Reject writes with [`GraphMatError::Overloaded`] while the published
    /// overlay holds at least this many effective pending ops. This is the
    /// ingest-storm relief valve: when compaction cannot keep up, writes
    /// degrade (callers see a typed, retryable rejection) instead of the
    /// overlay — and write cost, and memory — growing without bound.
    /// Reads are never affected. `usize::MAX` disables the watermark.
    pub overload_watermark: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            background: false,
            overload_watermark: usize::MAX,
        }
    }
}

/// One immutable published state of a [`GraphStore`]: a [`Topology`] — the
/// published base, or a topology with the base's pending edits.
///
/// Cheap to clone (one `Arc`); queries hold one for their whole run.
/// `version` counts admitted batches — compaction republishes the same
/// version with `overlay == None`, and both representations answer every
/// query bit-for-bit identically.
#[derive(Clone, Debug)]
pub struct GraphSnapshot<E> {
    version: u64,
    topology: Arc<Topology<E>>,
}

impl<E> GraphSnapshot<E> {
    /// The number of update batches admitted before this snapshot was
    /// published.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The immutable base topology: the published base the pending edits
    /// were compiled against, or the snapshot's topology if none are.
    pub fn base(&self) -> &Arc<Topology<E>> {
        self.topology.base().unwrap_or(&self.topology)
    }

    /// The pending overlay, if this snapshot carries uncompacted edits.
    pub fn overlay(&self) -> Option<&Arc<DeltaOverlay<E>>> {
        self.topology.overlay()
    }

    /// The topology the engine traverses — the base with the pending edits,
    /// if any; pass it to [`crate::session::Session::run`],
    /// [`crate::runner::run_program`] or any algorithm driver.
    pub fn view(&self) -> &Topology<E> {
        &self.topology
    }

    /// Vertex count (updates never change it).
    pub fn num_vertices(&self) -> Index {
        self.topology.num_vertices()
    }

    /// Directed edge count of the edited graph.
    pub fn num_edges(&self) -> usize {
        self.topology.num_edges()
    }

    /// Number of effective pending ops (0 right after a compaction).
    pub fn delta_len(&self) -> usize {
        self.overlay().map_or(0, |o| o.len())
    }

    /// The bytes of the matrices and mirrors this snapshot's pushes and
    /// pulls read instead of its base's: per side, a copy of the base's DCSC
    /// and of its mirror with the pending edits folded in, each made by the
    /// first push or pull along that side (or, for the out side's push
    /// matrix or mirror, by a compaction of a snapshot no read had folded)
    /// and counted apart from
    /// [`DeltaOverlay::bytes`]. The sum over the folds made so far; `None`
    /// until one has been, and always if nothing is pending.
    pub fn folded_bytes(&self) -> Option<usize> {
        self.topology.folded_bytes()
    }
}

/// Counters describing a store's current published state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Published snapshot version (admitted batches).
    pub version: u64,
    /// Directed edge count of the published `(base ⊕ delta)` graph.
    pub num_edges: usize,
    /// Effective pending ops in the published overlay.
    pub delta_edges: usize,
    /// Compactions performed since the store was created.
    pub compactions: u64,
    /// Compaction attempts that panicked (each one left the last published
    /// snapshot serving and the pending edits intact).
    pub compaction_failures: u64,
    /// Always 0: no compaction lane runs beside the writers to restart. Kept
    /// so that readers of the field keep compiling.
    pub compaction_restarts: u64,
}

/// The streaming-update store: an immutable published [`GraphSnapshot`]
/// plus a serialized writer that admits [`DeltaBatch`]es and compacts them
/// into fresh bases. See the [module docs](self) for the isolation and
/// compaction semantics.
pub struct GraphStore<E> {
    published: RwLock<Arc<GraphSnapshot<E>>>,
    /// The lock writers serialize on, so each compiles against the snapshot
    /// it then replaces. Readers never touch it — they only clone the
    /// published `Arc`.
    writer: Mutex<()>,
    options: StoreOptions,
    compactions: AtomicU64,
    compaction_failures: AtomicU64,
}

impl<E> std::fmt::Debug for GraphStore<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = read_published(&self.published);
        f.debug_struct("GraphStore")
            .field("version", &snap.version())
            .field("num_edges", &snap.num_edges())
            .field("delta_edges", &snap.delta_len())
            .field("compactions", &self.compactions.load(Ordering::Relaxed))
            .finish()
    }
}

impl<E: Clone + Send + Sync> GraphStore<E> {
    /// Wrap a base topology as version-0 of a mutable store. The topology is
    /// served exactly as provided — no dedup, no rebuild — so queries against
    /// the store's first snapshot match direct runs on `base` bit-for-bit.
    /// The store starts no thread: writes compact (see the
    /// [module docs](self)).
    pub fn new(base: Arc<Topology<E>>, options: StoreOptions) -> Arc<Self> {
        Arc::new(GraphStore {
            published: RwLock::new(Arc::new(GraphSnapshot {
                version: 0,
                topology: base,
            })),
            writer: Mutex::new(()),
            options,
            compactions: AtomicU64::new(0),
            compaction_failures: AtomicU64::new(0),
        })
    }

    /// Wrap a base with the default options (compaction by the write that
    /// finds [`DEFAULT_COMPACTION_THRESHOLD`] ops pending).
    pub fn with_defaults(base: Arc<Topology<E>>) -> Arc<Self> {
        Self::new(base, StoreOptions::default())
    }

    /// Admit one update batch: publish a new snapshot whose overlay reflects
    /// every batch admitted so far, and return it. If the published overlay
    /// has reached the compaction threshold, it is compacted first, and the
    /// batch is merged into the new base's empty overlay; a compaction that
    /// panics is counted and the batch merged into the uncompacted one.
    ///
    /// # Errors
    ///
    /// [`GraphMatError::InvalidParameter`] when the batch is empty or sized
    /// for a different vertex count than the stored graph;
    /// [`GraphMatError::Overloaded`] when the published overlay sits at or
    /// past [`StoreOptions::overload_watermark`]. A failed `apply` — typed
    /// error or panic — publishes nothing and leaves no trace of the batch
    /// (exactly-once): all fallible work runs before the batch is committed,
    /// and the commit itself is one infallible pointer swap. A compaction
    /// it ran first stays published: it changes no answer.
    pub fn apply(&self, batch: DeltaBatch<E>) -> Result<Arc<GraphSnapshot<E>>> {
        if batch.is_empty() {
            return Err(GraphMatError::InvalidParameter(
                "update batch contains no operations",
            ));
        }
        let writer = lock(&self.writer);
        let mut current = self.snapshot();
        if batch.num_vertices() != current.num_vertices() {
            return Err(GraphMatError::InvalidParameter(
                "update batch vertex count does not match the stored graph",
            ));
        }
        if current.delta_len() >= self.options.compaction_threshold {
            // RECOVERY: a compaction that panics has published nothing — it
            // commits by one pointer swap after its folds — and left the
            // pending edits intact, so it is counted and this write goes
            // ahead against them; the next write tries again. No state is
            // quarantined: the writer mutex guards no data, and the guard is
            // held out here, so the panic does not poison it.
            if catch_unwind(AssertUnwindSafe(|| self.compact_locked(&writer))).is_err() {
                self.compaction_failures.fetch_add(1, Ordering::Relaxed);
            }
            current = self.snapshot();
        }
        let pending_now = current.delta_len();
        if pending_now >= self.options.overload_watermark {
            return Err(GraphMatError::Overloaded {
                pending: pending_now,
                watermark: self.options.overload_watermark,
            });
        }
        if graphmat_chaos::fire("store.apply.admit").is_some() {
            return Err(GraphMatError::Internal("chaos failpoint store.apply.admit"));
        }

        // Merge the batch into a candidate overlay, reading the published
        // one: nothing changes until the commit point below, so a typed
        // error or a panic anywhere in here aborts the batch cleanly.
        let edits = batch.into_resolved();
        if graphmat_chaos::fire("store.overlay.build").is_some() {
            return Err(GraphMatError::Internal(
                "chaos failpoint store.overlay.build",
            ));
        }
        let base = current.base();
        let overlay = base.compile_overlay(current.overlay().map(|o| &**o), &edits);

        let snapshot = Arc::new(GraphSnapshot {
            version: current.version + 1,
            topology: if overlay.is_empty() {
                Arc::clone(base)
            } else {
                Arc::new(Topology::edited(Arc::clone(base), overlay))
            },
        });

        // Commit point. A `panic` action on this failpoint unwinds with the
        // published snapshot untouched — the poisoned-writer regression
        // tests pin down that nothing of the batch survives.
        let _ = graphmat_chaos::fire("store.apply.publish");
        self.publish(Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// Synchronously fold the pending delta into a fresh base and republish
    /// with an empty overlay. Returns `true` if anything was compacted.
    pub fn compact_now(&self) -> bool {
        self.compact_locked(&lock(&self.writer))
    }

    /// Compaction, under the writer lock `_writer` holds.
    fn compact_locked(&self, _writer: &MutexGuard<'_, ()>) -> bool {
        let current = self.snapshot();
        if current.overlay().is_none() {
            // Nothing is pending, or every pending op deletes a pair the
            // base does not store: the base already is the edited graph.
            return false;
        }
        let _ = graphmat_chaos::fire("store.compact");

        // The published topology is the pending set compiled against the
        // published base — both are only written under the lock held here —
        // so it is what gets detached. A fold no read has made, the
        // panic-prone work, changes nothing published, so a failed
        // compaction leaves the pending edits intact for a clean retry.
        let base = Arc::new(current.view().detached());

        // Commit point: an atomic pointer swap.
        // Same version: compaction changes the representation, not the graph.
        self.publish(Arc::new(GraphSnapshot {
            version: current.version,
            topology: base,
        }));
        self.compactions.fetch_add(1, Ordering::Relaxed);
        true
    }
}

impl<E> GraphStore<E> {
    /// The currently published snapshot. Allocation-free (a read-lock and an
    /// `Arc` clone) — this is the steady-state serving read path.
    pub fn snapshot(&self) -> Arc<GraphSnapshot<E>> {
        Arc::clone(&read_published(&self.published))
    }

    /// Counters for the published state (the server's `STATS`/`UPDATE`
    /// replies read these).
    pub fn stats(&self) -> StoreStats {
        let snap = self.snapshot();
        StoreStats {
            version: snap.version(),
            num_edges: snap.num_edges(),
            delta_edges: snap.delta_len(),
            compactions: self.compactions.load(Ordering::Relaxed),
            compaction_failures: self.compaction_failures.load(Ordering::Relaxed),
            compaction_restarts: 0,
        }
    }

    /// Compactions performed since the store was created.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Compaction attempts that panicked (the published snapshot kept
    /// serving through every one of them).
    pub fn compaction_failures(&self) -> u64 {
        self.compaction_failures.load(Ordering::Relaxed)
    }

    fn publish(&self, snapshot: Arc<GraphSnapshot<E>>) {
        *write_published(&self.published) = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::GraphBuildOptions;
    use graphmat_delta::UpdateOp;
    use graphmat_io::edgelist::EdgeList;
    use graphmat_sparse::parallel::Executor;
    use graphmat_sparse::partition::RowPartitioner;

    fn base() -> Arc<Topology<f32>> {
        let el = EdgeList::from_tuples(
            5,
            vec![
                (0, 1, 1.0),
                (0, 2, 3.0),
                (1, 2, 1.0),
                (2, 3, 2.0),
                (3, 4, 2.0),
                (4, 0, 4.0),
            ],
        );
        Arc::new(Topology::from_edge_list(
            &el,
            GraphBuildOptions::default().with_partitions(2),
        ))
    }

    fn inline_store(threshold: usize) -> Arc<GraphStore<f32>> {
        GraphStore::new(
            base(),
            StoreOptions {
                compaction_threshold: threshold,
                overload_watermark: usize::MAX,
                ..StoreOptions::default()
            },
        )
    }

    fn batch(ops: Vec<(Index, Index, UpdateOp<f32>)>) -> DeltaBatch<f32> {
        DeltaBatch::from_ops(5, ops).unwrap()
    }

    #[test]
    fn version_zero_serves_the_base_verbatim() {
        let b = base();
        let store = GraphStore::with_defaults(Arc::clone(&b));
        let snap = store.snapshot();
        assert_eq!(snap.version(), 0);
        assert!(snap.overlay().is_none());
        assert!(Arc::ptr_eq(snap.base(), &b));
        assert_eq!(snap.num_edges(), 6);
    }

    #[test]
    fn apply_publishes_new_snapshot_old_one_stays_frozen() {
        let store = inline_store(usize::MAX);
        let before = store.snapshot();
        let after = store
            .apply(batch(vec![
                (0, 3, UpdateOp::Insert(9.0)),
                (4, 0, UpdateOp::Delete),
            ]))
            .unwrap();
        assert_eq!(after.version(), 1);
        assert_eq!(after.num_edges(), 6); // +1 −1
        assert_eq!(after.delta_len(), 2);
        // The old snapshot is untouched: same base, no overlay.
        assert_eq!(before.version(), 0);
        assert_eq!(before.num_edges(), 6);
        assert!(before.overlay().is_none());
        assert!(Arc::ptr_eq(before.base(), after.base()));
        // Degrees through the new view reflect the edits.
        assert_eq!(after.view().out_degrees(), &[3, 1, 1, 1, 0]);
    }

    #[test]
    fn empty_and_mismatched_batches_are_rejected_without_publishing() {
        let store = inline_store(usize::MAX);
        let err = store
            .apply(DeltaBatch::new(5))
            .expect_err("empty batch must be rejected");
        assert!(matches!(err, GraphMatError::InvalidParameter(_)));
        let err = store
            .apply(DeltaBatch::from_ops(9, vec![(7, 8, UpdateOp::Insert(1.0))]).unwrap())
            .expect_err("mismatched vertex count must be rejected");
        assert!(matches!(err, GraphMatError::InvalidParameter(_)));
        assert_eq!(store.snapshot().version(), 0);
    }

    /// The write that reaches the threshold only publishes; the next write
    /// finds it reached, compacts, and merges its own batch into the new
    /// base's empty overlay.
    #[test]
    fn threshold_triggers_inline_compaction() {
        let store = inline_store(2);
        let s1 = store
            .apply(batch(vec![(1, 3, UpdateOp::Insert(7.0))]))
            .unwrap();
        assert_eq!(s1.delta_len(), 1);
        let s2 = store
            .apply(batch(vec![(2, 0, UpdateOp::Insert(8.0))]))
            .unwrap();
        assert_eq!((s2.delta_len(), store.compactions()), (2, 0));
        // Read as a query would: the compaction publishes this fold.
        let fold = Arc::clone(s2.view().out_side().pull(&Executor::sequential()));
        let s3 = store
            .apply(batch(vec![(3, 0, UpdateOp::Insert(9.0))]))
            .unwrap();
        assert_eq!(store.compactions(), 1);
        assert_eq!((s3.version(), s3.delta_len(), s3.num_edges()), (3, 1, 9));
        let compacted = s3.base();
        assert!(!Arc::ptr_eq(compacted, s2.base()));
        assert_eq!(compacted.num_edges(), 8);
        // The compacted base keeps the original build shape and holds the
        // fold the read made, and no other layout.
        assert_eq!(compacted.num_partitions(), 2);
        let side = compacted.out_side();
        assert!(Arc::ptr_eq(side.made_mirror().unwrap(), &fold));
        assert!(side.made_matrix().is_none());
        assert_eq!(compacted.out_degrees(), &[2, 2, 2, 1, 1]);
        assert_eq!(s3.view().out_degrees(), &[2, 2, 2, 2, 1]);
    }

    #[test]
    fn compaction_rebuilds_with_the_bases_own_build_options() {
        // Every edge lands on vertex 0, so nnz-balanced ranges would close
        // after row 0 and stop at two partitions; even rows give four.
        let el = EdgeList::from_tuples(5, (1..5).map(|v| (v, 0, 1.0)).collect());
        let even = RowPartitioner::even_rows(5, 4);
        assert_ne!(even, RowPartitioner::balanced_nnz(&el.in_degrees(), 4));
        let options = GraphBuildOptions::default()
            .with_partitions(4)
            .with_balancing(false);
        let store = GraphStore::new(
            Arc::new(Topology::from_edge_list(&el, options)),
            StoreOptions {
                ..StoreOptions::default()
            },
        );
        store
            .apply(batch(vec![(0, 1, UpdateOp::Insert(1.0))]))
            .unwrap();
        assert!(store.compact_now());
        let snap = store.snapshot();
        assert!(snap.overlay().is_none());
        assert_eq!(snap.base().out_partition_ranges(), even);
        assert_eq!(snap.base().in_partition_ranges().unwrap(), even);
        let mirror = snap.base().out_pull_mirror().unwrap();
        let mirror_ranges: Vec<_> = mirror.partitions().iter().map(|p| p.rows).collect();
        assert_eq!(mirror_ranges, even);
    }

    #[test]
    fn compaction_preserves_content_and_version() {
        let store = inline_store(usize::MAX);
        store
            .apply(batch(vec![
                (0, 1, UpdateOp::Insert(5.5)),
                (3, 4, UpdateOp::Delete),
                (4, 2, UpdateOp::Insert(1.25)),
            ]))
            .unwrap();
        let overlaid = store.snapshot();
        assert!(store.compact_now());
        assert!(!store.compact_now(), "second compaction has nothing to do");
        let compacted = store.snapshot();
        assert_eq!(compacted.version(), overlaid.version());
        assert!(compacted.overlay().is_none());
        assert_eq!(compacted.num_edges(), overlaid.num_edges());
        assert_eq!(
            compacted.base().out_degrees(),
            overlaid.view().out_degrees()
        );
        assert_eq!(compacted.base().in_degrees(), overlaid.view().in_degrees());
        // Stats reflect the compaction.
        let stats = store.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.delta_edges, 0);
    }

    #[test]
    fn repeated_compactions_are_byte_identical() {
        // Same history through different compaction points must converge to
        // the same edge list.
        let edits = [
            vec![(0, 3, UpdateOp::Insert(9.0)), (0, 1, UpdateOp::Delete)],
            vec![(0, 3, UpdateOp::Insert(2.0)), (2, 2, UpdateOp::Insert(1.0))],
            vec![(4, 0, UpdateOp::Delete), (1, 2, UpdateOp::Insert(6.0))],
        ];
        let every_batch = inline_store(1); // the next apply compacts each
        let only_at_end = inline_store(usize::MAX);
        for ops in &edits {
            every_batch.apply(batch(ops.clone())).unwrap();
            only_at_end.apply(batch(ops.clone())).unwrap();
        }
        every_batch.compact_now();
        only_at_end.compact_now();
        assert_eq!(every_batch.compactions(), edits.len() as u64);
        let a = every_batch.snapshot().base().to_edge_list();
        let b = only_at_end.snapshot().base().to_edge_list();
        assert_eq!(a.edges().len(), b.edges().len());
        for (x, y) in a.edges().iter().zip(b.edges()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
            assert_eq!(x.2.to_bits(), y.2.to_bits());
        }
    }

    /// Regression: both bounds compare *effective* pending ops, so a client
    /// rewriting the same pair never reached either — while the writer's
    /// log kept every raw op, and every later resolve sorted all of them.
    /// The pending set is the published overlay: one op per pair.
    #[test]
    fn a_hot_pair_does_not_grow_the_log() {
        let store = inline_store(usize::MAX);
        for i in 0..1000 {
            store
                .apply(batch(vec![(0, 3, UpdateOp::Insert(i as f32))]))
                .unwrap();
        }
        let snap = store.snapshot();
        assert_eq!((snap.version(), snap.delta_len()), (1000, 1));
        assert_eq!(snap.overlay().map(|o| o.out().nnz()), Some(1));
        assert!(store.compact_now());
        let edges = store.snapshot().base().to_edge_list();
        assert!(edges.edges().contains(&(0, 3, 999.0)));
    }

    /// Regression: deletes of absent pairs compile to no overlay but stayed
    /// in the log, so the next compaction rebuilt all of an unchanged base.
    #[test]
    fn a_batch_of_noop_deletes_is_not_compacted() {
        let store = inline_store(usize::MAX);
        let before = store.snapshot();
        let after = store.apply(batch(vec![(3, 1, UpdateOp::Delete)])).unwrap();
        assert_eq!(after.version(), 1);
        assert!(after.overlay().is_none());
        assert!(!store.compact_now());
        let after = store.snapshot();
        assert!(Arc::ptr_eq(before.base(), after.base()));
        assert_eq!((after.version(), store.compactions()), (1, 0));
        // A real edit afterwards applies and compacts as usual.
        store
            .apply(batch(vec![(3, 1, UpdateOp::Insert(2.5))]))
            .unwrap();
        assert!(store.compact_now());
        let snap = store.snapshot();
        assert_eq!((snap.version(), store.compactions()), (2, 1));
        assert_eq!(snap.base().edge_multiplicity(3, 1), 1);
        assert_eq!(snap.num_edges(), 7);
    }

    /// A batch that undoes every pending op — deletes of the pairs the last
    /// batch inserted, none of which the base stores — leaves no overlay.
    #[test]
    fn a_batch_cancelling_every_pending_op_publishes_no_overlay() {
        let store = inline_store(usize::MAX);
        let inserted = store
            .apply(batch(vec![
                (0, 3, UpdateOp::Insert(9.0)),
                (1, 4, UpdateOp::Insert(2.0)),
            ]))
            .unwrap();
        assert_eq!((inserted.delta_len(), inserted.num_edges()), (2, 8));
        let cancelled = store
            .apply(batch(vec![
                (1, 4, UpdateOp::Delete),
                (0, 3, UpdateOp::Delete),
            ]))
            .unwrap();
        assert_eq!((cancelled.version(), cancelled.num_edges()), (2, 6));
        assert!(cancelled.overlay().is_none());
        assert!(!store.compact_now());
    }

    #[test]
    fn overload_watermark_rejects_writes_but_not_reads() {
        let store = GraphStore::new(
            base(),
            StoreOptions {
                compaction_threshold: usize::MAX,
                overload_watermark: 2,
                ..StoreOptions::default()
            },
        );
        store
            .apply(batch(vec![
                (0, 3, UpdateOp::Insert(9.0)),
                (1, 4, UpdateOp::Insert(2.0)),
            ]))
            .unwrap();
        // Published overlay now holds 2 pending ops == watermark: writes shed.
        let err = store
            .apply(batch(vec![(2, 0, UpdateOp::Insert(1.0))]))
            .expect_err("write past the watermark must be rejected");
        assert_eq!(
            err,
            GraphMatError::Overloaded {
                pending: 2,
                watermark: 2
            }
        );
        // Reads keep serving the last published snapshot, untouched.
        let snap = store.snapshot();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.delta_len(), 2);
        // Draining the backlog (compaction) re-opens the write path.
        assert!(store.compact_now());
        store
            .apply(batch(vec![(2, 0, UpdateOp::Insert(1.0))]))
            .expect("writes succeed again after compaction drains the backlog");
        assert_eq!(store.snapshot().version(), 2);
    }

    /// Regression (PR-10 satellite): a writer that panics mid-`apply` used
    /// to poison the admission mutex and wedge every future writer. The
    /// store recovers the poison (the guarded data is only mutated at the
    /// commit point, so it is never torn) and the next writer proceeds.
    #[test]
    fn second_writer_succeeds_after_first_panicked_mid_apply() {
        let store = inline_store(usize::MAX);
        let poisoner = Arc::clone(&store);
        let handle = std::thread::spawn(move || {
            // Panic while holding the writer mutex — the exact lock a
            // panicking `apply` dies holding.
            let _guard = poisoner.writer.lock().unwrap();
            panic!("simulated writer panic mid-apply");
        });
        assert!(handle.join().is_err(), "poisoner thread must panic");
        assert!(store.writer.is_poisoned(), "writer mutex must be poisoned");
        // A second writer recovers the poison and commits normally.
        let snap = store
            .apply(batch(vec![(0, 3, UpdateOp::Insert(9.0))]))
            .expect("writer must survive a predecessor's panic");
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.delta_len(), 1);
        // And reads never noticed.
        assert_eq!(store.snapshot().view().out_degrees(), &[3, 1, 1, 1, 1]);
    }
}
