//! Chaos tests for the [`GraphStore`] write path: injected faults at every
//! store failpoint must leave the published snapshot serving, the pending
//! log consistent (exactly-once admission), and the compaction lane alive —
//! and a fault inside a snapshot's fold must leave the fold for the next
//! reader to make.
//!
//! Lives in its own integration-test binary because armed failpoints are
//! process-global: the lib test binary must never run with failpoints armed
//! under its feet. Each test serializes on [`registry_guard`] and resets the
//! registry before arming its own points.
#![cfg(feature = "chaos")]

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use graphmat_core::topology::GraphBuildOptions;
use graphmat_core::{
    ActivityPolicy, GraphMatError, GraphProgram, GraphStore, Session, StoreOptions, Topology,
    VertexId,
};
use graphmat_delta::{DeltaBatch, UpdateOp};
use graphmat_io::edgelist::EdgeList;
use graphmat_sparse::Index;

fn registry_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

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

fn store(threshold: usize, background: bool) -> Arc<GraphStore<f32>> {
    GraphStore::new(
        base(),
        StoreOptions {
            compaction_threshold: threshold,
            background,
            overload_watermark: usize::MAX,
        },
    )
}

fn batch(ops: Vec<(Index, Index, UpdateOp<f32>)>) -> DeltaBatch<f32> {
    DeltaBatch::from_ops(5, ops).unwrap()
}

/// A panic injected at the commit point must abort the batch without trace:
/// nothing published, nothing logged — and the *same* batch, retried,
/// applies exactly once.
#[test]
fn publish_panic_aborts_the_batch_exactly_once() {
    let _g = registry_guard();
    graphmat_chaos::reset();
    graphmat_chaos::configure("store.apply.publish", "panic@n1").unwrap();

    let store = store(usize::MAX, false);
    let ops = vec![
        (0u32, 3u32, UpdateOp::Insert(9.0)),
        (4, 0, UpdateOp::Delete),
    ];

    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        store.apply(batch(ops.clone()))
    }));
    assert!(panicked.is_err(), "injected panic must unwind out of apply");
    let snap = store.snapshot();
    assert_eq!(snap.version(), 0, "failed apply must publish nothing");
    assert_eq!(snap.delta_len(), 0);

    // Retry commits exactly once: the panicked attempt left no half-admitted
    // ops for this one to double-fold.
    let snap = store
        .apply(batch(ops))
        .expect("store must accept writes after a panicked apply");
    assert_eq!(snap.version(), 1);
    assert_eq!(snap.delta_len(), 2);
    assert_eq!(snap.view().out_degrees(), &[3, 1, 1, 1, 0]);
    graphmat_chaos::reset();
}

/// Injected admission/overlay errors are typed, side-effect-free rejections.
#[test]
fn injected_apply_errors_reject_cleanly() {
    let _g = registry_guard();
    graphmat_chaos::reset();
    let store = store(usize::MAX, false);

    for point in ["store.apply.admit", "store.overlay.build"] {
        graphmat_chaos::configure(point, "error").unwrap();
        let err = store
            .apply(batch(vec![(1, 3, UpdateOp::Insert(7.0))]))
            .expect_err("armed failpoint must fail the apply");
        assert!(
            matches!(err, GraphMatError::Internal(site) if site.contains(point)),
            "{point}: got {err:?}"
        );
        assert_eq!(store.snapshot().version(), 0);
        graphmat_chaos::configure(point, "off").unwrap();
    }

    // Disarmed, the identical batch goes through.
    let snap = store
        .apply(batch(vec![(1, 3, UpdateOp::Insert(7.0))]))
        .unwrap();
    assert_eq!(snap.version(), 1);
    graphmat_chaos::reset();
}

/// A panicking background compaction leaves the overlaid snapshot serving
/// and the lane restarts (with backoff) to finish the job.
#[test]
fn background_compaction_panic_self_heals() {
    let _g = registry_guard();
    graphmat_chaos::reset();
    graphmat_chaos::configure("store.compact", "panic@n1").unwrap();

    let store = store(1, true);
    let snap = store
        .apply(batch(vec![(1, 4, UpdateOp::Insert(3.0))]))
        .unwrap();
    assert_eq!(snap.delta_len(), 1);

    // First compaction attempt panics; the lane must back off and retry.
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.compactions() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        // Reads keep serving the whole time.
        assert_eq!(store.snapshot().version(), 1);
    }
    assert_eq!(store.compactions(), 1, "retry must eventually compact");
    assert_eq!(store.compaction_failures(), 1);
    assert_eq!(store.compaction_restarts(), 1);

    let snap = store.snapshot();
    assert_eq!(snap.version(), 1);
    assert!(snap.overlay().is_none(), "backlog must be drained");
    assert_eq!(snap.num_edges(), 7);
    graphmat_chaos::reset();
    drop(store); // lane must join cleanly after having panicked once
}

/// Inline compaction panic unwinds to the caller, but the batch it rode on
/// is already committed and the store remains fully usable.
#[test]
fn inline_compaction_panic_leaves_store_usable() {
    let _g = registry_guard();
    graphmat_chaos::reset();
    graphmat_chaos::configure("store.compact", "panic@n1").unwrap();

    let store = store(1, false);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        store.apply(batch(vec![(1, 4, UpdateOp::Insert(3.0))]))
    }));
    assert!(panicked.is_err(), "inline compaction panic must propagate");

    // The apply itself committed before compaction ran.
    let snap = store.snapshot();
    assert_eq!(snap.version(), 1);
    assert_eq!(snap.delta_len(), 1);

    // Failpoint consumed: a manual retry compacts the surviving backlog.
    assert!(store.compact_now());
    let snap = store.snapshot();
    assert_eq!(snap.version(), 1);
    assert!(snap.overlay().is_none());
    assert_eq!(snap.num_edges(), 7);
    graphmat_chaos::reset();
}

/// PageRank over `f32` edges: a vertex sends its rank over its out-degree,
/// and its new rank is `0.15 + 0.85 ×` what it received.
struct PageRank<'a> {
    out_degrees: &'a [u32],
}

impl GraphProgram for PageRank<'_> {
    type VertexProp = f64;
    type Message = f64;
    type Reduced = f64;
    type Edge = f32;

    fn send_message(&self, v: VertexId, rank: &f64) -> Option<f64> {
        let degree = self.out_degrees[v as usize];
        (degree > 0).then(|| rank / f64::from(degree))
    }

    fn process_message(&self, msg: &f64, _edge: &f32, _dst: &f64) -> f64 {
        *msg
    }

    fn reduce(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }

    fn apply(&self, sum: &f64, rank: &mut f64) {
        *rank = 0.15 + 0.85 * sum;
    }
}

/// All-active PageRank over `topology`, at most ten supersteps and every one
/// a pull, as the bits of the ranks.
fn pagerank(session: &Session, topology: &Topology<f32>) -> Vec<u64> {
    let program = PageRank {
        out_degrees: topology.out_degrees(),
    };
    let outcome = session
        .run(topology, program)
        .init_all(1.0)
        .activate_all()
        .activity(ActivityPolicy::AlwaysAll)
        .max_iterations(10)
        .execute()
        .unwrap();
    assert!(outcome.stats.iterations > 0);
    assert_eq!(outcome.stats.pull_supersteps, outcome.stats.iterations);
    outcome.values.iter().map(|r| r.to_bits()).collect()
}

/// A fault inside a fold: a panic as a fresh snapshot's first pull starts
/// to fold its mirror unwinds out of that run and leaves the snapshot
/// holding no fold. The next run folds, once, and ranks like a rebuild of
/// the edited graph, bit for bit.
#[test]
fn a_panic_inside_a_fold_leaves_it_to_the_next_reader() {
    let _g = registry_guard();
    graphmat_chaos::reset();
    graphmat_chaos::configure("topology.fold", "panic@n1").unwrap();

    let store = store(usize::MAX, false);
    let ops = vec![
        (0u32, 3u32, UpdateOp::Insert(9.0)),
        (4, 0, UpdateOp::Delete),
    ];
    let snapshot = store.apply(batch(ops)).unwrap();
    let session = Session::with_threads(2).unwrap();

    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pagerank(&session, snapshot.view())
    }));
    assert!(
        panicked.is_err(),
        "the injected panic must unwind out of the run"
    );
    assert_eq!(snapshot.folded_bytes(), None);

    let ranks = pagerank(&session, snapshot.view());
    assert_eq!(
        graphmat_chaos::hits("topology.fold"),
        2,
        "one fold after the failed one"
    );
    let folded = snapshot.view().out_side();
    assert!(
        folded.made_matrix().is_none(),
        "a pull folded the push matrix"
    );
    let mirror = folded
        .made_mirror()
        .expect("the second run folded the mirror");
    assert_eq!(snapshot.folded_bytes(), Some(mirror.bytes()));

    let edited = EdgeList::from_tuples(
        5,
        vec![
            (0, 1, 1.0),
            (0, 2, 3.0),
            (0, 3, 9.0),
            (1, 2, 1.0),
            (2, 3, 2.0),
            (3, 4, 2.0),
        ],
    );
    let rebuilt =
        Topology::from_edge_list(&edited, GraphBuildOptions::default().with_partitions(2));
    assert_eq!(ranks, pagerank(&session, &rebuilt));
    graphmat_chaos::reset();
}
