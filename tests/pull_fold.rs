//! Pending edits are read from folds: the first pull along a side of a
//! snapshot's pending edits folds them into a copy of the base's mirror of
//! that side, the first push into a copy of its push matrix, once each, and
//! every pull or push along it reads that fold through the one pull or push
//! kernel. None of that may change an answer.
//!
//! Every `Out` case runs over one store's base and one pending snapshot, on a
//! clone of that snapshot's topology either fresh or folded before the run,
//! and asserts
//! from the run's trajectory which fold state it actually exercised: never
//! pulled, folded at the first superstep, folded mid-run, or folded before —
//! and that the push fold exists after the run exactly if it pushed. The
//! `In` and `Both` cases fold the in side the same way.

use graphmat::prelude::*;
use graphmat_io::rng::StdRng;
use std::collections::BTreeMap;
use std::sync::Arc;

const SEED: u64 = 0xF01D;

/// A symmetrized RMAT graph with one stored copy per pair, weighted.
fn graph() -> EdgeList {
    let mut el = graphmat::io::rmat::generate(&RmatConfig::graph500(11).with_seed(SEED));
    el.dedup();
    let mut sym = el.symmetrized();
    sym.dedup();
    sym
}

/// What a batch leaves of each pair it edits: latest wins, `None` deletes.
type Net = BTreeMap<(u32, u32), Option<f32>>;

/// Seeded edits: deletes and reweights of stored pairs, fresh inserts, and
/// edges into the highest vertex id. Returns the batch and what it leaves.
fn edits(el: &EdgeList) -> (DeltaBatch<f32>, Net) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let n = el.num_vertices();
    let stored = el.edges();
    let mut batch = DeltaBatch::new(n);
    let mut net = BTreeMap::new();
    for i in 0..60u32 {
        let (s, d, _) = stored[rng.gen_range(0..stored.len())];
        let (s, d) = match i % 4 {
            0 | 1 => (s, d),
            2 => (s, rng.gen_range(0..n)),
            _ => (rng.gen_range(0..n), n - 1),
        };
        if i % 3 == 0 {
            batch.delete(s, d).unwrap();
            net.insert((s, d), None);
        } else {
            let w = rng.gen_range(1u32..10) as f32;
            batch.insert(s, d, w).unwrap();
            net.insert((s, d), Some(w));
        }
    }
    (batch, net)
}

/// `el` with the net edits applied, as a list to build from scratch.
fn edited(el: &EdgeList, net: &Net) -> EdgeList {
    let mut tuples: Vec<_> = el
        .edges()
        .iter()
        .filter(|(s, d, _)| !net.contains_key(&(*s, *d)))
        .copied()
        .collect();
    tuples.extend(net.iter().filter_map(|(&(s, d), w)| w.map(|w| (s, d, w))));
    EdgeList::from_tuples(el.num_vertices(), tuples)
}

#[derive(Clone, Copy, Debug)]
enum Algo {
    PageRank,
    Bfs,
    Sssp,
    Components,
}

const ALGOS: [Algo; 4] = [Algo::PageRank, Algo::Bfs, Algo::Sssp, Algo::Components];

/// The answer's bits, the superstep the run first pulled at, if any, and
/// whether it pushed.
type Run = (Vec<u64>, Option<usize>, bool);

fn run(session: &Session, view: &Topology<f32>, algo: Algo) -> Run {
    fn out<T>(o: AlgorithmOutput<T>, bits: impl Fn(&T) -> u64) -> Run {
        let steps = &o.stats.supersteps;
        assert_eq!(steps.len(), o.stats.iterations, "supersteps recorded");
        let first_pull = steps.iter().position(|s| s.backend == Backend::Pull);
        let pushed = steps.iter().any(|s| s.backend == Backend::Push);
        (o.values.iter().map(bits).collect(), first_pull, pushed)
    }
    let cfg = PageRankConfig {
        iterations: 6,
        ..Default::default()
    };
    match algo {
        Algo::PageRank => out(pagerank_on(session, view, &cfg).unwrap(), |r| r.to_bits()),
        Algo::Bfs => out(bfs_on(session, view, 0).unwrap(), |&d| u64::from(d)),
        Algo::Sssp => out(sssp_on(session, view, 0).unwrap(), |d| {
            u64::from(d.to_bits())
        }),
        Algo::Components => out(connected_components_on(session, view).unwrap(), |&c| {
            u64::from(c)
        }),
    }
}

fn session(lanes: usize, backend: Option<Backend>) -> Session {
    let options = SessionOptions::default()
        .with_threads(lanes)
        .with_run_defaults(RunOptions::default().with_backend(backend));
    Session::new(options).unwrap()
}

/// A base, one store's snapshot with pending edits over it, the store's
/// compaction of it, and the edited graph rebuilt from scratch.
struct Fixture {
    base: Arc<Topology<f32>>,
    pending: Arc<GraphSnapshot<f32>>,
    compacted: Arc<Topology<f32>>,
    rebuilt: Arc<Topology<f32>>,
}

fn fixture() -> Fixture {
    let el = graph();
    let (batch, net) = edits(&el);
    let builder = session(2, None);
    let base = builder.build_graph(&el).finish().unwrap();
    let store = || {
        let options = StoreOptions {
            compaction_threshold: usize::MAX,
            ..StoreOptions::default()
        };
        GraphStore::new(Arc::clone(&base), options)
    };
    // Two stores take the same batch: one keeps it pending, the other
    // compacts it — which folds that store's snapshot's out side.
    let pending = store().apply(batch).unwrap();
    let compacting = store();
    compacting.apply(edits(&el).0).unwrap();
    assert!(compacting.compact_now());
    let compacted = Arc::clone(compacting.snapshot().base());
    let rebuilt = builder.build_graph(&edited(&el, &net)).finish().unwrap();
    Fixture {
        base,
        pending,
        compacted,
        rebuilt,
    }
}

impl Fixture {
    /// The pending snapshot's topology: the base with the edits pending.
    fn edited(&self) -> &Topology<f32> {
        assert!(self.pending.overlay().is_some(), "the edits are pending");
        self.pending.view()
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum State {
    /// Fresh, and the run never pulled: nothing folded.
    Unpulled,
    /// Fresh, and the run's first superstep pulled: it folded, and every
    /// pull read the fold.
    FoldedAtStart,
    /// Fresh, and the run pushed before it first pulled: that pull folded,
    /// mid-run.
    FoldedMidRun,
    /// Folded before the run: every pull read the fold.
    FoldedBefore,
}

/// The selector, forced pulls, forced pushes.
const BACKENDS: [Option<Backend>; 3] = [None, Some(Backend::Pull), Some(Backend::Push)];

const STATES: [State; 4] = [
    State::Unpulled,
    State::FoldedAtStart,
    State::FoldedMidRun,
    State::FoldedBefore,
];

#[test]
fn every_fold_state_answers_like_the_compacted_base_and_a_rebuild() {
    let f = fixture();
    let mut exercised = Vec::new();
    for lanes in [1, 2] {
        for backend in BACKENDS {
            let session = session(lanes, backend);
            for algo in ALGOS {
                let ctx = format!("{algo:?}, {backend:?}, {lanes} lanes");
                let (want, ..) = run(&session, &f.compacted, algo);
                assert_eq!(run(&session, &f.rebuilt, algo).0, want, "{ctx}");
                for folded_before in [false, true] {
                    let ctx = format!("{ctx}, folded before: {folded_before}");
                    // A clone of the store's snapshot topology, unfolded.
                    let pending = f.edited().clone();
                    assert!(pending.out_side().made_mirror().is_none(), "{ctx}");
                    if folded_before {
                        pending.out_pull_mirror();
                    }
                    let (got, first_pull, pushed) = run(&session, &pending, algo);
                    assert_eq!(got, want, "{ctx}");
                    // The push fold exists after the run exactly if it pushed.
                    let push_fold = pending.out_side().made_matrix().is_some();
                    assert_eq!(push_fold, pushed, "{ctx}");
                    // Which state the run was in: a fresh snapshot is folded
                    // after the run exactly if the run pulled.
                    let folded = pending.out_side().made_mirror().is_some();
                    let seen = match (folded_before, first_pull) {
                        (true, _) => State::FoldedBefore,
                        (false, None) => State::Unpulled,
                        (false, Some(0)) => State::FoldedAtStart,
                        (false, Some(_)) => State::FoldedMidRun,
                    };
                    assert_eq!(folded, seen != State::Unpulled, "{ctx}: {seen:?}");
                    exercised.push((lanes, backend, algo, seen, pushed));
                }
            }
        }
    }
    // Forced pulls fold the mirror at the first superstep of every algorithm
    // and never push, forced pushes never fold it and always push, and the
    // selector pushes first and folds the mirror mid-run at least once.
    for lanes in [1, 2] {
        for backend in BACKENDS {
            let count = |state| {
                exercised
                    .iter()
                    .filter(|&&(l, b, _, s, _)| (l, b, s) == (lanes, backend, state))
                    .count()
            };
            let pushes = exercised
                .iter()
                .filter(|&&(l, b, _, _, pushed)| (l, b) == (lanes, backend) && pushed)
                .count();
            let ctx = format!("{backend:?}, {lanes} lanes");
            // Runs that pushed, out of two per algorithm (fresh, folded).
            match backend {
                Some(Backend::Pull) => assert_eq!(pushes, 0, "{ctx}"),
                Some(Backend::Push) => assert_eq!(pushes, 2 * ALGOS.len(), "{ctx}"),
                None => assert!(pushes >= 1, "{ctx}"),
            }
            assert_eq!(count(State::FoldedBefore), ALGOS.len(), "{ctx}");
            match backend {
                Some(Backend::Pull) => {
                    assert_eq!(count(State::FoldedAtStart), ALGOS.len(), "{ctx}")
                }
                Some(Backend::Push) => assert_eq!(count(State::Unpulled), ALGOS.len(), "{ctx}"),
                None => assert!(count(State::FoldedMidRun) >= 1, "{ctx}"),
            }
        }
    }
    for state in STATES {
        assert!(
            exercised.iter().any(|c| c.3 == state),
            "{state:?} never seen"
        );
    }
}

#[test]
fn concurrent_first_pulls_fold_once() {
    let f = fixture();
    let session = session(2, None);
    let (want, ..) = run(&session, &f.compacted, Algo::PageRank);
    assert_eq!(f.pending.folded_bytes(), None);
    let start = std::sync::Barrier::new(2);
    let folds: Vec<usize> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (f, session, start, want) = (&f, &session, &start, &want);
                s.spawn(move || {
                    start.wait();
                    let (got, first_pull, _) = run(session, f.pending.view(), Algo::PageRank);
                    assert_eq!(&got, want);
                    assert_eq!(first_pull, Some(0));
                    Arc::as_ptr(f.edited().out_side().made_mirror().unwrap()) as usize
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(folds[0], folds[1], "two folds");
    let mirror = f.edited().out_side().made_mirror().unwrap();
    assert_eq!(f.pending.folded_bytes(), Some(mirror.bytes()));
    assert_eq!(**mirror, *f.compacted.out_pull_mirror().unwrap());
}

/// Two runs pulling a fresh base at once derive one mirror: the first
/// pull's derivation, which the other waits for and reads.
#[test]
fn concurrent_first_pulls_of_a_fresh_base_derive_once() {
    let el = graph();
    let session = session(2, None);
    let base = session.build_graph(&el).finish().unwrap();
    let reference = session.build_graph(&el).finish().unwrap();
    let (want, ..) = run(&session, &reference, Algo::PageRank);
    assert!(base.out_side().made_mirror().is_none());
    assert_eq!(base.pull_bytes(), 0);
    let start = std::sync::Barrier::new(2);
    let derived: Vec<usize> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (base, session, start, want) = (&base, &session, &start, &want);
                s.spawn(move || {
                    start.wait();
                    let (got, first_pull, _) = run(session, base, Algo::PageRank);
                    assert_eq!(&got, want);
                    assert_eq!(first_pull, Some(0));
                    Arc::as_ptr(base.out_side().made_mirror().unwrap()) as usize
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(derived[0], derived[1], "two derivations");
    let mirror = base.out_side().made_mirror().unwrap();
    assert_eq!(base.pull_bytes(), mirror.bytes());
    assert_eq!(**mirror, *reference.out_pull_mirror().unwrap());
}

#[test]
fn concurrent_first_pushes_fold_once() {
    let f = fixture();
    let session = session(2, Some(Backend::Push));
    let (want, ..) = run(&session, &f.compacted, Algo::Bfs);
    assert_eq!(f.pending.folded_bytes(), None);
    let start = std::sync::Barrier::new(2);
    let folds: Vec<usize> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (f, session, start, want) = (&f, &session, &start, &want);
                s.spawn(move || {
                    start.wait();
                    let (got, first_pull, pushed) = run(session, f.pending.view(), Algo::Bfs);
                    assert_eq!(&got, want);
                    assert_eq!((first_pull, pushed), (None, true));
                    Arc::as_ptr(f.edited().out_side().made_matrix().unwrap()) as usize
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(folds[0], folds[1], "two folds");
    let side = f.edited().out_side();
    let matrix = side.made_matrix().unwrap();
    assert!(side.made_mirror().is_none(), "a push folded the mirror");
    assert_eq!(f.pending.folded_bytes(), Some(matrix.bytes()));
    assert!(**matrix == *f.compacted.out_matrix());
}

#[test]
fn compaction_publishes_the_fold_a_snapshot_already_made() {
    let f = fixture();
    let unfolded = f.edited().clone();
    let folded = f.edited().clone();
    let mirror = folded.out_pull_mirror().unwrap();
    let matrix = folded.out_matrix();
    let from_scratch = unfolded.detached();
    let reused = folded.detached();
    // A compaction of an unfolded snapshot makes one fold — of the push
    // matrix, the layout its base holds — and leaves it with the snapshot
    // for its own pushes; it folds no mirror and derives none.
    let kept = unfolded.out_side().made_matrix().unwrap();
    let published = from_scratch.out_side().made_matrix().unwrap();
    assert!(Arc::ptr_eq(published, kept));
    assert!(unfolded.out_side().made_mirror().is_none());
    assert!(from_scratch.out_side().made_mirror().is_none());
    // What the fold writes: the out side's matrix, mirror and degrees —
    // every layout, once made (a mirror derived from a fold included),
    // byte-identical.
    for topology in [&reused, &*f.compacted] {
        assert_eq!(topology.out_matrix(), from_scratch.out_matrix());
        assert_eq!(topology.out_pull_mirror(), from_scratch.out_pull_mirror());
        assert_eq!(topology.out_degrees(), from_scratch.out_degrees());
        assert_eq!(topology.in_degrees(), from_scratch.in_degrees());
        assert_eq!(topology.num_edges(), from_scratch.num_edges());
    }
    // Shared, not copied.
    let published = reused.out_pull_mirror().unwrap();
    assert!(std::ptr::eq(published, mirror));
    assert!(!std::ptr::eq(
        from_scratch.out_pull_mirror().unwrap(),
        published
    ));
    assert!(std::ptr::eq(reused.out_matrix(), matrix));
    assert!(!std::ptr::eq(from_scratch.out_matrix(), matrix));
}

/// A store over `base` that compacts only when asked.
fn manual_store(base: &Arc<Topology<f32>>) -> Arc<GraphStore<f32>> {
    let options = StoreOptions {
        compaction_threshold: usize::MAX,
        ..StoreOptions::default()
    };
    GraphStore::new(Arc::clone(base), options)
}

/// A store over `base` whose pending edits — the seeded batch — were read
/// by one PageRank on `backend` (or not at all), then compacted; and the
/// snapshot that held them.
fn compacted_after(
    base: &Arc<Topology<f32>>,
    backend: Option<Backend>,
) -> (Arc<GraphStore<f32>>, Arc<GraphSnapshot<f32>>) {
    let store = manual_store(base);
    let snapshot = store.apply(edits(&graph()).0).unwrap();
    if backend.is_some() {
        run(&session(2, backend), snapshot.view(), Algo::PageRank);
    }
    assert!(store.compact_now());
    (store, snapshot)
}

/// Compaction publishes the out-side folds the snapshot's reads made and no
/// others: a snapshot only pulled compacts to a base holding only its
/// mirror fold, one only pushed to a base holding only its push fold, and
/// an unread one over a never-pulled base makes one fold — of the push
/// matrix its base holds — and no mirror on either base.
#[test]
fn compaction_publishes_only_the_folds_reads_made() {
    let base = session(2, None).build_graph(&graph()).finish().unwrap();
    // Unread first, before anything has pulled the base.
    for backend in [None, Some(Backend::Pull), Some(Backend::Push)] {
        let (store, snapshot) = compacted_after(&base, backend);
        let compacted = store.snapshot();
        let sides = [snapshot.view().out_side(), compacted.base().out_side()];
        let matrices = sides.map(|s| s.made_matrix().map(|m| Arc::as_ptr(m) as usize));
        let mirrors = sides.map(|s| s.made_mirror().map(|m| Arc::as_ptr(m) as usize));
        let (folded, absent) = match backend {
            Some(Backend::Pull) => (mirrors, matrices),
            _ => (matrices, mirrors),
        };
        assert!(folded[0].is_some(), "{backend:?}: no fold");
        assert_eq!(
            folded[0], folded[1],
            "{backend:?}: the fold was not published"
        );
        assert_eq!(absent, [None, None], "{backend:?}: a second layout");
        if backend.is_none() {
            assert!(
                base.out_side().made_mirror().is_none(),
                "a mirror was derived"
            );
        }
    }
}

/// Writes over a base that holds only a mirror compile the overlay that
/// writes over a twin holding only a push matrix compile, and make neither
/// base's missing layout; runs over both snapshots — which derive it — and
/// over both bases answer like rebuilds, bit for bit.
#[test]
fn writes_over_either_layout_compile_alike_and_answer_like_a_rebuild() {
    let el = graph();
    let n = el.num_vertices();
    let builder = session(2, None);
    let base = builder.build_graph(&el).finish().unwrap();
    let (mirror_only, _) = compacted_after(&base, Some(Backend::Pull));
    let (matrix_only, _) = compacted_after(&base, Some(Backend::Push));
    let (_, first) = edits(&el);
    // The reverse of every edited pair, and deletes of every 41st edge.
    let (mut batch, mut net) = (DeltaBatch::new(n), first.clone());
    for &(s, d) in first.keys() {
        batch.insert(d, s, 7.5).unwrap();
        net.insert((d, s), Some(7.5));
    }
    for &(s, d, _) in el.edges().iter().step_by(41) {
        batch.delete(s, d).unwrap();
        net.insert((s, d), None);
    }
    let m = mirror_only.apply(batch.clone()).unwrap();
    let p = matrix_only.apply(batch).unwrap();
    let (mo, po) = (m.overlay().unwrap(), p.overlay().unwrap());
    assert_eq!(mo.out(), po.out());
    assert_eq!(mo.out_degrees(), po.out_degrees());
    assert_eq!(mo.in_degrees(), po.in_degrees());
    assert_eq!(m.num_edges(), p.num_edges());
    assert!(
        m.base().out_side().made_matrix().is_none(),
        "a write derived"
    );
    assert!(
        p.base().out_side().made_mirror().is_none(),
        "a write derived"
    );

    let rebuilt_first = builder.build_graph(&edited(&el, &first)).finish().unwrap();
    let rebuilt = builder.build_graph(&edited(&el, &net)).finish().unwrap();
    for backend in BACKENDS {
        let session = session(2, backend);
        for algo in ALGOS {
            let ctx = format!("{algo:?}, {backend:?}");
            let want = run(&session, &rebuilt, algo).0;
            assert_eq!(run(&session, m.view(), algo).0, want, "{ctx}: mirror-only");
            assert_eq!(run(&session, p.view(), algo).0, want, "{ctx}: matrix-only");
            let want = run(&session, &rebuilt_first, algo).0;
            assert_eq!(
                run(&session, m.base(), algo).0,
                want,
                "{ctx}: mirror-only base"
            );
            assert_eq!(
                run(&session, p.base(), algo).0,
                want,
                "{ctx}: matrix-only base"
            );
        }
    }
    // What the runs derived is what a build over the same ranges stores.
    let (m, p) = (m.base(), p.base());
    assert!(**m.out_side().made_matrix().unwrap() == *p.out_matrix());
    assert!(**p.out_side().made_mirror().unwrap() == *m.out_pull_mirror().unwrap());
}

/// A `Both` program over weighted edges: every vertex sums what its in- and
/// out-neighbours send, times the edge weight, in floating point — so an
/// edit missed on either side, or a product summed out of order, shows in
/// the bits.
struct Spread;

impl GraphProgram for Spread {
    type VertexProp = f64;
    type Message = f64;
    type Reduced = f64;
    type Edge = f32;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Both
    }

    fn send_message(&self, _v: VertexId, x: &f64) -> Option<f64> {
        Some(*x)
    }

    fn process_message(&self, msg: &f64, w: &f32, _dst: &f64) -> f64 {
        msg * f64::from(*w)
    }

    fn reduce(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }

    fn apply(&self, reduced: &f64, x: &mut f64) {
        *x = 0.5 + reduced / 64.0;
    }
}

#[derive(Clone, Copy, Debug)]
enum InAlgo {
    /// `out_degrees_on`: one `In` leg.
    OutDegrees,
    /// [`Spread`]: the out leg, then the in leg.
    Spread,
}

/// The answer's bits, whether the run pulled and whether it pushed.
fn run_in(session: &Session, view: &Topology<f32>, algo: InAlgo) -> (Vec<u64>, bool, bool) {
    let (values, stats) = match algo {
        InAlgo::OutDegrees => {
            let o = out_degrees_on(session, view).unwrap();
            (o.values, o.stats)
        }
        InAlgo::Spread => {
            let init = |v: VertexId| 1.0 + f64::from(v).sqrt();
            let o = session
                .run(view, Spread)
                .init_with(&init)
                .activate_all()
                .activity(ActivityPolicy::AlwaysAll)
                .max_iterations(3)
                .execute()
                .unwrap();
            (o.values.iter().map(|x| x.to_bits()).collect(), o.stats)
        }
    };
    let pushed = stats.pull_supersteps < stats.iterations;
    (values, stats.pull_supersteps > 0, pushed)
}

#[test]
fn in_and_both_pulls_read_the_in_fold_and_answer_like_the_compacted_base_and_a_rebuild() {
    let f = fixture();
    for lanes in [1, 2] {
        for backend in BACKENDS {
            let session = session(lanes, backend);
            for algo in [InAlgo::OutDegrees, InAlgo::Spread] {
                let ctx = format!("{algo:?}, {backend:?}, {lanes} lanes");
                let (want, ..) = run_in(&session, &f.compacted, algo);
                assert_eq!(run_in(&session, &f.rebuilt, algo).0, want, "{ctx}");
                // A clone of the store's snapshot topology, unfolded on either
                // side.
                let pending = f.edited().clone();
                let (got, pulled, pushed) = run_in(&session, &pending, algo);
                assert_eq!(got, want, "{ctx}");
                assert_eq!(pulled, backend != Some(Backend::Push), "{ctx}");
                let in_fold = pending.in_side().unwrap().made_mirror();
                let out_fold = pending.out_side().made_mirror();
                // A pull folds the in side; only a `Both` pull the out side
                // too. A push folds neither.
                assert_eq!(in_fold.is_some(), pulled, "{ctx}");
                let both = matches!(algo, InAlgo::Spread);
                assert_eq!(out_fold.is_some(), pulled && both, "{ctx}");
                // And pushes fold the push matrices alike: the in side's is
                // what the compacted base's `G` stores.
                let in_push = pending.in_side().unwrap().made_matrix();
                let out_push = pending.out_side().made_matrix();
                assert_eq!(in_push.is_some(), pushed, "{ctx}");
                assert_eq!(out_push.is_some(), pushed && both, "{ctx}");
                if let Some(in_push) = in_push {
                    let derived = f.compacted.in_matrix();
                    assert!(**in_push == *derived, "{ctx}: the compacted base's G");
                }
                if let Some(in_fold) = in_fold {
                    // What a compaction's `G` stores (`assert!`: the
                    // mirrors are too large to print).
                    let base = f.base.in_pull_mirror();
                    assert!(**in_fold != *base, "{ctx}: the edits change G");
                    let derived = f.compacted.in_pull_mirror();
                    assert!(**in_fold == *derived, "{ctx}: the compacted base's G");
                    // The second run reads the same fold.
                    let first = Arc::as_ptr(in_fold);
                    assert_eq!(run_in(&session, &pending, algo).0, want, "{ctx}");
                    let again = pending.in_side().unwrap().made_mirror().unwrap();
                    assert_eq!(Arc::as_ptr(again), first, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn concurrent_first_in_pulls_fold_once_and_the_snapshot_counts_both_folds() {
    let f = fixture();
    let session = session(2, Some(Backend::Pull));
    let (want, ..) = run_in(&session, &f.compacted, InAlgo::OutDegrees);
    // An `Out` pull first: the snapshot holds the out fold alone.
    run(&session, f.pending.view(), Algo::PageRank);
    let out_only = f.pending.folded_bytes().unwrap();
    let out_fold = f.edited().out_side().made_mirror().unwrap();
    assert_eq!(out_only, out_fold.bytes());
    let start = std::sync::Barrier::new(2);
    let folds: Vec<usize> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (f, session, start, want) = (&f, &session, &start, &want);
                s.spawn(move || {
                    start.wait();
                    let (got, pulled, _) = run_in(session, f.pending.view(), InAlgo::OutDegrees);
                    assert_eq!(&got, want);
                    assert!(pulled);
                    let side = f.edited().in_side().unwrap();
                    Arc::as_ptr(side.made_mirror().unwrap()) as usize
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(folds[0], folds[1], "two in folds");
    let in_fold = f.edited().in_side().unwrap().made_mirror().unwrap();
    let both = f.pending.folded_bytes().unwrap();
    assert!(
        both > out_only,
        "{both} bytes after the in fold, {out_only} before"
    );
    assert_eq!(both, out_only + in_fold.bytes());
}

/// A run's answer bits and, per superstep, its backend and the edges its
/// messages traverse.
type Traced = (Vec<u64>, Vec<(Backend, u64)>);

fn traced<T>(o: AlgorithmOutput<T>, bits: impl Fn(&T) -> u64) -> Traced {
    let steps = o.stats.supersteps.iter();
    let steps = steps.map(|s| (s.backend, s.edges_processed)).collect();
    (o.values.iter().map(bits).collect(), steps)
}

/// PageRank, in-degrees (`Out`), out-degrees (`In`) and BFS.
fn covered_runs(session: &Session, view: &Topology<f32>) -> [Traced; 4] {
    let cfg = PageRankConfig {
        iterations: 6,
        ..Default::default()
    };
    [
        traced(pagerank_on(session, view, &cfg).unwrap(), |r| r.to_bits()),
        traced(in_degrees_on(session, view).unwrap(), |&d| d),
        traced(out_degrees_on(session, view).unwrap(), |&d| d),
        traced(bfs_on(session, view, 0).unwrap(), |&d| u64::from(d)),
    ]
}

/// A pull whose every stored source sent reads the message values without
/// probing them (`edges_processed == edge_total`). That rule leans on the
/// merged degrees and edge count describing the fold being pulled, so it is
/// run over snapshots whose senders change: a vertex whose last out-edge is
/// deleted stops sending, a vertex that was isolated starts, and an upsert
/// replaces a parallel pair. Every answer must be the forced push's and the
/// rebuild's, bit for bit; PageRank and the degree counts must pull every
/// superstep with every stored edge traversed (the covered path ran), and
/// BFS must pull some supersteps that are not covered.
#[test]
fn covered_pulls_over_snapshots_answer_like_forced_push_and_a_rebuild() {
    let el = graph();
    let n = el.num_vertices();
    let (mut out, mut inward) = (vec![0u32; n as usize], vec![0u32; n as usize]);
    for &(s, d, _) in el.edges() {
        out[s as usize] += 1;
        inward[d as usize] += 1;
    }
    let lone = (0..n)
        .find(|&v| out[v as usize] == 1)
        .expect("a vertex of out-degree 1");
    let &(_, lone_dst, _) = el.edges().iter().find(|e| e.0 == lone).unwrap();
    let isolated = (0..n)
        .find(|&v| out[v as usize] == 0 && inward[v as usize] == 0)
        .expect("an isolated vertex");
    // A parallel pair: one stored edge stored twice.
    let &(ps, pd, pw) = el
        .edges()
        .iter()
        .find(|e| e.0 != lone && e.1 != lone)
        .unwrap();
    let mut tuples = el.edges().to_vec();
    tuples.push((ps, pd, pw + 1.0));
    let el = EdgeList::from_tuples(n, tuples);

    let builder = session(2, None);
    let base = builder.build_graph(&el).finish().unwrap();
    assert_eq!(base.edge_multiplicity(ps, pd), 2);
    let options = StoreOptions {
        compaction_threshold: usize::MAX,
        ..StoreOptions::default()
    };
    let store = GraphStore::new(Arc::clone(&base), options);
    let mut net = Net::new();
    let mut views = vec![("base", Arc::clone(&base), None)];
    for (label, (s, d, w)) in [
        ("stops sending", (lone, lone_dst, None)),
        ("starts sending", (isolated, 0, Some(2.0))),
        ("upsert on a parallel pair", (ps, pd, Some(7.0))),
    ] {
        let mut batch = DeltaBatch::new(n);
        match w {
            Some(w) => batch.insert(s, d, w).unwrap(),
            None => batch.delete(s, d).unwrap(),
        }
        net.insert((s, d), w);
        let snapshot = store.apply(batch).unwrap();
        let rebuilt = builder.build_graph(&edited(&el, &net)).finish().unwrap();
        views.push((label, rebuilt, Some(snapshot)));
    }
    let snapshot = views[1].2.as_ref().unwrap();
    assert_eq!(snapshot.view().out_degrees()[lone as usize], 0);
    let snapshot = views[2].2.as_ref().unwrap();
    assert_eq!(snapshot.view().out_degrees()[isolated as usize], 1);

    for lanes in [1, 2] {
        let (auto, push) = (session(lanes, None), session(lanes, Some(Backend::Push)));
        for (label, rebuilt, snapshot) in &views {
            let view = snapshot.as_ref().map_or(&*base, |s| s.view());
            let edges = view.num_edges() as u64;
            let ctx = format!("{label}, {lanes} lanes");
            let got = covered_runs(&auto, view);
            let pushed = covered_runs(&push, view);
            let want = covered_runs(&auto, rebuilt);
            for (algo, ((got, pushed), want)) in got.iter().zip(&pushed).zip(&want).enumerate() {
                assert_eq!(got.0, pushed.0, "{ctx}, run {algo} against forced push");
                assert_eq!(got.0, want.0, "{ctx}, run {algo} against the rebuild");
                assert_eq!(got.1, want.1, "{ctx}, run {algo}: the rebuild's trajectory");
            }
            let [pagerank, in_degrees, out_degrees, bfs] = got;
            for (name, run) in [
                ("PageRank", pagerank),
                ("in-degrees", in_degrees),
                ("out-degrees", out_degrees),
            ] {
                assert!(!run.1.is_empty(), "{ctx}, {name}");
                for step in run.1 {
                    assert_eq!(step, (Backend::Pull, edges), "{ctx}, {name}: covered");
                }
            }
            let pulls: Vec<_> = bfs.1.iter().filter(|s| s.0 == Backend::Pull).collect();
            assert!(!pulls.is_empty(), "{ctx}: BFS pulls");
            assert!(pulls.iter().all(|s| s.1 < edges), "{ctx}: BFS {pulls:?}");
        }
    }
}

/// Snapshots do not chain: every write publishes the published base with
/// the whole pending set, never the previous snapshot with one more batch.
/// So every snapshot's base is the version-0 base, and a snapshot nobody
/// holds any more is freed with the folds its reads made.
#[test]
fn snapshots_do_not_chain_and_a_dropped_snapshot_frees_its_folds() {
    let el = graph();
    let n = el.num_vertices();
    let session = session(2, None);
    let base = session.build_graph(&el).finish().unwrap();
    let options = StoreOptions {
        compaction_threshold: usize::MAX,
        ..StoreOptions::default()
    };
    let store = GraphStore::new(Arc::clone(&base), options);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut fold = None;
    for write in 0..64 {
        let mut batch = DeltaBatch::new(n);
        let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
        batch.insert(s, d, 1.0 + write as f32).unwrap();
        let snapshot = store.apply(batch).unwrap();
        assert!(snapshot.overlay().is_some(), "write {write}");
        assert!(Arc::ptr_eq(snapshot.base(), &base), "write {write}");
        if write == 8 {
            let (_, first_pull, _) = run(&session, snapshot.view(), Algo::PageRank);
            assert_eq!(first_pull, Some(0));
            let mirror = snapshot.view().out_side().made_mirror().unwrap();
            fold = Some(Arc::downgrade(mirror));
        }
    }
    assert!(Arc::ptr_eq(store.snapshot().base(), &base));
    let fold = fold.unwrap();
    assert!(
        fold.upgrade().is_none(),
        "a dropped snapshot's fold is alive"
    );
}
