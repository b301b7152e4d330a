//! Convergence-driven ("delta") PageRank — an extension beyond the paper's
//! fixed-iteration PageRank.
//!
//! The paper times PageRank per iteration with every vertex active. Many
//! deployments instead run to a tolerance, propagating only the *change* in
//! rank each superstep so that converged regions of the graph drop out of the
//! computation. Writing the rank update in incremental form,
//!
//! ```text
//! rank_{t+1}(v) − rank_t(v) = (1 − r) Σ_{u→v} Δ_t(u) / degree(u)
//! ```
//!
//! the message becomes `Δ(u)/degree(u)`, APPLY adds the damped sum to the
//! rank, and a vertex whose increment falls below the tolerance goes inactive
//! — GraphMat's active-set machinery implements the frontier shrinkage with
//! no engine change (Algorithm 2 lines 12–13). Initialising
//! `rank_0 = Δ_0 = r` makes the recurrence exact from the first superstep.
//!
//! **Boundary-case semantics.** A vertex with no in-edges ends at `rank = r`,
//! which is what the paper's equation 1 prescribes. The fixed-iteration
//! [`crate::pagerank`] program instead leaves such vertices at their initial
//! rank of 1.0, because Algorithm 2 only APPLYs to vertices that received a
//! message — that is faithful to the original GraphMat implementation. On
//! graphs where every vertex has an in-edge the two programs converge to the
//! same values; on graphs with source vertices their results differ by design
//! (and the difference propagates downstream).

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::store::{GraphSnapshot, GraphStore};
use graphmat_core::{
    EdgeDirection, GraphProgram, RunResult, Session, Topology, VertexId, VertexState,
};
use graphmat_delta::DeltaBatch;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Delta-PageRank parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeltaPageRankConfig {
    /// Random-surf probability `r`.
    pub random_surf: f64,
    /// Convergence tolerance: a vertex whose rank increment is smaller than
    /// this stops broadcasting.
    pub tolerance: f64,
    /// Hard iteration cap (safety net).
    pub max_iterations: usize,
}

impl Default for DeltaPageRankConfig {
    fn default() -> Self {
        DeltaPageRankConfig {
            random_surf: 0.15,
            tolerance: 1e-7,
            max_iterations: 500,
        }
    }
}

/// Per-vertex delta-PageRank state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeltaPrVertex {
    /// Current rank estimate.
    pub rank: f64,
    /// Increment applied in the last superstep (what gets broadcast next).
    pub delta: f64,
    /// Out-degree, cached for SEND_MESSAGE.
    pub degree: u32,
}

/// Run PageRank over a pre-built graph through a [`Session`] until every
/// vertex's rank increment falls below the tolerance:
/// [`delta_pagerank_into`] on a fresh state.
///
/// The returned ranks satisfy the same fixed-point equation as
/// [`crate::pagerank::pagerank_on`]; they differ from a truncated
/// fixed-iteration run only by the tolerance. Over a view with pending
/// edits — typically `snapshot.view()` from a [`GraphStore`] snapshot — the
/// out-degrees the program divides by are the **edited** graph's, so
/// results are bit-for-bit identical to a run against a topology rebuilt
/// from the edited edge list. A `config.max_iterations` of `0` returns the
/// initial ranks without running.
pub fn delta_pagerank_on<E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: &Topology<E>,
    config: &DeltaPageRankConfig,
) -> Result<AlgorithmOutput<f64>> {
    crate::run_fresh(
        view,
        |state| delta_pagerank_into(session, view, config, None, state),
        |p| p.rank,
    )
}

/// Run delta-PageRank into a caller-owned (pooled) state — the serving hot
/// path.
///
/// Zero per-query allocation in the steady state: the final
/// [`DeltaPrVertex`] properties are left in `state` (read ranks with
/// `state.properties()[v].rank`) and the engine workspace cached inside the
/// state is recycled. All parameter validation is typed — a bad tolerance is
/// [`graphmat_core::GraphMatError::InvalidParameter`], never a panic.
/// `deadline`, when given, bounds wall-clock time.
pub fn delta_pagerank_into<E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: &Topology<E>,
    config: &DeltaPageRankConfig,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<DeltaPrVertex>,
) -> Result<RunResult> {
    validate_tolerance(config.tolerance)?;
    let degrees = view.out_degrees();
    let r = config.random_surf;
    let initial = |v: VertexId| DeltaPrVertex {
        rank: r,
        delta: r,
        degree: degrees[v as usize],
    };
    if config.max_iterations == 0 {
        state.check_matches(view)?;
        state.init_properties(initial);
        return Ok(crate::zero_superstep_result(view, session));
    }
    let program = StreamingRestartProgram::<E> {
        random_surf: config.random_surf,
        tolerance: config.tolerance,
        restart: AtomicBool::new(false),
        _edge: std::marker::PhantomData,
    };
    session
        .run(view, program)
        .init_with(&initial)
        .activate_all()
        // The whole point of the delta formulation is a shrinking
        // changed-only frontier; pin it against session defaults.
        .activity(graphmat_core::ActivityPolicy::Changed)
        .max_iterations(config.max_iterations)
        .deadline(deadline)
        .execute_with(state)
}

/// NaN must be rejected alongside non-positive values — a NaN tolerance
/// would make every `increment.abs() >= tolerance` false and return a bogus
/// "converged" result.
fn validate_tolerance(tolerance: f64) -> Result<()> {
    if tolerance.is_nan() || tolerance <= 0.0 {
        return Err(graphmat_core::GraphMatError::InvalidParameter(
            "delta-PageRank tolerance must be positive",
        ));
    }
    Ok(())
}

/// The delta-PageRank program. With `restart` cleared every superstep is
/// the ordinary delta recurrence — what [`delta_pagerank_into`] runs. With
/// it set — what [`StreamingPageRank`] runs after a topology change —
/// superstep 0 first re-evaluates every vertex's rank under the **new**
/// graph (each vertex broadcasts `rank/degree`, APPLY computes
/// `new = r + (1 − r)·Σ` and records the residual `new − rank` as the
/// delta). The phase flip happens at the superstep barrier
/// (`on_superstep_end`), so SEND and APPLY of one superstep always agree on
/// the phase.
struct StreamingRestartProgram<E> {
    random_surf: f64,
    tolerance: f64,
    restart: AtomicBool,
    _edge: std::marker::PhantomData<E>,
}

impl<E: Clone + Send + Sync> GraphProgram for StreamingRestartProgram<E> {
    type VertexProp = DeltaPrVertex;
    type Message = f64;
    type Reduced = f64;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, prop: &DeltaPrVertex) -> Option<f64> {
        let value = if self.restart.load(Ordering::Relaxed) {
            prop.rank
        } else {
            prop.delta
        };
        if prop.degree == 0 || value == 0.0 {
            None
        } else {
            Some(value / prop.degree as f64)
        }
    }

    fn process_message(&self, msg: &f64, _edge: &E, _dst: &DeltaPrVertex) -> f64 {
        *msg
    }

    fn reduce(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }

    fn apply(&self, reduced: &f64, prop: &mut DeltaPrVertex) {
        if self.restart.load(Ordering::Relaxed) {
            let new_rank = self.random_surf + (1.0 - self.random_surf) * reduced;
            let residual = new_rank - prop.rank;
            if residual.abs() >= self.tolerance {
                prop.rank = new_rank;
                prop.delta = residual;
            }
        } else {
            let increment = (1.0 - self.random_surf) * reduced;
            if increment.abs() >= self.tolerance {
                prop.rank += increment;
                prop.delta = increment;
            }
        }
    }

    fn on_superstep_end(&self, iteration: usize, _changed: usize) {
        if iteration == 0 {
            self.restart.store(false, Ordering::Relaxed);
        }
    }
}

/// PageRank maintained incrementally across a stream of real
/// [`DeltaBatch`]es — the GraFS-style "keep the result live while the graph
/// mutates" workload, built on [`GraphStore`] snapshots.
///
/// The first [`StreamingPageRank::refresh`] runs full delta-PageRank
/// ([`delta_pagerank_on`]). Each later refresh **repairs** the previous
/// ranks instead of recomputing: one restart superstep re-evaluates every
/// vertex under the new snapshot and seeds the delta recurrence with the
/// per-vertex residual, so only the region the edits perturbed (above
/// `tolerance`) re-converges — the shrinking-frontier property that makes
/// delta-PageRank cheap carries over to topology changes.
///
/// Ranks agree with a from-scratch [`delta_pagerank_on`] run on the same
/// snapshot to within tolerance-scale differences (both satisfy the same
/// fixed-point equation; iteration *paths* differ). Vertices whose last
/// in-edge was deleted are reset to `r`, matching the from-scratch
/// boundary-case semantics documented at the module level.
///
/// ```
/// # use graphmat_algorithms::delta_pagerank::{StreamingPageRank, DeltaPageRankConfig};
/// # use graphmat_core::store::GraphStore;
/// # use graphmat_core::Session;
/// # use graphmat_delta::{DeltaBatch, UpdateOp};
/// # use graphmat_io::edgelist::EdgeList;
/// let session = Session::sequential();
/// let edges = EdgeList::from_tuples(3, vec![(0, 1, 1.0f32), (1, 2, 1.0), (2, 0, 1.0)]);
/// let topo = session.build_graph(&edges).finish().unwrap();
/// let store = GraphStore::with_defaults(topo);
///
/// let mut pr = StreamingPageRank::new(DeltaPageRankConfig::default()).unwrap();
/// pr.refresh(&session, &store.snapshot()).unwrap(); // full run
///
/// let mut batch = DeltaBatch::new(3);
/// batch.insert(0, 2, 1.0).unwrap();
/// pr.ingest(&session, &store, batch).unwrap(); // apply + incremental repair
/// assert_eq!(pr.ranks().len(), 3);
/// ```
pub struct StreamingPageRank {
    config: DeltaPageRankConfig,
    ranks: Vec<f64>,
    version: u64,
    initialized: bool,
}

impl StreamingPageRank {
    /// Create a maintainer with the given parameters (validated — a bad
    /// tolerance is a typed error, not a panic).
    pub fn new(config: DeltaPageRankConfig) -> Result<Self> {
        validate_tolerance(config.tolerance)?;
        Ok(StreamingPageRank {
            config,
            ranks: Vec::new(),
            version: 0,
            initialized: false,
        })
    }

    /// The maintained per-vertex ranks (empty before the first refresh).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// The snapshot version the ranks were last computed against.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bring the ranks up to date with `snapshot`: a full run the first
    /// time, an incremental residual-restart repair afterwards.
    pub fn refresh<E: Clone + Send + Sync + 'static>(
        &mut self,
        session: &Session,
        snapshot: &GraphSnapshot<E>,
    ) -> Result<graphmat_core::RunResult> {
        let view = snapshot.view();
        let n = view.num_vertices() as usize;
        if !self.initialized {
            let out = delta_pagerank_on(session, view, &self.config)?;
            self.ranks = out.values;
            self.version = snapshot.version();
            self.initialized = true;
            return Ok(graphmat_core::RunResult {
                stats: out.stats,
                converged: out.converged,
            });
        }
        if self.ranks.len() != n {
            return Err(graphmat_core::GraphMatError::InvalidParameter(
                "snapshot vertex count does not match the maintained ranks",
            ));
        }
        let degrees = view.out_degrees();
        let ranks = &self.ranks;
        let program = StreamingRestartProgram::<E> {
            random_surf: self.config.random_surf,
            tolerance: self.config.tolerance,
            restart: AtomicBool::new(true),
            _edge: std::marker::PhantomData,
        };
        let outcome = session
            .run(view, program)
            .init_with(&|v| DeltaPrVertex {
                rank: ranks[v as usize],
                delta: 0.0,
                degree: degrees[v as usize],
            })
            .activate_all()
            .activity(graphmat_core::ActivityPolicy::Changed)
            .max_iterations(self.config.max_iterations)
            .execute()?;
        self.ranks.clear();
        self.ranks.extend(outcome.values.iter().map(|p| p.rank));
        // Boundary-case fixup: a vertex with no in-edges never receives a
        // message, so the program cannot move it; from scratch it would sit
        // at its initial rank `r`. Pin it there explicitly (an edit may have
        // deleted its last in-edge).
        let in_degrees = view.in_degrees();
        for (v, rank) in self.ranks.iter_mut().enumerate() {
            if in_degrees[v] == 0 {
                *rank = self.config.random_surf;
            }
        }
        self.version = snapshot.version();
        Ok(graphmat_core::RunResult {
            stats: outcome.stats,
            converged: outcome.converged,
        })
    }

    /// Apply one real update batch to `store` and incrementally repair the
    /// ranks against the snapshot that admitted it. Returns that snapshot.
    pub fn ingest<E: Clone + Send + Sync + 'static>(
        &mut self,
        session: &Session,
        store: &GraphStore<E>,
        batch: DeltaBatch<E>,
    ) -> Result<Arc<GraphSnapshot<E>>> {
        let snapshot = store.apply(batch)?;
        self.refresh(session, &snapshot)?;
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{pagerank_on, PageRankConfig};
    use graphmat_io::edgelist::EdgeList;

    fn test_graph() -> EdgeList {
        graphmat_io::rmat::generate(&graphmat_io::rmat::RmatConfig::graph500(8).with_seed(3))
    }

    /// Delta-PageRank over a freshly built out-edge topology.
    fn ranks(el: &EdgeList, cfg: &DeltaPageRankConfig, threads: usize) -> AlgorithmOutput<f64> {
        let session = Session::with_threads(threads).unwrap();
        let topo = session.build_graph(el).finish().unwrap();
        delta_pagerank_on(&session, &topo, cfg).unwrap()
    }

    #[test]
    fn converges_before_the_iteration_cap() {
        let out = ranks(&test_graph(), &DeltaPageRankConfig::default(), 1);
        assert!(out.converged);
        assert!(out.stats.iterations < 500);
    }

    #[test]
    fn agrees_with_fixed_iteration_pagerank() {
        // Use a graph where every vertex has at least one in-edge and one
        // out-edge (RMAT plus a Hamiltonian cycle), so the classic program's
        // "never-applied vertices keep their initial rank" boundary case does
        // not kick in and both formulations share a unique fixed point.
        let rmat = test_graph();
        let n = rmat.num_vertices();
        let mut edges: Vec<(u32, u32, f32)> = rmat.edges().to_vec();
        for v in 0..n {
            edges.push((v, (v + 1) % n, 1.0));
        }
        let el = EdgeList::from_tuples(n, edges);
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();

        let delta = delta_pagerank_on(
            &session,
            &topo,
            &DeltaPageRankConfig {
                tolerance: 1e-12,
                max_iterations: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        let fixed = pagerank_on(
            &session,
            &topo,
            &PageRankConfig {
                iterations: 200,
                ..Default::default()
            },
        )
        .unwrap();
        for (v, (a, b)) in delta.values.iter().zip(fixed.values.iter()).enumerate() {
            assert!((a - b).abs() < 1e-4, "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn active_set_shrinks_over_time() {
        let out = ranks(
            &test_graph(),
            &DeltaPageRankConfig {
                tolerance: 1e-6,
                ..Default::default()
            },
            1,
        );
        let first = out.stats.supersteps.first().unwrap().active_vertices;
        let last = out.stats.supersteps.last().unwrap().active_vertices;
        assert!(last < first, "frontier should shrink: {first} -> {last}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let el = test_graph();
        let cfg = DeltaPageRankConfig::default();
        let seq = ranks(&el, &cfg, 1);
        let par = ranks(&el, &cfg, 4);
        for (a, b) in seq.values.iter().zip(par.values.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_iterations_returns_initial_ranks() {
        let cfg = DeltaPageRankConfig {
            max_iterations: 0,
            ..Default::default()
        };
        let out = ranks(&test_graph(), &cfg, 1);
        assert!(out.values.iter().all(|&r| r == cfg.random_surf));
        assert!(!out.converged);
    }

    #[test]
    fn bad_tolerance_is_a_typed_error() {
        let el = test_graph();
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();
        for tolerance in [0.0, -1.0, f64::NAN] {
            let bad = DeltaPageRankConfig {
                tolerance,
                ..Default::default()
            };
            assert!(
                matches!(
                    delta_pagerank_on(&session, &topo, &bad).unwrap_err(),
                    graphmat_core::GraphMatError::InvalidParameter(_)
                ),
                "tolerance {tolerance} must be rejected"
            );
        }
    }

    #[test]
    fn pooled_driver_matches_and_reruns_identically() {
        let el = test_graph();
        let cfg = DeltaPageRankConfig::default();
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();
        let on = delta_pagerank_on(&session, &topo, &cfg).unwrap();

        let mut pool = graphmat_core::StatePool::for_topology(&topo);
        for _ in 0..2 {
            let mut state = pool.acquire();
            delta_pagerank_into(&session, &topo, &cfg, None, &mut state).unwrap();
            let ranks: Vec<f64> = state.properties().iter().map(|p| p.rank).collect();
            assert_eq!(ranks, on.values);
            assert!(state.has_cached_workspace());
            pool.release(state);
        }
        assert_eq!((pool.created(), pool.reused()), (1, 1));
    }

    #[test]
    fn run_over_pending_deltas_matches_rebuild_bit_for_bit() {
        use graphmat_core::store::{GraphStore, StoreOptions};

        let el = test_graph();
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();
        let store = GraphStore::new(
            std::sync::Arc::clone(&topo),
            StoreOptions {
                compaction_threshold: usize::MAX,
                background: false,
                overload_watermark: usize::MAX,
            },
        );
        let n = el.num_vertices();
        let mut batch = DeltaBatch::new(n);
        batch.insert(0, n - 1, 1.0).unwrap();
        batch.delete(el.edges()[0].0, el.edges()[0].1).unwrap();
        batch.insert(n / 2, 0, 2.0).unwrap();
        let snapshot = store.apply(batch).unwrap();
        assert!(snapshot.overlay().is_some());

        let cfg = DeltaPageRankConfig::default();
        let overlaid = delta_pagerank_on(&session, snapshot.view(), &cfg).unwrap();

        store.compact_now();
        let rebuilt = store.snapshot();
        assert!(rebuilt.overlay().is_none());
        let from_scratch = delta_pagerank_on(&session, rebuilt.view(), &cfg).unwrap();
        for (v, (a, b)) in overlaid.values.iter().zip(&from_scratch.values).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn streaming_pagerank_tracks_real_batches() {
        use graphmat_core::store::{GraphStore, StoreOptions};

        let el = test_graph();
        let n = el.num_vertices();
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();
        let store = GraphStore::new(
            std::sync::Arc::clone(&topo),
            StoreOptions {
                // Force a compaction mid-stream so the maintainer crosses a
                // base rebuild too.
                compaction_threshold: 4,
                background: false,
                overload_watermark: usize::MAX,
            },
        );
        let cfg = DeltaPageRankConfig {
            tolerance: 1e-10,
            max_iterations: 1000,
            ..Default::default()
        };
        let mut pr = StreamingPageRank::new(cfg).unwrap();
        let first = pr.refresh(&session, &store.snapshot()).unwrap();
        assert!(first.converged);
        assert_eq!(pr.version(), 0);

        // Stream three real batches, repairing incrementally after each.
        let batches: Vec<Vec<(u32, u32, f32)>> = vec![
            vec![(0, n - 1, 1.0), (1, n / 2, 1.0)],
            vec![(n / 2, 1, 1.0), (2, 0, 1.0)],
            vec![(0, n - 1, 2.0), (3, n / 3, 1.0)],
        ];
        for ops in batches {
            let mut batch = DeltaBatch::new(n);
            for (s, d, w) in ops {
                batch.insert(s, d, w).unwrap();
            }
            let snap = pr.ingest(&session, &store, batch).unwrap();
            assert_eq!(pr.version(), snap.version());
        }
        assert_eq!(pr.version(), 3);
        assert!(store.compactions() >= 1, "threshold 4 must have compacted");

        // The repaired ranks agree with a from-scratch run on the final
        // snapshot (same fixed point; iteration paths differ).
        let from_scratch = delta_pagerank_on(&session, store.snapshot().view(), &cfg).unwrap();
        for (v, (a, b)) in pr.ranks().iter().zip(&from_scratch.values).enumerate() {
            assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn streaming_refresh_rejects_mismatched_snapshot() {
        use graphmat_core::store::GraphStore;

        let session = Session::sequential();
        let el = test_graph();
        let topo = session.build_graph(&el).finish().unwrap();
        let small = EdgeList::from_tuples(3, vec![(0u32, 1u32, 1.0f32), (1, 2, 1.0)]);
        let small_topo = session.build_graph(&small).finish().unwrap();

        let mut pr = StreamingPageRank::new(DeltaPageRankConfig::default()).unwrap();
        pr.refresh(&session, &GraphStore::with_defaults(topo).snapshot())
            .unwrap();
        let err = pr
            .refresh(&session, &GraphStore::with_defaults(small_topo).snapshot())
            .unwrap_err();
        assert!(matches!(
            err,
            graphmat_core::GraphMatError::InvalidParameter(_)
        ));
    }
}
