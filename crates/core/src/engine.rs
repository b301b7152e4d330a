//! One superstep: SEND_MESSAGE → generalized SpMV, allocation-free.
//!
//! This module is the bridge between the vertex-program frontend and the
//! sparse backend (the right-hand column of the paper's Figure 2):
//!
//! * `SEND_MESSAGE` over the active vertices **creates the sparse input
//!   vector**;
//! * `PROCESS_MESSAGE` becomes the generalized SpMV **multiply**, with the
//!   destination row index used to look up the destination vertex's property
//!   (the GraphMat extension over pure semiring frameworks, §4.2);
//! * `REDUCE` becomes the generalized SpMV **add**.
//!
//! The APPLY phase lives in [`crate::runner`], because it mutates vertex
//! state and drives the convergence loop.
//!
//! # Topology / state split
//!
//! A superstep **reads** the immutable [`Topology`] (its layouts and
//! degrees) and the current [`VertexState`] (properties + active set), and
//! **writes** only into the [`Workspace`]. Nothing here mutates the
//! topology but its write-once layout slots, which is what makes one
//! `Arc<Topology>` safe to share between concurrent runs — each run brings
//! its own state and workspace.
//!
//! What a run reads from its topology is resolved once, by
//! `Traversal::resolve` in the runner's prologue: the orientations and
//! degree arrays of the program's scatter direction. It is the single place
//! that asks the topology for its in-edge orientation, so the first
//! `In`/`Both` run is what makes `G` — derived from the stored `Gᵀ`
//! ([`Topology::in_matrix`]), or on a snapshot's topology the in side of its
//! pending edits; `Out` runs never do. That resolution is also the run's
//! pre-flight check — a forced pull without mirrors is a typed error there,
//! before the first superstep.
//!
//! # The workspace: zero allocation per superstep
//!
//! GraphMat's SSSP/BFS advantage comes from tiny per-iteration overheads
//! (§5.2.1). To honour that, the three per-superstep buffers — the message
//! vector, the reduced-output vector and the optional second output for
//! [`EdgeDirection::Both`] — live in a [`Workspace`] owned by the runner and
//! are **cleared and reused** every iteration, never reallocated. A superstep
//! runs SEND + SpMV into that workspace and returns only scalar
//! measurements; APPLY then reads the reduced vector's validity bits and
//! writes the next active set directly into the state, so there is no work
//! list and no second active-set buffer to carry.
//!
//! # SEND: one scan of the active set
//!
//! SEND is one loop body over word-aligned chunks of the active-vertex bit
//! vector ([`graphmat_sparse::spvec::SparseVector::fill_words`]): each chunk
//! scans its words and inserts messages for its own vertices, counting the
//! messages and the edges they will traverse as it goes. Chunks never share a
//! 64-bit validity word, so all writes are plain stores — no locks, no
//! atomics on the value path, no allocation. How many chunks there are is
//! decided in one place
//! ([`phase_chunks`](graphmat_sparse::parallel::phase_chunks)): a small
//! frontier is a single chunk run inline on the caller, a large one is
//! spread over the executor's lanes. Per [`GraphProgram::direction`], SEND
//! reads only the degree array the direction actually needs (out-degrees for
//! `Out`, in-degrees for `In`, both for `Both`) when accounting those edges.
//!
//! # Direction optimization: push vs pull
//!
//! The paper's engine always *pushes*: SEND builds a sparse message vector
//! and the column-wise DCSC SpMV scatters it — ideal when few vertices are
//! active, wasteful when most are (PageRank every superstep, the middle of
//! a BFS). This reproduction adds the dense *pull* backend
//! direction-optimized frameworks (Beamer's bottom-up BFS, GraphBLAST) get
//! their biggest win from: the row-parallel pull kernel ([`pull_into`])
//! walks destination rows of the topology's CSR mirror, gathering messages
//! by index — no scatter, perfect write locality.
//!
//! Direction is a per-superstep decision over **one** message vector, not a
//! second vector type: SEND always fills the workspace's bit-vector-backed
//! [`SparseVector`] (§4.4.2's winning representation), and the chosen kernel
//! either intersects it with each partition's non-empty columns (push) or
//! probes it per stored source index (pull). The decision is made **after**
//! SEND, from the vector SEND just built (GraphBLAST's rule):
//! [`choose_backend`] sees the out-edges the messages will traverse —
//! already counted — so the active set is never scanned a second time to
//! size the frontier, and a vertex that is active but sends nothing does not
//! count towards pulling.
//! The rule is a cost comparison: the pull kernel streams every stored
//! edge of the rows it gathers whatever the frontier holds, the push kernel
//! pays (about twice as much) per edge the messages traverse, so a superstep
//! pulls when the messages' out-edges exceed half of the edges a pull would
//! gather ([`PUSH_PULL_COST_RATIO`]). Which rows a pull gathers is the
//! program's say ([`GraphProgram::receives`], the output mask: BFS turns
//! away every reached vertex), so what a pull costs is learned from the run
//! itself: all stored edges until its first pull, afterwards what its last
//! pull gathered plus one edge's worth per row passed over
//! ([`PULL_ROW_COST`]). A program that keeps the default hook gathers — and
//! is priced at — every stored edge every time.
//! [`RunOptions::backend`](crate::options::RunOptions::backend) pins the
//! backend instead. Both kernels reduce each destination's incoming products
//! in ascending source order, so **push, pull and the selector produce
//! bit-for-bit identical results** — the choice can never change an answer,
//! only its speed. Each superstep records its [`Backend`] so runs expose
//! their push/pull trajectory. Pending edits change none of this, and the
//! rule above reads the merged degrees and edge count, so a snapshot that is
//! being written takes the trajectory of its rebuild.
//!
//! A pull whose messages traversed every stored edge — SEND's count equals
//! the traversal's edge total, which holds exactly when every vertex that
//! stores an edge on every leg sent — is **covered**: every source the
//! mirror stores is set in the message vector, so the pull reads the
//! message values by index and skips the validity-bit probe per gathered
//! edge ([`pull_into`]'s `covered`). All-active PageRank is covered on
//! every superstep; a BFS frontier, which holds only the vertices reached
//! last, almost never is. It is not a knob: the condition is counted, not
//! tuned, and it cannot change a bit, only the pull's time.
//!
//! How pending edits reach each kernel: they do not. There is one push
//! kernel ([`gspmv_into`]) and one pull kernel ([`pull_into`]), and each leg
//! hands them its orientation's push matrix or pull mirror. On a snapshot's
//! topology those are folds of its base's with the pending edits, each made
//! once, on the run's lanes, by the first push or pull along that side, and
//! read by every later one, in any run, on any thread (see
//! [`crate::topology`]). A folded column or row is the one a rebuild
//! stores, in the same ascending order, so neither the answer nor the
//! gathered count — nor therefore the trajectory — moves.

use crate::error::{GraphMatError, Result};
use crate::program::{EdgeDirection, GraphProgram, VertexId};
use crate::state::VertexState;
use crate::stats::{Backend, SuperstepStats};
use crate::topology::{Orientation, Topology};
use graphmat_sparse::parallel::Executor;
use graphmat_sparse::pull::CsrMirror;
use graphmat_sparse::spmv::{gspmv_into, pull_into};
use graphmat_sparse::spvec::SparseVector;
use graphmat_sparse::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What a traversed edge costs the push kernel, in edges the pull kernel
/// could have streamed instead — the one number of the direction rule.
///
/// Measured with the repo benchmark's kernel probes (`sparse.push.*`,
/// `sparse.pull.dense`, 2-core host), push and pull timed on the same graph:
/// with every vertex sending, push costs 1.7–2.3 ns per traversed edge
/// against pull's 1.1–1.6 ns per stored edge on RMAT (a ratio of 1.4–1.5;
/// about 1 on a road grid, 3.4–3.9 against 3.6). That is push at its best:
/// with one vertex in 64 sending it costs 2.7–4.0 ns per traversed edge,
/// 2.4–2.5 times pull. A superstep on the fence sits between the two, hence
/// 2 — which end to end (`bfs_frontier`) beats 3 by 12–17 %.
pub const PUSH_PULL_COST_RATIO: u64 = 2;

/// What a destination row costs a masked pull that passes over it, in edges
/// the pull kernel could have gathered instead: the second number of the
/// direction rule, which only a program with a [`GraphProgram::receives`]
/// ever meets.
///
/// Measured like [`PUSH_PULL_COST_RATIO`], same graph on both sides
/// (`bfs_frontier`'s: symmetrized RMAT 2¹⁷, 131 072 rows, 3.73 M stored
/// edges, 2-core host, `spmv::pull_into` timed directly, best of 15): a
/// pull that admits no row — or the rows a finished search leaves
/// unreached, 40 950 of them, nearly all empty — takes 0.35–0.46 ms on two
/// lanes and 0.51–0.66 ms on one, 2.7–5.0 ns per row (a row pointer, the
/// vertex property and a branch the isolated third of the vertices makes
/// unpredictable); a pull that admits every row takes 4.6–8.1 and
/// 8.5–15.7 ms, 1.2–4.2 ns per edge. Row against edge, same lanes, same
/// minute: 1.2–2.2. Taken as 1, which end to end (`bfs_frontier`) beats 2
/// by 7–16 % — and loses to 0 by another 14–25 %, because the push side of
/// the rule is still priced per edge: a push of 2 k–50 k messages through 16
/// partitions takes 0.9–5 ms where the masked pull takes 0.4–0.5, and this
/// term hands some of those supersteps back to it. Without it a frontier of
/// 45–100 messages (pushed in 0.23–0.25 ms) is pulled in 0.41–0.51 ms; the
/// term is what stops that. The pairs are in CHANGES.md, PR 24.
pub const PULL_ROW_COST: u64 = 1;

/// The direction rule, as a cost comparison. The pull kernel streams every
/// stored edge of every row it gathers whatever the frontier holds, so a
/// pull superstep costs `pull_edges × c_pull`; a push superstep costs
/// `frontier_edges × c_push`. Pull when that is the cheaper of the two —
/// `frontier_edges > pull_edges / PUSH_PULL_COST_RATIO` (see
/// [`PUSH_PULL_COST_RATIO`] = `c_push / c_pull`).
///
/// `frontier_edges` is the out-edge count, in the program's scatter
/// direction, of the vertices that put a message into this superstep's
/// vector. `pull_edges` is what a pull would cost, in edges: the direction's
/// stored edge count until the run has pulled once, from then on the count
/// its last pull reported plus [`PULL_ROW_COST`] per row it has to pass
/// over, never more than the stored count — rows
/// [`GraphProgram::receives`] turns away are not gathered, and a vertex
/// turned away once stays turned away (only `apply` changes a property, and
/// by the hook's law it does not change this one), so the last count bounds
/// the next. With the default hook that is the stored total every time:
/// what earlier supersteps explored does not enter, and a program that
/// re-traverses edges (SSSP, delta PageRank) is judged like one that does
/// not. All-active PageRank (`frontier_edges == pull_edges`) pulls every
/// superstep; a graph without edges pushes.
pub fn choose_backend(frontier_edges: u64, pull_edges: u64) -> Backend {
    if frontier_edges > pull_edges / PUSH_PULL_COST_RATIO {
        Backend::Pull
    } else {
        Backend::Push
    }
}

/// Reusable per-run scratch state: every buffer a superstep needs, allocated
/// once in [`Workspace::new`] and recycled (cleared, never freed) across all
/// supersteps of a run — or across **runs**, when the workspace rides in a
/// pooled [`VertexState`] via
/// [`crate::session::RunBuilder::execute_with`].
pub struct Workspace<P: GraphProgram> {
    /// The one message vector: SEND fills it, the push or the pull kernel
    /// reads it.
    messages: SparseVector<P::Message>,
    reduced: SparseVector<P::Reduced>,
    /// Second SpMV target for [`EdgeDirection::Both`]; built lazily on first
    /// use so unidirectional programs never pay for it.
    scratch: Option<SparseVector<P::Reduced>>,
}

impl<P: GraphProgram> Workspace<P> {
    /// Allocate a workspace for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        Workspace {
            messages: SparseVector::new(n),
            reduced: SparseVector::new(n),
            scratch: None,
        }
    }

    /// The reduced values produced by the most recent superstep.
    pub fn reduced(&self) -> &SparseVector<P::Reduced> {
        &self.reduced
    }

    /// Whether this workspace can serve a run over `n` vertices (used when
    /// recycling a cached workspace from a pooled [`VertexState`] — a
    /// mismatch means "allocate fresh", never an error).
    pub fn is_compatible(&self, n: usize) -> bool {
        self.reduced.len() == n
    }
}

/// One scatter direction's share of a traversal: the orientation whose
/// push matrix and pull mirror the kernels read, and the degree array SEND
/// charges a message's edges against.
struct Leg<'a, E> {
    orientation: &'a Orientation<E>,
    degrees: &'a [u32],
}

impl<'a, E: Clone + Send + Sync> Leg<'a, E> {
    /// The push over this leg's push matrix — on a snapshot's topology a
    /// fold, which the first push along this side makes.
    fn push<X, Y, M, A>(
        &self,
        messages: &SparseVector<X>,
        multiply: &M,
        add: &A,
        executor: &Executor,
        y: &mut SparseVector<Y>,
    ) where
        X: Sync,
        Y: Clone + Default + Send,
        M: Fn(&X, &E, Index) -> Y + Sync,
        A: Fn(&mut Y, Y) + Sync,
    {
        let matrix = self.orientation.push(executor);
        gspmv_into(matrix, messages, multiply, add, executor, y)
    }

    /// This leg's pull mirror, if the topology has mirrors — on a snapshot's
    /// topology a fold, which the first pull along this side makes.
    fn pull(&self, executor: &Executor) -> Option<&'a CsrMirror<E>> {
        self.orientation.pull(executor).map(|mirror| &**mirror)
    }
}

/// The pull mirrors of a traversal's legs, first then (for `Both`) second.
type Mirrors<'a, E> = (&'a CsrMirror<E>, Option<&'a CsrMirror<E>>);

/// Everything one run reads from its [`Topology`], resolved for the
/// program's scatter direction. `Out` and `In` traverse one leg; `Both`
/// traverses the out leg, then the in leg, and merges the second's output
/// into the first's — on the push and the pull backend alike, so reduction
/// order (and therefore bits) never depends on the backend.
pub(crate) struct Traversal<'a, E> {
    topology: &'a Topology<E>,
    first: Leg<'a, E>,
    second: Option<Leg<'a, E>>,
    /// The backend every superstep must use; `None` lets
    /// [`choose_backend`] decide per superstep.
    forced: Option<Backend>,
}

impl<'a, E: Clone + Send + Sync> Traversal<'a, E> {
    /// Resolve `topology` for a program scattering along `direction` with
    /// the backend override `forced` — the pre-flight check of a run. An
    /// `In`/`Both` direction makes the topology's in-edge orientation here
    /// if no earlier run has.
    ///
    /// # Errors
    ///
    /// [`GraphMatError::MissingPullMirror`] if `forced` is
    /// [`Backend::Pull`] on a topology built with
    /// `build_pull_mirrors = false`. (The selector pushes instead.)
    pub(crate) fn resolve(
        topology: &'a Topology<E>,
        direction: EdgeDirection,
        forced: Option<Backend>,
    ) -> Result<Self> {
        if forced == Some(Backend::Pull) && !topology.has_pull_mirrors() {
            return Err(GraphMatError::MissingPullMirror);
        }
        let out = Leg {
            orientation: topology.out_side(),
            degrees: topology.out_degrees(),
        };
        // Lazy: the first call on a topology is what makes its `G`.
        let inward = || Leg {
            orientation: topology.inward(),
            degrees: topology.in_degrees(),
        };
        let (first, second) = match direction {
            EdgeDirection::Out => (out, None),
            EdgeDirection::In => (inward(), None),
            EdgeDirection::Both => (out, Some(inward())),
        };
        Ok(Traversal {
            topology,
            first,
            second,
            forced,
        })
    }

    /// The topology this traversal was resolved from.
    pub(crate) fn topology(&self) -> &'a Topology<E> {
        self.topology
    }

    /// The legs' pull mirrors, or `None` on a topology without them.
    fn mirrors(&self, executor: &Executor) -> Option<Mirrors<'a, E>> {
        let first = self.first.pull(executor)?;
        match &self.second {
            None => Some((first, None)),
            Some(leg) => Some((first, Some(leg.pull(executor)?))),
        }
    }

    /// The edges a pull superstep streams when it gathers every row — what
    /// the selector prices a pull at until the run has made one. The
    /// topology's edge count per leg, pending edits counted.
    pub(crate) fn edge_total(&self) -> u64 {
        self.legs() * self.topology.num_edges() as u64
    }

    fn legs(&self) -> u64 {
        if self.second.is_some() {
            2
        } else {
            1
        }
    }

    /// What the selector prices the next pull at after one that gathered
    /// `gathered` edges: those, plus the pass over every leg's rows, capped
    /// at what gathering everything costs (which is what a program whose
    /// `receives` admits every vertex gathered, and is priced at again).
    fn pull_price(&self, gathered: u64) -> u64 {
        let rows = self.legs() * u64::from(self.topology.num_vertices());
        (gathered + PULL_ROW_COST * rows).min(self.edge_total())
    }

    /// How many edges a message from `v` will traverse: SEND reads only the
    /// degree array(s) of the legs the program scatters along. A snapshot's
    /// topology holds the merged degrees, so `edges_processed` metrics
    /// always describe the edited graph.
    #[inline(always)]
    fn edges_for(&self, v: VertexId) -> u64 {
        let second = self
            .second
            .as_ref()
            .map_or(0, |leg| leg.degrees[v as usize]);
        self.first.degrees[v as usize] as u64 + second as u64
    }
}

/// Execute the SEND_MESSAGE and SpMV phases of one superstep, reusing the
/// buffers in `ws`. Allocation-free in the steady state. Returns the
/// superstep's SEND/SpMV measurements; the reduced values land in `ws` and
/// the runner fills in the APPLY fields.
///
/// `active_count` is the current number of active vertices — the runner
/// carries it from one superstep's APPLY to the next, so nothing here
/// popcounts the active bit vector. It sizes SEND's chunking and is reported
/// as the superstep's frontier density.
///
/// `pull_edges` is the other count the runner carries: coming in, the edges
/// a pull of this superstep is priced at ([`choose_backend`]; the runner
/// starts a run at `Traversal::edge_total`); going out, the price of the
/// next one, from what this superstep's pull gathered — a push leaves it as
/// it was.
///
/// On a snapshot's topology the push reads the leg's folded DCSC and the
/// pull its folded mirror — the first push or pull along a side folds it,
/// the one allocation a superstep can make. SEND accounts the **merged**
/// degree arrays and the pull reports the folded rows' lengths, so metrics
/// describe the edited graph and the selector gives it the push/pull
/// trajectory of its rebuild.
///
/// A pull superstep is **covered** when `edges_processed ==
/// Traversal::edge_total`: its kernel then reads the messages without
/// probing them (see the module docs). That rests on one invariant of every
/// topology, base or snapshot: on each leg, a vertex's degree is the number of
/// entries its column of the pulled mirror (or fold) stores, and the degrees
/// sum to the topology's edge count. Then SEND's count reaches the total iff no
/// vertex with a stored column stayed silent. (`tests/property_tests.rs`
/// checks it after every write of a seeded store history.)
pub(crate) fn superstep<P: GraphProgram>(
    traversal: &Traversal<'_, P::Edge>,
    state: &VertexState<P::VertexProp>,
    program: &P,
    executor: &Executor,
    active_count: usize,
    pull_edges: &mut u64,
    ws: &mut Workspace<P>,
) -> SuperstepStats {
    let Workspace {
        messages,
        reduced,
        scratch,
    } = ws;
    let n = traversal.topology.num_vertices() as usize;

    // --- SEND_MESSAGE: build the message vector from active vertices.
    let send_start = Instant::now();
    let edges_processed = send(traversal, state, program, executor, active_count, messages);
    let messages = &*messages;
    let messages_sent = messages.nnz();
    let send_time = send_start.elapsed();

    // --- Backend selection, from what SEND just counted: the override or
    // the selector's say-so.
    let chosen = traversal
        .forced
        .unwrap_or_else(|| choose_backend(edges_processed, *pull_edges));

    // --- Generalized SpMV (Algorithm 1): one kernel call per leg, sparse
    // push over the leg's DCSC or dense pull over its mirror — the pull
    // masked by the program's `receives` (push only touches the frontier's
    // edges and needs no mask). The program's callbacks are monomorphised
    // into the kernel (the paper's `-ipo`).
    let spmv_start = Instant::now();
    // A pull needs mirrors, which `resolve` guarantees for a forced pull;
    // a snapshot's first pull along a side folds them here.
    let pull_mirrors = match chosen {
        Backend::Pull => traversal.mirrors(executor),
        Backend::Push => None,
    };
    let props = state.properties();
    let multiply = |msg: &P::Message, edge: &P::Edge, dst: Index| {
        program.process_message(msg, edge, &props[dst as usize])
    };
    let add = |acc: &mut P::Reduced, value: P::Reduced| program.reduce(acc, value);
    let admit = |dst: Index| program.receives(&props[dst as usize]);
    match pull_mirrors {
        None => {
            let legs = (&traversal.first, traversal.second.as_ref());
            first_then_second(legs, &add, reduced, scratch, |leg, y| {
                leg.push(messages, &multiply, &add, executor, y)
            })
        }
        Some((first, second)) => {
            let second = traversal.second.as_ref().zip(second);
            // Every stored source sent (see "covered" above): read the
            // messages without probing them.
            let covered = edges_processed == traversal.edge_total();
            let mut gathered = 0;
            first_then_second(
                ((&traversal.first, first), second),
                &add,
                reduced,
                scratch,
                |(_, mirror), y| {
                    gathered += pull_into(
                        mirror, messages, covered, &multiply, &add, &admit, executor, y,
                    );
                },
            );
            *pull_edges = traversal.pull_price(gathered);
        }
    }
    let spmv_time = spmv_start.elapsed();

    SuperstepStats {
        backend: if pull_mirrors.is_some() {
            Backend::Pull
        } else {
            Backend::Push
        },
        frontier_density: active_count as f64 / (n as f64).max(1.0),
        active_vertices: active_count,
        messages_sent,
        edges_processed,
        send_time,
        spmv_time,
        ..SuperstepStats::default()
    }
}

/// SEND: clear `messages` and insert one message per sending active vertex,
/// scanning the active bit vector in word-aligned chunks (one inline chunk
/// for a small frontier, otherwise spread over the executor's lanes).
/// Returns the number of edges the messages will traverse; the number of
/// messages is the vector's `nnz`.
fn send<P: GraphProgram>(
    traversal: &Traversal<'_, P::Edge>,
    state: &VertexState<P::VertexProp>,
    program: &P,
    executor: &Executor,
    active_count: usize,
    messages: &mut SparseVector<P::Message>,
) -> u64 {
    messages.clear();
    let props = state.properties();
    let active = state.active_bits();
    let edges = AtomicU64::new(0);
    messages.fill_words(executor, active_count, |writer| {
        let (word_start, word_end) = writer.word_range();
        let mut local_edges = 0u64;
        for v in active.iter_ones_in_words(word_start, word_end) {
            let v = v as VertexId;
            if let Some(msg) = program.send_message(v, &props[v as usize]) {
                writer.set(v, msg);
                local_edges += traversal.edges_for(v);
            }
        }
        edges.fetch_add(local_edges, Ordering::Relaxed);
    });
    edges.load(Ordering::Relaxed)
}

/// The leg fan-out: the first leg multiplies into `reduced`; a `Both`
/// traversal's second leg multiplies into the scratch vector (built lazily on
/// first use) and is folded into `reduced` with the program's REDUCE.
fn first_then_second<L, Y, A>(
    (first, second): (L, Option<L>),
    add: &A,
    reduced: &mut SparseVector<Y>,
    scratch: &mut Option<SparseVector<Y>>,
    mut multiply_leg: impl FnMut(L, &mut SparseVector<Y>),
) where
    Y: Clone + Default,
    A: Fn(&mut Y, Y),
{
    multiply_leg(first, reduced);
    if let Some(second) = second {
        let scratch = scratch.get_or_insert_with(|| SparseVector::new(reduced.len()));
        multiply_leg(second, scratch);
        for (k, v) in scratch.iter() {
            reduced.merge(k, v.clone(), |acc, value| add(acc, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{GraphBuildOptions, Topology};
    use graphmat_io::edgelist::EdgeList;

    /// SSSP as in the paper's Figure 3 / appendix.
    struct Sssp;

    impl GraphProgram for Sssp {
        type VertexProp = f32;
        type Message = f32;
        type Reduced = f32;
        type Edge = f32;

        fn send_message(&self, _v: VertexId, dist: &f32) -> Option<f32> {
            Some(*dist)
        }

        fn process_message(&self, msg: &f32, edge: &f32, _dst: &f32) -> f32 {
            msg + edge
        }

        fn reduce(&self, acc: &mut f32, value: f32) {
            if value < *acc {
                *acc = value;
            }
        }

        fn apply(&self, reduced: &f32, dist: &mut f32) {
            if *reduced < *dist {
                *dist = *reduced;
            }
        }
    }

    fn figure3_topology() -> Topology<f32> {
        // Figure 3(a): A=0,B=1,C=2,D=3,E=4.
        let el = EdgeList::from_tuples(
            5,
            vec![
                (0, 1, 1.0),
                (0, 2, 3.0),
                (0, 3, 2.0),
                (1, 2, 1.0),
                (2, 3, 2.0),
                (3, 4, 2.0),
                (4, 0, 4.0),
            ],
        );
        Topology::from_edge_list(&el, GraphBuildOptions::default().with_partitions(2))
    }

    /// Distance 0 at the source, infinity elsewhere; `all_active` picks
    /// between "only the source sends" and "everyone sends".
    fn sssp_state(topology: &Topology<f32>, all_active: bool) -> VertexState<f32> {
        let mut state = VertexState::for_topology(topology);
        state.set_all_properties(f32::MAX);
        state.set_property(0, 0.0);
        if all_active {
            state.set_all_active();
        } else {
            state.set_active(0);
        }
        state
    }

    /// One superstep into a fresh workspace.
    fn step<P: GraphProgram>(
        topology: &Topology<P::Edge>,
        state: &VertexState<P::VertexProp>,
        program: &P,
        backend: Option<Backend>,
        executor: &Executor,
    ) -> Result<(SuperstepStats, Workspace<P>)> {
        let traversal = Traversal::resolve(topology, program.direction(), backend)?;
        let mut ws = Workspace::<P>::new(topology.num_vertices() as usize);
        let active = state.active_count();
        let mut pull_edges = traversal.edge_total();
        let stats = superstep(
            &traversal,
            state,
            program,
            executor,
            active,
            &mut pull_edges,
            &mut ws,
        );
        Ok((stats, ws))
    }

    const PUSH: Option<Backend> = Some(Backend::Push);

    #[test]
    fn figure3_first_superstep() {
        let topology = figure3_topology();
        let state = sssp_state(&topology, false);
        let (out, ws) = step(&topology, &state, &Sssp, PUSH, &Executor::sequential()).unwrap();
        assert_eq!(out.messages_sent, 1);
        assert_eq!(out.edges_processed, 3);
        assert_eq!(out.backend, Backend::Push);
        assert_eq!(
            ws.reduced().to_entries(),
            vec![(1, 1.0), (2, 3.0), (3, 2.0)]
        );
    }

    #[test]
    fn backends_agree() {
        let topology = figure3_topology();
        let state = sssp_state(&topology, true);
        let run = |backend: Option<Backend>, threads: usize| {
            let executor = Executor::new(threads);
            let (out, ws) = step(&topology, &state, &Sssp, backend, &executor).unwrap();
            (out.backend, ws.reduced().to_entries())
        };
        let (_, push) = run(PUSH, 1);
        for threads in [1, 2] {
            assert_eq!(run(PUSH, threads), (Backend::Push, push.clone()));
            assert_eq!(
                run(Some(Backend::Pull), threads),
                (Backend::Pull, push.clone())
            );
            assert_eq!(run(None, threads).1, push);
        }
    }

    fn mirrorless_chain() -> Topology<f32> {
        let el = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        Topology::from_edge_list(
            &el,
            GraphBuildOptions::default()
                .with_pull_mirrors(false)
                .with_partitions(1),
        )
    }

    #[test]
    fn forced_pull_without_mirrors_is_an_error() {
        let topology = mirrorless_chain();
        let err = Traversal::resolve(&topology, EdgeDirection::Out, Some(Backend::Pull))
            .err()
            .unwrap();
        assert_eq!(err, GraphMatError::MissingPullMirror);
    }

    #[test]
    fn auto_without_mirrors_degrades_to_push() {
        let topology = mirrorless_chain();
        let mut state: VertexState<f32> = VertexState::for_topology(&topology);
        state.set_all_active();
        let (out, ws) = step(&topology, &state, &Sssp, None, &Executor::sequential()).unwrap();
        // A fully-dense frontier would normally pull; without mirrors the
        // selector must settle for push and still produce the right answer.
        assert_eq!(out.backend, Backend::Push);
        assert_eq!(ws.reduced().to_entries(), vec![(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn selector_pulls_when_the_frontier_holds_over_half_of_the_edges() {
        for (frontier_edges, total_edges, expect, case) in [
            (3000, 3000, Backend::Pull, "all-active"),
            (1501, 3000, Backend::Pull, "just above half"),
            (1500, 3000, Backend::Push, "exactly half"),
            (1499, 3000, Backend::Push, "just below half"),
            (3, 3000, Backend::Push, "a BFS start or tail"),
            (0, 0, Backend::Push, "a graph without edges"),
            (u64::MAX, u64::MAX, Backend::Pull, "no overflow"),
        ] {
            assert_eq!(
                choose_backend(frontier_edges, total_edges),
                expect,
                "{case}"
            );
        }
    }

    /// SSSP in which only vertex 0 ever has something to say.
    struct OnlyZeroSends;

    impl GraphProgram for OnlyZeroSends {
        type VertexProp = f32;
        type Message = f32;
        type Reduced = f32;
        type Edge = f32;

        fn send_message(&self, v: VertexId, dist: &f32) -> Option<f32> {
            (v == 0).then_some(*dist)
        }

        fn process_message(&self, msg: &f32, edge: &f32, _dst: &f32) -> f32 {
            msg + edge
        }

        fn reduce(&self, acc: &mut f32, value: f32) {
            Sssp.reduce(acc, value)
        }

        fn apply(&self, reduced: &f32, dist: &mut f32) {
            Sssp.apply(reduced, dist)
        }
    }

    #[test]
    fn selector_counts_senders_not_active_vertices() {
        // A 64-ring with every vertex active. When all of them send, the
        // frontier is heavy and broad: pull. When only vertex 0 sends, the
        // message vector holds one entry with one out-edge — sizing the
        // frontier by the active set used to pull here; sizing it by what
        // SEND built pushes.
        let ring = (0..64).map(|v| (v, (v + 1) % 64, 1.0)).collect();
        let topology = Topology::from_edge_list(
            &EdgeList::from_tuples(64, ring),
            GraphBuildOptions::default().with_partitions(2),
        );
        let mut state: VertexState<f32> = VertexState::for_topology(&topology);
        state.set_all_active();
        let executor = Executor::sequential();

        let (everyone, _) = step(&topology, &state, &Sssp, None, &executor).unwrap();
        assert_eq!((everyone.active_vertices, everyone.messages_sent), (64, 64));
        assert_eq!(everyone.backend, Backend::Pull);

        let (one, ws) = step(&topology, &state, &OnlyZeroSends, None, &executor).unwrap();
        assert_eq!((one.active_vertices, one.messages_sent), (64, 1));
        assert_eq!(one.edges_processed, 1);
        assert_eq!(one.backend, Backend::Push);
        assert_eq!(ws.reduced().to_entries(), vec![(1, 1.0)]);
    }

    #[test]
    fn workspace_reuse_across_supersteps_matches_fresh_outputs() {
        let topology = figure3_topology();
        let state = sssp_state(&topology, true);
        let executor = Executor::new(2);
        let mut ws = Workspace::<Sssp>::new(topology.num_vertices() as usize);
        // One workspace serves push, pull and push again.
        for backend in [PUSH, Some(Backend::Pull), PUSH] {
            let traversal = Traversal::resolve(&topology, EdgeDirection::Out, backend).unwrap();
            let (fresh, fresh_ws) = step(&topology, &state, &Sssp, backend, &executor).unwrap();
            let mut pull_edges = traversal.edge_total();
            let metrics = superstep(
                &traversal,
                &state,
                &Sssp,
                &executor,
                state.active_count(),
                &mut pull_edges,
                &mut ws,
            );
            // Every vertex receives: a pull gathers every stored edge.
            assert_eq!(pull_edges, traversal.edge_total());
            assert_eq!(metrics.backend, backend.unwrap());
            assert_eq!(metrics.messages_sent, fresh.messages_sent);
            assert_eq!(metrics.edges_processed, fresh.edges_processed);
            assert_eq!(ws.reduced().to_entries(), fresh_ws.reduced().to_entries());
        }
    }

    #[test]
    fn workspace_compatibility_checks_length() {
        let ws = Workspace::<Sssp>::new(16);
        assert!(ws.is_compatible(16));
        assert!(!ws.is_compatible(17));
    }

    /// A program that scatters along in-edges: each vertex tells its
    /// *in-neighbours* (sources of its incoming edges) its id.
    struct InDegreeLike;

    impl GraphProgram for InDegreeLike {
        type VertexProp = u32;
        type Message = u32;
        type Reduced = u32;
        type Edge = f32;

        fn direction(&self) -> EdgeDirection {
            EdgeDirection::In
        }

        fn send_message(&self, v: VertexId, _p: &u32) -> Option<u32> {
            Some(v)
        }

        fn process_message(&self, _m: &u32, _e: &f32, _d: &u32) -> u32 {
            1
        }

        fn reduce(&self, acc: &mut u32, v: u32) {
            *acc += v;
        }

        fn apply(&self, r: &u32, p: &mut u32) {
            *p = *r;
        }
    }

    fn all_active_step(
        tuples: Vec<(u32, u32, f32)>,
        n: u32,
        options: GraphBuildOptions,
    ) -> Result<(SuperstepStats, Workspace<InDegreeLike>)> {
        let topology = Topology::from_edge_list(&EdgeList::from_tuples(n, tuples), options);
        let mut state: VertexState<u32> = VertexState::for_topology(&topology);
        state.set_all_active();
        step(
            &topology,
            &state,
            &InDegreeLike,
            PUSH,
            &Executor::sequential(),
        )
    }

    #[test]
    fn in_direction_counts_out_degrees() {
        // Scattering along in-edges delivers, to each vertex, one message per
        // out-edge it has (y = G·x with x = all ones).
        let (_, ws) = all_active_step(
            vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
            4,
            GraphBuildOptions::default().with_partitions(2),
        )
        .unwrap();
        assert_eq!(ws.reduced().get(0), Some(&2)); // vertex 0 has 2 out-edges
        assert_eq!(ws.reduced().get(1), Some(&1));
        assert_eq!(ws.reduced().get(2), Some(&1));
        assert_eq!(ws.reduced().get(3), None); // no out-edges
    }

    #[test]
    fn in_direction_counts_only_in_degrees_for_edges_processed() {
        // SEND must account only the degree array the direction requires.
        // Vertex 0 here has 2 out-edges and 0 in-edges; an In-direction
        // program sending from {0} therefore processes 0 edges.
        let (out, _) = all_active_step(
            vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)],
            3,
            GraphBuildOptions::default().with_partitions(1),
        )
        .unwrap();
        // in-degrees: v0=0, v1=1, v2=2 → total 3 edges for an In program
        assert_eq!(out.edges_processed, 3);
    }

    #[test]
    fn inactive_graph_produces_no_work() {
        let topology = figure3_topology();
        let state: VertexState<f32> = VertexState::for_topology(&topology);
        let (out, ws) = step(&topology, &state, &Sssp, PUSH, &Executor::sequential()).unwrap();
        assert_eq!(out.messages_sent, 0);
        assert_eq!(out.edges_processed, 0);
        assert_eq!(ws.reduced().nnz(), 0);
    }
}
