//! The losing sides of the paper's ablations, reconstructed outside the
//! engine.
//!
//! The engine has one message vector (bit vector + value array, §4.4.2's
//! winner) and monomorphises every program's callbacks into the SpMV kernels
//! (the `-ipo` build of §4.5). To keep Figure 7 reproducible this module
//! provides what the engine no longer carries:
//!
//! * [`SortedSparseVector`] — the sorted-tuple sparse vector, a second
//!   [`MessageVector`] the push kernel accepts. `benches/spmv_kernels.rs`
//!   times it against the bit-vector representation at the kernel, where
//!   §4.4.2 locates the effect.
//! * [`NoInline`] — a [`GraphProgram`] adapter that keeps
//!   `process_message`/`reduce` out of line, the "before `-ipo`" build, and
//!   the PageRank/SSSP runs Figure 7's naive row times through it.

use graphmat_algorithms::pagerank::{PageRankConfig, PageRankProgram, PageRankVertex};
use graphmat_algorithms::sssp::{SsspProgram, UNREACHABLE};
use graphmat_core::{
    ActivityPolicy, EdgeDirection, GraphProgram, RunOutcome, Session, Topology, VertexId,
};
use graphmat_sparse::spvec::MessageVector;
use graphmat_sparse::{ix, Index};

/// Sorted `(index, value)` tuple sparse vector (the paper's option 1).
/// Membership tests are `O(log nnz)` binary searches.
#[derive(Clone, Debug)]
pub struct SortedSparseVector<T> {
    len: usize,
    entries: Vec<(Index, T)>,
}

impl<T> SortedSparseVector<T> {
    /// Create an empty vector of logical length `n`.
    pub fn new(n: usize) -> Self {
        SortedSparseVector {
            len: n,
            entries: Vec::new(),
        }
    }

    /// Set index `i` to `value`, keeping entries sorted.
    pub fn set(&mut self, i: Index, value: T) {
        debug_assert!(ix(i) < self.len, "index {i} out of range {}", self.len);
        match self.entries.binary_search_by_key(&i, |e| e.0) {
            Ok(pos) => self.entries[pos].1 = value,
            Err(pos) => self.entries.insert(pos, (i, value)),
        }
    }
}

impl<T> MessageVector<T> for SortedSparseVector<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn nnz(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn contains(&self, i: Index) -> bool {
        self.entries.binary_search_by_key(&i, |e| e.0).is_ok()
    }

    #[inline]
    fn get(&self, i: Index) -> Option<&T> {
        self.entries
            .binary_search_by_key(&i, |e| e.0)
            .ok()
            .map(|pos| &self.entries[pos].1)
    }

    /// Two binary searches cut the range out of the sorted tuples.
    #[inline]
    fn iter_range<'a>(&'a self, lo: Index, hi: Index) -> impl Iterator<Item = (Index, &'a T)>
    where
        T: 'a,
    {
        let start = self.entries.partition_point(|e| e.0 < lo);
        let end = self.entries.partition_point(|e| e.0 < hi);
        self.entries[start..end.max(start)]
            .iter()
            .map(|e| (e.0, &e.1))
    }
}

/// `P` with its per-edge callbacks kept out of line, so the SpMV inner loop
/// pays a call per PROCESS_MESSAGE and per REDUCE — what the paper's
/// compiler produced without inter-procedural optimization.
pub struct NoInline<P>(pub P);

impl<P: GraphProgram> GraphProgram for NoInline<P> {
    type VertexProp = P::VertexProp;
    type Message = P::Message;
    type Reduced = P::Reduced;
    type Edge = P::Edge;

    fn direction(&self) -> EdgeDirection {
        self.0.direction()
    }

    fn send_message(&self, v: VertexId, prop: &P::VertexProp) -> Option<P::Message> {
        self.0.send_message(v, prop)
    }

    #[inline(never)]
    fn process_message(&self, msg: &P::Message, edge: &P::Edge, dst: &P::VertexProp) -> P::Reduced {
        self.0.process_message(msg, edge, dst)
    }

    #[inline(never)]
    fn reduce(&self, acc: &mut P::Reduced, value: P::Reduced) {
        self.0.reduce(acc, value)
    }

    fn apply(&self, reduced: &P::Reduced, prop: &mut P::VertexProp) {
        self.0.apply(reduced, prop)
    }

    fn on_superstep_end(&self, iteration: usize, changed: usize) {
        self.0.on_superstep_end(iteration, changed)
    }
}

/// `pagerank_on`'s run (rank 1.0 everywhere, every vertex rebroadcasting
/// for `config.iterations` supersteps) through [`NoInline`].
pub fn pagerank_no_inline(
    session: &Session,
    topology: &Topology<f32>,
    config: &PageRankConfig,
) -> RunOutcome<PageRankVertex> {
    let degrees = topology.out_degrees();
    let program = PageRankProgram::<f32>::new(config.random_surf);
    session
        .run(topology, NoInline(program))
        .init_with(&|v| PageRankVertex {
            rank: 1.0,
            degree: degrees[v as usize],
        })
        .activate_all()
        .activity(ActivityPolicy::AlwaysAll)
        .max_iterations(config.iterations)
        .execute()
        .expect("pagerank")
}

/// `sssp_on`'s run from `source` through [`NoInline`].
pub fn sssp_no_inline(
    session: &Session,
    topology: &Topology<f32>,
    source: VertexId,
) -> RunOutcome<f32> {
    session
        .run(topology, NoInline(SsspProgram::<f32>::default()))
        .init_all(UNREACHABLE)
        .seed_with(source, 0.0)
        .execute()
        .expect("sssp")
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmat_algorithms::pagerank::pagerank_on;
    use graphmat_algorithms::sssp::sssp_on;
    use graphmat_io::rmat::{self, RmatConfig};
    use graphmat_sparse::parallel::Executor;
    use graphmat_sparse::partition::PartitionedDcsc;
    use graphmat_sparse::spmv::gspmv;
    use graphmat_sparse::spvec::SparseVector;

    #[test]
    fn sorted_vector_multiplies_like_the_bit_vector() {
        let el = rmat::generate(&RmatConfig::graph500(8).with_seed(5));
        let n = el.num_vertices() as usize;
        let matrix = PartitionedDcsc::from_coo_balanced(&el.to_transpose_coo(), 4);
        let mut bitvec: SparseVector<f32> = SparseVector::new(n);
        let mut sorted: SortedSparseVector<f32> = SortedSparseVector::new(n);
        // Descending inserts with one overwrite: sortedness is the vector's
        // job, not the caller's.
        for v in (0..n as u32).rev().step_by(3).chain([0]) {
            bitvec.set(v, v as f32);
            sorted.set(v, v as f32);
        }
        assert_eq!(sorted.nnz(), bitvec.nnz());
        assert_eq!(MessageVector::len(&sorted), n);
        assert!(sorted.contains(0) && !sorted.contains(n as u32 - 2));
        let multiply = |m: &f32, e: &f32, _k: Index| m + e;
        let add = |acc: &mut f32, v: f32| *acc += v;
        for threads in [1, 3] {
            let ex = Executor::new(threads);
            let from_bitvec: SparseVector<f32> = gspmv(&matrix, &bitvec, &multiply, &add, &ex);
            let from_sorted: SparseVector<f32> = gspmv(&matrix, &sorted, &multiply, &add, &ex);
            let bits = |y: &SparseVector<f32>| -> Vec<(Index, u32)> {
                y.iter().map(|(k, v)| (k, v.to_bits())).collect()
            };
            assert_eq!(bits(&from_sorted), bits(&from_bitvec));
        }
    }

    #[test]
    fn sorted_vector_ranges_match_the_bit_vector() {
        let mut bitvec: SparseVector<u32> = SparseVector::new(200);
        let mut sorted: SortedSparseVector<u32> = SortedSparseVector::new(200);
        for i in [0u32, 5, 63, 64, 70, 127, 128, 199] {
            bitvec.set(i, i * 2);
            sorted.set(i, i * 2);
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
            let from_sorted: Vec<(Index, &u32)> = sorted.iter_range(lo, hi).collect();
            let from_bitvec: Vec<(Index, &u32)> = bitvec.iter_range(lo, hi).collect();
            assert_eq!(from_sorted, from_bitvec, "range {lo}..{hi}");
        }
    }

    #[test]
    fn no_inline_programs_are_bit_identical_to_the_bare_ones() {
        let el = rmat::generate(&RmatConfig::graph500(8).with_seed(9));
        let session = Session::with_threads(2).unwrap();
        let topology = session.build_graph(&el).finish().unwrap();

        let cfg = PageRankConfig {
            iterations: 4,
            ..Default::default()
        };
        let bare = pagerank_on(&session, &topology, &cfg).unwrap();
        let wrapped = pagerank_no_inline(&session, &topology, &cfg);
        assert_eq!(wrapped.stats.iterations, bare.stats.iterations);
        for (w, b) in wrapped.values.iter().zip(&bare.values) {
            assert_eq!(w.rank.to_bits(), b.to_bits());
        }

        let bare = sssp_on(&session, &topology, 0).unwrap();
        let wrapped = sssp_no_inline(&session, &topology, 0);
        assert_eq!(wrapped.stats.iterations, bare.stats.iterations);
        for (w, b) in wrapped.values.iter().zip(&bare.values) {
            assert_eq!(w.to_bits(), b.to_bits());
        }
    }
}
