//! The losing side of the paper's `-ipo` ablation, reconstructed outside the
//! engine.
//!
//! The engine monomorphises every program's callbacks into the SpMV kernels
//! (the `-ipo` build of §4.5). To keep Figure 7's naive row reproducible this
//! module provides what the engine does not carry: [`NoInline`], a
//! [`GraphProgram`] adapter that keeps `process_message`/`reduce` out of
//! line — the "before `-ipo`" build — and the PageRank/SSSP runs that row
//! times through it. It needs no seam in the engine: the adapter is an
//! ordinary program.
//!
//! Figure 7's "+bitvector" step cannot be rebuilt this way (it needs a
//! second vector type inside the kernels); its measured cost is recorded in
//! this crate's README.

use graphmat_algorithms::pagerank::{PageRankConfig, PageRankProgram, PageRankVertex};
use graphmat_algorithms::sssp::{SsspProgram, UNREACHABLE};
use graphmat_core::{
    ActivityPolicy, EdgeDirection, GraphProgram, RunOutcome, Session, Topology, VertexId,
};

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

    fn receives(&self, prop: &P::VertexProp) -> bool {
        self.0.receives(prop)
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
