//! Pooled [`VertexState`] reuse for serving workloads.
//!
//! The serving pattern GraphMat's resident matrix enables — one
//! `Arc<Topology>`, many independent queries — only stays allocation-free if
//! the per-run mutable half is recycled too. A fresh [`VertexState`] per
//! query allocates the property vector, the active bit vector *and* (on
//! first use inside the engine) a full [`crate::engine::Workspace`]; at high
//! query rates that is megabytes of allocator traffic per second for buffers
//! whose sizes never change.
//!
//! [`StatePool`] is the reuse hook: a worker acquires a state, runs a query
//! through [`crate::session::RunBuilder::execute_with`] (which also recycles
//! the workspace cached *inside* the state), and releases the state back.
//! After warm-up the pool stops growing and steady-state serving performs no
//! per-query allocation — the growth counters ([`StatePool::created`],
//! [`StatePool::reused`]) make that property observable, so servers can
//! export it as a metric and tests can assert it.
//!
//! The pool is deliberately **not** synchronised: the intended deployment is
//! one pool per worker thread per program type (the workspace cached in a
//! state is typed by the program, so mixing programs in one pool would
//! thrash the cache and re-allocate workspaces). A `Mutex<StatePool>` works
//! where sharing is genuinely needed.

use crate::state::VertexState;
use crate::topology::Topology;

/// A free-list of [`VertexState`]s for one vertex count (and, by
/// convention, one program type), with growth counters.
#[derive(Debug)]
pub struct StatePool<V> {
    free: Vec<VertexState<V>>,
    num_vertices: usize,
    created: usize,
    reused: usize,
    quarantined: usize,
}

impl<V: Clone + Default> StatePool<V> {
    /// An empty pool producing states for `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        StatePool {
            free: Vec::new(),
            num_vertices,
            created: 0,
            reused: 0,
            quarantined: 0,
        }
    }

    /// An empty pool matched to a topology's vertex count.
    pub fn for_topology<E>(topology: &Topology<E>) -> Self {
        StatePool::new(topology.num_vertices() as usize)
    }

    /// Take a state from the pool, or create a fresh one if the pool is
    /// empty (counted by [`StatePool::created`]). A recycled state keeps its
    /// previous properties and cached workspace — runs that need a
    /// deterministic cold start must re-initialise (the `RunBuilder`
    /// `init_all`/`init_with`/`seed_with` path does exactly that).
    pub fn acquire(&mut self) -> VertexState<V> {
        match self.free.pop() {
            Some(state) => {
                self.reused += 1;
                state
            }
            None => {
                self.created += 1;
                VertexState::new(self.num_vertices)
            }
        }
    }

    /// Return a state to the pool. States of the wrong vertex count are
    /// dropped instead of pooled — handing one out later would only turn
    /// into a [`crate::error::GraphMatError::StateLengthMismatch`] at run
    /// time.
    pub fn release(&mut self, state: VertexState<V>) {
        if state.num_vertices() == self.num_vertices {
            self.free.push(state);
        }
    }

    /// Quarantine a state instead of recycling it: drop it on the floor and
    /// count it. A run that panicked mid-superstep may leave its state (and
    /// the workspace cached inside it) half-written; recycling it would hand
    /// the corruption to an unrelated future query, so panic-isolation
    /// wrappers retire the state here and let the pool re-allocate. The
    /// counter makes leak accounting possible: after recovery,
    /// `created == reused-misses + quarantined + available + in-flight`.
    pub fn quarantine(&mut self, state: VertexState<V>) {
        drop(state);
        self.quarantined += 1;
    }

    /// Number of states this pool has allocated so far. Constant after
    /// warm-up ⇔ steady-state serving allocates no per-query state.
    pub fn created(&self) -> usize {
        self.created
    }

    /// Number of acquisitions served by recycling instead of allocation.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// Number of possibly-corrupt states retired via
    /// [`StatePool::quarantine`] instead of recycled.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Number of states currently parked in the pool.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// The vertex count this pool's states are sized for.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_recycles_instead_of_allocating() {
        let mut pool: StatePool<u32> = StatePool::new(8);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.created(), 2);
        assert_eq!(pool.reused(), 0);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.available(), 2);
        for _ in 0..10 {
            let s = pool.acquire();
            pool.release(s);
        }
        assert_eq!(pool.created(), 2, "steady state allocates nothing");
        assert_eq!(pool.reused(), 10);
    }

    #[test]
    fn recycled_state_keeps_its_cached_workspace() {
        use crate::session::Session;
        use graphmat_io::edgelist::EdgeList;

        struct Hops;
        impl crate::program::GraphProgram for Hops {
            type VertexProp = u32;
            type Message = u32;
            type Reduced = u32;
            type Edge = ();
            fn send_message(&self, _v: u32, d: &u32) -> Option<u32> {
                Some(*d)
            }
            fn process_message(&self, m: &u32, _e: &(), _d: &u32) -> u32 {
                m.saturating_add(1)
            }
            fn reduce(&self, acc: &mut u32, v: u32) {
                *acc = (*acc).min(v);
            }
            fn apply(&self, r: &u32, d: &mut u32) {
                *d = (*d).min(*r);
            }
        }

        let session = Session::sequential();
        let edges = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]);
        let topo = session.build_graph(&edges).finish().unwrap();
        let mut pool: StatePool<u32> = StatePool::for_topology(&topo);

        for round in 0..3 {
            let mut state = pool.acquire();
            session
                .run(&topo, Hops)
                .init_all(u32::MAX)
                .seed_with(0, 0)
                .execute_with(&mut state)
                .unwrap();
            assert_eq!(state.properties(), &[0, 1, 2, 3]);
            if round > 0 {
                assert!(
                    state.has_cached_workspace(),
                    "recycled state must carry its workspace"
                );
            }
            pool.release(state);
        }
        assert_eq!(pool.created(), 1);
        assert_eq!(pool.reused(), 2);
    }

    #[test]
    fn wrong_length_state_is_dropped_not_pooled() {
        let mut pool: StatePool<u32> = StatePool::new(8);
        pool.release(VertexState::new(5));
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn quarantined_state_is_retired_not_recycled() {
        let mut pool: StatePool<u32> = StatePool::new(8);
        let a = pool.acquire();
        let b = pool.acquire();
        pool.quarantine(a);
        pool.release(b);
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.available(), 1, "quarantined state must not be pooled");
        // The next burst re-allocates only what was quarantined.
        let _c = pool.acquire();
        let _d = pool.acquire();
        assert_eq!(pool.reused(), 1);
        assert_eq!(pool.created(), 3);
    }
}
