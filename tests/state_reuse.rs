//! Pooled-state acceptance test: one `VertexState` (and the engine
//! `Workspace` cached inside it) is reused across runs through
//! `RunBuilder::execute_with`, and every rerun is identical to a fresh-state
//! run — no stale active bits or properties leak through, no buffers are
//! reallocated.

use graphmat::prelude::*;

/// A high-diameter weighted road grid: SSSP runs many supersteps here, so
/// stale state (a leftover active bit would relaunch a frontier; a leftover
/// distance would short-circuit relaxation) cannot hide.
fn road_edges() -> EdgeList<f32> {
    graphmat::io::grid::generate(&GridConfig {
        removal_fraction: 0.05,
        num_shortcuts: 4,
        ..GridConfig::square(40)
    })
}

#[test]
fn sssp_rerun_through_one_pooled_state_matches_fresh_state_runs() {
    let edges = road_edges();
    let session = Session::with_threads(2).expect("session");
    let topo = session.build_graph(&edges).finish().expect("topology");

    struct SsspLike;
    impl GraphProgram for SsspLike {
        type VertexProp = f32;
        type Message = f32;
        type Reduced = f32;
        type Edge = f32;
        fn send_message(&self, _v: VertexId, d: &f32) -> Option<f32> {
            Some(*d)
        }
        fn process_message(&self, m: &f32, e: &f32, _d: &f32) -> f32 {
            m + e
        }
        fn reduce(&self, acc: &mut f32, v: f32) {
            if v < *acc {
                *acc = v;
            }
        }
        fn apply(&self, r: &f32, d: &mut f32) {
            if *r < *d {
                *d = *r;
            }
        }
    }

    let fresh = |source: VertexId| {
        session
            .run(&*topo, SsspLike)
            .init_all(f32::MAX)
            .seed_with(source, 0.0)
            .execute()
            .unwrap()
    };
    let pooled = |state: &mut VertexState<f32>, source: VertexId| {
        session
            .run(&*topo, SsspLike)
            .init_all(f32::MAX)
            .seed_with(source, 0.0)
            .execute_with(state)
            .unwrap()
    };

    let mut state: VertexState<f32> = VertexState::for_topology(&topo);
    assert!(!state.has_cached_workspace());

    // Run 1 (cold state) vs fresh: identical.
    let fresh_a = fresh(0);
    let pooled_a = pooled(&mut state, 0);
    assert_eq!(state.properties(), &fresh_a.values[..]);
    assert_eq!(pooled_a.stats.iterations, fresh_a.stats.iterations);
    assert!(
        state.has_cached_workspace(),
        "the run's workspace must be cached for the next run"
    );
    assert!(
        fresh_a.stats.iterations > 20,
        "grid SSSP must run many supersteps for this test to mean anything"
    );

    // Run 2: SAME state, SAME workspace, different source. If any active
    // bit or distance leaked from run 1, these values would differ.
    let source_b = 40 * 40 - 1; // opposite corner
    let fresh_b = fresh(source_b);
    pooled(&mut state, source_b);
    assert_eq!(
        state.properties(),
        &fresh_b.values[..],
        "second pooled run must be bit-identical to a fresh-state run"
    );

    // Run 3: back to the first source — full round trip through the pool.
    pooled(&mut state, 0);
    assert_eq!(state.properties(), &fresh_a.values[..]);
}

#[test]
fn workspace_cache_is_dropped_when_the_program_type_changes() {
    let edges = road_edges().topology();
    let session = Session::sequential();
    let topo = session.build_graph(&edges).finish().unwrap();

    struct MinHops;
    impl GraphProgram for MinHops {
        type VertexProp = u32;
        type Message = u32;
        type Reduced = u32;
        type Edge = ();
        fn send_message(&self, _v: VertexId, d: &u32) -> Option<u32> {
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

    /// Same state type (u32) but a different program type: the cached
    /// workspace of `MinHops` must not be handed to `MaxLabel`.
    struct MaxLabel;
    impl GraphProgram for MaxLabel {
        type VertexProp = u32;
        type Message = u32;
        type Reduced = u32;
        type Edge = ();
        fn send_message(&self, _v: VertexId, l: &u32) -> Option<u32> {
            Some(*l)
        }
        fn process_message(&self, m: &u32, _e: &(), _d: &u32) -> u32 {
            *m
        }
        fn reduce(&self, acc: &mut u32, v: u32) {
            *acc = (*acc).max(v);
        }
        fn apply(&self, r: &u32, l: &mut u32) {
            if *r > *l {
                *l = *r;
            }
        }
    }

    let mut state: VertexState<u32> = VertexState::for_topology(&topo);
    session
        .run(&*topo, MinHops)
        .init_all(u32::MAX)
        .seed_with(0, 0)
        .execute_with(&mut state)
        .unwrap();
    let hops = state.properties().to_vec();

    // Different program, same pooled state: must still be correct.
    session
        .run(&*topo, MaxLabel)
        .init_with(&|v| v)
        .activate_all()
        .execute_with(&mut state)
        .unwrap();
    let labels = state.properties().to_vec();
    let expected_max = topo.num_vertices() - 1;
    // The grid is (nearly) connected; the max label floods everywhere it
    // can reach. Compare against a fresh-state run of the same program.
    let fresh = session
        .run(&*topo, MaxLabel)
        .init_with(&|v| v)
        .activate_all()
        .execute()
        .unwrap();
    assert_eq!(labels, fresh.values);
    assert!(labels.contains(&expected_max));

    // And back to the first program type once more.
    session
        .run(&*topo, MinHops)
        .init_all(u32::MAX)
        .seed_with(0, 0)
        .execute_with(&mut state)
        .unwrap();
    assert_eq!(state.properties(), &hops[..]);
}
