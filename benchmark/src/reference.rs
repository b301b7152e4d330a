//! The benchmark's own answers, written against the plain edge tuples so
//! that a wrong result in the engine cannot hide behind the same bug in the
//! code it is checked with: a sequential PageRank, in-degrees, the wire's
//! FNV-1a checksum, and a from-scratch application of update batches.

use crate::adapter::{Edit, State, Values, PAGERANK_ITERATIONS, RANDOM_SURF};
use std::collections::HashMap;

/// Equation 1 of the paper, iterated [`PAGERANK_ITERATIONS`] times from
/// rank 1.0; a vertex that receives nothing keeps its rank, as in the
/// message-driven engine.
pub fn pagerank<E>(num_vertices: u32, edges: &[(u32, u32, E)]) -> Vec<f64> {
    let n = num_vertices as usize;
    let mut degree = vec![0u32; n];
    for (src, _, _) in edges {
        degree[*src as usize] += 1;
    }
    let mut ranks = vec![1.0f64; n];
    let mut incoming = vec![0.0f64; n];
    let mut received = vec![false; n];
    for _ in 0..PAGERANK_ITERATIONS {
        incoming.fill(0.0);
        received.fill(false);
        for (src, dst, _) in edges {
            incoming[*dst as usize] += ranks[*src as usize] / f64::from(degree[*src as usize]);
            received[*dst as usize] = true;
        }
        for v in 0..n {
            if received[v] {
                ranks[v] = RANDOM_SURF + (1.0 - RANDOM_SURF) * incoming[v];
            }
        }
    }
    ranks
}

pub fn in_degrees<E>(num_vertices: u32, edges: &[(u32, u32, E)]) -> Vec<u64> {
    let mut degree = vec![0u64; num_vertices as usize];
    for (_, dst, _) in edges {
        degree[*dst as usize] += 1;
    }
    degree
}

/// Largest relative difference between two rank vectors (`inf` when the
/// lengths differ).
pub fn max_relative_error(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

/// FNV-1a 64 as the wire protocol defines its result checksum: over the
/// little-endian value bytes in vertex order.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

pub fn checksum(values: &Values) -> u64 {
    let mut h = Fnv::new();
    match values {
        Values::F64(v) => v.iter().for_each(|x| h.write(&x.to_le_bytes())),
        Values::U32(v) => v.iter().for_each(|x| h.write(&x.to_le_bytes())),
        Values::F32(v) => v.iter().for_each(|x| h.write(&x.to_le_bytes())),
        Values::U64(v) => v.iter().for_each(|x| h.write(&x.to_le_bytes())),
    }
    h.finish()
}

/// Checksum of the result a run left in a pooled state.
pub fn checksum_state(state: &State) -> u64 {
    let mut h = Fnv::new();
    state.for_each_le_bytes(|bytes| h.write(bytes));
    h.finish()
}

/// Apply update batches to an edge list from scratch, with the semantics
/// `graphmat_delta` documents: ops apply in order, the latest op on a
/// `(src, dst)` pair wins, an insert replaces every stored copy of the pair
/// by one edge, a delete removes every copy.
pub fn apply_edits(edges: &mut Vec<(u32, u32, f32)>, batches: &[&[Edit]]) {
    let mut latest: HashMap<(u32, u32), Option<f32>> = HashMap::new();
    for edit in batches.iter().flat_map(|b| b.iter()) {
        latest.insert((edit.src, edit.dst), edit.insert.then_some(edit.weight));
    }
    edges.retain(|(src, dst, _)| !latest.contains_key(&(*src, *dst)));
    // Sorted, so that the rebuilt edge list does not depend on hash order.
    let mut inserts: Vec<(u32, u32, f32)> = latest
        .into_iter()
        .filter_map(|((src, dst), w)| w.map(|w| (src, dst, w)))
        .collect();
    inserts.sort_by_key(|&(src, dst, _)| (src, dst));
    edges.extend(inserts);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_on_a_cycle_stays_at_one() {
        let edges = [(0, 1, ()), (1, 2, ()), (2, 0, ())];
        for r in pagerank(3, &edges) {
            assert!((r - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn vertices_without_in_edges_keep_their_rank() {
        let ranks = pagerank(3, &[(0, 1, ()), (0, 2, ())]);
        assert_eq!(ranks[0], 1.0);
        assert!((ranks[1] - (RANDOM_SURF + (1.0 - RANDOM_SURF) * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn checksum_matches_the_documented_fnv_vectors() {
        // FNV-1a 64 of "a" is af63dc4c8601ec8c.
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(&Values::U32(vec![])), Fnv::new().finish());
    }

    #[test]
    fn latest_edit_of_a_pair_wins_and_covers_duplicates() {
        let edit = |insert, src, dst, weight| Edit {
            insert,
            src,
            dst,
            weight,
        };
        let mut edges = vec![(0, 1, 1.0), (0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)];
        let first = [edit(true, 0, 1, 9.0), edit(false, 1, 2, 0.0)];
        let second = [
            edit(true, 1, 2, 5.0),
            edit(false, 7, 7, 0.0),
            edit(true, 3, 3, 1.0),
        ];
        apply_edits(&mut edges, &[&first, &second]);
        assert_eq!(
            edges,
            vec![(2, 0, 4.0), (0, 1, 9.0), (1, 2, 5.0), (3, 3, 1.0)]
        );
        assert_eq!(in_degrees(4, &edges), vec![1, 1, 1, 1]);
    }

    #[test]
    fn relative_error_is_symmetric_in_scale() {
        assert_eq!(max_relative_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((max_relative_error(&[1.1], &[1.0]) - 0.1).abs() < 1e-12);
        assert!(max_relative_error(&[1.0], &[1.0, 2.0]).is_infinite());
    }
}
