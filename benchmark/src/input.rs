//! Everything a workload draws from `--seed` besides the graph itself:
//! query roots, update batches, the order of a traffic mix. The generator is
//! the benchmark's own (SplitMix64), so inputs do not change when the
//! repository's generators do.

use crate::adapter::Edit;

pub struct Rng(u64);

impl Rng {
    /// Independent streams for one seed: `stream` separates roots from
    /// edits from each connection's mix.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything a
    /// workload could notice.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `count` distinct vertices with out-degree >= 1 (fewer if the graph has
/// fewer such vertices).
pub fn pick_roots(rng: &mut Rng, out_degrees: &[u32], count: usize) -> Vec<u32> {
    let eligible = out_degrees.iter().filter(|&&d| d > 0).count();
    let mut roots = Vec::new();
    while roots.len() < count.min(eligible) {
        let v = rng.below(out_degrees.len() as u64) as u32;
        if out_degrees[v as usize] > 0 && !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}

/// Sources for the road grid: one near each quarter point of the two
/// diagonals, drawn from the seed inside a window of `side/20` cells.
/// Superstep counts follow the source's distance to the far corner, so
/// sources drawn over the whole grid would make the run length depend on the
/// seed more than on the code.
pub fn pick_grid_sources(rng: &mut Rng, out_degrees: &[u32], side: u32) -> Vec<u32> {
    let window = (side / 20).max(1);
    let (near, far) = (side / 4, 3 * side / 4);
    [(near, near), (far, far), (near, far), (far, near)]
        .into_iter()
        .map(|(ax, ay)| loop {
            let x = ax + rng.below(u64::from(window)) as u32;
            let y = ay + rng.below(u64::from(window)) as u32;
            let v = y * side + x;
            if out_degrees[v as usize] > 0 {
                break v;
            }
        })
        .collect()
}

/// One update batch: deletions of existing edges and insertions of random
/// pairs, alternating, `len` edits in all.
pub fn edit_batch(
    rng: &mut Rng,
    num_vertices: u32,
    base: &[(u32, u32, f32)],
    len: usize,
) -> Vec<Edit> {
    (0..len)
        .map(|i| {
            if i % 2 == 0 {
                let (src, dst, _) = base[rng.below(base.len() as u64) as usize];
                Edit {
                    insert: false,
                    src,
                    dst,
                    weight: 0.0,
                }
            } else {
                let src = rng.below(u64::from(num_vertices)) as u32;
                let mut dst = rng.below(u64::from(num_vertices)) as u32;
                if dst == src {
                    dst = (dst + 1) % num_vertices;
                }
                Edit {
                    insert: true,
                    src,
                    dst,
                    weight: (1 + rng.below(10)) as f32,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_streams_differ() {
        let draws = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(7, 2));
        assert_ne!(draws(7, 1), draws(8, 1));
    }

    #[test]
    fn roots_are_distinct_and_have_out_edges() {
        let degrees = [0, 3, 0, 1, 2, 0];
        let roots = pick_roots(&mut Rng::new(1, 0), &degrees, 16);
        assert_eq!(roots.len(), 3);
        assert!(roots.iter().all(|&v| degrees[v as usize] > 0));
    }

    #[test]
    fn edits_stay_in_range_and_never_insert_self_loops() {
        let base = [(0, 1, 1.0), (1, 2, 1.0)];
        let batch = edit_batch(&mut Rng::new(3, 0), 3, &base, 64);
        assert_eq!(batch.len(), 64);
        for e in &batch {
            assert!(e.src < 3 && e.dst < 3);
            assert!(!e.insert || e.src != e.dst);
        }
    }
}
