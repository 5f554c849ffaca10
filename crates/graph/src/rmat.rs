//! Graph500-style R-MAT graph generation (Chakrabarti et al., SIAM'04),
//! the generator the paper uses for its synthetic inputs (§6.2), plus the
//! bipartite conversion of Satish et al. used for the synthetic
//! collaborative-filtering graphs.

use crate::csr::{Edge, Graph};
use dvm_sim::DetRng;

/// R-MAT quadrant probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl Default for RmatParams {
    /// The graph500 reference parameters (a=0.57, b=0.19, c=0.19, d=0.05).
    fn default() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Generate an R-MAT graph with `2^scale` vertices and
/// `edgefactor * 2^scale` directed edges (graph500 conventions).
///
/// Weights are uniform in `[1, 64)` so the same graphs drive both
/// unweighted (BFS/PageRank) and weighted (SSSP) workloads. Duplicate
/// edges and self-loops are kept, as in graph500.
///
/// # Examples
///
/// ```
/// use dvm_graph::{rmat, RmatParams};
/// let g = rmat(10, 16, RmatParams::default(), 42);
/// assert_eq!(g.num_vertices(), 1024);
/// assert_eq!(g.num_edges(), 16 * 1024);
/// ```
///
/// # Panics
///
/// Panics if `scale` is 0 or greater than 31.
pub fn rmat(scale: u32, edgefactor: u32, params: RmatParams, seed: u64) -> Graph {
    assert!((1..=31).contains(&scale), "scale out of range");
    let n = 1u32 << scale;
    let num_edges = n as u64 * edgefactor as u64;
    let mut rng = DetRng::new(seed);
    let mut edges = Vec::with_capacity(num_edges as usize);
    for _ in 0..num_edges {
        let (src, dst) = rmat_edge(scale, params, &mut rng);
        let weight = 1.0 + (rng.unit() * 63.0) as f32;
        edges.push(Edge { src, dst, weight });
    }
    Graph::from_edges(n, edges)
}

fn rmat_edge(scale: u32, params: RmatParams, rng: &mut DetRng) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for _ in 0..scale {
        src <<= 1;
        dst <<= 1;
        let r: f64 = rng.unit();
        if r < params.a {
            // top-left: neither bit set
        } else if r < params.a + params.b {
            dst |= 1;
        } else if r < params.a + params.b + params.c {
            src |= 1;
        } else {
            src |= 1;
            dst |= 1;
        }
    }
    (src, dst)
}

/// Convert a general graph into a bipartite users->items rating graph
/// following the methodology of Satish et al. (§6.2): edge endpoints are
/// folded into a user set of `users` vertices and an item set of `items`
/// vertices appended after the users; weights become ratings in `[1, 5]`.
///
/// # Examples
///
/// ```
/// use dvm_graph::{rmat, to_bipartite, RmatParams};
/// let g = rmat(8, 8, RmatParams::default(), 1);
/// let b = to_bipartite(&g, 200, 50);
/// assert_eq!(b.num_vertices(), 250);
/// // Every edge goes from a user to an item.
/// for e in b.edges() {
///     assert!(e.src < 200);
///     assert!((200..250).contains(&e.dst));
/// }
/// ```
///
/// # Panics
///
/// Panics if `users == 0` or `items == 0`.
pub fn to_bipartite(graph: &Graph, users: u32, items: u32) -> Graph {
    assert!(users > 0 && items > 0, "bipartite sets must be non-empty");
    let edges = graph
        .edges()
        .iter()
        .map(|e| Edge {
            src: e.src % users,
            dst: users + e.dst % items,
            weight: 1.0 + (e.weight % 5.0).floor(),
        })
        .collect();
    Graph::from_edges(users + items, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = rmat(8, 8, RmatParams::default(), 7);
        let b = rmat(8, 8, RmatParams::default(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = rmat(8, 8, RmatParams::default(), 1);
        let b = rmat(8, 8, RmatParams::default(), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn skewed_degree_distribution() {
        // RMAT graphs are hub-heavy: the max out-degree should far exceed
        // the mean (16).
        let g = rmat(12, 16, RmatParams::default(), 3);
        let max_deg = (0..g.num_vertices())
            .map(|v| g.out_degree(v))
            .max()
            .unwrap();
        assert!(max_deg > 100, "max degree {max_deg} not hub-like");
    }

    #[test]
    fn uniform_params_are_not_skewed() {
        let uniform = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
        };
        let g = rmat(12, 16, uniform, 3);
        let max_deg = (0..g.num_vertices())
            .map(|v| g.out_degree(v))
            .max()
            .unwrap();
        assert!(max_deg < 60, "uniform max degree {max_deg} too skewed");
    }

    #[test]
    fn weights_in_range() {
        let g = rmat(6, 4, RmatParams::default(), 5);
        for e in g.edges() {
            assert!((1.0..64.0).contains(&e.weight));
        }
    }

    /// 64 seeded `scale` in 4..10, edge factor in 1..8: an R-MAT graph has
    /// exactly `2^scale` vertices and `ef * 2^scale` edges.
    #[test]
    fn rmat_size_contract() {
        for case in 0..64u64 {
            let mut rng = DetRng::new(case);
            let (scale, ef) = (rng.range(4, 10) as u32, rng.range(1, 8) as u32);
            let seed = rng.below(1000);
            let g = rmat(scale, ef, RmatParams::default(), seed);
            let ctx = format!("case {case}: rmat({scale}, {ef}, seed {seed})");
            assert_eq!(g.num_vertices(), 1 << scale, "{ctx}");
            assert_eq!(g.num_edges(), u64::from(ef) << scale, "{ctx}");
        }
    }

    /// A bipartite split keeps every edge, sends every edge from a user
    /// to an item, and rates it in `[1, 5]`: one fixed split plus 64
    /// seeded splits of `rmat(7, 4)` into 10..200 users and 5..50 items.
    #[test]
    fn bipartite_ratings_in_range() {
        let g = rmat(8, 8, RmatParams::default(), 9);
        let b = to_bipartite(&g, 100, 20);
        for e in b.edges() {
            assert!((1.0..=5.0).contains(&e.weight));
        }
        for case in 0..64u64 {
            let mut rng = DetRng::new(case);
            let seed = rng.below(200);
            let (users, items) = (rng.range(10, 200) as u32, rng.range(5, 50) as u32);
            let base = rmat(7, 4, RmatParams::default(), seed);
            let b = to_bipartite(&base, users, items);
            let ctx = format!("case {case}: seed {seed}, {users} users, {items} items");
            assert_eq!(b.num_vertices(), users + items, "{ctx}");
            assert_eq!(b.num_edges(), base.num_edges(), "{ctx}");
            for (i, e) in b.edges().iter().enumerate() {
                assert!(e.src < users, "{ctx} edge {i}: {e:?}");
                assert!(
                    (users..users + items).contains(&e.dst),
                    "{ctx} edge {i}: {e:?}"
                );
                assert!((1.0..=5.0).contains(&e.weight), "{ctx} edge {i}: {e:?}");
            }
        }
    }
}
