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
/// Panics if `scale` is 0 or greater than 31, or if `a`, `b`, `c` are
/// not probabilities summing to at most 1.
pub fn rmat(scale: u32, edgefactor: u32, params: RmatParams, seed: u64) -> Graph {
    assert!((1..=31).contains(&scale), "scale out of range");
    let n = 1u32 << scale;
    let num_edges = n as u64 * edgefactor as u64;
    let cuts = quadrant_cuts(params);
    let mut rng = DetRng::new(seed);
    let mut edges = Vec::with_capacity(num_edges as usize);
    for _ in 0..num_edges {
        let (src, dst) = rmat_edge(scale, &cuts, &mut rng);
        let weight = 1.0 + (rng.unit() * 63.0) as f32;
        edges.push(Edge { src, dst, weight });
    }
    Graph::from_edges(n, edges)
}

/// `2^53`: [`DetRng::unit`] is [`DetRng::unit_bits`] times `2^-53`.
const UNIT_STEPS: f64 = (1u64 << 53) as f64;

/// The cumulative quadrant probabilities `a`, `a+b`, `a+b+c` as cut
/// points for [`DetRng::unit_bits`]. `unit() >= t` holds exactly when
/// `unit_bits() >= ceil(t * 2^53)`: `t * 2^53` is exact, and `unit()`
/// is an integer times `2^-53`.
fn quadrant_cuts(params: RmatParams) -> [u64; 3] {
    let RmatParams { a, b, c } = params;
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0,
        "R-MAT probabilities must be non-negative and sum to at most 1"
    );
    [a, a + b, a + b + c].map(|t| (t * UNIT_STEPS).ceil() as u64)
}

/// The quadrant a 53-bit draw picks, branch-free: 0 top-left, 1
/// top-right, 2 bottom-left, 3 bottom-right. Bit 1 is the source bit and
/// bit 0 the destination bit.
fn quadrant(bits: u64, cuts: &[u64; 3]) -> u32 {
    u32::from(bits >= cuts[0]) + u32::from(bits >= cuts[1]) + u32::from(bits >= cuts[2])
}

/// One edge: a quadrant per level, each from one draw of `rng`.
fn rmat_edge(scale: u32, cuts: &[u64; 3], rng: &mut DetRng) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for _ in 0..scale {
        let q = quadrant(rng.unit_bits(), cuts);
        src = src << 1 | q >> 1;
        dst = dst << 1 | q & 1;
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
    Graph::from_mapped_edges(users + items, graph.edges(), |e| Edge {
        src: e.src % users,
        dst: users + e.dst % items,
        weight: 1.0 + (e.weight % 5.0).floor(),
    })
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

    /// The quadrant the old `if r < a … else if r < a+b …` chain picked
    /// for the draw `r = unit()`.
    fn quadrant_by_chain(r: f64, p: RmatParams) -> u32 {
        if r < p.a {
            0
        } else if r < p.a + p.b {
            1
        } else if r < p.a + p.b + p.c {
            2
        } else {
            3
        }
    }

    /// The branch-free quadrant equals the `if` chain on 4096 seeded
    /// draws and on draws exactly at, one step below and one step above
    /// each threshold `a`, `a+b`, `a+b+c`, under the graph500 and the
    /// uniform parameters.
    #[test]
    fn branch_free_quadrant_matches_if_chain() {
        // `DetRng::unit` of the draw whose `unit_bits` are `bits`.
        let unit = |bits: u64| bits as f64 * (1.0 / (1u64 << 53) as f64);
        let uniform = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
        };
        for p in [RmatParams::default(), uniform] {
            let cuts = quadrant_cuts(p);
            let thresholds = [p.a, p.a + p.b, p.a + p.b + p.c];
            for (t, &cut) in thresholds.into_iter().zip(&cuts) {
                assert_eq!(unit(cut), t, "{p:?}: cut {cut} is not exactly {t}");
                for bits in [cut - 1, cut, cut + 1] {
                    let ctx = format!("{p:?}: bits {bits} at threshold {t}");
                    assert_eq!(
                        quadrant(bits, &cuts),
                        quadrant_by_chain(unit(bits), p),
                        "{ctx}"
                    );
                }
            }
            let mut rng = DetRng::new(11);
            for i in 0..4096 {
                let bits = rng.unit_bits();
                assert_eq!(
                    quadrant(bits, &cuts),
                    quadrant_by_chain(unit(bits), p),
                    "{p:?}: draw {i}, bits {bits}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn rejects_negative_probability() {
        let params = RmatParams {
            a: 0.6,
            b: -0.1,
            c: 0.3,
        };
        rmat(4, 1, params, 1);
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
