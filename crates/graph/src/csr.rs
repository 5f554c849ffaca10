//! Compressed sparse row (CSR) graph representation, matching the layout
//! Graphicionado streams: an edge array of `(srcid, dstid, weight)`
//! 3-tuples sorted by source, plus an offset array indexing each vertex's
//! out-edges (§6.1).

/// One directed edge as stored in the accelerator's edge list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex id.
    pub src: u32,
    /// Destination vertex id.
    pub dst: u32,
    /// Edge weight (1.0 for unweighted workloads; a rating for CF).
    pub weight: f32,
}

/// A directed graph in CSR form.
///
/// # Examples
///
/// ```
/// use dvm_graph::{Edge, Graph};
/// let g = Graph::from_edges(3, vec![
///     Edge { src: 0, dst: 1, weight: 1.0 },
///     Edge { src: 0, dst: 2, weight: 2.0 },
///     Edge { src: 2, dst: 0, weight: 3.0 },
/// ]);
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.out_edges(0).len(), 2);
/// assert_eq!(g.out_edges(1).len(), 0);
/// assert_eq!(g.out_edges(2)[0].dst, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    num_vertices: u32,
    /// `offsets[v]..offsets[v+1]` indexes `edges` for vertex `v`.
    offsets: Vec<u64>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Build a CSR graph from an edge list (any order; sorted internally).
    ///
    /// The edge array ends up exactly as a stable sort by `(src, dst)`
    /// would leave it: edges that share both endpoints keep their input
    /// order. It is built by a counting sort on `src` (whose counts are
    /// the offsets) and a stable sort by `dst` within each vertex.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= num_vertices`.
    pub fn from_edges(num_vertices: u32, edges: Vec<Edge>) -> Self {
        let graph = Self::scatter_by_source(num_vertices, &edges, |e| *e);
        drop(edges);
        graph.sort_out_edges()
    }

    /// [`Graph::from_edges`] of `edges.iter().map(map)`, without ever
    /// holding the mapped list: the map runs once to count sources and
    /// once to scatter.
    pub(crate) fn from_mapped_edges(
        num_vertices: u32,
        edges: &[Edge],
        map: impl Fn(&Edge) -> Edge,
    ) -> Self {
        Self::scatter_by_source(num_vertices, edges, map).sort_out_edges()
    }

    /// A graph whose offsets are final and whose out-edges sit in their
    /// vertex's slot in input order (a stable counting sort on `src`).
    fn scatter_by_source(num_vertices: u32, edges: &[Edge], map: impl Fn(&Edge) -> Edge) -> Self {
        let mut offsets = vec![0u64; num_vertices as usize + 1];
        for e in edges {
            let e = map(e);
            assert!(
                e.src < num_vertices && e.dst < num_vertices,
                "edge ({}, {}) beyond {num_vertices} vertices",
                e.src,
                e.dst
            );
            offsets[e.src as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets.clone();
        let mut slots = vec![
            Edge {
                src: 0,
                dst: 0,
                weight: 0.0,
            };
            edges.len()
        ];
        for e in edges {
            let e = map(e);
            let slot = &mut next[e.src as usize];
            slots[*slot as usize] = e;
            *slot += 1;
        }
        Self {
            num_vertices,
            offsets,
            edges: slots,
        }
    }

    /// Stably sort every vertex's out-edges by `dst`, which turns the
    /// source-bucketed array into the stable `(src, dst)` order. Each
    /// slice sorts `dst << 32 | position` keys, whose position half keeps
    /// equal `dst`s in input order; an unstable sort of plain `u64`s runs
    /// about twice as fast as a stable sort of the 12-byte edges.
    fn sort_out_edges(mut self) -> Self {
        let mut keys = Vec::new();
        let mut unsorted = Vec::new();
        for w in self.offsets.windows(2) {
            let out = &mut self.edges[w[0] as usize..w[1] as usize];
            if out.len() < 2 {
                continue;
            }
            assert!(u32::try_from(out.len()).is_ok(), "vertex degree beyond u32");
            keys.clear();
            keys.extend(
                out.iter()
                    .enumerate()
                    .map(|(i, e)| u64::from(e.dst) << 32 | i as u64),
            );
            keys.sort_unstable();
            unsorted.clear();
            unsorted.extend_from_slice(out);
            for (slot, key) in out.iter_mut().zip(&keys) {
                *slot = unsorted[*key as u32 as usize];
            }
        }
        self
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Out-edges of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn out_edges(&self, v: u32) -> &[Edge] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Out-degree of vertex `v`.
    pub fn out_degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The full edge array in CSR order (what the accelerator streams).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The offset array (`num_vertices + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Reverse all edges (used to build pull-based vertex programs).
    pub fn transpose(&self) -> Graph {
        Graph::from_mapped_edges(self.num_vertices, &self.edges, |e| Edge {
            src: e.dst,
            dst: e.src,
            weight: e.weight,
        })
    }

    /// Approximate bytes the accelerator-resident data occupies: edge list
    /// (12 B/edge), offsets (8 B/vertex) and one 4-byte property plus one
    /// 4-byte temporary per vertex. Used for dataset heap-size reporting.
    pub fn footprint_bytes(&self) -> u64 {
        self.num_edges() * 12 + (self.num_vertices as u64 + 1) * 8 + self.num_vertices as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_sim::DetRng;
    use std::collections::BTreeMap;

    /// Up to `max_edges - 1` random edges over `n` vertices, with weights
    /// from 1 to 64.
    fn random_edges(rng: &mut DetRng, n: u32, max_edges: u64) -> Vec<Edge> {
        (0..rng.below(max_edges))
            .map(|_| Edge {
                src: rng.below(u64::from(n)) as u32,
                dst: rng.below(u64::from(n)) as u32,
                weight: 1.0 + 63.0 * rng.unit() as f32,
            })
            .collect()
    }

    fn diamond() -> Graph {
        Graph::from_edges(
            4,
            vec![
                Edge {
                    src: 0,
                    dst: 1,
                    weight: 1.0,
                },
                Edge {
                    src: 0,
                    dst: 2,
                    weight: 1.0,
                },
                Edge {
                    src: 1,
                    dst: 3,
                    weight: 1.0,
                },
                Edge {
                    src: 2,
                    dst: 3,
                    weight: 1.0,
                },
            ],
        )
    }

    #[test]
    fn csr_offsets_are_prefix_sums() {
        let g = diamond();
        assert_eq!(g.offsets(), &[0, 2, 3, 4, 4]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        // 64 seeded edge sets of 0..300 edges over 100 vertices.
        for seed in 0..64u64 {
            let g = Graph::from_edges(100, random_edges(&mut DetRng::new(seed), 100, 300));
            let offsets = g.offsets();
            assert_eq!(offsets.len(), 101, "seed {seed}");
            assert_eq!(offsets[0], 0, "seed {seed}");
            assert_eq!(offsets[100], g.num_edges(), "seed {seed}");
            for (v, w) in offsets.windows(2).enumerate() {
                assert!(w[0] <= w[1], "seed {seed} vertex {v}: {w:?}");
            }
        }
    }

    /// 64 seeded edge sets of 0..400 edges over 64 vertices: every
    /// vertex's CSR out-edges are exactly the multiset of (dst, weight)
    /// pairs the edge list gives it.
    #[test]
    fn csr_matches_naive_adjacency() {
        for seed in 0..64u64 {
            let edges = random_edges(&mut DetRng::new(seed), 64, 400);
            let g = Graph::from_edges(64, edges.clone());
            assert_eq!(g.num_edges(), edges.len() as u64, "seed {seed}");
            let mut model: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
            for e in &edges {
                model
                    .entry(e.src)
                    .or_default()
                    .push((e.dst, e.weight.to_bits()));
            }
            for v in 0..64u32 {
                let mut got: Vec<(u32, u32)> = g
                    .out_edges(v)
                    .iter()
                    .map(|e| (e.dst, e.weight.to_bits()))
                    .collect();
                got.sort_unstable();
                let mut want = model.remove(&v).unwrap_or_default();
                want.sort_unstable();
                assert_eq!(got, want, "seed {seed} vertex {v}");
                assert_eq!(g.out_degree(v), got.len() as u64, "seed {seed} vertex {v}");
            }
        }
    }

    /// 64 seeded edge lists heavy in repeated `(src, dst)` pairs with
    /// distinct weights, over 1..40 vertices with a hub at vertex 0 and
    /// isolated vertices (case 0 has no edges): `from_edges` and
    /// `transpose` leave the edges exactly where a stable `(src, dst)`
    /// sort puts them, ties included.
    #[test]
    fn csr_order_is_the_stable_source_destination_sort() {
        let stable_sort = |mut edges: Vec<Edge>| {
            edges.sort_by_key(|e| (e.src, e.dst));
            edges
        };
        for seed in 0..64u64 {
            let mut rng = DetRng::new(seed);
            let n = rng.range(1, 40) as u32;
            let len = if seed == 0 { 0 } else { rng.below(600) };
            // Sources and destinations come from a few low ids, so most
            // pairs repeat; half the sources are the hub.
            let span = u64::from(n.min(4));
            let edges: Vec<Edge> = (0..len)
                .map(|i| Edge {
                    src: if rng.chance(0.5) {
                        0
                    } else {
                        rng.below(span) as u32
                    },
                    dst: rng.below(span) as u32,
                    weight: i as f32,
                })
                .collect();
            let g = Graph::from_edges(n, edges.clone());
            assert_eq!(g.edges(), &stable_sort(edges.clone())[..], "seed {seed}");
            let reversed = edges
                .iter()
                .map(|e| Edge {
                    src: e.dst,
                    dst: e.src,
                    weight: e.weight,
                })
                .collect();
            assert_eq!(
                g.transpose().edges(),
                &stable_sort(reversed)[..],
                "seed {seed} transposed"
            );
            for v in 0..n {
                let degree = edges.iter().filter(|e| e.src == v).count() as u64;
                assert_eq!(g.out_degree(v), degree, "seed {seed} vertex {v}");
            }
        }
    }

    #[test]
    fn edges_sorted_by_source() {
        let g = Graph::from_edges(
            3,
            vec![
                Edge {
                    src: 2,
                    dst: 0,
                    weight: 1.0,
                },
                Edge {
                    src: 0,
                    dst: 1,
                    weight: 1.0,
                },
            ],
        );
        assert_eq!(g.edges()[0].src, 0);
        assert_eq!(g.edges()[1].src, 2);
    }

    #[test]
    fn transpose_reverses() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        assert_eq!(t.out_degree(3), 2);
        assert_eq!(t.out_degree(0), 0);
        // Transposing twice is the identity: 64 seeded edge sets of
        // 0..200 edges over 32 vertices.
        for seed in 0..64u64 {
            let g = Graph::from_edges(32, random_edges(&mut DetRng::new(seed), 32, 200));
            assert_eq!(g.transpose().transpose(), g, "seed {seed}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(5, vec![]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_edges(4).len(), 0);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn rejects_out_of_range_edges() {
        Graph::from_edges(
            2,
            vec![Edge {
                src: 0,
                dst: 5,
                weight: 1.0,
            }],
        );
    }

    #[test]
    fn footprint_scales_with_size() {
        let g = diamond();
        assert_eq!(g.footprint_bytes(), 4 * 12 + 5 * 8 + 4 * 8);
    }
}
