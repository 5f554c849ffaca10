//! The paper's input graphs (Table 3) and their synthetic stand-ins.
//!
//! We do not ship the Flickr/Wikipedia/LiveJournal/Netflix datasets (they
//! are external artifacts); instead each dataset is regenerated as an
//! R-MAT graph matched to its published vertex/edge counts — the paper
//! itself uses R-MAT for S24, Bip1 and Bip2, and R-MAT's skewed degree
//! distribution is the standard proxy for such social/web graphs. A
//! `scale_div` parameter shrinks every dataset by a power of two so the
//! full evaluation pipeline runs at laptop scale; the TLB-relevant
//! property (working set far exceeding TLB reach) holds at the default
//! divisor, and harnesses accept `--scale full` for the real sizes.

use crate::csr::Graph;
use crate::rmat::{rmat, to_bipartite, RmatParams};

/// Published properties of one input graph (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Vertices in the paper's dataset (users + items for bipartite).
    pub vertices: u64,
    /// Directed edges (ratings for bipartite).
    pub edges: u64,
    /// Users/items split for bipartite datasets.
    pub bipartite: Option<(u64, u64)>,
    /// Heap size the paper reports, in MiB.
    pub heap_mib: u64,
}

/// One of the paper's evaluation inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Flickr (FR).
    Flickr,
    /// Wikipedia (Wiki).
    Wikipedia,
    /// LiveJournal (LJ).
    LiveJournal,
    /// RMAT Scale 24 (S24).
    Rmat24,
    /// Netflix (NF).
    Netflix,
    /// Synthetic Bipartite 1 (Bip1).
    Bip1,
    /// Synthetic Bipartite 2 (Bip2).
    Bip2,
}

impl Dataset {
    /// Inputs used by BFS/PageRank/SSSP (Figure 8's first three groups).
    pub const GRAPH_SET: [Dataset; 4] = [
        Dataset::Flickr,
        Dataset::Wikipedia,
        Dataset::LiveJournal,
        Dataset::Rmat24,
    ];

    /// Inputs used by Collaborative Filtering.
    pub const CF_SET: [Dataset; 3] = [Dataset::Netflix, Dataset::Bip1, Dataset::Bip2];

    /// All inputs.
    pub const ALL: [Dataset; 7] = [
        Dataset::Flickr,
        Dataset::Wikipedia,
        Dataset::LiveJournal,
        Dataset::Rmat24,
        Dataset::Netflix,
        Dataset::Bip1,
        Dataset::Bip2,
    ];

    /// The paper's abbreviation.
    pub fn short_name(&self) -> &'static str {
        match self {
            Dataset::Flickr => "FR",
            Dataset::Wikipedia => "Wiki",
            Dataset::LiveJournal => "LJ",
            Dataset::Rmat24 => "S24",
            Dataset::Netflix => "NF",
            Dataset::Bip1 => "Bip1",
            Dataset::Bip2 => "Bip2",
        }
    }

    /// Published properties (paper Table 3).
    pub fn spec(&self) -> DatasetSpec {
        match self {
            Dataset::Flickr => DatasetSpec {
                vertices: 820_000,
                edges: 9_840_000,
                bipartite: None,
                heap_mib: 288,
            },
            Dataset::Wikipedia => DatasetSpec {
                vertices: 3_560_000,
                edges: 84_750_000,
                bipartite: None,
                heap_mib: 1290,
            },
            Dataset::LiveJournal => DatasetSpec {
                vertices: 4_840_000,
                edges: 68_990_000,
                bipartite: None,
                heap_mib: 2202,
            },
            Dataset::Rmat24 => DatasetSpec {
                vertices: 1 << 24,
                edges: 16 << 24,
                bipartite: None,
                heap_mib: 6953,
            },
            Dataset::Netflix => DatasetSpec {
                vertices: 480_000 + 18_000,
                edges: 99_070_000,
                bipartite: Some((480_000, 18_000)),
                heap_mib: 2447,
            },
            Dataset::Bip1 => DatasetSpec {
                vertices: 969_000 + 100_000,
                edges: 53_820_000,
                bipartite: Some((969_000, 100_000)),
                heap_mib: 1362,
            },
            Dataset::Bip2 => DatasetSpec {
                vertices: 2_900_000 + 100_000,
                edges: 232_700_000,
                bipartite: Some((2_900_000, 100_000)),
                heap_mib: 5796,
            },
        }
    }

    /// `true` for the rating (users -> items) graphs.
    pub fn is_bipartite(&self) -> bool {
        self.spec().bipartite.is_some()
    }

    /// The R-MAT seed [`Dataset::generate`] uses.
    pub fn seed(&self) -> u64 {
        0xD5A7 ^ (*self as u64)
    }

    /// Generate the synthetic stand-in, shrunk by `scale_div` (a power of
    /// two; 1 = full published size). Deterministic per dataset.
    ///
    /// # Panics
    ///
    /// Panics if `scale_div` is zero or not a power of two.
    pub fn generate(&self, scale_div: u32) -> Graph {
        assert!(
            scale_div > 0 && scale_div.is_power_of_two(),
            "scale_div must be a power of two"
        );
        let spec = self.spec();
        let seed = self.seed();
        match spec.bipartite {
            None => {
                let target_v = (spec.vertices / scale_div as u64).max(1024);
                let scale = 63 - target_v.next_power_of_two().leading_zeros();
                let edgefactor = ((spec.edges / spec.vertices) as u32).max(1);
                rmat(scale, edgefactor, RmatParams::default(), seed)
            }
            Some((users, items)) => {
                let users = (users / scale_div as u64).max(1024) as u32;
                let items = (items / scale_div as u64).max(256) as u32;
                let edges = spec.edges / scale_div as u64;
                // Generate an R-MAT base with enough edges, then fold.
                let base_scale = (31 - users.next_power_of_two().leading_zeros()).max(10);
                let edgefactor = (edges >> base_scale).max(1) as u32;
                let base = rmat(base_scale, edgefactor, RmatParams::default(), seed);
                to_bipartite(&base, users, items)
            }
        }
    }
}

impl core::fmt::Display for Dataset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_sim::fnv1a;

    #[test]
    fn specs_match_table3() {
        assert_eq!(Dataset::Flickr.spec().edges, 9_840_000);
        assert_eq!(Dataset::Rmat24.spec().vertices, 1 << 24);
        assert_eq!(Dataset::Netflix.spec().bipartite, Some((480_000, 18_000)));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Flickr.generate(64);
        let b = Dataset::Flickr.generate(64);
        assert_eq!(a, b);
    }

    #[test]
    fn scaled_sizes_track_spec() {
        let g = Dataset::Flickr.generate(16);
        let spec = Dataset::Flickr.spec();
        // Vertex count is the next power of two below vertices/16.
        assert!(g.num_vertices() as u64 >= spec.vertices / 64);
        assert!(g.num_vertices() as u64 <= spec.vertices / 8);
        // Edge factor preserved within rounding.
        let ef = g.num_edges() / g.num_vertices() as u64;
        assert_eq!(ef, spec.edges / spec.vertices);
    }

    #[test]
    fn bipartite_datasets_generate_bipartite() {
        let g = Dataset::Netflix.generate(64);
        let (users, _items) = Dataset::Netflix.spec().bipartite.unwrap();
        let scaled_users = (users / 64) as u32;
        for e in g.edges().iter().take(1000) {
            assert!(e.src < scaled_users);
            assert!(e.dst >= scaled_users);
        }
    }

    #[test]
    fn netflix_keeps_small_item_side() {
        // NF's temporal locality (paper §6.3.1) comes from the tiny movie
        // side; the stand-in must preserve users >> items.
        let spec = Dataset::Netflix.spec();
        let (users, items) = spec.bipartite.unwrap();
        assert!(users / items > 20);
    }

    #[test]
    fn all_datasets_generate_at_tiny_scale() {
        for ds in Dataset::ALL {
            let g = ds.generate(1024);
            assert!(g.num_vertices() >= 1024, "{ds}");
            assert!(g.num_edges() > 0, "{ds}");
        }
    }

    /// FNV-1a of every dataset's CSR edge array (each edge as
    /// little-endian `src`, `dst` and weight bits) and of its offsets as
    /// little-endian `u64`s, at the smoke-scale divisors, as the generator
    /// produced them before the counting-sort CSR build and the
    /// branch-free R-MAT draws replaced a stable comparison sort and an
    /// `if` chain. Any change to the generated bytes fails here.
    #[test]
    fn generated_bytes_match_pinned_digests() {
        let pinned = [
            (
                Dataset::Flickr,
                256,
                0xdabc_f1e5_7b87_ca0c,
                0x875b_ae6b_8569_e115,
            ),
            (
                Dataset::Wikipedia,
                1024,
                0x896b_694d_1492_c977,
                0xeb7f_0eae_1e86_5e2d,
            ),
            (
                Dataset::LiveJournal,
                1024,
                0x443b_596e_8172_19e4,
                0xb914_a25a_6c3b_06f4,
            ),
            (
                Dataset::Rmat24,
                2048,
                0x40b7_b272_8418_2fb8,
                0x29b7_e6b6_9786_e044,
            ),
            (
                Dataset::Netflix,
                1024,
                0xe793_625c_922a_79f0,
                0xfc9c_7575_23c9_d618,
            ),
            (
                Dataset::Bip1,
                512,
                0x851a_9aaf_b191_4eb6,
                0xb356_9a08_9087_7563,
            ),
            (
                Dataset::Bip2,
                2048,
                0xfbb1_5b1b_71d8_dd8a,
                0x9ced_03ca_ca2a_134d,
            ),
        ];
        for (dataset, divisor, payload, offsets) in pinned {
            let g = dataset.generate(divisor);
            let edge_bytes: Vec<u8> = g
                .edges()
                .iter()
                .flat_map(|e| {
                    [e.src, e.dst, e.weight.to_bits()]
                        .into_iter()
                        .flat_map(u32::to_le_bytes)
                })
                .collect();
            let offset_bytes: Vec<u8> = g.offsets().iter().flat_map(|o| o.to_le_bytes()).collect();
            let got = (fnv1a(&edge_bytes), fnv1a(&offset_bytes));
            assert_eq!(got, (payload, offsets), "{dataset} at divisor {divisor}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_divisor() {
        Dataset::Flickr.generate(3);
    }
}
