//! Seeded workload inputs.
//!
//! Seed 0 gives exactly the stock inputs: [`Dataset::generate`] at the
//! quick divisors and [`ChurnConfig`]'s default seed, so seed-0 reports
//! can be compared byte for byte with the figure goldens. Any other seed
//! is mixed into the R-MAT seed or the churn seed; sizes never change.

use crate::Size;
use dvm_core::{ChurnConfig, Dataset, MapFlavor};
use dvm_graph::{rmat, to_bipartite, Graph, RmatParams};

/// The value a benchmark seed XORs into the stock generator seeds:
/// 0 for seed 0, a splitmix64 scramble of the seed otherwise (so
/// neighbouring seeds give unrelated graphs).
pub fn seed_mix(seed: u64) -> u64 {
    if seed == 0 {
        return 0;
    }
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input graph for `dataset` at `divisor` under benchmark `seed`.
pub fn dataset_graph(dataset: Dataset, divisor: u32, seed: u64) -> Graph {
    if seed == 0 {
        dataset.generate(divisor)
    } else {
        generate_with_seed(dataset, divisor, dataset.seed() ^ seed_mix(seed))
    }
}

/// [`Dataset::generate`] with its R-MAT seed replaced by `rmat_seed`;
/// with `rmat_seed == dataset.seed()` it is `Dataset::generate` exactly
/// (the tests pin that), so only the seed differs between the stock and
/// the seeded inputs.
pub fn generate_with_seed(dataset: Dataset, divisor: u32, rmat_seed: u64) -> Graph {
    assert!(
        divisor > 0 && divisor.is_power_of_two(),
        "divisor must be a power of two"
    );
    let spec = dataset.spec();
    match spec.bipartite {
        None => {
            let target_v = (spec.vertices / divisor as u64).max(1024);
            let scale = 63 - target_v.next_power_of_two().leading_zeros();
            let edgefactor = ((spec.edges / spec.vertices) as u32).max(1);
            rmat(scale, edgefactor, RmatParams::default(), rmat_seed)
        }
        Some((users, items)) => {
            let users = (users / divisor as u64).max(1024) as u32;
            let items = (items / divisor as u64).max(256) as u32;
            let edges = spec.edges / divisor as u64;
            let base_scale = (31 - users.next_power_of_two().leading_zeros()).max(10);
            let edgefactor = (edges >> base_scale).max(1) as u32;
            let base = rmat(base_scale, edgefactor, RmatParams::default(), rmat_seed);
            to_bipartite(&base, users, items)
        }
    }
}

/// The churn scenario for one page-table flavour: at [`Size::Quick`] the
/// `churn` harness's paper-scale scenario (12 arrivals per epoch) cut to
/// 48 epochs, on a 4 GiB machine; at [`Size::Smoke`] its smoke scenario.
///
/// The harness's 2 GiB machine saturates (hundreds of out-of-memory
/// events per unit), and an out-of-memory fork can leak the frames of
/// its half-built child (seed 4 leaks 373 under DVM-PE), which the gate
/// must count as a failure. At 4 GiB no seed tried runs out of memory.
pub fn churn_config(size: Size, flavor: MapFlavor, seed: u64) -> ChurnConfig {
    let base = match size {
        Size::Quick => ChurnConfig {
            mem_bytes: 4 << 30,
            epochs: 48,
            arrivals_per_epoch: 12,
            mean_lifetime_epochs: 8,
            max_region_bytes: 16 << 20,
            ..ChurnConfig::default()
        },
        Size::Smoke => ChurnConfig {
            mem_bytes: 128 << 20,
            epochs: 12,
            arrivals_per_epoch: 5,
            cow_fork_fraction: 0.4,
            mean_lifetime_epochs: 3,
            regions_per_proc: 2,
            min_region_bytes: 64 << 10,
            max_region_bytes: 2 << 20,
            ..ChurnConfig::default()
        },
    };
    ChurnConfig {
        flavor,
        seed: base.seed ^ seed_mix(seed),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_types::PageSize;

    #[test]
    fn mirror_is_dataset_generate_exactly() {
        for dataset in Dataset::ALL {
            let divisor = Size::Smoke.scale().divisor(dataset);
            assert_eq!(
                generate_with_seed(dataset, divisor, dataset.seed()),
                dataset.generate(divisor),
                "{dataset}"
            );
        }
    }

    #[test]
    fn seed_zero_is_the_stock_graph() {
        for dataset in [Dataset::Wikipedia, Dataset::Netflix] {
            let divisor = Size::Smoke.scale().divisor(dataset);
            assert_eq!(
                dataset_graph(dataset, divisor, 0),
                dataset.generate(divisor)
            );
        }
    }

    #[test]
    fn nonzero_seed_changes_edges_but_not_sizes() {
        for dataset in Dataset::ALL {
            let divisor = Size::Smoke.scale().divisor(dataset);
            let stock = dataset.generate(divisor);
            let seeded = dataset_graph(dataset, divisor, 7);
            assert_ne!(seeded, stock, "{dataset}");
            assert_eq!(seeded.num_vertices(), stock.num_vertices(), "{dataset}");
            assert_eq!(seeded.num_edges(), stock.num_edges(), "{dataset}");
            assert_eq!(dataset_graph(dataset, divisor, 7), seeded, "{dataset}");
        }
    }

    #[test]
    fn seed_zero_keeps_the_default_churn_seed() {
        let flavor = MapFlavor::Paged(PageSize::Size4K);
        let stock = churn_config(Size::Quick, flavor, 0);
        assert_eq!(stock.seed, ChurnConfig::default().seed);
        let expected = ChurnConfig {
            mem_bytes: 4 << 30,
            flavor,
            epochs: 48,
            arrivals_per_epoch: 12,
            mean_lifetime_epochs: 8,
            max_region_bytes: 16 << 20,
            ..ChurnConfig::default()
        };
        assert_eq!(format!("{stock:?}"), format!("{expected:?}"));
        let seeded = churn_config(Size::Quick, flavor, 3);
        assert_ne!(seeded.seed, stock.seed);
        assert_eq!(seeded.epochs, stock.epochs);
        assert_eq!(seeded.mem_bytes, stock.mem_bytes);
    }
}
