//! Extension (paper §5 "Virtual Machines"): nested translation cost under
//! conventional 2D paging vs the three DVM deployments. Not a numbered
//! figure in the paper — it quantifies the discussion's claim that DVM
//! "converts the two-dimensional page walk to a one-dimensional walk" and
//! can eliminate it entirely.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin virt [--jobs N] [--json PATH]
//! ```

use dvm_bench::{run_grid, BenchArgs, FigureJson, Json};
use dvm_mem::{BuddyAllocator, Dram, DramConfig, PhysMem};
use dvm_mmu::{NestedScheme, NestedWalker};
use dvm_pagetable::PageTable;
use dvm_sim::{DetRng, Table};
use dvm_types::{PageSize, Permission, VirtAddr};

/// Per-scheme measurement: (entry reads, mem refs, stall) per translation.
fn measure(scheme: NestedScheme, span: u64, base: VirtAddr, translations: u64) -> [f64; 3] {
    let mut mem = PhysMem::new(1 << 20); // 4 GiB
    let mut alloc = BuddyAllocator::new(1 << 20);
    let guest_identity = matches!(scheme, NestedScheme::GuestDvm | NestedScheme::FullDvm);
    let host_identity = matches!(scheme, NestedScheme::HostDvm | NestedScheme::FullDvm);

    let mut guest_pt = PageTable::new(&mut mem, &mut alloc).unwrap();
    if guest_identity {
        guest_pt
            .map_identity_pe(&mut mem, &mut alloc, base, span, Permission::ReadWrite)
            .unwrap();
    } else {
        guest_pt
            .map_identity_leaves(
                &mut mem,
                &mut alloc,
                base,
                span,
                Permission::ReadWrite,
                PageSize::Size4K,
            )
            .unwrap();
    }
    let mut host_pt = PageTable::new(&mut mem, &mut alloc).unwrap();
    // Host maps low memory (where guest tables live) and guest RAM.
    host_pt
        .map_identity_pe(
            &mut mem,
            &mut alloc,
            VirtAddr::new(0),
            512 << 20,
            Permission::ReadWrite,
        )
        .unwrap();
    if host_identity {
        host_pt
            .map_identity_pe(&mut mem, &mut alloc, base, span, Permission::ReadWrite)
            .unwrap();
    } else {
        host_pt
            .map_identity_leaves(
                &mut mem,
                &mut alloc,
                base,
                span,
                Permission::ReadWrite,
                PageSize::Size2M,
            )
            .unwrap();
    }

    let mut dram = Dram::new(DramConfig::default());
    let mut walker = NestedWalker::new(scheme);
    let mut rng = DetRng::new(11);
    let mut stall_total = 0u64;
    for _ in 0..translations {
        let gva = base + (rng.below(span / 64) * 64);
        let t = walker
            .translate(gva, &guest_pt, &host_pt, &mem, &mut dram)
            .expect("mapped");
        stall_total += t.stall;
    }
    let n = walker.stats.translations.get() as f64;
    [
        walker.stats.entry_reads.get() as f64 / n,
        walker.stats.mem_refs.get() as f64 / n,
        stall_total as f64 / n,
    ]
}

fn main() {
    let args = BenchArgs::parse();
    let span: u64 = 256 << 20;
    let base = VirtAddr::new(1 << 30);
    let translations = 200_000u64;
    println!(
        "Nested translation (guest heap {} MiB, {} random translations)\n",
        span >> 20,
        translations
    );

    // --schemes filters this binary's own nested-scheme rows by name.
    let schemes = args.scheme_columns(&NestedScheme::ALL, |s| s.name());
    // Each scheme builds its own memory, page tables and walker; the
    // measurements run on the grid runner.
    let labels: Vec<String> = schemes.iter().map(|s| s.name().to_string()).collect();
    let results: Vec<[f64; 3]> = run_grid(&args, &labels, |i| {
        measure(schemes[i], span, base, translations)
    });

    let columns = [
        "entry reads/translation",
        "mem refs/translation",
        "avg stall (cycles)",
    ];
    let mut table = Table::new(&std::iter::once("scheme").chain(columns).collect::<Vec<_>>());
    let mut fig = FigureJson::new("virt", args.scale.name(), &columns);
    for (scheme, metrics) in schemes.iter().zip(&results) {
        table.row(&[
            scheme.name().into(),
            format!("{:.2}", metrics[0]),
            format!("{:.3}", metrics[1]),
            format!("{:.2}", metrics[2]),
        ]);
        fig.row(
            scheme.name(),
            metrics.iter().map(|&m| Json::Float(m)).collect(),
        );
    }
    args.emit_json(&fig);
    println!("{table}");
    println!("paper §5: 2D nested walks need up to 24 entry reads; DVM at either");
    println!("level makes the walk one-dimensional, and at both levels removes");
    println!("translation from most accesses entirely.");
}
