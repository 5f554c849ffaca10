//! The Graphicionado-style execution model: 8 processing engines stream
//! the graph through the IOMMU, with per-engine cycle accounting.
//!
//! Timing model (see DESIGN.md §3): each pipeline stage costs one cycle
//! (Table 2: "computation performed in each stage of a processing engine
//! is executed in one cycle") and every memory operation adds its
//! end-to-end latency from the shared [`MemSystem`] — validation plus
//! data fetch, overlapped for DVM-PE+ reads. Edges are sharded across
//! engines by destination vertex (Graphicionado's destination
//! partitioning); source-side stages run on the source shard. The
//! workload's execution time is the maximum engine clock.
//!
//! Host-side preparation (array initialization) and the accelerator's
//! small on-chip state (frontier membership bits, scalar counters) are
//! functional-only and untimed; all graph-data traffic is timed.

use crate::layout::GraphInMemory;
use dvm_mem::RowWord;
use dvm_mmu::{dispatch, MemSystem, SchemeDispatch};
use dvm_sim::{Cycles, Histogram};
use dvm_types::{Fault, VirtAddr, PAGE_SIZE};
use std::marker::PhantomData;

/// Accelerator hardware parameters (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelConfig {
    /// Processing engines running in parallel.
    pub engines: u32,
    /// Cycles per pipeline stage.
    pub stage_cycles: Cycles,
    /// Concurrent walks the shared IOMMU walker / DAV engine sustains.
    /// Translation work beyond this concurrency queues, so a scheme whose
    /// aggregate walk time exceeds the engines' own time becomes
    /// walker-bound — the effect that makes high-miss-rate conventional
    /// translation so expensive for an 8-engine accelerator.
    pub walker_ports: u32,
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self {
            engines: 8,
            stage_cycles: 1,
            walker_ports: 4,
        }
    }
}

/// Result of one accelerator run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Execution time: the maximum engine clock, or the shared walker's
    /// occupancy when translation is the bottleneck.
    pub cycles: Cycles,
    /// Per-engine clocks.
    pub engine_cycles: Vec<Cycles>,
    /// Edges processed (including re-relaxations).
    pub edges_processed: u64,
    /// Iterations (BFS/SSSP levels, PR/CF sweeps) executed.
    pub iterations: u32,
    /// Aggregate cycles the shared walker was busy, divided by its ports.
    pub walker_cycles: Cycles,
    /// Distribution of per-access end-to-end latencies.
    pub latency_hist: Histogram,
}

/// One of the paper's four graph workloads (§6.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Breadth-first search from a root vertex.
    Bfs {
        /// Search root.
        root: u32,
    },
    /// PageRank, a fixed number of sweeps.
    PageRank {
        /// Sweeps over all edges.
        iterations: u32,
    },
    /// Single-source shortest path (frontier Bellman-Ford).
    Sssp {
        /// Source vertex.
        root: u32,
        /// Convergence bound.
        max_iterations: u32,
    },
    /// Collaborative filtering by SGD matrix factorization over a
    /// bipartite rating graph.
    Cf {
        /// SGD sweeps.
        iterations: u32,
        /// Feature-vector length per vertex.
        features: u32,
    },
}

impl Workload {
    /// Display name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Bfs { .. } => "BFS",
            Workload::PageRank { .. } => "PageRank",
            Workload::Sssp { .. } => "SSSP",
            Workload::Cf { .. } => "CF",
        }
    }

    /// Bytes per vertex property for this workload.
    pub fn prop_stride(&self) -> u64 {
        match self {
            Workload::Cf { features, .. } => 4 * *features as u64,
            _ => 4,
        }
    }

    /// Paper defaults: BFS/SSSP from vertex 0, 2 PageRank sweeps, one
    /// 32-feature CF sweep (matrix-factorization kernels typically use
    /// ~30 latent features; the vector size also sets CF's TLB footprint).
    pub fn default_set() -> [Workload; 4] {
        [
            Workload::Bfs { root: 0 },
            Workload::PageRank { iterations: 2 },
            Workload::Sssp {
                root: 0,
                max_iterations: 64,
            },
            Workload::Cf {
                iterations: 1,
                features: 32,
            },
        ]
    }
}

impl core::fmt::Display for Workload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// PageRank damping factor.
pub const DAMPING: f32 = 0.85;
/// CF SGD learning rate.
pub const CF_LEARNING_RATE: f32 = 0.002;
/// CF SGD regularization.
pub const CF_REGULARIZATION: f32 = 0.05;
/// Unreached BFS level.
pub const BFS_INF: u32 = u32::MAX;

struct Engines {
    clocks: Vec<Cycles>,
    stage: Cycles,
    rr: usize,
    walker_ports: u32,
    walker_busy_at_start: Cycles,
    latency_hist: Histogram,
}

impl Engines {
    fn new(cfg: &AccelConfig, walker_busy_at_start: Cycles) -> Self {
        assert!(cfg.engines > 0, "need at least one engine");
        assert!(cfg.walker_ports > 0, "need at least one walker port");
        Self {
            clocks: vec![0; cfg.engines as usize],
            stage: cfg.stage_cycles,
            rr: 0,
            walker_ports: cfg.walker_ports,
            walker_busy_at_start,
            latency_hist: Histogram::new("access_latency"),
        }
    }

    /// Destination sharding: hash the vertex id so RMAT's low-id hubs do
    /// not all land on engine 0 (Graphicionado interleaves destinations).
    #[inline]
    fn shard(&self, v: u32) -> usize {
        (v.wrapping_mul(0x9E37_79B1) >> 16) as usize % self.clocks.len()
    }

    /// Streaming stages are interleaved round-robin across engines.
    #[inline]
    fn next_stream(&mut self) -> usize {
        self.rr = (self.rr + 1) % self.clocks.len();
        self.rr
    }

    #[inline]
    fn charge(&mut self, engine: usize, mem_latency: Cycles) {
        self.latency_hist.sample(mem_latency);
        self.clocks[engine] += mem_latency + self.stage;
    }

    fn result(self, walker_busy_now: Cycles, edges_processed: u64, iterations: u32) -> RunResult {
        let walker_cycles =
            (walker_busy_now - self.walker_busy_at_start) / self.walker_ports as u64;
        let engine_max = self.clocks.iter().copied().max().unwrap_or(0);
        RunResult {
            cycles: engine_max.max(walker_cycles),
            engine_cycles: self.clocks,
            edges_processed,
            iterations,
            walker_cycles,
            latency_hist: self.latency_hist,
        }
    }
}

// ---------------------------------------------------------------------
// Untimed host/on-chip helpers (functional only).
// ---------------------------------------------------------------------

fn peek_u32(sys: &MemSystem, va: VirtAddr) -> u32 {
    let (pa, _) = sys
        .untimed_translate(va)
        .unwrap_or_else(|| panic!("untimed read of unmapped {va}"));
    sys.mem.read_u32(pa)
}

fn peek_f32(sys: &MemSystem, va: VirtAddr) -> f32 {
    f32::from_bits(peek_u32(sys, va))
}

fn poke_u32(sys: &mut MemSystem, va: VirtAddr, value: u32) {
    let (pa, _) = sys
        .untimed_translate(va)
        .unwrap_or_else(|| panic!("untimed write of unmapped {va}"));
    sys.mem.write_u32(pa, value);
}

fn poke_f32(sys: &mut MemSystem, va: VirtAddr, value: f32) {
    poke_u32(sys, va, value.to_bits());
}

/// Host-side memset of a `u32` array (page-chunked, untimed).
fn memset_u32(sys: &mut MemSystem, base: VirtAddr, count: u64, value: u32) {
    // One full page of the fill pattern, sliced per chunk. `base` is
    // 4-aligned and pages are 4-aligned, so chunks are whole words.
    let mut buf = Vec::with_capacity(PAGE_SIZE as usize);
    for _ in 0..PAGE_SIZE / 4 {
        buf.extend_from_slice(&value.to_le_bytes());
    }
    let total = count * 4;
    let mut done = 0u64;
    while done < total {
        let va = base + done;
        let in_page = PAGE_SIZE - (va.raw() % PAGE_SIZE);
        let n = in_page.min(total - done);
        let (pa, _) = sys.untimed_translate(va).expect("mapped");
        sys.mem.write_bytes(pa, &buf[..n as usize]);
        done += n;
    }
}

/// Untimed dump of the property array as `u32`s (for verification).
pub fn dump_props_u32(sys: &MemSystem, g: &GraphInMemory) -> Vec<u32> {
    (0..g.num_vertices)
        .map(|v| peek_u32(sys, g.prop_entry(v)))
        .collect()
}

/// Untimed dump of the property array as `f32`s (for verification).
pub fn dump_props_f32(sys: &MemSystem, g: &GraphInMemory) -> Vec<f32> {
    (0..g.num_vertices)
        .map(|v| peek_f32(sys, g.prop_entry(v)))
        .collect()
}

// ---------------------------------------------------------------------
// The port: what a workload skeleton needs from the machine.
// ---------------------------------------------------------------------

/// Everything a workload skeleton does to the machine: timed accesses,
/// engine selection and cycle charging, with untimed (functional) access
/// through `sys`. Every access validates, times and moves data in one
/// step. A timed access leaves its cost *pending*; the skeleton picks the
/// engine — often from the value just read — and settles it with
/// [`charge`](Port::charge). Exactly one charge follows every successful
/// timed access.
struct Port<'s, 'a, D: SchemeDispatch> {
    sys: &'s mut MemSystem<'a>,
    engines: Engines,
    pending: Cycles,
    _dispatch: PhantomData<D>,
}

impl<D: SchemeDispatch> Port<'_, '_, D> {
    #[inline]
    fn read_u32(&mut self, va: VirtAddr) -> Result<u32, Fault> {
        let (value, lat) = self.sys.read_u32_via::<D>(va)?;
        self.pending = lat;
        Ok(value)
    }
    #[inline]
    fn read_u64(&mut self, va: VirtAddr) -> Result<u64, Fault> {
        let (value, lat) = self.sys.read_u64_via::<D>(va)?;
        self.pending = lat;
        Ok(value)
    }
    /// One timed transaction moving a whole row (see
    /// [`MemSystem::read_row_via`]).
    #[inline(always)]
    fn read_row<T: RowWord>(&mut self, va: VirtAddr, out: &mut [T]) -> Result<(), Fault> {
        self.pending = self.sys.read_row_via::<D, T>(va, out)?;
        Ok(())
    }
    #[inline]
    fn write_u32(&mut self, va: VirtAddr, value: u32) -> Result<(), Fault> {
        self.pending = self.sys.write_u32_via::<D>(va, value)?;
        Ok(())
    }
    #[inline(always)]
    fn write_row<T: RowWord>(&mut self, va: VirtAddr, row: &[T]) -> Result<(), Fault> {
        self.pending = self.sys.write_row_via::<D, T>(va, row)?;
        Ok(())
    }
    #[inline]
    fn charge(&mut self, engine: usize) {
        self.engines.charge(engine, self.pending);
    }
    #[inline]
    fn shard(&self, v: u32) -> usize {
        self.engines.shard(v)
    }
    #[inline]
    fn next_stream(&mut self) -> usize {
        self.engines.next_stream()
    }
}

// ---------------------------------------------------------------------
// Timed primitives.
// ---------------------------------------------------------------------

/// Timed read of an edge record; returns `(src, dst, weight)` with the
/// cost pending. The model charges one transaction per 12-byte record by
/// design, although two of every 16 records straddle a 64-byte line; the
/// whole record comes from the validated address unless it straddles a
/// page.
#[inline(always)]
fn read_edge<D: SchemeDispatch>(
    port: &mut Port<'_, '_, D>,
    g: &GraphInMemory,
    i: u64,
) -> Result<(u32, u32, f32), Fault> {
    let mut rec = [0u32; 3];
    port.read_row(g.edge_entry(i), &mut rec)?;
    Ok((rec[0], rec[1], f32::from_bits(rec[2])))
}

// ---------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------

/// Execute `workload` over the in-memory graph `g` through the memory
/// system `sys`.
///
/// # Errors
///
/// Propagates the first [`Fault`] the IOMMU raises (the paper's design
/// raises it on the host CPU and aborts the offload).
///
/// # Panics
///
/// Panics if `g.prop_stride` does not match the workload's stride.
pub fn run(
    workload: &Workload,
    g: &GraphInMemory,
    sys: &mut MemSystem<'_>,
    cfg: &AccelConfig,
) -> Result<RunResult, Fault> {
    run_via::<dispatch::Dyn>(workload, g, sys, cfg)
}

/// [`run`] with a compile-time dispatch token (see
/// [`SchemeDispatch`]): `D` must stand for the scheme `sys.iommu` was
/// built for. Monomorphizing the workload loops over the builtin schemes
/// is worth 1.5-2x on translation-heavy units; the sweep engine selects
/// the token, everything else should call [`run`].
///
/// # Errors
///
/// Propagates the first [`Fault`] the IOMMU raises.
///
/// # Panics
///
/// Panics if `g.prop_stride` does not match the workload's stride.
pub fn run_via<D: SchemeDispatch>(
    workload: &Workload,
    g: &GraphInMemory,
    sys: &mut MemSystem<'_>,
    cfg: &AccelConfig,
) -> Result<RunResult, Fault> {
    let engines = Engines::new(cfg, sys.iommu.stats.walker_busy.get());
    let mut port = Port::<D> {
        sys,
        engines,
        pending: 0,
        _dispatch: PhantomData,
    };
    let (edges_processed, iterations) = exec(workload, &mut port, g)?;
    let walker_busy_now = port.sys.iommu.stats.walker_busy.get();
    Ok(port
        .engines
        .result(walker_busy_now, edges_processed, iterations))
}

fn exec<D: SchemeDispatch>(
    workload: &Workload,
    port: &mut Port<'_, '_, D>,
    g: &GraphInMemory,
) -> Result<(u64, u32), Fault> {
    assert_eq!(
        g.prop_stride,
        workload.prop_stride(),
        "graph laid out for a different workload"
    );
    match *workload {
        Workload::Bfs { root } => bfs(port, g, root),
        Workload::PageRank { iterations } => pagerank(port, g, iterations),
        Workload::Sssp {
            root,
            max_iterations,
        } => sssp(port, g, root, max_iterations),
        Workload::Cf {
            iterations,
            features,
        } => cf(port, g, iterations, features),
    }
}

fn bfs<D: SchemeDispatch>(
    port: &mut Port<'_, '_, D>,
    g: &GraphInMemory,
    root: u32,
) -> Result<(u64, u32), Fault> {
    assert!(root < g.num_vertices, "root out of range");
    memset_u32(port.sys, g.prop_va, g.num_vertices as u64, BFS_INF);
    poke_u32(port.sys, g.prop_entry(root), 0);
    poke_u32(port.sys, g.frontier_a_va, root);

    let (mut cur, mut nxt) = (g.frontier_a_va, g.frontier_b_va);
    let mut frontier_len = 1u64;
    let mut level = 0u32;
    let mut edges_processed = 0u64;

    while frontier_len > 0 {
        let mut next_len = 0u64;
        for i in 0..frontier_len {
            let v = port.read_u32(cur + i * 4)?;
            let e_src = port.shard(v);
            port.charge(e_src);
            let lo = port.read_u64(g.offset_entry(v))?;
            port.charge(e_src);
            let hi = port.read_u64(g.offset_entry(v + 1))?;
            port.charge(e_src);
            for j in lo..hi {
                let (_src, dst, _w) = read_edge(port, g, j)?;
                let e_stream = port.next_stream();
                port.charge(e_stream);
                edges_processed += 1;
                let e_dst = port.shard(dst);
                let dist = port.read_u32(g.prop_entry(dst))?;
                port.charge(e_dst);
                if dist == BFS_INF {
                    port.write_u32(g.prop_entry(dst), level + 1)?;
                    port.charge(e_dst);
                    port.write_u32(nxt + next_len * 4, dst)?;
                    port.charge(e_dst);
                    next_len += 1;
                }
            }
        }
        core::mem::swap(&mut cur, &mut nxt);
        frontier_len = next_len;
        level += 1;
    }
    Ok((edges_processed, level))
}

fn pagerank<D: SchemeDispatch>(
    port: &mut Port<'_, '_, D>,
    g: &GraphInMemory,
    iterations: u32,
) -> Result<(u64, u32), Fault> {
    let v_count = g.num_vertices;
    let init = 1.0f32 / v_count as f32;
    for v in 0..v_count {
        poke_f32(port.sys, g.prop_entry(v), init);
        poke_f32(port.sys, g.temp_entry(v), 0.0);
    }
    let mut edges_processed = 0u64;

    for _ in 0..iterations {
        // Scatter: stream every vertex's rank into its out-neighbours.
        for v in 0..v_count {
            let e_src = port.shard(v);
            let lo = port.read_u64(g.offset_entry(v))?;
            port.charge(e_src);
            let hi = port.read_u64(g.offset_entry(v + 1))?;
            port.charge(e_src);
            if hi == lo {
                continue;
            }
            let rank_bits = port.read_u32(g.prop_entry(v))?;
            port.charge(e_src);
            let contrib = f32::from_bits(rank_bits) / (hi - lo) as f32;
            for j in lo..hi {
                let (_src, dst, _w) = read_edge(port, g, j)?;
                let e_stream = port.next_stream();
                port.charge(e_stream);
                edges_processed += 1;
                let e_dst = port.shard(dst);
                let acc_bits = port.read_u32(g.temp_entry(dst))?;
                port.charge(e_dst);
                port.write_u32(
                    g.temp_entry(dst),
                    (f32::from_bits(acc_bits) + contrib).to_bits(),
                )?;
                port.charge(e_dst);
            }
        }
        // Apply: fold accumulators into ranks.
        for v in 0..v_count {
            let e = port.shard(v);
            let acc_bits = port.read_u32(g.temp_entry(v))?;
            port.charge(e);
            let rank = (1.0 - DAMPING) / v_count as f32 + DAMPING * f32::from_bits(acc_bits);
            port.write_u32(g.prop_entry(v), rank.to_bits())?;
            port.charge(e);
            // Accumulator reset rides the same store functionally.
            poke_f32(port.sys, g.temp_entry(v), 0.0);
        }
    }
    Ok((edges_processed, iterations))
}

fn sssp<D: SchemeDispatch>(
    port: &mut Port<'_, '_, D>,
    g: &GraphInMemory,
    root: u32,
    max_iterations: u32,
) -> Result<(u64, u32), Fault> {
    assert!(root < g.num_vertices, "root out of range");
    memset_u32(
        port.sys,
        g.prop_va,
        g.num_vertices as u64,
        f32::INFINITY.to_bits(),
    );
    poke_f32(port.sys, g.prop_entry(root), 0.0);
    poke_u32(port.sys, g.frontier_a_va, root);

    let (mut cur, mut nxt) = (g.frontier_a_va, g.frontier_b_va);
    let mut frontier_len = 1u64;
    let mut iterations = 0u32;
    let mut edges_processed = 0u64;
    // Frontier-membership bits: small on-chip structure, untimed.
    let mut in_next = vec![false; g.num_vertices as usize];

    while frontier_len > 0 && iterations < max_iterations {
        let mut next_len = 0u64;
        for i in 0..frontier_len {
            let v = port.read_u32(cur + i * 4)?;
            let e_src = port.shard(v);
            port.charge(e_src);
            let dist_bits = port.read_u32(g.prop_entry(v))?;
            port.charge(e_src);
            let dist_v = f32::from_bits(dist_bits);
            let lo = port.read_u64(g.offset_entry(v))?;
            port.charge(e_src);
            let hi = port.read_u64(g.offset_entry(v + 1))?;
            port.charge(e_src);
            for j in lo..hi {
                let (_src, dst, weight) = read_edge(port, g, j)?;
                let e_stream = port.next_stream();
                port.charge(e_stream);
                edges_processed += 1;
                let e_dst = port.shard(dst);
                let old_bits = port.read_u32(g.prop_entry(dst))?;
                port.charge(e_dst);
                let candidate = dist_v + weight;
                if candidate < f32::from_bits(old_bits) {
                    port.write_u32(g.prop_entry(dst), candidate.to_bits())?;
                    port.charge(e_dst);
                    if !in_next[dst as usize] {
                        in_next[dst as usize] = true;
                        port.write_u32(nxt + next_len * 4, dst)?;
                        port.charge(e_dst);
                        next_len += 1;
                    }
                }
            }
        }
        // Clear membership bits for the vertices we queued.
        for i in 0..next_len {
            let dst = peek_u32(port.sys, nxt + i * 4);
            in_next[dst as usize] = false;
        }
        core::mem::swap(&mut cur, &mut nxt);
        frontier_len = next_len;
        iterations += 1;
    }
    Ok((edges_processed, iterations))
}

fn cf<D: SchemeDispatch>(
    port: &mut Port<'_, '_, D>,
    g: &GraphInMemory,
    iterations: u32,
    features: u32,
) -> Result<(u64, u32), Fault> {
    assert!(features > 0, "CF needs at least one feature");
    let k = features as usize;
    // Deterministic small initial factors, one untimed row per vertex.
    let mut uvec = vec![0.0f32; k];
    for v in 0..g.num_vertices {
        for (f, x) in uvec.iter_mut().enumerate() {
            let seed = ((v as u64 * 31 + f as u64 * 7) % 97) as f32;
            *x = 0.05 + seed / 1000.0;
        }
        port.sys
            .untimed_write_row(g.prop_entry(v), &uvec)
            .expect("prop array mapped");
    }
    let mut mvec = vec![0.0f32; k];
    let mut edges_processed = 0u64;

    for _ in 0..iterations {
        for j in 0..g.num_edges {
            let (user, item, rating) = read_edge(port, g, j)?;
            let e_user = port.shard(user);
            let e_item = port.shard(item);
            let e_stream = port.next_stream();
            port.charge(e_stream);
            edges_processed += 1;
            // Each factor vector is one DRAM burst: one timed transaction
            // per row read and per row write.
            let user_va = g.prop_entry(user);
            let item_va = g.prop_entry(item);
            port.read_row(user_va, &mut uvec)?;
            port.charge(e_user);
            port.read_row(item_va, &mut mvec)?;
            port.charge(e_item);
            let err = rating - uvec.iter().zip(&mvec).map(|(a, b)| a * b).sum::<f32>();
            // SGD update of both factor vectors from their old values.
            for (uf, mf) in uvec.iter_mut().zip(mvec.iter_mut()) {
                let (old_u, old_m) = (*uf, *mf);
                *uf = old_u + CF_LEARNING_RATE * (err * old_m - CF_REGULARIZATION * old_u);
                *mf = old_m + CF_LEARNING_RATE * (err * old_u - CF_REGULARIZATION * old_m);
            }
            port.write_row(user_va, &uvec)?;
            port.charge(e_user);
            port.write_row(item_va, &mvec)?;
            port.charge(e_item);
        }
    }
    Ok((edges_processed, iterations))
}
