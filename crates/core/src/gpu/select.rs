//! The full simulated k-selection kernel: plain scan, Buffered Search,
//! Hierarchical Partition, or both — one lane per query, launched over as
//! many warps as the workload needs.

use simt::mem::GlobalBuf;
use simt::{lanes_from_fn, launch, splat, GpuSpec, Mask, Metrics, WarpCtx, WARP_SIZE};

use crate::select::SelectConfig;
use crate::types::Neighbor;

use super::buffered::WarpBuffer;
use super::hierarchical::WarpHierarchy;
use super::queues::WarpQueues;

/// The k-NN distance matrix as it sits in device global memory after the
/// distance-calculation kernel: element `e` of query `q` at
/// `e * q + q_index` (query-major within each element row), so a warp's 32
/// lanes read 32 consecutive floats — one coalesced transaction.
pub struct DistanceMatrix {
    buf: GlobalBuf<f32>,
    n: usize,
    q: usize,
}

impl DistanceMatrix {
    /// Build from one flat row-major buffer (`flat[qi * n + e]`, the
    /// layout host distance kernels produce), transposing into the
    /// coalescing-friendly query-major device layout. One pass, one
    /// allocation — no intermediate heap-of-rows.
    pub fn from_row_major(flat: &[f32], q: usize, n: usize) -> Self {
        assert!(q > 0, "need at least one query");
        assert_eq!(flat.len(), q * n, "flat buffer does not match q × n");
        let mut data = vec![0.0f32; n * q];
        for (qi, row) in flat.chunks_exact(n.max(1)).enumerate() {
            for (e, &v) in row.iter().enumerate() {
                data[e * q + qi] = v;
            }
        }
        DistanceMatrix {
            buf: GlobalBuf::from_vec(data),
            n,
            q,
        }
    }

    /// Wrap an already query-major flat buffer (`data[e * q + qi]`).
    pub fn from_flat(data: Vec<f32>, n: usize, q: usize) -> Self {
        assert_eq!(data.len(), n * q);
        DistanceMatrix {
            buf: GlobalBuf::from_vec(data),
            n,
            q,
        }
    }

    /// Elements (references) per query.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of queries.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The underlying device buffer — for custom kernels (e.g. the
    /// baseline implementations) that read the matrix directly.
    pub fn buf(&self) -> &GlobalBuf<f32> {
        &self.buf
    }

    /// Host-side element access (no simulated cost).
    pub fn value(&self, query: usize, element: usize) -> f32 {
        self.buf.as_slice()[element * self.q + query]
    }

    /// Bytes occupied on the device (distance values only).
    pub fn bytes(&self) -> u64 {
        (self.n * self.q * core::mem::size_of::<f32>()) as u64
    }
}

/// Outcome of a simulated k-selection launch.
#[derive(Debug)]
pub struct GpuSelectResult {
    /// Per-query neighbors, sorted ascending by distance.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Aggregated metrics over all warps (HP construction included,
    /// as in the paper's timings).
    pub metrics: Metrics,
    /// The Hierarchical Partition construction share of `metrics`
    /// (zero when HP is off) — for the construction-cost ablation.
    pub build_metrics: Metrics,
    /// Warps launched.
    pub n_warps: usize,
    /// Technique-level event counters summed over all warps. All-zero
    /// unless the crate is built with the `trace` feature.
    pub counters: super::KernelCounters,
}

/// Run k-selection for every query of `dm` on the simulated GPU.
///
/// # Panics
/// When `cfg.k` is larger than the number of elements per query, or (for
/// the Merge Queue) when `cfg.k` is not `m·2^j`.
pub fn gpu_select_k(spec: &GpuSpec, dm: &DistanceMatrix, cfg: &SelectConfig) -> GpuSelectResult {
    assert!(
        cfg.k <= dm.n(),
        "k = {} exceeds the {} elements per query",
        cfg.k,
        dm.n()
    );
    if let Some(buf) = &cfg.buffer {
        // The candidate buffer must fit the device's shared memory:
        // padded slots × 32 lanes × (f32 + u32) + the intra-warp flag.
        let bytes = (buf.size.next_power_of_two() * WARP_SIZE * 8 + 4) as u64;
        assert!(
            bytes <= spec.shared_mem_bytes,
            "buffer of {bytes} B exceeds the device's {} B of shared memory",
            spec.shared_mem_bytes
        );
    }
    let n_warps = dm.q().div_ceil(WARP_SIZE);
    let (per_warp, metrics) = launch(spec, n_warps, |warp_id, ctx| {
        warp_kernel(ctx, warp_id, dm, cfg)
    });
    let mut neighbors = Vec::with_capacity(dm.q());
    let mut build_metrics = Metrics::new();
    let mut counters = super::KernelCounters::default();
    for (lane_results, build, warp_counters) in per_warp {
        build_metrics.add(&build);
        counters.merge(&warp_counters);
        for r in lane_results {
            if neighbors.len() < dm.q() {
                neighbors.push(r);
            }
        }
    }
    GpuSelectResult {
        neighbors,
        metrics,
        build_metrics,
        n_warps,
        counters,
    }
}

/// One warp's worth of k-selection. Returns the 32 lanes' results, the
/// metrics attributable to HP construction, and the warp's event
/// counters. Shared with [`super::resilient`], whose launcher re-runs
/// individual warps on failure.
pub(super) fn warp_kernel(
    ctx: &mut WarpCtx,
    warp_id: usize,
    dm: &DistanceMatrix,
    cfg: &SelectConfig,
) -> (Vec<Vec<Neighbor>>, Metrics, super::KernelCounters) {
    ctx.mark("select::warp_kernel");
    let q_base = warp_id * WARP_SIZE;
    let lanes_live = dm.q().saturating_sub(q_base).min(WARP_SIZE);
    let warp = Mask::first(lanes_live);
    let mut queues = WarpQueues::new(cfg.queue, cfg.k, cfg.m, cfg.aligned);
    let mut buffer = cfg.buffer.map(WarpBuffer::new);
    let mut build_metrics = Metrics::new();

    match cfg.hp {
        None => {
            ctx.mark("select::scan");
            for e in 0..dm.n() {
                let idx = lanes_from_fn(|l| e * dm.q() + (q_base + l).min(dm.q() - 1));
                let d = dm.buf.read(ctx, warp, &idx);
                let pred = lanes_from_fn(|l| d[l] < queues.qmax[l]);
                let (cand, _) = ctx.diverge(warp, pred);
                #[cfg(feature = "trace")]
                {
                    queues.counters.cheap_rejects +=
                        (warp.lanes().count() - cand.lanes().count()) as u64;
                }
                match buffer.as_mut() {
                    Some(buf) => {
                        buf.push_and_maybe_flush(ctx, warp, cand, &d, &splat(e as u32), &mut queues)
                    }
                    None => queues.insert(ctx, warp, cand, &d, &splat(e as u32)),
                }
            }
            if let Some(buf) = buffer.as_mut() {
                buf.flush_all(ctx, warp, &mut queues);
            }
        }
        Some(hp) => {
            let before = ctx.checkpoint();
            let hier =
                WarpHierarchy::build(ctx, warp, &dm.buf, q_base, dm.q(), dm.n(), hp.g, cfg.k);
            build_metrics = ctx.checkpoint().delta_since(&before);
            let mut stash = super::hierarchical::ChildStash::new(hp.g, cfg.k);
            hier.top_down(
                ctx,
                warp,
                &dm.buf,
                q_base,
                dm.q(),
                &mut queues,
                buffer.as_mut(),
                &mut stash,
            );
        }
    }

    let results: Vec<Vec<Neighbor>> = (0..lanes_live).map(|l| queues.lane_results(l)).collect();
    let counters = core::mem::take(&mut queues.counters);
    (results, build_metrics, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffered::BufferConfig;
    use crate::hierarchical::HpConfig;
    use crate::types::QueueKind;
    use rand::{Rng, SeedableRng};

    fn random_rows(q: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..q)
            .map(|_| (0..n).map(|_| rng.gen()).collect())
            .collect()
    }

    fn dm_from(rows: &[Vec<f32>]) -> DistanceMatrix {
        DistanceMatrix::from_row_major(&rows.concat(), rows.len(), rows[0].len())
    }

    fn oracle(row: &[f32], k: usize) -> Vec<f32> {
        let mut v = row.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.truncate(k);
        v
    }

    #[test]
    fn matrix_layout_roundtrip() {
        let rows = random_rows(5, 9, 90);
        let dm = dm_from(&rows);
        assert_eq!(dm.n(), 9);
        assert_eq!(dm.q(), 5);
        for (q, row) in rows.iter().enumerate() {
            for (e, &v) in row.iter().enumerate() {
                assert_eq!(dm.value(q, e), v);
            }
        }
        assert_eq!(dm.bytes(), 5 * 9 * 4);
    }

    #[test]
    fn every_variant_exact_end_to_end() {
        let spec = GpuSpec::tesla_c2075();
        // 3 warps worth of queries, one of them partial.
        let rows = random_rows(70, 600, 91);
        let dm = dm_from(&rows);
        let k = 16;
        for queue in QueueKind::ALL {
            for aligned in [false, true] {
                for buffer in [None, Some(BufferConfig::default())] {
                    for hp in [None, Some(HpConfig::default())] {
                        let cfg = SelectConfig {
                            k,
                            queue,
                            m: 8,
                            aligned,
                            buffer,
                            hp,
                        };
                        let res = gpu_select_k(&spec, &dm, &cfg);
                        assert_eq!(res.neighbors.len(), 70);
                        assert_eq!(res.n_warps, 3);
                        for (q, row) in rows.iter().enumerate() {
                            let got: Vec<f32> = res.neighbors[q].iter().map(|n| n.dist).collect();
                            assert_eq!(got, oracle(row, k), "{} query {q}", cfg.label());
                            for nb in &res.neighbors[q] {
                                assert_eq!(row[nb.id as usize], nb.dist);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn build_metrics_attributed_only_with_hp() {
        let spec = GpuSpec::tesla_c2075();
        let dm = dm_from(&random_rows(32, 1024, 92));
        let plain = gpu_select_k(&spec, &dm, &SelectConfig::plain(QueueKind::Merge, 16));
        assert_eq!(plain.build_metrics, Metrics::new());
        let hp = gpu_select_k(
            &spec,
            &dm,
            &SelectConfig::plain(QueueKind::Merge, 16).with_hp(HpConfig::default()),
        );
        assert!(hp.build_metrics.issued > 0);
        assert!(hp.build_metrics.issued < hp.metrics.issued);
    }

    #[test]
    fn optimized_beats_original_in_simulated_time() {
        // The paper's bottom line, in miniature: aligned+buf+hp Merge
        // Queue beats the plain Merge Queue.
        let spec = GpuSpec::tesla_c2075();
        let dm = dm_from(&random_rows(32, 4096, 93));
        let tm = simt::TimingModel::tesla_c2075();
        let orig = gpu_select_k(&spec, &dm, &SelectConfig::plain(QueueKind::Merge, 64));
        let opt = gpu_select_k(&spec, &dm, &SelectConfig::optimized(QueueKind::Merge, 64));
        let t_orig = tm.kernel_time(&orig.metrics);
        let t_opt = tm.kernel_time(&opt.metrics);
        assert!(
            t_opt < t_orig,
            "optimized {t_opt:.6} vs original {t_orig:.6}"
        );
    }

    #[test]
    #[should_panic]
    fn oversized_buffer_rejected() {
        let spec = GpuSpec::tesla_c2075();
        let dm = dm_from(&random_rows(32, 64, 95));
        let cfg = SelectConfig::plain(QueueKind::Heap, 8).with_buffer(BufferConfig {
            size: 1 << 20, // would need megabytes of shared memory
            sorted: false,
            intra_warp: true,
        });
        gpu_select_k(&spec, &dm, &cfg);
    }

    #[test]
    #[should_panic]
    fn k_larger_than_n_rejected() {
        let spec = GpuSpec::tesla_c2075();
        let dm = dm_from(&random_rows(4, 8, 94));
        gpu_select_k(&spec, &dm, &SelectConfig::plain(QueueKind::Heap, 16));
    }
}
