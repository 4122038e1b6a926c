//! Property tests for the blocked distance kernel and the tile-streamed
//! search path.
//!
//! Four exactness contracts are exercised here:
//!
//! 1. `block::squared_distances` must equal the scalar
//!    `squared_distance` **bit-for-bit** for every pair — the blocked
//!    kernel changes the iteration order over pairs, never the
//!    accumulation order within a pair. Dimensions and sizes straddle
//!    the LANES / QUERY_BLOCK / REF_TILE edges on purpose.
//! 2. The streamed loop (`Index::search`) must return
//!    exactly the `(dist, id)` sort of each full distance row, cut at
//!    k, at 1, 2 and 4 threads and arbitrary Q/N/k/tile, including tiles smaller than k, tiles larger than N
//!    and duplicated distances (tie-breaking), also under non-finite
//!    coordinates (overflow to +inf).
//! 3. The runtime-dispatched SIMD row kernel (`simd::fill_rows`) must
//!    reproduce both the portable 8-accumulator kernel and the scalar
//!    reference bit-for-bit at the edge dimensions {1, 7, 8, 9, 127,
//!    128} — the dims where the vector main loop, its 4-reference
//!    register block and the scalar tail all change shape — for row
//!    ranges straddling the REF_TILE edge, and under the non-finite
//!    clamp policy.
//! 4. `Index::search` must return exactly the same
//!    neighbors at 2 and 8 threads as on one — the work-stealing
//!    schedule moves blocks between workers, never the per-query merge
//!    order.
//! 5. The streamed loop's quad row fill (four queries per kernel call,
//!    1–3 in the last quad of a block) must return the sort oracle's and
//!    `eval::ground_truth`'s neighbors byte for byte.

use knn::{
    block, clamp_non_finite, ground_truth, simd, squared_distance, squared_norm, Hooks, Index,
    Metric, PointSet, SearchPlan,
};
use kselect::Neighbor;
use proptest::prelude::*;

/// The dimensions the SIMD contract is pinned at: 1 and 7 exercise the
/// pure-tail path, 8 the single full LANES chunk, 9 a chunk plus tail,
/// 127/128 the register-blocked main loop with and without a tail.
const EDGE_DIMS: [usize; 6] = [1, 7, 8, 9, 127, 128];

/// A random point set with the given shape; coordinates in [-4, 4).
fn points(count: usize, dim: usize) -> impl Strategy<Value = PointSet> {
    proptest::collection::vec(0u32..4096, count * dim).prop_map(move |raw| {
        let flat: Vec<f32> = raw.iter().map(|&x| x as f32 / 512.0 - 4.0).collect();
        PointSet::from_flat(flat, dim)
    })
}

/// The `k` nearest references of each query by squared Euclidean
/// distance, streamed at `tile` on `threads` workers.
fn search(
    queries: &PointSet,
    refs: &PointSet,
    k: usize,
    tile: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    let plan = SearchPlan::new(k).with_tile(tile).with_threads(threads);
    let index = Index::new(refs).expect("non-empty references");
    index
        .search(queries, &plan, Hooks::NONE)
        .expect("a valid plan")
}

/// Neighbors as `(dist bits, id)` pairs, so `-0.0` and `0.0` differ.
fn bits(v: &[Vec<kselect::Neighbor>]) -> Vec<Vec<(u32, u32)>> {
    v.iter()
        .map(|ns| ns.iter().map(|n| (n.dist.to_bits(), n.id)).collect())
        .collect()
}

/// The exact k-NN of every query: its full distance row sorted by
/// `(dist, id)`, `+∞` dropped, cut at k.
fn sort_oracle(queries: &PointSet, refs: &PointSet, k: usize) -> Vec<Vec<(u32, u32)>> {
    let m = block::squared_distances(queries, refs);
    m.rows()
        .map(|row| {
            let mut v: Vec<(f32, u32)> = row
                .iter()
                .copied()
                .zip(0u32..)
                .filter(|(d, _)| d.is_finite())
                .collect();
            v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            v.iter().take(k).map(|&(d, i)| (d.to_bits(), i)).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blocked kernel == scalar kernel, bit for bit, across odd dims
    /// (straddling LANES = 8) and sizes straddling the query-block and
    /// reference-tile boundaries.
    #[test]
    fn blocked_matches_scalar_bitwise(
        q in 1usize..40,     // QUERY_BLOCK = 32 sits inside this range
        n in 1usize..300,    // REF_TILE = 256 sits inside this range
        dim in 1usize..20,   // straddles LANES = 8 and its multiples
        seed in 0u64..1000,
    ) {
        let queries = PointSet::uniform(q, dim, seed);
        let refs = PointSet::uniform(n, dim, seed ^ 0xD15);
        let m = block::squared_distances(&queries, &refs);
        prop_assert_eq!(m.q(), q);
        prop_assert_eq!(m.n(), n);
        for qi in 0..q {
            for ri in 0..n {
                let scalar = squared_distance(queries.point(qi), refs.point(ri));
                prop_assert_eq!(
                    m.at(qi, ri).to_bits(),
                    scalar.to_bits(),
                    "({}, {}): blocked {} vs scalar {}",
                    qi, ri, m.at(qi, ri), scalar
                );
            }
        }
    }

    /// Tile-streamed search == the `(dist, id)` sort of each query's
    /// full distance row, cut at k, exactly (distances AND ids), for
    /// arbitrary tile sizes including tile < k and tile > N, with
    /// heavily duplicated coordinates to force ties. The lowest ids are
    /// kept among equal distances, at every thread count.
    #[test]
    fn streamed_matches_materialized(
        qs in points(7, 5),
        n in 1usize..200,
        k_raw in 1usize..32,
        tile in 1usize..256,
        dup_mod in 1u32..8,
    ) {
        let refs = {
            // Quantize coordinates so many reference points collide,
            // exercising the (dist, id) tie-break.
            let base = PointSet::uniform(n, 5, 99);
            let flat: Vec<f32> = base
                .as_flat()
                .iter()
                .map(|&x| ((x * dup_mod as f32) as i32) as f32)
                .collect();
            PointSet::from_flat(flat, 5)
        };
        let k = k_raw.min(n);
        let want = sort_oracle(&qs, &refs, k);
        for threads in [1usize, 2, 4] {
            let streamed = search(&qs, &refs, k, tile, threads);
            prop_assert_eq!(&bits(&streamed), &want, "tile {} threads {}", tile, threads);
        }
    }

    /// Non-finite inputs: coordinates at f32::MAX overflow the squared
    /// norm to +inf; the clamp_non_finite policy must apply identically
    /// on the streamed path and the materialized kernel the oracle
    /// sorts.
    #[test]
    fn streamed_matches_materialized_non_finite(
        poison in proptest::collection::vec(0usize..64, 4),
        tile in 1usize..80,
    ) {
        let qs = PointSet::uniform(5, 4, 7);
        let mut flat = PointSet::uniform(64, 4, 8).as_flat().to_vec();
        for &p in &poison {
            flat[p * 4] = f32::MAX; // squared -> +inf -> clamped policy
        }
        let refs = PointSet::from_flat(flat, 4);
        let streamed = search(&qs, &refs, 8, tile, 1);
        prop_assert_eq!(bits(&streamed), sort_oracle(&qs, &refs, 8));
    }

    /// The dispatched SIMD row kernel, the portable kernel and the
    /// scalar reference agree bit-for-bit at every edge dimension, for
    /// row ranges of arbitrary offset and length (straddling the
    /// REF_TILE = 256 edge when `n` allows).
    #[test]
    fn simd_rows_match_scalar_bitwise_at_edge_dims(
        n in 1usize..300,
        r0_frac in 0u32..1000,
        len_raw in 1usize..300,
        seed in 0u64..1000,
    ) {
        for dim in EDGE_DIMS {
            let queries = PointSet::uniform(1, dim, seed);
            let refs = PointSet::uniform(n, dim, seed ^ 0x51D);
            let qp = queries.point(0);
            let norm_q = squared_norm(qp);
            let ref_norms = block::norms(&refs);
            let r0 = (r0_frac as usize * n / 1000).min(n - 1);
            let len = len_raw.min(n - r0);
            let mut dispatched = vec![0.0f32; len];
            let mut portable = vec![0.0f32; len];
            simd::fill_rows(qp, norm_q, &refs, &ref_norms, r0, &mut dispatched);
            simd::fill_rows_portable(qp, norm_q, &refs, &ref_norms, r0, &mut portable);
            for j in 0..len {
                let scalar = clamp_non_finite(squared_distance(qp, refs.point(r0 + j)));
                prop_assert_eq!(
                    dispatched[j].to_bits(),
                    scalar.to_bits(),
                    "dim {} row {}: {} ({}) vs scalar {}",
                    dim, r0 + j, dispatched[j], simd::dispatch_name(), scalar
                );
                prop_assert_eq!(
                    portable[j].to_bits(),
                    scalar.to_bits(),
                    "dim {} row {}: portable {} vs scalar {}",
                    dim, r0 + j, portable[j], scalar
                );
            }
        }
    }

    /// Non-finite coordinates clamp identically on every kernel: a
    /// poisoned reference overflows its squared norm to +inf, and both
    /// the dispatched and portable kernels must emit the same clamped
    /// bits as the scalar policy at every edge dimension.
    #[test]
    fn simd_rows_clamp_non_finite_identically(
        poison in proptest::collection::vec(0usize..48, 1..5),
        seed in 0u64..200,
    ) {
        for dim in EDGE_DIMS {
            let queries = PointSet::uniform(1, dim, seed);
            let mut flat = PointSet::uniform(48, dim, seed ^ 0xF1F).as_flat().to_vec();
            for &p in &poison {
                flat[p * dim] = f32::MAX; // squared -> +inf -> clamp policy
            }
            let refs = PointSet::from_flat(flat, dim);
            let qp = queries.point(0);
            let norm_q = squared_norm(qp);
            let ref_norms = block::norms(&refs);
            let mut dispatched = vec![0.0f32; 48];
            let mut portable = vec![0.0f32; 48];
            simd::fill_rows(qp, norm_q, &refs, &ref_norms, 0, &mut dispatched);
            simd::fill_rows_portable(qp, norm_q, &refs, &ref_norms, 0, &mut portable);
            for j in 0..48 {
                let scalar = clamp_non_finite(squared_distance(qp, refs.point(j)));
                prop_assert_eq!(dispatched[j].to_bits(), scalar.to_bits(), "dim {} row {}", dim, j);
                prop_assert_eq!(portable[j].to_bits(), scalar.to_bits(), "dim {} row {}", dim, j);
            }
        }
    }

    /// The streamed pipeline returns *identical* neighbors — distances
    /// and ids — at 2 and 8 threads as on one, for query
    /// counts straddling the QUERY_BLOCK = 32 scheduling unit and tiles
    /// straddling REF_TILE. Heavily quantized
    /// coordinates force distance ties, so this also proves the merge
    /// order (not just the value set) is thread-count-invariant.
    #[test]
    fn parallel_streamed_identical_at_any_thread_count(
        q in 1usize..70,      // 1–2 blocks plus a partial third
        n in 1usize..300,
        k_raw in 1usize..16,
        tile in 1usize..300,
        dup_mod in 1u32..8,
        seed in 0u64..1000,
    ) {
        let queries = PointSet::uniform(q, 6, seed);
        let refs = {
            let base = PointSet::uniform(n, 6, seed ^ 0x9A7);
            let flat: Vec<f32> = base
                .as_flat()
                .iter()
                .map(|&x| ((x * dup_mod as f32) as i32) as f32)
                .collect();
            PointSet::from_flat(flat, 6)
        };
        let k = k_raw.min(n);
        let one = search(&queries, &refs, k, tile, 1);
        for threads in [2usize, 8] {
            let parallel = search(&queries, &refs, k, tile, threads);
            prop_assert_eq!(&parallel, &one, "tile {} threads {}", tile, threads);
        }
    }

    /// With the timeline disabled ([`NullTimeline`]) and a cancel token
    /// that never trips, the search is byte-identical to the one with
    /// [`Hooks::NONE`] — same neighbors, same distances, same order —
    /// at every thread count. This is the zero-cost-observer contract
    /// for the hook layer: hooks that do nothing cannot perturb results.
    #[test]
    fn timeline_disabled_is_byte_identical_to_plain_parallel(
        q in 1usize..70,
        n in 1usize..300,
        k_raw in 1usize..16,
        tile in 1usize..300,
        threads in 1usize..9,
        seed in 0u64..1000,
    ) {
        use knn::TileBudget;
        use trace::NullTimeline;
        let queries = PointSet::uniform(q, 6, seed);
        let index = Index::new(PointSet::uniform(n, 6, seed ^ 0x51D)).unwrap();
        let plan = SearchPlan::new(k_raw.min(n)).with_tile(tile).with_threads(threads);
        let plain = index.search(&queries, &plan, Hooks::NONE);
        let hooks = Hooks::NONE.with_timeline(&NullTimeline).with_cancel(&TileBudget(usize::MAX));
        let timelined = index.search(&queries, &plan, hooks).expect("the budget never trips");
        prop_assert_eq!(Ok(timelined), plain);
    }

    /// Non-finite inputs flow through the streamed pipeline identically
    /// at 2 and 8 threads as on one: poisoned references clamp to the
    /// same bits and land in the same merge positions.
    #[test]
    fn parallel_streamed_non_finite_identical(
        poison in proptest::collection::vec(0usize..64, 4),
        tile in 1usize..80,
    ) {
        let qs = PointSet::uniform(37, 4, 7); // straddles QUERY_BLOCK
        let mut flat = PointSet::uniform(64, 4, 8).as_flat().to_vec();
        for &p in &poison {
            flat[p * 4] = f32::MAX;
        }
        let refs = PointSet::from_flat(flat, 4);
        let one = search(&qs, &refs, 8, tile, 1);
        for threads in [2usize, 8] {
            let parallel = search(&qs, &refs, 8, tile, threads);
            prop_assert_eq!(&parallel, &one, "threads {}", threads);
        }
    }
}

/// The streamed loop fills query rows in quads. At query counts that
/// leave short quads (1: a one-query block; 31: a last quad of 3; 65: a
/// block of 32 after two full ones, then one query; 33: a full block
/// then a one-query block), every tile length and thread count must
/// return the sort oracle's neighbors byte for byte.
#[test]
fn quad_streamed_fill_is_byte_identical_to_the_sort_oracle() {
    let refs = PointSet::uniform(150, 13, 41);
    for q in [1usize, 31, 33, 65] {
        let queries = PointSet::uniform(q, 13, 40 + q as u64);
        for k in [5usize, 8] {
            let full = sort_oracle(&queries, &refs, k);
            for tile in [1usize, 3, 7, 100] {
                for threads in [1usize, 2] {
                    let streamed = search(&queries, &refs, k, tile, threads);
                    assert_eq!(
                        bits(&streamed),
                        full,
                        "q {q} k {k} tile {tile} threads {threads}"
                    );
                }
            }
        }
    }
}

/// Each query block's last quad holds 1–3 live queries whenever Q is
/// not a multiple of 4: Q ∈ 1..=9 (one block) and 33..=37 (a full block,
/// then 1–5 queries). On references that each appear three times (every
/// distance tied three ways), at a dimension with a scalar tail (13)
/// and one without (16), tiles {7, 64, whole}, and threads 1, 2 and 4,
/// the streamed search must equal `eval::ground_truth` — the full sort
/// of the scalar distance row — ids included.
#[test]
fn streamed_short_quads_equal_ground_truth_at_any_thread_count() {
    for dim in [13usize, 16] {
        let base = PointSet::uniform(60, dim, 50 + dim as u64);
        let tripled: Vec<f32> = (0..180).flat_map(|i| base.point(i % 60).to_vec()).collect();
        let refs = PointSet::from_flat(tripled, dim);
        for q in (1usize..=9).chain(33..=37) {
            let queries = PointSet::uniform(q, dim, 70 + q as u64);
            let want = ground_truth(&queries, &refs, 8, Metric::SquaredEuclidean);
            for tile in [7usize, 64, 4096] {
                for threads in [1usize, 2, 4] {
                    let got = search(&queries, &refs, 8, tile, threads);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "dim {dim} q {q} tile {tile} threads {threads}"
                    );
                }
            }
        }
    }
}

/// Journal invariants under the parallel scheduler. Gated on the
/// `metrics` feature because the instrumented entry point lives behind
/// it.
/// Wall-clock nanoseconds legitimately differ between runs, so the
/// cross-thread-count comparison covers only the deterministic record
/// structure; the timing invariant checked per record is internal
/// consistency (phase sum == total).
#[cfg(feature = "metrics")]
mod journaled {
    use super::*;
    use knn::metered::{knn_search_streamed_instrumented, Instruments};
    use trace::{EventJournal, JournalConfig, QueryRecord};

    /// Journal one streamed search for `k` neighbors into a fresh
    /// journal.
    fn journaled(
        queries: &PointSet,
        refs: &PointSet,
        k: usize,
        tile: usize,
        threads: usize,
    ) -> Vec<QueryRecord> {
        let journal = EventJournal::new(JournalConfig::default());
        let ins = Instruments {
            journal: Some(&journal),
            tag: "prop",
            ..Instruments::default()
        };
        let plan = SearchPlan::new(k).with_tile(tile).with_threads(threads);
        let index = Index::new(refs).expect("non-empty references");
        knn_search_streamed_instrumented(&index, queries, &plan, &ins).expect("a valid plan");
        journal.snapshot()
    }

    /// The deterministic projection of a record: everything except the
    /// measured nanoseconds and the admission sequence number.
    fn structure(r: &QueryRecord) -> (u64, String, u64, u64, u64, u32, String, u32) {
        (
            r.query,
            r.queue.clone(),
            r.tile,
            r.merge_push,
            r.merge_reject,
            r.blocks,
            r.status.clone(),
            r.attempts,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every thread count journals the same records: one per query,
        /// identical structural fields in identical order, phase names
        /// in identical order, and each record's phase nanoseconds
        /// summing exactly to its total.
        #[test]
        fn parallel_journal_structure_invariant_across_thread_counts(
            q in 1usize..70,
            n in 1usize..300,
            tile in 1usize..300,
            seed in 0u64..1000,
        ) {
            let queries = PointSet::uniform(q, 6, seed);
            let refs = PointSet::uniform(n, 6, seed ^ 0x10E);
            // k <= n: tiny n shrinks k instead of skipping, so it still
            // exercises the journal.
            let k = n.min(8);
            let mut baseline: Option<Vec<_>> = None;
            for threads in [1usize, 2, 8] {
                let snap = journaled(&queries, &refs, k, tile, threads);
                prop_assert_eq!(snap.len(), q, "one record per query at {} threads", threads);
                for r in &snap {
                    let phase_sum: u64 = r.phase_ns.iter().map(|(_, ns)| ns).sum();
                    prop_assert_eq!(
                        phase_sum, r.total_ns,
                        "threads {}: query {} total must equal its phase sum",
                        threads, r.query
                    );
                }
                let shape: Vec<_> = snap
                    .iter()
                    .map(|r| {
                        let phases: Vec<String> =
                            r.phase_ns.iter().map(|(name, _)| name.clone()).collect();
                        (structure(r), phases)
                    })
                    .collect();
                match &baseline {
                    None => baseline = Some(shape),
                    Some(b) => prop_assert_eq!(
                        &shape, b,
                        "journal structure must not depend on thread count ({} threads)",
                        threads
                    ),
                }
            }
        }
    }
}
