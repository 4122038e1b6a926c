//! Top-level native k-selection API combining the paper's techniques.
//!
//! [`SelectConfig`] mirrors the rows of the paper's Table I: pick a queue
//! kind, optionally put Buffered Search in front of it, and optionally
//! search through a Hierarchical Partition instead of the raw list. One
//! config type describes both back ends, but they read it differently:
//!
//! * The simulated GPU kernels ([`crate::gpu`]) honour every field: the
//!   queue kind, buffering and "aligned" merges all run *inside* the
//!   hierarchical search there, because that is what the paper measures.
//! * Natively, a config with [`SelectConfig::hp`] set is selected by the
//!   Hierarchical Partition alone. Its top-down search is already exact
//!   and linear in the ~G·k·log_G(N/k) elements it touches, so it
//!   returns its picks directly; `queue`, `buffer` and `aligned` then
//!   have no native effect (intra-warp merge synchronisation has no
//!   native analogue at all). Without HP, the scan feeds the configured
//!   queue, through the buffer when one is set.
//!
//! [`Selector`] is the one native implementation. It keeps its
//! hierarchy levels and candidate buffers between calls, and each call
//! takes a strict upper `bound`, so a streaming caller reuses one
//! selector per worker and lets each tile start from the k-th distance
//! the earlier tiles already proved. [`select_k`] is a one-shot
//! `Selector` with no bound.

use serde::{Deserialize, Serialize};

use crate::buffered::{buffered_select_below, BufferConfig};
use crate::error::KnnError;
use crate::hierarchical::{Hierarchy, HpConfig, TopDown};
use crate::queues::merge::valid_capacity;
use crate::queues::{HeapQueue, InsertionQueue, KQueue, MergeQueue};
use crate::types::{Neighbor, QueueKind};

/// Full description of a k-selection algorithm variant.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SelectConfig {
    /// Number of nearest neighbors to retain.
    pub k: usize,
    /// Queue structure maintaining the running k best.
    pub queue: QueueKind,
    /// Merge Queue level-0 size (the paper fixes `m = 8`).
    pub m: usize,
    /// Synchronise Merge Queue repairs across the warp (GPU only).
    pub aligned: bool,
    /// Buffered Search in front of the queue, if any.
    pub buffer: Option<BufferConfig>,
    /// Hierarchical Partition pre-filter, if any.
    pub hp: Option<HpConfig>,
}

impl SelectConfig {
    /// Plain queue-only selection (the paper's "original" rows).
    pub fn plain(queue: QueueKind, k: usize) -> Self {
        SelectConfig {
            k,
            queue,
            m: 8,
            aligned: false,
            buffer: None,
            hp: None,
        }
    }

    /// The paper's best variant: aligned Merge Queue with Buffered Search
    /// and Hierarchical Partition ("Merge Queue aligned+buf+hp").
    pub fn optimized(queue: QueueKind, k: usize) -> Self {
        SelectConfig {
            k,
            queue,
            m: 8,
            aligned: true,
            buffer: Some(BufferConfig::default()),
            hp: Some(HpConfig::default()),
        }
    }

    /// Builder-style: set the buffer configuration.
    pub fn with_buffer(mut self, cfg: BufferConfig) -> Self {
        self.buffer = Some(cfg);
        self
    }

    /// Builder-style: set the hierarchical-partition configuration.
    pub fn with_hp(mut self, cfg: HpConfig) -> Self {
        self.hp = Some(cfg);
        self
    }

    /// Builder-style: set aligned merges (GPU kernels only).
    pub fn with_aligned(mut self, aligned: bool) -> Self {
        self.aligned = aligned;
        self
    }

    /// Short human-readable label ("Merge Queue aligned+buf+hp").
    pub fn label(&self) -> String {
        let mut s = self.queue.name().to_string();
        let mut tags = Vec::new();
        if self.aligned {
            tags.push("aligned");
        }
        if self.buffer.is_some() {
            tags.push("buf");
        }
        if self.hp.is_some() {
            tags.push("hp");
        }
        if !tags.is_empty() {
            s.push(' ');
            s.push_str(&tags.join("+"));
        }
        s
    }

    /// Check this config for selecting from `n` candidates, naming the
    /// first problem as a typed error instead of a panic deeper in:
    /// `k` must be in `1..=n`, a Merge Queue `k` must be `m·2^j`, a
    /// Hierarchical Partition group must hold at least 2 values and a
    /// buffer at least 1.
    pub fn validate(&self, n: usize) -> Result<(), KnnError> {
        if self.k == 0 || self.k > n {
            return Err(KnnError::InvalidK { k: self.k, n });
        }
        if self.queue == QueueKind::Merge && !valid_capacity(self.k, self.m) {
            return Err(KnnError::MergeShape {
                k: self.k,
                m: self.m,
            });
        }
        if let Some(hp) = self.hp.filter(|hp| hp.g < 2) {
            return Err(KnnError::InvalidParam {
                what: "hierarchical partition group size",
                value: hp.g,
                min: 2,
            });
        }
        if let Some(buf) = self.buffer.filter(|b| b.size == 0) {
            return Err(KnnError::InvalidParam {
                what: "buffer size",
                value: buf.size,
                min: 1,
            });
        }
        Ok(())
    }
}

/// Native k-selection with scratch reused across calls.
///
/// One selector serves any number of [`Selector::select`] calls under
/// its config; with Hierarchical Partition its level and candidate
/// buffers (`O(N/(G-1) + G·k)` floats for lists of length `N`) are
/// allocated by the first call and reused after it.
#[derive(Clone, Debug)]
pub struct Selector {
    cfg: SelectConfig,
    hier: Hierarchy,
    top_down: TopDown,
}

impl Selector {
    /// A selector for `cfg`. Nothing is allocated until the first call.
    pub fn new(cfg: SelectConfig) -> Self {
        Selector {
            cfg,
            hier: Hierarchy::empty(),
            top_down: TopDown::default(),
        }
    }

    /// The `cfg.k` smallest values of `dists` that are strictly below
    /// `bound`, sorted ascending by `(dist, id)` with ids indexing
    /// `dists`; fewer when fewer values are below it. Pass
    /// `f32::INFINITY` for no bound (+∞ and NaN are never selected).
    ///
    /// The result is the unbounded result with its picks `≥ bound`
    /// removed (for the Heap and Merge queues, up to which of several
    /// values tied at the k-th distance is kept).
    ///
    /// # Panics
    /// When `cfg.k` is zero, or on a config [`SelectConfig::validate`]
    /// rejects for a structure it builds (a Merge Queue `k` that is not
    /// `m·2^j` without HP, an HP group below 2, a zero-size buffer).
    pub fn select(&mut self, dists: &[f32], bound: f32) -> Vec<Neighbor> {
        let cfg = &self.cfg;
        if let Some(hp) = cfg.hp {
            self.hier.rebuild(dists, hp.g, cfg.k);
            return self.top_down.select(dists, &self.hier, cfg.k, bound);
        }
        match cfg.queue {
            QueueKind::Insertion => {
                let mut q = InsertionQueue::new(cfg.k);
                run_with_queue(&mut q, dists, cfg.buffer.as_ref(), bound);
                q.into_sorted()
            }
            QueueKind::Heap => {
                let mut q = HeapQueue::new(cfg.k);
                run_with_queue(&mut q, dists, cfg.buffer.as_ref(), bound);
                q.into_sorted()
            }
            QueueKind::Merge => {
                let mut q = MergeQueue::new(cfg.k, cfg.m);
                run_with_queue(&mut q, dists, cfg.buffer.as_ref(), bound);
                q.into_sorted()
            }
        }
    }
}

/// Scan `dists` into `queue` (through the buffer, if any), skipping
/// values `≥ bound`.
fn run_with_queue<Q: KQueue>(
    queue: &mut Q,
    dists: &[f32],
    buffer: Option<&BufferConfig>,
    bound: f32,
) {
    match buffer {
        None => {
            for (id, &d) in dists.iter().enumerate() {
                if d < bound && d < queue.max() {
                    queue.offer(d, id as u32);
                }
            }
        }
        Some(b) => {
            buffered_select_below(queue, dists, b, bound);
        }
    }
}

/// Select the `cfg.k` smallest distances natively, returning neighbors
/// sorted ascending by distance: `Selector::new(*cfg).select(dists,
/// f32::INFINITY)`.
pub fn select_k(dists: &[f32], cfg: &SelectConfig) -> Vec<Neighbor> {
    Selector::new(*cfg).select(dists, f32::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn oracle(dists: &[f32], k: usize) -> Vec<f32> {
        let mut v = dists.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.truncate(k);
        v
    }

    #[test]
    fn every_variant_matches_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let dists: Vec<f32> = (0..4000).map(|_| rng.gen()).collect();
        let k = 32;
        for queue in QueueKind::ALL {
            for buffer in [None, Some(BufferConfig::default())] {
                for hp in [None, Some(HpConfig::default())] {
                    let cfg = SelectConfig {
                        k,
                        queue,
                        m: 8,
                        aligned: false,
                        buffer,
                        hp,
                    };
                    let got: Vec<f32> = select_k(&dists, &cfg).iter().map(|n| n.dist).collect();
                    assert_eq!(got, oracle(&dists, k), "{}", cfg.label());
                }
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(
            SelectConfig::plain(QueueKind::Heap, 8).label(),
            "Heap Queue"
        );
        assert_eq!(
            SelectConfig::optimized(QueueKind::Merge, 16).label(),
            "Merge Queue aligned+buf+hp"
        );
    }

    #[test]
    fn ids_valid_in_all_variants() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let dists: Vec<f32> = (0..2000).map(|_| rng.gen()).collect();
        for queue in QueueKind::ALL {
            let cfg = SelectConfig::optimized(queue, 16);
            for n in select_k(&dists, &cfg) {
                assert_eq!(dists[n.id as usize], n.dist, "{}", cfg.label());
            }
        }
    }

    #[test]
    fn validate_names_each_bad_config() {
        let ok = SelectConfig::optimized(QueueKind::Merge, 32);
        assert_eq!(ok.validate(32), Ok(()));
        assert_eq!(
            SelectConfig::plain(QueueKind::Heap, 24).validate(100),
            Ok(())
        );
        let cases = [
            (
                SelectConfig::plain(QueueKind::Heap, 0),
                KnnError::InvalidK { k: 0, n: 10 },
            ),
            (ok, KnnError::InvalidK { k: 32, n: 10 }),
            (
                SelectConfig::optimized(QueueKind::Merge, 24),
                KnnError::MergeShape { k: 24, m: 8 },
            ),
            (
                SelectConfig {
                    m: 0,
                    ..SelectConfig::plain(QueueKind::Merge, 8)
                },
                KnnError::MergeShape { k: 8, m: 0 },
            ),
            (
                ok.with_hp(HpConfig { g: 1 }),
                KnnError::InvalidParam {
                    what: "hierarchical partition group size",
                    value: 1,
                    min: 2,
                },
            ),
            (
                ok.with_buffer(BufferConfig {
                    size: 0,
                    ..BufferConfig::default()
                }),
                KnnError::InvalidParam {
                    what: "buffer size",
                    value: 0,
                    min: 1,
                },
            ),
        ];
        for (cfg, want) in cases {
            let n = match want {
                KnnError::InvalidK { n, .. } => n,
                _ => 1000,
            };
            assert_eq!(cfg.validate(n), Err(want), "{}", cfg.label());
        }
    }

    #[test]
    fn hp_configs_ignore_the_queue_natively() {
        // HP returns its exact picks directly, so a Merge k that is not
        // m·2^j (which only the simulated kernels build a queue for) and
        // every queue kind select the same neighbors.
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let dists: Vec<f32> = (0..3000).map(|_| rng.gen()).collect();
        let want = select_k(&dists, &SelectConfig::optimized(QueueKind::Insertion, 24));
        assert_eq!(want.len(), 24);
        for queue in QueueKind::ALL {
            let got = select_k(&dists, &SelectConfig::optimized(queue, 24));
            assert_eq!(got, want, "{queue}");
        }
    }

    #[test]
    fn k_larger_than_n() {
        let dists = vec![0.5, 0.25];
        let cfg = SelectConfig::plain(QueueKind::Insertion, 8);
        let got = select_k(&dists, &cfg);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].dist, 0.25);
    }
}
