//! CPU-side k-selection baselines — the paper's "CPU 1" / "CPU 16" rows.
//!
//! The paper parallelises the C++ standard-library heap across 16 Xeon
//! cores with OpenMP. The Rust equivalent: `std::collections::BinaryHeap`
//! as a bounded max-heap per query, fanned across queries with rayon.
//! These run for real (no simulation) and are also the reference the
//! integration tests trust.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use kselect::types::{sort_neighbors, Neighbor};
use rayon::prelude::*;

/// `f32` wrapper ordered for max-heap use (NaN-free by construction:
/// distances are sums of squares).
#[derive(Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f32,
    id: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or(Ordering::Equal)
            .then(self.id.cmp(&other.id))
    }
}

/// k smallest of one distance list via a bounded std max-heap,
/// sorted ascending.
pub fn heap_select(dists: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k > 0);
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for (id, &dist) in dists.iter().enumerate() {
        let e = HeapEntry {
            dist,
            id: id as u32,
        };
        if heap.len() < k {
            heap.push(e);
        } else if e.dist < heap.peek().unwrap().dist {
            heap.pop();
            heap.push(e);
        }
    }
    let mut out: Vec<Neighbor> = heap
        .into_iter()
        .map(|e| Neighbor::new(e.dist, e.id))
        .collect();
    sort_neighbors(&mut out);
    out
}

/// Serial CPU k-selection over all queries ("CPU 1").
pub fn cpu_select_serial(rows: &[Vec<f32>], k: usize) -> Vec<Vec<Neighbor>> {
    rows.iter().map(|r| heap_select(r, k)).collect()
}

/// Parallel CPU k-selection over all queries ("CPU 16" — uses however
/// many cores rayon has).
pub fn cpu_select_parallel(rows: &[Vec<f32>], k: usize) -> Vec<Vec<Neighbor>> {
    rows.par_iter().map(|r| heap_select(r, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rows(q: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..q)
            .map(|_| (0..n).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn heap_select_matches_sort() {
        let r = rows(1, 1000, 5);
        let got: Vec<f32> = heap_select(&r[0], 20).iter().map(|n| n.dist).collect();
        let mut expect = r[0].clone();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, &expect[..20]);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let r = rows(40, 500, 6);
        let a = cpu_select_serial(&r, 8);
        let b = cpu_select_parallel(&r, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            let xd: Vec<f32> = x.iter().map(|n| n.dist).collect();
            let yd: Vec<f32> = y.iter().map(|n| n.dist).collect();
            assert_eq!(xd, yd);
        }
    }

    #[test]
    fn k_bigger_than_n_returns_all() {
        let got = heap_select(&[3.0, 1.0], 5);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].dist, 1.0);
    }

    #[test]
    fn duplicate_distances_keep_distinct_ids() {
        let got = heap_select(&[0.5, 0.5, 0.5, 0.9], 3);
        let mut ids: Vec<u32> = got.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
