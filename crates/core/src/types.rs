//! Common types for k-selection.

use serde::{Deserialize, Serialize};

/// Sentinel distance used to pre-fill queues: larger than any real
/// distance, so the first `k` candidates always displace sentinels.
pub const INF: f32 = f32::INFINITY;

/// Sentinel id paired with [`INF`] slots.
pub const NO_ID: u32 = u32::MAX;

/// One k-NN result entry: a distance and the reference index it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Distance between the query and reference `id`.
    pub dist: f32,
    /// Index of the reference item.
    pub id: u32,
}

impl Neighbor {
    /// Construct a neighbor entry.
    pub fn new(dist: f32, id: u32) -> Self {
        Neighbor { dist, id }
    }

    /// The sentinel entry queues are pre-filled with.
    pub fn sentinel() -> Self {
        Neighbor {
            dist: INF,
            id: NO_ID,
        }
    }

    /// True for sentinel (never-written) slots.
    pub fn is_sentinel(&self) -> bool {
        self.dist.is_infinite() && self.id == NO_ID
    }
}

/// Result order: ascending by distance under IEEE `<` (so `-0.0 ==
/// 0.0`; a NaN compares equal to everything), ties by id.
#[inline]
pub(crate) fn cmp_neighbors(a: &Neighbor, b: &Neighbor) -> core::cmp::Ordering {
    a.dist
        .partial_cmp(&b.dist)
        .unwrap_or(core::cmp::Ordering::Equal)
        .then(a.id.cmp(&b.id))
}

/// Sort a slice of neighbors ascending by distance (ties by id, for
/// deterministic comparisons in tests).
pub fn sort_neighbors(ns: &mut [Neighbor]) {
    ns.sort_by(cmp_neighbors);
}

/// Which queue structure maintains the running k best candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueKind {
    /// Fully-sorted insertion queue: O(k) per insert, very regular.
    Insertion,
    /// Binary max-heap: O(log k) per insert, irregular tree walks.
    Heap,
    /// The paper's Merge Queue: lazily-merged sorted levels,
    /// amortised O(log² k) per insert, regular bitonic-merge repairs.
    Merge,
}

impl QueueKind {
    /// All three kinds, in the paper's presentation order.
    pub const ALL: [QueueKind; 3] = [QueueKind::Insertion, QueueKind::Heap, QueueKind::Merge];

    /// Human-readable name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            QueueKind::Insertion => "Insertion Queue",
            QueueKind::Heap => "Heap Queue",
            QueueKind::Merge => "Merge Queue",
        }
    }
}

impl core::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_detection() {
        assert!(Neighbor::sentinel().is_sentinel());
        assert!(!Neighbor::new(0.5, 3).is_sentinel());
        // An INF distance with a real id is not a sentinel (it was written).
        assert!(!Neighbor::new(INF, 3).is_sentinel());
    }

    #[test]
    fn sorting_is_stable_on_ties() {
        let mut v = vec![
            Neighbor::new(2.0, 7),
            Neighbor::new(1.0, 9),
            Neighbor::new(2.0, 3),
        ];
        sort_neighbors(&mut v);
        assert_eq!(v[0].id, 9);
        assert_eq!(v[1].id, 3); // tie broken by id
        assert_eq!(v[2].id, 7);
    }

    #[test]
    fn queue_kind_names() {
        assert_eq!(QueueKind::Merge.to_string(), "Merge Queue");
        assert_eq!(QueueKind::ALL.len(), 3);
    }
}
