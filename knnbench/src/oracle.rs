//! Brute-force correctness oracle: scalar distances over every
//! reference, then a partial sort.
//!
//! The library's exact-search contract is that every path returns the
//! distances of its scalar reference bit for bit: ‖q‖² + ‖r‖² − 2·q·r,
//! each inner product accumulated over eight independent partial sums
//! folded by a fixed pairwise tree, clamped at zero, non-finite mapped
//! to +∞. The oracle restates that arithmetic here instead of calling
//! the library, so a change to the library's numerics shows up as a
//! mismatch rather than moving the oracle with it.

use knn::PointSet;
use kselect::Neighbor;

const LANES: usize = 8;

fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let split = a.len() - a.len() % LANES;
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

fn distance(q: &[f32], norm_q: f32, r: &[f32], norm_r: f32) -> f32 {
    let raw = norm_q + norm_r - 2.0 * dot(q, r);
    let d = if raw < 0.0 { 0.0 } else { raw };
    if d.is_finite() {
        d
    } else {
        f32::INFINITY
    }
}

/// Checks queries against one reference set, one query at a time.
pub struct Oracle<'a> {
    refs: &'a PointSet,
    norms: Vec<f32>,
    row: Vec<f32>,
    top: Vec<f32>,
}

impl<'a> Oracle<'a> {
    pub fn new(refs: &'a PointSet) -> Self {
        Oracle {
            refs,
            norms: (0..refs.len())
                .map(|i| dot(refs.point(i), refs.point(i)))
                .collect(),
            row: vec![0.0; refs.len()],
            top: Vec::new(),
        }
    }

    /// Check one query's neighbors against the brute-force answer.
    ///
    /// Passes when the result is sorted ascending, its distance list is
    /// bit-equal to the exact k smallest, its ids are distinct and in
    /// range, and every id's true distance is bit-equal to the distance
    /// reported beside it. Together these force the id set to match the
    /// oracle exactly below the k-th value; at the k-th value any of the
    /// tied ids may be kept, which is the tie rule the library documents
    /// for its heap and merge queues.
    pub fn check(&mut self, q: &[f32], k: usize, got: &[Neighbor]) -> Result<(), String> {
        let n = self.refs.len();
        let norm_q = dot(q, q);
        for (ri, d) in self.row.iter_mut().enumerate() {
            *d = distance(q, norm_q, self.refs.point(ri), self.norms[ri]);
        }
        if got.len() != k {
            return Err(format!("{} neighbors, expected {k}", got.len()));
        }
        self.top.clear();
        self.top.extend_from_slice(&self.row);
        self.top.select_nth_unstable_by(k - 1, f32::total_cmp);
        self.top.truncate(k);
        self.top.sort_unstable_by(f32::total_cmp);
        let mut seen: Vec<u32> = Vec::with_capacity(k);
        for (i, (nb, want)) in got.iter().zip(&self.top).enumerate() {
            if nb.dist.to_bits() != want.to_bits() {
                return Err(format!("rank {i}: distance {} != exact {want}", nb.dist));
            }
            let id = nb.id as usize;
            if id >= n {
                return Err(format!("rank {i}: id {id} out of range"));
            }
            if self.row[id].to_bits() != nb.dist.to_bits() {
                return Err(format!(
                    "rank {i}: id {id} reported at {} but lies at {}",
                    nb.dist, self.row[id]
                ));
            }
            seen.push(nb.id);
        }
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate id in the result".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(q: &[f32], refs: &PointSet, k: usize) -> Vec<Neighbor> {
        let norm_q = dot(q, q);
        let mut all: Vec<Neighbor> = (0..refs.len())
            .map(|i| Neighbor {
                dist: distance(q, norm_q, refs.point(i), dot(refs.point(i), refs.point(i))),
                id: i as u32,
            })
            .collect();
        all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        all.truncate(k);
        all
    }

    #[test]
    fn matches_the_library_scalar_distance_bit_for_bit() {
        let refs = PointSet::uniform(64, 13, 1);
        let q = PointSet::uniform(1, 13, 2);
        for r in 0..refs.len() {
            let want = knn::squared_distance(q.point(0), refs.point(r));
            let (qp, rp) = (q.point(0), refs.point(r));
            let got = distance(qp, dot(qp, qp), rp, dot(rp, rp));
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn accepts_the_exact_answer_and_rejects_each_kind_of_error() {
        let refs = PointSet::uniform(200, 16, 3);
        let q = PointSet::uniform(1, 16, 4);
        let k = 8;
        let good = exact(q.point(0), &refs, k);
        let mut o = Oracle::new(&refs);
        assert!(o.check(q.point(0), k, &good).is_ok());

        let mut short = good.clone();
        short.pop();
        assert!(o.check(q.point(0), k, &short).is_err());

        let mut wrong_id = good.clone();
        wrong_id[3].id = wrong_id[4].id;
        assert!(o.check(q.point(0), k, &wrong_id).is_err());

        let mut wrong_dist = good.clone();
        wrong_dist[2].dist = f32::from_bits(wrong_dist[2].dist.to_bits() + 1);
        assert!(o.check(q.point(0), k, &wrong_dist).is_err());

        let mut missed = good.clone();
        let next = exact(q.point(0), &refs, k + 1)[k];
        missed[k - 1] = next;
        assert!(o.check(q.point(0), k, &missed).is_err());
    }

    #[test]
    fn any_id_tied_at_the_kth_value_is_accepted() {
        // Four identical references: every one lies at the same distance.
        let refs = PointSet::from_flat(vec![0.5; 4 * 8], 8);
        let q = PointSet::from_flat(vec![0.25; 8], 8);
        let (qp, rp) = (q.point(0), refs.point(0));
        let d = distance(qp, dot(qp, qp), rp, dot(rp, rp));
        let got = [Neighbor { dist: d, id: 3 }, Neighbor { dist: d, id: 1 }];
        let mut o = Oracle::new(&refs);
        assert!(o.check(q.point(0), 2, &got).is_ok());
        let dup = [Neighbor { dist: d, id: 1 }, Neighbor { dist: d, id: 1 }];
        assert!(o.check(q.point(0), 2, &dup).is_err());
    }
}
