//! K-means clustering of workload embeddings.
//!
//! Groups workloads into families so one tuned configuration can serve a
//! whole cluster (slide 88: "optimize one system, reuse on similar ones").
//! K-means++ seeding plus Lloyd iterations; deterministic under a seed.

use crate::{Result, WidError};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    /// Training-set assignments (cluster index per input row).
    assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids.
    inertia: f64,
}

impl KMeans {
    /// Fits `k` clusters to `points` (rows), deterministically per seed.
    pub fn fit(points: &[Vec<f64>], k: usize, seed: u64) -> Result<Self> {
        if points.len() < k || k == 0 {
            return Err(WidError::NotEnoughData {
                what: "k-means",
                needed: k.max(1),
                got: points.len(),
            });
        }
        let d = points[0].len();
        for p in points {
            if p.len() != d {
                return Err(WidError::DimensionMismatch {
                    expected: d,
                    actual: p.len(),
                });
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut centroids = kmeanspp_init(points, k, &mut rng);
        let mut assignments = vec![0usize; points.len()];
        let mut inertia = f64::INFINITY;
        for _iter in 0..100 {
            // Assign.
            let mut changed = false;
            let mut new_inertia = 0.0;
            for (i, p) in points.iter().enumerate() {
                let (best, dist) = nearest(&centroids, p);
                new_inertia += dist;
                if assignments[i] != best {
                    assignments[i] = best;
                    changed = true;
                }
            }
            inertia = new_inertia;
            if !changed {
                break;
            }
            // Update.
            let mut sums = vec![vec![0.0; d]; k];
            let mut counts = vec![0usize; k];
            for (p, &a) in points.iter().zip(&assignments) {
                autotune_linalg::axpy(1.0, p, &mut sums[a]);
                counts[a] += 1;
            }
            // Re-seed empty clusters at the point farthest from any
            // current centroid (computed before mutation to keep the
            // borrow checker and the semantics honest).
            let far = points
                .iter()
                .max_by(|a, b| {
                    let da = nearest(&centroids, a).1;
                    let db = nearest(&centroids, b).1;
                    da.total_cmp(&db)
                })
                .expect("points non-empty") // lint: allow(D5) fit() rejects empty inputs at entry
                .clone();
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if count > 0 {
                    *c = sum.iter().map(|s| s / count as f64).collect();
                } else {
                    *c = far.clone();
                }
            }
        }
        Ok(KMeans {
            centroids,
            assignments,
            inertia,
        })
    }

    /// Cluster centroids.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Training-set assignments.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Final inertia (sum of squared distances).
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Predicts the cluster of a new point.
    pub fn predict(&self, point: &[f64]) -> usize {
        nearest(&self.centroids, point).0
    }
}

/// One centroid of a [`StreamingClusters`] model: a running mean over the
/// fingerprints assigned to it so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCentroid {
    mean: Vec<f64>,
    /// Number of fingerprints folded into the running mean.
    n: u64,
}

impl StreamCentroid {
    /// Current centroid position.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Number of assignments absorbed.
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// Result of assigning one fingerprint to a [`StreamingClusters`] model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamAssignment {
    /// Index of the workload family the fingerprint was assigned to.
    pub family: usize,
    /// Euclidean distance to the family centroid *before* the running-mean
    /// update (0 for a freshly spawned family).
    pub distance: f64,
    /// True if this assignment spawned a new family.
    pub spawned: bool,
}

/// Streaming online clustering of workload fingerprints.
///
/// Each incoming fingerprint is assigned to its nearest existing centroid
/// (Euclidean distance, lowest index wins ties); when the nearest centroid
/// is farther than `threshold` — or no centroid exists yet — a new family
/// is spawned at the fingerprint. Assigned centroids track the running mean
/// of their members, so families drift toward the true workload center.
///
/// The model is a pure function of the assignment order: no randomness, no
/// hash iteration, no clocks. Replaying the same fingerprint sequence
/// reproduces byte-identical state, which is what lets the serve layer
/// journal assignments in its WAL and rebuild the model on recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingClusters {
    threshold: f64,
    centroids: Vec<StreamCentroid>,
}

impl StreamingClusters {
    /// Creates an empty model that spawns a new family whenever the
    /// nearest centroid is farther than `threshold` (Euclidean).
    ///
    /// # Panics
    /// Panics if `threshold` is not finite and positive.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "streaming cluster threshold must be finite and positive"
        );
        StreamingClusters {
            threshold,
            centroids: Vec::new(),
        }
    }

    /// The spawn threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of families spawned so far.
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// True if no fingerprint has been assigned yet.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// The centroids, indexed by family id.
    pub fn centroids(&self) -> &[StreamCentroid] {
        &self.centroids
    }

    /// Non-mutating nearest-family query: `(family, distance)` of the
    /// closest centroid within the threshold, or `None` if the fingerprint
    /// would spawn a new family. Used by read-only cache lookups that must
    /// not perturb the model. Takes a [`Fingerprint`](crate::Fingerprint) or the bare feature
    /// slice, so a caller that holds only the slice copies nothing.
    pub fn classify(&self, fp: &(impl AsRef<[f64]> + ?Sized)) -> Option<(usize, f64)> {
        let (family, d2) = nearest_checked(&self.centroids, fp.as_ref())?;
        let dist = d2.sqrt();
        if dist <= self.threshold {
            Some((family, dist))
        } else {
            None
        }
    }

    /// Assigns `fp` to its nearest family, spawning a new one past the
    /// threshold, and folds it into the winning centroid's running mean.
    ///
    /// # Panics
    /// Panics if `fp`'s dimension disagrees with existing centroids.
    pub fn assign(&mut self, fp: &(impl AsRef<[f64]> + ?Sized)) -> StreamAssignment {
        let x = fp.as_ref();
        let nearest = nearest_checked(&self.centroids, x);
        self.absorb(x, nearest)
    }

    /// The rest of [`StreamingClusters::assign`], given `x`'s nearest
    /// centroid.
    fn absorb(&mut self, x: &[f64], nearest: Option<(usize, f64)>) -> StreamAssignment {
        match nearest {
            Some((family, d2)) if d2.sqrt() <= self.threshold => {
                let c = &mut self.centroids[family];
                c.n += 1;
                let inv = 1.0 / c.n as f64;
                for (m, &xi) in c.mean.iter_mut().zip(x) {
                    *m += (xi - *m) * inv;
                }
                StreamAssignment {
                    family,
                    distance: d2.sqrt(),
                    spawned: false,
                }
            }
            _ => {
                self.centroids.push(StreamCentroid {
                    mean: x.to_vec(),
                    n: 1,
                });
                StreamAssignment {
                    family: self.centroids.len() - 1,
                    distance: 0.0,
                    spawned: true,
                }
            }
        }
    }
}

/// How many centroids' distances [`nearest_checked`] computes side by side.
const CHAINS: usize = 4;

/// Returns `(index, squared_distance)` of the nearest streaming centroid,
/// or `None` when there are no centroids. Lowest index wins exact ties
/// because the scan keeps the first strict minimum.
///
/// Centroids are taken [`CHAINS`] at a time ([`squared_distances`]), the
/// rest one by one; every distance is `squared_distance`'s bit for bit and
/// they are offered to the minimum in index order, so the answer is the
/// one-at-a-time scan's. The chains only stop each add from waiting on
/// the one before it.
fn nearest_checked(centroids: &[StreamCentroid], x: &[f64]) -> Option<(usize, f64)> {
    let check = |c: &StreamCentroid| {
        assert_eq!(
            c.mean.len(),
            x.len(),
            "fingerprint dimension mismatch against centroid"
        );
    };
    let mut best: Option<(usize, f64)> = None;
    let mut offer = |i: usize, d: f64| match best {
        Some((_, bd)) if d >= bd => {}
        _ => best = Some((i, d)),
    };
    let mut groups = centroids.chunks_exact(CHAINS);
    let mut i = 0;
    for group in groups.by_ref() {
        group.iter().for_each(check);
        let d = squared_distances(std::array::from_fn(|r| &group[r].mean[..]), x);
        for (r, d) in d.into_iter().enumerate() {
            offer(i + r, d);
        }
        i += CHAINS;
    }
    for (i, c) in (i..).zip(groups.remainder()) {
        check(c);
        offer(i, autotune_linalg::squared_distance(&c.mean, x));
    }
    best
}

/// `squared_distance(rows[r], x)` for every `r` at once, each bit for bit
/// what it returns: its own accumulator starting at `-0.0` (where
/// `f64::sum` starts), ascending `k`, `d = rows[r][k] - x[k]` and then
/// `acc + d * d`, with no fused multiply-add.
#[inline]
fn squared_distances(rows: [&[f64]; CHAINS], x: &[f64]) -> [f64; CHAINS] {
    let rows = rows.map(|r| &r[..x.len()]);
    let mut acc = [-0.0; CHAINS];
    for (k, &xk) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            let d = row[k] - xk;
            *a += d * d;
        }
    }
    acc
}

/// The one-at-a-time scan [`nearest_checked`] replaced, kept as the
/// oracle it is held bitwise equal to.
#[cfg(test)]
fn nearest_checked_rows(centroids: &[StreamCentroid], x: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in centroids.iter().enumerate() {
        assert_eq!(
            c.mean.len(),
            x.len(),
            "fingerprint dimension mismatch against centroid"
        );
        let d = autotune_linalg::squared_distance(&c.mean, x);
        match best {
            Some((_, bd)) if d >= bd => {}
            _ => best = Some((i, d)),
        }
    }
    best
}

/// Returns `(index, squared_distance)` of the nearest centroid.
fn nearest(centroids: &[Vec<f64>], p: &[f64]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = autotune_linalg::squared_distance(c, p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

/// K-means++ seeding: spread the initial centroids proportionally to
/// squared distance from those already chosen.
fn kmeanspp_init(points: &[Vec<f64>], k: usize, rng: &mut impl Rng) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let dists: Vec<f64> = points.iter().map(|p| nearest(&centroids, p).1).collect();
        let total: f64 = dists.iter().sum();
        if total <= 0.0 {
            // All points coincide with existing centroids: duplicate one.
            centroids.push(points[rng.gen_range(0..points.len())].clone());
            continue;
        }
        let mut target = rng.gen::<f64>() * total;
        let mut chosen = points.len() - 1;
        for (i, &d) in dists.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(points[chosen].clone());
    }
    centroids
}

/// Clustering purity against known labels: the fraction of points whose
/// cluster's majority label matches their own. 1.0 = perfect.
pub fn purity(assignments: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(assignments.len(), labels.len(), "purity: length mismatch");
    if assignments.is_empty() {
        return 1.0;
    }
    let k = assignments.iter().max().map_or(0, |&m| m + 1);
    let l = labels.iter().max().map_or(0, |&m| m + 1);
    let mut counts = vec![vec![0usize; l]; k];
    for (&a, &lab) in assignments.iter().zip(labels) {
        counts[a][lab] += 1;
    }
    let majority_sum: usize = counts
        .iter()
        .map(|row| row.iter().max().copied().unwrap_or(0))
        .sum();
    majority_sum as f64 / assignments.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fingerprint;
    use rand::rngs::StdRng;

    fn blobs(
        centers: &[Vec<f64>],
        per: usize,
        spread: f64,
        seed: u64,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for (li, c) in centers.iter().enumerate() {
            for _ in 0..per {
                let p: Vec<f64> = c
                    .iter()
                    .map(|&x| x + spread * (rng.gen::<f64>() - 0.5))
                    .collect();
                pts.push(p);
                labels.push(li);
            }
        }
        (pts, labels)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let centers = vec![vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]];
        let (pts, labels) = blobs(&centers, 30, 1.0, 1);
        let km = KMeans::fit(&pts, 3, 42).unwrap();
        assert!(purity(km.assignments(), &labels) > 0.95);
    }

    #[test]
    fn predict_matches_training_assignment() {
        let centers = vec![vec![0.0], vec![100.0]];
        let (pts, _) = blobs(&centers, 10, 1.0, 2);
        let km = KMeans::fit(&pts, 2, 3).unwrap();
        for (p, &a) in pts.iter().zip(km.assignments()) {
            assert_eq!(km.predict(p), a);
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let centers = vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![10.0, 0.0]];
        let (pts, _) = blobs(&centers, 20, 2.0, 4);
        let i1 = KMeans::fit(&pts, 1, 5).unwrap().inertia();
        let i3 = KMeans::fit(&pts, 3, 5).unwrap().inertia();
        assert!(i3 < i1 * 0.5, "inertia k=3 {i3} vs k=1 {i1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (pts, _) = blobs(&[vec![0.0], vec![8.0]], 15, 1.0, 6);
        let a = KMeans::fit(&pts, 2, 7).unwrap();
        let b = KMeans::fit(&pts, 2, 7).unwrap();
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn too_few_points_rejected() {
        let pts = vec![vec![1.0]];
        assert!(matches!(
            KMeans::fit(&pts, 2, 0),
            Err(WidError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn purity_extremes() {
        assert_eq!(purity(&[0, 0, 1, 1], &[0, 0, 1, 1]), 1.0);
        assert_eq!(purity(&[0, 1, 0, 1], &[0, 0, 1, 1]), 0.5);
        assert_eq!(purity(&[], &[]), 1.0);
    }

    #[test]
    fn duplicate_points_handled() {
        let pts = vec![vec![1.0, 1.0]; 10];
        let km = KMeans::fit(&pts, 2, 8).unwrap();
        assert_eq!(km.assignments().len(), 10);
        assert!(km.inertia() < 1e-12);
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::from_features(v.to_vec())
    }

    #[test]
    fn streaming_spawns_and_assigns() {
        let mut sc = StreamingClusters::new(1.0);
        assert!(sc.is_empty());
        let a = sc.assign(&fp(&[0.0, 0.0]));
        assert!(a.spawned);
        assert_eq!(a.family, 0);
        // Within threshold: joins family 0.
        let b = sc.assign(&fp(&[0.5, 0.0]));
        assert!(!b.spawned);
        assert_eq!(b.family, 0);
        // Far away: spawns family 1.
        let c = sc.assign(&fp(&[10.0, 0.0]));
        assert!(c.spawned);
        assert_eq!(c.family, 1);
        assert_eq!(sc.len(), 2);
    }

    #[test]
    fn streaming_running_mean_updates() {
        let mut sc = StreamingClusters::new(10.0);
        sc.assign(&fp(&[0.0]));
        sc.assign(&fp(&[2.0]));
        assert_eq!(sc.centroids()[0].mean(), &[1.0]);
        assert_eq!(sc.centroids()[0].n(), 2);
        sc.assign(&fp(&[4.0]));
        assert_eq!(sc.centroids()[0].mean(), &[2.0]);
    }

    #[test]
    fn streaming_classify_is_pure() {
        let mut sc = StreamingClusters::new(1.0);
        sc.assign(&fp(&[0.0, 0.0]));
        let before = sc.clone();
        assert_eq!(sc.classify(&fp(&[0.5, 0.0])).map(|(f, _)| f), Some(0));
        assert_eq!(sc.classify(&fp(&[5.0, 0.0])), None);
        assert_eq!(sc, before, "classify must not mutate the model");
    }

    #[test]
    fn streaming_tie_breaks_to_lowest_index() {
        let mut sc = StreamingClusters::new(0.5);
        sc.assign(&fp(&[0.0]));
        sc.assign(&fp(&[0.8])); // spawns family 1 (distance 0.8 > 0.5)
                                // Equidistant point: family 0 must win.
        let a = sc.classify(&fp(&[0.4]));
        assert_eq!(a.map(|(f, _)| f), Some(0));
    }

    /// `n` centroids of dimension `dim`, every third a copy of the one
    /// three before it, so exact ties are common.
    fn centroids(n: usize, dim: usize, rng: &mut StdRng) -> Vec<StreamCentroid> {
        let mut out: Vec<StreamCentroid> = Vec::with_capacity(n);
        for i in 0..n {
            let mean = if i >= 3 && i % 3 == 0 {
                out[i - 3].mean.clone()
            } else {
                (0..dim).map(|_| rng.gen_range(-4.0..4.0)).collect()
            };
            out.push(StreamCentroid { mean, n: 1 });
        }
        out
    }

    fn bits(nearest: Option<(usize, f64)>) -> Option<(usize, u64)> {
        nearest.map(|(i, d)| (i, d.to_bits()))
    }

    #[test]
    fn the_chained_scan_is_the_row_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(26);
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for n in 0..=17 {
            for dim in 1..=33 {
                let cs = centroids(n, dim, &mut rng);
                let mut queries: Vec<Vec<f64>> = cs.iter().map(|c| c.mean.clone()).collect();
                queries.push((0..dim).map(|_| rng.gen_range(-6.0..6.0)).collect());
                for (s, &special) in specials.iter().enumerate() {
                    let mut q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-6.0..6.0)).collect();
                    q[s % dim] = special;
                    queries.push(q);
                }
                for q in &queries {
                    assert_eq!(
                        bits(nearest_checked(&cs, q)),
                        bits(nearest_checked_rows(&cs, q)),
                        "{n} centroids of dimension {dim}, query {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_lowest_of_equal_centroids_wins_in_every_lane() {
        for n in 1..=17 {
            let cs = vec![
                StreamCentroid {
                    mean: vec![1.0, -2.0, 0.5],
                    n: 1
                };
                n
            ];
            let at_zero = nearest_checked(&cs, &[0.0, 0.0, 0.0]);
            assert_eq!(at_zero.map(|(i, _)| i), Some(0), "{n} copies");
            // A nearer copy in any lane beats the ones before it.
            for better in 0..n {
                let mut cs = cs.clone();
                cs[better].mean = vec![0.5, -1.0, 0.25];
                let got = nearest_checked(&cs, &[0.0, 0.0, 0.0]);
                assert_eq!(got.map(|(i, _)| i), Some(better), "{n} copies");
            }
        }
    }

    #[test]
    fn a_dimension_mismatch_panics_in_a_group_and_in_the_rest() {
        for n in [1, 3, 4, 5, 9] {
            let cs = vec![
                StreamCentroid {
                    mean: vec![0.0; 3],
                    n: 1
                };
                n
            ];
            let caught = std::panic::catch_unwind(|| nearest_checked(&cs, &[0.0, 0.0]));
            let why = caught.expect_err("a 2-feature query against 3-feature centroids");
            let why = why
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(why.contains("fingerprint dimension mismatch"), "{n}: {why}");
        }
    }

    #[test]
    fn a_seeded_assign_sequence_leaves_the_oracles_model() {
        let mut rng = StdRng::seed_from_u64(35);
        let seq: Vec<Vec<f64>> = (0..600)
            .map(|i| {
                let center = (i % 13) as f64 * 3.0;
                (0..12).map(|_| center + rng.gen_range(-1.0..1.0)).collect()
            })
            .collect();
        let mut chained = StreamingClusters::new(2.5);
        let mut oracle = StreamingClusters::new(2.5);
        for x in &seq {
            let a = chained.assign(x.as_slice());
            let nearest = nearest_checked_rows(&oracle.centroids, x);
            let b = oracle.absorb(x, nearest);
            assert_eq!(
                (a.family, a.distance.to_bits(), a.spawned),
                (b.family, b.distance.to_bits(), b.spawned)
            );
        }
        assert!(chained.len() > 8, "{} families", chained.len());
        assert_eq!(
            serde_json::to_string(&chained).unwrap(),
            serde_json::to_string(&oracle).unwrap()
        );
    }

    #[test]
    fn streaming_replay_is_byte_identical() {
        let seq: Vec<Fingerprint> = (0..50)
            .map(|i| fp(&[(i % 7) as f64 * 3.0, (i % 5) as f64]))
            .collect();
        let mut a = StreamingClusters::new(2.0);
        let mut b = StreamingClusters::new(2.0);
        let ra: Vec<_> = seq.iter().map(|f| a.assign(f)).collect();
        let rb: Vec<_> = seq.iter().map(|f| b.assign(f)).collect();
        assert_eq!(ra, rb);
        assert_eq!(a, b);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb);
        let back: StreamingClusters = serde_json::from_str(&ja).unwrap();
        assert_eq!(back, a);
    }
}
