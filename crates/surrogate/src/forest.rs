//! SMAC-style random-forest surrogate (tutorial slide 50).
//!
//! Hutter et al.'s insight: an ensemble of randomized regression trees
//! yields both a mean *and* a variance estimate (the spread of per-tree
//! predictions plus within-leaf variance, by the law of total variance),
//! which is all an acquisition function needs. Trees natively handle the
//! axis-aligned, conditional, and categorical structure of real
//! configuration spaces where GP distance metrics struggle (slide 51).

use crate::{check_training_set, Prediction, Result, Surrogate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of trees in the ensemble.
const N_TREES: usize = 30;
/// Maximum tree depth.
const MAX_DEPTH: usize = 16;
/// Minimum samples per leaf.
const MIN_SAMPLES_LEAF: usize = 3;
/// Fraction of features considered at each split (0, 1]; SMAC uses ~5/6,
/// classic random forests use sqrt(d)/d.
const FEATURE_FRACTION: f64 = 5.0 / 6.0;
/// RNG seed of every fit: a fit is a function of its training set.
const SEED: u64 = 0;

/// One node of a regression tree, arena-allocated.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        mean: f64,
        variance: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Arena index of the `x[feature] <= threshold` child.
        left: usize,
        /// Arena index of the other child.
        right: usize,
    },
}

/// A single randomized regression tree.
#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn fit(xs: &[Vec<f64>], ys: &[f64], idx: &mut [usize], rng: &mut StdRng) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        let d = xs[0].len();
        let n_features = ((d as f64 * FEATURE_FRACTION).ceil() as usize).clamp(1, d);
        tree.build(xs, ys, idx, 0, n_features, rng);
        tree
    }

    /// Recursively builds the subtree over `idx`, returning its arena index.
    fn build(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        idx: &mut [usize],
        depth: usize,
        n_features: usize,
        rng: &mut StdRng,
    ) -> usize {
        let targets: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
        let mean = autotune_linalg::stats::mean(&targets);
        let variance = autotune_linalg::stats::variance(&targets);
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { mean, variance });
            nodes.len() - 1
        };
        if depth >= MAX_DEPTH || idx.len() < 2 * MIN_SAMPLES_LEAF || variance <= 1e-24 {
            return make_leaf(&mut self.nodes);
        }

        // Random feature subset, best variance-reduction split within it.
        let d = xs[0].len();
        let mut features: Vec<usize> = (0..d).collect();
        // Partial Fisher-Yates: the first n_features entries become the subset.
        for i in 0..n_features.min(d) {
            let j = rng.gen_range(i..d);
            features.swap(i, j);
        }
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for &f in &features[..n_features.min(d)] {
            // Sort indices by this feature and scan split points.
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));
            // Prefix sums for O(1) variance evaluation per split.
            let n = order.len();
            let values: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
            let mut prefix_sum = vec![0.0; n + 1];
            let mut prefix_sq = vec![0.0; n + 1];
            for (i, &v) in values.iter().enumerate() {
                prefix_sum[i + 1] = prefix_sum[i] + v;
                prefix_sq[i + 1] = prefix_sq[i] + v * v;
            }
            let total_sq_err = prefix_sq[n] - prefix_sum[n] * prefix_sum[n] / n as f64;
            for split in MIN_SAMPLES_LEAF..=(n - MIN_SAMPLES_LEAF) {
                let xa = xs[order[split - 1]][f];
                let xb = xs[order[split]][f];
                if xb - xa < 1e-12 {
                    continue; // ties cannot be separated
                }
                let nl = split as f64;
                let nr = (n - split) as f64;
                let left_err = prefix_sq[split] - prefix_sum[split] * prefix_sum[split] / nl;
                let rsum = prefix_sum[n] - prefix_sum[split];
                let right_err = (prefix_sq[n] - prefix_sq[split]) - rsum * rsum / nr;
                let reduction = total_sq_err - left_err - right_err;
                if best.is_none_or(|(_, _, s)| reduction > s) {
                    best = Some((f, 0.5 * (xa + xb), reduction));
                }
            }
        }
        let Some((feature, threshold, score)) = best else {
            return make_leaf(&mut self.nodes);
        };
        if score <= 1e-24 {
            return make_leaf(&mut self.nodes);
        }
        // Partition in place.
        let split_at = partition(idx, |&i| xs[i][feature] <= threshold);
        if split_at == 0 || split_at == idx.len() {
            return make_leaf(&mut self.nodes);
        }
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Split {
            feature,
            threshold,
            left: usize::MAX,
            right: usize::MAX,
        });
        let (left_idx, right_idx) = idx.split_at_mut(split_at);
        let left = self.build(xs, ys, left_idx, depth + 1, n_features, rng);
        let right = self.build(xs, ys, right_idx, depth + 1, n_features, rng);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_idx]
        {
            *l = left;
            *r = right;
        }
        node_idx
    }

    /// Walks the tree to the leaf for `x`.
    fn predict(&self, x: &[f64]) -> (f64, f64) {
        // Root is node 0 when the tree is non-trivial; build() pushes the
        // root first for splits and leaves alike.
        let mut node = 0;
        loop {
            match &self.nodes[node] {
                Node::Leaf { mean, variance } => return (*mean, *variance),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Stable partition: reorders `xs` so elements satisfying `pred` come
/// first; returns the boundary.
fn partition<T: Copy>(xs: &mut [T], pred: impl Fn(&T) -> bool) -> usize {
    let mut out: Vec<T> = Vec::with_capacity(xs.len());
    let mut rest: Vec<T> = Vec::new();
    for &x in xs.iter() {
        if pred(&x) {
            out.push(x);
        } else {
            rest.push(x);
        }
    }
    let boundary = out.len();
    out.extend(rest);
    xs.copy_from_slice(&out);
    boundary
}

/// Random-forest regressor with SMAC-style uncertainty estimates.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<Tree>,
    n_train: usize,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn default_forest() -> Self {
        RandomForest {
            trees: Vec::new(),
            n_train: 0,
        }
    }
}

impl Surrogate for RandomForest {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
        check_training_set(xs, ys)?;
        let n = xs.len();
        let mut rng = StdRng::seed_from_u64(SEED);
        self.trees = (0..N_TREES)
            .map(|_| {
                // Each tree fits a bootstrap resample of the training set.
                let mut idx: Vec<usize> = if n > 1 {
                    (0..n).map(|_| rng.gen_range(0..n)).collect()
                } else {
                    (0..n).collect()
                };
                Tree::fit(xs, ys, &mut idx, &mut rng)
            })
            .collect();
        self.n_train = n;
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Prediction {
        if self.trees.is_empty() {
            return Prediction {
                mean: 0.0,
                variance: 1.0,
            };
        }
        // Law of total variance across trees:
        //   Var = Var_trees(mean_t) + Mean_trees(var_t)
        let preds: Vec<(f64, f64)> = self.trees.iter().map(|t| t.predict(x)).collect();
        let means: Vec<f64> = preds.iter().map(|p| p.0).collect();
        let mean = autotune_linalg::stats::mean(&means);
        let between = autotune_linalg::stats::variance(&means);
        let within = autotune_linalg::stats::mean(&preds.iter().map(|p| p.1).collect::<Vec<_>>());
        Prediction {
            mean,
            variance: (between + within).max(0.0),
        }
    }

    fn n_train(&self) -> usize {
        self.n_train
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // A step function: y = 1 for x < 0.5, y = 5 otherwise. Trees should
        // nail this; a smooth GP would ring.
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 0.5 { 1.0 } else { 5.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_step_function() {
        let (xs, ys) = step_data();
        let mut rf = RandomForest::default_forest();
        rf.fit(&xs, &ys).unwrap();
        assert!((rf.predict(&[0.2]).mean - 1.0).abs() < 0.3);
        assert!((rf.predict(&[0.8]).mean - 5.0).abs() < 0.3);
    }

    #[test]
    fn variance_rises_at_the_boundary() {
        let (xs, ys) = step_data();
        let mut rf = RandomForest::default_forest();
        rf.fit(&xs, &ys).unwrap();
        let at_edge = rf.predict(&[0.5]).variance;
        let in_bulk = rf.predict(&[0.1]).variance;
        assert!(
            at_edge > in_bulk,
            "edge variance {at_edge} should exceed bulk variance {in_bulk}"
        );
    }

    #[test]
    fn two_dimensional_interaction() {
        // y = 10 only when both features are high: requires two splits.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let a = i as f64 / 9.0;
                let b = j as f64 / 9.0;
                xs.push(vec![a, b]);
                ys.push(if a > 0.6 && b > 0.6 { 10.0 } else { 0.0 });
            }
        }
        let mut rf = RandomForest::default_forest();
        rf.fit(&xs, &ys).unwrap();
        assert!(rf.predict(&[0.9, 0.9]).mean > 7.0);
        assert!(rf.predict(&[0.9, 0.1]).mean < 3.0);
        assert!(rf.predict(&[0.1, 0.9]).mean < 3.0);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (xs, ys) = step_data();
        let mut a = RandomForest::default_forest();
        let mut b = RandomForest::default_forest();
        a.fit(&xs, &ys).unwrap();
        b.fit(&xs, &ys).unwrap();
        for x in [[0.3], [0.5], [0.7]] {
            assert_eq!(a.predict(&x), b.predict(&x));
        }
    }

    #[test]
    fn unfitted_forest_is_uninformative() {
        let rf = RandomForest::default_forest();
        let p = rf.predict(&[0.5]);
        assert_eq!(p.mean, 0.0);
        assert_eq!(p.variance, 1.0);
        assert_eq!(rf.n_train(), 0);
    }

    #[test]
    fn constant_targets_produce_zero_variance_leaf() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys = vec![3.0; 10];
        let mut rf = RandomForest::default_forest();
        rf.fit(&xs, &ys).unwrap();
        let p = rf.predict(&[4.5]);
        assert!((p.mean - 3.0).abs() < 1e-9);
        assert!(p.variance < 1e-9);
    }

    #[test]
    fn rejects_bad_input() {
        let mut rf = RandomForest::default_forest();
        assert!(rf.fit(&[], &[]).is_err());
        assert!(rf.fit(&[vec![1.0]], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn single_sample_fits_as_leaf() {
        let mut rf = RandomForest::default_forest();
        rf.fit(&[vec![0.5]], &[2.0]).unwrap();
        assert!((rf.predict(&[0.9]).mean - 2.0).abs() < 1e-12);
    }
}
