//! NSGA-II: non-dominated sorting genetic algorithm (Deb et al. 2002).
//!
//! The reference evolutionary multi-objective optimizer the tutorial's
//! ParEGO-style scalarization is usually compared against: maintain a
//! population, rank by non-domination depth, break ties by crowding
//! distance, breed with tournament selection. Cheap per suggestion (no
//! surrogate), so it wins when trials are cheap and loses on sample
//! efficiency when they are not — exactly the trade E11 illustrates.

use crate::moo::{dominates, MultiObservation, ParetoFront};
use autotune_space::{Config, Space};
use rand::{Rng, RngCore};

/// Individuals per generation.
const POPULATION: usize = 24;
const _: () = assert!(POPULATION >= 4, "population must be at least 4");
/// Per-individual mutation probability.
const MUTATION_RATE: f64 = 0.5;
/// Mutation step scale in unit-cube units.
const MUTATION_SCALE: f64 = 0.15;

/// NSGA-II over a configuration space with `k` objectives (minimization).
pub struct NsgaII {
    space: Space,
    n_objectives: usize,
    /// Scored parents surviving selection.
    parents: Vec<MultiObservation>,
    /// Offspring awaiting evaluation.
    pending: std::collections::VecDeque<Config>,
    /// Scores arriving for the current generation.
    incoming: Vec<MultiObservation>,
    front: ParetoFront,
    generation: usize,
}

impl std::fmt::Debug for NsgaII {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NsgaII")
            .field("generation", &self.generation)
            .field("front_size", &self.front.len())
            .finish()
    }
}

impl NsgaII {
    /// Creates an NSGA-II optimizer.
    pub fn new(space: Space, n_objectives: usize) -> Self {
        assert!(n_objectives >= 2, "NSGA-II is for multi-objective problems");
        NsgaII {
            space,
            n_objectives,
            parents: Vec::new(),
            pending: std::collections::VecDeque::new(),
            incoming: Vec::new(),
            front: ParetoFront::new(),
            generation: 0,
        }
    }

    /// The archive of all non-dominated observations seen so far.
    pub fn front(&self) -> &ParetoFront {
        &self.front
    }

    /// Completed generations.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Proposes the next configuration to evaluate.
    pub fn suggest(&mut self, rng: &mut dyn RngCore) -> Config {
        let mut rng = rng;
        if let Some(c) = self.pending.pop_front() {
            return c;
        }
        if self.incoming.len() >= POPULATION {
            self.evolve(&mut rng);
            if let Some(c) = self.pending.pop_front() {
                return c;
            }
        }
        self.space.sample(&mut rng)
    }

    /// Reports an observed objective vector.
    pub fn observe(&mut self, config: &Config, objectives: &[f64]) {
        assert_eq!(
            objectives.len(),
            self.n_objectives,
            "objective arity mismatch"
        );
        let sanitized: Vec<f64> = objectives
            .iter()
            .map(|&v| if v.is_nan() { f64::INFINITY } else { v })
            .collect();
        let obs = MultiObservation {
            config: config.clone(),
            objectives: sanitized,
        };
        self.front.insert(obs.clone());
        self.incoming.push(obs);
    }

    /// Selection + breeding once a full generation is scored.
    fn evolve(&mut self, rng: &mut dyn RngCore) {
        let mut rng = rng;
        let mut pool = std::mem::take(&mut self.incoming);
        pool.append(&mut self.parents);
        // Non-dominated sorting into fronts.
        let fronts = non_dominated_sort(&pool);
        // Fill the parent set front by front; crowding-sort the last one.
        let mut parents: Vec<MultiObservation> = Vec::with_capacity(POPULATION);
        for front in fronts {
            if parents.len() >= POPULATION {
                break;
            }
            let mut members: Vec<MultiObservation> =
                front.iter().map(|&i| pool[i].clone()).collect();
            let remaining = POPULATION - parents.len();
            if members.len() > remaining {
                let crowd = crowding_distance(&members);
                let mut order: Vec<usize> = (0..members.len()).collect();
                order.sort_by(|&a, &b| crowd[b].total_cmp(&crowd[a]));
                members = order
                    .into_iter()
                    .take(remaining)
                    .map(|i| members[i].clone())
                    .collect();
            }
            parents.extend(members);
        }
        // Breed offspring by binary tournament on (rank via dominance,
        // then uniform) — parents are already the elite, so uniform
        // tournament over them approximates rank selection.
        let mut offspring = Vec::with_capacity(POPULATION);
        while offspring.len() < POPULATION {
            let a = &parents[rng.gen_range(0..parents.len())];
            let b = &parents[rng.gen_range(0..parents.len())];
            let winner = if dominates(&a.objectives, &b.objectives) {
                a
            } else {
                b
            };
            let mut child = winner.config.clone();
            if rng.gen::<f64>() < MUTATION_RATE {
                child = self.space.neighbor(&child, MUTATION_SCALE, &mut rng);
            } else {
                // Uniform crossover with a second tournament winner.
                let c = &parents[rng.gen_range(0..parents.len())];
                child = self.crossover(&winner.config, &c.config, &mut rng);
            }
            offspring.push(child);
        }
        self.parents = parents;
        self.pending = offspring.into();
        self.generation += 1;
    }

    fn crossover(&self, a: &Config, b: &Config, rng: &mut dyn RngCore) -> Config {
        let mut child = Config::new();
        for p in self.space.params() {
            let donor = if rng.gen::<bool>() { a } else { b };
            let v = donor
                .get(&p.name)
                .or_else(|| {
                    if rng.gen::<bool>() {
                        a.get(&p.name)
                    } else {
                        b.get(&p.name)
                    }
                })
                .unwrap_or(&p.default);
            child.set(p.name.clone(), v.clone());
        }
        let x = self
            .space
            .encode_unit(&child)
            .expect("child covers all params"); // lint: allow(D5) child covers every param of the space
        self.space.decode_unit(&x).expect("encoded child decodes") // lint: allow(D5) encoded child always decodes
    }
}

/// Partitions indices into non-dominated fronts (front 0 = non-dominated).
fn non_dominated_sort(pool: &[MultiObservation]) -> Vec<Vec<usize>> {
    let n = pool.len();
    let mut dominated_by: Vec<usize> = vec![0; n];
    let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if dominates(&pool[i].objectives, &pool[j].objectives) {
                dominates_list[i].push(j);
            } else if dominates(&pool[j].objectives, &pool[i].objectives) {
                dominated_by[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominates_list[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// Crowding distance per member of one front (larger = less crowded).
fn crowding_distance(front: &[MultiObservation]) -> Vec<f64> {
    let n = front.len();
    if n == 0 {
        return Vec::new();
    }
    let k = front[0].objectives.len();
    let mut dist = vec![0.0; n];
    for m in 0..k {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| front[a].objectives[m].total_cmp(&front[b].objectives[m]));
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        let lo = front[order[0]].objectives[m];
        let hi = front[order[n - 1]].objectives[m];
        let range = (hi - lo).max(1e-12);
        for w in order.windows(3) {
            let (prev, mid, next) = (w[0], w[1], w[2]);
            dist[mid] += (front[next].objectives[m] - front[prev].objectives[m]) / range;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_space::Param;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn obs(objs: &[f64]) -> MultiObservation {
        MultiObservation {
            config: Config::new(),
            objectives: objs.to_vec(),
        }
    }

    #[test]
    fn non_dominated_sort_layers_correctly() {
        let pool = vec![
            obs(&[1.0, 1.0]), // front 0
            obs(&[2.0, 2.0]), // front 1 (dominated by 0)
            obs(&[0.5, 3.0]), // front 0 (incomparable with [1,1])
            obs(&[3.0, 3.0]), // front 2
        ];
        let fronts = non_dominated_sort(&pool);
        assert_eq!(fronts[0], vec![0, 2]);
        assert_eq!(fronts[1], vec![1]);
        assert_eq!(fronts[2], vec![3]);
    }

    #[test]
    fn crowding_rewards_boundary_and_spread() {
        let front = vec![obs(&[0.0, 3.0]), obs(&[1.0, 1.0]), obs(&[3.0, 0.0])];
        let d = crowding_distance(&front);
        assert!(d[0].is_infinite());
        assert!(d[2].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
    }

    #[test]
    fn recovers_biobjective_front() {
        // f1 = x², f2 = (x-1)²: Pareto set x in [0,1].
        let space = Space::builder()
            .add(Param::float("x", -2.0, 3.0))
            .build()
            .unwrap();
        let mut nsga = NsgaII::new(space, 2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..300 {
            let cfg = nsga.suggest(&mut rng);
            let x = cfg.get_f64("x").unwrap();
            nsga.observe(&cfg, &[x * x, (x - 1.0) * (x - 1.0)]);
        }
        assert!(nsga.generation() >= 8);
        assert!(nsga.front().len() >= 5, "front size {}", nsga.front().len());
        for m in nsga.front().members() {
            let x = m.config.get_f64("x").unwrap();
            assert!(
                (-0.15..=1.15).contains(&x),
                "front member outside Pareto set: {x}"
            );
        }
        // Good hypervolume against reference (4,4): ideal approaches ~14.8.
        let hv = nsga.front().hypervolume_2d((4.0, 4.0));
        assert!(hv > 13.0, "hypervolume {hv}");
    }

    #[test]
    fn crashes_rank_last() {
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let mut nsga = NsgaII::new(space, 2);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..60 {
            let cfg = nsga.suggest(&mut rng);
            if i % 5 == 0 {
                nsga.observe(&cfg, &[f64::NAN, f64::NAN]);
            } else {
                let x = cfg.get_f64("x").unwrap();
                nsga.observe(&cfg, &[x, 1.0 - x]);
            }
        }
        // Front contains no crashed entries.
        for m in nsga.front().members() {
            assert!(m.objectives.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "multi-objective")]
    fn single_objective_rejected() {
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let _ = NsgaII::new(space, 1);
    }
}
