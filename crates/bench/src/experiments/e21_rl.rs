//! E21 (slides 79-80): reinforcement-learning online tuners — Q-learning
//! and actor-critic on a workload whose optimal knob setting flips with
//! the traffic class (query cache pays on read-only traffic, costs on
//! update-heavy traffic). State = observable traffic class; action =
//! cache on/off. The learned policy must be phase-dependent and beat
//! every static setting.

use crate::report::{f, Report};
use autotune::{Objective, Target};
use autotune_rl::{ActorCritic, QLearning, QLearningConfig};
use autotune_sim::{DbmsSim, Environment, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PHASES: usize = 2;
const STEPS_PER_PHASE: usize = 150;

fn phase_workload(p: usize) -> Workload {
    if p == 0 {
        Workload::ycsb_c(2_000.0) // read-only: cache pays
    } else {
        Workload::ycsb_a(2_000.0) // update-heavy: cache hurts
    }
}

/// Reward: negative log latency.
fn reward(target: &Target, action: usize, phase: usize, rng: &mut StdRng) -> f64 {
    let cfg = target
        .space()
        .default_config()
        .with("buffer_pool_gb", 8.0)
        .with("query_cache", action == 1);
    let e = target.evaluate_at(&cfg, Some(&phase_workload(phase)), rng);
    if e.cost.is_finite() {
        -e.cost.ln()
    } else {
        -10.0
    }
}

/// Runs the experiment.
pub fn run() -> Report {
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::ycsb_c(2_000.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    );
    let mut rng = StdRng::seed_from_u64(6);

    // --- Q-learning: state = traffic class ---
    let q_config = QLearningConfig {
        // The task is contextual-bandit shaped: no value in bootstrapping,
        // and slow epsilon decay keeps both actions sampled.
        gamma: 0.0,
        epsilon_decay: 0.999,
    };
    let mut q = QLearning::new(PHASES, 2, q_config);
    let mut q_reward = 0.0;
    for phase in 0..PHASES {
        for _ in 0..STEPS_PER_PHASE {
            let a = q.select_action(phase, &mut rng);
            let r = reward(&target, a, phase, &mut rng);
            q_reward += r;
            q.update(phase, a, r, phase).expect("indices in range");
        }
    }

    // --- Actor-critic with one-hot phase features ---
    let mut ac = ActorCritic::new(PHASES, 2);
    let mut ac_reward = 0.0;
    for phase in 0..PHASES {
        let mut phi = vec![0.0; PHASES];
        phi[phase] = 1.0;
        for _ in 0..STEPS_PER_PHASE {
            let a = ac.select_action(&phi, &mut rng).expect("valid features");
            let r = reward(&target, a, phase, &mut rng);
            ac_reward += r;
            ac.update(&phi, a, r, &phi).expect("valid features");
        }
    }

    // --- Static baselines ---
    let mut static_rewards = Vec::new();
    for action in 0..2 {
        let mut total = 0.0;
        for phase in 0..PHASES {
            for _ in 0..STEPS_PER_PHASE {
                total += reward(&target, action, phase, &mut rng);
            }
        }
        static_rewards.push(total);
    }
    let best_static = static_rewards
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);

    let total_steps = (PHASES * STEPS_PER_PHASE) as f64;
    let q_policy: Vec<&str> = (0..PHASES)
        .map(|p| {
            if q.greedy_action(p) == 1 {
                "cache=on"
            } else {
                "cache=off"
            }
        })
        .collect();
    let phi0 = [1.0, 0.0];
    let phi1 = [0.0, 1.0];
    let ac_policy = [
        ac.greedy_action(&phi0).expect("valid"),
        ac.greedy_action(&phi1).expect("valid"),
    ];
    let rows = vec![
        vec!["q_learning".into(), f(q_reward / total_steps, 3)],
        vec!["actor_critic".into(), f(ac_reward / total_steps, 3)],
        vec![
            "static cache=off".into(),
            f(static_rewards[0] / total_steps, 3),
        ],
        vec![
            "static cache=on".into(),
            f(static_rewards[1] / total_steps, 3),
        ],
        vec!["q policy (read / write phase)".into(), q_policy.join(" / ")],
    ];
    // Correct policy: cache on in the read phase, off in the write phase.
    let q_correct = q.greedy_action(0) == 1 && q.greedy_action(1) == 0;
    let ac_correct = ac_policy == [1, 0];
    let shape_holds = q_correct && ac_correct && q_reward > best_static && ac_reward > best_static;
    Report {
        id: "E21",
        title: "RL online tuning: phase-dependent policy (slides 79-80)",
        headers: vec!["agent / baseline", "mean reward per step"],
        rows,
        paper_claim: "RL agents learn a workload-conditional policy and beat any static knob setting",
        measured: format!(
            "Q {} / AC {} vs best static {}; Q policy correct: {q_correct}, AC correct: {ac_correct}",
            f(q_reward / total_steps, 3),
            f(ac_reward / total_steps, 3),
            f(best_static / total_steps, 3)
        ),
        shape_holds,
    }
}
