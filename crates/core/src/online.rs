//! The online tuning agent (tutorial slides 75-84).
//!
//! Production loop: at each step the agent sees the live workload's
//! context, picks a configuration from a discrete candidate menu via a
//! context-scoped hybrid bandit (OPPerTune style), runs it through a
//! safety guardrail (slide 84), observes the cost, and feeds a workload
//! shift detector that resets exploration when the traffic changes.

use crate::executor::{
    Campaign, CrashPenaltyMw, SchedulePolicy, SourceStep, TrialOutcome, TrialRequest, TrialSource,
};
use crate::telemetry::Subscriber;
use crate::Target;
use autotune_optimizer::bandit::BanditPolicy;
use autotune_rl::{ContextKey, HybridBandit, SafeTuner};
use autotune_sim::WorkloadSchedule;
use autotune_space::Config;
use autotune_wid::{Fingerprint, ShiftDetector};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Online tuner settings.
#[derive(Debug, Clone)]
pub struct OnlineTunerConfig {
    /// Bandit policy over the candidate menu.
    pub policy: BanditPolicy,
    /// Runs every candidate through a [`SafeTuner`] guardrail.
    pub safety: bool,
    /// Resets exploration when a [`ShiftDetector`] sees the workload move.
    pub shift: bool,
}

impl Default for OnlineTunerConfig {
    fn default() -> Self {
        OnlineTunerConfig {
            // Thompson sampling is scale-free: it works whether costs are
            // microseconds or hours, where a UCB exploration constant
            // would need per-system calibration.
            policy: BanditPolicy::Thompson,
            safety: false,
            shift: true,
        }
    }
}

/// One step's record.
#[derive(Debug, Clone)]
pub struct OnlineStep {
    /// Time step.
    pub t: usize,
    /// Candidate index served.
    pub arm: usize,
    /// Observed cost.
    pub cost: f64,
    /// Whether a workload shift was declared at this step.
    pub shift_detected: bool,
    /// Whether the guardrail blocked/reverted at this step.
    pub guarded: bool,
}

/// A context-aware, guardrailed online tuner over a fixed candidate menu.
pub struct OnlineTuner {
    candidates: Vec<Config>,
    bandit: HybridBandit,
    safety: Option<SafeTuner>,
    detector: Option<ShiftDetector>,
    /// Current context label (bumped on detected shifts).
    regime: usize,
    history: Vec<OnlineStep>,
}

impl OnlineTuner {
    /// Creates a tuner over a candidate configuration menu.
    pub fn new(candidates: Vec<Config>, config: OnlineTunerConfig) -> Self {
        assert!(candidates.len() >= 2, "menu needs at least two candidates");
        OnlineTuner {
            bandit: HybridBandit::new(candidates.len(), config.policy),
            candidates,
            safety: config.safety.then(SafeTuner::new),
            detector: config.shift.then(ShiftDetector::new),
            regime: 0,
            history: Vec::new(),
        }
    }

    /// The candidate menu.
    pub fn candidates(&self) -> &[Config] {
        &self.candidates
    }

    /// Step records so far.
    pub fn history(&self) -> &[OnlineStep] {
        &self.history
    }

    /// Steps at which shifts were detected.
    pub fn detected_shifts(&self) -> Vec<usize> {
        self.history
            .iter()
            .filter(|s| s.shift_detected)
            .map(|s| s.t)
            .collect()
    }

    /// Total cost accumulated (the regret currency).
    pub fn cumulative_cost(&self) -> f64 {
        self.history
            .iter()
            .map(|s| if s.cost.is_finite() { s.cost } else { 0.0 })
            .sum()
    }

    /// Runs the agent against a target whose workload follows `schedule`
    /// for `steps` steps. Returns the per-step records.
    ///
    /// Internally this drives a [`Campaign`] with an
    /// `OnlineSource` wrapping the bandit/guardrail/detector state; a
    /// [`CrashPenaltyMw`] turns crashed intervals into a large finite
    /// learning penalty so arm statistics stay well-defined while the
    /// recorded cost keeps its honest `NaN`.
    pub fn run(
        &mut self,
        target: &Target,
        schedule: &WorkloadSchedule,
        steps: usize,
        seed: u64,
    ) -> &[OnlineStep] {
        self.run_with_subscribers(target, schedule, steps, seed, &mut [])
    }

    /// [`OnlineTuner::run`] with telemetry subscribers attached to the
    /// underlying executor (each step is one trial on the virtual clock,
    /// so progress lines and spans describe production intervals).
    pub fn run_with_subscribers(
        &mut self,
        target: &Target,
        schedule: &WorkloadSchedule,
        steps: usize,
        seed: u64,
        subscribers: &mut [&mut dyn Subscriber],
    ) -> &[OnlineStep] {
        let source = OnlineSource {
            candidates: &self.candidates,
            bandit: &mut self.bandit,
            safety: &mut self.safety,
            detector: &mut self.detector,
            regime: &mut self.regime,
            history: &mut self.history,
            schedule,
            steps,
            t: 0,
            pending: Vec::new(),
            next_id: 0,
        };
        let mut campaign =
            Campaign::over(target, Box::new(source), SchedulePolicy::Sequential, seed)
                .with_middleware(Box::new(CrashPenaltyMw::new()))
                .with_event_log(false); // one-shot campaign, never snapshotted
        for sub in subscribers.iter_mut() {
            campaign = campaign.with_subscriber(Box::new(&mut **sub));
        }
        campaign.run();
        drop(campaign); // releases the source's borrow of `self.history`
        &self.history
    }
}

/// Dispatch-time bookkeeping an [`OnlineSource`] needs again at report
/// time: which arm was served, under which context, and how the guardrail
/// ruled.
struct PendingServe {
    id: u64,
    t: usize,
    arm: usize,
    context: ContextKey,
    guarded: bool,
    is_candidate: bool,
}

/// Adapts the online agent's select/guard/learn cycle to the executor's
/// [`TrialSource`] contract: `next` picks an arm for the current interval
/// (consulting the safety guardrail), `report` feeds the guardrail, the
/// bandit, and the shift detector with the finalized outcome.
struct OnlineSource<'a> {
    candidates: &'a [Config],
    bandit: &'a mut HybridBandit,
    safety: &'a mut Option<SafeTuner>,
    detector: &'a mut Option<ShiftDetector>,
    regime: &'a mut usize,
    history: &'a mut Vec<OnlineStep>,
    schedule: &'a WorkloadSchedule,
    steps: usize,
    t: usize,
    pending: Vec<PendingServe>,
    next_id: u64,
}

impl TrialSource for OnlineSource<'_> {
    fn next(&mut self, rng: &mut dyn RngCore) -> SourceStep {
        if self.t >= self.steps {
            return SourceStep::Exhausted;
        }
        let t = self.t;
        self.t += 1;
        let workload = self.schedule.at(t);
        let context = ContextKey::new([format!("regime{}", *self.regime)]);

        // Select; consult the guardrail. The bandit's greedy arm plays
        // the incumbent role: its measurements feed the baseline, and
        // exploratory arms must be admitted (one at a time, never
        // blacklisted) before they are served.
        let greedy = self.bandit.greedy(&context);
        let mut arm = self.bandit.select(&context, rng);
        let mut guarded = false;
        let mut is_candidate = false;
        if let Some(safety) = self.safety.as_mut() {
            if arm != greedy {
                let key = self.candidates[arm].render();
                if safety.admit(&key) {
                    is_candidate = true;
                } else {
                    arm = greedy;
                    guarded = true;
                }
            }
        }

        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(PendingServe {
            id,
            t,
            arm,
            context,
            guarded,
            is_candidate,
        });
        SourceStep::Dispatch(TrialRequest {
            config: self.candidates[arm].clone(),
            fidelity: 1.0,
            workload: Some(workload.clone()),
            machine_id: None,
        })
    }

    fn report(&mut self, outcome: &TrialOutcome) {
        // Dispatch order == trial-id order, so the outcome's id picks the
        // matching pending record even if a policy reports out of order.
        let pos = self
            .pending
            .iter()
            .position(|p| p.id == outcome.id)
            .expect("every outcome matches a pending serve"); // lint: allow(D5) outcomes only come from pending dispatches
        let p = self.pending.swap_remove(pos);
        let cost = outcome.cost;
        let mut guarded = p.guarded;

        // Feed the guardrail.
        if let Some(safety) = self.safety.as_mut() {
            if p.is_candidate {
                use autotune_rl::SafeDecision;
                let key = self.candidates[p.arm].render();
                match safety.observe_candidate(&key, cost) {
                    SafeDecision::Reverted | SafeDecision::Blacklisted => guarded = true,
                    _ => {}
                }
            } else if cost.is_finite() {
                safety.observe_baseline(cost);
            }
        }

        // Learn. The crash-penalty middleware already rewrote
        // `learn_cost` for non-finite measurements.
        self.bandit.update(&p.context, p.arm, outcome.learn_cost);

        // Detect workload shifts from the trial's telemetry.
        let mut shift = false;
        if let Some(det) = self.detector.as_mut() {
            if !outcome.telemetry.is_empty() {
                let fp = Fingerprint::from_telemetry(&outcome.telemetry);
                shift = det.observe(fp.features());
                if shift {
                    // New regime: scope future decisions to a fresh
                    // context so the bandit relearns.
                    *self.regime += 1;
                }
            }
        }

        self.history.push(OnlineStep {
            t: p.t,
            arm: p.arm,
            cost,
            shift_detected: shift,
            guarded,
        });
    }
}

/// Contextual online tuner over *continuous* workload features
/// (OnlineTune-flavoured, slides 82-83): instead of scoping a bandit by
/// discrete regime, a LinUCB policy reads the live telemetry fingerprint
/// and scores every candidate against it — no shift detector needed,
/// generalization across unseen mixes for free.
///
/// Reward fed to LinUCB is negative log-cost, so the linear-payoff
/// assumption only has to hold on ratios, not absolute latencies.
pub struct ContextualOnlineTuner {
    candidates: Vec<Config>,
    policy: autotune_rl::LinUcb,
    history: Vec<OnlineStep>,
    /// Rolling context: features of the previous interval's telemetry
    /// (what the agent actually knows when choosing).
    last_context: Option<Vec<f64>>,
    context_dim: usize,
}

impl ContextualOnlineTuner {
    /// Creates a tuner with `alpha` as LinUCB's exploration weight.
    pub fn new(candidates: Vec<Config>, context_dim: usize, alpha: f64) -> Self {
        assert!(candidates.len() >= 2, "menu needs at least two candidates");
        ContextualOnlineTuner {
            policy: autotune_rl::LinUcb::new(candidates.len(), context_dim + 1, alpha, 1.0),
            candidates,
            history: Vec::new(),
            last_context: None,
            context_dim,
        }
    }

    /// Step records so far.
    pub fn history(&self) -> &[OnlineStep] {
        &self.history
    }

    /// Total accumulated cost.
    pub fn cumulative_cost(&self) -> f64 {
        self.history
            .iter()
            .map(|s| if s.cost.is_finite() { s.cost } else { 0.0 })
            .sum()
    }

    /// Runs the agent against `target` following `schedule`.
    pub fn run(
        &mut self,
        target: &Target,
        schedule: &WorkloadSchedule,
        steps: usize,
        seed: u64,
    ) -> &[OnlineStep] {
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 0..steps {
            let workload = schedule.at(t);
            // Context: last interval's features plus a bias term. First
            // step has no telemetry yet — zeros plus bias.
            let mut ctx = self.last_context.clone().unwrap_or_default();
            ctx.resize(self.context_dim, 0.0);
            ctx.push(1.0);
            let arm = self
                .policy
                .select(&ctx)
                .expect("context built to dimension"); // lint: allow(D5) context resized to the policy dimension above
            let eval = target.evaluate_at(&self.candidates[arm], Some(workload), &mut rng);
            let cost = eval.cost;
            let reward = if cost.is_finite() && cost > 0.0 {
                -cost.ln()
            } else {
                -20.0
            };
            self.policy
                .update(arm, &ctx, reward)
                .expect("context built to dimension"); // lint: allow(D5) context resized to the policy dimension above
            if !eval.result.telemetry.is_empty() {
                let fp = Fingerprint::from_telemetry(&eval.result.telemetry);
                let mut feats = fp.features().to_vec();
                feats.truncate(self.context_dim);
                self.last_context = Some(feats);
            }
            self.history.push(OnlineStep {
                t,
                arm,
                cost,
                shift_detected: false,
                guarded: false,
            });
        }
        &self.history
    }
}

/// Convenience: evaluate a static configuration over the same schedule —
/// the "no online tuning" baseline.
pub fn static_config_cost(
    target: &Target,
    config: &Config,
    schedule: &WorkloadSchedule,
    steps: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    for t in 0..steps {
        let w = schedule.at(t);
        let e = target.evaluate_at(config, Some(w), &mut rng);
        if e.cost.is_finite() {
            total += e.cost;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;
    use autotune_sim::{DbmsSim, Environment, Workload};

    /// Target + schedule where the best config flips mid-stream: a
    /// read-only phase (query cache on wins) then a write-heavy phase
    /// (query cache off wins).
    fn shifting_setup() -> (Target, WorkloadSchedule, Vec<Config>) {
        let target = Target::simulated(
            Box::new(DbmsSim::new()),
            Workload::ycsb_c(2_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyAvg,
        );
        let schedule = WorkloadSchedule::new(vec![
            (60, Workload::ycsb_c(2_000.0)),
            (60, Workload::ycsb_a(2_000.0)),
        ]);
        let base = target.space().default_config().with("buffer_pool_gb", 8.0);
        let candidates = vec![
            base.clone().with("query_cache", true),
            base.clone().with("query_cache", false),
        ];
        (target, schedule, candidates)
    }

    #[test]
    fn adapts_across_workload_shift() {
        let (target, schedule, candidates) = shifting_setup();
        let mut tuner = OnlineTuner::new(candidates, OnlineTunerConfig::default());
        tuner.run(&target, &schedule, 120, 1);
        // Late in phase 1 the agent should mostly serve arm 0 (cache on);
        // late in phase 2, arm 1.
        let served = |range: std::ops::Range<usize>, arm: usize| {
            tuner.history()[range]
                .iter()
                .filter(|s| s.arm == arm)
                .count()
        };
        assert!(
            served(40..60, 0) > 13,
            "phase 1 should settle on query_cache=on: {:?}",
            served(40..60, 0)
        );
        assert!(
            served(100..120, 1) > 13,
            "phase 2 should settle on query_cache=off: {}",
            served(100..120, 1)
        );
    }

    #[test]
    fn shift_is_detected_near_the_boundary() {
        let (target, schedule, candidates) = shifting_setup();
        let mut tuner = OnlineTuner::new(candidates, OnlineTunerConfig::default());
        tuner.run(&target, &schedule, 120, 2);
        let shifts = tuner.detected_shifts();
        assert!(
            shifts.iter().any(|&t| (55..=75).contains(&t)),
            "no shift detected near t=60: {shifts:?}"
        );
    }

    #[test]
    fn beats_each_static_config_on_shifting_workload() {
        let (target, schedule, candidates) = shifting_setup();
        let mut tuner = OnlineTuner::new(candidates.clone(), OnlineTunerConfig::default());
        tuner.run(&target, &schedule, 120, 4);
        let online = tuner.cumulative_cost();
        let static_a = static_config_cost(&target, &candidates[0], &schedule, 120, 4);
        let static_b = static_config_cost(&target, &candidates[1], &schedule, 120, 4);
        let best_static = static_a.min(static_b);
        assert!(
            online < best_static * 1.1,
            "online {online} should be competitive with best static {best_static}"
        );
    }

    #[test]
    fn guardrail_limits_crash_exposure() {
        // Menu contains a config that crashes (OOM). With safety on, it is
        // blacklisted after few exposures.
        let target = Target::simulated(
            Box::new(DbmsSim::new()),
            Workload::tpcc(2_000.0),
            Environment::medium(), // 16 GB
            Objective::MinimizeLatencyAvg,
        );
        let schedule = WorkloadSchedule::new(vec![(100, Workload::tpcc(2_000.0))]);
        let good = target.space().default_config().with("buffer_pool_gb", 8.0);
        let crashy = target.space().default_config().with("buffer_pool_gb", 15.9);
        let mut tuner = OnlineTuner::new(
            vec![good, crashy],
            OnlineTunerConfig {
                safety: true,
                ..Default::default()
            },
        );
        tuner.run(&target, &schedule, 100, 4);
        let crashes = tuner.history().iter().filter(|s| s.cost.is_nan()).count();
        assert!(
            crashes <= 4,
            "guardrail should blacklist the crashing config quickly, saw {crashes} crashes"
        );
    }

    #[test]
    #[should_panic(expected = "menu")]
    fn tiny_menu_rejected() {
        let _ = OnlineTuner::new(vec![Config::new()], OnlineTunerConfig::default());
    }

    #[test]
    fn contextual_tuner_learns_feature_conditional_policy() {
        // Same shifting setup as the hybrid-bandit test, but the agent
        // must key off continuous telemetry features (read_share flips
        // between phases) instead of a detected regime id.
        let (target, schedule, candidates) = shifting_setup();
        let mut tuner = ContextualOnlineTuner::new(candidates, 14, 0.4);
        tuner.run(&target, &schedule, 120, 7);
        let served = |range: std::ops::Range<usize>, arm: usize| {
            tuner.history()[range]
                .iter()
                .filter(|s| s.arm == arm)
                .count()
        };
        assert!(
            served(40..60, 0) > 12,
            "phase 1 should settle on query_cache=on: {}",
            served(40..60, 0)
        );
        assert!(
            served(100..120, 1) > 12,
            "phase 2 should settle on query_cache=off: {}",
            served(100..120, 1)
        );
    }

    #[test]
    fn contextual_tuner_competitive_with_best_static() {
        let (target, schedule, candidates) = shifting_setup();
        let mut tuner = ContextualOnlineTuner::new(candidates.clone(), 14, 0.4);
        tuner.run(&target, &schedule, 120, 8);
        let online = tuner.cumulative_cost();
        let best_static = candidates
            .iter()
            .map(|c| static_config_cost(&target, c, &schedule, 120, 8))
            .fold(f64::INFINITY, f64::min);
        assert!(
            online < best_static * 1.15,
            "contextual online {online} vs best static {best_static}"
        );
    }
}
