//! Declarative campaign construction.
//!
//! A [`CampaignSpec`] is a fully serializable description of one tuning
//! campaign — which simulated system, workload, environment, objective,
//! optimizer, schedule, budget and seed — from which [`CampaignSpec::build`]
//! constructs an owned `'static` [`Campaign`]. Because the spec is plain
//! data, it can cross the wire (the serving protocol's `Register` request
//! carries one) and be stored next to a [`CampaignSnapshot`]: spec + seed
//! rebuilds a pristine campaign, snapshot replay fast-forwards it, and the
//! determinism contract guarantees the pair reproduces the original
//! byte-for-byte.
//!
//! [`CampaignSnapshot`]: autotune::CampaignSnapshot

use autotune::{
    Campaign, NoiseStrategy, Objective, OptimizerSource, SchedulePolicy, Target, TrialSource,
};
use autotune_optimizer::{BayesianOptimizer, Optimizer, RandomSearch};
use autotune_sim::{
    CloudNoise, DbmsSim, Environment, FaultPlan, NginxSim, NoiseConfig, RedisSim, SimSystem,
    SparkSim, Workload,
};
use serde::{Deserialize, Serialize};

/// Which simulated system the campaign tunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemKind {
    /// In-memory KV store ([`RedisSim`]).
    Redis,
    /// OLTP/OLAP database ([`DbmsSim`]).
    Dbms,
    /// Batch analytics engine ([`SparkSim`]).
    Spark,
    /// Web/proxy server ([`NginxSim`]).
    Nginx,
}

impl SystemKind {
    /// Instantiates the simulator.
    pub fn build(self) -> Box<dyn SimSystem> {
        match self {
            SystemKind::Redis => Box::new(RedisSim::new()),
            SystemKind::Dbms => Box::new(DbmsSim::new()),
            SystemKind::Spark => Box::new(SparkSim::new()),
            SystemKind::Nginx => Box::new(NginxSim::new()),
        }
    }

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Redis => "redis",
            SystemKind::Dbms => "dbms",
            SystemKind::Spark => "spark",
            SystemKind::Nginx => "nginx",
        }
    }
}

/// Which optimizer drives the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Uniform random search.
    Random,
    /// Bayesian optimization with a GP surrogate.
    BoGp,
    /// SMAC-style Bayesian optimization (random-forest surrogate).
    BoSmac,
}

impl OptimizerKind {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            OptimizerKind::Random => "random",
            OptimizerKind::BoGp => "bo-gp",
            OptimizerKind::BoSmac => "bo-smac",
        }
    }
}

/// A serializable cloud-noise fleet description (the runtime
/// [`CloudNoise`] itself is not serialized; it is reconstructed from
/// these three values, which fully determine it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NoiseSpec {
    /// Fleet size.
    pub n_machines: usize,
    /// Per-machine noise model parameters.
    pub config: NoiseConfig,
    /// Fleet seed (machine speeds, drift phases).
    pub seed: u64,
}

impl NoiseSpec {
    /// Instantiates the fleet.
    pub fn build(&self) -> CloudNoise {
        CloudNoise::new_fleet(self.n_machines, self.config.clone(), self.seed)
    }
}

/// A complete, serializable description of one tuning campaign.
///
/// ```
/// use autotune::{Objective, SchedulePolicy};
/// use autotune_serve::{CampaignSpec, OptimizerKind, SystemKind};
/// use autotune_sim::{Environment, Workload};
///
/// let spec = CampaignSpec {
///     name: "redis-p99".into(),
///     system: SystemKind::Redis,
///     workload: Workload::kv_cache(80_000.0),
///     environment: Environment::small(),
///     objective: Objective::MinimizeLatencyP99,
///     optimizer: OptimizerKind::Random,
///     policy: SchedulePolicy::Sequential,
///     budget: 8,
///     seed: 42,
///     noise: None,
///     faults: None,
///     measurement: None,
/// };
/// let mut campaign = spec.build();
/// let metrics = campaign.run();
/// assert_eq!(metrics.n_suggested, 8);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Human-readable campaign name (registry display only; plays no
    /// part in the determinism contract).
    pub name: String,
    /// System under tuning.
    pub system: SystemKind,
    /// Offered workload.
    pub workload: Workload,
    /// Hardware/VM context.
    pub environment: Environment,
    /// What "better" means.
    pub objective: Objective,
    /// Suggestion engine.
    pub optimizer: OptimizerKind,
    /// Concurrency/barrier structure.
    pub policy: SchedulePolicy,
    /// Trial budget.
    pub budget: usize,
    /// Campaign seed (suggestion stream + per-trial eval seeds).
    pub seed: u64,
    /// Optional cloud-noise fleet.
    #[serde(default)]
    pub noise: Option<NoiseSpec>,
    /// Optional deterministic fault-injection plan.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Per-trial measurement policy (default: one raw run).
    #[serde(default)]
    pub measurement: Option<NoiseStrategy>,
}

impl CampaignSpec {
    /// A minimal spec over `system` with sensible defaults; builder-style
    /// field access fills in the rest.
    pub fn minimal(name: impl Into<String>, system: SystemKind, budget: usize, seed: u64) -> Self {
        CampaignSpec {
            name: name.into(),
            system,
            workload: Workload::kv_cache(50_000.0),
            environment: Environment::small(),
            objective: Objective::MinimizeLatencyAvg,
            optimizer: OptimizerKind::Random,
            policy: SchedulePolicy::Sequential,
            budget,
            seed,
            noise: None,
            faults: None,
            measurement: None,
        }
    }

    /// Constructs the campaign this spec describes. Building the same
    /// spec twice yields campaigns that produce byte-identical histories
    /// (the spec carries every input to the determinism contract).
    pub fn build(&self) -> Campaign<'static> {
        self.build_with(|target| {
            let space = target.space().clone();
            let optimizer: Box<dyn Optimizer> = match self.optimizer {
                OptimizerKind::Random => Box::new(RandomSearch::new(space)),
                OptimizerKind::BoGp => Box::new(BayesianOptimizer::gp(space)),
                OptimizerKind::BoSmac => Box::new(BayesianOptimizer::smac(space)),
            };
            Box::new(OptimizerSource::new(optimizer, self.budget))
        })
    }

    /// [`CampaignSpec::build`] with the trial source `source` makes over
    /// the spec's target in place of the spec's optimizer: the same
    /// target, policy, seed and measurement policy.
    pub(crate) fn build_with(
        &self,
        source: impl FnOnce(&Target) -> Box<dyn TrialSource>,
    ) -> Campaign<'static> {
        let mut target = Target::simulated(
            self.system.build(),
            self.workload.clone(),
            self.environment.clone(),
            self.objective.clone(),
        );
        if let Some(noise) = &self.noise {
            target = target.with_noise(noise.build());
        }
        if let Some(faults) = &self.faults {
            target = target.with_faults(faults.clone());
        }
        let source = source(&target);
        let mut campaign = Campaign::new(target, source, self.policy, self.seed);
        if let Some(strategy) = &self.measurement {
            campaign = campaign.with_noise_strategy(strategy.clone());
        }
        campaign
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        let mut s = CampaignSpec::minimal("t", SystemKind::Dbms, 6, 9);
        s.workload = Workload::tpcc(2_000.0);
        s.objective = Objective::MinimizeLatencyAvg;
        s.policy = SchedulePolicy::SyncBatch { k: 2 };
        s
    }

    fn run_to_history(s: &CampaignSpec) -> (u64, String) {
        let mut c = s.build();
        let metrics = c.run();
        (metrics.n_suggested, c.storage().to_json())
    }

    #[test]
    fn build_determinism_same_spec_same_history() {
        let (_, a) = run_to_history(&spec());
        let (_, b) = run_to_history(&spec());
        assert_eq!(a, b);
    }

    #[test]
    fn spec_json_round_trip_preserves_build_determinism() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        let (n, a) = run_to_history(&s);
        let (_, b) = run_to_history(&back);
        assert_eq!(n, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn noisy_faulty_spec_builds_and_runs() {
        let mut s = spec();
        s.noise = Some(NoiseSpec {
            n_machines: 3,
            config: NoiseConfig::default(),
            seed: 7,
        });
        s.faults = Some(FaultPlan::new(11));
        let metrics = s.build().run();
        assert_eq!(metrics.n_suggested, 6);
    }
}
