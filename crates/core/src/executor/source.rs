//! Trial sources: where configurations come from.
//!
//! A [`TrialSource`] is the suggestion side of the executor loop. The
//! executor pulls requests from it ([`TrialSource::next`]) and pushes
//! finalized outcomes back ([`TrialSource::report`]); the source decides
//! what to propose, when to hold back ([`SourceStep::Wait`] — e.g. a rung
//! barrier), and when the campaign is over.

use super::event::{TrialOutcome, TrialRequest};
use crate::multifid::FidelityLevel;
use autotune_optimizer::Optimizer;
use autotune_space::Config;
use rand::RngCore;
use std::ops::DerefMut;

/// What a source answers when asked for the next trial.
#[derive(Debug)]
pub enum SourceStep {
    /// Run this trial.
    Dispatch(TrialRequest),
    /// Nothing to dispatch until some in-flight trial reports back.
    Wait,
    /// The campaign is over once the in-flight trials drain.
    Exhausted,
}

/// The suggestion side of the executor loop. `Send`, like the
/// [`Optimizer`] it usually wraps: a serving registry may suggest and
/// observe a campaign on a worker thread, one thread at a time.
pub trait TrialSource: Send {
    /// Asks for the next trial. `rng` is the campaign's *suggestion*
    /// stream, distinct from the per-trial evaluation streams.
    fn next(&mut self, rng: &mut dyn RngCore) -> SourceStep;

    /// Reports a finalized trial (possibly out of dispatch order under
    /// asynchronous policies).
    fn report(&mut self, outcome: &TrialOutcome);

    /// Rung promotions to announce since the last poll (successive
    /// halving); the executor turns these into
    /// [`super::TrialEvent::Promoted`] events.
    fn take_promotions(&mut self) -> Vec<(Config, usize)> {
        Vec::new()
    }

    /// Surrogate hyperparameter refits performed so far by whatever
    /// optimizer backs this source (0 for model-free sources). The
    /// executor polls this around every suggest/observe and announces
    /// increases as [`crate::telemetry::OptEvent::SurrogateRefit`].
    fn n_refits(&self) -> usize {
        0
    }

    /// In-place incremental surrogate updates performed so far (0 for
    /// model-free sources). Polled alongside [`TrialSource::n_refits`] and
    /// announced as [`crate::telemetry::OptEvent::ModelUpdate`].
    fn n_model_updates(&self) -> usize {
        0
    }
}

/// A borrowed source is a source: a caller that wants to read its source
/// back after the run hands the campaign `Box::new(&mut source)`.
impl<S: TrialSource + ?Sized> TrialSource for &mut S {
    fn next(&mut self, rng: &mut dyn RngCore) -> SourceStep {
        (**self).next(rng)
    }

    fn report(&mut self, outcome: &TrialOutcome) {
        (**self).report(outcome)
    }

    fn take_promotions(&mut self) -> Vec<(Config, usize)> {
        (**self).take_promotions()
    }

    fn n_refits(&self) -> usize {
        (**self).n_refits()
    }

    fn n_model_updates(&self) -> usize {
        (**self).n_model_updates()
    }
}

/// Adapts an ask/tell [`Optimizer`] into a [`TrialSource`] with a fixed
/// trial budget.
///
/// Generic over how the optimizer is held: a `&mut` borrow for a one-shot
/// run over a caller-owned optimizer, or a `Box<dyn Optimizer>` so a
/// [`Campaign`](super::Campaign) built over it is `'static` and can be
/// parked in a long-lived registry (the serve layer's normal case).
///
/// Every suggestion is marked pending on the optimizer
/// ([`Optimizer::mark_pending`]), so model-based optimizers give in-flight
/// configurations constant-liar treatment: asynchronous slots never pile
/// onto the same optimum that another slot is already measuring.
pub struct OptimizerSource<O> {
    optimizer: O,
    budget: usize,
    suggested: usize,
}

impl<O> OptimizerSource<O>
where
    O: DerefMut,
    O::Target: Optimizer,
{
    /// Wraps `optimizer` with a budget of `budget` trials.
    pub fn new(optimizer: O, budget: usize) -> Self {
        OptimizerSource {
            optimizer,
            budget,
            suggested: 0,
        }
    }
}

impl<O> TrialSource for OptimizerSource<O>
where
    O: DerefMut + Send,
    O::Target: Optimizer,
{
    fn next(&mut self, rng: &mut dyn RngCore) -> SourceStep {
        if self.suggested >= self.budget {
            return SourceStep::Exhausted;
        }
        self.suggested += 1;
        let config = self.optimizer.suggest(rng);
        self.optimizer.mark_pending(&config);
        SourceStep::Dispatch(TrialRequest::new(config))
    }

    fn report(&mut self, outcome: &TrialOutcome) {
        // A trial lost to infrastructure carries no information about its
        // configuration: feeding it to the learner as a crash would
        // mis-train the surrogate (the naive behaviour E30 measures).
        // Unless middleware substituted a finite learn cost, just release
        // the pending mark and move on. Covers both exhausted retries
        // (`TransientFailure`) and hangs censored to NaN by `TimeoutMw`.
        if outcome.learn_cost.is_nan() && outcome.fault.is_some_and(|f| f.is_transient()) {
            self.optimizer.unmark_pending(&outcome.config);
            return;
        }
        self.optimizer.observe(&outcome.config, outcome.learn_cost);
    }

    fn n_refits(&self) -> usize {
        self.optimizer.n_refits()
    }

    fn n_model_updates(&self) -> usize {
        self.optimizer.n_model_updates()
    }
}

/// Successive-halving source: dispatches a pool of configurations through
/// a fidelity ladder, holding a barrier at every rung and promoting the
/// top `1/eta` fraction to the next (more expensive) rung.
pub struct RungSource<'a> {
    levels: &'a [FidelityLevel],
    eta: usize,
    rung: usize,
    queue: Vec<Config>,
    next_idx: usize,
    outstanding: usize,
    scored: Vec<(Config, f64)>,
    rung_sizes: Vec<usize>,
    final_scores: Vec<(Config, f64)>,
    promotions: Vec<(Config, usize)>,
    done: bool,
}

impl<'a> RungSource<'a> {
    /// A bracket over `levels` (cheapest first) starting from `pool`.
    pub fn new(levels: &'a [FidelityLevel], eta: usize, pool: Vec<Config>) -> Self {
        assert!(!levels.is_empty(), "need at least one fidelity level");
        assert!(eta >= 2, "eta must be at least 2");
        assert!(!pool.is_empty(), "need at least one config");
        RungSource {
            levels,
            eta,
            rung: 0,
            rung_sizes: vec![pool.len()],
            queue: pool,
            next_idx: 0,
            outstanding: 0,
            scored: Vec::new(),
            final_scores: Vec::new(),
            promotions: Vec::new(),
            done: false,
        }
    }

    /// Survivors per rung (diagnostics).
    pub fn rung_sizes(&self) -> &[usize] {
        &self.rung_sizes
    }

    /// Top-fidelity ranking, best first (empty until the bracket finishes).
    pub fn final_scores(&self) -> &[(Config, f64)] {
        &self.final_scores
    }

    /// Closes the current rung: rank it, keep the top `1/eta` fraction,
    /// and either finish (top rung) or promote survivors to the next rung.
    fn advance_rung(&mut self) {
        // Stable sort: ties keep completion order, so single-slot execution
        // reproduces the classic sequential bracket exactly.
        self.scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        if self.rung + 1 == self.levels.len() {
            self.final_scores = std::mem::take(&mut self.scored);
            self.done = true;
            return;
        }
        let keep = (self.scored.len() / self.eta).max(1);
        self.scored.truncate(keep);
        self.rung += 1;
        self.queue = self.scored.drain(..).map(|(c, _)| c).collect();
        self.next_idx = 0;
        self.rung_sizes.push(self.queue.len());
        for c in &self.queue {
            self.promotions.push((c.clone(), self.rung));
        }
    }
}

impl TrialSource for RungSource<'_> {
    fn next(&mut self, _rng: &mut dyn RngCore) -> SourceStep {
        loop {
            if self.done {
                return SourceStep::Exhausted;
            }
            if self.next_idx < self.queue.len() {
                let config = self.queue[self.next_idx].clone();
                self.next_idx += 1;
                self.outstanding += 1;
                let level = &self.levels[self.rung];
                return SourceStep::Dispatch(TrialRequest {
                    config,
                    fidelity: (self.rung + 1) as f64 / self.levels.len() as f64,
                    workload: Some(level.workload.clone()),
                    machine_id: None,
                });
            }
            if self.outstanding > 0 {
                return SourceStep::Wait;
            }
            self.advance_rung();
        }
    }

    fn report(&mut self, outcome: &TrialOutcome) {
        self.outstanding -= 1;
        // Crashes rank last but stay in the pool accounting.
        let cost = if outcome.cost.is_nan() {
            f64::INFINITY
        } else {
            outcome.cost
        };
        self.scored.push((outcome.config.clone(), cost));
    }

    fn take_promotions(&mut self) -> Vec<(Config, usize)> {
        std::mem::take(&mut self.promotions)
    }
}
