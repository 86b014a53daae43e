//! Campaign observability: a subscriber fan-out on the executor's event
//! stream.
//!
//! Tuning campaigns are long, expensive and opaque — before anyone can
//! trust (or debug) a tuner they need to see where trial time and
//! optimizer overhead go. This module turns the executor's typed
//! [`TrialEvent`] stream, the finalized [`TrialOutcome`]s, and a set of
//! optimizer-side lifecycle events ([`OptEvent`]: suggest begin/end,
//! observe begin/end, surrogate refit) into a [`Subscriber`] interface
//! with three shipped implementations:
//!
//! * [`MetricsCollector`] — counters and log-bucketed histograms (trial
//!   latency, queue wait, retries, suggest/observe overhead, per-machine
//!   utilization), rolled up into a [`MetricsSnapshot`]. One is always
//!   attached inside the campaign: its snapshot is the campaign's
//!   accounting, returned by [`Campaign::run`](crate::executor::Campaign::run)
//!   and merged into [`SessionSummary`](crate::SessionSummary).
//! * [`SpanRecorder`] — per-trial spans on the **virtual clock**
//!   (suggest → queued → running attempts → retry backoffs → observed),
//!   exportable as Chrome `trace_event` JSON so a campaign opens directly
//!   in `chrome://tracing` / Perfetto.
//! * [`ProgressReporter`] — periodic one-line campaign status (best so
//!   far, incumbent age, fleet health, ETA) to any `io::Write` sink.
//!
//! # Determinism contract
//!
//! Subscribers are pure observers: they are notified on the executor's
//! driver thread, in a deterministic order, with timestamps taken from
//! the **virtual clock only**. Attaching any combination of subscribers
//! must leave campaign results — trial history, wall clock, RNG streams —
//! byte-identical (asserted by a release-mode CI gate). The one
//! non-deterministic quantity, real optimizer overhead, enters through an
//! explicitly injected [`WallTimer`] and flows only into subscriber-side
//! metrics, never into the event log, the trial storage, or the clock.
//! Core itself never calls `std::time::Instant::now()`; without an
//! injected timer every overhead reading is 0.

mod metrics;
mod progress;
mod span;

pub use metrics::{LogHistogram, MetricsCollector, MetricsSnapshot};
pub use progress::ProgressReporter;
pub use span::{MachineMark, SpanRecorder, SpanSegment, TrialSpan};

use crate::executor::{TrialEvent, TrialOutcome};
use serde::{Deserialize, Serialize};

/// Optimizer-side lifecycle events, delivered to subscribers alongside
/// the trial stream. Their `wall_ns` payloads come from an injected
/// [`WallTimer`], so the resumable
/// [`Campaign`](crate::executor::Campaign) event log records them with
/// `wall_ns` zeroed to stay deterministic.
///
/// Suggestion and observation are instantaneous on the virtual clock
/// (the simulated cluster never waits for the tuner), so a begin/end
/// pair shares one virtual timestamp; the pair's `wall_ns` carries the
/// *real* overhead the tuner spent, which is exactly the quantity the
/// "tuning the tuner" literature asks campaigns to measure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptEvent {
    /// The executor is about to ask the source for trial `id` (the id the
    /// suggestion will receive if one is dispatched).
    SuggestBegin {
        /// Prospective trial id.
        id: u64,
    },
    /// The source answered. `dispatched` is false for `Wait`/`Exhausted`
    /// polls, which still cost real tuner time.
    SuggestEnd {
        /// Prospective trial id (matches the preceding `SuggestBegin`).
        id: u64,
        /// Real nanoseconds spent inside the source (0 without a timer).
        wall_ns: u64,
        /// Whether a trial was actually dispatched.
        dispatched: bool,
    },
    /// The executor is about to report trial `id`'s outcome to the source.
    ObserveBegin {
        /// Trial id.
        id: u64,
    },
    /// The source (and its optimizer) finished digesting the outcome.
    ObserveEnd {
        /// Trial id.
        id: u64,
        /// Real nanoseconds spent inside the source (0 without a timer).
        wall_ns: u64,
    },
    /// The source's optimizer refit its surrogate hyperparameters while
    /// digesting trial `id`'s outcome or proposing trial `id`.
    SurrogateRefit {
        /// Trial id being observed/suggested when the refit happened.
        id: u64,
        /// Total refits so far in this campaign.
        n_refits: usize,
    },
    /// The source's optimizer absorbed data into its surrogate with one or
    /// more O(n²) in-place updates (no full refit) while digesting trial
    /// `id`'s outcome or proposing trial `id`.
    ModelUpdate {
        /// Trial id being observed/suggested when the update happened.
        id: u64,
        /// Total in-place updates so far in this campaign.
        n_updates: usize,
    },
}

/// A campaign observer. All hooks run on the executor's driver thread in
/// registration order; `at_s` is always the virtual clock. Implementations
/// must not feed anything back into the campaign (see the module-level
/// determinism contract). `Send`, as every collaborator a campaign owns
/// is: a serving registry drives a campaign from one thread at a time,
/// not always the same one.
pub trait Subscriber: Send {
    /// Name for diagnostics.
    fn name(&self) -> &str;

    /// A lifecycle event was emitted at virtual time `at_s`.
    fn on_trial_event(&mut self, _at_s: f64, _event: &TrialEvent) {}

    /// An optimizer-side event occurred at virtual time `at_s`.
    fn on_opt_event(&mut self, _at_s: f64, _event: &OptEvent) {}

    /// A trial was finalized (after the middleware chain) at `at_s`.
    fn on_outcome(&mut self, _at_s: f64, _outcome: &TrialOutcome) {}

    /// The campaign drained; `at_s` is the final virtual wall clock.
    fn on_campaign_end(&mut self, _at_s: f64) {}
}

impl<S: Subscriber + ?Sized> Subscriber for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_trial_event(&mut self, at_s: f64, event: &TrialEvent) {
        (**self).on_trial_event(at_s, event);
    }
    fn on_opt_event(&mut self, at_s: f64, event: &OptEvent) {
        (**self).on_opt_event(at_s, event);
    }
    fn on_outcome(&mut self, at_s: f64, outcome: &TrialOutcome) {
        (**self).on_outcome(at_s, outcome);
    }
    fn on_campaign_end(&mut self, at_s: f64) {
        (**self).on_campaign_end(at_s);
    }
}

/// A source of real (wall-clock) nanosecond readings for optimizer
/// overhead attribution. Core never reads real time itself — callers who
/// want overhead measured inject an implementation (examples and the
/// bench harness ship one backed by `std::time::Instant`); everyone else
/// gets [`NullTimer`] and deterministic zeros. `Send` for the reason
/// [`Subscriber`] is.
pub trait WallTimer: Send {
    /// Monotonic nanoseconds since an arbitrary origin.
    fn now_ns(&mut self) -> u64;
}

/// The default [`WallTimer`]: always reads 0, keeping every derived
/// overhead figure deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTimer;

impl WallTimer for NullTimer {
    fn now_ns(&mut self) -> u64 {
        0
    }
}
