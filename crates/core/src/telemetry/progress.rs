//! Periodic one-line campaign status on the virtual clock.

use super::{OptEvent, Subscriber};
use crate::executor::{TrialEvent, TrialOutcome};
use std::collections::BTreeSet;
use std::io::Write;

/// A [`Subscriber`] emitting a one-line campaign status to a `Write`
/// sink every `every_s` virtual seconds (plus a closing line at campaign
/// end): trials done, best so far with the incumbent's age, failure
/// tallies, fleet health, and an ETA when a trial budget is declared.
///
/// Lines are emitted from the executor's driver thread; the reporter is a
/// pure observer and the sink sees only virtual-clock timestamps, so
/// output is deterministic for a fixed campaign.
pub struct ProgressReporter<W: Write> {
    sink: W,
    every_s: f64,
    next_s: f64,
    budget: Option<usize>,
    n_done: usize,
    n_crashed: usize,
    n_transient: usize,
    n_retries: usize,
    n_refits: usize,
    best_cost: f64,
    best_id: u64,
    quarantined: BTreeSet<usize>,
    seen_machines: BTreeSet<usize>,
}

impl<W: Write> ProgressReporter<W> {
    /// Reports to `sink` every `every_s` virtual seconds.
    pub fn new(sink: W, every_s: f64) -> Self {
        ProgressReporter {
            sink,
            every_s: every_s.max(1e-9),
            next_s: every_s.max(1e-9),
            budget: None,
            n_done: 0,
            n_crashed: 0,
            n_transient: 0,
            n_retries: 0,
            n_refits: 0,
            best_cost: f64::INFINITY,
            best_id: 0,
            quarantined: BTreeSet::new(),
            seen_machines: BTreeSet::new(),
        }
    }

    /// Declares the campaign's trial budget, enabling the ETA estimate.
    pub fn with_budget(mut self, n_trials: usize) -> Self {
        self.budget = Some(n_trials);
        self
    }

    /// Consumes the reporter, returning its sink (e.g. to inspect a
    /// `Vec<u8>` buffer in tests).
    pub fn into_sink(self) -> W {
        self.sink
    }

    fn status_line(&self, at_s: f64) -> String {
        let mut line = format!("[t {at_s:9.1}s] {} done", self.n_done);
        if let Some(b) = self.budget {
            line = format!("[t {at_s:9.1}s] {}/{b} done", self.n_done);
        }
        if self.best_cost.is_finite() {
            let age = self.n_done as u64 - self.best_id.min(self.n_done as u64);
            line += &format!(
                " | best {:.4} (trial {}, age {})",
                self.best_cost, self.best_id, age
            );
        } else {
            line += " | best n/a";
        }
        if self.n_crashed + self.n_transient + self.n_retries > 0 {
            line += &format!(
                " | crashed {} lost {} retries {}",
                self.n_crashed, self.n_transient, self.n_retries
            );
        }
        if !self.seen_machines.is_empty() {
            line += &format!(
                " | fleet {}/{} healthy",
                self.seen_machines.len() - self.quarantined.len(),
                self.seen_machines.len()
            );
        }
        if self.n_refits > 0 {
            line += &format!(" | refits {}", self.n_refits);
        }
        if let Some(b) = self.budget {
            // `n_done` can overshoot a declared budget (retried trials
            // reported past it, or a budget declared for a different unit
            // than outcomes); saturate so the remaining-count arithmetic
            // can never underflow to a garbage ETA.
            let remaining = b.saturating_sub(self.n_done);
            if self.n_done > b {
                line += " | eta ~0s";
            } else if self.n_done > 0 && remaining > 0 && at_s > 0.0 {
                let rate = self.n_done as f64 / at_s;
                line += &format!(" | eta ~{:.0}s", remaining as f64 / rate);
            }
        }
        line
    }

    fn tick(&mut self, at_s: f64) {
        while at_s >= self.next_s {
            let line = self.status_line(self.next_s);
            let _ = writeln!(self.sink, "{line}");
            self.next_s += self.every_s;
        }
    }
}

impl<W: Write + Send> Subscriber for ProgressReporter<W> {
    fn name(&self) -> &str {
        "progress"
    }

    fn on_trial_event(&mut self, at_s: f64, event: &TrialEvent) {
        match event {
            TrialEvent::Started {
                machine_id: Some(m),
                ..
            } => {
                self.seen_machines.insert(*m);
            }
            TrialEvent::Retried { .. } => self.n_retries += 1,
            TrialEvent::Quarantined { machine_id } => {
                self.seen_machines.insert(*machine_id);
                self.quarantined.insert(*machine_id);
            }
            TrialEvent::Released { machine_id } => {
                self.quarantined.remove(machine_id);
            }
            _ => {}
        }
        self.tick(at_s);
    }

    fn on_opt_event(&mut self, _at_s: f64, event: &OptEvent) {
        if let OptEvent::SurrogateRefit { n_refits, .. } = event {
            self.n_refits = *n_refits;
        }
    }

    fn on_outcome(&mut self, at_s: f64, outcome: &TrialOutcome) {
        self.n_done += 1;
        match outcome.status {
            crate::TrialStatus::Crashed => self.n_crashed += 1,
            crate::TrialStatus::TransientFailure => self.n_transient += 1,
            _ => {}
        }
        if outcome.cost.is_finite() && outcome.cost < self.best_cost {
            self.best_cost = outcome.cost;
            self.best_id = outcome.id;
        }
        if let Some(m) = outcome.machine_id {
            self.seen_machines.insert(m);
        }
        self.tick(at_s);
    }

    fn on_campaign_end(&mut self, at_s: f64) {
        let line = self.status_line(at_s);
        let _ = writeln!(self.sink, "{line} | campaign complete");
        let _ = self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_periodically_and_at_end() {
        let mut rep = ProgressReporter::new(Vec::new(), 10.0).with_budget(4);
        for i in 0..4u64 {
            let at = (i as f64 + 1.0) * 12.0;
            rep.on_outcome(
                at,
                &TrialOutcome {
                    id: i,
                    config: autotune_space::Config::new(),
                    cost: 10.0 - i as f64,
                    learn_cost: 10.0 - i as f64,
                    elapsed_s: 12.0,
                    fidelity: 1.0,
                    machine_id: None,
                    status: crate::TrialStatus::Complete,
                    retries: 0,
                    fault: None,
                    telemetry: Default::default(),
                },
            );
        }
        rep.on_campaign_end(48.0);
        let out = String::from_utf8(rep.into_sink()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.len() >= 5, "periodic lines + final: {out}");
        assert!(lines.last().unwrap().contains("campaign complete"));
        assert!(lines.last().unwrap().contains("4/4 done"));
        assert!(lines.last().unwrap().contains("best 7.0000 (trial 3"));
        // Mid-campaign lines estimate time remaining.
        assert!(out.contains("eta ~"), "{out}");
    }

    fn outcome(id: u64) -> TrialOutcome {
        TrialOutcome {
            id,
            config: autotune_space::Config::new(),
            cost: 1.0,
            learn_cost: 1.0,
            elapsed_s: 1.0,
            fidelity: 1.0,
            machine_id: None,
            status: crate::TrialStatus::Complete,
            retries: 0,
            fault: None,
            telemetry: Default::default(),
        }
    }

    #[test]
    fn overrunning_a_declared_budget_never_underflows_the_eta() {
        // Budget 2, but 3 outcomes arrive (e.g. retried trials reported
        // past the declared budget). The remaining-trials subtraction must
        // saturate: "eta ~0s", not a u64-underflow ETA of ~10^19 seconds.
        let mut rep = ProgressReporter::new(Vec::new(), 1.0).with_budget(2);
        for i in 0..3u64 {
            rep.on_outcome((i + 1) as f64, &outcome(i));
        }
        rep.on_campaign_end(3.0);
        let out = String::from_utf8(rep.into_sink()).unwrap();
        let last = out.lines().last().unwrap();
        assert!(last.contains("3/2 done"), "{out}");
        assert!(last.contains("eta ~0s"), "{out}");
        // No line anywhere carries an absurd underflow ETA.
        assert!(!out.contains("e19"), "{out}");
    }

    #[test]
    fn eta_is_omitted_exactly_at_budget() {
        let mut rep = ProgressReporter::new(Vec::new(), 1.0).with_budget(2);
        for i in 0..2u64 {
            rep.on_outcome((i + 1) as f64, &outcome(i));
        }
        rep.on_campaign_end(2.0);
        let out = String::from_utf8(rep.into_sink()).unwrap();
        let last = out.lines().last().unwrap();
        assert!(last.contains("2/2 done"), "{out}");
        assert!(!last.contains("eta"), "{out}");
    }
}
