//! A campaign's event log and its one durable form: [`CampaignEvent`],
//! and [`SameBits`], the check a replay holds each rebuilt event to.

use super::event::{Measurement, TrialOutcome, TrialRequest};
use crate::telemetry::OptEvent;
use crate::TrialStatus;
use autotune_sim::{FailureKind, TelemetrySample, Workload};
use autotune_space::{Config, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One record of a campaign's append-only event log, in the one form
/// every copy of the log takes: what a campaign appends as it runs, what
/// a [`super::CampaignSnapshot`] carries and what a write-ahead log's
/// `Ticks` records hold, encoded from a borrowed slice of the live log.
/// It **holds what a replay cannot recompute**, and of what it can,
/// enough to tell a divergence by:
///
/// | event | held | why |
/// |---|---|---|
/// | `Measured` | every field of the raw [`Measurement`]; in a binary encoding, the telemetry series as one byte string, 56 little-endian bytes a sample | the replay's only *input*: nothing recomputes it, so it is kept whole and bit for bit, and no field name is spelled 32 times; a decode unpacks it from the record's bytes into one allocation, which the rebuilt `Measured` and the outcome its trial's source is reported share |
/// | `Suggested` | whole | recomputed from the seed; kept to be compared |
/// | `Opt` | whole | recomputed; kept to be compared |
/// | `Outcome` | its nine scalars (`id`, `cost`, `learn_cost`, `elapsed_s`, `fidelity`, `machine_id`, `status`, `retries`, `fault`) | recomputed; its `config` is the trial's `Suggested` and its `telemetry` the one series the trial's last `Measured` holds (empty when a fault lost the measurement), both already in the log, so a second copy of either could only ever agree with the first |
///
/// A Redis trial is 2.4 KB of log, 1 792 bytes of it the 32-sample
/// series. `cost: None` is a crashed trial's NaN (the encoding has no
/// NaN). [`Campaign::replay`] checks each rebuilt event against the
/// logged one with `SameBits`, field by field, to the verdict of
/// comparing the two encodings.
///
/// [`Campaign::replay`]: super::Campaign::replay
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CampaignEvent {
    /// A trial was dispatched (request as finalized by `before_dispatch`
    /// middleware).
    Suggested {
        /// Trial id.
        id: u64,
        /// The dispatched request.
        request: TrialRequest,
    },
    /// A raw measurement came back from the target, before fault
    /// injection and middleware: the only non-recomputable input in the
    /// log. `attempt` 0 is the first measurement; retries append their
    /// re-measurements. The fields are [`Measurement`]'s.
    Measured {
        /// Trial id.
        id: u64,
        /// Attempt index (0 = first try).
        attempt: u32,
        /// Scalar cost; `None` is NaN (crashed).
        cost: Option<f64>,
        /// Benchmark seconds charged.
        elapsed_s: f64,
        /// Machine the trial landed on, when a noise fleet is attached.
        machine_id: Option<usize>,
        /// Telemetry stream of the run, packed in a binary encoding.
        #[serde(with = "packed_telemetry")]
        telemetry: Arc<[TelemetrySample]>,
        /// Cut short by censoring middleware.
        aborted: bool,
        /// Benchmark seconds shaved off by censoring middleware.
        saved_s: f64,
        /// Fault annotation.
        fault: Option<FailureKind>,
        /// Position of the target's temporal-drift clock immediately
        /// after this measurement: a replay fast-forwards the fresh
        /// target through it, so live measurement takes over on the
        /// recorded drift trajectory.
        clock: u64,
    },
    /// A trial was finalized (after the middleware chain) and reported
    /// to the source: [`TrialOutcome`] without its `config` (the trial's
    /// `Suggested` holds it) and `telemetry` (its last `Measured` does).
    Outcome {
        /// Trial id.
        id: u64,
        /// Recorded cost; `None` is NaN (crashed).
        cost: Option<f64>,
        /// Cost fed to the learner; `None` is NaN.
        learn_cost: Option<f64>,
        /// Benchmark seconds charged.
        elapsed_s: f64,
        /// Fidelity the trial ran at.
        fidelity: f64,
        /// Machine assignment, if any.
        machine_id: Option<usize>,
        /// Outcome status.
        status: TrialStatus,
        /// Retry attempts consumed before this outcome.
        retries: u32,
        /// Fault annotation of the final attempt, if any.
        fault: Option<FailureKind>,
    },
    /// An optimizer-side lifecycle event (`wall_ns` zeroed: real time
    /// never enters the log).
    Opt {
        /// The event.
        event: OptEvent,
    },
}

/// NaN (a crashed trial's cost) is `None`: the encoding has no NaN.
fn not_nan(cost: f64) -> Option<f64> {
    (!cost.is_nan()).then_some(cost)
}

impl CampaignEvent {
    /// The `Measured` event of attempt `attempt` of trial `id`; its
    /// series is `m`'s allocation.
    pub(crate) fn measured(id: u64, attempt: u32, m: &Measurement) -> Self {
        CampaignEvent::Measured {
            id,
            attempt,
            cost: not_nan(m.cost),
            elapsed_s: m.elapsed_s,
            machine_id: m.machine_id,
            telemetry: Arc::clone(&m.telemetry),
            aborted: m.aborted,
            saved_s: m.saved_s,
            fault: m.fault,
            clock: m.clock,
        }
    }

    /// The `Outcome` event of a finalized trial.
    pub(crate) fn outcome(o: &TrialOutcome) -> Self {
        CampaignEvent::Outcome {
            id: o.id,
            cost: not_nan(o.cost),
            learn_cost: not_nan(o.learn_cost),
            elapsed_s: o.elapsed_s,
            fidelity: o.fidelity,
            machine_id: o.machine_id,
            status: o.status,
            retries: o.retries,
            fault: o.fault,
        }
    }

    /// The replay input a `Measured` holds: `(trial, attempt)` and the
    /// raw measurement, its telemetry the logged series itself.
    pub(crate) fn measurement(&self) -> Option<((u64, u32), Measurement)> {
        let CampaignEvent::Measured {
            id,
            attempt,
            cost,
            elapsed_s,
            machine_id,
            telemetry,
            aborted,
            saved_s,
            fault,
            clock,
        } = self
        else {
            return None;
        };
        let m = Measurement {
            cost: cost.unwrap_or(f64::NAN),
            elapsed_s: *elapsed_s,
            machine_id: *machine_id,
            telemetry: Arc::clone(telemetry),
            aborted: *aborted,
            saved_s: *saved_s,
            fault: *fault,
            clock: *clock,
        };
        Some(((*id, *attempt), m))
    }
}

/// A telemetry series as one byte string: per sample its seven fields in
/// declaration order, each the eight little-endian bytes of the `f64`,
/// so any value and any sample count (none too) comes back bit for bit
/// and no field name is spelled. A format a person reads (JSON) gets
/// the samples spelled out.
mod packed_telemetry {
    use autotune_sim::TelemetrySample;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::sync::Arc;

    const SAMPLE_BYTES: usize = 7 * 8;

    /// A sample's fields in the order they are packed.
    pub fn fields(t: &TelemetrySample) -> [f64; 7] {
        [
            t.cpu,
            t.mem,
            t.disk_io,
            t.net_io,
            t.ops,
            t.read_share,
            t.scan_share,
        ]
    }

    /// The sample [`fields`] came from.
    pub fn sample(fields: [f64; 7]) -> TelemetrySample {
        let [cpu, mem, disk_io, net_io, ops, read_share, scan_share] = fields;
        TelemetrySample {
            cpu,
            mem,
            disk_io,
            net_io,
            ops,
            read_share,
            scan_share,
        }
    }

    pub fn serialize<S: Serializer>(samples: &[TelemetrySample], s: S) -> Result<S::Ok, S::Error> {
        if s.is_human_readable() {
            return samples.serialize(s);
        }
        // A sample is packed on the stack and lands in one copy.
        let mut bytes = Vec::with_capacity(samples.len() * SAMPLE_BYTES);
        for t in samples {
            let mut packed = [0; SAMPLE_BYTES];
            for (le, field) in packed.chunks_exact_mut(8).zip(fields(t)) {
                le.copy_from_slice(&field.to_le_bytes());
            }
            bytes.extend_from_slice(&packed);
        }
        s.serialize_bytes(&bytes)
    }

    /// Unpacks the series from the record's own bytes, where they lie,
    /// into its one allocation.
    pub fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<Arc<[TelemetrySample]>, D::Error> {
        if d.is_human_readable() {
            return Arc::deserialize(d);
        }
        let bytes = <&[u8]>::deserialize(d)?;
        let samples = bytes.chunks_exact(SAMPLE_BYTES);
        if !samples.remainder().is_empty() {
            return Err(serde::de::Error::custom(format!(
                "packed telemetry of {} bytes is not whole {SAMPLE_BYTES}-byte samples",
                bytes.len()
            )));
        }
        let unpacked = samples.map(|packed| {
            // A sample is its 56 bytes, so every field has its eight.
            let field = |i: usize| {
                let le = packed
                    .get(8 * i..8 * i + 8)
                    .and_then(|le| le.try_into().ok());
                le.map_or(f64::NAN, f64::from_le_bytes)
            };
            sample(std::array::from_fn(field))
        });
        Ok(unpacked.collect())
    }
}

/// The words a replay that is not its log is refused with, after
/// "event {i} ".
pub(crate) const DIVERGED: &str = "differs from the recorded one (different target, source or \
                                   middleware than the original campaign)";

/// Equality as the log's binary encoding sees it, taken field by field
/// without encoding anything: a float is its bits (so `-0.0` is not
/// `0.0`), everything else its value, and a shared series or config is
/// equal to itself before a sample or a value is read. Against a logged
/// event, whose floats all decoded and so are finite, this is the
/// verdict of comparing the two encodings
/// (`same_bits_is_the_encodings_verdict`); every field is named, so a
/// field added to an event or a request does not compile until it is
/// compared here.
pub(crate) trait SameBits {
    fn same_bits(&self, other: &Self) -> bool;
}

impl SameBits for f64 {
    fn same_bits(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl<T: SameBits> SameBits for Option<T> {
    fn same_bits(&self, other: &Self) -> bool {
        match (self, other) {
            (Some(a), Some(b)) => a.same_bits(b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

impl SameBits for Config {
    fn same_bits(&self, other: &Self) -> bool {
        self.shares(other)
            || (self.len() == other.len()
                && self.iter().zip(other.iter()).all(|((ka, a), (kb, b))| {
                    ka == kb
                        && match (a, b) {
                            (Value::Float(a), Value::Float(b)) => a.same_bits(b),
                            (a, b) => a == b,
                        }
                }))
    }
}

impl SameBits for Workload {
    fn same_bits(&self, other: &Self) -> bool {
        let Workload {
            kind,
            read_fraction,
            scan_fraction,
            skew,
            working_set_gb,
            offered_ops,
            scale_factor,
            base_duration_s,
        } = self;
        *kind == other.kind
            && read_fraction.same_bits(&other.read_fraction)
            && scan_fraction.same_bits(&other.scan_fraction)
            && skew.same_bits(&other.skew)
            && working_set_gb.same_bits(&other.working_set_gb)
            && offered_ops.same_bits(&other.offered_ops)
            && scale_factor.same_bits(&other.scale_factor)
            && base_duration_s.same_bits(&other.base_duration_s)
    }
}

impl SameBits for TrialRequest {
    fn same_bits(&self, other: &Self) -> bool {
        let TrialRequest {
            config,
            fidelity,
            workload,
            machine_id,
        } = self;
        config.same_bits(&other.config)
            && fidelity.same_bits(&other.fidelity)
            && workload.same_bits(&other.workload)
            && *machine_id == other.machine_id
    }
}

impl SameBits for Arc<[TelemetrySample]> {
    fn same_bits(&self, other: &Self) -> bool {
        let bits = |t| packed_telemetry::fields(t).map(f64::to_bits);
        Arc::ptr_eq(self, other)
            || (self.len() == other.len()
                && self
                    .iter()
                    .zip(other.iter())
                    .all(|(a, b)| bits(a) == bits(b)))
    }
}

impl SameBits for CampaignEvent {
    fn same_bits(&self, other: &Self) -> bool {
        match (self, other) {
            (
                CampaignEvent::Suggested { id, request },
                CampaignEvent::Suggested {
                    id: id_b,
                    request: b,
                },
            ) => id == id_b && request.same_bits(b),
            (
                CampaignEvent::Measured {
                    id,
                    attempt,
                    cost,
                    elapsed_s,
                    machine_id,
                    telemetry,
                    aborted,
                    saved_s,
                    fault,
                    clock,
                },
                CampaignEvent::Measured {
                    id: id_b,
                    attempt: attempt_b,
                    cost: cost_b,
                    elapsed_s: elapsed_s_b,
                    machine_id: machine_id_b,
                    telemetry: telemetry_b,
                    aborted: aborted_b,
                    saved_s: saved_s_b,
                    fault: fault_b,
                    clock: clock_b,
                },
            ) => {
                (id, attempt, machine_id, aborted, fault, clock)
                    == (id_b, attempt_b, machine_id_b, aborted_b, fault_b, clock_b)
                    && cost.same_bits(cost_b)
                    && elapsed_s.same_bits(elapsed_s_b)
                    && saved_s.same_bits(saved_s_b)
                    && telemetry.same_bits(telemetry_b)
            }
            (
                CampaignEvent::Outcome {
                    id,
                    cost,
                    learn_cost,
                    elapsed_s,
                    fidelity,
                    machine_id,
                    status,
                    retries,
                    fault,
                },
                CampaignEvent::Outcome {
                    id: id_b,
                    cost: cost_b,
                    learn_cost: learn_cost_b,
                    elapsed_s: elapsed_s_b,
                    fidelity: fidelity_b,
                    machine_id: machine_id_b,
                    status: status_b,
                    retries: retries_b,
                    fault: fault_b,
                },
            ) => {
                (id, machine_id, status, retries, fault)
                    == (id_b, machine_id_b, status_b, retries_b, fault_b)
                    && cost.same_bits(cost_b)
                    && learn_cost.same_bits(learn_cost_b)
                    && elapsed_s.same_bits(elapsed_s_b)
                    && fidelity.same_bits(fidelity_b)
            }
            (CampaignEvent::Opt { event }, CampaignEvent::Opt { event: b }) => event == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::campaign::tests::faulty_campaign;
    use crate::SchedulePolicy;
    use serde::Serialize;

    /// Whether a rebuilt event is the recorded one, judged through the
    /// log's own binary encoding into the two `scratch` buffers: the
    /// oracle [`SameBits`] stands for. A float is its eight bytes there,
    /// so the last bit and the sign of a zero count, and a crashed trial's
    /// NaN cost (`None` on both sides) equals itself. `Err` says why not.
    fn same_encoding(
        got: &impl Serialize,
        want: &impl Serialize,
        scratch: &mut [Vec<u8>; 2],
    ) -> Result<(), String> {
        let [got_bytes, want_bytes] = scratch;
        got_bytes.clear();
        want_bytes.clear();
        ciborium::into_writer(got, &mut *got_bytes)
            .and_then(|()| ciborium::into_writer(want, &mut *want_bytes))
            .map_err(|e| format!("cannot be encoded: {e}"))?;
        if got_bytes != want_bytes {
            return Err(DIVERGED.into());
        }
        Ok(())
    }

    proptest::proptest! {
        /// A `Measured` through the log's encoding and back, bit for bit:
        /// any `f64` pattern in the packed series (`-0.0`, subnormals, and
        /// the NaNs and infinities no CBOR float may hold), any sample
        /// count, none included, and a crashed trial's NaN cost.
        #[test]
        fn packed_telemetry_round_trips_bit_for_bit(
            bits in proptest::collection::vec(0u64..=u64::MAX, 0..(7 * 40usize)),
            crashed in 0u8..2,
        ) {
            const EDGES: [f64; 5] = [-0.0, 5e-324, f64::MIN_POSITIVE / 2.0, f64::NAN, f64::INFINITY];
            let field = |b: u64| match EDGES.get((b % 16) as usize) {
                Some(edge) => *edge,
                None => f64::from_bits(b),
            };
            let telemetry: Arc<[TelemetrySample]> = bits
                .chunks_exact(7)
                .map(|s| packed_telemetry::sample(std::array::from_fn(|i| field(s[i]))))
                .collect();
            let m = Measurement {
                cost: if crashed == 1 { f64::NAN } else { -0.0 },
                elapsed_s: 5e-324,
                machine_id: Some(3),
                telemetry,
                aborted: false,
                saved_s: 0.0,
                fault: None,
                clock: bits.len() as u64,
            };
            let mut bytes = Vec::new();
            ciborium::into_writer(&CampaignEvent::measured(7, 1, &m), &mut bytes).unwrap();
            // 56 bytes a sample and not a field name among them.
            proptest::prop_assert!(bytes.len() <= 160 + 56 * m.telemetry.len(), "{}", bytes.len());
            let back: CampaignEvent = ciborium::from_reader(&bytes[..]).unwrap();
            let ((id, attempt), got) = back.measurement().unwrap();
            proptest::prop_assert_eq!((id, attempt), (7, 1));
            let scalars = |m: &Measurement| {
                let cost = (!m.cost.is_nan()).then_some(m.cost.to_bits());
                (cost, m.elapsed_s.to_bits(), m.machine_id, m.aborted, m.saved_s.to_bits(), m.fault, m.clock)
            };
            proptest::prop_assert_eq!(scalars(&got), scalars(&m));
            proptest::prop_assert_eq!(got.cost.is_nan(), crashed == 1);
            let series = |m: &Measurement| -> Vec<u64> {
                let fields = m.telemetry.iter().flat_map(packed_telemetry::fields);
                fields.map(f64::to_bits).collect()
            };
            proptest::prop_assert_eq!(series(&got), series(&m));
        }
    }

    /// Edit `how` of an event's field number `field` (in declaration
    /// order; `false` past the last): a one-ulp step or a flipped sign of
    /// a float, so `0.0` becomes `-0.0`; an integer one up or down;
    /// `None` and `Some` swapped; a flag flipped; a config value, a
    /// workload override or a telemetry sample changed. `pick` chooses
    /// the knob, the sample and the workload field. `how` 3 of a series
    /// is a copy with equal bits in a new allocation.
    fn edit(e: &mut CampaignEvent, field: usize, how: usize, pick: usize) -> bool {
        fn float(x: &mut f64, how: usize) {
            *x = match how % 3 {
                0 => f64::from_bits(x.to_bits().wrapping_add(1)),
                1 => -*x,
                _ => f64::from_bits(x.to_bits().wrapping_sub(1)),
            };
        }
        fn step<T: Copy + TryFrom<u64>>(x: &mut T, how: usize)
        where
            u64: TryFrom<T>,
        {
            let v = u64::try_from(*x).unwrap_or(0);
            let v = if how.is_multiple_of(2) {
                v.wrapping_add(1)
            } else {
                v.wrapping_sub(1)
            };
            *x = T::try_from(v).unwrap_or(*x);
        }
        fn other(f: &mut FailureKind, _: usize) {
            *f = match f {
                FailureKind::Hang => FailureKind::Outage,
                _ => FailureKind::Hang,
            }
        }
        fn toggle<T>(x: &mut Option<T>, some: T, how: usize, inner: impl FnOnce(&mut T, usize)) {
            match x {
                Some(v) if how > 0 => inner(v, how - 1),
                Some(_) => *x = None,
                None => *x = Some(some),
            }
        }
        match e {
            CampaignEvent::Suggested { id, request: r } => match field {
                0 => step(id, how),
                1 => {
                    let Some((name, value)) = r.config.iter().nth(pick % r.config.len()) else {
                        return false;
                    };
                    let value = match (value, how % 3) {
                        (_, 2) => None,
                        (Value::Float(x), how) => Some(Value::Float({
                            let mut x = *x;
                            float(&mut x, how);
                            x
                        })),
                        (Value::Int(i), how) => {
                            Some(Value::Int(if how == 0 { i + 1 } else { i - 1 }))
                        }
                        (Value::Bool(b), _) => Some(Value::Bool(!b)),
                        (Value::Cat(c), _) => Some(Value::Cat(format!("{c}x"))),
                    };
                    let name = name.clone();
                    match value {
                        Some(v) => r.config.set(name, v),
                        None => drop(r.config.remove(&name)),
                    }
                }
                2 => float(&mut r.fidelity, how),
                3 => toggle(&mut r.workload, Workload::ycsb_a(1000.0), how, |w, how| {
                    let fields = [
                        &mut w.read_fraction,
                        &mut w.scan_fraction,
                        &mut w.skew,
                        &mut w.working_set_gb,
                        &mut w.offered_ops,
                        &mut w.scale_factor,
                        &mut w.base_duration_s,
                    ];
                    float(fields.into_iter().nth(pick % 7).unwrap(), how);
                }),
                4 => toggle(&mut r.machine_id, 0, how, step),
                _ => return false,
            },
            CampaignEvent::Measured {
                id,
                attempt,
                cost,
                elapsed_s,
                machine_id,
                telemetry,
                aborted,
                saved_s,
                fault,
                clock,
            } => match field {
                0 => step(id, how),
                1 => step(attempt, how),
                2 => toggle(cost, 0.0, how, float),
                3 => float(elapsed_s, how),
                4 => toggle(machine_id, 0, how, step),
                5 => {
                    let mut copy: Vec<TelemetrySample> = telemetry.to_vec();
                    match (copy.len(), how % 4) {
                        (0, 0..3) => copy.push(packed_telemetry::sample([0.0; 7])),
                        (n, 0) => drop(copy.remove(pick % n)),
                        (n, how @ 1..3) => {
                            let mut fields = packed_telemetry::fields(&copy[pick % n]);
                            float(&mut fields[pick % 7], how - 1);
                            copy[pick % n] = packed_telemetry::sample(fields);
                        }
                        _ => {}
                    }
                    *telemetry = copy.into();
                }
                6 => *aborted = !*aborted,
                7 => float(saved_s, how),
                8 => toggle(fault, FailureKind::Transient, how, other),
                9 => step(clock, how),
                _ => return false,
            },
            CampaignEvent::Outcome {
                id,
                cost,
                learn_cost,
                elapsed_s,
                fidelity,
                machine_id,
                status,
                retries,
                fault,
            } => match field {
                0 => step(id, how),
                1 => toggle(cost, 0.0, how, float),
                2 => toggle(learn_cost, 0.0, how, float),
                3 => float(elapsed_s, how),
                4 => float(fidelity, how),
                5 => toggle(machine_id, 0, how, step),
                6 => {
                    *status = match status {
                        TrialStatus::Complete => TrialStatus::Crashed,
                        _ => TrialStatus::Complete,
                    }
                }
                7 => step(retries, how),
                8 => toggle(fault, FailureKind::Transient, how, other),
                _ => return false,
            },
            CampaignEvent::Opt { event } => match (field, event) {
                (
                    0,
                    OptEvent::SuggestBegin { id }
                    | OptEvent::SuggestEnd { id, .. }
                    | OptEvent::ObserveBegin { id }
                    | OptEvent::ObserveEnd { id, .. }
                    | OptEvent::SurrogateRefit { id, .. }
                    | OptEvent::ModelUpdate { id, .. },
                ) => step(id, how),
                (
                    1,
                    OptEvent::SuggestEnd { wall_ns, .. } | OptEvent::ObserveEnd { wall_ns, .. },
                ) => step(wall_ns, how),
                (
                    1,
                    OptEvent::SurrogateRefit { n_refits: n, .. }
                    | OptEvent::ModelUpdate { n_updates: n, .. },
                ) => step(n, how),
                (2, OptEvent::SuggestEnd { dispatched, .. }) => *dispatched = !*dispatched,
                _ => return false,
            },
        }
        true
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// The replay's field-by-field check and the encoding it stands
        /// for agree on every single-field edit of every event a noisy,
        /// fault-injected, retrying campaign logs, and on the events
        /// themselves, shared or copied.
        #[test]
        fn same_bits_is_the_encodings_verdict(policy in 0usize..3, pick in 0usize..1000) {
            let policy = [
                SchedulePolicy::Sequential,
                SchedulePolicy::SyncBatch { k: 2 },
                SchedulePolicy::AsyncSlots { k: 2 },
            ][policy];
            let mut c = faulty_campaign(policy);
            c.run();
            let live = c.log().unwrap();
            let mut bytes = Vec::new();
            ciborium::into_writer(live, &mut bytes).unwrap();
            let logged: Vec<CampaignEvent> = ciborium::from_reader(&bytes[..]).unwrap();
            let scratch = &mut Default::default();
            let (mut edits, mut refused) = (0, 0);
            for (live, logged) in live.iter().zip(&logged) {
                proptest::prop_assert!(live.same_bits(logged) && logged.same_bits(logged));
                for field in 0.. {
                    let mut edited = logged.clone();
                    if !edit(&mut edited, field, 0, pick) {
                        break;
                    }
                    for how in 0..4 {
                        let mut edited = logged.clone();
                        edit(&mut edited, field, how, pick);
                        let oracle = same_encoding(&edited, logged, scratch);
                        proptest::prop_assert_eq!(
                            edited.same_bits(logged),
                            oracle.is_ok(),
                            "field {} how {} of {:?}",
                            field,
                            how,
                            logged
                        );
                        proptest::prop_assert_eq!(logged.same_bits(&edited), oracle.is_ok());
                        if let Err(why) = oracle {
                            if !why.starts_with("cannot be encoded") {
                                proptest::prop_assert_eq!(why, DIVERGED);
                            }
                            refused += 1;
                        }
                        edits += 1;
                    }
                }
            }
            proptest::prop_assert!(refused > edits / 2, "{} of {} edits refused", refused, edits);
        }
    }
}
