//! Deterministic chaos injection for the serving layer.
//!
//! The durability story (`durability.rs`) only counts if it survives
//! failures *at every byte boundary*: a process killed before, during,
//! or after a WAL append, and a panic while a wave is measured. This
//! module is the fault schedule for both, built on the same discipline
//! as [`autotune_sim::FaultPlan`]: every decision is a pure splitmix
//! hash of `(seed, domain, index)`, so a chaos run replays byte-for-byte
//! — which is exactly what lets CI assert that recovery from an injected
//! crash reproduces the uninterrupted history.
//!
//! Crash simulation lives here and nowhere in the write path: an armed
//! plan wraps the WAL's storage in a [`Crashing`] one, whose append fails
//! as a write the disk refuses fails, after it has let land what the
//! crash point says. The handle dies on that error as on any other — the
//! same observable sequence as `kill -9` at that instant, but testable
//! in-process.

use crate::wal::{record_at, MemStorage, Storage};
use std::any::Any;
use std::io;

/// Where, relative to one WAL append, a simulated process crash lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashPoint {
    /// Before any byte of the record lands.
    PreAppend,
    /// Mid-write: a torn record that recovery must cut, not trip over.
    MidAppend,
    /// After the record landed, before its acknowledgement: recovery sees
    /// state the caller was never told about.
    PostAppendPreAck,
}

/// A seeded schedule of serving-layer faults. All-zero probabilities
/// (the [`ChaosPlan::new`] default) inject nothing; builders switch on
/// each fault family. Decisions are pure functions of `(seed, domain,
/// index)` — no RNG state, so concurrent consumers can share a plan and
/// a recovered process re-rolls identically.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Seed for every hash below.
    pub seed: u64,
    /// Probability an append dies before writing.
    pub p_crash_pre_append: f64,
    /// Probability an append dies mid-write (torn record).
    pub p_crash_mid_append: f64,
    /// Probability an append dies after writing, before the ack.
    pub p_crash_post_append: f64,
    /// Probability a (round, campaign) wave measurement panics.
    pub p_worker_panic: f64,
}

/// Hash domains, so the same index rolls independently per fault family.
const D_CRASH: u64 = 1;
const D_PANIC: u64 = 2;
const D_AUX: u64 = 5;

impl ChaosPlan {
    /// A quiet plan: nothing injected until a builder turns a family on.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            p_crash_pre_append: 0.0,
            p_crash_mid_append: 0.0,
            p_crash_post_append: 0.0,
            p_worker_panic: 0.0,
        }
    }

    /// Enables process-crash points around WAL appends, `p` each.
    pub fn with_crashes(mut self, p: f64) -> Self {
        self.p_crash_pre_append = p;
        self.p_crash_mid_append = p;
        self.p_crash_post_append = p;
        self
    }

    /// Enables worker panics with probability `p` per (round, campaign).
    pub fn with_worker_panics(mut self, p: f64) -> Self {
        self.p_worker_panic = p;
        self
    }

    fn hash(&self, domain: u64, index: u64, salt: u64) -> u64 {
        splitmix(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(domain)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(index)
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add(salt),
        )
    }

    fn unit_roll(&self, domain: u64, index: u64, salt: u64) -> f64 {
        unit(self.hash(domain, index, salt))
    }

    /// Whether (and where) the process crashes around record number
    /// `append_index` a [`Crashing`] storage appends. The index is a
    /// monotone count the storage keeps — *not* derived from WAL
    /// contents — so a recovered process does not re-roll the crash that
    /// killed it and loop forever.
    pub(crate) fn crash_at(&self, append_index: u64) -> Option<CrashPoint> {
        let r = self.unit_roll(D_CRASH, append_index, 0);
        if r < self.p_crash_pre_append {
            return Some(CrashPoint::PreAppend);
        }
        if r < self.p_crash_pre_append + self.p_crash_mid_append {
            return Some(CrashPoint::MidAppend);
        }
        if r < self.p_crash_pre_append + self.p_crash_mid_append + self.p_crash_post_append {
            return Some(CrashPoint::PostAppendPreAck);
        }
        None
    }

    /// For a torn ([`CrashPoint::MidAppend`]) write of a `record_len`-byte
    /// record (a record is at least its 8-byte header): how many bytes
    /// actually reached the file (at least 1, strictly fewer than all).
    pub(crate) fn torn_len(&self, append_index: u64, record_len: usize) -> usize {
        let h = self.hash(D_AUX, append_index, 1);
        1 + (h as usize) % (record_len - 1)
    }

    /// Whether measuring `campaign_id`'s wave in scheduling round
    /// `round` panics.
    pub fn worker_panics(&self, round: u64, campaign_id: u64) -> bool {
        self.unit_roll(D_PANIC, round, campaign_id) < self.p_worker_panic
    }
}

/// The WAL's storage with a plan's crash points in it. Each record an
/// append hands over takes the next number, and the first one
/// [`ChaosPlan::crash_at`] crashes decides what lands: the records before
/// it whole, of it what its [`CrashPoint`] says, and nothing after it.
/// Then the append fails. All else goes to the wrapped storage as it is.
pub(crate) struct Crashing {
    plan: ChaosPlan,
    /// Records appended since the first plan was armed.
    appended: u64,
    inner: Box<dyn Storage>,
}

/// Arms `plan` on the WAL's `storage`: the first plan wraps it in a
/// [`Crashing`] storage, which counts records from there; a later one
/// takes over that count.
pub(crate) fn arm(storage: &mut Box<dyn Storage>, plan: ChaosPlan) {
    let armed: &mut dyn Any = storage.as_mut();
    if let Some(armed) = armed.downcast_mut::<Crashing>() {
        armed.plan = plan;
        return;
    }
    // An empty device holds the place while the wrap is made.
    let inner = std::mem::replace(storage, Box::new(MemStorage::default()));
    *storage = Box::new(Crashing {
        plan,
        appended: 0,
        inner,
    });
}

impl Storage for Crashing {
    fn segments(&self) -> io::Result<Vec<u64>> {
        self.inner.segments()
    }

    fn read(&self, n: u64) -> io::Result<(u64, Box<dyn io::Read>)> {
        self.inner.read(n)
    }

    fn cut(&mut self, n: u64, len: u64) -> io::Result<()> {
        self.inner.cut(n, len)
    }

    fn open_next(&mut self) -> io::Result<()> {
        self.inner.open_next()
    }

    fn append(&mut self, records: &[u8]) -> io::Result<()> {
        let mut begin = 0;
        while let Some((_, end)) = record_at(records, begin) {
            let op = self.appended;
            self.appended += 1;
            if let Some(point) = self.plan.crash_at(op) {
                let landed = match point {
                    CrashPoint::PreAppend => 0,
                    CrashPoint::MidAppend => self.plan.torn_len(op, end - begin),
                    CrashPoint::PostAppendPreAck => end - begin,
                };
                self.inner.append(&records[..begin + landed])?;
                return Err(io::Error::other(format!("simulated crash ({point:?})")));
            }
            begin = end;
        }
        self.inner.append(records)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_seed_sensitive() {
        let a = ChaosPlan::new(7).with_crashes(0.2).with_worker_panics(0.1);
        let b = ChaosPlan::new(7).with_crashes(0.2).with_worker_panics(0.1);
        let c = ChaosPlan::new(8).with_crashes(0.2).with_worker_panics(0.1);
        let seq = |p: &ChaosPlan| -> Vec<Option<CrashPoint>> {
            (0..200).map(|i| p.crash_at(i)).collect()
        };
        assert_eq!(seq(&a), seq(&b));
        assert_ne!(seq(&a), seq(&c));
        let panics =
            |p: &ChaosPlan| -> Vec<bool> { (0..100).map(|r| p.worker_panics(r, r % 7)).collect() };
        assert_eq!(panics(&a), panics(&b));
    }

    #[test]
    fn crash_points_cover_all_three_windows() {
        let plan = ChaosPlan::new(3).with_crashes(0.15);
        let mut seen = [false; 3];
        for i in 0..500 {
            match plan.crash_at(i) {
                Some(CrashPoint::PreAppend) => seen[0] = true,
                Some(CrashPoint::MidAppend) => seen[1] = true,
                Some(CrashPoint::PostAppendPreAck) => seen[2] = true,
                None => {}
            }
        }
        assert_eq!(seen, [true; 3], "500 rolls at 45% should hit every window");
    }

    #[test]
    fn torn_len_is_a_strict_prefix() {
        let plan = ChaosPlan::new(11).with_crashes(0.5);
        for i in 0..100 {
            let n = plan.torn_len(i, 64);
            assert!(
                (1..64).contains(&n),
                "torn write must be a strict prefix: {n}"
            );
        }
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = ChaosPlan::new(9);
        for i in 0..500 {
            assert!(plan.crash_at(i).is_none());
            assert!(!plan.worker_panics(i, 0));
        }
    }
}
