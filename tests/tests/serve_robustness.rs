//! Robustness integration tests for the serving layer: frame-codec
//! fuzzing (truncation, bit-flips, oversized prefixes must yield typed
//! errors, never panics or hangs), crash recovery from a log cut at
//! seeded bytes (recovered fleets finish byte-identical to straight
//! runs), and
//! overload shedding (accepted campaigns stay deterministic while the
//! registry sheds).

use autotune::SchedulePolicy;
use autotune_serve::{
    read_frame, write_frame, CampaignSpec, ChaosPlan, DurableRegistry, MemStorage, Request,
    ServeError, SystemKind, WalConfig, MAX_FRAME_LEN,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;

fn spec(i: u64) -> CampaignSpec {
    let mut s = CampaignSpec::minimal(format!("fuzz-{i}"), SystemKind::Redis, 5, 900 + i);
    s.policy = SchedulePolicy::AsyncSlots { k: 2 };
    s
}

fn valid_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(
        &mut buf,
        &Request::Register {
            spec: spec(0),
            request_id: Some(7),
        },
    )
    .unwrap();
    buf
}

/// Drains a byte stream through the codec; must terminate without
/// panicking and return only `Ok` or typed errors.
fn drain(bytes: &[u8]) -> Result<usize, ServeError> {
    let mut cursor = Cursor::new(bytes);
    let mut n = 0;
    loop {
        match read_frame::<Request>(&mut cursor)? {
            Some(_) => n += 1,
            None => return Ok(n),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary garbage never panics or hangs the codec.
    #[test]
    fn codec_survives_arbitrary_bytes(bytes in proptest::collection::vec(0u8..=255, 0..512usize)) {
        let _ = drain(&bytes);
    }

    /// A frame truncated anywhere strictly before its end never decodes
    /// to a message, and only a cut of zero bytes is EOF at a frame
    /// boundary: a peer that dies 1-3 bytes into the length prefix (or
    /// anywhere later) tore a frame, which is `Protocol`.
    #[test]
    fn truncated_frames_never_decode(cut_frac in 0.0..1.0f64) {
        let frame = valid_frame();
        let drawn = ((frame.len() - 1) as f64 * cut_frac) as usize;
        for cut in [0, 1, 2, 3, drawn] {
            match drain(&frame[..cut]) {
                Ok(0) if cut == 0 => {}
                Err(ServeError::Protocol(_)) if cut > 0 => {}
                other => prop_assert!(false, "cut at {cut}: {other:?}"),
            }
        }
    }

    /// A single bit flip anywhere in the payload body is either caught
    /// as a typed decode error or yields a (different but well-formed)
    /// message; the codec itself never panics.
    #[test]
    fn bit_flips_are_typed_errors_or_clean_decodes(byte_frac in 0.0..1.0f64, bit in 0u8..8) {
        let mut frame = valid_frame();
        let body = frame.len() - 4;
        let at = 4 + ((body - 1) as f64 * byte_frac) as usize;
        frame[at] ^= 1 << bit;
        match drain(&frame) {
            Ok(_) => {}
            Err(ServeError::Decode(_))
            | Err(ServeError::Protocol(_))
            | Err(ServeError::FrameTooLarge { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Any length prefix over the cap is rejected up front as
    /// `FrameTooLarge` — no allocation, no read of the body.
    #[test]
    fn oversized_prefixes_are_rejected_up_front(extra in 1u64..u32::MAX as u64 - MAX_FRAME_LEN as u64) {
        let len = (MAX_FRAME_LEN as u64 + extra) as u32;
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"ignored");
        match drain(&bytes) {
            Err(ServeError::FrameTooLarge { len: l, max }) => {
                prop_assert_eq!(l, len as u64);
                prop_assert_eq!(max, MAX_FRAME_LEN as u64);
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
    }
}

/// Kill the durable fleet wherever a seeded byte offset falls in its
/// log, with worker panics injected, recover from what the kill leaves,
/// finish, and demand byte-identical final histories — the
/// integration-level version of E34.
#[test]
fn chaos_crash_recovery_is_byte_identical() {
    let specs: Vec<CampaignSpec> = (0..6).map(spec).collect();
    let want: Vec<String> = specs
        .iter()
        .map(|s| {
            let mut c = s.build();
            c.run();
            c.storage().to_json()
        })
        .collect();
    for seed in [11u64, 23, 47] {
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 3, WalConfig::default()).unwrap();
        durable.set_chaos(ChaosPlan::new(seed).with_worker_panics(0.05));
        let mut gaps = StdRng::seed_from_u64(seed);
        let mut kill_at = gaps.gen_range(1..20_000u64);
        // Bytes appended that the log no longer holds.
        let (mut lost, mut crashes) = (0, 0);
        loop {
            let len = wal.appended_bytes() - lost;
            if len > kill_at {
                drop(durable);
                wal.crash_after(kill_at);
                crashes += 1;
                let (r, report) = DurableRegistry::open_in(&wal, 3, WalConfig::default()).unwrap();
                // Chaos stays off after recovery: the process that
                // replaced the dead one runs clean.
                durable = r;
                lost += len - kill_at + report.truncated_bytes;
                kill_at = kill_at - report.truncated_bytes + gaps.gen_range(1..20_000u64);
            }
            // Spec `i` registers as id `i`: retry what the log lost.
            if let Some(s) = specs.get(durable.registry().len()) {
                durable.register_spec(s).unwrap();
                continue;
            }
            if !durable.registry().has_runnable() {
                break;
            }
            durable.step_round().unwrap();
        }
        assert!(crashes > 1, "seed {seed}: {crashes} crashes");
        for (i, want) in want.iter().enumerate() {
            let got = durable
                .registry()
                .campaign(i as u64)
                .unwrap()
                .storage()
                .to_json();
            assert_eq!(
                &got, want,
                "seed {seed}: campaign {i} diverged ({crashes} crashes)"
            );
        }
    }
}
