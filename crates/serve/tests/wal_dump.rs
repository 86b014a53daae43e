//! Runs the `wal_dump` example over a directory a short durable run
//! wrote: every line it prints parses with `serde_json`, the lines tile
//! each segment exactly, there is one per record recovery reads, and a
//! log it cannot read in full, or one holding a suggestion its
//! campaign's optimizer would not have made, costs exit code 1.
//!
//! The example is built by `cargo test` whenever no single target is
//! selected; `tools/ci.sh` builds it by name before running this file.

use autotune_serve::{
    CampaignSpec, DurableRegistry, RouterConfig, SystemKind, TenantRouter, WalConfig,
};
use serde::de::IgnoredAny;
use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `target/<profile>/examples/wal_dump`, from this test's own path in
/// `target/<profile>/deps/`.
fn wal_dump(dir: &Path) -> Output {
    let mut bin = std::env::current_exe().unwrap();
    bin.pop();
    bin.pop();
    bin.push("examples");
    bin.push(format!("wal_dump{}", std::env::consts::EXE_SUFFIX));
    assert!(
        bin.exists(),
        "{} is not built: cargo build -p autotune-serve --example wal_dump",
        bin.display()
    );
    Command::new(bin).arg(dir).output().unwrap()
}

#[derive(Debug, Deserialize)]
struct Line {
    segment: u64,
    offset: u64,
    len: u64,
    record: IgnoredAny,
}

#[derive(Debug, Deserialize)]
struct ConfigLine {
    record: ConfigRecord,
}

#[derive(Debug, Deserialize)]
enum ConfigRecord {
    RouterConfig(RouterConfig),
}

fn lines(out: &Output) -> Vec<String> {
    let text = std::str::from_utf8(&out.stdout).unwrap();
    text.lines().map(str::to_string).collect()
}

fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|f| f.unwrap().path())
        .collect();
    files.sort();
    files
}

/// CRC-32 (IEEE), bit by bit: a record's header holds it.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Flips the lowest bit of the first float knob of the first suggestion
/// a dumped `Ticks` record holds, in the segment itself, and recomputes
/// the record's CRC. Returns the segment and its bytes before the lie.
fn lie_about_a_suggestion(dir: &Path, printed: &[String]) -> (PathBuf, Vec<u8>) {
    let (line, text) = printed
        .iter()
        .find_map(|text| {
            let at = text.find("{\"Wal\":{\"Ticks\":")?;
            let suggested = &text[at + text[at..].find("\"Suggested\":")?..];
            let float = &suggested[suggested.find("{\"Float\":")? + 9..];
            let line: Line = serde_json::from_str(text).unwrap();
            Some((line, float[..float.find('}')?].to_string()))
        })
        .expect("a dumped suggestion with a float knob");
    let knob: f64 = text.parse().unwrap();
    let path = dir.join(format!("wal-{:06}.seg", line.segment));
    let clean = std::fs::read(&path).unwrap();
    let mut lied = clean.clone();
    let (start, end) = (
        line.offset as usize + 8,
        (line.offset + 8 + line.len) as usize,
    );
    let payload = &mut lied[start..end];
    let mut encoded = vec![0xfb];
    encoded.extend_from_slice(&knob.to_be_bytes());
    let at = payload
        .windows(9)
        .position(|w| w == encoded)
        .expect("the knob as the record encodes it");
    payload[at + 8] ^= 1;
    let crc = crc32(payload);
    lied[start - 4..start].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &lied).unwrap();
    (path, clean)
}

#[test]
fn wal_dump_prints_one_parsable_line_per_record() {
    let dir = std::env::temp_dir().join(format!("autotune-wal-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The short durable run: misses that admit, a join, rounds, backfills
    // and hits, over segments small enough to rotate.
    let wal = WalConfig {
        segment_bytes: 8 * 1024,
    };
    let mut config = RouterConfig::default();
    config.cache.threshold = 1.0;
    let mut router = TenantRouter::create(&dir, 2, wal, config.clone()).unwrap();
    let tenants = [[0.0, 0.0], [6.0, 0.0], [0.2, 0.0]];
    for round in 0..2 {
        for (i, fp) in tenants.iter().enumerate() {
            let spec = CampaignSpec::minimal(format!("t{i}"), SystemKind::Redis, 6, i as u64);
            router.lookup(fp, &spec).unwrap();
        }
        if round == 0 {
            router.run_all().unwrap();
        }
    }
    drop(router);
    assert!(segments(&dir).len() > 2, "the run never rotated");

    let out = wal_dump(&dir);
    assert!(out.status.success(), "{out:?}");
    let printed = lines(&out);
    let mut expect = (0, 0);
    for (i, text) in printed.iter().enumerate() {
        let line: Line = serde_json::from_str(text).unwrap_or_else(|e| panic!("line {i}: {e}"));
        let IgnoredAny = line.record;
        if line.segment != expect.0 {
            expect = (line.segment, 0);
        }
        assert_eq!(
            line.offset,
            expect.1,
            "line {i} does not start where {} ended",
            i.max(1) - 1
        );
        expect.1 += 8 + line.len;
    }
    let first: ConfigLine = serde_json::from_str(&printed[0]).unwrap();
    let ConfigRecord::RouterConfig(pinned) = first.record;
    assert_eq!(pinned, config);
    for op in ["Lookup", "Admit", "Backfill"] {
        let tag = format!("{{\"RouterOp\":{{\"{op}\":");
        assert!(
            printed.iter().any(|l| l.contains(&tag)),
            "no {op} op was dumped"
        );
    }
    for record in ["Register", "Ticks"] {
        let tag = format!("{{\"Wal\":{{\"{record}\":");
        assert!(
            printed.iter().any(|l| l.contains(&tag)),
            "no {record} record was dumped"
        );
    }
    // The series the log packs into a byte string reads as numbers here.
    assert!(
        printed
            .iter()
            .any(|l| l.contains("\"telemetry\":[{\"cpu\":0.")),
        "no telemetry sample was spelled out"
    );

    // A record whose CRC fails, mid-log: the lines before it, then exit 1.
    let victim = segments(&dir).swap_remove(1);
    let clean = std::fs::read(&victim).unwrap();
    let mut corrupt = clean.clone();
    corrupt[clean.len() / 2] ^= 0x40;
    std::fs::write(&victim, &corrupt).unwrap();
    let out = wal_dump(&dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let name = victim.file_name().unwrap().to_str().unwrap();
    assert!(
        stderr.contains(name) && stderr.contains("offset"),
        "{stderr}"
    );
    assert!((1..printed.len()).contains(&lines(&out).len()));
    std::fs::write(&victim, &clean).unwrap();

    // A suggestion lied about, CRC and all: every record reads, but the
    // campaign's own optimizer would not have made it, so exit 1.
    let (victim, clean) = lie_about_a_suggestion(&dir, &printed);
    let out = wal_dump(&dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // The lie is a valid record: every line prints, one of them changed.
    let dumped = lines(&out);
    assert_eq!(dumped.len(), printed.len());
    assert_eq!(
        dumped.iter().zip(&printed).filter(|(a, b)| a != b).count(),
        1
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replay diverged"), "{stderr}");
    std::fs::write(&victim, &clean).unwrap();

    // Nothing above wrote to the log, and recovery reads what was dumped.
    let (_, report) = DurableRegistry::open(&dir, 2, wal).unwrap();
    assert_eq!(printed.len() as u64, report.records_read);
    assert_eq!(report.truncated_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
