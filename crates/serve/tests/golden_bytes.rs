//! The bytes on the wire and on disk, pinned. `tests/golden/wire_and_wal.hex`
//! holds, as hex, the frames of a benchmark-shaped `Lookup`, its
//! `CacheHit` and a `Stats` reply, every record of the WAL a short
//! durable router run writes (the pinned router config, `Register`,
//! `Ticks`, and the journaled `Lookup`/`Admit`/`Backfill` ops and the
//! `Hits` summary the drop leaves, inside their `Aux` records), and last
//! the `Snapshot` reply for the campaign, whose events are the ones its
//! `Ticks` records hold, byte for byte. The run
//! is re-done here and must produce those
//! bytes again; the fixture is then decoded and must print (`Debug`) as
//! the live values do. A change to the serde or CBOR stubs that moves a
//! byte, or reads one differently, fails here before it meets a log
//! written by an earlier build.
//!
//! Intentional format changes regenerate the fixture with
//! `UPDATE_GOLDEN=1 cargo test -p autotune-serve --test golden_bytes`.
//!
//! `tests/golden/pr21_events_segment.hex` is a segment of the format
//! before this one (an `Events` record of full `CampaignEvent`s): it
//! must be refused where it lies, and left as it is.

use autotune::SchedulePolicy;
use autotune_serve::{
    dump_wal, read_frame, write_frame, CampaignSpec, DurableRegistry, Request, Response,
    RouterConfig, ServeBackend, ServeError, ServerConfig, SystemKind, TenantRouter, WalConfig,
};
use std::fmt::Debug;
use std::path::{Path, PathBuf};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_and_wal.hex");
const PR21_SEGMENT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/pr21_events_segment.hex"
);

/// One pinned byte string: what it is, the bytes, and how the value
/// they decode to prints.
struct Entry {
    what: String,
    bytes: Vec<u8>,
    debug: String,
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autotune-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn frame<T: serde::Serialize + Debug>(what: &str, msg: &T) -> Entry {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, msg).unwrap();
    Entry {
        what: format!("frame: {what}"),
        bytes,
        debug: format!("{msg:?}"),
    }
}

/// The one segment file of the log in `dir`.
fn only_segment(dir: &Path) -> PathBuf {
    let mut files = std::fs::read_dir(dir).unwrap().map(|f| f.unwrap().path());
    let (Some(segment), None) = (files.next(), files.next()) else {
        panic!("the run rotated its log");
    };
    segment
}

/// The records of the one-segment log in `dir`, each with the bytes it
/// occupies (8 header bytes and the payload).
fn wal_entries(dir: &Path) -> Vec<Entry> {
    let log = std::fs::read(only_segment(dir)).unwrap();
    let mut entries = Vec::new();
    dump_wal(dir, |line| {
        let (at, len) = (line.offset as usize, line.len as usize);
        let debug = format!("{line:?}");
        // `Wal(Register {`, `RouterOp(Lookup {`, ...: the record's kind.
        let kind = debug.split_once("record: ").unwrap().1;
        let kind = kind.split([' ', '{']).next().unwrap();
        entries.push(Entry {
            what: format!("WAL record at byte {at}: {kind}, {len} payload bytes"),
            bytes: log[at..at + 8 + len].to_vec(),
            debug,
        });
        Ok(())
    })
    .unwrap();
    assert_eq!(
        entries.iter().map(|e| e.bytes.len()).sum::<usize>(),
        log.len()
    );
    entries
}

/// The run behind the fixture: the benchmark's tenant (a 12-feature
/// fingerprint and its own random-search Redis campaign, here two
/// trials in one batch, so one `Ticks` record) misses, is tuned, and
/// hits, which the log hears of when the router is dropped. Returns the
/// entries and the name of the log's segment file.
fn live() -> (Vec<Entry>, PathBuf) {
    let dir = temp_dir("live");
    let mut router =
        TenantRouter::create(&dir, 2, WalConfig::default(), RouterConfig::default()).unwrap();
    let mut tenant = CampaignSpec::minimal("tenant-217", SystemKind::Redis, 2, 35_007);
    tenant.workload = autotune_sim::Workload::kv_cache(50_000.0 * 1.0173);
    tenant.policy = SchedulePolicy::SyncBatch { k: 2 };
    let request = Request::Lookup {
        features: (0..12).map(|i| 9.87 * i as f64 - 31.4).collect(),
        spec: tenant,
    };
    let config = ServerConfig::default();
    let miss = router.handle_request(request.clone(), &config).unwrap();
    let Response::CacheMiss { campaign, .. } = miss else {
        panic!("expected a miss, got {miss:?}");
    };
    router.run_all().unwrap();
    let hit = router.handle_request(request.clone(), &config).unwrap();
    assert!(matches!(hit, Response::CacheHit { .. }), "{hit:?}");
    let stats = Response::Stats {
        stats: router.registry().stats(campaign).unwrap(),
    };
    // The router's campaigns keep no logged event: its snapshot reads
    // the WAL back.
    let snapshot = router
        .handle_request(Request::Snapshot { id: campaign }, &config)
        .unwrap();
    assert!(
        matches!(snapshot, Response::Snapshot { .. }),
        "{snapshot:?}"
    );
    drop(router);
    let segment = only_segment(&dir);
    let mut entries = vec![
        frame("Request::Lookup, the benchmark's shape", &request),
        frame("Response::CacheHit answering it", &hit),
        frame("Response::Stats of the campaign that tuned it", &stats),
    ];
    entries.extend(wal_entries(&dir));
    entries.push(frame("Response::Snapshot of that campaign", &snapshot));
    std::fs::remove_dir_all(&dir).unwrap();
    (entries, segment.file_name().unwrap().into())
}

fn to_hex(entries: &[Entry]) -> String {
    let mut out = String::from(
        "# Written by tests/golden_bytes.rs (UPDATE_GOLDEN=1). One entry per\n\
         # paragraph: a comment, then the bytes as hex.\n",
    );
    for entry in entries {
        out.push_str(&format!("\n# {}\n", entry.what));
        for line in entry.bytes.chunks(48) {
            out.extend(line.iter().map(|b| format!("{b:02x}")));
            out.push('\n');
        }
    }
    out
}

fn from_hex(text: &str) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = Vec::new();
    // The header lines end at the first blank line.
    for paragraph in text.split("\n\n").skip(1) {
        let (what, hex) = paragraph.split_once('\n').unwrap();
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        let bytes = digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect();
        entries.push((what.trim_start_matches("# ").to_string(), bytes));
    }
    entries
}

#[test]
fn wire_and_wal_bytes_match_the_fixture() {
    let (live, segment) = live();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, to_hex(&live)).unwrap();
    }
    let golden = from_hex(&std::fs::read_to_string(FIXTURE).unwrap());
    assert_eq!(golden.len(), live.len(), "entry count");
    let kinds: String = golden.iter().map(|(what, _)| what.as_str()).collect();
    for kind in [
        "Request::Lookup",
        "Response::CacheHit",
        "Response::Stats",
        "Wal(Register",
        "Wal(Ticks",
        "RouterConfig(",
        "RouterOp(Lookup",
        "RouterOp(Admit",
        "RouterOp(Backfill",
        "RouterOp(Hits",
        "Response::Snapshot",
    ] {
        assert!(kinds.contains(kind), "the fixture holds no {kind}");
    }

    // Encoding: today's bytes are the fixture's.
    for ((what, golden), live) in golden.iter().zip(&live) {
        assert_eq!(what, &live.what);
        assert!(
            golden == &live.bytes,
            "{what}: encoded bytes differ from the fixture"
        );
    }

    // Decoding: the fixture's bytes read back as the live values.
    let mut r = &golden[0].1[..];
    let request: Request = read_frame(&mut r).unwrap().unwrap();
    assert_eq!(format!("{request:?}"), live[0].debug);
    let wal = 3..golden.len() - 1;
    let responses = [1, 2, wal.end];
    for (golden, live) in responses.map(|i| (&golden[i], &live[i])) {
        let response: Response = read_frame(&mut &golden.1[..]).unwrap().unwrap();
        assert_eq!(format!("{response:?}"), live.debug);
    }
    let dir = temp_dir("fixture");
    std::fs::create_dir_all(&dir).unwrap();
    let log: Vec<u8> = golden[wal.clone()]
        .iter()
        .flat_map(|e| e.1.clone())
        .collect();
    std::fs::write(dir.join(segment), log).unwrap();
    let mut decoded = Vec::new();
    dump_wal(&dir, |line| {
        decoded.push(format!("{line:?}"));
        Ok(())
    })
    .unwrap();
    let want: Vec<&str> = live[wal].iter().map(|e| e.debug.as_str()).collect();
    assert_eq!(decoded, want);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_log_of_the_previous_format_is_refused_where_it_lies() {
    let records = from_hex(&std::fs::read_to_string(PR21_SEGMENT).unwrap());
    let [(_, register), (what, events)] = &records[..] else {
        panic!("the fixture holds {} records", records.len());
    };
    assert!(what.contains("Wal(Events"), "{what}");
    let dir = temp_dir("pr21");
    std::fs::create_dir_all(&dir).unwrap();
    let segment = dir.join("wal-000001.seg");
    let log = [&register[..], &events[..]].concat();
    std::fs::write(&segment, &log).unwrap();
    // The `Register` before it still reads; the `Events` record's length
    // and CRC hold, so it is no torn tail to cut off.
    let mut dumped = 0;
    let refusals = [
        dump_wal(&dir, |_| {
            dumped += 1;
            Ok(())
        })
        .map(|_| ()),
        DurableRegistry::open(&dir, 1, WalConfig::default()).map(|_| ()),
    ];
    assert_eq!(dumped, 1);
    for refusal in refusals {
        let Err(ServeError::Storage(why)) = refusal else {
            panic!("not refused with a storage error: {refusal:?}");
        };
        let at = format!("offset {}", register.len());
        assert!(
            why.contains("wal-000001.seg") && why.contains(&at) && why.contains("Events"),
            "{why}"
        );
    }
    let mut files = std::fs::read_dir(&dir).unwrap();
    assert!(files.next().is_some() && files.next().is_none());
    assert_eq!(std::fs::read(&segment).unwrap(), log, "a byte was touched");
    std::fs::remove_dir_all(&dir).unwrap();
}
