//! The second fence around a served hit, beside the byte budgets of
//! `a_served_hit_stays_within_its_byte_budgets`: how many allocations
//! it costs. Finding it costs none: a warmed `ShardedCache` hands out a
//! clone of the entry's `Config`, exact or borrowed, which shares the
//! entry's map (a reference count, no copy), and the router moves that
//! clone into its `Response::CacheHit`. Decoding goes straight into the
//! message type and encoding straight out of it, so a frame that fits
//! the decoder's stack buffer costs what the message itself owns, and
//! writing a message into a buffer with room costs nothing. A codec
//! that builds a value tree on the way (one node per value, one
//! `String` per map key; 41 allocations for this `Lookup`) is several
//! times over these counts. The meter also counts the tuning path:
//! cloning a config allocates nothing, and a trial of a random-search
//! fleet stays within a per-trial count, running and reopened.
//!
//! The same meter then holds hostile input to a bound in bytes: the
//! hostile suite of `third_party/ciborium/tests/typed.rs` once more, with
//! `Request`, `Response` and the WAL's record type as what is decoded,
//! each carrying a field its type does not have, through `read_frame`
//! and through a CRC-valid record on disk. And each honest one laid out
//! again (`third_party/ciborium/tests/common/relay.rs`) decodes to what
//! the general path, no shortcut taken, makes of the same document.

use autotune_cache::{CacheConfig, CacheLookup, ShardedCache};
use autotune_serve::{
    dump_wal, read_frame, write_frame, CampaignSpec, DurableRegistry, Request, Response,
    RouterConfig, RouterLookup, ServeBackend, ServeError, ServerConfig, SystemKind, TenantRouter,
    WalConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

#[path = "../../../third_party/ciborium/tests/common/relay.rs"]
mod relay;

/// Counts the current thread's allocations (`realloc` included) and the
/// bytes it holds, so the tests can run beside each other.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// One `alloc` (nothing freed), `dealloc` (nothing taken) or `realloc`.
fn account(freed: usize, taken: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    if taken > 0 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        let now = live.get().saturating_sub(freed) + taken;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocation.
// (A test's allocator: the crate denies `unsafe_code` everywhere else.)
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(0, layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(layout.size(), 0);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(layout.size(), new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the most bytes it held at once.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// `protocol::ENCODE_RESERVE`: what `write_frame` and the journal
/// reserve before they encode.
const ENCODE_RESERVE: usize = 1024;

/// The benchmark's request (`benchmark/src/gen.rs`): a 12-feature
/// fingerprint and the tenant's own random-search Redis campaign.
fn lookup() -> Request {
    let mut tenant = CampaignSpec::minimal("tenant-217", SystemKind::Redis, 8, 35_007);
    tenant.workload = autotune_sim::Workload::kv_cache(50_000.0 * 1.0173);
    Request::Lookup {
        features: (0..12).map(|i| 9.87 * i as f64 - 31.4).collect(),
        spec: tenant,
    }
}

/// The reply to it: the best of a short run of that campaign.
fn cache_hit() -> Response {
    let Request::Lookup { spec, .. } = lookup() else {
        unreachable!()
    };
    let mut campaign = spec.build();
    campaign.run();
    let best = campaign.storage().best().unwrap();
    Response::CacheHit {
        family: 3,
        config: best.config.clone(),
        cost: best.cost,
        borrowed: false,
    }
}

fn framed<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, msg).unwrap();
    frame
}

#[test]
fn the_allocation_counter_counts() {
    let (v, n) = allocations_during(|| {
        let mut v = vec![0u8; 16];
        v.reserve(4096);
        v
    });
    assert_eq!(n, 2);
    drop(v);
}

#[test]
fn decoding_a_lookup_allocates_what_a_request_owns() {
    let frame = framed(&lookup());
    let (request, n) = allocations_during(|| read_frame::<Request>(&mut &frame[..]));
    assert!(matches!(request, Ok(Some(Request::Lookup { .. }))));
    // The features and the spec's name: no key or name is allocated.
    assert_eq!(n, 2, "decoding a Lookup frame made {n} allocations");
}

#[test]
fn decoding_a_cache_hit_allocates_what_a_config_owns() {
    let hit = cache_hit();
    let Response::CacheHit { config, .. } = &hit else {
        unreachable!()
    };
    let knobs = config.len();
    let frame = framed(&hit);
    let (response, n) = allocations_during(|| read_frame::<Response>(&mut &frame[..]));
    assert!(matches!(response, Ok(Some(Response::CacheHit { .. }))));
    // Today 6: the `Arc`, the map's node, a key per knob, a
    // categorical's value.
    assert!(
        n <= 6,
        "decoding a CacheHit frame ({knobs} knobs) made {n} allocations"
    );
}

/// The benchmark's tenant fingerprint, and a sibling in its family.
fn features() -> (Vec<f64>, Vec<f64>) {
    let Request::Lookup { features, .. } = lookup() else {
        unreachable!()
    };
    let mut sibling = features.clone();
    sibling[0] += 0.25;
    (features, sibling)
}

#[test]
fn a_hit_on_a_warmed_cache_allocates_nothing() {
    let (tenant, sibling) = features();
    let cache = ShardedCache::new(CacheConfig::default());
    let family = cache.admit_family(&tenant).family;
    let Response::CacheHit { config, cost, .. } = cache_hit() else {
        unreachable!()
    };
    cache.insert(family, &tenant, config, cost);
    for (features, borrowed) in [(&tenant, false), (&sibling, true)] {
        // The first lookup warms whatever the thread sets up lazily.
        cache.lookup(features);
        let (hit, n) = allocations_during(|| cache.lookup(features));
        let CacheLookup::Hit(hit) = hit else {
            panic!("expected a hit, got {hit:?}")
        };
        assert_eq!(hit.borrowed, borrowed);
        assert_eq!(n, 0, "a hit (borrowed: {borrowed}) made {n} allocations");
    }
}

#[test]
fn a_hit_through_the_router_allocates_nothing_and_shares_the_entrys_config() {
    let dir = temp_dir("router-hit");
    let mut router =
        TenantRouter::create(&dir, 1, WalConfig::default(), RouterConfig::default()).unwrap();
    let request = lookup();
    let Request::Lookup { features, spec } = &request else {
        unreachable!()
    };
    assert!(matches!(
        router.lookup(features, spec),
        Ok(RouterLookup::Miss { .. })
    ));
    router.run_all().unwrap();
    router.lookup(features, spec).unwrap();
    let (hit, n) = allocations_during(|| router.lookup(features, spec));
    assert!(matches!(hit, Ok(RouterLookup::Hit(_))), "{hit:?}");
    assert_eq!(
        n, 0,
        "a hit through TenantRouter::lookup made {n} allocations"
    );
    // What the server encodes is the entry's config, not a copy of it.
    let config = ServerConfig::default();
    let mut served = || match router.handle_request(request.clone(), &config) {
        Ok(Response::CacheHit { config, .. }) => config,
        other => panic!("expected a hit, got {other:?}"),
    };
    let (first, second) = (served(), served());
    assert!(first.shares(&second));
    drop(router);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cloning_a_config_allocates_nothing() {
    let Response::CacheHit { config, .. } = cache_hit() else {
        unreachable!()
    };
    let (copy, n) = allocations_during(|| config.clone());
    assert!(copy.shares(&config));
    assert_eq!(n, 0, "cloning a cache hit's config made {n} allocations");
    let request = autotune::TrialRequest::new(config);
    let (copy, n) = allocations_during(|| request.clone());
    assert!(copy.config.shares(&request.config));
    assert_eq!(n, 0, "cloning a TrialRequest made {n} allocations");
}

/// `tune_fleet`'s shape (`benchmark/src/tune.rs`) with fewer campaigns:
/// random search (`CampaignSpec::minimal`'s), budget 32, each campaign's
/// own seed.
const FLEET: (usize, usize) = (16, 32);

/// Allocations per trial, running and reopening: 16.3 and 15.2 measured,
/// rounded up.
const RUNNING: f64 = 17.0;
const REOPENING: f64 = 16.0;

#[test]
fn a_random_fleet_trial_allocates_within_its_budget() {
    let (campaigns, budget) = FLEET;
    let dir = temp_dir("fleet");
    let mut router =
        TenantRouter::create(&dir, 2, WalConfig::default(), RouterConfig::default()).unwrap();
    let config = ServerConfig::default();
    let trials = (campaigns * budget) as f64;
    let (ran, n) = allocations_during(|| {
        for i in 0..campaigns {
            let spec = CampaignSpec::minimal(
                format!("random-{i}"),
                SystemKind::Redis,
                budget,
                1_000_003 + i as u64,
            );
            let request = Request::Register {
                spec,
                request_id: None,
            };
            router.handle_request(request, &config).unwrap();
        }
        router.run_all().unwrap();
        router.registry().fleet_stats()
    });
    assert_eq!(ran.n_suggested as f64, trials);
    let running = n as f64 / trials;
    drop(router);
    // A fleet without a model campaign reopens on the calling thread.
    let (reopened, n) =
        allocations_during(|| TenantRouter::open(&dir, 2, WalConfig::default()).unwrap());
    assert_eq!(reopened.0.registry().fleet_stats().n_done, campaigns);
    let reopening = n as f64 / trials;
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
    // A trial's config is shared by every list and log that holds it,
    // and a reopen decodes each record where it lies in the segment.
    // While each holder deep-copied the config (a map node and a name
    // per knob) and a record over 1 KiB was copied out of the segment
    // before it was decoded, a trial made 30.9 allocations running and
    // 36.2 reopening (30.2 and 36.1 at 64 campaigns).
    assert!(
        running <= RUNNING && reopening <= REOPENING,
        "a random-fleet trial made {running:.1} allocations running and {reopening:.1} reopening"
    );
}

#[test]
fn encoding_into_a_buffer_with_room_allocates_nothing() {
    let (request, reply) = (lookup(), cache_hit());
    let mut buffer = Vec::with_capacity(ENCODE_RESERVE);
    let ((), n) = allocations_during(|| ciborium::into_writer(&request, &mut buffer).unwrap());
    assert!(buffer.len() > 500 && buffer.capacity() == ENCODE_RESERVE);
    assert_eq!(n, 0, "encoding a Lookup");
    buffer.clear();
    let ((), n) = allocations_during(|| ciborium::into_writer(&reply, &mut buffer).unwrap());
    assert!(buffer.len() > 100 && buffer.capacity() == ENCODE_RESERVE);
    assert_eq!(n, 0, "encoding a CacheHit");
}

// ------------------------------------------------------------ hostile input

/// An encoded struct variant, `{"Name": {fields..}}`, with one more
/// field behind its own: `"zz"` holding `value`. Returns the bytes and
/// the offset `value` starts at.
fn with_unknown_field(message: &[u8], value: &[u8]) -> (Vec<u8>, usize) {
    let mut bytes = message.to_vec();
    assert_eq!(bytes[0], 0xa1, "a one-entry map");
    let fields = 2 + usize::from(bytes[1] - 0x60);
    assert!((0xa0..0xb7).contains(&bytes[fields]), "a short map head");
    bytes[fields] += 1;
    bytes.extend_from_slice(&[0x62, b'z', b'z']);
    let at = bytes.len();
    bytes.extend_from_slice(value);
    (bytes, at)
}

/// What the decoder may hold for `len` bytes of input: the heap copy of
/// a body past its stack buffer, and what the message type owns of it so
/// far, a `BTreeMap` node for a three-byte entry at the worst.
fn bound(len: usize) -> usize {
    256 * len + 4096
}

/// Reads `body` as one frame of `T` under the bound; `Ok` is how the
/// value prints.
fn read_bounded<T: serde::de::DeserializeOwned + std::fmt::Debug>(
    body: &[u8],
) -> Result<String, String> {
    let frame = [&(body.len() as u32).to_le_bytes()[..], body].concat();
    let (out, peak) = peak_during(|| read_frame::<T>(&mut &frame[..]));
    assert!(
        peak <= bound(body.len()),
        "a {}-byte body made read_frame hold {peak} bytes",
        body.len()
    );
    match out {
        Ok(Some(value)) => Ok(format!("{value:?}")),
        // A whole body that does not decode leaves the stream usable.
        Err(ServeError::Decode(why)) => Err(why),
        other => panic!("neither a value nor a decode error: {other:?}"),
    }
}

/// Values no message should survive holding, and what the refusal says.
fn hostile_values() -> Vec<(Vec<u8>, &'static str)> {
    let deep = [vec![0x81; 10_000], vec![0x00]].concat();
    let deep_maps = [[0xa1, 0x61, 0x6b].repeat(10_000), vec![0xf6]].concat();
    vec![
        (deep, "nesting deeper than"),
        (deep_maps, "nesting deeper than"),
        (vec![0x62, 0xc3, 0x28], "not UTF-8"),
        (vec![0x81, 0xa1, 0x62, 0xc3, 0x28, 0x01], "not UTF-8"),
        (
            vec![0x9b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
            "declared length",
        ),
        (vec![0x7a, 0xff, 0xff, 0xff, 0xff], "declared length"),
        (vec![0xb7, 0x61, 0x61], "declared length"),
        (vec![0x9f, 0x01, 0xff], "indefinite length"),
        (vec![0xc0, 0x60], "tags are not supported"),
        (vec![0xfb, 0x7f, 0xf8, 0, 0, 0, 0, 0, 0], "non-finite float"),
        (vec![0xf9, 0x3c, 0x00], "only 64-bit floats"),
        (vec![0xa1, 0x01, 0x02], "map key is not a text string"),
        (vec![0x00, 0x00], "trailing bytes"),
        (vec![], "malformed or truncated"),
    ]
}

fn body<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    framed(msg)[4..].to_vec()
}

fn hostile_frames_are_refused<T: serde::de::DeserializeOwned + std::fmt::Debug>(honest: &[u8]) {
    let relaid = relay::check(honest, read_bounded::<T>);
    assert!(relaid > 20, "{relaid} re-layings");
    // The extra field alone is skipped: the message is what it was.
    let (padded, _) = with_unknown_field(honest, &[0x82, 0xf6, 0xa1, 0x61, 0x6b, 0x60]);
    assert_eq!(read_bounded::<T>(&padded), read_bounded::<T>(honest));
    assert!(read_bounded::<T>(honest).is_ok());
    // Cut anywhere, it is an error, never a shorter message.
    for cut in 0..padded.len() {
        assert!(read_bounded::<T>(&padded[..cut]).is_err(), "cut at {cut}");
    }
    for (value, why) in hostile_values() {
        let (bytes, _) = with_unknown_field(honest, &value);
        let refusal = read_bounded::<T>(&bytes).expect_err("a hostile value was skipped");
        assert!(refusal.contains(why), "{why}: {refusal}");
    }
    // Overwritten bytes are a value or an error, never a panic.
    for at in 0..padded.len() {
        for byte in [0x00, 0x7f, 0x9b, 0xbb, 0xff] {
            let mut bytes = padded.clone();
            bytes[at] = byte;
            let _ = read_bounded::<T>(&bytes);
        }
    }
}

#[test]
fn hostile_frames_cost_no_more_than_their_bytes() {
    hostile_frames_are_refused::<Request>(&body(&lookup()));
    hostile_frames_are_refused::<Response>(&body(&cache_hit()));
    let stats = Response::Stats {
        stats: {
            let mut registry = autotune_serve::CampaignRegistry::new(1);
            let id = registry.register_spec(&CampaignSpec::minimal("s", SystemKind::Redis, 2, 1));
            registry.stats(id).unwrap()
        },
    };
    hostile_frames_are_refused::<Response>(&body(&stats));
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autotune-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// CRC-32 (IEEE 802.3), a bit at a time.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |c, &b| {
        (0..8).fold(c ^ u32::from(b), |c, _| {
            (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())
        })
    })
}

/// Reads a log holding the one record `payload` under the bound: the
/// record's kind, or why it does not decode.
fn dump_bounded(dir: &Path, segment: &str, payload: &[u8]) -> Result<String, String> {
    let header = [
        (payload.len() as u32).to_le_bytes(),
        crc32(payload).to_le_bytes(),
    ]
    .concat();
    std::fs::write(dir.join(segment), [&header[..], payload].concat()).unwrap();
    let mut seen = Vec::new();
    let (out, peak) = peak_during(|| {
        dump_wal(dir, |line| {
            // `Wal(Register { .. })` and so on: the record as it prints.
            let line = format!("{line:?}");
            seen.push(line.split_once("record: ").unwrap().1.to_string());
            Ok(())
        })
    });
    // `dump_wal` holds the file, the record and the line it prints from.
    assert!(
        peak <= bound(payload.len()) + 3 * payload.len(),
        "a {}-byte record made dump_wal hold {peak} bytes",
        payload.len()
    );
    match out {
        Ok(1) => Ok(seen.remove(0)),
        Err(ServeError::Storage(why)) => Err(why),
        other => panic!("neither one record nor a storage error: {other:?}"),
    }
}

#[test]
fn hostile_wal_records_cost_no_more_than_their_bytes() {
    // A short durable run, for one record of each kind the log holds.
    let dir = temp_dir("live");
    let mut durable = DurableRegistry::create(&dir, 1, WalConfig::default()).unwrap();
    let id = durable
        .register_spec(&CampaignSpec::minimal("w", SystemKind::Redis, 2, 9))
        .unwrap();
    durable.run_all().unwrap();
    durable.append_aux("notes", vec![1, 2, 3]).unwrap();
    durable.stop(id).unwrap();
    drop(durable);
    let mut files = std::fs::read_dir(&dir).unwrap().map(|f| f.unwrap().path());
    let (Some(path), None) = (files.next(), files.next()) else {
        panic!("the run rotated its log");
    };
    let segment = path.file_name().unwrap().to_str().unwrap().to_string();
    let log = std::fs::read(&path).unwrap();
    let mut records = Vec::new();
    dump_wal(&dir, |line| {
        let (at, len) = (line.offset as usize + 8, line.len as usize);
        records.push(log[at..at + len].to_vec());
        Ok(())
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = temp_dir("hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let mut kinds = Vec::new();
    for honest in &records {
        let kind = dump_bounded(&dir, &segment, honest).expect("an honest record");
        relay::check(honest, |bytes| dump_bounded(&dir, &segment, bytes));
        let (padded, _) = with_unknown_field(honest, &[0x82, 0xf6, 0xa1, 0x61, 0x6b, 0x60]);
        assert_eq!(dump_bounded(&dir, &segment, &padded), Ok(kind.clone()));
        kinds.push(
            kind.split([' ', '(', '{'])
                .nth(1)
                .unwrap_or_default()
                .to_string(),
        );
        // The CRC holds over every cut and every hostile value, so each
        // is refused by the decoder, not as a torn write.
        let step = (padded.len() / 200).max(1);
        for cut in (0..padded.len()).step_by(step) {
            let refusal = dump_bounded(&dir, &segment, &padded[..cut]).expect_err("a cut record");
            assert!(
                refusal.contains("undecodable record"),
                "cut at {cut}: {refusal}"
            );
        }
        for (value, why) in hostile_values() {
            let (bytes, _) = with_unknown_field(honest, &value);
            let refusal = dump_bounded(&dir, &segment, &bytes).expect_err("a hostile record");
            assert!(refusal.contains(why), "{why}: {refusal}");
        }
    }
    kinds.sort();
    kinds.dedup();
    assert_eq!(kinds, ["Aux", "Register", "Stop", "Ticks"]);
    std::fs::remove_dir_all(&dir).unwrap();
}
