//! The write-ahead log's bytes: where they live ([`Storage`]), how a
//! record is framed, and the CRC-32 that checks it. What the records
//! mean, and how a fleet is rebuilt from them, is `durability`'s.
//!
//! # Record format
//!
//! A WAL is a sequence of numbered segments (`wal-000001.seg`, …). Each
//! segment is a sequence of length-prefixed, CRC-checked records:
//!
//! ```text
//! ┌──────────┬──────────┬───────────────────┐
//! │ len: u32 │ crc: u32 │ payload (CBOR)    │   little-endian header,
//! └──────────┴──────────┴───────────────────┘   crc32(payload)
//! ```
//!
//! # The storage seam
//!
//! Everything the WAL asks of its device goes through one [`Storage`]:
//! list the segments, stream one, cut a torn tail off one, open the
//! next, and append to the open one. There are two devices.
//! [`SegmentFiles`], over one directory, is the one a deployment runs on:
//! its bytes outlive the process. [`MemStorage`] holds the segments in
//! memory, for whatever needs a log but not a disk (the tests that do not
//! test files, and the experiments): its handles share the segments, so
//! one kept across a kill reads what landed and reopens it, and it counts
//! what it was asked to do. Both number, cut and append alike, so a log
//! is the same bytes on either.
//!
//! A segment is read as a stream, one record at a time ([`Records`]):
//! through a window of the smaller of [`WINDOW`] and the segment, grown
//! only for a record larger than that, each record checked and handed
//! over where it lies in it. So a reader holds the largest record plus
//! one window, never the segment.
//!
//! An append hands over whole records, back to back, and they land in
//! order; one that fails has left an unknown prefix of its bytes, so its
//! handle writes nothing more. So the log is append-only, and what a
//! killed process leaves is a prefix of it: [`MemStorage::crash_after`]
//! leaves one, the one crash model the tests and the experiments use. An
//! append returns once the operating system has the bytes; the
//! `sync_data` that would take them to the device belongs in `append`,
//! and the directory sync a new segment needs in `open_next`.

use autotune::sync::PoisonFreeMutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// What the WAL asks of the device it lives on. A segment is read as a
/// stream, front to back ([`Records`] walks it), never loaded whole.
pub(crate) trait Storage: Send {
    /// The numbers of the segments there are, ascending.
    fn segments(&self) -> io::Result<Vec<u64>>;

    /// Segment `n`'s length and its bytes as a stream, front to back.
    fn read(&self, n: u64) -> io::Result<(u64, Box<dyn Read>)>;

    /// Cuts segment `n` to its first `len` bytes.
    fn cut(&mut self, n: u64, len: u64) -> io::Result<()>;

    /// Opens the segment after the last one, created empty; appends go
    /// to it from now on.
    fn open_next(&mut self) -> io::Result<()>;

    /// Appends `records`, whole records back to back, to the open
    /// segment. On `Err` an unknown prefix of them has landed.
    fn append(&mut self, records: &[u8]) -> io::Result<()>;
}

/// The segments as files `wal-<n>.seg` in one directory, appended to in
/// one `write_all` a call.
pub(crate) struct SegmentFiles {
    dir: PathBuf,
    /// The segment appends go to, and its number.
    open: Option<(u64, File)>,
}

impl SegmentFiles {
    /// The segments in `dir`, which need not exist until one is opened.
    pub(crate) fn new(dir: PathBuf) -> Self {
        SegmentFiles { dir, open: None }
    }
}

/// The file name of segment `n`.
pub(crate) fn segment_name(n: u64) -> String {
    format!("wal-{n:06}.seg")
}

impl Storage for SegmentFiles {
    fn segments(&self) -> io::Result<Vec<u64>> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for entry in entries {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let number = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".seg"));
            if let Some(n) = number.and_then(|n| n.parse::<u64>().ok()) {
                out.push(n);
            }
        }
        out.sort();
        Ok(out)
    }

    fn read(&self, n: u64) -> io::Result<(u64, Box<dyn Read>)> {
        let file = File::open(self.dir.join(segment_name(n)))?;
        Ok((file.metadata()?.len(), Box::new(file)))
    }

    fn cut(&mut self, n: u64, len: u64) -> io::Result<()> {
        let path = self.dir.join(segment_name(n));
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn open_next(&mut self) -> io::Result<()> {
        let next = match &self.open {
            Some((n, _)) => n + 1,
            None => {
                std::fs::create_dir_all(&self.dir)?;
                self.segments()?.last().map_or(1, |n| n + 1)
            }
        };
        let path = self.dir.join(segment_name(next));
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        self.open = Some((next, file));
        Ok(())
    }

    fn append(&mut self, records: &[u8]) -> io::Result<()> {
        match &mut self.open {
            Some((_, file)) => file.write_all(records),
            None => Err(io::Error::other("no WAL segment is open")),
        }
    }
}

/// The WAL's segments in memory, numbered, cut and appended to as the
/// segment files of a WAL directory are, so a log holds the same bytes
/// here as there. A handle is cheap to clone, and every clone shares
/// the segments: keep one across a kill and the reopen after it, and
/// read from it what landed ([`MemStorage::contents`]) and what the WAL
/// asked of the device (the counters).
///
/// ```
/// use autotune_serve::{CampaignSpec, DurableRegistry, MemStorage, SystemKind, WalConfig};
///
/// let wal = MemStorage::default();
/// let mut durable = DurableRegistry::create_in(&wal, 1, WalConfig::default()).unwrap();
/// durable.register_spec(&CampaignSpec::minimal("t", SystemKind::Redis, 4, 7)).unwrap();
/// drop(durable); // a kill: nothing more lands
/// let (_, report) = DurableRegistry::open_in(&wal, 1, WalConfig::default()).unwrap();
/// assert_eq!((report.campaigns, wal.segments_opened()), (1, 2));
/// ```
#[derive(Clone, Default)]
pub struct MemStorage {
    shared: Arc<Mutex<MemSegments>>,
    /// The segment this handle appends to.
    open: Option<u64>,
}

/// What every clone of a [`MemStorage`] shares.
#[derive(Default)]
struct MemSegments {
    segments: BTreeMap<u64, Vec<u8>>,
    appends: u64,
    appended_bytes: u64,
    opened: u64,
}

impl MemStorage {
    /// Every segment: its number and its bytes, ascending.
    pub fn contents(&self) -> Vec<(u64, Vec<u8>)> {
        let shared = self.shared.plock();
        shared
            .segments
            .iter()
            .map(|(n, b)| (*n, b.clone()))
            .collect()
    }

    /// Appends made: one a call, whatever it held.
    pub fn appends(&self) -> u64 {
        self.shared.plock().appends
    }

    /// Bytes appended, over every append.
    pub fn appended_bytes(&self) -> u64 {
        self.shared.plock().appended_bytes
    }

    /// Segments opened for appending.
    pub fn segments_opened(&self) -> u64 {
        self.shared.plock().opened
    }

    /// Leaves the state a process killed once the log's first `bytes`
    /// bytes had landed leaves, the log read as one stream, segment after
    /// segment: the segments before the one those bytes end in stay
    /// whole, that one is cut after them, and every later one is gone. A
    /// log no longer than `bytes` stays as it is. When `bytes` ends a
    /// segment, the next one is gone too, as a kill before it was opened
    /// leaves it; a kill just after leaves it empty, which opening the
    /// next segment on the device then gives. Call it with no handle
    /// appending to the device: a killed process has none.
    pub fn crash_after(&self, bytes: u64) {
        // The bytes still to keep; `None` once the cut is made.
        let mut left = Some(bytes);
        self.shared.plock().segments.retain(|_, segment| {
            let Some(keep) = left else { return false };
            let len = segment.len() as u64;
            if keep <= len {
                segment.truncate(keep as usize);
                left = None;
            } else {
                left = Some(keep - len);
            }
            true
        });
    }
}

fn no_segment(n: u64) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, segment_name(n))
}

impl Storage for MemStorage {
    fn segments(&self) -> io::Result<Vec<u64>> {
        Ok(self.shared.plock().segments.keys().copied().collect())
    }

    fn read(&self, n: u64) -> io::Result<(u64, Box<dyn Read>)> {
        let len = self
            .shared
            .plock()
            .segments
            .get(&n)
            .ok_or_else(|| no_segment(n))?
            .len();
        let reader = MemReader {
            shared: Arc::clone(&self.shared),
            n,
            at: 0,
        };
        Ok((len as u64, Box::new(reader)))
    }

    fn cut(&mut self, n: u64, len: u64) -> io::Result<()> {
        let mut shared = self.shared.plock();
        let segment = shared.segments.get_mut(&n).ok_or_else(|| no_segment(n))?;
        segment.truncate(len as usize);
        Ok(())
    }

    fn open_next(&mut self) -> io::Result<()> {
        let mut shared = self.shared.plock();
        let last = || shared.segments.keys().next_back().copied().unwrap_or(0);
        let next = self.open.unwrap_or_else(last) + 1;
        shared.segments.entry(next).or_default();
        shared.opened += 1;
        self.open = Some(next);
        Ok(())
    }

    fn append(&mut self, records: &[u8]) -> io::Result<()> {
        let n = self
            .open
            .ok_or_else(|| io::Error::other("no WAL segment is open"))?;
        let mut shared = self.shared.plock();
        shared
            .segments
            .entry(n)
            .or_default()
            .extend_from_slice(records);
        shared.appends += 1;
        shared.appended_bytes += records.len() as u64;
        Ok(())
    }
}

/// A [`MemStorage`] segment as a stream: each read copies out the bytes
/// from where the last one stopped.
struct MemReader {
    shared: Arc<Mutex<MemSegments>>,
    n: u64,
    at: usize,
}

impl Read for MemReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let shared = self.shared.plock();
        let rest = shared
            .segments
            .get(&self.n)
            .and_then(|segment| segment.get(self.at..))
            .unwrap_or_default();
        let len = rest.len().min(buf.len());
        buf[..len].copy_from_slice(&rest[..len]);
        self.at += len;
        Ok(len)
    }
}

/// Appends to `out` one record as it lies on disk: the payload is
/// encoded behind a placeholder header and the header patched, so records
/// encoded back to back are written as one buffer. On `Err` (why the
/// record did not encode), `out` is left as it was.
pub(crate) fn encode_record(record: &impl Serialize, out: &mut Vec<u8>) -> Result<(), String> {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    let encoded = ciborium::into_writer(record, &mut *out).map_err(|e| e.to_string());
    let len = encoded
        .and_then(|()| u32::try_from(out.len() - start - 8).map_err(|_| "over 4 GiB".to_string()));
    let len = len
        .map_err(|why| format!("WAL record did not encode: {why}"))
        .inspect_err(|_| out.truncate(start))?;
    let (header, payload) = out[start..].split_at_mut(8);
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// The header `bytes` start with: the record's length, its own 8 bytes
/// included, and the payload's CRC. `None` when they hold no whole one.
fn header(bytes: &[u8]) -> Option<(usize, u32)> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
    let crc = u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?);
    Some(((len as usize).checked_add(8)?, crc))
}

/// What a segment is read through: the window holds this much of it, or
/// the whole segment when it is smaller.
pub(crate) const WINDOW: usize = 64 * 1024;

/// A segment's records, read from its stream front to back through one
/// buffer. The buffer is the smaller of [`WINDOW`] and the segment,
/// grown only to hold a record larger than that; a record is checked
/// and handed over where it lies in it, and the part of one that the
/// window cut is carried to the front before the next read.
pub(crate) struct Records {
    bytes: Box<dyn Read>,
    /// The segment's length.
    len: u64,
    buf: Vec<u8>,
    /// `buf[start..end]` are the segment's bytes from [`Records::at`] on
    /// that have been read and not yet handed over.
    start: usize,
    end: usize,
    /// Where in the segment `buf[start]` lies.
    at: u64,
}

impl Records {
    /// The records of a segment `len` bytes long, read from `bytes`.
    pub(crate) fn new((len, bytes): (u64, Box<dyn Read>)) -> Self {
        let window = len.min(WINDOW as u64) as usize;
        Records {
            bytes,
            len,
            buf: vec![0; window],
            start: 0,
            end: 0,
            at: 0,
        }
    }

    /// How many of the segment's bytes follow [`Records::at`].
    pub(crate) fn rest(&self) -> u64 {
        self.len - self.at
    }

    /// The offset in the segment at which the next record starts: once
    /// [`Records::next_record`] returned `None`, the segment's clean
    /// length.
    pub(crate) fn at(&self) -> u64 {
        self.at
    }

    /// The next record's payload. `None` when the bytes from
    /// [`Records::at`] on are not a whole record whose CRC holds, which
    /// is the clean end of the segment when `at` is its length and a torn
    /// tail otherwise.
    pub(crate) fn next_record(&mut self) -> io::Result<Option<&[u8]>> {
        if !self.fill(8)? {
            return Ok(None);
        }
        let Some((len, crc)) = header(&self.buf[self.start..self.end]) else {
            return Ok(None);
        };
        // A length past the segment's end is a torn header, not a read
        // to make.
        if len as u64 > self.len.saturating_sub(self.at) || !self.fill(len)? {
            return Ok(None);
        }
        let payload = self.start + 8..self.start + len;
        if crc32(&self.buf[payload.clone()]) != crc {
            return Ok(None);
        }
        self.start += len;
        self.at += len as u64;
        Ok(Some(&self.buf[payload]))
    }

    /// Reads until `need` bytes from [`Records::at`] on are in the
    /// buffer; `false` when the stream ends first.
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        if self.end - self.start >= need {
            return Ok(true);
        }
        // The part of the record already read goes to the front.
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
        while self.end < need {
            match self.bytes.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// The slicing-by-8 tables: `[0]` is the bytewise table, and `[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table
/// lookups advance the CRC over eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

fn crc32_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// Advances the CRC register `c` over `bytes`, eight bytes a step
/// (slicing-by-8).
fn slice8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    chunks.remainder().iter().fold(c, |c, &b| crc32_step(c, b))
}

/// [`crc32`] by the tables alone: the path of a CPU without carry-less
/// multiply.
fn crc32_slice8(bytes: &[u8]) -> u32 {
    !slice8(!0, bytes)
}

/// [`crc32`] by carry-less multiply, where the CPU has it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn crc32_clmul(bytes: &[u8]) -> Option<u32> {
    if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
        return None;
    }
    // SAFETY: `clmul::crc32` needs PCLMULQDQ and SSE4.1, and this CPU was
    // just found to have both.
    Some(unsafe { clmul::crc32(bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn crc32_clmul(_: &[u8]) -> Option<u32> {
    None
}

/// CRC-32 (IEEE 802.3), the WAL's record integrity check, on write and
/// on read. On an x86-64 CPU with PCLMULQDQ and SSE4.1 it folds 64 bytes a
/// step by carry-less multiply ([`clmul`]); elsewhere, for an input under
/// 64 bytes and for the tail under 16, it runs the slicing-by-8 tables.
/// Both compute the same value, so a log reads the same on either.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_clmul(bytes).unwrap_or_else(|| crc32_slice8(bytes))
}

/// CRC-32 by folding with carry-less multiply, after Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Gopal et al., 2009), bit-reflected, with the IEEE constants the Linux
/// kernel's `crc32-pclmul` uses. Four 128-bit lanes fold 64 bytes a step;
/// the lanes fold into one, 16 bytes a step; one Barrett reduction takes
/// the 128 bits left to the 32-bit register, and the tables finish the
/// tail.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Bit-reflected, as the reflected CRC wants them; the fold constants
    // K1-K5 are also shifted left one bit.
    /// x^(4·128+32) and x^(4·128-32) mod P: one fold across four lanes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128-32) mod P: one fold across a lane.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P and floor(x^64 / P): the Barrett reduction.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// A 16-byte block as `_mm_loadu_si128` reads it.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let word = |at: usize| {
            let mut le = [0; 8];
            le.copy_from_slice(&block[at..at + 8]);
            i64::from_le_bytes(le)
        };
        _mm_set_epi64x(word(8), word(0))
    }

    /// `acc` carried 128 bits (the distance `k` holds) further and added
    /// to `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::crc32_slice8(bytes);
        }
        let (head, rest) = bytes.split_at(64);
        let mut lanes = [0, 16, 32, 48].map(|at| load(&head[at..at + 16]));
        // The register starts at all ones, over the first four bytes.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(-1));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(64);
        for quad in &mut quads {
            for (lane, block) in lanes.iter_mut().zip(quad.chunks_exact(16)) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [a, b, c, d] = lanes;
        let mut x = fold(fold(fold(a, b, k3k4), c, k3k4), d, k3k4);
        let mut blocks = quads.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold(x, load(block), k3k4);
        }
        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·mu, T2 = (T1 mod x^32)·P, and the
        // register is the upper half of R + T2 (the bits are reflected).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        !super::slice8(c, blocks.remainder())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A scratch directory for a test of files, removed when it is
    /// dropped, by a panic too.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A fresh scratch directory, not yet created, named after `tag`.
    pub(crate) fn temp_dir(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("autotune-wal-{}-{tag}-{n}", std::process::id());
        let dir = TempDir(std::env::temp_dir().join(name));
        let _ = std::fs::remove_dir_all(dir.path());
        dir
    }

    /// The record that starts at byte `at` of a segment's `bytes`, as a
    /// reader that loads the whole segment finds it: its payload and where
    /// it ends. `None` when the bytes from `at` on are not a whole record
    /// whose CRC holds, which is the clean end of the segment when `at` is
    /// its length and a torn tail otherwise.
    pub(crate) fn record_at(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
        let (len, crc) = header(bytes.get(at..)?)?;
        let end = at.checked_add(len)?;
        let payload = bytes.get(at + 8..end)?;
        (crc32(payload) == crc).then_some((payload, end))
    }

    impl MemStorage {
        /// Makes `segments` the device's whole log, as a test that tears
        /// or rewrites one by hand needs.
        pub(crate) fn set_contents(&self, segments: Vec<(u64, Vec<u8>)>) {
            self.shared.plock().segments = segments.into_iter().collect();
        }
    }

    /// Every segment `storage` holds: its number and its bytes.
    fn read_all(storage: &dyn Storage) -> Vec<(u64, Vec<u8>)> {
        let read = |n| {
            let (len, mut bytes) = storage.read(n).unwrap();
            let mut out = Vec::new();
            bytes.read_to_end(&mut out).unwrap();
            assert_eq!(out.len() as u64, len, "segment {n}'s length");
            (n, out)
        };
        storage.segments().unwrap().into_iter().map(read).collect()
    }

    #[test]
    fn the_device_numbers_cuts_and_appends_as_the_files_do() {
        let dir = temp_dir("storage");
        let wal = MemStorage::default();
        let mut devices: [Box<dyn Storage>; 2] = [
            Box::new(SegmentFiles::new(dir.path().into())),
            Box::new(wal.clone()),
        ];
        for device in &mut devices {
            assert!(device.segments().unwrap().is_empty());
            assert!(
                device.append(b"x").is_err(),
                "an append with no segment open"
            );
            device.open_next().unwrap();
            device.append(b"one").unwrap();
            device.append(b"two").unwrap();
            device.open_next().unwrap();
            device.open_next().unwrap();
            device.append(b"three").unwrap();
            device.cut(1, 4).unwrap();
            assert!(device.cut(9, 0).is_err(), "a cut of no segment");
            assert!(device.read(9).is_err(), "a read of no segment");
        }
        let want = vec![(1, b"onet".to_vec()), (2, vec![]), (3, b"three".to_vec())];
        for device in &devices {
            assert_eq!(read_all(device.as_ref()), want);
        }
        assert_eq!(wal.contents(), want);
        // A second handle opens after the last segment, wherever the
        // first one appends.
        let mut reopened: [Box<dyn Storage>; 2] = [
            Box::new(SegmentFiles::new(dir.path().into())),
            Box::new(wal.clone()),
        ];
        for device in &mut reopened {
            device.open_next().unwrap();
            device.append(b"four").unwrap();
        }
        let mut want = want;
        want.push((4, b"four".to_vec()));
        assert_eq!(read_all(reopened[0].as_ref()), want);
        assert_eq!(wal.contents(), want);
        // Every clone counts: the failed append and the cuts are no append.
        assert_eq!(wal.appends(), 4);
        assert_eq!(wal.appended_bytes(), 15);
        assert_eq!(wal.segments_opened(), 4);
    }

    #[test]
    fn a_crash_leaves_a_prefix_of_the_log() {
        let log = vec![
            (1, b"abc".to_vec()),
            (2, b"de".to_vec()),
            (3, b"f".to_vec()),
        ];
        let crash_after = |bytes| {
            let wal = MemStorage::default();
            wal.set_contents(log.clone());
            wal.crash_after(bytes);
            wal.contents()
        };
        assert_eq!(crash_after(0), [(1, vec![])]);
        assert_eq!(crash_after(2), [(1, b"ab".to_vec())]);
        // At a segment's end the next segment is gone.
        assert_eq!(crash_after(3), [(1, b"abc".to_vec())]);
        assert_eq!(crash_after(4), [(1, b"abc".to_vec()), (2, b"d".to_vec())]);
        assert_eq!(crash_after(6), log);
        assert_eq!(crash_after(99), log);
    }

    /// The CRC-32 of `bytes` by every path this CPU runs: the dispatch,
    /// the tables, and the carry-less kernel where the CPU has it.
    fn crc32_paths(bytes: &[u8]) -> Vec<(&'static str, u32)> {
        let mut paths = vec![("crc32", crc32(bytes)), ("slice8", crc32_slice8(bytes))];
        paths.extend(crc32_clmul(bytes).map(|c| ("clmul", c)));
        paths
    }

    #[test]
    fn crc32_matches_known_vectors() {
        let counting: Vec<u8> = (0..1000).map(|i| i as u8).collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&[0; 64], 0x758D_6336),
            (&counting[..129], 0xCA91_CDF7),
            (&counting, 0x74E3_FB41),
        ];
        for (bytes, want) in vectors {
            for (path, got) in crc32_paths(bytes) {
                assert_eq!(got, want, "{path} over {} bytes", bytes.len());
            }
        }
    }

    #[test]
    fn crc32_paths_match_the_bytewise_definition_at_every_length_and_alignment() {
        // Every length up to 1 KiB at each of 16 alignments (so every tail
        // under 64 bytes after 0 to 15 whole 64-byte steps, 127/128/129
        // among them), then every length up to 4 KiB at one alignment each.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..4096 + 16)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        let check = |skip: usize, lengths: &mut dyn Iterator<Item = usize>| {
            let data = &bytes[skip..];
            let (mut register, mut at) = (0xFFFF_FFFF, 0);
            for len in lengths {
                register = data[at..len]
                    .iter()
                    .fold(register, |c, &b| crc32_step(c, b));
                at = len;
                for (path, got) in crc32_paths(&data[..len]) {
                    assert_eq!(got, !register, "{path}: {len} bytes at offset {skip}");
                }
            }
        };
        for skip in 0..16 {
            check(skip, &mut (0..=1024));
        }
        for skip in 0..16 {
            check(skip, &mut (1025..=4096).filter(|len| len % 16 == skip));
        }
    }

    proptest::proptest! {
        /// Every path against the byte-at-a-time definition, over every
        /// length class (whole folds, every remainder) and alignment.
        #[test]
        fn crc32_matches_the_bytewise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..4096usize),
            skip in 0usize..16,
        ) {
            let bytes = &bytes[skip.min(bytes.len())..];
            let bytewise = bytes.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b)) ^ 0xFFFF_FFFF;
            for (path, got) in crc32_paths(bytes) {
                proptest::prop_assert_eq!(got, bytewise, "{}", path);
            }
        }
    }
}
