//! Typed request/response control protocol for a campaign server.
//!
//! The serving layer exposes the registry over a byte stream: requests
//! and responses are CBOR documents (the deterministic subset the
//! `ciborium` stub writes, the one encoding the WAL and the router's
//! journal also use) framed by a little-endian `u32` length prefix, so
//! any ordered transport works. This module provides the message types,
//! the framing ([`write_frame`] / [`read_frame`]), an in-process duplex
//! [`pipe`] built on a pair of blocking byte queues, and a [`Server`]
//! loop plus [`Client`] handle.
//!
//! The registry lives on the server thread: [`spawn_server`] constructs
//! it *there* with a `Send` builder closure, and only spec descriptions,
//! snapshots and stats — plain serializable data — cross the pipe. (A
//! [`Campaign`](autotune::Campaign) is `Send`, so the registry can hand
//! its model campaigns to worker threads for a phase at a time; what it
//! never hands out is the registry itself.)

use crate::registry::{CampaignRegistry, CampaignStats, FleetStats, ServeError};
use crate::spec::CampaignSpec;
use autotune::sync::{pwait, PoisonFreeMutex};
use autotune::CampaignSnapshot;
use autotune_space::Config;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// A control request to the campaign server.
// Register dominates the enum size by carrying a whole CampaignSpec, but
// requests are transient (framed, handled, dropped) and never stored in
// bulk, so the usual boxing remedy buys nothing here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Build and register a campaign from a spec; answers
    /// [`Response::Registered`] (or [`Response::Overloaded`] when
    /// admission control sheds the request).
    Register {
        /// The campaign description.
        spec: CampaignSpec,
        /// Client-chosen idempotency key. A retried `Register` carrying
        /// the same id returns the originally assigned campaign id
        /// instead of creating a duplicate.
        #[serde(default)]
        request_id: Option<u64>,
    },
    /// Execute scheduling rounds; answers [`Response::Stepped`].
    Step {
        /// How many rounds (each round services every eligible campaign).
        rounds: u32,
    },
    /// Run rounds until the whole fleet is done or stopped; answers
    /// [`Response::Stepped`].
    RunAll,
    /// Snapshot one campaign; answers [`Response::Snapshot`].
    Snapshot {
        /// Registry id.
        id: u64,
    },
    /// Per-campaign stats; answers [`Response::Stats`].
    Stats {
        /// Registry id.
        id: u64,
    },
    /// Aggregate stats; answers [`Response::Fleet`].
    FleetStats,
    /// Stop serving one campaign; answers [`Response::Stopped`].
    Stop {
        /// Registry id.
        id: u64,
    },
    /// Cache-first tenant lookup (served by router backends): answers
    /// [`Response::CacheHit`] with a tuned config, or
    /// [`Response::CacheMiss`] after enqueuing `spec` to tune the
    /// workload's family. A plain registry backend answers
    /// [`Response::Error`].
    Lookup {
        /// The tenant's workload fingerprint features.
        features: Vec<f64>,
        /// Campaign to run if the fingerprint's family is untuned.
        spec: CampaignSpec,
    },
    /// Shut the server down; answers [`Response::Bye`].
    Shutdown,
}

/// A server reply. Every request gets exactly one response, in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Campaign registered under this id.
    Registered {
        /// Registry-assigned id.
        id: u64,
    },
    /// Rounds executed.
    Stepped {
        /// Rounds actually run.
        rounds: u64,
        /// Campaigns still active afterwards.
        n_active: u64,
    },
    /// A campaign snapshot (seed + policy + event log + drift clock).
    Snapshot {
        /// The snapshot.
        snapshot: CampaignSnapshot,
    },
    /// Per-campaign stats.
    Stats {
        /// The stats.
        stats: CampaignStats,
    },
    /// Aggregate fleet stats.
    Fleet {
        /// The stats.
        stats: FleetStats,
    },
    /// Campaign stopped.
    Stopped {
        /// Whether it was active before the stop.
        was_active: bool,
    },
    /// Lookup served from the config cache.
    CacheHit {
        /// Workload family that answered.
        family: u64,
        /// The cached configuration: sharing the cache entry's map on the
        /// serving side, a fresh one when decoded.
        config: Config,
        /// Cost observed when the config was tuned.
        cost: f64,
        /// True when a sibling tenant's incumbent answered (no entry for
        /// this exact fingerprint).
        borrowed: bool,
    },
    /// Lookup missed the cache; a tuning campaign covers the family and
    /// will backfill it.
    CacheMiss {
        /// The covering campaign's id.
        campaign: u64,
        /// True when this request admitted the campaign; false when it
        /// joined one already in flight.
        enqueued: bool,
    },
    /// Server is shutting down.
    Bye,
    /// The request was shed by admission control; the connection stays
    /// usable and the client should back off.
    Overloaded {
        /// Suggested backoff before retrying, in scheduling rounds.
        retry_after_rounds: u64,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// Hard cap on a frame body. A corrupt length prefix yields a typed
/// [`ServeError::FrameTooLarge`] instead of an attempt to allocate up to
/// 4 GiB; honest frames (specs, snapshots, stats) sit far below this.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Bytes reserved for a message before it is encoded: most frames and
/// journal records (a `Lookup` is under 600 bytes) then never regrow
/// their buffer, and the rest double it as usual.
pub(crate) const ENCODE_RESERVE: usize = 1024;

/// The frame of `msg`: the body encoded behind a placeholder length
/// prefix, then the prefix patched.
fn encode_frame<T: Serialize>(msg: &T) -> Result<Vec<u8>, ServeError> {
    let mut frame = Vec::with_capacity(ENCODE_RESERVE);
    frame.extend_from_slice(&[0; 4]);
    ciborium::into_writer(msg, &mut frame).map_err(|e| ServeError::Protocol(e.to_string()))?;
    let len = u32::try_from(frame.len() - 4)
        .map_err(|_| ServeError::Protocol("frame over 4 GiB".into()))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    Ok(frame)
}

/// Hands a whole frame to the stream in one write.
fn send_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), ServeError> {
    w.write_all(frame)
        .and_then(|()| w.flush())
        .map_err(|e| ServeError::Protocol(e.to_string()))
}

/// Writes one length-prefixed CBOR frame. Nothing reaches the stream
/// unless the whole message encodes.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), ServeError> {
    send_frame(w, &encode_frame(msg)?)
}

/// Reads one length-prefixed CBOR frame; `Ok(None)` on clean EOF at a
/// frame boundary.
///
/// Error taxonomy matters for connection reuse: a prefix over
/// [`MAX_FRAME_LEN`] or a short read is [`ServeError::FrameTooLarge`] /
/// [`ServeError::Protocol`] — the stream position is lost and the
/// connection is dead. A fully read body that fails to decode (the
/// decoder checks every declared length against the body, bounds the
/// nesting, validates UTF-8 and refuses trailing bytes) is
/// [`ServeError::Decode`] — the stream is still at a frame boundary and
/// the next frame can be read normally.
pub fn read_frame<T: for<'de> Deserialize<'de>>(
    r: &mut impl Read,
) -> Result<Option<T>, ServeError> {
    let mut len = [0u8; 4];
    let got = loop {
        match r.read(&mut len) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            other => break other.map_err(|e| ServeError::Protocol(e.to_string()))?,
        }
    };
    if got == 0 {
        return Ok(None);
    }
    // Only zero bytes is a frame boundary: a peer that dies inside the
    // prefix tore a frame.
    r.read_exact(&mut len[got..])
        .map_err(|e| ServeError::Protocol(format!("torn length prefix: {e}")))?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServeError::FrameTooLarge {
            len: len as u64,
            max: MAX_FRAME_LEN as u64,
        });
    }
    // The decoder reads the body itself, into the one buffer it decodes
    // from; a body that ends early leaves some of `len` unread.
    let mut body = r.take(len as u64);
    let decoded = ciborium::from_reader(&mut body);
    if body.limit() > 0 {
        return Err(ServeError::Protocol("torn frame body".into()));
    }
    match decoded {
        Ok(msg) => Ok(Some(msg)),
        Err(ciborium::de::Error::Io(e)) => Err(ServeError::Protocol(e.to_string())),
        Err(e) => Err(ServeError::Decode(e.to_string())),
    }
}

/// One direction of the in-process pipe: a blocking bounded-by-nothing
/// byte queue. `Read` blocks until bytes arrive or the write side hangs
/// up.
#[derive(Default)]
struct ByteQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl ByteQueue {
    // Poisoning only happens after a panic in a peer thread; at that
    // point the pipe is dead anyway, so `plock`/`pwait` recover the
    // guard and let the closed/EOF paths surface the failure.
    fn push(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut st = self.state.plock();
        if st.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe closed",
            ));
        }
        st.buf.extend(bytes);
        self.ready.notify_all();
        Ok(())
    }

    fn pop(&self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut st = self.state.plock();
        while st.buf.is_empty() {
            if st.closed {
                return Ok(0);
            }
            st = pwait(&self.ready, st);
        }
        let n = out.len().min(st.buf.len());
        for slot in out.iter_mut().take(n) {
            // The loop guard guarantees the queue is non-empty here.
            *slot = st.buf.pop_front().unwrap_or(0);
        }
        Ok(n)
    }

    fn close(&self) {
        self.state.plock().closed = true;
        self.ready.notify_all();
    }
}

/// One end of an in-process duplex byte pipe. `Send`, so either end can
/// move into a thread. Dropping an end closes both directions it owns.
pub struct PipeEnd {
    rx: Arc<ByteQueue>,
    tx: Arc<ByteQueue>,
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.rx.pop(buf)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tx.push(buf).map(|()| buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeEnd {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

/// Creates a connected duplex pipe: bytes written to one end are read
/// from the other.
pub fn pipe() -> (PipeEnd, PipeEnd) {
    let a = Arc::new(ByteQueue::default());
    let b = Arc::new(ByteQueue::default());
    (
        PipeEnd {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        PipeEnd { rx: b, tx: a },
    )
}

/// Per-request resource limits for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Deadline on a single `Step`/`RunAll` request, in scheduling
    /// rounds. A `RunAll` over a fleet that needs more rounds returns
    /// `Stepped { n_active > 0 }` and the client re-issues, so one
    /// request can never pin the server indefinitely.
    pub max_rounds_per_request: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_rounds_per_request: 100_000,
        }
    }
}

/// What a [`Server`] drives: anything that can answer protocol
/// requests. [`CampaignRegistry`] is the plain fleet backend;
/// [`TenantRouter`](crate::TenantRouter) layers the config cache on
/// top. Implementations return `Err` for request-level failures — the
/// server loop maps [`ServeError::Overloaded`] to
/// [`Response::Overloaded`] and everything else to [`Response::Error`],
/// keeping the connection usable.
pub trait ServeBackend {
    /// Answers one request under the server's per-request limits.
    fn handle_request(
        &mut self,
        req: Request,
        config: &ServerConfig,
    ) -> Result<Response, ServeError>;
}

impl ServeBackend for CampaignRegistry {
    fn handle_request(
        &mut self,
        req: Request,
        config: &ServerConfig,
    ) -> Result<Response, ServeError> {
        let run_rounds =
            |reg: &mut CampaignRegistry, budget: u64| -> Result<Response, ServeError> {
                let mut run = 0;
                while run < budget && reg.has_runnable() {
                    reg.step_round()?;
                    run += 1;
                }
                Ok(Response::Stepped {
                    rounds: run,
                    n_active: reg.n_active() as u64,
                })
            };
        Ok(match req {
            Request::Register { spec, request_id } => Response::Registered {
                id: self.admit_spec(&spec, request_id)?,
            },
            Request::Lookup { .. } => {
                return Err(ServeError::Protocol(
                    "this server has no config cache; serve a TenantRouter to answer lookups"
                        .into(),
                ))
            }
            Request::Step { rounds } => {
                let budget = u64::from(rounds).min(config.max_rounds_per_request);
                run_rounds(self, budget)?
            }
            Request::RunAll => run_rounds(self, config.max_rounds_per_request)?,
            Request::Snapshot { id } => Response::Snapshot {
                snapshot: self.snapshot(id)?,
            },
            Request::Stats { id } => Response::Stats {
                stats: self.stats(id)?,
            },
            Request::FleetStats => Response::Fleet {
                stats: self.fleet_stats(),
            },
            Request::Stop { id } => Response::Stopped {
                was_active: self.stop(id)?,
            },
            Request::Shutdown => Response::Bye,
        })
    }
}

/// Serves a backend over a framed byte stream until `Shutdown`, clean
/// EOF, or a transport error. Request-level failures (unknown id,
/// campaign errors, undecodable-but-well-framed payloads) are answered
/// with [`Response::Error`] and the loop continues.
pub struct Server<S: Read + Write, B: ServeBackend = CampaignRegistry> {
    stream: S,
    backend: B,
    config: ServerConfig,
}

impl<S: Read + Write, B: ServeBackend> Server<S, B> {
    /// A server over `stream` driving `backend` with default limits.
    pub fn new(stream: S, backend: B) -> Self {
        Server::with_config(stream, backend, ServerConfig::default())
    }

    /// A server with explicit per-request limits.
    fn with_config(stream: S, backend: B, config: ServerConfig) -> Self {
        Server {
            stream,
            backend,
            config,
        }
    }

    /// Runs the request loop to completion, returning the backend (for
    /// post-mortem inspection in tests and tools).
    pub fn serve(mut self) -> Result<B, ServeError> {
        loop {
            let req = match read_frame::<Request>(&mut self.stream) {
                Ok(Some(req)) => req,
                Ok(None) => break,
                Err(ServeError::Decode(msg)) => {
                    // The frame was complete — only its payload was
                    // garbage — so the stream is still at a boundary:
                    // answer with a typed error and keep serving.
                    let resp = Response::Error {
                        message: format!("undecodable request: {msg}"),
                    };
                    write_frame(&mut self.stream, &resp)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let shutdown = matches!(req, Request::Shutdown);
            let resp = self.handle(req);
            // A reply that cannot be encoded (a non-finite float) has put
            // nothing on the stream: the client is told, and the
            // connection, still at a frame boundary, goes on serving.
            let frame = encode_frame(&resp).or_else(|e| {
                encode_frame(&Response::Error {
                    message: format!("unencodable response: {e}"),
                })
            })?;
            send_frame(&mut self.stream, &frame)?;
            if shutdown {
                break;
            }
        }
        Ok(self.backend)
    }

    fn handle(&mut self, req: Request) -> Response {
        match self.backend.handle_request(req, &self.config) {
            Ok(resp) => resp,
            Err(ServeError::Overloaded { retry_after_rounds }) => {
                Response::Overloaded { retry_after_rounds }
            }
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }
}

/// Typed outcome of [`Client::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum LookupReply {
    /// Served from the server's config cache.
    Hit {
        /// Workload family that answered.
        family: u64,
        /// The cached configuration.
        config: Config,
        /// Cost observed when the config was tuned.
        cost: f64,
        /// True when a sibling tenant's incumbent answered.
        borrowed: bool,
    },
    /// Missed; a tuning campaign covers the family.
    Miss {
        /// The covering campaign's id.
        campaign: u64,
        /// True when this request admitted the campaign.
        enqueued: bool,
    },
}

/// Client handle over a framed byte stream. One in-flight request at a
/// time; responses arrive in request order.
pub struct Client<S: Read + Write> {
    stream: S,
}

impl<S: Read + Write> Client<S> {
    /// A client over `stream`.
    pub fn new(stream: S) -> Self {
        Client { stream }
    }

    /// Sends `req` and blocks for its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, req)?;
        read_frame(&mut self.stream)?.ok_or_else(|| ServeError::Protocol("server hung up".into()))
    }

    /// Registers a spec, returning the assigned id.
    pub fn register(&mut self, spec: &CampaignSpec) -> Result<u64, ServeError> {
        match self.request(&Request::Register {
            spec: spec.clone(),
            request_id: None,
        })? {
            Response::Registered { id } => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Cache-first tenant lookup against a router server: a hit carries
    /// the tuned config, a miss the campaign id that will backfill it.
    /// Requires the server to drive a
    /// [`TenantRouter`](crate::TenantRouter) backend.
    pub fn lookup(
        &mut self,
        features: &[f64],
        spec: &CampaignSpec,
    ) -> Result<LookupReply, ServeError> {
        match self.request(&Request::Lookup {
            features: features.to_vec(),
            spec: spec.clone(),
        })? {
            Response::CacheHit {
                family,
                config,
                cost,
                borrowed,
            } => Ok(LookupReply::Hit {
                family,
                config,
                cost,
                borrowed,
            }),
            Response::CacheMiss { campaign, enqueued } => {
                Ok(LookupReply::Miss { campaign, enqueued })
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Runs `rounds` scheduling rounds; returns (rounds run, active
    /// campaigns remaining).
    pub fn step(&mut self, rounds: u32) -> Result<(u64, u64), ServeError> {
        match self.request(&Request::Step { rounds })? {
            Response::Stepped { rounds, n_active } => Ok((rounds, n_active)),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs the fleet to completion; returns rounds run.
    pub fn run_all(&mut self) -> Result<u64, ServeError> {
        match self.request(&Request::RunAll)? {
            Response::Stepped { rounds, .. } => Ok(rounds),
            other => Err(unexpected(&other)),
        }
    }

    /// Snapshots a campaign.
    pub fn snapshot(&mut self, id: u64) -> Result<CampaignSnapshot, ServeError> {
        match self.request(&Request::Snapshot { id })? {
            Response::Snapshot { snapshot } => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches per-campaign stats.
    pub fn stats(&mut self, id: u64) -> Result<CampaignStats, ServeError> {
        match self.request(&Request::Stats { id })? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches aggregate fleet stats.
    pub fn fleet_stats(&mut self) -> Result<FleetStats, ServeError> {
        match self.request(&Request::FleetStats)? {
            Response::Fleet { stats } => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Stops serving a campaign.
    pub fn stop(&mut self, id: u64) -> Result<bool, ServeError> {
        match self.request(&Request::Stop { id })? {
            Response::Stopped { was_active } => Ok(was_active),
            other => Err(unexpected(&other)),
        }
    }

    /// Shuts the server down.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> ServeError {
    match resp {
        Response::Error { message } => ServeError::Protocol(message.clone()),
        Response::Overloaded { retry_after_rounds } => ServeError::Overloaded {
            retry_after_rounds: *retry_after_rounds,
        },
        other => ServeError::Protocol(format!("unexpected response: {other:?}")),
    }
}

/// Spawns a server thread over an in-process pipe and returns the
/// connected client plus the server's join handle, which yields the
/// final fleet stats. `builder` runs inside the server thread, so the
/// registry is built where it is served and never crosses the pipe;
/// only its stats come back.
pub fn spawn_server(
    builder: impl FnOnce() -> CampaignRegistry + Send + 'static,
) -> (
    Client<PipeEnd>,
    std::thread::JoinHandle<Result<FleetStats, ServeError>>,
) {
    let (client_end, server_end) = pipe();
    let handle = std::thread::spawn(move || {
        Server::new(server_end, builder())
            .serve()
            .map(|registry| registry.fleet_stats())
    });
    (Client::new(client_end), handle)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, SystemKind};
    use autotune::SchedulePolicy;
    use serde::de::DeserializeOwned;
    use std::fmt::Debug;

    fn spec(i: u64) -> CampaignSpec {
        let mut s = CampaignSpec::minimal(format!("p{i}"), SystemKind::Redis, 5, 100 + i);
        s.policy = SchedulePolicy::AsyncSlots { k: 2 };
        s
    }

    fn cbor<T: Serialize>(value: &T) -> Vec<u8> {
        let mut bytes = Vec::new();
        ciborium::into_writer(value, &mut bytes).unwrap();
        bytes
    }

    /// Through either encoding and back, `value` is the same value (by its
    /// `Debug` form, which tells `-0.0` from `0.0` and prints every NaN
    /// alike) and encodes to the same bytes.
    pub(crate) fn codecs_agree<T: Serialize + DeserializeOwned + Debug>(value: &T) {
        let (bytes, json) = (cbor(value), serde_json::to_string(value).unwrap());
        let from_cbor: T = ciborium::from_reader(&bytes[..]).unwrap();
        let from_json: T = serde_json::from_str(&json).unwrap();
        for back in [&from_cbor, &from_json] {
            assert_eq!(format!("{back:?}"), format!("{value:?}"));
            assert_eq!(cbor(back), bytes, "{value:?}");
            assert_eq!(serde_json::to_string(back).unwrap(), json);
        }
    }

    /// A finished campaign in a registry, under id 0.
    fn served() -> CampaignRegistry {
        let mut registry = CampaignRegistry::new(2);
        let mut tenant = spec(0);
        tenant.name = "tenant-é".into();
        registry.register_spec(&tenant);
        registry.run_all().unwrap();
        registry
    }

    /// `body` behind an honest length prefix.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(body);
        frame
    }

    fn lookup() -> Request {
        Request::Lookup {
            features: vec![0.0, -0.0, 1.5, f64::MIN_POSITIVE, -3.25e300, 5e-324],
            spec: spec(6),
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        let req = Request::Step { rounds: 3 };
        write_frame(&mut buf, &req).unwrap();
        let mut r = &buf[..];
        let back: Request = read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(back, Request::Step { rounds: 3 }));
        let eof: Option<Request> = read_frame(&mut r).unwrap();
        assert!(eof.is_none());
    }

    #[test]
    fn oversized_prefix_is_a_typed_error_not_an_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(b"junk");
        let mut r = &buf[..];
        let got: Result<Option<Request>, _> = read_frame(&mut r);
        assert!(matches!(got, Err(ServeError::FrameTooLarge { .. })));
    }

    #[test]
    fn garbage_payload_is_a_decode_error() {
        // A frame from a JSON-era peer, then well-formed CBOR that is no
        // request: both are `Decode`, and both leave the stream at a
        // frame boundary, so the real request behind them still reads.
        let mut buf = framed(b"{\"NotARequest\":true}");
        write_frame(&mut buf, &Response::Bye).unwrap();
        write_frame(&mut buf, &Request::Shutdown).unwrap();
        let mut r = &buf[..];
        for _ in 0..2 {
            let got: Result<Option<Request>, _> = read_frame(&mut r);
            assert!(matches!(got, Err(ServeError::Decode(_))), "{got:?}");
        }
        let got: Option<Request> = read_frame(&mut r).unwrap();
        assert!(matches!(got, Some(Request::Shutdown)));
    }

    #[test]
    fn server_survives_garbage_frames() {
        let (mut end, handle) = {
            let (client_end, server_end) = pipe();
            let handle = std::thread::spawn(move || {
                Server::new(server_end, CampaignRegistry::new(1))
                    .serve()
                    .map(|r| r.fleet_stats())
            });
            (client_end, handle)
        };
        // A well-framed but undecodable payload: the server answers
        // with a typed error frame and keeps serving.
        let body = b"\"garbage\"";
        end.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        end.write_all(body).unwrap();
        let resp: Response = read_frame(&mut end).unwrap().unwrap();
        assert!(matches!(resp, Response::Error { .. }));
        // The connection still works for real requests afterwards.
        let mut client = Client::new(end);
        let id = client.register(&spec(0)).unwrap();
        client.run_all().unwrap();
        assert!(client.stats(id).unwrap().done);
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn deadline_bounds_rounds_per_request() {
        let (client_end, server_end) = pipe();
        let handle = std::thread::spawn(move || {
            let config = ServerConfig {
                max_rounds_per_request: 2,
            };
            Server::with_config(server_end, CampaignRegistry::new(1), config)
                .serve()
                .map(|r| r.fleet_stats())
        });
        let mut client = Client::new(client_end);
        client.register(&spec(0)).unwrap();
        // RunAll is clipped to the per-request deadline; the client
        // re-issues until the fleet drains.
        let mut total = 0;
        loop {
            match client.request(&Request::RunAll).unwrap() {
                Response::Stepped { rounds, n_active } => {
                    assert!(rounds <= 2);
                    total += rounds;
                    if n_active == 0 {
                        break;
                    }
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        assert!(total > 2, "fleet needed more than one deadline window");
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn a_register_retried_on_a_second_connection_lands_one_campaign() {
        // The server's half of an idempotent retry: the connection breaks
        // after the first reply, the client dials the same backend again
        // (the one `Server::serve` hands back) and re-sends.
        let mut backend = CampaignRegistry::new(1);
        let mut ids = Vec::new();
        for _ in 0..2 {
            let (client_end, server_end) = pipe();
            let client = std::thread::spawn(move || {
                Client::new(client_end).request(&Request::Register {
                    spec: spec(0),
                    request_id: Some(9),
                })
            });
            backend = Server::new(server_end, backend).serve().unwrap();
            match client.join().unwrap().unwrap() {
                Response::Registered { id } => ids.push(id),
                other => panic!("unexpected response: {other:?}"),
            }
        }
        assert_eq!(ids[0], ids[1]);
        let stats = backend.fleet_stats();
        assert_eq!(stats.n_campaigns, 1, "retry double-created a campaign");
        assert_eq!(stats.retried_requests, 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_router_whose_wal_died_answers_errors_and_keeps_the_connection() {
        use crate::router::{spawn_router_server, RouterConfig, TenantRouter};
        use crate::WalConfig;
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("autotune-proto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fingerprint = [2.0, 2.0];
        let wal_dir = dir.clone();
        let (mut client, handle) = spawn_router_server(move || {
            // A one-byte segment limit: every append rotates the log.
            let wal = WalConfig { segment_bytes: 1 };
            let mut router = TenantRouter::create(&wal_dir, 1, wal, RouterConfig::default())?;
            router.lookup(&fingerprint, &spec(0))?;
            router.run_all()?;
            // A hit writes nothing; the miss behind it writes four
            // records (the summary of that hit, its `Lookup`, the
            // campaign's `Register`, its `Admit`), each into the open
            // (empty) segment and rotating onto the next. The segment the
            // `Admit` rotates onto is a device that is always full, so
            // the next append is the first to meet ENOSPC.
            router.lookup(&fingerprint, &spec(0))?;
            let segments = std::fs::read_dir(&wal_dir).unwrap().count();
            let full = wal_dir.join(format!("wal-{:06}.seg", segments + 4));
            std::os::unix::fs::symlink("/dev/full", full).unwrap();
            router.lookup(&[40.0, 40.0], &spec(2))?;
            Ok(router)
        });
        let register = Request::Register {
            spec: spec(1),
            request_id: Some(7),
        };
        let lookup = Request::Lookup {
            features: fingerprint.to_vec(),
            spec: spec(0),
        };
        // The write that fails, its retry, and a lookup that would have hit.
        let mut messages = Vec::new();
        for request in [&register, &register, &lookup] {
            match client.request(request).unwrap() {
                Response::Error { message } => messages.push(message),
                other => panic!("a dead router answered {other:?}"),
            }
        }
        assert!(
            messages[0].contains("No space left on device"),
            "{}",
            messages[0]
        );
        assert!(messages.iter().all(|m| m == &messages[0]), "{messages:?}");
        assert_eq!(client.fleet_stats().unwrap().n_done, 1);
        client.shutdown().unwrap();
        let (_, cache) = handle.join().unwrap().unwrap();
        assert_eq!(
            (cache.hits, cache.misses),
            (1, 2),
            "the refused lookup moved the cache"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overloaded_registry_sheds_through_the_protocol() {
        use crate::registry::AdmissionConfig;
        let (client_end, server_end) = pipe();
        let handle = std::thread::spawn(move || {
            let mut registry = CampaignRegistry::new(1);
            registry.set_admission(AdmissionConfig {
                max_active: 1,
                max_pending: 0,
            });
            Server::new(server_end, registry)
                .serve()
                .map(|r| r.fleet_stats())
        });
        let mut client = Client::new(client_end);
        client.register(&spec(0)).unwrap();
        match client.register(&spec(1)) {
            Err(ServeError::Overloaded { retry_after_rounds }) => {
                assert!(retry_after_rounds >= 1)
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The connection survives the shed; the accepted campaign runs.
        client.run_all().unwrap();
        client.shutdown().unwrap();
        let fleet = handle.join().unwrap().unwrap();
        assert_eq!(fleet.shed_requests, 1);
        assert_eq!(fleet.n_done, 1);
    }

    #[test]
    fn pipe_moves_bytes_across_threads() {
        let (mut a, mut b) = pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        a.write_all(b"hello").unwrap();
        assert_eq!(&t.join().unwrap(), b"hello");
    }

    #[test]
    fn server_round_trip_determinism_matches_direct_registry() {
        // Drive the same fleet through the protocol and directly; the
        // served histories must be byte-identical to direct serving.
        let mut direct = CampaignRegistry::new(2);
        let direct_ids: Vec<u64> = (0..3).map(|i| direct.register_spec(&spec(i))).collect();
        direct.run_all().unwrap();

        let (mut client, handle) = spawn_server(|| CampaignRegistry::new(2));
        let ids: Vec<u64> = (0..3).map(|i| client.register(&spec(i)).unwrap()).collect();
        client.run_all().unwrap();
        for (id, direct_id) in ids.iter().zip(&direct_ids) {
            let st = client.stats(*id).unwrap();
            let want = direct.stats(*direct_id).unwrap();
            assert!(st.done);
            assert_eq!(st.n_trials, want.n_trials);
            assert_eq!(st.best_cost.to_bits(), want.best_cost.to_bits());
            assert_eq!(st.virtual_busy_s.to_bits(), want.virtual_busy_s.to_bits());
        }
        let snap = client.snapshot(ids[1]).unwrap();
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string(&direct.snapshot(direct_ids[1]).unwrap()).unwrap()
        );
        client.shutdown().unwrap();
        let fleet = handle.join().unwrap().unwrap();
        assert_eq!(fleet.n_active, 0);
        assert_eq!(fleet.n_done, 3);
    }

    #[test]
    fn request_errors_keep_connection_usable() {
        let (mut client, handle) = spawn_server(|| CampaignRegistry::new(1));
        assert!(client.stats(99).is_err());
        let id = client.register(&spec(0)).unwrap();
        client.run_all().unwrap();
        assert!(client.stats(id).unwrap().done);
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stats_before_the_first_finite_trial_is_answered() {
        let (mut client, handle) = spawn_server(|| CampaignRegistry::new(1));
        let id = client.register(&spec(0)).unwrap();
        // No trial yet: the best cost is an infinity, which no codec
        // writes; it crosses as null and is an infinity again here.
        let before = client.stats(id).unwrap();
        assert_eq!((before.n_trials, before.best_cost), (0, f64::INFINITY));
        client.step(3).unwrap();
        let after = client.stats(id).unwrap();
        assert!(after.n_trials > 0 && after.best_cost.is_finite());
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn an_unencodable_reply_is_answered_as_an_error() {
        /// Answers everything with a cost no codec can write.
        struct Liar;
        impl ServeBackend for Liar {
            fn handle_request(
                &mut self,
                req: Request,
                _: &ServerConfig,
            ) -> Result<Response, ServeError> {
                Ok(match req {
                    Request::Shutdown => Response::Bye,
                    _ => Response::CacheHit {
                        family: 0,
                        config: Config::default(),
                        cost: f64::NAN,
                        borrowed: false,
                    },
                })
            }
        }
        let (client_end, server_end) = pipe();
        let server = std::thread::spawn(move || Server::new(server_end, Liar).serve().map(drop));
        let mut client = Client::new(client_end);
        for _ in 0..2 {
            let reply = client.request(&Request::FleetStats).unwrap();
            assert!(
                matches!(&reply, Response::Error { message } if message.contains("non-finite")),
                "{reply:?}"
            );
        }
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn dropping_client_ends_server_cleanly() {
        let (client, handle) = spawn_server(|| CampaignRegistry::new(1));
        drop(client);
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn every_request_decodes_alike_from_cbor_and_json() {
        for request in [
            Request::Register {
                spec: spec(6),
                request_id: Some(u64::MAX),
            },
            Request::Register {
                spec: spec(6),
                request_id: None,
            },
            Request::Step { rounds: u32::MAX },
            Request::RunAll,
            Request::Snapshot { id: 0 },
            Request::Stats { id: 1 << 40 },
            Request::FleetStats,
            Request::Stop { id: 7 },
            lookup(),
            Request::Shutdown,
        ] {
            codecs_agree(&request);
        }
    }

    #[test]
    fn every_response_decodes_alike_from_cbor_and_json() {
        let registry = served();
        let best = registry.campaign(0).unwrap().storage().best().unwrap();
        for response in [
            Response::Registered { id: 3 },
            Response::Stepped {
                rounds: 12,
                n_active: 0,
            },
            Response::Snapshot {
                snapshot: registry.snapshot(0).unwrap(),
            },
            Response::Stats {
                stats: registry.stats(0).unwrap(),
            },
            Response::Fleet {
                stats: registry.fleet_stats(),
            },
            Response::Stopped { was_active: true },
            Response::CacheHit {
                family: 11,
                config: best.config.clone(),
                cost: best.cost,
                borrowed: true,
            },
            Response::CacheMiss {
                campaign: 5,
                enqueued: false,
            },
            Response::Bye,
            Response::Overloaded {
                retry_after_rounds: 2,
            },
            Response::Error {
                message: "unknown campaign id 99 — \"quoted\"\n".into(),
            },
        ] {
            codecs_agree(&response);
        }
    }

    #[test]
    fn hostile_bodies_are_decode_errors_at_a_frame_boundary() {
        let mut lookup_frame = Vec::new();
        write_frame(&mut lookup_frame, &lookup()).unwrap();
        let body = &lookup_frame[4..];
        let mut hostile: Vec<Vec<u8>> = vec![
            vec![0x9a, 0xff, 0xff, 0xff, 0xff], // an array of 2^32 - 1 items
            vec![0x81; 10_000],                 // 10 000 nested arrays
            vec![0xa1, 0x01, 0x02],             // a map keyed by an integer
            vec![0x9f, 0x01, 0xff],             // an indefinite-length array
            vec![0xbf, 0xff],                   // an indefinite-length map
            [body, &[0x00]].concat(),           // a request, then a stray byte
        ];
        // The document cut at every byte, each cut honestly framed.
        hostile.extend((0..body.len()).map(|cut| body[..cut].to_vec()));
        for body in &hostile {
            let mut stream = framed(body);
            stream.extend_from_slice(&lookup_frame);
            let mut r = &stream[..];
            match read_frame::<Request>(&mut r) {
                Err(ServeError::Decode(_)) => {}
                other => panic!("{} hostile bytes: {other:?}", body.len()),
            }
            let next: Option<Request> = read_frame(&mut r).unwrap();
            assert!(matches!(next, Some(Request::Lookup { .. })));
        }
    }

    #[test]
    fn a_frame_cut_anywhere_is_a_protocol_error() {
        let mut frame = Vec::new();
        write_frame(&mut frame, &lookup()).unwrap();
        for cut in 1..frame.len() {
            match read_frame::<Request>(&mut &frame[..cut]) {
                Err(ServeError::Protocol(_)) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }
}
