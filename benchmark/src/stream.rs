//! The load generator: a scripted client fused into the byte stream the
//! real [`Server::serve`](autotune_serve::Server::serve) loop runs over.
//!
//! `Server<S, B>` is generic over `S: Read + Write` and `TenantRouter` is
//! not `Send`, so the benchmark needs neither a thread nor a pipe: the
//! server's own reads and writes drive the client. That makes the load a
//! single-threaded, lock-step **closed loop with one connection**: the
//! next request is generated only after the previous reply was decoded.
//!
//! * The server reads and the inbound buffer is empty → the stream asks
//!   the [`Script`] for the next [`Request`], starts the request clock and
//!   encodes it with the public `write_frame` (the client's encode).
//! * The server `flush`es — the last call of its `write_frame` — → the
//!   stream decodes the [`Response`] with the public `read_frame` (the
//!   client's decode), stops the clock and hands the reply to the script.
//!
//! Request latency is therefore client encode → server decode → backend →
//! server encode → client decode, with no OS hand-off in it.

use autotune_serve::{read_frame, write_frame, Request, Response};
use std::io::{Read, Write};
use std::time::Instant;

/// A scripted client: produces requests, consumes replies.
pub trait Script {
    /// The next request, or `None` to close the connection (the server
    /// sees a clean EOF at a frame boundary and returns its backend).
    fn next_request(&mut self) -> Option<Request>;
    /// The reply to the request handed out last, with its latency.
    fn on_reply(&mut self, resp: Response, ns: u64);
}

/// One recorded interval of one request; spans of a request share its
/// index as identifier. Times are nanoseconds since the stream was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const SPAN_CLIENT_ENCODE: &str = "client.encode";
pub const SPAN_SERVER_REQUEST: &str = "server.request";
pub const SPAN_CLIENT_DECODE: &str = "client.decode";

/// The byte stream handed to `Server::new`. Borrows the script (and the
/// span sink when tracing), because `serve` consumes the stream.
pub struct ScriptStream<'a, G: Script> {
    script: &'a mut G,
    spans: Option<&'a mut Vec<Span>>,
    origin: Instant,
    inbound: Vec<u8>,
    read_pos: usize,
    outbound: Vec<u8>,
    sent: u64,
    request_start: Instant,
    server_start_ns: u64,
    max_read: usize,
}

impl<'a, G: Script> ScriptStream<'a, G> {
    /// An untraced stream: two clock reads per request.
    pub fn new(script: &'a mut G) -> Self {
        let now = Instant::now();
        ScriptStream {
            script,
            spans: None,
            origin: now,
            inbound: Vec::new(),
            read_pos: 0,
            outbound: Vec::new(),
            sent: 0,
            request_start: now,
            server_start_ns: 0,
            max_read: usize::MAX,
        }
    }

    /// A traced stream: three spans per request are pushed to `spans`.
    pub fn traced(script: &'a mut G, spans: &'a mut Vec<Span>) -> Self {
        let mut s = ScriptStream::new(script);
        s.spans = Some(spans);
        s
    }

    /// Caps how many bytes one `read` returns (partial-read testing).
    #[cfg(test)]
    pub fn with_max_read(mut self, max_read: usize) -> Self {
        self.max_read = max_read.max(1);
        self
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }
}

impl<G: Script> Read for ScriptStream<'_, G> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.read_pos == self.inbound.len() {
            let Some(req) = self.script.next_request() else {
                return Ok(0);
            };
            self.inbound.clear();
            self.read_pos = 0;
            self.request_start = Instant::now();
            write_frame(&mut self.inbound, &req).map_err(std::io::Error::other)?;
            if self.spans.is_some() {
                let encoded = Instant::now();
                let (start_ns, end_ns) = (
                    self.since_origin(self.request_start),
                    self.since_origin(encoded),
                );
                self.server_start_ns = end_ns;
                if let Some(spans) = self.spans.as_deref_mut() {
                    spans.push(Span {
                        request: self.sent,
                        name: SPAN_CLIENT_ENCODE,
                        start_ns,
                        end_ns,
                    });
                }
            }
        }
        let n = buf
            .len()
            .min(self.max_read)
            .min(self.inbound.len() - self.read_pos);
        buf[..n].copy_from_slice(&self.inbound[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

impl<G: Script> Write for ScriptStream<'_, G> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.outbound.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let flushed = self.spans.is_some().then(Instant::now);
        let resp: Response = read_frame(&mut &self.outbound[..])
            .map_err(std::io::Error::other)?
            .ok_or_else(|| std::io::Error::other("server flushed an empty frame"))?;
        let done = Instant::now();
        self.outbound.clear();
        if let Some(flushed) = flushed {
            let (flushed_ns, done_ns) = (self.since_origin(flushed), self.since_origin(done));
            let request = self.sent;
            let server_start_ns = self.server_start_ns;
            if let Some(spans) = self.spans.as_deref_mut() {
                spans.push(Span {
                    request,
                    name: SPAN_SERVER_REQUEST,
                    start_ns: server_start_ns,
                    end_ns: flushed_ns,
                });
                spans.push(Span {
                    request,
                    name: SPAN_CLIENT_DECODE,
                    start_ns: flushed_ns,
                    end_ns: done_ns,
                });
            }
        }
        self.sent += 1;
        let ns = done.duration_since(self.request_start).as_nanos() as u64;
        self.script.on_reply(resp, ns);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_serve::{CampaignRegistry, CampaignSpec, Server, SystemKind};

    /// Registers one campaign, runs it, asks for the fleet stats.
    struct ThreeRequests {
        sent: usize,
        replies: Vec<Response>,
    }

    impl Script for ThreeRequests {
        fn next_request(&mut self) -> Option<Request> {
            self.sent += 1;
            match self.sent {
                1 => Some(Request::Register {
                    spec: CampaignSpec::minimal("t", SystemKind::Redis, 4, 7),
                    request_id: None,
                }),
                2 => Some(Request::RunAll),
                3 => Some(Request::FleetStats),
                _ => None,
            }
        }
        fn on_reply(&mut self, resp: Response, _ns: u64) {
            self.replies.push(resp);
        }
    }

    fn run(max_read: usize) -> Vec<Response> {
        let mut script = ThreeRequests {
            sent: 0,
            replies: Vec::new(),
        };
        let stream = ScriptStream::new(&mut script).with_max_read(max_read);
        // A clean EOF (the script ran dry) ends `serve` with `Ok`.
        let registry = Server::new(stream, CampaignRegistry::new(1))
            .serve()
            .expect("clean EOF must end the serve loop with Ok");
        assert_eq!(registry.fleet_stats().n_done, 1);
        script.replies
    }

    #[test]
    fn framing_survives_one_byte_partial_reads() {
        let whole = run(usize::MAX);
        let dribbled = run(1);
        assert_eq!(whole.len(), 3);
        assert!(matches!(whole[0], Response::Registered { id: 0 }));
        assert!(matches!(whole[1], Response::Stepped { n_active: 0, .. }));
        assert!(matches!(&whole[2], Response::Fleet { stats } if stats.n_suggested == 4));
        assert_eq!(format!("{whole:?}"), format!("{dribbled:?}"));
    }

    #[test]
    fn traced_stream_records_three_contiguous_spans_per_request() {
        let mut script = ThreeRequests {
            sent: 0,
            replies: Vec::new(),
        };
        let mut spans = Vec::new();
        let stream = ScriptStream::traced(&mut script, &mut spans);
        Server::new(stream, CampaignRegistry::new(1))
            .serve()
            .expect("serve");
        assert_eq!(spans.len(), 9);
        for (i, req) in spans.chunks(3).enumerate() {
            assert!(req.iter().all(|s| s.request == i as u64));
            assert_eq!(
                [req[0].name, req[1].name, req[2].name],
                [SPAN_CLIENT_ENCODE, SPAN_SERVER_REQUEST, SPAN_CLIENT_DECODE]
            );
            assert_eq!(req[0].end_ns, req[1].start_ns);
            assert_eq!(req[1].end_ns, req[2].start_ns);
            assert!(req[0].start_ns <= req[0].end_ns && req[2].start_ns <= req[2].end_ns);
        }
    }
}
