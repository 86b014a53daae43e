//! `autotune-serve` — serve thousands of tuning campaigns concurrently.
//!
//! The core crate's [`Campaign`](autotune::Campaign) is an owned,
//! resumable state machine: it stages waves of trials, accepts their
//! measurements from any thread, and logs everything needed to snapshot
//! and byte-identically resume. This crate is the layer above it, for
//! the "autotuning as a service" deployments the tutorial surveys
//! (SageDB-style fleets, per-tenant database tuners): many campaigns,
//! one fair scheduler, progress for all of them.
//!
//! Three pieces:
//!
//! * [`CampaignSpec`] — a fully serializable campaign description
//!   (system, workload, objective, optimizer, schedule, seed) that
//!   builds an owned `'static` campaign. Spec + snapshot is the durable
//!   representation of a tenant's tuner.
//! * [`CampaignRegistry`] — owns N campaigns and advances them in
//!   deficit-round-robin rounds: the campaigns with a surrogate model
//!   suggest and observe side by side, one thread each, and every wave
//!   is measured on the calling thread (`workers` sizes the virtual pool
//!   its makespans are booked on); each campaign's history is
//!   byte-identical to running it alone (see the `registry` module docs
//!   for the argument).
//! * [`Server`]/[`Client`] — a typed request/response control protocol
//!   (register, step, snapshot, stats, stop) over any framed byte
//!   stream; [`pipe`] and [`spawn_server`] give an in-process deployment.
//!
//! ```
//! use autotune_serve::{spawn_server, CampaignRegistry, CampaignSpec, SystemKind};
//!
//! let (mut client, server) = spawn_server(|| CampaignRegistry::new(4));
//! let id = client
//!     .register(&CampaignSpec::minimal("tenant-0", SystemKind::Redis, 6, 42))
//!     .unwrap();
//! client.run_all().unwrap();
//! let stats = client.stats(id).unwrap();
//! assert!(stats.done && stats.n_trials > 0);
//! let snapshot = client.snapshot(id).unwrap(); // durable: spec + snapshot resumes
//! assert!(!snapshot.events.is_empty());
//! client.shutdown().unwrap();
//! server.join().unwrap().unwrap();
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod chaos;
mod durability;
mod protocol;
mod registry;
mod router;
mod spec;
mod wal;

pub use chaos::ChaosPlan;
pub use durability::{verify_wal, DurableRegistry, RecoveryReport, WalConfig};
pub use protocol::{
    pipe, read_frame, spawn_server, write_frame, Client, LookupReply, PipeEnd, Request, Response,
    ServeBackend, Server, ServerConfig, MAX_FRAME_LEN,
};
pub use registry::{AdmissionConfig, CampaignRegistry, CampaignStats, FleetStats, ServeError};
pub use router::{
    dump_wal, spawn_router_server, RouterConfig, RouterLookup, TenantRouter, WalDumpLine,
};
pub use spec::{CampaignSpec, NoiseSpec, OptimizerKind, SystemKind};
pub use wal::MemStorage;
