//! # wisedb-serve
//!
//! The network-facing scheduler service: the WiSeDB online
//! workload-management loop ([`wisedb_runtime::WorkloadService`]) behind
//! a TCP wire protocol, so the advisor can be *deployed* — clients offer
//! arrivals over a socket and get back the same admit/shed verdicts and
//! metrics the in-process API yields, bit for bit.
//!
//! * [`frame`] — the versioned binary frame: magic, version, kind,
//!   big-endian length, payload; hostile lengths capped, truncation and
//!   garbage turned into typed errors.
//! * [`wire`] — the JSON request/response vocabulary (`Offer`,
//!   `Metrics`, `SwapModel`, `Shutdown` / `Admitted`, `Shed`,
//!   `Metrics`, `Ok`, `Error`), built on the workspace's serde'd core
//!   types.
//! * [`batch`] — the scheduler thread's command queue plus the
//!   drain-and-coalesce policy: under load, the offers between two
//!   control commands plan as one per-class-grouped `offer_tick`.
//! * [`server`] — accept loop, bounded worker pool, ONE scheduler
//!   thread owning the service (determinism preserved), background
//!   trainer threads for hot model swaps.
//! * [`client`] — a blocking client mirroring the in-process surface.
//! * [`error`] — the per-layer error taxonomy; nothing on the request
//!   path panics the server.
//!
//! ## Service-level objective
//!
//! Decision latency over loopback at quick-scale load: **p95 < 1 ms,
//! p99 < 10 ms** (see `wisedb-bench --bin loadgen`, which gates these
//! and feeds the regress counters). Overload degrades gracefully: the
//! admission policy's verdict ships as a [`wire::Response::Shed`] frame,
//! never a dropped connection.
//!
//! ## Quickstart
//!
//! ```
//! use wisedb_serve::prelude::*;
//! use wisedb_advisor::{ModelConfig, OnlineConfig};
//! use wisedb_core::{GoalKind, Millis, PerformanceGoal, TemplateId, TenantId, VmType, WorkloadSpec};
//! use wisedb_runtime::{OfferOutcome, RuntimeConfig, WorkloadService};
//!
//! let spec = WorkloadSpec::single_vm(
//!     vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
//!     VmType::t2_medium(),
//! )
//! .unwrap();
//! let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
//! let config = RuntimeConfig {
//!     online: OnlineConfig {
//!         training: ModelConfig { num_samples: 40, sample_size: 5, ..ModelConfig::fast() },
//!         ..OnlineConfig::default()
//!     },
//!     ..RuntimeConfig::default()
//! };
//! let service = WorkloadService::train(spec, goal, config).unwrap();
//!
//! // Serve it on a loopback port, drive it over the wire, wind it down.
//! let handle = Server::spawn(service, ServeConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let outcome = client
//!     .offer(TenantId::DEFAULT, TemplateId(0), Millis::from_secs(1))
//!     .unwrap();
//! assert_eq!(outcome, OfferOutcome::Admitted);
//! let snapshot = client.metrics().unwrap();
//! assert_eq!(snapshot.admitted, 1);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod client;
pub mod error;
pub mod frame;
pub mod server;
pub mod wire;

pub use client::Client;
pub use error::{ServeError, ServeResult};
pub use server::{ServeConfig, Server, ServerHandle};
pub use wire::{Request, Response};

/// One-stop imports for serving and talking to a scheduler over TCP.
pub mod prelude {
    pub use crate::client::Client;
    pub use crate::error::{ServeError, ServeResult};
    pub use crate::server::{ServeConfig, Server, ServerHandle};
    pub use crate::wire::{Request, Response};
}
