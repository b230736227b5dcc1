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
//! * `batch` — the scheduler thread's command queue plus the
//!   drain-and-coalesce policy: under load, the offers between two
//!   control commands plan as one per-class-grouped `offer_tick`.
//! * `server` — accept loop, bounded worker pool, ONE scheduler
//!   thread owning the service (determinism preserved), background
//!   trainer threads for hot model swaps ([`Server`], [`ServeConfig`],
//!   [`ServerHandle`]).
//! * `client` — a blocking [`Client`] mirroring the in-process surface.
//! * `error` — the per-layer error taxonomy ([`ServeError`]); nothing on
//!   the request path panics the server.
//!
//! ## Service-level objective
//!
//! Offer round trips over loopback: **p95 < 1 ms, p99 < 10 ms**, adopted
//! as targets and measured by the repo benchmark's `serve-steady` and
//! `serve-aged` workloads (ARCHITECTURE.md, "Performance targets"); no
//! test gates them. Overload degrades gracefully: the
//! admission policy's verdict ships as a [`wire::Response::Shed`] frame,
//! never a dropped connection.
//!
//! ## Quickstart
//!
//! ```
//! use wisedb_serve::{Client, ServeConfig, Server};
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
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod batch;
mod client;
mod error;
pub mod frame;
mod server;
pub mod wire;

pub use client::Client;
pub use error::ServeError;
pub use server::{ServeConfig, Server, ServerHandle};
pub use wire::{Request, Response};
