//! A blocking client for the serve wire protocol.
//!
//! One [`Client`] is one TCP connection speaking request/response in
//! lockstep — exactly what the load generator and the e2e tests need.
//! Typed helpers mirror the in-process [`WorkloadService`] surface:
//! [`Client::offer`] returns the same [`OfferOutcome`] the service
//! would, and [`Client::metrics`] the same `MetricsSnapshot`, so a wire
//! run can be compared bit-for-bit against an in-process run.
//!
//! [`WorkloadService`]: wisedb_runtime::WorkloadService

use std::net::{TcpStream, ToSocketAddrs};

use wisedb_core::{MetricsSnapshot, Millis, TemplateId, TenantId};
use wisedb_runtime::OfferOutcome;

use crate::error::{ServeError, ServeResult};
use crate::frame::{read_frame, write_frame, FrameKind, FrameRead};
use crate::wire::{decode_response, encode_request, Request, Response};

/// A blocking connection to a [`Server`](crate::Server).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects and disables Nagle (requests are tiny and round-trip
    /// latency is the service-level objective).
    pub fn connect(addr: impl ToSocketAddrs) -> ServeResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request and blocks for its response frame.
    pub fn request(&mut self, request: &Request) -> ServeResult<Response> {
        let payload = encode_request(request)?;
        write_frame(&mut self.stream, FrameKind::Request, &payload)?;
        match read_frame(&mut self.stream)? {
            FrameRead::Frame(FrameKind::Response, payload) => decode_response(&payload),
            FrameRead::Frame(FrameKind::Request, _) => Err(ServeError::Frame {
                detail: "server sent a request frame".to_string(),
            }),
            FrameRead::Eof | FrameRead::Idle => Err(ServeError::Disconnected),
        }
    }

    /// Offers one arrival; `Admitted`/`Shed` mirrors
    /// `WorkloadService::offer_as`, and a server-side failure (unknown
    /// class, inconsistent plan) comes back as [`ServeError::Remote`].
    pub fn offer(
        &mut self,
        class: TenantId,
        template: TemplateId,
        at: Millis,
    ) -> ServeResult<OfferOutcome> {
        match self.request(&Request::Offer {
            class,
            template,
            at,
        })? {
            Response::Admitted => Ok(OfferOutcome::Admitted),
            Response::Shed => Ok(OfferOutcome::Shed),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches a live metrics snapshot.
    pub fn metrics(&mut self) -> ServeResult<MetricsSnapshot> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(*snapshot),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the observability exposition: the server's `wisedb-obs`
    /// metrics registry rendered as Prometheus-style text.
    pub fn telemetry(&mut self) -> ServeResult<String> {
        match self.request(&Request::Telemetry)? {
            Response::Telemetry { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Schedules a background retrain-and-swap of `class`'s model.
    pub fn swap_model(&mut self, class: TenantId, seed: u64) -> ServeResult<()> {
        match self.request(&Request::SwapModel { class, seed })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to stop accepting and wind down.
    pub fn shutdown(&mut self) -> ServeResult<()> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(response: Response) -> ServeError {
    match response {
        Response::Error { message } => ServeError::Remote { message },
        other => ServeError::Payload {
            detail: format!("unexpected response {other:?}"),
        },
    }
}
