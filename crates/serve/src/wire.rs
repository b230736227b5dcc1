//! The wire vocabulary: what requests and responses say.
//!
//! Payloads are externally-tagged JSON (`{"Offer": {...}}`), carried
//! inside the binary frames of [`crate::frame`]. JSON keeps the payloads
//! inspectable and versionable; the frame header keeps the stream
//! self-delimiting. Both directions reuse the workspace's core types
//! (`TenantId`, `TemplateId`, `Millis`, `MetricsSnapshot`) so a response
//! deserializes straight into what the in-process API would have
//! returned — the bit-identity e2e tests compare them directly.

use serde::{Deserialize, Serialize};
use wisedb_core::{MetricsSnapshot, Millis, TemplateId, TenantId};

use crate::error::{ServeError, ServeResult};

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Offer one arrival of `class` at virtual time `at` — the wire form
    /// of [`WorkloadService::offer_as`](wisedb_runtime::WorkloadService::offer_as).
    Offer {
        /// The arrival's SLA class.
        class: TenantId,
        /// The arriving query's template.
        template: TemplateId,
        /// The arrival's virtual-clock instant.
        at: Millis,
    },
    /// Ask for a [`MetricsSnapshot`] of the service right now.
    Metrics,
    /// Kick off a background retrain of `class`'s decision model with
    /// sampling seed `seed`; the server swaps the new model in (fresh
    /// caches) once training finishes, without stopping the loop.
    /// Training artifacts never cross the wire — they are rebuilt
    /// server-side.
    SwapModel {
        /// Which class's model to retrain.
        class: TenantId,
        /// Sampling seed for the replacement model.
        seed: u64,
    },
    /// Ask for the observability exposition: the `wisedb-obs` metrics
    /// registry (counters, gauges, histograms) rendered as a
    /// Prometheus-style text snapshot, plus live service gauges. Always
    /// answered; with tracing disabled the payload is just the header.
    Telemetry,
    /// Stop accepting connections and wind the server down.
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The offered arrival was admitted and planned onto the fleet.
    Admitted,
    /// The offered arrival was shed by admission control — graceful
    /// degradation under overload, a first-class answer rather than a
    /// dropped connection.
    Shed,
    /// The requested metrics snapshot (boxed: it is far larger than every
    /// other response).
    Metrics(Box<MetricsSnapshot>),
    /// The observability exposition text (see [`Request::Telemetry`]).
    Telemetry {
        /// Prometheus-style text exposition, newline-delimited.
        text: String,
    },
    /// The request was accepted (swap scheduled, shutdown begun).
    Ok,
    /// The request failed server-side. The connection stays open unless
    /// the failure was a framing violation.
    Error {
        /// Human-readable failure, usually a rendered `CoreError`.
        message: String,
    },
}

/// Encodes a request as a JSON payload.
pub fn encode_request(req: &Request) -> ServeResult<Vec<u8>> {
    encode(req)
}

/// Encodes a response as a JSON payload.
pub fn encode_response(resp: &Response) -> ServeResult<Vec<u8>> {
    encode(resp)
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> ServeResult<Request> {
    decode(payload)
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> ServeResult<Response> {
    decode(payload)
}

fn encode<T: Serialize>(value: &T) -> ServeResult<Vec<u8>> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| ServeError::Payload {
            detail: format!("encoding failed: {e}"),
        })
}

fn decode<T: Deserialize>(payload: &[u8]) -> ServeResult<T> {
    let text = std::str::from_utf8(payload).map_err(|e| ServeError::Payload {
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| ServeError::Payload {
        detail: format!("payload is not a valid message: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Offer {
                class: TenantId(2),
                template: TemplateId(1),
                at: Millis::from_secs(30),
            },
            Request::Metrics,
            Request::SwapModel {
                class: TenantId(0),
                seed: 4242,
            },
            Request::Telemetry,
            Request::Shutdown,
        ];
        for req in &reqs {
            let bytes = encode_request(req).unwrap();
            assert_eq!(&decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Admitted,
            Response::Shed,
            Response::Ok,
            Response::Telemetry {
                text: "# wisedb-obs exposition\nwisedb_up 1\n".into(),
            },
            Response::Error {
                message: "no such class".into(),
            },
        ];
        for resp in &resps {
            let bytes = encode_response(resp).unwrap();
            assert_eq!(&decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn garbage_payloads_are_payload_errors() {
        assert!(matches!(
            decode_request(b"\xFF\xFE not utf8"),
            Err(ServeError::Payload { detail }) if detail.contains("UTF-8")
        ));
        assert!(matches!(
            decode_request(b"{\"NoSuchVariant\": 3}"),
            Err(ServeError::Payload { .. })
        ));
        assert!(matches!(
            decode_response(b"[1, 2"),
            Err(ServeError::Payload { .. })
        ));
    }
}
