//! The serve layer, end to end (tier 1).
//!
//! Three guarantees the TCP front-end must keep:
//!
//! 1. **The wire adds no semantics.** Replaying a fixed-seed trace
//!    through a loopback [`Server`] must reproduce an in-process
//!    [`WorkloadService`] run bit-identically — same verdict per arrival,
//!    same completions, same metrics (wall-clock decision overhead aside)
//!    — for every goal kind.
//! 2. **Overload degrades gracefully.** Under `PriorityShed` admission a
//!    synchronized burst sheds bronze with typed `Shed` frames while gold
//!    survives; no request is ever answered by a dropped connection.
//! 3. **A hostile byte stream cannot take the server down.** Malformed
//!    frames get one `Error` frame and a close; garbage payloads fail
//!    only their own request; truncated frames are dropped silently — and
//!    in every case the listener keeps accepting fresh connections.
//!
//! A fourth test checks what the server records about itself: a traced
//! replay emits every serve pipeline span, its Chrome export validates,
//! and the wire `Telemetry` request returns the serve counters. The
//! tracing level is process-global, so every test here that spawns a
//! server holds [`wisedb::obs::testing::hold`]: another test's server
//! must not leave half-open spans in the traced replay.

use std::io::Write as _;
use std::net::TcpStream;

use wisedb::obs::{self, Level};
use wisedb::prelude::*;
use wisedb::runtime::{generate_class_stream, generate_stream, OfferOutcome};
use wisedb_bench::trace_check;
use wisedb_core::ArrivingQuery;
use wisedb_serve::frame::{read_frame, write_frame, FrameKind, FrameRead};
use wisedb_serve::wire::{decode_response, Response};
use wisedb_serve::{Client, ServeConfig, ServeError, Server};

fn spec() -> WorkloadSpec {
    wisedb::sim::catalog::tpch_like(4)
}

fn tiny_training() -> ModelConfig {
    ModelConfig {
        num_samples: 48,
        sample_size: 6,
        seed: 23,
        ..ModelConfig::fast()
    }
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        online: OnlineConfig {
            training: tiny_training(),
            age_quantum: Millis::from_secs(30),
            ..OnlineConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

/// Zeroes the only machine-dependent snapshot fields — scheduler
/// wall-clock overhead — so two runs of identical *decisions* compare
/// equal.
fn scrub(mut snapshot: MetricsSnapshot) -> MetricsSnapshot {
    snapshot.mean_decision_secs = 0.0;
    snapshot.p95_decision_secs = 0.0;
    snapshot
}

/// Replays `stream` over one client connection, returning the verdicts,
/// the final server-side snapshot (fetched over the wire), and the
/// service itself (recovered from the joined server).
fn replay_over_wire(
    service: WorkloadService,
    stream: &[ArrivingQuery],
) -> (Vec<OfferOutcome>, MetricsSnapshot, WorkloadService) {
    let handle = Server::spawn(service, ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let outcomes = stream
        .iter()
        .map(|q| client.offer(q.class, q.template, q.arrival).unwrap())
        .collect();
    let snapshot = client.metrics().unwrap();
    client.shutdown().unwrap();
    let service = handle.join().expect("the scheduler hands the service back");
    (outcomes, snapshot, service)
}

/// Invariant 1: for every goal kind, the TCP path and the in-process path
/// make identical decisions on a fixed-seed trace — verdict by verdict,
/// completion by completion, and in the final metrics snapshot.
#[test]
fn wire_replay_is_bit_identical_to_in_process() {
    let _hold = obs::testing::hold();
    let spec = spec();
    let mut process = PoissonProcess::per_second(0.02, TemplateMix::uniform(spec.num_templates()));
    let stream = generate_stream(&mut process, 14, 0x5E12E);

    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();

        let mut local = WorkloadService::train(spec.clone(), goal.clone(), config()).unwrap();
        let mut local_outcomes = Vec::with_capacity(stream.len());
        for q in &stream {
            let admitted = local.offer_as(q.template, q.class, q.arrival).unwrap();
            local_outcomes.push(if admitted {
                OfferOutcome::Admitted
            } else {
                OfferOutcome::Shed
            });
        }

        let served = WorkloadService::train(spec.clone(), goal, config()).unwrap();
        let (wire_outcomes, wire_snapshot, served) = replay_over_wire(served, &stream);

        assert_eq!(
            wire_outcomes,
            local_outcomes,
            "{}: the wire changed an admission verdict",
            kind.name()
        );
        assert_eq!(
            served.completions(),
            local.completions(),
            "{}: the wire changed a placement or a finish time",
            kind.name()
        );
        assert_eq!(
            scrub(wire_snapshot),
            scrub(local.snapshot()),
            "{}: the wire changed the metrics",
            kind.name()
        );
        // The snapshot fetched over the wire is the joined service's own.
        assert_eq!(scrub(served.snapshot()), scrub(local.snapshot()));
    }
}

/// Invariant 2: a synchronized two-class burst under `PriorityShed` sheds
/// bronze via typed `Shed` frames while gold is never shed — and the shed
/// pattern is exactly what the in-process service produces.
#[test]
fn overload_sheds_bronze_but_not_gold_over_the_wire() {
    let _hold = obs::testing::hold();
    let spec = spec();
    let classes = vec![
        SlaClass::new(
            "gold",
            PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap(),
        )
        .with_priority(2),
        SlaClass::new(
            "bronze",
            PerformanceGoal::paper_default(GoalKind::AverageLatency, &spec).unwrap(),
        ),
    ];
    let mut cfg = config();
    cfg.admission = AdmissionPolicy::PriorityShed {
        base: 1,
        per_priority: 3,
    };

    // A hard burst: 10 arrivals per class inside 10 virtual seconds.
    let streams = (0..2u32)
        .map(|c| {
            let mut p = PoissonProcess::per_second(1.0, TemplateMix::uniform(2));
            generate_class_stream(&mut p, 10, 7 + c as u64, TenantId(c))
        })
        .collect();
    let stream = merge_streams(streams);

    let mut local =
        WorkloadService::train_classes(spec.clone(), classes.clone(), cfg.clone()).unwrap();
    let mut local_outcomes = Vec::with_capacity(stream.len());
    for q in &stream {
        let admitted = local.offer_as(q.template, q.class, q.arrival).unwrap();
        local_outcomes.push(if admitted {
            OfferOutcome::Admitted
        } else {
            OfferOutcome::Shed
        });
    }

    let served = WorkloadService::train_classes(spec, classes, cfg).unwrap();
    let (wire_outcomes, snapshot, _served) = replay_over_wire(served, &stream);

    // Every request was answered with a typed verdict (the replay above
    // unwraps each response), and the verdicts match in-process exactly.
    assert_eq!(wire_outcomes, local_outcomes);

    let shed_of = |class: TenantId| {
        stream
            .iter()
            .zip(&wire_outcomes)
            .filter(|(q, o)| q.class == class && **o == OfferOutcome::Shed)
            .count()
    };
    let (gold_shed, bronze_shed) = (shed_of(TenantId(0)), shed_of(TenantId(1)));
    assert!(bronze_shed > 0, "the burst must overload bronze admission");
    assert!(
        gold_shed < bronze_shed,
        "gold (priority 2) must shed less than bronze ({gold_shed} vs {bronze_shed})"
    );
    // The per-class rows agree with the per-verdict tally.
    assert_eq!(snapshot.classes[1].rejected, bronze_shed as u64);
    assert_eq!(snapshot.classes[0].rejected, gold_shed as u64);
}

fn quick_service() -> WorkloadService {
    let spec = spec();
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    WorkloadService::train(spec, goal, config()).unwrap()
}

/// Under full spans, a loopback replay records all six serve pipeline
/// spans, its Chrome export passes the structural validation, and the
/// wire `Telemetry` request exposes the serve counters.
#[test]
fn traced_replay_records_the_serve_pipeline_and_serves_telemetry() {
    let _hold = obs::testing::hold();
    let service = quick_service();
    let mut process = PoissonProcess::per_second(2.0, TemplateMix::uniform(spec().num_templates()));
    let stream = generate_stream(&mut process, 16, 0x10AD);

    // Installed after training, so the trace covers the replay alone.
    let collector = obs::install(Level::Spans);
    let handle = Server::spawn(service, ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for q in &stream {
        client.offer(q.class, q.template, q.arrival).unwrap();
    }
    let telemetry = client.telemetry().unwrap();
    client.shutdown().unwrap();
    handle.join();
    let trace = collector.finish();

    let check = trace_check::validate_chrome_trace(&trace.to_chrome())
        .unwrap_or_else(|e| panic!("chrome export failed validation: {e}"));
    for span in [
        "serve.decode",
        "serve.dispatch",
        "serve.encode",
        "serve.tick",
        "serve.plan",
        "serve.queue_wait",
    ] {
        assert!(check.span(span).count > 0, "the trace has no {span} spans");
    }
    assert!(
        telemetry.contains("wisedb_serve_connections_total"),
        "wire telemetry did not expose the serve counters:\n{telemetry}"
    );
}

/// Reads the one frame a raw-socket experiment expects back.
fn read_response(stream: &mut TcpStream) -> Response {
    match read_frame(stream).unwrap() {
        FrameRead::Frame(FrameKind::Response, payload) => decode_response(&payload).unwrap(),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

/// Invariant 3: malformed bytes, garbage payloads, truncated frames, and
/// backwards frame kinds each get the documented answer — and none of
/// them stop the server from serving the next request. Each of these
/// failure paths used to be silent on the server side; now every one
/// must leave a `wisedb-obs` event carrying the connection id.
#[test]
fn hostile_byte_streams_never_take_the_server_down() {
    let _hold = wisedb::obs::testing::hold();
    let collector = wisedb::obs::install(wisedb::obs::Level::Counters);
    let handle = Server::spawn(quick_service(), ServeConfig::default()).unwrap();
    let addr = handle.addr();

    // (a) Bad magic: one Error frame, then the connection closes — the
    // byte stream can no longer be trusted. (Exactly two bytes: the
    // server stops reading at the magic check, and bytes it never read
    // would turn the close into a reset.)
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xDE, 0xAD]).unwrap();
    match read_response(&mut raw) {
        Response::Error { message } => {
            assert!(message.contains("malformed frame"), "got {message:?}")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut raw).unwrap(), FrameRead::Eof),
        "a framing violation must close the connection"
    );

    // (b) A client must not send Response frames: same answer-then-close.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, FrameKind::Response, b"{\"Ok\":null}").unwrap();
    match read_response(&mut raw) {
        Response::Error { message } => {
            assert!(message.contains("protocol violation"), "got {message:?}")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(matches!(read_frame(&mut raw).unwrap(), FrameRead::Eof));

    // (c) Garbage JSON in a well-formed frame fails only that request —
    // the same connection keeps working.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, FrameKind::Request, b"{\"NoSuchRequest\": 3}").unwrap();
    match read_response(&mut raw) {
        Response::Error { message } => assert!(message.contains("payload"), "got {message:?}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    write_frame(&mut raw, FrameKind::Request, b"\"Metrics\"").unwrap();
    assert!(matches!(read_response(&mut raw), Response::Metrics(_)));

    // (d) A frame truncated mid-header, then a hangup: dropped silently.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0x57]).unwrap();
    drop(raw);

    // After all of the above, a fresh client still gets real service.
    let mut client = Client::connect(addr).unwrap();
    let outcome = client
        .offer(TenantId::DEFAULT, TemplateId(0), Millis::from_secs(1))
        .unwrap();
    assert_eq!(outcome, OfferOutcome::Admitted);
    client.shutdown().unwrap();
    // `join` joins the worker pool, so every connection's events have
    // been emitted by the time the collector drains.
    handle.join();

    let trace = collector.finish();
    let named = |name: &str| {
        trace
            .events
            .iter()
            .filter(|e| e.name == name)
            .collect::<Vec<_>>()
    };
    // (a) bad magic and (b) a backwards frame kind are both framing
    // violations; (c)'s garbage payload fails only its own request; (d)'s
    // mid-header hangup surfaces as a connection drop with a reason.
    let violations = named("serve.framing_violation");
    assert!(
        violations.len() >= 2,
        "expected framing-violation events for (a) and (b), got {}",
        violations.len()
    );
    let errors = named("serve.request_error");
    assert!(
        !errors.is_empty(),
        "the garbage payload must leave a request-error event"
    );
    let drops = named("serve.connection_drop");
    assert!(
        !drops.is_empty(),
        "the truncated-header hangup must leave a connection-drop event"
    );
    for event in violations.iter().chain(&errors).chain(&drops) {
        assert!(
            event.attrs.iter().any(|(k, _)| *k == "conn"),
            "{} event is missing its connection id: {:?}",
            event.name,
            event.attrs
        );
    }
    for event in &drops {
        assert!(
            event.attrs.iter().any(|(k, _)| *k == "reason"),
            "connection drops must say why: {:?}",
            event.attrs
        );
    }
}

/// Service-level failures (unknown class, template outside the spec or
/// the class subset, bad swap target) cross the wire as typed `Error`
/// responses on a connection that stays open — never as a hangup. Each
/// also leaves a `serve.request_error` event naming the connection and
/// carrying the message the client saw.
#[test]
fn core_errors_cross_the_wire_as_error_frames() {
    let _hold = wisedb::obs::testing::hold();
    let collector = wisedb::obs::install(wisedb::obs::Level::Counters);
    let handle = Server::spawn(quick_service(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown tenant class.
    match client.offer(TenantId(9), TemplateId(0), Millis::ZERO) {
        Err(ServeError::Remote { message }) => {
            assert!(message.contains("unknown tenant class"), "got {message:?}")
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    // Template outside the spec.
    match client.offer(TenantId::DEFAULT, TemplateId(99), Millis::ZERO) {
        Err(ServeError::Remote { message }) => {
            assert!(message.contains("outside the spec"), "got {message:?}")
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    // Retraining an unknown class fails the same way.
    match client.swap_model(TenantId(9), 1) {
        Err(ServeError::Remote { .. }) => {}
        other => panic!("expected a remote error, got {other:?}"),
    }

    // The connection survived all three failures and still serves.
    let outcome = client
        .offer(TenantId::DEFAULT, TemplateId(1), Millis::from_secs(2))
        .unwrap();
    assert_eq!(outcome, OfferOutcome::Admitted);
    // A valid retrain request is accepted (applied asynchronously).
    client.swap_model(TenantId::DEFAULT, 7).unwrap();
    client.shutdown().unwrap();
    handle.join();

    let trace = collector.finish();
    let errors: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "serve.request_error")
        .collect();
    assert!(
        errors.len() >= 3,
        "three failed requests must leave three request-error events, got {}",
        errors.len()
    );
    let message_of = |e: &wisedb::obs::Event| {
        e.attrs.iter().find_map(|(k, v)| match (k, v) {
            (&"message", wisedb::obs::AttrValue::Str(s)) => Some(s.clone()),
            _ => None,
        })
    };
    for event in &errors {
        assert!(event.attrs.iter().any(|(k, _)| *k == "conn"));
        assert!(
            message_of(event).is_some(),
            "error events carry the message"
        );
    }
    assert!(
        errors
            .iter()
            .any(|e| message_of(e).is_some_and(|m| m.contains("unknown tenant class"))),
        "the unknown-class failure must be attributable from the event log"
    );
}
