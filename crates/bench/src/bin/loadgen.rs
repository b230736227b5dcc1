//! Wire-protocol load generator: replay an arrival trace against a
//! loopback `wisedb-serve` server and check that every offer is answered
//! exactly once.
//!
//! ```text
//! WISEDB_SCALE=quick cargo run --release -p wisedb-bench --bin loadgen
//! ```
//!
//! Replays the seeded hot trace of [`wisedb_bench::serve_load`] over one
//! connection, prints the admit/shed counters and round-trip percentiles,
//! and asserts that the server's admit/shed totals equal the client's.
//! The percentiles are a report: offer latency is measured, and its
//! targets are validated, by `benchmark/` (ARCHITECTURE.md, "Performance
//! targets").
//!
//! Environment and flags:
//! * `WISEDB_SCALE` — `quick` / `std` (default) / `paper`.
//! * `--clients M` — replay over `M` concurrent connections (round-robin
//!   trace slices). The default `1` is the classic sequential replay;
//!   concurrency reorders admission, so only the aggregate counts stay
//!   exact.
//! * `--trace <path>` — record the replay with full `wisedb-obs` spans,
//!   write a Chrome trace-event JSON to `path`, validate it by parsing
//!   it back (see `wisedb_bench::trace_check`), and require the serve
//!   pipeline spans plus a non-trivial wire `Telemetry` exposition.

use wisedb_bench::{serve_load, trace_check, Scale, Table};

/// `--<flag> <n>` / `--<flag>=<n>`, else the default. Invalid values
/// abort — a CI sweep must not silently fall back.
fn usize_arg(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    let long = format!("--{flag}");
    let prefixed = format!("--{flag}=");
    let raw = args
        .iter()
        .position(|a| *a == long)
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{long} requires a value"))
                .clone()
        })
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&prefixed).map(str::to_string))
        });
    match raw {
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("invalid {long} value {raw:?}")),
        None => default,
    }
}

/// The `--trace` smoke: the artifact must parse back as well-formed
/// Chrome JSON, contain every serve pipeline stage, and the wire
/// telemetry must have recorded the replay's connections.
fn validate_trace(path: &std::path::Path, report: &serve_load::LoadReport) {
    let text = std::fs::read_to_string(path).expect("trace artifact is readable");
    let check = trace_check::validate_chrome_trace(&text)
        .unwrap_or_else(|e| panic!("trace artifact failed validation: {e}"));
    for span in [
        "serve.decode",
        "serve.dispatch",
        "serve.encode",
        "serve.tick",
        "serve.plan",
        "serve.queue_wait",
    ] {
        assert!(
            check.span(span).count > 0,
            "trace artifact has no {span} spans"
        );
    }
    assert!(
        report.telemetry.contains("wisedb_serve_connections_total"),
        "wire telemetry did not expose the serve counters:\n{}",
        report.telemetry
    );
    // The worker-side pipeline spans (decode → dispatch → encode) are
    // disjoint intervals inside each round trip, so their sum can never
    // exceed the client's summed round-trip time — and must account for
    // a healthy share of it (the rest is socket transit and client
    // syscalls, invisible to server-side spans; ~55–60% covered on an
    // idle machine, floor set low for saturated CI runners).
    let pipeline_us = check.span("serve.decode").total_us
        + check.span("serve.dispatch").total_us
        + check.span("serve.encode").total_us;
    let coverage = pipeline_us as f64 / report.total_us.max(1) as f64;
    assert!(
        pipeline_us <= report.total_us,
        "server-side spans ({pipeline_us}us) exceed the summed round trips ({}us)",
        report.total_us
    );
    assert!(
        coverage >= 0.30,
        "server-side spans cover only {:.0}% of the round trips",
        coverage * 100.0
    );
    eprintln!(
        "loadgen: trace validated ({} events, {} serve.dispatch spans, \
         {:.0}% of round-trip time in server spans, telemetry {} bytes)",
        check.events,
        check.span("serve.dispatch").count,
        coverage * 100.0,
        report.telemetry.len()
    );
}

fn main() {
    let scale = Scale::from_env();
    let clients = usize_arg("clients", 1);
    eprintln!(
        "loadgen: training the serve scenario service ({} requests)...",
        serve_load::requests(scale)
    );
    let service = serve_load::build_service(scale);
    // The collector installs after training: a `--trace` artifact covers
    // the serve replay itself, not model construction.
    let tracing = wisedb_bench::trace_collector_from_args();
    let report = if clients > 1 {
        eprintln!("loadgen: replaying the trace over {clients} loopback connections...");
        serve_load::run_concurrent(service, scale, clients)
    } else {
        eprintln!("loadgen: replaying the trace over loopback TCP...");
        serve_load::run(service, scale)
    };
    if let Some((collector, path)) = tracing {
        wisedb_bench::finish_trace(collector, &path);
        validate_trace(&path, &report);
    }

    let mut table = Table::new(
        "serve decision latency over loopback TCP",
        &[
            "requests",
            "admitted",
            "shed",
            "shed_rate",
            "p50_us",
            "p95_us",
            "p99_us",
        ],
    );
    table.row(&[
        report.n.to_string(),
        report.admitted.to_string(),
        report.shed.to_string(),
        format!("{:.3}", report.shed_rate()),
        format!("{:.0}", report.p50_us),
        format!("{:.0}", report.p95_us),
        format!("{:.0}", report.p99_us),
    ]);
    table.print();
    println!(
        "server snapshot: {} admitted, {} rejected, {} completed",
        report.snapshot.admitted, report.snapshot.rejected, report.snapshot.completed
    );

    // The wire and the in-process loop must agree on every verdict —
    // even concurrent replay conserves the totals, since every offer is
    // answered exactly once.
    assert_eq!(
        report.snapshot.admitted, report.admitted,
        "server-side admit count must match the clients'"
    );
    assert_eq!(
        report.snapshot.rejected, report.shed,
        "server-side shed count must match the clients'"
    );
}
