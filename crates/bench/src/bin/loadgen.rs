//! Wire-protocol load generator: replay an arrival trace against a
//! loopback `wisedb-serve` server and gate decision latency on the SLO.
//!
//! ```text
//! WISEDB_SCALE=quick cargo run --release -p wisedb-bench --bin loadgen
//! ```
//!
//! Replays the seeded hot trace of [`wisedb_bench::serve_load`] over one
//! connection, prints the admit/shed counters and round-trip percentiles,
//! and exits non-zero if the serve SLO is violated:
//!
//! > **p95 < 1 ms, p99 < 10 ms** (loopback, quick-scale load).
//!
//! Environment:
//! * `WISEDB_SCALE` — `quick` / `std` (default) / `paper`.
//! * `WISEDB_SLO_P95_US` / `WISEDB_SLO_P99_US` — override the SLO bounds
//!   (microseconds), e.g. for saturated CI runners.
//! * `WISEDB_SKIP_SLO=1` — report only, never fail (the regress harness
//!   gates times separately).
//! * `--clients M` / `WISEDB_CLIENTS` — replay over `M` concurrent
//!   connections (round-robin trace slices). The default `1` is the
//!   classic sequential replay, and only that mode runs the SLO gate and
//!   the per-verdict determinism asserts — concurrency reorders
//!   admission, so only the aggregate counts stay exact.
//! * `--shards N` / `WISEDB_SERVE_SHARDS` — run the server's scheduler
//!   with `N` shards (concurrent mode only). Every shard count
//!   coalesces a wakeup's backlog into one multi-class tick; `1` plans
//!   it on the scheduler thread, `N > 1` on `N` shard worker threads.
//! * `--trace <path>` — record the replay with full `wisedb-obs` spans,
//!   write a Chrome trace-event JSON to `path`, validate it by parsing
//!   it back (see `wisedb_bench::trace_check`), and require the serve
//!   pipeline spans plus a non-trivial wire `Telemetry` exposition. Note
//!   tracing adds overhead — CI runs the SLO gate untraced.

use wisedb_bench::{serve_load, trace_check, Scale, Table};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// `--<flag> <n>` / `--<flag>=<n>`, then the environment variable, then
/// the default. Invalid values abort — a CI sweep must not silently fall
/// back.
fn usize_arg(flag: &str, env: &str, default: usize) -> usize {
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
        })
        .or_else(|| std::env::var(env).ok());
    match raw {
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("invalid {long}/{env} value {raw:?}")),
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
    let clients = usize_arg("clients", "WISEDB_CLIENTS", 1);
    let shards = usize_arg("shards", "WISEDB_SERVE_SHARDS", 1);
    let concurrent = clients > 1 || shards > 1;
    eprintln!(
        "loadgen: training the serve scenario service ({} requests)...",
        serve_load::requests(scale)
    );
    let service = serve_load::build_service(scale);
    // The collector installs after training: a `--trace` artifact covers
    // the serve replay itself, not model construction.
    let tracing = wisedb_bench::trace_collector_from_args();
    let report = if concurrent {
        eprintln!(
            "loadgen: replaying the trace over {clients} loopback connections \
             ({shards} scheduler shard{})...",
            if shards == 1 { "" } else { "s" }
        );
        serve_load::run_concurrent(service, scale, clients, shards)
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

    if concurrent {
        // The SLO is defined for the sequential single-connection replay;
        // concurrent mode measures contention, it does not gate on it.
        eprintln!("loadgen: SLO gate skipped (concurrent mode is report-only)");
        return;
    }
    if std::env::var("WISEDB_SKIP_SLO").as_deref() == Ok("1") {
        eprintln!("loadgen: SLO gate skipped (WISEDB_SKIP_SLO=1)");
        return;
    }
    let p95_bound = env_f64("WISEDB_SLO_P95_US", 1_000.0);
    let p99_bound = env_f64("WISEDB_SLO_P99_US", 10_000.0);
    let mut violated = false;
    if report.p95_us >= p95_bound {
        eprintln!(
            "loadgen: SLO VIOLATION: p95 {:.0}us >= {:.0}us",
            report.p95_us, p95_bound
        );
        violated = true;
    }
    if report.p99_us >= p99_bound {
        eprintln!(
            "loadgen: SLO VIOLATION: p99 {:.0}us >= {:.0}us",
            report.p99_us, p99_bound
        );
        violated = true;
    }
    if violated {
        std::process::exit(1);
    }
    eprintln!(
        "loadgen: SLO met (p95 {:.0}us < {:.0}us, p99 {:.0}us < {:.0}us)",
        report.p95_us, p95_bound, report.p99_us, p99_bound
    );
}
