//! Scheduler-sharding scaling curve: decisions per second vs shard count.
//!
//! ```text
//! WISEDB_SCALE=quick cargo run --release -p wisedb-bench --bin scaling
//! ```
//!
//! Trains one model per tenant class (once), generates one multi-class
//! trace (10⁶ queries at paper scale), then replays it through
//! identically built [`WorkloadService`]s at each swept shard count,
//! printing the throughput curve. Two invariants are *asserted*, not just
//! reported:
//!
//! * every shard count's scrubbed final snapshot and completion
//!   fingerprint are **bit-identical** to the 1-shard run's;
//! * peak RSS stays **flat (±10%)** across shard counts — sharding fans
//!   out planning, it does not replicate state. Skipped when
//!   `/proc/self/status` is unavailable or `WISEDB_SKIP_RSS_GATE=1`
//!   (e.g. under sanitizers, whose shadow memory scales with threads).
//!
//! The curve itself is reported without a monotonicity gate — this bin
//! runs on whatever core count the host has. `--smoke` adds the CI gate:
//! shards=2 must reach ≥ 1.15× the shards=1 throughput, asserted only
//! when the host has more than one CPU (printed as skipped otherwise).
//!
//! [`WorkloadService`]: wisedb_runtime::WorkloadService

use wisedb_bench::{scaling, Scale, Table};

fn main() {
    // glibc grows one malloc arena per allocating thread and retains its
    // peak forever, so a multi-worker sweep would measure the allocator
    // (+~64 MB per shard worker), not the scheduler. Pin to one arena —
    // identical allocation behaviour for every shard count, honest
    // peak-RSS comparison — by re-execing once with the knob set (it is
    // only read at process start).
    if std::env::var_os("MALLOC_ARENA_MAX").is_none() {
        let exe = std::env::current_exe().expect("own executable path is readable");
        let status = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("MALLOC_ARENA_MAX", "1")
            .status()
            .expect("re-exec with MALLOC_ARENA_MAX=1 succeeds");
        std::process::exit(status.code().unwrap_or(1));
    }

    let scale = Scale::from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = scaling::config(scale);
    let spec = wisedb::sim::catalog::tpch_like(10);
    let class_set = scaling::classes(&spec, config.classes);

    eprintln!(
        "scaling: training {} class models (once, shared across the sweep)...",
        class_set.len()
    );
    let trained = scaling::train_models(&spec, &class_set, scale);
    eprintln!(
        "scaling: generating the trace ({} queries, {} classes)...",
        config.queries, config.classes
    );
    let stream = scaling::trace(&config);

    let mut runs: Vec<scaling::ShardRun> = Vec::new();
    for &shards in &config.shard_counts {
        eprintln!(
            "scaling: replaying {} queries in ticks of {} over {} shard{}...",
            stream.len(),
            config.tick_size,
            shards,
            if shards == 1 { "" } else { "s" }
        );
        runs.push(scaling::run_one(
            &class_set,
            &trained,
            &stream,
            config.tick_size,
            shards,
        ));
    }

    let base = &runs[0];
    let mut table = Table::new(
        "scheduler sharding: decisions per second vs shard count",
        &[
            "shards",
            "elapsed_s",
            "decisions",
            "decisions_per_s",
            "speedup",
            "rebalances",
            "peak_rss_mb",
        ],
    );
    for run in &runs {
        table.row(&[
            run.shards.to_string(),
            format!("{:.2}", run.elapsed_secs),
            run.stats.decisions.to_string(),
            format!("{:.0}", run.decisions_per_sec),
            format!("{:.2}x", run.decisions_per_sec / base.decisions_per_sec),
            run.stats.rebalances.to_string(),
            format!("{:.0}", run.peak_rss_kb as f64 / 1024.0),
        ]);
    }
    table.print();
    println!(
        "completions fingerprint: {:016x} ({} completed)",
        base.fingerprint, base.snapshot.completed
    );

    // Bit-identity: the curve is only meaningful if every point did the
    // same work and produced the same schedule.
    for run in &runs[1..] {
        assert_eq!(
            run.snapshot, base.snapshot,
            "{} shards produced a different final snapshot than 1 shard",
            run.shards
        );
        assert_eq!(
            run.fingerprint, base.fingerprint,
            "{} shards produced different completions than 1 shard",
            run.shards
        );
        assert_eq!(run.stats.decisions, base.stats.decisions);
    }
    eprintln!(
        "scaling: bit-identity held across shard counts {:?}",
        config.shard_counts
    );

    // Memory flatness: the epoch snapshot is one small struct per tick,
    // so fanning out planning must not grow the resident set.
    let skip_rss = std::env::var("WISEDB_SKIP_RSS_GATE").as_deref() == Ok("1");
    if base.peak_rss_kb == 0 || skip_rss {
        eprintln!("scaling: RSS gate skipped (no /proc or WISEDB_SKIP_RSS_GATE=1)");
    } else {
        for run in &runs[1..] {
            let ratio = run.peak_rss_kb as f64 / base.peak_rss_kb as f64;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "peak RSS not flat: {} shards used {:.0} MB vs {:.0} MB at 1 shard ({:.2}x)",
                run.shards,
                run.peak_rss_kb as f64 / 1024.0,
                base.peak_rss_kb as f64 / 1024.0,
                ratio
            );
        }
        eprintln!("scaling: peak RSS flat within +/-10% across the sweep");
    }

    if smoke {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let two = runs.iter().find(|r| r.shards == 2);
        match (cores > 1, two) {
            (true, Some(two)) => {
                let speedup = two.decisions_per_sec / base.decisions_per_sec;
                assert!(
                    speedup >= 1.15,
                    "scaling smoke: 2 shards reached only {speedup:.2}x over 1 shard \
                     on a {cores}-core host (need >= 1.15x)"
                );
                eprintln!("scaling: smoke gate passed ({speedup:.2}x at 2 shards, {cores} cores)");
            }
            (false, _) => {
                eprintln!("scaling: smoke gate skipped (single-CPU host; curve is report-only)");
            }
            (_, None) => {
                eprintln!("scaling: smoke gate skipped (no 2-shard point in this sweep)");
            }
        }
    }
}
