//! The catalogue: every metric the benchmark reports, with its unit, its
//! better direction and — end to end — the share of the parent's median
//! by which it may worsen. `BENCHMARK.json` repeats these tables (a test
//! keeps the two in step); a run whose output strays from them fails.

/// A metric a user of the system would see. Every workload reports every
/// one of them, so none may ever be zero. The bounds are the contract's
/// cap wherever three times the spread measured on the recording host
/// (README.md, "Calibration") reaches it, which on a shared two-core VM
/// is every timing.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("offer_p50_us", "us", "lower", 0.25),
    e2e("offer_p99_us", "us", "lower", 0.25),
    e2e("offers_per_s", "1/s", "higher", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("train_cold_s", "s", "lower", 0.25),
    e2e("train_warm_s", "s", "lower", 0.25),
    e2e("adapt_s", "s", "lower", 0.25),
    e2e("batch_kq_per_s", "kq/s", "higher", 0.25),
    e2e("cost_mc_per_query", "milli-cent", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// A metric of one layer: no bound, read beside the end-to-end metric it
/// should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const P50_STEADY: &str = "offer_p50_us on serve-steady";
const RATE_STEADY: &str = "offers_per_s on serve-steady";
const RATE_AGED: &str = "offers_per_s on serve-aged";
const TAIL_AGED: &str = "offer_p99_us, offers_per_s on serve-aged; nothing on serve-steady";
const QPS_TENANTS: &str = "queries_per_s on tenants-ticked";
const FIXED: &str = "must not move";
const COLD: &str = "train_cold_s on advisor-offline";
const WARM: &str = "train_warm_s on advisor-offline";
const ADAPT: &str = "adapt_s on advisor-offline";
const BATCH: &str = "batch_kq_per_s on advisor-offline";
const ATTRIBUTION: &str = "attribution only (the named workload's traced slice)";

pub const PER_LAYER: &[Layer] = &[
    layer("serve.rtt_floor_us", "us", "lower", P50_STEADY),
    layer(
        "serve.metrics_rtt_us",
        "us",
        "lower",
        "none gated; operator path",
    ),
    layer("serve.wire_overhead_us.steady", "us", "lower", P50_STEADY),
    layer(
        "serve.wire_overhead_share.steady",
        "ratio",
        "lower",
        P50_STEADY,
    ),
    layer("runtime.offer_p50_us.steady", "us", "lower", P50_STEADY),
    layer(
        "runtime.offer_p99_us.steady",
        "us",
        "lower",
        "offer_p99_us on serve-steady",
    ),
    layer(
        "advisor.slow_offer_share.steady",
        "ratio",
        "lower",
        "must stay 0",
    ),
    layer(
        "serve.wire_overhead_us.aged",
        "us",
        "lower",
        "nothing on serve-aged (< 5 % of wall)",
    ),
    layer(
        "serve.wire_overhead_share.aged",
        "ratio",
        "lower",
        "nothing on serve-aged",
    ),
    layer(
        "runtime.offer_p50_us.aged",
        "us",
        "lower",
        "offer_p50_us on serve-aged",
    ),
    layer(
        "runtime.offer_p99_us.aged",
        "us",
        "lower",
        "offer_p99_us on serve-aged",
    ),
    layer("advisor.slow_offer_share.aged", "ratio", "lower", RATE_AGED),
    layer("advisor.slow_offer_sum_s", "s", "lower", RATE_AGED),
    layer(
        "advisor.cache_entries.reuse",
        "count",
        "lower",
        "explains offers_per_s on serve-aged",
    ),
    layer(
        "advisor.cache_entries.shift",
        "count",
        "lower",
        "explains offers_per_s on serve-aged",
    ),
    layer(
        "advisor.cache_entries.augment",
        "count",
        "lower",
        "explains offers_per_s on serve-aged",
    ),
    layer("serve.req_codec_ns", "ns", "lower", P50_STEADY),
    layer("serve.resp_codec_ns", "ns", "lower", P50_STEADY),
    layer(
        "runtime.offer_drift_ratio",
        "ratio",
        "lower",
        "offers_per_s on serve-steady; queries_per_s on tenants-ticked",
    ),
    layer("runtime.tick_p50_us", "us", "lower", QPS_TENANTS),
    layer("runtime.tick_p99_us", "us", "lower", QPS_TENANTS),
    layer("runtime.tick_drift_ratio", "ratio", "lower", QPS_TENANTS),
    layer("runtime.drain_ms", "ms", "lower", QPS_TENANTS),
    layer("runtime.snapshot_us", "us", "lower", QPS_TENANTS),
    layer("runtime.decisions", "count", "lower", FIXED),
    layer("runtime.epochs", "count", "lower", FIXED),
    layer("runtime.merged_plans", "count", "lower", FIXED),
    layer("runtime.shard_speedup", "ratio", "higher", QPS_TENANTS),
    layer(
        "host.nproc",
        "count",
        "higher",
        "read beside runtime.shard_speedup",
    ),
    layer("advisor.plan_fresh_us", "us", "lower", P50_STEADY),
    layer("advisor.plan_aged_miss_ms", "ms", "lower", TAIL_AGED),
    layer("advisor.plan_aged_hit_us", "us", "lower", TAIL_AGED),
    layer("advisor.train_cold_s.PerQuery", "s", "lower", COLD),
    layer("advisor.train_warm_ms.PerQuery", "ms", "lower", WARM),
    layer("advisor.train_reseed_s.PerQuery", "s", "lower", COLD),
    layer("advisor.adapt_s.PerQuery", "s", "lower", ADAPT),
    layer("advisor.batch_ns_per_query.PerQuery", "ns", "lower", BATCH),
    layer("core.total_cost_ms.PerQuery", "ms", "lower", "none gated"),
    layer("advisor.train_cold_s.Average", "s", "lower", COLD),
    layer("advisor.train_warm_ms.Average", "ms", "lower", WARM),
    layer("advisor.train_reseed_s.Average", "s", "lower", COLD),
    layer("advisor.adapt_s.Average", "s", "lower", ADAPT),
    layer("advisor.batch_ns_per_query.Average", "ns", "lower", BATCH),
    layer("core.total_cost_ms.Average", "ms", "lower", "none gated"),
    layer("advisor.train_cold_s.Max", "s", "lower", COLD),
    layer("advisor.train_warm_ms.Max", "ms", "lower", WARM),
    layer("advisor.train_reseed_s.Max", "s", "lower", COLD),
    layer("advisor.adapt_s.Max", "s", "lower", ADAPT),
    layer("advisor.batch_ns_per_query.Max", "ns", "lower", BATCH),
    layer("core.total_cost_ms.Max", "ms", "lower", "none gated"),
    layer("advisor.train_cold_s.Percent", "s", "lower", COLD),
    layer("advisor.train_warm_ms.Percent", "ms", "lower", WARM),
    layer("advisor.train_reseed_s.Percent", "s", "lower", COLD),
    layer("advisor.adapt_s.Percent", "s", "lower", ADAPT),
    layer("advisor.batch_ns_per_query.Percent", "ns", "lower", BATCH),
    layer(
        "core.total_cost_ms.Percent",
        "ms",
        "lower",
        "none gated; Percentile tracker cost",
    ),
    layer("advisor.solves", "count", "lower", COLD),
    layer(
        "advisor.warm_solves",
        "count",
        "lower",
        "must stay 0; train_warm_s",
    ),
    layer("advisor.reseed_solves", "count", "lower", COLD),
    layer("advisor.cache_hits", "count", "higher", WARM),
    layer("advisor.dataset_rows", "count", "lower", FIXED),
    layer("advisor.guard_share", "ratio", "lower", BATCH),
    layer(
        "search.solve_ms_p50.PerQuery",
        "ms",
        "lower",
        "train_cold_s, adapt_s on advisor-offline",
    ),
    layer(
        "learn.fit_ms.PerQuery",
        "ms",
        "lower",
        "train_cold_s, train_warm_s on advisor-offline",
    ),
    layer(
        "search.solve_ms_p50.Average",
        "ms",
        "lower",
        "train_cold_s on advisor-offline; offer_p99_us on serve-aged",
    ),
    layer(
        "learn.fit_ms.Average",
        "ms",
        "lower",
        "train_cold_s, train_warm_s on advisor-offline",
    ),
    layer(
        "search.solve_ms_p50.Max",
        "ms",
        "lower",
        "train_cold_s, adapt_s on advisor-offline",
    ),
    layer(
        "learn.fit_ms.Max",
        "ms",
        "lower",
        "train_cold_s, train_warm_s on advisor-offline",
    ),
    layer("search.adapt_reuse_ratio", "ratio", "lower", ADAPT),
    layer(
        "search.solve_ms_p50.Percent",
        "ms",
        "lower",
        "train_cold_s, adapt_s on advisor-offline",
    ),
    layer(
        "learn.fit_ms.Percent",
        "ms",
        "lower",
        "train_cold_s, train_warm_s on advisor-offline",
    ),
    layer("search.expanded", "count", "lower", COLD),
    layer("search.generated", "count", "lower", COLD),
    layer(
        "search.interned",
        "count",
        "lower",
        "peak_rss_mb, train_cold_s on advisor-offline",
    ),
    layer("search.expansions_per_s", "1/s", "higher", COLD),
    layer("learn.tree_nodes", "count", "lower", FIXED),
    layer("learn.tree_depth", "count", "lower", FIXED),
    layer(
        "learn.predict_ns",
        "ns",
        "lower",
        "batch_kq_per_s on advisor-offline; offer_p50_us on serve-steady",
    ),
    layer(
        "learn.extract_ns",
        "ns",
        "lower",
        "batch_kq_per_s on advisor-offline; offer_p50_us on serve-steady",
    ),
    layer("sim.live_step_us_first", "us", "lower", RATE_STEADY),
    layer(
        "sim.live_step_us_last",
        "us",
        "lower",
        "queries_per_s, peak_rss_mb on tenants-ticked",
    ),
    layer(
        "sim.live_drift_ratio",
        "ratio",
        "lower",
        "offers_per_s on serve-steady; queries_per_s on tenants-ticked",
    ),
    layer("obs.overhead_share", "ratio", "lower", "must stay <= 0.05"),
    layer(
        "obs.events_per_offer",
        "1/offer",
        "lower",
        "explains obs.overhead_share",
    ),
    layer("trace.root_us_per_op", "us", "lower", ATTRIBUTION),
    layer(
        "trace.self_sum_share",
        "ratio",
        "lower",
        "1 when every instant is attributed once; above 1 where workers run side by side",
    ),
    layer(
        "trace.residual_share",
        "ratio",
        "lower",
        "client and socket share of a round trip",
    ),
    layer(
        "trace.bench.offer.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer("trace.bench.tick.self_share", "ratio", "lower", ATTRIBUTION),
    layer(
        "trace.bench.train.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer(
        "trace.bench.batch.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer(
        "trace.serve.decode.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer(
        "trace.serve.dispatch.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer(
        "trace.serve.encode.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer("trace.serve.tick.self_share", "ratio", "lower", ATTRIBUTION),
    layer(
        "trace.serve.queue_wait.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer("trace.serve.plan.self_share", "ratio", "lower", ATTRIBUTION),
    layer(
        "trace.runtime.offer_batch.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer(
        "trace.runtime.plan.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer(
        "trace.search.solve.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer(
        "trace.train.model.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer(
        "trace.train.sample.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer(
        "trace.learn.fit_tree.self_share",
        "ratio",
        "lower",
        ATTRIBUTION,
    ),
    layer("trace.other.self_share", "ratio", "lower", ATTRIBUTION),
    layer(
        "violation_share",
        "ratio",
        "lower",
        "priced into cost_mc_per_query; exact",
    ),
    layer(
        "fail_share",
        "ratio",
        "lower",
        "must stay 0; also the result line's failed / attempted",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        match entry.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let json = serde_json::from_str_value(text).expect("BENCHMARK.json parses");

        let listed = json.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), metric.better);
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(metric.bound)
            );
        }

        let listed = json.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, metric) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), metric.better);
        }

        let listed = json.get("workloads").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = listed.iter().map(|w| field(w, "name")).collect();
        let kinds: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names, kinds);
    }

    #[test]
    fn the_catalogue_fits_the_contract() {
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
