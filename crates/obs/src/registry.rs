//! The named-metrics registry: counters, gauges, and latency histograms,
//! rendered as a Prometheus-style text exposition.
//!
//! Histograms reuse [`wisedb_core::LatencyHistogram`] — the same
//! nearest-rank implementation behind `MetricsCollector` — with the tick
//! reinterpreted as **microseconds** (the histogram is unit-agnostic
//! integer ticks; serve-path latencies are µs-scale).

use std::collections::BTreeMap;
use std::sync::Mutex;

use wisedb_core::{LatencyHistogram, Millis};

use crate::{enabled, level, Level};

static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<&'static str, LatencyHistogram>> = Mutex::new(BTreeMap::new());

fn lock<T>(m: &'static Mutex<T>) -> std::sync::MutexGuard<'static, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Adds to a named monotone counter. Gated at [`Level::Counters`].
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled(Level::Counters) {
        return;
    }
    *lock(&COUNTERS).entry(name).or_insert(0) += delta;
}

/// Sets a named gauge. Gated at [`Level::Counters`].
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled(Level::Counters) {
        return;
    }
    lock(&GAUGES).insert(name, value);
}

/// Records one observation, in microseconds, into a named histogram.
/// Gated at [`Level::Counters`].
pub fn observe_us(name: &'static str, micros: u64) {
    if !enabled(Level::Counters) {
        return;
    }
    lock(&HISTOGRAMS)
        .entry(name)
        .or_default()
        .push(Millis::from_millis(micros)); // ticks are µs here
}

/// Clears every metric (done by [`crate::install`]).
pub(crate) fn reset() {
    lock(&COUNTERS).clear();
    lock(&GAUGES).clear();
    lock(&HISTOGRAMS).clear();
}

/// A point-in-time copy of the registry.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → ascending `(upper_us, count)` buckets.
    pub histograms: Vec<(String, Vec<(u64, u64)>)>,
}

/// Snapshots the registry (works at any level — an `Off` snapshot is
/// simply whatever was recorded before the level dropped).
pub fn snapshot_metrics() -> RegistrySnapshot {
    RegistrySnapshot {
        counters: lock(&COUNTERS)
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        gauges: lock(&GAUGES)
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        histograms: lock(&HISTOGRAMS)
            .iter()
            .map(|(&k, h)| {
                (
                    k.to_string(),
                    h.buckets().map(|(v, n)| (v.as_millis(), n)).collect(),
                )
            })
            .collect(),
    }
}

/// Renders a snapshot as a Prometheus-style text exposition: `# TYPE`
/// lines, cumulative `_bucket{le="..."}` series, `_sum`/`_count`.
pub(crate) fn render_prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!(
            "# TYPE {name} gauge\n{name} {}\n",
            fmt_value(*value)
        ));
    }
    for (name, buckets) in &snapshot.histograms {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        let mut sum = 0u64;
        for &(upper_us, count) in buckets {
            cumulative += count;
            sum += upper_us * count;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{upper_us}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("{name}_sum {sum}\n"));
        out.push_str(&format!("{name}_count {cumulative}\n"));
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// The full telemetry payload the serve layer answers `Telemetry`
/// requests with: a header naming the enable level, then the exposition.
pub fn telemetry_text() -> String {
    let level = match level() {
        Level::Off => "off",
        Level::Counters => "counters",
        Level::Spans => "spans",
    };
    format!(
        "# wisedb-obs exposition\n# level {level}\n{}",
        render_prometheus(&snapshot_metrics())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_lock};

    #[test]
    fn counters_gauges_histograms_round_trip_through_the_exposition() {
        let _hold = test_lock::hold();
        reset();
        set_level(Level::Counters);
        counter_add("serve_requests_total", 2);
        counter_add("serve_requests_total", 3);
        gauge_set("fleet_vms", 4.0);
        observe_us("decision_us", 100);
        observe_us("decision_us", 100);
        observe_us("decision_us", 250);
        set_level(Level::Off);

        let text = telemetry_text();
        assert!(text.contains("# level off"));
        assert!(text.contains("serve_requests_total 5"));
        assert!(text.contains("fleet_vms 4"));
        // Cumulative buckets: 2 at le=100, 3 at le=250 and +Inf.
        assert!(text.contains("decision_us_bucket{le=\"100\"} 2"));
        assert!(text.contains("decision_us_bucket{le=\"250\"} 3"));
        assert!(text.contains("decision_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("decision_us_sum 450"));
        assert!(text.contains("decision_us_count 3"));
        reset();
    }

    #[test]
    fn histogram_percentiles_match_the_shared_implementation() {
        // The registry's histogram IS LatencyHistogram with µs ticks —
        // its nearest-rank percentile must agree with the naive sort.
        let mut h = LatencyHistogram::new();
        let samples: Vec<u64> = vec![120, 80, 80, 300, 95, 240, 80, 150];
        for &s in &samples {
            h.push(Millis::from_millis(s));
        }
        let mut sorted: Vec<Millis> = samples.iter().map(|&s| Millis::from_millis(s)).collect();
        sorted.sort();
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(h.percentile(p), wisedb_core::percentile_sorted(&sorted, p));
        }
    }
}
