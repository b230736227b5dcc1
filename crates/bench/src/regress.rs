//! Bench-regression bookkeeping for `wisedb-bench --bin regress`.
//!
//! The regress binary runs each hot path once, records its deterministic
//! work counters (A* expansions, interned states, VMs rented, retrains,
//! admit/shed verdicts), writes them to `BENCH_current.json`, and diffs
//! them against the committed `BENCH_baseline.json`. Every counter is a
//! pure function of the scale and seed, identical on every machine, so
//! the comparison is **exact in both directions**: a counter that rises
//! *or* drops, or a baseline row the run no longer produces, fails the
//! diff. A PR that changes a counter on purpose refreshes the baseline in
//! the same commit. Nothing here is a wall-clock time; `benchmark/` is the
//! repo's one timing instrument.

use std::path::Path;

use serde::{Deserialize, Serialize};
use wisedb::prelude::*;
use wisedb_advisor::MultiScheduler;
use wisedb_core::ArrivingQuery;

use crate::Scale;

/// One recorded counter of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark name, e.g. `astar_kernel/Max`.
    pub bench: String,
    /// Metric name, e.g. `expanded`.
    pub metric: String,
    /// The measured value. [`f64::INFINITY`] means "unset" (e.g. a
    /// suboptimality bound a strategy could not establish) and round-trips
    /// through JSON as `null`.
    pub value: f64,
}

// Hand-written serde: JSON cannot represent non-finite floats, and an
// unset bound (`f64::INFINITY`) is a legitimate measurement value — it
// serializes as `null` and reads back as infinity, so reports with an
// unbounded strategy still produce (and re-load from) valid JSON.
impl Serialize for Measurement {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("bench".to_string(), self.bench.to_value()),
            ("metric".to_string(), self.metric.to_value()),
            (
                "value".to_string(),
                if self.value.is_finite() {
                    self.value.to_value()
                } else {
                    serde::Value::Null
                },
            ),
        ])
    }
}

impl Deserialize for Measurement {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected a measurement object"))?;
        let field = |name: &str| -> Result<&serde::Value, serde::Error> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| serde::Error::custom(format!("missing measurement field `{name}`")))
        };
        let value = match field("value")? {
            serde::Value::Null => f64::INFINITY,
            other => f64::from_value(other)?,
        };
        Ok(Measurement {
            bench: String::from_value(field("bench")?)?,
            metric: String::from_value(field("metric")?)?,
            value,
        })
    }
}

impl Measurement {
    /// Convenience constructor.
    pub fn new(bench: &str, metric: &str, value: f64) -> Self {
        Measurement {
            bench: bench.to_string(),
            metric: metric.to_string(),
            value,
        }
    }

    fn key(&self) -> (String, String) {
        (self.bench.clone(), self.metric.clone())
    }
}

/// Everything one regress run records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// The `WISEDB_SCALE` the run used (`quick` / `std` / `paper`).
    pub scale: String,
    /// All measurements, in recording order.
    pub measurements: Vec<Measurement>,
}

/// The committed baseline: one report per scale that has been recorded.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BaselineFile {
    /// Reports keyed by their `scale` field (at most one per scale).
    pub reports: Vec<BenchReport>,
}

impl BaselineFile {
    /// Reads the baseline file at `path`; with `Some(scale)`, it must also
    /// hold a report at that scale. A missing or unreadable file, a parse
    /// failure and a missing scale are errors that name the path (and the
    /// scale): a comparison with no baseline must not pass.
    pub fn load(path: &Path, scale: Option<&str>) -> Result<BaselineFile, String> {
        let path_name = path.display();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path_name}: {e}"))?;
        let file: BaselineFile = serde_json::from_str(&text)
            .map_err(|e| format!("baseline {path_name} does not parse: {e}"))?;
        match scale {
            Some(scale) if file.for_scale(scale).is_none() => Err(format!(
                "no {scale}-scale baseline in {path_name}; run with --write-baseline to record one"
            )),
            _ => Ok(file),
        }
    }

    /// The baseline report for `scale`, if one was recorded.
    pub fn for_scale(&self, scale: &str) -> Option<&BenchReport> {
        self.reports.iter().find(|r| r.scale == scale)
    }

    /// Inserts or replaces the report for its scale.
    pub fn upsert(&mut self, report: BenchReport) {
        match self.reports.iter_mut().find(|r| r.scale == report.scale) {
            Some(slot) => *slot = report,
            None => self.reports.push(report),
        }
    }
}

/// One line of the diff between a baseline and a current report.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffLine {
    /// Current value differs from the baseline, in either direction.
    Regression {
        /// `bench/metric`.
        what: String,
        /// Baseline value.
        baseline: f64,
        /// Current value.
        current: f64,
        /// Fractional change (`current/baseline - 1`).
        change: f64,
    },
    /// Current value equals the baseline.
    Ok {
        /// `bench/metric`.
        what: String,
        /// The value both reports hold.
        value: f64,
    },
    /// Metric exists only in the current report (new bench or metric):
    /// reported, never a failure.
    New {
        /// `bench/metric`.
        what: String,
        /// Current value.
        current: f64,
    },
    /// Metric exists only in the baseline (bench removed or renamed): a
    /// failure, since the baseline now describes work nobody checks.
    Missing {
        /// `bench/metric`.
        what: String,
    },
}

impl DiffLine {
    /// Whether this line should fail the run.
    pub fn is_regression(&self) -> bool {
        matches!(self, DiffLine::Regression { .. } | DiffLine::Missing { .. })
    }
}

/// Fractional change from `baseline` to `current`; infinite when a zero
/// baseline became non-zero.
fn change(baseline: f64, current: f64) -> f64 {
    if baseline == current {
        0.0
    } else if baseline.abs() < f64::EPSILON {
        if current.abs() < f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        current / baseline - 1.0
    }
}

/// Diffs `current` against `baseline`, exactly. Lines come out in
/// current-report order, then baseline-only leftovers.
pub fn diff(baseline: &BenchReport, current: &BenchReport) -> Vec<DiffLine> {
    let mut out = Vec::new();
    let mut seen: Vec<(String, String)> = Vec::new();
    for m in &current.measurements {
        seen.push(m.key());
        let base = baseline
            .measurements
            .iter()
            .find(|b| b.bench == m.bench && b.metric == m.metric);
        let what = format!("{}/{}", m.bench, m.metric);
        match base {
            None => out.push(DiffLine::New {
                what,
                current: m.value,
            }),
            Some(b) => {
                let change = change(b.value, m.value);
                // A sliver of relative slack keeps the exact comparison
                // immune to float formatting round-trips.
                if change.abs() > 1e-9 {
                    out.push(DiffLine::Regression {
                        what,
                        baseline: b.value,
                        current: m.value,
                        change,
                    });
                } else {
                    out.push(DiffLine::Ok {
                        what,
                        value: m.value,
                    });
                }
            }
        }
    }
    for b in &baseline.measurements {
        if !seen.contains(&b.key()) {
            out.push(DiffLine::Missing {
                what: format!("{}/{}", b.bench, b.metric),
            });
        }
    }
    out
}

/// Renders diff lines as a fixed-width report table.
pub fn render_diff(lines: &[DiffLine]) -> String {
    let mut table = crate::Table::new(
        "regress: current vs baseline",
        &["bench/metric", "baseline", "current", "Δ%", "status"],
    );
    for line in lines {
        match line {
            DiffLine::Regression {
                what,
                baseline,
                current,
                change,
            } => table.row(&[
                what.clone(),
                format!("{baseline:.3}"),
                format!("{current:.3}"),
                format!("{:+.1}", change * 100.0),
                "REGRESSION".to_string(),
            ]),
            DiffLine::Ok { what, value } => table.row(&[
                what.clone(),
                format!("{value:.3}"),
                format!("{value:.3}"),
                "0.0".to_string(),
                "ok".to_string(),
            ]),
            DiffLine::New { what, current } => table.row(&[
                what.clone(),
                "-".to_string(),
                format!("{current:.3}"),
                "-".to_string(),
                "new".to_string(),
            ]),
            DiffLine::Missing { what } => table.row(&[
                what.clone(),
                "?".to_string(),
                "-".to_string(),
                "-".to_string(),
                "MISSING".to_string(),
            ]),
        }
    }
    table.render()
}

/// 32-bit FNV-1a of `bytes`. As a `regress` row it fits an `f64` exactly.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// The `shard/*` suite's service: `classes` SLA classes over `spec`
/// (the cheap-to-train goal kinds cycled, priorities staggered), each
/// with a base model trained once at `scale`. The one-hour age quantum
/// (against ≤ 6-minute queries) collapses each tick's ageing patterns
/// into Reuse hits, so the replay measures planning and placement, not
/// retraining.
pub fn tick_service(spec: &WorkloadSpec, classes: usize, scale: Scale) -> WorkloadService {
    let kinds = [
        GoalKind::MaxLatency,
        GoalKind::PerQuery,
        GoalKind::AverageLatency,
    ];
    let online = OnlineConfig {
        training: ModelConfig {
            num_samples: 150,
            sample_size: 9,
            seed: 0xBE7C4,
            ..ModelConfig::fast()
        },
        age_quantum: Millis::from_secs(3600),
        ..OnlineConfig::default()
    };
    let kinds: Vec<GoalKind> = (0..classes).map(|i| kinds[i % kinds.len()]).collect();
    class_service(spec, &kinds, scale.training().with_seed(0x5CA1E), online)
}

/// The `siblings/*` suite's service: two PerQuery and two Average classes
/// over `spec`, interleaved as on the benchmark's tenants-ticked, each
/// class trained on its own from the same configuration, so the two
/// PerQuery classes are siblings that share one Shift ladder. The
/// ten-minute age quantum puts the PerQuery classes' long waits in bucket
/// 1, so each shifts once, to the same goal. Training does not grow with
/// the scale: a shifted retrain can cost far more A* work per sample than
/// the cold train did (ROADMAP 10(b)).
pub fn sibling_service(spec: &WorkloadSpec) -> WorkloadService {
    let training = ModelConfig {
        num_samples: 60,
        sample_size: 9,
        seed: 0x51B,
        ..ModelConfig::fast()
    };
    let online = OnlineConfig {
        training: training.clone(),
        age_quantum: Millis::from_secs(600),
        ..OnlineConfig::default()
    };
    let kinds = [
        GoalKind::PerQuery,
        GoalKind::AverageLatency,
        GoalKind::PerQuery,
        GoalKind::AverageLatency,
    ];
    class_service(spec, &kinds, training, online)
}

/// One class per goal kind in `kinds` (`tenant-<i>`, priorities falling
/// with the index), each with a base model trained on its own under
/// `base`, planned under `online`.
fn class_service(
    spec: &WorkloadSpec,
    kinds: &[GoalKind],
    base: ModelConfig,
    online: OnlineConfig,
) -> WorkloadService {
    let class_set: Vec<SlaClass> = (kinds.iter().enumerate())
        .map(|(i, &kind)| {
            SlaClass::new(
                format!("tenant-{i}"),
                PerformanceGoal::paper_default(kind, spec).expect("defaults exist"),
            )
            .with_priority((kinds.len() - 1 - i) as u8)
        })
        .collect();
    let schedulers: Vec<OnlineScheduler> = class_set
        .iter()
        .map(|class| {
            let (model, artifacts) =
                wisedb_advisor::ModelGenerator::new(spec.clone(), class.goal.clone(), base.clone())
                    .train_with_artifacts()
                    .expect("training on catalog specs succeeds");
            OnlineScheduler::with_model(model, artifacts, online.clone())
        })
        .collect();
    let multi = MultiScheduler::with_schedulers(class_set, schedulers, online.clone())
        .expect("class schedulers share the spec");
    WorkloadService::with_multi(
        multi,
        RuntimeConfig {
            online,
            ..RuntimeConfig::default()
        },
    )
}

/// The `shard/*` suite's trace: one sparse Poisson sub-stream per class
/// (queries run minutes, the gaps keep recall batches bounded), merged by
/// arrival time, `queries` in all.
pub fn tick_trace(classes: usize, queries: usize) -> Vec<ArrivingQuery> {
    class_trace(classes, queries, 250.0)
}

/// One Poisson sub-stream per class, class `c` with a mean gap of
/// `gap_s + 25·c` seconds, merged by arrival time, `queries` in all.
pub fn class_trace(classes: usize, queries: usize, gap_s: f64) -> Vec<ArrivingQuery> {
    let streams = (0..classes)
        .map(|c| {
            let mut process = PoissonProcess::per_second(
                1.0 / (gap_s + 25.0 * c as f64),
                TemplateMix::uniform(10),
            );
            wisedb_runtime::generate_class_stream(
                &mut process,
                queries / classes,
                0x5EED + c as u64,
                TenantId(c as u32),
            )
        })
        .collect();
    wisedb_runtime::merge_streams(streams)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(scale: &str, ms: &[(&str, &str, f64)]) -> BenchReport {
        BenchReport {
            scale: scale.to_string(),
            measurements: ms
                .iter()
                .map(|&(b, m, v)| Measurement::new(b, m, v))
                .collect(),
        }
    }

    #[test]
    fn counters_are_exact_by_default() {
        let base = report("quick", &[("astar/Max", "expanded", 100.0)]);
        let same = report("quick", &[("astar/Max", "expanded", 100.0)]);
        let worse = report("quick", &[("astar/Max", "expanded", 101.0)]);
        let better = report("quick", &[("astar/Max", "expanded", 90.0)]);
        assert!(!diff(&base, &same).iter().any(DiffLine::is_regression));
        assert!(diff(&base, &worse).iter().any(DiffLine::is_regression));
        // A drop is a change too: the baseline would go stale, and a
        // later return to the old value would pass unnoticed.
        assert!(diff(&base, &better).iter().any(DiffLine::is_regression));
    }

    #[test]
    fn new_metrics_do_not_fail() {
        let base = report("quick", &[("old", "expanded", 1.0)]);
        let cur = report(
            "quick",
            &[("old", "expanded", 1.0), ("new", "expanded", 2.0)],
        );
        let lines = diff(&base, &cur);
        assert!(lines.iter().any(|l| matches!(l, DiffLine::New { .. })));
        assert!(!lines.iter().any(DiffLine::is_regression));
    }

    #[test]
    fn missing_metrics_fail() {
        let base = report("quick", &[("old", "expanded", 1.0)]);
        let cur = report("quick", &[("new", "expanded", 2.0)]);
        let lines = diff(&base, &cur);
        assert!(lines.iter().any(|l| matches!(l, DiffLine::Missing { .. })));
        assert!(lines.iter().any(DiffLine::is_regression));
    }

    #[test]
    fn baseline_file_round_trips_through_json() {
        let mut file = BaselineFile::default();
        file.upsert(report("quick", &[("astar/Max", "expanded", 123.0)]));
        file.upsert(report("std", &[("astar/Max", "expanded", 4.5)]));
        let json = serde_json::to_string_pretty(&file).unwrap();
        let back: BaselineFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, file);
        assert!(back.for_scale("quick").is_some());
        assert!(back.for_scale("paper").is_none());
        // Upsert replaces in place.
        file.upsert(report("quick", &[("astar/Max", "expanded", 99.0)]));
        assert_eq!(file.reports.len(), 2);
        assert_eq!(file.for_scale("quick").unwrap().measurements[0].value, 99.0);
    }

    #[test]
    fn loading_a_missing_garbled_or_scaleless_baseline_fails() {
        let dir = std::env::temp_dir().join(format!("wisedb-regress-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.json");
        let err = BaselineFile::load(&missing, Some("quick")).unwrap_err();
        assert!(err.contains("missing.json"), "{err}");
        assert!(BaselineFile::load(&missing, None).is_err());

        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{ not json").unwrap();
        let err = BaselineFile::load(&garbage, Some("quick")).unwrap_err();
        assert!(
            err.contains("garbage.json") && err.contains("parse"),
            "{err}"
        );

        let std_only = dir.join("std_only.json");
        let mut file = BaselineFile::default();
        file.upsert(report("std", &[("astar/Max", "expanded", 4.5)]));
        std::fs::write(&std_only, serde_json::to_string(&file).unwrap()).unwrap();
        let err = BaselineFile::load(&std_only, Some("quick")).unwrap_err();
        assert!(err.contains("no quick-scale baseline in") && err.contains("std_only.json"));
        assert_eq!(BaselineFile::load(&std_only, Some("std")), Ok(file.clone()));
        assert_eq!(BaselineFile::load(&std_only, None), Ok(file));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn infinite_bound_serializes_as_null_and_round_trips() {
        // An unset suboptimality bound is f64::INFINITY; JSON cannot
        // express that, so it must become `null` (valid JSON!) and read
        // back as infinity instead of erroring out of report export.
        let report = report("quick", &[("strategies/exact", "bound_pct", f64::INFINITY)]);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"value\":null"), "got {json}");
        assert!(!json.contains("inf"), "got {json}");
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.measurements[0].value, f64::INFINITY);
        assert_eq!(back, report);
        // Finite values are untouched by the hand-written impls.
        let finite = report_for_scale_finite();
        let json = serde_json::to_string(&finite).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, finite);
    }

    fn report_for_scale_finite() -> BenchReport {
        report("quick", &[("strategies/anytime", "bound_pct", 3.51)])
    }

    #[test]
    fn render_diff_flags_regressions() {
        let base = report("quick", &[("b", "expanded", 100.0)]);
        let cur = report("quick", &[("b", "expanded", 120.0)]);
        let text = render_diff(&diff(&base, &cur));
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("+20.0"));
    }

    #[test]
    fn fnv1a32_matches_the_reference_vectors() {
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn tick_traces_are_seeded_and_class_tagged() {
        let (a, b) = (tick_trace(3, 90), tick_trace(3, 90));
        assert_eq!(a, b, "the trace is deterministic under its seeds");
        assert_eq!(a.len(), 90);
        for c in 0..3u32 {
            assert!(a.iter().any(|q| q.class == TenantId(c)));
        }
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }
}
