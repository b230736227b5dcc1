//! Output: the result line of one run, and the full set — child runs
//! interleaved, their spread, `out/report.json`, and `--check`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use serde::Value;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{self, Spread};
use crate::workloads::Kind;
use crate::{Args, Outcome};

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// The last line of a run's stdout.
pub fn result_line(correct: bool, outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = object(vec![
                ("value", Value::Float(m.value)),
                ("unit", text(m.unit)),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(outcome.attempted.max(1))),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree serializes")
}

/// Writes `contents` to `out/<name>` beside the package manifest.
pub fn write_out(name: &str, contents: &str) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one child run printed.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs this program again as one run of one workload and parses its
/// result line. The child inherits stderr, so its progress shows.
fn child(kind: Kind, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed no result")?;
    let json = serde_json::from_str_value(line).map_err(|e| e.to_string())?;
    let number = |key: &str| {
        json.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("no {key} in the result line"))
    };
    let metrics = json
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics in the result line")?
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), entry.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: json.get("correct") == Some(&Value::Bool(true)) && output.status.success(),
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        metrics,
    })
}

/// One full set: per workload, each end-to-end metric's value in every
/// repetition, and the layer ledger of its traced run.
#[derive(Default)]
struct Set {
    end_to_end: BTreeMap<(usize, &'static str), Vec<f64>>,
    per_layer: Vec<BTreeMap<String, f64>>,
    attempted: [u64; Kind::ALL.len()],
    failed: [u64; Kind::ALL.len()],
}

/// Repetitions interleaved (A B C D, A B C D, …) so a disturbance of the
/// host lands on every workload alike; then one traced run each.
fn run_set(args: &Args) -> Result<Set, String> {
    let mut set = Set::default();
    for rep in 0..args.reps {
        for (w, kind) in Kind::ALL.into_iter().enumerate() {
            eprintln!(
                "-- repetition {} of {}: {}",
                rep + 1,
                args.reps,
                kind.name()
            );
            let run = child(kind, args, false)?;
            if !run.correct {
                return Err(format!("{} failed its checks", kind.name()));
            }
            set.attempted[w] += run.attempted;
            set.failed[w] += run.failed;
            for metric in &END_TO_END {
                let value = *run
                    .metrics
                    .get(metric.name)
                    .ok_or_else(|| format!("{} printed no {}", kind.name(), metric.name))?;
                set.end_to_end
                    .entry((w, metric.name))
                    .or_default()
                    .push(value);
            }
        }
    }
    for kind in Kind::ALL {
        eprintln!("-- traced run: {}", kind.name());
        let run = child(kind, args, true)?;
        if !run.correct {
            return Err(format!("{} failed its checks while traced", kind.name()));
        }
        set.per_layer.push(run.metrics);
    }
    Ok(set)
}

impl Set {
    fn spread(&self, workload: usize, metric: &'static str) -> Spread {
        stats::spread(&self.end_to_end[&(workload, metric)])
    }

    fn print(&self) {
        println!("\nend to end (median over repetitions, tracing off)");
        for metric in &END_TO_END {
            for (w, kind) in Kind::ALL.into_iter().enumerate() {
                let s = self.spread(w, metric.name);
                println!(
                    "{:<18} {:<16} {:>14.4} {:<10} [{:.4}..{:.4}] n={} ({} is better, bound {:.0} %)",
                    metric.name,
                    kind.name(),
                    s.median,
                    metric.unit,
                    s.min,
                    s.max,
                    s.n,
                    metric.better,
                    metric.bound * 100.0
                );
            }
        }
        for (w, kind) in Kind::ALL.into_iter().enumerate() {
            println!(
                "{:<18} {:<16} {:>14} {:<10} of {} attempted",
                "failed",
                kind.name(),
                self.failed[w],
                "count",
                self.attempted[w]
            );
        }
        println!(
            "\nper layer (one traced run per workload; the last rows are each workload's own)"
        );
        let names: Vec<String> = Kind::ALL
            .iter()
            .map(|k| format!("{:>15}", k.name()))
            .collect();
        println!(
            "{:<40} {:<8} {}  better; should move",
            "metric",
            "unit",
            names.join(" ")
        );
        for metric in PER_LAYER {
            let cells: Vec<String> = self
                .per_layer
                .iter()
                .map(|ledger| match ledger.get(metric.name) {
                    Some(value) => format!("{value:>15.4}"),
                    None => format!("{:>15}", "-"),
                })
                .collect();
            println!(
                "{:<40} {:<8} {}  {}; {}",
                metric.name,
                metric.unit,
                cells.join(" "),
                metric.better,
                metric.moves
            );
        }
    }

    fn to_json(&self) -> Value {
        let mut end_to_end = Vec::new();
        for metric in &END_TO_END {
            for (w, kind) in Kind::ALL.into_iter().enumerate() {
                let s = self.spread(w, metric.name);
                end_to_end.push(object(vec![
                    ("metric", text(metric.name)),
                    ("workload", text(kind.name())),
                    ("unit", text(metric.unit)),
                    ("n", Value::UInt(s.n as u64)),
                    ("min", Value::Float(s.min)),
                    ("q1", Value::Float(s.q1)),
                    ("median", Value::Float(s.median)),
                    ("q3", Value::Float(s.q3)),
                    ("max", Value::Float(s.max)),
                    ("iqr_share", Value::Float(s.iqr_share())),
                ]));
            }
        }
        let per_layer = Kind::ALL
            .into_iter()
            .zip(&self.per_layer)
            .map(|(kind, ledger)| {
                let rows = PER_LAYER
                    .iter()
                    .filter_map(|m| Some((m.name.to_string(), Value::Float(*ledger.get(m.name)?))))
                    .collect();
                (kind.name().to_string(), Value::Object(rows))
            })
            .collect();
        object(vec![
            ("end_to_end", Value::Array(end_to_end)),
            ("per_layer", Value::Object(per_layer)),
        ])
    }
}

/// First line of a command's output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    object(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("kernel", text(kernel)),
        ("rustc", text(tool_line("rustc", &["-V"]))),
        ("commit", text(tool_line("git", &["rev-parse", "HEAD"]))),
    ])
}

/// Whether two sets of the same code agree: every end-to-end median
/// within its bound, every exact number identical.
fn agree(first: &Set, second: &Set) -> bool {
    let mut ok = true;
    for metric in &END_TO_END {
        for (w, kind) in Kind::ALL.into_iter().enumerate() {
            let (a, b) = (
                first.spread(w, metric.name).median,
                second.spread(w, metric.name).median,
            );
            let apart = (b - a).abs() / a.abs();
            let exact = metric.name == "cost_mc_per_query";
            if (exact && a != b) || apart > metric.bound {
                println!(
                    "DISAGREE {:<18} {:<16} {a:.6} vs {b:.6} ({:.1} % apart, bound {:.0} %)",
                    metric.name,
                    kind.name(),
                    apart * 100.0,
                    metric.bound * 100.0
                );
                ok = false;
            }
        }
    }
    for (w, kind) in Kind::ALL.into_iter().enumerate() {
        for metric in PER_LAYER {
            let exact =
                metric.unit == "count" || ["violation_share", "fail_share"].contains(&metric.name);
            let (a, b) = (
                first.per_layer[w].get(metric.name),
                second.per_layer[w].get(metric.name),
            );
            if exact && a != b {
                println!(
                    "DISAGREE {:<40} {:<16} {a:?} vs {b:?} (exact)",
                    metric.name,
                    kind.name()
                );
                ok = false;
            }
        }
        if first.failed[w] != 0 || second.failed[w] != 0 {
            println!("FAILED operations on {}", kind.name());
            ok = false;
        }
    }
    ok
}

/// The human command: one full set (two with `--check`), the tables, and
/// `out/report.json`. Returns whether everything held.
pub fn full_set(args: &Args) -> bool {
    let mut sets = Vec::new();
    for _ in 0..if args.check { 2 } else { 1 } {
        match run_set(args) {
            Ok(set) => sets.push(set),
            Err(message) => {
                eprintln!("wisedb-benchmark: {message}");
                return false;
            }
        }
    }
    for set in &sets {
        set.print();
    }
    let report = object(vec![
        ("host", host()),
        ("seed", Value::UInt(args.seed)),
        ("reps", Value::UInt(args.reps as u64)),
        ("run_seconds", Value::Float(args.seconds)),
        // A quick set is a smoke: its numbers are never recorded.
        ("quick", Value::Bool(args.quick)),
        (
            "sets",
            Value::Array(sets.iter().map(Set::to_json).collect()),
        ),
    ]);
    let pretty = serde_json::to_string_pretty(&report).expect("a value tree serializes");
    if let Err(message) = write_out("report.json", &pretty) {
        eprintln!("wisedb-benchmark: {message}");
        return false;
    }
    let failed: u64 = sets.iter().flat_map(|s| s.failed).sum();
    if failed != 0 {
        println!("\n{failed} operations failed");
        return false;
    }
    if let [first, second] = &sets[..] {
        let ok = agree(first, second);
        println!(
            "\ncheck: the two sets {}",
            if ok { "agree" } else { "DISAGREE" }
        );
        return ok;
    }
    true
}
