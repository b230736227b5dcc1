//! The repo benchmark. See README.md beside this package.
//!
//! ```text
//! wisedb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! wisedb-benchmark [--seed N] [--reps N] [--quick] [--check]
//! ```
//!
//! The first form is one run of one workload: it prints what it measures
//! to stderr and, as the last line of stdout, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics` — every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`. The
//! second form is a full set: it runs the first form as child processes,
//! interleaved, and reports the spread across repetitions.

mod arrivals;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use probes::{Ledger, Metric};
use workloads::{Kind, Rep, Sizes};

/// How long one run measures when the command line does not say; the
/// `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 20.0;
/// A run repeats its workload at least this often, however long one
/// repetition takes.
const MIN_REPS: usize = 2;

pub struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    quick: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: arrivals::DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        reps: 3,
        quick: false,
        check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Kind::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let text = value("a number")?;
                args.seed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                }
                .map_err(|e| format!("--seed {text}: {e}"))?;
            }
            "--seconds" => {
                let text = value("a number")?;
                args.seconds = text.parse().map_err(|e| format!("--seconds {text}: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1")),
                };
            }
            "--reps" => {
                let text = value("a number")?;
                args.reps = text.parse().map_err(|e| format!("--reps {text}: {e}"))?;
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) || args.reps == 0 {
        return Err("--seconds must be in (0, 600] and --reps at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("wisedb-benchmark: {message}");
            std::process::exit(2);
        }
    };
    let ok = match args.workload {
        Some(kind) => single_run(kind, &args),
        None => report::full_set(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// What one run found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// One run of one workload; prints the result line. A failed check
/// prints `"correct": false` with no metrics and returns `false`.
fn single_run(kind: Kind, args: &Args) -> bool {
    let result = if args.trace {
        run_traced(kind, args)
    } else {
        run_end_to_end(kind, args)
    };
    match result {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!(
                    "{:<44} {:<16} {:>18.6} {}",
                    m.name,
                    kind.name(),
                    m.value,
                    m.unit
                );
            }
            println!("{}", report::result_line(true, &outcome));
            true
        }
        Err(message) => {
            eprintln!(
                "wisedb-benchmark: {} is NOT correct: {message}",
                kind.name()
            );
            let nothing = Outcome {
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            };
            println!("{}", report::result_line(false, &nothing));
            false
        }
    }
}

/// `--trace 0`: repetitions from fresh state for `--seconds`, tracing
/// off, then the twin check. Each timing is the favourable quartile of
/// its repetitions (see `stats::favourable_quartile`).
fn run_end_to_end(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let sizes = Sizes::of(kind, args.quick);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        let rep = workloads::run_rep(kind, &sizes, args.seed)?;
        eprintln!(
            "rep {:>3}: setup {:.4} s, cold {:.4} s, {} offers in {:.4} s, warm {:.4} s, adapt {:.4} s, batch {:.4} s",
            reps.len() + 1,
            rep.setup_s,
            rep.train_cold_s,
            rep.offer_us.len(),
            rep.front_wall_s,
            rep.life.warm_s,
            rep.life.adapt_s,
            rep.life.batch_wall_s
        );
        reps.push(rep);
    }

    // Same seed, same inputs: everything on the virtual clock repeats.
    let first = &reps[0];
    for rep in &reps[1..] {
        if rep.fingerprint != first.fingerprint
            || rep.cost_mc_per_query != first.cost_mc_per_query
            || rep.violation_share != first.violation_share
            || rep.snapshot_digest != first.snapshot_digest
        {
            return Err("two repetitions of the same inputs gave different outputs".into());
        }
    }
    twin_check(kind, &sizes, args.seed, first)?;

    // Offer percentiles are taken inside each repetition, which must
    // support them: ten samples beyond a p99.
    let mut offers = Vec::with_capacity(reps.len());
    for rep in &reps {
        let sorted = stats::sorted(rep.offer_us.clone());
        let p99 = match stats::supported_percentile(&sorted, 99.0) {
            Some(value) => value,
            // A smoke run is too small for a p99; it is never recorded.
            None if args.quick => stats::percentile(&sorted, 99.0),
            None => return Err(format!("{} offers cannot support a p99", sorted.len())),
        };
        offers.push((stats::percentile(&sorted, 50.0), p99));
    }
    let lowest = |sample: Vec<f64>| stats::favourable_quartile(&sample, true);
    let highest = |sample: Vec<f64>| stats::favourable_quartile(&sample, false);
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let values = [
        lowest(per_rep(&|r| r.setup_s)),
        lowest(offers.iter().map(|o| o.0).collect()),
        lowest(offers.iter().map(|o| o.1).collect()),
        highest(per_rep(&|r| r.offer_us.len() as f64 / r.front_wall_s)),
        highest(per_rep(&|r| r.queries as f64 / r.front_wall_s)),
        lowest(per_rep(&|r| r.train_cold_s)),
        lowest(per_rep(&|r| r.life.warm_s)),
        lowest(per_rep(&|r| r.life.adapt_s)),
        highest(per_rep(&|r| {
            r.life.batch_queries as f64 / 1e3 / r.life.batch_wall_s
        })),
        first.cost_mc_per_query,
        peak_rss_mb()?,
    ];
    eprintln!(
        "{}: {} repetitions of {} offers (enough for a p{}) in {:.1} s",
        kind.name(),
        reps.len(),
        first.offer_us.len(),
        stats::highest_supported(first.offer_us.len()).unwrap_or(50.0),
        started.elapsed().as_secs_f64()
    );
    Ok(Outcome {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name.to_string(),
                unit: m.unit,
                value,
            })
            .collect(),
    })
}

/// The outputs of a repetition against a second implementation of the
/// same run: the wire against an in-process replay on the serve
/// workloads, two shards against one on tenants-ticked. (advisor-offline
/// checks each schedule against the simulated cluster as it goes.)
fn twin_check(kind: Kind, sizes: &Sizes, seed: u64, rep: &Rep) -> Result<(), String> {
    let twin = match kind {
        Kind::ServeSteady | Kind::ServeAged => workloads::serve_twin(kind, sizes, seed)?,
        Kind::TenantsTicked => {
            let one_shard = workloads::FrontOpts {
                shards: 1,
                ..workloads::FrontOpts::default()
            };
            workloads::front(kind, sizes, seed, one_shard)?.0
        }
        Kind::AdvisorOffline => return Ok(()),
    };
    if twin.snapshot_digest != rep.snapshot_digest {
        return Err("the wire snapshot differs from the in-process replay's".into());
    }
    if twin.fingerprint != rep.fingerprint || twin.cost_mc_per_query != rep.cost_mc_per_query {
        return Err("the completions differ from the twin run's".into());
    }
    Ok(())
}

/// `--trace 1`: the layer ledger, then the named workload's traced slice
/// (serve-steady's is the one the tracing-overhead probe already took).
fn run_traced(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let (mut ledger, steady) = probes::run_all(args.seed, args.quick)?;
    let slice = if kind == Kind::ServeSteady {
        steady
    } else {
        probes::traced_slice(kind, args.seed, args.quick)?
    };
    probes::workload_rows(&mut ledger, &slice);
    eprintln!("{}", slice.fold.table());
    report::write_out(&format!("trace-{}.json", kind.name()), &slice.chrome)?;
    Ok(Outcome {
        attempted: slice.rep.attempted,
        failed: slice.rep.failed,
        metrics: in_catalogue_order(ledger)?,
    })
}

/// The ledger in the catalogue's order; a missing, extra or re-united
/// metric is an error, so BENCHMARK.json cannot drift from the code.
fn in_catalogue_order(ledger: Ledger) -> Result<Vec<Metric>, String> {
    let mut measured = ledger.0;
    let mut ordered = Vec::with_capacity(metrics::PER_LAYER.len());
    for listed in metrics::PER_LAYER {
        let at = measured
            .iter()
            .position(|m| m.name == listed.name)
            .ok_or_else(|| format!("{} was not measured", listed.name))?;
        let metric = measured.swap_remove(at);
        if metric.unit != listed.unit {
            return Err(format!("{} measured in {}", listed.name, metric.unit));
        }
        if !metric.value.is_finite() {
            return Err(format!("{} is {}", listed.name, metric.value));
        }
        ordered.push(metric);
    }
    match measured.first() {
        Some(extra) => Err(format!("{} is not in the catalogue", extra.name)),
        None => Ok(ordered),
    }
}

/// Peak resident set of this process (`VmHWM`), in MB. The kernel keeps
/// the high-water mark itself, so nothing is sampled. `run.sh` sets
/// `MALLOC_ARENA_MAX=1` so thread arenas do not inflate it.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
