//! # wisedb-bench
//!
//! What only this crate does, in three binaries: `fig`, the table
//! registry ([`figures`]: §7's Figures 9–22, then the feature ablation,
//! the streaming runtime, multi-tenant consolidation, the search-strategy
//! shoot-out and warm retraining, the last two gated in-run —
//! `cargo run -p wisedb-bench --release --bin fig -- 9 13`); `loadgen`,
//! the wire-protocol load generator with its conservation asserts; and
//! `regress`, which compares exact work counters against
//! `BENCH_baseline.json`. Only `loadgen` prints times, as a report that
//! nothing gates on: the repo's one timing instrument is `benchmark/` (see
//! `BENCHMARK.json`).
//!
//! Scale is controlled by the `WISEDB_SCALE` environment variable:
//!
//! * `quick` — minutes-scale smoke run (small training sets, few repeats);
//! * `std` *(default)* — the calibration used for EXPERIMENTS.md;
//! * `paper` — the paper's full N = 3000 × m = 18 training configuration.
//!
//! Any other value aborts the run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use wisedb_advisor::ModelConfig;
use wisedb_core::Money;

pub mod figures;
pub mod multitenant;
pub mod regress;
pub mod serve_load;
pub mod table;
pub mod trace_check;

pub use table::{Cell, Table};

/// Benchmark scale, from `WISEDB_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale.
    Quick,
    /// Default calibration.
    Std,
    /// The paper's configuration.
    Paper,
}

impl Scale {
    /// The `WISEDB_SCALE` spelling of this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Std => "std",
            Scale::Paper => "paper",
        }
    }

    /// Parses a `WISEDB_SCALE` value; anything but the three names is an
    /// error that lists them.
    pub fn parse(raw: &str) -> Result<Scale, String> {
        [Scale::Quick, Scale::Std, Scale::Paper]
            .into_iter()
            .find(|scale| scale.name() == raw)
            .ok_or_else(|| format!("invalid WISEDB_SCALE {raw:?}: expected quick, std or paper"))
    }

    /// Reads `WISEDB_SCALE` (default [`Scale::Std`] when unset). An
    /// unknown value aborts — a typo must not silently run the slow
    /// default scale.
    pub fn from_env() -> Scale {
        match std::env::var("WISEDB_SCALE") {
            Ok(raw) => Scale::parse(&raw).unwrap_or_else(|e| panic!("{e}")),
            Err(std::env::VarError::NotPresent) => Scale::Std,
            Err(e) => panic!("invalid WISEDB_SCALE: {e}"),
        }
    }

    /// Training configuration at this scale.
    pub fn training(self) -> ModelConfig {
        match self {
            Scale::Quick => ModelConfig {
                num_samples: 150,
                sample_size: 9,
                seed: 0xBE7C4,
                ..ModelConfig::fast()
            },
            Scale::Std => ModelConfig {
                num_samples: 800,
                sample_size: 12,
                seed: 0xBE7C4,
                ..ModelConfig::fast()
            },
            Scale::Paper => ModelConfig {
                seed: 0xBE7C4,
                ..ModelConfig::paper()
            },
        }
    }

    /// Workloads averaged per measured point (the paper uses 5).
    pub fn repeats(self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Std | Scale::Paper => 5,
        }
    }
}

/// `(x / reference − 1)` as a percentage; the "% above optimal" metric.
pub fn pct_above(x: Money, reference: Money) -> f64 {
    if reference.as_dollars() <= 0.0 {
        return 0.0;
    }
    (x.as_dollars() / reference.as_dollars() - 1.0) * 100.0
}

/// The search strategy requested for this bench run, if any: the
/// `--strategy` CLI flag wins, then the `WISEDB_STRATEGY` environment
/// variable (`exact` | `beam[:width]` | `anytime[:weight[:decay]]`).
/// Invalid values abort with the parse error — a nightly sweep must not
/// silently fall back to the default solver.
pub fn strategy_override() -> Option<wisedb_search::SearchStrategy> {
    let args: Vec<String> = std::env::args().collect();
    let from_cli = args
        .iter()
        .position(|a| a == "--strategy")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("--strategy requires a value"))
                .clone()
        })
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--strategy=").map(str::to_string))
        });
    let raw = from_cli.or_else(|| std::env::var("WISEDB_STRATEGY").ok())?;
    Some(raw.parse().unwrap_or_else(|e| panic!("{e}")))
}

/// The Chrome-trace output path requested for this bench run, if any:
/// `--trace <path>` or `--trace=<path>` (mirrors [`strategy_override`]'s
/// CLI conventions). An absent value aborts — a CI smoke must not
/// silently run untraced.
pub fn trace_path_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--trace")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("--trace requires a path"))
                .clone()
        })
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--trace=").map(str::to_string))
        })
        .map(std::path::PathBuf::from)
}

/// If `--trace` was passed, installs a full-span `wisedb-obs` collector
/// and returns it with the output path. Call [`finish_trace`] when the
/// measured section is over.
pub fn trace_collector_from_args() -> Option<(wisedb_obs::Collector, std::path::PathBuf)> {
    let path = trace_path_from_args()?;
    Some((wisedb_obs::install(wisedb_obs::Level::Spans), path))
}

/// Finishes a collector started by [`trace_collector_from_args`], writes
/// the Chrome trace to its path, and reports the span totals to stderr.
pub fn finish_trace(collector: wisedb_obs::Collector, path: &std::path::Path) {
    let trace = collector.finish();
    let chrome = trace.to_chrome();
    std::fs::write(path, &chrome).unwrap_or_else(|e| panic!("writing {path:?} failed: {e}"));
    eprintln!(
        "trace: {} events -> {} ({} bytes)",
        trace.events.len(),
        path.display(),
        chrome.len()
    );
}

/// The expansion-budget override, if any: `WISEDB_NODE_LIMIT` (all
/// strategies honor it — see
/// [`SearchConfig::node_limit`](wisedb_search::SearchConfig::node_limit)).
pub fn node_limit_override() -> Option<usize> {
    let raw = std::env::var("WISEDB_NODE_LIMIT").ok()?;
    Some(
        raw.parse()
            .unwrap_or_else(|_| panic!("invalid WISEDB_NODE_LIMIT {raw:?}")),
    )
}

/// The oracle's solver configuration: exact A* with a 2 M-expansion budget
/// by default; `WISEDB_NODE_LIMIT` sets the budget, and
/// [`strategy_override`] selects the strategy — so nightly can sweep
/// `exact`/`beam`/`anytime` oracles without recompiling.
pub fn oracle_config() -> wisedb_search::SearchConfig {
    let mut config = wisedb_search::SearchConfig {
        node_limit: 2_000_000,
        ..wisedb_search::SearchConfig::default()
    };
    apply_search_overrides(&mut config);
    config
}

/// Applies the `--strategy`/`WISEDB_STRATEGY` and `WISEDB_NODE_LIMIT`
/// overrides to an existing solver configuration, leaving other tunables
/// (e.g. a bench's own default budget) untouched.
pub fn apply_search_overrides(config: &mut wisedb_search::SearchConfig) {
    if let Some(limit) = node_limit_override() {
        config.node_limit = limit;
    }
    if let Some(strategy) = strategy_override() {
        config.strategy = strategy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_above_basics() {
        assert_eq!(
            pct_above(Money::from_dollars(1.10), Money::from_dollars(1.0)),
            10.000000000000009
        );
        assert_eq!(pct_above(Money::ZERO, Money::ZERO), 0.0);
    }

    #[test]
    fn scale_parses_its_three_names_and_rejects_the_rest() {
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("std"), Ok(Scale::Std));
        assert_eq!(Scale::parse("paper"), Ok(Scale::Paper));
        let err = Scale::parse("qiuck").unwrap_err();
        assert!(err.contains("\"qiuck\""), "{err}");
        assert!(err.contains("quick, std or paper"), "{err}");
        assert!(Scale::parse("").is_err());
        assert!(Scale::parse("Quick").is_err());
    }

    #[test]
    fn scale_configs_are_ordered() {
        assert!(Scale::Quick.training().num_samples < Scale::Std.training().num_samples);
        assert!(Scale::Std.training().num_samples < Scale::Paper.training().num_samples);
        assert_eq!(Scale::Paper.training().num_samples, 3000);
        assert_eq!(Scale::Paper.training().sample_size, 18);
    }
}
