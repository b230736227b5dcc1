//! # wisedb-bench
//!
//! What only this crate does, in two binaries: `fig`, the table
//! registry ([`figures`]: §7's Figures 9–22, then the feature ablation,
//! the streaming runtime, multi-tenant consolidation, the search-strategy
//! shoot-out and warm retraining, the last two gated in-run —
//! `cargo run -p wisedb-bench --release --bin fig -- 9 13`); and
//! `regress`, which compares exact work counters against
//! `BENCH_baseline.json` and replays the serve trace over loopback TCP
//! ([`serve_load`]) with its conservation asserts. Nothing here reads a
//! clock: the repo's one timing instrument is `benchmark/` (see
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

/// The oracle's solver configuration: exact A* with a 2 M-expansion
/// budget.
pub fn oracle_config() -> wisedb_search::SearchConfig {
    wisedb_search::SearchConfig {
        node_limit: 2_000_000,
        ..wisedb_search::SearchConfig::default()
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
