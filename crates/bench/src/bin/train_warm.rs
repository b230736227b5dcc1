//! Warm-retrain check: cold training vs [`ModelGenerator::retrain_from`].
//!
//! A cold train runs one A* solve per distinct sample. The solve cache
//! canonicalizes every sample to its template multiset and memoizes the
//! solve, so a retrain whose sample mix overlaps a previous run's — the
//! drift loop's steady state — skips the overlapping searches entirely,
//! and an identical-config warm retrain is all feature extraction and
//! tree induction. This binary reports the work of each path per goal
//! kind (solves, dedup hits, dataset rows, tree nodes):
//!
//! 1. **cold** — a fresh `train_with_artifacts` (empty cache).
//! 2. **warm identical** — `retrain_from` with the same seed: zero A*
//!    solves, bit-identical model (both asserted).
//! 3. **warm reseeded** — `retrain_from` with a different seed: only the
//!    signatures the new draw doesn't share with the cache are solved.
//!
//! ```text
//! WISEDB_SCALE=std cargo run --release -p wisedb-bench --bin train_warm
//! cargo run --release -p wisedb-bench --bin train_warm -- --smoke  # CI gate
//! ```
//!
//! `--smoke` exits non-zero unless every goal kind's identical-seed warm
//! retrain performed **zero** solves and reproduced the cold model bit
//! for bit. Nothing here reads a clock: `benchmark/` times the warm path
//! (`train_warm_s`).

use wisedb::prelude::*;
use wisedb_bench::{Scale, Table};

fn config(scale: Scale, kind: GoalKind) -> ModelConfig {
    // Larger samples tilt the cold run toward its A* solves (the paper
    // trains at m = 18), which is exactly the cost the warm path removes.
    // Percentile goals run the anytime search, whose per-solve cost is
    // orders of magnitude above the monotone goals', so they train at a
    // smaller workload — the same per-goal sizing the regress A* bench uses.
    let num_samples = match scale {
        Scale::Quick => 150,
        Scale::Std => 600,
        Scale::Paper => 3000,
    };
    let sample_size = match (scale, kind) {
        (Scale::Quick, _) => 9,
        (Scale::Std, GoalKind::Percentile) => 12,
        (Scale::Std, _) => 16,
        (Scale::Paper, GoalKind::Percentile) => 14,
        (Scale::Paper, _) => 18,
    };
    ModelConfig {
        num_samples,
        sample_size,
        seed: 0x7EA1,
        ..ModelConfig::fast()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = Scale::from_env();
    let spec = wisedb::sim::catalog::tpch_like(10);

    let mut table = Table::new(
        "warm-path training: cold vs warm retrain",
        &[
            "goal",
            "queries",
            "solves",
            "hits",
            "rows",
            "tree nodes",
            "reseed solves",
        ],
    );
    let mut failures = 0usize;

    for kind in GoalKind::ALL {
        let cfg = config(scale, kind);
        eprintln!(
            "train_warm {}: {} samples of {} queries, 10 templates",
            kind.name(),
            cfg.num_samples,
            cfg.sample_size
        );
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let generator = ModelGenerator::new(spec.clone(), goal, cfg.clone());

        let (cold, artifacts) = generator.train_with_artifacts().unwrap();
        let warm_start = artifacts.warm_start();

        // Same seed, same mix: every signature is already cached.
        let (warm, _) = generator.retrain_from(&warm_start).unwrap();

        if warm.stats().solves != 0 {
            eprintln!(
                "FAIL {}: identical-config warm retrain ran {} A* solves",
                kind.name(),
                warm.stats().solves
            );
            failures += 1;
        }
        if warm.tree() != cold.tree() || warm.stats().num_rows != cold.stats().num_rows {
            eprintln!(
                "FAIL {}: warm retrain diverged from the cold model",
                kind.name()
            );
            failures += 1;
        }

        // A drift loop's realistic step: a fresh sample draw against the
        // populated cache — only unseen signatures are solved.
        let reseeded = ModelGenerator::new(
            spec.clone(),
            PerformanceGoal::paper_default(kind, &spec).unwrap(),
            cfg.clone().with_seed(cfg.seed ^ 0xD1F7),
        );
        let (shifted, _) = reseeded.retrain_from(&warm_start).unwrap();

        table.row(&[
            kind.name().to_string(),
            cfg.sample_size.to_string(),
            cold.stats().solves.to_string(),
            cold.stats().cache_hits.to_string(),
            cold.stats().num_rows.to_string(),
            cold.tree().num_nodes().to_string(),
            shifted.stats().solves.to_string(),
        ]);
    }

    println!("{}", table.render());

    if smoke {
        if failures > 0 {
            eprintln!("smoke FAILED: {failures} warm-retrain contract violation(s)");
            std::process::exit(1);
        }
        eprintln!(
            "smoke ok: every goal kind's identical-config warm retrain \
             performed zero A* solves and reproduced the cold model"
        );
    }
}
