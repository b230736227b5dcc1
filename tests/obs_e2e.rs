//! The observability layer, end to end (tier 1).
//!
//! Three guarantees `wisedb-obs` must keep:
//!
//! 1. **Exports are well-formed.** A traced solve renders Chrome
//!    trace-event JSON that parses back through the vendored JSON parser
//!    with balanced per-thread `B`/`E` nesting and monotone timestamps
//!    (the `wisedb_bench::trace_check` invariants a real viewer relies
//!    on), and a JSONL log whose every line is one valid object.
//! 2. **String escaping is lossless.** Arbitrary unicode attribute text
//!    survives `escape_json` → parse round trips (property-tested),
//!    including quotes, backslashes, and control characters.
//! 3. **Tracing changes nothing.** The same solve with tracing off, with
//!    full spans recording, and off again produces bit-identical
//!    schedules, costs, and `SearchStats` — instrumentation observes the
//!    system, it never steers it.
//!
//! Every test that touches the process-global collector serializes on
//! [`wisedb::obs::testing::hold`].

use proptest::prelude::*;
use wisedb::obs::{self, escape_json, Level};
use wisedb::prelude::*;
use wisedb_bench::trace_check;

fn instance() -> (WorkloadSpec, PerformanceGoal, Workload) {
    let spec = wisedb::sim::catalog::tpch_like(4);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let workload = wisedb::sim::generator::uniform_workload(&spec, 8, 42);
    (spec, goal, workload)
}

/// Invariant 1: the Chrome export of a real traced solve (plus some
/// deliberately nested spans) passes the full structural validation, and
/// the JSONL export is one parseable object per line.
#[test]
fn exports_parse_back_well_formed() {
    let _hold = obs::testing::hold();
    let collector = obs::install(Level::Spans);

    {
        // Nesting on one thread: inner must close before outer.
        let mut outer = obs::span("test.outer");
        outer.attr_str("note", "quotes \" and \\ backslashes\nsurvive");
        let _inner = obs::span("test.inner");
    }
    let (spec, goal, workload) = instance();
    Solver::new(&spec, &goal)
        .solve(&workload)
        .expect("catalog solves succeed");

    let trace = collector.finish();
    let check = trace_check::validate_chrome_trace(&trace.to_chrome())
        .unwrap_or_else(|e| panic!("chrome export failed validation: {e}"));
    assert!(
        check.events >= 4,
        "traced solve produced {} events",
        check.events
    );
    assert_eq!(check.span("test.outer").count, 1);
    assert_eq!(check.span("test.inner").count, 1);
    assert!(
        check.span("search.solve").count >= 1,
        "the solve must appear as a search.solve span"
    );

    let jsonl = trace.to_jsonl();
    let mut lines = 0;
    for line in jsonl.lines() {
        let value = serde_json::from_str_value(line)
            .unwrap_or_else(|e| panic!("JSONL line failed to parse: {e}\n{line}"));
        assert!(value.get("name").and_then(|v| v.as_str()).is_some());
        assert!(value.get("seq").and_then(|v| v.as_u64()).is_some());
        lines += 1;
    }
    assert_eq!(lines, trace.events.len(), "one JSONL line per event");
}

/// Invariant 3: tracing level and collector lifecycle leave the solver's
/// outputs bit-identical — schedule, cost, and every counter in
/// [`SearchStats`](wisedb::search::strategy::SearchStats).
#[test]
fn full_span_tracing_never_changes_solver_results() {
    let _hold = obs::testing::hold();
    obs::set_level(Level::Off);
    let (spec, goal, workload) = instance();
    let solve = || {
        Solver::new(&spec, &goal)
            .solve(&workload)
            .expect("catalog solves succeed")
    };

    let baseline = solve();
    let collector = obs::install(Level::Spans);
    let traced = solve();
    let trace = collector.finish();
    let after = solve();

    for (label, run) in [("traced", &traced), ("after finish", &after)] {
        assert_eq!(run.schedule, baseline.schedule, "{label}: schedule changed");
        assert_eq!(run.cost, baseline.cost, "{label}: cost changed");
        assert_eq!(
            run.stats, baseline.stats,
            "{label}: search counters changed"
        );
    }
    // ... and the traced run really was recorded.
    let totals = trace.span_totals();
    assert!(totals.contains_key("search.solve"));
}

/// The §5 tightening retrain — the online Shift path — is as visible as
/// cache-backed training: one `train.model` span tagged `kind=tightened`
/// carrying its sample and expansion counts, with every sample solve under
/// it counted in `wisedb_train_solves_total`.
#[test]
fn tightened_retrain_is_a_train_model_span_and_counts_its_solves() {
    use wisedb::obs::{AttrValue, Phase};

    let _hold = obs::testing::hold();
    let (spec, goal, _) = instance();
    let config = ModelConfig {
        num_samples: 12,
        sample_size: 6,
        ..ModelConfig::fast()
    };
    let generator = ModelGenerator::new(spec.clone(), goal.clone(), config);
    let (_, mut artifacts) = generator.train_with_artifacts().unwrap();
    let tightened = goal.tighten_pct(&spec, 0.3);
    let solves = || {
        obs::snapshot_metrics()
            .counters
            .iter()
            .find(|(name, _)| name == "wisedb_train_solves_total")
            .map_or(0, |&(_, v)| v)
    };

    let collector = obs::install(Level::Spans);
    let before = solves();
    generator
        .retrain_tightened(&tightened, &mut artifacts)
        .unwrap();
    let counted = solves() - before;
    let trace = collector.finish();

    assert_eq!(counted, 12, "one counted solve per sample");
    let ends: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "train.model" && matches!(e.phase, Phase::End))
        .collect();
    assert_eq!(ends.len(), 1, "exactly one train.model span");
    let attr = |key: &str| {
        ends[0]
            .attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(attr("kind"), Some(AttrValue::Str("tightened".into())));
    assert_eq!(attr("samples"), Some(AttrValue::U64(12)));
    assert!(matches!(attr("expanded"), Some(AttrValue::U64(n)) if n > 0));
    let totals = trace.span_totals();
    assert_eq!(totals["train.sample"].count, 12);
    assert_eq!(totals["search.solve"].count, 12);
}

/// Every completion is counted wherever it was harvested: most of a short
/// stream's queries finish during the final drain, not while the clock
/// steps between arrivals, and the exposition must not read low by them.
#[test]
fn completions_counter_matches_the_snapshot_after_a_drain() {
    let _hold = obs::testing::hold();
    let (spec, goal, _) = instance();
    let config = RuntimeConfig {
        online: OnlineConfig {
            training: ModelConfig {
                num_samples: 12,
                sample_size: 6,
                ..ModelConfig::fast()
            },
            ..OnlineConfig::default()
        },
        ..RuntimeConfig::default()
    };
    let mut service = WorkloadService::train(spec.clone(), goal, config).unwrap();
    let mut process = PoissonProcess::per_second(0.05, TemplateMix::uniform(spec.num_templates()));
    let stream = wisedb::runtime::generate_stream(&mut process, 12, 7);

    let collector = obs::install(Level::Counters);
    let report = service.run_stream(&stream).unwrap();
    let counted = obs::snapshot_metrics()
        .counters
        .iter()
        .find(|(name, _)| name == "wisedb_runtime_completions_total")
        .map_or(0, |&(_, v)| v);
    drop(collector.finish());

    assert_eq!(report.last.completed, 12);
    assert_eq!(counted, report.last.completed);
}

/// Codepoints across ASCII (including every control character), Latin,
/// and a few astral-plane samples — whatever `filter_map` keeps is a
/// valid `String`.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..=0x2FFF, 0..48).prop_map(|cps| {
        cps.into_iter()
            .flat_map(|cp| char::from_u32(cp).or_else(|| char::from_u32(cp + 0x1F300)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, .. ProptestConfig::default()
    })]

    /// Invariant 2: `escape_json` output, embedded in a document, parses
    /// back to exactly the original string.
    #[test]
    fn escaping_round_trips_arbitrary_strings(s in arb_text()) {
        let doc = format!("{{\"k\":\"{}\"}}", escape_json(&s));
        let value = serde_json::from_str_value(&doc);
        prop_assert!(value.is_ok(), "escaped form failed to parse: {:?}", value.err());
        let back = value.unwrap();
        prop_assert_eq!(back.get("k").and_then(|v| v.as_str()), Some(s.as_str()));
    }
}
