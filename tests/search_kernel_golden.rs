//! Bit-identity oracle for the A* expansion kernel.
//!
//! `tests/fixtures/search_kernel_golden.txt` was generated before the
//! successor-generation path was rebuilt and must stay byte-identical
//! across any change to it: every line pins one solve's decision sequence,
//! `cost.to_bits()`, every [`SearchStats`] counter, and an FNV-1a fold of
//! the explored `(key, g.to_bits())` list in settle order. A kernel change
//! that reorders a tie-break, rounds an `h` differently, interns one vertex
//! more or prices one edge differently shows up here as a one-line diff.
//!
//! Inputs: `tpch_like(10)` (plus two workloads on the two-VM-type
//! catalog), 12 fixed workloads of 8–14 queries, all four goal kinds, both
//! strategies, and per combination three solves — from scratch, a
//! memo-warmed second solve under `tighten_pct(0.2)`, and a `plan_from` an
//! initial vertex that carries a seeded open VM. The expansion budget is
//! small enough that percentile searches exercise the limit-hit exits too.
//!
//! To regenerate after an *intended* behaviour change:
//! `cargo test --test search_kernel_golden -- --ignored bless`.

use std::fmt::Write as _;
use std::path::PathBuf;

use wisedb::prelude::*;
use wisedb::search::{
    AdaptiveSearcher, Decision, KeyRef, LastVm, SearchState, SearchStats, SearchStrategy,
};
use wisedb_core::{PenaltyDigest, TemplateId, VmTypeId};

const NODE_LIMIT: usize = 3_000;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/search_kernel_golden.txt")
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds a vertex identity by content, not by representation.
fn fold_key(h: &mut Fnv, key: KeyRef<'_>) {
    for &c in key.unassigned() {
        h.word(c as u64);
    }
    match key.open_vm() {
        None => h.word(u64::MAX),
        Some((vm_type, wait, last)) => {
            h.word(vm_type as u64);
            h.word(wait);
            h.word(last.map(|t| t as u64).unwrap_or(u64::MAX - 1));
        }
    }
    match key.digest() {
        PenaltyDigest::None => h.word(0),
        PenaltyDigest::Average { sum_ms, count } => {
            h.word(1);
            h.word(sum_ms as u64);
            h.word((sum_ms >> 64) as u64);
            h.word(count);
        }
        PenaltyDigest::Percentile(dist) => {
            h.word(2);
            for (value, count) in dist.buckets() {
                h.word(value);
                h.word(count as u64);
            }
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` template-count vectors of 8–14 queries over `templates` templates.
fn workloads(n: usize, templates: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut state = seed;
    (0..n)
        .map(|i| {
            let size = 8 + i % 7;
            let mut counts = vec![0u32; templates];
            for _ in 0..size {
                counts[(splitmix(&mut state) % templates as u64) as usize] += 1;
            }
            counts
        })
        .collect()
}

fn strategies() -> [(&'static str, SearchStrategy); 2] {
    [
        ("exact", SearchStrategy::Exact),
        ("anytime", SearchStrategy::Anytime),
    ]
}

fn config(strategy: SearchStrategy) -> SearchConfig {
    SearchConfig {
        node_limit: NODE_LIMIT,
        strategy,
    }
}

fn path_of(decisions: impl Iterator<Item = Decision>, num_templates: usize) -> String {
    decisions
        .map(|d| d.label(num_templates).to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn stats_of(s: &SearchStats) -> String {
    format!(
        "exp={} gen={} reo={} int={} inc={} opt={} lim={} bound={:016x}",
        s.expanded,
        s.generated,
        s.reopened,
        s.interned,
        s.incumbents,
        s.optimal as u8,
        s.limit_hit as u8,
        s.bound.to_bits()
    )
}

/// An initial vertex whose open VM already queues the two most common
/// templates of the workload — what the online scheduler hands the solver.
fn seeded_initial(spec: &WorkloadSpec, goal: &PerformanceGoal, counts: &[u32]) -> SearchState {
    let mut by_count: Vec<usize> = (0..counts.len()).collect();
    by_count.sort_by_key(|&t| (std::cmp::Reverse(counts[t]), t));
    let vm_type = VmTypeId(0);
    let queue: Vec<TemplateId> = by_count
        .iter()
        .take(2)
        .map(|&t| TemplateId(t as u32))
        .collect();
    let wait = queue
        .iter()
        .map(|&t| spec.latency(t, vm_type).expect("type 0 runs everything"))
        .sum();
    let mut state = SearchState::for_counts(counts, goal).unwrap();
    state.last_vm = Some(LastVm::seeded(vm_type, queue, wait));
    state.vms_rented = 1;
    state
}

fn render_spec(out: &mut String, tag: &str, spec: &WorkloadSpec, workloads: &[Vec<u32>]) {
    let nt = spec.num_templates();
    for (wi, counts) in workloads.iter().enumerate() {
        let workload = Workload::from_counts(counts);
        for kind in GoalKind::ALL {
            let goal = PerformanceGoal::paper_default(kind, spec).unwrap();
            let tightened = goal.tighten_pct(spec, 0.2);
            for (name, strategy) in strategies() {
                let head = format!("{tag}{wi:02} {} {name}", kind.name());

                let (solved, explored) = Solver::new(spec, &goal)
                    .with_config(config(strategy))
                    .solve_with_explored(&workload)
                    .unwrap();
                let mut fold = Fnv::new();
                for (key, g) in explored.iter() {
                    fold_key(&mut fold, key);
                    fold.word(g.to_bits());
                }
                writeln!(
                    out,
                    "{head} base path={} cost={:016x} {} explored={}:{:016x}",
                    path_of(solved.steps.iter().map(|s| s.decision), nt),
                    solved.cost.as_dollars().to_bits(),
                    stats_of(&solved.stats),
                    explored.len(),
                    fold.0
                )
                .unwrap();

                let mut adaptive = AdaptiveSearcher::new();
                adaptive
                    .solve(spec, &goal, &workload, config(strategy))
                    .unwrap();
                let warmed = adaptive
                    .solve(spec, &tightened, &workload, config(strategy))
                    .unwrap();
                writeln!(
                    out,
                    "{head} tight path={} cost={:016x} {} memo={}",
                    path_of(warmed.steps.iter().map(|s| s.decision), nt),
                    warmed.cost.as_dollars().to_bits(),
                    stats_of(&warmed.stats),
                    adaptive.memo_len()
                )
                .unwrap();

                let plan = Solver::new(spec, &goal)
                    .with_config(config(strategy))
                    .plan_from(seeded_initial(spec, &goal, counts))
                    .unwrap();
                writeln!(
                    out,
                    "{head} seeded path={} cost={:016x} {}",
                    path_of(plan.decisions.iter().copied(), nt),
                    plan.cost.as_dollars().to_bits(),
                    stats_of(&plan.stats)
                )
                .unwrap();
            }
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    let spec = wisedb::sim::catalog::tpch_like(10);
    render_spec(&mut out, "w", &spec, &workloads(12, 10, 0x5EED_601D));
    let two_types = wisedb::sim::catalog::tpch_like_two_types(6);
    render_spec(&mut out, "t", &two_types, &workloads(2, 6, 0x5EED_2222));
    out
}

#[test]
fn kernel_matches_the_committed_fixture() {
    let expected = std::fs::read_to_string(fixture_path()).expect("fixture is committed");
    let actual = render();
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "first difference at fixture line {}", i + 1);
    }
    assert!(actual == expected, "line count differs");
}

#[test]
#[ignore = "rewrites the fixture; run only for an intended behaviour change"]
fn bless() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, render()).unwrap();
}
