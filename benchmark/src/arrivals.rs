//! The benchmark's own input generator.
//!
//! Arrivals are drawn here — splitmix64, exponential gaps, uniform
//! template picks — and never through `wisedb_runtime::arrivals`, so a
//! product change to `PoissonProcess` cannot change what the benchmark
//! feeds the program. The program only ever receives [`ArrivingQuery`]
//! values (and, for the batch workload, a [`Workload`] of template ids).

use wisedb_core::{ArrivingQuery, Millis, TemplateId, TenantId, Workload};

/// Seed used when the command line gives none.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// The splitmix64 generator (Steele, Lea & Flood): one 64-bit state word,
/// full period, and good enough mixing that consecutive seeds give
/// unrelated streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is below 2⁻⁵⁰ for the small `n` used).
    pub fn next_below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A stream seed for (`seed`, `stream`): class `c` of one run draws from
/// `stream = c`, so classes are independent and adding a class does not
/// shift the others.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Shuffles `items` in place (Fisher–Yates).
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// `count` template ids, each of `num_templates` equally often (to within
/// one), in seeded order.
fn uniform_templates(rng: &mut SplitMix64, num_templates: u32, count: usize) -> Vec<TemplateId> {
    let mut templates: Vec<TemplateId> = (0..count)
        .map(|i| TemplateId(i as u32 % num_templates))
        .collect();
    shuffle(&mut templates, rng);
    templates
}

/// `n` Poisson arrivals of `class` at `rate_per_s` (virtual seconds),
/// templates uniform over `num_templates`.
///
/// The draw is **stratified**: the gaps are the `n` mid-quantiles of the
/// exponential distribution and the templates an exact `n / num_templates`
/// of each, and the seed decides only their order. Every seed therefore
/// offers the same load — the same gaps, the same template mix, the same
/// virtual duration — in a different sequence, so a metric differs
/// between seeds by what the *order* of arrivals does to the system and
/// not by how lucky the draw was. Gaps are rounded to whole milliseconds,
/// the virtual clock's resolution.
pub fn poisson(
    seed: u64,
    class: TenantId,
    rate_per_s: f64,
    num_templates: u32,
    n: usize,
) -> Vec<ArrivingQuery> {
    let mut rng = SplitMix64::new(stream_seed(seed, class.0 as u64));
    let mean_gap_ms = 1000.0 / rate_per_s;
    let mut gaps: Vec<u64> = (0..n)
        .map(|i| {
            let quantile = (i as f64 + 0.5) / n as f64;
            (-(1.0 - quantile).ln() * mean_gap_ms).round() as u64
        })
        .collect();
    shuffle(&mut gaps, &mut rng);
    let templates = uniform_templates(&mut rng, num_templates, n);
    let mut now_ms = 0u64;
    gaps.into_iter()
        .zip(templates)
        .map(|(gap, template)| {
            now_ms += gap;
            ArrivingQuery::of_class(template, Millis::from_millis(now_ms), class)
        })
        .collect()
}

/// Merges per-class streams by arrival time; ties keep class order, so
/// the merge is deterministic.
pub fn merge(streams: Vec<Vec<ArrivingQuery>>) -> Vec<ArrivingQuery> {
    let mut all: Vec<ArrivingQuery> = streams.into_iter().flatten().collect();
    all.sort_by_key(|q| (q.arrival, q.class));
    all
}

/// A batch workload of `n` queries, templates uniform over `num_templates`
/// (stratified like [`poisson`]: equal counts, seeded order).
pub fn uniform_batch(seed: u64, num_templates: u32, n: usize) -> Workload {
    let mut rng = SplitMix64::new(stream_seed(seed, 0xBA7C));
    Workload::from_templates(uniform_templates(&mut rng, num_templates, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(seed: u64, class: u32) -> Vec<(u32, u64)> {
        poisson(seed, TenantId(class), 0.5, 10, 200)
            .iter()
            .take(5)
            .map(|q| (q.template.0, q.arrival.as_millis()))
            .collect()
    }

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs for seed 1234567, from the reference C
        // implementation (Vigna's splitmix64.c).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn default_seed_arrivals_are_pinned_per_class() {
        assert_eq!(head(DEFAULT_SEED, 0), PINNED[0]);
        assert_eq!(head(DEFAULT_SEED, 1), PINNED[1]);
        assert_eq!(head(DEFAULT_SEED, 2), PINNED[2]);
        assert_eq!(head(DEFAULT_SEED, 3), PINNED[3]);
    }

    #[test]
    fn another_seed_gives_other_arrivals() {
        assert_eq!(head(7, 0), head(7, 0));
        assert_ne!(head(7, 0), head(DEFAULT_SEED, 0));
        assert_ne!(head(DEFAULT_SEED, 0), head(DEFAULT_SEED, 1));
    }

    #[test]
    fn streams_are_time_ordered_and_merge_keeps_every_arrival() {
        let a = poisson(3, TenantId(0), 0.5, 10, 200);
        let b = poisson(3, TenantId(1), 0.25, 10, 100);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|q| q.template.0 < 10));
        // The stratified gaps average the exponential mean (2 s at 0.5/s)
        // for every seed, and keep its long tail.
        let mean_gap = a.last().unwrap().arrival.as_millis() as f64 / 200.0;
        assert!((1950.0..2050.0).contains(&mean_gap), "mean gap {mean_gap}");
        let other = poisson(4, TenantId(0), 0.5, 10, 200);
        assert_eq!(a.last().unwrap().arrival, other.last().unwrap().arrival);
        let longest = a
            .windows(2)
            .map(|w| (w[1].arrival - w[0].arrival).as_millis())
            .max();
        assert!(longest > Some(8_000), "longest gap {longest:?}");
        assert_eq!(a.iter().filter(|q| q.template.0 == 3).count(), 20);
        let merged = merge(vec![a, b]);
        assert_eq!(merged.len(), 300);
        assert!(merged.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(
            merged.iter().filter(|q| q.class == TenantId(1)).count(),
            100
        );
    }

    #[test]
    fn batches_are_seeded_and_in_range() {
        let a = uniform_batch(5, 10, 1000);
        assert_eq!(a.len(), 1000);
        assert_eq!(a.template_counts(10), vec![100; 10]);
        let order = |w: &Workload| w.queries().iter().map(|q| q.template).collect::<Vec<_>>();
        assert_eq!(order(&a), order(&uniform_batch(5, 10, 1000)));
        assert_ne!(order(&a), order(&uniform_batch(6, 10, 1000)));
    }

    /// (template, arrival ms) of the first five of 200 arrivals of classes
    /// 0..4 at 0.5 q/s over 10 templates, seed [`DEFAULT_SEED`]; computed
    /// by an independent implementation of the generator.
    const PINNED: [[(u32, u64); 5]; 4] = [
        [(7, 1376), (3, 4620), (0, 6542), (5, 11532), (7, 11839)],
        [(3, 1458), (2, 1731), (6, 2761), (3, 8306), (9, 9643)],
        [(6, 5894), (6, 11285), (3, 11361), (4, 12860), (9, 13099)],
        [(1, 6094), (9, 9239), (2, 9717), (8, 10904), (5, 15460)],
    ];
}
