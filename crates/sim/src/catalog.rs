//! The TPC-H-like template catalog and VM menus used by the experiments.
//!
//! The paper's testbed (§7.1) runs TPC-H templates 1–10 against a 10 GB
//! PostgreSQL database on `t2.medium` instances, measuring response times of
//! 2–6 minutes with a 4-minute mean. That hardware and dataset are not
//! available here, and WiSeDB only ever consumes per-template latencies — so
//! this module provides a synthetic catalog calibrated to the same published
//! numbers: `n` templates with latencies evenly covering 120–360 seconds
//! (mean 240 s), the same instance prices, and a `t2.small` variant where
//! "low-RAM" templates run at near parity and RAM-hungry ones degrade, as
//! the paper observed.

use wisedb_core::{Millis, Money, QueryTemplate, VmType, WorkloadSpec};

/// Latency of template `i` out of `n` on the reference (`t2.medium`) VM:
/// evenly spaced over 120–360 seconds.
pub fn reference_latency(i: usize, n: usize) -> Millis {
    if n <= 1 {
        return Millis::from_secs(240);
    }
    let span = 240.0 * i as f64 / (n - 1) as f64;
    Millis::from_secs_f64(120.0 + span)
}

/// The paper's default setup: `n` TPC-H-like templates on a single
/// `t2.medium` VM type. The experiments use `n = 10`; Figure 14 scales
/// `n` to 5/10/15/20.
pub fn tpch_like(n: usize) -> WorkloadSpec {
    assert!(n >= 1, "need at least one template");
    let templates = (0..n)
        .map(|i| QueryTemplate::single(format!("TPC-H-like Q{}", i + 1), reference_latency(i, n)))
        .collect();
    WorkloadSpec::new(templates, vec![VmType::t2_medium()])
        .expect("catalog construction is always valid")
}

/// The §7.2 multi-VM-type setup: `t2.medium` plus the half-price
/// `t2.small`. Even-indexed templates model low-RAM queries ("similar
/// performance on t2.medium and t2.small": 1.05x); odd-indexed templates
/// are RAM-hungry and slow down 2x on the small instance.
pub fn tpch_like_two_types(n: usize) -> WorkloadSpec {
    assert!(n >= 1, "need at least one template");
    let templates = (0..n)
        .map(|i| {
            let medium = reference_latency(i, n);
            let small = if i % 2 == 0 {
                medium.mul_f64(1.05)
            } else {
                medium.mul_f64(2.0)
            };
            QueryTemplate::uniform(format!("TPC-H-like Q{}", i + 1), vec![medium, small])
        })
        .collect();
    WorkloadSpec::new(templates, vec![VmType::t2_medium(), VmType::t2_small()])
        .expect("catalog construction is always valid")
}

/// A menu of `k` VM types for the Figure 15 scaling experiment: type `j`
/// is cheaper but slower — rate `0.052 / (1 + 0.35 j)` per hour, latencies
/// multiplied by `1 + 0.25 j` — so slower types cost less *per query* but
/// risk more SLA violations, and no type dominates.
pub fn tpch_like_k_types(n: usize, k: usize) -> WorkloadSpec {
    assert!(n >= 1 && k >= 1, "need at least one template and VM type");
    let vm_types: Vec<VmType> = (0..k)
        .map(|j| VmType {
            name: format!("sim.type{j}"),
            startup_cost: Money::from_dollars(0.0008),
            rate_per_hour: Money::from_dollars(0.052 / (1.0 + 0.35 * j as f64)),
        })
        .collect();
    let templates = (0..n)
        .map(|i| {
            let base = reference_latency(i, n);
            let latencies = (0..k)
                .map(|j| base.mul_f64(1.0 + 0.25 * j as f64))
                .collect();
            QueryTemplate::uniform(format!("TPC-H-like Q{}", i + 1), latencies)
        })
        .collect();
    WorkloadSpec::new(templates, vm_types).expect("catalog construction is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::{TemplateId, VmTypeId};

    #[test]
    fn latencies_match_the_papers_range() {
        let spec = tpch_like(10);
        assert_eq!(spec.num_templates(), 10);
        assert_eq!(
            spec.latency(TemplateId(0), VmTypeId(0)),
            Some(Millis::from_secs(120))
        );
        assert_eq!(
            spec.latency(TemplateId(9), VmTypeId(0)),
            Some(Millis::from_secs(360))
        );
        // Mean = 4 minutes, like the paper's workload.
        let total: Millis = (0..10)
            .map(|i| spec.latency(TemplateId(i), VmTypeId(0)).unwrap())
            .sum();
        assert_eq!(total / 10, Millis::from_secs(240));
    }

    #[test]
    fn single_template_catalog_uses_the_mean() {
        let spec = tpch_like(1);
        assert_eq!(
            spec.latency(TemplateId(0), VmTypeId(0)),
            Some(Millis::from_secs(240))
        );
    }

    #[test]
    fn two_type_catalog_splits_ram_profiles() {
        let spec = tpch_like_two_types(10);
        assert_eq!(spec.num_vm_types(), 2);
        // Even template: near parity on the small type.
        let m = spec.latency(TemplateId(0), VmTypeId(0)).unwrap();
        let s = spec.latency(TemplateId(0), VmTypeId(1)).unwrap();
        assert!(s.as_secs_f64() / m.as_secs_f64() < 1.1);
        // Odd template: 2x degradation.
        let m = spec.latency(TemplateId(1), VmTypeId(0)).unwrap();
        let s = spec.latency(TemplateId(1), VmTypeId(1)).unwrap();
        assert!((s.as_secs_f64() / m.as_secs_f64() - 2.0).abs() < 1e-9);
        // Low-RAM queries are cheaper on the small instance, making the
        // multi-type decision non-trivial (the point of Figure 12).
        let cheap_on_small = spec.runtime_cost(TemplateId(0), VmTypeId(1)).unwrap();
        let on_medium = spec.runtime_cost(TemplateId(0), VmTypeId(0)).unwrap();
        assert!(cheap_on_small < on_medium);
    }

    #[test]
    fn k_type_catalog_has_no_dominant_type() {
        let spec = tpch_like_k_types(10, 5);
        assert_eq!(spec.num_vm_types(), 5);
        // The slowest type is the cheapest per query: trade-off exists.
        let fast = spec.runtime_cost(TemplateId(0), VmTypeId(0)).unwrap();
        let slow = spec.runtime_cost(TemplateId(0), VmTypeId(4)).unwrap();
        assert!(slow < fast);
        // But it is slower in wall-clock.
        let fast_l = spec.latency(TemplateId(0), VmTypeId(0)).unwrap();
        let slow_l = spec.latency(TemplateId(0), VmTypeId(4)).unwrap();
        assert!(slow_l > fast_l);
    }
}
