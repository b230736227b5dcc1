//! The live cluster against its scan-based reference
//! (`support/live_reference.rs`): random operation sequences over one or
//! two VM types and one to three SLA classes — provisioning, queueing
//! (also onto released and unknown VMs), recalls followed by the
//! rollback or a replan, clock advances (forward, to the same instant and
//! backwards) and drains — run on both, and after every operation the
//! two must agree exactly: the operation's result or error, then the
//! clock, the bills to the bit, the pending counts, the fleet gauges and
//! the open VM.

use proptest::prelude::*;

use wisedb::prelude::*;
use wisedb::sim::{LiveCluster, LiveOptions};
use wisedb_core::OpenVmView;

#[path = "support/live_reference.rs"]
mod live_reference;

use live_reference::LiveCluster as Reference;

/// Per-template latencies (ms) on `t2.medium`, plus `t2.small` when
/// `two_types`; a small-type latency that is a multiple of 5 is dropped,
/// so some placements are unsupported.
fn spec_of(latencies: &[(u64, u64)], two_types: bool) -> WorkloadSpec {
    let mut types = vec![VmType::t2_medium()];
    if two_types {
        types.push(VmType::t2_small());
    }
    let templates = latencies
        .iter()
        .enumerate()
        .map(|(i, &(medium, small))| {
            let small = (small % 5 != 0).then(|| Millis::from_millis(small));
            QueryTemplate {
                name: format!("T{}", i + 1),
                latencies: [Some(Millis::from_millis(medium)), small][..types.len()].to_vec(),
            }
        })
        .collect();
    WorkloadSpec::new(templates, types).unwrap()
}

/// A latency in ms: short half the time.
fn latency() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..4, 1u64..25]
}

/// Everything a caller can read off a session, bills as bit patterns.
#[derive(Debug, PartialEq)]
struct Observed {
    now: Millis,
    billed: u64,
    billed_by_class: Vec<u64>,
    pending: usize,
    pending_of: Vec<usize>,
    vms_in_flight: usize,
    vms_provisioned: usize,
    open_vm: Option<(usize, OpenVmView)>,
}

macro_rules! observe {
    ($c:expr, $classes:expr) => {
        Observed {
            now: $c.now(),
            billed: $c.billed().as_dollars().to_bits(),
            billed_by_class: $c
                .billed_by_class()
                .iter()
                .map(|m| m.as_dollars().to_bits())
                .collect(),
            pending: $c.pending(),
            // One class past the last, which never queues anything.
            pending_of: (0..=$classes).map(|k| $c.pending_of(TenantId(k))).collect(),
            vms_in_flight: $c.vms_in_flight(),
            vms_provisioned: $c.vms_provisioned(),
            open_vm: $c.open_vm(),
        }
    };
}

/// One operation: `(kind, a, b, c)`, decoded against the session's state
/// in [`apply`].
type Op = (u32, u32, u32, u32);

/// The VM an enqueue targets: mostly the newest one or two (often still
/// open), sometimes any VM ever rented (mostly released by then), and
/// sometimes an index that was never rented.
fn target(provisioned: usize, b: u32) -> usize {
    let pick = b as usize / 8;
    match b % 8 {
        0..=4 => provisioned.saturating_sub(1 + pick % 3),
        5 => pick % (provisioned + 1),
        6 => provisioned,
        _ => provisioned + 5,
    }
}

/// Runs `op` on both sessions and asserts the results agree.
fn apply(
    live: &mut LiveCluster,
    reference: &mut Reference,
    op: Op,
    types: u32,
    templates: u32,
    classes: u32,
) {
    let (kind, a, b, c) = op;
    match kind {
        0 | 1 => {
            // One draw in ten names a VM type outside the spec.
            let vm_type = VmTypeId(if a % 10 == 9 { types } else { a % types });
            let class = TenantId(b % classes);
            assert_eq!(
                live.provision_as(vm_type, class),
                reference.provision_as(vm_type, class)
            );
        }
        2..=5 => {
            let vm = target(live.vms_provisioned(), b);
            // Few ids, so queries on different VMs tie on (finish, query).
            let query = QueryId(a % 12);
            let template = TemplateId(c % templates);
            let class = TenantId((c / 8) % classes);
            assert_eq!(
                live.enqueue_as(vm, query, template, class),
                reference.enqueue_as(vm, query, template, class)
            );
        }
        6 => {
            // One class past the last recalls nothing.
            let class = TenantId(a % (classes + 1));
            let recalled = live.recall_pending_of(class);
            assert_eq!(recalled, reference.recall_pending_of(class));
            match b % 3 {
                // The rollback path: each query back onto its VM.
                0 => {
                    for r in &recalled {
                        assert_eq!(
                            live.enqueue_as(r.vm_index, r.query, r.template, r.class),
                            reference.enqueue_as(r.vm_index, r.query, r.template, r.class)
                        );
                    }
                }
                // A replan: everything onto a freshly rented VM.
                1 => {
                    let vm_type = VmTypeId(c % types);
                    let vm = live.provision_as(vm_type, class);
                    assert_eq!(vm, reference.provision_as(vm_type, class));
                    let vm = vm.unwrap();
                    for r in &recalled {
                        assert_eq!(
                            live.enqueue_as(vm, r.query, r.template, r.class),
                            reference.enqueue_as(vm, r.query, r.template, r.class)
                        );
                    }
                }
                // Dropped: the recalled queries never run.
                _ => {}
            }
        }
        7..=9 => {
            let now = live.now();
            let to = match b % 4 {
                0 => now,
                1 => now.saturating_sub(Millis::from_millis(u64::from(a % 10))),
                // Short steps land exactly on starts and finishes.
                2 => now + Millis::from_millis(1),
                _ => now + Millis::from_millis(u64::from(a % 40)),
            };
            assert_eq!(live.advance_to(to), reference.advance_to(to));
        }
        _ => assert_eq!(live.drain(), reference.drain()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, .. ProptestConfig::default()
    })]

    /// Both sessions agree exactly after every operation, and once more
    /// after a final drain.
    #[test]
    fn live_cluster_matches_the_scan_reference(
        // Short latencies often, so finishes coincide.
        latencies in collection::vec((latency(), latency()), 1..=4),
        two_types in prop_oneof![Just(false), Just(true)],
        classes in 1u32..=3,
        ops in collection::vec((0u32..11, 0u32..1_000, 0u32..1_000, 0u32..1_000), 1..=160),
    ) {
        let spec = spec_of(&latencies, two_types);
        let types = spec.num_vm_types() as u32;
        let templates = spec.num_templates() as u32;
        let mut live = LiveCluster::new(spec.clone(), LiveOptions::default());
        let mut reference = Reference::new(spec);
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut live, &mut reference, op, types, templates, classes);
            prop_assert_eq!(
                observe!(live, classes),
                observe!(reference, classes),
                "after operation {} {:?}",
                i,
                op
            );
        }
        prop_assert_eq!(live.drain(), reference.drain());
        prop_assert_eq!(observe!(live, classes), observe!(reference, classes));
    }
}
