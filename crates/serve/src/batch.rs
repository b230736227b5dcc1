//! Request batching: the scheduler thread's command queue and the
//! drain-and-coalesce policy that turns a backlog into few plan calls.
//!
//! Connection workers translate wire requests into [`Command`]s and push
//! them onto one mpsc queue; a single scheduler thread owns the
//! `WorkloadService` and consumes them. When load outruns the scheduler,
//! commands pile up behind the in-progress plan — so each wakeup
//! [`drain`]s everything already queued and [`coalesce`]s every run of
//! offers between two control commands into one scheduling *tick*,
//! grouped per class, which the server answers with one `offer_tick`
//! call (one `plan_arrivals` per class) instead of one per request.
//! Same-class offers keep their queue order and control commands are
//! barriers nothing moves across; a lone offer is a one-group tick,
//! which the service plans inline exactly like an unbatched `offer_as`.
//!
//! This module is pure queue-and-group logic — no sockets — so the
//! coalescing policy is unit-tested in isolation.

use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use wisedb_core::{Millis, TemplateId, TenantId};

use crate::wire::Response;

/// How many commands one wakeup may drain into a single batch. Bounds
/// both the coalesced burst size and how long early requests wait for
/// stragglers draining behind them.
pub(crate) const MAX_DRAIN: usize = 64;

/// One unit of work for the scheduler thread.
pub(crate) enum Command {
    /// Offer an arrival; the outcome goes back over `reply`.
    Offer {
        /// The arrival's SLA class.
        class: TenantId,
        /// The arriving query's template.
        template: TemplateId,
        /// The arrival's virtual-clock instant.
        at: Millis,
        /// Where the connection worker awaits the answer.
        reply: Sender<Response>,
        /// Wall-clock enqueue stamp, present only while span tracing is
        /// on — the scheduler turns it into a `serve.queue_wait` span
        /// when it picks the offer up.
        queued: Option<Instant>,
    },
    /// Snapshot the metrics.
    Metrics {
        /// Where the connection worker awaits the answer.
        reply: Sender<Response>,
    },
    /// Render the observability exposition ([`crate::wire::Request::Telemetry`]).
    Telemetry {
        /// Where the connection worker awaits the answer.
        reply: Sender<Response>,
    },
    /// Validate and schedule a background retrain of `class`'s model.
    /// (The finished model comes back on a separate swap channel — see
    /// `server::FinishedSwap` — which the scheduler polls between
    /// wakeups, so the command queue never holds a sender to itself.)
    Swap {
        /// Which class's model to retrain.
        class: TenantId,
        /// Sampling seed for the replacement model.
        seed: u64,
        /// Answered as soon as the retrain is scheduled (or rejected).
        reply: Sender<Response>,
    },
}

/// One offer inside a coalesced group, reply channel and all.
pub(crate) struct OfferEntry {
    /// The arriving query's template.
    pub template: TemplateId,
    /// The arrival's virtual-clock instant.
    pub at: Millis,
    /// Where the connection worker awaits the answer.
    pub reply: Sender<Response>,
    /// Wall-clock enqueue stamp (only while span tracing is on).
    pub queued: Option<Instant>,
}

/// Drains the queue without blocking: `first` (already received) plus
/// whatever else is waiting, up to [`MAX_DRAIN`] commands.
pub(crate) fn drain(rx: &Receiver<Command>, first: Command) -> Vec<Command> {
    let mut commands = vec![first];
    while commands.len() < MAX_DRAIN {
        match rx.try_recv() {
            Ok(cmd) => commands.push(cmd),
            Err(_) => break,
        }
    }
    commands
}

/// What one scheduler wakeup executes: every offer between non-offer
/// commands folds into one scheduling tick (grouped per class), so a
/// multi-tenant backlog becomes one `offer_tick` instead of one plan call
/// per request.
pub(crate) enum Work {
    /// All offers up to the next non-offer command, grouped by class in
    /// first-appearance order. Within a class, queue order is preserved.
    Tick(Vec<(TenantId, Vec<OfferEntry>)>),
    /// Any other command, executed on its own.
    Other(Command),
}

/// Folds a drained backlog into ticks: adjacent offers merge into one
/// tick *across* class changes (per-class groups in first-appearance
/// order), and non-offer commands act as barriers. The relative order of
/// same-class offers is preserved exactly; cross-class order within one
/// tick is resolved by the service's admit phase, which walks groups in
/// this first-appearance order.
pub(crate) fn coalesce(commands: Vec<Command>) -> Vec<Work> {
    let mut work: Vec<Work> = Vec::new();
    for cmd in commands {
        match cmd {
            Command::Offer {
                class,
                template,
                at,
                reply,
                queued,
            } => {
                let entry = OfferEntry {
                    template,
                    at,
                    reply,
                    queued,
                };
                if !matches!(work.last(), Some(Work::Tick(_))) {
                    work.push(Work::Tick(Vec::new()));
                }
                let Some(Work::Tick(groups)) = work.last_mut() else {
                    unreachable!("a tick was just pushed");
                };
                match groups.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, entries)) => entries.push(entry),
                    None => groups.push((class, vec![entry])),
                }
            }
            other => work.push(Work::Other(other)),
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn offer(class: u32, template: u32, at_secs: u64) -> (Command, Receiver<Response>) {
        let (reply, rx) = channel();
        (
            Command::Offer {
                class: TenantId(class),
                template: TemplateId(template),
                at: Millis::from_secs(at_secs),
                reply,
                queued: None,
            },
            rx,
        )
    }

    #[test]
    fn tick_coalescing_merges_across_class_changes_with_barriers() {
        let (metrics_reply, _keep) = channel();
        let cmds = vec![
            offer(0, 0, 1).0,
            offer(1, 0, 2).0, // class change: same tick, new group
            offer(0, 1, 3).0, // back to class 0: appended to its group
            Command::Metrics {
                reply: metrics_reply,
            }, // barrier
            offer(1, 0, 4).0, // a fresh tick after the barrier
        ];
        let work = coalesce(cmds);
        assert_eq!(work.len(), 3);
        match &work[0] {
            Work::Tick(groups) => {
                // First-appearance class order; same-class queue order kept.
                assert_eq!(groups.len(), 2);
                assert_eq!(groups[0].0, TenantId(0));
                let ats: Vec<u64> = groups[0]
                    .1
                    .iter()
                    .map(|o| o.at.as_millis() / 1000)
                    .collect();
                assert_eq!(ats, vec![1, 3]);
                assert_eq!(groups[1].0, TenantId(1));
                assert_eq!(groups[1].1.len(), 1);
            }
            Work::Other(_) => panic!("expected the merged tick first"),
        }
        assert!(matches!(&work[1], Work::Other(Command::Metrics { .. })));
        match &work[2] {
            Work::Tick(groups) => {
                assert_eq!(groups.len(), 1);
                assert_eq!(groups[0].0, TenantId(1));
            }
            Work::Other(_) => panic!("expected a second tick after the barrier"),
        }
    }

    #[test]
    fn drain_pulls_the_backlog_without_blocking() {
        let (tx, rx) = channel();
        let (first, _r0) = offer(0, 0, 1);
        let backlog: Vec<Receiver<Response>> = (0..5)
            .map(|i| {
                let (cmd, r) = offer(0, 0, 2 + i);
                tx.send(cmd).unwrap();
                r
            })
            .collect();
        let commands = drain(&rx, first);
        assert_eq!(commands.len(), 6);
        // The queue is empty now; drain must not have blocked waiting for more.
        assert!(rx.try_recv().is_err());
        drop(backlog);
    }

    #[test]
    fn drain_respects_the_batch_cap() {
        let (tx, rx) = channel();
        let keep: Vec<Receiver<Response>> = (0..MAX_DRAIN + 10)
            .map(|i| {
                let (cmd, r) = offer(0, 0, i as u64);
                tx.send(cmd).unwrap();
                r
            })
            .collect();
        let (first, _r0) = offer(0, 0, 0);
        let commands = drain(&rx, first);
        assert_eq!(commands.len(), MAX_DRAIN);
        // The overflow is still queued for the next wakeup.
        assert!(rx.try_recv().is_ok());
        drop(keep);
    }
}
