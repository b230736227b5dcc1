//! # wisedb-obs
//!
//! The workspace's observability layer: tracing spans, a structured event
//! log, and a named-metrics registry, all hand-rolled (the build is
//! offline — no crates.io) and built around one hard constraint: **with
//! tracing disabled, instrumented code paths must stay byte-identical in
//! behavior and near-zero in cost.**
//!
//! ## How the near-zero-overhead gate works
//!
//! A process-global [`std::sync::atomic::AtomicU8`] holds the
//! enable [`Level`]:
//!
//! | level | what records |
//! |-------|--------------|
//! | [`Level::Off`] *(default)* | nothing — every entry point is one relaxed atomic load and a branch |
//! | [`Level::Counters`] | named counters/gauges/histograms and instant events |
//! | [`Level::Spans`] | everything above, plus Begin/End spans and closed (`Complete`) spans |
//!
//! Every public entry point ([`span`], [`instant`], [`counter_add`], …)
//! loads the level with `Ordering::Relaxed` first and returns a no-op
//! value when the level is below its gate — no allocation, no lock, no
//! clock read. Instrumentation therefore lives permanently in the hot
//! paths of the other crates (one predictable branch), and the regress
//! harness's counters stay byte-identical with tracing off.
//!
//! ## Recording pipeline
//!
//! [`install`] pins the process wall-clock epoch, resets the metrics
//! registry, and starts a new generation of per-thread [`Event`] buffers.
//! Producers (span guards, event builders) stamp each event with:
//!
//! * a global sequence number (total order, independent of clocks),
//! * the **wall clock** in microseconds since the epoch (`Instant`-based,
//!   monotone), and
//! * optionally the **virtual clock** ([`wisedb_core::Millis`]) of the
//!   event loop, so traces of the deterministic simulator stay
//!   deterministic and can be lined up across runs.
//!
//! [`Collector::finish`] flips the level off, drains the per-thread
//! buffers once, and hands back a [`Trace`]. There are two exports:
//! [`Trace::to_chrome`] renders a trace as Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`), and — independent of any
//! trace — [`telemetry_text`] renders the metrics registry as a
//! Prometheus-style text exposition (the payload of the serve layer's
//! `Telemetry` wire request).
//!
//! Span guards keep a thread-local span stack, so Begin/End pairs nest
//! per thread (what the Chrome `B`/`E` phases require) and each Begin
//! records its parent span. Spans that must be stamped retroactively
//! (e.g. a queue wait measured only once the consumer picks the item up)
//! are emitted as Chrome `X` (complete) events via [`complete`], which
//! need no nesting.
//!
//! Only one collector can be live at a time; installing a second one
//! replaces the first (whose `finish` then returns an empty trace). Tests
//! that install a collector serialize on a shared mutex.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod collect;
mod event;
mod export;
mod registry;

pub use collect::{install, now_if_spans, Collector, Trace};
pub use event::{complete, instant, span, AttrValue, Event, EventBuilder, Phase, Span};
pub use export::escape_json;
pub use registry::{
    counter_add, gauge_set, observe_us, snapshot_metrics, telemetry_text, RegistrySnapshot,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// The process-global enable level. See the crate docs for the tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing records; every entry point is one relaxed load + branch.
    Off = 0,
    /// Counters, gauges, histograms, and instant events record.
    Counters = 1,
    /// Everything records, including Begin/End and Complete spans.
    Spans = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Sets the process-global enable level. Usually done via [`install`];
/// exposed so counters-only runs need no collector.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Release);
}

/// The current enable level.
pub(crate) fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Counters,
        _ => Level::Spans,
    }
}

/// The hot-path gate: one relaxed atomic load and a compare.
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    LEVEL.load(Ordering::Relaxed) >= level as u8
}

/// Support for tests that exercise the process-global obs state.
pub mod testing {
    use std::sync::{Mutex, MutexGuard};

    /// Tests that install a collector or assert on the registry serialize
    /// here — the level, sender, and registry are process-global, so two
    /// such tests running in parallel would see each other's events.
    static LOCK: Mutex<()> = Mutex::new(());

    /// Acquires the global obs test lock (a poisoned lock is recovered —
    /// one failed test must not cascade).
    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
pub(crate) use testing as test_lock;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_defaults_off_and_gates() {
        let _hold = test_lock::hold();
        set_level(Level::Off);
        assert!(!enabled(Level::Counters));
        assert!(!enabled(Level::Spans));
        set_level(Level::Counters);
        assert!(enabled(Level::Counters));
        assert!(!enabled(Level::Spans));
        set_level(Level::Spans);
        assert!(enabled(Level::Counters));
        assert!(enabled(Level::Spans));
        set_level(Level::Off);
    }

    #[test]
    fn disabled_entry_points_are_no_ops() {
        let _hold = test_lock::hold();
        set_level(Level::Off);
        // None of these may panic, allocate into the registry, or emit.
        let mut s = span("noop");
        assert!(!s.recording());
        s.attr_u64("k", 1);
        drop(s);
        instant("noop").attr_u64("k", 1).emit();
        counter_add("noop_total", 1);
        gauge_set("noop_gauge", 1.0);
        observe_us("noop_us", 17);
        let snap = snapshot_metrics();
        assert!(!snap.counters.iter().any(|(n, _)| n == "noop_total"));
    }
}
