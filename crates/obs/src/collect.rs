//! The collector: per-thread event buffers, the process wall-clock epoch,
//! and the [`Trace`] they produce.
//!
//! The emit path is deliberately contention-free: each producing thread
//! appends to its **own** buffer (an `Arc<Mutex<Vec<Event>>>` that only
//! `finish` ever locks besides the owner), and sequence numbers come from
//! one relaxed `fetch_add`. [`Collector::finish`] drains every registered
//! buffer once and sorts by sequence number. Compared to sending each
//! event over a shared mpsc channel under a global lock, this keeps the
//! per-event cost to one uncontended lock and a `Vec` push — which is what
//! lets full-span tracing ride the serve layer's microsecond-scale SLO
//! path.
//!
//! Sequence numbers respect causality: the counter's modification order
//! is total, and any cross-thread happens-before edge (an mpsc send, a
//! mutex hand-off) orders the two threads' subsequent `fetch_add`s.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::event::Event;
use crate::{export, registry, set_level, Level};

type Buffer = Arc<Mutex<Vec<Event>>>;

/// Buffers registered by producing threads for the current generation.
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
/// The live collector's generation; 0 means none is live. Bumped on every
/// [`install`], so a stale thread-local buffer from an older collector is
/// recognized and re-registered instead of polluting the new trace.
static ACTIVE_GEN: AtomicU64 = AtomicU64::new(0);
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);
static SEQ: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// This thread's buffer, tagged with the generation it registered for.
    static LOCAL: RefCell<Option<(u64, Buffer)>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds of wall clock since the process epoch.
pub(crate) fn wall_us_now() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// `instant` as microseconds since the process epoch (0 if it predates it).
pub(crate) fn wall_us_of(instant: Instant) -> u64 {
    instant
        .checked_duration_since(epoch())
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// `Instant::now()` when spans record, else `None` — the cheap way for a
/// producer to stamp work another thread will close with
/// [`crate::complete`].
pub fn now_if_spans() -> Option<Instant> {
    if crate::enabled(Level::Spans) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records one event into this thread's buffer, assigning its sequence
/// number. Callers have already passed the level gate; without a live
/// collector this drops the event.
pub(crate) fn emit(mut event: Event) {
    let gen = ACTIVE_GEN.load(Ordering::Acquire);
    if gen == 0 {
        return;
    }
    event.seq = SEQ.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buffer = match local.as_ref() {
            Some((g, buffer)) if *g == gen => buffer,
            // First event of this generation on this thread: register a
            // fresh buffer with the collector. Once per thread per
            // install — never on the steady-state path.
            _ => {
                let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
                BUFFERS
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(Arc::clone(&buffer));
                *local = Some((gen, buffer));
                &local.as_ref().expect("just set").1
            }
        };
        buffer.lock().unwrap_or_else(|p| p.into_inner()).push(event);
    });
}

/// A live collector: finish it to get the [`Trace`].
pub struct Collector {
    gen: u64,
}

/// Pins the epoch, resets the metrics registry and sequence counter, and
/// raises the level. One collector at a time; installing another replaces
/// it, and the older collector's `finish` then returns an empty trace.
pub fn install(level: Level) -> Collector {
    epoch();
    registry::reset();
    let gen = NEXT_GEN.fetch_add(1, Ordering::Relaxed);
    {
        // Discard any buffers of a replaced generation: their owning
        // threads re-register on their next event.
        let mut buffers = BUFFERS.lock().unwrap_or_else(|p| p.into_inner());
        buffers.clear();
    }
    SEQ.store(0, Ordering::Relaxed);
    ACTIVE_GEN.store(gen, Ordering::Release);
    set_level(level);
    Collector { gen }
}

impl Collector {
    /// Lowers the level to [`Level::Off`], drains every thread's buffer,
    /// and returns the trace, ordered by sequence number.
    pub fn finish(self) -> Trace {
        set_level(Level::Off);
        // Only a collector that is still live clears the generation and
        // drains: finishing a replaced collector must neither mute its
        // successor nor steal its events.
        let mut events = Vec::new();
        if ACTIVE_GEN
            .compare_exchange(self.gen, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let buffers = std::mem::take(&mut *BUFFERS.lock().unwrap_or_else(|p| p.into_inner()));
            for buffer in buffers {
                events.append(&mut buffer.lock().unwrap_or_else(|p| p.into_inner()));
            }
        }
        events.sort_by_key(|e| e.seq);
        Trace { events }
    }
}

/// Everything one collector recorded.
pub struct Trace {
    /// The events, in sequence order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Renders Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`).
    pub fn to_chrome(&self) -> String {
        export::chrome_trace(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::{instant, span, test_lock};

    #[test]
    fn cross_thread_events_all_arrive_in_sequence_order() {
        let _hold = test_lock::hold();
        let collector = install(Level::Spans);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let _s = span("worker");
                    }
                });
            }
        });
        let trace = collector.finish();
        assert_eq!(trace.events.len(), 4 * 25 * 2);
        assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
        let begins = trace
            .events
            .iter()
            .filter(|e| e.name == "worker" && matches!(e.phase, Phase::Begin))
            .count();
        assert_eq!(begins, 100);
    }

    #[test]
    fn finish_disables_recording_and_later_events_are_dropped() {
        let _hold = test_lock::hold();
        let collector = install(Level::Counters);
        instant("before").emit();
        let trace = collector.finish();
        assert_eq!(crate::level(), Level::Off);
        instant("after").emit(); // gated off, and no sender either way
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].name, "before");
    }
}
