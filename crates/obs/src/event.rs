//! Events, span guards, and the thread-local span stack.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use wisedb_core::Millis;

use crate::collect::{emit, wall_us_now};
use crate::{enabled, Level};

/// What kind of record an [`Event`] is — maps onto the Chrome trace-event
/// phases `B`, `E`, `X`, and `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span opened ([`span`]). Balanced by a matching [`Phase::End`] on
    /// the same thread (the guard emits it on drop).
    Begin,
    /// A span closed.
    End,
    /// A retroactively-stamped closed span ([`complete`]): its timestamp
    /// is the start, `dur_us` the measured extent. Needs no nesting.
    Complete {
        /// The span's extent in microseconds.
        dur_us: u64,
    },
    /// A point-in-time event ([`instant`]).
    Instant,
}

/// One attribute value. Strings are owned (they are only built when
/// recording is on); everything else is plain scalars.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned scalar.
    U64(u64),
    /// A signed scalar.
    I64(i64),
    /// A float (non-finite values export as JSON strings).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// An owned string.
    Str(String),
}

/// One record in the trace.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global sequence number: a total order over all events, assigned at
    /// emit time — ties on the microsecond clock stay deterministic.
    pub seq: u64,
    /// The record kind.
    pub phase: Phase,
    /// The span/event name (static: names are part of the span taxonomy).
    pub name: &'static str,
    /// The emitting thread's small dense id (assigned on first use).
    pub tid: u64,
    /// Microseconds of wall clock since the collector epoch.
    pub wall_us: u64,
    /// The event loop's virtual clock, when the site attached one.
    pub virt_ms: Option<u64>,
    /// Named attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// This thread's small dense id (1-based, in first-use order).
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// The innermost open span on this thread, if any.
pub(crate) fn current_span() -> Option<&'static str> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// An RAII span guard: Begin on creation, End on drop. When spans are
/// disabled the guard is inert — no clock read, no emit, and every
/// attribute method is a no-op (check [`Span::recording`] before building
/// expensive attribute values).
pub struct Span {
    name: &'static str,
    recording: bool,
    virt_ms: Option<u64>,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Opens a span. One relaxed atomic load when spans are disabled.
pub fn span(name: &'static str) -> Span {
    if !enabled(Level::Spans) {
        return Span {
            name,
            recording: false,
            virt_ms: None,
            attrs: Vec::new(),
        };
    }
    let mut begin_attrs = Vec::new();
    if let Some(parent) = current_span() {
        begin_attrs.push(("parent", AttrValue::Str(parent.to_string())));
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    emit(Event {
        seq: 0,
        phase: Phase::Begin,
        name,
        tid: current_tid(),
        wall_us: wall_us_now(),
        virt_ms: None,
        attrs: begin_attrs,
    });
    Span {
        name,
        recording: true,
        virt_ms: None,
        attrs: Vec::new(),
    }
}

impl Span {
    /// Whether this guard will emit — gate expensive attribute
    /// construction on it.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Attaches the event loop's virtual clock to the closing event.
    pub fn virt(&mut self, at: Millis) {
        if self.recording {
            self.virt_ms = Some(at.as_millis());
        }
    }

    /// Attaches an unsigned attribute (recorded on the closing event).
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if self.recording {
            self.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attaches a float attribute.
    pub fn attr_f64(&mut self, key: &'static str, value: f64) {
        if self.recording {
            self.attrs.push((key, AttrValue::F64(value)));
        }
    }

    /// Attaches a boolean attribute.
    pub fn attr_bool(&mut self, key: &'static str, value: bool) {
        if self.recording {
            self.attrs.push((key, AttrValue::Bool(value)));
        }
    }

    /// Attaches a string attribute.
    pub fn attr_str(&mut self, key: &'static str, value: impl Into<String>) {
        if self.recording {
            self.attrs.push((key, AttrValue::Str(value.into())));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recording {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop LIFO; anything else is a bug in the
            // instrumentation, not worth panicking a host thread over.
            if stack.last() == Some(&self.name) {
                stack.pop();
            }
        });
        emit(Event {
            seq: 0,
            phase: Phase::End,
            name: self.name,
            tid: current_tid(),
            wall_us: wall_us_now(),
            virt_ms: self.virt_ms,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// A deferred event under construction; inert (all methods no-ops) when
/// the gate level was not met at creation.
pub struct EventBuilder(Option<Event>);

/// Starts a point-in-time event. Gated at [`Level::Counters`] — instant
/// events are the structured event log (sheds, framing violations,
/// retrain lifecycle), useful even without full spans.
pub fn instant(name: &'static str) -> EventBuilder {
    if !enabled(Level::Counters) {
        return EventBuilder(None);
    }
    EventBuilder(Some(Event {
        seq: 0,
        phase: Phase::Instant,
        name,
        tid: current_tid(),
        wall_us: wall_us_now(),
        virt_ms: None,
        attrs: Vec::new(),
    }))
}

/// Starts a retroactive closed span covering `start..now` — for extents
/// whose beginning is only known to another thread (queue waits). Gated
/// at [`Level::Spans`].
pub fn complete(name: &'static str, start: std::time::Instant) -> EventBuilder {
    if !enabled(Level::Spans) {
        return EventBuilder(None);
    }
    let start_us = crate::collect::wall_us_of(start);
    let now_us = wall_us_now();
    EventBuilder(Some(Event {
        seq: 0,
        phase: Phase::Complete {
            dur_us: now_us.saturating_sub(start_us),
        },
        name,
        tid: current_tid(),
        wall_us: start_us,
        virt_ms: None,
        attrs: Vec::new(),
    }))
}

impl EventBuilder {
    /// Whether this builder will emit.
    pub fn recording(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches the event loop's virtual clock.
    pub fn virt(mut self, at: Millis) -> Self {
        if let Some(e) = &mut self.0 {
            e.virt_ms = Some(at.as_millis());
        }
        self
    }

    /// Attaches an unsigned attribute.
    pub fn attr_u64(mut self, key: &'static str, value: u64) -> Self {
        if let Some(e) = &mut self.0 {
            e.attrs.push((key, AttrValue::U64(value)));
        }
        self
    }

    /// Attaches a float attribute.
    pub fn attr_f64(mut self, key: &'static str, value: f64) -> Self {
        if let Some(e) = &mut self.0 {
            e.attrs.push((key, AttrValue::F64(value)));
        }
        self
    }

    /// Attaches a boolean attribute.
    pub fn attr_bool(mut self, key: &'static str, value: bool) -> Self {
        if let Some(e) = &mut self.0 {
            e.attrs.push((key, AttrValue::Bool(value)));
        }
        self
    }

    /// Attaches a string attribute.
    pub fn attr_str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        if let Some(e) = &mut self.0 {
            e.attrs.push((key, AttrValue::Str(value.into())));
        }
        self
    }

    /// Sends the event to the collector (no-op when inert).
    pub fn emit(self) {
        if let Some(e) = self.0 {
            emit(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, test_lock};

    #[test]
    fn spans_nest_and_balance_on_one_thread() {
        let _hold = test_lock::hold();
        let collector = install(Level::Spans);
        {
            let mut outer = span("outer");
            outer.attr_u64("n", 1);
            assert_eq!(current_span(), Some("outer"));
            {
                let _inner = span("inner");
                assert_eq!(current_span(), Some("inner"));
            }
            assert_eq!(current_span(), Some("outer"));
        }
        assert_eq!(current_span(), None);
        let trace = collector.finish();
        let phases: Vec<(Phase, &str)> = trace.events.iter().map(|e| (e.phase, e.name)).collect();
        assert_eq!(
            phases,
            vec![
                (Phase::Begin, "outer"),
                (Phase::Begin, "inner"),
                (Phase::End, "inner"),
                (Phase::End, "outer"),
            ]
        );
        // The inner Begin records its parent.
        assert!(trace.events[1]
            .attrs
            .iter()
            .any(|(k, v)| *k == "parent" && *v == AttrValue::Str("outer".into())));
        // End timestamps never precede their Begin.
        assert!(trace.events[3].wall_us >= trace.events[0].wall_us);
        // Sequence numbers are a strict total order.
        assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn complete_and_instant_events_record_attrs_and_virtual_time() {
        let _hold = test_lock::hold();
        let collector = install(Level::Spans);
        let start = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        complete("queue_wait", start)
            .attr_u64("conn", 7)
            .virt(Millis::from_secs(3))
            .emit();
        instant("shed").attr_str("class", "bronze").emit();
        let trace = collector.finish();
        assert_eq!(trace.events.len(), 2);
        match trace.events[0].phase {
            Phase::Complete { dur_us } => assert!(dur_us >= 1_000),
            other => panic!("expected a complete event, got {other:?}"),
        }
        assert_eq!(trace.events[0].virt_ms, Some(3_000));
        assert_eq!(trace.events[1].name, "shed");
    }

    #[test]
    fn counters_level_records_instants_but_not_spans() {
        let _hold = test_lock::hold();
        let collector = install(Level::Counters);
        {
            let _s = span("invisible");
        }
        instant("visible").emit();
        let trace = collector.finish();
        let names: Vec<&str> = trace.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["visible"]);
    }
}
