//! Chrome-trace validation: parse a trace produced by `wisedb-obs`'s
//! exporter back through the vendored JSON parser and check the
//! structural invariants a real viewer (Perfetto, `chrome://tracing`)
//! relies on. Used by the obs and serve e2e tests, so a malformed export
//! fails a test instead of silently rendering wrong.
//!
//! Checked invariants:
//!
//! * the document parses and is `{"traceEvents": [...]}`;
//! * every event has `ph` ∈ {`B`,`E`,`X`,`i`}, a `name`, and numeric
//!   `ts`/`pid`/`tid`;
//! * per thread, `B`/`E` events are properly nested (every `E` closes the
//!   innermost open `B` of the same name) and their timestamps are
//!   non-decreasing — `X` events are exempt, since they carry
//!   retroactive start stamps (e.g. `serve.queue_wait`);
//! * every `X` event carries a `dur`;
//! * every span opened is closed (no dangling `B` at end of trace).

use std::collections::BTreeMap;

use serde::Value;
use serde_json::from_str_value;

/// Per-span-name totals recovered from a validated trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Closed `B`/`E` pairs plus `X` events with this name.
    pub count: u64,
    /// Summed duration across them, in microseconds.
    pub total_us: u64,
}

/// What [`validate_chrome_trace`] recovered from a well-formed trace.
#[derive(Debug, Clone, Default)]
pub struct TraceCheck {
    /// Events in the `traceEvents` array.
    pub events: usize,
    /// `i` (instant) events.
    pub instants: usize,
    /// Per-name span statistics (`B`/`E` pairs and `X` events).
    pub spans: BTreeMap<String, SpanStat>,
}

impl TraceCheck {
    /// The statistics for one span name (zero if absent).
    pub fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

/// Validates a Chrome trace-event JSON document; `Err` carries the first
/// violated invariant, human-readable.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let root = from_str_value(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace has no traceEvents array")?;

    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    // Per-tid stack of open (name, ts) spans, plus the last B/E timestamp
    // seen on that thread for the monotonicity check.
    let mut stacks: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();

    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no name"))?;
        let ts = event
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i} ({name}) has no numeric ts"))?;
        let tid = event
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i} ({name}) has no numeric tid"))?;
        event
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i} ({name}) has no numeric pid"))?;

        match ph {
            "B" | "E" => {
                let last = last_ts.entry(tid).or_insert(ts);
                if ts < *last {
                    return Err(format!(
                        "event {i} ({name}): ts {ts} goes backwards on tid {tid} (last {last})"
                    ));
                }
                *last = ts;
                let stack = stacks.entry(tid).or_default();
                if ph == "B" {
                    stack.push((name.to_string(), ts));
                } else {
                    let Some((open_name, open_ts)) = stack.pop() else {
                        return Err(format!(
                            "event {i}: E {name} on tid {tid} with no open span"
                        ));
                    };
                    if open_name != name {
                        return Err(format!(
                            "event {i}: E {name} closes B {open_name} on tid {tid}"
                        ));
                    }
                    let stat = check.spans.entry(open_name).or_default();
                    stat.count += 1;
                    stat.total_us += ts - open_ts;
                }
            }
            "X" => {
                let dur = event
                    .get("dur")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i} ({name}): X without numeric dur"))?;
                let stat = check.spans.entry(name.to_string()).or_default();
                stat.count += 1;
                stat.total_us += dur;
            }
            "i" => check.instants += 1,
            other => return Err(format!("event {i} ({name}): unknown ph {other:?}")),
        }
    }

    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("span {name} on tid {tid} never closed"));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ph: &str, name: &str, ts: u64, tid: u64, dur: Option<u64>) -> String {
        let dur = dur.map(|d| format!(",\"dur\":{d}")).unwrap_or_default();
        format!("{{\"ph\":\"{ph}\",\"name\":\"{name}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}{dur}}}")
    }

    fn doc(events: &[String]) -> String {
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    #[test]
    fn well_formed_traces_validate_and_total() {
        let text = doc(&[
            event("B", "outer", 10, 1, None),
            event("B", "inner", 20, 1, None),
            event("E", "inner", 30, 1, None),
            event("E", "outer", 50, 1, None),
            event("X", "wait", 5, 2, Some(7)),
            event("i", "mark", 60, 1, None),
        ]);
        let check = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(check.events, 6);
        assert_eq!(check.instants, 1);
        assert_eq!(
            check.span("outer"),
            SpanStat {
                count: 1,
                total_us: 40
            }
        );
        assert_eq!(
            check.span("inner"),
            SpanStat {
                count: 1,
                total_us: 10
            }
        );
        assert_eq!(
            check.span("wait"),
            SpanStat {
                count: 1,
                total_us: 7
            }
        );
    }

    #[test]
    fn violations_are_rejected() {
        // Mismatched close.
        let text = doc(&[event("B", "a", 10, 1, None), event("E", "b", 20, 1, None)]);
        assert!(validate_chrome_trace(&text).is_err());
        // Dangling open.
        let text = doc(&[event("B", "a", 10, 1, None)]);
        assert!(validate_chrome_trace(&text).is_err());
        // Backwards clock on one thread.
        let text = doc(&[event("B", "a", 10, 1, None), event("E", "a", 5, 1, None)]);
        assert!(validate_chrome_trace(&text).is_err());
        // X without dur.
        let text = doc(&[event("X", "a", 10, 1, None)]);
        assert!(validate_chrome_trace(&text).is_err());
        // Not JSON / wrong shape.
        assert!(validate_chrome_trace("{").is_err());
        assert!(validate_chrome_trace("{\"events\":[]}").is_err());
    }

    #[test]
    fn x_events_may_carry_retroactive_timestamps() {
        // The queue-wait pattern: an X stamped before the thread's
        // current B/E clock must not trip the monotonicity check.
        let text = doc(&[
            event("B", "tick", 100, 1, None),
            event("X", "queue_wait", 40, 1, Some(55)),
            event("E", "tick", 200, 1, None),
        ]);
        let check = validate_chrome_trace(&text).expect("retroactive X is legal");
        assert_eq!(check.span("queue_wait").total_us, 55);
    }
}
