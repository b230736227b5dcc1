//! The trace exporter: Chrome trace-event JSON.
//!
//! It is written by hand (the vendored `serde_json` is available to
//! *consumers* for parse-back, but the exporter keeps `wisedb-obs`
//! dependency-light): the only subtlety is string escaping, which is
//! property-tested round-trip through `serde_json` in the workspace
//! tests.

use crate::event::{AttrValue, Event, Phase};

/// Escapes `s` for inclusion inside a JSON string literal: `"`, `\`, and
/// all control characters below 0x20 (the named short escapes where JSON
/// has them, `\u00XX` otherwise). Other UTF-8 passes through unchanged.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn attr_value_json(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(v) => v.to_string(),
        AttrValue::I64(v) => v.to_string(),
        AttrValue::Bool(v) => v.to_string(),
        // JSON has no Infinity/NaN literals; ship them as strings so the
        // document stays parseable (search bounds are +Inf on limit hits).
        AttrValue::F64(v) if v.is_finite() => format!("{v}"),
        AttrValue::F64(v) if v.is_nan() => "\"NaN\"".to_string(),
        AttrValue::F64(v) if *v > 0.0 => "\"+Inf\"".to_string(),
        AttrValue::F64(_) => "\"-Inf\"".to_string(),
        AttrValue::Str(v) => format!("\"{}\"", escape_json(v)),
    }
}

/// `"args"` object body: seq + optional virtual clock + attributes.
fn args_json(event: &Event) -> String {
    let mut fields = vec![format!("\"seq\":{}", event.seq)];
    if let Some(virt) = event.virt_ms {
        fields.push(format!("\"virt_ms\":{virt}"));
    }
    for (key, value) in &event.attrs {
        fields.push(format!(
            "\"{}\":{}",
            escape_json(key),
            attr_value_json(value)
        ));
    }
    format!("{{{}}}", fields.join(","))
}

/// Renders Chrome trace-event JSON ("JSON object format": a
/// `traceEvents` array), loadable in Perfetto and `chrome://tracing`.
/// Span Begin/End map to `B`/`E` (balanced per thread by the guard
/// discipline), retroactive closed spans to `X` with `dur`, instants to
/// `i`.
pub(crate) fn chrome_trace(events: &[Event]) -> String {
    let mut rows = Vec::with_capacity(events.len());
    for event in events {
        let (ph, extra) = match event.phase {
            Phase::Begin => ("B", String::new()),
            Phase::End => ("E", String::new()),
            Phase::Complete { dur_us } => ("X", format!(",\"dur\":{dur_us}")),
            Phase::Instant => ("i", ",\"s\":\"t\"".to_string()),
        };
        rows.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"wisedb\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}{extra},\"args\":{}}}",
            escape_json(event.name),
            event.wall_us,
            event.tid,
            args_json(event)
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(phase: Phase, name: &'static str) -> Event {
        Event {
            seq: 1,
            phase,
            name,
            tid: 3,
            wall_us: 42,
            virt_ms: Some(7),
            attrs: vec![
                ("n", AttrValue::U64(5)),
                ("bound", AttrValue::F64(f64::INFINITY)),
                ("msg", AttrValue::Str("say \"hi\"\n".to_string())),
            ],
        }
    }

    #[test]
    fn chrome_trace_renders_phases_and_escapes() {
        let events = vec![
            event(Phase::Begin, "plan"),
            event(Phase::End, "plan"),
            event(Phase::Complete { dur_us: 9 }, "queue"),
            event(Phase::Instant, "shed"),
        ];
        let json = chrome_trace(&events);
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"X\",\"ts\":42,\"pid\":1,\"tid\":3,\"dur\":9"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"bound\":\"+Inf\""));
        assert!(json.contains("say \\\"hi\\\"\\n"));
        assert!(json.contains("\"virt_ms\":7"));
    }

    #[test]
    fn escape_json_handles_control_characters() {
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\u{01}b"), "a\\u0001b");
        assert_eq!(escape_json("héllo"), "héllo");
    }
}
