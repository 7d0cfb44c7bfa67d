//! Trace sinks: where events go.
//!
//! * [`NullSink`] — reports itself disabled, so a [`crate::Tracer`] built on
//!   it never even constructs events (zero allocation on the hot path);
//! * [`JsonLinesSink`] — one JSON object per event on any `Write`;
//! * [`MemorySink`] — captures events in memory, for tests and tools.

use std::io::Write;
use std::sync::Mutex;

use crate::event::TraceEvent;

/// A destination for trace events. Implementations must be `Send + Sync`;
/// the tracer shares one sink across optimizer and executor.
pub trait TraceSink: Send + Sync {
    /// Whether events should be constructed at all. A tracer wrapping a sink
    /// that returns `false` collapses to the no-op tracer.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event.
    fn emit(&self, event: &TraceEvent);

    /// Flush buffered output, if any.
    fn flush(&self) {}
}

/// The no-op sink: everything compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: &TraceEvent) {}
}

/// Writes one JSON object per line to an arbitrary writer.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Convenience: trace to standard output.
    pub fn stdout() -> Self {
        JsonLinesSink::new(Box::new(std::io::stdout()))
    }

    /// Convenience: trace to a file (truncates).
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonLinesSink::new(Box::new(std::fs::File::create(path)?)))
    }
}

impl TraceSink for JsonLinesSink {
    fn emit(&self, event: &TraceEvent) {
        // A failed trace write (or a writer poisoned by a panicking rule)
        // must never take the optimizer down.
        let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        let _ = writeln!(out, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(|p| p.into_inner()).flush();
    }
}

/// Captures events in memory; `events()` clones them out.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    pub fn new() -> Self {
        MemorySink::default()
    }

    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, event: &TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let buf: Vec<u8> = Vec::new();
        let shared = std::sync::Arc::new(Mutex::new(buf));
        struct SharedWriter(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonLinesSink::new(Box::new(SharedWriter(shared.clone())));
        sink.emit(&TraceEvent::QueryStart { name: "a".into() });
        sink.emit(&TraceEvent::QueryDone {
            name: "a".into(),
            rows: 3,
            nanos: 7,
        });
        sink.flush();
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"type":"query_start","name":"a"}"#);
        assert_eq!(
            lines[1],
            r#"{"type":"query_done","name":"a","rows":3,"nanos":7}"#
        );
    }

    #[test]
    fn memory_sink_captures() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.emit(&TraceEvent::Counter {
            name: "x".into(),
            value: 1,
        });
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events()[0].kind(), "counter");
    }
}
