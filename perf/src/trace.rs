//! In-memory span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer: one per service request, engine call, checkpoint and I/O ticket.
//! They stay in memory until the workload ends and are then written out as one
//! JSON file; nothing is recorded (and the wrappers forward directly) while the
//! tracer is disabled, which is how the traced run measures its own overhead.

use std::cell::Cell;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 when it has none the benchmark can see.
    pub parent: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A named set of counter readings taken at a span boundary.
pub struct CounterSnapshot {
    pub label: &'static str,
    pub at_ns: u64,
    pub values: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// The engine call the (single) driver thread is inside, 0 outside any:
    /// tickets submitted meanwhile take it as their parent.
    current_call: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<CounterSnapshot>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// The ticket span whose submission this thread is inside, 0 outside any.
    static SUBMITTING: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            current_call: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        }
    }

    // The flag and the ids publish no other data: spans are handed over under the mutex.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn thread() -> u32 {
        THREAD.with(|t| *t)
    }

    /// Marks this thread as submitting ticket `span` (0: none); returns the
    /// mark it replaces. A wrapper further down takes the mark as its parent.
    pub fn swap_submitting(span: u64) -> u64 {
        SUBMITTING.with(|s| s.replace(span))
    }

    pub fn enter_call(&self, id: u64) {
        self.current_call.store(id, Ordering::Relaxed);
    }

    pub fn current_call(&self) -> u64 {
        self.current_call.load(Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("no tracer user panics holding the lock")
            .push(span);
    }

    pub fn snapshot(&self, label: &'static str, values: Vec<(&'static str, f64)>) {
        let at_ns = self.now_ns();
        self.counters
            .lock()
            .expect("no tracer user panics holding the lock")
            .push(CounterSnapshot { label, at_ns, values });
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("no tracer user panics holding the lock").len()
    }

    /// Writes every span and counter snapshot as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no tracer user panics holding the lock");
        let counters = self.counters.lock().expect("no tracer user panics holding the lock");
        let mut out = String::with_capacity(spans.len() * 96 + 1024);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"counters\":[");
        for (i, c) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"label\":\"{}\",\"at_ns\":{},\"values\":{{",
                c.label, c.at_ns
            );
            for (j, (name, value)) in c.values.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{name}\":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("],\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
