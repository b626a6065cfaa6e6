//! Outside-in tracing: spans recorded around calls into the program's
//! public functions, a timed [`InvertedFileStore`] wrapper, and the
//! self-time ledger.
//!
//! Each client thread owns one [`SpanLog`]; spans are kept in memory and
//! written out when the run ends. A span's self time is its duration
//! minus the durations of its direct children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use poir_inquery::{BlockCache, InvertedFileStore, RecordBytes};

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start: u64,
    /// Nanoseconds since the run's origin.
    pub end: u64,
    /// Index of the enclosing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span belongs to.
    pub request: u32,
}

/// A thread's spans plus the fetch counters its timed stores keep.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    request: u32,
    /// Recorded spans, in open order.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// `fetch`/`fetch_range`/`fetch_batch` records requested through timed
    /// stores, traced or not.
    pub fetches: u64,
    /// Record lookups in the paper's sense: whole fetches plus range reads
    /// starting at byte 0.
    pub lookups: u64,
}

impl SpanLog {
    /// An empty log timing against `origin`.
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            enabled: false,
            request: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            fetches: 0,
            lookups: 0,
        }
    }

    /// Starts request `id`; spans are recorded only when `traced`.
    pub fn begin(&mut self, id: u32, traced: bool) {
        self.request = id;
        self.enabled = traced;
        self.stack.clear();
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span (a no-op returning [`NO_PARENT`] when not tracing).
    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request: self.request });
        self.stack.push(id);
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let end = self.now();
        self.spans[id as usize].end = end;
        self.stack.pop();
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(log: &RefCell<SpanLog>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = log.borrow_mut().open(name);
    let r = f();
    log.borrow_mut().close(id);
    r
}

/// An [`InvertedFileStore`] that forwards every call to `inner`, timing
/// each record fetch as a `fetch` span (Mneme hash probe, buffer, device,
/// and device-lock wait together).
pub struct TimedStore<'a, S: InvertedFileStore + ?Sized> {
    inner: &'a mut S,
    log: &'a RefCell<SpanLog>,
}

impl<'a, S: InvertedFileStore + ?Sized> TimedStore<'a, S> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: &'a mut S, log: &'a RefCell<SpanLog>) -> Self {
        TimedStore { inner, log }
    }

    fn count(&self, records: u64, lookups: u64) {
        let mut log = self.log.borrow_mut();
        log.fetches += records;
        log.lookups += lookups;
    }
}

impl<S: InvertedFileStore + ?Sized> InvertedFileStore for TimedStore<'_, S> {
    fn fetch(&mut self, store_ref: u64) -> poir_inquery::Result<RecordBytes> {
        self.count(1, 1);
        span(self.log, "fetch", || self.inner.fetch(store_ref))
    }

    fn fetch_batch(&mut self, store_refs: &[u64]) -> Vec<poir_inquery::Result<RecordBytes>> {
        let n = store_refs.len() as u64;
        self.count(n, n);
        span(self.log, "fetch", || self.inner.fetch_batch(store_refs))
    }

    fn prefetch(&mut self, store_refs: &[u64]) {
        span(self.log, "fetch", || self.inner.prefetch(store_refs))
    }

    fn fetch_range(
        &mut self,
        store_ref: u64,
        start: u64,
        len: usize,
    ) -> poir_inquery::Result<RecordBytes> {
        self.count(1, u64::from(start == 0));
        span(self.log, "fetch", || self.inner.fetch_range(store_ref, start, len))
    }

    fn supports_range_read(&self) -> bool {
        self.inner.supports_range_read()
    }

    fn record_len_hint(&self, store_ref: u64) -> Option<u64> {
        self.inner.record_len_hint(store_ref)
    }

    fn reserve(&mut self, store_refs: &[u64]) {
        self.inner.reserve(store_refs)
    }

    fn release_reservations(&mut self) {
        self.inner.release_reservations()
    }

    fn decoded_block_cache(&self) -> Option<Arc<BlockCache>> {
        self.inner.decoded_block_cache()
    }

    fn store_epoch(&self) -> u64 {
        self.inner.store_epoch()
    }

    fn record_lookups(&self) -> u64 {
        self.inner.record_lookups()
    }
}

/// Per-layer totals over a set of spans, keyed by `(root span name, span
/// name)` so that, say, fetches under a query and under an update are told
/// apart.
#[derive(Debug, Default)]
pub struct Ledger {
    self_ns: BTreeMap<(&'static str, &'static str), u64>,
    total_ns: BTreeMap<(&'static str, &'static str), u64>,
    count: BTreeMap<(&'static str, &'static str), u64>,
}

impl Ledger {
    /// Folds one thread's spans in.
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        let mut root = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            // A parent is always opened, and so stored, before its child.
            if s.parent == NO_PARENT {
                root.push(i);
            } else {
                child_ns[s.parent as usize] += s.end - s.start;
                root.push(root[s.parent as usize]);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let key = (spans[root[i]].name, s.name);
            let dur = s.end - s.start;
            *self.self_ns.entry(key).or_default() += dur.saturating_sub(child_ns[i]);
            *self.total_ns.entry(key).or_default() += dur;
            *self.count.entry(key).or_default() += 1;
        }
    }

    /// Self milliseconds of `name` spans under `root` spans.
    pub fn self_ms(&self, root: &'static str, name: &'static str) -> f64 {
        self.self_ns.get(&(root, name)).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Inclusive milliseconds of `name` spans under `root` spans.
    pub fn total_ms(&self, root: &'static str, name: &'static str) -> f64 {
        self.total_ns.get(&(root, name)).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Number of `name` spans under `root` spans.
    pub fn count(&self, root: &'static str, name: &'static str) -> u64 {
        self.count.get(&(root, name)).copied().unwrap_or(0)
    }
}

/// Writes every thread's spans as JSON lines to `path` (best effort: a
/// write error loses the trace file, never the run's result).
pub fn write_spans(path: &Path, logs: &[Vec<Span>]) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let Ok(file) = std::fs::File::create(path) else {
        return;
    };
    let mut out = std::io::BufWriter::new(file);
    let mut base = 0u64;
    for (thread, spans) in logs.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { (base + s.parent as u64) as i64 };
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \
                 \"thread\": {thread}, \"start_ns\": {}, \"end_ns\": {}}}",
                base + i as u64,
                s.name,
                s.request,
                s.start,
                s.end
            );
        }
        base += spans.len() as u64;
    }
    let _ = out.flush();
}
