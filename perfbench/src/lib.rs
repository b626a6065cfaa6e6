//! Host-time benchmark of the poir workspace: three workloads driven only
//! through the program's public entry points, each printing its
//! end-to-end metrics, or (traced) its per-layer ledger. See README.md.

pub mod host;
pub mod inputs;
pub mod measure;
pub mod serve;
pub mod span;
pub mod update;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use poir_storage::{CostModel, Device, DeviceConfig};

use crate::host::HostSpeed;
use crate::measure::Figures;

/// End-to-end metrics, in print order (`BENCHMARK.json` lists the same).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, in print order. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.queue_wait_ms_p50", "ms"),
    ("core.shard_eval_ms_per_query", "ms"),
    ("core.merge_us_per_query", "us"),
    ("core.result_cache.hit_rate", "ratio"),
    ("core.cpu_ms_per_op", "ms"),
    ("core.store_load_s", "s"),
    ("inquery.index_build_s", "s"),
    ("inquery.parse_us_per_query", "us"),
    ("inquery.daat_self_ms_per_query", "ms"),
    ("inquery.postings_decoded_per_query", "count"),
    ("inquery.blocks_skipped_per_query", "count"),
    ("inquery.block_cache.hit_rate", "ratio"),
    ("inquery.taat_self_ms_per_query", "ms"),
    ("inquery.tokenize_ms_per_update", "ms"),
    ("inquery.codec_ms_per_update", "ms"),
    ("inquery.record_edit_ms_per_update", "ms"),
    ("mneme.fetch_ms_per_query", "ms"),
    ("mneme.fetches_per_query", "count"),
    ("mneme.buffer.hit_rate", "ratio"),
    ("mneme.update_ms_per_update", "ms"),
    ("mneme.fetch_ms_per_update", "ms"),
    ("storage.reads_per_query", "count"),
    ("storage.kb_read_per_query", "KiB"),
    ("storage.accesses_per_lookup", "ratio"),
    ("storage.sim_io_ms_per_query", "ms"),
    ("storage.kb_written_per_update", "KiB"),
    ("storage.write_amp", "ratio"),
    ("update.add_p50_ms", "ms"),
    ("update.add_p90_ms", "ms"),
    ("update.remove_p50_ms", "ms"),
    ("trace.traced_ms_per_query", "ms"),
    ("trace.residual_ms_per_query", "ms"),
    ("trace.residual_ms_per_update", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["serve_cold", "serve_hot", "update_mix"];

/// Client threads of the serving workloads (the host's core count).
pub const CLIENTS: usize = 2;

/// The simulated device every workload runs on: 8 KiB blocks and a 1 MiB
/// simulated OS cache (the bench crate's paper-scaled device).
pub fn device() -> Arc<Device> {
    Device::new(DeviceConfig {
        block_size: 8192,
        os_cache_blocks: 128,
        cost_model: CostModel::default(),
    })
}

/// Bytes of the simulated OS cache [`device`] configures.
pub const OS_CACHE_BYTES: usize = 128 * 8192;

/// Length of one measured segment of a windowed closed loop.
pub const SEGMENT: Duration = Duration::from_millis(250);

/// One measured segment of a closed loop.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Wall time from the segment's start to its last completion.
    pub measured: Duration,
    /// Share of the machine's CPU ticks the hypervisor stole in it.
    pub steal_share: f64,
    /// Probe milliseconds of every client at the segment's end.
    pub probe_ms: Vec<f64>,
}

impl<St, T> LoopRun<St, T> {
    /// Figures over the requests completed in the segments the hypervisor
    /// did not steal from (see [`host::quiet`]), or in every segment.
    pub fn figures(&self, quiet_only: bool) -> Figures {
        let steal: Vec<f64> = self.segments.iter().map(|s| s.steal_share).collect();
        let keep = if quiet_only { host::quiet(&steal) } else { vec![true; steal.len()] };
        let latencies: Vec<f64> =
            self.done.iter().filter(|d| keep[d.segment]).map(|d| d.nanos as f64 / 1e6).collect();
        let kept = || self.segments.iter().zip(&keep).filter(|(_, &k)| k).map(|(s, _)| s);
        let speed =
            HostSpeed { probe_ms: kept().flat_map(|s| s.probe_ms.iter().copied()).collect() };
        let seconds: f64 = kept().map(|s| s.measured.as_secs_f64()).sum();
        let ops = latencies.len() as f64;
        Figures::new(latencies, ops, seconds, (kept().count(), keep.len()), speed)
    }
}

/// One completed operation of a closed loop.
#[derive(Debug)]
pub struct Done<T> {
    /// Index of the request in its stream.
    pub index: usize,
    /// Segment it was sent and completed in.
    pub segment: usize,
    /// Nanoseconds from submission to response.
    pub nanos: u64,
    /// What the operation returned.
    pub out: T,
}

/// What a closed loop did.
pub struct LoopRun<St, T> {
    /// Completed operations of every client, unordered.
    pub done: Vec<Done<T>>,
    /// Each client's state after its last request.
    pub states: Vec<St>,
    /// The measured segments, in order.
    pub segments: Vec<Segment>,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal_share: f64,
}

/// Runs requests `0..n` from `clients` threads, each sending its next
/// request only after the previous one returned.
///
/// Without a `window` the loop runs until the requests run out. With one
/// it runs for that long in [`SEGMENT`]s and stops taking new requests
/// when the last segment ends. Every segment ends once all clients'
/// requests have completed, so no request spans two segments. With a
/// `probe`, every client then runs it, so that the probe times the same
/// threads with nothing else running.
pub fn closed_loop<St, T, Mk, F>(
    clients: usize,
    n: usize,
    window: Option<Duration>,
    probe: Option<&host::Probe>,
    make: Mk,
    f: F,
) -> LoopRun<St, T>
where
    St: Send,
    T: Send,
    Mk: Fn() -> St + Sync,
    F: Fn(&mut St, usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let segments = window.map_or(1, |w| (w.as_secs_f64() / SEGMENT.as_secs_f64()).ceil() as usize);
    let length = window.map(|w| w / segments as u32);
    let barrier = Barrier::new(clients);
    // CPU ticks (stolen, total) when each segment starts and ends, read by
    // whichever client leads the barrier.
    let ticks = Mutex::new(vec![((0u64, 0u64), (0u64, 0u64)); segments]);
    let run_ticks = measure::cpu_ticks();
    let origin = Instant::now();
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    // Per client: completed requests, state, per-segment (start, last
    // completion) in ns since `origin`, and per-segment probe times.
    type Client<St, T> = (Vec<Done<T>>, St, Vec<(u64, u64)>, Vec<f64>);
    let per_client: Vec<Client<St, T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut state = make();
                    let (mut done, mut spans, mut probes) = (Vec::new(), Vec::new(), Vec::new());
                    for segment in 0..segments {
                        if barrier.wait().is_leader() {
                            ticks.lock().expect("ticks")[segment].0 = measure::cpu_ticks();
                        }
                        let start = Instant::now();
                        let mut last = start;
                        while length.is_none_or(|w| start.elapsed() < w) {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= n {
                                break;
                            }
                            let t = Instant::now();
                            let out = f(&mut state, index);
                            last = Instant::now();
                            let nanos = last.duration_since(t).as_nanos() as u64;
                            done.push(Done { index, segment, nanos, out });
                        }
                        spans.push((ns(start), ns(last)));
                        if barrier.wait().is_leader() {
                            ticks.lock().expect("ticks")[segment].1 = measure::cpu_ticks();
                        }
                        if let Some(p) = probe {
                            probes.push(p.run());
                        }
                    }
                    (done, state, spans, probes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let (stolen, total) = measure::cpu_ticks();
    let steal_share = measure::ratio((stolen - run_ticks.0) as f64, (total - run_ticks.1) as f64);
    let ticks = ticks.into_inner().expect("ticks");
    let mut bounds = vec![(u64::MAX, 0u64); segments];
    let mut run = LoopRun {
        done: Vec::new(),
        states: Vec::new(),
        segments: ticks
            .iter()
            .map(|&((s0, t0), (s1, t1))| Segment {
                steal_share: measure::ratio((s1 - s0) as f64, (t1 - t0) as f64),
                ..Segment::default()
            })
            .collect(),
        steal_share,
    };
    for (done, state, spans, probes) in per_client {
        for (b, (start, last)) in bounds.iter_mut().zip(spans) {
            *b = (b.0.min(start), b.1.max(last));
        }
        for (segment, ms) in run.segments.iter_mut().zip(probes) {
            segment.probe_ms.push(ms);
        }
        run.done.extend(done);
        run.states.push(state);
    }
    for (segment, (start, last)) in run.segments.iter_mut().zip(bounds) {
        segment.measured = Duration::from_nanos(last.saturating_sub(start));
    }
    run
}

/// Where a traced run writes its spans (inside the checkout, ignored by
/// git; one file per workload, overwritten by the next traced run).
pub fn spans_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(".perfbench_out").join(format!("spans-{workload}.jsonl"))
}
