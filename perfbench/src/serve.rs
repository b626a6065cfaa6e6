//! The serving workloads, `serve_cold` and `serve_hot`: a closed loop of
//! client threads against a sharded [`QueryService`], and (traced run)
//! the same requests through the request path rebuilt from the layers'
//! public functions.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use poir_collections::Document;
use poir_core::{
    paper_heuristic, Engine, EngineBuilder, ExecMode, LatencyBreakdown, MnemeInvertedFile,
    MnemeOptions, QueryRequest, QueryResponse, QueryService, QueryTrace, RankedResult, ResultCache,
    ResultKey, ServiceConfig, ShardSpec,
};
use poir_inquery::query::daat::{self, DaatStats};
use poir_inquery::{
    parse_query, BeliefParams, BlockCache, Dictionary, DocTable, Index, InvertedFileStore,
    StopWords,
};
use poir_mneme::BufferPolicy;
use poir_storage::{Device, IoSnapshot};
use poir_telemetry::{HistogramSnapshot, MetricValue, RegistrySnapshot};

use crate::host::{HostSpeed, Probe};
use crate::inputs::{self, derive, K};
use crate::measure::{
    self, buffer_refs_hits, median, percentile, ranking, ranking_digest, ratio, Ranking, Report,
};
use crate::span::{self, span, Ledger, SpanLog, TimedStore};
use crate::{closed_loop, device, Done, CLIENTS, OS_CACHE_BYTES};

/// TIPSTER scale of the served collection (6,000 documents).
pub const SCALE: f64 = 0.1;
/// Document-range shards; the service runs one worker per shard.
pub const SHARDS: usize = 2;
/// Query-result cache entries when caches are on.
pub const RESULT_CACHE_ENTRIES: usize = 512;
/// Decoded-block cache bytes when caches are on.
pub const BLOCK_CACHE_BYTES: usize = 2 << 20;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Untimed requests before the measured window.
const WARMUP: usize = 600;
/// Every `SAMPLE_STRIDE`-th measured request is re-run on an unsharded
/// engine and compared bit for bit.
const SAMPLE_STRIDE: usize = 53;
/// The traced pipeline alternates untraced and traced runs of this many
/// consecutive requests, so tracing overhead is measured on like traffic.
const TRACE_CHUNK: usize = 64;

/// Which serving workload to run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// `serve_hot` traffic (hot term pool and exact repeats) instead of
    /// `serve_cold` (every request distinct).
    pub hot: bool,
    /// Result cache and decoded-block cache on (the workloads' setting;
    /// off only in the sensitivity self-test).
    pub caches: bool,
}

/// What one serving request returned.
#[derive(Debug)]
struct Served {
    ok: bool,
    digest: u64,
    queue_micros: u64,
    sample: Option<Ranking>,
}

fn builder(device: &Arc<Device>, caches: bool) -> EngineBuilder {
    Engine::builder(device).sharding(ShardSpec::new(SHARDS, SHARDS)).block_cache_bytes(if caches {
        BLOCK_CACHE_BYTES
    } else {
        0
    })
}

/// Builder defaults except the result cache; telemetry, the stats sampler
/// and the slow log stay off.
fn service_config(caches: bool) -> ServiceConfig {
    ServiceConfig {
        result_cache_entries: if caches { RESULT_CACHE_ENTRIES } else { 0 },
        // No request reaches the flight recorder's threshold.
        slow_threshold_micros: u64::MAX,
        stats_out: None,
        ..ServiceConfig::default()
    }
}

/// Streams sized so the measured window cannot run dry.
fn streams(
    coll: &poir_collections::SyntheticCollection,
    hot: bool,
    seed: u64,
    seconds: f64,
) -> (Vec<String>, Vec<String>) {
    let n = (seconds * 3000.0) as usize + 2000;
    if hot {
        let mut all = inputs::hot_stream(coll, derive(seed, 21), WARMUP + n);
        let measured = all.split_off(WARMUP);
        (all, measured)
    } else {
        let warm = inputs::cold_stream(coll, derive(seed, 22), WARMUP, &HashSet::new());
        let exclude: HashSet<String> = warm.iter().cloned().collect();
        let measured = inputs::cold_stream(coll, derive(seed, 23), n, &exclude);
        (warm, measured)
    }
}

/// The service a run measures, with its set-up timings.
struct Setup {
    service: QueryService,
    store_bytes: u64,
    index_build_s: f64,
    store_load_s: f64,
}

/// Builds the index and starts the service over it: the set-up that
/// `setup_s` times, probing the host during and after it.
fn set_up(docs: &[Document], caches: bool, probe: &Probe, speed: &mut HostSpeed) -> Setup {
    let device = device();
    let (index, index_build_s) = inputs::build_index_timed(docs, probe, speed);
    let t = Instant::now();
    let engine = builder(&device, caches).build_sharded(index).expect("sharded build");
    let store_bytes: u64 =
        (0..SHARDS).map(|s| engine.shard_store_handle(s).len().expect("store length")).sum();
    // `build_service` is `build_sharded` plus `start_with`; the two calls
    // are made separately to read the shard store sizes in between.
    let service = QueryService::start_with(engine, service_config(caches)).expect("service start");
    let store_load_s = t.elapsed().as_secs_f64();
    speed.after_setup(probe);
    Setup { service, store_bytes, index_build_s, store_load_s }
}

/// Medians of `(setup, index build, store load)` seconds over the measured
/// set-up and [`SETUPS`]` - 1` more, made after the measured window so
/// their freed memory does not count towards its peak.
fn setup_medians(
    first: &Setup,
    docs: &[Document],
    caches: bool,
    probe: &Probe,
    speed: &mut HostSpeed,
) -> (f64, f64, f64) {
    let (mut build, mut load) = (vec![first.index_build_s], vec![first.store_load_s]);
    for _ in 1..SETUPS {
        let s = set_up(docs, caches, probe, speed);
        build.push(s.index_build_s);
        load.push(s.store_load_s);
    }
    let total: Vec<f64> = build.iter().zip(&load).map(|(b, l)| b + l).collect();
    (median(&total), median(&build), median(&load))
}

fn histogram(snapshot: &RegistrySnapshot, name: &str) -> HistogramSnapshot {
    match snapshot.get(name) {
        Some(MetricValue::Histogram { lifetime, .. }) => **lifetime,
        _ => HistogramSnapshot::default(),
    }
}

/// Runs one serving workload.
pub fn run(cfg: ServeConfig, seed: u64, seconds: f64, trace: bool) -> Report {
    let name = if cfg.hot { "serve_hot" } else { "serve_cold" };
    let coll = inputs::collection(SCALE, 0, derive(seed, 20));
    let docs: Vec<Document> = coll.documents().collect();
    let raw_bytes: u64 = docs.iter().map(|d| d.text.len() as u64).sum();
    let (warm, stream) = streams(&coll, cfg.hot, seed, seconds);

    let probe = Probe::default();
    let mut setup_speed = HostSpeed::default();
    let setup = set_up(&docs, cfg.caches, &probe, &mut setup_speed);
    let service = &setup.service;
    let query = |i: usize, text: &str| -> Served {
        let req = QueryRequest::new(text, K).id(i as u32);
        match service.query(req) {
            Ok(resp) => {
                let r = ranking(&resp.hits);
                Served {
                    ok: resp.degraded.is_none(),
                    digest: ranking_digest(&r),
                    queue_micros: resp.queue_micros,
                    sample: i.is_multiple_of(SAMPLE_STRIDE).then_some(r),
                }
            }
            Err(_) => Served { ok: false, digest: 0, queue_micros: 0, sample: None },
        }
    };
    let warm_run = closed_loop(CLIENTS, warm.len(), None, None, || (), |_, i| query(i, &warm[i]));

    // The measured window: half the run when the traced pipeline follows.
    let window = if trace { seconds / 2.0 } else { seconds };
    let stats_before = service.stats();
    let rc_before = service.result_cache_stats().unwrap_or_default();
    let bc_before = service.block_cache_stats().unwrap_or_default();
    let cpu_before = measure::cpu_seconds();
    let run = closed_loop(
        CLIENTS,
        stream.len(),
        Some(Duration::from_secs_f64(window)),
        Some(&probe),
        || (),
        |_, i| query(i, &stream[i]),
    );
    let cpu = measure::cpu_seconds() - cpu_before;
    let stats_after = service.stats();
    let rc = service.result_cache_stats().unwrap_or_default();
    let bc = service.block_cache_stats().unwrap_or_default();
    let peak_rss_mb = measure::peak_rss_mb();
    service.shutdown();
    let (setup_s, index_build_s, store_load_s) =
        setup_medians(&setup, &docs, cfg.caches, &probe, &mut setup_speed);
    // The reference index for the checks and the traced pipeline, rebuilt
    // rather than kept beside the service so it does not count towards
    // the measured peak.
    let index = inputs::build_index(&docs);

    let mut report = Report { workload: name.to_string(), ..Report::default() };
    let served = run.done.len();
    report.attempted = (warm_run.done.len() + served) as u64;
    report.failed = warm_run.done.iter().chain(&run.done).filter(|d| !d.out.ok).count() as u64;

    let shares = inputs::stream_shares(&warm, &stream[..served.min(stream.len())]);
    let largest = index.records.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
    report.property("input_digest", inputs::digest(&docs, warm.iter().chain(&stream)));
    report.property("documents", docs.len());
    report.property("raw_text_bytes", raw_bytes);
    report.property("store_bytes", setup.store_bytes);
    report
        .property("buffer_capacity_bytes_at_most", SHARDS * paper_heuristic(largest, 8192).total());
    report.property("os_cache_bytes", OS_CACHE_BYTES);
    report.property("block_cache_bytes", if cfg.caches { BLOCK_CACHE_BYTES } else { 0 });
    report.property("result_cache_entries", if cfg.caches { RESULT_CACHE_ENTRIES } else { 0 });
    report.property("clients_shards_workers", format!("{CLIENTS}x{SHARDS}x{SHARDS}"));
    report.property("measured_requests", served);
    report.property("exact_repeat_share", format!("{:.4}", shares.exact_repeat));
    report.property("term_reuse_share", format!("{:.4}", shares.term_reuse));

    let by_index: BTreeMap<usize, &Done<Served>> = run.done.iter().map(|d| (d.index, d)).collect();
    check_against_engine(&mut report, &index, &stream, &by_index);

    if !trace {
        report.property("cpu_steal_share", format!("{:.4}", run.steal_share));
        report.host_time_metrics(&run.figures(true), &run.figures(false), setup_s, &setup_speed);
        report.metric("space_amp", "ratio", setup.store_bytes as f64 / raw_bytes as f64);
        report.metric("peak_rss_mb", "MiB", peak_rss_mb);
        return report;
    }

    // Service-side layers over the measured window.
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let queue = measure::sorted(run.done.iter().map(|d| d.out.queue_micros as f64).collect());
    layers.insert("core.queue_wait_ms_p50", percentile(&queue, 0.5) / 1e3);
    let eval_micros: u64 = (0..SHARDS)
        .map(|s| {
            let name = format!("shard{s}_eval_micros");
            let after = histogram(&stats_after.registry, &name);
            after.since(&histogram(&stats_before.registry, &name)).sum_micros
        })
        .sum();
    layers.insert("core.shard_eval_ms_per_query", eval_micros as f64 / 1e3 / served as f64);
    layers.insert(
        "core.result_cache.hit_rate",
        ratio(
            (rc.hits - rc_before.hits) as f64,
            (rc.hits + rc.misses - rc_before.hits - rc_before.misses) as f64,
        ),
    );
    layers.insert(
        "inquery.block_cache.hit_rate",
        ratio(
            (bc.hits - bc_before.hits) as f64,
            (bc.hits + bc.misses - bc_before.hits - bc_before.misses) as f64,
        ),
    );
    layers.insert("core.cpu_ms_per_op", cpu * 1e3 / served as f64);
    layers.insert("core.store_load_s", store_load_s);
    layers.insert("inquery.index_build_s", index_build_s);

    let digests: Vec<u64> = {
        let mut v = vec![0u64; served];
        for d in &run.done {
            v[d.index] = d.out.digest;
        }
        v
    };
    traced_pipeline(
        &mut report,
        &mut layers,
        &index,
        cfg,
        &warm,
        &stream[..served],
        &digests,
        window,
        name,
    );
    for &(name, unit) in crate::PER_LAYER {
        report.metric(name, unit, layers.get(name).copied().unwrap_or(0.0));
    }
    report
}

/// Re-runs every sampled request on an unsharded document-at-a-time
/// engine and requires bit-identical rankings.
fn check_against_engine(
    report: &mut Report,
    index: &Index,
    stream: &[String],
    served: &BTreeMap<usize, &Done<Served>>,
) {
    let device = device();
    let mut engine = Engine::builder(&device)
        .exec_mode(ExecMode::DaatPruned)
        .build(index.clone())
        .expect("reference engine build");
    for (&i, d) in served {
        let Some(sample) = &d.out.sample else { continue };
        report.attempted += 1;
        match engine.execute(&QueryRequest::new(stream[i].as_str(), K)) {
            Ok(resp) if ranking(&resp.hits) == *sample => {}
            Ok(_) => report
                .wrong(format!("request {i}: service ranking differs from the unsharded engine")),
            Err(e) => report.wrong(format!("request {i}: unsharded engine failed: {e}")),
        }
    }
}

/// One shard of the rebuilt request path.
struct Shard {
    dict: Dictionary,
    docs: DocTable,
    store: MnemeInvertedFile,
}

/// The service's request path rebuilt from the layers' public functions:
/// result cache, parse, flatten, per-shard pruned DAAT over each store's
/// shared view, merge, and naming.
struct Pipeline {
    shards: Vec<Shard>,
    stop: StopWords,
    params: BeliefParams,
    cache: Option<ResultCache>,
    device: Arc<Device>,
}

impl Pipeline {
    /// Splits and loads `index` the way [`EngineBuilder::build_sharded`]
    /// does with this workload's settings.
    fn build(index: &Index, caches: bool) -> Pipeline {
        let device = device();
        let block_cache = caches.then(|| Arc::new(BlockCache::new(BLOCK_CACHE_BYTES)));
        let shards = index
            .split_shards(SHARDS)
            .into_iter()
            .map(|Index { mut dictionary, documents, records }| {
                let mut store = MnemeInvertedFile::build(
                    device.create_file(),
                    MnemeOptions::default(),
                    &records,
                    &mut dictionary,
                )
                .expect("shard store build");
                let sizes = paper_heuristic(store.largest_record(), 8192);
                store.attach_buffers_with(sizes, BufferPolicy::Lru).expect("attach buffers");
                if let Some(cache) = &block_cache {
                    store.attach_block_cache(Arc::clone(cache));
                }
                Shard { dict: dictionary, docs: documents, store }
            })
            .collect();
        Pipeline {
            shards,
            stop: StopWords::default(),
            params: BeliefParams::default(),
            cache: caches.then(|| ResultCache::new(RESULT_CACHE_ENTRIES)),
            device,
        }
    }

    /// One request; returns its ranking and the DAAT work counters.
    fn query(&self, log: &RefCell<SpanLog>, text: &str, id: u32) -> (Ranking, DaatStats) {
        let root = log.borrow_mut().open("request");
        let mut stats = DaatStats::default();
        let epoch: u64 = self.shards.iter().map(|s| InvertedFileStore::store_epoch(&s.store)).sum();
        let key = ResultKey {
            query: text.trim().to_string(),
            k: K,
            mode: ExecMode::DaatPruned as u8,
            shards: self.shards.len(),
        };
        let cached =
            span(log, "result_cache", || self.cache.as_ref().and_then(|c| c.get(&key, epoch)));
        let hits = if let Some(resp) = cached {
            resp.hits
        } else {
            let parsed =
                span(log, "parse", || parse_query(text, &self.stop)).expect("query parses");
            let bag =
                span(log, "flatten_bag", || daat::flatten_bag(&parsed)).expect("bag of words");
            let per_shard: Vec<_> = self
                .shards
                .iter()
                .map(|shard| {
                    let mut view = shard.store.shared_view();
                    let mut store = TimedStore::new(&mut view, log);
                    let (scored, s) = span(log, "daat", || {
                        daat::rank_daat_pruned(
                            &mut store,
                            &shard.dict,
                            &shard.docs,
                            self.params,
                            &bag,
                            K,
                        )
                    })
                    .expect("shard evaluation");
                    stats.postings_decoded += s.postings_decoded;
                    stats.blocks_skipped += s.blocks_skipped;
                    scored
                })
                .collect();
            let merged = span(log, "merge", || daat::merge_topk(per_shard, K));
            let docs = &self.shards[0].docs;
            let hits: Vec<RankedResult> = span(log, "name_hits", || {
                merged
                    .into_iter()
                    .map(|s| RankedResult {
                        doc: s.doc,
                        name: docs.info(s.doc).name.clone(),
                        score: s.score,
                    })
                    .collect()
            });
            if let Some(cache) = &self.cache {
                span(log, "result_cache", || {
                    let resp = QueryResponse {
                        hits: hits.clone(),
                        shards: Vec::new(),
                        trace: QueryTrace::default(),
                        queue_micros: 0,
                        mode: ExecMode::DaatPruned,
                        breakdown: LatencyBreakdown::from_parts(id, 0, 0, 0, 0),
                        degraded: None,
                        cached: false,
                    };
                    cache.insert(key, epoch, resp)
                });
            }
            hits
        };
        log.borrow_mut().close(root);
        (ranking(&hits), stats)
    }

    fn buffer_refs_hits(&self) -> (u64, u64) {
        buffer_refs_hits(self.shards.iter().map(|s| &s.store))
    }
}

/// Runs the served requests through the rebuilt pipeline, alternating
/// traced and untraced chunks, checks each ranking against the service's,
/// and fills the pipeline's layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced_pipeline(
    report: &mut Report,
    layers: &mut BTreeMap<&'static str, f64>,
    index: &Index,
    cfg: ServeConfig,
    warm: &[String],
    stream: &[String],
    service_digests: &[u64],
    window: f64,
    workload: &str,
) {
    let pipeline = Pipeline::build(index, cfg.caches);
    let origin = Instant::now();
    let make = || RefCell::new(SpanLog::new(origin));
    closed_loop(CLIENTS, warm.len(), None, None, make, |log, i| {
        log.get_mut().begin(i as u32, false);
        pipeline.query(log, &warm[i], i as u32)
    });
    let io_before: IoSnapshot = pipeline.device.stats().snapshot();
    let (refs0, hits0) = pipeline.buffer_refs_hits();
    let run = closed_loop(
        CLIENTS,
        stream.len(),
        Some(Duration::from_secs_f64(window)),
        None,
        make,
        |log, i| {
            let traced = (i / TRACE_CHUNK) % 2 == 1;
            log.get_mut().begin(i as u32, traced);
            let (r, s) = pipeline.query(log, &stream[i], i as u32);
            (ranking_digest(&r), s, traced)
        },
    );
    let io = pipeline.device.stats().snapshot().since(&io_before);
    let (refs1, hits1) = pipeline.buffer_refs_hits();

    let n = run.done.len() as f64;
    report.attempted += run.done.len() as u64;
    for d in &run.done {
        if d.out.0 != service_digests[d.index] {
            report.wrong(format!(
                "request {}: traced pipeline ranking differs from the service",
                d.index
            ));
        }
    }
    let mut ledger = Ledger::default();
    let logs: Vec<SpanLog> = run.states.into_iter().map(RefCell::into_inner).collect();
    for log in &logs {
        ledger.add(&log.spans);
    }
    let fetches: u64 = logs.iter().map(|l| l.fetches).sum();
    let lookups: u64 = logs.iter().map(|l| l.lookups).sum();
    let traced = ledger.count("request", "request") as f64;
    let mean = |want: bool| {
        let v: Vec<f64> =
            run.done.iter().filter(|d| d.out.2 == want).map(|d| d.nanos as f64).collect();
        ratio(v.iter().sum(), v.len() as f64)
    };
    let postings: u64 = run.done.iter().map(|d| d.out.1.postings_decoded).sum();
    let skipped: u64 = run.done.iter().map(|d| d.out.1.blocks_skipped).sum();
    layers.insert("core.merge_us_per_query", ledger.self_ms("request", "merge") * 1e3 / traced);
    layers.insert("inquery.parse_us_per_query", ledger.self_ms("request", "parse") * 1e3 / traced);
    layers.insert("inquery.daat_self_ms_per_query", ledger.self_ms("request", "daat") / traced);
    layers.insert("inquery.postings_decoded_per_query", postings as f64 / n);
    layers.insert("inquery.blocks_skipped_per_query", skipped as f64 / n);
    layers.insert("mneme.fetch_ms_per_query", ledger.total_ms("request", "fetch") / traced);
    layers.insert("mneme.fetches_per_query", fetches as f64 / n);
    layers.insert("mneme.buffer.hit_rate", ratio((hits1 - hits0) as f64, (refs1 - refs0) as f64));
    layers.insert("storage.reads_per_query", io.file_accesses as f64 / n);
    layers.insert("storage.kb_read_per_query", io.bytes_read as f64 / 1024.0 / n);
    layers.insert("storage.accesses_per_lookup", ratio(io.file_accesses as f64, lookups as f64));
    layers.insert(
        "storage.sim_io_ms_per_query",
        pipeline.device.cost_model().charge(&io).as_micros() as f64 / 1e3 / n,
    );
    layers.insert("trace.traced_ms_per_query", ledger.total_ms("request", "request") / traced);
    layers.insert("trace.residual_ms_per_query", ledger.self_ms("request", "request") / traced);
    layers.insert("trace.overhead_frac", ratio(mean(true), mean(false)) - 1.0);
    report.property("traced_requests", traced);
    let spans: Vec<Vec<span::Span>> = logs.into_iter().map(|l| l.spans).collect();
    span::write_spans(&crate::spans_path(workload), &spans);
}
