//! The `update_mix` workload: a single-thread newswire loop on an
//! unsharded [`Engine`]. Each step adds the next document, removes the one
//! added [`WINDOW`] steps earlier, and runs [`QUERIES_PER_STEP`]
//! term-at-a-time queries. Rounds repeat the same steps from a fresh
//! set-up until the run's time is used, cycling through
//! [`QUERY_SETS`] query sets; the figures pool every round's operations. The host probe runs after every step, outside the timed
//! steps.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use poir_collections::Document;
use poir_core::{paper_heuristic, Engine, MnemeInvertedFile, MnemeOptions, QueryRequest};
use poir_inquery::{
    parse_query, tokenize, BeliefParams, BlockCache, Dictionary, DocId, DocTable, Evaluator, Index,
    InvertedFileStore, InvertedRecord, Posting, StopWords,
};
use poir_mneme::BufferPolicy;
use poir_storage::{Device, IoSnapshot};

use crate::host::{self, HostSpeed, Probe};
use crate::inputs::{self, derive, K};
use crate::measure::{
    self, buffer_refs_hits, median, percentile, ranking, ranking_digest, ratio, Figures, Ranking,
    Report,
};
use crate::serve::BLOCK_CACHE_BYTES;
use crate::span::{self, span, Ledger, SpanLog, TimedStore};
use crate::{device, OS_CACHE_BYTES};

/// TIPSTER scale of the base collection (3,000 documents).
pub const SCALE: f64 = 0.05;
/// Newswire documents live at once; timing starts once it is full.
pub const WINDOW: usize = 20;
/// Measured steps per round.
pub const STEPS: usize = 50;
/// Term-at-a-time queries per step.
pub const QUERIES_PER_STEP: usize = 20;
/// Query sets rounds cycle through. With one set the p99 rests on the
/// heaviest ten of 1,000 queries, which differ from seed to seed; four
/// sets let it rest on forty, and round `i` still repeats round
/// `i - QUERY_SETS` exactly, which the checks compare.
pub const QUERY_SETS: usize = 4;
/// Base documents re-queried by their own text after the reopen.
const BASE_CHECKS: usize = 20;

/// The generated inputs of one run.
struct Inputs {
    base: Vec<Document>,
    news: Vec<Document>,
    queries: Vec<String>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let coll = inputs::collection(SCALE, WINDOW + STEPS, derive(seed, 30));
        let mut base: Vec<Document> = coll.documents().collect();
        let news = base.split_off(base.len() - WINDOW - STEPS);
        let queries =
            inputs::update_queries(&coll, derive(seed, 31), QUERY_SETS * STEPS * QUERIES_PER_STEP);
        Inputs { base, news, queries }
    }

    fn query(&self, set: usize, step: usize, q: usize) -> &str {
        &self.queries[(set * STEPS + step) * QUERIES_PER_STEP + q]
    }
}

/// Measurements of one engine round.
#[derive(Default)]
struct Round {
    setup_s: f64,
    index_build_s: f64,
    store_load_s: f64,
    add_ms: Vec<f64>,
    remove_ms: Vec<f64>,
    /// By `step * QUERIES_PER_STEP + q`.
    query_ms: Vec<f64>,
    /// Ranking digest of each query, by `step * QUERIES_PER_STEP + q`.
    digests: Vec<u64>,
    /// Each step's wall seconds, share of CPU ticks stolen, and the probe
    /// run after it.
    step_s: Vec<f64>,
    step_steal: Vec<f64>,
    step_probe_ms: Vec<f64>,
    /// Sum of the steps' wall times.
    wall: Duration,
    cpu_s: f64,
    space_amp: f64,
    bytes_written: u64,
    added_text_bytes: u64,
    block_cache_hits: u64,
    block_cache_lookups: u64,
    /// `VmHWM` when the round's steps ended.
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
}

impl Round {
    fn ops(&self) -> f64 {
        (self.add_ms.len() + self.remove_ms.len() + self.query_ms.len()) as f64
    }
}

/// Builds the engine over `base`, probing the host during and after; returns
/// it with the index build and store load seconds.
fn build_engine(
    device: &Arc<Device>,
    base: &[Document],
    probe: &Probe,
    speed: &mut HostSpeed,
) -> (Engine, f64, f64) {
    let (index, index_build) = inputs::build_index_timed(base, probe, speed);
    let t = Instant::now();
    let engine =
        Engine::builder(device).block_cache_bytes(BLOCK_CACHE_BYTES).build(index).expect("build");
    let store_load = t.elapsed().as_secs_f64();
    speed.after_setup(probe);
    (engine, index_build, store_load)
}

/// One round through the public [`Engine`] API with query set `set`. The
/// last round also saves, reopens, and checks the reopened index.
fn engine_round(
    inp: &Inputs,
    report: &mut Report,
    set: usize,
    last: bool,
    probe: &Probe,
    setup_speed: &mut HostSpeed,
) -> Round {
    let device = device();
    let (mut engine, index_build_s, store_load_s) =
        build_engine(&device, &inp.base, probe, setup_speed);
    let mut r = Round {
        setup_s: index_build_s + store_load_s,
        index_build_s,
        store_load_s,
        ..Round::default()
    };
    let mut live: VecDeque<(DocId, usize)> = VecDeque::new();
    for (j, d) in inp.news[..WINDOW].iter().enumerate() {
        live.push_back((engine.add_document(&d.name, &d.text).expect("window fill"), j));
    }
    let mut removed: Vec<(DocId, usize)> = Vec::new();
    let io_before = device.stats().snapshot();
    let bc_before = engine.block_cache_stats().unwrap_or_default();
    let mut cpu_s = 0.0;
    for step in 0..STEPS {
        let (cpu_before, ticks) = (measure::cpu_seconds(), measure::cpu_ticks());
        let step_start = Instant::now();
        let j = WINDOW + step;
        let d = &inp.news[j];
        r.attempted += 2;
        let t = Instant::now();
        let added = engine.add_document(&d.name, &d.text);
        r.add_ms.push(t.elapsed().as_secs_f64() * 1e3);
        r.added_text_bytes += d.text.len() as u64;
        match added {
            Ok(id) => live.push_back((id, j)),
            Err(_) => r.failed += 1,
        }
        let (old, oj) = live.pop_front().expect("window is full");
        let t = Instant::now();
        let outcome = engine.remove_document(old, &inp.news[oj].text);
        r.remove_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if outcome.is_err() {
            r.failed += 1;
        }
        removed.push((old, oj));
        for q in 0..QUERIES_PER_STEP {
            r.attempted += 1;
            let req = QueryRequest::new(inp.query(set, step, q), K);
            let t = Instant::now();
            let resp = engine.execute(&req);
            r.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match resp {
                Ok(resp) => {
                    r.digests.push(ranking_digest(&ranking(&resp.hits)));
                    if let Some(h) = resp.hits.iter().find(|h| removed.iter().any(|x| x.0 == h.doc))
                    {
                        report.wrong(format!("step {step}: removed document {} ranked", h.doc.0));
                    }
                }
                Err(_) => {
                    r.failed += 1;
                    r.digests.push(0);
                }
            }
        }
        let wall = step_start.elapsed();
        let (stolen, total) = measure::cpu_ticks();
        cpu_s += measure::cpu_seconds() - cpu_before;
        r.wall += wall;
        r.step_s.push(wall.as_secs_f64());
        r.step_steal.push(ratio((stolen - ticks.0) as f64, (total - ticks.1) as f64));
        r.step_probe_ms.push(probe.run());
    }
    r.cpu_s = cpu_s;
    r.peak_rss_mb = measure::peak_rss_mb();
    let io = device.stats().snapshot().since(&io_before);
    r.bytes_written = io.bytes_written;
    let bc = engine.block_cache_stats().unwrap_or_default();
    r.block_cache_hits = bc.hits - bc_before.hits;
    r.block_cache_lookups = bc.hits + bc.misses - bc_before.hits - bc_before.misses;
    let live_text: u64 = inp.base.iter().map(|d| d.text.len() as u64).sum::<u64>()
        + live.iter().map(|&(_, j)| inp.news[j].text.len() as u64).sum::<u64>();
    r.space_amp = engine.store_file_size().expect("store size") as f64 / live_text as f64;
    if last {
        check_reopened(engine, &device, inp, &live, &removed, report);
    }
    r
}

/// Saves, reopens, and requires every live document to rank for its own
/// text and no removed document to rank for its own.
fn check_reopened(
    mut engine: Engine,
    device: &Arc<Device>,
    inp: &Inputs,
    live: &VecDeque<(DocId, usize)>,
    removed: &[(DocId, usize)],
    report: &mut Report,
) {
    let meta = device.create_file();
    engine.save(&meta).expect("save");
    let store = engine.store_handle().clone();
    drop(engine);
    let mut engine = Engine::builder(device)
        .block_cache_bytes(BLOCK_CACHE_BYTES)
        .open(store, &meta)
        .expect("reopen");
    let stride = (inp.base.len() / BASE_CHECKS).max(1);
    let base = (0..inp.base.len()).step_by(stride).map(|i| (DocId(i as u32), &inp.base[i]));
    let news = live.iter().map(|&(id, j)| (id, &inp.news[j]));
    for (id, d) in base.chain(news) {
        report.attempted += 1;
        match engine.execute(&QueryRequest::new(d.text.as_str(), K)) {
            Ok(resp) if resp.hits.iter().any(|h| h.doc == id) => {}
            Ok(_) => report.wrong(format!("live document {} does not rank for its text", id.0)),
            Err(e) => report.wrong(format!("query for document {} failed: {e}", id.0)),
        }
    }
    for &(id, j) in removed.iter().rev().take(BASE_CHECKS) {
        report.attempted += 1;
        match engine.execute(&QueryRequest::new(inp.news[j].text.as_str(), K)) {
            Ok(resp) if resp.hits.iter().all(|h| h.doc != id) => {}
            Ok(_) => report.wrong(format!("removed document {} ranks after reopen", id.0)),
            Err(e) => report.wrong(format!("query for removed document {} failed: {e}", id.0)),
        }
    }
}

/// Runs rounds until `seconds` of measured steps have passed.
fn engine_rounds(
    inp: &Inputs,
    seconds: f64,
    report: &mut Report,
    setup_speed: &mut HostSpeed,
) -> Vec<Round> {
    let probe = Probe::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    loop {
        // Each round's steps take about the same time, so the round that
        // would end past the budget is known to be the last one.
        let per_round = rounds.last().map_or(0.0, |r| r.wall.as_secs_f64());
        let last = !rounds.is_empty() && measured + 2.0 * per_round > seconds;
        let set = rounds.len() % QUERY_SETS;
        let r = engine_round(inp, report, set, last, &probe, setup_speed);
        measured += r.wall.as_secs_f64();
        rounds.push(r);
        if last {
            return rounds;
        }
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let inp = Inputs::new(seed);
    let mut report = Report { workload: "update_mix".to_string(), ..Report::default() };
    let window = if trace { seconds / 2.0 } else { seconds };
    let mut setup_speed = HostSpeed::default();
    let rounds = engine_rounds(&inp, window, &mut report, &mut setup_speed);
    report.attempted += rounds.iter().map(|r| r.attempted).sum::<u64>();
    report.failed += rounds.iter().map(|r| r.failed).sum::<u64>();

    for (i, r) in rounds.iter().enumerate().skip(QUERY_SETS) {
        if r.digests != rounds[i - QUERY_SETS].digests {
            report.wrong(format!("round {i}: rankings differ from round {}", i - QUERY_SETS));
        }
    }

    let raw_base: u64 = inp.base.iter().map(|d| d.text.len() as u64).sum();
    let all_texts = inp.news.iter().map(|d| &d.text).chain(&inp.queries);
    report.property("input_digest", inputs::digest(&inp.base, all_texts));
    report.property("base_documents", inp.base.len());
    report.property("raw_base_text_bytes", raw_base);
    report.property(
        "window_steps_queries_sets",
        format!("{WINDOW}/{STEPS}/{QUERIES_PER_STEP}/{QUERY_SETS}"),
    );
    report.property("rounds", rounds.len());
    report.property("os_cache_bytes", OS_CACHE_BYTES);
    report.property("block_cache_bytes", BLOCK_CACHE_BYTES);
    let shares = inputs::stream_shares(&[], &inp.queries);
    report.property("exact_repeat_share", format!("{:.4}", shares.exact_repeat));
    report.property("term_reuse_share", format!("{:.4}", shares.term_reuse));

    let pooled = |f: fn(&Round) -> &Vec<f64>| {
        measure::sorted(rounds.iter().flat_map(|r| f(r).iter().copied()).collect())
    };
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    if !trace {
        let steal: Vec<f64> = rounds.iter().flat_map(|r| r.step_steal.iter().copied()).collect();
        let setup_s = med(|r| r.setup_s);
        report.host_time_metrics(
            &step_figures(&rounds, &host::quiet(&steal)),
            &step_figures(&rounds, &vec![true; steal.len()]),
            setup_s,
            &setup_speed,
        );
        report.metric("space_amp", "ratio", med(|r| r.space_amp));
        // Later rounds reuse memory the earlier ones freed; the first
        // round's peak is the one a single engine reaches.
        report.metric("peak_rss_mb", "MiB", rounds[0].peak_rss_mb);
        return report;
    }

    let (adds, removes) = (pooled(|r| &r.add_ms), pooled(|r| &r.remove_ms));
    let ops: f64 = rounds.iter().map(Round::ops).sum();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let updates = (adds.len() + removes.len()) as f64;
    let sum = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    layers.insert("update.add_p50_ms", percentile(&adds, 0.50));
    layers.insert("update.add_p90_ms", percentile(&adds, 0.90));
    layers.insert("update.remove_p50_ms", percentile(&removes, 0.50));
    layers.insert("core.cpu_ms_per_op", rounds.iter().map(|r| r.cpu_s).sum::<f64>() * 1e3 / ops);
    layers.insert("core.store_load_s", med(|r| r.store_load_s));
    layers.insert("inquery.index_build_s", med(|r| r.index_build_s));
    layers.insert(
        "inquery.block_cache.hit_rate",
        ratio(sum(|r| r.block_cache_hits), sum(|r| r.block_cache_lookups)),
    );
    layers.insert("storage.kb_written_per_update", sum(|r| r.bytes_written) / 1024.0 / updates);
    layers
        .insert("storage.write_amp", ratio(sum(|r| r.bytes_written), sum(|r| r.added_text_bytes)));
    traced_pipeline(&inp, &rounds[0].digests, &mut layers, &mut report);
    for &(name, unit) in crate::PER_LAYER {
        report.metric(name, unit, layers.get(name).copied().unwrap_or(0.0));
    }
    report
}

/// Figures over the steps of every round that `keep` marks (flattened in
/// round order): adds, removes and queries per second of step time, and
/// the percentiles of the steps' query latencies.
fn step_figures(rounds: &[Round], keep: &[bool]) -> Figures {
    let steps = rounds.iter().flat_map(|r| (0..r.step_s.len()).map(move |i| (r, i)));
    let (mut latencies, mut speed, mut seconds) = (Vec::new(), HostSpeed::default(), 0.0);
    for ((r, i), _) in steps.zip(keep).filter(|(_, &k)| k) {
        latencies.extend_from_slice(&r.query_ms[i * QUERIES_PER_STEP..(i + 1) * QUERIES_PER_STEP]);
        speed.probe_ms.push(r.step_probe_ms[i]);
        seconds += r.step_s[i];
    }
    let kept = speed.probe_ms.len();
    // Each step is one add, one remove and its queries.
    let ops = (kept * (2 + QUERIES_PER_STEP)) as f64;
    Figures::new(latencies, ops, seconds, (kept, keep.len()), speed)
}

/// The engine's update and query paths rebuilt from the layers' public
/// functions over one Mneme store, each call wrapped in a span.
struct Pipeline {
    dict: Dictionary,
    docs: DocTable,
    store: MnemeInvertedFile,
    stop: StopWords,
    params: BeliefParams,
    device: Arc<Device>,
}

impl Pipeline {
    /// Loads `index` the way the engine builder does with this workload's
    /// settings.
    fn build(index: Index) -> Pipeline {
        let device = device();
        let Index { mut dictionary, documents, records } = index;
        let mut store = MnemeInvertedFile::build(
            device.create_file(),
            MnemeOptions::default(),
            &records,
            &mut dictionary,
        )
        .expect("store build");
        let sizes = paper_heuristic(store.largest_record(), 8192);
        store.attach_buffers_with(sizes, BufferPolicy::Lru).expect("attach buffers");
        store.attach_block_cache(Arc::new(BlockCache::new(BLOCK_CACHE_BYTES)));
        Pipeline {
            dict: dictionary,
            docs: documents,
            store,
            stop: StopWords::default(),
            params: BeliefParams::default(),
            device,
        }
    }

    /// Fetches and decodes the record behind `store_ref`.
    fn record(&mut self, log: &RefCell<SpanLog>, store_ref: u64) -> InvertedRecord {
        let bytes = TimedStore::new(&mut self.store, log).fetch(store_ref).expect("fetch");
        span(log, "decode", || InvertedRecord::decode(&bytes)).expect("record decodes")
    }

    fn add(&mut self, log: &RefCell<SpanLog>, name: &str, text: &str) -> DocId {
        let root = log.borrow_mut().open("add");
        let by_term = span(log, "tokenize", || {
            let mut by_term: BTreeMap<String, Vec<u32>> = BTreeMap::new();
            for (token, pos) in tokenize(text, &self.stop) {
                by_term.entry(token).or_default().push(pos);
            }
            by_term
        });
        let raw_tokens =
            text.split(|c: char| !c.is_ascii_alphanumeric()).filter(|t| !t.is_empty()).count();
        let doc = self.docs.push(name.to_string(), raw_tokens as u32);
        for (token, positions) in by_term {
            let tf = positions.len() as u32;
            let posting = Posting { doc, tf, positions };
            if let Some(id) = self.dict.lookup(&token) {
                let store_ref = self.dict.entry(id).store_ref;
                let mut record = self.record(log, store_ref);
                span(log, "edit", || {
                    record.cf += tf as u64;
                    record.max_tf = record.max_tf.max(tf);
                    record.postings.push(posting);
                });
                let bytes = span(log, "encode", || record.encode());
                // Freeing the decoded postings is part of editing them.
                span(log, "edit", || drop(record));
                let new_ref =
                    span(log, "update_record", || self.store.update_record(store_ref, &bytes))
                        .expect("update record");
                let entry = self.dict.entry_mut(id);
                entry.store_ref = new_ref;
                entry.df += 1;
                entry.cf += tf as u64;
            } else {
                let bytes =
                    span(log, "encode", || InvertedRecord::from_postings(vec![posting]).encode());
                let store_ref = span(log, "insert_record", || self.store.insert_record(&bytes))
                    .expect("insert");
                let id = self.dict.intern(&token);
                let entry = self.dict.entry_mut(id);
                entry.store_ref = store_ref;
                entry.df = 1;
                entry.cf = tf as u64;
            }
        }
        log.borrow_mut().close(root);
        doc
    }

    fn remove(&mut self, log: &RefCell<SpanLog>, doc: DocId, text: &str) {
        let root = log.borrow_mut().open("remove");
        let terms = span(log, "tokenize", || {
            let mut terms: Vec<String> = tokenize(text, &self.stop).map(|(t, _)| t).collect();
            terms.sort_unstable();
            terms.dedup();
            terms
        });
        for token in terms {
            let Some(id) = self.dict.lookup(&token) else { continue };
            let store_ref = self.dict.entry(id).store_ref;
            let mut record = self.record(log, store_ref);
            let gone = span(log, "edit", || {
                let i = record.postings.binary_search_by_key(&doc, |p| p.doc).ok()?;
                let gone = record.postings.remove(i);
                record.cf = record.cf.saturating_sub(gone.tf as u64);
                record.max_tf = record.postings.iter().map(|p| p.tf).max().unwrap_or(0);
                Some(gone)
            });
            let Some(gone) = gone else { continue };
            let bytes = span(log, "encode", || record.encode());
            span(log, "edit", || drop(record));
            let new_ref =
                span(log, "update_record", || self.store.update_record(store_ref, &bytes))
                    .expect("update record");
            let entry = self.dict.entry_mut(id);
            entry.store_ref = new_ref;
            entry.df = entry.df.saturating_sub(1);
            entry.cf = entry.cf.saturating_sub(gone.tf as u64);
        }
        log.borrow_mut().close(root);
    }

    /// One term-at-a-time query with reservation, as the engine's default
    /// mode runs it.
    fn query(&mut self, log: &RefCell<SpanLog>, text: &str) -> Ranking {
        let root = log.borrow_mut().open("query");
        let parsed = span(log, "parse", || parse_query(text, &self.stop)).expect("query parses");
        let mut store = TimedStore::new(&mut self.store, log);
        let mut ev = Evaluator::new(&mut store, &self.dict, &self.docs, &self.stop, self.params);
        span(log, "reserve", || ev.reserve(&parsed));
        let scored = span(log, "taat", || ev.rank(&parsed, K)).expect("evaluation");
        span(log, "reserve", || ev.release_reservations());
        log.borrow_mut().close(root);
        scored.iter().map(|s| (s.doc.0, s.score.to_bits())).collect()
    }
}

/// Runs one round through [`Pipeline`], tracing every other step, checks
/// its rankings against the engine's, and fills the ledger's layers.
fn traced_pipeline(
    inp: &Inputs,
    engine_digests: &[u64],
    layers: &mut BTreeMap<&'static str, f64>,
    report: &mut Report,
) {
    let mut p = Pipeline::build(inputs::build_index(&inp.base));
    let log = RefCell::new(SpanLog::new(Instant::now()));
    let mut live: VecDeque<(DocId, usize)> = VecDeque::new();
    for (j, d) in inp.news[..WINDOW].iter().enumerate() {
        live.push_back((p.add(&log, &d.name, &d.text), j));
    }
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let (mut query_io, mut query_lookups) = (IoSnapshot::default(), 0u64);
    let (refs0, hits0) = buffer_refs_hits([&p.store]);
    for step in 0..STEPS {
        let traced = step % 2 == 1;
        log.borrow_mut().begin(step as u32, traced);
        let t = Instant::now();
        let j = WINDOW + step;
        live.push_back((p.add(&log, &inp.news[j].name, &inp.news[j].text), j));
        let (old, oj) = live.pop_front().expect("window is full");
        p.remove(&log, old, &inp.news[oj].text);
        for q in 0..QUERIES_PER_STEP {
            let io = p.device.stats().snapshot();
            let lookups = log.borrow().lookups;
            let ranking = p.query(&log, inp.query(0, step, q));
            query_io = add_io(query_io, p.device.stats().snapshot().since(&io));
            query_lookups += log.borrow().lookups - lookups;
            report.attempted += 1;
            if ranking_digest(&ranking) != engine_digests[step * QUERIES_PER_STEP + q] {
                report.wrong(format!(
                    "step {step} query {q}: traced pipeline differs from the engine"
                ));
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        if traced {
            traced_ns.push(ns)
        } else {
            untraced_ns.push(ns)
        }
    }
    let (refs1, hits1) = buffer_refs_hits([&p.store]);
    let log = log.into_inner();
    let mut ledger = Ledger::default();
    ledger.add(&log.spans);
    let queries = ledger.count("query", "query") as f64;
    let updates = (ledger.count("add", "add") + ledger.count("remove", "remove")) as f64;
    let in_updates = |name: &'static str, f: &dyn Fn(&'static str, &'static str) -> f64| {
        f("add", name) + f("remove", name)
    };
    let self_ms = |root, name| ledger.self_ms(root, name);
    let all_queries = (STEPS * QUERIES_PER_STEP) as f64;
    layers.insert("inquery.parse_us_per_query", ledger.self_ms("query", "parse") * 1e3 / queries);
    layers.insert("inquery.taat_self_ms_per_query", ledger.self_ms("query", "taat") / queries);
    layers.insert("inquery.tokenize_ms_per_update", in_updates("tokenize", &self_ms) / updates);
    layers.insert(
        "inquery.codec_ms_per_update",
        (in_updates("decode", &self_ms) + in_updates("encode", &self_ms)) / updates,
    );
    layers.insert("inquery.record_edit_ms_per_update", in_updates("edit", &self_ms) / updates);
    layers.insert("mneme.fetch_ms_per_query", ledger.total_ms("query", "fetch") / queries);
    layers.insert("mneme.fetches_per_query", ledger.count("query", "fetch") as f64 / queries);
    layers.insert("mneme.buffer.hit_rate", ratio((hits1 - hits0) as f64, (refs1 - refs0) as f64));
    layers.insert(
        "mneme.update_ms_per_update",
        (in_updates("update_record", &self_ms) + in_updates("insert_record", &self_ms)) / updates,
    );
    layers.insert("mneme.fetch_ms_per_update", in_updates("fetch", &self_ms) / updates);
    layers.insert("storage.reads_per_query", query_io.file_accesses as f64 / all_queries);
    layers.insert("storage.kb_read_per_query", query_io.bytes_read as f64 / 1024.0 / all_queries);
    layers.insert(
        "storage.accesses_per_lookup",
        ratio(query_io.file_accesses as f64, query_lookups as f64),
    );
    layers.insert(
        "storage.sim_io_ms_per_query",
        p.device.cost_model().charge(&query_io).as_micros() as f64 / 1e3 / all_queries,
    );
    layers.insert("trace.traced_ms_per_query", ledger.total_ms("query", "query") / queries);
    layers.insert("trace.residual_ms_per_query", ledger.self_ms("query", "query") / queries);
    layers.insert(
        "trace.residual_ms_per_update",
        (ledger.self_ms("add", "add") + ledger.self_ms("remove", "remove")) / updates,
    );
    layers.insert("trace.overhead_frac", ratio(median(&traced_ns), median(&untraced_ns)) - 1.0);
    span::write_spans(&crate::spans_path("update_mix"), &[log.spans]);
}

fn add_io(a: IoSnapshot, b: IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        io_inputs: a.io_inputs + b.io_inputs,
        io_outputs: a.io_outputs + b.io_outputs,
        file_accesses: a.file_accesses + b.file_accesses,
        file_writes: a.file_writes + b.file_writes,
        bytes_read: a.bytes_read + b.bytes_read,
        bytes_written: a.bytes_written + b.bytes_written,
    }
}
