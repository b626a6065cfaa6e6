//! Seeded inputs: the TIPSTER-shaped collection, query streams, and the
//! properties printed beside the metrics.

use std::collections::HashSet;
use std::time::Instant;

use poir_collections::{
    generate_queries, tipster, Document, QuerySetSpec, QueryStyle, SyntheticCollection,
};
use poir_inquery::{Index, IndexBuilder, StopWords};

use crate::host::{HostSpeed, Probe};
use crate::measure::Fnv;

/// Results requested per query in every workload.
pub const K: usize = 100;

/// Mean terms per generated query (the TIPSTER query set's length).
pub const MEAN_TERMS: usize = 25;

/// Share of hot-stream requests that repeat an earlier request exactly.
pub const HOT_REPEAT_SHARE: f64 = 0.3;

/// Term re-draw probability of the hot stream's fresh queries.
pub const HOT_REUSE_RATE: f64 = 0.9;

/// Term re-draw probability of the cold stream (the preset's value).
pub const COLD_REUSE_RATE: f64 = 0.35;

/// Distinct head queries the hot stream's repeats are drawn from.
const HOT_HEAD: usize = 64;

/// Independent hot term pools the hot stream interleaves. One pool's cost
/// depends strongly on which terms its seed happens to make hot; mixing
/// several keeps the run's mean cost close from seed to seed.
const HOT_POOLS: usize = 4;

/// splitmix64 of `seed` and a stream number: independent sub-seeds.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The TIPSTER preset at `scale`, re-seeded, with `extra` documents beyond
/// the scaled count (the update workload's newswire tail).
pub fn collection(scale: f64, extra: usize, seed: u64) -> SyntheticCollection {
    let mut spec = tipster().scale(scale).spec;
    spec.num_docs += extra;
    spec.seed = seed;
    SyntheticCollection::new(spec)
}

/// Indexes `docs`.
pub fn build_index(docs: &[Document]) -> Index {
    let mut builder = IndexBuilder::new(StopWords::default());
    for d in docs {
        builder.add_document(&d.name, &d.text);
    }
    builder.finish()
}

/// Documents indexed between two probes of [`build_index_timed`].
const DOCS_PER_PROBE: usize = 500;

/// Indexes `docs` as the set-up step timed as `inquery.index_build_s`,
/// running `probe` every [`DOCS_PER_PROBE`] documents. Returns the index
/// and the seconds spent indexing, probes excluded.
pub fn build_index_timed(docs: &[Document], probe: &Probe, speed: &mut HostSpeed) -> (Index, f64) {
    let mut builder = IndexBuilder::new(StopWords::default());
    let mut seconds = 0.0;
    for chunk in docs.chunks(DOCS_PER_PROBE) {
        let t = Instant::now();
        for d in chunk {
            builder.add_document(&d.name, &d.text);
        }
        seconds += t.elapsed().as_secs_f64();
        speed.probe_ms.push(probe.run());
    }
    let t = Instant::now();
    let index = builder.finish();
    (index, seconds + t.elapsed().as_secs_f64())
}

fn natural_language(
    coll: &SyntheticCollection,
    seed: u64,
    n: usize,
    reuse_rate: f64,
) -> Vec<String> {
    let spec = QuerySetSpec {
        name: "perfbench".into(),
        style: QueryStyle::NaturalLanguage,
        num_queries: n,
        mean_terms: MEAN_TERMS,
        reuse_rate,
        seed,
    };
    generate_queries(coll, &spec).into_iter().map(|q| q.text).collect()
}

/// `n` distinct query texts, none of which is in `exclude`.
pub fn cold_stream(
    coll: &SyntheticCollection,
    seed: u64,
    n: usize,
    exclude: &HashSet<String>,
) -> Vec<String> {
    let mut seen = exclude.clone();
    let mut out = Vec::with_capacity(n);
    let mut round = 0;
    while out.len() < n {
        for q in natural_language(coll, derive(seed, round), n - out.len(), COLD_REUSE_RATE) {
            if seen.insert(q.clone()) {
                out.push(q);
            }
        }
        round += 1;
    }
    out
}

/// Deterministic 64-bit LCG for the hot stream's repeat draws.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` requests: fresh queries drawn in turn from [`HOT_POOLS`] hot term
/// pools, with [`HOT_REPEAT_SHARE`] of requests repeating one of the
/// first [`HOT_HEAD`] fresh queries, drawn with Zipf(1) weights.
pub fn hot_stream(coll: &SyntheticCollection, seed: u64, n: usize) -> Vec<String> {
    let pools: Vec<Vec<String>> = (0..HOT_POOLS as u64)
        .map(|p| natural_language(coll, derive(seed, 10 + p), n / HOT_POOLS + 1, HOT_REUSE_RATE))
        .collect();
    let fresh: Vec<&String> = (0..n).map(|i| &pools[i % HOT_POOLS][i / HOT_POOLS]).collect();
    let mut cumulative = Vec::with_capacity(HOT_HEAD);
    let mut total = 0.0;
    for rank in 0..HOT_HEAD {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    let mut rng = Lcg(derive(seed, 2));
    let mut next_fresh = 0;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if next_fresh > 0 && rng.next_f64() < HOT_REPEAT_SHARE {
            let head = next_fresh.min(HOT_HEAD);
            let u = rng.next_f64() * cumulative[head - 1];
            let rank = cumulative.partition_point(|&c| c < u).min(head - 1);
            out.push(fresh[rank].clone());
        } else {
            out.push(fresh[next_fresh].clone());
            next_fresh += 1;
        }
    }
    out
}

/// Queries for the update workload's term-at-a-time reads.
pub fn update_queries(coll: &SyntheticCollection, seed: u64, n: usize) -> Vec<String> {
    natural_language(coll, seed, n, COLD_REUSE_RATE)
}

/// How much work a measured stream shares with what preceded it.
#[derive(Debug, Clone, Copy)]
pub struct StreamShares {
    /// Share of measured requests whose text occurred earlier.
    pub exact_repeat: f64,
    /// Share of measured query-term occurrences whose term occurred in an
    /// earlier request.
    pub term_reuse: f64,
}

/// Repeat and reuse shares of `measured`, counting `warm` as history.
pub fn stream_shares(warm: &[String], measured: &[String]) -> StreamShares {
    let mut texts: HashSet<&str> = warm.iter().map(String::as_str).collect();
    let mut terms: HashSet<&str> = warm.iter().flat_map(|q| q.split_whitespace()).collect();
    let (mut repeats, mut reused, mut occurrences) = (0usize, 0usize, 0usize);
    for q in measured {
        if !texts.insert(q) {
            repeats += 1;
        }
        for t in q.split_whitespace() {
            occurrences += 1;
            if !terms.insert(t) {
                reused += 1;
            }
        }
    }
    StreamShares {
        exact_repeat: repeats as f64 / measured.len().max(1) as f64,
        term_reuse: reused as f64 / occurrences.max(1) as f64,
    }
}

/// Digest of every generated input, in order.
pub fn digest<'a>(docs: &[Document], texts: impl IntoIterator<Item = &'a String>) -> String {
    let mut h = Fnv::default();
    for d in docs {
        h.bytes(d.name.as_bytes()).bytes(d.text.as_bytes());
    }
    for t in texts {
        h.bytes(t.as_bytes()).u64(0);
    }
    format!("{:016x}", h.0)
}
