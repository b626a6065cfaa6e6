//! Statistics, process counters, and the result line.

use std::fmt::Write as _;

use poir_core::{MnemeInvertedFile, RankedResult};

use crate::host::HostSpeed;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts a sample vector in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Throughput and latency over the counted part of a measured window.
#[derive(Debug, Clone)]
pub struct Figures {
    /// Operations completed per second of measured time.
    pub ops_per_s: f64,
    /// Median query latency.
    pub p50_ms: f64,
    /// 99th-percentile query latency.
    pub p99_ms: f64,
    /// Query latencies the percentiles rest on.
    pub queries: usize,
    /// Pieces of the window counted, of all.
    pub kept: (usize, usize),
    /// The probes of the counted pieces.
    pub speed: HostSpeed,
}

impl Figures {
    /// Figures from the counted queries' latencies and `ops` operations in
    /// `seconds` of measured time.
    pub fn new(
        latencies_ms: Vec<f64>,
        ops: f64,
        seconds: f64,
        kept: (usize, usize),
        speed: HostSpeed,
    ) -> Figures {
        let sorted = sorted(latencies_ms);
        Figures {
            ops_per_s: ratio(ops, seconds),
            p50_ms: percentile(&sorted, 0.50),
            p99_ms: percentile(&sorted, 0.99),
            queries: sorted.len(),
            kept,
            speed,
        }
    }
}

/// Stolen and total CPU ticks of the machine so far (`/proc/stat`).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().next() else { return (0, 0) };
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// User plus system CPU seconds of this process, all threads included
/// (from `/proc/self/stat`, in clock ticks of 10 ms).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, folded incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// A ranking reduced to what bit-identity compares: document ids and the
/// exact bits of their scores.
pub type Ranking = Vec<(u32, u64)>;

/// Ranking of a list of hits, as bit-identity compares it.
pub fn ranking(hits: &[RankedResult]) -> Ranking {
    hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
}

/// Buffer references and hits summed over `stores`' segment buffers.
pub fn buffer_refs_hits<'a>(stores: impl IntoIterator<Item = &'a MnemeInvertedFile>) -> (u64, u64) {
    stores
        .into_iter()
        .flat_map(|s| s.buffer_stats().expect("buffer stats"))
        .fold((0, 0), |(r, h), b| (r + b.refs, h + b.hits))
}

/// Digest of a ranking (order-sensitive).
pub fn ranking_digest(ranking: &Ranking) -> u64 {
    let mut h = Fnv::default();
    for &(doc, bits) in ranking {
        h.u64(doc as u64).u64(bits);
    }
    h.0
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload properties, printed before the metrics.
    pub properties: Vec<(String, String)>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted in measured windows and checks.
    pub attempted: u64,
    /// Operations that returned an error or were degraded.
    pub failed: u64,
    /// Operations whose output failed a check.
    pub wrong: u64,
    /// One line per failed check.
    pub check_failures: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Adds a workload property.
    pub fn property(&mut self, name: &str, value: impl std::fmt::Display) {
        self.properties.push((name.to_string(), value.to_string()));
    }

    /// Adds the host-time end-to-end metrics, scaled to the reference
    /// host speed, and the figures they come from: `counted` (the quiet
    /// pieces of the window) and `whole` (every piece, unscaled).
    pub fn host_time_metrics(
        &mut self,
        counted: &Figures,
        whole: &Figures,
        setup_s: f64,
        setup_speed: &HostSpeed,
    ) {
        let speed = &counted.speed;
        self.property("quiet_pieces", format!("{}/{}", counted.kept.0, counted.kept.1));
        self.property("counted_queries", counted.queries);
        self.property("probes", speed.probe_ms.len());
        self.property("probe_ms_mean", format!("{:.4}", speed.mean_ms()));
        self.property("host_slowdown", format!("{:.4}", speed.slowdown()));
        self.property("setup_host_slowdown", format!("{:.4}", setup_speed.slowdown()));
        for (name, f) in [("quiet", counted), ("whole", whole)] {
            self.property(&format!("{name}_raw_ops_per_s"), format!("{:.2}", f.ops_per_s));
            self.property(&format!("{name}_raw_query_p50_ms"), format!("{:.4}", f.p50_ms));
            self.property(&format!("{name}_raw_query_p99_ms"), format!("{:.4}", f.p99_ms));
        }
        self.property("raw_setup_s", format!("{setup_s:.4}"));
        self.metric("setup_s", "s", setup_speed.scale_time(setup_s));
        self.metric("ops_per_s", "1/s", speed.scale_rate(counted.ops_per_s));
        self.metric("query_p50_ms", "ms", speed.scale_time(counted.p50_ms));
        self.metric("query_p99_ms", "ms", speed.scale_time(counted.p99_ms));
    }

    /// Records a failed output check; each counts as one wrong operation.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.check_failures.len() < 20 {
            self.check_failures.push(what);
        }
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.failed == 0
    }

    /// Prints the human-readable lines, then the result object as the last
    /// line of standard output.
    pub fn print(&self) {
        println!("workload {}", self.workload);
        for (k, v) in &self.properties {
            println!("  property {k:<34} {v}");
        }
        for m in &self.metrics {
            println!("  metric   {:<34} {:>14.6} {}", m.name, m.value, m.unit);
        }
        let error_rate = ratio((self.failed + self.wrong) as f64, self.attempted as f64);
        println!(
            "  checks   attempted {} failed {} wrong {} error_rate {error_rate}",
            self.attempted, self.failed, self.wrong
        );
        for f in &self.check_failures {
            println!("  FAILED   {f}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.wrong
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
