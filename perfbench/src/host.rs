//! Host-speed probe: a fixed kernel, independent of the program, timed
//! between pieces of measured work on the same threads.
//!
//! The benchmark's host is a virtual machine whose vCPUs share their cores'
//! caches with other tenants. Code that misses its private caches runs up
//! to about 1.6× slower while a neighbour is busy, for seconds to minutes at
//! a time; pure arithmetic does not slow down. The probe runs interleaved
//! with the work, on the same threads, and its kernel mixes what query evaluation does: random reads over a
//! buffer the size of a core's L2 cache, a byte-wise varint walk, and a
//! floating-point log. Host-time metrics are scaled in proportion to their
//! run's mean probe time against [`REFERENCE_PROBE_MS`] (see
//! [`HostSpeed::slowdown`]); the raw figures are printed beside them.
//! Across 26 runs of `serve_hot` and `update_mix` on the reference host,
//! regressing log throughput and log median latency on log mean probe
//! time gave slopes of 1.0 to 1.2 in size, so the scaling is proportional.

use std::time::Instant;

/// Probe wall milliseconds on the reference host when no neighbour
/// contends for its caches (a 2-vCPU Xeon virtual machine with 4 MiB of L2
/// per core, where probes between pieces of work took 4.7 to 9 ms, and
/// about 5 in the quiet spells). The scaled metrics read as if the whole
/// run had that speed.
pub const REFERENCE_PROBE_MS: f64 = 5.0;

/// Words in the probe's buffer: 4 MiB.
const PROBE_WORDS: usize = 1 << 20;
/// Reads per probe.
const PROBE_READS: usize = 60_000;

/// The probe kernel and its buffer.
pub struct Probe {
    words: Vec<u32>,
}

impl Default for Probe {
    fn default() -> Self {
        let words = (0..PROBE_WORDS as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        Probe { words }
    }
}

impl Probe {
    /// Runs the kernel once and returns the wall milliseconds it took.
    /// (Per-thread CPU time would ignore descheduling, but the kernel here
    /// accounts it in whole 4-ms ticks.)
    pub fn run(&self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.kernel());
        t.elapsed().as_secs_f64() * 1e3
    }

    fn kernel(&self) -> u64 {
        let (mut sum, mut at, mut log) = (0u64, 1usize, 0.0f64);
        for _ in 0..PROBE_READS {
            at = at.wrapping_mul(1_103_515_245).wrapping_add(12_345) % self.words.len();
            let mut word = self.words[at];
            sum = sum.wrapping_add(word as u64);
            while word > 127 {
                sum ^= (word & 127) as u64;
                word >>= 7;
            }
            log += (self.words[at] as f64).ln_1p();
        }
        sum ^ log.to_bits()
    }
}

/// A measured piece of work during which the hypervisor stole more than
/// this share of the machine's CPU ticks is left out of the figures.
pub const MAX_STEAL_SHARE: f64 = 0.02;

/// Which pieces of work, given the share of CPU ticks stolen during each,
/// the figures count: those at or below [`MAX_STEAL_SHARE`], and at least
/// the quarter with the least stolen.
///
/// Stolen time is time the program did not run at all; a closed loop
/// loses more than the stolen share because every hand-off between its
/// threads waits for the descheduled vCPU. Which pieces are left out
/// depends only on the hypervisor, never on how fast the program ran.
pub fn quiet(steal_share: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal_share.len()).collect();
    order.sort_by(|&a, &b| steal_share[a].total_cmp(&steal_share[b]));
    let mut keep = vec![false; steal_share.len()];
    for (rank, &i) in order.iter().enumerate() {
        keep[i] = steal_share[i] <= MAX_STEAL_SHARE || rank * 4 < steal_share.len();
    }
    keep
}

/// Probes run after each set-up.
const SETUP_PROBES: usize = 4;

/// Probe times of one run.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    /// Every probe's milliseconds, in no particular order.
    pub probe_ms: Vec<f64>,
}

impl HostSpeed {
    /// Runs the probe a few times after a set-up.
    pub fn after_setup(&mut self, probe: &Probe) {
        for _ in 0..SETUP_PROBES {
            self.probe_ms.push(probe.run());
        }
    }

    /// Mean probe milliseconds. The mean, not the median: the host's speed
    /// is bimodal, and the mean follows the share of time spent slow.
    pub fn mean_ms(&self) -> f64 {
        if self.probe_ms.is_empty() {
            return REFERENCE_PROBE_MS;
        }
        self.probe_ms.iter().sum::<f64>() / self.probe_ms.len() as f64
    }

    /// How much slower the host ran than the reference (> 1 when slower).
    pub fn slowdown(&self) -> f64 {
        self.mean_ms() / REFERENCE_PROBE_MS
    }

    /// A rate measured in this run, as at the reference speed.
    pub fn scale_rate(&self, per_s: f64) -> f64 {
        per_s * self.slowdown()
    }

    /// A duration measured in this run, as at the reference speed.
    pub fn scale_time(&self, t: f64) -> f64 {
        t / self.slowdown()
    }
}
