//! Measurement plumbing: sample sets, per-call spans for the traced
//! run, peak memory, and the one-line JSON result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A set of samples with nearest-rank quantiles.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (nearest rank); 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The samples, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().copied()
    }
}

/// Named sample sets: per-call timings from the traced run (seconds),
/// and per-round values pooled across a run.
#[derive(Default)]
pub struct Series {
    sets: BTreeMap<&'static str, Samples>,
}

impl Series {
    /// An empty recorder.
    pub fn new() -> Self {
        Series::default()
    }

    /// Adds one sample to `name`.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.sets.entry(name).or_default().push(v);
    }

    /// Times `f` as one call of `name`, in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.push(name, t0.elapsed().as_secs_f64());
        out
    }

    /// The samples recorded under `name`.
    pub fn get(&self, name: &str) -> Samples {
        self.sets.get(name).cloned().unwrap_or_default()
    }

    /// Appends every sample of `from` to `name`.
    pub fn extend(&mut self, name: &'static str, from: &Samples) {
        let set = self.sets.entry(name).or_default();
        from.iter().for_each(|v| set.push(v));
    }
}

/// How long the pace kernel takes on the reference host (a 2-vCPU
/// x86-64 VM, in its slower phases).
const PACE_KERNEL_REFERENCE_S: f64 = 0.004;

/// Host-speed normalisation for metrics of pure CPU work. On a shared
/// host the same computation runs up to 1.5x slower for seconds to
/// minutes at a time, which would swamp any change in the code. This
/// times a fixed kernel (random fill, sort, ordered-map build — the
/// allocation-heavy kind of work the HBG fold does) and returns how much
/// slower than the reference host it ran (above 1 = slower). Dividing a
/// CPU-bound time by it — the mean of two calls bracketing the
/// measurement, or the run's median over many — reports the time at
/// the reference host's speed. Metrics that wait on a schedule or a
/// socket are not normalised. The kernel runs three times and the
/// middle time counts, so a page-fault burst or an interrupt landing in
/// one call is not taken for a slow host.
pub fn pace_factor() -> f64 {
    let kernel = || {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut v: Vec<u64> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        let m: BTreeMap<u64, usize> = v.iter().step_by(10).copied().zip(0..).collect();
        std::hint::black_box(&m);
        t0.elapsed().as_secs_f64()
    };
    let mut times = [kernel(), kernel(), kernel()];
    times.sort_by(f64::total_cmp);
    times[1] / PACE_KERNEL_REFERENCE_S
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

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// What one run reports: the correctness verdict, operations attempted
/// and failed, the end-to-end metrics and, from a traced run, the
/// per-layer ones. `main` prints them against the schema in
/// `BENCHMARK.json`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why a gate failed, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// A passing outcome with no metrics yet.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records one end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    /// Records one per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Fails the run with `why` unless `ok`.
    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(why());
        }
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
