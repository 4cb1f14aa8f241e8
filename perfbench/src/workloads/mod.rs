//! The three workloads, the fleet layer's traced leg, and what they
//! share: repeated set-up, the per-run outcome, seeded input selection
//! and timed lowering.

pub mod compile;
pub mod fleet;
pub mod serve;

use homunculus_backends::model::ModelIr;
use homunculus_runtime::Compile;
use perfbench::stats::median;
use perfbench::timing::{at_reference, probe_ns};
use perfbench::trace::Tracer;
use serde_json::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Leading part of a serving loop that is run but not measured, so
/// worker wake-up and allocator growth finish before timing.
pub const WARMUP: Duration = Duration::from_millis(500);

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["compile", "serve_bulk", "serve_burst"];

/// What one run produced.
pub struct Outcome {
    /// Operations attempted (compiles, tickets or fleet runs).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong verdict.
    pub failed: u64,
    /// `(name, value, unit)` of every metric the run measured.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context that belongs with the numbers (sample counts, percentiles).
    pub notes: Vec<(&'static str, Value)>,
    /// Spans and counts of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            tracer: None,
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds a note.
    pub fn note(&mut self, name: &'static str, value: Value) {
        self.notes.push((name, value));
    }

    /// Counts an operation and whether it failed.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds the metrics every workload reports besides its own.
    pub fn common(&mut self, setup_s: f64) {
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.metric("setup_s", setup_s, "s");
        self.metric("ok_share", ok, "share");
        self.metric("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Workload seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Origin of every span timestamp.
    pub origin: Instant,
}

impl RunSpec {
    /// The two halves of a traced run: untraced, then traced.
    pub fn halves(&self) -> Duration {
        self.seconds / 2
    }
}

/// Runs `build` [`SETUP_REPEATS`] times, keeping the last result, and
/// returns it with the median set-up time in seconds.
pub fn repeated_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous instance down first, so set-ups do not
        // overlap in memory or threads.
        drop(last.take());
        let start = Instant::now();
        last = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), median(&times)))
}

/// A small seeded generator for picking input rows (SplitMix64).
pub struct Picker(u64);

impl Picker {
    /// A picker for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Picker(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % n as u64) as usize
    }
}

/// Lowering samples, each a batch of lowerings of every model lasting
/// at least [`LOWER_BATCH`] between two speed probes, taken
/// [`LOWER_GAP`] apart so that they spread over a few seconds of the
/// host's changing load.
const LOWER_SAMPLES: usize = 500;
const LOWER_BATCH: Duration = Duration::from_millis(1);
const LOWER_GAP: Duration = Duration::from_millis(4);

/// Seconds to lower `irs` into `CompiledPipeline`s: the compile step of
/// installing the served models, taken after the measured part of a
/// run. Each sample is scaled to the reference host speed by the mean
/// of the probes on either side of it; the figure is their median.
pub fn lowering_s(irs: &[ModelIr]) -> f64 {
    let lower = || {
        for ir in irs {
            black_box(ir.compile(serve::format()).expect("trained IRs lower"));
        }
    };
    let mut per_batch = 1u32;
    loop {
        let start = Instant::now();
        (0..per_batch).for_each(|_| lower());
        if start.elapsed() >= LOWER_BATCH || per_batch >= 1 << 16 {
            break;
        }
        per_batch *= 2;
    }
    let samples: Vec<f64> = (0..LOWER_SAMPLES)
        .map(|_| {
            std::thread::sleep(LOWER_GAP);
            let before = probe_ns();
            let start = Instant::now();
            (0..per_batch).for_each(|_| lower());
            let seconds = start.elapsed().as_secs_f64() / f64::from(per_batch);
            at_reference(seconds, (before + probe_ns()) / 2.0)
        })
        .collect();
    median(&samples)
}

/// Ratio of a traced time-like figure to its untraced counterpart,
/// minus one.
pub fn overhead(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        traced / untraced - 1.0
    } else {
        0.0
    }
}
