//! Timing of calls too short for one clock pair each, and of the host's
//! speed.
//!
//! Reading the clock twice costs tens of nanoseconds, as much as the
//! shortest kernels take. Short calls are therefore timed in batches of
//! at least [`MIN_BATCH`], one clock pair per batch, and single calls
//! that must be timed alone have the measured pair cost subtracted.
//!
//! The speed probe ([`probe_ns`]) times a fixed kernel next to a piece
//! of work, so that [`at_reference`] can give the work's time at a fixed
//! host speed.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shortest interval one clock pair may time.
pub const MIN_BATCH: Duration = Duration::from_micros(10);

/// What one `Instant` pair adds to a measured interval, in ns: the
/// median over 15 trials of 1024 empty pairs each.
pub fn clock_pair_ns() -> f64 {
    let trials: Vec<f64> = (0..15)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..1024 {
                let a = Instant::now();
                let b = black_box(Instant::now());
                total += b.duration_since(a).as_nanos();
            }
            total as f64 / 1024.0
        })
        .collect();
    median(&trials)
}

/// Subtracts the clock-pair cost from a single-call measurement.
pub fn net_ns(measured: Duration, pair_ns: f64) -> f64 {
    (measured.as_nanos() as f64 - pair_ns).max(0.0)
}

/// Times `call` in `batches` batches of `k` calls each, where `k` is the
/// smallest power of two whose batch lasts at least [`MIN_BATCH`].
/// Returns ns per call, one value per batch. `call` receives a running
/// call index so it can cycle through inputs.
pub fn per_call_ns(batches: usize, mut call: impl FnMut(usize)) -> Vec<f64> {
    let mut index = 0usize;
    let mut k = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..k {
            call(index);
            index += 1;
        }
        if start.elapsed() >= MIN_BATCH || k >= 1 << 20 {
            break;
        }
        k *= 2;
    }
    (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..k {
                call(index);
                index += 1;
            }
            start.elapsed().as_nanos() as f64 / k as f64
        })
        .collect()
}

/// Side of the square `f32` matrices the speed probe multiplies.
const PROBE_N: usize = 32;
/// Multiplications per probe; the fastest counts.
const PROBE_REPS: usize = 4;

/// What one probe multiplication costs, in ns, on a core running at
/// the reference speed: its quiet cost on the 2-vCPU x86-64 (Xeon)
/// host the benchmark was tuned on. Only the unit of the scaled figures
/// depends on it.
pub const REFERENCE_PROBE_NS: f64 = 21_000.0;

/// Times the speed probe, a fixed 32×32 `f32` matrix multiplication
/// that shares no code with the program under test, and returns its
/// fastest of a few repeats in ns.
///
/// On a shared host the sibling hardware threads of this machine's
/// virtual CPUs belong to other tenants. While they are busy every
/// thread here runs up to twice as slowly, in stretches of a tenth of
/// a second to a few seconds, and how much of the time that is drifts
/// from minute to minute. Probing right next to a piece of work gives
/// the host's speed at that moment, and [`at_reference`] takes it out.
pub fn probe_ns() -> f64 {
    let a: Vec<f32> = (0..PROBE_N * PROBE_N)
        .map(|i| (i % 13) as f32 * 0.125)
        .collect();
    let b: Vec<f32> = (0..PROBE_N * PROBE_N)
        .map(|i| (i % 11) as f32 * 0.25)
        .collect();
    let mut c = vec![0f32; PROBE_N * PROBE_N];
    let mut best = f64::MAX;
    for _ in 0..PROBE_REPS {
        let start = Instant::now();
        for i in 0..PROBE_N {
            for k in 0..PROBE_N {
                let x = a[i * PROBE_N + k];
                for j in 0..PROBE_N {
                    c[i * PROBE_N + j] += x * b[k * PROBE_N + j];
                }
            }
        }
        black_box(&mut c);
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// A time measured while the probe took `probe_ns`, scaled to a host
/// where it takes [`REFERENCE_PROBE_NS`]; any unit of time.
pub fn at_reference(seconds: f64, probe_ns: f64) -> f64 {
    seconds * REFERENCE_PROBE_NS / probe_ns
}
