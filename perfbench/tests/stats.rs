//! The benchmark's own arithmetic: percentiles and the samples that
//! support them, quartile spreads as the acceptance check computes
//! them, the compare rule, open-loop lateness accounting, and span self
//! time.

use perfbench::compare::{judge, Better, Verdict};
use perfbench::stats::{
    due_ns, median, percentile, quartile_spread, quartiles, tail, tail_percentile, OpenLoopSample,
    TAIL_SUPPORT,
};
use perfbench::trace::{self_times, totals, Span, Tracer};
use std::time::{Duration, Instant};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's `statistics.quantiles(v, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            [2.75, 5.5, 8.25],
        ),
        (&[3.5, 1.0, 9.25, 4.0, 2.5], [1.75, 3.5, 6.625]),
        (&[10., 20.], [7.5, 15.0, 22.5]),
        (
            &[5., 1., 4., 2., 3., 9., 7., 8., 6., 10., 11.],
            [3.0, 6.0, 9.0],
        ),
    ];
    for (values, want) in cases {
        let got = quartiles(values);
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{values:?}: {got:?} != {want:?}");
        }
    }
}

#[test]
fn quartile_spread_is_iqr_over_median() {
    let values = [1., 2., 3., 4., 5., 6., 7., 8., 9., 10.];
    assert!(close(quartile_spread(&values), (8.25 - 2.75) / 5.5));
    assert!(close(quartile_spread(&[4.0; 10]), 0.0));
    assert!(close(median(&[3., 1., 2., 4.]), 2.5));
}

#[test]
fn percentile_is_nearest_rank() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert!(close(percentile(&values, 50.0), 50.0));
    assert!(close(percentile(&values, 99.0), 99.0));
    assert!(close(percentile(&values, 100.0), 100.0));
    assert!(close(percentile(&[7.0], 99.0), 7.0));
}

#[test]
fn tail_claims_only_what_ten_samples_beyond_support() {
    // p99 needs 1000 samples (990th + 10 beyond), p95 200, p90 100.
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(39), None);
    for n in [40usize, 100, 250, 1_000, 5_000] {
        let p = tail_percentile(n).expect("supported");
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        assert!(n - rank >= TAIL_SUPPORT, "n={n} p={p}");
    }
    let values: Vec<f64> = (1..=1_000).map(f64::from).collect();
    let t = tail(&values).expect("1000 samples support p99");
    assert_eq!((t.tail_pct, t.n), (99.0, 1_000));
    assert!(close(t.tail, 990.0));
    assert!(close(t.p50, 500.5));
    assert!(tail(&values[..10]).is_none());
}

#[test]
fn compare_rule_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread() {
    let parent = [100., 101., 99., 100.5, 100., 99.5, 101., 100., 99.8, 100.2];
    // Every pair won, medians 10% apart: improved.
    let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
    let c = judge(&parent, &faster, Better::Lower, 0.1);
    assert_eq!((c.wins, c.pairs, c.verdict), (10, 10, Verdict::Improved));

    // Eight of ten pairs won is not enough, even with a clear gap.
    let mut mostly = faster.clone();
    mostly[0] = 200.0;
    mostly[1] = 200.0;
    assert_eq!(
        judge(&parent, &mostly, Better::Lower, 0.1).verdict,
        Verdict::WithinBound
    );

    // Every pair won but the gap is inside the parent's quartile spread.
    let barely: Vec<f64> = parent.iter().map(|v| v - 0.01).collect();
    assert_eq!(
        judge(&parent, &barely, Better::Lower, 0.1).verdict,
        Verdict::WithinBound
    );

    // Median 20% worse with a 10% bound: worse. For a higher-is-better
    // metric the same numbers are an improvement.
    let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
    assert_eq!(
        judge(&parent, &slower, Better::Lower, 0.1).verdict,
        Verdict::Worse
    );
    assert_eq!(
        judge(&parent, &slower, Better::Higher, 0.1).verdict,
        Verdict::Improved
    );

    // A parent spread wider than the bound leaves a small shift unresolved.
    let noisy = [50., 150., 80., 120., 60., 140., 90., 110., 70., 130.];
    let shifted: Vec<f64> = noisy.iter().map(|v| v * 1.05).collect();
    assert_eq!(
        judge(&noisy, &shifted, Better::Lower, 0.1).verdict,
        Verdict::Unresolved
    );
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    let period = 100_000; // one ticket every 100 µs
    assert_eq!(due_ns(0, period), 0);
    assert_eq!(due_ns(7, period), 700_000);
    // The generator stalls 1 ms before ticket 3: tickets 3.. go out late
    // and each one's latency includes the time it waited to be sent.
    let stall_end = 1_300_000;
    let samples: Vec<OpenLoopSample> = (0..6)
        .map(|k| {
            let due = due_ns(k, period);
            let sent = if k >= 3 {
                due.max(stall_end) + k
            } else {
                due + 5_000
            };
            OpenLoopSample {
                due_ns: due,
                sent_ns: sent,
                done_ns: sent + 40_000,
            }
        })
        .collect();
    assert_eq!(samples[0].lateness_ns(), 5_000);
    assert_eq!(samples[0].latency_ns(), 45_000);
    assert_eq!(samples[3].lateness_ns(), stall_end + 3 - 300_000);
    assert_eq!(samples[3].latency_ns(), stall_end + 3 + 40_000 - 300_000);
    // Timed from the send instead, the stall would vanish.
    assert!(samples[3].latency_ns() > samples[3].done_ns - samples[3].sent_ns + 900_000);
    // A ticket sent early is never negatively late.
    let early = OpenLoopSample {
        due_ns: 10,
        sent_ns: 5,
        done_ns: 20,
    };
    assert_eq!(early.lateness_ns(), 0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("root", 0, 100, None),
        // Two overlapping children cover 10..40 once, not twice.
        span("a", 10, 30, Some(0)),
        span("b", 20, 40, Some(0)),
        // A child spilling past its parent counts only inside it.
        span("c", 90, 120, Some(0)),
        // A grandchild is subtracted from its own parent only.
        span("d", 12, 18, Some(1)),
        span("leaf", 200, 210, None),
    ];
    let own = self_times(&spans);
    assert_eq!(own, vec![100 - 30 - 10, 20 - 6, 20, 30, 6, 10]);
    let by_name = totals(&spans);
    assert_eq!(by_name["root"], (1, 100, 60));
    assert_eq!(by_name["a"], (1, 20, 14));
}

#[test]
fn tracer_records_only_when_enabled() {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let root = tracer.open("op", None, 7);
    let start = origin + Duration::from_micros(5);
    tracer.record(
        "child",
        Some(root),
        7,
        start,
        start + Duration::from_micros(3),
    );
    tracer.count("things", 2);
    tracer.count("things", 3);
    tracer.close(root);
    assert_eq!(tracer.spans().len(), 2);
    assert_eq!(tracer.spans()[1].duration_ns(), 3_000);
    assert_eq!(tracer.spans()[1].parent, Some(root));
    assert_eq!(tracer.counts()["things"], 5);

    let mut off = Tracer::off();
    let id = off.open("op", None, 1);
    off.count("things", 1);
    off.close(id);
    assert_eq!(off.span("call", None, 1, || 42), 42);
    assert!(off.spans().is_empty() && off.counts().is_empty());
}

#[test]
fn least_stolen_keeps_the_intervals_that_lost_no_more_than_the_median() {
    use perfbench::stats::least_stolen;
    assert_eq!(
        least_stolen(&[0, 7, 1, 3, 0, 2]),
        vec![true, false, true, false, true, false]
    );
    // Nothing is dropped when no interval was hit harder than the rest.
    assert_eq!(least_stolen(&[2, 2, 2]), vec![true; 3]);
    assert_eq!(least_stolen(&[5]), vec![true]);
    assert!(least_stolen(&[]).is_empty());
}

#[test]
fn scaling_to_the_reference_speed_takes_the_probe_out() {
    use perfbench::timing::{at_reference, REFERENCE_PROBE_NS};
    assert!(close(at_reference(0.5, REFERENCE_PROBE_NS), 0.5));
    // Work timed while the host ran at half speed counts half.
    assert!(close(at_reference(0.5, 2.0 * REFERENCE_PROBE_NS), 0.25));
}
