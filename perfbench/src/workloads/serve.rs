//! `serve_bulk` and `serve_burst`: one `Deployment` serving the paper's
//! three hand-tuned baselines (Base-AD, Base-TC, Base-BD).
//!
//! - `serve_bulk` is a closed loop: one thread keeps two 1024-row
//!   tickets in flight per tenant, so per-row classify kernels dominate
//!   and admission is paid once per 1024 rows.
//! - `serve_burst` is an open loop: one thread sends 16-row tickets
//!   round-robin at a fixed offered rate and polls for their verdicts,
//!   so admission, ring dispatch and completion dominate. Latency runs
//!   from each ticket's due time to its verdicts, so a generator stall
//!   is charged to every ticket it delays.
//!
//! The closed loop's thread mostly blocks on tickets, so `serve_bulk`
//! runs a worker per core; on a virtual machine a single worker's speed
//! depends on which virtual CPU it lands on, and a worker on each
//! averages them. The open loop's thread spins, so `serve_burst` leaves
//! it a core of its own.

use super::{lowering_s, overhead, repeated_setup, Outcome, Picker, RunSpec, WARMUP};
use homunculus_backends::model::{DnnIr, ModelIr};
use homunculus_bench::{
    ad_dataset, bd_flows, tc_dataset, train_baseline, train_bd_baseline, Application, BD_TEST_FLOWS,
};
use homunculus_core::alchemy::Metric;
use homunculus_dataplane::histogram::FlowmarkerConfig;
use homunculus_datasets::dataset::Dataset;
use homunculus_datasets::p2p::{flowmarker_dataset, P2pTrafficGenerator};
use homunculus_ml::metrics::{f1_binary, f1_macro};
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::quantize::FixedPoint;
use homunculus_ml::tensor::Matrix;
use homunculus_runtime::{
    classify_rows, Compile, CompiledPipeline, Deployment, Scratch, TenantBatch, TenantId, Ticket,
};
use perfbench::stats::{due_ns, least_stolen, median, percentile, tail, OpenLoopSample, Tail};
use perfbench::timing::{clock_pair_ns, net_ns, per_call_ns};
use perfbench::trace::Tracer;
use serde_json::json;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which loop drives the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed loop of 1024-row tickets.
    Bulk,
    /// Open loop of 16-row tickets at [`OFFERED_TICKETS_PER_S`].
    Burst,
}

impl Mode {
    fn ticket_rows(self) -> usize {
        match self {
            Mode::Bulk => 1_024,
            Mode::Burst => 16,
        }
    }

    /// Distinct tickets per tenant; both modes cover 1024 rows per
    /// tenant at least once, so the rung probes use the same packets.
    fn tickets(self) -> usize {
        match self {
            Mode::Bulk => 8,
            Mode::Burst => 64,
        }
    }
}

/// Offered load of `serve_burst`, kept well below the knee. On a
/// 2-vCPU x86-64 host `perfbench capacity` measures about 72k tickets/s
/// for this mix, but with the generator on one core and a worker on the
/// other, offering half of that put the median on the knee (27 µs to
/// 1.6 ms from run to run). Far below it the worker idles long enough
/// between tickets to sleep, and the median followed how quickly the
/// host woke it: at 10 000 tickets/s it moved by a quarter across five
/// runs, at this rate by 4%.
pub const OFFERED_TICKETS_PER_S: f64 = 20_000.0;

/// 1024-row tickets kept in flight per tenant by the closed loop.
const IN_FLIGHT: usize = 2;
/// Measurement window of both loops; figures are taken over the
/// windows that lost least CPU time to the hypervisor.
const WINDOW: Duration = Duration::from_millis(500);
/// Tickets between `stats_snapshot` samples in a traced run.
const SNAPSHOT_EVERY: u64 = 32;
/// Rows the rung probes classify per tenant.
const PROBE_ROWS: usize = 1_024;
/// Calibrated batches per tenant for `runtime.pipeline.row_ns`.
const ROW_BATCHES: usize = 400;
/// Timed `classify_batch` calls per tenant for the block rate.
const BLOCK_CALLS: usize = 21;

/// The Taurus fixed-point format every served model runs in.
pub fn format() -> FixedPoint {
    FixedPoint::taurus_default()
}

struct Tenant {
    name: &'static str,
    id: TenantId,
    ir: ModelIr,
    pipeline: CompiledPipeline,
    objective: f64,
    tickets: Vec<Matrix>,
    reference: Vec<Vec<usize>>,
    probe: Matrix,
}

struct Setup {
    deployment: Deployment,
    tenants: Vec<Tenant>,
    workers: usize,
}

/// Seed of the data the baselines are trained on and of their
/// hand-tuned training. The deployed models are part of the system
/// under test, so they are the same on every run; the run seed
/// generates the traffic they serve.
pub const TRAIN_SEED: u64 = 0;

/// A trained baseline with the labelled traffic it serves.
struct Served {
    name: &'static str,
    application: Application,
    ir: ModelIr,
    normalizer: Normalizer,
    traffic: Dataset,
}

/// Trains the three baselines and generates their traffic.
fn baselines(seed: u64) -> Result<Vec<Served>, String> {
    let err = |e: homunculus_core::CoreError| e.to_string();
    let config = FlowmarkerConfig::paper_reduced();
    let (bd_train, _) = bd_flows(TRAIN_SEED);
    let bd_traffic = P2pTrafficGenerator::new(seed).generate_flows(BD_TEST_FLOWS);
    let trained = [
        (
            "base-ad",
            Application::Ad,
            train_baseline(Application::Ad, &ad_dataset(TRAIN_SEED), TRAIN_SEED).map_err(err)?,
            ad_dataset(seed),
        ),
        (
            "base-tc",
            Application::Tc,
            train_baseline(Application::Tc, &tc_dataset(TRAIN_SEED), TRAIN_SEED).map_err(err)?,
            tc_dataset(seed),
        ),
        (
            "base-bd",
            Application::Bd,
            train_bd_baseline(&bd_train, config, TRAIN_SEED).map_err(err)?,
            flowmarker_dataset(&bd_traffic, config),
        ),
    ];
    Ok(trained
        .into_iter()
        .map(|(name, application, b, traffic)| Served {
            name,
            application,
            ir: ModelIr::Dnn(DnnIr::from_mlp(&b.net)),
            normalizer: b.normalizer,
            traffic,
        })
        .collect())
}

/// Rows of `data` picked by `picker`: a `rows`-row matrix and its labels.
pub fn pick_rows(data: &Dataset, rows: usize, picker: &mut Picker) -> (Matrix, Vec<usize>) {
    let x = data.features();
    let picks: Vec<usize> = (0..rows).map(|_| picker.below(x.rows())).collect();
    let labels = picks.iter().map(|&p| data.labels()[p]).collect();
    (
        Matrix::from_fn(rows, x.cols(), |r, c| x[(picks[r], c)]),
        labels,
    )
}

/// `x` with the normalizer applied to every row, as the deployment does.
pub fn normalized(x: &Matrix, normalizer: &Normalizer) -> Matrix {
    let mut rows: Vec<Vec<f32>> = x.iter_rows().map(<[f32]>::to_vec).collect();
    for row in &mut rows {
        normalizer.apply(row);
    }
    Matrix::from_rows(&rows).expect("rows keep their width")
}

/// The application's objective (F1, or macro-F1 for traffic
/// classification) of `predicted` against `labels`.
pub fn objective(
    application: Application,
    classes: usize,
    labels: &[usize],
    predicted: &[usize],
) -> Result<f64, String> {
    match application.metric() {
        Metric::MacroF1 => f1_macro(classes, labels, predicted),
        _ => f1_binary(labels, predicted),
    }
    .map_err(|e| e.to_string())
}

fn setup(seed: u64, mode: Mode) -> Result<Setup, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = match mode {
        Mode::Bulk => cores,
        Mode::Burst => cores.saturating_sub(1).max(1),
    };
    let deployment = Deployment::builder().workers(workers).build();
    let mut tenants = Vec::new();
    for (stream, served) in baselines(seed)?.into_iter().enumerate() {
        let Served {
            name,
            application,
            ir,
            normalizer,
            traffic,
        } = served;
        let id = deployment
            .add_model(name, &ir, format(), Some(normalizer.clone()))
            .map_err(|e| e.to_string())?;
        let pipeline = ir.compile(format()).map_err(|e| e.to_string())?;
        let mut picker = Picker::new(seed, stream as u64);
        let (tickets, labels): (Vec<Matrix>, Vec<Vec<usize>>) = (0..mode.tickets())
            .map(|_| pick_rows(&traffic, mode.ticket_rows(), &mut picker))
            .unzip();
        let reference: Vec<Vec<usize>> = tickets
            .iter()
            .map(|t| classify_rows(&pipeline, &normalized(t, &normalizer)))
            .collect();
        let objective = objective(
            application,
            traffic.n_classes(),
            &labels.concat(),
            &reference.concat(),
        )?;
        let cols = traffic.features().cols();
        let rows = mode.ticket_rows();
        let probe = normalized(
            &Matrix::from_fn(PROBE_ROWS, cols, |r, c| tickets[r / rows][(r % rows, c)]),
            &normalizer,
        );
        tenants.push(Tenant {
            name,
            id,
            ir,
            pipeline,
            objective,
            tickets,
            reference,
            probe,
        });
    }
    Ok(Setup {
        deployment,
        tenants,
        workers,
    })
}

/// One measured stretch of a serving loop.
#[derive(Debug, Clone, Copy)]
struct Window {
    rows: u64,
    seconds: f64,
    /// CPU ticks the hypervisor stole meanwhile.
    steal: u64,
}

/// What a serving loop measured.
#[derive(Default)]
struct LoopStats {
    /// Consecutive windows after warm-up.
    windows: Vec<Window>,
    /// Per-ticket `(window, latency µs)` after warm-up.
    latency_us: Vec<(usize, f64)>,
    /// `Verdicts::wait_ns` in µs (after warm-up).
    wait_us: Vec<f64>,
    /// `submit` call time in µs, clock-pair cost removed.
    submit_us: Vec<f64>,
    /// Generator lateness in µs (open loop).
    late_us: Vec<f64>,
    /// Largest `queued_rows` seen by `stats_snapshot` (traced runs).
    queued_rows_max: u64,
    /// Tickets and rows completed in total.
    tickets: u64,
    total_rows: u64,
    /// Submissions refused with an error.
    refused: u64,
}

impl LoopStats {
    /// The windows the figures are taken over (see [`least_stolen`]).
    fn kept(&self) -> Vec<Window> {
        let steal: Vec<u64> = self.windows.iter().map(|w| w.steal).collect();
        self.windows
            .iter()
            .zip(least_stolen(&steal))
            .filter_map(|(w, keep)| keep.then_some(*w))
            .collect()
    }

    /// Packets per second over the kept windows: the median window for
    /// the closed loop; all of them together for the open loop, whose
    /// rate is the offered load unless the deployment falls behind.
    fn pkt_per_s(&self, mode: Mode) -> Result<f64, String> {
        let kept = self.kept();
        if kept.is_empty() {
            return Err("the run was too short for a measured window".into());
        }
        Ok(match mode {
            Mode::Bulk => median(
                &kept
                    .iter()
                    .map(|w| w.rows as f64 / w.seconds)
                    .collect::<Vec<_>>(),
            ),
            Mode::Burst => {
                kept.iter().map(|w| w.rows).sum::<u64>() as f64
                    / kept.iter().map(|w| w.seconds).sum::<f64>()
            }
        })
    }

    /// Latencies in µs of the tickets in kept windows.
    fn latency(&self) -> Vec<f64> {
        let steal: Vec<u64> = self.windows.iter().map(|w| w.steal).collect();
        let keep = least_stolen(&steal);
        self.latency_us
            .iter()
            .filter(|(w, _)| keep.get(*w).copied().unwrap_or(false))
            .map(|&(_, us)| us)
            .collect()
    }
}

fn submit(
    setup: &Setup,
    tenant: usize,
    ticket: usize,
) -> (Instant, Instant, Result<Ticket, String>) {
    let t = &setup.tenants[tenant];
    let batch = TenantBatch::new(t.id, t.tickets[ticket].clone());
    let start = Instant::now();
    let result = setup.deployment.submit(batch).map_err(|e| e.to_string());
    (start, Instant::now(), result)
}

struct Flight {
    tenant: usize,
    ticket: usize,
    request: u64,
    handle: Ticket,
    submitted: (Instant, Instant),
}

fn closed_loop(
    setup: &Setup,
    budget: Duration,
    first_request: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> LoopStats {
    let pair_ns = clock_pair_ns();
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let (warm, end) = (start + WARMUP, start + budget.max(WARMUP * 2));
    let mut request = first_request;
    let mut next = vec![0usize; setup.tenants.len()];
    let mut queue = VecDeque::new();
    let mut launch = |tenant: usize,
                      queue: &mut VecDeque<Flight>,
                      stats: &mut LoopStats,
                      outcome: &mut Outcome| {
        let ticket = next[tenant] % setup.tenants[tenant].tickets.len();
        next[tenant] += 1;
        let (s, e, result) = submit(setup, tenant, ticket);
        match result {
            Ok(handle) => {
                queue.push_back(Flight {
                    tenant,
                    ticket,
                    request,
                    handle,
                    submitted: (s, e),
                });
                request += 1;
            }
            Err(_) => {
                stats.refused += 1;
                outcome.tally(false);
            }
        }
    };
    for _ in 0..IN_FLIGHT {
        for tenant in 0..setup.tenants.len() {
            launch(tenant, &mut queue, &mut stats, outcome);
        }
    }
    // (start, rows, steal ticks at start) of the window being filled.
    let mut window = (warm, 0u64, perfbench::steal_ticks());
    while let Some(flight) = queue.pop_front() {
        let wait_start = Instant::now();
        let verdicts = flight.handle.wait();
        let now = Instant::now();
        let tenant = &setup.tenants[flight.tenant];
        outcome.tally(verdicts.as_slice() == tenant.reference[flight.ticket].as_slice());
        stats.tickets += 1;
        stats.total_rows += verdicts.len() as u64;
        if tracer.enabled() {
            let root = tracer.record("ticket", None, flight.request, flight.submitted.0, now);
            tracer.record(
                "runtime.deploy.submit",
                Some(root),
                flight.request,
                flight.submitted.0,
                flight.submitted.1,
            );
            tracer.record(
                "runtime.deploy.wait",
                Some(root),
                flight.request,
                wait_start,
                now,
            );
            if stats.tickets % SNAPSHOT_EVERY == 0 {
                let snapshot = tracer.span(
                    "runtime.deploy.stats_snapshot",
                    None,
                    flight.request,
                    || setup.deployment.stats_snapshot(),
                );
                stats.queued_rows_max = stats.queued_rows_max.max(snapshot.queued_rows);
            }
        }
        if flight.submitted.0 >= warm {
            let submit = flight.submitted.1 - flight.submitted.0;
            stats.submit_us.push(net_ns(submit, pair_ns) / 1e3);
            stats.wait_us.push(verdicts.wait_ns as f64 / 1e3);
            stats
                .latency_us
                .push((stats.windows.len(), verdicts.wait_ns as f64 / 1e3));
        }
        if now >= warm {
            window.1 += verdicts.len() as u64;
            let span = now - window.0;
            if span >= WINDOW {
                let steal = perfbench::steal_ticks();
                stats.windows.push(Window {
                    rows: window.1,
                    seconds: span.as_secs_f64(),
                    steal: steal.saturating_sub(window.2),
                });
                window = (now, 0, steal);
            }
        }
        if now < end {
            launch(flight.tenant, &mut queue, &mut stats, outcome);
        }
    }
    stats
}

/// A submitted open-loop ticket awaiting its verdicts.
struct Pending {
    k: u64,
    due: Instant,
    submitted: (Instant, Instant),
    handle: Ticket,
}

/// The open loop runs on one thread that both sends tickets when they
/// fall due and polls outstanding ones for completion, so the harness
/// adds a single busy thread next to the deployment's workers.
fn open_loop(
    setup: &Setup,
    budget: Duration,
    tickets_per_s: f64,
    first_request: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> LoopStats {
    let pair_ns = clock_pair_ns();
    let period_ns = (1e9 / tickets_per_s) as u64;
    let total = budget.max(WARMUP * 2).as_nanos() as u64 / period_ns;
    let n = setup.tenants.len() as u64;
    let slot = |k: u64| {
        let tenant = (k % n) as usize;
        (
            tenant,
            (k / n) as usize % setup.tenants[tenant].tickets.len(),
        )
    };
    let mut stats = LoopStats::default();
    // Sized up front so sample storage adds the same resident memory
    // on every run.
    let mut samples = Vec::with_capacity(total as usize);
    stats.submit_us.reserve(total as usize);
    stats.wait_us.reserve(total as usize);
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let origin = Instant::now();
    let at = |i: Instant| i.saturating_duration_since(origin).as_nanos() as u64;
    // Steal ticks at each window boundary from the end of warm-up on;
    // windows are by due time.
    let mut marks = Vec::new();
    let mut next_mark = origin + WARMUP;
    let mut k = 0u64;
    while k < total || !pending.is_empty() {
        if Instant::now() >= next_mark {
            marks.push(perfbench::steal_ticks());
            next_mark += WINDOW;
        }
        let due = origin + Duration::from_nanos(due_ns(k, period_ns));
        if k < total && Instant::now() >= due {
            let (tenant, ticket) = slot(k);
            let (s, e, result) = submit(setup, tenant, ticket);
            match result {
                Ok(handle) => pending.push_back(Pending {
                    k,
                    due,
                    submitted: (s, e),
                    handle,
                }),
                Err(_) => {
                    stats.refused += 1;
                    outcome.tally(false);
                }
            }
            k += 1;
            continue;
        }
        let Some(index) = pending.iter().position(|p| p.handle.is_done()) else {
            std::hint::spin_loop();
            continue;
        };
        let done = Instant::now();
        let ticket_done = pending.remove(index).expect("index is in range");
        let request = first_request + ticket_done.k;
        let (tenant, ticket) = slot(ticket_done.k);
        let verdicts = ticket_done.handle.wait();
        outcome.tally(verdicts.as_slice() == setup.tenants[tenant].reference[ticket].as_slice());
        stats.tickets += 1;
        stats.total_rows += verdicts.len() as u64;
        let (s, e) = ticket_done.submitted;
        if tracer.enabled() {
            let root = tracer.record("ticket", None, request, ticket_done.due, done);
            tracer.record("runtime.deploy.submit", Some(root), request, s, e);
            tracer.record("runtime.deploy.wait", Some(root), request, e, done);
            if stats.tickets % SNAPSHOT_EVERY == 0 {
                let snapshot = tracer.span("runtime.deploy.stats_snapshot", None, request, || {
                    setup.deployment.stats_snapshot()
                });
                stats.queued_rows_max = stats.queued_rows_max.max(snapshot.queued_rows);
            }
        }
        if ticket_done.due >= origin + WARMUP {
            stats.submit_us.push(net_ns(e - s, pair_ns) / 1e3);
            stats.wait_us.push(verdicts.wait_ns as f64 / 1e3);
            samples.push((
                verdicts.len() as u64,
                OpenLoopSample {
                    due_ns: at(ticket_done.due),
                    sent_ns: at(s),
                    done_ns: at(done),
                },
            ));
        }
    }
    let window_of = |sample: &OpenLoopSample| {
        ((sample.due_ns - WARMUP.as_nanos() as u64) / WINDOW.as_nanos() as u64) as usize
    };
    stats.windows = marks
        .windows(2)
        .map(|pair| Window {
            rows: 0,
            seconds: WINDOW.as_secs_f64(),
            steal: pair[1].saturating_sub(pair[0]),
        })
        .collect();
    for (rows, sample) in &samples {
        if let Some(window) = stats.windows.get_mut(window_of(sample)) {
            window.rows += rows;
        }
    }
    stats.latency_us = samples
        .iter()
        .map(|(_, s)| (window_of(s), s.latency_ns() as f64 / 1e3))
        .collect();
    stats.late_us = samples
        .iter()
        .map(|(_, s)| s.lateness_ns() as f64 / 1e3)
        .collect();
    stats
}

fn drive(
    setup: &Setup,
    mode: Mode,
    budget: Duration,
    first_request: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> LoopStats {
    match mode {
        Mode::Bulk => closed_loop(setup, budget, first_request, tracer, outcome),
        Mode::Burst => open_loop(
            setup,
            budget,
            OFFERED_TICKETS_PER_S,
            first_request,
            tracer,
            outcome,
        ),
    }
}

/// `runtime.pipeline.row_ns` and `runtime.batch.block_pkt_per_s` on the
/// tenants' probe packets: per-row `classify` in calibrated batches,
/// and single-thread `classify_batch` over the whole probe.
fn rungs(setup: &Setup, tracer: &mut Tracer) -> (f64, f64) {
    let mut row_ns = Vec::new();
    let mut block_s = 0.0;
    let mut rows = 0usize;
    for (i, tenant) in setup.tenants.iter().enumerate() {
        let probe = &tenant.probe;
        let mut scratch = Scratch::new();
        let samples = tracer.span("runtime.pipeline.classify", None, i as u64, || {
            per_call_ns(ROW_BATCHES, |r| {
                black_box(
                    tenant
                        .pipeline
                        .classify(black_box(probe.row(r % probe.rows())), &mut scratch),
                );
            })
        });
        row_ns.push(median(&samples));
        let calls: Vec<f64> = (0..BLOCK_CALLS)
            .map(|_| {
                tracer.span("runtime.batch.classify_batch", None, i as u64, || {
                    let t = Instant::now();
                    black_box(tenant.pipeline.classify_batch(black_box(probe), 1));
                    t.elapsed().as_secs_f64()
                })
            })
            .collect();
        block_s += median(&calls);
        rows += probe.rows();
    }
    (
        row_ns.iter().sum::<f64>() / row_ns.len() as f64,
        rows as f64 / block_s,
    )
}

/// Runs `serve_bulk` or `serve_burst`.
pub fn run(spec: &RunSpec, mode: Mode) -> Result<Outcome, String> {
    let mut outcome = Outcome::new();
    let (setup, setup_s) = repeated_setup(|| setup(spec.seed, mode))?;
    let objective =
        setup.tenants.iter().map(|t| t.objective).sum::<f64>() / setup.tenants.len() as f64;
    if !spec.trace {
        let stats = drive(
            &setup,
            mode,
            spec.seconds,
            0,
            &mut Tracer::off(),
            &mut outcome,
        );
        setup.deployment.shutdown();
        let latency = tail(&stats.latency()).ok_or("too few tickets for a latency tail")?;
        let irs: Vec<ModelIr> = setup.tenants.iter().map(|t| t.ir.clone()).collect();
        outcome.metric("compile_s", lowering_s(&irs), "s");
        outcome.metric("objective", objective, "f1");
        outcome.metric("ops_per_s", stats.pkt_per_s(mode)?, "1/s");
        outcome.metric("latency_p50_us", latency.p50, "us");
        outcome.note(
            "tenants",
            json!(setup.tenants.iter().map(|t| t.name).collect::<Vec<_>>()),
        );
        outcome.note("workers", json!(setup.workers));
        outcome.note(
            "compile",
            json!("lower the three baseline IRs into pipelines"),
        );
        outcome.note("ops", json!("packets"));
        outcome.note("latency", latency_note(mode, &latency));
        if mode == Mode::Burst {
            outcome.note("offered_tickets_per_s", json!(OFFERED_TICKETS_PER_S));
        }
        outcome.common(setup_s);
        return Ok(outcome);
    }

    let plain = drive(
        &setup,
        mode,
        spec.halves(),
        0,
        &mut Tracer::off(),
        &mut outcome,
    );
    let mut tracer = Tracer::new(spec.origin);
    setup.deployment.reset_stats();
    let first = plain.tickets + plain.refused;
    let traced = drive(
        &setup,
        mode,
        spec.halves(),
        first,
        &mut tracer,
        &mut outcome,
    );
    let snapshot = setup.deployment.stats_snapshot();
    setup.deployment.shutdown();
    let (row_ns, block_pps) = rungs(&setup, &mut tracer);
    tracer.count("runtime.deploy.tickets", traced.tickets);
    tracer.count("runtime.deploy.rows", traced.total_rows);
    if mode == Mode::Bulk {
        // The fleet layer has no workload of its own (see `fleet`); it
        // is measured here, after the serving loops, on the same seed.
        let first = first + traced.tickets + traced.refused;
        super::fleet::leg(spec.seed, first, &mut tracer, &mut outcome)?;
    }

    let packets: usize = snapshot.tenants.iter().map(|t| t.packets).sum();
    let classify_p50_ns = snapshot
        .tenants
        .iter()
        .map(|t| t.p50_ns as f64 * t.packets as f64)
        .sum::<f64>()
        / packets.max(1) as f64;
    let shares: Vec<f64> = snapshot.shares.iter().map(|s| s.observed_share).collect();
    let share_spread = shares.iter().cloned().fold(f64::MIN, f64::max)
        - shares.iter().cloned().fold(f64::MAX, f64::min);
    let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
    outcome.metric("runtime.pipeline.row_ns", row_ns, "ns");
    outcome.metric("runtime.batch.block_pkt_per_s", block_pps, "1/s");
    outcome.metric(
        "runtime.deploy.rung_ratio",
        plain.pkt_per_s(mode)? / (block_pps * setup.workers as f64),
        "ratio",
    );
    outcome.metric(
        "runtime.deploy.submit_p50_us",
        pct(&traced.submit_us, 50.0),
        "us",
    );
    outcome.metric(
        "runtime.deploy.submit_p99_us",
        pct(&traced.submit_us, 99.0),
        "us",
    );
    outcome.metric(
        "runtime.deploy.queued_rows_max",
        traced.queued_rows_max as f64,
        "count",
    );
    outcome.metric("runtime.deploy.wait_us", pct(&traced.wait_us, 50.0), "us");
    outcome.metric("runtime.deploy.classify_p50_ns", classify_p50_ns, "ns");
    outcome.metric("runtime.deploy.tickets", traced.tickets as f64, "count");
    outcome.metric("runtime.deploy.rows", traced.total_rows as f64, "count");
    outcome.metric("runtime.deploy.share_spread", share_spread, "share");
    outcome.metric(
        "runtime.deploy.refused",
        (plain.refused + traced.refused) as f64,
        "count",
    );
    if mode == Mode::Burst {
        outcome.metric("harness.gen_late_p99_us", pct(&plain.late_us, 99.0), "us");
    }
    if let Some(latency) = tail(&plain.latency()) {
        outcome.metric("harness.latency_tail_us", latency.tail, "us");
        outcome.note("latency", latency_note(mode, &latency));
    }
    // Both figures oriented as times: per-packet time for the closed
    // loop, median latency for the open loop.
    let trace_overhead = match mode {
        Mode::Bulk => overhead(1.0 / plain.pkt_per_s(mode)?, 1.0 / traced.pkt_per_s(mode)?),
        Mode::Burst => overhead(median(&plain.latency()), median(&traced.latency())),
    };
    outcome.metric("harness.trace_overhead", trace_overhead, "ratio");
    outcome.tracer = Some(tracer);
    Ok(outcome)
}

fn latency_note(mode: Mode, latency: &Tail) -> serde_json::Value {
    json!({
        "what": match mode {
            Mode::Bulk => "1024-row ticket, submit to verdicts",
            Mode::Burst => "16-row ticket, due time to verdicts",
        },
        "samples": latency.n,
        "tail_percentile": latency.tail_pct,
        "tail_us": latency.tail,
    })
}

/// Closed-loop capacity of this host for `serve_burst`'s 16-row tickets,
/// in tickets per second: the figure `OFFERED_TICKETS_PER_S` is set
/// against.
pub fn capacity(seed: u64, seconds: Duration) -> Result<f64, String> {
    let setup = setup(seed, Mode::Burst)?;
    let mut outcome = Outcome::new();
    let stats = closed_loop(&setup, seconds, 0, &mut Tracer::off(), &mut outcome);
    setup.deployment.shutdown();
    if outcome.failed > 0 {
        return Err(format!(
            "{} of {} tickets failed",
            outcome.failed, outcome.attempted
        ));
    }
    Ok(stats.pkt_per_s(Mode::Bulk)? / Mode::Burst.ticket_rows() as f64)
}
