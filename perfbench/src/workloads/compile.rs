//! `compile`: staged compiles `open → search → train → check → codegen`
//! of the anomaly-detection app, each followed by static analysis of
//! its artifact. The optimizer, training, the core session and the
//! analyzer do the work; serving stays idle apart from the artifact
//! reload check.
//!
//! A run compiles one fixed app, over one NSL-KDD-like dataset, again
//! and again with the same compiler seed, so every compile does exactly
//! the same work: the same candidates, evaluated in the same order.
//! What the search explores, and so how long a compile takes, depends
//! strongly on the data it is given (0.9–2.5 s on a 2-core host across
//! datasets), so the data is configuration, like the budgets below; the
//! run seed draws the packets the artifact reload check serves.
//!
//! The search runs on one thread (`parallel: false`): the four family
//! searches on their own threads would share two cores on a 2-vCPU host
//! and time the scheduler. Each candidate evaluation, and each other
//! stage, is timed in every compile between two runs of the speed probe
//! ([`probe_ns`]) and scaled to the reference host speed by their mean;
//! a piece's figure is its median over the run's compiles, and
//! `compile_s` is the sum of those.

use super::{overhead, Outcome, Picker, RunSpec};
use homunculus_core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus_core::pipeline::{CompiledArtifact, CompilerOptions};
use homunculus_core::session::{CompileEvent, Compiler};
use homunculus_datasets::nslkdd::NslKddGenerator;
use homunculus_ml::tensor::Matrix;
use homunculus_runtime::{Deployment, TenantBatch};
use perfbench::stats::{median, tail, Tail};
use perfbench::timing::{at_reference, probe_ns};
use perfbench::trace::{SpanId, Tracer};
use serde_json::{json, ToJson};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Training samples of the AD app.
const SAMPLES: usize = 4_000;
/// BO evaluations per (model, family) pair.
const BO_BUDGET: usize = 20;
/// Samples each search evaluation trains on (stratified subsample).
const SEARCH_SAMPLE_CAP: usize = 1_200;
/// Training epochs per candidate evaluation and for the winner.
const TRAIN_EPOCHS: usize = 10;
const FINAL_EPOCHS: usize = 30;
/// Generator seed of the app's dataset.
const APP_SEED: u64 = 1_000;
/// The compiler's own seed: configuration, like the budgets above.
const COMPILER_SEED: u64 = 0;
/// Fewest compiles a run (or half of a traced run) makes.
const MIN_COMPILES: usize = 3;
/// Rows served by the artifact reload check.
const CHECK_ROWS: usize = 1_024;

/// Span names of the timed stages besides the search, analyzer last.
const STAGES: [&str; 5] = [
    "core.session.open",
    "core.session.train",
    "core.session.check",
    "core.session.codegen",
    "analysis.analyze",
];

struct Setup {
    platform: Platform,
    /// Packets the artifact reload check serves.
    packets: Matrix,
    generate_s: f64,
}

fn options() -> CompilerOptions {
    CompilerOptions {
        bo_budget: BO_BUDGET,
        train_epochs: TRAIN_EPOCHS,
        final_epochs: FINAL_EPOCHS,
        sample_cap: Some(SEARCH_SAMPLE_CAP),
        seed: COMPILER_SEED,
        parallel: false,
        ..CompilerOptions::default()
    }
}

fn setup(seed: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let dataset = NslKddGenerator::new(APP_SEED).generate(SAMPLES);
    let generate_s = start.elapsed().as_secs_f64();
    let features = dataset.features();
    let mut picker = Picker::new(seed, 0xc0);
    let picks: Vec<usize> = (0..CHECK_ROWS)
        .map(|_| picker.below(features.rows()))
        .collect();
    let packets = Matrix::from_fn(CHECK_ROWS, features.cols(), |r, c| features[(picks[r], c)]);
    // No algorithm named: the search covers all four default families.
    let spec = ModelSpec::builder("ad")
        .optimization_metric(Metric::F1)
        .data(dataset)
        .build()
        .map_err(|e| e.to_string())?;
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(spec).map_err(|e| e.to_string())?;
    Ok(Setup {
        platform,
        packets,
        generate_s,
    })
}

/// One compile's measurements. Seconds are at the reference host speed
/// except `raw_s`.
struct Compiled {
    /// Wall seconds of the compile, probes left out.
    raw_s: f64,
    /// Seconds of each of [`STAGES`].
    stages: [f64; 5],
    /// The search in pieces: each candidate evaluation, timed from the
    /// end of the previous one's probe (the first from the start of the
    /// search), then the rest of the search after the last.
    search: Vec<f64>,
    /// The family of each evaluation, in order.
    families: Vec<Algorithm>,
    feasible_share: f64,
    artifact: CompiledArtifact,
    ok: bool,
}

impl Compiled {
    /// Whether `other` evaluated the same candidates and chose the same
    /// winner, as a compile of identical input must.
    fn same_work(&self, other: &Compiled) -> bool {
        self.families == other.families
            && self.artifact.best().objective == other.artifact.best().objective
            && self.artifact.code() == other.artifact.code()
    }
}

/// Closes a stage span that started at `start` and returns its seconds.
fn stage(
    tracer: &mut Tracer,
    name: &'static str,
    root: SpanId,
    request: u64,
    start: Instant,
) -> f64 {
    let end = Instant::now();
    tracer.record(name, Some(root), request, start, end);
    (end - start).as_secs_f64()
}

/// Scales pieces of work timed back to back, each followed by a speed
/// probe, by the mean of the probes on either side of the piece; the
/// first piece's earlier probe is taken when the scale is made.
struct Scale {
    last_probe: f64,
    /// Raw seconds of the pieces so far.
    raw_s: f64,
}

impl Scale {
    fn new() -> Scale {
        Scale {
            last_probe: probe_ns(),
            raw_s: 0.0,
        }
    }

    /// A piece of `seconds`, followed by a probe of `probe_ns`, at the
    /// reference host speed.
    fn piece(&mut self, seconds: f64, probe_ns: f64) -> f64 {
        let scaled = at_reference(seconds, (self.last_probe + probe_ns) / 2.0);
        self.last_probe = probe_ns;
        self.raw_s += seconds;
        scaled
    }
}

fn compile_once(setup: &Setup, request: u64, tracer: &mut Tracer) -> Result<Compiled, String> {
    let err = |e: homunculus_core::CoreError| e.to_string();
    // (family, end of the evaluation, probe ns, end of the probe)
    type Evaluated = (Algorithm, Instant, f64, Instant);
    let evaluated: Arc<Mutex<Vec<Evaluated>>> = Arc::default();
    let log = Arc::clone(&evaluated);
    let observer = move |event: &CompileEvent| {
        if let CompileEvent::CandidateEvaluated { algorithm, .. } = event {
            let at = Instant::now();
            let probe = probe_ns();
            log.lock().expect("observer log poisoned").push((
                *algorithm,
                at,
                probe,
                Instant::now(),
            ));
        }
    };
    let mut scale = Scale::new();
    let mut stages = [0.0; 5];
    let start = Instant::now();
    let root = tracer.open("compile", None, request);
    let session = Compiler::new(options())
        .observe(Arc::new(observer))
        .open(&setup.platform)
        .map_err(err)?;
    stages[0] = scale.piece(stage(tracer, STAGES[0], root, request, start), probe_ns());

    let search_start = Instant::now();
    let searched = session.search().map_err(err)?;
    let search_end = Instant::now();
    let search_probe = probe_ns();
    tracer.record(
        "core.session.search",
        Some(root),
        request,
        search_start,
        search_end,
    );
    tracer.count("optimizer.evaluations", searched.evaluations() as u64);
    let events = evaluated.lock().expect("observer log poisoned").clone();
    let mut search = Vec::with_capacity(events.len() + 1);
    let mut previous = search_start;
    for &(_, at, probe, probed) in &events {
        search.push(scale.piece((at - previous).as_secs_f64(), probe));
        previous = probed;
    }
    search.push(scale.piece((search_end - previous).as_secs_f64(), search_probe));
    let fractions: Vec<f64> = searched
        .searches()
        .iter()
        .flat_map(|model| model.runs())
        .filter_map(|(_, history)| history.as_ref().ok())
        .map(|history| history.feasible_fraction())
        .collect();
    let feasible_share = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;

    let t = Instant::now();
    let trained = searched.train().map_err(err)?;
    stages[1] = scale.piece(stage(tracer, STAGES[1], root, request, t), probe_ns());
    let t = Instant::now();
    let feasible = trained.check().map_err(err)?;
    stages[2] = scale.piece(stage(tracer, STAGES[2], root, request, t), probe_ns());
    let t = Instant::now();
    let artifact = feasible.codegen().map_err(err)?;
    stages[3] = scale.piece(stage(tracer, STAGES[3], root, request, t), probe_ns());
    let t = Instant::now();
    let analysis = homunculus_analysis::analyze_artifact(&artifact.to_json());
    stages[4] = scale.piece(stage(tracer, STAGES[4], root, request, t), probe_ns());
    tracer.close(root);

    let reload_ok = tracer.span("core.artifact.reload_hjb1", None, request, || {
        reload_serves_identically(&artifact, &setup.packets)
    })?;
    Ok(Compiled {
        raw_s: scale.raw_s,
        stages,
        search,
        families: events.iter().map(|&(family, ..)| family).collect(),
        feasible_share,
        ok: analysis.error_count() == 0 && reload_ok && !artifact.is_partial(),
        artifact,
    })
}

/// Serves `packets` through every model of the artifact, before and
/// after an `HJB1` encode/decode, and reports whether the verdicts agree.
fn reload_serves_identically(
    artifact: &CompiledArtifact,
    packets: &Matrix,
) -> Result<bool, String> {
    let reloaded =
        CompiledArtifact::from_bin_bytes(&artifact.to_bin_bytes()).map_err(|e| e.to_string())?;
    let serve = |artifact: &CompiledArtifact| -> Result<Vec<Vec<usize>>, String> {
        let deployment = artifact
            .build_deployment(Deployment::builder().workers(1))
            .map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for report in artifact.reports() {
            let tenant = deployment
                .tenant_id(&report.name)
                .ok_or("deployed artifact lost a tenant")?;
            let ticket = deployment
                .submit(TenantBatch::new(tenant, packets.clone()))
                .map_err(|e| e.to_string())?;
            out.push(ticket.wait().into_vec());
        }
        deployment.shutdown();
        Ok(out)
    };
    Ok(serve(artifact)? == serve(&reloaded)?)
}

/// What a run of compiles measured.
struct Compiles {
    compiles: Vec<Compiled>,
    /// Seconds of each set-up, and of the dataset generation in it.
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
}

/// Sets the app up afresh and compiles it, until `budget` has passed
/// and at least [`MIN_COMPILES`] compiles are done, tallying each into
/// `outcome`. Set-up takes milliseconds, so it is repeated with every
/// compile, and its times spread over the run like the compiles. A
/// compile that did other work than the first counts as failed and is
/// left out of the figures.
fn compile_for(
    seed: u64,
    budget: Duration,
    first_request: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Compiles, String> {
    let start = Instant::now();
    let mut run = Compiles {
        compiles: Vec::new(),
        setup_s: Vec::new(),
        generate_s: Vec::new(),
    };
    let mut request = first_request;
    while run.compiles.len() < MIN_COMPILES || start.elapsed() < budget {
        let t = Instant::now();
        let setup = setup(seed)?;
        run.setup_s.push(t.elapsed().as_secs_f64());
        run.generate_s.push(setup.generate_s);
        let compiled = compile_once(&setup, request, tracer)?;
        request += 1;
        let same = run
            .compiles
            .first()
            .is_none_or(|first| first.same_work(&compiled));
        outcome.tally(compiled.ok && same);
        if same {
            run.compiles.push(compiled);
        }
    }
    Ok(run)
}

/// Median costs, over a run's compiles, of one compile's parts, at the
/// reference host speed.
struct Costs {
    /// Each piece of the search (see [`Compiled::search`]).
    search: Vec<f64>,
    /// Each of [`STAGES`].
    stages: [f64; 5],
}

impl Costs {
    fn of(compiles: &[Compiled]) -> Costs {
        let piece =
            |f: &dyn Fn(&Compiled) -> f64| median(&compiles.iter().map(f).collect::<Vec<_>>());
        Costs {
            search: (0..compiles[0].search.len())
                .map(|i| piece(&|c| c.search[i]))
                .collect(),
            stages: std::array::from_fn(|s| piece(&|c| c.stages[s])),
        }
    }

    fn search_s(&self) -> f64 {
        self.search.iter().sum()
    }

    fn compile_s(&self) -> f64 {
        self.search_s() + self.stages.iter().sum::<f64>()
    }

    /// Candidate evaluations per second of search.
    fn evals_per_s(&self) -> f64 {
        self.evaluations().len() as f64 / self.search_s()
    }

    /// Seconds of each candidate evaluation.
    fn evaluations(&self) -> &[f64] {
        &self.search[..self.search.len() - 1]
    }

    /// Median and tail of the candidate evaluations, in µs.
    fn latency(&self) -> Result<Tail, String> {
        let micros: Vec<f64> = self.evaluations().iter().map(|s| s * 1e6).collect();
        tail(&micros).ok_or("too few candidate evaluations".into())
    }
}

fn latency_note(latency: &Tail) -> serde_json::Value {
    json!({
        "what": "one BO candidate evaluation at the reference host speed",
        "samples": latency.n,
        "tail_percentile": latency.tail_pct,
        "tail_us": latency.tail,
    })
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mut outcome = Outcome::new();
    if !spec.trace {
        let run = compile_for(spec.seed, spec.seconds, 0, &mut Tracer::off(), &mut outcome)?;
        let compiles = &run.compiles;
        let costs = Costs::of(compiles);
        let latency = costs.latency()?;
        outcome.metric("compile_s", costs.compile_s(), "s");
        outcome.metric("objective", compiles[0].artifact.best().objective, "f1");
        outcome.metric("ops_per_s", costs.evals_per_s(), "1/s");
        outcome.metric("latency_p50_us", latency.p50, "us");
        outcome.note("compiles", json!(compiles.len()));
        outcome.note(
            "raw_compile_s",
            json!(median(
                &compiles.iter().map(|c| c.raw_s).collect::<Vec<_>>()
            )),
        );
        outcome.note(
            "winner",
            json!(compiles[0].artifact.best().algorithm.name()),
        );
        outcome.note(
            "stage_s",
            json!({
                "search": costs.search_s(),
                "open": costs.stages[0],
                "train": costs.stages[1],
                "check": costs.stages[2],
                "codegen": costs.stages[3],
                "analyze": costs.stages[4],
            }),
        );
        outcome.note("ops", json!("BO candidate evaluations"));
        outcome.note("latency", latency_note(&latency));
        outcome.common(median(&run.setup_s));
        return Ok(outcome);
    }

    let plain = compile_for(
        spec.seed,
        spec.halves(),
        0,
        &mut Tracer::off(),
        &mut outcome,
    )?;
    let mut tracer = Tracer::new(spec.origin);
    let traced = compile_for(
        spec.seed,
        spec.halves(),
        plain.compiles.len() as u64,
        &mut tracer,
        &mut outcome,
    )?;
    let costs = Costs::of(&traced.compiles);
    let plain_costs = Costs::of(&plain.compiles);
    let first = &traced.compiles[0];
    let best = first.artifact.best();
    outcome.metric("core.session.search_s", costs.search_s(), "s");
    outcome.metric("core.session.train_s", costs.stages[1], "s");
    outcome.metric("core.session.check_s", costs.stages[2], "s");
    outcome.metric("core.session.codegen_s", costs.stages[3], "s");
    outcome.metric("analysis.analyze_s", costs.stages[4], "s");
    outcome.metric(
        "optimizer.evaluations",
        costs.evaluations().len() as f64,
        "count",
    );
    outcome.metric("optimizer.evals_per_s", costs.evals_per_s(), "1/s");
    outcome.metric("optimizer.feasible_share", first.feasible_share, "share");
    outcome.metric(
        "backends.code_bytes",
        first.artifact.code().len() as f64,
        "bytes",
    );
    outcome.metric("backends.cus", best.estimate.resources.get("cus"), "count");
    outcome.metric("backends.mus", best.estimate.resources.get("mus"), "count");
    let generated = [plain.generate_s, traced.generate_s].concat();
    outcome.metric("datasets.generate_s", median(&generated), "s");
    let latency = plain_costs.latency()?;
    outcome.metric("harness.latency_tail_us", latency.tail, "us");
    outcome.note("latency", latency_note(&latency));
    outcome.metric(
        "harness.trace_overhead",
        overhead(plain_costs.compile_s(), costs.compile_s()),
        "ratio",
    );
    outcome.tracer = Some(tracer);
    Ok(outcome)
}
