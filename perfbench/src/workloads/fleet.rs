//! The fleet layer, measured in the traced run of `serve_bulk`: Base-AD
//! on every switch of a 48-switch leaf–spine fabric (`leaf_spine(36,
//! 12)`, one worker per switch), gating anomalies at the edge and
//! forwarding with re-tagging elsewhere. Four 512-row flows enter at
//! every edge switch, so edge load is balanced by the workload and edge
//! fairness measures dispatch. The per-switch deployments and hop
//! pipelining do the work.
//!
//! `fleet` is not a workload with end-to-end figures of its own. Its
//! 49 threads share the host's two cores, so a run times the scheduler
//! and the host's wake-up latency as much as the program: with these
//! flows a run's median moved by ±40% from one run to the next, and
//! with flows 32 times as large, by 16% within ten runs and by 30%
//! between two sets of runs half an hour apart, past any bound of at
//! most 25%.

use super::serve::{format, pick_rows, TRAIN_SEED};
use super::{Outcome, Picker};
use homunculus_backends::model::{DnnIr, ModelIr};
use homunculus_bench::{ad_dataset, train_baseline, Application};
use homunculus_datasets::dataset::Dataset;
use homunculus_datasets::nslkdd::NslKddGenerator;
use homunculus_fleet::{
    Fleet, FleetReport, FlowSpec, HopPolicy, RoutingPolicy, SwitchRole, Topology,
};
use homunculus_ml::preprocess::Normalizer;
use homunculus_runtime::{Compile, CompiledPipeline, Scratch};
use homunculus_sim::pktgen::{replay_path, LabeledSample};
use perfbench::stats::median;
use perfbench::trace::Tracer;
use serde_json::json;
use std::time::{Duration, Instant};

/// The measured fabric: 36 edge (leaf) and 12 spine switches.
const FABRIC: (usize, usize) = (36, 12);
/// The smallest fabric, for the scale-loss rung.
const RUNG4_FABRIC: (usize, usize) = (3, 1);
const FLOWS_PER_EDGE: usize = 4;
const FLOW_ROWS: usize = 512;
/// Labelled packets the flows are drawn from.
const TRAFFIC_SAMPLES: usize = 24_000;
/// Anomalous class, dropped at edge switches.
const GATE_CLASS: usize = 1;
const MODEL: &str = "base-ad";
/// Measured runs of the scale-loss rung.
const RUNG4_RUNS: usize = 9;
/// Time the leg spends in measured `Fleet::run`s, after one warm-up run.
const LEG: Duration = Duration::from_secs(3);

fn policy() -> RoutingPolicy {
    RoutingPolicy::uniform(HopPolicy::forward(MODEL))
        .with_role(SwitchRole::Edge, HopPolicy::gate(MODEL, GATE_CLASS))
}

/// What `sim::pktgen::replay_path` says a flow must yield.
struct Expected {
    delivered: usize,
    gated: usize,
    final_verdicts: Vec<Option<usize>>,
}

struct Setup {
    fleet: Fleet,
    flows: Vec<FlowSpec>,
    expected: Vec<Expected>,
    ir: ModelIr,
    normalizer: Normalizer,
    build_s: f64,
}

fn build_fleet(topology: Topology, ir: &ModelIr, normalizer: &Normalizer) -> Result<Fleet, String> {
    Fleet::builder(topology)
        .model(MODEL, ir, format(), Some(normalizer.clone()))
        .place_everywhere(MODEL)
        .workers(1)
        .build()
        .map_err(|e| e.to_string())
}

/// `FLOWS_PER_EDGE` flows entering at every edge switch, each to a
/// seeded other edge, with seeded packets.
fn make_flows(topology: &Topology, traffic: &Dataset, seed: u64) -> Vec<FlowSpec> {
    let edges = topology.edge_switches();
    let mut picker = Picker::new(seed, 0xf1);
    let mut flows = Vec::new();
    for (e, &src) in edges.iter().enumerate() {
        for _ in 0..FLOWS_PER_EDGE {
            let offset = 1 + picker.below(edges.len() - 1);
            let dst = edges[(e + offset) % edges.len()];
            let (rows, _) = pick_rows(traffic, FLOW_ROWS, &mut picker);
            flows.push(FlowSpec::new(flows.len() as u64, src, dst, rows));
        }
    }
    flows
}

/// The sequential reference for every flow. `replay_path` applies one
/// drop class on every hop, so a hop that only forwards reports its
/// verdict shifted past the model's classes, where it can never match
/// the gate class; the shift is undone on the way out.
fn expected(
    topology: &Topology,
    flows: &[FlowSpec],
    pipeline: &CompiledPipeline,
    normalizer: &Normalizer,
) -> Result<Vec<Expected>, String> {
    let classes = pipeline.n_classes();
    let mut scratch = Scratch::new();
    flows
        .iter()
        .map(|flow| {
            let path = topology
                .path(flow.src, flow.dst, flow.flow_id)
                .map_err(|e| e.to_string())?;
            let gates: Vec<bool> = path
                .iter()
                .map(|&id| topology.switch(id).role == SwitchRole::Edge)
                .collect();
            let stream: Vec<LabeledSample> = flow
                .packets
                .iter_rows()
                .map(|row| LabeledSample {
                    features: row.to_vec(),
                    label: 0,
                })
                .collect();
            // The model takes no tag column, so the fleet drops tags and
            // the reference ignores them.
            let replay = replay_path(
                &stream,
                path.len(),
                Some(GATE_CLASS),
                true,
                |hop, features, _| {
                    let mut row = features.to_vec();
                    normalizer.apply(&mut row);
                    let verdict = pipeline.classify(&row, &mut scratch);
                    if gates[hop] {
                        verdict
                    } else {
                        verdict + classes
                    }
                },
            )
            .map_err(|e| e.to_string())?;
            Ok(Expected {
                delivered: replay.delivered,
                gated: replay.gated_per_hop.iter().sum(),
                final_verdicts: replay
                    .final_verdicts
                    .iter()
                    .map(|v| v.map(|class| class % classes))
                    .collect(),
            })
        })
        .collect()
}

fn setup(seed: u64) -> Result<Setup, String> {
    let baseline = train_baseline(Application::Ad, &ad_dataset(TRAIN_SEED), TRAIN_SEED)
        .map_err(|e| e.to_string())?;
    let traffic = NslKddGenerator::new(seed).generate(TRAFFIC_SAMPLES);
    let ir = ModelIr::Dnn(DnnIr::from_mlp(&baseline.net));
    if ir.n_features() != traffic.features().cols() {
        return Err("Base-AD must take exactly the packet features".into());
    }
    let pipeline = ir.compile(format()).map_err(|e| e.to_string())?;
    let topology = Topology::leaf_spine(FABRIC.0, FABRIC.1).map_err(|e| e.to_string())?;
    let flows = make_flows(&topology, &traffic, seed);
    let expected = expected(&topology, &flows, &pipeline, &baseline.normalizer)?;
    let start = Instant::now();
    let fleet = build_fleet(topology, &ir, &baseline.normalizer)?;
    Ok(Setup {
        fleet,
        flows,
        expected,
        ir,
        normalizer: baseline.normalizer,
        build_s: start.elapsed().as_secs_f64(),
    })
}

/// Tallies every flow of `report` against its reference.
fn check(report: &FleetReport, expected: &[Expected], outcome: &mut Outcome) {
    for (flow, want) in report.flows.iter().zip(expected) {
        let hops = flow.hop_verdicts.len();
        let verdicts_match = want.final_verdicts.iter().enumerate().all(|(row, want)| {
            (0..hops).rev().find_map(|hop| flow.hop_verdicts[hop][row]) == *want
        });
        outcome
            .tally(verdicts_match && flow.delivered == want.delivered && flow.gated == want.gated);
    }
    // A flow missing from the report is a failed operation too.
    for _ in report.flows.len()..expected.len() {
        outcome.tally(false);
    }
}

/// Runs the fleet until `budget` has passed, after one warm-up run, and
/// returns the wall seconds of each measured run and the last report.
fn run_for(
    setup: &Setup,
    budget: Duration,
    first_request: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(Vec<f64>, Option<FleetReport>), String> {
    let policy = policy();
    let warmup = setup
        .fleet
        .run(&setup.flows, &policy)
        .map_err(|e| e.to_string())?;
    check(&warmup, &setup.expected, outcome);
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.is_empty() || start.elapsed() < budget {
        let request = first_request + times.len() as u64;
        let t = Instant::now();
        let report = tracer
            .span("fleet.run", None, request, || {
                setup.fleet.run(&setup.flows, &policy)
            })
            .map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        check(&report, &setup.expected, outcome);
        last = Some(report);
    }
    Ok((times, last))
}

/// The same flows on the 4-switch fabric, re-pointed at its edges.
fn rung4_pkt_per_s(setup: &Setup, tracer: &mut Tracer) -> Result<f64, String> {
    let topology =
        Topology::leaf_spine(RUNG4_FABRIC.0, RUNG4_FABRIC.1).map_err(|e| e.to_string())?;
    let edges = topology.edge_switches();
    let flows: Vec<FlowSpec> = setup
        .flows
        .iter()
        .enumerate()
        .map(|(f, flow)| {
            FlowSpec::new(
                flow.flow_id,
                edges[f % edges.len()],
                edges[(f + 1) % edges.len()],
                flow.packets.clone(),
            )
        })
        .collect();
    let fleet = build_fleet(topology, &setup.ir, &setup.normalizer)?;
    let policy = policy();
    fleet.run(&flows, &policy).map_err(|e| e.to_string())?;
    let mut rates = Vec::new();
    for run in 0..RUNG4_RUNS {
        let report = tracer
            .span("fleet.rung4.run", None, run as u64, || {
                fleet.run(&flows, &policy)
            })
            .map_err(|e| e.to_string())?;
        rates.push(report.classified_rows() as f64 / (report.elapsed_ns as f64 / 1e9));
    }
    fleet.shutdown();
    Ok(median(&rates))
}

/// Measures the fleet layer: sets the fleet up, runs it for [`LEG`]
/// under `tracer`, tallies every flow against its reference into
/// `outcome`, and adds the `fleet.*` metrics.
pub fn leg(
    seed: u64,
    first_request: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let setup = setup(seed)?;
    let (times, last) = run_for(&setup, LEG, first_request, tracer, outcome)?;
    let report = last.expect("at least one run");
    let stats = setup.fleet.stats(&report);
    setup.fleet.shutdown();
    let rung4 = rung4_pkt_per_s(&setup, tracer)?;
    let ingested = (setup.flows.len() * FLOW_ROWS) as f64;
    let switch_mean_ns = stats
        .switches
        .iter()
        .map(|s| s.mean_ns * s.packets as f64)
        .sum::<f64>()
        / stats.total_packets.max(1) as f64;
    tracer.count("fleet.classified_rows", report.classified_rows());
    outcome.metric("fleet.build_s", setup.build_s, "s");
    outcome.metric("fleet.run_s", median(&times), "s");
    outcome.metric("fleet.switch_mean_ns", switch_mean_ns, "ns");
    outcome.metric(
        "fleet.classified_rows",
        report.classified_rows() as f64,
        "count",
    );
    outcome.metric(
        "fleet.gated_share",
        stats.gated_rows as f64 / ingested,
        "share",
    );
    outcome.metric("fleet.edge_fairness", stats.edge_fairness, "ratio");
    outcome.metric("fleet.rung4_pkt_per_s", rung4, "1/s");
    outcome.note("fleet_runs", json!(times.len()));
    Ok(())
}
