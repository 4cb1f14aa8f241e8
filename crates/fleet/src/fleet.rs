//! Per-switch deployments and the routed multi-hop flow runner.
//!
//! A [`Fleet`] stands up one persistent
//! [`Deployment`] per topology switch
//! and registers models on it according to a role-based placement (edge,
//! aggregation, and core switches can serve different tenant sets — the
//! multi-artifact analogue of the paper's multi-app switch).
//!
//! [`Fleet::run`] then replays flows hop by hop along their
//! [`Topology::path`]s. Every hop classifies the flow's surviving
//! packets; its verdict can **gate** (drop packets of a configured
//! class) and **re-tag** (expose the verdict to the next hop as a
//! trailing tag feature via
//! [`TenantBatch::chained`](homunculus_runtime::serve::TenantBatch::chained)).
//! Hop submission is *pipelined*: completed tickets immediately submit
//! their flow's next hop while other flows' batches are still in
//! flight, so stage N+1 of one flow overlaps stage N of another.
//!
//! Determinism: per-row verdicts are pure functions of the model and the
//! row, and gating/tagging are pure functions of verdicts — so the
//! fleet-wide outcome is bit-identical for any per-switch worker count
//! and any ticket interleaving. [`FleetReport::checksum`] canonicalizes
//! by flow id, making the invariant directly assertable.

use crate::stats::{jain_fairness, FleetStats, RoleStats, SwitchStats};
use crate::topology::{SwitchId, SwitchRole, Topology};
use crate::{FleetError, Result};
use homunculus_backends::model::ModelIr;
use homunculus_core::pipeline::CompiledArtifact;
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::quantize::FixedPoint;
use homunculus_ml::tensor::Matrix;
use homunculus_runtime::deploy::{Deployment, Ticket};
use homunculus_runtime::serve::{TenantBatch, TenantId};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// One model a fleet can place: the same (IR, format, normalizer)
/// triple a [`Deployment`] registers tenants from.
#[derive(Debug, Clone)]
struct ModelEntry {
    name: String,
    ir: ModelIr,
    format: FixedPoint,
    normalizer: Option<Normalizer>,
}

/// Builder for a [`Fleet`]: models, placement, and per-switch
/// deployment knobs.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    topology: Topology,
    entries: Vec<ModelEntry>,
    placement: [Vec<String>; 3],
    workers: usize,
    queue_depth: usize,
    chunk_rows: Option<usize>,
}

impl FleetBuilder {
    /// Registers every model report of a compiled artifact as a placeable
    /// model (multi-artifact fleets call this once per artifact).
    #[must_use]
    pub fn artifact(mut self, artifact: &CompiledArtifact) -> Self {
        for report in artifact.reports() {
            self.entries.push(ModelEntry {
                name: report.name.clone(),
                ir: report.ir.clone(),
                format: report.format,
                normalizer: Some(report.normalizer.clone()),
            });
        }
        self
    }

    /// Registers one ad-hoc model (tests and benches use this to skip
    /// the compile pipeline).
    #[must_use]
    pub fn model(
        mut self,
        name: &str,
        ir: &ModelIr,
        format: FixedPoint,
        normalizer: Option<Normalizer>,
    ) -> Self {
        self.entries.push(ModelEntry {
            name: name.into(),
            ir: ir.clone(),
            format,
            normalizer,
        });
        self
    }

    /// Places a registered model on every switch of `role`.
    #[must_use]
    pub fn place(mut self, role: SwitchRole, model: &str) -> Self {
        self.placement[role.index()].push(model.into());
        self
    }

    /// Places a registered model on every switch of every role.
    #[must_use]
    pub fn place_everywhere(self, model: &str) -> Self {
        SwitchRole::ALL
            .into_iter()
            .fold(self, |b, role| b.place(role, model))
    }

    /// Resident worker threads per switch deployment (default 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Ingress queue depth per switch deployment (default 64 tickets).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Dispatch chunk rows per switch deployment (default: the
    /// deployment's own default).
    #[must_use]
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = Some(rows.max(1));
        self
    }

    /// Instantiates every per-switch deployment and registers its role's
    /// models as tenants.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Placement`] when a placed model name was
    /// never registered or no model is placed anywhere, and
    /// [`FleetError::Runtime`] when a deployment rejects a model.
    pub fn build(self) -> Result<Fleet> {
        if self.placement.iter().all(|models| models.is_empty()) {
            return Err(FleetError::Placement(
                "no model is placed on any role".into(),
            ));
        }
        for name in self.placement.iter().flatten() {
            if !self.entries.iter().any(|e| &e.name == name) {
                return Err(FleetError::Placement(format!(
                    "placed model '{name}' is not registered"
                )));
            }
        }
        let mut nodes = Vec::with_capacity(self.topology.len());
        for switch in self.topology.switches() {
            let mut builder = Deployment::builder()
                .workers(self.workers)
                .queue_depth(self.queue_depth);
            if let Some(rows) = self.chunk_rows {
                builder = builder.chunk_rows(rows);
            }
            let deployment = builder.build();
            let mut tenants = BTreeMap::new();
            let mut widths = BTreeMap::new();
            for name in &self.placement[switch.role.index()] {
                let entry = self
                    .entries
                    .iter()
                    .find(|e| &e.name == name)
                    .expect("placement names validated above");
                let tenant = deployment.add_model(
                    &entry.name,
                    &entry.ir,
                    entry.format,
                    entry.normalizer.clone(),
                )?;
                tenants.insert(entry.name.clone(), tenant);
                widths.insert(entry.name.clone(), entry.ir.n_features());
            }
            nodes.push(SwitchNode {
                deployment,
                tenants,
                widths,
            });
        }
        let calibration_irs = self.entries.into_iter().map(|e| (e.name, e.ir)).collect();
        Ok(Fleet {
            topology: self.topology,
            nodes,
            models: calibration_irs,
        })
    }
}

/// One switch's serving state.
struct SwitchNode {
    deployment: Deployment,
    tenants: BTreeMap<String, TenantId>,
    widths: BTreeMap<String, usize>,
}

/// A topology of persistent per-switch deployments.
pub struct Fleet {
    topology: Topology,
    nodes: Vec<SwitchNode>,
    models: BTreeMap<String, ModelIr>,
}

/// What a hop does with its verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopPolicy {
    /// The model serving this hop (must be placed on the hop's role).
    pub model: String,
    /// Packets classified into this class are dropped at the hop.
    pub drop_class: Option<usize>,
    /// Whether the hop's verdict replaces the flow tag seen by the next
    /// hop (`false` keeps the upstream tag).
    pub retag: bool,
}

impl HopPolicy {
    /// Forward everything, re-tagging with this hop's verdict.
    pub fn forward(model: &str) -> Self {
        HopPolicy {
            model: model.into(),
            drop_class: None,
            retag: true,
        }
    }

    /// Drop packets classified as `drop_class`, re-tag the rest.
    pub fn gate(model: &str, drop_class: usize) -> Self {
        HopPolicy {
            model: model.into(),
            drop_class: Some(drop_class),
            retag: true,
        }
    }

    /// Sets whether the hop re-tags (default `true`).
    #[must_use]
    pub fn retag(mut self, retag: bool) -> Self {
        self.retag = retag;
        self
    }
}

/// Per-role hop policies: which model serves each tier and how its
/// verdicts gate and tag the flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingPolicy {
    hops: [HopPolicy; 3],
}

impl RoutingPolicy {
    /// The same policy on every tier.
    pub fn uniform(hop: HopPolicy) -> Self {
        RoutingPolicy {
            hops: [hop.clone(), hop.clone(), hop],
        }
    }

    /// Overrides the policy of one tier.
    #[must_use]
    pub fn with_role(mut self, role: SwitchRole, hop: HopPolicy) -> Self {
        self.hops[role.index()] = hop;
        self
    }

    /// The policy serving `role`.
    pub fn for_role(&self, role: SwitchRole) -> &HopPolicy {
        &self.hops[role.index()]
    }
}

/// One flow to route: a packet batch entering at `src` and destined for
/// `dst`, routed by `flow_id` (the ECMP hash input).
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Caller-chosen id; paths and report canonicalization key off it.
    pub flow_id: u64,
    /// Ingress edge switch.
    pub src: SwitchId,
    /// Egress edge switch.
    pub dst: SwitchId,
    /// One packet per row, in the models' raw feature space.
    pub packets: Matrix,
}

impl FlowSpec {
    /// Builds a flow spec.
    pub fn new(flow_id: u64, src: SwitchId, dst: SwitchId, packets: Matrix) -> Self {
        FlowSpec {
            flow_id,
            src,
            dst,
            packets,
        }
    }
}

/// What happened to one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// The flow's id.
    pub flow_id: u64,
    /// The path the flow took (switch ids, both endpoints included).
    pub path: Vec<SwitchId>,
    /// `hop_verdicts[hop][packet]`: the class the hop's model assigned,
    /// or `None` when the packet was gated before reaching the hop.
    pub hop_verdicts: Vec<Vec<Option<usize>>>,
    /// Packets that survived every hop.
    pub delivered: usize,
    /// Packets dropped by a gate along the path.
    pub gated: usize,
}

/// The result of one [`Fleet::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-flow outcomes, in submission order.
    pub flows: Vec<FlowOutcome>,
    /// Rows forwarded by each switch, indexed by switch id.
    pub forwarded_rows: Vec<u64>,
    /// Rows gated (dropped) by each switch, indexed by switch id.
    pub gated_rows: Vec<u64>,
    /// Wall-clock of the run in nanoseconds.
    pub elapsed_ns: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

impl FleetReport {
    /// Total packets classified across all hops of all flows.
    pub fn classified_rows(&self) -> u64 {
        self.flows
            .iter()
            .flat_map(|f| &f.hop_verdicts)
            .map(|hop| hop.iter().filter(|v| v.is_some()).count() as u64)
            .sum()
    }

    /// A canonical FNV-style checksum over every `(flow, hop, packet,
    /// verdict)` tuple. Flows are ordered by `flow_id`, so the value is
    /// invariant under submission order, switch iteration order, and
    /// per-switch worker counts — the fleet-wide bit-determinism pin.
    pub fn checksum(&self) -> u64 {
        let mut order: Vec<&FlowOutcome> = self.flows.iter().collect();
        order.sort_by_key(|f| f.flow_id);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for flow in order {
            h = mix(h, flow.flow_id);
            for (hop_index, hop) in flow.hop_verdicts.iter().enumerate() {
                h = mix(h, hop_index as u64 + 1);
                for verdict in hop {
                    h = mix(h, verdict.map_or(0, |class| class as u64 + 1));
                }
            }
        }
        h
    }
}

/// A ticket in flight: which flow, which hop, which surviving packets.
struct Pending {
    flow: usize,
    hop: usize,
    rows: Vec<usize>,
    tags: Vec<f32>,
    ticket: Ticket,
}

impl Fleet {
    /// Starts building a fleet over `topology`.
    pub fn builder(topology: Topology) -> FleetBuilder {
        FleetBuilder {
            topology,
            entries: Vec::new(),
            placement: [Vec::new(), Vec::new(), Vec::new()],
            workers: 1,
            queue_depth: 64,
            chunk_rows: None,
        }
    }

    /// The fabric this fleet serves on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The IR registered under a model name (for calibration).
    pub fn model_ir(&self, name: &str) -> Option<&ModelIr> {
        self.models.get(name)
    }

    fn submit_hop(
        &self,
        flow: &FlowSpec,
        path: &[SwitchId],
        hop: usize,
        rows: &[usize],
        tags: &[f32],
        policy: &RoutingPolicy,
    ) -> Result<Ticket> {
        let switch = self.topology.switch(path[hop]);
        let hop_policy = policy.for_role(switch.role);
        let node = &self.nodes[switch.id.index()];
        let (tenant, width) = match (
            node.tenants.get(&hop_policy.model),
            node.widths.get(&hop_policy.model),
        ) {
            (Some(&tenant), Some(&width)) => (tenant, width),
            _ => {
                return Err(FleetError::Placement(format!(
                    "switch {} ({}) does not serve model '{}'",
                    switch.name,
                    switch.role.name(),
                    hop_policy.model
                )))
            }
        };
        let feature_rows: Vec<Vec<f32>> =
            rows.iter().map(|&r| flow.packets.row(r).to_vec()).collect();
        let batch = TenantBatch::chained(tenant, &feature_rows, tags, width)?;
        Ok(node.deployment.submit(batch)?)
    }

    /// Routes every flow through the fabric with pipelined hop
    /// submission and returns per-flow outcomes.
    ///
    /// Tickets complete in a FIFO round-robin over flows: as soon as a
    /// flow's hop N ticket is redeemed, its hop N+1 batch is submitted —
    /// while every other flow's in-flight hop keeps executing. Verdicts,
    /// gating, and tagging are all deterministic, so
    /// [`FleetReport::checksum`] does not depend on that interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Topology`] for invalid flow endpoints,
    /// [`FleetError::Placement`] when a hop's model is not served by its
    /// switch, and [`FleetError::Runtime`] for rejected submissions
    /// (including chained-width mismatches).
    pub fn run(&self, flows: &[FlowSpec], policy: &RoutingPolicy) -> Result<FleetReport> {
        let mut paths = Vec::with_capacity(flows.len());
        for flow in flows {
            if flow.packets.rows() == 0 {
                return Err(FleetError::Runtime(format!(
                    "flow {} has no packets",
                    flow.flow_id
                )));
            }
            paths.push(self.topology.path(flow.src, flow.dst, flow.flow_id)?);
        }
        let mut outcomes: Vec<FlowOutcome> = flows
            .iter()
            .zip(&paths)
            .map(|(flow, path)| FlowOutcome {
                flow_id: flow.flow_id,
                path: path.clone(),
                hop_verdicts: vec![vec![None; flow.packets.rows()]; path.len()],
                delivered: 0,
                gated: 0,
            })
            .collect();
        let mut forwarded = vec![0u64; self.topology.len()];
        let mut gated = vec![0u64; self.topology.len()];

        let start = Instant::now();
        let mut queue: VecDeque<Pending> = VecDeque::with_capacity(flows.len());
        for (index, flow) in flows.iter().enumerate() {
            let rows: Vec<usize> = (0..flow.packets.rows()).collect();
            let tags = vec![0.0f32; rows.len()];
            let ticket = self.submit_hop(flow, &paths[index], 0, &rows, &tags, policy)?;
            queue.push_back(Pending {
                flow: index,
                hop: 0,
                rows,
                tags,
                ticket,
            });
        }

        while let Some(pending) = queue.pop_front() {
            let verdicts = pending.ticket.wait();
            let classes = verdicts.as_slice();
            let flow = &flows[pending.flow];
            let path = &paths[pending.flow];
            let switch_index = path[pending.hop].index();
            let hop_policy = policy.for_role(self.topology.switch(path[pending.hop]).role);
            let outcome = &mut outcomes[pending.flow];

            let mut next_rows = Vec::with_capacity(pending.rows.len());
            let mut next_tags = Vec::with_capacity(pending.rows.len());
            for (slot, &row) in pending.rows.iter().enumerate() {
                let class = classes[slot];
                outcome.hop_verdicts[pending.hop][row] = Some(class);
                if hop_policy.drop_class == Some(class) {
                    outcome.gated += 1;
                    gated[switch_index] += 1;
                } else {
                    forwarded[switch_index] += 1;
                    next_rows.push(row);
                    next_tags.push(if hop_policy.retag {
                        class as f32
                    } else {
                        pending.tags[slot]
                    });
                }
            }

            let last_hop = pending.hop + 1 == path.len();
            if last_hop {
                outcome.delivered += next_rows.len();
            } else if !next_rows.is_empty() {
                let ticket =
                    self.submit_hop(flow, path, pending.hop + 1, &next_rows, &next_tags, policy)?;
                queue.push_back(Pending {
                    flow: pending.flow,
                    hop: pending.hop + 1,
                    rows: next_rows,
                    tags: next_tags,
                    ticket,
                });
            }
        }
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        Ok(FleetReport {
            flows: outcomes,
            forwarded_rows: forwarded,
            gated_rows: gated,
            elapsed_ns,
        })
    }

    /// Aggregates per-switch, per-role, and fleet-wide serving stats.
    ///
    /// Packet counts, verdict histograms, and latency summaries come
    /// from each switch deployment's lifetime snapshot (they accumulate
    /// across runs); gated/forwarded accounting comes from `report`.
    /// Tenant latencies are per packet but not timed per packet: each
    /// switch worker times a whole chunk once and charges every row its
    /// block time ÷ rows. Per-switch `p50_ns` is the packet-weighted mean
    /// of tenant medians and `p99_ns` the max of tenant p99s — tenant
    /// histograms cannot be merged exactly, so both are documented
    /// approximations.
    pub fn stats(&self, report: &FleetReport) -> FleetStats {
        let mut switches = Vec::with_capacity(self.nodes.len());
        for (node, switch) in self.nodes.iter().zip(self.topology.switches()) {
            let snapshot = node.deployment.stats_snapshot();
            let mut packets = 0usize;
            let mut histogram: Vec<usize> = Vec::new();
            let mut p50_weighted = 0.0f64;
            let mut p99 = 0u64;
            let mut mean_weighted = 0.0f64;
            for tenant in &snapshot.tenants {
                packets += tenant.packets;
                if histogram.len() < tenant.verdict_histogram.len() {
                    histogram.resize(tenant.verdict_histogram.len(), 0);
                }
                for (bucket, &count) in tenant.verdict_histogram.iter().enumerate() {
                    histogram[bucket] += count;
                }
                p50_weighted += tenant.p50_ns as f64 * tenant.packets as f64;
                p99 = p99.max(tenant.p99_ns);
                mean_weighted += tenant.mean_ns * tenant.packets as f64;
            }
            let denom = (packets as f64).max(1.0);
            switches.push(SwitchStats {
                name: switch.name.clone(),
                role: switch.role,
                packets,
                verdict_histogram: histogram,
                p50_ns: (p50_weighted / denom) as u64,
                p99_ns: p99,
                mean_ns: mean_weighted / denom,
                forwarded: report.forwarded_rows[switch.id.index()],
                gated: report.gated_rows[switch.id.index()],
            });
        }

        let mut roles: Vec<RoleStats> = SwitchRole::ALL
            .into_iter()
            .map(|role| RoleStats {
                role,
                switches: 0,
                packets: 0,
                verdict_histogram: Vec::new(),
                forwarded: 0,
                gated: 0,
            })
            .collect();
        for stats in &switches {
            let role = &mut roles[stats.role.index()];
            role.switches += 1;
            role.packets += stats.packets;
            if role.verdict_histogram.len() < stats.verdict_histogram.len() {
                role.verdict_histogram
                    .resize(stats.verdict_histogram.len(), 0);
            }
            for (bucket, &count) in stats.verdict_histogram.iter().enumerate() {
                role.verdict_histogram[bucket] += count;
            }
            role.forwarded += stats.forwarded;
            role.gated += stats.gated;
        }
        roles.retain(|r| r.switches > 0);

        let total_packets = switches.iter().map(|s| s.packets).sum();
        let mut fleet_histogram: Vec<usize> = Vec::new();
        for stats in &switches {
            if fleet_histogram.len() < stats.verdict_histogram.len() {
                fleet_histogram.resize(stats.verdict_histogram.len(), 0);
            }
            for (bucket, &count) in stats.verdict_histogram.iter().enumerate() {
                fleet_histogram[bucket] += count;
            }
        }
        let edge_loads: Vec<f64> = switches
            .iter()
            .filter(|s| s.role == SwitchRole::Edge)
            .map(|s| s.packets as f64)
            .collect();
        FleetStats {
            switches,
            roles,
            total_packets,
            verdict_histogram: fleet_histogram,
            forwarded_rows: report.forwarded_rows.iter().sum(),
            gated_rows: report.gated_rows.iter().sum(),
            edge_fairness: jain_fairness(&edge_loads),
        }
    }

    /// Drains and shuts down every per-switch deployment. Dropping the
    /// fleet does the same implicitly; call this to make teardown
    /// explicit (e.g. before reading final stats in a bench).
    pub fn shutdown(&self) {
        for node in &self.nodes {
            node.deployment.drain();
            node.deployment.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use homunculus_backends::model::{DnnIr, ModelIr};
    use homunculus_ml::mlp::{Mlp, MlpArchitecture};

    fn dnn(seed: u64, inputs: usize) -> ModelIr {
        let arch = MlpArchitecture::new(inputs, vec![6], 2);
        ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, seed).unwrap()))
    }

    fn packets(rows: usize, cols: usize, salt: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 7) as f32).sin() * 0.8 + salt
        })
    }

    fn small_fleet(workers: usize) -> Fleet {
        Fleet::builder(Topology::leaf_spine(3, 2).unwrap())
            .model("ad", &dnn(3, 4), FixedPoint::taurus_default(), None)
            .place_everywhere("ad")
            .workers(workers)
            .build()
            .unwrap()
    }

    fn small_flows() -> Vec<FlowSpec> {
        (0..6u64)
            .map(|f| {
                FlowSpec::new(
                    f,
                    SwitchId(f as usize % 3),
                    SwitchId((f as usize + 1) % 3),
                    packets(8, 4, f as f32 * 0.1),
                )
            })
            .collect()
    }

    #[test]
    fn run_delivers_and_checksums_deterministically() {
        let policy = RoutingPolicy::uniform(HopPolicy::forward("ad"));
        let flows = small_flows();
        let mut checksums = Vec::new();
        for workers in [1usize, 2, 4] {
            let fleet = small_fleet(workers);
            let report = fleet.run(&flows, &policy).unwrap();
            assert_eq!(report.flows.len(), flows.len());
            for outcome in &report.flows {
                assert_eq!(outcome.delivered, 8, "no gate configured");
                assert_eq!(outcome.gated, 0);
            }
            checksums.push(report.checksum());
            fleet.shutdown();
        }
        assert_eq!(checksums[0], checksums[1]);
        assert_eq!(checksums[1], checksums[2]);
    }

    #[test]
    fn checksum_is_submission_order_invariant() {
        let policy = RoutingPolicy::uniform(HopPolicy::forward("ad"));
        let mut flows = small_flows();
        let fleet = small_fleet(2);
        let forward = fleet.run(&flows, &policy).unwrap().checksum();
        flows.reverse();
        let reversed = fleet.run(&flows, &policy).unwrap().checksum();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn gating_drops_and_accounts() {
        // A gate that drops class 0 and one that drops class 1 partition
        // the stream: together they gate everything the edge forwards.
        let fleet = small_fleet(2);
        let flows = small_flows();
        let gate0 = RoutingPolicy::uniform(HopPolicy::gate("ad", 0));
        let report = fleet.run(&flows, &gate0).unwrap();
        let stats = fleet.stats(&report);
        assert_eq!(
            stats.gated_rows + report.flows.iter().map(|f| f.delivered as u64).sum::<u64>(),
            48,
            "every packet is either gated somewhere or delivered"
        );
        for outcome in &report.flows {
            assert_eq!(outcome.gated + outcome.delivered, 8);
        }
    }

    #[test]
    fn unplaced_model_is_rejected_at_run() {
        let fleet = Fleet::builder(Topology::leaf_spine(2, 1).unwrap())
            .model("ad", &dnn(3, 4), FixedPoint::taurus_default(), None)
            .place(SwitchRole::Edge, "ad")
            .build()
            .unwrap();
        let flows = vec![FlowSpec::new(
            0,
            SwitchId(0),
            SwitchId(1),
            packets(2, 4, 0.0),
        )];
        let policy = RoutingPolicy::uniform(HopPolicy::forward("ad"));
        let err = fleet.run(&flows, &policy).unwrap_err();
        assert!(matches!(err, FleetError::Placement(_)), "{err}");
    }

    #[test]
    fn builder_rejects_unknown_placement() {
        let result = Fleet::builder(Topology::leaf_spine(2, 1).unwrap())
            .place_everywhere("missing")
            .build();
        match result {
            Err(FleetError::Placement(_)) => {}
            Err(other) => panic!("expected a placement error, got {other}"),
            Ok(_) => panic!("an unregistered placement must not build"),
        }
    }

    #[test]
    fn tagged_downstream_consumes_upstream_verdicts() {
        // Edge model takes 4 features; the spine model takes 5 — the
        // fifth is the edge verdict tag appended by the chained submit.
        let fleet = Fleet::builder(Topology::leaf_spine(2, 1).unwrap())
            .model("edge_ad", &dnn(3, 4), FixedPoint::taurus_default(), None)
            .model("spine_ad", &dnn(9, 5), FixedPoint::taurus_default(), None)
            .place(SwitchRole::Edge, "edge_ad")
            .place(SwitchRole::Core, "spine_ad")
            .workers(2)
            .build()
            .unwrap();
        let policy = RoutingPolicy::uniform(HopPolicy::forward("edge_ad"))
            .with_role(SwitchRole::Core, HopPolicy::forward("spine_ad"));
        let flows = vec![FlowSpec::new(
            9,
            SwitchId(0),
            SwitchId(1),
            packets(6, 4, 0.3),
        )];
        let report = fleet.run(&flows, &policy).unwrap();
        assert_eq!(report.flows[0].delivered, 6);
        assert_eq!(report.flows[0].hop_verdicts.len(), 3);
    }
}
