//! Multi-tenant pipeline serving (the call-at-a-time frontend).
//!
//! The paper's headline deployment serves *many* ML apps on one switch:
//! models are scheduled sequentially or in parallel on a shared data
//! plane, and downstream apps can consume upstream verdicts (§3.1, §5.1.3).
//! This module is the software twin of that multiplexed switch: a
//! [`PipelineServer`] registers one tenant per scheduled app (compiled
//! pipeline + the feature normalizer it was trained under), compiles all
//! of them through one shared [`LutCache`], and serves packet batches
//! tagged by tenant.
//!
//! Since the `Deployment` redesign, [`PipelineServer::serve`] is a thin
//! compatibility wrapper: each call stands up a one-shot
//! [`Deployment`], runs the batches through its
//! resident workers, and tears it down — identical verdicts and stats,
//! but pool setup is still paid per call. New code that serves more than
//! once should hold a persistent [`Deployment`]
//! instead (see [`crate::deploy`]).
//!
//! Results are written into pre-assigned slots, which makes every verdict
//! **independent of thread scheduling** — the serving layer is bit-wise
//! deterministic even though the worker pool is not.
//!
//! Chained execution ([`PipelineServer::run_chain`]) mirrors the paper's
//! sequential `>` operator: each stage classifies the same packet stream,
//! and a stage whose pipeline expects one extra feature consumes the
//! previous stage's verdict in that slot.

use crate::deploy::{Deployment, SchedulePolicy};
use crate::lut::LutCache;
use crate::pipeline::{Compile, CompiledPipeline, Scratch};
use crate::{Result, RuntimeError};
use homunculus_backends::model::ModelIr;
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::quantize::FixedPoint;
use homunculus_ml::tensor::Matrix;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonic tag distinguishing server/deployment instances, so a
/// [`TenantId`] minted by one can never silently address another's
/// tenant that happens to share the index.
static NEXT_SERVER_TAG: AtomicU32 = AtomicU32::new(1);

/// Mints the next instance tag (shared by [`PipelineServer`] and
/// [`Deployment`], so ids are unique across
/// both frontends).
pub(crate) fn next_server_tag() -> u32 {
    NEXT_SERVER_TAG.fetch_add(1, Ordering::Relaxed)
}

/// Identifies a registered tenant (a scheduled app) of one specific
/// server: ids carry the minting server's tag, and every entry point
/// rejects ids from a different server instead of misrouting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId {
    index: usize,
    server: u32,
}

impl TenantId {
    /// The tenant's registration index within its server.
    pub fn index(self) -> usize {
        self.index
    }

    /// Mints an id for `index` under instance tag `server`.
    pub(crate) fn mint(index: usize, server: u32) -> Self {
        TenantId { index, server }
    }

    /// The minting instance's tag.
    pub(crate) fn server(self) -> u32 {
        self.server
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.index)
    }
}

/// One registered app: its compiled pipeline and deployment normalizer.
#[derive(Debug, Clone)]
struct Tenant {
    name: String,
    pipeline: Arc<CompiledPipeline>,
    normalizer: Option<Normalizer>,
}

/// A batch of packets addressed to one tenant, optionally carrying oracle
/// verdicts (e.g. the float reference model's predictions, or ground-truth
/// labels) for agreement accounting.
#[derive(Debug, Clone)]
pub struct TenantBatch {
    /// The tenant this batch is addressed to.
    pub tenant: TenantId,
    /// One packet per row, in the tenant's *raw* feature space (the
    /// server applies the tenant's normalizer).
    pub features: Matrix,
    /// Optional per-row oracle verdicts; must match the row count.
    pub oracle: Option<Vec<usize>>,
}

impl TenantBatch {
    /// A batch without oracle verdicts.
    pub fn new(tenant: TenantId, features: Matrix) -> Self {
        TenantBatch {
            tenant,
            features,
            oracle: None,
        }
    }

    /// Attaches oracle verdicts for agreement accounting.
    #[must_use]
    pub fn with_oracle(mut self, oracle: Vec<usize>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Builds a batch from owned feature rows.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Serve`] for empty or ragged rows.
    pub fn from_rows(tenant: TenantId, rows: &[Vec<f32>]) -> Result<Self> {
        let features =
            Matrix::from_rows(rows).map_err(|e| RuntimeError::Serve(format!("batch rows: {e}")))?;
        Ok(TenantBatch::new(tenant, features))
    }

    /// Builds the next-hop batch of a *chained* submission: the rows that
    /// survived an upstream model plus that model's per-row verdicts as a
    /// trailing tag feature — the serving-side form of the paper's
    /// `a > b` model chaining.
    ///
    /// The downstream model declares its expectation through
    /// `expected_cols` (its input width): when it equals the row width the
    /// tags are dropped (the model was trained without a tag column);
    /// when it equals row width + 1 each row is extended with its tag.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Serve`] when rows are empty or ragged,
    /// when `tags` is not parallel to `rows`, or when `expected_cols`
    /// matches neither the raw nor the tag-extended width.
    pub fn chained(
        tenant: TenantId,
        rows: &[Vec<f32>],
        tags: &[f32],
        expected_cols: usize,
    ) -> Result<Self> {
        if rows.is_empty() {
            return Err(RuntimeError::Serve("chained batch has no rows".into()));
        }
        if tags.len() != rows.len() {
            return Err(RuntimeError::Serve(format!(
                "chained batch has {} rows but {} tags",
                rows.len(),
                tags.len()
            )));
        }
        let cols = rows[0].len();
        if expected_cols == cols {
            return TenantBatch::from_rows(tenant, rows);
        }
        if expected_cols == cols + 1 {
            let tagged: Vec<Vec<f32>> = rows
                .iter()
                .zip(tags)
                .map(|(row, &tag)| {
                    let mut extended = Vec::with_capacity(cols + 1);
                    extended.extend_from_slice(row);
                    extended.push(tag);
                    extended
                })
                .collect();
            return TenantBatch::from_rows(tenant, &tagged);
        }
        Err(RuntimeError::Serve(format!(
            "chained batch width {cols} (or {} tagged) does not match the \
             downstream model's {expected_cols} features",
            cols + 1
        )))
    }
}

/// Worker-pool knobs for [`PipelineServer::serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads; clamped to `[1, work items]`.
    pub workers: usize,
    /// Dispatch granularity in rows; `0` keeps each batch as one work
    /// item (parallelism across tenants only), a positive value splits
    /// batches so a single tenant can also span workers.
    pub chunk_rows: usize,
    /// Per-worker ingress-ring capacity for the one-shot deployment
    /// backing this call (rounded up to a power of two; see
    /// [`DeploymentBuilder::ring_capacity`](crate::deploy::DeploymentBuilder::ring_capacity)).
    pub ring_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 1,
            chunk_rows: 0,
            ring_capacity: 64,
        }
    }
}

impl ServeOptions {
    /// Sets the worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the dispatch granularity in rows.
    #[must_use]
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows;
        self
    }

    /// Sets the per-worker ingress-ring capacity.
    #[must_use]
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}

/// Per-tenant serving statistics, merged across all of a run's batches.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant these stats belong to.
    pub tenant: TenantId,
    /// The tenant's registered name.
    pub name: String,
    /// Packets classified for this tenant.
    pub packets: usize,
    /// Verdict counts indexed by class.
    pub verdict_histogram: Vec<usize>,
    /// Median per-packet classify latency in nanoseconds. Workers time
    /// each chunk with one clock pair around its block classify, so a
    /// packet's latency is its chunk's block time ÷ rows; no packet is
    /// timed on its own. Quantiles therefore spread across chunks, not
    /// across the packets of one chunk.
    pub p50_ns: u64,
    /// 99th-percentile per-packet classify latency in nanoseconds (chunk
    /// block time ÷ rows, as for [`p50_ns`](TenantStats::p50_ns)).
    pub p99_ns: u64,
    /// Mean per-packet classify latency in nanoseconds: total classify
    /// time of the tenant's chunks ÷ packets classified.
    pub mean_ns: f64,
    /// Samples in the latency histogram behind `p50_ns`/`p99_ns`/`mean_ns`:
    /// each chunk contributes its per-row mean once per row, so this
    /// equals [`packets`](TenantStats::packets).
    pub latency_samples: u64,
    /// Packets that carried an oracle verdict.
    pub oracle_packets: usize,
    /// Of those, packets where the served verdict agreed with the oracle.
    pub oracle_agreements: usize,
}

impl TenantStats {
    /// Agreement fraction against the oracle, or `None` if no batch
    /// carried oracle verdicts.
    pub fn oracle_agreement(&self) -> Option<f64> {
        if self.oracle_packets == 0 {
            None
        } else {
            Some(self.oracle_agreements as f64 / self.oracle_packets as f64)
        }
    }
}

/// The result of one [`PipelineServer::serve`] run.
#[derive(Debug, Clone)]
pub struct ServeOutput {
    verdicts: Vec<Vec<usize>>,
    stats: Vec<TenantStats>,
    /// Wall-clock of the whole run in nanoseconds.
    pub elapsed_ns: u64,
    /// Total packets served across all tenants.
    pub total_packets: usize,
}

impl ServeOutput {
    /// Per-batch verdicts, in the order the batches were submitted.
    pub fn verdicts(&self) -> &[Vec<usize>] {
        &self.verdicts
    }

    /// Consumes the output, yielding the per-batch verdicts.
    pub fn into_verdicts(self) -> Vec<Vec<usize>> {
        self.verdicts
    }

    /// Per-tenant stats for every registered tenant (zeroed for tenants
    /// the run never addressed), indexed by [`TenantId::index`].
    pub fn stats(&self) -> &[TenantStats] {
        &self.stats
    }

    /// Aggregate throughput of the run in packets per second.
    pub fn aggregate_pps(&self) -> f64 {
        self.total_packets as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// A multi-tenant serving frontend over many compiled pipelines.
///
/// # Example
///
/// ```
/// use homunculus_backends::model::{DnnIr, ModelIr};
/// use homunculus_ml::mlp::{Activation, Mlp, MlpArchitecture};
/// use homunculus_ml::quantize::FixedPoint;
/// use homunculus_ml::tensor::Matrix;
/// use homunculus_runtime::serve::{PipelineServer, ServeOptions, TenantBatch};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut server = PipelineServer::new();
/// let format = FixedPoint::taurus_default();
/// let arch = MlpArchitecture::new(4, vec![8], 2).with_activation(Activation::Sigmoid);
/// let a = server.register_model("app_a", &ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, 1)?)), format, None)?;
/// let b = server.register_model("app_b", &ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, 2)?)), format, None)?;
/// // Both sigmoid tenants share one activation LUT.
/// assert_eq!(server.luts().builds(), 1);
///
/// let packets = Matrix::from_fn(64, 4, |r, c| (r * 3 + c) as f32 * 0.01);
/// let output = server.serve(
///     &[TenantBatch::new(a, packets.clone()), TenantBatch::new(b, packets)],
///     &ServeOptions::default().workers(2),
/// )?;
/// assert_eq!(output.total_packets, 128);
/// assert_eq!(output.verdicts().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PipelineServer {
    tenants: Vec<Tenant>,
    luts: LutCache,
    /// This server's [`NEXT_SERVER_TAG`] value, stamped into every
    /// [`TenantId`] it mints.
    tag: u32,
}

impl Default for PipelineServer {
    fn default() -> Self {
        PipelineServer::new()
    }
}

impl PipelineServer {
    /// Creates a server with no tenants.
    pub fn new() -> Self {
        PipelineServer {
            tenants: Vec::new(),
            luts: LutCache::new(),
            tag: next_server_tag(),
        }
    }

    /// Registers an already-compiled pipeline as a tenant.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Serve`] for duplicate names or a normalizer
    /// whose dimensionality disagrees with the pipeline.
    pub fn register_pipeline(
        &mut self,
        name: &str,
        pipeline: CompiledPipeline,
        normalizer: Option<Normalizer>,
    ) -> Result<TenantId> {
        if name.is_empty() {
            return Err(RuntimeError::Serve("tenant name must be non-empty".into()));
        }
        if self.tenants.iter().any(|t| t.name == name) {
            return Err(RuntimeError::Serve(format!(
                "tenant '{name}' is already registered"
            )));
        }
        if let Some(normalizer) = &normalizer {
            // Both vectors must cover every feature: `Normalizer::apply`
            // zips over them, so a short one would silently leave the
            // tail untransformed.
            if normalizer.mean.len() != pipeline.n_features()
                || normalizer.std.len() != pipeline.n_features()
            {
                return Err(RuntimeError::Serve(format!(
                    "tenant '{name}': normalizer covers {} mean / {} std features but the \
                     pipeline expects {}",
                    normalizer.mean.len(),
                    normalizer.std.len(),
                    pipeline.n_features()
                )));
            }
        }
        let id = TenantId {
            index: self.tenants.len(),
            server: self.tag,
        };
        self.tenants.push(Tenant {
            name: name.to_string(),
            pipeline: Arc::new(pipeline),
            normalizer,
        });
        Ok(id)
    }

    /// Compiles a trained IR through the server's shared [`LutCache`] and
    /// registers it — the many-model-schedule entry point: every model
    /// added this way reuses already-built activation tables.
    ///
    /// # Errors
    ///
    /// Lowering errors from [`Compile::compile_shared`], plus the
    /// [`RuntimeError::Serve`] cases of
    /// [`register_pipeline`](PipelineServer::register_pipeline).
    pub fn register_model(
        &mut self,
        name: &str,
        ir: &ModelIr,
        format: FixedPoint,
        normalizer: Option<Normalizer>,
    ) -> Result<TenantId> {
        let pipeline = ir.compile_shared(format, &self.luts)?;
        self.register_pipeline(name, pipeline, normalizer)
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The shared activation-LUT cache (inspect `builds()`/`hits()` to
    /// verify table sharing across a schedule).
    pub fn luts(&self) -> &LutCache {
        &self.luts
    }

    /// Looks up a tenant id by registered name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.tenants
            .iter()
            .position(|t| t.name == name)
            .map(|index| TenantId {
                index,
                server: self.tag,
            })
    }

    /// A tenant's registered name (`None` for another server's id).
    pub fn tenant_name(&self, id: TenantId) -> Option<&str> {
        self.tenant(id).ok().map(|t| t.name.as_str())
    }

    /// A tenant's compiled pipeline (`None` for another server's id).
    pub fn pipeline(&self, id: TenantId) -> Option<&CompiledPipeline> {
        self.tenant(id).ok().map(|t| t.pipeline.as_ref())
    }

    fn tenant(&self, id: TenantId) -> Result<&Tenant> {
        if id.server != self.tag {
            return Err(RuntimeError::Serve(format!(
                "{id} was minted by a different server"
            )));
        }
        self.tenants
            .get(id.index)
            .ok_or_else(|| RuntimeError::Serve(format!("{id} is not registered here")))
    }

    /// Serves a set of tenant-tagged packet batches and returns per-batch
    /// verdicts plus per-tenant stats.
    ///
    /// Deprecated in favor of [`Deployment`]: this call-at-a-time entry
    /// point stands up a one-shot deployment per call — verdicts and
    /// stats are unchanged (bit-wise identical to the pre-redesign scoped
    /// pool), but worker launch and teardown are paid on *every* call.
    /// Code that serves repeatedly should build one [`Deployment`] and
    /// [`submit`](crate::deploy::Deployment::submit) to it instead; this
    /// wrapper stays for downstream callers and golden tests.
    ///
    /// Verdicts are bit-wise deterministic: each work item writes into
    /// pre-assigned output slots, so thread scheduling can affect timing
    /// but never results.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Serve`] for unknown tenants, feature-width
    /// mismatches, or oracle vectors whose length disagrees with the
    /// batch.
    #[deprecated(
        note = "stands up a one-shot Deployment per call, paying pool launch/teardown every \
                time; build a persistent `Deployment` (crate::deploy) and `submit` to it instead"
    )]
    pub fn serve(&self, batches: &[TenantBatch], options: &ServeOptions) -> Result<ServeOutput> {
        for (index, batch) in batches.iter().enumerate() {
            let tenant = self.tenant(batch.tenant)?;
            if batch.features.cols() != tenant.pipeline.n_features() {
                return Err(RuntimeError::Serve(format!(
                    "batch {index}: {} features per packet but tenant '{}' expects {}",
                    batch.features.cols(),
                    tenant.name,
                    tenant.pipeline.n_features()
                )));
            }
            if let Some(oracle) = &batch.oracle {
                if oracle.len() != batch.features.rows() {
                    return Err(RuntimeError::Serve(format!(
                        "batch {index}: {} oracle verdicts for {} packets",
                        oracle.len(),
                        batch.features.rows()
                    )));
                }
            }
        }

        // One-shot deployment: every registered tenant re-registers in
        // index order (ids map 1:1), all batches are submitted up front
        // (queue depth == batch count, so submit never blocks), and the
        // tickets are redeemed in submission order. The clock starts
        // before the pool launches and stops after it joins, so
        // `elapsed_ns` keeps charging this path its per-call setup and
        // teardown — exactly what the pre-redesign scoped pool paid.
        // Workers stay clamped to the work-item count (also as before):
        // no idle resident threads are spawned for a small call.
        let work_items: usize = batches
            .iter()
            .map(|batch| {
                let rows = batch.features.rows();
                let chunk = if options.chunk_rows == 0 {
                    rows.max(1)
                } else {
                    options.chunk_rows
                };
                rows.div_ceil(chunk)
            })
            .sum();
        let start = Instant::now();
        let deployment = Deployment::builder()
            .workers(options.workers.clamp(1, work_items.max(1)))
            .chunk_rows(options.chunk_rows)
            .queue_depth(batches.len().max(1))
            .ring_capacity(options.ring_capacity)
            // The whole call's chunks are enqueued up front, so size the
            // reusable-descriptor slab to hold them all without stalls.
            .chunk_slots(work_items.max(64))
            .build();
        let mut ids = Vec::with_capacity(self.tenants.len());
        for tenant in &self.tenants {
            let id = deployment
                .add_tenant_shared(
                    &tenant.name,
                    Arc::clone(&tenant.pipeline),
                    tenant.normalizer.clone(),
                    SchedulePolicy::RoundRobin,
                )
                .map_err(|e| {
                    RuntimeError::Serve(format!(
                        "one-shot deployment rejected tenant '{}': {e}",
                        tenant.name
                    ))
                })?;
            ids.push(id);
        }

        let mut tickets = Vec::with_capacity(batches.len());
        for batch in batches {
            let staged = TenantBatch {
                tenant: ids[batch.tenant.index],
                features: batch.features.clone(),
                oracle: batch.oracle.clone(),
            };
            tickets.push(deployment.submit(staged)?);
        }
        let verdicts: Vec<Vec<usize>> = tickets
            .into_iter()
            .map(|ticket| ticket.wait().into_vec())
            .collect();
        deployment.shutdown();
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let snapshot = deployment.stats_snapshot();

        // Re-tag the snapshot's per-tenant stats with this server's ids.
        let stats = snapshot
            .tenants
            .into_iter()
            .enumerate()
            .map(|(index, stats)| TenantStats {
                tenant: TenantId {
                    index,
                    server: self.tag,
                },
                ..stats
            })
            .collect();
        let total_packets = verdicts.iter().map(Vec::len).sum();
        Ok(ServeOutput {
            verdicts,
            stats,
            elapsed_ns,
            total_packets,
        })
    }

    /// Runs a chain of tenants over one packet stream — the paper's
    /// sequential `>` composition. Every stage classifies all of `base`'s
    /// rows; a stage after the first whose pipeline expects
    /// `base.cols() + 1` features consumes the previous stage's verdict
    /// (as `f32`) in the extra trailing slot, *before* the stage's own
    /// normalizer is applied. Returns per-stage verdicts in chain order.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Serve`] for an empty chain, unknown
    /// tenants, a first stage that does not match `base`'s width, or a
    /// later stage expecting anything other than `base.cols()` or
    /// `base.cols() + 1` features.
    pub fn run_chain(&self, chain: &[TenantId], base: &Matrix) -> Result<Vec<Vec<usize>>> {
        if chain.is_empty() {
            return Err(RuntimeError::Serve("empty tenant chain".into()));
        }
        for (stage, &id) in chain.iter().enumerate() {
            let tenant = self.tenant(id)?;
            let wants = tenant.pipeline.n_features();
            let ok = if stage == 0 {
                wants == base.cols()
            } else {
                wants == base.cols() || wants == base.cols() + 1
            };
            if !ok {
                return Err(RuntimeError::Serve(format!(
                    "chain stage {stage} ('{}') expects {wants} features but the stream has {} \
                     (+1 for an upstream verdict)",
                    tenant.name,
                    base.cols()
                )));
            }
        }

        let mut scratch = Scratch::new();
        let mut row: Vec<f32> = Vec::new();
        let mut staged: Vec<Vec<usize>> = Vec::with_capacity(chain.len());
        for (stage, &id) in chain.iter().enumerate() {
            let tenant = &self.tenants[id.index];
            let chained = stage > 0 && tenant.pipeline.n_features() == base.cols() + 1;
            let upstream: Vec<f32> = if chained {
                staged[stage - 1].iter().map(|&v| v as f32).collect()
            } else {
                vec![0.0; base.rows()]
            };
            let mut out = Vec::with_capacity(base.rows());
            for (features, &verdict) in base.iter_rows().zip(&upstream) {
                row.clear();
                row.extend_from_slice(features);
                if chained {
                    row.push(verdict);
                }
                if let Some(normalizer) = &tenant.normalizer {
                    normalizer.apply(&mut row);
                }
                out.push(tenant.pipeline.classify(&row, &mut scratch));
            }
            staged.push(out);
        }
        Ok(staged)
    }
}

// These tests exercise the deprecated `serve` shim on purpose: they pin
// that it stays bit-identical to the persistent Deployment path.
#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use homunculus_backends::model::{DnnIr, SvmIr};
    use homunculus_ml::mlp::{Activation, Mlp, MlpArchitecture};

    fn q() -> FixedPoint {
        FixedPoint::taurus_default()
    }

    fn dnn_ir(features: usize, seed: u64, activation: Activation) -> ModelIr {
        let arch = MlpArchitecture::new(features, vec![6], 2).with_activation(activation);
        ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, seed).unwrap()))
    }

    /// A hand-built binary SVM: class 1 iff `w . x + b >= 0`.
    fn svm_ir(weights: Vec<f32>, bias: f32) -> ModelIr {
        ModelIr::Svm(SvmIr {
            n_features: weights.len(),
            n_classes: 2,
            planes: Some((vec![weights], vec![bias])),
        })
    }

    fn packets(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 13 + c * 7 + seed as usize * 3) % 29) as f32 / 29.0 - 0.5
        })
    }

    #[test]
    fn chained_batches_adapt_to_downstream_width() {
        let mut server = PipelineServer::new();
        let raw = server
            .register_model("raw", &dnn_ir(3, 1, Activation::Relu), q(), None)
            .unwrap();
        let tagged = server
            .register_model("tagged", &dnn_ir(4, 2, Activation::Relu), q(), None)
            .unwrap();
        let rows = vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]];
        let tags = vec![1.0, 0.0];

        // Same width: tags dropped, features forwarded untouched.
        let batch = TenantBatch::chained(raw, &rows, &tags, 3).unwrap();
        assert_eq!(batch.features.shape(), (2, 3));
        assert_eq!(batch.features.row(0), &[0.1, 0.2, 0.3]);

        // Width + 1: each row gains its tag as the trailing feature.
        let batch = TenantBatch::chained(tagged, &rows, &tags, 4).unwrap();
        assert_eq!(batch.features.shape(), (2, 4));
        assert_eq!(batch.features.row(0), &[0.1, 0.2, 0.3, 1.0]);
        assert_eq!(batch.features.row(1), &[0.4, 0.5, 0.6, 0.0]);

        // Anything else is a serve error, as are ragged/empty inputs.
        assert!(matches!(
            TenantBatch::chained(raw, &rows, &tags, 7),
            Err(RuntimeError::Serve(_))
        ));
        assert!(matches!(
            TenantBatch::chained(raw, &rows, &[1.0], 3),
            Err(RuntimeError::Serve(_))
        ));
        assert!(matches!(
            TenantBatch::chained(raw, &[], &[], 3),
            Err(RuntimeError::Serve(_))
        ));
        assert!(matches!(
            TenantBatch::from_rows(raw, &[vec![1.0], vec![1.0, 2.0]]),
            Err(RuntimeError::Serve(_))
        ));
    }

    #[test]
    fn register_rejects_duplicates_and_bad_normalizers() {
        let mut server = PipelineServer::new();
        let ir = dnn_ir(3, 1, Activation::Relu);
        let id = server.register_model("app", &ir, q(), None).unwrap();
        assert!(matches!(
            server.register_model("app", &ir, q(), None),
            Err(RuntimeError::Serve(_))
        ));
        assert!(matches!(
            server.register_model("", &ir, q(), None),
            Err(RuntimeError::Serve(_))
        ));
        let bad_norm = Normalizer {
            mean: vec![0.0; 5],
            std: vec![1.0; 5],
        };
        assert!(matches!(
            server.register_model("other", &ir, q(), Some(bad_norm)),
            Err(RuntimeError::Serve(_))
        ));
        // A std vector that does not cover every feature is just as
        // corrupting as a short mean — apply() would silently skip the
        // tail features.
        let short_std = Normalizer {
            mean: vec![0.0; 3],
            std: vec![1.0; 2],
        };
        assert!(matches!(
            server.register_model("other", &ir, q(), Some(short_std)),
            Err(RuntimeError::Serve(_))
        ));
        assert_eq!(server.tenant_count(), 1);
        assert_eq!(server.tenant_id("app"), Some(id));
        assert_eq!(id.index(), 0);
        assert_eq!(server.tenant_name(id), Some("app"));
        assert!(server.tenant_id("missing").is_none());
    }

    #[test]
    fn foreign_server_ids_are_rejected_everywhere() {
        let ir = dnn_ir(3, 1, Activation::Relu);
        let mut server = PipelineServer::new();
        server.register_model("app", &ir, q(), None).unwrap();
        // Same index (0), different server: must never route to 'app'.
        let mut other = PipelineServer::new();
        let foreign = other.register_model("impostor", &ir, q(), None).unwrap();
        assert_eq!(foreign.index(), 0);
        assert!(server.tenant_name(foreign).is_none());
        assert!(server.pipeline(foreign).is_none());
        assert!(matches!(
            server.serve(
                &[TenantBatch::new(foreign, packets(4, 3, 0))],
                &ServeOptions::default()
            ),
            Err(RuntimeError::Serve(_))
        ));
        assert!(matches!(
            server.run_chain(&[foreign], &packets(4, 3, 0)),
            Err(RuntimeError::Serve(_))
        ));
    }

    #[test]
    fn sigmoid_tenants_share_one_lut() {
        let mut server = PipelineServer::new();
        for seed in 0..5 {
            server
                .register_model(
                    &format!("app{seed}"),
                    &dnn_ir(4, seed, Activation::Sigmoid),
                    q(),
                    None,
                )
                .unwrap();
        }
        assert_eq!(server.luts().builds(), 1, "one LUT for five tenants");
        assert_eq!(server.luts().hits(), 4);
    }

    #[test]
    fn serve_matches_isolated_classification_for_any_pool_shape() {
        let mut server = PipelineServer::new();
        let ids: Vec<TenantId> = (0..3)
            .map(|seed| {
                server
                    .register_model(
                        &format!("app{seed}"),
                        &dnn_ir(4, seed, Activation::Sigmoid),
                        q(),
                        None,
                    )
                    .unwrap()
            })
            .collect();
        let batches: Vec<TenantBatch> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| TenantBatch::new(id, packets(37, 4, i as u64)))
            .collect();
        let isolated: Vec<Vec<usize>> = batches
            .iter()
            .map(|b| {
                server
                    .pipeline(b.tenant)
                    .unwrap()
                    .classify_batch(&b.features, 1)
            })
            .collect();
        for (workers, chunk) in [(1, 0), (2, 0), (2, 5), (4, 7), (8, 1)] {
            let output = server
                .serve(
                    &batches,
                    &ServeOptions::default().workers(workers).chunk_rows(chunk),
                )
                .unwrap();
            assert_eq!(
                output.verdicts(),
                &isolated[..],
                "workers={workers} chunk={chunk}"
            );
            assert_eq!(output.total_packets, 3 * 37);
        }
    }

    #[test]
    fn serve_applies_tenant_normalizer() {
        let mut server = PipelineServer::new();
        // Verdict = sign of (x0 - 10) after normalization: with mean 10
        // and std 1, raw feature 10.4 normalizes to 0.4 => class 1.
        let norm = Normalizer {
            mean: vec![10.0],
            std: vec![1.0],
        };
        let id = server
            .register_pipeline(
                "norm",
                svm_ir(vec![1.0], 0.0).compile(q()).unwrap(),
                Some(norm),
            )
            .unwrap();
        let features = Matrix::from_rows(&[vec![10.4], vec![9.4]]).unwrap();
        let output = server
            .serve(&[TenantBatch::new(id, features)], &ServeOptions::default())
            .unwrap();
        assert_eq!(output.verdicts()[0], vec![1, 0]);
    }

    #[test]
    fn stats_count_packets_histogram_and_oracle() {
        let mut server = PipelineServer::new();
        let id = server
            .register_pipeline(
                "svm",
                svm_ir(vec![1.0, 0.0], 0.0).compile(q()).unwrap(),
                None,
            )
            .unwrap();
        let features =
            Matrix::from_rows(&[vec![1.0, 0.0], vec![-1.0, 0.0], vec![2.0, 0.0]]).unwrap();
        let oracle = vec![1, 0, 0]; // last disagrees
        let output = server
            .serve(
                &[TenantBatch::new(id, features).with_oracle(oracle)],
                &ServeOptions::default().workers(2).chunk_rows(1),
            )
            .unwrap();
        let stats = &output.stats()[0];
        assert_eq!(stats.packets, 3);
        assert_eq!(stats.verdict_histogram, vec![1, 2]);
        assert_eq!(stats.oracle_packets, 3);
        assert_eq!(stats.oracle_agreements, 2);
        assert!((stats.oracle_agreement().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!(output.aggregate_pps() > 0.0);
    }

    #[test]
    fn serve_validates_inputs() {
        let mut server = PipelineServer::new();
        let id = server
            .register_model("app", &dnn_ir(4, 0, Activation::Relu), q(), None)
            .unwrap();
        // Unknown tenant: an id from a larger foreign server is out of
        // range here even before the tag check.
        let mut other = PipelineServer::new();
        other
            .register_model("x", &dnn_ir(4, 1, Activation::Relu), q(), None)
            .unwrap();
        let ghost = other
            .register_model("y", &dnn_ir(4, 2, Activation::Relu), q(), None)
            .unwrap();
        assert!(matches!(
            server.serve(
                &[TenantBatch::new(ghost, packets(4, 4, 0))],
                &ServeOptions::default()
            ),
            Err(RuntimeError::Serve(_))
        ));
        // Wrong feature width.
        assert!(matches!(
            server.serve(
                &[TenantBatch::new(id, packets(4, 3, 0))],
                &ServeOptions::default()
            ),
            Err(RuntimeError::Serve(_))
        ));
        // Oracle length mismatch.
        assert!(matches!(
            server.serve(
                &[TenantBatch::new(id, packets(4, 4, 0)).with_oracle(vec![0; 3])],
                &ServeOptions::default()
            ),
            Err(RuntimeError::Serve(_))
        ));
        // Empty batch list and empty batches are fine.
        let output = server.serve(&[], &ServeOptions::default()).unwrap();
        assert_eq!(output.total_packets, 0);
        let output = server
            .serve(
                &[TenantBatch::new(id, Matrix::zeros(0, 4))],
                &ServeOptions::default().workers(3),
            )
            .unwrap();
        assert_eq!(output.total_packets, 0);
        assert_eq!(output.verdicts()[0], Vec::<usize>::new());
    }

    #[test]
    fn chain_feeds_upstream_verdict_to_wider_stage() {
        let mut server = PipelineServer::new();
        // Stage 1: class 1 iff x0 >= 0.
        let first = server
            .register_pipeline(
                "first",
                svm_ir(vec![1.0, 0.0], 0.0).compile(q()).unwrap(),
                None,
            )
            .unwrap();
        // Stage 2 (3 features = 2 base + verdict): echoes the upstream
        // verdict — weight only on the appended feature, bias -0.5.
        let second = server
            .register_pipeline(
                "second",
                svm_ir(vec![0.0, 0.0, 1.0], -0.5).compile(q()).unwrap(),
                None,
            )
            .unwrap();
        let base = Matrix::from_rows(&[vec![0.5, 3.0], vec![-0.5, 3.0], vec![1.5, -3.0]]).unwrap();
        let staged = server.run_chain(&[first, second], &base).unwrap();
        assert_eq!(staged.len(), 2);
        assert_eq!(staged[0], vec![1, 0, 1]);
        assert_eq!(staged[1], staged[0], "stage 2 echoes stage 1's verdicts");
    }

    #[test]
    fn chain_with_equal_width_stage_ignores_verdicts() {
        let mut server = PipelineServer::new();
        let a = server
            .register_pipeline("a", svm_ir(vec![1.0, 0.0], 0.0).compile(q()).unwrap(), None)
            .unwrap();
        let b = server
            .register_pipeline("b", svm_ir(vec![0.0, 1.0], 0.0).compile(q()).unwrap(), None)
            .unwrap();
        let base = Matrix::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let staged = server.run_chain(&[a, b], &base).unwrap();
        assert_eq!(staged[0], vec![1, 0]);
        assert_eq!(staged[1], vec![0, 1]);
    }

    #[test]
    fn chain_validates_widths() {
        let mut server = PipelineServer::new();
        let narrow = server
            .register_pipeline("narrow", svm_ir(vec![1.0], 0.0).compile(q()).unwrap(), None)
            .unwrap();
        let wide = server
            .register_pipeline(
                "wide",
                svm_ir(vec![1.0, 0.0, 0.0, 0.0], 0.0).compile(q()).unwrap(),
                None,
            )
            .unwrap();
        let base = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            server.run_chain(&[], &base),
            Err(RuntimeError::Serve(_))
        ));
        // First stage must match the base width exactly.
        assert!(matches!(
            server.run_chain(&[narrow], &base),
            Err(RuntimeError::Serve(_))
        ));
        // A later stage may be cols or cols+1 wide, nothing else.
        let first = server
            .register_pipeline(
                "fit",
                svm_ir(vec![1.0, 0.0], 0.0).compile(q()).unwrap(),
                None,
            )
            .unwrap();
        assert!(matches!(
            server.run_chain(&[first, wide], &base),
            Err(RuntimeError::Serve(_))
        ));
    }
}
