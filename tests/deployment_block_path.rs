//! `Deployment` workers classify each chunk through the 32-row block
//! kernels. These tests pin that path against the sequential per-row
//! reference for every model family, with and without a normalizer, at
//! chunk sizes on both sides of the 32-row block and on tickets whose
//! sizes are not multiples of 32.

use homunculus::backends::model::{DnnIr, ForestIr, KMeansIr, ModelIr, SvmIr, TreeIr};
use homunculus::ml::forest::{ForestConfig, RandomForestClassifier};
use homunculus::ml::kmeans::{KMeans, KMeansConfig};
use homunculus::ml::mlp::{Mlp, MlpArchitecture, TrainConfig};
use homunculus::ml::preprocess::Normalizer;
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::svm::{LinearSvm, SvmConfig};
use homunculus::ml::tensor::Matrix;
use homunculus::ml::tree::{DecisionTreeClassifier, TreeConfig};
use homunculus::runtime::{
    classify_rows, Compile, CompiledPipeline, Deployment, TenantBatch, TenantId,
};

const FEATURES: usize = 5;
const CHUNK_ROWS: [usize; 6] = [0, 1, 31, 32, 33, 100];
const TICKET_ROWS: [usize; 5] = [1, 7, 45, 97, 130];

/// Raw traffic sits around 20 with a spread of ~5, so serving it without
/// the normalizer would land far outside the models' training range.
fn normalizer() -> Normalizer {
    Normalizer {
        mean: vec![20.0, 18.0, 22.0, 20.0, 19.0],
        std: vec![5.0, 4.0, 6.0, 5.0, 3.0],
    }
}

fn raw_rows(rows: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, FEATURES, |r, c| {
        let wave = ((r * 37 + c * 11 + salt * 7) % 101) as f32 / 101.0;
        10.0 + 20.0 * wave
    })
}

fn normalized(raw: &Matrix, normalizer: &Normalizer) -> Matrix {
    let mut x = raw.clone();
    for r in 0..x.rows() {
        normalizer.apply(x.row_mut(r));
    }
    x
}

/// Every family the runtime lowers, trained on normalized features, plus
/// one scalar-tier pipeline.
fn pipelines() -> Vec<(String, CompiledPipeline)> {
    let norm = normalizer();
    let x = normalized(&raw_rows(400, 0), &norm);
    let y3: Vec<usize> = x
        .iter_rows()
        .map(|row| {
            let score = row[0] + 0.5 * row[1] - row[3];
            if score < -0.4 {
                0
            } else if score < 0.4 {
                1
            } else {
                2
            }
        })
        .collect();
    let y2: Vec<usize> = y3.iter().map(|&c| usize::from(c == 2)).collect();

    let arch = MlpArchitecture::new(FEATURES, vec![8], 3);
    let mut net = Mlp::new(&arch, 7).unwrap();
    net.train(&x, &y3, &TrainConfig::default().epochs(30))
        .unwrap();
    let dnn = ModelIr::Dnn(DnnIr::from_mlp(&net));
    let svm2 = LinearSvm::fit(&x, &y2, 2, &SvmConfig::default()).unwrap();
    let svm3 = LinearSvm::fit(&x, &y3, 3, &SvmConfig::default()).unwrap();
    let km = KMeans::fit(&x, &KMeansConfig::new(3)).unwrap();
    let tree = DecisionTreeClassifier::fit(&x, &y3, 3, &TreeConfig::default()).unwrap();
    let forest =
        RandomForestClassifier::fit(&x, &y3, 3, &ForestConfig::default().n_trees(4)).unwrap();

    let q = FixedPoint::taurus_default();
    let mut out: Vec<(String, CompiledPipeline)> = [
        ("dnn", dnn.clone()),
        ("svm_binary", ModelIr::Svm(SvmIr::from_svm(&svm2))),
        ("svm_multiclass", ModelIr::Svm(SvmIr::from_svm(&svm3))),
        (
            "kmeans",
            ModelIr::KMeans(KMeansIr::from_kmeans(&km, FEATURES)),
        ),
        ("tree", ModelIr::Tree(TreeIr::from_tree(&tree))),
        ("forest", ModelIr::Forest(ForestIr::from_forest(&forest))),
    ]
    .into_iter()
    .map(|(name, ir)| (name.to_string(), ir.compile(q).unwrap()))
    .collect();
    let scalar = CompiledPipeline::from_ir_scalar(&dnn, q).unwrap();
    assert!(scalar.packed_width().is_none());
    out.push(("dnn_scalar".to_string(), scalar));
    out
}

/// A registered tenant: name, id, whether it normalizes, and its pipeline.
type Tenant = (String, TenantId, bool, CompiledPipeline);

/// Registers every pipeline twice, once fed pre-normalized traffic and
/// once fed raw traffic behind the normalizer.
fn register(deployment: &Deployment, pipelines: &[(String, CompiledPipeline)]) -> Vec<Tenant> {
    let mut tenants = Vec::new();
    for (name, pipeline) in pipelines {
        for with_norm in [false, true] {
            let tenant_name = format!("{name}{}", if with_norm { "+norm" } else { "" });
            let id = deployment
                .add_tenant(&tenant_name, pipeline.clone(), with_norm.then(normalizer))
                .unwrap();
            tenants.push((tenant_name, id, with_norm, pipeline.clone()));
        }
    }
    tenants
}

#[test]
fn block_path_verdicts_match_the_per_row_reference() {
    let pipelines = pipelines();
    let norm = normalizer();
    for chunk_rows in CHUNK_ROWS {
        let deployment = Deployment::builder()
            .workers(2)
            .chunk_rows(chunk_rows)
            .queue_depth(256)
            .build();
        let tenants = register(&deployment, &pipelines);
        let mut pending = Vec::new();
        for (t, (name, id, with_norm, pipeline)) in tenants.iter().enumerate() {
            for (k, &rows) in TICKET_ROWS.iter().enumerate() {
                let raw = raw_rows(rows, 1 + t * TICKET_ROWS.len() + k);
                let by_hand = normalized(&raw, &norm);
                let expected = classify_rows(pipeline, &by_hand);
                let served = if *with_norm { raw } else { by_hand };
                let batch = TenantBatch::new(*id, served).with_oracle(expected.clone());
                pending.push((
                    name.clone(),
                    rows,
                    expected,
                    deployment.submit(batch).unwrap(),
                ));
            }
        }
        let mut classes = std::collections::BTreeMap::<String, Vec<usize>>::new();
        for (name, rows, expected, ticket) in pending {
            let verdicts = ticket.wait();
            assert_eq!(
                verdicts.as_slice(),
                expected.as_slice(),
                "{name}: {rows}-row ticket, chunk_rows {chunk_rows}"
            );
            assert_eq!(verdicts.cancelled_rows(), 0);
            classes.entry(name).or_default().extend(expected);
        }
        for (name, verdicts) in &classes {
            let first = verdicts[0];
            assert!(
                verdicts.iter().any(|&v| v != first),
                "{name}: every verdict is {first}, so the comparison proves little"
            );
        }

        deployment.drain();
        let stats = deployment.stats_snapshot();
        let per_tenant: usize = TICKET_ROWS.iter().sum();
        for tenant in &stats.tenants {
            assert_eq!(tenant.packets, per_tenant, "{}", tenant.name);
            assert_eq!(
                tenant.latency_samples, tenant.packets as u64,
                "{}: chunk_rows {chunk_rows}",
                tenant.name
            );
            assert_eq!(tenant.oracle_agreement(), Some(1.0), "{}", tenant.name);
            assert!(tenant.mean_ns > 0.0, "{}", tenant.name);
        }
        deployment.shutdown();
    }
}

#[test]
fn cancelled_tickets_zero_fill_and_stay_out_of_the_stats() {
    let pipelines = pipelines();
    let norm = normalizer();
    for chunk_rows in CHUNK_ROWS {
        // Paused, so the cancellation lands before any chunk is
        // classified and every row of the cancelled tickets is skipped.
        let deployment = Deployment::builder()
            .workers(2)
            .chunk_rows(chunk_rows)
            .queue_depth(256)
            .paused(true)
            .build();
        let tenants = register(&deployment, &pipelines);
        let mut served_rows = vec![0usize; tenants.len()];
        let mut pending = Vec::new();
        for (t, (name, id, with_norm, pipeline)) in tenants.iter().enumerate() {
            for (k, &rows) in TICKET_ROWS.iter().enumerate() {
                let raw = raw_rows(rows, 3 + t + k);
                let by_hand = normalized(&raw, &norm);
                let cancel = k % 2 == 1;
                let expected = if cancel {
                    vec![0; rows]
                } else {
                    served_rows[t] += rows;
                    classify_rows(pipeline, &by_hand)
                };
                let served = if *with_norm { raw } else { by_hand };
                let ticket = deployment.submit(TenantBatch::new(*id, served)).unwrap();
                if cancel {
                    assert!(ticket.cancel());
                }
                pending.push((name.clone(), cancel, expected, ticket));
            }
        }
        deployment.resume();
        for (name, cancel, expected, ticket) in pending {
            let verdicts = ticket.wait();
            assert_eq!(
                verdicts.as_slice(),
                expected.as_slice(),
                "{name}: chunk_rows {chunk_rows}, cancelled {cancel}"
            );
            let skipped = if cancel { expected.len() } else { 0 };
            assert_eq!(verdicts.cancelled_rows(), skipped, "{name}");
        }

        deployment.drain();
        let stats = deployment.stats_snapshot();
        assert_eq!(stats.cancelled_tickets, (tenants.len() * 2) as u64);
        for (tenant, &rows) in stats.tenants.iter().zip(&served_rows) {
            assert_eq!(tenant.packets, rows, "{}", tenant.name);
            assert_eq!(tenant.latency_samples, rows as u64, "{}", tenant.name);
        }
        deployment.shutdown();
    }
}
