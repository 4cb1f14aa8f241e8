//! Portable compile artifacts: save → load → serve, bit-identically.
//!
//! The session redesign's "compile once, serve forever" contract: a
//! [`CompiledArtifact`] written with `save_json` and reloaded with
//! `load_json` must drive `build_deployment` with **bit-identical
//! verdicts** to the in-process artifact, under any worker count. The
//! golden half pins the same contract on the frozen handcrafted tenants:
//! their IRs round-trip through the `ModelIr` JSON form and must still
//! reproduce the serving checksum `50_483` pinned since PR 3.

use homunculus::backends::model::{DnnIr, LayerParams, ModelIr, SvmIr};
use homunculus::core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus::core::pipeline::{CompiledArtifact, CompilerOptions};
use homunculus::core::session::Compiler;
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::ml::mlp::MlpArchitecture;
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::runtime::{Deployment, TenantBatch};
use serde_json::ToJson;

/// A deterministic small AD compile (same knobs as the core tests).
fn compile_ad() -> CompiledArtifact {
    let spec = ModelSpec::builder("anomaly_detection")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(1).generate(700))
        .build()
        .unwrap();
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(spec).unwrap();
    let options = CompilerOptions {
        bo_budget: 6,
        doe_samples: 3,
        train_epochs: 10,
        final_epochs: 20,
        sample_cap: Some(500),
        parallel: true,
        seed: 0,
        time_budget: None,
    };
    Compiler::new(options)
        .open(&platform)
        .unwrap()
        .compile()
        .unwrap()
}

/// Serves the frozen NSL-KDD stream through a deployment built from
/// `artifact` with `workers` resident threads; returns per-tenant
/// verdicts in schedule order.
fn serve_frozen_stream(artifact: &CompiledArtifact, workers: usize) -> Vec<Vec<usize>> {
    let stream = NslKddGenerator::new(42).generate(200);
    let deployment = artifact
        .build_deployment(Deployment::builder().workers(workers).chunk_rows(7))
        .unwrap();
    let tickets: Vec<_> = artifact
        .reports()
        .iter()
        .map(|report| {
            let tenant = deployment.tenant_id(&report.name).unwrap();
            deployment
                .submit(TenantBatch::new(tenant, stream.features().clone()))
                .unwrap()
        })
        .collect();
    let verdicts = tickets
        .into_iter()
        .map(|ticket| ticket.wait().into_vec())
        .collect();
    deployment.shutdown();
    verdicts
}

#[test]
fn saved_artifact_reloads_and_serves_bit_identically() {
    let artifact = compile_ad();
    let path = std::env::temp_dir().join("homunculus_portability_test.artifact.json");
    artifact.save_json(&path).unwrap();
    let reloaded = CompiledArtifact::load_json(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // The decoded state is equal field by field...
    assert_eq!(reloaded.best().ir, artifact.best().ir);
    assert_eq!(reloaded.best().normalizer, artifact.best().normalizer);
    assert_eq!(reloaded.best().objective, artifact.best().objective);
    assert_eq!(reloaded.best().history, artifact.best().history);
    assert_eq!(reloaded.code(), artifact.code());

    // ...and the serving behaviour is bit-identical across pool shapes.
    for workers in [1, 2, 4] {
        assert_eq!(
            serve_frozen_stream(&artifact, workers),
            serve_frozen_stream(&reloaded, workers),
            "workers={workers}: reloaded artifact diverged from the in-process one"
        );
    }
}

#[test]
fn double_roundtrip_is_stable() {
    // JSON -> artifact -> JSON must be a fixed point: no drift on
    // repeated save/load cycles (floats print in shortest
    // round-trippable form, so the second encode is byte-identical).
    let artifact = compile_ad();
    let once = artifact.to_json_string().unwrap();
    let twice = CompiledArtifact::from_json_str(&once)
        .unwrap()
        .to_json_string()
        .unwrap();
    assert_eq!(
        once, twice,
        "artifact JSON is not a serialization fixed point"
    );
}

/// The handcrafted trained DNN IR from `golden_determinism.rs` (rational
/// weights, ReLU — no libm anywhere on the path).
fn handcrafted_dnn_ir() -> ModelIr {
    let arch = MlpArchitecture::new(7, vec![8], 2);
    let dims = arch.layer_dims();
    let params: Vec<LayerParams> = dims
        .iter()
        .enumerate()
        .map(|(layer, &(input, output))| LayerParams {
            weights: Matrix::from_fn(input, output, |r, c| {
                ((layer * 59 + r * 31 + c * 17) % 23) as f32 / 23.0 - 0.5
            }),
            bias: (0..output)
                .map(|j| ((layer * 13 + j * 7) % 11) as f32 / 11.0 - 0.5)
                .collect(),
        })
        .collect();
    ModelIr::Dnn(DnnIr {
        arch,
        params: Some(params),
    })
}

/// The handcrafted binary SVM IR from `golden_determinism.rs`.
fn handcrafted_svm_ir() -> ModelIr {
    ModelIr::Svm(SvmIr {
        n_features: 7,
        n_classes: 2,
        planes: Some((
            vec![(0..7).map(|c| (c as f32 - 3.0) / 4.0).collect()],
            vec![0.25],
        )),
    })
}

#[test]
fn golden_serving_checksum_survives_ir_json_roundtrip() {
    // The PR-3 golden: two handcrafted tenants over the frozen stream,
    // position-weighted checksum 50_483. Here both IRs take a detour
    // through their portable JSON form before deployment — the checksum
    // must not move by a single bit, under 1/2/4 workers.
    let ds = NslKddGenerator::new(42).generate(200);
    let norm = ds.fit_normalizer();
    let nds = ds.normalized(&norm).unwrap();
    let format = FixedPoint::taurus_default();

    let roundtrip = |ir: &ModelIr| -> ModelIr {
        let text = serde_json::to_string(&ir.to_json()).unwrap();
        ModelIr::from_json(&serde_json::from_str(&text).unwrap()).unwrap()
    };
    let dnn_ir = roundtrip(&handcrafted_dnn_ir());
    let svm_ir = roundtrip(&handcrafted_svm_ir());
    assert_eq!(dnn_ir, handcrafted_dnn_ir(), "dnn IR drifted through JSON");
    assert_eq!(svm_ir, handcrafted_svm_ir(), "svm IR drifted through JSON");

    for workers in [1, 2, 4] {
        let deployment = Deployment::builder().workers(workers).chunk_rows(7).build();
        let dnn = deployment
            .add_model("dnn_app", &dnn_ir, format, None)
            .unwrap();
        let svm = deployment
            .add_model("svm_app", &svm_ir, format, None)
            .unwrap();
        let tickets = [
            deployment
                .submit(TenantBatch::new(dnn, nds.features().clone()))
                .unwrap(),
            deployment
                .submit(TenantBatch::new(svm, nds.features().clone()))
                .unwrap(),
        ];
        let verdicts: Vec<Vec<usize>> = tickets
            .into_iter()
            .map(|ticket| ticket.wait().into_vec())
            .collect();
        let checksum: usize = verdicts
            .iter()
            .enumerate()
            .map(|(batch, verdicts)| {
                verdicts
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| v * (i + 1) * (batch * 2 + 1))
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(
            checksum, 50_483,
            "workers={workers}: golden serving checksum drifted through the IR JSON roundtrip"
        );
        deployment.shutdown();
    }
}

#[test]
fn partial_artifact_roundtrips_with_its_flag() {
    // A cancelled session's partial artifact persists as partial and
    // still serves after reload.
    let spec = ModelSpec::builder("ad")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(1).generate(500))
        .build()
        .unwrap();
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(spec).unwrap();
    let compiler = Compiler::new(CompilerOptions {
        bo_budget: 6,
        doe_samples: 3,
        train_epochs: 8,
        final_epochs: 12,
        sample_cap: Some(400),
        parallel: true,
        seed: 0,
        time_budget: None,
    });
    compiler.cancel_token().cancel();
    let artifact = compiler.open(&platform).unwrap().compile().unwrap();
    assert!(artifact.is_partial());

    let reloaded = CompiledArtifact::from_json_str(&artifact.to_json_string().unwrap()).unwrap();
    assert!(reloaded.is_partial(), "partial flag lost in the JSON form");
    assert_eq!(
        serve_frozen_stream(&artifact, 2),
        serve_frozen_stream(&reloaded, 2)
    );
}

/// FNV-1a over a byte string: a compact pin for a whole document.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(json length, json hash, HJB1 length, HJB1 hash)` of an artifact.
fn document_pins(artifact: &CompiledArtifact) -> (usize, u64, usize, u64) {
    let json = artifact.to_json_string().unwrap();
    let bin = artifact.to_bin_bytes();
    (json.len(), fnv1a(json.as_bytes()), bin.len(), fnv1a(&bin))
}

/// A seeded two-model chain of decision trees (the combined code is then
/// more than one report's code).
fn compile_tree_chain() -> CompiledArtifact {
    let spec = |name: &str, seed: u64| {
        ModelSpec::builder(name)
            .optimization_metric(Metric::F1)
            .algorithm(Algorithm::DecisionTree)
            .data(NslKddGenerator::new(seed).generate(600))
            .build()
            .unwrap()
    };
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform
        .schedule(spec("ad", 3) >> spec("ad_next", 4))
        .unwrap();
    let options = CompilerOptions {
        bo_budget: 6,
        doe_samples: 3,
        train_epochs: 10,
        final_epochs: 20,
        sample_cap: Some(500),
        parallel: true,
        seed: 5,
        time_budget: None,
    };
    Compiler::new(options)
        .open(&platform)
        .unwrap()
        .compile()
        .unwrap()
}

/// A seeded one-model compile over every default family.
fn compile_all_families() -> CompiledArtifact {
    let spec = ModelSpec::builder("anomaly_detection")
        .optimization_metric(Metric::F1)
        .data(NslKddGenerator::new(2).generate(600))
        .build()
        .unwrap();
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(spec).unwrap();
    let options = CompilerOptions {
        bo_budget: 6,
        doe_samples: 3,
        train_epochs: 8,
        final_epochs: 12,
        sample_cap: Some(400),
        parallel: true,
        seed: 1,
        time_budget: None,
    };
    Compiler::new(options)
        .open(&platform)
        .unwrap()
        .compile()
        .unwrap()
}

#[test]
fn artifact_bytes_match_their_pins() {
    // The JSON and HJB1 documents of two seeded compiles, pinned by
    // length and hash. The in-memory artifact may share histories and
    // elide a duplicate combined code; the wire bytes must not move.
    let single = compile_all_families();
    assert_eq!(single.reports().len(), 1);
    assert_eq!(single.code(), single.best().code);
    assert_eq!(
        document_pins(&single),
        (42_559, 0x64e4_daf5_2d50_9ba4, 13_292, 0x5780_4dd0_68db_da85),
        "one-model compile"
    );

    let chain = compile_tree_chain();
    assert_eq!(chain.reports().len(), 2);
    assert_ne!(chain.code(), chain.best().code);
    assert_eq!(
        document_pins(&chain),
        (56_337, 0x2f02_e8e6_069d_13a5, 27_561, 0x6ab9_9ae1_5059_15e2),
        "two-model chain"
    );
}
