#![forbid(unsafe_code)]
//! `perfbench`: the end-to-end and per-layer benchmark of the
//! compile → serve → fleet path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! perfbench compare <parent results dir> <change results dir>
//! perfbench capacity [--seed <n>] [--seconds <s>]
//! ```
//!
//! A run prints every metric by name and unit, then a host line, and
//! as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics of `BENCHMARK.json`
//! for `--trace 0`, its per-layer metrics for `--trace 1`. It also
//! writes the result, with its host block, to the results directory,
//! and a traced run writes its spans there.

mod workloads;

use perfbench::compare;
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::serve::Mode;
use workloads::{RunSpec, NAMES};

const BENCHMARK: &str = "BENCHMARK.json";
const RESULTS_DIR: &str = "perfbench/results";

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
    out: PathBuf,
}

fn value<'a>(
    flag: &str,
    iter: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a String, String> {
    iter.next().ok_or(format!("{flag} needs a value"))
}

fn seconds(text: &str) -> Result<Duration, String> {
    text.parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
        .map(Duration::from_secs_f64)
        .ok_or(format!("--seconds takes a positive number, got '{text}'"))
}

fn parse_run(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut secs, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(RESULTS_DIR);
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let v = value(flag, &mut iter)?;
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed '{v}'"))?),
            "--seconds" => secs = Some(seconds(v)?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                })
            }
            "--out" => out = PathBuf::from(v),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: secs.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(benchmark: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("{BENCHMARK} has no '{key}' list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
            Ok((
                field("name").ok_or(format!("a '{key}' entry has no name"))?,
                field("unit").ok_or(format!("a '{key}' entry has no unit"))?,
            ))
        })
        .collect()
}

/// Orders the outcome's metrics as `BENCHMARK.json` declares them,
/// checking units. A per-layer metric of a layer the workload leaves
/// idle reads 0; a missing end-to-end metric is an error.
fn assemble(
    measured: &[(&'static str, f64, &'static str)],
    wanted: &[(String, String)],
    trace: bool,
) -> Result<Map, String> {
    for (name, _, _) in measured {
        if !wanted.iter().any(|(w, _)| w == name) {
            return Err(format!("metric '{name}' is not declared in {BENCHMARK}"));
        }
    }
    let mut metrics = Map::new();
    for (name, unit) in wanted {
        let value = match measured.iter().find(|(n, _, _)| n == name) {
            Some((_, v, u)) if u == unit && v.is_finite() => *v,
            Some((_, v, u)) => {
                return Err(format!("metric '{name}' = {v} {u}, declared in {unit}"))
            }
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric '{name}' was not measured")),
        };
        metrics.insert(name.clone(), json!({"value": value, "unit": unit.as_str()}));
    }
    Ok(metrics)
}

fn run_main(argv: &[String]) -> ExitCode {
    let args = match parse_run(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let wanted = match read_json(Path::new(BENCHMARK)).and_then(|b| {
        declared(
            &b,
            if args.trace {
                "per_layer"
            } else {
                "end_to_end"
            },
        )
    }) {
        Ok(wanted) => wanted,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = RunSpec {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        origin: Instant::now(),
    };
    let result = match args.workload.as_str() {
        "compile" => workloads::compile::run(&spec),
        "serve_bulk" => workloads::serve::run(&spec, Mode::Bulk),
        _ => workloads::serve::run(&spec, Mode::Burst),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = match assemble(&outcome.metrics, &wanted, args.trace) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = perfbench::host_block(args.seed);
    let notes: Map = outcome
        .notes
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let summary = json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics.clone()),
    });
    let trace = u8::from(args.trace);
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let mut record = json!({
        "schema": "homunculus.perfbench/v1",
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "trace": trace,
        "seconds": args.seconds.as_secs_f64(),
        "host": host.clone(),
        "notes": Value::Object(notes.clone()),
    });
    if let (Value::Object(record), Value::Object(summary)) = (&mut record, &summary) {
        for (key, value) in summary.iter() {
            record.insert(key.clone(), value.clone());
        }
    }
    if let Err(e) = write_outputs(&args.out, &stem, trace, &record, outcome.tracer.as_ref()) {
        eprintln!(
            "perfbench: could not write results under {}: {e}",
            args.out.display()
        );
    }

    println!(
        "{} (seed {}, {} s, trace {trace})",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64()
    );
    for (name, m) in metrics.iter() {
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("  {name:<34} {v:>18.6} {unit}");
    }
    println!(
        "  notes {}",
        serde_json::to_string(&Value::Object(notes)).unwrap_or_default()
    );
    println!(
        "{}",
        serde_json::to_string(&json!({"host": host})).unwrap_or_default()
    );
    println!("{}", serde_json::to_string(&summary).unwrap_or_default());
    ExitCode::SUCCESS
}

fn write_outputs(
    dir: &Path,
    stem: &str,
    trace: u8,
    record: &Value,
    tracer: Option<&perfbench::trace::Tracer>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let text = serde_json::to_string_pretty(record).map_err(std::io::Error::other)?;
    std::fs::write(dir.join(format!("{stem}-trace{trace}.json")), text)?;
    if let Some(tracer) = tracer {
        tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

fn compare_main(argv: &[String]) -> ExitCode {
    let [parent, change] = argv else {
        eprintln!("usage: perfbench compare <parent results dir> <change results dir>");
        return ExitCode::from(2);
    };
    let loaded = read_json(Path::new(BENCHMARK))
        .and_then(|b| compare::end_to_end_specs(&b))
        .and_then(|specs| {
            Ok((
                specs,
                compare::load_results(Path::new(parent))?,
                compare::load_results(Path::new(change))?,
            ))
        });
    match loaded {
        Ok((specs, a, b)) => {
            print!("{}", compare::render(&a, &b, &specs));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn capacity_main(argv: &[String]) -> ExitCode {
    let mut seed = 1;
    let mut secs = Duration::from_secs(10);
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let parsed = value(flag, &mut iter).and_then(|v| match flag.as_str() {
            "--seed" => v
                .parse()
                .map(|s| seed = s)
                .map_err(|_| format!("bad --seed '{v}'")),
            "--seconds" => seconds(v).map(|s| secs = s),
            other => Err(format!("unknown flag '{other}'")),
        });
        if let Err(e) = parsed {
            eprintln!("perfbench capacity: {e}");
            return ExitCode::from(2);
        }
    }
    match workloads::serve::capacity(seed, secs) {
        Ok(tickets) => {
            println!("closed-loop capacity: {tickets:.0} tickets/s of 16 rows");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench capacity: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => compare_main(&argv[1..]),
        Some("capacity") => capacity_main(&argv[1..]),
        _ => run_main(&argv),
    }
}
