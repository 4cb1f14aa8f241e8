//! Comparing two sets of benchmark results, metric by metric.
//!
//! A change *improved* a metric when it wins at least nine tenths of
//! the run pairs (ties count for neither side) and the medians differ by
//! more than the parent's own quartile spread. It *got worse* when its
//! median is worse than the parent's by more than the metric's bound.
//! When the parent's runs spread wider than the bound, a change that
//! neither improved nor beat every parent run is *unresolved* rather
//! than unchanged.

use crate::stats::{median, quartile_spread, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates, quality).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    fn is_better(self, candidate: f64, reference: f64) -> bool {
        match self {
            Better::Lower => candidate < reference,
            Better::Higher => candidate > reference,
        }
    }
}

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the pairs-won and spread rule.
    Improved,
    /// Worse by more than the bound.
    Worse,
    /// Neither improved nor worse by more than the bound.
    WithinBound,
    /// The parent spreads wider than the bound; no conclusion.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    /// Summarizes a non-empty set of runs.
    pub fn of(values: &[f64]) -> Side {
        let [q1, _, q3] = quartiles(values);
        Side {
            q1,
            median: median(values),
            q3,
        }
    }
}

/// The comparison of one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The parent's runs.
    pub parent: Side,
    /// The change's runs.
    pub change: Side,
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
    /// The outcome.
    pub verdict: Verdict,
}

/// Compares paired runs of a parent and a change. `parent[i]` and
/// `change[i]` form pair `i`; unpaired trailing runs still count toward
/// the medians.
///
/// # Panics
///
/// Panics when either side has no runs.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let p = Side::of(parent);
    let c = Side::of(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&a, &b)| better.is_better(b, a))
        .count();
    let improved = pairs > 0
        && wins * 10 >= pairs * 9
        && better.is_better(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1;
    let beats_every_run = change
        .iter()
        .all(|&b| parent.iter().all(|&a| better.is_better(b, a)));
    let worse_by = match better {
        Better::Lower => c.median - p.median,
        Better::Higher => p.median - c.median,
    };
    let verdict = if improved {
        Verdict::Improved
    } else if quartile_spread(parent) > bound && !beats_every_run {
        Verdict::Unresolved
    } else if worse_by > bound * p.median.abs() {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    Comparison {
        parent: p,
        change: c,
        pairs,
        wins,
        verdict,
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Better direction.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the `end_to_end` metric specs from a `BENCHMARK.json` document.
///
/// # Errors
///
/// Describes the first malformed entry.
pub fn end_to_end_specs(benchmark: &Value) -> Result<Vec<MetricSpec>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_str)
                    .ok_or(format!("end_to_end entry lacks a string '{key}'"))
            };
            Ok(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better: Better::parse(field("better")?).ok_or("better must be lower or higher")?,
                bound: entry
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry lacks a numeric bound")?,
            })
        })
        .collect()
}

/// Untraced runs of a result directory: workload → seed → metric → value.
pub type ResultSet = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

/// Loads every untraced result file (`*.json` with `"trace": 0`) in `dir`.
///
/// # Errors
///
/// Reports unreadable directories and malformed result files.
pub fn load_results(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{}: no workload", path.display()))?;
        let seed = doc
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or(format!("{}: no seed", path.display()))? as u64;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("{}: no metrics", path.display()))?;
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        set.entry(workload.to_string())
            .or_default()
            .insert(seed, values);
    }
    Ok(set)
}

/// Values of `metric` for a workload's runs, paired by seed: runs on
/// seeds both sides have come first, in seed order, then the rest.
fn paired(
    parent: &BTreeMap<u64, BTreeMap<String, f64>>,
    change: &BTreeMap<u64, BTreeMap<String, f64>>,
    metric: &str,
) -> (Vec<f64>, Vec<f64>) {
    let ordered = |own: &BTreeMap<u64, BTreeMap<String, f64>>,
                   other: &BTreeMap<u64, BTreeMap<String, f64>>| {
        let shared = own.iter().filter(|(seed, _)| other.contains_key(seed));
        let rest = own.iter().filter(|(seed, _)| !other.contains_key(seed));
        shared
            .chain(rest)
            .filter_map(|(_, metrics)| metrics.get(metric).copied())
            .collect::<Vec<f64>>()
    };
    (ordered(parent, change), ordered(change, parent))
}

/// Renders the comparison table of two result sets.
pub fn render(parent: &ResultSet, change: &ResultSet, specs: &[MetricSpec]) -> String {
    let mut out = format!(
        "{:<12} {:<22} {:>34} {:>34} {:>9}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    for (workload, parent_runs) in parent {
        let Some(change_runs) = change.get(workload) else {
            out.push_str(&format!("{workload:<12} (no runs in the change set)\n"));
            continue;
        };
        for spec in specs {
            let (a, b) = paired(parent_runs, change_runs, &spec.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let c = judge(&a, &b, spec.better, spec.bound);
            let side = |s: Side| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            out.push_str(&format!(
                "{workload:<12} {:<22} {:>34} {:>34} {:>9}  {}\n",
                format!("{} ({})", spec.name, spec.unit),
                side(c.parent),
                side(c.change),
                format!("{}/{}", c.wins, c.pairs),
                c.verdict
            ));
        }
    }
    out
}
