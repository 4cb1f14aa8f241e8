#![forbid(unsafe_code)]
//! Library half of the benchmark: statistics, calibrated timing,
//! spans, result comparison and the host block. The workloads live in
//! the `perfbench` binary.

pub mod compare;
pub mod stats;
pub mod timing;
pub mod trace;

use serde_json::{json, Value};
use std::process::Command;

/// What the result was measured on: cores, CPU model, toolchain,
/// source revision, enabled cargo features and the workload seed.
pub fn host_block(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut features = Vec::new();
    if cfg!(feature = "simd") {
        features.push("simd");
    }
    json!({
        "nproc": nproc,
        "cpu": cpu,
        "rustc": command_line("rustc", &["--version"]),
        "git_rev": git_rev(),
        "features": features,
        "seed": seed,
    })
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The source revision when the working directory is a git checkout;
/// git is kept from searching above it.
fn git_rev() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.to_path_buf()));
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(ceiling) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    cmd.output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor has taken from this machine's virtual CPUs
/// since boot, in clock ticks, summed over CPUs (the `steal` column of
/// `/proc/stat`); 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|ticks| ticks.parse().ok())
        })
        .unwrap_or(0)
}
