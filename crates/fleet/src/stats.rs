//! Fleet-wide serving statistics and wall-clock calibration.
//!
//! [`FleetStats`] (built by [`Fleet::stats`](crate::fleet::Fleet::stats))
//! rolls the per-tenant deployment snapshots up three levels: per
//! switch, per role, and fleet-wide, with gated-flow accounting from the
//! run report and a Jain fairness index over edge-switch load.
//!
//! [`Calibration`] relates the *measured* wall-clock classify latency of
//! a deployed model to the *simulated* cycle-accurate latency the grid
//! simulator predicts for the same IR on a Taurus switch — the ratio
//! that turns software-serving numbers into hardware estimates.

use crate::topology::SwitchRole;
use crate::Result;
use homunculus_backends::model::ModelIr;
use homunculus_backends::taurus::TaurusTarget;
use homunculus_sim::grid::GridSimulator;
use serde::{Deserialize, Serialize};

/// One switch's aggregated serving stats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchStats {
    /// Switch name (see [`crate::topology::Switch::name`]).
    pub name: String,
    /// Fabric tier.
    pub role: SwitchRole,
    /// Packets classified by this switch since its deployment launched.
    pub packets: usize,
    /// Verdict counts indexed by class, summed over tenants.
    pub verdict_histogram: Vec<usize>,
    /// Approximate median classify latency: the packet-weighted mean of
    /// tenant medians (tenant histograms cannot be merged exactly).
    pub p50_ns: u64,
    /// Upper bound on tail latency: the max of tenant p99s.
    pub p99_ns: u64,
    /// Packet-weighted mean classify latency.
    pub mean_ns: f64,
    /// Rows this switch forwarded in the reported run.
    pub forwarded: u64,
    /// Rows this switch gated (dropped) in the reported run.
    pub gated: u64,
}

/// One role's rollup across its switches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoleStats {
    /// The tier.
    pub role: SwitchRole,
    /// Switches of this role.
    pub switches: usize,
    /// Packets classified across them.
    pub packets: usize,
    /// Verdict counts indexed by class.
    pub verdict_histogram: Vec<usize>,
    /// Rows forwarded in the reported run.
    pub forwarded: u64,
    /// Rows gated in the reported run.
    pub gated: u64,
}

/// Fleet-wide aggregation over one [`FleetReport`](crate::fleet::FleetReport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Per-switch stats, indexed by switch id.
    pub switches: Vec<SwitchStats>,
    /// Per-role rollups (roles with no switches omitted).
    pub roles: Vec<RoleStats>,
    /// Packets classified fleet-wide.
    pub total_packets: usize,
    /// Fleet-wide verdict counts indexed by class.
    pub verdict_histogram: Vec<usize>,
    /// Rows forwarded fleet-wide in the reported run.
    pub forwarded_rows: u64,
    /// Rows gated fleet-wide in the reported run.
    pub gated_rows: u64,
    /// Jain fairness index of per-edge-switch packet load (1.0 = every
    /// edge switch served the same number of packets).
    pub edge_fairness: f64,
}

impl FleetStats {
    /// The rollup for one role, if any switch has it.
    pub fn role(&self, role: SwitchRole) -> Option<&RoleStats> {
        self.roles.iter().find(|r| r.role == role)
    }
}

/// Jain's fairness index: `(sum x)^2 / (n * sum x^2)`, in `(0, 1]`
/// with 1.0 meaning perfectly even load. Degenerate inputs (empty, or
/// all-zero loads) report 1.0 — nothing is unfairly loaded.
pub fn jain_fairness(loads: &[f64]) -> f64 {
    let sum: f64 = loads.iter().sum();
    let squares: f64 = loads.iter().map(|x| x * x).sum();
    if loads.is_empty() || squares <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (loads.len() as f64 * squares)
}

/// Measured-vs-simulated latency for one model: the fleet harness's
/// wall-clock calibration against the cycle-accurate grid simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Mean wall-clock classify latency measured while serving, in ns
    /// per packet (each chunk's block time ÷ its rows).
    pub measured_mean_ns: f64,
    /// Latency the grid simulator predicts for the same IR on a default
    /// Taurus grid, in ns.
    pub simulated_latency_ns: f64,
    /// `measured / simulated`: > 1 means software serving is slower than
    /// the simulated hardware (the expected regime).
    pub wall_to_cycle_ratio: f64,
}

impl Calibration {
    /// Calibrates a measured mean latency against the grid simulator's
    /// cycle count for `ir` on a default Taurus target.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FleetError::Simulation`] when the IR cannot be
    /// simulated (e.g. a family the grid does not model).
    pub fn against_grid(ir: &ModelIr, measured_mean_ns: f64) -> Result<Calibration> {
        let report = GridSimulator::for_target(&TaurusTarget::default()).simulate(ir, 256)?;
        let simulated = report.latency_ns.max(f64::MIN_POSITIVE);
        Ok(Calibration {
            measured_mean_ns,
            simulated_latency_ns: report.latency_ns,
            wall_to_cycle_ratio: measured_mean_ns / simulated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_backends::model::{DnnIr, ModelIr};
    use homunculus_ml::mlp::{Mlp, MlpArchitecture};

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[10.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
        let mild = jain_fairness(&[4.0, 5.0, 6.0]);
        assert!(mild > 0.9 && mild < 1.0);
    }

    #[test]
    fn calibration_reports_positive_ratio() {
        let arch = MlpArchitecture::new(7, vec![8], 2);
        let ir = ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, 1).unwrap()));
        let calibration = Calibration::against_grid(&ir, 500.0).unwrap();
        assert!(calibration.simulated_latency_ns > 0.0);
        assert!(calibration.wall_to_cycle_ratio > 0.0);
        assert!(
            (calibration.wall_to_cycle_ratio
                - calibration.measured_mean_ns / calibration.simulated_latency_ns)
                .abs()
                < 1e-9
        );
    }
}
