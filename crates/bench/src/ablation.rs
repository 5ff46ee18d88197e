//! Ablation studies for the design choices the paper calls out.
//!
//! * **Register-resident shadow-stack index** (§V-B): the paper keeps the
//!   index in `r5` to avoid a memory round-trip per trusted-software call.
//!   [`index_register_ablation`] measures the run-time cost of moving the
//!   index into secure memory instead.
//! * **Forward-edge protection** (P3): [`forward_edge_ablation`] separates
//!   the cost of indirect-call checks from backward-edge protection on the
//!   workload that actually performs indirect calls.
//! * **Shadow-stack sizing** (§V): [`shadow_stack_sizing`] reports the
//!   secure-memory footprint across capacities together with the depth the
//!   workloads actually reach, confirming the paper's claim that 256 bytes
//!   comfortably hold the metadata of typical applications.

use serde::{Deserialize, Serialize};

use eilid::{DeviceBuilder, EilidConfig};
use eilid_workloads::WorkloadId;

/// Result of comparing two device configurations on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which application.
    pub workload: WorkloadId,
    /// Cycles with the paper's default configuration.
    pub default_cycles: u64,
    /// Cycles with the ablated configuration.
    pub ablated_cycles: u64,
}

impl AblationRow {
    /// Relative slowdown (positive) or speedup (negative) of the ablated
    /// configuration.
    pub fn delta(&self) -> f64 {
        self.ablated_cycles as f64 / self.default_cycles as f64 - 1.0
    }
}

fn run_cycles(source: &str, config: &EilidConfig, max_cycles: u64) -> u64 {
    let mut device = DeviceBuilder::new()
        .config(config.clone())
        .build_eilid(source)
        .expect("workload builds");
    let outcome = device.run_for(max_cycles);
    assert!(
        outcome.is_completed(),
        "ablation run did not complete: {outcome}"
    );
    outcome.cycles()
}

/// Measures the cost of keeping the shadow-stack index in secure memory
/// instead of register `r5`, for each given workload.
pub fn index_register_ablation(workloads: &[WorkloadId]) -> Vec<AblationRow> {
    let default_config = EilidConfig::default();
    // A smaller shadow stack leaves room for the in-memory index word.
    let ablated_config = EilidConfig {
        index_in_register: false,
        shadow_stack_capacity: 96,
        ..EilidConfig::default()
    };
    workloads
        .iter()
        .map(|id| {
            let source = id.workload().source;
            AblationRow {
                workload: *id,
                default_cycles: run_cycles(&source, &default_config, 30_000_000),
                ablated_cycles: run_cycles(&source, &ablated_config, 30_000_000),
            }
        })
        .collect()
}

/// Measures the cost of forward-edge (P3) protection by disabling it on the
/// given workloads (only meaningful for workloads with indirect calls).
pub fn forward_edge_ablation(workloads: &[WorkloadId]) -> Vec<AblationRow> {
    let default_config = EilidConfig::default();
    let ablated_config = EilidConfig::backward_edge_only();
    workloads
        .iter()
        .map(|id| {
            let source = id.workload().source;
            AblationRow {
                workload: *id,
                default_cycles: run_cycles(&source, &default_config, 30_000_000),
                ablated_cycles: run_cycles(&source, &ablated_config, 30_000_000),
            }
        })
        .collect()
}

/// One row of the shadow-stack sizing sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowSizingRow {
    /// Configured capacity in 16-bit entries.
    pub capacity: u16,
    /// Secure-memory footprint in bytes (stack + function table + count).
    pub secure_dmem_bytes: usize,
    /// Whether the configuration fits the default 256-byte secure region.
    pub fits_default_region: bool,
}

/// Sweeps shadow-stack capacities and reports their secure-memory footprint.
pub fn shadow_stack_sizing(capacities: &[u16]) -> Vec<ShadowSizingRow> {
    capacities
        .iter()
        .map(|&capacity| {
            let config = EilidConfig {
                shadow_stack_capacity: capacity,
                ..EilidConfig::default()
            };
            ShadowSizingRow {
                capacity,
                secure_dmem_bytes: config.secure_dmem_bytes(),
                fits_default_region: config.validate().is_ok(),
            }
        })
        .collect()
}

/// Renders an ablation result set.
pub fn render_ablation(title: &str, rows: &[AblationRow]) -> String {
    let mut out = format!("{title}\n");
    for row in rows {
        out.push_str(&format!(
            "  {:<18} default {:>9} cycles   ablated {:>9} cycles   delta {:+.2}%\n",
            row.workload.name(),
            row.default_cycles,
            row.ablated_cycles,
            row.delta() * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_resident_index_is_slower() {
        let rows = index_register_ablation(&[WorkloadId::LightSensor]);
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].ablated_cycles > rows[0].default_cycles,
            "keeping the index in r5 must be the faster option"
        );
        assert!(rows[0].delta() > 0.0);
        assert!(!render_ablation("index", &rows).is_empty());
    }

    #[test]
    fn forward_edge_costs_cycles_only_where_indirect_calls_exist() {
        let rows = forward_edge_ablation(&[WorkloadId::Charlieplexing]);
        assert!(
            rows[0].default_cycles > rows[0].ablated_cycles,
            "disabling P3 must remove the indirect-call checks"
        );
    }

    #[test]
    fn shadow_stack_sizing_matches_the_paper_default() {
        let rows = shadow_stack_sizing(&[16, 64, 112, 128, 256]);
        assert_eq!(rows.len(), 5);
        let default = rows.iter().find(|r| r.capacity == 112).unwrap();
        assert_eq!(default.secure_dmem_bytes, 256);
        assert!(default.fits_default_region);
        let too_big = rows.iter().find(|r| r.capacity == 256).unwrap();
        assert!(!too_big.fits_default_region);
    }
}
