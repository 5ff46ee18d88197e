//! Integration tests over the experiment harness itself: the quick Table IV
//! measurement, the micro-costs and the hardware-cost comparison must
//! reproduce the paper's qualitative shape.

use eilid_bench::{measure_workload, paper_table4, Table4Options};
use eilid_hwcost::{eilid_monitor_cost, figure10, openmsp430_baseline};
use eilid_workloads::WorkloadId;

/// Table IV shape for a representative subset of workloads (the full table
/// is exercised by the `table4` binary and the Criterion benches; this test
/// keeps CI time bounded).
#[test]
fn table4_rows_reproduce_the_papers_shape() {
    let options = Table4Options::quick();
    for id in [
        WorkloadId::LightSensor,
        WorkloadId::FireSensor,
        WorkloadId::LcdSensor,
    ] {
        let row = measure_workload(&id.workload(), &options);
        let paper = row.paper();

        // Same direction for every metric: EILID costs more.
        assert!(row.compile_overhead() > 0.0, "{id}: compile overhead");
        assert!(row.size_overhead() > 0.0, "{id}: size overhead");
        assert!(row.runtime_overhead() > 0.0, "{id}: runtime overhead");

        // Run-time overhead within a factor of ~2 of the paper's percentage.
        let ratio = row.runtime_overhead() / paper.runtime_overhead();
        assert!(
            (0.3..3.0).contains(&ratio),
            "{id}: measured {:.1}% vs paper {:.1}%",
            row.runtime_overhead() * 100.0,
            paper.runtime_overhead() * 100.0
        );

        // Binary sizes are in the same order of magnitude as the paper's
        // (hundreds of bytes, not kilobytes).
        assert!(
            row.original_bytes > 60 && row.original_bytes < 2_000,
            "{id}"
        );
        assert!(row.eilid_bytes > row.original_bytes);
    }
}

/// The run-time overhead ranking of the measured subset matches the paper:
/// FireSensor > LightSensor > LcdSensor.
#[test]
fn runtime_overhead_ranking_matches_the_paper() {
    let options = Table4Options::quick();
    let fire = measure_workload(&WorkloadId::FireSensor.workload(), &options).runtime_overhead();
    let light = measure_workload(&WorkloadId::LightSensor.workload(), &options).runtime_overhead();
    let lcd = measure_workload(&WorkloadId::LcdSensor.workload(), &options).runtime_overhead();
    assert!(
        fire > light && light > lcd,
        "ranking broken: fire {fire:.3}, light {light:.3}, lcd {lcd:.3}"
    );
}

/// The paper's reference table is internally consistent with its published
/// average overheads.
#[test]
fn paper_reference_rows_average_to_the_published_numbers() {
    let rows = paper_table4();
    let avg_runtime: f64 =
        rows.iter().map(|r| r.runtime_overhead()).sum::<f64>() / rows.len() as f64;
    let avg_size: f64 = rows.iter().map(|r| r.size_overhead()).sum::<f64>() / rows.len() as f64;
    let avg_compile: f64 =
        rows.iter().map(|r| r.compile_overhead()).sum::<f64>() / rows.len() as f64;
    assert!((avg_runtime - 0.0735).abs() < 0.005);
    assert!((avg_size - 0.1078).abs() < 0.005);
    // The paper's own per-row compile percentages do not all follow from its
    // ms columns (e.g. LcdSensor: 104 ms / 370 ms is 28.1 %, printed as
    // 38.11 %), so the average recomputed from the ms values lands slightly
    // below the printed 34.30 %.
    assert!((avg_compile - 0.3430).abs() < 0.025);
}

/// Figure 10: EILID is the cheapest technique and stays close to the paper's
/// +99 LUTs / +34 registers over the openMSP430 baseline.
#[test]
fn figure10_comparison_matches_the_paper() {
    let bars = figure10();
    let eilid = bars.iter().find(|b| b.name == "EILID").unwrap();
    for other in bars.iter().filter(|b| b.name != "EILID") {
        assert!(eilid.cost.luts < other.cost.luts);
        assert!(eilid.cost.registers < other.cost.registers);
    }
    let cost = eilid_monitor_cost();
    assert_eq!(cost.luts, 99);
    assert_eq!(cost.registers, 34);
    let (lut_pct, reg_pct) = cost.percent_of(&openmsp430_baseline());
    assert!((lut_pct - 5.3).abs() < 0.3);
    assert!((reg_pct - 4.9).abs() < 0.3);
}

/// The §VI micro-costs: the check path is more expensive than the store path
/// and the split is close to the paper's 47/53.
#[test]
fn micro_costs_match_the_papers_split() {
    let costs = eilid_bench::measure_micro_costs(&eilid::EilidConfig::default());
    assert!(costs.check_cycles > costs.store_cycles);
    let store_share = costs.store_cycles / (costs.store_cycles + costs.check_cycles);
    assert!(
        (store_share - 0.47).abs() < 0.12,
        "store share {store_share:.2} vs paper 0.47"
    );
}
