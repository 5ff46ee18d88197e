//! Published hardware costs of prior CFI and CFA techniques (Figure 10).
//!
//! Figure 10 of the paper compares EILID's additional LUTs and registers
//! against HAFIX, HCFI (CFI techniques) and Tiny-CFA, ACFA, LO-FAT, LiteHAX
//! (CFA techniques). The paper states exact values for the openMSP430-based
//! designs (EILID, Tiny-CFA, ACFA) and the RAM requirements of LO-FAT and
//! LiteHAX; the remaining bars are reproduced from the figure's scale and
//! the cited papers, and are marked as approximate.

use serde::{Deserialize, Serialize};

use crate::model::{eilid_monitor_cost, openmsp430_baseline, HwCost};

/// Whether a technique provides real-time CFI or after-the-fact CFA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Control-flow integrity (real-time enforcement).
    Cfi,
    /// Control-flow attestation (detection via a verifier).
    Cfa,
}

impl Method {
    /// Label used in the figure legend.
    pub fn label(self) -> &'static str {
        match self {
            Method::Cfi => "CFI",
            Method::Cfa => "CFA",
        }
    }
}

/// One bar of Figure 10: a prior technique and its hardware cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechniqueCost {
    /// Technique name as printed in the figure.
    pub name: &'static str,
    /// CFI or CFA.
    pub method: Method,
    /// Hardware platform the technique was prototyped on.
    pub platform: &'static str,
    /// Additional hardware cost over that platform's baseline core.
    pub cost: HwCost,
    /// Baseline core cost, when known (used to compute relative overhead).
    pub baseline: Option<HwCost>,
    /// `true` when the numbers are stated exactly in the EILID paper;
    /// `false` when they are read off the figure / taken from the cited
    /// paper and therefore approximate.
    pub exact: bool,
}

impl TechniqueCost {
    /// Relative LUT overhead in percent, when the baseline is known.
    pub fn lut_percent(&self) -> Option<f64> {
        self.baseline.map(|b| self.cost.percent_of(&b).0)
    }

    /// Relative register overhead in percent, when the baseline is known.
    pub fn register_percent(&self) -> Option<f64> {
        self.baseline.map(|b| self.cost.percent_of(&b).1)
    }
}

/// All bars of Figure 10, EILID first (as in the paper's ordering).
pub fn figure10() -> Vec<TechniqueCost> {
    let msp_base = openmsp430_baseline();
    let eilid = eilid_monitor_cost();
    vec![
        TechniqueCost {
            name: "EILID",
            method: Method::Cfi,
            platform: "openMSP430",
            cost: eilid,
            baseline: Some(msp_base),
            exact: true,
        },
        TechniqueCost {
            name: "HAFIX",
            method: Method::Cfi,
            platform: "Intel Siskiyou Peak",
            cost: HwCost::new(2_780, 1_830),
            baseline: None,
            exact: false,
        },
        TechniqueCost {
            name: "HCFI",
            method: Method::Cfi,
            platform: "Leon3 SPARC V8",
            cost: HwCost::new(3_180, 2_090),
            baseline: None,
            exact: false,
        },
        TechniqueCost {
            name: "Tiny-CFA",
            method: Method::Cfa,
            platform: "openMSP430",
            cost: HwCost::new(302, 44),
            baseline: Some(msp_base),
            exact: true,
        },
        TechniqueCost {
            name: "ACFA",
            method: Method::Cfa,
            platform: "openMSP430",
            cost: HwCost::new(501, 946),
            baseline: Some(msp_base),
            exact: true,
        },
        TechniqueCost {
            name: "LO-FAT",
            method: Method::Cfa,
            platform: "Pulpino",
            cost: HwCost {
                luts: 4_430,
                registers: 8_680,
                ram_bytes: 216 * 1024,
            },
            baseline: None,
            exact: false,
        },
        TechniqueCost {
            name: "LiteHAX",
            method: Method::Cfa,
            platform: "Pulpino",
            cost: HwCost {
                luts: 4_100,
                registers: 7_960,
                ram_bytes: 158 * 1024,
            },
            baseline: None,
            exact: false,
        },
    ]
}

/// Addressable memory of a 16-bit MSP430-class MCU, used to argue (as the
/// paper does) that LO-FAT/LiteHAX-class designs cannot fit low-end devices.
pub const MSP430_ADDRESS_SPACE_BYTES: u32 = 64 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_covers_all_seven_techniques() {
        let bars = figure10();
        let names: Vec<&str> = bars.iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec!["EILID", "HAFIX", "HCFI", "Tiny-CFA", "ACFA", "LO-FAT", "LiteHAX"]
        );
    }

    #[test]
    fn eilid_has_the_lowest_cost_of_all_techniques() {
        let bars = figure10();
        let eilid = &bars[0];
        for other in &bars[1..] {
            assert!(
                eilid.cost.luts < other.cost.luts,
                "EILID must use fewer LUTs than {}",
                other.name
            );
            assert!(
                eilid.cost.registers < other.cost.registers,
                "EILID must use fewer registers than {}",
                other.name
            );
        }
    }

    #[test]
    fn openmsp430_designs_match_the_papers_stated_numbers() {
        let bars = figure10();
        let tiny = bars.iter().find(|b| b.name == "Tiny-CFA").unwrap();
        assert_eq!(tiny.cost.luts, 302);
        assert_eq!(tiny.cost.registers, 44);
        assert!((tiny.lut_percent().unwrap() - 16.2).abs() < 0.5);
        assert!((tiny.register_percent().unwrap() - 6.4).abs() < 0.5);

        let acfa = bars.iter().find(|b| b.name == "ACFA").unwrap();
        assert_eq!(acfa.cost.luts, 501);
        assert_eq!(acfa.cost.registers, 946);
        assert!((acfa.lut_percent().unwrap() - 26.9).abs() < 0.6);
        assert!((acfa.register_percent().unwrap() - 136.7).abs() < 1.0);
    }

    #[test]
    fn lofat_and_litehax_exceed_msp430_memory() {
        // The paper's argument: their RAM requirements alone exceed the
        // entire 64 KB address space of a 16-bit MCU.
        for name in ["LO-FAT", "LiteHAX"] {
            let bar = figure10().into_iter().find(|b| b.name == name).unwrap();
            assert!(bar.cost.ram_bytes > MSP430_ADDRESS_SPACE_BYTES);
        }
    }

    #[test]
    fn method_labels() {
        assert_eq!(Method::Cfi.label(), "CFI");
        assert_eq!(Method::Cfa.label(), "CFA");
    }
}
