//! # eilid-hwcost — hardware-cost model and prior-work comparison
//!
//! Reproduces the hardware-cost side of the EILID evaluation:
//!
//! * [`model`] — a structural synthesis-cost estimator for the CASU/EILID
//!   hardware monitor (the paper reports +99 LUTs / +34 registers over the
//!   baseline openMSP430 from Vivado synthesis; the model derives the same
//!   numbers from the monitor's comparator/flip-flop structure);
//! * [`prior_work`] — the published costs of HAFIX, HCFI, Tiny-CFA, ACFA,
//!   LO-FAT and LiteHAX used in Figure 10;
//! * [`table1`](mod@table1) — the qualitative CFI/CFA comparison of Table I.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod prior_work;
pub mod table1;

pub use model::{eilid_monitor_cost, openmsp430_baseline, HwCost, MonitorStructure};
pub use prior_work::{figure10, Method, TechniqueCost, MSP430_ADDRESS_SPACE_BYTES};
pub use table1::{render_table1, table1, Table1Row};
