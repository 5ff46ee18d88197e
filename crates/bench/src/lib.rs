//! # eilid-bench — the experiment harness
//!
//! One module (and one binary under `src/bin/`) per table and figure of the
//! EILID paper:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table I (CFI/CFA comparison) | [`eilid_hwcost::table1`](mod@eilid_hwcost::table1) | `table1` |
//! | Table II (platform instruction sets) | [`eilid::instrument::platform`] | `table2` |
//! | Table III (reserved registers) | [`eilid::sw::dispatch`] | `table3` |
//! | Table IV (software overhead) | [`table4`] | `table4` |
//! | Figures 3–8 (instrumentation templates) | [`figures`] | `templates` |
//! | Figure 10 (hardware overhead) | [`figures`], [`eilid_hwcost`] | `figure10` |
//! | §VI micro-costs | [`micro`] | `micro` |
//! | Design-choice ablations | [`ablation`] | `ablation` |
//!
//! The Criterion benches under `benches/` exercise the same code paths with
//! statistical timing; the binaries print the tables in the paper's layout
//! (with the paper's reference numbers alongside) and are what
//! `EXPERIMENTS.md` is generated from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod figures;
pub mod micro;
pub mod net;
pub mod paper_reference;
pub mod table4;

pub use ablation::{
    forward_edge_ablation, index_register_ablation, render_ablation, shadow_stack_sizing,
    AblationRow, ShadowSizingRow,
};
pub use figures::{render_figure10a, render_figure10b, render_instrumentation_templates};
pub use micro::{measure_micro_costs, MicroCosts};
pub use paper_reference::{paper_averages, paper_micro_costs, paper_table4, PaperTable4Row};
pub use table4::{measure_all, measure_workload, Table4, Table4Options, Table4Row};
