//! Prints Figure 10: hardware overhead of EILID vs. prior CFI/CFA work.

use eilid_bench::{render_figure10a, render_figure10b};
use eilid_hwcost::{eilid_monitor_cost, openmsp430_baseline};

fn main() {
    println!("{}", render_figure10a());
    println!("{}", render_figure10b());
    let cost = eilid_monitor_cost();
    let (lut_pct, reg_pct) = cost.percent_of(&openmsp430_baseline());
    println!(
        "EILID over baseline openMSP430: +{} LUTs ({:.1}%), +{} registers ({:.1}%)",
        cost.luts, lut_pct, cost.registers, reg_pct
    );
    println!("(paper: +99 LUTs (5.3%), +34 registers (4.9%))");
}
