//! Text rendering of the paper's figures (Figure 10a/10b bar charts and the
//! instrumentation templates of Figures 3–8).

use eilid_hwcost::{figure10, TechniqueCost};

/// Renders one of the Figure 10 bar charts as ASCII art.
///
/// `select` extracts the plotted quantity (LUTs for 10a, registers for 10b).
fn render_bar_chart(
    title: &str,
    bars: &[TechniqueCost],
    select: impl Fn(&TechniqueCost) -> u32,
) -> String {
    let max = bars.iter().map(&select).max().unwrap_or(1).max(1);
    let width = 50usize;
    let mut out = format!("{title}\n");
    for bar in bars {
        let value = select(bar);
        let filled = (value as usize * width) / max as usize;
        out.push_str(&format!(
            "  {:<9} [{}] {:<52} {:>6}{}\n",
            bar.name,
            bar.method.label(),
            "#".repeat(filled.max(1)),
            value,
            if bar.exact { "" } else { " (approx.)" },
        ));
    }
    out
}

/// Renders Figure 10(a): additional LUTs.
pub fn render_figure10a() -> String {
    render_bar_chart(
        "Figure 10(a): additional LUTs over the respective baseline core",
        &figure10(),
        |b| b.cost.luts,
    )
}

/// Renders Figure 10(b): additional registers.
pub fn render_figure10b() -> String {
    render_bar_chart(
        "Figure 10(b): additional registers over the respective baseline core",
        &figure10(),
        |b| b.cost.registers,
    )
}

/// Renders the instrumentation templates of Figures 3–8 by instrumenting a
/// miniature program containing one instance of every site kind.
pub fn render_instrumentation_templates() -> String {
    let source = "    .org 0xe000
    .global main
    .isr timer_isr, 8
main:
    mov #0x0400, sp
    mov #handler, r13
    call #foo               ; Figure 3 site (direct call)
    call r13                ; Figure 8 site (indirect call)
    mov #0x00ff, &0x0100
hang:
    jmp hang
foo:
    ret                      ; Figure 4 site (return)
handler:
    ret
timer_isr:                   ; Figure 5 site (ISR entry)
    reti                     ; Figure 6 site (ISR exit)
";
    let config = eilid::EilidConfig::default();
    let runtime = eilid::Runtime::build(&config, &eilid_casu::MemoryLayout::default())
        .expect("runtime builds");
    let artifacts = eilid::InstrumentedBuild::new(config)
        .run(source, &runtime)
        .expect("template program instruments");
    format!(
        "Original program:\n{source}\nInstrumented program (Figures 3-8 templates):\n{}",
        artifacts.instrumented_source
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_charts_render_every_technique() {
        let a = render_figure10a();
        let b = render_figure10b();
        for name in [
            "EILID", "HAFIX", "HCFI", "Tiny-CFA", "ACFA", "LO-FAT", "LiteHAX",
        ] {
            assert!(a.contains(name), "{name} missing from 10a");
            assert!(b.contains(name), "{name} missing from 10b");
        }
        assert!(a.contains("(approx.)"));
    }

    #[test]
    fn eilid_bar_is_the_shortest() {
        let chart = render_figure10a();
        let eilid_line = chart.lines().find(|l| l.contains("EILID")).unwrap();
        let acfa_line = chart.lines().find(|l| l.contains("ACFA")).unwrap();
        let count = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert!(count(eilid_line) < count(acfa_line));
    }

    #[test]
    fn template_rendering_shows_every_figure() {
        let rendered = render_instrumentation_templates();
        assert!(rendered.contains("NS_EILID_store_ra"));
        assert!(rendered.contains("NS_EILID_check_ra"));
        assert!(rendered.contains("NS_EILID_store_rfi"));
        assert!(rendered.contains("NS_EILID_check_rfi"));
        assert!(rendered.contains("NS_EILID_store_ind"));
        assert!(rendered.contains("NS_EILID_check_ind"));
    }
}
