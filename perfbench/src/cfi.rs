//! `cfi`: the paper's device layer, single-threaded.
//!
//! One op is one round: for each of the seven Table IV apps, in an order
//! shuffled from the seed, a boot-to-halt clean run plus every applicable
//! `CfiAttack`, each on a fresh clone of the app's EILID prototype (the
//! clone is untimed) — 24 cases. Every op does the same work. The work is the MSP430
//! simulator, the `eilid::sw` shadow-stack runtime the instrumenter
//! links in, and the CASU monitor check on every step — no crypto, no
//! network.

use std::hint::black_box;
use std::time::Instant;

use eilid::{Device, DeviceBuilder, RunOutcome};
use eilid_bench::paper_reference::paper_table4;
use eilid_workloads::{attacks, CfiAttack, WorkloadId};

use crate::common::{end_to_end, median, ms, timed, us, Outcome, Rng, Scale};

const STREAM: u64 = 3;
/// Cycle budget of one case (the longest clean run is ~0.6M cycles).
const MAX_CYCLES: u64 = 5_000_000;
/// Repetitions of each replay in the traced run.
const REPLAYS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Clean,
    Attack(CfiAttack),
}

/// One case and the counts recorded for it at set-up.
#[derive(Debug, Clone)]
struct Case {
    kind: Kind,
    cycles: u64,
    /// Instructions executed (clean runs; attacks run inside
    /// `attacks::inject`, which takes no step hook).
    instrs: u64,
}

struct App {
    id: WorkloadId,
    prototype: Device,
    /// `(exit_code, output)` of the app's first EILID run: every later
    /// clean run must reproduce it.
    expected: (u16, Vec<u16>),
    cases: Vec<Case>,
}

/// What one op did.
#[derive(Debug, Default, Clone, Copy)]
struct OpCounts {
    cycles: u64,
    instrs: u64,
    detections: u64,
    /// Instructions estimated for the whole op (attack cases scaled by
    /// the app's clean instructions per cycle), for the ledger.
    instr_estimate: f64,
}

/// Runs one case on `device`; returns the outcome and the instruction
/// count for clean runs.
fn run_case(device: &mut Device, kind: Kind) -> Result<(RunOutcome, u64), String> {
    match kind {
        Kind::Clean => {
            let mut instrs = 0u64;
            let outcome = device.run_with_hook(MAX_CYCLES, |_, _| instrs += 1);
            Ok((outcome, instrs))
        }
        Kind::Attack(attack) => attacks::inject(device, attack, MAX_CYCLES)
            .map(|result| (result.outcome, 0))
            .map_err(|err| err.to_string()),
    }
}

fn completed(outcome: &RunOutcome) -> Option<(u16, Vec<u16>)> {
    match outcome {
        RunOutcome::Completed {
            exit_code, output, ..
        } => Some((*exit_code, output.clone())),
        _ => None,
    }
}

/// The case's correctness oracle.
fn check_case(
    id: WorkloadId,
    expected: &(u16, Vec<u16>),
    case: &Case,
    outcome: &RunOutcome,
    instrs: u64,
) -> Result<(), String> {
    let name = id.name();
    match case.kind {
        Kind::Clean => {
            if completed(outcome).as_ref() != Some(expected) {
                return Err(format!("cfi {name}: clean run ended {outcome}"));
            }
            if instrs != case.instrs {
                return Err(format!(
                    "cfi {name}: {instrs} instructions, {} at set-up",
                    case.instrs
                ));
            }
        }
        Kind::Attack(attack) => {
            let result = attacks::AttackResult {
                attack,
                outcome: outcome.clone(),
            };
            if !result.detected_as_expected() {
                return Err(format!("cfi {name}: {attack} ended {outcome}"));
            }
        }
    }
    if outcome.cycles() != case.cycles {
        return Err(format!(
            "cfi {name}: {:?} took {} cycles, {} at set-up",
            case.kind,
            outcome.cycles(),
            case.cycles
        ));
    }
    Ok(())
}

/// Builds each app's EILID prototype and baseline and records every
/// case's counts (this first pass doubles as the warm-up).
fn setup() -> Vec<App> {
    let builder = DeviceBuilder::new();
    WorkloadId::ALL
        .iter()
        .map(|&id| {
            let source = id.workload().source;
            let prototype = builder.build_eilid(&source).expect("EILID build succeeds");
            let mut baseline = builder.build_baseline(&source).expect("baseline builds");
            let base = completed(&baseline.run_for(MAX_CYCLES)).expect("baseline run completes");
            let mut expected = None;
            let mut cases = Vec::new();
            for kind in std::iter::once(Kind::Clean).chain(CfiAttack::ALL.map(Kind::Attack)) {
                let mut device = prototype.clone();
                // An attack whose symbols the app lacks is not applicable.
                let Ok((outcome, instrs)) = run_case(&mut device, kind) else {
                    continue;
                };
                if kind == Kind::Clean {
                    let clean = completed(&outcome).expect("EILID run completes");
                    // Semantic transparency: the exit code always matches
                    // the baseline's; the output too, except for
                    // interrupt-driven apps, whose tick counts grow with
                    // run time.
                    assert_eq!(clean.0, base.0, "{id}: exit codes differ");
                    if !id.workload().uses_interrupts {
                        assert_eq!(clean.1, base.1, "{id}: outputs differ");
                    }
                    expected = Some(clean);
                }
                let case = Case {
                    kind,
                    cycles: outcome.cycles(),
                    instrs,
                };
                let expected = expected.as_ref().expect("the clean case runs first");
                check_case(id, expected, &case, &outcome, instrs).expect("set-up run is correct");
                cases.push(case);
            }
            let expected = expected.expect("every app has a clean case");
            App {
                id,
                prototype,
                expected,
                cases,
            }
        })
        .collect()
}

/// One closed-loop op: one round — every app's cases back to back, in
/// `order`, each case on a fresh clone. Only the runs are timed. With
/// `spans`, each case's time is recorded too.
fn op(
    apps: &[App],
    order: &[usize],
    mut spans: Option<&mut Vec<f64>>,
) -> (Result<(), String>, f64, OpCounts) {
    let mut elapsed_ms = 0.0;
    let mut counts = OpCounts::default();
    let mut verdict = Ok(());
    for app in order.iter().map(|&index| &apps[index]) {
        let clean = app.cases.iter().find(|case| case.kind == Kind::Clean);
        let instr_per_cycle =
            clean.map_or(0.0, |case| case.instrs as f64 / case.cycles.max(1) as f64);
        for case in &app.cases {
            let mut device = app.prototype.clone();
            let start = Instant::now();
            let ran = run_case(&mut device, case.kind);
            let case_ms = ms(start.elapsed());
            elapsed_ms += case_ms;
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(case_ms);
            }
            let checked = ran.and_then(|(outcome, instrs)| {
                counts.cycles += outcome.cycles();
                counts.instrs += instrs;
                counts.detections += u64::from(outcome.violation().is_some());
                counts.instr_estimate += if case.kind == Kind::Clean {
                    instrs as f64
                } else {
                    outcome.cycles() as f64 * instr_per_cycle
                };
                check_case(app.id, &app.expected, case, &outcome, instrs)
            });
            if verdict.is_ok() {
                verdict = checked;
            }
        }
    }
    (verdict, elapsed_ms, counts)
}

/// The op schedule: one seeded app order per op.
fn schedule(seed: u64, ops: usize, apps: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed, STREAM);
    (0..ops)
        .map(|_| {
            let mut round: Vec<usize> = (0..apps).collect();
            rng.shuffle(&mut round);
            round
        })
        .collect()
}

/// Runs `ops` rounds and reports the end-to-end metrics; the work unit
/// is a simulated cycle.
///
/// Set-up is dominated by simulation, so box noise moves it as it moves
/// the ops: the repeated set-ups are spread evenly over the run rather
/// than bunched at its start, and their median samples the same
/// stretches of time the op percentiles do.
pub fn run(seed: u64, ops: usize, scale: Scale) -> Outcome {
    let setups = scale.setups.max(1);
    let (mut apps, elapsed) = timed(setup);
    let mut setup_s = vec![elapsed.as_secs_f64()];
    let order = schedule(seed, ops, apps.len());
    let every = (order.len() / setups).max(1);
    let mut out = Outcome::default();
    let mut op_ms = Vec::new();
    let mut cycles = 0u64;
    for (index, round) in order.iter().enumerate() {
        if index > 0 && index % every == 0 && setup_s.len() < setups {
            drop(std::mem::take(&mut apps));
            let (built, elapsed) = timed(setup);
            setup_s.push(elapsed.as_secs_f64());
            apps = built;
        }
        let (verdict, elapsed, counts) = op(&apps, round, None);
        out.check(verdict);
        op_ms.push(elapsed);
        cycles += counts.cycles;
    }
    end_to_end(&mut out, &op_ms, cycles as f64, &setup_s);
    out
}

/// Host ns per simulated instruction of one full run of `device`
/// (median of the replays; the instruction count comes from a counted
/// run, the time from an uncounted one).
fn ns_per_instr(device: &Device) -> (f64, u64, u64) {
    let mut counted = device.clone();
    let mut instrs = 0u64;
    let outcome = counted.run_with_hook(MAX_CYCLES, |_, _| instrs += 1);
    let mut times = Vec::new();
    for _ in 0..REPLAYS {
        let mut run = device.clone();
        let (outcome, elapsed) = timed(|| run.run_for(MAX_CYCLES));
        black_box(outcome);
        times.push(us(elapsed) * 1e3);
    }
    (
        median(&times) / instrs.max(1) as f64,
        instrs,
        outcome.cycles(),
    )
}

/// The traced run: `ops` untraced and `ops` traced rounds,
/// alternating, then the per-layer replays.
pub fn trace(seed: u64, ops: usize) -> Outcome {
    let apps = setup();
    let mut out = Outcome::default();
    let mut plain_ms = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Vec::new();
    let order = schedule(seed, ops, apps.len());
    let mut totals = OpCounts::default();
    for round in &order {
        let (verdict, elapsed, counts) = op(&apps, round, None);
        out.check(verdict);
        plain_ms.push(elapsed);
        let (verdict, elapsed, counts_traced) = op(&apps, round, Some(&mut spans));
        out.check(verdict);
        traced.push((elapsed, counts_traced));
        for c in [counts, counts_traced] {
            totals.cycles += c.cycles;
            totals.instrs += c.instrs;
            totals.detections += c.detections;
        }
    }
    let n_ops = (2 * order.len()) as f64;

    // Layer replays: baseline (simulator only), CASU monitor on the
    // uninstrumented app, and the EILID build itself.
    let builder = DeviceBuilder::new();
    let paper = paper_table4();
    let mut base_ns = 0.0;
    let mut base_instrs = 0u64;
    let mut monitor_ns = 0.0;
    let mut monitor_instrs = 0u64;
    let mut clone_us = Vec::new();
    for app in &apps {
        let source = app.id.workload().source;
        let name = app.id.name();
        let baseline = builder.build_baseline(&source).expect("baseline builds");
        let (ns, instrs, cycles) = ns_per_instr(&baseline);
        base_ns += ns * instrs as f64;
        base_instrs += instrs;
        let baseline_instrs = instrs;
        let monitored = builder
            .build_monitored_raw(&source)
            .expect("CASU-only build succeeds");
        let (ns, instrs, _) = ns_per_instr(&monitored);
        monitor_ns += ns * instrs as f64;
        monitor_instrs += instrs;
        let clean = app
            .cases
            .iter()
            .find(|case| case.kind == Kind::Clean)
            .expect("every app has a clean case");
        out.put(
            format!("core.sw.extra_instr_share.{name}"),
            clean.instrs as f64 / baseline_instrs as f64 - 1.0,
            "share",
        );
        out.put(
            format!("core.sw.cycle_overhead_pct.{name}"),
            (clean.cycles as f64 / cycles as f64 - 1.0) * 100.0,
            "%",
        );
        if let Some(row) = paper.iter().find(|row| row.workload == app.id) {
            out.put(
                format!("core.sw.paper_runtime_pct.{name}"),
                row.runtime_overhead() * 100.0,
                "%",
            );
        }
        out.exact
            .insert(format!("cfi.{name}.clean_instrs"), clean.instrs);
        out.exact
            .insert(format!("cfi.{name}.clean_cycles"), clean.cycles);
        let mut builds = Vec::new();
        for _ in 0..REPLAYS {
            let (device, elapsed) = timed(|| builder.build_eilid(&source));
            black_box(device.expect("EILID build succeeds"));
            builds.push(ms(elapsed));
        }
        out.put(
            format!("core.instrument.build_ms.{name}"),
            median(&builds),
            "ms",
        );
        for _ in 0..REPLAYS {
            let (device, elapsed) = timed(|| app.prototype.clone());
            black_box(device);
            clone_us.push(us(elapsed));
        }
    }
    let base_ns_per_instr = base_ns / base_instrs.max(1) as f64;
    let monitor_extra = monitor_ns / monitor_instrs.max(1) as f64 - base_ns_per_instr;
    out.put("msp430.ns_per_instr", base_ns_per_instr, "ns");
    out.put("casu.monitor.ns_per_instr", monitor_extra, "ns");
    out.put("core.device.clone_us", median(&clone_us), "us");
    out.put(
        "cfi.sim_cycles_per_op",
        totals.cycles as f64 / n_ops,
        "count",
    );
    out.put("cfi.instr_per_op", totals.instrs as f64 / n_ops, "count");
    out.put(
        "cfi.detections_per_op",
        totals.detections as f64 / n_ops,
        "count",
    );
    let unaccounted: Vec<f64> = traced
        .iter()
        .map(|(elapsed, counts)| {
            let layered_ms = counts.instr_estimate * (base_ns_per_instr + monitor_extra) / 1e6;
            1.0 - layered_ms / elapsed
        })
        .collect();
    out.put("cfi.unaccounted_share", median(&unaccounted), "share");
    let traced_ms: Vec<f64> = traced.iter().map(|(elapsed, _)| *elapsed).collect();
    out.put(
        "cfi.tracing_overhead",
        median(&traced_ms) / median(&plain_ms) - 1.0,
        "share",
    );
    out.exact.insert("cfi.cycles".into(), totals.cycles);
    out.exact.insert("cfi.instrs".into(), totals.instrs);
    out.exact.insert("cfi.detections".into(), totals.detections);
    out.exact.insert("cfi.spans".into(), spans.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_case_set_matches_table_iv() {
        let apps = setup();
        assert_eq!(apps.len(), 7);
        let cases: usize = apps.iter().map(|app| app.cases.len()).sum();
        assert_eq!(cases, 24, "seven clean runs plus every applicable attack");
    }

    #[test]
    fn tiny_cfi_is_correct_and_repeats() {
        let a = trace(3, 2);
        let b = trace(3, 2);
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(a.attempted, 4);
        assert_eq!(a.exact, b.exact);
    }

    #[test]
    fn seed_changes_the_schedule() {
        assert_ne!(schedule(1, 2, 7), schedule(2, 2, 7));
        assert_eq!(schedule(1, 2, 7), schedule(1, 2, 7));
    }
}
