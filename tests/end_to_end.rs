//! End-to-end integration tests spanning all crates: toolchain → instrumenter
//! → runtime → simulator → hardware monitor.

use eilid::{DeviceBuilder, EilidConfig, RunOutcome};
use eilid_casu::{CfiFault, Violation, LAYOUT};
use eilid_workloads::WorkloadId;

/// Every workload must complete on the baseline device and produce the exact
/// same observable output on the EILID device (instrumentation must be
/// semantically transparent).
#[test]
fn all_workloads_are_semantically_transparent_under_eilid() {
    for id in WorkloadId::ALL {
        let workload = id.workload();
        let builder = DeviceBuilder::new();

        let mut baseline = builder
            .build_baseline(&workload.source)
            .expect("baseline builds");
        let mut protected = builder.build_eilid(&workload.source).expect("EILID builds");

        let base = baseline.run_for(30_000_000);
        let eilid = protected.run_for(60_000_000);

        match (&base, &eilid) {
            (
                RunOutcome::Completed {
                    output: base_out,
                    exit_code: base_exit,
                    ..
                },
                RunOutcome::Completed {
                    output: eilid_out,
                    exit_code: eilid_exit,
                    ..
                },
            ) => {
                assert_eq!(base_exit, eilid_exit, "{id}: exit codes differ");
                if !workload.uses_interrupts {
                    // Interrupt-driven workloads report tick counts that
                    // legitimately grow with run time; all other outputs
                    // must match exactly.
                    assert_eq!(base_out, eilid_out, "{id}: outputs differ");
                }
            }
            other => panic!("{id}: unexpected outcomes {other:?}"),
        }
        assert!(
            eilid.cycles() > base.cycles(),
            "{id}: protection cannot be free"
        );
    }
}

/// The run-time overhead of every workload stays in the single-digit to
/// low-teens percent range the paper reports (Table IV: 2.6 % – 13.2 %,
/// average 7.35 %).
#[test]
fn runtime_overhead_shape_matches_table_iv() {
    let mut overheads = Vec::new();
    for id in WorkloadId::ALL {
        let workload = id.workload();
        let builder = DeviceBuilder::new();
        let base = builder
            .build_baseline(&workload.source)
            .unwrap()
            .run_for(30_000_000);
        let eilid = builder
            .build_eilid(&workload.source)
            .unwrap()
            .run_for(60_000_000);
        let overhead = eilid.cycles() as f64 / base.cycles() as f64 - 1.0;
        assert!(
            overhead > 0.005 && overhead < 0.25,
            "{id}: overhead {:.1}% outside the plausible band",
            overhead * 100.0
        );
        overheads.push((id, overhead));
    }
    let average = overheads.iter().map(|(_, o)| o).sum::<f64>() / overheads.len() as f64;
    assert!(
        average > 0.02 && average < 0.15,
        "average overhead {:.1}% is far from the paper's 7.35%",
        average * 100.0
    );

    // Ordering shape: the LCD workload (long busy-waits, few calls) must be
    // the cheapest; the fire sensor (call-dense) must be the most expensive.
    let lcd = overheads
        .iter()
        .find(|(id, _)| *id == WorkloadId::LcdSensor)
        .unwrap()
        .1;
    let fire = overheads
        .iter()
        .find(|(id, _)| *id == WorkloadId::FireSensor)
        .unwrap()
        .1;
    for (id, overhead) in &overheads {
        assert!(
            lcd <= *overhead + 1e-9,
            "LcdSensor should be cheapest, but {id} is cheaper"
        );
        assert!(
            fire >= *overhead - 1e-9,
            "FireSensor should be most expensive, but {id} is higher"
        );
    }
}

/// Binary-size overhead stays within the paper's band (5.2 % – 21.5 %).
#[test]
fn binary_size_overhead_shape_matches_table_iv() {
    for id in WorkloadId::ALL {
        let workload = id.workload();
        let device = DeviceBuilder::new().build_eilid(&workload.source).unwrap();
        let metrics = device.artifacts().unwrap().metrics;
        let overhead = metrics.binary_size_overhead();
        assert!(
            overhead > 0.03 && overhead < 0.45,
            "{id}: size overhead {:.1}% outside the plausible band",
            overhead * 100.0
        );
    }
}

/// A protected device must keep working across repeated runs after resets
/// triggered by attacks (the "recover by reset" model of active RoTs).
#[test]
fn device_recovers_after_a_detected_attack() {
    let workload = WorkloadId::LightSensor.workload();
    let mut device = DeviceBuilder::new().build_eilid(&workload.source).unwrap();

    let result = eilid_workloads::inject(
        &mut device,
        eilid_workloads::CfiAttack::ReturnAddressOverwrite,
        30_000_000,
    )
    .unwrap();
    assert!(matches!(
        result.outcome.violation(),
        Some(Violation::Cfi {
            fault: CfiFault::ReturnAddress
        })
    ));
    assert_eq!(device.resets(), 1);

    // After the reset the device runs the (unmodified, immutable) software
    // to completion again.
    let outcome = device.run_for(30_000_000);
    assert!(outcome.is_completed(), "device did not recover: {outcome}");
}

/// Reboots return the EILID runtime to its boot state: the function
/// table and shadow stack in secure DMEM start empty on every boot, so
/// every Table IV app repeats its boot-to-halt run exactly, however
/// often it reboots.
#[test]
fn every_workload_repeats_identically_across_reboots() {
    for id in WorkloadId::ALL {
        let workload = id.workload();
        let mut device = DeviceBuilder::new().build_eilid(&workload.source).unwrap();
        let mut first = None;
        for boot in 0..5 {
            if boot > 0 {
                device.reboot();
            }
            let RunOutcome::Completed {
                exit_code, output, ..
            } = device.run_for(60_000_000)
            else {
                panic!("{id}: boot {boot} did not complete");
            };
            match &first {
                None => first = Some((exit_code, output)),
                Some(expected) => assert_eq!(
                    &(exit_code, output),
                    expected,
                    "{id}: boot {boot} differs from the first"
                ),
            }
        }
    }
}

/// Shadow-stack exhaustion is detected rather than silently corrupting
/// secure memory: a deeply nested call chain overflows a tiny shadow stack.
#[test]
fn shadow_stack_overflow_is_detected() {
    let source = "    .org 0xe000
    .global main
main:
    mov #0x0400, sp
    call #f1
    mov #0x00ff, &0x0100
hang:
    jmp hang
f1:
    call #f2
    ret
f2:
    call #f3
    ret
f3:
    call #f4
    ret
f4:
    call #f5
    ret
f5:
    ret
";
    // Capacity 4 cannot hold the 5-deep call chain.
    let config = EilidConfig {
        shadow_stack_capacity: 4,
        ..EilidConfig::default()
    };
    let mut device = DeviceBuilder::new()
        .config(config)
        .build_eilid(source)
        .unwrap();
    let outcome = device.run_for(1_000_000);
    assert!(matches!(
        outcome.violation(),
        Some(Violation::Cfi {
            fault: CfiFault::ShadowStackOverflow
        })
    ));

    // The default 112-entry configuration handles the same program fine.
    let mut device = DeviceBuilder::new().build_eilid(source).unwrap();
    assert!(device.run_for(1_000_000).is_completed());
}

/// The instrumented binary, the trusted-software runtime and the interrupt
/// vector table coexist in one 64 KiB image without overlaps for every
/// workload.
#[test]
fn images_fit_the_memory_map() {
    for id in WorkloadId::ALL {
        let workload = id.workload();
        let device = DeviceBuilder::new().build_eilid(&workload.source).unwrap();
        let artifacts = device.artifacts().unwrap();
        let layout = &LAYOUT;
        for segment in &artifacts.instrumented_image.segments {
            let end = segment.base as u32 + segment.bytes.len() as u32 - 1;
            assert!(
                layout.pmem.contains(&segment.base) && layout.pmem.contains(&(end as u16)),
                "{id}: application segment {:#06x}..{:#06x} escapes PMEM",
                segment.base,
                end
            );
        }
    }
}
