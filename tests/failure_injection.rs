//! Failure injection: randomized run-time corruption of control-flow data.
//!
//! The deterministic attack injectors in `eilid-workloads` corrupt specific
//! slots at specific labels. This suite complements them with *randomized*
//! corruption — random trigger cycles, random target addresses within the
//! stack frame region, random replacement values — and checks the system's
//! global safety property: a protected device either completes with the
//! correct result or detects a violation and resets; it never silently
//! completes with corrupted control flow that EILID claims to prevent.
//!
//! Both tests take their inputs from `PROPTEST_SEED` (mixed in the way the
//! vendored proptest mixes it, so an unset seed keeps the fixed inputs)
//! and their case count from `PROPTEST_CASES`; a failing case prints the
//! pair that replays it.

use eilid::{DeviceBuilder, RunOutcome};
use eilid_casu::{merkle_measure_pmem, AttestError, AttestationVerifier, Attestor, LAYOUT};
use eilid_workloads::WorkloadId;
use proptest::test_runner::{for_each_case, mix_seed, run_seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the light-sensor workload with one randomly placed return-address
/// corruption and classifies the outcome.
fn run_with_random_ra_corruption(seed: u64) -> (RunOutcome, Vec<u16>) {
    let workload = WorkloadId::LightSensor.workload();
    let mut rng = StdRng::seed_from_u64(seed);

    // Reference run: the expected output.
    let mut reference = DeviceBuilder::new()
        .build_baseline(&workload.source)
        .expect("baseline builds");
    let expected = match reference.run_for(5_000_000) {
        RunOutcome::Completed { output, .. } => output,
        other => panic!("reference run failed: {other}"),
    };

    let mut device = DeviceBuilder::new()
        .build_eilid(&workload.source)
        .expect("EILID builds");

    // Corrupt the word at the top of the stack at one random point during
    // the run (modelling a transient memory-corruption bug firing once).
    // The bug is application code, so it can only fire while application
    // instructions execute (pc below the EILID trampolines): CASU
    // atomicity keeps trusted-software sections uninterruptible, and
    // between a `call`'s push and the dispatch's shadow-stack store only
    // EILID-emitted instructions run, so a transient application bug
    // cannot land in that window.
    let app_code_end = eilid::sw::DEFAULT_TRAMPOLINE_ORG;
    let trigger_cycle: u64 = rng.gen_range(5_000..40_000);
    let rogue_value: u16 = rng.gen_range(0xE000..0xF700) & !1;
    let mut fired = false;
    let outcome = device.run_with_hook(60_000_000, |cpu, trace| {
        if !fired && trace.total_cycles >= trigger_cycle && trace.pc < app_code_end {
            fired = true;
            let sp = cpu.regs.sp();
            cpu.memory.write_word(sp, rogue_value);
        }
    });
    (outcome, expected)
}

#[test]
fn random_return_address_corruption_never_silently_diverts_execution() {
    let mut detections = 0;
    let mut clean_completions = 0;
    let cases = for_each_case("return-address corruption", 12, |case| {
        let seed = mix_seed(u64::from(case), run_seed());
        let (outcome, expected) = run_with_random_ra_corruption(seed);
        match outcome {
            RunOutcome::Violation { violation, .. } => {
                // Detected: must be a CFI or memory-protection violation.
                assert!(
                    violation.is_cfi()
                        || matches!(
                            violation,
                            eilid_casu::Violation::ExecutionFromWritableMemory { .. }
                        ),
                    "seed {seed}: unexpected violation class {violation}"
                );
                detections += 1;
            }
            RunOutcome::Completed { output, .. } => {
                // The corruption happened to hit a slot that was not a live
                // return address (e.g. saved data); the program must then
                // still compute the right answer.
                assert_eq!(
                    output, expected,
                    "seed {seed}: silent corruption changed the result"
                );
                clean_completions += 1;
            }
            RunOutcome::Timeout { .. } | RunOutcome::Fault { .. } => {
                panic!("seed {seed}: protected device hung or faulted: {outcome}");
            }
        }
    });
    // The corruption lands on a live return address most of the time.
    let replay = format!("PROPTEST_SEED={:#x} PROPTEST_CASES={cases}", run_seed());
    assert!(
        detections >= clean_completions,
        "only {detections} of {cases} random corruptions were detected; replay with {replay}"
    );
    assert!(
        detections > 0,
        "no corruption was ever detected; replay with {replay}"
    );
}

/// Random single-bit flips in the instrumented image's PMEM are CASU's
/// job, not CFI's: whatever the flipped device then computes, its PMEM
/// measurement differs from the clean EILID build's, so attesting it
/// against the clean measurement fails with `UnexpectedMeasurement`.
#[test]
fn random_code_bit_flips_do_not_produce_silently_wrong_results() {
    const KEY: &[u8] = b"bit-flip-attestation-key-0123456";
    let workload = WorkloadId::LightSensor.workload();
    let clean = DeviceBuilder::new().build_eilid(&workload.source).unwrap();
    let expected = merkle_measure_pmem(&clean.cpu().memory);
    let verifier = AttestationVerifier::new(KEY);

    let mut rng = StdRng::seed_from_u64(mix_seed(0xE11D, run_seed()));
    for_each_case("code bit flip", 10, |case| {
        let nonce = u64::from(case);
        let mut device = clean.clone();
        // Flip one random bit inside the loaded application segment.
        let artifacts = device.artifacts().unwrap();
        let segment = artifacts.instrumented_image.segments[0].clone();
        let byte_offset = rng.gen_range(0..segment.bytes.len()) as u16;
        let bit = rng.gen_range(0..8);
        let addr = segment.base + byte_offset;
        assert!(LAYOUT.pmem.contains(&addr), "{addr:#06x} lies in PMEM");
        let original = device.cpu().memory.read_byte(addr);
        device
            .cpu_mut()
            .memory
            .write_byte(addr, original ^ (1 << bit));

        let measurement = merkle_measure_pmem(&device.cpu().memory);
        assert_ne!(measurement, expected, "flip at {addr:#06x} bit {bit}");
        let challenge = verifier.challenge_pmem(nonce);
        let report = Attestor::new(KEY).report(challenge, measurement);
        assert_eq!(
            verifier.verify(&challenge, &report, Some(&expected)),
            Err(AttestError::UnexpectedMeasurement),
            "flip at {addr:#06x} bit {bit}"
        );

        // Whatever the flip does, the run ends in a classified outcome.
        device.run_for(60_000_000);
    });
}
