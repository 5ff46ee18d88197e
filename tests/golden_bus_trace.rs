//! Golden bus-trace oracle: every step of every Table IV app's EILID
//! build, clean and under each applicable CFI attack, folded into one
//! digest per case and pinned.
//!
//! The digest covers what the hardware monitor observes on each step —
//! `pc`, `next_pc`, the step event, the instruction fetch addresses, every
//! data read and write, the step's cycles and the monitor's verdict —
//! followed by the run's final [`RunOutcome`]. A change to the simulator's
//! step machinery (bus logging, decoding, the device loop) must leave
//! every digest unchanged; a change that is *meant* to alter the observable
//! bus behaviour has to re-pin them deliberately.

use eilid::{Device, DeviceBuilder, RunOutcome};
use eilid_msp430::{AccessKind, MemAccess, StepEvent, StepTrace, Width};
use eilid_workloads::{inject, CfiAttack, WorkloadId};

/// Cycle budget of one case (the longest clean run is ~0.6M cycles).
const MAX_CYCLES: u64 = 5_000_000;

/// Digests pinned from the simulator as it stood before the allocation-free
/// step: `(app, case, digest)`.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("LightSensor", "clean", 0x07cb5f7f7f7525ae),
    ("LightSensor", "ReturnAddressOverwrite", 0x25c5f67c74986480),
    ("LightSensor", "CodeInjectionJump", 0x217e9155df2fef11),
    ("UltrasonicRanger", "clean", 0xb4677bd18ec67dbb),
    (
        "UltrasonicRanger",
        "ReturnAddressOverwrite",
        0xb6bd6ff21ebd095d,
    ),
    ("UltrasonicRanger", "CodeInjectionJump", 0x9d018cfb91d41ea8),
    ("FireSensor", "clean", 0xae1b3c2f1c956122),
    ("FireSensor", "ReturnAddressOverwrite", 0xd8fdd087b90de789),
    ("FireSensor", "CodeInjectionJump", 0x365728c332be0570),
    ("SyringePump", "clean", 0x032215635906ab8e),
    ("SyringePump", "ReturnAddressOverwrite", 0xb59473083a61d10d),
    ("SyringePump", "IsrContextTamper", 0x985d5db6e1f8cdc4),
    ("SyringePump", "CodeInjectionJump", 0x22b5bfa36aeb8f0c),
    ("TempSensor", "clean", 0x99cc7d5565d5d2e6),
    ("TempSensor", "ReturnAddressOverwrite", 0x36db5ed4b19f69e1),
    ("TempSensor", "IsrContextTamper", 0xc1f2a938a0e180e1),
    ("TempSensor", "CodeInjectionJump", 0xc878477d01ec60f0),
    ("Charlieplexing", "clean", 0xe8804102db1fff1d),
    (
        "Charlieplexing",
        "ReturnAddressOverwrite",
        0xf34d51874f8174b4,
    ),
    ("Charlieplexing", "IndirectCallHijack", 0x7579a6b62e10c3f4),
    ("Charlieplexing", "CodeInjectionJump", 0x1b71a7f615ef7925),
    ("LcdSensor", "clean", 0x4d6b41aa9063222a),
    ("LcdSensor", "ReturnAddressOverwrite", 0x0af787aa8c61b59a),
    ("LcdSensor", "CodeInjectionJump", 0x88556ff17b02e5c1),
];

/// 64-bit FNV-1a over the little-endian bytes of each folded value.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn accesses(&mut self, accesses: &[MemAccess]) {
        self.u64(accesses.len() as u64);
        for a in accesses {
            self.u16(a.addr);
            self.u16(a.value);
            self.u16(match a.width {
                Width::Byte => 1,
                Width::Word => 2,
            });
            self.u16(match a.kind {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
            });
        }
    }

    fn step(&mut self, trace: &StepTrace) {
        self.u16(trace.pc);
        self.u16(trace.next_pc);
        match trace.event {
            StepEvent::Executed => self.u16(0),
            StepEvent::InterruptTaken { vector } => {
                self.u16(1);
                self.u16(u16::from(vector));
            }
            StepEvent::Idle => self.u16(2),
            StepEvent::DecodeFault { word } => {
                self.u16(3);
                self.u16(word);
            }
        }
        let fetches = trace.fetch_addresses();
        self.u64(fetches.len() as u64);
        for fetch in fetches {
            self.u16(fetch);
        }
        self.accesses(&trace.reads);
        self.accesses(&trace.writes);
        self.u64(trace.cycles);
    }

    fn text(&mut self, text: &str) {
        self.u64(text.len() as u64);
        self.bytes(text.as_bytes());
    }
}

fn symbol(device: &Device, name: &str) -> u16 {
    device
        .artifacts()
        .and_then(|artifacts| artifacts.instrumented_image.symbol(name))
        .unwrap_or_else(|| panic!("symbol {name} missing"))
}

/// A step hook: runs after every step the monitor passed.
type Hook = Box<dyn FnMut(&mut Device, &StepTrace)>;

/// The adversary's memory write after a step, as `attacks::inject` makes
/// it (the same trigger points and the same writes).
fn attack_hook(device: &Device, attack: CfiAttack) -> Hook {
    let attack_point = symbol(device, "attack_point");
    let gadget = symbol(device, "main");
    match attack {
        CfiAttack::ReturnAddressOverwrite => Box::new(move |device, trace| {
            if trace.pc == attack_point {
                let cpu = device.cpu_mut();
                let sp = cpu.regs.sp();
                cpu.memory.write_word(sp, gadget);
            }
        }),
        CfiAttack::IsrContextTamper => {
            let isr_point = symbol(device, "isr_attack_point");
            Box::new(move |device, trace| {
                if trace.pc == isr_point {
                    // The EILID prologue pushes r4/r6/r7 above the saved PC.
                    let cpu = device.cpu_mut();
                    let slot = cpu.regs.sp().wrapping_add(8);
                    cpu.memory.write_word(slot, gadget);
                }
            })
        }
        CfiAttack::IndirectCallHijack => {
            let pointer = symbol(device, "PATTERN_PTR");
            let rogue = symbol(device, "attack_gadget");
            Box::new(move |device, trace| {
                if trace.pc == attack_point {
                    device.cpu_mut().memory.write_word(pointer, rogue);
                }
            })
        }
        CfiAttack::CodeInjectionJump => Box::new(move |device, trace| {
            if trace.pc == attack_point {
                let cpu = device.cpu_mut();
                cpu.memory.write_word(0x0380, 0x3FFF);
                let sp = cpu.regs.sp();
                cpu.memory.write_word(sp, 0x0380);
            }
        }),
    }
}

/// Steps `device` one [`Device::step`] at a time, as `Device::run_with_hook`
/// does, folding every step (the violating one included) into the digest.
fn stepped_digest(
    device: &mut Device,
    mut hook: impl FnMut(&mut Device, &StepTrace),
) -> (u64, RunOutcome) {
    let mut digest = Digest::new();
    let start = device.cycles();
    let outcome = loop {
        let cycles = device.cycles() - start;
        let peripherals = &device.cpu().peripherals;
        if peripherals.sim_done() {
            break RunOutcome::Completed {
                cycles,
                exit_code: peripherals.exit_code(),
                output: peripherals.sim_output().to_vec(),
            };
        }
        if cycles >= MAX_CYCLES {
            break RunOutcome::Timeout { cycles };
        }
        match device.step() {
            Ok((&trace, violation)) => {
                digest.step(&trace);
                digest.text(&format!("{violation:?}"));
                if let Some(violation) = violation {
                    let cycles = device.cycles() - start;
                    device.reset();
                    break RunOutcome::Violation { violation, cycles };
                }
                hook(device, &trace);
            }
            Err(_) => {
                break RunOutcome::Fault {
                    // A faulting step leaves the core unchanged.
                    pc: device.cpu().regs.pc(),
                    cycles: device.cycles() - start,
                };
            }
        }
    };
    digest.text(&format!("{outcome:?}"));
    (digest.0, outcome)
}

fn case_name(attack: Option<CfiAttack>) -> String {
    attack.map_or("clean".to_string(), |attack| format!("{attack:?}"))
}

/// Every case's digest, in `WorkloadId::ALL` order, clean run first.
/// Each stepped run is cross-checked against the production path:
/// `run_with_hook` for clean runs (same digest, same outcome) and
/// `attacks::inject` for attacks (same outcome).
fn all_digests() -> Vec<(&'static str, String, u64)> {
    let builder = DeviceBuilder::new();
    let mut digests = Vec::new();
    for id in WorkloadId::ALL {
        let prototype = builder
            .build_eilid(&id.workload().source)
            .expect("EILID build succeeds");

        let (clean, outcome) = stepped_digest(&mut prototype.clone(), |_, _| {});
        let mut hooked = Digest::new();
        let hooked_outcome = prototype.clone().run_with_hook(MAX_CYCLES, |_, trace| {
            hooked.step(trace);
            hooked.text("None");
        });
        hooked.text(&format!("{hooked_outcome:?}"));
        assert!(outcome.is_completed(), "{id}: clean run ended {outcome}");
        assert_eq!(outcome, hooked_outcome, "{id}: run_with_hook disagrees");
        assert_eq!(clean, hooked.0, "{id}: run_with_hook saw other steps");
        digests.push((id.name(), case_name(None), clean));

        for attack in CfiAttack::ALL {
            let Ok(injected) = inject(&mut prototype.clone(), attack, MAX_CYCLES) else {
                continue;
            };
            let hook = attack_hook(&prototype, attack);
            let (digest, outcome) = stepped_digest(&mut prototype.clone(), hook);
            assert_eq!(outcome, injected.outcome, "{id}: {attack} disagrees");
            assert!(injected.detected_as_expected(), "{id}: {attack}: {outcome}");
            digests.push((id.name(), case_name(Some(attack)), digest));
        }
    }
    digests
}

#[test]
fn bus_traces_match_the_golden_digests() {
    let actual = all_digests();
    let rendered: String = actual
        .iter()
        .map(|(app, case, digest)| format!("    (\"{app}\", \"{case}\", {digest:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), 24, "seven clean runs plus 17 attacks");
    let pinned: Vec<(&str, String, u64)> = GOLDEN
        .iter()
        .map(|&(app, case, digest)| (app, case.to_string(), digest))
        .collect();
    assert!(
        actual == pinned,
        "bus traces differ from the golden digests; actual:\n{rendered}"
    );
}
