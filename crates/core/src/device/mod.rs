//! EILID-enabled (and baseline) device simulation.
//!
//! A [`Device`] couples the MSP430 core with the CASU/EILID hardware
//! monitor. The [`DeviceBuilder`] offers two deployment modes:
//!
//! * [`DeviceBuilder::build_baseline`] — the application exactly as written,
//!   with no instrumentation and no monitor. This is the "Original" column
//!   of Table IV.
//! * [`DeviceBuilder::build_eilid`] — the application run through the
//!   `EILIDinst` pipeline, linked against the trusted-software runtime, with
//!   the hardware monitor enforcing CASU's rules plus the EILID shadow-stack
//!   extension. This is the "EILID" column of Table IV.

pub mod builder;
pub mod outcome;

pub use builder::DeviceBuilder;
pub use outcome::RunOutcome;

use std::sync::Arc;

use eilid_casu::{layout, CasuMonitor, MemoryLayout, Violation, LAYOUT};
use eilid_msp430::{Cpu, StepError, StepTrace};

use crate::config::EilidConfig;
use crate::error::EilidError;
use crate::instrument::BuildArtifacts;

/// A simulated device, optionally protected by the EILID hardware monitor.
///
/// Cloning copies the per-device state (core, memory, monitor) and shares
/// what the firmware build fixed: the build artifacts, the secure-DMEM
/// boot image and the core's predecoded instruction table are read-only
/// after the build, so every clone of one prototype points at the same
/// copy.
#[derive(Debug, Clone)]
pub struct Device {
    cpu: Cpu,
    monitor: Option<CasuMonitor>,
    config: EilidConfig,
    artifacts: Option<Arc<BuildArtifacts>>,
    resets: u64,
    /// Secure DMEM as built, on monitored (EILID) devices. The trusted
    /// runtime keeps its function-table count and shadow-stack index
    /// there; every reset restores them so each boot starts from an
    /// empty table and stack.
    secure_boot: Option<Arc<[u8]>>,
}

impl Device {
    pub(crate) fn from_parts(
        mut cpu: Cpu,
        monitor: Option<CasuMonitor>,
        config: EilidConfig,
        artifacts: Option<BuildArtifacts>,
    ) -> Self {
        // Monitored cores get the monitor's pre-commit bus write gate:
        // a violating PMEM/secure-ROM/vector-table store is blocked
        // *before* it commits (and still reset via the trace check), as
        // on the real CASU hardware. Baseline cores stay ungated.
        cpu.set_write_gate(monitor.as_ref().map(CasuMonitor::write_gate));
        let secure_boot = monitor
            .is_some()
            .then(|| cpu.memory.slice(secure_dmem()).into());
        Device {
            cpu,
            monitor,
            config,
            artifacts: artifacts.map(Arc::new),
            resets: 0,
            secure_boot,
        }
    }

    /// The simulated core (registers, memory, peripherals).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the core — used by attack injectors that model an
    /// adversary with arbitrary write access to data memory.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The memory map, always [`LAYOUT`]. Kept for the frozen benchmark
    /// crate, which reads PMEM's bounds through it.
    pub fn layout(&self) -> &'static MemoryLayout {
        &LAYOUT
    }

    /// The EILID configuration the device was built with.
    pub fn config(&self) -> &EilidConfig {
        &self.config
    }

    /// Build artifacts (instrumented image, report, metrics) for
    /// EILID-protected devices; `None` for baseline devices.
    pub fn artifacts(&self) -> Option<&BuildArtifacts> {
        self.artifacts.as_deref()
    }

    /// The attached hardware monitor, if any.
    pub fn monitor(&self) -> Option<&CasuMonitor> {
        self.monitor.as_ref()
    }

    /// `true` when the hardware monitor is attached.
    pub fn is_protected(&self) -> bool {
        self.monitor.is_some()
    }

    /// Number of monitor-triggered resets performed so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Total clock cycles consumed since construction.
    pub fn cycles(&self) -> u64 {
        self.cpu.total_cycles()
    }

    /// Resets the core, the monitor state and the EILID runtime state in
    /// secure DMEM, as the hardware does after a violation.
    pub fn reset(&mut self) {
        self.restart();
        self.resets += 1;
    }

    /// Reboots the device into its current program image: core, monitor
    /// *and* peripherals return to their power-on state (unlike
    /// [`Device::reset`], which models the hardware violation reset and
    /// leaves peripherals untouched). Used after an OTA update to start
    /// the new firmware from its reset vector; not counted in
    /// [`Device::resets`].
    pub fn reboot(&mut self) {
        self.cpu.peripherals.reset();
        self.restart();
    }

    /// Core, monitor and EILID runtime state back to their boot values.
    fn restart(&mut self) {
        self.cpu.reset();
        if let Some(monitor) = &mut self.monitor {
            monitor.reset();
        }
        if let Some(boot) = &self.secure_boot {
            let start = *LAYOUT.secure_dmem.start();
            self.cpu
                .memory
                .load(start, boot)
                .expect("secure DMEM lies inside the address space");
        }
    }

    /// Executes one step and evaluates the monitor over it, lending out
    /// the core's trace of the step as [`Cpu::step`] does.
    ///
    /// # Errors
    ///
    /// Returns [`EilidError::Step`] if the core hits an undecodable
    /// instruction word (callers usually map this to
    /// [`RunOutcome::Fault`]).
    pub fn step(&mut self) -> Result<(&StepTrace, Option<Violation>), EilidError> {
        Ok(self.monitored_step()?)
    }

    /// The one step [`Device::step`] and [`Device::run_with_hook`]
    /// share: gate the IRQ line, step the core, let the monitor judge
    /// the trace the core built in place, by reference.
    ///
    /// Always inlined. The run loop gets back a reference to the core's
    /// trace, not a copy of it: the monitor reads it where the core
    /// wrote it, and only the hook gets a copy.
    #[inline(always)]
    fn monitored_step(&mut self) -> Result<(&StepTrace, Option<Violation>), StepError> {
        // Hardware IRQ gating: interrupts are deferred while trusted
        // software executes in the secure ROM.
        let in_secure = layout::in_secure_rom(self.cpu.regs.pc());
        self.cpu
            .set_irq_inhibited(self.monitor.is_some() && in_secure);
        let trace = self.cpu.step()?;
        let violation = self
            .monitor
            .as_mut()
            .and_then(|monitor| monitor.check(trace));
        Ok((trace, violation))
    }

    /// Runs until completion, violation, fault or the configured cycle
    /// budget.
    pub fn run(&mut self) -> RunOutcome {
        self.run_for(self.config.max_cycles)
    }

    /// Runs with an explicit cycle budget.
    pub fn run_for(&mut self, max_cycles: u64) -> RunOutcome {
        self.run_with_hook(max_cycles, |_, _| {})
    }

    /// Runs while invoking `hook` after every step. The hook receives
    /// mutable access to the core, which is how the attack injectors model
    /// an adversary exploiting a memory-corruption bug at run time, and a
    /// copy of the step's trace (dead code when an inlined hook ignores
    /// it).
    pub fn run_with_hook<F>(&mut self, max_cycles: u64, mut hook: F) -> RunOutcome
    where
        F: FnMut(&mut Cpu, &StepTrace),
    {
        let start_cycles = self.cpu.total_cycles();
        loop {
            let elapsed = self.cpu.total_cycles() - start_cycles;
            if self.cpu.peripherals.sim_done() {
                return RunOutcome::Completed {
                    cycles: elapsed,
                    exit_code: self.cpu.peripherals.exit_code(),
                    output: self.cpu.peripherals.sim_output().to_vec(),
                };
            }
            if elapsed >= max_cycles {
                return RunOutcome::Timeout { cycles: elapsed };
            }
            match self.monitored_step() {
                Ok((&trace, None)) => hook(&mut self.cpu, &trace),
                Ok((_, Some(violation))) => {
                    let cycles = self.cpu.total_cycles() - start_cycles;
                    // The hardware resets the device; we stop and report so
                    // callers can observe the detection.
                    self.reset();
                    return RunOutcome::Violation { violation, cycles };
                }
                Err(step_error) => {
                    let cycles = self.cpu.total_cycles() - start_cycles;
                    return RunOutcome::Fault {
                        pc: step_error.address,
                        cycles,
                    };
                }
            }
        }
    }
}

/// The secure DMEM region as a byte range.
fn secure_dmem() -> std::ops::Range<usize> {
    usize::from(*LAYOUT.secure_dmem.start())..usize::from(*LAYOUT.secure_dmem.end()) + 1
}
