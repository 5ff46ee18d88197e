//! Building baseline and EILID-protected devices from application source.

use eilid_asm::{assemble, Image};
use eilid_casu::CasuMonitor;
use eilid_msp430::{AdcStimulus, Cpu, Memory};

use crate::config::EilidConfig;
use crate::device::Device;
use crate::error::EilidError;
use crate::instrument::InstrumentedBuild;
use crate::sw::Runtime;

/// Builder for [`Device`]s.
///
/// # Examples
///
/// Building and running an EILID-protected device:
///
/// ```
/// use eilid::DeviceBuilder;
///
/// let app = "    .org 0xe000
///     .global main
/// main:
///     mov #0x0400, sp
///     mov #5, r10
///     call #double
///     mov r10, &0x0102
///     mov #0x00ff, &0x0100
/// hang:
///     jmp hang
/// double:
///     add r10, r10
///     ret
/// ";
/// let mut device = DeviceBuilder::new().build_eilid(app)?;
/// let outcome = device.run();
/// assert!(outcome.is_completed());
/// # Ok::<(), eilid::EilidError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    config: EilidConfig,
    adc_stimulus: Option<AdcStimulus>,
}

impl Default for DeviceBuilder {
    fn default() -> Self {
        DeviceBuilder::new()
    }
}

impl DeviceBuilder {
    /// Creates a builder with the default configuration.
    pub fn new() -> Self {
        DeviceBuilder {
            config: EilidConfig::default(),
            adc_stimulus: None,
        }
    }

    /// Replaces the EILID configuration.
    pub fn config(mut self, config: EilidConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the stimulus pattern of the synthetic ADC peripheral.
    pub fn adc_stimulus(mut self, stimulus: AdcStimulus) -> Self {
        self.adc_stimulus = Some(stimulus);
        self
    }

    /// A core holding `images`, loaded in order, with their segments
    /// predecoded once for this build and every clone of it.
    fn make_cpu(&self, images: &[&Image]) -> Result<Cpu, EilidError> {
        let mut memory = Memory::new();
        for image in images {
            image.load_into(&mut memory)?;
        }
        let mut cpu = Cpu::new(memory);
        cpu.predecode(
            images
                .iter()
                .flat_map(|image| &image.segments)
                .map(|segment| usize::from(segment.base)..segment.end() as usize),
        );
        if let Some(stimulus) = &self.adc_stimulus {
            cpu.peripherals.set_adc_stimulus(stimulus.clone());
        }
        cpu.reset();
        Ok(cpu)
    }

    /// Builds an unprotected baseline device running the application as
    /// written ("Original" in Table IV).
    ///
    /// # Errors
    ///
    /// Returns [`EilidError`] if the application fails to assemble or load.
    pub fn build_baseline(&self, app_source: &str) -> Result<Device, EilidError> {
        let image = assemble(app_source)?;
        let cpu = self.make_cpu(&[&image])?;
        Ok(Device::from_parts(cpu, None, self.config.clone(), None))
    }

    /// Builds an EILID-protected device: instruments the application
    /// (Figure 2 pipeline), links it against the trusted-software runtime,
    /// loads both images and attaches the hardware monitor with the secure
    /// gates set to the runtime's entry/leave addresses.
    ///
    /// # Errors
    ///
    /// Returns [`EilidError`] if the configuration is invalid, the
    /// application cannot be instrumented, or any image fails to assemble or
    /// load.
    pub fn build_eilid(&self, app_source: &str) -> Result<Device, EilidError> {
        let runtime = Runtime::build(&self.config)?;
        let pipeline = InstrumentedBuild::new(self.config.clone());
        let artifacts = pipeline.run(app_source, &runtime)?;

        let cpu = self.make_cpu(&[&artifacts.instrumented_image, runtime.image()])?;
        let monitor = CasuMonitor::new(runtime.policy());
        Ok(Device::from_parts(
            cpu,
            Some(monitor),
            self.config.clone(),
            Some(artifacts),
        ))
    }

    /// Builds a protected device around an *already instrumented* source —
    /// used by tests and attack demos that hand-craft malicious or edge-case
    /// programs while keeping the monitor and runtime in place.
    ///
    /// # Errors
    ///
    /// Returns [`EilidError`] if assembly or loading fails.
    pub fn build_monitored_raw(&self, source: &str) -> Result<Device, EilidError> {
        let runtime = Runtime::build(&self.config)?;
        let image = assemble(source)?;
        let cpu = self.make_cpu(&[&image, runtime.image()])?;
        let monitor = CasuMonitor::new(runtime.policy());
        Ok(Device::from_parts(
            cpu,
            Some(monitor),
            self.config.clone(),
            None,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::RunOutcome;
    use eilid_casu::{CfiFault, Violation};

    const APP: &str = "    .org 0xe000
    .global main
    .equ SIM_CTL, 0x0100
    .equ SIM_OUT, 0x0102
    .equ DONE, 0x00ff
main:
    mov #0x0400, sp
    mov #7, r10
    call #double
    call #double
    mov r10, &SIM_OUT
    mov #DONE, &SIM_CTL
hang:
    jmp hang
double:
    add r10, r10
    ret
";

    #[test]
    fn baseline_and_eilid_devices_compute_the_same_result() {
        let builder = DeviceBuilder::new();
        let mut baseline = builder.build_baseline(APP).unwrap();
        let mut protected = builder.build_eilid(APP).unwrap();
        assert!(!baseline.is_protected());
        assert!(protected.is_protected());

        let base_outcome = baseline.run();
        let eilid_outcome = protected.run();
        match (&base_outcome, &eilid_outcome) {
            (RunOutcome::Completed { output: a, .. }, RunOutcome::Completed { output: b, .. }) => {
                assert_eq!(a, b, "instrumentation must not change results");
                assert_eq!(a, &vec![28]);
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
        // EILID costs extra cycles but stays within a small factor.
        let base = base_outcome.cycles() as f64;
        let eilid = eilid_outcome.cycles() as f64;
        assert!(eilid > base);
        // The app is tiny, so the fixed per-call cost dominates; just sanity
        // check that the factor stays within an order of magnitude. The
        // realistic overheads are measured on the Table IV workloads.
        assert!(
            eilid / base < 20.0,
            "overhead factor {:.2} is implausibly high",
            eilid / base
        );
    }

    #[test]
    fn protected_device_reports_artifacts() {
        let device = DeviceBuilder::new().build_eilid(APP).unwrap();
        let artifacts = device
            .artifacts()
            .expect("protected devices carry artifacts");
        assert_eq!(artifacts.report.call_sites, 2);
        assert_eq!(artifacts.report.returns, 1);
        assert!(
            artifacts.metrics.instrumented_binary_bytes > artifacts.metrics.original_binary_bytes
        );
        assert!(DeviceBuilder::new()
            .build_baseline(APP)
            .unwrap()
            .artifacts()
            .is_none());
    }

    #[test]
    fn clones_share_the_build_and_restore_their_own_secure_dmem() {
        let device = DeviceBuilder::new().build_eilid(APP).unwrap();
        let mut clone = device.clone();
        assert!(std::ptr::eq(
            device.artifacts().unwrap(),
            clone.artifacts().unwrap()
        ));

        // Scribble over the clone's secure DMEM: a reset must restore it
        // from the shared boot image and leave the original untouched.
        let secure = crate::device::secure_dmem();
        let built = device.cpu().memory.slice(secure.clone()).to_vec();
        assert!(built.iter().any(|&byte| byte != 0xA5));
        clone.cpu_mut().memory.fill(secure.clone(), 0xA5);
        clone.reset();
        assert_eq!(clone.cpu().memory.slice(secure.clone()), &built[..]);
        assert_eq!(device.cpu().memory.slice(secure), &built[..]);
        assert_eq!((device.resets(), clone.resets()), (0, 1));
    }

    #[test]
    fn return_address_attack_is_detected_and_resets() {
        // The adversary overwrites the saved return address on the main
        // stack while `double` executes, redirecting the return into `hang`.
        let builder = DeviceBuilder::new();
        let mut device = builder.build_eilid(APP).unwrap();
        let hang = device
            .artifacts()
            .unwrap()
            .instrumented_image
            .symbol("hang")
            .unwrap();
        let double = device
            .artifacts()
            .unwrap()
            .instrumented_image
            .symbol("double")
            .unwrap();

        let outcome = device.run_with_hook(10_000_000, |cpu, trace| {
            // When execution reaches the body of `double`, smash the return
            // address that `call #double` pushed (now at the top of stack).
            if trace.pc == double {
                let sp = cpu.regs.sp();
                cpu.memory.write_word(sp, hang);
            }
        });
        match outcome {
            RunOutcome::Violation { violation, .. } => {
                assert_eq!(
                    violation,
                    Violation::Cfi {
                        fault: CfiFault::ReturnAddress
                    }
                );
            }
            other => panic!("attack was not detected: {other}"),
        }
        assert_eq!(device.resets(), 1);
    }

    #[test]
    fn baseline_device_misses_the_same_attack() {
        let builder = DeviceBuilder::new();
        let mut device = builder.build_baseline(APP).unwrap();
        let image = eilid_asm::assemble(APP).unwrap();
        let double = image.symbol("double").unwrap();
        let hang = image.symbol("hang").unwrap();
        let outcome = device.run_with_hook(200_000, |cpu, trace| {
            if trace.pc == double {
                let sp = cpu.regs.sp();
                cpu.memory.write_word(sp, hang);
            }
        });
        // Without EILID the hijacked return silently diverts execution; the
        // application never reaches its "done" write and times out.
        assert!(matches!(outcome, RunOutcome::Timeout { .. }));
    }

    #[test]
    fn monitored_raw_device_detects_code_injection() {
        // A malicious program copies a gadget into DMEM and jumps to it —
        // CASU's W^X rule catches the fetch from writable memory.
        let source = "    .org 0xe000
    .global main
main:
    mov #0x0400, sp
    mov #0x4303, &0x0300   ; write a nop into DMEM
    br #0x0300
";
        let mut device = DeviceBuilder::new().build_monitored_raw(source).unwrap();
        let outcome = device.run_for(10_000);
        assert!(matches!(
            outcome.violation(),
            Some(Violation::ExecutionFromWritableMemory { .. })
        ));
    }

    #[test]
    fn violating_pmem_write_is_vetoed_before_commit() {
        // The program stores into its own code region. On a monitored
        // device the store is vetoed at the bus (memory unchanged) *and*
        // punished with a violation reset; on a baseline device it
        // silently commits.
        let source = "    .org 0xe000
    .global main
main:
    mov #0x0400, sp
    mov #0x1234, &0xf000
hang:
    jmp hang
";
        let mut protected = DeviceBuilder::new().build_monitored_raw(source).unwrap();
        let before = protected.cpu().memory.read_word(0xF000);
        let outcome = protected.run_for(10_000);
        assert!(matches!(
            outcome.violation(),
            Some(Violation::PmemWrite { addr: 0xF000, .. })
        ));
        assert_eq!(
            protected.cpu().memory.read_word(0xF000),
            before,
            "the violating write must never commit"
        );
        assert_eq!(protected.cpu().vetoed_writes(), 1);

        let mut baseline = DeviceBuilder::new().build_baseline(source).unwrap();
        baseline.run_for(10_000);
        assert_eq!(
            baseline.cpu().memory.read_word(0xF000),
            0x1234,
            "an unmonitored core has no gate"
        );
    }

    #[test]
    fn immediate_operand_rewrite_in_pmem_is_vetoed_and_flagged() {
        // `rra #N` writes its result back to its operand, the
        // instruction's own extension word in PMEM (0xE006 here): a PMEM
        // write like any other. Address 0 stays untouched.
        let source = "    .org 0xe000
    .global main
main:
    mov #0x0400, sp
    rra #0x1234
hang:
    jmp hang
";
        let mut protected = DeviceBuilder::new().build_monitored_raw(source).unwrap();
        let outcome = protected.run_for(10_000);
        assert!(matches!(
            outcome.violation(),
            Some(Violation::PmemWrite { addr: 0xE006, .. })
        ));
        assert_eq!(protected.cpu().memory.read_word(0xE006), 0x1234);
        assert_eq!(protected.cpu().memory.read_word(0x0000), 0);
        assert_eq!(protected.cpu().vetoed_writes(), 1);
    }

    #[test]
    fn authenticated_update_still_writes_through_the_gate() {
        // The gate must not break the authorised update path: the engine
        // writes the payload into memory directly, past the gate.
        use eilid_casu::{UpdateAuthority, UpdateEngine};
        let mut device = DeviceBuilder::new().build_eilid(APP).unwrap();
        let key = b"update-gate-test-key-0123456789a";
        let mut authority = UpdateAuthority::new(key);
        let mut engine = UpdateEngine::new(key);
        let request = authority.authorize(0xF680, &[0xAB, 0xCD]);
        engine
            .apply(&request, &mut device.cpu_mut().memory)
            .unwrap();
        assert_eq!(device.cpu().memory.read_byte(0xF680), 0xAB);
        // And the device still runs clean afterwards.
        assert!(device.run().is_completed());
    }

    #[test]
    fn store_into_a_freshly_updated_range_is_still_vetoed() {
        // An authenticated update writes PMEM directly; no step runs
        // while it does. A later store by the firmware into the updated
        // range is an ordinary PMEM write: vetoed and punished.
        use eilid_casu::{UpdateAuthority, UpdateEngine};
        let source = "    .org 0xe000
    .global main
main:
    mov #0x0400, sp
    mov #0x1234, &0xf680
hang:
    jmp hang
";
        let mut device = DeviceBuilder::new().build_eilid(source).unwrap();
        let key = b"update-gate-test-key-0123456789a";
        let mut authority = UpdateAuthority::new(key);
        let mut engine = UpdateEngine::new(key);
        let request = authority.authorize(0xF680, &[0xAB, 0xCD]);
        engine
            .apply(&request, &mut device.cpu_mut().memory)
            .unwrap();
        assert_eq!(device.cpu().memory.read_word(0xF680), 0xCDAB);

        let vetoed = device.cpu().vetoed_writes();
        let outcome = device.run_for(10_000);
        assert!(matches!(
            outcome.violation(),
            Some(Violation::PmemWrite { addr: 0xF680, .. })
        ));
        assert_eq!(device.cpu().memory.read_word(0xF680), 0xCDAB);
        assert_eq!(device.cpu().vetoed_writes(), vetoed + 1);
    }

    #[test]
    fn timeout_is_reported() {
        let source = "    .org 0xe000\n    .global main\nmain:\n    jmp main\n";
        let mut device = DeviceBuilder::new().build_baseline(source).unwrap();
        assert!(matches!(device.run_for(1_000), RunOutcome::Timeout { .. }));
    }
}
