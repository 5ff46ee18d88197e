//! Memory-mapped peripheral models.
//!
//! The paper's evaluation applications (light sensor, ultrasonic ranger,
//! fire sensor, syringe pump, temperature sensor, charlieplexing, LCD) talk
//! to simple sensor/actuator peripherals. The simulator provides synthetic
//! equivalents mapped into the peripheral page (`0x0000..0x0200`) of the
//! 64 KiB address space:
//!
//! | Address | Register |
//! |---------|----------|
//! | `0x0100` | `SIM_CTL` — writing [`SIM_DONE_MAGIC`] ends the simulation |
//! | `0x0102` | `SIM_OUT` — debug/telemetry word output (captured) |
//! | `0x0104` | `SIM_EXIT` — exit code reported by the application |
//! | `0x0110` | `ADC_CTL` — bit 0 starts a conversion |
//! | `0x0112` | `ADC_DATA` — most recent conversion result |
//! | `0x0120` | `TIMER_CTL` — bit 0 enable, bit 1 IRQ enable, bit 2 ack |
//! | `0x0122` | `TIMER_COUNT` — free-running counter (divided clock) |
//! | `0x0124` | `TIMER_COMPARE` — compare value for the IRQ |
//! | `0x0130` | `GPIO_OUT` / `0x0132` `GPIO_IN` / `0x0134` `GPIO_DIR` |
//! | `0x0140` | `UART_TX` — console/LCD byte output (captured) |
//! | `0x0142` | `UART_STATUS` — always ready |
//! | `0x0150` | `ULTRA_CTL` — bit 0 triggers a ping |
//! | `0x0152` | `ULTRA_ECHO` — echo round-trip time |
//!
//! Everything else in the peripheral page reads/writes as plain scratch
//! memory so that monitor-owned trigger addresses (for example the EILID
//! violation strobe) behave like ordinary MMIO locations.

use serde::{Deserialize, Serialize};

/// Base address of the simulation-control register.
pub const SIM_CTL: u16 = 0x0100;
/// Debug word output register.
pub const SIM_OUT: u16 = 0x0102;
/// Application exit-code register.
pub const SIM_EXIT: u16 = 0x0104;
/// ADC control register.
pub const ADC_CTL: u16 = 0x0110;
/// ADC data register.
pub const ADC_DATA: u16 = 0x0112;
/// Timer control register.
pub const TIMER_CTL: u16 = 0x0120;
/// Timer counter register.
pub const TIMER_COUNT: u16 = 0x0122;
/// Timer compare register.
pub const TIMER_COMPARE: u16 = 0x0124;
/// GPIO output register.
pub const GPIO_OUT: u16 = 0x0130;
/// GPIO input register (no pin is driven, so it reads 0).
pub const GPIO_IN: u16 = 0x0132;
/// GPIO direction register.
pub const GPIO_DIR: u16 = 0x0134;
/// UART transmit register.
pub const UART_TX: u16 = 0x0140;
/// UART status register.
pub const UART_STATUS: u16 = 0x0142;
/// Ultrasonic trigger register.
pub const ULTRA_CTL: u16 = 0x0150;
/// Ultrasonic echo-time register.
pub const ULTRA_ECHO: u16 = 0x0152;

/// Value written to [`SIM_CTL`] by an application to signal completion.
pub const SIM_DONE_MAGIC: u16 = 0x00FF;

/// End of the peripheral page (exclusive).
pub const PERIPHERAL_END: u16 = 0x0200;

/// Interrupt vector index used by the timer peripheral.
pub const TIMER_IRQ_VECTOR: u8 = 8;

/// Interrupt vector index used by the GPIO port.
pub const GPIO_IRQ_VECTOR: u8 = 2;

/// Number of CPU cycles per timer tick (the timer runs on a divided clock).
pub const TIMER_DIVIDER: u64 = 8;

/// Deterministic stimulus pattern produced by the synthetic ADC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdcStimulus {
    /// A constant reading.
    Constant(u16),
    /// A ramp that increases by `step` (wrapping at `max`) per conversion.
    Ramp {
        /// Starting value.
        start: u16,
        /// Increment per conversion.
        step: u16,
        /// Wrap-around bound (exclusive).
        max: u16,
    },
    /// An explicit sequence of samples, repeated cyclically.
    Sequence(Vec<u16>),
}

impl Default for AdcStimulus {
    fn default() -> Self {
        AdcStimulus::Ramp {
            start: 0x0100,
            step: 0x0017,
            max: 0x0400,
        }
    }
}

impl AdcStimulus {
    fn sample(&self, index: u64) -> u16 {
        match self {
            AdcStimulus::Constant(v) => *v,
            AdcStimulus::Ramp { start, step, max } => {
                let span = u64::from(*max).max(1);
                let value = (u64::from(*start) + index * u64::from(*step)) % span;
                value as u16
            }
            AdcStimulus::Sequence(seq) => {
                if seq.is_empty() {
                    0
                } else {
                    seq[(index % seq.len() as u64) as usize]
                }
            }
        }
    }
}

/// The collection of synthetic peripherals attached to the simulated core.
///
/// # Examples
///
/// ```
/// use eilid_msp430::peripherals::{Peripherals, ADC_CTL, ADC_DATA};
///
/// let mut p = Peripherals::new();
/// p.write(ADC_CTL, 1);
/// let first = p.read(ADC_DATA);
/// p.write(ADC_CTL, 1);
/// let second = p.read(ADC_DATA);
/// assert_ne!(first, second, "default ramp stimulus advances per conversion");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Peripherals {
    scratch: Vec<u8>,
    sim_done: bool,
    exit_code: u16,
    sim_output: Vec<u16>,
    uart_output: Vec<u8>,
    adc_stimulus: AdcStimulus,
    adc_conversions: u64,
    adc_data: u16,
    timer_ctl: u16,
    timer_count: u16,
    timer_compare: u16,
    timer_residual: u64,
    timer_irq_pending: bool,
    gpio_out: u16,
    gpio_dir: u16,
    ultra_echo: u16,
    ultra_pings: u64,
}

impl Peripherals {
    /// Creates the peripheral set with default stimulus.
    pub fn new() -> Self {
        Peripherals {
            scratch: vec![0; usize::from(PERIPHERAL_END) + 2],
            sim_done: false,
            exit_code: 0,
            sim_output: Vec::new(),
            uart_output: Vec::new(),
            adc_stimulus: AdcStimulus::default(),
            adc_conversions: 0,
            adc_data: 0,
            timer_ctl: 0,
            timer_count: 0,
            timer_compare: 0,
            timer_residual: 0,
            timer_irq_pending: false,
            gpio_out: 0,
            gpio_dir: 0,
            ultra_echo: 0,
            ultra_pings: 0,
        }
    }

    /// Replaces the ADC stimulus pattern.
    pub fn set_adc_stimulus(&mut self, stimulus: AdcStimulus) {
        self.adc_stimulus = stimulus;
    }

    /// Returns every peripheral to its power-on state while keeping the
    /// configured ADC stimulus, as a device reboot does.
    pub fn reset(&mut self) {
        let stimulus = self.adc_stimulus.clone();
        *self = Peripherals::new();
        self.adc_stimulus = stimulus;
    }

    /// `true` once the application has written [`SIM_DONE_MAGIC`] to
    /// [`SIM_CTL`].
    pub fn sim_done(&self) -> bool {
        self.sim_done
    }

    /// Exit code reported by the application via [`SIM_EXIT`].
    pub fn exit_code(&self) -> u16 {
        self.exit_code
    }

    /// Words the application emitted through [`SIM_OUT`].
    pub fn sim_output(&self) -> &[u16] {
        &self.sim_output
    }

    /// Bytes the application emitted through [`UART_TX`].
    pub fn uart_output(&self) -> &[u8] {
        &self.uart_output
    }

    /// `true` when the timer has a pending, unacknowledged interrupt.
    pub fn irq_pending(&self) -> Option<u8> {
        if self.timer_irq_pending && self.timer_ctl & 0b10 != 0 {
            Some(TIMER_IRQ_VECTOR)
        } else {
            None
        }
    }

    /// Advances peripheral state by `cycles` CPU cycles.
    pub fn tick(&mut self, cycles: u64) {
        if self.timer_ctl & 0b1 != 0 {
            self.timer_residual += cycles;
            let ticks = self.timer_residual / TIMER_DIVIDER;
            self.timer_residual %= TIMER_DIVIDER;
            for _ in 0..ticks {
                self.timer_count = self.timer_count.wrapping_add(1);
                if self.timer_compare != 0 && self.timer_count == self.timer_compare {
                    self.timer_count = 0;
                    self.timer_irq_pending = true;
                }
            }
        }
    }

    /// Reads a peripheral register (word access).
    pub fn read(&self, addr: u16) -> u16 {
        match addr & !1 {
            SIM_CTL => u16::from(self.sim_done),
            SIM_OUT => self.sim_output.last().copied().unwrap_or(0),
            SIM_EXIT => self.exit_code,
            ADC_CTL => 0,
            ADC_DATA => self.adc_data,
            TIMER_CTL => self.timer_ctl,
            TIMER_COUNT => self.timer_count,
            TIMER_COMPARE => self.timer_compare,
            GPIO_OUT => self.gpio_out,
            GPIO_IN => 0,
            GPIO_DIR => self.gpio_dir,
            UART_TX => 0,
            UART_STATUS => 1,
            ULTRA_CTL => 0,
            ULTRA_ECHO => self.ultra_echo,
            a => {
                let i = usize::from(a);
                u16::from(self.scratch[i]) | (u16::from(self.scratch[i + 1]) << 8)
            }
        }
    }

    /// Writes a peripheral register (word access).
    pub fn write(&mut self, addr: u16, value: u16) {
        match addr & !1 {
            SIM_CTL => {
                if value == SIM_DONE_MAGIC {
                    self.sim_done = true;
                }
            }
            SIM_OUT => self.sim_output.push(value),
            SIM_EXIT => self.exit_code = value,
            ADC_CTL => {
                if value & 1 != 0 {
                    self.adc_data = self.adc_stimulus.sample(self.adc_conversions);
                    self.adc_conversions += 1;
                }
            }
            ADC_DATA => {}
            TIMER_CTL => {
                if value & 0b100 != 0 {
                    self.timer_irq_pending = false;
                }
                self.timer_ctl = value & 0b011;
            }
            TIMER_COUNT => self.timer_count = value,
            TIMER_COMPARE => self.timer_compare = value,
            GPIO_OUT => self.gpio_out = value,
            GPIO_IN => {}
            GPIO_DIR => self.gpio_dir = value,
            UART_TX => self.uart_output.push((value & 0xFF) as u8),
            UART_STATUS => {}
            ULTRA_CTL => {
                if value & 1 != 0 {
                    // Deterministic pseudo-distance: alternate near/far echoes so
                    // the ranger exercises both branches of its comparison logic.
                    self.ultra_pings += 1;
                    let base = 580u16;
                    let wobble = ((self.ultra_pings * 97) % 512) as u16;
                    self.ultra_echo = base + wobble;
                }
            }
            ULTRA_ECHO => {}
            a => {
                let i = usize::from(a);
                self.scratch[i] = (value & 0xFF) as u8;
                self.scratch[i + 1] = (value >> 8) as u8;
            }
        }
    }

    /// `true` if `addr` falls inside the peripheral page.
    pub fn contains(addr: u16) -> bool {
        addr < PERIPHERAL_END
    }
}

impl Default for Peripherals {
    fn default() -> Self {
        Peripherals::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_done_requires_magic_value() {
        let mut p = Peripherals::new();
        p.write(SIM_CTL, 0x0001);
        assert!(!p.sim_done());
        p.write(SIM_CTL, SIM_DONE_MAGIC);
        assert!(p.sim_done());
        assert_eq!(p.read(SIM_CTL), 1);
    }

    #[test]
    fn sim_output_is_captured_in_order() {
        let mut p = Peripherals::new();
        p.write(SIM_OUT, 10);
        p.write(SIM_OUT, 20);
        p.write(SIM_EXIT, 3);
        assert_eq!(p.sim_output(), &[10, 20]);
        assert_eq!(p.exit_code(), 3);
        assert_eq!(p.read(SIM_OUT), 20);
    }

    #[test]
    fn adc_ramp_advances_per_conversion() {
        let mut p = Peripherals::new();
        p.set_adc_stimulus(AdcStimulus::Ramp {
            start: 100,
            step: 10,
            max: 1000,
        });
        p.write(ADC_CTL, 1);
        assert_eq!(p.read(ADC_DATA), 100);
        p.write(ADC_CTL, 1);
        assert_eq!(p.read(ADC_DATA), 110);
        // Writing 0 does not start a conversion.
        p.write(ADC_CTL, 0);
        assert_eq!(p.read(ADC_DATA), 110);
    }

    #[test]
    fn adc_sequence_cycles() {
        let mut p = Peripherals::new();
        p.set_adc_stimulus(AdcStimulus::Sequence(vec![5, 6]));
        for expected in [5, 6, 5] {
            p.write(ADC_CTL, 1);
            assert_eq!(p.read(ADC_DATA), expected);
        }
    }

    #[test]
    fn adc_constant_and_empty_sequence() {
        assert_eq!(AdcStimulus::Constant(42).sample(7), 42);
        assert_eq!(AdcStimulus::Sequence(vec![]).sample(3), 0);
    }

    #[test]
    fn timer_counts_and_raises_irq() {
        let mut p = Peripherals::new();
        p.write(TIMER_COMPARE, 2);
        p.write(TIMER_CTL, 0b11); // enable + irq enable
        assert_eq!(p.irq_pending(), None);
        p.tick(2 * TIMER_DIVIDER);
        assert_eq!(p.irq_pending(), Some(TIMER_IRQ_VECTOR));
        // Acknowledge clears the pending flag but keeps the timer running.
        p.write(TIMER_CTL, 0b111);
        assert_eq!(p.irq_pending(), None);
        p.tick(2 * TIMER_DIVIDER);
        assert_eq!(p.irq_pending(), Some(TIMER_IRQ_VECTOR));
    }

    #[test]
    fn timer_without_irq_enable_does_not_interrupt() {
        let mut p = Peripherals::new();
        p.write(TIMER_COMPARE, 1);
        p.write(TIMER_CTL, 0b01);
        p.tick(10 * TIMER_DIVIDER);
        assert_eq!(p.irq_pending(), None);
        assert!(p.timer_irq_pending);
    }

    #[test]
    fn disabled_timer_does_not_count() {
        let mut p = Peripherals::new();
        p.write(TIMER_COMPARE, 1);
        p.tick(100);
        assert_eq!(p.read(TIMER_COUNT), 0);
    }

    #[test]
    fn gpio_and_uart() {
        let mut p = Peripherals::new();
        p.write(GPIO_DIR, 0x00FF);
        p.write(GPIO_OUT, 0x0055);
        assert_eq!(p.read(GPIO_IN), 0);
        assert_eq!(p.read(GPIO_OUT), 0x0055);
        assert_eq!(p.read(GPIO_DIR), 0x00FF);
        p.write(UART_TX, u16::from(b'H'));
        p.write(UART_TX, u16::from(b'i'));
        assert_eq!(p.uart_output(), b"Hi");
        assert_eq!(p.read(UART_STATUS), 1);
    }

    #[test]
    fn ultrasonic_echo_varies_between_pings() {
        let mut p = Peripherals::new();
        p.write(ULTRA_CTL, 1);
        let first = p.read(ULTRA_ECHO);
        p.write(ULTRA_CTL, 1);
        let second = p.read(ULTRA_ECHO);
        assert_ne!(first, 0);
        assert_ne!(first, second);
    }

    #[test]
    fn scratch_region_roundtrips() {
        let mut p = Peripherals::new();
        p.write(0x01F0, 0xDEAD);
        assert_eq!(p.read(0x01F0), 0xDEAD);
        assert!(Peripherals::contains(0x01FF));
        assert!(!Peripherals::contains(0x0200));
    }
}
