//! Host-side reference model of the EILID shadow stack and function table.
//!
//! The authoritative implementation of these data structures is the MSP430
//! assembly emitted by [`emit`](crate::sw::emit) and executed in the secure
//! ROM. This module provides a pure-Rust model with identical semantics; it
//! is used to compute the secure-memory layout, as a differential-testing
//! oracle for the assembly, and by the analysis/bench crates that need to
//! predict shadow-stack depth without running the simulator.

use serde::{Deserialize, Serialize};

use eilid_casu::CfiFault;

/// Outcome of a shadow-stack or function-table operation.
pub type CfiResult = Result<(), CfiFault>;

/// Reference model of the secure shadow stack (paper Figure 9(b)).
///
/// # Examples
///
/// ```
/// use eilid::sw::ShadowStack;
///
/// let mut stack = ShadowStack::new(4);
/// stack.store_return_address(0xe200)?;
/// stack.check_return_address(0xe200)?;
/// # Ok::<(), eilid_casu::CfiFault>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowStack {
    entries: Vec<u16>,
    capacity: u16,
    max_depth: u16,
}

impl ShadowStack {
    /// Creates an empty shadow stack with room for `capacity` 16-bit
    /// entries.
    pub fn new(capacity: u16) -> Self {
        ShadowStack {
            entries: Vec::new(),
            capacity,
            max_depth: 0,
        }
    }

    /// Current number of occupied entries (the value EILID keeps in `r5`).
    pub fn depth(&self) -> u16 {
        self.entries.len() as u16
    }

    /// Deepest occupancy observed since construction.
    pub fn max_depth(&self) -> u16 {
        self.max_depth
    }

    /// Configured capacity in entries.
    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// `S_EILID_store_ra`: push a return address (P1).
    ///
    /// # Errors
    ///
    /// Returns [`CfiFault::ShadowStackOverflow`] when full.
    pub fn store_return_address(&mut self, return_address: u16) -> CfiResult {
        if self.depth() >= self.capacity {
            return Err(CfiFault::ShadowStackOverflow);
        }
        self.entries.push(return_address);
        self.max_depth = self.max_depth.max(self.depth());
        Ok(())
    }

    /// `S_EILID_check_ra`: pop and compare a return address (P1).
    ///
    /// # Errors
    ///
    /// Returns [`CfiFault::ShadowStackUnderflow`] when empty and
    /// [`CfiFault::ReturnAddress`] on a mismatch.
    pub fn check_return_address(&mut self, observed: u16) -> CfiResult {
        let expected = self.entries.pop().ok_or(CfiFault::ShadowStackUnderflow)?;
        if expected != observed {
            return Err(CfiFault::ReturnAddress);
        }
        Ok(())
    }

    /// `S_EILID_store_rfi`: push an interrupt context (saved PC + SR, P2).
    ///
    /// # Errors
    ///
    /// Returns [`CfiFault::ShadowStackOverflow`] when fewer than two slots
    /// remain.
    pub fn store_interrupt_context(&mut self, saved_pc: u16, saved_sr: u16) -> CfiResult {
        if self.depth() + 2 > self.capacity {
            return Err(CfiFault::ShadowStackOverflow);
        }
        self.entries.push(saved_pc);
        self.entries.push(saved_sr);
        self.max_depth = self.max_depth.max(self.depth());
        Ok(())
    }

    /// `S_EILID_check_rfi`: pop and compare an interrupt context (P2).
    ///
    /// # Errors
    ///
    /// Returns [`CfiFault::ShadowStackUnderflow`] when fewer than two
    /// entries are stored and [`CfiFault::InterruptContext`] on a mismatch.
    pub fn check_interrupt_context(&mut self, saved_pc: u16, saved_sr: u16) -> CfiResult {
        if self.depth() < 2 {
            return Err(CfiFault::ShadowStackUnderflow);
        }
        let sr = self.entries.pop().expect("depth checked");
        let pc = self.entries.pop().expect("depth checked");
        if pc != saved_pc || sr != saved_sr {
            return Err(CfiFault::InterruptContext);
        }
        Ok(())
    }
}

/// Reference model of the legitimate-function table (P3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionTable {
    entries: Vec<u16>,
    capacity: u16,
}

impl FunctionTable {
    /// Creates an empty table with room for `capacity` function addresses.
    pub fn new(capacity: u16) -> Self {
        FunctionTable {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Number of registered functions.
    pub fn len(&self) -> u16 {
        self.entries.len() as u16
    }

    /// `true` when no functions have been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registered function addresses in registration order.
    pub fn entries(&self) -> &[u16] {
        &self.entries
    }

    /// `S_EILID_store_ind`: register a legitimate indirect-call target.
    ///
    /// # Errors
    ///
    /// Returns [`CfiFault::FunctionTableOverflow`] when full.
    pub fn register(&mut self, address: u16) -> CfiResult {
        if self.len() >= self.capacity {
            return Err(CfiFault::FunctionTableOverflow);
        }
        self.entries.push(address);
        Ok(())
    }

    /// `S_EILID_check_ind`: validate an indirect-call target.
    ///
    /// # Errors
    ///
    /// Returns [`CfiFault::IndirectCall`] when the address is not in the
    /// table.
    pub fn check(&self, address: u16) -> CfiResult {
        if self.entries.contains(&address) {
            Ok(())
        } else {
            Err(CfiFault::IndirectCall)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_return_address_protocol() {
        let mut stack = ShadowStack::new(8);
        stack.store_return_address(0x1000).unwrap();
        stack.store_return_address(0x2000).unwrap();
        assert_eq!(stack.depth(), 2);
        stack.check_return_address(0x2000).unwrap();
        stack.check_return_address(0x1000).unwrap();
        assert_eq!(stack.depth(), 0);
        assert_eq!(stack.max_depth(), 2);
    }

    #[test]
    fn mismatch_is_p1_violation() {
        let mut stack = ShadowStack::new(8);
        stack.store_return_address(0xE200).unwrap();
        assert_eq!(
            stack.check_return_address(0xBEEF),
            Err(CfiFault::ReturnAddress)
        );
    }

    #[test]
    fn overflow_and_underflow() {
        let mut stack = ShadowStack::new(2);
        stack.store_return_address(1).unwrap();
        stack.store_return_address(2).unwrap();
        assert_eq!(
            stack.store_return_address(3),
            Err(CfiFault::ShadowStackOverflow)
        );
        let mut empty = ShadowStack::new(2);
        assert_eq!(
            empty.check_return_address(1),
            Err(CfiFault::ShadowStackUnderflow)
        );
    }

    #[test]
    fn interrupt_context_protocol() {
        let mut stack = ShadowStack::new(4);
        stack.store_interrupt_context(0xE120, 0x0008).unwrap();
        assert_eq!(stack.depth(), 2);
        assert_eq!(
            stack.check_interrupt_context(0xE120, 0x0000),
            Err(CfiFault::InterruptContext)
        );
        // The failed check still consumed the context (matching the
        // assembly, which pops before comparing).
        assert_eq!(stack.depth(), 0);

        let mut stack = ShadowStack::new(4);
        stack.store_interrupt_context(0xE120, 0x0008).unwrap();
        stack.check_interrupt_context(0xE120, 0x0008).unwrap();

        let mut tight = ShadowStack::new(3);
        tight.store_return_address(1).unwrap();
        tight.store_return_address(2).unwrap();
        assert_eq!(
            tight.store_interrupt_context(3, 4),
            Err(CfiFault::ShadowStackOverflow)
        );
        assert_eq!(
            ShadowStack::new(4).check_interrupt_context(1, 2),
            Err(CfiFault::ShadowStackUnderflow)
        );
    }

    #[test]
    fn nested_calls_and_interrupts_interleave() {
        let mut stack = ShadowStack::new(16);
        stack.store_return_address(0xE100).unwrap();
        stack.store_interrupt_context(0xE104, 0x000F).unwrap();
        stack.store_return_address(0xE300).unwrap();
        stack.check_return_address(0xE300).unwrap();
        stack.check_interrupt_context(0xE104, 0x000F).unwrap();
        stack.check_return_address(0xE100).unwrap();
        assert_eq!(stack.depth(), 0);
    }

    #[test]
    fn function_table_registration_and_lookup() {
        let mut table = FunctionTable::new(3);
        assert!(table.is_empty());
        table.register(0xE100).unwrap();
        table.register(0xE200).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.entries(), &[0xE100, 0xE200]);
        table.check(0xE100).unwrap();
        table.check(0xE200).unwrap();
        assert_eq!(table.check(0xE300), Err(CfiFault::IndirectCall));
        table.register(0xE300).unwrap();
        assert_eq!(table.register(0xE400), Err(CfiFault::FunctionTableOverflow));
    }
}
