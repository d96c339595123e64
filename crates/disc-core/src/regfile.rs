//! The stack-window register file (§3.5 of the paper).
//!
//! Each stream owns a register stack addressed by the **active window
//! pointer** (AWP). The eight visible registers map as `R0 = window[AWP]`,
//! `R1 = window[AWP-1]`, …, `R7 = window[AWP-7]`. Incrementing the AWP
//! allocates a fresh `R0` (old `R0` becomes `R1`, and the deepest visible
//! register slides out of view); decrementing discards `R0`.
//!
//! The *physical* register file has finite depth. When the logical stack
//! outgrows it, the oldest resident registers are spilled to backing store
//! ([`WindowPolicy::AutoSpill`]) at a cost of one stall cycle per word, or a
//! stack-fault interrupt is raised ([`WindowPolicy::Fault`]).

use crate::config::WindowPolicy;
use disc_isa::WINDOW_REGS;
use disc_snap::{SnapError, SnapReader, SnapWriter};

/// Outcome of an AWP adjustment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdjustOutcome {
    /// Stall cycles incurred by hardware spill/fill traffic.
    pub stall_cycles: u32,
    /// `true` when the adjustment overflowed/underflowed the physical file
    /// under [`WindowPolicy::Fault`].
    pub fault: bool,
}

/// Per-stream stack-window register file.
///
/// # Example
///
/// ```
/// use disc_core::{StackWindow, WindowPolicy};
///
/// let mut w = StackWindow::new(16, WindowPolicy::AutoSpill);
/// w.write(0, 42);          // R0 = 42
/// w.adjust(1);             // allocate a fresh R0
/// assert_eq!(w.read(1), 42); // old R0 is now R1
/// w.adjust(-1);
/// assert_eq!(w.read(0), 42);
/// ```
#[derive(Debug, Clone)]
pub struct StackWindow {
    /// Logical register stack; index = logical slot. Slot contents persist
    /// across dec/inc (hardware registers are not cleared).
    stack: Vec<u16>,
    /// Logical index of the slot `R0` names. Starts at `WINDOW_REGS - 1` so
    /// the whole initial window is valid.
    awp: usize,
    /// Lowest logical slot currently resident in physical registers.
    resident_low: usize,
    /// Physical register file depth.
    depth: usize,
    policy: WindowPolicy,
    spills: u64,
    fills: u64,
    max_awp: usize,
    underflows: u64,
}

impl StackWindow {
    /// Creates a window file with `depth` physical registers.
    ///
    /// # Panics
    ///
    /// Panics if `depth <= WINDOW_REGS`.
    pub fn new(depth: usize, policy: WindowPolicy) -> Self {
        assert!(depth > WINDOW_REGS, "physical depth must exceed the window");
        StackWindow {
            stack: vec![0; depth],
            awp: WINDOW_REGS - 1,
            resident_low: 0,
            depth,
            policy,
            spills: 0,
            fills: 0,
            max_awp: WINDOW_REGS - 1,
            underflows: 0,
        }
    }

    /// Current active window pointer (logical slot index of `R0`).
    pub fn awp(&self) -> usize {
        self.awp
    }

    /// Reads window register `Rn`.
    ///
    /// Reads that reach below the bottom of the stack (a program bug)
    /// return 0 and are counted in [`underflows`](Self::underflows).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    #[inline(always)]
    pub fn read(&mut self, n: u8) -> u16 {
        assert!((n as usize) < WINDOW_REGS);
        match self.awp.checked_sub(n as usize) {
            Some(slot) => self.stack[slot],
            None => {
                self.underflows += 1;
                0
            }
        }
    }

    /// Writes window register `Rn`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    #[inline(always)]
    pub fn write(&mut self, n: u8, value: u16) {
        assert!((n as usize) < WINDOW_REGS);
        if let Some(slot) = self.awp.checked_sub(n as usize) {
            self.stack[slot] = value;
        } else {
            self.underflows += 1;
        }
    }

    /// Reads the logical slot `slot` directly (used by the asynchronous bus
    /// interface to deliver data to a window position captured at issue
    /// time, even if the window has moved since).
    pub fn read_slot(&self, slot: usize) -> u16 {
        self.stack.get(slot).copied().unwrap_or(0)
    }

    /// Writes the logical slot `slot` directly.
    pub fn write_slot(&mut self, slot: usize, value: u16) {
        if slot < self.stack.len() {
            self.stack[slot] = value;
        }
    }

    /// Logical slot currently named by `Rn`, for capture at issue time.
    ///
    /// Saturates at slot 0 when `Rn` reaches below the stack bottom; use
    /// [`try_slot_of`](Self::try_slot_of) when underflow must be detected.
    pub fn slot_of(&self, n: u8) -> usize {
        self.awp.saturating_sub(n as usize)
    }

    /// Logical slot currently named by `Rn`, or `None` when the register
    /// reaches below the stack bottom (underflow).
    pub fn try_slot_of(&self, n: u8) -> Option<usize> {
        self.awp.checked_sub(n as usize)
    }

    /// Moves the AWP by `delta` (positive allocates), performing any
    /// required spill/fill traffic.
    pub fn adjust(&mut self, delta: i32) -> AdjustOutcome {
        let mut out = AdjustOutcome::default();
        let new_awp = if delta >= 0 {
            self.awp.saturating_add(delta as usize)
        } else {
            let d = (-delta) as usize;
            if d > self.awp {
                self.underflows += 1;
                0
            } else {
                self.awp - d
            }
        };
        self.awp = new_awp;
        self.max_awp = self.max_awp.max(new_awp);
        if new_awp >= self.stack.len() {
            self.stack.resize(new_awp + 1, 0);
        }
        // Residency window: physical registers cover
        // [resident_low, resident_low + depth).
        if new_awp >= self.resident_low + self.depth {
            // Grew past the top: spill oldest registers.
            let needed = new_awp + 1 - self.depth - self.resident_low;
            match self.policy {
                WindowPolicy::AutoSpill => {
                    self.spills += needed as u64;
                    out.stall_cycles += needed as u32;
                    self.resident_low += needed;
                }
                WindowPolicy::Fault => {
                    out.fault = true;
                    self.resident_low += needed;
                }
            }
        } else {
            // The visible window must be resident for reads.
            let window_low = new_awp.saturating_sub(WINDOW_REGS - 1);
            if window_low < self.resident_low {
                let needed = self.resident_low - window_low;
                match self.policy {
                    WindowPolicy::AutoSpill => {
                        self.fills += needed as u64;
                        out.stall_cycles += needed as u32;
                    }
                    WindowPolicy::Fault => out.fault = true,
                }
                self.resident_low = window_low;
            }
        }
        out
    }

    /// Total words spilled to backing store so far.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Total words filled back from backing store so far.
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Deepest AWP value observed (peak logical stack depth).
    pub fn max_depth(&self) -> usize {
        self.max_awp + 1
    }

    /// Number of reads/writes/decrements that under-ran the stack bottom.
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Serializes the window file (`disc-snap/v2` component). The logical
    /// stack can have grown past the physical `depth`, so the whole
    /// backing vector is written; `depth` and `policy` come from the
    /// configuration and are written only for validation.
    pub(crate) fn save_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.depth);
        w.put_usize(self.stack.len());
        for &word in &self.stack {
            w.put_u16(word);
        }
        w.put_usize(self.awp);
        w.put_usize(self.resident_low);
        w.put_u64(self.spills);
        w.put_u64(self.fills);
        w.put_usize(self.max_awp);
        w.put_u64(self.underflows);
    }

    /// Restores state written by [`save_into`](Self::save_into) onto a
    /// window file built with the same depth (policy is construction
    /// state and is not overwritten).
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let depth = r.get_usize()?;
        if depth != self.depth {
            return Err(SnapError::Corrupt(format!(
                "window depth mismatch: machine {}, snapshot {depth}",
                self.depth
            )));
        }
        let len = r.get_usize()?;
        if len < self.depth {
            return Err(SnapError::Corrupt(format!(
                "window stack shorter than physical depth: {len} < {}",
                self.depth
            )));
        }
        self.stack.clear();
        self.stack.reserve(len);
        for _ in 0..len {
            self.stack.push(r.get_u16()?);
        }
        self.awp = r.get_usize()?;
        self.resident_low = r.get_usize()?;
        if self.awp >= self.stack.len() {
            return Err(SnapError::Corrupt(format!(
                "AWP {} outside restored stack of {len} slots",
                self.awp
            )));
        }
        self.spills = r.get_u64()?;
        self.fills = r.get_u64()?;
        self.max_awp = r.get_usize()?;
        self.underflows = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spillless() -> StackWindow {
        StackWindow::new(64, WindowPolicy::AutoSpill)
    }

    #[test]
    fn initial_window_reads_zero() {
        let mut w = spillless();
        for n in 0..8 {
            assert_eq!(w.read(n), 0);
        }
    }

    #[test]
    fn increment_renames_registers() {
        // Figure 3.5: after an increment the old R0 is addressed as R1.
        let mut w = spillless();
        for (n, v) in [(0u8, 10u16), (1, 11), (2, 12)] {
            w.write(n, v);
        }
        w.adjust(1);
        assert_eq!(w.read(1), 10);
        assert_eq!(w.read(2), 11);
        assert_eq!(w.read(3), 12);
        w.write(0, 99);
        w.adjust(-1);
        assert_eq!(w.read(0), 10);
        // The discarded slot's content persists and reappears on re-inc.
        w.adjust(1);
        assert_eq!(w.read(0), 99);
    }

    #[test]
    fn deep_growth_spills_and_fills() {
        let mut w = StackWindow::new(16, WindowPolicy::AutoSpill);
        let mut stalls = 0;
        for i in 0..32 {
            w.write(0, i);
            stalls += w.adjust(1).stall_cycles;
        }
        assert!(w.spills() > 0, "expected spill traffic");
        assert!(stalls > 0);
        // Walk back down: every value must be recoverable.
        for i in (0..32u16).rev() {
            let out = w.adjust(-1);
            assert!(!out.fault);
            assert_eq!(w.read(0), i, "value at depth {i} lost");
        }
        assert!(w.fills() > 0, "expected fill traffic");
    }

    #[test]
    fn fault_policy_reports_overflow() {
        let mut w = StackWindow::new(9, WindowPolicy::Fault);
        let mut faulted = false;
        for _ in 0..4 {
            faulted |= w.adjust(1).fault;
        }
        assert!(faulted, "growing 4 past a 9-deep file must fault");
    }

    #[test]
    fn underflow_saturates_and_counts() {
        let mut w = spillless();
        let before = w.underflows();
        w.adjust(-20);
        assert_eq!(w.awp(), 0);
        assert!(w.underflows() > before);
        // R1 is now below the stack bottom.
        assert_eq!(w.read(1), 0);
    }

    #[test]
    fn slot_capture_survives_window_motion() {
        let mut w = spillless();
        let slot = w.slot_of(0);
        w.adjust(3);
        w.write_slot(slot, 777);
        w.adjust(-3);
        assert_eq!(w.read(0), 777);
        assert_eq!(w.read_slot(slot), 777);
    }

    #[test]
    fn max_depth_tracks_peak() {
        let mut w = spillless();
        w.adjust(5);
        w.adjust(-3);
        assert_eq!(w.max_depth(), 8 + 5);
    }

    #[test]
    fn batch_adjust_matches_repeated_single() {
        let mut a = StackWindow::new(12, WindowPolicy::AutoSpill);
        let mut b = StackWindow::new(12, WindowPolicy::AutoSpill);
        let cost_a = a.adjust(10).stall_cycles;
        let cost_b: u32 = (0..10).map(|_| b.adjust(1).stall_cycles).sum();
        assert_eq!(a.awp(), b.awp());
        assert_eq!(cost_a, cost_b, "spill cost must be path-independent");
    }
}
