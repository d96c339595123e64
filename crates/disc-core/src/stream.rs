//! Per-stream context: program counter, flags, window file, interrupt
//! state, wait state and the issue scoreboard.

use crate::config::WindowPolicy;
use crate::regfile::StackWindow;
use disc_snap::{SnapError, SnapReader, SnapWriter};

/// Arithmetic flags of a stream (`Z N C V`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Result was zero.
    pub z: bool,
    /// Result was negative (bit 15 set).
    pub n: bool,
    /// Carry / not-borrow out of bit 15.
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
}

impl Flags {
    /// Packs the flags into the low nibble of a status-register value
    /// (`V N C Z` in bits 3..=0? — layout: bit0 Z, bit1 N, bit2 C, bit3 V).
    pub fn to_word(self) -> u16 {
        (self.z as u16) | ((self.n as u16) << 1) | ((self.c as u16) << 2) | ((self.v as u16) << 3)
    }

    /// Unpacks a status-register value.
    pub fn from_word(w: u16) -> Self {
        Flags {
            z: w & 1 != 0,
            n: w & 2 != 0,
            c: w & 4 != 0,
            v: w & 8 != 0,
        }
    }
}

/// Why a stream is not currently fetching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitState {
    /// Not waiting; the stream fetches when active and hazard-free.
    None,
    /// Waiting for its own outstanding bus transaction to complete.
    BusTransaction,
    /// Its access found the bus busy; waiting for the bus to free before
    /// re-issuing the cancelled instruction.
    BusFree,
}

/// Interrupt frame pushed when a vectored interrupt is taken.
///
/// The hardware saves the program counter *and* the flags (PSW): the
/// handler is free to clobber the arithmetic flags, and the interrupted
/// code may be preempted between a flag-setting instruction and the
/// conditional jump that consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceFrame {
    /// IR bit being serviced (1..=7).
    pub bit: u8,
    /// Program counter to resume at on `reti`.
    pub resume_pc: u16,
    /// Flags to restore on `reti`.
    pub flags: Flags,
}

/// A pending register write used for same-stream hazard detection.
///
/// `mask` is a bitmask over the 16 architectural registers (bits 0..=15)
/// plus the flags (bit 16). The entry clears when the instruction retires
/// or, for external loads, when the bus delivers the data (such entries are
/// re-tagged with `seq == u64::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingWrite {
    /// Issue sequence number.
    pub seq: u64,
    /// Destination mask (registers + flags).
    pub mask: u32,
}

/// Full context of one instruction stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Program counter (next instruction to fetch).
    pub(crate) pc: u16,
    /// Arithmetic flags.
    pub(crate) flags: Flags,
    /// Stack-window register file.
    pub(crate) window: StackWindow,
    /// Software stack pointer.
    pub(crate) sp: u16,
    /// Interrupt request register.
    pub(crate) ir: u8,
    /// Interrupt mask register.
    pub(crate) mr: u8,
    /// In-service interrupt stack (innermost last).
    pub(crate) service: Vec<ServiceFrame>,
    /// Per-stream interrupt vectors (bit 1..=7; bit 0 never vectors).
    pub(crate) vectors: [Option<u16>; disc_isa::IRQ_LEVELS],
    /// Wait state.
    pub(crate) wait: WaitState,
    /// Outstanding register writes (issue scoreboard).
    pub(crate) pending: Vec<PendingWrite>,
    /// OR of every `pending` entry's mask, kept in sync by the push /
    /// remove sites so the per-cycle hazard probe is a single AND (a
    /// source mask intersects *some* entry iff it intersects the union).
    pub(crate) pending_mask: u32,
    /// Number of in-flight instructions that move the window
    /// (AWP-adjusting, call/ret/winc/wdec); while nonzero, window-register
    /// access by newly fetched instructions is a hazard.
    pub(crate) window_moves: u32,
    /// Remaining stall cycles charged by window spill/fill traffic.
    pub(crate) spill_stall: u32,
    /// Cycle at which the most recent activation interrupt was raised
    /// (used for latency accounting).
    pub(crate) irq_raised_at: [Option<u64>; disc_isa::IRQ_LEVELS],
}

impl Stream {
    /// Creates an inactive stream (IR = 0, MR = 0xff) with a zeroed
    /// context.
    pub fn new(window_depth: usize, policy: WindowPolicy) -> Self {
        Stream {
            pc: 0,
            flags: Flags::default(),
            window: StackWindow::new(window_depth, policy),
            sp: 0,
            ir: 0,
            mr: 0xff,
            service: Vec::new(),
            vectors: [None; disc_isa::IRQ_LEVELS],
            wait: WaitState::None,
            pending: Vec::new(),
            pending_mask: 0,
            window_moves: 0,
            spill_stall: 0,
            irq_raised_at: [None; disc_isa::IRQ_LEVELS],
        }
    }

    /// Program counter.
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// Arithmetic flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Interrupt request register.
    pub fn ir(&self) -> u8 {
        self.ir
    }

    /// Interrupt mask register.
    pub fn mr(&self) -> u8 {
        self.mr
    }

    /// The stream is *active* when any unmasked IR bit is set — *"When no
    /// bit of the IS is set, the instruction stream will not be scheduled
    /// (not active)."*
    pub fn active(&self) -> bool {
        self.ir & self.mr != 0
    }

    /// Current wait state.
    pub fn wait(&self) -> WaitState {
        self.wait
    }

    /// Window file view (AWP, spill statistics …).
    pub fn window(&self) -> &StackWindow {
        &self.window
    }

    /// Interrupt level currently being serviced (0 = background).
    pub fn service_level(&self) -> u8 {
        self.service.last().map(|f| f.bit).unwrap_or(0)
    }

    /// Depth of nested interrupt service.
    pub fn service_depth(&self) -> usize {
        self.service.len()
    }

    /// Highest-priority pending unmasked interrupt above the current
    /// service level, if any. Bit 0 (background) never preempts.
    pub fn pending_interrupt(&self) -> Option<u8> {
        let armed = self.ir & self.mr;
        if armed == 0 {
            return None;
        }
        let top = 7 - armed.leading_zeros() as u8; // highest set bit
        if top > self.service_level() && top > 0 {
            Some(top)
        } else {
            None
        }
    }

    /// Sets IR bit `bit` (external or software interrupt).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn raise(&mut self, bit: u8, cycle: u64) {
        assert!(bit < 8);
        if self.ir & (1 << bit) == 0 {
            self.irq_raised_at[bit as usize] = Some(cycle);
        }
        self.ir |= 1 << bit;
    }

    /// `true` when any outstanding scoreboard entry's destination mask
    /// intersects `mask` — the RAW-hazard probe shared by the per-cycle
    /// fetch path and the superblock dispatcher.
    #[inline]
    pub(crate) fn pending_conflict(&self, mask: u32) -> bool {
        debug_assert_eq!(
            self.pending_mask,
            self.pending.iter().fold(0, |m, p| m | p.mask),
            "aggregate scoreboard mask out of sync"
        );
        self.pending_mask & mask != 0
    }

    /// Recomputes [`Self::pending_mask`] after entries were removed.
    #[inline]
    pub(crate) fn resync_pending_mask(&mut self) {
        self.pending_mask = self.pending.iter().fold(0, |m, p| m | p.mask);
    }

    /// Removes the scoreboard entry issued with `seq` (unique per slot)
    /// in one pass, rebuilding the aggregate mask from the survivors.
    /// Scoreboard order is irrelevant — only membership is ever queried —
    /// so the removal may reorder entries.
    #[inline]
    pub(crate) fn drop_pending(&mut self, seq: u64) {
        let mut agg = 0;
        let mut found = usize::MAX;
        for (i, p) in self.pending.iter().enumerate() {
            if p.seq == seq {
                found = i;
            } else {
                agg |= p.mask;
            }
        }
        if found != usize::MAX {
            self.pending.swap_remove(found);
        }
        self.pending_mask = agg;
    }

    /// Clears IR bit `bit` (only the owning stream does this).
    pub fn clear_irq(&mut self, bit: u8) {
        assert!(bit < 8);
        self.ir &= !(1 << bit);
        self.irq_raised_at[bit as usize] = None;
    }

    /// Serializes the full stream context (`disc-snap/v2` component).
    ///
    /// Interrupt vectors are included even though they start out derived
    /// from the program image: [`Machine::set_vector`](crate::Machine)
    /// can rewrite them at runtime.
    pub(crate) fn save_into(&self, w: &mut SnapWriter) {
        w.put_u16(self.pc);
        w.put_u16(self.flags.to_word());
        w.put_u16(self.sp);
        w.put_u8(self.ir);
        w.put_u8(self.mr);
        w.put_usize(self.service.len());
        for f in &self.service {
            w.put_u8(f.bit);
            w.put_u16(f.resume_pc);
            w.put_u16(f.flags.to_word());
        }
        for v in self.vectors {
            w.put_opt_u16(v);
        }
        w.put_u8(match self.wait {
            WaitState::None => 0,
            WaitState::BusTransaction => 1,
            WaitState::BusFree => 2,
        });
        w.put_usize(self.pending.len());
        for p in &self.pending {
            w.put_u64(p.seq);
            w.put_u32(p.mask);
        }
        w.put_u32(self.window_moves);
        w.put_u32(self.spill_stall);
        for t in self.irq_raised_at {
            w.put_opt_u64(t);
        }
        self.window.save_into(w);
    }

    /// Restores the context written by [`save_into`](Self::save_into)
    /// onto this stream (whose window file was built from the same
    /// configuration). The aggregate scoreboard mask is rebuilt from the
    /// restored entries rather than trusted from the blob.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.pc = r.get_u16()?;
        self.flags = Flags::from_word(r.get_u16()?);
        self.sp = r.get_u16()?;
        self.ir = r.get_u8()?;
        self.mr = r.get_u8()?;
        let frames = r.get_usize()?;
        self.service.clear();
        for _ in 0..frames {
            let bit = r.get_u8()?;
            if bit >= 8 {
                return Err(SnapError::Corrupt(format!("service frame bit {bit}")));
            }
            let resume_pc = r.get_u16()?;
            let flags = Flags::from_word(r.get_u16()?);
            self.service.push(ServiceFrame {
                bit,
                resume_pc,
                flags,
            });
        }
        for v in self.vectors.iter_mut() {
            *v = r.get_opt_u16()?;
        }
        self.wait = match r.get_u8()? {
            0 => WaitState::None,
            1 => WaitState::BusTransaction,
            2 => WaitState::BusFree,
            t => return Err(SnapError::Corrupt(format!("bad wait state tag {t}"))),
        };
        let entries = r.get_usize()?;
        self.pending.clear();
        for _ in 0..entries {
            let seq = r.get_u64()?;
            let mask = r.get_u32()?;
            self.pending.push(PendingWrite { seq, mask });
        }
        self.resync_pending_mask();
        self.window_moves = r.get_u32()?;
        self.spill_stall = r.get_u32()?;
        for t in self.irq_raised_at.iter_mut() {
            *t = r.get_opt_u64()?;
        }
        self.window.restore_from(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Stream {
        Stream::new(64, WindowPolicy::AutoSpill)
    }

    #[test]
    fn flags_pack_roundtrip() {
        for w in 0..16u16 {
            assert_eq!(Flags::from_word(w).to_word(), w);
        }
        // High bits ignored on unpack.
        assert_eq!(Flags::from_word(0xfff0).to_word(), 0);
    }

    #[test]
    fn fresh_stream_is_inactive() {
        let s = stream();
        assert!(!s.active());
        assert_eq!(s.service_level(), 0);
        assert_eq!(s.pending_interrupt(), None);
    }

    #[test]
    fn background_bit_activates_without_vectoring() {
        let mut s = stream();
        s.raise(0, 10);
        assert!(s.active());
        assert_eq!(s.pending_interrupt(), None, "bit 0 never vectors");
    }

    #[test]
    fn higher_bits_pend_above_service_level() {
        let mut s = stream();
        s.raise(0, 0);
        s.raise(3, 5);
        assert_eq!(s.pending_interrupt(), Some(3));
        s.service.push(ServiceFrame {
            bit: 3,
            resume_pc: 0,
            flags: Flags::default(),
        });
        assert_eq!(s.pending_interrupt(), None, "level 3 in service");
        s.raise(7, 9);
        assert_eq!(s.pending_interrupt(), Some(7), "7 preempts 3");
    }

    #[test]
    fn masked_bits_do_not_activate() {
        let mut s = stream();
        s.mr = 0x01;
        s.raise(5, 0);
        assert!(!s.active());
        assert_eq!(s.pending_interrupt(), None);
        s.raise(0, 0);
        assert!(s.active());
    }

    #[test]
    fn clear_irq_deactivates() {
        let mut s = stream();
        s.raise(0, 0);
        s.clear_irq(0);
        assert!(!s.active());
    }

    #[test]
    fn raise_records_first_cycle_only() {
        let mut s = stream();
        s.raise(2, 100);
        s.raise(2, 200);
        assert_eq!(s.irq_raised_at[2], Some(100));
        s.clear_irq(2);
        assert_eq!(s.irq_raised_at[2], None);
    }
}
