//! DMA engine: a bus *master* that moves words between bus addresses on
//! its own clock, contending with the instruction streams for the
//! asynchronous data bus.
//!
//! The paper's real-time controllers juggle "multiple I/O peripherals
//! with different access times"; a DMA engine is the limiting case — a
//! peripheral whose traffic is not issued by any stream at all. While a
//! transfer is in flight every stream access to the peripheral bus pays
//! an extra arbitration penalty ([`DmaEngine::stall`]), which surfaces
//! directly in the per-stream bus-wait buckets of
//! [`CycleAttribution`](disc_core::CycleAttribution).
//!
//! The engine itself is an ordinary [`Peripheral`] (map its registers
//! through a [`Shared`](crate::Shared) handle); the actual word movement
//! is orchestrated by [`PeripheralBus::map_dma`](crate::PeripheralBus::
//! map_dma), which routes each due word through the bus's own address
//! decode — so a DMA copy into external RAM really lands in that RAM,
//! and a copy from a sensor really pops the sensor register.

use disc_core::IrqRequest;

use crate::bus::{count_down, due, Peripheral};

/// Register map of the [`DmaEngine`].
///
/// | offset | register | access |
/// |--------|----------|--------|
/// | 0 | `SRC` — source bus address, auto-incremented per word | r/w |
/// | 1 | `DST` — destination bus address, auto-incremented per word | r/w |
/// | 2 | `COUNT` — words remaining in the transfer; writes ignored while busy | r/w |
/// | 3 | `CTRL` — write bit0 to start (ignored while busy); reads bit0 = busy | r/w |
/// | 4 | `DONE` — completed transfers | r |
#[derive(Debug, Clone)]
pub struct DmaEngine {
    word_latency: u32,
    stall: u32,
    src: u16,
    dst: u16,
    count: u16,
    busy: bool,
    countdown: u32,
    /// A word transfer fell due this cycle and awaits bus service.
    pending: bool,
    done: u64,
    words_moved: u64,
    irq: Option<(usize, u8)>,
}

impl DmaEngine {
    /// Number of mapped registers.
    pub const REGS: u16 = 5;

    /// An idle engine moving one word every `word_latency` cycles once
    /// started.
    ///
    /// # Panics
    ///
    /// Panics if `word_latency` is zero.
    pub fn new(word_latency: u32) -> Self {
        assert!(word_latency > 0, "dma word latency must be nonzero");
        DmaEngine {
            word_latency,
            stall: 1,
            src: 0,
            dst: 0,
            count: 0,
            busy: false,
            countdown: 0,
            pending: false,
            done: 0,
            words_moved: 0,
            irq: None,
        }
    }

    /// Sets the arbitration penalty (cycles added to every stream access
    /// while a transfer is in flight).
    pub fn with_stall(mut self, stall: u32) -> Self {
        self.stall = stall;
        self
    }

    /// Routes a transfer-complete interrupt to (`stream`, `bit`).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn with_irq(mut self, stream: usize, bit: u8) -> Self {
        assert!(bit < 8, "interrupt bit out of range");
        self.irq = Some((stream, bit));
        self
    }

    /// Programs and starts a transfer from host code: writes `SRC`, `DST`,
    /// `COUNT`, then `CTRL`, so on a busy engine only `SRC` and `DST`
    /// change.
    pub fn start(&mut self, src: u16, dst: u16, count: u16) {
        for (offset, value) in [(0, src), (1, dst), (2, count), (3, 1)] {
            self.write(offset, value);
        }
    }

    /// `true` while a transfer is in flight.
    pub fn busy(&self) -> bool {
        self.busy
    }

    /// Completed transfers.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Words moved over the bus so far.
    pub fn words_moved(&self) -> u64 {
        self.words_moved
    }

    /// Arbitration penalty the bus charges streams while the engine is
    /// mid-transfer.
    pub fn stall(&self) -> u32 {
        if self.busy {
            self.stall
        } else {
            0
        }
    }

    /// Takes the word transfer that fell due this cycle, if any: the bus
    /// reads the returned source address and writes the value to the
    /// returned destination. Called by
    /// [`PeripheralBus::tick`](disc_core::DataBus::tick) after every
    /// device has stepped.
    pub fn take_due_word(&mut self) -> Option<(u16, u16)> {
        if !self.pending {
            return None;
        }
        self.pending = false;
        let pair = (self.src, self.dst);
        self.src = self.src.wrapping_add(1);
        self.dst = self.dst.wrapping_add(1);
        self.words_moved += 1;
        pair.into()
    }
}

impl Peripheral for DmaEngine {
    fn latency(&self, _offset: u16, _write: bool) -> u32 {
        // Register file access; the per-word pacing lives in `advance`.
        1
    }

    fn read(&mut self, offset: u16) -> u16 {
        match offset {
            0 => self.src,
            1 => self.dst,
            2 => self.count,
            3 => self.busy as u16,
            4 => self.done as u16,
            _ => 0xffff,
        }
    }

    fn write(&mut self, offset: u16, value: u16) {
        match offset {
            0 => self.src = value,
            1 => self.dst = value,
            2 if !self.busy => self.count = value,
            3 if value & 1 != 0 && !self.busy && self.count > 0 => {
                self.busy = true;
                self.countdown = self.word_latency;
            }
            _ => {}
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.busy.then(|| due(now, self.countdown))
    }

    fn advance(&mut self, cycles: u64, irqs: &mut Vec<IrqRequest>) {
        if !self.busy {
            return;
        }
        if count_down(&mut self.countdown, cycles) {
            self.pending = true;
            self.count -= 1;
            if self.count > 0 {
                self.countdown = self.word_latency;
            } else {
                self.busy = false;
                self.done += 1;
                if let Some((stream, bit)) = self.irq {
                    irqs.push(IrqRequest { stream, bit });
                }
            }
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("dma");
        w.put_u32(self.word_latency);
        w.put_u32(self.stall);
        w.put_u16(self.src);
        w.put_u16(self.dst);
        w.put_u16(self.count);
        w.put_bool(self.busy);
        w.put_u32(self.countdown);
        w.put_bool(self.pending);
        w.put_u64(self.done);
        w.put_u64(self.words_moved);
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("dma")?;
        let word_latency = r.get_u32()?;
        let stall = r.get_u32()?;
        if word_latency != self.word_latency || stall != self.stall {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "dma construction mismatch: device latency/stall {}/{}, snapshot {word_latency}/{stall}",
                self.word_latency, self.stall
            )));
        }
        self.src = r.get_u16()?;
        self.dst = r.get_u16()?;
        self.count = r.get_u16()?;
        self.busy = r.get_bool()?;
        self.countdown = r.get_u32()?;
        self.pending = r.get_bool()?;
        self.done = r.get_u64()?;
        self.words_moved = r.get_u64()?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_transfer_counts_down_words() {
        let mut d = DmaEngine::new(4);
        d.start(0x100, 0x200, 3);
        assert!(d.busy());
        let mut irqs = Vec::new();
        let mut moved = Vec::new();
        for _ in 0..12 {
            d.advance(1, &mut irqs);
            if let Some(pair) = d.take_due_word() {
                moved.push(pair);
            }
        }
        assert_eq!(moved, [(0x100, 0x200), (0x101, 0x201), (0x102, 0x202)]);
        assert!(!d.busy());
        assert_eq!(d.done(), 1);
        assert_eq!(d.words_moved(), 3);
    }

    #[test]
    fn completion_interrupt_fires_once() {
        let mut d = DmaEngine::new(1).with_irq(2, 6);
        d.start(0, 8, 2);
        let mut irqs = Vec::new();
        for _ in 0..5 {
            d.advance(1, &mut irqs);
            let _ = d.take_due_word();
        }
        assert_eq!(irqs, [IrqRequest { stream: 2, bit: 6 }]);
    }

    #[test]
    fn register_interface_starts_transfers() {
        let mut d = DmaEngine::new(2);
        d.write(0, 0x10);
        d.write(1, 0x20);
        d.write(2, 1);
        assert_eq!(d.read(3), 0, "idle until kicked");
        d.write(3, 1);
        assert_eq!(d.read(3), 1);
        let mut irqs = Vec::new();
        d.advance(1, &mut irqs);
        d.advance(1, &mut irqs);
        assert_eq!(d.take_due_word(), Some((0x10, 0x20)));
        assert_eq!(d.read(4), 1);
    }

    #[test]
    fn count_write_while_busy_is_ignored() {
        let mut d = DmaEngine::new(3);
        d.start(0x8000, 0x8001, 4);
        d.write(2, 0);
        assert_eq!(d.read(2), 4, "COUNT is read-only mid-transfer");
        let mut irqs = Vec::new();
        let mut moved = 0;
        for _ in 0..12 {
            d.advance(1, &mut irqs);
            moved += usize::from(d.take_due_word().is_some());
        }
        assert_eq!(moved, 4, "the transfer runs to its programmed length");
        assert!(!d.busy());
        assert_eq!(d.stall(), 0);
        assert_eq!(d.done(), 1);
        // Idle again, COUNT is writable.
        d.write(2, 2);
        assert_eq!(d.read(2), 2);
    }

    #[test]
    fn host_start_while_busy_is_a_register_write() {
        let mut d = DmaEngine::new(2);
        d.start(0x10, 0x20, 3);
        let mut irqs = Vec::new();
        d.advance(1, &mut irqs);
        // Like the register writes it stands for: SRC and DST move, COUNT
        // and the kick are ignored mid-transfer.
        d.start(0x30, 0x40, 0);
        assert_eq!(d.read(2), 3, "COUNT is read-only mid-transfer");
        let mut moved = Vec::new();
        for _ in 0..8 {
            d.advance(1, &mut irqs);
            moved.extend(d.take_due_word());
        }
        assert_eq!(moved, [(0x30, 0x40), (0x31, 0x41), (0x32, 0x42)]);
        assert!(!d.busy());
        assert_eq!(d.done(), 1);
    }

    #[test]
    fn stall_only_while_busy() {
        let mut d = DmaEngine::new(2).with_stall(3);
        assert_eq!(d.stall(), 0);
        d.start(0, 1, 1);
        assert_eq!(d.stall(), 3);
    }

    #[test]
    fn next_event_tracks_word_countdown() {
        let mut d = DmaEngine::new(5);
        assert_eq!(d.next_event(100), None);
        d.start(0, 1, 2);
        assert_eq!(d.next_event(100), Some(104));
        d.advance(3, &mut Vec::new());
        assert_eq!(d.next_event(103), Some(104));
    }

    #[test]
    fn state_roundtrips_mid_transfer() {
        let mut d = DmaEngine::new(3).with_stall(2).with_irq(0, 5);
        d.start(0x40, 0x80, 4);
        let mut irqs = Vec::new();
        for _ in 0..5 {
            d.advance(1, &mut irqs);
            let _ = d.take_due_word();
        }
        let state = d.save_state();
        let mut fresh = DmaEngine::new(3).with_stall(2).with_irq(0, 5);
        fresh.restore_state(&state).expect("restore");
        assert_eq!(fresh.save_state(), state);
        let mut other = DmaEngine::new(4);
        assert!(other.restore_state(&state).is_err());
    }
}
