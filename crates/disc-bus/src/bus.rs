//! Address-decoded peripheral composition.

use std::fmt;

use disc_core::{DataBus, IrqRequest};

use crate::dma::DmaEngine;
use crate::shared::Shared;

/// A device attachable to the asynchronous data bus.
///
/// Addresses handed to a peripheral are *offsets* into its mapped window.
///
/// Device time follows the machine's lazy rule (see
/// [`DataBus`](disc_core::DataBus)): the bus is ticked only from its
/// earliest [`next_event`](Peripheral::next_event) on, and the quiet
/// cycles before that reach every device as one
/// [`advance`](Peripheral::advance), settled before the machine next
/// calls `latency`, `read`, `write` or `next_event` and before a public
/// `step`/`run` returns. A device therefore always sees its own clock
/// current when it is accessed, but may not count on one `tick` per
/// cycle.
pub trait Peripheral: Send {
    /// Access latency in cycles for `offset`; devices model their
    /// conversion/transfer times here (the whole point of the asynchronous
    /// bus). A latency of 0 completes synchronously.
    fn latency(&self, offset: u16, write: bool) -> u32;

    /// Reads the register/word at `offset` (called at transaction
    /// completion).
    fn read(&mut self, offset: u16) -> u16;

    /// Writes the register/word at `offset` (called at transaction
    /// completion).
    fn write(&mut self, offset: u16, value: u16);

    /// Advances one machine cycle; devices push interrupt requests. Called
    /// only on cycles at or after the bus's next event; quiet cycles come
    /// through [`advance`](Peripheral::advance) instead.
    fn tick(&mut self, irqs: &mut Vec<IrqRequest>) {
        let _ = irqs;
    }

    /// Earliest absolute machine cycle `>= now` at which a [`tick`]
    /// (Peripheral::tick) may produce an observable effect, or `None`
    /// when no future tick can. Mirrors
    /// [`DataBus::next_event`](disc_core::DataBus::next_event): the tick
    /// during the machine step starting at cycle `now` counts as
    /// happening *at* `now`, `now` is always the device's own current
    /// cycle, and the caller never advances past the returned cycle. The
    /// machine asks again after every bus tick, read or write and whenever
    /// the host may have touched the device, so the answer only has to
    /// hold until then.
    ///
    /// The default (`None`) is only sound for devices whose `tick` is a
    /// no-op; any device overriding `tick` must override `next_event` and
    /// [`advance`](Peripheral::advance) together.
    fn next_event(&self, now: u64) -> Option<u64> {
        let _ = now;
        None
    }

    /// Advances device-internal time by `cycles` machine cycles in one
    /// step, exactly equivalent to that many [`tick`](Peripheral::tick)
    /// calls *given* the caller's guarantee that the skipped stretch ends
    /// strictly before [`next_event`](Peripheral::next_event). This is how
    /// the owed quiet cycles are paid before the device is next accessed.
    fn advance(&mut self, cycles: u64) {
        let _ = cycles;
    }

    /// Serializes the device's mutable state as an opaque `disc-snap/v2`
    /// component blob, aggregated into machine snapshots by
    /// [`PeripheralBus::save_state`](disc_core::DataBus::save_state).
    /// Mirrors [`DataBus::save_state`]: the default (empty blob) is only
    /// sound for stateless devices, and a blob conventionally starts with
    /// a device name tag so state can never land on the wrong device
    /// kind.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state written by [`save_state`](Peripheral::save_state)
    /// onto an identically-constructed device.
    ///
    /// # Errors
    ///
    /// Returns [`disc_snap::SnapError`] when the blob is malformed or
    /// belongs to a different device kind/construction. The default
    /// accepts only the default `save_state`'s empty blob.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(disc_snap::SnapError::Corrupt(
                "device state offered to a stateless peripheral".into(),
            ))
        }
    }
}

/// Error returned by [`PeripheralBus::map`] on overlapping or empty
/// windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapError {
    message: String,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for MapError {}

struct Mapping {
    base: u16,
    len: u16,
    device: Box<dyn Peripheral>,
}

/// An address-decoded bus of [`Peripheral`]s implementing
/// [`disc_core::DataBus`].
///
/// Reads of unmapped addresses return `0xffff` (open bus) with zero
/// latency; unmapped writes are dropped. Both are counted.
pub struct PeripheralBus {
    mappings: Vec<Mapping>,
    /// Bus masters: DMA engines whose due word transfers this bus routes
    /// through its own address decode each tick, and whose arbitration
    /// stall inflates every mapped access while a transfer is in flight.
    masters: Vec<Shared<DmaEngine>>,
    unmapped_accesses: u64,
}

impl fmt::Debug for PeripheralBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeripheralBus")
            .field("mappings", &self.mappings.len())
            .field("masters", &self.masters.len())
            .field("unmapped_accesses", &self.unmapped_accesses)
            .finish()
    }
}

impl PeripheralBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        PeripheralBus {
            mappings: Vec::new(),
            masters: Vec::new(),
            unmapped_accesses: 0,
        }
    }

    /// Maps `device` at `[base, base + len)`.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] when `len` is zero, the window wraps the
    /// 16-bit address space, or it overlaps an existing mapping.
    pub fn map(
        &mut self,
        base: u16,
        len: u16,
        device: Box<dyn Peripheral>,
    ) -> Result<(), MapError> {
        if len == 0 {
            return Err(MapError {
                message: "mapping length must be nonzero".into(),
            });
        }
        let end = base as u32 + len as u32;
        if end > 0x1_0000 {
            return Err(MapError {
                message: format!("mapping {base:#06x}+{len:#x} exceeds the address space"),
            });
        }
        for m in &self.mappings {
            let m_end = m.base as u32 + m.len as u32;
            if (base as u32) < m_end && end > m.base as u32 {
                return Err(MapError {
                    message: format!(
                        "mapping {base:#06x}+{len:#x} overlaps {:#06x}+{:#x}",
                        m.base, m.len
                    ),
                });
            }
        }
        self.mappings.push(Mapping { base, len, device });
        Ok(())
    }

    /// Maps `engine`'s registers at `[base, base + DmaEngine::REGS)` and
    /// registers it as a bus master: each tick, a word transfer that fell
    /// due is routed through this bus's own address decode (the read and
    /// the write really hit the mapped devices), and while a transfer is
    /// in flight every mapped stream access pays the engine's arbitration
    /// stall on top of the device latency.
    ///
    /// The caller keeps the [`Shared`] handle to program transfers and
    /// read counters after the bus moves into the machine.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] under the same rules as [`map`](Self::map).
    pub fn map_dma(&mut self, base: u16, engine: &Shared<DmaEngine>) -> Result<(), MapError> {
        self.map(base, DmaEngine::REGS, Box::new(engine.handle()))?;
        self.masters.push(engine.handle());
        Ok(())
    }

    /// Number of reads/writes that hit no mapping.
    pub fn unmapped_accesses(&self) -> u64 {
        self.unmapped_accesses
    }

    /// Sum of the arbitration penalties of all mid-transfer bus masters.
    fn master_stall(&self) -> u32 {
        self.masters.iter().map(|m| m.borrow().stall()).sum()
    }

    fn find(&self, addr: u16) -> Option<(usize, u16)> {
        self.mappings.iter().enumerate().find_map(|(i, m)| {
            if addr >= m.base && (addr as u32) < m.base as u32 + m.len as u32 {
                Some((i, addr - m.base))
            } else {
                None
            }
        })
    }
}

impl Default for PeripheralBus {
    fn default() -> Self {
        Self::new()
    }
}

impl DataBus for PeripheralBus {
    fn latency(&self, addr: u16, write: bool) -> Option<u32> {
        self.find(addr).map(|(i, off)| {
            self.mappings[i]
                .device
                .latency(off, write)
                .saturating_add(self.master_stall())
        })
    }

    fn read(&mut self, addr: u16) -> u16 {
        match self.find(addr) {
            Some((i, off)) => self.mappings[i].device.read(off),
            None => {
                self.unmapped_accesses += 1;
                0xffff
            }
        }
    }

    fn write(&mut self, addr: u16, value: u16) {
        match self.find(addr) {
            Some((i, off)) => self.mappings[i].device.write(off, value),
            None => self.unmapped_accesses += 1,
        }
    }

    fn tick(&mut self, irqs: &mut Vec<IrqRequest>) {
        for m in &mut self.mappings {
            m.device.tick(irqs);
        }
        // Service bus masters after every device has ticked, so a word
        // that fell due this cycle moves this cycle. The engine lock is
        // released before routing: the read/write below may well decode
        // back into the engine's own register window.
        for i in 0..self.masters.len() {
            let due = self.masters[i].borrow_mut().take_due_word();
            if let Some((src, dst)) = due {
                let value = self.read(src);
                self.write(dst, value);
            }
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.mappings
            .iter()
            .filter_map(|m| m.device.next_event(now))
            .min()
    }

    fn advance(&mut self, cycles: u64) {
        for m in &mut self.mappings {
            m.device.advance(cycles);
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("peripheral-bus");
        w.put_u64(self.unmapped_accesses);
        w.put_usize(self.mappings.len());
        for m in &self.mappings {
            w.put_u16(m.base);
            w.put_u16(m.len);
            w.put_bytes(&m.device.save_state());
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("peripheral-bus")?;
        let unmapped = r.get_u64()?;
        let n = r.get_usize()?;
        if n != self.mappings.len() {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "peripheral count mismatch: bus has {}, snapshot has {n}",
                self.mappings.len()
            )));
        }
        for m in &mut self.mappings {
            let base = r.get_u16()?;
            let len = r.get_u16()?;
            if base != m.base || len != m.len {
                return Err(disc_snap::SnapError::Corrupt(format!(
                    "mapping mismatch at {:#06x}+{:#x}: snapshot has {base:#06x}+{len:#x}",
                    m.base, m.len
                )));
            }
            m.device.restore_state(r.get_bytes()?)?;
        }
        r.finish()?;
        self.unmapped_accesses = unmapped;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo(u16);

    impl Peripheral for Echo {
        fn latency(&self, _offset: u16, _write: bool) -> u32 {
            3
        }
        fn read(&mut self, offset: u16) -> u16 {
            self.0 + offset
        }
        fn write(&mut self, _offset: u16, value: u16) {
            self.0 = value;
        }
    }

    #[test]
    fn decode_routes_by_window() {
        let mut bus = PeripheralBus::new();
        bus.map(0x1000, 0x10, Box::new(Echo(100))).unwrap();
        bus.map(0x2000, 0x10, Box::new(Echo(200))).unwrap();
        assert_eq!(bus.read(0x1005), 105);
        assert_eq!(bus.read(0x2001), 201);
        assert_eq!(bus.latency(0x1000, false), Some(3));
        assert_eq!(bus.latency(0x3000, false), None);
    }

    #[test]
    fn unmapped_reads_open_bus() {
        let mut bus = PeripheralBus::new();
        assert_eq!(bus.read(0x4242), 0xffff);
        bus.write(0x4242, 1);
        assert_eq!(bus.unmapped_accesses(), 2);
    }

    #[test]
    fn overlap_rejected() {
        let mut bus = PeripheralBus::new();
        bus.map(0x1000, 0x100, Box::new(Echo(0))).unwrap();
        assert!(bus.map(0x10ff, 2, Box::new(Echo(0))).is_err());
        assert!(bus.map(0x0fff, 2, Box::new(Echo(0))).is_err());
        assert!(bus.map(0x1100, 2, Box::new(Echo(0))).is_ok());
    }

    #[test]
    fn zero_length_and_wrapping_rejected() {
        let mut bus = PeripheralBus::new();
        assert!(bus.map(0x1000, 0, Box::new(Echo(0))).is_err());
        assert!(bus.map(0xffff, 2, Box::new(Echo(0))).is_err());
    }

    #[test]
    fn containing_and_identical_overlaps_rejected() {
        let mut bus = PeripheralBus::new();
        bus.map(0x1000, 0x100, Box::new(Echo(0))).unwrap();
        // A window swallowing the existing one whole.
        assert!(bus.map(0x0800, 0x1000, Box::new(Echo(0))).is_err());
        // A window strictly inside the existing one.
        assert!(bus.map(0x1040, 0x10, Box::new(Echo(0))).is_err());
        // The exact same window again.
        assert!(bus.map(0x1000, 0x100, Box::new(Echo(0))).is_err());
        // Rejection leaves the original mapping intact.
        assert_eq!(bus.read(0x1005), 5);
    }

    #[test]
    fn adjacent_windows_and_address_space_edges_are_fine() {
        let mut bus = PeripheralBus::new();
        // Flush against both ends of the 16-bit space and each other.
        bus.map(0x0000, 0x10, Box::new(Echo(0))).unwrap();
        bus.map(0x0010, 0x10, Box::new(Echo(100))).unwrap();
        bus.map(0xfff0, 0x10, Box::new(Echo(200))).unwrap();
        assert_eq!(bus.read(0x000f), 15);
        assert_eq!(bus.read(0x0010), 100);
        assert_eq!(bus.read(0xffff), 215);
        assert_eq!(bus.latency(0x0020, false), None, "gap stays unmapped");
    }

    #[test]
    fn map_error_names_the_colliding_windows() {
        let mut bus = PeripheralBus::new();
        bus.map(0x1000, 0x100, Box::new(Echo(0))).unwrap();
        let err = bus.map(0x10ff, 2, Box::new(Echo(0))).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("0x10ff"), "mentions the new window: {text}");
        assert!(text.contains("0x1000"), "mentions the old window: {text}");
        let err = bus.map(0xfff0, 0x20, Box::new(Echo(0))).unwrap_err();
        assert!(err.to_string().contains("exceeds the address space"));
    }

    #[test]
    fn writes_reach_device() {
        let mut bus = PeripheralBus::new();
        bus.map(0, 4, Box::new(Echo(0))).unwrap();
        bus.write(2, 42);
        assert_eq!(bus.read(0), 42);
    }

    fn loaded_bus() -> PeripheralBus {
        let mut bus = PeripheralBus::new();
        bus.map(0x8000, 0x100, Box::new(crate::ExtRam::new(0x100, 2)))
            .unwrap();
        bus.map(
            0x9000,
            crate::Timer::REGS,
            Box::new(crate::Timer::periodic(50, 1, 5)),
        )
        .unwrap();
        bus.map(
            0x9100,
            crate::Watchdog::REGS,
            Box::new(crate::Watchdog::new(200, 0, 7)),
        )
        .unwrap();
        bus.map(
            0x9200,
            crate::SensorPort::REGS,
            Box::new(crate::SensorPort::triangle(30, 10, 8).with_irq(2, 4)),
        )
        .unwrap();
        let mut uart = crate::Uart::new(4).with_irq(3, 3);
        uart.feed(17, vec![7, 8, 9]);
        bus.map(0x9300, crate::Uart::REGS, Box::new(uart)).unwrap();
        bus.map(0x9400, 2, Box::new(crate::Actuator::new(3)))
            .unwrap();
        bus
    }

    #[test]
    fn full_bus_state_roundtrips() {
        use disc_core::DataBus;
        let mut bus = loaded_bus();
        let mut irqs = Vec::new();
        for i in 0..137u16 {
            DataBus::tick(&mut bus, &mut irqs);
            if i % 10 == 0 {
                DataBus::write(&mut bus, 0x8000 + i, i);
                DataBus::write(&mut bus, 0x9400, i);
            }
        }
        let _ = DataBus::read(&mut bus, 0x9300); // pop one RX word
        let _ = DataBus::read(&mut bus, 0x4242); // count an unmapped access
        let state = bus.save_state();

        let mut fresh = loaded_bus();
        fresh.restore_state(&state).expect("restore");
        // Both copies must serialize identically and behave identically
        // from here on.
        assert_eq!(fresh.save_state(), state);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..300 {
            DataBus::tick(&mut bus, &mut a);
            DataBus::tick(&mut fresh, &mut b);
        }
        assert_eq!(a, b, "post-restore interrupt timelines diverge");
        for addr in [
            0x8000, 0x8010, 0x9002, 0x9101, 0x9200, 0x9201, 0x9301, 0x9400,
        ] {
            assert_eq!(
                DataBus::read(&mut bus, addr),
                DataBus::read(&mut fresh, addr),
                "register {addr:#06x} diverges"
            );
        }
    }

    #[test]
    fn dma_master_moves_words_between_mapped_devices() {
        use disc_core::DataBus;
        let dma = Shared::new(DmaEngine::new(4).with_stall(2));
        let mut bus = PeripheralBus::new();
        bus.map(0x8000, 0x100, Box::new(crate::ExtRam::new(0x100, 2)))
            .unwrap();
        bus.map_dma(0xa000, &dma).unwrap();
        for i in 0..4u16 {
            DataBus::write(&mut bus, 0x8000 + i, 100 + i);
        }
        // Idle engine: plain device latency.
        assert_eq!(bus.latency(0x8000, false), Some(2));
        dma.borrow_mut().start(0x8000, 0x8010, 4);
        // Mid-transfer: every mapped access pays the arbitration stall.
        assert_eq!(bus.latency(0x8000, false), Some(4));
        assert_eq!(bus.latency(0xa000, false), Some(3));
        let mut irqs = Vec::new();
        for _ in 0..16 {
            DataBus::tick(&mut bus, &mut irqs);
        }
        assert!(!dma.borrow().busy());
        assert_eq!(bus.latency(0x8000, false), Some(2), "stall clears");
        for i in 0..4u16 {
            assert_eq!(DataBus::read(&mut bus, 0x8010 + i), 100 + i);
        }
        assert_eq!(dma.borrow().words_moved(), 4);
    }

    #[test]
    fn dma_bus_state_roundtrips_mid_transfer() {
        use disc_core::DataBus;
        let build = || {
            let dma = Shared::new(DmaEngine::new(3));
            let mut bus = PeripheralBus::new();
            bus.map(0x8000, 0x40, Box::new(crate::ExtRam::new(0x40, 1)))
                .unwrap();
            bus.map_dma(0xa000, &dma).unwrap();
            (bus, dma)
        };
        let (mut bus, dma) = build();
        for i in 0..8u16 {
            DataBus::write(&mut bus, 0x8000 + i, i * 3);
        }
        dma.borrow_mut().start(0x8000, 0x8020, 8);
        let mut irqs = Vec::new();
        for _ in 0..7 {
            DataBus::tick(&mut bus, &mut irqs);
        }
        let state = bus.save_state();

        let (mut fresh, _handle) = build();
        fresh.restore_state(&state).expect("restore");
        assert_eq!(fresh.save_state(), state);
        for _ in 0..30 {
            DataBus::tick(&mut bus, &mut irqs);
            DataBus::tick(&mut fresh, &mut irqs);
        }
        for i in 0..8u16 {
            assert_eq!(
                DataBus::read(&mut bus, 0x8020 + i),
                DataBus::read(&mut fresh, 0x8020 + i),
                "post-restore dma destinations diverge at word {i}"
            );
        }
    }

    #[test]
    fn restore_rejects_reshaped_bus() {
        let bus = loaded_bus();
        let state = bus.save_state();
        let mut other = PeripheralBus::new();
        other
            .map(0x8000, 0x100, Box::new(crate::ExtRam::new(0x100, 2)))
            .unwrap();
        assert!(other.restore_state(&state).is_err(), "missing devices");
        let mut swapped = PeripheralBus::new();
        swapped
            .map(0x8000, 0x100, Box::new(crate::ExtRam::new(0x100, 3)))
            .unwrap();
        let sub = bus.mappings[0].device.save_state();
        assert!(
            swapped.mappings[0].device.restore_state(&sub).is_err(),
            "construction params differ"
        );
    }
}
