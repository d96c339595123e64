//! The asynchronous external data bus.
//!
//! DISC1 uses *"a 16-bit asynchronous"* data bus because *"controllers have
//! a very large variety of I/O peripherals with large variety of access
//! times"*. The machine talks to the bus through the [`Abi`](crate::Abi);
//! concrete peripherals (external RAM, timers, sensors, …) implement
//! [`DataBus`]. The `disc-bus` crate provides a composable peripheral bus;
//! this module only defines the trait and a flat-memory implementation used
//! as the default backing store and in tests.
//!
//! Peripheral time is lazy. The machine calls [`DataBus::tick`] only on
//! cycles at or after the bus's [`next_event`](DataBus::next_event); the
//! quiet cycles before it are owed and paid with one
//! [`advance`](DataBus::advance) before the next call of any other bus
//! method and before every public `step`/`run` returns. So every
//! `latency`, `read`, `write` and `next_event` sees the bus exactly as a
//! tick on every cycle would have left it.

/// An interrupt request raised by a peripheral: set `bit` in the IR of
/// `stream`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrqRequest {
    /// Destination stream.
    pub stream: usize,
    /// IR bit to set (0..=7; 7 is the highest priority).
    pub bit: u8,
}

/// External data-bus address space (everything the internal memory does not
/// decode).
///
/// Implementations report a per-address access latency; the machine's
/// asynchronous bus interface holds the bus busy for that many cycles and
/// then performs the transfer. Peripheral-internal time moves one machine
/// cycle per cycle, through `tick` on the cycles where
/// [`next_event`](DataBus::next_event) says something may happen (which
/// may raise interrupts) and through [`advance`](DataBus::advance) in bulk
/// for the quiet cycles in between. The machine settles the owed cycles
/// before every other call, so a bus never observes the difference.
pub trait DataBus: Send {
    /// Access latency in cycles for a read/write of `addr`, or `None` when
    /// the address is unmapped. A latency of 0 completes synchronously
    /// (the paper only flushes/waits when *"the access time is larger than
    /// zero"*).
    fn latency(&self, addr: u16, write: bool) -> Option<u32>;

    /// Performs the read of `addr` (called when the transaction completes).
    fn read(&mut self, addr: u16) -> u16;

    /// Performs the write of `addr` (called when the transaction
    /// completes).
    fn write(&mut self, addr: u16, value: u16);

    /// Advances one machine cycle; peripherals push interrupt requests into
    /// `irqs`. The machine calls it only for a cycle at or after the
    /// bus's latest [`next_event`](DataBus::next_event) answer; every
    /// other cycle is covered by [`advance`](DataBus::advance).
    fn tick(&mut self, irqs: &mut Vec<IrqRequest>) {
        let _ = irqs;
    }

    /// Earliest absolute machine cycle `>= now` at which a [`tick`]
    /// (DataBus::tick) may produce an observable effect (an interrupt
    /// request, a state change visible through [`read`](DataBus::read), or
    /// a latency change), or `None` when no future tick can.
    ///
    /// Peripheral time moves one step per machine cycle; the step during
    /// the machine cycle starting at `now` counts as occurring *at* `now`,
    /// and the machine always asks with `now` equal to the bus's own
    /// current cycle (owed cycles are settled first). The answer drives
    /// every lazy path: the slow step ticks the bus only from the
    /// returned cycle on, and [`StepMode::EventSkip`](crate::StepMode)
    /// skips and superblock bursts stop there. The machine never lets an
    /// [`advance`](DataBus::advance) cross the returned cycle, and it asks
    /// again after every real tick, read or write and at the start of
    /// every public `step`/`run` (a host may have reprogrammed a device
    /// through a shared handle in between). An early answer is always
    /// safe: it only costs a tick that turns out to do nothing.
    ///
    /// The default (`None`) is only sound for buses whose `tick` is a
    /// no-op (such as [`FlatBus`]); any implementation overriding `tick`
    /// must override `next_event` and `advance` together.
    fn next_event(&self, now: u64) -> Option<u64> {
        let _ = now;
        None
    }

    /// Advances peripheral-internal time by `cycles` machine cycles in one
    /// step, exactly equivalent to `cycles` calls to [`tick`]
    /// (DataBus::tick) *given* the caller's guarantee that the skipped
    /// stretch ends strictly before [`next_event`](DataBus::next_event) —
    /// i.e. no tick in the stretch would have raised an interrupt or
    /// otherwise changed observable state.
    ///
    /// This is how the machine pays the cycles it did not tick: before any
    /// `latency`, `read`, `write`, `next_event` or host access, and at the
    /// end of every public `step`/`run`, it settles the owed cycles with
    /// one call, so the bus is always current when observed.
    ///
    /// The default (no-op) pairs with the default `next_event`.
    fn advance(&mut self, cycles: u64) {
        let _ = cycles;
    }

    /// Serializes the bus's mutable state as an opaque `disc-snap/v2`
    /// component blob, embedded verbatim in machine snapshots.
    ///
    /// The default (empty blob) is only sound for stateless buses; any
    /// implementation with mutable state must override `save_state` and
    /// [`restore_state`](DataBus::restore_state) together. Conventionally
    /// a blob starts with a name tag (see
    /// [`SnapReader::expect_str`](disc_snap::SnapReader::expect_str)) so
    /// state can never be applied to the wrong bus kind.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state written by [`save_state`](DataBus::save_state) onto
    /// an identically-constructed bus.
    ///
    /// # Errors
    ///
    /// Returns [`disc_snap::SnapError`] when the blob is malformed or
    /// belongs to a different bus kind. The default accepts only the
    /// default `save_state`'s empty blob.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(disc_snap::SnapError::Corrupt(
                "bus state offered to a stateless bus".into(),
            ))
        }
    }
}

/// Flat external RAM with a uniform access latency (the paper's `tmem`).
///
/// Backs the full 16-bit address space sparsely; unwritten words read 0.
#[derive(Debug, Clone)]
pub struct FlatBus {
    words: std::collections::HashMap<u16, u16>,
    latency: u32,
}

impl FlatBus {
    /// Creates a flat external memory with the given access latency.
    pub fn new(latency: u32) -> Self {
        FlatBus {
            words: std::collections::HashMap::new(),
            latency,
        }
    }

    /// Reads a word directly (test/inspection path, no latency).
    pub fn peek(&self, addr: u16) -> u16 {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Writes a word directly (test setup path, no latency).
    pub fn poke(&mut self, addr: u16, value: u16) {
        self.words.insert(addr, value);
    }
}

impl DataBus for FlatBus {
    fn latency(&self, _addr: u16, _write: bool) -> Option<u32> {
        Some(self.latency)
    }

    fn read(&mut self, addr: u16) -> u16 {
        self.peek(addr)
    }

    fn write(&mut self, addr: u16, value: u16) {
        self.poke(addr, value);
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("flat-bus");
        w.put_u32(self.latency);
        // Address-sorted pairs so identical contents always serialize to
        // identical bytes regardless of hash-map iteration order.
        let mut pairs: Vec<(u16, u16)> = self.words.iter().map(|(&a, &v)| (a, v)).collect();
        pairs.sort_unstable();
        w.put_usize(pairs.len());
        for (addr, value) in pairs {
            w.put_u16(addr);
            w.put_u16(value);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("flat-bus")?;
        let latency = r.get_u32()?;
        if latency != self.latency {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "flat-bus latency mismatch: machine {}, snapshot {latency}",
                self.latency
            )));
        }
        let n = r.get_usize()?;
        self.words.clear();
        for _ in 0..n {
            let addr = r.get_u16()?;
            let value = r.get_u16()?;
            self.words.insert(addr, value);
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_bus_roundtrip() {
        let mut b = FlatBus::new(2);
        assert_eq!(b.latency(0x8000, false), Some(2));
        b.write(0x8000, 55);
        assert_eq!(b.read(0x8000), 55);
        assert_eq!(b.peek(0x8001), 0);
    }

    #[test]
    fn default_tick_raises_nothing() {
        let mut b = FlatBus::new(0);
        let mut irqs = Vec::new();
        b.tick(&mut irqs);
        assert!(irqs.is_empty());
    }
}
