//! Programmable interval timer raising per-stream interrupts.
//!
//! Timers are the substrate of hard-deadline management: *"Real Time
//! Systems also require hard deadline management which is often implemented
//! via timer based interrupts. … In DISC, an interrupt, instead of
//! suspending a running process, can create its own instruction stream."*

use disc_core::IrqRequest;

use crate::bus::{count_down, due, Peripheral};

/// Register map of the [`Timer`].
///
/// | offset | register | access |
/// |--------|----------|--------|
/// | 0 | `PERIOD` — reload value in cycles | r/w |
/// | 1 | `CONTROL` — bit0 enable, bit1 periodic | r/w |
/// | 2 | `COUNT` — cycles until next fire | r |
/// | 3 | `FIRES` — number of expirations | r |
#[derive(Debug, Clone)]
pub struct Timer {
    period: u32,
    control: u16,
    count: u32,
    fires: u64,
    stream: usize,
    bit: u8,
}

impl Timer {
    /// Number of mapped registers.
    pub const REGS: u16 = 4;

    const CTRL_ENABLE: u16 = 1;
    const CTRL_PERIODIC: u16 = 2;

    /// A periodic timer raising (`stream`, `bit`) every `period` cycles,
    /// already enabled.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `bit >= 8`.
    pub fn periodic(period: u32, stream: usize, bit: u8) -> Self {
        assert!(period > 0, "timer period must be nonzero");
        assert!(bit < 8, "interrupt bit out of range");
        Timer {
            period,
            control: Self::CTRL_ENABLE | Self::CTRL_PERIODIC,
            count: period,
            fires: 0,
            stream,
            bit,
        }
    }

    /// A one-shot timer firing once after `period` cycles, already enabled.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `bit >= 8`.
    pub fn one_shot(period: u32, stream: usize, bit: u8) -> Self {
        let mut t = Self::periodic(period, stream, bit);
        t.control = Self::CTRL_ENABLE;
        t
    }

    /// Number of expirations so far.
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// `true` while the timer is counting.
    pub fn enabled(&self) -> bool {
        self.control & Self::CTRL_ENABLE != 0
    }
}

impl Peripheral for Timer {
    fn latency(&self, _offset: u16, _write: bool) -> u32 {
        // Timer registers are fast on-board I/O.
        1
    }

    fn read(&mut self, offset: u16) -> u16 {
        match offset {
            0 => self.period as u16,
            1 => self.control,
            2 => self.count as u16,
            3 => self.fires as u16,
            _ => 0xffff,
        }
    }

    fn write(&mut self, offset: u16, value: u16) {
        match offset {
            0 => {
                self.period = value.max(1) as u32;
                self.count = self.period;
            }
            1 => self.control = value,
            _ => {}
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.enabled().then(|| due(now, self.count))
    }

    fn advance(&mut self, cycles: u64, irqs: &mut Vec<IrqRequest>) {
        if !self.enabled() {
            return;
        }
        if count_down(&mut self.count, cycles) {
            self.fires += 1;
            irqs.push(IrqRequest {
                stream: self.stream,
                bit: self.bit,
            });
            if self.control & Self::CTRL_PERIODIC == 0 {
                self.control &= !Self::CTRL_ENABLE;
            }
            self.count = self.period;
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("timer");
        w.put_usize(self.stream);
        w.put_u8(self.bit);
        w.put_u32(self.period);
        w.put_u16(self.control);
        w.put_u32(self.count);
        w.put_u64(self.fires);
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("timer")?;
        let stream = r.get_usize()?;
        let bit = r.get_u8()?;
        if stream != self.stream || bit != self.bit {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "timer irq routing mismatch: device ({}, {}), snapshot ({stream}, {bit})",
                self.stream, self.bit
            )));
        }
        self.period = r.get_u32()?;
        self.control = r.get_u16()?;
        self.count = r.get_u32()?;
        self.fires = r.get_u64()?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(t: &mut Timer, cycles: u32) -> Vec<IrqRequest> {
        let mut irqs = Vec::new();
        for _ in 0..cycles {
            t.advance(1, &mut irqs);
        }
        irqs
    }

    #[test]
    fn periodic_fires_every_period() {
        let mut t = Timer::periodic(10, 2, 5);
        let irqs = drain(&mut t, 35);
        assert_eq!(irqs.len(), 3);
        assert!(irqs.iter().all(|i| i.stream == 2 && i.bit == 5));
        assert_eq!(t.fires(), 3);
    }

    #[test]
    fn one_shot_fires_once() {
        let mut t = Timer::one_shot(5, 0, 7);
        let irqs = drain(&mut t, 50);
        assert_eq!(irqs.len(), 1);
        assert!(!t.enabled());
    }

    #[test]
    fn register_interface() {
        let mut t = Timer::periodic(100, 0, 1);
        assert_eq!(t.read(0), 100);
        t.write(0, 7);
        assert_eq!(t.read(2), 7);
        t.write(1, 0); // disable
        assert!(drain(&mut t, 100).is_empty());
        t.write(1, 3); // enable periodic
        assert_eq!(drain(&mut t, 7).len(), 1);
    }

    #[test]
    #[should_panic(expected = "period must be nonzero")]
    fn zero_period_rejected() {
        let _ = Timer::periodic(0, 0, 0);
    }
}
