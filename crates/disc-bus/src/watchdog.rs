//! Watchdog timer — the classic hard-real-time safety peripheral.
//!
//! Control firmware must prove liveness by *kicking* the watchdog before
//! its timeout expires; a missed kick raises a (typically highest
//! priority) interrupt so the system can enter a safe state. On DISC the
//! recovery handler can run on a dedicated stream that is guaranteed
//! pipeline slots by the scheduler partition, no matter how wedged the
//! other streams are.

use disc_core::IrqRequest;

use crate::bus::{count_down, due, Peripheral};

/// Register map: offset 0 = `KICK` (write any value to reset the
/// countdown), offset 1 = `COUNT` (cycles until bite, read-only),
/// offset 2 = `BITES` (times the watchdog fired, read-only).
#[derive(Debug, Clone)]
pub struct Watchdog {
    timeout: u32,
    count: u32,
    bites: u64,
    kicks: u64,
    stream: usize,
    bit: u8,
}

impl Watchdog {
    /// Number of mapped registers.
    pub const REGS: u16 = 3;

    /// Creates a watchdog biting (`stream`, `bit`) after `timeout` cycles
    /// without a kick.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero or `bit >= 8`.
    pub fn new(timeout: u32, stream: usize, bit: u8) -> Self {
        assert!(timeout > 0, "watchdog timeout must be nonzero");
        assert!(bit < 8, "interrupt bit out of range");
        Watchdog {
            timeout,
            count: timeout,
            bites: 0,
            kicks: 0,
            stream,
            bit,
        }
    }

    /// Times the watchdog has fired.
    pub fn bites(&self) -> u64 {
        self.bites
    }

    /// Kicks received.
    pub fn kicks(&self) -> u64 {
        self.kicks
    }
}

impl Peripheral for Watchdog {
    fn latency(&self, _offset: u16, _write: bool) -> u32 {
        1
    }

    fn read(&mut self, offset: u16) -> u16 {
        match offset {
            1 => self.count as u16,
            2 => self.bites as u16,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u16, _value: u16) {
        if offset == 0 {
            self.kicks += 1;
            self.count = self.timeout;
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        Some(due(now, self.count))
    }

    fn advance(&mut self, cycles: u64, irqs: &mut Vec<IrqRequest>) {
        if count_down(&mut self.count, cycles) {
            self.bites += 1;
            self.count = self.timeout;
            irqs.push(IrqRequest {
                stream: self.stream,
                bit: self.bit,
            });
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("watchdog");
        w.put_usize(self.stream);
        w.put_u8(self.bit);
        w.put_u32(self.timeout);
        w.put_u32(self.count);
        w.put_u64(self.bites);
        w.put_u64(self.kicks);
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("watchdog")?;
        let stream = r.get_usize()?;
        let bit = r.get_u8()?;
        let timeout = r.get_u32()?;
        if stream != self.stream || bit != self.bit || timeout != self.timeout {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "watchdog construction mismatch: device ({}, {}, {}), \
                 snapshot ({stream}, {bit}, {timeout})",
                self.stream, self.bit, self.timeout
            )));
        }
        self.count = r.get_u32()?;
        self.bites = r.get_u64()?;
        self.kicks = r.get_u64()?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bites_without_kicks() {
        let mut w = Watchdog::new(10, 2, 7);
        let mut irqs = Vec::new();
        for _ in 0..25 {
            w.advance(1, &mut irqs);
        }
        assert_eq!(w.bites(), 2);
        assert_eq!(irqs.len(), 2);
        assert_eq!(irqs[0], IrqRequest { stream: 2, bit: 7 });
    }

    #[test]
    fn kicks_hold_it_off() {
        let mut w = Watchdog::new(10, 0, 7);
        let mut irqs = Vec::new();
        for i in 0..100 {
            if i % 5 == 0 {
                w.write(0, 1);
            }
            w.advance(1, &mut irqs);
        }
        assert_eq!(w.bites(), 0, "regular kicks prevent bites");
        assert_eq!(w.kicks(), 20);
    }

    #[test]
    fn register_reads() {
        let mut w = Watchdog::new(100, 0, 7);
        let mut irqs = Vec::new();
        for _ in 0..30 {
            w.advance(1, &mut irqs);
        }
        assert_eq!(w.read(1), 70);
        assert_eq!(w.read(2), 0);
    }

    #[test]
    fn bite_rearms_the_countdown() {
        // A fired watchdog is not dead: it reloads and bites again on the
        // next full timeout, so a wedged system keeps getting reminders.
        let mut w = Watchdog::new(10, 0, 7);
        let mut irqs = Vec::new();
        for _ in 0..10 {
            w.advance(1, &mut irqs);
        }
        assert_eq!(w.bites(), 1);
        assert_eq!(w.read(1), 10, "count reloaded right after the bite");
        for _ in 0..9 {
            w.advance(1, &mut irqs);
        }
        assert_eq!(w.bites(), 1, "second bite needs the full timeout");
        w.advance(1, &mut irqs);
        assert_eq!(w.bites(), 2);
    }

    #[test]
    fn kick_after_bite_resumes_normal_service() {
        let mut w = Watchdog::new(10, 0, 7);
        let mut irqs = Vec::new();
        for _ in 0..10 {
            w.advance(1, &mut irqs);
        }
        assert_eq!(w.bites(), 1, "firmware was wedged once");
        // Recovery handler kicks; from here on-time kicks keep it quiet.
        for i in 0..100 {
            if i % 5 == 0 {
                w.write(0, 0);
            }
            w.advance(1, &mut irqs);
        }
        assert_eq!(w.bites(), 1, "no further bites after recovery");
        assert_eq!(w.read(2), 1, "BITES register preserves the history");
    }

    #[test]
    fn last_cycle_kick_just_saves_it() {
        let mut w = Watchdog::new(10, 0, 7);
        let mut irqs = Vec::new();
        for _ in 0..9 {
            w.advance(1, &mut irqs);
        }
        assert_eq!(w.read(1), 1, "one cycle from biting");
        w.write(0, 0); // kick at the last possible moment
        w.advance(1, &mut irqs);
        assert_eq!(w.bites(), 0);
        assert_eq!(w.read(1), 9);
    }
}
