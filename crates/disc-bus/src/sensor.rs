//! Slow sensor input port.
//!
//! Models the paper's central I/O problem: *"Often the data required is
//! generated by a sensor in a time scale much slower than the operation of
//! the processor. On the other hand, keeping the data current is much
//! desired which prevents caching or queueing earlier data values."*
//!
//! The port produces a fresh sample every `sample_period` cycles (reads
//! always return the *current* sample — no queueing), charges a long
//! conversion latency per read, and optionally raises a data-ready
//! interrupt on each new sample.

use disc_core::IrqRequest;

use crate::bus::{count_down, due, Peripheral};

/// Register map: offset 0 = `DATA` (current sample), offset 1 = `SEQ`
/// (sample sequence number).
pub struct SensorPort {
    sample_period: u32,
    countdown: u32,
    read_latency: u32,
    value: u16,
    seq: u16,
    generator: Box<dyn FnMut(u16) -> u16 + Send>,
    irq: Option<(usize, u8)>,
    reads: u64,
}

impl std::fmt::Debug for SensorPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensorPort")
            .field("sample_period", &self.sample_period)
            .field("value", &self.value)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl SensorPort {
    /// Number of mapped registers.
    pub const REGS: u16 = 2;

    /// Creates a sensor producing `generator(seq)` every `sample_period`
    /// cycles with the given per-read conversion latency.
    ///
    /// # Panics
    ///
    /// Panics if `sample_period` is zero.
    pub fn new(
        sample_period: u32,
        read_latency: u32,
        generator: impl FnMut(u16) -> u16 + Send + 'static,
    ) -> Self {
        assert!(sample_period > 0, "sample period must be nonzero");
        SensorPort {
            sample_period,
            countdown: sample_period,
            read_latency,
            value: 0,
            seq: 0,
            generator: Box::new(generator),
            irq: None,
            reads: 0,
        }
    }

    /// A triangle-wave test sensor with amplitude `amp`.
    pub fn triangle(sample_period: u32, read_latency: u32, amp: u16) -> Self {
        Self::new(sample_period, read_latency, move |seq| {
            let amp = amp.max(1);
            let phase = seq % (2 * amp);
            if phase < amp {
                phase
            } else {
                2 * amp - phase
            }
        })
    }

    /// Routes a data-ready interrupt to (`stream`, `bit`).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn with_irq(mut self, stream: usize, bit: u8) -> Self {
        assert!(bit < 8);
        self.irq = Some((stream, bit));
        self
    }

    /// Current sample value.
    pub fn value(&self) -> u16 {
        self.value
    }

    /// Samples produced so far.
    pub fn samples(&self) -> u16 {
        self.seq
    }

    /// Reads performed through the bus.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

impl Peripheral for SensorPort {
    fn latency(&self, _offset: u16, _write: bool) -> u32 {
        self.read_latency
    }

    fn read(&mut self, offset: u16) -> u16 {
        self.reads += 1;
        match offset {
            0 => self.value,
            1 => self.seq,
            _ => 0xffff,
        }
    }

    fn write(&mut self, _offset: u16, _value: u16) {
        // Sensor registers are read-only.
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Sampling mutates DATA/SEQ even with no interrupt routed, so the
        // next sample always bounds a skip.
        Some(due(now, self.countdown))
    }

    fn advance(&mut self, cycles: u64, irqs: &mut Vec<IrqRequest>) {
        if count_down(&mut self.countdown, cycles) {
            self.countdown = self.sample_period;
            self.seq = self.seq.wrapping_add(1);
            self.value = (self.generator)(self.seq);
            if let Some((stream, bit)) = self.irq {
                irqs.push(IrqRequest { stream, bit });
            }
        }
    }

    // The generator closure itself cannot round-trip through bytes;
    // serializing DATA/SEQ alongside the sampling countdown keeps restore
    // exact for any generator whose output depends only on `seq` (all the
    // built-ins). A generator carrying hidden mutable state beyond `seq`
    // is the host's responsibility to reconstruct.
    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("sensor");
        w.put_u32(self.sample_period);
        w.put_u32(self.countdown);
        w.put_u16(self.value);
        w.put_u16(self.seq);
        w.put_u64(self.reads);
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("sensor")?;
        let period = r.get_u32()?;
        if period != self.sample_period {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "sensor sample period mismatch: device {}, snapshot {period}",
                self.sample_period
            )));
        }
        self.countdown = r.get_u32()?;
        self.value = r.get_u16()?;
        self.seq = r.get_u16()?;
        self.reads = r.get_u64()?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_update_on_period() {
        let mut s = SensorPort::new(10, 30, |seq| seq * 2);
        let mut irqs = Vec::new();
        for _ in 0..25 {
            s.advance(1, &mut irqs);
        }
        assert_eq!(s.samples(), 2);
        assert_eq!(s.read(0), 4);
        assert_eq!(s.read(1), 2);
        assert!(irqs.is_empty(), "no irq configured");
    }

    #[test]
    fn data_ready_interrupts() {
        let mut s = SensorPort::new(5, 30, |s| s).with_irq(3, 4);
        let mut irqs = Vec::new();
        for _ in 0..12 {
            s.advance(1, &mut irqs);
        }
        assert_eq!(irqs.len(), 2);
        assert_eq!(irqs[0], IrqRequest { stream: 3, bit: 4 });
    }

    #[test]
    fn triangle_wave_shape() {
        let mut s = SensorPort::triangle(1, 0, 3);
        let mut irqs = Vec::new();
        let mut seen = Vec::new();
        for _ in 0..12 {
            s.advance(1, &mut irqs);
            seen.push(s.value());
        }
        assert_eq!(seen[..6], [1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn writes_ignored() {
        let mut s = SensorPort::new(1, 0, |_| 7);
        s.write(0, 99);
        let mut irqs = Vec::new();
        s.advance(1, &mut irqs);
        assert_eq!(s.read(0), 7);
    }
}
