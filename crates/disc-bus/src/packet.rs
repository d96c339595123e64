//! Packet-arrival port: seeded bursty traffic on a bounded RX FIFO.
//!
//! Where the [`SensorPort`](crate::SensorPort) models *periodic* slow
//! input, the packet port models *bursty* input: every `interval` cycles
//! a Poisson-distributed burst of words (drawn from a seeded
//! [`disc_stoch::Sampler`]) arrives at once. A bounded FIFO plus a drop
//! counter make overload visible, and the arrival interrupt lets a
//! dedicated DISC stream drain bursts without disturbing the compute
//! streams — the paper's core pitch applied to network-ish traffic.
//!
//! The sampler state rides along in snapshots via
//! [`ReplayableRng`](disc_snap::ReplayableRng), so a restored machine
//! sees the same future arrivals as the original.

use std::collections::VecDeque;

use disc_core::IrqRequest;
use disc_snap::ReplayableRng;
use disc_stoch::Sampler;

use crate::bus::{count_down, due, Peripheral};

/// Register map of the [`PacketPort`].
///
/// | offset | register | access |
/// |--------|----------|--------|
/// | 0 | `DATA` — pops the oldest queued word (`0xffff` when empty) | r |
/// | 1 | `STATUS` — words currently queued | r |
/// | 2 | `DROPS` — words dropped on a full FIFO | r |
/// | 3 | `SEQ` — total words arrived (dropped ones included) | r |
pub struct PacketPort {
    seed: u64,
    interval: u32,
    mean_burst: f64,
    capacity: usize,
    countdown: u32,
    sampler: Sampler,
    fifo: VecDeque<u16>,
    drops: u64,
    seq: u64,
    irq: Option<(usize, u8)>,
    read_latency: u32,
}

impl std::fmt::Debug for PacketPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketPort")
            .field("interval", &self.interval)
            .field("mean_burst", &self.mean_burst)
            .field("queued", &self.fifo.len())
            .field("drops", &self.drops)
            .finish_non_exhaustive()
    }
}

impl PacketPort {
    /// Number of mapped registers.
    pub const REGS: u16 = 4;

    /// Default FIFO capacity in words.
    pub const DEFAULT_CAPACITY: usize = 16;

    /// A port whose bursts of `Poisson(mean_burst)` words arrive every
    /// `interval` cycles, drawn from a sampler seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `mean_burst` is not a finite
    /// non-negative number.
    pub fn new(seed: u64, interval: u32, mean_burst: f64) -> Self {
        assert!(interval > 0, "packet interval must be nonzero");
        assert!(
            mean_burst.is_finite() && mean_burst >= 0.0,
            "invalid packet burst mean"
        );
        PacketPort {
            seed,
            interval,
            mean_burst,
            capacity: Self::DEFAULT_CAPACITY,
            countdown: interval,
            sampler: Sampler::new(seed),
            fifo: VecDeque::new(),
            drops: 0,
            seq: 0,
            irq: None,
            read_latency: 2,
        }
    }

    /// Sets the FIFO capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "packet fifo capacity must be nonzero");
        self.capacity = capacity;
        self
    }

    /// Routes a burst-arrival interrupt to (`stream`, `bit`).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn with_irq(mut self, stream: usize, bit: u8) -> Self {
        assert!(bit < 8, "interrupt bit out of range");
        self.irq = Some((stream, bit));
        self
    }

    /// Words currently queued.
    pub fn queued(&self) -> usize {
        self.fifo.len()
    }

    /// Words dropped against a full FIFO.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Total words arrived.
    pub fn arrived(&self) -> u64 {
        self.seq
    }
}

impl Peripheral for PacketPort {
    fn latency(&self, _offset: u16, _write: bool) -> u32 {
        self.read_latency
    }

    fn read(&mut self, offset: u16) -> u16 {
        match offset {
            0 => self.fifo.pop_front().unwrap_or(0xffff),
            1 => self.fifo.len() as u16,
            2 => self.drops as u16,
            3 => self.seq as u16,
            _ => 0xffff,
        }
    }

    fn write(&mut self, _offset: u16, _value: u16) {
        // The port is receive-only.
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Every arrival instant advances the sampler even when the drawn
        // burst is empty, so skips must never pass one.
        Some(due(now, self.countdown))
    }

    fn advance(&mut self, cycles: u64, irqs: &mut Vec<IrqRequest>) {
        if !count_down(&mut self.countdown, cycles) {
            return;
        }
        self.countdown = self.interval;
        let burst = self.sampler.poisson(self.mean_burst);
        for _ in 0..burst {
            self.seq += 1;
            let word = self.sampler.below(0x1_0000) as u16;
            if self.fifo.len() < self.capacity {
                self.fifo.push_back(word);
            } else {
                self.drops += 1;
            }
        }
        if burst > 0 {
            if let Some((stream, bit)) = self.irq {
                irqs.push(IrqRequest { stream, bit });
            }
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("packet");
        w.put_u64(self.seed);
        w.put_u32(self.interval);
        w.put_u64(self.mean_burst.to_bits());
        w.put_usize(self.capacity);
        w.put_u32(self.countdown);
        w.put_bytes(&self.sampler.rng_state());
        w.put_usize(self.fifo.len());
        for &word in &self.fifo {
            w.put_u16(word);
        }
        w.put_u64(self.drops);
        w.put_u64(self.seq);
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("packet")?;
        let seed = r.get_u64()?;
        let interval = r.get_u32()?;
        let mean = f64::from_bits(r.get_u64()?);
        let capacity = r.get_usize()?;
        if seed != self.seed
            || interval != self.interval
            || mean.to_bits() != self.mean_burst.to_bits()
            || capacity != self.capacity
        {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "packet port construction mismatch: device seed {:#x} interval {} mean {} cap {}, \
                 snapshot seed {seed:#x} interval {interval} mean {mean} cap {capacity}",
                self.seed, self.interval, self.mean_burst, self.capacity
            )));
        }
        self.countdown = r.get_u32()?;
        self.sampler.set_rng_state(r.get_bytes()?)?;
        let n = r.get_usize()?;
        self.fifo.clear();
        for _ in 0..n {
            self.fifo.push_back(r.get_u16()?);
        }
        self.drops = r.get_u64()?;
        self.seq = r.get_u64()?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p: &mut PacketPort, cycles: u32) -> Vec<IrqRequest> {
        let mut irqs = Vec::new();
        for _ in 0..cycles {
            p.advance(1, &mut irqs);
        }
        irqs
    }

    #[test]
    fn bursts_are_seed_deterministic() {
        let mut a = PacketPort::new(7, 10, 2.0);
        let mut b = PacketPort::new(7, 10, 2.0);
        run(&mut a, 200);
        run(&mut b, 200);
        assert_eq!(a.arrived(), b.arrived());
        assert_eq!(a.fifo, b.fifo);
        assert!(a.arrived() > 0, "mean 2.0 over 20 intervals produces data");
    }

    #[test]
    fn full_fifo_counts_drops() {
        let mut p = PacketPort::new(3, 1, 4.0).with_capacity(2);
        run(&mut p, 100);
        assert!(p.drops() > 0);
        assert!(p.queued() <= 2);
        assert_eq!(p.arrived(), p.drops() + p.queued() as u64);
    }

    #[test]
    fn data_register_drains_in_arrival_order() {
        let mut p = PacketPort::new(11, 5, 3.0);
        run(&mut p, 40);
        let n = p.queued();
        assert!(n >= 2, "seed 11 queues data in 8 intervals");
        let first = p.fifo[0];
        assert_eq!(p.read(0), first);
        assert_eq!(p.queued(), n - 1);
        let mut empty = PacketPort::new(11, 5, 0.0);
        assert_eq!(empty.read(0), 0xffff);
    }

    #[test]
    fn irq_fires_only_on_nonempty_bursts() {
        let mut quiet = PacketPort::new(1, 4, 0.0).with_irq(2, 4);
        assert!(run(&mut quiet, 100).is_empty());
        let mut busy = PacketPort::new(1, 4, 3.0).with_irq(2, 4);
        let irqs = run(&mut busy, 100);
        assert!(!irqs.is_empty());
        assert!(irqs.iter().all(|i| i.stream == 2 && i.bit == 4));
    }

    #[test]
    fn state_roundtrip_preserves_future_arrivals() {
        let mut p = PacketPort::new(42, 7, 1.5).with_irq(0, 2).with_capacity(8);
        run(&mut p, 95);
        let state = p.save_state();
        let mut fresh = PacketPort::new(42, 7, 1.5).with_irq(0, 2).with_capacity(8);
        fresh.restore_state(&state).expect("restore");
        assert_eq!(fresh.save_state(), state);
        let a = run(&mut p, 300);
        let b = run(&mut fresh, 300);
        assert_eq!(a, b, "post-restore arrival timelines diverge");
        assert_eq!(p.arrived(), fresh.arrived());
        assert_eq!(p.fifo, fresh.fifo);
        let mut other = PacketPort::new(43, 7, 1.5);
        assert!(other.restore_state(&state).is_err());
    }

    #[test]
    fn next_event_is_always_bounded() {
        let p = PacketPort::new(0, 25, 0.0);
        assert_eq!(p.next_event(100), Some(124));
    }
}
