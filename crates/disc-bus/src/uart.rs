//! Byte-stream serial port with RX interrupts.

use std::collections::VecDeque;

use disc_core::IrqRequest;

use crate::bus::{count_down, due, Peripheral};

/// Register map of the [`Uart`].
///
/// | offset | register | access |
/// |--------|----------|--------|
/// | 0 | `DATA` — read pops RX, write pushes TX | r/w |
/// | 1 | `STATUS` — bit0 rx-ready, bit1 tx-idle | r |
#[derive(Debug, Clone)]
pub struct Uart {
    rx: VecDeque<u16>,
    rx_capacity: usize,
    rx_overflows: u64,
    tx: Vec<u16>,
    /// Cycles per word on the wire (models baud rate as access latency).
    word_cycles: u32,
    irq: Option<(usize, u8)>,
    /// Cycles between host-injected RX words, if streaming.
    rx_feed: Option<(u32, u32, Box<[u16]>, usize)>,
}

impl Uart {
    /// Number of mapped registers.
    pub const REGS: u16 = 2;

    /// Default RX FIFO depth, like a generously buffered 16550.
    pub const DEFAULT_RX_CAPACITY: usize = 64;

    /// Creates a UART whose word transfer takes `word_cycles` cycles.
    pub fn new(word_cycles: u32) -> Self {
        Uart {
            rx: VecDeque::new(),
            rx_capacity: Self::DEFAULT_RX_CAPACITY,
            rx_overflows: 0,
            tx: Vec::new(),
            word_cycles,
            irq: None,
            rx_feed: None,
        }
    }

    /// Bounds the RX FIFO at `capacity` words. A real UART has finite
    /// buffering: words arriving while the FIFO is full are *lost* (and
    /// counted in [`rx_overflows`](Self::rx_overflows)), which is exactly
    /// what happens to firmware that services RX interrupts too slowly.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_rx_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "rx capacity must be nonzero");
        self.rx_capacity = capacity;
        self
    }

    /// Routes an RX-ready interrupt to (`stream`, `bit`).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn with_irq(mut self, stream: usize, bit: u8) -> Self {
        assert!(bit < 8);
        self.irq = Some((stream, bit));
        self
    }

    /// Streams `words` into RX, one every `interval` cycles, starting
    /// `interval` cycles from now.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn feed(&mut self, interval: u32, words: impl Into<Box<[u16]>>) {
        assert!(interval > 0, "feed interval must be nonzero");
        self.rx_feed = Some((interval, interval, words.into(), 0));
    }

    /// Pushes one word into RX immediately. A host push raises no
    /// interrupt: only a word arriving from a [`feed`](Self::feed) does.
    /// Returns `false` — dropping the word and counting an overflow —
    /// when the FIFO is full.
    pub fn push_rx(&mut self, word: u16) -> bool {
        if self.rx.len() >= self.rx_capacity {
            self.rx_overflows += 1;
            return false;
        }
        self.rx.push_back(word);
        true
    }

    /// Words the program has transmitted.
    pub fn transmitted(&self) -> &[u16] {
        &self.tx
    }

    /// Words waiting in RX.
    pub fn rx_pending(&self) -> usize {
        self.rx.len()
    }

    /// RX words lost to a full FIFO.
    pub fn rx_overflows(&self) -> u64 {
        self.rx_overflows
    }
}

impl Peripheral for Uart {
    fn latency(&self, offset: u16, write: bool) -> u32 {
        match (offset, write) {
            (0, _) => self.word_cycles,
            _ => 1,
        }
    }

    fn read(&mut self, offset: u16) -> u16 {
        match offset {
            0 => self.rx.pop_front().unwrap_or(0),
            1 => {
                let rx_ready = !self.rx.is_empty() as u16;
                rx_ready | 0b10 // tx modeled always idle after latency
            }
            _ => 0xffff,
        }
    }

    fn write(&mut self, offset: u16, value: u16) {
        if offset == 0 {
            self.tx.push(value);
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Only an active RX feed makes future cycles observable.
        if let Some((_, countdown, words, idx)) = &self.rx_feed {
            if *idx < words.len() {
                return Some(due(now, *countdown));
            }
        }
        None
    }

    fn advance(&mut self, cycles: u64, irqs: &mut Vec<IrqRequest>) {
        let mut arrived = None;
        if let Some((interval, countdown, words, idx)) = &mut self.rx_feed {
            if *idx < words.len() && count_down(countdown, cycles) {
                arrived = Some(words[*idx]);
                *idx += 1;
                *countdown = *interval;
            }
        }
        // A word lost to a full FIFO never becomes rx-ready, so it raises
        // no interrupt either — the overflow counter is the only evidence.
        if let Some(word) = arrived {
            if self.push_rx(word) {
                if let Some((stream, bit)) = self.irq {
                    irqs.push(IrqRequest { stream, bit });
                }
            }
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("uart");
        w.put_u32(self.word_cycles);
        w.put_usize(self.rx_capacity);
        w.put_usize(self.rx.len());
        for &word in &self.rx {
            w.put_u16(word);
        }
        w.put_u64(self.rx_overflows);
        w.put_usize(self.tx.len());
        for &word in &self.tx {
            w.put_u16(word);
        }
        match &self.rx_feed {
            None => w.put_u8(0),
            Some((interval, countdown, words, idx)) => {
                w.put_u8(1);
                w.put_u32(*interval);
                w.put_u32(*countdown);
                w.put_usize(words.len());
                for &word in words.iter() {
                    w.put_u16(word);
                }
                w.put_usize(*idx);
            }
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("uart")?;
        let word_cycles = r.get_u32()?;
        let rx_capacity = r.get_usize()?;
        if word_cycles != self.word_cycles || rx_capacity != self.rx_capacity {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "uart construction mismatch: device ({}, {}), \
                 snapshot ({word_cycles}, {rx_capacity})",
                self.word_cycles, self.rx_capacity
            )));
        }
        let n = r.get_usize()?;
        if n > rx_capacity {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "uart RX occupancy {n} exceeds capacity {rx_capacity}"
            )));
        }
        self.rx.clear();
        for _ in 0..n {
            self.rx.push_back(r.get_u16()?);
        }
        self.rx_overflows = r.get_u64()?;
        let n = r.get_usize()?;
        self.tx.clear();
        for _ in 0..n {
            self.tx.push(r.get_u16()?);
        }
        self.rx_feed = match r.get_u8()? {
            0 => None,
            1 => {
                let interval = r.get_u32()?;
                let countdown = r.get_u32()?;
                let n = r.get_usize()?;
                let mut words = Vec::with_capacity(n);
                for _ in 0..n {
                    words.push(r.get_u16()?);
                }
                let idx = r.get_usize()?;
                if idx > words.len() {
                    return Err(disc_snap::SnapError::Corrupt(format!(
                        "uart feed index {idx} past {} words",
                        words.len()
                    )));
                }
                Some((interval, countdown, words.into_boxed_slice(), idx))
            }
            t => {
                return Err(disc_snap::SnapError::Corrupt(format!(
                    "bad uart feed tag {t}"
                )))
            }
        };
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_records_words() {
        let mut u = Uart::new(8);
        u.write(0, 0x41);
        u.write(0, 0x42);
        assert_eq!(u.transmitted(), &[0x41, 0x42]);
        assert_eq!(u.latency(0, true), 8);
    }

    #[test]
    fn rx_pops_in_order() {
        let mut u = Uart::new(1);
        u.push_rx(1);
        u.push_rx(2);
        assert_eq!(u.read(1) & 1, 1, "rx-ready");
        assert_eq!(u.read(0), 1);
        assert_eq!(u.read(0), 2);
        assert_eq!(u.read(0), 0, "empty RX reads 0");
        assert_eq!(u.read(1) & 1, 0);
    }

    #[test]
    fn feed_streams_words_with_interrupts() {
        let mut u = Uart::new(1).with_irq(1, 3);
        u.feed(4, vec![10, 20]);
        let mut irqs = Vec::new();
        for _ in 0..20 {
            u.advance(1, &mut irqs);
        }
        assert_eq!(irqs.len(), 2);
        assert_eq!(u.rx_pending(), 2);
        assert_eq!(u.read(0), 10);
    }

    #[test]
    fn host_push_raises_no_interrupt() {
        let mut u = Uart::new(1).with_irq(0, 3);
        u.feed(50, vec![9]);
        let due = u.next_event(0);
        assert!(u.push_rx(7));
        assert_eq!(u.next_event(0), due, "a push schedules nothing");
        let mut irqs = Vec::new();
        u.advance(10, &mut irqs);
        for _ in 0..5 {
            u.advance(1, &mut irqs);
        }
        assert!(irqs.is_empty(), "pushed word interrupted: {irqs:?}");
        assert_eq!(u.next_event(15), due, "the feed's word is still due");
        assert_eq!(u.rx_pending(), 1);
    }

    #[test]
    fn full_fifo_drops_and_counts() {
        let mut u = Uart::new(1).with_rx_capacity(2);
        assert!(u.push_rx(1));
        assert!(u.push_rx(2));
        assert!(!u.push_rx(3), "third word bounces");
        assert_eq!(u.rx_overflows(), 1);
        assert_eq!(u.rx_pending(), 2);
        assert_eq!(u.read(0), 1);
        assert!(u.push_rx(4), "draining one makes room again");
        assert_eq!(u.read(0), 2);
        assert_eq!(u.read(0), 4, "dropped word 3 is gone for good");
    }

    #[test]
    fn overflowing_feed_raises_no_interrupts_for_lost_words() {
        let mut u = Uart::new(1).with_irq(0, 3).with_rx_capacity(3);
        u.feed(2, (0..8).collect::<Vec<u16>>());
        let mut irqs = Vec::new();
        for _ in 0..20 {
            u.advance(1, &mut irqs);
        }
        assert_eq!(u.rx_pending(), 3, "FIFO capped at capacity");
        assert_eq!(u.rx_overflows(), 5);
        assert_eq!(irqs.len(), 3, "only accepted words interrupt");
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = Uart::new(1).with_rx_capacity(0);
    }
}
