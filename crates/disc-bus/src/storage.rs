//! Block-storage device with command/status/data registers and per-op
//! latency.
//!
//! Models the slowest peripheral class of the paper's I/O taxonomy: an
//! operation (read or write of one block) takes hundreds of cycles, so a
//! stream that polls `STATUS` busy-waits while its pipeline slots flow to
//! the other streams; routing the completion interrupt instead makes the
//! device a natural fit for DISC's stream-per-interrupt model.

use disc_core::IrqRequest;

use crate::bus::{count_down, due, Peripheral};

/// Register map of the [`BlockStorage`] device.
///
/// | offset | register | access |
/// |--------|----------|--------|
/// | 0 | `CMD` — 1 = read block `LBA` into buffer, 2 = write buffer to block `LBA` | w |
/// | 1 | `STATUS` — bit0 busy, bit1 error (bad LBA or cmd while busy) | r |
/// | 2 | `LBA` — target block number | r/w |
/// | 3 | `PTR` — buffer word index, auto-incremented by `DATA` access | r/w |
/// | 4 | `DATA` — buffer word at `PTR` | r/w |
/// | 5 | `OPS` — completed operations | r |
#[derive(Debug, Clone)]
pub struct BlockStorage {
    blocks: u16,
    block_words: u16,
    read_latency: u32,
    write_latency: u32,
    media: Vec<u16>,
    buffer: Vec<u16>,
    lba: u16,
    ptr: u16,
    status: u16,
    /// Command being serviced (1 read, 2 write) while busy.
    op: u16,
    countdown: u32,
    ops: u64,
    irq: Option<(usize, u8)>,
}

impl BlockStorage {
    /// Number of mapped registers.
    pub const REGS: u16 = 6;

    const STATUS_BUSY: u16 = 1;
    const STATUS_ERROR: u16 = 2;

    /// A zero-filled device of `blocks` blocks of `block_words` words,
    /// with the given per-operation latencies.
    ///
    /// # Panics
    ///
    /// Panics if `blocks`, `block_words`, or either latency is zero.
    pub fn new(blocks: u16, block_words: u16, read_latency: u32, write_latency: u32) -> Self {
        assert!(blocks > 0, "storage must have at least one block");
        assert!(block_words > 0, "storage blocks must be non-empty");
        assert!(
            read_latency > 0 && write_latency > 0,
            "storage op latency must be nonzero"
        );
        BlockStorage {
            blocks,
            block_words,
            read_latency,
            write_latency,
            media: vec![0; blocks as usize * block_words as usize],
            buffer: vec![0; block_words as usize],
            lba: 0,
            ptr: 0,
            status: 0,
            op: 0,
            countdown: 0,
            ops: 0,
            irq: None,
        }
    }

    /// Routes an operation-complete interrupt to (`stream`, `bit`).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn with_irq(mut self, stream: usize, bit: u8) -> Self {
        assert!(bit < 8, "interrupt bit out of range");
        self.irq = Some((stream, bit));
        self
    }

    /// `true` while an operation is in flight.
    pub fn busy(&self) -> bool {
        self.status & Self::STATUS_BUSY != 0
    }

    /// Completed operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Direct media access for test setup/inspection.
    ///
    /// # Panics
    ///
    /// Panics if `block >= blocks` or `word >= block_words`.
    pub fn peek(&self, block: u16, word: u16) -> u16 {
        assert!(block < self.blocks && word < self.block_words);
        self.media[block as usize * self.block_words as usize + word as usize]
    }

    /// Direct media mutation for test setup.
    ///
    /// # Panics
    ///
    /// Panics if `block >= blocks` or `word >= block_words`.
    pub fn poke(&mut self, block: u16, word: u16, value: u16) {
        assert!(block < self.blocks && word < self.block_words);
        self.media[block as usize * self.block_words as usize + word as usize] = value;
    }

    fn start(&mut self, cmd: u16) {
        if self.busy() {
            self.status |= Self::STATUS_ERROR;
            return;
        }
        if self.lba >= self.blocks || !(cmd == 1 || cmd == 2) {
            self.status |= Self::STATUS_ERROR;
            return;
        }
        self.status = Self::STATUS_BUSY;
        self.op = cmd;
        self.countdown = if cmd == 1 {
            self.read_latency
        } else {
            self.write_latency
        };
    }
}

impl Peripheral for BlockStorage {
    fn latency(&self, _offset: u16, _write: bool) -> u32 {
        // Register access is fast; the block-op latency is modeled by the
        // busy countdown, completion being signaled via STATUS/irq.
        1
    }

    fn read(&mut self, offset: u16) -> u16 {
        match offset {
            1 => self.status,
            2 => self.lba,
            3 => self.ptr,
            4 => {
                let v = self
                    .buffer
                    .get(self.ptr as usize)
                    .copied()
                    .unwrap_or(0xffff);
                self.ptr = (self.ptr + 1) % self.block_words;
                v
            }
            5 => self.ops as u16,
            _ => 0xffff,
        }
    }

    fn write(&mut self, offset: u16, value: u16) {
        match offset {
            0 => self.start(value),
            1 => self.status &= !Self::STATUS_ERROR, // write-to-clear
            // The in-flight op completes against the LBA it started
            // with; retargeting mid-op is ignored.
            2 if !self.busy() => self.lba = value,
            3 => self.ptr = value % self.block_words,
            4 => {
                self.buffer[self.ptr as usize] = value;
                self.ptr = (self.ptr + 1) % self.block_words;
            }
            _ => {}
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.busy().then(|| due(now, self.countdown))
    }

    fn advance(&mut self, cycles: u64, irqs: &mut Vec<IrqRequest>) {
        if !self.busy() {
            return;
        }
        if count_down(&mut self.countdown, cycles) {
            let base = self.lba as usize * self.block_words as usize;
            let words = self.block_words as usize;
            if self.op == 1 {
                self.buffer.copy_from_slice(&self.media[base..base + words]);
            } else {
                self.media[base..base + words].copy_from_slice(&self.buffer);
            }
            self.status &= !Self::STATUS_BUSY;
            self.op = 0;
            self.ops += 1;
            if let Some((stream, bit)) = self.irq {
                irqs.push(IrqRequest { stream, bit });
            }
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("block-storage");
        w.put_u16(self.blocks);
        w.put_u16(self.block_words);
        w.put_u32(self.read_latency);
        w.put_u32(self.write_latency);
        for &word in &self.media {
            w.put_u16(word);
        }
        for &word in &self.buffer {
            w.put_u16(word);
        }
        w.put_u16(self.lba);
        w.put_u16(self.ptr);
        w.put_u16(self.status);
        w.put_u16(self.op);
        w.put_u32(self.countdown);
        w.put_u64(self.ops);
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("block-storage")?;
        let blocks = r.get_u16()?;
        let block_words = r.get_u16()?;
        let read_latency = r.get_u32()?;
        let write_latency = r.get_u32()?;
        if blocks != self.blocks
            || block_words != self.block_words
            || read_latency != self.read_latency
            || write_latency != self.write_latency
        {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "storage geometry mismatch: device {}x{} r{}/w{}, \
                 snapshot {blocks}x{block_words} r{read_latency}/w{write_latency}",
                self.blocks, self.block_words, self.read_latency, self.write_latency
            )));
        }
        for word in &mut self.media {
            *word = r.get_u16()?;
        }
        for word in &mut self.buffer {
            *word = r.get_u16()?;
        }
        self.lba = r.get_u16()?;
        self.ptr = r.get_u16()?;
        self.status = r.get_u16()?;
        self.op = r.get_u16()?;
        self.countdown = r.get_u32()?;
        self.ops = r.get_u64()?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: &mut BlockStorage, cycles: u32) -> Vec<IrqRequest> {
        let mut irqs = Vec::new();
        for _ in 0..cycles {
            s.advance(1, &mut irqs);
        }
        irqs
    }

    #[test]
    fn read_block_fills_buffer_after_latency() {
        let mut s = BlockStorage::new(4, 4, 10, 20);
        s.poke(2, 0, 0xaa);
        s.poke(2, 3, 0xbb);
        s.write(2, 2); // LBA
        s.write(0, 1); // CMD read
        assert!(s.busy());
        assert!(run(&mut s, 9).is_empty());
        assert!(s.busy(), "still converting");
        run(&mut s, 1);
        assert!(!s.busy());
        s.write(3, 0); // PTR
        assert_eq!(s.read(4), 0xaa);
        assert_eq!(s.read(3), 1, "DATA auto-increments PTR");
        s.write(3, 3);
        assert_eq!(s.read(4), 0xbb);
        assert_eq!(s.ops(), 1);
    }

    #[test]
    fn write_block_commits_buffer() {
        let mut s = BlockStorage::new(2, 3, 5, 7).with_irq(1, 6);
        for (i, v) in [10u16, 20, 30].iter().enumerate() {
            s.write(3, i as u16);
            s.write(4, *v);
        }
        s.write(2, 1);
        s.write(0, 2);
        let irqs = run(&mut s, 7);
        assert_eq!(irqs, [IrqRequest { stream: 1, bit: 6 }]);
        assert_eq!(s.peek(1, 0), 10);
        assert_eq!(s.peek(1, 2), 30);
    }

    #[test]
    fn bad_lba_and_busy_commands_set_error() {
        let mut s = BlockStorage::new(2, 2, 5, 5);
        s.write(2, 9);
        s.write(0, 1);
        assert_eq!(s.read(1) & 2, 2, "bad LBA flags error");
        s.write(1, 0); // clear
        assert_eq!(s.read(1), 0);
        s.write(2, 0);
        s.write(0, 1);
        s.write(0, 1); // command while busy
        assert_eq!(s.read(1) & 2, 2);
    }

    #[test]
    fn next_event_bounds_completion() {
        let mut s = BlockStorage::new(1, 1, 8, 8);
        assert_eq!(s.next_event(50), None);
        s.write(0, 1);
        assert_eq!(s.next_event(50), Some(57));
        s.advance(5, &mut Vec::new());
        assert_eq!(s.next_event(55), Some(57));
    }

    #[test]
    fn state_roundtrips_mid_op() {
        let mut s = BlockStorage::new(3, 4, 9, 9).with_irq(0, 3);
        s.poke(0, 1, 77);
        s.write(0, 1);
        run(&mut s, 4);
        let state = s.save_state();
        let mut fresh = BlockStorage::new(3, 4, 9, 9).with_irq(0, 3);
        fresh.restore_state(&state).expect("restore");
        assert_eq!(fresh.save_state(), state);
        let a = run(&mut s, 10);
        let b = run(&mut fresh, 10);
        assert_eq!(a, b);
        assert_eq!(fresh.peek(0, 1), 77);
        let mut other = BlockStorage::new(3, 4, 9, 10);
        assert!(other.restore_state(&state).is_err());
    }
}
