//! Internal (on-chip) data memory.
//!
//! DISC1 *"contains 2 Kbyte of internal memory in addition to the stack
//! window registers. The internal memory is shared between all ISs"*.
//! Accesses complete in a single cycle and never touch the asynchronous
//! bus. Because instruction execution is serialized through the EX stage,
//! read-modify-write instructions (`tset`) are atomic with respect to all
//! streams, which is what makes the memory usable for semaphores.

/// Word-addressed internal memory shared between all instruction streams.
#[derive(Debug, Clone)]
pub struct InternalMemory {
    words: Vec<u16>,
    reads: u64,
    writes: u64,
}

impl InternalMemory {
    /// Creates a zeroed memory of `words` 16-bit words.
    pub fn new(words: usize) -> Self {
        InternalMemory {
            words: vec![0; words],
            reads: 0,
            writes: 0,
        }
    }

    /// Size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// `true` when `addr` decodes to this memory (addresses below the
    /// internal size; all others go to the asynchronous bus).
    #[inline]
    pub fn contains(&self, addr: u16) -> bool {
        (addr as usize) < self.words.len()
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory; callers decode with
    /// [`contains`](Self::contains) first.
    pub fn read(&self, addr: u16) -> u16 {
        self.words[addr as usize]
    }

    /// Reads and counts the access (simulator internal path).
    pub(crate) fn read_counted(&mut self, addr: u16) -> u16 {
        self.reads += 1;
        self.words[addr as usize]
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory.
    pub fn write(&mut self, addr: u16, value: u16) {
        self.writes += 1;
        self.words[addr as usize] = value;
    }

    /// Atomic test-and-set: returns the previous value and writes
    /// `0xffff`.
    pub fn test_and_set(&mut self, addr: u16) -> u16 {
        self.reads += 1;
        self.writes += 1;
        let old = self.words[addr as usize];
        self.words[addr as usize] = 0xffff;
        old
    }

    /// Number of reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Serializes the memory contents and access counters
    /// (`disc-snap/v2` component).
    pub(crate) fn save_into(&self, w: &mut disc_snap::SnapWriter) {
        w.put_usize(self.words.len());
        for &word in &self.words {
            w.put_u16(word);
        }
        w.put_u64(self.reads);
        w.put_u64(self.writes);
    }

    /// Restores state written by [`save_into`](Self::save_into) onto a
    /// memory of the same size.
    pub(crate) fn restore_from(
        &mut self,
        r: &mut disc_snap::SnapReader<'_>,
    ) -> Result<(), disc_snap::SnapError> {
        let len = r.get_usize()?;
        if len != self.words.len() {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "internal memory size mismatch: machine {}, snapshot {len}",
                self.words.len()
            )));
        }
        for word in self.words.iter_mut() {
            *word = r.get_u16()?;
        }
        self.reads = r.get_u64()?;
        self.writes = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = InternalMemory::new(64);
        m.write(10, 0xbeef);
        assert_eq!(m.read(10), 0xbeef);
        assert_eq!(m.read(11), 0);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn address_decode() {
        let m = InternalMemory::new(1024);
        assert!(m.contains(0));
        assert!(m.contains(1023));
        assert!(!m.contains(1024));
        assert!(!m.contains(0xffff));
    }

    #[test]
    fn test_and_set_is_read_modify_write() {
        let mut m = InternalMemory::new(8);
        assert_eq!(m.test_and_set(3), 0);
        assert_eq!(m.read(3), 0xffff);
        assert_eq!(m.test_and_set(3), 0xffff);
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        let m = InternalMemory::new(8);
        let _ = m.read(8);
    }
}
