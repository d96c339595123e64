//! The Asynchronous Bus Interface (§3.6.1 of the paper).
//!
//! *"On a load instruction, the effective address of the external request
//! is calculated. It is then loaded into the Asynchronous Bus Interface
//! (ABI), with the address of the destination register. The IS requesting
//! the read cycle is sent into a wait state and the ABI initiates the read
//! cycle. … Once the read is completed the ABI stores the data into the
//! destination register and re-activates all waiting ISs. This is done
//! without affecting the running instruction streams."*
//!
//! The ABI supports one outstanding transaction; a stream that finds the
//! bus busy has its access cancelled and retries once the bus frees.

use disc_snap::{SnapError, SnapReader, SnapWriter};

/// Where a completed read delivers its data.
///
/// Window destinations are captured as *logical stack slots* at issue time
/// so the data lands in the right register even if the stream's window has
/// moved while the access was in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegTarget {
    /// A logical slot in the issuing stream's window stack.
    Window(usize),
    /// A shared global register.
    Global(u8),
    /// The stream's stack pointer.
    Sp,
    /// The stream's status register.
    Sr,
    /// The stream's interrupt request register.
    Ir,
    /// The stream's interrupt mask register.
    Mr,
}

/// The kind of bus operation in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOp {
    /// Read `addr`, deliver to the captured destination.
    Read {
        /// Destination register of the issuing stream.
        dest: RegTarget,
    },
    /// Write `value` to `addr`.
    Write {
        /// Value to store.
        value: u16,
    },
    /// Atomic read-modify-write: deliver the old value to `dest`, store
    /// `0xffff`.
    TestAndSet {
        /// Destination register receiving the previous value.
        dest: RegTarget,
    },
}

/// An outstanding external bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Stream that issued the access and is waiting for it.
    pub stream: usize,
    /// External data address.
    pub addr: u16,
    /// Operation being performed.
    pub op: BusOp,
    /// Cycles remaining until completion.
    pub remaining: u32,
}

/// Error returned by [`Abi::start`] when a transaction is already
/// outstanding.
///
/// The machine checks [`Abi::busy`] before issuing, so a rejected start is
/// a scheduler bug — but it must not abort the whole simulation, so the
/// condition is typed instead of panicking. The rejected transaction is
/// handed back so the caller can cancel the access cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbiBusy {
    /// The transaction that could not start.
    pub rejected: Transaction,
}

impl std::fmt::Display for AbiBusy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ABI already busy: stream {} access to {:#06x} rejected",
            self.rejected.stream, self.rejected.addr
        )
    }
}

impl std::error::Error for AbiBusy {}

/// Asynchronous bus interface state.
#[derive(Debug, Clone, Default)]
pub struct Abi {
    current: Option<Transaction>,
    /// Cycles the current transaction has been outstanding.
    elapsed: u64,
    busy_cycles: u64,
    transactions: u64,
    rejections: u64,
    aborts: u64,
}

impl Abi {
    /// Creates an idle ABI.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` while a transaction is outstanding.
    pub fn busy(&self) -> bool {
        self.current.is_some()
    }

    /// The outstanding transaction, if any.
    pub fn current(&self) -> Option<&Transaction> {
        self.current.as_ref()
    }

    /// Starts a transaction.
    ///
    /// # Errors
    ///
    /// Returns [`AbiBusy`] (carrying `txn` back) when a transaction is
    /// already outstanding. Callers normally check [`busy`](Self::busy)
    /// first and cancel the access instead (counting it via
    /// [`reject`](Self::reject)); the typed error keeps a scheduler bug
    /// from aborting the whole simulation.
    pub fn start(&mut self, txn: Transaction) -> Result<(), AbiBusy> {
        if self.current.is_some() {
            return Err(AbiBusy { rejected: txn });
        }
        self.transactions += 1;
        self.elapsed = 0;
        self.current = Some(txn);
        Ok(())
    }

    /// Records an access attempt that found the bus busy.
    pub fn reject(&mut self) {
        self.rejections += 1;
    }

    /// Advances one cycle. Returns the transaction when it completes this
    /// cycle (latency exhausted); the caller performs the actual transfer.
    pub fn tick(&mut self) -> Option<Transaction> {
        let txn = self.current.as_mut()?;
        self.busy_cycles += 1;
        self.elapsed += 1;
        if txn.remaining > 1 {
            txn.remaining -= 1;
            None
        } else {
            self.current.take()
        }
    }

    /// Cycles the current transaction has been outstanding (0 when idle).
    pub fn elapsed(&self) -> u64 {
        self.elapsed
    }

    /// Advances `cycles` cycles in one step, exactly equivalent to that
    /// many [`tick`](Self::tick) calls *given* the caller's guarantee that
    /// the outstanding transaction does not complete within the stretch
    /// (`cycles < remaining`). A no-op when idle or `cycles` is 0.
    ///
    /// Used by [`StepMode::EventSkip`](crate::StepMode) to fast-forward
    /// quiescent stretches without per-cycle bookkeeping.
    pub fn advance(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let Some(txn) = self.current.as_mut() else {
            return;
        };
        debug_assert!(
            cycles < u64::from(txn.remaining),
            "advance({cycles}) would complete a transaction with {} cycles left",
            txn.remaining
        );
        txn.remaining -= cycles as u32;
        self.elapsed += cycles;
        self.busy_cycles += cycles;
    }

    /// Aborts the outstanding transaction, freeing the bus. Returns the
    /// aborted transaction so the caller can identify the stream to fault;
    /// `None` when the bus was idle.
    pub fn abort(&mut self) -> Option<Transaction> {
        let txn = self.current.take();
        if txn.is_some() {
            self.aborts += 1;
            self.elapsed = 0;
        }
        txn
    }

    /// Total cycles the bus spent busy.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Total transactions started.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total accesses cancelled because the bus was busy.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Total transactions aborted (bus-fault timeouts).
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Serializes the interface state, including any in-flight
    /// transaction (`disc-snap/v2` component).
    pub(crate) fn save_into(&self, w: &mut SnapWriter) {
        match &self.current {
            None => w.put_u8(0),
            Some(txn) => {
                w.put_u8(1);
                w.put_usize(txn.stream);
                w.put_u16(txn.addr);
                match txn.op {
                    BusOp::Read { dest } => {
                        w.put_u8(1);
                        save_target(w, dest);
                    }
                    BusOp::Write { value } => {
                        w.put_u8(2);
                        w.put_u16(value);
                    }
                    BusOp::TestAndSet { dest } => {
                        w.put_u8(3);
                        save_target(w, dest);
                    }
                }
                w.put_u32(txn.remaining);
            }
        }
        w.put_u64(self.elapsed);
        w.put_u64(self.busy_cycles);
        w.put_u64(self.transactions);
        w.put_u64(self.rejections);
        w.put_u64(self.aborts);
    }

    /// Restores state written by [`save_into`](Self::save_into).
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.current = match r.get_u8()? {
            0 => None,
            1 => {
                let stream = r.get_usize()?;
                let addr = r.get_u16()?;
                let op = match r.get_u8()? {
                    1 => BusOp::Read {
                        dest: restore_target(r)?,
                    },
                    2 => BusOp::Write {
                        value: r.get_u16()?,
                    },
                    3 => BusOp::TestAndSet {
                        dest: restore_target(r)?,
                    },
                    t => return Err(SnapError::Corrupt(format!("bad bus op tag {t}"))),
                };
                let remaining = r.get_u32()?;
                if remaining == 0 {
                    return Err(SnapError::Corrupt(
                        "in-flight transaction with zero remaining cycles".into(),
                    ));
                }
                Some(Transaction {
                    stream,
                    addr,
                    op,
                    remaining,
                })
            }
            t => return Err(SnapError::Corrupt(format!("bad transaction tag {t}"))),
        };
        self.elapsed = r.get_u64()?;
        self.busy_cycles = r.get_u64()?;
        self.transactions = r.get_u64()?;
        self.rejections = r.get_u64()?;
        self.aborts = r.get_u64()?;
        Ok(())
    }
}

fn save_target(w: &mut SnapWriter, t: RegTarget) {
    match t {
        RegTarget::Window(slot) => {
            w.put_u8(1);
            w.put_usize(slot);
        }
        RegTarget::Global(i) => {
            w.put_u8(2);
            w.put_u8(i);
        }
        RegTarget::Sp => w.put_u8(3),
        RegTarget::Sr => w.put_u8(4),
        RegTarget::Ir => w.put_u8(5),
        RegTarget::Mr => w.put_u8(6),
    }
}

fn restore_target(r: &mut SnapReader<'_>) -> Result<RegTarget, SnapError> {
    Ok(match r.get_u8()? {
        1 => RegTarget::Window(r.get_usize()?),
        2 => RegTarget::Global(r.get_u8()?),
        3 => RegTarget::Sp,
        4 => RegTarget::Sr,
        5 => RegTarget::Ir,
        6 => RegTarget::Mr,
        t => return Err(SnapError::Corrupt(format!("bad register target tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_txn(latency: u32) -> Transaction {
        Transaction {
            stream: 0,
            addr: 0x8000,
            op: BusOp::Read {
                dest: RegTarget::Window(5),
            },
            remaining: latency,
        }
    }

    #[test]
    fn completes_after_latency() {
        let mut abi = Abi::new();
        abi.start(read_txn(3)).unwrap();
        assert!(abi.busy());
        assert_eq!(abi.tick(), None);
        assert_eq!(abi.tick(), None);
        assert_eq!(abi.elapsed(), 2);
        let done = abi.tick().expect("third tick completes");
        assert_eq!(done.addr, 0x8000);
        assert!(!abi.busy());
        assert_eq!(abi.busy_cycles(), 3);
        assert_eq!(abi.transactions(), 1);
    }

    #[test]
    fn one_cycle_transaction_completes_immediately() {
        let mut abi = Abi::new();
        abi.start(read_txn(1)).unwrap();
        assert!(abi.tick().is_some());
    }

    #[test]
    fn idle_tick_is_free() {
        let mut abi = Abi::new();
        assert_eq!(abi.tick(), None);
        assert_eq!(abi.busy_cycles(), 0);
        assert_eq!(abi.elapsed(), 0);
    }

    #[test]
    fn double_start_is_a_typed_rejection() {
        let mut abi = Abi::new();
        abi.start(read_txn(2)).unwrap();
        let err = abi.start(read_txn(2)).unwrap_err();
        assert_eq!(err.rejected.addr, 0x8000);
        assert!(err.to_string().contains("already busy"));
        // The original transaction is untouched.
        assert!(abi.busy());
        assert_eq!(abi.transactions(), 1);
    }

    #[test]
    fn abort_frees_the_bus_and_counts() {
        let mut abi = Abi::new();
        assert_eq!(abi.abort(), None, "idle abort is a no-op");
        assert_eq!(abi.aborts(), 0);
        abi.start(read_txn(100)).unwrap();
        abi.tick();
        let txn = abi.abort().expect("outstanding transaction returned");
        assert_eq!(txn.stream, 0);
        assert!(!abi.busy());
        assert_eq!(abi.aborts(), 1);
        assert_eq!(abi.elapsed(), 0);
        // The bus is usable again immediately.
        abi.start(read_txn(1)).unwrap();
        assert!(abi.tick().is_some());
    }

    #[test]
    fn rejections_counted() {
        let mut abi = Abi::new();
        abi.reject();
        abi.reject();
        assert_eq!(abi.rejections(), 2);
    }
}
