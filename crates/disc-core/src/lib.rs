//! Cycle-accurate simulator of **DISC1**, the experimental implementation
//! of the Dynamic Instruction Stream Computer (Nemirovsky, Brewer & Wood,
//! MICRO 1991).
//!
//! DISC maintains several simultaneously resident instruction streams and
//! lets a hardware scheduler pick, every cycle, which stream's next
//! instruction enters the pipeline. Because consecutive pipeline slots
//! usually belong to different streams, data and control hazards vanish,
//! slow I/O suspends only the requesting stream, interrupts *create*
//! streams instead of preempting them, and throughput can be partitioned
//! among hard-real-time tasks in 1/16 increments — with idle share
//! *dynamically reallocated* to whoever is ready.
//!
//! The crate models the complete DISC1 organization:
//!
//! * 4-stage pipeline (configurable 3–8) with the paper's flush semantics —
//!   jumps resolve in EX and flush younger same-stream slots; an external
//!   access flushes and parks only its own stream ([`Machine`]);
//! * the hardware [`Scheduler`] with sequence-table partitioning and
//!   dynamic slot reallocation;
//! * per-stream contexts ([`Stream`]) with the [`StackWindow`] register
//!   file (§3.5), per-stream IR/MR interrupt registers and vectored
//!   delivery (§3.6.3);
//! * the single-transaction asynchronous bus interface ([`Abi`], §3.6.1)
//!   over a pluggable [`DataBus`];
//! * shared internal memory with atomic `tset` semaphores
//!   ([`InternalMemory`], §3.6.2);
//! * statistics ([`MachineStats`]) and cycle tracing ([`Trace`]) for the
//!   paper's figures.
//!
//! # Example: two streams share the pipeline
//!
//! ```
//! use disc_core::{Machine, MachineConfig};
//! use disc_isa::Program;
//!
//! let program = Program::assemble(
//!     r#"
//!     .stream 0, one
//!     .stream 1, two
//! one:
//!     ldi r0, 1
//!     sta r0, 0x20
//!     halt
//! two:
//!     ldi r0, 2
//!     sta r0, 0x21
//! spin:
//!     jmp spin
//! "#,
//! )?;
//! let mut m = Machine::new(MachineConfig::disc1(), &program);
//! m.run(100)?;
//! assert_eq!(m.internal_memory().read(0x20), 1);
//! assert_eq!(m.internal_memory().read(0x21), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod abi;
pub mod alu;
mod config;
mod databus;
mod error;
mod intmem;
mod machine;
mod regfile;
mod scheduler;
mod stats;
mod stream;
mod trace;

pub use abi::{Abi, AbiBusy, BusOp, RegTarget, Transaction};
pub use config::{BusFaultPolicy, DispatchMode, MachineConfig, StepMode, WindowPolicy};
pub use databus::{DataBus, FlatBus, IrqRequest};
pub use error::{Exit, SimError};
pub use intmem::InternalMemory;
pub use machine::{ChunkRun, Machine, Status};
pub use regfile::{AdjustOutcome, StackWindow};
pub use scheduler::{SchedulePolicy, Scheduler, SEQUENCE_SLOTS};
pub use stats::{
    CycleAttribution, IrqLatencyStats, MachineStats, SkipStats, SuperblockStats,
    ATTRIBUTION_BUCKETS,
};
pub use stream::{Flags, ServiceFrame, Stream, WaitState};
pub use trace::{BusFaultKind, CycleRecord, StageSnapshot, Trace, TraceEvent, TraceSink};

// Snapshot support (`disc-snap/v2`): [`Machine::snapshot`],
// [`Machine::restore`] and [`Machine::fork`] speak these types.
pub use disc_snap::{SnapError, SnapReader, SnapWriter, FORMAT as SNAP_FORMAT};
