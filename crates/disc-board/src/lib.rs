//! Declarative board definitions for the DISC1 simulator.
//!
//! A *board file* is a small TOML-subset document describing a complete
//! experiment: the machine configuration (streams, sequence table,
//! memory map), the program, the peripherals hanging off the
//! asynchronous data bus with their individual latencies, and an
//! optional fault-injection plan. [`Board::parse`] validates the
//! document with line/field error context; [`Board::machine`] wires
//! everything together into a [`disc_core::Machine`].
//!
//! The committed boards under `boards/` are the only definition of the
//! repository's canonical machines: the paper-figure machines and the
//! bench workloads. The figure renderers, the bench gate, the profiling
//! harness, the benchmark and the equivalence suites all build them from
//! those files.
//!
//! # Example
//!
//! ```
//! use disc_board::Board;
//!
//! let board = Board::parse(
//!     r#"
//! name = "two-stream-demo"
//!
//! [machine]
//! streams = 2
//! ext_latency = 3
//!
//! [program]
//! source = """
//! .stream 0, a
//! .stream 1, b
//! a:  addi r0, r0, 1
//!     jmp a
//! b:  addi r0, r0, 1
//!     jmp b
//! """
//!
//! [[peripheral]]
//! kind = "timer"
//! base = 0x9000
//! period = 100
//! irq_stream = 1
//! irq_bit = 5
//! "#,
//! )?;
//! let mut machine = board.machine()?;
//! machine.run(200);
//! assert!(machine.stats().cycles >= 200);
//! # Ok::<(), disc_board::BoardError>(())
//! ```

mod board;
mod toml;

pub use board::{Board, BoardError, IrqLine, PeripheralKind, PeripheralSpec, MAX_LATENCY};
