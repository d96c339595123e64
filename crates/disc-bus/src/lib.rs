//! Asynchronous data-bus peripherals for the DISC1 simulator.
//!
//! Real-time controllers *"require multiple I/O peripherals with different
//! access times"* (§3.6.1 of the paper), which is why DISC1's data bus is
//! asynchronous and why its architecture pays off: a stream blocked on a
//! 50-cycle sensor read donates its pipeline slots to the other streams.
//!
//! This crate provides:
//!
//! * [`PeripheralBus`] — an address-decoded composition of peripherals that
//!   plugs into [`disc_core::Machine::with_bus`];
//! * [`Peripheral`] — the device trait (per-address latency, read/write,
//!   and one clock: `next_event` plus a bulk `advance` that raises the
//!   interrupt lines);
//! * device models with realistically divergent access times:
//!   [`ExtRam`] (external memory, the paper's `tmem`), [`Timer`]
//!   (programmable periodic/one-shot interrupt source — the substrate for
//!   hard deadlines), [`SensorPort`] (slow analog-ish input with a
//!   data-ready interrupt), [`Uart`] (byte stream with RX interrupts) and
//!   [`Actuator`] (write-only output recording a timestamped history),
//!   [`DmaEngine`] (a bus *master* whose transfers contend with the
//!   streams), [`BlockStorage`] (command/status/data block device with
//!   per-op latency) and [`PacketPort`] (seeded bursty Poisson arrivals
//!   on a bounded FIFO);
//! * [`Shared`] — an `Arc<Mutex<…>>` wrapper so test/host code keeps a
//!   handle on a device after moving the bus into the machine.
//!
//! # Example
//!
//! ```
//! use disc_bus::{ExtRam, PeripheralBus, Shared, Timer};
//!
//! let timer = Shared::new(Timer::periodic(100, 1, 5));
//! let mut bus = PeripheralBus::new();
//! bus.map(0x8000, 0x1000, Box::new(ExtRam::new(0x1000, 2)))?;
//! bus.map(0x9000, Timer::REGS, Box::new(timer.handle()))?;
//! # Ok::<(), disc_bus::MapError>(())
//! ```

mod actuator;
mod bus;
mod dma;
mod extram;
mod packet;
mod sensor;
mod shared;
mod storage;
mod timer;
mod uart;
mod watchdog;

pub use actuator::Actuator;
pub use bus::{MapError, Peripheral, PeripheralBus};
pub use dma::DmaEngine;
pub use extram::ExtRam;
pub use packet::PacketPort;
pub use sensor::SensorPort;
pub use shared::Shared;
pub use storage::BlockStorage;
pub use timer::Timer;
pub use uart::Uart;
pub use watchdog::Watchdog;
