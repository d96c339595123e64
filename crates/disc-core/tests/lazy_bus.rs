//! Contract test of lazy peripheral time.
//!
//! The machine ticks the bus only once its next event falls due and pays
//! the quiet cycles in between with one `advance` before the next bus
//! call. A bus double with its own clock checks that contract from the
//! bus side: at every access its clock must equal the cycles the machine
//! has stepped through, `advance` must never cross an event, and
//! interrupts and vectors must land on the same cycles however the
//! machine is driven (one `run`, `run` in chunks, or a `step` loop).

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use disc_core::{
    CycleRecord, DataBus, IrqRequest, Machine, MachineConfig, MachineStats, StepMode, TraceSink,
};
use disc_isa::Program;

/// The double raises an interrupt during every tick at a cycle `c` with
/// `c % PERIOD == PERIOD - 1`.
const PERIOD: u64 = 37;
const CYCLES: u64 = 10_000;
const IRQ_STREAM: usize = 2;
const IRQ_BIT: u8 = 5;

/// Stream 0 computes in bursts, stream 1 loads and stores external RAM
/// with an internal delay loop in between, and stream 2 sleeps until the
/// double's interrupt vectors it into an ISR that stores a marker on the
/// bus and restarts stream 0.
const PROGRAM: &str = r#"
    .stream 0, compute
    .stream 1, io
    .stream 2, server
    .vector 2, 5, isr
compute:
    ldi r0, 60
cloop:
    subi r0, r0, 1
    jnz cloop
    stop
io:
    lui r1, 0x80        ; external RAM at 0x8000
ioloop:
    ld  r0, [r1]
    addi r0, r0, 1
    st  r0, [r1]
    ldi r2, 12
delay:
    subi r2, r2, 1
    jnz delay
    jmp ioloop
server:
    stop
isr:
    lui r1, 0x81        ; marker word at 0x8100
    st  r2, [r1]
    addi r2, r2, 1
    fork 0, compute
    reti
"#;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Latency,
    Read,
    Write,
}

/// Everything the double observed.
#[derive(Debug, Default)]
struct Log {
    /// Bus cycles elapsed, through `tick` and `advance`.
    clock: u64,
    ticks: u64,
    /// Clock at every tick that raised the interrupt.
    irqs: Vec<u64>,
    /// Every `latency`/`read`/`write` call with the clock it saw.
    accesses: Vec<(Access, u16, u64)>,
    mem: HashMap<u16, u16>,
}

/// First cycle `>= clock` whose tick raises the interrupt.
fn next_irq(clock: u64) -> u64 {
    clock + (PERIOD - 1 - clock % PERIOD)
}

/// External RAM with a 3-cycle latency and a scripted periodic interrupt,
/// keeping its log behind a shared handle.
struct ClockBus(Arc<Mutex<Log>>);

impl ClockBus {
    /// Logs an access with the clock it saw and hands back the log.
    fn access(&self, kind: Access, addr: u16) -> MutexGuard<'_, Log> {
        let mut log = self.0.lock().unwrap();
        let clock = log.clock;
        log.accesses.push((kind, addr, clock));
        log
    }
}

impl DataBus for ClockBus {
    fn latency(&self, addr: u16, _write: bool) -> Option<u32> {
        let _log = self.access(Access::Latency, addr);
        Some(3)
    }

    fn read(&mut self, addr: u16) -> u16 {
        let log = self.access(Access::Read, addr);
        log.mem.get(&addr).copied().unwrap_or(0)
    }

    fn write(&mut self, addr: u16, value: u16) {
        self.access(Access::Write, addr).mem.insert(addr, value);
    }

    fn tick(&mut self, irqs: &mut Vec<IrqRequest>) {
        let mut log = self.0.lock().unwrap();
        if log.clock % PERIOD == PERIOD - 1 {
            irqs.push(IrqRequest {
                stream: IRQ_STREAM,
                bit: IRQ_BIT,
            });
            let clock = log.clock;
            log.irqs.push(clock);
        }
        log.clock += 1;
        log.ticks += 1;
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        let log = self.0.lock().unwrap();
        assert_eq!(
            now, log.clock,
            "next_event asked before the bus was settled"
        );
        Some(next_irq(now))
    }

    fn advance(&mut self, cycles: u64) {
        let mut log = self.0.lock().unwrap();
        let clock = log.clock;
        assert!(
            clock + cycles <= next_irq(clock),
            "advance({cycles}) at clock {clock} crosses the event at {}",
            next_irq(clock)
        );
        log.clock += cycles;
    }
}

/// Counters-only sink recording the cycle of every vector taken. Vectors
/// are delivered only by slow steps, and every slow step reports here,
/// so nothing is missed even with bursts and skips enabled.
struct VectorCycles {
    cycles: Arc<Mutex<Vec<u64>>>,
    seen: u64,
}

impl TraceSink for VectorCycles {
    fn wants_records(&self) -> bool {
        false
    }

    fn record_cycle(&mut self, _record: CycleRecord) {}

    fn observe_stats(&mut self, cycle: u64, stats: &MachineStats) {
        let taken: u64 = stats.vectors_taken.iter().sum();
        if taken > self.seen {
            self.seen = taken;
            self.cycles.lock().unwrap().push(cycle);
        }
    }

    fn next_observe(&self, _now: u64) -> Option<u64> {
        None
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// How the machine is driven for [`CYCLES`] cycles.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    Run(u64),
    Step,
}

struct Outcome {
    log: Log,
    vectors: Vec<u64>,
    stats: MachineStats,
    calls: u64,
}

fn simulate(mode: StepMode, pacing: Pacing) -> Outcome {
    let program = Program::assemble(PROGRAM).expect("test program assembles");
    let log = Arc::new(Mutex::new(Log::default()));
    let vectors = Arc::new(Mutex::new(Vec::new()));
    let config = MachineConfig::disc1().with_streams(3).with_step_mode(mode);
    let mut m = Machine::with_bus(config, &program, Box::new(ClockBus(Arc::clone(&log))));
    m.set_trace_sink(Box::new(VectorCycles {
        cycles: Arc::clone(&vectors),
        seen: 0,
    }));
    let mut calls = 0;
    while m.cycle() < CYCLES {
        let seen = log.lock().unwrap().accesses.len();
        match pacing {
            Pacing::Run(chunk) => {
                m.run(chunk.min(CYCLES - m.cycle())).unwrap();
            }
            Pacing::Step => {
                m.step().unwrap();
                // Every access of one step comes after that step's tick,
                // so the bus has seen exactly the cycles stepped so far.
                let log = log.lock().unwrap();
                for &(kind, addr, clock) in &log.accesses[seen..] {
                    assert_eq!(
                        clock,
                        m.cycle(),
                        "{kind:?} of {addr:#06x} in the step ending at cycle {}",
                        m.cycle()
                    );
                }
            }
        }
        calls += 1;
        assert_eq!(
            log.lock().unwrap().clock,
            m.cycle(),
            "bus not settled when {pacing:?} returned"
        );
    }
    let stats = m.stats().clone();
    drop(m);
    let log = Arc::try_unwrap(log).ok().unwrap().into_inner().unwrap();
    let vectors = vectors.lock().unwrap().clone();
    Outcome {
        log,
        vectors,
        stats,
        calls,
    }
}

#[test]
fn lazy_bus_time_is_invisible_to_the_bus() {
    for mode in [StepMode::CycleByCycle, StepMode::EventSkip] {
        let reference = simulate(mode, Pacing::Step);
        let events = reference.log.irqs.len() as u64;
        assert_eq!(
            events,
            CYCLES / PERIOD,
            "{mode:?}: one interrupt per period"
        );
        assert!(
            reference.vectors.len() as u64 >= events - 1,
            "{mode:?}: the ISR must be vectored for (almost) every interrupt"
        );
        assert!(
            reference.log.accesses.len() > 500,
            "{mode:?}: the program must keep the bus busy"
        );
        for pacing in [
            Pacing::Run(CYCLES),
            Pacing::Run(1_000),
            Pacing::Run(64),
            Pacing::Run(7),
            Pacing::Run(1),
        ] {
            let got = simulate(mode, pacing);
            let what = format!("{mode:?} {pacing:?}");
            assert_eq!(
                got.log.accesses, reference.log.accesses,
                "{what}: bus clock at the accesses"
            );
            assert_eq!(got.log.irqs, reference.log.irqs, "{what}: interrupt cycles");
            assert_eq!(got.vectors, reference.vectors, "{what}: vector cycles");
            assert_eq!(got.stats, reference.stats, "{what}: stats");
            let accesses = got.log.accesses.len() as u64;
            assert!(
                got.log.ticks <= events + accesses + got.calls,
                "{what}: {} ticks for {events} events, {accesses} accesses and {} calls",
                got.log.ticks,
                got.calls
            );
        }
    }
}
