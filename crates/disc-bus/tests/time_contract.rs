//! Contract suite of lazy peripheral time, device by device.
//!
//! The machine ticks its bus only from the bus's
//! [`next_event`](DataBus::next_event) answer on. The quiet cycles before
//! it are owed and paid with one [`advance`](DataBus::advance) before the
//! next `latency`, `read`, `write`, `next_event` or host edit. This suite
//! builds every exported device alone on a [`PeripheralBus`], a bus with a
//! [`DmaEngine`] master, and a [`FaultInjector`] over a multi-device bus
//! with a plan of every fault kind. It builds each of them twice and drives
//! both copies with the same seeded traffic: a register read or write
//! about every 40 cycles and host edits through [`Shared`] in between. One
//! copy is ticked every cycle; the other follows the machine's lazy rule.
//! The two must agree on every interrupt `(cycle, stream, bit)`, latency,
//! read value and on their final state bytes. `next_event(now)` must never
//! answer a cycle before `now`, and the eager copy must raise no interrupt
//! on a cycle the lazy copy skipped.
//!
//! The suite proves that an answer is never late, not that it is tight:
//! an early answer only costs a tick that does nothing.

use disc_bus::{
    Actuator, BlockStorage, DmaEngine, ExtRam, PacketPort, Peripheral, PeripheralBus, SensorPort,
    Shared, Timer, Uart, Watchdog,
};
use disc_core::{DataBus, IrqRequest};
use disc_faults::{AddrRange, FaultInjector, FaultLog, FaultLogHandle, FaultPlan, FaultWindow};
use disc_snap::splitmix64;

const SEEDS: u64 = 100;
const CYCLES: u64 = 5_000;
/// Mean cycles between register accesses.
const ACCESS_GAP: u64 = 40;
/// Mean cycles between host edits.
const EDIT_GAP: u64 = 600;
/// Where a lone device is mapped.
const BASE: u16 = 0x9000;

/// The SplitMix64 sequence from `seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 0
    }

    /// A register value: mostly small (commands, enables, short periods),
    /// sometimes any word.
    fn value(&mut self) -> u16 {
        match self.below(4) {
            0 | 1 => self.below(4) as u16,
            2 => self.below(64) as u16,
            _ => self.next() as u16,
        }
    }

    /// Cycles to the next event of a stream with mean gap `mean`.
    fn gap(&mut self, mean: u64) -> u64 {
        self.range(1, 2 * mean)
    }

    fn window(&mut self) -> FaultWindow {
        let from = self.below(CYCLES);
        FaultWindow::between(from, from + self.range(1, CYCLES / 2))
    }
}

/// Handles the host keeps on a built bus.
#[derive(Default)]
struct Host {
    uart: Option<Shared<Uart>>,
    dma: Option<Shared<DmaEngine>>,
    faults: Option<FaultLogHandle>,
}

impl Host {
    /// One host edit between accesses: a new UART feed or a DMA start.
    fn edit(&self, rng: &mut Rng) {
        if let Some(uart) = &self.uart {
            let words: Vec<u16> = (0..rng.range(1, 6)).map(|_| rng.value()).collect();
            uart.borrow().feed(rng.range(1, 120) as u32, words);
        }
        if let Some(dma) = &self.dma {
            let (src, dst) = (0x8000 + rng.below(64), 0x8000 + rng.below(64));
            dma.borrow()
                .start(src as u16, dst as u16, rng.range(0, 12) as u16);
        }
    }
}

/// A bus under test, the address windows its traffic targets, and the
/// host's handles on it.
struct Rig {
    bus: Box<dyn DataBus>,
    windows: Vec<(u16, u16)>,
    host: Host,
}

/// Builds a rig from a seed; called twice per seed, so both copies are
/// built identically.
type Build = fn(u64) -> Rig;

fn alone(device: impl Peripheral + 'static, len: u16) -> Rig {
    let mut bus = PeripheralBus::new();
    bus.map(BASE, len, Box::new(device)).unwrap();
    Rig {
        bus: Box::new(bus),
        windows: vec![(BASE, len)],
        host: Host::default(),
    }
}

/// Construction parameters, drawn apart from the traffic.
fn params(seed: u64) -> Rng {
    Rng::new(seed ^ 0x5eed_b0a2d)
}

fn ext_ram(seed: u64) -> Rig {
    alone(ExtRam::new(64, params(seed).below(5) as u32), 64)
}

fn periodic_timer(seed: u64) -> Rig {
    let period = params(seed).range(1, 200) as u32;
    alone(Timer::periodic(period, 1, 5), Timer::REGS)
}

fn one_shot_timer(seed: u64) -> Rig {
    let period = params(seed).range(1, 400) as u32;
    alone(Timer::one_shot(period, 2, 6), Timer::REGS)
}

fn watchdog(seed: u64) -> Rig {
    let timeout = params(seed).range(1, 150) as u32;
    alone(Watchdog::new(timeout, 0, 7), Watchdog::REGS)
}

fn sensor(seed: u64) -> Rig {
    let mut p = params(seed);
    let port = SensorPort::triangle(p.range(1, 100) as u32, p.below(40) as u32, 9);
    let port = if p.coin() { port.with_irq(3, 4) } else { port };
    alone(port, SensorPort::REGS)
}

fn uart(seed: u64) -> Rig {
    let mut p = params(seed);
    let mut device = Uart::new(p.range(1, 8) as u32)
        .with_irq(1, 3)
        .with_rx_capacity(p.range(1, 6) as usize);
    device.feed(p.range(1, 80) as u32, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    let device = Shared::new(device);
    let mut rig = alone(device.handle(), Uart::REGS);
    rig.host.uart = Some(device);
    rig
}

fn storage(seed: u64) -> Rig {
    let mut p = params(seed);
    let (read, write) = (p.range(1, 300) as u32, p.range(1, 300) as u32);
    alone(
        BlockStorage::new(4, 4, read, write).with_irq(0, 6),
        BlockStorage::REGS,
    )
}

fn packet(seed: u64) -> Rig {
    let mut p = params(seed);
    let port = PacketPort::new(seed, p.range(1, 90) as u32, 1.5)
        .with_capacity(p.range(1, 8) as usize)
        .with_irq(2, 2);
    alone(port, PacketPort::REGS)
}

fn actuator(seed: u64) -> Rig {
    alone(Actuator::new(params(seed).below(6) as u32), 2)
}

/// External RAM at `0x8000` with a DMA master at `0xa000`; the host
/// starts transfers through the engine's handle.
fn dma(seed: u64) -> Rig {
    let mut p = params(seed);
    let engine = DmaEngine::new(p.range(1, 12) as u32).with_stall(p.below(4) as u32);
    let engine = Shared::new(if p.coin() {
        engine.with_irq(1, 1)
    } else {
        engine
    });
    let mut bus = PeripheralBus::new();
    bus.map(0x8000, 64, Box::new(ExtRam::new(64, 2))).unwrap();
    bus.map_dma(0xa000, &engine).unwrap();
    Rig {
        bus: Box::new(bus),
        windows: vec![(0x8000, 64), (0xa000, DmaEngine::REGS)],
        host: Host {
            dma: Some(engine),
            ..Host::default()
        },
    }
}

/// Every device kind on one bus, wrapped in a fault injector whose plan
/// uses every fault kind in seeded windows.
fn faulted(seed: u64) -> Rig {
    let mut p = params(seed);
    let uart = Shared::new(Uart::new(3).with_irq(3, 3).with_rx_capacity(4));
    let engine = Shared::new(DmaEngine::new(p.range(1, 8) as u32).with_irq(0, 1));
    let mut bus = PeripheralBus::new();
    let devices: Vec<(u16, u16, Box<dyn Peripheral>)> = vec![
        (0x8000, 64, Box::new(ExtRam::new(64, 2))),
        (
            0x9000,
            Timer::REGS,
            Box::new(Timer::periodic(p.range(1, 120) as u32, 1, 5)),
        ),
        (
            0x9100,
            SensorPort::REGS,
            Box::new(SensorPort::triangle(p.range(1, 90) as u32, 20, 5).with_irq(2, 4)),
        ),
        (0x9200, Uart::REGS, Box::new(uart.handle())),
        (
            0x9300,
            BlockStorage::REGS,
            Box::new(BlockStorage::new(2, 2, 40, 60).with_irq(0, 6)),
        ),
        (
            0x9400,
            PacketPort::REGS,
            Box::new(PacketPort::new(seed, p.range(1, 70) as u32, 1.0).with_irq(2, 2)),
        ),
        (
            0x9500,
            Watchdog::REGS,
            Box::new(Watchdog::new(p.range(1, 200) as u32, 0, 7)),
        ),
        (0x9600, 2, Box::new(Actuator::new(1))),
    ];
    let mut windows = Vec::new();
    for (base, len, device) in devices {
        bus.map(base, len, device).unwrap();
        windows.push((base, len));
    }
    bus.map_dma(0xa000, &engine).unwrap();
    windows.push((0xa000, DmaEngine::REGS));
    let plan = FaultPlan::new(seed)
        .latency_add(AddrRange::new(0x8000, 0x803f), 7, p.window())
        .stuck(AddrRange::at(0x9301), p.window())
        .bit_flip(AddrRange::all(), 0x0101, 0.3, p.window())
        .blackout(AddrRange::new(0x9100, 0x92ff), p.window())
        .drop_irq(1, 5, 0.5, p.window())
        .spurious_irq(3, 2, p.range(1, 300), p.window());
    let injector = FaultInjector::new(plan, Box::new(bus));
    Rig {
        host: Host {
            uart: Some(uart),
            dma: Some(engine),
            faults: Some(injector.log_handle()),
        },
        bus: Box::new(injector),
        windows,
    }
}

/// What one driver saw.
#[derive(Default)]
struct Seen {
    irqs: Vec<(u64, usize, u8)>,
    latencies: Vec<Option<u32>>,
    reads: Vec<u16>,
    state: Vec<u8>,
    /// Cycles the lazy driver owed instead of ticking.
    skipped: Vec<bool>,
    faults: FaultLog,
}

/// The machine's lazy rule: the cached `next_event` answer and the quiet
/// cycles owed before it.
struct Lazy {
    due: Option<u64>,
    owed: u64,
}

impl Lazy {
    fn settle(&mut self, bus: &mut dyn DataBus) {
        if self.owed > 0 {
            bus.advance(self.owed);
            self.owed = 0;
        }
    }

    /// Whether the bus must tick on cycle `now`; owes the cycle if not.
    fn ticks(&mut self, bus: &mut dyn DataBus, now: u64) -> bool {
        let due = match self.due {
            Some(due) => due,
            None => {
                self.settle(bus);
                let answer = bus.next_event(now);
                assert!(
                    answer.is_none_or(|t| t >= now),
                    "next_event({now}) answered {answer:?}, in the past"
                );
                *self.due.insert(answer.unwrap_or(u64::MAX))
            }
        };
        if now < due {
            self.owed += 1;
            return false;
        }
        self.settle(bus);
        self.due = None;
        true
    }
}

/// Runs one copy of `build(seed)` under the seed's traffic, ticking every
/// cycle or lazily.
fn drive(build: Build, seed: u64, lazy: bool) -> Seen {
    let Rig {
        mut bus,
        windows,
        host,
    } = build(seed);
    let bus = &mut *bus;
    let mut rng = Rng::new(seed);
    let mut clock = lazy.then_some(Lazy { due: None, owed: 0 });
    let mut seen = Seen::default();
    let mut irqs: Vec<IrqRequest> = Vec::new();
    let mut next_access = rng.gap(ACCESS_GAP);
    let mut next_edit = rng.gap(EDIT_GAP);
    for now in 0..CYCLES {
        if now == next_edit {
            if let Some(clock) = &mut clock {
                clock.settle(bus);
                clock.due = None;
            }
            host.edit(&mut rng);
            next_edit += rng.gap(EDIT_GAP);
        }
        if now == next_access {
            let (base, len) = windows[rng.below(windows.len() as u64) as usize];
            let addr = base + rng.below(u64::from(len)) as u16;
            let write = rng.coin();
            let value = rng.value();
            if let Some(clock) = &mut clock {
                clock.settle(bus);
            }
            seen.latencies.push(bus.latency(addr, write));
            if write {
                bus.write(addr, value);
            } else {
                seen.reads.push(bus.read(addr));
            }
            if let Some(clock) = &mut clock {
                clock.due = None;
            }
            next_access += rng.gap(ACCESS_GAP);
        }
        let tick = clock.as_mut().is_none_or(|clock| clock.ticks(bus, now));
        seen.skipped.push(!tick);
        if tick {
            irqs.clear();
            bus.tick(&mut irqs);
            seen.irqs
                .extend(irqs.iter().map(|irq| (now, irq.stream, irq.bit)));
        }
    }
    if let Some(clock) = &mut clock {
        clock.settle(bus);
    }
    seen.state = bus.save_state();
    if let Some(log) = &host.faults {
        seen.faults = log.snapshot();
    }
    seen
}

/// Compares the eager and lazy drivers of `build` on every seed; returns
/// the totals over all seeds (eager interrupts, lazy ticks, faults).
fn check(name: &str, build: Build) -> (usize, u64, [u64; 6]) {
    let (mut irqs, mut ticks) = (0, 0);
    let mut faults = [0; 6];
    for seed in 0..SEEDS {
        let eager = drive(build, seed, false);
        let lazy = drive(build, seed, true);
        let at = format!("{name}, seed {seed}");
        for &(cycle, stream, bit) in &eager.irqs {
            assert!(
                !lazy.skipped[cycle as usize],
                "{at}: irq ({stream}, {bit}) at cycle {cycle}, which the lazy bus skipped"
            );
        }
        assert_eq!(eager.irqs, lazy.irqs, "{at}: interrupts differ");
        assert_eq!(eager.latencies, lazy.latencies, "{at}: latencies differ");
        assert_eq!(eager.reads, lazy.reads, "{at}: reads differ");
        assert_eq!(eager.state, lazy.state, "{at}: state bytes differ");
        assert_eq!(eager.faults, lazy.faults, "{at}: fault logs differ");
        irqs += eager.irqs.len();
        ticks += lazy.skipped.iter().filter(|&&s| !s).count() as u64;
        for (total, (_, n)) in faults.iter_mut().zip(eager.faults.counters()) {
            *total += n;
        }
    }
    assert!(
        ticks < SEEDS * CYCLES,
        "{name}: the lazy bus never skipped a cycle"
    );
    (irqs, ticks, faults)
}

/// `check`, and the device must have interrupted on some seed.
fn check_interrupting(name: &str, build: Build) {
    let (irqs, _, _) = check(name, build);
    assert!(irqs > 0, "{name}: no seed raised an interrupt");
}

#[test]
fn ext_ram_keeps_lazy_time() {
    let (irqs, ticks, _) = check("ext_ram", ext_ram);
    assert_eq!((irqs, ticks), (0, 0), "memory never needs a tick");
}

#[test]
fn periodic_timer_keeps_lazy_time() {
    check_interrupting("periodic timer", periodic_timer);
}

#[test]
fn one_shot_timer_keeps_lazy_time() {
    check_interrupting("one-shot timer", one_shot_timer);
}

#[test]
fn watchdog_keeps_lazy_time() {
    check_interrupting("watchdog", watchdog);
}

#[test]
fn sensor_keeps_lazy_time() {
    check_interrupting("sensor", sensor);
}

#[test]
fn uart_keeps_lazy_time() {
    check_interrupting("uart", uart);
}

#[test]
fn storage_keeps_lazy_time() {
    check_interrupting("storage", storage);
}

#[test]
fn packet_port_keeps_lazy_time() {
    check_interrupting("packet port", packet);
}

#[test]
fn actuator_keeps_lazy_time() {
    check("actuator", actuator);
}

#[test]
fn dma_master_keeps_lazy_time() {
    check_interrupting("dma master", dma);
}

#[test]
fn fault_injector_keeps_lazy_time() {
    let (irqs, _, faults) = check("fault injector", faulted);
    assert!(irqs > 0, "no seed raised an interrupt");
    for ((kind, _), n) in FaultLog::default().counters().into_iter().zip(faults) {
        assert!(n > 0, "no seed delivered a {kind} fault");
    }
}
