//! The fault-injecting bus wrapper.

use std::sync::{Arc, Mutex};

use disc_core::{DataBus, IrqRequest};
use disc_snap::splitmix64;

use crate::plan::{FaultKind, FaultPlan};

/// Counters of every fault the injector actually delivered.
///
/// Obtained through a [`FaultLogHandle`]; campaigns assert on these to
/// prove the planned faults really happened (a soak run that "passes"
/// because the fault window missed the workload proves nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Latency probes answered with inflated latency.
    pub inflated_probes: u64,
    /// Latency probes answered "stuck" (`u32::MAX`).
    pub stuck_probes: u64,
    /// Latency probes answered "unmapped" by a blackout.
    pub blackouts: u64,
    /// Reads whose data had bits flipped.
    pub bit_flips: u64,
    /// Interrupt requests from the wrapped bus that were discarded.
    pub dropped_irqs: u64,
    /// Phantom interrupt requests injected.
    pub spurious_irqs: u64,
}

impl FaultLog {
    /// Total faults delivered, across every kind.
    pub fn total(&self) -> u64 {
        self.inflated_probes
            + self.stuck_probes
            + self.blackouts
            + self.bit_flips
            + self.dropped_irqs
            + self.spurious_irqs
    }

    /// Every counter with its stable name, in declaration order — the
    /// serialization contract run reports rely on.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("inflated_probes", self.inflated_probes),
            ("stuck_probes", self.stuck_probes),
            ("blackouts", self.blackouts),
            ("bit_flips", self.bit_flips),
            ("dropped_irqs", self.dropped_irqs),
            ("spurious_irqs", self.spurious_irqs),
        ]
    }
}

/// Cloneable handle on a [`FaultInjector`]'s log, usable after the
/// injector (inside its machine) has been moved away.
#[derive(Debug, Clone)]
pub struct FaultLogHandle(Arc<Mutex<FaultLog>>);

impl FaultLogHandle {
    /// Copy of the counters as of now.
    pub fn snapshot(&self) -> FaultLog {
        *self.0.lock().expect("fault log poisoned")
    }
}

/// `true` with probability `p` as a pure function of the inputs: every
/// probabilistic decision hashes `(seed, fault index, cycle,
/// address/key)` through splitmix64, so outcomes depend only on the plan
/// and the cycle-accurate access pattern, never on host RNG state or call
/// ordering.
fn chance(seed: u64, fault: usize, cycle: u64, key: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let h = splitmix64(
        seed ^ (fault as u64).wrapping_mul(0xd6e8_feb8_6659_fd93)
            ^ cycle.wrapping_mul(0xa076_1d64_78bd_642f)
            ^ key.wrapping_mul(0xe703_7ed1_a0b4_28db),
    );
    (h as f64) < p * (u64::MAX as f64)
}

/// A [`DataBus`] decorator that injects the faults scheduled by a
/// [`FaultPlan`] into an arbitrary wrapped bus.
///
/// The injector keeps its own cycle counter, advanced at the top of
/// [`tick`](DataBus::tick) so every probe within one machine cycle sees
/// the same cycle number. All decisions are derived by hashing
/// `(seed, fault, cycle, address)`, so two runs of the same machine with
/// the same plan produce byte-identical behavior and [`FaultLog`]s.
///
/// ```
/// use disc_core::FlatBus;
/// use disc_faults::{AddrRange, FaultInjector, FaultPlan, FaultWindow};
///
/// let plan = FaultPlan::new(1).stuck(AddrRange::at(0x8000), FaultWindow::from(500));
/// let injector = FaultInjector::new(plan, Box::new(FlatBus::new(2)));
/// let log = injector.log_handle();
/// // … Machine::with_bus(cfg, &program, Box::new(injector)) …
/// assert_eq!(log.snapshot().total(), 0);
/// ```
pub struct FaultInjector {
    inner: Box<dyn DataBus>,
    plan: FaultPlan,
    cycle: u64,
    log: Arc<Mutex<FaultLog>>,
    scratch: Vec<IrqRequest>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("cycle", &self.cycle)
            .field("log", &*self.log.lock().expect("fault log poisoned"))
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// Wraps `inner`, injecting the faults scheduled by `plan`.
    pub fn new(plan: FaultPlan, inner: Box<dyn DataBus>) -> Self {
        FaultInjector {
            inner,
            plan,
            cycle: 0,
            log: Arc::new(Mutex::new(FaultLog::default())),
            scratch: Vec::new(),
        }
    }

    /// Handle on the fault log, valid after the injector moves into a
    /// machine.
    pub fn log_handle(&self) -> FaultLogHandle {
        FaultLogHandle(Arc::clone(&self.log))
    }

    /// Cycles ticked so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl DataBus for FaultInjector {
    fn latency(&self, addr: u16, write: bool) -> Option<u32> {
        let cycle = self.cycle;
        // A blackout hides the address entirely — even from a peripheral
        // that would otherwise be stuck.
        for f in self.plan.faults() {
            if matches!(f.kind, FaultKind::Blackout)
                && f.window.contains(cycle)
                && f.range.contains(addr)
            {
                self.log.lock().expect("fault log poisoned").blackouts += 1;
                return None;
            }
        }
        let base = self.inner.latency(addr, write)?;
        let mut latency = base;
        let mut stuck = false;
        let mut inflated = false;
        for f in self.plan.faults() {
            if !f.window.contains(cycle) || !f.range.contains(addr) {
                continue;
            }
            match f.kind {
                FaultKind::Stuck => stuck = true,
                FaultKind::LatencyAdd { cycles } => {
                    latency = latency.saturating_add(cycles);
                    inflated = true;
                }
                _ => {}
            }
        }
        if stuck {
            self.log.lock().expect("fault log poisoned").stuck_probes += 1;
            return Some(u32::MAX);
        }
        if inflated {
            self.log.lock().expect("fault log poisoned").inflated_probes += 1;
        }
        Some(latency)
    }

    fn read(&mut self, addr: u16) -> u16 {
        let mut value = self.inner.read(addr);
        let cycle = self.cycle;
        for (i, f) in self.plan.faults().iter().enumerate() {
            if let FaultKind::BitFlip { mask, probability } = f.kind {
                if f.window.contains(cycle)
                    && f.range.contains(addr)
                    && chance(self.plan.seed(), i, cycle, addr as u64, probability)
                {
                    value ^= mask;
                    self.log.lock().expect("fault log poisoned").bit_flips += 1;
                }
            }
        }
        value
    }

    fn write(&mut self, addr: u16, value: u16) {
        // Data-corruption faults target the read path; writes pass
        // through (a blackout already stops them at the latency probe).
        self.inner.write(addr, value);
    }

    fn tick(&mut self, irqs: &mut Vec<IrqRequest>) {
        // Advance first so latency/read probes triggered later in this
        // same machine cycle agree with the interrupt decisions below.
        self.cycle += 1;
        let cycle = self.cycle;
        self.scratch.clear();
        self.inner.tick(&mut self.scratch);
        'requests: for (n, irq) in self.scratch.drain(..).enumerate() {
            for (i, f) in self.plan.faults().iter().enumerate() {
                if let FaultKind::DropIrq {
                    stream,
                    bit,
                    probability,
                } = f.kind
                {
                    if f.window.contains(cycle)
                        && irq.stream == stream
                        && irq.bit == bit
                        && chance(
                            self.plan.seed(),
                            i,
                            cycle,
                            // Distinguish multiple same-cycle requests.
                            (n as u64) << 32 | u64::from(bit),
                            probability,
                        )
                    {
                        self.log.lock().expect("fault log poisoned").dropped_irqs += 1;
                        continue 'requests;
                    }
                }
            }
            irqs.push(irq);
        }
        for f in self.plan.faults() {
            if let FaultKind::SpuriousIrq {
                stream,
                bit,
                interval,
            } = f.kind
            {
                if f.window.contains(cycle) && (cycle - f.window.start()).is_multiple_of(interval) {
                    irqs.push(IrqRequest { stream, bit });
                    self.log.lock().expect("fault log poisoned").spurious_irqs += 1;
                }
            }
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // The injector's counter advances at the top of `tick`, so the
        // tick during the machine step starting at `now` decides with
        // injector cycle `self.cycle + 1`; an injector-cycle target `ic`
        // maps back to machine cycle `now + (ic - (self.cycle + 1))`.
        let ic0 = self.cycle + 1;
        let to_machine = |ic: u64| now.saturating_add(ic - ic0);
        let mut next: Option<u64> = self.inner.next_event(now);
        let mut fold = |t: u64| next = Some(next.map_or(t, |n| n.min(t)));
        for f in self.plan.faults() {
            // Every window boundary is a wake point: a fault switching on
            // or off changes how subsequent probes and requests are
            // treated, so a skip never crosses one blindly.
            for boundary in [f.window.start(), f.window.end()] {
                if boundary >= ic0 && boundary != u64::MAX {
                    fold(to_machine(boundary));
                }
            }
            if let FaultKind::SpuriousIrq { interval, .. } = f.kind {
                let from = f.window.start();
                let fire = if ic0 <= from {
                    from
                } else {
                    (ic0 - from)
                        .div_ceil(interval)
                        .saturating_mul(interval)
                        .saturating_add(from)
                };
                if f.window.contains(fire) {
                    fold(to_machine(fire));
                }
            }
        }
        next
    }

    fn advance(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.inner.advance(cycles);
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("fault-injector");
        w.put_u64(self.plan.seed());
        w.put_usize(self.plan.faults().len());
        w.put_u64(self.cycle);
        let log = self.log.lock().expect("fault log poisoned");
        for (_, v) in log.counters() {
            w.put_u64(v);
        }
        w.put_bytes(&self.inner.save_state());
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("fault-injector")?;
        let seed = r.get_u64()?;
        let nfaults = r.get_usize()?;
        if seed != self.plan.seed() || nfaults != self.plan.faults().len() {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "fault plan mismatch: injector (seed {}, {} faults), \
                 snapshot (seed {seed}, {nfaults} faults)",
                self.plan.seed(),
                self.plan.faults().len()
            )));
        }
        let cycle = r.get_u64()?;
        let log = FaultLog {
            inflated_probes: r.get_u64()?,
            stuck_probes: r.get_u64()?,
            blackouts: r.get_u64()?,
            bit_flips: r.get_u64()?,
            dropped_irqs: r.get_u64()?,
            spurious_irqs: r.get_u64()?,
        };
        self.inner.restore_state(r.get_bytes()?)?;
        r.finish()?;
        self.cycle = cycle;
        *self.log.lock().expect("fault log poisoned") = log;
        self.scratch.clear();
        Ok(())
    }
}

/// The injector's only replayable randomness is its cycle cursor: every
/// probabilistic decision is a *pure hash* of
/// `(plan seed, fault index, cycle, address)`, so there is no evolving
/// generator state to capture. Restoring the cursor therefore resumes the
/// exact decision stream, which is what makes fault campaigns
/// snapshot-safe.
impl disc_snap::ReplayableRng for FaultInjector {
    fn rng_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_u64(self.plan.seed());
        w.put_u64(self.cycle);
        w.into_bytes()
    }

    fn set_rng_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        let seed = r.get_u64()?;
        if seed != self.plan.seed() {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "fault seed mismatch: injector {}, state {seed}",
                self.plan.seed()
            )));
        }
        self.cycle = r.get_u64()?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AddrRange, FaultWindow};
    use disc_core::FlatBus;

    fn flat_injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, Box::new(FlatBus::new(2)))
    }

    fn tick_to(inj: &mut FaultInjector, cycle: u64) -> Vec<IrqRequest> {
        let mut irqs = Vec::new();
        while inj.cycle() < cycle {
            inj.tick(&mut irqs);
        }
        irqs
    }

    #[test]
    fn passthrough_when_plan_is_empty() {
        let mut inj = flat_injector(FaultPlan::new(0));
        assert_eq!(inj.latency(0x1000, false), Some(2));
        inj.write(0x1000, 0xabcd);
        assert_eq!(inj.read(0x1000), 0xabcd);
        assert_eq!(inj.log_handle().snapshot().total(), 0);
    }

    #[test]
    fn latency_add_inflates_within_window() {
        let plan = FaultPlan::new(0).latency_add(
            AddrRange::new(0x1000, 0x10ff),
            7,
            FaultWindow::between(10, 20),
        );
        let mut inj = flat_injector(plan);
        assert_eq!(inj.latency(0x1000, false), Some(2), "before window");
        tick_to(&mut inj, 10);
        assert_eq!(inj.latency(0x1000, false), Some(9), "inside window");
        assert_eq!(inj.latency(0x2000, false), Some(2), "outside range");
        tick_to(&mut inj, 20);
        assert_eq!(inj.latency(0x1000, false), Some(2), "after window");
        assert_eq!(inj.log_handle().snapshot().inflated_probes, 1);
    }

    #[test]
    fn stuck_overrides_latency_add() {
        let plan = FaultPlan::new(0)
            .latency_add(AddrRange::at(0x100), 3, FaultWindow::always())
            .stuck(AddrRange::at(0x100), FaultWindow::always());
        let inj = flat_injector(plan);
        assert_eq!(inj.latency(0x100, false), Some(u32::MAX));
        assert_eq!(inj.log_handle().snapshot().stuck_probes, 1);
    }

    #[test]
    fn blackout_unmaps_and_wins_over_stuck() {
        let plan = FaultPlan::new(0)
            .stuck(AddrRange::at(0x100), FaultWindow::always())
            .blackout(AddrRange::at(0x100), FaultWindow::between(5, 10));
        let mut inj = flat_injector(plan);
        tick_to(&mut inj, 5);
        assert_eq!(inj.latency(0x100, false), None);
        tick_to(&mut inj, 10);
        assert_eq!(inj.latency(0x100, false), Some(u32::MAX));
        let log = inj.log_handle().snapshot();
        assert_eq!(log.blackouts, 1);
        assert_eq!(log.stuck_probes, 1);
    }

    #[test]
    fn certain_bit_flip_inverts_masked_bits() {
        let plan =
            FaultPlan::new(0).bit_flip(AddrRange::at(0x40), 0x8001, 1.0, FaultWindow::always());
        let mut inj = flat_injector(plan);
        inj.write(0x40, 0x0ff0);
        assert_eq!(inj.read(0x40), 0x8ff1);
        assert_eq!(inj.read(0x41), 0, "untargeted address unaffected");
        assert_eq!(inj.log_handle().snapshot().bit_flips, 1);
    }

    #[test]
    fn probabilistic_flips_are_reproducible() {
        let run = || {
            let plan = FaultPlan::new(42).bit_flip(AddrRange::all(), 1, 0.5, FaultWindow::always());
            let mut inj = flat_injector(plan);
            let mut seen = Vec::new();
            for c in 0..64u64 {
                tick_to(&mut inj, c + 1);
                seen.push(inj.read((c % 8) as u16));
            }
            (seen, inj.log_handle().snapshot())
        };
        let (a, la) = run();
        let (b, lb) = run();
        assert_eq!(a, b, "identical plans replay identically");
        assert_eq!(la, lb);
        assert!(la.bit_flips > 8 && la.bit_flips < 56, "p=0.5 flips some");
        // A different seed decides differently somewhere.
        let plan = FaultPlan::new(43).bit_flip(AddrRange::all(), 1, 0.5, FaultWindow::always());
        let mut inj = flat_injector(plan);
        let mut other = Vec::new();
        for c in 0..64u64 {
            tick_to(&mut inj, c + 1);
            other.push(inj.read((c % 8) as u16));
        }
        assert_ne!(a, other, "seed changes the outcome sequence");
    }

    /// Bus double whose tick raises one IRQ per cycle.
    struct Chatty;
    impl DataBus for Chatty {
        fn latency(&self, _a: u16, _w: bool) -> Option<u32> {
            Some(0)
        }
        fn read(&mut self, _a: u16) -> u16 {
            0
        }
        fn write(&mut self, _a: u16, _v: u16) {}
        fn tick(&mut self, irqs: &mut Vec<IrqRequest>) {
            irqs.push(IrqRequest { stream: 1, bit: 4 });
        }
    }

    #[test]
    fn drop_irq_discards_matching_requests() {
        let plan = FaultPlan::new(0).drop_irq(1, 4, 1.0, FaultWindow::between(0, 10));
        let mut inj = FaultInjector::new(plan, Box::new(Chatty));
        let irqs = tick_to(&mut inj, 30);
        assert_eq!(irqs.len(), 21, "only the windowed requests are dropped");
        assert_eq!(inj.log_handle().snapshot().dropped_irqs, 9);
    }

    #[test]
    fn drop_irq_ignores_other_lines() {
        let plan = FaultPlan::new(0).drop_irq(0, 4, 1.0, FaultWindow::always());
        let mut inj = FaultInjector::new(plan, Box::new(Chatty));
        let irqs = tick_to(&mut inj, 10);
        assert_eq!(irqs.len(), 10, "stream mismatch: nothing dropped");
    }

    #[test]
    fn spurious_irq_fires_on_its_interval() {
        let plan = FaultPlan::new(0).spurious_irq(2, 6, 4, FaultWindow::between(8, 21));
        let mut inj = flat_injector(plan);
        let irqs = tick_to(&mut inj, 40);
        let expect = IrqRequest { stream: 2, bit: 6 };
        assert_eq!(irqs, vec![expect; 4], "cycles 8, 12, 16, 20");
        assert_eq!(inj.log_handle().snapshot().spurious_irqs, 4);
    }

    #[test]
    fn counters_name_every_field_and_cover_total() {
        let log = FaultLog {
            inflated_probes: 1,
            stuck_probes: 2,
            blackouts: 3,
            bit_flips: 4,
            dropped_irqs: 5,
            spurious_irqs: 6,
        };
        let counters = log.counters();
        let sum: u64 = counters.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, log.total(), "counters() must cover every field");
        let names: Vec<&str> = counters.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "inflated_probes",
                "stuck_probes",
                "blackouts",
                "bit_flips",
                "dropped_irqs",
                "spurious_irqs"
            ]
        );
    }

    #[test]
    fn injector_state_roundtrips_mid_window() {
        use disc_snap::ReplayableRng;
        let plan = || {
            FaultPlan::new(7)
                .bit_flip(AddrRange::all(), 1, 0.5, FaultWindow::always())
                .spurious_irq(2, 6, 4, FaultWindow::between(8, 60))
        };
        let mut inj = flat_injector(plan());
        inj.write(0x20, 0xaaaa);
        let _ = tick_to(&mut inj, 23);
        let _ = inj.read(0x20);
        let state = inj.save_state();
        let rng = inj.rng_state();

        let mut fresh = flat_injector(plan());
        fresh.restore_state(&state).expect("restore");
        assert_eq!(fresh.save_state(), state, "restored state re-serializes");
        assert_eq!(fresh.rng_state(), rng);
        // The decision streams must continue identically: same flips, same
        // spurious interrupts, same log.
        let a = tick_to(&mut inj, 70);
        let b = tick_to(&mut fresh, 70);
        assert_eq!(a, b);
        assert_eq!(inj.read(0x20), fresh.read(0x20));
        assert_eq!(inj.log_handle().snapshot(), fresh.log_handle().snapshot());

        let mut wrong = flat_injector(FaultPlan::new(8));
        assert!(wrong.restore_state(&state).is_err(), "plan mismatch");
        let mut cursor = flat_injector(plan());
        cursor.set_rng_state(&rng).expect("cursor restore");
        assert_eq!(cursor.cycle(), 23);
    }

    #[test]
    fn mix_is_a_bijective_scramble() {
        // Sanity: distinct inputs stay distinct and outputs look spread.
        let outs: Vec<u64> = (0..4).map(splitmix64).collect();
        for i in 0..outs.len() {
            for j in i + 1..outs.len() {
                assert_ne!(outs[i], outs[j]);
            }
        }
        assert!(chance(1, 0, 0, 0, 1.0));
        assert!(!chance(1, 0, 0, 0, 0.0));
    }
}
