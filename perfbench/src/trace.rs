//! In-memory span recording for the traced run, span self time, and the
//! delegating data-bus wrapper that counts every bus call and times a
//! fixed sample of them.
//!
//! Spans are recorded around calls into the repository's public API from
//! the benchmark's own code and kept in memory until the run ends. Bus
//! calls happen once per simulated cycle, far too often for one span
//! each, so [`TracedBus`] aggregates them into a [`BusLedger`] and the
//! enclosing span carries their summed time as `inner_ns`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use disc_core::{DataBus, IrqRequest};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Session or machine the span belongs to.
    pub owner: u64,
    /// Time spent in child calls that were aggregated instead of recorded
    /// as spans (bus calls inside a `run`).
    pub inner_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        owner: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            owner,
            inner_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Adds aggregated child time (see [`Span::inner_ns`]) to a span.
    pub fn add_inner(&mut self, id: Option<SpanId>, ns: u64) {
        if let Some(id) = id {
            self.spans[id].inner_ns += ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        owner: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, owner, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same epoch), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (overlapping children count once) minus its
/// aggregated `inner_ns`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            let covered = covered_ns(span.start_ns, span.end_ns, &mut kids);
            span.duration_ns()
                .saturating_sub(covered)
                .saturating_sub(span.inner_ns)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Bus call kinds the ledger separates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusCall {
    Tick,
    NextEvent,
    Advance,
    /// `latency`, `read` and `write`: simulated traffic.
    Access,
}

const BUS_CALLS: usize = 4;

/// One bus call in this many is timed; every call is counted. Timing
/// each call would cost more than many calls take (the clock read is
/// ~20 ns, a `tick` a few ns), so the ledger scales the timed sample up.
pub const TIME_EVERY: u64 = 8;

/// Median cost of an empty timed region, subtracted from every timed
/// bus call so the clock's own cost is not billed to the bus.
fn clock_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut d: Vec<u64> = (0..1001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        d.sort_unstable();
        d[d.len() / 2]
    })
}

/// Call counts and (sampled, scaled) host time per [`BusCall`] for one
/// or more machines.
///
/// Each counter has a single writer (the thread running the machine), so
/// updates are a plain load and store; other threads read it only after
/// that machine's run has returned.
#[derive(Debug, Default)]
pub struct BusLedger {
    calls: [AtomicU64; BUS_CALLS],
    ns: [AtomicU64; BUS_CALLS],
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

impl BusLedger {
    /// Counts a call; returns its start time when this call is timed.
    fn start(&self, call: BusCall) -> Option<Instant> {
        let calls = &self.calls[call as usize];
        let n = calls.load(Ordering::Relaxed);
        calls.store(n + 1, Ordering::Relaxed);
        n.is_multiple_of(TIME_EVERY).then(Instant::now)
    }

    fn finish(&self, call: BusCall, started: Option<Instant>) {
        if let Some(t) = started {
            let ns = (t.elapsed().as_nanos() as u64).saturating_sub(clock_floor_ns());
            bump(&self.ns[call as usize], ns * TIME_EVERY);
        }
    }

    pub fn calls(&self, call: BusCall) -> u64 {
        self.calls[call as usize].load(Ordering::Relaxed)
    }

    /// Estimated host nanoseconds spent inside every bus call so far.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }
}

/// Delegating [`DataBus`] that counts every call into the wrapped bus
/// and times one in [`TIME_EVERY`]. State hooks (`save_state` and
/// `restore_state`) forward untimed, so snapshots are byte-identical to
/// an unwrapped machine's.
pub struct TracedBus {
    inner: Box<dyn DataBus>,
    ledger: Arc<BusLedger>,
}

impl TracedBus {
    pub fn new(inner: Box<dyn DataBus>, ledger: Arc<BusLedger>) -> Self {
        TracedBus { inner, ledger }
    }
}

impl DataBus for TracedBus {
    fn latency(&self, addr: u16, write: bool) -> Option<u32> {
        let t = self.ledger.start(BusCall::Access);
        let out = self.inner.latency(addr, write);
        self.ledger.finish(BusCall::Access, t);
        out
    }

    fn read(&mut self, addr: u16) -> u16 {
        let t = self.ledger.start(BusCall::Access);
        let out = self.inner.read(addr);
        self.ledger.finish(BusCall::Access, t);
        out
    }

    fn write(&mut self, addr: u16, value: u16) {
        let t = self.ledger.start(BusCall::Access);
        self.inner.write(addr, value);
        self.ledger.finish(BusCall::Access, t);
    }

    fn tick(&mut self, irqs: &mut Vec<IrqRequest>) {
        let t = self.ledger.start(BusCall::Tick);
        self.inner.tick(irqs);
        self.ledger.finish(BusCall::Tick, t);
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        let t = self.ledger.start(BusCall::NextEvent);
        let out = self.inner.next_event(now);
        self.ledger.finish(BusCall::NextEvent, t);
        out
    }

    fn advance(&mut self, cycles: u64) {
        let t = self.ledger.start(BusCall::Advance);
        self.inner.advance(cycles);
        self.ledger.finish(BusCall::Advance, t);
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            owner: 0,
            inner_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100) > child [10,40) > grandchild [15,25)
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50) and [30,70) overlap on [30,50): together they
        // cover 60ns, not 80ns. A child sticking out of its parent is
        // clipped to the parent.
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn self_time_subtracts_aggregated_inner_time() {
        let mut root = span(0, 100, None);
        root.inner_ns = 30;
        let spans = vec![root, span(0, 20, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 20]);
    }

    #[test]
    fn absorb_rebases_parents_and_disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.begin("a", 1, None);
        a.end(root);
        let mut b = Tracer::new(true, epoch);
        let p = b.begin("b", 2, None);
        let c = b.begin("c", 2, p);
        b.end(c);
        b.end(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.time("x", 0, None, || 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn traced_bus_is_passive_and_counts_calls() {
        let ledger = Arc::new(BusLedger::default());
        let mut bus = TracedBus::new(Box::new(disc_core::FlatBus::new(3)), Arc::clone(&ledger));
        let mut plain = disc_core::FlatBus::new(3);
        bus.write(0x8000, 9);
        plain.write(0x8000, 9);
        assert_eq!(bus.read(0x8000), 9);
        assert_eq!(bus.latency(0x8000, false), Some(3));
        bus.tick(&mut Vec::new());
        assert_eq!(bus.next_event(5), None);
        bus.advance(4);
        assert_eq!(bus.save_state(), plain.save_state());
        assert_eq!(ledger.calls(BusCall::Access), 3);
        assert_eq!(ledger.calls(BusCall::Tick), 1);
        assert_eq!(ledger.calls(BusCall::NextEvent), 1);
        assert_eq!(ledger.calls(BusCall::Advance), 1);
    }
}
