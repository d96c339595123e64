//! Scriptable fault plans.
//!
//! A [`FaultPlan`] is a declarative list of faults, each scoped to an
//! address range and a cycle window, plus a seed for the probabilistic
//! faults. The plan is *data*, not behavior: the same plan applied by a
//! [`FaultInjector`](crate::FaultInjector) to the same workload reproduces
//! the same fault sequence byte for byte, which is what makes soak
//! campaigns debuggable — a failing seed can be replayed in isolation.

/// Inclusive external-bus address range `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRange {
    start: u16,
    end: u16,
}

impl AddrRange {
    /// Range covering `start..=end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u16, end: u16) -> Self {
        assert!(start <= end, "address range start beyond its end");
        AddrRange { start, end }
    }

    /// Single-address range.
    pub fn at(addr: u16) -> Self {
        Self::new(addr, addr)
    }

    /// The full 16-bit external address space.
    pub fn all() -> Self {
        Self::new(0, u16::MAX)
    }

    /// First covered address.
    pub fn start(&self) -> u16 {
        self.start
    }

    /// Last covered address.
    pub fn end(&self) -> u16 {
        self.end
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: u16) -> bool {
        (self.start..=self.end).contains(&addr)
    }
}

/// Half-open cycle window `[from, until)` during which a fault is active.
///
/// Cycles are counted by the injector's own
/// [`tick`](disc_core::DataBus::tick) counter, which the machine advances
/// once per simulated cycle, so
/// windows line up with [`MachineStats::cycles`](disc_core::MachineStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    from: u64,
    until: u64,
}

impl FaultWindow {
    /// Active for the whole run.
    pub fn always() -> Self {
        FaultWindow {
            from: 0,
            until: u64::MAX,
        }
    }

    /// Active from cycle `from` to the end of the run.
    pub fn from(from: u64) -> Self {
        FaultWindow {
            from,
            until: u64::MAX,
        }
    }

    /// Active for cycles `from..until`.
    ///
    /// # Panics
    ///
    /// Panics if `from > until`.
    pub fn between(from: u64, until: u64) -> Self {
        assert!(from <= until, "fault window ends before it starts");
        FaultWindow { from, until }
    }

    /// First active cycle.
    pub fn start(&self) -> u64 {
        self.from
    }

    /// First cycle past the window (`u64::MAX` for open-ended windows).
    pub fn end(&self) -> u64 {
        self.until
    }

    /// Whether the window covers `cycle`.
    pub fn contains(&self, cycle: u64) -> bool {
        cycle >= self.from && cycle < self.until
    }
}

/// What a fault does while active. Address-scoped kinds consult the
/// fault's [`AddrRange`]; the interrupt kinds ignore it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Inflate the access latency of matching addresses by `cycles`
    /// (saturating). Models a degraded peripheral or a congested bridge.
    LatencyAdd {
        /// Extra cycles added to the underlying latency.
        cycles: u32,
    },
    /// Matching addresses report a latency of `u32::MAX`: the transaction
    /// starts but never completes. Without
    /// [`abi_timeout`](disc_core::MachineConfig::abi_timeout) this wedges
    /// the issuing stream (and starves the bus) forever.
    Stuck,
    /// Read data from matching addresses is XORed with `mask` with the
    /// given per-read probability. Models marginal signal integrity.
    BitFlip {
        /// Bits to invert when the flip triggers.
        mask: u16,
        /// Per-read flip probability in `[0.0, 1.0]`.
        probability: f64,
    },
    /// Matching addresses report as unmapped (`latency` returns `None`).
    /// Under [`BusFaultPolicy::Fault`](disc_core::BusFaultPolicy) the
    /// access aborts with a bus-error interrupt; under `Legacy` it
    /// completes with open-bus semantics.
    Blackout,
    /// Interrupt requests from the wrapped bus matching (`stream`, `bit`)
    /// are discarded with the given probability. Models a flaky interrupt
    /// line.
    DropIrq {
        /// Stream whose requests are eligible.
        stream: usize,
        /// IR bit whose requests are eligible.
        bit: u8,
        /// Per-request drop probability in `[0.0, 1.0]`.
        probability: f64,
    },
    /// A phantom interrupt (`stream`, `bit`) is injected every `interval`
    /// cycles while the window is active (first at the window start).
    /// Models EMI glitches on an interrupt line.
    SpuriousIrq {
        /// Stream to interrupt.
        stream: usize,
        /// IR bit to raise.
        bit: u8,
        /// Cycles between injections.
        interval: u64,
    },
}

/// One scheduled fault: a kind, the addresses it applies to, and the
/// cycle window during which it is live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What the fault does.
    pub kind: FaultKind,
    /// Addresses it applies to (ignored by the interrupt kinds).
    pub range: AddrRange,
    /// When it is active.
    pub window: FaultWindow,
}

/// A seeded, ordered collection of [`Fault`]s.
///
/// Build one with the fluent methods and hand it to
/// [`FaultInjector::new`](crate::FaultInjector::new):
///
/// ```
/// use disc_faults::{AddrRange, FaultPlan, FaultWindow};
///
/// let plan = FaultPlan::new(0xdead_beef)
///     .stuck(AddrRange::at(0x8000), FaultWindow::between(1_000, 2_000))
///     .bit_flip(AddrRange::new(0x9000, 0x90ff), 0x0004, 0.01, FaultWindow::always());
/// assert_eq!(plan.faults().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Empty plan with the given seed for the probabilistic faults.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds an arbitrary fault.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds a [`FaultKind::LatencyAdd`] fault.
    pub fn latency_add(self, range: AddrRange, cycles: u32, window: FaultWindow) -> Self {
        self.with(Fault {
            kind: FaultKind::LatencyAdd { cycles },
            range,
            window,
        })
    }

    /// Adds a [`FaultKind::Stuck`] fault.
    pub fn stuck(self, range: AddrRange, window: FaultWindow) -> Self {
        self.with(Fault {
            kind: FaultKind::Stuck,
            range,
            window,
        })
    }

    /// Adds a [`FaultKind::BitFlip`] fault.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0.0, 1.0]`.
    pub fn bit_flip(
        self,
        range: AddrRange,
        mask: u16,
        probability: f64,
        window: FaultWindow,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "flip probability out of range"
        );
        self.with(Fault {
            kind: FaultKind::BitFlip { mask, probability },
            range,
            window,
        })
    }

    /// Adds a [`FaultKind::Blackout`] fault.
    pub fn blackout(self, range: AddrRange, window: FaultWindow) -> Self {
        self.with(Fault {
            kind: FaultKind::Blackout,
            range,
            window,
        })
    }

    /// Adds a [`FaultKind::DropIrq`] fault.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0.0, 1.0]` or `bit >= 8`.
    pub fn drop_irq(self, stream: usize, bit: u8, probability: f64, window: FaultWindow) -> Self {
        assert!(bit < 8, "interrupt bit out of range");
        assert!(
            (0.0..=1.0).contains(&probability),
            "drop probability out of range"
        );
        self.with(Fault {
            kind: FaultKind::DropIrq {
                stream,
                bit,
                probability,
            },
            range: AddrRange::all(),
            window,
        })
    }

    /// Adds a [`FaultKind::SpuriousIrq`] fault.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `bit >= 8`.
    pub fn spurious_irq(self, stream: usize, bit: u8, interval: u64, window: FaultWindow) -> Self {
        assert!(bit < 8, "interrupt bit out of range");
        assert!(interval > 0, "spurious-irq interval must be nonzero");
        self.with(Fault {
            kind: FaultKind::SpuriousIrq {
                stream,
                bit,
                interval,
            },
            range: AddrRange::all(),
            window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_containment() {
        let r = AddrRange::new(0x100, 0x1ff);
        assert!(r.contains(0x100));
        assert!(r.contains(0x1ff));
        assert!(!r.contains(0x0ff));
        assert!(!r.contains(0x200));
        assert!(AddrRange::at(0x42).contains(0x42));
        assert!(AddrRange::all().contains(0xffff));
    }

    #[test]
    #[should_panic(expected = "start beyond its end")]
    fn inverted_range_rejected() {
        let _ = AddrRange::new(2, 1);
    }

    #[test]
    fn window_containment() {
        let w = FaultWindow::between(10, 20);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(FaultWindow::always().contains(0));
        assert!(FaultWindow::from(5).contains(u64::MAX - 1));
        assert!(!FaultWindow::from(5).contains(4));
    }

    #[test]
    fn builder_collects_in_order() {
        let plan = FaultPlan::new(7)
            .latency_add(AddrRange::at(1), 10, FaultWindow::always())
            .stuck(AddrRange::at(2), FaultWindow::from(100))
            .drop_irq(0, 5, 1.0, FaultWindow::always());
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.faults().len(), 3);
        assert!(matches!(
            plan.faults()[0].kind,
            FaultKind::LatencyAdd { cycles: 10 }
        ));
        assert!(matches!(plan.faults()[1].kind, FaultKind::Stuck));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bogus_probability_rejected() {
        let _ = FaultPlan::new(0).bit_flip(AddrRange::all(), 1, 1.5, FaultWindow::always());
    }
}
