//! Machine configuration.

use crate::scheduler::SchedulePolicy;

/// How the machine reacts to external-bus faults: accesses to addresses no
/// peripheral decodes, and (under [`BusFaultPolicy::Fault`]) transactions
/// that exceed [`MachineConfig::abi_timeout`].
///
/// The paper's whole pitch is hard real-time isolation: a stalled or
/// misbehaving peripheral must suspend *only* the requesting stream
/// (§3.6.1). [`BusFaultPolicy::Fault`] gives that property teeth — a bad
/// access aborts, frees the single-transaction bus, wakes the stream and
/// delivers a per-stream bus-error interrupt on
/// [`MachineConfig::bus_error_bit`] — instead of silently completing
/// (unmapped) or hanging the stream forever (stuck peripheral).
///
/// Fault events are always visible in
/// [`MachineStats`](crate::MachineStats) (`unmapped_accesses`,
/// `abi_timeouts`, `bus_faults`) and in the cycle trace
/// ([`TraceEvent::BusFault`](crate::TraceEvent::BusFault)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BusFaultPolicy {
    /// Historical behavior, preserved bit-for-bit for differential tests:
    /// an unmapped external access is treated as a zero-latency access and
    /// handed to the bus anyway (an address-decoded bus then reads open-bus
    /// `0xffff` and drops writes), and a transaction never times out — a
    /// peripheral that never completes wedges its stream. Unmapped
    /// accesses are still *counted* in
    /// [`MachineStats::unmapped_accesses`](crate::MachineStats::unmapped_accesses).
    #[default]
    Legacy,
    /// Robust semantics: an unmapped access aborts without touching the
    /// bus, and a transaction outstanding longer than
    /// [`MachineConfig::abi_timeout`] cycles is aborted, freeing the bus
    /// and waking every waiting stream. Both deliver a bus-error interrupt
    /// on the faulting stream's [`MachineConfig::bus_error_bit`]. A
    /// faulted load leaves its destination register unchanged (the
    /// scoreboard entry is released); a faulted store is dropped; the
    /// instruction's window adjustment still applies so frame bookkeeping
    /// stays balanced.
    Fault,
}

/// How [`Machine::run`](crate::Machine::run) advances simulated time.
///
/// The default steps every cycle through the full pipeline model.
/// [`StepMode::EventSkip`] fast-forwards through *quiescent* stretches —
/// cycles where no stream can issue because everything is suspended on a
/// bus transaction, stalled by spill traffic, or dormant awaiting an
/// interrupt — by computing the next architecturally observable event
/// (ABI completion/timeout, peripheral countdowns via
/// [`DataBus::next_event`](crate::DataBus::next_event), sampling-sink
/// boundaries) and bulk-updating every counter exactly as if the cycles
/// had been stepped singly. Final architectural state, statistics and
/// cycle attribution are identical in both modes; only wall-clock time
/// differs. A trace sink that needs every cycle (the default for
/// [`TraceSink`](crate::TraceSink)) pins skipping off while attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StepMode {
    /// Execute every cycle through the pipeline model (default).
    #[default]
    CycleByCycle,
    /// Fast-forward through quiescent cycles to the next wake event.
    EventSkip,
}

/// An inert shim: [`Machine::run`](crate::Machine::run) covers every
/// hazard-frozen stretch with a superblock burst under both values.
///
/// The enum, [`MachineConfig::dispatch_mode`] and
/// [`MachineConfig::with_dispatch_mode`] remain only because the
/// repository benchmark still names them; they go once it is ported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// The default; no effect.
    #[default]
    Superblock,
    /// No effect: `run` bursts exactly as under
    /// [`DispatchMode::Superblock`].
    Legacy,
}

/// Policy applied when a stream's window stack outgrows the physical
/// register file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Hardware spills the oldest resident window registers to backing
    /// store (and fills them back on demand), stalling the stream one cycle
    /// per transferred word. This models the paper's variable-sized
    /// multi-window organization with a background spill engine.
    #[default]
    AutoSpill,
    /// Overflow raises the stream's stack-fault interrupt (IR bit 6) and
    /// the window wraps; software is responsible for spilling.
    Fault,
}

/// Configuration of a [`Machine`](crate::Machine).
///
/// Use [`MachineConfig::disc1`] for the configuration of the paper's
/// experimental implementation, or start from [`MachineConfig::default`]
/// and override fields through the builder-style setters.
///
/// # Example
///
/// ```
/// use disc_core::{MachineConfig, SchedulePolicy};
///
/// let cfg = MachineConfig::disc1()
///     .with_streams(2)
///     .with_schedule(SchedulePolicy::round_robin(2));
/// assert_eq!(cfg.streams, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of resident instruction streams (1..=8). DISC1 supports 4.
    pub streams: usize,
    /// Pipeline depth in stages (3..=8). DISC1 uses 4: IF, RD, EX, WR.
    /// Jumps and external accesses resolve in the next-to-last stage.
    pub pipeline_depth: usize,
    /// Scheduler policy. DISC1 uses a 16-slot sequence table giving
    /// 1/16-granularity throughput partitioning.
    pub schedule: SchedulePolicy,
    /// Internal (on-chip, single-cycle) data memory size in 16-bit words.
    /// DISC1 has 2 KB = 1024 words. Data addresses below this value decode
    /// to internal memory; all others go through the asynchronous bus
    /// interface.
    pub internal_words: usize,
    /// Physical depth of each stream's stack-window register file.
    pub window_depth: usize,
    /// Overflow handling for the stack-window file.
    pub window_policy: WindowPolicy,
    /// Access latency in cycles of the built-in flat external memory used
    /// when no explicit bus is supplied (the paper's `tmem`).
    pub default_ext_latency: u32,
    /// Reaction to unmapped accesses and bus-transaction timeouts.
    pub bus_fault: BusFaultPolicy,
    /// Cycles an external transaction may stay outstanding before it is
    /// aborted under [`BusFaultPolicy::Fault`]; `0` disables the timeout.
    /// Ignored under [`BusFaultPolicy::Legacy`].
    pub abi_timeout: u64,
    /// IR bit (1..=7) that receives the per-stream bus-error interrupt
    /// under [`BusFaultPolicy::Fault`]. Defaults to 5, below the
    /// stack-fault bit (6) and the conventional watchdog/NMI bit (7).
    pub bus_error_bit: u8,
    /// How [`Machine::run`](crate::Machine::run) advances time. The
    /// default cycle-by-cycle mode is byte-identical to historical
    /// behavior; [`StepMode::EventSkip`] is an opt-in performance mode.
    pub step_mode: StepMode,
    /// Inert: see [`DispatchMode`].
    pub dispatch_mode: DispatchMode,
}

impl MachineConfig {
    /// The DISC1 configuration from the paper: 4 streams, 4-stage
    /// pipeline, even 16-slot round-robin schedule, 2 KB internal memory,
    /// 64-deep window stacks with hardware spill.
    pub fn disc1() -> Self {
        MachineConfig {
            streams: 4,
            pipeline_depth: 4,
            schedule: SchedulePolicy::round_robin(4),
            internal_words: 1024,
            window_depth: 64,
            window_policy: WindowPolicy::AutoSpill,
            default_ext_latency: 2,
            bus_fault: BusFaultPolicy::Legacy,
            abi_timeout: 0,
            bus_error_bit: 5,
            step_mode: StepMode::CycleByCycle,
            dispatch_mode: DispatchMode::Superblock,
        }
    }

    /// Sets the number of streams and rebuilds a matching round-robin
    /// schedule (call [`with_schedule`](Self::with_schedule) afterwards to
    /// override).
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.streams = streams;
        // `validate` rejects zero streams; keep the builder panic-free.
        self.schedule = SchedulePolicy::round_robin(streams.max(1));
        self
    }

    /// Sets the pipeline depth.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Sets the scheduler policy.
    pub fn with_schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the window register file depth.
    pub fn with_window_depth(mut self, depth: usize) -> Self {
        self.window_depth = depth;
        self
    }

    /// Sets the window overflow policy.
    pub fn with_window_policy(mut self, policy: WindowPolicy) -> Self {
        self.window_policy = policy;
        self
    }

    /// Sets the latency of the default flat external memory.
    pub fn with_default_ext_latency(mut self, latency: u32) -> Self {
        self.default_ext_latency = latency;
        self
    }

    /// Sets the bus-fault policy.
    pub fn with_bus_fault(mut self, policy: BusFaultPolicy) -> Self {
        self.bus_fault = policy;
        self
    }

    /// Sets the transaction timeout in cycles (`0` disables it) applied
    /// under [`BusFaultPolicy::Fault`].
    pub fn with_abi_timeout(mut self, cycles: u64) -> Self {
        self.abi_timeout = cycles;
        self
    }

    /// Sets the IR bit delivering bus-error interrupts.
    pub fn with_bus_error_bit(mut self, bit: u8) -> Self {
        self.bus_error_bit = bit;
        self
    }

    /// Sets the stepping mode used by [`Machine::run`](crate::Machine::run).
    pub fn with_step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = mode;
        self
    }

    /// Sets the inert [`DispatchMode`] shim; `run` behaves the same
    /// under both values.
    pub fn with_dispatch_mode(mut self, mode: DispatchMode) -> Self {
        self.dispatch_mode = mode;
        self
    }

    /// Deterministic 64-bit fingerprint of this configuration. Every
    /// field (including the full schedule contents) folds into the hash,
    /// so two configs fingerprint equal iff they simulate identically.
    /// [`step_mode`](Self::step_mode) is deliberately *excluded*: it
    /// changes how fast the simulator walks the cycle count, never the
    /// architectural outcome — which is what lets one warm snapshot fork
    /// into either step mode. The inert
    /// [`dispatch_mode`](Self::dispatch_mode) is excluded too.
    ///
    /// This is the fingerprint embedded in `disc-snap/v2` headers; the
    /// `disc-obs` report fingerprint renders the same value as hex.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x44495343; // "DISC"
        let mut fold = |v: u64| h = disc_snap::splitmix64(h ^ v);
        fold(self.streams as u64);
        fold(self.pipeline_depth as u64);
        match &self.schedule {
            SchedulePolicy::Sequence(slots) => {
                fold(1);
                fold(slots.len() as u64);
                for &s in slots {
                    fold(u64::from(s));
                }
            }
            SchedulePolicy::WeightedDeficit(weights) => {
                fold(2);
                fold(weights.len() as u64);
                for &w in weights {
                    fold(u64::from(w));
                }
            }
        }
        fold(self.internal_words as u64);
        fold(self.window_depth as u64);
        fold(match self.window_policy {
            WindowPolicy::AutoSpill => 1,
            WindowPolicy::Fault => 2,
        });
        fold(u64::from(self.default_ext_latency));
        fold(match self.bus_fault {
            BusFaultPolicy::Legacy => 1,
            BusFaultPolicy::Fault => 2,
        });
        fold(self.abi_timeout);
        fold(u64::from(self.bus_error_bit));
        h
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics when a field is out of its supported range; called by
    /// [`Machine::new`](crate::Machine::new).
    pub fn validate(&self) {
        assert!(
            (1..=disc_isa::MAX_STREAMS).contains(&self.streams),
            "streams must be 1..=8, got {}",
            self.streams
        );
        assert!(
            (3..=8).contains(&self.pipeline_depth),
            "pipeline depth must be 3..=8, got {}",
            self.pipeline_depth
        );
        assert!(
            self.internal_words >= 16 && self.internal_words <= 0x8000,
            "internal memory must be 16..=32768 words"
        );
        assert!(
            self.window_depth > disc_isa::WINDOW_REGS,
            "window depth must exceed the visible window size"
        );
        assert!(
            (1..8).contains(&self.bus_error_bit),
            "bus error bit must be 1..=7 (bit 0 never vectors), got {}",
            self.bus_error_bit
        );
        self.schedule.validate(self.streams);
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::disc1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disc1_matches_paper() {
        let c = MachineConfig::disc1();
        assert_eq!(c.streams, disc_isa::DISC1_STREAMS);
        assert_eq!(c.pipeline_depth, 4);
        assert_eq!(c.internal_words, 1024); // 2 KB of 16-bit words
        c.validate();
    }

    #[test]
    fn builder_setters() {
        let c = MachineConfig::disc1()
            .with_streams(2)
            .with_pipeline_depth(5)
            .with_window_depth(16)
            .with_window_policy(WindowPolicy::Fault)
            .with_default_ext_latency(7);
        assert_eq!(c.streams, 2);
        assert_eq!(c.pipeline_depth, 5);
        assert_eq!(c.window_depth, 16);
        assert_eq!(c.window_policy, WindowPolicy::Fault);
        assert_eq!(c.default_ext_latency, 7);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "streams must be")]
    fn zero_streams_rejected() {
        MachineConfig::disc1().with_streams(0).validate();
    }

    #[test]
    #[should_panic(expected = "pipeline depth")]
    fn shallow_pipeline_rejected() {
        MachineConfig::disc1().with_pipeline_depth(2).validate();
    }

    #[test]
    fn disc1_defaults_to_legacy_faults() {
        let c = MachineConfig::disc1();
        assert_eq!(c.bus_fault, BusFaultPolicy::Legacy);
        assert_eq!(c.abi_timeout, 0);
        assert_eq!(c.bus_error_bit, 5);
    }

    #[test]
    fn fault_builder_setters() {
        let c = MachineConfig::disc1()
            .with_bus_fault(BusFaultPolicy::Fault)
            .with_abi_timeout(64)
            .with_bus_error_bit(4);
        assert_eq!(c.bus_fault, BusFaultPolicy::Fault);
        assert_eq!(c.abi_timeout, 64);
        assert_eq!(c.bus_error_bit, 4);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "bus error bit")]
    fn background_bus_error_bit_rejected() {
        MachineConfig::disc1().with_bus_error_bit(0).validate();
    }

    #[test]
    fn fingerprint_ignores_timing_knobs() {
        let base = MachineConfig::disc1();
        let fp = base.fingerprint();
        for step in [StepMode::CycleByCycle, StepMode::EventSkip] {
            assert_eq!(base.clone().with_step_mode(step).fingerprint(), fp);
        }
        assert_ne!(base.clone().with_streams(2).fingerprint(), fp);
        assert_ne!(base.clone().with_abi_timeout(9).fingerprint(), fp);
    }
}
