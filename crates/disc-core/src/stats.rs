//! Execution statistics collected by the machine.

use disc_snap::{splitmix64, SnapError, SnapReader, SnapWriter};

/// Maximum number of individual latency samples retained for percentile
/// reporting. Runs with more recorded interrupts keep a uniform reservoir
/// of this size; the count / sum / max aggregates stay exact regardless.
pub const IRQ_LATENCY_RESERVOIR: usize = 512;

/// Bounded aggregate of measured interrupt latencies.
///
/// The machine used to push every latency into an unbounded `Vec`, which
/// grows without limit on interrupt-heavy workloads. This keeps exact
/// count/sum/max plus a deterministic uniform reservoir of up to
/// `IRQ_LATENCY_RESERVOIR` samples for percentile estimates. For runs
/// that record at most that many latencies (all current experiments), the
/// samples are the complete sequence and percentiles are exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IrqLatencyStats {
    count: u64,
    sum: u64,
    max: Option<u64>,
    samples: Vec<u64>,
}

impl IrqLatencyStats {
    /// Records one measured latency.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.max = Some(self.max.map_or(latency, |m| m.max(latency)));
        if self.samples.len() < IRQ_LATENCY_RESERVOIR {
            self.samples.push(latency);
        } else {
            // Algorithm R with a deterministic pseudo-random index so two
            // identical runs keep identical reservoirs.
            let j = (splitmix64(self.count) % self.count) as usize;
            if j < self.samples.len() {
                self.samples[j] = latency;
            }
        }
    }

    /// Number of latencies recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no latency has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency across all recorded interrupts.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Worst-case latency across all recorded interrupts.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Retained samples, in recording order (complete when
    /// `count <= IRQ_LATENCY_RESERVOIR`).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Nearest-rank percentile over the retained samples. `p` in 0..=100.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// Serializes the aggregate plus the reservoir contents
    /// (`disc-snap/v2` component). The reservoir replacement index is a
    /// pure function of `count`, so restoring these four fields resumes
    /// the deterministic sampling stream exactly.
    pub(crate) fn save_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_opt_u64(self.max);
        w.put_usize(self.samples.len());
        for &s in &self.samples {
            w.put_u64(s);
        }
    }

    /// Restores state written by [`save_into`](Self::save_into).
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.count = r.get_u64()?;
        self.sum = r.get_u64()?;
        self.max = r.get_opt_u64()?;
        let n = r.get_usize()?;
        if n > IRQ_LATENCY_RESERVOIR {
            return Err(SnapError::Corrupt(format!(
                "latency reservoir of {n} samples exceeds the {IRQ_LATENCY_RESERVOIR} cap"
            )));
        }
        self.samples.clear();
        for _ in 0..n {
            self.samples.push(r.get_u64()?);
        }
        Ok(())
    }
}

/// Names of the cycle-attribution buckets, in the order returned by
/// [`CycleAttribution::buckets`].
pub const ATTRIBUTION_BUCKETS: [&str; 7] = [
    "issue",
    "hazard-stall",
    "bus-txn-wait",
    "bus-free-wait",
    "spill-stall",
    "idle",
    "not-scheduled",
];

/// Per-stream attribution of every elapsed machine cycle.
///
/// Each cycle, every stream is classified into exactly one bucket, so for
/// every stream the buckets sum to the elapsed cycle count — the
/// accounting invariant the paper's measurement claims (PD shares,
/// partition isolation, interference analysis) rest on. Classification
/// priority, first match wins:
///
/// 1. **issue** — the stream's instruction entered the pipeline;
/// 2. **bus-txn-wait** — waiting on its own outstanding bus transaction;
/// 3. **bus-free-wait** — waiting for the single-transaction bus to free;
/// 4. **spill-stall** — stalled by stack-window spill/fill traffic;
/// 5. **hazard-stall** — probed by the scheduler but held back by a
///    same-stream data hazard;
/// 6. **idle** — inactive (no unmasked IR bit set);
/// 7. **not-scheduled** — active and issuable, but the slot went to
///    another stream.
///
/// Because issue takes priority, `spill_stall`/`hazard_stall` here count
/// cycles the stream was stalled *and did not issue*; the flat
/// [`MachineStats`] counters keep their historical definitions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles the stream issued an instruction.
    pub issue: Vec<u64>,
    /// Cycles lost to a same-stream data hazard at the issue probe.
    pub hazard_stall: Vec<u64>,
    /// Cycles waiting on the stream's own bus transaction.
    pub bus_txn_wait: Vec<u64>,
    /// Cycles waiting for the bus to free after a cancelled access.
    pub bus_free_wait: Vec<u64>,
    /// Cycles stalled by window spill/fill traffic.
    pub spill_stall: Vec<u64>,
    /// Cycles the stream was inactive.
    pub idle: Vec<u64>,
    /// Cycles the stream was runnable but another stream got the slot.
    pub not_scheduled: Vec<u64>,
}

impl CycleAttribution {
    /// Creates zeroed attribution for `streams` streams.
    pub fn new(streams: usize) -> Self {
        CycleAttribution {
            issue: vec![0; streams],
            hazard_stall: vec![0; streams],
            bus_txn_wait: vec![0; streams],
            bus_free_wait: vec![0; streams],
            spill_stall: vec![0; streams],
            idle: vec![0; streams],
            not_scheduled: vec![0; streams],
        }
    }

    /// Number of streams tracked.
    pub fn streams(&self) -> usize {
        self.issue.len()
    }

    /// The seven bucket values of stream `s`, ordered as
    /// [`ATTRIBUTION_BUCKETS`].
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn buckets(&self, s: usize) -> [u64; 7] {
        [
            self.issue[s],
            self.hazard_stall[s],
            self.bus_txn_wait[s],
            self.bus_free_wait[s],
            self.spill_stall[s],
            self.idle[s],
            self.not_scheduled[s],
        ]
    }

    /// Total cycles attributed to stream `s` (must equal the elapsed cycle
    /// count of the run).
    pub fn total(&self, s: usize) -> u64 {
        self.buckets(s).iter().sum()
    }

    /// Checks the accounting invariant: every stream's buckets sum to
    /// `cycles`. Returns one message per violating stream.
    pub fn check(&self, cycles: u64) -> Result<(), Vec<String>> {
        let bad: Vec<String> = (0..self.streams())
            .filter(|&s| self.total(s) != cycles)
            .map(|s| {
                format!(
                    "stream {s}: buckets sum to {} but {cycles} cycles elapsed",
                    self.total(s)
                )
            })
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }

    /// Serializes all seven buckets (`disc-snap/v2` component).
    pub(crate) fn save_into(&self, w: &mut SnapWriter) {
        for bucket in [
            &self.issue,
            &self.hazard_stall,
            &self.bus_txn_wait,
            &self.bus_free_wait,
            &self.spill_stall,
            &self.idle,
            &self.not_scheduled,
        ] {
            save_u64_vec(w, bucket);
        }
    }

    /// Restores state written by [`save_into`](Self::save_into) onto an
    /// attribution of the same stream count.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for bucket in [
            &mut self.issue,
            &mut self.hazard_stall,
            &mut self.bus_txn_wait,
            &mut self.bus_free_wait,
            &mut self.spill_stall,
            &mut self.idle,
            &mut self.not_scheduled,
        ] {
            restore_u64_vec(r, bucket)?;
        }
        Ok(())
    }

    /// Renders the per-stream breakdown as a fixed-width table, one row
    /// per stream, one column per bucket, each cell the share of elapsed
    /// cycles in percent.
    pub fn table(&self) -> String {
        let mut out = String::from("stream ");
        for b in ATTRIBUTION_BUCKETS {
            out.push_str(&format!("{b:>14}"));
        }
        out.push_str(&format!("{:>12}\n", "cycles"));
        for s in 0..self.streams() {
            let total = self.total(s).max(1);
            out.push_str(&format!("s{s:<6}"));
            for v in self.buckets(s) {
                out.push_str(&format!("{:>13.1}%", v as f64 / total as f64 * 100.0));
            }
            out.push_str(&format!("{:>12}\n", self.total(s)));
        }
        out
    }
}

/// Counters describing how much time
/// [`StepMode::EventSkip`](crate::StepMode::EventSkip) fast-forwarded.
///
/// Kept separate from [`MachineStats`] on purpose: the architectural
/// statistics must compare equal between step modes, while skip counters
/// are zero in cycle-by-cycle mode by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Number of fast-forward jumps performed.
    pub skips: u64,
    /// Total cycles covered by those jumps (each also counted in
    /// [`MachineStats::cycles`] as bubbles).
    pub cycles_skipped: u64,
}

impl SkipStats {
    /// Mean skip length in cycles, if any skip happened.
    pub fn mean_skip(&self) -> Option<f64> {
        if self.skips == 0 {
            None
        } else {
            Some(self.cycles_skipped as f64 / self.skips as f64)
        }
    }
}

/// Counters describing how much work [`Machine::run`](crate::Machine::run)
/// ran through its superblock fast path.
///
/// Kept separate from [`MachineStats`] on purpose, like [`SkipStats`]: the
/// architectural statistics must compare equal between `run` and the
/// plain [`Machine::step`](crate::Machine::step) loop, while these
/// counters are zero under the step loop by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperblockStats {
    /// Superblock runs entered (a run covers at least one cycle).
    pub bursts: u64,
    /// Machine cycles covered by superblock runs (each also counted in
    /// [`MachineStats::cycles`], exactly as if stepped singly).
    pub burst_cycles: u64,
    /// Instructions issued from inside superblock runs.
    pub burst_issues: u64,
    /// Eligibility probes that failed — the machine held a hazard (bus
    /// transaction, spill, deliverable interrupt, unsafe in-flight op,
    /// attached trace sink) so the cycle fell back to the slow path.
    pub entry_rejects: u64,
}

impl SuperblockStats {
    /// Share of `total_cycles` covered by superblock runs (the superblock
    /// *hit rate*), in `0.0..=1.0`.
    pub fn hit_rate(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.burst_cycles as f64 / total_cycles as f64
        }
    }

    /// Mean superblock run length in cycles, if any run happened.
    pub fn mean_burst(&self) -> Option<f64> {
        if self.bursts == 0 {
            None
        } else {
            Some(self.burst_cycles as f64 / self.bursts as f64)
        }
    }
}

/// Counters describing one simulation run.
///
/// The headline metric is [`utilization`](MachineStats::utilization) — the
/// paper's `PD`, *"processor utilization on DISC"*: completed instructions
/// divided by elapsed cycles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Elapsed machine cycles.
    pub cycles: u64,
    /// Instructions retired, per stream.
    pub retired: Vec<u64>,
    /// Cycles in which no stream could issue (pipeline bubble).
    pub bubbles: u64,
    /// Instructions flushed because a same-stream jump resolved.
    pub flushed_jump: u64,
    /// Instructions flushed because a same-stream external access started.
    pub flushed_io: u64,
    /// Instructions flushed because an external access found the bus busy
    /// and was cancelled.
    pub flushed_bus_busy: u64,
    /// Instructions flushed because a vectored interrupt preempted the
    /// stream.
    pub flushed_irq: u64,
    /// Cycles streams spent waiting for their own bus transaction.
    pub wait_txn_cycles: Vec<u64>,
    /// Cycles streams spent waiting for the bus to free.
    pub wait_bus_free_cycles: Vec<u64>,
    /// Cycles streams spent stalled on window spill/fill traffic.
    pub spill_stall_cycles: Vec<u64>,
    /// Cycles a stream was probed for issue but held back by a
    /// same-stream data hazard (its slot was reallocated or bubbled).
    /// Streams the scheduler never considered that cycle are not counted.
    pub hazard_stalls: Vec<u64>,
    /// Vectored interrupts taken, per stream.
    pub vectors_taken: Vec<u64>,
    /// Interrupt latencies in cycles (raise → first handler fetch),
    /// aggregated with a bounded sample reservoir.
    pub irq_latency: IrqLatencyStats,
    /// Scheduler slot reallocations performed (a blocked stream's slot
    /// handed to another ready stream).
    pub reallocations: u64,
    /// Jump-type instructions executed (taken or not).
    pub flow_instructions: u64,
    /// External bus transactions issued.
    pub external_accesses: u64,
    /// `fork` instructions that targeted an already-active stream and only
    /// set its background bit.
    pub forks_ignored: u64,
    /// External accesses to addresses no peripheral decodes. Counted under
    /// both bus-fault policies; only
    /// [`BusFaultPolicy::Fault`](crate::BusFaultPolicy::Fault) also aborts
    /// the access and raises a bus-error interrupt.
    pub unmapped_accesses: u64,
    /// Outstanding bus transactions aborted because they exceeded
    /// [`MachineConfig::abi_timeout`](crate::MachineConfig::abi_timeout).
    pub abi_timeouts: u64,
    /// Bus-error interrupts delivered, per stream (unmapped aborts plus
    /// transaction timeouts).
    pub bus_faults: Vec<u64>,
    /// Per-stream attribution of every elapsed cycle into exactly one
    /// bucket (issue / stall / wait / idle / not-scheduled).
    pub attribution: CycleAttribution,
}

impl MachineStats {
    /// Creates zeroed statistics for `streams` streams.
    pub fn new(streams: usize) -> Self {
        MachineStats {
            retired: vec![0; streams],
            wait_txn_cycles: vec![0; streams],
            wait_bus_free_cycles: vec![0; streams],
            spill_stall_cycles: vec![0; streams],
            hazard_stalls: vec![0; streams],
            vectors_taken: vec![0; streams],
            bus_faults: vec![0; streams],
            attribution: CycleAttribution::new(streams),
            ..Default::default()
        }
    }

    /// Total bus-error interrupts delivered across streams.
    pub fn bus_faults_total(&self) -> u64 {
        self.bus_faults.iter().sum()
    }

    /// Total instructions retired across streams.
    pub fn retired_total(&self) -> u64 {
        self.retired.iter().sum()
    }

    /// Processor utilization `PD` = retired instructions / cycles.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_total() as f64 / self.cycles as f64
        }
    }

    /// Total instructions flushed for any reason.
    pub fn flushed_total(&self) -> u64 {
        self.flushed_jump + self.flushed_io + self.flushed_bus_busy + self.flushed_irq
    }

    /// Mean measured interrupt latency in cycles, if any interrupt was
    /// taken.
    pub fn mean_irq_latency(&self) -> Option<f64> {
        self.irq_latency.mean()
    }

    /// Worst-case measured interrupt latency in cycles.
    pub fn max_irq_latency(&self) -> Option<u64> {
        self.irq_latency.max()
    }

    /// Serializes every counter, the latency aggregate and the cycle
    /// attribution (`disc-snap/v2` component).
    pub(crate) fn save_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.cycles);
        save_u64_vec(w, &self.retired);
        w.put_u64(self.bubbles);
        w.put_u64(self.flushed_jump);
        w.put_u64(self.flushed_io);
        w.put_u64(self.flushed_bus_busy);
        w.put_u64(self.flushed_irq);
        save_u64_vec(w, &self.wait_txn_cycles);
        save_u64_vec(w, &self.wait_bus_free_cycles);
        save_u64_vec(w, &self.spill_stall_cycles);
        save_u64_vec(w, &self.hazard_stalls);
        save_u64_vec(w, &self.vectors_taken);
        self.irq_latency.save_into(w);
        w.put_u64(self.reallocations);
        w.put_u64(self.flow_instructions);
        w.put_u64(self.external_accesses);
        w.put_u64(self.forks_ignored);
        w.put_u64(self.unmapped_accesses);
        w.put_u64(self.abi_timeouts);
        save_u64_vec(w, &self.bus_faults);
        self.attribution.save_into(w);
    }

    /// Restores state written by [`save_into`](Self::save_into) onto
    /// statistics of the same stream count.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cycles = r.get_u64()?;
        restore_u64_vec(r, &mut self.retired)?;
        self.bubbles = r.get_u64()?;
        self.flushed_jump = r.get_u64()?;
        self.flushed_io = r.get_u64()?;
        self.flushed_bus_busy = r.get_u64()?;
        self.flushed_irq = r.get_u64()?;
        restore_u64_vec(r, &mut self.wait_txn_cycles)?;
        restore_u64_vec(r, &mut self.wait_bus_free_cycles)?;
        restore_u64_vec(r, &mut self.spill_stall_cycles)?;
        restore_u64_vec(r, &mut self.hazard_stalls)?;
        restore_u64_vec(r, &mut self.vectors_taken)?;
        self.irq_latency.restore_from(r)?;
        self.reallocations = r.get_u64()?;
        self.flow_instructions = r.get_u64()?;
        self.external_accesses = r.get_u64()?;
        self.forks_ignored = r.get_u64()?;
        self.unmapped_accesses = r.get_u64()?;
        self.abi_timeouts = r.get_u64()?;
        restore_u64_vec(r, &mut self.bus_faults)?;
        self.attribution.restore_from(r)
    }
}

/// Writes a length-prefixed `u64` vector.
fn save_u64_vec(w: &mut SnapWriter, v: &[u64]) {
    w.put_usize(v.len());
    for &x in v {
        w.put_u64(x);
    }
}

/// Reads a `u64` vector whose length must match the destination's —
/// per-stream tables never change size after construction.
fn restore_u64_vec(r: &mut SnapReader<'_>, dst: &mut [u64]) -> Result<(), SnapError> {
    let n = r.get_usize()?;
    if n != dst.len() {
        return Err(SnapError::Corrupt(format!(
            "per-stream table length mismatch: machine {}, snapshot {n}",
            dst.len()
        )));
    }
    for x in dst.iter_mut() {
        *x = r.get_u64()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_handles_zero_cycles() {
        let s = MachineStats::new(4);
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn utilization_ratio() {
        let mut s = MachineStats::new(2);
        s.cycles = 100;
        s.retired[0] = 40;
        s.retired[1] = 20;
        assert!((s.utilization() - 0.6).abs() < 1e-12);
        assert_eq!(s.retired_total(), 60);
    }

    #[test]
    fn latency_summary() {
        let mut s = MachineStats::new(1);
        assert_eq!(s.mean_irq_latency(), None);
        for l in [2, 4, 9] {
            s.irq_latency.record(l);
        }
        assert_eq!(s.mean_irq_latency(), Some(5.0));
        assert_eq!(s.max_irq_latency(), Some(9));
        assert_eq!(s.irq_latency.samples(), &[2, 4, 9]);
        assert_eq!(s.irq_latency.percentile(50.0), Some(4));
        assert_eq!(s.irq_latency.percentile(100.0), Some(9));
    }

    #[test]
    fn latency_reservoir_is_bounded_and_keeps_exact_aggregates() {
        let mut agg = IrqLatencyStats::default();
        for l in 0..10_000u64 {
            agg.record(l);
        }
        assert_eq!(agg.count(), 10_000);
        assert_eq!(agg.max(), Some(9_999));
        assert_eq!(agg.mean(), Some(4_999.5));
        assert_eq!(agg.samples().len(), IRQ_LATENCY_RESERVOIR);
        // Deterministic: a second identical run keeps the same reservoir.
        let mut again = IrqLatencyStats::default();
        for l in 0..10_000u64 {
            again.record(l);
        }
        assert_eq!(agg.samples(), again.samples());
    }

    #[test]
    fn attribution_totals_and_check() {
        let mut a = CycleAttribution::new(2);
        a.issue[0] = 6;
        a.hazard_stall[0] = 2;
        a.idle[0] = 2;
        a.issue[1] = 3;
        a.not_scheduled[1] = 7;
        assert_eq!(a.streams(), 2);
        assert_eq!(a.total(0), 10);
        assert_eq!(a.total(1), 10);
        assert_eq!(a.buckets(1), [3, 0, 0, 0, 0, 0, 7]);
        assert!(a.check(10).is_ok());
        let err = a.check(11).unwrap_err();
        assert_eq!(err.len(), 2);
        assert!(err[0].contains("stream 0"));
    }

    #[test]
    fn attribution_table_renders_all_streams_and_buckets() {
        let mut a = CycleAttribution::new(3);
        for s in 0..3 {
            a.issue[s] = 25;
            a.idle[s] = 75;
        }
        let table = a.table();
        assert_eq!(table.lines().count(), 4);
        for b in ATTRIBUTION_BUCKETS {
            assert!(table.contains(b), "missing column {b}");
        }
        assert!(table.contains("s0"));
        assert!(table.contains("s2"));
        assert!(table.contains("25.0%"));
        assert!(table.contains("75.0%"));
        assert!(table.contains("100"));
    }

    #[test]
    fn superblock_stats_ratios() {
        let mut s = SuperblockStats::default();
        assert_eq!(s.hit_rate(100), 0.0);
        assert_eq!(s.mean_burst(), None);
        s.bursts = 4;
        s.burst_cycles = 80;
        s.burst_issues = 60;
        assert!((s.hit_rate(100) - 0.8).abs() < 1e-12);
        assert_eq!(s.hit_rate(0), 0.0);
        assert_eq!(s.mean_burst(), Some(20.0));
    }

    #[test]
    fn machine_stats_carries_attribution() {
        let s = MachineStats::new(3);
        assert_eq!(s.attribution.streams(), 3);
        assert!(s.attribution.check(0).is_ok());
    }
}
