//! Differential test: the ring-buffer `Trace` must reproduce the
//! pre-refactor trace byte-for-byte.
//!
//! The old `Trace` was a `Vec` evicting with `remove(0)`; the refactor
//! replaced it with a `VecDeque` ring. Here we run the figure 3.1 and
//! figure 3.3 workloads twice — once with the bounded ring installed,
//! once with an unbounded collector sink — replay the collector's records
//! through the *old* eviction semantics, and demand the ring kept exactly
//! the same records and renders exactly the same pipeline diagram and VCD
//! text.

use disc_core::{CycleRecord, Machine, Trace, TraceSink};
use disc_isa::Reg;

/// Unbounded record collector (stands in for "what the machine emitted").
struct CollectSink {
    records: Vec<CycleRecord>,
}

impl TraceSink for CollectSink {
    fn record_cycle(&mut self, record: CycleRecord) {
        self.records.push(record);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// The pre-refactor bounded-buffer semantics: `Vec` + `remove(0)`.
fn naive_bounded(records: &[CycleRecord], capacity: usize) -> Vec<CycleRecord> {
    let mut kept: Vec<CycleRecord> = Vec::new();
    for r in records {
        if capacity == 0 {
            // The old code panicked here; "keep nothing" is the fixed
            // behavior, and an empty reference matches an empty ring.
            continue;
        }
        if kept.len() == capacity {
            kept.remove(0);
        }
        kept.push(r.clone());
    }
    kept
}

/// Runs `build()` twice — ring-traced and collector-traced — and checks
/// the ring against the old semantics at `capacity`, byte-for-byte on
/// rendered output.
fn assert_ring_matches_naive(
    build: impl Fn() -> Machine,
    drive: impl Fn(&mut Machine),
    capacity: usize,
    stages: &[&str],
) {
    let mut ringed = build();
    ringed.trace_start(capacity);
    drive(&mut ringed);
    let ring = ringed.trace_take().expect("ring trace comes back");

    let mut collected = build();
    collected.set_trace_sink(Box::new(CollectSink {
        records: Vec::new(),
    }));
    drive(&mut collected);
    let sink = collected
        .take_trace_sink()
        .unwrap()
        .into_any()
        .downcast::<CollectSink>()
        .unwrap();
    let reference = naive_bounded(&sink.records, capacity);

    assert_eq!(ring.records().len(), reference.len());
    for (got, want) in ring.records().iter().zip(&reference) {
        assert_eq!(got, want, "ring diverged from remove(0) semantics");
    }

    // Replay the reference records through a fresh Trace and compare the
    // *rendered* artifacts byte-for-byte.
    let mut replay = Trace::new(capacity);
    for r in reference {
        replay.push(r);
    }
    assert_eq!(
        ring.pipeline_diagram(stages),
        replay.pipeline_diagram(stages)
    );
    assert_eq!(ring.to_vcd(stages), replay.to_vcd(stages));
}

#[test]
fn fig_3_1_workload_ring_matches_pre_refactor() {
    let board = disc_bench::board("fig_3_1");
    let build = || {
        let mut m = board.machine().unwrap();
        m.run(10).unwrap(); // same warmup as the figure generator
        m
    };
    let drive = |m: &mut Machine| {
        m.run(48).unwrap();
    };
    let stages = ["IF", "ID", "RR", "EX", "WR"];
    // Capacity below the run length forces eviction; equal capacity and
    // zero capacity cover the no-evict and keep-nothing paths.
    for capacity in [12, 48, 0] {
        assert_ring_matches_naive(build, drive, capacity, &stages);
    }
}

#[test]
fn fig_3_3_workload_ring_matches_pre_refactor() {
    let board = disc_bench::board("fig_3_3");
    let build = || board.machine().unwrap();
    // Phase activity changes mid-trace, as in the figure: all four
    // streams run, then stream 0 idles and its slots are reallocated.
    let drive = |m: &mut Machine| {
        m.run(60).unwrap();
        m.set_reg(0, Reg::Ir, 0);
        m.run(60).unwrap();
    };
    let stages = ["IF", "RD", "EX", "WR"];
    for capacity in [32, 120, 0] {
        assert_ring_matches_naive(build, drive, capacity, &stages);
    }
}
