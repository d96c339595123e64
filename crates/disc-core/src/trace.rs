//! Cycle-by-cycle tracing, used by the figure generators to reproduce the
//! paper's pipeline diagrams (Figures 3.1 and 3.2) and the dynamic
//! reallocation timeline (Figure 3.3).
//!
//! Tracing is built around the [`TraceSink`] trait: the machine assembles
//! one [`CycleRecord`] per cycle and hands it to whatever sink is
//! attached. The bounded ring-buffer [`Trace`] is the built-in sink behind
//! [`Machine::trace_start`](crate::Machine::trace_start); streaming sinks
//! (JSONL events, counter sampling) live in the `disc-obs` crate and
//! attach through
//! [`Machine::set_trace_sink`](crate::Machine::set_trace_sink).

use std::collections::VecDeque;

use disc_isa::Instruction;

use crate::stats::MachineStats;

/// Snapshot of one pipeline stage in one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stream the instruction belongs to.
    pub stream: usize,
    /// Program address of the instruction.
    pub pc: u16,
    /// The instruction occupying the stage.
    pub instr: Instruction,
}

/// What kind of bus fault a [`TraceEvent::BusFault`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusFaultKind {
    /// The access targeted an address no peripheral decodes.
    Unmapped,
    /// The outstanding transaction exceeded the configured
    /// [`abi_timeout`](crate::MachineConfig::abi_timeout) and was aborted.
    Timeout,
}

impl std::fmt::Display for BusFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusFaultKind::Unmapped => f.write_str("unmapped"),
            BusFaultKind::Timeout => f.write_str("timeout"),
        }
    }
}

/// Notable event within a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `count` instructions of `stream` were flushed.
    Flush {
        /// Stream whose instructions were removed.
        stream: usize,
        /// Number of slots flushed.
        count: usize,
        /// Human-readable cause (`"jump"`, `"io"`, `"bus-busy"`, …).
        cause: &'static str,
    },
    /// An external bus transaction started.
    BusStart {
        /// Issuing stream.
        stream: usize,
        /// External address.
        addr: u16,
        /// Access latency in cycles.
        latency: u32,
    },
    /// The outstanding bus transaction completed.
    BusComplete {
        /// Stream that was waiting on it.
        stream: usize,
    },
    /// A vectored interrupt was taken.
    Vector {
        /// Stream entering the handler.
        stream: usize,
        /// IR bit serviced.
        bit: u8,
        /// Handler address.
        target: u16,
    },
    /// A bus fault was delivered to a stream (see
    /// [`BusFaultPolicy::Fault`](crate::BusFaultPolicy::Fault)).
    BusFault {
        /// Faulting stream.
        stream: usize,
        /// External address of the faulting access.
        addr: u16,
        /// Unmapped access or transaction timeout.
        kind: BusFaultKind,
    },
    /// The stack-window engine stalled a stream for spill/fill traffic.
    Spill {
        /// Stalled stream.
        stream: usize,
        /// Stall cycles charged.
        cycles: u32,
    },
    /// An instruction left the write stage (architecturally committed).
    /// Only emitted while a sink is attached; the differential fuzz
    /// harness uses the per-stream retire order as the program-order
    /// ground truth to compare against the reference model.
    Retire {
        /// Stream the instruction belongs to.
        stream: usize,
        /// Program address of the retired instruction.
        pc: u16,
    },
}

/// One traced machine cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleRecord {
    /// Cycle number.
    pub cycle: u64,
    /// Pipeline occupancy after this cycle; index 0 is the fetch stage and
    /// the last index is the write stage. `None` is a bubble.
    pub stages: Vec<Option<StageSnapshot>>,
    /// Stream that fetched this cycle, if any.
    pub fetched: Option<usize>,
    /// Events raised during the cycle.
    pub events: Vec<TraceEvent>,
}

/// Consumer of per-cycle trace data.
///
/// The machine calls [`record_cycle`](TraceSink::record_cycle) once per
/// simulated cycle (when [`wants_records`](TraceSink::wants_records) is
/// `true`) and [`observe_stats`](TraceSink::observe_stats) every cycle
/// regardless, so counters-only sinks can sample
/// [`MachineStats`] without paying for record assembly.
///
/// Sinks are strictly *passive*: they observe the machine and must never
/// influence simulation behavior.
pub trait TraceSink: Send + 'static {
    /// Whether the machine should assemble full [`CycleRecord`]s for this
    /// sink. Counters-only sinks return `false` to keep the hot path
    /// cheap (no per-stage snapshotting, no event buffering).
    fn wants_records(&self) -> bool {
        true
    }

    /// One completed machine cycle. Only called when
    /// [`wants_records`](TraceSink::wants_records) returns `true`.
    fn record_cycle(&mut self, record: CycleRecord);

    /// Called once per cycle (after any
    /// [`record_cycle`](TraceSink::record_cycle)) with the cycle number
    /// just completed and the statistics as of the end of that cycle.
    fn observe_stats(&mut self, cycle: u64, stats: &MachineStats) {
        let _ = (cycle, stats);
    }

    /// Earliest absolute machine cycle `>= now` this sink needs to observe
    /// (via [`record_cycle`](TraceSink::record_cycle) /
    /// [`observe_stats`](TraceSink::observe_stats)), or `None` when the
    /// sink never needs another observation.
    ///
    /// [`StepMode::EventSkip`](crate::StepMode) consults this before
    /// fast-forwarding: cycles strictly before the returned value may be
    /// skipped without calling the sink for them. The default, `Some(now)`,
    /// declares that every cycle must be observed and therefore pins
    /// skipping off entirely — which is what full-record sinks (including
    /// the ring-buffer [`Trace`]) require for byte-identical output.
    /// Sampling sinks that only inspect cumulative counters at window
    /// boundaries can return the next boundary instead.
    fn next_observe(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    /// Called by [`Machine::run`](crate::Machine::run) when a run ends
    /// for good — the machine halted or went all-idle — with the total
    /// elapsed cycle count and the final statistics. Windowed sinks use
    /// this to flush a partial tail window that never reached its
    /// boundary; a run that merely exhausted its cycle budget (or hit a
    /// breakpoint) is *not* an end, so chunked runs see this exactly once.
    fn observe_run_end(&mut self, cycles: u64, stats: &MachineStats) {
        let _ = (cycles, stats);
    }

    /// Flush hook, called when the sink is detached from the machine.
    fn finish(&mut self) {}

    /// Push any buffered *output* downstream without ending anything.
    ///
    /// Buffering sinks (e.g. a wire sink batching sample lines) override
    /// this; the machine's driver calls
    /// [`Machine::flush_trace_sink`](crate::Machine::flush_trace_sink)
    /// at points where buffered data must become externally visible —
    /// typically a scheduling chunk boundary, before any event that must
    /// not overtake the buffered lines. Unlike
    /// [`finish`](TraceSink::finish) this may be called many times and
    /// implies nothing about the run ending.
    fn flush_out(&mut self) {}

    /// Recovers the concrete sink type after
    /// [`Machine::take_trace_sink`](crate::Machine::take_trace_sink).
    /// Implementations are one line: `self`.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// A bounded trace buffer: the built-in ring-buffer [`TraceSink`].
///
/// Keeps the most recent `capacity` cycles with O(1) eviction per cycle
/// (the buffer used to evict with `Vec::remove(0)`, which made long
/// traced runs quadratic). A capacity of 0 keeps nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: VecDeque<CycleRecord>,
    capacity: usize,
}

impl Trace {
    /// Creates a trace keeping at most `capacity` cycles (oldest dropped).
    /// `capacity` 0 records nothing and is valid.
    pub fn new(capacity: usize) -> Self {
        Trace {
            records: VecDeque::new(),
            capacity,
        }
    }

    /// Appends one cycle, evicting the oldest when full (O(1)).
    pub fn push(&mut self, record: CycleRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    /// Maximum number of cycles retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Recorded cycles, oldest first.
    pub fn records(&self) -> &VecDeque<CycleRecord> {
        &self.records
    }

    /// Exports the trace as a Value Change Dump (VCD) waveform, viewable
    /// in GTKWave & co. One 8-bit signal per pipeline stage carries the
    /// occupying stream index (`0xff` = bubble), plus a `fetch` signal for
    /// the stream that issued each cycle.
    pub fn to_vcd(&self, stage_names: &[&str]) -> String {
        let depth = self
            .records
            .iter()
            .map(|r| r.stages.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        out.push_str("$version disc-core trace $end\n");
        out.push_str("$timescale 1 ns $end\n");
        out.push_str("$scope module disc1 $end\n");
        let id = vcd_id;
        for i in 0..depth {
            let name = stage_names.get(i).copied().unwrap_or("stage");
            out.push_str(&format!("$var wire 8 {} {name}{i} $end\n", id(i)));
        }
        out.push_str(&format!("$var wire 8 {} fetch $end\n", id(depth)));
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        let mut last: Vec<Option<u16>> = vec![None; depth + 1];
        for r in &self.records {
            let mut changes = String::new();
            for (i, seen) in last.iter_mut().take(depth).enumerate() {
                let v = r
                    .stages
                    .get(i)
                    .and_then(|s| s.as_ref())
                    .map(|s| s.stream as u16)
                    .unwrap_or(0xff);
                if *seen != Some(v) {
                    changes.push_str(&format!("b{v:08b} {}\n", id(i)));
                    *seen = Some(v);
                }
            }
            let f = r.fetched.map(|s| s as u16).unwrap_or(0xff);
            if last[depth] != Some(f) {
                changes.push_str(&format!("b{f:08b} {}\n", id(depth)));
                last[depth] = Some(f);
            }
            if !changes.is_empty() {
                out.push_str(&format!("#{}\n{changes}", r.cycle));
            }
        }
        out
    }

    /// Renders the trace as the paper's pipeline diagrams: one row per
    /// pipeline stage, one column per cycle, each cell naming the stage and
    /// stream like `IF a1` in Figure 3.1 (here `IF s0` …). Bubbles print
    /// as `----`.
    pub fn pipeline_diagram(&self, stage_names: &[&str]) -> String {
        let mut out = String::new();
        let depth = self
            .records
            .iter()
            .map(|r| r.stages.len())
            .max()
            .unwrap_or(0);
        for stage in 0..depth {
            let name = stage_names.get(stage).copied().unwrap_or("??");
            for r in &self.records {
                match r.stages.get(stage).and_then(|s| s.as_ref()) {
                    Some(snap) => out.push_str(&format!("{name} s{} ", snap.stream)),
                    None => out.push_str(&format!("{name} -- ")),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl TraceSink for Trace {
    fn record_cycle(&mut self, record: CycleRecord) {
        self.push(record);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Printable-ASCII characters usable in a VCD identifier code
/// (`'!'..='~'`).
const VCD_ID_RANGE: usize = 94;

/// Generates the VCD identifier code for signal `i`.
///
/// VCD identifiers must stay within printable ASCII (33–126). The old
/// single-character scheme `b'!' + i` overflowed `u8` past signal 93 and
/// left the printable range well before that, so deep stage counts
/// produced corrupt waveforms. Signals 0–93 keep their historical
/// single-character codes; higher indices get multi-character codes via
/// bijective base-94 numeration, which never collides.
fn vcd_id(mut i: usize) -> String {
    let mut id = String::new();
    loop {
        id.push(char::from(b'!' + (i % VCD_ID_RANGE) as u8));
        i /= VCD_ID_RANGE;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_capacity_drops_oldest() {
        let mut t = Trace::new(2);
        for c in 0..5 {
            t.push(CycleRecord {
                cycle: c,
                ..Default::default()
            });
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.records()[0].cycle, 3);
        assert_eq!(t.records()[1].cycle, 4);
    }

    #[test]
    fn vcd_export_has_header_and_changes() {
        let mut t = Trace::new(8);
        t.push(CycleRecord {
            cycle: 3,
            stages: vec![
                Some(StageSnapshot {
                    stream: 2,
                    pc: 0,
                    instr: Instruction::Nop,
                }),
                None,
            ],
            fetched: Some(2),
            events: vec![],
        });
        t.push(CycleRecord {
            cycle: 4,
            stages: vec![None, None],
            fetched: None,
            events: vec![],
        });
        let vcd = t.to_vcd(&["IF", "WR"]);
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("$var wire 8 ! IF0"));
        assert!(vcd.contains("#3"));
        assert!(vcd.contains("b00000010 !"), "stream 2 in IF:\n{vcd}");
        assert!(vcd.contains("b11111111"), "bubble encodes as 0xff");
        assert!(vcd.contains("#4"), "second cycle changes recorded");
    }

    #[test]
    fn zero_capacity_trace_keeps_nothing_and_never_panics() {
        // Regression: `Trace::new(0)` used to panic on the very first push
        // (`Vec::remove(0)` on an empty buffer when len == capacity == 0).
        let mut t = Trace::new(0);
        for c in 0..4 {
            t.push(CycleRecord {
                cycle: c,
                ..Default::default()
            });
        }
        assert!(t.records().is_empty());
        assert_eq!(t.capacity(), 0);
        assert!(t.to_vcd(&[]).contains("$enddefinitions"));
        assert_eq!(t.pipeline_diagram(&[]), "");
    }

    #[test]
    fn full_buffer_eviction_is_constant_time() {
        // Perf sanity: a full bounded trace must sustain O(1) eviction.
        // With the old `Vec::remove(0)` eviction this loop performed ~2.9
        // billion element moves and took minutes; as a ring buffer it is
        // instant. Functional assertions keep the test meaningful even on
        // a fast machine.
        const CAPACITY: usize = 10_000;
        const PUSHES: u64 = 300_000;
        let mut t = Trace::new(CAPACITY);
        for c in 0..PUSHES {
            t.push(CycleRecord {
                cycle: c,
                ..Default::default()
            });
        }
        assert_eq!(t.records().len(), CAPACITY);
        assert_eq!(t.records()[0].cycle, PUSHES - CAPACITY as u64);
        assert_eq!(t.records()[CAPACITY - 1].cycle, PUSHES - 1);
    }

    #[test]
    fn vcd_ids_stay_printable_and_unique_past_94_signals() {
        let n = 300;
        let ids: Vec<String> = (0..n).map(vcd_id).collect();
        for id in &ids {
            assert!(!id.is_empty());
            assert!(
                id.bytes().all(|b| (33..=126).contains(&b)),
                "id {id:?} leaves printable ASCII"
            );
        }
        let distinct: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(distinct.len(), n, "identifier codes must not collide");
        // Historical single-character codes are preserved.
        assert_eq!(vcd_id(0), "!");
        assert_eq!(vcd_id(93), "~");
        assert_eq!(vcd_id(94), "!!");
    }

    #[test]
    fn vcd_export_handles_deep_stage_counts() {
        // 120 stages + the fetch signal: far past the 94-code
        // single-character range that used to overflow.
        let depth = 120;
        let mut t = Trace::new(4);
        t.push(CycleRecord {
            cycle: 0,
            stages: (0..depth)
                .map(|i| {
                    (i % 2 == 0).then_some(StageSnapshot {
                        stream: i % 8,
                        pc: i as u16,
                        instr: Instruction::Nop,
                    })
                })
                .collect(),
            fetched: Some(1),
            events: vec![],
        });
        let names: Vec<String> = (0..depth).map(|i| format!("st{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let vcd = t.to_vcd(&refs);
        let mut ids = std::collections::HashSet::new();
        let mut vars = 0;
        for line in vcd.lines() {
            if let Some(rest) = line.strip_prefix("$var wire 8 ") {
                let id = rest.split_whitespace().next().unwrap();
                assert!(id.bytes().all(|b| (33..=126).contains(&b)), "{id:?}");
                assert!(ids.insert(id.to_string()), "duplicate id {id:?}");
                vars += 1;
            }
        }
        assert_eq!(vars, depth + 1, "one signal per stage plus fetch");
    }

    #[test]
    fn trace_sink_roundtrip_matches_direct_pushes() {
        let record = CycleRecord {
            cycle: 7,
            stages: vec![None],
            fetched: None,
            events: vec![],
        };
        let mut direct = Trace::new(4);
        direct.push(record.clone());
        let mut sink: Box<dyn TraceSink> = Box::new(Trace::new(4));
        sink.record_cycle(record);
        sink.finish();
        let roundtripped = *sink.into_any().downcast::<Trace>().unwrap();
        assert_eq!(roundtripped, direct);
    }

    #[test]
    fn diagram_renders_rows_per_stage() {
        let mut t = Trace::new(8);
        t.push(CycleRecord {
            cycle: 0,
            stages: vec![
                Some(StageSnapshot {
                    stream: 1,
                    pc: 0,
                    instr: Instruction::Nop,
                }),
                None,
            ],
            fetched: Some(1),
            events: vec![],
        });
        let d = t.pipeline_diagram(&["IF", "WR"]);
        assert!(d.contains("IF s1"));
        assert!(d.contains("WR --"));
    }
}
