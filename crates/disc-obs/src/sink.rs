//! Streaming [`TraceSink`] implementations: JSONL event streams and
//! counters-only sampling.
//!
//! The bounded ring buffer ([`disc_core::Trace`]) keeps the *last* N
//! cycles; these sinks instead observe *every* cycle as it happens —
//! [`JsonlSink`] serializes each [`CycleRecord`] to one JSON line, and
//! [`SamplingSink`] skips record assembly entirely (via
//! [`TraceSink::wants_records`]) and snapshots [`MachineStats`] deltas
//! every N cycles.

use std::io::{self, Write};

use disc_core::{CycleRecord, MachineStats, TraceEvent, TraceSink};

use crate::json::Json;

/// Serializes every traced cycle as one JSON object per line.
///
/// Writes are buffered by whatever `W` the caller supplies; an I/O error
/// latches (subsequent records are dropped) and is reported by
/// [`JsonlSink::into_inner`] so a full disk cannot panic the simulation.
pub struct JsonlSink<W: Write + Send + 'static> {
    writer: W,
    error: Option<io::Error>,
    lines: u64,
}

impl<W: Write + Send + 'static> JsonlSink<W> {
    /// Wraps `writer`; each traced cycle becomes one line of JSON.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            error: None,
            lines: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Unwraps the writer and any latched I/O error.
    pub fn into_inner(self) -> (W, Option<io::Error>) {
        (self.writer, self.error)
    }
}

impl<W: Write + Send + 'static> TraceSink for JsonlSink<W> {
    fn record_cycle(&mut self, record: CycleRecord) {
        if self.error.is_some() {
            return;
        }
        let line = cycle_json(&record).render();
        match writeln!(self.writer, "{line}") {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Renders one [`CycleRecord`] as a JSON object (the JSONL line format).
pub fn cycle_json(record: &CycleRecord) -> Json {
    let stages = record
        .stages
        .iter()
        .map(|slot| match slot {
            None => Json::Null,
            Some(s) => Json::obj([
                ("stream", Json::U64(s.stream as u64)),
                ("pc", Json::U64(u64::from(s.pc))),
                ("instr", Json::str(s.instr.to_string())),
            ]),
        })
        .collect();
    Json::obj([
        ("cycle", Json::U64(record.cycle)),
        (
            "fetched",
            match record.fetched {
                Some(s) => Json::U64(s as u64),
                None => Json::Null,
            },
        ),
        ("stages", Json::Arr(stages)),
        (
            "events",
            Json::Arr(record.events.iter().map(event_json).collect()),
        ),
    ])
}

/// Renders one [`TraceEvent`] as a JSON object with a `"type"` tag.
pub fn event_json(event: &TraceEvent) -> Json {
    match event {
        TraceEvent::Flush {
            stream,
            count,
            cause,
        } => Json::obj([
            ("type", Json::str("flush")),
            ("stream", Json::U64(*stream as u64)),
            ("count", Json::U64(*count as u64)),
            ("cause", Json::str(*cause)),
        ]),
        TraceEvent::BusStart {
            stream,
            addr,
            latency,
        } => Json::obj([
            ("type", Json::str("bus-start")),
            ("stream", Json::U64(*stream as u64)),
            ("addr", Json::U64(u64::from(*addr))),
            ("latency", Json::U64(u64::from(*latency))),
        ]),
        TraceEvent::BusComplete { stream } => Json::obj([
            ("type", Json::str("bus-complete")),
            ("stream", Json::U64(*stream as u64)),
        ]),
        TraceEvent::Vector {
            stream,
            bit,
            target,
        } => Json::obj([
            ("type", Json::str("vector")),
            ("stream", Json::U64(*stream as u64)),
            ("bit", Json::U64(u64::from(*bit))),
            ("target", Json::U64(u64::from(*target))),
        ]),
        TraceEvent::BusFault { stream, addr, kind } => Json::obj([
            ("type", Json::str("bus-fault")),
            ("stream", Json::U64(*stream as u64)),
            ("addr", Json::U64(u64::from(*addr))),
            ("kind", Json::str(kind.to_string())),
        ]),
        TraceEvent::Spill { stream, cycles } => Json::obj([
            ("type", Json::str("spill")),
            ("stream", Json::U64(*stream as u64)),
            ("cycles", Json::U64(u64::from(*cycles))),
        ]),
        TraceEvent::Retire { stream, pc } => Json::obj([
            ("type", Json::str("retire")),
            ("stream", Json::U64(*stream as u64)),
            ("pc", Json::U64(u64::from(*pc))),
        ]),
    }
}

/// One counters snapshot taken by [`SamplingSink`]: deltas over the
/// sampling window ending at `cycle`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSample {
    /// Cycle the window ends on (inclusive).
    pub cycle: u64,
    /// Instructions retired in the window.
    pub retired: u64,
    /// Bubble cycles in the window.
    pub bubbles: u64,
    /// Instructions flushed in the window.
    pub flushed: u64,
    /// External bus transactions issued in the window.
    pub external_accesses: u64,
    /// Scheduler reallocations in the window.
    pub reallocations: u64,
    /// Windowed utilization: retired / window length.
    pub utilization: f64,
}

/// Counters-only sink: snapshots [`MachineStats`] deltas every `every`
/// cycles without ever paying for [`CycleRecord`] assembly.
pub struct SamplingSink {
    every: u64,
    samples: Vec<StatsSample>,
    last_cycle: u64,
    last_retired: u64,
    last_bubbles: u64,
    last_flushed: u64,
    last_external: u64,
    last_realloc: u64,
}

impl SamplingSink {
    /// Samples once every `every` cycles (`every` is clamped to at
    /// least 1).
    pub fn new(every: u64) -> Self {
        SamplingSink {
            every: every.max(1),
            samples: Vec::new(),
            last_cycle: 0,
            last_retired: 0,
            last_bubbles: 0,
            last_flushed: 0,
            last_external: 0,
            last_realloc: 0,
        }
    }

    /// A sink resuming observation of a machine already `cycles` cycles
    /// into its run with statistics `stats` — the restore path of a
    /// snapshotted/evicted session, where the original sink's delta
    /// baseline died with the process.
    ///
    /// The caller must resume at a window boundary (`cycles` divisible by
    /// `every`, which `disc-serve` guarantees by aligning its chunk size)
    /// so that the window grid of the resumed sink lines up with the
    /// original's; otherwise the first window after resumption reports a
    /// deliberately-short denominator exactly like a tail flush.
    pub fn resume_at(every: u64, cycles: u64, stats: &MachineStats) -> Self {
        SamplingSink {
            every: every.max(1),
            samples: Vec::new(),
            last_cycle: cycles,
            last_retired: stats.retired_total(),
            last_bubbles: stats.bubbles,
            last_flushed: stats.flushed_total(),
            last_external: stats.external_accesses,
            last_realloc: stats.reallocations,
        }
    }

    /// The collected samples, oldest first.
    pub fn samples(&self) -> &[StatsSample] {
        &self.samples
    }

    /// Renders the samples as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.samples.iter().map(sample_json).collect())
    }

    /// Closes the window ending at cycle `end` (exclusive): pushes the
    /// counter deltas since the previous window and moves the baseline
    /// up. The window's own length is the utilization denominator, so a
    /// short tail window is not diluted.
    fn push_window(&mut self, end: u64, stats: &MachineStats) {
        let window = end - self.last_cycle;
        let retired = stats.retired_total();
        let flushed = stats.flushed_total();
        self.samples.push(StatsSample {
            cycle: end - 1,
            retired: retired - self.last_retired,
            bubbles: stats.bubbles - self.last_bubbles,
            flushed: flushed - self.last_flushed,
            external_accesses: stats.external_accesses - self.last_external,
            reallocations: stats.reallocations - self.last_realloc,
            utilization: (retired - self.last_retired) as f64 / window.max(1) as f64,
        });
        self.last_cycle = end;
        self.last_retired = retired;
        self.last_bubbles = stats.bubbles;
        self.last_flushed = flushed;
        self.last_external = stats.external_accesses;
        self.last_realloc = stats.reallocations;
    }
}

/// Renders one [`StatsSample`] as a JSON object (the wire/report format).
pub fn sample_json(s: &StatsSample) -> Json {
    Json::obj([
        ("cycle", Json::U64(s.cycle)),
        ("retired", Json::U64(s.retired)),
        ("bubbles", Json::U64(s.bubbles)),
        ("flushed", Json::U64(s.flushed)),
        ("external_accesses", Json::U64(s.external_accesses)),
        ("reallocations", Json::U64(s.reallocations)),
        ("utilization", Json::F64(s.utilization)),
    ])
}

impl TraceSink for SamplingSink {
    fn wants_records(&self) -> bool {
        false
    }

    fn record_cycle(&mut self, _record: CycleRecord) {}

    // Only window boundaries matter (the samples are deltas of
    // cumulative counters), so quiescent stretches between boundaries may
    // be skipped without loss.
    fn next_observe(&self, now: u64) -> Option<u64> {
        Some((now + 1).next_multiple_of(self.every) - 1)
    }

    fn observe_stats(&mut self, cycle: u64, stats: &MachineStats) {
        // `cycle` is 0-based; sample when the window boundary passes.
        if !(cycle + 1).is_multiple_of(self.every) {
            return;
        }
        self.push_window(cycle + 1, stats);
    }

    // Flush the final partial window: a run that halts mid-window used to
    // drop the trailing cycles silently, so the sample deltas did not sum
    // to the full-run `MachineStats`. The short window keeps its *own*
    // length as the utilization denominator.
    fn observe_run_end(&mut self, cycles: u64, stats: &MachineStats) {
        if cycles <= self.last_cycle {
            return; // halted exactly on a window boundary — already sampled
        }
        self.push_window(cycles, stats);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Renders one [`StatsSample`] straight into a string buffer,
/// byte-identical to `sample_json(s).render()` but without building the
/// intermediate [`Json`] tree (seven node allocations plus key clones
/// per window). This is the steady-state wire hot path: a serving
/// session emits one of these per sampling window for its whole life.
pub fn render_sample_into(out: &mut String, s: &StatsSample) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"cycle\":{},\"retired\":{},\"bubbles\":{},\"flushed\":{},\
         \"external_accesses\":{},\"reallocations\":{},\"utilization\":",
        s.cycle, s.retired, s.bubbles, s.flushed, s.external_accesses, s.reallocations,
    );
    if s.utilization.is_finite() {
        // Same `{:?}` formatting contract as `Json::F64` rendering.
        let _ = write!(out, "{:?}", s.utilization);
    } else {
        out.push_str("null");
    }
    out.push('}');
}

/// Batched wire output: lines accumulate in [`WireSink::pending`] and go
/// out in one `write_all` + `flush` when the buffer crosses this size —
/// or when the driver forces a chunk-boundary flush via
/// [`TraceSink::flush_out`]. Small enough to bound event latency under
/// heavy tracing, large enough that steady sampling pays one syscall per
/// scheduling chunk instead of one per window.
const WIRE_FLUSH_THRESHOLD: usize = 64 * 1024;

/// Sink-over-wire framing: streams trace cycles and sampling windows as
/// self-describing JSONL *events* through a writer shared with other
/// producers (the `disc-serve` connection writer, which interleaves
/// request acks on the same stream).
///
/// Two event kinds are emitted:
///
/// ```text
/// {"event":"trace","session":S,"data":{<cycle record>}}
/// {"event":"sample","session":S,"data":{<stats window>}}
/// ```
///
/// The wire path is allocation-free in steady state: the
/// `{"event":...,"session":S,"data":` prefix is pre-encoded once at
/// construction, samples render via [`render_sample_into`] into one
/// reusable pending buffer, and complete lines are batched — a single
/// `write_all` + `flush` under the shared lock per chunk boundary
/// ([`TraceSink::flush_out`], driven by the server after each scheduling
/// chunk) or per `WIRE_FLUSH_THRESHOLD` bytes, whichever comes first.
/// Only whole lines ever cross the lock, so concurrent writers can never
/// interleave mid-line.
///
/// Trace framing is optional (`with_trace`) because full per-cycle
/// records are orders of magnitude heavier than sampled counters;
/// sampling delegates to an embedded [`SamplingSink`] — including the
/// tail-window flush on run end.
pub struct WireSink<W: Write + Send + 'static> {
    out: std::sync::Arc<std::sync::Mutex<W>>,
    trace: bool,
    sampler: SamplingSink,
    emitted: usize,
    events: u64,
    error: Option<io::Error>,
    /// Pre-encoded `{"event":"sample","session":S,"data":` fragment.
    sample_prefix: String,
    /// Pre-encoded `{"event":"trace","session":S,"data":` fragment.
    trace_prefix: String,
    /// Complete lines awaiting the next batched write.
    pending: String,
}

impl<W: Write + Send + 'static> WireSink<W> {
    /// Streams sampling windows (every `every` cycles) for `session`
    /// through the shared writer `out`.
    pub fn new(out: std::sync::Arc<std::sync::Mutex<W>>, session: u64, every: u64) -> Self {
        Self::with_sampler(out, session, SamplingSink::new(every))
    }

    /// Resumes streaming for a restored session already `cycles` cycles
    /// into its run (see [`SamplingSink::resume_at`]).
    pub fn resume_at(
        out: std::sync::Arc<std::sync::Mutex<W>>,
        session: u64,
        every: u64,
        cycles: u64,
        stats: &MachineStats,
    ) -> Self {
        Self::with_sampler(out, session, SamplingSink::resume_at(every, cycles, stats))
    }

    fn with_sampler(
        out: std::sync::Arc<std::sync::Mutex<W>>,
        session: u64,
        sampler: SamplingSink,
    ) -> Self {
        WireSink {
            out,
            trace: false,
            sampler,
            emitted: 0,
            events: 0,
            error: None,
            sample_prefix: format!("{{\"event\":\"sample\",\"session\":{session},\"data\":"),
            trace_prefix: format!("{{\"event\":\"trace\",\"session\":{session},\"data\":"),
            pending: String::new(),
        }
    }

    /// Additionally frames every cycle record as a `"trace"` event.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Events framed so far (batched lines count when framed, not when
    /// their batch reaches the wire).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// All samples observed so far (retained for the final report).
    pub fn samples(&self) -> &[StatsSample] {
        self.sampler.samples()
    }

    /// Any latched I/O error (a dead connection stops the stream but must
    /// not panic the simulation).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Pushes the pending batch through the shared writer in one
    /// `write_all` + `flush`.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if self.error.is_some() {
            self.pending.clear();
            return;
        }
        let result = {
            let mut out = self.out.lock().expect("wire writer poisoned");
            out.write_all(self.pending.as_bytes())
                .and_then(|()| out.flush())
        };
        self.pending.clear();
        if let Err(e) = result {
            self.error = Some(e);
        }
    }

    fn maybe_flush(&mut self) {
        if self.pending.len() >= WIRE_FLUSH_THRESHOLD {
            self.flush_pending();
        }
    }

    fn drain_new_samples(&mut self) {
        while self.emitted < self.sampler.samples().len() {
            if self.error.is_some() {
                self.emitted = self.sampler.samples().len();
                return;
            }
            self.pending.push_str(&self.sample_prefix);
            render_sample_into(&mut self.pending, &self.sampler.samples()[self.emitted]);
            self.pending.push_str("}\n");
            self.emitted += 1;
            self.events += 1;
            self.maybe_flush();
        }
    }
}

impl<W: Write + Send + 'static> TraceSink for WireSink<W> {
    fn wants_records(&self) -> bool {
        self.trace
    }

    fn record_cycle(&mut self, record: CycleRecord) {
        if !self.trace || self.error.is_some() {
            return;
        }
        self.pending.push_str(&self.trace_prefix);
        cycle_json(&record).render_into(&mut self.pending);
        self.pending.push_str("}\n");
        self.events += 1;
        self.maybe_flush();
    }

    fn next_observe(&self, now: u64) -> Option<u64> {
        if self.trace {
            // Every cycle must be framed; forbid event-skip fast-forward.
            Some(now)
        } else {
            self.sampler.next_observe(now)
        }
    }

    fn observe_stats(&mut self, cycle: u64, stats: &MachineStats) {
        self.sampler.observe_stats(cycle, stats);
        self.drain_new_samples();
    }

    fn observe_run_end(&mut self, cycles: u64, stats: &MachineStats) {
        self.sampler.observe_run_end(cycles, stats);
        self.drain_new_samples();
        // A run end is externally visible immediately even if no driver
        // ever calls `flush_out`.
        self.flush_pending();
    }

    fn flush_out(&mut self) {
        self.flush_pending();
    }

    fn finish(&mut self) {
        self.flush_pending();
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{CycleRecord, StageSnapshot};
    use disc_isa::Instruction;

    fn record(cycle: u64) -> CycleRecord {
        CycleRecord {
            cycle,
            stages: vec![
                Some(StageSnapshot {
                    stream: 1,
                    pc: 0x10,
                    instr: Instruction::Nop,
                }),
                None,
            ],
            fetched: Some(1),
            events: vec![TraceEvent::Flush {
                stream: 0,
                count: 2,
                cause: "jump",
            }],
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_cycle() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record_cycle(record(0));
        sink.record_cycle(record(1));
        sink.finish();
        assert_eq!(sink.lines(), 2);
        let (buf, err) = sink.into_inner();
        assert!(err.is_none());
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn jsonl_sink_latches_io_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.record_cycle(record(0));
        sink.record_cycle(record(1));
        assert_eq!(sink.lines(), 0);
        let (_, err) = sink.into_inner();
        assert_eq!(err.unwrap().kind(), io::ErrorKind::Other);
    }

    #[test]
    fn wire_sink_frames_samples_and_traces_atomically() {
        use std::sync::{Arc, Mutex};
        let out = Arc::new(Mutex::new(Vec::new()));
        let mut sink = WireSink::new(Arc::clone(&out), 7, 10).with_trace(true);
        assert!(sink.wants_records());
        sink.record_cycle(record(0));
        let mut stats = MachineStats::new(1);
        for cycle in 0..25u64 {
            stats.cycles = cycle + 1;
            stats.retired[0] += 1;
            sink.observe_stats(cycle, &stats);
        }
        sink.observe_run_end(25, &stats); // tail window of 5 cycles
        sink.finish();
        assert!(sink.take_error().is_none());
        assert_eq!(sink.samples().len(), 3);
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "1 trace + 2 windows + 1 tail");
        assert!(lines[0].starts_with(r#"{"event":"trace","session":7,"#));
        for line in &lines[1..] {
            assert!(line.starts_with(r#"{"event":"sample","session":7,"#));
            Json::parse(line).expect("well-formed event line");
        }
        let tail = Json::parse(lines[3]).unwrap();
        let data = tail.get("data").unwrap();
        assert_eq!(data.get("cycle").and_then(Json::as_u64), Some(24));
        assert_eq!(data.get("retired").and_then(Json::as_u64), Some(5));
        assert!((data.get("utilization").and_then(Json::as_f64).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_sample_into_matches_json_tree_rendering() {
        // The fast-path renderer must stay byte-identical to the Json
        // tree route — sample streams are pinned byte-for-byte across
        // pause/evict/resume and across worker counts.
        let samples = [
            StatsSample {
                cycle: 0,
                retired: 0,
                bubbles: 0,
                flushed: 0,
                external_accesses: 0,
                reallocations: 0,
                utilization: 0.0,
            },
            StatsSample {
                cycle: 4095,
                retired: 4096,
                bubbles: 17,
                flushed: 3,
                external_accesses: 12,
                reallocations: 1,
                utilization: 1.0,
            },
            StatsSample {
                cycle: u64::MAX,
                retired: 123_456_789,
                bubbles: 1,
                flushed: u64::MAX,
                external_accesses: 7,
                reallocations: 0,
                utilization: 0.123_456_789_012_345,
            },
            StatsSample {
                cycle: 99,
                retired: 1,
                bubbles: 2,
                flushed: 3,
                external_accesses: 4,
                reallocations: 5,
                utilization: f64::NAN, // non-finite renders as null
            },
        ];
        for s in &samples {
            let mut fast = String::new();
            render_sample_into(&mut fast, s);
            assert_eq!(fast, sample_json(s).render());
        }
    }

    #[test]
    fn wire_sink_batches_until_flush_out() {
        use std::sync::{Arc, Mutex};
        let out = Arc::new(Mutex::new(Vec::new()));
        let mut sink = WireSink::new(Arc::clone(&out), 3, 10);
        let mut stats = MachineStats::new(1);
        for cycle in 0..20u64 {
            stats.cycles = cycle + 1;
            stats.retired[0] += 1;
            sink.observe_stats(cycle, &stats);
        }
        // Two windows closed, but nothing reached the writer yet: lines
        // are pending until a chunk-boundary flush.
        assert_eq!(sink.events(), 2);
        assert!(out.lock().unwrap().is_empty(), "batch leaked early");
        sink.flush_out();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with(r#"{"event":"sample","session":3,"#));
            Json::parse(line).expect("well-formed event line");
        }
        // A second flush with nothing new pending writes nothing more.
        sink.flush_out();
        assert_eq!(out.lock().unwrap().len(), text.len());
    }

    #[test]
    fn wire_sink_flushes_on_run_end_without_explicit_flush() {
        use std::sync::{Arc, Mutex};
        let out = Arc::new(Mutex::new(Vec::new()));
        let mut sink = WireSink::new(Arc::clone(&out), 9, 10);
        let mut stats = MachineStats::new(1);
        for cycle in 0..15u64 {
            stats.cycles = cycle + 1;
            stats.retired[0] += 1;
            sink.observe_stats(cycle, &stats);
        }
        sink.observe_run_end(15, &stats);
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2, "window + tail on the wire");
    }

    #[test]
    fn sampling_sink_reports_window_deltas() {
        let mut sink = SamplingSink::new(10);
        assert!(!sink.wants_records());
        let mut stats = MachineStats::new(1);
        for cycle in 0..30u64 {
            stats.cycles = cycle + 1;
            stats.retired[0] += 1; // one instruction per cycle
            if cycle % 2 == 0 {
                stats.bubbles += 1;
            }
            sink.observe_stats(cycle, &stats);
        }
        let samples = sink.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].cycle, 9);
        assert_eq!(samples[2].cycle, 29);
        for s in samples {
            assert_eq!(s.retired, 10);
            assert_eq!(s.bubbles, 5);
            assert!((s.utilization - 1.0).abs() < 1e-12);
        }
    }
}
