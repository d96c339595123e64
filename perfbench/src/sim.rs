//! The in-process simulator workloads: `sim_burst`, `sim_bus` and
//! `sim_idle`. One machine at a time on one thread.
//!
//! A round builds every board's machine in a seeded order, advances it a
//! fixed number of cycles through `Machine::run` in seeded chunk sizes,
//! and checks its fidelity fingerprint. Rounds repeat until the time is
//! up; the rates are medians over rounds.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use disc_board::Board;
use disc_core::{DispatchMode, Exit, FlatBus, Machine, StepMode};
use disc_obs::{Json, RunReport};

use crate::fidelity::{check_timers, fingerprint, isr_counter, pinned};
use crate::ledger::{self, MachineRecord};
use crate::trace::{BusLedger, SpanId, TracedBus, Tracer};
use crate::{end_to_end, secs, Measured, Outcome, Rng, Workload};

/// `interrupt_heavy_3s`: the host raises (stream 3, bit 5) every 50
/// cycles, as `bench_core` does.
const IRQ_EVERY: u64 = 50;
const IRQ_STREAM: usize = 3;
const IRQ_BIT: u8 = 5;

const BURST_BOARDS: [&str; 4] = ["compute_bound_4s", "branch_heavy_4s", "fig_3_1", "fig_3_3"];
const BURST_CYCLES: u64 = 200_000;
const BUS_BOARDS: [&str; 6] = [
    "io_bound_2s",
    "dma_copy_2s",
    "storage_log_2s",
    "packet_rx_2s",
    "faulted_io_2s",
    "interrupt_heavy_3s",
];
const BUS_CYCLES: u64 = 100_000;
const IDLE_BOARD: &str = "timer_idle_1s";
const IDLE_CYCLES: u64 = 2_000_000;

/// Generated timer boards per `sim_idle` run and their stream counts.
const GEN_STREAMS: [usize; 6] = [1, 2, 3, 4, 2, 3];
/// Timer periods span two orders of magnitude. Stream `s` of board `b`
/// uses rung `(b + s) % 5`, so every seed runs the same wake-up load;
/// the seed jitters each period by up to +10%.
const GEN_PERIODS: [u64; 5] = [400, 1_265, 4_000, 12_650, 40_000];
const GEN_CYCLES: u64 = 1_000_000;
/// A run of a generated board ends at least this many cycles after any
/// timer fired, so every raised interrupt has been serviced.
const GEN_SETTLE: u64 = 256;

/// One board as a workload runs it.
struct Case {
    /// Catalog name, or `gen_timer` for generated boards.
    label: &'static str,
    text: String,
    cycles: u64,
    event_skip: bool,
    irq: bool,
    /// Non-empty for generated boards: checked analytically.
    periods: Vec<u64>,
}

impl Case {
    fn catalog(name: &'static str, cycles: u64) -> Result<Case, String> {
        Self::catalog_from("boards", name, cycles)
    }

    fn catalog_from(dir: &str, name: &'static str, cycles: u64) -> Result<Case, String> {
        let path = format!("{dir}/{name}.board");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{path}: {e} (run from the repository root)"))?;
        Ok(Case {
            label: name,
            text,
            cycles,
            event_skip: false,
            irq: name == "interrupt_heavy_3s",
            periods: Vec::new(),
        })
    }
}

fn cases(workload: Workload, rng: &mut Rng) -> Result<Vec<Case>, String> {
    match workload {
        Workload::SimBurst => BURST_BOARDS
            .iter()
            .map(|b| Case::catalog(b, BURST_CYCLES))
            .collect(),
        Workload::SimBus => BUS_BOARDS
            .iter()
            .map(|b| Case::catalog(b, BUS_CYCLES))
            .collect(),
        Workload::SimIdle => {
            let mut idle = Case::catalog(IDLE_BOARD, IDLE_CYCLES)?;
            idle.event_skip = true;
            let mut out = vec![idle];
            out.extend(generated_timer_boards(rng));
            Ok(out)
        }
        Workload::ServeFleet => unreachable!("serve_fleet is not a sim workload"),
    }
}

/// Timer controllers drawn from the seed: 1–4 parked streams per board,
/// each woken by its own periodic timer and counting its wake-ups at
/// [`isr_counter`].
fn generated_timer_boards(rng: &mut Rng) -> Vec<Case> {
    GEN_STREAMS
        .iter()
        .enumerate()
        .map(|(b, &n)| {
            let periods: Vec<u64> = (0..n)
                .map(|s| GEN_PERIODS[(b + s) % GEN_PERIODS.len()])
                .map(|p| p + (rng.unit() * p as f64 * 0.1) as u64)
                .collect();
            Case {
                label: "gen_timer",
                text: timer_board(b, &periods),
                cycles: settled_cycles(GEN_CYCLES, &periods),
                event_skip: true,
                irq: false,
                periods,
            }
        })
        .collect()
}

fn timer_board(index: usize, periods: &[u64]) -> String {
    let mut src = String::new();
    let mut peripherals = String::new();
    for (s, period) in periods.iter().enumerate() {
        let counter = isr_counter(s);
        src.push_str(&format!(
            ".stream {s}, idle{s}\n.vector {s}, 5, isr{s}\nidle{s}:\n    stop\n\
             isr{s}:\n    lda r0, {counter:#x}\n    addi r0, r0, 1\n    sta r0, {counter:#x}\n    reti\n"
        ));
        peripherals.push_str(&format!(
            "\n[[peripheral]]\nkind = \"timer\"\nbase = {:#x}\nperiod = {period}\n\
             irq_stream = {s}\nirq_bit = 5\n",
            0x9000 + 4 * s
        ));
    }
    format!(
        "name = \"gen_timer_{index}\"\nidle_exit = false\n\n[machine]\nstreams = {}\n\n\
         [program]\nsource = \"\"\"\n{src}\"\"\"\n{peripherals}",
        periods.len()
    )
}

/// The first cycle count `>= target` that ends at least [`GEN_SETTLE`]
/// cycles after the last fire of every timer.
fn settled_cycles(target: u64, periods: &[u64]) -> u64 {
    (target..)
        .find(|c| periods.iter().all(|p| c % p >= GEN_SETTLE))
        .expect("a settled cycle count exists below any period's LCM")
}

/// A parsed board ready to build machines from.
struct Prepared<'a> {
    case: &'a Case,
    board: Board,
}

impl Prepared<'_> {
    fn modes(&self) -> (StepMode, DispatchMode) {
        let c = &self.board.config;
        let step = if self.case.event_skip {
            StepMode::EventSkip
        } else {
            c.step_mode
        };
        (step, c.dispatch_mode)
    }

    /// Builds the machine as users do (`Board::machine_with_modes`), or,
    /// when tracing, the same steps one by one with the bus wrapped.
    fn build(
        &self,
        tracer: &mut Tracer,
        owner: u64,
        parent: Option<SpanId>,
    ) -> Result<(Machine, Option<Arc<BusLedger>>), String> {
        let (step, dispatch) = self.modes();
        if !tracer.on() {
            let m = self
                .board
                .machine_with_modes(step, dispatch)
                .map_err(|e| e.to_string())?;
            return Ok((m, None));
        }
        let program = tracer
            .time("isa.assemble", owner, parent, || self.board.program())
            .map_err(|e| e.to_string())?;
        let ledger = Arc::new(BusLedger::default());
        let machine = tracer.time("board.build", owner, parent, || {
            wrapped_machine(&self.board, step, dispatch, &program, Arc::clone(&ledger))
        });
        Ok((machine, Some(ledger)))
    }
}

/// `Board::machine_with_modes` with the board's bus (or an explicit
/// `FlatBus` at the default latency) inside a [`TracedBus`].
pub fn wrapped_machine(
    board: &Board,
    step: StepMode,
    dispatch: DispatchMode,
    program: &disc_isa::Program,
    ledger: Arc<BusLedger>,
) -> Machine {
    let config = board
        .config
        .clone()
        .with_step_mode(step)
        .with_dispatch_mode(dispatch);
    let inner = board
        .build_bus()
        .unwrap_or_else(|| Box::new(FlatBus::new(config.default_ext_latency)));
    let mut m = Machine::with_bus(config, program, Box::new(TracedBus::new(inner, ledger)));
    if let Some(idle_exit) = board.idle_exit {
        m.set_idle_exit(idle_exit);
    }
    m
}

/// Parses every board and builds one machine of each: what a user pays
/// before the first cycle runs.
fn prepare(cases: &[Case], tracer: &mut Tracer) -> Result<(), String> {
    for (i, case) in cases.iter().enumerate() {
        let board = tracer
            .time("board.parse", i as u64, None, || Board::parse(&case.text))
            .map_err(|e| format!("{}: {e}", case.label))?;
        let (m, _) = Prepared { case, board }.build(tracer, i as u64, None)?;
        std::hint::black_box(m.cycle());
    }
    Ok(())
}

/// Seeded chunk sizes for a machine of `cycles` cycles, stratified so
/// every machine has the same mix: one chunk log-uniform in each of
/// `[c/32, c/16)`, `[c/16, c/8)`, `[c/8, c/4)` and `[c/4, c/2)`, the
/// remainder as a fifth, in seeded order.
fn chunks(rng: &mut Rng, cycles: u64) -> Vec<u64> {
    let mut out: Vec<u64> = [32, 16, 8, 4]
        .into_iter()
        .map(|d| rng.log_uniform(cycles / d, cycles * 2 / d))
        .collect();
    out.push(cycles - out.iter().sum::<u64>());
    rng.shuffle(&mut out);
    out
}

/// Advances `cycles` cycles from `from`, raising the host interrupt at
/// every multiple of [`IRQ_EVERY`] on the interrupt board, so the
/// interrupt schedule does not depend on chunking.
fn advance(m: &mut Machine, case: &Case, from: u64, cycles: u64) -> Result<(), String> {
    let end = from + cycles;
    let mut c = from;
    while c < end {
        let mut len = end - c;
        if case.irq {
            if c.is_multiple_of(IRQ_EVERY) {
                m.raise_interrupt(IRQ_STREAM, IRQ_BIT);
            }
            len = len.min(IRQ_EVERY - c % IRQ_EVERY);
        }
        match m.run(len) {
            Ok(Exit::CycleLimit) => {}
            Ok(exit) => return Err(format!("{}: {exit:?} at cycle {}", case.label, m.cycle())),
            Err(e) => return Err(format!("{}: {e}", case.label)),
        }
        c += len;
    }
    if m.cycle() != end {
        return Err(format!(
            "{}: at cycle {} after running to {end}",
            case.label,
            m.cycle()
        ));
    }
    Ok(())
}

fn check(m: &Machine, case: &Case) -> Result<(), String> {
    if !case.periods.is_empty() {
        return check_timers(m, &case.periods).map_err(|e| format!("{}: {e}", case.label));
    }
    let got = fingerprint(m);
    match pinned(case.label, case.cycles) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "{} at {} cycles: fingerprint {got:#018x}, pinned {want:#018x}",
            case.label, case.cycles
        )),
        None => Err(format!(
            "{} at {} cycles: no pinned fingerprint",
            case.label, case.cycles
        )),
    }
}

/// What one round measured.
struct Round {
    cycles_per_s: f64,
    machines_per_s: f64,
    step_ns: Vec<f64>,
    /// Every board's create and check, summed: one sample per round, so
    /// each sample has the same board mix.
    ctl_ns: f64,
    /// The set-up repeated right after the round.
    setup_s: f64,
}

/// Rounds kept for the end-to-end metrics: the slowest tenth by
/// cycles/s, and at least this many.
const MIN_KEPT_ROUNDS: usize = 20;

/// The end-to-end measurements over the slowest tenth of rounds.
///
/// The host alternates, over seconds to minutes, between a contended and
/// an uncontended speed up to 2x apart. Every run visits the contended
/// speed, but how long a run spends uncontended varies, so medians over
/// all rounds do not repeat. The slowest tenth does.
fn contended(mut rounds: Vec<Round>) -> Measured {
    rounds.sort_by(|a, b| a.cycles_per_s.total_cmp(&b.cycles_per_s));
    let keep = (rounds.len() / 10).max(MIN_KEPT_ROUNDS).min(rounds.len());
    let slow = &rounds[..keep];
    Measured {
        cycle_rates: slow.iter().map(|r| r.cycles_per_s).collect(),
        session_rates: slow.iter().map(|r| r.machines_per_s).collect(),
        step_ns: slow
            .iter()
            .flat_map(|r| r.step_ns.iter().copied())
            .collect(),
        ctl_ns: slow.iter().map(|r| r.ctl_ns).collect(),
        setup_s: slow.iter().map(|r| r.setup_s).collect(),
        round: "the slowest tenth of rounds (every board once per round)",
    }
}

/// One timed phase: whole rounds until `seconds` have passed.
struct Phase {
    rounds: Vec<Round>,
    records: Vec<MachineRecord>,
    snap_bytes: Vec<f64>,
}

fn phase(
    cases: &[Case],
    rng: &mut Rng,
    seconds: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Phase, String> {
    let mut out = Phase {
        rounds: Vec::new(),
        records: Vec::new(),
        snap_bytes: Vec::new(),
    };
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let start = Instant::now();
    while out.rounds.is_empty() || secs(start) < seconds {
        rng.shuffle(&mut order);
        let (mut busy_s, mut cycles, mut ctl_ns) = (0.0, 0u64, 0.0);
        let mut step_ns = Vec::new();
        for &i in &order {
            let case = &cases[i];
            let owner = out.rounds.len() as u64 * 1000 + i as u64;
            let root = tracer.begin("machine", owner, None);
            // Create from the board document, as a served session is.
            let t = Instant::now();
            let board = tracer
                .time("board.parse", owner, root, || Board::parse(&case.text))
                .map_err(|e| format!("{}: {e}", case.label))?;
            let p = &Prepared { case, board };
            let (mut m, bus) = p.build(tracer, owner, root)?;
            ctl_ns += t.elapsed().as_nanos() as f64;
            let mut done = 0;
            let mut result = Ok(());
            for n in chunks(rng, p.case.cycles) {
                if result.is_err() {
                    break;
                }
                let ts = Instant::now();
                let span = tracer.begin("core.run", owner, root);
                let bus0 = bus.as_ref().map_or(0, |b| b.total_ns());
                result = advance(&mut m, p.case, done, n);
                tracer.add_inner(span, bus.as_ref().map_or(0, |b| b.total_ns()) - bus0);
                tracer.end(span);
                step_ns.push(ts.elapsed().as_nanos() as f64);
                done += n;
            }
            let tc = Instant::now();
            let result = result
                .and_then(|()| tracer.time("fidelity.check", owner, root, || check(&m, p.case)));
            ctl_ns += tc.elapsed().as_nanos() as f64;
            busy_s += secs(t);
            cycles += m.cycle();
            tracer.end(root);
            let traced = bus.map(|bus| traced_extras(p, &m, bus, owner, tracer, &mut out));
            outcome.record(result.and(traced.unwrap_or(Ok(()))));
        }
        // Set-up is repeated after every round, outside the round's time,
        // so it is sampled across the same host time as the rates.
        let t = Instant::now();
        prepare(cases, tracer)?;
        out.rounds.push(Round {
            cycles_per_s: cycles as f64 / busy_s,
            machines_per_s: cases.len() as f64 / busy_s,
            step_ns,
            ctl_ns,
            setup_s: secs(t),
        });
    }
    Ok(out)
}

/// Traced-run work outside the timed path: snapshot and restore (the
/// restored machine must fingerprint the same), the run report, and the
/// machine's counters.
fn traced_extras(
    p: &Prepared,
    m: &Machine,
    bus: Arc<BusLedger>,
    owner: u64,
    tracer: &mut Tracer,
    out: &mut Phase,
) -> Result<(), String> {
    let bytes = tracer.time("snap.save", owner, None, || m.snapshot());
    out.snap_bytes.push(bytes.len() as f64);
    let (step, dispatch) = p.modes();
    let mut restored = p
        .board
        .machine_with_modes(step, dispatch)
        .map_err(|e| e.to_string())?;
    tracer
        .time("snap.restore", owner, None, || restored.restore(&bytes))
        .map_err(|e| format!("{}: restore: {e}", p.case.label))?;
    tracer.time("obs.report", owner, None, || {
        let report = RunReport::from_machine("perfbench", m).to_json();
        std::hint::black_box(disc_snap::checksum(report.render().as_bytes()))
    });
    out.records.push(MachineRecord {
        label: p.case.label,
        owner,
        cycles: m.cycle(),
        superblock: *m.superblock_stats(),
        skip: *m.skip_stats(),
        bus,
    });
    if fingerprint(&restored) != fingerprint(m) {
        return Err(format!(
            "{}: restored machine fingerprints differently",
            p.case.label
        ));
    }
    Ok(())
}

pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut rng = Rng::new(seed);
    let cases = cases(workload, &mut rng)?;
    let mut outcome = Outcome::default();

    let mut untraced = Tracer::new(false, epoch);
    prepare(&cases, &mut untraced)?;

    if !trace {
        let ph = phase(&cases, &mut rng, seconds, &mut untraced, &mut outcome)?;
        outcome.metrics = end_to_end(&mut contended(ph.rounds));
        return Ok(outcome);
    }

    // Traced run: an untraced third for the overhead baseline, then the
    // traced phase that feeds the ledger.
    let base = phase(&cases, &mut rng, seconds / 3.0, &mut untraced, &mut outcome)?;
    let mut tracer = Tracer::new(true, epoch);
    let ph = phase(
        &cases,
        &mut rng,
        seconds * 2.0 / 3.0,
        &mut tracer,
        &mut outcome,
    )?;
    let rate = |rounds: Vec<Round>| crate::stats::median(&contended(rounds).cycle_rates);
    let untraced_rate = rate(base.rounds).unwrap_or(0.0);

    let mut values = HashMap::new();
    ledger::core_and_bus(&ph.records, tracer.spans(), &mut values);
    ledger::setup_and_state(tracer.spans(), &ph.snap_bytes, &mut values);
    let traced_rate = rate(ph.rounds).unwrap_or(0.0);
    values.insert("trace.overhead_ratio".into(), untraced_rate / traced_rate);
    let (metrics, note) = ledger::finish(
        values,
        "boards this workload does not run, and the serve/sample metrics of the service path",
    );
    outcome.metrics = metrics;
    outcome.notes.push(("unmeasured", note));
    outcome.notes.push((
        "trace_overhead",
        Json::obj([
            ("untraced_sim_cycles_per_s", Json::F64(untraced_rate)),
            ("traced_sim_cycles_per_s", Json::F64(traced_rate)),
            ("spans", Json::U64(tracer.spans().len() as u64)),
        ]),
    ));
    Ok(outcome)
}

/// Prints the current fingerprints of every pinned catalog case in the
/// form of [`crate::fidelity::PINS`].
pub fn print_pins() {
    let mut rng = Rng::new(0);
    for w in [Workload::SimBurst, Workload::SimBus, Workload::SimIdle] {
        let cases = cases(w, &mut rng).unwrap_or_else(|e| panic!("{e}"));
        for case in cases.iter().filter(|c| c.periods.is_empty()) {
            let board = Board::parse(&case.text).expect("catalog board parses");
            let p = Prepared { case, board };
            let (mut m, _) = p
                .build(&mut Tracer::new(false, Instant::now()), 0, None)
                .expect("catalog board builds");
            advance(&mut m, p.case, 0, p.case.cycles).expect("catalog board runs");
            println!(
                "    (\"{}\", {}, {:#018x}),",
                p.case.label,
                p.case.cycles,
                fingerprint(&m)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_boards_keep_their_shape_and_jitter_periods_by_seed() {
        let draw = |seed| generated_timer_boards(&mut Rng::new(seed));
        assert_ne!(draw(1)[0].periods, draw(2)[0].periods);
        for seed in 0..20 {
            for (b, case) in draw(seed).iter().enumerate() {
                assert_eq!(case.periods.len(), GEN_STREAMS[b]);
                for (s, &p) in case.periods.iter().enumerate() {
                    let rung = GEN_PERIODS[(b + s) % GEN_PERIODS.len()];
                    assert!((rung..=rung + rung / 10).contains(&p));
                }
                assert!(case.periods.iter().all(|p| case.cycles % p >= GEN_SETTLE));
                Board::parse(&case.text).unwrap();
            }
        }
    }

    #[test]
    fn chunks_cover_the_machine_with_the_same_mix_every_time() {
        let mut rng = Rng::new(5);
        for cycles in [100_000, 200_000, 1_000_003] {
            let mut c = chunks(&mut rng, cycles);
            assert_eq!(c.iter().sum::<u64>(), cycles);
            c.sort_unstable();
            assert!(c[0] >= cycles / 32 && c[0] < cycles / 8, "{c:?}");
            assert!(c[4] < cycles * 9 / 16, "{c:?}");
        }
    }

    #[test]
    fn chunking_does_not_change_a_catalog_fingerprint() {
        let case = Case::catalog_from("../boards", "interrupt_heavy_3s", 20_000).unwrap();
        let board = Board::parse(&case.text).unwrap();
        let run = |chunks: &[u64]| {
            let mut m = board.machine().unwrap();
            let mut done = 0;
            for &n in chunks {
                advance(&mut m, &case, done, n).unwrap();
                done += n;
            }
            fingerprint(&m)
        };
        assert_eq!(run(&[20_000]), run(&[7, 4_093, 15_900]));
    }
}
