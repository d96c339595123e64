//! The `serve_fleet` workload: an in-process `disc-serve` server at one
//! worker, driven over TCP by two closed-loop client threads, each on
//! its own connection.
//!
//! Every session is created by `board_name` from the committed catalog
//! (a seeded shuffle of the whole catalog per round), runs [`STEPS`]
//! budgeted `run` steps with a `stat` after each, and is closed. A seeded
//! [`EVICT_PER_ROUND`] sessions of each round snapshot, evict and resume
//! between steps. A session fails on a nack, an `error` event, a missing
//! terminal event, or a final fingerprint that differs from an in-process
//! one-shot run of the same board.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use disc_board::Board;
use disc_core::{Exit, Machine};
use disc_obs::{Json, RunReport, WireSink};
use disc_serve::{Client, ServeError, Server, ServerConfig, ServerHandle};

use crate::ledger::{self, MachineRecord};
use crate::sim::wrapped_machine;
use crate::stats;
use crate::trace::{BusLedger, SpanId, Tracer};
use crate::{end_to_end, secs, Measured, Outcome, Rng};

const CATALOG: [&str; 13] = [
    "branch_heavy_4s",
    "compute_bound_4s",
    "dma_copy_2s",
    "faulted_io_2s",
    "fig_3_1",
    "fig_3_2_1s",
    "fig_3_3",
    "fig_3_4",
    "interrupt_heavy_3s",
    "io_bound_2s",
    "packet_rx_2s",
    "storage_log_2s",
    "timer_idle_1s",
];
const BOARD_DIR: &str = "boards";
/// Scratch directory for evicted sessions' snapshots, inside the
/// working directory; removed when the run ends.
const RUN_DIR: &str = ".perfbench_run";
const WORKERS: usize = 1;
const CLIENTS: usize = 2;
const STEPS: usize = 4;
const STEP_BUDGET: u64 = 32_768;
const SAMPLE_EVERY: u64 = 4_096;
const EVICT_PER_ROUND: usize = 3;
/// Evicting sessions snapshot, evict and resume after this step (0-based).
const EVICT_AFTER: usize = 1;
const SETUP_REPS: usize = 21;
/// Rates are medians over this many equal windows of the timed phase.
const WINDOWS: usize = 10;
/// Traced sessions replayed in-process for the step-time split.
const REPLAY_SESSIONS: usize = 150;

#[derive(Clone, Copy)]
struct Plan {
    board: &'static str,
    evict: bool,
}

/// Seeded rounds: each a shuffle of the whole catalog with a seeded
/// [`EVICT_PER_ROUND`] of them evicting.
struct Plans {
    rng: Rng,
    round: Vec<Plan>,
}

impl Plans {
    fn next(&mut self) -> Plan {
        if self.round.is_empty() {
            let mut boards = CATALOG;
            self.rng.shuffle(&mut boards);
            let mut evict = [false; CATALOG.len()];
            evict[..EVICT_PER_ROUND].fill(true);
            self.rng.shuffle(&mut evict);
            self.round = boards
                .into_iter()
                .zip(evict)
                .map(|(board, evict)| Plan { board, evict })
                .rev()
                .collect();
        }
        self.round.pop().expect("round refilled above")
    }
}

struct Step {
    latency_ns: f64,
    done_at_ns: u64,
    cycles: u64,
    fingerprint: u64,
}

struct SessionLog {
    plan: Plan,
    steps: Vec<Step>,
    closed_at_ns: u64,
    burst_cycles: u64,
    samples: u64,
    event_bytes: u64,
    result: Result<(), String>,
}

/// One client thread's share of a timed phase.
struct ClientLog {
    sessions: Vec<SessionLog>,
    ctl_ns: Vec<f64>,
    tracer: Tracer,
}

fn u64_field(j: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(j, |j, k| j.get(k))?.as_u64()
}

/// Times one control call into `ctl` and a span.
fn ctl<T>(
    log: &mut ClientLog,
    name: &'static str,
    owner: u64,
    f: impl FnOnce() -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let t = Instant::now();
    let out = log.tracer.time(name, owner, None, f);
    log.ctl_ns.push(t.elapsed().as_nanos() as f64);
    out
}

fn drive_session(
    client: &mut Client,
    plan: Plan,
    log: &mut ClientLog,
    epoch: Instant,
    s: &mut SessionLog,
) -> Result<(), ServeError> {
    let id = ctl(log, "serve.create", 0, || {
        client.create_board_named(plan.board, SAMPLE_EVERY, false)
    })?;
    let mut cycles = 0;
    for step in 0..STEPS {
        let t = Instant::now();
        let span: Option<SpanId> = log.tracer.begin("serve.step", id, None);
        log.tracer
            .time("serve.run_ack", id, span, || client.run(id, STEP_BUDGET))?;
        let done = client.wait_done(id)?;
        log.tracer.end(span);
        let latency_ns = t.elapsed().as_nanos() as f64;
        let done_at_ns = epoch.elapsed().as_nanos() as u64;
        if log.tracer.on() {
            s.event_bytes += done.render().len() as u64 + 1;
            while let Some(e) = client.next_event() {
                s.samples += u64::from(e.get("event").and_then(Json::as_str) == Some("sample"));
                s.event_bytes += e.render().len() as u64 + 1;
            }
        } else {
            while client.next_event().is_some() {}
        }
        let now = u64_field(&done, &["cycles"]).unwrap_or(0);
        let exit = done
            .get("exit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        s.burst_cycles = u64_field(&done, &["dispatch", "superblock", "burst_cycles"]).unwrap_or(0);
        s.steps.push(Step {
            latency_ns,
            done_at_ns,
            cycles: now - cycles,
            fingerprint: u64_field(&done, &["fingerprint"]).unwrap_or(0),
        });
        cycles = now;
        ctl(log, "serve.stat", id, || client.stat(id))?;
        if exit != "cycle-limit" {
            break;
        }
        if plan.evict && step == EVICT_AFTER {
            ctl(log, "serve.snapshot", id, || client.snapshot(id))?;
            ctl(log, "serve.evict", id, || client.evict(id))?;
            ctl(log, "serve.resume", id, || client.resume(id))?;
        }
    }
    ctl(log, "serve.close", id, || client.close(id))
}

/// Closed loop: the next session starts only after the previous one
/// closed; no session starts after `deadline`.
fn client_loop(
    client: &mut Client,
    plans: &mut Plans,
    deadline: Instant,
    epoch: Instant,
    trace: bool,
) -> ClientLog {
    let mut log = ClientLog {
        sessions: Vec::new(),
        ctl_ns: Vec::new(),
        tracer: Tracer::new(trace, epoch),
    };
    while Instant::now() < deadline {
        let plan = plans.next();
        let mut s = SessionLog {
            plan,
            steps: Vec::new(),
            closed_at_ns: 0,
            burst_cycles: 0,
            samples: 0,
            event_bytes: 0,
            result: Ok(()),
        };
        let result = drive_session(client, plan, &mut log, epoch, &mut s);
        s.closed_at_ns = epoch.elapsed().as_nanos() as u64;
        let fatal = matches!(result, Err(ServeError::Io(_) | ServeError::Protocol(_)));
        s.result = result.map_err(|e| format!("{}: {e}", plan.board));
        log.sessions.push(s);
        if fatal {
            break; // the connection is gone
        }
    }
    log
}

struct Fleet {
    handle: ServerHandle,
    clients: Vec<Client>,
}

fn start(evict_dir: &std::path::Path) -> Result<Fleet, String> {
    let config = ServerConfig {
        workers: WORKERS,
        evict_dir: evict_dir.to_path_buf(),
        board_dir: Some(BOARD_DIR.into()),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .map_err(|e| format!("bind: {e}"))?
        .spawn();
    let addr = handle.addr().to_string();
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(&addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Fleet { handle, clients })
}

fn stop(fleet: Fleet) -> Result<(), String> {
    let addr = fleet.handle.addr().to_string();
    drop(fleet.clients);
    Client::connect(&addr)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("shutdown: {e}"))?;
    fleet.handle.join().map_err(|e| format!("server: {e}"))
}

/// One timed phase across all clients; logs come back in client order.
fn phase(
    clients: &mut [Client],
    plans: &mut [Plans],
    seconds: f64,
    epoch: Instant,
    trace: bool,
) -> (Vec<ClientLog>, u64, u64) {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans.iter_mut())
            .map(|(c, p)| scope.spawn(move || client_loop(c, p, deadline, epoch, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end_ns = epoch.elapsed().as_nanos() as u64;
    (logs, start_ns, end_ns)
}

/// Per-window rates of served cycles and closed sessions.
fn windowed(sessions: &[&SessionLog], start_ns: u64, end_ns: u64) -> (Vec<f64>, Vec<f64>) {
    let width = (end_ns - start_ns).max(WINDOWS as u64) / WINDOWS as u64;
    let slot = |t: u64| (((t.saturating_sub(start_ns)) / width) as usize).min(WINDOWS - 1);
    let mut cycles = [0u64; WINDOWS];
    let mut closed = [0u64; WINDOWS];
    for s in sessions {
        closed[slot(s.closed_at_ns)] += 1;
        for st in &s.steps {
            cycles[slot(st.done_at_ns)] += st.cycles;
        }
    }
    let w = width as f64 / 1e9;
    (
        cycles.iter().map(|&c| c as f64 / w).collect(),
        closed.iter().map(|&c| c as f64 / w).collect(),
    )
}

/// A machine exactly as the server builds a session's, with the same
/// sampling sink (writing nowhere).
fn served_twin(board: &Board) -> Result<Machine, String> {
    let mut m = board.machine().map_err(|e| e.to_string())?;
    attach_sink(&mut m);
    Ok(m)
}

fn attach_sink(m: &mut Machine) {
    let out = Arc::new(Mutex::new(std::io::sink()));
    let sink = WireSink::resume_at(out, 0, SAMPLE_EVERY, m.cycle(), m.stats());
    m.set_trace_sink(Box::new(sink));
}

/// The `done` event's report fingerprint, computed the way the server
/// does.
fn report_fingerprint(m: &Machine) -> u64 {
    let report = RunReport::from_machine("disc-serve", m).to_json();
    disc_snap::checksum(report.render().as_bytes())
}

/// Advances a twin by `budget` cycles the way a served `run` does; the
/// server detaches the sink when the run ends for good.
fn twin_step(m: &mut Machine, budget: u64) -> Result<Exit, String> {
    let run = m.run_chunk(budget).map_err(|e| e.to_string())?;
    m.flush_trace_sink();
    if matches!(run.exit, Exit::Halted | Exit::AllIdle) {
        m.take_trace_sink();
    }
    Ok(run.exit)
}

/// Final fingerprint of an in-process one-shot run of every board.
fn references(boards: &HashMap<&'static str, Board>) -> Result<HashMap<&'static str, u64>, String> {
    boards
        .iter()
        .map(|(&name, board)| {
            let mut m = served_twin(board)?;
            twin_step(&mut m, STEP_BUDGET * STEPS as u64).map_err(|e| format!("{name}: {e}"))?;
            Ok((name, report_fingerprint(&m)))
        })
        .collect()
}

/// Per-step timings of one replayed session.
struct Replay {
    sim_ns: Vec<f64>,
    report_ns: Vec<f64>,
    render_ns: f64,
    rendered: f64,
}

/// Replays a served session in-process twice: on a plain twin, timing
/// each step's `run_chunk` and report (the step-time split), and on a
/// twin whose bus is wrapped (the core and bus ledger). Both must
/// reproduce every fingerprint the server sent.
fn replay(
    s: &SessionLog,
    owner: u64,
    text: &str,
    tracer: &mut Tracer,
    records: &mut Vec<MachineRecord>,
    snap_bytes: &mut Vec<f64>,
) -> Result<Replay, String> {
    let name = s.plan.board;
    let board = tracer
        .time("board.parse", owner, None, || Board::parse(text))
        .map_err(|e| e.to_string())?;
    let mut out = Replay {
        sim_ns: Vec::new(),
        report_ns: Vec::new(),
        render_ns: 0.0,
        rendered: 0.0,
    };
    let mut m = served_twin(&board)?;
    for (i, step) in s.steps.iter().enumerate() {
        let t = Instant::now();
        tracer.time("serve.step_sim", owner, None, || {
            twin_step(&mut m, STEP_BUDGET)
        })?;
        out.sim_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let fp = tracer.time("obs.report", owner, None, || report_fingerprint(&m));
        out.report_ns.push(t.elapsed().as_nanos() as f64);
        if fp != step.fingerprint {
            return Err(format!(
                "{name}: step {i} replays to a different fingerprint"
            ));
        }
        if s.plan.evict && i == EVICT_AFTER && i + 1 < s.steps.len() {
            let bytes = tracer.time("snap.save", owner, None, || m.snapshot());
            snap_bytes.push(bytes.len() as f64);
            let mut fresh = board.machine().map_err(|e| e.to_string())?;
            tracer
                .time("snap.restore", owner, None, || fresh.restore(&bytes))
                .map_err(|e| format!("{name}: restore: {e}"))?;
            attach_sink(&mut fresh);
            m = fresh;
        }
    }
    (out.render_ns, out.rendered) = sample_render(&mut m);

    // The wrapped twin: same steps, bus counted and timed.
    let (step, dispatch) = (board.config.step_mode, board.config.dispatch_mode);
    let program = tracer
        .time("isa.assemble", owner, None, || board.program())
        .map_err(|e| e.to_string())?;
    let bus = Arc::new(BusLedger::default());
    let mut m = tracer.time("board.build", owner, None, || {
        wrapped_machine(&board, step, dispatch, &program, Arc::clone(&bus))
    });
    attach_sink(&mut m);
    for (i, _) in s.steps.iter().enumerate() {
        let span = tracer.begin("core.run", owner, None);
        let bus0 = bus.total_ns();
        let exit = twin_step(&mut m, STEP_BUDGET);
        tracer.add_inner(span, bus.total_ns() - bus0);
        tracer.end(span);
        exit?;
        if s.plan.evict && i == EVICT_AFTER && i + 1 < s.steps.len() {
            let bytes = m.snapshot();
            let mut fresh = wrapped_machine(&board, step, dispatch, &program, Arc::clone(&bus));
            fresh
                .restore(&bytes)
                .map_err(|e| format!("{name}: restore: {e}"))?;
            attach_sink(&mut fresh);
            m = fresh;
        }
    }
    if Some(report_fingerprint(&m)) != s.steps.last().map(|st| st.fingerprint) {
        return Err(format!(
            "{name}: the bus-wrapped twin changed the fingerprint"
        ));
    }
    records.push(MachineRecord {
        label: name,
        owner,
        cycles: m.cycle(),
        superblock: *m.superblock_stats(),
        skip: *m.skip_stats(),
        bus,
    });
    Ok(out)
}

/// Times `render_sample_into` over the samples the twin's sink kept;
/// returns (ns, samples rendered).
fn sample_render(m: &mut Machine) -> (f64, f64) {
    let Some(sink) = m.take_trace_sink() else {
        return (0.0, 0.0);
    };
    let Ok(sink) = sink.into_any().downcast::<WireSink<std::io::Sink>>() else {
        return (0.0, 0.0);
    };
    let mut buf = String::new();
    let t = Instant::now();
    for sample in sink.samples() {
        buf.clear();
        disc_obs::sink::render_sample_into(&mut buf, sample);
        std::hint::black_box(&buf);
    }
    (t.elapsed().as_nanos() as f64, sink.samples().len() as f64)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let epoch = Instant::now();
    if !std::path::Path::new(BOARD_DIR).is_dir() {
        return Err(format!(
            "{BOARD_DIR}/ not found (run from the repository root)"
        ));
    }
    let evict_dir = std::path::Path::new(RUN_DIR).join(format!("evict-{}", std::process::id()));
    let out = run_in(seed, seconds, trace, epoch, &evict_dir);
    let _ = std::fs::remove_dir_all(&evict_dir);
    let _ = std::fs::remove_dir(RUN_DIR);
    out
}

fn run_in(
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
    evict_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed);
    let mut plans: Vec<Plans> = (0..CLIENTS)
        .map(|_| Plans {
            rng: Rng::new(rng.next_u64()),
            round: Vec::new(),
        })
        .collect();

    // Set-up is repeated before and after the timed phases, so its
    // median spans the run's stretch of host time.
    let mut setup_s = Vec::new();
    let mut timed_start = || -> Result<Fleet, String> {
        let t = Instant::now();
        let f = start(evict_dir)?;
        setup_s.push(secs(t));
        Ok(f)
    };
    for _ in 0..SETUP_REPS / 2 {
        stop(timed_start()?)?;
    }
    let mut fleet = timed_start()?;
    let workers = fleet.clients[0]
        .hello()
        .get("workers")
        .and_then(Json::as_u64);
    if workers != Some(WORKERS as u64) {
        return Err(format!(
            "server reports {workers:?} workers, wanted {WORKERS}"
        ));
    }

    let mut outcome = Outcome::default();
    let base_seconds = if trace { seconds / 3.0 } else { seconds };
    let (base, s0, s1) = phase(&mut fleet.clients, &mut plans, base_seconds, epoch, false);
    let traced = trace.then(|| {
        phase(
            &mut fleet.clients,
            &mut plans,
            seconds - base_seconds,
            epoch,
            true,
        )
    });
    stop(fleet)?;
    for _ in 0..SETUP_REPS / 2 {
        stop(timed_start()?)?;
    }

    let mut texts = HashMap::new();
    let mut boards = HashMap::new();
    for name in CATALOG {
        let text = std::fs::read_to_string(format!("{BOARD_DIR}/{name}.board"))
            .map_err(|e| format!("{name}: {e}"))?;
        boards.insert(
            name,
            Board::parse(&text).map_err(|e| format!("{name}: {e}"))?,
        );
        texts.insert(name, text);
    }
    let refs = references(&boards)?;
    let verify = |logs: &[ClientLog], outcome: &mut Outcome| {
        for s in logs.iter().flat_map(|l| &l.sessions) {
            let last = s.steps.last().map(|st| st.fingerprint);
            outcome.record(s.result.clone().and_then(|()| {
                if last == refs.get(s.plan.board).copied() {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: final fingerprint differs from the in-process run",
                        s.plan.board
                    ))
                }
            }));
        }
    };
    verify(&base, &mut outcome);

    let measured_of = |logs: &[ClientLog], start: u64, end: u64| {
        let sessions: Vec<&SessionLog> = logs.iter().flat_map(|l| &l.sessions).collect();
        let (cycle_rates, session_rates) = windowed(&sessions, start, end);
        Measured {
            cycle_rates,
            session_rates,
            step_ns: sessions
                .iter()
                .flat_map(|s| s.steps.iter().map(|st| st.latency_ns))
                .collect(),
            ctl_ns: logs.iter().flat_map(|l| l.ctl_ns.iter().copied()).collect(),
            setup_s: Vec::new(),
            round: "equal windows of the timed phase",
        }
    };
    let mut base_m = measured_of(&base, s0, s1);
    let Some((logs, t0, t1)) = traced else {
        base_m.setup_s = setup_s;
        outcome.metrics = end_to_end(&mut base_m);
        return Ok(outcome);
    };
    verify(&logs, &mut outcome);
    let traced_m = measured_of(&logs, t0, t1);
    ledger_of(logs, &texts, &base_m, &traced_m, epoch, &mut outcome);
    Ok(outcome)
}

/// The traced run's per-layer ledger and the step-time split.
fn ledger_of(
    logs: Vec<ClientLog>,
    texts: &HashMap<&'static str, String>,
    base: &Measured,
    traced: &Measured,
    epoch: Instant,
    outcome: &mut Outcome,
) {
    let mut tracer = Tracer::new(true, epoch);
    let mut sessions = Vec::new();
    for log in logs {
        tracer.absorb(log.tracer);
        sessions.extend(log.sessions);
    }
    let mut values = HashMap::new();
    for (metric, span) in [
        ("serve.create_us", "serve.create"),
        ("serve.run_ack_us", "serve.run_ack"),
        ("serve.stat_us", "serve.stat"),
        ("serve.snapshot_us", "serve.snapshot"),
        ("serve.evict_us", "serve.evict"),
        ("serve.resume_us", "serve.resume"),
        ("serve.close_us", "serve.close"),
    ] {
        if let Some(v) = ledger::span_median_us(tracer.spans(), span) {
            values.insert(metric.to_string(), v);
        }
    }
    let steps: f64 = sessions.iter().map(|s| s.steps.len() as f64).sum();
    let cycles: f64 = sessions
        .iter()
        .flat_map(|s| s.steps.iter().map(|st| st.cycles as f64))
        .sum();
    let burst: f64 = sessions.iter().map(|s| s.burst_cycles as f64).sum();
    values.insert(
        "serve.event_bytes_per_step".into(),
        sessions.iter().map(|s| s.event_bytes as f64).sum::<f64>() / steps,
    );
    values.insert(
        "obs.samples_per_step".into(),
        sessions.iter().map(|s| s.samples as f64).sum::<f64>() / steps,
    );
    values.insert("serve.burst_share".into(), burst / cycles);

    // Replay the first sessions in-process and split each served step.
    let mut records = Vec::new();
    let mut snap_bytes = Vec::new();
    let (mut served_ns, mut sim_ns, mut report_ns, mut replay_cycles, mut paired) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut render_ns, mut rendered) = (0.0, 0.0);
    for (owner, s) in sessions
        .iter()
        .filter(|s| s.result.is_ok())
        .take(REPLAY_SESSIONS)
        .enumerate()
    {
        let text = &texts[s.plan.board];
        match replay(
            s,
            owner as u64,
            text,
            &mut tracer,
            &mut records,
            &mut snap_bytes,
        ) {
            Ok(r) => {
                render_ns += r.render_ns;
                rendered += r.rendered;
                for (st, (sim, rep)) in s.steps.iter().zip(r.sim_ns.iter().zip(&r.report_ns)) {
                    served_ns += st.latency_ns;
                    sim_ns += sim;
                    report_ns += rep;
                    replay_cycles += st.cycles as f64;
                    paired += 1.0;
                }
            }
            Err(e) => outcome.record(Err(format!("replay: {e}"))),
        }
    }
    ledger::core_and_bus(&records, tracer.spans(), &mut values);
    ledger::setup_and_state(tracer.spans(), &snap_bytes, &mut values);
    if rendered > 0.0 {
        values.insert("obs.sample_render_ns".into(), render_ns / rendered);
    }
    let mean = |ns: f64| ns / paired / 1e3;
    let residual = served_ns - sim_ns - report_ns;
    values.insert("serve.step_us".into(), mean(served_ns));
    values.insert("serve.step_sim_us".into(), mean(sim_ns));
    values.insert("obs.report_us".into(), mean(report_ns));
    values.insert("serve.step_residual_us".into(), mean(residual));
    values.insert(
        "serve.served_cycles_per_s".into(),
        replay_cycles / (served_ns / 1e9),
    );
    values.insert(
        "serve.inprocess_cycles_per_s".into(),
        replay_cycles / (sim_ns / 1e9),
    );
    let untraced = stats::median(&base.cycle_rates).unwrap_or(0.0);
    let traced_rate = stats::median(&traced.cycle_rates).unwrap_or(0.0);
    values.insert("trace.overhead_ratio".into(), untraced / traced_rate);

    let (metrics, note) = ledger::finish(
        values,
        "sim-only boards and the generated timer boards are not served",
    );
    outcome.metrics = metrics;
    outcome.notes.push(("unmeasured", note));
    outcome.notes.push((
        "step_time_split",
        Json::obj([
            ("steps", Json::U64(paired as u64)),
            ("step_us", Json::F64(mean(served_ns))),
            ("step_sim_us", Json::F64(mean(sim_ns))),
            ("report_us", Json::F64(mean(report_ns))),
            ("residual_us", Json::F64(mean(residual))),
            ("residual_share", Json::F64(residual / served_ns)),
        ]),
    ));
    outcome.notes.push((
        "trace_overhead",
        Json::obj([
            ("untraced_sim_cycles_per_s", Json::F64(untraced)),
            ("traced_sim_cycles_per_s", Json::F64(traced_rate)),
        ]),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_runs_the_whole_catalog_with_a_fixed_evict_count() {
        let mut plans = Plans {
            rng: Rng::new(3),
            round: Vec::new(),
        };
        for _ in 0..4 {
            let round: Vec<Plan> = (0..CATALOG.len()).map(|_| plans.next()).collect();
            let mut names: Vec<&str> = round.iter().map(|p| p.board).collect();
            names.sort_unstable();
            assert_eq!(names, CATALOG);
            assert_eq!(round.iter().filter(|p| p.evict).count(), EVICT_PER_ROUND);
        }
    }
}
