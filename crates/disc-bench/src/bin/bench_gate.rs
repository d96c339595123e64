//! Same-process ratio gate for the simulator's fast paths and the
//! session server.
//!
//! Every check compares two sides timed in this one process, in
//! interleaved pairs whose order alternates, so host speed divides out
//! of the verdict:
//!
//! * **Core pairs.** Each workload is run for [`CORE_CYCLES`] cycles by
//!   `Machine::run` and by a plain `step()` loop on the same machine,
//!   [`CORE_PAIRS`] times. Both sides must end in the same state
//!   (`fuzz::diff_machines`), and the median of step-loop time over
//!   `run` time must reach the workload's bound: the superblock burst
//!   path on `compute_bound_4s`/`branch_heavy_4s`, the quiescence skip
//!   on `timer_idle_1s`.
//! * **Serve triples.** [`SERVE_TRIPLES`] times, a fleet of
//!   [`SESSIONS`] countdown sessions runs in-process, then served by a
//!   1-worker and by a 2-worker `disc-serve` server to [`CLIENTS`]
//!   concurrent clients. Every served session's `done` report must carry
//!   the in-process twin's stats and burst at least 90 % of its cycles;
//!   served 1-worker throughput must reach [`SERVED_VS_IN_PROCESS`] of
//!   in-process, and 2 workers [`TWO_VS_ONE_WORKER`] of 1 worker.
//!
//! Usage: `bench_gate` (`make bench-gate`). It takes no arguments: any
//! argument prints the usage and exits 2. Exits 1 when a check fails.
//! Slowdowns that hit both sides of a pair alike are not this gate's
//! business; the repository benchmark (`perfbench`) owns end-to-end
//! speed.

use std::collections::BTreeSet;
use std::time::Instant;

use disc_bench::fuzz::diff_machines;
use disc_core::{Exit, Machine, MachineConfig, SimError, StepMode};
use disc_isa::Program;
use disc_obs::Json;
use disc_serve::{Client, Server, ServerConfig, ServerHandle};

type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const USAGE: &str = "usage: bench_gate (takes no arguments)";

/// Timed pairs per core workload.
const CORE_PAIRS: usize = 11;
/// Simulated cycles per side of a core pair.
const CORE_CYCLES: u64 = 500_000;

/// A core workload: the catalog board both sides start from, the step
/// mode its `run` side uses, and the least median step-loop/`run` time
/// ratio it must reach.
struct CoreGate {
    name: &'static str,
    step: StepMode,
    bound: f64,
}

impl CoreGate {
    fn build(&self) -> Machine {
        let board = disc_bench::board(self.name);
        board
            .machine_with_modes(self.step, board.config.dispatch_mode)
            .unwrap_or_else(|e| panic!("{}.board builds: {e}", self.name))
    }
}

const CORE_GATES: [CoreGate; 3] = [
    CoreGate {
        name: "compute_bound_4s",
        step: StepMode::CycleByCycle,
        bound: 1.5,
    },
    CoreGate {
        name: "branch_heavy_4s",
        step: StepMode::CycleByCycle,
        bound: 1.5,
    },
    CoreGate {
        name: "timer_idle_1s",
        step: StepMode::EventSkip,
        bound: 35.0,
    },
];

/// Interleaved serve triples.
const SERVE_TRIPLES: usize = 6;
/// Sessions per fleet.
const SESSIONS: usize = 64;
/// Concurrent client connections driving a served fleet.
const CLIENTS: usize = 4;
/// Cycle budget per `run` step; each session needs several steps.
const STEP_BUDGET: u64 = 20_000;
/// Sampling window streamed back per served session.
const SAMPLE_EVERY: u64 = 4_096;
/// Least median served-1-worker / in-process sessions/s ratio.
const SERVED_VS_IN_PROCESS: f64 = 0.4;
/// Least median 2-worker / 1-worker sessions/s ratio.
const TWO_VS_ONE_WORKER: f64 = 0.75;

/// A nested countdown, ~60k cycles, identical in every session.
const PROGRAM: &str = r#"
    .stream 0, main
main:
    ldi r2, 40
outer:
    ldi r0, 250
inner:
    subi r0, r0, 1
    jnz inner
    subi r2, r2, 1
    jnz outer
    sta r2, 0x20
    halt
"#;

/// Wall seconds `f` takes.
fn timed<T>(f: impl FnOnce() -> Result<T, SimError>) -> Res<f64> {
    let t0 = Instant::now();
    f()?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Times one pair: `cycles` cycles of a plain `step()` loop on
/// `reference` and one `run(cycles)` on `fast`, in the order
/// `fast_first` picks. Returns step-loop time over `run` time, or an
/// error when the two machines do not end in the same state.
fn pair(mut reference: Machine, mut fast: Machine, cycles: u64, fast_first: bool) -> Res<f64> {
    let mut step_loop = || timed(|| (0..cycles).try_for_each(|_| reference.step().map(drop)));
    let mut run = || timed(|| fast.run(cycles));
    let (t_ref, t_fast) = if fast_first {
        let t_fast = run()?;
        (step_loop()?, t_fast)
    } else {
        (step_loop()?, run()?)
    };
    let mut details = Vec::new();
    let (streams, internal) = (
        reference.stream_count(),
        reference.config().internal_words as u16,
    );
    diff_machines(
        "run vs step loop",
        &mut reference,
        &mut fast,
        streams,
        internal,
        &BTreeSet::new(),
        &mut details,
    );
    if !details.is_empty() {
        return Err(details.join("\n").into());
    }
    Ok(t_ref / t_fast.max(1e-9))
}

/// The median of `ratios` (the mean of the middle two for an even
/// count) and whether it reaches `bound`.
fn verdict(ratios: &[f64], bound: f64) -> (f64, bool) {
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    (median, median >= bound)
}

/// Prints one gated ratio and returns whether it passed.
fn report(what: &str, ratios: &[f64], bound: f64) -> bool {
    let (median, ok) = verdict(ratios, bound);
    let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().copied().fold(0.0, f64::max);
    println!(
        "  {what:<36} median {median:>6.2}x  [{lo:.2}..{hi:.2}] over {} pairs, bound >= {bound}x  {}",
        ratios.len(),
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

fn core_gates() -> Res<bool> {
    let mut ok = true;
    for gate in &CORE_GATES {
        let ratios = (0..CORE_PAIRS)
            .map(|i| pair(gate.build(), gate.build(), CORE_CYCLES, i % 2 == 0))
            .collect::<Res<Vec<f64>>>()
            .map_err(|e| format!("{}: {e}", gate.name))?;
        ok &= report(
            &format!("{} step loop / run", gate.name),
            &ratios,
            gate.bound,
        );
    }
    Ok(ok)
}

/// Runs one fleet in-process, serially, in the served step cadence.
fn in_process_fleet(program: &Program) -> Res<f64> {
    timed(|| {
        for _ in 0..SESSIONS {
            let mut m = Machine::new(MachineConfig::disc1(), program);
            while m.run(STEP_BUDGET)? == Exit::CycleLimit {}
            std::hint::black_box(m.stats().cycles);
        }
        Ok(())
    })
}

/// Holds a served session's `done` event to the in-process twin: equal
/// stats, and bursts covering at least 90 % of its cycles.
fn check_done(done: &Json, twin: &Json) -> Res<()> {
    let field = |path: &[&str]| path.iter().try_fold(done, |j, k| j.get(k));
    if field(&["report", "stats"]) != Some(twin) {
        return Err("a served session's stats differ from its in-process twin".into());
    }
    let cycles = field(&["cycles"]).and_then(Json::as_u64).unwrap_or(0);
    let burst = field(&["dispatch", "superblock", "burst_cycles"])
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if cycles == 0 || burst * 10 < cycles * 9 {
        return Err(
            format!("a served session burst {burst} of {cycles} cycles, below 90 %").into(),
        );
    }
    Ok(())
}

/// Drives `sessions` sessions to completion on one connection.
fn drive(addr: &str, sessions: usize, twin: &Json) -> Res<()> {
    let mut client = Client::connect(addr)?;
    for _ in 0..sessions {
        let session = client.create(PROGRAM, None, SAMPLE_EVERY, false)?;
        let done = loop {
            client.run(session, STEP_BUDGET)?;
            let done = client.wait_done(session)?;
            while client.next_event().is_some() {}
            if done.get("exit").and_then(Json::as_str) == Some("halted") {
                break done;
            }
        };
        check_done(&done, twin)?;
        client.close(session)?;
    }
    Ok(())
}

/// Serves one fleet to [`CLIENTS`] concurrent clients; wall seconds.
fn served_fleet(addr: &str, twin: &Json) -> Res<f64> {
    let t0 = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (addr, twin) = (addr.to_string(), twin.clone());
            std::thread::spawn(move || drive(&addr, SESSIONS / CLIENTS, &twin))
        })
        .collect();
    for client in clients {
        client.join().map_err(|_| "client thread panicked")??;
    }
    Ok(t0.elapsed().as_secs_f64())
}

fn spawn_server(workers: usize) -> Res<(ServerHandle, String)> {
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config)?.spawn();
    let addr = handle.addr().to_string();
    Ok((handle, addr))
}

fn serve_gates() -> Res<bool> {
    let program = Program::assemble(PROGRAM)?;
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    m.run(u64::MAX)?;
    let twin = disc_obs::stats_json(m.stats());

    let servers = [spawn_server(1)?, spawn_server(2)?];
    // Unrecorded warmup: a fresh server's first sessions pay one-off
    // costs (page faults, allocator growth) the timed fleets should not.
    for (_, addr) in &servers {
        drive(addr, 2, &twin)?;
    }
    let (mut served_1w, mut two_vs_one) = (Vec::new(), Vec::new());
    for triple in 0..SERVE_TRIPLES {
        let mut secs = [0.0; 3];
        for k in 0..3 {
            let side = (triple + k) % 3;
            secs[side] = match side {
                0 => in_process_fleet(&program)?,
                _ => served_fleet(&servers[side - 1].1, &twin)?,
            };
        }
        served_1w.push(secs[0] / secs[1]);
        two_vs_one.push(secs[1] / secs[2]);
    }
    for (handle, addr) in servers {
        Client::connect(&addr)?.shutdown()?;
        handle.join()?;
    }
    println!("  every served session matched its in-process twin and burst >= 90 % of its cycles");
    let served = report(
        "served 1 worker / in-process",
        &served_1w,
        SERVED_VS_IN_PROCESS,
    );
    let scaled = report(
        "served 2 workers / 1 worker",
        &two_vs_one,
        TWO_VS_ONE_WORKER,
    );
    Ok(served && scaled)
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    println!("bench_gate: core pairs ({CORE_PAIRS} x {CORE_CYCLES} cycles per side)");
    let core = core_gates();
    println!(
        "bench_gate: serve triples ({SERVE_TRIPLES} x {SESSIONS} sessions, {CLIENTS} clients)"
    );
    let serve = serve_gates();
    let mut pass = true;
    for result in [core, serve] {
        match result {
            Ok(ok) => pass &= ok,
            Err(e) => {
                println!("  FAIL: {e}");
                pass = false;
            }
        }
    }
    if !pass {
        println!("bench_gate: FAILED");
        std::process::exit(1);
    }
    println!("bench_gate: ok");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_refuses_a_ratio_for_diverging_machines() {
        let (compute, branch) = (CORE_GATES[0].build(), CORE_GATES[1].build());
        let err = pair(compute, branch, 2_000, false).expect_err("different programs diverge");
        assert!(err.to_string().contains("run vs step loop"), "{err}");
    }

    #[test]
    fn pair_times_equal_machines() {
        let gate = &CORE_GATES[0];
        let ratio = pair(gate.build(), gate.build(), 2_000, true).expect("same machine");
        assert!(ratio.is_finite() && ratio > 0.0, "{ratio}");
    }

    #[test]
    fn verdict_takes_the_median_ratio_at_the_bound() {
        // Odd count: the middle ratio, whatever the outliers.
        assert_eq!(verdict(&[9.0, 0.1, 2.0], 2.0), (2.0, true));
        assert!(!verdict(&[9.0, 0.1, 2.0], 2.0 + 1e-9).1);
        // Even count: the mean of the middle two.
        assert_eq!(verdict(&[4.0, 1.0, 3.0, 2.0], 2.5), (2.5, true));
        assert!(!verdict(&[4.0, 1.0, 3.0, 2.0], 2.5 + 1e-9).1);
    }
}
