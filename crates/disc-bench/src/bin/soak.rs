//! Bounded isolation soak: seeded fault campaigns over the real-time
//! workload, asserting that faults aimed at one victim task never steal
//! throughput or deadlines from the others.
//!
//! Exit status is 0 only when every run is clean, so CI can gate on it.
//! A failing seed prints in the summary and replays exactly with
//! `--runs 1 --base-seed <seed>`.
//!
//! Usage: `soak [--runs N] [--horizon CYCLES] [--base-seed SEED]
//! [--report PATH] [--board FILE]` (worker count follows `DISC_JOBS`).
//! `--report` writes the campaign's schema-versioned run report JSON to
//! PATH in addition to the stdout summary. A missing or malformed flag
//! value, an unknown argument or `--runs 0` exits 2 with the usage on
//! stderr.
//!
//! `--board FILE` switches the campaign to a declarative board: each run
//! reseeds the board's `[[fault]]` plan (`Board::with_fault_seed`) and
//! drives its `[program]` for the horizon, failing on any simulator
//! fault; the first seed is re-run at the end and must replay
//! byte-identically. Board campaigns take `--runs`, `--horizon` and
//! `--base-seed`; the isolation invariants and `--report` apply only to
//! the built-in task workload.

use disc_board::Board;
use disc_rts::SoakConfig;

const USAGE: &str = "usage: soak [--runs N] [--horizon CYCLES] [--base-seed SEED] \
                     [--report PATH] [--board FILE]";

/// Prints `problem` and the usage to stderr and exits 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("soak: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn value(args: &mut std::env::Args, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

fn parse_u64(args: &mut std::env::Args, flag: &str) -> u64 {
    let value = value(args, flag);
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    }
    .unwrap_or_else(|e| usage_error(&format!("bad {flag} value {value:?}: {e}")))
}

/// One board-campaign run: drive the reseeded board for the horizon and
/// checksum the final snapshot for the determinism re-run.
fn board_run(board: &Board, cfg: &SoakConfig, seed: u64) -> Result<(u64, u64, u64, u64), String> {
    let reseeded = board.clone().with_fault_seed(seed);
    let mut m = reseeded
        .machine()
        .map_err(|e| format!("board rejected: {e}"))?;
    m.run(cfg.horizon)
        .map_err(|e| format!("simulator fault: {e}"))?;
    let checksum = m.snapshot().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let stats = m.stats();
    Ok((
        checksum,
        stats.cycles,
        stats.bus_faults_total(),
        stats.abi_timeouts,
    ))
}

/// Board campaign: `cfg.runs` reseeded fault runs of one board file,
/// plus a byte-determinism re-run of the first seed. Returns the exit
/// status.
fn run_board_campaign(path: &std::path::Path, cfg: &SoakConfig) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("soak: cannot read board {}: {e}", path.display());
            return 2;
        }
    };
    let board = match Board::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("soak: board {}: {e}", path.display());
            return 2;
        }
    };
    if board.fault_plan.is_none() {
        eprintln!(
            "soak: note: board {:?} has no [[fault]] entries; every seeded run is identical",
            board.name
        );
    }
    let seeds: Vec<u64> = (0..cfg.runs).map(|i| cfg.base_seed + i).collect();
    let results = disc_par::par_map(seeds, |seed| (seed, board_run(&board, cfg, seed)));

    let mut failures = 0u64;
    let mut cycles = 0u64;
    let mut bus_faults = 0u64;
    let mut abi_timeouts = 0u64;
    let mut first_checksum = None;
    for (seed, result) in &results {
        match result {
            Ok((checksum, c, bf, at)) => {
                if *seed == cfg.base_seed {
                    first_checksum = Some(*checksum);
                }
                cycles += c;
                bus_faults += bf;
                abi_timeouts += at;
            }
            Err(msg) => {
                failures += 1;
                println!("  seed {seed:#x}: {msg}");
            }
        }
    }

    // Byte-determinism: the first seed must replay to the same snapshot.
    let mut replay_diverged = false;
    if let Some(expect) = first_checksum {
        match board_run(&board, cfg, cfg.base_seed) {
            Ok((got, _, _, _)) if got == expect => {}
            Ok(_) => {
                replay_diverged = true;
                println!(
                    "  seed {:#x}: replay produced a different final snapshot",
                    cfg.base_seed
                );
            }
            Err(msg) => {
                replay_diverged = true;
                println!("  seed {:#x}: replay failed: {msg}", cfg.base_seed);
            }
        }
    }

    println!(
        "board {:?}: {} runs, {} failed, {} cycles simulated, \
         {bus_faults} bus faults, {abi_timeouts} abi timeouts, replay {}",
        board.name,
        cfg.runs,
        failures,
        cycles,
        if replay_diverged {
            "DIVERGED"
        } else {
            "byte-identical"
        },
    );
    i32::from(failures > 0 || replay_diverged)
}

fn main() {
    let mut cfg = SoakConfig::default();
    let mut report_path: Option<std::path::PathBuf> = None;
    let mut board_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" | "--seeds" => cfg.runs = parse_u64(&mut args, &arg),
            "--horizon" => cfg.horizon = parse_u64(&mut args, &arg),
            "--base-seed" => cfg.base_seed = parse_u64(&mut args, &arg),
            "--report" => report_path = Some(value(&mut args, &arg).into()),
            "--board" => board_path = Some(value(&mut args, &arg).into()),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if cfg.runs == 0 {
        usage_error("--runs must be at least 1");
    }
    eprintln!(
        "soak: {} runs x {} cycles, base seed {:#x}, {} jobs",
        cfg.runs,
        cfg.horizon,
        cfg.base_seed,
        disc_par::max_jobs().min(cfg.runs.max(1) as usize),
    );
    if let Some(path) = &board_path {
        if report_path.is_some() {
            usage_error("--board campaigns do not support --report");
        }
        std::process::exit(run_board_campaign(path, &cfg));
    }
    let t0 = std::time::Instant::now();
    let report = disc_rts::soak::run_campaign(&cfg);
    let wall_secs = t0.elapsed().as_secs_f64();
    print!("{}", report.summary());
    if let Some(path) = report_path {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create report dir");
            }
        }
        let run_report = report.run_report_timed(&cfg, Some(wall_secs)).render();
        std::fs::write(&path, run_report).expect("write run report");
        eprintln!("run report written to {}", path.display());
    }
    if !report.passed() {
        std::process::exit(1);
    }
}
