//! Benchmark and reproduction harness.
//!
//! Every table and figure of the paper has a generator here (run by the
//! `repro_all` binary, one at a time with `--only NAME`, and by unit
//! tests). Table generators live in `disc-stoch`; this crate
//! adds the figure reproductions, which run on the *cycle-accurate*
//! machine, plus the latency and synchronization experiments.

pub mod experiments;
pub mod figures;
pub mod fuzz;

use disc_board::Board;
use disc_core::{Machine, SkipStats, StepMode};
use disc_obs::Json;

/// The committed board catalog: one `<name>.board` file per canonical
/// machine (the paper-figure machines and the bench workloads). Anchored
/// on this crate's manifest, not the working directory, so the binaries
/// find it wherever they are run from.
pub const BOARDS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../boards");

/// Loads and parses the catalog board `boards/<name>.board`.
///
/// # Panics
///
/// Panics when the file is missing or does not parse: the catalog is
/// committed, so either is a bug.
pub fn board(name: &str) -> Board {
    let path = format!("{BOARDS_DIR}/{name}.board");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Board::parse(&text).unwrap_or_else(|e| panic!("{name}.board parses: {e}"))
}

/// Builds `board`'s machine with its step mode replaced by `step`.
///
/// # Panics
///
/// Panics when the board has no program or it fails to assemble.
pub fn machine_in(board: &Board, step: StepMode) -> Machine {
    let mut board = board.clone();
    board.config.step_mode = step;
    board
        .machine()
        .unwrap_or_else(|e| panic!("{}: {e}", board.name))
}

/// Builds the v2 `timing` section for a stochastic sweep report: the
/// model is stepped cycle by cycle (event skipping applies only to the
/// cycle-accurate machine), and every table cell is `seeds` independent
/// runs of `cycles` cycles, so the wall-clock throughput is exact.
pub fn sweep_timing(table: &disc_stoch::Table, cycles: u64, seeds: u64, wall_secs: f64) -> Json {
    let total = (table.rows().len() * table.columns().len()) as u64 * seeds * cycles;
    let rate = (wall_secs > 0.0).then(|| total as f64 / wall_secs);
    disc_obs::timing_json(StepMode::CycleByCycle, rate, &SkipStats::default())
}

/// Renders a `disc-stoch` result table as JSON for inclusion in a
/// [`disc_obs::RunReport`] section.
pub fn table_json(table: &disc_stoch::Table) -> Json {
    Json::obj([
        ("title", Json::str(table.title())),
        (
            "columns",
            Json::Arr(table.columns().iter().map(Json::str).collect()),
        ),
        (
            "rows",
            Json::Arr(
                table
                    .rows()
                    .iter()
                    .map(|(label, values)| {
                        Json::obj([
                            ("label", Json::str(label)),
                            (
                                "values",
                                Json::Arr(values.iter().map(|&v| Json::F64(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Standard horizon for "full" table runs.
pub const FULL_CYCLES: u64 = 200_000;

/// Reduced horizon for quick/CI runs.
pub const QUICK_CYCLES: u64 = 40_000;

/// Seeds for full runs.
pub const FULL_SEEDS: u64 = 5;

/// Seeds for quick runs.
pub const QUICK_SEEDS: u64 = 2;

/// Picks (cycles, seeds) from the command line: `--quick` selects the
/// reduced configuration.
pub fn run_scale() -> (u64, u64) {
    if std::env::args().any(|a| a == "--quick") {
        (QUICK_CYCLES, QUICK_SEEDS)
    } else {
        (FULL_CYCLES, FULL_SEEDS)
    }
}
