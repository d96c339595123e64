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
pub mod replay;
pub mod workloads;

use disc_core::{SkipStats, StepMode};
use disc_obs::Json;

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
