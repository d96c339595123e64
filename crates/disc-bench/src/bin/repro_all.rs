//! Runs every table, figure and experiment generator in order — the full
//! reproduction pass recorded in EXPERIMENTS.md. Pass `--quick` to reduce
//! the stochastic runs, and `--csv <dir>` to additionally export every
//! table as CSV and every figure/experiment as text into `<dir>`. Every
//! full pass also writes a schema-versioned `results/repro_all.report.json`
//! summarizing the tables, the cycle-attribution profile of the Table 4.1
//! machine workload, and the producing configuration.
//!
//! `--only NAME[,NAME...]` runs just the named generators (in table
//! order, whatever order they are given in) and prints exactly their
//! sections of the full pass. The names are the export stems listed in
//! [`GENERATORS`]; an unknown name exits 2 and lists them. The §4.2 and
//! §5 sweeps also write their own `results/<name>.report.json` whenever
//! they run.

use std::path::PathBuf;
use std::time::Instant;

use disc_bench::{experiments, figures};
use disc_core::{SkipStats, StepMode};
use disc_obs::{Json, RunReport};
use disc_stoch::{tables, Table};

/// How a generator produces its section.
enum Generator {
    /// One fixed table.
    Table(fn() -> Table),
    /// A PD/delta pair at the run scale, exported as `<name>a`/`<name>b`.
    Pair(fn(u64, u64) -> (Table, Table)),
    /// A §4.2 sweep of the stochastic model at the run scale.
    Sweep(fn(u64, u64) -> Table),
    /// The §5 stack-window depth sweep, a quarter as many calls as the
    /// run has cycles per cell.
    WindowSweep,
    /// A figure or experiment rendered as text.
    Text(fn() -> String),
}

/// Every generator of the reproduction, named by its export stem, in
/// output order.
const GENERATORS: &[(&str, Generator)] = &[
    ("table_4_1", Generator::Table(tables::table_4_1)),
    ("table_4_2", Generator::Pair(tables::table_4_2)),
    ("table_4_3", Generator::Pair(tables::table_4_3)),
    ("sweep_jump", Generator::Sweep(tables::sweep_jump)),
    ("sweep_io", Generator::Sweep(tables::sweep_io)),
    ("sweep_pipeline", Generator::Sweep(tables::sweep_pipeline)),
    ("sweep_scheduler", Generator::Sweep(tables::sweep_scheduler)),
    ("sweep_window", Generator::WindowSweep),
    (
        "fig_3_1",
        Generator::Text(figures::fig_3_1_interleaved_pipeline),
    ),
    ("fig_3_2", Generator::Text(figures::fig_3_2_jump)),
    ("fig_3_3", Generator::Text(figures::fig_3_3_dynamic)),
    ("fig_3_4", Generator::Text(figures::fig_3_4_stack_window)),
    ("fig_3_6", Generator::Text(figures::fig_3_6_block_diagram)),
    ("exp_latency", Generator::Text(experiments::latency_table)),
    ("exp_sync", Generator::Text(experiments::sync_experiment)),
    (
        "ablation_scheduler",
        Generator::Text(experiments::scheduler_ablation),
    ),
    // Cycle attribution for the Table 4.1 machine workload, last so the
    // historical sections before it stay byte-identical.
    (
        "cycle_attribution",
        Generator::Text(experiments::cycle_attribution),
    ),
];

/// One reproduction pass in progress: the run scale, the export
/// directory, and the tables collected for the `repro_all` report.
struct Run {
    cycles: u64,
    seeds: u64,
    dir: Option<PathBuf>,
    tables: Vec<(String, Json)>,
}

impl Run {
    /// Prints generator `name`'s section and writes its exports.
    fn generate(&mut self, name: &str, generator: &Generator) {
        let (cycles, seeds) = (self.cycles, self.seeds);
        match *generator {
            Generator::Table(table) => self.table(name, &table()),
            Generator::Pair(pair) => {
                let (pd, delta) = pair(cycles, seeds);
                self.table(&format!("{name}a"), &pd);
                self.table(&format!("{name}b"), &delta);
            }
            Generator::Sweep(sweep) => {
                let t0 = Instant::now();
                let table = sweep(cycles, seeds);
                let wall = t0.elapsed().as_secs_f64();
                let scale = Json::obj([
                    ("cycles_per_cell", Json::U64(cycles)),
                    ("seeds", Json::U64(seeds)),
                ]);
                let timing = disc_bench::sweep_timing(&table, cycles, seeds, wall);
                self.sweep(name, &table, scale, timing);
            }
            Generator::WindowSweep => {
                let calls = cycles / 4;
                let table = disc_stoch::sweep_window_depth(calls, 11);
                // Cell cost here is measured in calls, not cycles, so the
                // timing section carries no cycle throughput.
                let timing =
                    disc_obs::timing_json(StepMode::CycleByCycle, None, &SkipStats::default());
                let scale = Json::obj([("calls", Json::U64(calls))]);
                self.sweep(name, &table, scale, timing);
            }
            Generator::Text(render) => {
                let text = render();
                println!("{text}");
                self.save(&format!("{name}.txt"), &text);
            }
        }
    }

    fn save(&self, file: &str, contents: &str) {
        if let Some(dir) = &self.dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            std::fs::write(dir.join(file), contents).expect("write export");
        }
    }

    /// Prints `table`, exports it as `<stem>.csv` and adds it to the
    /// report.
    fn table(&mut self, stem: &str, table: &Table) {
        println!("{table}");
        self.save(&format!("{stem}.csv"), &table.to_csv());
        self.tables
            .push((stem.to_string(), disc_bench::table_json(table)));
    }

    /// Emits a sweep table like [`Run::table`] and writes its own
    /// `results/<name>.report.json`.
    fn sweep(&mut self, name: &str, table: &Table, scale: Json, timing: Json) {
        self.table(name, table);
        let report = RunReport::new(name)
            .section("scale", scale)
            .section("table", disc_bench::table_json(table))
            .section("timing", timing);
        match report.write_under("results", name) {
            Ok(path) => eprintln!("run report written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write run report: {e}"),
        }
    }
}

/// The generators `--only` names, in table order, or `None` without
/// `--only`. An unknown (or missing) name exits 2 listing the valid ones.
fn selection(args: &[String]) -> Option<Vec<&'static (&'static str, Generator)>> {
    let i = args.iter().position(|a| a == "--only")?;
    let names: Vec<&str> = args
        .get(i + 1)
        .map_or("", String::as_str)
        .split(',')
        .collect();
    if let Some(bad) = names
        .iter()
        .find(|n| !GENERATORS.iter().any(|(g, _)| g == *n))
    {
        let valid: Vec<&str> = GENERATORS.iter().map(|(g, _)| *g).collect();
        eprintln!(
            "repro_all: unknown generator {bad:?}; valid names: {}",
            valid.join(" ")
        );
        std::process::exit(2);
    }
    Some(
        GENERATORS
            .iter()
            .filter(|(g, _)| names.contains(g))
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let only = selection(&args);
    let (cycles, seeds) = disc_bench::run_scale();
    let dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let mut run = Run {
        cycles,
        seeds,
        dir,
        tables: Vec::new(),
    };

    if let Some(only) = only {
        for (name, generator) in only {
            run.generate(name, generator);
        }
        return;
    }

    println!("=== DISC reproduction: all tables, figures and experiments ===");
    println!("stochastic runs: {seeds} seeds x {cycles} cycles per cell\n");
    for (name, generator) in GENERATORS {
        run.generate(name, generator);
    }
    if let Some(d) = &run.dir {
        println!("exports written to {}", d.display());
    }

    let t0 = Instant::now();
    let machine = experiments::cycle_attribution_machine();
    let wall = t0.elapsed().as_secs_f64();
    let report = RunReport::from_machine_timed("repro_all", &machine, Some(wall))
        .section(
            "scale",
            Json::obj([
                (
                    "mode",
                    Json::str(if cycles == disc_bench::FULL_CYCLES {
                        "full"
                    } else {
                        "quick"
                    }),
                ),
                ("cycles_per_cell", Json::U64(cycles)),
                ("seeds", Json::U64(seeds)),
            ]),
        )
        .section("tables", Json::Obj(run.tables));
    match report.write_under("results", "repro_all") {
        Ok(path) => println!("run report written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write run report: {e}"),
    }
}
