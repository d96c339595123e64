//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_burst|sim_bus|sim_idle|serve_fleet> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (boards are read from `boards/`). The
//! seed draws every generated input; the simulator only ever sees those
//! inputs. `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that records spans around calls into each layer and
//! reports the per-layer ledger (see `ledger.rs` and `README.md`). The
//! last stdout line is the result object `{"correct", "attempted",
//! "failed", "metrics"}` with the gated metrics; the line before it
//! carries the host, the run metadata, every metric (gated or not) and
//! each one's sample count and spread. `--pins` prints
//! the current fidelity fingerprints of the catalog boards instead.

mod fidelity;
mod ledger;
mod serve;
mod sim;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use disc_obs::Json;

use stats::{Percentile, Spread, Tally};

/// The end-to-end metrics `BENCHMARK.json` gates. `ctl_p50_ms`,
/// `ctl_p99_ms` and `error_rate` are reported in the result line only:
/// control operations take tens of microseconds, and on a shared host
/// their run-to-run spread exceeds any usable bound.
const GATED: [&str; 6] = [
    "sim_cycles_per_s",
    "sessions_per_s",
    "step_p50_ms",
    "step_p99_ms",
    "setup_s",
    "peak_rss_mb",
];

/// Hard stop: a run that has not finished by now is hung (a missing
/// terminal event, a stalled server) and must fail instead of blocking.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimBurst,
    SimBus,
    SimIdle,
    ServeFleet,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SimBurst,
        Workload::SimBus,
        Workload::SimIdle,
        Workload::ServeFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBurst => "sim_burst",
            Workload::SimBus => "sim_bus",
            Workload::SimIdle => "sim_idle",
            Workload::ServeFleet => "serve_fleet",
        }
    }

    /// Why the workload exists: the layer it exercises and the one it
    /// bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimBurst => {
                "compute boards where superblock bursts cover ~100% of cycles; a burst or \
                 scheduler change shows here while sim_bus stays flat"
            }
            Workload::SimBus => {
                "io, peripheral, fault-injector and host-interrupt boards where bursts are \
                 rejected; the slow step, the ABI and disc-bus do the work"
            }
            Workload::SimIdle => {
                "parked streams woken by timers under event-skip; quiescence skips and the bus \
                 next_event/advance hooks do the work"
            }
            Workload::ServeFleet => {
                "catalog sessions served by disc-serve at 1 worker to 2 closed-loop clients, \
                 with stat after each run and snapshot/evict/resume on a seeded fraction"
            }
        }
    }
}

/// splitmix64: the seeded source behind every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform integer in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: u64, hi: u64) -> u64 {
        let (lo, hi) = (lo as f64, hi as f64);
        (lo * (hi / lo).powf(self.unit())) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One reported metric with the numbers behind it.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub detail: Json,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            detail: Json::Null,
        }
    }

    fn from_spread(name: &str, unit: &'static str, s: Spread, what: &str) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: s.median,
            detail: Json::obj([
                ("median_of", Json::str(what)),
                ("rounds", Json::U64(s.rounds as u64)),
                ("min", Json::F64(s.min)),
                ("median", Json::F64(s.median)),
                ("max", Json::F64(s.max)),
            ]),
        }
    }

    fn from_percentile(name: &str, requested: f64, p: Percentile) -> Self {
        Metric {
            name: name.into(),
            unit: "ms",
            value: p.value / 1e6,
            detail: Json::obj([
                ("requested_percentile", Json::F64(requested)),
                ("percentile", Json::F64(p.p)),
                ("samples", Json::U64(p.samples as u64)),
            ]),
        }
    }
}

/// Raw measurements of one untraced timed phase plus its set-up.
#[derive(Default)]
pub struct Measured {
    /// Simulated cycles per host second, one value per round or window.
    pub cycle_rates: Vec<f64>,
    /// Sessions (machines) driven from create to close per second, one
    /// value per round or window.
    pub session_rates: Vec<f64>,
    /// Latency of every `run` step, in ns.
    pub step_ns: Vec<f64>,
    /// Latency of every control operation, in ns.
    pub ctl_ns: Vec<f64>,
    /// Duration of each repeated set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// What one round/window of the rates is.
    pub round: &'static str,
}

/// Everything a workload run produces.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Fidelity failures (first few), empty when every check held.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Records an operation's result; failures keep their first messages.
    pub fn record(&mut self, result: Result<(), String>) {
        self.tally.record(result.is_ok());
        if let Err(e) = result {
            if self.failures.len() < 16 {
                self.failures.push(e);
            }
        }
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &mut Measured) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(s) = stats::spread(&m.cycle_rates) {
        out.push(Metric::from_spread(
            "sim_cycles_per_s",
            "cycles/s",
            s,
            m.round,
        ));
    }
    if let Some(s) = stats::spread(&m.session_rates) {
        out.push(Metric::from_spread("sessions_per_s", "1/s", s, m.round));
    }
    for (prefix, samples) in [("step", &mut m.step_ns), ("ctl", &mut m.ctl_ns)] {
        samples.sort_by(f64::total_cmp);
        for (suffix, p) in [("p50", 50.0), ("p99", 99.0)] {
            if let Some(pct) = stats::tail_percentile(samples, p) {
                out.push(Metric::from_percentile(
                    &format!("{prefix}_{suffix}_ms"),
                    p,
                    pct,
                ));
            }
        }
    }
    if let Some(s) = stats::spread(&m.setup_s) {
        out.push(Metric::from_spread("setup_s", "s", s, "set-up repetitions"));
    }
    if let Some(rss) = peak_rss_mb() {
        out.push(Metric::new("peak_rss_mb", "MiB", rss));
    }
    out
}

/// Peak resident memory (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Output of a short command, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn host_json() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--pins") {
        sim::print_pins();
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; aborting");
        std::process::exit(3);
    });

    let run = match args.workload {
        Workload::ServeFleet => serve::run(args.seed, args.seconds, args.trace),
        sim => sim::run(sim, args.seed, args.seconds, args.trace),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    report(&args, &outcome);
}

fn report(args: &Args, o: &Outcome) {
    let w = args.workload;
    eprintln!(
        "perfbench {} seed {} {}s trace {}: {} attempted, {} failed, error_rate {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.tally.attempted,
        o.tally.failed,
        o.tally.error_rate()
    );
    for f in &o.failures {
        eprintln!("  FAILED: {f}");
    }
    for m in &o.metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let mut metrics: Vec<(String, Json)> = o
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value".to_string(), Json::F64(m.value)),
                ("unit".to_string(), Json::str(m.unit)),
            ];
            if let Json::Obj(extra) = &m.detail {
                fields.extend(extra.iter().cloned());
            }
            (m.name.clone(), Json::Obj(fields))
        })
        .collect();
    if !args.trace {
        metrics.push((
            "error_rate".into(),
            Json::obj([
                ("value", Json::F64(o.tally.error_rate())),
                ("unit", Json::str("fraction")),
            ]),
        ));
    }
    let mut detail = vec![
        ("schema".to_string(), Json::str("perfbench-result/v1")),
        ("workload".to_string(), Json::str(w.name())),
        ("why".to_string(), Json::str(w.why())),
        ("seed".to_string(), Json::U64(args.seed)),
        ("seconds".to_string(), Json::F64(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), host_json()),
        ("attempted".to_string(), Json::U64(o.tally.attempted)),
        ("failed".to_string(), Json::U64(o.tally.failed)),
        (
            "failures".to_string(),
            Json::Arr(o.failures.iter().map(Json::str).collect()),
        ),
        ("metrics".to_string(), Json::Obj(metrics)),
    ];
    if args.trace {
        detail.push(("ledger".to_string(), ledger::mapping_json()));
    }
    detail.extend(o.notes.iter().map(|(k, v)| (k.to_string(), v.clone())));
    println!("{}", Json::Obj(detail).render());

    let result = Json::obj([
        ("correct", Json::Bool(o.tally.failed == 0)),
        ("attempted", Json::U64(o.tally.attempted)),
        ("failed", Json::U64(o.tally.failed)),
        (
            "metrics",
            Json::Obj(
                o.metrics
                    .iter()
                    .filter(|m| args.trace || GATED.contains(&m.name.as_str()))
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_log_uniform_stays_in_range() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..100)
                .map(|_| r.log_uniform(10, 1000))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&v| (10..1000).contains(&v)));
    }

    #[test]
    fn args_reject_bad_values() {
        let parse = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload sim_bus --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload sim_bus --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload sim_bus --seed x --seconds 10 --trace 0").is_err());
    }
}
