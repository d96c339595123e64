//! Real-time isolation soak harness.
//!
//! The paper's central robustness claim is *containment*: a stream stuck
//! on a misbehaving peripheral loses only its own throughput — every
//! other stream keeps its pipeline share and its deadlines. This module
//! tests that claim mechanically, at campaign scale: many seeded runs of
//! a real-time workload, each with a randomly-generated (but fully
//! deterministic) fault plan aimed at exactly one *victim* task, each
//! checked against isolation invariants derived from a fault-free
//! reference run of the same workload.
//!
//! Every run is classified — [`RunVerdict::Clean`], a list of invariant
//! [`RunVerdict::Violations`], or a [`RunVerdict::SimFault`] — and a run
//! in which the planned faults demonstrably never fired is itself a
//! violation: a soak that passes because the fault missed proves nothing.
//!
//! Campaign seeds replay byte for byte ([`run_one`] with the same seed and
//! config is a pure function), so a failing seed from CI is a one-line
//! local repro.

use disc_core::{BusFaultPolicy, MachineConfig, SimError, SkipStats, StepMode};
use disc_faults::{AddrRange, FaultInjector, FaultLog, FaultPlan, FaultWindow};
use disc_obs::{stats_json, Json, RunReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::codegen;
use crate::harness::{run_on_disc_with_bus, SimOutcome};
use crate::task::{Task, TaskSet};

/// Parameters of a soak campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Seed of the first run; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Number of seeded runs.
    pub runs: u64,
    /// Cycles simulated per run.
    pub horizon: u64,
    /// ABI transaction timeout configured on the machine (the recovery
    /// bound the invariants lean on).
    pub abi_timeout: u64,
    /// Allowed fractional throughput loss for non-victim tasks and the
    /// background stream, relative to the fault-free reference.
    pub tolerance: f64,
    /// Additional deadline misses tolerated per non-victim task (bounded
    /// bus coupling can legitimately cost a miss at the margin).
    pub miss_slack: u64,
    /// Allowed growth of the worst observed interrupt latency over the
    /// reference, beyond one ABI timeout.
    pub irq_latency_slack: u64,
    /// Stepping mode every machine in the campaign (runs and reference)
    /// is configured with. The harness drives soak machines cycle by
    /// cycle, so either mode must produce the identical campaign — a
    /// property the equivalence tests assert.
    pub step_mode: StepMode,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            base_seed: 0xd15c_50ac,
            runs: 100,
            horizon: 30_000,
            abi_timeout: 64,
            tolerance: 0.4,
            miss_slack: 2,
            irq_latency_slack: 128,
            step_mode: StepMode::CycleByCycle,
        }
    }
}

impl SoakConfig {
    /// Machine configuration every soak run (and the reference) uses.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig::disc1()
            .with_bus_fault(BusFaultPolicy::Fault)
            .with_abi_timeout(self.abi_timeout)
            .with_step_mode(self.step_mode)
    }
}

/// Classification of one soak run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunVerdict {
    /// All invariants held.
    Clean,
    /// One or more invariant violations (human-readable, one per entry).
    Violations(Vec<String>),
    /// The simulator itself returned an error.
    SimFault(SimError),
}

/// Outcome of a single seeded fault run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakRun {
    /// The run's seed (replays the run exactly).
    pub seed: u64,
    /// Index of the faulted task.
    pub victim: usize,
    /// Invariant classification.
    pub verdict: RunVerdict,
    /// What the injector actually delivered.
    pub fault_log: FaultLog,
    /// Bus-error interrupts the machine recorded, all streams.
    pub bus_faults: u64,
    /// ABI transactions aborted by timeout.
    pub abi_timeouts: u64,
    /// Cycles the run simulated (zero when the simulator faulted).
    pub cycles: u64,
    /// Event-skip accounting for the run (all zero in cycle-by-cycle
    /// mode).
    pub skip_stats: SkipStats,
}

impl SoakRun {
    /// `true` when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.verdict == RunVerdict::Clean
    }
}

/// Aggregate result of [`run_campaign`].
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Per-run results in seed order.
    pub runs: Vec<SoakRun>,
    /// The fault-free reference outcome the invariants compare against.
    pub reference: SimOutcome,
}

impl SoakReport {
    /// Runs in which every invariant held.
    pub fn clean(&self) -> usize {
        self.runs.iter().filter(|r| r.is_clean()).count()
    }

    /// Runs with at least one violation or simulator fault.
    pub fn failed(&self) -> Vec<&SoakRun> {
        self.runs.iter().filter(|r| !r.is_clean()).collect()
    }

    /// `true` when the whole campaign is clean.
    pub fn passed(&self) -> bool {
        self.runs.iter().all(|r| r.is_clean())
    }

    /// Faults delivered across the campaign.
    pub fn faults_delivered(&self) -> u64 {
        self.runs.iter().map(|r| r.fault_log.total()).sum()
    }

    /// Total cycles simulated across the campaign: the fault-free
    /// reference run plus every seeded fault run.
    pub fn total_cycles(&self) -> u64 {
        self.reference.cycles + self.runs.iter().map(|r| r.cycles).sum::<u64>()
    }

    /// Event-skip accounting aggregated over the reference run and every
    /// seeded fault run.
    pub fn total_skip_stats(&self) -> SkipStats {
        let mut total = self.reference.skip_stats;
        for run in &self.runs {
            total.skips += run.skip_stats.skips;
            total.cycles_skipped += run.skip_stats.cycles_skipped;
        }
        total
    }

    /// [`SoakReport::run_report`] with the measured wall-clock seconds
    /// the campaign took, from which the timing section's
    /// `sim_cycles_per_sec` (total campaign cycles over wall time) is
    /// derived.
    pub fn run_report_timed(&self, cfg: &SoakConfig, wall_secs: Option<f64>) -> RunReport {
        let throughput = wall_secs
            .filter(|&s| s > 0.0)
            .map(|s| self.total_cycles() as f64 / s);
        self.run_report(cfg)
            .with_timing(cfg.step_mode, throughput, &self.total_skip_stats())
    }

    /// Builds the campaign's schema-versioned [`RunReport`]: campaign
    /// parameters and verdict, aggregated fault-injection counters, the
    /// per-run failure list, and the fault-free reference outcome with
    /// its full stats (including the per-stream cycle attribution) plus
    /// the fingerprinted machine configuration every run used.
    pub fn run_report(&self, cfg: &SoakConfig) -> RunReport {
        let machine_cfg = cfg
            .machine_config()
            .with_streams(self.reference.tasks.len() + 1);
        let mut fault_totals = FaultLog::default();
        for run in &self.runs {
            fault_totals.inflated_probes += run.fault_log.inflated_probes;
            fault_totals.stuck_probes += run.fault_log.stuck_probes;
            fault_totals.blackouts += run.fault_log.blackouts;
            fault_totals.bit_flips += run.fault_log.bit_flips;
            fault_totals.dropped_irqs += run.fault_log.dropped_irqs;
            fault_totals.spurious_irqs += run.fault_log.spurious_irqs;
        }
        let failures = Json::Arr(
            self.failed()
                .iter()
                .map(|run| {
                    let detail = match &run.verdict {
                        RunVerdict::Violations(v) => Json::Arr(v.iter().map(Json::str).collect()),
                        RunVerdict::SimFault(e) => {
                            Json::Arr(vec![Json::str(format!("simulator fault: {e}"))])
                        }
                        RunVerdict::Clean => unreachable!("failed() filters clean runs"),
                    };
                    Json::obj([
                        ("seed", Json::U64(run.seed)),
                        ("victim", Json::U64(run.victim as u64)),
                        ("violations", detail),
                    ])
                })
                .collect(),
        );
        RunReport::new("soak")
            .section(
                "campaign",
                Json::obj([
                    ("base_seed", Json::U64(cfg.base_seed)),
                    ("runs", Json::U64(cfg.runs)),
                    ("horizon", Json::U64(cfg.horizon)),
                    ("abi_timeout", Json::U64(cfg.abi_timeout)),
                    ("clean", Json::U64(self.clean() as u64)),
                    ("passed", Json::Bool(self.passed())),
                    ("faults_delivered", Json::U64(self.faults_delivered())),
                    (
                        "bus_faults",
                        Json::U64(self.runs.iter().map(|r| r.bus_faults).sum()),
                    ),
                    (
                        "abi_timeouts",
                        Json::U64(self.runs.iter().map(|r| r.abi_timeouts).sum()),
                    ),
                ]),
            )
            .section(
                "fault_counters",
                Json::obj(
                    fault_totals
                        .counters()
                        .into_iter()
                        .map(|(name, v)| (name, Json::U64(v))),
                ),
            )
            .section("failures", failures)
            .section(
                "reference",
                Json::obj([
                    ("cycles", Json::U64(self.reference.cycles)),
                    ("utilization", Json::F64(self.reference.utilization)),
                    (
                        "max_irq_latency",
                        self.reference.max_irq_latency.map_or(Json::Null, Json::U64),
                    ),
                    (
                        "background_retired",
                        Json::U64(self.reference.background_retired),
                    ),
                    ("stats", stats_json(&self.reference.stats)),
                ]),
            )
            .with_config(&machine_cfg)
    }

    /// Multi-line human-readable summary (one line per failed run).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "soak: {}/{} runs clean, {} faults delivered, {} bus-error irqs, {} abi timeouts\n",
            self.clean(),
            self.runs.len(),
            self.faults_delivered(),
            self.runs.iter().map(|r| r.bus_faults).sum::<u64>(),
            self.runs.iter().map(|r| r.abi_timeouts).sum::<u64>(),
        );
        for run in self.failed() {
            match &run.verdict {
                RunVerdict::Violations(v) => {
                    for msg in v {
                        s.push_str(&format!(
                            "  seed {:#x} victim {}: {msg}\n",
                            run.seed, run.victim
                        ));
                    }
                }
                RunVerdict::SimFault(e) => {
                    s.push_str(&format!(
                        "  seed {:#x} victim {}: simulator fault: {e}\n",
                        run.seed, run.victim
                    ));
                }
                RunVerdict::Clean => unreachable!("failed() filters clean runs"),
            }
        }
        s
    }
}

/// The standard soak workload: three periodic control tasks, each with
/// external I/O on its own device window, plus the background stream.
/// Deadlines carry enough slack that bounded bus interference (one ABI
/// timeout per coupling episode) cannot push a healthy task over.
pub fn workload() -> TaskSet {
    TaskSet::new(vec![
        Task::new("ctl", 900, 800).with_body(30).with_io(2, 12),
        Task::new("log", 1_500, 1_400).with_body(60).with_io(1, 20),
        Task::new("ui", 2_500, 2_300).with_body(100).with_io(1, 8),
    ])
}

/// Generates the deterministic fault plan for one seeded run: always one
/// availability fault (stuck or blackout window) on the victim's device,
/// plus optionally latency inflation, read bit flips, and spurious
/// activations of the victim's stream.
pub fn fault_plan_for(seed: u64, victim: usize, horizon: u64) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let device = AddrRange::new(
        codegen::device_addr(victim),
        codegen::device_addr(victim) + 15,
    );
    let h = horizon as f64;

    // One availability fault, long enough that every task period fits
    // inside it — the fault cannot miss the victim's access pattern.
    let start = (h * rng.gen_range(10..=40) as f64 / 100.0) as u64;
    let len = (h * rng.gen_range(12..=30) as f64 / 100.0) as u64;
    let window = FaultWindow::between(start, start + len);
    let mut plan = FaultPlan::new(seed);
    plan = if rng.gen_bool(0.5) {
        plan.stuck(device, window)
    } else {
        plan.blackout(device, window)
    };

    if rng.gen_bool(0.5) {
        plan = plan.latency_add(device, rng.gen_range(5..=40), FaultWindow::always());
    }
    if rng.gen_bool(0.5) {
        let mask = 1u16 << rng.gen_range(0..=15);
        plan = plan.bit_flip(
            device,
            mask,
            0.1 + 0.8 * rng.gen::<f64>(),
            FaultWindow::always(),
        );
    }
    if rng.gen_bool(0.4) {
        let interval = rng.gen_range(400..=2_000);
        plan = plan.spurious_irq(
            victim + 1,
            codegen::DISC_TASK_BIT,
            interval,
            FaultWindow::between(0, horizon),
        );
    }
    plan
}

/// Checks the isolation invariants of one faulted outcome against the
/// fault-free reference. Returns one message per violation.
pub fn check_invariants(
    cfg: &SoakConfig,
    set: &TaskSet,
    victim: usize,
    reference: &SimOutcome,
    outcome: &SimOutcome,
    log: &FaultLog,
) -> Vec<String> {
    let mut violations = Vec::new();
    let keep = 1.0 - cfg.tolerance;

    for (i, task) in set.tasks.iter().enumerate() {
        if i == victim {
            continue;
        }
        let (got, want) = (
            outcome.tasks[i].completions,
            (reference.tasks[i].completions as f64 * keep) as u64,
        );
        if got < want {
            violations.push(format!(
                "task {} lost throughput: {got} completions vs {} in reference (floor {want})",
                task.name, reference.tasks[i].completions
            ));
        }
        let (got, allowed) = (
            outcome.tasks[i].misses,
            reference.tasks[i].misses + cfg.miss_slack,
        );
        if got > allowed {
            violations.push(format!(
                "task {} missed deadlines: {got} vs {} in reference (+{} slack)",
                task.name, reference.tasks[i].misses, cfg.miss_slack
            ));
        }
    }

    let floor = (reference.background_retired as f64 * keep) as u64;
    if outcome.background_retired < floor {
        violations.push(format!(
            "background starved: {} retired vs {} in reference (floor {floor})",
            outcome.background_retired, reference.background_retired
        ));
    }

    let bound = reference.max_irq_latency.unwrap_or(0) + cfg.abi_timeout + cfg.irq_latency_slack;
    if let Some(lat) = outcome.max_irq_latency {
        if lat > bound {
            violations.push(format!(
                "irq latency blew its bound: {lat} vs {:?} in reference (bound {bound})",
                reference.max_irq_latency
            ));
        }
    }

    if outcome.tasks[victim].completions == 0 {
        violations.push(format!(
            "victim {} starved outright: windowed faults must not erase it",
            set.tasks[victim].name
        ));
    }

    // Fault evidence: the injector delivered something, the machine saw
    // it, and it landed only on the victim's stream.
    if log.total() == 0 {
        violations.push("fault plan never fired: the run proves nothing".into());
    }
    if outcome.stats.bus_faults_total() == 0 {
        violations.push("no bus-error interrupt recorded despite an availability fault".into());
    }
    for (s, &n) in outcome.stats.bus_faults.iter().enumerate() {
        if s != victim + 1 && n != 0 {
            violations.push(format!(
                "bus faults leaked to stream {s}: {n} recorded (victim stream is {})",
                victim + 1
            ));
        }
    }
    violations
}

/// Executes one seeded fault run and classifies it. Pure function of
/// `(cfg, seed, reference)` — a failing seed replays exactly.
pub fn run_one(cfg: &SoakConfig, set: &TaskSet, seed: u64, reference: &SimOutcome) -> SoakRun {
    let victim = (seed % set.tasks.len() as u64) as usize;
    let plan = fault_plan_for(seed, victim, cfg.horizon);
    let injector = FaultInjector::new(plan, Box::new(codegen::device_bus(set)));
    let log_handle = injector.log_handle();
    let result = run_on_disc_with_bus(
        set,
        cfg.horizon,
        None,
        cfg.machine_config(),
        Box::new(injector),
    );
    let fault_log = log_handle.snapshot();
    match result {
        Err(e) => SoakRun {
            seed,
            victim,
            verdict: RunVerdict::SimFault(e),
            fault_log,
            bus_faults: 0,
            abi_timeouts: 0,
            cycles: 0,
            skip_stats: SkipStats::default(),
        },
        Ok(outcome) => {
            let violations = check_invariants(cfg, set, victim, reference, &outcome, &fault_log);
            SoakRun {
                seed,
                victim,
                verdict: if violations.is_empty() {
                    RunVerdict::Clean
                } else {
                    RunVerdict::Violations(violations)
                },
                fault_log,
                bus_faults: outcome.stats.bus_faults_total(),
                abi_timeouts: outcome.stats.abi_timeouts,
                cycles: outcome.stats.cycles,
                skip_stats: outcome.skip_stats,
            }
        }
    }
}

/// Runs a full campaign: one fault-free reference run, then `cfg.runs`
/// seeded fault runs fanned across worker threads with
/// [`disc_par::par_map`] (cap with `DISC_JOBS`). Results are in seed
/// order regardless of scheduling.
///
/// # Panics
///
/// Panics if the fault-free reference run itself fails — the workload is
/// broken, and no campaign result would be meaningful.
pub fn run_campaign(cfg: &SoakConfig) -> SoakReport {
    let set = workload();
    let reference = run_on_disc_with_bus(
        &set,
        cfg.horizon,
        None,
        cfg.machine_config(),
        Box::new(codegen::device_bus(&set)),
    )
    .expect("fault-free reference run must succeed");
    let seeds: Vec<u64> = (0..cfg.runs).map(|i| cfg.base_seed + i).collect();
    let runs = disc_par::par_map(seeds, |seed| run_one(cfg, &set, seed, &reference));
    SoakReport { runs, reference }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(runs: u64) -> SoakConfig {
        SoakConfig {
            runs,
            horizon: 20_000,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn small_campaign_is_clean_and_injects_faults() {
        let report = run_campaign(&quick_cfg(6));
        assert!(report.passed(), "{}", report.summary());
        assert!(report.faults_delivered() > 0);
        assert!(report.runs.iter().all(|r| r.bus_faults > 0));
        assert!(report.summary().contains("6/6 runs clean"));
    }

    #[test]
    fn run_report_captures_campaign_and_reference() {
        let cfg = quick_cfg(2);
        let report = run_campaign(&cfg);
        let text = report.run_report(&cfg).render();
        assert!(text.contains("\"schema\": \"disc-run-report/v3\""));
        assert!(text.contains("\"tool\": \"soak\""));
        assert!(text.contains("\"faults_delivered\""));
        assert!(text.contains("\"inflated_probes\""));
        assert!(text.contains("\"attribution\""));
        assert!(text.contains("\"fingerprint\""));
        // Reference run attribution must balance against its cycles.
        let stats = &report.reference.stats;
        assert!(stats.attribution.check(stats.cycles).is_ok());
    }

    #[test]
    fn runs_replay_byte_for_byte() {
        let cfg = quick_cfg(1);
        let set = workload();
        let reference = run_on_disc_with_bus(
            &set,
            cfg.horizon,
            None,
            cfg.machine_config(),
            Box::new(codegen::device_bus(&set)),
        )
        .unwrap();
        let a = run_one(&cfg, &set, cfg.base_seed + 3, &reference);
        let b = run_one(&cfg, &set, cfg.base_seed + 3, &reference);
        assert_eq!(a, b);
    }

    #[test]
    fn plans_vary_with_seed_and_always_include_availability_fault() {
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..32 {
            let plan = fault_plan_for(seed, (seed % 3) as usize, 30_000);
            assert!(!plan.is_empty());
            assert!(
                plan.faults().iter().any(|f| matches!(
                    f.kind,
                    disc_faults::FaultKind::Stuck | disc_faults::FaultKind::Blackout
                )),
                "seed {seed} lacks an availability fault"
            );
            distinct.insert(plan.faults().len());
        }
        assert!(distinct.len() > 1, "plans do vary across seeds");
    }

    #[test]
    fn doctored_outcome_trips_the_invariants() {
        let cfg = quick_cfg(1);
        let set = workload();
        let reference = run_on_disc_with_bus(
            &set,
            cfg.horizon,
            None,
            cfg.machine_config(),
            Box::new(codegen::device_bus(&set)),
        )
        .unwrap();
        let victim = 0;
        let mut faked = reference.clone();
        // A convincing log so the evidence invariants stay quiet.
        let log = FaultLog {
            stuck_probes: 3,
            ..FaultLog::default()
        };
        faked.stats.bus_faults = vec![0; set.tasks.len() + 1];
        faked.stats.bus_faults[victim + 1] = 3;

        // Starve a non-victim task and the background stream.
        faked.tasks[1].completions = 0;
        faked.background_retired = 0;
        let violations = check_invariants(&cfg, &set, victim, &reference, &faked, &log);
        assert!(
            violations.iter().any(|v| v.contains("lost throughput")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("background starved")),
            "{violations:?}"
        );

        // A fault leaking onto the wrong stream is also a violation.
        faked.stats.bus_faults[2] = 1;
        let violations = check_invariants(&cfg, &set, victim, &reference, &faked, &log);
        assert!(
            violations.iter().any(|v| v.contains("leaked to stream 2")),
            "{violations:?}"
        );

        // And a run whose faults never fired proves nothing.
        let empty = FaultLog::default();
        let violations =
            check_invariants(&cfg, &set, victim, &reference, &reference.clone(), &empty);
        assert!(
            violations.iter().any(|v| v.contains("never fired")),
            "{violations:?}"
        );
    }
}
