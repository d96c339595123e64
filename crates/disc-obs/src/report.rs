//! Schema-versioned structured run reports.
//!
//! Every experiment driver (`repro_all`, `soak`, the sweeps, `obs_demo`)
//! emits a [`RunReport`]: a JSON document carrying the report schema
//! version, the producing tool, a deterministic configuration
//! fingerprint, machine statistics with the per-stream cycle
//! attribution, scheduler grant shares, and any tool-specific sections.
//! CI checks every `results/*.report.json` against this schema, so the
//! shape here is a compatibility contract — bump [`RUN_REPORT_SCHEMA`]
//! when changing it.

use std::io;
use std::path::{Path, PathBuf};

use disc_core::{
    BusFaultPolicy, CycleAttribution, Machine, MachineConfig, MachineStats, SchedulePolicy,
    SkipStats, StepMode, WindowPolicy, ATTRIBUTION_BUCKETS,
};

use crate::json::Json;

/// Schema identifier stamped into every report.
///
/// `v2` extends `v1` with an optional `timing` section (step mode,
/// wall-clock simulation throughput, event-skip statistics). `v3`
/// added an optional `resume` section for checkpointed campaigns;
/// checkpointing has since been removed, so no report emits `resume`
/// and a v3 report carries only the v2 sections. Every earlier
/// field is still present with the same shape, so readers that ignore
/// unknown sections keep working.
pub const RUN_REPORT_SCHEMA: &str = "disc-run-report/v3";

/// Deterministic 64-bit fingerprint of a machine configuration, rendered
/// as 16 hex digits. Delegates to [`MachineConfig::fingerprint`] — the
/// same value that pins `disc-snap/v2` machine snapshots to a compatible
/// configuration. Every field (including the full schedule contents)
/// folds into the hash, so two configs fingerprint equal iff they
/// simulate identically. [`MachineConfig::step_mode`] and
/// [`MachineConfig::dispatch_mode`] are deliberately *excluded*: they
/// change how fast the simulator walks the cycle count, never the
/// architectural outcome, so runs under any step/dispatch combination
/// must fingerprint (and therefore compare) equal.
pub fn config_fingerprint(config: &MachineConfig) -> String {
    format!("{:016x}", config.fingerprint())
}

/// Renders a [`MachineConfig`] (plus its fingerprint) as JSON.
pub fn config_json(config: &MachineConfig) -> Json {
    let schedule = match &config.schedule {
        SchedulePolicy::Sequence(slots) => Json::obj([
            ("policy", Json::str("sequence")),
            ("slots", Json::u64s(slots.iter().map(|&s| u64::from(s)))),
        ]),
        SchedulePolicy::WeightedDeficit(weights) => Json::obj([
            ("policy", Json::str("weighted-deficit")),
            ("weights", Json::u64s(weights.iter().map(|&w| u64::from(w)))),
        ]),
    };
    Json::obj([
        ("fingerprint", Json::str(config_fingerprint(config))),
        ("streams", Json::U64(config.streams as u64)),
        ("pipeline_depth", Json::U64(config.pipeline_depth as u64)),
        ("schedule", schedule),
        ("internal_words", Json::U64(config.internal_words as u64)),
        ("window_depth", Json::U64(config.window_depth as u64)),
        (
            "window_policy",
            Json::str(match config.window_policy {
                WindowPolicy::AutoSpill => "auto-spill",
                WindowPolicy::Fault => "fault",
            }),
        ),
        (
            "default_ext_latency",
            Json::U64(u64::from(config.default_ext_latency)),
        ),
        (
            "bus_fault",
            Json::str(match config.bus_fault {
                BusFaultPolicy::Legacy => "legacy",
                BusFaultPolicy::Fault => "fault",
            }),
        ),
        ("abi_timeout", Json::U64(config.abi_timeout)),
        ("bus_error_bit", Json::U64(u64::from(config.bus_error_bit))),
    ])
}

/// Renders a [`CycleAttribution`] as JSON: one array per bucket plus the
/// per-stream totals (each of which must equal the elapsed cycles).
pub fn attribution_json(attr: &CycleAttribution) -> Json {
    let mut obj = Json::obj([("buckets", {
        Json::Arr(ATTRIBUTION_BUCKETS.iter().map(|&b| Json::str(b)).collect())
    })]);
    let per_bucket: [(&str, &Vec<u64>); 7] = [
        ("issue", &attr.issue),
        ("hazard_stall", &attr.hazard_stall),
        ("bus_txn_wait", &attr.bus_txn_wait),
        ("bus_free_wait", &attr.bus_free_wait),
        ("spill_stall", &attr.spill_stall),
        ("idle", &attr.idle),
        ("not_scheduled", &attr.not_scheduled),
    ];
    for (name, values) in per_bucket {
        obj.push(name, Json::u64s(values.iter().copied()));
    }
    obj.push(
        "totals",
        Json::u64s((0..attr.streams()).map(|s| attr.total(s))),
    );
    obj
}

/// Renders [`MachineStats`] (including the attribution) as JSON.
pub fn stats_json(stats: &MachineStats) -> Json {
    Json::obj([
        ("cycles", Json::U64(stats.cycles)),
        ("retired", Json::u64s(stats.retired.iter().copied())),
        ("utilization", Json::F64(stats.utilization())),
        ("bubbles", Json::U64(stats.bubbles)),
        ("flushed_jump", Json::U64(stats.flushed_jump)),
        ("flushed_io", Json::U64(stats.flushed_io)),
        ("flushed_bus_busy", Json::U64(stats.flushed_bus_busy)),
        ("flushed_irq", Json::U64(stats.flushed_irq)),
        (
            "wait_txn_cycles",
            Json::u64s(stats.wait_txn_cycles.iter().copied()),
        ),
        (
            "wait_bus_free_cycles",
            Json::u64s(stats.wait_bus_free_cycles.iter().copied()),
        ),
        (
            "spill_stall_cycles",
            Json::u64s(stats.spill_stall_cycles.iter().copied()),
        ),
        (
            "hazard_stalls",
            Json::u64s(stats.hazard_stalls.iter().copied()),
        ),
        (
            "vectors_taken",
            Json::u64s(stats.vectors_taken.iter().copied()),
        ),
        (
            "irq_latency",
            Json::obj([
                ("count", Json::U64(stats.irq_latency.count())),
                (
                    "mean",
                    stats.irq_latency.mean().map_or(Json::Null, Json::F64),
                ),
                ("max", stats.irq_latency.max().map_or(Json::Null, Json::U64)),
            ]),
        ),
        ("reallocations", Json::U64(stats.reallocations)),
        ("flow_instructions", Json::U64(stats.flow_instructions)),
        ("external_accesses", Json::U64(stats.external_accesses)),
        ("unmapped_accesses", Json::U64(stats.unmapped_accesses)),
        ("abi_timeouts", Json::U64(stats.abi_timeouts)),
        ("bus_faults", Json::u64s(stats.bus_faults.iter().copied())),
        ("attribution", attribution_json(&stats.attribution)),
    ])
}

/// The canonical report string for a [`StepMode`].
pub fn step_mode_name(mode: StepMode) -> &'static str {
    match mode {
        StepMode::CycleByCycle => "cycle-by-cycle",
        StepMode::EventSkip => "event-skip",
    }
}

/// Renders the v2 `timing` section: step mode, wall-clock simulation
/// throughput, and event-skip statistics.
///
/// `sim_cycles_per_sec` is simulated cycles divided by wall-clock
/// seconds (pass `None` when the caller did not time the run);
/// `mean_skip` is null unless at least one skip happened.
pub fn timing_json(mode: StepMode, sim_cycles_per_sec: Option<f64>, skip: &SkipStats) -> Json {
    Json::obj([
        ("step_mode", Json::str(step_mode_name(mode))),
        (
            "sim_cycles_per_sec",
            sim_cycles_per_sec.map_or(Json::Null, Json::F64),
        ),
        ("skips", Json::U64(skip.skips)),
        ("cycles_skipped", Json::U64(skip.cycles_skipped)),
        ("mean_skip", skip.mean_skip().map_or(Json::Null, Json::F64)),
    ])
}

/// Scheduler grant/reallocation shares as JSON.
pub fn scheduler_json(granted: &[u64], reallocations: u64) -> Json {
    let total: u64 = granted.iter().sum();
    Json::obj([
        ("granted", Json::u64s(granted.iter().copied())),
        (
            "grant_share",
            Json::Arr(
                granted
                    .iter()
                    .map(|&g| Json::F64(g as f64 / total.max(1) as f64))
                    .collect(),
            ),
        ),
        ("reallocations", Json::U64(reallocations)),
    ])
}

/// A schema-versioned structured run summary, built section by section
/// and written under `results/`.
#[derive(Debug, Clone)]
pub struct RunReport {
    sections: Vec<(String, Json)>,
}

impl RunReport {
    /// Starts a report produced by `tool` (e.g. `"repro_all"`).
    pub fn new(tool: &str) -> Self {
        RunReport {
            sections: vec![
                ("schema".into(), Json::str(RUN_REPORT_SCHEMA)),
                ("tool".into(), Json::str(tool)),
            ],
        }
    }

    /// Appends a named section.
    pub fn section(mut self, name: &str, value: Json) -> Self {
        self.sections.push((name.into(), value));
        self
    }

    /// Appends the `config` section (fields + fingerprint).
    pub fn with_config(self, config: &MachineConfig) -> Self {
        self.section("config", config_json(config))
    }

    /// Appends the `stats` section (counters + attribution).
    pub fn with_stats(self, stats: &MachineStats) -> Self {
        self.section("stats", stats_json(stats))
    }

    /// Appends the `scheduler` section (grants, shares, reallocations).
    pub fn with_scheduler(self, granted: &[u64], reallocations: u64) -> Self {
        self.section("scheduler", scheduler_json(granted, reallocations))
    }

    /// Appends the v2 `timing` section (step mode, throughput, skips).
    pub fn with_timing(
        self,
        mode: StepMode,
        sim_cycles_per_sec: Option<f64>,
        skip: &SkipStats,
    ) -> Self {
        self.section("timing", timing_json(mode, sim_cycles_per_sec, skip))
    }

    /// Captures config, stats, scheduler shares, and timing (step mode
    /// plus skip statistics; throughput null) straight off a finished
    /// machine.
    pub fn from_machine(tool: &str, machine: &Machine) -> Self {
        Self::from_machine_timed(tool, machine, None)
    }

    /// Like [`RunReport::from_machine`], but derives the timing
    /// section's `sim_cycles_per_sec` from the measured wall-clock
    /// seconds the run took.
    pub fn from_machine_timed(tool: &str, machine: &Machine, wall_secs: Option<f64>) -> Self {
        let throughput = wall_secs
            .filter(|&s| s > 0.0)
            .map(|s| machine.stats().cycles as f64 / s);
        RunReport::new(tool)
            .with_config(machine.config())
            .with_stats(machine.stats())
            .with_scheduler(
                machine.scheduler_grants(),
                machine.scheduler_reallocations(),
            )
            .with_timing(machine.config().step_mode, throughput, machine.skip_stats())
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.sections.clone())
    }

    /// The report rendered as pretty-printed JSON.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Writes the report as `<dir>/<name>.report.json`, creating `dir`
    /// if needed, and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn write_under(&self, dir: impl AsRef<Path>, name: &str) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.report.json"));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let base = MachineConfig::disc1();
        let fp = config_fingerprint(&base);
        assert_eq!(fp.len(), 16);
        assert_eq!(fp, config_fingerprint(&MachineConfig::disc1()));
        let other = MachineConfig::disc1().with_streams(2);
        assert_ne!(fp, config_fingerprint(&other));
        // Schedule *contents* matter, not just the variant.
        let seq_a =
            MachineConfig::disc1().with_schedule(SchedulePolicy::Sequence(vec![0, 1, 2, 3]));
        let seq_b =
            MachineConfig::disc1().with_schedule(SchedulePolicy::Sequence(vec![0, 1, 3, 2]));
        assert_ne!(config_fingerprint(&seq_a), config_fingerprint(&seq_b));
    }

    #[test]
    fn report_carries_schema_and_sections() {
        let stats = MachineStats::new(2);
        let report = RunReport::new("unit-test")
            .with_config(&MachineConfig::disc1())
            .with_stats(&stats)
            .with_scheduler(&[3, 1], 0)
            .with_timing(StepMode::CycleByCycle, Some(1.5e6), &SkipStats::default())
            .section("extra", Json::U64(7));
        let text = report.render();
        assert!(text.contains("\"schema\": \"disc-run-report/v3\""));
        assert!(text.contains("\"tool\": \"unit-test\""));
        assert!(text.contains("\"fingerprint\""));
        assert!(text.contains("\"attribution\""));
        assert!(text.contains("\"grant_share\""));
        assert!(text.contains("\"step_mode\": \"cycle-by-cycle\""));
        assert!(text.contains("\"sim_cycles_per_sec\": 1500000.0"));
        assert!(text.contains("\"extra\": 7"));
    }

    #[test]
    fn fingerprint_ignores_step_mode() {
        let cycle = MachineConfig::disc1().with_step_mode(StepMode::CycleByCycle);
        let skip = MachineConfig::disc1().with_step_mode(StepMode::EventSkip);
        assert_eq!(config_fingerprint(&cycle), config_fingerprint(&skip));
    }

    #[test]
    fn fingerprint_ignores_dispatch_mode() {
        use disc_core::DispatchMode;
        let legacy = MachineConfig::disc1().with_dispatch_mode(DispatchMode::Legacy);
        let burst = MachineConfig::disc1().with_dispatch_mode(DispatchMode::Superblock);
        assert_eq!(config_fingerprint(&legacy), config_fingerprint(&burst));
    }

    #[test]
    fn timing_json_reports_skip_stats() {
        let skip = SkipStats {
            skips: 4,
            cycles_skipped: 100,
        };
        let text = timing_json(StepMode::EventSkip, None, &skip).render();
        assert!(text.contains("\"step_mode\":\"event-skip\""));
        assert!(text.contains("\"sim_cycles_per_sec\":null"));
        assert!(text.contains("\"skips\":4"));
        assert!(text.contains("\"cycles_skipped\":100"));
        assert!(text.contains("\"mean_skip\":25.0"));
    }

    #[test]
    fn attribution_json_lists_all_buckets_and_totals() {
        let mut attr = CycleAttribution::new(2);
        attr.issue[0] = 4;
        attr.idle[0] = 6;
        attr.not_scheduled[1] = 10;
        let rendered = attribution_json(&attr).render();
        for bucket in ATTRIBUTION_BUCKETS {
            assert!(rendered.contains(bucket), "missing {bucket}");
        }
        assert!(rendered.contains("\"totals\":[10,10]"));
    }
}
