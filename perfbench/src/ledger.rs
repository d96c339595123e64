//! The per-layer ledger: every metric of the traced run, the layer it
//! belongs to, and the end-to-end metric (on which workload) it should
//! move. The table is the contract later changes cite by name.

use std::collections::HashMap;
use std::sync::Arc;

use disc_core::{SkipStats, SuperblockStats};
use disc_obs::Json;

use crate::stats;
use crate::trace::{self_times, BusCall, BusLedger, Span};
use crate::Metric;

/// Boards with their own `core.ns_per_cycle.<board>` line; generated
/// timer boards share `gen_timer`.
const BOARDS: [&str; 12] = [
    "compute_bound_4s",
    "branch_heavy_4s",
    "fig_3_1",
    "fig_3_3",
    "io_bound_2s",
    "dma_copy_2s",
    "storage_log_2s",
    "packet_rx_2s",
    "faulted_io_2s",
    "interrupt_heavy_3s",
    "timer_idle_1s",
    "gen_timer",
];

/// Boards whose bus self share is split out: the pair isolates the
/// `disc-faults` injector.
const BUS_SPLIT: [&str; 2] = ["io_bound_2s", "faulted_io_2s"];

/// (metric, unit, layer, what it should move).
const LEDGER: &[(&str, &str, &str, &str)] = &[
    ("core.ns_per_cycle", "ns", "disc-core", "sim_cycles_per_s on every sim workload; self time of Machine::run minus bus calls, per simulated cycle"),
    ("core.burst_share", "fraction", "disc-core", "sim_cycles_per_s on sim_burst; stays ~0 on sim_bus unless bursts widen to bus ops"),
    ("core.burst_accept_ratio", "fraction", "disc-core", "sim_cycles_per_s on sim_bus; bursts over (bursts + entry rejects)"),
    ("core.cycles_per_burst", "cycles", "disc-core", "sim_cycles_per_s on sim_bus; sessions_per_s on serve_fleet where chunks and sample windows cut bursts"),
    ("core.skip_share", "fraction", "disc-core", "sim_cycles_per_s on sim_idle"),
    ("core.cycles_per_skip", "cycles", "disc-core", "sim_cycles_per_s on sim_idle"),
    ("core.slow_steps_per_kcycle", "1/kcycle", "disc-core", "sim_cycles_per_s on sim_bus; cycles covered by neither bursts nor skips"),
    ("bus.tick_per_cycle", "1/cycle", "disc-bus", "sim_cycles_per_s on sim_idle and sim_bus"),
    ("bus.next_event_per_kcycle", "1/kcycle", "disc-bus", "sim_cycles_per_s on sim_idle and sim_bus; counts horizon recomputation by burst and skip"),
    ("bus.advance_per_kcycle", "1/kcycle", "disc-bus", "sim_cycles_per_s on sim_idle and sim_bus"),
    ("bus.access_per_kcycle", "1/kcycle", "disc-bus", "none: simulated traffic (latency, read, write calls); a host-only change must leave it unchanged"),
    ("bus.self_share", "fraction", "disc-bus", "sim_cycles_per_s on sim_bus; share of run time inside bus calls"),
    ("bus.self_share.io_bound_2s", "fraction", "disc-bus", "sim_cycles_per_s on sim_bus; baseline for the fault-injector split"),
    ("bus.self_share.faulted_io_2s", "fraction", "disc-faults", "sim_cycles_per_s on sim_bus; minus the io_bound_2s share isolates the injector"),
    ("isa.assemble_us", "us", "disc-isa", "setup_s on every workload; ctl_p50_ms (create) on serve_fleet"),
    ("board.parse_us", "us", "disc-board", "setup_s on every workload; ctl_p50_ms (create) on serve_fleet"),
    ("board.build_us", "us", "disc-board", "setup_s on every workload; ctl_p50_ms (create) on serve_fleet; Board::machine minus assembly"),
    ("snap.save_us", "us", "disc-snap", "ctl_p99_ms (evict) on serve_fleet; no move on the sim workloads"),
    ("snap.restore_us", "us", "disc-snap", "ctl_p99_ms (resume) on serve_fleet; no move on the sim workloads"),
    ("snap.bytes", "bytes", "disc-snap", "ctl_p99_ms (evict and resume) on serve_fleet"),
    ("obs.report_us", "us", "disc-obs", "step_p50_ms on serve_fleet; RunReport::from_machine, render and checksum"),
    ("obs.sample_render_ns", "ns", "disc-obs", "step_p50_ms on serve_fleet; render_sample_into per sample"),
    ("obs.samples_per_step", "count", "disc-obs", "step_p50_ms on serve_fleet"),
    ("serve.create_us", "us", "disc-serve", "ctl_p50_ms and ctl_p99_ms on serve_fleet"),
    ("serve.run_ack_us", "us", "disc-serve", "ctl_p50_ms and step_p50_ms on serve_fleet"),
    ("serve.stat_us", "us", "disc-serve", "ctl_p50_ms on serve_fleet"),
    ("serve.snapshot_us", "us", "disc-serve", "ctl_p99_ms on serve_fleet"),
    ("serve.evict_us", "us", "disc-serve", "ctl_p99_ms on serve_fleet"),
    ("serve.resume_us", "us", "disc-serve", "ctl_p99_ms on serve_fleet"),
    ("serve.close_us", "us", "disc-serve", "ctl_p50_ms on serve_fleet"),
    ("serve.step_us", "us", "disc-serve", "step_p50_ms on serve_fleet; mean served step = step_sim + report + residual"),
    ("serve.step_sim_us", "us", "disc-serve", "step_p50_ms and sessions_per_s on serve_fleet; the same step replayed in-process"),
    ("serve.step_residual_us", "us", "disc-serve", "step_p50_ms and sessions_per_s on serve_fleet; parse, pool queue, wire and client time"),
    ("serve.event_bytes_per_step", "bytes", "disc-serve", "step_p50_ms and sessions_per_s on serve_fleet"),
    ("serve.burst_share", "fraction", "disc-serve", "step_p50_ms and sessions_per_s on serve_fleet; from the done events' dispatch counters"),
    ("serve.served_cycles_per_s", "cycles/s", "disc-serve", "sim_cycles_per_s on serve_fleet; compare with serve.inprocess_cycles_per_s"),
    ("serve.inprocess_cycles_per_s", "cycles/s", "disc-serve", "sim_cycles_per_s on serve_fleet; the same sessions' steps run in-process"),
    ("trace.overhead_ratio", "ratio", "perfbench", "none: untraced over traced sim_cycles_per_s of this workload"),
];

fn board_moves(board: &str) -> String {
    let workload = match board {
        "compute_bound_4s" | "branch_heavy_4s" | "fig_3_1" | "fig_3_3" => "sim_burst",
        "timer_idle_1s" | "gen_timer" => "sim_idle",
        _ => "sim_bus",
    };
    format!("sim_cycles_per_s on {workload}; also measured on serve_fleet's in-process replay")
}

/// Every per-layer metric as (name, unit, layer, moves), in output order.
pub fn rows() -> Vec<(String, &'static str, &'static str, String)> {
    let mut rows = Vec::new();
    for &(name, unit, layer, moves) in LEDGER {
        rows.push((name.to_string(), unit, layer, moves.to_string()));
        if name == "core.ns_per_cycle" {
            for b in BOARDS {
                rows.push((
                    format!("core.ns_per_cycle.{b}"),
                    "ns",
                    "disc-core",
                    board_moves(b),
                ));
            }
        }
    }
    rows
}

/// The per-layer → end-to-end → workload mapping, for the result file.
pub fn mapping_json() -> Json {
    Json::Arr(
        rows()
            .into_iter()
            .map(|(name, unit, layer, moves)| {
                Json::obj([
                    ("metric", Json::str(name)),
                    ("unit", Json::str(unit)),
                    ("layer", Json::str(layer)),
                    ("moves", Json::str(moves)),
                ])
            })
            .collect(),
    )
}

/// Orders measured values into the full ledger. Metrics a workload
/// cannot measure read 0 and are listed in the returned note with why.
pub fn finish(mut values: HashMap<String, f64>, why_missing: &str) -> (Vec<Metric>, Json) {
    let mut missing = Vec::new();
    let metrics = rows()
        .into_iter()
        .map(|(name, unit, _, _)| {
            let value = values.remove(&name).unwrap_or_else(|| {
                missing.push(Json::str(name.clone()));
                0.0
            });
            Metric::new(name, unit, value)
        })
        .collect();
    let note = Json::obj([
        ("not_measured", Json::Arr(missing)),
        ("why", Json::str(why_missing)),
    ]);
    (metrics, note)
}

/// What one traced machine did.
pub struct MachineRecord {
    pub label: &'static str,
    pub owner: u64,
    pub cycles: u64,
    pub superblock: SuperblockStats,
    pub skip: SkipStats,
    pub bus: Arc<BusLedger>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median duration of the spans called `name`, in µs.
pub fn span_median_us(spans: &[Span], name: &str) -> Option<f64> {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    stats::median(&d)
}

/// disc-core and disc-bus metrics from traced machines and their
/// `core.run` spans.
pub fn core_and_bus(records: &[MachineRecord], spans: &[Span], out: &mut HashMap<String, f64>) {
    if records.is_empty() {
        return;
    }
    // (run duration, run self time) per machine.
    let selfs = self_times(spans);
    let mut run: HashMap<u64, (u64, u64)> = HashMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        if span.name == "core.run" {
            let e = run.entry(span.owner).or_default();
            e.0 += span.duration_ns();
            e.1 += self_ns;
        }
    }
    #[derive(Default)]
    struct Sum {
        cycles: f64,
        run_ns: f64,
        self_ns: f64,
        bus_ns: f64,
    }
    let mut total = Sum::default();
    let mut per_board: HashMap<&str, Sum> = HashMap::new();
    let (mut bursts, mut burst_cycles, mut rejects, mut skips, mut skipped) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut calls = [0.0; 4];
    for r in records {
        let (run_ns, self_ns) = run.get(&r.owner).copied().unwrap_or_default();
        for s in [&mut total, per_board.entry(r.label).or_default()] {
            s.cycles += r.cycles as f64;
            s.run_ns += run_ns as f64;
            s.self_ns += self_ns as f64;
            s.bus_ns += r.bus.total_ns() as f64;
        }
        bursts += r.superblock.bursts as f64;
        burst_cycles += r.superblock.burst_cycles as f64;
        rejects += r.superblock.entry_rejects as f64;
        skips += r.skip.skips as f64;
        skipped += r.skip.cycles_skipped as f64;
        for (i, call) in [
            BusCall::Tick,
            BusCall::NextEvent,
            BusCall::Advance,
            BusCall::Access,
        ]
        .into_iter()
        .enumerate()
        {
            calls[i] += r.bus.calls(call) as f64;
        }
    }
    let c = total.cycles;
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    put("core.ns_per_cycle", ratio(total.self_ns, c));
    for (board, s) in &per_board {
        put(
            &format!("core.ns_per_cycle.{board}"),
            ratio(s.self_ns, s.cycles),
        );
    }
    put("core.burst_share", ratio(burst_cycles, c));
    put("core.burst_accept_ratio", ratio(bursts, bursts + rejects));
    put("core.cycles_per_burst", ratio(burst_cycles, bursts));
    put("core.skip_share", ratio(skipped, c));
    put("core.cycles_per_skip", ratio(skipped, skips));
    put(
        "core.slow_steps_per_kcycle",
        ratio(1000.0 * (c - burst_cycles - skipped), c),
    );
    put("bus.tick_per_cycle", ratio(calls[0], c));
    put("bus.next_event_per_kcycle", ratio(1000.0 * calls[1], c));
    put("bus.advance_per_kcycle", ratio(1000.0 * calls[2], c));
    put("bus.access_per_kcycle", ratio(1000.0 * calls[3], c));
    put("bus.self_share", ratio(total.bus_ns, total.run_ns));
    for board in BUS_SPLIT {
        if let Some(s) = per_board.get(board) {
            put(
                &format!("bus.self_share.{board}"),
                ratio(s.bus_ns, s.run_ns),
            );
        }
    }
}

/// disc-isa / disc-board / disc-snap / disc-obs span medians, plus the
/// snapshot size.
pub fn setup_and_state(spans: &[Span], snap_bytes: &[f64], out: &mut HashMap<String, f64>) {
    for (metric, span) in [
        ("isa.assemble_us", "isa.assemble"),
        ("board.parse_us", "board.parse"),
        ("board.build_us", "board.build"),
        ("snap.save_us", "snap.save"),
        ("snap.restore_us", "snap.restore"),
        ("obs.report_us", "obs.report"),
    ] {
        if let Some(v) = span_median_us(spans, span) {
            out.insert(metric.to_string(), v);
        }
    }
    if let Some(b) = stats::median(snap_bytes) {
        out.insert("snap.bytes".to_string(), b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_names_are_unique_valid_and_mapped() {
        let rows = rows();
        let mut names: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len());
        for (name, unit, _, moves) in &rows {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit.len() <= 16);
            assert!(!moves.is_empty());
        }
    }

    #[test]
    fn finish_fills_unmeasured_metrics_and_names_them() {
        let values = HashMap::from([("core.skip_share".to_string(), 0.5)]);
        let (metrics, note) = finish(values, "test");
        assert_eq!(metrics.len(), rows().len());
        assert_eq!(
            metrics
                .iter()
                .find(|m| m.name == "core.skip_share")
                .unwrap()
                .value,
            0.5
        );
        let missing = note.get("not_measured").and_then(Json::as_arr).unwrap();
        assert_eq!(missing.len(), rows().len() - 1);
    }
}
