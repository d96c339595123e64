//! Profiling harness: runs a single named workload hot for long enough
//! that a sampling profiler (`perf`, `gprofng`) gets a clean picture of
//! the simulator's dispatch loop, without the multi-workload mixing and
//! timing scaffolding of `bench_gate`.
//!
//! Usage: `profile_target [workload] [cycles]` where `workload` is one of
//! `compute` (default), `branch`, `io` or `irq`, and `cycles` is the
//! total simulated cycle count (default 50 million). Built and driven by
//! `make profile`.

use disc_bench::workloads::{branch_program, compute_program, io_program, irq_program};
use disc_core::{DispatchMode, Machine, MachineConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| "compute".to_string());
    let cycles: u64 = args
        .next()
        .map(|c| c.parse().expect("cycles must be an integer"))
        .unwrap_or(50_000_000);
    let dispatch = match std::env::var("DISC_DISPATCH").as_deref() {
        Ok("legacy") => DispatchMode::Legacy,
        _ => DispatchMode::Superblock,
    };

    let (program, streams) = match workload.as_str() {
        "compute" => (compute_program(4), 4),
        "branch" => (branch_program(4), 4),
        "io" => (io_program(), 2),
        "irq" => (irq_program(3), 4),
        other => {
            eprintln!("unknown workload {other:?} (want compute|branch|io|irq)");
            std::process::exit(2);
        }
    };
    let config = MachineConfig::disc1()
        .with_streams(streams)
        .with_dispatch_mode(dispatch);
    let mut m = Machine::new(config, &program);
    if workload == "irq" {
        m.set_idle_exit(false);
        let mut c = 0;
        while c < cycles {
            m.raise_interrupt(3, 5);
            let chunk = 50.min(cycles - c);
            m.run(chunk).expect("irq run");
            c += chunk;
        }
    } else {
        m.run(cycles).expect("run");
    }
    let sb = m.superblock_stats();
    eprintln!(
        "{workload}: {} cycles, {} retired, {} bursts covering {} cycles ({:.1}% hit rate), {} entry rejects",
        m.stats().cycles,
        m.stats().retired_total(),
        sb.bursts,
        sb.burst_cycles,
        100.0 * sb.hit_rate(m.stats().cycles),
        sb.entry_rejects,
    );
    std::hint::black_box(m.stats().retired_total());
}
