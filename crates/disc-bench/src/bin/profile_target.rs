//! Profiling harness: runs a single catalog board hot for long enough
//! that a sampling profiler (`perf`, `gprofng`) gets a clean picture of
//! the simulator's dispatch loop, without the multi-workload mixing and
//! timing scaffolding of `bench_gate`.
//!
//! Usage: `profile_target [board] [cycles]` where `board` names a file
//! under `boards/` (default `compute_bound_4s`) and `cycles` is the
//! total simulated cycle count (default 50 million). On
//! `interrupt_heavy_3s` the harness raises the server stream's interrupt
//! every 50 cycles, as the benchmark does. Built and driven by
//! `make profile`.

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args
        .next()
        .unwrap_or_else(|| "compute_bound_4s".to_string());
    let cycles: u64 = args
        .next()
        .map(|c| c.parse().expect("cycles must be an integer"))
        .unwrap_or(50_000_000);

    let board = disc_bench::board(&name);
    let mut m = board
        .machine()
        .unwrap_or_else(|e| panic!("{name}.board builds: {e}"));
    if name == "interrupt_heavy_3s" {
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
        "{name}: {} cycles, {} retired, {} bursts covering {} cycles ({:.1}% hit rate), {} entry rejects",
        m.stats().cycles,
        m.stats().retired_total(),
        sb.bursts,
        sb.burst_cycles,
        100.0 * sb.hit_rate(m.stats().cycles),
        sb.entry_rejects,
    );
    std::hint::black_box(m.stats().retired_total());
}
