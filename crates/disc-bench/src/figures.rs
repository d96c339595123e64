//! Reproductions of the paper's figures on the cycle-accurate machine.

use disc_core::{Machine, MachineConfig, StepMode};
use disc_isa::Reg;

/// The catalog machine `boards/<name>.board` under step mode `mode`.
fn machine(name: &str, mode: StepMode) -> Machine {
    let board = crate::board(name);
    board
        .machine_with_modes(mode, board.config.dispatch_mode)
        .unwrap_or_else(|e| panic!("{name}.board builds: {e}"))
}

/// Figure 3.1 — the interleaved pipeline: five independent streams on a
/// five-stage pipe; every stage holds a different stream every cycle.
///
/// # Panics
///
/// Panics if the catalog board fails to load, build or run (a bug).
pub fn fig_3_1_interleaved_pipeline() -> String {
    fig_3_1_with(StepMode::CycleByCycle)
}

/// [`fig_3_1_interleaved_pipeline`] under an explicit [`StepMode`]. The
/// equivalence tests render every figure in both modes and require
/// byte-identical text.
pub fn fig_3_1_with(mode: StepMode) -> String {
    // An exact 5-slot sequence keeps consecutive slots on distinct
    // streams (a 16-slot table over 5 streams would double up).
    let mut m = machine("fig_3_1", mode);
    // Warm the pipe, then trace a window.
    m.run(10).unwrap();
    m.trace_start(12);
    m.run(12).unwrap();
    let trace = m.trace_take().unwrap();
    let mut out = String::from(
        "Figure 3.1 - Interleaved Pipeline\n\
         (five streams s0..s4 on a 5-stage pipe; each column is one cycle)\n\n",
    );
    out.push_str(&trace.pipeline_diagram(&["IF", "ID", "RR", "EX", "WR"]));
    out.push_str(&format!(
        "\njump flushes during window: {}\n",
        m.stats().flushed_jump
    ));
    out
}

/// Figure 3.2 — the interleaved pipeline during a jump: with five streams
/// resident, no other instruction in the pipe belongs to the jumping
/// stream, so nothing is flushed; a single-stream run of the same code
/// flushes on every taken jump.
///
/// # Panics
///
/// Panics if the catalog board fails to load, build or run (a bug).
pub fn fig_3_2_jump() -> String {
    fig_3_2_with(StepMode::CycleByCycle)
}

/// [`fig_3_2_jump`] under an explicit [`StepMode`].
pub fn fig_3_2_with(mode: StepMode) -> String {
    // The five-stream half is the figure 3.1 machine: the same loop on
    // the same pipe and sequence table.
    let run_with = |name: &str| {
        let mut m = machine(name, mode);
        m.run(400).unwrap();
        let st = m.stats();
        (st.flushed_jump, st.utilization())
    };
    let (flush1, pd1) = run_with("fig_3_2_1s");
    let (flush5, pd5) = run_with("fig_3_1");
    format!(
        "Figure 3.2 - Interleaved Pipeline During a Jump\n\n\
         same loop, 400 cycles, 5-stage pipe:\n\
         1 stream : {flush1:>4} instructions flushed by jumps, PD = {pd1:.3}\n\
         5 streams: {flush5:>4} instructions flushed by jumps, PD = {pd5:.3}\n\n\
         With >= pipe-depth streams resident, no instruction behind a jump\n\
         belongs to the jumping stream, so the flush disappears.\n"
    )
}

/// Figure 3.3 — dynamic throughput reallocation: four streams with a
/// statically partitioned schedule (T/2, T/6+, T/6+, T/8) observed across
/// activity phases; idle streams' slots flow to whoever is ready.
///
/// # Panics
///
/// Panics if the catalog board fails to load, build or run (a bug).
pub fn fig_3_3_dynamic() -> String {
    fig_3_3_with(StepMode::CycleByCycle)
}

/// [`fig_3_3_dynamic`] under an explicit [`StepMode`].
pub fn fig_3_3_with(mode: StepMode) -> String {
    let mut m = machine("fig_3_3", mode);

    let mut out = String::from(
        "Figure 3.3 - Dynamic Instruction Stream Diagram\n\
         static partition: IS1 = 8/16 (T/2), IS2 = 3/16, IS3 = 3/16, IS4 = 2/16\n\n\
         phase                        IS1    IS2    IS3    IS4  (share of issued instructions)\n",
    );
    let mut phase = |m: &mut Machine, label: &str, active: [bool; 4]| {
        for (s, on) in active.iter().enumerate() {
            m.set_reg(s, Reg::Ir, if *on { 1 } else { 0 });
        }
        // Let in-flight instructions of deactivated streams drain before
        // measuring the phase.
        m.run(50).unwrap();
        let before: Vec<u64> = m.stats().retired.clone();
        m.run(2_000).unwrap();
        let after: Vec<u64> = m.stats().retired.clone();
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        let total: u64 = delta.iter().sum::<u64>().max(1);
        out.push_str(&format!("{label:<26}"));
        for d in &delta {
            out.push_str(&format!("  {:>4.1}%", *d as f64 / total as f64 * 100.0));
        }
        out.push('\n');
    };
    phase(&mut m, "only IS1 active", [true, false, false, false]);
    phase(&mut m, "all active", [true, true, true, true]);
    phase(&mut m, "IS3 inactive", [true, true, false, true]);
    phase(&mut m, "IS1 finished", [false, true, true, true]);
    out.push_str(
        "\nA stream statically assigned T/2 receives T when alone; an idle\n\
         stream's share is dynamically reallocated to the ready streams.\n",
    );
    out
}

/// Figures 3.4/3.5 — the stack window: AWP movement across calls, window
/// allocation and returns, with the register renaming visible.
///
/// # Panics
///
/// Panics if the catalog board fails to load, build or run (a bug).
pub fn fig_3_4_stack_window() -> String {
    fig_3_4_with(StepMode::CycleByCycle)
}

/// [`fig_3_4_stack_window`] under an explicit [`StepMode`]. This figure
/// single-steps the machine, where skipping never engages; the knob
/// still exercises the mode plumbing.
pub fn fig_3_4_with(mode: StepMode) -> String {
    let mut m = machine("fig_3_4", mode);
    let mut out = String::from(
        "Figures 3.4/3.5 - Stack Window Movements\n\n\
         cycle  AWP  event\n",
    );
    let mut last_awp = m.stream(0).window().awp();
    out.push_str(&format!("{:>5}  {last_awp:>3}  initial window\n", 0));
    for _ in 0..200 {
        if m.halted() {
            break;
        }
        m.step().unwrap();
        let awp = m.stream(0).window().awp();
        if awp != last_awp {
            let dir = if awp > last_awp {
                "AWP incremented (fresh R0 allocated)"
            } else {
                "AWP decremented (window popped)"
            };
            out.push_str(&format!("{:>5}  {awp:>3}  {dir}\n", m.cycle()));
            last_awp = awp;
        }
    }
    out.push_str(&format!(
        "\npeak window depth: {} registers; spills: {}; fills: {}\n",
        m.stream(0).window().max_depth(),
        m.stream(0).window().spills(),
        m.stream(0).window().fills(),
    ));
    out
}

/// Figure 3.6 — the DISC1 block diagram, rendered from the live machine
/// configuration.
pub fn fig_3_6_block_diagram() -> String {
    let cfg = MachineConfig::disc1();
    format!(
        "Figure 3.6 - Block Diagram of DISC1\n\n\
         +-------------------------------------------------------------+\n\
         |  program memory (24-bit program bus, Harvard organization)  |\n\
         +-------------------------------------------------------------+\n\
                |  fetch\n\
         +-------------------------------------------------------------+\n\
         |  HARDWARE SCHEDULER: {}-slot sequence table, 1/16 grain,     |\n\
         |  dynamic reallocation of idle slots                          |\n\
         +-------------------------------------------------------------+\n\
                |  one instruction per cycle\n\
         +-------------------------------------------------------------+\n\
         |  {}-stage pipeline: IF -> RD -> EX -> WR                      |\n\
         |  (jumps resolve in EX; flush only their own stream)          |\n\
         +-------------------------------------------------------------+\n\
            |            |            |             |\n\
         +--------+  +--------+  +---------------+  +----------------+\n\
         | {} x IS |  | 16x16  |  | internal RAM  |  | ABI: async     |\n\
         | context|  | MULT   |  | {} words      |  | 16-bit data bus|\n\
         | PC,SR, |  +--------+  | shared, tset  |  | 1 transaction  |\n\
         | IR,MR, |              | semaphores    |  | wait-states    |\n\
         | {}-deep |              +---------------+  +----------------+\n\
         | stack  |\n\
         | window |   4 global registers shared between all streams\n\
         +--------+   per-stream vectored interrupts, bits 7..1 + bg\n",
        disc_core::SEQUENCE_SLOTS,
        cfg.pipeline_depth,
        cfg.streams,
        cfg.internal_words,
        cfg.window_depth,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_3_1_shows_all_five_streams() {
        let d = fig_3_1_interleaved_pipeline();
        for s in 0..5 {
            assert!(d.contains(&format!("s{s}")), "stream {s} missing:\n{d}");
        }
        assert!(d.contains("flushes during window: 0"));
    }

    #[test]
    fn fig_3_2_contrasts_flush_behaviour() {
        let d = fig_3_2_jump();
        assert!(d.contains("5 streams:    0 instructions"), "{d}");
    }

    #[test]
    fn fig_3_3_reallocates_shares() {
        let d = fig_3_3_dynamic();
        let lines: Vec<&str> = d.lines().collect();
        let only = lines.iter().find(|l| l.contains("only IS1")).unwrap();
        assert!(only.contains("100.0%"), "sole stream takes all: {only}");
        let finished = lines.iter().find(|l| l.contains("IS1 finished")).unwrap();
        assert!(
            finished.trim_end().starts_with("IS1 finished") && finished.contains("0.0%"),
            "idle stream keeps nothing: {finished}"
        );
    }

    #[test]
    fn fig_3_4_tracks_window_motion() {
        let d = fig_3_4_stack_window();
        assert!(d.contains("AWP incremented"));
        assert!(d.contains("AWP decremented"));
    }

    #[test]
    fn fig_3_6_reflects_config() {
        let d = fig_3_6_block_diagram();
        assert!(d.contains("1024 words"));
        assert!(d.contains("4-stage"));
    }
}
