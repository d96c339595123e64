//! Canonical example machines — single source of truth.
//!
//! Every hard-coded example machine used across the harness (the five
//! throughput workloads and the paper-figure machines) is constructed
//! here, so `bench_gate`, `profile_target`, the figure renderers, the
//! board-differential suite and the committed `boards/` files all agree
//! on the exact program text and configuration. The boards under
//! `boards/` are the declarative twins of these constructors; the
//! `board_differential` test pins them byte-identical.

use disc_bus::{PeripheralBus, Timer};
use disc_core::{Machine, MachineConfig, SchedulePolicy};
use disc_isa::Program;

/// Per-stream register-arithmetic loop (`compute_bound_4s`, figures
/// 3.1/3.2).
pub fn compute_source(streams: usize) -> String {
    let mut src = String::new();
    for s in 0..streams {
        src.push_str(&format!(".stream {s}, l{s}\n"));
        src.push_str(&format!(
            "l{s}:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n    jmp l{s}\n"
        ));
    }
    src
}

/// Per-stream count-to-4 loop with a taken branch every few ops
/// (`branch_heavy_4s`).
pub fn branch_source(streams: usize) -> String {
    let mut src = String::new();
    for s in 0..streams {
        src.push_str(&format!(".stream {s}, l{s}\n"));
        src.push_str(&format!(
            "l{s}:\n    addi r0, r0, 1\n    cmpi r0, 4\n    jnz l{s}\n    ldi r0, 0\n    jmp l{s}\n"
        ));
    }
    src
}

/// One stream hammering external loads/stores plus one compute stream
/// (`io_bound_2s`).
pub const IO_SOURCE: &str = ".stream 0, a\n.stream 1, b\n\
     a: lui r0, 0x80\nla: ld r1, [r0]\n    st r1, [r0]\n    jmp la\n\
     b: ldi r0, 0\nlb: addi r0, r0, 1\n    jmp lb\n";

/// `busy_streams` arithmetic loops plus a dormant interrupt-server
/// stream vectored on stream 3 bit 5 (`interrupt_heavy_3s`).
pub fn irq_source(busy_streams: usize) -> String {
    let mut src = String::new();
    for s in 0..busy_streams {
        src.push_str(&format!(".stream {s}, work{s}\n"));
        src.push_str(&format!(
            "work{s}:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    jmp work{s}\n"
        ));
    }
    src.push_str(".vector 3, 5, isr\n");
    src.push_str("isr:\n    lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n");
    src
}

/// One parked stream woken by a periodic timer interrupt
/// (`timer_idle_1s`).
pub const TIMER_SOURCE: &str = ".stream 0, idle\n.vector 0, 5, isr\n\
     idle:\n    stop\n\
     isr:\n    lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n";

/// Call/winc/ret sequence exercising the stack window (figures 3.4/3.5).
pub const FIG_3_4_SOURCE: &str = r#"
        .stream 0, main
    main:
        ldi r0, 7
        call f
        sta r0, 0x10
        halt
    f:
        winc 2
        ldi r0, 100
        ldi r1, 200
        call g
        wdec 2
        ret
    g:
        addi r1, r1, 0
        ret
    "#;

/// Six-addi loop per stream, long enough that the partitioned schedule
/// of figure 3.3 is visible between taken branches.
pub fn fig_3_3_source() -> String {
    let mut src = String::new();
    for s in 0..4 {
        src.push_str(&format!(".stream {s}, l{s}\n"));
        src.push_str(&format!(
            "l{s}:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n    \
             addi r3, r3, 1\n    addi r4, r4, 1\n    addi r5, r5, 1\n    jmp l{s}\n"
        ));
    }
    src
}

fn assemble(src: &str, what: &str) -> Program {
    Program::assemble(src).unwrap_or_else(|e| panic!("{what} assembles: {e}"))
}

/// [`compute_source`] assembled.
pub fn compute_program(streams: usize) -> Program {
    assemble(&compute_source(streams), "compute program")
}

/// [`branch_source`] assembled.
pub fn branch_program(streams: usize) -> Program {
    assemble(&branch_source(streams), "branch program")
}

/// [`IO_SOURCE`] assembled.
pub fn io_program() -> Program {
    assemble(IO_SOURCE, "io program")
}

/// [`irq_source`] assembled.
pub fn irq_program(busy_streams: usize) -> Program {
    assemble(&irq_source(busy_streams), "irq program")
}

/// [`TIMER_SOURCE`] assembled.
pub fn timer_program() -> Program {
    assemble(TIMER_SOURCE, "timer program")
}

/// `compute_bound_4s` configuration: DISC1 with 4 streams.
pub fn compute_bound_4s_config() -> MachineConfig {
    MachineConfig::disc1().with_streams(4)
}

/// `branch_heavy_4s` configuration: DISC1 with 4 streams.
pub fn branch_heavy_4s_config() -> MachineConfig {
    MachineConfig::disc1().with_streams(4)
}

/// `io_bound_2s` configuration: DISC1 with 2 streams.
pub fn io_bound_2s_config() -> MachineConfig {
    MachineConfig::disc1().with_streams(2)
}

/// `interrupt_heavy_3s` configuration: stock DISC1 (4 streams; stream 3
/// is the dormant interrupt server).
pub fn interrupt_heavy_3s_config() -> MachineConfig {
    MachineConfig::disc1()
}

/// `timer_idle_1s` configuration: single stream.
pub fn timer_idle_1s_config() -> MachineConfig {
    MachineConfig::disc1().with_streams(1)
}

/// Base address of the `timer_idle_1s` periodic timer.
pub const TIMER_IDLE_BASE: u16 = 0x9000;
/// Period of the `timer_idle_1s` timer in cycles.
pub const TIMER_IDLE_PERIOD: u32 = 1000;

/// The `timer_idle_1s` peripheral bus: one periodic timer interrupting
/// stream 0 on bit 5 every [`TIMER_IDLE_PERIOD`] cycles.
pub fn timer_idle_bus() -> PeripheralBus {
    let mut bus = PeripheralBus::new();
    bus.map(
        TIMER_IDLE_BASE,
        Timer::REGS,
        Box::new(Timer::periodic(TIMER_IDLE_PERIOD, 0, 5)),
    )
    .expect("map timer");
    bus
}

/// Figure 3.1 configuration: five streams on a five-stage pipe with an
/// exact 5-slot sequence (a 16-slot table over 5 streams would double
/// up).
pub fn fig_3_1_config() -> MachineConfig {
    MachineConfig::disc1()
        .with_streams(5)
        .with_pipeline_depth(5)
        .with_schedule(SchedulePolicy::Sequence(vec![0, 1, 2, 3, 4]))
}

/// Figure 3.2 configuration for `streams` streams (the figure contrasts
/// 1 against 5).
pub fn fig_3_2_config(streams: usize) -> MachineConfig {
    let seq = (0..streams as u8).collect::<Vec<_>>();
    MachineConfig::disc1()
        .with_streams(streams.max(1))
        .with_pipeline_depth(5)
        .with_schedule(SchedulePolicy::Sequence(seq))
}

/// Figure 3.3 configuration: statically partitioned schedule
/// (8/16, 3/16, 3/16, 2/16).
pub fn fig_3_3_config() -> MachineConfig {
    MachineConfig::disc1().with_schedule(SchedulePolicy::partitioned(&[8, 3, 3, 2]))
}

/// Figures 3.4/3.5 configuration: stock DISC1.
pub fn fig_3_4_config() -> MachineConfig {
    MachineConfig::disc1()
}

/// Names of every canonical machine that has a committed board twin
/// under `boards/`, in the order the differential suite checks them.
pub const BOARD_TWINS: &[&str] = &[
    "compute_bound_4s",
    "branch_heavy_4s",
    "io_bound_2s",
    "interrupt_heavy_3s",
    "timer_idle_1s",
    "fig_3_1",
    "fig_3_2_1s",
    "fig_3_3",
    "fig_3_4",
];

/// Builds the hard-coded machine `name` (one of [`BOARD_TWINS`]),
/// exactly as the benches and figures construct it — including idle-exit
/// overrides. Panics on an unknown name.
pub fn build_twin(name: &str) -> Machine {
    match name {
        "compute_bound_4s" => Machine::new(compute_bound_4s_config(), &compute_program(4)),
        "branch_heavy_4s" => Machine::new(branch_heavy_4s_config(), &branch_program(4)),
        "io_bound_2s" => Machine::new(io_bound_2s_config(), &io_program()),
        "interrupt_heavy_3s" => {
            let mut m = Machine::new(interrupt_heavy_3s_config(), &irq_program(3));
            m.set_idle_exit(false);
            m
        }
        "timer_idle_1s" => {
            let mut m = Machine::with_bus(
                timer_idle_1s_config(),
                &timer_program(),
                Box::new(timer_idle_bus()),
            );
            m.set_idle_exit(false);
            m
        }
        "fig_3_1" => Machine::new(fig_3_1_config(), &compute_program(5)),
        "fig_3_2_1s" => Machine::new(fig_3_2_config(1), &compute_program(1)),
        "fig_3_3" => {
            let mut m = Machine::new(fig_3_3_config(), &assemble(&fig_3_3_source(), "fig 3.3"));
            m.set_idle_exit(false);
            m
        }
        "fig_3_4" => Machine::new(fig_3_4_config(), &assemble(FIG_3_4_SOURCE, "fig 3.4")),
        other => panic!("unknown board twin {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_twin_builds_and_runs() {
        for name in BOARD_TWINS {
            let mut m = build_twin(name);
            m.run(64).unwrap_or_else(|e| panic!("{name} runs: {e:?}"));
            assert!(m.stats().cycles >= 1, "{name} made no progress");
        }
    }

    #[test]
    fn twin_configs_validate() {
        for name in BOARD_TWINS {
            build_twin(name); // Machine::new validates internally.
        }
        fig_3_2_config(5).validate();
    }
}
