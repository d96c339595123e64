//! Snapshot-roundtrip equivalence suite: for every workload family the
//! repo measures — the fig_* figure programs, the bench workloads
//! (io_bound_2s, interrupt_heavy_3s) and a stuck-peripheral fault plan —
//! and for all four {DispatchMode × StepMode} combinations, a run split
//! at an arbitrary snapshot point must be **byte-identical** to the
//! uninterrupted run (the differential fuzzer holds every generated
//! program to the same split check, `disc_bench::fuzz::compare`):
//!
//! * snapshot → restore into a fresh machine → snapshot reproduces the
//!   blob exactly (restore is byte-stable), and
//! * both the original machine continuing past the snapshot point and
//!   the restored copy reach the *same final snapshot* as a machine that
//!   ran the whole horizon in one `run` call — diagnostic counters
//!   (bursts, entry rejects, skips) included, not just architectural
//!   state.
//!
//! The second property is the chunk-boundary transparency contract:
//! where the caller happens to cut its `run` calls (which is exactly
//! what a snapshot/restore cycle does) must be invisible, or a restored
//! session could never be verified byte for byte.

use disc_bus::{BlockStorage, DmaEngine, ExtRam, PacketPort, PeripheralBus, Shared};
use disc_core::{
    BusFaultPolicy, DispatchMode, Exit, Machine, MachineConfig, SchedulePolicy, StepMode,
};
use disc_faults::{AddrRange, FaultInjector, FaultPlan, FaultWindow};
use disc_isa::Program;

const COMBOS: [(DispatchMode, StepMode); 4] = [
    (DispatchMode::Legacy, StepMode::CycleByCycle),
    (DispatchMode::Legacy, StepMode::EventSkip),
    (DispatchMode::Superblock, StepMode::CycleByCycle),
    (DispatchMode::Superblock, StepMode::EventSkip),
];

/// Advances `m` to absolute cycle `target`, raising each `(cycle,
/// stream, bit)` interrupt exactly when the machine reaches its cycle.
/// Stops early (and permanently) once the machine halts, breaks, or
/// parks idle — deterministic regardless of how callers chunk it.
fn drive(m: &mut Machine, target: u64, irqs: &[(u64, usize, u8)]) {
    loop {
        let now = m.cycle();
        if now >= target {
            return;
        }
        for &(cycle, stream, bit) in irqs {
            if cycle == now {
                m.raise_interrupt(stream, bit);
            }
        }
        let next = irqs
            .iter()
            .map(|&(cycle, _, _)| cycle)
            .filter(|&cycle| cycle > now && cycle < target)
            .min()
            .unwrap_or(target);
        match m.run(next - now).expect("drive run") {
            Exit::CycleLimit => {}
            _ => return,
        }
    }
}

/// The whole property for one scenario: for every dispatch × step combo,
/// an uninterrupted run, a run split at ~40% of the horizon, and a run
/// restored from the split point's snapshot must all end in the same
/// snapshot bytes.
fn assert_roundtrip(
    label: &str,
    horizon: u64,
    irqs: &[(u64, usize, u8)],
    build: impl Fn(DispatchMode, StepMode) -> Machine,
) {
    for (dispatch, step) in COMBOS {
        let tag = format!("{label} [{dispatch:?}/{step:?}]");

        let mut oneshot = build(dispatch, step);
        drive(&mut oneshot, horizon, irqs);
        let final_blob = oneshot.snapshot();

        let mut split = build(dispatch, step);
        drive(&mut split, horizon * 2 / 5, irqs);
        let mid_blob = split.snapshot();

        let mut restored = build(dispatch, step);
        restored
            .restore(&mid_blob)
            .unwrap_or_else(|e| panic!("{tag}: restore failed: {e}"));
        assert_eq!(
            restored.snapshot(),
            mid_blob,
            "{tag}: restore is not byte-stable"
        );

        drive(&mut split, horizon, irqs);
        drive(&mut restored, horizon, irqs);
        assert_eq!(
            split.snapshot(),
            final_blob,
            "{tag}: split run diverged from the one-shot run"
        );
        assert_eq!(
            restored.snapshot(),
            final_blob,
            "{tag}: restored run diverged from the one-shot run"
        );
    }
}

/// [`assert_roundtrip`] over the catalog machine `boards/<name>.board`.
fn assert_catalog_roundtrip(name: &str, horizon: u64, irqs: &[(u64, usize, u8)]) {
    let board = disc_bench::board(name);
    assert_roundtrip(name, horizon, irqs, |dispatch, step| {
        board
            .machine_with_modes(step, dispatch)
            .expect("catalog board builds")
    });
}

#[test]
fn fig_3_1_interleaved_pipeline_roundtrips() {
    assert_catalog_roundtrip("fig_3_1", 4_000, &[]);
}

#[test]
fn fig_3_2_jump_flush_roundtrips() {
    // The jump-flush scenario: a single resident stream, so every taken
    // jump flushes its pipeline slots — the flush machinery is live at
    // whatever cycle the snapshot lands on.
    let program = Program::assemble(".stream 0, l\nl:\n    addi r0, r0, 1\n    jmp l\n")
        .expect("fig 3.2 program");
    assert_roundtrip("fig_3_2", 4_000, &[], |dispatch, step| {
        let cfg = MachineConfig::disc1()
            .with_streams(1)
            .with_dispatch_mode(dispatch)
            .with_step_mode(step);
        Machine::new(cfg, &program)
    });
}

#[test]
fn fig_3_3_dynamic_partition_roundtrips() {
    let mut src = String::new();
    for s in 0..4 {
        src.push_str(&format!(".stream {s}, l{s}\n"));
        src.push_str(&format!(
            "l{s}:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n    \
             addi r3, r3, 1\n    addi r4, r4, 1\n    addi r5, r5, 1\n    jmp l{s}\n"
        ));
    }
    let program = Program::assemble(&src).expect("fig 3.3 program");
    assert_roundtrip("fig_3_3", 6_000, &[], |dispatch, step| {
        let cfg = MachineConfig::disc1()
            .with_schedule(SchedulePolicy::partitioned(&[8, 3, 3, 2]))
            .with_dispatch_mode(dispatch)
            .with_step_mode(step);
        Machine::new(cfg, &program)
    });
}

#[test]
fn fig_3_4_stack_window_roundtrips() {
    // Call/window traffic in a loop so window-stack state is mid-flight
    // at the snapshot point (the figure's own program halts too early to
    // split).
    let program = Program::assemble(
        r#"
        .stream 0, main
    main:
        ldi r0, 7
    again:
        call f
        sta r0, 0x10
        jmp again
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
    "#,
    )
    .expect("fig 3.4 program");
    assert_roundtrip("fig_3_4", 4_000, &[], |dispatch, step| {
        let cfg = MachineConfig::disc1()
            .with_dispatch_mode(dispatch)
            .with_step_mode(step);
        Machine::new(cfg, &program)
    });
}

#[test]
fn io_bound_2s_roundtrips() {
    assert_catalog_roundtrip("io_bound_2s", 20_000, &[]);
}

#[test]
fn interrupt_heavy_3s_roundtrips() {
    // An external interrupt every 50 cycles, including ones that land
    // right around the 40% snapshot cut.
    let irqs: Vec<(u64, usize, u8)> = (1..160).map(|i| (i * 50, 3usize, 5u8)).collect();
    assert_catalog_roundtrip("interrupt_heavy_3s", 8_000, &irqs);
}

#[test]
fn stuck_peripheral_fault_plan_roundtrips() {
    // A deterministic fault plan wedges the device mid-run; the snapshot
    // cut at 8_000 lands inside the stuck window (2_000..8_000 covers
    // the cut at 20_000 * 2 / 5 = 8_000), so ABI timeout recovery state
    // and the injector's RNG/log are all live across the roundtrip.
    let program = Program::assemble(
        ".stream 0, a\n\
         a: lui r0, 0x80\nla: ld r1, [r0]\n    st r1, [r0]\n    jmp la\n",
    )
    .expect("stuck program");
    assert_roundtrip("stuck_peripheral", 20_000, &[], |dispatch, step| {
        let mut bus = PeripheralBus::new();
        bus.map(0x8000, 16, Box::new(ExtRam::new(16, 3)))
            .expect("map device ram");
        let plan = FaultPlan::new(0xbad).stuck(
            AddrRange::new(0x8000, 0x800f),
            FaultWindow::between(2_000, 9_000),
        );
        let injector = FaultInjector::new(plan, Box::new(bus));
        let cfg = MachineConfig::disc1()
            .with_streams(1)
            .with_bus_fault(BusFaultPolicy::Fault)
            .with_abi_timeout(64)
            .with_dispatch_mode(dispatch)
            .with_step_mode(step);
        Machine::with_bus(cfg, &program, Box::new(injector))
    });
}

#[test]
fn dma_transfer_roundtrips() {
    // The snapshot cut at 40% of the horizon lands while the engine is
    // mid-transfer on most combos: SRC/DST/COUNT latches, the in-flight
    // word countdown and the master-stall accounting all live in the
    // blob.
    let program = Program::assemble(
        r#"
        .stream 0, main
        .stream 1, work
        .vector 1, 5, isr
    main:
        li r0, 0x9000
        li r1, 0x8000
        ldi r2, 55
        st r2, [r1]
        addi r2, r2, 1
        st r2, [r1 + 1]
        st r1, [r0]
        li r2, 0x8020
        st r2, [r0 + 1]
        ldi r2, 2
        st r2, [r0 + 2]
        ldi r2, 1
        st r2, [r0 + 3]
    poll:
        ld r3, [r0 + 4]
        ld r4, [r1 + 32]
        jmp poll
    work:
        addi r0, r0, 1
        jmp work
    isr:
        lda r0, 0x40
        addi r0, r0, 1
        sta r0, 0x40
        reti
    "#,
    )
    .expect("dma program");
    assert_roundtrip("dma_transfer", 6_000, &[], |dispatch, step| {
        let engine = Shared::new(DmaEngine::new(6).with_stall(2).with_irq(1, 5));
        let mut bus = PeripheralBus::new();
        bus.map(0x8000, 0x100, Box::new(ExtRam::new(0x100, 2)))
            .expect("map ram");
        bus.map_dma(0x9000, &engine).expect("map dma");
        let cfg = MachineConfig::disc1()
            .with_streams(2)
            .with_dispatch_mode(dispatch)
            .with_step_mode(step);
        Machine::with_bus(cfg, &program, Box::new(bus))
    });
}

#[test]
fn storage_busy_window_roundtrips() {
    // The write command takes 36 cycles and the loop issues one every
    // ~hundred, so cuts regularly land inside a busy window: the op
    // countdown, latched LBA and transfer pointer must all restore.
    let program = Program::assemble(
        r#"
        .stream 0, log
    log:
        li r0, 0x9100
        ldi r1, 0
        st r1, [r0 + 3]
        ldi r2, 7
        st r2, [r0 + 4]
        ldi r2, 1
        st r2, [r0 + 2]
        ldi r2, 2
        st r2, [r0]
    wait_w:
        ld r3, [r0 + 1]
        cmpi r3, 0
        jnz wait_w
        ldi r2, 1
        st r2, [r0]
    wait_r:
        ld r3, [r0 + 1]
        cmpi r3, 0
        jnz wait_r
        jmp log
    "#,
    )
    .expect("storage program");
    assert_roundtrip("storage_busy_window", 6_000, &[], |dispatch, step| {
        let mut bus = PeripheralBus::new();
        bus.map(
            0x9100,
            BlockStorage::REGS,
            Box::new(BlockStorage::new(4, 8, 24, 36)),
        )
        .expect("map storage");
        let cfg = MachineConfig::disc1()
            .with_streams(1)
            .with_dispatch_mode(dispatch)
            .with_step_mode(step);
        Machine::with_bus(cfg, &program, Box::new(bus))
    });
}

#[test]
fn packet_sampler_roundtrips() {
    // The port's Poisson sampler is the only RNG in the machine: if its
    // state is not byte-restored, the arrival sequence after the cut
    // diverges immediately.
    let program = Program::assemble(
        ".stream 0, idle\n.vector 0, 5, isr\n\
         idle:\n    stop\n\
         isr:\n    lui r1, 0x92\n    ld r2, [r1]\n    ld r3, [r1 + 1]\n    reti\n",
    )
    .expect("packet program");
    assert_roundtrip("packet_sampler", 10_000, &[], |dispatch, step| {
        let port = PacketPort::new(7, 40, 1.5).with_capacity(8).with_irq(0, 5);
        let mut bus = PeripheralBus::new();
        bus.map(0x9200, PacketPort::REGS, Box::new(port))
            .expect("map packet port");
        let cfg = MachineConfig::disc1()
            .with_streams(1)
            .with_dispatch_mode(dispatch)
            .with_step_mode(step);
        let mut m = Machine::with_bus(cfg, &program, Box::new(bus));
        m.set_idle_exit(false);
        m
    });
}
