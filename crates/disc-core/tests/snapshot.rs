//! Snapshot/restore/fork integration tests: the `disc-snap/v2` machine
//! blob must capture *everything* — a fork taken mid-run and the original
//! must stay cycle-for-cycle identical to the end of the program — and
//! restore must refuse blobs from an incompatible configuration or a
//! different program.

use disc_core::{
    DispatchMode, Exit, Machine, MachineConfig, SimError, SnapError, StepMode, TraceSink,
};
use disc_isa::Program;

fn busy_program() -> Program {
    Program::assemble(
        r#"
        .stream 0, main
        .stream 1, side
        .vector 0, 3, isr
main:
        ldi r0, 0
        ldi r1, 25
loop:
        addi r0, r0, 1
        sta r0, 0x10
        lda r2, 0x900
        winc 1
        wdec 1
        sub r3, r1, r0
        jnz loop
        halt
side:
        ldi r4, 7
spin:
        addi r4, r4, 3
        sta r4, 0xa00
        jmp spin
isr:
        ldi r5, 0xff
        reti
"#,
    )
    .expect("assemble")
}

/// Drives `n` cycles, raising an interrupt partway so service frames and
/// IRQ latency stats are live at the snapshot point.
fn warm_up(m: &mut Machine, n: u64) {
    m.run(n / 2).expect("warm-up run");
    m.raise_interrupt(0, 3);
    m.run(n - n / 2).expect("warm-up run");
}

fn machine_digest(m: &Machine) -> (u64, u64, u64, Vec<u16>, u16, u16) {
    let mut regs = Vec::new();
    for s in 0..m.stream_count() {
        for r in [disc_isa::Reg::R0, disc_isa::Reg::R4, disc_isa::Reg::Sp] {
            regs.push(m.reg(s, r));
        }
        regs.push(m.stream(s).pc());
    }
    (
        m.cycle(),
        m.stats().retired.iter().sum::<u64>(),
        m.stats().bubbles,
        regs,
        m.internal_memory().read(0x10),
        m.global(0),
    )
}

#[test]
fn fork_mid_run_stays_cycle_identical() {
    let program = busy_program();
    let mut original = Machine::new(MachineConfig::disc1(), &program);
    warm_up(&mut original, 40);

    let mut fork = Machine::new(MachineConfig::disc1(), &program);
    fork.restore(&original.snapshot()).expect("fork");
    assert_eq!(machine_digest(&original), machine_digest(&fork));

    let a = original.run(400).expect("original tail");
    let b = fork.run(400).expect("fork tail");
    assert_eq!(a, b);
    assert_eq!(machine_digest(&original), machine_digest(&fork));
    assert_eq!(original.stats(), fork.stats());
    assert_eq!(original.skip_stats(), fork.skip_stats());
    assert_eq!(original.scheduler_grants(), fork.scheduler_grants());
}

#[test]
fn restore_roundtrips_identity() {
    let program = busy_program();
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    warm_up(&mut m, 60);
    let snap = m.snapshot();
    let mut fresh = Machine::new(MachineConfig::disc1(), &program);
    fresh.restore(&snap).expect("restore");
    // A snapshot of the restored machine must be byte-identical: nothing
    // may be lost or re-derived differently on the second trip.
    assert_eq!(snap, fresh.snapshot());
}

#[test]
fn fork_across_step_and_dispatch_modes() {
    let program = busy_program();
    let mut base = Machine::new(MachineConfig::disc1(), &program);
    warm_up(&mut base, 40);
    let base_exit = base.run(500).expect("base tail");
    let reference = machine_digest(&base);

    let mut warm = Machine::new(MachineConfig::disc1(), &program);
    warm_up(&mut warm, 40);
    for (step, dispatch) in [
        (StepMode::CycleByCycle, DispatchMode::Legacy),
        (StepMode::EventSkip, DispatchMode::Superblock),
        (StepMode::EventSkip, DispatchMode::Legacy),
    ] {
        let mut config = MachineConfig::disc1();
        config.step_mode = step;
        config.dispatch_mode = dispatch;
        let latency = config.default_ext_latency;
        let bus = Box::new(disc_core::FlatBus::new(latency));
        let mut fork = Machine::with_bus(config, &program, bus);
        fork.restore(&warm.snapshot()).expect("cross-mode fork");
        let exit = fork.run(500).expect("fork tail");
        assert_eq!(exit, base_exit, "{step:?}/{dispatch:?}");
        assert_eq!(machine_digest(&fork), reference, "{step:?}/{dispatch:?}");
    }
}

#[test]
fn restore_rejects_wrong_config_and_program() {
    let program = busy_program();
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    m.run(10).expect("run");
    let snap = m.snapshot();

    let mut config = MachineConfig::disc1();
    config.default_ext_latency += 1;
    let mut other = Machine::new(config, &program);
    assert!(matches!(
        other.restore(&snap),
        Err(SnapError::FingerprintMismatch { .. })
    ));

    let mut program2 = program.clone();
    program2.set_word(0, program.word(0) ^ 1);
    let mut other = Machine::new(MachineConfig::disc1(), &program2);
    assert!(matches!(
        other.restore(&snap),
        Err(SnapError::ProgramMismatch { .. })
    ));

    let mut ok = Machine::new(MachineConfig::disc1(), &program);
    ok.restore(&snap).expect("matching machine restores");
}

#[test]
fn restore_rejects_truncated_and_trailing() {
    let program = busy_program();
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    m.run(10).expect("run");
    let snap = m.snapshot();

    let mut target = Machine::new(MachineConfig::disc1(), &program);
    assert!(target.restore(&snap[..snap.len() - 1]).is_err());
    let mut long = snap.clone();
    long.push(0);
    assert!(target.restore(&long).is_err());
    // And the machine is still usable with a good blob afterwards.
    target.restore(&snap).expect("good blob restores");
}

/// PR 5 regression guard: a per-cycle `TraceSink` attached across a
/// restore must see exactly the post-restore cycles — no stale events
/// staged before the snapshot, and `wants_records`/`next_observe`
/// re-latched so event-skip cannot skip over observed cycles.
#[test]
fn trace_sink_relatches_after_restore() {
    #[derive(Default)]
    struct Recorder {
        cycles: Vec<u64>,
        events: usize,
    }
    impl TraceSink for Recorder {
        fn wants_records(&self) -> bool {
            true
        }
        fn record_cycle(&mut self, record: disc_core::CycleRecord) {
            self.cycles.push(record.cycle);
            self.events += record.events.len();
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    let program = busy_program();

    // Uninterrupted reference: one sink over the whole run.
    let mut config = MachineConfig::disc1();
    config.step_mode = StepMode::EventSkip;
    let mut base = Machine::new(config.clone(), &program);
    base.set_trace_sink(Box::new(Recorder::default()));
    warm_up(&mut base, 40);
    base.run(300).expect("base tail");
    let base_rec = base
        .take_trace_sink()
        .unwrap()
        .into_any()
        .downcast::<Recorder>()
        .unwrap();

    // Snapshot mid-run, restore into a fresh machine, attach a fresh sink
    // there: its records must equal the reference's post-snapshot suffix.
    let mut m = Machine::new(config.clone(), &program);
    m.set_trace_sink(Box::new(Recorder::default()));
    warm_up(&mut m, 40);
    let snap = m.snapshot();
    let cut = m.cycle();

    let mut resumed = Machine::new(config, &program);
    resumed.set_trace_sink(Box::new(Recorder::default()));
    resumed.restore(&snap).expect("restore");
    resumed.run(300).expect("resumed tail");
    let tail_rec = resumed
        .take_trace_sink()
        .unwrap()
        .into_any()
        .downcast::<Recorder>()
        .unwrap();

    let suffix: Vec<u64> = base_rec
        .cycles
        .iter()
        .copied()
        .filter(|&c| c >= cut)
        .collect();
    assert_eq!(tail_rec.cycles, suffix);
    assert!(tail_rec.cycles.windows(2).all(|w| w[1] == w[0] + 1));
}

#[test]
fn pending_error_survives_snapshot() {
    // An undecodable word mid-stream: run until the decode fault fires,
    // then check that a machine snapshotted just before reports the same
    // error after restore.
    let program = Program::assemble(
        r#"
        .stream 0, main
main:
        ldi r0, 1
        addi r0, r0, 2
        halt
"#,
    )
    .expect("assemble");
    let mut bad = program.clone();
    bad.set_word(1, 0xff_ffff); // undecodable
    let mut m = Machine::new(MachineConfig::disc1(), &bad);
    let err = m.run(50).expect_err("decode fault");
    assert!(matches!(err, SimError::Decode { .. }));

    let mut good = Machine::new(MachineConfig::disc1(), &program);
    good.run(2).expect("short run");
    let snap = good.snapshot();
    let mut restored = Machine::new(MachineConfig::disc1(), &program);
    restored.restore(&snap).expect("restore");
    assert_eq!(restored.run(100).expect("tail"), Exit::Halted);
}

/// Format-stability guard: a fixed machine driven to a fixed point must
/// snapshot to exactly the bytes committed in `tests/data/golden.snap`.
/// A failure here means the snapshot byte format changed — decide
/// whether that is intentional, bump [`disc_core::SNAP_FORMAT`] thinking
/// about blobs in the wild, and regenerate the golden file with:
///
/// ```text
/// DISC_REGEN_GOLDEN=1 cargo test -p disc-core --test snapshot golden
/// ```
#[test]
fn golden_snapshot_blob_is_stable() {
    let program = busy_program();
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    warm_up(&mut m, 50);
    let blob = m.snapshot();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden.snap");
    if std::env::var_os("DISC_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &blob).expect("write golden blob");
    }
    let golden = std::fs::read(path)
        .expect("read tests/data/golden.snap (regenerate with DISC_REGEN_GOLDEN=1)");
    assert_eq!(
        blob, golden,
        "snapshot bytes drifted from the committed golden blob"
    );

    // The committed blob must still restore, and re-snapshot to itself.
    let mut fresh = Machine::new(MachineConfig::disc1(), &program);
    fresh.restore(&golden).expect("golden blob restores");
    assert_eq!(fresh.cycle(), m.cycle());
    assert_eq!(fresh.snapshot(), golden);
}
