//! Boundary-semantics tests for [`DispatchMode::Superblock`]: executing
//! hazard-free runs of predecoded ops in a tight loop must be
//! architecturally invisible. Every scenario runs twice — legacy
//! dispatch and superblock dispatch — through `Machine::run` (never a
//! manual step loop) and demands identical final architectural state,
//! `MachineStats` (including per-stream `CycleAttribution`, bucket for
//! bucket), and `RunReport` content.
//!
//! Coverage targets the burst *boundaries*, where the dispatcher must
//! hand back to the slow path at exactly the right cycle:
//! an interrupt arriving mid-run, window spill triggered by the op that
//! ends a block, a fault-plan window opening inside a would-be block,
//! event-skip composing with superblocks on the timer-idle workload,
//! decode faults surfacing from inside a burst, and a per-cycle trace
//! sink pinning bursts off with byte-identical output.

use std::collections::BTreeSet;

use disc_bench::fuzz::diff_machines;
use disc_bus::{BlockStorage, DmaEngine, ExtRam, PacketPort, PeripheralBus, Shared, Timer};
use disc_core::{BusFaultPolicy, DispatchMode, Machine, MachineConfig, SimError, StepMode};
use disc_faults::{AddrRange, FaultInjector, FaultPlan, FaultWindow};
use disc_isa::Program;
use disc_obs::{config_fingerprint, config_json, stats_json, JsonlSink};

/// Runs `build`+`drive` under both dispatchers and asserts the results
/// are indistinguishable. `expect_bursts` additionally requires that the
/// superblock run actually executed bursts (otherwise the scenario
/// proves nothing about the fast path).
fn assert_dispatch_equivalent(
    label: &str,
    expect_bursts: bool,
    build: impl Fn(DispatchMode) -> Machine,
    drive: impl Fn(&mut Machine),
) {
    let mut legacy = build(DispatchMode::Legacy);
    drive(&mut legacy);
    let mut burst = build(DispatchMode::Superblock);
    drive(&mut burst);

    // Final state — stats (per-stream attribution included, bucket for
    // bucket), stream control state, window slots, `sp`, globals and
    // internal memory — through the fuzzer's machine differ.
    let mut details = Vec::new();
    let (streams, internal) = (legacy.stream_count(), legacy.config().internal_words as u16);
    diff_machines(
        label,
        &mut legacy,
        &mut burst,
        streams,
        internal,
        &BTreeSet::new(),
        &mut details,
    );
    assert!(
        details.is_empty(),
        "{label}: dispatchers diverge:\n{}",
        details.join("\n")
    );
    // The burst run's attribution buckets must still sum to its cycle count.
    burst
        .stats()
        .attribution
        .check(burst.stats().cycles)
        .unwrap_or_else(|e| panic!("{label}: burst-run attribution unbalanced: {e:?}"));

    // Burst accounting: legacy dispatch never bursts; the scenario's
    // expectation must hold under superblock dispatch.
    let lsb = legacy.superblock_stats();
    assert_eq!(lsb.bursts, 0, "{label}: legacy dispatch burst");
    assert_eq!(lsb.burst_cycles, 0, "{label}: legacy dispatch burst");
    if expect_bursts {
        let sb = burst.superblock_stats();
        assert!(sb.bursts > 0, "{label}: superblock dispatch never burst");
        assert!(
            sb.burst_cycles >= sb.bursts,
            "{label}: burst bookkeeping ({} bursts, {} cycles)",
            sb.bursts,
            sb.burst_cycles
        );
        let total_issues: u64 = burst.stats().attribution.issue.iter().sum();
        assert!(
            sb.burst_issues <= total_issues,
            "{label}: more burst issues ({}) than total issues ({total_issues})",
            sb.burst_issues
        );
    }

    // RunReport equivalence: the config fingerprint, the rendered config
    // and the full stats tree are what the report is built from, and the
    // dispatch mode (like the step mode) is deliberately excluded.
    assert_eq!(
        config_fingerprint(legacy.config()),
        config_fingerprint(burst.config()),
        "{label}: config fingerprints diverge"
    );
    assert_eq!(
        config_json(legacy.config()),
        config_json(burst.config()),
        "{label}: config sections diverge"
    );
    assert_eq!(
        stats_json(legacy.stats()),
        stats_json(burst.stats()),
        "{label}: stats sections diverge"
    );
}

/// The catalog machine `boards/<name>.board` under `dispatch`.
fn catalog(name: &str, dispatch: DispatchMode) -> Machine {
    disc_bench::board(name)
        .machine_with_modes(StepMode::CycleByCycle, dispatch)
        .expect("catalog board builds")
}

/// Two streams of the compute loop (`compute_bound_4s` halved).
const COMPUTE_2S: &str = ".stream 0, l0\n\
     l0:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n    jmp l0\n\
     .stream 1, l1\n\
     l1:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n    jmp l1\n";

/// Pure compute: one long burst should cover nearly the whole run.
#[test]
fn compute_bound_bursts_and_matches() {
    assert_dispatch_equivalent(
        "compute_bound_4s",
        true,
        |dispatch| catalog("compute_bound_4s", dispatch),
        |m| {
            m.run(50_000).expect("compute run");
        },
    );
}

/// Branch-heavy loops: taken jumps flush in-burst and must not end it.
#[test]
fn branch_heavy_bursts_and_matches() {
    assert_dispatch_equivalent(
        "branch_heavy_4s",
        true,
        |dispatch| catalog("branch_heavy_4s", dispatch),
        |m| {
            m.run(50_000).expect("branch run");
        },
    );
}

/// Boundary (a): an interrupt arrives mid-run. The burst must stop at
/// the wake source and deliver with legacy-identical latency accounting.
#[test]
fn interrupt_mid_run_matches() {
    assert_dispatch_equivalent(
        "interrupt_mid_run",
        true,
        |dispatch| catalog("interrupt_heavy_3s", dispatch),
        |m| {
            // The run() chunking mirrors the bench driver, but the raises
            // are spaced out: a pending vector rejects burst entry, so
            // interrupt-free chunks are where blocks form and the chunks
            // with a raise are where delivery cuts into them.
            for i in 0..400 {
                if i % 4 == 0 {
                    m.raise_interrupt(3, 5);
                }
                m.run(50).expect("irq run");
            }
        },
    );
}

/// Boundary (a'): a *peripheral-raised* interrupt arrives strictly inside
/// one long `run()` call, so the burst limit itself (the bus `next_event`
/// horizon) is what must stop the block.
#[test]
fn timer_interrupt_inside_single_run_matches() {
    let program = Program::assemble(
        ".stream 0, work\n.vector 0, 5, isr\n\
         work:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    jmp work\n\
         isr:\n    lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n",
    )
    .expect("timer-work program assembles");
    assert_dispatch_equivalent(
        "timer_interrupt_inside_run",
        true,
        |dispatch| {
            let mut bus = PeripheralBus::new();
            bus.map(0x9000, Timer::REGS, Box::new(Timer::periodic(700, 0, 5)))
                .expect("map timer");
            let config = MachineConfig::disc1()
                .with_streams(1)
                .with_dispatch_mode(dispatch);
            let mut m = Machine::with_bus(config, &program, Box::new(bus));
            m.set_idle_exit(false);
            m
        },
        |m| {
            m.run(40_000).expect("timer-work run");
        },
    );
}

/// Boundary (b): window spill triggers at the op ending a block. `winc`
/// is not burst-safe, so every block built over the addi stretches ends
/// at a `winc` fetch — and with a shallow window file that same `winc`'s
/// AWP motion is what spills. Its spill-stall accounting must be
/// cycle-identical to legacy dispatch.
#[test]
fn spill_at_block_end_matches() {
    let program = Program::assemble(
        ".stream 0, main\n\
         main:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n\
         \x20   winc 4\n    addi r0, r0, 1\n    addi r1, r1, 1\n    winc 4\n\
         \x20   addi r0, r0, 1\n    addi r1, r1, 1\n    winc 4\n\
         \x20   addi r0, r0, 1\n    wdec 4\n    wdec 4\n    wdec 4\n    jmp main\n",
    )
    .expect("spill program assembles");
    assert_dispatch_equivalent(
        "spill_at_block_end",
        true,
        |dispatch| {
            // A window file barely deeper than one visible window: the
            // winc ladder crosses the spill threshold every iteration.
            let config = MachineConfig::disc1()
                .with_streams(1)
                .with_window_depth(12)
                .with_dispatch_mode(dispatch);
            Machine::new(config, &program)
        },
        |m| {
            m.run(30_000).expect("spill run");
            // The scenario is only meaningful if the window actually
            // spilled (in both runs — drive executes on each machine).
            assert!(
                m.stats().spill_stall_cycles[0] > 0,
                "spill workload never spilled"
            );
        },
    );
}

/// Boundary (c): a fault plan wedges the peripheral inside what would be
/// a block; the ABI timeout path (abort + bus-error interrupt) must be
/// cycle-identical.
#[test]
fn fault_plan_window_inside_block_matches() {
    let program = Program::assemble(
        ".stream 0, a\n\
         a: lui r0, 0x80\nla: addi r1, r1, 1\n    addi r2, r2, 1\n    ld r3, [r0]\n    jmp la\n",
    )
    .expect("fault program assembles");
    assert_dispatch_equivalent(
        "fault_plan_window",
        true,
        |dispatch| {
            let mut bus = PeripheralBus::new();
            bus.map(0x8000, 16, Box::new(ExtRam::new(16, 3)))
                .expect("map device ram");
            let plan = FaultPlan::new(0xbad).stuck(
                AddrRange::new(0x8000, 0x800f),
                FaultWindow::between(2_000, 8_000),
            );
            let injector = FaultInjector::new(plan, Box::new(bus));
            let config = MachineConfig::disc1()
                .with_streams(1)
                .with_bus_fault(BusFaultPolicy::Fault)
                .with_abi_timeout(64)
                .with_dispatch_mode(dispatch);
            Machine::with_bus(config, &program, Box::new(injector))
        },
        |m| {
            m.run(20_000).expect("fault run");
        },
    );
}

/// Boundary (d): event skip and superblocks compose on the timer-idle
/// workload — quiescent stretches skip, busy stretches burst, and the
/// result is identical to legacy dispatch in the same step mode.
#[test]
fn event_skip_composes_with_superblocks() {
    let program = Program::assemble(
        ".stream 0, idle\n.vector 0, 5, isr\n\
         idle:\n    stop\n\
         isr:\n    lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n",
    )
    .expect("timer program assembles");
    for mode in [StepMode::CycleByCycle, StepMode::EventSkip] {
        assert_dispatch_equivalent(
            &format!("timer_idle_1s/{mode:?}"),
            false, // parked stream + bus-op-dense handler: blocks can't form
            |dispatch| {
                let mut bus = PeripheralBus::new();
                bus.map(0x9000, Timer::REGS, Box::new(Timer::periodic(1_000, 0, 5)))
                    .expect("map timer");
                let config = MachineConfig::disc1()
                    .with_streams(1)
                    .with_step_mode(mode)
                    .with_dispatch_mode(dispatch);
                let mut m = Machine::with_bus(config, &program, Box::new(bus));
                m.set_idle_exit(false);
                m
            },
            |m| {
                m.run(60_000).expect("timer run");
            },
        );
    }
}

/// Boundary (e): a second bus *master*. The DMA engine's word transfers
/// and arbitration stalls land at externally-scheduled cycles, so every
/// would-be block runs into a bus event; the dispatcher must hand back
/// at exactly the right cycle or the transfer cadence shifts.
#[test]
fn dma_master_traffic_matches() {
    let program = Program::assemble(
        r#"
        .stream 0, main
        .stream 1, work
        .vector 1, 5, isr
    main:
        li r0, 0x9000      ; dma register file
        li r1, 0x8000      ; source buffer
        ldi r2, 55
        st r2, [r1]
        addi r2, r2, 1
        st r2, [r1 + 1]
        st r1, [r0]        ; SRC
        li r2, 0x8020
        st r2, [r0 + 1]    ; DST
        ldi r2, 2
        st r2, [r0 + 2]    ; COUNT
        ldi r2, 1
        st r2, [r0 + 3]    ; CTRL: kick
    poll:
        ld r3, [r0 + 4]    ; DONE counter
        ld r4, [r1 + 32]   ; destination readback, contends with the engine
        jmp poll
    work:
        addi r0, r0, 1
        addi r1, r1, 1
        jmp work
    isr:
        lda r0, 0x40
        addi r0, r0, 1
        sta r0, 0x40
        reti
    "#,
    )
    .expect("dma program assembles");
    assert_dispatch_equivalent(
        "dma_master_traffic",
        false, // the polling stream issues a bus op nearly every slot
        |dispatch| {
            let engine = Shared::new(DmaEngine::new(6).with_stall(2).with_irq(1, 5));
            let mut bus = PeripheralBus::new();
            bus.map(0x8000, 0x100, Box::new(ExtRam::new(0x100, 2)))
                .expect("map ram");
            bus.map_dma(0x9000, &engine).expect("map dma");
            let config = MachineConfig::disc1()
                .with_streams(2)
                .with_dispatch_mode(dispatch);
            Machine::with_bus(config, &program, Box::new(bus))
        },
        |m| {
            m.run(20_000).expect("dma run");
        },
    );
}

/// Boundary (e'): block storage goes busy for tens of cycles per
/// command while one stream polls and another computes — the compute
/// stream's blocks must end at the poller's bus ops with identical
/// latency accounting.
#[test]
fn storage_commit_readback_matches() {
    let program = Program::assemble(
        r#"
        .stream 0, log
        .stream 1, work
    log:
        li r0, 0x9100      ; storage register file
        ldi r1, 0
        st r1, [r0 + 3]    ; PTR = 0
        ldi r2, 7
        st r2, [r0 + 4]    ; DATA (auto-incrementing)
        ldi r2, 1
        st r2, [r0 + 2]    ; LBA = 1
        ldi r2, 2
        st r2, [r0]        ; CMD: write block
    wait_w:
        ld r3, [r0 + 1]    ; STATUS
        cmpi r3, 0
        jnz wait_w
        ldi r2, 1
        st r2, [r0]        ; CMD: read block back
    wait_r:
        ld r3, [r0 + 1]
        cmpi r3, 0
        jnz wait_r
        jmp log
    work:
        addi r0, r0, 1
        addi r1, r1, 1
        jmp work
    "#,
    )
    .expect("storage program assembles");
    assert_dispatch_equivalent(
        "storage_commit_readback",
        false,
        |dispatch| {
            let mut bus = PeripheralBus::new();
            bus.map(
                0x9100,
                BlockStorage::REGS,
                Box::new(BlockStorage::new(4, 8, 24, 36)),
            )
            .expect("map storage");
            let config = MachineConfig::disc1()
                .with_streams(2)
                .with_dispatch_mode(dispatch);
            Machine::with_bus(config, &program, Box::new(bus))
        },
        |m| {
            m.run(20_000).expect("storage run");
        },
    );
}

/// Boundary (e''): packet arrivals interrupt a busy compute stream, so
/// blocks *do* form between bursts and each arrival must cut one short
/// at the exact sampler tick.
#[test]
fn packet_arrivals_cut_bursts_and_match() {
    let program = Program::assemble(
        ".stream 0, work\n.vector 0, 5, isr\n\
         work:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    jmp work\n\
         isr:\n    lui r1, 0x92\n    ld r2, [r1]\n    ld r3, [r1 + 1]\n    reti\n",
    )
    .expect("packet program assembles");
    assert_dispatch_equivalent(
        "packet_arrivals",
        true,
        |dispatch| {
            let port = PacketPort::new(7, 40, 1.5).with_capacity(8).with_irq(0, 5);
            let mut bus = PeripheralBus::new();
            bus.map(0x9200, PacketPort::REGS, Box::new(port))
                .expect("map packet port");
            let config = MachineConfig::disc1()
                .with_streams(1)
                .with_dispatch_mode(dispatch);
            Machine::with_bus(config, &program, Box::new(bus))
        },
        |m| {
            m.run(30_000).expect("packet run");
        },
    );
}

/// A decode fault surfacing from inside a burst must error at the same
/// cycle with the same fault coordinates as the legacy dispatcher.
#[test]
fn decode_fault_in_burst_matches() {
    // A burst-friendly compute prologue whose straight-line fallthrough
    // runs into an undecodable word: the fault is fetched from inside a
    // would-be superblock.
    let mut program = Program::assemble(
        ".stream 0, l0\nl0:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n    nop\n",
    )
    .expect("base assembles");
    let bad_addr = program.len() as u16;
    let bad_word = 63 << 18; // unassigned opcode
    program.set_word(bad_addr, bad_word);
    let run = |dispatch| {
        let config = MachineConfig::disc1()
            .with_streams(1)
            .with_dispatch_mode(dispatch);
        let mut m = Machine::new(config, &program);
        let err = m.run(1_000).expect_err("must fault");
        (err, m.stats().cycles, m.stats().retired[0])
    };
    let (legacy_err, legacy_cycles, legacy_retired) = run(DispatchMode::Legacy);
    let (burst_err, burst_cycles, burst_retired) = run(DispatchMode::Superblock);
    match (&legacy_err, &burst_err) {
        (
            SimError::Decode {
                stream: ls,
                pc: lp,
                word: lw,
            },
            SimError::Decode {
                stream: bs,
                pc: bp,
                word: bw,
            },
        ) => {
            assert_eq!((ls, lp, lw), (bs, bp, bw), "fault coordinates diverge");
            assert_eq!((*lp, *lw), (bad_addr, bad_word), "unexpected fault site");
        }
        other => panic!("expected decode faults, got {other:?}"),
    }
    assert_eq!(legacy_cycles, burst_cycles, "fault cycle diverges");
    assert_eq!(legacy_retired, burst_retired, "retired at fault diverges");
}

/// A per-cycle trace sink pins bursts off and yields byte-identical
/// JSONL output under either dispatcher.
#[test]
fn trace_sink_pins_bursts_and_bytes_match() {
    let program = Program::assemble(COMPUTE_2S).expect("compute program");
    let trace_bytes = |dispatch| {
        let config = MachineConfig::disc1()
            .with_streams(2)
            .with_dispatch_mode(dispatch);
        let mut m = Machine::new(config, &program);
        m.set_trace_sink(Box::new(JsonlSink::new(Vec::<u8>::new())));
        m.run(2_000).expect("traced run");
        let bursts = m.superblock_stats().bursts;
        let sink = m
            .take_trace_sink()
            .unwrap()
            .into_any()
            .downcast::<JsonlSink<Vec<u8>>>()
            .unwrap();
        let (bytes, err) = sink.into_inner();
        assert!(err.is_none(), "sink write error");
        (bytes, bursts)
    };
    let (legacy_bytes, legacy_bursts) = trace_bytes(DispatchMode::Legacy);
    let (burst_bytes, burst_bursts) = trace_bytes(DispatchMode::Superblock);
    assert_eq!(legacy_bursts, 0);
    assert_eq!(burst_bursts, 0, "a per-cycle sink must pin bursts off");
    assert!(!legacy_bytes.is_empty(), "trace must not be empty");
    assert_eq!(
        legacy_bytes, burst_bytes,
        "trace bytes diverge across dispatchers"
    );
}

/// A counters-only sampling sink does NOT pin bursts off: bursts run
/// between window boundaries (bounded by the sink's `next_observe`),
/// the boundary cycle itself is stepped and observed by the slow loop,
/// and the streamed sample bytes are identical to legacy dispatch.
#[test]
fn sampling_sink_bursts_between_window_boundaries_with_identical_samples() {
    let program = Program::assemble(COMPUTE_2S).expect("compute program");
    let sample_bytes = |dispatch| {
        let config = MachineConfig::disc1()
            .with_streams(2)
            .with_dispatch_mode(dispatch);
        let mut m = Machine::new(config, &program);
        // Counters-only (no trace framing), window boundary every 64
        // cycles: `wants_records` is false and `next_observe` returns
        // the next boundary, so bursts are bounded, not pinned off.
        let wire = std::sync::Arc::new(std::sync::Mutex::new(Vec::<u8>::new()));
        m.set_trace_sink(Box::new(disc_obs::WireSink::new(wire.clone(), 7, 64)));
        m.run(2_000).expect("sampled run");
        let bursts = m.superblock_stats().bursts;
        let sink = m
            .take_trace_sink()
            .unwrap()
            .into_any()
            .downcast::<disc_obs::WireSink<Vec<u8>>>()
            .unwrap();
        let mut sink = sink;
        assert!(sink.take_error().is_none(), "sink write error");
        drop(sink);
        let bytes = wire.lock().unwrap().clone();
        (bytes, bursts)
    };
    let (legacy_bytes, legacy_bursts) = sample_bytes(DispatchMode::Legacy);
    let (burst_bytes, burst_bursts) = sample_bytes(DispatchMode::Superblock);
    assert_eq!(legacy_bursts, 0);
    assert!(
        burst_bursts > 0,
        "a boundary-sampling sink must not pin bursts off"
    );
    assert!(!legacy_bytes.is_empty(), "samples must stream");
    assert_eq!(
        legacy_bytes, burst_bytes,
        "sample bytes diverge across dispatchers"
    );
}
