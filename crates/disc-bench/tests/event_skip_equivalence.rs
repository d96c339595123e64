//! Equivalence tests for [`StepMode::EventSkip`]: fast-forwarding through
//! quiescent cycles must be architecturally invisible. Every scenario here
//! runs twice — cycle-by-cycle and event-skip — through `Machine::run`
//! (never a manual step loop) and demands identical final architectural
//! state, `MachineStats` (including per-stream `CycleAttribution`,
//! bucket for bucket), and `RunReport` content modulo the timing section.
//!
//! Coverage: the bench workloads (io_bound_2s, interrupt_heavy_3s,
//! timer_idle_1s), a stuck-peripheral fault plan under the `Fault` bus
//! policy, a watchdog-bite recovery loop, the fig_* figure workloads, a
//! seeded soak campaign, and byte-identical JSONL traces (a per-cycle
//! sink pins skipping off). Generated programs run under every mode in
//! the differential fuzzer (`disc_bench::fuzz::compare`).

use std::collections::BTreeSet;

use disc_bench::figures;
use disc_bench::fuzz::diff_machines;
use disc_bus::{
    BlockStorage, DmaEngine, ExtRam, PacketPort, PeripheralBus, Shared, Timer, Uart, Watchdog,
};
use disc_core::{BusFaultPolicy, DispatchMode, Exit, Machine, MachineConfig, StepMode};
use disc_faults::{AddrRange, FaultInjector, FaultPlan, FaultWindow};
use disc_isa::Program;
use disc_obs::{config_fingerprint, config_json, stats_json, JsonlSink};
use disc_rts::soak;

/// Runs `build`+`drive` in both step modes and asserts the results are
/// indistinguishable. `expect_skips` additionally requires that the
/// event-skip run actually fast-forwarded (otherwise the scenario proves
/// nothing about skipping).
fn assert_modes_equivalent(
    label: &str,
    expect_skips: bool,
    build: impl Fn(StepMode) -> Machine,
    drive: impl Fn(&mut Machine),
) {
    let mut cbc = build(StepMode::CycleByCycle);
    drive(&mut cbc);
    let mut skip = build(StepMode::EventSkip);
    drive(&mut skip);

    // Final state — stats (per-stream attribution included, bucket for
    // bucket), stream control state, window slots, `sp`, globals and
    // internal memory — through the fuzzer's machine differ.
    let mut details = Vec::new();
    let (streams, internal) = (cbc.stream_count(), cbc.config().internal_words as u16);
    diff_machines(
        label,
        &mut cbc,
        &mut skip,
        streams,
        internal,
        &BTreeSet::new(),
        &mut details,
    );
    assert!(
        details.is_empty(),
        "{label}: step modes diverge:\n{}",
        details.join("\n")
    );
    // The skip run's attribution buckets must still sum to its cycle count.
    skip.stats()
        .attribution
        .check(skip.stats().cycles)
        .unwrap_or_else(|e| panic!("{label}: skip-run attribution unbalanced: {e:?}"));

    // Skip accounting: the default mode never skips; the scenario's
    // quiescence expectation must hold in event-skip mode.
    assert_eq!(cbc.skip_stats().skips, 0, "{label}: default mode skipped");
    if expect_skips {
        let st = skip.skip_stats();
        assert!(st.skips > 0, "{label}: event skip never engaged");
        assert!(st.cycles_skipped >= st.skips, "{label}: skip bookkeeping");
    }

    // RunReport equivalence modulo the timing section: the config
    // fingerprint, the rendered config and the full stats tree are what
    // the report is built from.
    assert_eq!(
        config_fingerprint(cbc.config()),
        config_fingerprint(skip.config()),
        "{label}: config fingerprints diverge"
    );
    assert_eq!(
        config_json(cbc.config()),
        config_json(skip.config()),
        "{label}: config sections diverge"
    );
    assert_eq!(
        stats_json(cbc.stats()),
        stats_json(skip.stats()),
        "{label}: stats sections diverge"
    );
}

/// The catalog machine `boards/<name>.board` under step mode `mode`.
fn catalog(name: &str, mode: StepMode) -> Machine {
    disc_bench::board(name)
        .machine_with_modes(mode, DispatchMode::Superblock)
        .expect("catalog board builds")
}

#[test]
fn io_bound_2s_attribution_matches() {
    assert_modes_equivalent(
        "io_bound_2s",
        false, // the compute stream keeps a slot live every cycle
        |mode| catalog("io_bound_2s", mode),
        |m| {
            m.run(50_000).expect("io run");
        },
    );
}

#[test]
fn interrupt_heavy_3s_attribution_matches() {
    assert_modes_equivalent(
        "interrupt_heavy_3s",
        false, // three busy streams: never quiescent
        |mode| catalog("interrupt_heavy_3s", mode),
        |m| {
            // Same driver as the bench workload: an external interrupt
            // every 50 cycles, advanced through run(), not step().
            for _ in 0..400 {
                m.raise_interrupt(3, 5);
                m.run(50).expect("irq run");
            }
        },
    );
}

#[test]
fn timer_idle_quiescence_matches_and_skips() {
    assert_modes_equivalent(
        "timer_idle",
        true, // parked between timer fires: quiescence-dominated
        |mode| catalog("timer_idle_1s", mode),
        |m| {
            m.run(60_000).expect("timer run");
        },
    );
}

#[test]
fn stuck_peripheral_fault_plan_matches() {
    // One stream hammering a device that a deterministic fault plan
    // wedges mid-run; the Fault bus policy's ABI timeout is the only
    // thing that unsticks it, so the run alternates quiescent waits with
    // bursts of recovery work.
    let program = Program::assemble(
        ".stream 0, a\n\
         a: lui r0, 0x80\nla: ld r1, [r0]\n    st r1, [r0]\n    jmp la\n",
    )
    .expect("stuck program assembles");
    assert_modes_equivalent(
        "stuck_peripheral",
        true,
        |mode| {
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
                .with_step_mode(mode);
            Machine::with_bus(config, &program, Box::new(injector))
        },
        |m| {
            m.run(20_000).expect("stuck run");
        },
    );
}

#[test]
fn watchdog_bite_matches() {
    // A parked "wedged" stream that only runs when the watchdog bites;
    // the recovery handler kicks the dog and parks again, so the whole
    // run is timeout-long quiescent stretches punctuated by handlers.
    let program = Program::assemble(
        ".stream 0, idle\n.vector 0, 7, isr\n\
         idle:\n    stop\n\
         isr:\n    ldi r0, 1\n    lui r1, 0x90\n    st r0, [r1]\n    reti\n",
    )
    .expect("watchdog program assembles");
    assert_modes_equivalent(
        "watchdog_bite",
        true,
        |mode| {
            let mut bus = PeripheralBus::new();
            bus.map(0x9000, Watchdog::REGS, Box::new(Watchdog::new(500, 0, 7)))
                .expect("map watchdog");
            let config = MachineConfig::disc1().with_streams(1).with_step_mode(mode);
            let mut m = Machine::with_bus(config, &program, Box::new(bus));
            m.set_idle_exit(false);
            m
        },
        |m| {
            m.run(30_000).expect("watchdog run");
        },
    );
}

#[test]
fn uart_storm_overflow_counts_match_across_step_and_dispatch_modes() {
    // An IRQ storm against a bounded 4-word RX FIFO: words arrive every
    // 5 cycles but each echo costs ~60 cycles of bus time, so the FIFO
    // must overflow. Both streams park between interrupts, which makes
    // the run quiescence-dominated — exactly where event skipping and
    // the superblock dispatcher could plausibly mis-deliver a feed word
    // or double-count a drop. Every step × dispatch combination must
    // agree on the machine stats, the surviving words, and the overflow
    // accounting, word for word.
    let program = Program::assemble(
        r#"
        .stream 0, main
        .stream 1, idle
        .vector 1, 5, echo
    main:
        stop
    idle:
        stop
    echo:
        lui r1, 0xb0        ; uart at 0xb000
        ld  r0, [r1]        ; pop RX (30-cycle word time)
        st  r0, [r1]        ; push TX (30 more)
        reti
    "#,
    )
    .expect("uart storm program assembles");
    let words: Vec<u16> = (1..=40).collect();

    let run = |step: StepMode, dispatch: DispatchMode| {
        let uart = Shared::new(Uart::new(30).with_irq(1, 5).with_rx_capacity(4));
        uart.borrow_mut().feed(5, words.clone());
        let mut bus = PeripheralBus::new();
        bus.map(0xb000, Uart::REGS, Box::new(uart.handle()))
            .expect("map uart");
        let config = MachineConfig::disc1()
            .with_streams(2)
            .with_step_mode(step)
            .with_dispatch_mode(dispatch);
        let mut m = Machine::with_bus(config, &program, Box::new(bus));
        m.set_idle_exit(false);
        assert_eq!(m.run(3_000).expect("storm run"), Exit::CycleLimit);

        let u = uart.borrow();
        assert!(
            u.rx_overflows() > 0,
            "{step:?}/{dispatch:?}: the storm must overflow the FIFO"
        );
        assert_eq!(
            u.transmitted().len() as u64 + u.rx_overflows() + u.rx_pending() as u64,
            words.len() as u64,
            "{step:?}/{dispatch:?}: every stormed word is echoed, dropped, or still queued"
        );
        let skips = m.skip_stats().skips;
        (
            stats_json(m.stats()).render(),
            u.transmitted().to_vec(),
            u.rx_overflows(),
            u.rx_pending(),
            skips,
        )
    };

    let combos = [
        (StepMode::CycleByCycle, DispatchMode::Legacy),
        (StepMode::CycleByCycle, DispatchMode::Superblock),
        (StepMode::EventSkip, DispatchMode::Legacy),
        (StepMode::EventSkip, DispatchMode::Superblock),
    ];
    let reference = run(combos[0].0, combos[0].1);
    for (step, dispatch) in &combos[1..] {
        let got = run(*step, *dispatch);
        assert_eq!(
            got.0, reference.0,
            "{step:?}/{dispatch:?}: machine stats diverge from cycle-by-cycle/legacy"
        );
        assert_eq!(
            (&got.1, got.2, got.3),
            (&reference.1, reference.2, reference.3),
            "{step:?}/{dispatch:?}: UART overflow accounting diverges"
        );
        if *step == StepMode::EventSkip {
            assert!(
                got.4 > 0,
                "{step:?}/{dispatch:?}: a parked-stream storm must engage event skip"
            );
        }
    }
    assert_eq!(reference.4, 0, "cycle-by-cycle must never skip");
}

#[test]
fn dma_transfer_contention_matches() {
    // A DMA engine acting as a second bus master while a stream polls
    // DONE and reads the destination: master stalls, transfer-complete
    // interrupts and the engine's word cadence must all be invisible to
    // the step mode.
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
        jmp work
    isr:
        lda r0, 0x40
        addi r0, r0, 1
        sta r0, 0x40
        reti
    "#,
    )
    .expect("dma program assembles");
    assert_modes_equivalent(
        "dma_contention",
        false, // the compute stream keeps a slot live every cycle
        |mode| {
            let engine = Shared::new(DmaEngine::new(6).with_stall(2).with_irq(1, 5));
            let mut bus = PeripheralBus::new();
            bus.map(0x8000, 0x100, Box::new(ExtRam::new(0x100, 2)))
                .expect("map ram");
            bus.map_dma(0x9000, &engine).expect("map dma");
            let config = MachineConfig::disc1().with_streams(2).with_step_mode(mode);
            Machine::with_bus(config, &program, Box::new(bus))
        },
        |m| {
            m.run(20_000).expect("dma run");
        },
    );
}

#[test]
fn storage_busy_poll_matches() {
    // Block-storage commit/readback with multi-cycle op latencies; the
    // busy-poll loop spins on STATUS, so the device's countdown and the
    // poller's bus traffic interleave every cycle.
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
        jmp work
    "#,
    )
    .expect("storage program assembles");
    assert_modes_equivalent(
        "storage_busy_poll",
        false,
        |mode| {
            let mut bus = PeripheralBus::new();
            bus.map(
                0x9100,
                BlockStorage::REGS,
                Box::new(BlockStorage::new(4, 8, 24, 36)),
            )
            .expect("map storage");
            let config = MachineConfig::disc1().with_streams(2).with_step_mode(mode);
            Machine::with_bus(config, &program, Box::new(bus))
        },
        |m| {
            m.run(20_000).expect("storage run");
        },
    );
}

#[test]
fn packet_bursts_on_parked_stream_match_and_skip() {
    // Seeded Poisson packet arrivals against a parked stream: the run is
    // quiescent between bursts, so event skip must fast-forward to the
    // port's sampler ticks without perturbing a single arrival, drop, or
    // drain.
    let program = Program::assemble(
        ".stream 0, idle\n.vector 0, 5, isr\n\
         idle:\n    stop\n\
         isr:\n    lui r1, 0x92\n    ld r2, [r1]\n    ld r3, [r1 + 1]\n\
         \x20   lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n",
    )
    .expect("packet program assembles");
    assert_modes_equivalent(
        "packet_parked",
        true, // parked between sampler ticks: quiescence-dominated
        |mode| {
            let port = PacketPort::new(7, 40, 1.5).with_capacity(8).with_irq(0, 5);
            let mut bus = PeripheralBus::new();
            bus.map(0x9200, PacketPort::REGS, Box::new(port))
                .expect("map packet port");
            let config = MachineConfig::disc1().with_streams(1).with_step_mode(mode);
            let mut m = Machine::with_bus(config, &program, Box::new(bus));
            m.set_idle_exit(false);
            m
        },
        |m| {
            m.run(30_000).expect("packet run");
        },
    );
}

#[test]
fn fig_workloads_render_identically_across_modes() {
    assert_eq!(
        figures::fig_3_1_with(StepMode::CycleByCycle),
        figures::fig_3_1_with(StepMode::EventSkip),
        "fig 3.1 diverges"
    );
    assert_eq!(
        figures::fig_3_2_with(StepMode::CycleByCycle),
        figures::fig_3_2_with(StepMode::EventSkip),
        "fig 3.2 diverges"
    );
    assert_eq!(
        figures::fig_3_3_with(StepMode::CycleByCycle),
        figures::fig_3_3_with(StepMode::EventSkip),
        "fig 3.3 diverges"
    );
    assert_eq!(
        figures::fig_3_4_with(StepMode::CycleByCycle),
        figures::fig_3_4_with(StepMode::EventSkip),
        "fig 3.4 diverges"
    );
}

#[test]
fn seeded_soak_campaign_identical_across_modes() {
    let cfg = |mode| soak::SoakConfig {
        runs: 4,
        horizon: 20_000,
        step_mode: mode,
        ..soak::SoakConfig::default()
    };
    let cbc_cfg = cfg(StepMode::CycleByCycle);
    let skip_cfg = cfg(StepMode::EventSkip);
    let cbc = soak::run_campaign(&cbc_cfg);
    let skip = soak::run_campaign(&skip_cfg);
    // Verdicts, fault logs, per-run stats and the reference outcome must
    // all be identical…
    assert_eq!(cbc, skip, "soak campaigns diverge across step modes");
    // …and so must the untimed run reports (the config fingerprint
    // deliberately ignores step_mode).
    assert_eq!(
        cbc.run_report(&cbc_cfg).render(),
        skip.run_report(&skip_cfg).render(),
        "soak run reports diverge across step modes"
    );
}

#[test]
fn jsonl_trace_bytes_identical_and_sink_pins_skipping() {
    // A per-cycle sink must see every cycle, so attaching one both pins
    // skipping off and yields byte-identical trace output in either mode
    // — even on a workload that otherwise skips heavily.
    let program = Program::assemble(
        ".stream 0, idle\n.vector 0, 5, isr\n\
         idle:\n    stop\n\
         isr:\n    lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n",
    )
    .expect("timer program assembles");
    let trace_bytes = |mode| {
        let mut bus = PeripheralBus::new();
        bus.map(0x9000, Timer::REGS, Box::new(Timer::periodic(400, 0, 5)))
            .expect("map timer");
        let config = MachineConfig::disc1().with_streams(1).with_step_mode(mode);
        let mut m = Machine::with_bus(config, &program, Box::new(bus));
        m.set_idle_exit(false);
        m.set_trace_sink(Box::new(JsonlSink::new(Vec::<u8>::new())));
        m.run(5_000).expect("traced run");
        let skips = m.skip_stats().skips;
        let sink = m
            .take_trace_sink()
            .unwrap()
            .into_any()
            .downcast::<JsonlSink<Vec<u8>>>()
            .unwrap();
        let (bytes, err) = sink.into_inner();
        assert!(err.is_none(), "sink write error");
        (bytes, skips)
    };
    let (cbc_bytes, cbc_skips) = trace_bytes(StepMode::CycleByCycle);
    let (skip_bytes, skip_skips) = trace_bytes(StepMode::EventSkip);
    assert_eq!(cbc_skips, 0);
    assert_eq!(skip_skips, 0, "a per-cycle sink must pin skipping off");
    assert!(!cbc_bytes.is_empty(), "trace must not be empty");
    assert_eq!(cbc_bytes, skip_bytes, "trace bytes diverge across modes");
}
