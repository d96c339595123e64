//! The mode-equivalence suite: quiescence skips, superblock bursts and
//! snapshot/restore change *when* a stream's instructions run, never
//! *what* they compute.
//!
//! Every row of [`ROWS`] is a board (a catalog name or an inline
//! document), a horizon, a host-interrupt schedule and the fast paths
//! that must engage on it. Each row goes through
//! [`disc_bench::fuzz::check_modes`], the check the differential fuzzer
//! holds every generated program to: under each step mode, a `run`
//! fresh from cycle 0 and a `run` split at 40 % of the run's length,
//! snapshotted and restored must reach the plain `step` loop's exit and
//! final state, and the same final snapshot bytes as each other and as
//! the split head run on to the end. On top of that every row keeps:
//!
//! * per-mode attribution balance (the buckets sum to the cycles);
//! * the rendered stats, config section and config fingerprint of each
//!   mode equal to the step loop's (the run report is built from them);
//! * burst pacing independent of the step mode where no skip fired;
//! * no skip without event skip;
//! * its declared non-vacuity: skips, bursts or window spills that must
//!   engage, or the row proves nothing about that path.
//!
//! The named tests below need host handles (a UART feed) or trace or
//! sampling sinks, which a row cannot hold.

use std::cell::RefCell;
use std::collections::BTreeSet;

use disc_bench::fuzz::{check_modes, drive, step_to, MODE_COMBOS};
use disc_bench::machine_in;
use disc_board::Board;
use disc_bus::{PeripheralBus, Shared, Uart};
use disc_core::{Exit, Machine, MachineConfig, SimError, StepMode};
use disc_isa::Program;
use disc_obs::{config_fingerprint, config_json, stats_json, JsonlSink, WireSink};

/// A fast path a row must see engage.
#[derive(Clone, Copy, PartialEq)]
enum Engage {
    /// The event-skip run skips.
    Skips,
    /// The run bursts under both step modes.
    Bursts,
    /// The window file spills.
    Spills,
    /// The run ends in a decode fault.
    Faults,
}

/// One equivalence row.
struct Row {
    /// The catalog board `boards/<name>.board`, or the `name` of `doc`.
    name: &'static str,
    /// Inline board document; `None` loads the catalog board.
    doc: Option<&'static str>,
    /// Cycle the run ends at, unless the board halts first.
    end: u64,
    /// `(period, stream, bit)`: a host interrupt at every multiple of
    /// `period` below `end`, cycle 0 included.
    irq_every: Option<(u64, usize, u8)>,
    /// Fast paths that must engage.
    engages: &'static [Engage],
}

impl Row {
    fn board(&self) -> Board {
        match self.doc {
            Some(doc) => Board::parse(doc).unwrap_or_else(|e| panic!("{}: {e}", self.name)),
            None => disc_bench::board(self.name),
        }
    }

    fn irqs(&self) -> Vec<(u64, usize, u8)> {
        let Some((period, stream, bit)) = self.irq_every else {
            return Vec::new();
        };
        (0..self.end)
            .step_by(period as usize)
            .map(|cycle| (cycle, stream, bit))
            .collect()
    }

    /// [`check`] over the row's board.
    fn check(&self) -> Result<Result<Exit, SimError>, Vec<String>> {
        let board = self.board();
        let build = |step| machine_in(&board, step);
        check(build, self.end, &self.irqs(), self.engages)
    }
}

const NONE: &[Engage] = &[];
const SKIPS: &[Engage] = &[Engage::Skips];
const BURSTS: &[Engage] = &[Engage::Bursts];

/// Runs the plain `step` loop to `end`, holds `run` under each step mode
/// to it through [`check_modes`] with the split at 40 % of the step
/// loop's length, then applies the suite's own checks. Returns the step
/// loop's exit.
fn check(
    build: impl Fn(StepMode) -> Machine,
    end: u64,
    irqs: &[(u64, usize, u8)],
    engages: &[Engage],
) -> Result<Result<Exit, SimError>, Vec<String>> {
    let mut base = build(StepMode::CycleByCycle);
    let base_exit = step_to(&mut base, end, irqs);
    let split_at = base.cycle() * 2 / 5;
    let runs = check_modes(
        &build,
        irqs,
        end,
        Some(split_at),
        &mut base,
        &base_exit,
        &BTreeSet::new(),
    )?;

    let mut details = Vec::new();
    let mut fail = |what: String| details.push(what);
    // `MODE_COMBOS` lists `CycleByCycle` first.
    let plain_bursts = *runs[0].fresh.superblock_stats();
    for run in &runs {
        let (m, combo) = (&run.fresh, format!("{:?}", run.step));
        let (skips, bursts) = (*m.skip_stats(), *m.superblock_stats());
        if let Err(e) = m.stats().attribution.check(m.stats().cycles) {
            fail(format!("{combo}: attribution unbalanced: {e:?}"));
        }
        if stats_json(m.stats()) != stats_json(base.stats())
            || config_json(m.config()) != config_json(base.config())
            || config_fingerprint(m.config()) != config_fingerprint(base.config())
        {
            fail(format!(
                "{combo}: report sections diverge from the step loop's"
            ));
        }
        let skip_mode = run.step == StepMode::EventSkip;
        if !skip_mode && skips.skips != 0 {
            fail(format!("{combo}: skipped without event skip"));
        }
        if skip_mode && skips.skips == 0 && bursts != plain_bursts {
            fail(format!("{combo}: burst pacing depends on the step mode"));
        }
        if skip_mode
            && engages.contains(&Engage::Skips)
            && (skips.skips == 0 || skips.cycles_skipped < skips.skips)
        {
            fail(format!("{combo}: event skip never engaged ({skips:?})"));
        }
        let issues: u64 = m.stats().attribution.issue.iter().sum();
        if engages.contains(&Engage::Bursts)
            && (bursts.bursts == 0
                || bursts.burst_cycles < bursts.bursts
                || bursts.burst_issues > issues)
        {
            fail(format!("{combo}: run never burst ({bursts:?})"));
        }
    }
    if engages.contains(&Engage::Spills) && base.stats().spill_stall_cycles.iter().sum::<u64>() == 0
    {
        fail("the window never spilled".to_string());
    }
    if engages.contains(&Engage::Faults) && !matches!(base_exit, Err(SimError::Decode { .. })) {
        fail(format!(
            "the run ended {base_exit:?}, not in a decode fault"
        ));
    }
    if details.is_empty() {
        Ok(base_exit)
    } else {
        Err(details)
    }
}

/// One stream that computes between loads from a device a fault plan
/// wedges for cycles 2000..9000 (the 40 % split lands inside): under the
/// `fault` bus policy only the ABI timeout unsticks it, so the run
/// alternates quiescent waits, recovery handlers and compute bursts.
const STUCK_DEVICE: &str = r#"
[machine]
streams = 1
bus_fault = "fault"
abi_timeout = 64

[program]
source = """
.stream 0, a
a:  lui r0, 0x80
la: addi r1, r1, 1
    addi r2, r2, 1
    ld r3, [r0]
    jmp la
"""

[[peripheral]]
kind = "ext-ram"
base = 0x8000
words = 16
latency = 3

[faults]
seed = 0xbad

[[fault]]
kind = "stuck"
start = 0x8000
end = 0x800f
from = 2000
until = 9000
"#;

/// A parked stream that only runs when the watchdog bites; the handler
/// kicks the dog and parks again.
const WATCHDOG_BITE: &str = r#"
idle_exit = false

[machine]
streams = 1

[program]
source = """
.stream 0, idle
.vector 0, 7, isr
idle:
    stop
isr:
    ldi r0, 1
    lui r1, 0x90
    st r0, [r1]
    reti
"""

[[peripheral]]
kind = "watchdog"
base = 0x9000
timeout = 500
irq_stream = 0
irq_bit = 7
"#;

/// Seeded packet bursts against a parked stream: skips must land on the
/// port's sampler ticks without moving an arrival, drop or drain.
const PACKET_PARKED: &str = r#"
idle_exit = false

[machine]
streams = 1

[program]
source = """
.stream 0, idle
.vector 0, 5, isr
idle:
    stop
isr:
    lui r1, 0x92
    ld r2, [r1]
    ld r3, [r1 + 1]
    lda r0, 0x40
    addi r0, r0, 1
    sta r0, 0x40
    reti
"""

[[peripheral]]
kind = "packet"
base = 0x9200
seed = 7
interval = 40
mean = 1.5
capacity = 8
irq_stream = 0
irq_bit = 5
"#;

/// Packet arrivals interrupt the bursting stream itself, so each arrival
/// must cut a block short at the exact sampler tick.
const PACKET_CUTS_BURSTS: &str = r#"
[machine]
streams = 1

[program]
source = """
.stream 0, work
.vector 0, 5, isr
work:
    addi r0, r0, 1
    addi r1, r1, 1
    jmp work
isr:
    lui r1, 0x92
    ld r2, [r1]
    ld r3, [r1 + 1]
    reti
"""

[[peripheral]]
kind = "packet"
base = 0x9200
seed = 7
interval = 40
mean = 1.5
capacity = 8
irq_stream = 0
irq_bit = 5
"#;

/// A timer interrupt lands strictly inside one long `run` call: the bus
/// event horizon itself must stop the burst.
const TIMER_CUTS_BURSTS: &str = r#"
idle_exit = false

[machine]
streams = 1

[program]
source = """
.stream 0, work
.vector 0, 5, isr
work:
    addi r0, r0, 1
    addi r1, r1, 1
    jmp work
isr:
    lda r0, 0x40
    addi r0, r0, 1
    sta r0, 0x40
    reti
"""

[[peripheral]]
kind = "timer"
base = 0x9000
period = 700
irq_stream = 0
irq_bit = 5
"#;

/// `winc` is not burst-safe, so every block ends at a `winc` fetch, and
/// with a window file barely deeper than one window that same `winc`
/// spills: its stall accounting must match the plain step.
const SPILL_AT_BLOCK_END: &str = r#"
[machine]
streams = 1
window_depth = 12

[program]
source = """
.stream 0, main
main:
    addi r0, r0, 1
    addi r1, r1, 1
    addi r2, r2, 1
    winc 4
    addi r0, r0, 1
    addi r1, r1, 1
    winc 4
    addi r0, r0, 1
    addi r1, r1, 1
    winc 4
    addi r0, r0, 1
    wdec 4
    wdec 4
    wdec 4
    jmp main
"""
"#;

/// The figure 3.4 call/window sequence in a loop, so window-stack state
/// is mid-flight at the split (the catalog figure halts at cycle 32).
const STACK_WINDOW_LOOP: &str = r#"
[program]
source = """
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
"""
"#;

/// A burst-friendly prologue falling through into an unassigned opcode
/// (63 << 18): the decode fault is fetched from inside a would-be block,
/// and the 40 % split cuts that block at cycle 1, so the fault ends a
/// burst carried across the split.
const DECODE_FAULT: &str = r#"
[machine]
streams = 1

[program]
source = """
.stream 0, l0
l0:
    addi r0, r0, 1
    addi r1, r1, 1
    addi r2, r2, 1
    nop
    .word 0xfc0000
"""
"#;

/// Recursion eight levels deep, each level moving the window 17 words
/// past a 24-word file: every call spills for longer than the pipe takes
/// to drain, so the stream sits spill-stalled with an empty pipe while
/// host interrupts on its vectored bit land. A pending vector is
/// delivered even to a spill-stalled stream, so such a cycle is not
/// quiescent: a skip over it would delay the vector.
const SPILL_VECTOR: &str = r#"
[machine]
streams = 1
window_depth = 24

[program]
source = """
.stream 0, main
.vector 0, 5, isr
main:
    call down
    jmp main
down:
    lda r1, 0x40
    addi r1, r1, 1
    sta r1, 0x40
    cmpi r1, 8
    jz unwind
    winc 16
    call down
    wdec 16
unwind:
    lda r1, 0x40
    subi r1, r1, 1
    sta r1, 0x40
    ret
isr:
    reti
"""
"#;

const fn catalog(name: &'static str, end: u64, engages: &'static [Engage]) -> Row {
    Row {
        name,
        doc: None,
        end,
        irq_every: None,
        engages,
    }
}

const fn inline(
    name: &'static str,
    doc: &'static str,
    end: u64,
    engages: &'static [Engage],
) -> Row {
    Row {
        name,
        doc: Some(doc),
        end,
        irq_every: None,
        engages,
    }
}

const ROWS: &[Row] = &[
    catalog("compute_bound_4s", 20_000, BURSTS),
    // Taken jumps flush in-burst and must not end the block.
    catalog("branch_heavy_4s", 20_000, BURSTS),
    catalog("io_bound_2s", 20_000, NONE),
    // An external interrupt every 50 cycles: three busy streams, never
    // quiescent, with raises landing around the split.
    Row {
        irq_every: Some((50, 3, 5)),
        ..catalog("interrupt_heavy_3s", 20_000, NONE)
    },
    // Every 200 cycles: a pending vector rejects burst entry, so blocks
    // form between raises and each delivery cuts into one; a raise lands
    // exactly on the split at cycle 8000.
    Row {
        irq_every: Some((200, 3, 5)),
        ..catalog("interrupt_heavy_3s", 20_000, BURSTS)
    },
    // Parked between timer fires: skips cover the quiet stretches.
    catalog("timer_idle_1s", 60_000, SKIPS),
    // A host interrupt onto the parked stream every 333 cycles: its
    // pending vector must end quiescence before the next skip.
    Row {
        irq_every: Some((333, 0, 5)),
        ..catalog("timer_idle_1s", 60_000, SKIPS)
    },
    catalog("fig_3_1", 4_000, BURSTS),
    catalog("fig_3_2_1s", 4_000, BURSTS),
    catalog("fig_3_3", 6_000, BURSTS),
    // Halts on its own at cycle 32; the split lands at cycle 12.
    catalog("fig_3_4", 4_000, NONE),
    // The engine is a second bus master; the split lands mid-transfer.
    catalog("dma_copy_2s", 20_000, NONE),
    // Multi-cycle block commits; the split lands inside a busy window.
    catalog("storage_log_2s", 20_000, NONE),
    // The port's sampler is the only RNG: a restore that loses its state
    // diverges right after the split.
    catalog("packet_rx_2s", 30_000, NONE),
    // The latency-add window is 400..1200 and the split lands at 1000.
    catalog("faulted_io_2s", 2_500, NONE),
    inline(
        "stuck_device",
        STUCK_DEVICE,
        20_000,
        &[Engage::Skips, Engage::Bursts],
    ),
    inline("watchdog_bite", WATCHDOG_BITE, 30_000, SKIPS),
    inline("packet_parked", PACKET_PARKED, 30_000, SKIPS),
    inline("packet_cuts_bursts", PACKET_CUTS_BURSTS, 30_000, BURSTS),
    inline("timer_cuts_bursts", TIMER_CUTS_BURSTS, 40_000, BURSTS),
    inline(
        "spill_at_block_end",
        SPILL_AT_BLOCK_END,
        30_000,
        &[Engage::Bursts, Engage::Spills],
    ),
    inline("stack_window_loop", STACK_WINDOW_LOOP, 4_000, NONE),
    inline(
        "decode_fault",
        DECODE_FAULT,
        1_000,
        &[Engage::Bursts, Engage::Faults],
    ),
    Row {
        irq_every: Some((37, 0, 5)),
        ..inline(
            "spill_vector",
            SPILL_VECTOR,
            20_000,
            &[Engage::Skips, Engage::Spills],
        )
    },
];

#[test]
fn every_row_is_the_same_run_in_every_mode_and_across_a_restore() {
    let mut failed = Vec::new();
    for row in ROWS {
        if let Err(details) = row.check() {
            let irqs = row.irq_every.map(|(p, _, _)| format!(", irq every {p}"));
            failed.push(format!(
                "{} (end {}{}):\n  {}",
                row.name,
                row.end,
                irqs.unwrap_or_default(),
                details.join("\n  ")
            ));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// An IRQ storm against a bounded 4-word RX FIFO: words arrive every 5
/// cycles but each echo costs ~60 cycles of bus time, so the FIFO must
/// overflow while both streams park between interrupts. The feed lives
/// in the UART behind a host handle, which a board cannot hold.
#[test]
fn uart_storm_overflow_accounting_matches_across_modes() {
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
    // Every machine the check builds (the step loop, and each step
    // mode's fresh, split head and restored copy) runs to the end, so
    // each UART it leaves behind must hold the step loop's accounting.
    let uarts = RefCell::new(Vec::new());
    let storm = |step| {
        let uart = Shared::new(Uart::new(30).with_irq(1, 5).with_rx_capacity(4));
        uart.borrow().feed(5, words.clone());
        let mut bus = PeripheralBus::new();
        bus.map(0xb000, Uart::REGS, Box::new(uart.handle()))
            .expect("map uart");
        uarts.borrow_mut().push((step, uart));
        let config = MachineConfig::disc1().with_streams(2).with_step_mode(step);
        let mut m = Machine::with_bus(config, &program, Box::new(bus));
        m.set_idle_exit(false);
        m
    };
    let exit = check(storm, 3_000, &[], SKIPS).unwrap_or_else(|d| panic!("{}", d.join("\n")));
    assert_eq!(exit, Ok(Exit::CycleLimit));

    let uarts = uarts.into_inner();
    let accounting = |uart: &Shared<Uart>| {
        let u = uart.borrow();
        (u.transmitted().to_vec(), u.rx_overflows(), u.rx_pending())
    };
    let (base_tx, base_overflows, base_pending) = accounting(&uarts[0].1);
    assert!(base_overflows > 0, "the storm must overflow the FIFO");
    assert_eq!(
        base_tx.len() as u64 + base_overflows + base_pending as u64,
        words.len() as u64,
        "every stormed word is echoed, dropped, or still queued"
    );
    // The step loop, then a fresh, head and restored machine per mode.
    assert_eq!(uarts.len(), 1 + 3 * MODE_COMBOS.len());
    for (step, uart) in &uarts {
        assert_eq!(
            accounting(uart),
            (base_tx.clone(), base_overflows, base_pending),
            "{step:?}: UART overflow accounting depends on the fast paths"
        );
    }
}

/// [`drive`] or [`step_to`].
type Advance = fn(&mut Machine, u64, &[(u64, usize, u8)]) -> Result<Exit, SimError>;

/// A per-cycle sink sees every cycle, so it pins both fast paths off:
/// `run` under each step mode yields the plain `step` loop's JSONL bytes
/// on a parked timer board that otherwise skips, and on a compute board
/// that otherwise bursts.
#[test]
fn per_cycle_trace_sink_pins_fast_paths_off_with_identical_bytes() {
    for (name, cycles) in [("timer_idle_1s", 5_000), ("compute_bound_4s", 2_000)] {
        let board = disc_bench::board(name);
        let trace = |step, advance: Advance| {
            let mut m = machine_in(&board, step);
            m.set_trace_sink(Box::new(JsonlSink::new(Vec::<u8>::new())));
            advance(&mut m, cycles, &[]).expect("traced run");
            let engaged = (m.skip_stats().skips, m.superblock_stats().bursts);
            let sink = m.take_trace_sink().unwrap().into_any();
            let (bytes, err) = sink.downcast::<JsonlSink<Vec<u8>>>().unwrap().into_inner();
            assert!(err.is_none(), "{name}: sink write error");
            (bytes, engaged)
        };
        let (plain, _) = trace(StepMode::CycleByCycle, step_to);
        assert!(!plain.is_empty(), "{name}: trace must not be empty");
        for step in MODE_COMBOS {
            let (fast, engaged) = trace(step, drive);
            assert_eq!(
                engaged,
                (0, 0),
                "{name}/{step:?}: a per-cycle sink must pin skips and bursts off"
            );
            assert!(
                plain == fast,
                "{name}/{step:?}: trace bytes depend on the fast paths"
            );
        }
    }
}

/// A counters-only sampling sink does not pin bursts off: bursts run
/// between window boundaries (bounded by the sink's `next_observe`),
/// the boundary cycle itself is stepped and observed, and the streamed
/// sample bytes match the plain `step` loop's.
#[test]
fn sampling_sink_bursts_between_window_boundaries_with_identical_samples() {
    let board = disc_bench::board("compute_bound_4s");
    let samples = |advance: Advance| {
        let mut m = board.machine().expect("builds");
        let wire = std::sync::Arc::new(std::sync::Mutex::new(Vec::<u8>::new()));
        m.set_trace_sink(Box::new(WireSink::new(wire.clone(), 7, 64)));
        advance(&mut m, 2_000, &[]).expect("sampled run");
        let bursts = m.superblock_stats().bursts;
        let sink = m.take_trace_sink().unwrap().into_any();
        let mut sink = sink.downcast::<WireSink<Vec<u8>>>().unwrap();
        assert!(sink.take_error().is_none(), "sink write error");
        drop(sink);
        let bytes = wire.lock().unwrap().clone();
        (bytes, bursts)
    };
    let (plain, _) = samples(step_to);
    let (burst, bursts) = samples(drive);
    assert!(
        bursts > 0,
        "a boundary-sampling sink must not pin bursts off"
    );
    assert!(!plain.is_empty(), "samples must stream");
    assert!(plain == burst, "sample bytes diverge from the step loop's");
}

/// DMA contention must be *visible*: the engine moves every programmed
/// word, and the bus-master stalls show up as bus-wait attribution
/// (identical across step modes, per the `dma_copy_2s` row).
#[test]
fn dma_copy_2s_moves_words_and_stalls_streams() {
    let mut m = disc_bench::board("dma_copy_2s")
        .machine()
        .expect("dma board builds");
    drive(&mut m, 8_000, &[]).expect("dma run");
    let txn_wait: u64 = m.stats().attribution.bus_txn_wait.iter().sum();
    let free_wait: u64 = m.stats().attribution.bus_free_wait.iter().sum();
    assert!(
        txn_wait + free_wait > 0,
        "DMA board shows no bus-wait cycles at all"
    );
    assert!(
        m.stats().external_accesses > 0,
        "DMA board never touched the external bus"
    );
}

#[test]
fn every_committed_board_parses_and_builds() {
    // The whole catalog, including boards no row above names, must
    // parse, build and survive a smoke run long enough for every board
    // to reach steady state (timers fire, fault windows open, packet
    // bursts arrive).
    let mut seen = 0;
    for entry in std::fs::read_dir(disc_bench::BOARDS_DIR).expect("boards/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("board") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).expect("read board");
        let board =
            Board::parse(&text).unwrap_or_else(|e| panic!("{} parses: {e}", path.display()));
        let mut m = board
            .machine()
            .unwrap_or_else(|e| panic!("{} builds: {e}", path.display()));
        m.run(4096)
            .unwrap_or_else(|e| panic!("{} runs: {e:?}", path.display()));
        assert!(m.stats().cycles > 0, "{} made no progress", path.display());
    }
    assert!(
        seen >= 13,
        "expected at least 13 committed boards, found {seen}"
    );
}
