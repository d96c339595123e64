//! Board-matrix conformance suite: every committed board under `boards/`
//! is swept across {CycleByCycle, EventSkip} × {Legacy, Superblock} ×
//! {one-shot, snapshot-split} and must behave identically everywhere:
//!
//! * within one step/dispatch combo, a run split at ~40% of the horizon
//!   by a snapshot/restore cycle must end in the *same final snapshot
//!   bytes* as the uninterrupted run (chunk-boundary transparency,
//!   diagnostic counters included), and
//! * across combos, the architectural outcome — `MachineStats`,
//!   attribution bucket for bucket — must be identical, because step and
//!   dispatch modes are pure execution strategies, and
//! * burst pacing must not depend on the step mode: where event skip
//!   never fires, both step modes take the same superblock bursts.
//!
//! This is what pins the new bus citizens (DMA, block storage, packet
//! port) and faulted boards to the same invisibility contract the
//! hand-built scenarios already obey.

use std::path::PathBuf;

use disc_board::Board;
use disc_core::{DispatchMode, Exit, Machine, StepMode};
use disc_obs::stats_json;

const COMBOS: [(DispatchMode, StepMode); 4] = [
    (DispatchMode::Legacy, StepMode::CycleByCycle),
    (DispatchMode::Legacy, StepMode::EventSkip),
    (DispatchMode::Superblock, StepMode::CycleByCycle),
    (DispatchMode::Superblock, StepMode::EventSkip),
];

fn load_board(name: &str) -> Board {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../boards")
        .join(format!("{name}.board"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Board::parse(&text).unwrap_or_else(|e| panic!("{name}.board parses: {e}"))
}

/// Advances `m` to absolute cycle `target`, raising each `(cycle,
/// stream, bit)` interrupt exactly when the machine reaches its cycle.
/// Stops early (and permanently) once the machine halts — deterministic
/// regardless of how callers chunk it.
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

/// The full matrix for one board: 4 combos × {one-shot, split at 40%,
/// restored-from-snapshot}, all ending byte-identical within a combo and
/// stats-identical across combos.
fn assert_board_matrix(name: &str, horizon: u64, irqs: &[(u64, usize, u8)]) {
    let board = load_board(name);
    let mut reference_stats: Option<String> = None;
    let mut cycle_by_cycle_bursts = None;

    for (dispatch, step) in COMBOS {
        let tag = format!("{name} [{dispatch:?}/{step:?}]");
        let build = || {
            board
                .machine_with_modes(step, dispatch)
                .unwrap_or_else(|e| panic!("{tag}: board builds: {e}"))
        };

        let mut oneshot = build();
        drive(&mut oneshot, horizon, irqs);
        let final_blob = oneshot.snapshot();

        // Architectural outcome must not depend on the combo.
        let stats = stats_json(oneshot.stats()).render();
        match &reference_stats {
            None => reference_stats = Some(stats),
            Some(reference) => {
                assert_eq!(&stats, reference, "{tag}: stats diverge across combos")
            }
        }
        if dispatch == DispatchMode::Superblock {
            let bursts = *oneshot.superblock_stats();
            if step == StepMode::CycleByCycle {
                cycle_by_cycle_bursts = Some(bursts);
            } else if oneshot.skip_stats().skips == 0 {
                assert_eq!(
                    Some(bursts),
                    cycle_by_cycle_bursts,
                    "{tag}: burst pacing depends on the step mode"
                );
            }
        }

        let mut split = build();
        drive(&mut split, horizon * 2 / 5, irqs);
        let mid_blob = split.snapshot();

        let mut restored = build();
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

#[test]
fn compute_bound_4s_matrix() {
    assert_board_matrix("compute_bound_4s", 6_000, &[]);
}

#[test]
fn branch_heavy_4s_matrix() {
    assert_board_matrix("branch_heavy_4s", 6_000, &[]);
}

#[test]
fn io_bound_2s_matrix() {
    assert_board_matrix("io_bound_2s", 10_000, &[]);
}

#[test]
fn interrupt_heavy_3s_matrix() {
    let irqs: Vec<(u64, usize, u8)> = (1..160).map(|i| (i * 50, 3usize, 5u8)).collect();
    assert_board_matrix("interrupt_heavy_3s", 8_000, &irqs);
}

#[test]
fn timer_idle_1s_matrix() {
    assert_board_matrix("timer_idle_1s", 12_000, &[]);
}

#[test]
fn fig_boards_matrix() {
    assert_board_matrix("fig_3_1", 4_000, &[]);
    assert_board_matrix("fig_3_2_1s", 4_000, &[]);
    assert_board_matrix("fig_3_3", 6_000, &[]);
    assert_board_matrix("fig_3_4", 4_000, &[]); // halts on its own
}

#[test]
fn dma_copy_2s_matrix() {
    // The DMA engine is a bus master: its word transfers contend with
    // stream accesses, and the split point lands mid-transfer.
    assert_board_matrix("dma_copy_2s", 8_000, &[]);
}

#[test]
fn storage_log_2s_matrix() {
    // Block commit/readback with multi-cycle op latencies; the split
    // point lands inside a busy window on most combos.
    assert_board_matrix("storage_log_2s", 8_000, &[]);
}

#[test]
fn packet_rx_2s_matrix() {
    // Seeded bursty arrivals: the port's Poisson sampler state must
    // survive the snapshot split or the tail of the run diverges.
    assert_board_matrix("packet_rx_2s", 12_000, &[]);
}

#[test]
fn faulted_io_2s_matrix() {
    // Fault window is 400..1200; a 2_500-cycle horizon puts the 40%
    // split (cycle 1_000) inside the latency-add window, so injector
    // state is live across the roundtrip.
    assert_board_matrix("faulted_io_2s", 2_500, &[]);
}

/// DMA contention must be *visible* somewhere the matrix can see it:
/// the engine moves every programmed word, and the bus-master stalls
/// show up in the machine's bus-wait attribution identically across all
/// combos (already asserted above) and nonzero (asserted here).
#[test]
fn dma_copy_2s_moves_words_and_stalls_streams() {
    let board = load_board("dma_copy_2s");
    let mut m = board.machine().expect("dma board builds");
    drive(&mut m, 8_000, &[]);
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
