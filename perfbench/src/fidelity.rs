//! Fidelity checks: a speed-up must not come from simulating something
//! different.
//!
//! Catalog boards are pinned: after the workload's fixed cycle count, a
//! fingerprint over the `stats` and `scheduler` sections of the run
//! report must equal the value recorded here. The `timing` section and
//! the dispatch counters (superblock bursts, event skips) are left out on
//! purpose: host-only work legitimately changes them. Generated timer
//! boards are checked analytically instead.

use disc_core::Machine;
use disc_obs::report::{scheduler_json, stats_json};
use disc_obs::Json;

/// Pinned fingerprints: (board, cycles, fingerprint). Regenerate with
/// `perfbench --pins` only when a change is meant to alter simulated
/// behaviour.
pub const PINS: &[(&str, u64, u64)] = &[
    ("compute_bound_4s", 200000, 0x42b163e250dc1ef6),
    ("branch_heavy_4s", 200000, 0xd562853dbb355201),
    ("fig_3_1", 200000, 0xc74b8e45f5d3972c),
    ("fig_3_3", 200000, 0xd82838af7a1dd89d),
    ("io_bound_2s", 100000, 0x09356d45847fecf1),
    ("dma_copy_2s", 100000, 0xc159354b6c23b2d4),
    ("storage_log_2s", 100000, 0xafd17712a5b1b755),
    ("packet_rx_2s", 100000, 0x3f3ec9fd956090b1),
    ("faulted_io_2s", 100000, 0xa3379b35ac5126cd),
    ("interrupt_heavy_3s", 100000, 0xe0d2fe3f4f2cf9fe),
    ("timer_idle_1s", 2000000, 0x7f8b9285de97a5fb),
];

/// Checksum over the architectural sections of the run report.
pub fn fingerprint(machine: &Machine) -> u64 {
    let doc = Json::obj([
        ("stats", stats_json(machine.stats())),
        (
            "scheduler",
            scheduler_json(
                machine.scheduler_grants(),
                machine.scheduler_reallocations(),
            ),
        ),
    ]);
    disc_snap::checksum(doc.render().as_bytes())
}

/// The pinned fingerprint of `board` at `cycles`, if any.
pub fn pinned(board: &str, cycles: u64) -> Option<u64> {
    PINS.iter()
        .find(|&&(b, c, _)| b == board && c == cycles)
        .map(|&(_, _, f)| f)
}

/// Internal-memory word stream `s`'s timer ISR increments.
pub fn isr_counter(stream: usize) -> u16 {
    0x40 + stream as u16
}

/// Interrupts a periodic timer of `period` has raised after `cycles`
/// cycles: it fires during the tick that ends each whole period.
pub fn timer_fires(period: u64, cycles: u64) -> u64 {
    cycles / period
}

/// Checks a generated timer board analytically: every stream's ISR
/// counter and vector count equal the fires its timer period implies.
pub fn check_timers(machine: &Machine, periods: &[u64]) -> Result<(), String> {
    let cycles = machine.cycle();
    for (s, &period) in periods.iter().enumerate() {
        let fires = timer_fires(period, cycles);
        let counter = machine.internal_memory().read(isr_counter(s));
        let vectors = machine.stats().vectors_taken[s];
        if u64::from(counter) != fires % 65_536 || vectors != fires {
            return Err(format!(
                "stream {s} (period {period}) after {cycles} cycles: isr counter {counter}, \
                 vectors {vectors}, expected {fires}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_board::Board;
    use disc_core::{DispatchMode, StepMode};

    fn board(name: &str) -> Board {
        let text = std::fs::read_to_string(format!("../boards/{name}.board")).unwrap();
        Board::parse(&text).unwrap()
    }

    #[test]
    fn fingerprint_ignores_timing_and_dispatch_but_catches_a_changed_stat() {
        let b = board("timer_idle_1s");
        let mut slow = b
            .machine_with_modes(StepMode::CycleByCycle, DispatchMode::Legacy)
            .unwrap();
        let mut fast = b
            .machine_with_modes(StepMode::EventSkip, DispatchMode::Superblock)
            .unwrap();
        slow.run(20_000).unwrap();
        fast.run(20_000).unwrap();
        // The modes disagree on every host-side counter ...
        assert_ne!(slow.skip_stats(), fast.skip_stats());
        let report = |m: &Machine| disc_obs::RunReport::from_machine("t", m).render();
        assert_ne!(report(&slow), report(&fast));
        // ... and agree on the architectural fingerprint.
        assert_eq!(fingerprint(&slow), fingerprint(&fast));
        // One more cycle changes a stat, and the fingerprint with it.
        slow.run(1).unwrap();
        assert_ne!(fingerprint(&slow), fingerprint(&fast));
    }

    #[test]
    fn timer_check_accepts_the_catalog_timer_and_rejects_a_wrong_period() {
        let mut m = board("timer_idle_1s").machine().unwrap();
        m.run(10_500).unwrap();
        assert_eq!(timer_fires(1000, 10_500), 10);
        assert_eq!(check_timers(&m, &[1000]), Ok(()));
        assert!(check_timers(&m, &[900]).is_err());
    }
}
