//! Differential-fuzzing smoke test: replays the regression corpus and a
//! fixed block of fresh seeds on every test run. The full campaign runs
//! via `make fuzz` / `make fuzz-long`; this keeps a meaningful slice of
//! it in `cargo test`.

use disc_bench::fuzz::{check_seed, corpus_seeds, generate, run_campaign, MODE_COMBOS};

/// Seeds checked by `cargo test` on every run. The fuzz binary's default
/// campaign covers 1000; CI runs that too (`make fuzz`).
const SMOKE_SEEDS: u64 = 200;

#[test]
fn regression_corpus_stays_green() {
    let seeds = corpus_seeds(include_str!("../fuzz/regressions.txt")).expect("corpus parses");
    assert!(!seeds.is_empty(), "corpus must not be empty");
    for seed in seeds {
        if let Err(div) = check_seed(seed) {
            panic!("regression seed resurfaced:\n{div}");
        }
    }
}

#[test]
fn fresh_seed_block_matches() {
    let report = run_campaign(&[], 0, SMOKE_SEEDS);
    assert_eq!(report.programs, SMOKE_SEEDS);
    assert!(report.instructions > 0);
    if !report.passed() {
        let mut msg = String::new();
        for d in &report.divergences {
            msg.push_str(&d.to_string());
        }
        panic!("{} divergences:\n{msg}", report.divergences.len());
    }
}

/// The split runs must not be vacuous: a snapshot taken after the program
/// finished would restore a done machine and check nothing.
#[test]
fn split_runs_execute_a_tail_in_both_step_modes() {
    for seed in 0..SMOKE_SEEDS {
        let coverage = check_seed(seed).unwrap_or_else(|d| panic!("{d}"));
        if coverage.cycles < 2 {
            continue;
        }
        for (tail, step) in coverage.tail_cycles.iter().zip(MODE_COMBOS) {
            assert!(
                *tail >= 1,
                "seed {seed:#x}: {step:?} ran nothing after its restore"
            );
        }
    }
}

#[test]
fn microarchitecture_knobs_are_exercised() {
    // The generator must actually vary the timing-only knobs, otherwise
    // the differential test silently loses most of its power.
    let gps: Vec<_> = (0..128).map(generate).collect();
    assert!(gps.iter().any(|g| g.schedule.is_some()), "sequence tables");
    assert!(gps.iter().any(|g| g.ext_latency == 0), "zero-latency bus");
    assert!(gps.iter().any(|g| g.ext_latency > 1), "slow bus");
    assert!(gps.iter().any(|g| g.window_depth < 64), "shallow windows");
    assert!(
        gps.iter()
            .map(|g| g.pipeline_depth)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            > 2,
        "pipeline depths"
    );
    assert!(gps.iter().any(|g| !g.exact), "cross-signal programs");
    assert!(gps.iter().any(|g| g.board.is_some()), "board-backed runs");
    assert!(gps.iter().any(|g| g.board.is_none()), "flat-bus runs");
    assert!(
        gps.iter()
            .filter_map(|g| g.board.as_deref())
            .any(|b| b.matches("[[peripheral]]").count() > 2),
        "boards with decorative peripherals beyond the two RAM banks"
    );
}

/// The corpus pins added with the board knob must actually draw it (they
/// are meaningless as peripheral-bus coverage otherwise).
#[test]
fn board_corpus_pins_draw_the_knob() {
    for seed in [0xbu64, 0x6c, 0xfa] {
        let gp = generate(seed);
        assert!(gp.board.is_some(), "seed {seed:#x} no longer draws a board");
    }
}
