//! The paper's `Ps` comparator against the reference interpreter: every
//! single-stream, board-free fuzz program must end `disc-baseline` in
//! the same exit, internal memory and global registers as `disc-ref`.
//! The baseline is a different pipeline (one context, software context
//! switch on interrupts) running the same ISA, so any disagreement is a
//! baseline defect, not a timing difference.

use disc_baseline::{BaselineConfig, BaselineMachine};
use disc_bench::fuzz::{generate, GenProgram, MACHINE_CYCLES, REF_STEPS};
use disc_core::Exit;
use disc_isa::Reg;
use disc_ref::{RefConfig, RefExit, RefMachine};

/// Seeds drawn; about 38 % of them generate a single-stream program
/// without a board.
const SEEDS: u64 = 2000;

/// Compares one program on both models; mismatches come back as text.
fn divergences(gp: &GenProgram) -> Vec<String> {
    let config = BaselineConfig {
        pipeline_depth: gp.pipeline_depth,
        window_depth: gp.window_depth,
        default_ext_latency: gp.ext_latency,
        ..BaselineConfig::default()
    };
    let mut baseline = BaselineMachine::new(config, &gp.program);
    let b_exit = baseline.run(MACHINE_CYCLES);
    let mut reference = RefMachine::new(RefConfig::disc1().with_streams(1), &gp.program);
    let r_exit = reference.run(REF_STEPS);

    let mut out = Vec::new();
    if !matches!(
        (&b_exit, r_exit),
        (Ok(Exit::Halted), RefExit::Halted) | (Ok(Exit::AllIdle), RefExit::AllIdle)
    ) {
        out.push(format!("exit: baseline {b_exit:?} vs reference {r_exit:?}"));
        return out;
    }
    for (i, g) in [Reg::G0, Reg::G1, Reg::G2, Reg::G3].into_iter().enumerate() {
        if baseline.reg(g) != reference.global(i) {
            out.push(format!(
                "{g:?}: baseline {:#06x} vs reference {:#06x}",
                baseline.reg(g),
                reference.global(i)
            ));
        }
    }
    for addr in 0..reference.internal_len() as u16 {
        let (b, r) = (
            baseline.internal_memory().read(addr),
            reference.internal(addr),
        );
        if b != r {
            out.push(format!(
                "internal[{addr:#05x}]: baseline {b:#06x} vs reference {r:#06x}"
            ));
        }
    }
    out
}

#[test]
fn baseline_matches_reference_on_single_stream_fuzz_programs() {
    let mut ran = 0;
    let mut failures = Vec::new();
    for seed in 0..SEEDS {
        let gp = generate(seed);
        if gp.streams != 1 || gp.board.is_some() {
            continue;
        }
        ran += 1;
        let diffs = divergences(&gp);
        if !diffs.is_empty() {
            failures.push(format!("seed {seed:#x}: {}", diffs.join("; ")));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {ran} seeds diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(ran >= 700, "only {ran} single-stream, board-free seeds ran");
}
