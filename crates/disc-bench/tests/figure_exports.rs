//! The committed text exports under `results/` are what the figure and
//! attribution generators render today, byte for byte. `make repro`
//! rewrites them and CI's drift check catches a difference; this pins
//! the same outputs in `cargo test`, so a change that moves a simulated
//! cycle of a figure machine fails here first.

use disc_bench::{experiments, figures};

#[test]
fn text_exports_match_the_generators() {
    let exports = [
        ("fig_3_1", figures::fig_3_1_interleaved_pipeline()),
        ("fig_3_2", figures::fig_3_2_jump()),
        ("fig_3_3", figures::fig_3_3_dynamic()),
        ("fig_3_4", figures::fig_3_4_stack_window()),
        ("fig_3_6", figures::fig_3_6_block_diagram()),
        ("cycle_attribution", experiments::cycle_attribution()),
    ];
    for (name, rendered) in exports {
        let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        assert_eq!(
            rendered, committed,
            "{name} drifted from results/{name}.txt"
        );
    }
}
