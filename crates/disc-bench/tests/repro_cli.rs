//! The `repro_all --only` surface: a selection prints exactly its
//! generators' sections of the full pass in table order, a sweep writes
//! its own run report, and an unknown name fails before touching disk.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("disc-repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro_all(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn repro_all")
}

#[test]
fn only_prints_selected_sections_in_table_order() {
    let dir = scratch("sections");
    // Given out of order on purpose: output follows the generator table.
    let out = repro_all(&dir, &["--only", "fig_3_1,table_4_1", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    let expected = format!(
        "{}\n{}\n",
        disc_stoch::tables::table_4_1(),
        disc_bench::figures::fig_3_1_interleaved_pipeline()
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn only_sweep_writes_its_run_report() {
    let dir = scratch("sweep");
    let out = repro_all(&dir, &["--only", "sweep_window", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    let report = std::fs::read_to_string(dir.join("results/sweep_window.report.json"))
        .expect("sweep_window report written");
    let doc = disc_obs::Json::parse(&report).expect("report parses");
    assert_eq!(
        doc.get("tool").and_then(|t| t.as_str()),
        Some("sweep_window")
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn only_unknown_name_exits_2_and_writes_nothing() {
    let dir = scratch("unknown");
    let out = repro_all(&dir, &["--only", "nope", "--csv", "out"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    for name in [
        "table_4_1",
        "table_4_2",
        "table_4_3",
        "sweep_jump",
        "sweep_io",
        "sweep_pipeline",
        "sweep_scheduler",
        "sweep_window",
        "fig_3_1",
        "fig_3_2",
        "fig_3_3",
        "fig_3_4",
        "fig_3_6",
        "exp_latency",
        "exp_sync",
        "ablation_scheduler",
        "cycle_attribution",
    ] {
        assert!(stderr.contains(name), "{name} not listed in {stderr:?}");
    }
    assert!(out.stdout.is_empty());
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "wrote {written:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
