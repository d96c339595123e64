//! The `soak` argument surface: a missing or malformed flag value, an
//! unknown argument or an empty campaign is refused with the usage and
//! exit status 2 before anything is simulated.

use std::process::Command;

#[test]
fn argument_errors_exit_2_with_usage() {
    let board = format!("{}/faulted_io_2s.board", disc_bench::BOARDS_DIR);
    let cases: [&[&str]; 8] = [
        &["--runs", "abc"],
        &["--runs"],
        &["--horizon", "0xzz"],
        &["--base-seed", "-1"],
        &["--report"],
        &["--runs", "0"],
        &["--board", &board, "--runs", "0"],
        &["--step-mode", "event-skip"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_soak"))
            .args(args)
            .output()
            .expect("spawn soak");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: soak"), "{args:?}: {stderr:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran a campaign");
    }
}
