//! The `bench_gate` surface: it takes no arguments, so any argument is
//! refused with the usage before anything is timed.

use std::process::Command;

#[test]
fn any_argument_exits_2_with_usage() {
    for args in [&["--check"][..], &["--help"], &["compute_bound_4s", "7"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
            .args(args)
            .output()
            .expect("spawn bench_gate");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: bench_gate"), "{args:?}: {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?} timed something");
    }
}
