//! Differential fuzzer: random DISC1 programs on the cycle-accurate
//! machine vs the `disc-ref` golden-reference interpreter.
//!
//! ```text
//! cargo run --release -p disc-bench --bin fuzz -- --seed 0 --count 1000
//! ```
//!
//! Runs the checked-in regression corpus first, then `count` fresh seeds
//! starting at `seed`, fanned out over `DISC_JOBS` workers. Each seed is
//! checked against the reference and then under every step × dispatch
//! combination, both fresh from cycle 0 and split at a mid-run snapshot
//! (`disc_bench::fuzz::compare`). On any divergence the failing program
//! is minimized and its listing printed; exit status 1 signals failure so
//! CI can gate on it.

use std::path::PathBuf;
use std::process::exit;

use disc_bench::fuzz::{self, corpus_seeds, generate, minimize, run_campaign, sparse_listing};

fn parse_u64(name: &str, value: &str) -> u64 {
    fuzz::parse_seed(value).unwrap_or_else(|_| {
        eprintln!("fuzz: invalid value for {name}: {value}");
        exit(2);
    })
}

fn read_corpus(path: &PathBuf) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("fuzz: cannot read corpus {}", path.display());
        exit(2);
    };
    corpus_seeds(&text).unwrap_or_else(|e| {
        eprintln!("fuzz: corpus {}: {e}", path.display());
        exit(2);
    })
}

fn default_corpus() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/regressions.txt")
}

fn main() {
    let mut seed: u64 = 0;
    let mut count: u64 = 1000;
    let mut corpus = Some(default_corpus());
    let mut minimize_failures = true;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = parse_u64("--seed", &v);
            }
            "--count" => {
                let v = args.next().unwrap_or_default();
                count = parse_u64("--count", &v);
            }
            "--corpus" => {
                let v = args.next().unwrap_or_default();
                corpus = Some(PathBuf::from(v));
            }
            "--no-corpus" => corpus = None,
            "--no-minimize" => minimize_failures = false,
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--seed N] [--count N] [--corpus PATH | --no-corpus] \
                     [--no-minimize]\n\
                     \n\
                     Differential fuzzing of disc-core against disc-ref. Every seed also\n\
                     runs under each step x dispatch combo, fresh and split at a\n\
                     mid-run snapshot.\n\
                     \n\
                     --seed N        first generated seed (default 0; 0x hex ok)\n\
                     --count N       number of fresh seeds to run (default 1000)\n\
                     --corpus PATH   regression seed file (default: crate's fuzz/regressions.txt)\n\
                     --no-corpus     skip the regression corpus\n\
                     --no-minimize   report divergences without shrinking them\n\
                     \n\
                     Parallelism follows DISC_JOBS (default: all cores)."
                );
                return;
            }
            other => {
                eprintln!("fuzz: unknown argument {other} (try --help)");
                exit(2);
            }
        }
    }

    let corpus_seeds = corpus.as_ref().map(read_corpus).unwrap_or_default();
    if !corpus_seeds.is_empty() {
        println!(
            "fuzz: corpus {} seeds, then {count} seeds from {seed:#x}",
            corpus_seeds.len()
        );
    } else {
        println!("fuzz: {count} seeds from {seed:#x}");
    }

    let report = run_campaign(&corpus_seeds, seed, count);
    println!(
        "fuzz: {} programs, {} reference instructions, {} divergences",
        report.programs,
        report.instructions,
        report.divergences.len()
    );

    if report.passed() {
        return;
    }
    for div in &report.divergences {
        eprint!("{div}");
        if minimize_failures {
            let gp = generate(div.seed);
            let min = minimize(&gp);
            match fuzz::compare(&min) {
                Err(final_div) => {
                    eprintln!("  minimized program ({} streams):", min.streams);
                    for line in sparse_listing(&min.program).lines() {
                        eprintln!("    {line}");
                    }
                    for d in &final_div.details {
                        eprintln!("    still differs: {d}");
                    }
                }
                Ok(_) => eprintln!(
                    "  (divergence not stable under re-run; seed {:#x})",
                    div.seed
                ),
            }
        }
        eprintln!(
            "  reproduce: cargo run -p disc-bench --bin fuzz -- --no-corpus --seed {:#x} --count 1",
            div.seed
        );
    }
    exit(1);
}
