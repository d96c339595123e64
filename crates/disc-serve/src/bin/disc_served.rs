//! `disc_served` — the DISC session server.
//!
//! ```text
//! disc_served [--addr HOST:PORT] [--workers N] [--chunk CYCLES]
//!             [--chunk-latency-ms MS] [--evict-dir DIR]
//!             [--evict-after-ms MS] [--boards DIR] [--print-addr]
//! ```
//!
//! Serves the `disc-serve/v2` protocol until a client sends `shutdown`.
//! Every session is a board: `create` takes an inline `board` document,
//! or a `board_name` resolved as `<DIR>/<name>.board` under `--boards`.
//! With `--print-addr` the bound address is printed on the first stdout
//! line (for harnesses binding port 0). `--workers` defaults to
//! `DISC_JOBS`, else the machine's available parallelism.

use std::process::ExitCode;
use std::time::Duration;

use disc_serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: disc_served [--addr HOST:PORT] [--workers N] [--chunk CYCLES]\n\
         \x20                  [--chunk-latency-ms MS] [--evict-dir DIR]\n\
         \x20                  [--evict-after-ms MS] [--boards DIR] [--print-addr]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:4715".to_string();
    let mut config = ServerConfig::default();
    let mut print_addr = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--chunk" => match value("--chunk").parse() {
                Ok(n) if n > 0 => config.chunk = n,
                _ => usage(),
            },
            "--chunk-latency-ms" => match value("--chunk-latency-ms").parse() {
                // 0 disables adaptive chunk sizing entirely.
                Ok(ms) => config.chunk_latency = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--evict-dir" => config.evict_dir = value("--evict-dir").into(),
            "--boards" => config.board_dir = Some(value("--boards").into()),
            "--evict-after-ms" => match value("--evict-after-ms").parse() {
                // 0 would spin the idle sweeper with no sleep between passes.
                Ok(ms) if ms > 0 => config.evict_after = Some(Duration::from_millis(ms)),
                _ => usage(),
            },
            "--print-addr" => print_addr = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    let server = match Server::bind(&addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("disc_served: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if print_addr {
        match server.addr() {
            Ok(a) => println!("{a}"),
            Err(e) => {
                eprintln!("disc_served: local_addr: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match server.serve() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("disc_served: {e}");
            ExitCode::FAILURE
        }
    }
}
