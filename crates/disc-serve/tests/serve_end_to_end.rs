//! End-to-end tests of the session server over real TCP connections:
//! lifecycle verbs, streamed observability, fleet concurrency, and the
//! acceptance criterion that a paused/evicted/restored session completes
//! byte-identical to an uninterrupted one.

use std::time::{Duration, Instant};

use disc_obs::Json;
use disc_serve::{Client, ServeError, Server, ServerConfig};

/// A triple-nested countdown: ~4.8M cycles of pure compute, long enough
/// in wall time that a pause request lands mid-run, deterministic in
/// outcome.
const LONG_BOARD: &str = r#"
[program]
source = """
    .stream 0, main
main:
    ldi r3, 20
outer:
    ldi r2, 200
mid:
    ldi r0, 200
inner:
    subi r0, r0, 1
    jnz inner
    subi r2, r2, 1
    jnz mid
    subi r3, r3, 1
    jnz outer
    sta r3, 0x30
    halt
"""
"#;

/// A short countdown board for lifecycle and fleet tests.
const SHORT_BOARD: &str = r#"
[program]
source = """
    .stream 0, main
main:
    ldi r0, 250
loop:
    subi r0, r0, 1
    jnz loop
    sta r0, 0x20
    halt
"""
"#;

fn test_server(tag: &str) -> (disc_serve::ServerHandle, String) {
    let config = ServerConfig {
        workers: 4,
        chunk: 4096,
        evict_dir: std::env::temp_dir()
            .join(format!("disc-serve-test-{}-{tag}", std::process::id())),
        evict_after: None,
        board_dir: None,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).expect("bind").spawn();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn shutdown(addr: &str, handle: disc_serve::ServerHandle) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    c.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");
}

/// Runs `board` start-to-finish in one session and returns the `done`
/// event plus every streamed sample's rendered `data`.
fn run_to_done(
    client: &mut Client,
    board: &str,
    sample_every: u64,
    budget: u64,
) -> (Json, Vec<String>) {
    let session = client
        .create_board(board, sample_every, false)
        .expect("create");
    client.run(session, budget).expect("run");
    let done = client.wait_done(session).expect("done");
    let mut samples = Vec::new();
    while let Some(e) = client.next_event() {
        if e.get("event").and_then(Json::as_str) == Some("sample")
            && e.get("session").and_then(Json::as_u64) == Some(session)
        {
            samples.push(e.get("data").expect("sample data").render());
        }
    }
    client.close(session).expect("close");
    (done, samples)
}

#[test]
fn session_lifecycle_and_streamed_report() {
    let (handle, addr) = test_server("lifecycle");
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(
        c.hello().get("proto").and_then(Json::as_str),
        Some("disc-serve/v2")
    );
    c.ping().unwrap();

    let (done, samples) = run_to_done(&mut c, SHORT_BOARD, 64, 100_000);
    assert_eq!(done.get("exit").and_then(Json::as_str), Some("halted"));
    let cycles = done.get("cycles").and_then(Json::as_u64).unwrap();
    assert!(cycles > 250, "the countdown takes at least 250 cycles");
    let report = done.get("report").expect("report embedded in done");
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("disc-run-report/v3")
    );
    assert_eq!(
        report.get("tool").and_then(Json::as_str),
        Some("disc-serve")
    );
    assert!(report.get("stats").is_some());
    assert!(report.get("config").is_some());
    assert!(done.get("fingerprint").and_then(Json::as_u64).is_some());
    // The sampled windows cover the whole run: tail flush included.
    assert!(!samples.is_empty());
    let last = Json::parse(samples.last().unwrap()).unwrap();
    assert_eq!(
        last.get("cycle").and_then(Json::as_u64),
        Some(cycles - 1),
        "final sample window ends on the last cycle"
    );

    shutdown(&addr, handle);
}

#[test]
fn bad_requests_are_refused_not_fatal() {
    let (handle, addr) = test_server("badreq");
    let mut c = Client::connect(&addr).unwrap();
    // Unknown session.
    match c.run(999, 100) {
        Err(ServeError::Nack(msg)) => assert!(msg.contains("no such session")),
        other => panic!("expected nack, got {other:?}"),
    }
    // Assembly error.
    match c.create_board("[program]\nsource = \"this is not assembly\"", 0, false) {
        Err(ServeError::Nack(msg)) => assert!(msg.contains("assembly")),
        other => panic!("expected nack, got {other:?}"),
    }
    // Bad machine shape.
    match c.create_board("[machine]\nstreams = 99", 0, false) {
        Err(ServeError::Nack(msg)) => assert!(msg.contains("streams")),
        other => panic!("expected nack, got {other:?}"),
    }
    // v1's raw-assembly operand is gone; the nack points at `board`.
    match c.request("create", [("program", Json::str("halt"))]) {
        Err(ServeError::Nack(msg)) => assert!(msg.contains("\"board\""), "{msg}"),
        other => panic!("expected nack, got {other:?}"),
    }
    // The connection survives all of it.
    c.ping().unwrap();
    shutdown(&addr, handle);
}

#[test]
fn paused_evicted_restored_session_completes_byte_identical() {
    let (handle, addr) = test_server("identity");
    let sample_every = 16_384;
    let budget = 10_000_000;

    // Reference: one uninterrupted run.
    let mut c = Client::connect(&addr).unwrap();
    let (ref_done, ref_samples) = run_to_done(&mut c, LONG_BOARD, sample_every, budget);
    assert_eq!(ref_done.get("exit").and_then(Json::as_str), Some("halted"));
    let ref_fingerprint = ref_done.get("fingerprint").and_then(Json::as_u64).unwrap();

    // Same program, same budget — but paused mid-run, snapshotted,
    // evicted to disk, restored, and resumed.
    let session = c
        .create_board(LONG_BOARD, sample_every, false)
        .expect("create");
    c.run(session, budget).expect("run");
    // Let it get properly underway before interrupting. (`wait_event`
    // consumes the matching event, so keep it for the stream comparison.)
    let first_sample = c
        .wait_event(|e| e.get("event").and_then(Json::as_str) == Some("sample"))
        .expect("first sample");
    c.pause(session).expect("pause");
    let paused = c
        .wait_event(|e| {
            matches!(
                e.get("event").and_then(Json::as_str),
                Some("paused") | Some("done")
            )
        })
        .expect("paused event");
    assert_eq!(
        paused.get("event").and_then(Json::as_str),
        Some("paused"),
        "a 4.8M-cycle run must still be going when the pause lands"
    );
    let pause_cycle = paused.get("cycle").and_then(Json::as_u64).unwrap();
    assert!(
        pause_cycle.is_multiple_of(sample_every),
        "pauses land on sampling-window boundaries (cycle {pause_cycle})"
    );

    // Snapshot ack gives size + checksum; evict writes it to disk.
    let snap = c.snapshot(session).expect("snapshot");
    assert!(snap.get("bytes").and_then(Json::as_u64).unwrap() > 0);
    let evicted = c.evict(session).expect("evict");
    let path = evicted
        .get("path")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(std::path::Path::new(&path).exists(), "snapshot on disk");
    let stat = c.stat(session).expect("stat");
    assert_eq!(stat.get("state").and_then(Json::as_str), Some("evicted"));

    // Resume: restore from disk and continue the remaining budget.
    let resumed = c.resume(session).expect("resume");
    assert_eq!(resumed.get("state").and_then(Json::as_str), Some("running"));
    let done = c.wait_done(session).expect("done after resume");

    // Byte-identical completion: same exit, cycles, report fingerprint.
    assert_eq!(done.get("exit").and_then(Json::as_str), Some("halted"));
    assert_eq!(
        done.get("cycles").and_then(Json::as_u64),
        ref_done.get("cycles").and_then(Json::as_u64)
    );
    assert_eq!(
        done.get("fingerprint").and_then(Json::as_u64),
        Some(ref_fingerprint),
        "report fingerprint differs between interrupted and uninterrupted runs"
    );
    assert_eq!(
        done.get("report").unwrap().render(),
        ref_done.get("report").unwrap().render(),
        "full report must match byte for byte"
    );

    // And the streamed sample windows are the same, including across the
    // pause/evict/resume seam.
    let mut samples = vec![first_sample.get("data").expect("sample data").render()];
    while let Some(e) = c.next_event() {
        if e.get("event").and_then(Json::as_str) == Some("sample")
            && e.get("session").and_then(Json::as_u64) == Some(session)
        {
            samples.push(e.get("data").expect("sample data").render());
        }
    }
    assert_eq!(samples, ref_samples, "sample stream differs");

    c.close(session).unwrap();
    shutdown(&addr, handle);
}

#[test]
fn fleet_of_sessions_multiplexes_over_the_pool() {
    let (handle, addr) = test_server("fleet");
    let mut c = Client::connect(&addr).unwrap();
    let n = 24;
    let sessions: Vec<u64> = (0..n)
        .map(|_| c.create_board(SHORT_BOARD, 128, false).expect("create"))
        .collect();
    for &s in &sessions {
        c.run(s, 100_000).expect("run");
    }
    let mut fingerprints = Vec::new();
    for &s in &sessions {
        let done = c.wait_done(s).expect("done");
        assert_eq!(done.get("exit").and_then(Json::as_str), Some("halted"));
        fingerprints.push(done.get("fingerprint").and_then(Json::as_u64).unwrap());
    }
    // Identical machines on a contended pool finish identically no matter
    // how the OS interleaved their chunks.
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "identical sessions must produce identical reports"
    );
    for &s in &sessions {
        c.close(s).expect("close");
    }
    shutdown(&addr, handle);
}

#[test]
fn idle_sessions_are_swept_to_disk_and_restorable() {
    let config = ServerConfig {
        workers: 2,
        chunk: 1024,
        evict_dir: std::env::temp_dir()
            .join(format!("disc-serve-test-{}-sweep", std::process::id())),
        evict_after: Some(Duration::from_millis(50)),
        board_dir: None,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).expect("bind").spawn();
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    // Run a *partial* budget so the session parks in `idle` mid-program,
    // then let the sweeper notice it.
    let session = c.create_board(LONG_BOARD, 16_384, false).expect("create");
    c.run(session, 32_768).expect("run");
    let done = c.wait_done(session).expect("budget done");
    assert_eq!(done.get("exit").and_then(Json::as_str), Some("cycle-limit"));
    let evicted = c
        .wait_event(|e| e.get("event").and_then(Json::as_str) == Some("evicted"))
        .expect("sweeper evicts the idle session");
    assert_eq!(evicted.get("session").and_then(Json::as_u64), Some(session));
    let stat = c.stat(session).expect("stat");
    assert_eq!(stat.get("state").and_then(Json::as_str), Some("evicted"));

    // It comes back: restore and finish the program.
    c.resume(session).expect("resume");
    c.run(session, 10_000_000).expect("run rest");
    let done = c.wait_done(session).expect("final done");
    assert_eq!(done.get("exit").and_then(Json::as_str), Some("halted"));

    c.close(session).unwrap();
    shutdown(&addr, handle);
}

/// A self-contained board: one parked stream woken by a periodic timer,
/// counting interrupts into internal memory. `idle_exit = false` keeps
/// the session alive between fires, so runs end by budget (cycle-limit)
/// and the session can be paused/evicted/resumed at will.
const TIMER_BOARD: &str = r#"
name = "serve-timer"
idle_exit = false

[machine]
streams = 1

[program]
source = """
.stream 0, idle
.vector 0, 5, isr
idle:
    stop
isr:
    lda r0, 0x40
    addi r0, r0, 1
    sta r0, 0x40
    reti
"""

[[peripheral]]
kind = "timer"
base = 0x9000
period = 500
irq_stream = 0
irq_bit = 5
"#;

#[test]
fn board_sessions_run_and_malformed_boards_are_nacked_never_fatal() {
    let (handle, addr) = test_server("boards");
    let mut c = Client::connect(&addr).unwrap();

    // Every way a board document can be bad must nack with the parser's
    // line/field context — and leave the connection fully serviceable.
    let cases: [(&str, &str); 5] = [
        ("[machine\nstreams = 1\n", "line 1"),
        (
            "[machine]\nstreams = 1\n[[peripheral]]\nkind = \"warp-core\"\nbase = 0x9000\n",
            "unknown peripheral kind",
        ),
        (
            "[machine]\nstreams = 2\nschedule = [0, 5]\n",
            "names stream 5",
        ),
        (
            "[machine]\nstreams = 1\n\n[[peripheral]]\nkind = \"ext-ram\"\nbase = 0x8000\n\
             words = 16\nlatency = 1\n\n[[peripheral]]\nkind = \"ext-ram\"\nbase = 0x800f\n\
             words = 16\nlatency = 1\n",
            "overlaps",
        ),
        ("[machine]\nstreams = 1\n", "[program]"),
    ];
    for (doc, needle) in cases {
        match c.create_board(doc, 0, false) {
            Err(ServeError::Nack(msg)) => assert!(
                msg.contains(needle),
                "nack {msg:?} should mention {needle:?}"
            ),
            other => panic!("expected nack for {doc:?}, got {other:?}"),
        }
        c.ping().expect("server alive after bad board");
    }
    // Mixing sources is refused at the protocol layer, same guarantees.
    match c.request(
        "create",
        [
            ("board", Json::str(TIMER_BOARD)),
            ("board_name", Json::str("timer_idle_1s")),
        ],
    ) {
        Err(ServeError::Nack(msg)) => assert!(msg.contains("exactly one")),
        other => panic!("expected nack, got {other:?}"),
    }

    // And a good board runs: 5000 cycles covers ten timer fires.
    let session = c.create_board(TIMER_BOARD, 0, false).expect("create board");
    c.run(session, 5_000).expect("run");
    let done = c.wait_done(session).expect("done");
    assert_eq!(done.get("exit").and_then(Json::as_str), Some("cycle-limit"));
    assert_eq!(done.get("cycles").and_then(Json::as_u64), Some(5_000));
    c.close(session).expect("close");
    shutdown(&addr, handle);
}

#[test]
fn board_sessions_evict_and_resume_with_their_bus() {
    let (handle, addr) = test_server("board-evict");
    let mut c = Client::connect(&addr).unwrap();

    // Park the session mid-campaign: the timer is mid-countdown and the
    // interrupt counter is live in internal memory.
    let session = c.create_board(TIMER_BOARD, 0, false).expect("create board");
    c.run(session, 4_096).expect("run");
    let done = c.wait_done(session).expect("budget done");
    assert_eq!(done.get("exit").and_then(Json::as_str), Some("cycle-limit"));

    let before = c.snapshot(session).expect("snapshot before evict");
    let checksum = before.get("checksum").and_then(Json::as_u64).unwrap();
    let cycle = before.get("cycle").and_then(Json::as_u64).unwrap();

    // Evict drops the live machine; resume must rebuild the *board's*
    // bus (timer included) before restoring, or the restore would be
    // refused as a reshaped bus.
    c.evict(session).expect("evict");
    let resumed = c.resume(session).expect("resume");
    // No budget was left over, so the restored session parks as paused.
    assert_eq!(resumed.get("state").and_then(Json::as_str), Some("paused"));
    let after = c.snapshot(session).expect("snapshot after resume");
    assert_eq!(
        after.get("checksum").and_then(Json::as_u64),
        Some(checksum),
        "evict/resume must restore the board session byte-identically"
    );
    assert_eq!(after.get("cycle").and_then(Json::as_u64), Some(cycle));

    // And it keeps running correctly afterwards.
    c.run(session, 4_096).expect("run rest");
    let done = c.wait_done(session).expect("done");
    assert_eq!(done.get("cycles").and_then(Json::as_u64), Some(8_192));
    c.close(session).unwrap();
    shutdown(&addr, handle);
}

#[test]
fn board_names_resolve_against_the_server_board_dir() {
    // Point the server at the repo's committed board catalog.
    let boards = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../boards");
    let config = ServerConfig {
        board_dir: Some(boards),
        evict_dir: std::env::temp_dir()
            .join(format!("disc-serve-test-{}-named", std::process::id())),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).expect("bind").spawn();
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    // The ack names the board it resolved.
    let ack = c
        .request("create", [("board_name", Json::str("timer_idle_1s"))])
        .expect("create by name");
    assert_eq!(
        ack.get("board").and_then(Json::as_str),
        Some("timer_idle_1s")
    );
    let session = ack.get("session").and_then(Json::as_u64).unwrap();
    c.run(session, 3_000).expect("run");
    let done = c.wait_done(session).expect("done");
    assert_eq!(done.get("exit").and_then(Json::as_str), Some("cycle-limit"));
    c.close(session).unwrap();

    // Unknown names and path escapes are nacks, not file-system surprises.
    match c.create_board_named("no_such_board", 0, false) {
        Err(ServeError::Nack(msg)) => assert!(msg.contains("no_such_board")),
        other => panic!("expected nack, got {other:?}"),
    }
    match c.create_board_named("../evil", 0, false) {
        Err(ServeError::Nack(msg)) => assert!(msg.contains("bare file stem")),
        other => panic!("expected nack, got {other:?}"),
    }
    c.ping().unwrap();
    shutdown(&addr, handle);
}

#[test]
fn board_names_without_a_board_dir_are_refused() {
    let (handle, addr) = test_server("no-board-dir");
    let mut c = Client::connect(&addr).unwrap();
    match c.create_board_named("timer_idle_1s", 0, false) {
        Err(ServeError::Nack(msg)) => assert!(msg.contains("no board directory")),
        other => panic!("expected nack, got {other:?}"),
    }
    c.ping().unwrap();
    shutdown(&addr, handle);
}

#[test]
fn disc_served_refuses_a_zero_eviction_interval() {
    // `--evict-after-ms 0` would spin the idle sweeper; like
    // `--workers 0` it is a usage error (exit 2), not a server.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_disc_served"))
        .args(["--addr", "127.0.0.1:0", "--evict-after-ms", "0"])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn disc_served");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    // Only a server that kept running past the deadline is still there
    // to kill; its signal death then fails the exit-code check.
    let _ = child.kill();
    assert_eq!(child.wait().expect("wait").code(), Some(2));
}
