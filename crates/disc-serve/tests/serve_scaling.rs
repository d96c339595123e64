//! Multicore scale-out tests: byte-identity across worker counts and
//! chunkings, session-table availability under slow evictions, shutdown
//! with chunks in flight, concurrent verb races against the session
//! table, and the dispatch-efficiency stats exposed over the wire.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use disc_obs::Json;
use disc_serve::{Client, ServeError, Server, ServerConfig};

/// A double-nested countdown, ~1M cycles: long enough that it spans
/// many scheduling chunks at any worker count, short enough to run
/// repeatedly.
const MEDIUM_PROGRAM: &str = r#"
    .stream 0, main
main:
    ldi r3, 25
outer:
    ldi r2, 100
mid:
    ldi r0, 130
inner:
    subi r0, r0, 1
    jnz inner
    subi r2, r2, 1
    jnz mid
    subi r3, r3, 1
    jnz outer
    sta r3, 0x30
    halt
"#;

const SHORT_PROGRAM: &str = r#"
    .stream 0, main
main:
    ldi r0, 250
loop:
    subi r0, r0, 1
    jnz loop
    sta r0, 0x20
    halt
"#;

fn bind_server(tag: &str, config: ServerConfig) -> (disc_serve::ServerHandle, String) {
    let config = ServerConfig {
        evict_dir: std::env::temp_dir()
            .join(format!("disc-serve-scale-{}-{tag}", std::process::id())),
        ..config
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

/// Runs `program` to completion and returns (done event, sample datas).
fn run_once(addr: &str, program: &str, sample_every: u64) -> (Json, Vec<String>) {
    let mut c = Client::connect(addr).expect("connect");
    let session = c
        .create(program, None, sample_every, false)
        .expect("create");
    c.run(session, 100_000_000).expect("run");
    let done = c.wait_done(session).expect("done");
    let mut samples = Vec::new();
    while let Some(e) = c.next_event() {
        if e.get("event").and_then(Json::as_str) == Some("sample")
            && e.get("session").and_then(Json::as_u64) == Some(session)
        {
            samples.push(e.get("data").expect("sample data").render());
        }
    }
    c.close(session).expect("close");
    (done, samples)
}

/// The scale-out correctness bar: the same program completes with a
/// byte-identical report, fingerprint, and sample stream no matter the
/// worker count, the chunk baseline, or whether adaptive chunk sizing
/// is active. (Simulation results must depend only on the program, never
/// on the serving schedule.)
#[test]
fn reports_and_sample_streams_are_byte_identical_across_worker_counts() {
    let variants: [(usize, u64, Duration); 3] = [
        // One worker, tiny fixed chunks (adaptation off): maximum chunking.
        (1, 1024, Duration::ZERO),
        // Four workers, default baseline, adaptation on.
        (4, 4096, Duration::from_millis(2)),
        // Eight workers, coarse baseline, generous budget: few big chunks.
        (8, 32_768, Duration::from_millis(20)),
    ];
    let mut reference: Option<(String, u64, Vec<String>)> = None;
    for (workers, chunk, chunk_latency) in variants {
        let config = ServerConfig {
            workers,
            chunk,
            chunk_latency,
            ..ServerConfig::default()
        };
        let (handle, addr) = bind_server(&format!("ident-{workers}-{chunk}"), config);
        let (done, samples) = run_once(&addr, MEDIUM_PROGRAM, 4096);
        assert_eq!(done.get("exit").and_then(Json::as_str), Some("halted"));
        let report = done.get("report").expect("report").render();
        let fingerprint = done.get("fingerprint").and_then(Json::as_u64).unwrap();
        match &reference {
            None => reference = Some((report, fingerprint, samples)),
            Some((ref_report, ref_fp, ref_samples)) => {
                assert_eq!(
                    &report, ref_report,
                    "report differs at workers={workers} chunk={chunk}"
                );
                assert_eq!(
                    fingerprint, *ref_fp,
                    "fingerprint differs at workers={workers} chunk={chunk}"
                );
                assert_eq!(
                    &samples, ref_samples,
                    "sample stream differs at workers={workers} chunk={chunk}"
                );
            }
        }
        shutdown(&addr, handle);
    }
}

/// Regression test for the sweeper/evict redesign: a slow snapshot write
/// (here stretched to 800ms by the `evict_write_delay` failpoint) must
/// not block `create`/`stat` traffic — eviction I/O happens with no
/// table or session lock held.
#[test]
fn slow_eviction_does_not_block_concurrent_creates() {
    let config = ServerConfig {
        workers: 2,
        evict_write_delay: Some(Duration::from_millis(800)),
        ..ServerConfig::default()
    };
    let (handle, addr) = bind_server("slow-evict", config);

    let mut c = Client::connect(&addr).unwrap();
    let victim = c.create(SHORT_PROGRAM, None, 0, false).expect("create");

    // Evict on a separate connection; the requesting thread blocks for
    // the duration of the (artificially slow) snapshot write.
    let addr2 = addr.clone();
    let evictor = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).expect("connect evictor");
        let started = Instant::now();
        c.evict(victim).expect("evict");
        started.elapsed()
    });

    // Give the eviction time to take the machine and enter the write.
    std::thread::sleep(Duration::from_millis(150));
    let stat = c.stat(victim).expect("stat during eviction");
    assert_eq!(stat.get("state").and_then(Json::as_str), Some("evicting"));

    // While the write is in flight, creates and stats must be fast.
    let started = Instant::now();
    for _ in 0..5 {
        let s = c.create(SHORT_PROGRAM, None, 0, false).expect("create");
        c.stat(s).expect("stat");
        c.close(s).expect("close");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "creates blocked behind a slow eviction: {elapsed:?}"
    );

    let evict_took = evictor.join().expect("evictor thread");
    assert!(
        evict_took >= Duration::from_millis(800),
        "failpoint did not engage ({evict_took:?}); the test proves nothing"
    );
    let stat = c.stat(victim).expect("stat after eviction");
    assert_eq!(stat.get("state").and_then(Json::as_str), Some("evicted"));

    shutdown(&addr, handle);
}

/// `shutdown` with chunks in flight: clients keep creating, running, and
/// evicting sessions while another connection shuts the server down.
/// Every request must end in an ack, a nack, or a clean connection end —
/// never a panic or a hung server.
#[test]
fn shutdown_with_chunks_in_flight_is_clean() {
    let config = ServerConfig {
        workers: 4,
        chunk: 1024,
        ..ServerConfig::default()
    };
    let (handle, addr) = bind_server("shutdown-stress", config);

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Any error after shutdown begins is a clean outcome (the
                // connection died mid-request); an error *before* is not.
                let mut c = match Client::connect(&addr) {
                    Ok(c) => c,
                    Err(_) => return stop.load(Ordering::SeqCst),
                };
                loop {
                    let shutting_down = stop.load(Ordering::SeqCst);
                    let result = c
                        .create(MEDIUM_PROGRAM, None, 4096, false)
                        .and_then(|session| {
                            c.run(session, 50_000_000)?;
                            c.stat(session)?;
                            if i % 2 == 0 {
                                c.pause(session)?;
                            }
                            Ok(())
                        });
                    match result {
                        Ok(()) => {}
                        Err(ServeError::Nack(_)) => {} // lifecycle race; fine
                        // Re-read: a request already in flight when the
                        // shutdown began fails after `shutting_down` was
                        // taken. `stop` is set before the shutdown is
                        // sent, so an earlier error still reads `false`.
                        Err(_) => return stop.load(Ordering::SeqCst),
                    }
                    if shutting_down {
                        return true;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        })
        .collect();

    // Let the fleet get chunks in flight, then pull the plug.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::SeqCst);
    let mut c = Client::connect(&addr).expect("connect for shutdown");
    c.shutdown().expect("shutdown acked");
    let deadline = Instant::now();
    handle.join().expect("server exits cleanly");
    assert!(
        deadline.elapsed() < Duration::from_secs(10),
        "server failed to drain in-flight chunks promptly"
    );
    for t in clients {
        assert!(
            t.join().expect("client thread must not panic"),
            "client connection died before shutdown began"
        );
    }
}

/// Like [`MEDIUM_PROGRAM`] but ~8x longer: a run that comfortably spans
/// the shutdown in the test below even on a fast host.
const LONG_PROGRAM: &str = r#"
    .stream 0, main
main:
    ldi r3, 200
outer:
    ldi r2, 100
mid:
    ldi r0, 130
inner:
    subi r0, r0, 1
    jnz inner
    subi r2, r2, 1
    jnz mid
    subi r3, r3, 1
    jnz outer
    sta r3, 0x30
    halt
"#;

/// A client whose run is interrupted by server shutdown must observe a
/// `paused` event before the connection EOFs — the shutdown park emits
/// the same terminal event a client-requested pause would, instead of
/// leaving the client blocked on a silent stream.
#[test]
fn shutdown_parks_emit_paused_events() {
    let config = ServerConfig {
        workers: 2,
        chunk: 1024,
        chunk_latency: Duration::ZERO,
        ..ServerConfig::default()
    };
    let (handle, addr) = bind_server("shutdown-paused", config);

    let mut c = Client::connect(&addr).expect("connect");
    let session = c.create(LONG_PROGRAM, None, 0, false).expect("create");
    c.run(session, 100_000_000).expect("run");

    let mut admin = Client::connect(&addr).expect("connect admin");
    admin.shutdown().expect("shutdown acked");

    let parked = c
        .wait_event(|e| {
            e.get("session").and_then(Json::as_u64) == Some(session)
                && matches!(
                    e.get("event").and_then(Json::as_str),
                    Some("paused") | Some("done")
                )
        })
        .expect("a terminal event must arrive before EOF");
    assert_eq!(
        parked.get("event").and_then(Json::as_str),
        Some("paused"),
        "run was interrupted by shutdown but no paused event arrived"
    );
    assert!(
        parked.get("cycle").and_then(Json::as_u64).is_some(),
        "paused event must carry the park cycle"
    );
    drop(c);
    handle.join().expect("server exits cleanly");
}

/// Concurrent create/evict/stat/close from many connections against the
/// session table: every ack must be internally consistent and the
/// server must survive the full barrage.
#[test]
fn concurrent_create_evict_stat_races_are_coherent() {
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let (handle, addr) = bind_server("races", config);

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                for _ in 0..25 {
                    let session = c.create(SHORT_PROGRAM, None, 64, false).expect("create");
                    c.run(session, 100_000).expect("run");
                    // Stat while (possibly) running: any phase is legal,
                    // but the ack must carry the full shape.
                    let stat = c.stat(session).expect("stat");
                    assert!(stat.get("state").and_then(Json::as_str).is_some());
                    let done = c.wait_done(session).expect("done");
                    assert_eq!(done.get("exit").and_then(Json::as_str), Some("halted"));
                    c.close(session).expect("close");

                    // A second session parked idle by a partial budget
                    // exercises the evict→resume→close path, racing other
                    // threads doing the same on their own sessions.
                    let parked = c.create(SHORT_PROGRAM, None, 64, false).expect("create");
                    c.run(parked, 128).expect("run partial");
                    let done = c.wait_done(parked).expect("budget done");
                    assert_eq!(done.get("exit").and_then(Json::as_str), Some("cycle-limit"));
                    c.evict(parked).expect("evict idle session");
                    let stat = c.stat(parked).expect("stat evicted");
                    assert_eq!(stat.get("state").and_then(Json::as_str), Some("evicted"));
                    let resumed = c.resume(parked).expect("resume evicted");
                    assert_eq!(resumed.get("state").and_then(Json::as_str), Some("paused"));
                    c.close(parked).expect("close parked");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("race thread must not panic");
    }

    shutdown(&addr, handle);
}

/// The `stat` ack and the final `done` event expose per-session dispatch
/// efficiency: superblock fast-path coverage and event-skip counters.
#[test]
fn stat_and_done_expose_dispatch_stats() {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let (handle, addr) = bind_server("dispatch-stats", config);
    let mut c = Client::connect(&addr).unwrap();

    // No sampling sink: an attached sink is a superblock hazard, so a
    // sink-free session is the one whose bursts we can assert on.
    let session = c.create(MEDIUM_PROGRAM, None, 0, false).expect("create");
    // Before any run: counters exist and are zero.
    let stat = c.stat(session).expect("stat");
    let dispatch = stat.get("dispatch").expect("stat carries dispatch stats");
    let sb = dispatch.get("superblock").expect("superblock section");
    for key in ["bursts", "burst_cycles", "burst_issues", "entry_rejects"] {
        assert_eq!(sb.get(key).and_then(Json::as_u64), Some(0), "{key} nonzero");
    }
    let skips = dispatch.get("skips").expect("skips section");
    assert_eq!(skips.get("skips").and_then(Json::as_u64), Some(0));
    assert_eq!(skips.get("cycles_skipped").and_then(Json::as_u64), Some(0));

    // Run to completion: the done event carries the final counters.
    c.run(session, 100_000_000).expect("run");
    let done = c.wait_done(session).expect("done");
    let cycles = done.get("cycles").and_then(Json::as_u64).unwrap();
    let dispatch = done.get("dispatch").expect("done carries dispatch stats");
    let sb = dispatch.get("superblock").expect("superblock section");
    let burst_cycles = sb.get("burst_cycles").and_then(Json::as_u64).unwrap();
    assert!(
        burst_cycles <= cycles,
        "superblock coverage cannot exceed the run length"
    );
    assert!(
        sb.get("bursts").and_then(Json::as_u64).unwrap() > 0,
        "a pure compute loop must hit the superblock fast path"
    );
    assert!(dispatch.get("skips").is_some());

    // After the run, stat mirrors the same counters.
    let stat = c.stat(session).expect("stat after done");
    assert_eq!(
        stat.get("dispatch").expect("dispatch after done").render(),
        dispatch.render(),
        "stat and done must agree on dispatch stats"
    );

    // An evicted session has no live machine and therefore no dispatch
    // section (stat still answers).
    let s2 = c.create(SHORT_PROGRAM, None, 0, false).expect("create");
    c.evict(s2).expect("evict");
    let stat = c.stat(s2).expect("stat evicted");
    assert_eq!(stat.get("state").and_then(Json::as_str), Some("evicted"));
    assert!(stat.get("dispatch").is_none());

    c.close(session).unwrap();
    c.close(s2).unwrap();
    shutdown(&addr, handle);
}
