//! No snapshot file outlives `close`: closing an evicted session deletes
//! its snapshot, and a close that lands while an eviction is still
//! writing leaves the evictor to delete what it wrote and nack the
//! `evict`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use disc_obs::Json;
use disc_serve::{Client, ServeError, Server, ServerConfig, ServerHandle};

const BOARD: &str = r#"
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

/// Binds a one-worker server evicting into its own empty directory.
fn bind(tag: &str, evict_write_delay: Option<Duration>) -> (ServerHandle, String, PathBuf) {
    let evict_dir =
        std::env::temp_dir().join(format!("disc-serve-lifecycle-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&evict_dir);
    let config = ServerConfig {
        workers: 1,
        evict_dir: evict_dir.clone(),
        evict_write_delay,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).expect("bind").spawn();
    let addr = handle.addr().to_string();
    (handle, addr, evict_dir)
}

fn shutdown(addr: &str, handle: ServerHandle) {
    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    handle.join().expect("server exits cleanly");
}

fn assert_no_snapshots(dir: &Path) {
    let left: Vec<_> = std::fs::read_dir(dir)
        .expect("evict dir exists")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "snapshot files outlived close: {left:?}");
    std::fs::remove_dir(dir).expect("remove the empty evict dir");
}

fn state(c: &mut Client, session: u64) -> String {
    let stat = c.stat(session).expect("stat");
    stat.get("state")
        .and_then(Json::as_str)
        .expect("stat state")
        .to_string()
}

#[test]
fn closing_an_evicted_session_deletes_its_snapshot() {
    let (handle, addr, dir) = bind("evict-close", None);
    let mut c = Client::connect(&addr).expect("connect");
    let session = c.create_board(BOARD, 0, false).expect("create");
    let ack = c.evict(session).expect("evict");
    let path = PathBuf::from(ack.get("path").and_then(Json::as_str).expect("path"));
    assert_eq!(path, dir.join(format!("session-{session}.snap")));
    assert!(path.exists(), "evict acked but wrote no snapshot");
    c.close(session).expect("close");
    assert!(!path.exists(), "close left the snapshot behind");
    assert_no_snapshots(&dir);
    shutdown(&addr, handle);
}

#[test]
fn close_during_an_eviction_nacks_the_evict_and_leaves_no_file() {
    let (handle, addr, dir) = bind("close-mid-evict", Some(Duration::from_millis(600)));
    let mut c = Client::connect(&addr).expect("connect");
    let session = c.create_board(BOARD, 0, false).expect("create");

    // The evict blocks its connection for the stretched write.
    let addr2 = addr.clone();
    let evictor = std::thread::spawn(move || {
        Client::connect(&addr2)
            .expect("connect evictor")
            .evict(session)
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while state(&mut c, session) != "evicting" {
        assert!(Instant::now() < deadline, "the eviction never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    c.close(session).expect("close while evicting");

    match evictor.join().expect("evictor thread") {
        Err(ServeError::Nack(msg)) => assert_eq!(msg, "session closed during eviction"),
        other => panic!("evict of a session closed mid-write: {other:?}"),
    }
    assert_no_snapshots(&dir);
    shutdown(&addr, handle);
}
