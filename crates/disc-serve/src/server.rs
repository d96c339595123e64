//! The session server: accept loop, per-connection reader threads, the
//! session table, and the chunked run scheduler on the worker pool.
//!
//! The session table is one `Mutex<HashMap>` and the pool is one locked
//! FIFO queue: each lock is held for one map or queue operation, while a
//! pool job is a whole chunk of simulation. Lock order: the table lock
//! is never held while a session lock is taken — every verb clones (or
//! removes) a session's `Arc` and releases the table before locking the
//! session.
//! The wire path batches each chunk's sample lines into one write+flush
//! at the chunk boundary ([`disc_core::Machine::flush_trace_sink`]).
//! Chunk sizes adapt per session toward a wall-clock latency budget
//! ([`ServerConfig::chunk_latency`]), always rounded to the session's
//! sampling window so pause/evict stay window-aligned and the
//! byte-identity guarantees of chunk transparency hold at any chunk
//! size.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use disc_board::Board;
use disc_core::{Exit, Machine, SimError};
use disc_obs::{Json, RunReport, WireSink};
use disc_par::WorkerPool;

use crate::protocol::{ack, event, nack, CreateSource, Request, Verb, PROTOCOL};

/// Writer shared between a connection's ack path and its sessions'
/// [`WireSink`]s; every line goes out under this lock in one write.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Ceiling on adaptive chunk growth, as a multiple of the configured
/// baseline. Growth is normally stopped by the latency budget well
/// before this; the hard cap bounds pause latency even when the
/// simulator is absurdly fast relative to the budget.
const MAX_CHUNK_GROWTH: u64 = 256;

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing session chunks.
    pub workers: usize,
    /// Baseline cycles per scheduling chunk (rounded up per session to a
    /// multiple of its sampling window, so pauses and evictions land on
    /// window boundaries and the sample stream stays byte-identical
    /// across them). This is the *floor* of the adaptive range — see
    /// [`ServerConfig::chunk_latency`].
    pub chunk: u64,
    /// Per-session chunk wall-clock budget. A session's cycles-per-chunk
    /// doubles while a full chunk completes in under half this budget
    /// and halves on overshoot (never below the aligned baseline, never
    /// above `MAX_CHUNK_GROWTH`× it), so fast sessions amortize
    /// scheduling overhead while pause/stat responsiveness stays bounded
    /// by roughly this duration. `Duration::ZERO` disables adaptation
    /// (fixed baseline chunks).
    pub chunk_latency: Duration,
    /// Where evicted sessions' snapshots go.
    pub evict_dir: PathBuf,
    /// Evict sessions idle (paused or between runs) longer than this;
    /// `None` disables the sweeper.
    pub evict_after: Option<Duration>,
    /// Directory `create` resolves `board_name` operands against
    /// (`<dir>/<name>.board`); `None` rejects named boards.
    pub board_dir: Option<PathBuf>,
    /// Test failpoint: sleep this long between taking a session's
    /// machine for eviction and writing its snapshot, with **no** locks
    /// held. Exists so tests can pin that a slow eviction never blocks
    /// the session table; always `None` in production.
    pub evict_write_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: disc_par::max_jobs(),
            chunk: 4096,
            chunk_latency: Duration::from_millis(2),
            evict_dir: std::env::temp_dir().join(format!("disc-serve-{}", std::process::id())),
            evict_after: None,
            board_dir: None,
            evict_write_delay: None,
        }
    }
}

/// How far along a session's lifecycle is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Machine live, no run in progress.
    Idle,
    /// Enqueued on (or executing a chunk of) the worker pool.
    Running,
    /// Pause honored at a chunk boundary; machine live.
    Paused,
    /// Eviction in flight: the machine has been taken for snapshotting
    /// but the snapshot is not on disk yet. The snapshot write happens
    /// with no locks held, so this phase is externally observable.
    Evicting,
    /// Machine dropped; state is a snapshot on disk.
    Evicted,
    /// The run ended for good (halt, all-idle, or a simulation fault).
    Done,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Running => "running",
            Phase::Paused => "paused",
            Phase::Evicting => "evicting",
            Phase::Evicted => "evicted",
            Phase::Done => "done",
        }
    }
}

/// One managed machine and everything needed to rebuild it.
struct Session {
    id: u64,
    /// The machine (peripherals, fault plan, idle-exit policy) is
    /// rebuilt from it on evict-resume, so restored sessions get an
    /// identically-shaped bus.
    board: Board,
    sample_every: u64,
    trace: bool,
    machine: Option<Machine>,
    phase: Phase,
    /// Cycles left of the current `run` command's budget.
    remaining: u64,
    pause_requested: bool,
    /// Adaptive cycles-per-chunk; 0 until the first chunk establishes
    /// the aligned baseline. Always a multiple of the sampling window.
    chunk_cycles: u64,
    evicted_to: Option<PathBuf>,
    /// Set by `close`; tells an in-flight eviction or chunk that the
    /// session is gone from the table and should clean up after
    /// itself instead of finalizing.
    closed: bool,
    /// Last lifecycle activity, for the idle-eviction sweeper.
    touched: Instant,
    writer: SharedWriter,
}

impl Session {
    /// Rounds `cycles` up to a whole number of this session's sampling
    /// windows (so pauses/evictions land on window boundaries).
    fn aligned(&self, cycles: u64) -> u64 {
        if self.sample_every > 1 {
            cycles.max(1).next_multiple_of(self.sample_every)
        } else {
            cycles.max(1)
        }
    }

    /// Current chunk length for this session: the adaptive value, or the
    /// aligned server baseline before the first chunk has run.
    fn chunk(&self, baseline: u64) -> u64 {
        if self.chunk_cycles == 0 {
            self.aligned(baseline)
        } else {
            self.chunk_cycles
        }
    }

    /// Builds a fresh machine with no sink attached (the resume path
    /// restores state first, then attaches the sink at the restored
    /// cycle).
    fn fresh_machine(&self) -> Machine {
        self.board
            .machine()
            .expect("the board built a machine when the session was created")
    }

    fn attach_sink(&self, machine: &mut Machine) {
        if self.sample_every == 0 && !self.trace {
            return;
        }
        let every = self.sample_every.max(1);
        let sink = WireSink::resume_at(
            Arc::clone(&self.writer),
            self.id,
            every,
            machine.cycle(),
            machine.stats(),
        )
        .with_trace(self.trace);
        machine.set_trace_sink(Box::new(sink));
    }
}

struct Shared {
    /// Every live session by id. Never held while a session lock is
    /// taken: take the `Arc` out, release the table, then lock.
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    next_session: AtomicU64,
    pool: WorkerPool,
    config: ServerConfig,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn table(&self) -> MutexGuard<'_, HashMap<u64, Arc<Mutex<Session>>>> {
        self.sessions.lock().expect("session table poisoned")
    }
}

/// A bound, not-yet-serving session server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    join: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to shut down (a client must send
    /// `shutdown`).
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O error, if it died to one.
    pub fn join(self) -> io::Result<()> {
        self.join.join().expect("server thread panicked")
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) with the given tunables.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the eviction directory
    /// cannot be created.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.evict_dir)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            pool: WorkerPool::new(config.workers),
            config,
            shutdown: AtomicBool::new(false),
            addr,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (query before [`Server::serve`] when binding
    /// port 0).
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends `shutdown`. Each connection gets a
    /// reader thread; session chunks run on the shared worker pool.
    ///
    /// # Errors
    ///
    /// Returns the accept loop's I/O error, if any.
    pub fn serve(self) -> io::Result<()> {
        if let Some(every) = self.shared.config.evict_after {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("disc-serve-sweeper".into())
                .spawn(move || loop {
                    std::thread::sleep(every.min(Duration::from_millis(200)));
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    sweep_idle(&shared, every);
                })
                .expect("spawn sweeper");
        }
        for conn in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = conn?;
            // The protocol is small request/event lines; Nagle's 40ms
            // delayed-ACK interaction would dominate step latency.
            let _ = stream.set_nodelay(true);
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("disc-serve-conn".into())
                .spawn(move || serve_connection(&shared, stream))
                .expect("spawn connection thread");
        }
        // Let in-flight chunks finish before tearing the pool down.
        // Chunk jobs observe the shutdown flag and park their sessions
        // instead of re-enqueueing, so this drains promptly even with
        // long runs outstanding.
        self.shared.pool.wait_idle();
        Ok(())
    }

    /// Spawns [`Server::serve`] on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.shared.addr;
        let join = std::thread::Builder::new()
            .name("disc-serve-accept".into())
            .spawn(move || self.serve())
            .expect("spawn server thread");
        ServerHandle { addr, join }
    }
}

/// Writes one JSON value as a line through the shared writer. Renders
/// into a thread-local scratch buffer so the steady-state ack/event
/// path allocates nothing.
fn send(writer: &SharedWriter, json: &Json) {
    thread_local! {
        static SCRATCH: std::cell::RefCell<String> =
            const { std::cell::RefCell::new(String::new()) };
    }
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        json.render_into(&mut buf);
        buf.push('\n');
        let mut w = writer.lock().expect("connection writer poisoned");
        let _ = w.write_all(buf.as_bytes()).and_then(|()| w.flush());
    });
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(stream)));
    send(
        &writer,
        &Json::obj([
            ("event", Json::str("hello")),
            ("proto", Json::str(PROTOCOL)),
            ("workers", Json::U64(shared.pool.threads() as u64)),
        ]),
    );
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        // Recover the request id before parsing operands, so an operand
        // error still nacks against the right id instead of degrading to
        // an uncorrelated error event.
        let id = Json::parse(&line)
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_u64));
        let request = match Request::parse(&line) {
            Ok(r) => r,
            Err(msg) => {
                match id {
                    Some(id) => send(&writer, &nack(id, &msg)),
                    // Not even an id to correlate with: error event.
                    None => send(
                        &writer,
                        &Json::obj([("event", Json::str("error")), ("error", Json::str(msg))]),
                    ),
                }
                continue;
            }
        };
        let id = request.id;
        if matches!(request.verb, Verb::Shutdown) {
            // Ack before waking the accept loop: the moment the accept
            // loop observes the flag the process may exit (standalone
            // `disc_served`), and the ack must already be on the wire.
            send(&writer, &ack(id, Vec::new()));
            shared.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(shared.addr);
            break;
        }
        let response = dispatch(shared, &writer, request);
        match response {
            Ok(extra) => send(&writer, &ack(id, extra)),
            Err(msg) => send(&writer, &nack(id, &msg)),
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

type AckFields = Vec<(&'static str, Json)>;

fn dispatch(
    shared: &Arc<Shared>,
    writer: &SharedWriter,
    request: Request,
) -> Result<AckFields, String> {
    match request.verb {
        Verb::Ping => Ok(vec![("proto", Json::str(PROTOCOL))]),
        // Acked (before the accept loop is woken) in `serve_connection`.
        Verb::Shutdown => Ok(vec![]),
        Verb::Create {
            source,
            sample_every,
            trace,
        } => {
            // Every failure below is a nack on this request, never fatal:
            // a malformed board document must leave the server (and the
            // connection) fully serviceable.
            let (text, what) = match source {
                CreateSource::BoardDoc(text) => (text, "board".to_string()),
                CreateSource::BoardName(name) => {
                    (read_named_board(shared, &name)?, format!("board {name:?}"))
                }
            };
            let board = Board::parse(&text).map_err(|e| format!("{what}: {e}"))?;
            let mut machine = board.machine().map_err(|e| format!("{what}: {e}"))?;
            let id = shared.next_session.fetch_add(1, Ordering::SeqCst);
            let fields = vec![
                ("session", Json::U64(id)),
                ("board", Json::str(&board.name)),
            ];
            let mut s = Session {
                id,
                board,
                sample_every,
                trace,
                machine: None,
                phase: Phase::Idle,
                remaining: 0,
                pause_requested: false,
                chunk_cycles: 0,
                evicted_to: None,
                closed: false,
                touched: Instant::now(),
                writer: Arc::clone(writer),
            };
            s.attach_sink(&mut machine);
            s.machine = Some(machine);
            shared.table().insert(id, Arc::new(Mutex::new(s)));
            Ok(fields)
        }
        Verb::Run { session, cycles } => {
            let slot = lookup(shared, session)?;
            {
                let mut s = slot.lock().expect("session poisoned");
                match s.phase {
                    Phase::Running => return Err("session is already running".into()),
                    Phase::Done => return Err("session already finished".into()),
                    Phase::Evicting => return Err(EVICTING_MSG.into()),
                    Phase::Evicted => return Err("session is evicted; resume it first".into()),
                    Phase::Idle | Phase::Paused => {}
                }
                s.remaining = cycles;
                s.pause_requested = false;
                s.phase = Phase::Running;
                s.touched = Instant::now();
            }
            enqueue_chunk(shared, &slot);
            Ok(vec![("state", Json::str("running"))])
        }
        Verb::Pause { session } => {
            let slot = lookup(shared, session)?;
            let mut s = slot.lock().expect("session poisoned");
            match s.phase {
                Phase::Running => {
                    s.pause_requested = true;
                    Ok(vec![("state", Json::str("pausing"))])
                }
                phase => Ok(vec![("state", Json::str(phase.name()))]),
            }
        }
        Verb::Snapshot { session } => {
            let slot = lookup(shared, session)?;
            let s = slot.lock().expect("session poisoned");
            if s.phase == Phase::Running {
                return Err("pause the session before snapshotting".into());
            }
            if s.phase == Phase::Evicting {
                return Err(EVICTING_MSG.into());
            }
            let machine = s
                .machine
                .as_ref()
                .ok_or("session is evicted; resume it first")?;
            let bytes = machine.snapshot();
            Ok(vec![
                ("bytes", Json::U64(bytes.len() as u64)),
                ("checksum", Json::U64(disc_snap::checksum(&bytes))),
                ("cycle", Json::U64(machine.cycle())),
            ])
        }
        Verb::Evict { session } => {
            let slot = lookup(shared, session)?;
            evict_session(shared, &slot).map(|(path, bytes)| {
                vec![
                    ("path", Json::str(path.display().to_string())),
                    ("bytes", Json::U64(bytes as u64)),
                ]
            })
        }
        Verb::Resume { session } => {
            let slot = lookup(shared, session)?;
            let state;
            {
                let mut s = slot.lock().expect("session poisoned");
                match s.phase {
                    Phase::Running => return Err("session is already running".into()),
                    Phase::Done => return Err("session already finished".into()),
                    Phase::Evicting => return Err(EVICTING_MSG.into()),
                    Phase::Evicted => {
                        let path = s.evicted_to.clone().expect("evicted without a path");
                        let bytes = std::fs::read(&path)
                            .map_err(|e| format!("read snapshot {}: {e}", path.display()))?;
                        let mut machine = s.fresh_machine();
                        machine
                            .restore(&bytes)
                            .map_err(|e| format!("restore: {e}"))?;
                        s.attach_sink(&mut machine);
                        s.machine = Some(machine);
                        s.evicted_to = None;
                        let _ = std::fs::remove_file(&path);
                        s.phase = Phase::Paused;
                    }
                    Phase::Idle | Phase::Paused => {}
                }
                s.touched = Instant::now();
                if s.remaining > 0 {
                    s.pause_requested = false;
                    s.phase = Phase::Running;
                    state = "running";
                } else {
                    state = s.phase.name();
                }
            }
            if state == "running" {
                enqueue_chunk(shared, &slot);
            }
            Ok(vec![("state", Json::str(state))])
        }
        Verb::Stat { session } => {
            let slot = lookup(shared, session)?;
            let s = slot.lock().expect("session poisoned");
            let (cycle, retired) = match &s.machine {
                Some(m) => (m.cycle(), m.stats().retired_total()),
                None => (0, 0),
            };
            let mut fields = vec![
                ("state", Json::str(s.phase.name())),
                ("cycle", Json::U64(cycle)),
                ("retired", Json::U64(retired)),
                ("remaining", Json::U64(s.remaining)),
            ];
            if let Some(m) = &s.machine {
                fields.push(("dispatch", dispatch_stats_json(m)));
            }
            Ok(fields)
        }
        Verb::Close { session } => {
            let slot = shared
                .table()
                .remove(&session)
                .ok_or_else(|| format!("no such session {session}"))?;
            let mut s = slot.lock().expect("session poisoned");
            s.closed = true;
            if s.phase == Phase::Evicting {
                // An in-flight eviction owns the snapshot file it is
                // writing; it observes `closed` when it relocks and
                // removes the file itself.
            } else if let Some(path) = &s.evicted_to {
                let _ = std::fs::remove_file(path);
            }
            Ok(vec![])
        }
    }
}

const EVICTING_MSG: &str = "session eviction is in progress; retry shortly";

/// Reads `<board_dir>/<name>.board` for a `board_name` create.
fn read_named_board(shared: &Shared, name: &str) -> Result<String, String> {
    let dir = shared
        .config
        .board_dir
        .as_ref()
        .ok_or("server has no board directory; pass the document inline as \"board\"")?;
    if name.is_empty() || name.contains(['/', '\\']) || name.contains("..") || name.starts_with('.')
    {
        return Err(format!("board name {name:?} must be a bare file stem"));
    }
    let path = dir.join(format!("{name}.board"));
    let bytes = std::fs::read(&path).map_err(|e| format!("board {name:?}: {e}"))?;
    String::from_utf8(bytes).map_err(|_| format!("board {name:?}: not valid UTF-8"))
}

/// Per-session dispatch-efficiency counters for the `stat` ack and the
/// final `done` event: superblock fast-path coverage and event-skip
/// fast-forwarding. Both counter sets are snapshot-transparent (carried
/// through evict/resume) and chunk-transparent, so they are identical
/// across worker counts and chunk sizes for the same run.
fn dispatch_stats_json(machine: &Machine) -> Json {
    let sb = machine.superblock_stats();
    let skip = machine.skip_stats();
    Json::obj([
        (
            "superblock",
            Json::obj([
                ("bursts", Json::U64(sb.bursts)),
                ("burst_cycles", Json::U64(sb.burst_cycles)),
                ("burst_issues", Json::U64(sb.burst_issues)),
                ("entry_rejects", Json::U64(sb.entry_rejects)),
            ]),
        ),
        (
            "skips",
            Json::obj([
                ("skips", Json::U64(skip.skips)),
                ("cycles_skipped", Json::U64(skip.cycles_skipped)),
            ]),
        ),
    ])
}

fn lookup(shared: &Shared, session: u64) -> Result<Arc<Mutex<Session>>, String> {
    shared
        .table()
        .get(&session)
        .cloned()
        .ok_or_else(|| format!("no such session {session}"))
}

/// Snapshots a paused/idle session to disk and drops its machine.
///
/// Two-phase: the machine is *taken* under the session lock
/// ([`Phase::Evicting`]), then serialized and written with **no** locks
/// held — a slow disk stalls only this session — then the session is
/// relocked to finalize (or roll back on a write error, or clean up if
/// the session was closed mid-eviction).
fn evict_session(shared: &Shared, slot: &Arc<Mutex<Session>>) -> Result<(PathBuf, usize), String> {
    let (machine, id, prev_phase) = {
        let mut s = slot.lock().expect("session poisoned");
        match s.phase {
            Phase::Running => return Err("pause the session before evicting".into()),
            Phase::Done => return Err("session already finished".into()),
            Phase::Evicting => return Err(EVICTING_MSG.into()),
            Phase::Evicted => return Err("session is already evicted".into()),
            Phase::Idle | Phase::Paused => {}
        }
        let prev = s.phase;
        let machine = s.machine.take().ok_or("session is already evicted")?;
        s.phase = Phase::Evicting;
        (machine, s.id, prev)
    };
    // Lock-free zone: serialize and hit the disk while the table and
    // the session stay fully available to other requests.
    let bytes = machine.snapshot();
    if let Some(delay) = shared.config.evict_write_delay {
        std::thread::sleep(delay);
    }
    let path = shared.config.evict_dir.join(format!("session-{id}.snap"));
    let write_result = std::fs::write(&path, &bytes);
    let mut s = slot.lock().expect("session poisoned");
    if s.closed {
        // Closed while we were writing: the table entry is already
        // gone, so nothing can ever resume this snapshot. Drop both the
        // machine and the file.
        let _ = std::fs::remove_file(&path);
        return Err("session closed during eviction".into());
    }
    match write_result {
        Ok(()) => {
            s.evicted_to = Some(path.clone());
            s.phase = Phase::Evicted;
            s.touched = Instant::now();
            Ok((path, bytes.len()))
        }
        Err(e) => {
            s.machine = Some(machine); // eviction failed; keep serving from RAM
            s.phase = prev_phase;
            Err(format!("write snapshot {}: {e}", path.display()))
        }
    }
}

/// Background sweeper pass: evict every live session idle longer than
/// `older_than`.
///
/// Clones every session's `Arc` out under the table lock, releases it,
/// and inspects each session with `try_lock` (a session busy enough to
/// hold its lock is not idle). The snapshot write itself happens inside
/// [`evict_session`] with no locks held, so a slow disk never blocks
/// `create`/`stat`/`run` traffic.
fn sweep_idle(shared: &Shared, older_than: Duration) {
    let slots: Vec<_> = shared.table().values().cloned().collect();
    for slot in slots {
        let (id, writer) = {
            let Ok(s) = slot.try_lock() else { continue };
            let idle = matches!(s.phase, Phase::Idle | Phase::Paused);
            if !(idle && s.machine.is_some() && s.touched.elapsed() >= older_than) {
                continue;
            }
            (s.id, Arc::clone(&s.writer))
        };
        // Eligibility is re-checked under the session lock inside
        // `evict_session`; a verb that raced us simply turns this
        // into a no-op Err.
        if let Ok((path, bytes)) = evict_session(shared, &slot) {
            send(
                &writer,
                &event(
                    "evicted",
                    id,
                    [
                        ("path", Json::str(path.display().to_string())),
                        ("bytes", Json::U64(bytes as u64)),
                    ],
                ),
            );
        }
    }
}

/// Schedules one chunk of a running session at the back of the pool's
/// queue. The job re-enqueues the session after its chunk unless the
/// run ended, the budget ran out, or a pause was requested — that
/// round-robin through the queue is what lets thousands of sessions
/// share a handful of workers fairly.
fn enqueue_chunk(shared: &Arc<Shared>, slot: &Arc<Mutex<Session>>) {
    let shared2 = Arc::clone(shared);
    let slot = Arc::clone(slot);
    shared.pool.submit(move || run_chunk_job(&shared2, &slot));
}

/// Parks a running session at a chunk boundary: flips it to
/// [`Phase::Paused`] and emits the `paused` event (outside the session
/// lock, like every non-terminal event). Shared between the
/// client-requested pause path and the shutdown parks, so a client
/// blocked on its run always observes the same terminal event however
/// the run was interrupted.
fn park_paused(mut s: std::sync::MutexGuard<'_, Session>) {
    s.phase = Phase::Paused;
    s.touched = Instant::now();
    let cycle = s.machine.as_ref().map_or(0, Machine::cycle);
    let (writer, id) = (Arc::clone(&s.writer), s.id);
    drop(s);
    send(&writer, &event("paused", id, [("cycle", Json::U64(cycle))]));
}

fn run_chunk_job(shared: &Arc<Shared>, slot: &Arc<Mutex<Session>>) {
    if shared.shutdown.load(Ordering::SeqCst) {
        // Server tearing down: park at the chunk boundary already
        // reached instead of re-enqueueing, so the accept loop's
        // `wait_idle` drain completes promptly. The park emits the same
        // `paused` event a client-requested pause would — a client
        // blocked on its run's next event must see a terminal event, not
        // just the eventual connection EOF.
        let s = slot.lock().expect("session poisoned");
        if s.phase == Phase::Running {
            park_paused(s);
        }
        return;
    }
    let mut s = slot.lock().expect("session poisoned");
    if s.phase != Phase::Running || s.closed {
        return; // closed or re-commanded between enqueue and execution
    }
    if s.pause_requested {
        s.pause_requested = false;
        park_paused(s);
        return;
    }
    let intended = s.chunk(shared.config.chunk);
    let budget = intended.min(s.remaining);
    let Some(machine) = s.machine.as_mut() else {
        return; // evicted out from under us; resume re-schedules
    };
    let started = Instant::now();
    let result = machine.run_chunk(budget);
    // Batched sample lines go on the wire now, before any `paused`/
    // `done`/`error` event below can overtake them.
    machine.flush_trace_sink();
    let elapsed = started.elapsed();
    match result {
        Err(e) => {
            s.phase = Phase::Done;
            s.remaining = 0;
            let cycle = s.machine.as_ref().map_or(0, Machine::cycle);
            let (writer, id) = (Arc::clone(&s.writer), s.id);
            drop(s);
            send(
                &writer,
                &event(
                    "error",
                    id,
                    [
                        ("error", Json::str(sim_error_text(&e))),
                        ("cycle", Json::U64(cycle)),
                    ],
                ),
            );
        }
        Ok(chunk) => {
            s.remaining = s.remaining.saturating_sub(chunk.cycles.max(1));
            adapt_chunk(
                &mut s,
                &shared.config,
                intended,
                budget,
                chunk.cycles,
                elapsed,
            );
            match chunk.exit {
                Exit::Halted | Exit::AllIdle => finish_session(&mut s, chunk.exit),
                Exit::Breakpoint { .. } | Exit::CycleLimit => {
                    if s.remaining == 0 {
                        finish_budget(&mut s);
                    } else if shared.shutdown.load(Ordering::SeqCst) {
                        // Shutdown arrived mid-chunk: park instead of
                        // re-enqueueing (see top of function). Like the
                        // pre-chunk park, the client gets a `paused`
                        // event, not a silent EOF.
                        park_paused(s);
                    } else {
                        drop(s);
                        enqueue_chunk(shared, slot);
                    }
                }
            }
        }
    }
}

/// One step of latency-targeted chunk adaptation. Doubling requires a
/// *full* un-clipped chunk in under half the budget (a chunk cut short
/// by `remaining` or a breakpoint says nothing about throughput);
/// halving applies on any overshoot. The result is always aligned to
/// the sampling window, floored at the aligned baseline, and capped at
/// [`MAX_CHUNK_GROWTH`]× it.
fn adapt_chunk(
    s: &mut Session,
    config: &ServerConfig,
    intended: u64,
    budget: u64,
    ran: u64,
    elapsed: Duration,
) {
    let target = config.chunk_latency;
    if target.is_zero() {
        return;
    }
    let floor = s.aligned(config.chunk);
    let current = s.chunk(config.chunk);
    if elapsed > target {
        s.chunk_cycles = s.aligned((current / 2).max(floor));
    } else if budget == intended && ran >= budget && elapsed <= target / 2 {
        let cap = floor.saturating_mul(MAX_CHUNK_GROWTH);
        s.chunk_cycles = s.aligned(current.saturating_mul(2).min(cap));
    }
}

/// The run ended for good: emit the `done` event with the full report.
fn finish_session(s: &mut Session, exit: Exit) {
    s.phase = Phase::Done;
    s.remaining = 0;
    s.touched = Instant::now();
    let (writer, id) = (Arc::clone(&s.writer), s.id);
    let done = done_event(s, id, exit_name(exit), true);
    // Send outside the borrow of the machine but inside the session lock,
    // so no later event can overtake `done` for this session.
    send(&writer, &done);
}

/// A `run` command's budget ran dry without the machine finishing: the
/// session stays alive (a further `run` continues it), but the client
/// gets a `done`-shaped event marking this command complete.
fn finish_budget(s: &mut Session) {
    s.phase = Phase::Idle;
    s.touched = Instant::now();
    let (writer, id) = (Arc::clone(&s.writer), s.id);
    let done = done_event(s, id, "cycle-limit", false);
    send(&writer, &done);
}

/// Builds the `done` event: exit reason, elapsed cycles, dispatch
/// efficiency, the schema-versioned report, and a fingerprint over the
/// report bytes so clients can assert byte-identity without shipping
/// the report around.
fn done_event(s: &mut Session, id: u64, exit: &str, run_ended: bool) -> Json {
    let machine = s.machine.as_mut().expect("finishing session has a machine");
    // On a true run end, detach the sink: its tail flush (already
    // triggered by `Machine::run`) is final. A budget exhaustion is not
    // an end — the sink stays attached so a later `run` keeps streaming
    // the same window grid.
    if run_ended {
        if let Some(mut sink) = machine.take_trace_sink() {
            sink.finish();
        }
    }
    let report = RunReport::from_machine("disc-serve", machine).to_json();
    let fingerprint = disc_snap::checksum(report.render().as_bytes());
    event(
        "done",
        id,
        [
            ("exit", Json::str(exit)),
            ("cycles", Json::U64(machine.cycle())),
            ("dispatch", dispatch_stats_json(machine)),
            ("fingerprint", Json::U64(fingerprint)),
            ("report", report),
        ],
    )
}

fn exit_name(exit: Exit) -> &'static str {
    match exit {
        Exit::Halted => "halted",
        Exit::AllIdle => "all-idle",
        Exit::CycleLimit => "cycle-limit",
        Exit::Breakpoint { .. } => "breakpoint",
    }
}

fn sim_error_text(e: &SimError) -> String {
    format!("{e}")
}
