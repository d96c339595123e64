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
//!
//! # Session phases
//!
//! A session's lifecycle is one `Phase`, written only by `transition`.
//! Verbs, the I/O they start and chunk outcomes enter it as events. A
//! verb moves the session or is refused with the text in its cell:
//!
//! | phase \ verb | `run` | `pause` (ack `state`) | `resume` | `snapshot` | `evict` |
//! |---|---|---|---|---|---|
//! | idle | → running | `idle` | `idle` (budget 0) | ok | → evicting |
//! | running | "session is already running" | `pausing` | "session is already running" | "pause the session before snapshotting" | "pause the session before evicting" |
//! | paused | → running | `paused` | → running if budget left, else `paused` | ok | → evicting |
//! | evicting | "session eviction is in progress; retry shortly" | `evicting` | as `run` | as `run` | as `run` |
//! | evicted | "session is evicted; resume it first" | `evicted` | restore → paused, then as paused | "session is evicted; resume it first" | "session is already evicted" |
//! | done | "session already finished" | `done` | "session already finished" | ok | "session already finished" |
//!
//! `stat` and `close` are accepted in every phase. A failed eviction
//! write returns to the phase it left. `close` moves every phase to a
//! closed one that no verb reaches (the session has left the table); an
//! eviction that finds it there deletes its file, a chunk emits nothing.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use disc_board::Board;
use disc_core::{Exit, Machine};
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
    /// Where evicted sessions' snapshots go. Created by the first
    /// eviction; shutdown deletes the snapshots still there, then the
    /// directory if that leaves it empty.
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

/// What a session whose machine is in memory is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Activity {
    /// No run in progress.
    Idle,
    /// Enqueued on (or executing a chunk of) the worker pool. `pausing`
    /// once a pause is requested; it is honored at the next chunk
    /// boundary.
    Running { pausing: bool },
    /// Pause honored at a chunk boundary.
    Paused,
    /// The run ended for good (halt, all-idle, or a simulation fault).
    Done,
}

/// Where a session is in its lifecycle. Only [`transition`] writes it.
enum Phase {
    /// The machine is in memory (boxed, so a phase change moves a
    /// pointer, not the machine).
    Live(Box<Machine>, Activity),
    /// The evictor holds the machine and writes its snapshot with no lock
    /// held; a failed write returns to the activity kept here.
    Evicting(Activity),
    /// Machine dropped; its state is the snapshot file at this path.
    Evicted(PathBuf),
    /// Removed from the table by `close`, so no verb can reach it.
    Closed,
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Live(_, Activity::Idle) => "idle",
            Phase::Live(_, Activity::Running { .. }) => "running",
            Phase::Live(_, Activity::Paused) => "paused",
            Phase::Live(_, Activity::Done) => "done",
            Phase::Evicting(_) => "evicting",
            Phase::Evicted(_) => "evicted",
            Phase::Closed => "closed",
        }
    }
}

/// Something that moves a session along its lifecycle: a client verb,
/// the result of I/O a verb started, or the outcome of one chunk.
enum Event {
    /// `run` with a budget of this many cycles.
    Run(u64),
    Pause,
    Resume,
    /// Resume's snapshot read and restore produced this machine.
    Restored(Box<Machine>),
    Snapshot,
    Evict,
    /// The eviction's snapshot is on disk at this path, or its write
    /// failed and the session serves on from this machine.
    Written(Result<PathBuf, Box<Machine>>),
    Close,
    /// A chunk boundary with a pause requested or a shutdown under way.
    Park,
    /// The chunk hit a simulation error.
    Fault,
    /// The machine halted or went all-idle.
    Finished,
    /// The `run` budget is spent.
    Spent,
    /// The chunk ended with budget left: run another.
    Continue,
}

/// What the caller of [`transition`] does once an event is accepted.
enum Step {
    /// Nothing more; a verb acks with the session's state.
    Ack,
    /// A verb acks `pausing`.
    Pausing,
    /// Schedule the session's next chunk; a verb acks `running`.
    Enqueue,
    /// Ack with this snapshot of the machine.
    Snapshot { bytes: Vec<u8>, cycle: u64 },
    /// Read and restore the snapshot at this path, feed back
    /// [`Event::Restored`], then resume as a paused session.
    Restore(PathBuf),
    /// Write this machine's snapshot with no lock held, then feed back
    /// [`Event::Written`].
    Evict(Box<Machine>),
    /// Delete the session's snapshot file, if it has one.
    Close(Option<PathBuf>),
}

const EVICTING_MSG: &str = "session eviction is in progress; retry shortly";

/// The session lifecycle's one writer: moves `s` by `event`, or refuses
/// it with the wire error text and leaves the phase as it was. Every
/// accepted event but a read and an eviction's start and rollback marks
/// the session as touched, so the sweeper retries a failed eviction.
fn transition(s: &mut Session, event: Event) -> Result<Step, &'static str> {
    use Activity::{Done, Idle, Paused, Running};
    use Phase::{Closed, Evicted, Evicting, Live};
    let touches = !matches!(
        event,
        Event::Pause | Event::Snapshot | Event::Evict | Event::Written(Err(_))
    );
    let (next, result) = match (std::mem::replace(&mut s.phase, Closed), event) {
        (Closed, Event::Written(_)) => (Closed, Err("session closed during eviction")),
        (Closed, _) => (Closed, Err("session is closed")),
        // An in-flight eviction owns the file it is writing: it finds
        // the session closed when it relocks and removes the file itself.
        (Evicted(path), Event::Close) => (Closed, Ok(Step::Close(Some(path)))),
        (_, Event::Close) => (Closed, Ok(Step::Close(None))),

        (Live(m, Idle | Paused), Event::Run(cycles)) => {
            s.remaining = cycles;
            (Live(m, Running { pausing: false }), Ok(Step::Enqueue))
        }
        (Live(m, Running { .. }), Event::Pause) => {
            (Live(m, Running { pausing: true }), Ok(Step::Pausing))
        }
        (phase, Event::Pause) => (phase, Ok(Step::Ack)),
        (Live(m, Idle | Paused), Event::Resume) if s.remaining > 0 => {
            (Live(m, Running { pausing: false }), Ok(Step::Enqueue))
        }
        (Live(m, at @ (Idle | Paused)), Event::Resume) => (Live(m, at), Ok(Step::Ack)),
        (Evicted(path), Event::Resume) => (Evicted(path.clone()), Ok(Step::Restore(path))),
        (Evicted(_), Event::Restored(m)) => (Live(m, Paused), Ok(Step::Ack)),
        (Live(m, at @ (Idle | Paused | Done)), Event::Snapshot) => {
            let (bytes, cycle) = (m.snapshot(), m.cycle());
            (Live(m, at), Ok(Step::Snapshot { bytes, cycle }))
        }
        (Live(m, at @ (Idle | Paused)), Event::Evict) => (Evicting(at), Ok(Step::Evict(m))),
        (Evicting(_), Event::Written(Ok(path))) => (Evicted(path), Ok(Step::Ack)),
        (Evicting(at), Event::Written(Err(m))) => (Live(m, at), Ok(Step::Ack)),

        (Live(m, at @ Running { .. }), Event::Continue) => (Live(m, at), Ok(Step::Enqueue)),
        (Live(m, Running { .. }), Event::Park) => (Live(m, Paused), Ok(Step::Ack)),
        (Live(m, Running { .. }), Event::Fault | Event::Finished) => {
            s.remaining = 0;
            (Live(m, Done), Ok(Step::Ack))
        }
        (Live(m, Running { .. }), Event::Spent) => (Live(m, Idle), Ok(Step::Ack)),

        (phase, event) => {
            let refusal = match (&phase, event) {
                (
                    _,
                    Event::Park | Event::Fault | Event::Finished | Event::Spent | Event::Continue,
                ) => "session is not running",
                (_, Event::Written(_)) => "no eviction is in progress",
                (_, Event::Restored(_)) => "session is not evicted",
                (Evicting(_), _) => EVICTING_MSG,
                (Live(_, Running { .. }), Event::Snapshot) => {
                    "pause the session before snapshotting"
                }
                (Live(_, Running { .. }), Event::Evict) => "pause the session before evicting",
                (Live(_, Running { .. }), _) => "session is already running",
                (Evicted(_), Event::Evict) => "session is already evicted",
                (Evicted(_), _) => "session is evicted; resume it first",
                // Only a finished session is left.
                _ => "session already finished",
            };
            (phase, Err(refusal))
        }
    };
    s.phase = next;
    if touches && result.is_ok() {
        s.touched = Instant::now();
    }
    result
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
    phase: Phase,
    /// Cycles left of the current `run` command's budget.
    remaining: u64,
    /// Adaptive cycles-per-chunk; 0 until the first chunk establishes
    /// the aligned baseline. Always a multiple of the sampling window.
    chunk_cycles: u64,
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

    /// Rebuilds the machine from the board and the snapshot at `path`,
    /// attaching the sink at the restored cycle.
    fn read_snapshot(&self, path: &Path) -> Result<Machine, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("read snapshot {}: {e}", path.display()))?;
        let mut machine = self.board.machine().map_err(|e| format!("board: {e}"))?;
        machine
            .restore(&bytes)
            .map_err(|e| format!("restore: {e}"))?;
        attach_sink(
            &mut machine,
            &self.writer,
            self.id,
            self.sample_every,
            self.trace,
        );
        Ok(machine)
    }
}

/// Streams the session's sample windows (and trace, when asked) from
/// the machine's current cycle on.
fn attach_sink(machine: &mut Machine, writer: &SharedWriter, id: u64, every: u64, trace: bool) {
    if every > 0 || trace {
        let (cycle, stats) = (machine.cycle(), machine.stats());
        let sink = WireSink::resume_at(Arc::clone(writer), id, every.max(1), cycle, stats);
        machine.set_trace_sink(Box::new(sink.with_trace(trace)));
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
    /// Fails when the address cannot be bound.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
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
        // No one can resume these now. The dir goes only when empty: other
        // servers in this process may share it.
        let slots: Vec<_> = self.shared.table().values().cloned().collect();
        for slot in slots {
            if let Phase::Evicted(path) = &slot.lock().expect("session poisoned").phase {
                let _ = std::fs::remove_file(path);
            }
        }
        let _ = std::fs::remove_dir(&self.shared.config.evict_dir);
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
    let on = |session: u64, event: Event| {
        let slot = lookup(shared, session)?;
        let s = slot.lock().expect("session poisoned");
        apply(shared, &slot, s, event)
    };
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
            attach_sink(&mut machine, writer, id, sample_every, trace);
            let s = Session {
                id,
                board,
                sample_every,
                trace,
                phase: Phase::Live(Box::new(machine), Activity::Idle),
                remaining: 0,
                chunk_cycles: 0,
                touched: Instant::now(),
                writer: Arc::clone(writer),
            };
            shared.table().insert(id, Arc::new(Mutex::new(s)));
            Ok(fields)
        }
        Verb::Run { session, cycles } => on(session, Event::Run(cycles)),
        Verb::Pause { session } => on(session, Event::Pause),
        Verb::Snapshot { session } => on(session, Event::Snapshot),
        Verb::Evict { session } => on(session, Event::Evict),
        Verb::Resume { session } => on(session, Event::Resume),
        Verb::Stat { session } => {
            let slot = lookup(shared, session)?;
            let s = slot.lock().expect("session poisoned");
            let (cycle, retired, dispatch) = match &s.phase {
                Phase::Live(m, _) => (m.cycle(), m.stats().retired_total(), Some(m)),
                _ => (0, 0, None),
            };
            let mut fields = vec![
                ("state", Json::str(s.phase.name())),
                ("cycle", Json::U64(cycle)),
                ("retired", Json::U64(retired)),
                ("remaining", Json::U64(s.remaining)),
            ];
            fields.extend(dispatch.map(|m| ("dispatch", dispatch_stats_json(m))));
            Ok(fields)
        }
        Verb::Close { session } => {
            let slot = shared
                .table()
                .remove(&session)
                .ok_or_else(|| format!("no such session {session}"))?;
            let s = slot.lock().expect("session poisoned");
            apply(shared, &slot, s, Event::Close)
        }
    }
}

/// Feeds a verb's event to its locked session and carries out the step
/// the transition answers with; the ack follows from the step.
fn apply(
    shared: &Arc<Shared>,
    slot: &Arc<Mutex<Session>>,
    mut s: MutexGuard<'_, Session>,
    event: Event,
) -> Result<AckFields, String> {
    match transition(&mut s, event)? {
        Step::Ack => Ok(vec![("state", Json::str(s.phase.name()))]),
        Step::Pausing => Ok(vec![("state", Json::str("pausing"))]),
        Step::Enqueue => {
            drop(s);
            enqueue_chunk(shared, slot);
            Ok(vec![("state", Json::str("running"))])
        }
        Step::Snapshot { bytes, cycle } => Ok(vec![
            ("bytes", Json::U64(bytes.len() as u64)),
            ("checksum", Json::U64(disc_snap::checksum(&bytes))),
            ("cycle", Json::U64(cycle)),
        ]),
        Step::Restore(path) => {
            // The read happens under the session lock; the restored
            // session then resumes as a paused one.
            let machine = s.read_snapshot(&path)?;
            transition(&mut s, Event::Restored(Box::new(machine)))?;
            let _ = std::fs::remove_file(&path);
            apply(shared, slot, s, Event::Resume)
        }
        Step::Evict(machine) => {
            let id = s.id;
            drop(s);
            write_eviction(shared, slot, id, machine)
        }
        Step::Close(snapshot) => {
            if let Some(path) = snapshot {
                let _ = std::fs::remove_file(path);
            }
            Ok(vec![])
        }
    }
}

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

/// The second half of an eviction, after [`transition`] took the
/// machine: the snapshot is written with **no** locks held — a slow disk
/// stalls only this session — then the session is relocked and the
/// write's outcome fed back as [`Event::Written`].
fn write_eviction(
    shared: &Shared,
    slot: &Arc<Mutex<Session>>,
    id: u64,
    machine: Box<Machine>,
) -> Result<AckFields, String> {
    let bytes = machine.snapshot();
    if let Some(delay) = shared.config.evict_write_delay {
        std::thread::sleep(delay);
    }
    let dir = &shared.config.evict_dir;
    let path = dir.join(format!("session-{id}.snap"));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &bytes));
    let event = Event::Written(written.as_ref().map(|()| path.clone()).map_err(|_| machine));
    if let Err(refusal) = transition(&mut slot.lock().expect("session poisoned"), event) {
        // Closed mid-write: the table entry is gone, so nothing can ever
        // resume this snapshot.
        let _ = std::fs::remove_file(&path);
        return Err(refusal.into());
    }
    written.map_err(|e| format!("write snapshot {}: {e}", path.display()))?;
    Ok(vec![
        ("path", Json::str(path.display().to_string())),
        ("bytes", Json::U64(bytes.len() as u64)),
    ])
}

/// Background sweeper pass: evict every live session idle longer than
/// `older_than`.
///
/// Clones every session's `Arc` out under the table lock, releases it,
/// and inspects each session with `try_lock` (a session busy enough to
/// hold its lock is not idle). The snapshot write itself happens inside
/// [`write_eviction`] with no locks held, so a slow disk never blocks
/// `create`/`stat`/`run` traffic.
fn sweep_idle(shared: &Arc<Shared>, older_than: Duration) {
    let slots: Vec<_> = shared.table().values().cloned().collect();
    for slot in slots {
        let Ok(s) = slot.try_lock() else { continue };
        let resting = matches!(s.phase, Phase::Live(_, Activity::Idle | Activity::Paused));
        if !(resting && s.touched.elapsed() >= older_than) {
            continue;
        }
        let (id, writer) = (s.id, Arc::clone(&s.writer));
        if let Ok(fields) = apply(shared, &slot, s, Event::Evict) {
            send(&writer, &event("evicted", id, fields));
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

/// Runs one chunk on a running session's machine in place and feeds the
/// outcome to [`transition`]. `done` goes out under the session lock, so
/// no later event can overtake it; `paused` and `error` go out after.
fn run_chunk_job(shared: &Arc<Shared>, slot: &Arc<Mutex<Session>>) {
    let mut guard = slot.lock().expect("session poisoned");
    let s = &mut *guard;
    let intended = s.chunk(shared.config.chunk);
    let budget = intended.min(s.remaining);
    let (id, writer) = (s.id, Arc::clone(&s.writer));
    let Phase::Live(machine, Activity::Running { pausing }) = &mut s.phase else {
        return; // closed between enqueue and execution
    };
    let paused = |m: &Machine| event("paused", id, [("cycle", Json::U64(m.cycle()))]);
    // A server tearing down parks at the chunk boundary already reached
    // instead of re-enqueueing, so the accept loop's `wait_idle` drain
    // completes promptly. The park emits the same `paused` event a
    // client-requested pause does: a client blocked on its run's next
    // event must see a terminal event, not just the connection's EOF.
    let (outcome, after) = if *pausing || shared.shutdown.load(Ordering::SeqCst) {
        (Event::Park, Some(paused(machine)))
    } else {
        let started = Instant::now();
        let result = machine.run_chunk(budget);
        // Batched sample lines go on the wire now, before any `paused`/
        // `done`/`error` event below can overtake them.
        machine.flush_trace_sink();
        let elapsed = started.elapsed();
        match result {
            Err(e) => {
                let cycle = Json::U64(machine.cycle());
                let error = [("error", Json::str(e.to_string())), ("cycle", cycle)];
                (Event::Fault, Some(event("error", id, error)))
            }
            Ok(chunk) => {
                s.remaining = s.remaining.saturating_sub(chunk.cycles.max(1));
                let outcome = match chunk.exit {
                    Exit::Halted | Exit::AllIdle => {
                        let exit = if chunk.exit == Exit::Halted {
                            "halted"
                        } else {
                            "all-idle"
                        };
                        send(&writer, &done_event(machine, id, exit, true));
                        (Event::Finished, None)
                    }
                    // The budget ran dry without the machine finishing:
                    // the session stays alive (a further `run` continues
                    // it), but the client gets a `done`-shaped event
                    // marking this command complete.
                    _ if s.remaining == 0 => {
                        send(&writer, &done_event(machine, id, "cycle-limit", false));
                        (Event::Spent, None)
                    }
                    _ if shared.shutdown.load(Ordering::SeqCst) => {
                        (Event::Park, Some(paused(machine)))
                    }
                    _ => (Event::Continue, None),
                };
                adapt_chunk(s, &shared.config, intended, budget, chunk.cycles, elapsed);
                outcome
            }
        }
    };
    let step = transition(s, outcome);
    drop(guard);
    if let Some(json) = after {
        send(&writer, &json);
    }
    if let Ok(Step::Enqueue) = step {
        enqueue_chunk(shared, slot);
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

/// Builds the `done` event: exit reason, elapsed cycles, dispatch
/// efficiency, the schema-versioned report, and a fingerprint over the
/// report bytes so clients can assert byte-identity without shipping
/// the report around.
fn done_event(machine: &mut Machine, id: u64, exit: &str, run_ended: bool) -> Json {
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

#[cfg(test)]
mod tests {
    use super::*;

    const BOARD: &str = r#"
[program]
source = """
.stream 0, main
main:
    jmp main
"""
"#;

    /// The phases of [`TABLE`]'s columns, `pausing` being a running
    /// session with a pause requested.
    const PHASES: [&str; 9] = [
        "idle",
        "running",
        "pausing",
        "paused",
        "evicting/idle",
        "evicting/paused",
        "evicted",
        "done",
        "closed",
    ];

    const RUN: &str = "session is already running";
    const EVI: &str = EVICTING_MSG;
    const RES: &str = "session is evicted; resume it first";
    const FIN: &str = "session already finished";
    const CLO: &str = "session is closed";
    const NRUN: &str = "session is not running";
    const NEV: &str = "no eviction is in progress";
    const NEVD: &str = "session is not evicted";
    const CLEV: &str = "session closed during eviction";
    const SNAP: &str = "pause the session before snapshotting";
    const EVICT: &str = "pause the session before evicting";
    const EVD: &str = "session is already evicted";

    /// Every (event, phase) pair: `→ <next phase> <step>` when the event
    /// is accepted, else the exact refusal text. `resume+budget` is
    /// `resume` with budget left; every other row has none.
    #[rustfmt::skip]
    const TABLE: [(&str, [&str; 9]); 15] = [
        //                idle                     running                  pausing                  paused                     evicting/idle            evicting/paused             evicted                 done               closed
        ("run",           ["→ running enqueue",    RUN,                     RUN,                     "→ running enqueue",       EVI,                     EVI,                        RES,                    FIN,               CLO]),
        ("pause",         ["→ idle ack",          "→ pausing pausing",     "→ pausing pausing",     "→ paused ack",         "→ evicting/idle ack", "→ evicting/paused ack", "→ evicted ack", "→ done ack",     CLO]),
        ("resume",        ["→ idle ack",          RUN,                     RUN,                     "→ paused ack",         EVI,                     EVI,                        "→ evicted restore",    FIN,               CLO]),
        ("resume+budget", ["→ running enqueue",    RUN,                     RUN,                     "→ running enqueue",       EVI,                     EVI,                        "→ evicted restore",    FIN,               CLO]),
        ("restored",      [NEVD,                   NEVD,                    NEVD,                    NEVD,                      NEVD,                    NEVD,                       "→ paused ack",      NEVD,              CLO]),
        ("snapshot",      ["→ idle snapshot",      SNAP,                    SNAP,                    "→ paused snapshot",       EVI,                     EVI,                        RES,                    "→ done snapshot", CLO]),
        ("evict",         ["→ evicting/idle evict", EVICT,                  EVICT,                   "→ evicting/paused evict", EVI,                     EVI,                        EVD,                    FIN,               CLO]),
        ("written",       [NEV,                    NEV,                     NEV,                     NEV,                       "→ evicted ack",     "→ evicted ack",        NEV,                    NEV,               CLEV]),
        ("write-failed",  [NEV,                    NEV,                     NEV,                     NEV,                       "→ idle ack",           "→ paused ack",          NEV,                    NEV,               CLEV]),
        ("close",         ["→ closed close",       "→ closed close",        "→ closed close",        "→ closed close",          "→ closed close",        "→ closed close",           "→ closed close+file",  "→ closed close",  CLO]),
        // A closed session parks nothing: no `paused` event goes out for
        // it, even when a shutdown lands before its queued chunk.
        ("park",          [NRUN,                   "→ paused ack",       "→ paused ack",       NRUN,                      NRUN,                    NRUN,                       NRUN,                   NRUN,              CLO]),
        ("fault",         [NRUN,                   "→ done ack",           "→ done ack",           NRUN,                      NRUN,                    NRUN,                       NRUN,                   NRUN,              CLO]),
        ("finished",      [NRUN,                   "→ done ack",           "→ done ack",           NRUN,                      NRUN,                    NRUN,                       NRUN,                   NRUN,              CLO]),
        ("spent",         [NRUN,                   "→ idle ack",           "→ idle ack",           NRUN,                      NRUN,                    NRUN,                       NRUN,                   NRUN,              CLO]),
        ("continue",      [NRUN,                   "→ running enqueue",     "→ pausing enqueue",     NRUN,                      NRUN,                    NRUN,                       NRUN,                   NRUN,              CLO]),
    ];

    fn machine(board: &Board) -> Box<Machine> {
        Box::new(board.machine().expect("test board builds"))
    }

    fn session(phase: &str, remaining: u64) -> Session {
        let board = Board::parse(BOARD).expect("test board parses");
        let live = |activity| Phase::Live(machine(&board), activity);
        let phase = match phase {
            "idle" => live(Activity::Idle),
            "running" => live(Activity::Running { pausing: false }),
            "pausing" => live(Activity::Running { pausing: true }),
            "paused" => live(Activity::Paused),
            "evicting/idle" => Phase::Evicting(Activity::Idle),
            "evicting/paused" => Phase::Evicting(Activity::Paused),
            "evicted" => Phase::Evicted(PathBuf::from("session-1.snap")),
            "done" => live(Activity::Done),
            "closed" => Phase::Closed,
            other => panic!("no phase {other:?}"),
        };
        Session {
            id: 1,
            board,
            sample_every: 0,
            trace: false,
            phase,
            remaining,
            chunk_cycles: 0,
            touched: Instant::now(),
            writer: Arc::new(Mutex::new(Box::new(io::sink()))),
        }
    }

    fn event(name: &str, board: &Board) -> Event {
        match name {
            "run" => Event::Run(7),
            "pause" => Event::Pause,
            "resume" | "resume+budget" => Event::Resume,
            "restored" => Event::Restored(machine(board)),
            "snapshot" => Event::Snapshot,
            "evict" => Event::Evict,
            "written" => Event::Written(Ok(PathBuf::from("session-1.snap"))),
            "write-failed" => Event::Written(Err(machine(board))),
            "close" => Event::Close,
            "park" => Event::Park,
            "fault" => Event::Fault,
            "finished" => Event::Finished,
            "spent" => Event::Spent,
            "continue" => Event::Continue,
            other => panic!("no event {other:?}"),
        }
    }

    /// The phase as [`PHASES`] names it.
    fn label(phase: &Phase) -> &'static str {
        match phase {
            Phase::Live(_, Activity::Running { pausing: true }) => "pausing",
            Phase::Evicting(Activity::Idle) => "evicting/idle",
            Phase::Evicting(Activity::Paused) => "evicting/paused",
            phase => phase.name(),
        }
    }

    fn step_name(step: &Step) -> &'static str {
        match step {
            Step::Ack => "ack",
            Step::Pausing => "pausing",
            Step::Enqueue => "enqueue",
            Step::Snapshot { .. } => "snapshot",
            Step::Restore(_) => "restore",
            Step::Evict(_) => "evict",
            Step::Close(None) => "close",
            Step::Close(Some(_)) => "close+file",
        }
    }

    #[test]
    fn every_phase_event_pair_moves_to_its_table_cell() {
        let mut wrong = Vec::new();
        for (name, cells) in TABLE {
            let remaining = if name == "resume+budget" { 5 } else { 0 };
            for (phase, want) in PHASES.into_iter().zip(cells) {
                let mut s = session(phase, remaining);
                let e = event(name, &s.board);
                let got = match transition(&mut s, e) {
                    Ok(step) => format!("→ {} {}", label(&s.phase), step_name(&step)),
                    Err(refusal) if label(&s.phase) == phase => refusal.to_string(),
                    Err(refusal) => format!("{refusal} (and moved to {})", label(&s.phase)),
                };
                if got != want {
                    wrong.push(format!("({phase}, {name}): got {got:?}, want {want:?}"));
                }
            }
        }
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    #[test]
    fn run_sets_the_budget_and_a_finished_run_clears_it() {
        let mut s = session("paused", 0);
        assert!(matches!(
            transition(&mut s, Event::Run(7)),
            Ok(Step::Enqueue)
        ));
        assert_eq!(s.remaining, 7);
        for end in [Event::Fault, Event::Finished] {
            let mut s = session("running", 7);
            transition(&mut s, end).expect("a running session finishes");
            assert_eq!(s.remaining, 0);
        }
    }
}
