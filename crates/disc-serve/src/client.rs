//! Blocking client for the `disc-serve` wire protocol ([`PROTOCOL`]).
//!
//! One [`Client`] owns one connection. Requests are synchronous — each
//! verb method writes a line and reads until the matching ack comes
//! back — while events that arrive in between (sample windows, trace
//! frames, lifecycle notifications) are queued and surfaced through
//! [`Client::next_event`] / [`Client::wait_event`]. This is the client
//! the `bench_gate` serve checks and the repository benchmark drive
//! fleets with; it is deliberately simple rather than maximally
//! concurrent, because the interesting concurrency lives server-side.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use disc_obs::Json;

use crate::protocol::PROTOCOL;

/// Why a client call failed.
#[derive(Debug)]
pub enum ServeError {
    /// The connection died.
    Io(io::Error),
    /// The server said something the protocol does not allow.
    Protocol(String),
    /// The server answered the request with `ok:false`.
    Nack(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "connection error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ServeError::Nack(m) => write!(f, "request refused: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A connected `disc-serve` client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    hello: Json,
    events: VecDeque<Json>,
}

impl Client {
    /// Connects and consumes the server's `hello` event, verifying the
    /// protocol version.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a protocol mismatch.
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let writer = TcpStream::connect(addr)?;
        // One-line requests must not sit in Nagle's buffer waiting for
        // the ack of the previous line.
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Client {
            reader,
            writer,
            next_id: 1,
            hello: Json::Null,
            events: VecDeque::new(),
        };
        let hello = client.read_line()?;
        match hello.get("proto").and_then(Json::as_str) {
            Some(p) if p == PROTOCOL => {}
            other => {
                return Err(ServeError::Protocol(format!(
                    "server speaks {other:?}, wanted {PROTOCOL:?}"
                )))
            }
        }
        client.hello = hello;
        Ok(client)
    }

    /// The server's `hello` event (protocol version, worker count).
    pub fn hello(&self) -> &Json {
        &self.hello
    }

    fn read_line(&mut self) -> Result<Json, ServeError> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            if line.trim().is_empty() {
                continue;
            }
            return Json::parse(line.trim())
                .map_err(|e| ServeError::Protocol(format!("unparseable line: {e}")));
        }
    }

    /// Sends `fields` as a request and blocks until its ack arrives,
    /// queueing any events read along the way.
    ///
    /// # Errors
    ///
    /// I/O and protocol errors, or [`ServeError::Nack`] when the server
    /// refuses the request.
    pub fn request(
        &mut self,
        verb: &str,
        fields: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> Result<Json, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut obj = vec![("id", Json::U64(id)), ("verb", Json::str(verb))];
        obj.extend(fields);
        let mut buf = Json::obj(obj).render().into_bytes();
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        self.writer.flush()?;
        loop {
            let line = self.read_line()?;
            match line.get("id").and_then(Json::as_u64) {
                Some(got) if got == id => {
                    return if line.get("ok").and_then(Json::as_bool) == Some(true) {
                        Ok(line)
                    } else {
                        let msg = line
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unspecified error");
                        Err(ServeError::Nack(msg.to_string()))
                    };
                }
                Some(got) => {
                    return Err(ServeError::Protocol(format!(
                        "ack for request {got}, expected {id} (requests are serial)"
                    )))
                }
                None => self.events.push_back(line),
            }
        }
    }

    /// The next queued event, or `None` without blocking.
    pub fn next_event(&mut self) -> Option<Json> {
        self.events.pop_front()
    }

    /// Blocks until an event satisfying `pred` arrives; earlier
    /// non-matching events stay queued in arrival order.
    ///
    /// # Errors
    ///
    /// I/O or protocol errors while waiting.
    pub fn wait_event(&mut self, mut pred: impl FnMut(&Json) -> bool) -> Result<Json, ServeError> {
        if let Some(at) = self.events.iter().position(&mut pred) {
            return Ok(self.events.remove(at).expect("position just found"));
        }
        loop {
            let line = self.read_line()?;
            if line.get("id").is_some() {
                return Err(ServeError::Protocol(
                    "ack arrived with no request outstanding".into(),
                ));
            }
            if pred(&line) {
                return Ok(line);
            }
            self.events.push_back(line);
        }
    }

    /// Waits for the `done` (or `error`) event of `session`.
    ///
    /// # Errors
    ///
    /// I/O and protocol errors, or [`ServeError::Nack`] when the session
    /// ended with a simulation error event.
    pub fn wait_done(&mut self, session: u64) -> Result<Json, ServeError> {
        let done = self.wait_event(|e| {
            e.get("session").and_then(Json::as_u64) == Some(session)
                && matches!(
                    e.get("event").and_then(Json::as_str),
                    Some("done") | Some("error")
                )
        })?;
        if done.get("event").and_then(Json::as_str) == Some("error") {
            let msg = done
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified simulation error");
            return Err(ServeError::Nack(msg.to_string()));
        }
        Ok(done)
    }

    // ---- verb wrappers ---------------------------------------------------

    /// `ping`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.request("ping", []).map(|_| ())
    }

    /// `create` from an inline board document: the board's `[machine]`
    /// section, peripherals, fault plan and `[program]` define the
    /// machine; returns the new session id.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; malformed boards come back as
    /// [`ServeError::Nack`].
    pub fn create_board(
        &mut self,
        board: &str,
        sample_every: u64,
        trace: bool,
    ) -> Result<u64, ServeError> {
        self.create_from("board", board, sample_every, trace)
    }

    /// `create` from a board name the server resolves against its board
    /// directory; returns the new session id.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; unknown names and servers without a
    /// board directory come back as [`ServeError::Nack`].
    pub fn create_board_named(
        &mut self,
        name: &str,
        sample_every: u64,
        trace: bool,
    ) -> Result<u64, ServeError> {
        self.create_from("board_name", name, sample_every, trace)
    }

    fn create_from(
        &mut self,
        source: &'static str,
        value: &str,
        sample_every: u64,
        trace: bool,
    ) -> Result<u64, ServeError> {
        let ack = self.request(
            "create",
            [
                (source, Json::str(value)),
                ("sample_every", Json::U64(sample_every)),
                ("trace", Json::Bool(trace)),
            ],
        )?;
        ack.get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServeError::Protocol("create ack lacked a session id".into()))
    }

    /// `run`: starts an asynchronous run of `cycles` cycles.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn run(&mut self, session: u64, cycles: u64) -> Result<(), ServeError> {
        self.request(
            "run",
            [
                ("session", Json::U64(session)),
                ("cycles", Json::U64(cycles)),
            ],
        )
        .map(|_| ())
    }

    /// `pause`: returns once the server acknowledges (the `paused` event
    /// arrives separately, at the chunk boundary).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn pause(&mut self, session: u64) -> Result<(), ServeError> {
        self.request("pause", [("session", Json::U64(session))])
            .map(|_| ())
    }

    /// `snapshot`: returns the ack (size, checksum, cycle).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn snapshot(&mut self, session: u64) -> Result<Json, ServeError> {
        self.request("snapshot", [("session", Json::U64(session))])
    }

    /// `resume`: restores an evicted session and/or continues its
    /// remaining budget.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn resume(&mut self, session: u64) -> Result<Json, ServeError> {
        self.request("resume", [("session", Json::U64(session))])
    }

    /// `evict`: returns the ack (snapshot path, size).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn evict(&mut self, session: u64) -> Result<Json, ServeError> {
        self.request("evict", [("session", Json::U64(session))])
    }

    /// `stat`: returns the ack (state, cycle, retired, remaining).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn stat(&mut self, session: u64) -> Result<Json, ServeError> {
        self.request("stat", [("session", Json::U64(session))])
    }

    /// `close`: discards the session.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn close(&mut self, session: u64) -> Result<(), ServeError> {
        self.request("close", [("session", Json::U64(session))])
            .map(|_| ())
    }

    /// `shutdown`: stops the server.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.request("shutdown", []).map(|_| ())
    }
}
