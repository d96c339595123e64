//! The `disc-serve/v2` wire protocol: one JSON object per line, both
//! directions.
//!
//! Clients send *requests* — `{"id":N,"verb":"...",...}` — and the
//! server answers each with exactly one *ack* carrying the same `id`:
//! `{"id":N,"ok":true,...}` on success, `{"id":N,"ok":false,"error":m}`
//! on failure. Interleaved with acks, the connection carries
//! unsolicited *events* keyed by `"event"` instead of `"id"`:
//! sink-over-wire frames (`"sample"`, `"trace"`) emitted while a
//! session runs, plus lifecycle notifications (`"hello"`, `"paused"`,
//! `"done"`, `"error"`). A client demultiplexes on the presence of the
//! `"id"` key; unknown event kinds must be skipped, not rejected, so
//! the protocol can grow.
//!
//! ## Verbs
//!
//! | verb       | operands                                     | effect |
//! |------------|----------------------------------------------|--------|
//! | `ping`     | —                                            | liveness probe |
//! | `create`   | `board`\|`board_name`, `sample_every?`, `trace?` | parse a board + build its machine, returns `session` |
//! | `run`      | `session`, `cycles`                          | run asynchronously on the worker pool |
//! | `pause`    | `session`                                    | stop at the next chunk boundary |
//! | `snapshot` | `session`                                    | serialize state, returns size + checksum |
//! | `resume`   | `session`                                    | continue a paused/evicted session's budget |
//! | `evict`    | `session`                                    | snapshot to disk and drop the live machine |
//! | `stat`     | `session`                                    | state, cycle, headline counters |
//! | `close`    | `session`                                    | discard the session entirely |
//! | `shutdown` | —                                            | stop accepting; drain and exit |
//!
//! Every session is a board: its `[machine]` section, peripherals,
//! fault plan and `[program]` come from one document, sent inline or
//! named. A create that still sends v1's `program` or `config` operand
//! is nacked with a message pointing at `board`.

use disc_obs::Json;

/// Protocol identifier sent in the `hello` event and checked by clients.
pub const PROTOCOL: &str = "disc-serve/v2";

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the ack.
    pub id: u64,
    /// What to do.
    pub verb: Verb,
}

/// The operation a [`Request`] asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Liveness probe.
    Ping,
    /// Parse a board and build its machine.
    Create {
        /// Where the board comes from: an inline document or a name
        /// resolved server-side.
        source: CreateSource,
        /// Sampling window for streamed counters (0 disables sampling).
        sample_every: u64,
        /// Also stream full per-cycle trace frames (heavy).
        trace: bool,
    },
    /// Run `session` for up to `cycles` more cycles, asynchronously.
    Run {
        /// Target session.
        session: u64,
        /// Cycle budget for this run command.
        cycles: u64,
    },
    /// Stop `session` at the next chunk boundary.
    Pause {
        /// Target session.
        session: u64,
    },
    /// Serialize `session`'s machine state (must not be running).
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Continue a paused or evicted `session`'s remaining budget.
    Resume {
        /// Target session.
        session: u64,
    },
    /// Snapshot `session` to disk and drop its live machine.
    Evict {
        /// Target session.
        session: u64,
    },
    /// Report `session`'s state and headline counters.
    Stat {
        /// Target session.
        session: u64,
    },
    /// Discard `session`.
    Close {
        /// Target session.
        session: u64,
    },
    /// Stop the server.
    Shutdown,
}

/// Where a `create` request's board comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum CreateSource {
    /// An inline board document (`"board"` operand): machine shape,
    /// peripherals, fault plan and program all come from the document.
    BoardDoc(String),
    /// The name of a board file the server resolves against its
    /// configured board directory (`"board_name"` operand).
    BoardName(String),
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the line is not valid JSON,
    /// lacks `id`/`verb`, names an unknown verb, or has missing or
    /// ill-typed operands.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line).map_err(|e| format!("bad json: {e}"))?;
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("missing numeric \"id\"")?;
        Request::from_json(id, &json)
    }

    /// Parses the verb and operands of a request whose `id` is already
    /// known — the server uses this so an operand error can still be
    /// nacked against the right request id.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`], minus the json/id failures.
    pub fn from_json(id: u64, json: &Json) -> Result<Request, String> {
        let verb = json
            .get("verb")
            .and_then(Json::as_str)
            .ok_or("missing string \"verb\"")?;
        let session = || {
            json.get("session")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("verb {verb:?} needs numeric \"session\""))
        };
        let verb = match verb {
            "ping" => Verb::Ping,
            "create" => {
                for removed in ["program", "config"] {
                    if json.get(removed).is_some() {
                        return Err(format!(
                            "create operand {removed:?} was removed in {PROTOCOL}; send the \
                             machine and its program as a \"board\" document"
                        ));
                    }
                }
                let board = operand(json, "board", "a string", Json::as_str)?;
                let board_name = operand(json, "board_name", "a string", Json::as_str)?;
                let source = match (board, board_name) {
                    (Some(b), None) => CreateSource::BoardDoc(b.to_string()),
                    (None, Some(n)) => CreateSource::BoardName(n.to_string()),
                    (None, None) => return Err("create needs \"board\" or \"board_name\"".into()),
                    (Some(_), Some(_)) => {
                        return Err("create takes exactly one of \"board\", \"board_name\"".into())
                    }
                };
                Verb::Create {
                    source,
                    sample_every: operand(json, "sample_every", "a number", Json::as_u64)?
                        .unwrap_or(0),
                    trace: operand(json, "trace", "a boolean", Json::as_bool)?.unwrap_or(false),
                }
            }
            "run" => Verb::Run {
                session: session()?,
                cycles: json
                    .get("cycles")
                    .and_then(Json::as_u64)
                    .ok_or("run needs numeric \"cycles\"")?,
            },
            "pause" => Verb::Pause {
                session: session()?,
            },
            "snapshot" => Verb::Snapshot {
                session: session()?,
            },
            "resume" => Verb::Resume {
                session: session()?,
            },
            "evict" => Verb::Evict {
                session: session()?,
            },
            "stat" => Verb::Stat {
                session: session()?,
            },
            "close" => Verb::Close {
                session: session()?,
            },
            "shutdown" => Verb::Shutdown,
            other => return Err(format!("unknown verb {other:?}")),
        };
        Ok(Request { id, verb })
    }
}

/// Reads the optional operand `key` through `get`: absent is `None`,
/// present but not `kind` is an error naming the operand.
fn operand<'a, T>(
    json: &'a Json,
    key: &str,
    kind: &str,
    get: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    json.get(key)
        .map(|v| get(v).ok_or_else(|| format!("operand {key:?} must be {kind}")))
        .transpose()
}

/// A successful ack for request `id`, with extra fields appended.
pub fn ack(id: u64, extra: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut fields = vec![("id", Json::U64(id)), ("ok", Json::Bool(true))];
    fields.extend(extra);
    Json::obj(fields)
}

/// A failure ack for request `id`.
pub fn nack(id: u64, error: &str) -> Json {
    Json::obj([
        ("id", Json::U64(id)),
        ("ok", Json::Bool(false)),
        ("error", Json::str(error)),
    ])
}

/// An unsolicited event of `kind` for `session`, with extra fields.
pub fn event(
    kind: &str,
    session: u64,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let mut fields = vec![("event", Json::str(kind)), ("session", Json::U64(session))];
    fields.extend(extra);
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        let r = Request::parse(r#"{"id":1,"verb":"ping"}"#).unwrap();
        assert_eq!(
            r,
            Request {
                id: 1,
                verb: Verb::Ping
            }
        );
        let r = Request::parse(
            r#"{"id":2,"verb":"create","board":"b","sample_every":64,"trace":true}"#,
        )
        .unwrap();
        match r.verb {
            Verb::Create {
                source,
                sample_every,
                trace,
                ..
            } => {
                assert_eq!(source, CreateSource::BoardDoc("b".into()));
                assert_eq!(sample_every, 64);
                assert!(trace);
            }
            other => panic!("wrong verb {other:?}"),
        }
        let r = Request::parse(r#"{"id":3,"verb":"run","session":9,"cycles":1000}"#).unwrap();
        assert_eq!(
            r.verb,
            Verb::Run {
                session: 9,
                cycles: 1000
            }
        );
        for (verb, want) in [
            ("pause", Verb::Pause { session: 4 }),
            ("snapshot", Verb::Snapshot { session: 4 }),
            ("resume", Verb::Resume { session: 4 }),
            ("evict", Verb::Evict { session: 4 }),
            ("stat", Verb::Stat { session: 4 }),
            ("close", Verb::Close { session: 4 }),
        ] {
            let line = format!(r#"{{"id":7,"verb":"{verb}","session":4}}"#);
            assert_eq!(Request::parse(&line).unwrap().verb, want);
        }
        assert_eq!(
            Request::parse(r#"{"id":8,"verb":"shutdown"}"#)
                .unwrap()
                .verb,
            Verb::Shutdown
        );
    }

    #[test]
    fn create_board_sources_parse_and_exclude_each_other() {
        let r =
            Request::parse(r#"{"id":5,"verb":"create","board":"[machine]\nstreams = 2"}"#).unwrap();
        match r.verb {
            Verb::Create { source, .. } => {
                assert_eq!(
                    source,
                    CreateSource::BoardDoc("[machine]\nstreams = 2".into())
                );
            }
            other => panic!("wrong verb {other:?}"),
        }
        let r = Request::parse(r#"{"id":6,"verb":"create","board_name":"timer_idle_1s"}"#).unwrap();
        match r.verb {
            Verb::Create { source, .. } => {
                assert_eq!(source, CreateSource::BoardName("timer_idle_1s".into()));
            }
            other => panic!("wrong verb {other:?}"),
        }
        assert!(
            Request::parse(r#"{"id":7,"verb":"create","board":"x","board_name":"y"}"#)
                .unwrap_err()
                .contains("exactly one")
        );
        assert!(Request::parse(r#"{"id":8,"verb":"create"}"#)
            .unwrap_err()
            .contains("\"board\""));
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (line, names) in [
            ("nonsense", "bad json"),
            (r#"{"verb":"ping"}"#, "id"),
            (r#"{"id":1}"#, "verb"),
            (r#"{"id":1,"verb":"warp"}"#, "unknown verb"),
            (r#"{"id":1,"verb":"run","cycles":5}"#, "session"),
            // Present but ill-typed optional operands are refused, not
            // silently read as their defaults.
            (
                r#"{"id":1,"verb":"create","board":"x","sample_every":"64"}"#,
                "sample_every",
            ),
            (r#"{"id":1,"verb":"create","board":"x","trace":1}"#, "trace"),
            (r#"{"id":1,"verb":"create","board_name":7}"#, "board_name"),
            // v1's create operands are gone; the nack points at `board`.
            (r#"{"id":1,"verb":"create","program":"halt"}"#, "removed"),
            (
                r#"{"id":1,"verb":"create","board":"x","config":{}}"#,
                "removed",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(names), "{line}: {err}");
        }
    }

    #[test]
    fn acks_and_events_render_stably() {
        assert_eq!(
            ack(3, [("session", Json::U64(1))]).render(),
            r#"{"id":3,"ok":true,"session":1}"#
        );
        assert_eq!(
            nack(4, "no such session").render(),
            r#"{"id":4,"ok":false,"error":"no such session"}"#
        );
        assert_eq!(
            event("paused", 2, [("cycle", Json::U64(640))]).render(),
            r#"{"event":"paused","session":2,"cycle":640}"#
        );
    }
}
