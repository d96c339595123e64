//! DISC-as-a-service: a session server for the DISC simulator.
//!
//! The simulator's batch harnesses (`repro_all`, the soak/fuzz
//! campaigns) own their machines cradle-to-grave. This crate turns the
//! machine into a *managed session*: a client submits a board (a
//! [`disc_board::Board`] document, inline or by name) over TCP, the
//! server builds its machine and runs it in bounded
//! chunks on a fixed [`disc_par::WorkerPool`], and observability
//! streams back over the same connection as JSONL events — sampled
//! counter windows ([`disc_obs::WireSink`]), optional full cycle
//! traces, and a schema-versioned [`disc_obs::RunReport`] when the run
//! ends. Thousands of sessions multiplex over a handful of worker
//! threads because a session only occupies a worker for one chunk at a
//! time, then re-enqueues itself behind everyone else.
//!
//! Session lifecycle is explicit: `create` → `run` → (`pause` |
//! `snapshot` | `evict` | `resume`)* → done, each a verb of the
//! [`protocol`]. Eviction snapshots the machine (`disc-snap/v2`, via
//! [`disc_core::Machine::snapshot`]) to disk and drops it; `resume`
//! rebuilds the machine from the retained board and applies the
//! snapshot. Because chunk boundaries are timing-transparent and
//! chunks are aligned to the sampling window, a session that is paused,
//! evicted, restored and resumed completes *byte-identical* — same
//! report, same stats, same sample stream — to one that ran start to
//! finish undisturbed.
//!
//! The server is dependency-free by construction (std TCP + threads,
//! no async runtime): the accept loop hands each connection to a
//! reader thread, cheap verbs execute inline against one locked session
//! table, and `run` work rides the shared pool's one job queue.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ServeError};
pub use protocol::{CreateSource, Request, Verb, PROTOCOL};
pub use server::{Server, ServerConfig, ServerHandle};
