//! # ba-net
//!
//! The workspace's leaf I/O crate: the byte formats every crate that
//! talks to a socket or persists a file shares. Dependency-free, so the
//! engine and service crates can use it without pulling in the
//! experiment harness. Four modules:
//!
//! * [`frame`] — length-prefixed binary framing (a little-endian `u64`
//!   payload length, then the payload). The reader distinguishes clean
//!   closes, severed connections (EOF mid-header or mid-payload), and
//!   rejected headers (zero-length or oversized), so a dying peer can
//!   never leave a torn message. Extracted verbatim from `ba-serve`,
//!   which re-exports it — the scoring service and the experiment
//!   tracker speak the exact same frame layer.
//! * [`wire`] — primitive message codecs (`u8`/`u16`/`u32`/`u64`/raw
//!   bytes/UTF-8 strings/string lists) over a byte buffer, with strict
//!   truncation and trailing-byte detection. Protocol crates build their typed
//!   encode/decode on these so every message round-trips exactly.
//! * [`codec`] — the exact IEEE-754 hex text codec for floats and
//!   atomic (temp file + rename) writes, shared by experiment
//!   artifacts, engine snapshots, the graph store and transcripts.
//! * [`report`] — the one `BENCH_*.json` perf-trend schema every gate
//!   binary and the linter emit.

pub mod codec;
pub mod frame;
pub mod report;
pub mod wire;

pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use report::BenchReport;
pub use wire::{WireReader, WireWriter};
