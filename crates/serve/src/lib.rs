//! # ba-serve
//!
//! Concurrent anomaly-scoring service over the streaming engine: the
//! network front door for the "millions of users" north star. A
//! [`Server`] multiplexes many concurrent clients over one shared
//! [`StreamEngine`](ba_stream::StreamEngine) using length-prefixed
//! binary framing and a deterministic, epoch-pinned request/response
//! protocol.
//!
//! The load-bearing ideas, each pinned by tests / CI gates:
//!
//! * **Framing** ([`frame`]) — every message is a little-endian `u64`
//!   length + payload; the reader distinguishes clean closes, severed
//!   connections (EOF mid-frame), and rejected headers (zero-length or
//!   oversized) so a dying client can never leave a torn request.
//! * **Epoch rotation** ([`epoch`]) — readers pin a frozen
//!   [`EpochSnapshot`](ba_stream::EpochSnapshot) (edge count, features
//!   and fitted model behind a swapped `Arc`); ingest
//!   builds and publishes the next epoch after each batch. Reads never
//!   block ingest, and a publish can never tear a response.
//! * **Replay determinism** ([`protocol`], [`client`]) — queries carry
//!   an epoch pin and scores travel as raw IEEE-754 bits, so a
//!   replayed request log produces byte-identical response transcripts
//!   at any client count (the CI serve-replay step diffs 1 vs 8), and
//!   epoch-`N` responses are bit-identical to a from-scratch engine
//!   fed the same `N`-batch prefix (proptest).
//!
//! ## Example
//!
//! ```
//! use ba_graph::generators;
//! use ba_serve::{Connection, Request, Server, ServeConfig, Response, LATEST};
//! use ba_stream::{StreamConfig, StreamEngine};
//!
//! let g = generators::erdos_renyi(100, 0.06, 7);
//! let engine = StreamEngine::new(&g, StreamConfig::default());
//! let server = Server::start("127.0.0.1:0", engine, ServeConfig::default()).unwrap();
//! let mut conn = Connection::connect(&server.local_addr().to_string()).unwrap();
//! let resp = conn.call(&Request::PointScore { epoch: LATEST, node: 3 }).unwrap();
//! assert!(matches!(resp, Response::Score { epoch: 0, node: 3, .. }));
//! server.shutdown();
//! ```

pub mod client;
pub mod epoch;
pub mod protocol;
pub mod server;
pub mod workload;

/// The framing layer, shared with the experiment tracker — re-exported
/// from [`ba_net`] so `ba_serve::frame::*` paths keep working with zero
/// duplicated frame code.
pub use ba_net::frame;

pub use client::{replay, ClientError, Connection};
pub use epoch::{EpochStore, ServeState};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, format_request,
    parse_request_line, render_response, Request, Response, WireError, LATEST,
};
pub use server::{ServeConfig, Server};
pub use workload::{load_requests, save_requests, synthetic_requests, WorkloadConfig};
