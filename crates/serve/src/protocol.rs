//! The deterministic request/response protocol.
//!
//! Four request kinds travel over the framing layer, each encoded as a
//! tag byte plus fixed little-endian fields — no maps, no padding, no
//! floats-as-text — so encoding is a bijection and a replayed request
//! log produces byte-identical frames:
//!
//! | tag | request | payload |
//! |---|---|---|
//! | 1 | point-score | `epoch: u64, node: u32` |
//! | 2 | top-k | `epoch: u64, k: u32` |
//! | 3 | ingest-batch | `count: u32, (time: u64, u: u32, v: u32, insert: 0 or 1 as u8)*` |
//! | 4 | epoch-info | — |
//!
//! Queries carry an *epoch pin*: the epoch the response must be served
//! from ([`LATEST`] means "whatever is current"). Scores cross the wire
//! as raw IEEE-754 bit patterns, so responses are replayable
//! bit-for-bit — the transcript renderer ([`render_response`]) keeps
//! that exactness in its text form via the shared hex codec.
//!
//! Requests also have a line-oriented text form ([`parse_request_line`]
//! / `format_request`) used by the request-log files the CI replay
//! step records and replays.

use ba_graph::NodeId;
use ba_net::codec::enc_f64;
use ba_net::wire::WireDecodeError;
use ba_net::{WireReader, WireWriter};
use ba_stream::StreamEvent;

/// Epoch pin meaning "the latest published epoch".
pub const LATEST: u64 = u64::MAX;

/// Error code: the request payload could not be decoded.
pub const ERR_MALFORMED: u16 = 1;
/// Error code: the request tag byte is unknown.
pub const ERR_UNKNOWN_TAG: u16 = 2;
/// Error code: the pinned epoch is not retained (evicted or future).
pub const ERR_UNKNOWN_EPOCH: u16 = 3;
/// Error code: a node id is out of range for the served graph.
pub const ERR_NODE_RANGE: u16 = 4;
/// Error code: the pinned epoch's model refit was degenerate.
pub const ERR_DEGENERATE: u16 = 5;

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Anomaly score of `node` at `epoch`.
    PointScore {
        /// Epoch pin ([`LATEST`] for the current epoch).
        epoch: u64,
        /// Node to score.
        node: NodeId,
    },
    /// The `k` highest-scoring nodes at `epoch`.
    TopK {
        /// Epoch pin ([`LATEST`] for the current epoch).
        epoch: u64,
        /// Number of entries requested.
        k: u32,
    },
    /// Ingest one batch of edge events and publish the next epoch.
    IngestBatch {
        /// The batch, in stream order.
        events: Vec<StreamEvent>,
    },
    /// Current epoch number, retention window, and graph size.
    EpochInfo,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; `code` is one of the `ERR_*` constants.
    Error {
        /// Machine-readable failure class.
        code: u16,
        /// Human-readable detail (deterministic for a given request).
        message: String,
    },
    /// Answer to [`Request::PointScore`].
    Score {
        /// Epoch the score was computed at (resolved, never [`LATEST`]).
        epoch: u64,
        /// The scored node.
        node: NodeId,
        /// The anomaly score.
        score: f64,
    },
    /// Answer to [`Request::TopK`].
    TopK {
        /// Epoch the ranking was computed at.
        epoch: u64,
        /// `(node, score)` descending, ties toward smaller ids.
        entries: Vec<(NodeId, f64)>,
    },
    /// Answer to [`Request::IngestBatch`].
    Ingested {
        /// The newly published epoch.
        epoch: u64,
        /// Events presented in the batch.
        events: u64,
        /// Net edge flips applied.
        applied: u64,
        /// Edges after the batch.
        edges: u64,
    },
    /// Answer to [`Request::EpochInfo`].
    EpochInfo {
        /// Latest published epoch.
        epoch: u64,
        /// Oldest epoch still retained (pinnable).
        oldest: u64,
        /// Nodes in the served graph.
        nodes: u64,
        /// Edges at the latest epoch.
        edges: u64,
    },
}

impl Response {
    /// Convenience error constructor.
    pub fn error(code: u16, message: impl Into<String>) -> Self {
        Response::Error {
            code,
            message: message.into(),
        }
    }
}

/// Errors raised while decoding a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the declared fields did.
    Truncated,
    /// Bytes remained after the last field.
    Trailing(usize),
    /// The tag byte names no known message.
    UnknownTag(u8),
    /// An error message was not valid UTF-8.
    BadUtf8,
    /// A boolean field held a byte other than 0 or 1.
    BadFlag(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            WireError::UnknownTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
            WireError::BadFlag(b) => write!(f, "flag byte {b} is neither 0 nor 1"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireDecodeError> for WireError {
    fn from(e: WireDecodeError) -> Self {
        match e {
            WireDecodeError::Truncated => WireError::Truncated,
            WireDecodeError::BadUtf8 => WireError::BadUtf8,
            WireDecodeError::Trailing(n) => WireError::Trailing(n),
        }
    }
}

/// Encodes a request payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = WireWriter::new();
    match req {
        Request::PointScore { epoch, node } => {
            w.put_u8(1).put_u64(*epoch).put_u32(*node);
        }
        Request::TopK { epoch, k } => {
            w.put_u8(2).put_u64(*epoch).put_u32(*k);
        }
        Request::IngestBatch { events } => {
            w.put_u8(3).put_u32(events.len() as u32);
            for ev in events {
                w.put_u64(ev.time)
                    .put_u32(ev.u)
                    .put_u32(ev.v)
                    .put_u8(u8::from(ev.insert));
            }
        }
        Request::EpochInfo => {
            w.put_u8(4);
        }
    }
    w.finish()
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = WireReader::new(payload);
    let req = match r.u8()? {
        1 => Request::PointScore {
            epoch: r.u64()?,
            node: r.u32()?,
        },
        2 => Request::TopK {
            epoch: r.u64()?,
            k: r.u32()?,
        },
        3 => {
            let count = r.u32()?;
            // Each event is 17 bytes, so the bytes left bound the
            // capacity whatever the count claims.
            let mut events = Vec::with_capacity((count as usize).min(r.remaining() / 17));
            for _ in 0..count {
                let time = r.u64()?;
                let u = r.u32()?;
                let v = r.u32()?;
                let insert = match r.u8()? {
                    0 => false,
                    1 => true,
                    flag => return Err(WireError::BadFlag(flag)),
                };
                events.push(StreamEvent::new(time, u, v, insert));
            }
            Request::IngestBatch { events }
        }
        4 => Request::EpochInfo,
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(req)
}

/// Encodes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = WireWriter::new();
    match resp {
        Response::Error { code, message } => {
            w.put_u8(0)
                .put_u16(*code)
                .put_u32(message.len() as u32)
                .put_bytes(message.as_bytes());
        }
        Response::Score { epoch, node, score } => {
            w.put_u8(1)
                .put_u64(*epoch)
                .put_u32(*node)
                .put_u64(score.to_bits());
        }
        Response::TopK { epoch, entries } => {
            w.put_u8(2).put_u64(*epoch).put_u32(entries.len() as u32);
            for (node, score) in entries {
                w.put_u32(*node).put_u64(score.to_bits());
            }
        }
        Response::Ingested {
            epoch,
            events,
            applied,
            edges,
        } => {
            w.put_u8(3);
            for field in [epoch, events, applied, edges] {
                w.put_u64(*field);
            }
        }
        Response::EpochInfo {
            epoch,
            oldest,
            nodes,
            edges,
        } => {
            w.put_u8(4);
            for field in [epoch, oldest, nodes, edges] {
                w.put_u64(*field);
            }
        }
    }
    w.finish()
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = WireReader::new(payload);
    let resp = match r.u8()? {
        0 => {
            let code = r.u16()?;
            let len = r.u32()? as usize;
            Response::Error {
                code,
                message: String::from_utf8(r.bytes(len)?.to_vec())
                    .map_err(|_| WireError::BadUtf8)?,
            }
        }
        1 => Response::Score {
            epoch: r.u64()?,
            node: r.u32()?,
            score: f64::from_bits(r.u64()?),
        },
        2 => {
            let epoch = r.u64()?;
            let count = r.u32()?;
            // Each entry is 12 bytes: see `decode_request`.
            let mut entries = Vec::with_capacity((count as usize).min(r.remaining() / 12));
            for _ in 0..count {
                let node = r.u32()?;
                entries.push((node, f64::from_bits(r.u64()?)));
            }
            Response::TopK { epoch, entries }
        }
        3 => Response::Ingested {
            epoch: r.u64()?,
            events: r.u64()?,
            applied: r.u64()?,
            edges: r.u64()?,
        },
        4 => Response::EpochInfo {
            epoch: r.u64()?,
            oldest: r.u64()?,
            nodes: r.u64()?,
            edges: r.u64()?,
        },
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(resp)
}

fn epoch_token(epoch: u64) -> String {
    if epoch == LATEST {
        "latest".to_string()
    } else {
        epoch.to_string()
    }
}

fn parse_epoch_token(tok: &str) -> Option<u64> {
    if tok == "latest" {
        Some(LATEST)
    } else {
        tok.parse().ok()
    }
}

/// Renders a request as one request-log line ([`parse_request_line`]'s
/// inverse).
pub fn format_request(req: &Request) -> String {
    match req {
        Request::PointScore { epoch, node } => {
            format!("score {node} @{}", epoch_token(*epoch))
        }
        Request::TopK { epoch, k } => format!("topk {k} @{}", epoch_token(*epoch)),
        Request::IngestBatch { events } => {
            let toks: Vec<String> = events
                .iter()
                .map(|ev| {
                    format!(
                        "{}:{}:{}:{}",
                        ev.time,
                        ev.u,
                        ev.v,
                        if ev.insert { '+' } else { '-' }
                    )
                })
                .collect();
            format!("ingest {}", toks.join(" "))
        }
        Request::EpochInfo => "epoch-info".to_string(),
    }
}

/// Parses one request-log line. Empty and `#`-comment lines return
/// `Ok(None)`; anything else unparseable returns the offending line.
pub fn parse_request_line(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let bad = || format!("cannot parse request line: {line:?}");
    let mut toks = line.split_whitespace();
    let req = match toks.next().ok_or_else(bad)? {
        "score" => {
            let node: NodeId = toks.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            let epoch = toks
                .next()
                .and_then(|t| t.strip_prefix('@'))
                .and_then(parse_epoch_token)
                .ok_or_else(bad)?;
            Request::PointScore { epoch, node }
        }
        "topk" => {
            let k: u32 = toks.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            let epoch = toks
                .next()
                .and_then(|t| t.strip_prefix('@'))
                .and_then(parse_epoch_token)
                .ok_or_else(bad)?;
            Request::TopK { epoch, k }
        }
        "ingest" => {
            let mut events = Vec::new();
            for tok in toks.by_ref() {
                let mut parts = tok.split(':');
                let parsed = (|| {
                    let time: u64 = parts.next()?.parse().ok()?;
                    let u: NodeId = parts.next()?.parse().ok()?;
                    let v: NodeId = parts.next()?.parse().ok()?;
                    let insert = match parts.next()? {
                        "+" => true,
                        "-" => false,
                        _ => return None,
                    };
                    parts
                        .next()
                        .is_none()
                        .then(|| StreamEvent::new(time, u, v, insert))
                })();
                events.push(parsed.ok_or_else(bad)?);
            }
            Request::IngestBatch { events }
        }
        "epoch-info" => Request::EpochInfo,
        _ => return Err(bad()),
    };
    if toks.next().is_some() {
        return Err(bad());
    }
    Ok(Some(req))
}

/// Renders a response as one deterministic transcript line. Scores
/// appear as exact IEEE-754 hex (the shared `enc_f64` codec) plus a
/// fixed-precision human echo — the CI replay step byte-diffs these
/// lines across client counts.
pub fn render_response(resp: &Response) -> String {
    match resp {
        Response::Error { code, message } => format!("error code={code} msg={message}"),
        Response::Score { epoch, node, score } => {
            format!(
                "score epoch={epoch} node={node} bits={} (~{score:.6})",
                enc_f64(*score)
            )
        }
        Response::TopK { epoch, entries } => {
            let toks: Vec<String> = entries
                .iter()
                .map(|(node, score)| format!("{node}:{}", enc_f64(*score)))
                .collect();
            format!("topk epoch={epoch} k={} {}", entries.len(), toks.join(" "))
        }
        Response::Ingested {
            epoch,
            events,
            applied,
            edges,
        } => {
            format!("ingested epoch={epoch} events={events} applied={applied} edges={edges}")
        }
        Response::EpochInfo {
            epoch,
            oldest,
            nodes,
            edges,
        } => {
            format!("epoch-info epoch={epoch} oldest={oldest} nodes={nodes} edges={edges}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::PointScore { epoch: 3, node: 17 },
            Request::PointScore {
                epoch: LATEST,
                node: 0,
            },
            Request::TopK { epoch: 0, k: 10 },
            Request::IngestBatch {
                events: vec![
                    StreamEvent::new(0, 1, 2, true),
                    StreamEvent::new(1, 2, 3, false),
                ],
            },
            Request::IngestBatch { events: vec![] },
            Request::EpochInfo,
        ]
    }

    #[test]
    fn request_binary_roundtrip() {
        for req in sample_requests() {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn request_text_roundtrip() {
        for req in sample_requests() {
            let line = format_request(&req);
            assert_eq!(parse_request_line(&line).unwrap().unwrap(), req, "{line}");
        }
        assert_eq!(parse_request_line("# comment").unwrap(), None);
        assert_eq!(parse_request_line("   ").unwrap(), None);
        assert!(parse_request_line("score").is_err());
        assert!(parse_request_line("score 5 @nope").is_err());
        assert!(parse_request_line("ingest 0:1:2:?").is_err());
        assert!(parse_request_line("frobnicate 1").is_err());
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::error(ERR_UNKNOWN_EPOCH, "epoch 9 not retained"),
            Response::Score {
                epoch: 4,
                node: 9,
                score: -0.125,
            },
            Response::Score {
                epoch: 0,
                node: 1,
                score: f64::NAN,
            },
            Response::TopK {
                epoch: 2,
                entries: vec![(3, 1.5), (1, 0.25)],
            },
            Response::Ingested {
                epoch: 5,
                events: 40,
                applied: 31,
                edges: 512,
            },
            Response::EpochInfo {
                epoch: 7,
                oldest: 2,
                nodes: 100,
                edges: 480,
            },
        ]
    }

    #[test]
    fn response_binary_roundtrip() {
        for resp in sample_responses() {
            let decoded = decode_response(&encode_response(&resp)).unwrap();
            // NaN != NaN under PartialEq; compare through the encoded
            // bytes, which carry exact bit patterns.
            assert_eq!(encode_response(&decoded), encode_response(&resp));
        }
    }

    /// Hex digits as bytes; spaces, which separate fields, are skipped.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|&b| b != b' ').collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// The exact payload of one message per request tag, field by field:
    /// a changed width or byte order fails here even when encoder and
    /// decoder change together.
    #[test]
    fn request_bytes_are_pinned() {
        let events = vec![
            StreamEvent::new(0x0102, 1, 0x0300, true),
            StreamEvent::new(9, 4, 5, false),
        ];
        let cases = [
            (
                Request::PointScore { epoch: 3, node: 17 },
                "01 0300000000000000 11000000",
            ),
            (
                Request::TopK {
                    epoch: LATEST,
                    k: 10,
                },
                "02 ffffffffffffffff 0a000000",
            ),
            (
                Request::IngestBatch { events },
                "03 02000000 0201000000000000 01000000 00030000 01 \
                 0900000000000000 04000000 05000000 00",
            ),
            (Request::EpochInfo, "04"),
        ];
        for (req, hex) in cases {
            assert_eq!(encode_request(&req), unhex(hex), "{req:?}");
            assert_eq!(decode_request(&unhex(hex)).unwrap(), req);
        }
    }

    /// The exact payload of one message per response tag, field by
    /// field (see [`request_bytes_are_pinned`]).
    #[test]
    fn response_bytes_are_pinned() {
        let cases = [
            (
                Response::error(ERR_UNKNOWN_EPOCH, "no"),
                "00 0300 02000000 6e6f",
            ),
            (
                Response::Score {
                    epoch: 4,
                    node: 9,
                    score: -0.125,
                },
                "01 0400000000000000 09000000 000000000000c0bf",
            ),
            (
                Response::TopK {
                    epoch: 2,
                    entries: vec![(3, 1.5)],
                },
                "02 0200000000000000 01000000 03000000 000000000000f83f",
            ),
            (
                Response::Ingested {
                    epoch: 5,
                    events: 40,
                    applied: 31,
                    edges: 512,
                },
                "03 0500000000000000 2800000000000000 1f00000000000000 0002000000000000",
            ),
            (
                Response::EpochInfo {
                    epoch: 7,
                    oldest: 2,
                    nodes: 100,
                    edges: 480,
                },
                "04 0700000000000000 0200000000000000 6400000000000000 e001000000000000",
            ),
        ];
        for (resp, hex) in cases {
            assert_eq!(encode_response(&resp), unhex(hex), "{resp:?}");
            assert_eq!(decode_response(&unhex(hex)).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_tag_and_truncation_are_typed() {
        assert_eq!(decode_request(&[99]), Err(WireError::UnknownTag(99)));
        assert_eq!(decode_request(&[1, 0, 0]), Err(WireError::Truncated));
        let mut extra = encode_request(&Request::EpochInfo);
        extra.push(0);
        assert_eq!(decode_request(&extra), Err(WireError::Trailing(1)));
        assert_eq!(decode_response(&[]), Err(WireError::Truncated));
        assert_eq!(decode_response(&[7]), Err(WireError::UnknownTag(7)));
    }

    #[test]
    fn transcript_lines_are_exact() {
        let line = render_response(&Response::Score {
            epoch: 1,
            node: 2,
            score: 0.5,
        });
        assert_eq!(
            line,
            "score epoch=1 node=2 bits=3fe0000000000000 (~0.500000)"
        );
    }

    /// Every truncation and every single-bit flip of `bytes`. Truncations
    /// must all be rejected; returns how many flips `accepted`.
    fn truncations_and_flips(bytes: &[u8], accepted: impl Fn(&[u8]) -> bool) -> usize {
        assert!(accepted(bytes), "the sample itself was rejected: {bytes:?}");
        for cut in 0..bytes.len() {
            assert!(!accepted(&bytes[..cut]), "{bytes:?} cut to {cut}: accepted");
        }
        let mut flips = 0;
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 << bit;
                flips += usize::from(accepted(&flipped));
            }
        }
        flips
    }

    /// `bytes` with the little-endian `u32` length or count at `at`
    /// raised to a value the payload cannot hold, up to `u32::MAX`: a
    /// decoder that sized an allocation from it unchecked would abort.
    fn inflated(bytes: &[u8], at: usize) -> Vec<Vec<u8>> {
        let x = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        [x + 1, 2 * x + 1, 10 * x + 1, 1 << 16, 1 << 31, u32::MAX]
            .into_iter()
            .map(|v| {
                let mut b = bytes.to_vec();
                b[at..at + 4].copy_from_slice(&v.to_le_bytes());
                b
            })
            .collect()
    }

    /// Deterministic mutations of one sample message per request and
    /// response shape: every truncation, every single-bit flip, and
    /// inflated length and count fields. Each must fail with a typed
    /// error or decode to a message that encodes back to exactly the
    /// mutated bytes; none may panic.
    #[test]
    fn mutated_messages_fail_typed_or_roundtrip_exactly() {
        let request_ok = |b: &[u8]| match decode_request(b) {
            Ok(req) => {
                assert_eq!(encode_request(&req), b, "{req:?} encodes otherwise");
                true
            }
            Err(_) => false,
        };
        let response_ok = |b: &[u8]| match decode_response(b) {
            Ok(resp) => {
                assert_eq!(encode_response(&resp), b, "{resp:?} encodes otherwise");
                true
            }
            Err(_) => false,
        };
        let mut flips = 0;
        for req in sample_requests() {
            let bytes = encode_request(&req);
            flips += truncations_and_flips(&bytes, request_ok);
            if let Request::IngestBatch { .. } = req {
                for bad in inflated(&bytes, 1) {
                    assert_eq!(decode_request(&bad), Err(WireError::Truncated));
                }
            }
        }
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            flips += truncations_and_flips(&bytes, response_ok);
            let count_at = match resp {
                Response::Error { .. } => 3,
                Response::TopK { .. } => 9,
                _ => continue,
            };
            for bad in inflated(&bytes, count_at) {
                assert_eq!(decode_response(&bad), Err(WireError::Truncated));
            }
        }
        // Field bits, for one, may change freely.
        assert!(flips > 0);
        // A flag byte is 0 or 1, so every flip is canonical or rejected.
        let mut batch = encode_request(&sample_requests()[3]);
        *batch.last_mut().unwrap() = 2;
        assert_eq!(decode_request(&batch), Err(WireError::BadFlag(2)));
    }

    /// The request-log parser under the same mutations of each sample
    /// line, at character level: nothing panics, and every line it
    /// accepts parses to a request whose canonical line parses back to
    /// it. The text form tolerates extra whitespace and number spellings
    /// (`+5`, `05`), so its round trip runs through the canonical line.
    #[test]
    fn mutated_request_lines_fail_typed_or_roundtrip() {
        let roundtrips = |line: &str| {
            if let Ok(Some(req)) = parse_request_line(line) {
                let canonical = format_request(&req);
                assert_eq!(parse_request_line(&canonical), Ok(Some(req)), "{line:?}");
            }
        };
        for req in sample_requests() {
            let line = format_request(&req);
            assert_eq!(parse_request_line(&line), Ok(Some(req)));
            for cut in 0..line.len() {
                roundtrips(&line[..cut]);
            }
            for at in 0..line.len() {
                for bit in 0..8 {
                    let mut bytes = line.clone().into_bytes();
                    bytes[at] ^= 1 << bit;
                    if let Ok(flipped) = std::str::from_utf8(&bytes) {
                        roundtrips(flipped);
                    }
                }
            }
            // Each number inflated past `u32`, and past every field type.
            for huge in ["4294967296", "18446744073709551616", &"1".repeat(40)] {
                let numbers = line.split(|c: char| !c.is_ascii_digit());
                for number in numbers.filter(|t| !t.is_empty()) {
                    let bad = line.replacen(number, huge, 1);
                    roundtrips(&bad);
                    if huge.len() > 10 {
                        assert!(parse_request_line(&bad).is_err(), "{bad:?}: accepted");
                    }
                }
            }
        }
    }
}
