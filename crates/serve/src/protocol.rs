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
//! | 3 | ingest-batch | `count: u32, (time: u64, u: u32, v: u32, insert: u8)*` |
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
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            WireError::UnknownTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian field reader over a payload slice.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        if self.0.len() < N {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        // ba-lint: allow(panic-path) -- split_at(N) after the length guard yields a head of exactly N bytes, so the array conversion cannot fail
        Ok(head.try_into().expect("split_at guarantees length"))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing(self.0.len()))
        }
    }
}

/// Encodes a request payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::PointScore { epoch, node } => {
            out.push(1);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&node.to_le_bytes());
        }
        Request::TopK { epoch, k } => {
            out.push(2);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
        }
        Request::IngestBatch { events } => {
            out.push(3);
            out.extend_from_slice(&(events.len() as u32).to_le_bytes());
            for ev in events {
                out.extend_from_slice(&ev.time.to_le_bytes());
                out.extend_from_slice(&ev.u.to_le_bytes());
                out.extend_from_slice(&ev.v.to_le_bytes());
                out.push(u8::from(ev.insert));
            }
        }
        Request::EpochInfo => out.push(4),
    }
    out
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor(payload);
    let req = match c.u8()? {
        1 => Request::PointScore {
            epoch: c.u64()?,
            node: c.u32()?,
        },
        2 => Request::TopK {
            epoch: c.u64()?,
            k: c.u32()?,
        },
        3 => {
            let count = c.u32()?;
            let mut events = Vec::with_capacity((count as usize).min(1 << 16));
            for _ in 0..count {
                let time = c.u64()?;
                let u = c.u32()?;
                let v = c.u32()?;
                let insert = c.u8()? != 0;
                events.push(StreamEvent::new(time, u, v, insert));
            }
            Request::IngestBatch { events }
        }
        4 => Request::EpochInfo,
        other => return Err(WireError::UnknownTag(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Error { code, message } => {
            out.push(0);
            out.extend_from_slice(&code.to_le_bytes());
            out.extend_from_slice(&(message.len() as u32).to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
        Response::Score { epoch, node, score } => {
            out.push(1);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&node.to_le_bytes());
            out.extend_from_slice(&score.to_bits().to_le_bytes());
        }
        Response::TopK { epoch, entries } => {
            out.push(2);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (node, score) in entries {
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&score.to_bits().to_le_bytes());
            }
        }
        Response::Ingested {
            epoch,
            events,
            applied,
            edges,
        } => {
            out.push(3);
            for field in [epoch, events, applied, edges] {
                out.extend_from_slice(&field.to_le_bytes());
            }
        }
        Response::EpochInfo {
            epoch,
            oldest,
            nodes,
            edges,
        } => {
            out.push(4);
            for field in [epoch, oldest, nodes, edges] {
                out.extend_from_slice(&field.to_le_bytes());
            }
        }
    }
    out
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor(payload);
    let resp = match c.u8()? {
        0 => {
            let code = c.u16()?;
            let len = c.u32()? as usize;
            if c.0.len() < len {
                return Err(WireError::Truncated);
            }
            let (text, rest) = c.0.split_at(len);
            c.0 = rest;
            Response::Error {
                code,
                message: String::from_utf8(text.to_vec()).map_err(|_| WireError::BadUtf8)?,
            }
        }
        1 => Response::Score {
            epoch: c.u64()?,
            node: c.u32()?,
            score: f64::from_bits(c.u64()?),
        },
        2 => {
            let epoch = c.u64()?;
            let count = c.u32()?;
            let mut entries = Vec::with_capacity((count as usize).min(1 << 16));
            for _ in 0..count {
                let node = c.u32()?;
                entries.push((node, f64::from_bits(c.u64()?)));
            }
            Response::TopK { epoch, entries }
        }
        3 => Response::Ingested {
            epoch: c.u64()?,
            events: c.u64()?,
            applied: c.u64()?,
            edges: c.u64()?,
        },
        4 => Response::EpochInfo {
            epoch: c.u64()?,
            oldest: c.u64()?,
            nodes: c.u64()?,
            edges: c.u64()?,
        },
        other => return Err(WireError::UnknownTag(other)),
    };
    c.finish()?;
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

    #[test]
    fn response_binary_roundtrip() {
        let responses = vec![
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
        ];
        for resp in responses {
            let decoded = decode_response(&encode_response(&resp)).unwrap();
            // NaN != NaN under PartialEq; compare through the encoded
            // bytes, which carry exact bit patterns.
            assert_eq!(encode_response(&decoded), encode_response(&resp));
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
}
