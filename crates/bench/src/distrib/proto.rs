//! The tracker ↔ peer message protocol.
//!
//! Messages travel one per [`ba_net::frame`] frame, encoded with the
//! shared [`ba_net::wire`] primitives: a tag byte followed by the
//! variant's fields. Rows ride as the same newline-free record strings
//! the artifact store persists, so a row that crossed the wire merges
//! byte-identically to one computed in-process.
//!
//! The conversation: a peer opens with [`PeerMsg::Hello`] carrying the
//! suite fingerprint it derived locally; the tracker answers
//! [`TrackerMsg::Welcome`] (or [`TrackerMsg::Reject`] on mismatch —
//! a peer must never compute cells for a configuration it does not
//! have). Then the peer loops [`PeerMsg::Claim`] →
//! [`TrackerMsg::Lease`]/[`TrackerMsg::Wait`]/[`TrackerMsg::Done`],
//! reporting each cell with [`PeerMsg::Complete`] (or
//! [`PeerMsg::Failed`]) and receiving [`TrackerMsg::Ack`].
//! [`PeerMsg::Heartbeat`] frames are fire-and-forget — the tracker
//! sends no reply, so the peer's reply stream stays aligned with its
//! request stream even though heartbeats interleave from another
//! thread.

use crate::distrib::lease::CompleteOutcome;
use ba_net::wire::{WireDecodeError, WireReader, WireWriter};

/// Protocol decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload violated the wire primitives.
    Wire(WireDecodeError),
    /// The leading tag byte named no known message.
    UnknownTag(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Wire(e) => write!(f, "malformed message: {e}"),
            ProtoError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<WireDecodeError> for ProtoError {
    fn from(e: WireDecodeError) -> Self {
        ProtoError::Wire(e)
    }
}

/// Messages a peer sends to the tracker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerMsg {
    /// Handshake: the peer's display name and its locally derived suite
    /// fingerprint.
    Hello {
        /// Display name for tracker logs (e.g. `peer-0`).
        name: String,
        /// [`crate::runner::SuiteLayout`] fingerprint.
        fingerprint: String,
    },
    /// Request the next cell lease.
    Claim,
    /// A finished cell's rows, under the lease's epoch.
    Complete {
        /// Flat suite-wide cell index.
        cell: u64,
        /// The epoch the lease was granted at.
        epoch: u64,
        /// The cell's record rows (newline-free).
        rows: Vec<String>,
    },
    /// The cell panicked on this peer; the tracker fails its experiment
    /// exactly as the in-process runner would.
    Failed {
        /// Flat suite-wide cell index.
        cell: u64,
        /// The epoch the lease was granted at.
        epoch: u64,
        /// The panic payload.
        reason: String,
    },
    /// Keep-alive for a long-running cell. No reply.
    Heartbeat {
        /// Flat suite-wide cell index.
        cell: u64,
        /// The epoch the lease was granted at.
        epoch: u64,
    },
}

const P_HELLO: u8 = 1;
const P_CLAIM: u8 = 2;
const P_COMPLETE: u8 = 3;
const P_FAILED: u8 = 4;
const P_HEARTBEAT: u8 = 5;

/// Encodes a peer message.
pub fn encode_peer(msg: &PeerMsg) -> Vec<u8> {
    let mut w = WireWriter::new();
    match msg {
        PeerMsg::Hello { name, fingerprint } => {
            w.put_u8(P_HELLO).put_str(name).put_str(fingerprint);
        }
        PeerMsg::Claim => {
            w.put_u8(P_CLAIM);
        }
        PeerMsg::Complete { cell, epoch, rows } => {
            w.put_u8(P_COMPLETE)
                .put_u64(*cell)
                .put_u64(*epoch)
                .put_str_list(rows);
        }
        PeerMsg::Failed {
            cell,
            epoch,
            reason,
        } => {
            w.put_u8(P_FAILED)
                .put_u64(*cell)
                .put_u64(*epoch)
                .put_str(reason);
        }
        PeerMsg::Heartbeat { cell, epoch } => {
            w.put_u8(P_HEARTBEAT).put_u64(*cell).put_u64(*epoch);
        }
    }
    w.finish()
}

/// Decodes a peer message, rejecting trailing bytes.
pub fn decode_peer(payload: &[u8]) -> Result<PeerMsg, ProtoError> {
    let mut r = WireReader::new(payload);
    let msg = match r.u8()? {
        P_HELLO => PeerMsg::Hello {
            name: r.str()?,
            fingerprint: r.str()?,
        },
        P_CLAIM => PeerMsg::Claim,
        P_COMPLETE => PeerMsg::Complete {
            cell: r.u64()?,
            epoch: r.u64()?,
            rows: r.str_list()?,
        },
        P_FAILED => PeerMsg::Failed {
            cell: r.u64()?,
            epoch: r.u64()?,
            reason: r.str()?,
        },
        P_HEARTBEAT => PeerMsg::Heartbeat {
            cell: r.u64()?,
            epoch: r.u64()?,
        },
        tag => return Err(ProtoError::UnknownTag(tag)),
    };
    r.finish()?;
    Ok(msg)
}

/// Messages the tracker sends to a peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrackerMsg {
    /// Handshake accepted: the peer's worker id and the heartbeat
    /// interval it must keep while holding a lease.
    Welcome {
        /// Tracker-assigned worker id.
        worker: u64,
        /// Heartbeat interval in milliseconds.
        heartbeat_ms: u64,
    },
    /// Handshake refused (fingerprint mismatch); the peer must exit.
    Reject {
        /// Human-readable refusal.
        reason: String,
    },
    /// A cell lease.
    Lease {
        /// Flat suite-wide cell index.
        cell: u64,
        /// The lease's epoch; the peer echoes it on completion.
        epoch: u64,
    },
    /// Nothing pending right now; poll again after `poll_ms`.
    Wait {
        /// Suggested back-off in milliseconds.
        poll_ms: u64,
    },
    /// Every cell is completed; the peer should close cleanly.
    Done,
    /// Receipt for a `Complete`/`Failed` report.
    Ack {
        /// What the lease table decided.
        status: CompleteOutcome,
    },
}

const T_WELCOME: u8 = 1;
const T_REJECT: u8 = 2;
const T_LEASE: u8 = 3;
const T_WAIT: u8 = 4;
const T_DONE: u8 = 5;
const T_ACK: u8 = 6;

const ACK_ACCEPTED: u8 = 0;
const ACK_DUPLICATE: u8 = 1;
const ACK_STALE: u8 = 2;

/// Encodes a tracker message.
pub fn encode_tracker(msg: &TrackerMsg) -> Vec<u8> {
    let mut w = WireWriter::new();
    match msg {
        TrackerMsg::Welcome {
            worker,
            heartbeat_ms,
        } => {
            w.put_u8(T_WELCOME).put_u64(*worker).put_u64(*heartbeat_ms);
        }
        TrackerMsg::Reject { reason } => {
            w.put_u8(T_REJECT).put_str(reason);
        }
        TrackerMsg::Lease { cell, epoch } => {
            w.put_u8(T_LEASE).put_u64(*cell).put_u64(*epoch);
        }
        TrackerMsg::Wait { poll_ms } => {
            w.put_u8(T_WAIT).put_u64(*poll_ms);
        }
        TrackerMsg::Done => {
            w.put_u8(T_DONE);
        }
        TrackerMsg::Ack { status } => {
            w.put_u8(T_ACK).put_u8(match status {
                CompleteOutcome::Accepted => ACK_ACCEPTED,
                CompleteOutcome::Duplicate => ACK_DUPLICATE,
                CompleteOutcome::Stale => ACK_STALE,
            });
        }
    }
    w.finish()
}

/// Decodes a tracker message, rejecting trailing bytes.
pub fn decode_tracker(payload: &[u8]) -> Result<TrackerMsg, ProtoError> {
    let mut r = WireReader::new(payload);
    let msg = match r.u8()? {
        T_WELCOME => TrackerMsg::Welcome {
            worker: r.u64()?,
            heartbeat_ms: r.u64()?,
        },
        T_REJECT => TrackerMsg::Reject { reason: r.str()? },
        T_LEASE => TrackerMsg::Lease {
            cell: r.u64()?,
            epoch: r.u64()?,
        },
        T_WAIT => TrackerMsg::Wait { poll_ms: r.u64()? },
        T_DONE => TrackerMsg::Done,
        T_ACK => TrackerMsg::Ack {
            status: match r.u8()? {
                ACK_ACCEPTED => CompleteOutcome::Accepted,
                ACK_DUPLICATE => CompleteOutcome::Duplicate,
                ACK_STALE => CompleteOutcome::Stale,
                tag => return Err(ProtoError::UnknownTag(tag)),
            },
        },
        tag => return Err(ProtoError::UnknownTag(tag)),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_peer_msgs() -> [PeerMsg; 5] {
        [
            PeerMsg::Hello {
                name: "peer-0".into(),
                fingerprint: "seed=42|cfg=abc".into(),
            },
            PeerMsg::Claim,
            PeerMsg::Complete {
                cell: 7,
                epoch: 3,
                rows: vec!["meta,nodes=10".into(), "curve,0;1".into()],
            },
            PeerMsg::Failed {
                cell: 7,
                epoch: 3,
                reason: "deliberate test panic".into(),
            },
            PeerMsg::Heartbeat { cell: 7, epoch: 3 },
        ]
    }

    fn sample_tracker_msgs() -> [TrackerMsg; 8] {
        [
            TrackerMsg::Welcome {
                worker: 2,
                heartbeat_ms: 500,
            },
            TrackerMsg::Reject {
                reason: "fingerprint mismatch".into(),
            },
            TrackerMsg::Lease { cell: 11, epoch: 4 },
            TrackerMsg::Wait { poll_ms: 50 },
            TrackerMsg::Done,
            TrackerMsg::Ack {
                status: CompleteOutcome::Accepted,
            },
            TrackerMsg::Ack {
                status: CompleteOutcome::Duplicate,
            },
            TrackerMsg::Ack {
                status: CompleteOutcome::Stale,
            },
        ]
    }

    #[test]
    fn peer_messages_roundtrip() {
        for msg in &sample_peer_msgs() {
            assert_eq!(&decode_peer(&encode_peer(msg)).unwrap(), msg);
        }
    }

    #[test]
    fn tracker_messages_roundtrip() {
        for msg in &sample_tracker_msgs() {
            assert_eq!(&decode_tracker(&encode_tracker(msg)).unwrap(), msg);
        }
    }

    /// `accepted` on every truncation (each must be rejected) and every
    /// single-bit flip of `bytes`, then on each little-endian `u64`
    /// length or count at `fields` raised past what the payload holds,
    /// up to `u64::MAX` (each must be rejected: a decoder that sized an
    /// allocation from it unchecked would abort). Returns how many
    /// flips were accepted.
    fn mutations(bytes: &[u8], fields: &[usize], accepted: impl Fn(&[u8]) -> bool) -> usize {
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
        for &at in fields {
            let x = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            for v in [x + 1, 2 * x + 1, 10 * x + 1, 1 << 32, 1 << 63, u64::MAX] {
                let mut bad = bytes.to_vec();
                bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
                assert!(!accepted(&bad), "field at {at} = {v}: accepted");
            }
        }
        flips
    }

    /// Deterministic mutations of every sample message in both
    /// directions: each must fail with a typed error or decode to a
    /// message that encodes back to exactly the mutated bytes; none may
    /// panic.
    #[test]
    fn mutated_messages_fail_typed_or_roundtrip_exactly() {
        let peer_ok = |b: &[u8]| match decode_peer(b) {
            Ok(msg) => {
                assert_eq!(encode_peer(&msg), b, "{msg:?} encodes otherwise");
                true
            }
            Err(_) => false,
        };
        let tracker_ok = |b: &[u8]| match decode_tracker(b) {
            Ok(msg) => {
                assert_eq!(encode_tracker(&msg), b, "{msg:?} encodes otherwise");
                true
            }
            Err(_) => false,
        };
        let mut flips = 0;
        for msg in sample_peer_msgs() {
            // Offsets of the length and count fields after the tag byte.
            let fields: &[usize] = match &msg {
                PeerMsg::Hello { name, .. } => &[1, 9 + name.len()][..],
                PeerMsg::Complete { .. } => &[17, 25],
                PeerMsg::Failed { .. } => &[17],
                _ => &[],
            };
            flips += mutations(&encode_peer(&msg), fields, peer_ok);
        }
        for msg in sample_tracker_msgs() {
            let fields: &[usize] = match msg {
                TrackerMsg::Reject { .. } => &[1],
                _ => &[],
            };
            flips += mutations(&encode_tracker(&msg), fields, tracker_ok);
        }
        // Field bits, for one, may change freely.
        assert!(flips > 0);
    }

    #[test]
    fn unknown_tags_and_truncation_are_rejected() {
        assert_eq!(decode_peer(&[99]), Err(ProtoError::UnknownTag(99)));
        assert_eq!(decode_tracker(&[99]), Err(ProtoError::UnknownTag(99)));
        let bytes = encode_peer(&PeerMsg::Complete {
            cell: 1,
            epoch: 1,
            rows: vec!["row".into()],
        });
        for cut in 0..bytes.len() {
            assert!(decode_peer(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_peer(&PeerMsg::Claim);
        bytes.push(0);
        assert_eq!(
            decode_peer(&bytes),
            Err(ProtoError::Wire(WireDecodeError::Trailing(1)))
        );
    }
}
