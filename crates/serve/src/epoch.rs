//! Epoch rotation: frozen snapshots published behind swapped `Arc`s.
//!
//! The serving layer's core invariant is that **reads never block
//! ingest** (and ingest never tears a read): every query is answered
//! from an [`EpochSnapshot`] — the edge count, features and fitted
//! model frozen at one batch boundary — while ingest mutates only the private `StreamEngine`
//! behind its own lock and *publishes* the next epoch as a new `Arc`
//! when the batch completes. A reader pins an epoch by cloning its
//! `Arc` under a briefly-held read lock; from then on its entire
//! response is computed against immutable data, so a publish happening
//! concurrently can never produce a response that mixes two epochs.
//!
//! [`EpochStore`] retains the most recent `retain` epochs so *pinned*
//! queries (epoch-numbered, as the replay harness issues) can be
//! answered as long as the pin is within the window; older epochs are
//! evicted and report [`ERR_UNKNOWN_EPOCH`]
//! deterministically.

use crate::protocol::{
    Request, Response, ERR_DEGENERATE, ERR_NODE_RANGE, ERR_UNKNOWN_EPOCH, LATEST,
};
use ba_stream::{EpochSnapshot, StreamEngine, StreamEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

/// The retained epoch window.
#[derive(Debug)]
pub struct EpochStore {
    retain: usize,
    epochs: BTreeMap<u64, Arc<EpochSnapshot>>,
}

impl EpochStore {
    /// Builds a store seeded with one initial epoch; at least one epoch
    /// is always retained.
    pub fn new(retain: usize, initial: EpochSnapshot) -> Self {
        let mut epochs = BTreeMap::new();
        epochs.insert(initial.epoch, Arc::new(initial));
        Self {
            retain: retain.max(1),
            epochs,
        }
    }

    /// Publishes a new epoch and evicts beyond the retention window.
    pub fn publish(&mut self, snap: EpochSnapshot) {
        self.epochs.insert(snap.epoch, Arc::new(snap));
        while self.epochs.len() > self.retain {
            self.epochs.pop_first();
        }
    }

    /// The latest epoch (the store is never empty).
    pub fn latest(&self) -> Arc<EpochSnapshot> {
        // ba-lint: allow(panic-path) -- the store is constructed with a seed epoch and eviction keeps at least one, so it is never empty
        Arc::clone(self.epochs.last_key_value().expect("store is non-empty").1)
    }

    /// Pins `epoch` ([`LATEST`] resolves to the newest); `None` if the
    /// epoch was evicted or never published.
    pub fn pin(&self, epoch: u64) -> Option<Arc<EpochSnapshot>> {
        if epoch == LATEST {
            Some(self.latest())
        } else {
            self.epochs.get(&epoch).map(Arc::clone)
        }
    }

    /// Oldest epoch still retained.
    pub fn oldest(&self) -> u64 {
        // ba-lint: allow(panic-path) -- the store is constructed with a seed epoch and eviction keeps at least one, so it is never empty
        *self.epochs.first_key_value().expect("store is non-empty").0
    }

    /// Newest epoch number.
    pub fn latest_epoch(&self) -> u64 {
        // ba-lint: allow(panic-path) -- the store is constructed with a seed epoch and eviction keeps at least one, so it is never empty
        *self.epochs.last_key_value().expect("store is non-empty").0
    }

    /// Number of retained epochs.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Always false — the store keeps at least the seed epoch.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }
}

/// The shared server state: the mutable engine (ingest side) and the
/// published epoch window (read side).
#[derive(Debug)]
pub struct ServeState {
    engine: Mutex<StreamEngine>,
    epochs: RwLock<EpochStore>,
}

impl ServeState {
    /// Wraps an engine, publishing its current state as the first
    /// visible epoch.
    pub fn new(engine: StreamEngine, retain: usize) -> Self {
        let initial = engine.epoch_snapshot();
        Self {
            engine: Mutex::new(engine),
            epochs: RwLock::new(EpochStore::new(retain, initial)),
        }
    }

    /// Pins an epoch for reading (see [`EpochStore::pin`]).
    pub fn pin(&self, epoch: u64) -> Option<Arc<EpochSnapshot>> {
        self.epochs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .pin(epoch)
    }

    /// Handles one request. Every arm is a pure function of the request
    /// and the pinned epoch's frozen state (ingest additionally
    /// advances the engine), so responses are replayable byte-for-byte.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::PointScore { epoch, node } => match self.pin(*epoch) {
                None => unknown_epoch(*epoch),
                Some(snap) => {
                    if *node as usize >= snap.num_nodes() {
                        return Response::error(
                            ERR_NODE_RANGE,
                            format!("node {node} out of range (n = {})", snap.num_nodes()),
                        );
                    }
                    match snap.score(*node) {
                        Ok(score) => Response::Score {
                            epoch: snap.epoch,
                            node: *node,
                            score,
                        },
                        Err(reason) => Response::error(
                            ERR_DEGENERATE,
                            format!("epoch {} model is degenerate: {reason}", snap.epoch),
                        ),
                    }
                }
            },
            Request::TopK { epoch, k } => match self.pin(*epoch) {
                None => unknown_epoch(*epoch),
                Some(snap) => match snap.top_k(*k as usize) {
                    Ok(entries) => Response::TopK {
                        epoch: snap.epoch,
                        entries,
                    },
                    Err(reason) => Response::error(
                        ERR_DEGENERATE,
                        format!("epoch {} model is degenerate: {reason}", snap.epoch),
                    ),
                },
            },
            Request::IngestBatch { events } => self.ingest(events),
            Request::EpochInfo => {
                let store = self.epochs.read().unwrap_or_else(|e| e.into_inner());
                let latest = store.latest();
                Response::EpochInfo {
                    epoch: store.latest_epoch(),
                    oldest: store.oldest(),
                    nodes: latest.num_nodes() as u64,
                    edges: latest.num_edges() as u64,
                }
            }
        }
    }

    /// Ingests one batch and publishes the resulting epoch. The engine
    /// lock serialises concurrent ingests (epoch numbers are assigned
    /// in lock order); the epoch write lock is taken only for the
    /// `BTreeMap` insert, while the engine lock is still held, so
    /// epochs are published in ingest order.
    pub fn ingest(&self, events: &[StreamEvent]) -> Response {
        let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        let summary = engine.ingest_batch(events);
        let snap = engine.epoch_snapshot();
        self.epochs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .publish(snap);
        Response::Ingested {
            epoch: summary.batch,
            events: summary.events as u64,
            applied: summary.applied as u64,
            edges: summary.edges as u64,
        }
    }
}

fn unknown_epoch(epoch: u64) -> Response {
    Response::error(ERR_UNKNOWN_EPOCH, format!("epoch {epoch} not retained"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_graph::generators;
    use ba_stream::{synthetic_stream, StreamConfig};

    fn state() -> ServeState {
        let g = generators::erdos_renyi(100, 0.06, 7);
        ServeState::new(StreamEngine::new(&g, StreamConfig::default()), 4)
    }

    #[test]
    fn ingest_publishes_monotone_epochs_and_evicts() {
        let g = generators::erdos_renyi(100, 0.06, 7);
        let st = state();
        let events = synthetic_stream(&g, 120, 3);
        for (i, batch) in events.chunks(20).enumerate() {
            let resp = st.ingest(batch);
            let Response::Ingested { epoch, .. } = resp else {
                panic!("expected Ingested, got {resp:?}");
            };
            assert_eq!(epoch, i as u64 + 1);
        }
        // retain = 4: epochs 3..=6 remain, 0..=2 evicted.
        assert!(st.pin(6).is_some());
        assert!(st.pin(3).is_some());
        assert!(st.pin(2).is_none());
        assert_eq!(st.pin(LATEST).unwrap().epoch, 6);
        match st.handle(&Request::EpochInfo) {
            Response::EpochInfo { epoch, oldest, .. } => {
                assert_eq!((epoch, oldest), (6, 3));
            }
            other => panic!("expected EpochInfo, got {other:?}"),
        }
    }

    #[test]
    fn pinned_queries_answer_from_the_pinned_epoch() {
        let g = generators::erdos_renyi(100, 0.06, 7);
        let st = state();
        let before = match st.handle(&Request::TopK { epoch: 0, k: 5 }) {
            Response::TopK { epoch, entries } => {
                assert_eq!(epoch, 0);
                entries
            }
            other => panic!("{other:?}"),
        };
        st.ingest(&synthetic_stream(&g, 40, 5));
        // The pinned answer is unchanged by the ingest.
        match st.handle(&Request::TopK { epoch: 0, k: 5 }) {
            Response::TopK { epoch, entries } => {
                assert_eq!(epoch, 0);
                assert_eq!(entries, before);
            }
            other => panic!("{other:?}"),
        }
        // LATEST resolves to the new epoch.
        match st.handle(&Request::PointScore {
            epoch: LATEST,
            node: 1,
        }) {
            Response::Score { epoch, .. } => assert_eq!(epoch, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_paths_are_deterministic() {
        let st = state();
        assert_eq!(
            st.handle(&Request::PointScore { epoch: 9, node: 0 }),
            Response::error(ERR_UNKNOWN_EPOCH, "epoch 9 not retained")
        );
        assert_eq!(
            st.handle(&Request::PointScore {
                epoch: 0,
                node: 100
            }),
            Response::error(ERR_NODE_RANGE, "node 100 out of range (n = 100)")
        );
    }
}
