//! The tracker: the coordinator of a distributed suite run.
//!
//! A [`Tracker`] binds a TCP listener over a `SuitePlan` and hands
//! out cell leases to connecting peers (one thread per connection,
//! the same shape as `ba-serve`'s front door). All distribution state
//! lives in the pure [`LeaseTable`]; the tracker adds only wiring:
//!
//! * **Handshake gating** — a peer whose locally derived
//!   [`crate::runner::SuiteLayout`] fingerprint differs is rejected before it can
//!   compute a single cell for the wrong configuration.
//! * **Crash recovery via the artifact store** — accepted rows are
//!   committed through `SuitePlan::commit` (row file before manifest,
//!   both atomic renames), so a tracker restarted with `--resume`
//!   adopts every landed cell, marks it completed in the lease table,
//!   and re-leases only the rest. A re-leased cell whose row already
//!   landed comes back as `Duplicate` and is never recomputed or
//!   double-merged.
//! * **Failure detection** — a severed peer connection releases its
//!   leases immediately; a silent stall is caught by the lease timeout
//!   (peers heartbeat at `lease_ms / 3` to stay ahead of it).
//! * **Deterministic merge** — completed rows land in the same
//!   cell-index-ordered merge the in-process runner uses, so the final
//!   CSVs are byte-identical to a single-machine `--threads 1` run at
//!   any fleet size, any interleaving, and any number of mid-run
//!   crashes.

use crate::distrib::lease::{ClaimOutcome, CompleteOutcome, LeaseTable};
use crate::distrib::proto::{decode_peer, encode_tracker, PeerMsg, TrackerMsg};
use crate::runner::{Experiment, SuitePlan};
use crate::ExpOptions;
use ba_net::frame::{read_frame, write_frame};
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tracker tuning knobs.
#[derive(Debug, Clone)]
pub struct TrackerConfig {
    /// Lease duration in milliseconds: a worker silent for this long
    /// loses its cell to re-leasing.
    pub lease_ms: u64,
    /// Back-off a peer is told to sleep when nothing is pending.
    pub poll_ms: u64,
    /// Abort the run when cells are pending but no worker has been
    /// connected for this long (guards CI against a dead fleet).
    /// `0` disables the watchdog.
    pub idle_abort_ms: u64,
    /// Fault injection: the named peer is reported through the
    /// first-lease hook (see [`Tracker::serve_with_hook`]) immediately
    /// after its first lease frame is written, and its connection is
    /// then dropped with its leases released — the CLI uses this to
    /// kill a spawned worker process deterministically mid-cell.
    pub kill_peer: Option<String>,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self {
            lease_ms: 10_000,
            poll_ms: 30,
            idle_abort_ms: 120_000,
            kill_peer: None,
        }
    }
}

/// What happened during a distributed run — the counters the
/// fault-injection tests assert on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrackerReport {
    /// Cells adopted from the artifact store before serving.
    pub adopted: usize,
    /// Cells whose rows were accepted from peers this run.
    pub computed: u64,
    /// Leases handed out (≥ `computed` when anything was re-leased).
    pub leases: u64,
    /// Leases re-pended because a peer connection dropped.
    pub releases: u64,
    /// Leases re-pended because their deadline passed.
    pub expirations: u64,
    /// Completions for already-completed cells (acknowledged, dropped).
    pub duplicates: u64,
    /// Completions under a superseded epoch (dropped).
    pub stales: u64,
    /// Peers refused at handshake (fingerprint mismatch).
    pub rejected: u64,
    /// Whether every experiment finalized (no cell failures).
    pub all_ok: bool,
}

/// Called with the peer's name right after its first lease frame is
/// written — the deterministic mid-cell point for fault injection.
pub type FirstLeaseHook = Box<dyn Fn(&str) + Send + Sync>;

/// A bound, not-yet-serving tracker. Binding first lets the caller
/// learn the resolved port (e.g. `127.0.0.1:0`) before spawning the
/// peers that must connect to it.
pub struct Tracker {
    listener: TcpListener,
    local_addr: SocketAddr,
}

/// Everything the connection threads share.
struct Shared<'a, 'b> {
    plan: &'a SuitePlan,
    exps: &'a [&'b dyn Experiment],
    table: Mutex<LeaseTable>,
    cfg: &'a TrackerConfig,
    hook: Option<&'a FirstLeaseHook>,
    local_addr: SocketAddr,
    t0: Instant,
    stop: AtomicBool,
    aborted: AtomicBool,
    next_worker: AtomicU64,
    active_workers: AtomicU64,
    ever_connected: AtomicBool,
    computed: AtomicU64,
    leases: AtomicU64,
    releases: AtomicU64,
    expirations: AtomicU64,
    duplicates: AtomicU64,
    stales: AtomicU64,
    rejected: AtomicU64,
}

impl Shared<'_, '_> {
    /// Milliseconds since serving began — the lease table's clock.
    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// Signals shutdown and wakes the accept loop (which blocks in
    /// `accept`) with a throwaway self-connection.
    fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.local_addr);
        }
    }
}

impl Tracker {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves the suite to completion and finalizes the merge.
    pub fn serve(
        self,
        exps: &[&dyn Experiment],
        opts: &ExpOptions,
        cfg: &TrackerConfig,
    ) -> io::Result<TrackerReport> {
        self.serve_with_hook(exps, opts, cfg, None)
    }

    /// [`Tracker::serve`] with a fault-injection hook: when
    /// `cfg.kill_peer` names a peer, `hook` is called with that name
    /// right after its first lease frame is written, and the tracker
    /// then releases that worker's leases and drops its connection, so
    /// the leased cell is re-leased however far the peer got with it.
    pub fn serve_with_hook(
        self,
        exps: &[&dyn Experiment],
        opts: &ExpOptions,
        cfg: &TrackerConfig,
        hook: Option<FirstLeaseHook>,
    ) -> io::Result<TrackerReport> {
        let plan = SuitePlan::build(exps, opts, opts.resume)?;
        let total = plan.layout.total;
        let adopted = total - plan.pending.len();

        let mut table = LeaseTable::new(total, cfg.lease_ms);
        let mut is_pending = vec![false; total];
        for &(ei, cell) in &plan.pending {
            is_pending[plan.layout.offsets[ei] + cell] = true;
        }
        for (flat, pending) in is_pending.iter().enumerate() {
            if !pending {
                table.mark_completed(flat);
            }
        }

        // Readiness line: scripts and tests wait for it (the listener
        // is already bound, so a peer racing this line merely queues in
        // the accept backlog).
        eprintln!(
            "[tracker] listening on {} ({} cell(s): {} to lease, {adopted} adopted)",
            self.local_addr,
            total,
            plan.pending.len()
        );

        let shared = Shared {
            plan: &plan,
            exps,
            table: Mutex::new(table),
            cfg,
            hook: hook.as_ref(),
            local_addr: self.local_addr,
            t0: Instant::now(),
            stop: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            next_worker: AtomicU64::new(1),
            active_workers: AtomicU64::new(0),
            ever_connected: AtomicBool::new(false),
            computed: AtomicU64::new(0),
            leases: AtomicU64::new(0),
            releases: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            stales: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        };

        std::thread::scope(|scope| {
            // Expiry / watchdog thread: re-pends timed-out leases and
            // stops the run when every cell completed (the completing
            // connection also stops it — this is the backstop for a
            // fully-adopted resume with nothing to lease).
            scope.spawn(|| {
                let tick = (cfg.lease_ms / 4).clamp(5, 250);
                let mut idle_since = Instant::now();
                loop {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(tick));
                    let now = shared.now_ms();
                    let (expired, done) = {
                        // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
                        let mut table = shared.table.lock().expect("lease table");
                        (table.expire(now), table.all_done())
                    };
                    for cell in &expired {
                        eprintln!("[tracker] lease on cell {cell} expired; re-leasing");
                    }
                    shared
                        .expirations
                        .fetch_add(expired.len() as u64, Ordering::Relaxed);
                    if done {
                        shared.request_stop();
                        break;
                    }
                    // Dead-fleet watchdog: pending cells but no worker.
                    if shared.active_workers.load(Ordering::SeqCst) > 0 {
                        idle_since = Instant::now();
                    } else if cfg.idle_abort_ms > 0
                        && idle_since.elapsed().as_millis() as u64 > cfg.idle_abort_ms
                    {
                        eprintln!(
                            "[tracker] no worker connected for {}ms with cells pending; aborting",
                            cfg.idle_abort_ms
                        );
                        shared.aborted.store(true, Ordering::SeqCst);
                        shared.request_stop();
                        break;
                    }
                }
            });

            // Accept loop, on the scope's own thread.
            let mut conns: Vec<(std::thread::ScopedJoinHandle<'_, ()>, TcpStream)> = Vec::new();
            for stream in self.listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Ok(socket) = stream.try_clone() else {
                    continue;
                };
                let shared = &shared;
                let handle = scope.spawn(move || {
                    let socket = stream.try_clone().ok();
                    serve_peer(stream, shared);
                    // The accept loop holds another clone, so dropping
                    // `stream` alone would not send the FIN.
                    if let Some(socket) = socket {
                        let _ = socket.shutdown(Shutdown::Both);
                    }
                });
                conns.push((handle, socket));
                conns.retain(|(h, _)| !h.is_finished());
            }
            // Grace period: peers that just received `Done` (or are
            // about to claim and receive it) disconnect on their own;
            // only then sever whatever is left (a hung peer's thread
            // would otherwise block the scope join forever).
            let grace = Instant::now();
            while grace.elapsed().as_millis() < 2_000 && conns.iter().any(|(h, _)| !h.is_finished())
            {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            for (_, socket) in &conns {
                let _ = socket.shutdown(Shutdown::Both);
            }
        });

        if shared.aborted.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "tracker aborted: cells pending but no worker connected",
            ));
        }

        let all_ok = plan
            .merge_and_finalize(exps, opts)
            .map_err(io::Error::other)?
            .is_empty();
        let report = TrackerReport {
            adopted,
            computed: shared.computed.load(Ordering::Relaxed),
            leases: shared.leases.load(Ordering::Relaxed),
            releases: shared.releases.load(Ordering::Relaxed),
            expirations: shared.expirations.load(Ordering::Relaxed),
            duplicates: shared.duplicates.load(Ordering::Relaxed),
            stales: shared.stales.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            all_ok,
        };
        eprintln!(
            "[tracker] run complete: {} computed, {adopted} adopted, \
             {} re-leased ({} dropped conns, {} timeouts), {} duplicate(s), {} stale",
            report.computed,
            report.releases + report.expirations,
            report.releases,
            report.expirations,
            report.duplicates,
            report.stales
        );
        Ok(report)
    }
}

/// Runs one peer connection to completion. All exits release the
/// worker's outstanding leases; errors are logged, not propagated — a
/// dying peer is an expected event, and its cells simply re-lease.
fn serve_peer(stream: TcpStream, shared: &Shared<'_, '_>) {
    stream.set_nodelay(true).ok();
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut writer = BufWriter::new(stream);

    // Handshake: Hello carrying a matching fingerprint, or nothing.
    let (name, worker) = match read_frame(&mut reader) {
        Ok(Some(payload)) => match decode_peer(&payload) {
            Ok(PeerMsg::Hello { name, fingerprint }) => {
                if fingerprint != shared.plan.layout.fingerprint {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    eprintln!("[tracker] rejected {name}: suite fingerprint mismatch");
                    let reject = TrackerMsg::Reject {
                        reason: "suite fingerprint mismatch".into(),
                    };
                    let _ = write_frame(&mut writer, &encode_tracker(&reject));
                    return;
                }
                let worker = shared.next_worker.fetch_add(1, Ordering::Relaxed);
                let welcome = TrackerMsg::Welcome {
                    worker,
                    // Three heartbeats per lease window: one lost frame
                    // never expires a live worker.
                    heartbeat_ms: (shared.cfg.lease_ms / 3).max(1),
                };
                if write_frame(&mut writer, &encode_tracker(&welcome)).is_err() {
                    return;
                }
                eprintln!("[tracker] {name} connected as worker {worker}");
                (name, worker)
            }
            Ok(_) | Err(_) => return, // not a handshake; drop silently
        },
        // The shutdown wake-up connection and port scans land here.
        Ok(None) | Err(_) => return,
    };

    shared.ever_connected.store(true, Ordering::SeqCst);
    shared.active_workers.fetch_add(1, Ordering::SeqCst);
    let mut first_lease = true;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                // Clean close: the peer is done (post-`Done`) or chose
                // to leave; either way its leases go back in the pool.
                release(shared, worker, &name);
                break;
            }
            Err(e) => {
                eprintln!("[tracker] {name} (worker {worker}) dropped mid-frame: {e}");
                release(shared, worker, &name);
                break;
            }
        };
        let msg = match decode_peer(&payload) {
            Ok(msg) => msg,
            Err(e) => {
                eprintln!("[tracker] {name} sent a malformed message ({e}); disconnecting");
                release(shared, worker, &name);
                break;
            }
        };
        let reply = match msg {
            PeerMsg::Claim => {
                let outcome = {
                    // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
                    let mut table = shared.table.lock().expect("lease table");
                    table.claim(worker, shared.now_ms())
                };
                match outcome {
                    ClaimOutcome::Lease { cell, epoch } => {
                        shared.leases.fetch_add(1, Ordering::Relaxed);
                        let lease = TrackerMsg::Lease {
                            cell: cell as u64,
                            epoch,
                        };
                        if write_frame(&mut writer, &encode_tracker(&lease)).is_err() {
                            release(shared, worker, &name);
                            break;
                        }
                        // Fault injection: the lease frame is on the
                        // wire, so the peer dies provably mid-cell. A
                        // fast cell's `Complete` may already sit in the
                        // socket buffer; this thread has not read it, so
                        // releasing here and dropping the connection
                        // re-leases the cell whatever the peer managed
                        // to send.
                        if first_lease {
                            first_lease = false;
                            if shared.cfg.kill_peer.as_deref() == Some(name.as_str()) {
                                if let Some(hook) = shared.hook {
                                    eprintln!(
                                        "[tracker] injected kill of {name} after first lease \
                                         (cell {cell})"
                                    );
                                    hook(&name);
                                    release(shared, worker, &name);
                                    break;
                                }
                            }
                        }
                        continue;
                    }
                    ClaimOutcome::Wait => TrackerMsg::Wait {
                        poll_ms: shared.cfg.poll_ms,
                    },
                    ClaimOutcome::Done => {
                        let _ = write_frame(&mut writer, &encode_tracker(&TrackerMsg::Done));
                        release(shared, worker, &name);
                        break;
                    }
                }
            }
            PeerMsg::Complete { cell, epoch, rows } => {
                let status = settle(shared, cell, epoch);
                if status == CompleteOutcome::Accepted {
                    accept_rows(shared, cell as usize, Ok(rows), &name);
                }
                TrackerMsg::Ack { status }
            }
            PeerMsg::Failed {
                cell,
                epoch,
                reason,
            } => {
                let status = settle(shared, cell, epoch);
                if status == CompleteOutcome::Accepted {
                    accept_rows(shared, cell as usize, Err(reason), &name);
                }
                TrackerMsg::Ack { status }
            }
            PeerMsg::Heartbeat { cell, epoch } => {
                // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
                let mut table = shared.table.lock().expect("lease table");
                table.heartbeat(cell as usize, epoch, shared.now_ms());
                continue; // fire-and-forget: no reply frame
            }
            PeerMsg::Hello { .. } => {
                eprintln!("[tracker] {name} re-sent Hello mid-session; disconnecting");
                release(shared, worker, &name);
                break;
            }
        };
        if write_frame(&mut writer, &encode_tracker(&reply)).is_err() {
            release(shared, worker, &name);
            break;
        }
    }
    shared.active_workers.fetch_sub(1, Ordering::SeqCst);
}

/// Runs a completion/failure report through the lease table and bumps
/// the outcome counters.
fn settle(shared: &Shared<'_, '_>, cell: u64, epoch: u64) -> CompleteOutcome {
    let status = {
        // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
        let mut table = shared.table.lock().expect("lease table");
        table.complete(cell as usize, epoch)
    };
    match status {
        CompleteOutcome::Accepted => {}
        CompleteOutcome::Duplicate => {
            shared.duplicates.fetch_add(1, Ordering::Relaxed);
        }
        CompleteOutcome::Stale => {
            shared.stales.fetch_add(1, Ordering::Relaxed);
        }
    }
    status
}

/// Lands an accepted cell result: commit (rows) or experiment failure
/// (panic reason), progress line, and the all-done stop check.
fn accept_rows(
    shared: &Shared<'_, '_>,
    flat: usize,
    rows: Result<Vec<String>, String>,
    from: &str,
) {
    // Defensive against a buggy peer: an out-of-range flat index is
    // dropped with a warning instead of panicking the tracker.
    let Some((ei, cell)) = shared.plan.layout.split_flat(flat) else {
        eprintln!("warning: [tracker] {from} reported out-of-range cell {flat}; ignoring");
        return;
    };
    let exp = shared.exps[ei];
    let name = exp.name();
    match rows {
        // A commit failure is an unwritable artifact store: fail the
        // experiment (like a remote panic) instead of panicking the
        // tracker, so the other experiments still merge.
        Ok(rows) => match shared.plan.commit(ei, cell, rows) {
            Ok(()) => {
                let done = shared.computed.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "[tracker {done}] {name} {} from {from}",
                    exp.cell_label(cell)
                );
            }
            Err(e) => {
                shared.plan.mark_failed(ei, cell);
                eprintln!(
                    "warning: [{name}] cell {} commit failed ({e}); \
                     {name} will not finalize",
                    exp.cell_label(cell)
                );
            }
        },
        Err(reason) => {
            shared.plan.mark_failed(ei, cell);
            eprintln!(
                "warning: [{name}] cell {} panicked on {from} ({reason}); \
                 {name} will not finalize",
                exp.cell_label(cell)
            );
        }
    }
    let done = {
        // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
        let table = shared.table.lock().expect("lease table");
        table.all_done()
    };
    if done {
        shared.request_stop();
    }
}

/// Re-pends every cell the worker still holds and logs the re-lease.
fn release(shared: &Shared<'_, '_>, worker: u64, name: &str) {
    let released = {
        // ba-lint: allow(panic-path) -- a poisoned lock means another thread already panicked; propagating that panic is the correct escalation
        let mut table = shared.table.lock().expect("lease table");
        table.release_worker(worker)
    };
    if !released.is_empty() {
        eprintln!(
            "[tracker] {name} (worker {worker}) released {} lease(s) {released:?}; re-leasing",
            released.len()
        );
        shared
            .releases
            .fetch_add(released.len() as u64, Ordering::Relaxed);
    }
}
