//! The concurrent ingestion server: Figure 1 at production scale.
//!
//! Snapshots enter through one gate-locked admission path: the per-key
//! gate assigns the document's next sequence number and the snapshot is
//! pushed onto a bounded scheduler in the same critical section, so a
//! number is handed out only to a snapshot that is actually queued. A pool
//! of workers pops snapshots and runs the paper's loop: parse → BULD diff
//! against the stored latest → append the delta to the version chain →
//! evaluate subscriptions.
//!
//! Two failure classes are kept apart:
//!
//! - **poison** snapshots (malformed XML) can never succeed — they go to
//!   the dead-letter queue immediately and must never kill a worker;
//! - **transient** failures (modeled by an injectable fault hook, standing
//!   in for store I/O hiccups) are retried a bounded number of times before
//!   dead-lettering.
//!
//! Because workers race on the shared queue, the per-key gate enforces that
//! versions of one document apply in submission order: a popped snapshot
//! whose predecessor is still in flight parks, and whoever finishes the
//! predecessor continues the chain. Every submitted snapshot therefore ends
//! in exactly one of {succeeded, dead-lettered}, which
//! [`ShutdownReport::is_balanced`] checks after a draining shutdown.
//!
//! [`IngestServer::submit`] and [`IngestServer::submit_tracked`] wait for
//! space with no lock held and retry (backpressure toward the crawler); the
//! [`Ticket`] resolves to the stored version and delta size, or to the dead
//! letter. The HTTP front's [`IngestServer::try_submit_with`] never blocks:
//! a full queue is [`SubmitError::QueueFull`] (`503 Retry-After`), and the
//! outcome goes to a completion callback. A submit that meets a draining
//! scheduler uses up its number and is dead-lettered; nothing can park
//! behind that number, because a closed scheduler never reopens.
//!
//! Snapshots, the write-ahead log and chain compaction live in
//! `durability`; the configuration types live in [`crate::config`].

use crate::config::{ConfigError, FaultHook, ServeConfig};
use crate::durability;
use crate::metrics::Metrics;
use crate::scheduler::{Scheduler, TryPushError};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xydelta::xml_io;
use xydiff::{Differ, MatchMode};
use xytree::Document;
use xywal::{Record, Wal, WalError};
use xywarehouse::{Notification, PersistError, ReplayError, Repository, SnapshotStore};

/// A snapshot that could not be ingested, with the reason.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// Document key.
    pub key: String,
    /// Per-key sequence number of the failed snapshot.
    pub seq: u64,
    /// Attempts made (0 when the snapshot never reached processing).
    pub attempts: u32,
    /// Human-readable failure description.
    pub error: String,
}

/// What happened to one tracked snapshot: stored, or dead-lettered.
pub type IngestOutcome = Result<Completed, DeadLetter>;

/// The success half of an [`IngestOutcome`].
#[derive(Debug, Clone)]
pub struct Completed {
    /// Document key.
    pub key: String,
    /// Per-key sequence number of the snapshot.
    pub seq: u64,
    /// Index of the stored version (0 for the first snapshot of a key).
    pub version: usize,
    /// Number of delta operations (0 for the first version).
    pub ops: usize,
    /// Alert notifications this delta fired.
    pub alerts: usize,
    /// Subscriptions statically proven dead against this document's DTD
    /// (non-zero only on the first load of a key or on a DOCTYPE change).
    pub schema_warnings: usize,
    /// True when the version was written to the write-ahead log (and, in
    /// [`xywal::WalSync::Always`] mode, fsynced) before this ack — i.e. it
    /// survives `kill -9`. False when no WAL is configured, when the sync
    /// mode leaves flushing to the OS, or when the append failed.
    pub durable: bool,
    /// The diff matcher mode that produced this version's delta.
    pub mode: MatchMode,
}

/// A handle resolving to the outcome of one tracked submission.
pub struct Ticket {
    rx: mpsc::Receiver<IngestOutcome>,
}

impl Ticket {
    /// Block until the snapshot is processed. Every accepted snapshot is
    /// guaranteed to resolve: workers deliver the outcome on success and on
    /// dead-lettering.
    pub fn wait(self) -> IngestOutcome {
        self.rx.recv().unwrap_or_else(|_| {
            // Unreachable in practice (the sender is dropped only after a
            // send), but a lost channel must not hang or panic the caller.
            Err(DeadLetter {
                key: String::new(),
                seq: 0,
                attempts: 0,
                error: "server dropped before delivering an outcome".to_string(),
            })
        })
    }
}

/// Error returned by the submit family.
#[derive(Debug)]
pub enum SubmitError {
    /// The server is shutting down; the snapshot was dead-lettered.
    ShuttingDown,
    /// Non-blocking submit found the queue at capacity; the snapshot was
    /// **not** accepted (no sequence number burned) — retry later.
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::QueueFull => write!(f, "ingest queue is full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Error returned by [`IngestServer::try_start`].
#[derive(Debug)]
pub enum StartError {
    /// Opening or restoring the snapshot store failed.
    Snapshot(PersistError),
    /// The configuration failed [`ServeConfig::validate`].
    Config(ConfigError),
    /// Opening the write-ahead log failed (I/O error or corruption outside
    /// the reclaimable tail).
    Wal(WalError),
    /// The log and the restored snapshot could not be reconciled.
    Replay(ReplayError),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Snapshot(e) => write!(f, "snapshot store: {e}"),
            StartError::Config(e) => write!(f, "invalid config: {e}"),
            StartError::Wal(e) => write!(f, "write-ahead log: {e}"),
            StartError::Replay(e) => write!(f, "wal replay: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// Loss-free accounting produced by [`IngestServer::shutdown`].
#[derive(Debug)]
pub struct ShutdownReport {
    /// Snapshots submitted (sequence numbers assigned).
    pub submitted: u64,
    /// Snapshots fully processed.
    pub succeeded: u64,
    /// Snapshots dead-lettered (poison, retry exhaustion, or shutdown race).
    pub dead_lettered: u64,
    /// Transient-failure retries performed.
    pub retries: u64,
    /// Alerter notifications fired.
    pub alerts_fired: u64,
    /// The dead letters themselves.
    pub dead_letters: Vec<DeadLetter>,
    /// Notifications not yet collected via [`IngestServer::take_notifications`].
    pub notifications: Vec<Notification>,
    /// Full metrics text exposition at shutdown time.
    pub metrics_text: String,
}

impl ShutdownReport {
    /// True when every submitted snapshot is accounted for.
    pub fn is_balanced(&self) -> bool {
        self.submitted == self.succeeded + self.dead_lettered
            && self.dead_lettered == self.dead_letters.len() as u64
    }
}

/// A completion callback: invoked exactly once with the submission's
/// outcome, from whichever worker resolves it. This is the
/// one delivery mechanism: a [`Ticket`] is a callback that sends into a
/// channel, and the `xynet` reactor, whose event loop cannot block on a
/// [`Ticket`], passes a callback that records the outcome and wakes the
/// readiness loop instead.
pub type CompletionFn = Box<dyn FnOnce(IngestOutcome) + Send + 'static>;

struct Job {
    key: String,
    xml: String,
    seq: u64,
    /// Outcome delivery for tracked submissions; `None` for fire-and-forget.
    done: Option<CompletionFn>,
}

#[derive(Default)]
struct Gate {
    /// Next sequence number to hand out at submit time.
    next_submit: u64,
    /// The only sequence number allowed to apply right now.
    next_apply: u64,
    /// Popped snapshots waiting for their predecessor, keyed by seq.
    parked: BTreeMap<u64, Job>,
}

pub(crate) struct Inner {
    pub(crate) shards: Vec<Repository>,
    sched: Scheduler<Job>,
    gates: Mutex<HashMap<String, Gate>>,
    pub(crate) metrics: Metrics,
    dead: Mutex<Vec<DeadLetter>>,
    notifications: Mutex<Vec<Notification>>,
    max_retries: u32,
    mode: MatchMode,
    fault_hook: Option<FaultHook>,
    pub(crate) wal: Option<Wal>,
    /// Where the maintenance thread persists shards, and how often.
    pub(crate) snapshots: Option<(SnapshotStore, Duration)>,
    /// Hop bound the maintenance thread keeps every chain within (0 = off).
    pub(crate) compact_chain_max: usize,
    /// Tells the maintenance thread to exit; paired with `wake`.
    pub(crate) stop: Mutex<bool>,
    pub(crate) wake: Condvar,
}

/// The concurrent ingestion server. See the module docs for the design.
pub struct IngestServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
}

impl IngestServer {
    /// Start a server with `config`, spawning its worker pool.
    ///
    /// Panics if a configured snapshot store cannot be opened or restored;
    /// snapshot-enabled callers should prefer [`IngestServer::try_start`].
    pub fn start(config: ServeConfig) -> IngestServer {
        // INVARIANT: the only fallible path is snapshot open/restore, which
        // callers opting into persistence handle through try_start.
        IngestServer::try_start(config).expect("snapshot store must open and restore")
    }

    /// Start a server with `config`, restoring the latest published
    /// snapshot generation first when persistence is configured.
    pub fn try_start(config: ServeConfig) -> Result<IngestServer, StartError> {
        // The builders already reject these, but the fields are public —
        // re-validate so direct mutation cannot smuggle in a degenerate pool.
        config.validate().map_err(StartError::Config)?;
        let shards: Vec<Repository> = (0..config.shards)
            .map(|_| {
                Repository::with_options(config.diff_options.clone(), config.alerter.clone())
            })
            .collect();
        let metrics = Metrics::with_deques(config.workers);
        let snapshots = durability::restore(&config, &shards)?;
        let wal = durability::replay(&config, &shards, &metrics)?;
        let mut sched = Scheduler::new(config.workers, config.queue_capacity, config.steal_batch);
        if let Some(hook) = config.sched_hook.clone() {
            sched = sched.with_hook(hook);
        }
        let inner = Arc::new(Inner {
            shards,
            sched,
            gates: Mutex::new(HashMap::new()),
            metrics,
            dead: Mutex::new(Vec::new()),
            notifications: Mutex::new(Vec::new()),
            max_retries: config.max_retries,
            mode: config.diff_options.mode,
            fault_hook: config.fault_hook.clone(),
            wal,
            snapshots,
            compact_chain_max: config.compact_chain_max,
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        if let Some(wal) = &inner.wal {
            inner.sync_wal_metrics(wal);
        }
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("xyserve-worker-{i}"))
                    .spawn(move || inner.worker_loop(i))
                    // INVARIANT: thread spawn fails only on OS resource exhaustion at
                    // startup; there is no server to run without its workers.
                    .expect("spawn worker thread")
            })
            .collect();
        let maintenance = (inner.snapshots.is_some() || inner.compact_chain_max > 0).then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("xyserve-maintenance".to_string())
                .spawn(move || inner.maintenance_loop())
                // INVARIANT: thread spawn fails only on OS resource exhaustion at
                // startup; snapshots and compaction cannot run without it.
                .expect("spawn maintenance thread")
        });
        Ok(IngestServer { inner, workers, maintenance })
    }

    /// The one admission path: under the gate lock, give `job` its key's
    /// next sequence number and push it without blocking. A number is thus
    /// used up only by a job that reached the scheduler or met a closed one
    /// (the caller dead-letters it); on `Full` nothing is used up. The push
    /// never waits, so workers, which take the gate lock between pops, are
    /// never stalled behind a submitter.
    fn enqueue(&self, mut job: Job) -> Result<(), TryPushError<Job>> {
        // INVARIANT: a poisoned lock means a worker panicked mid-update;
        // the server cannot vouch for its state, so the panic propagates.
        let mut gates = self.inner.gates.lock().unwrap();
        let g = gates.entry(job.key.clone()).or_default();
        job.seq = g.next_submit;
        match self.inner.sched.try_push(key_hash(&job.key), job) {
            Err(TryPushError::Full(job)) => Err(TryPushError::Full(job)),
            pushed => {
                // Queued, or refused by a closed scheduler: either way the
                // number is used up and the job counts as submitted.
                g.next_submit += 1;
                drop(gates);
                self.inner.metrics.enqueued.inc();
                self.inner.sync_sched_metrics();
                pushed
            }
        }
    }

    /// Retry [`IngestServer::enqueue`] until the job is queued. A full
    /// scheduler is `QueueFull` unless `block`, in which case the submit
    /// waits for space with no lock held. A closed scheduler dead-letters
    /// the job without running its callback: the returned error already
    /// answers the caller, and a dead-letter delivery would answer twice.
    fn submit_with(
        &self,
        key: &str,
        xml: String,
        done: Option<CompletionFn>,
        block: bool,
    ) -> Result<(), SubmitError> {
        let mut job = Job { key: key.to_string(), xml, seq: 0, done };
        loop {
            match self.enqueue(job) {
                Ok(()) => return Ok(()),
                Err(TryPushError::Full(_)) if !block => return Err(SubmitError::QueueFull),
                Err(TryPushError::Full(j)) => {
                    job = j;
                    self.inner.sched.wait_for_space();
                }
                Err(TryPushError::Closed(j)) => {
                    let error = "submitted during shutdown".to_string();
                    self.inner.dead_letter(&j.key, j.seq, 0, error, None);
                    return Err(SubmitError::ShuttingDown);
                }
            }
        }
    }

    /// Submit one snapshot of document `key`. Blocks while the queue is
    /// full. Snapshots of the same key submitted from one thread are
    /// guaranteed to apply in submission order.
    pub fn submit(&self, key: &str, xml: impl Into<String>) -> Result<(), SubmitError> {
        self.submit_with(key, xml.into(), None, true)
    }

    /// [`IngestServer::submit`] returning a [`Ticket`] that resolves to the
    /// snapshot's outcome (stored version + delta size, or the dead letter).
    pub fn submit_tracked(
        &self,
        key: &str,
        xml: impl Into<String>,
    ) -> Result<Ticket, SubmitError> {
        let (tx, rx) = mpsc::channel();
        // Best effort: the submitter may have stopped waiting.
        let done: CompletionFn = Box::new(move |outcome| {
            let _ = tx.send(outcome);
        });
        self.submit_with(key, xml.into(), Some(done), true)?;
        Ok(Ticket { rx })
    }

    /// Non-blocking submit delivering the outcome through a callback
    /// instead of a [`Ticket`]: the event-driven network front cannot park
    /// a thread per in-flight request, so workers invoke `done` (exactly
    /// once) when the snapshot resolves and the reactor wakes its loop
    /// from inside the callback.
    ///
    /// On `Err` the callback has **not** been invoked and never will be —
    /// the caller still owns the failure response. A full queue returns
    /// [`SubmitError::QueueFull`] without burning a sequence number, so the
    /// network layer can shed load with `503 Retry-After`.
    pub fn try_submit_with(
        &self,
        key: &str,
        xml: impl Into<String>,
        done: CompletionFn,
    ) -> Result<(), SubmitError> {
        self.submit_with(key, xml.into(), Some(done), false)
    }

    /// The metrics registry (live counters; render at any time).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Current snapshot of the dead-letter queue.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        // INVARIANT: a poisoned lock means a worker panicked mid-update;
        // the server cannot vouch for its state, so the panic propagates.
        self.inner.dead.lock().unwrap().clone()
    }

    /// Take every notification fired so far (the alert delivery channel).
    pub fn take_notifications(&self) -> Vec<Notification> {
        // INVARIANT: a poisoned lock means a worker panicked mid-update;
        // the server cannot vouch for its state, so the panic propagates.
        std::mem::take(&mut self.inner.notifications.lock().unwrap())
    }

    /// The shard repository holding `key` (for reads: versions, deltas).
    pub fn repository_for(&self, key: &str) -> &Repository {
        &self.inner.shards[self.inner.shard_of(key)]
    }

    /// Total versions stored across all shards.
    pub fn total_versions(&self) -> usize {
        self.inner.shards.iter().map(Repository::total_versions).sum()
    }

    /// Block until every snapshot submitted so far is accounted for
    /// (succeeded or dead-lettered). Quiesce point for live reads; the
    /// server keeps accepting new work afterwards.
    pub fn wait_idle(&self) {
        let m = &self.inner.metrics;
        while m.succeeded.get() + m.dead_lettered.get() < m.enqueued.get() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stop accepting new snapshots while the workers keep draining what is
    /// already queued. Idempotent; [`IngestServer::shutdown`] completes the
    /// drain and joins the pool.
    pub fn begin_drain(&self) {
        self.inner.sched.close();
    }

    /// True once a drain (or shutdown) has started.
    pub fn is_draining(&self) -> bool {
        self.inner.sched.is_closed()
    }

    /// The write-ahead log, when one is configured (observability: LSNs,
    /// watermark, segment counts).
    pub fn wal(&self) -> Option<&Wal> {
        self.inner.wal.as_ref()
    }

    /// Stop accepting work, drain the queue and all in-flight chains, join
    /// every worker, and return the loss-free accounting. With persistence
    /// configured, a final snapshot is written after the drain so a restart
    /// resumes exactly the drained state.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop();
        if let Some((store, _)) = &self.inner.snapshots {
            // The drain is complete, so this snapshot captures every stored
            // version — the restart-resumes-the-chains guarantee. With a
            // WAL configured it also advances the consumed watermark to the
            // drained frontier, making old segments deletable.
            self.inner.take_snapshot(store);
        }
        let m = &self.inner.metrics;
        ShutdownReport {
            submitted: m.enqueued.get(),
            succeeded: m.succeeded.get(),
            dead_lettered: m.dead_lettered.get(),
            retries: m.retries.get(),
            alerts_fired: m.alerts_fired.get(),
            // INVARIANT: a poisoned lock means a worker panicked mid-update;
            // the server cannot vouch for its state, so the panic propagates.
            dead_letters: self.inner.dead.lock().unwrap().clone(),
            // INVARIANT: a poisoned lock means a worker panicked mid-update;
            // the server cannot vouch for its state, so the panic propagates.
            notifications: std::mem::take(&mut self.inner.notifications.lock().unwrap()),
            metrics_text: m.render(),
        }
    }

    /// Close the scheduler, drain and join the workers, stop the
    /// maintenance thread and flush the WAL. Shared by `shutdown` and
    /// `Drop`; a second call only re-flushes the WAL.
    fn stop(&mut self) {
        self.inner.sched.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.maintenance.take() {
            // INVARIANT: a poisoned lock means the maintenance thread
            // panicked mid-update; the panic propagates.
            *self.inner.stop.lock().unwrap() = true;
            self.inner.wake.notify_all();
            let _ = h.join();
        }
        if let Some(wal) = &self.inner.wal {
            // In WalSync::None mode appended records may still be in the OS
            // cache; a clean stop flushes them.
            let _ = wal.sync();
            self.inner.sync_wal_metrics(wal);
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        // `shutdown` already stopped everything; a bare drop still
        // terminates cleanly.
        self.stop();
    }
}

/// The hash every routing decision derives from: repository shards and
/// scheduler home deques both partition on this one value, so a key's jobs
/// always meet the same shard lock and the same home deque.
fn key_hash(key: &str) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Hash-partition `key` over `shard_count` shards. Free function so the
/// snapshot-restore path can route before an `Inner` exists.
pub(crate) fn shard_index(key: &str, shard_count: usize) -> usize {
    (key_hash(key) % shard_count as u64) as usize
}

/// The scheduler deque `key`'s jobs are routed to in a pool of `workers`.
/// Exposed so tests can aim a hook (parking, yield injection) at exactly
/// the worker that owns a key.
pub fn home_worker(key: &str, workers: usize) -> usize {
    (key_hash(key) % workers.max(1) as u64) as usize
}

impl Inner {
    fn shard_of(&self, key: &str) -> usize {
        shard_index(key, self.shards.len())
    }

    /// Publish the scheduler's depth and steal totals into the metrics
    /// registry (called after every push and pop, so scrapes are current).
    fn sync_sched_metrics(&self) {
        self.metrics.queue_depth.set(self.sched.len() as u64);
        for (i, g) in self.metrics.deque_depth.iter().enumerate() {
            g.set(self.sched.depth_of(i) as u64);
        }
        self.metrics.steals.observe_total(self.sched.steals());
        self.metrics.stolen_jobs.observe_total(self.sched.stolen_jobs());
    }

    fn worker_loop(&self, worker: usize) {
        // One differ per worker thread, reused for every diff this worker
        // runs: it owns the options and the scratch (see xydiff::Differ),
        // so the steady-state ingest loop allocates no per-diff working
        // memory. Per-document signature caches live with the stored
        // documents; the repository threads them through diff_with_cache.
        let mut differ = self.shards[0].differ();
        while let Some(job) = self.sched.pop(worker) {
            self.sync_sched_metrics();
            let mut runnable = self.admit(job);
            while let Some(j) = runnable {
                let key = j.key.clone();
                let seq = j.seq;
                self.process(j, &mut differ);
                runnable = self.advance(&key, seq);
            }
        }
    }

    /// Gate check: run the job now iff it is its key's next version;
    /// otherwise park it for whoever finishes the predecessor.
    fn admit(&self, job: Job) -> Option<Job> {
        // INVARIANT: a poisoned lock means a worker panicked mid-update;
        // the server cannot vouch for its state, so the panic propagates.
        let mut gates = self.gates.lock().unwrap();
        let g = gates.entry(job.key.clone()).or_default();
        if job.seq == g.next_apply {
            Some(job)
        } else {
            g.parked.insert(job.seq, job);
            None
        }
    }

    /// Mark `seq` done and hand back the next parked snapshot if it is now
    /// runnable.
    fn advance(&self, key: &str, seq: u64) -> Option<Job> {
        // INVARIANT: a poisoned lock means a worker panicked mid-update;
        // the server cannot vouch for its state, so the panic propagates.
        let mut gates = self.gates.lock().unwrap();
        // INVARIANT: enqueue() creates the gate before any job for the key
        // reaches a worker, and gates are never removed while jobs exist.
        let g = gates.get_mut(key).expect("gate exists for processed key");
        debug_assert_eq!(g.next_apply, seq, "only the gated seq can finish");
        g.next_apply = seq + 1;
        g.parked.remove(&g.next_apply)
    }

    fn dead_letter(
        &self,
        key: &str,
        seq: u64,
        attempts: u32,
        error: String,
        done: Option<CompletionFn>,
    ) {
        self.metrics.dead_lettered.inc();
        let letter = DeadLetter { key: key.to_string(), seq, attempts, error };
        if let Some(done) = done {
            done(Err(letter.clone()));
        }
        // INVARIANT: a poisoned lock means a worker panicked mid-update;
        // the server cannot vouch for its state, so the panic propagates.
        self.dead.lock().unwrap().push(letter);
    }

    /// Run one snapshot through parse → diff → store → alert, with bounded
    /// retry for transient failures and dead-lettering for poison input.
    fn process(&self, job: Job, differ: &mut Differ) {
        let Job { key, xml, seq, done } = job;
        let started = Instant::now();
        let t_parse = Instant::now();
        let doc = match Document::parse(&xml) {
            Ok(doc) => doc,
            Err(e) => {
                // Poison: malformed XML can never succeed, so no retry.
                self.dead_letter(&key, seq, 1, format!("parse error: {e}"), done);
                return;
            }
        };
        self.metrics.parse_time.observe(t_parse.elapsed());

        let mut attempt = 1;
        while self.fault_hook.as_ref().is_some_and(|hook| hook(&key, seq, attempt)) {
            if attempt > self.max_retries {
                let error = "transient failure, retries exhausted".to_string();
                self.dead_letter(&key, seq, attempt, error, done);
                return;
            }
            self.metrics.retries.inc();
            attempt += 1;
        }

        let shard = &self.shards[self.shard_of(&key)];
        // The first version of a key is logged as the full document; its
        // canonical serialization must be captured before the load consumes
        // the parse. Safe against racing writers of the same key: the
        // per-key gate admits one snapshot of a key at a time, so between
        // this check and the load no other worker can create the chain.
        let init_xml = (self.wal.is_some() && shard.version_count(&key) == 0)
            .then(|| doc.to_xml());
        let out = match shard.try_load_parsed_with(&key, doc, differ) {
            Ok(out) => out,
            Err(e) => {
                // A delta that fails static verification is a diff bug, not
                // an input property: dead-letter the snapshot (the version
                // was not stored, so the chain stays consistent) instead of
                // taking the worker down.
                self.dead_letter(&key, seq, attempt, format!("rejected delta: {e}"), done);
                return;
            }
        };
        // Double-check in debug builds: everything the diff emitted must
        // satisfy the static delta invariants (xydelta::verify).
        debug_assert!(
            xydelta::verify(&out.delta).is_ok(),
            "stored delta fails verification for key {key}"
        );
        if out.version > 0 {
            // The initial load of a key runs no diff; recording its zero
            // duration would skew the latency statistics.
            self.metrics.diff_time.observe(out.diff_time);
            self.metrics.alert_time.observe(out.alert_time);
        }
        let schema_warnings = out.schema_warnings.len();
        if schema_warnings > 0 {
            self.metrics.schema_warnings.add(schema_warnings as u64);
        }
        let alerts = out.notifications.len();
        if alerts > 0 {
            self.metrics.alerts_fired.add(alerts as u64);
            // INVARIANT: a poisoned lock means a worker panicked mid-update;
            // the server cannot vouch for its state, so the panic propagates.
            self.notifications.lock().unwrap().extend(out.notifications);
        }
        // Write-ahead: the record must be on the log (and, in Always mode,
        // fsynced via the group commit) before the ack below, so an ack
        // with durable=true survives kill -9. The version is already in the
        // in-memory chain — program order per worker, which the snapshot
        // watermark protocol relies on.
        let mut durable = false;
        if let Some(wal) = &self.wal {
            let record = match init_xml {
                Some(xml) if out.version == 0 => Record::Init { key: key.clone(), xml },
                _ => Record::Delta {
                    key: key.clone(),
                    version: out.version as u64,
                    delta_xml: xml_io::delta_to_xml(&out.delta),
                },
            };
            let t_wal = Instant::now();
            match wal.append(&record) {
                Ok(outcome) => {
                    self.metrics.wal_append_time.observe(t_wal.elapsed());
                    durable = outcome.durable;
                }
                Err(_) => {
                    // The version is stored in memory but not logged; ack
                    // it non-durable rather than failing the ingest.
                    self.metrics.wal_append_errors.inc();
                }
            }
            self.sync_wal_metrics(wal);
        }
        self.metrics.succeeded.inc();
        self.metrics.ingest_mode.inc(self.mode);
        self.metrics.total_time.observe(started.elapsed());
        if let Some(done) = done {
            done(Ok(Completed {
                key,
                seq,
                version: out.version,
                ops: out.delta.len(),
                alerts,
                schema_warnings,
                durable,
                mode: self.mode,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SnapshotPolicy, WalPolicy};
    use crate::scheduler::SchedHook;
    use xywarehouse::Alerter;

    fn tiny_server(workers: usize) -> IngestServer {
        IngestServer::start(
            ServeConfig::new()
                .with_workers(workers)
                .unwrap()
                .with_queue_capacity(8)
                .unwrap()
                .with_shards(2)
                .unwrap(),
        )
    }

    #[test]
    fn single_document_versions_apply_in_order() {
        let server = tiny_server(4);
        for v in 0..20 {
            server.submit("doc", format!("<d><v>{v}</v></d>")).unwrap();
        }
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!(report.succeeded, 20);
        assert_eq!(report.dead_lettered, 0);
    }

    #[test]
    fn versions_match_serial_ingestion() {
        let server = tiny_server(4);
        for v in 0..10 {
            server.submit("a", format!("<d><n>{v}</n></d>")).unwrap();
            server.submit("b", format!("<e><m>{}</m></e>", v * 7)).unwrap();
        }
        server.wait_idle();
        // Reads go through the owning shard; reconstruction must agree with
        // what a serial loop would have stored.
        let repo_a = server.repository_for("a");
        for v in 0..10 {
            assert_eq!(repo_a.version_xml("a", v).unwrap(), format!("<d><n>{v}</n></d>"));
        }
        let report = server.shutdown();
        assert!(report.is_balanced());
        assert_eq!(report.succeeded, 20);
    }

    #[test]
    fn poison_documents_dead_letter_without_killing_workers() {
        let server = tiny_server(2);
        server.submit("ok", "<a><b>1</b></a>").unwrap();
        server.submit("bad", "<a><unclosed>").unwrap();
        server.submit("ok", "<a><b>2</b></a>").unwrap();
        server.submit("bad", "<a>fine now</a>").unwrap();
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!(report.succeeded, 3);
        assert_eq!(report.dead_lettered, 1);
        assert_eq!(report.dead_letters[0].key, "bad");
        assert!(report.dead_letters[0].error.contains("parse error"));
    }

    #[test]
    fn transient_failures_retry_then_succeed() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let tries = Arc::new(AtomicU32::new(0));
        let tries2 = Arc::clone(&tries);
        let server = IngestServer::start(
            ServeConfig::new().with_workers(1).unwrap().with_max_retries(3).with_fault_hook(
                // Fail the first two attempts of everything.
                Arc::new(move |_, _, attempt| {
                    tries2.fetch_add(1, Ordering::Relaxed);
                    attempt <= 2
                }),
            ),
        );
        server.submit("doc", "<a/>").unwrap();
        let report = server.shutdown();
        assert!(report.is_balanced());
        assert_eq!(report.succeeded, 1);
        assert_eq!(report.retries, 2);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn transient_failures_exhaust_retries_into_dlq() {
        let server = IngestServer::start(
            ServeConfig::new()
                .with_workers(2)
                .unwrap()
                .with_max_retries(2)
                .with_fault_hook(Arc::new(|key, _, _| key == "cursed")),
        );
        server.submit("cursed", "<a/>").unwrap();
        server.submit("fine", "<a/>").unwrap();
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!(report.succeeded, 1);
        assert_eq!(report.dead_lettered, 1);
        assert_eq!(report.retries, 2);
        assert_eq!(report.dead_letters[0].attempts, 3);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let server = tiny_server(1);
        server.begin_drain();
        assert!(server.is_draining());
        let err = server.submit("doc", "<a/>");
        assert!(matches!(err, Err(SubmitError::ShuttingDown)));
        // The burned sequence number is accounted as a dead letter.
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!(report.dead_lettered, 1);
    }

    #[test]
    fn metrics_render_reflects_work() {
        let server = tiny_server(2);
        for v in 0..5 {
            server.submit("m", format!("<x><y>{v}</y></x>")).unwrap();
        }
        let report = server.shutdown();
        assert!(report.metrics_text.contains("ingest_succeeded_total 5"), "{}", report.metrics_text);
        // 5 versions of one key = 4 diffs (the initial load runs none).
        assert!(report.metrics_text.contains("ingest_diff_seconds_count 4"), "{}", report.metrics_text);
        assert!(report.metrics_text.contains("# TYPE ingest_diff_seconds histogram"));
    }

    #[test]
    fn alerts_are_collected_and_counted() {
        use xywarehouse::{OpFilter, Subscription};
        let mut alerter = Alerter::new();
        alerter.subscribe(
            Subscription::everything("watch")
                .at_path(["catalog", "product"])
                .only(OpFilter::Insert),
        );
        let server =
            IngestServer::start(ServeConfig::new().with_workers(2).unwrap().with_alerter(alerter));
        server.submit("cat", "<catalog><product/></catalog>").unwrap();
        server.submit("cat", "<catalog><product/><product/></catalog>").unwrap();
        let report = server.shutdown();
        assert_eq!(report.alerts_fired, 1, "{report:?}");
        // Exactly one notification, delivered exactly once.
        assert_eq!(report.notifications.len(), 1);
        assert_eq!(report.notifications[0].subscription, "watch");
    }

    #[test]
    fn dead_subscriptions_surface_in_ack_and_metrics() {
        use xywarehouse::Subscription;
        let mut alerter = Alerter::new();
        alerter.subscribe(Subscription::everything("dead").at_query("//widget"));
        let server =
            IngestServer::start(ServeConfig::new().with_workers(1).unwrap().with_alerter(alerter));
        let dtd = "<!DOCTYPE catalog [<!ELEMENT catalog (product*)>\
                   <!ELEMENT product (#PCDATA)>]>";
        let t = server
            .submit_tracked("cat", format!("{dtd}<catalog><product>p</product></catalog>"))
            .unwrap();
        let done = t.wait().expect("first version stores");
        assert_eq!(done.schema_warnings, 1, "{done:?}");
        // Without a DOCTYPE there is nothing to audit.
        let t = server.submit_tracked("plain", "<catalog/>").unwrap();
        assert_eq!(t.wait().expect("stores").schema_warnings, 0);
        let report = server.shutdown();
        assert!(
            report.metrics_text.contains("ingest_schema_warnings_total 1"),
            "{}",
            report.metrics_text
        );
    }

    #[test]
    fn tracked_submission_reports_version_and_ops() {
        let server = tiny_server(2);
        let t0 = server.submit_tracked("doc", "<d><v>0</v></d>").unwrap();
        let first = t0.wait().expect("first version stores");
        assert_eq!((first.version, first.ops), (0, 0), "initial load has no delta");
        let t1 = server.submit_tracked("doc", "<d><v>1</v></d>").unwrap();
        let second = t1.wait().expect("second version stores");
        assert_eq!(second.version, 1);
        assert!(second.ops > 0, "an update produces at least one op");
        let bad = server.submit_tracked("doc", "<broken").unwrap();
        let letter = bad.wait().expect_err("poison dead-letters");
        assert!(letter.error.contains("parse error"));
        assert_eq!(letter.seq, 2);
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
    }

    #[test]
    fn try_submit_full_queue_sheds_without_burning_seq() {
        // No workers draining: occupy the queue completely.
        let server = IngestServer::start(
            ServeConfig::new()
                .with_workers(1)
                .unwrap()
                .with_queue_capacity(2)
                .unwrap()
                .with_fault_hook(
                    // Park the single worker on its first job forever-ish by
                    // making every attempt fail (retries burn time), keeping
                    // the queue full long enough to observe Full.
                    Arc::new(|_, _, _| false),
                ),
        );
        // Fill the queue faster than one worker can drain by submitting
        // from this thread only; with capacity 2 a burst can still observe
        // Full only racily, so instead drain the server and use the closed
        // path plus a dedicated full-queue check below.
        drop(server);

        // Deterministic Full: a scheduler with no pop pressure. Build it
        // directly to avoid racing workers.
        let s: Scheduler<u32> = Scheduler::new(1, 1, 1);
        assert!(s.try_push(0, 1).is_ok());
        assert!(matches!(s.try_push(0, 2), Err(TryPushError::Full(_))));

        // And the server-level contract on the shutdown path: QueueFull
        // never burns a sequence number, ShuttingDown does (and resolves
        // the ticket with a dead letter).
        // The refused submission's callback is never invoked: the Err
        // already answers it.
        use std::sync::atomic::{AtomicBool, Ordering};
        let server = tiny_server(1);
        server.begin_drain();
        let called = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&called);
        let err = server.try_submit_with(
            "doc",
            "<a/>",
            Box::new(move |_| flag.store(true, Ordering::SeqCst)),
        );
        assert!(matches!(err, Err(SubmitError::ShuttingDown)));
        assert!(!called.load(Ordering::SeqCst), "refused submit answered twice");
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!(report.dead_lettered, 1);
    }

    #[test]
    fn snapshot_on_shutdown_restores_on_restart() {
        let dir = std::env::temp_dir()
            .join(format!("xyserve-snap-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig::new()
            .with_workers(2)
            .unwrap()
            .with_shards(2)
            .unwrap()
            .with_snapshots(SnapshotPolicy::new(&dir).with_interval(Duration::from_secs(3600)));
        let server = IngestServer::try_start(config.clone()).unwrap();
        for v in 0..3 {
            server.submit("doc", format!("<d><v>{v}</v></d>")).unwrap();
        }
        server.submit("other", "<o/>").unwrap();
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");

        // Restart with a different shard count: chains must re-route.
        let server = IngestServer::try_start(config.with_shards(4).unwrap()).unwrap();
        assert_eq!(server.total_versions(), 4);
        let repo = server.repository_for("doc");
        assert_eq!(repo.latest_xml("doc").unwrap(), "<d><v>2</v></d>");
        assert_eq!(repo.version_xml("doc", 0).unwrap(), "<d><v>0</v></d>");
        // Ingest continues on the restored chain.
        let t = server.submit_tracked("doc", "<d><v>3</v></d>").unwrap();
        assert_eq!(t.wait().unwrap().version, 3);
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Poll `done` every 10 ms for up to 10 s; true once it holds.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Ingest 40 versions of one key with 20 ms snapshots and hop bound
    /// `compact` (0 = off), then wait for the maintenance thread to snapshot
    /// and, when compacting, to bring the chain within the bound.
    fn maintenance_runs_in_the_background(compact: usize) {
        let dir = std::env::temp_dir()
            .join(format!("xyserve-maintenance-{compact}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = IngestServer::try_start(
            ServeConfig::new()
                .with_workers(2)
                .unwrap()
                .with_snapshots(SnapshotPolicy::new(&dir).with_interval(Duration::from_millis(20)))
                .with_compact_chain_max(compact),
        )
        .unwrap();
        for v in 0..40 {
            server.submit("doc", format!("<d><v>{v}</v></d>")).unwrap();
        }
        server.wait_idle();
        let repo = server.repository_for("doc");
        let within = || compact == 0 || repo.chain_hops("doc").unwrap() <= compact;
        assert!(
            eventually(|| server.metrics().snapshots.get() >= 1 && within()),
            "snapshots={} errors={} hops={:?}",
            server.metrics().snapshots.get(),
            server.metrics().snapshot_errors.get(),
            repo.chain_hops("doc"),
        );
        assert_eq!(server.metrics().snapshot_errors.get(), 0);
        for v in [0, 13, 39] {
            assert_eq!(repo.version_xml("doc", v).unwrap(), format!("<d><v>{v}</v></d>"));
        }
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_trigger_snapshots_while_running() {
        maintenance_runs_in_the_background(0);
    }

    #[test]
    fn one_maintenance_thread_snapshots_and_compacts() {
        maintenance_runs_in_the_background(8);
    }

    #[test]
    fn blocked_submit_wakes_on_drain_as_one_dead_letter() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Hold the single worker before its first pop, so the one-slot
        // queue stays full until the test lets go.
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        let hook: SchedHook = Arc::new(move |e| {
            if let crate::scheduler::SchedEvent::PopOwn { .. } = e {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        let server = IngestServer::start(
            ServeConfig::new()
                .with_workers(1)
                .unwrap()
                .with_queue_capacity(1)
                .unwrap()
                .with_sched_hook(hook),
        );
        server.submit("doc", "<d><v>0</v></d>").unwrap();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| server.submit("doc", "<d><v>1</v></d>"));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!blocked.is_finished(), "a submit to a full queue waits for space");
            server.begin_drain();
            assert!(matches!(blocked.join().unwrap(), Err(SubmitError::ShuttingDown)));
        });
        release.store(true, Ordering::SeqCst);
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!((report.succeeded, report.dead_lettered), (1, 1), "{report:?}");
        assert_eq!(report.dead_letters[0].seq, 1);
        assert_eq!(report.dead_letters[0].error, "submitted during shutdown");
    }

    #[test]
    fn wal_only_restart_replays_every_acked_version() {
        let dir = std::env::temp_dir().join(format!("xyserve-wal-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig::new()
            .with_workers(2)
            .unwrap()
            .with_shards(2)
            .unwrap()
            .with_wal(WalPolicy::new(&dir));
        let server = IngestServer::try_start(config.clone()).unwrap();
        for v in 0..5 {
            let t = server.submit_tracked("doc", format!("<d><v>{v}</v></d>")).unwrap();
            let done = t.wait().unwrap();
            assert!(done.durable, "Always mode must ack durable");
        }
        server.submit("other", "<o/>").unwrap();
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert!(report.metrics_text.contains("ingest_wal_appends_total 6"), "{}", report.metrics_text);

        // No snapshot store configured: the log alone must reconstruct
        // everything that was acked.
        let server = IngestServer::try_start(config).unwrap();
        assert_eq!(server.total_versions(), 6);
        let repo = server.repository_for("doc");
        for v in 0..5 {
            assert_eq!(repo.version_xml("doc", v).unwrap(), format!("<d><v>{v}</v></d>"));
        }
        assert_eq!(server.metrics().wal_replayed.get(), 6);
        // Ingest continues on the replayed chains and keeps logging.
        let t = server.submit_tracked("doc", "<d><v>5</v></d>").unwrap();
        let done = t.wait().unwrap();
        assert_eq!(done.version, 5);
        assert!(done.durable);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_wal_acks_are_not_durable() {
        let server = tiny_server(1);
        let t = server.submit_tracked("doc", "<a/>").unwrap();
        assert!(!t.wait().unwrap().durable);
        drop(server);
    }

    #[test]
    fn snapshot_advances_wal_watermark_and_truncates_segments() {
        let base = std::env::temp_dir().join(format!("xyserve-wal-wm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let config = ServeConfig::new()
            .with_workers(1)
            .unwrap()
            .with_snapshots(
                SnapshotPolicy::new(base.join("snap")).with_interval(Duration::from_secs(3600)),
            )
            // Tiny segments so the log rolls during the test (clamped to 4 KiB).
            .with_wal(WalPolicy::new(base.join("wal")).with_segment_bytes(1));
        let server = IngestServer::try_start(config.clone()).unwrap();
        for v in 0..20 {
            server
                .submit_tracked(
                    "doc",
                    // The pad changes every version, so each logged delta
                    // carries ~1 KiB of old+new text and the log rolls.
                    format!("<d><v>{v}</v><pad>{}</pad></d>", format!("{v:03}").repeat(256)),
                )
                .unwrap()
                .wait()
                .unwrap();
        }
        assert!(server.wal().unwrap().segment_count() > 1, "segments must roll");
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");

        // The final snapshot covered the whole log, so a restart replays
        // nothing and consumed segments are gone.
        let server = IngestServer::try_start(config).unwrap();
        assert_eq!(server.metrics().wal_replayed.get(), 0, "watermark covers the log");
        assert_eq!(server.total_versions(), 20);
        let wal = server.wal().unwrap();
        assert_eq!(wal.watermark(), 20);
        assert_eq!(wal.segment_count(), 1, "consumed segments truncated");
        drop(server);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn background_compactor_bounds_chain_hops() {
        let server = IngestServer::start(
            ServeConfig::new().with_workers(2).unwrap().with_compact_chain_max(8),
        );
        for v in 0..64 {
            server.submit("doc", format!("<d><v>{v}</v></d>")).unwrap();
        }
        server.wait_idle();
        let repo = server.repository_for("doc");
        assert!(
            eventually(|| repo.chain_hops("doc").unwrap() <= 8),
            "compactor must bound hops, got {:?} with {:?} checkpoints",
            repo.chain_hops("doc"),
            repo.chain_checkpoints("doc"),
        );
        // Compaction must not change what reconstruction returns.
        for v in [0, 7, 31, 63] {
            assert_eq!(repo.version_xml("doc", v).unwrap(), format!("<d><v>{v}</v></d>"));
        }
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert!(report.metrics_text.contains("ingest_chain_compactions_total"), "{}", report.metrics_text);
    }

    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        assert_eq!(ServeConfig::new().with_workers(0).unwrap_err(), ConfigError::ZeroWorkers);
        assert_eq!(
            ServeConfig::new().with_workers(2000).unwrap_err(),
            ConfigError::TooManyWorkers { requested: 2000, max: ServeConfig::MAX_WORKERS },
        );
        assert_eq!(
            ServeConfig::new().with_queue_capacity(0).unwrap_err(),
            ConfigError::ZeroQueueCapacity,
        );
        assert_eq!(ServeConfig::new().with_shards(0).unwrap_err(), ConfigError::ZeroShards);
        assert_eq!(
            ServeConfig::new().with_shards(3).unwrap_err(),
            ConfigError::ShardsNotPowerOfTwo { requested: 3 },
        );
        assert_eq!(
            ServeConfig::new().with_steal_batch(0).unwrap_err(),
            ConfigError::ZeroStealBatch,
        );
        // try_start re-validates against direct field mutation.
        let mut config = ServeConfig::new();
        config.shards = 6;
        assert!(matches!(
            IngestServer::try_start(config),
            Err(StartError::Config(ConfigError::ShardsNotPowerOfTwo { requested: 6 })),
        ));
    }

    #[test]
    fn effective_config_reports_oversubscription() {
        let eff = ServeConfig::new()
            .with_workers(ServeConfig::MAX_WORKERS)
            .unwrap()
            .with_steal_batch(2)
            .unwrap()
            .effective();
        assert_eq!(eff.workers, ServeConfig::MAX_WORKERS);
        assert_eq!(eff.steal_batch, 2);
        // 1024 workers oversubscribe any host that can report parallelism.
        if eff.available_parallelism > 0 {
            assert!(eff.oversubscribed);
        }
        let line = eff.to_string();
        assert!(line.contains("workers=1024"), "{line}");
        assert!(line.contains("steal_batch=2"), "{line}");
        // A worker count at the host's parallelism is not oversubscribed.
        let eff = ServeConfig::new().with_workers(1).unwrap().effective();
        assert!(!eff.oversubscribed, "{eff}");
    }

    #[test]
    fn parked_home_worker_gets_its_backlog_stolen() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Every job goes to one hot key, so every job homes to one deque;
        // park that worker's own pops briefly so the other workers must
        // steal to make progress.
        let workers = 4;
        let home = home_worker("hot", workers);
        let parked = Arc::new(AtomicU64::new(0));
        let parked2 = Arc::clone(&parked);
        let hook: SchedHook = Arc::new(move |e| {
            if let crate::scheduler::SchedEvent::PopOwn { worker } = e {
                // Bounded: ~50 short naps, then the worker runs normally.
                if worker == home && parked2.fetch_add(1, Ordering::Relaxed) < 50 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        });
        let server = IngestServer::start(
            ServeConfig::new()
                .with_workers(workers)
                .unwrap()
                .with_queue_capacity(64)
                .unwrap()
                .with_shards(2)
                .unwrap()
                .with_steal_batch(2)
                .unwrap()
                .with_sched_hook(hook),
        );
        for v in 0..40 {
            server.submit("hot", format!("<d><v>{v}</v></d>")).unwrap();
        }
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!(report.succeeded, 40);
        assert!(
            report.metrics_text.contains("ingest_steals_total"),
            "{}",
            report.metrics_text
        );
        assert!(report.metrics_text.contains("ingest_deque_depth{deque=\"0\"}"));
    }
}
