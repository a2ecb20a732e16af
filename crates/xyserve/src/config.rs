//! Configuration of the ingest server: [`ServeConfig`] and its validated
//! knobs, the snapshot and write-ahead-log policies, and the typed errors
//! the fallible builders return.

use crate::scheduler::SchedHook;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use xydiff::{DiffOptions, MatchMode};
use xywarehouse::Alerter;

/// Decides whether an attempt experiences a (simulated) transient failure.
/// Arguments: document key, per-key sequence number, 1-based attempt count.
pub type FaultHook = Arc<dyn Fn(&str, u64, u32) -> bool + Send + Sync>;

/// When and where the server persists shard snapshots.
///
/// Built with [`SnapshotPolicy::new`] plus `with_*` methods; the struct is
/// `#[non_exhaustive]` so trigger knobs can be added without breaking
/// callers. The store keeps the two newest published generations.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct SnapshotPolicy {
    /// Root directory of the [`xywarehouse::SnapshotStore`].
    pub dir: PathBuf,
    /// Snapshot this often while running.
    pub interval: Duration,
}

impl SnapshotPolicy {
    /// Snapshot into `dir` every 30 seconds.
    pub fn new(dir: impl Into<PathBuf>) -> SnapshotPolicy {
        SnapshotPolicy { dir: dir.into(), interval: Duration::from_secs(30) }
    }

    /// Set the snapshot interval.
    #[must_use]
    pub fn with_interval(mut self, interval: Duration) -> SnapshotPolicy {
        self.interval = interval;
        self
    }
}

/// Where and how the server write-ahead-logs every completed ingest.
///
/// With a policy configured, each worker appends the computed delta (or the
/// initial document) to a [`xywal::Wal`] **before** acknowledging the
/// ingest, so a `kill -9` after the ack loses nothing: on restart the
/// server replays `latest snapshot + log suffix`. It is the log's own
/// [`xywal::WalConfig`]: group-committed fsync on every append and 4 MiB
/// segments unless its `with_*` builders say otherwise.
pub use xywal::WalConfig as WalPolicy;

/// A rejected [`ServeConfig`] knob, reported by the fallible `with_*`
/// builders (and re-checked by
/// [`IngestServer::try_start`](crate::IngestServer::try_start) in case a
/// caller mutated the public fields directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `workers` was 0 — the server would accept work and never run it.
    ZeroWorkers,
    /// `workers` exceeded [`ServeConfig::MAX_WORKERS`].
    TooManyWorkers {
        /// The rejected worker count.
        requested: usize,
        /// The permitted maximum.
        max: usize,
    },
    /// `queue_capacity` was 0 — every submit would shed.
    ZeroQueueCapacity,
    /// `shards` was 0 — there would be nowhere to store documents.
    ZeroShards,
    /// `shards` was not a power of two, so hash partitioning would be
    /// visibly biased (and masking unavailable).
    ShardsNotPowerOfTwo {
        /// The rejected shard count.
        requested: usize,
    },
    /// `steal_batch` was 0 — idle workers could never steal anything.
    ZeroStealBatch,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::TooManyWorkers { requested, max } => {
                write!(f, "workers = {requested} exceeds the maximum of {max}")
            }
            ConfigError::ZeroQueueCapacity => write!(f, "queue capacity must be at least 1"),
            ConfigError::ZeroShards => write!(f, "shards must be at least 1"),
            ConfigError::ShardsNotPowerOfTwo { requested } => {
                write!(f, "shards = {requested} is not a power of two")
            }
            ConfigError::ZeroStealBatch => write!(f, "steal batch must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The values a validated [`ServeConfig`] actually runs with, including how
/// the worker count relates to the host's parallelism. Rendered by
/// `Display` (one line, `key=value` pairs) for operator-facing reporting —
/// `xydiff serve` and `repro ingest` print it at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EffectiveConfig {
    /// Worker threads (and scheduler deques) the server will run.
    pub workers: usize,
    /// The host's available parallelism (0 when undetectable).
    pub available_parallelism: usize,
    /// True when `workers` exceeds the host's available parallelism —
    /// legal (CI runs 8 workers on 1 core to shake out interleavings) but
    /// worth surfacing, because it adds context switching without speedup.
    pub oversubscribed: bool,
    /// Repository shards.
    pub shards: usize,
    /// Global scheduler capacity (sum of deque depths).
    pub queue_capacity: usize,
    /// Jobs an idle worker steals per scan (before key-run completion).
    pub steal_batch: usize,
    /// Diff matcher mode every shard runs (`buld`, `unordered`, …).
    pub mode: MatchMode,
    /// Transient-failure retry budget.
    pub max_retries: u32,
    /// Whether a write-ahead log is configured.
    pub wal: bool,
    /// Chain-compaction hop bound (0 = compactor disabled).
    pub compact_chain_max: usize,
}

impl std::fmt::Display for EffectiveConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers={} available_parallelism={} oversubscribed={} shards={} \
             queue_capacity={} steal_batch={} mode={} max_retries={} wal={} \
             compact_chain_max={}",
            self.workers,
            self.available_parallelism,
            self.oversubscribed,
            self.shards,
            self.queue_capacity,
            self.steal_batch,
            self.mode,
            self.max_retries,
            self.wal,
            self.compact_chain_max
        )
    }
}

/// Configuration of an [`IngestServer`](crate::IngestServer).
///
/// Built with [`ServeConfig::new`] plus `with_*` methods. The struct is
/// `#[non_exhaustive]`: construct it through the builder, not a struct
/// literal, so new fields (as the HTTP and snapshot layers grow) do not
/// break downstream callers. The builders for the capacity-like knobs
/// (`workers`, `queue_capacity`, `shards`, `steal_batch`) are fallible and
/// reject degenerate values with a typed [`ConfigError`] instead of
/// silently clamping; [`ServeConfig::effective`] reports what a validated
/// config will actually run with.
#[derive(Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Number of worker threads (one scheduler deque each).
    pub workers: usize,
    /// Global scheduler capacity — the backpressure threshold over the
    /// *sum* of all deque depths.
    pub queue_capacity: usize,
    /// How many times a transient failure is retried before dead-lettering.
    pub max_retries: u32,
    /// Number of repository shards (keys are hash-partitioned; must be a
    /// power of two).
    pub shards: usize,
    /// Jobs an idle worker steals per scan (whole key-runs may extend it).
    pub steal_batch: usize,
    /// Diff options used by every shard.
    pub diff_options: DiffOptions,
    /// Subscriptions evaluated on every ingested delta.
    pub alerter: Alerter,
    /// Transient-failure injection for tests; `None` in production.
    pub fault_hook: Option<FaultHook>,
    /// Scheduler decision-point observer for tests; `None` in production.
    pub sched_hook: Option<SchedHook>,
    /// Periodic persistence; `None` keeps the server memory-only.
    pub snapshots: Option<SnapshotPolicy>,
    /// Write-ahead logging of every completed ingest; `None` means an ack
    /// only guarantees the version is in memory.
    pub wal: Option<WalPolicy>,
    /// Background chain compaction: keep every document reconstructible
    /// within this many delta applications (0 disables the compactor).
    pub compact_chain_max: usize,
}

impl ServeConfig {
    /// Upper bound on the worker count — far above any sane pool, low
    /// enough to catch a units mistake (e.g. passing a byte size).
    pub const MAX_WORKERS: usize = 1024;

    /// The default configuration (same as [`ServeConfig::default`]).
    pub fn new() -> ServeConfig {
        ServeConfig::default()
    }

    /// Set the worker-thread count. Rejects 0 and counts above
    /// [`ServeConfig::MAX_WORKERS`]; oversubscribing the host is allowed
    /// (and flagged by [`ServeConfig::effective`]).
    pub fn with_workers(mut self, workers: usize) -> Result<ServeConfig, ConfigError> {
        self.workers = workers;
        self.validate().map(|()| self)
    }

    /// Set the global scheduler capacity. Rejects 0.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Result<ServeConfig, ConfigError> {
        self.queue_capacity = capacity;
        self.validate().map(|()| self)
    }

    /// Set the transient-failure retry budget.
    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> ServeConfig {
        self.max_retries = retries;
        self
    }

    /// Set the repository shard count. Rejects 0 and non-powers-of-two.
    pub fn with_shards(mut self, shards: usize) -> Result<ServeConfig, ConfigError> {
        self.shards = shards;
        self.validate().map(|()| self)
    }

    /// Set how many jobs an idle worker steals per scan. Rejects 0.
    pub fn with_steal_batch(mut self, batch: usize) -> Result<ServeConfig, ConfigError> {
        self.steal_batch = batch;
        self.validate().map(|()| self)
    }

    /// Check every capacity-like knob. The fallible `with_*` builders call
    /// this after setting their field;
    /// [`IngestServer::try_start`](crate::IngestServer::try_start) calls it
    /// again for callers that set the public fields directly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.workers > ServeConfig::MAX_WORKERS {
            return Err(ConfigError::TooManyWorkers {
                requested: self.workers,
                max: ServeConfig::MAX_WORKERS,
            });
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if !self.shards.is_power_of_two() {
            return Err(ConfigError::ShardsNotPowerOfTwo { requested: self.shards });
        }
        if self.steal_batch == 0 {
            return Err(ConfigError::ZeroStealBatch);
        }
        Ok(())
    }

    /// What this config will actually run with (host parallelism,
    /// oversubscription flag) — for operator-facing startup reporting.
    pub fn effective(&self) -> EffectiveConfig {
        let available = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
        EffectiveConfig {
            workers: self.workers,
            available_parallelism: available,
            oversubscribed: available > 0 && self.workers > available,
            shards: self.shards,
            queue_capacity: self.queue_capacity,
            steal_batch: self.steal_batch,
            mode: self.diff_options.mode,
            max_retries: self.max_retries,
            wal: self.wal.is_some(),
            compact_chain_max: self.compact_chain_max,
        }
    }

    /// Select the diff matcher mode every shard runs ([`DiffOptions::mode`]).
    #[must_use]
    pub fn with_mode(mut self, mode: MatchMode) -> ServeConfig {
        self.diff_options.mode = mode;
        self
    }

    /// Set the alerter evaluated on every ingested delta.
    #[must_use]
    pub fn with_alerter(mut self, alerter: Alerter) -> ServeConfig {
        self.alerter = alerter;
        self
    }

    /// Install a transient-failure injection hook (tests).
    #[must_use]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> ServeConfig {
        self.fault_hook = Some(hook);
        self
    }

    /// Install a scheduler decision-point observer (tests).
    #[must_use]
    pub fn with_sched_hook(mut self, hook: SchedHook) -> ServeConfig {
        self.sched_hook = Some(hook);
        self
    }

    /// Enable periodic shard snapshots under `policy`.
    #[must_use]
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> ServeConfig {
        self.snapshots = Some(policy);
        self
    }

    /// Enable write-ahead logging under `policy`: every completed ingest is
    /// appended (and, in [`xywal::WalSync::Always`] mode, fsynced) before the ack.
    #[must_use]
    pub fn with_wal(mut self, policy: WalPolicy) -> ServeConfig {
        self.wal = Some(policy);
        self
    }

    /// Enable the background compactor: fold delta chains through
    /// checkpoints so any version reconstructs within `max` delta
    /// applications (0 disables it).
    #[must_use]
    pub fn with_compact_chain_max(mut self, max: usize) -> ServeConfig {
        self.compact_chain_max = max;
        self
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("max_retries", &self.max_retries)
            .field("shards", &self.shards)
            .field("steal_batch", &self.steal_batch)
            .field("mode", &self.diff_options.mode)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("sched_hook", &self.sched_hook.is_some())
            .field("snapshots", &self.snapshots)
            .field("wal", &self.wal)
            .field("compact_chain_max", &self.compact_chain_max)
            .finish_non_exhaustive()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_capacity: 128,
            max_retries: 2,
            shards: 8,
            steal_batch: 4,
            diff_options: DiffOptions::default(),
            alerter: Alerter::new(),
            fault_hook: None,
            sched_hook: None,
            snapshots: None,
            wal: None,
            compact_chain_max: 0,
        }
    }
}
