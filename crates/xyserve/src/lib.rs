//! xyserve — the concurrent ingestion server of the Xyleme-Change loop.
//!
//! The paper's Figure 1 sketches a production service: a crawler feeds
//! document snapshots to a diff module, deltas are appended to the
//! repository, and an alerter matches them against subscriptions — "the
//! versioning of tens of millions of documents per day". This crate scales
//! the single-threaded loop the other crates implement into that service
//! shape:
//!
//! - [`scheduler::Scheduler`] — a sharded work-stealing scheduler (std
//!   `Mutex`/`Condvar`/atomics only): one bounded deque per worker, keys
//!   routed to a home deque, idle workers steal FIFO batches of whole
//!   key-runs, with a single global capacity budget as the backpressure
//!   toward the crawler;
//! - [`IngestServer`] — a worker pool over hash-sharded
//!   [`xywarehouse::Repository`] shards, with per-key ordering, bounded
//!   retry for transient failures, and a dead-letter queue for poison
//!   documents;
//! - [`metrics::Metrics`] — atomic counters, per-deque depth gauges, steal
//!   counters, and per-phase latency histograms with a Prometheus text
//!   exposition.
//!
//! `ServeConfig` is `#[non_exhaustive]` and built through `with_*` methods,
//! so new knobs (snapshots, network limits) never break callers; the
//! capacity-like knobs validate and return a typed [`ConfigError`]:
//!
//! ```
//! use xyserve::{IngestServer, ServeConfig};
//!
//! let server = IngestServer::start(ServeConfig::new().with_workers(2).unwrap());
//! server.submit("doc.xml", "<doc><p>v0</p></doc>").unwrap();
//! // Tracked submissions resolve to the stored version and delta size.
//! let ticket = server.submit_tracked("doc.xml", "<doc><p>v1</p></doc>").unwrap();
//! let done = ticket.wait().unwrap();
//! assert_eq!(done.version, 1);
//! let report = server.shutdown();
//! assert!(report.is_balanced());
//! assert_eq!(report.succeeded, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod durability;
pub mod metrics;
pub mod scheduler;
pub mod server;

pub use config::{ConfigError, EffectiveConfig, FaultHook, ServeConfig, SnapshotPolicy, WalPolicy};
pub use metrics::{Counter, Gauge, Histogram, Metrics};
pub use scheduler::{Closed, SchedEvent, SchedHook, Scheduler, Steal, TryPushError};
pub use server::{
    home_worker, Completed, CompletionFn, DeadLetter, IngestOutcome, IngestServer,
    ShutdownReport, StartError, SubmitError, Ticket,
};
pub use xywal::WalSync;
