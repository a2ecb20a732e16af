//! The system under test as a user deploys it: `NetServer` with two
//! ingest workers, a write-ahead log fsynced on every ack, and a fixed
//! alerter. Also the on-disk helpers the workloads share.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::spec::Spec;
use xynet::{NetConfig, NetServer};
use xyserve::{IngestServer, ServeConfig, WalPolicy, WalSync};
use xywarehouse::{Alerter, OpFilter, Subscription};

/// Ingest workers: the benchmark host's core count.
pub const WORKERS: usize = 2;

/// Path-query subscriptions evaluated on every delta.
pub fn alerter() -> Alerter {
    let mut alerter = Alerter::new();
    for (name, query, filter) in [
        (
            "new-products",
            "/catalog/category/product",
            OpFilter::Insert,
        ),
        ("price-moves", "//product/price", OpFilter::Update),
        ("dropped-categories", "/catalog/category", OpFilter::Delete),
    ] {
        alerter.subscribe(
            Subscription::everything(name)
                .try_at_query(query)
                .expect("the subscription queries are valid")
                .only(filter),
        );
    }
    alerter
}

pub fn serve_config(spec: &Spec, wal_dir: &Path, sync: WalSync) -> ServeConfig {
    ServeConfig::new()
        .with_workers(WORKERS)
        .expect("two workers is a valid pool")
        .with_alerter(alerter())
        .with_wal(WalPolicy::new(wal_dir).with_sync(sync))
        .with_compact_chain_max(spec.compact_chain_max)
}

pub fn start_net(spec: &Spec, wal_dir: &Path) -> Result<NetServer, String> {
    // The traced run leaves its connections idle while it drives the other
    // stacks; the default 10 s idle eviction would close them.
    NetServer::start(
        NetConfig::new().with_idle_timeout(Duration::from_secs(600)),
        serve_config(spec, wal_dir, WalSync::Always),
    )
    .map_err(|e| format!("starting the server over {}: {e}", wal_dir.display()))
}

pub fn start_ingest(spec: &Spec, wal_dir: &Path) -> Result<IngestServer, String> {
    IngestServer::try_start(serve_config(spec, wal_dir, WalSync::Always))
        .map_err(|e| format!("starting the pipeline over {}: {e}", wal_dir.display()))
}

/// Working directory of one run (its write-ahead logs) under the output
/// directory, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(root: &Path, tag: &str) -> Result<WorkDir, String> {
        let dir = root.join(format!("run-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    pub fn root(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the files in `dir` (the WAL's segments).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Write the preloaded versions of every key to a fresh log at `dir` through
/// the ingest pipeline (fsync left to the OS: this is input preparation,
/// not a measurement).
pub fn preload(spec: &Spec, docs: &[crate::corpus::Doc], dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = IngestServer::try_start(serve_config(spec, dir, WalSync::None))
        .map_err(|e| format!("starting the preload pipeline: {e}"))?;
    for v in 0..spec.preload_versions {
        for d in docs {
            server
                .submit(&d.key, d.snapshot(v))
                .map_err(|e| format!("preload submit: {e}"))?;
        }
    }
    let report = server.shutdown();
    let expected = (spec.preload_versions * docs.len()) as u64;
    if !report.is_balanced() || report.succeeded != expected {
        return Err(format!(
            "preload stored {} of {expected} versions ({} dead letters)",
            report.succeeded, report.dead_lettered
        ));
    }
    Ok(())
}
