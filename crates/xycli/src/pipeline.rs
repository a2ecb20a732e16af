//! The ingest-pipeline flags `xydiff serve` and `xydiff ingest` share:
//! `--workers`, `--queue`, `--shards`, `--mode`, `--wal-dir`, `--wal-sync`
//! and `--compact-chain-max`, parsed into one [`ServeConfig`].

use xydiff::MatchMode;
use xyserve::{ServeConfig, WalPolicy, WalSync};

#[derive(Default)]
pub(crate) struct PipelineFlags {
    config: ServeConfig,
    wal_dir: Option<String>,
    wal_sync: Option<WalSync>,
}

impl PipelineFlags {
    /// Consume `flag` (and its value from `it`) if it is a pipeline flag.
    /// `Ok(false)` means the flag belongs to the caller.
    pub(crate) fn take<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let config = std::mem::take(&mut self.config);
        self.config = match flag {
            "--workers" => config.with_workers(flag_value(it, flag)?).map_err(|e| e.to_string())?,
            "--queue" => {
                config.with_queue_capacity(flag_value(it, flag)?).map_err(|e| e.to_string())?
            }
            "--shards" => config.with_shards(flag_value(it, flag)?).map_err(|e| e.to_string())?,
            "--mode" => {
                let v = it.next().ok_or("--mode needs a value (buld|unordered|similarity)")?;
                config.with_mode(v.parse::<MatchMode>().map_err(|e| format!("--mode: {e}"))?)
            }
            "--compact-chain-max" => config.with_compact_chain_max(flag_value(it, flag)?),
            "--wal-dir" => {
                self.wal_dir = Some(it.next().ok_or("--wal-dir needs a directory")?.clone());
                config
            }
            "--wal-sync" => {
                let v = it.next().ok_or("--wal-sync needs a mode (always | none)")?;
                self.wal_sync = Some(
                    WalSync::parse(v)
                        .ok_or_else(|| format!("--wal-sync must be always or none, got {v:?}"))?,
                );
                config
            }
            _ => {
                self.config = config;
                return Ok(false);
            }
        };
        Ok(true)
    }

    /// The configured pipeline, with its write-ahead log attached.
    pub(crate) fn finish(self) -> Result<ServeConfig, String> {
        match (self.wal_dir, self.wal_sync) {
            (None, Some(_)) => Err("--wal-sync needs --wal-dir".to_string()),
            (None, None) => Ok(self.config),
            (Some(dir), sync) => {
                let mut policy = WalPolicy::new(dir);
                policy.sync = sync.unwrap_or(policy.sync);
                Ok(self.config.with_wal(policy))
            }
        }
    }
}

/// The value after `flag`, as a non-negative integer.
pub(crate) fn flag_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<usize, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<usize>().map_err(|_| format!("{flag} needs a positive integer, got {v:?}"))
}
