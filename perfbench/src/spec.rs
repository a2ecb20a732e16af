//! The three workloads. Every constant that shapes a run lives here, so
//! two commits measured with the same benchmark code see the same load.
//!
//! All three enter through the same HTTP routes; a different layer
//! dominates each:
//! - `crawl`: many mid-size pages re-crawled under fsynced acks, the
//!   common Xyleme case. The WAL append, the HTTP front and the scheduler
//!   are a large share of each request.
//! - `bigdoc`: few large documents. Parsing and the five diff phases are
//!   most of each request; the fsync is spread over a large one.
//! - `history`: a restart over a preloaded log, then mostly reads of
//!   random past versions, which rebuild through inverse deltas on the
//!   reactor thread while ingests and the compactor hold shard locks.
//!
//! crawl and bigdoc also read back the version just acknowledged, so that
//! every workload reports every end-to-end metric.
//!
//! BENCHMARK.json lists crawl and history only. bigdoc stays runnable, but
//! its CPU-bound requests track the shared host's speed so closely that
//! ten seeded runs spread by up to 0.29 (IQR over median) in throughput
//! and p50, beyond any regression bound the benchmark may set; its layers
//! are still measured by the traced runs of the other two workloads.

/// Which version an open-loop read asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadTarget {
    /// The version this connection acknowledged last (read-your-write):
    /// zero reconstruction hops, one serialization.
    Latest,
    /// A uniformly random acknowledged version of one of the connection's
    /// keys: reconstruction through inverse deltas.
    UniformPast,
}

/// One workload: corpus shape, server settings and traffic mix.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Document keys, split between the two client connections by parity.
    pub keys: usize,
    /// Target serialized size of each key's base document.
    pub doc_bytes: usize,
    /// Independent edits of the base per key; versions cycle through them.
    pub variants: usize,
    /// `xysim` per-node probability of each edit kind in one variant.
    pub change_p: f64,
    /// Every variant's size must lie within this share of its base size.
    pub size_band: (f64, f64),
    /// Versions per key written to the log before the server starts
    /// (0: the server starts empty and version 0 is loaded over HTTP).
    pub preload_versions: usize,
    /// `ServeConfig::with_compact_chain_max` (0: no compactor).
    pub compact_chain_max: usize,
    /// Paced open-loop request rate, requests per second over both
    /// connections, well below the closed-loop capacity.
    pub open_rate: f64,
    /// Of every `mix_period` requests a connection sends, this many are
    /// reads.
    pub reads_per_period: usize,
    pub mix_period: usize,
    pub read_target: ReadTarget,
    /// Ingests per key driven through each stack in the traced run.
    pub trace_rounds: usize,
    /// Reads in the traced run.
    pub trace_reads: usize,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let crawl = Spec {
            name: "crawl",
            keys: 64,
            doc_bytes: 20_000,
            variants: 8,
            change_p: 0.02,
            size_band: (0.65, 1.2),
            preload_versions: 0,
            compact_chain_max: 0,
            open_rate: 240.0,
            reads_per_period: 1,
            mix_period: 3,
            read_target: ReadTarget::Latest,
            trace_rounds: 8,
            trace_reads: 128,
        };
        match name {
            "crawl" => Some(crawl),
            "bigdoc" => Some(Spec {
                name: "bigdoc",
                keys: 4,
                doc_bytes: 750_000,
                variants: 3,
                change_p: 0.015,
                open_rate: 8.0,
                reads_per_period: 1,
                mix_period: 2,
                trace_rounds: 24,
                trace_reads: 24,
                ..crawl
            }),
            "history" => Some(Spec {
                name: "history",
                keys: 16,
                preload_versions: 64,
                change_p: 0.01,
                compact_chain_max: 16,
                open_rate: 300.0,
                reads_per_period: 3,
                mix_period: 4,
                read_target: ReadTarget::UniformPast,
                trace_rounds: 16,
                trace_reads: 256,
                ..crawl
            }),
            _ => None,
        }
    }

    /// Is a connection's `i`-th request a read? Fixed by index, so every
    /// open loop of a workload sends the same number of reads and ingests.
    pub fn is_read(&self, i: usize) -> bool {
        i % self.mix_period < self.reads_per_period
    }
}
