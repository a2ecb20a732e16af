//! The untraced run: every end-to-end metric a user of the server sees.
//!
//! Phases, all over HTTP on two keep-alive connections:
//! 1. set-up, repeated [`MIN_SETUPS`] times and more until the set-ups
//!    have taken [`SETUP_BUDGET_S`]: start the server (WAL open and
//!    replay) and load version 0 of every key. A short set-up is noisier,
//!    so it gets more samples; `setup_s` is their median;
//! 2. [`SEGMENTS`] times in turn: a closed loop for 30% of the segment
//!    (ingest throughput), then a paced open loop for the rest (latency,
//!    each request timed from when it was due). Alternating spreads both
//!    measurements over the whole run, so a slow spell of the host (fsync
//!    cost on a shared disk and CPU steal drift by tens of percent) weighs
//!    on both alike instead of on whichever phase it fell into. Throughput
//!    is the median of the segments' rates, so a spell shorter than half
//!    the run does not move it;
//! 3. checks: every key's latest version, a balanced shutdown, and on a
//!    preloaded workload a restart that replays every acknowledged version.
//!
//! Both loops send the workload's mix of reads and ingests.

use std::time::{Duration, Instant};

use crate::corpus::Doc;
use crate::load::{Client, Tally};
use crate::report::Metric;
use crate::rng::mix;
use crate::spec::Spec;
use crate::stack::{self, WorkDir};
use crate::stats::{median, Summary};

pub const MIN_SETUPS: usize = 11;
const MAX_SETUPS: usize = 101;
pub const SETUP_BUDGET_S: f64 = 3.0;
const SEGMENTS: usize = 20;
const CLOSED_SHARE: f64 = 0.3;

/// Latencies of one open-loop connection, in milliseconds.
#[derive(Default)]
pub struct OpenSamples {
    pub ingest_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    /// How late each request went out relative to its schedule.
    pub late_ms: Vec<f64>,
}

impl OpenSamples {
    pub fn merge(&mut self, o: OpenSamples) {
        self.ingest_ms.extend(o.ingest_ms);
        self.read_ms.extend(o.read_ms);
        self.late_ms.extend(o.late_ms);
    }
}

/// Drive connection `c`'s share of a paced open loop: request `i` of `n`,
/// due at `start + i / open_rate`, goes to connection `i % 2`.
pub fn open_loop(
    client: &mut Client<'_>,
    spec: &Spec,
    c: usize,
    n: usize,
    start: Instant,
) -> Result<OpenSamples, String> {
    let mut out = OpenSamples::default();
    for i in (c..n).step_by(2) {
        let due = start + Duration::from_secs_f64(i as f64 / spec.open_rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.late_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        match send(client, spec, i / 2)? {
            Sent::Read(true) => out.read_ms.push(ms(due.elapsed())),
            Sent::Ingest(true) => out.ingest_ms.push(ms(due.elapsed())),
            _ => {}
        }
    }
    Ok(out)
}

/// What a connection's `j`-th request was, and whether it succeeded.
pub enum Sent {
    Read(bool),
    Ingest(bool),
}

/// Send a connection's `j`-th request of the workload's mix.
pub fn send(client: &mut Client<'_>, spec: &Spec, j: usize) -> Result<Sent, String> {
    Ok(if spec.is_read(j) {
        let (slot, v) = client.pick_read(spec.read_target);
        Sent::Read(client.read(slot, Some(v))?)
    } else {
        Sent::Ingest(client.ingest_next()?)
    })
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` on both clients at once.
pub fn both<'a, T: Send>(
    clients: &mut [Client<'a>],
    f: impl Fn(usize, &mut Client<'a>) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || f(c, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub struct Timed {
    pub metrics: Vec<Metric>,
    /// Printed and recorded, but not among the benchmark's gated metrics.
    pub extra: Vec<Metric>,
    pub tally: Tally,
}

pub fn run(
    spec: &Spec,
    docs: &[Doc],
    seed: u64,
    seconds: f64,
    work: &WorkDir,
) -> Result<Timed, String> {
    let mut tally = Tally::default();
    let log = work.path("log");
    if spec.preload_versions > 0 {
        stack::preload(spec, docs, &log)?;
    }

    // 1. Set-up, several times; the last server stays up for the run.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut live = None;
    for r in 0..MAX_SETUPS {
        let dir = if spec.preload_versions > 0 {
            log.clone()
        } else {
            work.path(&format!("wal-{r}"))
        };
        let t = Instant::now();
        let server = stack::start_net(spec, &dir)?;
        let addr = server.local_addr();
        let mut clients = (0..2)
            .map(|c| {
                Client::open(
                    addr,
                    docs,
                    c,
                    spec.preload_versions,
                    mix(seed, 100 + c as u64),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        if spec.preload_versions == 0 {
            both(&mut clients, |_, cl| {
                (0..cl.key_count()).try_for_each(|slot| cl.ingest(slot).map(drop))
            })?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        for d in docs {
            let have = server.ingest().repository_for(&d.key).version_count(&d.key);
            if have != spec.preload_versions.max(1) {
                tally.wrong(format!("{}: {have} versions after set-up", d.key));
            }
        }
        let last = r + 1 == MAX_SETUPS
            || (setup_s.len() >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S);
        if !last {
            let acked: u64 = clients.iter().map(|c| c.tally.acked).sum();
            clients.into_iter().for_each(|c| tally.merge(c.tally));
            check_shutdown(server, acked, &mut tally);
            if spec.preload_versions == 0 {
                let _ = std::fs::remove_dir_all(&dir);
            }
        } else {
            live = Some((server, clients, dir));
            break;
        }
    }
    let (server, mut clients, dir) = live.expect("at least one set-up ran");
    let wal_before = stack::dir_bytes(&dir);
    let body_before: u64 = clients.iter().map(|c| c.tally.acked_bytes).sum();

    // 2. Closed and open loops, alternating.
    let segment = seconds / SEGMENTS as f64;
    let closed = Duration::from_secs_f64(segment * CLOSED_SHARE);
    let n = (spec.open_rate * segment * (1.0 - CLOSED_SHARE)).round() as usize;
    let (mut closed_acked, mut closed_wall) = (0u64, Duration::ZERO);
    let mut rates = Vec::with_capacity(SEGMENTS);
    let mut open = OpenSamples::default();
    for _ in 0..SEGMENTS {
        let t = Instant::now();
        let deadline = t + closed;
        let counts = both(&mut clients, |_, cl| {
            let (mut acked, mut j) = (0u64, 0);
            while Instant::now() < deadline {
                acked += u64::from(matches!(send(cl, spec, j)?, Sent::Ingest(true)));
                j += 1;
            }
            Ok(acked)
        })?;
        let acked = counts.iter().sum::<u64>();
        let wall = t.elapsed();
        rates.push(acked as f64 / wall.as_secs_f64());
        closed_acked += acked;
        closed_wall += wall;
        let start = Instant::now() + Duration::from_millis(5);
        for part in both(&mut clients, |c, cl| open_loop(cl, spec, c, n, start))? {
            open.merge(part);
        }
    }
    let docs_per_s = median(&rates);
    eprintln!(
        "closed-loop ingests/s by segment: {}",
        rates.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>().join(" ")
    );

    // The serving process's peak, before the checks' restart adds its own.
    let rss = peak_rss_mb();

    // 3. Checks.
    both(&mut clients, |_, cl| cl.verify_latest())?;
    let acked: u64 = clients.iter().map(|c| c.tally.acked).sum();
    let body_bytes = clients.iter().map(|c| c.tally.acked_bytes).sum::<u64>() - body_before;
    let versions: Vec<(usize, usize)> = clients.iter().flat_map(|c| c.versions()).collect();
    clients.into_iter().for_each(|c| tally.merge(c.tally));
    check_shutdown(server, acked, &mut tally);
    let wal_growth = stack::dir_bytes(&dir).saturating_sub(wal_before);
    if spec.preload_versions > 0 {
        let restarted = stack::start_ingest(spec, &dir)?;
        for (k, want) in versions {
            let key = &docs[k].key;
            let have = restarted.repository_for(key).version_count(key);
            if have != want {
                tally.wrong(format!(
                    "{key}: restart replayed {have} of {want} acknowledged versions"
                ));
            }
        }
        restarted.shutdown();
    }

    let ingest = Summary::of(&open.ingest_ms).ok_or_else(|| {
        format!(
            "only {} timed ingests: too few for a percentile",
            open.ingest_ms.len()
        )
    })?;
    let read = Summary::of(&open.read_ms).ok_or_else(|| {
        format!(
            "only {} timed reads: too few for a percentile",
            open.read_ms.len()
        )
    })?;
    let metrics = vec![
        Metric::new(
            "setup_s",
            median(&setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        ),
        Metric::new(
            "ingest_docs_per_s",
            docs_per_s,
            "1/s",
            format!(
                "median of {SEGMENTS} segments; {closed_acked} ingests acked in a closed loop of the mix, 2 connections, {:.1} s",
                closed_wall.as_secs_f64()
            ),
        ),
        Metric::new("ingest_p50_ms", ingest.p50, "ms", format!("n={}", ingest.n)),
        Metric::new("read_p50_ms", read.p50, "ms", format!("n={}", read.n)),
        Metric::new(
            "success_frac",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
            format!("{} failed of {} attempted", tally.failed, tally.attempted),
        ),
        Metric::new(
            "delta_ops_per_doc",
            tally.ops as f64 / tally.ops_docs.max(1) as f64,
            "count",
            format!("n={}", tally.ops_docs),
        ),
        Metric::new(
            "wal_bytes_per_doc_byte",
            wal_growth as f64 / body_bytes.max(1) as f64,
            "ratio",
            format!("{wal_growth} WAL bytes for {body_bytes} body bytes"),
        ),
        Metric::new("peak_rss_mb", rss, "MB", "VmHWM of the process"),
    ];
    // Tails: the highest percentile with ten samples beyond it. Their
    // run-to-run spread is dominated by fsync stalls of the host's disk,
    // too wide for any regression bound, so they are reported, not gated.
    let mut extra = vec![
        Metric::new("ingest_tail_ms", ingest.tail, "ms", tail_note(&ingest)),
        Metric::new("read_tail_ms", read.tail, "ms", tail_note(&read)),
    ];
    if let Some(late) = Summary::of(&open.late_ms) {
        extra.push(Metric::new(
            "gen_late_tail_ms",
            late.tail,
            "ms",
            tail_note(&late),
        ));
    }
    Ok(Timed {
        metrics,
        extra,
        tally,
    })
}

pub fn tail_note(s: &Summary) -> String {
    format!("p{} of n={}, nearest rank", s.tail_q * 100.0, s.n)
}

/// Shut `server` down and check its accounting: balanced, nothing
/// dead-lettered, and exactly the acknowledged ingests stored.
pub fn check_shutdown(server: xynet::NetServer, acked: u64, tally: &mut Tally) {
    let report = server.shutdown();
    let ingest = &report.ingest;
    if !ingest.is_balanced() || ingest.dead_lettered != 0 || ingest.succeeded != acked {
        tally.wrong(format!(
            "shutdown: balanced={} succeeded={} (acked {acked}) dead_lettered={}",
            ingest.is_balanced(),
            ingest.succeeded,
            ingest.dead_lettered
        ));
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
