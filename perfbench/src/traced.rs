//! The traced run: per-layer metrics, measured from outside the program.
//!
//! The same ingests (same keys, same version pairs) are driven through
//! three stacks that each start from the same state:
//! - **A** over HTTP, into a `NetServer` (span `http.ingest`);
//! - **B** through `IngestServer::submit_tracked` → `Ticket::wait`
//!   (span `serve.ticket`);
//! - **C** through the calls `IngestServer::process` makes, in its order:
//!   `Document::parse` → `Repository::try_load_parsed_with` →
//!   `xml_io::delta_to_xml` → `Wal::append` (span `direct.ingest` with a
//!   child per call; the load's diff and alert times are the ones the
//!   repository reports).
//!
//! A layer's self time is the per-request difference between adjacent
//! stacks: A − B is the HTTP front, B − C the scheduler queue. A and B run
//! on two threads, as in the timed run; C runs alone. `Differ::diff_consume`
//! on the same pairs supplies the five phase times and match counts.
//!
//! Ingests go in rounds (every key once per round). Spans are recorded in
//! odd rounds only; even rounds after the first run untraced, and the
//! tracing overhead compares the two kinds' wall time per request on A.
//!
//! Accounting check: the medians of the self times must sum to the median
//! HTTP request time within [`ACCOUNTING_TOLERANCE`] (the per-request
//! differences telescope, but medians of parts need not add up to the
//! median of the whole, so this catches a layer whose time is skewed or
//! unpaired), and the five phases the differ reports must cover the
//! `diff_consume` call timed around them within [`PHASE_TOLERANCE`], as
//! in Figure 4's split.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::corpus::Doc;
use crate::load::{Client, Tally};
use crate::report::Metric;
use crate::rng::{mix, Rng};
use crate::spec::Spec;
use crate::stack::{self, WorkDir};
use crate::stats::{mean, median, Summary};
use crate::timed::{both, open_loop, tail_note, OpenSamples};
use crate::trace::{paired_diff, Tracer};
use xydelta::{xml_io, VersionChain, XidDocument};
use xydiff::{Differ, PhaseTimings};
use xytree::Document;
use xywal::{Record, Wal, WalConfig, WalSync};
use xywarehouse::{replay, Repository};

pub const ACCOUNTING_TOLERANCE: f64 = 0.25;
pub const PHASE_TOLERANCE: f64 = 0.15;
/// Hop bound used when timing compaction on workloads without a compactor.
const DEFAULT_COMPACT_BOUND: usize = 16;
/// Random past versions reconstructed to time delta application.
const APPLY_SAMPLES: usize = 64;

pub struct Traced {
    pub metrics: Vec<Metric>,
    /// The accounting check's figures, printed and recorded only.
    pub extra: Vec<Metric>,
    pub tally: Tally,
    /// Failed accounting checks (the run's outputs were still correct).
    pub accounting: Vec<String>,
}

/// One ingest: document index, version, round, request id.
#[derive(Clone, Copy)]
struct Req {
    k: usize,
    v: usize,
    round: usize,
    rid: u64,
}

impl Req {
    fn traced(&self) -> bool {
        self.round % 2 == 1
    }
}

/// Stack C: the layers called directly, in `IngestServer::process` order.
struct Direct {
    repo: Repository,
    wal: Wal,
    differ: Differ,
}

impl Direct {
    fn open(dir: &Path) -> Result<(Direct, Vec<(u64, Record)>), String> {
        let repo = Repository::with_options(xydiff::DiffOptions::default(), stack::alerter());
        let (wal, recovery) = Wal::open(&WalConfig::new(dir).with_sync(WalSync::Always))
            .map_err(|e| format!("opening the direct WAL: {e}"))?;
        replay::apply_records(&recovery.records, std::slice::from_ref(&repo), |_| 0)
            .map_err(|e| format!("replaying the direct WAL: {e}"))?;
        let differ = repo.differ();
        Ok((Direct { repo, wal, differ }, recovery.records))
    }

    /// Ingest `xml` as version `v` of `key`, recording one span per call.
    fn ingest(
        &mut self,
        key: &str,
        xml: &str,
        v: usize,
        rid: u64,
        tr: &mut Tracer,
    ) -> Result<usize, String> {
        let t0 = Instant::now();
        let doc = Document::parse(xml).map_err(|e| format!("{key}: parse: {e}"))?;
        // A key's first version is logged whole, serialized before the load
        // consumes the parse (as the server does); timed with the parse.
        let init_xml = (self.repo.version_count(key) == 0).then(|| doc.to_xml());
        let t1 = Instant::now();
        let out = self
            .repo
            .try_load_parsed_with(key, doc, &mut self.differ)
            .map_err(|e| format!("{key}: load: {e}"))?;
        let t3 = Instant::now();
        let (record, delta_bytes) = match init_xml {
            Some(xml) => (
                Record::Init {
                    key: key.to_string(),
                    xml,
                },
                0,
            ),
            None => {
                let delta_xml = xml_io::delta_to_xml(&out.delta);
                let n = delta_xml.len();
                (
                    Record::Delta {
                        key: key.to_string(),
                        version: out.version as u64,
                        delta_xml,
                    },
                    n,
                )
            }
        };
        let t4 = Instant::now();
        self.wal
            .append(&record)
            .map_err(|e| format!("{key}: wal append: {e}"))?;
        let t5 = Instant::now();
        if out.version != v {
            return Err(format!(
                "{key}: direct load stored v{}, expected v{v}",
                out.version
            ));
        }
        let outer = tr.span("direct.ingest", rid, None, t0, t5);
        tr.span("xytree.parse", rid, Some(outer), t0, t1);
        let load = tr.span("xywarehouse.load", rid, Some(outer), t1, t3);
        tr.reported("xydiff.diff", rid, load, Duration::ZERO, out.diff_time);
        tr.reported(
            "xywarehouse.alert",
            rid,
            load,
            out.diff_time,
            out.alert_time,
        );
        tr.span("xydelta.to_xml", rid, Some(outer), t3, t4);
        tr.span("xywal.append", rid, Some(outer), t4, t5);
        Ok(delta_bytes)
    }
}

pub fn run(
    spec: &Spec,
    docs: &[Doc],
    seed: u64,
    seconds: f64,
    work: &WorkDir,
    out_dir: &Path,
) -> Result<Traced, String> {
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut tr = Tracer::new(epoch);
    let (dir_a, dir_b, dir_c) = (work.path("a"), work.path("b"), work.path("c"));
    if spec.preload_versions > 0 {
        let log = work.path("log");
        stack::preload(spec, docs, &log)?;
        for d in [&dir_a, &dir_b, &dir_c] {
            stack::copy_dir(&log, d)?;
        }
    }
    let base = spec.preload_versions;

    // The three stacks, brought to the same state.
    let server = stack::start_net(spec, &dir_a)?;
    let mut clients = (0..2)
        .map(|c| {
            Client::open(
                server.local_addr(),
                docs,
                c,
                base,
                mix(seed, 100 + c as u64),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let pipeline = stack::start_ingest(spec, &dir_b)?;
    let (mut direct, _) = Direct::open(&dir_c)?;
    // Spans of untraced requests, which the metrics leave out.
    let mut untraced = Tracer::new(epoch);
    if base == 0 {
        both(&mut clients, |_, cl| {
            (0..cl.key_count()).try_for_each(|slot| cl.ingest(slot).map(drop))
        })?;
        for d in docs {
            submit_wait(&pipeline, &d.key, d.snapshot(0), 0, &mut tally);
            direct.ingest(&d.key, d.snapshot(0), 0, u64::MAX, &mut untraced)?;
        }
    }
    let first = base.max(1);
    let reqs: Vec<Req> = (0..spec.trace_rounds)
        .flat_map(|r| (0..docs.len()).map(move |k| (r, k)))
        .map(|(r, k)| Req {
            k,
            v: first + r,
            round: r,
            rid: (r * docs.len() + k) as u64,
        })
        .collect();

    // A: over HTTP, two connections; each connection's wall time per round.
    let a_spans = both(&mut clients, |c, cl| {
        let mut tr = Tracer::new(epoch);
        let mut walls = Vec::new();
        for round in 0..spec.trace_rounds {
            let t = Instant::now();
            for q in reqs.iter().filter(|q| q.k % 2 == c && q.round == round) {
                if q.traced() {
                    let t0 = Instant::now();
                    if cl.ingest(q.k / 2)? {
                        tr.span("http.ingest", q.rid, None, t0, Instant::now());
                    }
                } else {
                    cl.ingest(q.k / 2)?;
                }
            }
            walls.push(t.elapsed());
        }
        Ok((tr, walls))
    })?;
    let mut walls = vec![Duration::ZERO; spec.trace_rounds];
    for (t, w) in a_spans {
        tr.absorb(t);
        walls.iter_mut().zip(w).for_each(|(a, b)| *a += b);
    }
    let per_request = |odd: bool| {
        let rounds: Vec<f64> = (1..spec.trace_rounds)
            .filter(|r| (r % 2 == 1) == odd)
            .map(|r| walls[r].as_secs_f64())
            .collect();
        rounds.iter().sum::<f64>() / (rounds.len() * docs.len()).max(1) as f64
    };
    let tracing_overhead = per_request(true) / per_request(false) - 1.0;

    // B: tickets, two threads.
    let b_spans: Vec<(Tracer, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let (pipeline, reqs) = (&pipeline, &reqs);
                s.spawn(move || {
                    let (mut tr, mut tally) = (Tracer::new(epoch), Tally::default());
                    for q in reqs.iter().filter(|q| q.k % 2 == c) {
                        let d = &docs[q.k];
                        let xml = d.snapshot(q.v).to_string();
                        let t0 = Instant::now();
                        if submit_wait(pipeline, &d.key, xml, q.v, &mut tally) && q.traced() {
                            tr.span("serve.ticket", q.rid, None, t0, Instant::now());
                        }
                    }
                    (tr, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ticket thread panicked"))
            .collect()
    });
    for (t, tl) in b_spans {
        tr.absorb(t);
        tally.merge(tl);
    }

    // C: direct calls, alone.
    let mut delta_bytes = Vec::new();
    for q in &reqs {
        let d = &docs[q.k];
        tally.attempted += 1;
        let sink = if q.traced() { &mut tr } else { &mut untraced };
        match direct.ingest(&d.key, d.snapshot(q.v), q.v, q.rid, sink) {
            Ok(n) if q.traced() => delta_bytes.push(n as f64),
            Ok(_) => {}
            Err(e) => tally.wrong(e),
        }
    }
    let (hits, misses) = docs
        .iter()
        .map(|d| direct.repo.cache_counters(&d.key))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));

    // The five diff phases on the same pairs, solo.
    let mut phases: Vec<PhaseTimings> = Vec::new();
    let (mut ratio, mut sig, mut prop) = (Vec::new(), Vec::new(), Vec::new());
    let mut differ = direct.repo.differ();
    for q in reqs.iter().filter(|q| q.traced()) {
        let d = &docs[q.k];
        let old = Document::parse(d.snapshot(q.v - 1)).map_err(|e| e.to_string())?;
        let old = XidDocument::assign_initial(old);
        let new = Document::parse(d.snapshot(q.v)).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let res = differ.diff_consume(&old, new);
        let t1 = Instant::now();
        let outer = tr.span("xydiff.diff_consume", q.rid, None, t0, t1);
        let mut at = t0;
        for (name, took) in phase_list(&res.timings) {
            tr.span(name, q.rid, Some(outer), at, at + took);
            at += took;
        }
        phases.push(res.timings);
        ratio.push(res.stats.match_ratio());
        sig.push(res.stats.signature_matches as f64);
        prop.push(res.stats.propagation_matches as f64);
    }

    // Reads: over HTTP, then the same versions straight from A's repository.
    let read_plan = both(&mut clients, |c, cl| {
        let mut tr = Tracer::new(epoch);
        let mut plan = Vec::new();
        for j in (c..spec.trace_reads).step_by(2) {
            let (slot, v) = cl.pick_read(spec.read_target);
            let t0 = Instant::now();
            if cl.read(slot, Some(v))? {
                tr.span("http.read", j as u64, None, t0, Instant::now());
                plan.push((j as u64, 2 * slot + c, v));
            }
        }
        Ok((tr, plan))
    })?;
    let mut reads = Vec::new();
    for (t, plan) in read_plan {
        tr.absorb(t);
        reads.extend(plan);
    }
    for &(rid, k, v) in &reads {
        let key = &docs[k].key;
        let t0 = Instant::now();
        let got = server.ingest().repository_for(key).version_xml(key, v);
        tr.span("xywarehouse.version_xml", rid, None, t0, Instant::now());
        tally.attempted += 1;
        if got.map_or(true, |xml| {
            !crate::load::same_xml(xml.as_bytes(), docs[k].snapshot(v))
        }) {
            tally.wrong(format!(
                "{key}: version_xml({v}) differs from the snapshot sent"
            ));
        }
    }

    // A short paced open loop for the generator's lateness.
    let n = (spec.open_rate * (seconds * 0.2).max(1.0)).round() as usize;
    let start = Instant::now() + Duration::from_millis(5);
    let mut open = OpenSamples::default();
    for part in both(&mut clients, |c, cl| open_loop(cl, spec, c, n, start))? {
        open.merge(part);
    }

    // Counters from A, then the stacks' shutdown checks.
    let http_503 = server.http_metrics().status_count(503);
    let m = server.ingest().metrics();
    let (steals, high_water, server_diff_us) = (
        m.steals.get(),
        m.queue_depth.high_water(),
        m.diff_time.mean_micros(),
    );
    let wal = server
        .ingest()
        .wal()
        .map(Wal::stats)
        .ok_or("stack A runs without a WAL")?;
    both(&mut clients, |_, cl| cl.verify_latest())?;
    let acked: u64 = clients.iter().map(|c| c.tally.acked).sum();
    clients.into_iter().for_each(|c| tally.merge(c.tally));
    crate::timed::check_shutdown(server, acked, &mut tally);
    let report = pipeline.shutdown();
    if !report.is_balanced() || report.dead_lettered != 0 {
        tally.wrong(format!(
            "pipeline shutdown: {} dead letters",
            report.dead_lettered
        ));
    }

    // Replay C's log into a cold repository, then compaction and
    // reconstruction on the replayed chains.
    drop(direct);
    let t = Instant::now();
    let (replayed, records) = Direct::open(&dir_c)?;
    let replay_s = t.elapsed().as_secs_f64();
    let bound = if spec.compact_chain_max > 0 {
        spec.compact_chain_max
    } else {
        DEFAULT_COMPACT_BOUND
    };
    let t = Instant::now();
    replayed.repo.compact_chains(bound);
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;
    let chains = chains_from(&records, docs, bound)?;
    let hops: Vec<f64> = reads
        .iter()
        .map(|&(_, k, v)| chains[k].reconstruct_hops(v) as f64)
        .collect();
    let mut rng = Rng::new(mix(seed, 7));
    let (mut apply_us, mut apply_hops) = (0.0, 0usize);
    for _ in 0..APPLY_SAMPLES {
        let chain = &chains[rng.below(chains.len())];
        let v = rng.below(chain.version_count());
        let t = Instant::now();
        chain
            .version(v)
            .map_err(|e| format!("reconstructing v{v}: {e}"))?;
        apply_us += t.elapsed().as_secs_f64() * 1e6;
        apply_hops += chain.reconstruct_hops(v);
    }

    let path = out_dir.join(format!("trace-{}-{seed}.jsonl", spec.name));
    tr.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {} spans to {}", tr.spans.len(), path.display());

    // Self times, µs, paired by request.
    let http = tr.by_rid("http.ingest");
    let ticket = tr.by_rid("serve.ticket");
    let direct_total = tr.by_rid("direct.ingest");
    let overhead = paired_diff(&http, &ticket);
    let queue_wait = paired_diff(&ticket, &direct_total);
    let load_self = {
        let load = tr.by_rid("xywarehouse.load");
        let inner = tr.by_rid("xydiff.diff");
        let alert = tr.by_rid("xywarehouse.alert");
        paired_diff(&paired_diff(&load, &inner), &alert)
    };
    let med = |name: &str| median_or_zero(tr.durations(name));
    let parse_us = med("xytree.parse");
    let diff_us = med("xydiff.diff");
    let layers = [
        ("xynet", median_or_zero(overhead.values().copied())),
        ("xyserve", median_or_zero(queue_wait.values().copied())),
        ("xytree", parse_us),
        (
            "xywarehouse.load",
            median_or_zero(load_self.values().copied()),
        ),
        ("xydiff", diff_us),
        ("xywarehouse.alert", med("xywarehouse.alert")),
        ("xydelta", med("xydelta.to_xml")),
        ("xywal", med("xywal.append")),
    ];
    let e2e = median_or_zero(http.values().copied());
    let sum: f64 = layers.iter().map(|(_, us)| us).sum();
    let gap = (sum - e2e) / e2e.max(1e-9);
    eprintln!("accounting (median µs): http {e2e:.1} vs sum of layers {sum:.1}: {layers:?}");
    let mut accounting = Vec::new();
    if gap.abs() > ACCOUNTING_TOLERANCE {
        accounting.push(format!(
            "accounting: layers sum to {sum:.1} µs, HTTP median {e2e:.1} µs ({:+.1}%)",
            gap * 100.0
        ));
    }
    let phase_sum: f64 = phases.iter().map(|p| p.total().as_secs_f64() * 1e6).sum();
    let consume_sum: f64 = tr.durations("xydiff.diff_consume").iter().sum();
    let phase_gap = 1.0 - phase_sum / consume_sum.max(1e-9);
    if !(0.0..=PHASE_TOLERANCE).contains(&phase_gap) {
        accounting.push(format!(
            "accounting: the diff phases leave {:.1}% of diff_consume unaccounted",
            phase_gap * 100.0
        ));
    }

    let phase_us = |f: fn(&PhaseTimings) -> Duration| {
        median_or_zero(phases.iter().map(|p| f(p).as_secs_f64() * 1e6))
    };
    let traced: Vec<&Req> = reqs.iter().filter(|q| q.traced()).collect();
    let mean_bytes = mean(
        &traced
            .iter()
            .map(|q| docs[q.k].snapshot(q.v).len() as f64)
            .collect::<Vec<_>>(),
    );
    let n_reqs = format!("median of {} requests", traced.len());
    let late = Summary::of(&open.late_ms);
    let solo_diff_mean = mean(&tr.durations("xydiff.diff"));
    let metrics = vec![
        Metric::new(
            "xynet.overhead_us",
            median_or_zero(overhead.values().copied()),
            "us",
            format!("HTTP minus ticket, {n_reqs}"),
        ),
        Metric::new(
            "xynet.read_overhead_us",
            median_or_zero(
                paired_diff(
                    &tr.by_rid("http.read"),
                    &tr.by_rid("xywarehouse.version_xml"),
                )
                .into_values(),
            ),
            "us",
            format!("GET minus version_xml, median of {} reads", reads.len()),
        ),
        Metric::new(
            "xynet.shed_503",
            http_503 as f64,
            "count",
            "status 503 answers on stack A",
        ),
        Metric::new(
            "xyserve.queue_wait_us",
            median_or_zero(queue_wait.values().copied()),
            "us",
            format!("ticket minus direct, {n_reqs}"),
        ),
        Metric::new(
            "xyserve.steals",
            steals as f64,
            "count",
            "stack A scheduler",
        ),
        Metric::new(
            "xyserve.queue_high_water",
            high_water as f64,
            "count",
            "stack A queue depth",
        ),
        Metric::new(
            "xyserve.diff_inflation",
            server_diff_us as f64 / solo_diff_mean.max(1e-9),
            "ratio",
            format!("stack A mean diff {server_diff_us} us / solo mean {solo_diff_mean:.1} us"),
        ),
        Metric::new("xytree.parse_us", parse_us, "us", &n_reqs),
        Metric::new(
            "xytree.parse_mb_per_s",
            mean_bytes / parse_us.max(1e-9),
            "MB/s",
            format!("{mean_bytes:.0} bytes per document"),
        ),
        Metric::new("xydiff.phase1_us", phase_us(|p| p.phase1), "us", &n_reqs),
        Metric::new("xydiff.phase2_us", phase_us(|p| p.phase2), "us", &n_reqs),
        Metric::new("xydiff.phase3_us", phase_us(|p| p.phase3), "us", &n_reqs),
        Metric::new("xydiff.phase4_us", phase_us(|p| p.phase4), "us", &n_reqs),
        Metric::new("xydiff.phase5_us", phase_us(|p| p.phase5), "us", &n_reqs),
        Metric::new(
            "xydiff.diff_us",
            diff_us,
            "us",
            format!("solo load diff, {n_reqs}"),
        ),
        Metric::new(
            "xydiff.match_ratio",
            mean(&ratio),
            "ratio",
            "mean over pairs",
        ),
        Metric::new(
            "xydiff.signature_matches",
            mean(&sig),
            "count",
            "mean per pair",
        ),
        Metric::new(
            "xydiff.propagation_matches",
            mean(&prop),
            "count",
            "mean per pair",
        ),
        Metric::new(
            "xydiff.sigcache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            format!("{hits} hits, {misses} misses"),
        ),
        Metric::new(
            "xywarehouse.load_us",
            median_or_zero(load_self.values().copied()),
            "us",
            format!("load minus diff and alert, {n_reqs}"),
        ),
        Metric::new(
            "xywarehouse.alert_us",
            med("xywarehouse.alert"),
            "us",
            &n_reqs,
        ),
        Metric::new(
            "xywarehouse.version_xml_us",
            med("xywarehouse.version_xml"),
            "us",
            format!("median of {} reads", reads.len()),
        ),
        Metric::new(
            "xywarehouse.hops_per_read",
            mean(&hops),
            "count",
            format!("mean of {} reads", hops.len()),
        ),
        Metric::new(
            "xywarehouse.compact_ms",
            compact_ms,
            "ms",
            format!("compact_chains({bound}) after replay"),
        ),
        Metric::new("xydelta.to_xml_us", med("xydelta.to_xml"), "us", &n_reqs),
        Metric::new(
            "xydelta.delta_bytes",
            median_or_zero(delta_bytes),
            "bytes",
            &n_reqs,
        ),
        Metric::new(
            "xydelta.apply_us_per_hop",
            apply_us / apply_hops.max(1) as f64,
            "us",
            format!("{APPLY_SAMPLES} random versions, {apply_hops} hops"),
        ),
        Metric::new(
            "xywal.append_us",
            med("xywal.append"),
            "us",
            format!("fsync included, {n_reqs}"),
        ),
        Metric::new(
            "xywal.records_per_fsync",
            wal.fsynced_records as f64 / wal.fsyncs.max(1) as f64,
            "ratio",
            format!("stack A, {} fsyncs", wal.fsyncs),
        ),
        Metric::new(
            "xywal.bytes_per_record",
            wal.appended_bytes as f64 / wal.appends.max(1) as f64,
            "bytes",
            format!("stack A, {} records", wal.appends),
        ),
        Metric::new(
            "xywal.replay_s",
            replay_s,
            "s",
            format!("Wal::open + apply_records, {} records", records.len()),
        ),
        Metric::new(
            "bench.gen_late_tail_ms",
            late.map_or(0.0, |s| s.tail),
            "ms",
            late.as_ref()
                .map_or_else(|| "too few requests".to_string(), tail_note),
        ),
        Metric::new(
            "bench.tracing_overhead_frac",
            tracing_overhead,
            "ratio",
            format!(
                "HTTP wall per ingest, traced vs untraced rounds of {} ingests",
                docs.len()
            ),
        ),
    ];
    let extra = vec![
        Metric::new(
            "accounting_gap_frac",
            gap,
            "ratio",
            format!("sum of layer medians {sum:.1} us vs HTTP median {e2e:.1} us, tolerance {ACCOUNTING_TOLERANCE}"),
        ),
        Metric::new("phase_uncovered_frac", phase_gap, "ratio", format!("tolerance {PHASE_TOLERANCE}")),
    ];
    Ok(Traced {
        metrics,
        extra,
        tally,
        accounting,
    })
}

/// Submit through a ticket and wait; `true` when acknowledged as `v`.
fn submit_wait(
    pipeline: &xyserve::IngestServer,
    key: &str,
    xml: impl Into<String>,
    v: usize,
    tally: &mut Tally,
) -> bool {
    tally.attempted += 1;
    match pipeline.submit_tracked(key, xml).map(xyserve::Ticket::wait) {
        Ok(Ok(done)) if done.version == v => true,
        Ok(Ok(done)) => {
            tally.wrong(format!(
                "{key}: ticket stored v{}, expected v{v}",
                done.version
            ));
            false
        }
        Ok(Err(letter)) => {
            tally.wrong(format!("{key}: dead-lettered: {}", letter.error));
            false
        }
        Err(e) => {
            tally.wrong(format!("{key}: submit: {e}"));
            false
        }
    }
}

fn phase_list(t: &PhaseTimings) -> [(&'static str, Duration); 5] {
    [
        ("xydiff.phase1", t.phase1),
        ("xydiff.phase2", t.phase2),
        ("xydiff.phase3", t.phase3),
        ("xydiff.phase4", t.phase4),
        ("xydiff.phase5", t.phase5),
    ]
}

/// Median of per-request values, 0 when there are none.
fn median_or_zero(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Rebuild every key's version chain from log records, compacted to
/// `bound` hops as the server's compactor keeps them.
fn chains_from(
    records: &[(u64, Record)],
    docs: &[Doc],
    bound: usize,
) -> Result<Vec<VersionChain>, String> {
    let index: std::collections::HashMap<&str, usize> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| (d.key.as_str(), i))
        .collect();
    let mut chains: Vec<Option<VersionChain>> = docs.iter().map(|_| None).collect();
    for (_, record) in records {
        let k = *index
            .get(record.key())
            .ok_or_else(|| format!("unknown key {}", record.key()))?;
        match record {
            Record::Init { xml, .. } => {
                let doc = Document::parse(xml).map_err(|e| e.to_string())?;
                chains[k] = Some(VersionChain::new(XidDocument::assign_initial(doc)));
            }
            Record::Delta { delta_xml, .. } => {
                let delta = xml_io::parse_delta(delta_xml).map_err(|e| e.to_string())?;
                let chain = chains[k].as_mut().ok_or("delta before init")?;
                chain.push_delta(delta).map_err(|e| e.to_string())?;
            }
        }
    }
    chains
        .into_iter()
        .map(|c| {
            let mut c = c.ok_or("a key has no chain")?;
            c.compact(bound).map_err(|e| e.to_string())?;
            Ok(c)
        })
        .collect()
}
