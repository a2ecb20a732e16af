//! The repository benchmark: the XyDiff warehouse behind its HTTP front,
//! as the paper's Figure 1 crawler drives it.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload crawl --seed 1 --seconds 30 --trace 0
//! cargo test --manifest-path perfbench/Cargo.toml   # tiny smoke of each workload
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run over the same inputs that records spans around the calls into
//! each layer and prints the per-layer metrics. Either way the last line
//! of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`), and the exit code is non-zero when a correctness
//! check failed. Workloads are described in `spec.rs` and BENCHMARK.json.

mod client;
mod corpus;
mod host;
mod load;
mod report;
mod rng;
mod spec;
mod stack;
mod stats;
mod timed;
mod trace;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Outcome;
use spec::Spec;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// Where runs keep their logs, traces and result history: `perfbench/out`
/// under the working directory when run from the repository root (as
/// BENCHMARK.json's command is), else next to this package's sources.
fn out_dir() -> PathBuf {
    let from_root = Path::new("perfbench");
    if from_root.join("Cargo.toml").is_file() {
        from_root.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload crawl|bigdoc|history --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (crawl, bigdoc, history)",
            args.workload
        );
        return ExitCode::from(2);
    };
    match run(&spec, &args) {
        Ok(outcome) if outcome.correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let out = out_dir();
    let work = stack::WorkDir::new(&out, &format!("{}-{}", spec.name, std::process::id()))?;
    let host = host::fingerprint(work.root());
    let t = std::time::Instant::now();
    let (docs, (lo, hi)) = corpus::generate_corpus(spec, args.seed)?;
    eprintln!(
        "corpus: {} keys x {} variants, base ~{} bytes, variants {lo:.3}..{hi:.3}x base, generated in {:.2} s",
        docs.len(),
        spec.variants,
        docs.iter().map(|d| d.base_len()).sum::<usize>() / docs.len(),
        t.elapsed().as_secs_f64()
    );
    let seconds = args.seconds as f64;
    let (tally, metrics, extra, accounting) = if args.trace {
        let traced = traced::run(spec, &docs, args.seed, seconds, &work, &out)?;
        (
            traced.tally,
            traced.metrics,
            traced.extra,
            traced.accounting,
        )
    } else {
        let timed = timed::run(spec, &docs, args.seed, seconds, &work)?;
        (timed.tally, timed.metrics, timed.extra, Vec::new())
    };
    for e in tally.errors.iter().chain(&accounting) {
        eprintln!("check failed: {e}");
    }
    let outcome = Outcome {
        correct: tally.incorrect == 0 && accounting.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        extra,
    };
    let run = report::run_params(spec.name, args.seed, args.seconds, args.trace);
    outcome.record(&out, &run, &host);
    outcome.print(&format!("run {run}\nhost {host}"));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-length version of a workload: a few small documents, short
    /// chains and a low open-loop rate, so each runs in seconds even in a
    /// debug build. Small catalogs vary more in size, hence the wider band.
    fn tiny(name: &str) -> Spec {
        let full = Spec::by_name(name).expect("known workload");
        Spec {
            keys: full.keys.min(4),
            doc_bytes: 5_000,
            size_band: (0.5, 1.5),
            preload_versions: full.preload_versions.min(6),
            open_rate: 40.0,
            reads_per_period: 1,
            mix_period: 2,
            trace_rounds: 4,
            trace_reads: 8,
            ..full
        }
    }

    /// The `"name"` entries of one list in BENCHMARK.json.
    fn declared(list: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let start = text.find(&format!("\"{list}\"")).expect("list present");
        let body = &text[start..start + text[start..].find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].to_string())
            .collect()
    }

    fn names(metrics: &[report::Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    }

    fn smoke(name: &str) {
        let spec = tiny(name);
        let (docs, _) = corpus::generate_corpus(&spec, 7).expect("corpus within its size band");
        let out = out_dir();
        let work = |kind| {
            stack::WorkDir::new(&out, &format!("smoke-{kind}-{name}-{}", std::process::id()))
        };
        let timed = timed::run(
            &spec,
            &docs,
            7,
            2.0,
            &work("timed").expect("working directory"),
        )
        .expect("timed run");
        assert_eq!(timed.tally.incorrect, 0, "{:?}", timed.tally.errors);
        assert_eq!(names(&timed.metrics), declared("end_to_end"));
        assert!(timed
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
        // The accounting check is left to release runs: a debug build's
        // layers do not split the request time the way optimized code does.
        let traced = traced::run(
            &spec,
            &docs,
            7,
            2.0,
            &work("traced").expect("working directory"),
            &out,
        )
        .expect("traced run");
        assert_eq!(traced.tally.incorrect, 0, "{:?}", traced.tally.errors);
        assert_eq!(names(&traced.metrics), declared("per_layer"));
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn crawl_smoke() {
        smoke("crawl");
    }

    #[test]
    fn bigdoc_smoke() {
        smoke("bigdoc");
    }

    #[test]
    fn history_smoke() {
        smoke("history");
    }
}
