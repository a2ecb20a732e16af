//! Printing results: one human line per metric (name, value, unit and
//! sample count), then the machine-read JSON object as the last line of
//! standard output. Each result is also appended, with the host
//! fingerprint, to `perfbench/out/results.jsonl`.

use std::io::Write;
use std::path::Path;

use crate::host::escape;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and how the value was formed.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics BENCHMARK.json lists for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further figures, printed and recorded only.
    pub extra: Vec<Metric>,
}

impl Outcome {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print(&self, header: &str) {
        println!("{header}");
        for (kind, list) in [("metric", &self.metrics), ("extra ", &self.extra)] {
            for m in list {
                println!(
                    "{kind} {:<32} {:>14} {:<6} {}",
                    m.name,
                    format!("{:.4}", m.value),
                    m.unit,
                    m.note
                );
            }
        }
        println!("{}", self.json());
    }

    /// Append this result with its run parameters and host to the history.
    pub fn record(&self, out_dir: &Path, run: &str, host: &str) {
        let extra: Vec<String> = self
            .extra
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, number(m.value)))
            .collect();
        let line = format!(
            "{{\"run\": {run}, \"host\": {host}, \"result\": {}, \"extra\": {{{}}}}}\n",
            self.json(),
            extra.join(", ")
        );
        let appended = std::fs::create_dir_all(out_dir).and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(out_dir.join("results.jsonl"))?
                .write_all(line.as_bytes())
        });
        if let Err(e) = appended {
            eprintln!("cannot append to the result history: {e}");
        }
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn run_params(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}}}",
        escape(workload)
    )
}
