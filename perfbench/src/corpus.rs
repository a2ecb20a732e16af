//! Seeded inputs with size-stable version chains.
//!
//! Each key has a base catalog and a few independent `xysim` edits of
//! it. Version 0 is the base and version `v > 0` is variant
//! `(v - 1) % variants`, so consecutive versions always differ, every
//! delta has the same expected size however long the run, and documents
//! stay within the workload's size band instead of drifting the way a
//! chain of compounding edits does.

use crate::rng::mix;
use crate::spec::Spec;
use xydelta::XidDocument;
use xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};

/// Serialized bytes per node of the catalog generator.
const CATALOG_BYTES_PER_NODE: usize = 18;

/// The snapshots of one document key.
pub struct Doc {
    pub key: String,
    base: String,
    variants: Vec<String>,
}

impl Doc {
    /// The body the crawler sends as version `v`.
    pub fn snapshot(&self, v: usize) -> &str {
        if v == 0 {
            &self.base
        } else {
            &self.variants[(v - 1) % self.variants.len()]
        }
    }

    /// Size of the base document.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }
}

/// Generate the workload's corpus for `seed` on two threads, and check
/// that every variant stays within the size band. Also returns the
/// smallest and largest variant-to-base size ratio seen.
pub fn generate_corpus(spec: &Spec, seed: u64) -> Result<(Vec<Doc>, (f64, f64)), String> {
    let slots: Vec<usize> = (0..spec.keys).collect();
    let mut docs: Vec<(usize, Doc)> = std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .chunks(spec.keys.div_ceil(2))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&k| (k, make_doc(spec, seed, k)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("corpus thread panicked"))
            .collect()
    });
    docs.sort_by_key(|(k, _)| *k);
    let docs: Vec<Doc> = docs.into_iter().map(|(_, d)| d).collect();
    let (lo, hi) = spec.size_band;
    let mut seen = (f64::MAX, 0.0f64);
    for d in &docs {
        let base = d.base.len() as f64;
        if !(0.5..=1.5).contains(&(base / spec.doc_bytes as f64)) {
            return Err(format!(
                "{}: base is {} bytes, target {}",
                d.key,
                d.base.len(),
                spec.doc_bytes
            ));
        }
        for (i, v) in d.variants.iter().enumerate() {
            let share = v.len() as f64 / base;
            seen = (seen.0.min(share), seen.1.max(share));
            if !(lo..=hi).contains(&share) {
                return Err(format!(
                    "{}: variant {i} is {:.3}x its base, outside the band {lo}..{hi}",
                    d.key, share
                ));
            }
        }
    }
    Ok((docs, seen))
}

fn make_doc(spec: &Spec, seed: u64, k: usize) -> Doc {
    let base_doc = generate(&DocGenConfig {
        kind: DocKind::Catalog,
        target_nodes: (spec.doc_bytes / CATALOG_BYTES_PER_NODE).max(16),
        seed: mix(seed, k as u64),
        id_attributes: false,
    });
    let base = base_doc.to_xml();
    let old = XidDocument::assign_initial(base_doc);
    let variants = (0..spec.variants)
        .map(|j| {
            let cfg = ChangeConfig::uniform(spec.change_p, mix(mix(seed, k as u64), 1 + j as u64));
            simulate(&old, &cfg).new_version.doc.to_xml()
        })
        .collect();
    Doc {
        key: format!("{}-{k:03}", spec.name),
        base,
        variants,
    }
}
