//! The unified diff entry point: options + scratch + cache in one value.
//!
//! Before this module the crate exposed three parallel entry points —
//! [`crate::diff`], [`crate::diff_with_scratch`], and [`crate::diff_cached`]
//! — whose argument lists grew with every optimisation. [`Differ`] collapses
//! them: it owns the [`DiffOptions`], the reusable [`DiffScratch`], and
//! (optionally) a [`SignatureCache`], so callers configure once and then
//! call [`Differ::diff`] per document pair:
//!
//! ```
//! use xydelta::XidDocument;
//! use xydiff::Differ;
//!
//! let v0 = XidDocument::parse_initial("<cat><p>1</p></cat>").unwrap();
//! let v1 = xytree::Document::parse("<cat><p>one</p></cat>").unwrap();
//!
//! let mut differ = Differ::new().with_cache(Default::default());
//! let result = differ.diff(&v0, &v1);
//! assert_eq!(result.delta.counts().updates, 1);
//! ```
//!
//! A long-lived worker holds one `Differ` and reuses it for every diff it
//! runs; the scratch (and cache, when enabled) keep their capacity across
//! calls, so the steady state performs no per-diff structural allocation —
//! exactly the property the old multi-arg variants provided, without the
//! argument plumbing.
//!
//! Multi-document stores keep one *scratch* per worker but one *cache* per
//! document (the cache describes a specific stored version). For that shape,
//! [`Differ::diff_with_cache`] accepts the per-document cache by reference
//! while the differ contributes options + scratch.

use crate::config::DiffOptions;
use crate::info::SignatureCache;
use crate::mode::{MatchMode, UnorderedOptions};
use crate::report::DiffResult;
use crate::scratch::DiffScratch;
use crate::similarity::SimilarityOptions;
use xydelta::CaptureMode;
use xydelta::XidDocument;
use xytree::Document;

/// Builder-style diff engine owning options, scratch, and an optional
/// cross-version signature cache. See the module docs for the design.
///
/// The matcher is selected with [`Differ::with_mode`] (or by setting
/// [`DiffOptions::mode`]); per-mode tuning rides along in the
/// [`UnorderedOptions`] / [`SimilarityOptions`] the differ owns.
#[derive(Debug, Default)]
pub struct Differ {
    opts: DiffOptions,
    unordered: UnorderedOptions,
    similarity: SimilarityOptions,
    scratch: DiffScratch,
    cache: Option<SignatureCache>,
    capture: CaptureMode,
}

impl Differ {
    /// A differ with default [`DiffOptions`], empty scratch, and no cache.
    pub fn new() -> Differ {
        Differ::default()
    }

    /// Replace the diff options (builder style).
    #[must_use]
    pub fn with_options(mut self, opts: DiffOptions) -> Differ {
        self.opts = opts;
        self
    }

    /// Select the matcher every diff from this differ runs (builder style).
    /// Shorthand for setting [`DiffOptions::mode`].
    #[must_use]
    pub fn with_mode(mut self, mode: MatchMode) -> Differ {
        self.opts.mode = mode;
        self
    }

    /// Replace the unordered-mode tuning (builder style). Only consulted
    /// when the mode is [`MatchMode::Unordered`]. Build the options through
    /// their fallible `with_*` builders; values are assumed valid here.
    #[must_use]
    pub fn with_unordered_options(mut self, opts: UnorderedOptions) -> Differ {
        self.unordered = opts;
        self
    }

    /// Replace the similarity-mode tuning (builder style). Only consulted
    /// when the mode is [`MatchMode::Similarity`]. Build the options
    /// through their fallible `with_*` builders; values are assumed valid
    /// here.
    #[must_use]
    pub fn with_similarity_options(mut self, opts: SimilarityOptions) -> Differ {
        self.similarity = opts;
        self
    }

    /// Install an owned cross-version signature cache (builder style).
    ///
    /// Appropriate when this differ follows *one* document's version chain:
    /// after each diff the cache describes the produced version, so the next
    /// call replays the old side's subtree signatures instead of re-hashing
    /// them. Stores tracking many documents should keep one cache per
    /// document and use [`Differ::diff_with_cache`] instead.
    #[must_use]
    pub fn with_cache(mut self, cache: SignatureCache) -> Differ {
        self.cache = Some(cache);
        self
    }

    /// Select how insert/delete payloads are captured (builder style).
    ///
    /// [`CaptureMode::Owned`] (the default) clones each payload subtree into
    /// the delta — the right choice when the delta outlives the diffed
    /// documents. [`CaptureMode::Borrowed`] records arena references
    /// instead, deferring the copy to [`xydelta::Delta::into_owned`] (or to
    /// [`xydelta::xml_io::delta_to_xml_with`], which serializes straight
    /// from the sources) — the zero-copy fast path for callers like the
    /// warehouse that hold both documents while consuming the delta.
    #[must_use]
    pub fn with_capture(mut self, capture: CaptureMode) -> Differ {
        self.capture = capture;
        self
    }

    /// The payload capture mode every diff from this differ uses.
    pub fn capture(&self) -> CaptureMode {
        self.capture
    }

    /// The matcher every diff from this differ runs.
    pub fn mode(&self) -> MatchMode {
        self.opts.mode
    }

    /// The unordered-mode tuning this differ carries.
    pub fn unordered_options(&self) -> &UnorderedOptions {
        &self.unordered
    }

    /// The similarity-mode tuning this differ carries.
    pub fn similarity_options(&self) -> &SimilarityOptions {
        &self.similarity
    }

    /// The options every [`Differ::diff`] call uses.
    pub fn options(&self) -> &DiffOptions {
        &self.opts
    }

    /// Mutable access to the options (for reconfiguring between diffs).
    pub fn options_mut(&mut self) -> &mut DiffOptions {
        &mut self.opts
    }

    /// True when an owned cache is installed.
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Remove and return the owned cache, if any.
    pub fn take_cache(&mut self) -> Option<SignatureCache> {
        self.cache.take()
    }

    /// Diff an XID-carrying old version against a plain new document.
    ///
    /// Scratch (and the owned cache, when installed) are reused across
    /// calls; results are byte-identical to a fresh-memory diff (pinned by
    /// the golden-equivalence suite).
    pub fn diff(&mut self, old: &XidDocument, new: &Document) -> DiffResult {
        // Destructure for split borrows: the options are shared while the
        // scratch (and cache) are handed out mutably.
        let Differ { opts, unordered, similarity, scratch, cache, capture } = self;
        crate::diff_dispatch(
            old,
            new.clone(),
            opts,
            unordered,
            similarity,
            scratch,
            cache.as_mut(),
            *capture,
        )
    }

    /// [`Differ::diff`] consuming the new document.
    ///
    /// Identical output, one subtree-sized copy less: the reference-taking
    /// entry points clone `new` so phase 5 can move it into the produced
    /// version, while this one moves the caller's document straight through.
    /// Ingestion pipelines that parse each incoming version themselves (and
    /// have no further use for the parse) should always take this path.
    pub fn diff_consume(&mut self, old: &XidDocument, new: Document) -> DiffResult {
        let Differ { opts, unordered, similarity, scratch, cache, capture } = self;
        crate::diff_dispatch(
            old,
            new,
            opts,
            unordered,
            similarity,
            scratch,
            cache.as_mut(),
            *capture,
        )
    }

    /// [`Differ::diff`] with an external per-document cache.
    ///
    /// The differ contributes options + scratch; `cache` must describe `old`
    /// (or be empty/cold — stale entries miss and fall back to hashing) and
    /// is refreshed to describe the produced version before returning. Any
    /// owned cache installed via [`Differ::with_cache`] is ignored for this
    /// call.
    pub fn diff_with_cache(
        &mut self,
        old: &XidDocument,
        new: &Document,
        cache: &mut SignatureCache,
    ) -> DiffResult {
        let Differ { opts, unordered, similarity, scratch, capture, .. } = self;
        crate::diff_dispatch(
            old,
            new.clone(),
            opts,
            unordered,
            similarity,
            scratch,
            Some(cache),
            *capture,
        )
    }

    /// [`Differ::diff_consume`] with an external per-document cache — the
    /// warehouse steady-state entry point (no clone, cached old side).
    pub fn diff_consume_with_cache(
        &mut self,
        old: &XidDocument,
        new: Document,
        cache: &mut SignatureCache,
    ) -> DiffResult {
        let Differ { opts, unordered, similarity, scratch, capture, .. } = self;
        crate::diff_dispatch(
            old,
            new,
            opts,
            unordered,
            similarity,
            scratch,
            Some(cache),
            *capture,
        )
    }

    /// [`Differ::diff`] ignoring any installed cache (always hashes both
    /// sides). Exists for benchmarking and cache-coherence debugging.
    pub fn diff_uncached(&mut self, old: &XidDocument, new: &Document) -> DiffResult {
        let Differ { opts, unordered, similarity, scratch, capture, .. } = self;
        crate::diff_dispatch(
            old,
            new.clone(),
            opts,
            unordered,
            similarity,
            scratch,
            None,
            *capture,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (XidDocument, Document) {
        let old = XidDocument::parse_initial("<a><b>1</b><c>2</c></a>").unwrap();
        let new = Document::parse("<a><b>1</b><c>three</c></a>").unwrap();
        (old, new)
    }

    #[test]
    fn differ_matches_free_function() {
        let (old, new) = pair();
        let free = crate::diff(&old, &new, &DiffOptions::default());
        let mut differ = Differ::new();
        let owned = differ.diff(&old, &new);
        assert_eq!(
            xydelta::xml_io::delta_to_xml(&free.delta),
            xydelta::xml_io::delta_to_xml(&owned.delta)
        );
    }

    #[test]
    fn reused_differ_is_deterministic() {
        let (old, new) = pair();
        let mut differ = Differ::new();
        let first = xydelta::xml_io::delta_to_xml(&differ.diff(&old, &new).delta);
        for _ in 0..5 {
            let again = xydelta::xml_io::delta_to_xml(&differ.diff(&old, &new).delta);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn owned_cache_follows_a_version_chain() {
        let mut differ = Differ::new().with_cache(SignatureCache::new());
        assert!(differ.has_cache());
        let mut cur = XidDocument::parse_initial("<log><e>0</e></log>").unwrap();
        for v in 1..5 {
            let next = Document::parse(&format!("<log><e>{v}</e></log>")).unwrap();
            let r = differ.diff(&cur, &next);
            assert_eq!(r.delta.counts().updates, 1);
            cur = r.new_version;
        }
        let cache = differ.take_cache().expect("cache still installed");
        let (hits, _misses) = cache.counters();
        assert!(hits > 0, "warm chain must hit the cache");
        assert!(!differ.has_cache());
    }

    #[test]
    fn external_cache_matches_uncached() {
        let (old, new) = pair();
        let mut differ = Differ::new();
        let plain = xydelta::xml_io::delta_to_xml(&differ.diff_uncached(&old, &new).delta);
        let mut cache = SignatureCache::new();
        let cached = xydelta::xml_io::delta_to_xml(&differ.diff_with_cache(&old, &new, &mut cache).delta);
        assert_eq!(plain, cached);
    }

    #[test]
    fn mode_selection_routes_to_each_matcher() {
        let old = XidDocument::parse_initial("<t><a>1</a><b>2</b></t>").unwrap();
        let new = Document::parse("<t><b>2</b><a>1</a></t>").unwrap();
        for mode in MatchMode::all() {
            let mut differ = Differ::new().with_mode(mode);
            assert_eq!(differ.mode(), mode);
            let r = differ.diff(&old, &new);
            let mut replay = old.clone();
            r.delta.apply_to(&mut replay).unwrap();
            assert_eq!(replay.doc.to_xml(), new.to_xml(), "mode {mode}");
            xydelta::verify(&r.delta).unwrap_or_else(|e| panic!("mode {mode}: {e}"));
        }
    }

    #[test]
    fn per_mode_options_are_carried() {
        let differ = Differ::new()
            .with_mode(MatchMode::Unordered)
            .with_unordered_options(
                UnorderedOptions::default().with_max_bucket_pairs(7).unwrap(),
            )
            .with_similarity_options(
                SimilarityOptions::default().with_passes(5).unwrap(),
            );
        assert_eq!(differ.unordered_options().max_bucket_pairs, 7);
        assert_eq!(differ.similarity_options().passes, 5);
    }

    #[test]
    fn options_are_configurable() {
        let differ = Differ::new().with_options(DiffOptions { exact_lis: true, ..Default::default() });
        assert!(differ.options().exact_lis);
        let mut differ = differ;
        differ.options_mut().exact_lis = false;
        assert!(!differ.options().exact_lis);
    }
}
