//! Phase 2: subtree signatures and weights.
//!
//! "In one traversal of each tree, we compute the signature of each node of
//! the old and new documents. The signature is a hash value computed using
//! the node's content, and its children signatures. Thus it uniquely
//! represents the content of the entire subtree rooted at that node. A
//! weight is computed simultaneously for each node. It is the size of the
//! content for text nodes and the sum of the weights of children for element
//! nodes." (§5.2)
//!
//! Weight choices follow §5.2 "Tuning": elements weigh
//! `1 + Σ weight(children)` (the weight "must be no less than the sum of its
//! children" and "grow in O(n)"), text nodes weigh `1 + log(length(text))`
//! ("when the text is large … it should have more weight than a simple
//! word").

#![doc = "xylint: hot-path"]

use xydelta::{Xid, XidDocument};
use xytree::hash::{FastHashMap, Fnv64};
use xytree::{NodeId, NodeKind, Tree};

/// Domain-separation seeds so that, e.g., a text node `"a"` and an element
/// `<a/>` can never share a signature.
mod seed {
    /// Seed for the document root node.
    pub const DOCUMENT: u64 = 0xD0C;
    /// Seed for element nodes.
    pub const ELEMENT: u64 = 0xE1E;
    /// Seed for text nodes.
    pub const TEXT: u64 = 0x7E7;
    /// Seed for comment nodes.
    pub const COMMENT: u64 = 0xC03;
    /// Seed for processing instructions.
    pub const PI: u64 = 0x91;
}

/// Per-node signature/weight record.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeInfo {
    /// Content hash of the whole subtree rooted here.
    pub signature: u64,
    /// The paper's weight (drives the priority queue and the look-up depth).
    pub weight: f64,
    /// Node count of the subtree (cheap exact size, used for statistics and
    /// as the LIS move weight).
    pub size: u32,
}

/// Signatures and weights for every attached node of a tree.
#[derive(Debug, Clone, Default)]
pub struct TreeInfo {
    infos: Vec<NodeInfo>,
    /// Total weight of the document (W₀ in the paper's depth bound).
    pub total_weight: f64,
    /// Number of attached nodes.
    pub node_count: usize,
}

impl TreeInfo {
    /// Info record of `node`.
    #[inline]
    pub fn get(&self, node: NodeId) -> &NodeInfo {
        &self.infos[node.index()]
    }

    /// Subtree signature of `node`.
    #[inline]
    pub fn signature(&self, node: NodeId) -> u64 {
        self.infos[node.index()].signature
    }

    /// Weight of `node`.
    #[inline]
    pub fn weight(&self, node: NodeId) -> f64 {
        self.infos[node.index()].weight
    }
}

/// One post-order traversal computing signature + weight for each node.
pub fn analyze(tree: &Tree) -> TreeInfo {
    let mut out = TreeInfo::default();
    analyze_into(tree, &mut out);
    out
}

/// [`analyze`] into a caller-owned [`TreeInfo`], reusing its allocation.
/// This is the [`crate::DiffScratch`] reuse path: a long-lived worker runs
/// thousands of diffs without growing the heap.
pub fn analyze_into(tree: &Tree, out: &mut TreeInfo) {
    out.infos.clear();
    out.infos.resize(tree.arena_len(), NodeInfo::default());
    let mut node_count = 0usize;
    for node in tree.post_order(tree.root()) {
        node_count += 1;
        out.infos[node.index()] = compute_node(tree, node, &out.infos);
    }
    out.total_weight = out.infos[tree.root().index()].weight;
    out.node_count = node_count;
}

/// Signature/weight/size of one node, assuming its children (post-order
/// predecessors) are already present in `infos`.
fn compute_node(tree: &Tree, node: NodeId, infos: &[NodeInfo]) -> NodeInfo {
    let mut h;
    let mut weight;
    let mut size = 1u32;
    match tree.kind(node) {
        NodeKind::Document => {
            h = Fnv64::with_seed(seed::DOCUMENT);
            weight = 1.0;
        }
        NodeKind::Element(e) => {
            h = Fnv64::with_seed(seed::ELEMENT);
            h.update(e.name.as_bytes());
            h.update(&[0]);
            // Attributes are a set: hash them in name order. Parsers and
            // builders keep attributes in a stable order, so they are almost
            // always already sorted — check first and skip the index buffer.
            let mut fold = |a: &xytree::Attr| {
                h.update(a.name.as_bytes());
                h.update(&[1]);
                h.update(a.value.as_bytes());
                h.update(&[2]);
            };
            if e.attrs.windows(2).all(|w| w[0].name <= w[1].name) {
                for a in &e.attrs {
                    fold(a);
                }
            } else {
                let mut idx: Vec<usize> = (0..e.attrs.len()).collect();
                idx.sort_by(|&a, &b| e.attrs[a].name.cmp(&e.attrs[b].name));
                for i in idx {
                    fold(&e.attrs[i]);
                }
            }
            weight = 1.0;
        }
        NodeKind::Text(t) => {
            h = Fnv64::with_seed(seed::TEXT);
            h.update(t.as_bytes());
            weight = text_weight(t.len());
        }
        NodeKind::Comment(c) => {
            h = Fnv64::with_seed(seed::COMMENT);
            h.update(c.as_bytes());
            weight = text_weight(c.len());
        }
        NodeKind::Pi { target, data } => {
            h = Fnv64::with_seed(seed::PI);
            h.update(target.as_bytes());
            h.update(&[0]);
            h.update(data.as_bytes());
            weight = text_weight(target.len() + data.len());
        }
    }
    // Children were visited first (post-order): fold their signatures in
    // order and add their weights.
    for c in tree.children(node) {
        let ci = infos[c.index()];
        h.update_u64(ci.signature);
        weight += ci.weight;
        size += ci.size;
    }
    NodeInfo { signature: h.value(), weight, size }
}

/// Cross-version cache of per-subtree [`NodeInfo`] records, keyed by
/// persistent XID.
///
/// In a warehouse, the *old* side of every diff is a document the system
/// itself produced one ingest earlier — its signatures were all computed
/// then. Keyed by XID (the identity that survives versioning), those records
/// can be replayed instead of re-hashed, removing the old tree's share of
/// phase 2 from steady-state ingestion.
///
/// **Coherence contract**: an entry must equal what [`analyze`] would compute
/// for the subtree currently rooted at that XID. [`SignatureCache::refresh`]
/// (after each ingest) maintains this; any out-of-band mutation of the stored
/// document must [`SignatureCache::invalidate`] the touched XIDs or
/// [`SignatureCache::clear`] the cache. A stale-but-coherent miss is safe —
/// the analysis falls back to hashing locally.
#[derive(Debug, Clone, Default)]
pub struct SignatureCache {
    map: FastHashMap<u64, NodeInfo>,
    hits: u64,
    misses: u64,
}

impl SignatureCache {
    /// An empty cache.
    pub fn new() -> SignatureCache {
        SignatureCache::default()
    }

    /// Number of cached subtree records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no records are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every record (keeps the table allocation).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Drop the record for one XID — required for any node whose subtree
    /// content changed outside the normal ingest path (e.g. a delta applied
    /// directly to the stored version).
    pub fn invalidate(&mut self, xid: Xid) {
        self.map.remove(&xid.value());
    }

    /// Replace the cache contents with the records of `doc`'s current
    /// version, as computed in `info` (indices must refer to `doc.doc.tree`).
    pub fn refresh(&mut self, doc: &XidDocument, info: &TreeInfo) {
        self.map.clear();
        let tree = &doc.doc.tree;
        for node in tree.post_order(tree.root()) {
            if let Some(xid) = doc.xid(node) {
                self.map.insert(xid.value(), *info.get(node));
            }
        }
    }

    /// Cumulative (hits, misses) over the cache's lifetime.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// [`analyze`] for an XID-carrying document, replaying records cached from a
/// previous version wherever the XID resolves; only cache misses are hashed.
/// See the [`SignatureCache`] coherence contract.
pub fn analyze_xid_cached(doc: &XidDocument, cache: &mut SignatureCache, out: &mut TreeInfo) {
    let tree = &doc.doc.tree;
    out.infos.clear();
    out.infos.resize(tree.arena_len(), NodeInfo::default());
    let mut node_count = 0usize;
    for node in tree.post_order(tree.root()) {
        node_count += 1;
        let cached = doc.xid(node).and_then(|x| cache.map.get(&x.value()).copied());
        out.infos[node.index()] = match cached {
            Some(info) => {
                cache.hits += 1;
                info
            }
            None => {
                cache.misses += 1;
                compute_node(tree, node, &out.infos)
            }
        };
    }
    out.total_weight = out.infos[tree.root().index()].weight;
    out.node_count = node_count;
}

/// Text-node weight: `1 + log(length)` (§5.2), with `log 0 := 0`.
fn text_weight(len: usize) -> f64 {
    1.0 + (len.max(1) as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xytree::Document;

    fn info_of(xml: &str) -> (Document, TreeInfo) {
        let d = Document::parse(xml).unwrap();
        let i = analyze(&d.tree);
        (d, i)
    }

    #[test]
    fn identical_subtrees_share_signatures() {
        let (d, i) = info_of("<a><p><q>t</q></p><p><q>t</q></p></a>");
        let a = d.root_element().unwrap();
        let p1 = d.tree.child_at(a, 0).unwrap();
        let p2 = d.tree.child_at(a, 1).unwrap();
        assert_eq!(i.signature(p1), i.signature(p2));
        assert_ne!(i.signature(p1), i.signature(a));
    }

    #[test]
    fn content_difference_changes_signature() {
        let (d1, i1) = info_of("<a><p>x</p></a>");
        let (d2, i2) = info_of("<a><p>y</p></a>");
        let p1 = d1.tree.child_at(d1.root_element().unwrap(), 0).unwrap();
        let p2 = d2.tree.child_at(d2.root_element().unwrap(), 0).unwrap();
        assert_ne!(i1.signature(p1), i2.signature(p2));
    }

    #[test]
    fn attribute_order_does_not_change_signature() {
        let (d1, i1) = info_of(r#"<a x="1" y="2"/>"#);
        let (d2, i2) = info_of(r#"<a y="2" x="1"/>"#);
        let e1 = d1.root_element().unwrap();
        let e2 = d2.root_element().unwrap();
        assert_eq!(i1.signature(e1), i2.signature(e2));
    }

    #[test]
    fn attribute_value_changes_signature() {
        let (d1, i1) = info_of(r#"<a x="1"/>"#);
        let (d2, i2) = info_of(r#"<a x="2"/>"#);
        assert_ne!(
            i1.signature(d1.root_element().unwrap()),
            i2.signature(d2.root_element().unwrap())
        );
    }

    #[test]
    fn child_order_changes_signature() {
        let (d1, i1) = info_of("<a><b/><c/></a>");
        let (d2, i2) = info_of("<a><c/><b/></a>");
        assert_ne!(
            i1.signature(d1.root_element().unwrap()),
            i2.signature(d2.root_element().unwrap())
        );
    }

    #[test]
    fn text_vs_element_domain_separated() {
        // <a>b</a> vs <a><b/></a>
        let (d1, i1) = info_of("<a>b</a>");
        let (d2, i2) = info_of("<a><b/></a>");
        assert_ne!(
            i1.signature(d1.root_element().unwrap()),
            i2.signature(d2.root_element().unwrap())
        );
    }

    #[test]
    fn element_weight_exceeds_children_sum() {
        let (d, i) = info_of("<a><p>hello world</p><q>more text here</q></a>");
        let a = d.root_element().unwrap();
        let sum: f64 = d.tree.children(a).map(|c| i.weight(c)).sum();
        assert!(i.weight(a) > sum, "paper: weight must be no less than children sum");
    }

    #[test]
    fn long_text_outweighs_short_text() {
        let (d, i) = info_of("<a><p>x</p><p>a much longer description of the product</p></a>");
        let a = d.root_element().unwrap();
        let short = d.tree.first_child(d.tree.child_at(a, 0).unwrap()).unwrap();
        let long = d.tree.first_child(d.tree.child_at(a, 1).unwrap()).unwrap();
        assert!(i.weight(long) > i.weight(short));
        // But only logarithmically.
        assert!(i.weight(long) < i.weight(short) * 6.0);
    }

    #[test]
    fn total_weight_and_count() {
        let (d, i) = info_of("<a><b/><c>t</c></a>");
        assert_eq!(i.node_count, 5);
        assert_eq!(i.total_weight, i.weight(d.tree.root()));
        assert_eq!(i.get(d.tree.root()).size, 5);
    }

    #[test]
    fn weight_grows_linearly_not_faster() {
        // A chain of n elements must have weight Θ(n).
        let mut xml = String::new();
        for _ in 0..100 {
            xml.push_str("<d>");
        }
        for _ in 0..100 {
            xml.push_str("</d>");
        }
        let (d, i) = info_of(&xml);
        let w = i.weight(d.root_element().unwrap());
        assert!((100.0..=101.0).contains(&w));
    }
}
