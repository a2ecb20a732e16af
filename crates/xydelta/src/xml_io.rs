//! Deltas as XML documents.
//!
//! "Since the diff output is stored as an XML document, namely a delta, such
//! queries are regular queries over documents" (§2) — the delta format is
//! itself XML, modeled on the paper's §4 example:
//!
//! ```xml
//! <delta>
//!   <delete xid="7" xid-map="(3-7)" parent="8" pos="1">
//!     <Product><Name>tx123</Name><Price>$499</Price></Product>
//!   </delete>
//!   <insert xid="20" xid-map="(16-20)" parent="14" pos="1">…</insert>
//!   <move xid="13" from-parent="14" from-pos="1" to-parent="8" to-pos="1"/>
//!   <update xid="11"><oldval>$799</oldval><newval>$699</newval></update>
//! </delta>
//! ```
//!
//! Positions are printed 1-based (as in the paper) and converted to the
//! crate's 0-based convention on parse. [`Delta::size_bytes`] — the quality
//! metric of Figures 5 and 6 — is the byte length of this compact form.

use crate::delta::Delta;
use crate::error::DeltaParseError;
use crate::ops::{Op, PayloadSource, SubtreePayload};
use crate::xid::{Xid, XidMap};
use xytree::{Document, NodeId, ParseOptions, Tree};

/// Serialize a delta to its compact XML form. The delta must be
/// self-contained (no borrowed payloads); use [`delta_to_xml_with`] to
/// serialize a zero-copy delta directly against its source documents.
pub fn delta_to_xml(delta: &Delta) -> String {
    delta_to_document(delta).to_xml()
}

/// Serialize a delta that may carry borrowed payloads, resolving them
/// against `src` without materializing intermediate owned trees — the
/// captured nodes are copied exactly once, straight into the delta document.
pub fn delta_to_xml_with(delta: &Delta, src: &PayloadSource<'_>) -> String {
    build_delta_document(delta, Some(src)).to_xml()
}

/// Serialize a delta to a pretty-printed XML form (debugging/examples).
pub fn delta_to_xml_pretty(delta: &Delta) -> String {
    delta_to_document(delta).to_xml_pretty()
}

/// Build the XML document representation of a self-contained delta.
pub fn delta_to_document(delta: &Delta) -> Document {
    build_delta_document(delta, None)
}

fn build_delta_document(delta: &Delta, src: Option<&PayloadSource<'_>>) -> Document {
    let mut tree = Tree::new();
    let root = tree.new_element("delta");
    let doc_root = tree.root();
    tree.append_child(doc_root, root);
    for op in &delta.ops {
        let node = op_to_node(op, &mut tree, src);
        tree.append_child(root, node);
    }
    Document::from_tree(tree)
}

fn set(tree: &mut Tree, node: NodeId, name: &str, value: impl ToString) {
    tree.element_mut(node)
        // INVARIANT: only called on nodes built by op_to_node, all elements.
        .expect("op node is an element")
        .set_attr(name, value.to_string());
}

/// Serialize an attribute-op position, 1-based like the tree-op positions.
/// The "append at the end" sentinel ([`usize::MAX`], produced when parsing
/// deltas that predate attribute positions) is expressed by omission.
fn set_attr_pos(tree: &mut Tree, node: NodeId, pos: usize) {
    if pos != usize::MAX {
        set(tree, node, "pos", pos + 1);
    }
}

fn op_to_node(op: &Op, tree: &mut Tree, src: Option<&PayloadSource<'_>>) -> NodeId {
    match op {
        Op::Delete { xid, parent, pos, subtree, xid_map }
        | Op::Insert { xid, parent, pos, subtree, xid_map } => {
            let label = if matches!(op, Op::Delete { .. }) { "delete" } else { "insert" };
            let n = tree.new_element(label);
            set(tree, n, "xid", xid);
            set(tree, n, "xid-map", xid_map.to_compact_string());
            set(tree, n, "parent", parent);
            set(tree, n, "pos", pos + 1);
            let copied = match (subtree, src) {
                // Borrowed payload with its source at hand: copy the slice
                // straight out of the diffed document, skipping moved-out
                // descendants — this is the only node copy on the zero-copy
                // serialization path.
                (SubtreePayload::Borrowed { side, node, excluded }, Some(s)) => {
                    Some(tree.copy_subtree_from_excluding(s.tree_for(*side), *node, excluded))
                }
                // Owned payload (or a borrowed one without a source, which
                // panics in `tree()` — serialization past the into_owned
                // boundary is a caller bug).
                (payload, _) => {
                    let subtree = payload.tree();
                    subtree
                        .first_child(subtree.root())
                        .map(|content_root| tree.copy_subtree_from(subtree, content_root))
                }
            };
            if let Some(copied) = copied {
                tree.append_child(n, copied);
                // Excluding moved-out descendants from a captured subtree can
                // leave two text nodes adjacent; serialized back-to-back they
                // would re-parse as one node and no longer line up with the
                // XID-map. A reserved separator PI keeps the boundary.
                separate_adjacent_texts(tree, copied);
            }
            n
        }
        Op::Update { xid, old, new } => {
            let n = tree.new_element("update");
            set(tree, n, "xid", xid);
            let o = tree.new_element("oldval");
            if !old.is_empty() {
                let t = tree.new_text(old.clone());
                tree.append_child(o, t);
            }
            tree.append_child(n, o);
            let w = tree.new_element("newval");
            if !new.is_empty() {
                let t = tree.new_text(new.clone());
                tree.append_child(w, t);
            }
            tree.append_child(n, w);
            n
        }
        Op::Move { xid, from_parent, from_pos, to_parent, to_pos } => {
            let n = tree.new_element("move");
            set(tree, n, "xid", xid);
            set(tree, n, "from-parent", from_parent);
            set(tree, n, "from-pos", from_pos + 1);
            set(tree, n, "to-parent", to_parent);
            set(tree, n, "to-pos", to_pos + 1);
            n
        }
        Op::AttrInsert { element, name, value, pos } => {
            let n = tree.new_element("attr-insert");
            set(tree, n, "xid", element);
            set(tree, n, "name", name);
            set(tree, n, "value", value);
            set_attr_pos(tree, n, *pos);
            n
        }
        Op::AttrDelete { element, name, old, pos } => {
            let n = tree.new_element("attr-delete");
            set(tree, n, "xid", element);
            set(tree, n, "name", name);
            set(tree, n, "old", old);
            set_attr_pos(tree, n, *pos);
            n
        }
        Op::AttrUpdate { element, name, old, new } => {
            let n = tree.new_element("attr-update");
            set(tree, n, "xid", element);
            set(tree, n, "name", name);
            set(tree, n, "old", old);
            set(tree, n, "new", new);
            n
        }
    }
}

/// Reserved PI target separating adjacent text nodes inside stored subtrees.
const TEXT_SEPARATOR_PI: &str = "xy-sep";

/// Insert `<?xy-sep?>` between adjacent text siblings anywhere below `root`.
fn separate_adjacent_texts(tree: &mut Tree, root: NodeId) {
    let nodes: Vec<NodeId> = tree.descendants(root).collect();
    for n in nodes {
        if !tree.kind(n).is_text() {
            continue;
        }
        if let Some(next) = tree.next_sibling(n) {
            if tree.kind(next).is_text() {
                let sep = tree.new_node(xytree::NodeKind::Pi {
                    target: TEXT_SEPARATOR_PI.to_string(),
                    data: String::new(),
                });
                tree.insert_after(n, sep);
            }
        }
    }
}

/// Remove every `<?xy-sep?>` below `root` (inverse of
/// [`separate_adjacent_texts`], applied after re-parsing).
fn strip_text_separators(tree: &mut Tree, root: NodeId) {
    let seps: Vec<NodeId> = tree
        .descendants(root)
        .filter(|&n| {
            matches!(tree.kind(n), xytree::NodeKind::Pi { target, .. }
                if target == TEXT_SEPARATOR_PI)
        })
        .collect();
    for s in seps {
        tree.detach(s);
    }
}

/// Parse a delta from its XML form.
pub fn parse_delta(xml: &str) -> Result<Delta, DeltaParseError> {
    let opts = ParseOptions { keep_whitespace_text: true, ..Default::default() };
    let doc = Document::parse_with(xml, &opts)?;
    document_to_delta(&doc)
}

/// Interpret an already-parsed XML document as a delta.
pub fn document_to_delta(doc: &Document) -> Result<Delta, DeltaParseError> {
    let t = &doc.tree;
    let root = doc
        .root_element()
        .ok_or_else(|| DeltaParseError::Structure("no root element".into()))?;
    if t.name(root) != Some("delta") {
        return Err(DeltaParseError::Structure(format!(
            "root element is <{}>, expected <delta>",
            t.name(root).unwrap_or("?")
        )));
    }
    let mut ops = Vec::new();
    for child in t.children(root) {
        let Some(label) = t.name(child) else {
            // Whitespace between ops (pretty-printed deltas).
            continue;
        };
        let op = match label {
            "delete" | "insert" => {
                let xid = req_xid(t, child, "xid")?;
                let parent = req_xid(t, child, "parent")?;
                let pos = req_pos(t, child, "pos")?;
                let xid_map: XidMap = req_attr(t, child, "xid-map")?
                    .parse()
                    .map_err(|e| DeltaParseError::Structure(format!("{e}")))?;
                let subtree = subtree_of(t, child)?.into();
                if label == "delete" {
                    Op::Delete { xid, parent, pos, subtree, xid_map }
                } else {
                    Op::Insert { xid, parent, pos, subtree, xid_map }
                }
            }
            "update" => {
                let xid = req_xid(t, child, "xid")?;
                let old = val_of(t, child, "oldval")?;
                let new = val_of(t, child, "newval")?;
                Op::Update { xid, old, new }
            }
            "move" => Op::Move {
                xid: req_xid(t, child, "xid")?,
                from_parent: req_xid(t, child, "from-parent")?,
                from_pos: req_pos(t, child, "from-pos")?,
                to_parent: req_xid(t, child, "to-parent")?,
                to_pos: req_pos(t, child, "to-pos")?,
            },
            "attr-insert" => Op::AttrInsert {
                element: req_xid(t, child, "xid")?,
                name: req_attr(t, child, "name")?.to_string(),
                value: req_attr(t, child, "value")?.to_string(),
                pos: opt_pos(t, child, "pos")?,
            },
            "attr-delete" => Op::AttrDelete {
                element: req_xid(t, child, "xid")?,
                name: req_attr(t, child, "name")?.to_string(),
                old: req_attr(t, child, "old")?.to_string(),
                pos: opt_pos(t, child, "pos")?,
            },
            "attr-update" => Op::AttrUpdate {
                element: req_xid(t, child, "xid")?,
                name: req_attr(t, child, "name")?.to_string(),
                old: req_attr(t, child, "old")?.to_string(),
                new: req_attr(t, child, "new")?.to_string(),
            },
            other => {
                return Err(DeltaParseError::Structure(format!(
                    "unknown operation element <{other}>"
                )))
            }
        };
        ops.push(op);
    }
    Ok(Delta::from_ops(ops))
}

fn req_attr<'a>(t: &'a Tree, node: NodeId, name: &str) -> Result<&'a str, DeltaParseError> {
    t.attr(node, name).ok_or_else(|| {
        DeltaParseError::Structure(format!(
            "<{}> is missing required attribute {name:?}",
            t.name(node).unwrap_or("?")
        ))
    })
}

fn req_xid(t: &Tree, node: NodeId, name: &str) -> Result<Xid, DeltaParseError> {
    let raw = req_attr(t, node, name)?;
    raw.parse::<u64>()
        .map(Xid)
        .map_err(|_| DeltaParseError::Structure(format!("attribute {name}={raw:?} is not an XID")))
}

fn req_pos(t: &Tree, node: NodeId, name: &str) -> Result<usize, DeltaParseError> {
    let raw = req_attr(t, node, name)?;
    let one_based: usize = raw
        .parse()
        .map_err(|_| DeltaParseError::Structure(format!("attribute {name}={raw:?} is not a position")))?;
    one_based
        .checked_sub(1)
        .ok_or_else(|| DeltaParseError::Structure(format!("position {name} must be >= 1")))
}

/// Attribute-op positions are a later addition to the format: absent means
/// "append at the end" (application clamps), so pre-existing deltas parse.
fn opt_pos(t: &Tree, node: NodeId, name: &str) -> Result<usize, DeltaParseError> {
    if t.attr(node, name).is_none() {
        return Ok(usize::MAX);
    }
    req_pos(t, node, name)
}

/// Extract the single stored subtree under a delete/insert op element.
/// Whitespace-only text nodes — at the op's top level and anywhere inside
/// the subtree — are pretty-printing artifacts, not content: source
/// documents are parsed with whitespace-only text dropped, so the ops this
/// crate emits never store such nodes, and keeping indentation would break
/// the subtree's alignment with its XID-map.
fn subtree_of(t: &Tree, op_node: NodeId) -> Result<Tree, DeltaParseError> {
    let kids: Vec<NodeId> = t
        .children(op_node)
        .filter(|&c| t.text(c).map_or(true, |s| !s.trim().is_empty()))
        .collect();
    let content = match kids.len() {
        1 => kids[0],
        0 => {
            return Err(DeltaParseError::Structure(
                "delete/insert op carries no subtree".into(),
            ))
        }
        n => {
            return Err(DeltaParseError::Structure(format!(
                "delete/insert op carries {n} top-level nodes, expected 1"
            )))
        }
    };
    let mut out = Tree::new();
    let copied = out.copy_subtree_from(t, content);
    let root = out.root();
    out.append_child(root, copied);
    let ws: Vec<NodeId> = out
        .descendants(root)
        .filter(|&n| out.text(n).is_some_and(|s| s.trim().is_empty()))
        .collect();
    for n in ws {
        out.detach(n);
    }
    strip_text_separators(&mut out, root);
    Ok(out)
}

/// Concatenated text under the op's `<name>` child element (update values).
fn val_of(t: &Tree, op_node: NodeId, name: &str) -> Result<String, DeltaParseError> {
    let holder = t
        .children(op_node)
        .find(|&c| t.name(c) == Some(name))
        .ok_or_else(|| DeltaParseError::Structure(format!("update op missing <{name}>")))?;
    Ok(t.deep_text(holder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xiddoc::XidDocument;

    fn sample_delta() -> Delta {
        let stored = Document::parse("<Product><Name>tx123</Name></Product>").unwrap();
        Delta::from_ops(vec![
            Op::Delete {
                xid: Xid(7),
                parent: Xid(8),
                pos: 0,
                subtree: stored.tree.clone().into(),
                xid_map: XidMap::new(vec![Xid(3), Xid(4), Xid(5), Xid(6), Xid(7)]),
            },
            Op::Insert {
                xid: Xid(20),
                parent: Xid(14),
                pos: 0,
                subtree: stored.tree.into(),
                xid_map: XidMap::new(vec![Xid(16), Xid(17), Xid(18), Xid(19), Xid(20)]),
            },
            Op::Move { xid: Xid(13), from_parent: Xid(14), from_pos: 0, to_parent: Xid(8), to_pos: 0 },
            Op::Update { xid: Xid(11), old: "$799".into(), new: "$699".into() },
            Op::AttrUpdate { element: Xid(2), name: "lang".into(), old: "fr".into(), new: "en".into() },
            Op::AttrInsert { element: Xid(2), name: "v".into(), value: "1".into(), pos: 0 },
            Op::AttrDelete { element: Xid(2), name: "w".into(), old: "0".into(), pos: 1 },
        ])
    }

    #[test]
    fn serialization_matches_paper_shape() {
        let xml = delta_to_xml(&sample_delta());
        assert!(xml.starts_with("<delta>"));
        assert!(xml.contains(r#"<delete xid="7" xid-map="(3-7)" parent="8" pos="1">"#));
        assert!(xml.contains(r#"<move xid="13" from-parent="14" from-pos="1" to-parent="8" to-pos="1"/>"#));
        assert!(xml.contains("<oldval>$799</oldval><newval>$699</newval>"));
    }

    #[test]
    fn roundtrip_preserves_every_op() {
        let d = sample_delta();
        let xml = delta_to_xml(&d);
        let back = parse_delta(&xml).unwrap();
        assert_eq!(back.len(), d.len());
        let xml2 = delta_to_xml(&back);
        assert_eq!(xml, xml2, "serialize∘parse must be a fixpoint");
    }

    #[test]
    fn roundtripped_delta_still_applies() {
        let old = XidDocument::parse_initial("<a><x><m/></x><y/><p>t</p></a>").unwrap();
        let mut new = old.clone();
        let m = new
            .doc
            .tree
            .descendants(new.doc.tree.root())
            .find(|&n| new.doc.tree.name(n) == Some("m"))
            .unwrap();
        let y = new
            .doc
            .tree
            .descendants(new.doc.tree.root())
            .find(|&n| new.doc.tree.name(n) == Some("y"))
            .unwrap();
        new.doc.tree.detach(m);
        new.doc.tree.append_child(y, m);
        let delta = crate::diff_by_xid::diff_by_xid(&old, &new);
        let xml = delta_to_xml(&delta);
        let reparsed = parse_delta(&xml).unwrap();
        let mut replay = old.clone();
        reparsed.apply_to(&mut replay).unwrap();
        assert_eq!(replay.doc.to_xml(), new.doc.to_xml());
    }

    #[test]
    fn text_subtree_roundtrips() {
        let mut stored = Tree::new();
        let txt = stored.new_text("just text");
        let r = stored.root();
        stored.append_child(r, txt);
        let d = Delta::from_ops(vec![Op::Insert {
            xid: Xid(5),
            parent: Xid(1),
            pos: 0,
            subtree: stored.into(),
            xid_map: XidMap::new(vec![Xid(5)]),
        }]);
        let xml = delta_to_xml(&d);
        assert!(xml.contains(">just text</insert>"));
        let back = parse_delta(&xml).unwrap();
        match &back.ops[0] {
            Op::Insert { subtree, .. } => {
                let subtree = subtree.tree();
                let c = subtree.first_child(subtree.root()).unwrap();
                assert_eq!(subtree.text(c), Some("just text"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn adjacent_texts_from_excluded_nodes_survive_roundtrip() {
        // old: <r><a>t1<b>mm</b>t2</a><keep/></r>
        // new: <r><keep/><b>mm</b></r>  — <a> deleted, <b> moved out.
        // The delete op captures <a> minus <b>, leaving t1 and t2 adjacent;
        // the XML form must keep them as two nodes or the op's XID-map (and
        // inversion) breaks.
        let old = XidDocument::parse_initial("<r><a>t1<b>mm</b>t2</a><keep/></r>").unwrap();
        let mut new = old.clone();
        let find = |d: &XidDocument, l: &str| {
            d.doc
                .tree
                .descendants(d.doc.tree.root())
                .find(|&n| d.doc.tree.name(n) == Some(l))
                .unwrap()
        };
        let b = find(&new, "b");
        let r = find(&new, "r");
        new.doc.tree.detach(b);
        new.doc.tree.append_child(r, b);
        let a = find(&new, "a");
        new.doc.tree.detach(a);
        for n in new.doc.tree.post_order(a).collect::<Vec<_>>() {
            new.clear_xid(n);
        }
        let delta = crate::diff_by_xid::diff_by_xid(&old, &new);
        let xml = delta_to_xml(&delta);
        assert!(xml.contains("t1<?xy-sep?>t2"), "separator must keep the boundary: {xml}");
        let back = parse_delta(&xml).unwrap();
        // The roundtripped delta applies forward…
        let mut replay = old.clone();
        back.apply_to(&mut replay).unwrap();
        assert_eq!(replay.doc.to_xml(), new.doc.to_xml());
        // …and its inverse restores the adjacent text nodes as TWO nodes.
        back.inverted().apply_to(&mut replay).unwrap();
        assert_eq!(replay.doc.to_xml(), old.doc.to_xml());
        let a_restored = find(&replay, "a");
        assert_eq!(replay.doc.tree.children_count(a_restored), 3);
    }

    #[test]
    fn parse_rejects_wrong_root() {
        assert!(matches!(
            parse_delta("<not-a-delta/>"),
            Err(DeltaParseError::Structure(_))
        ));
    }

    #[test]
    fn parse_rejects_unknown_op() {
        assert!(parse_delta("<delta><frobnicate xid=\"1\"/></delta>").is_err());
    }

    #[test]
    fn parse_rejects_missing_attrs() {
        assert!(parse_delta("<delta><move xid=\"1\"/></delta>").is_err());
        assert!(parse_delta("<delta><update xid=\"1\"/></delta>").is_err());
    }

    #[test]
    fn parse_rejects_zero_position() {
        let r = parse_delta(
            "<delta><move xid=\"1\" from-parent=\"2\" from-pos=\"0\" to-parent=\"2\" to-pos=\"1\"/></delta>",
        );
        assert!(r.is_err());
    }

    #[test]
    fn empty_delta_roundtrip() {
        let xml = delta_to_xml(&Delta::new());
        assert_eq!(xml, "<delta/>");
        assert!(parse_delta(&xml).unwrap().is_empty());
    }

    #[test]
    fn size_bytes_is_xml_length() {
        let d = sample_delta();
        assert_eq!(d.size_bytes(), delta_to_xml(&d).len());
    }
}
