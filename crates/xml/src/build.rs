//! Construction of immutable documents.
//!
//! [`DocumentBuilder`] appends nodes in document order (pre-order), which
//! is what keeps `NodeId` comparison equivalent to document order. It is
//! the single write path for documents: the parser, the source adapters,
//! and the algebra's `Construct` operator all build through it.

use crate::atomic::Atomic;
use crate::intern::Sym;
use crate::node::{Children, Cursor, Document, NodeData, NodeId, NodeRef, Payload, NO_PARENT, OPEN};
use crate::serialize::write_compact;
use std::sync::Arc;

/// Incrementally builds a [`Document`] with a cursor-based API.
///
/// ```
/// use nimble_xml::DocumentBuilder;
///
/// let mut b = DocumentBuilder::new("people");
/// b.start_element("person");
/// b.attr("id", "1");
/// b.text_str("Ada");
/// b.end_element();
/// let doc = b.finish();
/// assert_eq!(doc.root().child("person").unwrap().text(), "Ada");
/// ```
pub struct DocumentBuilder {
    /// The arena being filled. Open elements carry `end == OPEN`, which
    /// the shared traversal reads as "ends where the table does".
    doc: Document,
    /// Innermost open element. Always a valid element id: the root is
    /// node 0 and stays open until `finish`.
    cur: u32,
    /// Number of open elements (1 = only the root).
    depth: usize,
}

impl DocumentBuilder {
    /// Start a new document whose root element has the given tag name.
    pub fn new(root_name: &str) -> Self {
        Self::with_capacity(root_name, 1)
    }

    /// Like [`new`](Self::new), with room for `nodes` nodes (the root
    /// included) so that a caller who knows the size allocates the table
    /// once.
    pub fn with_capacity(root_name: &str, nodes: usize) -> Self {
        let mut table = Vec::with_capacity(nodes.max(1));
        table.push(NodeData {
            payload: element(Sym::intern(root_name)),
            parent: NO_PARENT,
            end: OPEN,
        });
        DocumentBuilder {
            doc: Document {
                nodes: table,
                attrs: Vec::new(),
                stamp: None,
            },
            cur: 0,
            depth: 1,
        }
    }

    /// A builder that starts as a copy of `doc` with its root open
    /// again and room for `more` nodes: what is appended lands behind
    /// the root's last child. The copy is two `Vec` clones — no walk,
    /// no link rewritten — and carries no stamp.
    pub fn reopen(doc: &Document, more: usize) -> Self {
        let mut nodes = Vec::with_capacity(doc.nodes.len() + more);
        nodes.extend_from_slice(&doc.nodes);
        if let Some(root) = nodes.first_mut() {
            root.end = OPEN;
        }
        DocumentBuilder {
            doc: Document {
                nodes,
                attrs: doc.attrs.clone(),
                stamp: None,
            },
            cur: 0,
            depth: 1,
        }
    }

    /// Attach three numbers of the producer's to the document being
    /// built (see [`Document::stamp`]).
    pub fn stamp(&mut self, stamp: [u64; 3]) {
        self.doc.stamp = Some(stamp);
    }

    /// Append a node under the current element; `end` is `id + 1` for a
    /// leaf and [`OPEN`] for an element about to receive children.
    fn push_node(&mut self, payload: Payload, end: u32) -> NodeId {
        let id = self.doc.nodes.len() as u32;
        self.doc.nodes.push(NodeData {
            payload,
            parent: self.cur,
            end,
        });
        NodeId(id)
    }

    fn push_leaf(&mut self, payload: Payload) -> NodeId {
        let end = self.doc.nodes.len() as u32 + 1;
        self.push_node(payload, end)
    }

    /// Count one more element child of the current element.
    fn count_child_element(&mut self) {
        if let Payload::Element { child_elements, .. } =
            &mut self.doc.nodes[self.cur as usize].payload
        {
            *child_elements += 1;
        }
    }

    /// Open a child element; subsequent nodes nest inside it until
    /// [`end_element`](Self::end_element).
    pub fn start_element(&mut self, name: &str) -> NodeId {
        self.start_element_sym(Sym::intern(name))
    }

    /// Open a child element by interned name (the zero-allocation path
    /// used when copying subtrees and streaming construction).
    pub fn start_element_sym(&mut self, name: Sym) -> NodeId {
        self.count_child_element();
        let id = self.push_node(element(name), OPEN);
        self.cur = id.0;
        self.depth += 1;
        id
    }

    /// Close the innermost open element. Panics on attempts to close the
    /// root (the root is closed by [`finish`](Self::finish)).
    pub fn end_element(&mut self) {
        let len = self.doc.nodes.len() as u32;
        let open = &mut self.doc.nodes[self.cur as usize];
        assert!(
            open.parent != NO_PARENT,
            "end_element would close the document root"
        );
        open.end = len;
        self.cur = open.parent;
        self.depth -= 1;
    }

    /// Add an attribute to the innermost open element.
    pub fn attr(&mut self, name: &str, value: &str) {
        self.attr_sym(Sym::intern(name), Sym::intern(value));
    }

    /// Add an attribute by interned name/value.
    pub fn attr_sym(&mut self, name: Sym, value: Sym) {
        let tail = self.doc.attrs.len() as u32;
        if let Payload::Element {
            attrs, attr_count, ..
        } = &mut self.doc.nodes[self.cur as usize].payload
        {
            if *attrs + *attr_count != tail {
                // First attribute, or a descendant's attributes were
                // appended after this element's last one: (re)start the
                // run at the tail so that it stays contiguous.
                let run = *attrs as usize..(*attrs + *attr_count) as usize;
                self.doc.attrs.extend_from_within(run);
                *attrs = tail;
            }
            *attr_count += 1;
            self.doc.attrs.push((name, value));
        }
    }

    /// Append a typed text node.
    pub fn text(&mut self, value: Atomic) -> NodeId {
        self.push_leaf(Payload::Text(value))
    }

    /// Append a string text node (interned).
    pub fn text_str(&mut self, value: &str) -> NodeId {
        self.text(Atomic::Sym(Sym::intern(value)))
    }

    /// Append a comment node.
    pub fn comment(&mut self, text: &str) -> NodeId {
        self.push_leaf(Payload::Comment(text.into()))
    }

    /// Append a processing instruction.
    pub fn pi(&mut self, target: &str, data: &str) -> NodeId {
        self.push_leaf(Payload::Pi(Box::new((target.to_string(), data.to_string()))))
    }

    /// Convenience: `<name>value</name>` as a single call.
    pub fn leaf(&mut self, name: &str, value: Atomic) -> NodeId {
        let id = self.start_element(name);
        if !value.is_null() {
            self.text(value);
        }
        self.end_element();
        id
    }

    /// Deep-copy an existing subtree (possibly from another document) as a
    /// child of the current element. Used by `Construct` when query results
    /// embed source fragments.
    pub fn copy_subtree(&mut self, node: &NodeRef) {
        self.copy_cursor(node.cursor());
    }

    /// Deep-copy a subtree of another (unfinished) builder's arena as a
    /// child of the current element. The cross-builder analogue of
    /// [`copy_subtree`](Self::copy_subtree).
    pub fn copy_from(&mut self, src: &DocumentBuilder, id: NodeId) {
        self.copy_cursor(src.doc.cursor(id));
    }

    /// A subtree is a contiguous run of the source table, so the copy is
    /// one pass over it: records are appended with their links moved by
    /// the distance between the two positions, attribute runs are
    /// re-homed, and interned names make each record an id copy.
    fn copy_cursor(&mut self, src: Cursor<'_>) {
        let first = src.id().0;
        let base = self.doc.nodes.len() as u32;
        self.doc.nodes.reserve(src.subtree_size());
        if src.is_element() {
            self.count_child_element();
        }
        for n in src.subtree() {
            let mut payload = n.data().payload.clone();
            if let Payload::Element { attrs, .. } = &mut payload {
                *attrs = self.doc.attrs.len() as u32;
                self.doc.attrs.extend_from_slice(n.attrs());
            }
            let parent = if n.id().0 == first {
                self.cur
            } else {
                n.data().parent - first + base
            };
            // `subtree_size` closes what the source still has open.
            let end = self.doc.nodes.len() as u32 + n.subtree_size() as u32;
            self.doc.nodes.push(NodeData {
                payload,
                parent,
                end,
            });
        }
    }

    /// Depth of currently open elements (1 = only the root is open).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Checkpoint the current append position. Everything appended after
    /// the mark can be inspected ([`serialize_since`](Self::serialize_since))
    /// and undone ([`rollback`](Self::rollback)) — the speculative-render
    /// path `Construct` uses for duplicate elimination instead of
    /// building each candidate in a scratch document.
    pub fn mark(&self) -> BuildMark {
        BuildMark {
            nodes_len: self.doc.nodes.len(),
            attrs_len: self.doc.attrs.len(),
            cur: self.cur,
            depth: self.depth,
            child_elements: self.doc.cursor(NodeId(self.cur)).child_element_count() as u32,
        }
    }

    /// Discard every node appended since `mark` and make the element
    /// that was innermost at the mark current again, with the element
    /// count it had; elements opened since need not have been closed.
    /// Attributes added since to that element itself are kept. The mark
    /// must come from this builder, with no intervening rollback to an
    /// earlier mark, and the elements open at the mark must still be
    /// open. Two truncates and one record write, whatever the tree's
    /// size.
    pub fn rollback(&mut self, mark: &BuildMark) {
        self.doc.nodes.truncate(mark.nodes_len);
        self.cur = mark.cur;
        self.depth = mark.depth;
        let mut attrs_len = mark.attrs_len;
        if let Payload::Element {
            attrs,
            attr_count,
            child_elements,
            ..
        } = &mut self.doc.nodes[mark.cur as usize].payload
        {
            *child_elements = mark.child_elements;
            if *attr_count > 0 {
                attrs_len = attrs_len.max((*attrs + *attr_count) as usize);
            }
        }
        self.doc.attrs.truncate(attrs_len);
    }

    /// True when nothing has been appended since `mark`.
    pub fn is_empty_since(&self, mark: &BuildMark) -> bool {
        self.doc.nodes.len() == mark.nodes_len
    }

    /// The top-level nodes appended since `mark`. An element among them
    /// that is still open ends at the current length, so it is the last.
    fn forest_since(&self, mark: &BuildMark) -> Children<'_> {
        Children::of_range(&self.doc, mark.nodes_len as u32..self.doc.nodes.len() as u32)
    }

    /// Compact-serialize the forest appended since `mark` into `out`
    /// (append; caller clears). Byte-identical to running
    /// [`crate::serialize::to_string`] over each appended root in order,
    /// which is what makes it usable as a duplicate-elimination key. An
    /// element still open prints the children appended so far.
    pub fn serialize_since(&self, mark: &BuildMark, out: &mut String) {
        for root in self.forest_since(mark) {
            write_compact(out, root);
        }
    }

    /// The root children appended since `mark`, in document order —
    /// the per-child granularity `Construct`'s duplicate elimination
    /// works at.
    pub fn roots_since(&self, mark: &BuildMark) -> Vec<NodeId> {
        self.forest_since(mark).map(Cursor::id).collect()
    }

    /// Compact-serialize one appended subtree into `out` (append;
    /// caller clears). Matches [`crate::serialize::to_string`] byte for
    /// byte; an element still open prints the children appended so far.
    pub fn serialize_node_into(&self, id: NodeId, out: &mut String) {
        write_compact(out, self.doc.cursor(id));
    }

    /// Number of nodes appended so far (root included).
    pub fn len(&self) -> usize {
        self.doc.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.doc.nodes.len() <= 1
    }

    /// Close any open elements and freeze the document.
    pub fn finish(mut self) -> Arc<Document> {
        let len = self.doc.nodes.len() as u32;
        let mut open = self.cur;
        while open != NO_PARENT {
            let n = &mut self.doc.nodes[open as usize];
            n.end = len;
            open = n.parent;
        }
        Arc::new(self.doc)
    }
}

impl Document {
    /// Append the children of `rows`' root behind this document's last
    /// node, as children of its root: the tree a
    /// [`reopen`](DocumentBuilder::reopen)ed copy with each child copied
    /// in would hold, built without copying this document. `rows`' table
    /// is appended in one pass with its links moved by the distance
    /// between the two positions and its attribute runs re-homed; the
    /// stamp is dropped, since the producer's numbers described the
    /// document before.
    pub fn append_children(&mut self, rows: &Document) {
        if self.nodes.is_empty() || rows.nodes.len() <= 1 {
            return;
        }
        // Node `i` of `rows` (the root is 0 and stays behind) lands at
        // `base + i - 1`.
        let base = self.nodes.len() as u32 - 1;
        let attrs = self.attrs.len() as u32;
        self.attrs.extend_from_slice(&rows.attrs);
        self.nodes.reserve(rows.nodes.len() - 1);
        for (i, n) in rows.nodes.iter().enumerate().skip(1) {
            let mut payload = n.payload.clone();
            if let Payload::Element { attrs: run, .. } = &mut payload {
                *run += attrs;
            }
            self.nodes.push(NodeData {
                payload,
                parent: if n.parent == 0 { 0 } else { n.parent + base },
                end: rows.end_of(i as u32) + base,
            });
        }
        let len = self.nodes.len() as u32;
        let added = rows.root_cursor().child_element_count() as u32;
        let root = &mut self.nodes[0];
        root.end = len;
        if let Payload::Element { child_elements, .. } = &mut root.payload {
            *child_elements += added;
        }
        self.stamp = None;
    }
}

fn element(name: Sym) -> Payload {
    Payload::Element {
        name,
        attrs: 0,
        attr_count: 0,
        child_elements: 0,
    }
}

/// A checkpoint of a [`DocumentBuilder`]'s append position; see
/// [`DocumentBuilder::mark`].
#[derive(Debug, Clone)]
pub struct BuildMark {
    nodes_len: usize,
    attrs_len: usize,
    /// The innermost open element at the mark, its depth, and how many
    /// element children it had.
    cur: u32,
    depth: usize,
    child_elements: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::to_string;

    #[test]
    fn build_nested() {
        let mut b = DocumentBuilder::new("db");
        b.start_element("book");
        b.attr("year", "1999");
        b.leaf("title", Atomic::Str("Data on the Web".into()));
        b.end_element();
        let doc = b.finish();
        assert_eq!(
            to_string(&doc.root()),
            "<db><book year=\"1999\"><title>Data on the Web</title></book></db>"
        );
    }

    #[test]
    fn a_reopened_document_takes_more_children_and_no_stamp() {
        let mut b = DocumentBuilder::new("results");
        b.start_element("r");
        b.attr("k", "1");
        b.leaf("v", Atomic::Int(1));
        b.end_element();
        b.stamp([7, 0, 1]);
        let first = b.finish();
        assert_eq!(first.stamp(), Some([7, 0, 1]));

        let mut again = DocumentBuilder::reopen(&first, 3);
        again.start_element("r");
        again.attr("k", "2");
        again.leaf("v", Atomic::Int(2));
        again.end_element();
        let second = again.finish();
        assert_eq!(second.stamp(), None);
        assert_eq!(
            to_string(&second.root()),
            "<results><r k=\"1\"><v>1</v></r><r k=\"2\"><v>2</v></r></results>"
        );
        assert_eq!(second.root_cursor().child_element_count(), 2);
        assert_eq!(second.root_cursor().subtree_size(), second.len());
        // The original is untouched, and a built-from-scratch twin is equal.
        assert_eq!(to_string(&first.root()), "<results><r k=\"1\"><v>1</v></r></results>");
        let mut twin = DocumentBuilder::new("results");
        for child in second.root().children() {
            twin.copy_subtree(&child);
        }
        assert!(twin.finish().root().deep_eq(&second.root()));
    }

    #[test]
    fn appended_children_are_a_reopened_copy_with_them_copied_in() {
        let mut stored = (*crate::parse::parse("<results><r k='1'><v>1</v></r>tail</results>").unwrap()).clone();
        stored.stamp = Some([7, 0, 1]);
        let rows = crate::parse::parse("<results z='9'><r k='2'><v a='x'>2</v><!--c--></r><s/></results>").unwrap();
        let mut twin = DocumentBuilder::reopen(&stored, 0);
        for child in rows.root().children() {
            twin.copy_subtree(&child);
        }
        let twin = twin.finish();
        stored.append_children(&rows);
        let grown = Arc::new(stored);
        assert!(grown.root().deep_eq(&twin.root()));
        assert_eq!(to_string(&grown.root()), to_string(&twin.root()));
        assert_eq!(grown.root_cursor().child_element_count(), 3);
        assert_eq!(grown.root_cursor().subtree_size(), grown.len());
        assert_eq!(grown.stamp(), None);
        // Nothing to append changes nothing.
        let mut same = (*grown).clone();
        same.append_children(&Document::empty("results"));
        assert_eq!(to_string(&Arc::new(same).root()), to_string(&grown.root()));
    }

    #[test]
    fn typed_leaves_preserve_types() {
        let mut b = DocumentBuilder::new("row");
        b.leaf("n", Atomic::Int(7));
        b.leaf("f", Atomic::Float(1.5));
        let doc = b.finish();
        assert_eq!(doc.root().child("n").unwrap().typed_value(), Atomic::Int(7));
        assert_eq!(
            doc.root().child("f").unwrap().typed_value(),
            Atomic::Float(1.5)
        );
    }

    #[test]
    fn copy_subtree_across_documents() {
        let src = crate::parse::parse("<a><b x='1'>t<!--c--></b></a>").unwrap();
        let mut b = DocumentBuilder::new("out");
        let node = src.root().child("b").unwrap();
        b.copy_subtree(&node);
        let doc = b.finish();
        assert!(doc.root().child("b").unwrap().deep_eq(&node));
    }

    #[test]
    fn a_sized_table_never_regrows() {
        let n = 1 + 500 * 3;
        let mut b = DocumentBuilder::with_capacity("rows", n);
        let (table, capacity) = (b.doc.nodes.as_ptr(), b.doc.nodes.capacity());
        for i in 0..500 {
            b.start_element("row");
            b.leaf("id", Atomic::Int(i));
            b.end_element();
        }
        assert_eq!(b.len(), n);
        assert_eq!((b.doc.nodes.as_ptr(), b.doc.nodes.capacity()), (table, capacity));
        // Copying a subtree reserves its size in one step.
        let src = b.finish();
        let mut b = DocumentBuilder::with_capacity("out", 1);
        b.copy_subtree(&src.root());
        assert!(b.doc.nodes.capacity() > n);
        assert_eq!(to_string(&b.finish().root().child("rows").unwrap()), to_string(&src.root()));
    }

    #[test]
    #[should_panic(expected = "close the document root")]
    fn cannot_close_root() {
        let mut b = DocumentBuilder::new("r");
        b.end_element();
    }

    #[test]
    fn mark_rollback_discards_speculative_nodes() {
        let mut b = DocumentBuilder::new("r");
        b.leaf("keep", Atomic::Int(1));
        let m = b.mark();
        b.start_element("spec");
        b.leaf("x", Atomic::Int(2));
        b.end_element();
        assert!(!b.is_empty_since(&m));
        b.rollback(&m);
        assert!(b.is_empty_since(&m));
        b.leaf("keep2", Atomic::Int(3));
        let doc = b.finish();
        assert_eq!(
            to_string(&doc.root()),
            "<r><keep>1</keep><keep2>3</keep2></r>"
        );
    }

    #[test]
    fn serialize_since_matches_to_string() {
        let mut b = DocumentBuilder::new("r");
        let m = b.mark();
        b.start_element("a");
        b.attr("k", "v\"q");
        b.text_str("x < y");
        b.end_element();
        b.leaf("b", Atomic::Float(2.0));
        let mut key = String::new();
        b.serialize_since(&m, &mut key);
        let doc = b.finish();
        let full: String = doc.root().children().map(|c| to_string(&c)).collect();
        assert_eq!(key, full);
        assert_eq!(key, "<a k=\"v&quot;q\">x &lt; y</a><b>2.0</b>");
    }
}
