//! Arena-based ordered XML trees.
//!
//! A [`Document`] owns all its nodes in one flat table in **pre-order**;
//! a [`NodeId`] is an index into it, so **document order is the numeric
//! order of ids** — the property the paper leans on for XML's "intrinsic
//! ordering". A node's record holds its parent and `end`, the id one past
//! its last descendant (the interval numbering of a pre-order node
//! table): the subtree of `id` is the contiguous range `id..end`, its
//! first child is `id + 1` when that is below `end`, and a child's next
//! sibling is the child's own `end` while that is below the parent's.
//! There is no per-node child list and no per-node heap block;
//! attributes live in one document-level table that element records
//! address by range.
//!
//! Traversal is implemented once, on the borrowed [`Cursor`] (`&Document`
//! plus an id, `Copy`). [`NodeRef`] is the owned handle (an `Arc` plus an
//! id) that binding tuples hold; its methods delegate to the cursor and
//! pay one `Arc` clone per node *returned*, so bulk readers walk cursors
//! and mint a `NodeRef` only for a node they keep. Documents are immutable
//! once built (see [`crate::build::DocumentBuilder`]).

use crate::atomic::Atomic;
use crate::intern::Sym;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Index of a node within its [`Document`] arena. Ordering of ids is
/// document (pre-)order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena slot, mostly useful for diagnostics.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind-specific payload of a node, as a borrowed view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind<'a> {
    /// An element with an interned tag name and attributes (in source
    /// order). Names and attribute strings are interned [`Sym`]s, so
    /// deep-copying subtrees during result construction copies ids, not
    /// strings.
    Element {
        name: Sym,
        attrs: &'a [(Sym, Sym)],
    },
    /// A text node holding a typed atomic value. Parsed documents store
    /// interned strings; adapter-built documents keep source types.
    Text(&'a Atomic),
    /// A comment (`<!-- ... -->`).
    Comment(&'a str),
    /// A processing instruction (`<?target data?>`).
    Pi { target: &'a str, data: &'a str },
}

/// What a node record stores of its kind. Comments and processing
/// instructions are rare in integration data, so they are boxed to keep
/// the record at the size of a text node's atomic.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    Element {
        name: Sym,
        /// Start of this element's run in [`Document::attrs`]
        /// (meaningless while `attr_count` is 0).
        attrs: u32,
        attr_count: u32,
        /// Number of element children, maintained by the builder so that
        /// a row count is a field read, not a sibling walk.
        child_elements: u32,
    },
    Text(Atomic),
    Comment(Box<str>),
    Pi(Box<(String, String)>),
}

/// `parent` of the root.
pub(crate) const NO_PARENT: u32 = u32::MAX;
/// `end` of an element a builder has not closed yet; reads as the
/// current table length (see [`Document::end_of`]).
pub(crate) const OPEN: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub payload: Payload,
    pub parent: u32,
    /// One past the last descendant.
    pub end: u32,
}

/// An immutable XML document: a tree of elements, text, comments, and
/// processing instructions rooted at a single element (node 0).
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) attrs: Vec<(Sym, Sym)>,
    /// See [`Document::stamp`].
    pub(crate) stamp: Option<[u64; 3]>,
}

impl Document {
    /// The root element of the document.
    pub fn root(self: &Arc<Self>) -> NodeRef {
        NodeRef {
            doc: Arc::clone(self),
            id: NodeId(0),
        }
    }

    /// Resolve an id to a reference. Panics if the id does not belong to
    /// this document's arena.
    pub fn node(self: &Arc<Self>, id: NodeId) -> NodeRef {
        assert!(
            (id.0 as usize) < self.nodes.len(),
            "NodeId {} out of bounds for document with {} nodes",
            id.0,
            self.nodes.len()
        );
        NodeRef {
            doc: Arc::clone(self),
            id,
        }
    }

    /// A borrowed cursor on the root element.
    pub fn root_cursor(&self) -> Cursor<'_> {
        self.cursor(NodeId(0))
    }

    /// A borrowed cursor on `id`. Reading through a cursor whose id does
    /// not belong to this document panics.
    pub fn cursor(&self, id: NodeId) -> Cursor<'_> {
        Cursor { doc: self, id }
    }

    /// Total number of nodes (all kinds) in the document.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The numbers its producer attached with
    /// [`DocumentBuilder::stamp`](crate::DocumentBuilder::stamp), if any.
    /// They travel beside the tree, not in it: no node, no attribute and
    /// no interned string carries them, they are not serialized, and a
    /// subtree copy leaves them behind.
    pub fn stamp(&self) -> Option<[u64; 3]> {
        self.stamp
    }

    /// True when the document has no nodes (only possible for the empty
    /// placeholder document).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// An empty single-element document `<name/>`, used as the identity
    /// result of constructions.
    pub fn empty(name: &str) -> Arc<Document> {
        crate::build::DocumentBuilder::with_capacity(name, 1).finish()
    }

    /// One past the last descendant of `id`. An element still open in a
    /// builder ends where the table does, which is what lets the one
    /// traversal below read an unfinished arena.
    pub(crate) fn end_of(&self, id: u32) -> u32 {
        self.nodes[id as usize].end.min(self.nodes.len() as u32)
    }
}

/// A borrowed position in a document: `&Document` plus an id. `Copy`, so
/// walking a tree clones no `Arc`; every traversal in the crate —
/// navigation, text, serialization, equality, subtree copy — is written
/// against it, and [`NodeRef`] delegates here.
#[derive(Clone, Copy)]
pub struct Cursor<'a> {
    doc: &'a Document,
    id: NodeId,
}

impl<'a> Cursor<'a> {
    fn at(self, id: u32) -> Cursor<'a> {
        Cursor {
            doc: self.doc,
            id: NodeId(id),
        }
    }

    pub(crate) fn data(self) -> &'a NodeData {
        &self.doc.nodes[self.id.0 as usize]
    }

    /// One past the last descendant: the subtree is `id..end`.
    fn end(self) -> u32 {
        self.doc.end_of(self.id.0)
    }

    /// The node's id within its document (document-order comparable).
    pub fn id(self) -> NodeId {
        self.id
    }

    /// The node's payload.
    pub fn kind(self) -> NodeKind<'a> {
        match &self.data().payload {
            Payload::Element { name, .. } => NodeKind::Element {
                name: *name,
                attrs: self.attrs(),
            },
            Payload::Text(a) => NodeKind::Text(a),
            Payload::Comment(c) => NodeKind::Comment(c),
            Payload::Pi(pi) => NodeKind::Pi {
                target: &pi.0,
                data: &pi.1,
            },
        }
    }

    /// True if this node is an element.
    pub fn is_element(self) -> bool {
        matches!(self.data().payload, Payload::Element { .. })
    }

    /// Element tag name, or `None` for non-elements.
    pub fn name(self) -> Option<&'static str> {
        self.name_sym().map(Sym::as_str)
    }

    /// Element tag name as an interned symbol, or `None` for
    /// non-elements. Prefer this over [`name`](Self::name) when
    /// comparing against another interned name: it is an integer
    /// comparison.
    pub fn name_sym(self) -> Option<Sym> {
        match self.data().payload {
            Payload::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Attribute lookup by name (elements only).
    pub fn attr(self, name: &str) -> Option<&'static str> {
        let attrs = self.attrs();
        if attrs.is_empty() {
            return None;
        }
        // A name that was never interned cannot be an attribute of any
        // document.
        let needle = Sym::find(name)?;
        attrs
            .iter()
            .find(|(k, _)| *k == needle)
            .map(|(_, v)| v.as_str())
    }

    /// All attributes in source order (empty for non-elements).
    pub fn attrs(self) -> &'a [(Sym, Sym)] {
        match self.data().payload {
            Payload::Element {
                attrs, attr_count, ..
            } if attr_count > 0 => &self.doc.attrs[attrs as usize..(attrs + attr_count) as usize],
            _ => &[],
        }
    }

    /// Parent node, `None` at the root.
    pub fn parent(self) -> Option<Cursor<'a>> {
        let p = self.data().parent;
        (p != NO_PARENT).then(|| self.at(p))
    }

    /// First child, if any.
    pub fn first_child(self) -> Option<Cursor<'a>> {
        let first = self.id.0 + 1;
        (first < self.end()).then(|| self.at(first))
    }

    /// All children in document order.
    pub fn children(self) -> Children<'a> {
        Children {
            doc: self.doc,
            range: self.id.0 + 1..self.end(),
        }
    }

    /// Child elements only, in document order.
    pub fn child_elements(self) -> impl Iterator<Item = Cursor<'a>> {
        self.children().filter(|c| c.is_element())
    }

    /// Number of child elements: a stored field, O(1). Use it instead of
    /// counting [`child_elements`](Self::child_elements), which chases a
    /// sibling link per child.
    pub fn child_element_count(self) -> usize {
        match self.data().payload {
            Payload::Element { child_elements, .. } => child_elements as usize,
            _ => 0,
        }
    }

    /// Child elements with the given tag name.
    pub fn children_named(self, name: &str) -> impl Iterator<Item = Cursor<'a>> {
        // A name that was never interned names no element; `None` then
        // matches nothing, text nodes included.
        let needle = Sym::find(name);
        self.children()
            .filter(move |c| needle.is_some() && c.name_sym() == needle)
    }

    /// First child element with the given name.
    pub fn child(self, name: &str) -> Option<Cursor<'a>> {
        self.children_named(name).next()
    }

    /// The next sibling in document order ("sideways" navigation).
    pub fn following_sibling(self) -> Option<Cursor<'a>> {
        let parent = self.parent()?;
        let next = self.end();
        (next < parent.end()).then(|| self.at(next))
    }

    /// The previous sibling in document order. O(preceding siblings):
    /// the table links forward only, so this walks the parent's children
    /// up to this node.
    pub fn preceding_sibling(self) -> Option<Cursor<'a>> {
        let mut prev = None;
        for c in self.parent()?.children() {
            if c.id == self.id {
                break;
            }
            prev = Some(c);
        }
        prev
    }

    /// The subtree in pre-order, this node first: a contiguous id range.
    pub(crate) fn subtree(self) -> impl Iterator<Item = Cursor<'a>> {
        (self.id.0..self.end()).map(move |i| self.at(i))
    }

    /// All descendant elements (not including self), pre-order: a linear
    /// scan of the subtree's id range.
    pub fn descendants(self) -> impl Iterator<Item = Cursor<'a>> {
        self.subtree().skip(1).filter(|c| c.is_element())
    }

    /// Concatenated text content of this node and its descendants.
    pub fn text(self) -> String {
        let mut out = String::new();
        self.text_into(&mut out);
        out
    }

    /// Append the concatenated text content to `out` (buffer-reuse
    /// companion of [`text`](Self::text)).
    pub fn text_into(self, out: &mut String) {
        for n in self.subtree() {
            if let Payload::Text(a) = &n.data().payload {
                a.lexical_into(out);
            }
        }
    }

    /// The typed value of this node: for a text node its atomic, for an
    /// element with a single text child that child's atomic, otherwise the
    /// concatenated text as a string (empty elements yield `Null`).
    pub fn typed_value(self) -> Atomic {
        match self.typed_value_ref() {
            Some(a) => a.clone(),
            None => Atomic::Str(self.text()),
        }
    }

    /// [`typed_value`](Self::typed_value) where it is stored; `None` only
    /// for text of several nodes, which `typed_value` concatenates.
    pub fn typed_value_ref(self) -> Option<&'a Atomic> {
        static NULL: Atomic = Atomic::Null;
        match &self.data().payload {
            Payload::Text(a) => Some(a),
            Payload::Element { .. } => {
                let Some(first) = self.first_child() else {
                    return Some(&NULL);
                };
                match &first.data().payload {
                    Payload::Text(a) if first.end() == self.end() => Some(a),
                    _ => None,
                }
            }
            Payload::Comment(_) | Payload::Pi(_) => Some(&NULL),
        }
    }

    /// Structural (deep) equality of the subtrees rooted here: the two
    /// pre-order ranges hold equal kinds with equal subtree sizes.
    pub fn deep_eq(self, other: Cursor<'_>) -> bool {
        self.subtree_size() == other.subtree_size()
            && self
                .subtree()
                .zip(other.subtree())
                .all(|(a, b)| a.subtree_size() == b.subtree_size() && a.kind() == b.kind())
    }

    /// Number of nodes in the subtree rooted here (including self).
    pub fn subtree_size(self) -> usize {
        (self.end() - self.id.0) as usize
    }
}

impl fmt::Debug for Cursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            NodeKind::Element { name, .. } => write!(f, "<{}> #{}", name, self.id.0),
            NodeKind::Text(a) => write!(f, "text {:?} #{}", a.lexical(), self.id.0),
            NodeKind::Comment(_) => write!(f, "comment #{}", self.id.0),
            NodeKind::Pi { target, .. } => write!(f, "pi {} #{}", target, self.id.0),
        }
    }
}

/// A run of siblings: starts at `range.start` and follows each node's
/// `end` to the next while below `range.end`.
pub struct Children<'a> {
    doc: &'a Document,
    range: Range<u32>,
}

impl<'a> Children<'a> {
    /// The top-level nodes of the forest stored in `range`.
    pub(crate) fn of_range(doc: &'a Document, range: Range<u32>) -> Children<'a> {
        Children { doc, range }
    }
}

impl<'a> Iterator for Children<'a> {
    type Item = Cursor<'a>;

    fn next(&mut self) -> Option<Cursor<'a>> {
        if self.range.start >= self.range.end {
            return None;
        }
        let id = self.range.start;
        self.range.start = self.doc.end_of(id);
        Some(Cursor {
            doc: self.doc,
            id: NodeId(id),
        })
    }
}

/// A cheap handle to one node of a shared document: an `Arc` plus an
/// index. This is what tuples own (`Value::Node`); every read delegates
/// to the node's [`Cursor`].
#[derive(Clone)]
pub struct NodeRef {
    pub(crate) doc: Arc<Document>,
    pub(crate) id: NodeId,
}

impl NodeRef {
    /// The borrowed cursor on this node. Walk it instead of the
    /// `NodeRef`-returning iterators when visiting many nodes: those
    /// clone the document's `Arc` for each one.
    pub fn cursor(&self) -> Cursor<'_> {
        self.doc.cursor(self.id)
    }

    /// An owned handle on a node a cursor of this document reached.
    fn own(&self, c: Cursor<'_>) -> NodeRef {
        NodeRef {
            doc: Arc::clone(&self.doc),
            id: c.id,
        }
    }

    /// The node's id within its document (document-order comparable).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The owning document.
    pub fn document(&self) -> &Arc<Document> {
        &self.doc
    }

    /// The node's payload.
    pub fn kind(&self) -> NodeKind<'_> {
        self.cursor().kind()
    }

    /// True if this node is an element.
    pub fn is_element(&self) -> bool {
        self.cursor().is_element()
    }

    /// Element tag name, or `None` for non-elements.
    pub fn name(&self) -> Option<&str> {
        self.cursor().name()
    }

    /// Element tag name as an interned symbol; see [`Cursor::name_sym`].
    pub fn name_sym(&self) -> Option<Sym> {
        self.cursor().name_sym()
    }

    /// Attribute lookup by name (elements only).
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.cursor().attr(name)
    }

    /// All attributes in source order (empty for non-elements).
    pub fn attrs(&self) -> &[(Sym, Sym)] {
        self.cursor().attrs()
    }

    /// Parent node, `None` at the root.
    pub fn parent(&self) -> Option<NodeRef> {
        self.cursor().parent().map(|c| self.own(c))
    }

    /// All children in document order.
    pub fn children(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.cursor().children().map(move |c| self.own(c))
    }

    /// Child elements only, in document order.
    pub fn child_elements(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.cursor().child_elements().map(move |c| self.own(c))
    }

    /// Number of child elements, O(1); see
    /// [`Cursor::child_element_count`].
    pub fn child_element_count(&self) -> usize {
        self.cursor().child_element_count()
    }

    /// Child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = NodeRef> + 'a {
        self.cursor().children_named(name).map(move |c| self.own(c))
    }

    /// First child element with the given name.
    pub fn child(&self, name: &str) -> Option<NodeRef> {
        self.cursor().child(name).map(|c| self.own(c))
    }

    /// The next sibling in document order ("sideways" navigation).
    pub fn following_sibling(&self) -> Option<NodeRef> {
        self.cursor().following_sibling().map(|c| self.own(c))
    }

    /// The previous sibling in document order; O(preceding siblings),
    /// see [`Cursor::preceding_sibling`].
    pub fn preceding_sibling(&self) -> Option<NodeRef> {
        self.cursor().preceding_sibling().map(|c| self.own(c))
    }

    /// All descendant elements (not including self), pre-order.
    pub fn descendants(&self) -> Descendants {
        let c = self.cursor();
        Descendants {
            doc: Arc::clone(&self.doc),
            range: c.id.0 + 1..c.end(),
        }
    }

    /// Concatenated text content of this node and its descendants.
    pub fn text(&self) -> String {
        self.cursor().text()
    }

    /// Append the concatenated text content to `out` (buffer-reuse
    /// companion of [`text`](Self::text)).
    pub fn text_into(&self, out: &mut String) {
        self.cursor().text_into(out)
    }

    /// The typed value of this node; see [`Cursor::typed_value`].
    pub fn typed_value(&self) -> Atomic {
        self.cursor().typed_value()
    }

    /// True when both refs point to the same node of the same document
    /// (node identity, not structural equality).
    pub fn same_node(&self, other: &NodeRef) -> bool {
        Arc::ptr_eq(&self.doc, &other.doc) && self.id == other.id
    }

    /// Document-order comparison; only meaningful within one document.
    /// Across documents, orders by document pointer to stay total.
    pub fn doc_order(&self, other: &NodeRef) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.doc, &other.doc) {
            self.id.cmp(&other.id)
        } else {
            (Arc::as_ptr(&self.doc) as usize).cmp(&(Arc::as_ptr(&other.doc) as usize))
        }
    }

    /// Structural (deep) equality of the subtrees rooted here.
    pub fn deep_eq(&self, other: &NodeRef) -> bool {
        self.cursor().deep_eq(other.cursor())
    }

    /// Number of nodes in the subtree rooted here (including self).
    pub fn subtree_size(&self) -> usize {
        self.cursor().subtree_size()
    }
}

impl fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeRef({:?})", self.cursor())
    }
}

/// Owned pre-order iterator over descendant elements (what
/// [`NodeRef::descendants`] returns; [`Cursor::descendants`] is the
/// borrowed form).
pub struct Descendants {
    doc: Arc<Document>,
    range: Range<u32>,
}

impl Iterator for Descendants {
    type Item = NodeRef;

    fn next(&mut self) -> Option<NodeRef> {
        let doc = &self.doc;
        let id = self
            .range
            .by_ref()
            .find(|&i| doc.cursor(NodeId(i)).is_element())?;
        Some(doc.node(NodeId(id)))
    }
}

#[cfg(test)]
mod tests {
    use crate::parse::parse;

    #[test]
    fn node_record_is_at_most_40_bytes() {
        // 80 B plus a heap block per non-empty element before the flat
        // table; a text node's atomic (24 B) sets the floor.
        assert!(std::mem::size_of::<super::NodeData>() <= 40);
    }

    #[test]
    fn navigation_up_down_sideways() {
        let doc = parse("<a><b>1</b><c>2</c><b>3</b></a>").unwrap();
        let root = doc.root();
        assert_eq!(root.name(), Some("a"));
        let first_b = root.child("b").unwrap();
        assert_eq!(first_b.text(), "1");
        let c = first_b.following_sibling().unwrap();
        assert_eq!(c.name(), Some("c"));
        assert_eq!(c.parent().unwrap().name(), Some("a"));
        assert_eq!(c.preceding_sibling().unwrap().text(), "1");
        let bs: Vec<String> = root.children_named("b").map(|n| n.text()).collect();
        assert_eq!(bs, vec!["1", "3"]);
    }

    #[test]
    fn document_order_is_id_order() {
        let doc = parse("<a><b><d/></b><c/></a>").unwrap();
        let names: Vec<String> = doc
            .root()
            .descendants()
            .map(|n| n.name().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["b", "d", "c"]);
        let d = doc.root().descendants().find(|n| n.name() == Some("d")).unwrap();
        let c = doc.root().descendants().find(|n| n.name() == Some("c")).unwrap();
        assert_eq!(d.doc_order(&c), std::cmp::Ordering::Less);
    }

    #[test]
    fn typed_value_of_simple_element() {
        let doc = parse("<n>42</n>").unwrap();
        // Parsed text stays a string; adapters produce typed atoms.
        assert_eq!(doc.root().typed_value().lexical(), "42");
    }

    #[test]
    fn deep_eq_and_subtree_size() {
        let a = parse("<x><y>1</y></x>").unwrap();
        let b = parse("<x><y>1</y></x>").unwrap();
        let c = parse("<x><y>2</y></x>").unwrap();
        assert!(a.root().deep_eq(&b.root()));
        assert!(!a.root().deep_eq(&c.root()));
        assert_eq!(a.root().subtree_size(), 3);
    }

    #[test]
    fn deep_eq_tells_nesting_from_sequence() {
        // Same kinds in the same pre-order, different shape.
        let nested = parse("<x><y><z/></y></x>").unwrap();
        let flat = parse("<x><y/><z/></x>").unwrap();
        assert!(!nested.root().deep_eq(&flat.root()));
    }

    #[test]
    fn same_node_identity() {
        let a = parse("<x><y/></x>").unwrap();
        let y1 = a.root().child("y").unwrap();
        let y2 = a.root().child("y").unwrap();
        assert!(y1.same_node(&y2));
        let b = parse("<x><y/></x>").unwrap();
        assert!(!y1.same_node(&b.root().child("y").unwrap()));
    }

    #[test]
    fn child_element_count_ignores_text_and_comments() {
        let doc = parse("<a>t<b/><!--c--><b><d/></b>u</a>").unwrap();
        assert_eq!(doc.root().child_element_count(), 2);
        assert_eq!(doc.root().children().count(), 5);
        let second_b = doc.root().children_named("b").nth(1).unwrap();
        assert_eq!(second_b.child_element_count(), 1);
        assert_eq!(doc.root().children().next().unwrap().child_element_count(), 0);
    }
}
