//! The flat pre-order arena against a plain `Vec`-of-children tree.
//!
//! A seeded sweep drives every `DocumentBuilder` path — nested elements,
//! attributes (also after children), typed and empty text, comments,
//! processing instructions, `leaf` with `Null`, `copy_subtree`,
//! `copy_from` out of an unfinished builder, `mark`/`rollback` at random
//! depths, `finish` with elements left open, then `Document::
//! append_children` onto the finished document — and applies each step to a
//! model kept here, whose nodes own a child list the way the arena's used
//! to. The finished document must then agree with the model on every
//! navigation, on values, on equality and on the bytes it prints; on the
//! way, `serialize_since`/`roots_since`/`serialize_node_into` are read
//! off the unfinished builder and compared too.

use nimble_trace::rng::{sweep, Rng, SWEEP_SEED};
use nimble_xml::{parse, to_string, Atomic, BuildMark, Document, DocumentBuilder, NodeKind, NodeRef};
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Element {
        name: String,
        attrs: Vec<(String, String)>,
    },
    Text(Atomic),
    Comment(String),
    Pi(String, String),
}

#[derive(Debug, Clone)]
struct MNode {
    kind: Kind,
    parent: Option<usize>,
    children: Vec<usize>,
}

/// The reference tree: ids are append order, which is pre-order.
#[derive(Debug, Clone)]
struct Model {
    nodes: Vec<MNode>,
    open: Vec<usize>,
}

struct ModelMark {
    nodes_len: usize,
    open_len: usize,
}

impl Model {
    fn new(root: &str) -> Model {
        Model {
            nodes: vec![MNode {
                kind: Kind::Element {
                    name: root.to_string(),
                    attrs: Vec::new(),
                },
                parent: None,
                children: Vec::new(),
            }],
            open: vec![0],
        }
    }

    fn cur(&self) -> usize {
        self.open[self.open.len() - 1]
    }

    fn push(&mut self, kind: Kind) -> usize {
        let id = self.nodes.len();
        let parent = self.cur();
        self.nodes.push(MNode {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent].children.push(id);
        id
    }

    fn start(&mut self, name: &str) {
        let id = self.push(Kind::Element {
            name: name.to_string(),
            attrs: Vec::new(),
        });
        self.open.push(id);
    }

    fn end(&mut self) {
        self.open.pop();
    }

    fn attr(&mut self, k: &str, v: &str) {
        let cur = self.cur();
        if let Kind::Element { attrs, .. } = &mut self.nodes[cur].kind {
            attrs.push((k.to_string(), v.to_string()));
        }
    }

    /// Deep-copy `src.nodes[id]` under the current element.
    fn copy(&mut self, src: &Model, id: usize) {
        let n = &src.nodes[id];
        let new = self.push(n.kind.clone());
        if matches!(n.kind, Kind::Element { .. }) {
            self.open.push(new);
            for &c in &n.children {
                self.copy(src, c);
            }
            self.open.pop();
        }
    }

    fn mark(&self) -> ModelMark {
        ModelMark {
            nodes_len: self.nodes.len(),
            open_len: self.open.len(),
        }
    }

    fn rollback(&mut self, m: &ModelMark) {
        self.nodes.truncate(m.nodes_len);
        self.open.truncate(m.open_len);
        for &id in &self.open {
            self.nodes[id].children.retain(|&c| c < m.nodes_len);
        }
    }

    fn child_elements(&self, id: usize) -> usize {
        self.nodes[id]
            .children
            .iter()
            .filter(|&&c| matches!(self.nodes[c].kind, Kind::Element { .. }))
            .count()
    }

    fn subtree_size(&self, id: usize) -> usize {
        1 + self.nodes[id].children.iter().map(|&c| self.subtree_size(c)).sum::<usize>()
    }

    fn descendant_elements(&self, id: usize, out: &mut Vec<usize>) {
        for &c in &self.nodes[id].children {
            if matches!(self.nodes[c].kind, Kind::Element { .. }) {
                out.push(c);
            }
            self.descendant_elements(c, out);
        }
    }

    fn text(&self, id: usize, out: &mut String) {
        if let Kind::Text(a) = &self.nodes[id].kind {
            out.push_str(&a.lexical());
        }
        for &c in &self.nodes[id].children {
            self.text(c, out);
        }
    }

    fn typed_value(&self, id: usize) -> Atomic {
        let n = &self.nodes[id];
        match &n.kind {
            Kind::Text(a) => a.clone(),
            Kind::Element { .. } => match n.children.as_slice() {
                [] => Atomic::Null,
                [only] if matches!(self.nodes[*only].kind, Kind::Text(_)) => self.typed_value(*only),
                _ => {
                    let mut s = String::new();
                    self.text(id, &mut s);
                    Atomic::Str(s)
                }
            },
            _ => Atomic::Null,
        }
    }

    fn deep_eq(&self, a: usize, other: &Model, b: usize) -> bool {
        let (x, y) = (&self.nodes[a], &other.nodes[b]);
        x.kind == y.kind
            && x.children.len() == y.children.len()
            && x.children.iter().zip(&y.children).all(|(&c, &d)| self.deep_eq(c, other, d))
    }

    /// The compact form, written from the child lists.
    fn print(&self, id: usize, out: &mut String) {
        let n = &self.nodes[id];
        match &n.kind {
            Kind::Element { name, attrs } => {
                out.push('<');
                out.push_str(name);
                for (k, v) in attrs {
                    let v = v.replace('&', "&amp;").replace('<', "&lt;").replace('"', "&quot;");
                    out.push_str(&format!(" {}=\"{}\"", k, v));
                }
                if n.children.is_empty() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for &c in &n.children {
                    self.print(c, out);
                }
                out.push_str(&format!("</{}>", name));
            }
            Kind::Text(a) => out.push_str(
                &a.lexical().replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;"),
            ),
            Kind::Comment(c) => out.push_str(&format!("<!--{}-->", c)),
            Kind::Pi(t, d) if d.is_empty() => out.push_str(&format!("<?{}?>", t)),
            Kind::Pi(t, d) => out.push_str(&format!("<?{} {}?>", t, d)),
        }
    }
}

/// A builder and the model it must agree with, stepped together.
struct Pair {
    b: DocumentBuilder,
    m: Model,
    /// Marks that may still be rolled back to, innermost last: taken at
    /// the recorded depth, with every element open then still open.
    marks: Vec<(BuildMark, ModelMark, usize)>,
    /// False once an empty text node exists: `<a></a>` reparses as `<a/>`.
    reparses: bool,
}

const NAMES: [&str; 6] = ["row", "a", "b", "item", "x-1", "n_2"];

fn word(rng: &mut Rng) -> String {
    rng.string("<>&\"'é本abcxyz019", 1..8)
}

fn atom(rng: &mut Rng) -> Atomic {
    match rng.below(6) {
        0 => Atomic::Int(rng.any_i64()),
        1 => Atomic::Float(rng.range(-1000..1000) as f64 / 8.0),
        2 => Atomic::Bool(rng.chance(0.5)),
        3 => Atomic::Str(word(rng)),
        4 => Atomic::Str(String::new()),
        _ => Atomic::Sym(nimble_xml::Sym::intern(&word(rng))),
    }
}

impl Pair {
    fn new(root: &str, capacity: usize) -> Pair {
        Pair {
            b: DocumentBuilder::with_capacity(root, capacity),
            m: Model::new(root),
            marks: Vec::new(),
            reparses: true,
        }
    }

    fn text(&mut self, a: Atomic) {
        self.reparses &= !a.lexical().is_empty();
        self.b.text(a.clone());
        self.m.push(Kind::Text(a));
    }

    fn end(&mut self) {
        self.b.end_element();
        self.m.end();
        // A mark taken inside the element just closed cannot be rolled
        // back to any more.
        let depth = self.b.depth();
        self.marks.retain(|(_, _, d)| *d <= depth);
    }

    /// One random step. `donor` is an unfinished builder with its model,
    /// and the nodes of a finished document of the same tree.
    fn step(&mut self, rng: &mut Rng, donor: Option<&(Pair, Vec<NodeRef>)>) {
        match rng.below(15) {
            0..=2 => {
                let name = *rng.pick(&NAMES);
                if rng.chance(0.5) {
                    self.b.start_element(name);
                } else {
                    self.b.start_element_sym(nimble_xml::Sym::intern(name));
                }
                self.m.start(name);
            }
            3 | 4 if self.b.depth() > 1 => self.end(),
            5 => {
                // Also after children, and between a descendant's.
                let (k, v) = (*rng.pick(&["id", "k", "lang"]), word(rng));
                self.b.attr(k, &v);
                self.m.attr(k, &v);
            }
            6 | 7 => {
                let a = atom(rng);
                self.text(a);
            }
            8 => {
                let c = rng.string("abc xyz", 0..9);
                self.b.comment(&c);
                self.m.push(Kind::Comment(c));
            }
            9 => {
                let (t, d) = (*rng.pick(&["pi", "xml-x"]), rng.string("abc=", 0..6));
                self.b.pi(t, &d);
                self.m.push(Kind::Pi(t.to_string(), d));
            }
            10 => {
                let name = *rng.pick(&NAMES);
                let a = if rng.chance(0.3) { Atomic::Null } else { atom(rng) };
                self.b.leaf(name, a.clone());
                self.m.start(name);
                if !a.is_null() {
                    self.reparses &= !a.lexical().is_empty();
                    self.m.push(Kind::Text(a));
                }
                self.m.end();
            }
            11 => {
                if let Some((donor, donated)) = donor {
                    let id = rng.below(donor.m.nodes.len());
                    self.reparses &= donor.reparses;
                    if rng.chance(0.5) {
                        // The finished document closed what was open; the
                        // model's child lists never knew the difference.
                        self.b.copy_subtree(&donated[id]);
                    } else {
                        self.b.copy_from(&donor.b, donated[id].id());
                    }
                    self.m.copy(&donor.m, id);
                }
            }
            12 => {
                let depth = self.b.depth();
                self.marks.push((self.b.mark(), self.m.mark(), depth));
            }
            13 => {
                if let Some((bm, mm, _)) = self.marks.pop() {
                    self.check_since(&bm, &mm);
                    self.b.rollback(&bm);
                    self.m.rollback(&mm);
                    assert!(self.b.is_empty_since(&bm));
                    assert_eq!(self.b.depth(), self.m.open.len());
                }
            }
            _ => {
                if let Some((bm, mm, _)) = self.marks.last() {
                    self.check_since(bm, mm);
                }
            }
        }
        assert_eq!(self.b.len(), self.m.nodes.len());
        assert_eq!(self.b.depth(), self.m.open.len());
    }

    /// The forest appended since a mark, read off the unfinished
    /// builder: its roots, each root's bytes, and all of it at once. An
    /// element still open prints the children it has so far.
    fn check_since(&self, bm: &BuildMark, mm: &ModelMark) {
        let roots: Vec<usize> = (mm.nodes_len..self.m.nodes.len())
            .filter(|&i| self.m.nodes[i].parent.is_some_and(|p| p < mm.nodes_len))
            .collect();
        let got = self.b.roots_since(bm);
        assert_eq!(got.iter().map(|id| id.index()).collect::<Vec<_>>(), roots);
        let mut all = String::new();
        for (&id, &r) in got.iter().zip(&roots) {
            let (mut want, mut one) = (String::new(), String::new());
            self.m.print(r, &mut want);
            self.b.serialize_node_into(id, &mut one);
            assert_eq!(one, want);
            all.push_str(&want);
        }
        let mut since = String::new();
        self.b.serialize_since(bm, &mut since);
        assert_eq!(since, all);
    }
}

/// The document's nodes in pre-order, reached through `children()`
/// alone; [`compare`] checks that position `i` holds id `i`.
fn preorder(doc: &Arc<Document>) -> Vec<NodeRef> {
    let mut out = Vec::new();
    let mut stack = vec![doc.root()];
    while let Some(n) = stack.pop() {
        let at = stack.len();
        stack.extend(n.children());
        stack[at..].reverse();
        out.push(n);
    }
    out
}

fn ids(nodes: impl Iterator<Item = NodeRef>) -> Vec<usize> {
    nodes.map(|n| n.id().index()).collect()
}

/// Every read the arena offers, against the model.
fn compare(doc: &Arc<Document>, m: &Model) {
    assert_eq!(doc.len(), m.nodes.len());
    let refs = preorder(doc);
    assert_eq!(refs.len(), m.nodes.len(), "children() reaches every node once");
    for (i, n) in refs.iter().enumerate() {
        let want = &m.nodes[i];
        assert_eq!(n.id().index(), i, "pre-order position is the id");
        assert_eq!(doc.node(n.id()).id(), n.id());
        assert_eq!(n.parent().map(|p| p.id().index()), want.parent);
        assert_eq!(ids(n.children()), want.children);
        assert_eq!(n.child_element_count(), m.child_elements(i));
        assert_eq!(n.child_elements().count(), m.child_elements(i));
        assert_eq!(n.subtree_size(), m.subtree_size(i));
        let mut desc = Vec::new();
        m.descendant_elements(i, &mut desc);
        assert_eq!(ids(n.descendants()), desc);
        assert_eq!(ids(n.cursor().descendants().map(|c| doc.node(c.id()))), desc);
        let siblings: &[usize] = want.parent.map_or(&[], |p| &m.nodes[p].children);
        let pos = siblings.iter().position(|&s| s == i);
        let next = pos.and_then(|p| siblings.get(p + 1)).copied();
        let prev = pos.and_then(|p| p.checked_sub(1)).map(|p| siblings[p]);
        assert_eq!(n.following_sibling().map(|s| s.id().index()), next);
        assert_eq!(n.preceding_sibling().map(|s| s.id().index()), prev);
        let kind = match n.kind() {
            NodeKind::Element { name, attrs } => Kind::Element {
                name: name.as_str().to_string(),
                attrs: attrs
                    .iter()
                    .map(|(k, v)| (k.as_str().to_string(), v.as_str().to_string()))
                    .collect(),
            },
            NodeKind::Text(a) => Kind::Text(a.clone()),
            NodeKind::Comment(c) => Kind::Comment(c.to_string()),
            NodeKind::Pi { target, data } => Kind::Pi(target.to_string(), data.to_string()),
        };
        assert_eq!(kind, want.kind);
        if let Kind::Element { name, attrs } = &want.kind {
            assert_eq!(n.name(), Some(name.as_str()));
            for (k, _) in attrs {
                // By name, the first of a repeated name.
                let first = attrs.iter().find(|(k2, _)| k2 == k).map(|(_, v)| v.as_str());
                assert_eq!(n.attr(k), first);
            }
            assert_eq!(n.attr("absent"), None);
            let named: Vec<usize> = want
                .children
                .iter()
                .copied()
                .filter(|&c| matches!(&m.nodes[c].kind, Kind::Element { name: n2, .. } if n2 == name))
                .collect();
            if let Some(p) = n.parent() {
                let among: Vec<usize> = ids(p.children_named(name));
                assert!(among.contains(&i));
            }
            assert_eq!(ids(n.children_named(name)), named);
        }
        let (got, want_v) = (n.typed_value(), m.typed_value(i));
        assert_eq!(got.atomic_type(), want_v.atomic_type());
        assert_eq!(got.lexical(), want_v.lexical());
        // Read in place unless it is text of several nodes, and then the
        // same value.
        let concatenated = match want.children.as_slice() {
            [] => false,
            [only] => !matches!(m.nodes[*only].kind, Kind::Text(_)),
            _ => true,
        };
        let stored = n.cursor().typed_value_ref();
        assert_eq!(stored.is_none(), concatenated, "node {}", i);
        if let Some(stored) = stored {
            assert_eq!(stored.atomic_type(), got.atomic_type());
            assert_eq!(stored.lexical(), got.lexical());
        }
        let mut text = String::new();
        m.text(i, &mut text);
        assert_eq!(n.text(), text);
        let mut printed = String::new();
        m.print(i, &mut printed);
        assert_eq!(to_string(n), printed);
    }
}

/// Replay a model into a fresh builder of exactly its size.
fn rebuild(m: &Model) -> DocumentBuilder {
    fn fill(b: &mut DocumentBuilder, m: &Model, id: usize) {
        for &c in &m.nodes[id].children {
            match &m.nodes[c].kind {
                Kind::Element { name, attrs } => {
                    b.start_element(name);
                    for (k, v) in attrs {
                        b.attr(k, v);
                    }
                    fill(b, m, c);
                    b.end_element();
                }
                Kind::Text(a) => {
                    b.text(a.clone());
                }
                Kind::Comment(t) => {
                    b.comment(t);
                }
                Kind::Pi(t, d) => {
                    b.pi(t, d);
                }
            }
        }
    }
    let Kind::Element { name, attrs } = &m.nodes[0].kind else {
        panic!("the root is an element");
    };
    let mut b = DocumentBuilder::with_capacity(name, m.nodes.len());
    for (k, v) in attrs {
        b.attr(k, v);
    }
    fill(&mut b, m, 0);
    b
}

#[test]
fn arena_agrees_with_a_vec_of_children_model() {
    eprintln!("arena_model: sweep seed {:#x}", SWEEP_SEED);
    sweep(320, |rng| {
        // A donor, left unfinished for `copy_from` and finished (on a
        // clone of its steps) for `copy_subtree`.
        let mut donor = Pair::new("donor", 1);
        for _ in 0..rng.below(25) {
            donor.step(rng, None);
        }
        let donated = rebuild(&donor.m).finish();
        compare(&donated, &donor.m);
        let donor = (donor, preorder(&donated));

        let mut p = Pair::new("root", 1 + rng.below(40));
        let whole = (p.b.mark(), p.m.mark());
        for _ in 0..10 + rng.below(60) {
            p.step(rng, Some(&donor));
        }
        // Everything but the root is "since" the first mark, whatever
        // was rolled back in between; then `finish` with whatever is
        // still open.
        p.check_since(&whole.0, &whole.1);
        let Pair { b, m, reparses, .. } = p;
        let doc = b.finish();
        compare(&doc, &m);

        // Equality: the same tree rebuilt is deep-equal node for node,
        // and two random nodes are equal exactly when the model says so.
        let again = rebuild(&m).finish();
        assert!(doc.root().deep_eq(&again.root()));
        assert_eq!(to_string(&doc.root()), to_string(&again.root()));
        let (nodes, twins) = (preorder(&doc), preorder(&again));
        for _ in 0..8 {
            let (i, j) = (rng.below(m.nodes.len()), rng.below(donor.0.m.nodes.len()));
            assert_eq!(
                nodes[i].deep_eq(&donor.1[j]),
                m.deep_eq(i, &donor.0.m, j),
                "deep_eq of node {} and donor node {}",
                i,
                j
            );
            let k = rng.below(m.nodes.len());
            assert_eq!(nodes[i].deep_eq(&twins[k]), m.deep_eq(i, &m, k));
        }

        // print ∘ parse ∘ print is print, where parsing can tell.
        if reparses {
            let printed = to_string(&doc.root());
            let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{}: {}", e, printed));
            assert_eq!(to_string(&reparsed.root()), printed);
        }

        // The donor's children appended behind this document's: in place
        // as copying each under the root would.
        let mut grown = (*doc).clone();
        grown.append_children(&donated);
        let mut with = m.clone();
        with.open = vec![0];
        for &c in &donor.0.m.nodes[0].children {
            with.copy(&donor.0.m, c);
        }
        compare(&Arc::new(grown), &with);

        // The donor's own builder, read while unfinished above.
        let (Pair { b, m, .. }, _) = donor;
        compare(&b.finish(), &m);
    });
}

#[test]
fn an_open_element_prints_the_children_it_has_so_far() {
    let mut b = DocumentBuilder::new("r");
    let m = b.mark();
    b.leaf("done", Atomic::Int(1));
    b.start_element("open");
    b.attr("k", "v");
    b.leaf("x", Atomic::Int(2));
    b.start_element("deeper");
    b.text_str("t");
    // Two elements are open below the mark here.
    assert_eq!(b.roots_since(&m).len(), 2);
    let mut all = String::new();
    b.serialize_since(&m, &mut all);
    assert_eq!(all, "<done>1</done><open k=\"v\"><x>2</x><deeper>t</deeper></open>");
    let mut one = String::new();
    b.serialize_node_into(b.roots_since(&m)[1], &mut one);
    assert_eq!(one, "<open k=\"v\"><x>2</x><deeper>t</deeper></open>");
    // An open element with nothing in it yet is empty so far.
    b.start_element("fresh");
    let mut all = String::new();
    b.serialize_since(&m, &mut all);
    assert!(all.ends_with("<deeper>t<fresh/></deeper></open>"), "{}", all);
}

#[test]
fn rollback_inside_an_open_element_then_more_appends() {
    let mut b = DocumentBuilder::new("r");
    b.start_element("group");
    b.leaf("kept", Atomic::Int(1));
    let m = b.mark();
    b.start_element("spec");
    b.attr("a", "1");
    b.start_element("left-open");
    b.rollback(&m);
    assert_eq!(b.depth(), 2);
    b.attr("late", "x");
    b.leaf("after", Atomic::Int(2));
    // A second speculative run from the same mark.
    let m2 = b.mark();
    b.leaf("dup", Atomic::Int(3));
    b.rollback(&m2);
    b.end_element();
    b.leaf("tail", Atomic::Null);
    let doc = b.finish();
    assert_eq!(
        to_string(&doc.root()),
        "<r><group late=\"x\"><kept>1</kept><after>2</after></group><tail/></r>"
    );
    let group = doc.root().child("group").unwrap();
    assert_eq!(group.child_element_count(), 2);
    assert_eq!(doc.root().child_element_count(), 2);
    assert_eq!(doc.len(), 7);
}

#[test]
fn finish_closes_every_open_element() {
    let mut b = DocumentBuilder::new("r");
    b.start_element("a");
    b.start_element("b");
    b.text_str("t");
    b.start_element("c");
    let doc = b.finish();
    assert_eq!(to_string(&doc.root()), "<r><a><b>t<c/></b></a></r>");
    let a = doc.root().child("a").unwrap();
    assert_eq!(a.subtree_size(), 4);
    assert_eq!(a.following_sibling().map(|n| n.id()), None);
    assert_eq!(doc.root().descendants().count(), 3);
}
