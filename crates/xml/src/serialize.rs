//! Serialization of documents back to XML text.

use crate::atomic::Atomic;
use crate::intern::Sym;
use crate::node::{Cursor, NodeKind, NodeRef};
use std::fmt::Write;

/// Serialize a subtree to compact XML (no added whitespace).
pub fn to_string(node: &NodeRef) -> String {
    let mut out = String::new();
    write_compact(&mut out, node.cursor());
    // Doubling leaves up to half the buffer unused, and callers keep
    // answers (a cache, a client's batch): hand the slack back.
    out.shrink_to_fit();
    out
}

/// Serialize a subtree with two-space indentation, one element per line.
/// Mixed content (elements with text siblings) is kept inline so text is
/// not distorted.
pub fn to_string_pretty(node: &NodeRef) -> String {
    let mut out = String::new();
    write_node(&mut out, node.cursor(), Some(2), 0);
    out
}

/// Append the compact form of the subtree at `node` — what
/// [`to_string`] returns, for any arena a cursor can walk (a builder's
/// unfinished one included).
pub(crate) fn write_compact(out: &mut String, node: Cursor<'_>) {
    write_node(out, node, None, 0);
}

fn write_node(out: &mut String, node: Cursor<'_>, indent: Option<usize>, depth: usize) {
    match node.kind() {
        NodeKind::Element { name, attrs } => {
            if let Some(w) = indent {
                if depth > 0 {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * depth));
                }
            }
            let name = name.as_str();
            out.push('<');
            out.push_str(name);
            for (k, v) in attrs {
                out.push(' ');
                out.push_str(k.as_str());
                out.push_str("=\"");
                escape_attr_into(out, v.as_str());
                out.push('"');
            }
            if node.first_child().is_none() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            // Only indentation cares whether the content is mixed.
            let child_indent = indent.filter(|_| {
                !node
                    .children()
                    .any(|c| matches!(c.kind(), NodeKind::Text(_)))
            });
            for c in node.children() {
                write_node(out, c, child_indent, depth + 1);
            }
            if let Some(w) = child_indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
        NodeKind::Text(a) => match a {
            Atomic::Str(s) => escape_text_into(out, s),
            Atomic::Sym(s) => escape_text_into(out, s.as_str()),
            other => other.lexical_into(out),
        },
        NodeKind::Comment(c) => {
            let _ = write!(out, "<!--{}-->", c);
        }
        NodeKind::Pi { target, data } => {
            if data.is_empty() {
                let _ = write!(out, "<?{}?>", target);
            } else {
                let _ = write!(out, "<?{} {}?>", target, data);
            }
        }
    }
}

/// Escape text content: `<`, `>`, `&`.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(&mut out, s);
    out
}

/// Append escaped text content to `out` without an intermediate
/// allocation.
pub fn escape_text_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

/// Escape an attribute value for double-quoted output.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_attr_into(&mut out, s);
    out
}

/// Append an escaped attribute value to `out` without an intermediate
/// allocation.
pub fn escape_attr_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// Push-style streaming XML writer.
///
/// Produces output **byte-identical** to [`to_string`] over the
/// equivalent built document, without materializing the tree: elements
/// with no content self-close (`<a/>`), escaping matches
/// [`escape_text`]/[`escape_attr`], and no whitespace is added. The
/// streaming construct path (`core::construct`) emits result documents
/// through this instead of `DocumentBuilder` + `to_string`.
///
/// Speculative rendering: [`mark`](Self::mark) checkpoints the output so
/// a candidate run can be rendered, inspected
/// ([`since`](Self::since)), and undone ([`rollback`](Self::rollback))
/// for duplicate elimination.
pub struct XmlWriter {
    out: String,
    /// Open elements: interned name plus whether the start tag has been
    /// closed with `>` (it stays open until the first child arrives so
    /// childless elements can self-close).
    stack: Vec<(Sym, bool)>,
}

/// Checkpoint of an [`XmlWriter`]'s output position; see
/// [`XmlWriter::mark`].
#[derive(Debug, Clone)]
pub struct WriteMark {
    len: usize,
    depth: usize,
    parent_closed: bool,
}

impl XmlWriter {
    /// Start a document whose root element has the given name.
    pub fn new(root_name: &str) -> XmlWriter {
        XmlWriter::new_sym(Sym::intern(root_name))
    }

    /// Start a document by interned root name.
    pub fn new_sym(root_name: Sym) -> XmlWriter {
        XmlWriter::sized(root_name, 0)
    }

    /// [`new`](Self::new) with a buffer of `bytes`, for a caller that
    /// knows how long the document will be: a document of exactly that
    /// length is written, and [`finish`](Self::finish)ed, in one block.
    pub fn with_capacity(root_name: &str, bytes: usize) -> XmlWriter {
        XmlWriter::sized(Sym::intern(root_name), bytes)
    }

    fn sized(root_name: Sym, bytes: usize) -> XmlWriter {
        let mut w = XmlWriter {
            out: String::with_capacity(bytes),
            stack: Vec::new(),
        };
        w.open_tag(root_name);
        w
    }

    fn open_tag(&mut self, name: Sym) {
        self.out.push('<');
        self.out.push_str(name.as_str());
        self.stack.push((name, false));
    }

    /// Close the innermost start tag with `>` if the element is about to
    /// receive content.
    fn seal(&mut self) {
        if let Some((_, closed)) = self.stack.last_mut() {
            if !*closed {
                *closed = true;
                self.out.push('>');
            }
        }
    }

    /// Open a child element.
    pub fn start_element(&mut self, name: &str) {
        self.start_element_sym(Sym::intern(name));
    }

    /// Open a child element by interned name.
    pub fn start_element_sym(&mut self, name: Sym) {
        self.seal();
        self.open_tag(name);
    }

    /// Add an attribute to the innermost open element. Must precede any
    /// content of that element (panics otherwise — attribute-after-child
    /// is a construction bug, not data-dependent).
    pub fn attr(&mut self, name: &str, value: &str) {
        let sealed = self.stack.last().map(|(_, c)| *c).unwrap_or(true);
        assert!(!sealed, "attr after element content");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        escape_attr_into(&mut self.out, value);
        self.out.push('"');
    }

    /// Append escaped text content.
    pub fn text_str(&mut self, s: &str) {
        self.seal();
        escape_text_into(&mut self.out, s);
    }

    /// Explicitly close the innermost start tag (normally done lazily
    /// by the first child). Streaming construct seals its scratch root
    /// up front so recorded child offsets never include the `>`.
    pub fn seal_start_tag(&mut self) {
        self.seal();
    }

    /// Append pre-serialized XML verbatim as content of the innermost
    /// open element. The caller vouches that `xml` is well-formed
    /// serialized content (streaming construct's deduplicated runs come
    /// from another `XmlWriter`).
    pub fn raw(&mut self, xml: &str) {
        self.seal();
        self.out.push_str(xml);
    }

    /// Append a typed atomic as text content (numerics skip escaping —
    /// their lexical forms cannot contain markup).
    pub fn text_atomic(&mut self, a: &Atomic) {
        match a {
            Atomic::Null => {}
            Atomic::Bool(b) => {
                self.seal();
                let _ = write!(self.out, "{}", b);
            }
            Atomic::Int(i) => {
                self.seal();
                let _ = write!(self.out, "{}", i);
            }
            Atomic::Float(_) => {
                self.seal();
                a.lexical_into(&mut self.out);
            }
            Atomic::Str(s) => self.text_str(s),
            Atomic::Sym(s) => self.text_str(s.as_str()),
        }
    }

    /// Copy an existing subtree into the stream (compact form, identical
    /// to [`to_string`] of that subtree).
    pub fn write_node(&mut self, node: &NodeRef) {
        self.seal();
        write_compact(&mut self.out, node.cursor());
    }

    /// Close the innermost open element (self-closing when empty).
    /// Panics on attempts to close the root (closed by
    /// [`finish`](Self::finish)).
    pub fn end_element(&mut self) {
        assert!(self.stack.len() > 1, "end_element would close the document root");
        self.close_top();
    }

    fn close_top(&mut self) {
        if let Some((name, closed)) = self.stack.pop() {
            if closed {
                self.out.push_str("</");
                self.out.push_str(name.as_str());
                self.out.push('>');
            } else {
                self.out.push_str("/>");
            }
        }
    }

    /// Checkpoint the output position for speculative rendering.
    pub fn mark(&self) -> WriteMark {
        WriteMark {
            len: self.out.len(),
            depth: self.stack.len(),
            parent_closed: self.stack.last().map(|(_, c)| *c).unwrap_or(true),
        }
    }

    /// The bytes emitted since `mark` (the duplicate-elimination key for
    /// a speculatively-rendered run).
    pub fn since<'a>(&'a self, mark: &WriteMark) -> &'a str {
        &self.out[mark.len..]
    }

    /// Discard everything emitted since `mark`. All elements opened
    /// after the mark must have been closed again.
    pub fn rollback(&mut self, mark: &WriteMark) {
        assert!(self.stack.len() == mark.depth, "rollback across open elements");
        self.out.truncate(mark.len);
        if let Some((_, closed)) = self.stack.last_mut() {
            *closed = mark.parent_closed;
        }
    }

    /// Bytes emitted so far (diagnostics).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when nothing beyond the root's start tag has been emitted.
    pub fn is_empty(&self) -> bool {
        self.stack.len() == 1 && !self.stack[0].1
    }

    /// Close all open elements and return the document text.
    pub fn finish(mut self) -> String {
        while !self.stack.is_empty() {
            self.close_top();
        }
        // As in `to_string`: the caller keeps this.
        self.out.shrink_to_fit();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn escaping_roundtrips() {
        let doc = parse("<a x=\"q&quot;u&amp;o\">a &lt; b &amp; c</a>").unwrap();
        let text = to_string(&doc.root());
        let doc2 = parse(&text).unwrap();
        assert!(doc.root().deep_eq(&doc2.root()));
    }

    #[test]
    fn pretty_printing_indents_elements() {
        let doc = parse("<a><b><c/></b><d/></a>").unwrap();
        let pretty = to_string_pretty(&doc.root());
        assert_eq!(pretty, "<a>\n  <b>\n    <c/>\n  </b>\n  <d/>\n</a>");
    }

    #[test]
    fn pretty_printing_keeps_mixed_content_inline() {
        let doc = parse("<p>hello <b>world</b>!</p>").unwrap();
        let pretty = to_string_pretty(&doc.root());
        assert_eq!(pretty, "<p>hello <b>world</b>!</p>");
    }

    #[test]
    fn empty_elements_self_close() {
        let doc = parse("<a><b></b></a>").unwrap();
        assert_eq!(to_string(&doc.root()), "<a><b/></a>");
    }

    #[test]
    fn writer_matches_tree_serialization() {
        use crate::build::DocumentBuilder;
        use crate::Atomic;
        let mut b = DocumentBuilder::new("db");
        b.start_element("book");
        b.attr("year", "19\"99");
        b.leaf("title", Atomic::Str("Data < & Web".into()));
        b.leaf("n", Atomic::Int(7));
        b.start_element("empty");
        b.end_element();
        b.end_element();
        let tree = to_string(&b.finish().root());

        let mut w = XmlWriter::new("db");
        w.start_element("book");
        w.attr("year", "19\"99");
        w.start_element("title");
        w.text_atomic(&Atomic::Str("Data < & Web".into()));
        w.end_element();
        w.start_element("n");
        w.text_atomic(&Atomic::Int(7));
        w.end_element();
        w.start_element("empty");
        w.end_element();
        w.end_element();
        assert_eq!(w.finish(), tree);
    }

    #[test]
    fn writer_subtree_copy_matches() {
        let doc = parse("<a><b x='1'>t<!--c--></b><p/></a>").unwrap();
        let mut w = XmlWriter::new("out");
        for c in doc.root().children() {
            w.write_node(&c);
        }
        assert_eq!(
            w.finish(),
            format!(
                "<out>{}</out>",
                doc.root().children().map(|c| to_string(&c)).collect::<String>()
            )
        );
    }

    #[test]
    fn writer_mark_rollback() {
        let mut w = XmlWriter::new("r");
        w.start_element("keep");
        w.end_element();
        let m = w.mark();
        w.start_element("spec");
        w.text_str("x");
        w.end_element();
        assert_eq!(w.since(&m), "<spec>x</spec>");
        w.rollback(&m);
        assert_eq!(w.finish(), "<r><keep/></r>");
    }

    #[test]
    fn writer_rollback_of_first_child_restores_self_close() {
        let mut w = XmlWriter::new("r");
        let m = w.mark();
        w.start_element("spec");
        w.end_element();
        w.rollback(&m);
        assert_eq!(w.finish(), "<r/>");
    }
}
