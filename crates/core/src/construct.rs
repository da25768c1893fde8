//! CONSTRUCT: turning binding tuples into result documents.
//!
//! Results are rooted at a synthetic `<results>` element whose children
//! are one instantiation of the CONSTRUCT template per binding tuple —
//! or one per *group* when the template carries a Skolem `ID=F($k…)`
//! attribute, in which case content accumulates across the group's
//! tuples (duplicate children produced by different tuples of the same
//! group are emitted once, in first-production order).
//!
//! The template is compiled against the answer's schema once, before
//! the first row ([`Template`]): every `$var` becomes a column and every
//! name and literal is resolved once. A variable the schema lacks raises
//! its error only when a row reaches it, so an empty answer is
//! `<results/>`. Two renderers read the compiled template: the streaming
//! [`XmlWriter`] one and the [`DocumentBuilder`] one that views,
//! refreshes and nested subqueries use.
//!
//! Nested subqueries are delegated to the engine through a callback so
//! this module stays independent of execution.

use crate::error::CoreError;
use nimble_algebra::{LineageMask, Schema, Tuple};
use nimble_xml::{Atomic, Document, DocumentBuilder, Sym, Value, XmlWriter};
use nimble_xmlql::ast::{AggName, ElementTemplate, Query, TemplateNode, TemplateValue};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Callback that evaluates a nested subquery under one outer tuple and
/// appends its constructed elements to the builder.
pub type SubqueryEval<'a> =
    dyn FnMut(&Query, &Schema, &Tuple, &mut DocumentBuilder) -> Result<(), CoreError> + 'a;

/// Build the result document for a query's tuples.
pub fn build_result_document(
    template: &ElementTemplate,
    schema: &Schema,
    tuples: &[Tuple],
    eval_subquery: &mut SubqueryEval<'_>,
) -> Result<Arc<Document>, CoreError> {
    let mut b = DocumentBuilder::new("results");
    append_instances_traced(&mut b, template, schema, tuples, eval_subquery, None)?;
    Ok(b.finish())
}

/// Per-answer lineage plumbing for [`append_instances_traced`]: one
/// mask per input tuple in, one OR-folded mask per produced top-level
/// answer out. The accumulator is a shared cell because the engine's
/// subquery callback also merges into the answer *currently being
/// rendered* (always the last pushed — masks are pushed before the
/// instance renders).
pub struct LineageSink<'a> {
    /// One mask per tuple of `tuples`, same order (shorter slices read
    /// as empty masks — defensive, never expected).
    pub tuple_masks: &'a [LineageMask],
    /// Receives one mask per appended answer, in document order.
    pub answers: &'a RefCell<Vec<LineageMask>>,
}

/// Append template instances for a tuple set into an open builder
/// (shared by the root call and nested subqueries). With `sink`, each
/// appended top-level answer's mask (the union of its producing tuples'
/// masks — one tuple plainly, a whole group under a Skolem ID) is pushed
/// into the sink *before* the answer renders, so nested-subquery lineage
/// can merge in during rendering.
pub fn append_instances_traced(
    b: &mut DocumentBuilder,
    template: &ElementTemplate,
    schema: &Schema,
    tuples: &[Tuple],
    eval_subquery: &mut SubqueryEval<'_>,
    sink: Option<LineageSink<'_>>,
) -> Result<(), CoreError> {
    let mut out = Tree {
        b,
        eval: eval_subquery,
        schema,
        aside: None,
    };
    Template::compile(template, schema).render(&mut out, tuples, sink)
}

/// True when the template nests a subquery anywhere — such templates
/// must render through the tree path (the builder-based
/// [`append_instances_traced`]) because subquery evaluation appends
/// into a `DocumentBuilder`.
pub fn template_has_subquery(template: &ElementTemplate) -> bool {
    fn any(children: &[TemplateNode]) -> bool {
        children.iter().any(|c| match c {
            TemplateNode::Subquery(_) => true,
            TemplateNode::Element(e) => any(&e.children),
            _ => false,
        })
    }
    any(&template.children)
}

/// Streaming twin of [`append_instances_traced`]: renders straight into
/// an [`XmlWriter`] without building a `Document` tree. Byte-identical
/// to serializing the tree path's output compactly. Only valid for
/// templates without nested subqueries
/// ([`template_has_subquery`] == false); hitting one is an internal
/// error, not a fallback.
pub fn append_instances_stream(
    w: &mut XmlWriter,
    template: &ElementTemplate,
    schema: &Schema,
    tuples: &[Tuple],
    sink: Option<LineageSink<'_>>,
) -> Result<(), CoreError> {
    let mut out = Stream {
        w,
        depth: 0,
        bounds: None,
        aside: None,
    };
    Template::compile(template, schema).render(&mut out, tuples, sink)
}

/// A CONSTRUCT template compiled against one answer's schema.
struct Template<'q> {
    root: Element<'q>,
    /// The Skolem `ID=F(…)` arguments, when the template groups.
    skolem: Option<Vec<Slot<'q>>>,
}

struct Element<'q> {
    tag: Lit<'q>,
    attrs: Vec<(Lit<'q>, Attr<'q>)>,
    children: Vec<Node<'q>>,
}

/// A name or literal of the template: its text for the writer, its
/// symbol for the builder.
struct Lit<'q> {
    text: &'q str,
    sym: Sym,
}

enum Attr<'q> {
    Lit(Lit<'q>),
    Var(Slot<'q>),
}

enum Node<'q> {
    Element(Element<'q>),
    Text(Lit<'q>),
    Var(Slot<'q>),
    Subquery(&'q Query),
    Agg(AggName, Option<Slot<'q>>),
}

/// A variable resolved against the schema: its column, or the error a
/// row that reaches it raises.
#[derive(Clone, Copy)]
enum Slot<'q> {
    Col(usize),
    Unbound { what: &'static str, var: &'q str },
}

impl<'q> Lit<'q> {
    fn new(text: &'q str) -> Self {
        Lit {
            text,
            sym: Sym::intern(text),
        }
    }
}

impl<'q> Slot<'q> {
    fn new(schema: &Schema, var: &'q str, what: &'static str) -> Self {
        schema
            .index_of(var)
            .map_or(Slot::Unbound { what, var }, Slot::Col)
    }

    fn read(self, tuple: &Tuple) -> Result<&Value, CoreError> {
        match self {
            Slot::Col(c) => Ok(&tuple[c]),
            Slot::Unbound { what, var } => {
                Err(CoreError::Exec(format!("{} ${} not bound", what, var)))
            }
        }
    }
}

impl<'q> Template<'q> {
    fn compile(template: &'q ElementTemplate, schema: &Schema) -> Self {
        let skolem = template.skolem.as_ref().map(|sk| {
            sk.args
                .iter()
                .map(|v| Slot::new(schema, v, "Skolem argument"))
                .collect()
        });
        Template {
            root: Self::element(template, schema),
            skolem,
        }
    }

    fn element(e: &'q ElementTemplate, schema: &Schema) -> Element<'q> {
        let attrs = e
            .attrs
            .iter()
            .map(|(name, value)| {
                let value = match value {
                    TemplateValue::Lit(s) => Attr::Lit(Lit::new(s)),
                    TemplateValue::Var(v) => Attr::Var(Slot::new(schema, v, "template variable")),
                };
                (Lit::new(name), value)
            })
            .collect();
        let children = e
            .children
            .iter()
            .map(|c| match c {
                TemplateNode::Element(e) => Node::Element(Self::element(e, schema)),
                TemplateNode::Text(s) => Node::Text(Lit::new(s)),
                TemplateNode::Var(v) => Node::Var(Slot::new(schema, v, "template variable")),
                TemplateNode::Subquery(q) => Node::Subquery(q),
                TemplateNode::Agg { func, var } => Node::Agg(
                    *func,
                    var.as_deref()
                        .map(|v| Slot::new(schema, v, "aggregate argument")),
                ),
            })
            .collect();
        Element {
            tag: Lit::new(&e.tag),
            attrs,
            children,
        }
    }

    /// One instance per tuple, or per Skolem group.
    fn render(
        &self,
        out: &mut impl Out,
        tuples: &[Tuple],
        sink: Option<LineageSink<'_>>,
    ) -> Result<(), CoreError> {
        // Each answer's mask is pushed before it renders: its tuple's, or
        // the union of its group's — including members whose rendered
        // children dedup away.
        let push = |members: &[usize]| {
            if let Some(s) = &sink {
                let mut mask = LineageMask::EMPTY;
                for &i in members {
                    mask.merge(s.tuple_masks.get(i).copied().unwrap_or_default());
                }
                s.answers.borrow_mut().push(mask);
            }
        };
        let Some(args) = &self.skolem else {
            for (i, t) in tuples.iter().enumerate() {
                push(&[i]);
                element(out, &self.root, t, None)?;
            }
            return Ok(());
        };
        let (order, groups) = group_by_skolem(args, tuples)?;
        let mut seen: HashSet<u128> = HashSet::new();
        for key in &order {
            let member_idx = &groups[key.as_str()];
            let members: Vec<&Tuple> = member_idx.iter().map(|&i| &tuples[i]).collect();
            push(member_idx);
            out.open(&self.root, members[0])?;
            // Children accumulate across the group; duplicates
            // (serialized identically) are emitted once.
            seen.clear();
            for t in &members {
                out.member(&self.root.children, t, &members, &mut seen)?;
            }
            out.close();
        }
        Ok(())
    }
}

/// Where a compiled template renders.
trait Out {
    /// Open `e` and write its attributes from `tuple`.
    fn open(&mut self, e: &Element<'_>, tuple: &Tuple) -> Result<(), CoreError>;
    fn close(&mut self);
    fn text(&mut self, t: &Lit<'_>);
    /// Splice a bound value into element content: nodes are copied,
    /// lists splice each item, atomics become text (nulls vanish).
    fn splice(&mut self, value: &Value);
    fn subquery(&mut self, q: &Query, tuple: &Tuple) -> Result<(), CoreError>;
    /// Render one Skolem group member's `children` aside and keep those
    /// whose serialized form `seen` does not hold yet.
    fn member(
        &mut self,
        children: &[Node<'_>],
        tuple: &Tuple,
        group: &[&Tuple],
        seen: &mut HashSet<u128>,
    ) -> Result<(), CoreError>;
}

fn element(
    out: &mut impl Out,
    e: &Element<'_>,
    tuple: &Tuple,
    group: Option<&[&Tuple]>,
) -> Result<(), CoreError> {
    out.open(e, tuple)?;
    children(out, &e.children, tuple, group)?;
    out.close();
    Ok(())
}

fn children(
    out: &mut impl Out,
    children: &[Node<'_>],
    tuple: &Tuple,
    group: Option<&[&Tuple]>,
) -> Result<(), CoreError> {
    for child in children {
        match child {
            Node::Element(e) => element(out, e, tuple, group)?,
            Node::Text(t) => out.text(t),
            Node::Var(slot) => out.splice(slot.read(tuple)?),
            Node::Subquery(q) => out.subquery(q, tuple)?,
            Node::Agg(func, arg) => {
                let members = group.ok_or_else(|| {
                    CoreError::Exec(
                        "aggregates in CONSTRUCT require a Skolem-grouped \
                         element (e.g. <r ID=F($k)>…sum($v)…</r>)"
                            .to_string(),
                    )
                })?;
                out.splice(&compute_agg(*func, *arg, members)?);
            }
        }
    }
    Ok(())
}

/// The streaming renderer.
struct Stream<'w> {
    w: &'w mut XmlWriter,
    /// Elements this renderer has open: a group member's children are
    /// the ones produced at depth 0.
    depth: usize,
    /// With bounds, the writer position is recorded before every child
    /// produced at depth 0 (element, text run, spliced node or atomic,
    /// each list item) so a Skolem group can slice and deduplicate the
    /// runs as the tree renderer deduplicates child nodes.
    bounds: Option<&'w mut Vec<usize>>,
    /// The scratch writer and bounds group members render into; its root
    /// is sealed up front so recorded offsets never include the `>`.
    aside: Option<(XmlWriter, Vec<usize>)>,
}

impl Stream<'_> {
    fn boundary(&mut self) {
        if let (0, Some(b)) = (self.depth, self.bounds.as_deref_mut()) {
            b.push(self.w.len());
        }
    }
}

impl Out for Stream<'_> {
    fn open(&mut self, e: &Element<'_>, tuple: &Tuple) -> Result<(), CoreError> {
        self.boundary();
        self.w.start_element(e.tag.text);
        self.depth += 1;
        for (name, value) in &e.attrs {
            match value {
                Attr::Lit(lit) => self.w.attr(name.text, lit.text),
                Attr::Var(slot) => self.w.attr_value(name.text, slot.read(tuple)?),
            }
        }
        Ok(())
    }

    fn close(&mut self) {
        self.depth -= 1;
        self.w.end_element();
    }

    fn text(&mut self, t: &Lit<'_>) {
        self.boundary();
        self.w.text_str(t.text);
    }

    fn splice(&mut self, value: &Value) {
        match value {
            Value::Node(n) => {
                self.boundary();
                self.w.write_node(n);
            }
            Value::List(items) => items.iter().for_each(|item| self.splice(item)),
            Value::Atomic(a) => {
                if !a.is_null() {
                    self.boundary();
                    self.w.text_atomic(a);
                }
            }
        }
    }

    fn subquery(&mut self, _q: &Query, _tuple: &Tuple) -> Result<(), CoreError> {
        Err(CoreError::Exec(
            "internal: nested subquery reached the streaming CONSTRUCT path".to_string(),
        ))
    }

    fn member(
        &mut self,
        nodes: &[Node<'_>],
        tuple: &Tuple,
        group: &[&Tuple],
        seen: &mut HashSet<u128>,
    ) -> Result<(), CoreError> {
        let (sw, bounds) = self.aside.get_or_insert_with(|| {
            let mut sw = XmlWriter::new("scratch");
            sw.seal_start_tag();
            (sw, Vec::new())
        });
        let m = sw.mark();
        let base = sw.len();
        bounds.clear();
        let mut member = Stream {
            w: sw,
            depth: 0,
            bounds: Some(bounds),
            aside: None,
        };
        children(&mut member, nodes, tuple, Some(group))?;
        let rendered = sw.since(&m);
        let end = base + rendered.len();
        for (j, &start) in bounds.iter().enumerate() {
            let stop = bounds.get(j + 1).copied().unwrap_or(end);
            let run = &rendered[start - base..stop - base];
            if seen.insert(fnv1a_128(run.as_bytes())) {
                self.w.raw(run);
            }
        }
        sw.rollback(&m);
        Ok(())
    }
}

/// The builder renderer.
struct Tree<'b, 'e, 's> {
    b: &'b mut DocumentBuilder,
    eval: &'e mut SubqueryEval<'s>,
    schema: &'b Schema,
    /// The scratch builder and serialization buffer group members render
    /// into, reused across every member of every group: marks roll the
    /// arena back after each member's children have been hashed and
    /// (first occurrence only) copied across.
    aside: Option<(DocumentBuilder, String)>,
}

impl Out for Tree<'_, '_, '_> {
    fn open(&mut self, e: &Element<'_>, tuple: &Tuple) -> Result<(), CoreError> {
        self.b.start_element_sym(e.tag.sym);
        for (name, value) in &e.attrs {
            let value = match value {
                Attr::Lit(lit) => lit.sym,
                Attr::Var(slot) => match slot.read(tuple)? {
                    Value::Atomic(Atomic::Sym(s)) => *s,
                    v => Sym::intern(&v.lexical()),
                },
            };
            self.b.attr_sym(name.sym, value);
        }
        Ok(())
    }

    fn close(&mut self) {
        self.b.end_element();
    }

    fn text(&mut self, t: &Lit<'_>) {
        self.b.text(Atomic::Sym(t.sym));
    }

    fn splice(&mut self, value: &Value) {
        match value {
            Value::Node(n) => self.b.copy_subtree(n),
            Value::List(items) => items.iter().for_each(|item| self.splice(item)),
            Value::Atomic(a) => {
                if !a.is_null() {
                    self.b.text(a.clone());
                }
            }
        }
    }

    fn subquery(&mut self, q: &Query, tuple: &Tuple) -> Result<(), CoreError> {
        (self.eval)(q, self.schema, tuple, self.b)
    }

    fn member(
        &mut self,
        nodes: &[Node<'_>],
        tuple: &Tuple,
        group: &[&Tuple],
        seen: &mut HashSet<u128>,
    ) -> Result<(), CoreError> {
        let (scratch, ser) = self
            .aside
            .get_or_insert_with(|| (DocumentBuilder::new("scratch"), String::new()));
        let m = scratch.mark();
        let mut member = Tree {
            b: scratch,
            eval: &mut *self.eval,
            schema: self.schema,
            aside: None,
        };
        children(&mut member, nodes, tuple, Some(group))?;
        // The dedup key is a 128-bit FNV-1a of the serialized child, not
        // the serialized string itself.
        for child in scratch.roots_since(&m) {
            ser.clear();
            scratch.serialize_node_into(child, ser);
            if seen.insert(fnv1a_128(ser.as_bytes())) {
                self.b.copy_from(scratch, child);
            }
        }
        scratch.rollback(&m);
        Ok(())
    }
}

/// Group tuple indices by the Skolem arguments, preserving first-seen
/// order. Members are *indices* so group lineage can be folded from the
/// same positions.
///
/// The key encodes each argument as a class tag plus, for a value, its
/// length-prefixed lexical form: `n` for null, `v<len>:<text>` for
/// anything else. So null and `""` are different groups, no byte of an
/// argument can shift the boundary to the next one, and values of equal
/// lexical form (`Int 42`, `"42"`) share a group.
fn group_by_skolem(
    args: &[Slot<'_>],
    tuples: &[Tuple],
) -> Result<(Vec<String>, HashMap<String, Vec<usize>>), CoreError> {
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
    // The key is rendered into one reused buffer; it is only cloned out
    // the first time a group appears.
    let mut key_buf = String::new();
    let mut arg_buf = String::new();
    for (i, t) in tuples.iter().enumerate() {
        key_buf.clear();
        for arg in args {
            let v = arg.read(t)?;
            if v.is_null() {
                key_buf.push('n');
                continue;
            }
            arg_buf.clear();
            v.lexical_into(&mut arg_buf);
            // Writing into a `String` cannot fail.
            let _ = write!(key_buf, "v{}:{}", arg_buf.len(), arg_buf);
        }
        if let Some(members) = groups.get_mut(key_buf.as_str()) {
            members.push(i);
        } else {
            order.push(key_buf.clone());
            groups.insert(key_buf.clone(), vec![i]);
        }
    }
    Ok((order, groups))
}

/// 128-bit FNV-1a over the serialized form of a produced child — the
/// duplicate-elimination key for Skolem groups (collisions at 2^-64
/// scale are accepted in exchange for never retaining the strings).
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Compute an aggregate over a group's tuples.
fn compute_agg(
    func: AggName,
    arg: Option<Slot<'_>>,
    members: &[&Tuple],
) -> Result<Value, CoreError> {
    let values: Vec<Value> = match arg {
        None => Vec::new(),
        Some(slot) => members
            .iter()
            .map(|t| slot.read(t).cloned())
            .collect::<Result<_, _>>()?,
    };
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    Ok(match func {
        AggName::Count => {
            let n = if arg.is_none() {
                members.len()
            } else {
                non_null.len()
            };
            Value::from(n as i64)
        }
        AggName::Sum => {
            let mut all_int = true;
            let mut total = 0.0;
            for v in &non_null {
                match v.atomize() {
                    Atomic::Int(i) => total += i as f64,
                    Atomic::Float(f) => {
                        total += f;
                        all_int = false;
                    }
                    a @ (Atomic::Str(_) | Atomic::Sym(_)) => {
                        let s = a.as_str().unwrap_or("");
                        match s.trim().parse::<f64>() {
                            Ok(f) => {
                                total += f;
                                all_int = all_int && f.fract() == 0.0;
                            }
                            Err(_) => {
                                return Err(CoreError::Exec(format!(
                                    "sum over non-numeric value {:?}",
                                    s
                                )))
                            }
                        }
                    }
                    other => {
                        return Err(CoreError::Exec(format!(
                            "sum over non-numeric value {:?}",
                            other
                        )))
                    }
                }
            }
            if all_int {
                Value::from(total as i64)
            } else {
                Value::Atomic(Atomic::Float(total))
            }
        }
        AggName::Min => non_null
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .map(|v| (*v).clone())
            .unwrap_or_else(Value::null),
        AggName::Max => non_null
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .map(|v| (*v).clone())
            .unwrap_or_else(Value::null),
        AggName::Avg => {
            let nums: Vec<f64> = non_null
                .iter()
                .filter_map(|v| v.atomize().as_f64())
                .collect();
            if nums.is_empty() {
                Value::null()
            } else {
                Value::Atomic(Atomic::Float(nums.iter().sum::<f64>() / nums.len() as f64))
            }
        }
        AggName::Collect => Value::List(Arc::new(values)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_xml::to_string as xml_string;

    fn no_subqueries(
    ) -> impl FnMut(&Query, &Schema, &Tuple, &mut DocumentBuilder) -> Result<(), CoreError> {
        |_q, _s, _t, _b| panic!("no subqueries expected in this test")
    }

    fn template_of(text: &str) -> ElementTemplate {
        nimble_xmlql::parse_query(text).unwrap().construct
    }

    #[test]
    fn one_instance_per_tuple() {
        let tpl = template_of(r#"WHERE <a>$x</a> IN "s" CONSTRUCT <out id=$x><v>$x</v></out>"#);
        let schema = Schema::new(vec!["x".into()]);
        let tuples = vec![vec![Value::from(1i64)], vec![Value::from(2i64)]];
        let mut cb = no_subqueries();
        let doc = build_result_document(&tpl, &schema, &tuples, &mut cb).unwrap();
        assert_eq!(
            xml_string(&doc.root()),
            "<results><out id=\"1\"><v>1</v></out><out id=\"2\"><v>2</v></out></results>"
        );
    }

    #[test]
    fn skolem_groups_and_accumulates() {
        let tpl = template_of(
            r#"WHERE <a>$n</a> IN "s"
               CONSTRUCT <person ID=P($n)><name>$n</name><tel>$t</tel></person>"#,
        );
        let schema = Schema::new(vec!["n".into(), "t".into()]);
        let tuples = vec![
            vec![Value::from("ada"), Value::from("111")],
            vec![Value::from("ada"), Value::from("222")],
            vec![Value::from("bob"), Value::from("333")],
        ];
        let mut cb = no_subqueries();
        let doc = build_result_document(&tpl, &schema, &tuples, &mut cb).unwrap();
        assert_eq!(
            xml_string(&doc.root()),
            "<results>\
             <person><name>ada</name><tel>111</tel><tel>222</tel></person>\
             <person><name>bob</name><tel>333</tel></person>\
             </results>"
        );
    }

    #[test]
    fn skolem_keys_keep_their_arguments_apart() {
        // Every split of one text into F($a, $b) is a different pair, so
        // a different group — whatever separator, tag or length bytes the
        // text holds: F("x\u{1}", "y") is not F("x", "\u{1}y"). Equal
        // lexical forms still share a group: Int 42 ≡ "42".
        let tpl = template_of(
            r#"WHERE <a>$a</a> IN "s"
               CONSTRUCT <g ID=F($a, $b)><m>$m</m></g>"#,
        );
        let schema = Schema::new(vec!["a".into(), "b".into(), "m".into()]);
        let text = "xv\u{1}v1:ny";
        let mut tuples: Vec<Tuple> = (0..=text.len())
            .map(|i| {
                let (a, b) = text.split_at(i);
                vec![Value::from(a), Value::from(b), Value::from(i as i64)]
            })
            .collect();
        for (k, m) in [(Value::from(42i64), 100i64), (Value::from("42"), 101)] {
            tuples.push(vec![k, Value::from("z"), Value::from(m)]);
        }
        let mut cb = no_subqueries();
        let doc = build_result_document(&tpl, &schema, &tuples, &mut cb).unwrap();
        let mut want = String::from("<results>");
        for i in 0..=text.len() {
            want.push_str(&format!("<g><m>{}</m></g>", i));
        }
        want.push_str("<g><m>100</m><m>101</m></g></results>");
        assert_eq!(xml_string(&doc.root()), want);
    }

    #[test]
    fn node_values_are_deep_copied() {
        let src = nimble_xml::parse("<book><title>X</title></book>").unwrap();
        let tpl = template_of(r#"WHERE <a/> ELEMENT_AS $e IN "s" CONSTRUCT <out>$e</out>"#);
        let schema = Schema::new(vec!["e".into()]);
        let tuples = vec![vec![Value::Node(src.root())]];
        let mut cb = no_subqueries();
        let doc = build_result_document(&tpl, &schema, &tuples, &mut cb).unwrap();
        assert_eq!(
            xml_string(&doc.root()),
            "<results><out><book><title>X</title></book></out></results>"
        );
    }

    #[test]
    fn null_atomics_vanish() {
        let tpl = template_of(r#"WHERE <a>$x</a> IN "s" CONSTRUCT <out>$x</out>"#);
        let schema = Schema::new(vec!["x".into()]);
        let tuples = vec![vec![Value::null()]];
        let mut cb = no_subqueries();
        let doc = build_result_document(&tpl, &schema, &tuples, &mut cb).unwrap();
        assert_eq!(xml_string(&doc.root()), "<results><out/></results>");
    }

    #[test]
    fn literal_text_and_numbers() {
        let tpl = template_of(r#"WHERE <a>$x</a> IN "s" CONSTRUCT <out>"n = " $x</out>"#);
        let schema = Schema::new(vec!["x".into()]);
        let tuples = vec![vec![Value::from(7i64)]];
        let mut cb = no_subqueries();
        let doc = build_result_document(&tpl, &schema, &tuples, &mut cb).unwrap();
        assert_eq!(doc.root().child("out").unwrap().text(), "n = 7");
    }

    #[test]
    fn aggregates_over_skolem_groups() {
        let tpl = template_of(
            r#"WHERE <a>$k</a> IN "s"
               CONSTRUCT <g ID=K($k)><k>$k</k><n>count()</n><s>sum($v)</s>
                         <lo>min($v)</lo><hi>max($v)</hi><m>avg($v)</m></g>"#,
        );
        let schema = Schema::new(vec!["k".into(), "v".into()]);
        let tuples = vec![
            vec![Value::from("a"), Value::from(1i64)],
            vec![Value::from("a"), Value::from(3i64)],
            vec![Value::from("b"), Value::from(10i64)],
        ];
        let mut cb = no_subqueries();
        let doc = build_result_document(&tpl, &schema, &tuples, &mut cb).unwrap();
        assert_eq!(
            xml_string(&doc.root()),
            "<results>\
             <g><k>a</k><n>2</n><s>4</s><lo>1</lo><hi>3</hi><m>2.0</m></g>\
             <g><k>b</k><n>1</n><s>10</s><lo>10</lo><hi>10</hi><m>10.0</m></g>\
             </results>"
        );
    }

    #[test]
    fn aggregate_outside_group_errors() {
        let tpl = template_of(r#"WHERE <a>$x</a> IN "s" CONSTRUCT <o>count()</o>"#);
        let schema = Schema::new(vec!["x".into()]);
        let tuples = vec![vec![Value::from(1i64)]];
        let mut cb = no_subqueries();
        let err = build_result_document(&tpl, &schema, &tuples, &mut cb).unwrap_err();
        assert!(err.to_string().contains("Skolem"), "{}", err);
    }

    #[test]
    fn count_skips_nulls_with_arg_counts_tuples_without() {
        let tpl = template_of(
            r#"WHERE <a>$k</a> IN "s"
               CONSTRUCT <g ID=K($k)><all>count()</all><some>count($v)</some></g>"#,
        );
        let schema = Schema::new(vec!["k".into(), "v".into()]);
        let tuples = vec![
            vec![Value::from("a"), Value::from(1i64)],
            vec![Value::from("a"), Value::null()],
        ];
        let mut cb = no_subqueries();
        let doc = build_result_document(&tpl, &schema, &tuples, &mut cb).unwrap();
        assert_eq!(
            xml_string(&doc.root()),
            "<results><g><all>2</all><some>1</some></g></results>"
        );
    }

    #[test]
    fn an_unbound_variable_fails_only_when_a_row_reaches_it() {
        // The template compiles before the first row; the error waits
        // for one, so an empty answer is an empty document.
        let schema = Schema::new(vec!["y".into()]);
        for text in [
            r#"WHERE <a>$x</a> IN "s" CONSTRUCT <out id=$x>$x</out>"#,
            r#"WHERE <a>$x</a> IN "s" CONSTRUCT <g ID=F($x)><s>sum($y)</s></g>"#,
            r#"WHERE <a>$x</a> IN "s" CONSTRUCT <g ID=F($y)><s>sum($x)</s></g>"#,
        ] {
            let tpl = template_of(text);
            let mut cb = no_subqueries();
            let doc = build_result_document(&tpl, &schema, &[], &mut cb).unwrap();
            assert_eq!(xml_string(&doc.root()), "<results/>", "{}", text);
            let mut w = XmlWriter::new("results");
            append_instances_stream(&mut w, &tpl, &schema, &[], None).unwrap();
            assert_eq!(w.finish(), "<results/>", "{}", text);
        }
        let one = vec![vec![Value::from(1i64)]];
        for (text, want) in [
            (
                r#"WHERE <a>$x</a> IN "s" CONSTRUCT <out>$x</out>"#,
                "template variable $x not bound",
            ),
            (
                r#"WHERE <a>$x</a> IN "s" CONSTRUCT <out id=$x/>"#,
                "template variable $x not bound",
            ),
            (
                r#"WHERE <a>$x</a> IN "s" CONSTRUCT <g ID=F($x)><n>$y</n></g>"#,
                "Skolem argument $x not bound",
            ),
            (
                r#"WHERE <a>$x</a> IN "s" CONSTRUCT <g ID=F($y)><s>sum($x)</s></g>"#,
                "aggregate argument $x not bound",
            ),
        ] {
            let tpl = template_of(text);
            let mut cb = no_subqueries();
            let err = build_result_document(&tpl, &schema, &one, &mut cb).unwrap_err();
            assert_eq!(err, CoreError::Exec(want.to_string()), "{}", text);
            let mut w = XmlWriter::new("results");
            let err = append_instances_stream(&mut w, &tpl, &schema, &one, None).unwrap_err();
            assert_eq!(err, CoreError::Exec(want.to_string()), "{}", text);
        }
    }

    #[test]
    fn unbound_template_var_errors() {
        let tpl = template_of(r#"WHERE <a>$x</a> IN "s" CONSTRUCT <out>$x</out>"#);
        let schema = Schema::new(vec!["y".into()]);
        let tuples = vec![vec![Value::from(1i64)]];
        let mut cb = no_subqueries();
        assert!(build_result_document(&tpl, &schema, &tuples, &mut cb).is_err());
    }
}
