//! CONSTRUCT: turning binding tuples into result documents.
//!
//! Results are rooted at a synthetic `<results>` element whose children
//! are one instantiation of the CONSTRUCT template per binding tuple —
//! or one per *group* when the template carries a Skolem `ID=F($k…)`
//! attribute, in which case content accumulates across the group's
//! tuples (duplicate children produced by different tuples of the same
//! group are emitted once, in first-production order).
//!
//! Nested subqueries are delegated to the engine through a callback so
//! this module stays independent of execution.

use crate::error::CoreError;
use nimble_algebra::{LineageMask, Schema, Tuple};
use nimble_xml::{Atomic, Document, DocumentBuilder, Value, XmlWriter};
use nimble_xmlql::ast::{
    AggName, ElementTemplate, Query, SkolemId, TemplateNode, TemplateValue,
};
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
    append_instances(&mut b, template, schema, tuples, eval_subquery)?;
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
/// (shared by the root call and nested subqueries).
pub fn append_instances(
    b: &mut DocumentBuilder,
    template: &ElementTemplate,
    schema: &Schema,
    tuples: &[Tuple],
    eval_subquery: &mut SubqueryEval<'_>,
) -> Result<(), CoreError> {
    append_instances_traced(b, template, schema, tuples, eval_subquery, None)
}

/// [`append_instances`] with optional per-answer lineage: when `sink`
/// is given, each appended top-level answer's mask (the union of its
/// producing tuples' masks — one tuple plainly, a whole group under a
/// Skolem ID) is pushed into the sink *before* the answer renders, so
/// nested-subquery lineage can merge in during rendering.
pub fn append_instances_traced(
    b: &mut DocumentBuilder,
    template: &ElementTemplate,
    schema: &Schema,
    tuples: &[Tuple],
    eval_subquery: &mut SubqueryEval<'_>,
    sink: Option<LineageSink<'_>>,
) -> Result<(), CoreError> {
    match &template.skolem {
        None => {
            for (i, t) in tuples.iter().enumerate() {
                if let Some(s) = &sink {
                    let mask = s.tuple_masks.get(i).copied().unwrap_or_default();
                    s.answers.borrow_mut().push(mask);
                }
                instantiate_element(b, template, schema, t, None, eval_subquery)?;
            }
        }
        Some(sk) => {
            let (order, groups) = group_by_skolem(sk, schema, tuples)?;
            // One scratch builder and one serialization buffer are
            // reused across every member of every group: marks roll the
            // arena back after each member's children have been hashed
            // and (first occurrence only) copied across, so steady-state
            // rendering touches the allocator only for novel content.
            let mut scratch = DocumentBuilder::new("scratch");
            let mut ser_buf = String::new();
            let mut seen: HashSet<u128> = HashSet::new();
            for key in &order {
                let member_idx = &groups[key.as_str()];
                let members: Vec<&Tuple> =
                    member_idx.iter().map(|&i| &tuples[i]).collect();
                if let Some(s) = &sink {
                    // A grouped answer derives from every member tuple,
                    // including ones whose rendered children dedup away.
                    let mut mask = LineageMask::EMPTY;
                    for &i in member_idx {
                        mask.merge(s.tuple_masks.get(i).copied().unwrap_or_default());
                    }
                    s.answers.borrow_mut().push(mask);
                }
                let first = members[0];
                b.start_element(&template.tag);
                for (name, value) in &template.attrs {
                    b.attr(name, &template_attr_value(value, schema, first)?);
                }
                // Children accumulate across the group; duplicates
                // (serialized identically) are emitted once. The dedup
                // key is a 128-bit FNV-1a of the serialized child, not
                // the serialized string itself.
                seen.clear();
                for t in &members {
                    let m = scratch.mark();
                    instantiate_children(
                        &mut scratch,
                        &template.children,
                        schema,
                        t,
                        Some(&members),
                        eval_subquery,
                    )?;
                    for child in scratch.roots_since(&m) {
                        ser_buf.clear();
                        scratch.serialize_node_into(child, &mut ser_buf);
                        if seen.insert(fnv1a_128(ser_buf.as_bytes())) {
                            b.copy_from(&scratch, child);
                        }
                    }
                    scratch.rollback(&m);
                }
                b.end_element();
            }
        }
    }
    Ok(())
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
    sk: &SkolemId,
    schema: &Schema,
    tuples: &[Tuple],
) -> Result<(Vec<String>, HashMap<String, Vec<usize>>), CoreError> {
    let key_cols: Vec<usize> = sk
        .args
        .iter()
        .map(|v| {
            schema
                .index_of(v)
                .ok_or_else(|| CoreError::Exec(format!("Skolem argument ${} not bound", v)))
        })
        .collect::<Result<_, _>>()?;
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
    // The key is rendered into one reused buffer; it is only cloned out
    // the first time a group appears.
    let mut key_buf = String::new();
    let mut arg_buf = String::new();
    for (i, t) in tuples.iter().enumerate() {
        key_buf.clear();
        for &c in &key_cols {
            if t[c].is_null() {
                key_buf.push('n');
                continue;
            }
            arg_buf.clear();
            t[c].lexical_into(&mut arg_buf);
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
    match &template.skolem {
        None => {
            for (i, t) in tuples.iter().enumerate() {
                if let Some(s) = &sink {
                    let mask = s.tuple_masks.get(i).copied().unwrap_or_default();
                    s.answers.borrow_mut().push(mask);
                }
                stream_element(w, template, schema, t, None)?;
            }
        }
        Some(sk) => {
            let (order, groups) = group_by_skolem(sk, schema, tuples)?;
            // Members render speculatively into one reused scratch
            // writer; each produced child's byte range is recorded, and
            // first-seen ranges are replayed verbatim into the output.
            // The scratch root is sealed up front so recorded offsets
            // never include the lazily-written `>`.
            let mut sw = XmlWriter::new("scratch");
            sw.seal_start_tag();
            let mut bounds: Vec<usize> = Vec::new();
            let mut seen: HashSet<u128> = HashSet::new();
            for key in &order {
                let member_idx = &groups[key.as_str()];
                let members: Vec<&Tuple> =
                    member_idx.iter().map(|&i| &tuples[i]).collect();
                if let Some(s) = &sink {
                    let mut mask = LineageMask::EMPTY;
                    for &i in member_idx {
                        mask.merge(s.tuple_masks.get(i).copied().unwrap_or_default());
                    }
                    s.answers.borrow_mut().push(mask);
                }
                let first = members[0];
                w.start_element(&template.tag);
                for (name, value) in &template.attrs {
                    w.attr(name, &template_attr_value(value, schema, first)?);
                }
                seen.clear();
                for t in &members {
                    let m = sw.mark();
                    let base = sw.len();
                    bounds.clear();
                    stream_children(
                        &mut sw,
                        &template.children,
                        schema,
                        t,
                        Some(&members),
                        Some(&mut bounds),
                    )?;
                    {
                        let rendered = sw.since(&m);
                        let end = base + rendered.len();
                        for (j, &start) in bounds.iter().enumerate() {
                            let stop = bounds.get(j + 1).copied().unwrap_or(end);
                            let run = &rendered[start - base..stop - base];
                            if seen.insert(fnv1a_128(run.as_bytes())) {
                                w.raw(run);
                            }
                        }
                    }
                    sw.rollback(&m);
                }
                w.end_element();
            }
        }
    }
    Ok(())
}

fn stream_element(
    w: &mut XmlWriter,
    template: &ElementTemplate,
    schema: &Schema,
    tuple: &Tuple,
    group: Option<&[&Tuple]>,
) -> Result<(), CoreError> {
    w.start_element(&template.tag);
    for (name, value) in &template.attrs {
        w.attr(name, &template_attr_value(value, schema, tuple)?);
    }
    stream_children(w, &template.children, schema, tuple, group, None)?;
    w.end_element();
    Ok(())
}

/// Render template children into the stream. With `bounds`, the writer
/// position is recorded before every produced child (element, text run,
/// spliced node/atomic, each list item) so the caller can slice and
/// deduplicate the runs exactly as the tree path deduplicates child
/// nodes.
fn stream_children(
    w: &mut XmlWriter,
    children: &[TemplateNode],
    schema: &Schema,
    tuple: &Tuple,
    group: Option<&[&Tuple]>,
    mut bounds: Option<&mut Vec<usize>>,
) -> Result<(), CoreError> {
    for child in children {
        match child {
            TemplateNode::Element(e) => {
                if let Some(b) = bounds.as_deref_mut() {
                    b.push(w.len());
                }
                stream_element(w, e, schema, tuple, group)?;
            }
            TemplateNode::Text(s) => {
                if let Some(b) = bounds.as_deref_mut() {
                    b.push(w.len());
                }
                w.text_str(s);
            }
            TemplateNode::Var(v) => {
                stream_splice(w, lookup(schema, tuple, v)?, bounds.as_deref_mut());
            }
            TemplateNode::Subquery(_) => {
                return Err(CoreError::Exec(
                    "internal: nested subquery reached the streaming \
                     CONSTRUCT path"
                        .to_string(),
                ));
            }
            TemplateNode::Agg { func, var } => {
                let members = group.ok_or_else(|| {
                    CoreError::Exec(
                        "aggregates in CONSTRUCT require a Skolem-grouped \
                         element (e.g. <r ID=F($k)>…sum($v)…</r>)"
                            .to_string(),
                    )
                })?;
                let value = compute_agg(*func, var.as_deref(), schema, members)?;
                stream_splice(w, &value, bounds.as_deref_mut());
            }
        }
    }
    Ok(())
}

/// Streaming twin of [`splice_value`]: nodes serialize compactly,
/// lists splice each item, atomics become text (nulls vanish). Each
/// produced run records a boundary when `bounds` is given.
fn stream_splice(w: &mut XmlWriter, value: &Value, mut bounds: Option<&mut Vec<usize>>) {
    match value {
        Value::Node(n) => {
            if let Some(b) = bounds.as_deref_mut() {
                b.push(w.len());
            }
            w.write_node(n);
        }
        Value::List(items) => {
            for item in items.iter() {
                stream_splice(w, item, bounds.as_deref_mut());
            }
        }
        Value::Atomic(a) => {
            if !a.is_null() {
                if let Some(b) = bounds.as_deref_mut() {
                    b.push(w.len());
                }
                w.text_atomic(a);
            }
        }
    }
}

fn instantiate_element(
    b: &mut DocumentBuilder,
    template: &ElementTemplate,
    schema: &Schema,
    tuple: &Tuple,
    group: Option<&[&Tuple]>,
    eval_subquery: &mut SubqueryEval<'_>,
) -> Result<(), CoreError> {
    b.start_element(&template.tag);
    for (name, value) in &template.attrs {
        b.attr(name, &template_attr_value(value, schema, tuple)?);
    }
    instantiate_children(b, &template.children, schema, tuple, group, eval_subquery)?;
    b.end_element();
    Ok(())
}

fn instantiate_children(
    b: &mut DocumentBuilder,
    children: &[TemplateNode],
    schema: &Schema,
    tuple: &Tuple,
    group: Option<&[&Tuple]>,
    eval_subquery: &mut SubqueryEval<'_>,
) -> Result<(), CoreError> {
    for child in children {
        match child {
            TemplateNode::Element(e) => {
                instantiate_element(b, e, schema, tuple, group, eval_subquery)?
            }
            TemplateNode::Text(s) => {
                b.text_str(s);
            }
            TemplateNode::Var(v) => {
                splice_value(b, lookup(schema, tuple, v)?);
            }
            TemplateNode::Subquery(q) => {
                eval_subquery(q, schema, tuple, b)?;
            }
            TemplateNode::Agg { func, var } => {
                let members = group.ok_or_else(|| {
                    CoreError::Exec(
                        "aggregates in CONSTRUCT require a Skolem-grouped \
                         element (e.g. <r ID=F($k)>…sum($v)…</r>)"
                            .to_string(),
                    )
                })?;
                let value = compute_agg(*func, var.as_deref(), schema, members)?;
                splice_value(b, &value);
            }
        }
    }
    Ok(())
}

/// Compute an aggregate over a group's tuples.
fn compute_agg(
    func: AggName,
    var: Option<&str>,
    schema: &Schema,
    members: &[&Tuple],
) -> Result<Value, CoreError> {
    let values: Vec<Value> = match var {
        None => Vec::new(),
        Some(v) => {
            let idx = schema.index_of(v).ok_or_else(|| {
                CoreError::Exec(format!("aggregate argument ${} not bound", v))
            })?;
            members.iter().map(|t| t[idx].clone()).collect()
        }
    };
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    Ok(match func {
        AggName::Count => {
            let n = if var.is_none() {
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
            let nums: Vec<f64> = non_null.iter().filter_map(|v| v.atomize().as_f64()).collect();
            if nums.is_empty() {
                Value::null()
            } else {
                Value::Atomic(Atomic::Float(nums.iter().sum::<f64>() / nums.len() as f64))
            }
        }
        AggName::Collect => Value::List(Arc::new(values)),
    })
}

/// Splice a bound value into element content: nodes are deep-copied,
/// lists splice each item, atomics become typed text (nulls vanish).
fn splice_value(b: &mut DocumentBuilder, value: &Value) {
    match value {
        Value::Node(n) => b.copy_subtree(n),
        Value::List(items) => {
            for item in items.iter() {
                splice_value(b, item);
            }
        }
        Value::Atomic(a) => {
            if !a.is_null() {
                b.text(a.clone());
            }
        }
    }
}

fn template_attr_value(
    value: &TemplateValue,
    schema: &Schema,
    tuple: &Tuple,
) -> Result<String, CoreError> {
    Ok(match value {
        TemplateValue::Lit(s) => s.clone(),
        TemplateValue::Var(v) => lookup(schema, tuple, v)?.lexical(),
    })
}

fn lookup<'a>(schema: &Schema, tuple: &'a Tuple, var: &str) -> Result<&'a Value, CoreError> {
    let idx = schema
        .index_of(var)
        .ok_or_else(|| CoreError::Exec(format!("template variable ${} not bound", var)))?;
    Ok(&tuple[idx])
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
        let tpl =
            template_of(r#"WHERE <a>$x</a> IN "s" CONSTRUCT <out>"n = " $x</out>"#);
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
    fn unbound_template_var_errors() {
        let tpl = template_of(r#"WHERE <a>$x</a> IN "s" CONSTRUCT <out>$x</out>"#);
        let schema = Schema::new(vec!["y".into()]);
        let tuples = vec![vec![Value::from(1i64)]];
        let mut cb = no_subqueries();
        assert!(build_result_document(&tpl, &schema, &tuples, &mut cb).is_err());
    }
}
