//! The fragment compiler: decides which pattern atoms can be executed
//! *inside* a source and builds the [`SourceQuery`] fragments shipped
//! there.
//!
//! "When an XML-QL query is posed to the integration engine it is parsed
//! and broken into multiple fragments based on the target data sources.
//! The compiler translates each fragment into the appropriate query
//! language for the destination source." Pushability here is
//! capability-aware: the compiler asks the adapter what it can do
//! ([`Capabilities`]) and pushes exactly that much — selections,
//! projections, and (for SQL sources) same-source joins — leaving the
//! rest as residual work for the mediator's physical algebra.

use nimble_sources::{
    Capabilities, CollectionRef, FieldRef, PredOp, Selection, SourceQuery,
};
use nimble_xml::Atomic;
use nimble_xmlql::ast::{Expr, Pattern, PatternContent, TagPattern};

/// A pattern recognized as a flat record scan: every bound variable maps
/// to one field of one collection row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowPattern {
    /// `(variable, field)` pairs, in pattern order.
    pub fields: Vec<(String, String)>,
    /// Literal field constraints (`<region>"NW"</region>`), pushed as
    /// equality selections.
    pub eq_selections: Vec<(String, Atomic)>,
}

/// Recognize a pattern as a pushable record scan.
///
/// Accepted shapes (the `<rows><row>…` contract of record sources):
///
/// * `<row><f1>$v1</f1> … </row>`
/// * `<rows><row> … </row></rows>` (explicit wrapper)
/// * any single-wrapper equivalent (`<anything><row>…</row></anything>`)
///
/// Each row child must be a leaf pattern `<field>$var</field>` or
/// `<field>"literal"</field>` with no attributes, binders, or nesting.
/// Anything else (ELEMENT_AS, descendant tags, nested structure) is not
/// record-shaped and falls back to fetch-and-match.
pub fn recognize_row_pattern(pattern: &Pattern) -> Option<RowPattern> {
    recognize_record(unwrap_to_row(pattern)?)
}

/// Recognize `row` itself, whatever its element is named, as a record of
/// the leaf shape [`recognize_row_pattern`] reads inside `<row>`: shard
/// routing reads a partitioned collection's rows by it.
pub(crate) fn recognize_record(row: &Pattern) -> Option<RowPattern> {
    let named = matches!(row.tag, TagPattern::Name(_));
    if !named || !row.attrs.is_empty() || row.element_as.is_some() || row.content_as.is_some() {
        return None;
    }
    let mut fields = Vec::new();
    let mut eq_selections = Vec::new();
    for item in &row.content {
        let leaf = match item {
            PatternContent::Nested(p) => p,
            // Bare content at row level has no field name to push.
            _ => return None,
        };
        let field = match &leaf.tag {
            TagPattern::Name(n) => n.clone(),
            _ => return None,
        };
        if !leaf.attrs.is_empty() || leaf.element_as.is_some() || leaf.content_as.is_some() {
            return None;
        }
        match leaf.content.as_slice() {
            [PatternContent::Var(v)] => fields.push((v.clone(), field)),
            [PatternContent::Lit(a)] => eq_selections.push((field, a.clone())),
            _ => return None,
        }
    }
    if fields.is_empty() && eq_selections.is_empty() {
        return None;
    }
    // A variable bound by two fields (`<a>$x</a><b>$x</b>`) would emit
    // the same output column twice in a fragment; fall back to
    // fetch-and-match, whose matcher enforces the equality natively.
    for (i, (v, _)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(w, _)| w == v) {
            return None;
        }
    }
    Some(RowPattern {
        fields,
        eq_selections,
    })
}

/// Peel at most one wrapper element off the pattern to reach the `row`
/// pattern.
fn unwrap_to_row(pattern: &Pattern) -> Option<&Pattern> {
    if pattern.tag == TagPattern::Name("row".to_string()) {
        return Some(pattern);
    }
    // A wrapper must carry nothing of its own.
    if !pattern.attrs.is_empty() || pattern.element_as.is_some() || pattern.content_as.is_some() {
        return None;
    }
    match pattern.content.as_slice() {
        [PatternContent::Nested(inner)] if inner.tag == TagPattern::Name("row".to_string()) => {
            Some(inner)
        }
        _ => None,
    }
}

/// True when the source can take this row pattern at all.
pub fn pushable(row: &RowPattern, caps: &Capabilities) -> bool {
    if !caps.projections {
        return false;
    }
    if !row.eq_selections.is_empty() && !caps.selections {
        return false;
    }
    true
}

/// Build a single-collection fragment from a recognized row pattern.
/// The fragment's output names are the variable names, so fragment rows
/// convert to binding tuples without a mapping table.
pub fn build_fragment(collection: &str, alias: &str, row: &RowPattern) -> SourceQuery {
    SourceQuery {
        collections: vec![CollectionRef {
            alias: alias.to_string(),
            collection: collection.to_string(),
        }],
        join_conds: Vec::new(),
        selections: row
            .eq_selections
            .iter()
            .map(|(field, value)| Selection {
                field: FieldRef::new(alias, field),
                op: PredOp::Eq,
                value: value.clone(),
            })
            .collect(),
        outputs: row
            .fields
            .iter()
            .map(|(var, field)| (var.clone(), FieldRef::new(alias, field)))
            .collect(),
        limit: None,
        key_sets: Vec::new(),
        after_row: None,
    }
}

/// Merge single-collection fragments of the same source into one joined
/// fragment on their shared variables. Returns `None` when the fragments
/// are not all connected by shared variables (a pushed cartesian product
/// is never a win) or when fewer than two fragments are given.
pub fn merge_fragments(fragments: &[SourceQuery]) -> Option<SourceQuery> {
    if fragments.len() < 2 {
        return None;
    }
    // Re-alias each fragment's single collection as t0, t1, …
    let mut collections = Vec::new();
    let mut selections = Vec::new();
    let mut outputs: Vec<(String, FieldRef)> = Vec::new();
    let mut join_conds = Vec::new();
    // var → first field ref that binds it.
    let mut bound: Vec<(String, FieldRef)> = Vec::new();
    // Pending join conditions per fragment index (fragment i>0 must join
    // with someone earlier).
    for (i, frag) in fragments.iter().enumerate() {
        // Only single-collection fragments whose field refs all use that
        // collection's alias are mergeable; refuse gracefully otherwise
        // (the fragments then execute separately, which is always sound).
        if frag.collections.len() != 1 {
            return None;
        }
        let alias = format!("t{}", i);
        let old_alias = &frag.collections[0].alias;
        let consistent = frag
            .selections
            .iter()
            .map(|s| &s.field)
            .chain(frag.outputs.iter().map(|(_, f)| f))
            .all(|f| &f.alias == old_alias);
        if !consistent {
            return None;
        }
        collections.push(CollectionRef {
            alias: alias.clone(),
            collection: frag.collections[0].collection.clone(),
        });
        let re = |f: &FieldRef| -> FieldRef { FieldRef::new(&alias, &f.field) };
        for s in &frag.selections {
            selections.push(Selection {
                field: re(&s.field),
                op: s.op,
                value: s.value.clone(),
            });
        }
        let mut connected = i == 0;
        for (var, f) in &frag.outputs {
            let here = re(f);
            if let Some((_, earlier)) = bound.iter().find(|(v, _)| v == var) {
                // Shared variable → equi-join condition.
                join_conds.push((earlier.clone(), here.clone()));
                connected = true;
            } else {
                bound.push((var.clone(), here.clone()));
                outputs.push((var.clone(), here));
            }
        }
        if !connected {
            return None;
        }
    }
    // The SQL generator expects join_conds[i-1] to connect collection i;
    // reorder so each collection after the first has one condition that
    // references it.
    let mut ordered_conds = Vec::with_capacity(collections.len() - 1);
    let mut remaining = join_conds;
    for c in collections.iter().skip(1) {
        let pos = remaining
            .iter()
            .position(|(_, r)| r.alias == c.alias)?;
        ordered_conds.push(remaining.remove(pos));
    }
    // Extra join conditions (a variable shared three ways) become
    // selections? No — push them as additional equality join conds is not
    // expressible in the fragment grammar; refuse the merge instead.
    if !remaining.is_empty() {
        return None;
    }
    Some(SourceQuery {
        collections,
        join_conds: ordered_conds,
        selections,
        outputs,
        limit: None,
        key_sets: Vec::new(),
        after_row: None,
    })
}

/// Read a predicate of shape `$var <op> literal` (either orientation)
/// as the selection it would push: the variable, the fragment operator
/// and the literal. `None` for every other shape.
pub fn simple_selection(expr: &Expr) -> Option<(&str, PredOp, &Atomic)> {
    let Expr::Binary(op, l, r) = expr else {
        return None;
    };
    let op = op.cmp_op()?;
    match (l.as_ref(), r.as_ref()) {
        (Expr::Var(v), Expr::Lit(a)) => Some((v, op, a)),
        (Expr::Lit(a), Expr::Var(v)) => Some((v, op.flipped()?, a)),
        _ => None,
    }
}

/// Try to fold a residual predicate of shape `$var <op> literal` into a
/// fragment whose outputs include `$var`. Returns true when consumed.
pub fn push_predicate(fragment: &mut SourceQuery, expr: &Expr, caps: &Capabilities) -> bool {
    if !caps.selections {
        return false;
    }
    let Some((var, op, lit)) = simple_selection(expr) else {
        return false;
    };
    let field = match fragment.outputs.iter().find(|(v, _)| v == var) {
        Some((_, f)) => f.clone(),
        None => return false,
    };
    fragment.selections.push(Selection {
        field,
        op,
        value: lit.clone(),
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_xmlql::ast::{BinOp, Condition};

    fn pattern_of(text: &str) -> Pattern {
        let q = nimble_xmlql::parse_query(text).unwrap();
        match q.conditions.into_iter().next().unwrap() {
            Condition::Pattern(pb) => pb.pattern,
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn recognizes_flat_row_patterns() {
        let p = pattern_of(
            r#"WHERE <row><name>$n</name><region>"NW"</region></row> IN "s" CONSTRUCT <o/>"#,
        );
        let rp = recognize_row_pattern(&p).unwrap();
        assert_eq!(rp.fields, vec![("n".to_string(), "name".to_string())]);
        assert_eq!(rp.eq_selections.len(), 1);

        // Wrapped form.
        let p = pattern_of(
            r#"WHERE <rows><row><id>$i</id></row></rows> IN "s" CONSTRUCT <o/>"#,
        );
        assert!(recognize_row_pattern(&p).is_some());
    }

    #[test]
    fn rejects_structured_patterns() {
        for text in [
            // ELEMENT_AS needs the node itself.
            r#"WHERE <row><a>$x</a></row> ELEMENT_AS $e IN "s" CONSTRUCT <o/>"#,
            // Nested structure below fields.
            r#"WHERE <row><a><b>$x</b></a></row> IN "s" CONSTRUCT <o/>"#,
            // Descendant tag.
            r#"WHERE <row><**a>$x</></row> IN "s" CONSTRUCT <o/>"#,
            // Not row-shaped at all.
            r#"WHERE <bib><book>$x</book></bib> IN "s" CONSTRUCT <o/>"#,
        ] {
            let p = pattern_of(text);
            assert!(recognize_row_pattern(&p).is_none(), "{}", text);
        }
    }

    #[test]
    fn duplicate_field_vars_fall_back() {
        // `$x` bound by two fields is an implicit self-join; a fragment
        // cannot express the duplicate column, so the pattern must fall
        // back to fetch-and-match.
        let p = pattern_of(r#"WHERE <row><a>$x</a><b>$x</b></row> IN "s" CONSTRUCT <o/>"#);
        assert!(recognize_row_pattern(&p).is_none());
    }

    #[test]
    fn merge_refuses_multi_collection_and_inconsistent_fragments() {
        let a = build_fragment(
            "x",
            "t",
            &RowPattern {
                fields: vec![("a".into(), "a".into()), ("k".into(), "k".into())],
                eq_selections: vec![],
            },
        );
        let b = build_fragment(
            "y",
            "t",
            &RowPattern {
                fields: vec![("k".into(), "k".into())],
                eq_selections: vec![],
            },
        );
        // A fragment that is already a join cannot merge again.
        let joined = merge_fragments(&[a.clone(), b.clone()]).unwrap();
        assert!(merge_fragments(&[joined, b.clone()]).is_none());
        // A fragment with an output alias that does not match its
        // collection alias is malformed; the merge refuses it.
        let mut bad = a;
        bad.outputs[0].1 = FieldRef::new("elsewhere", "a");
        assert!(merge_fragments(&[bad, b]).is_none());
    }

    #[test]
    fn fragment_sql_shape() {
        let p = pattern_of(
            r#"WHERE <row><name>$n</name><region>"NW"</region></row> IN "s" CONSTRUCT <o/>"#,
        );
        let rp = recognize_row_pattern(&p).unwrap();
        let frag = build_fragment("customers", "t", &rp);
        assert_eq!(frag.outputs[0].0, "n");
        assert_eq!(frag.selections[0].field.field, "region");
    }

    #[test]
    fn capability_gating() {
        let p = pattern_of(
            r#"WHERE <row><name>$n</name><region>"NW"</region></row> IN "s" CONSTRUCT <o/>"#,
        );
        let rp = recognize_row_pattern(&p).unwrap();
        assert!(pushable(&rp, &Capabilities::full()));
        assert!(!pushable(&rp, &Capabilities::fetch_only()));
        let mut no_sel = Capabilities::full();
        no_sel.selections = false;
        assert!(!pushable(&rp, &no_sel));
        // Without literal selections, projections alone suffice.
        let rp2 = RowPattern {
            fields: vec![("v".into(), "f".into())],
            eq_selections: vec![],
        };
        assert!(pushable(&rp2, &no_sel));
    }

    #[test]
    fn merge_on_shared_variables() {
        let a = build_fragment(
            "customers",
            "t",
            &RowPattern {
                fields: vec![("id".into(), "id".into()), ("n".into(), "name".into())],
                eq_selections: vec![],
            },
        );
        let b = build_fragment(
            "orders",
            "t",
            &RowPattern {
                fields: vec![("id".into(), "cust_id".into()), ("tot".into(), "total".into())],
                eq_selections: vec![],
            },
        );
        let merged = merge_fragments(&[a, b]).unwrap();
        assert_eq!(merged.collections.len(), 2);
        assert_eq!(merged.join_conds.len(), 1);
        let (l, r) = &merged.join_conds[0];
        assert_eq!((l.to_string().as_str(), r.to_string().as_str()), ("t0.id", "t1.cust_id"));
        // Shared var appears once in outputs.
        assert_eq!(
            merged.outputs.iter().filter(|(v, _)| v == "id").count(),
            1
        );
    }

    #[test]
    fn merge_refuses_cartesian() {
        let a = build_fragment(
            "x",
            "t",
            &RowPattern {
                fields: vec![("a".into(), "a".into())],
                eq_selections: vec![],
            },
        );
        let b = build_fragment(
            "y",
            "t",
            &RowPattern {
                fields: vec![("b".into(), "b".into())],
                eq_selections: vec![],
            },
        );
        assert!(merge_fragments(&[a, b]).is_none());
    }

    #[test]
    fn predicate_pushdown() {
        let mut frag = build_fragment(
            "orders",
            "t",
            &RowPattern {
                fields: vec![("tot".into(), "total".into())],
                eq_selections: vec![],
            },
        );
        let expr = Expr::Binary(
            BinOp::Gt,
            Box::new(Expr::Var("tot".into())),
            Box::new(Expr::Lit(Atomic::Int(100))),
        );
        assert!(push_predicate(&mut frag, &expr, &Capabilities::full()));
        assert_eq!(frag.selections.len(), 1);
        assert_eq!(frag.selections[0].op, PredOp::Gt);

        // Flipped orientation: 100 < $tot.
        let expr = Expr::Binary(
            BinOp::Lt,
            Box::new(Expr::Lit(Atomic::Int(100))),
            Box::new(Expr::Var("tot".into())),
        );
        assert!(push_predicate(&mut frag, &expr, &Capabilities::full()));
        assert_eq!(frag.selections[1].op, PredOp::Gt);

        // Unknown variable, non-literal, or capability off → refused.
        let unknown = Expr::Binary(
            BinOp::Gt,
            Box::new(Expr::Var("zzz".into())),
            Box::new(Expr::Lit(Atomic::Int(1))),
        );
        assert!(!push_predicate(&mut frag, &unknown, &Capabilities::full()));
        let expr2 = Expr::Binary(
            BinOp::Gt,
            Box::new(Expr::Var("tot".into())),
            Box::new(Expr::Lit(Atomic::Int(1))),
        );
        assert!(!push_predicate(
            &mut frag,
            &expr2,
            &Capabilities::fetch_only()
        ));
    }
}
