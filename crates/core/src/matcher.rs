//! Tree-pattern matching: XML-QL patterns against documents, producing
//! variable bindings.
//!
//! This is the mediator's central piece of machinery: both native XML
//! sources and the `<rows>` results of pushed-down fragments become
//! binding tuples through the same matcher, which is what lets "XML as
//! the unifying model" actually unify heterogeneous sources.

use crate::planner::Probe;
use nimble_algebra::expr::literal_num;
use nimble_algebra::{FunctionRegistry, ScalarExpr};
use nimble_xml::{Atomic, Cursor, Document, NodeRef, Sym, Value};
use nimble_xmlql::ast::{Pattern, PatternContent, PatternValue, TagPattern};
use std::collections::HashMap;
use std::sync::Arc;

/// One match: variable → bound value.
pub type Bindings = HashMap<String, Value>;

/// Match a pattern against a context element (typically a document
/// root), returning every consistent set of bindings. XML-QL semantics:
/// a pattern denotes *all* ways it embeds into the data; repeated
/// variables join implicitly.
pub fn match_pattern(context: &NodeRef, pattern: &Pattern) -> Vec<Bindings> {
    match_pattern_at(context.document(), context.cursor(), pattern)
}

/// [`match_pattern`] for a caller already walking `doc` by cursor (a
/// shard slice's rows): no owned handle is made per context. `context`
/// must be a cursor of `doc`.
pub fn match_pattern_at(doc: &Arc<Document>, context: Cursor<'_>, pattern: &Pattern) -> Vec<Bindings> {
    let mut out = Vec::new();
    match_each(doc, context, pattern, |_| true, |b| out.push(b));
    out
}

/// [`match_pattern_at`] over the top-level candidates `keep` admits,
/// handing each candidate's bindings to `sink` as soon as that
/// candidate is matched: a caller that turns bindings into tuples never
/// holds a collection's whole match set (a map per binding) beside
/// them, and a candidate a [`CandidateFilter`] rules out is never
/// matched at all.
pub fn match_each(
    doc: &Arc<Document>,
    context: Cursor<'_>,
    pattern: &Pattern,
    mut keep: impl FnMut(Cursor<'_>) -> bool,
    mut sink: impl FnMut(Bindings),
) {
    let mut found = Vec::new();
    for candidate in top_candidates(context, &pattern.tag) {
        if !keep(candidate) {
            continue;
        }
        match_element(doc, candidate, pattern, &Bindings::new(), &mut found);
        found.drain(..).for_each(&mut sink);
    }
}

/// The probes of one atom ([`Probe`], DESIGN.md §22), ready to run on its
/// top-level candidates: a candidate is ruled out when, for some probe,
/// no value at the probe's path passes the probe's conjunct. Each value
/// is read as [`match_element`] would bind it — `typed_value` for
/// content, [`Atomic::infer`] for an attribute — and tested on a
/// one-column row. A test that fails with an error keeps its candidate:
/// the conjunct is still in the Filter, which raises that error from
/// that row.
///
/// A probe on a join variable ([`Probe::joined`]) rules a candidate out
/// only on values that are numbers, and only while every literal of its
/// conjunct, as bound for this serve, is one: a value another unit
/// joins to a number (`typed_key`-equal) coerces to the same `f64`, so
/// it compares with a number the same way. Any other value keeps its
/// candidate.
pub struct CandidateFilter {
    probes: Vec<CandidateProbe>,
    funcs: Arc<FunctionRegistry>,
    /// Candidates tested, and those ruled out.
    pub candidates: u64,
    pub pruned: u64,
}

struct CandidateProbe {
    /// Element names from the candidate down; `None` for a name never
    /// interned, which no element has.
    path: Vec<Option<Sym>>,
    /// The attribute read at the end of the path (`None` inside: a name
    /// no element carries), or the content when absent.
    attr: Option<Option<Sym>>,
    /// The conjunct, over the one column that holds the value.
    test: ScalarExpr,
    /// Whether only a value that is a number can rule the candidate out.
    numbers_only: bool,
}

impl CandidateFilter {
    /// The filter for `probes`, each with its conjunct translated to a
    /// one-column row. A join-variable probe with a literal that is not
    /// a number is left out.
    pub fn new<'a>(probes: impl IntoIterator<Item = (&'a Probe, ScalarExpr)>, funcs: Arc<FunctionRegistry>) -> Self {
        let probes = probes
            .into_iter()
            .filter(|(probe, test)| !probe.joined || numeric_literals(test))
            .map(|(probe, test)| CandidateProbe {
                path: probe.path.iter().map(|step| Sym::find(step)).collect(),
                attr: probe.attr.as_deref().map(Sym::find),
                test,
                numbers_only: probe.joined,
            })
            .collect();
        CandidateFilter {
            probes,
            funcs,
            candidates: 0,
            pruned: 0,
        }
    }

    /// Whether there is anything to test.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Whether `candidate` may match, counted.
    pub fn admits(&mut self, candidate: Cursor<'_>) -> bool {
        if self.probes.is_empty() {
            return true;
        }
        self.candidates += 1;
        let funcs = &self.funcs;
        let admitted = self.probes.iter().all(|p| p.finds(candidate, &p.path, funcs));
        self.pruned += u64::from(!admitted);
        admitted
    }
}

impl CandidateProbe {
    /// Whether some node at `path` under `node` holds a value that passes
    /// or fails the test with an error.
    fn finds(&self, node: Cursor<'_>, path: &[Option<Sym>], funcs: &FunctionRegistry) -> bool {
        let Some((step, rest)) = path.split_first() else {
            let value = Value::Atomic(match self.attr {
                None => node.typed_value(),
                Some(name) => match node.attrs().iter().find(|(k, _)| Some(*k) == name) {
                    Some((_, v)) => Atomic::infer(v.as_str()),
                    None => return false,
                },
            });
            if self.numbers_only && !is_number(&value) {
                return true;
            }
            return !matches!(self.test.eval_bool(std::slice::from_ref(&value), funcs), Ok(false));
        };
        step.is_some() && node.children().any(|c| c.name_sym() == *step && self.finds(c, rest, funcs))
    }
}

/// Whether `v` coerces to a number that is not NaN, as `compare` reads it.
fn is_number(v: &Value) -> bool {
    literal_num(v).is_some_and(|x| !x.is_nan())
}

/// Whether every literal of a join-variable probe's test is a number
/// ([`is_number`]). The planner admits only comparisons of the one
/// column with literals under `AND`/`OR`/`NOT`; anything else is not
/// read as numbers.
fn numeric_literals(test: &ScalarExpr) -> bool {
    match test {
        ScalarExpr::Col(_) => true,
        ScalarExpr::Lit(v) => is_number(v),
        ScalarExpr::Cmp(_, l, r) | ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
            numeric_literals(l) && numeric_literals(r)
        }
        ScalarExpr::Not(e) => numeric_literals(e),
        _ => false,
    }
}

/// Match a pattern against the *children* of a context element — the
/// shape used by `IN $var` navigation, where the bound element is the
/// container.
pub fn match_within(context: &NodeRef, pattern: &Pattern) -> Vec<Bindings> {
    let mut out = Vec::new();
    for candidate in child_candidates(context.cursor(), &pattern.tag) {
        match_element(context.document(), candidate, pattern, &Bindings::new(), &mut out);
    }
    out
}

/// Candidates for a top-level pattern: the root itself (if the tag
/// admits it) plus, for descendant tags, every matching descendant. As a
/// usability affordance — queries are written against conceptual
/// collections, not physical wrappers — a top-level `Name` tag that does
/// not match the root also tries the root's children (e.g. pattern
/// `<row>…` against a `<rows>` result document).
///
/// Candidates are borrowed cursors: enumerating them touches no
/// reference count, and only a node a pattern binds (`ELEMENT_AS`)
/// becomes an owned `NodeRef`.
fn top_candidates<'a>(context: Cursor<'a>, tag: &TagPattern) -> Vec<Cursor<'a>> {
    match tag {
        TagPattern::Name(n) => {
            if context.name() == Some(n.as_str()) {
                vec![context]
            } else {
                context.children_named(n).collect()
            }
        }
        TagPattern::Wildcard => vec![context],
        TagPattern::Descendant(n) => {
            let mut v = Vec::new();
            if context.name() == Some(n.as_str()) {
                v.push(context);
            }
            v.extend(descendants_named(context, n));
            v
        }
        TagPattern::ClosurePlus(n) => closure_candidates(context, n),
    }
}

/// Candidates among the children of `parent` for a nested pattern tag.
fn child_candidates<'a>(parent: Cursor<'a>, tag: &TagPattern) -> Vec<Cursor<'a>> {
    match tag {
        TagPattern::Name(n) => parent.children_named(n).collect(),
        TagPattern::Wildcard => parent.child_elements().collect(),
        TagPattern::Descendant(n) => descendants_named(parent, n).collect(),
        TagPattern::ClosurePlus(n) => closure_candidates(parent, n),
    }
}

fn descendants_named<'a>(node: Cursor<'a>, name: &str) -> impl Iterator<Item = Cursor<'a>> {
    // A name never interned names no element.
    let needle = Sym::find(name);
    node.descendants()
        .filter(move |d| needle.is_some() && d.name_sym() == needle)
}

/// `name+`: elements reachable from `parent` by one or more steps, each
/// step descending into a child element named `name`.
fn closure_candidates<'a>(parent: Cursor<'a>, name: &str) -> Vec<Cursor<'a>> {
    let mut out = Vec::new();
    let mut frontier: Vec<Cursor<'a>> = parent.children_named(name).collect();
    while let Some(node) = frontier.pop() {
        frontier.extend(node.children_named(name));
        out.push(node);
    }
    // Stable order: document order.
    out.sort_by_key(|c| c.id());
    out
}

/// Try to match `pattern` exactly at `element`, extending `inherited`
/// bindings; push every consistent completion into `out`.
fn match_element(
    doc: &Arc<Document>,
    element: Cursor<'_>,
    pattern: &Pattern,
    inherited: &Bindings,
    out: &mut Vec<Bindings>,
) {
    let mut bindings = inherited.clone();

    // Attributes.
    for ap in &pattern.attrs {
        let actual = match element.attr(&ap.name) {
            Some(v) => Atomic::infer(v),
            None => return,
        };
        match &ap.value {
            PatternValue::Lit(lit) => {
                if !actual.key_eq(lit) {
                    return;
                }
            }
            PatternValue::Var(v) => {
                if !bind(&mut bindings, v, Value::Atomic(actual)) {
                    return;
                }
            }
        }
    }

    // ELEMENT_AS / CONTENT_AS.
    if let Some(v) = &pattern.element_as {
        if !bind(&mut bindings, v, Value::Node(doc.node(element.id()))) {
            return;
        }
    }
    if let Some(v) = &pattern.content_as {
        if !bind(&mut bindings, v, Value::Atomic(element.typed_value())) {
            return;
        }
    }

    // Content items combine multiplicatively: each item yields a set of
    // candidate binding extensions; the element matches with the cross
    // product of consistent choices.
    let mut partials: Vec<Bindings> = vec![bindings];
    for item in &pattern.content {
        let mut next: Vec<Bindings> = Vec::new();
        match item {
            PatternContent::Var(v) => {
                let value = Value::Atomic(element.typed_value());
                for p in &partials {
                    let mut b = p.clone();
                    if bind(&mut b, v, value.clone()) {
                        next.push(b);
                    }
                }
            }
            PatternContent::Lit(lit) => {
                if element.typed_value().key_eq(lit) {
                    next = partials.clone();
                }
            }
            PatternContent::Nested(sub) => {
                let candidates = child_candidates(element, &sub.tag);
                for p in &partials {
                    for &cand in &candidates {
                        match_element(doc, cand, sub, p, &mut next);
                    }
                }
            }
        }
        partials = next;
        if partials.is_empty() {
            return;
        }
    }
    out.extend(partials);
}

/// Add a binding, enforcing consistency for repeated variables
/// (implicit join).
fn bind(bindings: &mut Bindings, var: &str, value: Value) -> bool {
    match bindings.get(var) {
        Some(existing) => existing.key_eq(&value),
        None => {
            bindings.insert(var.to_string(), value);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_xml::parse;
    use nimble_xmlql::ast::{Condition, Query};

    /// Parse a query and pull out the first pattern for matcher tests.
    fn pattern_of(query_text: &str) -> Pattern {
        let q: Query = nimble_xmlql::parse_query(query_text).unwrap();
        match q.conditions.into_iter().next().unwrap() {
            Condition::Pattern(pb) => pb.pattern,
            other => panic!("{:?}", other),
        }
    }

    const BIB: &str = "<bib>\
        <book year='1999'><title>Web Data</title><author><last>Abiteboul</last></author><author><last>Buneman</last></author></book>\
        <book year='2001'><title>Integration</title><author><last>Halevy</last></author></book>\
    </bib>";

    #[test]
    fn basic_bindings_and_multiplicity() {
        let doc = parse(BIB).unwrap();
        let p = pattern_of(
            r#"WHERE <bib><book year=$y><title>$t</title><author><last>$l</last></author></book></bib> IN "x" CONSTRUCT <o/>"#,
        );
        let ms = match_pattern(&doc.root(), &p);
        // Two authors on book 1, one on book 2 → 3 bindings.
        assert_eq!(ms.len(), 3);
        let mut pairs: Vec<(String, String)> = ms
            .iter()
            .map(|b| (b["t"].lexical(), b["l"].lexical()))
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                ("Integration".to_string(), "Halevy".to_string()),
                ("Web Data".to_string(), "Abiteboul".to_string()),
                ("Web Data".to_string(), "Buneman".to_string()),
            ]
        );
        // Attribute values are typed.
        assert!(ms.iter().any(|b| b["y"] == Value::from(1999i64)));
    }

    #[test]
    fn literal_content_constrains() {
        let doc = parse(BIB).unwrap();
        let p = pattern_of(
            r#"WHERE <bib><book year=$y><title>"Integration"</title></book></bib> IN "x" CONSTRUCT <o/>"#,
        );
        let ms = match_pattern(&doc.root(), &p);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0]["y"], Value::from(2001i64));
    }

    #[test]
    fn literal_attribute_constrains() {
        let doc = parse(BIB).unwrap();
        let p = pattern_of(
            r#"WHERE <bib><book year=1999><title>$t</title></book></bib> IN "x" CONSTRUCT <o/>"#,
        );
        let ms = match_pattern(&doc.root(), &p);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0]["t"].lexical(), "Web Data");
    }

    #[test]
    fn element_as_binds_node() {
        let doc = parse(BIB).unwrap();
        let p = pattern_of(
            r#"WHERE <bib><book/> ELEMENT_AS $b</bib> IN "x" CONSTRUCT <o/>"#,
        );
        let ms = match_pattern(&doc.root(), &p);
        assert_eq!(ms.len(), 2);
        match &ms[0]["b"] {
            Value::Node(n) => assert_eq!(n.name(), Some("book")),
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn repeated_variable_is_implicit_join() {
        let doc = parse(
            "<db><a><k>1</k><v>x</v></a><a><k>2</k><v>y</v></a><b><k>2</k><w>z</w></b></db>",
        )
        .unwrap();
        let p = pattern_of(
            r#"WHERE <db><a><k>$k</k><v>$v</v></a><b><k>$k</k><w>$w</w></b></db> IN "x" CONSTRUCT <o/>"#,
        );
        let ms = match_pattern(&doc.root(), &p);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0]["v"].lexical(), "y");
        assert_eq!(ms[0]["w"].lexical(), "z");
    }

    #[test]
    fn descendant_tag() {
        let doc = parse("<r><x><deep><leaf>1</leaf></deep></x><leaf>2</leaf></r>").unwrap();
        let p = pattern_of(r#"WHERE <r><**leaf>$v</></r> IN "x" CONSTRUCT <o/>"#);
        let ms = match_pattern(&doc.root(), &p);
        let mut vals: Vec<String> = ms.iter().map(|b| b["v"].lexical()).collect();
        vals.sort();
        assert_eq!(vals, vec!["1", "2"]);
    }

    #[test]
    fn closure_plus_recursion() {
        let doc = parse(
            "<parts><part id='1'><part id='2'><part id='3'/></part></part></parts>",
        )
        .unwrap();
        let p = pattern_of(r#"WHERE <parts><part+ id=$i></></parts> IN "x" CONSTRUCT <o/>"#);
        let ms = match_pattern(&doc.root(), &p);
        let mut ids: Vec<String> = ms.iter().map(|b| b["i"].lexical()).collect();
        ids.sort();
        assert_eq!(ids, vec!["1", "2", "3"]);
    }

    #[test]
    fn wildcard_tag() {
        let doc = parse("<r><a>1</a><b>2</b></r>").unwrap();
        let p = pattern_of(r#"WHERE <r><*>$v</> ELEMENT_AS $e</r> IN "x" CONSTRUCT <o/>"#);
        let ms = match_pattern(&doc.root(), &p);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn rows_affordance_matches_row_children() {
        // A `<row>` pattern against a `<rows>` document matches rows.
        let doc = parse("<rows><row><id>1</id></row><row><id>2</id></row></rows>").unwrap();
        let p = pattern_of(r#"WHERE <row><id>$i</id></row> IN "x" CONSTRUCT <o/>"#);
        let ms = match_pattern(&doc.root(), &p);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn match_within_navigates_bound_element() {
        let doc = parse(BIB).unwrap();
        let book = doc.root().child("book").unwrap();
        let p = pattern_of(r#"WHERE <author><last>$l</last></author> IN $b CONSTRUCT <o/>"#);
        let ms = match_within(&book, &p);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn missing_attribute_fails_match() {
        let doc = parse("<r><a x='1'/><a/></r>").unwrap();
        let p = pattern_of(r#"WHERE <r><a x=$x/></r> IN "q" CONSTRUCT <o/>"#);
        let ms = match_pattern(&doc.root(), &p);
        assert_eq!(ms.len(), 1);
    }
}
