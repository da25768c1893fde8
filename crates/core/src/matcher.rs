//! Tree-pattern matching: XML-QL patterns against documents, producing
//! variable bindings.
//!
//! This is the mediator's central piece of machinery: both native XML
//! sources and the `<rows>` results of pushed-down fragments become
//! binding tuples through the same matcher, which is what lets "XML as
//! the unifying model" actually unify heterogeneous sources.

use crate::error::CoreError;
use crate::planner::Probe;
use nimble_algebra::expr::coerce_num;
use nimble_algebra::inspect::{OpInfo, OrderEffect, SchemaRule};
use nimble_algebra::ops::Operator;
use nimble_algebra::{ExecError, LineageMask, LiteralTest, Schema, Tuple};
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
/// no value at the probe's path passes the probe's [`LiteralTest`]. Each
/// value is read as [`match_element`] would bind it — the typed value of
/// the content, where it is stored, or [`Atomic::infer`] of an attribute.
///
/// A probe on a join variable ([`Probe::joined`]) rules a candidate out
/// only on values that are numbers, and only while every literal of its
/// test, as bound for this serve, is one: a value another unit joins to
/// a number (`typed_key`-equal) coerces to the same `f64`, so it
/// compares with a number the same way. Any other value keeps its
/// candidate.
pub struct CandidateFilter {
    probes: Vec<CandidateProbe>,
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
    test: LiteralTest,
    /// Whether only a value that is a number can rule the candidate out.
    numbers_only: bool,
}

impl CandidateFilter {
    /// The filter for `probes`, each with its conjunct compiled for a
    /// one-column row. A join-variable probe with a literal that is not
    /// a number is left out. Names are looked up here, per serve: one a
    /// document interns later is found then.
    pub fn new<'a>(probes: impl IntoIterator<Item = (&'a Probe, LiteralTest)>) -> Self {
        let probes = probes
            .into_iter()
            .filter(|(probe, test)| !probe.joined || test.number_literals())
            .map(|(probe, test)| CandidateProbe {
                path: probe.path.iter().map(|step| Sym::find(step)).collect(),
                attr: probe.attr.as_deref().map(Sym::find),
                test,
                numbers_only: probe.joined,
            })
            .collect();
        CandidateFilter {
            probes,
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
        let admitted = self.probes.iter().all(|p| p.finds(candidate, &p.path));
        self.pruned += u64::from(!admitted);
        admitted
    }
}

impl CandidateProbe {
    /// Whether some node at `path` under `node` holds a value that keeps
    /// the candidate.
    fn finds(&self, node: Cursor<'_>, path: &[Option<Sym>]) -> bool {
        let Some((step, rest)) = path.split_first() else {
            return match self.attr {
                None => match node.typed_value_ref() {
                    Some(value) => self.keeps(value),
                    None => self.keeps(&node.typed_value()),
                },
                Some(name) => node
                    .attrs()
                    .iter()
                    .find(|(k, _)| Some(*k) == name)
                    .is_some_and(|(_, v)| self.keeps(&Atomic::infer(v.as_str()))),
            };
        };
        step.is_some() && node.children().any(|c| c.name_sym() == *step && self.finds(c, rest))
    }

    /// Whether `value` passes the test, or is not a number where only a
    /// number can rule the candidate out.
    fn keeps(&self, value: &Atomic) -> bool {
        (self.numbers_only && coerce_num(value).is_none_or(f64::is_nan)) || self.test.test_value(value)
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

/// The variables `pattern` binds, each once, in order.
pub(crate) fn dedup_vars(pattern: &Pattern) -> Vec<String> {
    let mut out = Vec::new();
    for v in pattern.bound_vars() {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Physical operator for dependent atoms: for each input tuple, match a
/// pattern inside the element bound to `on_var`, emitting one extended
/// tuple per match. Variables already present in the input schema act as
/// join constraints instead of new columns. A batch expands every row of
/// each child batch it pulls, so it may overshoot `max` by their
/// fan-out, as the hash probe does.
pub struct BindPatternOp {
    child: Box<dyn Operator>,
    on_col: usize,
    pattern: Pattern,
    /// New variables appended to the schema, in order.
    new_vars: Vec<String>,
    /// Variables shared with the input schema: (name, input column).
    shared: Vec<(String, usize)>,
    schema: Schema,
    scratch: Vec<Tuple>,
    rows_out: u64,
    /// Lineage of emitted tuples (tracking iff the child tracks); every
    /// row expanded from one input tuple inherits that tuple's mask —
    /// navigation stays inside the element the source already supplied.
    lin: Option<Vec<LineageMask>>,
    /// Child emissions consumed so far.
    consumed: usize,
}

impl BindPatternOp {
    pub fn new(child: Box<dyn Operator>, on_var: &str, pattern: Pattern) -> Result<Self, CoreError> {
        let on_col = child.schema().index_of(on_var).ok_or_else(|| {
            CoreError::Exec(format!(
                "navigation variable ${} not bound before use",
                on_var
            ))
        })?;
        let mut new_vars = Vec::new();
        let mut shared = Vec::new();
        for v in dedup_vars(&pattern) {
            match child.schema().index_of(&v) {
                Some(idx) => shared.push((v, idx)),
                None => new_vars.push(v),
            }
        }
        let mut schema = child.schema().clone();
        for v in &new_vars {
            schema = schema.with(v);
        }
        Ok(BindPatternOp {
            child,
            on_col,
            pattern,
            new_vars,
            shared,
            schema,
            scratch: Vec::new(),
            rows_out: 0,
            lin: None,
            consumed: 0,
        })
    }

    /// Append `tuple`'s expansions to `out`; returns how many.
    fn expand(&self, tuple: &Tuple, out: &mut Vec<Tuple>) -> usize {
        let Value::Node(node) = &tuple[self.on_col] else {
            return 0;
        };
        let matches: Vec<Bindings> = match_within(node, &self.pattern);
        let before = out.len();
        'matches: for mut m in matches {
            for (var, idx) in &self.shared {
                match m.get(var) {
                    Some(v) if v.key_eq(&tuple[*idx]) => {}
                    _ => continue 'matches,
                }
            }
            let mut t = tuple.clone();
            // `new_vars` are distinct: each value moves out of the match.
            for var in &self.new_vars {
                t.push(m.remove(var).unwrap_or_else(Value::null));
            }
            out.push(t);
        }
        out.len() - before
    }
}

impl Operator for BindPatternOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.rows_out = 0;
        self.consumed = 0;
        self.child.open()?;
        self.lin = self.child.lineage().map(|_| Vec::new());
        Ok(())
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let mut appended = 0;
        while appended < max {
            self.scratch.clear();
            let pulled = self.child.next_batch(&mut self.scratch, max - appended)?;
            if pulled == 0 {
                break;
            }
            for (i, t) in self.scratch.iter().enumerate() {
                let n = self.expand(t, out);
                appended += n;
                if let Some(lin) = &mut self.lin {
                    let masks = self.child.lineage().unwrap_or_default();
                    let mask = masks.get(self.consumed + i).copied().unwrap_or_default();
                    lin.resize(lin.len() + n, mask);
                }
            }
            self.consumed += pulled;
        }
        self.rows_out += appended as u64;
        Ok(appended)
    }

    fn close(&mut self) {
        self.child.close();
        self.scratch = Vec::new();
    }

    fn describe(&self) -> String {
        format!(
            "BindPattern in ${} -> [{}]",
            self.schema.vars()[self.on_col],
            self.new_vars.join(", ")
        )
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        OpInfo::new("BindPattern", SchemaRule::Extends(0))
            .with_order(OrderEffect::Preserves(0))
            .with_child_col(0, "bind-pattern input", self.on_col)
    }

    fn lineage(&self) -> Option<&[LineageMask]> {
        self.lin.as_deref()
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

    #[test]
    fn bind_pattern_answers_alike_at_every_batch_size() {
        // Each book binds one row per author, so input rows expand to
        // two, one and three rows; every row keeps its book's mask.
        let doc = nimble_xml::parse(
            "<bib><book><author>a</author><author>b</author></book>\
             <book><author>c</author></book>\
             <book><author>d</author><author>e</author><author>f</author></book></bib>",
        )
        .unwrap();
        let books: Vec<Tuple> = doc.root().children_named("book").map(|b| vec![Value::Node(b)]).collect();
        let masks: Vec<LineageMask> = (0..books.len() as u32).map(LineageMask::single).collect();
        let pattern = pattern_of(r#"WHERE <author>$a</author> IN $b CONSTRUCT <o/>"#);
        let drain = |batch: usize| {
            let scan = nimble_algebra::ops::ValuesOp::new(Schema::new(vec!["b".into()]), books.clone())
                .with_lineage_masks(masks.clone());
            let mut op = BindPatternOp::new(Box::new(scan), "b", pattern.clone()).unwrap();
            let (rows, _) = nimble_algebra::run_to_vec_batched(&mut op, batch).unwrap();
            let authors: Vec<String> = rows.iter().map(|t| t[1].atomize().lexical()).collect();
            assert_eq!(op.rows_out(), rows.len() as u64);
            (authors, op.lineage().unwrap().to_vec())
        };
        let (authors, lineage) = drain(1);
        assert_eq!(authors, ["a", "b", "c", "d", "e", "f"]);
        let book = LineageMask::single;
        assert_eq!(lineage, [book(0), book(0), book(1), book(2), book(2), book(2)]);
        assert_eq!(drain(1024), (authors, lineage));
    }
}
