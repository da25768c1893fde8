//! The fragment language: what the mediator pushes to adapters, and the
//! `<rows>` result contract helpers.

use nimble_xml::{Atomic, AtomicKey, AtomicType, Cursor, Document, DocumentBuilder, NodeRef, Sym};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A collection a source exports: a name, typed fields, and a row
/// estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionInfo {
    pub name: String,
    pub fields: Vec<(String, AtomicType)>,
    pub estimated_rows: Option<u64>,
}

/// A collection reference within a fragment, with the alias output
/// fields use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionRef {
    pub alias: String,
    pub collection: String,
}

/// A field of an aliased collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldRef {
    pub alias: String,
    pub field: String,
}

impl FieldRef {
    pub fn new(alias: &str, field: &str) -> FieldRef {
        FieldRef {
            alias: alias.to_string(),
            field: field.to_string(),
        }
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.alias, self.field)
    }
}

/// Predicate operators a fragment may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Like,
}

impl PredOp {
    /// SQL spelling, used by the relational adapter's generator.
    pub fn sql(self) -> &'static str {
        match self {
            PredOp::Eq => "=",
            PredOp::Ne => "<>",
            PredOp::Lt => "<",
            PredOp::Le => "<=",
            PredOp::Gt => ">",
            PredOp::Ge => ">=",
            PredOp::Like => "LIKE",
        }
    }

    /// Evaluate against two atomics (adapters that filter in-process).
    pub fn eval(self, left: &Atomic, right: &Atomic) -> bool {
        use std::cmp::Ordering;
        if self == PredOp::Like {
            return like(&left.lexical(), &right.lexical());
        }
        if left.is_null() || right.is_null() {
            return false;
        }
        let ord = left.total_cmp(right);
        match self {
            PredOp::Eq => ord == Ordering::Equal,
            PredOp::Ne => ord != Ordering::Equal,
            PredOp::Lt => ord == Ordering::Less,
            PredOp::Le => ord != Ordering::Greater,
            PredOp::Gt => ord == Ordering::Greater,
            PredOp::Ge => ord != Ordering::Less,
            PredOp::Like => unreachable!(),
        }
    }
}

fn like(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| rec(&t[k..], rest)),
            Some(('_', rest)) => t.split_first().is_some_and(|(_, tr)| rec(tr, rest)),
            Some((c, rest)) => t
                .split_first()
                .is_some_and(|(tc, tr)| tc == c && rec(tr, rest)),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

/// One pushed selection: `field <op> literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    pub field: FieldRef,
    pub op: PredOp,
    pub value: Atomic,
}

/// A fragment the mediator asks a source to run. Single-collection
/// fragments use one [`CollectionRef`] and no join conditions; sources
/// whose [`crate::Capabilities::joins`] is true may receive several.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceQuery {
    pub collections: Vec<CollectionRef>,
    /// Equi-join conditions between aliased fields (same source only).
    pub join_conds: Vec<(FieldRef, FieldRef)>,
    pub selections: Vec<Selection>,
    /// Output columns: `(output_name, source_field)`. Output names become
    /// the row element names in the result document.
    pub outputs: Vec<(String, FieldRef)>,
    pub limit: Option<usize>,
    /// Key sets: `field IN (keys)`, one list per restricted field, all
    /// ANDed with the selections. The mediator sends one when another
    /// source's answer already says which join keys can contribute
    /// (the bind stage, DESIGN.md §18). Keys are distinct, non-null and
    /// of one coercion class; the list is never empty.
    ///
    /// **Contract: a key set is a hint, never a requirement.** The
    /// mediator still runs the join itself, so an adapter that ignores
    /// `key_sets` returns a superset and the answer is the same. An
    /// adapter that honours one must keep every row whose field
    /// [`Atomic::key_eq`]s some key — dropping such a row loses
    /// answers — and may keep others. Adapters that filter in-process
    /// use [`KeyFilter`]; the relational adapter renders
    /// `alias.field IN (…)`.
    pub key_sets: Vec<(FieldRef, Arc<[Atomic]>)>,
    /// A row floor: `Some(n)` asks for the rows of the fragment's single
    /// collection past its first `n` — base position, before any
    /// selection or key set looks at them — and for a [`Watermark`] on
    /// the answer. `None` is the plain call.
    ///
    /// **Contract: a floor is a requirement, never a hint.** Whoever
    /// sends one appends the answer to what it already holds, so rows
    /// from before the floor would be counted twice. An adapter whose
    /// collections only grow at the end honours the floor and stamps the
    /// answer with the floor it applied and the length it read, taken
    /// under the same lock as the rows; the mediator trusts an answer as
    /// a delta only when the stamp echoes the floor it sent. An adapter
    /// that cannot honour one ignores the field and **never stamps** —
    /// which every adapter that does not know the field does by
    /// construction — and the mediator falls back to a whole answer.
    pub after_row: Option<u64>,
}

/// How far into an append-only collection an answer reaches: rows
/// `from..upto` of the collection as it stood under schema `generation`.
/// Stamped on the answer document ([`RowsBuilder::finish_marked`]) by an
/// adapter that honoured [`SourceQuery::after_row`]; it adds no node,
/// attribute or interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    /// Moves when anything but an append may have happened to the
    /// collection: marks of two generations do not compare.
    pub generation: u64,
    /// The floor the adapter applied — the request's, echoed.
    pub from: u64,
    /// The collection's length when the rows were read.
    pub upto: u64,
}

impl Watermark {
    /// The watermark an answer carries, if its adapter stamped one.
    pub fn of(doc: &Document) -> Option<Watermark> {
        doc.stamp().map(|[generation, from, upto]| Watermark {
            generation,
            from,
            upto,
        })
    }
}

impl SourceQuery {
    /// A single-collection scan of the named fields.
    pub fn scan(collection: &str, outputs: &[(&str, &str)]) -> SourceQuery {
        SourceQuery {
            collections: vec![CollectionRef {
                alias: "t".to_string(),
                collection: collection.to_string(),
            }],
            join_conds: Vec::new(),
            selections: Vec::new(),
            outputs: outputs
                .iter()
                .map(|(out, field)| (out.to_string(), FieldRef::new("t", field)))
                .collect(),
            limit: None,
            key_sets: Vec::new(),
            after_row: None,
        }
    }

    /// The floor an adapter can apply: [`SourceQuery::after_row`], when
    /// the fragment reads one collection. Over a join "the rows past the
    /// first `n`" names no set of answers that only grows, so such a
    /// fragment is run whole and its answer is never stamped.
    pub fn row_floor(&self) -> Option<u64> {
        self.after_row.filter(|_| self.collections.len() == 1)
    }

    /// Restrict `field` to the given keys (see [`SourceQuery::key_sets`]).
    pub fn with_key_set(mut self, field: FieldRef, keys: Arc<[Atomic]>) -> SourceQuery {
        self.key_sets.push((field, keys));
        self
    }

    /// Add a selection on the single scanned collection.
    pub fn with_selection(mut self, field: &str, op: PredOp, value: Atomic) -> SourceQuery {
        let alias = self.collections[0].alias.clone();
        self.selections.push(Selection {
            field: FieldRef::new(&alias, field),
            op,
            value,
        });
        self
    }
}

/// A fragment's key sets, hashed once per call so that adapters which
/// filter in-process test a row in O(1) per restricted field.
pub struct KeyFilter<'q> {
    sets: Vec<(&'q FieldRef, HashSet<AtomicKey>)>,
}

impl<'q> KeyFilter<'q> {
    pub fn new(query: &'q SourceQuery) -> KeyFilter<'q> {
        KeyFilter {
            sets: query
                .key_sets
                .iter()
                .map(|(field, keys)| (field, keys.iter().cloned().map(AtomicKey).collect()))
                .collect(),
        }
    }

    /// True when the row passes every key set; `value_of` reads the
    /// row's value for a restricted field. A null field matches no key.
    pub fn admits(&self, value_of: impl Fn(&FieldRef) -> Atomic) -> bool {
        self.sets.iter().all(|(field, keys)| {
            let v = value_of(field);
            !v.is_null() && keys.contains(&AtomicKey(v))
        })
    }
}

/// Builds the `<rows><row>…` result document adapters return.
pub struct RowsBuilder {
    builder: DocumentBuilder,
    row: Sym,
    rows: usize,
}

impl Default for RowsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RowsBuilder {
    pub fn new() -> RowsBuilder {
        Self::with_capacity(0, 0)
    }

    /// A builder with room for `rows` rows of `columns` non-null fields:
    /// an adapter that holds its answer before writing it allocates the
    /// node table once.
    pub fn with_capacity(rows: usize, columns: usize) -> RowsBuilder {
        RowsBuilder {
            // The root; per row the `<row>` and per field an element
            // and its text.
            builder: DocumentBuilder::with_capacity("rows", 1 + rows * (1 + 2 * columns)),
            row: Sym::intern("row"),
            rows: 0,
        }
    }

    /// Append one row of `(field, value)` pairs.
    pub fn row(&mut self, fields: &[(&str, Atomic)]) {
        self.row_syms(
            fields
                .iter()
                .map(|(name, value)| (Sym::intern(name), value.clone())),
        );
    }

    /// Append one row of `(interned field name, value)` pairs, taking the
    /// values as they come: an adapter that writes many rows of one shape
    /// looks its names up once and hands each value over without a copy.
    pub fn row_syms(&mut self, fields: impl IntoIterator<Item = (Sym, Atomic)>) {
        self.builder.start_element_sym(self.row);
        for (name, value) in fields {
            self.builder.start_element_sym(name);
            if !value.is_null() {
                self.builder.text(value);
            }
            self.builder.end_element();
        }
        self.builder.end_element();
        self.rows += 1;
    }

    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn finish(self) -> Arc<Document> {
        self.builder.finish()
    }

    /// [`finish`](Self::finish), stamping the answer (see [`Watermark`]).
    pub fn finish_marked(mut self, mark: Watermark) -> Arc<Document> {
        self.builder.stamp([mark.generation, mark.from, mark.upto]);
        self.builder.finish()
    }
}

/// Iterate the `<row>` elements of a result document.
pub fn rows_of(doc: &Arc<Document>) -> Vec<NodeRef> {
    doc.root().children_named("row").collect()
}

/// Read a named field of a row as a typed atomic (`Null` when absent).
pub fn row_field(row: &NodeRef, name: &str) -> Atomic {
    cursor_field(row.cursor(), name)
}

/// [`row_field`] for a reader walking the rows by cursor.
pub fn cursor_field(row: Cursor<'_>, name: &str) -> Atomic {
    row.child(name).map_or(Atomic::Null, |c| c.typed_value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sized_rows_document_allocates_o1_blocks() {
        if !nimble_trace::alloc::enabled() {
            return; // profile-alloc compiled out: nothing to count
        }
        let names = [Sym::intern("id"), Sym::intern("name"), Sym::intern("total")];
        let name = Sym::intern("n");
        let build = |rows: usize| {
            let scope = nimble_trace::alloc::AllocScope::enter();
            let mut b = RowsBuilder::with_capacity(rows, names.len());
            for i in 0..rows {
                let values = [Atomic::Int(i as i64), Atomic::Sym(name), Atomic::Float(i as f64)];
                b.row_syms(names.iter().copied().zip(values));
            }
            let doc = b.finish();
            (doc.len(), scope.finish().allocs)
        };
        build(1); // the first document interns `rows` and `row`
        let (small_nodes, small) = build(10);
        let (nodes, large) = build(1_000);
        assert_eq!((small_nodes, nodes), (1 + 10 * 7, 1 + 1_000 * 7));
        // The node table and the `Arc`; no block per row, element or value.
        assert!(large <= 4, "{} blocks for 1 000 rows", large);
        assert_eq!(large, small, "blocks grow with the row count");
    }

    #[test]
    fn rows_roundtrip() {
        let mut b = RowsBuilder::new();
        b.row(&[("id", Atomic::Int(1)), ("name", Atomic::Str("a".into()))]);
        b.row(&[("id", Atomic::Int(2)), ("name", Atomic::Null)]);
        assert_eq!(b.len(), 2);
        let doc = b.finish();
        let rows = rows_of(&doc);
        assert_eq!(rows.len(), 2);
        assert_eq!(row_field(&rows[0], "id"), Atomic::Int(1));
        assert_eq!(row_field(&rows[1], "name"), Atomic::Null);
        assert_eq!(row_field(&rows[1], "missing"), Atomic::Null);
    }

    #[test]
    fn predop_eval() {
        assert!(PredOp::Gt.eval(&Atomic::Int(5), &Atomic::Int(3)));
        assert!(PredOp::Like.eval(
            &Atomic::Str("hello world".into()),
            &Atomic::Str("%wor%".into())
        ));
        assert!(!PredOp::Eq.eval(&Atomic::Null, &Atomic::Int(1)));
    }

    #[test]
    fn key_filter_matches_by_join_equality() {
        let keys: Arc<[Atomic]> = vec![Atomic::Int(2), Atomic::Str("o'k".into())].into();
        let q = SourceQuery::scan("orders", &[("c", "cust_id")])
            .with_key_set(FieldRef::new("t", "cust_id"), keys);
        let filter = KeyFilter::new(&q);
        for (v, want) in [
            (Atomic::Int(2), true),
            (Atomic::Float(2.0), true),
            (Atomic::Int(3), false),
            (Atomic::Str("o'k".into()), true),
            (Atomic::Null, false),
        ] {
            assert_eq!(filter.admits(|_| v.clone()), want, "{:?}", v);
        }
        // No key set admits everything.
        let all = SourceQuery::scan("orders", &[]);
        assert!(KeyFilter::new(&all).admits(|_| Atomic::Null));
    }

    #[test]
    fn scan_builder() {
        let q = SourceQuery::scan("orders", &[("oid", "id"), ("t", "total")])
            .with_selection("total", PredOp::Gt, Atomic::Float(10.0));
        assert_eq!(q.collections[0].collection, "orders");
        assert_eq!(q.outputs[0].0, "oid");
        assert_eq!(q.selections.len(), 1);
    }
}
