//! Operator introspection for static plan verification.
//!
//! The paper compiles XML-QL straight to *physical* plans with no
//! logical-algebra layer (§3.1), so there is no intermediate
//! representation where schema or type errors can be caught before
//! execution. [`OpInfo`] closes that gap: every [`Operator`] can describe
//! — without running — which scalar expressions it evaluates, how its
//! output schema is derived from its children, and what ordering it
//! establishes. `nimble-planck` consumes this metadata to verify whole
//! plans statically.
//!
//! The default [`Operator::introspect`] is conservative: an opaque node
//! whose schema the verifier accepts as-is. Operators opt in to stronger
//! checking by returning a more precise [`OpInfo`].
//!
//! [`Operator`]: crate::ops::Operator
//! [`Operator::introspect`]: crate::ops::Operator::introspect

use crate::expr::ScalarExpr;
use crate::ops::SortKey;
use std::fmt;

/// Coercion class of a field, the lattice the semantic type pass works
/// over. The classes mirror the runtime's join-key coercion semantics
/// (`numeric_key`): values that coerce to numbers compare numerically,
/// everything else compares lexically, and element-valued bindings are
/// structural. `Unknown` is the lattice top for *tolerance* — it joins
/// with anything without complaint — while `Mixed` records a witnessed
/// disagreement (e.g. exchange arms typing a column differently) and
/// `Never` marks a column that is declared to never be bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Coerces to a number (Int/Float/numeric string).
    Numeric,
    /// Plain text; compares lexically.
    Text,
    /// An element node (ELEMENT_AS / CONTENT_AS bindings).
    Element,
    /// Not statically known; compatible with every class.
    Unknown,
    /// Witnessed disagreement between contributing types.
    Mixed,
    /// Declared never bound; any reference is an error.
    Never,
}

impl FieldType {
    /// Lattice join of two types: `Unknown` defers, equal types keep,
    /// `Never` is absorbed by the other side, anything else is `Mixed`.
    pub fn join(self, other: FieldType) -> FieldType {
        use FieldType::*;
        match (self, other) {
            (Unknown, t) | (t, Unknown) => t,
            (Never, t) | (t, Never) => t,
            (a, b) if a == b => a,
            _ => Mixed,
        }
    }

    /// The coercion class of a literal value, mirroring the runtime's
    /// `numeric_key` / `coerce_num` semantics: anything that coerces to
    /// a number is `Numeric` (including numeric-looking strings), other
    /// strings are `Text`, element nodes are `Element`, and values the
    /// lattice makes no claim about (Null, Bool, lists) are `Unknown`.
    pub fn of_literal(v: &nimble_xml::Value) -> FieldType {
        use nimble_xml::{Atomic, Value};
        match v {
            Value::Node(_) => FieldType::Element,
            Value::Atomic(a) => match a {
                Atomic::Int(_) | Atomic::Float(_) => FieldType::Numeric,
                Atomic::Str(_) | Atomic::Sym(_) => {
                    let s = a.as_str().unwrap_or("");
                    if s.trim().parse::<f64>().is_ok() {
                        FieldType::Numeric
                    } else {
                        FieldType::Text
                    }
                }
                _ => FieldType::Unknown,
            },
            _ => FieldType::Unknown,
        }
    }

    /// Whether values of the two classes can be meaningfully compared as
    /// join keys. `Unknown` and `Mixed` are tolerated (no static claim);
    /// `Never` is never comparable; otherwise classes must agree.
    pub fn comparable(self, other: FieldType) -> bool {
        use FieldType::*;
        match (self, other) {
            (Never, _) | (_, Never) => false,
            (Unknown, _) | (_, Unknown) | (Mixed, _) | (_, Mixed) => true,
            (a, b) => a == b,
        }
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FieldType::Numeric => "numeric",
            FieldType::Text => "text",
            FieldType::Element => "element",
            FieldType::Unknown => "unknown",
            FieldType::Mixed => "mixed",
            FieldType::Never => "never",
        };
        f.write_str(s)
    }
}

/// The typed domain of one output field: coercion class plus
/// nullability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDomain {
    pub ty: FieldType,
    pub nullable: bool,
}

impl FieldDomain {
    pub fn new(ty: FieldType) -> FieldDomain {
        FieldDomain { ty, nullable: false }
    }

    /// An entirely unconstrained field.
    pub fn unknown() -> FieldDomain {
        FieldDomain { ty: FieldType::Unknown, nullable: true }
    }

    pub fn nullable(mut self) -> FieldDomain {
        self.nullable = true;
        self
    }

    /// Join with another domain: lattice join on types, nullable if
    /// either side may be null.
    pub fn join(self, other: FieldDomain) -> FieldDomain {
        FieldDomain {
            ty: self.ty.join(other.ty),
            nullable: self.nullable || other.nullable,
        }
    }
}

impl fmt::Display for FieldDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nullable {
            write!(f, "{}?", self.ty)
        } else {
            write!(f, "{}", self.ty)
        }
    }
}

/// How an operator's output schema is derived from its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaRule {
    /// A leaf: no children, the schema is self-contained.
    Source,
    /// Output schema equals the schema of child `i` (filters, sorts).
    Inherit(usize),
    /// Output schema is `children[0].schema().concat(children[1].schema())`
    /// — the join contract; collision columns are renamed `var#2`.
    Concat,
    /// Output schema extends child `i`'s schema: the child's columns are a
    /// prefix, new columns are appended (pattern binding).
    Extends(usize),
    /// All children share the output schema exactly (an exchange's
    /// shard arms).
    Uniform,
    /// Each output column is produced by one entry of
    /// [`OpInfo::child_exprs`] over child 0 (projection).
    PerColumnExprs,
    /// No statically checkable relation between child and output schemas;
    /// the verifier only bounds-checks the declared column references.
    Opaque,
}

/// What an operator does to the ordering of its tuple stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderEffect {
    /// Establishes the ordering given by [`OpInfo::sort_keys`]
    /// regardless of input order.
    Establishes,
    /// Preserves whatever ordering child `i` delivers.
    Preserves(usize),
    /// Destroys or does not guarantee any ordering.
    Unknown,
}

/// A scalar expression an operator evaluates over one child's tuples.
#[derive(Debug, Clone)]
pub struct ChildExpr {
    /// Index into [`Operator::children`](crate::ops::Operator::children).
    pub child: usize,
    /// Human-readable role for diagnostics (`"predicate"`, `"column $x"`).
    pub role: String,
    pub expr: ScalarExpr,
}

/// A single column reference into one child's schema.
#[derive(Debug, Clone)]
pub struct ChildCol {
    pub child: usize,
    /// Human-readable role for diagnostics (`"bind-pattern input"`).
    pub role: String,
    pub col: usize,
}

/// Equi-join key columns; `left[i]` pairs with `right[i]`.
#[derive(Debug, Clone)]
pub struct JoinKeys {
    pub left: Vec<usize>,
    pub right: Vec<usize>,
}

/// Static metadata describing one operator node.
///
/// Built with [`OpInfo::new`] and the `with_*` builder methods; consumed
/// by `nimble-planck`'s verifier.
#[derive(Debug, Clone)]
pub struct OpInfo {
    /// Operator kind name used in diagnostics (`"HashJoin"`).
    pub name: String,
    pub schema_rule: SchemaRule,
    pub order: OrderEffect,
    /// Scalar expressions evaluated over child tuples. For joins the
    /// expression space is the *concatenation* of both children; use
    /// [`OpInfo::join_predicate`] instead.
    pub child_exprs: Vec<ChildExpr>,
    /// A predicate over the concatenated tuples of children 0 and 1.
    pub join_predicate: Option<ScalarExpr>,
    /// Equi-join keys, bounds-checked against both child schemas.
    pub join_keys: Option<JoinKeys>,
    /// The ordering this operator establishes when
    /// [`OpInfo::order`] is [`OrderEffect::Establishes`].
    pub sort_keys: Vec<SortKey>,
    /// Plain column references into child schemas (the node column a
    /// pattern binding reads).
    pub child_cols: Vec<ChildCol>,
    /// Declared typed domains of this operator's output columns (one per
    /// schema column), for leaves that know their types. `None` means
    /// "infer from children"; the semantic type pass fills the gap with
    /// [`FieldType::Unknown`] for underived leaves.
    pub out_types: Option<Vec<FieldDomain>>,
    /// Rewrite-provenance tags attached by the optimizer (e.g.
    /// `"pruned: unsatisfiable"`, `"build-side swapped"`). Purely
    /// informational: surfaced in diagnostics and EXPLAIN.
    pub provenance: Vec<String>,
}

impl OpInfo {
    /// Metadata with the given schema rule and no other claims.
    pub fn new(name: impl Into<String>, schema_rule: SchemaRule) -> OpInfo {
        OpInfo {
            name: name.into(),
            schema_rule,
            order: OrderEffect::Unknown,
            child_exprs: Vec::new(),
            join_predicate: None,
            join_keys: None,
            sort_keys: Vec::new(),
            child_cols: Vec::new(),
            out_types: None,
            provenance: Vec::new(),
        }
    }

    /// A leaf source.
    pub fn source(name: impl Into<String>) -> OpInfo {
        OpInfo::new(name, SchemaRule::Source)
    }

    /// A single-child operator that passes its child's schema and order
    /// through unchanged.
    pub fn transform(name: impl Into<String>) -> OpInfo {
        OpInfo::new(name, SchemaRule::Inherit(0)).with_order(OrderEffect::Preserves(0))
    }

    /// The conservative default for operators without introspection.
    pub fn opaque(name: impl Into<String>) -> OpInfo {
        OpInfo::new(name, SchemaRule::Opaque)
    }

    pub fn with_order(mut self, order: OrderEffect) -> OpInfo {
        self.order = order;
        self
    }

    pub fn with_child_expr(
        mut self,
        child: usize,
        role: impl Into<String>,
        expr: ScalarExpr,
    ) -> OpInfo {
        self.child_exprs.push(ChildExpr {
            child,
            role: role.into(),
            expr,
        });
        self
    }

    pub fn with_join_predicate(mut self, predicate: ScalarExpr) -> OpInfo {
        self.join_predicate = Some(predicate);
        self
    }

    pub fn with_join_keys(mut self, left: Vec<usize>, right: Vec<usize>) -> OpInfo {
        self.join_keys = Some(JoinKeys { left, right });
        self
    }

    pub fn with_sort_keys(mut self, keys: Vec<SortKey>) -> OpInfo {
        self.sort_keys = keys;
        self
    }

    pub fn with_child_col(mut self, child: usize, role: impl Into<String>, col: usize) -> OpInfo {
        self.child_cols.push(ChildCol {
            child,
            role: role.into(),
            col,
        });
        self
    }

    /// Declare the typed domains of the output columns (one per column).
    pub fn with_out_types(mut self, types: Vec<FieldDomain>) -> OpInfo {
        self.out_types = Some(types);
        self
    }

    /// Attach a rewrite-provenance tag.
    pub fn with_provenance(mut self, tag: impl Into<String>) -> OpInfo {
        self.provenance.push(tag.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let info = OpInfo::new("HashJoin", SchemaRule::Concat)
            .with_join_keys(vec![0], vec![1])
            .with_order(OrderEffect::Unknown);
        assert_eq!(info.name, "HashJoin");
        assert_eq!(info.schema_rule, SchemaRule::Concat);
        let keys = info.join_keys.expect("keys recorded");
        assert_eq!((keys.left, keys.right), (vec![0], vec![1]));
    }

    #[test]
    fn transform_preserves_child_order() {
        let info = OpInfo::transform("Filter");
        assert_eq!(info.order, OrderEffect::Preserves(0));
        assert_eq!(info.schema_rule, SchemaRule::Inherit(0));
    }

    #[test]
    fn type_lattice_join_and_comparability() {
        use FieldType::*;
        assert_eq!(Numeric.join(Numeric), Numeric);
        assert_eq!(Numeric.join(Text), Mixed);
        assert_eq!(Unknown.join(Text), Text);
        assert_eq!(Never.join(Numeric), Numeric);
        assert!(Numeric.comparable(Numeric));
        assert!(Unknown.comparable(Element));
        assert!(Mixed.comparable(Text));
        assert!(!Numeric.comparable(Text));
        assert!(!Element.comparable(Numeric));
        assert!(!Never.comparable(Unknown));
    }

    #[test]
    fn domain_join_widens_nullability() {
        let a = FieldDomain::new(FieldType::Numeric);
        let b = FieldDomain::new(FieldType::Numeric).nullable();
        let j = a.join(b);
        assert_eq!(j.ty, FieldType::Numeric);
        assert!(j.nullable);
        assert_eq!(j.to_string(), "numeric?");
    }

    #[test]
    fn typed_and_provenance_builders() {
        let info = OpInfo::source("Values")
            .with_out_types(vec![FieldDomain::new(FieldType::Text)])
            .with_provenance("pruned: unsatisfiable");
        assert_eq!(info.out_types.as_ref().map(|t| t.len()), Some(1));
        assert_eq!(info.provenance, vec!["pruned: unsatisfiable"]);
    }
}
