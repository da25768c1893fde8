//! Abstract syntax of the XML-QL dialect.

use nimble_xml::Atomic;
use std::fmt;

/// A complete query: `WHERE conditions CONSTRUCT template [ORDER-BY keys]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub conditions: Vec<Condition>,
    pub construct: ElementTemplate,
    pub order_by: Vec<OrderKey>,
}

/// One comma-separated item of the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `pattern IN source` — match a tree pattern against a source.
    Pattern(PatternBinding),
    /// A boolean expression over bound variables.
    Predicate(Expr),
}

/// A pattern together with the source it matches against.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternBinding {
    pub pattern: Pattern,
    pub source: SourceRef,
}

/// Where a pattern's matching starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceRef {
    /// `IN "orders"` — a registered collection, document, or mediated view.
    Named(String),
    /// `IN $e` — navigate inside an element bound by an earlier pattern.
    Var(String),
}

/// An element tree pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    pub tag: TagPattern,
    pub attrs: Vec<AttrPattern>,
    pub content: Vec<PatternContent>,
    /// `ELEMENT_AS $e` — bind the matched element node.
    pub element_as: Option<String>,
    /// `CONTENT_AS $c` — bind the element's typed content.
    pub content_as: Option<String>,
}

/// How a pattern's tag matches element names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagPattern {
    /// Exact element name.
    Name(String),
    /// `*` — any element.
    Wildcard,
    /// `**name` — an element with this name at any depth below the
    /// context (regular-path shorthand).
    Descendant(String),
    /// `name+` — one or more levels of nesting through elements of this
    /// name (recursion over recursive schemas, e.g. `<part+>`).
    ClosurePlus(String),
}

/// An attribute pattern: `name=$var` binds, `name="lit"` constrains.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrPattern {
    pub name: String,
    pub value: PatternValue,
}

/// The value side of an attribute or content position in a pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternValue {
    Var(String),
    Lit(Atomic),
}

/// One content item of an element pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternContent {
    /// `$v` — bind the element's typed content.
    Var(String),
    /// `"text"` — the element's content must equal this literal.
    Lit(Atomic),
    /// A nested element pattern.
    Nested(Pattern),
}

/// Scalar expressions in predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Var(String),
    Lit(Atomic),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Neg(Box<Expr>),
    /// `f($x, 1, "s")` — a call into the engine's function registry.
    Call(String, Vec<Expr>),
}

/// Binary operators, loosest-binding first in the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// SQL-style pattern match with `%`/`_` wildcards.
    Like,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Like => "LIKE",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        };
        f.write_str(s)
    }
}

/// A CONSTRUCT element template.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementTemplate {
    pub tag: String,
    /// `ID=F($x,$y)` — Skolem grouping: one output element per distinct
    /// argument tuple; children accumulate across bindings.
    pub skolem: Option<SkolemId>,
    pub attrs: Vec<(String, TemplateValue)>,
    pub children: Vec<TemplateNode>,
}

/// Skolem function application used for grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkolemId {
    pub func: String,
    pub args: Vec<String>,
}

/// An attribute value in a template.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateValue {
    Var(String),
    Lit(String),
}

/// One content item of a template.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateNode {
    Element(ElementTemplate),
    /// `$v` — splice the variable's value (element nodes are deep-copied,
    /// atomics become text).
    Var(String),
    /// Quoted literal text.
    Text(String),
    /// A nested `WHERE … CONSTRUCT …` correlated with the outer bindings.
    Subquery(Box<Query>),
    /// `sum($t)` — an aggregate over the tuples of the enclosing
    /// Skolem-grouped element (dialect extension: the paper claims
    /// "general query language features … equivalent to a 'standard'
    /// SQL query engine", which includes aggregation). `count()` takes
    /// no argument and counts the group's tuples.
    Agg { func: AggName, var: Option<String> },
}

/// Aggregate functions usable in CONSTRUCT templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggName {
    Count,
    Sum,
    Min,
    Max,
    Avg,
    Collect,
}

impl AggName {
    /// Parse an aggregate name (lowercase) as used in templates.
    pub fn parse(name: &str) -> Option<AggName> {
        Some(match name {
            "count" => AggName::Count,
            "sum" => AggName::Sum,
            "min" => AggName::Min,
            "max" => AggName::Max,
            "avg" => AggName::Avg,
            "collect" => AggName::Collect,
            _ => return None,
        })
    }
}

/// A sort key of the ORDER-BY extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    pub var: String,
    pub descending: bool,
}

impl Pattern {
    /// Variables this pattern (recursively) binds, in syntactic order.
    pub fn bound_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_bound(&mut out);
        out
    }

    fn collect_bound(&self, out: &mut Vec<String>) {
        for a in &self.attrs {
            if let PatternValue::Var(v) = &a.value {
                out.push(v.clone());
            }
        }
        for c in &self.content {
            match c {
                PatternContent::Var(v) => out.push(v.clone()),
                PatternContent::Nested(p) => p.collect_bound(out),
                PatternContent::Lit(_) => {}
            }
        }
        if let Some(v) = &self.element_as {
            out.push(v.clone());
        }
        if let Some(v) = &self.content_as {
            out.push(v.clone());
        }
    }
}

impl Expr {
    /// Variables referenced anywhere in the expression.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => out.push(v.clone()),
            Expr::Lit(_) => {}
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_vars(out),
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }
}

impl Expr {
    /// The literal of an **equality parameter**: `$v = literal` in either
    /// orientation, the literal one the lexer spells (`Int`, `Float`,
    /// `Str`, `Bool`). The value a lens substitutes into a point lookup
    /// arrives in this position; no planning decision except the ones
    /// `nimble-core`'s planner names depends on it, so plans are cached
    /// with it lifted out ([`crate::display::QueryShape`]).
    pub fn eq_param(&self) -> Option<&Atomic> {
        let Expr::Binary(BinOp::Eq, l, r) = self else {
            return None;
        };
        match (l.as_ref(), r.as_ref()) {
            (Expr::Var(_), Expr::Lit(a)) | (Expr::Lit(a), Expr::Var(_)) => liftable(a).then_some(a),
            _ => None,
        }
    }

    /// [`Expr::eq_param`], to write another value of the same type there.
    pub fn eq_param_mut(&mut self) -> Option<&mut Atomic> {
        let Expr::Binary(BinOp::Eq, l, r) = self else {
            return None;
        };
        match (l.as_mut(), r.as_mut()) {
            (Expr::Var(_), Expr::Lit(a)) | (Expr::Lit(a), Expr::Var(_)) => liftable(a).then_some(a),
            _ => None,
        }
    }
}

fn liftable(a: &Atomic) -> bool {
    matches!(
        a,
        Atomic::Int(_) | Atomic::Float(_) | Atomic::Str(_) | Atomic::Bool(_)
    )
}

impl Query {
    /// The equality parameters of the top-level WHERE clause, in
    /// condition order — the order [`crate::display::QueryShape`] writes
    /// their placeholders in. Nested subqueries keep their literals.
    pub fn eq_params(&self) -> Vec<&Atomic> {
        self.conditions
            .iter()
            .filter_map(|c| match c {
                Condition::Predicate(e) => e.eq_param(),
                Condition::Pattern(_) => None,
            })
            .collect()
    }
}

impl ElementTemplate {
    /// Variables referenced by this template, not descending into
    /// subqueries (their own WHERE clauses may rebind).
    pub fn direct_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(sk) = &self.skolem {
            out.extend(sk.args.iter().cloned());
        }
        for (_, v) in &self.attrs {
            if let TemplateValue::Var(name) = v {
                out.push(name.clone());
            }
        }
        for c in &self.children {
            match c {
                TemplateNode::Element(e) => out.extend(e.direct_vars()),
                TemplateNode::Var(v) => out.push(v.clone()),
                TemplateNode::Agg { var: Some(v), .. } => out.push(v.clone()),
                TemplateNode::Agg { var: None, .. }
                | TemplateNode::Text(_)
                | TemplateNode::Subquery(_) => {}
            }
        }
        out
    }

    /// All nested subqueries directly inside this template tree.
    pub fn subqueries(&self) -> Vec<&Query> {
        let mut out = Vec::new();
        self.collect_subqueries(&mut out);
        out
    }

    fn collect_subqueries<'a>(&'a self, out: &mut Vec<&'a Query>) {
        for c in &self.children {
            match c {
                TemplateNode::Element(e) => e.collect_subqueries(out),
                TemplateNode::Subquery(q) => out.push(q),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_bound_vars_in_order() {
        let p = Pattern {
            tag: TagPattern::Name("book".into()),
            attrs: vec![AttrPattern {
                name: "year".into(),
                value: PatternValue::Var("y".into()),
            }],
            content: vec![PatternContent::Nested(Pattern {
                tag: TagPattern::Name("title".into()),
                attrs: vec![],
                content: vec![PatternContent::Var("t".into())],
                element_as: None,
                content_as: None,
            })],
            element_as: Some("e".into()),
            content_as: None,
        };
        assert_eq!(p.bound_vars(), vec!["y", "t", "e"]);
    }

    #[test]
    fn expr_vars() {
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Binary(
                BinOp::Gt,
                Box::new(Expr::Var("y".into())),
                Box::new(Expr::Lit(Atomic::Int(1995))),
            )),
            Box::new(Expr::Call("contains".into(), vec![Expr::Var("t".into())])),
        );
        assert_eq!(e.vars(), vec!["y", "t"]);
    }
}
