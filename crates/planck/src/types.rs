//! Pass 1: bottom-up type/schema inference over an operator tree.
//!
//! Every operator output gets a typed field domain — coercion class
//! (numeric / text / element) plus nullability — derived from the
//! declared [`OpInfo::out_types`](nimble_algebra::inspect::OpInfo::out_types)
//! of leaves and each operator's
//! [`SchemaRule`]. The pass then checks the inferred domains against the
//! operations performed on them:
//!
//! * **Join-key compatibility** — equi-join key pairs whose coercion
//!   classes disagree (`numeric` vs `text`, `element` vs any scalar)
//!   would silently compare lexically or never match; flagged.
//! * **Never-bound references** — any expression, column reference or
//!   join key over a column typed [`FieldType::Never`] is an error: the
//!   planner declared the column can never hold a value.
//!
//! The pass is *tolerant by construction*: operators without declared
//! types infer [`FieldType::Unknown`], which is compatible with
//! everything, so plans built from undeclared sources (the engine's
//! usual case) can never produce a false positive. Declared types opt a
//! subtree into stronger checking.

use crate::PlanIssue;
use nimble_algebra::inspect::{FieldDomain, FieldType, SchemaRule};
use nimble_algebra::{Operator, ScalarExpr};

/// Infer the typed domains of an operator's output columns without
/// collecting issues. One domain per schema column.
pub fn infer(op: &dyn Operator) -> Vec<FieldDomain> {
    let mut sink = Vec::new();
    walk_types(op, &op.introspect().name, &mut sink)
}

/// Walk a tree bottom-up, checking typed-domain invariants; returns
/// every issue found. Run by [`crate::check_semantic`] after the
/// structural pass.
pub fn check_types(root: &dyn Operator) -> Vec<PlanIssue> {
    let mut issues = Vec::new();
    walk_types(root, &root.introspect().name, &mut issues);
    issues
}

fn walk_types(op: &dyn Operator, path: &str, issues: &mut Vec<PlanIssue>) -> Vec<FieldDomain> {
    let info = op.introspect();
    let children = op.children();
    let child_domains: Vec<Vec<FieldDomain>> = children
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let child_path = format!("{}/{}[{}]", path, c.introspect().name, i);
            walk_types(*c, &child_path, issues)
        })
        .collect();

    let mut report = |detail: String| {
        issues.push(PlanIssue {
            operator: info.name.clone(),
            path: path.to_string(),
            detail,
        });
    };

    let schema = op.schema();
    let width = schema.len();

    // Derive output domains from the schema rule.
    let mut derived: Vec<FieldDomain> = match &info.schema_rule {
        SchemaRule::Inherit(i) => child_domains.get(*i).cloned().unwrap_or_default(),
        SchemaRule::Concat => {
            let mut out = Vec::new();
            for (i, c) in children.iter().enumerate().take(2) {
                let mut d = child_domains.get(i).cloned().unwrap_or_default();
                d.resize(c.schema().len(), FieldDomain::unknown());
                out.extend(d);
            }
            out
        }
        SchemaRule::Extends(i) => child_domains.get(*i).cloned().unwrap_or_default(),
        SchemaRule::PerColumnExprs => {
            let input = child_domains.first().map(Vec::as_slice).unwrap_or(&[]);
            info.child_exprs
                .iter()
                .map(|ce| type_expr(&ce.expr, input))
                .collect()
        }
        SchemaRule::Source | SchemaRule::Opaque => Vec::new(),
    };
    derived.resize(width, FieldDomain::unknown());

    // Declared types override the derivation (leaves are the main case);
    // the declaration must cover the schema exactly.
    let domains = match &info.out_types {
        Some(declared) => {
            if declared.len() != width {
                report(format!(
                    "declares {} typed field domains but outputs {} columns ({})",
                    declared.len(),
                    width,
                    schema
                ));
                let mut d = declared.clone();
                d.resize(width, FieldDomain::unknown());
                d
            } else {
                declared.clone()
            }
        }
        None => derived,
    };

    let domain_of = |ds: &[FieldDomain], col: usize| -> FieldDomain {
        ds.get(col).copied().unwrap_or_else(FieldDomain::unknown)
    };
    let col_desc = |c: &dyn Operator, col: usize| -> String {
        match c.schema().vars().get(col) {
            Some(v) => format!("${}", v),
            None => format!("column {}", col),
        }
    };

    // Join-key coercion classes must be compatible, and no key may be a
    // never-bound column.
    if let Some(keys) = &info.join_keys {
        if children.len() >= 2 {
            let (lc, rc) = (children[0], children[1]);
            let (ld, rd) = (&child_domains[0], &child_domains[1]);
            for (i, (&lk, &rk)) in keys.left.iter().zip(keys.right.iter()).enumerate() {
                let lt = domain_of(ld, lk).ty;
                let rt = domain_of(rd, rk).ty;
                if !lt.comparable(rt) {
                    report(format!(
                        "join key #{} compares {} ({}) with {} ({}); incompatible \
                         coercion classes can never match as equi-join keys",
                        i,
                        col_desc(lc, lk),
                        lt,
                        col_desc(rc, rk),
                        rt
                    ));
                }
            }
        }
    }

    // References to never-bound columns: expressions and plain column
    // references.
    for ce in &info.child_exprs {
        if let Some(c) = children.get(ce.child) {
            let ds = &child_domains[ce.child];
            for col in ce.expr.columns() {
                if domain_of(ds, col).ty == FieldType::Never {
                    report(format!(
                        "{} references {}, which is declared never bound",
                        ce.role,
                        col_desc(*c, col)
                    ));
                }
            }
        }
    }
    for cc in &info.child_cols {
        if let Some(c) = children.get(cc.child) {
            if domain_of(&child_domains[cc.child], cc.col).ty == FieldType::Never {
                report(format!(
                    "{} reads {}, which is declared never bound",
                    cc.role,
                    col_desc(*c, cc.col)
                ));
            }
        }
    }

    domains
}

/// The typed domain of a scalar expression over an input's domains.
/// Conservative: anything the lattice cannot pin down is `Unknown`.
fn type_expr(e: &ScalarExpr, input: &[FieldDomain]) -> FieldDomain {
    match e {
        ScalarExpr::Col(i) => input
            .get(*i)
            .copied()
            .unwrap_or_else(FieldDomain::unknown),
        ScalarExpr::Lit(v) => {
            let d = FieldDomain::new(FieldType::of_literal(v));
            if nimble_algebra::expr::literal_is_null(v) {
                d.nullable()
            } else {
                d
            }
        }
        // Comparisons and boolean connectives always produce a Bool,
        // which the lattice does not track; arithmetic always produces a
        // number (or errors out of the pipeline entirely).
        ScalarExpr::Cmp(..) | ScalarExpr::And(..) | ScalarExpr::Or(..) | ScalarExpr::Not(_) => {
            FieldDomain::new(FieldType::Unknown)
        }
        ScalarExpr::Arith(..) | ScalarExpr::Neg(_) => FieldDomain::new(FieldType::Numeric),
        ScalarExpr::Call(..) => FieldDomain::unknown(),
        ScalarExpr::PathFirst(..) => FieldDomain::unknown(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_algebra::inspect::OpInfo;
    use nimble_algebra::ops::{HashJoinOp, JoinType, ValuesOp};
    use nimble_algebra::Schema;

    struct Typed {
        inner: ValuesOp,
        types: Vec<FieldDomain>,
    }

    fn typed(vars: &[&str], types: Vec<FieldDomain>) -> Box<Typed> {
        let schema = Schema::new(vars.iter().map(|s| s.to_string()).collect());
        Box::new(Typed {
            inner: ValuesOp::new(schema, Vec::new()),
            types,
        })
    }

    impl Operator for Typed {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn open(&mut self) -> Result<(), nimble_algebra::ExecError> {
            self.inner.open()
        }
        fn next_batch(
            &mut self,
            out: &mut Vec<nimble_algebra::Tuple>,
            max: usize,
        ) -> Result<usize, nimble_algebra::ExecError> {
            self.inner.next_batch(out, max)
        }
        fn close(&mut self) {
            self.inner.close()
        }
        fn describe(&self) -> String {
            "TypedValues".into()
        }
        fn children(&self) -> Vec<&dyn Operator> {
            Vec::new()
        }
        fn rows_out(&self) -> u64 {
            0
        }
        fn introspect(&self) -> OpInfo {
            OpInfo::source("TypedValues").with_out_types(self.types.clone())
        }
    }

    #[test]
    fn untyped_leaves_infer_unknown_everywhere() {
        let join = HashJoinOp::new(
            Box::new(ValuesOp::new(Schema::new(vec!["k".into()]), Vec::new())),
            Box::new(ValuesOp::new(Schema::new(vec!["k2".into()]), Vec::new())),
            vec![0],
            vec![0],
            JoinType::Inner,
        );
        assert!(check_types(&join).is_empty());
        assert!(infer(&join).iter().all(|d| d.ty == FieldType::Unknown));
    }

    #[test]
    fn concat_carries_declared_types_through_joins() {
        let join = HashJoinOp::new(
            typed(&["k"], vec![FieldDomain::new(FieldType::Numeric)]),
            typed(&["k2"], vec![FieldDomain::new(FieldType::Numeric)]),
            vec![0],
            vec![0],
            JoinType::Inner,
        );
        assert!(check_types(&join).is_empty());
        let inferred = infer(&join);
        assert_eq!(inferred.len(), 2);
        assert!(inferred.iter().all(|d| d.ty == FieldType::Numeric));
    }

    #[test]
    fn declared_arity_mismatch_is_flagged() {
        let op = typed(&["a", "b"], vec![FieldDomain::new(FieldType::Text)]);
        let issues = check_types(op.as_ref());
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("1 typed field domains"));
    }
}
