//! # nimble-planck
//!
//! Static verification of Nimble physical plans.
//!
//! The mediator compiles XML-QL *directly* into physical operator trees
//! with no logical-algebra stage (paper §3.1), so a planner bug — a
//! projection referencing a column the join did not produce, a join key
//! missing from its input — surfaces only at execution time, as a
//! runtime error or a silently wrong answer. This crate walks an [`Operator`] tree *without
//! executing it* and checks every operator's static contract, using the
//! [`OpInfo`](nimble_algebra::inspect::OpInfo) metadata each operator
//! exposes through
//! [`Operator::introspect`].
//!
//! ## Checks
//!
//! * **Schema derivation** — each operator's output schema matches what
//!   its [`SchemaRule`] predicts from its children (`Inherit`, `Concat`,
//!   `Extends`, `PerColumnExprs`).
//! * **Expression binding** — every [`ScalarExpr`] column reference
//!   resolves inside the child schema it is evaluated against.
//! * **Join keys** — equi-join key columns exist on both inputs and the
//!   key lists have equal arity.
//! * **Column references** — plain column reads (the node column a
//!   pattern binding navigates from) fall inside the input schema.
//! * **Duplicate columns** — no operator outputs the same variable
//!   twice, and `Schema::concat` collision renames (`var#2`) never leak
//!   into the root schema a consumer sees.
//!
//! `check` returns every issue found; `verify` wraps them into an
//! error. The verifier is conservative: operators without introspection
//! metadata ([`SchemaRule::Opaque`]) are accepted, their subtrees still
//! checked.
//!
//! ## Semantic passes (v2)
//!
//! On top of the structural checks, three semantic passes:
//!
//! * [`types`] — bottom-up typed field-domain inference (coercion class
//!   and nullability per output column), flagging type-confused join
//!   keys and references to never-bound columns.
//!   Run together with the structural pass by [`check_semantic`] /
//!   [`verify_semantic`].
//! * [`satisfy`] — interval/domain propagation over predicate trees:
//!   constant folding, contradiction detection (`x > 5 AND x < 3`),
//!   always-true detection, and refutation against exact column
//!   bounds. *Advisory*: an unsatisfiable filter is dead weight, not a
//!   malformed plan, so the planner (not the verifier) acts on it by
//!   pruning the subtree to an `EmptyOp`.
//! * [`rewrite_audit`] — invariant checks over recorded optimizer
//!   rewrites (schema/key-set preservation, cardinality-bound
//!   monotonicity), including plan-cache reuse, and over the candidate
//!   probes a plan records ([`audit_probes`]).

pub mod rewrite_audit;
pub mod satisfy;
pub mod types;

pub use rewrite_audit::{audit, audit_probes, Fingerprint, Placement, ProbeFacts, RewriteRecord, SourceRead};
pub use satisfy::Verdict;

use nimble_algebra::inspect::SchemaRule;
use nimble_algebra::{Operator, Schema};
use std::fmt;

/// One defect found in a plan.
#[derive(Debug, Clone)]
pub struct PlanIssue {
    /// Kind name of the operator the issue is anchored at (`"HashJoin"`).
    pub operator: String,
    /// Root-to-operator path, e.g. `Sort/HashJoin[0]/Values[1]`.
    pub path: String,
    /// Human-readable description naming the offending variable/column.
    pub detail: String,
}

impl fmt::Display for PlanIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at {}): {}", self.operator, self.path, self.detail)
    }
}

/// All defects found in one plan, as returned by [`verify`].
#[derive(Debug, Clone)]
pub struct VerifyReport {
    pub issues: Vec<PlanIssue>,
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan verification failed with {} issue(s):", self.issues.len())?;
        for i in &self.issues {
            write!(f, "\n  - {}", i)?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyReport {}

/// Verify an operator tree; `Err` carries every issue found.
pub fn verify(root: &dyn Operator) -> Result<(), VerifyReport> {
    let issues = check(root);
    if issues.is_empty() {
        Ok(())
    } else {
        Err(VerifyReport { issues })
    }
}

/// Walk an operator tree and collect every contract violation.
pub fn check(root: &dyn Operator) -> Vec<PlanIssue> {
    let mut issues = Vec::new();
    let root_path = root.introspect().name.clone();
    walk(root, &root_path, &mut issues);
    // Collision renames (`var#2` from `Schema::concat`) are internal
    // bookkeeping; a well-formed plan projects them away before the root.
    for v in root.schema().vars() {
        if v.contains('#') {
            issues.push(PlanIssue {
                operator: root.introspect().name,
                path: root_path.clone(),
                detail: format!(
                    "join collision column ${} leaks into the root schema {}; \
                     project it away above the join",
                    v,
                    root.schema()
                ),
            });
        }
    }
    issues
}

/// Format `$a, $b, …` for diagnostics.
fn var_list(schema: &Schema) -> String {
    schema
        .vars()
        .iter()
        .map(|v| format!("${}", v))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Name a column of a schema for diagnostics: `$var (column 2)` when in
/// range, `column 7` otherwise.
fn col_name(schema: &Schema, col: usize) -> String {
    match schema.vars().get(col) {
        Some(v) => format!("${} (column {})", v, col),
        None => format!("column {}", col),
    }
}

/// Recursively check one node and its subtree.
fn walk(op: &dyn Operator, path: &str, issues: &mut Vec<PlanIssue>) {
    let info = op.introspect();
    let children = op.children();

    for (i, c) in children.iter().enumerate() {
        let child_path = format!("{}/{}[{}]", path, c.introspect().name, i);
        walk(*c, &child_path, issues);
    }

    let mut report = |detail: String| {
        issues.push(PlanIssue {
            operator: info.name.clone(),
            path: path.to_string(),
            detail,
        });
    };

    let schema = op.schema();

    // 1. No operator may output the same variable twice.
    for (i, v) in schema.vars().iter().enumerate() {
        if schema.vars()[..i].contains(v) {
            report(format!("output schema {} binds ${} twice", schema, v));
            break;
        }
    }

    // 2. The output schema must match what the schema rule predicts.
    match &info.schema_rule {
        SchemaRule::Source => {
            if !children.is_empty() {
                report(format!(
                    "declared as a source but has {} children",
                    children.len()
                ));
            }
        }
        SchemaRule::Inherit(i) => match children.get(*i) {
            None => report(format!("schema inherits from missing child {}", i)),
            Some(c) => {
                if c.schema() != schema {
                    report(format!(
                        "output schema {} does not match child {}'s schema {}",
                        schema,
                        i,
                        c.schema()
                    ));
                }
            }
        },
        SchemaRule::Concat => {
            if children.len() < 2 {
                report(format!(
                    "join contract needs two children, found {}",
                    children.len()
                ));
            } else {
                let expected = children[0].schema().concat(children[1].schema());
                if &expected != schema {
                    report(format!(
                        "output schema {} is not the concatenation {} of its inputs",
                        schema, expected
                    ));
                }
            }
        }
        SchemaRule::Extends(i) => match children.get(*i) {
            None => report(format!("schema extends missing child {}", i)),
            Some(c) => {
                let prefix = c.schema().vars();
                if schema.vars().len() < prefix.len() || &schema.vars()[..prefix.len()] != prefix {
                    report(format!(
                        "output schema {} does not extend child {}'s schema {}",
                        schema,
                        i,
                        c.schema()
                    ));
                }
            }
        },
        SchemaRule::PerColumnExprs => {
            if info.child_exprs.len() != schema.len() {
                report(format!(
                    "projects {} expressions but outputs {} columns ({})",
                    info.child_exprs.len(),
                    schema.len(),
                    var_list(schema)
                ));
            }
        }
        SchemaRule::Opaque => {}
    }

    // 3. Every scalar expression must resolve within its child's schema.
    for ce in &info.child_exprs {
        match children.get(ce.child) {
            None => report(format!(
                "{} evaluated against missing child {}",
                ce.role, ce.child
            )),
            Some(c) => {
                let width = c.schema().len();
                for col in ce.expr.columns() {
                    if col >= width {
                        report(format!(
                            "{} references unbound column {}; the input provides \
                             only {} ({} columns)",
                            ce.role,
                            col,
                            var_list(c.schema()),
                            width
                        ));
                    }
                }
            }
        }
    }

    // 4. A join predicate ranges over the concatenation of both inputs.
    if let Some(pred) = &info.join_predicate {
        if children.len() >= 2 {
            let width = children[0].schema().len() + children[1].schema().len();
            for col in pred.columns() {
                if col >= width {
                    report(format!(
                        "join predicate {:?} references unbound column {}; the \
                         joined inputs provide {} columns",
                        pred, col, width
                    ));
                }
            }
        }
    }

    // 5. Equi-join keys: equal arity, each key inside its input schema.
    if let Some(keys) = &info.join_keys {
        if keys.left.len() != keys.right.len() {
            report(format!(
                "join key arity mismatch: {} left keys vs {} right keys",
                keys.left.len(),
                keys.right.len()
            ));
        }
        if children.len() >= 2 {
            let (ls, rs) = (children[0].schema(), children[1].schema());
            for (i, &k) in keys.left.iter().enumerate() {
                if k >= ls.len() {
                    report(format!(
                        "left join key #{} ({}) missing from left input {}",
                        i,
                        col_name(ls, k),
                        ls
                    ));
                }
            }
            for (i, &k) in keys.right.iter().enumerate() {
                if k >= rs.len() {
                    let counterpart = keys
                        .left
                        .get(i)
                        .map(|&lk| format!(" (pairs with left key {})", col_name(ls, lk)))
                        .unwrap_or_default();
                    report(format!(
                        "right join key #{} ({}) missing from right input {}{}",
                        i,
                        col_name(rs, k),
                        rs,
                        counterpart
                    ));
                }
            }
        }
    }

    // 6. Plain column references (a pattern binding's node column).
    for cc in &info.child_cols {
        match children.get(cc.child) {
            None => report(format!("{} read from missing child {}", cc.role, cc.child)),
            Some(c) => {
                if cc.col >= c.schema().len() {
                    report(format!(
                        "{} {} out of range for input schema {}",
                        cc.role,
                        col_name(c.schema(), cc.col),
                        c.schema()
                    ));
                }
            }
        }
    }
}

/// Structural checks plus the semantic type pass: everything [`check`]
/// finds, then [`types::check_types`] over the same tree.
pub fn check_semantic(root: &dyn Operator) -> Vec<PlanIssue> {
    let mut issues = check(root);
    issues.extend(types::check_types(root));
    issues
}

/// Verify a tree structurally *and* semantically; `Err` carries every
/// issue found by both passes.
pub fn verify_semantic(root: &dyn Operator) -> Result<(), VerifyReport> {
    let issues = check_semantic(root);
    if issues.is_empty() {
        Ok(())
    } else {
        Err(VerifyReport { issues })
    }
}

/// Check a plan and panic with the report on failure — convenience for
/// tests asserting a plan is well-formed.
pub fn assert_verified(root: &dyn Operator) {
    if let Err(report) = verify(root) {
        panic!("{}", report);
    }
}

#[cfg(test)]
mod tests;
