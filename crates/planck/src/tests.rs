use super::*;
use nimble_algebra::expr::{CmpOp, ScalarExpr};
use nimble_algebra::inspect::OpInfo;
use nimble_algebra::ops::{BoxedOp, FilterOp, HashJoinOp, JoinType, ProjectOp, ValuesOp};
use nimble_algebra::{ExecError, FunctionRegistry, Tuple};
use std::sync::Arc;

fn source(vars: &[&str]) -> BoxedOp {
    let schema = Schema::new(vars.iter().map(|s| s.to_string()).collect());
    Box::new(ValuesOp::new(schema, Vec::new()))
}

fn funcs() -> Arc<FunctionRegistry> {
    Arc::new(FunctionRegistry::with_builtins())
}

// --- The seeded malformed-plan fixtures ---

#[test]
fn rejects_unbound_expression_variable() {
    // Fixture 1: a projection computes $out from column 5, but its input
    // only provides [$a, $b].
    let proj = ProjectOp::new(
        source(&["a", "b"]),
        vec![("out".into(), ScalarExpr::Col(5))],
        funcs(),
    );
    let report = verify(&proj).expect_err("unbound column must be rejected");
    let issue = &report.issues[0];
    assert_eq!(issue.operator, "Project");
    assert!(issue.detail.contains("$out"), "names the variable: {}", issue);
    assert!(issue.detail.contains("column 5"), "names the column: {}", issue);
    assert!(issue.detail.contains("$a, $b"), "names the valid schema: {}", issue);
}

#[test]
fn rejects_missing_join_key() {
    // Fixture 2: the right key column does not exist on the right input.
    let join = HashJoinOp::new(
        source(&["k", "x"]),
        source(&["k2", "y"]),
        vec![0],
        vec![7],
        JoinType::Inner,
    );
    let report = verify(&join).expect_err("missing key column must be rejected");
    let issue = &report.issues[0];
    assert_eq!(issue.operator, "HashJoin");
    assert!(issue.detail.contains("column 7"), "names the column: {}", issue);
    assert!(issue.detail.contains("$k"), "names the paired key: {}", issue);
    assert!(issue.detail.contains("[k2, y]"), "names the input: {}", issue);
}

// --- Positive paths ---

#[test]
fn accepts_well_formed_pipeline() {
    let pred = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(1), ScalarExpr::Col(0));
    let filter = Box::new(FilterOp::new(source(&["a", "b"]), pred, funcs()));
    let proj = ProjectOp::new(filter, vec![("b".into(), ScalarExpr::Col(1))], funcs());
    assert_verified(&proj);
}

#[test]
fn collision_rename_must_not_leak_to_root() {
    // HashJoin of [k, x] with [k, y] outputs [k, x, k#2, y]; unprojected,
    // that is a malformed root.
    let join = HashJoinOp::natural(source(&["k", "x"]), source(&["k", "y"]), JoinType::Inner);
    let report = verify(&join).expect_err("leaked collision column");
    assert!(report.to_string().contains("$k#2"), "names the column: {}", report);

    // Projecting the duplicate away fixes it.
    let join = HashJoinOp::natural(source(&["k", "x"]), source(&["k", "y"]), JoinType::Inner);
    let clean = ProjectOp::keep(Box::new(join), &["k", "x", "y"], funcs()).unwrap();
    assert_verified(&clean);
}

#[test]
fn issue_paths_locate_the_operator() {
    // The broken projection sits under a filter; the path must say so.
    let proj = Box::new(ProjectOp::new(
        source(&["a"]),
        vec![("out".into(), ScalarExpr::Col(9))],
        funcs(),
    ));
    let pred = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(0), ScalarExpr::Col(0));
    let filter = FilterOp::new(proj, pred, funcs());
    let report = verify(&filter).expect_err("nested issue found");
    assert_eq!(report.issues[0].path, "Filter/Project[0]");
}

// --- Semantic pass: seeded-mutation corpus ---
//
// Each fixture is a plan (or rewrite record) broken in a way the v1
// structural checks cannot see; `check_semantic` / `audit` must catch
// every one, and the well-formed twins must stay clean. Together with
// the satisfy/rewrite_audit module tests these form the ≥12-fixture
// corpus the semantic analyzer is gated on.

use nimble_algebra::inspect::{FieldDomain, FieldType};

/// An empty typed leaf: like `source`, but with declared field domains.
struct TypedValues {
    inner: ValuesOp,
    types: Vec<FieldDomain>,
}

fn typed(vars: &[&str], types: &[FieldType]) -> Box<TypedValues> {
    let schema = Schema::new(vars.iter().map(|s| s.to_string()).collect());
    Box::new(TypedValues {
        inner: ValuesOp::new(schema, Vec::new()),
        types: types.iter().map(|&t| FieldDomain::new(t)).collect(),
    })
}

impl Operator for TypedValues {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn open(&mut self) -> Result<(), ExecError> {
        self.inner.open()
    }
    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
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
fn rejects_numeric_text_join_keys() {
    // Mutation: equi-join equating a numeric id with a text name.
    let join = HashJoinOp::new(
        typed(&["id", "x"], &[FieldType::Numeric, FieldType::Text]),
        typed(&["name"], &[FieldType::Text]),
        vec![0],
        vec![0],
        JoinType::Inner,
    );
    let issues = check_semantic(&join);
    assert_eq!(issues.len(), 1, "{:?}", issues);
    assert!(issues[0].detail.contains("incompatible"), "{}", issues[0]);
    assert!(issues[0].detail.contains("numeric"), "{}", issues[0]);
    assert!(issues[0].detail.contains("text"), "{}", issues[0]);

    // Twin: keys of matching class pass.
    let ok = HashJoinOp::new(
        typed(&["id", "x"], &[FieldType::Numeric, FieldType::Text]),
        typed(&["cust_id"], &[FieldType::Numeric]),
        vec![0],
        vec![0],
        JoinType::Inner,
    );
    assert!(check_semantic(&ok).is_empty());
}

#[test]
fn rejects_element_scalar_join_key() {
    // Mutation: joining an element-valued binding against a number.
    let join = HashJoinOp::new(
        typed(&["e"], &[FieldType::Element]),
        typed(&["total"], &[FieldType::Numeric]),
        vec![0],
        vec![0],
        JoinType::Inner,
    );
    let issues = check_semantic(&join);
    assert_eq!(issues.len(), 1, "{:?}", issues);
    assert!(issues[0].detail.contains("element"), "{}", issues[0]);
}

#[test]
fn rejects_projection_of_never_bound_field() {
    // Mutation: the planner declared $gone never bound, yet a
    // projection still copies it out.
    let proj = ProjectOp::new(
        typed(&["a", "gone"], &[FieldType::Text, FieldType::Never]),
        vec![("out".into(), ScalarExpr::Col(1))],
        funcs(),
    );
    let issues = check_semantic(&proj);
    assert_eq!(issues.len(), 1, "{:?}", issues);
    assert!(issues[0].detail.contains("never bound"), "{}", issues[0]);
    assert!(issues[0].detail.contains("$gone"), "{}", issues[0]);
}

#[test]
fn rejects_filter_over_never_bound_field() {
    // Mutation: a filter predicate reads a never-bound column.
    let pred = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(1), ScalarExpr::lit(5i64));
    let filter = FilterOp::new(
        typed(&["a", "gone"], &[FieldType::Text, FieldType::Never]),
        pred,
        funcs(),
    );
    let issues = check_semantic(&filter);
    assert_eq!(issues.len(), 1, "{:?}", issues);
    assert!(issues[0].detail.contains("never bound"), "{}", issues[0]);
    assert_eq!(issues[0].operator, "Filter");
}

#[test]
fn semantic_pass_is_silent_on_untyped_plans() {
    // The engine's usual case: no declared types anywhere. Every check
    // must stay quiet — `Unknown` tolerates everything.
    let join = HashJoinOp::natural(source(&["k", "x"]), source(&["k", "y"]), JoinType::Inner);
    let clean = ProjectOp::keep(Box::new(join), &["k", "x", "y"], funcs()).unwrap();
    assert!(check_semantic(&clean).is_empty());
}

#[test]
fn opaque_operators_are_tolerated() {
    // No introspection override → conservative acceptance.
    struct Mystery {
        child: BoxedOp,
        schema: Schema,
    }
    impl Operator for Mystery {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn open(&mut self) -> Result<(), ExecError> {
            Ok(())
        }
        fn next_batch(&mut self, _out: &mut Vec<Tuple>, _max: usize) -> Result<usize, ExecError> {
            Ok(0)
        }
        fn close(&mut self) {}
        fn describe(&self) -> String {
            "Mystery".into()
        }
        fn children(&self) -> Vec<&dyn Operator> {
            vec![self.child.as_ref()]
        }
        fn rows_out(&self) -> u64 {
            0
        }
    }
    let op = Mystery {
        child: source(&["a"]),
        schema: Schema::new(vec!["entirely".into(), "different".into()]),
    };
    assert_verified(&op);
}
