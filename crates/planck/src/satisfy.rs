//! Pass 2: satisfiability analysis over predicate trees.
//!
//! Pure functions over [`ScalarExpr`] that fold constants and propagate
//! per-column numeric intervals through conjunctions, producing a
//! three-valued [`Verdict`]:
//!
//! * [`Verdict::Unsatisfiable`] — the predicate evaluates false on
//!   *every* tuple (e.g. `x > 5 AND x < 3`, `x = 'a' AND x = 'b'`, or a
//!   comparison that contradicts known exact column bounds). Because
//!   the runtime's comparison semantics make any comparison with Null
//!   false, contradictions hold for null-valued rows too, so a planner
//!   may prune the subtree to an `EmptyOp`.
//! * [`Verdict::AlwaysTrue`] — the predicate evaluates truthy on every
//!   tuple. Claimed only from *pure logic* (literal folding and
//!   negation of pure-logic contradictions), never from column bounds:
//!   bounds describe non-null sampled values, and dropping a filter
//!   that is false on a Null would change results.
//! * [`Verdict::Unknown`] — no static claim.
//!
//! An interval's ends are numeric readings ([`Atomic::numeric`]) ordered
//! as `nimble_xml::atomic::cmp` orders them ([`OrderKey::total_cmp`]):
//! exact for integers past 2^53, so the verdict never differs from what
//! the runtime's comparisons find (DESIGN.md §23).
//!
//! Column bounds are supplied by the caller as a closure so this crate
//! stays independent of the statistics store. Callers must only pass
//! bounds they can vouch for as **exact** over the data the predicate
//! will see (e.g. a full-coverage sample of a field that holds only
//! numbers); advisory bounds make `Unsatisfiable` unsound.

use nimble_algebra::expr::{compare, literal_lexical, literal_truth, CmpOp, LiteralValue};
use nimble_algebra::ScalarExpr;
use nimble_xml::{Atomic, OrderKey};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The result of statically analyzing a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// False on every tuple; the subtree below the filter is dead.
    Unsatisfiable,
    /// Truthy on every tuple; the filter is a no-op.
    AlwaysTrue,
    /// No static claim.
    Unknown,
}

/// A numeric reading: an [`OrderKey::Int`] or [`OrderKey::Float`].
pub type Number = OrderKey<'static>;

/// Per-column numeric bounds: `Some((min, max))` when the caller knows
/// the *exact* value range of that column, `None` otherwise.
pub type ColumnBounds<'a> = &'a dyn Fn(usize) -> Option<(Number, Number)>;

/// Bounds source claiming nothing.
pub fn no_bounds(_: usize) -> Option<(Number, Number)> {
    None
}

/// Analyze a predicate with no external column knowledge (pure logic).
pub fn analyze_pure(expr: &ScalarExpr) -> Verdict {
    analyze(expr, &no_bounds)
}

/// Analyze a predicate given exact per-column numeric bounds.
pub fn analyze(expr: &ScalarExpr, bounds: ColumnBounds) -> Verdict {
    match expr {
        ScalarExpr::Lit(v) => {
            if literal_truth(v) {
                Verdict::AlwaysTrue
            } else {
                Verdict::Unsatisfiable
            }
        }
        ScalarExpr::Not(inner) => {
            // Negation is inverted from the *pure* verdict only: a
            // bounds-derived inner contradiction would flip into an
            // AlwaysTrue claim resting on sampled data, which the
            // documentation above rules out.
            match analyze_pure(inner) {
                Verdict::AlwaysTrue => Verdict::Unsatisfiable,
                Verdict::Unsatisfiable => Verdict::AlwaysTrue,
                Verdict::Unknown => Verdict::Unknown,
            }
        }
        ScalarExpr::Or(l, r) => match (analyze(l, bounds), analyze(r, bounds)) {
            (Verdict::Unsatisfiable, Verdict::Unsatisfiable) => Verdict::Unsatisfiable,
            (Verdict::AlwaysTrue, _) | (_, Verdict::AlwaysTrue) => Verdict::AlwaysTrue,
            _ => Verdict::Unknown,
        },
        ScalarExpr::And(..) | ScalarExpr::Cmp(..) => analyze_conjunction(expr, bounds),
        _ => Verdict::Unknown,
    }
}

/// The values a column may still hold: each end, when one is known, with
/// whether it is open.
#[derive(Debug, Clone, Copy, Default)]
struct Interval {
    lo: Option<(Number, bool)>,
    hi: Option<(Number, bool)>,
}

impl Interval {
    /// Both ends are known and leave nothing between them. With an end
    /// unknown it is never empty: a value that does not read as a number
    /// orders below every number (`Bool`) or above it (text) against a
    /// number literal, so it passes every bound on one side.
    fn empty(&self) -> bool {
        let (Some((lo, lo_open)), Some((hi, hi_open))) = (self.lo, self.hi) else {
            return false;
        };
        match lo.total_cmp(hi) {
            Ordering::Greater => true,
            Ordering::Equal => lo_open || hi_open,
            Ordering::Less => false,
        }
    }

    fn clamp_lo(&mut self, v: Number, open: bool) {
        if tighter(self.lo, v, open, Ordering::Greater) {
            self.lo = Some((v, open));
        }
    }

    fn clamp_hi(&mut self, v: Number, open: bool) {
        if tighter(self.hi, v, open, Ordering::Less) {
            self.hi = Some((v, open));
        }
    }
}

/// Whether the end `(v, open)` cuts more than `end`, on the side where
/// cutting more means ordering `inward` of it.
fn tighter(end: Option<(Number, bool)>, v: Number, open: bool, inward: Ordering) -> bool {
    end.is_none_or(|(at, at_open)| match v.total_cmp(at) {
        Ordering::Equal => open && !at_open,
        ord => ord == inward,
    })
}

/// Flatten a conjunction, fold its literal conjuncts, and intersect the
/// numeric intervals its column-vs-literal comparisons imply.
fn analyze_conjunction(expr: &ScalarExpr, bounds: ColumnBounds) -> Verdict {
    let mut conjuncts = Vec::new();
    flatten_and(expr, &mut conjuncts);

    let mut intervals: BTreeMap<usize, Interval> = BTreeMap::new();
    // Non-numeric equality constraints: col = "literal". Two different
    // required lexical values contradict.
    let mut text_eq: BTreeMap<usize, String> = BTreeMap::new();
    let mut all_always_true = true;

    for c in &conjuncts {
        match conjunct_verdict(c, bounds, &mut intervals, &mut text_eq) {
            Verdict::Unsatisfiable => return Verdict::Unsatisfiable,
            Verdict::AlwaysTrue => {}
            Verdict::Unknown => all_always_true = false,
        }
    }

    for (col, iv) in &mut intervals {
        if let Some((lo, hi)) = bounds(*col) {
            iv.clamp_lo(lo, false);
            iv.clamp_hi(hi, false);
        }
        if iv.empty() {
            return Verdict::Unsatisfiable;
        }
    }

    if all_always_true {
        Verdict::AlwaysTrue
    } else {
        Verdict::Unknown
    }
}

fn flatten_and<'e>(expr: &'e ScalarExpr, out: &mut Vec<&'e ScalarExpr>) {
    match expr {
        ScalarExpr::And(l, r) => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other),
    }
}

/// Analyze one conjunct: literal folding, interval accumulation for
/// `col OP literal` shapes, and recursion for nested Or/Not.
fn conjunct_verdict(
    c: &ScalarExpr,
    bounds: ColumnBounds,
    intervals: &mut BTreeMap<usize, Interval>,
    text_eq: &mut BTreeMap<usize, String>,
) -> Verdict {
    match c {
        ScalarExpr::Cmp(op, l, r) => match (l.as_ref(), r.as_ref()) {
            (ScalarExpr::Lit(lv), ScalarExpr::Lit(rv)) => {
                if compare(*op, lv, rv) {
                    Verdict::AlwaysTrue
                } else {
                    Verdict::Unsatisfiable
                }
            }
            (ScalarExpr::Col(i), ScalarExpr::Lit(v)) => {
                constrain(*op, *i, v, false, intervals, text_eq)
            }
            (ScalarExpr::Lit(v), ScalarExpr::Col(i)) => {
                constrain(*op, *i, v, true, intervals, text_eq)
            }
            _ => Verdict::Unknown,
        },
        // A nested disjunction or negation inside the conjunction gets
        // its own recursive verdict (an unsatisfiable disjunct kills
        // the whole conjunction).
        other => analyze(other, bounds),
    }
}

/// Fold `col OP lit` (or `lit OP col` when `flipped`) into the running
/// interval/text-equality state. Returns `Unknown` for shapes the state
/// cannot capture (`!=`, LIKE, non-scalar literals).
fn constrain(
    op: CmpOp,
    col: usize,
    lit: &LiteralValue,
    flipped: bool,
    intervals: &mut BTreeMap<usize, Interval>,
    text_eq: &mut BTreeMap<usize, String>,
) -> Verdict {
    // Normalize `lit OP col` to `col OP' lit` by mirroring the operator.
    let op = if flipped { op.flipped().unwrap_or(op) } else { op };

    // A number, or text that reads as one under `=`: text orders other
    // text by its spelling, not on the number line, so only its equality
    // is a point there.
    let read = |a: &Atomic| a.numeric().filter(|_| op == CmpOp::Eq || a.as_str().is_none());
    if let Some(n) = lit.with_atomic(read) {
        let iv = intervals.entry(col).or_default();
        match op {
            CmpOp::Eq => {
                iv.clamp_lo(n, false);
                iv.clamp_hi(n, false);
            }
            CmpOp::Lt => iv.clamp_hi(n, true),
            CmpOp::Le => iv.clamp_hi(n, false),
            CmpOp::Gt => iv.clamp_lo(n, true),
            CmpOp::Ge => iv.clamp_lo(n, false),
            CmpOp::Ne | CmpOp::Like => return Verdict::Unknown,
        }
        if iv.empty() {
            return Verdict::Unsatisfiable;
        }
        return Verdict::Unknown;
    }

    // Non-numeric literal: only equality carries usable information —
    // two different required values for one column contradict. (The
    // runtime compares non-numeric operands lexically, so lexical
    // equality is the right equivalence.)
    if op == CmpOp::Eq {
        let want = literal_lexical(lit);
        match text_eq.get(&col) {
            Some(existing) if existing != &want => return Verdict::Unsatisfiable,
            _ => {
                text_eq.insert(col, want);
            }
        }
    }
    Verdict::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_algebra::expr::CmpOp;
    use nimble_algebra::ScalarExpr;

    fn col_cmp(op: CmpOp, col: usize, n: i64) -> ScalarExpr {
        ScalarExpr::cmp(op, ScalarExpr::Col(col), ScalarExpr::lit(n))
    }

    fn and(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::And(Box::new(l), Box::new(r))
    }

    #[test]
    fn contradictory_range_is_unsatisfiable() {
        // x > 5 AND x < 3
        let e = and(col_cmp(CmpOp::Gt, 0, 5), col_cmp(CmpOp::Lt, 0, 3));
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
    }

    #[test]
    fn open_interval_edge_is_unsatisfiable() {
        // x > 5 AND x <= 5
        let e = and(col_cmp(CmpOp::Gt, 0, 5), col_cmp(CmpOp::Le, 0, 5));
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
        // x >= 5 AND x <= 5 is satisfiable (x = 5).
        let e = and(col_cmp(CmpOp::Ge, 0, 5), col_cmp(CmpOp::Le, 0, 5));
        assert_eq!(analyze_pure(&e), Verdict::Unknown);
    }

    #[test]
    fn literal_comparisons_fold() {
        let e = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::lit(5i64), ScalarExpr::lit(3i64));
        assert_eq!(analyze_pure(&e), Verdict::AlwaysTrue);
        let e = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::lit(5i64), ScalarExpr::lit(3i64));
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
        assert_eq!(analyze_pure(&ScalarExpr::lit(false)), Verdict::Unsatisfiable);
        assert_eq!(analyze_pure(&ScalarExpr::lit(true)), Verdict::AlwaysTrue);
    }

    #[test]
    fn conflicting_text_equalities_contradict() {
        let e = and(
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(0), ScalarExpr::lit("east")),
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(0), ScalarExpr::lit("west")),
        );
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
        // Same value twice is fine.
        let e = and(
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(0), ScalarExpr::lit("east")),
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(0), ScalarExpr::lit("east")),
        );
        assert_eq!(analyze_pure(&e), Verdict::Unknown);
    }

    #[test]
    fn exact_bounds_refute_out_of_range_predicates() {
        let bounds = |c: usize| (c == 0).then_some((OrderKey::Int(10), OrderKey::Int(20)));
        // x < 5 with x in [10, 20]
        assert_eq!(
            analyze(&col_cmp(CmpOp::Lt, 0, 5), &bounds),
            Verdict::Unsatisfiable
        );
        // x = 25 with x in [10, 20]
        assert_eq!(
            analyze(&col_cmp(CmpOp::Eq, 0, 25), &bounds),
            Verdict::Unsatisfiable
        );
        // x > 15 is satisfiable within [10, 20] — and must NOT be
        // promoted to AlwaysTrue from bounds.
        assert_eq!(analyze(&col_cmp(CmpOp::Gt, 0, 15), &bounds), Verdict::Unknown);
        assert_eq!(analyze(&col_cmp(CmpOp::Ge, 0, 10), &bounds), Verdict::Unknown);
    }

    #[test]
    fn disjunction_and_negation() {
        let unsat = and(col_cmp(CmpOp::Gt, 0, 5), col_cmp(CmpOp::Lt, 0, 3));
        let sat = col_cmp(CmpOp::Gt, 0, 2);
        // unsat OR sat → Unknown; unsat OR unsat → Unsatisfiable.
        let e = ScalarExpr::Or(Box::new(unsat.clone()), Box::new(sat.clone()));
        assert_eq!(analyze_pure(&e), Verdict::Unknown);
        let e = ScalarExpr::Or(Box::new(unsat.clone()), Box::new(unsat.clone()));
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
        // NOT folds only pure-logic verdicts.
        let e = ScalarExpr::Not(Box::new(ScalarExpr::lit(false)));
        assert_eq!(analyze_pure(&e), Verdict::AlwaysTrue);
        let e = ScalarExpr::Not(Box::new(unsat));
        assert_eq!(analyze_pure(&e), Verdict::AlwaysTrue);
    }

    #[test]
    fn negation_never_uses_bounds() {
        let bounds = |c: usize| (c == 0).then_some((OrderKey::Int(10), OrderKey::Int(20)));
        // NOT(x < 5): bounds would prove the inner unsatisfiable, but
        // promoting the negation to AlwaysTrue would rest on sampled
        // data; must stay Unknown.
        let e = ScalarExpr::Not(Box::new(col_cmp(CmpOp::Lt, 0, 5)));
        assert_eq!(analyze(&e, &bounds), Verdict::Unknown);
    }

    #[test]
    fn flipped_operand_order_normalizes() {
        // 5 > x AND 3 < x  ≡  x < 5 AND x > 3 — satisfiable.
        let e = and(
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::lit(5i64), ScalarExpr::Col(0)),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::lit(3i64), ScalarExpr::Col(0)),
        );
        assert_eq!(analyze_pure(&e), Verdict::Unknown);
        // 3 > x AND 5 < x  ≡  x < 3 AND x > 5 — contradiction.
        let e = and(
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::lit(3i64), ScalarExpr::Col(0)),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::lit(5i64), ScalarExpr::Col(0)),
        );
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
    }

    #[test]
    fn numeric_strings_join_the_interval_domain() {
        // region = "10" AND region > 20 — "10" coerces numerically.
        let e = and(
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(0), ScalarExpr::lit("10")),
            col_cmp(CmpOp::Gt, 0, 20),
        );
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
    }

    #[test]
    fn integer_ends_are_exact_past_2_pow_53() {
        // 2^53 and 2^53 + 1 are one f64, but two integers.
        let edge = 9_007_199_254_740_992i64;
        let e = and(col_cmp(CmpOp::Gt, 0, edge), col_cmp(CmpOp::Le, 0, edge + 1));
        assert_eq!(analyze_pure(&e), Verdict::Unknown);
        let e = and(col_cmp(CmpOp::Gt, 0, edge), col_cmp(CmpOp::Le, 0, edge));
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
        // A column whose largest value is 2^53 + 1 holds one above 2^53.
        let bounds = |_: usize| Some((OrderKey::Int(-1), OrderKey::Int(edge + 1)));
        assert_eq!(analyze(&col_cmp(CmpOp::Gt, 0, edge), &bounds), Verdict::Unknown);
        assert_eq!(analyze(&col_cmp(CmpOp::Gt, 0, edge + 1), &bounds), Verdict::Unsatisfiable);
        // An integer and the float it rounds to are different points.
        let e = and(
            col_cmp(CmpOp::Eq, 0, edge + 1),
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(0), ScalarExpr::lit(edge as f64)),
        );
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
    }

    #[test]
    fn numeric_text_orders_text_by_its_spelling() {
        // "2x" > "10" and "2x" < "5" both hold: text that does not read as
        // a number compares with numeric text as text.
        let text = |op, t: &str| ScalarExpr::cmp(op, ScalarExpr::Col(0), ScalarExpr::lit(t));
        let e = and(text(CmpOp::Gt, "10"), text(CmpOp::Lt, "5"));
        assert_eq!(analyze_pure(&e), Verdict::Unknown);
        // Against number literals, text orders above every number: it
        // passes `> 10` and fails `< 5`.
        let e = and(col_cmp(CmpOp::Gt, 0, 10), col_cmp(CmpOp::Lt, 0, 5));
        assert_eq!(analyze_pure(&e), Verdict::Unsatisfiable);
    }

    #[test]
    fn opaque_shapes_stay_unknown() {
        let e = ScalarExpr::Call("f".into(), vec![ScalarExpr::Col(0)]);
        assert_eq!(analyze_pure(&e), Verdict::Unknown);
        let e = and(
            ScalarExpr::Call("f".into(), vec![]),
            col_cmp(CmpOp::Gt, 0, 2),
        );
        assert_eq!(analyze_pure(&e), Verdict::Unknown);
        // x != 5 claims nothing.
        assert_eq!(analyze_pure(&col_cmp(CmpOp::Ne, 0, 5)), Verdict::Unknown);
    }
}
