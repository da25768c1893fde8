//! Candidate probes (DESIGN.md §22): the residual conjuncts a central
//! match checks on each candidate before matching it, and what the plan
//! says of them for planck's `candidate-probe` rule.

use super::*;

/// Candidate probes (DESIGN.md §22): record as a [`Probe`] every
/// residual conjunct a central match can check on its candidates, and
/// apply the Filter's default selectivity once per probe to the probed
/// atom's estimate, and once per probed conjunct to the fold's (the
/// Filter's own estimate leaves those conjuncts out). A conjunct
/// qualifies when
///
/// * (a) it compiles to a [`LiteralTest`] of one variable
///   ([`probe_test`]): comparisons of it with literals under
///   `AND`/`OR`/`NOT`, which cannot fail — arithmetic and calls stay in
///   the Filter alone;
/// * (b) if another unit binds that variable too (another atom, or the
///   `outer` row), the test holds no `LIKE` — the row a join leaves may
///   hold the other unit's `typed_key`-equal value, and the matcher
///   prunes only where both compare alike ([`Probe::joined`]);
///
/// and no conjunct ahead of it in the Filter can fail: the Filter stops
/// a row at its first false conjunct and raises at its first failing
/// one, so a row the probe removed could have been the row to raise. It
/// is then a probe of every `FetchMatch` or `ViewMatch` atom no shard
/// plan routes that binds the variable
///
/// * (c) once, as a content `$v` or an attribute `a=$v`,
/// * (d) under the candidate at a path of plain element names.
pub(super) fn plan_probes(plan: &mut Plan, outer: Option<&Schema>) {
    let mut probes = Vec::new();
    for (conjunct, pred) in plan.residual_predicates.iter().enumerate() {
        probes.extend(probes_of(plan, outer, conjunct, pred));
        if may_fail(pred) {
            break;
        }
    }
    let shrink = |rows: u64, probes: usize| match probes {
        0 => rows,
        n => cost::clamp_rows(rows as f64 * cost::DEFAULT_SELECTIVITY.powi(n as i32)),
    };
    for (i, est) in plan.est_rows.iter_mut().enumerate() {
        *est = shrink(*est, probes.iter().filter(|p| p.atom == i).count());
    }
    let mut folded: Vec<usize> = Vec::new();
    for (rows, &i) in plan.fold_rows.iter_mut().zip(&plan.fold_order) {
        for p in probes.iter().filter(|p| p.atom == i) {
            if !folded.contains(&p.conjunct) {
                folded.push(p.conjunct);
            }
        }
        *rows = shrink(*rows, folded.len());
    }
    plan.probes = probes;
}

/// The probes conjunct `conjunct` makes, one per atom that conditions
/// (a)–(d) of [`plan_probes`] admit.
fn probes_of(plan: &Plan, outer: Option<&Schema>, conjunct: usize, pred: &Expr) -> Vec<Probe> {
    let mut vars = pred.vars();
    vars.sort();
    vars.dedup();
    let [var] = vars.as_slice() else {
        return Vec::new();
    };
    let Some(test) = probe_test(pred, var) else {
        return Vec::new();
    };
    if plan.dependents.iter().any(|d| &d.on_var == var || d.vars.contains(var)) {
        return Vec::new();
    }
    let binders: Vec<usize> = (0..plan.independents.len())
        .filter(|&i| plan.independents[i].vars().contains(var))
        .collect();
    let joined = binders_of(plan, outer, var) > 1;
    if joined && !test.all(&|c| c.op != CmpOp::Like) {
        return Vec::new();
    }
    binders
        .into_iter()
        .filter_map(|atom| {
            let (AtomExec::FetchMatch { pattern, .. } | AtomExec::ViewMatch { pattern, .. }) = &plan.independents[atom]
            else {
                return None;
            };
            if plan.shards.iter().any(|s| s.atom == atom) {
                return None;
            }
            let [site] = var_sites(pattern, var).try_into().ok()?;
            let (read, steps) = site.split_last()?;
            let attr = match read.as_str() {
                "$" => None,
                read => Some(read.strip_prefix('@')?.to_string()),
            };
            steps.iter().all(|s| plain_step(s)).then(|| Probe {
                atom,
                conjunct,
                var: var.clone(),
                path: steps.to_vec(),
                attr,
                joined,
            })
        })
        .collect()
}

/// Whether evaluating `e` can fail: arithmetic, negation and calls can;
/// comparisons and connectives of variables and literals cannot.
pub(super) fn may_fail(e: &Expr) -> bool {
    match e {
        Expr::Var(_) | Expr::Lit(_) => false,
        Expr::Not(e) => may_fail(e),
        Expr::Binary(op, l, r) => {
            matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
                || may_fail(l)
                || may_fail(r)
        }
        Expr::Neg(_) | Expr::Call(..) => true,
    }
}

/// A pattern tag as the query spells it.
pub(super) fn tag_step(tag: &TagPattern) -> String {
    match tag {
        TagPattern::Name(n) => n.clone(),
        TagPattern::Wildcard => "*".to_string(),
        TagPattern::Descendant(n) => format!("**{}", n),
        TagPattern::ClosurePlus(n) => format!("{}+", n),
    }
}

/// A step [`tag_step`] spelled from a plain element name.
fn plain_step(step: &str) -> bool {
    !step.starts_with('*') && !step.ends_with('+')
}

/// Every place `var` occurs in `pattern`: the steps from the pattern's
/// own element down ([`tag_step`]), then how it binds there — `$` for
/// content, `@name` for an attribute, `ELEMENT_AS` or `CONTENT_AS`.
pub(super) fn var_sites(pattern: &Pattern, var: &str) -> Vec<Vec<String>> {
    fn walk(p: &Pattern, var: &str, steps: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        let site = |steps: &[String], read: &str| steps.iter().cloned().chain([read.to_string()]).collect();
        for a in &p.attrs {
            if matches!(&a.value, PatternValue::Var(v) if v == var) {
                out.push(site(steps, &format!("@{}", a.name)));
            }
        }
        if p.element_as.as_deref() == Some(var) {
            out.push(site(steps, "ELEMENT_AS"));
        }
        if p.content_as.as_deref() == Some(var) {
            out.push(site(steps, "CONTENT_AS"));
        }
        for c in &p.content {
            match c {
                PatternContent::Var(v) if v == var => out.push(site(steps, "$")),
                PatternContent::Nested(sub) => {
                    steps.push(tag_step(&sub.tag));
                    walk(sub, var, steps, out);
                    steps.pop();
                }
                PatternContent::Var(_) | PatternContent::Lit(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(pattern, var, &mut Vec::new(), &mut out);
    out
}

/// What the plan says about each of its probes, read off its atoms,
/// dependents, predicates and `outer` (the correlated context it runs
/// under), for planck's `candidate-probe` rule.
pub(super) fn probe_facts(plan: &Plan, outer: Option<&Schema>) -> Vec<ProbeFacts> {
    plan.probes
        .iter()
        .map(|p| {
            let conjunct = plan.residual_predicates.get(p.conjunct);
            let pattern = match plan.independents.get(p.atom) {
                Some(AtomExec::FetchMatch { pattern, .. } | AtomExec::ViewMatch { pattern, .. }) => Some(pattern),
                _ => None,
            };
            ProbeFacts {
                probe: format!("${} (conjunct {}, atom {})", p.var, p.conjunct, p.atom),
                var: p.var.clone(),
                vars: conjunct.map(Expr::vars).unwrap_or_default(),
                test: conjunct.and_then(|c| probe_test(c, &p.var)),
                joined: p.joined,
                failing_before: plan.residual_predicates.iter().take(p.conjunct).filter(|e| may_fail(e)).count(),
                binders: binders_of(plan, outer, &p.var),
                central: pattern.is_some() && !plan.shards.iter().any(|s| s.atom == p.atom),
                occurrences: pattern.map(|pattern| var_sites(pattern, &p.var)).unwrap_or_default(),
                walk: p.walk(),
            }
        })
        .collect()
}

/// A probe's conjunct as the matcher tests it: compiled for a one-column
/// row holding `var`. `None` when it reads another variable or is not a
/// literal test.
pub(crate) fn probe_test(conjunct: &Expr, var: &str) -> Option<LiteralTest> {
    let column = Schema::try_new(vec![var.to_string()]).ok()?;
    LiteralTest::compile(&translate_expr(conjunct, &column).ok()?, 1)
}
