//! The bind stage (DESIGN.md §18): one fragment's join keys shipped to
//! the others that bind the same variable, where the estimates say it
//! pays.

use super::*;

/// The bind stage, between the estimates and the fold order (see
/// [`BindStage`]; the argument and the rules are DESIGN.md §18).
///
/// The driver is the fragment estimated smallest. A single-collection
/// fragment that shares a variable with it is a target when its source
/// evaluates selections, both fields are declared the same key-able
/// type (`Int`, `Str` or `Bool`: the keys are data, and only these
/// spell the same in every source's language), and the estimated
/// distinct keys are at most [`cost::BIND_MAX_KEYS`] and at most
/// 1/[`cost::BIND_MIN_SHRINK`] of the target's estimated rows (and the
/// target is not already pinned to one key by an equality). When the
/// driver shares several variables, the one whose targets save the most
/// estimated rows is bound ([`bind_choice`]); a stage binds one
/// variable.
///
/// Lowers the targets' `est_rows` to what the keys are expected to
/// leave, records the stage as a `bind-join` rewrite, and explains each
/// decision in the notes.
pub(super) fn plan_bind_stage(catalog: &Catalog, plan: &mut Plan) {
    let Some(driver) = (0..plan.independents.len())
        .filter(|&i| matches!(plan.independents[i], AtomExec::Fragment { .. }))
        .min_by_key(|&i| plan.est_rows[i])
    else {
        return;
    };
    let AtomExec::Fragment { source, query, vars } = &plan.independents[driver] else {
        return;
    };
    let mut best: Option<Choice> = None;
    for (var, field) in &query.outputs {
        let Some(choice) = bind_choice(catalog, plan, driver, var, field) else {
            continue;
        };
        if best.as_ref().is_none_or(|most| choice.saved > most.saved) {
            best = Some(choice);
        }
    }
    let Some(choice) = best else {
        return;
    };

    let driver_source = source.clone();
    let mut cols: Vec<String> = vars.clone();
    let mut sources = vec![driver_source.clone()];
    let mut placements: Vec<Placement> = Vec::new();
    let pred = format!("${} in keys({})", choice.var, driver_source);
    let (mut before_rows, mut after_rows) = (0u64, 0u64);
    for (t, _, reduced) in &choice.targets {
        if let AtomExec::Fragment { source, vars, .. } = &plan.independents[*t] {
            cols.extend(vars.iter().cloned());
            sources.push(source.clone());
            placements.push(Placement {
                pred: pred.clone(),
                var: choice.var.clone(),
                source: source.clone(),
                outputs: vars.clone(),
                reads: None,
            });
        }
        before_rows = before_rows.saturating_add(plan.est_rows[*t]);
        after_rows = after_rows.saturating_add(*reduced);
    }
    for (source, why) in &choice.declined {
        plan.notes.push(format!("bind ${} not sent to {}: {}", choice.var, source, why.tag()));
    }
    if choice.targets.is_empty() {
        return;
    }
    plan.notes.push(format!(
        "bind ${}: {} \u{2192} {} (~{} keys)",
        choice.var,
        driver_source,
        sources[1..].join(", "),
        choice.est_keys
    ));
    // Rewrite record: the central join already restricts every target
    // to the driver's keys, and still does; the stage only ships copies
    // of that restriction to fragments that bind the variable, so the
    // columns, the key, the sources and the restriction all stay and the
    // row bound can only fall.
    let fingerprint = |rows: u64| {
        Fingerprint::new(cols.clone())
            .with_keys(vec![choice.var.clone()])
            .with_extra(vec![pred.clone()])
            .with_sources(sources.clone())
            .with_card_bound(rows)
    };
    plan.rewrites.push(
        RewriteRecord::new("bind-join", true, fingerprint(before_rows), fingerprint(after_rows))
            .with_placements(placements),
    );
    let mut targets = Vec::with_capacity(choice.targets.len());
    for (t, field, reduced) in choice.targets {
        plan.est_rows[t] = reduced;
        targets.push(BindTarget { atom: t, field });
    }
    plan.bind = Some(BindStage {
        driver,
        var: choice.var,
        key_type: choice.key_type,
        est_keys: choice.est_keys,
        targets,
    });
}

/// One variable's candidate bind stage.
struct Choice {
    var: String,
    key_type: AtomicType,
    est_keys: u64,
    /// Target, its field, its estimate under the keys.
    targets: Vec<(usize, FieldRef, u64)>,
    declined: Vec<(String, Declined)>,
    /// Estimated target rows the keys spare.
    saved: u64,
}

/// The stage that would bind `var`, which the fragment `driver` reads
/// from `driver_field`: its targets, with what the keys are estimated to
/// leave of each, and the fragments declined and why. `None` when no
/// other single-collection fragment binds the variable.
fn bind_choice(catalog: &Catalog, plan: &Plan, driver: usize, var: &str, driver_field: &FieldRef) -> Option<Choice> {
    let AtomExec::Fragment { source, query: driver_query, .. } = &plan.independents[driver] else {
        return None;
    };
    let driver_adapter = catalog.source(source)?;
    // The other single-collection fragments that bind the variable.
    let candidates: Vec<(usize, &String, &SourceQuery, &FieldRef)> = (0..plan.independents.len())
        .filter(|&t| t != driver)
        .filter_map(|t| {
            let AtomExec::Fragment { source, query, .. } = &plan.independents[t] else {
                return None;
            };
            let field = query.outputs.iter().find(|(v, _)| v == var).map(|(_, f)| f)?;
            (query.collections.len() == 1).then_some((t, source, query, field))
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let est_keys = cost::var_distinct(catalog, &plan.independents[driver], var)
        .unwrap_or(u64::MAX)
        .min(plan.est_rows[driver]);
    // Looked up for the first candidate that gets as far as needing it:
    // collection metadata is the dear part of this pass.
    let mut driver_type: Option<Option<AtomicType>> = None;
    let mut choice = Choice {
        var: var.to_string(),
        key_type: AtomicType::Null,
        est_keys,
        targets: Vec::new(),
        declined: Vec::new(),
        saved: 0,
    };
    for (t, source, query, field) in candidates {
        let Some(adapter) = catalog.source(source) else {
            continue;
        };
        let est = plan.est_rows[t];
        let why = if !adapter.capabilities().selections {
            Some(Declined::Caps)
        } else if est_keys > cost::BIND_MAX_KEYS
            || est_keys.saturating_mul(cost::BIND_MIN_SHRINK) > est
            // An equality already pins the target to one value of the
            // key; a list cannot shrink it further, whatever the
            // (independence-assuming) estimate says.
            || query.selections.iter().any(|s| s.op == PredOp::Eq && &s.field == field)
        {
            Some(Declined::Cost(est_keys as f64 / est.max(1) as f64))
        } else {
            let key_type = *driver_type.get_or_insert_with(|| {
                field_type(driver_adapter.as_ref(), driver_query, driver_field)
                    .filter(|t| matches!(t, AtomicType::Int | AtomicType::Str | AtomicType::Bool))
            });
            match key_type {
                Some(ty) if field_type(adapter.as_ref(), query, field) == Some(ty) => {
                    choice.key_type = ty;
                    None
                }
                _ => Some(Declined::Type),
            }
        };
        match why {
            Some(why) => choice.declined.push((source.clone(), why)),
            None => {
                // Each key finds rows/distinct rows of the target.
                let distinct = cost::var_distinct(catalog, &plan.independents[t], var).unwrap_or(est).max(1);
                let reduced = cost::clamp_rows(est as f64 * (est_keys as f64 / distinct as f64).min(1.0));
                choice.saved += est.saturating_sub(reduced);
                choice.targets.push((t, field.clone(), reduced.min(est)));
            }
        }
    }
    Some(choice)
}
