//! Materializing a mediated view and keeping it fresh (§3.3, DESIGN.md
//! §21). A refresh evaluates the view's own plan through the one
//! executor, either over the whole of every source collection — the
//! document is rebuilt — or, when the stored document says how far into
//! each append-only collection it reaches and exactly one of them has
//! grown since, over the rows that collection gained: the new rows are
//! constructed on their own and appended to the stored document, in
//! place unless a reader holds it. Every answer a
//! delta rests on is checked against the mark it was asked to continue
//! from; anything that does not check recomputes in full, in the same
//! call, and says why.

use super::session::Settings;
use super::*;
use crate::catalog::ViewDef;
use crate::planner::Refresh;
use nimble_store::ViewMark;
use nimble_xmlql::ast::{ElementTemplate, TemplateNode};

/// Why a refresh recomputed the view instead of appending to it; the
/// suffix of `engine.view.refresh.full.<reason>`.
type Decline = &'static str;

impl Engine {
    /// Materialize a mediated view into the local store with the given
    /// TTL (or the view's default), or refresh the copy that is there.
    /// "One materializes views over the mediated schema" — the stored
    /// artifact is the view's result document. A refresh that cannot get
    /// a live answer from every source leaves the stored copy as it was.
    pub fn materialize_view(&self, name: &str, ttl: Option<u64>) -> Result<(), CoreError> {
        let def = self
            .catalog
            .view(name)
            .ok_or_else(|| CoreError::UnknownCollection(name.to_string()))?;
        let started = Instant::now();
        // One read of the settings holds for the whole refresh: each of
        // its runs takes a fresh context under them. Nobody reads a
        // refresh's EXPLAIN text or its lineage.
        let scope = Settings {
            track: false,
            want_plan_text: false,
            ..Settings::new(self.config())
        };
        let outcome = self.refresh_view(&def, ttl.or(def.default_ttl), scope);
        self.metrics.observe("engine.view.refresh_us", us(ms_since(started)));
        if let Err(e) = &outcome {
            self.metrics
                .incr(&format!("engine.view.refresh.failed.{}", e.kind()), 1);
        }
        outcome
    }

    /// Refresh every view whose TTL has lapsed; returns the refreshed
    /// names ("should be refreshed on demand"). One that failed is not
    /// among them and is counted under `engine.view.refresh.failed.*`.
    pub fn refresh_stale_views(&self) -> Vec<String> {
        let mut refreshed = Vec::new();
        for name in self.views.stale_views(self.clock.now()) {
            let ttl = self.views.peek(&name).and_then(|v| v.ttl);
            if self.materialize_view(&name, ttl).is_ok() {
                refreshed.push(name);
            }
        }
        refreshed
    }

    fn refresh_view(&self, def: &ViewDef, ttl: Option<u64>, scope: Settings) -> Result<(), CoreError> {
        // What the entry says, not its document: no store guard is held
        // across a source call, and a refresh that held the document
        // would make its own append copy it.
        let stored = self.views.peek(&def.name).map(|v| (v.definition, v.marks));
        let why = match &stored {
            None => Some("first"),
            Some((text, _)) if *text != def.text => Some("definition"),
            // No marks: the full plan below says whether its shape or an
            // unstamped answer is why.
            Some((_, marks)) if marks.is_empty() => None,
            Some((_, marks)) => match self.refresh_delta(def, marks, ttl, scope)? {
                None => return Ok(()),
                declined => declined,
            },
        };
        self.refresh_full(def, ttl, why, scope)
    }

    /// Rebuild the view's document from the whole of its sources. Every
    /// single-collection fragment is asked with a floor of 0, so that a
    /// source that can say how far it read does; the marks are kept when
    /// the plan is row-wise and every fragment was stamped.
    fn refresh_full(
        &self,
        def: &ViewDef,
        ttl: Option<u64>,
        why: Option<Decline>,
        scope: Settings,
    ) -> Result<(), CoreError> {
        let full = Scope {
            refresh: Some(Refresh::Full),
            ..Scope::default()
        };
        let plan = self.plan(&def.query, &scope.config.optimizer, full)?;
        let (schema, tuples, mut ctx) = self.run_refresh(&def.query, &plan, scope)?;
        let mut b = DocumentBuilder::new("results");
        self.construct_into(&mut b, &def.query.construct, &schema, &tuples, &mut ctx, None)?;
        answered_live(&ctx.found, &def.name)?;
        let fragments = row_wise(&def.query, &plan);
        // All of them, each read from row 0, or none.
        let marks: Vec<ViewMark> = fragments
            .iter()
            .flatten()
            .map(|collection| {
                let w = mark_of(&ctx.found, collection).filter(|w| w.from == 0)?;
                Some(ViewMark {
                    collection: collection.clone(),
                    generation: w.generation,
                    upto: w.upto,
                })
            })
            .collect::<Option<_>>()
            .unwrap_or_default();
        let why = why.unwrap_or(if fragments.is_some() { "unstamped" } else { "shape" });
        self.views.materialize_marked(
            &def.name,
            &def.text,
            b.finish(),
            self.clock.now(),
            ttl,
            marks,
            &format!("full ({})", why),
        );
        self.metrics.incr("engine.view.refresh.full", 1);
        self.metrics.incr(&format!("engine.view.refresh.full.{}", why), 1);
        Ok(())
    }

    /// Try to refresh the stored document, built up to `stored` marks,
    /// from the rows one collection gained. `Ok(None)`: done, the rows
    /// are appended. `Ok(Some(reason))`: not this time — nothing was
    /// stored, recompute.
    fn refresh_delta(
        &self,
        def: &ViewDef,
        stored: &[ViewMark],
        ttl: Option<u64>,
        scope: Settings,
    ) -> Result<Option<Decline>, CoreError> {
        // The hint — what each source says its collection's length is,
        // a call the source does not count as a query — picks the one
        // collection to floor. The proof is on the answers, below.
        let mut grown: Vec<&ViewMark> = Vec::new();
        for mark in stored {
            let rows = mark
                .collection
                .split_once('.')
                .and_then(|(source, collection)| self.catalog.source(source)?.estimated_rows(collection));
            match rows {
                None => return Ok(Some("unstamped")),
                Some(rows) if rows < mark.upto => return Ok(Some("generation")),
                Some(rows) if rows > mark.upto => grown.push(mark),
                Some(_) => {}
            }
        }
        let floored = match grown.as_slice() {
            // Nothing grew: any one fragment's empty delta says so.
            [] => &stored[0],
            [one] => *one,
            _ => return Ok(Some("several_grew")),
        };
        let delta = Scope {
            refresh: Some(Refresh::Delta(&floored.collection, floored.upto)),
            ..Scope::default()
        };
        let plan = self.plan(&def.query, &scope.config.optimizer, delta)?;
        let same_fragments = row_wise(&def.query, &plan).is_some_and(|fragments| {
            fragments.len() == stored.len() && stored.iter().all(|m| fragments.contains(&m.collection))
        });
        if !same_fragments {
            return Ok(Some("shape"));
        }
        let (schema, tuples, mut ctx) = self.run_refresh(&def.query, &plan, scope)?;
        answered_live(&ctx.found, &def.name)?;

        // Every fragment that was asked answered with a stamp (one that
        // was not — the delta bound no key for it — keeps its mark), the
        // floored one continues where the stored document stops, and no
        // other collection has moved.
        if ctx.found.marks.len() != ctx.found.fragments_pushed {
            return Ok(Some("unstamped"));
        }
        let mut marks = stored.to_vec();
        let mut gained = 0..0;
        for mark in &mut marks {
            let Some(w) = mark_of(&ctx.found, &mark.collection) else {
                continue;
            };
            if w.generation != mark.generation {
                return Ok(Some("generation"));
            }
            if mark.collection == floored.collection {
                if w.from != mark.upto || w.upto < w.from {
                    return Ok(Some("verify"));
                }
                gained = w.from..w.upto;
                mark.upto = w.upto;
            } else if w.from != 0 || w.upto < mark.upto {
                return Ok(Some("verify"));
            } else if w.upto > mark.upto {
                return Ok(Some("several_grew"));
            }
        }

        // The new rows, on their own, go behind the stored ones — unless
        // another refresh stored something else meanwhile.
        let mut b = DocumentBuilder::new("results");
        self.construct_into(&mut b, &def.query.construct, &schema, &tuples, &mut ctx, None)?;
        let appended = self.views.append_marked(
            &def.name,
            &def.text,
            stored,
            &b.finish(),
            self.clock.now(),
            ttl,
            marks,
            &format!("delta {} {}..{}", floored.collection, gained.start, gained.end),
        );
        let Some(in_place) = appended else {
            return Ok(Some("raced"));
        };
        self.metrics.incr("engine.view.refresh.delta", 1);
        self.metrics.incr(
            if in_place { "engine.view.refresh.in_place" } else { "engine.view.refresh.copied" },
            1,
        );
        Ok(None)
    }

    /// Run `query`'s refresh plan through the executor, in a fresh
    /// context under the refresh's settings. The context comes back with
    /// the watermarks the sources stamped.
    fn run_refresh(
        &self,
        query: &Query,
        plan: &Plan,
        scope: Settings,
    ) -> Result<(Schema, Vec<Tuple>, ExecCtx<'static>), CoreError> {
        let mut ctx = ExecCtx::new(scope);
        let (schema, tuples) = self.eval_planned(plan, &query.eq_params(), None, &mut ctx, true, None)?;
        Ok((schema, tuples, ctx))
    }
}

/// A stored view is built from live answers only: one that a skipped
/// source or a cached copy stood in for would be kept as fresh.
fn answered_live(found: &Found, view: &str) -> Result<(), CoreError> {
    if found.missing.is_empty() && !found.stale {
        return Ok(());
    }
    let which = match found.missing.as_slice() {
        [] => "an answer was served from the stale cache".to_string(),
        missing => missing.join(", "),
    };
    Err(CoreError::Exec(format!(
        "cannot materialize {:?}: sources unavailable ({})",
        view, which
    )))
}

fn mark_of(found: &Found, collection: &str) -> Option<Watermark> {
    found.marks.iter().find(|(c, _)| c == collection).map(|(_, w)| *w)
}

/// The `source.collection` of every fragment, when the view is
/// **row-wise**: each row of its document comes from one combination of
/// one row per fragment and from nothing else, so the rows a longer
/// collection adds are the rows of the same plan over its new rows alone.
/// That is a plan of independent fragments over one collection each — no
/// collection twice — with residual predicates at most, and a template
/// that neither orders, groups, aggregates nor nests a query.
fn row_wise(query: &Query, plan: &Plan) -> Option<Vec<String>> {
    fn flat(template: &ElementTemplate) -> bool {
        template.skolem.is_none()
            && template.children.iter().all(|child| match child {
                TemplateNode::Element(e) => flat(e),
                TemplateNode::Var(_) | TemplateNode::Text(_) => true,
                TemplateNode::Subquery(_) | TemplateNode::Agg { .. } => false,
            })
    }
    let plain = query.order_by.is_empty()
        && flat(&query.construct)
        && plan.dependents.is_empty()
        && plan.shards.is_empty()
        && plan.pruned.is_none();
    if !plain {
        return None;
    }
    let mut collections: Vec<String> = Vec::new();
    for atom in &plan.independents {
        let AtomExec::Fragment { source, query, .. } = atom else {
            return None;
        };
        let [only] = query.collections.as_slice() else {
            return None;
        };
        let key = format!("{}.{}", source, only.collection);
        if collections.contains(&key) {
            return None;
        }
        collections.push(key);
    }
    Some(collections)
}
