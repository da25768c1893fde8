//! Pass 3: rewrite-equivalence auditing.
//!
//! The optimizer reshapes plans — fold reordering, predicate pushdown,
//! build-side swaps, plan-cache reuse — and
//! each rewrite is *assumed* meaning-preserving. This pass checks the
//! invariants a meaning-preserving rewrite cannot break. The optimizer
//! records a [`RewriteRecord`] (a before/after pair of cheap
//! [`Fingerprint`]s) for every rewrite it applies; [`audit`] then
//! verifies:
//!
//! * **Schema preservation** — the rewritten plan binds the same
//!   columns. Order-sensitive rewrites ([`RewriteRecord::ordered`])
//!   must keep the exact sequence; reorderings (fold order, build-side
//!   swap) must keep the *set*.
//! * **Key-set preservation** — the join/fold keys the plan equates
//!   must survive the rewrite as a set.
//! * **Cardinality-bound monotonicity** — a rewrite may tighten a
//!   cardinality bound (pruning, pushdown) but never loosen it: a
//!   larger bound after rewriting means the rewrite added rows.
//! * **Extra invariants** — rule-specific payloads (e.g. the pushed
//!   predicates) compared as unordered sets.
//! * **Placements** — a pushed predicate may be copied to several
//!   fragments (a selection on a join variable goes to every fragment
//!   that binds it). Each copy counts as the predicate being accounted
//!   for, and must sit at a fragment that outputs its variable.
//!
//! * **Bind stage** — a `bind-join` record ships the restriction "the
//!   join variable takes one of the driver's values" to other
//!   fragments. The central join keeps enforcing it, so the record is a
//!   placement of copies like any other; on top of the checks above it
//!   must name exactly one key, ship at least one copy, and every copy
//!   must select on that key.
//!
//! * **Delta refresh** — a `delta-refresh` record plans a materialized
//!   view's own query with one source fragment restricted to the rows
//!   past a mark, so that the answer is what the view gained. The
//!   restriction is a placement like any other (it must be accounted
//!   for, at a fragment that binds its variable); on top of the checks
//!   above — same columns, same keys, same sources, row bound not up —
//!   exactly one fragment may take it: the join of two deltas is not
//!   what a view gained.
//!
//! * **What a source reads** — a `pushdown` copy, or a same-source join
//!   a `join-pushdown` record sends, is evaluated by the source's typed
//!   comparison. Each such placement states what the source is asked
//!   ([`SourceRead`]) against the declared field types, and must pass the
//!   one rule (`nimble_xml::atomic::{reads_alike, joins_alike}`), or the
//!   source would keep other rows than the mediator (DESIGN.md §23).
//!
//! * **Candidate probes** — a central pattern match checks some residual
//!   conjuncts on each candidate before matching it, keeping them in
//!   the Filter. [`audit_probes`] (rule `candidate-probe`) admits each
//!   probe again from [`ProbeFacts`] read off the plan, not from the
//!   rule that chose it.
//!
//! Fingerprints are deliberately string-shaped: they must survive
//! serialization into cached-plan stamps and diff cheaply.

use crate::PlanIssue;
use nimble_algebra::{CmpOp, LiteralTest};
use nimble_xml::atomic::{joins_alike, reads_alike};
use nimble_xml::{Atomic, AtomicType};

/// A cheap structural summary of a plan (or plan fragment) taken before
/// or after a rewrite.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// Output column names, in plan order.
    pub columns: Vec<String>,
    /// Join/fold key descriptions (e.g. `"$i"`), compared as a set.
    pub keys: Vec<String>,
    /// Upper bound on the result cardinality, when the planner has one.
    pub card_bound: Option<u64>,
    /// Rule-specific payload (e.g. pushed predicate renderings),
    /// compared as an unordered set.
    pub extra: Vec<String>,
    /// Source labels feeding the plan fragment, compared as a set. A
    /// meaning-preserving rewrite must not change *where* answers come
    /// from — dropping or inventing a source here means provenance
    /// (lineage key-sets) would silently shift under the rewrite.
    pub sources: Vec<String>,
}

impl Fingerprint {
    pub fn new(columns: Vec<String>) -> Fingerprint {
        Fingerprint {
            columns,
            ..Fingerprint::default()
        }
    }

    pub fn with_keys(mut self, keys: Vec<String>) -> Fingerprint {
        self.keys = keys;
        self
    }

    pub fn with_card_bound(mut self, bound: u64) -> Fingerprint {
        self.card_bound = Some(bound);
        self
    }

    pub fn with_extra(mut self, extra: Vec<String>) -> Fingerprint {
        self.extra = extra;
        self
    }

    pub fn with_sources(mut self, sources: Vec<String>) -> Fingerprint {
        self.sources = sources;
        self
    }
}

/// One copy of a predicate the `pushdown` rule shipped to a fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Predicate rendering, as it appears in the `before` payload.
    pub pred: String,
    /// The variable the predicate selects on.
    pub var: String,
    /// Source label of the fragment that took the copy.
    pub source: String,
    /// Variables that fragment outputs.
    pub outputs: Vec<String>,
    /// What the source is asked to compare, for a placement the source
    /// evaluates (`pushdown`, `join-pushdown`).
    pub reads: Option<SourceRead>,
}

/// A comparison a source is sent, with the declared types of the fields
/// it reads (`None`: undeclared).
#[derive(Debug, Clone, PartialEq)]
pub enum SourceRead {
    /// `field op lit`; `joined` when another unit binds the variable.
    Selection { op: CmpOp, lit: Atomic, field: Option<AtomicType>, joined: bool },
    /// An equi-join of two fields.
    Join(Option<AtomicType>, Option<AtomicType>),
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ {}", self.pred, self.source)
    }
}

/// One optimizer rewrite: the rule that fired and the fingerprints
/// taken immediately before and after it.
#[derive(Debug, Clone)]
pub struct RewriteRecord {
    /// Rule name for diagnostics (`"fold-reorder"`, `"pushdown"`,
    /// `"bind-join"`, `"delta-refresh"`, `"build-side-swap"`,
    /// `"plan-cache-hit"`).
    pub rule: String,
    /// Whether the rewrite promises to preserve column *order* (a
    /// substitution) rather than just the column set (a reordering).
    pub ordered: bool,
    pub before: Fingerprint,
    pub after: Fingerprint,
    /// Predicate copies shipped to fragments; their predicates count
    /// towards the `after` payload.
    pub placements: Vec<Placement>,
}

impl RewriteRecord {
    pub fn new(
        rule: impl Into<String>,
        ordered: bool,
        before: Fingerprint,
        after: Fingerprint,
    ) -> RewriteRecord {
        RewriteRecord {
            rule: rule.into(),
            ordered,
            before,
            after,
            placements: Vec::new(),
        }
    }

    pub fn with_placements(mut self, placements: Vec<Placement>) -> RewriteRecord {
        self.placements = placements;
        self
    }
}

fn as_set(items: &[String]) -> Vec<&String> {
    let mut v: Vec<&String> = items.iter().collect();
    v.sort();
    v
}

/// The distinct entries of a payload. A predicate may be shipped as
/// several copies, and filters are idempotent, so payloads compare by
/// which entries occur, not how often.
fn distinct<'a>(items: impl Iterator<Item = &'a String>) -> Vec<&'a String> {
    let mut v: Vec<&String> = items.collect();
    v.sort();
    v.dedup();
    v
}

/// Rules whose *payload and source set may shrink* (never grow): a
/// narrowing rewrite proves some inputs cannot contribute answers and
/// drops them. Shard pruning is the canonical case — `extra` carries
/// the shard set and `after` keeps only the survivors, and the pruned
/// shards' source labels legitimately leave the plan with them. Every
/// other rule keeps strict set equality: silently losing a payload
/// entry or a source there means the rewrite changed meaning.
fn narrowing_rule(rule: &str) -> bool {
    rule == "shard-prune"
}

/// `subset ⊆ superset` over string multiset keys (set semantics).
fn is_subset(subset: &[String], superset: &[String]) -> bool {
    subset.iter().all(|s| superset.contains(s))
}

/// Check every recorded rewrite for invariant violations.
pub fn audit(records: &[RewriteRecord]) -> Vec<PlanIssue> {
    let mut issues = Vec::new();
    for r in records {
        let mut report = |detail: String| {
            issues.push(PlanIssue {
                operator: format!("rewrite:{}", r.rule),
                path: format!("rewrite:{}", r.rule),
                detail,
            });
        };

        if r.ordered {
            if r.before.columns != r.after.columns {
                report(format!(
                    "schema changed across an order-preserving rewrite: \
                     [{}] became [{}]",
                    r.before.columns.join(", "),
                    r.after.columns.join(", ")
                ));
            }
        } else if as_set(&r.before.columns) != as_set(&r.after.columns) {
            report(format!(
                "column set changed across the rewrite: [{}] became [{}]",
                r.before.columns.join(", "),
                r.after.columns.join(", ")
            ));
        }

        if as_set(&r.before.keys) != as_set(&r.after.keys) {
            report(format!(
                "join/fold key set changed across the rewrite: {{{}}} became {{{}}}",
                r.before.keys.join(", "),
                r.after.keys.join(", ")
            ));
        }

        if let (Some(before), Some(after)) = (r.before.card_bound, r.after.card_bound) {
            if after > before {
                report(format!(
                    "cardinality bound grew from {} to {}; a rewrite may \
                     tighten a bound but never loosen it",
                    before, after
                ));
            }
        }

        if narrowing_rule(&r.rule) {
            if !is_subset(&r.after.extra, &r.before.extra) {
                report(format!(
                    "narrowing rewrite invented payload entries: {{{}}} is not \
                     a subset of {{{}}}",
                    r.after.extra.join(", "),
                    r.before.extra.join(", ")
                ));
            }
            if !is_subset(&r.after.sources, &r.before.sources) {
                report(format!(
                    "narrowing rewrite invented sources: {{{}}} is not a \
                     subset of {{{}}} — answers would claim provenance the \
                     plan never read",
                    r.after.sources.join(", "),
                    r.before.sources.join(", ")
                ));
            }
        } else {
            let shipped = r.placements.iter().map(|p| &p.pred);
            if distinct(r.before.extra.iter()) != distinct(r.after.extra.iter().chain(shipped)) {
                let after: Vec<String> = r
                    .after
                    .extra
                    .iter()
                    .cloned()
                    .chain(r.placements.iter().map(Placement::to_string))
                    .collect();
                report(format!(
                    "rewrite payload changed: {{{}}} became {{{}}}",
                    r.before.extra.join(", "),
                    after.join(", ")
                ));
            }

            if as_set(&r.before.sources) != as_set(&r.after.sources) {
                report(format!(
                    "source set changed across the rewrite: {{{}}} became {{{}}} \
                     — provenance would misattribute answers",
                    r.before.sources.join(", "),
                    r.after.sources.join(", ")
                ));
            }
        }

        if r.rule == "bind-join" {
            match r.before.keys.as_slice() {
                [key] => {
                    for p in r.placements.iter().filter(|p| &p.var != key) {
                        report(format!(
                            "bind stage on ${} ships a key list for ${}: {}",
                            key, p.var, p
                        ));
                    }
                }
                keys => report(format!(
                    "a bind stage binds one join variable, this one names {{{}}}",
                    keys.join(", ")
                )),
            }
            if r.placements.is_empty() {
                report("bind stage without a target".to_string());
            }
        }

        if r.rule == "delta-refresh" && r.placements.len() != 1 {
            let floored: Vec<String> = r.placements.iter().map(Placement::to_string).collect();
            report(format!(
                "a delta refresh floors exactly one fragment, this one floors {}: {{{}}}",
                floored.len(),
                floored.join(", ")
            ));
        }

        for p in &r.placements {
            let alike = match &p.reads {
                Some(SourceRead::Selection { op, lit, field, joined }) => reads_alike(*op, lit, *field, *joined),
                Some(SourceRead::Join(a, b)) => joins_alike(*a, *b),
                None => false,
            };
            if matches!(r.rule.as_str(), "pushdown" | "join-pushdown") && !alike {
                report(format!(
                    "{} is sent to a source that reads it otherwise than the mediator: {:?}",
                    p, p.reads
                ));
            }
            if !p.outputs.contains(&p.var) {
                report(format!(
                    "predicate placed at a fragment that does not bind its \
                     variable: {} selects on ${}, the fragment outputs [{}]",
                    p,
                    p.var,
                    p.outputs.join(", ")
                ));
            }
        }
    }
    issues
}

/// What a plan says about one candidate probe — a residual conjunct a
/// central pattern match checks on each top-level candidate before
/// matching it — read off the plan, not taken from the rule that chose
/// the probe.
#[derive(Debug, Clone, Default)]
pub struct ProbeFacts {
    /// The probe, for diagnostics.
    pub probe: String,
    /// The variable the probe reads.
    pub var: String,
    /// The variables the conjunct mentions.
    pub vars: Vec<String>,
    /// The conjunct as the matcher tests it, compiled for a one-column
    /// row that holds the variable; `None` when it reads another variable
    /// or is not a literal test (arithmetic, a call, two columns).
    pub test: Option<LiteralTest>,
    /// Whether the probe guards for a join variable: it prunes only on
    /// values and literals that are numbers.
    pub joined: bool,
    /// Conjuncts ahead of it in the Filter whose evaluation can fail.
    pub failing_before: usize,
    /// Units that bind the variable: independent atoms, dependent atoms
    /// (binding it, or navigating the element it holds) and the outer
    /// context.
    pub binders: usize,
    /// Whether the probed atom is matched centrally: a fetch-and-match or
    /// view atom that no shard plan routes.
    pub central: bool,
    /// Every occurrence of the variable in the atom's pattern: the steps
    /// from the candidate down, spelled as the query spells them (`name`,
    /// `*`, `**name`, `name+`), then how it binds there — `$` (content),
    /// `@name`, `ELEMENT_AS` or `CONTENT_AS`.
    pub occurrences: Vec<Vec<String>>,
    /// What the probe walks and reads, in the same spelling.
    pub walk: Vec<String>,
}

/// The `candidate-probe` rule: a probe must read a conjunct of one
/// variable that compiles to a [`LiteralTest`] — which cannot fail, and
/// calls nothing — behind no conjunct that can fail; the probed atom
/// must be matched centrally and bind the variable once, as content or
/// an attribute, under plain element names — exactly where the probe
/// walks. A variable another unit binds too (another atom, or the outer
/// row) is a join variable: its probe must guard (`joined`), and a
/// guarded probe's test may hold no `LIKE` — the comparisons left are
/// those on which a number and any value the join equates with it agree.
/// Whether its literals are numbers is read per serve, as the matcher
/// binds them: an equality parameter's value is not the plan's to know.
pub fn audit_probes(probes: &[ProbeFacts]) -> Vec<PlanIssue> {
    let mut issues = Vec::new();
    for p in probes {
        let mut report = |detail: String| {
            issues.push(PlanIssue {
                operator: "candidate-probe".to_string(),
                path: format!("probe:{}", p.probe),
                detail,
            });
        };
        let vars = distinct(p.vars.iter());
        if vars != [&p.var] {
            report(format!(
                "the conjunct mentions {{{}}}, not ${} alone",
                p.vars.join(", "),
                p.var
            ));
        }
        if p.failing_before > 0 {
            report(format!(
                "{} conjunct(s) ahead of it can fail, and would not on the rows it removes",
                p.failing_before
            ));
        }
        if p.binders == 0 || (p.binders > 1 && !p.joined) {
            report(format!(
                "${} is bound by {} units and the probe does not guard: a joined row may hold another unit's value",
                p.var, p.binders
            ));
        }
        match &p.test {
            None => report(format!(
                "the conjunct is not a literal test of ${}: comparisons with literals under AND, OR, NOT",
                p.var
            )),
            Some(test) if p.joined && !test.all(&|c| c.op != CmpOp::Like) => report(format!(
                "a join-variable probe compares ${} with literals only, by =, !=, <, <=, > or >= under AND, OR, NOT",
                p.var
            )),
            Some(_) => {}
        }
        if !p.central {
            report("the atom is not matched centrally".to_string());
        }
        match p.occurrences.as_slice() {
            [site] => {
                let plain = site
                    .split_last()
                    .is_some_and(|(read, steps)| {
                        (read == "$" || read.starts_with('@'))
                            && steps.iter().all(|s| !s.starts_with('*') && !s.ends_with('+'))
                    });
                if !plain {
                    report(format!(
                        "${} sits at {}, not as content or an attribute under plain names",
                        p.var,
                        site.join("/")
                    ));
                }
                if site != &p.walk {
                    report(format!(
                        "the probe reads {}, ${} sits at {}",
                        p.walk.join("/"),
                        p.var,
                        site.join("/")
                    ));
                }
            }
            sites => report(format!("${} occurs {} times in the pattern", p.var, sites.len())),
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_algebra::{ArithOp, ScalarExpr};

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn faithful_reorder_passes() {
        let r = RewriteRecord::new(
            "fold-reorder",
            false,
            Fingerprint::new(cols(&["a", "b", "c"])).with_keys(cols(&["$i"])),
            Fingerprint::new(cols(&["b", "c", "a"])).with_keys(cols(&["$i"])),
        );
        assert!(audit(&[r]).is_empty());
    }

    #[test]
    fn dropped_column_is_caught() {
        let r = RewriteRecord::new(
            "fold-reorder",
            false,
            Fingerprint::new(cols(&["a", "b", "c"])),
            Fingerprint::new(cols(&["a", "b"])),
        );
        let issues = audit(&[r]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("column set changed"));
        assert!(issues[0].operator.contains("fold-reorder"));
    }

    #[test]
    fn changed_key_set_is_caught() {
        let r = RewriteRecord::new(
            "build-side-swap",
            false,
            Fingerprint::new(cols(&["a", "b"])).with_keys(cols(&["$i"])),
            Fingerprint::new(cols(&["b", "a"])).with_keys(cols(&["$j"])),
        );
        let issues = audit(&[r]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("key set changed"));
    }

    #[test]
    fn loosened_cardinality_bound_is_caught() {
        let r = RewriteRecord::new(
            "pushdown",
            true,
            Fingerprint::new(cols(&["a"])).with_card_bound(100),
            Fingerprint::new(cols(&["a"])).with_card_bound(250),
        );
        let issues = audit(&[r]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("cardinality bound grew"));
        // Tightening is fine.
        let r = RewriteRecord::new(
            "pushdown",
            true,
            Fingerprint::new(cols(&["a"])).with_card_bound(100),
            Fingerprint::new(cols(&["a"])).with_card_bound(40),
        );
        assert!(audit(&[r]).is_empty());
    }

    #[test]
    fn ordered_rewrite_must_keep_column_order() {
        let r = RewriteRecord::new(
            "pushdown",
            true,
            Fingerprint::new(cols(&["a", "b"])),
            Fingerprint::new(cols(&["b", "a"])),
        );
        let issues = audit(&[r]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("order-preserving"));
        // The same permutation is legal for an unordered rewrite.
        let r = RewriteRecord::new(
            "fold-reorder",
            false,
            Fingerprint::new(cols(&["a", "b"])),
            Fingerprint::new(cols(&["b", "a"])),
        );
        assert!(audit(&[r]).is_empty());
    }

    #[test]
    fn dropped_pushdown_predicate_is_caught() {
        let r = RewriteRecord::new(
            "pushdown",
            true,
            Fingerprint::new(cols(&["a"])).with_extra(cols(&["$t > 5", "$r = 'NW'"])),
            Fingerprint::new(cols(&["a"])).with_extra(cols(&["$t > 5"])),
        );
        let issues = audit(&[r]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("payload changed"));

        // A predicate replicated to two fragments is accounted for once;
        // the other predicate stays central.
        let place = |pred: &str, source: &str, outputs: &[&str]| Placement {
            pred: pred.to_string(),
            var: "i".to_string(),
            source: source.to_string(),
            outputs: cols(outputs),
            reads: Some(SourceRead::Selection {
                op: CmpOp::Eq,
                lit: Atomic::Int(7),
                field: Some(AtomicType::Int),
                joined: true,
            }),
        };
        let replicated = |placements: Vec<Placement>, central: &[&str]| {
            RewriteRecord::new(
                "pushdown",
                true,
                Fingerprint::new(Vec::new()).with_extra(cols(&["$i = 7", "$t > 5"])),
                Fingerprint::new(Vec::new()).with_extra(cols(central)),
            )
            .with_placements(placements)
        };
        let both = vec![
            place("$i = 7", "crm", &["i", "n"]),
            place("$i = 7", "billing", &["o", "i"]),
        ];
        assert!(audit(&[replicated(both.clone(), &["$t > 5"])]).is_empty());
        // Replicating one predicate does not excuse dropping another.
        let issues = audit(&[replicated(both, &[])]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("payload changed"));
        assert!(issues[0].detail.contains("$i = 7 @ billing"));
        // A copy placed at a fragment that does not bind the variable.
        let stray = vec![
            place("$i = 7", "crm", &["i", "n"]),
            place("$i = 7", "support", &["s", "sev"]),
        ];
        let issues = audit(&[replicated(stray, &["$t > 5"])]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("does not bind"));
        assert!(issues[0].detail.contains("support"));
    }

    #[test]
    fn a_source_is_sent_only_what_it_reads_as_the_mediator_does() {
        use AtomicType::{Bool, Float, Int, Str};
        let sent = |rule: &str, reads: Option<SourceRead>| {
            let record = |extra: &[&str]| Fingerprint::new(Vec::new()).with_extra(cols(extra));
            let placement = Placement {
                pred: "$v op lit".to_string(),
                var: "v".to_string(),
                source: "crm".to_string(),
                outputs: cols(&["v"]),
                reads,
            };
            let r = RewriteRecord::new(rule, true, record(&["$v op lit"]), record(&[])).with_placements(vec![placement]);
            audit(&[r])
        };
        let sel = |op, lit: Atomic, field, joined| Some(SourceRead::Selection { op, lit, field: Some(field), joined });
        for reads in [
            sel(CmpOp::Lt, Atomic::Int(2), Float, true),
            sel(CmpOp::Eq, Atomic::Str("x".into()), Str, true),
            sel(CmpOp::Ge, Atomic::Str("x".into()), Str, false),
            sel(CmpOp::Like, Atomic::Str("2%".into()), Str, false),
            sel(CmpOp::Gt, Atomic::Bool(false), Bool, true),
        ] {
            assert!(sent("pushdown", reads.clone()).is_empty(), "{:?}", reads);
        }
        assert!(sent("join-pushdown", Some(SourceRead::Join(Some(Int), Some(Float)))).is_empty());
        for (rule, reads) in [
            // `<>` drops the null rows the mediator keeps.
            ("pushdown", sel(CmpOp::Ne, Atomic::Int(2), Int, false)),
            // A number against text, text that reads as a number.
            ("pushdown", sel(CmpOp::Eq, Atomic::Int(2), Str, false)),
            ("pushdown", sel(CmpOp::Eq, Atomic::Str(" 2 ".into()), Str, false)),
            // `LIKE` of a number's spelling, or a pattern NULL's `""` matches.
            ("pushdown", sel(CmpOp::Like, Atomic::Str("2%".into()), Float, false)),
            ("pushdown", sel(CmpOp::Like, Atomic::Str("%".into()), Str, false)),
            // Join-equal values spelled otherwise: `LIKE`, text orders.
            ("pushdown", sel(CmpOp::Like, Atomic::Str("2%".into()), Str, true)),
            ("pushdown", sel(CmpOp::Lt, Atomic::Str("x".into()), Str, true)),
            // An undeclared field, or nothing said.
            ("pushdown", Some(SourceRead::Selection { op: CmpOp::Eq, lit: Atomic::Int(2), field: None, joined: false })),
            ("pushdown", None),
            // A text join: the mediator equates "2" and " 2 ".
            ("join-pushdown", Some(SourceRead::Join(Some(Str), Some(Str)))),
            ("join-pushdown", Some(SourceRead::Join(Some(Int), Some(Bool)))),
        ] {
            let issues = sent(rule, reads.clone());
            assert!(issues.len() == 1 && issues[0].detail.contains("reads it otherwise"), "{:?}: {:?}", reads, issues);
        }
    }

    #[test]
    fn bind_stage_ships_one_key_to_fragments_that_bind_it() {
        let place = |var: &str, source: &str, outputs: &[&str]| Placement {
            pred: "$i in keys(support)".to_string(),
            var: var.to_string(),
            source: source.to_string(),
            outputs: cols(outputs),
            reads: None,
        };
        let stage = |keys: &[&str], rows_after: u64, placements: Vec<Placement>| {
            let side = |rows: u64| {
                Fingerprint::new(cols(&["i", "sev", "i", "n", "i", "t"]))
                    .with_keys(cols(keys))
                    .with_extra(cols(&["$i in keys(support)"]))
                    .with_sources(cols(&["support", "crm", "billing"]))
                    .with_card_bound(rows)
            };
            RewriteRecord::new("bind-join", true, side(5_493), side(rows_after))
                .with_placements(placements)
        };
        let both = vec![place("i", "crm", &["i", "n"]), place("i", "billing", &["i", "t"])];
        assert!(audit(&[stage(&["i"], 732, both.clone())]).is_empty());

        // The keys can only shrink what the targets ship.
        let issues = audit(&[stage(&["i"], 6_000, both.clone())]);
        assert!(issues.len() == 1 && issues[0].detail.contains("cardinality bound grew"));
        // A target that does not bind the variable.
        let stray = vec![place("i", "crm", &["i", "n"]), place("i", "press", &["c", "h"])];
        let issues = audit(&[stage(&["i"], 732, stray)]);
        assert!(issues.len() == 1 && issues[0].detail.contains("does not bind"));
        // A list for another variable than the stage's.
        let other = vec![place("i", "crm", &["i", "n"]), place("t", "billing", &["i", "t"])];
        let issues = audit(&[stage(&["i"], 732, other)]);
        assert!(issues.len() == 1 && issues[0].detail.contains("ships a key list for $t"));
        // Two variables, or no target at all.
        let issues = audit(&[stage(&["i", "t"], 732, both)]);
        assert!(issues.len() == 1 && issues[0].detail.contains("one join variable"));
        let issues = audit(&[stage(&["i"], 732, Vec::new())]);
        assert!(issues.len() == 1 && issues[0].detail.contains("without a target"));
    }

    #[test]
    fn delta_refresh_floors_one_fragment_and_changes_nothing_else() {
        let floor = |source: &str, outputs: &[&str]| Placement {
            pred: "rows of billing.orders past 7500".to_string(),
            var: outputs[0].to_string(),
            source: source.to_string(),
            outputs: cols(outputs),
            reads: None,
        };
        let refresh = |after_cols: &[&str], sources: &[&str], rows_after: u64, floors: Vec<Placement>| {
            RewriteRecord::new(
                "delta-refresh",
                true,
                Fingerprint::new(cols(&["i", "n", "o", "i", "t"]))
                    .with_keys(cols(&["i"]))
                    .with_extra(cols(&["rows of billing.orders past 7500"]))
                    .with_sources(cols(&["crm", "billing"]))
                    .with_card_bound(7_510),
                Fingerprint::new(cols(after_cols))
                    .with_keys(cols(&["i"]))
                    .with_sources(cols(sources))
                    .with_card_bound(rows_after),
            )
            .with_placements(floors)
        };
        let all = ["i", "n", "o", "i", "t"];
        let one = vec![floor("billing", &["o", "i", "t"])];
        assert!(audit(&[refresh(&all, &["crm", "billing"], 10, one.clone())]).is_empty());
        // No fragment floored, or two.
        let issues = audit(&[refresh(&all, &["crm", "billing"], 10, Vec::new())]);
        assert!(issues.iter().any(|i| i.detail.contains("floors exactly one fragment")));
        let two = vec![floor("billing", &["o", "i", "t"]), floor("crm", &["i", "n"])];
        let issues = audit(&[refresh(&all, &["crm", "billing"], 10, two)]);
        assert!(issues.len() == 1 && issues[0].detail.contains("this one floors 2"));
        // A column, a source or the row bound moved.
        let issues = audit(&[refresh(&["i", "n", "o", "i"], &["crm", "billing"], 10, one.clone())]);
        assert!(issues.len() == 1 && issues[0].detail.contains("schema changed"));
        let issues = audit(&[refresh(&all, &["billing"], 10, one.clone())]);
        assert!(issues.len() == 1 && issues[0].detail.contains("source set changed"));
        let issues = audit(&[refresh(&all, &["crm", "billing"], 8_000, one)]);
        assert!(issues.len() == 1 && issues[0].detail.contains("cardinality bound grew"));
    }

    #[test]
    fn changed_source_set_is_caught() {
        let r = RewriteRecord::new(
            "fold-reorder",
            false,
            Fingerprint::new(cols(&["a", "b"])).with_sources(cols(&["crm", "billing"])),
            Fingerprint::new(cols(&["b", "a"])).with_sources(cols(&["crm"])),
        );
        let issues = audit(&[r]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("source set changed"));
        // A permutation of the same sources is fine.
        let r = RewriteRecord::new(
            "fold-reorder",
            false,
            Fingerprint::new(cols(&["a", "b"])).with_sources(cols(&["crm", "billing"])),
            Fingerprint::new(cols(&["b", "a"])).with_sources(cols(&["billing", "crm"])),
        );
        assert!(audit(&[r]).is_empty());
    }

    #[test]
    fn shard_prune_may_narrow_payload_and_sources() {
        // Pruning drops shards whose stats bounds contradict the
        // predicate: payload (shard set) and per-shard source labels
        // legitimately shrink.
        let r = RewriteRecord::new(
            "shard-prune",
            false,
            Fingerprint::new(cols(&["a", "b"]))
                .with_extra(cols(&["shard:0", "shard:1", "shard:2", "shard:3"]))
                .with_sources(cols(&["erp#0", "erp#1", "erp#2", "erp#3"]))
                .with_card_bound(1000),
            Fingerprint::new(cols(&["a", "b"]))
                .with_extra(cols(&["shard:1", "shard:3"]))
                .with_sources(cols(&["erp#1", "erp#3"]))
                .with_card_bound(500),
        );
        assert!(audit(&[r]).is_empty());
    }

    #[test]
    fn shard_prune_must_not_invent_shards() {
        let r = RewriteRecord::new(
            "shard-prune",
            false,
            Fingerprint::new(cols(&["a"])).with_extra(cols(&["shard:0", "shard:1"])),
            Fingerprint::new(cols(&["a"])).with_extra(cols(&["shard:0", "shard:7"])),
        );
        let issues = audit(&[r]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("invented payload"));
        // Inventing a source label is caught independently.
        let r = RewriteRecord::new(
            "shard-prune",
            false,
            Fingerprint::new(cols(&["a"])).with_sources(cols(&["erp#0"])),
            Fingerprint::new(cols(&["a"])).with_sources(cols(&["erp#0", "erp#9"])),
        );
        let issues = audit(&[r]);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("invented sources"));
    }

    #[test]
    fn shard_prune_still_subject_to_column_and_bound_checks() {
        // Narrowing relaxes only payload/sources — a pruned plan must
        // still bind the same columns and never loosen its bound.
        let r = RewriteRecord::new(
            "shard-prune",
            false,
            Fingerprint::new(cols(&["a", "b"])).with_card_bound(100),
            Fingerprint::new(cols(&["a"])).with_card_bound(400),
        );
        let issues = audit(&[r]);
        assert_eq!(issues.len(), 2);
        assert!(issues.iter().any(|i| i.detail.contains("column set changed")));
        assert!(issues.iter().any(|i| i.detail.contains("cardinality bound grew")));
    }

    #[test]
    fn missing_bounds_make_no_monotonicity_claim() {
        let r = RewriteRecord::new(
            "plan-cache-hit",
            true,
            Fingerprint::new(cols(&["a"])),
            Fingerprint::new(cols(&["a"])).with_card_bound(10),
        );
        assert!(audit(&[r]).is_empty());
    }

    /// `e`, compiled as the matcher tests a probe: over one column.
    fn compiled(e: ScalarExpr) -> Option<LiteralTest> {
        LiteralTest::compile(&e, 1)
    }

    fn col() -> Box<ScalarExpr> {
        Box::new(ScalarExpr::Col(0))
    }

    fn lit(v: impl Into<nimble_algebra::expr::LiteralValue>) -> Box<ScalarExpr> {
        Box::new(ScalarExpr::Lit(v.into()))
    }

    #[test]
    fn a_probe_is_admitted_only_where_conditions_a_to_d_hold() {
        let ok = ProbeFacts {
            probe: "$r".into(),
            var: "r".into(),
            vars: cols(&["r", "r"]),
            test: compiled(ScalarExpr::Cmp(CmpOp::Eq, col(), lit("west"))),
            binders: 1,
            central: true,
            occurrences: vec![cols(&["region", "$"])],
            walk: cols(&["region", "$"]),
            ..ProbeFacts::default()
        };
        assert!(audit_probes(std::slice::from_ref(&ok)).is_empty());
        let attr = ProbeFacts {
            occurrences: vec![cols(&["@id"])],
            walk: cols(&["@id"]),
            ..ok.clone()
        };
        assert!(audit_probes(&[attr]).is_empty());
        // `upper($r) = "WEST"` and `$r + 1 > 3`: a call and arithmetic do
        // not compile, so the matcher has nothing to run that could fail.
        let upper = ScalarExpr::Cmp(CmpOp::Eq, Box::new(ScalarExpr::Call("upper".into(), vec![ScalarExpr::Col(0)])), lit("WEST"));
        let plus_one = ScalarExpr::Cmp(CmpOp::Gt, Box::new(ScalarExpr::Arith(ArithOp::Add, col(), lit(1i64))), lit(3i64));
        let broken: Vec<(ProbeFacts, &str)> = vec![
            (ProbeFacts { vars: cols(&["r", "t"]), ..ok.clone() }, "not $r alone"),
            (ProbeFacts { test: compiled(upper), ..ok.clone() }, "not a literal test"),
            (ProbeFacts { test: compiled(plus_one), ..ok.clone() }, "not a literal test"),
            (ProbeFacts { failing_before: 1, ..ok.clone() }, "can fail"),
            (ProbeFacts { binders: 2, ..ok.clone() }, "bound by 2 units"),
            (ProbeFacts { central: false, ..ok.clone() }, "not matched centrally"),
            (ProbeFacts { occurrences: vec![cols(&["region", "$"]); 2], ..ok.clone() }, "occurs 2 times"),
            (ProbeFacts { occurrences: vec![cols(&["ELEMENT_AS"])], walk: cols(&["ELEMENT_AS"]), ..ok.clone() }, "not as content"),
            (ProbeFacts { occurrences: vec![cols(&["**region", "$"])], walk: cols(&["**region", "$"]), ..ok.clone() }, "under plain names"),
            (ProbeFacts { occurrences: vec![cols(&["part+", "@id"])], walk: cols(&["part+", "@id"]), ..ok.clone() }, "under plain names"),
            (ProbeFacts { walk: cols(&["name", "$"]), ..ok.clone() }, "the probe reads name/$"),
        ];
        for (facts, why) in broken {
            let issues = audit_probes(&[facts]);
            assert!(issues.iter().any(|i| i.operator == "candidate-probe" && i.detail.contains(why)), "{}: {:?}", why, issues);
        }
    }

    #[test]
    fn a_join_variable_probe_is_admitted_only_for_comparisons_with_literals() {
        let cmp = |op, l, r| ScalarExpr::Cmp(op, l, r);
        // `$k > 990 AND NOT (5 = $k) OR $k <= -1`, over a join variable
        // (another atom, or the outer row, binds it too).
        let comparisons = ScalarExpr::Or(
            Box::new(ScalarExpr::And(
                Box::new(cmp(CmpOp::Gt, col(), lit(990i64))),
                Box::new(ScalarExpr::Not(Box::new(cmp(CmpOp::Eq, lit(5i64), col())))),
            )),
            Box::new(cmp(CmpOp::Le, col(), lit(-1i64))),
        );
        let ok = ProbeFacts {
            probe: "$k".into(),
            var: "k".into(),
            vars: cols(&["k", "k", "k"]),
            binders: 2,
            joined: true,
            test: compiled(comparisons),
            central: true,
            occurrences: vec![cols(&["key", "$"])],
            walk: cols(&["key", "$"]),
            ..ProbeFacts::default()
        };
        assert!(audit_probes(std::slice::from_ref(&ok)).is_empty());
        // Three binders, and a guarded probe on a variable one atom binds.
        assert!(audit_probes(&[ProbeFacts { binders: 3, ..ok.clone() }]).is_empty());
        assert!(audit_probes(&[ProbeFacts { binders: 1, ..ok.clone() }]).is_empty());
        let (shape, uncompiled) = ("compares $k with literals only", "not a literal test of $k");
        let refused: Vec<(ProbeFacts, &str)> = vec![
            (ProbeFacts { joined: false, ..ok.clone() }, "does not guard"),
            (ProbeFacts { test: compiled(cmp(CmpOp::Like, col(), lit("2"))), ..ok.clone() }, shape),
            (
                ProbeFacts {
                    test: compiled(cmp(CmpOp::Gt, Box::new(ScalarExpr::Arith(ArithOp::Add, col(), lit(1i64))), lit(3i64))),
                    ..ok.clone()
                },
                uncompiled,
            ),
            (
                ProbeFacts {
                    test: compiled(cmp(CmpOp::Eq, Box::new(ScalarExpr::Call("upper".into(), vec![ScalarExpr::Col(0)])), lit(2i64))),
                    ..ok.clone()
                },
                uncompiled,
            ),
            (ProbeFacts { test: compiled(cmp(CmpOp::Lt, col(), col())), ..ok.clone() }, uncompiled),
            (ProbeFacts { test: compiled(cmp(CmpOp::Like, lit("2"), col())), ..ok.clone() }, uncompiled),
            (
                ProbeFacts {
                    vars: cols(&["k", "n"]),
                    test: None,
                    ..ok.clone()
                },
                uncompiled,
            ),
        ];
        for (facts, why) in refused {
            let issues = audit_probes(&[facts]);
            assert!(issues.iter().any(|i| i.operator == "candidate-probe" && i.detail.contains(why)), "{}: {:?}", why, issues);
        }
    }
}
