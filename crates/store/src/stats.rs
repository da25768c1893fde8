//! Collection statistics for cost-based planning.
//!
//! The mediator cannot assume a warehouse-style `ANALYZE` pass: sources
//! are remote and opaque. Instead the catalog seeds a [`StatsCatalog`]
//! with a cheap sample at registration time (row counts, per-field
//! distinct estimates, min/max bounds) and the engine refreshes row
//! counts from what queries actually observe — a feedback loop in the
//! spirit of the cost-based XML mediators surveyed in PAPERS.md.
//!
//! Keys are `"source.collection"` for source collections and
//! `"view:name"` for mediated views. A monotonically increasing
//! *generation* stamps every materially different snapshot; the engine's
//! plan cache folds the generation into its key so plans built from
//! stale statistics are re-planned, not served.
//!
//! A sample read from a source that stamps its answers keeps the stamp
//! ([`SampleMark`]) in the same entry, so that an append to a collection
//! whose full sample it cannot change is continued
//! ([`CollectionStats::with_rows`], [`StatsCatalog::append`]) rather than
//! re-read.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use nimble_xml::{Atomic, OrderKey};
use nimble_trace::sync::RwLock;

/// Per-field statistics gathered from a sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStats {
    /// Estimated number of distinct values across the whole collection
    /// (extrapolated from the sample).
    pub distinct: u64,
    /// Distinct values the sample itself held, or `None` when the field
    /// held more than a sample tracks: what `distinct` is extrapolated
    /// from ([`CollectionStats::with_rows`]).
    pub sample_distinct: Option<u64>,
    /// Smallest value seen (`Int` or `Float`), if the field held a
    /// number and nothing else but NULL.
    pub min: Option<Atomic>,
    /// Largest value seen, as `min`.
    pub max: Option<Atomic>,
}

/// Statistics for one collection (or one materialized view).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectionStats {
    /// Estimated total row count.
    pub rows: u64,
    /// Per-field statistics, keyed by field name.
    pub columns: BTreeMap<String, ColumnStats>,
    /// How many rows the column statistics were computed from (0 when
    /// only a row count is known).
    pub sampled: u64,
}

impl CollectionStats {
    /// Estimated distinct count for `field`, if sampled.
    pub fn distinct(&self, field: &str) -> Option<u64> {
        self.columns.get(field).map(|c| c.distinct.max(1))
    }

    /// Whether the column statistics cover every row of the collection,
    /// i.e. the sample was exhaustive. Only then are min/max *bounds*
    /// rather than advisory estimates — a partial sample can miss the
    /// true extremes.
    pub fn exhaustive(&self) -> bool {
        self.sampled >= self.rows && self.rows > 0
    }

    /// The same sample extrapolated to a collection of `rows` rows:
    /// equal to what [`SampleBuilder::finish`] returns for `rows`, computed
    /// from the counts the sample kept. A collection that only grew at its
    /// end still begins with the rows a full sample read, so for it this
    /// *is* the re-sample.
    pub fn with_rows(mut self, rows: u64) -> CollectionStats {
        for col in self.columns.values_mut() {
            col.distinct = extrapolate(col.sample_distinct, self.sampled, rows);
        }
        self.rows = rows;
        self
    }
}

/// Where a sample was read, as its source stamped the answer: the
/// collection's schema generation and its length at the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleMark {
    pub generation: u64,
    pub upto: u64,
}

/// Counters describing stats activity, for metrics export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsActivity {
    /// Current generation (bumped on material change).
    pub generation: u64,
    /// Row-count feedback observations applied from query execution.
    pub feedback_updates: u64,
    /// Collections whose statistics a source mutation brought up to date
    /// by continuing their sample ([`StatsCatalog::append`]).
    pub appended: u64,
    /// Collections a source mutation sampled afresh.
    pub resampled: u64,
}

/// Thread-safe catalog of per-collection statistics with a generation
/// stamp for cache invalidation.
#[derive(Default)]
pub struct StatsCatalog {
    inner: RwLock<BTreeMap<String, Entry>>,
    generation: AtomicU64,
    feedback_updates: AtomicU64,
    appended: AtomicU64,
    resampled: AtomicU64,
}

/// One collection's statistics and, beside them, where the sample they
/// came from was read — one entry, so the two are never seen apart.
struct Entry {
    stats: CollectionStats,
    mark: Option<SampleMark>,
}

/// Row-count feedback only bumps the generation (invalidating cached
/// plans) when the observed count differs *materially* from the current
/// estimate: more than 2x off and by more than this many rows.
const FEEDBACK_ABS_SLACK: u64 = 16;

/// Whether a row count moving from `old` to `new` makes plans built on
/// the old one suspect: more than 2x off and by more than
/// [`FEEDBACK_ABS_SLACK`] rows.
fn material_change(old: u64, new: u64) -> bool {
    let (lo, hi) = (old.min(new), old.max(new));
    hi > lo.saturating_mul(2) && hi - lo > FEEDBACK_ABS_SLACK
}

impl StatsCatalog {
    /// New, empty catalog at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) the statistics for `key`, bumping the
    /// generation.
    pub fn set(&self, key: &str, stats: CollectionStats) {
        self.set_sample(key, stats, None);
    }

    /// [`set`](Self::set) for statistics sampled from a source, with the
    /// stamp of the answer they were read from, if it had one. Used for
    /// registration-time seeding and re-sampling.
    pub fn set_sample(&self, key: &str, stats: CollectionStats, mark: Option<SampleMark>) {
        self.inner.write().insert(key.to_string(), Entry { stats, mark });
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Continue `key`'s sample over rows appended since it was read:
    /// install `stats` — the stored ones re-extrapolated with
    /// [`CollectionStats::with_rows`] — and `mark`, and move the
    /// generation only when the row count changed materially, the rule
    /// [`observe_rows`](Self::observe_rows) applies.
    pub fn append(&self, key: &str, stats: CollectionStats, mark: SampleMark) {
        let mut inner = self.inner.write();
        let old = inner.get(key).map_or(0, |e| e.stats.rows);
        if material_change(old, stats.rows) {
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        inner.insert(key.to_string(), Entry { stats, mark: Some(mark) });
        self.appended.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one collection that a source mutation sampled afresh.
    pub fn note_resample(&self) {
        self.resampled.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the statistics for `key`, if any.
    pub fn get(&self, key: &str) -> Option<CollectionStats> {
        self.inner.read().get(key).map(|e| e.stats.clone())
    }

    /// Snapshot of the statistics for `key` and the stamp of the sample
    /// they were read from, read together.
    pub fn get_sample(&self, key: &str) -> Option<(CollectionStats, Option<SampleMark>)> {
        self.inner.read().get(key).map(|e| (e.stats.clone(), e.mark))
    }

    /// Estimated row count for `key`, if known.
    pub fn rows(&self, key: &str) -> Option<u64> {
        self.inner.read().get(key).map(|e| e.stats.rows)
    }

    /// *Exact* numeric bounds of `field` in collection `key`, as the
    /// comparisons read them ([`Atomic::numeric`]), or `None`. Bounds are
    /// returned only when the sample was exhaustive
    /// ([`CollectionStats::exhaustive`]): a partial sample's min/max can
    /// be narrower than the data, and callers use these bounds to prove
    /// predicates unsatisfiable — an unsound claim over advisory
    /// bounds. Callers must still re-check the stats generation if they
    /// cache the answer (out-of-band source mutations re-sample).
    pub fn exact_bounds(&self, key: &str, field: &str) -> Option<(OrderKey<'static>, OrderKey<'static>)> {
        let inner = self.inner.read();
        let stats = &inner.get(key)?.stats;
        if !stats.exhaustive() {
            return None;
        }
        let col = stats.columns.get(field)?;
        Some((col.min.as_ref()?.numeric()?, col.max.as_ref()?.numeric()?))
    }

    /// Current generation. Bumped whenever statistics change enough to
    /// make previously planned queries suspect.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Feed back an actual row count observed at query time. Returns
    /// `true` when the observation changed the generation (i.e. cached
    /// plans keyed on the old generation are now stale).
    ///
    /// A first observation for an unknown collection records the count
    /// without bumping the generation — otherwise the very first query
    /// over every collection would invalidate the plan that served it.
    /// Known collections bump only on a material change (>2x off and by
    /// more than [`FEEDBACK_ABS_SLACK`] rows); small drifts are folded in
    /// quietly.
    pub fn observe_rows(&self, key: &str, rows: u64) -> bool {
        let mut inner = self.inner.write();
        match inner.get_mut(key) {
            None => {
                inner.insert(
                    key.to_string(),
                    Entry {
                        stats: CollectionStats {
                            rows,
                            ..CollectionStats::default()
                        },
                        mark: None,
                    },
                );
                self.feedback_updates.fetch_add(1, Ordering::Relaxed);
                false
            }
            Some(Entry { stats, .. }) => {
                if stats.rows == rows {
                    return false;
                }
                let material = material_change(stats.rows, rows);
                stats.rows = rows;
                self.feedback_updates.fetch_add(1, Ordering::Relaxed);
                if material {
                    self.generation.fetch_add(1, Ordering::Relaxed);
                }
                material
            }
        }
    }

    /// Drop exactly `key` (e.g. `"view:a"` when view `a` is dropped —
    /// prefix removal would also hit `"view:ab"`). Bumps the generation
    /// if the entry existed.
    pub fn remove(&self, key: &str) {
        let mut inner = self.inner.write();
        if inner.remove(key).is_some() {
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop every entry whose key starts with `prefix`. Reserved for
    /// keys where the prefix is delimited (e.g. `"crm."` when the `crm`
    /// source is unregistered) — use [`StatsCatalog::remove`] where an
    /// undelimited prefix could over-match. Bumps the generation if
    /// anything was removed.
    pub fn remove_prefix(&self, prefix: &str) {
        let mut inner = self.inner.write();
        let before = inner.len();
        inner.retain(|k, _| !k.starts_with(prefix));
        if inner.len() != before {
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Activity counters for metrics export.
    pub fn activity(&self) -> StatsActivity {
        StatsActivity {
            generation: self.generation(),
            feedback_updates: self.feedback_updates.load(Ordering::Relaxed),
            appended: self.appended.load(Ordering::Relaxed),
            resampled: self.resampled.load(Ordering::Relaxed),
        }
    }
}

/// How many distinct values per field a sample tracks exactly before
/// declaring the field high-cardinality.
const DISTINCT_CAP: usize = 512;

/// Accumulates per-field statistics over a sample of rows and
/// extrapolates to the full collection.
#[derive(Debug, Default)]
pub struct SampleBuilder {
    rows: u64,
    fields: BTreeMap<String, FieldAcc>,
}

#[derive(Debug, Default)]
struct FieldAcc {
    seen: HashSet<String>,
    overflow: bool,
    min: Option<Atomic>,
    max: Option<Atomic>,
    /// A value that is not a number was seen: the field has no bounds.
    other: bool,
}

impl SampleBuilder {
    /// Start an empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Note that one sampled row has been fully observed.
    pub fn add_row(&mut self) {
        self.rows += 1;
    }

    /// Observe one field value on the current row. Nulls contribute
    /// nothing (absent optional fields should not widen bounds).
    pub fn observe(&mut self, field: &str, value: &Atomic) {
        if value.is_null() {
            return;
        }
        let acc = self.fields.entry(field.to_string()).or_default();
        if !acc.overflow {
            acc.seen.insert(value.lexical());
            if acc.seen.len() > DISTINCT_CAP {
                acc.overflow = true;
                acc.seen.clear();
            }
        }
        if !matches!(value, Atomic::Int(_) | Atomic::Float(_)) {
            acc.other = true;
            return;
        }
        if acc.min.as_ref().is_none_or(|m| value.total_cmp(m).is_lt()) {
            acc.min = Some(value.clone());
        }
        if acc.max.as_ref().is_none_or(|m| value.total_cmp(m).is_gt()) {
            acc.max = Some(value.clone());
        }
    }

    /// Finish the sample, extrapolating distinct counts to an estimated
    /// `total_rows` collection size ([`extrapolate`]).
    pub fn finish(self, total_rows: u64) -> CollectionStats {
        let sampled = self.rows;
        let columns = self
            .fields
            .into_iter()
            .map(|(name, acc)| {
                let sample_distinct = (!acc.overflow).then_some(acc.seen.len() as u64);
                (
                    name,
                    ColumnStats {
                        distinct: extrapolate(sample_distinct, sampled, total_rows),
                        sample_distinct,
                        min: acc.min.filter(|_| !acc.other),
                        max: acc.max.filter(|_| !acc.other),
                    },
                )
            })
            .collect();
        CollectionStats {
            rows: total_rows,
            columns,
            sampled,
        }
    }
}

/// A field's distinct count over `total` rows, from a sample of `sampled`
/// rows that held `seen` distinct values (`None`: more than
/// [`DISTINCT_CAP`]). When every sampled value was unique the field is
/// assumed key-like (distinct == total); when values clearly repeat
/// (distinct ≤ half the sample) the sample most likely saw the whole
/// domain, so the observed count is kept; in between the sample ratio is
/// scaled up and capped at the total.
fn extrapolate(seen: Option<u64>, sampled: u64, total: u64) -> u64 {
    let distinct = match seen {
        None => total,
        Some(seen) if seen >= sampled && sampled > 0 => total,
        Some(_) if sampled == 0 => 0,
        Some(seen) if seen * 2 <= sampled => seen.min(total),
        Some(seen) => {
            let scaled = (seen as u128 * total as u128 / sampled as u128) as u64;
            scaled.clamp(seen, total)
        }
    };
    distinct.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[(&str, Atomic)], rows: u64, total: u64) -> CollectionStats {
        let mut b = SampleBuilder::new();
        let per_row = values.len() as u64 / rows.max(1);
        for (i, (field, v)) in values.iter().enumerate() {
            if per_row > 0 && i as u64 % per_row == 0 && (i as u64 / per_row) < rows {
                b.add_row();
            }
            b.observe(field, v);
        }
        while b.rows < rows {
            b.add_row();
        }
        b.finish(total)
    }

    #[test]
    fn key_like_fields_extrapolate_to_total() {
        let stats = sample(
            &[
                ("id", Atomic::Int(1)),
                ("id", Atomic::Int(2)),
                ("id", Atomic::Int(3)),
                ("id", Atomic::Int(4)),
            ],
            4,
            1000,
        );
        assert_eq!(stats.rows, 1000);
        assert_eq!(stats.distinct("id"), Some(1000));
        let col = &stats.columns["id"];
        assert_eq!(col.min, Some(Atomic::Int(1)));
        assert_eq!(col.max, Some(Atomic::Int(4)));
    }

    #[test]
    fn repeated_values_keep_observed_domain() {
        let mut b = SampleBuilder::new();
        for i in 0..100u32 {
            b.add_row();
            b.observe("region", &Atomic::Str(format!("r{}", i % 4)));
        }
        let stats = b.finish(10_000);
        // 4 distinct in 100 rows: the sample saw the whole domain.
        assert_eq!(stats.distinct("region"), Some(4));
        assert_eq!(stats.sampled, 100);
    }

    #[test]
    fn mid_cardinality_fields_ratio_scale() {
        let mut b = SampleBuilder::new();
        for i in 0..100u32 {
            b.add_row();
            // 75 distinct over 100 rows: neither key-like nor tiny.
            b.observe("bucket", &Atomic::Int(i64::from(i.min(74))));
        }
        let stats = b.finish(1_000);
        assert_eq!(stats.distinct("bucket"), Some(750));
    }

    #[test]
    fn nulls_do_not_widen_bounds() {
        let mut b = SampleBuilder::new();
        b.add_row();
        b.observe("x", &Atomic::Null);
        b.add_row();
        b.observe("x", &Atomic::Int(7));
        let stats = b.finish(2);
        let col = &stats.columns["x"];
        assert_eq!((&col.min, &col.max), (&Some(Atomic::Int(7)), &Some(Atomic::Int(7))));
    }

    #[test]
    fn generation_bumps_on_set_and_material_feedback_only() {
        let cat = StatsCatalog::new();
        assert_eq!(cat.generation(), 0);
        cat.set(
            "crm.customers",
            CollectionStats {
                rows: 100,
                ..CollectionStats::default()
            },
        );
        assert_eq!(cat.generation(), 1);

        // First observation of an unknown key: recorded, no bump.
        assert!(!cat.observe_rows("crm.orders", 300));
        assert_eq!(cat.generation(), 1);
        assert_eq!(cat.rows("crm.orders"), Some(300));

        // Small drift on a known key: quiet update.
        assert!(!cat.observe_rows("crm.customers", 110));
        assert_eq!(cat.generation(), 1);
        assert_eq!(cat.rows("crm.customers"), Some(110));

        // Material change (>2x and >16 rows): bump.
        assert!(cat.observe_rows("crm.customers", 500));
        assert_eq!(cat.generation(), 2);
        assert_eq!(cat.rows("crm.customers"), Some(500));

        // Same count again: no-op.
        assert!(!cat.observe_rows("crm.customers", 500));
        assert_eq!(cat.activity().feedback_updates, 3);
    }

    #[test]
    fn exact_bounds_require_exhaustive_sample() {
        let cat = StatsCatalog::new();
        let mut b = SampleBuilder::new();
        for i in 0..10i64 {
            b.add_row();
            b.observe("total", &Atomic::Int(i * 10));
        }
        // Sample of 10 over 10 total rows: exhaustive, bounds are exact.
        cat.set("erp.orders", b.finish(10));
        assert_eq!(cat.exact_bounds("erp.orders", "total"), Some((OrderKey::Int(0), OrderKey::Int(90))));
        // No such field / no such key.
        assert_eq!(cat.exact_bounds("erp.orders", "nope"), None);
        assert_eq!(cat.exact_bounds("erp.nope", "total"), None);

        // Same sample extrapolated to 1000 rows: partial, bounds are
        // advisory and must be withheld.
        let mut b = SampleBuilder::new();
        for i in 0..10i64 {
            b.add_row();
            b.observe("total", &Atomic::Int(i * 10));
        }
        cat.set("erp.big", b.finish(1000));
        assert_eq!(cat.exact_bounds("erp.big", "total"), None);

        // Non-numeric fields never report bounds.
        let mut b = SampleBuilder::new();
        b.add_row();
        b.observe("name", &Atomic::Str("ada".into()));
        cat.set("erp.people", b.finish(1));
        assert_eq!(cat.exact_bounds("erp.people", "name"), None);
    }

    #[test]
    fn bounds_are_exact_numbers_of_a_field_that_holds_only_numbers() {
        let cat = StatsCatalog::new();
        let edge = 9_007_199_254_740_992i64;
        let bounds_of = |values: &[Atomic]| {
            let mut b = SampleBuilder::new();
            for v in values {
                b.add_row();
                b.observe("x", v);
            }
            cat.set("t", b.finish(values.len() as u64));
            cat.exact_bounds("t", "x")
        };
        // Integers past 2^53 stay apart; NULL widens nothing.
        let got = bounds_of(&[Atomic::Int(edge + 1), Atomic::Null, Atomic::Int(edge), Atomic::Float(-0.5)]);
        assert_eq!(got, Some((OrderKey::Float(-0.5), OrderKey::Int(edge + 1))));
        // A NaN orders above every number, as the comparisons order it.
        let got = bounds_of(&[Atomic::Float(f64::NAN), Atomic::Int(3)]);
        assert!(matches!(got, Some((OrderKey::Int(3), OrderKey::Float(x))) if x.is_nan()), "{:?}", got);
        // A field that also holds text or a bool has none: against a
        // number, text orders above every number and a bool below.
        assert_eq!(bounds_of(&[Atomic::Int(5), Atomic::Str("abc".into())]), None);
        assert_eq!(bounds_of(&[Atomic::Int(5), Atomic::Bool(true)]), None);
    }

    #[test]
    fn remove_is_exact_key_only() {
        let cat = StatsCatalog::new();
        cat.set("view:a", CollectionStats::default());
        cat.set("view:ab", CollectionStats::default());
        let gen = cat.generation();
        cat.remove("view:a");
        assert!(cat.get("view:a").is_none());
        assert!(cat.get("view:ab").is_some());
        assert_eq!(cat.generation(), gen + 1);
        // Removing a missing key leaves the generation alone.
        cat.remove("view:a");
        assert_eq!(cat.generation(), gen + 1);
    }

    #[test]
    fn remove_prefix_drops_source_entries() {
        let cat = StatsCatalog::new();
        cat.set("crm.customers", CollectionStats::default());
        cat.set("billing.orders", CollectionStats::default());
        let gen = cat.generation();
        cat.remove_prefix("crm.");
        assert!(cat.get("crm.customers").is_none());
        assert!(cat.get("billing.orders").is_some());
        assert_eq!(cat.generation(), gen + 1);
        // Removing nothing leaves the generation alone.
        cat.remove_prefix("nope.");
        assert_eq!(cat.generation(), gen + 1);
    }

    /// One sampled row's observations of every kind of field.
    fn observe_row(b: &mut SampleBuilder, row: u64, sampled: u64, k: u64, rng: &mut nimble_trace::rng::Rng) {
        b.add_row();
        b.observe("unique", &Atomic::Int(row as i64));
        // ≤ half the sample distinct: the observed domain is kept.
        b.observe("repeating", &Atomic::Str(format!("r{}", row % (k % (sampled / 2).max(1) + 1))));
        // Over half but not all distinct: the ratio is scaled.
        let between = sampled / 2 + 1 + k % (sampled / 2).max(1);
        b.observe("between", &Atomic::Int((row % between.min(sampled.saturating_sub(1)).max(1)) as i64));
        if rng.chance(0.3) {
            b.observe("nulls", &Atomic::Null);
        } else {
            b.observe("nulls", &Atomic::Float(rng.below(40) as f64 + 0.5));
        }
        // Four values a row: past the cap from 129 rows on.
        for v in 0..4 {
            b.observe("overflowing", &Atomic::Int(4 * row as i64 + v));
        }
    }

    /// `with_rows` is `finish` at the other total, exactly — for every
    /// kind of field and every total from the sample's size to 10⁶: the
    /// one formula, applied to the counts the sample kept.
    #[test]
    fn with_rows_is_finish_at_the_other_total() {
        // Columns seen by branch: overflowed, key-like, repeating, scaled.
        let mut branches = [0usize; 4];
        nimble_trace::rng::sweep(300, |rng| {
            let sampled = 1 + rng.below(300) as u64;
            let k = rng.next_u64() % 1000;
            let total = |rng: &mut nimble_trace::rng::Rng| match rng.below(4) {
                0 => sampled,
                1 => sampled + rng.below(20) as u64,
                2 => sampled + rng.below(10_000) as u64,
                _ => (sampled + rng.below(1_000_000) as u64).min(1_000_000),
            };
            let (t1, t2) = (total(rng), total(rng));
            let seed = rng.next_u64();
            let finished = |t: u64| {
                let mut values = nimble_trace::rng::Rng::new(seed);
                let mut b = SampleBuilder::new();
                for row in 0..sampled {
                    observe_row(&mut b, row, sampled, k, &mut values);
                }
                b.finish(t)
            };
            let continued = finished(t1).with_rows(t2);
            assert_eq!(continued, finished(t2), "sampled {} k {} totals {} -> {}", sampled, k, t1, t2);
            for col in continued.columns.values() {
                let branch = match col.sample_distinct {
                    None => 0,
                    Some(seen) if seen >= sampled => 1,
                    Some(seen) if seen * 2 <= sampled => 2,
                    Some(_) => 3,
                };
                branches[branch] += 1;
            }
        });
        // Every branch of the formula was taken, many times over.
        assert!(branches.iter().all(|&n| n >= 50), "{:?}", branches);
    }

    #[test]
    fn an_append_moves_the_generation_only_on_a_material_change() {
        let cat = StatsCatalog::new();
        let mut b = SampleBuilder::new();
        for i in 0..256 {
            b.add_row();
            b.observe("id", &Atomic::Int(i));
        }
        let stats = b.finish(1000);
        let mark = |upto| SampleMark { generation: 9, upto };
        cat.set_sample("erp.orders", stats.clone(), Some(mark(1000)));
        assert_eq!(cat.get_sample("erp.orders"), Some((stats.clone(), Some(mark(1000)))));
        let gen = cat.generation();

        // Ten rows more: quiet, and the entry is the continued sample.
        cat.append("erp.orders", stats.clone().with_rows(1010), mark(1010));
        assert_eq!(cat.generation(), gen);
        let (now, now_mark) = cat.get_sample("erp.orders").unwrap();
        assert_eq!((now.rows, now.distinct("id"), now_mark), (1010, Some(1010), Some(mark(1010))));
        // More than doubled: plans on the old count are suspect.
        cat.append("erp.orders", stats.with_rows(2100), mark(2100));
        assert_eq!(cat.generation(), gen + 1);
        cat.note_resample();
        let activity = cat.activity();
        assert_eq!((activity.appended, activity.resampled), (2, 1));
        // A plain `set` holds no stamp.
        cat.set("erp.orders", CollectionStats::default());
        assert_eq!(cat.get_sample("erp.orders").unwrap().1, None);
    }
}
