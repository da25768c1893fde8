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

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use nimble_xml::Atomic;
use nimble_trace::sync::RwLock;

/// Per-field statistics gathered from a sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStats {
    /// Estimated number of distinct values across the whole collection
    /// (extrapolated from the sample).
    pub distinct: u64,
    /// Smallest numeric value seen, if the field ever held a number.
    pub min: Option<f64>,
    /// Largest numeric value seen, if the field ever held a number.
    pub max: Option<f64>,
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
}

/// Counters describing stats activity, for metrics export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsActivity {
    /// Current generation (bumped on material change).
    pub generation: u64,
    /// Row-count feedback observations applied from query execution.
    pub feedback_updates: u64,
}

/// Thread-safe catalog of per-collection statistics with a generation
/// stamp for cache invalidation.
#[derive(Default)]
pub struct StatsCatalog {
    inner: RwLock<BTreeMap<String, CollectionStats>>,
    generation: AtomicU64,
    feedback_updates: AtomicU64,
}

/// Row-count feedback only bumps the generation (invalidating cached
/// plans) when the observed count differs *materially* from the current
/// estimate: more than 2x off and by more than this many rows.
const FEEDBACK_ABS_SLACK: u64 = 16;

impl StatsCatalog {
    /// New, empty catalog at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) the statistics for `key`, bumping the
    /// generation. Used for registration-time seeding and re-sampling.
    pub fn set(&self, key: &str, stats: CollectionStats) {
        self.inner.write().insert(key.to_string(), stats);
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the statistics for `key`, if any.
    pub fn get(&self, key: &str) -> Option<CollectionStats> {
        self.inner.read().get(key).cloned()
    }

    /// Estimated row count for `key`, if known.
    pub fn rows(&self, key: &str) -> Option<u64> {
        self.inner.read().get(key).map(|s| s.rows)
    }

    /// *Exact* numeric bounds of `field` in collection `key`, or `None`.
    /// Bounds are returned only when the sample was exhaustive
    /// ([`CollectionStats::exhaustive`]): a partial sample's min/max can
    /// be narrower than the data, and callers use these bounds to prove
    /// predicates unsatisfiable — an unsound claim over advisory
    /// bounds. Callers must still re-check the stats generation if they
    /// cache the answer (out-of-band source mutations re-sample).
    pub fn exact_bounds(&self, key: &str, field: &str) -> Option<(f64, f64)> {
        let inner = self.inner.read();
        let stats = inner.get(key)?;
        if !stats.exhaustive() {
            return None;
        }
        let col = stats.columns.get(field)?;
        match (col.min, col.max) {
            (Some(lo), Some(hi)) => Some((lo, hi)),
            _ => None,
        }
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
                    CollectionStats {
                        rows,
                        ..CollectionStats::default()
                    },
                );
                self.feedback_updates.fetch_add(1, Ordering::Relaxed);
                false
            }
            Some(stats) => {
                if stats.rows == rows {
                    return false;
                }
                let old = stats.rows;
                stats.rows = rows;
                self.feedback_updates.fetch_add(1, Ordering::Relaxed);
                let (lo, hi) = (old.min(rows), old.max(rows));
                let material = hi > lo.saturating_mul(2) && hi - lo > FEEDBACK_ABS_SLACK;
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
    min: Option<f64>,
    max: Option<f64>,
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
        if let Some(n) = value.as_f64() {
            acc.min = Some(acc.min.map_or(n, |m| m.min(n)));
            acc.max = Some(acc.max.map_or(n, |m| m.max(n)));
        }
    }

    /// Finish the sample, extrapolating distinct counts to an estimated
    /// `total_rows` collection size. When every sampled value was unique
    /// the field is assumed key-like (distinct == total); when values
    /// clearly repeat (distinct ≤ half the sample) the sample most
    /// likely saw the whole domain, so the observed count is kept;
    /// in between the sample ratio is scaled up and capped at the total.
    pub fn finish(self, total_rows: u64) -> CollectionStats {
        let sampled = self.rows;
        let columns = self
            .fields
            .into_iter()
            .map(|(name, acc)| {
                let seen = acc.seen.len() as u64;
                let distinct = if acc.overflow || (seen >= sampled && sampled > 0) {
                    total_rows
                } else if sampled == 0 {
                    0
                } else if seen * 2 <= sampled {
                    seen.min(total_rows)
                } else {
                    let scaled =
                        (seen as u128 * total_rows as u128 / sampled.max(1) as u128) as u64;
                    scaled.clamp(seen, total_rows)
                };
                (
                    name,
                    ColumnStats {
                        distinct: distinct.max(1),
                        min: acc.min,
                        max: acc.max,
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
        assert_eq!(col.min, Some(1.0));
        assert_eq!(col.max, Some(4.0));
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
        assert_eq!((col.min, col.max), (Some(7.0), Some(7.0)));
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
        assert_eq!(cat.exact_bounds("erp.orders", "total"), Some((0.0, 90.0)));
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
}
