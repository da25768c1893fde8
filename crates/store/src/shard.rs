//! Shard catalog: declared partitioning of collections across engine
//! instances.
//!
//! A [`ShardSpec`] names the **shard key** (a row field) and the
//! partitioning [`ShardScheme`] — hash or range — and the [`ShardMap`]
//! records one spec per `source.collection`. The map carries its own
//! epoch, separate from the source catalog's: re-sharding invalidates
//! compiled plans (the planner bakes shard pruning decisions into the
//! plan), but does not imply the logical catalog changed.
//!
//! The store layer owns only the *declaration*; the mediator partitions
//! documents, seeds per-shard statistics (under `shard:{k}:{key}`
//! entries in the [`crate::StatsCatalog`], sampled exhaustively so
//! min/max bounds are exact), and routes scans.

use crate::clock::LogicalClock;
use nimble_xml::{Atomic, OrderKey};
use nimble_trace::sync::RwLock;
use std::collections::BTreeMap;

/// How rows of a collection map to shards.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardScheme {
    /// `shard = fnv64(text) % shards`, where `text` spells the key's
    /// numeric reading when it has one ([`Atomic::numeric`]), and is its
    /// lexical form otherwise: the values an equality equates — `42`,
    /// `42.0`, `"42"`, `" 42 "` — route alike.
    Hash { shards: usize },
    /// Ascending split points over the numeric key: shard `k` holds
    /// rows with `bounds[k-1] <= key < bounds[k]` (`shards =
    /// bounds.len() + 1`), the key read by [`Atomic::numeric`]. Rows
    /// whose key does not read as a number fall into shard 0.
    Range { bounds: Vec<f64> },
}

/// A declared partitioning: shard key field plus scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Row field the partitioning is keyed on.
    pub key: String,
    pub scheme: ShardScheme,
}

/// Deterministic FNV-1a over UTF-8 bytes — placement must be identical
/// across processes and runs (the planner's equality routing recomputes
/// it), so `DefaultHasher` (randomly seeded) is not an option.
pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ShardSpec {
    pub fn hash(key: impl Into<String>, shards: usize) -> ShardSpec {
        ShardSpec {
            key: key.into(),
            scheme: ShardScheme::Hash {
                shards: shards.max(1),
            },
        }
    }

    pub fn range(key: impl Into<String>, bounds: Vec<f64>) -> ShardSpec {
        ShardSpec {
            key: key.into(),
            scheme: ShardScheme::Range { bounds },
        }
    }

    /// Number of shards this spec partitions into.
    pub fn shards(&self) -> usize {
        match &self.scheme {
            ShardScheme::Hash { shards } => (*shards).max(1),
            ShardScheme::Range { bounds } => bounds.len() + 1,
        }
    }

    /// The shard a row with this key value belongs to. Total: every
    /// value routes somewhere (nulls and non-numeric range keys to
    /// shard 0), so partitioning never drops rows.
    pub fn shard_of(&self, key: &Atomic) -> usize {
        let num = key.numeric();
        match &self.scheme {
            ShardScheme::Hash { shards } => {
                let text = match num {
                    Some(OrderKey::Int(i)) => i.to_string(),
                    // An integral float is the integer it equals.
                    Some(OrderKey::Float(f))
                        if f.fract() == 0.0 && (i64::MIN as f64..i64::MAX as f64).contains(&f) =>
                    {
                        (f as i64).to_string()
                    }
                    Some(OrderKey::Float(f)) => Atomic::Float(f).lexical(),
                    _ => key.lexical(),
                };
                (fnv64(&text) % (*shards).max(1) as u64) as usize
            }
            ShardScheme::Range { bounds } => {
                let v = match num {
                    Some(OrderKey::Int(i)) => i as f64,
                    Some(OrderKey::Float(f)) => f,
                    _ => return 0,
                };
                bounds.iter().take_while(|b| v >= **b).count()
            }
        }
    }
}

/// All declared shard specs, keyed by `source.collection`, plus the
/// shard-map epoch plan caches stamp against.
#[derive(Default)]
pub struct ShardMap {
    specs: RwLock<BTreeMap<String, ShardSpec>>,
    epoch: LogicalClock,
}

impl ShardMap {
    pub fn new() -> ShardMap {
        ShardMap::default()
    }

    /// Declare (or replace) the partitioning of `source.collection`.
    /// Advances the epoch: compiled plans that routed against the old
    /// layout are invalid.
    pub fn declare(&self, collection: impl Into<String>, spec: ShardSpec) {
        self.specs.write().insert(collection.into(), spec);
        self.epoch.advance(1);
    }

    /// The spec for `source.collection`, if partitioned.
    pub fn get(&self, collection: &str) -> Option<ShardSpec> {
        self.specs.read().get(collection).cloned()
    }

    /// Declared collections, in name order.
    pub fn collections(&self) -> Vec<String> {
        self.specs.read().keys().cloned().collect()
    }

    pub fn is_empty(&self) -> bool {
        self.specs.read().is_empty()
    }

    /// Monotone epoch advanced on every declaration change.
    pub fn epoch(&self) -> u64 {
        self.epoch.now()
    }
}

/// Stats-catalog key for shard `k` of `source.collection` — per-shard
/// entries live alongside the whole-collection entry and are sampled
/// exhaustively at partition time, so their min/max bounds are exact
/// and safe for pruning.
pub fn shard_stats_key(shard: usize, collection: &str) -> String {
    format!("shard:{}:{}", shard, collection)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_placement_is_deterministic_and_total() {
        let spec = ShardSpec::hash("id", 4);
        assert_eq!(spec.shards(), 4);
        for i in 0..100i64 {
            let a = spec.shard_of(&Atomic::Int(i));
            let b = spec.shard_of(&Atomic::Str(i.to_string()));
            assert_eq!(a, b, "typed and lexical keys must co-locate");
            assert!(a < 4);
        }
        // Not all rows in one shard (FNV spreads).
        let distinct: std::collections::HashSet<usize> =
            (0..100i64).map(|i| spec.shard_of(&Atomic::Int(i))).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn hash_placement_reads_a_key_as_the_comparisons_do() {
        let spec = ShardSpec::hash("id", 8);
        let at = |v: Atomic| spec.shard_of(&v);
        for two in [Atomic::Float(2.0), Atomic::Str(" 2 ".into()), Atomic::Str("+2".into()), Atomic::Str("2.0".into())] {
            assert_eq!(at(two.clone()), at(Atomic::Int(2)), "{:?}", two);
        }
        assert_eq!(at(Atomic::Str("2.50".into())), at(Atomic::Float(2.5)));
        assert_eq!(at(Atomic::Float(-(2f64.powi(63)))), at(Atomic::Int(i64::MIN)));
    }

    #[test]
    fn range_placement_respects_bounds() {
        let spec = ShardSpec::range("total", vec![100.0, 200.0]);
        assert_eq!(spec.shards(), 3);
        assert_eq!(spec.shard_of(&Atomic::Int(5)), 0);
        assert_eq!(spec.shard_of(&Atomic::Int(100)), 1); // inclusive lower
        assert_eq!(spec.shard_of(&Atomic::Float(199.9)), 1);
        assert_eq!(spec.shard_of(&Atomic::Int(200)), 2);
        assert_eq!(spec.shard_of(&Atomic::Int(10_000)), 2);
        // Unparseable keys route to shard 0 rather than vanishing.
        assert_eq!(spec.shard_of(&Atomic::Str("n/a".into())), 0);
        assert_eq!(spec.shard_of(&Atomic::Null), 0);
    }

    #[test]
    fn map_epoch_advances_on_declare() {
        let map = ShardMap::new();
        assert!(map.is_empty());
        let e0 = map.epoch();
        map.declare("erp.orders", ShardSpec::hash("cust_id", 2));
        assert!(map.epoch() > e0);
        assert_eq!(map.get("erp.orders").map(|s| s.shards()), Some(2));
        assert!(map.get("erp.customers").is_none());
        let e1 = map.epoch();
        map.declare("erp.orders", ShardSpec::range("cust_id", vec![50.0]));
        assert!(map.epoch() > e1, "re-declaration must re-stamp plans");
        assert_eq!(map.collections(), vec!["erp.orders".to_string()]);
    }

    #[test]
    fn shard_stats_keys_are_namespaced() {
        assert_eq!(shard_stats_key(3, "erp.orders"), "shard:3:erp.orders");
    }
}
