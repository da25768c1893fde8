//! Synthetic dirty customer data with ground truth.
//!
//! The paper's evaluation context — Fortune-500 customer databases
//! "scattered across multiple databases in the organization" — is
//! proprietary, so experiments run over this generator instead: clean
//! entities are synthesized, then duplicated across sources with
//! parameterized corruption (typos, abbreviations, field splits, name
//! reordering, dropped fields). Each record carries a hidden entity id,
//! giving exact precision/recall for any matcher.

use crate::record::Record;
use nimble_trace::rng::Rng;
use std::collections::HashMap;

const FIRST_NAMES: &[&str] = &[
    "ada", "alan", "grace", "edsger", "donald", "barbara", "john", "leslie", "tony", "edgar",
    "margaret", "dennis", "ken", "bjarne", "james", "niklaus", "frances", "jean", "kathleen",
    "maurice",
];
const LAST_NAMES: &[&str] = &[
    "lovelace", "turing", "hopper", "dijkstra", "knuth", "liskov", "mccarthy", "lamport",
    "hoare", "codd", "hamilton", "ritchie", "thompson", "stroustrup", "gosling", "wirth",
    "allen", "bartik", "booth", "wilkes",
];
const STREETS: &[&str] = &[
    "main street", "oak avenue", "pine road", "cedar boulevard", "maple drive", "first street",
    "lake road", "hill lane", "park avenue", "river road",
];
const CITIES: &[(&str, &str)] = &[
    ("seattle", "wa"),
    ("portland", "or"),
    ("austin", "tx"),
    ("boston", "ma"),
    ("denver", "co"),
    ("chicago", "il"),
    ("atlanta", "ga"),
    ("phoenix", "az"),
];

/// Abbreviation corruption: the inverse of the cleaner's expander.
const ABBREVS: &[(&str, &str)] = &[
    ("street", "st"),
    ("avenue", "ave"),
    ("road", "rd"),
    ("boulevard", "blvd"),
    ("drive", "dr"),
    ("lane", "ln"),
];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Distinct real-world entities.
    pub entities: usize,
    /// Sources records are spread across.
    pub sources: Vec<String>,
    /// Probability an entity gets an extra (duplicate) record beyond its
    /// first, evaluated per potential duplicate (up to `sources.len()`).
    pub duplicate_rate: f64,
    /// Per-duplicate probability of each corruption.
    pub typo_rate: f64,
    pub abbrev_rate: f64,
    pub reorder_name_rate: f64,
    pub drop_field_rate: f64,
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            entities: 100,
            sources: vec!["crm".into(), "billing".into(), "support".into()],
            duplicate_rate: 0.4,
            typo_rate: 0.3,
            abbrev_rate: 0.5,
            reorder_name_rate: 0.3,
            drop_field_rate: 0.1,
            seed: 17,
        }
    }
}

/// Generated data plus the ground truth: record id → entity number.
pub struct SynthData {
    pub records: Vec<Record>,
    pub truth: HashMap<String, usize>,
}

impl SynthData {
    /// All true duplicate pairs `(id, id)` with id-sorted components.
    pub fn true_pairs(&self) -> Vec<(String, String)> {
        let mut by_entity: HashMap<usize, Vec<&String>> = HashMap::new();
        for (id, e) in &self.truth {
            by_entity.entry(*e).or_default().push(id);
        }
        let mut out = Vec::new();
        for ids in by_entity.values() {
            for i in 0..ids.len() {
                for j in i + 1..ids.len() {
                    let (a, b) = if ids[i] <= ids[j] {
                        (ids[i].clone(), ids[j].clone())
                    } else {
                        (ids[j].clone(), ids[i].clone())
                    };
                    out.push((a, b));
                }
            }
        }
        out.sort();
        out
    }

    /// Precision/recall/F1 of predicted duplicate clusters against the
    /// ground truth, pairwise.
    pub fn evaluate(&self, clusters: &[Vec<String>]) -> Evaluation {
        let truth: std::collections::HashSet<(String, String)> =
            self.true_pairs().into_iter().collect();
        let mut predicted = std::collections::HashSet::new();
        for cluster in clusters {
            for i in 0..cluster.len() {
                for j in i + 1..cluster.len() {
                    let (a, b) = if cluster[i] <= cluster[j] {
                        (cluster[i].clone(), cluster[j].clone())
                    } else {
                        (cluster[j].clone(), cluster[i].clone())
                    };
                    predicted.insert((a, b));
                }
            }
        }
        let tp = predicted.intersection(&truth).count() as f64;
        let precision = if predicted.is_empty() {
            1.0
        } else {
            tp / predicted.len() as f64
        };
        let recall = if truth.is_empty() {
            1.0
        } else {
            tp / truth.len() as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Evaluation {
            precision,
            recall,
            f1,
            true_pairs: truth.len(),
            predicted_pairs: predicted.len(),
        }
    }
}

/// Pairwise evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub true_pairs: usize,
    pub predicted_pairs: usize,
}

/// Generate dirty data per the configuration (deterministic in the
/// seed).
pub fn generate(config: &SynthConfig) -> SynthData {
    let mut rng = Rng::new(config.seed);
    let mut records = Vec::new();
    let mut truth = HashMap::new();
    let mut counters: HashMap<String, usize> = HashMap::new();

    for entity in 0..config.entities {
        let first = *rng.pick(FIRST_NAMES);
        let last = *rng.pick(LAST_NAMES);
        let name = format!("{} {}", first, last);
        let number = rng.range(1..999);
        let street = *rng.pick(STREETS);
        let (city, state) = *rng.pick(CITIES);
        let address = format!("{} {}, {}, {}", number, street, city, state);
        let phone = format!(
            "{:03}-{:03}-{:04}",
            rng.range(200..999),
            rng.range(200..999),
            rng.range(0..9999)
        );

        // The entity's first record goes to a random source, clean-ish.
        let mut homes: Vec<&String> = config.sources.iter().collect();
        rng.shuffle(&mut homes);
        let mut copies = 1;
        for _ in 1..homes.len() {
            if rng.chance(config.duplicate_rate) {
                copies += 1;
            }
        }
        for (c, source) in homes.into_iter().take(copies).enumerate() {
            let n = counters.entry(source.clone()).or_insert(0);
            *n += 1;
            let id = format!("{}:{}", source, n);
            let mut rec = Record::new(&id, source)
                .with("name", &name)
                .with("address", &address)
                .with("phone", &phone);
            // The first copy stays clean; duplicates get corrupted.
            if c > 0 {
                corrupt(&mut rec, config, &mut rng);
            }
            truth.insert(id, entity);
            records.push(rec);
        }
    }
    SynthData { records, truth }
}

fn corrupt(rec: &mut Record, config: &SynthConfig, rng: &mut Rng) {
    if rng.chance(config.typo_rate) {
        let v = typo(rec.get("name"), rng);
        rec.set("name", v);
    }
    if rng.chance(config.abbrev_rate) {
        let mut addr = rec.get("address").to_string();
        for (long, short) in ABBREVS {
            addr = addr.replace(long, short);
        }
        rec.set("address", addr);
    }
    if rng.chance(config.reorder_name_rate) {
        let name = rec.get("name").to_string();
        if let Some((first, last)) = name.rsplit_once(' ') {
            rec.set("name", format!("{}, {}", last, first));
        }
    }
    if rng.chance(config.drop_field_rate) {
        rec.set("phone", String::new());
    }
    if rng.chance(config.typo_rate / 2.0) {
        let v = typo(rec.get("address"), rng);
        rec.set("address", v);
    }
}

/// One random character edit: swap, delete, insert, or replace.
fn typo(s: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    if chars.len() < 2 {
        return s.to_string();
    }
    let i = rng.below(chars.len() - 1);
    match rng.below(4) {
        0 => chars.swap(i, i + 1),
        1 => {
            chars.remove(i);
        }
        2 => chars.insert(i, (b'a' + rng.below(26) as u8) as char),
        _ => chars[i] = (b'a' + rng.below(26) as u8) as char,
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let config = SynthConfig::default();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a.records, b.records);
        let different = generate(&SynthConfig {
            seed: 99,
            ..config
        });
        assert_ne!(a.records, different.records);
    }

    #[test]
    fn duplicates_exist_and_truth_covers_all() {
        let data = generate(&SynthConfig {
            entities: 50,
            duplicate_rate: 0.8,
            ..SynthConfig::default()
        });
        assert_eq!(data.truth.len(), data.records.len());
        assert!(data.records.len() > 50, "duplicates were generated");
        assert!(!data.true_pairs().is_empty());
    }

    #[test]
    fn evaluation_extremes() {
        let data = generate(&SynthConfig {
            entities: 20,
            duplicate_rate: 1.0,
            ..SynthConfig::default()
        });
        // Perfect prediction: clusters = truth groups.
        let mut by_entity: HashMap<usize, Vec<String>> = HashMap::new();
        for (id, e) in &data.truth {
            by_entity.entry(*e).or_default().push(id.clone());
        }
        let clusters: Vec<Vec<String>> = by_entity.into_values().collect();
        let eval = data.evaluate(&clusters);
        assert!((eval.precision - 1.0).abs() < 1e-9);
        assert!((eval.recall - 1.0).abs() < 1e-9);

        // Empty prediction: perfect precision, zero recall.
        let eval = data.evaluate(&[]);
        assert_eq!(eval.precision, 1.0);
        assert_eq!(eval.recall, 0.0);
        assert_eq!(eval.f1, 0.0);
    }

    #[test]
    fn corruption_rates_zero_yields_exact_duplicates() {
        let data = generate(&SynthConfig {
            entities: 10,
            duplicate_rate: 1.0,
            typo_rate: 0.0,
            abbrev_rate: 0.0,
            reorder_name_rate: 0.0,
            drop_field_rate: 0.0,
            ..SynthConfig::default()
        });
        // Any two records of the same entity have identical fields.
        let mut by_entity: HashMap<usize, Vec<&Record>> = HashMap::new();
        for r in &data.records {
            by_entity.entry(data.truth[&r.id]).or_default().push(r);
        }
        for group in by_entity.values() {
            for r in group.iter().skip(1) {
                assert_eq!(r.fields, group[0].fields);
            }
        }
    }
}
