//! The relational adapter's prepared path against the SQL text it stands
//! for: `adapter.execute(q)` — find the statement prepared for `q`'s
//! shape, bind `q`'s values, run — must be `Database::execute(&to_sql(q))`
//! in everything a caller can see. Seeded sweeps, the seed printed.
//!
//! * **Same document, same evidence.** Over every `PredOp` × every kind
//!   of value (strings with `'`, `?` and `%`, negative and fractional
//!   numbers, null), pairs of selections, key sets of every admitted type
//!   at 1, 2, 333 and 1 025 keys, `LIMIT`, two-collection joins and the
//!   output-less `1 AS __match` scan, on an indexed and an unindexed
//!   copy of the tables: the two documents are equal node for node, and
//!   the two databases' `ExecStats` (`rows_scanned`, `index_lookups`,
//!   `used_indexes`, `statements`) move alike. A fragment the text path
//!   refuses (`LIKE 5`) is refused by the prepared path too.
//! * **One prepare per shape**, however many values; **DDL behind the
//!   adapter's back** is honoured on the next call; **two threads** on
//!   one shape each get their own rows; **ill-fitting slot values** are
//!   a `SqlError`.
//!
//! What fails under two mutations of the code, tried when the suite was
//! written:
//!
//! * *The generation check removed* (`Database::is_current` always
//!   true): `ddl_behind_the_adapters_back_…` fails the stats comparison
//!   of its first call after `CREATE INDEX` (the cached statement still
//!   scans: `rows_scanned: 240, used_indexes: []` against `5, ["t.k"]`),
//!   and `prepared_equals_text_…` fails the same comparison on its
//!   canary, the fragment run just before and just after the fixture is
//!   indexed (the sweeps alone would not notice — by the time a shape
//!   comes round again it has left the cache and is prepared afresh).
//!   The relational crate's own
//!   `a_statement_runs_only_under_the_schema_it_was_prepared_for` fails
//!   too. No document differs: a stale path is a slower path to the
//!   same rows.
//! * *Two slots bound in swapped order* (the adapter's value list
//!   reversed): `prepared_equals_text_…` fails on the first
//!   two-selection fragment (`t.k >= 3 AND t.f < 2.5` answers as
//!   `t.k >= 2.5 AND t.f < 3`: 385 nodes against 378), and
//!   `one_shape_prepares_once_…` fails its row count the same way; a
//!   selection beside a key set is refused with "slot 1 takes a Value,
//!   List(…) bound" (two of the adapter's unit tests). One-slot shapes —
//!   `two_threads_…`, `ddl_behind_…` — cannot tell.

use nimble_relational::{Database, ExecStats, SlotValue};
use nimble_sources::query::{CollectionRef, FieldRef, PredOp, RowsBuilder, Selection, SourceQuery};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::SourceAdapter;
use nimble_trace::rng::Rng;
use nimble_xml::{Atomic, Document, Sym};
use std::sync::{Arc, Barrier};

const SEED: u64 = 0x5eed_2026_1001;

const WORDS: [&str; 8] = ["acme", "O'Hare", "what?", "50%", "it''s", "", "Zed", "a_b"];

/// `t`: 240 rows over every column type, with nulls, repeats, negative
/// and fractional numbers and awkward strings; `u`: 90 rows that join to
/// it on `t_id` (some dangling).
fn statements(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let quoted = |s: &str| format!("'{}'", s.replace('\'', "''"));
    let mut out = vec![
        "CREATE TABLE t (id INT, k INT, f FLOAT, s TEXT, b BOOL)".to_string(),
        "CREATE TABLE u (id INT, t_id INT, w FLOAT)".to_string(),
    ];
    let rows: Vec<String> = (0..240)
        .map(|id| {
            let k = match rng.below(12) {
                0 => "NULL".to_string(),
                _ => (rng.below(40) as i64 - 8).to_string(),
            };
            let f = match rng.below(12) {
                0 => "NULL".to_string(),
                _ => format!("{}.{}", rng.below(30) as i64 - 10, [0, 25, 5, 75][rng.below(4)]),
            };
            let s = match rng.below(10) {
                0 => "NULL".to_string(),
                _ => quoted(WORDS[rng.below(WORDS.len())]),
            };
            let b = ["TRUE", "FALSE", "NULL"][rng.below(3)];
            format!("({}, {}, {}, {}, {})", id, k, f, s, b)
        })
        .collect();
    out.push(format!("INSERT INTO t VALUES {}", rows.join(", ")));
    let rows: Vec<String> = (0..90)
        .map(|id| format!("({}, {}, {}.5)", id, rng.below(260), rng.below(50)))
        .collect();
    out.push(format!("INSERT INTO u VALUES {}", rows.join(", ")));
    out
}

const INDEXES: [&str; 5] = [
    "CREATE INDEX ON t (id) USING HASH",
    "CREATE INDEX ON t (k)",
    "CREATE INDEX ON t (f)",
    "CREATE INDEX ON t (s) USING HASH",
    "CREATE INDEX ON u (t_id) USING HASH",
];

/// The adapter under test and a database of its own for the text path,
/// built from the same statements.
struct Pair {
    adapter: RelationalAdapter,
    reference: Database,
}

impl Pair {
    fn new(seed: u64) -> Pair {
        let stmts = statements(seed);
        let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
        let mut reference = Database::new();
        for s in &refs {
            reference.execute(s).unwrap();
        }
        Pair {
            adapter: RelationalAdapter::from_statements("src", &refs).unwrap(),
            reference,
        }
    }

    fn ddl(&mut self, sql: &str) {
        self.adapter.database().write().execute(sql).unwrap();
        self.reference.execute(sql).unwrap();
    }

    /// Run `q` both ways from zeroed stats; the documents (or that both
    /// refused) and what each database counted.
    fn both(&mut self, q: &SourceQuery) -> (Option<Arc<Document>>, ExecStats, ExecStats) {
        let sql = RelationalAdapter::to_sql(q);
        self.adapter.database().write().reset_stats();
        self.reference.reset_stats();
        let prepared = self.adapter.execute(q);
        let text = self.reference.execute(&sql).map(|rs| {
            let mut out = RowsBuilder::new();
            for row in &rs.rows {
                let fields: Vec<(&str, Atomic)> = rs
                    .columns
                    .iter()
                    .zip(row)
                    .map(|(c, v)| (c.as_str(), v.clone()))
                    .collect();
                out.row(&fields);
            }
            out.finish()
        });
        let mut got = self.adapter.database().read().stats().clone();
        let mut want = self.reference.stats().clone();
        // Preparing is the one thing the two are meant to do differently.
        got.prepares = 0;
        want.prepares = 0;
        let doc = match (prepared, text) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.len(), want.len(), "{}", sql);
                assert!(got.root().deep_eq(&want.root()), "{}", sql);
                Some(got)
            }
            (Err(_), Err(_)) => None,
            (got, want) => panic!(
                "{}: prepared {:?}, text {:?}",
                sql,
                got.map(|d| d.len()),
                want.map(|d| d.len())
            ),
        };
        (doc, got, want)
    }

    fn check(&mut self, q: &SourceQuery) -> Option<Arc<Document>> {
        let (doc, got, want) = self.both(q);
        assert_eq!(got, want, "{}", RelationalAdapter::to_sql(q));
        doc
    }
}

fn values(rng: &mut Rng) -> Vec<Atomic> {
    vec![
        Atomic::Int(rng.below(40) as i64 - 8),
        Atomic::Int(-(rng.below(9) as i64) - 1),
        Atomic::Float(rng.below(30) as f64 - 10.0 + 0.25),
        Atomic::Float(-0.5),
        Atomic::Float(rng.below(20) as f64),
        Atomic::Str(WORDS[rng.below(WORDS.len())].to_string()),
        Atomic::Str("O'Hare".into()),
        Atomic::Str("what?".into()),
        Atomic::Str("%a%".into()),
        Atomic::Str("_?%".into()),
        Atomic::Sym(Sym::intern("acme")),
        Atomic::Sym(Sym::intern("it''s")),
        Atomic::Bool(rng.below(2) == 0),
        Atomic::Null,
    ]
}

const OPS: [PredOp; 7] = [
    PredOp::Eq,
    PredOp::Ne,
    PredOp::Lt,
    PredOp::Le,
    PredOp::Gt,
    PredOp::Ge,
    PredOp::Like,
];

const FIELDS: [&str; 5] = ["id", "k", "f", "s", "b"];

fn scan_t() -> SourceQuery {
    SourceQuery::scan("t", &[("i", "id"), ("s", "s"), ("f", "f")])
}

/// Keys of one type, distinct and non-null, as the bind stage sends them.
fn key_set(field: &str, n: usize) -> Arc<[Atomic]> {
    (0..n)
        .map(|i| match field {
            "k" | "id" => Atomic::Int(i as i64 - 4),
            "f" => Atomic::Float(i as f64 * 0.25 - 10.0),
            "s" => match WORDS.get(i) {
                Some(w) => Atomic::Str(w.to_string()),
                None => Atomic::Str(format!("w{}?'", i)),
            },
            _ => Atomic::Bool(i % 2 == 0),
        })
        .collect()
}

fn sweep(pair: &mut Pair, rng: &mut Rng) -> (usize, usize) {
    let (mut ran, mut refused) = (0, 0);
    let mut run = |pair: &mut Pair, q: &SourceQuery| {
        ran += 1;
        if pair.check(q).is_none() {
            refused += 1;
        }
    };
    // Every operator × every kind of value × every column type.
    for op in OPS {
        for field in FIELDS {
            for value in values(rng) {
                run(pair, &scan_t().with_selection(field, op, value));
            }
        }
    }
    // Two selections: the slots must be bound in the order written.
    run(
        pair,
        &scan_t()
            .with_selection("k", PredOp::Ge, Atomic::Int(3))
            .with_selection("f", PredOp::Lt, Atomic::Float(2.5)),
    );
    for _ in 0..120 {
        let mut q = scan_t();
        for _ in 0..2 + rng.below(2) {
            let vs = values(rng);
            q = q.with_selection(
                FIELDS[rng.below(5)],
                OPS[rng.below(6)],
                vs[rng.below(vs.len())].clone(),
            );
        }
        if rng.below(3) == 0 {
            q.limit = Some(rng.below(20));
        }
        run(pair, &q);
    }
    // Key sets of every admitted type and size, alone, beside a
    // selection (on the same and on another column), two at once, and
    // under a limit.
    for field in ["k", "f", "s", "b", "id"] {
        for n in [1, 2, 333, 1025] {
            let keys = key_set(field, n);
            let keyed = scan_t().with_key_set(FieldRef::new("t", field), Arc::clone(&keys));
            run(pair, &keyed);
            run(pair, &keyed.clone().with_selection("f", PredOp::Gt, Atomic::Float(-2.0)));
            run(pair, &keyed.clone().with_selection("id", PredOp::Eq, Atomic::Int(17)));
            run(
                pair,
                &keyed
                    .clone()
                    .with_key_set(FieldRef::new("t", "id"), key_set("id", 2 * n)),
            );
            let mut limited = keyed;
            limited.limit = Some(n / 2);
            run(pair, &limited);
        }
    }
    // Limit alone (the catalog's sampling scans), zero included.
    for n in [0, 1, 7, 256, 10_000] {
        let mut q = scan_t();
        q.limit = Some(n);
        run(pair, &q);
    }
    // The output-less existence scan.
    for value in values(rng) {
        let mut q = SourceQuery::scan("t", &[]).with_selection("k", PredOp::Eq, value);
        run(pair, &q);
        q.selections.clear();
        run(pair, &q);
    }
    // Two-collection join fragments: selections on either side, a key
    // set on the joined side, a limit.
    for round in 0..40 {
        let vs = values(rng);
        let mut q = SourceQuery {
            collections: vec![
                CollectionRef {
                    alias: "a".into(),
                    collection: "t".into(),
                },
                CollectionRef {
                    alias: "b".into(),
                    collection: "u".into(),
                },
            ],
            join_conds: vec![(FieldRef::new("b", "t_id"), FieldRef::new("a", "id"))],
            selections: vec![Selection {
                field: FieldRef::new("a", FIELDS[rng.below(5)]),
                op: OPS[rng.below(6)],
                value: vs[rng.below(vs.len())].clone(),
            }],
            outputs: vec![
                ("i".into(), FieldRef::new("a", "id")),
                ("w".into(), FieldRef::new("b", "w")),
                ("s".into(), FieldRef::new("a", "s")),
            ],
            limit: (round % 5 == 0).then_some(9),
            key_sets: Vec::new(),
            after_row: None,
        };
        if round % 2 == 0 {
            q.selections.push(Selection {
                field: FieldRef::new("b", "w"),
                op: PredOp::Gt,
                value: Atomic::Float(rng.below(50) as f64),
            });
        }
        if round % 3 == 0 {
            q.key_sets.push((FieldRef::new("b", "t_id"), key_set("id", 1 + round * 9)));
        }
        run(pair, &q);
    }
    (ran, refused)
}

#[test]
fn prepared_equals_text_node_for_node_and_count_for_count() {
    println!("prepared_differential seed {:#x}", SEED);
    let mut rng = Rng::new(SEED);
    // Unindexed, then the same tables indexed — with a canary fragment
    // run on either side of the DDL, so that its statement is one
    // prepared against the unindexed schema when the indexes arrive.
    let mut pair = Pair::new(SEED);
    let (ran, refused) = sweep(&mut pair, &mut rng);
    let canary = scan_t().with_selection("id", PredOp::Eq, Atomic::Int(5));
    pair.check(&canary);
    for index in INDEXES {
        pair.ddl(index);
    }
    pair.check(&canary);
    let (ran_indexed, refused_indexed) = sweep(&mut pair, &mut rng);
    println!(
        "{} + {} fragments, {} + {} refused alike",
        ran, ran_indexed, refused, refused_indexed
    );
    // The sweep is not vacuous: most fragments run, and the ones no SQL
    // text can say (`LIKE` a non-string) are refused both ways.
    assert!(ran > 600 && refused > 30 && refused < ran / 4);
    assert_eq!((ran, refused), (ran_indexed, refused_indexed));
    // Indexed, the evidence is index evidence.
    let (_, got, _) = pair.both(&canary);
    assert_eq!((got.index_lookups, got.rows_scanned), (1, 1));
    assert_eq!(got.used_indexes, ["t.id"]);
    let keys = key_set("k", 333);
    let (_, got, _) = pair.both(&scan_t().with_key_set(FieldRef::new("t", "k"), keys));
    assert_eq!(got.index_lookups, 333);
    assert_eq!(got.used_indexes, ["t.k"]);
}

fn ids(doc: &Arc<Document>) -> Vec<i64> {
    nimble_sources::query::rows_of(doc)
        .iter()
        .filter_map(|r| match nimble_sources::query::row_field(r, "i") {
            Atomic::Int(i) => Some(i),
            _ => None,
        })
        .collect()
}

#[test]
fn one_shape_prepares_once_whatever_the_values() {
    // A lens-like mix: three look-up shapes (one with two slots, one
    // keyed), a thousand different values each.
    let mut pair = Pair::new(SEED);
    for index in INDEXES {
        pair.ddl(index);
    }
    pair.adapter.database().write().reset_stats();
    let mut rng = Rng::new(SEED ^ 2);
    for round in 0..1000i64 {
        let by_id = scan_t().with_selection("id", PredOp::Eq, Atomic::Int(round % 240));
        assert_eq!(ids(&pair.adapter.execute(&by_id).unwrap()), [round % 240]);
        let ranged = SourceQuery::scan("t", &[("i", "id")])
            .with_selection("k", PredOp::Ge, Atomic::Int(rng.below(30) as i64))
            .with_selection("f", PredOp::Lt, Atomic::Float(rng.below(20) as f64 + 0.5));
        let keyed = SourceQuery::scan("u", &[("i", "id")])
            .with_key_set(FieldRef::new("t", "t_id"), key_set("id", 1 + rng.below(40)));
        for q in [ranged, keyed] {
            let got = pair.adapter.execute(&q).unwrap();
            let want = pair.reference.execute(&RelationalAdapter::to_sql(&q)).unwrap();
            assert_eq!(ids(&got).len(), want.rows.len(), "{}", RelationalAdapter::to_sql(&q));
        }
    }
    let stats = pair.adapter.database().read().stats().clone();
    assert_eq!((stats.prepares, stats.statements), (3, 3000));
    // The text path prepares every statement it is handed.
    assert_eq!(pair.reference.stats().prepares, 2000);
}

#[test]
fn ddl_behind_the_adapters_back_is_honoured_on_the_next_call() {
    let mut pair = Pair::new(SEED);
    let q = scan_t().with_selection("k", PredOp::Eq, Atomic::Int(7));
    let db = pair.adapter.database();
    let run = |pair: &mut Pair| {
        db.write().reset_stats();
        let doc = pair.check(&q).unwrap();
        let stats = db.read().stats().clone();
        (ids(&doc), stats.used_indexes, stats.rows_scanned)
    };
    let (rows, used, scanned) = run(&mut pair);
    assert!(!rows.is_empty() && used.is_empty());
    assert_eq!(scanned, 240);
    // Straight on the shared handle, not through the adapter.
    pair.ddl("CREATE INDEX ON t (k)");
    let (indexed_rows, used, scanned) = run(&mut pair);
    assert_eq!(used, ["t.k"]);
    assert_eq!((indexed_rows.clone(), scanned), (rows.clone(), rows.len() as u64));
    pair.ddl("DROP INDEX ON t (k)");
    let (scanned_rows, used, scanned) = run(&mut pair);
    assert!(used.is_empty());
    assert_eq!((scanned_rows, scanned), (rows.clone(), 240));
    // And through a mutable table handle, with no statement at all.
    pair.ddl("CREATE INDEX ON t (k) USING HASH");
    assert_eq!(run(&mut pair).1, ["t.k"]);
    db.write().table_mut("t").unwrap().drop_index("k");
    pair.reference.table_mut("t").unwrap().drop_index("k");
    let (rows_again, used, scanned) = run(&mut pair);
    assert!(used.is_empty());
    assert_eq!((rows_again, scanned), (rows, 240));
}

#[test]
fn two_threads_on_one_shape_each_get_their_own_rows() {
    let pair = Pair::new(SEED);
    let adapter = &pair.adapter;
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for id in [11i64, 222] {
            let start = &start;
            scope.spawn(move || {
                let q = scan_t().with_selection("id", PredOp::Eq, Atomic::Int(id));
                start.wait();
                for _ in 0..2000 {
                    assert_eq!(ids(&adapter.execute(&q).unwrap()), [id]);
                }
            });
        }
    });
    assert_eq!(adapter.database().read().stats().prepares, 1);
}

#[test]
fn slot_values_that_do_not_fit_are_an_error_not_a_panic() {
    let mut db = Database::new();
    for s in statements(SEED) {
        db.execute(&s).unwrap();
    }
    let stmt = db
        .prepare("SELECT id FROM t WHERE k = ? AND s LIKE ? AND id IN (?)")
        .unwrap();
    let (int, text, nan) = (Atomic::Int(3), Atomic::Str("%a%".into()), Atomic::Float(f64::NAN));
    let keys = [Atomic::Int(1), Atomic::Int(2)];
    let bad_keys = [Atomic::Int(1), Atomic::Float(f64::INFINITY)];
    use SlotValue::{List, Value};
    assert!(db.run(&stmt, &[Value(&int), Value(&text), List(&keys)]).is_ok());
    assert!(db.run(&stmt, &[Value(&int), Value(&text), List(&[])]).is_ok());
    for bad in [
        vec![],
        vec![Value(&int), Value(&text)],
        vec![Value(&int), Value(&text), List(&keys), Value(&int)],
        vec![List(&keys), Value(&text), List(&keys)],
        vec![Value(&int), Value(&text), Value(&int)],
        vec![Value(&int), List(&keys), List(&keys)],
        vec![Value(&int), Value(&int), List(&keys)],
        vec![Value(&nan), Value(&text), List(&keys)],
        vec![Value(&int), Value(&text), List(&bad_keys)],
    ] {
        let err = db.run(&stmt, &bad).unwrap_err();
        assert!(err.to_string().contains("slot"), "{:?}: {}", bad, err);
    }
    // A `?` where no value can stand is a parse error.
    for sql in [
        "SELECT ? FROM t LIMIT ?",
        "SELECT id FROM ? WHERE k = 1",
        "SELECT id FROM t WHERE k BETWEEN ? AND 3",
        "SELECT id FROM t WHERE k IN (?, ?)",
        "INSERT INTO t VALUES (?, 1, 1.0, 'x', TRUE)",
    ] {
        assert!(db.prepare(sql).is_err(), "{}", sql);
    }
}
