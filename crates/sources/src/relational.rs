//! The relational adapter: compiles fragments to **prepared SQL** for a
//! `nimble-relational` database, the way the paper's compiler talks to
//! customer RDBMSs over ODBC. A fragment's *shape* — everything but the
//! values of its selections, the keys of its key sets and the number in
//! its row floor — is rendered
//! to SQL text with a `?` where each value goes and prepared once; every
//! call after that binds the call's values to the prepared statement and
//! runs it. [`RelationalAdapter::to_sql`] spells the same statement with
//! the values written in, for EXPLAIN and for tests.

use crate::capabilities::Capabilities;
use crate::error::SourceError;
use crate::query::{CollectionInfo, RowsBuilder, SourceQuery, Watermark};
use crate::{SourceAdapter, SourceKind};
use nimble_relational::{ColumnType, Database, Prepared, SlotValue, SqlError};
use nimble_xml::{Atomic, AtomicType, Document, Sym};
use nimble_trace::sync::{Mutex, RwLock};
use std::fmt::Write;
use std::sync::Arc;

/// Most fragment shapes an adapter keeps prepared. A mediator's plans
/// push a handful of shapes per collection; past the bound the shape
/// unused for longest makes room.
const STATEMENT_CACHE_SHAPES: usize = 64;

/// One prepared fragment shape.
struct Statement {
    /// The fragment it was prepared from, without its values: selection
    /// values are null and key sets empty, so the cache holds no data of
    /// any call.
    shape: SourceQuery,
    prepared: Arc<Prepared>,
    /// The result document's element names, one per output column.
    names: Arc<[Sym]>,
    /// Tick of the last call that used it.
    used: u64,
}

/// The adapter's prepared statements, found by comparing shapes.
#[derive(Default)]
struct StatementCache {
    statements: Vec<Statement>,
    tick: u64,
}

/// True when two fragments differ at most in their selections' values,
/// their key sets' keys and their row floors' numbers — that is, when one
/// prepared statement serves both. Having a floor is shape (the statement
/// has a slot for it); where it lies is a value.
fn same_shape(a: &SourceQuery, b: &SourceQuery) -> bool {
    a.collections == b.collections
        && a.after_row.is_some() == b.after_row.is_some()
        && a.join_conds == b.join_conds
        && a.outputs == b.outputs
        && a.limit == b.limit
        && a.selections.len() == b.selections.len()
        && a.key_sets.len() == b.key_sets.len()
        && a.selections
            .iter()
            .zip(&b.selections)
            .all(|(x, y)| x.field == y.field && x.op == y.op)
        && a.key_sets.iter().zip(&b.key_sets).all(|(x, y)| x.0 == y.0)
}

/// Wraps a shared relational database as an integration source.
pub struct RelationalAdapter {
    name: String,
    db: Arc<RwLock<Database>>,
    /// Only ever locked while the database is, so the two never wait on
    /// each other in the other order.
    statements: Mutex<StatementCache>,
}

impl RelationalAdapter {
    pub fn new(name: &str, db: Arc<RwLock<Database>>) -> RelationalAdapter {
        RelationalAdapter {
            name: name.to_string(),
            db,
            statements: Mutex::new(StatementCache::default()),
        }
    }

    /// Convenience: build the database inline with DDL/DML statements.
    pub fn from_statements(name: &str, statements: &[&str]) -> Result<RelationalAdapter, SourceError> {
        let mut db = Database::new();
        for s in statements {
            db.execute(s)
                .map_err(|e| SourceError::query(name, e.to_string()))?;
        }
        Ok(RelationalAdapter::new(name, Arc::new(RwLock::new(db))))
    }

    /// The shared database handle (experiments reset stats through it).
    pub fn database(&self) -> Arc<RwLock<Database>> {
        Arc::clone(&self.db)
    }

    /// Generate the SQL text for a fragment — public so tests and EXPLAIN
    /// output can show exactly what is shipped. What is prepared is this
    /// text with a `?` for each selection value and each key list.
    pub fn to_sql(query: &SourceQuery) -> String {
        render(query, true)
    }

    /// The prepared statement for `query`'s shape: the cached one while
    /// the database's schema is the one it was prepared under, a fresh
    /// one otherwise. A hit compares shapes field by field and allocates
    /// nothing.
    fn statement(
        &self,
        db: &mut Database,
        query: &SourceQuery,
    ) -> Result<(Arc<Prepared>, Arc<[Sym]>), SqlError> {
        let mut cache = self.statements.lock();
        cache.tick += 1;
        let tick = cache.tick;
        let found = cache
            .statements
            .iter()
            .position(|s| same_shape(&s.shape, query));
        if let Some(at) = found {
            let s = &mut cache.statements[at];
            if db.is_current(&s.prepared) {
                s.used = tick;
                return Ok((Arc::clone(&s.prepared), Arc::clone(&s.names)));
            }
            cache.statements.swap_remove(at);
        }
        let prepared = Arc::new(db.prepare(&render(query, false))?);
        let names: Arc<[Sym]> = prepared.columns().iter().map(|c| Sym::intern(c)).collect();
        if cache.statements.len() >= STATEMENT_CACHE_SHAPES {
            let oldest = cache
                .statements
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.used)
                .map(|(at, _)| at);
            if let Some(at) = oldest {
                cache.statements.swap_remove(at);
            }
        }
        let mut shape = query.clone();
        for s in &mut shape.selections {
            s.value = Atomic::Null;
        }
        for (_, keys) in &mut shape.key_sets {
            *keys = Arc::new([]);
        }
        shape.after_row = shape.after_row.map(|_| 0);
        cache.statements.push(Statement {
            shape,
            prepared: Arc::clone(&prepared),
            names: Arc::clone(&names),
            used: tick,
        });
        Ok((prepared, names))
    }
}

/// A fragment as SQL text: with its values written in as literals, or
/// with a `?` slot where the row floor, each selection's value and each
/// key set's list would stand (in that order — the order
/// [`SourceAdapter::execute`] binds them in).
fn render(query: &SourceQuery, values: bool) -> String {
    let mut sql = String::from("SELECT ");
    if query.outputs.is_empty() {
        // A fragment with only selections (no bound variables) is an
        // existence scan; emit a constant so the SQL stays valid and
        // the row count carries the match multiplicity.
        sql.push_str("1 AS __match");
    }
    for (i, (name, f)) in query.outputs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(sql, "{}{}.{} AS {}", sep, f.alias, f.field, name);
    }
    let _ = write!(
        sql,
        " FROM {} {}",
        query.collections[0].collection, query.collections[0].alias
    );
    match query.row_floor() {
        Some(n) if values => {
            let _ = write!(sql, " AFTER ROW {}", n);
        }
        Some(_) => sql.push_str(" AFTER ROW ?"),
        None => {}
    }
    for (c, (l, r)) in query.collections.iter().skip(1).zip(&query.join_conds) {
        // Join conditions pair up with the collections after the first:
        // `join_conds[i - 1]` connects collection `i`.
        let _ = write!(sql, " JOIN {} {} ON {} = {}", c.collection, c.alias, l, r);
    }
    let mut sep = " WHERE ";
    for s in &query.selections {
        let _ = write!(sql, "{}{} {} ", sep, s.field, s.op.sql());
        if values {
            sql.push_str(&sql_literal(&s.value));
        } else {
            sql.push('?');
        }
        sep = " AND ";
    }
    for (field, keys) in &query.key_sets {
        let _ = write!(sql, "{}{} IN (", sep, field);
        if values {
            for (i, key) in keys.iter().enumerate() {
                if i > 0 {
                    sql.push_str(", ");
                }
                sql.push_str(&sql_literal(key));
            }
        } else {
            sql.push('?');
        }
        sql.push(')');
        sep = " AND ";
    }
    if let Some(n) = query.limit {
        let _ = write!(sql, " LIMIT {}", n);
    }
    sql
}

fn sql_literal(a: &Atomic) -> String {
    match a {
        Atomic::Null => "NULL".to_string(),
        Atomic::Bool(b) => b.to_string().to_uppercase(),
        Atomic::Int(i) => i.to_string(),
        Atomic::Float(f) => nimble_xml::atomic::float_literal(*f),
        Atomic::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Atomic::Sym(s) => format!("'{}'", s.as_str().replace('\'', "''")),
    }
}

fn column_type_to_atomic(ty: ColumnType) -> AtomicType {
    match ty {
        ColumnType::Int => AtomicType::Int,
        ColumnType::Float => AtomicType::Float,
        ColumnType::Text => AtomicType::Str,
        ColumnType::Bool => AtomicType::Bool,
    }
}

impl SourceAdapter for RelationalAdapter {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Relational
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::full()
    }

    fn collections(&self) -> Vec<CollectionInfo> {
        let db = self.db.read();
        db.table_names()
            .into_iter()
            .filter_map(|name| {
                db.table(&name).map(|t| CollectionInfo {
                    name: name.clone(),
                    fields: t
                        .columns
                        .iter()
                        .map(|c| (c.name.clone(), column_type_to_atomic(c.ty)))
                        .collect(),
                    estimated_rows: Some(t.row_count() as u64),
                })
            })
            .collect()
    }

    fn execute(&self, query: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        // The SQL is spelled out only to say which statement failed.
        let failed = |e: SqlError| {
            SourceError::query(&self.name, format!("{} (SQL: {})", e, Self::to_sql(query)))
        };
        let floor = query.row_floor();
        let floor_value = floor.map(|n| Atomic::Int(i64::try_from(n).unwrap_or(i64::MAX)));
        let values: Vec<SlotValue<'_>> = floor_value
            .iter()
            .map(SlotValue::Value)
            .chain(query.selections.iter().map(|s| SlotValue::Value(&s.value)))
            .chain(query.key_sets.iter().map(|(_, keys)| SlotValue::List(keys)))
            .collect();
        let (rows, names, mark) = {
            let mut db = self.db.write();
            let (prepared, names) = self.statement(&mut db, query).map_err(failed)?;
            let rows = db.run(&prepared, &values).map_err(failed)?;
            // Read under the lock the rows were: no insert lies between.
            let mark = floor.and_then(|from| {
                let table = db.table(&query.collections[0].collection)?;
                Some(Watermark {
                    generation: db.generation(),
                    from,
                    upto: table.row_count() as u64,
                })
            });
            (rows, names, mark)
        };
        let mut out = RowsBuilder::with_capacity(rows.len(), names.len());
        for row in rows {
            out.row_syms(names.iter().copied().zip(row));
        }
        Ok(match mark {
            Some(mark) => out.finish_marked(mark),
            None => out.finish(),
        })
    }

    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        let db = self.db.read();
        let table = db
            .table(name)
            .ok_or_else(|| SourceError::query(&self.name, format!("no collection {:?}", name)))?;
        let names: Vec<Sym> = table.columns.iter().map(|c| Sym::intern(&c.name)).collect();
        let mut out = RowsBuilder::with_capacity(table.rows().len(), names.len());
        for row in table.rows() {
            out.row_syms(names.iter().copied().zip(row.iter().cloned()));
        }
        Ok(out.finish())
    }

    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.db
            .read()
            .table(collection)
            .map(|t| t.row_count() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{rows_of, row_field, FieldRef, PredOp, Selection};

    fn adapter() -> RelationalAdapter {
        RelationalAdapter::from_statements(
            "crm",
            &[
                "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
                "INSERT INTO customers VALUES (1, 'Acme', 'NW'), (2, 'O''Hare', 'SW')",
                "CREATE TABLE orders (id INT, cust_id INT, total FLOAT)",
                "INSERT INTO orders VALUES (10, 1, 99.5), (11, 2, 5.0)",
            ],
        )
        .unwrap()
    }

    #[test]
    fn sql_generation() {
        let q = SourceQuery::scan("customers", &[("n", "name")]).with_selection(
            "region",
            PredOp::Eq,
            Atomic::Str("NW".into()),
        );
        assert_eq!(
            RelationalAdapter::to_sql(&q),
            "SELECT t.name AS n FROM customers t WHERE t.region = 'NW'"
        );
    }

    #[test]
    fn sql_quote_escaping() {
        let q = SourceQuery::scan("customers", &[("n", "name")]).with_selection(
            "name",
            PredOp::Eq,
            Atomic::Str("O'Hare".into()),
        );
        let sql = RelationalAdapter::to_sql(&q);
        assert!(sql.contains("'O''Hare'"), "{}", sql);
        // And it round-trips through the engine.
        let a = adapter();
        let doc = a.execute(&q).unwrap();
        assert_eq!(rows_of(&doc).len(), 1);
    }

    /// Every float is spelled so that the SQL lexer reads the same bits
    /// back: `{:?}` wrote `1e-6` and `1e16`, and the lexer reads no
    /// exponent.
    #[test]
    fn float_literals_reach_the_sql_lexer_bit_identically() {
        use nimble_relational::sql::lexer::{tokenize_sql, SqlToken};
        let mut sweep = vec![
            1e-7,
            0.000001,
            1e-5,
            1e15,
            1e16,
            1.2345678901234567e19,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            0.1 + 0.2,
            5e-324,
        ];
        let mut x = 0x2545f4914f6cdd1du64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = f64::from_bits(x);
            if f.is_finite() {
                sweep.push(f);
            }
        }
        for f in sweep {
            let text = sql_literal(&Atomic::Float(f));
            let tokens = tokenize_sql(&text).unwrap_or_else(|e| panic!("{:e} as {}: {}", f, text, e));
            let back = match tokens.as_slice() {
                [SqlToken::Float(x), SqlToken::Eof] => *x,
                [SqlToken::Minus, SqlToken::Float(x), SqlToken::Eof] => -*x,
                other => panic!("{:e} as {} lexed {:?}", f, text, other),
            };
            assert_eq!(back.to_bits(), f.to_bits(), "{:e} as {} came back {:e}", f, text, back);
        }
        // And through a statement: the row with that very total.
        let a = RelationalAdapter::from_statements(
            "s",
            &[
                "CREATE TABLE t (id INT, total FLOAT)",
                "INSERT INTO t VALUES (1, 0.000001), (2, 10000000000000000.0), (3, 0.5)",
            ],
        )
        .unwrap();
        for (op, value, ids) in [
            (PredOp::Eq, 0.000001, vec![1]),
            (PredOp::Eq, 1e16, vec![2]),
            (PredOp::Lt, 0.000001, vec![]),
            (PredOp::Le, 0.000001, vec![1]),
            (PredOp::Gt, 1e15, vec![2]),
        ] {
            let q = SourceQuery::scan("t", &[("i", "id")]).with_selection("total", op, Atomic::Float(value));
            let doc = a.execute(&q).unwrap_or_else(|e| panic!("{}: {}", RelationalAdapter::to_sql(&q), e));
            let got: Vec<i64> = rows_of(&doc)
                .iter()
                .filter_map(|r| match row_field(r, "i") {
                    Atomic::Int(i) => Some(i),
                    _ => None,
                })
                .collect();
            assert_eq!(got, ids, "{}", RelationalAdapter::to_sql(&q));
        }
    }

    #[test]
    fn key_set_is_an_in_list_beside_the_selections() {
        let keys: Arc<[Atomic]> = vec![Atomic::Int(2), Atomic::Int(7)].into();
        let q = SourceQuery::scan("orders", &[("o", "id")])
            .with_selection("total", PredOp::Gt, Atomic::Float(1.0))
            .with_key_set(FieldRef::new("t", "cust_id"), keys);
        assert_eq!(
            RelationalAdapter::to_sql(&q),
            "SELECT t.id AS o FROM orders t WHERE t.total > 1.0 AND t.cust_id IN (2, 7)"
        );
        let doc = adapter().execute(&q).unwrap();
        assert_eq!(row_field(&rows_of(&doc)[0], "o"), Atomic::Int(11));
        assert_eq!(rows_of(&doc).len(), 1);

        // A quote inside a string key survives the SQL text.
        let names: Arc<[Atomic]> = vec![Atomic::Str("O'Hare".into()), Atomic::Str("x".into())].into();
        let q = SourceQuery::scan("customers", &[("i", "id")])
            .with_key_set(FieldRef::new("t", "name"), names);
        assert!(RelationalAdapter::to_sql(&q).ends_with("WHERE t.name IN ('O''Hare', 'x')"));
        let doc = adapter().execute(&q).unwrap();
        assert_eq!(rows_of(&doc).len(), 1);
        assert_eq!(row_field(&rows_of(&doc)[0], "i"), Atomic::Int(2));
    }

    #[test]
    fn the_statement_cache_is_bounded_and_holds_no_values() {
        let a = adapter();
        let keys: Arc<[Atomic]> = vec![Atomic::Int(1), Atomic::Int(2)].into();
        // Fragments that differ in shape only (the limit is part of it).
        let shaped = |limit: usize| {
            let mut q = SourceQuery::scan("orders", &[("o", "id")])
                .with_selection("total", PredOp::Gt, Atomic::Float(1.0))
                .with_key_set(FieldRef::new("t", "cust_id"), Arc::clone(&keys));
            q.limit = Some(limit);
            q
        };
        let shapes = 3 * STATEMENT_CACHE_SHAPES;
        for limit in 0..shapes {
            a.execute(&shaped(limit)).unwrap();
        }
        {
            let cache = a.statements.lock();
            assert_eq!(cache.statements.len(), STATEMENT_CACHE_SHAPES);
            for s in &cache.statements {
                assert!(s.shape.selections.iter().all(|x| x.value.is_null()));
                assert!(s.shape.key_sets.iter().all(|(_, keys)| keys.is_empty()));
            }
        }
        // The shapes used last are the ones still prepared.
        let prepares = || a.database().read().stats().prepares;
        assert_eq!(prepares(), shapes as u64);
        for limit in shapes - STATEMENT_CACHE_SHAPES..shapes {
            a.execute(&shaped(limit)).unwrap();
        }
        assert_eq!(prepares(), shapes as u64);
        a.execute(&shaped(0)).unwrap();
        assert_eq!(prepares(), shapes as u64 + 1);

        // Two floors of one shape share one prepared statement, a floor
        // and no floor do not, and the cached shape keeps no floor's
        // number.
        let floored = |n: u64| {
            let mut q = shaped(0);
            q.after_row = Some(n);
            q
        };
        let before = prepares();
        a.execute(&floored(0)).unwrap();
        a.execute(&floored(1)).unwrap();
        a.execute(&floored(7_000)).unwrap();
        assert_eq!(prepares(), before + 1);
        a.execute(&shaped(0)).unwrap();
        assert_eq!(prepares(), before + 1);
        let cache = a.statements.lock();
        assert!(cache.statements.iter().all(|s| s.shape.after_row.unwrap_or(0) == 0));
    }

    #[test]
    fn a_floor_ships_the_rows_past_it_and_the_answer_says_how_far_it_read() {
        let a = adapter();
        let orders = |floor: Option<u64>| {
            let mut q = SourceQuery::scan("orders", &[("o", "id"), ("t", "total")]);
            q.after_row = floor;
            q
        };
        // No floor: today's answer, and no stamp.
        let whole = a.execute(&orders(None)).unwrap();
        assert_eq!((rows_of(&whole).len(), Watermark::of(&whole)), (2, None));
        // A floor of 0 is the same rows — same nodes — and a stamp.
        let stamped = a.execute(&orders(Some(0))).unwrap();
        assert_eq!(stamped.len(), whole.len());
        assert!(stamped.root().deep_eq(&whole.root()));
        let generation = a.database().read().generation();
        assert_eq!(Watermark::of(&stamped), Some(Watermark { generation, from: 0, upto: 2 }));
        assert_eq!(nimble_xml::to_string(&stamped.root()), nimble_xml::to_string(&whole.root()));

        a.database()
            .write()
            .execute("INSERT INTO orders VALUES (12, 1, 1.0), (13, 2, 700.0)")
            .unwrap();
        let delta = a.execute(&orders(Some(2))).unwrap();
        assert_eq!(Watermark::of(&delta), Some(Watermark { generation, from: 2, upto: 4 }));
        let ids: Vec<Atomic> = rows_of(&delta).iter().map(|r| row_field(r, "o")).collect();
        assert_eq!(ids, [Atomic::Int(12), Atomic::Int(13)]);
        // The floor is applied before the selection and the key set: of
        // the two rows below it only one passes them, and skipping two
        // rows that pass would skip row 12.
        let keys: Arc<[Atomic]> = vec![Atomic::Int(1)].into();
        let q = orders(Some(2))
            .with_selection("total", PredOp::Gt, Atomic::Float(0.5))
            .with_key_set(FieldRef::new("t", "cust_id"), keys);
        assert_eq!(
            RelationalAdapter::to_sql(&q),
            "SELECT t.id AS o, t.total AS t FROM orders t AFTER ROW 2 WHERE t.total > 0.5 AND t.cust_id IN (1)"
        );
        let doc = a.execute(&q).unwrap();
        assert_eq!(Watermark::of(&doc).map(|w| (w.from, w.upto)), Some((2, 4)));
        let ids: Vec<Atomic> = rows_of(&doc).iter().map(|r| row_field(r, "o")).collect();
        assert_eq!(ids, [Atomic::Int(12)]);
        // Past the end: no rows, and the stamp says where the end is.
        let none = a.execute(&orders(Some(9))).unwrap();
        assert_eq!((none.len(), Watermark::of(&none).map(|w| w.upto)), (1, Some(4)));
        // What is shipped is what the text says.
        let spelled = a.database().write().execute(&RelationalAdapter::to_sql(&q)).unwrap();
        assert_eq!(spelled.rows, [[Atomic::Int(12), Atomic::Float(1.0)]]);

        // DDL moves the generation; the next stamp shows it.
        a.database().write().execute("CREATE INDEX ON orders (cust_id)").unwrap();
        let after = Watermark::of(&a.execute(&orders(Some(4))).unwrap()).unwrap();
        assert!(after.generation != generation && (after.from, after.upto) == (4, 4));
        // A join fragment has no rows "past the first n": run whole, unstamped.
        let joined = SourceQuery {
            collections: vec![
                crate::query::CollectionRef { alias: "c".into(), collection: "customers".into() },
                crate::query::CollectionRef { alias: "o".into(), collection: "orders".into() },
            ],
            join_conds: vec![(FieldRef::new("o", "cust_id"), FieldRef::new("c", "id"))],
            selections: Vec::new(),
            outputs: vec![("n".into(), FieldRef::new("c", "name"))],
            limit: None,
            key_sets: Vec::new(),
            after_row: Some(3),
        };
        assert!(!RelationalAdapter::to_sql(&joined).contains("AFTER"));
        let doc = a.execute(&joined).unwrap();
        assert_eq!((rows_of(&doc).len(), Watermark::of(&doc)), (4, None));
    }

    #[test]
    fn execute_scan_and_join() {
        let a = adapter();
        let q = SourceQuery::scan("customers", &[("n", "name")]);
        let doc = a.execute(&q).unwrap();
        assert_eq!(rows_of(&doc).len(), 2);

        // A pushed join between two collections of the same source.
        let q = SourceQuery {
            collections: vec![
                crate::query::CollectionRef {
                    alias: "c".into(),
                    collection: "customers".into(),
                },
                crate::query::CollectionRef {
                    alias: "o".into(),
                    collection: "orders".into(),
                },
            ],
            join_conds: vec![(FieldRef::new("o", "cust_id"), FieldRef::new("c", "id"))],
            selections: vec![Selection {
                field: FieldRef::new("o", "total"),
                op: PredOp::Gt,
                value: Atomic::Float(50.0),
            }],
            outputs: vec![
                ("name".into(), FieldRef::new("c", "name")),
                ("total".into(), FieldRef::new("o", "total")),
            ],
            limit: None,
            key_sets: Vec::new(),
            after_row: None,
        };
        let doc = a.execute(&q).unwrap();
        let rows = rows_of(&doc);
        assert_eq!(rows.len(), 1);
        assert_eq!(row_field(&rows[0], "name"), Atomic::Str("Acme".into()));
        assert_eq!(row_field(&rows[0], "total"), Atomic::Float(99.5));
    }

    #[test]
    fn selection_only_fragment_generates_valid_sql() {
        // No bound variables, only a literal constraint: the generated
        // SQL must still be well-formed and return one row per match.
        let q = SourceQuery {
            collections: vec![crate::query::CollectionRef {
                alias: "t".into(),
                collection: "customers".into(),
            }],
            join_conds: vec![],
            selections: vec![Selection {
                field: FieldRef::new("t", "region"),
                op: PredOp::Eq,
                value: Atomic::Str("NW".into()),
            }],
            outputs: vec![],
            limit: None,
            key_sets: Vec::new(),
            after_row: None,
        };
        assert_eq!(
            RelationalAdapter::to_sql(&q),
            "SELECT 1 AS __match FROM customers t WHERE t.region = 'NW'"
        );
        let a = adapter();
        assert_eq!(rows_of(&a.execute(&q).unwrap()).len(), 1);
    }

    #[test]
    fn collections_schema_export() {
        let a = adapter();
        let cols = a.collections();
        assert_eq!(cols.len(), 2);
        let customers = cols.iter().find(|c| c.name == "customers").unwrap();
        assert_eq!(customers.fields[0], ("id".to_string(), AtomicType::Int));
        assert_eq!(customers.estimated_rows, Some(2));
    }

    #[test]
    fn fetch_whole_collection() {
        let a = adapter();
        let doc = a.fetch_collection("orders").unwrap();
        assert_eq!(rows_of(&doc).len(), 2);
        assert!(a.fetch_collection("nope").is_err());
    }
}
