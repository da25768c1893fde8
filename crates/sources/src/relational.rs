//! The relational adapter: compiles fragments to **SQL text** and ships
//! it to a `nimble-relational` database, exactly the way the paper's
//! compiler talks to customer RDBMSs.

use crate::capabilities::Capabilities;
use crate::error::SourceError;
use crate::query::{CollectionInfo, RowsBuilder, SourceQuery};
use crate::{SourceAdapter, SourceKind};
use nimble_relational::{ColumnType, Database};
use nimble_xml::{Atomic, AtomicType, Document};
use parking_lot::RwLock;
use std::sync::Arc;

/// Wraps a shared relational database as an integration source.
pub struct RelationalAdapter {
    name: String,
    db: Arc<RwLock<Database>>,
}

impl RelationalAdapter {
    pub fn new(name: &str, db: Arc<RwLock<Database>>) -> RelationalAdapter {
        RelationalAdapter {
            name: name.to_string(),
            db,
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
    /// output can show exactly what is shipped.
    pub fn to_sql(query: &SourceQuery) -> String {
        let mut sql = String::from("SELECT ");
        if query.outputs.is_empty() {
            // A fragment with only selections (no bound variables) is an
            // existence scan; emit a constant so the SQL stays valid and
            // the row count carries the match multiplicity.
            sql.push_str("1 AS __match");
        } else {
            let outs: Vec<String> = query
                .outputs
                .iter()
                .map(|(name, f)| format!("{}.{} AS {}", f.alias, f.field, name))
                .collect();
            sql.push_str(&outs.join(", "));
        }
        sql.push_str(" FROM ");
        sql.push_str(&format!(
            "{} {}",
            query.collections[0].collection, query.collections[0].alias
        ));
        for (i, c) in query.collections.iter().enumerate().skip(1) {
            // Join conditions pair up with the collections after the first;
            // to_sql expects join_conds[i-1] to connect collection i.
            let (l, r) = &query.join_conds[i - 1];
            sql.push_str(&format!(
                " JOIN {} {} ON {} = {}",
                c.collection, c.alias, l, r
            ));
        }
        let mut preds: Vec<String> = query
            .selections
            .iter()
            .map(|s| format!("{} {} {}", s.field, s.op.sql(), sql_literal(&s.value)))
            .collect();
        for (field, keys) in &query.key_sets {
            let list: Vec<String> = keys.iter().map(sql_literal).collect();
            preds.push(format!("{} IN ({})", field, list.join(", ")));
        }
        if !preds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&preds.join(" AND "));
        }
        if let Some(n) = query.limit {
            sql.push_str(&format!(" LIMIT {}", n));
        }
        sql
    }
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
        let sql = Self::to_sql(query);
        let mut db = self.db.write();
        let rs = db
            .execute(&sql)
            .map_err(|e| SourceError::query(&self.name, format!("{} (SQL: {})", e, sql)))?;
        let mut out = RowsBuilder::new();
        for row in &rs.rows {
            let fields: Vec<(&str, Atomic)> = rs
                .columns
                .iter()
                .zip(row.iter())
                .map(|(c, v)| (c.as_str(), v.clone()))
                .collect();
            out.row(&fields);
        }
        Ok(out.finish())
    }

    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        let db = self.db.read();
        let table = db
            .table(name)
            .ok_or_else(|| SourceError::query(&self.name, format!("no collection {:?}", name)))?;
        let mut out = RowsBuilder::new();
        for row in table.rows() {
            let fields: Vec<(&str, Atomic)> = table
                .columns
                .iter()
                .zip(row.iter())
                .map(|(c, v)| (c.name.as_str(), v.clone()))
                .collect();
            out.row(&fields);
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
