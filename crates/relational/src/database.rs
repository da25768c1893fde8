//! The database catalog and statement dispatch.

use crate::error::SqlError;
use crate::exec::{prepare_select, run_select, Prepared, SlotValue};
use crate::sql::ast::{SelectStmt, Statement};
use crate::sql::parse_statement;
use crate::table::Table;
use nimble_xml::Atomic;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rows returned by a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Atomic>>,
}

impl ResultSet {
    /// An empty result (DDL/DML statements return this).
    pub fn empty() -> ResultSet {
        ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Index of an output column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// Execution statistics accumulated per statement — the observable the
/// pushdown/index experiments read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Base-table rows fetched (full scans count every row; index
    /// accesses count only matches).
    pub rows_scanned: u64,
    /// Number of index probes performed.
    pub index_lookups: u64,
    /// `table.column` names of indexes used: sorted, each once.
    pub used_indexes: Vec<String>,
    /// Number of statements executed since the last reset.
    pub statements: u64,
    /// Number of SELECTs prepared — parsed, resolved and planned — since
    /// the last reset, whether by [`Database::prepare`] or on the way
    /// through [`Database::execute`]. A caller that keeps its statements
    /// prepared sees this stand still while `statements` counts its runs.
    pub prepares: u64,
}

impl ExecStats {
    /// Count one probe of the index on `table.column`. The name is
    /// recorded the first time only: a serving engine never resets its
    /// stats, so the list must not grow with the statements executed.
    pub(crate) fn note_index(&mut self, table: &str, column: &str) {
        self.index_lookups += 1;
        let known = self
            .used_indexes
            .iter()
            .any(|n| n.strip_prefix(table).and_then(|r| r.strip_prefix('.')) == Some(column));
        if !known {
            let name = format!("{}.{}", table, column);
            let at = self.used_indexes.partition_point(|n| *n < name);
            self.used_indexes.insert(at, name);
        }
    }
}

/// An in-memory SQL database: a catalog of [`Table`]s plus statement
/// execution.
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    stats: ExecStats,
    /// Bumped by everything that can change what a prepared statement
    /// resolved or chose: a table created or replaced, an index created
    /// or dropped, a table handed out mutably.
    generation: u64,
}

impl Default for Database {
    fn default() -> Database {
        // Every database counts its generations in a range of its own, so
        // a statement prepared against another database is as stale here
        // as one prepared before a schema change.
        static DATABASES: AtomicU64 = AtomicU64::new(0);
        Database {
            tables: BTreeMap::new(),
            stats: ExecStats::default(),
            generation: DATABASES.fetch_add(1, Ordering::Relaxed) << 32,
        }
    }
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Mutable table lookup (bulk-loading adapters use this). The holder
    /// can create and drop indexes, so statements prepared before the
    /// call are prepared again before they next run.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.generation += 1;
        self.tables.get_mut(name)
    }

    /// Register a prebuilt table, replacing any existing one of that name.
    pub fn add_table(&mut self, table: Table) {
        self.generation += 1;
        self.tables.insert(table.name.clone(), table);
    }

    /// The schema generation: what a [`Prepared`] is stamped with. It
    /// moves whenever a table is created, replaced or handed out mutably
    /// or an index comes or goes — and never when rows are inserted, so
    /// between two reads of one generation a table has only grown at its
    /// end (there is no `UPDATE` or `DELETE`).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Zero the statistics (experiments call this between measurements).
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
    }

    /// Parse and execute one SQL statement. A SELECT is prepared and run
    /// with nothing bound: the one SELECT path, back to back.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(stmt)
    }

    /// Prepare a SELECT whose text may leave `?` slots where literals
    /// stand: one value per `?`, the whole key list for an `IN (?)`, a
    /// string for a `LIKE ?`. Names are resolved, each table's access
    /// path is chosen and the output columns are named here, once;
    /// [`Database::run`] binds a value to every slot and executes.
    pub fn prepare(&mut self, sql: &str) -> Result<Prepared, SqlError> {
        match parse_statement(sql)? {
            Statement::Select(sel) => self.prepare_parsed(&sel),
            _ => Err(SqlError::new("only a SELECT can be prepared")),
        }
    }

    fn prepare_parsed(&mut self, sel: &SelectStmt) -> Result<Prepared, SqlError> {
        self.stats.prepares += 1;
        prepare_select(self, sel)
    }

    /// True while nothing has happened to the schema that `prepared` was
    /// resolved and planned against.
    pub fn is_current(&self, prepared: &Prepared) -> bool {
        prepared.generation == self.generation
    }

    /// Run a prepared SELECT with `values` bound to its slots, in slot
    /// order; the rows come back under [`Prepared::columns`]. A statement
    /// prepared before the schema last changed is refused — its offsets
    /// and access paths describe tables that may no longer look that
    /// way — as is a value list that does not fit the slots.
    pub fn run(
        &mut self,
        prepared: &Prepared,
        values: &[SlotValue<'_>],
    ) -> Result<Vec<Vec<Atomic>>, SqlError> {
        if !self.is_current(prepared) {
            return Err(SqlError::new(
                "the schema changed since the statement was prepared; prepare it again",
            ));
        }
        let mut stats = std::mem::take(&mut self.stats);
        let result = run_select(self, prepared, values, &mut stats);
        self.stats = stats;
        result
    }

    /// Execute a pre-parsed statement.
    pub fn execute_statement(&mut self, stmt: Statement) -> Result<ResultSet, SqlError> {
        if !matches!(stmt, Statement::Select(_)) {
            self.stats.statements += 1;
        }
        match stmt {
            Statement::CreateTable { name, columns } => {
                if self.tables.contains_key(&name) {
                    return Err(SqlError::new(format!("table {:?} already exists", name)));
                }
                self.generation += 1;
                self.tables.insert(name.clone(), Table::new(&name, columns));
            }
            Statement::CreateIndex {
                table,
                column,
                kind,
            } => {
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| SqlError::new(format!("no table {:?}", table)))?;
                t.create_index(&column, kind)?;
                self.generation += 1;
            }
            Statement::DropIndex { table, column } => {
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| SqlError::new(format!("no table {:?}", table)))?;
                if !t.drop_index(&column) {
                    return Err(SqlError::new(format!(
                        "no index on {}.{}",
                        table, column
                    )));
                }
                self.generation += 1;
            }
            Statement::Insert { table, rows } => {
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| SqlError::new(format!("no table {:?}", table)))?;
                t.insert_all(rows)?;
            }
            Statement::Select(sel) => {
                let prepared = self.prepare_parsed(&sel)?;
                let rows = self.run(&prepared, &[])?;
                return Ok(ResultSet {
                    columns: prepared.into_columns(),
                    rows,
                });
            }
        }
        Ok(ResultSet::empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::SlotKind;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE customers (id INT, name TEXT, region TEXT)")
            .unwrap();
        db.execute("CREATE TABLE orders (id INT, cust_id INT, total FLOAT)")
            .unwrap();
        db.execute(
            "INSERT INTO customers VALUES \
             (1, 'Acme', 'NW'), (2, 'Globex', 'SW'), (3, 'Initech', 'NW')",
        )
        .unwrap();
        db.execute(
            "INSERT INTO orders VALUES \
             (10, 1, 250.0), (11, 1, 75.5), (12, 2, 120.0), (13, 9, 5.0)",
        )
        .unwrap();
        db
    }

    #[test]
    fn simple_select_where() {
        let mut db = sample_db();
        let rs = db
            .execute("SELECT name FROM customers WHERE region = 'NW' ORDER BY name")
            .unwrap();
        assert_eq!(rs.columns, vec!["name"]);
        let names: Vec<String> = rs.rows.iter().map(|r| r[0].lexical()).collect();
        assert_eq!(names, ["Acme", "Initech"]);
    }

    #[test]
    fn join_inner_and_left() {
        let mut db = sample_db();
        let rs = db
            .execute(
                "SELECT c.name, o.total FROM customers c \
                 JOIN orders o ON o.cust_id = c.id ORDER BY total DESC",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0].lexical(), "Acme");

        let rs = db
            .execute(
                "SELECT c.name, o.id FROM customers c \
                 LEFT JOIN orders o ON o.cust_id = c.id WHERE c.region = 'NW'",
            )
            .unwrap();
        // Acme has 2 orders, Initech none (padded with NULL).
        assert_eq!(rs.rows.len(), 3);
        assert!(rs.rows.iter().any(|r| r[1].is_null()));
    }

    #[test]
    fn aggregates_group_by() {
        let mut db = sample_db();
        let rs = db
            .execute(
                "SELECT cust_id, COUNT(*) AS n, SUM(total) AS t FROM orders \
                 GROUP BY cust_id ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(rs.rows[0][1], Atomic::Int(2));
        assert_eq!(rs.rows[0][2], Atomic::Float(325.5));
    }

    #[test]
    fn global_aggregate_on_empty() {
        let mut db = sample_db();
        let rs = db
            .execute("SELECT COUNT(*) FROM orders WHERE total > 9999")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Atomic::Int(0));
    }

    #[test]
    fn index_used_and_counted() {
        let mut db = sample_db();
        db.execute("CREATE INDEX ON customers (id) USING HASH")
            .unwrap();
        db.reset_stats();
        db.execute("SELECT name FROM customers WHERE id = 2").unwrap();
        assert_eq!(db.stats().index_lookups, 1);
        assert_eq!(db.stats().rows_scanned, 1);
        assert_eq!(db.stats().used_indexes, vec!["customers.id"]);

        db.execute("DROP INDEX ON customers (id)").unwrap();
        db.reset_stats();
        db.execute("SELECT name FROM customers WHERE id = 2").unwrap();
        assert_eq!(db.stats().index_lookups, 0);
        assert_eq!(db.stats().rows_scanned, 3);
    }

    #[test]
    fn used_indexes_does_not_grow_with_statements() {
        // A serving engine never resets its stats: the list names each
        // index once however many statements probe it.
        let mut db = sample_db();
        db.execute("CREATE INDEX ON orders (cust_id) USING HASH")
            .unwrap();
        db.execute("CREATE INDEX ON customers (id) USING HASH")
            .unwrap();
        db.reset_stats();
        for i in 0..10_000 {
            db.execute(&format!("SELECT id FROM orders WHERE cust_id = {}", i % 4))
                .unwrap();
        }
        assert_eq!(db.stats().index_lookups, 10_000);
        assert_eq!(db.stats().used_indexes.len(), 1);

        // A second index lands in sorted position.
        db.execute("SELECT name FROM customers WHERE id = 1")
            .unwrap();
        assert_eq!(
            db.stats().used_indexes,
            vec!["customers.id", "orders.cust_id"]
        );
    }

    #[test]
    fn btree_range_scan() {
        let mut db = sample_db();
        db.execute("CREATE INDEX ON orders (total)").unwrap();
        db.reset_stats();
        let rs = db
            .execute("SELECT id FROM orders WHERE total >= 100.0 ORDER BY id")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(db.stats().rows_scanned, 2);
        assert_eq!(db.stats().index_lookups, 1);
    }

    #[test]
    fn distinct_and_limit() {
        let mut db = sample_db();
        let rs = db
            .execute("SELECT DISTINCT region FROM customers ORDER BY region")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        let rs = db
            .execute("SELECT id FROM orders ORDER BY id LIMIT 2")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn in_like_between() {
        let mut db = sample_db();
        let rs = db
            .execute("SELECT name FROM customers WHERE region IN ('SW')")
            .unwrap();
        assert_eq!(rs.rows[0][0].lexical(), "Globex");
        let rs = db
            .execute("SELECT name FROM customers WHERE name LIKE '%ni%'")
            .unwrap();
        assert_eq!(rs.rows[0][0].lexical(), "Initech");
        let rs = db
            .execute("SELECT id FROM orders WHERE total BETWEEN 70.0 AND 130.0 ORDER BY id")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn a_join_pairs_keys_by_value_and_type_and_null_with_null() {
        // Keys join as `Atomic::key_eq` equates them: NULL with NULL (as
        // the mediator's hash join does), text with equal text only, a
        // bool with no text. No NULL with '', no TRUE with 'true'.
        let mut db = Database::new();
        db.execute("CREATE TABLE a (id INT, x TEXT, t BOOL)").unwrap();
        db.execute("CREATE TABLE b (id INT, y TEXT)").unwrap();
        db.execute("INSERT INTO a VALUES (1, NULL, NULL), (2, '', FALSE), (3, 'k', TRUE)").unwrap();
        db.execute("INSERT INTO b VALUES (10, NULL), (20, ''), (30, 'k'), (40, 'true')").unwrap();
        let pairs = |db: &mut Database, on: &str| -> Vec<(i64, i64)> {
            let sql = format!("SELECT a.id, b.id FROM a a JOIN b b ON {} ORDER BY a.id, b.id", on);
            let rs = db.execute(&sql).unwrap();
            let int = |v: &Atomic| match v {
                Atomic::Int(i) => *i,
                other => panic!("{:?}", other),
            };
            rs.rows.iter().map(|r| (int(&r[0]), int(&r[1]))).collect()
        };
        assert_eq!(pairs(&mut db, "a.x = b.y"), [(1, 10), (2, 20), (3, 30)]);
        assert_eq!(pairs(&mut db, "a.t = b.y"), [(1, 10)]);
    }

    #[test]
    fn distinct_and_group_by_keep_apart_the_rows_a_join_keeps_apart() {
        // DISTINCT and GROUP BY equate rows column by column as a join
        // equates keys: NULL is not '', and no separator a value may
        // hold can make two rows spell alike.
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x TEXT, y TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (NULL, 'n'), ('', 'e')").unwrap();
        let rs = db.execute("SELECT DISTINCT x FROM t").unwrap();
        assert_eq!(rs.rows, [[Atomic::Null], [Atomic::Str(String::new())]]);
        let rs = db.execute("SELECT x, COUNT(*) AS n FROM t GROUP BY x").unwrap();
        let counts: Vec<&Atomic> = rs.rows.iter().map(|r| &r[1]).collect();
        assert_eq!(counts, [&Atomic::Int(1), &Atomic::Int(1)]);

        db.execute("CREATE TABLE s (x TEXT, y TEXT)").unwrap();
        db.execute("INSERT INTO s VALUES ('a\u{1}b', 'c'), ('a', 'b\u{1}c')").unwrap();
        assert_eq!(db.execute("SELECT DISTINCT x, y FROM s").unwrap().rows.len(), 2);
        assert_eq!(db.execute("SELECT x, y, COUNT(*) FROM s GROUP BY x, y").unwrap().rows.len(), 2);
    }

    /// 300 rows of `(id, k, v)`: `id` is the insertion order, `k` takes
    /// 40 values with repeats, `v` is a second seeded column.
    fn keyed_db(index: Option<&str>) -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, k INT, v INT)").unwrap();
        let mut x = 12345u64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as i64
        };
        let rows: Vec<String> = (0..300)
            .map(|id| format!("({}, {}, {})", id, next() % 40, next() % 100))
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        if let Some(using) = index {
            db.execute(&format!("CREATE INDEX ON t (k){}", using)).unwrap();
        }
        db
    }

    #[test]
    fn in_list_answers_alike_over_every_access_path() {
        // Hash index, B-tree index and no index: the same rows, in table
        // order, as the OR of equalities — whatever else the WHERE
        // holds, and with keys that repeat, are absent from the table,
        // or are the float spelling of an int.
        let mut x = 99u64;
        let mut next = move |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for round in 0..60 {
            let len = 1 + next(12) as usize;
            let keys: Vec<String> = (0..len)
                .map(|_| match next(4) {
                    0 => format!("{}.0", next(45)),
                    _ => next(45).to_string(),
                })
                .collect();
            let rest = match round % 3 {
                0 => String::new(),
                1 => format!(" AND v > {}", next(100)),
                _ => format!(" AND v <> {} AND id > {}", next(100), next(300)),
            };
            let listed = format!("SELECT id, k FROM t WHERE k IN ({}){}", keys.join(", "), rest);
            let ors: Vec<String> = keys.iter().map(|k| format!("k = {}", k)).collect();
            let spelled = format!("SELECT id, k FROM t WHERE ({}){}", ors.join(" OR "), rest);
            let want = keyed_db(None).execute(&spelled).unwrap().rows;
            let ids: Vec<i64> = want.iter().filter_map(|r| r[0].as_f64()).map(|f| f as i64).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "table order: {}", spelled);
            for index in [None, Some(" USING HASH"), Some("")] {
                let mut db = keyed_db(index);
                db.reset_stats();
                let got = db.execute(&listed).unwrap().rows;
                assert_eq!(got, want, "{:?}: {}", index, listed);
                // Indexed: one probe per listed key, only matches read.
                let stats = db.stats();
                match index {
                    None => assert_eq!((stats.index_lookups, stats.rows_scanned), (0, 300)),
                    Some(_) => {
                        assert_eq!(stats.index_lookups, len as u64, "{}", listed);
                        assert!(stats.rows_scanned <= 300 && stats.used_indexes == ["t.k"]);
                    }
                }
            }
        }
    }

    #[test]
    fn in_list_probes_lose_to_an_equality_and_beat_a_range() {
        let mut db = keyed_db(Some(""));
        db.execute("CREATE INDEX ON t (id) USING HASH").unwrap();
        db.execute("CREATE INDEX ON t (v)").unwrap();
        db.reset_stats();
        db.execute("SELECT id FROM t WHERE k IN (1, 2, 3) AND id = 7").unwrap();
        assert_eq!(db.stats().used_indexes, ["t.id"]);
        db.reset_stats();
        let rs = db
            .execute("SELECT id FROM t WHERE v > 10 AND k IN (1, 2, 3)")
            .unwrap();
        assert_eq!(db.stats().used_indexes, ["t.k"]);
        // The range conjunct is still applied to the probed rows.
        let full = keyed_db(None)
            .execute("SELECT id FROM t WHERE v > 10 AND (k = 1 OR k = 2 OR k = 3)")
            .unwrap();
        assert_eq!(rs.rows, full.rows);
        // A null in the list keeps the meaning it always had here.
        for index in [None, Some(" USING HASH"), Some("")] {
            let mut db = keyed_db(index);
            db.execute("INSERT INTO t VALUES (300, NULL, 0)").unwrap();
            let rs = db.execute("SELECT id FROM t WHERE k IN (NULL)").unwrap();
            assert_eq!(rs.rows.len(), 1, "{:?}", index);
        }
    }

    #[test]
    fn a_multi_row_insert_is_all_or_nothing() {
        // One bad row — too few values, or a value its column cannot
        // take — in first, middle and last position: nothing is stored
        // and no index learns of the rows that came before it.
        for bad in ["(7)", "(7, 'x', 'NW', 1)", "('seven', 'x', 'NW')"] {
            for at in 0..3 {
                let mut db = sample_db();
                db.execute("CREATE INDEX ON customers (id) USING HASH").unwrap();
                db.execute("CREATE INDEX ON customers (region)").unwrap();
                let mut rows = vec!["(4, 'Hooli', 'NW')", "(5, 'Pied', 'SE')"];
                rows.insert(at, bad);
                let sql = format!("INSERT INTO customers VALUES {}", rows.join(", "));
                assert!(db.execute(&sql).is_err(), "{}", sql);
                assert_eq!(db.table("customers").unwrap().row_count(), 3, "{}", sql);
                for probe in [
                    "SELECT id FROM customers WHERE id = 4",
                    "SELECT id FROM customers WHERE id = 5",
                    "SELECT id FROM customers WHERE region = 'SE'",
                ] {
                    assert!(db.execute(probe).unwrap().rows.is_empty(), "{}: {}", sql, probe);
                }
                let nw = db.execute("SELECT id FROM customers WHERE region = 'NW'").unwrap();
                assert_eq!(nw.rows.len(), 2, "{}", sql);
                // The same rows without the bad one go in, indexes and all.
                rows.remove(at);
                db.execute(&format!("INSERT INTO customers VALUES {}", rows.join(", ")))
                    .unwrap();
                db.reset_stats();
                let rs = db.execute("SELECT name FROM customers WHERE id = 5").unwrap();
                assert_eq!(rs.rows[0][0].lexical(), "Pied");
                assert_eq!(db.stats().used_indexes, ["customers.id"]);
            }
        }
    }

    #[test]
    fn a_prepared_statement_runs_with_each_binding() {
        let mut db = sample_db();
        db.execute("CREATE INDEX ON orders (cust_id) USING HASH").unwrap();
        db.reset_stats();
        let stmt = db
            .prepare("SELECT id FROM orders WHERE cust_id IN (?) AND total > ? ORDER BY id")
            .unwrap();
        assert_eq!(stmt.slots(), [SlotKind::List, SlotKind::Value]);
        assert_eq!(stmt.columns(), ["id"]);
        let ids = |rows: Vec<Vec<Atomic>>| -> Vec<String> {
            rows.iter().map(|r| r[0].lexical()).collect()
        };
        let (one, two, nine) = (Atomic::Int(1), Atomic::Int(2), Atomic::Int(9));
        let (low, high) = (Atomic::Float(0.0), Atomic::Float(100.0));
        let keys = [one.clone(), two.clone(), nine.clone()];
        let rows = db
            .run(&stmt, &[SlotValue::List(&keys), SlotValue::Value(&low)])
            .unwrap();
        assert_eq!(ids(rows), ["10", "11", "12", "13"]);
        let rows = db
            .run(&stmt, &[SlotValue::List(&keys[..1]), SlotValue::Value(&high)])
            .unwrap();
        assert_eq!(ids(rows), ["10"]);
        // Two runs, one prepare; a probe per bound key.
        let stats = db.stats();
        assert_eq!((stats.prepares, stats.statements, stats.index_lookups), (1, 2, 4));
        assert_eq!(stats.used_indexes, ["orders.cust_id"]);

        // Text with no slot is the same path: it prepares every time.
        db.execute("SELECT id FROM orders WHERE cust_id IN (1, 2, 9) AND total > 0.0")
            .unwrap();
        assert_eq!((db.stats().prepares, db.stats().statements), (2, 3));
        // Slots need values: text that has one cannot just be executed.
        assert!(db.execute("SELECT id FROM orders WHERE cust_id = ?").is_err());
        assert!(db.prepare("INSERT INTO orders VALUES (1, 2, 3.0)").is_err());
    }

    #[test]
    fn a_statement_runs_only_under_the_schema_it_was_prepared_for() {
        let mut db = sample_db();
        let stmt = db.prepare("SELECT name FROM customers WHERE id = ?").unwrap();
        let two = Atomic::Int(2);
        assert_eq!(db.run(&stmt, &[SlotValue::Value(&two)]).unwrap().len(), 1);
        // Rows may come and go; the statement stays good.
        db.execute("INSERT INTO customers VALUES (2, 'Twin', 'SE')").unwrap();
        assert!(db.is_current(&stmt));
        assert_eq!(db.run(&stmt, &[SlotValue::Value(&two)]).unwrap().len(), 2);
        // An index, however it arrives, makes it stale.
        db.execute("CREATE INDEX ON customers (id)").unwrap();
        assert!(!db.is_current(&stmt));
        assert!(db.run(&stmt, &[SlotValue::Value(&two)]).is_err());
        let stmt = db.prepare("SELECT name FROM customers WHERE id = ?").unwrap();
        db.table_mut("customers").unwrap().drop_index("id");
        assert!(db.run(&stmt, &[SlotValue::Value(&two)]).is_err());
        // And it is no statement of any other database.
        let stmt = db.prepare("SELECT name FROM customers WHERE id = ?").unwrap();
        assert!(sample_db().run(&stmt, &[SlotValue::Value(&two)]).is_err());
        assert!(db.run(&stmt, &[SlotValue::Value(&two)]).is_ok());
    }

    #[test]
    fn after_row_is_the_statement_over_the_table_without_its_first_rows() {
        // Whatever the access path and whatever else the statement
        // holds, `FROM t AFTER ROW n` answers as the statement would over
        // a table that never held its first n rows — the floor is taken
        // before the WHERE clause, not after it.
        let rest = [
            "",
            " WHERE k IN (3, 7, 11, 39)",
            " WHERE k = 7",
            " WHERE v >= 50",
            " WHERE k >= 30",
            " WHERE k IN (1, 2, 3) AND v < 70",
            " WHERE v > 20 LIMIT 4",
            " WHERE k <> 5 ORDER BY v DESC, id LIMIT 9",
        ];
        for index in [None, Some(" USING HASH"), Some("")] {
            for floor in [0usize, 1, 150, 299, 300, 301, 10_000] {
                // The reference: the same rows loaded without the first `floor`.
                let all = keyed_db(None).execute("SELECT id, k, v FROM t").unwrap().rows;
                let mut want_db = Database::new();
                want_db.execute("CREATE TABLE t (id INT, k INT, v INT)").unwrap();
                for r in all.iter().skip(floor) {
                    want_db
                        .execute(&format!(
                            "INSERT INTO t VALUES ({}, {}, {})",
                            r[0].lexical(),
                            r[1].lexical(),
                            r[2].lexical()
                        ))
                        .unwrap();
                }
                let mut db = keyed_db(index);
                // A B-tree range hands its rows over in key order.
                let in_order = |mut rows: Vec<Vec<Atomic>>, tail: &str| {
                    if tail.ends_with("k >= 30") {
                        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
                    }
                    rows
                };
                for tail in rest {
                    let want = want_db.execute(&format!("SELECT id, k, v FROM t{}", tail)).unwrap().rows;
                    let sql = format!("SELECT id, k, v FROM t AFTER ROW {}{}", floor, tail);
                    assert_eq!(in_order(db.execute(&sql).unwrap().rows, tail), want, "{:?}: {}", index, sql);
                    // Bound to a slot: one statement, any floor.
                    let stmt = db.prepare(&format!("SELECT id, k, v FROM t AFTER ROW ?{}", tail)).unwrap();
                    assert_eq!(stmt.slots(), [SlotKind::Value]);
                    let n = Atomic::Int(floor as i64);
                    let got = db.run(&stmt, &[SlotValue::Value(&n)]).unwrap();
                    assert_eq!(in_order(got, tail), want, "{}", sql);
                }
            }
        }
        // A scan past the floor reads only what lies past it.
        let mut db = keyed_db(None);
        db.reset_stats();
        db.execute("SELECT id FROM t AFTER ROW 290 WHERE v > 0").unwrap();
        assert_eq!(db.stats().rows_scanned, 10);
        // The floor counts rows; it is no place for anything else.
        for bad in ["-1", "1.5", "'x'", "NULL"] {
            let sql = format!("SELECT id FROM t AFTER ROW {}", bad);
            assert!(db.execute(&sql).is_err(), "{}", sql);
        }
        // Only the FROM table takes one, and `after` is still a name.
        assert!(db.execute("SELECT a.id FROM t a JOIN t b ON a.id = b.id AFTER ROW 3").is_err());
        let joined = db
            .execute("SELECT a.id FROM t a AFTER ROW 298 JOIN t b ON a.k = b.k WHERE b.id > 297")
            .unwrap();
        assert_eq!(joined.rows.len(), 2);
        db.execute("CREATE TABLE after (row INT)").unwrap();
        db.execute("INSERT INTO after VALUES (1), (2)").unwrap();
        assert_eq!(db.execute("SELECT row FROM after AFTER ROW 1").unwrap().rows.len(), 1);
    }

    #[test]
    fn a_plain_limit_projects_only_the_rows_it_keeps() {
        if !nimble_trace::alloc::enabled() {
            return; // profile-alloc compiled out: nothing to count
        }
        let allocs = |rows: usize, sql: &str| {
            let mut db = Database::new();
            db.execute("CREATE TABLE t (id INT, name TEXT, total FLOAT)").unwrap();
            let values: Vec<String> = (0..rows).map(|i| format!("({}, 'n{}', {}.5)", i, i % 7, i)).collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
            let stmt = db.prepare(sql).unwrap();
            let scope = nimble_trace::alloc::AllocScope::enter();
            let out = db.run(&stmt, &[]).unwrap();
            (out.len(), scope.finish().allocs)
        };
        let limited = "SELECT id, name, total FROM t LIMIT 5";
        let (n_small, small) = allocs(100, limited);
        let (n_large, large) = allocs(10_000, limited);
        assert_eq!((n_small, n_large), (5, 5));
        // One block per row that leaves; all that grows with the table
        // is the list of row borrows the scan builds, by doubling.
        assert!(large <= small + 8 && large < 40, "{} blocks over 100 rows, {} over 10 000", small, large);
        // An ORDER BY or a DISTINCT has to see every row first.
        let (_, sorted) = allocs(10_000, "SELECT id, name, total FROM t ORDER BY total DESC LIMIT 5");
        assert!(sorted > 10_000, "{}", sorted);
        // Same rows, same order, either way.
        let mut db = keyed_db(None);
        let all = db.execute("SELECT id, v FROM t WHERE v > 30").unwrap().rows;
        let cut = db.execute("SELECT id, v FROM t WHERE v > 30 LIMIT 7").unwrap().rows;
        assert_eq!(cut, all[..7]);
    }

    #[test]
    fn computed_columns() {
        let mut db = sample_db();
        let rs = db
            .execute("SELECT id, total * 2 AS double FROM orders WHERE id = 10")
            .unwrap();
        assert_eq!(rs.rows[0][1], Atomic::Float(500.0));
    }

    #[test]
    fn errors_surface() {
        let mut db = sample_db();
        assert!(db.execute("SELECT nope FROM customers").is_err());
        assert!(db.execute("SELECT * FROM missing").is_err());
        assert!(db.execute("CREATE TABLE customers (x INT)").is_err());
        assert!(db
            .execute("INSERT INTO customers VALUES (1)")
            .is_err());
    }

    #[test]
    fn ambiguous_order_by_is_rejected() {
        let mut db = sample_db();
        let err = db
            .execute(
                "SELECT c.id, o.id FROM customers c JOIN orders o ON o.cust_id = c.id \
                 ORDER BY id",
            )
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{}", err);
        // Qualifying resolves it.
        assert!(db
            .execute(
                "SELECT c.id, o.id FROM customers c JOIN orders o ON o.cust_id = c.id \
                 ORDER BY o.id",
            )
            .is_ok());
    }

    #[test]
    fn select_star_qualified_names() {
        let mut db = sample_db();
        let rs = db.execute("SELECT * FROM customers LIMIT 1").unwrap();
        assert_eq!(rs.columns, vec!["id", "name", "region"]);
        let rs = db
            .execute("SELECT * FROM customers c JOIN orders o ON o.cust_id = c.id LIMIT 1")
            .unwrap();
        assert_eq!(rs.columns.len(), 6);
        assert!(rs.columns[3].starts_with("o."));
    }
}
