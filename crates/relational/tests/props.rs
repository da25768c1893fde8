//! Property sweeps for the SQL substrate: the planner's index choices
//! never change answers, and WHERE evaluation matches a direct reference
//! filter. Each property runs over [`sweep`]'s seeded cases.

use nimble_relational::Database;
use nimble_trace::rng::{sweep, Rng};
use nimble_xml::Atomic;

fn build_db(rows: &[(i64, i64, String)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INT, v INT, s TEXT)").unwrap();
    for (k, v, s) in rows {
        db.execute(&format!(
            "INSERT INTO t VALUES ({}, {}, '{}')",
            k,
            v,
            s.replace('\'', "''")
        ))
        .unwrap();
    }
    db
}

fn rows_of(db: &mut Database, sql: &str) -> Vec<Vec<String>> {
    let rs = db.execute(sql).unwrap();
    let mut out: Vec<Vec<String>> = rs
        .rows
        .iter()
        .map(|r| r.iter().map(Atomic::lexical).collect())
        .collect();
    out.sort();
    out
}

/// Up to `max_rows - 1` rows of `(k in 0..keys, v in the range, s over
/// the alphabet)`.
fn rows(
    rng: &mut Rng,
    max_rows: usize,
    keys: i64,
    v: std::ops::Range<i64>,
    (alphabet, len): (&str, std::ops::Range<usize>),
) -> Vec<(i64, i64, String)> {
    (0..rng.below(max_rows))
        .map(|_| (rng.range(0..keys), rng.range(v.clone()), rng.string(alphabet, len.clone())))
        .collect()
}

/// The dialect's keywords and punctuation around one small table.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "JOIN", "GROUP", "BY", "t", "k", "*", "=", "(", ")", ",", "'s'", "1",
    "COUNT",
];

/// [`TOKENS`] plus the rest of the grammar, unfinished literals, and
/// multi-byte and astral characters.
#[rustfmt::skip]
const SOUP: &[&str] = &[
    "INSERT", "INTO", "VALUES", "CREATE", "TABLE", "INDEX", "ON", "USING", "HASH", "UPDATE", "SET",
    "DELETE", "ORDER", "LIMIT", "DESC", "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS",
    "NULL", "SUM", "MIN", "INT", "TEXT", "FLOAT", "AFTER", "ROW", "select", "v", "s", "t.k", "?", "'", "''", "'a",
    "\"", "\"k\"", "<", ">", "<=", ">=", "<>", "!=", "+", "-", "/", "%", ".", ";", "--", "0", "-1",
    "1e9", "0.5", "99999999999999999999", " ", "\t", "\n", "é", "ß", "本", "\u{301}", "\u{a0}", "😀",
    "\u{10ffff}",
];

/// Arbitrary input never panics the SQL front end or executor.
#[test]
fn sql_never_panics() {
    sweep(256, |rng| {
        let input: String = (0..rng.below(61))
            .map(|_| {
                let pool = if rng.chance(0.3) { TOKENS } else { SOUP };
                *rng.pick(pool)
            })
            .collect();
        let mut db = build_db(&[]);
        let _ = db.execute(&input);
    });
}

/// SQL-token soup never panics either.
#[test]
fn sql_token_soup_never_panics() {
    sweep(256, |rng| {
        let tokens: Vec<&str> = (0..rng.below(15)).map(|_| *rng.pick(TOKENS)).collect();
        let mut db = build_db(&[(1, 2, "a".to_string())]);
        let _ = db.execute(&tokens.join(" "));
    });
}

/// Answers are identical with no index, a hash index, and a B-tree
/// index — across equality, range, IN, and BETWEEN predicates.
#[test]
fn index_choice_never_changes_answers() {
    sweep(256, |rng| {
        let rows = rows(rng, 30, 10, -20..20, ("abc", 0..4));
        let (probe, lo, hi) = (rng.range(0..10), rng.range(-20..0), rng.range(0..20));
        let queries = [
            format!("SELECT k, v, s FROM t WHERE k = {}", probe),
            format!("SELECT k, v, s FROM t WHERE k > {}", probe),
            format!("SELECT k, v, s FROM t WHERE v BETWEEN {} AND {}", lo, hi),
            format!("SELECT k, v, s FROM t WHERE k IN (1, 3, {})", probe),
            "SELECT k, COUNT(*) AS n FROM t GROUP BY k".to_string(),
        ];
        let mut plain = build_db(&rows);
        let mut hashed = build_db(&rows);
        hashed.execute("CREATE INDEX ON t (k) USING HASH").unwrap();
        let mut btreed = build_db(&rows);
        btreed.execute("CREATE INDEX ON t (k)").unwrap();
        btreed.execute("CREATE INDEX ON t (v)").unwrap();
        for q in &queries {
            let expected = rows_of(&mut plain, q);
            assert_eq!(&rows_of(&mut hashed, q), &expected, "hash index diverged on {}", q);
            assert_eq!(&rows_of(&mut btreed, q), &expected, "btree index diverged on {}", q);
        }
    });
}

/// WHERE k = c matches exactly the rows a direct scan predicts.
#[test]
fn where_matches_reference_filter() {
    sweep(256, |rng| {
        let rows = rows(rng, 25, 6, -5..5, ("ab", 0..3));
        let probe = rng.range(0..6);
        let mut db = build_db(&rows);
        let got = rows_of(&mut db, &format!("SELECT k, v, s FROM t WHERE k = {}", probe));
        let mut expected: Vec<Vec<String>> = rows
            .iter()
            .filter(|(k, _, _)| *k == probe)
            .map(|(k, v, s)| vec![k.to_string(), v.to_string(), s.clone()])
            .collect();
        expected.sort();
        assert_eq!(got, expected);
    });
}

/// ORDER BY really sorts and LIMIT really truncates.
#[test]
fn order_and_limit() {
    sweep(256, |rng| {
        let mut rows = rows(rng, 24, 50, 0..50, ("abcdefghijklmnopqrstuvwxyz", 1..3));
        rows.push((rng.range(0..50), rng.range(0..50), "z".to_string()));
        let limit = 1 + rng.below(9);
        let mut db = build_db(&rows);
        let rs = db
            .execute(&format!("SELECT v FROM t ORDER BY v DESC LIMIT {}", limit))
            .unwrap();
        assert!(rs.rows.len() <= limit);
        for w in rs.rows.windows(2) {
            assert_ne!(
                w[0][0].total_cmp(&w[1][0]),
                std::cmp::Ordering::Less
            );
        }
        let mut all: Vec<i64> = rows.iter().map(|(_, v, _)| *v).collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        let expected: Vec<String> = all.into_iter().take(limit).map(|v| v.to_string()).collect();
        let got: Vec<String> = rs.rows.iter().map(|r| r[0].lexical()).collect();
        assert_eq!(got, expected);
    });
}

/// Aggregates agree with direct computation.
#[test]
fn aggregates_match_reference() {
    sweep(256, |rng| {
        let rows: Vec<(i64, i64)> =
            (0..1 + rng.below(29)).map(|_| (rng.range(0..4), rng.range(-100..100))).collect();
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
        for (k, v) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({}, {})", k, v)).unwrap();
        }
        let rs = db
            .execute("SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k")
            .unwrap();
        for row in &rs.rows {
            let k: i64 = match row[0] { Atomic::Int(i) => i, _ => unreachable!() };
            let group: Vec<i64> = rows.iter().filter(|(rk, _)| *rk == k).map(|(_, v)| *v).collect();
            assert_eq!(row[1].clone(), Atomic::Int(group.len() as i64));
            assert_eq!(row[2].clone(), Atomic::Int(group.iter().sum()));
            assert_eq!(row[3].clone(), Atomic::Int(*group.iter().min().unwrap()));
            assert_eq!(row[4].clone(), Atomic::Int(*group.iter().max().unwrap()));
        }
    });
}
