//! Recursive-descent SQL parser.

use super::ast::*;
use super::lexer::{tokenize_sql, SqlToken};
use crate::error::SqlError;
use crate::table::IndexKind;
use crate::types::{Column, ColumnType};
use nimble_xml::Atomic;

/// Parse one SQL statement.
pub fn parse_statement(sql: &str) -> Result<Statement, SqlError> {
    let tokens = tokenize_sql(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        slots: Vec::new(),
    };
    let stmt = p.statement()?;
    // A trailing semicolon-free end is required; we never lex ';' so just
    // check for EOF.
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<SqlToken>,
    pos: usize,
    /// The `?` slots read so far; a slot's number is its position here.
    slots: Vec<SlotKind>,
}

/// True when the token is the keyword `kw`, in any case.
fn is_kw(t: &SqlToken, kw: &str) -> bool {
    matches!(t, SqlToken::Word(w) if w.eq_ignore_ascii_case(kw))
}

impl Parser {
    fn peek(&self) -> &SqlToken {
        &self.tokens[self.pos]
    }

    /// Consume the current token, moving it out of the stream (nothing
    /// reads a consumed token again). The final `Eof` is never moved past.
    fn bump(&mut self) -> SqlToken {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1], SqlToken::Eof)
        } else {
            SqlToken::Eof
        }
    }

    /// Consume the current token where it lies.
    fn skip(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Open the next slot.
    fn slot(&mut self, kind: SlotKind) -> usize {
        self.slots.push(kind);
        self.slots.len() - 1
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, SqlError> {
        Err(SqlError::new(format!(
            "{} (near {:?})",
            msg.into(),
            self.peek()
        )))
    }

    fn expect_eof(&self) -> Result<(), SqlError> {
        if matches!(self.peek(), SqlToken::Eof) {
            Ok(())
        } else {
            self.err("trailing tokens after statement")
        }
    }

    /// Consume a keyword (`kw` is its uppercase spelling); false if not
    /// present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        let found = is_kw(self.peek(), kw);
        if found {
            self.skip();
        }
        found
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected {}", kw))
        }
    }

    fn eat_tok(&mut self, t: &SqlToken) -> bool {
        if self.peek() == t {
            self.skip();
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, t: &SqlToken) -> Result<(), SqlError> {
        if self.eat_tok(t) {
            Ok(())
        } else {
            self.err(format!("expected {:?}", t))
        }
    }

    /// An identifier (non-keyword match is not enforced; SQL's reserved
    /// words are contextual in this dialect).
    fn ident(&mut self) -> Result<String, SqlError> {
        match self.peek() {
            SqlToken::Word(_) => match self.bump() {
                SqlToken::Word(raw) => Ok(raw),
                _ => self.err("expected identifier"),
            },
            _ => self.err("expected identifier"),
        }
    }

    fn statement(&mut self) -> Result<Statement, SqlError> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            if self.eat_kw("INDEX") {
                return self.create_index();
            }
            return self.err("expected TABLE or INDEX after CREATE");
        }
        if self.eat_kw("DROP") {
            self.expect_kw("INDEX")?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_tok(&SqlToken::LParen)?;
            let column = self.ident()?;
            self.expect_tok(&SqlToken::RParen)?;
            return Ok(Statement::DropIndex { table, column });
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if is_kw(self.peek(), "SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        self.err("expected CREATE, DROP, INSERT, or SELECT")
    }

    fn create_table(&mut self) -> Result<Statement, SqlError> {
        let name = self.ident()?;
        self.expect_tok(&SqlToken::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty_name = self.ident()?;
            // Swallow optional length like VARCHAR(100).
            if self.eat_tok(&SqlToken::LParen) {
                while !matches!(self.peek(), SqlToken::RParen | SqlToken::Eof) {
                    self.skip();
                }
                self.expect_tok(&SqlToken::RParen)?;
            }
            columns.push(Column::new(&col, ColumnType::parse(&ty_name)?));
            if !self.eat_tok(&SqlToken::Comma) {
                break;
            }
        }
        self.expect_tok(&SqlToken::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_tok(&SqlToken::LParen)?;
        let column = self.ident()?;
        self.expect_tok(&SqlToken::RParen)?;
        let kind = if self.eat_kw("USING") {
            let k = self.ident()?;
            match k.to_ascii_uppercase().as_str() {
                "HASH" => IndexKind::Hash,
                "BTREE" => IndexKind::BTree,
                other => return Err(SqlError::new(format!("unknown index kind {:?}", other))),
            }
        } else {
            IndexKind::BTree
        };
        Ok(Statement::CreateIndex {
            table,
            column,
            kind,
        })
    }

    fn insert(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_tok(&SqlToken::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_tok(&SqlToken::Comma) {
                    break;
                }
            }
            self.expect_tok(&SqlToken::RParen)?;
            rows.push(row);
            if !self.eat_tok(&SqlToken::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn literal(&mut self) -> Result<Atomic, SqlError> {
        let negate = self.eat_tok(&SqlToken::Minus);
        match self.bump() {
            SqlToken::Int(i) => Ok(Atomic::Int(if negate { -i } else { i })),
            SqlToken::Float(f) => Ok(Atomic::Float(if negate { -f } else { f })),
            SqlToken::Str(s) if !negate => Ok(Atomic::Sym(nimble_xml::Sym::intern(&s))),
            SqlToken::Word(w) if !negate => match w.to_ascii_uppercase().as_str() {
                "NULL" => Ok(Atomic::Null),
                "TRUE" => Ok(Atomic::Bool(true)),
                "FALSE" => Ok(Atomic::Bool(false)),
                other => Err(SqlError::new(format!("expected literal, found {}", other))),
            },
            other => Err(SqlError::new(format!(
                "expected literal, found {:?}",
                other
            ))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            if self.eat_tok(&SqlToken::Star) {
                items.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_tok(&SqlToken::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let after_row = if self.eat_kw("AFTER") {
            self.expect_kw("ROW")?;
            Some(if self.eat_tok(&SqlToken::Question) {
                Operand::Slot(self.slot(SlotKind::Value))
            } else {
                Operand::Lit(self.literal()?)
            })
        } else {
            None
        };
        let mut joins = Vec::new();
        loop {
            let left_outer = if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                true
            } else if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
                false
            } else if self.eat_kw("JOIN") {
                false
            } else {
                break;
            };
            let table = self.table_ref()?;
            self.expect_kw("ON")?;
            let on_left = self.col_ref()?;
            self.expect_tok(&SqlToken::Eq)?;
            let on_right = self.col_ref()?;
            joins.push(Join {
                table,
                left_outer,
                on_left,
                on_right,
            });
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.col_ref()?);
                if !self.eat_tok(&SqlToken::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let col = self.col_ref()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push((col, desc));
                if !self.eat_tok(&SqlToken::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                SqlToken::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(SqlError::new(format!("bad LIMIT {:?}", other))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            slots: std::mem::take(&mut self.slots),
            distinct,
            items,
            from,
            after_row,
            joins,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let table = self.ident()?;
        // Optional alias: `FROM t x` or `FROM t AS x` — but the next word
        // must not be a clause keyword.
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            const CLAUSES: &[&str] = &[
                "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "LEFT", "INNER", "ON", "AFTER",
            ];
            let next = self.peek();
            if matches!(next, SqlToken::Word(_)) && !CLAUSES.iter().any(|kw| is_kw(next, kw)) {
                Some(self.ident()?)
            } else {
                None
            }
        };
        Ok(TableRef { table, alias })
    }

    fn col_ref(&mut self) -> Result<ColRef, SqlError> {
        let first = self.ident()?;
        if self.eat_tok(&SqlToken::Dot) {
            let column = self.ident()?;
            Ok(ColRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColRef {
                table: None,
                column: first,
            })
        }
    }

    // Expression grammar: OR > AND > NOT > cmp/IN/LIKE/BETWEEN > +- > */ > primary.
    fn expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = SqlExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = SqlExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr, SqlError> {
        if self.eat_kw("NOT") {
            Ok(SqlExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<SqlExpr, SqlError> {
        let left = self.add_expr()?;
        // Postfix predicate forms.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(SqlExpr::IsNull(Box::new(left), negated));
        }
        // `x NOT IN (...)` / `x NOT LIKE '...'` / `x NOT BETWEEN a AND b`
        let negated = is_kw(self.peek(), "NOT")
            && self.tokens.get(self.pos + 1).is_some_and(|next| {
                ["IN", "LIKE", "BETWEEN"].iter().any(|kw| is_kw(next, kw))
            });
        if negated {
            self.skip();
        }
        if self.eat_kw("IN") {
            self.expect_tok(&SqlToken::LParen)?;
            let keys = if self.eat_tok(&SqlToken::Question) {
                // `IN (?)`: the whole list is the slot.
                InKeys::Slot(self.slot(SlotKind::List))
            } else {
                let mut items = Vec::new();
                loop {
                    items.push(self.literal()?);
                    if !self.eat_tok(&SqlToken::Comma) {
                        break;
                    }
                }
                InKeys::List(InList::new(items))
            };
            self.expect_tok(&SqlToken::RParen)?;
            let e = SqlExpr::In(Box::new(left), keys);
            return Ok(if negated {
                SqlExpr::Not(Box::new(e))
            } else {
                e
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.bump() {
                SqlToken::Str(s) => Operand::Lit(Atomic::Str(s)),
                SqlToken::Question => Operand::Slot(self.slot(SlotKind::Pattern)),
                other => return Err(SqlError::new(format!("LIKE expects string, got {:?}", other))),
            };
            let e = SqlExpr::Like(Box::new(left), pattern);
            return Ok(if negated {
                SqlExpr::Not(Box::new(e))
            } else {
                e
            });
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.literal()?;
            self.expect_kw("AND")?;
            let hi = self.literal()?;
            let e = SqlExpr::Between(Box::new(left), lo, hi);
            return Ok(if negated {
                SqlExpr::Not(Box::new(e))
            } else {
                e
            });
        }
        let op = match self.peek() {
            SqlToken::Eq => SqlCmp::Eq,
            SqlToken::Ne => SqlCmp::Ne,
            SqlToken::Lt => SqlCmp::Lt,
            SqlToken::Le => SqlCmp::Le,
            SqlToken::Gt => SqlCmp::Gt,
            SqlToken::Ge => SqlCmp::Ge,
            _ => return Ok(left),
        };
        self.skip();
        let right = self.add_expr()?;
        Ok(SqlExpr::Cmp(op, Box::new(left), Box::new(right)))
    }

    fn add_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                SqlToken::Plus => SqlArith::Add,
                SqlToken::Minus => SqlArith::Sub,
                _ => break,
            };
            self.skip();
            let right = self.mul_expr()?;
            left = SqlExpr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut left = self.primary()?;
        loop {
            let op = match self.peek() {
                SqlToken::Star => SqlArith::Mul,
                SqlToken::Slash => SqlArith::Div,
                _ => break,
            };
            self.skip();
            let right = self.primary()?;
            left = SqlExpr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<SqlExpr, SqlError> {
        const AGGREGATES: [(&str, AggKind); 5] = [
            ("COUNT", AggKind::Count),
            ("SUM", AggKind::Sum),
            ("MIN", AggKind::Min),
            ("MAX", AggKind::Max),
            ("AVG", AggKind::Avg),
        ];
        match self.peek() {
            SqlToken::Int(_) | SqlToken::Float(_) | SqlToken::Str(_) | SqlToken::Minus => {
                Ok(SqlExpr::Lit(self.literal()?))
            }
            SqlToken::Question => {
                self.skip();
                Ok(SqlExpr::Slot(self.slot(SlotKind::Value)))
            }
            SqlToken::LParen => {
                self.skip();
                let e = self.expr()?;
                self.expect_tok(&SqlToken::RParen)?;
                Ok(e)
            }
            word @ SqlToken::Word(_) => {
                let agg = AGGREGATES
                    .iter()
                    .find(|(kw, _)| is_kw(word, kw))
                    .map(|(_, kind)| *kind);
                let literal = ["NULL", "TRUE", "FALSE"].iter().any(|kw| is_kw(word, kw));
                if let Some(kind) = agg {
                    if matches!(self.tokens.get(self.pos + 1), Some(SqlToken::LParen)) {
                        self.skip(); // function name
                        self.skip(); // (
                        if self.eat_tok(&SqlToken::Star) {
                            self.expect_tok(&SqlToken::RParen)?;
                            return Ok(SqlExpr::Agg(kind, None));
                        }
                        let inner = self.expr()?;
                        self.expect_tok(&SqlToken::RParen)?;
                        return Ok(SqlExpr::Agg(kind, Some(Box::new(inner))));
                    }
                }
                if literal {
                    Ok(SqlExpr::Lit(self.literal()?))
                } else {
                    Ok(SqlExpr::Col(self.col_ref()?))
                }
            }
            other => Err(SqlError::new(format!(
                "expected expression, found {:?}",
                other
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table() {
        let s = parse_statement("CREATE TABLE t (id INT, name VARCHAR(40), w FLOAT)").unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[1].ty, ColumnType::Text);
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse_statement("INSERT INTO t VALUES (1, 'a', NULL), (-2, 'b', 3.5)").unwrap();
        match s {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][2], Atomic::Null);
                assert_eq!(rows[1][0], Atomic::Int(-2));
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn select_with_everything() {
        let s = parse_statement(
            "SELECT o.id, c.name AS customer, COUNT(*) AS n \
             FROM orders o JOIN customers c ON o.cust_id = c.id \
             WHERE o.total > 100 AND c.region IN ('NW', 'SW') \
             GROUP BY o.id, c.name ORDER BY n DESC LIMIT 10",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 3);
                assert_eq!(sel.joins.len(), 1);
                assert_eq!(sel.group_by.len(), 2);
                assert_eq!(sel.limit, Some(10));
                assert!(sel.order_by[0].1);
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn after_row_follows_the_from_table() {
        let parsed = |sql: &str| match parse_statement(sql).unwrap() {
            Statement::Select(sel) => sel,
            other => panic!("{:?}", other),
        };
        let sel = parsed("SELECT t.id FROM orders t AFTER ROW 7500 WHERE t.total > ? LIMIT 3");
        assert_eq!(sel.from.alias.as_deref(), Some("t"));
        assert_eq!(sel.after_row, Some(Operand::Lit(Atomic::Int(7500))));
        assert_eq!(sel.slots, [SlotKind::Value]);
        // A slot there is the statement's first; no alias is fine too.
        let sel = parsed("SELECT id FROM orders AFTER ROW ? WHERE total > ? AND id IN (?)");
        assert_eq!((sel.from.alias, sel.after_row), (None, Some(Operand::Slot(0))));
        assert_eq!(sel.slots, [SlotKind::Value, SlotKind::Value, SlotKind::List]);
        assert_eq!(parsed("SELECT id FROM orders").after_row, None);
        assert!(parse_statement("SELECT id FROM orders AFTER 3").is_err());
        assert!(parse_statement("SELECT id FROM orders AFTER ROW").is_err());
    }

    #[test]
    fn like_between_not_in() {
        let s = parse_statement(
            "SELECT * FROM t WHERE a LIKE '%x%' AND b BETWEEN 1 AND 5 AND c NOT IN (1,2)",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                let conjuncts = sel.where_clause.unwrap().split_conjuncts();
                assert_eq!(conjuncts.len(), 3);
                assert!(matches!(conjuncts[0], SqlExpr::Like(..)));
                assert!(matches!(conjuncts[1], SqlExpr::Between(..)));
                assert!(matches!(conjuncts[2], SqlExpr::Not(..)));
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn is_null() {
        let s = parse_statement("SELECT * FROM t WHERE a IS NOT NULL").unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(matches!(
                    sel.where_clause.unwrap(),
                    SqlExpr::IsNull(_, true)
                ));
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn create_index_kinds() {
        match parse_statement("CREATE INDEX ON t (a) USING HASH").unwrap() {
            Statement::CreateIndex { kind, .. } => assert_eq!(kind, IndexKind::Hash),
            other => panic!("{:?}", other),
        }
        match parse_statement("CREATE INDEX ON t (a)").unwrap() {
            Statement::CreateIndex { kind, .. } => assert_eq!(kind, IndexKind::BTree),
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_statement("SELECT * FROM t garbage garbage").is_err());
    }

    #[test]
    fn alias_not_confused_with_clause() {
        let s = parse_statement("SELECT * FROM t WHERE x = 1").unwrap();
        match s {
            Statement::Select(sel) => assert_eq!(sel.from.alias, None),
            other => panic!("{:?}", other),
        }
    }
}
