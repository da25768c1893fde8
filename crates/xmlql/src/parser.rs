//! Recursive-descent parser for the XML-QL dialect.
//!
//! Dispatch between patterns and predicates inside the WHERE clause uses
//! one token of lookahead: a comparison can never *start* with `<`, so a
//! leading `Lt` always opens a pattern.

use crate::ast::*;
use crate::lexer::{tokenize, LexError, Token, TokenKind};
use nimble_xml::Atomic;
use std::fmt;

/// A syntax error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub line: usize,
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML-QL parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}
impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// A surface-level type diagnostic: a literal operand whose type can
/// never satisfy its operator. Collected while parsing (the only phase
/// with token positions in hand); the parse itself still succeeds, so
/// callers decide whether diagnostics are fatal — [`crate::compile`]
/// treats the first one as an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDiag {
    pub detail: String,
    /// Source position of the offending *operator* token.
    pub line: usize,
    pub col: usize,
}

/// Parse a complete XML-QL query.
pub fn parse_query(text: &str) -> Result<Query, ParseError> {
    parse_query_checked(text).map(|(q, _)| q)
}

/// Parse a query and surface-type-check its expressions: returns the
/// query plus any positioned [`TypeDiag`]s found (arithmetic on a
/// non-numeric literal, `LIKE` on a numeric one). Only *direct literal
/// operands* are judged — variables and computed operands are left to
/// the engine's runtime coercion — so every diagnostic is a certainty,
/// never a guess.
pub fn parse_query_checked(text: &str) -> Result<(Query, Vec<TypeDiag>), ParseError> {
    let tokens = tokenize(text)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        type_diags: Vec::new(),
    };
    let q = p.query()?;
    p.expect(&TokenKind::Eof)?;
    Ok((q, p.type_diags))
}

/// Why a literal can never be an arithmetic operand, or `None` when it
/// can (numerics, numeric-looking strings the engine coerces, and
/// anything non-literal).
fn arith_operand_error(e: &Expr) -> Option<String> {
    match e {
        Expr::Lit(Atomic::Str(s)) if s.trim().parse::<f64>().is_err() => {
            Some(format!("string literal {:?} is not numeric", s))
        }
        Expr::Lit(Atomic::Bool(b)) => Some(format!("boolean literal `{}` is not numeric", b)),
        Expr::Lit(Atomic::Null) => Some("`null` is not numeric".to_string()),
        _ => None,
    }
}

/// Why a literal can never be a `LIKE` operand (LIKE matches strings),
/// or `None` when it can.
fn like_operand_error(e: &Expr) -> Option<String> {
    match e {
        Expr::Lit(Atomic::Int(i)) => Some(format!("numeric literal `{}`", i)),
        Expr::Lit(Atomic::Float(x)) => Some(format!("numeric literal `{}`", x)),
        Expr::Lit(Atomic::Bool(b)) => Some(format!("boolean literal `{}`", b)),
        Expr::Lit(Atomic::Null) => Some("`null`".to_string()),
        _ => None,
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Surface type diagnostics collected during expression parsing.
    type_diags: Vec<TypeDiag>,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    /// Consume the current token, moving it out of the stream (nothing
    /// reads a consumed token's kind again; positions stay). The final
    /// `Eof` is never moved past.
    fn bump(&mut self) -> TokenKind {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1].kind, TokenKind::Eof)
        } else {
            TokenKind::Eof
        }
    }

    /// Consume an `Ident`, `Var` or `Str` token, taking its text.
    fn bump_text(&mut self) -> String {
        match self.bump() {
            TokenKind::Ident(s) | TokenKind::Var(s) | TokenKind::Str(s) => s,
            _ => String::new(),
        }
    }

    /// Position of the current (not yet consumed) token.
    fn here(&self) -> (usize, usize) {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    /// Record a type diagnostic for `operand` of the operator spelled
    /// `sym` at (`line`, `col`) when the operand is a literal that can
    /// never be numeric.
    fn check_arith(&mut self, sym: &str, operand: &Expr, line: usize, col: usize) {
        if let Some(why) = arith_operand_error(operand) {
            self.type_diags.push(TypeDiag {
                detail: format!("operand of `{}` — {}; arithmetic needs a number", sym, why),
                line,
                col,
            });
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let t = &self.tokens[self.pos];
        Err(ParseError {
            message: format!("{} (found {})", msg.into(), t.kind),
            line: t.line,
            col: t.col,
        })
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {}", kind))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            TokenKind::Ident(_) => Ok(self.bump_text()),
            _ => self.err("expected identifier"),
        }
    }

    fn var(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            TokenKind::Var(_) => Ok(self.bump_text()),
            _ => self.err("expected variable ($name)"),
        }
    }

    // query := WHERE condition (',' condition)* CONSTRUCT template [orderby]
    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect(&TokenKind::Where)?;
        let mut conditions = vec![self.condition()?];
        while self.eat(&TokenKind::Comma) {
            conditions.push(self.condition()?);
        }
        self.expect(&TokenKind::Construct)?;
        let construct = self.element_template()?;
        let order_by = if self.at_order_by() {
            self.order_by()?
        } else {
            Vec::new()
        };
        Ok(Query {
            conditions,
            construct,
            order_by,
        })
    }

    fn at_order_by(&self) -> bool {
        match self.peek() {
            TokenKind::OrderBy => true,
            TokenKind::Ident(w) if w.eq_ignore_ascii_case("order") => {
                matches!(self.peek2(), TokenKind::Minus)
            }
            _ => false,
        }
    }

    fn order_by(&mut self) -> Result<Vec<OrderKey>, ParseError> {
        if !self.eat(&TokenKind::OrderBy) {
            // The hyphen spelling: Ident("ORDER") '-' Ident("BY").
            self.bump(); // ORDER
            self.expect(&TokenKind::Minus)?;
            let by = self.ident()?;
            if !by.eq_ignore_ascii_case("by") {
                return self.err("expected BY after ORDER-");
            }
        }
        let mut keys = Vec::new();
        loop {
            let var = self.var()?;
            let descending = if self.eat(&TokenKind::Desc) {
                true
            } else {
                self.eat(&TokenKind::Asc);
                false
            };
            keys.push(OrderKey { var, descending });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(keys)
    }

    fn condition(&mut self) -> Result<Condition, ParseError> {
        if matches!(self.peek(), TokenKind::Lt) {
            let pattern = self.pattern()?;
            self.expect(&TokenKind::In)?;
            let source = match self.peek() {
                TokenKind::Str(_) => SourceRef::Named(self.bump_text()),
                TokenKind::Var(_) => SourceRef::Var(self.bump_text()),
                _ => return self.err("expected source: \"name\" or $var after IN"),
            };
            Ok(Condition::Pattern(PatternBinding { pattern, source }))
        } else {
            Ok(Condition::Predicate(self.or_expr()?))
        }
    }

    // pattern := '<' tagpat attrpat* ('/>' | '>' pcontent* endtag) binders
    fn pattern(&mut self) -> Result<Pattern, ParseError> {
        self.expect(&TokenKind::Lt)?;
        let tag = self.tag_pattern()?;
        let mut attrs = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Ident(_) => {
                    let name = self.bump_text();
                    self.expect(&TokenKind::Eq)?;
                    let value = self.pattern_value()?;
                    attrs.push(AttrPattern { name, value });
                }
                TokenKind::SlashGt => {
                    self.bump();
                    return self.pattern_binders(tag, attrs, Vec::new());
                }
                TokenKind::Gt => {
                    self.bump();
                    break;
                }
                _ => return self.err("expected attribute, '>' or '/>' in pattern"),
            }
        }
        let mut content = Vec::new();
        loop {
            match *self.peek() {
                TokenKind::Lt => {
                    content.push(PatternContent::Nested(self.pattern()?));
                }
                TokenKind::LtSlash => {
                    self.bump();
                    // `</>` or `</name>`; a name must match the open tag.
                    if matches!(self.peek(), TokenKind::Ident(_)) {
                        let name = self.bump_text();
                        let open_name = match &tag {
                            TagPattern::Name(n)
                            | TagPattern::Descendant(n)
                            | TagPattern::ClosurePlus(n) => Some(n.as_str()),
                            TagPattern::Wildcard => None,
                        };
                        if let Some(open) = open_name {
                            if open != name {
                                return self.err(format!(
                                    "end tag </{}> does not match <{}>",
                                    name, open
                                ));
                            }
                        }
                    }
                    self.expect(&TokenKind::Gt)?;
                    return self.pattern_binders(tag, attrs, content);
                }
                TokenKind::Var(_) => content.push(PatternContent::Var(self.bump_text())),
                TokenKind::Str(_) => {
                    content.push(PatternContent::Lit(Atomic::Str(self.bump_text())));
                }
                TokenKind::Int(i) => {
                    self.bump();
                    content.push(PatternContent::Lit(Atomic::Int(i)));
                }
                TokenKind::Float(x) => {
                    self.bump();
                    content.push(PatternContent::Lit(Atomic::Float(x)));
                }
                TokenKind::Minus => {
                    self.bump();
                    content.push(PatternContent::Lit(self.negative_number()?));
                }
                _ => return self.err("expected pattern content or end tag"),
            }
        }
    }

    fn pattern_binders(
        &mut self,
        tag: TagPattern,
        attrs: Vec<AttrPattern>,
        content: Vec<PatternContent>,
    ) -> Result<Pattern, ParseError> {
        let mut element_as = None;
        let mut content_as = None;
        loop {
            if self.eat(&TokenKind::ElementAs) {
                if element_as.is_some() {
                    return self.err("duplicate ELEMENT_AS");
                }
                element_as = Some(self.var()?);
            } else if self.eat(&TokenKind::ContentAs) {
                if content_as.is_some() {
                    return self.err("duplicate CONTENT_AS");
                }
                content_as = Some(self.var()?);
            } else {
                break;
            }
        }
        Ok(Pattern {
            tag,
            attrs,
            content,
            element_as,
            content_as,
        })
    }

    fn tag_pattern(&mut self) -> Result<TagPattern, ParseError> {
        match self.peek() {
            TokenKind::StarTok => {
                self.bump();
                if self.eat(&TokenKind::StarTok) {
                    // `<**name>` — descendant at any depth.
                    Ok(TagPattern::Descendant(self.ident()?))
                } else {
                    Ok(TagPattern::Wildcard)
                }
            }
            TokenKind::Ident(_) => {
                let name = self.bump_text();
                if self.eat(&TokenKind::Plus) {
                    Ok(TagPattern::ClosurePlus(name))
                } else {
                    Ok(TagPattern::Name(name))
                }
            }
            _ => self.err("expected tag name, '*' or '**name'"),
        }
    }

    /// A numeric literal following a consumed `-` sign.
    fn negative_number(&mut self) -> Result<Atomic, ParseError> {
        match self.bump() {
            // (`- -9223372036854775808` has no i64.)
            TokenKind::Int(i) if i != i64::MIN => Ok(Atomic::Int(-i)),
            TokenKind::Float(x) => Ok(Atomic::Float(-x)),
            other => Err(ParseError {
                message: format!("expected number after '-', found {}", other),
                line: self.tokens[self.pos.saturating_sub(1)].line,
                col: self.tokens[self.pos.saturating_sub(1)].col,
            }),
        }
    }

    fn pattern_value(&mut self) -> Result<PatternValue, ParseError> {
        match *self.peek() {
            TokenKind::Var(_) => Ok(PatternValue::Var(self.bump_text())),
            TokenKind::Str(_) => Ok(PatternValue::Lit(Atomic::Str(self.bump_text()))),
            TokenKind::Int(i) => {
                self.bump();
                Ok(PatternValue::Lit(Atomic::Int(i)))
            }
            TokenKind::Float(x) => {
                self.bump();
                Ok(PatternValue::Lit(Atomic::Float(x)))
            }
            TokenKind::Minus => {
                self.bump();
                Ok(PatternValue::Lit(self.negative_number()?))
            }
            _ => self.err("expected $var or literal attribute value"),
        }
    }

    // --- templates ---

    fn element_template(&mut self) -> Result<ElementTemplate, ParseError> {
        self.expect(&TokenKind::Lt)?;
        let tag = self.ident()?;
        let mut skolem = None;
        let mut attrs = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Ident(_) => {
                    let name = self.bump_text();
                    self.expect(&TokenKind::Eq)?;
                    if name == "ID" {
                        // Skolem grouping: ID=Func($x,$y)
                        let func = self.ident()?;
                        self.expect(&TokenKind::LParen)?;
                        let mut args = vec![self.var()?];
                        while self.eat(&TokenKind::Comma) {
                            args.push(self.var()?);
                        }
                        self.expect(&TokenKind::RParen)?;
                        if skolem.is_some() {
                            return self.err("duplicate ID attribute");
                        }
                        skolem = Some(SkolemId { func, args });
                    } else {
                        let value = match *self.peek() {
                            TokenKind::Var(_) => TemplateValue::Var(self.bump_text()),
                            TokenKind::Str(_) => TemplateValue::Lit(self.bump_text()),
                            TokenKind::Int(i) => {
                                self.bump();
                                TemplateValue::Lit(i.to_string())
                            }
                            _ => return self.err("expected attribute value"),
                        };
                        attrs.push((name, value));
                    }
                }
                TokenKind::SlashGt => {
                    self.bump();
                    return Ok(ElementTemplate {
                        tag,
                        skolem,
                        attrs,
                        children: Vec::new(),
                    });
                }
                TokenKind::Gt => {
                    self.bump();
                    break;
                }
                _ => return self.err("expected attribute, '>' or '/>' in template"),
            }
        }
        let mut children = Vec::new();
        loop {
            match *self.peek() {
                TokenKind::Lt => children.push(TemplateNode::Element(self.element_template()?)),
                TokenKind::Var(_) => children.push(TemplateNode::Var(self.bump_text())),
                TokenKind::Str(_) => children.push(TemplateNode::Text(self.bump_text())),
                TokenKind::Int(i) => {
                    self.bump();
                    children.push(TemplateNode::Text(i.to_string()));
                }
                TokenKind::Minus => {
                    self.bump();
                    children.push(TemplateNode::Text(self.negative_number()?.lexical()));
                }
                TokenKind::Where => {
                    children.push(TemplateNode::Subquery(Box::new(self.query()?)));
                }
                TokenKind::Ident(ref name) => {
                    // Aggregate call: count() / sum($t) / ...
                    let func = match AggName::parse(name) {
                        Some(f) => f,
                        None => {
                            let name = name.clone();
                            return self.err(format!(
                                "unknown aggregate {:?} in template (expected \
                                 count/sum/min/max/avg/collect)",
                                name
                            ));
                        }
                    };
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let var = if self.peek() == &TokenKind::RParen {
                        None
                    } else {
                        Some(self.var()?)
                    };
                    self.expect(&TokenKind::RParen)?;
                    if func != AggName::Count && var.is_none() {
                        return self.err(format!("{:?} requires an argument", func));
                    }
                    children.push(TemplateNode::Agg { func, var });
                }
                TokenKind::LBrace => {
                    // Optional braces around a subquery for readability.
                    self.bump();
                    children.push(TemplateNode::Subquery(Box::new(self.query()?)));
                    self.expect(&TokenKind::RBrace)?;
                }
                TokenKind::LtSlash => {
                    self.bump();
                    if matches!(self.peek(), TokenKind::Ident(_)) {
                        let name = self.bump_text();
                        if name != tag {
                            return self
                                .err(format!("end tag </{}> does not match <{}>", name, tag));
                        }
                    }
                    self.expect(&TokenKind::Gt)?;
                    return Ok(ElementTemplate {
                        tag,
                        skolem,
                        attrs,
                        children,
                    });
                }
                _ => return self.err("expected template content or end tag"),
            }
        }
    }

    // --- expressions (precedence climbing) ---

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat(&TokenKind::Or) {
            let right = self.and_expr()?;
            left = Expr::Binary(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.not_expr()?;
        while self.eat(&TokenKind::And) {
            let right = self.not_expr()?;
            left = Expr::Binary(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&TokenKind::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::Like => BinOp::Like,
            _ => return Ok(left),
        };
        let (line, col) = self.here();
        self.bump();
        let right = self.add_expr()?;
        if op == BinOp::Like {
            for side in [&left, &right] {
                if let Some(why) = like_operand_error(side) {
                    self.type_diags.push(TypeDiag {
                        detail: format!("operand of `LIKE` — {}; LIKE matches strings", why),
                        line,
                        col,
                    });
                }
            }
        }
        Ok(Expr::Binary(op, Box::new(left), Box::new(right)))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.mul_expr()?;
        loop {
            let (op, sym) = match self.peek() {
                TokenKind::Plus => (BinOp::Add, "+"),
                TokenKind::Minus => (BinOp::Sub, "-"),
                _ => break,
            };
            let (line, col) = self.here();
            self.bump();
            let right = self.mul_expr()?;
            self.check_arith(sym, &left, line, col);
            self.check_arith(sym, &right, line, col);
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary_expr()?;
        loop {
            let (op, sym) = match self.peek() {
                TokenKind::StarTok => (BinOp::Mul, "*"),
                TokenKind::Slash => (BinOp::Div, "/"),
                TokenKind::Percent => (BinOp::Mod, "%"),
                _ => break,
            };
            let (line, col) = self.here();
            self.bump();
            let right = self.unary_expr()?;
            self.check_arith(sym, &left, line, col);
            self.check_arith(sym, &right, line, col);
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), TokenKind::Minus) {
            let (line, col) = self.here();
            self.bump();
            let inner = self.unary_expr()?;
            self.check_arith("-", &inner, line, col);
            Ok(Expr::Neg(Box::new(inner)))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match *self.peek() {
            TokenKind::Var(_) => Ok(Expr::Var(self.bump_text())),
            TokenKind::Int(i) => {
                self.bump();
                Ok(Expr::Lit(Atomic::Int(i)))
            }
            TokenKind::Float(x) => {
                self.bump();
                Ok(Expr::Lit(Atomic::Float(x)))
            }
            TokenKind::Str(_) => Ok(Expr::Lit(Atomic::Str(self.bump_text()))),
            TokenKind::Ident(_) => {
                let name = self.bump_text();
                match name.as_str() {
                    "true" => return Ok(Expr::Lit(Atomic::Bool(true))),
                    "false" => return Ok(Expr::Lit(Atomic::Bool(false))),
                    "null" => return Ok(Expr::Lit(Atomic::Null)),
                    _ => {}
                }
                self.expect(&TokenKind::LParen)?;
                let mut args = Vec::new();
                if self.peek() != &TokenKind::RParen {
                    args.push(self.or_expr()?);
                    while self.eat(&TokenKind::Comma) {
                        args.push(self.or_expr()?);
                    }
                }
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Call(name, args))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.or_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            _ => self.err("expected expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_bibliography_query() {
        let q = parse_query(
            r#"WHERE <bib><book year=$y>
                     <title>$t</title>
                     <author><last>$l</last></author>
                  </book></bib> IN "books",
                  $y > 1995
               CONSTRUCT <result><title>$t</title><author>$l</author></result>"#,
        )
        .unwrap();
        assert_eq!(q.conditions.len(), 2);
        match &q.conditions[0] {
            Condition::Pattern(pb) => {
                assert_eq!(pb.source, SourceRef::Named("books".into()));
                assert_eq!(pb.pattern.bound_vars(), vec!["y", "t", "l"]);
            }
            other => panic!("expected pattern, got {:?}", other),
        }
        assert_eq!(q.construct.tag, "result");
    }

    #[test]
    fn abbreviated_end_tags() {
        let q = parse_query(
            r#"WHERE <a><b>$x</b></> IN "d" CONSTRUCT <out>$x</>"#,
        )
        .unwrap();
        assert_eq!(q.construct.tag, "out");
    }

    #[test]
    fn element_as_and_content_as() {
        let q = parse_query(
            r#"WHERE <people><person/> ELEMENT_AS $p CONTENT_AS $c</people> IN "d"
               CONSTRUCT <o>$p</o>"#,
        )
        .unwrap();
        match &q.conditions[0] {
            Condition::Pattern(pb) => {
                let inner = match &pb.pattern.content[0] {
                    PatternContent::Nested(p) => p,
                    other => panic!("{:?}", other),
                };
                assert_eq!(inner.element_as, Some("p".into()));
                assert_eq!(inner.content_as, Some("c".into()));
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn tag_patterns() {
        let q = parse_query(
            r#"WHERE <db><**leaf>$x</> <*>$y</> <part+>$z</></db> IN "d" CONSTRUCT <o/>"#,
        )
        .unwrap();
        match &q.conditions[0] {
            Condition::Pattern(pb) => {
                let tags: Vec<&TagPattern> = pb
                    .pattern
                    .content
                    .iter()
                    .filter_map(|c| match c {
                        PatternContent::Nested(p) => Some(&p.tag),
                        _ => None,
                    })
                    .collect();
                assert_eq!(tags[0], &TagPattern::Descendant("leaf".into()));
                assert_eq!(tags[1], &TagPattern::Wildcard);
                assert_eq!(tags[2], &TagPattern::ClosurePlus("part".into()));
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn navigation_source_var() {
        let q = parse_query(
            r#"WHERE <order/> ELEMENT_AS $o IN "orders",
                     <item>$i</item> IN $o
               CONSTRUCT <r>$i</r>"#,
        )
        .unwrap();
        match &q.conditions[1] {
            Condition::Pattern(pb) => assert_eq!(pb.source, SourceRef::Var("o".into())),
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn predicate_precedence() {
        let q = parse_query(
            r#"WHERE <a>$x</a> IN "d", $x > 1 + 2 * 3 AND NOT $x = 10 OR $x < 0
               CONSTRUCT <o/>"#,
        )
        .unwrap();
        match &q.conditions[1] {
            // OR is the loosest binder.
            Condition::Predicate(Expr::Binary(BinOp::Or, _, _)) => {}
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn like_and_functions() {
        let q = parse_query(
            r#"WHERE <a>$x</a> IN "d", $x LIKE "%data%", contains(lower($x), "web")
               CONSTRUCT <o/>"#,
        )
        .unwrap();
        assert_eq!(q.conditions.len(), 3);
    }

    #[test]
    fn skolem_grouping() {
        let q = parse_query(
            r#"WHERE <person><name>$n</name><tel>$t</tel></person> IN "d"
               CONSTRUCT <person ID=PersonID($n)><name>$n</name><tel>$t</tel></person>"#,
        )
        .unwrap();
        let sk = q.construct.skolem.unwrap();
        assert_eq!(sk.func, "PersonID");
        assert_eq!(sk.args, vec!["n"]);
    }

    #[test]
    fn nested_subquery() {
        let q = parse_query(
            r#"WHERE <book><title>$t</title></book> ELEMENT_AS $b IN "bib"
               CONSTRUCT <entry><title>$t</title>
                   WHERE <author>$a</author> IN $b
                   CONSTRUCT <author>$a</author>
               </entry>"#,
        )
        .unwrap();
        assert_eq!(q.construct.subqueries().len(), 1);
    }

    #[test]
    fn order_by_both_spellings() {
        for spelling in ["ORDER-BY", "ORDER_BY", "order-by"] {
            let q = parse_query(&format!(
                r#"WHERE <a>$x</a> IN "d" CONSTRUCT <o>$x</o> {} $x DESC"#,
                spelling
            ))
            .unwrap();
            assert_eq!(
                q.order_by,
                vec![OrderKey {
                    var: "x".into(),
                    descending: true
                }]
            );
        }
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err =
            parse_query(r#"WHERE <a><b>$x</c></a> IN "d" CONSTRUCT <o/>"#).unwrap_err();
        assert!(err.message.contains("does not match"), "{}", err);
    }

    #[test]
    fn literal_attribute_constraints() {
        let q = parse_query(
            r#"WHERE <book lang="en" edition=2>$t</book> IN "d" CONSTRUCT <o>$t</o>"#,
        )
        .unwrap();
        match &q.conditions[0] {
            Condition::Pattern(pb) => {
                assert_eq!(pb.pattern.attrs.len(), 2);
                assert_eq!(
                    pb.pattern.attrs[1].value,
                    PatternValue::Lit(Atomic::Int(2))
                );
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn aggregates_in_templates() {
        let q = parse_query(
            r#"WHERE <row><r>$r</r><t>$t</t></row> IN "orders"
               CONSTRUCT <sum ID=ByR($r)><region>$r</region>
                   <n>count()</n><total>sum($t)</total><top>max($t)</top>
               </sum>"#,
        )
        .unwrap();
        let vars = q.construct.direct_vars();
        assert!(vars.contains(&"t".to_string()));
        // Unknown aggregate names and missing arguments are rejected.
        assert!(parse_query(
            r#"WHERE <a>$x</a> IN "d" CONSTRUCT <o>median($x)</o>"#
        )
        .is_err());
        assert!(parse_query(r#"WHERE <a>$x</a> IN "d" CONSTRUCT <o>sum()</o>"#).is_err());
    }

    #[test]
    fn error_has_position() {
        let err = parse_query("WHERE\n  CONSTRUCT <o/>").unwrap_err();
        assert_eq!(err.line, 2);
    }

    // ---- surface type diagnostics ----

    fn diags(text: &str) -> Vec<TypeDiag> {
        parse_query_checked(text).unwrap().1
    }

    #[test]
    fn arithmetic_on_non_numeric_string_literal_is_flagged() {
        let d = diags(
            "WHERE <a>$x</a> IN \"c\",\n  $x + \"abc\" > 3\nCONSTRUCT <o>$x</o>",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].detail.contains("\"abc\""), "{}", d[0].detail);
        // Position is the `+` operator on line 2.
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].col, 6);
        // The parse itself still succeeds — diagnostics are advisory at
        // this layer; `compile` decides they are fatal.
        assert!(parse_query("WHERE <a>$x</a> IN \"c\", $x + \"abc\" > 3 CONSTRUCT <o>$x</o>").is_ok());
    }

    #[test]
    fn numeric_looking_strings_and_variables_are_not_flagged() {
        // The engine coerces "5" in arithmetic; variables are unknown.
        assert!(diags(r#"WHERE <a>$x</a> IN "c", $x + "5" > 3 CONSTRUCT <o>$x</o>"#).is_empty());
        assert!(diags(r#"WHERE <a>$x</a> IN "c", $x * 2 - 1 >= 0 CONSTRUCT <o>$x</o>"#).is_empty());
        // Unary minus on a number is fine; on a non-numeric string it is not.
        assert!(diags(r#"WHERE <a>$x</a> IN "c", $x > -5 CONSTRUCT <o>$x</o>"#).is_empty());
        assert_eq!(diags(r#"WHERE <a>$x</a> IN "c", $x > -"b" CONSTRUCT <o>$x</o>"#).len(), 1);
    }

    #[test]
    fn like_on_numeric_literal_is_flagged() {
        let d = diags("WHERE <a>$x</a> IN \"c\",\n  $x LIKE 42\nCONSTRUCT <o>$x</o>");
        assert_eq!(d.len(), 1);
        assert!(d[0].detail.contains("LIKE"), "{}", d[0].detail);
        assert!(d[0].detail.contains("42"), "{}", d[0].detail);
        assert_eq!((d[0].line, d[0].col), (2, 6));
        // A string pattern is the normal case and stays clean.
        assert!(diags(r#"WHERE <a>$x</a> IN "c", $x LIKE "a%" CONSTRUCT <o>$x</o>"#).is_empty());
        // The subject side is judged the same way.
        assert_eq!(diags(r#"WHERE <a>$x</a> IN "c", 7 LIKE $x CONSTRUCT <o>$x</o>"#).len(), 1);
    }

    #[test]
    fn boolean_and_null_literals_in_arithmetic_are_flagged() {
        assert_eq!(diags(r#"WHERE <a>$x</a> IN "c", $x + true > 1 CONSTRUCT <o>$x</o>"#).len(), 1);
        assert_eq!(diags(r#"WHERE <a>$x</a> IN "c", $x % null = 0 CONSTRUCT <o>$x</o>"#).len(), 1);
    }

    #[test]
    fn type_diagnostics_reach_into_nested_subqueries() {
        let d = diags(
            r#"WHERE <a/> ELEMENT_AS $e IN "top"
               CONSTRUCT <o>
                 WHERE <b>$x</b> IN "nested", $x - "oops" > 0
                 CONSTRUCT <i>$x</i>
               </o>"#,
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }
}
