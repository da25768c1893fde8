//! Recursive-descent parser for the XML-QL dialect.
//!
//! Dispatch between patterns and predicates inside the WHERE clause uses
//! one token of lookahead: a comparison can never *start* with `<`, so a
//! leading `Lt` always opens a pattern.

use crate::ast::*;
use crate::lexer::{tokenize, tokens_of, LexError, Token, TokenKind};
use nimble_xml::{Atomic, AtomicType};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

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
    parse(text).map(|(q, p)| (q, p.type_diags))
}

/// A text's **shape key** and the values its equality parameters
/// ([`Query::eq_params`]) take in it. The key is the text with the
/// spelling of each parameter's literal replaced by its type — `$i = 42`
/// reads `$i = ?int`, and `?float`, `?str` (text that does not read as a
/// number: `"42"` is no parameter and stays), `?bool` stand for the
/// others. A text without one is its own key. The plan cache keys a
/// plan that serves every value of its parameters by this (DESIGN.md
/// §12).
///
/// Two texts share a key only if they lex alike up to the values of
/// parameters of the same types: `?` lexes nowhere outside a string or a
/// comment, and what the lexer makes of a character depends only on the
/// text before it, so a placeholder can only stand where the other text
/// has a literal too. Two spellings of one query (other whitespace, say)
/// are two keys. [`crate::QueryShape`] prints the same classes from the
/// parsed query, as the reference for the cut.
#[derive(Debug, Clone, PartialEq)]
pub struct Keyed<'a> {
    pub key: Cow<'a, str>,
    /// Each parameter's value, in [`Query::eq_params`] order.
    pub params: Vec<Atomic>,
}

/// Parse a query and cut its [`Keyed`] from the parse: the reference
/// for [`lex_keyed`], which cuts the same from the tokens alone.
pub fn parse_keyed(text: &str) -> Result<(Query, Keyed<'_>), ParseError> {
    let (query, p) = parse(text)?;
    let mut key = KeyCut::new(text);
    for (span, ty) in p.params {
        key.cut(span, ty);
    }
    let params = query.eq_params().into_iter().cloned().collect();
    Ok((query, Keyed { key: key.finish(), params }))
}

/// Cut a query's [`Keyed`] from its tokens, without parsing it: a
/// plan-cache hit is found from this alone. The rule is
/// [`Expr::eq_param`]'s, read off the tokens: a whole condition of the
/// top-level WHERE clause that is `$v = lit` or `lit = $v`, where `lit`
/// is one literal token — `-42` is one, `- 42` is two and no parameter —
/// alone or wrapped whole in parentheses, `(($i = 42))`. The values are
/// read as the parser reads them ([`TokenKind::literal`]).
///
/// A condition the parser lifts but the tokens spell otherwise (`($i) =
/// 42`, say) stays in the key here, so the two cuts can disagree; the
/// engine caches a plan only under a key both cut alike. Lexing stops at
/// the clause's end, the first CONSTRUCT: a text whose key a cached one
/// shares lexes as that one does, so an error only the rest would show
/// is the parser's to report. An error before it is the lexer's, as the
/// parser reports it.
pub fn lex_keyed(text: &str) -> Result<Keyed<'_>, ParseError> {
    let mut key = KeyCut::new(text);
    let mut params = Vec::new();
    let mut tokens = tokens_of(text);
    if let Some(Token { kind: TokenKind::Where, .. }) = tokens.next().transpose()? {
        // The top-level WHERE clause runs to the first CONSTRUCT: a
        // nested query stands only in a template, after it.
        let mut condition = CutCondition::default();
        let mut depth = 0usize;
        for token in tokens {
            let token = token?;
            match token.kind {
                TokenKind::LParen => depth += 1,
                TokenKind::RParen => depth = depth.saturating_sub(1),
                _ => {}
            }
            let end = matches!(token.kind, TokenKind::Construct | TokenKind::Eof);
            if !end && (depth > 0 || token.kind != TokenKind::Comma) {
                condition.push(token);
                continue;
            }
            if let Some((span, value)) = condition.param() {
                key.cut(span, value.atomic_type());
                params.push(value);
            }
            condition = CutCondition::default();
            if end {
                break;
            }
        }
    }
    Ok(Keyed { key: key.finish(), params })
}

/// A top-level condition as [`lex_keyed`] reads it, token by token: a
/// parameter's is three tokens, wrapped in as many `(` before them as
/// `)` after.
#[derive(Default)]
struct CutCondition<'a> {
    /// The `(` before any other token.
    open: usize,
    /// The first three tokens after those.
    core: [Option<Token<'a>>; 3],
    len: usize,
    /// The `)` after those three.
    close: usize,
    /// A token past that shape.
    other: bool,
}

impl<'a> CutCondition<'a> {
    fn push(&mut self, token: Token<'a>) {
        match (&token.kind, self.len) {
            (TokenKind::LParen, 0) => self.open += 1,
            (TokenKind::RParen, 3) => self.close += 1,
            (_, len) if len < 3 => {
                self.core[len] = Some(token);
                self.len += 1;
            }
            _ => self.other = true,
        }
    }

    /// The span and value of the condition's parameter, if it is one.
    fn param(&self) -> Option<(Range<usize>, Atomic)> {
        match &self.core {
            [Some(left), Some(eq), Some(right)] if !self.other && self.open == self.close => {
                param_literal(left, eq, right)
            }
            _ => None,
        }
    }
}

/// The span and value of the literal of a condition spelled `$v = lit`
/// or `lit = $v`, when that literal is a parameter.
fn param_literal(left: &Token<'_>, eq: &Token<'_>, right: &Token<'_>) -> Option<(Range<usize>, Atomic)> {
    let literal = match (&left.kind, &eq.kind, &right.kind) {
        (TokenKind::Var(_), TokenKind::Eq, _) => right,
        (_, TokenKind::Eq, TokenKind::Var(_)) => left,
        _ => return None,
    };
    let value = literal.kind.literal().filter(liftable)?;
    Some((literal.span.clone(), value))
}

/// A shape key being written: the text, with each literal cut, in text
/// order, replaced by its type's placeholder.
struct KeyCut<'a> {
    text: &'a str,
    key: String,
    /// Where the text not yet copied starts.
    at: usize,
}

impl<'a> KeyCut<'a> {
    fn new(text: &'a str) -> KeyCut<'a> {
        KeyCut {
            text,
            key: String::new(),
            at: 0,
        }
    }

    fn cut(&mut self, span: Range<usize>, ty: AtomicType) {
        if self.key.is_empty() {
            self.key.reserve(self.text.len() + 16);
        }
        self.key.push_str(&self.text[self.at..span.start]);
        self.key.push_str(placeholder(ty));
        self.at = span.end;
    }

    /// The key: the text itself when nothing was cut.
    fn finish(mut self) -> Cow<'a, str> {
        if self.key.is_empty() {
            return Cow::Borrowed(self.text);
        }
        self.key.push_str(&self.text[self.at..]);
        Cow::Owned(self.key)
    }
}

/// What a shape key writes in place of an equality parameter's literal.
pub(crate) fn placeholder(ty: AtomicType) -> &'static str {
    match ty {
        AtomicType::Int => "?int",
        AtomicType::Float => "?float",
        AtomicType::Bool => "?bool",
        _ => "?str",
    }
}

fn parse(text: &str) -> Result<(Query, Parser<'_>), ParseError> {
    let tokens = tokenize(text)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        type_diags: Vec::new(),
        depth: 0,
        last_literal: 0..0,
        params: Vec::new(),
    };
    let q = p.query()?;
    p.require(&TokenKind::Eof)?;
    Ok((q, p))
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

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Surface type diagnostics collected during expression parsing.
    type_diags: Vec<TypeDiag>,
    /// How many queries the parser is inside: 1 in the top-level one.
    depth: usize,
    /// The span of the last literal an expression was parsed with.
    last_literal: Range<usize>,
    /// The span and type of each equality parameter's literal of the
    /// top-level query, in [`Query::eq_params`] order.
    params: Vec<(Range<usize>, AtomicType)>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind<'a> {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    /// Consume the current token, moving it out of the stream (nothing
    /// reads a consumed token's kind again; positions stay). The final
    /// `Eof` is never moved past.
    fn bump(&mut self) -> TokenKind<'a> {
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
            TokenKind::Ident(s) | TokenKind::Var(s) => s.to_string(),
            TokenKind::Str(s) => s.into_owned(),
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

    fn require(&mut self, kind: &TokenKind<'_>) -> Result<(), ParseError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {}", kind))
        }
    }

    fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
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
        self.depth += 1;
        self.require(&TokenKind::Where)?;
        let mut conditions = vec![self.top_condition()?];
        while self.eat(&TokenKind::Comma) {
            conditions.push(self.top_condition()?);
        }
        self.require(&TokenKind::Construct)?;
        let construct = self.element_template()?;
        let order_by = if self.at_order_by() {
            self.order_by()?
        } else {
            Vec::new()
        };
        self.depth -= 1;
        Ok(Query {
            conditions,
            construct,
            order_by,
        })
    }

    /// A condition of a query's WHERE clause; an equality parameter of
    /// the top-level query leaves its literal's span in `params` (its
    /// one literal, so the last one parsed).
    fn top_condition(&mut self) -> Result<Condition, ParseError> {
        let condition = self.condition()?;
        if let (1, Condition::Predicate(e)) = (self.depth, &condition) {
            if let Some(a) = e.eq_param() {
                self.params.push((self.last_literal.clone(), a.atomic_type()));
            }
        }
        Ok(condition)
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
            self.require(&TokenKind::Minus)?;
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
            self.require(&TokenKind::In)?;
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
        self.require(&TokenKind::Lt)?;
        let tag = self.tag_pattern()?;
        let mut attrs = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Ident(_) => {
                    let name = self.bump_text();
                    self.require(&TokenKind::Eq)?;
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
                    self.require(&TokenKind::Gt)?;
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
        self.require(&TokenKind::Lt)?;
        let tag = self.ident()?;
        let mut skolem = None;
        let mut attrs = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Ident(_) => {
                    let name = self.bump_text();
                    self.require(&TokenKind::Eq)?;
                    if name == "ID" {
                        // Skolem grouping: ID=Func($x,$y)
                        let func = self.ident()?;
                        self.require(&TokenKind::LParen)?;
                        let mut args = vec![self.var()?];
                        while self.eat(&TokenKind::Comma) {
                            args.push(self.var()?);
                        }
                        self.require(&TokenKind::RParen)?;
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
                TokenKind::Ident(name) => {
                    // Aggregate call: count() / sum($t) / ...
                    let func = match AggName::parse(name) {
                        Some(f) => f,
                        None => {
                            return self.err(format!(
                                "unknown aggregate {:?} in template (expected \
                                 count/sum/min/max/avg/collect)",
                                name
                            ));
                        }
                    };
                    self.bump();
                    self.require(&TokenKind::LParen)?;
                    let var = if self.peek() == &TokenKind::RParen {
                        None
                    } else {
                        Some(self.var()?)
                    };
                    self.require(&TokenKind::RParen)?;
                    if func != AggName::Count && var.is_none() {
                        return self.err(format!("{:?} requires an argument", func));
                    }
                    children.push(TemplateNode::Agg { func, var });
                }
                TokenKind::LBrace => {
                    // Optional braces around a subquery for readability.
                    self.bump();
                    children.push(TemplateNode::Subquery(Box::new(self.query()?)));
                    self.require(&TokenKind::RBrace)?;
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
                    self.require(&TokenKind::Gt)?;
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
        if let Some(value) = self.peek().literal() {
            self.last_literal = self.tokens[self.pos].span.clone();
            self.bump();
            return Ok(Expr::Lit(value));
        }
        match *self.peek() {
            TokenKind::Var(_) => Ok(Expr::Var(self.bump_text())),
            TokenKind::Ident(_) => {
                let name = self.bump_text();
                self.require(&TokenKind::LParen)?;
                let mut args = Vec::new();
                if self.peek() != &TokenKind::RParen {
                    args.push(self.or_expr()?);
                    while self.eat(&TokenKind::Comma) {
                        args.push(self.or_expr()?);
                    }
                }
                self.require(&TokenKind::RParen)?;
                Ok(Expr::Call(name, args))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.or_expr()?;
                self.require(&TokenKind::RParen)?;
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

    // ---- the shape key, cut from the tokens and from the parse ----

    /// `lex_keyed(text)`, checked against the parser's cut.
    fn lexed(text: &str) -> (String, Vec<Atomic>) {
        let lexed = lex_keyed(text).unwrap();
        assert_eq!(lexed, parse_keyed(text).unwrap().1, "{}", text);
        (lexed.key.into_owned(), lexed.params)
    }

    const LOOKUP: &str = r#"WHERE <row><id>$i</id><n>$n</n></row> IN "t", COND CONSTRUCT <o>$n</o>"#;

    #[test]
    fn the_lexer_cuts_each_literal_form_as_the_parser_does() {
        use Atomic::*;
        let cases: [(&str, &str, Vec<Atomic>); 12] = [
            ("$i = 42", "$i = ?int", vec![Int(42)]),
            ("$i = 42.0", "$i = ?float", vec![Float(42.0)]),
            // Text that reads as a number is no parameter.
            (r#"$i = "42""#, r#"$i = "42""#, vec![]),
            ("42 = $i", "?int = $i", vec![Int(42)]),
            ("$i = -42", "$i = ?int", vec![Int(-42)]),
            // A sign apart from its digits is an expression.
            ("$i = - 42", "$i = - 42", vec![]),
            ("$i = true", "$i = ?bool", vec![Bool(true)]),
            ("$i = null", "$i = null", vec![]),
            (r#"$n = "say \"hi\"""#, "$n = ?str", vec![Str(r#"say "hi""#.into())]),
            ("$n = 'x', $i = 7", "$n = ?str, $i = ?int", vec![Str("x".into()), Int(7)]),
            // Only a whole condition is one.
            ("$i = 4 AND $n = 5, NOT $i = 3", "$i = 4 AND $n = 5, NOT $i = 3", vec![]),
            ("$i > 300, f(1, $i = 3, 2)", "$i > 300, f(1, $i = 3, 2)", vec![]),
        ];
        for (cond, key, params) in cases {
            let got = lexed(&LOOKUP.replace("COND", cond));
            assert_eq!(got, (LOOKUP.replace("COND", key), params), "{}", cond);
        }
    }

    #[test]
    fn the_lexer_keeps_what_is_no_top_level_parameter() {
        // A range keeps its bound: 300 and 3 are two keys.
        let (a, b) = (LOOKUP.replace("COND", "$i > 300"), LOOKUP.replace("COND", "$i > 3"));
        assert_ne!(lexed(&a).0, lexed(&b).0);
        assert!(matches!(lex_keyed(&a).unwrap().key, Cow::Borrowed(_)));
        // A nested subquery keeps its literals.
        let nested = r#"WHERE <a>$x</a> ELEMENT_AS $e IN "top", $x = 1
               CONSTRUCT <o>WHERE <b>$y</b> IN $e, $y = 5 CONSTRUCT <i>$y</i></o>"#;
        let (key, params) = lexed(nested);
        assert_eq!(params, vec![Atomic::Int(1)]);
        assert!(key.contains("$x = ?int") && key.contains("$y = 5"), "{}", key);
        // Other whitespace is another key, each cut alike.
        let spaced = [("$i=42", "$i=?int"), ("$i =\n   42", "$i =\n   ?int"), ("\t42\t=\t$i", "\t?int\t=\t$i")];
        for (cond, key) in spaced {
            let got = lexed(&LOOKUP.replace("COND", cond));
            assert_eq!(got, (LOOKUP.replace("COND", key), vec![Atomic::Int(42)]));
        }
    }

    #[test]
    fn a_condition_wrapped_whole_in_parentheses_is_cut_alike() {
        let cases = [
            ("($i = 42)", "($i = ?int)"),
            ("(( 42 = $i ))", "(( ?int = $i ))"),
            ("($n = 'x'), ($i = -7)", "($n = ?str), ($i = ?int)"),
        ];
        for (cond, key) in cases {
            let (got, params) = lexed(&LOOKUP.replace("COND", cond));
            assert_eq!(got, LOOKUP.replace("COND", key), "{}", cond);
            assert_eq!(params.len(), key.matches('?').count(), "{}", cond);
        }
        // Parentheses that wrap more than the condition keep it whole.
        for cond in ["($i = 4) AND ($n = 5)", "($i = 4 AND $n = 5)", "NOT ($i = 3)"] {
            let text = LOOKUP.replace("COND", cond);
            assert_eq!(lexed(&text), (text.clone(), vec![]), "{}", cond);
        }
    }

    #[test]
    fn the_two_cuts_differ_only_where_the_parser_sees_through_parentheses() {
        // The parser lifts a parenthesized operand; the lexer's cut reads
        // a parameter's three tokens only bare or wrapped whole.
        for (cond, parsed_key) in [("($i) = 42", "($i) = ?int"), ("$i = (42)", "$i = (?int)")] {
            let text = LOOKUP.replace("COND", cond);
            let lexed = lex_keyed(&text).unwrap();
            let (_, parsed) = parse_keyed(&text).unwrap();
            assert_eq!((lexed.key.as_ref(), lexed.params.len()), (text.as_str(), 0));
            assert_eq!(parsed.key, LOOKUP.replace("COND", parsed_key));
        }
        // Neither cut reads what does not lex.
        assert_eq!(lex_keyed("WHERE $i = ?int").unwrap_err(), parse_keyed("WHERE $i = ?int").unwrap_err());
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
