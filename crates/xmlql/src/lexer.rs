//! Tokenizer for the XML-QL dialect.
//!
//! The language mixes tag-like syntax (`<book year=$y>`) with expression
//! syntax (`$y > 1995`), so `<` is ambiguous: after a tag context it is a
//! comparison, before an identifier at a condition boundary it opens a
//! pattern. The lexer stays context-free by emitting `Lt` for every bare
//! `<` and letting the parser decide; the compound tokens `</`, `/>`,
//! `<=` are resolved here.

use nimble_xml::Atomic;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// A token with its position (line, column) and its byte span in the
/// input.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub span: Range<usize>,
    pub line: usize,
    pub col: usize,
}

/// What a token is. Names and variables borrow their spelling from the
/// input; a string literal does too unless it holds an escape.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    // Keywords (case-insensitive in source).
    Where,
    In,
    Construct,
    OrderBy,
    ElementAs,
    ContentAs,
    And,
    Or,
    Not,
    Like,
    Asc,
    Desc,
    // Identifiers & literals.
    Ident(&'a str),
    Var(&'a str),
    Str(Cow<'a, str>),
    Int(i64),
    Float(f64),
    // Punctuation.
    Lt,         // <
    Gt,         // >
    LtSlash,    // </
    SlashGt,    // />
    Le,         // <=
    Ge,         // >=
    Eq,         // =
    Ne,         // != or <>
    Plus,
    Minus,
    StarTok,    // *
    Slash,      // /
    SlashSlash, // //
    Percent,
    Comma,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Eof,
}

impl TokenKind<'_> {
    /// The value a literal token spells in an expression: a number, a
    /// string, or `true`, `false` or `null`. The one reading of a
    /// literal: the parser's and the plan-cache key cut's
    /// ([`crate::lex_keyed`]).
    pub(crate) fn literal(&self) -> Option<Atomic> {
        match self {
            TokenKind::Int(i) => Some(Atomic::Int(*i)),
            TokenKind::Float(x) => Some(Atomic::Float(*x)),
            TokenKind::Str(s) => Some(Atomic::Str(s.to_string())),
            TokenKind::Ident("true") => Some(Atomic::Bool(true)),
            TokenKind::Ident("false") => Some(Atomic::Bool(false)),
            TokenKind::Ident("null") => Some(Atomic::Null),
            _ => None,
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Where => write!(f, "WHERE"),
            In => write!(f, "IN"),
            Construct => write!(f, "CONSTRUCT"),
            OrderBy => write!(f, "ORDER-BY"),
            ElementAs => write!(f, "ELEMENT_AS"),
            ContentAs => write!(f, "CONTENT_AS"),
            And => write!(f, "AND"),
            Or => write!(f, "OR"),
            Not => write!(f, "NOT"),
            Like => write!(f, "LIKE"),
            Asc => write!(f, "ASC"),
            Desc => write!(f, "DESC"),
            Ident(s) => write!(f, "{}", s),
            Var(s) => write!(f, "${}", s),
            Str(s) => write!(f, "{:?}", s),
            Int(i) => write!(f, "{}", i),
            Float(x) => write!(f, "{}", x),
            Lt => write!(f, "<"),
            Gt => write!(f, ">"),
            LtSlash => write!(f, "</"),
            SlashGt => write!(f, "/>"),
            Le => write!(f, "<="),
            Ge => write!(f, ">="),
            Eq => write!(f, "="),
            Ne => write!(f, "!="),
            Plus => write!(f, "+"),
            Minus => write!(f, "-"),
            StarTok => write!(f, "*"),
            Slash => write!(f, "/"),
            SlashSlash => write!(f, "//"),
            Percent => write!(f, "%"),
            Comma => write!(f, ","),
            LParen => write!(f, "("),
            RParen => write!(f, ")"),
            LBrace => write!(f, "{{"),
            RBrace => write!(f, "}}"),
            Eof => write!(f, "<eof>"),
        }
    }
}

/// A tokenization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub message: String,
    pub line: usize,
    pub col: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}
impl std::error::Error for LexError {}

/// Walks the input's bytes. A position is always at a character
/// boundary; columns count characters.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<char> {
        match *self.src.as_bytes().get(self.pos)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.src.get(self.pos..)?.chars().next(),
        }
    }

    /// Whether the character after the current one is an ASCII digit.
    fn digit_follows(&self) -> bool {
        self.src.as_bytes().get(self.pos + 1).is_some_and(u8::is_ascii_digit)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consume characters while `keep` holds of them; returns the text
    /// consumed.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.bump();
        }
        &self.src[start..self.pos]
    }

    fn err(&self, message: impl Into<String>, line: usize, col: usize) -> LexError {
        LexError {
            message: message.into(),
            line,
            col,
        }
    }
}

/// Tokenize the whole input; the result always ends with `Eof`.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>, LexError> {
    // Every token but `Eof` spans a byte at least, so no text outgrows
    // this while it is lexed: a template is dense with one-byte tokens
    // (`<x>$m</x>` is 7 in 9 bytes).
    let mut tokens: Vec<Token<'_>> = Vec::with_capacity(input.len() + 1);
    for token in tokens_of(input) {
        tokens.push(token?);
    }
    Ok(tokens)
}

/// The input's tokens, lexed one at a time as they are read: the last is
/// `Eof`, or the first error.
pub(crate) fn tokens_of(input: &str) -> Tokens<'_> {
    Tokens {
        lx: Lexer {
            src: input,
            pos: 0,
            line: 1,
            col: 1,
        },
        after_operand: false,
        done: false,
    }
}

/// An iterator over a text's tokens ([`tokens_of`]).
pub(crate) struct Tokens<'a> {
    lx: Lexer<'a>,
    /// Whether the last token was an operand: a `-` after one subtracts.
    after_operand: bool,
    done: bool,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Result<Token<'a>, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let token = self.lex();
        self.done = !matches!(&token, Ok(t) if t.kind != TokenKind::Eof);
        self.after_operand = matches!(
            &token,
            Ok(Token {
                kind: TokenKind::Var(_)
                    | TokenKind::Int(_)
                    | TokenKind::Float(_)
                    | TokenKind::Str(_)
                    | TokenKind::Ident(_)
                    | TokenKind::RParen,
                ..
            })
        );
        Some(token)
    }
}

impl<'a> Tokens<'a> {
    /// The next token: `Eof` at the end of the input.
    fn lex(&mut self) -> Result<Token<'a>, LexError> {
        let lx = &mut self.lx;
        let input = lx.src;
        while let Some(ch) = lx.peek() {
            let (start, l, c) = (lx.pos, lx.line, lx.col);
            // After an operand a `-` subtracts; anywhere else, before a
            // digit, it is that number's sign.
            let after_operand = ch == '-' && self.after_operand;
            // Single-character tokens are consumed here; every arm below
            // that lexes more consumes the rest itself.
            let single = match ch {
                '=' => Some(TokenKind::Eq),
                '+' => Some(TokenKind::Plus),
                '*' => Some(TokenKind::StarTok),
                '%' => Some(TokenKind::Percent),
                ',' => Some(TokenKind::Comma),
                '(' => Some(TokenKind::LParen),
                ')' => Some(TokenKind::RParen),
                '{' => Some(TokenKind::LBrace),
                '}' => Some(TokenKind::RBrace),
                '-' if after_operand || !lx.digit_follows() => Some(TokenKind::Minus),
                _ => None,
            };
            let kind = if let Some(kind) = single {
                lx.bump();
                kind
            } else {
                match ch {
                    ' ' | '\t' | '\r' | '\n' => {
                        lx.bump();
                        continue;
                    }
                    '#' => {
                        lx.take_while(|d| d != '\n');
                        continue;
                    }
                    '<' => {
                        lx.bump();
                        let kind = match lx.peek() {
                            Some('/') => TokenKind::LtSlash,
                            Some('=') => TokenKind::Le,
                            Some('>') => TokenKind::Ne,
                            _ => TokenKind::Lt,
                        };
                        if kind != TokenKind::Lt {
                            lx.bump();
                        }
                        kind
                    }
                    '>' => {
                        lx.bump();
                        if lx.peek() == Some('=') {
                            lx.bump();
                            TokenKind::Ge
                        } else {
                            TokenKind::Gt
                        }
                    }
                    '/' => {
                        lx.bump();
                        let kind = match lx.peek() {
                            Some('>') => TokenKind::SlashGt,
                            Some('/') => TokenKind::SlashSlash,
                            _ => TokenKind::Slash,
                        };
                        if kind != TokenKind::Slash {
                            lx.bump();
                        }
                        kind
                    }
                    '!' => {
                        lx.bump();
                        if lx.peek() != Some('=') {
                            return Err(lx.err("unexpected '!'", l, c));
                        }
                        lx.bump();
                        TokenKind::Ne
                    }
                    '$' => {
                        lx.bump();
                        let name = lx.take_while(is_ident_char);
                        if name.is_empty() {
                            return Err(lx.err("expected variable name after '$'", l, c));
                        }
                        TokenKind::Var(name)
                    }
                    quote @ ('"' | '\'') => {
                        lx.bump();
                        TokenKind::Str(string_body(lx, quote, l, c)?)
                    }
                    // A sign is lexed with its digits — magnitude first would
                    // leave `i64::MIN` without a spelling.
                    d if d == '-' || d.is_ascii_digit() => {
                        lx.bump();
                        lx.take_while(|x| x.is_ascii_digit());
                        let is_float = lx.peek() == Some('.') && lx.digit_follows();
                        if is_float {
                            lx.bump();
                            lx.take_while(|x| x.is_ascii_digit());
                        }
                        let text = &input[start..lx.pos];
                        if is_float {
                            match text.parse() {
                                Ok(x) => TokenKind::Float(x),
                                Err(_) => return Err(lx.err("malformed number", l, c)),
                            }
                        } else {
                            match text.parse() {
                                Ok(i) => TokenKind::Int(i),
                                Err(_) => return Err(lx.err("integer literal overflows i64", l, c)),
                            }
                        }
                    }
                    a if is_ident_start(a) => {
                        let word = lx.take_while(is_ident_char);
                        keyword(word).unwrap_or(TokenKind::Ident(word))
                    }
                    other => {
                        return Err(lx.err(format!("unexpected character {:?}", other), l, c));
                    }
                }
            };
            return Ok(Token {
                kind,
                span: start..lx.pos,
                line: l,
                col: c,
            });
        }
        Ok(Token {
            kind: TokenKind::Eof,
            span: lx.pos..lx.pos,
            line: lx.line,
            col: lx.col,
        })
    }
}

/// The rest of a string literal opened by `quote` at (`line`, `col`),
/// through its closing quote. The text is borrowed from the input
/// unless an escape makes it differ.
fn string_body<'a>(lx: &mut Lexer<'a>, quote: char, line: usize, col: usize) -> Result<Cow<'a, str>, LexError> {
    let src = lx.src;
    // `copied` holds the unescaped text up to `from` once an escape has
    // been met.
    let mut copied: Option<String> = None;
    let mut from = lx.pos;
    loop {
        match lx.peek() {
            None => return Err(lx.err("unterminated string literal", line, col)),
            Some(d) if d == quote => break,
            Some('\\') => {
                let text = copied.get_or_insert_with(String::new);
                text.push_str(&src[from..lx.pos]);
                lx.bump();
                match lx.bump() {
                    None => return Err(lx.err("dangling escape", line, col)),
                    Some('n') => text.push('\n'),
                    Some('t') => text.push('\t'),
                    Some(other) => text.push(other),
                }
                from = lx.pos;
            }
            Some(_) => {
                lx.bump();
            }
        }
    }
    let rest = &src[from..lx.pos];
    lx.bump();
    Ok(match copied {
        None => Cow::Borrowed(rest),
        Some(mut text) => {
            text.push_str(rest);
            Cow::Owned(text)
        }
    })
}

/// The keyword `word` spells, in any case.
fn keyword(word: &str) -> Option<TokenKind<'static>> {
    const KEYWORDS: [(&str, TokenKind<'static>); 12] = [
        ("WHERE", TokenKind::Where),
        ("IN", TokenKind::In),
        ("CONSTRUCT", TokenKind::Construct),
        // ORDER-BY lexes as Ident("ORDER") Minus Ident("BY"); the
        // parser also accepts that three-token spelling.
        ("ORDER_BY", TokenKind::OrderBy),
        ("ELEMENT_AS", TokenKind::ElementAs),
        ("CONTENT_AS", TokenKind::ContentAs),
        ("AND", TokenKind::And),
        ("OR", TokenKind::Or),
        ("NOT", TokenKind::Not),
        ("LIKE", TokenKind::Like),
        ("ASC", TokenKind::Asc),
        ("DESC", TokenKind::Desc),
    ];
    KEYWORDS
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(word))
        .map(|(_, kind)| kind.clone())
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == ':' || c == '.'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_query_tokens() {
        let ks = kinds("WHERE <book year=$y/> IN \"bib\", $y > 1995 CONSTRUCT <r/>");
        assert!(ks.contains(&TokenKind::Where));
        assert!(ks.contains(&TokenKind::Var("y".into())));
        assert!(ks.contains(&TokenKind::Str("bib".into())));
        assert!(ks.contains(&TokenKind::Int(1995)));
        assert!(ks.contains(&TokenKind::SlashGt));
    }

    #[test]
    fn compound_operators() {
        assert_eq!(
            kinds("<= >= != <> </ /> //")[..7],
            [
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::LtSlash,
                TokenKind::SlashGt,
                TokenKind::SlashSlash,
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds(r#""a\"b\n" 'c''d'"#),
            vec![
                TokenKind::Str("a\"b\n".into()),
                TokenKind::Str("c".into()),
                TokenKind::Str("d".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("12 3.5"),
            vec![TokenKind::Int(12), TokenKind::Float(3.5), TokenKind::Eof]
        );
    }

    #[test]
    fn a_sign_is_lexed_with_its_digits_and_a_subtraction_is_not() {
        use TokenKind::*;
        assert_eq!(
            kinds("> -9223372036854775808, -0 (-2.5)"),
            vec![Gt, Int(i64::MIN), Comma, Int(0), LParen, Float(-2.5), RParen, Eof]
        );
        // After an operand, or before anything but a digit, `-` is the
        // operator it was.
        assert_eq!(
            kinds("$a -5 - 5 -$b ORDER-BY"),
            vec![
                Var("a".into()), Minus, Int(5), Minus, Int(5), Minus, Var("b".into()),
                Ident("ORDER".into()), Minus, Ident("BY".into()), Eof
            ]
        );
        assert!(tokenize("-9223372036854775809").is_err());
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("WHERE # a comment\nIN"),
            vec![TokenKind::Where, TokenKind::In, TokenKind::Eof]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            kinds("where construct element_as"),
            vec![
                TokenKind::Where,
                TokenKind::Construct,
                TokenKind::ElementAs,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn variable_with_dots_and_digits() {
        assert_eq!(
            kinds("$a1.b_c"),
            vec![TokenKind::Var("a1.b_c".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn error_positions() {
        let err = tokenize("WHERE\n  ^").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
    }
}
