//! Tokenizer for the XML-QL dialect.
//!
//! The language mixes tag-like syntax (`<book year=$y>`) with expression
//! syntax (`$y > 1995`), so `<` is ambiguous: after a tag context it is a
//! comparison, before an identifier at a condition boundary it opens a
//! pattern. The lexer stays context-free by emitting `Lt` for every bare
//! `<` and letting the parser decide; the compound tokens `</`, `/>`,
//! `<=` are resolved here.

use std::fmt;

/// A token with its position (line, column).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: usize,
    pub col: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
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
    Ident(String),
    Var(String),
    Str(String),
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

impl fmt::Display for TokenKind {
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

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Lexer {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
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
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer {
        chars: input.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut tokens = Vec::new();

    while let Some(ch) = lx.peek() {
        let (l, c) = (lx.line, lx.col);
        // After an operand a `-` subtracts; anywhere else, before a
        // digit, it is that number's sign.
        let after_operand = ch == '-'
            && matches!(
                tokens.last().map(|t: &Token| &t.kind),
                Some(
                    TokenKind::Var(_)
                        | TokenKind::Int(_)
                        | TokenKind::Float(_)
                        | TokenKind::Str(_)
                        | TokenKind::Ident(_)
                        | TokenKind::RParen
                )
            );
        let mut push = |kind: TokenKind| {
            tokens.push(Token {
                kind,
                line: l,
                col: c,
            })
        };
        match ch {
            ' ' | '\t' | '\r' | '\n' => {
                lx.bump();
            }
            '#' => {
                while lx.peek().is_some_and(|d| d != '\n') {
                    lx.bump();
                }
            }
            '<' => {
                lx.bump();
                match lx.peek() {
                    Some('/') => {
                        lx.bump();
                        push(TokenKind::LtSlash);
                    }
                    Some('=') => {
                        lx.bump();
                        push(TokenKind::Le);
                    }
                    Some('>') => {
                        lx.bump();
                        push(TokenKind::Ne);
                    }
                    _ => push(TokenKind::Lt),
                }
            }
            '>' => {
                lx.bump();
                if lx.peek() == Some('=') {
                    lx.bump();
                    push(TokenKind::Ge);
                } else {
                    push(TokenKind::Gt);
                }
            }
            '/' => {
                lx.bump();
                match lx.peek() {
                    Some('>') => {
                        lx.bump();
                        push(TokenKind::SlashGt);
                    }
                    Some('/') => {
                        lx.bump();
                        push(TokenKind::SlashSlash);
                    }
                    _ => push(TokenKind::Slash),
                }
            }
            '!' => {
                lx.bump();
                if lx.peek() == Some('=') {
                    lx.bump();
                    push(TokenKind::Ne);
                } else {
                    return Err(lx.err("unexpected '!'", l, c));
                }
            }
            '=' => {
                lx.bump();
                push(TokenKind::Eq);
            }
            '+' => {
                lx.bump();
                push(TokenKind::Plus);
            }
            '-' if after_operand || !lx.peek2().is_some_and(|d| d.is_ascii_digit()) => {
                lx.bump();
                push(TokenKind::Minus);
            }
            '*' => {
                lx.bump();
                push(TokenKind::StarTok);
            }
            '%' => {
                lx.bump();
                push(TokenKind::Percent);
            }
            ',' => {
                lx.bump();
                push(TokenKind::Comma);
            }
            '(' => {
                lx.bump();
                push(TokenKind::LParen);
            }
            ')' => {
                lx.bump();
                push(TokenKind::RParen);
            }
            '{' => {
                lx.bump();
                push(TokenKind::LBrace);
            }
            '}' => {
                lx.bump();
                push(TokenKind::RBrace);
            }
            '$' => {
                lx.bump();
                let mut name = String::new();
                while lx.peek().is_some_and(is_ident_char) {
                    name.push(lx.bump().unwrap());
                }
                if name.is_empty() {
                    return Err(lx.err("expected variable name after '$'", l, c));
                }
                push(TokenKind::Var(name));
            }
            quote @ ('"' | '\'') => {
                lx.bump();
                let mut s = String::new();
                loop {
                    match lx.peek() {
                        None => return Err(lx.err("unterminated string literal", l, c)),
                        Some(d) if d == quote => {
                            lx.bump();
                            break;
                        }
                        Some('\\') => {
                            lx.bump();
                            match lx.bump() {
                                None => return Err(lx.err("dangling escape", l, c)),
                                Some('n') => s.push('\n'),
                                Some('t') => s.push('\t'),
                                Some(other) => s.push(other),
                            }
                        }
                        Some(d) => {
                            s.push(d);
                            lx.bump();
                        }
                    }
                }
                push(TokenKind::Str(s));
            }
            // A sign is lexed with its digits — magnitude first would
            // leave `i64::MIN` without a spelling.
            d if d == '-' || d.is_ascii_digit() => {
                let mut text = String::from(d);
                lx.bump();
                while lx.peek().is_some_and(|x| x.is_ascii_digit()) {
                    text.push(lx.bump().unwrap());
                }
                let mut is_float = false;
                if lx.peek() == Some('.') && lx.peek2().is_some_and(|x| x.is_ascii_digit()) {
                    is_float = true;
                    text.push(lx.bump().unwrap());
                    while lx.peek().is_some_and(|x| x.is_ascii_digit()) {
                        text.push(lx.bump().unwrap());
                    }
                }
                if is_float {
                    push(TokenKind::Float(text.parse().unwrap()));
                } else {
                    match text.parse() {
                        Ok(i) => push(TokenKind::Int(i)),
                        Err(_) => return Err(lx.err("integer literal overflows i64", l, c)),
                    }
                }
            }
            a if is_ident_start(a) => {
                let mut word = String::new();
                while lx.peek().is_some_and(is_ident_char) {
                    word.push(lx.bump().unwrap());
                }
                push(keyword(&word).unwrap_or(TokenKind::Ident(word)));
            }
            other => {
                return Err(lx.err(format!("unexpected character {:?}", other), l, c));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line: lx.line,
        col: lx.col,
    });
    Ok(tokens)
}

/// The keyword `word` spells, in any case.
fn keyword(word: &str) -> Option<TokenKind> {
    const KEYWORDS: [(&str, TokenKind); 12] = [
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

    fn kinds(input: &str) -> Vec<TokenKind> {
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
