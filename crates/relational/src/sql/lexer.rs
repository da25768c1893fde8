//! SQL tokenizer.

use crate::error::SqlError;

/// SQL tokens. A keyword and an identifier are both a `Word`, carried as
/// written; the parser compares keywords case-insensitively in place.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlToken {
    /// A keyword or identifier in its original spelling (identifiers keep
    /// their case).
    Word(String),
    Str(String),
    Int(i64),
    Float(f64),
    /// `?` — a slot a prepared statement leaves open for a bound value.
    Question,
    Comma,
    Dot,
    Star,
    LParen,
    RParen,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Slash,
    Eof,
}

/// Tokenize a SQL string. Every delimiter is ASCII, so the scan runs over
/// bytes and slices the input at delimiter positions; only a non-ASCII
/// byte outside a quoted run is decoded, to ask whether it may spell an
/// identifier.
pub fn tokenize_sql(input: &str) -> Result<Vec<SqlToken>, SqlError> {
    let bytes = input.as_bytes();
    let at = |i: usize| bytes.get(i).copied();
    // The character starting at byte `i` (a char boundary) and its width.
    let char_at = |i: usize| input[i..].chars().next().map(|c| (c, c.len_utf8()));
    let mut i = 0;
    // SQL runs near three bytes a token (`t.id = 7,`): sized so that a
    // statement's tokens are allocated once, not regrown as they arrive.
    let mut out = Vec::with_capacity(input.len() / 3 + 2);
    let single = |t: SqlToken, out: &mut Vec<SqlToken>, i: &mut usize| {
        out.push(t);
        *i += 1;
    };
    while let Some(b) = at(i) {
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if at(i + 1) == Some(b'-') => {
                // SQL line comment.
                while at(i).is_some_and(|c| c != b'\n') {
                    i += 1;
                }
            }
            b',' => single(SqlToken::Comma, &mut out, &mut i),
            b'.' => single(SqlToken::Dot, &mut out, &mut i),
            b'*' => single(SqlToken::Star, &mut out, &mut i),
            b'(' => single(SqlToken::LParen, &mut out, &mut i),
            b')' => single(SqlToken::RParen, &mut out, &mut i),
            b'+' => single(SqlToken::Plus, &mut out, &mut i),
            b'-' => single(SqlToken::Minus, &mut out, &mut i),
            b'/' => single(SqlToken::Slash, &mut out, &mut i),
            b'=' => single(SqlToken::Eq, &mut out, &mut i),
            b'?' => single(SqlToken::Question, &mut out, &mut i),
            b'!' if at(i + 1) == Some(b'=') => {
                out.push(SqlToken::Ne);
                i += 2;
            }
            b'<' => match at(i + 1) {
                Some(b'=') => {
                    out.push(SqlToken::Le);
                    i += 2;
                }
                Some(b'>') => {
                    out.push(SqlToken::Ne);
                    i += 2;
                }
                _ => single(SqlToken::Lt, &mut out, &mut i),
            },
            b'>' => match at(i + 1) {
                Some(b'=') => {
                    out.push(SqlToken::Ge);
                    i += 2;
                }
                _ => single(SqlToken::Gt, &mut out, &mut i),
            },
            b'\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    let start = i;
                    while at(i).is_some_and(|c| c != b'\'') {
                        i += 1;
                    }
                    if at(i).is_none() {
                        return Err(SqlError::new("unterminated string literal"));
                    }
                    s.push_str(&input[start..i]);
                    i += 1;
                    if at(i) != Some(b'\'') {
                        break;
                    }
                    // Doubled quote escapes a quote, SQL style.
                    s.push('\'');
                    i += 1;
                }
                out.push(SqlToken::Str(s));
            }
            b'"' => {
                // Quoted identifier.
                let start = i + 1;
                i = start;
                while at(i).is_some_and(|c| c != b'"') {
                    i += 1;
                }
                if at(i).is_none() {
                    return Err(SqlError::new("unterminated quoted identifier"));
                }
                out.push(SqlToken::Word(input[start..i].to_string()));
                i += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while at(i).is_some_and(|c| c.is_ascii_digit()) {
                    i += 1;
                }
                let is_float =
                    at(i) == Some(b'.') && at(i + 1).is_some_and(|c| c.is_ascii_digit());
                if is_float {
                    i += 1;
                    while at(i).is_some_and(|c| c.is_ascii_digit()) {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                out.push(if is_float {
                    SqlToken::Float(text.parse().map_err(|_| {
                        SqlError::new(format!("bad float literal {}", text))
                    })?)
                } else {
                    SqlToken::Int(text.parse().map_err(|_| {
                        SqlError::new(format!("integer literal {} overflows i64", text))
                    })?)
                });
            }
            _ => {
                let start = i;
                loop {
                    let (fits, width) = match at(i) {
                        Some(c) if c.is_ascii() => {
                            let letter = c.is_ascii_alphabetic() || c == b'_';
                            (letter || (i > start && c.is_ascii_digit()), 1)
                        }
                        Some(_) => char_at(i).map_or((false, 0), |(c, width)| {
                            let fits = if i == start {
                                c.is_alphabetic()
                            } else {
                                c.is_alphanumeric()
                            };
                            (fits, width)
                        }),
                        None => (false, 0),
                    };
                    if !fits {
                        break;
                    }
                    i += width;
                }
                if i == start {
                    return Err(SqlError::new(format!(
                        "unexpected character {:?} in SQL",
                        char_at(i).map_or('\u{fffd}', |(c, _)| c)
                    )));
                }
                out.push(SqlToken::Word(input[start..i].to_string()));
            }
        }
    }
    out.push(SqlToken::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_identifiers() {
        let toks = tokenize_sql("SELECT name FROM People").unwrap();
        match &toks[0] {
            SqlToken::Word(raw) => assert_eq!(raw, "SELECT"),
            other => panic!("{:?}", other),
        }
        match &toks[3] {
            SqlToken::Word(raw) => assert_eq!(raw, "People"),
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn strings_with_doubled_quotes() {
        let toks = tokenize_sql("'it''s'").unwrap();
        assert_eq!(toks[0], SqlToken::Str("it's".into()));
    }

    #[test]
    fn comparison_tokens() {
        let toks = tokenize_sql("<= >= <> != < >").unwrap();
        assert_eq!(
            &toks[..6],
            &[
                SqlToken::Le,
                SqlToken::Ge,
                SqlToken::Ne,
                SqlToken::Ne,
                SqlToken::Lt,
                SqlToken::Gt
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize_sql("SELECT -- everything\n1").unwrap();
        assert_eq!(toks.len(), 3);
    }
}
