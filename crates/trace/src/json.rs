//! JSON values: a [`Value`] tree, the [`json!`](crate::json!) builder, a
//! strict RFC 8259 reader and compact/pretty writers.
//!
//! The reader takes text from outside the program (stored cleaning
//! flows, benchmark artifacts, the exporters' own output under test), so
//! it rejects rather than repairs: every error carries the byte offset
//! it was found at, and nesting deeper than [`MAX_DEPTH`] is an error,
//! not a stack overflow. Integers that fit `u64`/`i64` are kept exactly;
//! everything else numeric is an `f64`. Objects are key-sorted maps, so
//! rendered output is deterministic and a repeated key keeps its last
//! value.

use crate::export::json_escape;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON object.
pub type Map = BTreeMap<String, Value>;

/// Deepest array/object nesting [`from_str`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. A number is one of three variants: a non-negative
/// integer is always `UInt` and a negative one always `Int`, so derived
/// equality is numeric equality among integers.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $e
            }
        }
    )*};
}
value_from! {
    bool => |v| Value::Bool(v),
    u64 => |v| Value::UInt(v),
    usize => |v| Value::UInt(v as u64),
    i64 => |v| u64::try_from(v).map_or(Value::Int(v), Value::UInt),
    i32 => |v| i64::from(v).into(),
    f64 => |v| Value::Float(v),
    &str => |v| Value::String(v.to_string()),
    String => |v| Value::String(v),
    Map => |v| Value::Object(v),
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Build a [`Value`](crate::json::Value) from `{ "key": expr, … }`,
/// `[expr, …]`, `null` or any expression with a `From` conversion.
/// Nested literals are spelled as nested `json!` calls.
#[macro_export]
macro_rules! json {
    ({ $($k:tt : $v:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::json::Map::new();
        $( m.insert($k.to_string(), $crate::json::Value::from($v)); )*
        $crate::json::Value::Object(m)
    }};
    ([ $($v:expr),* $(,)? ]) => {
        $crate::json::Value::Array(vec![ $( $crate::json::Value::from($v) ),* ])
    };
    (null) => { $crate::json::Value::Null };
    ($other:expr) => { $crate::json::Value::from($other) };
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
    /// Any number, as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(n) => Some(n as f64),
            Value::Int(n) => Some(n as f64),
            Value::Float(n) => Some(n),
            _ => None,
        }
    }
    /// A non-negative integer (never a float, however round).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            _ => None,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
    }
}
impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

/// `value["key"]`: the member, or `Null` when absent or not an object.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

// ---- writers ---------------------------------------------------------

fn newline(f: &mut dyn fmt::Write, indent: Option<usize>) -> fmt::Result {
    match indent {
        Some(depth) => write!(f, "\n{:width$}", "", width = 2 * depth),
        None => Ok(()),
    }
}

/// An array's or an object's members between `open` and `close`.
fn write_members<'a>(
    f: &mut dyn fmt::Write,
    indent: Option<usize>,
    (open, close): (char, char),
    members: impl ExactSizeIterator<Item = (Option<&'a String>, &'a Value)>,
) -> fmt::Result {
    f.write_char(open)?;
    let (inner, empty) = (indent.map(|d| d + 1), members.len() == 0);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            f.write_char(',')?;
        }
        newline(f, inner)?;
        if let Some(key) = key {
            let space = if indent.is_some() { " " } else { "" };
            write!(f, "\"{}\":{}", json_escape(key), space)?;
        }
        value.write(f, inner)?;
    }
    if !empty {
        newline(f, indent)?;
    }
    f.write_char(close)
}

impl Value {
    /// `indent: None` is the compact form; `Some(depth)` the pretty one
    /// (two spaces a level, `": "` after keys, `[]`/`{}` when empty).
    fn write(&self, f: &mut dyn fmt::Write, indent: Option<usize>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{}", b),
            Value::UInt(n) => write!(f, "{}", n),
            Value::Int(n) => write!(f, "{}", n),
            // `{:?}` keeps the `.0` of a round float, so a float reads
            // back as a float. NaN/∞ have no JSON spelling.
            Value::Float(n) if n.is_finite() => write!(f, "{:?}", n),
            Value::Float(_) => f.write_str("null"),
            Value::String(s) => write!(f, "\"{}\"", json_escape(s)),
            Value::Array(a) => write_members(f, indent, ('[', ']'), a.iter().map(|v| (None, v))),
            Value::Object(m) => {
                write_members(f, indent, ('{', '}'), m.iter().map(|(k, v)| (Some(k), v)))
            }
        }
    }

    /// The pretty form, starting `depth` levels in (the first line is
    /// not indented — it continues whatever the caller wrote).
    pub fn to_pretty_at(&self, depth: usize) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, Some(depth));
        out
    }
}

/// The compact form: no whitespace at all.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

/// Two-space-indented rendering.
pub fn to_string_pretty(v: &Value) -> String {
    v.to_pretty_at(0)
}

// ---- reader ----------------------------------------------------------

/// Why, and at which byte of the input, a document was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    pub offset: usize,
    pub message: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}
impl std::error::Error for Error {}

/// Parse one JSON document; anything but whitespace after it is an error.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut r = Reader { text, at: 0 };
    let v = r.value(0)?;
    match r.peek_past_ws() {
        None => Ok(v),
        Some(_) => r.fail("trailing characters"),
    }
}

struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn fail<T>(&self, message: &'static str) -> Result<T, Error> {
        let offset = self.at;
        Err(Error { offset, message })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn peek_past_ws(&mut self) -> Option<u8> {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
        self.peek()
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek_past_ws() {
            None => self.fail("unexpected end of input"),
            Some(b'{' | b'[') if depth == MAX_DEPTH => self.fail("nesting too deep"),
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |r| {
                    items.push(r.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members = Map::new();
                self.members(b'}', |r| {
                    if r.peek_past_ws() != Some(b'"') {
                        return r.fail("expected a string key");
                    }
                    let key = r.string()?;
                    if r.peek_past_ws() != Some(b':') {
                        return r.fail("expected ':'");
                    }
                    r.at += 1;
                    members.insert(key, r.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("expected a value"),
        }
    }

    /// The comma-separated members from the opening bracket under the
    /// cursor to `close`; `member` reads one.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.at += 1;
        if self.peek_past_ws() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            match self.peek_past_ws() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return self.fail("expected ',' or the closing bracket"),
            }
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if !self.text[self.at..].starts_with(word) {
            return self.fail("expected a value");
        }
        self.at += word.len();
        Ok(v)
    }

    fn digits(&mut self) -> Result<(), Error> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return self.fail("expected a digit");
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        if self.peek() == Some(b'0') {
            self.at += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.fail("leading zero");
            }
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.at];
        // "-0" is the float negative zero; an integer too long for 64
        // bits falls through to the nearest float.
        if integral && text != "-0" {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Float(n)),
            _ => {
                self.at = start;
                self.fail("number out of range")
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.text.as_bytes().get(self.at..self.at + 4);
        let code = digits
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok());
        match code {
            Some(code) => {
                self.at += 4;
                Ok(code)
            }
            None => self.fail("expected four hex digits"),
        }
    }

    /// The string starting at the opening quote under the cursor.
    fn string(&mut self) -> Result<String, Error> {
        self.at += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole; the input is a `&str`, so it is valid UTF-8.
            let run = self.at;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return self.fail("raw control character in string"),
            }
        }
    }

    /// The character the escape under the cursor stands for.
    fn escape(&mut self) -> Result<char, Error> {
        let start = self.at;
        self.at += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.at += 1;
                return self.code_point(start);
            }
            Some(_) => return self.fail("unknown escape"),
            None => return self.fail("unterminated string"),
        };
        self.at += 1;
        Ok(c)
    }

    /// The code point of the `\uXXXX` that began at `start`, its digits
    /// under the cursor. A high surrogate must be followed by an escaped
    /// low one.
    fn code_point(&mut self, start: usize) -> Result<char, Error> {
        let mut code = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&code) && self.text[self.at..].starts_with("\\u") {
            self.at += 2;
            let low = self.hex4()?;
            if (0xDC00..=0xDFFF).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // What is still a surrogate here had no partner.
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => {
                self.at = start;
                self.fail("lone surrogate")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_documents_are_rejected_at_an_offset() {
        // (input, byte offset the error points at)
        let cases: &[(&str, usize)] = &[
            ("", 0),
            ("   ", 3),
            ("nul", 0),
            ("True", 0),
            ("tru e", 0),
            ("'a'", 0),
            ("[1,]", 3),
            ("[,1]", 1),
            ("[1 2]", 3),
            ("[1", 2),
            ("{\"a\":1,}", 7),
            ("{\"a\" 1}", 5),
            ("{\"a\":}", 5),
            ("{a:1}", 1),
            ("{1:1}", 1),
            ("{\"a\":1", 6),
            ("{\"a\":1 \"b\":2}", 7),
            ("[] []", 3),
            ("1 2", 2),
            ("{} x", 3),
            ("01", 1),
            ("-01", 2),
            ("+1", 0),
            (".5", 0),
            ("1.", 2),
            ("1.e3", 2),
            ("1e", 2),
            ("1e+", 3),
            ("-", 1),
            ("--1", 1),
            ("0x10", 1),
            ("1e999", 0),
            ("NaN", 0),
            ("Infinity", 0),
            ("\"abc", 4),
            ("\"a\nb\"", 2),
            ("\"a\tb\"", 2),
            ("\"\u{1}\"", 1),
            ("\"\\x41\"", 2),
            ("\"\\", 2),
            ("\"\\u12\"", 3),
            ("\"\\u12g4\"", 3),
            ("\"\\ud83d\"", 1),
            ("\"\\ud83d\\n\"", 1),
            ("\"\\ud83d\\u0041\"", 1),
            ("\"\\ude00\"", 1),
            ("[\"a\" \"b\"]", 5),
            ("\u{feff}1", 0),
        ];
        assert!(cases.len() >= 30);
        for (input, offset) in cases {
            match from_str(input) {
                Ok(v) => panic!("{:?} parsed as {}", input, v),
                Err(e) => assert_eq!(e.offset, *offset, "{:?}: {}", input, e),
            }
        }
    }

    #[test]
    fn well_formed_documents_read_to_the_expected_value() {
        let cases: Vec<(&str, Value)> = vec![
            ("null", Value::Null),
            (" true ", json!(true)),
            ("false", json!(false)),
            ("0", json!(0)),
            ("-0", json!(-0.0)),
            ("-7", json!(-7)),
            ("18446744073709551615", json!(u64::MAX)),
            ("-9223372036854775808", json!(i64::MIN)),
            ("9007199254740993", json!(9007199254740993u64)),
            ("18446744073709551616", json!(18446744073709551616.0)),
            ("1.5", json!(1.5)),
            ("1.0", json!(1.0)),
            ("-2.5e-3", json!(-0.0025)),
            ("1E2", json!(100.0)),
            ("\"\"", json!("")),
            (r#""a\"b\\c\/d\b\f\n\r\t""#, json!("a\"b\\c/d\u{8}\u{c}\n\r\t")),
            (r#""\u00e9\u4e2d""#, json!("é中")),
            (r#""\ud83d\ude00""#, json!("😀")),
            ("\"é中😀\u{7f}\"", json!("é中😀\u{7f}")),
            ("[]", json!([])),
            ("{}", json!({})),
            (" [ 1 , [ 2 , [ ] ] , { } ] ", json!([1, json!([2, json!([])]), json!({})])),
            (
                r#"{"b": [true, null], "a": {"x": -1}, "a\u0062": ""}"#,
                json!({"a": json!({"x": -1}), "ab": "", "b": json!([true, json!(null)])}),
            ),
            (r#"{"k": 1, "k": 2}"#, json!({"k": 2})),
            ("\t\r\n 3 \t\r\n", json!(3)),
        ];
        assert!(cases.len() >= 15);
        for (input, want) in &cases {
            let got = from_str(input).unwrap_or_else(|e| panic!("{:?}: {}", input, e));
            assert_eq!(&got, want, "{:?}", input);
            // Both renderings read back to the same value.
            assert_eq!(&from_str(&got.to_string()).unwrap(), want, "{}", got);
            assert_eq!(&from_str(&to_string_pretty(&got)).unwrap(), want, "{}", got);
        }
        // Integers keep every bit; a float stays a float, however round.
        let big = from_str("9007199254740993").unwrap();
        assert_eq!(big.as_u64(), Some(9007199254740993));
        assert_eq!(big.to_string(), "9007199254740993");
        assert_eq!(json!(i64::MIN).to_string(), "-9223372036854775808");
        assert_eq!(json!(1.0).to_string(), "1.0");
        assert_eq!(json!(f64::NAN).to_string(), "null");
        assert_eq!(from_str("1.0").unwrap().as_u64(), None);
        assert_eq!(from_str("1").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn nesting_is_bounded_not_recursed() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&deep(MAX_DEPTH)).is_ok());
        let too_deep = from_str(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((too_deep.offset, too_deep.message), (MAX_DEPTH, "nesting too deep"));
        // The bomb: 100 000 unclosed arrays (and objects) deep.
        assert_eq!(from_str(&"[".repeat(100_000)).unwrap_err().offset, MAX_DEPTH);
        assert_eq!(from_str(&"{\"a\":".repeat(100_000)).unwrap_err().offset, 5 * MAX_DEPTH);
    }

    #[test]
    fn pretty_form_is_two_space_indented_and_compact_form_has_no_spaces() {
        let v = json!({"a": json!([1, json!({"b": "x\ny"})]), "e": json!([]), "o": json!({})});
        assert_eq!(v.to_string(), r#"{"a":[1,{"b":"x\ny"}],"e":[],"o":{}}"#);
        assert_eq!(
            to_string_pretty(&v),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"x\\ny\"\n    }\n  ],\n  \"e\": [],\n  \"o\": {}\n}"
        );
        assert_eq!(v["a"].as_array().unwrap()[1]["b"], "x\ny");
        assert_eq!(v["missing"]["deeper"], Value::Null);
    }
}
