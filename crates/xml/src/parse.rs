//! A from-scratch XML 1.0 parser (no external crates).
//!
//! Supports the subset a data-integration engine meets in practice:
//! elements, attributes (single- or double-quoted), character data,
//! comments, processing instructions, CDATA sections, the five predefined
//! entities plus numeric character references, an optional XML declaration,
//! and a skipped DOCTYPE. Errors carry line/column positions.

use crate::atomic::Atomic;
use crate::build::DocumentBuilder;
use crate::node::Document;
use std::fmt;
use std::sync::Arc;

/// A parse failure with its position in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub line: usize,
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete XML document from a string.
pub fn parse(input: &str) -> Result<Arc<Document>, ParseError> {
    Parser::new(input).parse_document()
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line,
            column: self.col,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn consume(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.consume(s) {
            Ok(())
        } else {
            self.err(format!("expected {:?}", s))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn parse_document(&mut self) -> Result<Arc<Document>, ParseError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            self.skip_until("?>")?;
        }
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_comment_text()?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else {
                break;
            }
        }
        self.skip_ws();
        if self.peek() != Some(b'<') {
            return self.err("expected root element");
        }
        let root_name = self.peek_element_name()?;
        // Every node but character data costs a `<`, and an element with
        // content two, so outside mixed content the count of `<` bounds
        // the node count from above (by under 2x): size the table once.
        let nodes = self.input[self.pos..].iter().filter(|&&b| b == b'<').count();
        let mut builder = DocumentBuilder::with_capacity(&root_name, nodes);
        self.parse_element_into(&mut builder, true)?;
        self.skip_ws();
        // Trailing comments/PIs are permitted and discarded.
        while self.starts_with("<!--") || self.starts_with("<?") {
            if self.starts_with("<!--") {
                self.skip_comment_text()?;
            } else {
                self.skip_until("?>")?;
            }
            self.skip_ws();
        }
        if self.pos != self.input.len() {
            return self.err("content after document root");
        }
        Ok(builder.finish())
    }

    /// Read the tag name of the element starting at the cursor without
    /// consuming anything.
    fn peek_element_name(&self) -> Result<String, ParseError> {
        let rest = &self.input[self.pos..];
        if rest.first() != Some(&b'<') {
            return Err(ParseError {
                message: "expected element".into(),
                line: self.line,
                column: self.col,
            });
        }
        let mut end = 1;
        while end < rest.len() && is_name_char(rest[end]) {
            end += 1;
        }
        if end == 1 {
            return Err(ParseError {
                message: "empty element name".into(),
                line: self.line,
                column: self.col,
            });
        }
        Ok(String::from_utf8_lossy(&rest[1..end]).into_owned())
    }

    /// Parse the element at the cursor. When `is_root` the builder's root
    /// was already created with the element's name; we still consume the
    /// tag, attributes, and content.
    fn parse_element_into(
        &mut self,
        b: &mut DocumentBuilder,
        is_root: bool,
    ) -> Result<(), ParseError> {
        self.expect("<")?;
        let name = self.parse_name()?;
        if !is_root {
            b.start_element(&name);
        }
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.bump();
                    self.expect(">")?;
                    if !is_root {
                        b.end_element();
                    }
                    return Ok(());
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(c) if is_name_start(c) => {
                    let (k, v) = self.parse_attribute()?;
                    b.attr(&k, &v);
                }
                _ => return self.err("malformed start tag"),
            }
        }
        // Content until the matching end tag.
        loop {
            match self.peek() {
                None => return self.err(format!("unexpected end of input inside <{}>", name)),
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.consume("</");
                        let end_name = self.parse_name()?;
                        if end_name != name {
                            return self.err(format!(
                                "mismatched end tag: expected </{}>, found </{}>",
                                name, end_name
                            ));
                        }
                        self.skip_ws();
                        self.expect(">")?;
                        if !is_root {
                            b.end_element();
                        }
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        let text = self.parse_comment_text()?;
                        b.comment(&text);
                    } else if self.starts_with("<![CDATA[") {
                        let text = self.parse_cdata()?;
                        b.text(Atomic::Sym(crate::intern::Sym::intern(&text)));
                    } else if self.starts_with("<?") {
                        let (target, data) = self.parse_pi()?;
                        b.pi(&target, &data);
                    } else {
                        self.parse_element_into(b, false)?;
                    }
                }
                Some(_) => {
                    let text = self.parse_char_data()?;
                    // Whitespace-only runs between elements are dropped, a
                    // pragmatic default for data-oriented XML. Mixed content
                    // with real text is preserved verbatim.
                    if !text.trim().is_empty() {
                        b.text(Atomic::Sym(crate::intern::Sym::intern(&text)));
                    }
                }
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.bump();
            }
            _ => return self.err("expected name"),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.bump();
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn parse_attribute(&mut self) -> Result<(String, String), ParseError> {
        let name = self.parse_name()?;
        self.skip_ws();
        self.expect("=")?;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump();
                q
            }
            _ => return self.err("expected quoted attribute value"),
        };
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated attribute value"),
                Some(q) if q == quote => {
                    self.bump();
                    break;
                }
                Some(b'&') => value.push_str(&self.parse_entity()?),
                Some(b'<') => return self.err("'<' not allowed in attribute value"),
                Some(_) => {
                    let c = self.parse_utf8_char()?;
                    value.push(c);
                }
            }
        }
        Ok((name, value))
    }

    fn parse_char_data(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => break,
                Some(b'&') => out.push_str(&self.parse_entity()?),
                Some(_) => out.push(self.parse_utf8_char()?),
            }
        }
        Ok(out)
    }

    fn parse_utf8_char(&mut self) -> Result<char, ParseError> {
        let first = self.peek().unwrap();
        let len = match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            0xF0..=0xF7 => 4,
            _ => return self.err("invalid UTF-8 byte"),
        };
        if self.pos + len > self.input.len() {
            return self.err("truncated UTF-8 sequence");
        }
        let s = std::str::from_utf8(&self.input[self.pos..self.pos + len])
            .map_err(|_| ParseError {
                message: "invalid UTF-8 sequence".into(),
                line: self.line,
                column: self.col,
            })?;
        let c = s.chars().next().unwrap();
        for _ in 0..len {
            self.bump();
        }
        Ok(c)
    }

    fn parse_entity(&mut self) -> Result<String, ParseError> {
        self.expect("&")?;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c != b';') {
            self.bump();
            if self.pos - start > 12 {
                return self.err("entity reference too long");
            }
        }
        let body = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
        self.expect(";")?;
        match body.as_str() {
            "lt" => Ok("<".into()),
            "gt" => Ok(">".into()),
            "amp" => Ok("&".into()),
            "apos" => Ok("'".into()),
            "quot" => Ok("\"".into()),
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                let code = u32::from_str_radix(&body[2..], 16)
                    .ok()
                    .and_then(char::from_u32);
                match code {
                    Some(c) => Ok(c.to_string()),
                    None => self.err(format!("invalid character reference &{};", body)),
                }
            }
            _ if body.starts_with('#') => {
                let code = body[1..].parse::<u32>().ok().and_then(char::from_u32);
                match code {
                    Some(c) => Ok(c.to_string()),
                    None => self.err(format!("invalid character reference &{};", body)),
                }
            }
            _ => self.err(format!("unknown entity &{};", body)),
        }
    }

    fn parse_comment_text(&mut self) -> Result<String, ParseError> {
        self.expect("<!--")?;
        let start = self.pos;
        loop {
            if self.starts_with("-->") {
                let text = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                self.consume("-->");
                return Ok(text);
            }
            if self.bump().is_none() {
                return self.err("unterminated comment");
            }
        }
    }

    fn skip_comment_text(&mut self) -> Result<(), ParseError> {
        self.parse_comment_text().map(|_| ())
    }

    fn parse_cdata(&mut self) -> Result<String, ParseError> {
        self.expect("<![CDATA[")?;
        let start = self.pos;
        loop {
            if self.starts_with("]]>") {
                let text = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                self.consume("]]>");
                return Ok(text);
            }
            if self.bump().is_none() {
                return self.err("unterminated CDATA section");
            }
        }
    }

    fn parse_pi(&mut self) -> Result<(String, String), ParseError> {
        self.expect("<?")?;
        let target = self.parse_name()?;
        self.skip_ws();
        let start = self.pos;
        loop {
            if self.starts_with("?>") {
                let data = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                self.consume("?>");
                return Ok((target, data));
            }
            if self.bump().is_none() {
                return self.err("unterminated processing instruction");
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        loop {
            if self.consume(end) {
                return Ok(());
            }
            if self.bump().is_none() {
                return self.err(format!("expected {:?} before end of input", end));
            }
        }
    }

    /// DOCTYPE declarations may nest `[ ... ]` internal subsets; skip the
    /// whole declaration without interpreting it.
    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        self.expect("<!DOCTYPE")?;
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => return self.err("unterminated DOCTYPE"),
                Some(b'[') => {
                    depth += 1;
                    self.bump();
                }
                Some(b']') => {
                    depth = depth.saturating_sub(1);
                    self.bump();
                }
                Some(b'>') if depth == 0 => {
                    self.bump();
                    return Ok(());
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }
}

fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b':' || c >= 0x80
}

fn is_name_char(c: u8) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == b'-' || c == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::to_string;

    fn roundtrip(s: &str) -> String {
        to_string(&parse(s).unwrap().root())
    }

    #[test]
    fn simple_document() {
        assert_eq!(roundtrip("<a><b>hi</b></a>"), "<a><b>hi</b></a>");
    }

    #[test]
    fn attributes_both_quotes() {
        let doc = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(doc.root().attr("x"), Some("1"));
        assert_eq!(doc.root().attr("y"), Some("two"));
    }

    #[test]
    fn entities_decoded() {
        let doc = parse("<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>").unwrap();
        assert_eq!(doc.root().text(), "<>&'\"AB");
    }

    #[test]
    fn cdata_preserved() {
        let doc = parse("<a><![CDATA[<not><xml>]]></a>").unwrap();
        assert_eq!(doc.root().text(), "<not><xml>");
    }

    #[test]
    fn comments_and_pis_kept_in_tree() {
        let doc = parse("<a><!--note--><?php echo?><b/></a>").unwrap();
        let kinds: Vec<bool> = doc.root().children().map(|c| c.is_element()).collect();
        assert_eq!(kinds, vec![false, false, true]);
    }

    #[test]
    fn prolog_and_doctype_skipped() {
        let doc = parse(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE db [<!ELEMENT db (x)*>]>\n<db><x/></db>",
        )
        .unwrap();
        assert_eq!(doc.root().name(), Some("db"));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched end tag"), "{}", err);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn unterminated_rejected() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a x=>").is_err());
        assert!(parse("<a><!--").is_err());
    }

    #[test]
    fn whitespace_between_elements_dropped_mixed_kept() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.root().children().count(), 1);
        let doc = parse("<a>hi <b/> there</a>").unwrap();
        assert_eq!(doc.root().children().count(), 3);
        assert_eq!(doc.root().text(), "hi  there");
    }

    #[test]
    fn unicode_content() {
        let doc = parse("<a name='héllo'>日本語</a>").unwrap();
        assert_eq!(doc.root().attr("name"), Some("héllo"));
        assert_eq!(doc.root().text(), "日本語");
    }

    #[test]
    fn error_positions_reported() {
        let err = parse("<a>\n<b></c></a>").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
