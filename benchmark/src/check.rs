//! Answer checking. An answer is compared with its expectation as
//! (element count, order-sensitive digest of its values): the count is
//! the number of children of `<results>`, the digest runs over every
//! attribute value and text node in document order, with a separator
//! after each value and another after each answer element.
//!
//! The expectation side ([`Digest`]) is fed by the reference evaluator
//! from plain rows; the answer side ([`scan`]) reads the XML text the
//! engine returned. Generated values never contain markup characters,
//! so raw text equals unescaped text.

const VALUE_END: u8 = 0x1f;
const ELEMENT_END: u8 = 0x1e;

/// FNV-1a over values, in order.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn value(&mut self, v: &str) {
        for b in v.bytes() {
            self.byte(b);
        }
        self.byte(VALUE_END);
    }

    pub fn end_element(&mut self) {
        self.byte(ELEMENT_END);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Summary {
    pub count: u64,
    pub digest: u64,
}

/// Summarise a serialized `<results>` document. `None` when the text is
/// not shaped like one (which the caller counts as a failed op).
pub fn scan(xml: &str) -> Option<Summary> {
    let b = xml.as_bytes();
    let mut i = 0;
    let mut depth = 0usize;
    let mut count = 0u64;
    let mut d = Digest::default();
    let mut saw_root = false;
    while i < b.len() {
        if b[i] != b'<' {
            // Text node: up to the next tag.
            let start = i;
            while i < b.len() && b[i] != b'<' {
                i += 1;
            }
            if depth >= 2 {
                d.value(xml.get(start..i)?);
            }
            continue;
        }
        if b.get(i + 1) == Some(&b'/') {
            // Closing tag.
            while i < b.len() && b[i] != b'>' {
                i += 1;
            }
            i += 1;
            depth = depth.checked_sub(1)?;
            if depth == 1 {
                d.end_element();
            }
            continue;
        }
        // Opening (or self-closing) tag: name, then attributes.
        i += 1;
        while i < b.len() && !matches!(b[i], b' ' | b'>' | b'/') {
            i += 1;
        }
        if depth == 0 {
            saw_root = true;
        } else if depth == 1 {
            count += 1;
        }
        let mut self_closing = false;
        while i < b.len() && b[i] != b'>' {
            if b[i] == b'"' {
                let start = i + 1;
                i = start;
                while i < b.len() && b[i] != b'"' {
                    i += 1;
                }
                d.value(xml.get(start..i)?);
            } else if b[i] == b'/' {
                self_closing = true;
            }
            i += 1;
        }
        i += 1;
        if self_closing {
            if depth == 1 {
                d.end_element();
            }
        } else {
            depth += 1;
        }
    }
    (saw_root && depth == 0).then_some(Summary {
        count,
        digest: d.finish(),
    })
}

/// The expectation side: answers appended value by value.
#[derive(Default)]
pub struct Expected {
    count: u64,
    digest: Digest,
}

impl Expected {
    /// One answer element whose attribute values and text nodes are
    /// `values`, in document order.
    pub fn answer(&mut self, values: &[&str]) {
        self.count += 1;
        for v in values {
            self.digest.value(v);
        }
        self.digest.end_element();
    }

    pub fn finish(self) -> Summary {
        Summary {
            count: self.count,
            digest: self.digest.finish(),
        }
    }
}
