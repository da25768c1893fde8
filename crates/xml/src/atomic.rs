//! Typed atomic values.
//!
//! The paper's data model is "slightly more structured" than raw XML: leaf
//! values keep the type they had in the source (a relational `INTEGER`
//! column stays an integer) instead of being flattened to text. All
//! comparisons used across the engine — including the total order needed
//! for sorting, B-tree indexing, and merge joins — live here.

use crate::intern::Sym;
use std::cmp::Ordering;
use std::fmt;

/// A typed atomic (leaf) value.
///
/// `Null` models SQL `NULL` and absent optional fields; it compares equal
/// only to itself and sorts before every other value.
///
/// `Str` and `Sym` are two representations of the **same** string type:
/// `Sym` holds an interned id (see [`crate::intern`]) and is what the
/// ingestion paths (parser, adapters) produce, while `Str` remains for
/// ad-hoc construction and computed strings. Every comparison, hash,
/// and coercion in the engine treats them identically by content.
#[derive(Debug, Clone)]
pub enum Atomic {
    /// Absent / unknown value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float. `NaN` is normalized away by constructors used in
    /// the engine; comparison treats `NaN` as equal to itself and greater
    /// than every other float so that a total order exists.
    Float(f64),
    /// UTF-8 string (owned).
    Str(String),
    /// UTF-8 string (interned): copyable, integer equality/hash.
    Sym(Sym),
}

/// `Str`/`Sym` compare by content; every other variant keeps the
/// semantics the previously-derived impl had (in particular
/// `Float(NaN) != Float(NaN)` under `==` — total order lives in
/// [`Atomic::total_cmp`]).
impl PartialEq for Atomic {
    fn eq(&self, other: &Self) -> bool {
        use Atomic::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Sym(a), Sym(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Str(a), Sym(b)) => a == b.as_str(),
            (Sym(a), Str(b)) => a.as_str() == b,
            _ => false,
        }
    }
}

/// The type of an [`Atomic`] value, used by shapes and schema inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicType {
    Null,
    Bool,
    Int,
    Float,
    Str,
}

impl Atomic {
    /// The type tag of this value.
    pub fn atomic_type(&self) -> AtomicType {
        match self {
            Atomic::Null => AtomicType::Null,
            Atomic::Bool(_) => AtomicType::Bool,
            Atomic::Int(_) => AtomicType::Int,
            Atomic::Float(_) => AtomicType::Float,
            Atomic::Str(_) | Atomic::Sym(_) => AtomicType::Str,
        }
    }

    /// True if this is [`Atomic::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Atomic::Null)
    }

    /// Interpret as a boolean for predicate evaluation: `Null` and empty
    /// strings are false, zero numbers are false, everything else is true.
    pub fn truthy(&self) -> bool {
        match self {
            Atomic::Null => false,
            Atomic::Bool(b) => *b,
            Atomic::Int(i) => *i != 0,
            Atomic::Float(f) => *f != 0.0,
            Atomic::Str(s) => !s.is_empty(),
            Atomic::Sym(s) => *s != Sym::EMPTY,
        }
    }

    /// Parse a lexical token into the most specific atomic type, the way
    /// schema-less adapters (CSV, text content) infer types.
    pub fn infer(text: &str) -> Atomic {
        let t = text.trim();
        if t.is_empty() {
            return Atomic::Sym(Sym::intern(text));
        }
        if let Ok(i) = t.parse::<i64>() {
            return Atomic::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            if f.is_finite() {
                return Atomic::Float(f);
            }
        }
        match t {
            "true" | "TRUE" => Atomic::Bool(true),
            "false" | "FALSE" => Atomic::Bool(false),
            _ => Atomic::Sym(Sym::intern(text)),
        }
    }

    /// Numeric view (ints widen to floats); `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Atomic::Int(i) => Some(*i as f64),
            Atomic::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view without conversion; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Atomic::Str(s) => Some(s),
            Atomic::Sym(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Lexical form, as it would appear as XML text content.
    pub fn lexical(&self) -> String {
        match self {
            Atomic::Null => String::new(),
            Atomic::Bool(b) => b.to_string(),
            Atomic::Int(i) => i.to_string(),
            Atomic::Float(f) => format_float(*f),
            Atomic::Str(s) => s.clone(),
            Atomic::Sym(s) => s.as_str().to_string(),
        }
    }

    /// Append the lexical form to `out` without an intermediate
    /// allocation (the buffer-reuse companion of
    /// [`lexical`](Self::lexical)).
    pub fn lexical_into(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Atomic::Null => {}
            Atomic::Bool(b) => {
                let _ = write!(out, "{}", b);
            }
            Atomic::Int(i) => {
                let _ = write!(out, "{}", i);
            }
            Atomic::Float(f) => format_float_into(out, *f),
            Atomic::Str(s) => out.push_str(s),
            Atomic::Sym(s) => out.push_str(s.as_str()),
        }
    }

    /// Total-order comparison usable for sorting and B-tree keys: the
    /// order of [`OrderKey`].
    pub fn total_cmp(&self, other: &Atomic) -> Ordering {
        match (self, other) {
            // Equal ids are equal text: no lookup.
            (Atomic::Sym(a), Atomic::Sym(b)) if a == b => Ordering::Equal,
            _ => self.order_key().total_cmp(other.order_key()),
        }
    }

    /// This value read for ordering: a string's text is looked up once
    /// (a `Sym`'s takes the interner's lock), everything else is copied.
    #[inline]
    pub fn order_key(&self) -> OrderKey<'_> {
        match self {
            Atomic::Null => OrderKey::Null,
            Atomic::Bool(b) => OrderKey::Bool(*b),
            Atomic::Int(i) => OrderKey::Int(*i),
            Atomic::Float(f) => OrderKey::Float(*f),
            Atomic::Str(s) => OrderKey::Text(s),
            Atomic::Sym(s) => OrderKey::Text(s.as_str()),
        }
    }

    /// Equality usable for join keys: `Int(2) == Float(2.0)`,
    /// and `Null` never equals anything (SQL semantics are handled a level
    /// up; here `Null == Null` for grouping purposes).
    pub fn key_eq(&self, other: &Atomic) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

/// An [`Atomic`] as [`Atomic::total_cmp`] orders it, with a string's
/// text borrowed: what a sort reads once per key instead of once per
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OrderKey<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a str),
}

impl OrderKey<'_> {
    /// The total order of atomics. Values of different types order by
    /// type rank (`Null < Bool < numbers < Str`). `Int` and `Float`
    /// compare by exact value, so that ints past 2^53 that round to one
    /// f64 stay apart; `-0.0` sits just below `0`, and NaNs at the ends,
    /// as `f64::total_cmp` places them.
    #[inline]
    pub fn total_cmp(self, other: OrderKey<'_>) -> Ordering {
        use OrderKey::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Int(a), Float(b)) => int_float_cmp(a, b),
            (Float(a), Int(b)) => int_float_cmp(b, a).reverse(),
            (Text(a), Text(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(self) -> u8 {
        match self {
            OrderKey::Null => 0,
            OrderKey::Bool(_) => 1,
            OrderKey::Int(_) | OrderKey::Float(_) => 2,
            OrderKey::Text(_) => 3,
        }
    }
}

/// `i` against `f` exactly. Rounding is monotone, so where `i as f64`
/// differs from `f` it orders as `i` does; where it ties, `f` is an
/// integer and the tie breaks on the exact values.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    match (i as f64).total_cmp(&f) {
        // 2^63 is the one tie past every i64.
        Ordering::Equal if f >= i64::MAX as f64 => Ordering::Less,
        Ordering::Equal => i.cmp(&(f as i64)),
        ord => ord,
    }
}

fn format_float(f: f64) -> String {
    let mut out = String::new();
    format_float_into(&mut out, f);
    out
}

fn format_float_into(out: &mut String, f: f64) {
    use std::fmt::Write;
    if f == f.trunc() && f.abs() < 1e15 {
        let _ = write!(out, "{:.1}", f);
    } else {
        let _ = write!(out, "{}", f);
    }
}

/// Spell a finite float as a literal the XML-QL and SQL lexers both read
/// back bit-identically. Neither reads an exponent and both take digits
/// without a point for an integer, so: plain decimal (`{}` never writes
/// an exponent, and writes the shortest digits that round-trip) with a
/// fractional part.
pub fn float_literal(f: f64) -> String {
    let mut s = f.to_string();
    if !s.contains('.') {
        s.push_str(".0");
    }
    s
}

impl fmt::Display for Atomic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.lexical())
    }
}

impl From<i64> for Atomic {
    fn from(v: i64) -> Self {
        Atomic::Int(v)
    }
}
impl From<f64> for Atomic {
    fn from(v: f64) -> Self {
        Atomic::Float(v)
    }
}
impl From<bool> for Atomic {
    fn from(v: bool) -> Self {
        Atomic::Bool(v)
    }
}
impl From<&str> for Atomic {
    fn from(v: &str) -> Self {
        Atomic::Str(v.to_string())
    }
}
impl From<String> for Atomic {
    fn from(v: String) -> Self {
        Atomic::Str(v)
    }
}

/// Wrapper giving [`Atomic`] the `Eq + Ord + Hash` bounds required by
/// `BTreeMap`/`HashMap` keys (B-tree indexes, hash join tables).
#[derive(Debug, Clone)]
pub struct AtomicKey(pub Atomic);

impl PartialEq for AtomicKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.key_eq(&other.0)
    }
}
impl Eq for AtomicKey {}
impl PartialOrd for AtomicKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AtomicKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl std::hash::Hash for AtomicKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match &self.0 {
            Atomic::Null => 0u8.hash(state),
            Atomic::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and equal-valued floats must hash identically because
            // key_eq treats them as equal.
            Atomic::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Atomic::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            // Str and Sym are one logical type: hash by content with
            // the same tag so cross-representation keys collide.
            Atomic::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Atomic::Sym(s) => {
                3u8.hash(state);
                s.as_str().hash(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_types() {
        assert_eq!(Atomic::infer("42"), Atomic::Int(42));
        assert_eq!(Atomic::infer("-7"), Atomic::Int(-7));
        assert_eq!(Atomic::infer("3.25"), Atomic::Float(3.25));
        assert_eq!(Atomic::infer("true"), Atomic::Bool(true));
        assert_eq!(Atomic::infer("hello"), Atomic::Str("hello".into()));
        assert_eq!(Atomic::infer(""), Atomic::Str("".into()));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Atomic::Int(2).key_eq(&Atomic::Float(2.0)));
        assert!(!Atomic::Int(2).key_eq(&Atomic::Float(2.5)));
    }

    #[test]
    fn ints_and_floats_compare_exactly() {
        use std::cmp::Ordering::*;
        let p53 = 1i64 << 53;
        let two63 = 9_223_372_036_854_775_808.0;
        for (i, f, want) in [
            // Ints that round to the float they are compared with.
            (p53 + 1, p53 as f64, Greater),
            (p53 + 1, (p53 + 2) as f64, Less),
            (p53 + 3, (p53 + 4) as f64, Less),
            (i64::MAX, two63, Less),
            (i64::MIN, -two63, Equal),
            (i64::MIN + 1, -two63, Greater),
            // Exact ties, the zeros and NaNs where f64::total_cmp puts them.
            (p53, p53 as f64, Equal),
            (0, 0.0, Equal),
            (0, -0.0, Greater),
            (-1, -0.0, Less),
            (i64::MAX, f64::NAN, Less),
            (i64::MIN, -f64::NAN, Greater),
            (i64::MAX, f64::INFINITY, Less),
        ] {
            let (a, b) = (Atomic::Int(i), Atomic::Float(f));
            assert_eq!(a.total_cmp(&b), want, "{} vs {:?}", i, f);
            assert_eq!(b.total_cmp(&a), want.reverse(), "{:?} vs {}", f, i);
            assert_eq!(a.key_eq(&b), want == Equal);
        }
    }

    #[test]
    fn total_order_across_types() {
        let mut v = [Atomic::Str("a".into()),
            Atomic::Int(1),
            Atomic::Null,
            Atomic::Bool(true),
            Atomic::Float(0.5)];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], Atomic::Null);
        assert_eq!(v[1], Atomic::Bool(true));
        assert_eq!(v[2], Atomic::Float(0.5));
        assert_eq!(v[3], Atomic::Int(1));
        assert_eq!(v[4], Atomic::Str("a".into()));
    }

    #[test]
    fn key_hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |k: &AtomicKey| {
            let mut s = DefaultHasher::new();
            k.hash(&mut s);
            s.finish()
        };
        let a = AtomicKey(Atomic::Int(5));
        let b = AtomicKey(Atomic::Float(5.0));
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn lexical_roundtrip() {
        assert_eq!(Atomic::Int(10).lexical(), "10");
        assert_eq!(Atomic::Float(2.0).lexical(), "2.0");
        assert_eq!(Atomic::Bool(false).lexical(), "false");
        assert_eq!(Atomic::Null.lexical(), "");
    }

    #[test]
    fn truthiness() {
        assert!(!Atomic::Null.truthy());
        assert!(!Atomic::Int(0).truthy());
        assert!(Atomic::Int(3).truthy());
        assert!(!Atomic::Str("".into()).truthy());
        assert!(Atomic::Str("x".into()).truthy());
    }
}
