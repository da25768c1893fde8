//! Typed atomic values.
//!
//! The paper's data model is "slightly more structured" than raw XML: leaf
//! values keep the type they had in the source (a relational `INTEGER`
//! column stays an integer) instead of being flattened to text. All
//! comparisons used across the engine — including the total order needed
//! for sorting, B-tree indexing, and merge joins — live here.

use crate::intern::Sym;
use std::borrow::{Borrow, Cow};
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

    /// This value read as a number: the one reading every comparison
    /// takes ([`cmp`], the hash join's keys). An `Int`, a `Float`, or
    /// text whose trim parses as an `i64`, else as an `f64` (`"-0"` is
    /// −0.0); always an [`OrderKey::Int`] or [`OrderKey::Float`].
    #[inline]
    pub fn numeric(&self) -> Option<OrderKey<'static>> {
        match self {
            Atomic::Int(i) => Some(OrderKey::Int(*i)),
            Atomic::Float(f) => Some(OrderKey::Float(*f)),
            Atomic::Str(s) => numeric_text(s),
            Atomic::Sym(s) => numeric_text(s.as_str()),
            Atomic::Null | Atomic::Bool(_) => None,
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

/// [`Atomic::numeric`] of text: out of line, so that a number's reading
/// inlines without a parser.
#[inline(never)]
fn numeric_text(s: &str) -> Option<OrderKey<'static>> {
    let t = s.trim();
    match t.parse::<i64>() {
        Ok(0) if t.starts_with('-') => Some(OrderKey::Float(-0.0)),
        Ok(i) => Some(OrderKey::Int(i)),
        Err(_) => t.parse().ok().map(OrderKey::Float),
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

/// A comparison operator, in the mediator's predicates and in the
/// fragments it sends a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// SQL LIKE with `%` (any run) and `_` (any char).
    Like,
}

impl CmpOp {
    /// Whether a comparison that found `ord` holds; `LIKE` reads text
    /// ([`like`]), not an ordering, and holds for none.
    #[inline]
    pub fn accepts(self, ord: Ordering) -> bool {
        // Bit `ord + 1` is set when the operator accepts that ordering.
        let bits: u8 = match self {
            CmpOp::Eq => 0b010,
            CmpOp::Ne => 0b101,
            CmpOp::Lt => 0b001,
            CmpOp::Le => 0b011,
            CmpOp::Gt => 0b100,
            CmpOp::Ge => 0b110,
            CmpOp::Like => 0,
        };
        bits >> (ord as i8 + 1) & 1 == 1
    }

    /// This operator with its operands swapped; `None` for `LIKE`.
    pub fn flipped(self) -> Option<CmpOp> {
        Some(match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
            CmpOp::Like => return None,
        })
    }
}

/// `a op b` as the mediator compares (DESIGN.md §23): `LIKE` matches
/// lexical forms; two values that both read as numbers
/// ([`Atomic::numeric`]) compare as numbers, exactly; a comparison with
/// Null is false but for `Null = Null` and a one-sided `!=`; anything
/// else orders as [`Atomic::total_cmp`], by type and then value.
#[inline]
pub fn cmp(op: CmpOp, a: &Atomic, b: &Atomic) -> bool {
    cmp_read(op, a, b, b.numeric())
}

/// [`cmp`] with `b`'s numeric reading `b_num` taken already, as a test
/// compiled against a literal keeps it; `a` is read as a number only
/// when `b` is one.
#[inline]
pub fn cmp_read(op: CmpOp, a: &Atomic, b: &Atomic, b_num: Option<OrderKey<'_>>) -> bool {
    if op == CmpOp::Like {
        return like_lexical(a, b);
    }
    let ord = match b_num.and_then(|y| Some((a.numeric()?, y))) {
        Some((x, y)) => x.total_cmp(y),
        None if a.is_null() || b.is_null() => {
            return match op {
                CmpOp::Eq => a.is_null() && b.is_null(),
                CmpOp::Ne => a.is_null() != b.is_null(),
                _ => false,
            }
        }
        None => a.total_cmp(b),
    };
    op.accepts(ord)
}

/// Out of line, so that the orderings inline without strings.
#[cold]
#[inline(never)]
fn like_lexical(a: &Atomic, b: &Atomic) -> bool {
    fn text(x: &Atomic) -> Cow<'_, str> {
        x.as_str().map_or_else(|| Cow::Owned(x.lexical()), Cow::Borrowed)
    }
    like(&text(a), &text(b))
}

/// SQL `LIKE`: `%` matches any run of chars and `_` one char. Greedy,
/// backing up only to the last `%`, so O(|text|·|pattern|) at worst.
pub fn like(text: &str, pattern: &str) -> bool {
    let (mut t, mut p) = (text, pattern);
    // The pattern after the last `%`, and the text it was last tried at.
    let mut star: Option<(&str, &str)> = None;
    loop {
        let (mut tc, mut pc) = (t.chars(), p.chars());
        match (pc.next(), tc.next()) {
            (Some('%'), _) => {
                p = pc.as_str();
                star = Some((p, t));
            }
            (Some(c), Some(x)) if c == '_' || c == x => (t, p) = (tc.as_str(), pc.as_str()),
            (None, None) => return true,
            // A mismatch: the last `%` takes one more char, or none can.
            _ => {
                let Some((after, tried)) = star else { return false };
                let mut rest = tried.chars();
                if rest.next().is_none() {
                    return false;
                }
                (t, p) = (rest.as_str(), after);
                star = Some((after, t));
            }
        }
    }
}

/// Whether a source that compares by type — a `WHERE` on a field
/// declared `field` — keeps exactly the rows `cmp(op, value, lit)`
/// keeps, so that `field op lit` may be sent to it (DESIGN.md §23): a
/// number against a numeric field, text that does not read as a number
/// against text, a bool against a bool, and `LIKE` of a text field with
/// a pattern that the empty text does not match (the mediator reads a
/// NULL as `""`, an RDBMS drops it). Never `!=`: a source's `<>` drops
/// the null rows the mediator keeps. `joined`: another unit binds the
/// value too, so a row may hold a join-equal value spelled otherwise
/// (`Int 2`, `" 2 "`), and the test must read all of them alike — no
/// `LIKE`, and text only under `=`.
pub fn reads_alike(op: CmpOp, lit: &Atomic, field: Option<AtomicType>, joined: bool) -> bool {
    use AtomicType::*;
    match (op, lit.atomic_type(), field) {
        (_, _, None) | (CmpOp::Ne, ..) => false,
        (CmpOp::Like, Str, Some(Str)) => !joined && lit.as_str().is_some_and(|p| !like("", p)),
        (CmpOp::Like, ..) => false,
        (_, Int | Float, Some(Int | Float)) | (_, Bool, Some(Bool)) => true,
        (op, Str, Some(Str)) => lit.numeric().is_none() && (op == CmpOp::Eq || !joined),
        _ => false,
    }
}

/// Whether a source's typed equi-join of fields declared `a` and `b`
/// pairs exactly the rows the mediator's hash join pairs: two numeric
/// fields or two bool fields, Null joining Null in both. Text joins stay
/// central: the mediator equates `"2"` and `" 2 "`.
pub fn joins_alike(a: Option<AtomicType>, b: Option<AtomicType>) -> bool {
    use AtomicType::*;
    matches!((a, b), (Some(Int | Float), Some(Int | Float)) | (Some(Bool), Some(Bool)))
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
/// `BTreeMap`/`HashMap` keys (B-tree indexes, hash join tables), owning
/// the value or, as `AtomicKey<&Atomic>`, borrowing it.
#[derive(Debug, Clone)]
pub struct AtomicKey<A: Borrow<Atomic> = Atomic>(pub A);

impl<A: Borrow<Atomic>> PartialEq for AtomicKey<A> {
    fn eq(&self, other: &Self) -> bool {
        self.0.borrow().key_eq(other.0.borrow())
    }
}
impl<A: Borrow<Atomic>> Eq for AtomicKey<A> {}
impl<A: Borrow<Atomic>> PartialOrd for AtomicKey<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: Borrow<Atomic>> Ord for AtomicKey<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.borrow().total_cmp(other.0.borrow())
    }
}
impl<A: Borrow<Atomic>> std::hash::Hash for AtomicKey<A> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self.0.borrow().order_key() {
            OrderKey::Null => 0u8.hash(state),
            OrderKey::Bool(b) => (1u8, b).hash(state),
            // Ints and equal-valued floats must hash identically because
            // key_eq treats them as equal.
            OrderKey::Int(i) => (2u8, (i as f64).to_bits()).hash(state),
            OrderKey::Float(f) => (2u8, f.to_bits()).hash(state),
            // Str and Sym are one logical type, read by content.
            OrderKey::Text(s) => (3u8, s).hash(state),
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
