//! The runtime value domain shared by the whole engine: atomics, nodes,
//! and lists (the result of grouping/collection).

use crate::atomic::{Atomic, OrderKey};
use crate::node::NodeRef;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A value a query variable may be bound to.
#[derive(Clone)]
pub enum Value {
    /// A typed leaf value.
    Atomic(Atomic),
    /// A reference to a node of some document (binding is by reference;
    /// the document is shared, not copied).
    Node(NodeRef),
    /// An ordered collection, produced by grouping constructs.
    List(Arc<Vec<Value>>),
}

impl Value {
    /// `Null` shorthand.
    pub fn null() -> Value {
        Value::Atomic(Atomic::Null)
    }

    /// True for `Atomic(Null)`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Atomic(Atomic::Null))
    }

    /// Collapse to an atomic: atomics pass through, nodes yield their typed
    /// value, lists yield their first element's atomization (or `Null`).
    pub fn atomize(&self) -> Atomic {
        match self {
            Value::Atomic(a) => a.clone(),
            Value::Node(n) => n.typed_value(),
            Value::List(items) => items.first().map_or(Atomic::Null, Value::atomize),
        }
    }

    /// [`atomize`](Self::atomize) read in place: the atomic itself, or
    /// that of a list's first element (`Null` for an empty list).
    /// `None` when atomizing has to build a value — a node's typed
    /// value — and the caller must [`atomize`](Self::atomize).
    #[inline]
    pub fn as_atomic(&self) -> Option<&Atomic> {
        match self {
            Value::Atomic(a) => Some(a),
            Value::Node(_) => None,
            Value::List(items) => items.first().map_or(Some(&Atomic::Null), Value::as_atomic),
        }
    }

    /// Apply `f` to the atomization, read in place when the value already
    /// is an atomic: only a node atomizes to an owned value.
    #[inline]
    pub fn with_atomic<R>(&self, f: impl FnOnce(&Atomic) -> R) -> R {
        let owned;
        f(match self.as_atomic() {
            Some(a) => a,
            None => {
                owned = self.atomize();
                &owned
            }
        })
    }

    /// [`with_atomic`](Self::with_atomic) over two operands.
    #[inline]
    pub fn with_atomics<R>(&self, other: &Value, f: impl FnOnce(&Atomic, &Atomic) -> R) -> R {
        self.with_atomic(|a| other.with_atomic(|b| f(a, b)))
    }

    /// The value as display text.
    pub fn lexical(&self) -> String {
        match self {
            Value::Atomic(a) => a.lexical(),
            Value::Node(n) => n.text(),
            Value::List(items) => items
                .iter()
                .map(|v| v.lexical())
                .collect::<Vec<_>>()
                .join(","),
        }
    }

    /// Append the display text to `out` (buffer-reuse companion of
    /// [`lexical`](Self::lexical)).
    pub fn lexical_into(&self, out: &mut String) {
        match self {
            Value::Atomic(a) => a.lexical_into(out),
            Value::Node(n) => n.text_into(out),
            Value::List(items) => {
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.lexical_into(out);
                }
            }
        }
    }

    /// Predicate truthiness (see [`Atomic::truthy`]); nodes are true,
    /// non-empty lists are true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Atomic(a) => a.truthy(),
            Value::Node(_) => true,
            Value::List(items) => !items.is_empty(),
        }
    }

    /// Total order used by Sort and Distinct: atomics by
    /// [`Atomic::total_cmp`] (after atomizing nodes), then by node
    /// identity/document order for pure node comparisons, lists
    /// lexicographically. It is the order of [`ValueKey`].
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.order_key().total_cmp(&other.order_key())
    }

    /// This value read for ordering: an atomic's ordering fields, or a
    /// node's typed value where it is stored, are read once.
    pub fn order_key(&self) -> ValueKey<'_> {
        let atomic = match self {
            Value::Atomic(a) => Some(a.order_key()),
            Value::Node(n) => n.cursor().typed_value_ref().map(Atomic::order_key),
            Value::List(_) => None,
        };
        ValueKey { value: self, atomic }
    }

    /// Join-key / grouping equality: compares atomized values for mixed
    /// kinds, structural equality for node-node, element-wise for lists.
    pub fn key_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Node(a), Value::Node(b)) => {
                a.same_node(b) || a.typed_value().key_eq(&b.typed_value())
            }
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.key_eq(y))
            }
            (a, b) => a.with_atomics(b, Atomic::key_eq),
        }
    }
}

/// A [`Value`] as [`Value::total_cmp`] orders it: what a sort reads once
/// per row instead of at every comparison.
#[derive(Clone, Copy)]
pub struct ValueKey<'a> {
    value: &'a Value,
    /// `None` for a list, or a node whose text spans several nodes.
    atomic: Option<OrderKey<'a>>,
}

impl ValueKey<'_> {
    pub fn total_cmp(&self, other: &ValueKey<'_>) -> Ordering {
        let ord = match (self.atomic, other.atomic, self.value, other.value) {
            (Some(a), Some(b), _, _) => a.total_cmp(b),
            (_, _, Value::List(a), Value::List(b)) => {
                let mut items = a.iter().zip(b.iter()).map(|(x, y)| x.total_cmp(y));
                return items.find(|o| o.is_ne()).unwrap_or_else(|| a.len().cmp(&b.len()));
            }
            (_, _, a, b) => a.with_atomics(b, Atomic::total_cmp),
        };
        ord.then_with(|| match (self.value, other.value) {
            (Value::Node(a), Value::Node(b)) => a.doc_order(b),
            _ => Ordering::Equal,
        })
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.key_eq(other)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Atomic(a) => write!(f, "{:?}", a),
            Value::Node(n) => write!(f, "{:?}", n),
            Value::List(items) => f.debug_list().entries(items.iter()).finish(),
        }
    }
}

impl From<Atomic> for Value {
    fn from(a: Atomic) -> Self {
        Value::Atomic(a)
    }
}
impl From<NodeRef> for Value {
    fn from(n: NodeRef) -> Self {
        Value::Node(n)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Atomic(Atomic::Int(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Atomic(Atomic::Float(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Atomic(Atomic::Bool(v))
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Atomic(Atomic::Str(v.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn atomize_node() {
        let doc = parse("<n>42</n>").unwrap();
        let v = Value::Node(doc.root());
        assert_eq!(v.atomize(), Atomic::Str("42".into()));
    }

    #[test]
    fn node_vs_atomic_comparison() {
        let doc = parse("<n>5</n>").unwrap();
        let v = Value::Node(doc.root());
        // Node text "5" compares as a string against Str("5").
        assert!(v.key_eq(&Value::from("5")));
    }

    #[test]
    fn list_ordering() {
        let a = Value::List(Arc::new(vec![Value::from(1i64), Value::from(2i64)]));
        let b = Value::List(Arc::new(vec![Value::from(1i64), Value::from(3i64)]));
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        let c = Value::List(Arc::new(vec![Value::from(1i64)]));
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::null().truthy());
        assert!(Value::from("x").truthy());
        assert!(!Value::List(Arc::new(vec![])).truthy());
    }
}
