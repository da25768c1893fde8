//! Process-global string interning.
//!
//! The hot path of the mediator moves the same small set of strings —
//! element and attribute names, relational column values, enum-like
//! text content — through parsing, binding tuples, join keys, grouping,
//! and result construction. Interning turns each distinct string into a
//! small copyable [`Sym`] id: equality and hashing become integer
//! operations, tuple clones stop allocating, and the lexical form is a
//! table lookup away when ordering or serialization needs it.
//!
//! ## Lifecycle
//!
//! The interner is process-global and append-only: a string, once
//! interned, lives for the remainder of the process (`&'static str` via
//! a deliberate leak). That is the right trade for a mediator whose
//! vocabulary is bounded by its sources' schemas and value domains; the
//! table size is observable through [`stats`] so the engine can export
//! it as a gauge. Ids are dense (`0..len`) and **stable for the life of
//! the process**, but not across processes — they must never be
//! persisted.
//!
//! ## Invariants
//!
//! * `Sym::intern(a) == Sym::intern(b)` iff `a == b` (id equality is
//!   string equality).
//! * `sym.as_str()` returns exactly the interned string, unchanged.
//! * [`Sym::EMPTY`] is the empty string and always has id 0.
//! * Id order is **not** lexical order: ordering must go through
//!   `as_str()` (see `Atomic::total_cmp`).

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string: a copyable 4-byte handle whose equality and hash
/// are integer operations. See the module docs for the invariants.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    table: Vec<&'static str>,
    bytes: usize,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let mut map = HashMap::new();
        map.insert("", 0u32);
        RwLock::new(Interner {
            map,
            table: vec![""],
            bytes: 0,
        })
    })
}

/// The interner's lock is only ever held for panic-free map/vec
/// operations, so poisoning cannot leave it inconsistent; recover the
/// guard rather than propagating the panic flag.
macro_rules! read_interner {
    () => {
        interner().read().unwrap_or_else(|e| e.into_inner())
    };
}

impl Sym {
    /// The interned empty string (id 0).
    pub const EMPTY: Sym = Sym(0);

    /// Intern `s`, returning its stable id. Idempotent: the same string
    /// always yields the same id.
    pub fn intern(s: &str) -> Sym {
        if s.is_empty() {
            return Sym::EMPTY;
        }
        if let Some(&id) = read_interner!().map.get(s) {
            return Sym(id);
        }
        let mut w = interner().write().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = w.map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        let id = w.table.len() as u32;
        w.table.push(leaked);
        w.map.insert(leaked, id);
        w.bytes += leaked.len();
        Sym(id)
    }

    /// Look up an already-interned string without inserting it.
    pub fn find(s: &str) -> Option<Sym> {
        read_interner!().map.get(s).copied().map(Sym)
    }

    /// The interned string. O(1) table lookup; the returned reference is
    /// `'static` because interned strings live for the process.
    pub fn as_str(self) -> &'static str {
        let g = read_interner!();
        g.table.get(self.0 as usize).copied().unwrap_or("")
    }

    /// The raw id, for diagnostics and dense side tables.
    pub fn id(self) -> u32 {
        self.0
    }
}

/// Interner size: `(distinct symbols, total interned bytes)`. Exported
/// by the engine as gauges so table growth is observable.
pub fn stats() -> (usize, usize) {
    let g = read_interner!();
    (g.table.len(), g.bytes)
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_equality_is_string_equality() {
        let a = Sym::intern("alpha");
        let b = Sym::intern("alpha");
        let c = Sym::intern("beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(c.as_str(), "beta");
    }

    #[test]
    fn empty_is_id_zero() {
        assert_eq!(Sym::intern(""), Sym::EMPTY);
        assert_eq!(Sym::EMPTY.as_str(), "");
        assert_eq!(Sym::EMPTY.id(), 0);
    }

    #[test]
    fn find_does_not_insert() {
        // Asked twice: had the first look-up inserted, the second would
        // find it. (The interner is process-wide and the suite's other
        // tests intern beside this one, so its size proves nothing.)
        assert_eq!(Sym::find("never-interned-probe-xyzzy"), None);
        assert_eq!(Sym::find("never-interned-probe-xyzzy"), None);
        let s = Sym::intern("findable-token");
        assert_eq!(Sym::find("findable-token"), Some(s));
    }

    #[test]
    fn stats_grow_monotonically() {
        let (n0, b0) = stats();
        Sym::intern("stats-growth-probe-1");
        let (n1, b1) = stats();
        assert!(n1 > n0 || Sym::find("stats-growth-probe-1").is_some());
        assert!(b1 >= b0);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let ids: Vec<Sym> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| Sym::intern("concurrent-probe")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap_or(Sym::EMPTY))
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(ids[0], Sym::EMPTY);
    }
}
