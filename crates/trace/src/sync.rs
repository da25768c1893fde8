//! The workspace's one lock type: `Mutex` and `RwLock` over `std::sync`
//! whose `lock` / `read` / `write` hand back the guard itself.
//!
//! A poisoned lock hands out its guard too. Every structure guarded here
//! (caches, registries, statistics, the simulated link's counters) is
//! left valid at every step of an update, so a holder that panicked
//! costs at most one lost update; turning that into a second panic in
//! every later caller would take the whole mediator down over it, which
//! is the opposite of §3.4's "degrade, annotate, never fall over".

use std::sync::PoisonError;
pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock` cannot fail.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read` / `write` cannot fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panicked_holder_does_not_poison_later_callers() {
        let m = Arc::new(Mutex::new(1));
        let rw = Arc::new(RwLock::new(1));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let joined = std::thread::spawn(move || {
            let _a = m2.lock();
            let _b = rw2.write();
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(joined.is_err());
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (2, 2));
    }
}
