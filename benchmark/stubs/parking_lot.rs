//! Benchmark-owned std-only stand-in for the `parking_lot` surface the
//! nine benchmarked crates use: `Mutex` and `RwLock` whose guards come
//! back without a `Result`. A poisoned lock hands out its guard, as
//! parking_lot (which has no poisoning) would.
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);
impl<T> Mutex<T> {
    pub fn new(t: T) -> Self {
        Mutex(std::sync::Mutex::new(t))
    }
}
impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}
pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);
impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}
impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);
impl<T> RwLock<T> {
    pub fn new(t: T) -> Self {
        RwLock(std::sync::RwLock::new(t))
    }
}
impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }
}
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);
impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);
impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}
impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}
