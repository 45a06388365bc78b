//! In-tree stand-in for `parking_lot`: wraps the std primitives behind
//! parking_lot's non-poisoning API (`lock()`/`read()`/`write()` return
//! guards directly). A poisoned std lock means a holder panicked; matching
//! parking_lot semantics, the lock is simply taken over.

#![forbid(unsafe_code)]

use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

/// Reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        RwLock { inner: sync::RwLock::new(value) }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(sync::PoisonError::into_inner)
    }
}
