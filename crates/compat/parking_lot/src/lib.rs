//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync::Mutex` with parking_lot's panic-free-looking API
//! (`lock()` returns the guard directly, `into_inner()` returns the value).
//! Lock poisoning — which parking_lot does not have — is ignored: `lock()`
//! and `into_inner()` recover the guard or value from a poisoned lock, as
//! parking_lot would hand it over after a panic while it was held.

use std::fmt;
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// A mutex with `parking_lot`'s unpoisoned API.
#[derive(Default)]
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub fn new(value: T) -> Self {
        Self(StdMutex::new(value))
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Mutex").finish()
    }
}

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T>(StdMutexGuard<'a, T>);

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_into_inner() {
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 6);
    }
}
