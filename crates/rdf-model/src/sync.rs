//! Poison-tolerant `RwLock` access, shared by every crate that swaps whole
//! values under a lock (the store's run cache, the deployment layer's
//! generation slot).

use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read-locks `l`, recovering the guard when the lock is poisoned.
///
/// For locks whose protected value is replaced whole — a
/// `(version, value)` cache entry, an `Arc` to an immutable generation —
/// so that a writer that panicked can at worst have left the *previous*
/// complete value behind, never a torn one. Recovering the guard keeps
/// readers going instead of turning one panic into a failure of every
/// later read.
pub fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock counterpart of [`read_unpoisoned`], for swapping a new
/// complete value into the slot.
pub fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
