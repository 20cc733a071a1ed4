//! Poison-tolerant locking, shared by every crate that keeps values under
//! a lock: the store's run cache, the deployment layer's generation slot,
//! and the search core's dedup stripes, injector and best slot.

use std::sync::{
    LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The value of a lock operation, whether or not the lock is poisoned.
///
/// A lock is poisoned when a thread panicked while holding it. Every lock
/// these helpers serve keeps its value structurally valid at each step — a
/// `(version, value)` cache entry or an `Arc` to an immutable generation
/// replaced whole, a dedup stripe that inserts one owned entry, a queue
/// that pushes and pops whole items, a best slot that swaps a complete
/// tuple — so a panicking holder can at worst leave the *previous*
/// complete value behind, never a torn one. The panic itself still
/// reaches the caller where the thread is joined. Recovering the value
/// keeps the other threads going, where `unwrap()` would turn one panic
/// into a failure of every later access.
pub fn unpoisoned<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Locks `m` (see [`unpoisoned`]).
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(m.lock())
}

/// Read-locks `l` (see [`unpoisoned`]).
pub fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    unpoisoned(l.read())
}

/// Write-locks `l`, for swapping a new complete value into the slot (see
/// [`unpoisoned`]).
pub fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    unpoisoned(l.write())
}
