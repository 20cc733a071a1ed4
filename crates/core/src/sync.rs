//! Poison-tolerant locking for the parallel search core. (The `RwLock`
//! counterparts live in `rdf_model::sync`, beside their first user.)

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard when the mutex is poisoned.
///
/// A poisoned stripe only means some explorer thread panicked while
/// holding the lock. Every critical section in the search core keeps its
/// protected value structurally valid at each step (dedup shards insert
/// one owned entry, the injector pushes/pops whole nodes, the best slot
/// swaps a complete tuple), and the panic itself is still surfaced to
/// the caller as [`SelectionError::SearchPanicked`] by the thread-scope
/// join. Recovering the guard therefore cannot observe a torn invariant,
/// whereas `unwrap()` would escalate one worker's panic into a poison
/// cascade that aborts every surviving explorer.
///
/// [`SelectionError::SearchPanicked`]: crate::error::SelectionError::SearchPanicked
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
