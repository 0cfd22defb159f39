//! Collective scratch, reissued instead of reallocated.
//!
//! Every host buffer a collective needs beyond the caller's own — the
//! receive side of an exchange, the running fold when the caller's buffer
//! cannot hold it, a node's published result, the staging of a `&[f64]`
//! convenience call — comes from a [`ReducePool`]. A collective repeats
//! its sizes round after round, so after the first round the pool hands
//! the same few backings out again, unzeroed, and no call reaches the
//! allocator (for payload-sized buffers that was an `mmap`, a page fault
//! per 4 KiB and an `munmap`, every call). The pool dies with its launch;
//! the memory of the payload-sized backings it lets go stays mapped in the
//! allocator's heap (DESIGN.md §5m), so the next launch's first round gets
//! it back zeroed by `calloc` instead of faulting in fresh pages.
//!
//! There is no `put`. The pool keeps a reference to what it issued and
//! reissues a backing only once that reference is the last one: a taker's
//! clone, a peer still copying out of a published result and a
//! [`CowSnapshot`](crate::CowSnapshot) still on the wire each hold the
//! `Arc`, so "free" is something the pool observes, never something a
//! caller has to remember to say — or can say too early.
//!
//! Buffers are always uncapped (`phys_cap = None`): collective scratch
//! must hold real bytes even in phys-capped Titan-scale runs, exactly like
//! the message-engine staging buffers.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::backing::Backing;

/// Backings one pool keeps a reference to. A rank's collectives need two
/// or three sizes at a time; past the bound the oldest reference is let
/// go, and the storage goes with its last user.
const KEEP: usize = 8;

/// One owner's collective scratch: a task's, or a node's publish buffers.
/// Owned by launch state, so everything it retains dies with the job.
#[derive(Default)]
pub struct ReducePool {
    issued: Mutex<Vec<Arc<Backing>>>,
}

impl ReducePool {
    /// An empty pool.
    pub fn new() -> ReducePool {
        ReducePool::default()
    }

    /// A backing of exactly `len` bytes, all stored, contents unspecified:
    /// the taker writes before it reads (debug builds fill it with 0xFF —
    /// NaN to an f64 reader — so a test catches one that does not).
    ///
    /// Sizes match exactly: size classes would hold up to twice the bytes
    /// a collective asked for, and a collective asks for the same sizes
    /// again.
    pub fn take(&self, len: u64) -> Arc<Backing> {
        let mut issued = self.issued.lock();
        // `get_mut` is the synchronized "no other reference" test; nobody
        // can gain one meanwhile, since new references come from here.
        let free = issued
            .iter_mut()
            .position(|b| b.logical_len() == len && Arc::get_mut(b).is_some());
        let at = free.unwrap_or_else(|| {
            if issued.len() == KEEP {
                issued.remove(0);
            }
            issued.push(Backing::new(len, None));
            issued.len() - 1
        });
        if cfg!(debug_assertions) {
            Arc::get_mut(&mut issued[at])
                .expect("sole reference: checked or just created")
                .poison();
        }
        issued[at].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dropped_backing_is_reissued() {
        let pool = ReducePool::new();
        let a = pool.take(100);
        assert_eq!(a.logical_len(), 100, "exact length, no size class");
        let a_ptr = Arc::as_ptr(&a);
        drop(a);
        assert_eq!(Arc::as_ptr(&pool.take(100)), a_ptr);
    }

    #[test]
    fn a_held_backing_is_never_reissued() {
        let pool = ReducePool::new();
        let a = pool.take(64);
        let b = pool.take(64);
        assert!(!Arc::ptr_eq(&a, &b), "the taker still holds the first");
        // A snapshot on the wire is a holder too.
        let a_ptr = Arc::as_ptr(&a);
        let on_the_wire = a.snapshot(0, 64);
        drop(a);
        assert_ne!(Arc::as_ptr(&pool.take(64)), a_ptr);
        drop(on_the_wire);
        assert_eq!(Arc::as_ptr(&pool.take(64)), a_ptr, "delivered: free again");
    }

    #[test]
    fn lengths_match_exactly() {
        let pool = ReducePool::new();
        let small = Arc::as_ptr(&pool.take(120));
        assert_ne!(Arc::as_ptr(&pool.take(128)), small);
        assert_eq!(Arc::as_ptr(&pool.take(120)), small);
    }

    #[test]
    fn retention_is_bounded() {
        let pool = ReducePool::new();
        let first = Arc::downgrade(&pool.take(8));
        for len in 0..KEEP as u64 {
            pool.take(16 + len);
        }
        assert_eq!(pool.issued.lock().len(), KEEP);
        assert!(first.upgrade().is_none(), "oldest reference let go");
    }

    #[test]
    fn issued_backings_hold_real_bytes() {
        let pool = ReducePool::new();
        let b = pool.take(64);
        b.write_f64s(0, &[1.5, 2.5]);
        assert_eq!(b.read_f64s(0, 2), vec![1.5, 2.5]);
        assert_eq!(b.phys_len(), b.logical_len(), "never phys-capped");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn contents_are_poisoned_in_debug_builds() {
        let pool = ReducePool::new();
        assert!(pool.take(16).read_f64s(0, 2).iter().all(|v| v.is_nan()));
        assert!(pool.take(16).read_f64s(0, 2).iter().all(|v| v.is_nan()));
    }
}
