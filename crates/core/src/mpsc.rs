//! Lock-free, in-order, multi-producer single-consumer queues (§3.7).
//!
//! The IMPACC runtime's task threads push message commands onto two such
//! queues per node — the *intra-node message queue* and the *pending
//! internode message queue* — and the node's single message handler
//! consumes them (an engine handler: its activations run one at a time,
//! ordered by the scheduler lock). This is a Vyukov-style intrusive MPSC queue: producers
//! serialize only on one atomic swap, the consumer walks the linked list
//! without any atomics beyond a per-node `next` load.
//!
//! FIFO ordering per producer is guaranteed (the swap on `tail` is the
//! linearization point), which is what preserves MPI's non-overtaking rule
//! through the handler.

use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    value: Option<T>,
}

/// A lock-free MPSC FIFO. `push` may be called from any thread; `pop` must
/// only be called by the single consumer, one call at a time.
pub struct MpscQueue<T> {
    /// Producers swap themselves in here.
    tail: AtomicPtr<Node<T>>,
    /// Consumer-owned: the current stub node.
    head: AtomicPtr<Node<T>>,
}

unsafe impl<T: Send> Send for MpscQueue<T> {}
unsafe impl<T: Send> Sync for MpscQueue<T> {}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MpscQueue<T> {
    /// An empty queue.
    pub fn new() -> MpscQueue<T> {
        let stub = Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            value: None,
        }));
        MpscQueue {
            tail: AtomicPtr::new(stub),
            head: AtomicPtr::new(stub),
        }
    }

    /// Enqueue a value. Wait-free except for one atomic swap.
    pub fn push(&self, value: T) {
        let node = Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            value: Some(value),
        }));
        // The swap is the linearization point: the queue order is the
        // order of swaps.
        let prev = self.tail.swap(node, Ordering::AcqRel);
        // Link the predecessor to us. Between the swap and this store the
        // queue is momentarily "broken" after `prev`; the consumer observes
        // a null next and treats the queue as (temporarily) empty there,
        // which is safe: the element is not yet considered delivered.
        unsafe {
            (*prev).next.store(node, Ordering::Release);
        }
    }

    /// Dequeue the oldest value, if one is fully linked.
    /// Must only be called by the single consumer.
    pub fn pop(&self) -> Option<T> {
        unsafe {
            let head = self.head.load(Ordering::Relaxed);
            let next = (*head).next.load(Ordering::Acquire);
            if next.is_null() {
                return None;
            }
            // `next` becomes the new stub; its value is taken.
            self.head.store(next, Ordering::Relaxed);
            let value = (*next).value.take();
            drop(Box::from_raw(head));
            debug_assert!(value.is_some(), "non-stub nodes always carry a value");
            value
        }
    }

    /// Best-effort emptiness check (exact when producers are quiescent).
    pub fn is_empty(&self) -> bool {
        unsafe {
            let head = self.head.load(Ordering::Relaxed);
            (*head).next.load(Ordering::Acquire).is_null()
        }
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
        let stub = self.head.load(Ordering::Relaxed);
        unsafe {
            drop(Box::from_raw(stub));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_single_producer() {
        let q = MpscQueue::new();
        assert!(q.is_empty());
        for i in 0..100 {
            q.push(i);
        }
        assert!(!q.is_empty());
        for i in 0..100 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let q = MpscQueue::new();
        q.push(1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(2));
        q.push(4);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drop_reclaims_pending_nodes() {
        let q = MpscQueue::new();
        let marker = Arc::new(());
        for _ in 0..10 {
            q.push(marker.clone());
        }
        assert_eq!(Arc::strong_count(&marker), 11);
        drop(q);
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    /// Real multi-threaded stress outside the DES: many producers, one
    /// consumer, per-producer FIFO must hold.
    #[test]
    fn stress_multi_producer_fifo() {
        const PRODUCERS: usize = 8;
        const PER: u64 = 20_000;
        let q = Arc::new(MpscQueue::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS as u64 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    q.push((p, i));
                }
            }));
        }
        let mut last = [None::<u64>; PRODUCERS];
        let mut seen = 0u64;
        while seen < PRODUCERS as u64 * PER {
            if let Some((p, i)) = q.pop() {
                let prev = last[p as usize];
                assert!(
                    prev.map_or(i == 0, |x| i == x + 1),
                    "producer {p} out of order"
                );
                last[p as usize] = Some(i);
                seen += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty());
    }
}
