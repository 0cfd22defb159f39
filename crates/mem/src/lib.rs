//! # impacc-mem — the unified node virtual address space
//!
//! Memory substrate for the IMPACC reproduction (§3.4, §3.8 of the paper):
//!
//! * [`Backing`] — real byte storage with a logical/physical split so
//!   Titan-scale buffers can be simulated without Titan-scale RAM.
//! * [`AddressSpace`] — one linear virtual address space per node covering
//!   the host heap and every device's memory (plus OpenCL shadow ranges).
//! * [`PresentTable`] — per-task OpenACC present table with the paper's
//!   dual balanced-tree indexes (host-keyed and device-keyed).
//! * [`NodeHeap`] — the hooked heap with refcounted entries and re-aimable
//!   pointer variables, the mechanism behind *node heap aliasing*.

#![warn(missing_docs)]

pub mod backing;
pub mod faulty;
pub mod heap;
pub mod pool;
pub mod present;
pub mod space;

pub use backing::{Backing, CowSnapshot, F64Span};
pub use faulty::{commit_copy, reserve_hd_with_faults};
pub use heap::{HeapEntry, HeapError, HeapPtr, NodeHeap};
pub use pool::ReducePool;
pub use present::{DevPtr, PresentEntry, PresentTable};
pub use space::{AddressSpace, MemError, MemSpace, Region, RegionId, VirtAddr};
