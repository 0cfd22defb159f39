//! Common MPI-facing types: buffers, statuses, reduction operators.

use std::sync::Arc;

use impacc_mem::{Backing, F64Span};

/// Wildcard-capable source selector (`MPI_ANY_SOURCE` is `None`).
pub type SrcSel = Option<u32>;
/// Wildcard-capable tag selector (`MPI_ANY_TAG` is `None`).
pub type TagSel = Option<i32>;

/// Where a message buffer physically lives. Unified MPI communication
/// routines (§3.5) accept device buffers directly; the substrate needs the
/// location to model the transfer path.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BufLoc {
    /// Host memory.
    Host,
    /// Memory of the node-local device with this index.
    Device(usize),
}

/// A view of a contiguous byte range used as an MPI send or receive buffer.
#[derive(Clone)]
pub struct MsgBuf {
    /// The storage.
    pub backing: Arc<Backing>,
    /// Byte offset of the view within the backing.
    pub off: u64,
    /// Length of the view in bytes.
    pub len: u64,
    /// Host or device residency.
    pub loc: BufLoc,
    /// Pre-registered (pinned) with the library: internode transfers go
    /// zero-copy to the HCA. Device buffers are inherently registered.
    pub pinned: bool,
}

impl MsgBuf {
    /// A host-resident view covering `[off, off+len)` of `backing`.
    pub fn host(backing: Arc<Backing>, off: u64, len: u64) -> MsgBuf {
        MsgBuf {
            backing,
            off,
            len,
            loc: BufLoc::Host,
            pinned: false,
        }
    }

    /// A device-resident view.
    pub fn device(backing: Arc<Backing>, off: u64, len: u64, dev: usize) -> MsgBuf {
        MsgBuf {
            backing,
            off,
            len,
            loc: BufLoc::Device(dev),
            pinned: true,
        }
    }

    /// Mark the buffer as pre-registered with the library.
    pub fn registered(mut self) -> MsgBuf {
        self.pinned = true;
        self
    }

    /// A sub-view of this buffer.
    pub fn slice(&self, off: u64, len: u64) -> MsgBuf {
        assert!(off + len <= self.len, "slice out of range");
        MsgBuf {
            backing: self.backing.clone(),
            off: self.off + off,
            len,
            loc: self.loc,
            pinned: self.pinned,
        }
    }

    /// May a reduction whose send and receive buffer are `self` and
    /// `recvbuf` keep its running fold in that buffer? Yes when the two are
    /// one range and that range is, to the cost model and the data path,
    /// the scratch the fold would otherwise be copied into: host memory,
    /// not registered with the library, the whole of a fully stored
    /// allocation. Decided per call from the buffers alone; anything else
    /// (device, pinned, phys-capped, a sub-range) folds in scratch.
    pub fn folds_in_place(&self, recvbuf: &MsgBuf) -> bool {
        self.same_range(recvbuf)
            && (self.loc, recvbuf.loc) == (BufLoc::Host, BufLoc::Host)
            && !self.pinned
            && !recvbuf.pinned
            && self.off == 0
            && self.len == self.backing.logical_len()
            && self.len == self.backing.phys_len()
    }

    /// Do both views cover the same bytes of the same allocation?
    pub fn same_range(&self, other: &MsgBuf) -> bool {
        Arc::ptr_eq(&self.backing, &other.backing) && (self.off, self.len) == (other.off, other.len)
    }

    /// Read the buffer as f64 elements (results and tests; reductions fold
    /// in place through [`ReduceOp::fold`]).
    pub fn read_f64s(&self) -> Vec<f64> {
        self.backing.read_f64s(self.off, self.elems())
    }

    /// Overwrite the buffer with f64 elements.
    pub fn write_f64s(&self, vals: &[f64]) {
        assert!(vals.len() as u64 * 8 <= self.len);
        self.backing.write_f64s(self.off, vals);
    }

    /// Run `f` on the buffer's f64 elements, borrowed in place
    /// (see [`Backing::with_f64s`]).
    pub fn with_f64s<R>(&self, f: impl FnOnce(&[f64]) -> R) -> R {
        self.backing.with_f64s(self.off, self.elems(), f)
    }

    /// Let `f` edit the buffer's f64 elements in place
    /// (see [`Backing::with_f64s_mut`]).
    pub fn with_f64s_mut<R>(&self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        self.backing.with_f64s_mut(self.off, self.elems(), f)
    }

    fn elems(&self) -> usize {
        (self.len / 8) as usize
    }

    fn span(&self) -> F64Span<'_> {
        F64Span {
            backing: &self.backing,
            off: self.off,
            n: self.elems(),
        }
    }
}

impl std::fmt::Debug for MsgBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MsgBuf({} B @ {} {:?})", self.len, self.off, self.loc)
    }
}

/// Completion information of a receive (like `MPI_Status`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Status {
    /// Communicator-relative rank of the sender.
    pub src: u32,
    /// Tag of the matched message.
    pub tag: i32,
    /// Number of bytes actually received.
    pub len: u64,
}

/// Reduction operators over f64 element vectors.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Elementwise product.
    Prod,
}

impl ReduceOp {
    /// Fold `other`'s elements into `acc`'s where they are stored: the
    /// reduction step of every collective, straight out of the receive
    /// buffer (`MPI_IN_PLACE` on both operands).
    pub fn fold(self, acc: &MsgBuf, other: &MsgBuf) {
        Backing::with_f64_views_mut(&[other.span()], acc.span(), |src, acc| {
            self.combine(acc, src[0])
        });
    }

    /// Combine `other` into `acc` elementwise.
    pub fn combine(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce length mismatch");
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(other).for_each(|(a, b)| *a += b),
            ReduceOp::Max => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.max(*b)),
            ReduceOp::Min => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.min(*b)),
            ReduceOp::Prod => acc.iter_mut().zip(other).for_each(|(a, b)| *a *= b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msgbuf_slice_and_f64_views() {
        let b = Backing::new(64, None);
        let buf = MsgBuf::host(b, 0, 64);
        buf.write_f64s(&[1.0, 2.0, 3.0, 4.0]);
        let s = buf.slice(8, 16);
        assert_eq!(s.read_f64s(), vec![2.0, 3.0]);
        assert_eq!(s.off, 8);
        // The closures see and edit the same elements, in place.
        s.with_f64s_mut(|v| v[1] = 30.0);
        assert_eq!(s.with_f64s(|v| v.to_vec()), vec![2.0, 30.0]);
        assert_eq!(buf.read_f64s()[..4], [1.0, 2.0, 30.0, 4.0]);
    }

    #[test]
    fn fold_combines_in_place_even_within_one_allocation() {
        let buf = MsgBuf::host(Backing::new(48, None), 0, 48);
        buf.write_f64s(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let other = MsgBuf::host(Backing::new(16, None), 0, 16);
        other.write_f64s(&[10.0, 20.0]);
        ReduceOp::Sum.fold(&buf.slice(0, 16), &other);
        assert_eq!(buf.read_f64s(), vec![11.0, 22.0, 3.0, 4.0, 5.0, 6.0]);
        // Overlapping operands of one backing: the source is read as it
        // was before the fold started.
        ReduceOp::Sum.fold(&buf.slice(8, 16), &buf.slice(0, 16));
        assert_eq!(buf.read_f64s(), vec![11.0, 33.0, 25.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn only_a_whole_plain_host_allocation_folds_in_place() {
        let whole = |b: Arc<Backing>| {
            let len = b.logical_len();
            MsgBuf::host(b, 0, len)
        };
        let buf = whole(Backing::new(64, None));
        assert!(buf.folds_in_place(&buf.clone()));
        assert!(
            !buf.folds_in_place(&whole(Backing::new(64, None))),
            "distinct"
        );
        assert!(
            !buf.slice(8, 56).folds_in_place(&buf.slice(8, 56)),
            "offset"
        );
        assert!(
            !buf.slice(0, 32).folds_in_place(&buf.slice(0, 32)),
            "prefix"
        );
        assert!(!buf.folds_in_place(&buf.slice(0, 32)), "lengths differ");
        let pinned = buf.clone().registered();
        assert!(!pinned.folds_in_place(&pinned) && !buf.folds_in_place(&pinned));
        let dev = MsgBuf::device(Backing::new(64, None), 0, 64, 0);
        assert!(!dev.folds_in_place(&dev), "device memory");
        let capped = whole(Backing::new(64, Some(16)));
        assert!(!capped.folds_in_place(&capped), "not fully stored");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_slice_panics() {
        let b = Backing::new(16, None);
        let buf = MsgBuf::host(b, 0, 16);
        let _ = buf.slice(8, 16);
    }

    #[test]
    fn reduce_ops() {
        let mut a = vec![1.0, 5.0, -2.0];
        ReduceOp::Sum.combine(&mut a, &[1.0, 1.0, 1.0]);
        assert_eq!(a, vec![2.0, 6.0, -1.0]);
        ReduceOp::Max.combine(&mut a, &[0.0, 10.0, 0.0]);
        assert_eq!(a, vec![2.0, 10.0, 0.0]);
        ReduceOp::Min.combine(&mut a, &[3.0, 3.0, 3.0]);
        assert_eq!(a, vec![2.0, 3.0, 0.0]);
        ReduceOp::Prod.combine(&mut a, &[2.0, 2.0, 2.0]);
        assert_eq!(a, vec![4.0, 6.0, 0.0]);
    }
}
