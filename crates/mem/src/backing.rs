//! Physical storage behind simulated buffers.
//!
//! Every allocation in the simulation is backed by a [`Backing`]: a byte
//! array with a *logical* length (what the simulated program believes it
//! owns, and what all timing is computed from) and a *physical* length
//! (how many bytes this process actually stores). For correctness tests the
//! two are equal; for Titan-scale experiments (24K×24K matrices on 8,192
//! tasks) the physical length is capped so the experiment fits in RAM while
//! timing — which depends only on logical sizes — is unaffected. This
//! substitution is documented in DESIGN.md §2.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, MutexGuard};

/// Reference-counted storage for one allocation. All byte accesses clip to
/// the physical prefix; logical sizes drive the cost model.
///
/// A backing can be *watched* by [`CowSnapshot`]s (zero-copy message
/// payloads): every mutation first materializes any snapshot overlapping
/// the written range, so snapshots always observe the bytes as they were
/// at snapshot time without eagerly copying them.
pub struct Backing {
    logical_len: u64,
    phys: Mutex<Vec<u8>>,
    /// Live copy-on-write snapshots of ranges of this backing. Only
    /// consulted on mutation, and only when `watcher_count` is nonzero —
    /// the common unwatched write stays a single lock + memcpy.
    watchers: Mutex<Vec<Weak<CowSnapshot>>>,
    /// Fast-path gate: an upper bound on the live entries in `watchers`
    /// (pruned lazily when a mutation walks the list).
    watcher_count: AtomicUsize,
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Backing(logical={}, phys={})",
            self.logical_len,
            self.phys.lock().len()
        )
    }
}

/// `n` f64 elements at byte offset `off` of `backing`: one operand of
/// [`Backing::with_f64_views`].
#[derive(Copy, Clone)]
pub struct F64Span<'a> {
    /// The allocation.
    pub backing: &'a Backing,
    /// Byte offset of the first element.
    pub off: u64,
    /// Element count.
    pub n: usize,
}

/// One backing of a multi-lock request and, once
/// [`lock_phys_in_address_order`] has run, its guard. A slot that repeats
/// an earlier slot's backing stays `None`: the earlier slot holds the lock.
struct PhysSlot<'a> {
    backing: &'a Backing,
    guard: Option<MutexGuard<'a, Vec<u8>>>,
}

impl<'a> PhysSlot<'a> {
    fn new(backing: &'a Backing) -> PhysSlot<'a> {
        PhysSlot {
            backing,
            guard: None,
        }
    }
}

/// Lock the `phys` of every distinct backing in `slots`, lowest address
/// first. This is the only function that ever holds two `phys` locks, so
/// one global order (the address) rules every multi-backing operation —
/// message copies and multi-view kernels running on different partition
/// threads cannot deadlock against each other. No allocation: `copy` calls
/// this on the message hot path.
fn lock_phys_in_address_order(slots: &mut [PhysSlot<'_>]) {
    let addr = |s: &PhysSlot<'_>| s.backing as *const Backing as usize;
    let mut floor = 0usize;
    while let Some(next) = slots.iter().map(addr).filter(|&a| a >= floor).min() {
        let first = slots
            .iter_mut()
            .find(|s| addr(s) == next)
            .expect("minimum comes from a slot");
        first.guard = Some(first.backing.phys.lock());
        floor = next + 1;
    }
}

/// The stored part of the `len` logical bytes at `off` of `phys`.
fn stored(phys: &[u8], off: u64, len: u64) -> &[u8] {
    let plen = phys.len() as u64;
    &phys[off.min(plen) as usize..off.saturating_add(len).min(plen) as usize]
}

/// Land `len` logical bytes at `dst_off` of the locked destination: `src`
/// (the stored part of the source range) first, then zeroes over whatever
/// else the destination stores of the range — bytes past the source's
/// physical prefix are "unknown", and zeroing them keeps truncated runs
/// deterministic. The caller has run the destination's snapshot barrier.
fn land(dphys: &mut [u8], dst_off: u64, len: u64, src: &[u8]) {
    let room = len.min((dphys.len() as u64).saturating_sub(dst_off)) as usize;
    if room == 0 {
        return;
    }
    let dst = &mut dphys[dst_off as usize..dst_off as usize + room];
    let n = room.min(src.len());
    dst[..n].copy_from_slice(&src[..n]);
    dst[n..].fill(0);
}

/// [`land`] when source and destination are ranges of one allocation
/// (they may overlap).
fn land_within(phys: &mut [u8], src_off: u64, dst_off: u64, len: u64) {
    let plen = phys.len() as u64;
    let room = len.min(plen.saturating_sub(dst_off)) as usize;
    if room == 0 {
        return;
    }
    let n = room.min(plen.saturating_sub(src_off) as usize);
    let d = dst_off as usize;
    if n > 0 {
        phys.copy_within(src_off as usize..src_off as usize + n, d);
    }
    phys[d + n..d + room].fill(0);
}

/// How many of the `n` f64s at `off` are stored whole, and how many bytes
/// of the next one (a value straddling the physical boundary).
fn stored_f64s(plen: usize, off: u64, n: usize) -> (usize, usize) {
    let avail = plen.saturating_sub(off as usize);
    let whole = (avail / 8).min(n);
    let part = if whole < n { avail - 8 * whole } else { 0 };
    (whole, part)
}

/// Decode `n` f64s at `off` in one pass; bytes past the stored prefix read
/// as zero (so a value straddling the boundary keeps its stored low bytes).
fn decode_f64s(phys: &[u8], off: u64, n: usize) -> Vec<f64> {
    let (whole, part) = stored_f64s(phys.len(), off, n);
    let mut out = Vec::with_capacity(n);
    if whole > 0 || part > 0 {
        let at = off as usize;
        let src = &phys[at..at + 8 * whole + part];
        let words = src.chunks_exact(8);
        let tail = words.remainder();
        out.extend(words.map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8"))));
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            out.push(f64::from_le_bytes(last));
        }
    }
    out.resize(n, 0.0);
    out
}

/// Encode `vals` at `off` in one pass, clipping to the stored prefix (a
/// value straddling the boundary lands partially).
fn encode_f64s(phys: &mut [u8], off: u64, vals: &[f64]) {
    let (whole, part) = stored_f64s(phys.len(), off, vals.len());
    if whole == 0 && part == 0 {
        return;
    }
    let at = off as usize;
    let (words, tail) = phys[at..at + 8 * whole + part].split_at_mut(8 * whole);
    for (c, v) in words.chunks_exact_mut(8).zip(vals) {
        c.copy_from_slice(&v.to_le_bytes());
    }
    if part > 0 {
        tail.copy_from_slice(&vals[whole].to_le_bytes()[..part]);
    }
}

/// The range `[off, off + 8n)` of `phys`, when an f64 slice can alias it:
/// every byte stored, first byte 8-aligned, little-endian target (the byte
/// path is little-endian by definition). `None` sends the caller down the
/// copying path.
fn f64_range(phys: &[u8], off: u64, n: usize) -> Option<std::ops::Range<usize>> {
    let at = usize::try_from(off).ok()?;
    let end = at.checked_add(n.checked_mul(8)?)?;
    let aligned = (phys.as_ptr() as usize).wrapping_add(at) % std::mem::align_of::<f64>() == 0;
    (cfg!(target_endian = "little") && end <= phys.len() && aligned).then_some(at..end)
}

/// Borrow the stored bytes of `n` f64s at `off` as `&[f64]`
/// (see [`f64_range`] for when that is possible).
fn borrow_f64s(phys: &[u8], off: u64, n: usize) -> Option<&[f64]> {
    let bytes = &phys[f64_range(phys, off, n)?];
    // SAFETY: `align_to` needs the reinterpretation itself to be valid.
    // Every bit pattern is a valid f64 and f64 has no padding, so viewing
    // initialized `u8`s as f64s is sound; the returned slice borrows
    // `phys`, so the bytes outlive it and nothing writes them meanwhile.
    // `f64_range` made the range 8-aligned and a multiple of 8 long, which
    // the check below re-asserts rather than trusts.
    let (head, vals, tail) = unsafe { bytes.align_to::<f64>() };
    assert!(head.is_empty() && tail.is_empty() && vals.len() == n);
    Some(vals)
}

/// Mutable form of [`borrow_f64s`].
fn borrow_f64s_mut(phys: &mut [u8], off: u64, n: usize) -> Option<&mut [f64]> {
    let range = f64_range(phys, off, n)?;
    let bytes = &mut phys[range];
    // SAFETY: as in `borrow_f64s`, in both directions — any f64 the caller
    // stores is eight initialized bytes, so the `Vec<u8>` stays valid. The
    // slice mutably borrows `phys`: no other view of these bytes exists
    // while it lives.
    let (head, vals, tail) = unsafe { bytes.align_to_mut::<f64>() };
    assert!(head.is_empty() && tail.is_empty() && vals.len() == n);
    Some(vals)
}

/// Let `f` edit the `n` f64s at `off` of the locked bytes: in place when an
/// f64 slice can alias them, else decode, edit, encode (clipped to the
/// stored prefix like any write). The caller has run the snapshot barrier.
fn edit_f64s<R>(phys: &mut [u8], off: u64, n: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    if let Some(vals) = borrow_f64s_mut(phys, off, n) {
        return f(vals);
    }
    let mut vals = decode_f64s(phys, off, n);
    let r = f(&mut vals);
    encode_f64s(phys, off, &vals);
    r
}

/// Keep the memory of freed payload-sized buffers mapped (DESIGN.md §5m).
/// glibc's defaults hand a freed 1 MiB chunk back to the OS as soon as
/// about 2 MiB lie free at the top of a heap, so every launch faulted its
/// payload buffers in again one 4 KiB page at a time. From the first
/// allocation of `len` stored bytes that glibc would `mmap` by default
/// (128 KiB and up) on, chunks below `MMAP_THRESHOLD` come from a heap and
/// up to `TRIM_THRESHOLD` free at a heap's top stays mapped; freed memory
/// is reused for any size, and `calloc` still zeroes what it reuses. A
/// process that never stores that much at once (a phys-capped
/// Titan-scale run) keeps the allocator's defaults.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_pages(len: usize) {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD` in glibc's <malloc.h>.
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    const MMAP_THRESHOLD: c_int = 4 << 20;
    const TRIM_THRESHOLD: c_int = 64 << 20;
    // glibc's `DEFAULT_MMAP_THRESHOLD_MIN`.
    const DEFAULT_MMAP_THRESHOLD: usize = 128 << 10;
    if len < DEFAULT_MMAP_THRESHOLD {
        return;
    }
    static ONCE: std::sync::Once = std::sync::Once::new();
    // SAFETY: `mallopt` is declared with glibc's signature, takes two
    // integers by value and changes only the allocator's tunables, under
    // the allocator's own lock; a value it rejects leaves them as they
    // were.
    ONCE.call_once(|| unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD);
    });
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_pages(_len: usize) {}

/// `len` zero bytes, or `None` when the host cannot back them: every
/// allocation of stored bytes goes through here or [`copied`]. Like
/// `vec![0u8; len]` the zeroing is the allocator's, so fresh pages stay
/// untouched until written and reused memory (kept mapped by
/// [`keep_freed_pages`]) is cleared; unlike it, a refusal is returned
/// instead of aborting the process.
fn zeroed(len: u64) -> Option<Vec<u8>> {
    let len = usize::try_from(len).ok()?;
    if len == 0 {
        return Some(Vec::new());
    }
    keep_freed_pages(len);
    let layout = std::alloc::Layout::array::<u8>(len).ok()?;
    // SAFETY: `layout` has a non-zero size.
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
    if ptr.is_null() {
        return None;
    }
    // SAFETY: `ptr` was just allocated by the global allocator with
    // `layout` — `len` bytes at alignment 1, which is a `Vec<u8>` of
    // capacity `len` — and all `len` bytes are initialized (zero).
    Some(unsafe { Vec::from_raw_parts(ptr, len, len) })
}

/// [`zeroed`]'s copy twin: a buffer holding `src`, or `None` when the host
/// cannot back it.
fn copied(src: &[u8]) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    buf.try_reserve_exact(src.len()).ok()?;
    buf.extend_from_slice(src);
    Some(buf)
}

/// The panic of an allocation of stored bytes the host cannot back: a
/// simulated rank's panic fails its run, where the allocator's abort would
/// end the whole process.
fn refuse(len: u64) -> ! {
    panic!("cannot allocate a {len}-byte buffer: the host cannot back it")
}

impl Backing {
    /// Allocate `logical_len` bytes, storing at most `phys_cap` of them
    /// physically (`None` = store everything), all zero. Panics, naming
    /// the size, when the host cannot back the stored bytes.
    pub fn new(logical_len: u64, phys_cap: Option<u64>) -> Arc<Backing> {
        let phys_len = match phys_cap {
            Some(cap) => logical_len.min(cap),
            None => logical_len,
        };
        let phys = zeroed(phys_len).unwrap_or_else(|| refuse(phys_len));
        Arc::new(Backing {
            logical_len,
            phys: Mutex::new(phys),
            watchers: Mutex::new(Vec::new()),
            watcher_count: AtomicUsize::new(0),
        })
    }

    /// Fill every stored byte with 0xFF (an f64 NaN): what debug builds do
    /// to scratch whose contents are unspecified, so a consumer that reads
    /// before it writes fails a test.
    pub(crate) fn poison(&mut self) {
        self.phys.get_mut().fill(0xFF);
    }

    /// The size the simulated program sees.
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// How many bytes are physically stored.
    pub fn phys_len(&self) -> u64 {
        self.phys.lock().len() as u64
    }

    /// Write `data` at `off`, clipping to the physical prefix.
    pub fn write(&self, off: u64, data: &[u8]) {
        debug_assert!(off + data.len() as u64 <= self.logical_len);
        self.materialize_watchers(off, data.len() as u64, true);
        land(&mut self.phys.lock(), off, data.len() as u64, data);
    }

    /// Take a copy-on-write snapshot of `len` bytes at `off`: the snapshot
    /// observes the bytes as of now, but nothing is copied unless (until)
    /// the watched range is overwritten. Dropping the snapshot cancels the
    /// watch.
    pub fn snapshot(self: &Arc<Backing>, off: u64, len: u64) -> Arc<CowSnapshot> {
        debug_assert!(off + len <= self.logical_len);
        let snap = Arc::new(CowSnapshot {
            backing: self.clone(),
            off,
            len,
            owned: Mutex::new(None),
        });
        self.watchers.lock().push(Arc::downgrade(&snap));
        self.watcher_count.fetch_add(1, Ordering::Release);
        snap
    }

    /// Before mutating `[off, off+len)`: give every live snapshot that
    /// overlaps the range its private copy of the bytes it watches, and
    /// prune dead entries. Must be called before taking the `phys` lock.
    /// `overwrite` says the caller replaces every byte of the range
    /// without reading it, which is what licenses the steal below; an
    /// in-place view reads before it writes and passes `false`.
    fn materialize_watchers(&self, off: u64, len: u64, overwrite: bool) {
        if self.watcher_count.load(Ordering::Acquire) == 0 || len == 0 {
            return;
        }
        let mut watchers = self.watchers.lock();
        let mut remaining: Vec<Weak<CowSnapshot>> = Vec::with_capacity(watchers.len());
        let mut hit: Vec<Arc<CowSnapshot>> = Vec::new();
        for w in watchers.drain(..) {
            let Some(snap) = w.upgrade() else {
                continue; // snapshot dropped: unwatch
            };
            if snap.off >= off + len || off >= snap.off + snap.len {
                remaining.push(w); // no overlap: still watching
            } else {
                hit.push(snap);
            }
        }
        let mut phys = self.phys.lock();
        let plen = phys.len() as u64;
        // Full-overwrite steal: the write is about to replace every stored
        // byte, and exactly one snapshot — watching the whole stored
        // prefix — needs the old ones. Hand it the Vec outright and let
        // the writer rebuild from fresh zeroes: same bytes everywhere, and
        // the double-buffer swap of a ping-pong send loop never memcpys.
        if overwrite
            && hit.len() == 1
            && off == 0
            && len >= plen
            && hit[0].off == 0
            && hit[0].len >= plen
        {
            let snap = hit.pop().expect("length checked");
            let mut owned = snap.owned.lock();
            if owned.is_none() {
                let fresh = zeroed(plen).unwrap_or_else(|| refuse(plen));
                *owned = Some(std::mem::replace(&mut *phys, fresh));
            }
        }
        for snap in hit {
            // Overlap: capture the physically stored prefix of the watched
            // window. Bytes past the prefix read as zero both now and after
            // the write, so storing only the prefix preserves semantics
            // without ballooning phys-capped (Titan-scale) runs.
            // (A window wholly past the prefix stores nothing.)
            let start = snap.off.min(plen) as usize;
            let n = (plen - start as u64).min(snap.len) as usize;
            let mut owned = snap.owned.lock();
            if owned.is_none() {
                *owned = Some(copied(&phys[start..start + n]).unwrap_or_else(|| refuse(n as u64)));
            }
            // materialized: no longer needs watching
        }
        *watchers = remaining;
        self.watcher_count.store(watchers.len(), Ordering::Release);
    }

    /// Read into `out` from `off`, clipping to the physical prefix
    /// (unstored bytes read as 0).
    pub fn read(&self, off: u64, out: &mut [u8]) {
        debug_assert!(off + out.len() as u64 <= self.logical_len);
        let len = out.len() as u64;
        land(out, 0, len, stored(&self.phys.lock(), off, len));
    }

    /// Copy `len` logical bytes from `src@src_off` to `dst@dst_off`,
    /// moving whatever both sides physically store.
    pub fn copy(src: &Backing, src_off: u64, dst: &Backing, dst_off: u64, len: u64) {
        debug_assert!(src_off + len <= src.logical_len);
        debug_assert!(dst_off + len <= dst.logical_len);
        if len == 0 {
            return;
        }
        if std::ptr::eq(src, dst) {
            // Self-copy (e.g. aliased regions resolve to one backing): one
            // lock. The barrier must not steal — the bytes about to be
            // replaced may be the very bytes being copied.
            dst.materialize_watchers(dst_off, len, false);
            return land_within(&mut dst.phys.lock(), src_off, dst_off, len);
        }
        dst.materialize_watchers(dst_off, len, true);
        // Two ranks that exchange halos out of and into one allocation
        // each run `copy(a → b)` and `copy(b → a)` on different partition
        // threads: source-then-destination order would be ABBA.
        let mut slots = [PhysSlot::new(src), PhysSlot::new(dst)];
        lock_phys_in_address_order(&mut slots);
        let [s, d] = slots;
        let sphys = s.guard.expect("distinct backings: both locked");
        let mut dphys = d.guard.expect("distinct backings: both locked");
        land(&mut dphys, dst_off, len, stored(&sphys, src_off, len));
    }

    /// Write a slice of `f64`s starting at byte offset `off`, serializing
    /// straight into the locked physical buffer in one pass.
    pub fn write_f64s(&self, off: u64, vals: &[f64]) {
        debug_assert!(off + 8 * vals.len() as u64 <= self.logical_len);
        self.materialize_watchers(off, 8 * vals.len() as u64, true);
        encode_f64s(&mut self.phys.lock(), off, vals);
    }

    /// Read `n` `f64`s starting at byte offset `off` (one pass, one
    /// allocation).
    pub fn read_f64s(&self, off: u64, n: usize) -> Vec<f64> {
        debug_assert!(off + 8 * n as u64 <= self.logical_len);
        decode_f64s(&self.phys.lock(), off, n)
    }

    /// Run `f` on the `n` f64s at byte offset `off`, borrowed in place
    /// under the `phys` lock when the range is fully stored and 8-aligned,
    /// else decoded into a temporary (phys-capped backings, odd offsets).
    /// `f` must not touch this backing again: the lock is not reentrant.
    pub fn with_f64s<R>(&self, off: u64, n: usize, f: impl FnOnce(&[f64]) -> R) -> R {
        debug_assert!(off + 8 * n as u64 <= self.logical_len);
        let phys = self.phys.lock();
        if let Some(vals) = borrow_f64s(&phys, off, n) {
            return f(vals);
        }
        let vals = decode_f64s(&phys, off, n);
        drop(phys);
        f(&vals)
    }

    /// Mutable form of [`Backing::with_f64s`]: `f` edits the stored values
    /// in place. The snapshot barrier runs first, exactly as for `write`
    /// (minus the full-overwrite steal — `f` may read what it replaces),
    /// so `CowSnapshot`s keep their snapshot-time bytes.
    pub fn with_f64s_mut<R>(&self, off: u64, n: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
        debug_assert!(off + 8 * n as u64 <= self.logical_len);
        self.materialize_watchers(off, 8 * n as u64, false);
        edit_f64s(&mut self.phys.lock(), off, n, f)
    }

    /// Run `f` on several read views at once (`f`'s slices are in `reads`
    /// order). Distinct backings are locked in address order; see
    /// [`Backing::with_f64s`] for when a view is a borrow.
    pub fn with_f64_views<R>(reads: &[F64Span<'_>], f: impl FnOnce(&[&[f64]]) -> R) -> R {
        Backing::views(reads, None, |srcs, _| f(srcs))
    }

    /// Run `f` on read views plus one write view — a kernel reading some
    /// arrays and updating another in place. A read view that shares the
    /// write view's allocation (a red-black half-sweep, §3.8-aliased
    /// buffers) is handed to `f` as a private copy taken before any edit,
    /// so `f` sees what a copy-out/copy-back kernel would have seen.
    pub fn with_f64_views_mut<R>(
        reads: &[F64Span<'_>],
        write: F64Span<'_>,
        f: impl FnOnce(&[&[f64]], &mut [f64]) -> R,
    ) -> R {
        Backing::views(reads, Some(write), f)
    }

    fn views<R>(
        reads: &[F64Span<'_>],
        write: Option<F64Span<'_>>,
        f: impl FnOnce(&[&[f64]], &mut [f64]) -> R,
    ) -> R {
        for s in reads.iter().chain(&write) {
            debug_assert!(s.off + 8 * s.n as u64 <= s.backing.logical_len);
        }
        // Barrier before the borrow: it takes `phys` itself, and once `f`
        // holds a `&mut [f64]` there is no later point to run it at.
        if let Some(w) = &write {
            w.backing.materialize_watchers(w.off, 8 * w.n as u64, false);
        }
        let mut slots: Vec<PhysSlot<'_>> = reads
            .iter()
            .chain(&write)
            .map(|s| PhysSlot::new(s.backing))
            .collect();
        lock_phys_in_address_order(&mut slots);
        let holder = |slots: &[PhysSlot<'_>], b: &Backing| {
            slots
                .iter()
                .position(|s| std::ptr::eq(s.backing, b))
                .expect("every span has a slot")
        };
        // Private copies: sources sharing the destination's allocation,
        // and sources no f64 slice can alias.
        let shares_write = |s: &F64Span<'_>| {
            write
                .as_ref()
                .is_some_and(|w| std::ptr::eq(w.backing, s.backing))
        };
        let owned: Vec<Option<Vec<f64>>> = reads
            .iter()
            .map(|s| {
                let phys = slots[holder(&slots, s.backing)]
                    .guard
                    .as_ref()
                    .expect("first slot of a backing holds its lock");
                (shares_write(s) || f64_range(phys, s.off, s.n).is_none())
                    .then(|| decode_f64s(phys, s.off, s.n))
            })
            .collect();
        // Detach the destination's guard: from here on no source borrows
        // from it (those were just copied), so it can be borrowed mutably
        // while the rest are borrowed shared.
        let mut wguard = write.as_ref().map(|w| {
            let at = holder(&slots, w.backing);
            slots[at]
                .guard
                .take()
                .expect("first slot of a backing holds its lock")
        });
        let srcs: Vec<&[f64]> = reads
            .iter()
            .zip(&owned)
            .map(|(s, own)| match own {
                Some(vals) => vals.as_slice(),
                None => {
                    let phys = slots[holder(&slots, s.backing)]
                        .guard
                        .as_ref()
                        .expect("not the destination's backing: still held");
                    borrow_f64s(phys, s.off, s.n).expect("range checked above")
                }
            })
            .collect();
        let (Some(w), Some(phys)) = (write, wguard.as_mut()) else {
            return f(&srcs, &mut []);
        };
        edit_f64s(phys, w.off, w.n, |vals| f(&srcs, vals))
    }

    /// Number of f64 elements that are physically stored from offset 0.
    pub fn phys_f64_len(&self) -> usize {
        (self.phys_len() / 8) as usize
    }
}

/// A copy-on-write view of `len` bytes at `off` in a [`Backing`], created
/// by [`Backing::snapshot`]. Semantically an immutable copy taken at
/// snapshot time; physically it aliases the live backing until (unless)
/// the watched range is overwritten, at which point the writer pays for
/// one private copy of the window's physically stored prefix. Readonly
/// send buffers and fused intra-node transfers therefore never allocate.
pub struct CowSnapshot {
    backing: Arc<Backing>,
    off: u64,
    len: u64,
    /// `Some(prefix)` once materialized: the physically stored prefix of
    /// the window as of snapshot time (bytes past it read as zero).
    owned: Mutex<Option<Vec<u8>>>,
}

impl std::fmt::Debug for CowSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CowSnapshot(off={}, len={}, materialized={})",
            self.off,
            self.len,
            self.owned.lock().is_some()
        )
    }
}

impl CowSnapshot {
    /// Window length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for an empty window.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the writer ever had to pay for a private copy.
    pub fn is_materialized(&self) -> bool {
        self.owned.lock().is_some()
    }

    /// Read the snapshot into `out` (clipped like [`Backing::read`]:
    /// bytes beyond the stored prefix are zero).
    ///
    /// Lock order `phys → owned`, as in the writer's barrier, and `owned`
    /// is tested only under `phys`: while a reader holds it, an
    /// unmaterialized snapshot's bytes are still the live ones, because a
    /// writer's barrier and its edit both need that lock. Between a test
    /// and a later lock, a writer on another partition thread fits both.
    pub fn read(&self, off: u64, out: &mut [u8]) {
        debug_assert!(off + out.len() as u64 <= self.len);
        let phys = self.backing.phys.lock();
        let owned = self.owned.lock();
        let src = match &*owned {
            Some(data) => stored(data, off, out.len() as u64),
            None => stored(&phys, self.off + off, out.len() as u64),
        };
        land(out, 0, out.len() as u64, src);
    }

    /// Copy `len` bytes of the snapshot into `dst@dst_off`, with
    /// [`Backing::copy`] truncation semantics (the destination's stored
    /// range past the snapshot's prefix is zeroed). Untouched since the
    /// snapshot, this is a straight backing-to-backing copy; the source's
    /// `phys` is taken before `owned` is tested (see [`CowSnapshot::read`])
    /// and the bytes move under that same lock.
    pub fn copy_to(&self, dst: &Backing, dst_off: u64, len: u64) {
        debug_assert!(len <= self.len);
        debug_assert!(dst_off + len <= dst.logical_len);
        if len == 0 {
            return;
        }
        // The destination may itself be watched — by this very snapshot
        // when it is the source's backing, which the barrier then
        // materializes against the pre-write bytes.
        dst.materialize_watchers(dst_off, len, true);
        let mut slots = [PhysSlot::new(&self.backing), PhysSlot::new(dst)];
        lock_phys_in_address_order(&mut slots);
        let [s, d] = slots;
        let mut sphys = s.guard.expect("the first slot of a backing locks it");
        let owned = self.owned.lock();
        match (&*owned, d.guard) {
            (Some(data), Some(mut dphys)) => land(&mut dphys, dst_off, len, data),
            (Some(data), None) => land(&mut sphys, dst_off, len, data),
            (None, Some(mut dphys)) => {
                land(&mut dphys, dst_off, len, stored(&sphys, self.off, len))
            }
            (None, None) => land_within(&mut sphys, self.off, dst_off, len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_buffer_the_host_cannot_back_is_a_panic_naming_its_size() {
        // 2^60 bytes exceed any host's address space.
        let err = std::panic::catch_unwind(|| Backing::new(1 << 60, None))
            .expect_err("no host backs 2^60 bytes");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("1152921504606846976-byte"), "{msg}");
        // A capped backing stores only its prefix, so it still fits.
        assert_eq!(Backing::new(1 << 60, Some(16)).phys_len(), 16);
        assert_eq!(Backing::new(0, None).phys_len(), 0);
    }

    #[test]
    fn full_backing_round_trips() {
        let b = Backing::new(64, None);
        b.write(8, &[1, 2, 3, 4]);
        let mut out = [0u8; 6];
        b.read(7, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn truncated_backing_clips_silently() {
        let b = Backing::new(1 << 20, Some(16));
        assert_eq!(b.logical_len(), 1 << 20);
        assert_eq!(b.phys_len(), 16);
        b.write(8, &[7; 16]); // only 8 bytes land
        let mut out = [0u8; 16];
        b.read(8, &mut out);
        assert_eq!(&out[..8], &[7; 8]);
        assert_eq!(&out[8..], &[0; 8]);
        // Entirely beyond the physical prefix: all zeros, no panic.
        b.write(1000, &[9; 4]);
        let mut far = [1u8; 4];
        b.read(1000, &mut far);
        assert_eq!(far, [0; 4]);
    }

    #[test]
    fn copy_between_backings() {
        let a = Backing::new(32, None);
        let b = Backing::new(32, None);
        a.write(0, &(0u8..32).collect::<Vec<_>>());
        Backing::copy(&a, 4, &b, 8, 10);
        let mut out = [0u8; 10];
        b.read(8, &mut out);
        assert_eq!(out, [4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
    }

    #[test]
    fn copy_zeroes_tail_when_source_truncated() {
        let a = Backing::new(32, Some(4));
        let b = Backing::new(32, None);
        a.write(0, &[5; 4]);
        // Pre-dirty destination to prove the tail is zeroed.
        b.write(0, &[9; 16]);
        Backing::copy(&a, 0, &b, 0, 16);
        let mut out = [0u8; 16];
        b.read(0, &mut out);
        assert_eq!(&out[..4], &[5; 4]);
        assert_eq!(&out[4..], &[0; 12]);
    }

    #[test]
    fn self_copy_through_shared_backing() {
        let a = Backing::new(32, None);
        a.write(0, &(0u8..32).collect::<Vec<_>>());
        Backing::copy(&a, 0, &a, 16, 8);
        let mut out = [0u8; 8];
        a.read(16, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn self_copy_overlapping_either_way() {
        let a = Backing::new(16, None);
        a.write(0, &(0u8..16).collect::<Vec<_>>());
        Backing::copy(&a, 0, &a, 4, 8); // forward overlap
        let mut out = [0u8; 16];
        a.read(0, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15]);
        Backing::copy(&a, 8, &a, 6, 8); // backward overlap
        a.read(0, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 0, 1, 4, 5, 6, 7, 12, 13, 14, 15, 14, 15]);
    }

    #[test]
    fn self_copy_zeroes_tail_past_the_stored_prefix() {
        let a = Backing::new(64, Some(16));
        a.write(0, &[7; 16]);
        // Source range runs off the stored prefix after 4 bytes.
        Backing::copy(&a, 12, &a, 0, 12);
        let mut out = [0u8; 16];
        a.read(0, &mut out);
        assert_eq!(&out[..4], &[7; 4]);
        assert_eq!(&out[4..12], &[0; 8], "unknown source bytes land as zero");
        assert_eq!(&out[12..], &[7; 4]);
    }

    #[test]
    fn whole_range_self_copy_under_a_snapshot_keeps_the_bytes() {
        // Every condition of the full-overwrite steal holds except that
        // the "overwrite" reads what it replaces.
        let a = Backing::new(16, None);
        a.write(0, &[5; 16]);
        let snap = a.snapshot(0, 16);
        Backing::copy(&a, 0, &a, 0, 16);
        let mut out = [0u8; 16];
        a.read(0, &mut out);
        assert_eq!(out, [5; 16]);
        snap.read(0, &mut out);
        assert_eq!(out, [5; 16]);
    }

    #[test]
    fn f64_round_trip() {
        let b = Backing::new(80, None);
        let vals = [1.5, -2.25, 3.125];
        b.write_f64s(16, &vals);
        assert_eq!(b.read_f64s(16, 3), vals);
        assert_eq!(b.phys_f64_len(), 10);
    }

    #[test]
    fn zero_length_copy_is_noop() {
        let a = Backing::new(8, None);
        let b = Backing::new(8, None);
        Backing::copy(&a, 8, &b, 8, 0); // offsets at end, len 0: legal
    }

    #[test]
    fn snapshot_aliases_until_overwritten() {
        let a = Backing::new(32, None);
        a.write(0, &[1; 16]);
        let snap = a.snapshot(0, 16);
        assert!(!snap.is_materialized(), "snapshot must not copy eagerly");
        let dst = Backing::new(32, None);
        snap.copy_to(&dst, 0, 16);
        assert!(
            !snap.is_materialized(),
            "copy-out of a clean range is zero-copy"
        );
        let mut out = [0u8; 16];
        dst.read(0, &mut out);
        assert_eq!(out, [1; 16]);
    }

    #[test]
    fn snapshot_preserves_bytes_across_overwrite() {
        let a = Backing::new(32, None);
        a.write(0, &[1; 16]);
        let snap = a.snapshot(0, 16);
        a.write(4, &[9; 8]); // sender reuses its buffer
        assert!(snap.is_materialized());
        let mut out = [0u8; 16];
        snap.read(0, &mut out);
        assert_eq!(out, [1; 16], "snapshot must show snapshot-time bytes");
        let dst = Backing::new(32, None);
        snap.copy_to(&dst, 0, 16);
        let mut got = [0u8; 16];
        dst.read(0, &mut got);
        assert_eq!(got, [1; 16]);
    }

    #[test]
    fn non_overlapping_write_keeps_snapshot_lazy() {
        let a = Backing::new(64, None);
        a.write(0, &[3; 8]);
        let snap = a.snapshot(0, 8);
        a.write(32, &[7; 8]); // disjoint range
        assert!(!snap.is_materialized());
        a.write_f64s(16, &[1.5]); // still disjoint
        assert!(!snap.is_materialized());
        let mut out = [0u8; 8];
        snap.read(0, &mut out);
        assert_eq!(out, [3; 8]);
    }

    #[test]
    fn dropped_snapshot_stops_watching() {
        let a = Backing::new(32, None);
        let snap = a.snapshot(0, 32);
        drop(snap);
        a.write(0, &[1; 32]); // prunes the dead watcher
        assert_eq!(a.watcher_count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn snapshot_of_truncated_backing_stores_only_prefix() {
        let a = Backing::new(1 << 20, Some(8));
        a.write(0, &[5; 8]);
        let snap = a.snapshot(0, 1 << 20);
        a.write(0, &[6; 8]);
        assert!(snap.is_materialized());
        let mut out = [0u8; 16];
        snap.read(0, &mut out);
        assert_eq!(&out[..8], &[5; 8]);
        assert_eq!(&out[8..], &[0; 8], "beyond phys prefix reads as zero");
        // copy_to zeroes the destination tail like Backing::copy.
        let dst = Backing::new(32, None);
        dst.write(0, &[9; 32]);
        snap.copy_to(&dst, 0, 32);
        let mut got = [0u8; 32];
        dst.read(0, &mut got);
        assert_eq!(&got[..8], &[5; 8]);
        assert_eq!(&got[8..], &[0; 24]);
    }

    #[test]
    fn snapshot_self_copy_within_one_backing() {
        let a = Backing::new(32, None);
        a.write(0, &(0u8..32).collect::<Vec<_>>());
        let snap = a.snapshot(0, 8);
        // Destination overlaps the watched range on the same backing.
        snap.copy_to(&a, 4, 8);
        let mut out = [0u8; 12];
        a.read(0, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn full_overwrite_steals_into_sole_snapshot() {
        let a = Backing::new(16, None);
        a.write(0, &[1; 16]);
        let snap = a.snapshot(0, 16);
        // The write replaces every stored byte: the snapshot takes
        // ownership of the old Vec instead of copying it.
        a.write(0, &[2; 16]);
        assert!(snap.is_materialized());
        let mut old = [0u8; 16];
        snap.read(0, &mut old);
        assert_eq!(old, [1; 16], "snapshot keeps pre-write bytes");
        let mut new = [0u8; 16];
        a.read(0, &mut new);
        assert_eq!(new, [2; 16], "backing holds post-write bytes");
    }

    #[test]
    fn full_overwrite_steal_with_short_write_zeroes_tail() {
        // `copy` with a truncated source covers the whole destination
        // range but lands fewer bytes; the steal must leave the unwritten
        // remainder zeroed, exactly like the copying path.
        let src = Backing::new(16, Some(4));
        src.write(0, &[7; 4]);
        let dst = Backing::new(16, None);
        dst.write(0, &[1; 16]);
        let snap = dst.snapshot(0, 16);
        Backing::copy(&src, 0, &dst, 0, 16);
        assert!(snap.is_materialized());
        let mut old = [0u8; 16];
        snap.read(0, &mut old);
        assert_eq!(old, [1; 16]);
        let mut new = [0u8; 16];
        dst.read(0, &mut new);
        assert_eq!(&new[..4], &[7; 4]);
        assert_eq!(&new[4..], &[0; 12], "tail past truncated source is zero");
    }

    #[test]
    fn partial_overwrite_does_not_steal() {
        let a = Backing::new(16, None);
        a.write(0, &(0u8..16).collect::<Vec<_>>());
        let snap = a.snapshot(0, 16);
        a.write(4, &[9; 4]); // covers part of the range: copying path
        assert!(snap.is_materialized());
        let mut old = [0u8; 16];
        snap.read(0, &mut old);
        assert_eq!(old, (0u8..16).collect::<Vec<_>>().as_slice());
        let mut new = [0u8; 16];
        a.read(0, &mut new);
        assert_eq!(&new[..4], &[0, 1, 2, 3], "untouched prefix survives");
        assert_eq!(&new[4..8], &[9; 4]);
        assert_eq!(&new[8..], &(8u8..16).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn full_overwrite_with_two_watchers_preserves_both() {
        let a = Backing::new(8, None);
        a.write(0, &[3; 8]);
        let s1 = a.snapshot(0, 8);
        let s2 = a.snapshot(0, 8);
        a.write(0, &[4; 8]); // two claimants: nobody steals, both copy
        for s in [&s1, &s2] {
            assert!(s.is_materialized());
            let mut old = [0u8; 8];
            s.read(0, &mut old);
            assert_eq!(old, [3; 8]);
        }
        let mut new = [0u8; 8];
        a.read(0, &mut new);
        assert_eq!(new, [4; 8]);
    }

    #[test]
    fn narrow_snapshot_is_not_stolen_by_full_overwrite() {
        let a = Backing::new(16, None);
        a.write(0, &(0u8..16).collect::<Vec<_>>());
        let snap = a.snapshot(4, 4); // watches a slice, not the prefix
        a.write(0, &[9; 16]);
        assert!(snap.is_materialized());
        let mut old = [0u8; 4];
        snap.read(0, &mut old);
        assert_eq!(old, [4, 5, 6, 7]);
        let mut new = [0u8; 16];
        a.read(0, &mut new);
        assert_eq!(new, [9; 16]);
    }

    /// A payload-sized length: what the allocator now keeps when freed
    /// and hands out again.
    const PAYLOAD: u64 = 1 << 20;

    #[test]
    fn a_backing_over_memory_a_dropped_owner_wrote_reads_all_zero() {
        let pool = crate::ReducePool::new();
        let scratch = pool.take(PAYLOAD);
        scratch.write_f64s(0, &[f64::NAN; 4]);
        let a = Backing::new(PAYLOAD, None);
        a.write(0, &vec![0xAB; PAYLOAD as usize]);
        drop((a, scratch, pool));
        for b in [Backing::new(PAYLOAD, None), Backing::new(PAYLOAD, None)] {
            assert!(
                b.phys.lock().iter().all(|&x| x == 0),
                "no written byte, poison or NaN survives the reuse"
            );
        }
    }

    #[test]
    fn a_snapshot_materialized_over_reused_memory_keeps_its_bytes() {
        let len = PAYLOAD;
        let pattern: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let a = Backing::new(len, None);
        a.write(0, &pattern);
        let junk = Backing::new(len, None);
        junk.write(0, &vec![0xCD; len as usize]);
        drop(junk);
        // A partial overwrite copies the window.
        let snap = a.snapshot(0, len);
        a.write(8, &[0xEE; 8]);
        assert!(snap.is_materialized());
        let mut out = vec![0u8; len as usize];
        snap.read(0, &mut out);
        assert!(out == pattern, "snapshot-time bytes, not the junk");
        drop(snap);
        // A full overwrite steals into the sole snapshot and rebuilds the
        // backing zeroed before the write lands.
        let snap = a.snapshot(0, len);
        a.write(0, &vec![0x11; len as usize]);
        snap.read(0, &mut out);
        assert!(out[..8] == pattern[..8] && out[8..16] == [0xEE; 8] && out[16..] == pattern[16..]);
        a.read(0, &mut out);
        assert!(out.iter().all(|&x| x == 0x11));
    }

    #[test]
    fn write_f64s_straddling_phys_boundary() {
        let a = Backing::new(80, Some(20)); // 2.5 f64 slots stored
        a.write_f64s(0, &[1.0, 2.0, 3.0]);
        assert_eq!(a.read_f64s(0, 2), vec![1.0, 2.0]);
        // The third value landed partially (4 of 8 bytes).
        let mut raw = [0u8; 8];
        a.read(16, &mut raw);
        assert_eq!(&raw[..4], &3.0f64.to_le_bytes()[..4]);
        assert_eq!(&raw[4..], &[0; 4]);
    }
}
