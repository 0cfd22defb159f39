//! Process-level plumbing: environment scrubbing, CPU pinning, resource
//! counters and the counting allocator. Linux only (the `/proc` files and
//! the libc calls below); no crates beyond `std`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Remove every `IMPACC_*` variable so the numbers describe the default
/// configuration. Returns the names removed. Call before any thread exists.
pub fn strip_impacc_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("IMPACC_"))
        .collect();
    names.sort();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Words in the affinity masks passed to the kernel (1,024 CPUs).
const MASK_WORDS: usize = 16;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw
    longs: [i64; 14],
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Pin the whole process to the first CPU of its affinity mask and return
/// that CPU's id. The baton engine runs one actor thread at a time, so
/// cross-core wake-ups are pure scheduler cost and the main source of
/// run-to-run spread. Call before spawning anything: threads inherit the
/// mask. `None` when the kernel refuses (the run is then unpinned).
pub fn pin_to_first_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
    let bit = bits.trailing_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the byte length passed and
    // names a CPU the process is already allowed on.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(word * 64 + bit)
}

/// CPU time and context switches of the whole process so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Rusage {
    /// `getrusage(RUSAGE_SELF)`: sums live and already-joined threads.
    pub fn now() -> Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage`; 0 is RUSAGE_SELF.
        let rc = unsafe { getrusage(0, &mut raw) };
        if rc != 0 {
            return Rusage::default();
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Rusage {
            user_s: secs(&raw.utime),
            sys_s: secs(&raw.stime),
            ctx_switches: (raw.longs[12] + raw.longs[13]) as u64,
        }
    }

    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// The number after `name` in a `/proc/self/status` image: a `kB` field, or
/// a bare count such as `Threads`.
fn status_field(status: &[u8], name: &[u8]) -> Option<u64> {
    let at = status.windows(name.len()).position(|w| w == name)?;
    let digits = status[at + name.len()..]
        .iter()
        .skip_while(|b| !b.is_ascii_digit())
        .take_while(|b| b.is_ascii_digit());
    Some(digits.fold(0, |n, d| n * 10 + u64::from(d - b'0')))
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read("/proc/self/status")
        .ok()
        .and_then(|status| status_field(&status, b"VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// 1-, 5- and 15-minute load averages.
pub fn loadavg() -> [f64; 3] {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut it = text.split_whitespace().map(|t| t.parse().unwrap_or(0.0));
    [0; 3].map(|_| it.next().unwrap_or(0.0))
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Samples the live thread count every 5 ms for `proc.threads_peak`. Only
/// the traced pass runs one: end-to-end numbers are measured without it.
/// A sample allocates nothing (one `pread` of an already open file into a
/// buffer on the stack), so the sampler leaves the allocation counts of the
/// repetitions it watches alone.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (s, p) = (stop.clone(), peak.clone());
        let status = File::open("/proc/self/status");
        let handle = std::thread::spawn(move || {
            let mut image = [0u8; 4096];
            while !s.load(Ordering::Relaxed) {
                let len = status
                    .as_ref()
                    .map_or(0, |f| f.read_at(&mut image, 0).unwrap_or(0));
                let threads = status_field(&image[..len], b"Threads:").unwrap_or(0);
                p.fetch_max(threads, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        ThreadSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stop sampling and return the highest count seen (the sampler's own
    /// thread included).
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("thread sampler never panics");
        }
        self.peak.load(Ordering::Relaxed)
    }
}

/// Counts every allocation of the process. Relaxed atomics: the totals
/// publish nothing else, and the process is pinned to one CPU so the
/// shared cache line never bounces.
pub struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn alloc_totals() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_are_read_by_name() {
        let status = b"Name:\tx\nVmHWM:\t    4176 kB\nThreads:\t66\nvoluntary_ctxt_switches:\t9\n";
        assert_eq!(status_field(status, b"VmHWM:"), Some(4176));
        assert_eq!(status_field(status, b"Threads:"), Some(66));
        assert_eq!(status_field(status, b"VmSwap:"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
