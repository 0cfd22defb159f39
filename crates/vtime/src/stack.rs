//! Actor stacks: where a blocking actor's body runs between grants.
//!
//! A [`Fiber`] is a body on a stack of its own — an anonymous mapping with
//! a guard page below it — that the thread driving the run switches into
//! and back out of. [`Fiber::resume`] runs the body until it calls
//! [`Yielder::suspend`] (or finishes); `suspend` returns when the fiber is
//! resumed again. A switch saves and restores the callee-saved registers
//! of the x86_64 System V ABI and the stack pointer, nothing else: no
//! system call, no thread, no lock.
//!
//! This module is the only `unsafe` code in the crate. What keeps it sound:
//! a fiber is resumed only through `&mut Fiber`, on the thread it first ran
//! on; a suspension is only ever taken by the body currently running on
//! the calling thread (the thread-local `CURRENT`), and never while that
//! thread unwinds; a mapping holding live frames is never unmapped.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "impacc-vtime runs blocking actors on stacks of their own (crates/vtime/src/stack.rs), \
     which switches x86_64 System V registers and maps memory through Linux: \
     x86_64 Linux is the only supported target"
);

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::Arc;

/// A body to run on a fiber's stack.
pub(crate) type Entry = Box<dyn FnOnce() + Send + 'static>;

/// How a body ended: returned, or panicked with this payload.
pub(crate) type Outcome = Result<(), Box<dyn Any + Send + 'static>>;

/// How a [`Fiber::resume`] came back.
pub(crate) enum Resumed {
    /// The body called [`Yielder::suspend`].
    Suspended,
    /// The body returned (`Ok`) or panicked (`Err`, the payload).
    Finished(Outcome),
}

/// What the two sides of a switch share. `#[repr(C)]` with `runner_sp`
/// first: the address of `runner_sp` is the address of the link, which is
/// how [`enter`] receives its argument (see [`Fiber::new`]).
#[repr(C)]
struct Link {
    /// The runner's stack pointer while the body runs.
    runner_sp: UnsafeCell<*mut u8>,
    /// The body's stack pointer while it is switched out.
    body_sp: UnsafeCell<*mut u8>,
    /// The body, until its first resume moves it onto the stack.
    entry: UnsafeCell<Option<Entry>>,
    /// How the body ended, left by `enter` before its last switch out.
    outcome: UnsafeCell<Option<Outcome>>,
}

// SAFETY: every cell of a `Link` is touched only by the thread that runs
// its fiber, while it does: `Fiber::resume` takes `&mut Fiber` and checks
// the thread it runs on; `Yielder::suspend` checks that its link is the
// one `CURRENT` names on the calling thread; `enter` runs on the fiber's
// own stack; `Fiber::drop` owns the fiber. `entry` is `Send` and is only
// moved, never shared; the stack pointers and `outcome` are plain data.
unsafe impl Send for Link {}
// SAFETY: see `Send`: shared `&Link`s never touch a cell concurrently.
unsafe impl Sync for Link {}

thread_local! {
    /// The link of the body this thread is running right now (null on the
    /// thread's own stack). Its address also names the thread.
    static CURRENT: Cell<*const Link> = const { Cell::new(ptr::null()) };
}

/// An address that identifies the calling thread while it lives.
fn this_thread() -> *const () {
    CURRENT.with(|c| ptr::from_ref(c).cast())
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum State {
    /// Mapped, body not yet entered.
    Fresh,
    /// Switched out by [`Yielder::suspend`]: frames live on the stack.
    Suspended,
    /// The body returned or unwound; the stack holds nothing.
    Done,
}

/// A body on a stack of its own (see the module docs).
pub(crate) struct Fiber {
    link: Arc<Link>,
    /// The mapping: one guard page, then the usable stack up to `base + len`.
    base: *mut u8,
    len: usize,
    state: State,
    /// The thread the body first ran on (null before), the only one that
    /// may resume it: frames may hold that thread's thread-local addresses.
    home: *const (),
}

// SAFETY: the mapping is owned by this value alone, and the body's frames
// on it are only ever resumed on `home` (checked in `resume`), so moving
// the owner between threads moves no frame to another thread. The link is
// `Send + Sync` (above).
unsafe impl Send for Fiber {}

/// The handle a body switches out through (see [`Yielder::suspend`]).
#[derive(Clone)]
pub(crate) struct Yielder(Arc<Link>);

unsafe extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn sysconf(name: i32) -> i64;
}

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const SC_PAGESIZE: i32 = 30;

fn page_size() -> usize {
    // SAFETY: `sysconf` only reads a system constant.
    let page = unsafe { sysconf(SC_PAGESIZE) };
    usize::try_from(page).unwrap_or(4096)
}

impl Fiber {
    /// Map a stack of `size` bytes (rounded up to whole pages) above a
    /// guard page. The body is set with [`Fiber::set_entry`] before the
    /// first resume.
    pub(crate) fn new(size: usize) -> io::Result<Fiber> {
        let page = page_size();
        let len = size
            .max(page)
            .checked_next_multiple_of(page)
            .and_then(|s| s.checked_add(page))
            .ok_or_else(|| io::Error::from(io::ErrorKind::OutOfMemory))?;
        // SAFETY: a fresh anonymous mapping aliases nothing.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the first page lies inside the mapping just made.
        if unsafe { mprotect(base, page, PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: the mapping was made above and holds nothing.
            unsafe { munmap(base, len) };
            return Err(err);
        }
        let link = Arc::new(Link {
            runner_sp: UnsafeCell::new(ptr::null_mut()),
            body_sp: UnsafeCell::new(ptr::null_mut()),
            entry: UnsafeCell::new(None),
            outcome: UnsafeCell::new(None),
        });
        // The first switch in pops six zeroed callee-saved registers and
        // "returns" into `enter`, with `rdi` still holding the `save`
        // argument of that switch — `&link.runner_sp`, the link's address.
        // Above the return address sits a null one: `enter` starts as if
        // called (rsp ≡ 8 mod 16) and an unwinder walking past it stops.
        // SAFETY: the top of the mapping is page-aligned and the frame's
        // eight words lie inside the usable stack (at least one page).
        let sp = unsafe {
            let top = base.add(len).cast::<usize>();
            let frame = top.sub(8);
            for i in 0..6 {
                frame.add(i).write(0);
            }
            let enter: unsafe extern "C" fn(*const Link) -> ! = enter;
            frame.add(6).write(enter as usize);
            frame.add(7).write(0);
            frame.cast::<u8>()
        };
        // SAFETY: nothing else holds the new link.
        unsafe { *link.body_sp.get() = sp };
        Ok(Fiber {
            link,
            base,
            len,
            state: State::Fresh,
            home: ptr::null(),
        })
    }

    /// The handle the body's blocking calls switch out through.
    pub(crate) fn yielder(&self) -> Yielder {
        Yielder(self.link.clone())
    }

    /// Set the body the first resume enters.
    pub(crate) fn set_entry(&mut self, entry: Entry) {
        assert_eq!(
            self.state,
            State::Fresh,
            "a fiber's body is set before it starts"
        );
        // SAFETY: a fresh fiber's body has not run, so nothing else touches
        // the cell (`&mut self`).
        unsafe { *self.link.entry.get() = Some(entry) };
    }

    /// Has the body been entered?
    pub(crate) fn started(&self) -> bool {
        self.state != State::Fresh
    }

    /// Switch into the body and run it until it suspends or ends.
    ///
    /// # Panics
    ///
    /// If the body has finished, or if this is not the thread it first ran
    /// on.
    pub(crate) fn resume(&mut self) -> Resumed {
        assert_ne!(self.state, State::Done, "resumed a finished fiber");
        let here = this_thread();
        if self.home.is_null() {
            self.home = here;
        }
        assert_eq!(
            self.home, here,
            "a fiber resumes on the thread it started on"
        );
        let link = Arc::as_ptr(&self.link);
        let outer = CURRENT.replace(link);
        // SAFETY: the body is fresh (its initial frame was laid out by
        // `new`) or suspended in `Yielder::suspend` (which saved
        // `body_sp`), on this thread; `&mut self` keeps anyone else from
        // resuming it meanwhile. The mapping outlives the switch.
        unsafe { switch(self.link.runner_sp.get(), *self.link.body_sp.get()) };
        CURRENT.set(outer);
        // SAFETY: the body is switched out, so only this thread is here.
        match unsafe { (*self.link.outcome.get()).take() } {
            None => {
                self.state = State::Suspended;
                Resumed::Suspended
            }
            Some(outcome) => {
                self.state = State::Done;
                Resumed::Finished(outcome)
            }
        }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        match self.state {
            // SAFETY: never entered, so nothing else touches the cell. The
            // body (holding the yielder) goes, and with it the link cycle.
            State::Fresh => drop(unsafe { (*self.link.entry.get()).take() }),
            State::Done => {}
            // Live frames may have lent their memory out: leaking the
            // mapping is the only sound end. The engine resumes every
            // suspended stack to its end before a run returns.
            State::Suspended => return,
        }
        // SAFETY: no frame lives on the mapping (not entered, or ended).
        unsafe { munmap(self.base, self.len) };
    }
}

impl Yielder {
    /// Switch out of the running body, back to the [`Fiber::resume`] that
    /// switched in; return when it is resumed again.
    ///
    /// # Panics
    ///
    /// If the calling code is not this body running on its own stack, or
    /// if the thread is unwinding (its panic count is the thread's, and
    /// would leak into whatever runs next).
    pub(crate) fn suspend(&self) {
        let link = Arc::as_ptr(&self.0);
        assert!(
            CURRENT.get() == link,
            "a fiber is suspended only from its own stack"
        );
        assert!(
            !std::thread::panicking(),
            "a fiber is not suspended while it unwinds"
        );
        // SAFETY: this body is running on this thread (checked above), so
        // the resume that switched in saved `runner_sp` and waits on it.
        unsafe { switch(self.0.body_sp.get(), *self.0.runner_sp.get()) };
    }
}

/// The first code on a fresh stack: run the body, keep how it ended, and
/// switch out for the last time.
///
/// # Safety
///
/// Only entered by the first switch into a fiber made by [`Fiber::new`],
/// with `link` pointing at that fiber's link.
unsafe extern "C" fn enter(link: *const Link) -> ! {
    // SAFETY: the fiber (and so its link) outlives every switch into it.
    let link = unsafe { &*link };
    // SAFETY: this body runs, so only this stack touches its link.
    let entry = unsafe { (*link.entry.get()).take() };
    let outcome = match entry {
        Some(entry) => panic::catch_unwind(AssertUnwindSafe(entry)),
        None => Ok(()),
    };
    // SAFETY: as above. Everything this frame owned is gone: the stack can
    // be unmapped once the switch below leaves it.
    unsafe {
        *link.outcome.get() = Some(outcome);
        let mut gone: *mut u8 = ptr::null_mut();
        switch(&mut gone, *link.runner_sp.get());
    }
    // Never resumed: `resume` refuses a finished fiber.
    std::process::abort()
}

/// Save the callee-saved registers on the current stack, store its stack
/// pointer at `save`, switch to the stack at `to` and restore its
/// registers from there.
///
/// # Safety
///
/// `to` is a stack pointer left by an earlier `switch` (or laid out as one
/// by [`Fiber::new`]) whose stack is still mapped and not running, and
/// `save` is valid for a write.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    // The x87 control word and MXCSR are callee-saved too; no code here
    // changes them, so they are left as they are.
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_body_suspends_and_resumes_where_it_stopped() {
        let mut fiber = Fiber::new(64 * 1024).unwrap();
        let yielder = fiber.yielder();
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = log.clone();
        fiber.set_entry(Box::new(move || {
            for i in 0..3 {
                seen.lock().unwrap().push(i);
                yielder.suspend();
            }
        }));
        for want in 1..=3 {
            assert!(matches!(fiber.resume(), Resumed::Suspended));
            assert_eq!(log.lock().unwrap().len(), want);
        }
        assert!(matches!(fiber.resume(), Resumed::Finished(Ok(()))));
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn a_panic_unwinds_on_the_fiber_and_comes_back_as_its_outcome() {
        let mut fiber = Fiber::new(64 * 1024).unwrap();
        fiber.set_entry(Box::new(|| panic!("deep")));
        match fiber.resume() {
            Resumed::Finished(Err(payload)) => {
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"deep"));
            }
            _ => panic!("expected the body's panic"),
        }
        assert!(!std::thread::panicking());
    }

    #[test]
    fn an_unstarted_fiber_drops_its_body_unrun() {
        let marker = Arc::new(());
        let held = marker.clone();
        let mut fiber = Fiber::new(64 * 1024).unwrap();
        let yielder = fiber.yielder();
        fiber.set_entry(Box::new(move || {
            let _keep = (held, yielder);
            unreachable!("never entered");
        }));
        drop(fiber);
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn suspending_off_the_fiber_is_refused() {
        let fiber = Fiber::new(64 * 1024).unwrap();
        let yielder = fiber.yielder();
        let refused = panic::catch_unwind(AssertUnwindSafe(|| yielder.suspend()));
        assert!(refused.is_err());
    }

    #[test]
    fn an_unmappable_size_is_an_error() {
        assert!(Fiber::new(1 << 60).is_err());
        assert!(Fiber::new(usize::MAX).is_err());
    }
}
