//! Lock order between two backings. Two ranks that each send from and
//! receive into one allocation (Jacobi's field: halo rows out of and into
//! the same buffer) make their partition threads run `copy(a → b)` and
//! `copy(b → a)` at the same time. Every operation that holds two `phys`
//! locks must take them in one global order, or the pair deadlocks; a
//! deadlock shows as a hang, which the watchdog turns into a failure.

use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use impacc_mem::{Backing, F64Span};

const ITERATIONS: usize = 100_000;
const LEN: u64 = 256;

/// `ITERATIONS` transfers `src → dst`, rotating through everything that
/// locks both backings: a plain copy, a lazy snapshot's copy-out, and a
/// two-view kernel.
fn hammer(src: &Arc<Backing>, dst: &Arc<Backing>, beat: &mpsc::Sender<()>) {
    fn whole(b: &Backing) -> F64Span<'_> {
        F64Span {
            backing: b,
            off: 0,
            n: (LEN / 8) as usize,
        }
    }
    for i in 0..ITERATIONS {
        match i % 3 {
            0 => Backing::copy(src, 0, dst, 0, LEN),
            1 => src.snapshot(0, LEN).copy_to(dst, 0, LEN),
            _ => Backing::with_f64_views_mut(&[whole(src)], whole(dst), |s, d| {
                d.copy_from_slice(s[0])
            }),
        }
        if i % 1000 == 0 {
            beat.send(()).expect("watchdog alive");
        }
    }
}

#[test]
fn opposing_transfers_between_two_backings_never_deadlock() {
    let (beat, beats) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || loop {
        match beats.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!("copy_lock_order: no transfer completed for 30 s");
                std::process::abort();
            }
        }
    });
    let a = Backing::new(LEN, None);
    let b = Backing::new(LEN, None);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (src, dst) in [(&a, &b), (&b, &a)] {
            let (beat, start) = (beat.clone(), &start);
            s.spawn(move || {
                start.wait();
                hammer(src, dst, &beat);
            });
        }
    });
    drop(beat);
    watchdog.join().expect("watchdog");
}
