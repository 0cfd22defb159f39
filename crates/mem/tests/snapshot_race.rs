//! A snapshot's copy-out against a concurrent edit of its source. A sender
//! snapshots its buffer, the message goes on the wire, and the sender goes
//! on to overwrite the buffer — while the delivery daemon, on another
//! partition thread, copies the snapshot into the receive buffer. The
//! daemon must see snapshot-time bytes whichever side wins each lock.
//!
//! Two threads hand rounds to each other through atomics, so the edit and
//! the copy-out of one round always start together; a hang shows through
//! the watchdog, as in `copy_lock_order.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use impacc_mem::{Backing, CowSnapshot};

const ROUNDS: usize = 100_000;
const ELEMS: usize = 512;
const LEN: u64 = 8 * ELEMS as u64;

/// Spin until `word` reads `round`; yield once spinning has not helped, so
/// a one-CPU host hands over without burning a time slice per round.
fn await_round(word: &AtomicUsize, round: usize) {
    let mut spins = 0u32;
    while word.load(Ordering::Acquire) != round {
        spins += 1;
        if spins < 200 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[test]
fn copy_out_never_sees_an_edit_made_after_the_snapshot() {
    let (beat, beats) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || loop {
        match beats.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!("snapshot_race: no round completed for 30 s");
                std::process::abort();
            }
        }
    });
    let src = Backing::new(LEN, None);
    let on_the_wire: Mutex<Option<Arc<CowSnapshot>>> = Mutex::new(None);
    let (published, consumed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let corrupted = std::thread::scope(|s| {
        // The sender: fill, snapshot, publish, overwrite.
        s.spawn(|| {
            for round in 1..=ROUNDS {
                src.with_f64s_mut(0, ELEMS, |v| v.fill(round as f64));
                *on_the_wire.lock().unwrap() = Some(src.snapshot(0, LEN));
                published.store(round, Ordering::Release);
                // Sweep the edit across the daemon's first few hundred
                // nanoseconds, where its copy-out takes its locks.
                for _ in 0..round % 256 {
                    std::hint::spin_loop();
                }
                src.with_f64s_mut(0, ELEMS, |v| v.fill(-1.0));
                await_round(&consumed, round);
                if round % 1000 == 0 {
                    beat.send(()).expect("watchdog alive");
                }
            }
        });
        // The delivery daemon: copy the published snapshot out, alternately
        // into a backing and into plain bytes.
        let daemon = s.spawn(|| {
            let dst = Backing::new(LEN, None);
            let mut bytes = vec![0u8; LEN as usize];
            let mut corrupted = 0usize;
            for round in 1..=ROUNDS {
                await_round(&published, round);
                let snap = on_the_wire.lock().unwrap().take().expect("published");
                if round % 2 == 0 {
                    snap.copy_to(&dst, 0, LEN);
                    dst.read(0, &mut bytes);
                } else {
                    snap.read(0, &mut bytes);
                }
                let want = (round as f64).to_le_bytes();
                corrupted += usize::from(bytes.chunks_exact(8).any(|c| c != want));
                consumed.store(round, Ordering::Release);
            }
            corrupted
        });
        daemon.join().expect("daemon thread")
    });
    drop(beat);
    watchdog.join().expect("watchdog");
    assert_eq!(
        corrupted, 0,
        "of {ROUNDS} copies: bytes written after the snapshot was taken"
    );
}
