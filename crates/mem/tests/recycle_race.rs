//! Freed payload-sized memory passed between owners on four threads at
//! once. Each thread allocates 1 MiB backings, fills them with its own
//! tag, snapshots them, overwrites them (materializing the snapshot into
//! memory another owner may just have freed) and drops everything, so the
//! allocator hands the same memory between threads many times. A new
//! backing must read all zero, and a snapshot must read its own owner's
//! snapshot-time bytes — never another thread's.

use std::sync::atomic::{AtomicU64, Ordering};

use impacc_mem::Backing;

const THREADS: u64 = 4;
const ROUNDS: u64 = 300;
const LEN: u64 = 1 << 20;

#[test]
fn reused_bytes_never_cross_owners() {
    let faults = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let faults = &faults;
            s.spawn(move || {
                let mut out = vec![0u8; LEN as usize];
                for round in 0..ROUNDS {
                    // One tag per thread and round, never zero.
                    let tag = (1 + t + THREADS * (round % 60)) as u8;
                    let a = Backing::new(LEN, None);
                    a.read(0, &mut out);
                    let dirty = out.iter().any(|&x| x != 0);
                    a.write(0, &vec![tag; LEN as usize]);
                    let snap = a.snapshot(0, LEN);
                    if round % 2 == 0 {
                        // Partial overwrite: the copying path.
                        a.write(LEN / 2, &[0xFF; 64]);
                    } else {
                        // Full overwrite: the steal, a zeroed rebuild.
                        a.write(0, &vec![0xFF; LEN as usize]);
                    }
                    snap.read(0, &mut out);
                    let crossed = out.iter().any(|&x| x != tag);
                    faults.fetch_add(u64::from(dirty) + u64::from(crossed), Ordering::Relaxed);
                    drop((snap, a));
                }
            });
        }
    });
    assert_eq!(
        faults.load(Ordering::Relaxed),
        0,
        "a new backing read nonzero, or a snapshot read another owner's bytes"
    );
}
