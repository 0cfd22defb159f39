//! Freed payload-sized storage stays mapped for the next launch
//! (DESIGN.md §5m). A set of sixteen 1 MiB backings — what the largest
//! allreduce job of the serve mix holds at once — allocated, written and
//! dropped once more after two such sets faults in no fresh pages: under
//! the allocator's defaults each set's memory went back to the OS and
//! every set faulted its 4,096 pages in afresh.
//!
//! Page faults are counted for the whole process, so this test is alone in
//! its binary.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use impacc_mem::Backing;

const LEN: u64 = 1 << 20;
const SET: usize = 16;

/// Minor page faults of this process so far (`minflt`, the tenth field of
/// `/proc/self/stat`).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The fields after the command name, which may hold spaces, start at
    // the third.
    let rest = &stat[stat.rfind(')').expect("command name") + 2..];
    rest.split(' ')
        .nth(7)
        .expect("minflt")
        .parse()
        .expect("a count")
}

#[test]
fn a_repeated_set_of_payload_buffers_faults_in_no_fresh_pages() {
    let src = vec![0x5Au8; LEN as usize];
    let set = || {
        let set: Vec<_> = (0..SET).map(|_| Backing::new(LEN, None)).collect();
        for b in &set {
            b.write(0, &src);
        }
    };
    // The first set maps the memory; on the next the allocator may still
    // lay its chunks out afresh around the smaller allocations made in
    // between (one buffer's pages, measured), after which a set reuses
    // what the last one freed.
    let faults: Vec<u64> = (0..4)
        .map(|_| {
            let before = minor_faults();
            set();
            minor_faults() - before
        })
        .collect();
    // One buffer's worth of pages is the margin: a set whose memory went
    // back to the OS faults sixteen.
    assert!(
        faults[3] < LEN / 4096,
        "page faults per set {faults:?}: the last set's memory was just freed"
    );
}
