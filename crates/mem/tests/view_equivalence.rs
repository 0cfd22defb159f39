//! The in-place f64 views are the byte path, observed differently: whatever
//! `with_f64s` / `with_f64s_mut` / the multi-view form see and leave behind
//! must equal what `read_f64s` → edit → `write_f64s` does on a twin backing
//! — for fully stored aligned ranges (the borrow) and for phys-capped or
//! odd-offset ones (the copying path) alike — and copy-on-write snapshots
//! must keep their snapshot-time bytes through an in-place edit.

use impacc_mem::{Backing, F64Span};
use proptest::prelude::*;

/// An edit that reads what it replaces and is exact on any bit pattern
/// (the seed bytes decode to NaNs and denormals too).
fn scramble(vals: &mut [f64], salt: u64) {
    for (k, v) in vals.iter_mut().enumerate() {
        *v = f64::from_bits(v.to_bits().rotate_left(7) ^ (salt + k as u64));
    }
}

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

fn bytes_of(b: &Backing, off: u64, len: u64) -> Vec<u8> {
    let mut out = vec![0u8; len as usize];
    b.read(off, &mut out);
    out
}

/// A range of f64s inside `logical` bytes; half the time 8-aligned.
fn f64_range(logical: u64, off_sel: u16, n_sel: u16) -> (u64, usize) {
    let mut off = off_sel as u64 % (logical + 1);
    if off_sel & 0x8000 != 0 {
        off &= !7;
    }
    let n = n_sel as u64 % ((logical - off) / 8 + 1);
    (off, n as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    fn views_equal_the_byte_path(
        logical in 0u64..320,
        cap_sel in 0u64..640,
        edit in (any::<u16>(), any::<u16>()),
        source in (any::<u16>(), any::<u16>()),
        windows in prop::collection::vec((any::<u16>(), any::<u16>()), 0..4),
    ) {
        // A third of the cases store everything; the rest cap somewhere in
        // or just past the logical range (mid-value boundaries included).
        let cap = (cap_sel % 3 != 0).then_some(cap_sel % (logical + 9));
        let (view, twin) = (Backing::new(logical, cap), Backing::new(logical, cap));
        let seed: Vec<u8> = (0..logical).map(|i| (i * 37 + 11) as u8).collect();
        view.write(0, &seed);
        twin.write(0, &seed);
        let (off, n) = f64_range(logical, edit.0, edit.1);
        let (soff, sn) = f64_range(logical, source.0, source.1);

        // Reads agree.
        let seen = view.with_f64s(off, n, |v| v.to_vec());
        prop_assert_eq!(bits(&seen), bits(&view.read_f64s(off, n)));

        // Snapshots over random windows; every fourth watches everything,
        // the shape the full-overwrite steal looks for.
        let snaps: Vec<_> = windows
            .iter()
            .filter(|_| logical > 0)
            .map(|&(a, b)| {
                let (woff, wlen) = if a % 4 == 0 {
                    (0, logical)
                } else {
                    let woff = a as u64 % logical;
                    (woff, 1 + b as u64 % (logical - woff))
                };
                (view.snapshot(woff, wlen), woff, wlen, bytes_of(&view, woff, wlen))
            })
            .collect();

        // An in-place edit equals decode, edit, encode.
        view.with_f64s_mut(off, n, |v| scramble(v, 1));
        let mut vals = twin.read_f64s(off, n);
        scramble(&mut vals, 1);
        twin.write_f64s(off, &vals);
        prop_assert_eq!(bytes_of(&view, 0, logical), bytes_of(&twin, 0, logical));
        prop_assert_eq!(bits(&view.read_f64s(off, n)), bits(&twin.read_f64s(off, n)));

        // Snapshots still show snapshot-time bytes, and paid for a private
        // copy exactly when the edit reached into their window.
        for (snap, woff, wlen, before) in &snaps {
            let mut now = vec![0u8; *wlen as usize];
            snap.read(0, &mut now);
            prop_assert_eq!(&now, before);
            let overlaps = n > 0 && *woff < off + 8 * n as u64 && off < woff + wlen;
            prop_assert_eq!(snap.is_materialized(), overlaps);
        }

        // A kernel reading and writing one allocation sees pre-edit source
        // values for its whole run; a source elsewhere is seen as stored.
        let before = view.read_f64s(soff, sn);
        let elsewhere = twin.read_f64s(soff, sn);
        let span = |backing, off, n| F64Span { backing, off, n };
        Backing::with_f64_views_mut(
            &[span(&view, soff, sn), span(&twin, soff, sn)],
            span(&view, off, n),
            |src, dst| {
                prop_assert_eq!(bits(src[0]), bits(&before));
                prop_assert_eq!(bits(src[1]), bits(&elsewhere));
                scramble(dst, 2);
                prop_assert_eq!(bits(src[0]), bits(&before));
            },
        );
        let mut vals = twin.read_f64s(off, n);
        scramble(&mut vals, 2);
        twin.write_f64s(off, &vals);
        prop_assert_eq!(bytes_of(&view, 0, logical), bytes_of(&twin, 0, logical));
    }
}
