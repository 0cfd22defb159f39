//! `impacc-array`: an HDArray-style distributed array layer.
//!
//! Declare an N-d global array with a block (or block-cyclic)
//! decomposition over the launched ranks and a halo depth; the library
//! materializes per-rank tiles on node-heap memory through the normal
//! present-table path, *infers* the halo-exchange schedule from the
//! Cartesian decomposition (face neighbours by default, edge/corner
//! neighbours on request, deduped per direction with deterministic
//! tags), and lowers it onto whichever runtime mode is active — unified
//! activity-queue device sends, plain device isend/irecv, or the
//! host-staged baseline. Kernels run through the existing device queues
//! via a `map`/`stencil`/`reduce` API, and every phase emits obs spans
//! (`array.halo`, `array.kernel`, `array.redist`) so the profiler and
//! flight recorder attribute array traffic like hand-written traffic.
//!
//! Layering:
//! - [`decomp`] — partition/grid arithmetic (pure math, no simulator).
//! - [`schedule`] — direction enumeration and region inference.
//! - [`dist`] — the runtime lowering ([`DistArray`]).
//! - [`scenarios`] — apps written against the array API, with serial
//!   replays used as bit-exact verification oracles.

pub mod decomp;
pub mod dist;
pub mod scenarios;
pub mod schedule;

pub use decomp::{dims_create, max_halo, BlockPartition, CartGrid, Layout};
pub use dist::{
    check_decomposition, math_ok, tile_extents, tile_geom, ArraySpec, Cell, CellFn, DistArray,
    ResProbe, StencilRes, StencilSpec, GATHER_TAG,
};
pub use schedule::{directions, infer, Entry, Pair, RegionBox, Schedule, TileGeom, HALO_TAG_BASE};
