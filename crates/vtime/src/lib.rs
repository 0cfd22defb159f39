//! # impacc-vtime — deterministic virtual-time engine
//!
//! The foundation of the IMPACC reproduction: a discrete-event simulation
//! engine whose actors execute real Rust code (so application results are
//! bit-exact), while **time is virtual** — charged
//! explicitly from analytic cost models, advanced by a deterministic
//! scheduler. This is what lets a laptop reproduce the *shape* of
//! experiments the paper ran on 8,192 Titan nodes.
//!
//! Core pieces:
//!
//! * [`Sim`] / [`Ctx`] — build and run a simulation; actors advance the
//!   clock with [`Ctx::advance`] and suspend/resume via wait tokens.
//!   Every actor is polled on the thread that calls [`Sim::run`]. Most
//!   are handlers — daemons ([`Ctx::spawn_handler`]) and the stack's ranks
//!   ([`Sim::spawn_async_on`]): futures that `.await` the same calls
//!   ([`Ctx::sleep`], [`Ctx::suspend`]). A raw [`Sim::spawn`] actor (and so
//!   a rank of `impacc-core`'s synchronous facade) blocks in those calls
//!   instead, on a stack of its own that the run switches into and out of.
//! * [`Notify`] / [`Latch`] — condition-variable and one-shot-gate
//!   primitives for building runtimes on top.
//! * [`SerialResource`] — FIFO-contended hardware (PCIe directions, NICs).
//! * Per-actor tagged time accounting plus engine-wide [`Metrics`] counters
//!   drive the paper's execution-time-breakdown figures.
//!
//! ## Example
//!
//! ```
//! use impacc_vtime::{Sim, SimDur, Latch};
//!
//! let done = Latch::new();
//! let mut sim = Sim::new();
//! let d = done.clone();
//! sim.spawn("producer", move |ctx| {
//!     ctx.advance(SimDur::from_us(10), "compute");
//!     d.open(ctx);
//! });
//! let d = done.clone();
//! sim.spawn("consumer", move |ctx| {
//!     d.wait(ctx, "wait_producer");
//!     assert_eq!(ctx.now().as_secs_f64(), 10e-6);
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(report.actor("consumer").unwrap().tag("wait_producer"), SimDur::from_us(10));
//! ```

#![warn(missing_docs)]
#![allow(clippy::new_without_default)]

mod engine;
mod resource;
mod stack;
mod sync;
mod time;

pub use engine::{
    ActorAccount, ActorId, Advance, Ctx, Metrics, Sim, SimConfig, SimError, SimReport, SpanLane,
    SpanSink, Suspend, WaitToken, WakeReason,
};
pub use resource::SerialResource;
pub use sync::{Latch, Notify};
pub use time::{SimDur, SimTime, PS_PER_MS, PS_PER_NS, PS_PER_SEC, PS_PER_US};
