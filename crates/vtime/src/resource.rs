//! Contended hardware resources.
//!
//! [`SerialResource`] models a FIFO-serial piece of hardware — a PCIe link
//! direction, a NIC, a DMA engine — that processes one transfer at a time.
//! Reservations are granted in request order at the earliest instant the
//! resource is free, which is how back-to-back transfers on a shared link
//! queue up behind each other and produce contention-driven slowdowns.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::Ctx;
use crate::time::{SimDur, SimTime};

/// A FIFO-serial resource. Cloning shares the reservation ledger.
#[derive(Clone)]
pub struct SerialResource {
    name: &'static str,
    free_at: Arc<Mutex<SimTime>>,
}

impl SerialResource {
    /// A resource that is free from time zero.
    pub fn new(name: &'static str) -> SerialResource {
        SerialResource {
            name,
            free_at: Arc::new(Mutex::new(SimTime::ZERO)),
        }
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reserve `dur` of exclusive use, starting no earlier than the current
    /// virtual time and no earlier than any prior reservation's end.
    /// Returns `(start, end)`. Does not block the caller.
    pub fn reserve(&self, ctx: &Ctx, dur: SimDur) -> (SimTime, SimTime) {
        self.reserve_from(ctx.now(), dur)
    }

    /// Like [`SerialResource::reserve`] but with an explicit earliest start,
    /// for pipelined operations whose issue time precedes the caller's clock.
    pub fn reserve_from(&self, earliest: SimTime, dur: SimDur) -> (SimTime, SimTime) {
        let mut free = self.free_at.lock();
        let start = earliest.max(*free);
        let end = start + dur;
        *free = end;
        (start, end)
    }

    /// Instant at which the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        *self.free_at.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;

    #[test]
    fn reservations_serialize_fifo() {
        let link = SerialResource::new("pcie");
        let mut sim = Sim::new();
        for (name, offset) in [("a", 0u64), ("b", 1u64)] {
            let link = link.clone();
            sim.spawn(name, move |ctx| {
                ctx.advance(SimDur::from_us(offset), "setup");
                let (_, end) = link.reserve(ctx, SimDur::from_us(10));
                ctx.advance_until(end, "xfer");
                // a: starts at 0, ends 10. b: wants to start at 1 but the
                // link is busy until 10, so ends at 20.
                let expect = if offset == 0 { 10 } else { 20 };
                assert_eq!(end, SimTime::ZERO + SimDur::from_us(expect));
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let link = SerialResource::new("nic");
        let mut sim = Sim::new();
        {
            let link = link.clone();
            sim.spawn("t", move |ctx| {
                ctx.advance(SimDur::from_us(7), "setup");
                let (start, end) = link.reserve(ctx, SimDur::from_us(3));
                assert_eq!(start, SimTime::ZERO + SimDur::from_us(7));
                assert_eq!(end, SimTime::ZERO + SimDur::from_us(10));
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn reserve_from_respects_earliest() {
        let link = SerialResource::new("dma");
        let (s, e) = link.reserve_from(SimTime(100), SimDur(50));
        assert_eq!((s, e), (SimTime(100), SimTime(150)));
        let (s2, e2) = link.reserve_from(SimTime(0), SimDur(10));
        assert_eq!((s2, e2), (SimTime(150), SimTime(160)));
    }
}
