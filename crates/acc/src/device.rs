//! Simulated accelerator devices.
//!
//! A [`Device`] wraps one accelerator of the machine spec: it owns the
//! device-memory space inside the node's unified address space, a serial
//! compute engine (kernels execute one at a time), and helpers that enqueue
//! copies/kernels on activity queues or perform them directly. Each
//! operation is one `async fn` ([`Device::copy`], [`Device::kernel`]): a
//! queue's handler awaits it, a task thread blocks on it.
//!
//! Timing convention: an operation's *data effects* (bytes moved, kernel
//! results written) materialize at the operation's completion instant —
//! the executing actor advances first, then mutates the backing store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use impacc_machine::{ClusterResources, DeviceKind, DeviceSpec, HdDir, KernelCost, LaunchConfig};
use impacc_mem::{AddressSpace, Backing, DevPtr, MemError, MemSpace, Region};
use impacc_vtime::{Ctx, Latch, SerialResource};

use crate::queue::ActivityQueue;

/// Standard accounting tags used across the framework, so breakdown
/// figures (11 and 14) can aggregate consistently.
pub mod tags {
    /// Host-to-device PCIe transfer time.
    pub const HTOD: &str = "HtoD";
    /// Device-to-host PCIe transfer time.
    pub const DTOH: &str = "DtoH";
    /// Direct device-to-device peer transfer time.
    pub const DTOD: &str = "DtoD";
    /// Host-to-host memcpy time.
    pub const HTOH: &str = "HtoH";
    /// Kernel execution time.
    pub const KERNEL: &str = "kernel";
    /// Fixed driver/launch overheads.
    pub const OVERHEAD: &str = "acc_overhead";
}

/// A device allocation: the device region plus (for OpenCL devices) the
/// host-side shadow range that gives the buffer an address.
#[derive(Clone, Debug)]
pub struct DevAlloc {
    /// The device-memory region holding the bytes.
    pub region: Region,
    /// OpenCL only: the reserved host-range alias.
    pub shadow: Option<Region>,
    /// The pointer the program arithmetic uses.
    pub ptr: DevPtr,
}

impl DevAlloc {
    /// The address used for pointer arithmetic over this allocation.
    pub fn addr(&self) -> impacc_mem::VirtAddr {
        self.ptr.lookup_addr()
    }
}

struct DeviceInner {
    node: usize,
    idx: usize,
    spec: DeviceSpec,
    res: Arc<ClusterResources>,
    space: Arc<AddressSpace>,
    compute: SerialResource,
    next_handle: AtomicU64,
}

/// One simulated accelerator. Cloning shares the device.
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// Wrap device `idx` of `node`, registering its memory space (and an
    /// OpenCL shadow space if needed) in the node's address space.
    pub fn new(
        node: usize,
        idx: usize,
        res: Arc<ClusterResources>,
        space: Arc<AddressSpace>,
    ) -> Device {
        let spec = res.spec.nodes[node].devices[idx].clone();
        space.register_space(MemSpace::Device(idx), spec.mem_bytes);
        if spec.kind == DeviceKind::OpenClMic {
            space.register_space(MemSpace::MappedShadow(idx), spec.mem_bytes);
        }
        Device {
            inner: Arc::new(DeviceInner {
                node,
                idx,
                spec,
                res,
                space,
                compute: SerialResource::new("dev_compute"),
                next_handle: AtomicU64::new(1),
            }),
        }
    }

    /// Node index this device belongs to.
    pub fn node(&self) -> usize {
        self.inner.node
    }

    /// Local device index within the node.
    pub fn idx(&self) -> usize {
        self.inner.idx
    }

    /// Device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.inner.spec
    }

    /// The driver API family for this device.
    pub fn kind(&self) -> DeviceKind {
        self.inner.spec.kind
    }

    /// The machine resources this device reserves transfers against.
    pub fn resources(&self) -> &Arc<ClusterResources> {
        &self.inner.res
    }

    /// Has the active fault plan marked this device as failed? The §3.2
    /// task–device mapper must not assign work here; kernel launches on a
    /// failed device panic (a real driver would return an error on every
    /// call).
    pub fn is_failed(&self) -> bool {
        self.inner
            .res
            .chaos
            .device_failed(self.inner.node, self.inner.idx)
    }

    /// Allocate `len` bytes of device memory. CUDA devices return the raw
    /// device address (UVA-style); OpenCL devices additionally reserve a
    /// host shadow range and return a handle+mapped pointer (§3.4).
    pub fn alloc(&self, len: u64) -> Result<DevAlloc, MemError> {
        let region = self
            .inner
            .space
            .alloc(MemSpace::Device(self.inner.idx), len)?;
        match self.inner.spec.kind {
            DeviceKind::OpenClMic => {
                let shadow = self.inner.space.alloc_with_backing(
                    MemSpace::MappedShadow(self.inner.idx),
                    len,
                    region.backing.clone(),
                )?;
                let handle = self.inner.next_handle.fetch_add(1, Ordering::Relaxed);
                Ok(DevAlloc {
                    ptr: DevPtr::OpenCl {
                        handle,
                        mapped: shadow.addr,
                    },
                    region,
                    shadow: Some(shadow),
                })
            }
            _ => Ok(DevAlloc {
                ptr: DevPtr::Cuda { addr: region.addr },
                region,
                shadow: None,
            }),
        }
    }

    /// Free a device allocation (and its shadow range).
    pub fn free(&self, alloc: &DevAlloc) -> Result<(), MemError> {
        self.inner.space.free(alloc.region.addr)?;
        if let Some(shadow) = &alloc.shadow {
            self.inner.space.free(shadow.addr)?;
        }
        Ok(())
    }

    /// Perform a host<->device copy on the calling actor, blocking it until
    /// the transfer completes. `far` selects the NUMA-unfriendly path;
    /// `pinned` says the host endpoint is page-locked memory.
    #[allow(clippy::too_many_arguments)]
    pub fn perform_copy(
        &self,
        ctx: &Ctx,
        dir: HdDir,
        far: bool,
        pinned: bool,
        host: (&Arc<Backing>, u64),
        dev: (&Arc<Backing>, u64),
        bytes: u64,
    ) {
        ctx.block_on(self.copy(ctx, dir, far, pinned, host, dev, bytes))
    }

    /// The copy itself: what [`Device::perform_copy`] blocks on and a
    /// queued copy awaits.
    #[allow(clippy::too_many_arguments)]
    pub async fn copy(
        &self,
        ctx: &Ctx,
        dir: HdDir,
        far: bool,
        pinned: bool,
        host: (&Arc<Backing>, u64),
        dev: (&Arc<Backing>, u64),
        bytes: u64,
    ) {
        let d = &self.inner;
        ctx.sleep(d.res.acc_copy_overhead(d.spec.kind), tags::OVERHEAD)
            .await;
        // Transient DMA faults re-reserve the link per attempt; only the
        // final attempt commits bytes (impacc-mem owns that invariant).
        let end = impacc_mem::reserve_hd_with_faults(
            ctx,
            &d.res,
            d.node,
            d.idx,
            dir,
            far,
            pinned,
            bytes,
            ctx.now(),
        );
        let (tag, tkey) = match dir {
            HdDir::HtoD => (tags::HTOD, "t_HtoD"),
            HdDir::DtoH => (tags::DTOH, "t_DtoH"),
        };
        let issue = ctx.now();
        ctx.sleep_until(end, tag).await;
        impacc_mem::commit_copy(dir, host, dev, bytes);
        ctx.metrics().add(tag, bytes);
        ctx.metrics().add(tkey, end.since(issue).0);
        ctx.span(tag, issue, end, || {
            vec![
                ("bytes", bytes.to_string()),
                ("device", format!("n{}.d{}", d.node, d.idx)),
                ("far", far.to_string()),
                ("pinned", pinned.to_string()),
            ]
        });
    }

    /// Enqueue an asynchronous host<->device copy on `q`.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_copy(
        &self,
        ctx: &Ctx,
        q: &ActivityQueue,
        dir: HdDir,
        far: bool,
        pinned: bool,
        host: (Arc<Backing>, u64),
        dev: (Arc<Backing>, u64),
        bytes: u64,
    ) -> Latch {
        let this = self.clone();
        q.submit(ctx, "copy", |qctx| async move {
            let (host, dev) = ((&host.0, host.1), (&dev.0, dev.1));
            this.copy(&qctx, dir, far, pinned, host, dev, bytes).await;
        })
    }

    /// Perform a direct device-to-device peer copy (GPUDirect-style) to
    /// `dst_dev` on the same node, blocking the calling actor.
    pub fn perform_p2p(
        &self,
        ctx: &Ctx,
        dst_dev: &Device,
        src: (&Arc<Backing>, u64),
        dst: (&Arc<Backing>, u64),
        bytes: u64,
    ) {
        let d = &self.inner;
        assert_eq!(d.node, dst_dev.inner.node, "peer copies are intra-node");
        ctx.advance(d.res.acc_copy_overhead(d.spec.kind), tags::OVERHEAD);
        let issue = ctx.now();
        let end = d
            .res
            .reserve_p2p_copy(d.node, d.idx, dst_dev.inner.idx, bytes, ctx.now());
        ctx.advance_until(end, tags::DTOD);
        Backing::copy(src.0, src.1, dst.0, dst.1, bytes);
        ctx.metrics().add(tags::DTOD, bytes);
        ctx.metrics().add("t_DtoD", end.since(issue).0);
        ctx.span(tags::DTOD, issue, end, || {
            vec![
                ("bytes", bytes.to_string()),
                ("src", format!("n{}.d{}", d.node, d.idx)),
                (
                    "dst",
                    format!("n{}.d{}", dst_dev.inner.node, dst_dev.inner.idx),
                ),
            ]
        });
    }

    /// Perform (blocking) a kernel: reserve the device's compute engine for
    /// the modelled duration, then apply `f`'s data effects.
    pub fn perform_kernel(&self, ctx: &Ctx, cost: &KernelCost, f: impl FnOnce()) {
        self.perform_kernel_cfg(ctx, cost, &LaunchConfig::default(), f);
    }

    /// Like [`Device::perform_kernel`] with an explicit gang/worker/vector
    /// launch configuration (§2.3): undersized launches underutilize the
    /// device's execution lanes.
    pub fn perform_kernel_cfg(
        &self,
        ctx: &Ctx,
        cost: &KernelCost,
        cfg: &LaunchConfig,
        f: impl FnOnce(),
    ) {
        ctx.block_on(self.kernel(ctx, cost, cfg, f))
    }

    /// The kernel itself: what [`Device::perform_kernel_cfg`] blocks on and
    /// a queued kernel awaits.
    pub async fn kernel(&self, ctx: &Ctx, cost: &KernelCost, cfg: &LaunchConfig, f: impl FnOnce()) {
        let d = &self.inner;
        assert!(
            !self.is_failed(),
            "kernel launched on failed device n{}.d{}: the launcher should have remapped",
            d.node,
            d.idx
        );
        ctx.sleep(d.res.launch_overhead(d.spec.kind), tags::OVERHEAD)
            .await;
        let dur = d.res.kernel_dur_cfg(d.node, d.idx, cost, cfg);
        let issue = ctx.now();
        let (start, end) = d.compute.reserve(ctx, dur);
        ctx.sleep_until(end, tags::KERNEL).await;
        if start > issue {
            // Contention on the device's serial compute engine.
            ctx.span("queue_wait", issue, start, || {
                vec![("resource", format!("n{}.d{}.compute", d.node, d.idx))]
            });
        }
        ctx.span(tags::KERNEL, start, end, || {
            vec![("device", format!("n{}.d{}", d.node, d.idx))]
        });
        f();
    }

    /// Enqueue an asynchronous kernel on `q`. The closure runs at the
    /// kernel's completion instant and performs the real computation.
    pub fn enqueue_kernel(
        &self,
        ctx: &Ctx,
        q: &ActivityQueue,
        cost: KernelCost,
        f: impl FnOnce() + Send + 'static,
    ) -> Latch {
        self.enqueue_kernel_cfg(ctx, q, cost, LaunchConfig::default(), f)
    }

    /// [`Device::enqueue_kernel`] with an explicit launch configuration.
    pub fn enqueue_kernel_cfg(
        &self,
        ctx: &Ctx,
        q: &ActivityQueue,
        cost: KernelCost,
        cfg: LaunchConfig,
        f: impl FnOnce() + Send + 'static,
    ) -> Latch {
        let this = self.clone();
        q.submit(ctx, "kernel", |qctx| async move {
            this.kernel(&qctx, &cost, &cfg, f).await
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_machine::presets;
    use impacc_vtime::{Sim, SimDur, SimTime};

    fn with_device(
        spec: impacc_machine::MachineSpec,
        dev_idx: usize,
        f: impl FnOnce(&Ctx, Device, Arc<AddressSpace>) + Send + 'static,
    ) -> impacc_vtime::SimReport {
        let mut sim = Sim::new();
        sim.spawn("t0", move |ctx| {
            let res = Arc::new(ClusterResources::new(Arc::new(spec)));
            let space = Arc::new(AddressSpace::new(1 << 40, None));
            let dev = Device::new(0, dev_idx, res, space.clone());
            f(ctx, dev, space);
        });
        sim.run().unwrap()
    }

    #[test]
    fn cuda_alloc_returns_raw_pointer() {
        with_device(presets::psg(), 0, |_ctx, dev, _| {
            let a = dev.alloc(1024).unwrap();
            assert!(a.shadow.is_none());
            assert_eq!(a.addr(), a.region.addr);
            dev.free(&a).unwrap();
        });
    }

    #[test]
    fn opencl_alloc_returns_handle_and_shadow() {
        with_device(presets::beacon(1), 0, |_ctx, dev, space| {
            let a = dev.alloc(1024).unwrap();
            let shadow = a.shadow.clone().expect("OpenCL allocs have shadows");
            match a.ptr {
                DevPtr::OpenCl { handle, mapped } => {
                    assert_eq!(handle, 1);
                    assert_eq!(mapped, shadow.addr);
                }
                _ => panic!("expected OpenCL pointer"),
            }
            // Shadow shares the device backing.
            a.region.backing.write(0, &[3; 4]);
            let mut out = [0u8; 4];
            shadow.backing.read(0, &mut out);
            assert_eq!(out, [3; 4]);
            dev.free(&a).unwrap();
            assert_eq!(space.region_count(), 0);
        });
    }

    #[test]
    fn device_memory_exhaustion_surfaces() {
        with_device(presets::titan(1), 0, |_ctx, dev, _| {
            // K20x has 6 GB.
            let a = dev.alloc(5 << 30).unwrap();
            assert!(dev.alloc(2 << 30).is_err());
            dev.free(&a).unwrap();
            assert!(dev.alloc(2 << 30).is_ok());
        });
    }

    #[test]
    fn copy_moves_bytes_and_charges_time() {
        let report = with_device(presets::psg(), 0, |ctx, dev, space| {
            let host = space.alloc(MemSpace::Host, 1 << 20).unwrap();
            host.backing.write(0, &[9; 64]);
            let a = dev.alloc(1 << 20).unwrap();
            dev.perform_copy(
                ctx,
                HdDir::HtoD,
                false,
                true,
                (&host.backing, 0),
                (&a.region.backing, 0),
                1 << 20,
            );
            let mut out = [0u8; 64];
            a.region.backing.read(0, &mut out);
            assert_eq!(out, [9; 64]);
            // 1 MiB over 12 GB/s ≈ 87 us + 6 us latency + 7 us overhead.
            let t = ctx.now().as_secs_f64();
            assert!(t > 90e-6 && t < 110e-6, "t = {t}");
        });
        assert_eq!(report.metrics[tags::HTOD], 1 << 20);
    }

    #[test]
    fn async_copies_on_two_queues_overlap_but_one_queue_serializes() {
        with_device(presets::psg(), 0, |ctx, dev, space| {
            let host = space.alloc(MemSpace::Host, 2 << 20).unwrap();
            let a = dev.alloc(2 << 20).unwrap();
            let q1 = ActivityQueue::spawn(ctx, "q1".into());
            let q2 = ActivityQueue::spawn(ctx, "q2".into());

            // Same direction on one queue: serialize.
            let t0 = ctx.now();
            let l1 = dev.enqueue_copy(
                ctx,
                &q1,
                HdDir::HtoD,
                false,
                true,
                (host.backing.clone(), 0),
                (a.region.backing.clone(), 0),
                1 << 20,
            );
            let l2 = dev.enqueue_copy(
                ctx,
                &q1,
                HdDir::HtoD,
                false,
                true,
                (host.backing.clone(), 0),
                (a.region.backing.clone(), 0),
                1 << 20,
            );
            l1.wait(ctx, "w");
            l2.wait(ctx, "w");
            let serial = ctx.now().since(t0);

            // Opposite directions on two queues: overlap on full-duplex PCIe.
            let t1 = ctx.now();
            let l3 = dev.enqueue_copy(
                ctx,
                &q1,
                HdDir::HtoD,
                false,
                true,
                (host.backing.clone(), 0),
                (a.region.backing.clone(), 0),
                1 << 20,
            );
            let l4 = dev.enqueue_copy(
                ctx,
                &q2,
                HdDir::DtoH,
                false,
                true,
                (host.backing.clone(), 0),
                (a.region.backing.clone(), 0),
                1 << 20,
            );
            l3.wait(ctx, "w");
            l4.wait(ctx, "w");
            let overlapped = ctx.now().since(t1);
            assert!(
                overlapped.as_secs_f64() < 0.7 * serial.as_secs_f64(),
                "overlapped {overlapped} vs serial {serial}"
            );
        });
    }

    #[test]
    fn far_copy_is_slower() {
        with_device(presets::psg(), 0, |ctx, dev, space| {
            let host = space.alloc(MemSpace::Host, 64 << 20).unwrap();
            let a = dev.alloc(64 << 20).unwrap();
            let t0 = ctx.now();
            dev.perform_copy(
                ctx,
                HdDir::HtoD,
                false,
                true,
                (&host.backing, 0),
                (&a.region.backing, 0),
                64 << 20,
            );
            let near = ctx.now().since(t0);
            let t1 = ctx.now();
            dev.perform_copy(
                ctx,
                HdDir::HtoD,
                true,
                true,
                (&host.backing, 0),
                (&a.region.backing, 0),
                64 << 20,
            );
            let far = ctx.now().since(t1);
            let ratio = far.as_secs_f64() / near.as_secs_f64();
            assert!(ratio > 3.0 && ratio < 4.0, "ratio = {ratio}");
        });
    }

    #[test]
    fn p2p_copy_moves_bytes_directly() {
        with_device(presets::psg(), 0, |ctx, dev0, space| {
            let dev1 = Device::new(0, 1, dev0.resources().clone(), space.clone());
            let a = dev0.alloc(1 << 20).unwrap();
            let b = dev1.alloc(1 << 20).unwrap();
            a.region.backing.write(100, &[7; 8]);
            dev0.perform_p2p(
                ctx,
                &dev1,
                (&a.region.backing, 0),
                (&b.region.backing, 0),
                1 << 20,
            );
            let mut out = [0u8; 8];
            b.region.backing.read(100, &mut out);
            assert_eq!(out, [7; 8]);
        });
    }

    #[test]
    fn kernel_time_follows_roofline() {
        with_device(presets::psg(), 0, |ctx, dev, _| {
            let t0 = ctx.now();
            // 1.45 GFLOP on a 1450 GFLOP/s device at the generated-kernel
            // efficiency of 0.3 => 3.33 ms.
            dev.perform_kernel(ctx, &KernelCost::flops(1.45e9), || {});
            let dt = ctx.now().since(t0).as_secs_f64();
            let expect = 1.45e9 / (1450e9 * 0.3) + 8e-6;
            assert!((dt - expect).abs() < 0.1e-3, "dt = {dt}, expect {expect}");
        });
    }

    #[test]
    fn kernels_serialize_on_device_compute() {
        with_device(presets::psg(), 0, |ctx, dev, _| {
            let q1 = ActivityQueue::spawn(ctx, "q1".into());
            let q2 = ActivityQueue::spawn(ctx, "q2".into());
            let l1 = dev.enqueue_kernel(ctx, &q1, KernelCost::flops(1.45e9), || {});
            let l2 = dev.enqueue_kernel(ctx, &q2, KernelCost::flops(1.45e9), || {});
            l1.wait(ctx, "w");
            l2.wait(ctx, "w");
            // Two ~3.3ms kernels on one device serialize even from two queues.
            let t = ctx.now().as_secs_f64();
            assert!(t > 6.5e-3, "t = {t}");
        });
    }

    #[test]
    fn kernel_results_visible_after_completion() {
        with_device(presets::psg(), 0, |ctx, dev, space| {
            let out = space.alloc(MemSpace::Host, 8).unwrap();
            let b = out.backing.clone();
            let q = ActivityQueue::spawn(ctx, "q".into());
            let l = dev.enqueue_kernel(ctx, &q, KernelCost::flops(1e9), move || {
                b.write_f64s(0, &[42.0]);
            });
            assert_eq!(out.backing.read_f64s(0, 1)[0], 0.0);
            l.wait(ctx, "w");
            assert_eq!(out.backing.read_f64s(0, 1)[0], 42.0);
        });
    }

    #[test]
    fn integrated_cpu_device_copies_cheaply() {
        let mut spec = presets::test_cluster(1, 1);
        spec.nodes[0].devices[0].kind = DeviceKind::CpuCores;
        with_device(spec, 0, |ctx, dev, space| {
            let host = space.alloc(MemSpace::Host, 1 << 20).unwrap();
            let a = dev.alloc(1 << 20).unwrap();
            let t0 = ctx.now();
            dev.perform_copy(
                ctx,
                HdDir::HtoD,
                false,
                true,
                (&host.backing, 0),
                (&a.region.backing, 0),
                1 << 20,
            );
            // No driver overhead, host-memcpy speed.
            let dt = ctx.now().since(t0).as_secs_f64();
            assert!(dt < 60e-6, "dt = {dt}");
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_secs_f64(dt));
        });
    }
}
