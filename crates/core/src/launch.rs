//! The IMPACC launcher: automatic task-device mapping and job start-up.
//!
//! Under the legacy model the user supplies the MPI task count and each
//! task picks its device with `acc_set_device_num()`. Under IMPACC (§3.2,
//! Figure 2) the user supplies only the machine (node list) and optionally
//! a device-type filter (`IMPACC_ACC_DEVICE_TYPE`); the runtime creates
//! one task per matching accelerator — falling back to the node's CPU
//! cores when a node has no matching discrete accelerator — pins each task
//! near its device (§3.3), and starts the per-node message handler.
//!
//! The same launcher also runs the baseline model (per-task private
//! address spaces, no handler, round-robin OS placement) so experiments
//! compare both runtimes over identical hardware and applications.

use std::sync::Arc;

use impacc_acc::Device;
use impacc_coll::{CollAlgo, NodeColl};
use impacc_flight::{FlightRecorder, Trigger, Watchdog};
use impacc_machine::{
    Chaos, ClusterResources, DeviceKind, DeviceSpec, DeviceTypeMask, FaultPlan, MachineSpec,
};
use impacc_mem::{AddressSpace, NodeHeap};
use impacc_mpi::{Comm, MpiTask, SysMpi};
use impacc_obs::Recorder;
use impacc_vtime::{Sim, SimConfig, SimError, SimReport, SpanSink};

use crate::handler::NodeHandler;
use crate::mode::RuntimeOptions;
use crate::task::{CommCore, TaskCtx, TaskSeed};

/// Where one task landed: the output of automatic task-device mapping.
#[derive(Clone, Debug)]
pub struct TaskInfo {
    /// World rank.
    pub rank: u32,
    /// Node index.
    pub node: usize,
    /// Local device index within the node.
    pub dev_idx: usize,
    /// Device kind.
    pub kind: DeviceKind,
    /// Socket the task thread is pinned on.
    pub socket: usize,
    /// Whether that socket is far from the device (NUMA-unfriendly).
    pub far: bool,
}

/// Result of a completed run.
#[derive(Debug)]
pub struct RunSummary {
    /// Engine report: end time, per-actor tagged accounting, metrics.
    pub report: SimReport,
    /// The task-device mapping that was used.
    pub tasks: Vec<TaskInfo>,
}

impl RunSummary {
    /// Virtual wall-clock of the whole job, in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.report.end_time.as_secs_f64()
    }

    /// Seconds recorded under a `t_*` transfer-time metric.
    pub fn transfer_secs(&self, key: &str) -> f64 {
        self.report
            .metrics
            .iter()
            .find(|(k, _)| **k == key)
            .map(|(_, v)| *v as f64 / 1e12)
            .unwrap_or(0.0)
    }

    /// A human-readable execution profile: elapsed time, aggregate kernel
    /// and transfer activity, and the headline runtime counters.
    pub fn profile(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "elapsed: {:.6}s over {} tasks ({} scheduler events)\n",
            self.elapsed_secs(),
            self.tasks.len(),
            self.report.events
        ));
        out.push_str(&format!(
            "aggregate kernel time: {:.6}s\n",
            self.report.tag_total("kernel").as_secs_f64()
        ));
        for (label, key) in [
            ("host-to-device", "t_HtoD"),
            ("device-to-host", "t_DtoH"),
            ("device-to-device", "t_DtoD"),
            ("host-to-host", "t_HtoH"),
        ] {
            let secs = self.transfer_secs(key);
            if secs > 0.0 {
                out.push_str(&format!("aggregate {label} transfer time: {secs:.6}s\n"));
            }
        }
        for key in ["fused_msgs", "aliased_msgs", "mpi_bytes_sent"] {
            if let Some(v) = self.report.metrics.iter().find(|(k, _)| **k == key) {
                out.push_str(&format!("{key}: {}\n", v.1));
            }
        }
        out
    }
}

/// Job launcher. Configure, then [`Launch::run`].
pub struct Launch {
    spec: MachineSpec,
    options: RuntimeOptions,
    mask: DeviceTypeMask,
    phys_cap: Option<u64>,
    stack_size: usize,
    max_events: u64,
    chaos: Chaos,
    coll_algo: Option<CollAlgo>,
    parallelism: Option<usize>,
    /// The launch's one span store, when the caller named it.
    store: Option<FlightRecorder>,
    /// Watchdog pass, anomaly spans and dumps: `None` asks `IMPACC_FLIGHT`.
    flight: Option<bool>,
    flight_label: String,
}

impl Launch {
    /// A job on `spec` under `options`, accepting all discrete
    /// accelerators (`acc_device_default`).
    pub fn new(spec: MachineSpec, options: RuntimeOptions) -> Launch {
        Launch {
            spec,
            options,
            mask: DeviceTypeMask::DEFAULT,
            phys_cap: None,
            stack_size: 384 * 1024,
            max_events: u64::MAX,
            chaos: Chaos::disabled(),
            coll_algo: None,
            parallelism: None,
            store: None,
            flight: None,
            flight_label: "run".to_string(),
        }
    }

    /// Record into `fr`'s store instead of an auto-created one —
    /// `impacc-serve` hands each job its own so a wedged job's final
    /// moments are inspectable while other jobs keep flying. Together with
    /// [`Launch::recorder`] both must be handles onto one store
    /// (`FlightRecorder::view_of`): a launch records each span once.
    pub fn flight(mut self, fr: &FlightRecorder) -> Launch {
        self.assert_one_store(fr);
        self.store = Some(fr.clone());
        self.flight = Some(true);
        self
    }

    fn assert_one_store(&self, named: &Recorder) {
        assert!(
            self.store.as_ref().is_none_or(|s| s.same_store(named)),
            "a launch has one span store: make the flight recorder a view of the trace recorder"
        );
    }

    /// No flight recording for this run: no auto-created window store, no
    /// watchdog pass, no dumps. Virtual-time results never depend on
    /// recording; this exists for overhead A/B measurements and the
    /// golden-invariance tests that prove it.
    pub fn flight_off(mut self) -> Launch {
        self.flight = Some(false);
        self
    }

    /// Label used for this run's `FLIGHT_<label>.json` dumps (default
    /// `"run"`). Serve sets the job key here so dump artifacts carry the
    /// same correlation id as results and profiles.
    pub fn flight_label(mut self, label: impl Into<String>) -> Launch {
        self.flight_label = label.into();
        self
    }

    /// Pin the scheduler worker count for this run, overriding the
    /// `IMPACC_PARALLEL` environment default: how many simulated nodes
    /// (one partition each, lookahead derived from the machine's internode
    /// wire latency) may execute at once. Virtual-time results are
    /// bit-identical for every value, with or without a fault plan.
    pub fn parallelism(mut self, n: usize) -> Launch {
        self.parallelism = Some(n);
        self
    }

    /// Force one collective algorithm for every dispatched collective in
    /// this run. Requesting an algorithm that cannot serve an operation
    /// clamps deterministically; see `impacc_coll`.
    pub fn coll_algo(mut self, algo: CollAlgo) -> Launch {
        self.coll_algo = Some(algo);
        self
    }

    /// Install a deterministic fault-injection plan (`impacc-chaos`) for
    /// this run. The plan is consulted by every runtime layer; devices
    /// listed as failed are remapped away from at launch (§3.2).
    pub fn chaos(mut self, plan: FaultPlan) -> Launch {
        self.chaos = Chaos::new(plan);
        self
    }

    /// Set the `IMPACC_ACC_DEVICE_TYPE` filter.
    pub fn device_mask(mut self, mask: DeviceTypeMask) -> Launch {
        self.mask = mask;
        self
    }

    /// Cap the physical backing of every allocation (huge-scale runs).
    pub fn phys_cap(mut self, cap: u64) -> Launch {
        self.phys_cap = Some(cap);
        self
    }

    /// Limit scheduler dispatches (test hygiene).
    pub fn max_events(mut self, n: u64) -> Launch {
        self.max_events = n;
        self
    }

    /// Record typed spans and causal edges from every layer into `rec`
    /// (see `impacc_obs::Recorder`); they read back identically for every
    /// `IMPACC_PARALLEL` value. `rec` is the launch's one store — the
    /// flight window is a view of it.
    pub fn recorder(mut self, rec: &Recorder) -> Launch {
        self.assert_one_store(rec);
        self.store
            .get_or_insert_with(|| FlightRecorder::view_of(rec));
        self
    }

    /// Compute the automatic task-device mapping (Figure 2) without
    /// running anything. Returns the (possibly extended with synthesized
    /// CPU devices) spec and the mapping.
    pub fn plan(
        spec: &MachineSpec,
        mask: DeviceTypeMask,
        numa_pinning: bool,
    ) -> (MachineSpec, Vec<TaskInfo>) {
        let mut spec = spec.clone();
        let mut tasks = Vec::new();
        for (n, node) in spec.nodes.iter_mut().enumerate() {
            let mut matched: Vec<usize> = node
                .devices
                .iter()
                .enumerate()
                .filter(|(_, d)| mask.accepts(d.kind))
                .map(|(i, _)| i)
                .collect();
            let cpu_ok = mask == DeviceTypeMask::DEFAULT || mask.accepts(DeviceKind::CpuCores);
            if matched.is_empty() && cpu_ok {
                // CPU fallback: the node's cores act as one accelerator.
                node.devices.push(DeviceSpec {
                    model: "CPU cores".into(),
                    kind: DeviceKind::CpuCores,
                    mem_bytes: node.mem_bytes,
                    cores: node.total_cores() as u32,
                    gflops: 0.0, // derived from sockets in the cost model
                    mem_bw: 0.0,
                    socket: 0,
                    pcie_bw: 1.0,
                    pcie_lat: 0.0,
                });
                matched.push(node.devices.len() - 1);
            }
            let k = matched.len().max(1);
            for (i, d) in matched.into_iter().enumerate() {
                let dev_socket = node.devices[d].socket;
                let sockets = node.sockets.len().max(1);
                let rank = tasks.len() as u32;
                let socket = if numa_pinning {
                    dev_socket
                } else {
                    // Unpinned: the launcher's default compact core binding
                    // spreads the node's tasks over its sockets in rank
                    // order, oblivious to device affinity (§3.3).
                    i * sockets / k
                };
                tasks.push(TaskInfo {
                    rank,
                    node: n,
                    dev_idx: d,
                    kind: node.devices[d].kind,
                    socket,
                    far: socket != dev_socket,
                });
            }
        }
        assert!(
            !tasks.is_empty(),
            "no device in the cluster matches the requested device-type mask"
        );
        (spec, tasks)
    }

    /// Run `app` once per task and collect the report.
    pub fn run<F>(self, app: F) -> Result<RunSummary, SimError>
    where
        F: Fn(&TaskCtx) + Send + Sync + 'static,
    {
        if let Err(e) = impacc_machine::validate(&self.spec) {
            panic!("refusing to launch on an invalid machine: {e}");
        }
        let (spec, mut tasks) = Launch::plan(&self.spec, self.mask, self.options.numa_pinning);
        let impacc = self.options.is_impacc();
        let res = Arc::new(ClusterResources::with_chaos(
            Arc::new(spec),
            self.chaos.clone(),
        ));

        // Graceful degradation (§3.2): a task mapped onto a device the
        // fault plan declares failed is remapped onto a surviving device
        // on the same node, round-robin over the node's healthy devices.
        let mut remapped: Vec<bool> = vec![false; tasks.len()];
        if self.chaos.enabled() {
            let survivors: Vec<Vec<usize>> = (0..res.spec.node_count())
                .map(|n| {
                    let mut v: Vec<usize> = tasks
                        .iter()
                        .filter(|t| t.node == n && !self.chaos.device_failed(n, t.dev_idx))
                        .map(|t| t.dev_idx)
                        .collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let mut rr = vec![0usize; res.spec.node_count()];
            for (i, t) in tasks.iter_mut().enumerate() {
                if !self.chaos.device_failed(t.node, t.dev_idx) {
                    continue;
                }
                let pool = &survivors[t.node];
                assert!(
                    !pool.is_empty(),
                    "device n{}.d{} failed and node {} has no surviving device \
                     to remap rank {} onto",
                    t.node,
                    t.dev_idx,
                    t.node,
                    t.rank
                );
                let d = pool[rr[t.node] % pool.len()];
                rr[t.node] += 1;
                t.dev_idx = d;
                t.kind = res.spec.nodes[t.node].devices[d].kind;
                t.far = t.socket != res.spec.nodes[t.node].devices[d].socket;
                remapped[i] = true;
            }
        }

        let node_of: Arc<Vec<usize>> = Arc::new(tasks.iter().map(|t| t.node).collect());
        let world = Comm::world(tasks.len() as u32);

        // One span store per launch (§5j): the caller's, else — unless
        // flight recording is off — a window store that keeps every
        // actor's last moments.
        let flight_on = self.flight.unwrap_or_else(crate::config::flight_enabled);
        let mut store = self.store.clone().or_else(|| {
            flight_on.then(|| FlightRecorder::with_capacity(crate::config::flight_capacity()))
        });
        // `IMPACC_TRACE=<path>` traces any run without code changes: the
        // store keeps everything and the Chrome trace is written on
        // completion (a caller's own trace recorder wins).
        let trace_path =
            crate::config::trace_path().filter(|_| !store.as_ref().is_some_and(|s| s.is_full()));
        if trace_path.is_some() {
            match &store {
                Some(s) if s.enabled() => s.retain_all(),
                _ => store = Some(FlightRecorder::view_of(&Recorder::new())),
            }
        }
        let sink: Option<Arc<dyn SpanSink>> = store.as_ref().map(|s| s.sink());
        let flight = store.as_ref().filter(|_| flight_on);

        // Actors are partitioned by simulated node, with lookahead = the
        // machine's minimum cross-node event distance (internode wire
        // latency).
        let mut sim = Sim::with_config(SimConfig {
            stack_size: self.stack_size,
            max_events: self.max_events,
            sink,
            parallelism: self.parallelism.unwrap_or_else(crate::config::parallelism),
            lookahead: res.min_cross_node_latency(),
        });
        // Registers each node's delivery handler on that node's partition.
        let sysmpi = SysMpi::new(&mut sim, res.clone(), node_of.as_ref().clone());

        // Per-node shared structures (IMPACC). The baseline gets fresh
        // per-task ones below.
        let n_nodes = res.spec.node_count();
        let mut node_space: Vec<Option<Arc<AddressSpace>>> = vec![None; n_nodes];
        let mut node_heap: Vec<Option<Arc<NodeHeap>>> = vec![None; n_nodes];
        let mut node_devices: Vec<Option<Vec<Device>>> = vec![None; n_nodes];
        let mut node_handler: Vec<Option<Arc<NodeHandler>>> = vec![None; n_nodes];
        // Hierarchical collectives rendezvous through one NodeColl per
        // node, alongside the node VAS. The baseline has no shared node
        // memory, so its tasks get none and the engine stays flat/p2p.
        let mut node_coll: Vec<Option<Arc<NodeColl>>> = vec![None; n_nodes];
        if impacc {
            for t in &tasks {
                if node_space[t.node].is_none() {
                    let space = Arc::new(AddressSpace::new(
                        res.spec.nodes[t.node].mem_bytes,
                        self.phys_cap,
                    ));
                    let devices: Vec<Device> = (0..res.spec.nodes[t.node].devices.len())
                        .map(|i| Device::new(t.node, i, res.clone(), space.clone()))
                        .collect();
                    let heap = Arc::new(NodeHeap::new());
                    let handler = NodeHandler::new(
                        t.node,
                        res.clone(),
                        space.clone(),
                        heap.clone(),
                        devices.clone(),
                        self.options,
                        self.phys_cap,
                    );
                    {
                        let handler = handler.clone();
                        // Pinned to its node's partition: the handler
                        // touches only node-local shared structures.
                        let name = format!("handler.n{}", t.node);
                        sim.spawn_handler_on(t.node as u32, name, |ctx| async move {
                            handler.run(&ctx).await
                        });
                    }
                    node_space[t.node] = Some(space);
                    node_heap[t.node] = Some(heap);
                    node_devices[t.node] = Some(devices);
                    node_handler[t.node] = Some(handler);
                    node_coll[t.node] = Some(NodeColl::new());
                }
            }
        }

        let app = Arc::new(app);
        for (i, t) in tasks.iter().enumerate() {
            let was_remapped = remapped[i];
            let (space, heap, devices, handler) = if impacc {
                (
                    node_space[t.node].clone().expect("built above"),
                    node_heap[t.node].clone().expect("built above"),
                    node_devices[t.node].clone().expect("built above"),
                    node_handler[t.node].clone(),
                )
            } else {
                // Baseline: a private address space per task (OS process).
                let space = Arc::new(AddressSpace::new(
                    res.spec.nodes[t.node].mem_bytes,
                    self.phys_cap,
                ));
                let devices: Vec<Device> = (0..res.spec.nodes[t.node].devices.len())
                    .map(|i| Device::new(t.node, i, res.clone(), space.clone()))
                    .collect();
                (space, Arc::new(NodeHeap::new()), devices, None)
            };
            let seed = TaskSeed {
                world: world.clone(),
                socket: t.socket,
                dev_far: t.far,
                device: devices[t.dev_idx].clone(),
                space,
                heap,
                comm: CommCore {
                    rank: t.rank,
                    node: t.node,
                    node_of: node_of.clone(),
                    res: res.clone(),
                    sysmpi: MpiTask::new(sysmpi.clone(), t.rank),
                    handler,
                    devices,
                    opts: self.options,
                    phys_cap: self.phys_cap,
                },
                node_coll: node_coll[t.node].clone(),
                coll_algo: self.coll_algo,
            };
            let app = app.clone();
            let (node, dev_idx, socket, far) = (t.node, t.dev_idx, t.socket, t.far);
            sim.spawn_on(t.node as u32, format!("rank{}", t.rank), move |ctx| {
                ctx.event("marker", || {
                    vec![
                        ("phase", "pin".to_string()),
                        ("node", node.to_string()),
                        ("device", dev_idx.to_string()),
                        ("socket", socket.to_string()),
                        ("far", far.to_string()),
                    ]
                });
                if was_remapped {
                    ctx.metrics().inc("device_remaps");
                    ctx.event("marker", || {
                        vec![
                            ("phase", "remap".to_string()),
                            ("node", node.to_string()),
                            ("device", dev_idx.to_string()),
                        ]
                    });
                }
                let tc = TaskCtx::from_seed(ctx.clone(), seed);
                app(&tc);
            });
        }

        // Counter handle surviving `sim.run(self)`: a panicked run still
        // has final counters for its black-box dump.
        let metrics = sim.metrics().clone();
        let report = match sim.run() {
            Ok(report) => report,
            Err(e) => {
                if let (Some(fr), Some(dir)) = (flight, crate::config::flight_dump_dir()) {
                    let dump = fr.dump(
                        &self.flight_label,
                        Trigger::Panic(format!("{e:?}")),
                        metrics.snapshot(),
                        &[],
                    );
                    match dump.write(&dir) {
                        Ok(path) => eprintln!("flight: panic dump at {}", path.display()),
                        Err(we) => eprintln!("flight: failed to write panic dump: {we}"),
                    }
                }
                return Err(e);
            }
        };
        if let Some(s) = &store {
            // Concurrent partitions emit edges in racy real-time order;
            // sorting them restores a schedule-independent order so
            // recorded artifacts are byte-identical for every worker count.
            s.canonicalize();
        }
        // Watchdog pass over the run's final counters. Findings become
        // structured `anomaly` spans (recorded into the store at the
        // run's end instant), and — when a dump directory is configured —
        // trigger a `FLIGHT_*.json` dump.
        if let Some(fr) = flight {
            let wd = Watchdog::new();
            let pairs: Vec<(&str, u64)> = report.metrics.iter().map(|(k, v)| (*k, *v)).collect();
            let mut anomalies = wd.check_counters(&pairs);
            if let Some(a) = wd.check_engine(report.horizon_stalls, report.parallel_advances) {
                anomalies.push(a);
            }
            for a in &anomalies {
                fr.record_span(a.to_span(report.end_time));
            }
            if let Some(dir) = crate::config::flight_dump_dir() {
                let dump = fr.dump_run(
                    &self.flight_label,
                    report.metrics.iter().map(|(k, v)| (*k, *v)),
                    &anomalies,
                );
                if let Err(e) = dump.write(&dir) {
                    eprintln!("flight: failed to write dump: {e}");
                }
            }
        }
        if let (Some(s), Some(path)) = (&store, trace_path) {
            let spans = s.spans();
            let label = if impacc { "impacc" } else { "baseline" };
            if let Err(e) =
                impacc_obs::chrome::write_trace_groups(&path, &[(label, spans.as_slice())])
            {
                eprintln!("IMPACC_TRACE: failed to write {}: {e}", path.display());
            }
        }
        Ok(RunSummary { report, tasks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_machine::presets;

    #[test]
    fn default_mask_takes_all_accelerators() {
        let (_, tasks) = Launch::plan(&presets::psg(), DeviceTypeMask::DEFAULT, true);
        assert_eq!(tasks.len(), 8);
        assert!(tasks.iter().all(|t| t.kind == DeviceKind::CudaGpu));
        assert!(tasks.iter().all(|t| !t.far), "pinned tasks sit near");
    }

    #[test]
    fn mixed_cluster_mapping_matches_figure2() {
        let m = presets::mixed_demo();
        // (a) default: node0 2 GPUs, node1 GPU+MIC, node2 CPU fallback.
        let (_, t) = Launch::plan(&m, DeviceTypeMask::DEFAULT, true);
        let kinds: Vec<DeviceKind> = t.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DeviceKind::CudaGpu,
                DeviceKind::CudaGpu,
                DeviceKind::CudaGpu,
                DeviceKind::OpenClMic,
                DeviceKind::CpuCores
            ]
        );
        // (b) nvidia only: 3 tasks, node2 has none.
        let (_, t) = Launch::plan(&m, DeviceTypeMask::NVIDIA, true);
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|x| x.kind == DeviceKind::CudaGpu));
        // (c) cpu: one task per node.
        let (_, t) = Launch::plan(&m, DeviceTypeMask::CPU, true);
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|x| x.kind == DeviceKind::CpuCores));
        assert_eq!(t.iter().map(|x| x.node).collect::<Vec<_>>(), vec![0, 1, 2]);
        // (d) xeonphi: one task (node 1).
        let (_, t) = Launch::plan(&m, DeviceTypeMask::XEONPHI, true);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].node, 1);
        // (e) nvidia|xeonphi: 4 tasks.
        let (_, t) = Launch::plan(&m, DeviceTypeMask::NVIDIA.or(DeviceTypeMask::XEONPHI), true);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn unpinned_compact_binding_ignores_device_affinity() {
        // Full PSG: compact binding happens to match the socket layout
        // (4 GPUs per socket), so nobody lands far...
        let (_, tasks) = Launch::plan(&presets::psg(), DeviceTypeMask::DEFAULT, false);
        assert_eq!(tasks.iter().filter(|t| t.far).count(), 0);
        // ...but with only the first 4 GPUs (all on socket 0), the same
        // binding strands half the tasks on the far socket.
        let mut spec = presets::psg();
        spec.nodes[0].devices.truncate(4);
        let (_, tasks) = Launch::plan(&spec, DeviceTypeMask::DEFAULT, false);
        assert_eq!(tasks.iter().filter(|t| t.far).count(), 2);
        let (_, pinned) = Launch::plan(&spec, DeviceTypeMask::DEFAULT, true);
        assert_eq!(pinned.iter().filter(|t| t.far).count(), 0);
    }

    #[test]
    #[should_panic(expected = "no device in the cluster")]
    fn empty_mapping_is_an_error() {
        let m = presets::beacon(1);
        let _ = Launch::plan(&m, DeviceTypeMask::NVIDIA, true);
    }

    #[test]
    fn device_loss_remaps_onto_survivor() {
        let mut spec = presets::psg();
        spec.nodes[0].devices.truncate(2);
        let s = Launch::new(spec, RuntimeOptions::impacc())
            .chaos(FaultPlan::new(7).fail_device(0, 0))
            .run(|tc| {
                tc.mpi_barrier();
            })
            .unwrap();
        assert_eq!(s.tasks[0].dev_idx, 1, "rank 0 moved onto the survivor");
        assert_eq!(s.tasks[1].dev_idx, 1, "rank 1 kept its healthy device");
        let remaps = s.report.metrics.get("device_remaps").copied().unwrap_or(0);
        assert_eq!(remaps, 1);
    }

    #[test]
    #[should_panic(expected = "no surviving device")]
    fn total_device_loss_is_an_error() {
        let mut spec = presets::psg();
        spec.nodes[0].devices.truncate(1);
        let _ = Launch::new(spec, RuntimeOptions::impacc())
            .chaos(FaultPlan::new(7).fail_device(0, 0))
            .run(|_tc| {});
    }
}
