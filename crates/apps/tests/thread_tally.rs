//! A launch runs on the thread that calls it. A rank launched through the
//! stack (`Launch::run_async`) is a handler, as are the node message
//! handlers, the activity queues and the MPI delivery handlers, and the
//! engine polls every one of them on the thread that called `run`: no
//! thread is started, on one node or on 512. Each test wraps the rank
//! futures so that every poll — every activation of a rank — notes the
//! thread it ran on.

use std::collections::HashSet;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::thread::ThreadId;

use impacc_apps::{jacobi_task, launch_app, JacobiParams};
use impacc_core::{MpiOpts, Rank, RunSummary, RuntimeOptions};
use impacc_machine::{presets, KernelCost, MachineSpec};

type RanOn = Arc<Mutex<HashSet<ThreadId>>>;

/// A rank future that notes the thread of each of its polls.
struct Noted<F> {
    fut: Pin<Box<F>>,
    ran_on: RanOn,
}

impl<F: Future> Future for Noted<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let here = std::thread::current().id();
        self.ran_on.lock().unwrap().insert(here);
        self.fut.as_mut().poll(cx)
    }
}

/// `launch_app`, asserting that every rank activation ran on this thread.
fn on_this_thread<F, Fut>(
    spec: MachineSpec,
    options: RuntimeOptions,
    phys_cap: Option<u64>,
    app: F,
) -> RunSummary
where
    F: Fn(Rank) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = ()> + Send + 'static,
{
    let ran_on: RanOn = Arc::default();
    let noted = ran_on.clone();
    let app = move |tc| Noted {
        fut: Box::pin(app(tc)),
        ran_on: noted.clone(),
    };
    let s = launch_app(spec, options, phys_cap, app).expect("launch completes");
    let only: HashSet<_> = [std::thread::current().id()].into();
    assert_eq!(*ran_on.lock().unwrap(), only);
    s
}

fn jacobi(
    spec: MachineSpec,
    options: RuntimeOptions,
    phys_cap: Option<u64>,
    p: JacobiParams,
) -> RunSummary {
    on_this_thread(spec, options, phys_cap, move |tc| {
        let p = p.clone();
        async move { jacobi_task(&tc, &p, None).await }
    })
}

#[test]
fn titan_jacobi_on_512_nodes_spawns_no_thread() {
    let p = JacobiParams {
        n: 1024,
        iters: 2,
        verify: false,
    };
    let s = jacobi(presets::titan(512), RuntimeOptions::impacc(), Some(4096), p);
    assert_eq!(s.tasks.len(), 512);
    // 512 node handlers, 512 queues and 512 delivery handlers ran beside
    // the ranks.
    assert!(s.report.actor("handler.n511").is_some());
    assert!(s.report.actor("q1.rank511").is_some());
}

#[test]
fn unified_queue_exchange_on_psg_spawns_no_thread() {
    // Figure 4(c)'s shape on all eight PSG GPUs: kernel, send, receive and
    // kernel on queue 1 in every rank, the host waiting once at the end.
    let s = on_this_thread(
        presets::psg(),
        RuntimeOptions::impacc(),
        None,
        |tc| async move {
            let peer = tc.rank() ^ 1;
            let (out, inn) = (tc.malloc_f64(512).await, tc.malloc_f64(512).await);
            tc.acc_create(&out);
            tc.acc_create(&inn);
            tc.acc_kernel(Some(1), KernelCost::flops(1e8), || {}).await;
            tc.mpi_send(&out, 0, out.len, peer, 0, MpiOpts::device().on_queue(1))
                .await;
            tc.mpi_recv(&inn, 0, inn.len, peer, 0, MpiOpts::device().on_queue(1))
                .await;
            tc.acc_kernel(Some(1), KernelCost::flops(1e8), || {}).await;
            tc.acc_wait(1).await;
        },
    );
    assert_eq!(s.tasks.len(), 8);
    assert_eq!(s.report.metrics["fused_msgs"], 8);
}

#[test]
fn baseline_mode_spawns_no_thread() {
    let p = JacobiParams {
        n: 64,
        iters: 3,
        verify: true,
    };
    let s = jacobi(presets::psg(), RuntimeOptions::baseline(), None, p);
    assert_eq!(s.tasks.len(), 8);
}
