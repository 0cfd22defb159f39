//! Result bodies cannot drift either. `key_stability.rs` pins the address;
//! this pins what is stored under it. A result body is every virtual-time
//! observable of a run — end time, dispatch count, every engine counter —
//! so a build that changes only wall-clock must reproduce it byte for
//! byte, and a cache written by its parent must keep answering for it.
//!
//! One job per workload class (the allreduce at the payload size whose
//! buffers are `mmap`-sized), and a Jacobi with more ranks than mesh rows,
//! which once deadlocked; the observables were captured on the parent
//! of the in-place collective fold and hold for every `IMPACC_PARALLEL`
//! value: one key, one body. A deliberate cost-model change moves these
//! literals together with `code_version()` (bump
//! `impacc_serve::RESULTS_EPOCH`); recapture them from the `BODY` lines of
//! `cargo test -p impacc-serve --test result_stability -- --nocapture`.

use impacc_serve::workload::run_job;
use impacc_serve::JobSpec;

/// A job and its result body: `head` up to and including the canonical job
/// echo, then the observables.
struct Pinned {
    name: &'static str,
    request: &'static str,
    head: &'static str,
    tail: &'static str,
}

const PINNED: [Pinned; 8] = [
    Pinned {
        name: "allreduce",
        request: "workload=allreduce\nnodes=2\ngpus=4\nelems=131072\nrounds=2\nalgo=rabenseifner\nseed=3",
        head: "{\"schema_version\":2,\"key\":\"95174554a70a1ad8\",\"code_version\":\"impacc/0.1.0+schema2+results3\",\"job\":\"algo=rabenseifner chaos_rate=0 chaos_seed=0 elems=131072 fail_device= gpus=4 nodes=2 rounds=2 seed=3 spec=test_cluster workload=allreduce\",",
        tail: "\"end_ps\":2016342208,\"events\":712,\"tasks\":8,\"metrics\":{\"HtoH\":12582912,\"coll_algo_rabenseifner\":16,\"fused_msgs\":64,\"mpi_bytes_sent\":16777216,\"t_HtoH\":1369177600}}",
    },
    Pinned {
        name: "exchange",
        request: "workload=exchange\nnodes=2\ngpus=1\nrounds=3",
        head: "{\"schema_version\":2,\"key\":\"f2662f7672804c0d\",\"code_version\":\"impacc/0.1.0+schema2+results3\",\"job\":\"chaos_rate=0 chaos_seed=0 fail_device= gpus=1 nodes=2 rounds=3 seed=0 spec=test_cluster workload=exchange\",",
        tail: "\"end_ps\":198958508,\"events\":110,\"tasks\":2,\"metrics\":{\"DtoH\":196608,\"HtoD\":196608,\"mpi_bytes_sent\":196608,\"t_DtoH\":68768004,\"t_HtoD\":68768004}}",
    },
    Pinned {
        name: "jacobi",
        request: "workload=jacobi\nspec=psg\nnodes=1\ngpus=4\nn=32\niters=5",
        head: "{\"schema_version\":2,\"key\":\"6a14951f6efba1e7\",\"code_version\":\"impacc/0.1.0+schema2+results3\",\"job\":\"chaos_rate=0 chaos_seed=0 fail_device= gpus=4 iters=5 n=32 nodes=1 seed=0 spec=psg workload=jacobi\",",
        tail: "\"end_ps\":255723959,\"events\":413,\"tasks\":4,\"metrics\":{\"DtoD\":7680,\"HtoD\":20480,\"array_cells\":4800,\"array_halo_bytes\":7680,\"coll_algo_hier\":20,\"coll_intra_bytes\":280,\"fused_msgs\":30,\"t_DtoD\":405829640,\"t_HtoD\":51413336}}",
    },
    // More ranks than mesh rows: the last eight tiles are empty.
    Pinned {
        name: "jacobi_sparse",
        request: "workload=jacobi\nnodes=2\ngpus=8\nn=8\niters=2",
        head: "{\"schema_version\":2,\"key\":\"e69c1a486dc3095c\",\"code_version\":\"impacc/0.1.0+schema2+results3\",\"job\":\"chaos_rate=0 chaos_seed=0 fail_device= gpus=8 iters=2 n=8 nodes=2 seed=0 spec=test_cluster workload=jacobi\",",
        tail: "\"end_ps\":132201066,\"events\":674,\"tasks\":16,\"metrics\":{\"DtoD\":1792,\"HtoD\":5120,\"array_cells\":96,\"array_halo_bytes\":1792,\"coll_algo_hier\":32,\"coll_inter_bytes\":32,\"coll_intra_bytes\":480,\"fused_msgs\":28,\"mpi_bytes_sent\":32,\"t_DtoD\":365377780,\"t_HtoD\":192853344}}",
    },
    Pinned {
        name: "stencil3d",
        request: "workload=stencil3d\nnodes=2\ngpus=2\nn=8\niters=3",
        head: "{\"schema_version\":2,\"key\":\"85522cb51d74abd4\",\"code_version\":\"impacc/0.1.0+schema2+results3\",\"job\":\"chaos_rate=0 chaos_seed=0 fail_device= gpus=2 iters=3 n=8 nodes=2 seed=0 spec=test_cluster workload=stencil3d\",",
        tail: "\"end_ps\":334237602,\"events\":628,\"tasks\":4,\"metrics\":{\"DtoD\":3072,\"DtoH\":3072,\"HtoD\":21504,\"array_cells\":1152,\"array_halo_bytes\":6144,\"coll_algo_hier\":12,\"coll_inter_bytes\":48,\"coll_intra_bytes\":144,\"fused_msgs\":48,\"mpi_bytes_sent\":3120,\"t_DtoD\":624284448,\"t_DtoH\":72256008,\"t_HtoD\":207328008}}",
    },
    Pinned {
        name: "stencil2d",
        request: "workload=stencil2d\nnodes=1\ngpus=2\nn=16\niters=3\nhalo=2",
        head: "{\"schema_version\":2,\"key\":\"7568bc324e70e04e\",\"code_version\":\"impacc/0.1.0+schema2+results3\",\"job\":\"chaos_rate=0 chaos_seed=0 fail_device= gpus=2 halo=2 iters=3 n=16 nodes=1 seed=0 spec=test_cluster workload=stencil2d\",",
        tail: "\"end_ps\":102224312,\"events\":110,\"tasks\":2,\"metrics\":{\"DtoD\":1536,\"HtoD\":6144,\"array_cells\":576,\"array_halo_bytes\":1536,\"coll_algo_hier\":6,\"coll_intra_bytes\":72,\"fused_msgs\":6,\"t_DtoD\":78142224,\"t_HtoD\":25024000}}",
    },
    Pinned {
        name: "redblack",
        request: "workload=redblack\nspec=titan\nnodes=2\nn=16\niters=3",
        head: "{\"schema_version\":2,\"key\":\"52e298e2e07a7317\",\"code_version\":\"impacc/0.1.0+schema2+results3\",\"job\":\"chaos_rate=0 chaos_seed=0 fail_device= gpus=1 iters=3 n=16 nodes=2 seed=0 spec=titan workload=redblack\",",
        tail: "\"end_ps\":125670318,\"events\":162,\"tasks\":2,\"metrics\":{\"HtoD\":2560,\"array_cells\":1344,\"array_halo_bytes\":1536,\"coll_algo_rd\":6,\"mpi_bytes_sent\":1584,\"t_HtoD\":14853334}}",
    },
    Pinned {
        name: "dsl",
        request: "workload=dsl\nprogram=dot\nnodes=1\ngpus=2",
        head: "{\"schema_version\":2,\"key\":\"a3facb7ba8c0ea2c\",\"code_version\":\"impacc/0.1.0+schema2+results3\",\"job\":\"chaos_rate=0 chaos_seed=0 fail_device= gpus=2 nodes=1 program=param\\\\sn\\\\s=\\\\s4096.0;\\\\narray\\\\sx[n]\\\\sinit((0.5\\\\s+\\\\si));\\\\narray\\\\sy[n]\\\\sinit(2.0);\\\\ncomm_split_shared;\\\\nvar\\\\ssum\\\\s=\\\\s0.0;\\\\n\\\\hpragma\\\\sacc\\\\sparallel\\\\sloop\\\\scopyin(x,\\\\sy)\\\\sreduction(+:sum)\\\\nfor\\\\s(i\\\\s=\\\\s0.0;\\\\si\\\\s<\\\\sn;\\\\s++i)\\\\s{\\\\n\\\\s\\\\ssum\\\\s+=\\\\s(x[i]\\\\s*\\\\sy[i]);\\\\n}\\\\nassert((sum\\\\s==\\\\s(n\\\\s*\\\\sn)));\\\\n seed=0 spec=test_cluster src_hash=7723bc8b5d43ce0c workload=dsl\",",
        tail: "\"end_ps\":43003067,\"events\":46,\"tasks\":2,\"metrics\":{\"HtoD\":65536,\"coll_algo_hier\":4,\"coll_intra_bytes\":104,\"t_HtoD\":34922668}}",
    },
];

#[test]
fn pinned_jobs_keep_their_result_bodies() {
    for p in PINNED {
        let job = JobSpec::parse(p.request).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let got = run_job(&job).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        println!("BODY {} {}", p.name, got.result);
        let want = format!("{}{}", p.head, p.tail);
        assert_eq!(got.result, want, "{}: result body drifted", p.name);
    }
}
