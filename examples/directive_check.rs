//! The compiler front-end half: parse `#pragma acc mpi` directives (§3.5),
//! check each against the MPI call it annotates, and show the runtime
//! options each one selects.
//!
//! Run with: `cargo run --release --example directive_check`

use impacc::directives::parse_directive;

/// Each directive with the MPI call that follows it in the source.
const ANNOTATED: &[(&str, &str)] = &[
    // Figure 4(c): the fully asynchronous IMPACC pipeline.
    ("#pragma acc mpi sendbuf(device) async(1)", "MPI_Isend"),
    ("#pragma acc mpi recvbuf(device) async(1)", "MPI_Irecv"),
    // Figure 7: read-only pair eligible for node heap aliasing.
    ("#pragma acc mpi sendbuf(readonly)", "MPI_Send"),
    ("#pragma acc mpi recvbuf(readonly)", "MPI_Recv"),
    // And two mistakes a compiler should catch:
    ("#pragma acc mpi recvbuf(device)", "MPI_Isend"),
    ("#pragma acc mpi sendbuf(device) async(2)", "MPI_Send"),
];

fn main() {
    let mut refused = 0;
    for (line, call) in ANNOTATED {
        let d = parse_directive(line).expect("every listed directive parses");
        match d.check_call(call) {
            Ok(()) => println!(
                "  {}  ->  {call} (send opts {:?}, recv opts {:?})",
                d.render(),
                d.send_opts(),
                d.recv_opts(),
            ),
            Err(why) => {
                refused += 1;
                println!("  {}  ->  {call}: refused, {why}", d.render());
            }
        }
    }
    assert_eq!(refused, 2, "the two seeded mistakes are caught");

    // A malformed directive is a parse error at a byte offset.
    let e = parse_directive("#pragma acc mpi sendbuf(writable)").unwrap_err();
    println!("\nparse error: {e}");
}
