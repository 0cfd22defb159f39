//! Directive-to-runtime lowering: the plan of `Rank` calls the IMPACC
//! compiler would emit for each directive in a source file.
//!
//! The real compiler is a full source-to-source translator (built on
//! OpenARC; out of the paper's scope). This module implements the part
//! that *is* specified: which runtime operations each directive selects,
//! with which queue and buffer options — enough to check a program's
//! directive usage end-to-end and to drive the runtime from annotated
//! sources in tests.

use impacc_core::MpiOpts;
use impacc_machine::LaunchConfig;

use crate::acc::{parse_acc_directive, AccKind};
use crate::parser::parse_directive;
use crate::scan::{classify_call_pub, ScanIssue};

/// One lowered runtime operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeCall {
    /// `acc_create` for each variable (enter data create / data create).
    Create {
        /// Variables to mirror on the device.
        vars: Vec<String>,
    },
    /// `acc_delete` for each variable (exit data delete).
    Delete {
        /// Variables whose mirrors are dropped.
        vars: Vec<String>,
    },
    /// `acc_update_device(var)` (copyin / update device).
    UpdateDevice {
        /// Variables to push.
        vars: Vec<String>,
        /// Activity queue, if `async`.
        queue: Option<u32>,
    },
    /// `acc_update_host(var)` (copyout / update host|self).
    UpdateHost {
        /// Variables to pull.
        vars: Vec<String>,
        /// Activity queue, if `async`.
        queue: Option<u32>,
    },
    /// `acc_kernel(...)` for a compute construct.
    KernelLaunch {
        /// Activity queue, if `async`; `None` = synchronous construct
        /// with its implicit barrier.
        queue: Option<u32>,
        /// Gang/worker/vector configuration from the tuning clauses.
        cfg: LaunchConfig,
    },
    /// `acc_wait(q)` for each listed queue (empty = wait all).
    Wait {
        /// Queues to drain.
        queues: Vec<u32>,
    },
    /// A unified MPI call with IMPACC directive options applied.
    UnifiedMpi {
        /// The annotated call's name (`MPI_Isend`, ...).
        call: String,
        /// Options for the send side.
        send_opts: MpiOpts,
        /// Options for the receive side.
        recv_opts: MpiOpts,
    },
}

/// The lowering of one source file: `(line, call)` pairs plus front-end
/// diagnostics.
#[derive(Clone, Debug, Default)]
pub struct Lowering {
    /// Lowered operations in source order.
    pub calls: Vec<(usize, RuntimeCall)>,
    /// Diagnostics (parse failures, clause/call mismatches).
    pub issues: Vec<ScanIssue>,
}

/// Lower every `#pragma acc` directive in `source`.
pub fn translate(source: &str) -> Lowering {
    let mut out = Lowering::default();
    let lines: Vec<&str> = source.lines().collect();
    for (i, raw) in lines.iter().enumerate() {
        let line_no = i + 1;
        let trimmed = raw.trim_start();
        if !trimmed.starts_with("#pragma") {
            continue;
        }
        let mut words = trimmed.split_whitespace();
        let (_, second, third) = (words.next(), words.next(), words.next());
        if second != Some("acc") {
            continue;
        }
        if third == Some("mpi") {
            // Diagnostics for `acc mpi` lines come from the scan pass
            // appended below; here we only lower the well-formed ones.
            if let Ok(d) = parse_directive(trimmed) {
                let call = lines[i + 1..]
                    .iter()
                    .map(|l| l.trim())
                    .find(|l| !l.is_empty() && !l.starts_with("//"))
                    .and_then(classify_call_pub);
                if let Some((_, name)) = call {
                    out.calls.push((
                        line_no,
                        RuntimeCall::UnifiedMpi {
                            call: name,
                            send_opts: d.send_opts(),
                            recv_opts: d.recv_opts(),
                        },
                    ));
                }
            }
            continue;
        }
        match parse_acc_directive(trimmed) {
            Ok(d) => {
                let q = d.queue();
                let grab = |clauses: &[&str]| -> Vec<String> {
                    clauses
                        .iter()
                        .flat_map(|c| d.vars_of(c))
                        .map(|s| s.to_string())
                        .collect()
                };
                if !d.waits.is_empty() || d.kind == AccKind::Wait {
                    out.calls.push((
                        line_no,
                        RuntimeCall::Wait {
                            queues: d.waits.clone(),
                        },
                    ));
                }
                // Data motion clauses lower in OpenACC's defined order:
                // create/copyin at region entry, then the construct itself.
                let creates = grab(&["create", "copy", "copyin", "copyout"]);
                if (matches!(d.kind, AccKind::Data | AccKind::EnterData)
                    || (matches!(d.kind, AccKind::Kernels | AccKind::Parallel)
                        && !creates.is_empty()))
                    && !creates.is_empty()
                {
                    out.calls
                        .push((line_no, RuntimeCall::Create { vars: creates }));
                }
                let ins = grab(&["copy", "copyin"]);
                if !ins.is_empty() {
                    out.calls.push((
                        line_no,
                        RuntimeCall::UpdateDevice {
                            vars: ins,
                            queue: q,
                        },
                    ));
                }
                match d.kind {
                    AccKind::Kernels | AccKind::Parallel => {
                        let cfg = LaunchConfig {
                            gangs: d.num_gangs,
                            workers: d.num_workers,
                            vector: d.vector_length,
                        };
                        out.calls
                            .push((line_no, RuntimeCall::KernelLaunch { queue: q, cfg }));
                    }
                    AccKind::Update => {
                        let dev = grab(&["device"]);
                        if !dev.is_empty() {
                            out.calls.push((
                                line_no,
                                RuntimeCall::UpdateDevice {
                                    vars: dev,
                                    queue: q,
                                },
                            ));
                        }
                        let host = grab(&["host", "self"]);
                        if !host.is_empty() {
                            out.calls.push((
                                line_no,
                                RuntimeCall::UpdateHost {
                                    vars: host,
                                    queue: q,
                                },
                            ));
                        }
                    }
                    AccKind::ExitData => {
                        let outs = grab(&["copy", "copyout"]);
                        if !outs.is_empty() {
                            out.calls.push((
                                line_no,
                                RuntimeCall::UpdateHost {
                                    vars: outs,
                                    queue: q,
                                },
                            ));
                        }
                        let dels = grab(&["delete", "copy", "copyout"]);
                        if !dels.is_empty() {
                            out.calls
                                .push((line_no, RuntimeCall::Delete { vars: dels }));
                        }
                    }
                    _ => {}
                }
                // Compute constructs with copyout lower the pull at region
                // exit.
                if matches!(d.kind, AccKind::Kernels | AccKind::Parallel) {
                    let outs = grab(&["copy", "copyout"]);
                    if !outs.is_empty() {
                        out.calls.push((
                            line_no,
                            RuntimeCall::UpdateHost {
                                vars: outs,
                                queue: q,
                            },
                        ));
                    }
                }
            }
            Err(error) => out.issues.push(ScanIssue::Parse {
                line: line_no,
                error,
            }),
        }
    }
    // Reuse the clause/call validation from the scanner.
    let (_, mut scan_issues) = crate::scan::scan_source(source);
    out.issues.append(&mut scan_issues);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The complete Figure 4(c) listing lowers to the exact call sequence
    /// the IMPACC runtime expects.
    #[test]
    fn figure4c_lowers_to_the_unified_pipeline() {
        let src = r#"
#pragma acc kernels loop async(1)
for (i = 0; i < n; i++) { buf0[i] = f(i); }
#pragma acc mpi sendbuf(device) async(1)
MPI_Isend(buf0, n, MPI_DOUBLE, peer, 0, comm, &req0);
#pragma acc mpi recvbuf(device) async(1)
MPI_Irecv(buf1, n, MPI_DOUBLE, peer, 0, comm, &req1);
#pragma acc kernels loop async(1)
for (i = 0; i < n; i++) { g(buf1[i]); }
"#;
        let l = translate(src);
        assert!(l.issues.is_empty(), "{:?}", l.issues);
        let kinds: Vec<&RuntimeCall> = l.calls.iter().map(|(_, c)| c).collect();
        assert_eq!(kinds.len(), 4);
        assert!(matches!(
            kinds[0],
            RuntimeCall::KernelLaunch { queue: Some(1), .. }
        ));
        match kinds[1] {
            RuntimeCall::UnifiedMpi {
                call, send_opts, ..
            } => {
                assert_eq!(call, "MPI_Isend");
                assert!(send_opts.device);
                assert_eq!(send_opts.queue, Some(1));
            }
            other => panic!("expected unified send, got {other:?}"),
        }
        match kinds[2] {
            RuntimeCall::UnifiedMpi {
                call, recv_opts, ..
            } => {
                assert_eq!(call, "MPI_Irecv");
                assert!(recv_opts.device);
            }
            other => panic!("expected unified recv, got {other:?}"),
        }
        assert!(matches!(
            kinds[3],
            RuntimeCall::KernelLaunch { queue: Some(1), .. }
        ));
    }

    #[test]
    fn figure4a_lowers_with_data_motion_around_kernels() {
        let src = r#"
#pragma acc kernels loop copyout(buf0)
for (i = 0; i < n; i++) { buf0[i] = f(i); }
#pragma acc kernels loop copyin(buf1)
for (i = 0; i < n; i++) { g(buf1[i]); }
"#;
        let l = translate(src);
        assert!(l.issues.is_empty());
        let kinds: Vec<&RuntimeCall> = l.calls.iter().map(|(_, c)| c).collect();
        // copyout: create + launch + pull; copyin: create + push + launch.
        assert!(matches!(kinds[0], RuntimeCall::Create { .. }));
        assert!(matches!(
            kinds[1],
            RuntimeCall::KernelLaunch { queue: None, .. }
        ));
        assert!(matches!(
            kinds[2],
            RuntimeCall::UpdateHost { queue: None, .. }
        ));
        assert!(matches!(kinds[3], RuntimeCall::Create { .. }));
        assert!(matches!(kinds[4], RuntimeCall::UpdateDevice { .. }));
        assert!(matches!(
            kinds[5],
            RuntimeCall::KernelLaunch { queue: None, .. }
        ));
    }

    #[test]
    fn update_and_wait_lower_directly() {
        let l = translate(
            "#pragma acc update host(u) async(2)\n#pragma acc wait(2)\n#pragma acc update device(u)\n",
        );
        assert!(l.issues.is_empty());
        assert_eq!(
            l.calls[0].1,
            RuntimeCall::UpdateHost {
                vars: vec!["u".into()],
                queue: Some(2)
            }
        );
        assert_eq!(l.calls[1].1, RuntimeCall::Wait { queues: vec![2] });
        assert_eq!(
            l.calls[2].1,
            RuntimeCall::UpdateDevice {
                vars: vec!["u".into()],
                queue: None
            }
        );
    }

    #[test]
    fn enter_exit_data_pair() {
        let l = translate(
            "#pragma acc enter data create(u) copyin(v)\n#pragma acc exit data copyout(u) delete(v)\n",
        );
        assert!(l.issues.is_empty());
        let kinds: Vec<&RuntimeCall> = l.calls.iter().map(|(_, c)| c).collect();
        assert!(matches!(kinds[0], RuntimeCall::Create { .. }));
        assert!(matches!(kinds[1], RuntimeCall::UpdateDevice { .. }));
        assert!(matches!(kinds[2], RuntimeCall::UpdateHost { .. }));
        match kinds[3] {
            RuntimeCall::Delete { vars } => {
                assert!(vars.contains(&"v".to_string()) && vars.contains(&"u".to_string()))
            }
            other => panic!("expected delete, got {other:?}"),
        }
    }

    #[test]
    fn tuning_clauses_reach_the_launch_config() {
        let l = translate(
            "#pragma acc parallel loop num_gangs(64) num_workers(4) vector_length(128) async(1)\nx;\n",
        );
        assert!(l.issues.is_empty());
        match &l.calls[0].1 {
            RuntimeCall::KernelLaunch { queue, cfg } => {
                assert_eq!(*queue, Some(1));
                assert_eq!(cfg.gangs, Some(64));
                assert_eq!(cfg.workers, Some(4));
                assert_eq!(cfg.vector, Some(128));
                assert_eq!(cfg.threads(), Some(64 * 4 * 128));
            }
            other => panic!("expected a kernel launch, got {other:?}"),
        }
    }

    #[test]
    fn issues_propagate_from_both_parsers() {
        let l =
            translate("#pragma acc kernels quux(a)\nx;\n#pragma acc mpi sendbuf(device)\nint y;\n");
        assert_eq!(l.issues.len(), 2, "{:?}", l.issues);
    }
}
