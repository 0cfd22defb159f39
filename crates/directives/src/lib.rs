//! # impacc-directives — the `#pragma acc mpi` directive extension
//!
//! The IMPACC compiler is a source-to-source translator; the part of it
//! that is *specified* in the paper (§3.5) is the new OpenACC directive
//! extension:
//!
//! ```text
//! #pragma acc mpi clause-list new-line
//! clause := sendbuf( [device] [,] [readonly] )
//!         | recvbuf( [device] [,] [readonly] )
//!         | async [ ( int-expr ) ]
//! ```
//!
//! This crate is the front end for both pragma families, one token cursor
//! under two entry points: [`parse_directive`] turns an `acc mpi` line into
//! a typed [`Directive`] — its runtime [`MpiOpts`](impacc_core::MpiOpts)
//! and the §3.5 rule against the MPI call it annotates
//! ([`Directive::check_call`]) — and [`parse_acc_directive`] turns the
//! OpenACC directives the applications use into an [`AccDirective`], which
//! `impacc-dsl` lowers.

#![warn(missing_docs)]

pub mod acc;
pub mod parser;

pub use acc::{parse_acc_directive, AccDirective, AccKind, Reduction, VarList};
pub use parser::{parse_directive, BufClause, Directive, ParseError};
