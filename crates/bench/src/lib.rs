//! Shared harness for the experiment binaries: the proxy instance suite
//! (Table I), environment knobs, and plain-text table rendering.
//!
//! Every experiment binary in `src/bin/` regenerates one table or figure of
//! the paper (see DESIGN.md §4 for the index and EXPERIMENTS.md for the
//! recorded paper-vs-measured comparison).

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod artifact;
pub mod env;
pub mod instances;
pub mod run;
pub mod table;

pub use artifact::{
    des_run, des_run_labelled, emit, live_run, results_dir, BenchArtifact, BenchRun,
};
pub use env::{eps_default, scale_factor, seed};
pub use instances::{suite, Instance, InstanceClass};
pub use run::{paper_shape, prepare_instance, shared_baseline_shape, PreparedInstance};
pub use table::{fmt_ns, geomean, Table};
