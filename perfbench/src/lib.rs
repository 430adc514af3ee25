//! The UniStore repository benchmark.
//!
//! Three seeded simulator workloads run on both backends (P-Grid and
//! Chord) in one single-threaded process; every answer is checked
//! against the local reference engine. See `README.md` next to this
//! package's manifest for the workloads, the metrics and what each
//! layer metric is expected to move.

// A benchmark harness reads the wall clock by definition; clippy.toml
// sanctions it for the bench harness alone.
#![allow(clippy::disallowed_methods)]

pub mod ops;
pub mod report;
pub mod run;
pub mod trace;

pub use ops::{OpStream, Workload};
pub use report::{result_line, Kind, Metric};
pub use run::{run, Report, RunConfig, Scale};
