//! # ffc-benchmark — the repo's benchmark
//!
//! Per-TE-interval latency of the online controller on S-Net and L-Net
//! and of the telemetry store, end to end and layer by layer. The
//! contract (command, workloads, metrics, bounds) is `BENCHMARK.json` at
//! the repo root; the reasoning behind it is `benchmark/README.md`.
//!
//! * [`inputs`] — seed → inputs of the controller workloads
//! * [`ctrl_run`] — the production path, and its traced mirror
//! * [`store_run`] — the store as its client sees it
//! * [`trace`] — the span recorder
//! * [`hostref`] — the host's speed, sampled beside the work
//! * [`run`] — one run: set-up, execution, output checks, metrics
//! * [`envelope`] — what a result file says about the host and the build

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctrl_run;
pub mod envelope;
pub mod hostref;
pub mod inputs;
pub mod run;
pub mod store_run;
pub mod trace;
