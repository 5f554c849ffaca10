//! `dvm-farm`: a coordinator/worker daemon for one-command distributed
//! sweeps.
//!
//! Three pieces share one zero-dependency, length-prefixed TCP protocol
//! (DESIGN.md, "Sweep farm"):
//!
//! - [`serve`] — the coordinator loop behind the `farmd` binary:
//!   accepts jobs, dispatches shard slices to registered workers,
//!   requeues slices from dead or failing workers with bounded backoff,
//!   and aggregates progress.
//! - [`run_worker`] — the `farmworker` loop: runs slices by spawning
//!   the named bench binary with `--shard I/N`, streaming its stderr
//!   back and shipping the fragment it prints on stdout as one frame.
//! - [`run_job`] — the client call the bench binaries make under
//!   `--farm host:port`; returns fragment bytes in slice order for the
//!   ordinary shard-merge path, keeping farm output byte-identical to a
//!   serial run.
//!
//! A bench binary given `--shards N` without `--farm` runs all three in
//! one process: [`serve`] on an ephemeral loopback port, N
//! [`run_worker`] threads, and [`run_job`] against them.
//!
//! The farm never parses fragment contents: they are opaque bytes here,
//! which keeps this crate free of any bench dependency (bench depends
//! on farm, not the reverse).

pub mod client;
pub mod coord;
pub mod proto;
pub mod worker;

pub use client::{run_job, JobEvent, JobRequest};
pub use coord::{serve, MAX_SLICES};
pub use proto::{emit_stderr_line, truncate_line, version_token, MAX_LINE};
pub use worker::{run_worker, WorkerConfig};
