#![warn(missing_docs)]
//! KV-Direct: the key-value processor and public store API.
//!
//! This crate assembles the paper's system (Figure 4): requests decoded
//! from the network enter the **reservation station** (out-of-order
//! engine); independent operations issue into the main pipeline, which
//! walks the **hash index**, allocates from the **slab allocator**, and
//! reaches host memory through the **load-dispatched memory engine**
//! (PCIe + NIC DRAM). Completions return through the station, which
//! forwards data to dependent operations.
//!
//! * [`lambda`] — the pre-registered λ functions behind `update`,
//!   `reduce` and `filter` (Table 1). In the paper these are compiled to
//!   hardware by an HLS toolchain before use; here they are Rust closures
//!   registered before use — the same contract.
//! * [`processor`] — the KV processor: one borrowed batch body, with the
//!   station in the loop, behind its two entry points (a packet,
//!   `execute_into`; a single op, `execute_one_into`).
//! * [`store`] — [`KvDirectStore`], the embedder-facing API over one
//!   simulated NIC.
//! * [`overload`] — the overload-control plane: watermark admission with
//!   hysteresis, deadline expiry and read-only degradation.
//! * [`system`] — the timed end-to-end simulator of one NIC
//!   ([`SystemSim`]).
//! * [`parallel`] — the paper's multi-NIC scaling (10 NICs → 1.22 Gops)
//!   *simulated*: client-side key sharding onto one timed pipeline per
//!   shard, on OS worker threads, synchronized through a host-memory
//!   arbiter so the Figure 18 saturation knee emerges from contention.
//! * [`cluster`] — the multi-node plane: M member hosts in window
//!   lockstep, chain replication over consistent hashing, heartbeat
//!   failure detection and deterministic failover.
//! * [`timing`] — the system-level throughput/latency composition used by
//!   the benchmark harnesses (Figures 16/17/18, Tables 3/4).

pub mod cluster;
pub mod lambda;
pub mod overload;
pub mod parallel;
pub mod processor;
pub mod store;
pub mod system;
pub mod timing;

pub use cluster::{ClusterReport, ClusterSim, ClusterSimConfig, NodeKill, OpRecord};
pub use kvd_hash::{tick_of_us, EXPIRY_TICK_US};
pub use lambda::{builtin, Lambda, LambdaRegistry};
pub use overload::{AdmissionController, HotKeyConfig, OverloadConfig, Watermarks};
pub use parallel::{ParallelSimConfig, ParallelSimReport, ParallelSystemSim};
pub use processor::{KvProcessor, ProcessorStats};
pub use store::{KvDirectConfig, KvDirectStore, StoreError};
pub use system::{Percentile, RunSummary, SystemSim, SystemSimConfig, SystemSimReport, WindowStep};
pub use timing::{SystemModel, ThroughputBreakdown, WorkloadSpec};
