//! Workloads for the Triad-NVM evaluation (§4 of the paper).
//!
//! The paper runs SPEC CPU2006 binaries, PMDK microbenchmarks and
//! DAX-mmap synthetic workloads under gem5. This crate provides the
//! closest equivalents the simulator can drive:
//!
//! * [`spec`] — synthetic trace generators parameterised to match each
//!   SPEC benchmark's first-order memory behaviour (footprint,
//!   write intensity, spatial locality, pointer-chasing) — the
//!   properties Figures 4/8/9 actually depend on.
//! * [`heap`] — a miniature PMDK (`libpmemobj`) substitute: a
//!   persistent heap with a redo-log transaction mechanism over
//!   [`triad_core::SecureMemory`] (now lives in `triad-kv`;
//!   re-exported here for compatibility).
//! * [`structures`] — the paper's three PMDK microbenchmarks as real
//!   data structures on that heap: [`structures::PersistentHashtable`],
//!   [`structures::PersistentQueue`], [`structures::ArraySwap`].
//! * [`traces`] — trace-generator forms of the PMDK benchmarks and
//!   the `DAXBENCH-S-RW` strided workload, for the timing simulator.
//! * [`mixes`] — the Table 2 workload registry (DAXBENCH1–4, MIX1–4)
//!   plus every single-program workload the figures sweep.
//! * [`kv`] — the deterministic `(tag, len)` value payloads the
//!   request generators and their oracles share.
//! * [`recov`] — the mixed-operation driver for the `triad-recov`
//!   detectably recoverable lock-free structures: deterministic
//!   per-thread scripts through the seeded interleaving harness, with
//!   the concurrent crash-equivalence oracle checked on every run.
//! * [`service`] — the sharded serving front-end over `triad-kv`, the
//!   one multi-shard KV driver: keyed-hash routing across independent
//!   shard engines on worker threads, group commit (one commit marker
//!   per flushed batch), and WPQ-pressure admission control, with
//!   deterministic merges, plus the seeded request generator (Zipf or
//!   uniform keys, weighted op mix) and the crash-equivalence check
//!   that replays a schedule through crash injection at every persist
//!   boundary.

#![warn(missing_docs)]

pub use triad_kv::heap;

pub mod kv;
pub mod mixes;
pub mod recov;
pub mod service;
pub mod spec;
pub mod structures;
pub mod traces;
pub mod zipf;

pub use heap::{HeapError, PersistentHeap};
pub use mixes::{all_figure_workloads, build_workload, WorkloadEnv};
pub use recov::{generate_recov_scripts, run_recov_mix, RecovMixResult, RecovMixSpec};
pub use service::{
    generate_requests, service_crash_equivalence_check, AdmissionPolicy, DurabilityMode, KvMix,
    KvService, Request, Response, ServiceSpec,
};
pub use spec::SpecWorkload;
pub use traces::{DaxBench, PmdkKind, PmdkTrace};
pub use zipf::Zipf;
