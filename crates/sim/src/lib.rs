//! Deterministic whole-system simulation for GRDF.
//!
//! One master `u64` seed drives *every* randomized surface of a full
//! stack — the HTTP codec and worker-pool admission path (`ServerCore`
//! over in-memory `SimConn`s), G-SACS policy enforcement, the resilient
//! reasoner (retries, breaker, injected engine faults), the WAL +
//! checkpoint store (short writes, fsync failures, kill/recover), and a
//! virtual clock — via hierarchical [`grdf_runtime::SeedTree`]
//! derivation. No threads, no wall clock, no real sockets: a run is a
//! pure function of `(master_seed, steps, planted bug, suppressed
//! events)`.
//!
//! That purity buys the FoundationDB-style loop:
//!
//! * **Replay** — a failing run is persisted as `{master_seed,
//!   step_count}` and replays bit-identically ([`SimReport::fingerprint`]).
//! * **Oracles** — whole-system invariants are checked continuously
//!   while faults fire (see [`world`]): acknowledged updates survive
//!   recovery, corruption fails closed, no torn responses, no denied
//!   triple on the wire, audit covers every decision.
//! * **Shrink** — [`shrink::shrink`] greedily drops scheduled fault
//!   events while the oracle still fails, leaving a locally-minimal
//!   counterexample.
//!
//! Drive it from the CLI: `grdf-cli sim --seed 42 --steps 120`, or
//! `grdf-cli sim --swarm 200 --quick` for a CI-sized campaign.

pub mod schedule;
pub mod shrink;
pub mod world;

pub use schedule::{
    Action, ConnFault, EngineFault, FaultEvent, Schedule, StorageFault, WorldFault,
};
pub use shrink::{shrink as shrink_seed, ShrinkResult};
pub use world::{
    graph_hash, pipelined_stream_ok, run, run_schedule, Bug, SimConfig, SimReport, Violation,
    SECRET,
};
