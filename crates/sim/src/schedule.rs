//! Schedule materialization: one master seed → the whole run.
//!
//! A [`Schedule`] is the complete, pre-materialized plan of a simulated
//! run: one [`Action`] per step (the workload) plus a sparse list of
//! [`FaultEvent`]s (the fault surface). Both derive from named
//! [`SeedTree`] lanes, so the schedule for `(master_seed, steps)` is a
//! pure value — replaying a counterexample needs nothing but those two
//! numbers, and the shrinker can suppress individual events by index
//! without perturbing anything else.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use grdf_runtime::SeedTree;

/// How many simulated sites the fixture world contains.
pub const SITES: usize = 8;

/// What the simulated client does at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// A query as the restricted role (must never see the secret).
    QueryRestricted,
    /// A query as the all-seeing role (must see the secret when clean).
    QueryEmergency,
    /// An authorized insert of a unique note triple on `site`.
    UpdateInsert {
        /// Which fixture site the note lands on.
        site: usize,
    },
    /// An authorized delete of a previously acknowledged note (falls back
    /// to an insert when none are live).
    UpdateDelete,
    /// An *unauthorized* update by the restricted role (must be denied).
    UpdateDeniedRole {
        /// Which fixture site the attempt targets.
        site: usize,
    },
    /// A `GET /health` probe.
    Health,
    /// Two restricted queries pipelined on one connection in swapped
    /// order (reordered delivery: the link carries bytes, not messages).
    ReorderedPipeline,
}

/// A connection-level fault shaping how one step's bytes move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Deliver only a prefix of the request, then go silent: the server
    /// burns its read timeout on the virtual clock and answers 408 (or
    /// tears down silently between requests).
    StallMidRequest {
        /// Request bytes delivered before the stall.
        keep: usize,
    },
    /// Deliver only a prefix, then close the sending half: the server
    /// sees EOF mid-request.
    TornRequest {
        /// Request bytes delivered before the close.
        keep: usize,
    },
    /// Deliver only a prefix, then drop the link both ways.
    PartitionMidRequest {
        /// Request bytes delivered before the partition.
        keep: usize,
    },
    /// Let the request through, but tear the server's response write
    /// after this many bytes (query steps only — an update must either
    /// be delivered its ack or never acknowledged at all, so the
    /// durability model stays exact).
    TornDelivery {
        /// Response bytes the network delivers before the tear.
        after: usize,
    },
}

/// A storage-layer fault active for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// Appends and overwrites persist only a prefix and error (torn
    /// write) — the WAL poisons and fails closed until recovery.
    ShortWrite,
    /// `sync` reports failure; durability of earlier writes is unknown.
    FsyncFail,
}

/// A reasoning-engine fault active for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFault {
    /// Pipeline stages error (the resilient engine retries / trips the
    /// breaker).
    Error,
    /// Pipeline stages stall on the virtual clock (deadlines fire
    /// without wall time passing).
    Stall(Duration),
}

/// One fault surface firing at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldFault {
    /// Reasoning-engine fault.
    Engine(EngineFault),
    /// Storage-backend fault.
    Storage(StorageFault),
    /// Connection fault on this step's wire exchange.
    Conn(ConnFault),
    /// The virtual clock jumps forward.
    ClockSkip(Duration),
    /// Kill the node (drop all in-memory state) and recover from the
    /// surviving backend files; post-recovery oracles run.
    KillRecover,
    /// Offline probe: corrupt the newest checkpoint on a *copy* of the
    /// store and assert recovery fails closed (or recovers the exact
    /// acknowledged state from an older intact chain).
    CorruptProbe,
}

impl fmt::Display for WorldFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldFault::Engine(EngineFault::Error) => write!(f, "engine-error"),
            WorldFault::Engine(EngineFault::Stall(d)) => {
                write!(f, "engine-stall({}ms)", d.as_millis())
            }
            WorldFault::Storage(StorageFault::ShortWrite) => write!(f, "storage-short-write"),
            WorldFault::Storage(StorageFault::FsyncFail) => write!(f, "storage-fsync-fail"),
            WorldFault::Conn(ConnFault::StallMidRequest { keep }) => {
                write!(f, "conn-stall@{keep}")
            }
            WorldFault::Conn(ConnFault::TornRequest { keep }) => write!(f, "conn-torn-req@{keep}"),
            WorldFault::Conn(ConnFault::PartitionMidRequest { keep }) => {
                write!(f, "conn-partition@{keep}")
            }
            WorldFault::Conn(ConnFault::TornDelivery { after }) => {
                write!(f, "conn-torn-delivery@{after}")
            }
            WorldFault::ClockSkip(d) => write!(f, "clock-skip({}ms)", d.as_millis()),
            WorldFault::KillRecover => write!(f, "kill-recover"),
            WorldFault::CorruptProbe => write!(f, "corrupt-probe"),
        }
    }
}

/// One scheduled fault: which step it fires at, and what fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The step index the fault is active at.
    pub step: usize,
    /// What fires.
    pub fault: WorldFault,
}

/// The fully materialized plan of one simulated run.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The master seed everything derives from.
    pub master_seed: u64,
    /// The per-step workload.
    pub actions: Vec<Action>,
    /// The sparse fault schedule, in step order. Indices into this list
    /// are the shrinker's unit of suppression.
    pub events: Vec<FaultEvent>,
}

impl Schedule {
    /// Materialize the schedule for `(master_seed, steps)`. Pure: the
    /// same inputs always produce the same plan.
    pub fn generate(master_seed: u64, steps: usize) -> Schedule {
        let tree = SeedTree::new(master_seed);
        let workload = tree.child("workload").decider();
        let faults = tree.child("faults").decider();
        let mut actions = Vec::with_capacity(steps);
        let mut events = Vec::new();
        // The run's update mix: of the 33 update points per 100 steps,
        // 8..=24 are deletes, so some runs are delete-heavy (more deletes
        // than inserts) and retraction gets exercised as hard as insertion.
        let first_delete = 83 - (8 + workload.pick("mix.deletes", 0, 17));
        for step in 0..steps {
            let n = step as u64;
            let action = match workload.pick("action", n, 100) {
                0..=29 => Action::QueryRestricted,
                30..=49 => Action::QueryEmergency,
                a @ 50..=82 if a < first_delete => Action::UpdateInsert {
                    site: workload.pick("site", n, SITES as u64) as usize,
                },
                50..=82 => Action::UpdateDelete,
                83..=89 => Action::UpdateDeniedRole {
                    site: workload.pick("site", n, SITES as u64) as usize,
                },
                90..=94 => Action::Health,
                _ => Action::ReorderedPipeline,
            };
            actions.push(action);
            if faults.fires("engine", n, 0.08) {
                let fault = if faults.fires("engine.kind", n, 0.5) {
                    EngineFault::Error
                } else {
                    EngineFault::Stall(Duration::from_millis(
                        50 + faults.pick("engine.stall", n, 400),
                    ))
                };
                events.push(FaultEvent {
                    step,
                    fault: WorldFault::Engine(fault),
                });
            }
            if faults.fires("storage", n, 0.06) {
                let fault = if faults.fires("storage.kind", n, 0.6) {
                    StorageFault::ShortWrite
                } else {
                    StorageFault::FsyncFail
                };
                events.push(FaultEvent {
                    step,
                    fault: WorldFault::Storage(fault),
                });
            }
            if faults.fires("conn", n, 0.10) {
                // A fault that can swallow the *response* is only safe on
                // read-only steps: an update whose ack is torn leaves the
                // durability model unsure whether to count it.
                let keep = 4 + faults.pick("conn.keep", n, 120) as usize;
                let mutating = matches!(action, Action::UpdateInsert { .. } | Action::UpdateDelete);
                let kinds = if mutating { 3 } else { 4 };
                let fault = match faults.pick("conn.kind", n, kinds) {
                    0 => ConnFault::StallMidRequest { keep },
                    1 => ConnFault::TornRequest { keep },
                    2 => ConnFault::PartitionMidRequest { keep },
                    _ => ConnFault::TornDelivery {
                        after: 4 + faults.pick("conn.tear", n, 60) as usize,
                    },
                };
                events.push(FaultEvent {
                    step,
                    fault: WorldFault::Conn(fault),
                });
            }
            if faults.fires("clock", n, 0.05) {
                events.push(FaultEvent {
                    step,
                    fault: WorldFault::ClockSkip(Duration::from_millis(
                        500 + faults.pick("clock.skip", n, 60_000),
                    )),
                });
            }
            if faults.fires("kill", n, 0.04) {
                events.push(FaultEvent {
                    step,
                    fault: WorldFault::KillRecover,
                });
            }
            if faults.fires("corrupt", n, 0.04) {
                events.push(FaultEvent {
                    step,
                    fault: WorldFault::CorruptProbe,
                });
            }
        }
        Schedule {
            master_seed,
            actions,
            events,
        }
    }

    /// The events still enabled under a shrink suppression set, rendered
    /// for reports.
    pub fn enabled_events(&self, disabled: &BTreeSet<usize>) -> Vec<String> {
        self.events
            .iter()
            .enumerate()
            .filter(|(i, _)| !disabled.contains(i))
            .map(|(i, e)| format!("#{i} step {}: {}", e.step, e.fault))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure() {
        let a = Schedule::generate(42, 200);
        let b = Schedule::generate(42, 200);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.events, b.events);
        assert_ne!(
            Schedule::generate(1, 200).actions,
            Schedule::generate(2, 200).actions
        );
    }

    #[test]
    fn every_fault_surface_appears_somewhere() {
        // Across a modest seed range, every fault kind must be exercised —
        // a schedule generator that silently never draws a surface would
        // hollow out the whole harness.
        let mut engine = 0u32;
        let mut storage = 0u32;
        let mut conn = 0u32;
        let mut clock = 0u32;
        let mut kill = 0u32;
        let mut corrupt = 0u32;
        for seed in 0..20u64 {
            for e in Schedule::generate(seed, 150).events {
                match e.fault {
                    WorldFault::Engine(_) => engine += 1,
                    WorldFault::Storage(_) => storage += 1,
                    WorldFault::Conn(_) => conn += 1,
                    WorldFault::ClockSkip(_) => clock += 1,
                    WorldFault::KillRecover => kill += 1,
                    WorldFault::CorruptProbe => corrupt += 1,
                }
            }
        }
        assert!(engine > 0 && storage > 0 && conn > 0);
        assert!(clock > 0 && kill > 0 && corrupt > 0);
    }

    #[test]
    fn some_runs_are_delete_heavy() {
        let heavy = (0..40u64)
            .filter(|&seed| {
                let s = Schedule::generate(seed, 200);
                let count = |f: fn(&Action) -> bool| s.actions.iter().filter(|a| f(a)).count();
                count(|a| matches!(a, Action::UpdateDelete))
                    > count(|a| matches!(a, Action::UpdateInsert { .. }))
            })
            .count();
        assert!(heavy > 0 && heavy < 40, "{heavy} of 40 runs delete-heavy");
    }

    #[test]
    fn update_steps_never_get_response_destroying_faults() {
        for seed in 0..30u64 {
            let s = Schedule::generate(seed, 200);
            for e in &s.events {
                if let WorldFault::Conn(ConnFault::TornDelivery { .. }) = e.fault {
                    assert!(
                        !matches!(
                            s.actions[e.step],
                            Action::UpdateInsert { .. } | Action::UpdateDelete
                        ),
                        "seed {seed}: torn delivery scheduled on a mutating step"
                    );
                }
            }
        }
    }
}
