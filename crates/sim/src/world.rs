//! The simulated world: the full stack under one virtual clock.
//!
//! [`run_schedule`] boots the real production assembly — `GSacs` over a
//! durable WAL/checkpoint store, wrapped in the real `ServerCore`
//! (codec, quotas, deadlines, overload behavior) — and steps a simulated
//! client against it over in-memory [`grdf_server::SimConn`]s. No
//! threads are spawned and no wall-clock time is consulted: every idle
//! wait, backoff, and deadline runs on a shared `ManualClock`, so a run
//! is a pure function of its [`Schedule`] and the whole-system invariant
//! oracles below can be checked continuously:
//!
//! 1. **Durability** — after every kill/recover, the recovered base
//!    graph equals the model graph of exactly the acknowledged updates.
//! 2. **Fail-closed corruption** — corrupting the newest checkpoint on a
//!    copy of the store never yields a silently-wrong recovery.
//! 3. **No torn responses** — every connection ends in a clean teardown
//!    or a well-formed response, unless the *network* tore the delivery.
//! 4. **No denied triple on the wire** — the restricted role's bytes
//!    never contain the secret, before or after recovery; the authorized
//!    role still sees it (so the denial proves something).
//! 5. **Audit coverage** — every served policy decision is on the
//!    durable audit stream or counted as an explicit sink failure.

use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use grdf_feature::{encode_feature, Feature};
use grdf_rdf::vocab::grdf as ns;
use grdf_rdf::{Graph, Term, Triple};
use grdf_runtime::{Clock, ManualClock, SeedTree};
use grdf_security::gsacs::{GSacs, OntoRepository, OwlHorstEngine};
use grdf_security::policy::{Action as PolicyAction, Policy, PolicySet};
use grdf_security::resilience::{FaultInjector, GsacsError, ResilienceConfig, Stage};
use grdf_server::{sim_conn, well_formed_response, QuotaConfig, ServerConfig, ServerCore};
use grdf_store::{recover, MemBackend, StorageBackend, StoreConfig};

use crate::schedule::{
    Action, ConnFault, EngineFault, FaultEvent, Schedule, StorageFault, WorldFault, SITES,
};

/// The sensitive literal the restricted role must never see on the wire.
pub const SECRET: &str = "XYZZY-CHEM-CODE";

/// Step sentinel meaning "no scheduled fault applies" — boots and
/// recoveries run fault-free by construction (the machine that comes
/// back is a fresh one; the scheduled surface targets live traffic).
const NO_STEP: u64 = u64::MAX;

/// Virtual time each step advances, refilling quotas and aging windows.
const STEP_TICK: Duration = Duration::from_millis(50);

/// A deliberately planted implementation bug, for proving the harness
/// catches what it claims to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// The storage backend reports WAL appends as durable without
    /// persisting them — the service acknowledges updates that a crash
    /// silently loses. The durability oracle must catch this.
    AckWithoutWal,
}

impl std::str::FromStr for Bug {
    type Err = String;
    fn from_str(s: &str) -> Result<Bug, String> {
        match s {
            "ack-without-wal" => Ok(Bug::AckWithoutWal),
            other => Err(format!("unknown bug '{other}' (try: ack-without-wal)")),
        }
    }
}

/// Parameters of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// The master seed every randomized surface derives from.
    pub master_seed: u64,
    /// How many steps the world executes.
    pub steps: usize,
    /// Optional planted bug (harness self-test).
    pub bug: Option<Bug>,
    /// WAL bytes before a checkpoint rotation (small values exercise
    /// rotation + GC during short runs).
    pub checkpoint_threshold: u64,
}

impl SimConfig {
    /// A run of `steps` steps from `master_seed`, no planted bug.
    pub fn new(master_seed: u64, steps: usize) -> SimConfig {
        SimConfig {
            master_seed,
            steps,
            bug: None,
            checkpoint_threshold: 8192,
        }
    }
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The step the violation was detected at.
    pub step: usize,
    /// Which oracle fired.
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {} [{}]: {}", self.step, self.oracle, self.detail)
    }
}

/// The outcome of one simulated run. Two runs of the same
/// `(master_seed, steps, bug, disabled)` produce byte-identical reports —
/// that is the replay contract `grdf-cli sim --seed` demonstrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// The master seed the run derived from.
    pub master_seed: u64,
    /// Steps executed.
    pub steps: usize,
    /// Oracle violations, in detection order. Empty ⇔ the run passed.
    pub violations: Vec<Violation>,
    /// FNV-1a hash of the final served base graph (sorted N-Triples).
    pub graph_hash: u64,
    /// Durable audit lines streamed across every boot of the run.
    pub audit_total: u64,
    /// Updates acknowledged with 200.
    pub acked: u64,
    /// Requests denied with 403.
    pub denied: u64,
    /// Kill/recover cycles survived.
    pub recoveries: u64,
    /// Fault events enabled in the schedule.
    pub faults_enabled: usize,
}

impl SimReport {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The replay identity: verdict, final graph hash, audit-log length.
    /// Two runs of the same seed must agree on this triple exactly.
    pub fn fingerprint(&self) -> (bool, u64, u64) {
        (self.passed(), self.graph_hash, self.audit_total)
    }

    /// Render as JSON (counterexample artifacts, CI upload).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"master_seed\": {}", self.master_seed));
        s.push_str(&format!(", \"steps\": {}", self.steps));
        s.push_str(&format!(", \"passed\": {}", self.passed()));
        s.push_str(&format!(", \"graph_hash\": \"{:016x}\"", self.graph_hash));
        s.push_str(&format!(", \"audit_total\": {}", self.audit_total));
        s.push_str(&format!(", \"acked\": {}", self.acked));
        s.push_str(&format!(", \"denied\": {}", self.denied));
        s.push_str(&format!(", \"recoveries\": {}", self.recoveries));
        s.push_str(&format!(", \"faults_enabled\": {}", self.faults_enabled));
        s.push_str(", \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"step\": {}, \"oracle\": \"{}\", \"detail\": \"{}\"}}",
                v.step,
                v.oracle,
                v.detail.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
        s.push_str("]}");
        s
    }
}

/// FNV-1a over the sorted N-Triples rendering of a graph — the replay
/// identity's graph component.
pub fn graph_hash(g: &Graph) -> u64 {
    let mut lines: Vec<String> = g.iter().map(|t| t.to_string()).collect();
    lines.sort_unstable();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for line in &lines {
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Scheduled fault surfaces
// ---------------------------------------------------------------------------

/// Engine-fault injector consulting the materialized schedule by current
/// step — every injection is individually suppressible by the shrinker.
#[derive(Debug)]
struct ScheduledInjector {
    step: Arc<AtomicU64>,
    faults: Arc<std::collections::BTreeMap<u64, EngineFault>>,
}

impl FaultInjector for ScheduledInjector {
    fn inject(&self, stage: Stage, clock: &dyn Clock) -> Result<(), GsacsError> {
        match self.faults.get(&self.step.load(Ordering::Relaxed)) {
            Some(EngineFault::Error) => Err(GsacsError::Internal(format!(
                "injected engine fault at {stage}"
            ))),
            Some(EngineFault::Stall(d)) => {
                clock.sleep(*d);
                Ok(())
            }
            None => Ok(()),
        }
    }
}

/// Storage backend consulting the schedule (and carrying the planted
/// bug, when any): short writes persist a prefix and error, failed
/// fsyncs report unknown durability, and `AckWithoutWal` silently drops
/// WAL appends while reporting success.
#[derive(Debug)]
struct ScheduledBackend {
    inner: Arc<MemBackend>,
    step: Arc<AtomicU64>,
    faults: Arc<std::collections::BTreeMap<u64, StorageFault>>,
    bug: Option<Bug>,
}

impl ScheduledBackend {
    fn active(&self) -> Option<StorageFault> {
        self.faults.get(&self.step.load(Ordering::Relaxed)).copied()
    }
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected storage fault: {kind}"))
}

impl StorageBackend for ScheduledBackend {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        if self.active() == Some(StorageFault::ShortWrite) {
            let _ = self.inner.write_all(name, &data[..data.len() / 2]);
            return Err(injected("short write"));
        }
        self.inner.write_all(name, data)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        if self.bug == Some(Bug::AckWithoutWal) && name.starts_with("wal-") {
            // The planted bug: claim durability, persist nothing.
            return Ok(());
        }
        if self.active() == Some(StorageFault::ShortWrite) {
            let _ = self.inner.append(name, &data[..data.len() / 2]);
            return Err(injected("short write"));
        }
        self.inner.append(name, data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        if self.active() == Some(StorageFault::FsyncFail) {
            return Err(injected("fsync failure"));
        }
        self.inner.sync(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.inner.delete(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        self.inner.len(name)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
}

// ---------------------------------------------------------------------------
// Fixture world
// ---------------------------------------------------------------------------

fn site_data() -> Graph {
    let mut data = Graph::new();
    for i in 0..SITES {
        let mut site = Feature::new(&ns::app(&format!("site{i}")), "ChemSite");
        site.set_property("hasSiteName", format!("Site {i}").as_str());
        site.set_property("hasChemCode", format!("{SECRET}-{i}").as_str());
        encode_feature(&mut data, &site);
    }
    data
}

fn policies() -> PolicySet {
    PolicySet::new(vec![
        // MainRep sees ChemSites but only their boundary — the chem
        // codes are outside its view, and it holds no mutation rights.
        Policy::permit_properties(
            &ns::sec("MainRepPolicy1"),
            &ns::sec("MainRep"),
            &ns::app("ChemSite"),
            &[&ns::iri("isBoundedBy")],
        ),
        Policy::permit(&ns::sec("E1"), &ns::sec("Emergency"), &ns::app("ChemSite")),
        Policy {
            action: PolicyAction::Edit,
            ..Policy::permit(&ns::sec("E2"), &ns::sec("Emergency"), &ns::app("ChemSite"))
        },
        Policy {
            action: PolicyAction::Delete,
            ..Policy::permit(&ns::sec("E3"), &ns::sec("Emergency"), &ns::app("ChemSite"))
        },
    ])
}

fn chem_query() -> String {
    format!(
        "PREFIX app: <{}>\nSELECT ?c WHERE {{ ?s app:hasChemCode ?c }}",
        ns::APP_NS
    )
}

/// An HTTP/1.1 request with explicit connection behavior.
fn request(path: &str, role: Option<&str>, body: &[u8], close: bool) -> Vec<u8> {
    let method = if body.is_empty() { "GET" } else { "POST" };
    let mut out = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    if let Some(role) = role {
        out.extend_from_slice(format!("x-role: {role}\r\n").as_bytes());
    }
    let conn = if close { "close" } else { "keep-alive" };
    out.extend_from_slice(
        format!(
            "content-length: {}\r\nconnection: {conn}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body);
    out
}

fn http_status(raw: &[u8]) -> Option<u16> {
    let line = raw.split(|&b| b == b'\r').next()?;
    let line = std::str::from_utf8(line).ok()?;
    line.split(' ').nth(1)?.parse().ok()
}

fn contains_secret(raw: &[u8]) -> bool {
    raw.windows(SECRET.len()).any(|w| w == SECRET.as_bytes())
}

/// The wire oracle for a pipelined (keep-alive) response stream, which is
/// not one well-formed response: it must start with a status line. A
/// stream the schedule tore (`excused`) may instead stop inside that
/// line's `HTTP/1.1 ` prefix. Any other first bytes fail, excused or not.
pub fn pipelined_stream_ok(raw: &[u8], excused: bool) -> bool {
    const STATUS: &[u8] = b"HTTP/1.1 ";
    raw.is_empty() || raw.starts_with(STATUS) || (excused && STATUS.starts_with(raw))
}

// ---------------------------------------------------------------------------
// The world
// ---------------------------------------------------------------------------

struct World {
    cfg: SimConfig,
    schedule: Schedule,
    clock: Arc<ManualClock>,
    step: Arc<AtomicU64>,
    engine_faults: Arc<std::collections::BTreeMap<u64, EngineFault>>,
    storage_faults: Arc<std::collections::BTreeMap<u64, StorageFault>>,
    tree: SeedTree,
    mem: Arc<MemBackend>,
    core: ServerCore,
    /// The durable contract: exactly what a recovery must reproduce —
    /// the initial base plus every acknowledged update, in order.
    model: Graph,
    /// Acknowledged note triples still live (delete candidates).
    live_notes: Vec<Triple>,
    violations: Vec<Violation>,
    acked: u64,
    denied: u64,
    recoveries: u64,
    /// 200/403 decisions served on /query + /update since this boot.
    decisions_this_boot: u64,
    /// Durable audit lines streamed by stores of *previous* boots.
    audit_prev_boots: u64,
}

impl World {
    fn resilience_config(&self) -> ResilienceConfig {
        ResilienceConfig {
            clock: self.clock.clone(),
            seeds: Some(self.tree.child("gsacs")),
            fault_injector: Some(Arc::new(ScheduledInjector {
                step: Arc::clone(&self.step),
                faults: Arc::clone(&self.engine_faults),
            })),
            ..ResilienceConfig::default()
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            clock: self.clock.clone(),
            seeds: Some(self.tree.child("server")),
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_millis(200),
            keep_alive_requests: 4,
            quota: QuotaConfig {
                rate_per_sec: 50.0,
                burst: 20.0,
            },
            ..ServerConfig::default()
        }
    }

    fn backend(&self) -> Arc<dyn StorageBackend> {
        Arc::new(ScheduledBackend {
            inner: Arc::clone(&self.mem),
            step: Arc::clone(&self.step),
            faults: Arc::clone(&self.storage_faults),
            bug: self.cfg.bug,
        })
    }

    fn store_config(&self) -> StoreConfig {
        StoreConfig {
            checkpoint_threshold: self.cfg.checkpoint_threshold,
            ..StoreConfig::default()
        }
    }

    fn violation(&mut self, step: usize, oracle: &'static str, detail: String) {
        self.violations.push(Violation {
            step,
            oracle,
            detail,
        });
    }

    /// Serve one in-memory exchange through the real core and return the
    /// bytes the client saw plus whether the network tore/partitioned
    /// the link.
    fn exchange(&mut self, payloads: &[Vec<u8>], fault: Option<ConnFault>) -> (Vec<u8>, bool) {
        let (conn, link) = sim_conn(self.clock.clone());
        let mut excused = false;
        match fault {
            None => {
                for p in payloads {
                    link.send(p);
                }
                link.finish();
            }
            Some(ConnFault::StallMidRequest { keep }) => {
                let all: Vec<u8> = payloads.concat();
                link.send(&all[..keep.min(all.len())]);
                // Never finish: the server burns its read timeout on the
                // virtual clock. The response (408 or silence) may be
                // complete, so no excuse is needed.
            }
            Some(ConnFault::TornRequest { keep }) => {
                let all: Vec<u8> = payloads.concat();
                link.send(&all[..keep.min(all.len())]);
                link.finish();
            }
            Some(ConnFault::PartitionMidRequest { keep }) => {
                let all: Vec<u8> = payloads.concat();
                link.send(&all[..keep.min(all.len())]);
                link.partition();
                excused = true;
            }
            Some(ConnFault::TornDelivery { after }) => {
                for p in payloads {
                    link.send(p);
                }
                link.finish();
                link.tear_next_write(after);
                excused = true;
            }
        }
        self.core.serve(Box::new(conn));
        let raw = link.take_received();
        (raw, excused || link.tore_delivery())
    }

    /// Count a served decision and run the audit-coverage oracle.
    fn note_decision(&mut self, step: usize) {
        self.decisions_this_boot += 1;
        let svc = self.core.service().read();
        let Some(store) = svc.durable_store() else {
            return;
        };
        let covered = store.audit_lines() + svc.audit_sink_errors();
        if covered < self.decisions_this_boot {
            let total = self.decisions_this_boot;
            drop(svc);
            self.violation(
                step,
                "audit-coverage",
                format!("served {total} decisions this boot but only {covered} reached the audit stream (lines + counted sink failures)"),
            );
        }
    }

    /// The no-secret oracle plus well-formedness for one exchange.
    fn check_wire(&mut self, step: usize, raw: &[u8], excused: bool, restricted: bool) {
        if restricted && contains_secret(raw) {
            self.violation(
                step,
                "denied-triple-on-wire",
                "restricted role received the secret literal".to_string(),
            );
        }
        if !excused && !raw.is_empty() && !well_formed_response(raw) {
            self.violation(
                step,
                "torn-response",
                format!("server delivered {} malformed bytes", raw.len()),
            );
        }
    }

    fn step_query(&mut self, step: usize, role: &str, restricted: bool, fault: Option<ConnFault>) {
        let req = request("/query", Some(role), chem_query().as_bytes(), true);
        let (raw, excused) = self.exchange(&[req], fault);
        self.check_wire(step, &raw, excused, restricted);
        match http_status(&raw) {
            Some(200) => {
                if !restricted && !excused && !contains_secret(&raw) {
                    // The authorized role must see the secret — otherwise
                    // the restricted denial above proves nothing.
                    self.violation(
                        step,
                        "authorized-view",
                        "authorized role's clean 200 lacks the secret".to_string(),
                    );
                }
                self.note_decision(step);
            }
            Some(403) => {
                self.denied += 1;
                self.note_decision(step);
            }
            _ => {}
        }
    }

    fn step_update(&mut self, step: usize, role: &str, ops: &str, fault: Option<ConnFault>) {
        let req = request("/update", Some(role), ops.as_bytes(), true);
        let (raw, excused) = self.exchange(&[req], fault);
        self.check_wire(step, &raw, excused, true);
        match http_status(&raw) {
            Some(200) => {
                self.acked += 1;
                self.note_decision(step);
            }
            Some(403) => {
                self.denied += 1;
                self.note_decision(step);
            }
            _ => {}
        }
    }

    fn note_triple(&self, site: usize, step: usize) -> Triple {
        Triple::new(
            Term::iri(&ns::app(&format!("site{site}"))),
            Term::iri(&ns::app("hasInspectionNote")),
            Term::string(&format!("note-{step}")),
        )
    }

    fn run_action(&mut self, step: usize, fault: Option<ConnFault>) {
        match self.schedule.actions[step] {
            Action::QueryRestricted => {
                self.step_query(step, &ns::sec("MainRep"), true, fault);
            }
            Action::QueryEmergency => {
                self.step_query(step, &ns::sec("Emergency"), false, fault);
            }
            Action::UpdateInsert { site } => {
                let t = self.note_triple(site, step);
                let before = self.acked;
                self.step_update(step, &ns::sec("Emergency"), &format!("+ {t}\n"), fault);
                if self.acked > before {
                    self.model.insert(t.clone());
                    self.live_notes.push(t);
                }
            }
            Action::UpdateDelete => {
                if self.live_notes.is_empty() {
                    // Nothing to delete yet: degrade to an insert so the
                    // step still exercises the mutation path.
                    let t = self.note_triple(0, step);
                    let before = self.acked;
                    self.step_update(step, &ns::sec("Emergency"), &format!("+ {t}\n"), fault);
                    if self.acked > before {
                        self.model.insert(t.clone());
                        self.live_notes.push(t);
                    }
                    return;
                }
                let pick = self.tree.child("workload").decider().pick(
                    "delete",
                    step as u64,
                    self.live_notes.len() as u64,
                ) as usize;
                let t = self.live_notes[pick].clone();
                let before = self.acked;
                self.step_update(step, &ns::sec("Emergency"), &format!("- {t}\n"), fault);
                if self.acked > before {
                    self.model.remove(&t);
                    self.live_notes.swap_remove(pick);
                }
            }
            Action::UpdateDeniedRole { site } => {
                let t = self.note_triple(site, step);
                let before = self.acked;
                self.step_update(step, &ns::sec("MainRep"), &format!("+ {t}\n"), fault);
                if self.acked > before {
                    self.violation(
                        step,
                        "denied-triple-on-wire",
                        "restricted role's update was acknowledged".to_string(),
                    );
                }
            }
            Action::Health => {
                let req = request("/health", None, b"", true);
                let (raw, excused) = self.exchange(&[req], fault);
                self.check_wire(step, &raw, excused, true);
            }
            Action::ReorderedPipeline => {
                // Two restricted queries, second-composed-first: the link
                // carries bytes, so this is reordered delivery as the
                // server sees it. Concatenated keep-alive responses are
                // not a single well-formed response — check only the
                // secrecy and clean-prefix properties here.
                let a = request(
                    "/query",
                    Some(&ns::sec("MainRep")),
                    chem_query().as_bytes(),
                    false,
                );
                let b = request(
                    "/query",
                    Some(&ns::sec("MainRep")),
                    chem_query().as_bytes(),
                    true,
                );
                let (raw, excused) = self.exchange(&[b, a], fault);
                if contains_secret(&raw) {
                    self.violation(
                        step,
                        "denied-triple-on-wire",
                        "restricted role received the secret literal (pipelined)".to_string(),
                    );
                }
                if !pipelined_stream_ok(&raw, excused) {
                    self.violation(
                        step,
                        "torn-response",
                        "pipelined response stream does not start with a status line".to_string(),
                    );
                }
                // Only decisions the service actually made (200/403)
                // reach the audit log; transport-level errors (408, 400)
                // never touch the service and must not be counted.
                let served = raw
                    .windows(12)
                    .filter(|w| *w == b"HTTP/1.1 200" || *w == b"HTTP/1.1 403")
                    .count();
                for _ in 0..served.min(2) {
                    self.note_decision(step);
                }
            }
        }
    }

    /// Kill the node and bring it back from the surviving backend files,
    /// then run the post-recovery oracles (durability, label ≡ view).
    fn kill_and_recover(&mut self, step: usize) {
        self.recoveries += 1;
        // Bank the dying boot's audit-line count before dropping it.
        {
            let svc = self.core.service().read();
            if let Some(store) = svc.durable_store() {
                self.audit_prev_boots += store.audit_lines();
            }
        }
        // The crash: all in-memory state vanishes; only backend files
        // survive. A fresh MemBackend from a byte-copy of those files is
        // the rebooted disk.
        let files = self.mem.clone_files();
        self.mem = Arc::new(MemBackend::from_files(files));
        // Recovery itself runs fault-free (see NO_STEP).
        self.step.store(NO_STEP, Ordering::Relaxed);
        let recovered = GSacs::recover_with_resilience(
            self.backend(),
            self.store_config(),
            Box::<OwlHorstEngine>::default(),
            16,
            self.resilience_config(),
        );
        match recovered {
            Ok((svc, rec)) => {
                let got = graph_hash(&rec.base);
                let want = graph_hash(&self.model);
                if got != want {
                    self.violation(
                        step,
                        "durability",
                        format!(
                            "recovered base ({} triples, hash {got:016x}) != acknowledged model ({} triples, hash {want:016x})",
                            rec.base.len(),
                            self.model.len()
                        ),
                    );
                }
                self.core = ServerCore::new(svc, self.server_config());
                self.decisions_this_boot = 0;
            }
            Err(e) => {
                self.violation(step, "durability", format!("recovery failed outright: {e}"));
                // The world cannot continue without a node; re-create a
                // fresh one so remaining steps still execute (their
                // oracles run against the replacement).
                self.mem = Arc::new(MemBackend::new());
                let svc = GSacs::create_durable(
                    self.backend(),
                    self.store_config(),
                    OntoRepository::new(),
                    policies(),
                    Box::<OwlHorstEngine>::default(),
                    site_data(),
                    16,
                    self.resilience_config(),
                )
                .expect("fresh replacement world");
                self.model = {
                    let mut g = Graph::new();
                    g.extend_from(&site_data());
                    g
                };
                self.live_notes.clear();
                self.core = ServerCore::new(svc, self.server_config());
                self.decisions_this_boot = 0;
            }
        }
        self.step.store(step as u64, Ordering::Relaxed);
        // Label ≡ view after recovery: the restricted role still cannot
        // see the secret, and the authorized role still can.
        self.step_query(step, &ns::sec("MainRep"), true, None);
        self.step_query(step, &ns::sec("Emergency"), false, None);
    }

    /// Offline corruption probe: flip a byte inside the newest checkpoint
    /// of a *copy* of the store. Recovery over the corrupted copy must
    /// fail closed — or, if an older intact checkpoint + complete WAL
    /// chain exists, reproduce the acknowledged state exactly. A silently
    /// different success is the violation.
    fn corrupt_probe(&mut self, step: usize) {
        let files = self.mem.clone_files();
        let Some((name, bytes)) = files
            .iter()
            .filter(|(n, b)| n.starts_with("ckpt-") && n.ends_with(".grdfck") && !b.is_empty())
            .max_by(|a, b| a.0.cmp(b.0))
            .map(|(n, b)| (n.clone(), b.clone()))
        else {
            return;
        };
        let probe = MemBackend::from_files(files);
        let offset =
            self.tree
                .child("corrupt")
                .decider()
                .pick("offset", step as u64, bytes.len() as u64) as usize;
        probe.flip_bit(&name, offset, 0x10);
        match recover(&probe) {
            Err(_) => {} // fail-closed: exactly right
            Ok(rec) => {
                let got = graph_hash(&rec.base);
                let want = graph_hash(&self.model);
                if got != want {
                    self.violation(
                        step,
                        "fail-closed-corruption",
                        format!(
                            "corrupted {name} byte {offset}: recovery silently succeeded with a different graph (hash {got:016x}, want {want:016x})"
                        ),
                    );
                }
            }
        }
    }
}

/// Run the schedule for `config` with the events at indices in
/// `disabled` suppressed (the shrinker's handle). An empty set is a
/// full-fidelity run.
pub fn run_schedule(config: &SimConfig, disabled: &BTreeSet<usize>) -> SimReport {
    let schedule = Schedule::generate(config.master_seed, config.steps);
    let mut engine_faults = std::collections::BTreeMap::new();
    let mut storage_faults = std::collections::BTreeMap::new();
    let mut conn_faults: std::collections::BTreeMap<usize, ConnFault> =
        std::collections::BTreeMap::new();
    let mut clock_skips: std::collections::BTreeMap<usize, Duration> =
        std::collections::BTreeMap::new();
    let mut kills: BTreeSet<usize> = BTreeSet::new();
    let mut probes: BTreeSet<usize> = BTreeSet::new();
    let mut enabled = 0usize;
    for (i, FaultEvent { step, fault }) in schedule.events.iter().enumerate() {
        if disabled.contains(&i) {
            continue;
        }
        enabled += 1;
        match fault {
            WorldFault::Engine(f) => {
                engine_faults.insert(*step as u64, *f);
            }
            WorldFault::Storage(f) => {
                storage_faults.insert(*step as u64, *f);
            }
            WorldFault::Conn(f) => {
                conn_faults.insert(*step, *f);
            }
            WorldFault::ClockSkip(d) => {
                clock_skips.insert(*step, *d);
            }
            WorldFault::KillRecover => {
                kills.insert(*step);
            }
            WorldFault::CorruptProbe => {
                probes.insert(*step);
            }
        }
    }

    let tree = SeedTree::new(config.master_seed);
    let clock = Arc::new(ManualClock::new());
    let step_cell = Arc::new(AtomicU64::new(NO_STEP));
    let mut world = World {
        cfg: *config,
        schedule,
        clock,
        step: Arc::clone(&step_cell),
        engine_faults: Arc::new(engine_faults),
        storage_faults: Arc::new(storage_faults),
        tree,
        mem: Arc::new(MemBackend::new()),
        // Placeholder; replaced right below once the backend exists.
        core: ServerCore::new(
            GSacs::with_resilience(
                OntoRepository::new(),
                PolicySet::new(Vec::new()),
                Box::<OwlHorstEngine>::default(),
                Graph::new(),
                1,
                ResilienceConfig::default(),
            ),
            ServerConfig::default(),
        ),
        model: Graph::new(),
        live_notes: Vec::new(),
        violations: Vec::new(),
        acked: 0,
        denied: 0,
        recoveries: 0,
        decisions_this_boot: 0,
        audit_prev_boots: 0,
    };
    let svc = GSacs::create_durable(
        world.backend(),
        world.store_config(),
        OntoRepository::new(),
        policies(),
        Box::<OwlHorstEngine>::default(),
        site_data(),
        16,
        world.resilience_config(),
    )
    .expect("boot the simulated world");
    world.model.extend_from(&site_data());
    world.core = ServerCore::new(svc, world.server_config());

    for step in 0..config.steps {
        world.step.store(step as u64, Ordering::Relaxed);
        if let Some(d) = clock_skips.get(&step) {
            world.clock.advance(*d);
        }
        if probes.contains(&step) {
            world.corrupt_probe(step);
        }
        if kills.contains(&step) {
            world.kill_and_recover(step);
        } else {
            let fault = conn_faults.get(&step).copied();
            world.run_action(step, fault);
        }
        world.clock.advance(STEP_TICK);
    }

    // Final accounting: a last recovery check is implicit in the kill
    // schedule; here we only read end-of-run state.
    let (graph, audit_total) = {
        let svc = world.core.service().read();
        let audit = world.audit_prev_boots + svc.durable_store().map_or(0, |s| s.audit_lines());
        (graph_hash(svc.base_graph()), audit)
    };
    SimReport {
        master_seed: config.master_seed,
        steps: config.steps,
        violations: world.violations,
        graph_hash: graph,
        audit_total,
        acked: world.acked,
        denied: world.denied,
        recoveries: world.recoveries,
        faults_enabled: enabled,
    }
}

/// Run the full-fidelity schedule for `config`.
pub fn run(config: &SimConfig) -> SimReport {
    run_schedule(config, &BTreeSet::new())
}
