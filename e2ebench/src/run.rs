//! One benchmark run: restart the served process from disk (several
//! times, for `setup_s`), drive a workload for a fixed time in a closed
//! loop, check every response, and summarize.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use grdf_obs::MetricsSnapshot;
use grdf_query::eval::execute;
use grdf_rdf::graph::Graph;

use crate::check::{check_response, parse_answer, Answer};
use crate::client::{get, Conn, Served};
use crate::data::{
    canonical_hash, code_fingerprint, copy_store, ensure_prepared, generated_base, role_iris,
    Catalog, Manifest, Prepared, Scale, LARGE, MEDIUM,
};
use crate::schedule::{Kind, Op, ReadStream, RoundStream, Shape, UPDATES_PER_ROUND};
use crate::stats::{mean, median, percentile, sorted, tail_mean};
use crate::trace::{write_spans, Replica, SpanRec, Spans};

/// The workloads, each with its store and traffic shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Read430k,
    Ingest40k,
    Retract40k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Read430k,
        Workload::Ingest40k,
        Workload::Retract40k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Read430k => "read_430k",
            Workload::Ingest40k => "ingest_40k",
            Workload::Retract40k => "retract_40k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::Read430k => LARGE,
            Workload::Ingest40k | Workload::Retract40k => MEDIUM,
        }
    }
}

/// Restarts per run; `setup_s` is their median. A 430K restart takes
/// seconds, a 40K one well under a second, so the small store restarts
/// more often for the same steadiness.
const SETUPS_LARGE: usize = 3;
const SETUPS_SMALL: usize = 7;
/// Insert rounds sent after the read workload's timed phase: the update
/// path at 430K (`update_p50_ms`, and the traced run's update-path layer
/// calls) without write traffic disturbing the timed reads.
const READ_TAIL_ROUNDS: usize = 12;
/// Rounds a write run completes even when `--seconds` has passed, so the
/// read percentiles always have enough samples beyond them.
const MIN_ROUNDS: usize = 24;
/// One in this many read responses is kept for the reference check.
const REFERENCE_EVERY: usize = 40;
/// Cap on reference comparisons per client lane (one per timed slice).
const REFERENCE_MAX: usize = 400;
/// Share of the slowest reads whose mean is `query_tail_ms`.
const TAIL_SHARE: f64 = 0.10;
/// Repetitions of the post-phase layer calls in the traced run.
const LAYER_REPEATS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where prepared stores, run copies and span files live.
    pub data: PathBuf,
    /// Store size override (the self-tests run every workload small).
    pub scale: Option<Scale>,
}

/// One finished operation.
#[derive(Debug, Clone)]
struct OpRec {
    kind: Kind,
    ms: f64,
    ok: bool,
    body_bytes: usize,
    rows: usize,
}

/// A sampled response kept for the reference comparison.
struct Sampled {
    role: usize,
    query: String,
    answer: Answer,
}

/// What one client thread produced.
#[derive(Default)]
struct Lane {
    recs: Vec<OpRec>,
    visible_ms: Vec<f64>,
    sampled: Vec<Sampled>,
    failures: Vec<String>,
    end: Option<Instant>,
    rounds: usize,
    spans: Vec<SpanRec>,
}

/// A metric with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The end-to-end metrics in `BENCHMARK.json`.
    pub end_to_end: BTreeMap<&'static str, Metric>,
    /// End-to-end numbers that only some workloads define.
    pub extra: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics (all of them in a traced run; the ones the
    /// program's registry gives in an untraced run).
    pub per_layer: BTreeMap<&'static str, Metric>,
    pub notes: Vec<String>,
}

fn metric(value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        value,
        unit,
        samples,
    }
}

/// Remove a directory tree when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SETUP_QUERY: &str = "PREFIX app: <http://grdf.org/app#>\nASK { ?s a app:ChemSite }";

fn setup_request(role: &str) -> Vec<u8> {
    format!(
        "POST /query HTTP/1.1\r\nhost: e2ebench\r\nx-role: {role}\r\ncontent-length: {}\r\n\r\n{SETUP_QUERY}",
        SETUP_QUERY.len()
    )
    .into_bytes()
}

/// Restart the served process on `store` and wait for a 200 to the first
/// query of each role under the server's default deadline. A 504 (the
/// cold view build outran the deadline) is retried once. The restarted
/// base must match `expected`. Returns the handle, the setup seconds and
/// the 504 count.
fn restart(store: &Path, expected: &Manifest) -> Result<(Served, f64, usize), String> {
    let t0 = Instant::now();
    let served = Served::spawn(store)?;
    let mut conn = Conn::new(served.ready.addr);
    let mut cold = 0;
    for role in role_iris() {
        let req = setup_request(&role);
        let mut reply = conn.exchange(&req)?;
        if reply.status == 504 {
            cold += 1;
            reply = conn.exchange(&req)?;
        }
        if reply.status != 200 || parse_answer(&reply.body).is_none() {
            return Err(format!(
                "first query as {role} got {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
        }
    }
    let secs = t0.elapsed().as_secs_f64() - served.ready.hash_secs;
    let r = served.ready;
    if (r.base_triples, r.base_hash) != (expected.base_triples, expected.base_hash) {
        return Err(format!(
            "restarted base ({} triples, hash {:016x}) differs from the generated one ({} triples, hash {:016x})",
            r.base_triples, r.base_hash, expected.base_triples, expected.base_hash
        ));
    }
    if r.served_triples != expected.served_triples {
        return Err(format!(
            "restart serves {} triples, prepare materialized {}",
            r.served_triples, expected.served_triples
        ));
    }
    Ok((served, secs, cold))
}

fn snapshot(addr: SocketAddr) -> Result<MetricsSnapshot, String> {
    let reply = get(addr, "/metrics.json")?;
    if reply.status != 200 {
        return Err(format!("/metrics.json: {}", reply.status));
    }
    MetricsSnapshot::from_json(&String::from_utf8_lossy(&reply.body))
}

/// Shared, read-only inputs of the client threads.
struct Ctx<'a> {
    addr: SocketAddr,
    roles: [String; 3],
    catalog: &'a Catalog,
    seed: u64,
    end: Instant,
    epoch: Instant,
    replica: Option<&'a Replica>,
    /// Keep a seeded sample of read responses for the reference check.
    sample: bool,
}

impl Ctx<'_> {
    /// Send one op, check it, and (traced) make its direct calls.
    fn drive(&self, conn: &mut Conn, spans: &mut Spans, lane: &mut Lane, op: &Op) -> Instant {
        let role = &self.roles[op.role];
        let request = op.request(role);
        let start = Instant::now();
        let reply = conn.exchange(&request);
        let done = Instant::now();
        let ms = (done - start).as_secs_f64() * 1e3;
        let forbidden = self.catalog.forbidden.get(role);
        let (ok, body_bytes, answer) = match &reply {
            Ok(r) => match check_response(op, r.status, &r.body, forbidden) {
                Ok(a) => (true, r.body.len(), a),
                Err(e) => {
                    lane.failures.push(format!("{:?} as {role}: {e}", op.kind));
                    (false, r.body.len(), None)
                }
            },
            Err(e) => {
                lane.failures.push(format!("{:?} as {role}: {e}", op.kind));
                (false, 0, None)
            }
        };
        let rows = answer.as_ref().map_or(0, Answer::rows);
        let index = lane.recs.len() as u64;
        if let (Kind::Read(_), Some(answer), true) = (op.kind, answer, self.sample) {
            if lane.sampled.len() < REFERENCE_MAX
                && crate::schedule::Rng::new(self.seed.wrapping_add(index)).below(REFERENCE_EVERY)
                    == 0
            {
                lane.sampled.push(Sampled {
                    role: op.role,
                    query: op.body.clone(),
                    answer,
                });
            }
        }
        lane.recs.push(OpRec {
            kind: op.kind,
            ms,
            ok,
            body_bytes,
            rows,
        });
        if let Some(replica) = self.replica {
            let trace = spans.fresh();
            let root = spans.fresh();
            spans.record(trace, root, "server.exchange", start, done);
            if let Err(e) = replica.direct_calls(spans, trace, root, op, role, &request) {
                lane.failures
                    .push(format!("{:?} direct calls: {e}", op.kind));
            }
            spans.recs.push(SpanRec {
                trace,
                id: root,
                parent: 0,
                name: "request",
                start_ns: ns(self.epoch, start),
                end_ns: ns(self.epoch, Instant::now()),
            });
        }
        done
    }

    fn read_lane(&self, stream: &mut ReadStream) -> Lane {
        let mut lane = Lane::default();
        let mut spans = Spans::new(self.epoch, 1);
        let mut conn = Conn::new(self.addr);
        while Instant::now() < self.end {
            let op = stream.next_op();
            lane.end = Some(self.drive(&mut conn, &mut spans, &mut lane, &op));
        }
        lane.spans = spans.recs;
        lane
    }

    fn write_lane(&self, retract: bool) -> Lane {
        let mut lane = Lane::default();
        let mut spans = Spans::new(self.epoch, 1);
        let mut conn = Conn::new(self.addr);
        let mut rounds = RoundStream::new(self.seed, retract, self.catalog);
        while Instant::now() < self.end || lane.rounds < MIN_ROUNDS {
            let mut last_update = None;
            for op in rounds.next_round() {
                if op.kind.is_update() {
                    last_update = Some(Instant::now());
                }
                let done = self.drive(&mut conn, &mut spans, &mut lane, &op);
                if op.kind == Kind::Probe && lane.recs.last().is_some_and(|r| r.ok) {
                    let from = last_update.expect("probes follow updates");
                    lane.visible_ms.push((done - from).as_secs_f64() * 1e3);
                }
                lane.end = Some(done);
            }
            lane.rounds += 1;
        }
        lane.spans = spans.recs;
        lane
    }

    /// Inserts sent after the timed phase of the read workload.
    fn tail_lane(&self) -> Lane {
        let mut lane = Lane::default();
        let mut spans = Spans::new(self.epoch, 99);
        let mut conn = Conn::new(self.addr);
        let mut rounds = RoundStream::new(self.seed, false, self.catalog);
        for _ in 0..READ_TAIL_ROUNDS {
            for op in rounds.next_round().iter().take(UPDATES_PER_ROUND) {
                self.drive(&mut conn, &mut spans, &mut lane, op);
            }
        }
        lane.spans = spans.recs;
        lane
    }
}

fn ns(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

fn counter(counters: &BTreeMap<String, u64>, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0) as f64
}

/// Add the counters of `delta` into `into`.
fn add_counters(into: &mut BTreeMap<String, u64>, delta: &MetricsSnapshot) {
    for (name, v) in &delta.counters {
        *into.entry(name.clone()).or_default() += v;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Compare sampled responses with `secure_view` + `execute` on the
/// restarted dataset. Returns a description of each mismatch.
fn reference_check(
    sampled: &[Sampled],
    views: &BTreeMap<usize, Graph>,
    roles: &[String; 3],
) -> Vec<String> {
    let mut bad = Vec::new();
    for s in sampled {
        let view = &views[&s.role];
        let expected = execute(view, &s.query)
            .ok()
            .as_ref()
            .and_then(Answer::from_result);
        if expected.as_ref() != Some(&s.answer) {
            bad.push(format!(
                "reference mismatch as {}: {}",
                roles[s.role],
                s.query.replace('\n', " ")
            ));
        }
    }
    bad
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set as `sched_setaffinity` takes it (up to 1024 CPUs).
type CpuSet = [u64; 16];

/// The first CPU the calling thread may run on, as a one-CPU set.
fn first_cpu() -> Result<CpuSet, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable CPU set whose exact byte size is
    // passed alongside it, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bit) = mask
        .iter()
        .enumerate()
        .find_map(|(i, w)| (*w != 0).then(|| (i, w.trailing_zeros())))
        .ok_or("empty CPU affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    Ok(one)
}

/// Restrict thread `tid` (0: the calling thread) to `cpus`. Threads and
/// processes it starts afterwards inherit the restriction.
fn pin(tid: i32, cpus: &CpuSet) -> Result<(), String> {
    // SAFETY: `cpus` is a live CPU set whose exact byte size is passed
    // alongside it; the call only reads it.
    if unsafe { sched_setaffinity(tid, std::mem::size_of_val(cpus), cpus.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity({tid}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Restrict every thread of process `pid` to `cpus`.
fn pin_process(pid: u32, cpus: &CpuSet) -> Result<(), String> {
    let tasks = format!("/proc/{pid}/task");
    for entry in std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))? {
        let name = entry.map_err(|e| format!("{tasks}: {e}"))?.file_name();
        let tid = name
            .to_str()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("{tasks}: bad entry {name:?}"))?;
        pin(tid, cpus)?;
    }
    Ok(())
}

/// Run one workload and summarize it.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    // Every timed phase runs its one client connection and all threads of
    // the served process on one CPU. The connection then never waits for a
    // wakeup on an idle CPU, and no thread depends on a second vCPU whose
    // share of the shared host varies between runs: unpinned, lookup
    // medians moved by up to 2x and `read_430k` throughput by 0.4 of its
    // median between identical runs. The write workloads pin here, and the
    // processes they spawn inherit it; `read_430k` pins after its
    // restarts, which keep both CPUs for the parallel 430K materialization.
    let cpu = first_cpu()?;
    if cfg.workload != Workload::Read430k {
        pin(0, &cpu)?;
    }
    let data = &cfg.data;
    std::fs::create_dir_all(data).map_err(|e| format!("{}: {e}", data.display()))?;
    let scale = cfg.scale.unwrap_or(cfg.workload.scale());
    let fingerprint = code_fingerprint()?;
    if cfg.scale.is_none() {
        // Every scale is prepared on the first run of a build, so no later
        // run pays for writing a store.
        for w in Workload::ALL {
            ensure_prepared(data, &w.scale(), fingerprint)?;
        }
    }
    let prepared: Prepared = ensure_prepared(data, &scale, fingerprint)?;
    // Restart integrity, untimed: every restart must reproduce exactly the
    // base this build generates, not only what the manifest recorded.
    let generated = generated_base(&scale);
    let expected = Manifest {
        base_triples: generated.len(),
        base_hash: canonical_hash(&generated),
        served_triples: prepared.manifest.served_triples,
    };
    let catalog = Catalog::from_base(&generated);
    drop(generated);
    let run_dir = data.join(format!("run-{}", std::process::id()));
    let _cleanup = Scratch(run_dir.clone());
    std::fs::create_dir_all(&run_dir).map_err(|e| e.to_string())?;
    let roles = role_iris();
    let epoch = Instant::now();

    let replica = if cfg.trace {
        let r = Replica::restart(&prepared.store, &run_dir)?;
        for role in &roles {
            r.mirror_query(role, SETUP_QUERY);
        }
        Some(r)
    } else {
        None
    };

    let setups = match (cfg.trace, scale == crate::data::LARGE) {
        (true, _) => 1,
        (false, true) => SETUPS_LARGE,
        (false, false) => SETUPS_SMALL,
    };
    // `read_430k` splits its timed phase into equal slices, one served by
    // each restart. A run then averages over three server processes and
    // spreads its timed work over about twice the wall-clock time of one
    // contiguous phase: 430K query times follow the shared host's load,
    // which changes within tens of seconds (README.md, Steadiness). The
    // write workloads serve their whole phase from the last restart, so
    // their rounds run on one store from the pristine state.
    let slices = match cfg.workload {
        Workload::Read430k => setups,
        Workload::Ingest40k | Workload::Retract40k => 1,
    };
    let ctx_for = |addr: SocketAddr, end: Instant| Ctx {
        addr,
        roles: roles.clone(),
        catalog: &catalog,
        seed: cfg.seed,
        end,
        epoch,
        replica: replica.as_ref(),
        sample: cfg.workload == Workload::Read430k,
    };
    let mut read_stream = ReadStream::new(cfg.seed, &catalog);
    let mut setup_secs = Vec::new();
    let mut cold = Vec::new();
    let mut lanes: Vec<Lane> = Vec::new();
    // Registry counter deltas over the timed slices.
    let mut phase = BTreeMap::new();
    let mut phase_secs = 0.0;
    let mut served = None;
    for i in 0..setups {
        let store = run_dir.join(format!("store{i}"));
        copy_store(&prepared.store, &store)?;
        let (s, secs, c) = restart(&store, &expected)?;
        setup_secs.push(secs);
        cold.push(c as f64);
        if i + slices >= setups {
            let addr = s.ready.addr;
            if cfg.workload == Workload::Read430k {
                pin_process(s.pid(), &cpu)?;
            }
            let before = snapshot(addr)?;
            let start = Instant::now();
            let ctx = ctx_for(
                addr,
                start + Duration::from_secs_f64(cfg.seconds / slices as f64),
            );
            let lane = match cfg.workload {
                // A thread of its own, so only the timed phase is pinned.
                Workload::Read430k => std::thread::scope(|scope| {
                    scope
                        .spawn(|| pin(0, &cpu).map(|()| ctx.read_lane(&mut read_stream)))
                        .join()
                        .expect("client thread")
                })?,
                Workload::Ingest40k => ctx.write_lane(false),
                Workload::Retract40k => ctx.write_lane(true),
            };
            phase_secs += (lane.end.unwrap_or(start) - start).as_secs_f64();
            lanes.push(lane);
            add_counters(&mut phase, &snapshot(addr)?.delta(&before));
        }
        if i + 1 < setups {
            s.stop()?;
            let _ = std::fs::remove_dir_all(&store);
        } else {
            served = Some(s);
        }
    }
    let served = served.expect("at least one setup");
    let addr = served.ready.addr;
    let phase_ops: usize = lanes.iter().map(|l| l.recs.len()).sum();
    let mid = snapshot(addr)?;

    // Reference sample (read workload): the sampled responses against
    // secure_view + execute on the restarted dataset, checked before the
    // insert tail changes anything.
    let mut post = Spans::new(epoch, 100);
    let sampled: Vec<Sampled> = lanes.iter_mut().flat_map(|l| l.sampled.drain(..)).collect();
    let mut reference_failures = Vec::new();
    if cfg.workload == Workload::Read430k {
        let fresh;
        let r = match replica.as_ref() {
            Some(r) => r,
            None => {
                fresh = Replica::restart(&prepared.store, &run_dir)?;
                &fresh
            }
        };
        let views = r.reference_views(&roles);
        let views: BTreeMap<usize, Graph> = roles
            .iter()
            .enumerate()
            .map(|(i, role)| (i, views[role].clone()))
            .collect();
        reference_failures = reference_check(&sampled, &views, &roles);
        lanes.push(ctx_for(addr, Instant::now()).tail_lane());
    }
    let after = snapshot(addr)?;
    let peak_rss = served
        .peak_rss_mib()
        .ok_or("cannot read the served process's peak RSS")?;
    let served_triples = served.ready.served_triples;
    served.stop()?;
    if let Some(r) = replica.as_ref() {
        r.time_view_builds(&mut post, &roles);
        r.layer_calls(&mut post, &prepared.store, LAYER_REPEATS)?;
    }

    // The timed slices plus the read workload's insert tail.
    let mut writes = phase.clone();
    add_counters(&mut writes, &after.delta(&mid));
    let mut all_spans: Vec<SpanRec> = lanes.iter_mut().flat_map(|l| l.spans.drain(..)).collect();
    let recs: Vec<&OpRec> = lanes.iter().flat_map(|l| &l.recs).collect();
    let mut failures: Vec<String> = lanes.iter().flat_map(|l| l.failures.clone()).collect();
    let compared = sampled.len();
    let failed = recs.iter().filter(|r| !r.ok).count() + reference_failures.len();
    failures.extend(reference_failures);

    let reads = |shape: Option<Shape>| -> Vec<f64> {
        recs.iter()
            .filter(|r| match (r.kind, shape) {
                (Kind::Read(_), None) => true,
                (Kind::Read(s), Some(want)) => s == want,
                _ => false,
            })
            .map(|r| r.ms)
            .collect()
    };
    let query_ms = sorted(reads(None));
    let update_ms = sorted(
        recs.iter()
            .filter(|r| r.kind.is_update())
            .map(|r| r.ms)
            .collect(),
    );
    let visible_ms = sorted(lanes.iter().flat_map(|l| l.visible_ms.clone()).collect());
    let need = |v: Option<f64>, what: &str, n: usize| {
        v.ok_or_else(|| format!("{what}: {n} samples leave fewer than 10 beyond the percentile"))
    };
    let attempted = recs.len();

    let mut end_to_end = BTreeMap::new();
    end_to_end.insert(
        "setup_s",
        metric(median(&setup_secs).unwrap_or(0.0), "s", setup_secs.len()),
    );
    end_to_end.insert(
        "throughput_rps",
        metric(ratio(phase_ops as f64, phase_secs), "1/s", phase_ops),
    );
    let lookup_ms = sorted(reads(Some(Shape::Point)));
    end_to_end.insert(
        "lookup_p50_ms",
        metric(
            need(
                percentile(&lookup_ms, 50.0),
                "lookup_p50_ms",
                lookup_ms.len(),
            )?,
            "ms",
            lookup_ms.len(),
        ),
    );
    end_to_end.insert(
        "query_tail_ms",
        metric(
            need(
                tail_mean(&query_ms, TAIL_SHARE),
                "query_tail_ms",
                query_ms.len(),
            )?,
            "ms",
            query_ms.len(),
        ),
    );

    end_to_end.insert("peak_rss_mb", metric(peak_rss, "MiB", 1));

    let mut extra = BTreeMap::new();
    if let Some(p50) = percentile(&query_ms, 50.0) {
        extra.insert("query_p50_ms", metric(p50, "ms", query_ms.len()));
    }
    if let Some(p99) = percentile(&query_ms, 99.0) {
        extra.insert("query_p99_ms", metric(p99, "ms", query_ms.len()));
    }
    if let Some(v) = percentile(&update_ms, 50.0) {
        extra.insert("update_p50_ms", metric(v, "ms", update_ms.len()));
    }
    if let Some(v) = percentile(&visible_ms, 50.0) {
        extra.insert("visible_p50_ms", metric(v, "ms", visible_ms.len()));
    }
    extra.insert(
        "error_ratio",
        metric(
            ratio(failed as f64, attempted as f64),
            "fraction",
            attempted,
        ),
    );

    // Per-layer numbers the program's own registry gives (every run).
    let rounds: usize = lanes.iter().map(|l| l.rounds).sum();
    let queries_in_phase = recs
        .iter()
        .take(phase_ops)
        .filter(|r| !r.kind.is_update())
        .count();
    let updates = update_ms.len() as f64;
    let query_recs: Vec<&&OpRec> = recs.iter().filter(|r| !r.kind.is_update()).collect();
    let rows_returned: usize = query_recs.iter().map(|r| r.rows).sum();
    let mut per_layer = BTreeMap::new();
    let hit = counter(&phase, "gsacs.cache.hit");
    let miss = counter(&phase, "gsacs.cache.miss");
    per_layer.insert(
        "security.cache_hit_ratio",
        metric(ratio(hit, hit + miss), "ratio", (hit + miss) as usize),
    );
    let builds = counter(&phase, "view.builds");
    per_layer.insert(
        "security.view_builds_per_round",
        metric(ratio(builds, rounds.max(1) as f64), "count", rounds),
    );
    per_layer.insert(
        "security.rebuild_query_share",
        metric(
            ratio(builds, queries_in_phase as f64),
            "ratio",
            queries_in_phase,
        ),
    );
    per_layer.insert(
        "security.view_triples",
        metric(
            ratio(
                counter(&after.counters, "view.granted"),
                counter(&after.counters, "view.builds"),
            ),
            "count",
            counter(&after.counters, "view.builds") as usize,
        ),
    );
    per_layer.insert(
        "security.cold_504",
        metric(median(&cold).unwrap_or(0.0), "count", cold.len()),
    );
    per_layer.insert(
        "security.full_rebuild_ratio",
        metric(
            ratio(counter(&writes, "gsacs.update.full"), updates),
            "ratio",
            update_ms.len(),
        ),
    );
    per_layer.insert(
        "owl.passes_per_update",
        metric(
            ratio(counter(&writes, "reasoner.passes"), updates),
            "count",
            update_ms.len(),
        ),
    );
    per_layer.insert(
        "store.wal_bytes_per_update",
        metric(
            ratio(counter(&writes, "store.wal.bytes"), updates),
            "bytes",
            update_ms.len(),
        ),
    );
    per_layer.insert(
        "query.rows_returned",
        metric(
            ratio(rows_returned as f64, query_recs.len() as f64),
            "count",
            query_recs.len(),
        ),
    );
    per_layer.insert(
        "query.examined_per_returned",
        metric(
            ratio(counter(&phase, "query.join.rows"), rows_returned as f64),
            "ratio",
            rows_returned,
        ),
    );
    per_layer.insert(
        "server.resp_kib",
        metric(
            mean(
                &query_recs
                    .iter()
                    .map(|r| r.body_bytes as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
            "KiB",
            query_recs.len(),
        ),
    );
    per_layer.insert(
        "rdf.served_triples",
        metric(served_triples as f64, "count", 1),
    );
    per_layer.insert(
        "server.shed",
        metric(counter(&writes, "server.shed"), "count", 1),
    );
    per_layer.insert(
        "security.errors",
        metric(counter(&writes, "gsacs.errors"), "count", 1),
    );
    per_layer.insert(
        "store.audit_sink_errors",
        metric(counter(&writes, "gsacs.audit.sink_errors"), "count", 1),
    );

    if cfg.trace {
        all_spans.extend(post.recs);
        layer_metrics(&all_spans, &mut per_layer)?;
        // Tracing overhead: the gap between these and an untraced run's.
        per_layer.insert("trace.throughput_rps", end_to_end["throughput_rps"].clone());
        per_layer.insert("trace.lookup_p50_ms", end_to_end["lookup_p50_ms"].clone());
        let path = data.join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        write_spans(&path, &all_spans)?;
    }
    let mut notes = vec![format!(
        "{} ops in {:.2} s ({} rounds), {} reference comparisons, scale {}",
        phase_ops, phase_secs, rounds, compared, scale.name
    )];
    notes.extend(failures.iter().take(10).cloned());
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        end_to_end,
        extra,
        per_layer,
        notes,
    })
}

/// Per-layer metrics from the traced run's spans.
fn layer_metrics(
    spans: &[SpanRec],
    out: &mut BTreeMap<&'static str, Metric>,
) -> Result<(), String> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut by_trace: BTreeMap<u64, BTreeMap<&str, f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.secs());
        by_trace
            .entry(s.trace)
            .or_default()
            .insert(s.name, s.secs());
    }
    let overhead: Vec<f64> = by_trace
        .values()
        .filter_map(|t| Some((t.get("server.exchange")? - t.get("security.handle")?) * 1e3))
        .collect();
    let take = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let med = |name: &str, scale: f64| -> Result<(f64, usize), String> {
        let v = take(name);
        median(&v)
            .map(|m| (m * scale, v.len()))
            .ok_or_else(|| format!("no {name} spans"))
    };
    let (v, n) = (median(&overhead).ok_or("no query spans")?, overhead.len());
    out.insert("server.overhead_ms", metric(v, "ms", n));
    let (v, n) = med("server.http_parse", 1e6)?;
    out.insert("server.http_parse_us", metric(v, "us", n));
    // Reads only (probes excluded), as in the end-to-end percentiles.
    let security: Vec<f64> = by_trace
        .values()
        .filter(|t| {
            t.keys()
                .any(|k| k.starts_with("query.eval.") && *k != "query.eval.probe")
        })
        .filter_map(|t| t.get("security.handle").map(|s| s * 1e3))
        .collect();
    let security = sorted(security);
    let n = security.len();
    let p50 = percentile(&security, 50.0).ok_or("too few security.handle spans")?;
    let p95 = percentile(&security, 95.0).ok_or("too few security.handle spans")?;
    out.insert("security.query_p50_ms", metric(p50, "ms", n));
    out.insert("security.query_p95_ms", metric(p95, "ms", n));
    let views = take("security.view_build");
    out.insert(
        "security.view_build_ms",
        metric(mean(&views) * 1e3, "ms", views.len()),
    );
    for (name, span, scale, unit) in [
        ("security.update_ms", "security.update", 1e3, "ms"),
        (
            "security.policy_check_us",
            "security.policy_check",
            1e6,
            "us",
        ),
        ("query.parse_us", "query.parse", 1e6, "us"),
        ("query.eval_point_ms", "query.eval.point", 1e3, "ms"),
        ("query.eval_join_ms", "query.eval.join", 1e3, "ms"),
        ("query.eval_window_ms", "query.eval.window", 1e3, "ms"),
        ("query.eval_dashboard_ms", "query.eval.dashboard", 1e3, "ms"),
        ("owl.fixpoint_ms", "owl.fixpoint", 1e3, "ms"),
        ("owl.delta_ms", "owl.delta", 1e3, "ms"),
        ("rdf.base_clone_ms", "rdf.base_clone", 1e3, "ms"),
        ("rdf.nt_parse_us", "rdf.nt_parse", 1e6, "us"),
        ("store.recover_ms", "store.recover", 1e3, "ms"),
        ("store.wal_append_us", "store.wal_append", 1e6, "us"),
        ("store.audit_append_us", "store.audit_append", 1e6, "us"),
    ] {
        let (v, n) = med(span, scale)?;
        out.insert(name, metric(v, unit, n));
    }
    Ok(())
}
