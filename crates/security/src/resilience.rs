//! Fault tolerance for the G-SACS service layer.
//!
//! The paper's Fig. 3 architecture assumes every component answers; this
//! module makes the service survive components that don't:
//!
//! * [`GsacsError`] — the unified, fail-closed error taxonomy. Every
//!   internal failure maps to a denied request plus an audit entry; no
//!   error path returns data.
//! * [`ResilientEngine`] — retry-with-backoff and a circuit breaker
//!   around the pluggable [`ReasoningEngine`](crate::gsacs::ReasoningEngine).
//!   After [`BreakerConfig::failure_threshold`] consecutive failures the
//!   breaker opens and the service degrades to un-inferred data with every
//!   deny-bearing role masked out; after [`BreakerConfig::cooldown`] a
//!   half-open trial may close it again.
//! * [`AdmissionGate`] — a bounded in-flight gate that sheds load with
//!   [`GsacsError::Overloaded`] instead of queueing without bound.
//! * [`LatencyHistogram`] — fixed log-bucket request latencies for the
//!   p50/p99 figures in [`HealthReport`].
//! * [`FaultPlan`] / [`FaultyEngine`] — a deterministic, seeded fault
//!   injection harness: per pipeline [`Stage`] the plan decides
//!   error/latency faults reproducibly, and latency is expressed through
//!   the injected [`Clock`] so deadline expiry is exercised without wall
//!   sleeps.
//!
//! All time flows through [`grdf_runtime::Clock`], so every behavior here
//! — backoff, cooldown, deadline expiry, latency percentiles — is testable
//! with a [`ManualClock`](grdf_runtime::ManualClock).

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use grdf_query::eval::QueryError;
use grdf_rdf::graph::Graph;
use grdf_runtime::{splitmix64, Budget, Clock, Deadline, SeedTree, SeededDecider};

use crate::gsacs::ReasoningEngine;

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// The pipeline stage a fault or deadline is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Admission control, before any work.
    Admission,
    /// Authorization: resolving the request's role against the labels.
    View,
    /// Query parse + evaluation.
    Query,
    /// Reasoner materialization.
    Reasoning,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Admission => "admission",
            Stage::View => "view",
            Stage::Query => "query",
            Stage::Reasoning => "reasoning",
        })
    }
}

/// Unified G-SACS service error. Fail-closed: every variant means the
/// request was denied and audited; none carries result data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GsacsError {
    /// The query text did not parse.
    Parse(String),
    /// The request's deadline budget was exhausted at `stage`.
    DeadlineExceeded {
        /// Where the budget ran out.
        stage: Stage,
    },
    /// Admission control shed the request.
    Overloaded {
        /// Requests in flight when this one arrived.
        in_flight: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The reasoning engine failed (and, when the breaker is open, keeps
    /// being assumed failed until cooldown).
    Engine(String),
    /// Any other internal failure — including injected faults.
    Internal(String),
    /// The lint gate rejected the service's graph/policy set: error-level
    /// diagnostics were found at `init` time with [`LintGate::Enforce`],
    /// and the service fails closed until the inputs are fixed.
    LintRejected(String),
}

impl fmt::Display for GsacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GsacsError::Parse(m) => write!(f, "query parse error: {m}"),
            GsacsError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded during {stage}")
            }
            GsacsError::Overloaded { in_flight, limit } => {
                write!(
                    f,
                    "overloaded: {in_flight} requests in flight (limit {limit})"
                )
            }
            GsacsError::Engine(m) => write!(f, "reasoning engine failure: {m}"),
            GsacsError::Internal(m) => write!(f, "internal error: {m}"),
            GsacsError::LintRejected(m) => write!(f, "lint gate rejected service inputs: {m}"),
        }
    }
}

impl std::error::Error for GsacsError {}

impl From<QueryError> for GsacsError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Parse(m) => GsacsError::Parse(m),
            QueryError::DeadlineExceeded => GsacsError::DeadlineExceeded {
                stage: Stage::Query,
            },
        }
    }
}

/// Failure of one reasoning-engine call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The request deadline expired inside materialization.
    DeadlineExceeded,
    /// The engine itself failed (crash, resource exhaustion, injected
    /// fault). The string is diagnostic only.
    Failed(String),
    /// The circuit breaker is open; the call was not attempted.
    CircuitOpen,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DeadlineExceeded => f.write_str("deadline exceeded"),
            EngineError::Failed(m) => write!(f, "engine failed: {m}"),
            EngineError::CircuitOpen => f.write_str("circuit breaker open"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<EngineError> for GsacsError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::DeadlineExceeded => GsacsError::DeadlineExceeded {
                stage: Stage::Reasoning,
            },
            other => GsacsError::Engine(other.to_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker + retry around the reasoning engine
// ---------------------------------------------------------------------------

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a half-open trial.
    pub cooldown: Duration,
    /// Successful half-open trials required to close again.
    pub half_open_successes: u32,
    /// Fraction of `cooldown` added as deterministic per-breaker jitter to
    /// each open period, in `[0, 1]`. With many tenants each owning a
    /// breaker, a shared-cause outage would otherwise trip them together
    /// and have them all probe the recovering engine in lockstep; jitter
    /// spreads the half-open trials across `cooldown * jitter`. `0.0`
    /// (the default) keeps the exact classic schedule.
    pub half_open_jitter: f64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(30),
            half_open_successes: 1,
            half_open_jitter: 0.0,
        }
    }
}

/// Retry tuning for one engine call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub max_attempts: u32,
    /// First backoff; doubles per retry. Slept on the injected clock, so
    /// manual-clock tests pay no wall time.
    pub backoff_base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            backoff_base: Duration::from_millis(25),
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy; calls pass through.
    Closed,
    /// Tripped; calls fail fast until cooldown elapses.
    Open,
    /// Cooldown elapsed; the next call is a trial.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

#[derive(Debug)]
struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    /// Clock time the breaker opened (meaningful while `Open`).
    opened_at: Duration,
    /// Jitter added to this open period's cooldown (recomputed per trip).
    cooldown_extra: Duration,
    half_open_successes: u32,
}

/// Retry + circuit breaker around a pluggable [`ReasoningEngine`].
///
/// The wrapper is itself an engine-shaped component, but it is *fallible
/// by contract*: when the breaker is open it fails fast with
/// [`EngineError::CircuitOpen`] instead of calling through, bounding the
/// damage a broken reasoner can do to request latency.
pub struct ResilientEngine {
    inner: Box<dyn ReasoningEngine>,
    clock: Arc<dyn Clock>,
    breaker: BreakerConfig,
    retry: RetryPolicy,
    core: Mutex<BreakerCore>,
    /// Seed for deterministic per-trip cooldown jitter; distinct per
    /// engine instance so co-tripping breakers desynchronize.
    jitter_seed: u64,
    /// Times the breaker tripped open.
    trips: AtomicU64,
    /// Total failed attempts (including retries).
    failed_attempts: AtomicU64,
}

impl ResilientEngine {
    /// Wrap `inner` with breaker + retry behavior on `clock`.
    pub fn new(
        inner: Box<dyn ReasoningEngine>,
        clock: Arc<dyn Clock>,
        breaker: BreakerConfig,
        retry: RetryPolicy,
    ) -> ResilientEngine {
        static NEXT_SEED: AtomicU64 = AtomicU64::new(1);
        ResilientEngine {
            inner,
            clock,
            breaker,
            retry,
            core: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Duration::ZERO,
                cooldown_extra: Duration::ZERO,
                half_open_successes: 0,
            }),
            jitter_seed: splitmix64(NEXT_SEED.fetch_add(1, Ordering::Relaxed)),
            trips: AtomicU64::new(0),
            failed_attempts: AtomicU64::new(0),
        }
    }

    /// Pin the jitter seed (tests; production instances draw distinct
    /// seeds automatically).
    #[must_use]
    pub fn with_jitter_seed(mut self, seed: u64) -> ResilientEngine {
        self.jitter_seed = seed;
        self
    }

    /// The wrapped engine's name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// Current breaker state, applying the open→half-open transition when
    /// the cooldown has elapsed.
    pub fn state(&self) -> BreakerState {
        let mut core = self.core.lock();
        if core.state == BreakerState::Open
            && self.clock.now() >= core.opened_at + self.breaker.cooldown + core.cooldown_extra
        {
            core.state = BreakerState::HalfOpen;
            core.half_open_successes = 0;
            grdf_obs::incr("breaker.half_open");
        }
        core.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Total failed engine attempts, retries included.
    pub fn failed_attempts(&self) -> u64 {
        self.failed_attempts.load(Ordering::Relaxed)
    }

    /// Materialize entailments of `graph` through the breaker. Failures
    /// are retried per [`RetryPolicy`] (except deadline expiry, which
    /// retrying cannot fix); the final failure is counted against the
    /// breaker.
    pub fn materialize(
        &self,
        graph: &mut Graph,
        deadline: &Deadline,
    ) -> Result<usize, EngineError> {
        self.drive(graph, deadline, |engine, g, d| engine.materialize(g, d))
    }

    /// Incremental counterpart of [`ResilientEngine::materialize`]: derive
    /// the consequences of triples inserted since `from_generation`, with
    /// the same breaker and retry behavior. Retrying is safe — the delta
    /// pass is idempotent over an additive graph.
    pub fn materialize_delta(
        &self,
        graph: &mut Graph,
        from_generation: u64,
        deadline: &Deadline,
    ) -> Result<usize, EngineError> {
        self.drive(graph, deadline, |engine, g, d| {
            engine.materialize_delta(g, from_generation, d)
        })
    }

    fn drive(
        &self,
        graph: &mut Graph,
        deadline: &Deadline,
        call: impl Fn(&dyn ReasoningEngine, &mut Graph, &Deadline) -> Result<usize, EngineError>,
    ) -> Result<usize, EngineError> {
        let state = self.state();
        if state == BreakerState::Open {
            return Err(EngineError::CircuitOpen);
        }
        // Half-open allows exactly one attempt; closed allows retries.
        let attempts = if state == BreakerState::HalfOpen {
            1
        } else {
            self.retry.max_attempts
        };
        let mut last = EngineError::Failed("no attempt made".to_string());
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                let backoff = self.retry.backoff_base * 2u32.saturating_pow(attempt - 1);
                // Observable retry storms: lifetime counters plus the
                // windowed series the sim's bounded-backoff oracle (and
                // burn-rate alerting) read.
                grdf_obs::incr("resilience.retries");
                grdf_obs::win_add(
                    "resilience.backoff_ms",
                    u64::try_from(backoff.as_millis()).unwrap_or(u64::MAX),
                );
                self.clock.sleep(backoff);
                if deadline.expired() {
                    last = EngineError::DeadlineExceeded;
                    break;
                }
            }
            match call(self.inner.as_ref(), graph, deadline) {
                Ok(n) => {
                    self.record_success();
                    return Ok(n);
                }
                Err(e) => {
                    self.failed_attempts.fetch_add(1, Ordering::Relaxed);
                    let fatal = e == EngineError::DeadlineExceeded;
                    last = e;
                    if fatal {
                        break;
                    }
                }
            }
        }
        self.record_failure();
        Err(last)
    }

    fn record_success(&self) {
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed => core.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                core.half_open_successes += 1;
                if core.half_open_successes >= self.breaker.half_open_successes {
                    core.state = BreakerState::Closed;
                    core.consecutive_failures = 0;
                    grdf_obs::incr("breaker.closed");
                }
            }
            // A success can't be observed while open (no call went out).
            BreakerState::Open => {}
        }
    }

    fn record_failure(&self) {
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed => {
                core.consecutive_failures += 1;
                if core.consecutive_failures >= self.breaker.failure_threshold {
                    self.open(&mut core);
                }
            }
            // Failed trial: re-open for another cooldown.
            BreakerState::HalfOpen => self.open(&mut core),
            BreakerState::Open => {}
        }
    }

    /// Trip to `Open`, scheduling this period's half-open probe with
    /// deterministic jitter: a pure function of `(jitter_seed, trip #)`,
    /// so replays are exact while distinct breakers (and successive trips
    /// of one breaker) spread their probes apart.
    fn open(&self, core: &mut BreakerCore) {
        core.state = BreakerState::Open;
        core.opened_at = self.clock.now();
        let trip = self.trips.fetch_add(1, Ordering::Relaxed);
        let jitter = self.breaker.half_open_jitter.clamp(0.0, 1.0);
        core.cooldown_extra = if jitter > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            let unit = splitmix64(self.jitter_seed ^ trip) as f64 / u64::MAX as f64;
            self.breaker.cooldown.mul_f64(jitter * unit)
        } else {
            Duration::ZERO
        };
        grdf_obs::incr("breaker.opened");
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Bounded in-flight request gate. A limit of 0 means unbounded.
#[derive(Debug, Default)]
pub struct AdmissionGate {
    limit: usize,
    in_flight: AtomicUsize,
    shed: AtomicU64,
}

impl AdmissionGate {
    /// Gate admitting at most `limit` concurrent requests (0 = unbounded).
    pub fn new(limit: usize) -> AdmissionGate {
        AdmissionGate {
            limit,
            in_flight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Try to admit a request; the permit releases its slot on drop.
    pub fn try_acquire(&self) -> Result<Permit<'_>, GsacsError> {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if self.limit > 0 && prev >= self.limit {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            grdf_obs::incr("admission.shed");
            return Err(GsacsError::Overloaded {
                in_flight: prev,
                limit: self.limit,
            });
        }
        Ok(Permit { gate: self })
    }

    /// Requests currently admitted.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Requests shed so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// RAII admission slot.
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Fixed log₂-bucket latency histogram with lock-free recording, in
/// microsecond units over [`grdf_obs::LogHistogram`].
///
/// Quantiles are interpolated within the bucket holding the target rank
/// and clamped to the largest recorded sample. (The PR 1 version returned
/// the bucket *upper* bound, overstating p50/p99 by up to 2×.)
#[derive(Default)]
pub struct LatencyHistogram {
    core: grdf_obs::LogHistogram,
}

impl LatencyHistogram {
    /// Record one request latency.
    pub fn record(&self, latency: Duration) {
        self.core
            .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.core.count()
    }

    /// Approximate quantile (`0.0..=1.0`), interpolated within the log₂
    /// bucket holding the target rank and clamped to the recorded
    /// maximum; zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_micros(self.core.quantile(q))
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Health reporting
// ---------------------------------------------------------------------------

/// A point-in-time health snapshot of a [`GSacs`](crate::gsacs::GSacs)
/// service.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Name of the plugged-in reasoning engine.
    pub reasoner: &'static str,
    /// Circuit-breaker state.
    pub breaker: BreakerState,
    /// Times the breaker has tripped.
    pub breaker_trips: u64,
    /// Whether the service is serving un-inferred data with deny-bearing
    /// roles masked out.
    pub degraded: bool,
    /// Requests handled (admitted or shed).
    pub requests: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests currently in flight.
    pub in_flight: usize,
    /// Query-cache hits.
    pub cache_hits: u64,
    /// Query-cache misses.
    pub cache_misses: u64,
    /// Query-cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Diagnostic role views (`GSacs::view_for`) memoized for the current
    /// epoch.
    pub view_cache_entries: usize,
    /// Audit entries currently retained.
    pub audit_entries: usize,
    /// Audit entries dropped by the ring buffer.
    pub audit_dropped: u64,
    /// Median request latency (interpolated within the log₂ bucket).
    pub p50: Duration,
    /// 99th-percentile request latency (interpolated within the log₂
    /// bucket).
    pub p99: Duration,
    /// Declared SLOs evaluated at snapshot time (empty when no
    /// objectives are configured or the obs handle has no window store).
    pub slo: Vec<grdf_obs::SloStatus>,
}

impl HealthReport {
    /// Whether any declared objective is currently burning its error
    /// budget on both alert windows.
    pub fn slo_burning(&self) -> bool {
        self.slo
            .iter()
            .any(|s| s.state == grdf_obs::SloState::Burning)
    }

    /// Multi-line human-readable rendering (used by `grdf-cli health`).
    pub fn render(&self) -> String {
        let mut out = format!(
            "reasoner:        {}\n\
             breaker:         {} (trips: {})\n\
             degraded:        {}\n\
             requests:        {} ({} shed, {} in flight)\n\
             query cache:     {} hits / {} misses ({:.1}% hit rate)\n\
             view cache:      {} entries\n\
             audit log:       {} entries ({} dropped)\n\
             latency:         p50 ≤ {:?}, p99 ≤ {:?}",
            self.reasoner,
            self.breaker,
            self.breaker_trips,
            if self.degraded {
                "YES — serving un-inferred data, deny-bearing roles masked"
            } else {
                "no"
            },
            self.requests,
            self.shed,
            self.in_flight,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate * 100.0,
            self.view_cache_entries,
            self.audit_entries,
            self.audit_dropped,
            self.p50,
            self.p99,
        );
        for s in &self.slo {
            out.push_str("\nslo:             ");
            out.push_str(&s.render_line());
        }
        out
    }

    /// Machine-readable JSON rendering, shared by `grdf-cli health --json`
    /// and the server's `/health` endpoint. Latencies are integer
    /// microseconds; field order is stable for external probes.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"reasoner\": \"{}\",\n  \"breaker\": \"{}\",\n  \"breaker_trips\": {},\n  \
             \"degraded\": {},\n  \"requests\": {},\n  \"shed\": {},\n  \"in_flight\": {},\n  \
             \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"cache_hit_rate\": {:.4},\n  \
             \"view_cache_entries\": {},\n  \"audit_entries\": {},\n  \"audit_dropped\": {},\n  \
             \"p50_us\": {},\n  \"p99_us\": {},\n  \"slo\": {}\n}}",
            self.reasoner,
            self.breaker,
            self.breaker_trips,
            self.degraded,
            self.requests,
            self.shed,
            self.in_flight,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate,
            self.view_cache_entries,
            self.audit_entries,
            self.audit_dropped,
            self.p50.as_micros(),
            self.p99.as_micros(),
            grdf_obs::statuses_json(&self.slo),
        )
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The stage fails with an error.
    Error,
    /// The stage stalls for the given duration (advanced on the injected
    /// clock, so deadlines fire without wall time passing).
    Latency(Duration),
}

/// A hook that may fail or stall a pipeline stage. The default
/// implementation injects nothing.
pub trait FaultInjector: Send + Sync {
    /// Called before `stage` runs; an `Err` aborts the request.
    fn inject(&self, stage: Stage, clock: &dyn Clock) -> Result<(), GsacsError>;
}

/// An injector that never injects (useful as an explicit default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn inject(&self, _stage: Stage, _clock: &dyn Clock) -> Result<(), GsacsError> {
        Ok(())
    }
}

/// Deterministic, seeded fault plan. The decision for call `n` at a stage
/// is a pure function of `(seed, stage, n)` via the workspace-shared
/// [`SeededDecider`] — the same primitive behind storage fault injection
/// and the socket chaos client, so one [`SeedTree`] lane drives them all.
#[derive(Debug)]
pub struct FaultPlan {
    decider: SeededDecider,
    /// Probability a call errors.
    error_rate: f64,
    /// Probability a call stalls (checked after the error draw).
    latency_rate: f64,
    /// Stall duration for latency faults.
    latency: Duration,
    /// Per-stage call sequence numbers.
    seq: Mutex<[u64; 4]>,
    /// Faults actually injected, per kind.
    injected_errors: AtomicU64,
    injected_stalls: AtomicU64,
}

impl FaultPlan {
    /// A plan injecting errors and stalls at the given rates.
    pub fn new(seed: u64, error_rate: f64, latency_rate: f64, latency: Duration) -> FaultPlan {
        FaultPlan {
            decider: SeededDecider::new(seed),
            error_rate: error_rate.clamp(0.0, 1.0),
            latency_rate: latency_rate.clamp(0.0, 1.0),
            latency,
            seq: Mutex::new([0; 4]),
            injected_errors: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
        }
    }

    /// A plan drawing from a [`SeedTree`] lane (hierarchical master-seed
    /// derivation — see `grdf_runtime::SeedTree`).
    pub fn from_tree(
        tree: &SeedTree,
        error_rate: f64,
        latency_rate: f64,
        latency: Duration,
    ) -> FaultPlan {
        FaultPlan::new(tree.seed(), error_rate, latency_rate, latency)
    }

    /// The seed this plan replays from.
    pub fn seed(&self) -> u64 {
        self.decider.seed()
    }

    fn stage_index(stage: Stage) -> usize {
        match stage {
            Stage::Admission => 0,
            Stage::View => 1,
            Stage::Query => 2,
            Stage::Reasoning => 3,
        }
    }

    fn stage_lane(stage: Stage) -> &'static str {
        match stage {
            Stage::Admission => "fault.admission",
            Stage::View => "fault.view",
            Stage::Query => "fault.query",
            Stage::Reasoning => "fault.reasoning",
        }
    }

    /// The fault (if any) for the next call at `stage`. Consumes one
    /// sequence number per call.
    pub fn decide(&self, stage: Stage) -> Option<FaultKind> {
        let idx = Self::stage_index(stage);
        let n = {
            let mut seq = self.seq.lock();
            let n = seq[idx];
            seq[idx] += 1;
            n
        };
        let word = self.decider.draw(Self::stage_lane(stage), n);
        let draw = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if draw < self.error_rate {
            self.injected_errors.fetch_add(1, Ordering::Relaxed);
            Some(FaultKind::Error)
        } else if draw < self.error_rate + self.latency_rate {
            self.injected_stalls.fetch_add(1, Ordering::Relaxed);
            Some(FaultKind::Latency(self.latency))
        } else {
            None
        }
    }

    /// `(errors, stalls)` injected so far.
    pub fn injected(&self) -> (u64, u64) {
        (
            self.injected_errors.load(Ordering::Relaxed),
            self.injected_stalls.load(Ordering::Relaxed),
        )
    }
}

impl FaultInjector for FaultPlan {
    fn inject(&self, stage: Stage, clock: &dyn Clock) -> Result<(), GsacsError> {
        match self.decide(stage) {
            None => Ok(()),
            Some(FaultKind::Latency(d)) => {
                drop(
                    grdf_obs::span("fault.injected")
                        .tag("kind", "stall")
                        .tag("stage", stage),
                );
                grdf_obs::incr("faults.injected");
                clock.sleep(d);
                Ok(())
            }
            Some(FaultKind::Error) => {
                drop(
                    grdf_obs::span("fault.injected")
                        .tag("kind", "error")
                        .tag("stage", stage),
                );
                grdf_obs::incr("faults.injected");
                Err(GsacsError::Internal(format!(
                    "injected fault at {stage} stage"
                )))
            }
        }
    }
}

/// A [`ReasoningEngine`] wrapper that injects faults from a [`FaultPlan`]
/// before delegating — the engine-side half of the harness.
pub struct FaultyEngine {
    inner: Box<dyn ReasoningEngine>,
    plan: Arc<FaultPlan>,
    clock: Arc<dyn Clock>,
}

impl FaultyEngine {
    /// Wrap `inner`, consulting `plan` on every materialization.
    pub fn new(
        inner: Box<dyn ReasoningEngine>,
        plan: Arc<FaultPlan>,
        clock: Arc<dyn Clock>,
    ) -> FaultyEngine {
        FaultyEngine { inner, plan, clock }
    }
}

impl ReasoningEngine for FaultyEngine {
    fn materialize(&self, graph: &mut Graph, deadline: &Deadline) -> Result<usize, EngineError> {
        match self.plan.decide(Stage::Reasoning) {
            Some(FaultKind::Error) => {
                // Mark the injected fault in the trace so degraded-mode
                // requests are visibly attributable to it.
                drop(
                    grdf_obs::span("fault.injected")
                        .tag("kind", "error")
                        .tag("stage", Stage::Reasoning),
                );
                grdf_obs::incr("faults.injected");
                return Err(EngineError::Failed("injected reasoner fault".to_string()));
            }
            Some(FaultKind::Latency(d)) => {
                drop(
                    grdf_obs::span("fault.injected")
                        .tag("kind", "stall")
                        .tag("stage", Stage::Reasoning),
                );
                grdf_obs::incr("faults.injected");
                self.clock.sleep(d);
                if deadline.expired() {
                    return Err(EngineError::DeadlineExceeded);
                }
            }
            None => {}
        }
        self.inner.materialize(graph, deadline)
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

// ---------------------------------------------------------------------------
// Service-level resilience configuration
// ---------------------------------------------------------------------------

/// Whether (and how hard) G-SACS runs the static-analysis policy passes
/// over its inputs at `init` and `update` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintGate {
    /// No linting (the historical behavior).
    #[default]
    Off,
    /// Lint and record findings (audit entry + metrics), but serve anyway.
    Flag,
    /// Lint and fail closed on error-level findings: `init` rejects the
    /// service (every request returns [`GsacsError::LintRejected`]) and
    /// updates that would introduce error-level findings are denied.
    Enforce,
}

/// Whether G-SACS state survives a process crash.
///
/// `Ephemeral` is the historical in-memory behavior. `Wal` mounts a
/// [`DurableStore`]: every accepted update batch is appended to the
/// write-ahead log *before* any in-memory mutation, checkpoints rotate by
/// WAL-size threshold, and audit entries stream to the store's JSONL sink.
/// Recover a crashed service with
/// [`GSacs::recover_with_resilience`](crate::gsacs::GSacs::recover_with_resilience).
#[derive(Clone, Default)]
pub enum Durability {
    /// In-memory only; a crash loses graph, policies, and audit trail.
    #[default]
    Ephemeral,
    /// Write-ahead durability through the given store.
    Wal(Arc<grdf_store::DurableStore>),
}

impl fmt::Debug for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Durability::Ephemeral => write!(f, "Ephemeral"),
            Durability::Wal(store) => write!(f, "Wal(run_id={})", store.run_id()),
        }
    }
}

/// Resilience knobs for a [`GSacs`](crate::gsacs::GSacs) instance.
#[derive(Clone)]
pub struct ResilienceConfig {
    /// Time source for deadlines, backoff, and cooldowns.
    pub clock: Arc<dyn Clock>,
    /// Per-request budget; unlimited by default.
    pub request_budget: Budget,
    /// Circuit-breaker tuning for the reasoning engine.
    pub breaker: BreakerConfig,
    /// Retry tuning for the reasoning engine.
    pub retry: RetryPolicy,
    /// Maximum concurrent requests (0 = unbounded).
    pub max_in_flight: usize,
    /// Audit-log ring-buffer capacity (0 = unbounded, discouraged).
    pub audit_capacity: usize,
    /// Optional fault-injection hook (tests only).
    pub fault_injector: Option<Arc<dyn FaultInjector>>,
    /// Observability handle: the metrics registry every pipeline stage
    /// records into, and the trace sink request spans flush to (disabled
    /// by default — enable with [`grdf_obs::Obs::with_tracing`]).
    pub obs: grdf_obs::Obs,
    /// Static-analysis gate over policies + data at `init`/`update` time.
    pub lint_gate: LintGate,
    /// Crash durability: [`Durability::Ephemeral`] (default) or a mounted
    /// write-ahead store.
    pub durability: Durability,
    /// Declared service-level objectives, evaluated against the obs
    /// handle's window store on every [`HealthReport`] snapshot (no-ops
    /// when `obs` has no windows configured).
    pub slos: Vec<grdf_obs::Objective>,
    /// Hierarchical seed lane for every randomized decision this service
    /// makes (breaker half-open jitter today). `None` (the default) keeps
    /// the historical behavior — a process-global counter desynchronizes
    /// co-created instances — while a simulated world pins a lane so the
    /// whole run replays bit-identically from one master seed.
    pub seeds: Option<SeedTree>,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            clock: grdf_runtime::system_clock(),
            request_budget: Budget::UNLIMITED,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            max_in_flight: 1024,
            audit_capacity: 65_536,
            fault_injector: None,
            obs: grdf_obs::Obs::new(),
            lint_gate: LintGate::default(),
            durability: Durability::default(),
            slos: Vec::new(),
            seeds: None,
        }
    }
}

impl fmt::Debug for ResilienceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilienceConfig")
            .field("request_budget", &self.request_budget)
            .field("breaker", &self.breaker)
            .field("retry", &self.retry)
            .field("max_in_flight", &self.max_in_flight)
            .field("audit_capacity", &self.audit_capacity)
            .field("fault_injector", &self.fault_injector.is_some())
            .field("tracing", &self.obs.tracing_enabled())
            .field("durability", &self.durability)
            .field("slos", &self.slos.len())
            .field("seeds", &self.seeds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsacs::NoReasoning;
    use grdf_runtime::ManualClock;

    /// An engine that fails a configurable number of times, then succeeds.
    struct FlakyEngine {
        failures_left: Mutex<u32>,
    }

    impl ReasoningEngine for FlakyEngine {
        fn materialize(
            &self,
            _graph: &mut Graph,
            _deadline: &Deadline,
        ) -> Result<usize, EngineError> {
            let mut left = self.failures_left.lock();
            if *left > 0 {
                *left -= 1;
                Err(EngineError::Failed("flaky".to_string()))
            } else {
                Ok(7)
            }
        }

        fn name(&self) -> &'static str {
            "flaky"
        }
    }

    fn resilient(failures: u32, clock: Arc<ManualClock>) -> ResilientEngine {
        ResilientEngine::new(
            Box::new(FlakyEngine {
                failures_left: Mutex::new(failures),
            }),
            clock,
            BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(10),
                half_open_successes: 1,
                half_open_jitter: 0.0,
            },
            RetryPolicy {
                max_attempts: 1,
                backoff_base: Duration::from_millis(10),
            },
        )
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_after_cooldown() {
        let clock = Arc::new(ManualClock::new());
        let engine = resilient(2, clock.clone());
        let mut g = Graph::new();
        let d = Deadline::never();

        // Two failures trip the breaker (threshold 2).
        assert!(engine.materialize(&mut g, &d).is_err());
        assert_eq!(engine.state(), BreakerState::Closed);
        assert!(engine.materialize(&mut g, &d).is_err());
        assert_eq!(engine.state(), BreakerState::Open);
        assert_eq!(engine.trips(), 1);

        // While open: fail fast without touching the engine.
        assert_eq!(
            engine.materialize(&mut g, &d),
            Err(EngineError::CircuitOpen)
        );

        // Cooldown elapses → half-open → successful trial closes it.
        clock.advance(Duration::from_secs(10));
        assert_eq!(engine.state(), BreakerState::HalfOpen);
        assert_eq!(engine.materialize(&mut g, &d), Ok(7));
        assert_eq!(engine.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_half_open_trial_reopens() {
        let clock = Arc::new(ManualClock::new());
        let engine = resilient(3, clock.clone());
        let mut g = Graph::new();
        let d = Deadline::never();
        assert!(engine.materialize(&mut g, &d).is_err());
        assert!(engine.materialize(&mut g, &d).is_err());
        assert_eq!(engine.state(), BreakerState::Open);
        clock.advance(Duration::from_secs(10));
        // Trial fails (third configured failure) → open again.
        assert!(engine.materialize(&mut g, &d).is_err());
        assert_eq!(engine.state(), BreakerState::Open);
        assert_eq!(engine.trips(), 2);
        // Second cooldown → trial succeeds.
        clock.advance(Duration::from_secs(10));
        assert_eq!(engine.materialize(&mut g, &d), Ok(7));
        assert_eq!(engine.state(), BreakerState::Closed);
    }

    #[test]
    fn jitter_spreads_lockstep_half_open_probes() {
        // Eight tenants' breakers trip on the same shared-cause failure at
        // t=0; with 50% jitter their half-open probes must not land on one
        // instant, or the recovering engine takes the whole herd at once.
        let clock = Arc::new(ManualClock::new());
        let cooldown = Duration::from_secs(10);
        let engines: Vec<ResilientEngine> = (0..8u64)
            .map(|i| {
                ResilientEngine::new(
                    Box::new(FlakyEngine {
                        failures_left: Mutex::new(u32::MAX),
                    }),
                    clock.clone(),
                    BreakerConfig {
                        failure_threshold: 1,
                        cooldown,
                        half_open_successes: 1,
                        half_open_jitter: 0.5,
                    },
                    RetryPolicy {
                        max_attempts: 1,
                        backoff_base: Duration::from_millis(10),
                    },
                )
                .with_jitter_seed(i)
            })
            .collect();
        let mut g = Graph::new();
        let d = Deadline::never();
        for e in &engines {
            assert!(e.materialize(&mut g, &d).is_err());
            assert_eq!(e.state(), BreakerState::Open);
        }

        // Walk time forward and record each breaker's probe instant.
        let mut probe_at: Vec<Option<Duration>> = vec![None; engines.len()];
        let step = Duration::from_millis(100);
        while clock.now() < cooldown + cooldown / 2 + step {
            clock.advance(step);
            for (e, slot) in engines.iter().zip(probe_at.iter_mut()) {
                if slot.is_none() && e.state() == BreakerState::HalfOpen {
                    *slot = Some(clock.now());
                }
            }
        }

        let times: Vec<Duration> = probe_at.into_iter().map(Option::unwrap).collect();
        for &t in &times {
            assert!(t >= cooldown, "probe before base cooldown: {t:?}");
            assert!(
                t <= cooldown + cooldown / 2 + step,
                "probe past max jitter: {t:?}"
            );
        }
        let distinct: std::collections::BTreeSet<Duration> = times.iter().copied().collect();
        assert!(
            distinct.len() >= 4,
            "probes still in lockstep: {distinct:?}"
        );
    }

    #[test]
    fn zero_jitter_keeps_the_exact_cooldown_schedule() {
        let clock = Arc::new(ManualClock::new());
        let engine = resilient(u32::MAX, clock.clone()).with_jitter_seed(42);
        let mut g = Graph::new();
        let d = Deadline::never();
        assert!(engine.materialize(&mut g, &d).is_err());
        assert!(engine.materialize(&mut g, &d).is_err());
        assert_eq!(engine.state(), BreakerState::Open);
        clock.advance(Duration::from_secs(10) - Duration::from_nanos(1));
        assert_eq!(engine.state(), BreakerState::Open);
        clock.advance(Duration::from_nanos(1));
        assert_eq!(engine.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn retries_succeed_within_one_call_and_backoff_uses_clock() {
        let clock = Arc::new(ManualClock::new());
        let engine = ResilientEngine::new(
            Box::new(FlakyEngine {
                failures_left: Mutex::new(2),
            }),
            clock.clone(),
            BreakerConfig::default(),
            RetryPolicy {
                max_attempts: 3,
                backoff_base: Duration::from_millis(10),
            },
        );
        let mut g = Graph::new();
        assert_eq!(engine.materialize(&mut g, &Deadline::never()), Ok(7));
        // Two retries: 10ms + 20ms of backoff on the manual clock.
        assert_eq!(clock.now(), Duration::from_millis(30));
        assert_eq!(engine.failed_attempts(), 2);
        assert_eq!(engine.state(), BreakerState::Closed);
    }

    #[test]
    fn deadline_expiry_is_not_retried() {
        struct DeadlineEater;
        impl ReasoningEngine for DeadlineEater {
            fn materialize(&self, _g: &mut Graph, _d: &Deadline) -> Result<usize, EngineError> {
                Err(EngineError::DeadlineExceeded)
            }
            fn name(&self) -> &'static str {
                "eater"
            }
        }
        let clock = Arc::new(ManualClock::new());
        let engine = ResilientEngine::new(
            Box::new(DeadlineEater),
            clock.clone(),
            BreakerConfig::default(),
            RetryPolicy {
                max_attempts: 5,
                backoff_base: Duration::from_millis(10),
            },
        );
        let mut g = Graph::new();
        assert_eq!(
            engine.materialize(&mut g, &Deadline::never()),
            Err(EngineError::DeadlineExceeded)
        );
        assert_eq!(
            engine.failed_attempts(),
            1,
            "no retry after deadline expiry"
        );
        assert_eq!(clock.now(), Duration::ZERO, "no backoff slept");
    }

    #[test]
    fn admission_gate_sheds_beyond_limit() {
        let gate = AdmissionGate::new(2);
        let p1 = gate.try_acquire().unwrap();
        let _p2 = gate.try_acquire().unwrap();
        assert!(matches!(
            gate.try_acquire(),
            Err(GsacsError::Overloaded {
                in_flight: 2,
                limit: 2
            })
        ));
        assert_eq!(gate.shed_total(), 1);
        drop(p1);
        assert!(gate.try_acquire().is_ok());
        assert_eq!(gate.in_flight(), 1, "permits release on drop");
    }

    #[test]
    fn unbounded_gate_never_sheds() {
        let gate = AdmissionGate::new(0);
        let permits: Vec<_> = (0..100).map(|_| gate.try_acquire().unwrap()).collect();
        assert_eq!(gate.in_flight(), 100);
        assert_eq!(gate.shed_total(), 0);
        drop(permits);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(500));
        assert_eq!(h.count(), 100);
        assert!(h.quantile(0.5) <= Duration::from_micros(256));
        assert!(h.quantile(0.99) >= Duration::from_micros(100));
        assert!(h.quantile(1.0) >= Duration::from_millis(500));
    }

    /// Pin exact interpolated quantiles on a known distribution: the old
    /// upper-bound quantile would report 1024 µs / 4096 µs here.
    #[test]
    fn histogram_quantiles_interpolate_within_bucket() {
        let h = LatencyHistogram::default();
        for _ in 0..50 {
            h.record(Duration::from_millis(1)); // bucket [512, 1024)
        }
        for _ in 0..50 {
            h.record(Duration::from_millis(4)); // bucket [2048, 4096)
        }
        // Rank 50 is the last of the 50 samples in [512, 1024): the
        // interpolated estimate is the bucket upper bound, well under the
        // old report's next-power-of-two for the 4 ms tail.
        assert_eq!(h.quantile(0.5), Duration::from_micros(1024));
        // Rank 99 → 49/50 through [2048, 4096): 2048 + 0.98·2048 ≈ 4055,
        // clamped to the recorded maximum of 4000.
        assert_eq!(h.quantile(0.99), Duration::from_millis(4));
        assert_eq!(h.quantile(1.0), Duration::from_millis(4));
        // Empty histogram stays at zero.
        assert_eq!(LatencyHistogram::default().quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let a = FaultPlan::new(42, 0.3, 0.2, Duration::from_millis(5));
        let b = FaultPlan::new(42, 0.3, 0.2, Duration::from_millis(5));
        for _ in 0..200 {
            assert_eq!(a.decide(Stage::Query), b.decide(Stage::Query));
            assert_eq!(a.decide(Stage::Reasoning), b.decide(Stage::Reasoning));
        }
        let c = FaultPlan::new(43, 0.3, 0.2, Duration::from_millis(5));
        let differs = (0..200).any(|_| {
            let x = FaultPlan::new(42, 0.3, 0.2, Duration::from_millis(5));
            let _ = x;
            a.decide(Stage::View) != c.decide(Stage::View)
        });
        assert!(differs, "different seeds must produce different plans");
    }

    #[test]
    fn faulty_engine_latency_consumes_deadline() {
        let clock = Arc::new(ManualClock::new());
        let plan = Arc::new(FaultPlan::new(7, 0.0, 1.0, Duration::from_millis(100)));
        let engine = FaultyEngine::new(Box::new(NoReasoning), plan, clock.clone());
        let mut g = Graph::new();
        let d = Deadline::armed(clock.clone(), Budget::with_time(Duration::from_millis(50)));
        assert_eq!(
            engine.materialize(&mut g, &d),
            Err(EngineError::DeadlineExceeded)
        );
        assert_eq!(
            clock.now(),
            Duration::from_millis(100),
            "stall advanced the clock"
        );
    }
}
