//! G-SACS — the Geospatial Security Access Control System of Fig. 3.
//!
//! "G-SACS provides the front-end interface to accept client requests and
//! respond back. This module only defines communication points and hides
//! the internal details of the system from clients." Behind the front-end
//! sit the decision engine (policy evaluation + view filtering), a query
//! cache ("having a caching mechanism that stores the queries and
//! corresponding answers would provide a significant performance boost"),
//! a plug-and-play reasoning engine ("any OWL reasoning engine could be
//! plugged into the system"), and the ontology repository ("a database of
//! ontologies needed to perform the reasoning; GRDF would reside in this
//! repository").
//!
//! The service is fail-closed (see [`crate::resilience`]): every request
//! outcome — success, parse error, deadline expiry, load shed — is
//! audited, internal failures deny rather than leak, the reasoning engine
//! sits behind a circuit breaker, and when it is unavailable the service
//! degrades to serving un-inferred data, masking out every role an
//! effective deny applies to.
//!
//! Enforcement happens inside the query scan: the service keeps one
//! compiled label table over the served dataset ([`LabelIr`]), resolves a
//! request's role to its authorization set once, and evaluates the query
//! over the whole dataset with every triple read tested against that set.
//! No request or update builds a per-role copy of the data.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use grdf_obs::{Counter, Obs, TraceId};
use grdf_owl::reasoner::Reasoner;
use grdf_query::eval::{execute_masked, QueryResult};
use grdf_rdf::diagnostic::{LintReport, Severity};
use grdf_rdf::graph::Graph;
use grdf_rdf::labels::VisBitset;
use grdf_runtime::{Budget, Deadline};
use grdf_store::{DurableStore, LoggedOp, Recovered, StorageBackend, StoreConfig, StoreError};
use std::time::Duration;

use crate::labels::LabelIr;
use crate::policy::{Decision, DecisionTrace, Policy, PolicySet};
use crate::resilience::{
    AdmissionGate, Durability, EngineError, GsacsError, HealthReport, LatencyHistogram, LintGate,
    ResilienceConfig, ResilientEngine, Stage,
};
use crate::views::secure_view_explained;

/// The pluggable reasoning component (Fig. 3 "Reasoning engine").
///
/// Fallible by contract: a real engine can crash, run out of resources, or
/// blow the request deadline, and the service must fail closed rather than
/// trust its output.
pub trait ReasoningEngine: Send + Sync {
    /// Materialize entailments into the graph, polling `deadline`
    /// cooperatively; returns the number of inferred triples.
    fn materialize(&self, graph: &mut Graph, deadline: &Deadline) -> Result<usize, EngineError>;

    /// Derive the consequences of just the triples inserted since
    /// `from_generation` (a [`Graph::generation`] marker taken when the
    /// graph was last fully materialized). Only sound for purely-additive
    /// changes. The default falls back to a full materialization, which
    /// is always correct on an already-materialized graph — engines with
    /// a real delta mode override it.
    fn materialize_delta(
        &self,
        graph: &mut Graph,
        from_generation: u64,
        deadline: &Deadline,
    ) -> Result<usize, EngineError> {
        let _ = from_generation;
        self.materialize(graph, deadline)
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// The built-in OWL-Horst reasoner.
#[derive(Debug, Default)]
pub struct OwlHorstEngine {
    reasoner: Reasoner,
}

impl OwlHorstEngine {
    /// Engine with a custom reasoner configuration.
    pub fn with(reasoner: Reasoner) -> OwlHorstEngine {
        OwlHorstEngine { reasoner }
    }
}

impl ReasoningEngine for OwlHorstEngine {
    fn materialize(&self, graph: &mut Graph, deadline: &Deadline) -> Result<usize, EngineError> {
        self.reasoner
            .materialize_with_deadline(graph, deadline)
            .map(|stats| stats.inferred)
            .map_err(|_| EngineError::DeadlineExceeded)
    }

    fn materialize_delta(
        &self,
        graph: &mut Graph,
        from_generation: u64,
        deadline: &Deadline,
    ) -> Result<usize, EngineError> {
        self.reasoner
            .materialize_delta(graph, from_generation, deadline)
            .map(|stats| stats.inferred)
            .map_err(|_| EngineError::DeadlineExceeded)
    }

    fn name(&self) -> &'static str {
        "owl-horst"
    }
}

/// A no-op engine — the "reasoning off" ablation arm.
#[derive(Debug, Default)]
pub struct NoReasoning;

impl ReasoningEngine for NoReasoning {
    fn materialize(&self, _graph: &mut Graph, _deadline: &Deadline) -> Result<usize, EngineError> {
        Ok(0)
    }

    fn materialize_delta(
        &self,
        _graph: &mut Graph,
        _from_generation: u64,
        _deadline: &Deadline,
    ) -> Result<usize, EngineError> {
        Ok(0)
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// The ontology repository: named ontology graphs (GRDF itself, the
/// security ontology, domain ontologies).
#[derive(Debug, Default)]
pub struct OntoRepository {
    ontologies: HashMap<String, Graph>,
}

impl OntoRepository {
    /// Empty repository.
    pub fn new() -> OntoRepository {
        OntoRepository::default()
    }

    /// Store (or replace) an ontology under a name.
    pub fn register(&mut self, name: &str, ontology: Graph) {
        self.ontologies.insert(name.to_string(), ontology);
    }

    /// Fetch an ontology by name.
    pub fn get(&self, name: &str) -> Option<&Graph> {
        self.ontologies.get(name)
    }

    /// Names in the repository.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.ontologies.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Merge every registered ontology into one graph.
    pub fn merged(&self) -> Graph {
        let mut g = Graph::new();
        for onto in self.ontologies.values() {
            g.extend_from(onto);
        }
        g
    }
}

/// Sentinel index for the LRU list's nil link.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct CacheNode {
    key: (String, String),
    value: QueryResult,
    prev: usize,
    next: usize,
}

/// LRU query cache (Fig. 3 "Query Cache").
///
/// The recency list is an intrusive doubly-linked list over a slab, so
/// `get`/`put` are O(1) — a hot cache no longer pays an O(n) scan per
/// touch.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    map: HashMap<(String, String), usize>,
    nodes: Vec<Option<CacheNode>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used (eviction end).
    tail: usize,
    hits: u64,
    misses: u64,
    lookups: u64,
}

impl QueryCache {
    /// Cache with the given capacity (0 disables caching).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity,
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            lookups: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.nodes[idx].as_ref().expect("linked node present");
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].as_mut().expect("prev node present").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].as_mut().expect("next node present").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let n = self.nodes[idx].as_mut().expect("node present");
            n.prev = NIL;
            n.next = self.head;
        }
        match self.head {
            NIL => self.tail = idx,
            h => self.nodes[h].as_mut().expect("head node present").prev = idx,
        }
        self.head = idx;
    }

    /// Look up a cached result.
    pub fn get(&mut self, role: &str, query: &str) -> Option<QueryResult> {
        self.lookups += 1;
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        let key = (role.to_string(), query.to_string());
        if let Some(idx) = self.map.get(&key).copied() {
            self.hits += 1;
            self.unlink(idx);
            self.push_front(idx);
            Some(
                self.nodes[idx]
                    .as_ref()
                    .expect("hit node present")
                    .value
                    .clone(),
            )
        } else {
            self.misses += 1;
            None
        }
    }

    /// Insert a result, evicting the least recently used entry if full.
    pub fn put(&mut self, role: &str, query: &str, result: QueryResult) {
        if self.capacity == 0 {
            return;
        }
        let key = (role.to_string(), query.to_string());
        if let Some(idx) = self.map.get(&key).copied() {
            self.nodes[idx].as_mut().expect("node present").value = result;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            let node = self.nodes[lru].take().expect("tail node present");
            self.map.remove(&node.key);
            self.free.push(lru);
        }
        let idx = if let Some(i) = self.free.pop() {
            i
        } else {
            self.nodes.push(None);
            self.nodes.len() - 1
        };
        self.nodes[idx] = Some(CacheNode {
            key: key.clone(),
            value: result,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total lookups; always equals hits + misses.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop all entries (e.g. after data changes); hit/miss counters are
    /// retained.
    pub fn invalidate(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// Bounded audit log: a ring buffer that drops the oldest entries once
/// full, counting what it dropped (capacity 0 = unbounded).
#[derive(Debug, Default)]
pub struct AuditLog {
    capacity: usize,
    entries: VecDeque<AuditEntry>,
    dropped: u64,
}

impl AuditLog {
    /// Log retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> AuditLog {
        AuditLog {
            capacity,
            entries: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append an entry, dropping the oldest when at capacity.
    pub fn push(&mut self, entry: AuditEntry) {
        if self.capacity > 0 && self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// Retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<AuditEntry> {
        self.entries.iter().cloned().collect()
    }

    /// Entries dropped by the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A client request (Fig. 3 "Client system" → G-SACS).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClientRequest {
    /// The requesting role's IRI.
    pub role: String,
    /// A SPARQL-subset query to run against the role's secure view.
    pub query: String,
}

/// One mutation in an update request.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Add a triple (requires `sec:Edit` on the subject's resource).
    Insert(grdf_rdf::term::Triple),
    /// Remove a triple (requires `sec:Delete`).
    Delete(grdf_rdf::term::Triple),
}

/// A mutation request: all operations are checked first; the request is
/// applied only when every operation is permitted (atomic deny).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// The requesting role's IRI.
    pub role: String,
    /// The operations, applied in order.
    pub ops: Vec<UpdateOp>,
}

/// Outcome of an update request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// All operations applied; count of triples actually changed.
    Applied(usize),
    /// Denied; the 1-based index and reason of the first refused op.
    Denied {
        /// Index of the eager refusal; `0` when the whole request was
        /// refused (the lint gate vets the post-update graph as a unit,
        /// not op by op).
        op_index: usize,
        /// Human-readable reason.
        reason: String,
    },
}

/// One audit record — every security-relevant decision G-SACS makes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// The requesting role (`"system"` for service-level events).
    pub role: String,
    /// `query`, `update-insert`, `update-delete`, or `degrade`/`recover`.
    pub action: String,
    /// The affected resource (subject IRI) or query text.
    pub target: String,
    /// Whether it was allowed.
    pub allowed: bool,
    /// Trace that produced this entry ([`TraceId::NONE`] when the event
    /// happened outside any observability scope). Lets an auditor join the
    /// log against exported spans and decision traces.
    pub trace_id: TraceId,
}

/// Pre-resolved counter handles for the request hot path, so `handle`
/// pays one atomic add per event instead of a registry lookup
/// (`RwLock` read + `BTreeMap` probe) per event.
struct HotCounters {
    requests: Counter,
    errors: Counter,
    cache_hit: Counter,
    cache_miss: Counter,
}

impl HotCounters {
    fn new(obs: &Obs) -> HotCounters {
        let reg = obs.registry();
        HotCounters {
            requests: reg.counter("gsacs.requests"),
            errors: reg.counter("gsacs.errors"),
            cache_hit: reg.counter("gsacs.cache.hit"),
            cache_miss: reg.counter("gsacs.cache.miss"),
        }
    }
}

/// The G-SACS service: front-end + decision engine + caches + reasoner +
/// ontology repository, wrapped in the fail-closed resilience layer.
pub struct GSacs {
    /// Ontology repository (Fig. 3).
    pub repository: OntoRepository,
    policies: PolicySet,
    engine: Arc<ResilientEngine>,
    /// Un-inferred base: ontologies + instance data, no entailments. The
    /// single source of truth that updates mutate.
    base: Graph,
    /// Served dataset: `base` plus entailments, rebuilt from `base` on
    /// every re-materialization (or a plain copy of `base` when degraded).
    data: Graph,
    /// The policy labels compiled over `data`: recompiled after every full
    /// rebuild, patched from the delta of every incremental insert.
    labels: LabelIr,
    /// Served-state epoch, bumped on every applied update. Anything cached
    /// against the served state is validated against it (the graph's own
    /// generation counts inserts only, so a delete-only batch or a rebuild
    /// can leave it unchanged).
    epoch: AtomicU64,
    /// [`GSacs::view_for`] memo: per role, the epoch it was built at.
    /// Cleared by [`GSacs::invalidate`], so it holds no old state's views.
    view_memo: Mutex<HashMap<String, (u64, Arc<Graph>)>>,
    /// Trace of each role's most recent traced request, for
    /// [`GSacs::decision_trace_for`].
    last_trace: Mutex<HashMap<String, TraceId>>,
    /// Inferred-triple count from the last materialization.
    pub inferred: usize,
    /// Whether the service is running without reasoning (un-inferred
    /// data, deny-bearing roles masked out).
    degraded: AtomicBool,
    config: ResilienceConfig,
    gate: AdmissionGate,
    latency: LatencyHistogram,
    requests: AtomicU64,
    query_cache: Mutex<QueryCache>,
    /// Security decision log (bounded ring buffer).
    audit: Mutex<AuditLog>,
    /// Durable write-ahead store when [`Durability::Wal`] is configured.
    store: Option<Arc<DurableStore>>,
    /// Failed appends to the durable audit sink (observability loss only —
    /// never a denial).
    audit_sink_errors: AtomicU64,
    /// Observability context (from [`ResilienceConfig::obs`]): every
    /// request runs inside a scope on it, so spans and metrics from the
    /// query, reasoner, and view layers land in one registry/sink.
    obs: Obs,
    hot: HotCounters,
    /// Set when [`LintGate::Enforce`] found error-level diagnostics at
    /// `init` time; the service then fails closed — every request returns
    /// [`GsacsError::LintRejected`] until it is rebuilt with fixed inputs.
    lint_rejected: Option<String>,
}

impl GSacs {
    /// Assemble the service with default resilience settings: the instance
    /// `data` is merged with every ontology in `repository` and
    /// materialized with `reasoner`.
    pub fn new(
        repository: OntoRepository,
        policies: PolicySet,
        reasoner: Box<dyn ReasoningEngine>,
        data: Graph,
        cache_capacity: usize,
    ) -> GSacs {
        GSacs::with_resilience(
            repository,
            policies,
            reasoner,
            data,
            cache_capacity,
            ResilienceConfig::default(),
        )
    }

    /// Assemble the service with explicit resilience settings.
    ///
    /// When `config.durability` is [`Durability::Wal`], the attached store
    /// must already hold a checkpoint of this exact initial state — use
    /// [`GSacs::create_durable`] (fresh store) or
    /// [`GSacs::recover_with_resilience`] (existing store), which guarantee
    /// that; attaching a store whose contents diverge from the assembled
    /// base would recover a different graph than the one served.
    pub fn with_resilience(
        repository: OntoRepository,
        policies: PolicySet,
        reasoner: Box<dyn ReasoningEngine>,
        data: Graph,
        cache_capacity: usize,
        config: ResilienceConfig,
    ) -> GSacs {
        let mut base = repository.merged();
        base.extend_from(&data);
        GSacs::assemble(repository, policies, reasoner, base, cache_capacity, config)
    }

    /// Shared assembly path: `base` is the already-merged un-inferred
    /// graph (ontologies + instance data, or a recovered checkpoint +
    /// WAL-replay state).
    fn assemble(
        repository: OntoRepository,
        policies: PolicySet,
        reasoner: Box<dyn ReasoningEngine>,
        base: Graph,
        cache_capacity: usize,
        config: ResilienceConfig,
    ) -> GSacs {
        let engine =
            ResilientEngine::new(reasoner, config.clock.clone(), config.breaker, config.retry);
        // With a seed lane configured, breaker half-open jitter derives
        // from the master seed instead of the process-global counter, so
        // a simulated run replays bit-identically.
        let engine = Arc::new(match &config.seeds {
            Some(tree) => engine.with_jitter_seed(tree.child("breaker.jitter").seed()),
            None => engine,
        });
        let gate = AdmissionGate::new(config.max_in_flight);
        let audit = Mutex::new(AuditLog::new(config.audit_capacity));
        let obs = config.obs.clone();
        let hot = HotCounters::new(&obs);
        let store = match &config.durability {
            Durability::Ephemeral => None,
            Durability::Wal(s) => Some(Arc::clone(s)),
        };
        let labels = LabelIr::compile(&Graph::new(), &policies);
        let mut svc = GSacs {
            repository,
            policies,
            engine,
            base,
            data: Graph::new(),
            labels,
            epoch: AtomicU64::new(0),
            view_memo: Mutex::new(HashMap::new()),
            last_trace: Mutex::new(HashMap::new()),
            inferred: 0,
            degraded: AtomicBool::new(false),
            config,
            gate,
            latency: LatencyHistogram::default(),
            requests: AtomicU64::new(0),
            query_cache: Mutex::new(QueryCache::new(cache_capacity)),
            audit,
            store,
            audit_sink_errors: AtomicU64::new(0),
            obs,
            hot,
            lint_rejected: None,
        };
        {
            // Construction-time materialization runs inside its own scope
            // so the reasoner's spans/counters are captured even before
            // the first request. A nested scope joins the ambient trace,
            // so a CLI-level scope sees these spans under its TraceId.
            let obs = svc.obs.clone();
            let _scope = obs.scope("gsacs.init");
            svc.rematerialize();
            svc.lint_at_init();
        }
        svc
    }

    /// Like [`GSacs::with_resilience`], but surfaces an init-time lint
    /// rejection ([`LintGate::Enforce`] + error-level findings) as an
    /// error instead of handing back a service that fails closed.
    pub fn try_with_resilience(
        repository: OntoRepository,
        policies: PolicySet,
        reasoner: Box<dyn ReasoningEngine>,
        data: Graph,
        cache_capacity: usize,
        config: ResilienceConfig,
    ) -> Result<GSacs, GsacsError> {
        let svc =
            GSacs::with_resilience(repository, policies, reasoner, data, cache_capacity, config);
        match &svc.lint_rejected {
            Some(m) => Err(GsacsError::LintRejected(m.clone())),
            None => Ok(svc),
        }
    }

    /// Create a fresh durable service: initialize `backend` with a
    /// checkpoint of the assembled initial state (ontologies + `data`,
    /// plus the List-8 encoding of the policy set), then run with
    /// [`Durability::Wal`] so every accepted update is write-ahead logged.
    ///
    /// Fails if the backend already holds a store (use
    /// [`GSacs::recover_with_resilience`] to reattach) or the initial
    /// checkpoint cannot be written.
    #[allow(clippy::too_many_arguments)]
    pub fn create_durable(
        backend: Arc<dyn StorageBackend>,
        store_config: StoreConfig,
        repository: OntoRepository,
        policies: PolicySet,
        reasoner: Box<dyn ReasoningEngine>,
        data: Graph,
        cache_capacity: usize,
        mut config: ResilienceConfig,
    ) -> Result<GSacs, StoreError> {
        let mut base = repository.merged();
        base.extend_from(&data);
        let policy_graph = policy_set_graph(&policies);
        let store = DurableStore::create(backend, store_config, &base, &policy_graph)?;
        config.durability = Durability::Wal(Arc::new(store));
        Ok(GSacs::assemble(
            repository,
            policies,
            reasoner,
            base,
            cache_capacity,
            config,
        ))
    }

    /// Reopen a durable service from `backend`: load the newest valid
    /// checkpoint, replay the WAL suffix (torn tails truncated, interior
    /// corruption fails closed), decode the policy set from its RDF
    /// encoding, and re-materialize entailments with `reasoner`. The
    /// returned [`Recovered`] reports what recovery reconstructed.
    ///
    /// Recovered ontology triples live in the service's base graph rather
    /// than a reconstructed [`OntoRepository`] — checkpoints persist the
    /// merged un-inferred base, which is the single source of truth
    /// updates mutate.
    pub fn recover_with_resilience(
        backend: Arc<dyn StorageBackend>,
        store_config: StoreConfig,
        reasoner: Box<dyn ReasoningEngine>,
        cache_capacity: usize,
        mut config: ResilienceConfig,
    ) -> Result<(GSacs, Recovered), StoreError> {
        let (store, recovered) = DurableStore::open(backend, store_config)?;
        let policies = PolicySet::new(Policy::decode_all(&recovered.policy_graph));
        config.durability = Durability::Wal(Arc::new(store));
        let svc = GSacs::assemble(
            OntoRepository::new(),
            policies,
            reasoner,
            recovered.base.clone(),
            cache_capacity,
            config,
        );
        Ok((svc, recovered))
    }

    /// Run the static-analysis passes the service can check on its own
    /// inputs — structural policy problems, policy conflicts through the
    /// subclass hierarchy, whole-policy-set label analysis (shadowing,
    /// contradictory overlap, entailment leaks, hierarchy monotonicity),
    /// and OWL consistency — over the served dataset.
    /// Instrumented: a `gsacs.lint` span plus `gsacs.lint.*` counters.
    pub fn lint(&self) -> LintReport {
        self.lint_graph(&self.data, Some(&self.labels))
    }

    /// Lint `data`. The whole-set label passes read `served` when given
    /// (the served labels, compiled over `data`); otherwise they compile
    /// their own IR over `data`.
    fn lint_graph(&self, data: &Graph, served: Option<&LabelIr>) -> LintReport {
        let span = grdf_obs::span("gsacs.lint");
        let mut diags = crate::conflicts::diagnostics(data, &self.policies);
        if !self.policies.policies.is_empty() {
            diags.extend(match served {
                Some(ir) => ir.static_diagnostics(data, &self.policies),
                None => crate::labels::diagnostics(data, &self.policies),
            });
        }
        diags.extend(grdf_owl::consistency::lint(data));
        let report = LintReport::from_diagnostics(diags);
        let errors = report.count(Severity::Error);
        let warnings = report.count(Severity::Warning);
        let reg = self.obs.registry();
        reg.counter("gsacs.lint.runs").inc();
        reg.counter("gsacs.lint.errors").add(errors as u64);
        reg.counter("gsacs.lint.warnings").add(warnings as u64);
        drop(span.tag("errors", errors).tag("warnings", warnings));
        report
    }

    /// The construction-time lint gate: audit the findings and, under
    /// [`LintGate::Enforce`], reject the service when any are errors.
    /// Also runs the differential label verifier on the served labels —
    /// label-filtered scans must equal materialized secure views for every
    /// role; a divergence under Enforce fails the service closed, under
    /// Flag it is audited.
    fn lint_at_init(&mut self) {
        if self.config.lint_gate == LintGate::Off {
            return;
        }
        let report = self.lint();
        let summary = format!(
            "{} error(s), {} warning(s)",
            report.count(Severity::Error),
            report.count(Severity::Warning)
        );
        let rejected = self.config.lint_gate == LintGate::Enforce && report.has_errors();
        self.audit_push(AuditEntry {
            role: "system".to_string(),
            action: "lint".to_string(),
            target: format!("init: {summary}"),
            allowed: !rejected,
            trace_id: grdf_obs::current_trace_id().unwrap_or(TraceId::NONE),
        });
        if rejected {
            let first = report
                .diagnostics
                .iter()
                .find(|d| d.severity == Severity::Error)
                .map(std::string::ToString::to_string)
                .unwrap_or_default();
            self.lint_rejected = Some(format!("{summary}; first: {first}"));
            return;
        }
        if !self.policies.policies.is_empty() {
            let divergences = self
                .labels
                .verify_label_equivalence(&self.data, &self.policies);
            if !divergences.is_empty() {
                let detail = format!(
                    "label/view divergence ({}): {}",
                    divergences.len(),
                    divergences[0]
                );
                let fail = self.config.lint_gate == LintGate::Enforce;
                self.audit_push(AuditEntry {
                    role: "system".to_string(),
                    action: "label-verify".to_string(),
                    target: format!("init: {detail}"),
                    allowed: !fail,
                    trace_id: grdf_obs::current_trace_id().unwrap_or(TraceId::NONE),
                });
                if fail {
                    self.lint_rejected = Some(detail);
                }
            }
        }
    }

    /// Rebuild the served dataset from the un-inferred base through the
    /// circuit-breaking engine, then recompile the labels over it. On
    /// failure the service degrades: it serves the base graph, with every
    /// deny-bearing role masked out, until a later re-materialization
    /// succeeds. Every transition is audited.
    fn rematerialize(&mut self) {
        self.rematerialize_with_budget(self.config.request_budget);
    }

    /// [`GSacs::rematerialize`] under an explicit (already-tightened)
    /// budget, for network callers whose deadline must bound the rebuild.
    fn rematerialize_with_budget(&mut self, budget: Budget) {
        let deadline = Deadline::armed(self.config.clock.clone(), budget);
        let mut materialized = self.base.clone();
        let span = grdf_obs::span("reasoner.materialize").tag("engine", self.engine.name());
        let outcome = self.engine.materialize(&mut materialized, &deadline);
        drop(span.tag("ok", outcome.is_ok()));
        let trace_id = grdf_obs::current_trace_id().unwrap_or(TraceId::NONE);
        match outcome {
            Ok(inferred) => {
                let was_degraded = self.degraded.swap(false, Ordering::AcqRel);
                self.data = materialized;
                self.inferred = inferred;
                if was_degraded {
                    self.audit_push(AuditEntry {
                        role: "system".to_string(),
                        action: "recover".to_string(),
                        target: format!("reasoner {} recovered", self.engine.name()),
                        allowed: true,
                        trace_id,
                    });
                }
            }
            Err(e) => {
                self.degraded.store(true, Ordering::Release);
                self.data = self.base.clone();
                self.inferred = 0;
                self.audit_push(AuditEntry {
                    role: "system".to_string(),
                    action: "degrade".to_string(),
                    target: format!(
                        "reasoner unavailable ({e}); serving un-inferred data, deny-bearing roles masked"
                    ),
                    allowed: false,
                    trace_id,
                });
            }
        }
        // Every query scans the served graph itself, so fold the
        // materializer's novelty overlay into the runs once here rather
        // than merging it on every read (and losing the merge-join fast
        // path on every predicate it touches).
        self.data.compact();
        self.compile_labels();
    }

    /// Recompile the labels over the served dataset from scratch.
    fn compile_labels(&mut self) {
        let _span = grdf_obs::span("labels.compile").tag("triples", self.data.len());
        self.labels = LabelIr::compile(&self.data, &self.policies);
    }

    /// Name of the plugged-in reasoning engine.
    pub fn reasoner_name(&self) -> &'static str {
        self.engine.name()
    }

    /// The materialized dataset (ontologies + instance data + inferences;
    /// un-inferred base when degraded).
    pub fn dataset(&self) -> &Graph {
        &self.data
    }

    /// The un-inferred base graph the service serves from — the durable
    /// contract: a checkpoint plus WAL replay must reconstruct exactly
    /// this (the simulation's durability oracle compares against it).
    pub fn base_graph(&self) -> &Graph {
        &self.base
    }

    /// Whether the service is degraded (reasoner unavailable).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// The served-state epoch: bumped on every applied update.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The compiled policy labels the request path enforces.
    pub fn labels(&self) -> &LabelIr {
        &self.labels
    }

    /// A request's authorization set for `role`: its label bit, masked
    /// out entirely in degraded mode when an effective deny applies to it
    /// (without inference such a deny cannot be evaluated safely).
    fn authorizations(&self, role: &str) -> VisBitset {
        let mut auths = self.labels.authorizations(role);
        if self.is_degraded() {
            auths.remove_all(self.labels.deny_bearing());
        }
        auths
    }

    /// Diagnostic: the subgraph of the served dataset the role's labels
    /// show — exactly what its queries are evaluated against. Memoized per
    /// role until the next applied update; no request path calls it.
    pub fn view_for(&self, role: &str) -> Arc<Graph> {
        let epoch = self.epoch();
        let mut memo = self.view_memo.lock();
        if let Some((built, view)) = memo.get(role) {
            if *built == epoch {
                return Arc::clone(view);
            }
        }
        let view = Arc::new(
            self.labels
                .filtered_view(&self.data, &self.authorizations(role)),
        );
        memo.insert(role.to_string(), (epoch, Arc::clone(&view)));
        view
    }

    /// The decision trace behind a role's most recent traced request:
    /// which of its effective policies were consulted, which permit/deny
    /// rules matched, and the inference steps that connected resources to
    /// policy targets. Recomputed on demand with the reference view
    /// builder over the role's effective policy set; `None` when no traced
    /// request for the role was served.
    pub fn decision_trace_for(&self, role: &str) -> Option<DecisionTrace> {
        let trace_id = self.last_trace.lock().get(role).copied()?;
        let effective = self.labels.effective_policy_set(&self.policies, role);
        let degraded = self.is_degraded();
        let masked = degraded
            && self
                .labels
                .role_bit(role)
                .is_some_and(|b| self.labels.deny_bearing().get(b));
        let mut trace = if masked {
            DecisionTrace {
                role: role.to_string(),
                consulted: effective.policies.iter().map(|p| p.id.clone()).collect(),
                denying: effective
                    .policies
                    .iter()
                    .filter(|p| p.decision == Decision::Deny)
                    .map(|p| p.id.clone())
                    .collect(),
                inference: vec![
                    "reasoner unavailable: deny policies may depend on missing entailments"
                        .to_string(),
                ],
                suppressed: self.data.len(),
                ..DecisionTrace::default()
            }
        } else {
            secure_view_explained(&self.data, &effective, role).2
        };
        trace.trace_id = trace_id;
        trace.degraded = degraded;
        Some(trace)
    }

    /// The service's observability context (metrics registry + trace
    /// sink).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Declared service-level objectives (from the resilience config);
    /// the server layer evaluates these for its degraded-admission hook.
    pub fn slos(&self) -> &[grdf_obs::Objective] {
        &self.config.slos
    }

    fn inject(&self, stage: Stage) -> Result<(), GsacsError> {
        match &self.config.fault_injector {
            Some(f) => f.inject(stage, self.config.clock.as_ref()),
            None => Ok(()),
        }
    }

    /// Record a security decision: tee it to the durable JSONL sink (when
    /// configured) and push it onto the in-memory ring. A failed append is
    /// retried a bounded number of times with doubling backoff (slept on
    /// the injected clock) — transient sink hiccups lose no audit lines —
    /// but a persistently failing sink is observability loss, never a
    /// denial: the exhausted attempt is counted, not raised, and decision
    /// handling proceeds. Ring overflow (the push evicting the oldest
    /// entry) is surfaced on the `gsacs.audit.dropped` metric so silent
    /// loss is visible.
    fn audit_push(&self, entry: AuditEntry) {
        /// Retries after the first failed append (3 total attempts).
        const SINK_RETRIES: u32 = 2;
        /// First backoff; doubles per retry.
        const SINK_BACKOFF_BASE: Duration = Duration::from_millis(1);
        if let Some(store) = &self.store {
            let line = audit_entry_json(&entry);
            let mut ok = store.append_audit_line(&line).is_ok();
            let mut attempt = 0;
            while !ok && attempt < SINK_RETRIES {
                self.config
                    .clock
                    .sleep(SINK_BACKOFF_BASE * 2u32.saturating_pow(attempt));
                grdf_obs::incr("gsacs.audit.sink_retries");
                // Windowed tee: lets the sim's bounded-retry-storm oracle
                // (and burn-rate alerting) see retry bursts in-window
                // instead of only as a lifetime total.
                grdf_obs::win_add("gsacs.audit.sink_retries", 1);
                ok = store.append_audit_line(&line).is_ok();
                attempt += 1;
            }
            if !ok {
                self.audit_sink_errors.fetch_add(1, Ordering::Relaxed);
                grdf_obs::incr("gsacs.audit.sink_errors");
            }
        }
        let mut log = self.audit.lock();
        let before = log.dropped();
        log.push(entry);
        if log.dropped() > before {
            grdf_obs::incr("gsacs.audit.dropped");
        }
    }

    /// Rotate the durable store to a fresh checkpoint when the active WAL
    /// segment has crossed the configured threshold. Called after applied
    /// updates; failure keeps the (still-valid) old checkpoint + longer
    /// WAL, so it is audited but does not fail the update.
    fn checkpoint_if_due(&self, trace_id: TraceId) {
        let Some(store) = &self.store else { return };
        if !store.should_checkpoint() {
            return;
        }
        let policy_graph = policy_set_graph(&self.policies);
        let ckpt_span = grdf_obs::span("store.ckpt.rotate").tag("triples", self.base.len());
        let rotated = store.checkpoint(&self.base, &policy_graph);
        drop(ckpt_span.tag("ok", rotated.is_ok()));
        match rotated {
            Ok(seq) => self.audit_push(AuditEntry {
                role: "system".to_string(),
                action: "checkpoint".to_string(),
                target: format!("rotated to checkpoint {seq}"),
                allowed: true,
                trace_id,
            }),
            Err(e) => {
                grdf_obs::incr("gsacs.ckpt.failed");
                self.audit_push(AuditEntry {
                    role: "system".to_string(),
                    action: "checkpoint".to_string(),
                    target: format!("checkpoint failed: {e}"),
                    allowed: false,
                    trace_id,
                });
            }
        }
    }

    /// The durable store backing this service, when configured.
    pub fn durable_store(&self) -> Option<&Arc<DurableStore>> {
        self.store.as_ref()
    }

    /// This boot's run id (durable services only; monotonic across
    /// restarts of the same store directory).
    pub fn run_id(&self) -> Option<u64> {
        self.store.as_ref().map(|s| s.run_id())
    }

    /// Failed appends to the durable audit sink since construction.
    pub fn audit_sink_errors(&self) -> u64 {
        self.audit_sink_errors.load(Ordering::Relaxed)
    }

    /// Handle a client request: admission → cache lookup → authorization
    /// set → deadline-bounded, label-filtered query. Fail-closed: every
    /// outcome, success or failure, produces exactly one audit entry, and
    /// no error path returns data.
    pub fn handle(&self, request: &ClientRequest) -> Result<QueryResult, GsacsError> {
        self.handle_with_budget(request, Budget::UNLIMITED)
    }

    /// [`GSacs::handle`] with a caller-supplied budget (e.g. a network
    /// request's `Deadline-Ms` header). The effective deadline is the
    /// *stricter* of `budget` and the service-wide request budget — a
    /// remote caller can tighten its own deadline but never extend the
    /// service's, and the deadline propagates into query evaluation and
    /// the reasoner fixpoint.
    pub fn handle_with_budget(
        &self,
        request: &ClientRequest,
        budget: Budget,
    ) -> Result<QueryResult, GsacsError> {
        let scope = self.obs.scope("gsacs.request");
        self.hot.requests.inc();
        // The HotCounters handles bypass the registry lookup *and* the
        // thread-local window tee, so per-tenant attribution needs the
        // explicit window-only tee beside each of them.
        grdf_obs::win_add("gsacs.requests", 1);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let start = self.config.clock.now();
        let result = self.handle_inner(request, budget.tighter(self.config.request_budget));
        let wall = self.config.clock.now().saturating_sub(start);
        self.latency.record(wall);
        grdf_obs::win_observe(
            "gsacs.wall_us",
            u64::try_from(wall.as_micros()).unwrap_or(u64::MAX),
        );
        if result.is_err() {
            self.hot.errors.inc();
            grdf_obs::win_add("gsacs.errors", 1);
        }
        if grdf_obs::tracing_active() {
            grdf_obs::tag_current("role", &request.role);
            grdf_obs::tag_current("ok", result.is_ok());
            if self.is_degraded() {
                grdf_obs::tag_current("degraded", true);
            }
        }
        self.audit_push(AuditEntry {
            role: request.role.clone(),
            action: "query".to_string(),
            target: request.query.clone(),
            allowed: result.is_ok(),
            trace_id: scope.trace_id(),
        });
        result
    }

    fn handle_inner(
        &self,
        request: &ClientRequest,
        budget: Budget,
    ) -> Result<QueryResult, GsacsError> {
        if let Some(m) = &self.lint_rejected {
            return Err(GsacsError::LintRejected(m.clone()));
        }
        let admission = grdf_obs::span("gsacs.admission");
        let _permit = self.gate.try_acquire()?;
        let deadline = Deadline::armed(self.config.clock.clone(), budget);
        self.inject(Stage::Admission)?;
        deadline.check().map_err(|_| GsacsError::DeadlineExceeded {
            stage: Stage::Admission,
        })?;
        drop(admission);
        let cache_span = grdf_obs::span("gsacs.cache");
        if let Some(hit) = self.query_cache.lock().get(&request.role, &request.query) {
            self.hot.cache_hit.inc();
            grdf_obs::win_add("gsacs.cache.hit", 1);
            drop(cache_span.tag("result", "hit"));
            return Ok(hit);
        }
        self.hot.cache_miss.inc();
        grdf_obs::win_add("gsacs.cache.miss", 1);
        drop(cache_span.tag("result", "miss"));
        self.inject(Stage::View)?;
        deadline
            .check()
            .map_err(|_| GsacsError::DeadlineExceeded { stage: Stage::View })?;
        let auths = self.authorizations(&request.role);
        let mask = self.labels.table.mask(&auths);
        if grdf_obs::tracing_active() {
            let trace_id = grdf_obs::current_trace_id().unwrap_or(TraceId::NONE);
            self.last_trace
                .lock()
                .insert(request.role.clone(), trace_id);
            drop(
                grdf_obs::span("gsacs.decision")
                    .tag("roles", auths.count_ones())
                    .tag("classes", self.labels.table.class_count()),
            );
        }
        self.inject(Stage::Query)?;
        let (result, examined) = execute_masked(&self.data, &mask, &request.query, &deadline)?;
        // Per-tenant cost accounting: the visible triples the filtered scan
        // read. Hidden triples are never charged, so the figure (exported
        // per tenant on `/metrics`) cannot reveal whether hidden data
        // matches a pattern.
        grdf_obs::win_add("gsacs.scanned", examined);
        self.query_cache
            .lock()
            .put(&request.role, &request.query, result.clone());
        Ok(result)
    }

    /// Handle a mutation: every operation is policy-checked with the
    /// matching action (`Edit` for inserts, `Delete` for deletions); on the
    /// first refusal nothing is applied. Successful updates mutate the
    /// un-inferred base, bring the served dataset and its labels up to
    /// date (deletions re-materialize from the base, so they cannot leave
    /// stale entailments behind), bump the epoch and clear the query
    /// cache.
    pub fn handle_update(&mut self, request: &UpdateRequest) -> UpdateOutcome {
        self.handle_update_with_budget(request, Budget::UNLIMITED)
    }

    /// [`GSacs::handle_update`] with a caller-supplied budget bounding the
    /// post-apply materialization (incremental or full rebuild); as with
    /// [`GSacs::handle_with_budget`], the stricter of the caller's and the
    /// service's budget wins. Policy checks and the WAL append are not
    /// deadline-bounded — an accepted batch is never half-applied.
    pub fn handle_update_with_budget(
        &mut self,
        request: &UpdateRequest,
        budget: Budget,
    ) -> UpdateOutcome {
        use crate::policy::{Access, Action};
        let budget = budget.tighter(self.config.request_budget);
        let obs = self.obs.clone();
        let scope = obs.scope("gsacs.update");
        let trace_id = scope.trace_id();
        if let Some(m) = &self.lint_rejected {
            return UpdateOutcome::Denied {
                op_index: 0,
                reason: format!("lint gate rejected service inputs: {m}"),
            };
        }
        // Phase 1: check all ops.
        for (i, op) in request.ops.iter().enumerate() {
            let (triple, action, action_name) = match op {
                UpdateOp::Insert(t) => (t, Action::Edit, "update-insert"),
                UpdateOp::Delete(t) => (t, Action::Delete, "update-delete"),
            };
            let pred = triple.predicate.as_iri().unwrap_or_default().to_string();
            let access =
                self.policies
                    .evaluate(&self.data, &request.role, &triple.subject, &pred, action);
            let allowed = access == Access::Granted;
            self.audit_push(AuditEntry {
                role: request.role.clone(),
                action: action_name.to_string(),
                target: triple.subject.to_string(),
                allowed,
                trace_id,
            });
            if !allowed {
                return UpdateOutcome::Denied {
                    op_index: i + 1,
                    reason: format!(
                        "{action_name} on {} denied for role {} ({access:?})",
                        triple.subject, request.role
                    ),
                };
            }
        }
        // Phase 1.5: the lint gate vets the post-update graph as a whole
        // before anything is applied. The ops land on a tentative copy of
        // the un-inferred base; error-level findings deny the request
        // under `Enforce` and are audited-but-allowed under `Flag`.
        if self.config.lint_gate != LintGate::Off {
            let mut tentative = self.base.clone();
            for op in &request.ops {
                match op {
                    UpdateOp::Insert(t) => {
                        tentative.insert(t.clone());
                    }
                    UpdateOp::Delete(t) => {
                        tentative.remove(t);
                    }
                }
            }
            let report = self.lint_graph(&tentative, None);
            if report.has_errors() {
                let enforce = self.config.lint_gate == LintGate::Enforce;
                let first = report
                    .diagnostics
                    .iter()
                    .find(|d| d.severity == Severity::Error)
                    .map(std::string::ToString::to_string)
                    .unwrap_or_default();
                self.audit_push(AuditEntry {
                    role: request.role.clone(),
                    action: "lint".to_string(),
                    target: first.clone(),
                    allowed: !enforce,
                    trace_id,
                });
                if enforce {
                    return UpdateOutcome::Denied {
                        op_index: 0,
                        reason: format!(
                            "update would introduce error-level lint findings: {first}"
                        ),
                    };
                }
            }
        }
        // Phase 1.75: write-ahead. The accepted batch is appended to the
        // WAL as one record *before* any in-memory state changes, so a
        // crash at any later point replays exactly this batch on
        // recovery. A failed append poisons the store and denies the
        // update — durability is part of the admission contract, not
        // best-effort.
        if let Some(store) = &self.store {
            let logged: Vec<LoggedOp> = request.ops.iter().map(to_logged).collect();
            let wal_span = grdf_obs::span("store.wal.append").tag("ops", logged.len());
            let appended = store.append_batch(&logged);
            drop(wal_span.tag("ok", appended.is_ok()));
            if let Err(e) = appended {
                grdf_obs::incr("gsacs.update.wal_failed");
                self.audit_push(AuditEntry {
                    role: request.role.clone(),
                    action: "wal-append".to_string(),
                    target: format!("batch of {} op(s)", request.ops.len()),
                    allowed: false,
                    trace_id,
                });
                return UpdateOutcome::Denied {
                    op_index: 0,
                    reason: format!("write-ahead log append failed ({e}); update refused"),
                };
            }
        }
        // Phase 2: apply to the un-inferred base.
        let additive = request
            .ops
            .iter()
            .all(|op| matches!(op, UpdateOp::Insert(_)));
        let mut changed = 0;
        for op in &request.ops {
            match op {
                UpdateOp::Insert(t) => {
                    if self.base.insert(t.clone()) {
                        changed += 1;
                    }
                }
                UpdateOp::Delete(t) => {
                    if self.base.remove(t) {
                        changed += 1;
                    }
                }
            }
        }
        if changed > 0 {
            // Purely-additive batches extend the already-materialized
            // dataset incrementally; deletions (or a degraded service,
            // which serves un-materialized data) force the full rebuild —
            // retraction requires recomputing the fixpoint from the base.
            if additive && !self.is_degraded() {
                self.apply_incremental(&request.ops, budget);
            } else {
                grdf_obs::incr("gsacs.update.full");
                self.rematerialize_with_budget(budget);
            }
            self.invalidate();
            self.checkpoint_if_due(trace_id);
        }
        UpdateOutcome::Applied(changed)
    }

    /// Extend the served dataset with an additive batch: insert the new
    /// triples, run the engine's delta materialization from a generation
    /// marker, and relabel what the delta (asserted plus inferred) touches
    /// — or recompile the labels when it carries schema or role-hierarchy
    /// triples. Any engine failure falls back to the full rebuild path
    /// (which handles degradation and auditing).
    fn apply_incremental(&mut self, ops: &[UpdateOp], budget: Budget) {
        let span = grdf_obs::span("gsacs.update.incremental").tag("engine", self.engine.name());
        let deadline = Deadline::armed(self.config.clock.clone(), budget);
        let mark = self.data.generation();
        for op in ops {
            if let UpdateOp::Insert(t) = op {
                self.data.insert(t.clone());
            }
        }
        match self
            .engine
            .materialize_delta(&mut self.data, mark, &deadline)
        {
            Ok(inferred) => {
                self.inferred += inferred;
                let delta = self.data.delta_ids_since(mark);
                let relabel = if self.labels.relabel(&self.data, &delta) {
                    "delta"
                } else {
                    self.compile_labels();
                    "full"
                };
                drop(
                    span.tag("ok", true)
                        .tag("delta", delta.len())
                        .tag("inferred", inferred)
                        .tag("relabel", relabel),
                );
                grdf_obs::incr("gsacs.update.incremental");
            }
            Err(e) => {
                drop(span.tag("ok", false).tag("error", e));
                grdf_obs::incr("gsacs.update.full");
                self.rematerialize_with_budget(budget);
            }
        }
    }

    /// The retained audit log, oldest first.
    pub fn audit_log(&self) -> Vec<AuditEntry> {
        self.audit.lock().snapshot()
    }

    /// Audit entries dropped by the ring buffer.
    pub fn audit_dropped(&self) -> u64 {
        self.audit.lock().dropped()
    }

    /// Denied entries in the retained audit log.
    pub fn audit_denials(&self) -> Vec<AuditEntry> {
        self.audit
            .lock()
            .entries
            .iter()
            .filter(|e| !e.allowed)
            .cloned()
            .collect()
    }

    /// Query-cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.query_cache.lock().stats()
    }

    /// Query-cache lookups (always hits + misses).
    pub fn cache_lookups(&self) -> u64 {
        self.query_cache.lock().lookups()
    }

    /// Query-cache hit rate.
    pub fn cache_hit_rate(&self) -> f64 {
        self.query_cache.lock().hit_rate()
    }

    /// Invalidate everything cached against the served state (after a
    /// data change): bump the epoch and clear the query cache and the
    /// [`GSacs::view_for`] memo.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.query_cache.lock().invalidate();
        self.view_memo.lock().clear();
    }

    /// A point-in-time health snapshot. When objectives are declared in
    /// [`ResilienceConfig::slos`] and the obs handle carries a window
    /// store, each objective is evaluated here (multi-window burn rate,
    /// see [`grdf_obs::SloEngine`]) and surfaced in the report's `slo`
    /// section.
    pub fn health(&self) -> HealthReport {
        let slo = match self.obs.windows() {
            Some(ws) if !self.config.slos.is_empty() => {
                grdf_obs::SloEngine::new(self.config.slos.clone()).evaluate(ws)
            }
            _ => Vec::new(),
        };
        let (cache_hits, cache_misses) = self.cache_stats();
        let view_cache_entries = self.view_memo.lock().len();
        let (audit_entries, audit_dropped) = {
            let audit = self.audit.lock();
            (audit.len(), audit.dropped())
        };
        HealthReport {
            reasoner: self.engine.name(),
            breaker: self.engine.state(),
            breaker_trips: self.engine.trips(),
            degraded: self.is_degraded(),
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.gate.shed_total(),
            in_flight: self.gate.in_flight(),
            cache_hits,
            cache_misses,
            cache_hit_rate: self.cache_hit_rate(),
            view_cache_entries,
            audit_entries,
            audit_dropped,
            p50: self.latency.quantile(0.5),
            p99: self.latency.quantile(0.99),
            slo,
        }
    }
}

/// Encode a policy set into its List-8 RDF graph form — the
/// representation checkpoints persist and
/// [`GSacs::recover_with_resilience`] decodes back with
/// [`Policy::decode_all`].
pub fn policy_set_graph(policies: &PolicySet) -> Graph {
    let mut g = Graph::new();
    for p in &policies.policies {
        p.encode(&mut g);
    }
    g
}

fn to_logged(op: &UpdateOp) -> LoggedOp {
    match op {
        UpdateOp::Insert(t) => LoggedOp::Insert(t.clone()),
        UpdateOp::Delete(t) => LoggedOp::Delete(t.clone()),
    }
}

/// One audit entry as a single JSON line for the durable sink.
fn audit_entry_json(entry: &AuditEntry) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"role\":");
    push_json_string(&mut out, &entry.role);
    out.push_str(",\"action\":");
    push_json_string(&mut out, &entry.action);
    out.push_str(",\"target\":");
    push_json_string(&mut out, &entry.target);
    out.push_str(",\"allowed\":");
    out.push_str(if entry.allowed { "true" } else { "false" });
    out.push_str(",\"trace_id\":");
    push_json_string(&mut out, &entry.trace_id.to_string());
    out.push('}');
    out
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::security_ontology;
    use crate::policy::Policy;
    use crate::resilience::{BreakerConfig, BreakerState};
    use grdf_feature::feature::Feature;
    use grdf_feature::rdf_codec::encode_feature;
    use grdf_rdf::term::{Term, Triple};
    use grdf_rdf::vocab::grdf;
    use grdf_runtime::Clock;
    use grdf_runtime::ManualClock;
    use std::time::Duration;

    fn service(cache: usize) -> GSacs {
        service_with(
            cache,
            ResilienceConfig::default(),
            Box::<OwlHorstEngine>::default(),
        )
    }

    fn service_with(
        cache: usize,
        config: ResilienceConfig,
        engine: Box<dyn ReasoningEngine>,
    ) -> GSacs {
        let mut data = Graph::new();
        let mut site = Feature::new(&grdf::app("NTEnergy"), "ChemSite");
        site.set_property("hasSiteName", "NT Energy");
        site.set_property("hasChemCode", "121NR");
        encode_feature(&mut data, &site);
        let mut stream = Feature::new(&grdf::app("WhiteRock"), "Stream");
        stream.set_property("hasObjectID", 11070i64);
        encode_feature(&mut data, &stream);

        let mut repo = OntoRepository::new();
        repo.register("seconto", security_ontology());

        let policies = PolicySet::new(vec![
            Policy::permit_properties(
                &grdf::sec("MainRepPolicy1"),
                &grdf::sec("MainRep"),
                &grdf::app("ChemSite"),
                &[&grdf::iri("isBoundedBy")],
            ),
            Policy::permit(
                &grdf::sec("MainRepPolicy2"),
                &grdf::sec("MainRep"),
                &grdf::app("Stream"),
            ),
            Policy::permit(
                &grdf::sec("E1"),
                &grdf::sec("Emergency"),
                &grdf::app("ChemSite"),
            ),
            Policy::permit(
                &grdf::sec("E2"),
                &grdf::sec("Emergency"),
                &grdf::app("Stream"),
            ),
        ]);
        GSacs::with_resilience(repo, policies, engine, data, cache, config)
    }

    fn chem_query() -> String {
        format!(
            "PREFIX app: <{}>\nSELECT ?c WHERE {{ ?s app:hasChemCode ?c }}",
            grdf::APP_NS
        )
    }

    /// An engine that always fails — a permanently-down reasoner.
    struct FailingEngine;

    impl ReasoningEngine for FailingEngine {
        fn materialize(
            &self,
            _graph: &mut Graph,
            _deadline: &Deadline,
        ) -> Result<usize, EngineError> {
            Err(EngineError::Failed("reasoner down".to_string()))
        }

        fn name(&self) -> &'static str {
            "failing"
        }
    }

    #[test]
    fn roles_get_different_answers() {
        let svc = service(16);
        let main_repair = ClientRequest {
            role: grdf::sec("MainRep"),
            query: chem_query(),
        };
        let emergency = ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        };
        assert_eq!(svc.handle(&main_repair).unwrap().select_rows().len(), 0);
        assert_eq!(svc.handle(&emergency).unwrap().select_rows().len(), 1);
    }

    #[test]
    fn cache_hits_on_repeat() {
        let svc = service(16);
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        };
        svc.handle(&req).unwrap();
        svc.handle(&req).unwrap();
        svc.handle(&req).unwrap();
        let (hits, misses) = svc.cache_stats();
        assert_eq!(hits, 2);
        assert_eq!(misses, 1);
        assert!(svc.cache_hit_rate() > 0.6);
        assert_eq!(svc.cache_lookups(), hits + misses);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let svc = service(0);
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        };
        svc.handle(&req).unwrap();
        svc.handle(&req).unwrap();
        let (hits, _) = svc.cache_stats();
        assert_eq!(hits, 0);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut cache = QueryCache::new(2);
        cache.put("r", "q1", QueryResult::Boolean(true));
        cache.put("r", "q2", QueryResult::Boolean(true));
        assert!(cache.get("r", "q1").is_some()); // q1 now most recent
        cache.put("r", "q3", QueryResult::Boolean(true)); // evicts q2
        assert!(cache.get("r", "q2").is_none());
        assert!(cache.get("r", "q1").is_some());
        assert!(cache.get("r", "q3").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_is_correct_under_churn() {
        // Slab indices are recycled through the free list; interleaved
        // evictions and re-inserts must keep the recency list consistent.
        let mut cache = QueryCache::new(3);
        for i in 0..50 {
            let q = format!("q{}", i % 7);
            if cache.get("r", &q).is_none() {
                cache.put("r", &q, QueryResult::Boolean(i % 2 == 0));
            }
            assert!(cache.len() <= 3);
        }
        assert_eq!(cache.lookups(), 50);
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 50);
    }

    #[test]
    fn cache_keys_include_role() {
        let mut cache = QueryCache::new(4);
        cache.put("role-a", "q", QueryResult::Boolean(true));
        assert!(
            cache.get("role-b", "q").is_none(),
            "another role must not see it"
        );
    }

    #[test]
    fn pluggable_reasoner() {
        use grdf_rdf::term::Term;
        use grdf_rdf::vocab::{rdf, rdfs};
        // Data whose class hierarchy implies extra memberships.
        let mut data = Graph::new();
        data.add(
            Term::iri(&grdf::app("Creek")),
            Term::iri(rdfs::SUB_CLASS_OF),
            Term::iri(&grdf::app("Stream")),
        );
        data.add(
            Term::iri(&grdf::app("c1")),
            Term::iri(rdf::TYPE),
            Term::iri(&grdf::app("Creek")),
        );

        let svc = GSacs::new(
            OntoRepository::new(),
            PolicySet::default(),
            Box::<OwlHorstEngine>::default(),
            data.clone(),
            4,
        );
        assert_eq!(svc.reasoner_name(), "owl-horst");
        assert!(svc.inferred > 0, "Creek ⊑ Stream must fire");

        let svc2 = GSacs::new(
            OntoRepository::new(),
            PolicySet::default(),
            Box::new(NoReasoning),
            data,
            4,
        );
        assert_eq!(svc2.reasoner_name(), "none");
        assert_eq!(svc2.inferred, 0);
    }

    #[test]
    fn repository_merges() {
        let mut repo = OntoRepository::new();
        repo.register("sec", security_ontology());
        let mut g = Graph::new();
        g.add(
            grdf_rdf::term::Term::iri("urn:a"),
            grdf_rdf::term::Term::iri("urn:p"),
            grdf_rdf::term::Term::iri("urn:b"),
        );
        repo.register("app", g);
        assert_eq!(repo.names(), vec!["app", "sec"]);
        assert!(repo.get("sec").is_some());
        let merged = repo.merged();
        assert!(merged.len() > security_ontology().len());
    }

    #[test]
    fn role_view_is_memoized_until_the_epoch_moves() {
        use grdf_rdf::term::{Term, Triple};
        let mut svc = service(4);
        let main_rep = grdf::sec("MainRep");
        let view = svc.view_for(&main_rep);
        let code = Term::iri(&grdf::app("hasChemCode"));
        assert!(
            view.match_pattern(None, Some(&code), None).is_empty(),
            "chem data suppressed for main repair"
        );
        assert!(!view.is_empty(), "the stream stays visible");
        assert!(Arc::ptr_eq(&view, &svc.view_for(&main_rep)), "memoized");
        // A delete-only batch leaves the graph generation where it was;
        // the epoch still moves, so the memo cannot serve the old state.
        let generation = svc.dataset().generation();
        let epoch = svc.epoch();
        let stream = Term::iri(&grdf::app("WhiteRock"));
        let id = Term::iri(&grdf::app("hasObjectID"));
        let gone = svc
            .dataset()
            .match_pattern(Some(&stream), Some(&id), None)
            .remove(0);
        svc.policies.push(crate::policy::Policy {
            action: crate::policy::Action::Delete,
            ..Policy::permit("urn:pd", &main_rep, &grdf::app("Stream"))
        });
        let out = svc.handle_update(&UpdateRequest {
            role: main_rep.clone(),
            ops: vec![UpdateOp::Delete(Triple::new(
                gone.subject.clone(),
                gone.predicate.clone(),
                gone.object.clone(),
            ))],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
        assert!(svc.epoch() > epoch);
        assert_eq!(svc.health().view_cache_entries, 0, "old views dropped");
        assert!(svc.dataset().generation() <= generation + svc.inferred as u64);
        let after = svc.view_for(&main_rep);
        assert!(!Arc::ptr_eq(&view, &after));
        assert!(view.contains(&gone) && !after.contains(&gone));
    }

    #[test]
    fn invalidate_clears_caches() {
        let svc = service(8);
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        };
        svc.handle(&req).unwrap();
        svc.invalidate();
        svc.handle(&req).unwrap();
        let (hits, misses) = svc.cache_stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 2);
    }

    #[test]
    fn updates_enforced_per_action() {
        use crate::policy::Action;
        use grdf_rdf::term::{Term, Triple};
        let mut data = Graph::new();
        let site = Term::iri(&grdf::app("NTEnergy"));
        data.add(
            site.clone(),
            Term::iri(grdf_rdf::vocab::rdf::TYPE),
            Term::iri(&grdf::app("ChemSite")),
        );
        let editor_policy = crate::policy::Policy {
            action: Action::Edit,
            ..crate::policy::Policy::permit("urn:pe", &grdf::sec("Editor"), &grdf::app("ChemSite"))
        };
        let mut svc = GSacs::new(
            OntoRepository::new(),
            PolicySet::new(vec![editor_policy]),
            Box::new(NoReasoning),
            data,
            4,
        );
        let insert = UpdateOp::Insert(Triple::new(
            site.clone(),
            Term::iri(&grdf::app("hasSiteName")),
            Term::string("NT Energy"),
        ));
        // Editor may insert.
        let out = svc.handle_update(&UpdateRequest {
            role: grdf::sec("Editor"),
            ops: vec![insert.clone()],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
        // …but not delete (no Delete policy).
        let out = svc.handle_update(&UpdateRequest {
            role: grdf::sec("Editor"),
            ops: vec![UpdateOp::Delete(Triple::new(
                site.clone(),
                Term::iri(&grdf::app("hasSiteName")),
                Term::string("NT Energy"),
            ))],
        });
        assert!(matches!(out, UpdateOutcome::Denied { op_index: 1, .. }));
        // The denied delete left the data intact.
        assert!(svc.dataset().has(
            &site,
            &Term::iri(&grdf::app("hasSiteName")),
            &Term::string("NT Energy")
        ));
        // Strangers may do nothing.
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:nobody".into(),
            ops: vec![insert],
        });
        assert!(matches!(out, UpdateOutcome::Denied { .. }));
    }

    #[test]
    fn update_batches_are_atomic_on_denial() {
        use crate::policy::Action;
        use grdf_rdf::term::{Term, Triple};
        let mut data = Graph::new();
        let a = Term::iri(&grdf::app("a"));
        let b = Term::iri(&grdf::app("b"));
        data.add(
            a.clone(),
            Term::iri(grdf_rdf::vocab::rdf::TYPE),
            Term::iri(&grdf::app("Open")),
        );
        data.add(
            b.clone(),
            Term::iri(grdf_rdf::vocab::rdf::TYPE),
            Term::iri(&grdf::app("Locked")),
        );
        let edit_open = crate::policy::Policy {
            action: Action::Edit,
            ..crate::policy::Policy::permit("urn:pe", "urn:r", &grdf::app("Open"))
        };
        let mut svc = GSacs::new(
            OntoRepository::new(),
            PolicySet::new(vec![edit_open]),
            Box::new(NoReasoning),
            data,
            0,
        );
        let ok_op = UpdateOp::Insert(Triple::new(
            a.clone(),
            Term::iri("urn:p"),
            Term::string("v"),
        ));
        let bad_op = UpdateOp::Insert(Triple::new(b, Term::iri("urn:p"), Term::string("v")));
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:r".into(),
            ops: vec![ok_op, bad_op],
        });
        assert!(matches!(out, UpdateOutcome::Denied { op_index: 2, .. }));
        // The permitted first op must NOT have been applied.
        assert!(!svc
            .dataset()
            .has(&a, &Term::iri("urn:p"), &Term::string("v")));
    }

    #[test]
    fn audit_log_records_decisions() {
        let svc = service(4);
        svc.handle(&ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        })
        .unwrap();
        let log = svc.audit_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].allowed);
        assert_eq!(log[0].action, "query");
        assert!(svc.audit_denials().is_empty());
    }

    #[test]
    fn errors_are_audited_as_denied() {
        let svc = service(4);
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: "NOT SPARQL".into(),
        };
        assert!(matches!(svc.handle(&req), Err(GsacsError::Parse(_))));
        let denials = svc.audit_denials();
        assert_eq!(denials.len(), 1, "failed requests must be audited");
        assert_eq!(denials[0].action, "query");
        assert!(!denials[0].allowed);
    }

    #[test]
    fn audit_ring_buffer_drops_oldest() {
        let config = ResilienceConfig {
            audit_capacity: 2,
            ..ResilienceConfig::default()
        };
        let svc = service_with(4, config, Box::new(NoReasoning));
        for i in 0..3 {
            let _ = svc.handle(&ClientRequest {
                role: grdf::sec("Emergency"),
                query: format!("bad query {i}"),
            });
        }
        let log = svc.audit_log();
        assert_eq!(log.len(), 2, "ring buffer caps retention");
        assert_eq!(svc.audit_dropped(), 1);
        assert!(
            log[0].target.contains("bad query 1"),
            "oldest entry dropped first"
        );
    }

    #[test]
    fn stale_entailments_are_retracted_on_delete() {
        use grdf_rdf::term::{Term, Triple};
        use grdf_rdf::vocab::{rdf, rdfs};
        let mut data = Graph::new();
        let creek = Term::iri(&grdf::app("Creek"));
        let stream = Term::iri(&grdf::app("Stream"));
        let c1 = Term::iri(&grdf::app("c1"));
        data.add(creek.clone(), Term::iri(rdfs::SUB_CLASS_OF), stream.clone());
        data.add(c1.clone(), Term::iri(rdf::TYPE), creek.clone());
        let delete_all = crate::policy::Policy {
            action: crate::policy::Action::Delete,
            ..crate::policy::Policy::permit("urn:pd", "urn:admin", &grdf::app("Creek"))
        };
        let mut svc = GSacs::new(
            OntoRepository::new(),
            PolicySet::new(vec![delete_all]),
            Box::<OwlHorstEngine>::default(),
            data,
            4,
        );
        let inferred_triple = Triple::new(c1.clone(), Term::iri(rdf::TYPE), stream.clone());
        assert!(
            svc.dataset().has(&c1, &Term::iri(rdf::TYPE), &stream),
            "entailment present"
        );
        // Deleting the asserted type must retract the inferred one too.
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:admin".into(),
            ops: vec![UpdateOp::Delete(Triple::new(
                c1.clone(),
                Term::iri(rdf::TYPE),
                creek.clone(),
            ))],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
        assert!(
            !svc.dataset().has(
                &inferred_triple.subject,
                &inferred_triple.predicate,
                &inferred_triple.object
            ),
            "stale entailment must not survive re-materialization"
        );
        assert_eq!(
            svc.inferred, 0,
            "inferred counter reflects the rebuild, not a running sum"
        );
    }

    #[test]
    fn successful_update_invalidates_query_cache() {
        use crate::policy::Action;
        use grdf_rdf::term::{Term, Triple};
        let mut data = Graph::new();
        let site = Term::iri(&grdf::app("s1"));
        data.add(
            site.clone(),
            Term::iri(grdf_rdf::vocab::rdf::TYPE),
            Term::iri(&grdf::app("ChemSite")),
        );
        let view_all = crate::policy::Policy::permit("urn:v", "urn:r", &grdf::app("ChemSite"));
        let edit_all = crate::policy::Policy {
            action: Action::Edit,
            ..crate::policy::Policy::permit("urn:e", "urn:r", &grdf::app("ChemSite"))
        };
        let mut svc = GSacs::new(
            OntoRepository::new(),
            PolicySet::new(vec![view_all, edit_all]),
            Box::new(NoReasoning),
            data,
            8,
        );
        let q = format!(
            "PREFIX app: <{}>\nSELECT ?n WHERE {{ ?s app:hasSiteName ?n }}",
            grdf::APP_NS
        );
        let before = svc
            .handle(&ClientRequest {
                role: "urn:r".into(),
                query: q.clone(),
            })
            .unwrap();
        assert_eq!(before.select_rows().len(), 0);
        svc.handle_update(&UpdateRequest {
            role: "urn:r".into(),
            ops: vec![UpdateOp::Insert(Triple::new(
                site,
                Term::iri(&grdf::app("hasSiteName")),
                Term::string("New Name"),
            ))],
        });
        let after = svc
            .handle(&ClientRequest {
                role: "urn:r".into(),
                query: q,
            })
            .unwrap();
        assert_eq!(
            after.select_rows().len(),
            1,
            "stale cache must have been dropped"
        );
    }

    #[test]
    fn additive_update_materializes_incrementally() {
        use grdf_rdf::term::{Term, Triple};
        use grdf_rdf::vocab::{rdf, rdfs};
        let mut onto = Graph::new();
        let creek = Term::iri(&grdf::app("Creek"));
        let stream = Term::iri(&grdf::app("Stream"));
        onto.add(creek.clone(), Term::iri(rdfs::SUB_CLASS_OF), stream.clone());
        let mut repo = OntoRepository::new();
        repo.register("hydro", onto);
        let c2 = Term::iri(&grdf::app("c2"));
        let edit_c2 = crate::policy::Policy {
            action: crate::policy::Action::Edit,
            ..Policy::permit("urn:pe", "urn:editor", &grdf::app("c2"))
        };
        let mut svc = GSacs::new(
            repo,
            PolicySet::new(vec![edit_c2]),
            Box::<OwlHorstEngine>::default(),
            Graph::new(),
            4,
        );
        let incremental = svc.obs().registry().counter("gsacs.update.incremental");
        let full = svc.obs().registry().counter("gsacs.update.full");
        assert_eq!((incremental.get(), full.get()), (0, 0));
        // Additive insert: the delta path runs and derives the entailment.
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:editor".into(),
            ops: vec![UpdateOp::Insert(Triple::new(
                c2.clone(),
                Term::iri(rdf::TYPE),
                creek.clone(),
            ))],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
        assert_eq!((incremental.get(), full.get()), (1, 0));
        assert!(
            svc.dataset().has(&c2, &Term::iri(rdf::TYPE), &stream),
            "incremental update must still materialize entailments"
        );
        // The incremental result equals a from-scratch rebuild.
        let mut scratch = svc.base.clone();
        Reasoner::default().materialize(&mut scratch);
        assert_eq!(*svc.dataset(), scratch);
        // A deletion forces the full rebuild path.
        let delete_c2 = crate::policy::Policy {
            action: crate::policy::Action::Delete,
            ..Policy::permit("urn:pd", "urn:editor", &grdf::app("c2"))
        };
        svc.policies.push(delete_c2);
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:editor".into(),
            ops: vec![UpdateOp::Delete(Triple::new(
                c2.clone(),
                Term::iri(rdf::TYPE),
                creek,
            ))],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
        assert_eq!((incremental.get(), full.get()), (1, 1));
        assert!(
            !svc.dataset().has(&c2, &Term::iri(rdf::TYPE), &stream),
            "deletion retracts the entailment via the full rebuild"
        );
    }

    #[test]
    fn incremental_update_relabels_only_the_delta() {
        use grdf_rdf::term::{Term, Triple};
        use grdf_rdf::vocab::rdf;
        let mut data = Graph::new();
        let site = Term::iri(&grdf::app("s1"));
        let brook = Term::iri(&grdf::app("b1"));
        data.add(
            site.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(&grdf::app("ChemSite")),
        );
        data.add(
            brook.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(&grdf::app("Stream")),
        );
        let policies = PolicySet::new(vec![
            Policy::permit("urn:v1", "urn:chem-viewer", &grdf::app("ChemSite")),
            Policy::permit("urn:v2", "urn:stream-viewer", &grdf::app("Stream")),
            crate::policy::Policy {
                action: crate::policy::Action::Edit,
                ..Policy::permit("urn:e1", "urn:chem-viewer", &grdf::app("ChemSite"))
            },
        ]);
        let mut svc = GSacs::new(
            OntoRepository::new(),
            policies,
            Box::new(NoReasoning),
            data,
            8,
        );
        let names = format!(
            "PREFIX app: <{}>\nSELECT ?n WHERE {{ ?s app:hasSiteName ?n }}",
            grdf::APP_NS
        );
        let ask = |svc: &GSacs, role: &str| {
            svc.handle(&ClientRequest {
                role: role.into(),
                query: names.clone(),
            })
            .unwrap()
            .select_rows()
            .len()
        };
        assert_eq!(ask(&svc, "urn:chem-viewer"), 0);
        // Additive update touching only ChemSite resources, with a
        // predicate the labels have never classified.
        let full = svc.obs().registry().counter("gsacs.update.full");
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:chem-viewer".into(),
            ops: vec![UpdateOp::Insert(Triple::new(
                site,
                Term::iri(&grdf::app("hasSiteName")),
                Term::string("NT Energy"),
            ))],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
        assert_eq!(full.get(), 0, "no full rebuild, no recompile");
        // The patched labels show every role what a fresh compile of the
        // served state shows…
        let fresh = LabelIr::compile(svc.dataset(), &svc.policies);
        for role in ["urn:chem-viewer", "urn:stream-viewer"] {
            let auths = fresh.authorizations(role);
            assert_eq!(
                svc.labels().filtered_view(svc.dataset(), &auths),
                fresh.filtered_view(svc.dataset(), &auths),
                "{role}"
            );
        }
        // …so the affected role sees the new triple and the other does not.
        assert_eq!(ask(&svc, "urn:chem-viewer"), 1);
        assert_eq!(ask(&svc, "urn:stream-viewer"), 0);
    }

    #[test]
    fn incremental_update_emits_span() {
        use grdf_rdf::term::{Term, Triple};
        use grdf_rdf::vocab::rdf;
        let mut data = Graph::new();
        let site = Term::iri(&grdf::app("s1"));
        data.add(
            site.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(&grdf::app("ChemSite")),
        );
        let config = ResilienceConfig {
            obs: Obs::with_tracing(16),
            ..ResilienceConfig::default()
        };
        let policies = PolicySet::new(vec![crate::policy::Policy {
            action: crate::policy::Action::Edit,
            ..Policy::permit("urn:e1", "urn:r", &grdf::app("ChemSite"))
        }]);
        let mut svc = GSacs::with_resilience(
            OntoRepository::new(),
            policies,
            Box::<OwlHorstEngine>::default(),
            data,
            4,
            config,
        );
        svc.handle_update(&UpdateRequest {
            role: "urn:r".into(),
            ops: vec![UpdateOp::Insert(Triple::new(
                site,
                Term::iri(&grdf::app("hasSiteName")),
                Term::string("NT Energy"),
            ))],
        });
        let records = svc.obs().sink().records();
        let spans: Vec<_> = records
            .iter()
            .flat_map(|r| r.spans_named("gsacs.update.incremental"))
            .collect();
        assert_eq!(spans.len(), 1, "additive update emits the incremental span");
        assert_eq!(spans[0].tag("ok"), Some("true"));
        assert_eq!(spans[0].tag("relabel"), Some("delta"));
        assert!(
            records
                .iter()
                .all(|r| r.spans_named("reasoner.materialize").len() <= 1),
            "no full re-materialization inside the update trace"
        );
    }

    #[test]
    fn bad_query_surfaces_error() {
        let svc = service(4);
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: "NOT SPARQL".into(),
        };
        assert!(svc.handle(&req).is_err());
    }

    #[test]
    fn failed_reasoner_degrades_but_still_serves() {
        let clock = Arc::new(ManualClock::new());
        let config = ResilienceConfig {
            clock: clock.clone(),
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(30),
                half_open_successes: 1,
                half_open_jitter: 0.0,
            },
            ..ResilienceConfig::default()
        };
        let svc = service_with(8, config, Box::new(FailingEngine));
        assert!(
            svc.is_degraded(),
            "construction-time engine failure degrades"
        );
        let health = svc.health();
        assert!(health.degraded);
        assert_eq!(
            health.breaker,
            BreakerState::Open,
            "one failure trips threshold 1"
        );
        // The degradation itself is audited.
        let denials = svc.audit_denials();
        assert!(denials
            .iter()
            .any(|e| e.action == "degrade" && e.role == "system"));
        // Direct (non-inferred) data is still served: Emergency carries no
        // deny, so the degraded mask leaves it its permits.
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        };
        assert_eq!(svc.handle(&req).unwrap().select_rows().len(), 1);
    }

    #[test]
    fn degraded_service_recovers_when_engine_heals() {
        use grdf_rdf::term::{Term, Triple};
        /// Fails the first `n` calls, then works.
        struct HealingEngine {
            failures_left: Mutex<u32>,
        }
        impl ReasoningEngine for HealingEngine {
            fn materialize(
                &self,
                graph: &mut Graph,
                deadline: &Deadline,
            ) -> Result<usize, EngineError> {
                let mut left = self.failures_left.lock();
                if *left > 0 {
                    *left -= 1;
                    return Err(EngineError::Failed("warming up".to_string()));
                }
                OwlHorstEngine::default().materialize(graph, deadline)
            }
            fn name(&self) -> &'static str {
                "healing"
            }
        }

        let clock = Arc::new(ManualClock::new());
        let config = ResilienceConfig {
            clock: clock.clone(),
            retry: crate::resilience::RetryPolicy {
                max_attempts: 1,
                backoff_base: Duration::from_millis(1),
            },
            ..ResilienceConfig::default()
        };
        let mut data = Graph::new();
        let site = Term::iri(&grdf::app("s1"));
        data.add(
            site.clone(),
            Term::iri(grdf_rdf::vocab::rdf::TYPE),
            Term::iri(&grdf::app("ChemSite")),
        );
        let edit_all = crate::policy::Policy {
            action: crate::policy::Action::Edit,
            ..crate::policy::Policy::permit("urn:e", "urn:r", &grdf::app("ChemSite"))
        };
        let mut svc = GSacs::with_resilience(
            OntoRepository::new(),
            PolicySet::new(vec![edit_all]),
            Box::new(HealingEngine {
                failures_left: Mutex::new(1),
            }),
            data,
            4,
            config,
        );
        assert!(svc.is_degraded());
        // A successful update re-materializes through the healed engine.
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:r".into(),
            ops: vec![UpdateOp::Insert(Triple::new(
                site,
                Term::iri(&grdf::app("hasSiteName")),
                Term::string("n"),
            ))],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
        assert!(
            !svc.is_degraded(),
            "successful re-materialization clears degradation"
        );
        let log = svc.audit_log();
        assert!(log.iter().any(|e| e.action == "recover" && e.allowed));
    }

    #[test]
    fn health_report_is_coherent() {
        let svc = service(16);
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        };
        svc.handle(&req).unwrap();
        svc.handle(&req).unwrap();
        let _ = svc.handle(&ClientRequest {
            role: grdf::sec("Emergency"),
            query: "NOT SPARQL".into(),
        });
        let h = svc.health();
        assert_eq!(h.reasoner, "owl-horst");
        assert_eq!(h.breaker, BreakerState::Closed);
        assert!(!h.degraded);
        assert_eq!(h.requests, 3);
        assert_eq!(h.shed, 0);
        assert_eq!(h.in_flight, 0);
        assert_eq!(h.cache_hits + h.cache_misses, svc.cache_lookups());
        assert_eq!(h.audit_entries, 3, "every request audited exactly once");
        assert_eq!(h.audit_dropped, 0);
        assert!(h.slo.is_empty(), "no objectives declared, no slo section");
        assert!(!h.render().is_empty());
    }

    #[test]
    fn health_evaluates_declared_slos_on_the_window_store() {
        let clock = Arc::new(ManualClock::new());
        let config = ResilienceConfig {
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            obs: grdf_obs::Obs::new().with_windows(
                grdf_obs::WindowConfig::default(),
                Arc::clone(&clock) as Arc<dyn Clock>,
            ),
            slos: vec![
                grdf_obs::Objective::parse("wall: p99(gsacs.wall_us) < 60s over 1m").unwrap(),
                grdf_obs::Objective::parse(
                    "errors: rate(gsacs.errors) / rate(gsacs.requests) < 50% over 1m",
                )
                .unwrap(),
            ],
            ..ResilienceConfig::default()
        };
        let svc = service_with(16, config, Box::<OwlHorstEngine>::default());
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        };
        svc.handle(&req).unwrap();
        svc.handle(&req).unwrap();
        let h = svc.health();
        assert_eq!(h.slo.len(), 2);
        assert_eq!(h.slo[0].name, "wall");
        assert_eq!(h.slo[0].state, grdf_obs::SloState::Ok);
        assert_eq!(h.slo[1].state, grdf_obs::SloState::Ok);
        assert!(!h.slo_burning());
        assert!(h.render().contains("slo:"));
        assert!(h.to_json().contains("\"slo\": [{\"name\": \"wall\""));
        // Every request now fails: the error-budget objective burns on
        // both windows (the fast window *is* all history so far).
        for _ in 0..50 {
            let _ = svc.handle(&ClientRequest {
                role: grdf::sec("Emergency"),
                query: "NOT SPARQL".into(),
            });
        }
        let h = svc.health();
        assert_eq!(
            h.slo[1].state,
            grdf_obs::SloState::Burning,
            "{:?}",
            h.slo[1]
        );
        assert!(h.slo_burning());
        assert!(h.to_json().contains("\"state\": \"burning\""));
    }

    /// A minimal service whose policy set carries an error-level lint
    /// finding (S005: empty role designator).
    fn broken_policy_service(gate: crate::resilience::LintGate) -> GSacs {
        let config = ResilienceConfig {
            lint_gate: gate,
            ..ResilienceConfig::default()
        };
        let policies = PolicySet::new(vec![
            crate::policy::Policy::permit("urn:ok", &grdf::sec("Emergency"), &grdf::app("Stream")),
            crate::policy::Policy::permit("urn:bad", "", &grdf::app("Stream")),
        ]);
        GSacs::with_resilience(
            OntoRepository::new(),
            policies,
            Box::new(NoReasoning),
            Graph::new(),
            4,
            config,
        )
    }

    #[test]
    fn lint_reports_policy_defects() {
        use grdf_rdf::diagnostic::LintCode;
        let svc = broken_policy_service(crate::resilience::LintGate::Off);
        let report = svc.lint();
        assert!(report.has_errors());
        assert_eq!(report.with_code(LintCode::EmptyDesignator).len(), 1);
        assert!(
            svc.obs().registry().counter("gsacs.lint.runs").get() >= 1,
            "lint run is instrumented"
        );
    }

    #[test]
    fn lint_gate_flag_audits_but_serves() {
        let svc = broken_policy_service(crate::resilience::LintGate::Flag);
        let log = svc.audit_log();
        let lint_entries: Vec<_> = log.iter().filter(|e| e.action == "lint").collect();
        assert_eq!(lint_entries.len(), 1);
        assert!(lint_entries[0].allowed, "Flag records but does not reject");
        assert!(lint_entries[0].target.contains("error(s)"));
        // The service still serves.
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        };
        assert!(svc.handle(&req).is_ok());
    }

    #[test]
    fn lint_gate_enforce_fails_closed_at_init() {
        let svc = broken_policy_service(crate::resilience::LintGate::Enforce);
        let req = ClientRequest {
            role: grdf::sec("Emergency"),
            query: chem_query(),
        };
        let err = svc.handle(&req).unwrap_err();
        assert!(matches!(err, GsacsError::LintRejected(_)), "{err}");
        assert!(err.to_string().contains("lint gate"), "{err}");
        // The rejection itself is audited as denied.
        assert!(svc
            .audit_denials()
            .iter()
            .any(|e| e.action == "lint" && e.role == "system"));
        // The Result constructor surfaces the rejection eagerly.
        let config = ResilienceConfig {
            lint_gate: crate::resilience::LintGate::Enforce,
            ..ResilienceConfig::default()
        };
        let out = GSacs::try_with_resilience(
            OntoRepository::new(),
            PolicySet::new(vec![crate::policy::Policy::permit(
                "urn:bad",
                "",
                &grdf::app("Stream"),
            )]),
            Box::new(NoReasoning),
            Graph::new(),
            4,
            config,
        );
        assert!(matches!(out, Err(GsacsError::LintRejected(_))));
    }

    #[test]
    fn lint_gate_enforce_denies_bad_updates() {
        use crate::policy::Action;
        use grdf_rdf::term::{Term, Triple};
        use grdf_rdf::vocab::{owl, rdf};
        let mut data = Graph::new();
        let x = Term::iri(&grdf::app("x"));
        data.add(
            x.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(&grdf::app("Open")),
        );
        let edit_open = crate::policy::Policy {
            action: Action::Edit,
            ..crate::policy::Policy::permit("urn:pe", "urn:r", &grdf::app("Open"))
        };
        let config = ResilienceConfig {
            lint_gate: crate::resilience::LintGate::Enforce,
            ..ResilienceConfig::default()
        };
        let mut svc = GSacs::with_resilience(
            OntoRepository::new(),
            PolicySet::new(vec![edit_open]),
            Box::new(NoReasoning),
            data,
            4,
            config,
        );
        assert!(svc.lint().is_clean(), "inputs start clean");
        // Typing x as owl:Nothing is an error-level finding (G014); the
        // gate must refuse the update before it lands.
        let bad = UpdateOp::Insert(Triple::new(
            x.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(owl::NOTHING),
        ));
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:r".into(),
            ops: vec![bad],
        });
        match out {
            UpdateOutcome::Denied { op_index, reason } => {
                assert_eq!(op_index, 0, "whole-request refusal");
                assert!(reason.contains("G014"), "{reason}");
            }
            other => panic!("expected lint denial, got {other:?}"),
        }
        assert!(
            !svc.dataset()
                .has(&x, &Term::iri(rdf::TYPE), &Term::iri(owl::NOTHING)),
            "denied op must not have been applied"
        );
        // A harmless update still goes through the gate.
        let ok = UpdateOp::Insert(Triple::new(
            x.clone(),
            Term::iri(&grdf::app("hasSiteName")),
            Term::string("n"),
        ));
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:r".into(),
            ops: vec![ok],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
    }

    // --- durability -----------------------------------------------------

    use grdf_store::{CrashBackend, MemBackend};

    /// A minimal editable world: one typed site plus an `Editor` role that
    /// may both insert and delete on it.
    fn editable_fixture() -> (Graph, PolicySet, Term) {
        use crate::policy::Action;
        let mut data = Graph::new();
        let site = Term::iri(&grdf::app("NTEnergy"));
        data.add(
            site.clone(),
            Term::iri(grdf_rdf::vocab::rdf::TYPE),
            Term::iri(&grdf::app("ChemSite")),
        );
        let edit = crate::policy::Policy {
            action: Action::Edit,
            ..Policy::permit("urn:pe", &grdf::sec("Editor"), &grdf::app("ChemSite"))
        };
        let delete = crate::policy::Policy {
            action: Action::Delete,
            ..Policy::permit("urn:pd", &grdf::sec("Editor"), &grdf::app("ChemSite"))
        };
        (data, PolicySet::new(vec![edit, delete]), site)
    }

    fn reopen(mem: &Arc<MemBackend>) -> Arc<dyn StorageBackend> {
        Arc::new(MemBackend::from_files(mem.clone_files()))
    }

    #[test]
    fn durable_updates_survive_reopen() {
        let mem = Arc::new(MemBackend::new());
        let (data, policies, site) = editable_fixture();
        let mut svc = GSacs::create_durable(
            Arc::clone(&mem) as Arc<dyn StorageBackend>,
            StoreConfig::default(),
            OntoRepository::new(),
            policies,
            Box::new(NoReasoning),
            data,
            4,
            ResilienceConfig::default(),
        )
        .unwrap();
        assert!(svc.run_id().is_some());
        let name = Term::iri(&grdf::app("hasSiteName"));
        let out = svc.handle_update(&UpdateRequest {
            role: grdf::sec("Editor"),
            ops: vec![
                UpdateOp::Insert(Triple::new(site.clone(), name.clone(), Term::string("NT"))),
                UpdateOp::Insert(Triple::new(site.clone(), name.clone(), Term::string("old"))),
            ],
        });
        assert_eq!(out, UpdateOutcome::Applied(2));
        let out = svc.handle_update(&UpdateRequest {
            role: grdf::sec("Editor"),
            ops: vec![UpdateOp::Delete(Triple::new(
                site.clone(),
                name.clone(),
                Term::string("old"),
            ))],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
        let expected = svc.base.clone();
        drop(svc);

        // "Restart": a fresh backend over the same files.
        let (svc2, recovered) = GSacs::recover_with_resilience(
            reopen(&mem),
            StoreConfig::default(),
            Box::new(NoReasoning),
            4,
            ResilienceConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.replayed_batches, 2);
        assert_eq!(recovered.replayed_ops, 3);
        assert_eq!(svc2.base, expected, "recovered base == pre-crash base");
        assert!(svc2.dataset().has(&site, &name, &Term::string("NT")));
        assert!(!svc2.dataset().has(&site, &name, &Term::string("old")));
        assert_eq!(svc2.policies.policies.len(), 2, "policies round-trip");
        // Restarts mint fresh, monotonically increasing run ids.
        assert!(svc2.run_id().unwrap() > 1);
    }

    #[test]
    fn denied_updates_are_not_logged() {
        let mem = Arc::new(MemBackend::new());
        let (data, policies, site) = editable_fixture();
        let mut svc = GSacs::create_durable(
            Arc::clone(&mem) as Arc<dyn StorageBackend>,
            StoreConfig::default(),
            OntoRepository::new(),
            policies,
            Box::new(NoReasoning),
            data,
            4,
            ResilienceConfig::default(),
        )
        .unwrap();
        let wal_before = svc.durable_store().unwrap().wal_bytes();
        let out = svc.handle_update(&UpdateRequest {
            role: "urn:nobody".into(),
            ops: vec![UpdateOp::Insert(Triple::new(
                site.clone(),
                Term::iri(&grdf::app("hasSiteName")),
                Term::string("x"),
            ))],
        });
        assert!(matches!(out, UpdateOutcome::Denied { .. }));
        assert_eq!(
            svc.durable_store().unwrap().wal_bytes(),
            wal_before,
            "denied batches never reach the WAL"
        );
    }

    #[test]
    fn wal_append_failure_denies_and_leaves_state_untouched() {
        // Build a real store, then reopen it through a crash backend whose
        // budget covers exactly the boot-counter bump (8 bytes): recovery
        // succeeds, and the first WAL append fails mid-record.
        let mem = Arc::new(MemBackend::new());
        let (data, policies, site) = editable_fixture();
        let svc = GSacs::create_durable(
            Arc::clone(&mem) as Arc<dyn StorageBackend>,
            StoreConfig::default(),
            OntoRepository::new(),
            policies,
            Box::new(NoReasoning),
            data,
            4,
            ResilienceConfig::default(),
        )
        .unwrap();
        drop(svc);
        let crashy: Arc<dyn StorageBackend> = Arc::new(CrashBackend::new(
            MemBackend::from_files(mem.clone_files()),
            8,
        ));
        let (mut svc, _recovered) = GSacs::recover_with_resilience(
            crashy,
            StoreConfig::default(),
            Box::new(NoReasoning),
            4,
            ResilienceConfig::default(),
        )
        .unwrap();
        let base_before = svc.base.clone();
        let req = UpdateRequest {
            role: grdf::sec("Editor"),
            ops: vec![UpdateOp::Insert(Triple::new(
                site.clone(),
                Term::iri(&grdf::app("hasSiteName")),
                Term::string("NT"),
            ))],
        };
        let out = svc.handle_update(&req);
        match out {
            UpdateOutcome::Denied { op_index, reason } => {
                assert_eq!(op_index, 0);
                assert!(reason.contains("write-ahead log append failed"), "{reason}");
            }
            other => panic!("expected WAL-failure denial, got {other:?}"),
        }
        assert_eq!(svc.base, base_before, "failed append must not mutate state");
        assert!(svc.durable_store().unwrap().is_poisoned());
        // The store stays poisoned: later updates fail closed too.
        let out = svc.handle_update(&req);
        assert!(matches!(out, UpdateOutcome::Denied { op_index: 0, .. }));
    }

    /// A backend that fails appends to the audit sink (only) a
    /// configurable number of times — `u64::MAX` means forever. Every
    /// other operation passes through untouched.
    #[derive(Debug)]
    struct FlakyAuditBackend {
        inner: MemBackend,
        audit_failures_left: AtomicU64,
        audit_attempts: AtomicU64,
    }

    impl FlakyAuditBackend {
        fn new(failures: u64) -> FlakyAuditBackend {
            FlakyAuditBackend {
                inner: MemBackend::new(),
                audit_failures_left: AtomicU64::new(failures),
                audit_attempts: AtomicU64::new(0),
            }
        }
    }

    impl StorageBackend for FlakyAuditBackend {
        fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
            self.inner.read(name)
        }
        fn write_all(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
            self.inner.write_all(name, data)
        }
        fn append(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
            if name == "audit.jsonl" {
                self.audit_attempts.fetch_add(1, Ordering::Relaxed);
                let left = self.audit_failures_left.load(Ordering::Relaxed);
                if left > 0 {
                    if left != u64::MAX {
                        self.audit_failures_left.fetch_sub(1, Ordering::Relaxed);
                    }
                    return Err(std::io::Error::other("audit sink down"));
                }
            }
            self.inner.append(name, data)
        }
        fn sync(&self, name: &str) -> std::io::Result<()> {
            self.inner.sync(name)
        }
        fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn delete(&self, name: &str) -> std::io::Result<()> {
            self.inner.delete(name)
        }
        fn list(&self) -> std::io::Result<Vec<String>> {
            self.inner.list()
        }
        fn len(&self, name: &str) -> std::io::Result<u64> {
            self.inner.len(name)
        }
        fn truncate(&self, name: &str, len: u64) -> std::io::Result<()> {
            self.inner.truncate(name, len)
        }
    }

    fn durable_on_flaky_audit(
        failures: u64,
        clock: Arc<ManualClock>,
    ) -> (GSacs, Arc<FlakyAuditBackend>) {
        let backend = Arc::new(FlakyAuditBackend::new(failures));
        let (data, policies, _site) = editable_fixture();
        let svc = GSacs::create_durable(
            Arc::clone(&backend) as Arc<dyn StorageBackend>,
            StoreConfig::default(),
            OntoRepository::new(),
            policies,
            Box::new(NoReasoning),
            data,
            4,
            ResilienceConfig {
                clock,
                ..ResilienceConfig::default()
            },
        )
        .unwrap();
        (svc, backend)
    }

    #[test]
    fn transient_audit_sink_failures_are_retried_without_loss() {
        let clock = Arc::new(ManualClock::new());
        // Two transient failures: the first line lands on the 3rd (last)
        // attempt — within the retry budget, so nothing is lost.
        let (svc, backend) = durable_on_flaky_audit(2, clock.clone());
        let before = clock.now();
        let _ = svc.handle(&ClientRequest {
            role: grdf::sec("Editor"),
            query: "SELECT ?s WHERE { ?s ?p ?o }".to_string(),
        });
        assert_eq!(svc.audit_sink_errors(), 0, "transient failure recovered");
        assert_eq!(backend.audit_attempts.load(Ordering::Relaxed), 3);
        // Backoff slept on the injected clock: 1ms + 2ms.
        assert_eq!(clock.now().saturating_sub(before), Duration::from_millis(3));
        let audit = backend.inner.read("audit.jsonl").unwrap();
        assert!(
            std::str::from_utf8(&audit).unwrap().contains("\"query\""),
            "the retried line reached the sink"
        );
    }

    #[test]
    fn permanently_failing_audit_sink_never_blocks_decisions() {
        let clock = Arc::new(ManualClock::new());
        let (mut svc, backend) = durable_on_flaky_audit(u64::MAX, clock);
        let attempts_base = backend.audit_attempts.load(Ordering::Relaxed);
        let errors_base = svc.audit_sink_errors();
        // Queries still answer and updates still apply.
        let out = svc.handle(&ClientRequest {
            role: grdf::sec("Editor"),
            query: "SELECT ?s WHERE { ?s ?p ?o }".to_string(),
        });
        assert!(out.is_ok(), "decision handling unaffected: {out:?}");
        let site = Term::iri(&grdf::app("NTEnergy"));
        let out = svc.handle_update(&UpdateRequest {
            role: grdf::sec("Editor"),
            ops: vec![UpdateOp::Insert(Triple::new(
                site,
                Term::iri(&grdf::app("hasSiteName")),
                Term::string("NT"),
            ))],
        });
        assert_eq!(out, UpdateOutcome::Applied(1));
        let errors = svc.audit_sink_errors() - errors_base;
        assert!(errors >= 2, "every exhausted line is counted: {errors}");
        // Bounded attempts: exactly 3 per audited line, never unbounded.
        let attempts = backend.audit_attempts.load(Ordering::Relaxed) - attempts_base;
        assert_eq!(attempts, 3 * errors, "3 attempts per line");
        // The in-memory ring still has the entries the sink lost.
        assert!(svc.audit_log().iter().any(|e| e.action == "query"));
    }

    #[test]
    fn checkpoint_rotates_when_wal_crosses_threshold() {
        let mem = Arc::new(MemBackend::new());
        let (data, policies, site) = editable_fixture();
        let cfg = StoreConfig {
            checkpoint_threshold: 64,
            ..StoreConfig::default()
        };
        let mut svc = GSacs::create_durable(
            Arc::clone(&mem) as Arc<dyn StorageBackend>,
            cfg,
            OntoRepository::new(),
            policies,
            Box::new(NoReasoning),
            data,
            4,
            ResilienceConfig::default(),
        )
        .unwrap();
        let name = Term::iri(&grdf::app("hasSiteName"));
        for i in 0..8 {
            let out = svc.handle_update(&UpdateRequest {
                role: grdf::sec("Editor"),
                ops: vec![UpdateOp::Insert(Triple::new(
                    site.clone(),
                    name.clone(),
                    Term::string(&format!("v{i}")),
                ))],
            });
            assert_eq!(out, UpdateOutcome::Applied(1));
        }
        let store = svc.durable_store().unwrap();
        assert!(store.seq() > 0, "threshold crossings rotate the segment");
        assert!(
            store.wal_bytes() < 64 + 64,
            "active WAL restarts small after rotation"
        );
        let rotations = store.seq();
        let expected = svc.base.clone();
        drop(svc);
        let (svc2, recovered) = GSacs::recover_with_resilience(
            reopen(&mem),
            StoreConfig::default(),
            Box::new(NoReasoning),
            4,
            ResilienceConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.ckpt_seq, rotations);
        assert_eq!(svc2.base, expected);
    }

    #[test]
    fn audit_entries_tee_to_durable_sink() {
        let mem = Arc::new(MemBackend::new());
        let (data, policies, _site) = editable_fixture();
        let svc = GSacs::create_durable(
            Arc::clone(&mem) as Arc<dyn StorageBackend>,
            StoreConfig::default(),
            OntoRepository::new(),
            policies,
            Box::new(NoReasoning),
            data,
            4,
            ResilienceConfig::default(),
        )
        .unwrap();
        let req = ClientRequest {
            role: grdf::sec("Editor"),
            query: chem_query(),
        };
        let _ = svc.handle(&req);
        assert!(svc.durable_store().unwrap().audit_lines() > 0);
        let raw = mem.clone_files();
        let log = raw
            .iter()
            .find_map(|(k, v)| k.starts_with("audit").then_some(v))
            .expect("audit log file exists");
        let text = String::from_utf8(log.clone()).unwrap();
        let line = text.lines().last().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"action\":\"query\""), "{line}");
        assert_eq!(svc.audit_sink_errors(), 0);
    }
}
