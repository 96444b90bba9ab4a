//! GRDF security constructs (paper §7) and the G-SACS architecture (§8,
//! Fig. 3).
//!
//! The paper's security claim is threefold:
//!
//! 1. **Fine-grained access control.** GeoXACML "views geographic
//!    resources as objects that can be associated with either a class or
//!    instance of the class; as such, it is unable to provide fine-grain
//!    access control" — granting a Building grants its exit doors and
//!    telecom towers too. GRDF's security ontology conditions policies on
//!    *properties* (List 8's `hasPropertyAccess grdf:BoundedBy`), so the
//!    'main repair' role sees a site's extent but not its chemistry.
//! 2. **Merge robustness.** "If base data model changes or \[is\] aggregated
//!    with other data sources, the same security framework will continue to
//!    work" — because policy applicability is decided by a reasoner
//!    (subclass/equivalence inference), not by exact schema matching.
//! 3. **An architecture** (Fig. 3): client → G-SACS front-end → decision
//!    engine + query cache + pluggable reasoning engine + ontology
//!    repository.
//!
//! Modules:
//!
//! * [`ontology`] — the `SecOnto` vocabulary as an OWL ontology.
//! * [`policy`] — policies (native structs ⇄ List 8 RDF encoding) and the
//!   semantics-aware evaluator.
//! * [`views`] — middleware "layered views": filtering a merged graph down
//!   to what a role may see (the reference semantics the labels are
//!   proven against).
//! * [`geoxacml`] — the object-level baseline comparator.
//! * [`labels`] — the policy label compiler: List 8 policy sets + the
//!   `sec:subRoleOf` hierarchy compiled to per-subject visibility labels
//!   (patched from the delta of additive updates), with whole-set static
//!   analyses (S007–S010, including the OWL-Horst entailment-leak pass)
//!   and a differential verifier proving the label-filtered scan equals
//!   the materialized secure views.
//! * [`gsacs`] — the Fig. 3 runtime: front-end, decision engine (labels
//!   enforced inside the query scan), LRU query cache, pluggable
//!   [`gsacs::ReasoningEngine`], ontology repository.
//! * [`resilience`] — the fail-closed service layer: unified error
//!   taxonomy, per-request deadlines, circuit-breaking reasoner with a
//!   degraded label mask, admission control, health reporting, and
//!   a deterministic fault-injection harness.
//!
//! The whole stack is instrumented through `grdf_obs`: G-SACS runs each
//! request inside an observability scope, [`policy::DecisionTrace`]s
//! explain which policies matched a role and why, and audit entries carry
//! the request's `TraceId` so the log joins against exported spans.

pub mod conflicts;
pub mod geoxacml;
pub mod gsacs;
pub mod labels;
pub mod ontology;
pub mod policy;
pub mod resilience;
pub mod views;

pub use conflicts::{
    conflict_to_diagnostic, detect_conflicts, resolved_policy_set, structural_diagnostics,
    CombiningAlgorithm, PolicyConflict,
};
pub use gsacs::{
    policy_set_graph, AuditEntry, AuditLog, ClientRequest, GSacs, OntoRepository, QueryCache,
    ReasoningEngine, UpdateOp, UpdateOutcome, UpdateRequest,
};
pub use labels::{CompiledPolicy, DesignatorIndex, Explanation, LabelIr, RoleHierarchy};
pub use policy::{Action, Condition, Decision, DecisionTrace, Policy, PolicyMatch, PolicySet};
pub use resilience::{
    AdmissionGate, BreakerConfig, BreakerState, Durability, EngineError, FaultInjector, FaultKind,
    FaultPlan, FaultyEngine, GsacsError, HealthReport, LatencyHistogram, LintGate, NoFaults,
    ResilienceConfig, ResilientEngine, RetryPolicy, Stage,
};
pub use views::{secure_view, secure_view_explained, ViewStats};
