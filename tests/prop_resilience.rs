//! Deterministic fault-injection properties for the G-SACS service layer.
//!
//! A seeded [`FaultPlan`] injects errors and clock-advancing stalls into
//! every pipeline stage of a service running on a [`ManualClock`], and the
//! suite asserts the fail-closed invariants:
//!
//! * the service never panics, whatever faults fire;
//! * no response leaks beyond the role's fault-free secure view — every
//!   row a faulty service returns is a row the reference service returns;
//! * every request produces exactly one audit entry, success or failure;
//! * after faults stop and the breaker cooldown elapses, the breaker is
//!   no longer open and the service can recover;
//! * an update batch that deletes, whatever fails or stalls while it is
//!   maintained, leaves the served dataset either rebuilt (the fixpoint
//!   of the base) or degraded (the base itself) — never half-maintained.
//!
//! Everything is deterministic: time is manual, fault decisions are pure
//! functions of `(seed, stage, sequence)`, and no wall sleeps occur.
//! Each case's plan draws from a per-case [`SeedTree`] lane under
//! `GRDF_MASTER_SEED` (decimal or `0x`-hex), so one env var resweeps the
//! whole suite and a failing CI master replays locally verbatim.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use grdf::feature::{encode_feature, Feature};
use grdf::owl::reasoner::{Edit, Maintenance, Reasoner};
use grdf::rdf::term::{Term, Triple};
use grdf::rdf::vocab::{grdf as ns, owl, rdf, rdfs};
use grdf::rdf::Graph;
use grdf::runtime::{Budget, Clock, Deadline, ManualClock, SeedTree};
use grdf::security::gsacs::{
    ClientRequest, GSacs, OwlHorstEngine, ReasoningEngine, UpdateOp, UpdateRequest,
};
use grdf::security::policy::{Action, Policy, PolicySet};
use grdf::security::resilience::{
    BreakerState, EngineError, FaultPlan, FaultyEngine, GsacsError, ResilienceConfig,
};

fn incident_data() -> Graph {
    let mut g = Graph::new();
    let mut site = Feature::new(&ns::app("NTEnergy"), "ChemSite");
    site.set_property("hasSiteName", "NT Energy");
    site.set_property("hasChemCode", "121NR");
    encode_feature(&mut g, &site);
    let mut stream = Feature::new(&ns::app("WhiteRock"), "Stream");
    stream.set_property("hasObjectID", 11070i64);
    encode_feature(&mut g, &stream);
    g
}

fn policies() -> PolicySet {
    PolicySet::new(vec![
        Policy::permit_properties(
            &ns::sec("MainRepPolicy1"),
            &ns::sec("MainRep"),
            &ns::app("ChemSite"),
            &[&ns::iri("isBoundedBy")],
        ),
        Policy::permit(
            &ns::sec("MainRepPolicy2"),
            &ns::sec("MainRep"),
            &ns::app("Stream"),
        ),
        Policy::permit(&ns::sec("E1"), &ns::sec("Emergency"), &ns::app("ChemSite")),
        Policy::permit(&ns::sec("E2"), &ns::sec("Emergency"), &ns::app("Stream")),
    ])
}

const ROLES: &[&str] = &["MainRep", "Emergency", "Nobody"];

fn queries() -> Vec<String> {
    vec![
        format!(
            "PREFIX app: <{}>\nSELECT ?c WHERE {{ ?s app:hasChemCode ?c }}",
            ns::APP_NS
        ),
        format!(
            "PREFIX app: <{}>\nSELECT ?n WHERE {{ ?s app:hasSiteName ?n }}",
            ns::APP_NS
        ),
        format!(
            "PREFIX app: <{}>\nSELECT ?o WHERE {{ ?s app:hasObjectID ?o }}",
            ns::APP_NS
        ),
        format!(
            "PREFIX app: <{}>\nSELECT ?s WHERE {{ ?s a app:Stream }}",
            ns::APP_NS
        ),
        "THIS IS NOT SPARQL".to_string(),
    ]
}

/// A fault-free reference service on the same data and policies; its
/// answers are the leak ceiling for any faulty run.
fn reference_service() -> GSacs {
    GSacs::new(
        grdf::security::gsacs::OntoRepository::new(),
        policies(),
        Box::<OwlHorstEngine>::default(),
        incident_data(),
        64,
    )
}

/// A service whose every stage is fault-injected from `seed`, running on
/// a manual clock with a real per-request deadline budget.
fn faulty_service(
    seed: u64,
    error_rate: f64,
    latency_rate: f64,
) -> (GSacs, Arc<ManualClock>, Arc<FaultPlan>) {
    let clock = Arc::new(ManualClock::new());
    // Stalls (40ms) are shorter than the budget (100ms), so a single
    // stall is survivable but stacked stalls blow the deadline.
    // `seed` names a lane under the master, so the suite sweeps with
    // `GRDF_MASTER_SEED` while each case stays a pure replayable
    // function of `(master, seed)`.
    let plan = Arc::new(FaultPlan::from_tree(
        &SeedTree::from_env("GRDF_MASTER_SEED", 0xFA0175EED).child_n("resilience.case", seed),
        error_rate,
        latency_rate,
        Duration::from_millis(40),
    ));
    let config = ResilienceConfig {
        clock: clock.clone(),
        request_budget: Budget::with_time(Duration::from_millis(100)),
        fault_injector: Some(plan.clone()),
        ..ResilienceConfig::default()
    };
    let engine = FaultyEngine::new(
        Box::<OwlHorstEngine>::default(),
        plan.clone(),
        clock.clone(),
    );
    let svc = GSacs::with_resilience(
        grdf::security::gsacs::OntoRepository::new(),
        policies(),
        Box::new(engine),
        incident_data(),
        64,
        config,
    );
    (svc, clock, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under arbitrary injected faults the service never panics, never
    /// leaks beyond the fault-free view, audits every decision, and the
    /// breaker leaves the open state once faults stop and cooldown passes.
    #[test]
    fn faulty_service_is_fail_closed(
        seed in any::<u64>(),
        error_rate in 0.0f64..0.4,
        latency_rate in 0.0f64..0.4,
        picks in prop::collection::vec((0..3usize, 0..5usize), 1..25),
    ) {
        let reference = reference_service();
        let (svc, clock, _plan) = faulty_service(seed, error_rate, latency_rate);

        let qs = queries();
        let mut handled = 0u64;
        for (r, q) in &picks {
            let role = ns::sec(ROLES[*r]);
            let query = qs[*q].clone();
            handled += 1;
            match svc.handle(&ClientRequest { role: role.clone(), query: query.clone() }) {
                Ok(result) => {
                    // No leak: every returned row must also be produced by
                    // the fault-free reference service for this role. A
                    // degraded (un-inferred, conservative) service may
                    // answer with fewer rows, never more.
                    let reference_result = reference
                        .handle(&ClientRequest { role, query })
                        .expect("reference service is fault-free on valid queries");
                    let ceiling = reference_result.select_rows();
                    for row in result.select_rows() {
                        prop_assert!(
                            ceiling.contains(row),
                            "faulty service leaked a row absent from the fault-free view",
                        );
                    }
                }
                Err(
                    GsacsError::Parse(_)
                    | GsacsError::DeadlineExceeded { .. }
                    | GsacsError::Overloaded { .. }
                    | GsacsError::Engine(_)
                    | GsacsError::Internal(_)
                    | GsacsError::LintRejected(_),
                ) => {
                    // Fail-closed: errors carry no data.
                }
            }
        }

        // Audit completeness: one `query` entry per handled request (the
        // capacity default is far above this workload, so nothing drops).
        let query_entries =
            svc.audit_log().iter().filter(|e| e.action == "query").count() as u64;
        prop_assert_eq!(query_entries, handled, "every decision must be audited");
        prop_assert_eq!(svc.audit_dropped(), 0);

        // Health must stay coherent.
        let h = svc.health();
        prop_assert_eq!(h.requests, handled);
        prop_assert_eq!(h.cache_hits + h.cache_misses, svc.cache_lookups());

        // Recovery: faults only fire through the injector; once cooldown
        // passes on the manual clock the breaker cannot still be open.
        clock.advance(ResilienceConfig::default().breaker.cooldown);
        prop_assert!(
            svc.health().breaker != BreakerState::Open,
            "breaker must leave Open after cooldown",
        );
    }

    /// Fault decisions are a pure function of the seed: two services built
    /// from the same seed answer every request identically.
    #[test]
    fn same_seed_same_behavior(
        seed in any::<u64>(),
        picks in prop::collection::vec((0..3usize, 0..5usize), 1..12),
    ) {
        let (a, _, _) = faulty_service(seed, 0.25, 0.25);
        let (b, _, _) = faulty_service(seed, 0.25, 0.25);
        let qs = queries();
        for (r, q) in &picks {
            let req = ClientRequest { role: ns::sec(ROLES[*r]), query: qs[*q].clone() };
            let ra = a.handle(&req);
            let rb = b.handle(&req);
            prop_assert_eq!(
                ra.is_ok(),
                rb.is_ok(),
                "same seed must replay the same outcome",
            );
            if let (Ok(x), Ok(y)) = (ra, rb) {
                prop_assert_eq!(x.select_rows(), y.select_rows());
            }
        }
        prop_assert_eq!(a.is_degraded(), b.is_degraded());
    }
}

/// An engine whose incremental attempt gives up midway: it drops the
/// removed assertions, leaves everything they supported in place, and
/// reports a failure.
struct HalfMaintaining;

impl ReasoningEngine for HalfMaintaining {
    fn materialize(&self, graph: &mut Graph, deadline: &Deadline) -> Result<usize, EngineError> {
        OwlHorstEngine::default().materialize(graph, deadline)
    }

    fn maintain(
        &self,
        graph: &mut Graph,
        edit: &Edit<'_>,
        _deadline: &Deadline,
    ) -> Result<Maintenance, EngineError> {
        for t in edit.removed {
            graph.remove(t);
        }
        Err(EngineError::Failed("gave up midway".to_string()))
    }

    fn name(&self) -> &'static str {
        "half-maintaining"
    }
}

/// Streams typed `Creek ⊑ Stream` in a transitive `flowsInto` chain, so
/// deleting a type or an edge retracts entailments; the editor may edit
/// and delete streams.
fn stream_network() -> (Graph, PolicySet) {
    let mut g = incident_data();
    let iri = |s: &str| Term::iri(s);
    g.add(
        iri(&ns::app("Creek")),
        iri(rdfs::SUB_CLASS_OF),
        iri(&ns::app("Stream")),
    );
    g.add(
        iri(&ns::app("flowsInto")),
        iri(rdf::TYPE),
        iri(owl::TRANSITIVE_PROPERTY),
    );
    for i in 0..6 {
        let s = iri(&ns::app(&format!("creek{i}")));
        g.add(s.clone(), iri(rdf::TYPE), iri(&ns::app("Creek")));
        g.add(
            s,
            iri(&ns::app("flowsInto")),
            iri(&ns::app(&format!("creek{}", i + 1))),
        );
    }
    let mut policies = policies().policies;
    for action in [Action::Edit, Action::Delete] {
        policies.push(Policy {
            action,
            ..Policy::permit(
                &format!("urn:p:{action:?}"),
                "urn:role#editor",
                &ns::app("Stream"),
            )
        });
    }
    (g, PolicySet::new(policies))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A fault, a stall or a midway failure while a delete batch is
    /// maintained ends in the full rebuild or in degradation: after every
    /// update the served dataset is the fixpoint of the base, or the base
    /// itself while degraded.
    #[test]
    fn faulty_delete_batches_end_rebuilt_or_degraded(
        seed in any::<u64>(),
        error_rate in 0.0f64..0.5,
        latency_rate in 0.0f64..0.5,
        midway in any::<bool>(),
        picks in prop::collection::vec((0..6usize, 0..3usize), 1..10),
    ) {
        let clock = Arc::new(ManualClock::new());
        let plan = Arc::new(FaultPlan::from_tree(
            &SeedTree::from_env("GRDF_MASTER_SEED", 0xFA0175EED).child_n("resilience.delete", seed),
            error_rate,
            latency_rate,
            Duration::from_millis(60),
        ));
        let inner: Box<dyn ReasoningEngine> = if midway {
            Box::new(HalfMaintaining)
        } else {
            Box::<OwlHorstEngine>::default()
        };
        let config = ResilienceConfig {
            clock: clock.clone(),
            request_budget: Budget::with_time(Duration::from_millis(100)),
            ..ResilienceConfig::default()
        };
        let (data, policies) = stream_network();
        let mut svc = GSacs::with_resilience(
            grdf::security::gsacs::OntoRepository::new(),
            policies,
            Box::new(FaultyEngine::new(inner, plan, clock.clone())),
            data,
            16,
            config,
        );
        let creek = |i: usize| Term::iri(&ns::app(&format!("creek{i}")));
        for (i, kind) in &picks {
            let ops = match kind {
                0 => vec![UpdateOp::Delete(Triple::new(
                    creek(*i),
                    Term::iri(rdf::TYPE),
                    Term::iri(&ns::app("Creek")),
                ))],
                1 => vec![UpdateOp::Delete(Triple::new(
                    creek(*i),
                    Term::iri(&ns::app("flowsInto")),
                    creek(i + 1),
                ))],
                // A correction: reroute the edge one creek further.
                _ => vec![
                    UpdateOp::Delete(Triple::new(
                        creek(*i),
                        Term::iri(&ns::app("flowsInto")),
                        creek(i + 1),
                    )),
                    UpdateOp::Insert(Triple::new(
                        creek(*i),
                        Term::iri(&ns::app("flowsInto")),
                        creek(i + 2),
                    )),
                ],
            };
            svc.handle_update(&UpdateRequest { role: "urn:role#editor".to_string(), ops });
            let mut want = svc.base_graph().clone();
            if !svc.is_degraded() {
                Reasoner::default().materialize(&mut want);
            }
            prop_assert_eq!(svc.dataset(), &want, "degraded: {}", svc.is_degraded());
            clock.advance(ResilienceConfig::default().breaker.cooldown);
        }
    }
}

/// With an always-erroring reasoner stage the service degrades at
/// construction, keeps serving, and every request is still audited.
#[test]
fn total_reasoner_failure_degrades_but_serves() {
    let clock = Arc::new(ManualClock::new());
    let plan = Arc::new(FaultPlan::new(11, 1.0, 0.0, Duration::ZERO));
    let config = ResilienceConfig {
        clock: clock.clone(),
        ..ResilienceConfig::default()
    };
    // Only the reasoner is faulty; the request pipeline itself is clean.
    let engine = FaultyEngine::new(Box::<OwlHorstEngine>::default(), plan, clock.clone());
    let svc = GSacs::with_resilience(
        grdf::security::gsacs::OntoRepository::new(),
        policies(),
        Box::new(engine),
        incident_data(),
        16,
        config,
    );
    assert!(svc.is_degraded());
    let req = ClientRequest {
        role: ns::sec("Emergency"),
        query: format!(
            "PREFIX app: <{}>\nSELECT ?c WHERE {{ ?s app:hasChemCode ?c }}",
            ns::APP_NS
        ),
    };
    // Direct (asserted) data still flows under conservative views.
    assert_eq!(svc.handle(&req).unwrap().select_rows().len(), 1);
    assert!(svc.audit_log().iter().any(|e| e.action == "degrade"));
    assert!(svc
        .audit_log()
        .iter()
        .any(|e| e.action == "query" && e.allowed));
}

/// A stall injected into the reasoning stage consumes the whole request
/// budget on the manual clock and the engine reports deadline expiry —
/// no wall time is spent.
#[test]
fn reasoner_stall_trips_deadline_without_wall_sleep() {
    use grdf::runtime::Deadline;
    let clock = Arc::new(ManualClock::new());
    let plan = Arc::new(FaultPlan::new(3, 0.0, 1.0, Duration::from_millis(500)));
    let engine = FaultyEngine::new(Box::<OwlHorstEngine>::default(), plan, clock.clone());
    let mut g = incident_data();
    let deadline = Deadline::armed(clock.clone(), Budget::with_time(Duration::from_millis(100)));
    let wall = std::time::Instant::now();
    let result = engine.materialize(&mut g, &deadline);
    assert!(result.is_err(), "500ms stall must blow a 100ms budget");
    assert_eq!(clock.now(), Duration::from_millis(500));
    assert!(
        wall.elapsed() < Duration::from_millis(400),
        "stall must be simulated, not slept"
    );
}

/// Degraded-mode operation is *visible in traces*: the injected reasoner
/// fault appears as a tagged `fault.injected` span, degraded requests
/// carry a `degraded=true` tag on their root span, the decision trace is
/// flagged, and the audit entry joins the trace by `TraceId`.
#[test]
fn injected_faults_are_visible_in_traces() {
    let clock = Arc::new(ManualClock::new());
    // Every reasoner call fails; the request pipeline itself is clean.
    let plan = Arc::new(FaultPlan::new(11, 1.0, 0.0, Duration::ZERO));
    let obs = grdf::obs::Obs::with_tracing(64);
    let config = ResilienceConfig {
        clock: clock.clone(),
        obs: obs.clone(),
        ..ResilienceConfig::default()
    };
    let engine = FaultyEngine::new(Box::<OwlHorstEngine>::default(), plan, clock.clone());
    let svc = GSacs::with_resilience(
        grdf::security::gsacs::OntoRepository::new(),
        policies(),
        Box::new(engine),
        incident_data(),
        16,
        config,
    );
    assert!(svc.is_degraded());

    // Construction-time trace: the engine failure is attributed to an
    // injected fault, not silent.
    let init_traces = obs.sink().records();
    let fault_spans: Vec<_> = init_traces
        .iter()
        .flat_map(|t| t.spans_named("fault.injected"))
        .collect();
    assert!(
        !fault_spans.is_empty(),
        "injected reasoner fault must be marked in the trace"
    );
    assert!(fault_spans
        .iter()
        .all(|s| s.tag("kind") == Some("error") && s.tag("stage") == Some("reasoning")));

    let req = ClientRequest {
        role: ns::sec("Emergency"),
        query: format!(
            "PREFIX app: <{}>\nSELECT ?c WHERE {{ ?s app:hasChemCode ?c }}",
            ns::APP_NS
        ),
    };
    assert_eq!(svc.handle(&req).unwrap().select_rows().len(), 1);

    // The request's trace marks the degraded mode on its root span…
    let traces = obs.sink().records();
    let request_trace = traces
        .iter()
        .find(|t| !t.spans_named("gsacs.request").is_empty())
        .expect("request trace captured");
    let root = &request_trace.spans_named("gsacs.request")[0];
    assert_eq!(
        root.tag("degraded"),
        Some("true"),
        "degraded-mode requests must be visibly marked"
    );
    // …the decision trace is flagged and joined by TraceId…
    let decision = svc
        .decision_trace_for(&ns::sec("Emergency"))
        .expect("view was built");
    assert!(decision.degraded, "conservative view must be flagged");
    assert_eq!(decision.trace_id, request_trace.id);
    // …and the audit entry carries the same TraceId.
    let audited = svc
        .audit_log()
        .into_iter()
        .find(|e| e.action == "query")
        .expect("request audited");
    assert_eq!(audited.trace_id, request_trace.id);
}
