//! Concurrency stress for the G-SACS front-end: many threads, mixed roles
//! and queries, shared service. Asserts the service neither deadlocks nor
//! loses accounting:
//!
//! * every query-cache lookup is classified (hits + misses == lookups);
//! * concurrent first requests build nothing per role: labels are checked
//!   inside the scan, and every role's answer still equals the reference
//!   secure view's;
//! * every request is audited exactly once;
//! * admission control, when enabled, sheds rather than queues without
//!   bound, and shed requests are audited denials.

use std::sync::Arc;

use grdf::feature::{encode_feature, Feature};
use grdf::query::execute;
use grdf::rdf::term::{Term, Triple};
use grdf::rdf::vocab::grdf as ns;
use grdf::rdf::Graph;
use grdf::security::gsacs::{
    ClientRequest, GSacs, OntoRepository, OwlHorstEngine, UpdateOp, UpdateOutcome, UpdateRequest,
};
use grdf::security::policy::{Action, Policy, PolicySet};
use grdf::security::resilience::ResilienceConfig;
use grdf::security::views::secure_view;

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 50;

fn build_service(cache_capacity: usize, config: ResilienceConfig) -> GSacs {
    let mut data = Graph::new();
    for i in 0..20 {
        let mut site = Feature::new(&ns::app(&format!("site{i}")), "ChemSite");
        site.set_property("hasSiteName", format!("Site {i}").as_str());
        site.set_property("hasChemCode", format!("C{i}").as_str());
        encode_feature(&mut data, &site);
        let mut stream = Feature::new(&ns::app(&format!("stream{i}")), "Stream");
        stream.set_property("hasObjectID", i64::from(i));
        encode_feature(&mut data, &stream);
    }
    GSacs::with_resilience(
        OntoRepository::new(),
        policies(),
        Box::<OwlHorstEngine>::default(),
        data,
        cache_capacity,
        config,
    )
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
        Policy::permit(&ns::sec("H1"), &ns::sec("Hazmat"), &ns::app("ChemSite")),
        Policy {
            action: Action::Edit,
            ..Policy::permit(&ns::sec("H2"), &ns::sec("Hazmat"), &ns::app("ChemSite"))
        },
        Policy {
            action: Action::Delete,
            ..Policy::permit(&ns::sec("H3"), &ns::sec("Hazmat"), &ns::app("ChemSite"))
        },
    ])
}

/// SELECT rows as sorted rendered strings, for order-free comparison.
fn sorted_rows(result: &grdf::query::QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = result
        .select_rows()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

const ROLES: &[&str] = &["MainRep", "Emergency", "Hazmat", "Nobody"];

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
        format!("PREFIX app: <{}>\nASK {{ ?s a app:ChemSite }}", ns::APP_NS),
        "DEFINITELY NOT SPARQL".to_string(),
    ]
}

#[test]
fn concurrent_mixed_workload_keeps_accounting_exact() {
    let svc = Arc::new(build_service(32, ResilienceConfig::default()));
    let qs = Arc::new(queries());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = Arc::clone(&svc);
            let qs = Arc::clone(&qs);
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    // Deterministic per-thread mix of roles and queries.
                    let role = ROLES[(t + i) % ROLES.len()];
                    let query = qs[(t * 7 + i * 3) % qs.len()].clone();
                    let req = ClientRequest {
                        role: ns::sec(role),
                        query,
                    };
                    // Errors (parse failures, shed) are fine; panics and
                    // deadlocks are what this test exists to catch.
                    let _ = svc.handle(&req);
                }
            });
        }
    });

    let total = (THREADS * REQUESTS_PER_THREAD) as u64;
    let (hits, misses) = svc.cache_stats();
    assert_eq!(
        hits + misses,
        svc.cache_lookups(),
        "every lookup must be classified as hit or miss"
    );
    assert_eq!(svc.health().requests, total);

    // Exactly one audit entry per request, nothing dropped at this volume.
    let audited = svc
        .audit_log()
        .iter()
        .filter(|e| e.action == "query")
        .count() as u64
        + svc.audit_dropped();
    assert_eq!(
        audited, total,
        "every decision must be audited exactly once"
    );
    // Concurrent first requests must not duplicate expensive per-role
    // work: the request path builds no view at all, and every role's
    // answers still equal the reference secure view's.
    assert_eq!(
        svc.obs().registry().counter("view.builds").get(),
        0,
        "no request may build a per-role view"
    );
    for role in ROLES {
        let (view, _) = secure_view(svc.dataset(), &policies(), &ns::sec(role));
        for query in &qs[..qs.len() - 1] {
            let got = svc
                .handle(&ClientRequest {
                    role: ns::sec(role),
                    query: query.clone(),
                })
                .expect("valid query");
            let want = execute(&view, query).expect("valid query");
            match want {
                grdf::query::QueryResult::Boolean(b) => assert_eq!(got.as_bool(), Some(b)),
                _ => assert_eq!(sorted_rows(&got), sorted_rows(&want), "{role}: {query}"),
            }
        }
    }
}

#[test]
fn admission_limit_sheds_under_concurrency_and_audits_sheds() {
    // A limit far below the thread count guarantees shedding pressure;
    // correctness here is accounting, not a specific shed count.
    let config = ResilienceConfig {
        max_in_flight: 2,
        ..ResilienceConfig::default()
    };
    let svc = Arc::new(build_service(16, config));
    let qs = Arc::new(queries());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = Arc::clone(&svc);
            let qs = Arc::clone(&qs);
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    let role = ROLES[(t + i) % ROLES.len()];
                    let query = qs[i % (qs.len() - 1)].clone(); // valid queries only
                    let _ = svc.handle(&ClientRequest {
                        role: ns::sec(role),
                        query,
                    });
                }
            });
        }
    });

    let total = (THREADS * REQUESTS_PER_THREAD) as u64;
    let h = svc.health();
    assert_eq!(h.requests, total);
    assert_eq!(h.in_flight, 0, "all permits must be released");
    // Shed requests are audited denials; successful ones audited allows.
    let log = svc.audit_log();
    let denied = log
        .iter()
        .filter(|e| e.action == "query" && !e.allowed)
        .count() as u64;
    assert!(denied >= h.shed, "every shed request is an audited denial");
    assert_eq!(log.len() as u64 + svc.audit_dropped(), total);
}

/// Exact accounting for the lock-free metrics registry itself: 8 threads
/// hammer shared and per-thread handles; every recorded event must be
/// visible in the final snapshot — no lost updates, no double counts.
#[test]
fn metrics_registry_accounting_is_exact_under_concurrency() {
    let reg = Arc::new(grdf::obs::MetricsRegistry::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            scope.spawn(move || {
                // Mix pre-resolved handles (hot path) with by-name lookups
                // (cold path) so both registration races are exercised.
                let shared = reg.counter("stress.shared");
                let hist = reg.histogram("stress.latency");
                for i in 0..REQUESTS_PER_THREAD {
                    shared.add(1);
                    reg.counter(&format!("stress.thread.{t}")).add(1);
                    hist.record((i as u64 % 16) + 1);
                    reg.gauge("stress.last_thread").set(t as i64);
                }
            });
        }
    });
    let snap = reg.snapshot();
    let total = (THREADS * REQUESTS_PER_THREAD) as u64;
    assert_eq!(snap.counters["stress.shared"], total);
    for t in 0..THREADS {
        assert_eq!(
            snap.counters[&format!("stress.thread.{t}")],
            REQUESTS_PER_THREAD as u64,
            "per-thread counter must see exactly its thread's increments"
        );
    }
    let hist = &snap.histograms["stress.latency"];
    assert_eq!(hist.count, total);
    // Sum of (i % 16) + 1 over one thread's loop, times THREADS.
    let per_thread: u64 = (0..REQUESTS_PER_THREAD as u64).map(|i| (i % 16) + 1).sum();
    assert_eq!(hist.sum, per_thread * THREADS as u64);
    let last = snap.gauges["stress.last_thread"];
    assert!(
        (0..THREADS as i64).contains(&last),
        "gauge holds some thread's value"
    );
}

/// The service-level registry stays coherent with G-SACS's own books
/// under the concurrent mixed workload: request, error, and cache
/// counters all reconcile exactly.
#[test]
fn concurrent_workload_keeps_service_registry_coherent() {
    let obs = grdf::obs::Obs::new();
    let config = ResilienceConfig {
        obs: obs.clone(),
        ..ResilienceConfig::default()
    };
    let svc = Arc::new(build_service(32, config));
    let qs = Arc::new(queries());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = Arc::clone(&svc);
            let qs = Arc::clone(&qs);
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    let role = ROLES[(t + i) % ROLES.len()];
                    let query = qs[(t * 7 + i * 3) % qs.len()].clone();
                    let _ = svc.handle(&ClientRequest {
                        role: ns::sec(role),
                        query,
                    });
                }
            });
        }
    });
    let total = (THREADS * REQUESTS_PER_THREAD) as u64;
    let snap = obs.registry().snapshot();
    assert_eq!(snap.counters["gsacs.requests"], total);
    assert_eq!(
        snap.counters["gsacs.cache.hit"] + snap.counters["gsacs.cache.miss"],
        svc.cache_lookups(),
        "registry cache counters must reconcile with the cache's own books"
    );
    assert_eq!(snap.counters["gsacs.cache.hit"], svc.cache_stats().0);
    // Every error is both counted and audited as a denial.
    let denied = svc
        .audit_log()
        .iter()
        .filter(|e| e.action == "query" && !e.allowed)
        .count() as u64;
    assert_eq!(snap.counters["gsacs.errors"], denied);
    assert_eq!(
        snap.counters.get("view.builds").copied().unwrap_or(0),
        0,
        "enforcement is a scan-time check: no request builds a per-role view"
    );
}

/// Concurrent readers interleaved with sequential writes that alternate
/// inserts and corrections (delete + insert): every update, deletes
/// included, must take the incremental maintenance path (counter and
/// span, never a full rebuild) and patch the labels from what changed
/// rather than recompiling them.
#[test]
fn updates_under_read_pressure_stay_incremental() {
    const ROUNDS: usize = 6;
    let obs = grdf::obs::Obs::with_tracing(1024);
    let config = ResilienceConfig {
        obs: obs.clone(),
        ..ResilienceConfig::default()
    };
    let mut svc = build_service(32, config);
    let qs = queries();
    let note = |round: usize| {
        Triple::new(
            Term::iri(&ns::app(&format!("site{}", round / 2))),
            Term::iri(&ns::app("hasInspectionNote")),
            Term::string(&format!("round {round}")),
        )
    };

    for round in 0..ROUNDS {
        // Phase A: concurrent readers warm every role's view and query
        // caches (valid queries only — errors aren't the subject here).
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let svc = &svc;
                let qs = &qs;
                scope.spawn(move || {
                    for i in 0..8 {
                        let role = ROLES[(t + i) % ROLES.len()];
                        let query = qs[(t + i) % (qs.len() - 1)].clone();
                        let _ = svc.handle(&ClientRequest {
                            role: ns::sec(role),
                            query,
                        });
                    }
                });
            }
        });
        // Phase B: one authorized write touching only a ChemSite
        // instance — an insert, or a correction replacing the previous
        // round's note; the delta path must handle it without a rebuild.
        let mut ops = vec![UpdateOp::Insert(note(round))];
        if round % 2 == 1 {
            ops.insert(0, UpdateOp::Delete(note(round - 1)));
        }
        let changed = ops.len();
        let out = svc.handle_update(&UpdateRequest {
            role: ns::sec("Hazmat"),
            ops,
        });
        assert_eq!(out, UpdateOutcome::Applied(changed));
    }

    // Every update took the incremental path; the full-rebuild path never
    // fired after construction.
    let registry = obs.registry();
    assert_eq!(
        registry.counter("gsacs.update.incremental").get(),
        ROUNDS as u64
    );
    assert_eq!(registry.counter("gsacs.update.full").get(), 0);

    // Span-level evidence: one successful incremental span per round, and
    // at most the single construction-time full materialization anywhere.
    let records = obs.sink().records();
    let spans: Vec<_> = records
        .iter()
        .flat_map(|r| r.spans_named("gsacs.update.incremental"))
        .collect();
    assert_eq!(spans.len(), ROUNDS, "one incremental span per update");
    for span in &spans {
        assert_eq!(span.tag("ok"), Some("true"));
    }
    let full_materializations: usize = records
        .iter()
        .map(|r| r.spans_named("reasoner.materialize").len())
        .sum();
    assert!(
        full_materializations <= 1,
        "updates must never trigger a full re-materialization \
         (saw {full_materializations} beyond construction)"
    );

    // Delta relabeling: no round recompiled the labels.
    for span in &spans {
        assert_eq!(span.tag("relabel"), Some("delta"));
    }
    // Each correction retracted the note it replaced.
    let retracting = spans
        .iter()
        .filter(|span| span.tag("retracted") != Some("0"))
        .count();
    assert_eq!(retracting, ROUNDS / 2);
    for round in (0..ROUNDS).step_by(2) {
        assert!(!svc.dataset().contains(&note(round)));
        assert!(svc.dataset().contains(&note(round + 1)));
    }
}
