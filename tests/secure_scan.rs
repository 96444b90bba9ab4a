//! Scan-time label enforcement, end to end:
//!
//! * **sub-role inheritance on the wire** — over loopback `/query`, a role
//!   with a `sec:subRoleOf` edge gets the permits it inherits and loses
//!   what its super-role denies (a deny on a subclass of what its own
//!   permit covers); with the reasoner down it is served nothing, because
//!   an inherited deny cannot be evaluated without entailments;
//! * **spatial FILTERs read only visible geometry** — a role whose permit
//!   excludes `hasGeometry` and `isBoundedBy` gets no feature from a
//!   `grdf:intersectsBox` window that covers it, while a role that sees
//!   the geometry does;
//! * **honest cost accounting** — a request is charged the visible triples
//!   its filtered scan read (`gsacs.scanned`), so a point lookup costs a
//!   sliver of the graph, and no charge depends on hidden data.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use grdf::feature::{encode_feature, Feature};
use grdf::geometry::primitives::Point;
use grdf::obs::{Obs, WindowConfig};
use grdf::query::execute;
use grdf::rdf::term::Term;
use grdf::rdf::vocab::{grdf as ns, rdfs};
use grdf::rdf::Graph;
use grdf::runtime::{Clock, Deadline, ManualClock};
use grdf::security::gsacs::{
    ClientRequest, GSacs, OntoRepository, OwlHorstEngine, ReasoningEngine,
};
use grdf::security::labels::{LabelIr, RoleHierarchy};
use grdf::security::policy::{Policy, PolicySet};
use grdf::security::resilience::{EngineError, ResilienceConfig};
use grdf::security::views::secure_view;
use grdf::server::{build_request, well_formed_response, GrdfServer, ServerConfig};

/// A permanently failing reasoner: the service degrades at assembly.
struct DownEngine;

impl ReasoningEngine for DownEngine {
    fn materialize(&self, _graph: &mut Graph, _deadline: &Deadline) -> Result<usize, EngineError> {
        Err(EngineError::Failed("reasoner down".to_string()))
    }

    fn name(&self) -> &'static str {
        "down"
    }
}

fn trainee() -> String {
    ns::sec("Trainee")
}

/// Two sites (one a Refinery, a ChemSite subclass) and a stream; the
/// trainee is a sub-role of the supervisor.
fn hierarchy_data() -> Graph {
    let mut g = Graph::new();
    g.add(
        Term::iri(&ns::app("Refinery")),
        Term::iri(rdfs::SUB_CLASS_OF),
        Term::iri(&ns::app("ChemSite")),
    );
    let mut site = Feature::new(&ns::app("site1"), "ChemSite");
    site.set_property("hasChemCode", "PLAIN-C1");
    encode_feature(&mut g, &site);
    let mut refinery = Feature::new(&ns::app("refinery1"), "Refinery");
    refinery.set_property("hasChemCode", "SECRET-R");
    encode_feature(&mut g, &refinery);
    let mut stream = Feature::new(&ns::app("stream1"), "Stream");
    stream.set_property("hasObjectID", 7i64);
    encode_feature(&mut g, &stream);
    let mut h = RoleHierarchy::new();
    h.add(&trainee(), &ns::sec("Supervisor"));
    h.encode(&mut g);
    g
}

/// The trainee's own permit covers every ChemSite; the supervisor
/// permits streams and denies refineries.
fn hierarchy_policies() -> PolicySet {
    PolicySet::new(vec![
        Policy::permit("urn:p:trainee-sites", &trainee(), &ns::app("ChemSite")),
        Policy::permit(
            "urn:p:supervisor-streams",
            &ns::sec("Supervisor"),
            &ns::app("Stream"),
        ),
        Policy::deny(
            "urn:p:supervisor-refineries",
            &ns::sec("Supervisor"),
            &ns::app("Refinery"),
        ),
    ])
}

fn served(engine: Box<dyn ReasoningEngine>) -> GrdfServer {
    let svc = GSacs::new(
        OntoRepository::new(),
        hierarchy_policies(),
        engine,
        hierarchy_data(),
        16,
    );
    GrdfServer::bind("127.0.0.1:0", svc, ServerConfig::default()).expect("bind loopback")
}

/// One `/query` exchange as `role`; returns the status and the raw body.
fn query(addr: SocketAddr, role: &str, body: &str) -> (u16, String) {
    let request = build_request("/query", &[("x-role", role)], body.as_bytes());
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&request).expect("write");
    let mut raw = Vec::new();
    let _ = s.read_to_end(&mut raw);
    assert!(well_formed_response(&raw), "torn response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let body = text
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or_default()
        .to_string();
    (status, body)
}

/// Rows of a rendered SELECT result: one `"var": ` binding per row.
fn rows(body: &str, var: &str) -> usize {
    body.matches(&format!("\"{var}\": ")).count()
}

fn codes_query() -> String {
    format!(
        "PREFIX app: <{}>\nSELECT ?c WHERE {{ ?s app:hasChemCode ?c }}",
        ns::APP_NS
    )
}

fn ids_query() -> String {
    format!(
        "PREFIX app: <{}>\nSELECT ?o WHERE {{ ?s app:hasObjectID ?o }}",
        ns::APP_NS
    )
}

#[test]
fn sub_role_gets_inherited_permits_and_denies_on_the_wire() {
    let server = served(Box::<OwlHorstEngine>::default());
    let addr = server.local_addr();

    // Inherited permit: the supervisor's stream grant reaches the trainee.
    let (status, body) = query(addr, &trainee(), &ids_query());
    assert_eq!(status, 200, "{body}");
    assert_eq!(rows(&body, "o"), 1, "inherited permit must apply: {body}");

    // Inherited deny: the supervisor's Refinery deny overrides the
    // trainee's own ChemSite permit on the refinery, and only there.
    let (status, body) = query(addr, &trainee(), &codes_query());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("PLAIN-C1"), "own permit must apply: {body}");
    assert!(
        !body.contains("SECRET-R"),
        "a super-role's deny must reach the wire: {body}"
    );
    assert_eq!(rows(&body, "c"), 1, "{body}");

    // The wire answer equals the reference view over the effective set.
    let mut data = hierarchy_data();
    grdf::owl::reasoner::Reasoner::default().materialize(&mut data);
    let ir = LabelIr::compile(&data, &hierarchy_policies());
    let effective = ir.effective_policy_set(&hierarchy_policies(), &trainee());
    let (view, _) = secure_view(&data, &effective, &trainee());
    let want = execute(&view, &codes_query()).expect("reference query");
    assert_eq!(want.select_rows().len(), rows(&body, "c"));
    server.shutdown();
}

#[test]
fn degraded_service_serves_a_deny_bearing_sub_role_nothing() {
    let server = served(Box::new(DownEngine));
    let addr = server.local_addr();
    for q in [codes_query(), ids_query()] {
        let (status, body) = query(addr, &trainee(), &q);
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains("\"rows\": []"),
            "an inherited deny masks the role while the reasoner is down: {body}"
        );
    }
    server.shutdown();
}

/// One ChemSite with a point geometry inside the unit window, readable by
/// a role that sees only its name and by one that sees its extent.
fn geometry_service() -> GSacs {
    let mut data = Graph::new();
    let mut site = Feature::new(&ns::app("hiddenSite"), "ChemSite");
    site.set_property("hasSiteName", "Hidden Site");
    site.set_geometry(Point::new(5.0, 5.0).into());
    encode_feature(&mut data, &site);
    let policies = PolicySet::new(vec![
        Policy::permit_properties(
            "urn:p:names-only",
            &ns::sec("Viewer"),
            &ns::app("ChemSite"),
            &[&ns::app("hasSiteName")],
        ),
        Policy::permit_properties(
            "urn:p:extent",
            &ns::sec("Mapper"),
            &ns::app("ChemSite"),
            &[
                &ns::app("hasSiteName"),
                &ns::iri("hasGeometry"),
                &ns::iri("isBoundedBy"),
            ],
        ),
    ]);
    GSacs::new(
        OntoRepository::new(),
        policies,
        Box::<OwlHorstEngine>::default(),
        data,
        0,
    )
}

#[test]
fn spatial_filter_reads_only_visible_geometry() {
    let svc = geometry_service();
    let window = format!(
        "PREFIX app: <{}>\nSELECT ?f WHERE {{ ?f a app:ChemSite . \
         FILTER(grdf:intersectsBox(?f, 0.0, 0.0, 10.0, 10.0)) }}",
        ns::APP_NS
    );
    let ask = |role: &str| {
        svc.handle(&ClientRequest {
            role: role.to_string(),
            query: window.clone(),
        })
        .expect("window query")
        .select_rows()
        .len()
    };
    // The site itself is visible to the viewer (its type is)…
    let all = format!(
        "PREFIX app: <{}>\nSELECT ?f WHERE {{ ?f a app:ChemSite }}",
        ns::APP_NS
    );
    let typed = svc
        .handle(&ClientRequest {
            role: ns::sec("Viewer"),
            query: all,
        })
        .expect("type query");
    assert_eq!(typed.select_rows().len(), 1);
    // …but its hidden geometry must not place it inside the window.
    assert_eq!(ask(&ns::sec("Viewer")), 0, "hidden geometry leaked a site");
    assert_eq!(ask(&ns::sec("Mapper")), 1, "visible geometry must match");
}

/// 300 ChemSites, each with a name, a chem code and a point geometry.
/// Emergency sees whole sites; MainRep only their geometry. `extra` edits
/// the data before assembly. Every request's charge lands in the returned
/// handle's window store.
fn charged_service(extra: impl FnOnce(&mut Graph)) -> (GSacs, Obs) {
    let clock = Arc::new(ManualClock::new());
    let obs = Obs::new().with_windows(
        WindowConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let mut data = Graph::new();
    for i in 0..300 {
        let mut site = Feature::new(&ns::app(&format!("site{i}")), "ChemSite");
        site.set_property("hasSiteName", format!("Site {i}").as_str());
        site.set_property("hasChemCode", format!("C{i}").as_str());
        site.set_geometry(Point::new(f64::from(i), 1.0).into());
        encode_feature(&mut data, &site);
    }
    extra(&mut data);
    let svc = GSacs::with_resilience(
        OntoRepository::new(),
        PolicySet::new(vec![
            Policy::permit(
                "urn:p:all-sites",
                &ns::sec("Emergency"),
                &ns::app("ChemSite"),
            ),
            Policy::permit_properties(
                "urn:p:site-extents",
                &ns::sec("MainRep"),
                &ns::app("ChemSite"),
                &[&ns::iri("hasGeometry")],
            ),
        ]),
        Box::<OwlHorstEngine>::default(),
        data,
        0,
        ResilienceConfig {
            obs: obs.clone(),
            ..ResilienceConfig::default()
        },
    );
    (svc, obs)
}

/// Run `query` as `role`; returns the answer's row count and the
/// `gsacs.scanned` charge it added.
fn charge(service: &(GSacs, Obs), role: &str, query: &str) -> (usize, u64) {
    let (svc, obs) = service;
    let windows = obs.windows().expect("window store");
    let sum = || windows.window_sum("gsacs.scanned", None, Duration::from_mins(1));
    let before = sum();
    let result = svc
        .handle(&ClientRequest {
            role: role.to_string(),
            query: query.to_string(),
        })
        .expect("query");
    let rows = match result.as_bool() {
        Some(hit) => usize::from(hit),
        None => result.select_rows().len(),
    };
    (rows, sum() - before)
}

#[test]
fn a_point_lookup_is_charged_the_triples_it_read() {
    let service = charged_service(|_| {});
    let lookup = format!("SELECT ?p ?o WHERE {{ <{}> ?p ?o }}", ns::app("site42"));
    let (rows, scanned) = charge(&service, &ns::sec("Emergency"), &lookup);
    assert!(rows >= 3, "the site's own triples come back: {rows}");
    let served = service.0.dataset().len() as u64;
    assert!(
        scanned >= rows as u64,
        "every returned triple was read: {scanned} < {rows}"
    );
    assert!(
        scanned * 50 < served,
        "a point lookup read {scanned} of {served} triples"
    );
}

/// The charge is published per tenant on `/metrics`, and any client picks
/// its tenant label, so it must not reveal hidden data: a request is
/// charged only the visible triples it read, in a join order chosen from
/// visible counts alone. MainRep cannot see chem codes, so a world where
/// a hidden triple carries the code it guesses must charge every probe
/// exactly what a world without one does.
#[test]
fn the_charge_does_not_reveal_hidden_matches() {
    let code = ns::app("hasChemCode");
    let geometry = ns::iri("hasGeometry");
    let site = ns::app("site42");
    let plain = charged_service(|_| {});
    let guessed = charged_service(|g| {
        g.add(
            Term::iri(&ns::app("site7")),
            Term::iri(&code),
            Term::string("GUESS"),
        );
    });
    let probes = [
        format!("SELECT ?s WHERE {{ ?s <{code}> \"GUESS\" }}"),
        // Whole-graph counts tie these two patterns only when the guess
        // exists, and input order would then read the visible one first.
        format!("SELECT ?g WHERE {{ <{site}> <{geometry}> ?g . ?s <{code}> \"GUESS\" }}"),
        format!("SELECT ?g WHERE {{ ?s <{geometry}> ?g . ?s <{code}> \"GUESS\" }}"),
        format!("ASK {{ ?s <{geometry}> ?g . ?t <{code}> \"GUESS\" }}"),
    ];
    for probe in &probes {
        let a = charge(&plain, &ns::sec("MainRep"), probe);
        let b = charge(&guessed, &ns::sec("MainRep"), probe);
        assert_eq!(a, b, "{probe}: (rows, charge) depend on a hidden triple");
    }
    // The worlds do differ for a role that sees chem codes.
    let emergency = ns::sec("Emergency");
    assert_ne!(
        charge(&plain, &emergency, &probes[0]),
        charge(&guessed, &emergency, &probes[0])
    );
}
