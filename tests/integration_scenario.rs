//! End-to-end integration of the §7.1 scenario across every crate:
//! workload generation → GML/RDF ingestion → aggregation → reasoning →
//! security views → SPARQL answers through G-SACS.

use grdf::core::ontology::grdf_ontology;
use grdf::core::store::GrdfStore;
use grdf::feature::encode_feature;
use grdf::rdf::term::Term;
use grdf::rdf::vocab::{grdf as ns, rdf};
use grdf::security::gsacs::{ClientRequest, GSacs, OntoRepository, OwlHorstEngine};
use grdf::security::ontology::security_ontology;
use grdf::security::policy::{Policy, PolicySet};
use grdf::workload::chemical::{alignment_axioms, generate_chemical_sites, ChemicalConfig};
use grdf::workload::hydrology::{generate_hydrology, HydrologyConfig};

fn scenario_policies() -> PolicySet {
    PolicySet::new(vec![
        Policy::permit_properties(
            &ns::sec("MainRepPolicy1"),
            &ns::sec("MainRep"),
            &ns::app("ChemSite"),
            &[&ns::iri("isBoundedBy"), &ns::iri("hasGeometry")],
        ),
        Policy::permit(
            &ns::sec("MainRepPolicy2"),
            &ns::sec("MainRep"),
            &ns::app("Stream"),
        ),
        Policy::permit(&ns::sec("E1"), &ns::sec("Emergency"), &ns::app("ChemSite")),
        Policy::permit(&ns::sec("E2"), &ns::sec("Emergency"), &ns::app("ChemInfo")),
        Policy::permit(&ns::sec("E3"), &ns::sec("Emergency"), &ns::app("Stream")),
    ])
}

fn incident_data(streams: usize, sites: usize) -> grdf::rdf::Graph {
    let hydro = generate_hydrology(&HydrologyConfig {
        streams,
        seed: 5,
        ..Default::default()
    });
    let chem = generate_chemical_sites(&ChemicalConfig {
        sites,
        seed: 6,
        ..Default::default()
    });
    let mut g = grdf::rdf::turtle::parse(alignment_axioms()).unwrap();
    for f in hydro.features.iter().chain(chem.features.iter()) {
        encode_feature(&mut g, f);
    }
    g
}

#[test]
fn full_pipeline_gml_to_secure_answers() {
    // 1. Hydrology arrives as GML (simulating the NCTCOG clearinghouse).
    let hydro = generate_hydrology(&HydrologyConfig {
        streams: 30,
        seed: 5,
        ..Default::default()
    });
    let gml_text = grdf::gml::write::write_gml(&hydro);

    // 2. Chemical data arrives as RDF (simulating the erplan repository).
    let chem = generate_chemical_sites(&ChemicalConfig {
        sites: 20,
        seed: 6,
        ..Default::default()
    });
    let mut chem_graph = grdf::rdf::Graph::new();
    for f in &chem.features {
        encode_feature(&mut chem_graph, f);
    }
    let chem_ttl = grdf::rdf::turtle::serialize(&chem_graph, &grdf::rdf::PrefixMap::common());

    // 3. Aggregate both + alignment axioms into a GRDF store.
    let mut store = GrdfStore::new();
    assert_eq!(store.load_gml(&gml_text).unwrap(), 30);
    assert!(store.load_turtle(&chem_ttl).unwrap() > 0);
    store.load_turtle(alignment_axioms()).unwrap();
    let stats = store.materialize();
    assert!(stats.inferred > 0);
    store.check().expect("consistent after materialization");

    // 4. Every stream and site is now a grdf:Feature by inference.
    let feature_count = store.feature_count();
    assert!(feature_count >= 50, "features = {feature_count}");

    // 5. Duplicate chemical sites (same hasSiteId) were identified.
    assert!(
        !store.same_as_links().is_empty(),
        "expected sameAs identities"
    );

    // 6. A spatial cross-domain query runs over the merged graph.
    let rows = store
        .query(
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?site ?stream WHERE {
               ?site a app:ChemSite . ?stream a app:Stream .
               FILTER(grdf:distance(?site, ?stream) < 30000)
             } LIMIT 10",
        )
        .unwrap();
    assert!(
        !rows.select_rows().is_empty(),
        "streams near sites must exist"
    );
}

#[test]
fn gsacs_enforces_role_separation_end_to_end() {
    let mut repo = OntoRepository::new();
    repo.register("grdf", grdf_ontology());
    repo.register("seconto", security_ontology());
    let svc = GSacs::new(
        repo,
        scenario_policies(),
        Box::<OwlHorstEngine>::default(),
        incident_data(20, 20),
        64,
    );

    let chem_q = format!(
        "PREFIX app: <{}>\nSELECT ?i WHERE {{ ?s app:hasChemicalInfo ?i }}",
        ns::APP_NS
    );
    let geo_q = format!(
        "PREFIX app: <{}>\nPREFIX grdf: <{}>\nSELECT ?s WHERE {{ ?s a app:ChemSite ; grdf:isBoundedBy ?b }}",
        ns::APP_NS,
        ns::NS
    );

    // main repair: no chemistry, full geography.
    let mr = svc
        .handle(&ClientRequest {
            role: ns::sec("MainRep"),
            query: chem_q.clone(),
        })
        .unwrap();
    assert_eq!(mr.select_rows().len(), 0);
    let mr_geo = svc
        .handle(&ClientRequest {
            role: ns::sec("MainRep"),
            query: geo_q.clone(),
        })
        .unwrap();
    assert!(!mr_geo.select_rows().is_empty());

    // emergency response: everything.
    let em = svc
        .handle(&ClientRequest {
            role: ns::sec("Emergency"),
            query: chem_q.clone(),
        })
        .unwrap();
    assert!(!em.select_rows().is_empty());

    // Cached repetition returns identical results.
    let em2 = svc
        .handle(&ClientRequest {
            role: ns::sec("Emergency"),
            query: chem_q,
        })
        .unwrap();
    assert_eq!(em.select_rows().len(), em2.select_rows().len());
    let (hits, _) = svc.cache_stats();
    assert!(hits >= 1);
}

#[test]
fn merge_then_policy_still_works() {
    // The §7 claim: "if base data model changes or [is] aggregated with
    // other data sources, the same security framework will continue to
    // work."
    let mut store = GrdfStore::new();
    store.merge_graph(&incident_data(5, 5));
    // Aggregate a new source with its own vocabulary.
    store
        .load_turtle(
            r"@prefix app: <http://grdf.org/app#> .
               @prefix wx: <urn:wx#> .
               @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               wx:Depot rdfs:subClassOf app:ChemSite .
               wx:depot1 a wx:Depot ; app:hasChemicalInfo wx:depot1chem .
            ",
        )
        .unwrap();
    store.materialize();

    let policies = scenario_policies();
    let (view, _) =
        grdf::security::views::secure_view(store.graph(), &policies, &ns::sec("MainRep"));
    // The depot is governed: its chemical link is suppressed even though
    // no policy mentions wx:Depot.
    assert!(view
        .match_pattern(
            Some(&Term::iri("urn:wx#depot1")),
            Some(&Term::iri(&ns::app("hasChemicalInfo"))),
            None
        )
        .is_empty());
    // But it is still visible as a typed object.
    assert!(!view
        .match_pattern(
            Some(&Term::iri("urn:wx#depot1")),
            Some(&Term::iri(rdf::TYPE)),
            None
        )
        .is_empty());
}

#[test]
fn store_export_formats_are_mutually_consistent() {
    let mut store = GrdfStore::new();
    store.merge_graph(&incident_data(5, 5));
    let ttl = store.to_turtle();
    let xml = store.to_rdfxml().unwrap();
    let g_ttl = grdf::rdf::turtle::parse(&ttl).unwrap();
    let g_xml = grdf::rdf::rdfxml::parse(&xml).unwrap();
    assert_eq!(g_ttl.len(), store.len());
    assert_eq!(g_xml.len(), store.len());
}

#[test]
fn gsacs_serves_concurrent_clients_consistently() {
    // Fig. 3's front-end serves many clients; the shared service must give
    // each thread the same answers a sequential run would.
    let mut repo = OntoRepository::new();
    repo.register("grdf", grdf_ontology());
    let svc = GSacs::new(
        repo,
        scenario_policies(),
        Box::<OwlHorstEngine>::default(),
        incident_data(20, 20),
        128,
    );
    let chem_q = format!(
        "PREFIX app: <{}>\nSELECT ?i WHERE {{ ?s app:hasChemicalInfo ?i }}",
        ns::APP_NS
    );
    let expected = svc
        .handle(&ClientRequest {
            role: ns::sec("Emergency"),
            query: chem_q.clone(),
        })
        .unwrap()
        .select_rows()
        .len();
    assert!(expected > 0);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..8 {
            let svc = &svc;
            let chem_q = chem_q.clone();
            handles.push(scope.spawn(move || {
                let role = if i % 2 == 0 {
                    ns::sec("Emergency")
                } else {
                    ns::sec("MainRep")
                };
                let mut counts = Vec::new();
                for _ in 0..20 {
                    let r = svc
                        .handle(&ClientRequest {
                            role: role.clone(),
                            query: chem_q.clone(),
                        })
                        .unwrap();
                    counts.push(r.select_rows().len());
                }
                (i, counts)
            }));
        }
        for h in handles {
            let (i, counts) = h.join().expect("no panics");
            let want = if i % 2 == 0 { expected } else { 0 };
            assert!(counts.iter().all(|c| *c == want), "thread {i}: {counts:?}");
        }
    });
    let (hits, misses) = svc.cache_stats();
    assert!(hits + misses >= 160);
}

#[test]
fn encoded_topology_reasons_with_the_grdf_ontology() {
    // Fig. 2 end-to-end: build a drainage topology, encode it as triples,
    // merge with the GRDF ontology (whose connectedTo/reachableFrom carry
    // symmetric/transitive/subproperty axioms), materialize, and query
    // reachability — connectivity answered at the RDF level.
    use grdf::topology::model::TopologyModel;

    let mut m = TopologyModel::new();
    let nodes: Vec<_> = (0..5).map(|_| m.add_node()).collect();
    for w in nodes.windows(2) {
        m.add_edge(w[0], w[1]).unwrap();
    }
    let mut store = GrdfStore::new();
    grdf::topology::rdf_codec::encode_topology(store.graph_mut(), "urn:topo#", &m);
    store.materialize();

    let reachable = store
        .query(
            "PREFIX grdf: <http://grdf.org/ontology#>
             ASK { <urn:topo#node0> grdf:reachableFrom <urn:topo#node4> }",
        )
        .unwrap();
    assert_eq!(reachable.as_bool(), Some(true));
    // And the decoded model agrees.
    let back = grdf::topology::rdf_codec::decode_topology(store.graph(), "urn:topo#").unwrap();
    assert!(back.connected(nodes[0], nodes[4]));
}

#[test]
fn silo_answers_nothing_merged_answers_everything() {
    // E4's claim in miniature: cross-domain question, siloed vs merged.
    let cross = "PREFIX app: <http://grdf.org/app#>
         SELECT ?site ?stream WHERE { ?site a app:ChemSite . ?stream a app:Stream . } LIMIT 5";

    let mut hydro_only = GrdfStore::new();
    let hydro = generate_hydrology(&HydrologyConfig {
        streams: 10,
        seed: 5,
        ..Default::default()
    });
    for f in &hydro.features {
        hydro_only.insert_feature(f).unwrap();
    }
    assert_eq!(hydro_only.query(cross).unwrap().select_rows().len(), 0);

    let mut merged = GrdfStore::new();
    merged.merge_graph(&incident_data(10, 10));
    assert!(!merged.query(cross).unwrap().select_rows().is_empty());
}

/// Observability guard for CI: every instrumented stage of the Fig. 3
/// pipeline must emit at least one span in the end-to-end scenario, all
/// sharing one `TraceId`. A stage whose instrumentation regresses to
/// zero spans fails this test (and therefore the build).
#[test]
fn every_instrumented_stage_emits_spans() {
    use grdf::security::ResilienceConfig;

    let obs = grdf::obs::Obs::with_tracing(256);
    let config = ResilienceConfig {
        obs: obs.clone(),
        ..ResilienceConfig::default()
    };
    let mut repo = OntoRepository::new();
    repo.register("grdf", grdf_ontology());
    repo.register("seconto", security_ontology());
    // Build + request inside one scope so construction-time reasoner
    // spans share the request's TraceId.
    let scope_obs = obs.clone();
    {
        let _scope = scope_obs.scope("scenario");
        let svc = GSacs::with_resilience(
            repo,
            scenario_policies(),
            Box::<OwlHorstEngine>::default(),
            incident_data(10, 10),
            16,
            config,
        );
        let req = ClientRequest {
            role: ns::sec("Emergency"),
            query: format!(
                "PREFIX app: <{}>\nSELECT ?c WHERE {{ ?s app:hasChemCode ?c }}",
                ns::APP_NS
            ),
        };
        svc.handle(&req).unwrap();
        svc.handle(&req).unwrap(); // second request exercises the cache-hit path
    }
    let records = obs.sink().records();
    assert_eq!(records.len(), 1, "one scope → one trace");
    let trace = &records[0];
    for stage in [
        "gsacs.init",
        "reasoner.materialize",
        "reasoner.pass",
        "gsacs.request",
        "gsacs.admission",
        "gsacs.cache",
        "labels.compile",
        "gsacs.decision",
        "query.parse",
        "query.plan",
        "query.join",
    ] {
        assert!(
            !trace.spans_named(stage).is_empty(),
            "instrumented stage {stage:?} emitted zero spans"
        );
    }
    // Both cache outcomes observed.
    let cache_results: Vec<_> = trace
        .spans_named("gsacs.cache")
        .iter()
        .filter_map(|s| s.tag("result").map(str::to_string))
        .collect();
    assert!(cache_results.iter().any(|r| r == "miss"));
    assert!(cache_results.iter().any(|r| r == "hit"));
    // JSON-lines export carries the shared trace id on every line.
    let json = obs.sink().json_lines();
    assert!(json.lines().count() >= trace.spans.len());
    assert!(json.contains(&trace.id.to_string()));
}
