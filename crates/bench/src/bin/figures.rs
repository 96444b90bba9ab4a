//! Regenerate every experiment table (E1–E6) from DESIGN.md §5.
//!
//! Usage: `cargo run --release -p grdf-bench --bin figures [--json PATH]`
//!
//! The paper reports no absolute numbers (its artifacts are an ontology
//! diagram, listings, and an architecture figure); these tables quantify
//! the claims each artifact supports, and EXPERIMENTS.md records a
//! reference run.

use std::time::Instant;

use grdf_bench::{
    incident_graph, incident_store, roles, scenario_policies, sensitive_properties, xacml_policies,
};
use grdf_core::ontology::{grdf_ontology, stats};
use grdf_core::store::GrdfStore;
use grdf_rdf::graph::{Graph, IndexMode};
use grdf_rdf::term::Term;
use grdf_rdf::vocab::{grdf, rdf};
use grdf_security::gsacs::{ClientRequest, GSacs, OntoRepository, OwlHorstEngine};
use grdf_security::views::{secure_view, view_property_count};
use grdf_topology::model::{DirectedEdge, TopologyModel};
use grdf_workload::requests::{generate_requests, RequestConfig};

#[derive(Default)]
struct Report {
    e1: Vec<E1Row>,
    e2: Vec<E2Row>,
    e3: Vec<E3Row>,
    e4: Vec<E4Row>,
    e5: Vec<E5Row>,
    e6: Vec<E6Row>,
}

fn main() {
    let json_path = std::env::args().skip_while(|a| a != "--json").nth(1);
    let mut report = Report::default();

    println!("# GRDF experiment tables (regenerated)\n");
    e1_ontology(&mut report);
    e2_gml(&mut report);
    e3_topology(&mut report);
    e4_aggregation(&mut report);
    e5_security(&mut report);
    e6_gsacs(&mut report);

    if let Some(path) = json_path {
        let json = to_json(&report);
        std::fs::write(&path, json).expect("write json");
        println!("\nwrote {path}");
    }
}

fn to_json(report: &Report) -> String {
    // serde_json is not in the allowed set, so emit compact JSON by hand
    // from the typed rows.
    let mut s = String::from("{\n");
    macro_rules! section {
        ($name:literal, $rows:expr, $fmt:expr) => {
            s.push_str(&format!("  \"{}\": [\n", $name));
            for (i, r) in $rows.iter().enumerate() {
                s.push_str(&format!(
                    "    {}{}\n",
                    $fmt(r),
                    if i + 1 < $rows.len() { "," } else { "" }
                ));
            }
            s.push_str("  ],\n");
        };
    }
    section!("e1", report.e1, |r: &E1Row| format!(
        r#"{{"features": {}, "triples": {}, "inferred": {}, "materialize_ms": {:.1}, "match_full_ms": {:.2}, "match_spo_only_ms": {:.2}}}"#,
        r.features, r.triples, r.inferred, r.materialize_ms, r.match_full_ms, r.match_spo_only_ms
    ));
    section!("e2", report.e2, |r: &E2Row| format!(
        r#"{{"features": {}, "gml_to_grdf_ms": {:.1}, "grdf_to_gml_ms": {:.1}, "fixpoint": {}}}"#,
        r.features, r.gml_to_grdf_ms, r.grdf_to_gml_ms, r.fixpoint
    ));
    section!("e3", report.e3, |r: &E3Row| format!(
        r#"{{"faces": {}, "build_ms": {:.2}, "connectivity_ms": {:.2}, "euler": {}, "realize_ms": {:.2}}}"#,
        r.faces, r.build_ms, r.connectivity_ms, r.euler, r.realize_ms
    ));
    section!("e4", report.e4, |r: &E4Row| format!(
        r#"{{"streams": {}, "sites": {}, "silo_answers": {}, "merged_answers": {}, "identities_no_reasoning": {}, "identities_reasoning": {}, "materialize_ms": {:.1}, "query_ms": {:.2}}}"#,
        r.streams,
        r.sites,
        r.silo_answers,
        r.merged_answers,
        r.identities_no_reasoning,
        r.identities_reasoning,
        r.materialize_ms,
        r.query_ms
    ));
    section!("e5", report.e5, |r: &E5Row| format!(
        r#"{{"role": "{}", "model": "{}", "view_triples": {}, "leaked_sensitive": {}, "aligned_covered": {}, "view_ms": {:.1}}}"#,
        r.role, r.model, r.view_triples, r.leaked_sensitive, r.aligned_covered, r.view_ms
    ));
    section!("e6", report.e6, |r: &E6Row| format!(
        r#"{{"zipf_s": {}, "cache": {}, "requests": {}, "hit_rate": {:.3}, "throughput_rps": {:.0}}}"#,
        r.zipf_s, r.cache, r.requests, r.hit_rate, r.throughput_rps
    ));
    // Trim the trailing comma of the last section.
    if s.ends_with(",\n") {
        s.truncate(s.len() - 2);
        s.push('\n');
    }
    s.push('}');
    s
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// E1 — Fig. 1: the GRDF ontology; load/materialize scaling; index ablation.
// ---------------------------------------------------------------------------

struct E1Row {
    features: usize,
    triples: usize,
    inferred: usize,
    materialize_ms: f64,
    match_full_ms: f64,
    match_spo_only_ms: f64,
}

fn e1_ontology(report: &mut Report) {
    let onto = grdf_ontology();
    let s = stats(&onto);
    println!("## E1 — Fig. 1: GRDF ontology\n");
    println!(
        "ontology: {} classes, {} object properties, {} datatype properties, {} axiom triples\n",
        s.classes, s.object_properties, s.datatype_properties, s.triples
    );
    println!("| features | triples | inferred | materialize (ms) | match full-idx (ms) | match spo-only (ms) |");
    println!("|---|---|---|---|---|---|");
    for features in [500usize, 2_000, 8_000] {
        let streams = features / 2;
        let sites = features / 6; // each site contributes ~3 features
        let mut store = incident_store(streams, sites, 11);
        let triples = store.len();
        let t = Instant::now();
        let rs = store.materialize();
        let materialize_ms = ms(t);

        // Index ablation: answer the same ?s type pattern under both modes.
        let probe = Term::iri(&grdf::app("ChemSite"));
        let t = Instant::now();
        for _ in 0..50 {
            store
                .graph()
                .count_pattern(None, Some(&Term::iri(rdf::TYPE)), Some(&probe));
        }
        let match_full_ms = ms(t);
        let mut lean = Graph::with_index_mode(IndexMode::SpoOnly);
        lean.extend_from(store.graph());
        let t = Instant::now();
        for _ in 0..50 {
            lean.count_pattern(None, Some(&Term::iri(rdf::TYPE)), Some(&probe));
        }
        let match_spo_only_ms = ms(t);

        println!(
            "| {features} | {triples} | {} | {materialize_ms:.1} | {match_full_ms:.2} | {match_spo_only_ms:.2} |",
            rs.inferred
        );
        report.e1.push(E1Row {
            features,
            triples,
            inferred: rs.inferred,
            materialize_ms,
            match_full_ms,
            match_spo_only_ms,
        });
    }
    println!();
}

// ---------------------------------------------------------------------------
// E2 — List 1 / §3.2: GML↔GRDF conversion.
// ---------------------------------------------------------------------------

struct E2Row {
    features: usize,
    gml_to_grdf_ms: f64,
    grdf_to_gml_ms: f64,
    fixpoint: bool,
}

fn e2_gml(report: &mut Report) {
    println!("## E2 — §3.2 / List 1: GML ⇄ GRDF conversion\n");
    println!("| features | GML→GRDF (ms) | GRDF→GML (ms) | roundtrip fixpoint |");
    println!("|---|---|---|---|");
    for features in [200usize, 1_000, 4_000] {
        let hydro = grdf_workload::hydrology::generate_hydrology(
            &grdf_workload::hydrology::HydrologyConfig {
                streams: features,
                seed: 3,
                ..Default::default()
            },
        );
        let gml = grdf_gml::write::write_gml(&hydro);
        let t = Instant::now();
        let g = grdf_gml::convert::gml_to_grdf(&gml).expect("convert");
        let gml_to_grdf_ms = ms(t);
        let t = Instant::now();
        let gml2 = grdf_gml::convert::grdf_to_gml(&g);
        let grdf_to_gml_ms = ms(t);
        let g2 = grdf_gml::convert::gml_to_grdf(&gml2).expect("convert back");
        let fixpoint = g.len() == g2.len();
        println!("| {features} | {gml_to_grdf_ms:.1} | {grdf_to_gml_ms:.1} | {fixpoint} |");
        report.e2.push(E2Row {
            features,
            gml_to_grdf_ms,
            grdf_to_gml_ms,
            fixpoint,
        });
    }
    println!();
}

// ---------------------------------------------------------------------------
// E3 — Fig. 2 / List 5: topology without coordinates + realization.
// ---------------------------------------------------------------------------

struct E3Row {
    faces: usize,
    build_ms: f64,
    connectivity_ms: f64,
    euler: i64,
    realize_ms: f64,
}

/// Build an n×n grid mesh (each cell one square face).
fn grid_mesh(n: usize) -> (TopologyModel, Vec<Vec<grdf_topology::model::NodeId>>) {
    let mut m = TopologyModel::new();
    let nodes: Vec<Vec<_>> = (0..=n)
        .map(|_| (0..=n).map(|_| m.add_node()).collect())
        .collect();
    // Horizontal and vertical edges.
    let mut h = vec![vec![None; n]; n + 1];
    let mut v = vec![vec![None; n + 1]; n];
    for (r, row) in nodes.iter().enumerate() {
        for c in 0..n {
            h[r][c] = Some(m.add_edge(row[c], row[c + 1]).unwrap());
        }
    }
    for r in 0..n {
        for c in 0..=n {
            v[r][c] = Some(m.add_edge(nodes[r][c], nodes[r + 1][c]).unwrap());
        }
    }
    for r in 0..n {
        for c in 0..n {
            m.add_face(vec![
                DirectedEdge::forward(h[r][c].unwrap()),
                DirectedEdge::forward(v[r][c + 1].unwrap()),
                DirectedEdge::reverse(h[r + 1][c].unwrap()),
                DirectedEdge::reverse(v[r][c].unwrap()),
            ])
            .unwrap();
        }
    }
    (m, nodes)
}

fn e3_topology(report: &mut Report) {
    println!("## E3 — Fig. 2 / List 5: topology model\n");
    println!("| faces | build (ms) | 100 connectivity queries (ms) | Euler χ | realization (ms) |");
    println!("|---|---|---|---|---|");
    for n in [10usize, 30, 70] {
        let t = Instant::now();
        let (m, nodes) = grid_mesh(n);
        let build_ms = ms(t);
        let t = Instant::now();
        for i in 0..100 {
            let a = nodes[i % (n + 1)][0];
            let b = nodes[(i * 7) % (n + 1)][n];
            assert!(m.connected(a, b));
        }
        let connectivity_ms = ms(t);
        let euler = m.euler_characteristic();

        // Realize every node/edge with straight-line geometry.
        let coords: std::collections::HashMap<_, _> = nodes
            .iter()
            .enumerate()
            .flat_map(|(r, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(c, id)| (*id, grdf_geometry::coord::Coord::xy(c as f64, r as f64)))
            })
            .collect();
        let t = Instant::now();
        let real =
            grdf_topology::realize::Realization::realize_graph_straight(&m, &coords).unwrap();
        let realize_ms = ms(t);
        assert!(real.total_edge_length() > 0.0);

        println!(
            "| {} | {build_ms:.2} | {connectivity_ms:.2} | {euler} | {realize_ms:.2} |",
            m.face_count()
        );
        report.e3.push(E3Row {
            faces: m.face_count(),
            build_ms,
            connectivity_ms,
            euler,
            realize_ms,
        });
    }
    println!();
}

// ---------------------------------------------------------------------------
// E4 — Lists 6–7: cross-domain aggregation and inference.
// ---------------------------------------------------------------------------

struct E4Row {
    streams: usize,
    sites: usize,
    silo_answers: usize,
    merged_answers: usize,
    identities_no_reasoning: usize,
    identities_reasoning: usize,
    materialize_ms: f64,
    query_ms: f64,
}

fn e4_aggregation(report: &mut Report) {
    println!("## E4 — Lists 6–7: heterogeneous aggregation\n");
    println!("| streams | sites | silo answers | merged answers | identities (no reasoning) | identities (reasoning) | materialize (ms) | cross-domain query (ms) |");
    println!("|---|---|---|---|---|---|---|---|");
    let cross_query = format!(
        "PREFIX app: <{}>\nSELECT ?site ?stream WHERE {{\n  ?site a app:ChemSite . ?stream a app:Stream .\n  FILTER(grdf:distance(?site, ?stream) < 20000)\n}}",
        grdf::APP_NS
    );
    for (streams, sites) in [(50usize, 50usize), (200, 200), (500, 500)] {
        // Siloed: the hydrology store alone cannot answer the cross-domain
        // question (no ChemSite bindings).
        let mut hydro_only = GrdfStore::new();
        let hydro = grdf_workload::hydrology::generate_hydrology(
            &grdf_workload::hydrology::HydrologyConfig {
                streams,
                seed: 11,
                ..Default::default()
            },
        );
        for f in &hydro.features {
            hydro_only.insert_feature(f).unwrap();
        }
        let silo_answers = hydro_only.query(&cross_query).unwrap().select_rows().len();

        // Merged GRDF store.
        let mut store = incident_store(streams, sites, 11);
        let identities_no_reasoning = store.same_as_links().len();
        let t = Instant::now();
        store.materialize();
        let materialize_ms = ms(t);
        let identities_reasoning = store.same_as_links().len();
        let t = Instant::now();
        let merged_answers = store.query(&cross_query).unwrap().select_rows().len();
        let query_ms = ms(t);

        println!(
            "| {streams} | {sites} | {silo_answers} | {merged_answers} | {identities_no_reasoning} | {identities_reasoning} | {materialize_ms:.1} | {query_ms:.2} |"
        );
        report.e4.push(E4Row {
            streams,
            sites,
            silo_answers,
            merged_answers,
            identities_no_reasoning,
            identities_reasoning,
            materialize_ms,
            query_ms,
        });
    }
    println!();
    e4b_spatial_index();
}

/// E4b ablation: spatial window probes through the R-tree vs linear scan.
fn e4b_spatial_index() {
    use grdf_geometry::coord::Coord;
    use grdf_geometry::envelope::Envelope;
    println!("### E4b — spatial index ablation (window probes over the merged store)\n");
    println!("| features indexed | window hits | 100 probes via R-tree (ms) | 100 probes via scan (ms) | index build (ms) |");
    println!("|---|---|---|---|---|");
    for size in [200usize, 800] {
        let mut store = incident_store(size, size, 11);
        store.materialize();
        let t = Instant::now();
        let index = store.spatial_index();
        let build_ms = ms(t);
        let window = Envelope::new(
            Coord::xy(2_520_000.0, 7_060_000.0),
            Coord::xy(2_560_000.0, 7_100_000.0),
        );
        let hits = index.count_in(&window);
        assert_eq!(hits, store.features_in_window_scan(&window).len());
        let t = Instant::now();
        for _ in 0..100 {
            std::hint::black_box(index.count_in(&window));
        }
        let rtree_ms = ms(t);
        let t = Instant::now();
        for _ in 0..100 {
            std::hint::black_box(store.features_in_window_scan(&window).len());
        }
        let scan_ms = ms(t);
        println!(
            "| {} | {hits} | {rtree_ms:.2} | {scan_ms:.2} | {build_ms:.2} |",
            index.len()
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E5 — List 8 / §7.1: fine-grained vs object-level access control.
// ---------------------------------------------------------------------------

struct E5Row {
    role: String,
    model: String,
    view_triples: usize,
    leaked_sensitive: usize,
    aligned_covered: bool,
    view_ms: f64,
}

fn e5_security(report: &mut Report) {
    println!("## E5 — List 8 / §7.1: fine-grained vs object-level security\n");
    let mut store = incident_store(100, 100, 13);
    // Aggregate a second vocabulary aligned by subclassing (merge test).
    store
        .load_turtle(
            r#"@prefix app: <http://grdf.org/app#> .
               @prefix wx: <urn:wx#> .
               @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               wx:MonitoredFacility rdfs:subClassOf app:ChemSite .
               wx:station77 a wx:MonitoredFacility ;
                  app:hasChemicalInfo wx:station77chem ;
                  app:hasSiteName "Aligned Facility 77" .
            "#,
        )
        .unwrap();
    // The GeoXACML baseline has no reasoner: it sees the raw merged graph.
    let raw = store.graph().clone();
    store.materialize();
    let data = store.graph();
    let sensitive = sensitive_properties();
    let grdf_ps = scenario_policies();
    let xacml_ps = xacml_policies();
    let aligned_subject = "urn:wx#station77";

    println!("| role | model | view triples | leaked sensitive triples | aligned facility covered | view build (ms) |");
    println!("|---|---|---|---|---|---|");
    for role in [roles::main_repair(), roles::hazmat(), roles::emergency()] {
        // GRDF fine-grained.
        let t = Instant::now();
        let (gview, _) = secure_view(data, &grdf_ps, &role);
        let gms = ms(t);
        let gleak = leak_count(&gview, &role, &sensitive);
        let gcovered = covered(&gview, aligned_subject, &role);
        print_e5(report, &role, "GRDF", gview.len(), gleak, gcovered, gms);

        // GeoXACML object-level, over the unmaterialized graph.
        let t = Instant::now();
        let (xview, _) = xacml_ps.view(&raw, &role);
        let xms = ms(t);
        let xleak = leak_count(&xview, &role, &sensitive);
        let xcovered = covered(&xview, aligned_subject, &role);
        print_e5(report, &role, "GeoXACML", xview.len(), xleak, xcovered, xms);
    }
    println!();
    println!(
        "(leaks are counted for roles that must not see chemistry/contact data: 'main repair' all five sensitive properties, 'hazmat' contacts+ids only; 'covered' = the subclass-aligned facility from the merged vocabulary is governed+visible per that role's policy)\n"
    );
}

fn leak_count(view: &Graph, role: &str, sensitive: &[String]) -> usize {
    // What counts as a leak depends on the role's intent.
    let forbidden: Vec<&String> = if role.ends_with("MainRep") {
        sensitive.iter().collect()
    } else if role.ends_with("Hazmat") {
        sensitive
            .iter()
            .filter(|p| p.ends_with("hasContactPhone") || p.ends_with("hasSiteId"))
            .collect()
    } else {
        Vec::new() // emergency response may see everything
    };
    forbidden.iter().map(|p| view_property_count(view, p)).sum()
}

fn covered(view: &Graph, subject: &str, role: &str) -> bool {
    // Coverage means: the role that should see the site's extent/name can
    // see *something* about it. Emergency and hazmat should; main repair
    // sees at least its type. For the XACML baseline the aligned facility
    // simply vanishes (its asserted type is alien to the rules).
    let _ = role;
    !view
        .match_pattern(Some(&Term::iri(subject)), None, None)
        .is_empty()
}

fn print_e5(
    report: &mut Report,
    role: &str,
    model: &str,
    view_triples: usize,
    leaked: usize,
    aligned_covered: bool,
    view_ms: f64,
) {
    let short = role.rsplit('#').next().unwrap_or(role);
    println!(
        "| {short} | {model} | {view_triples} | {leaked} | {aligned_covered} | {view_ms:.1} |"
    );
    report.e5.push(E5Row {
        role: short.to_string(),
        model: model.to_string(),
        view_triples,
        leaked_sensitive: leaked,
        aligned_covered,
        view_ms,
    });
}

// ---------------------------------------------------------------------------
// E6 — Fig. 3: G-SACS query cache.
// ---------------------------------------------------------------------------

struct E6Row {
    zipf_s: f64,
    cache: usize,
    requests: usize,
    hit_rate: f64,
    throughput_rps: f64,
}

fn e6_gsacs(report: &mut Report) {
    println!("## E6 — Fig. 3: G-SACS architecture (query cache sweep)\n");
    println!("| zipf s | cache entries | requests | hit rate | throughput (req/s) |");
    println!("|---|---|---|---|---|");
    let data = incident_graph(150, 150, 17);
    for zipf_s in [0.8f64, 1.2] {
        for cache in [0usize, 64, 1024] {
            let mut repo = OntoRepository::new();
            repo.register("grdf", grdf_ontology());
            repo.register("seconto", grdf_security::ontology::security_ontology());
            let svc = GSacs::new(
                repo,
                scenario_policies(),
                Box::<OwlHorstEngine>::default(),
                data.clone(),
                cache,
            );
            let reqs = generate_requests(&RequestConfig {
                count: 600,
                distinct_queries: 100,
                zipf_s,
                seed: 23,
                ..Default::default()
            });
            let t = Instant::now();
            for r in &reqs {
                svc.handle(&ClientRequest {
                    role: r.role.clone(),
                    query: r.query.clone(),
                })
                .expect("request succeeds");
            }
            let secs = t.elapsed().as_secs_f64();
            let hit_rate = svc.cache_hit_rate();
            let throughput = reqs.len() as f64 / secs;
            println!(
                "| {zipf_s} | {cache} | {} | {hit_rate:.3} | {throughput:.0} |",
                reqs.len()
            );
            report.e6.push(E6Row {
                zipf_s,
                cache,
                requests: reqs.len(),
                hit_rate,
                throughput_rps: throughput,
            });
        }
    }
    println!();
}
