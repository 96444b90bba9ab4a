//! Differential verification of the label compiler: for every role, the
//! label-filtered scan must equal the materialized secure view of
//! `grdf::security::views::secure_view` — on every lint-corpus graph, on
//! the §7.1 three-role incident scenario (where the GeoXACML
//! object-level contrast must also reproduce), on seeded random policy
//! sets over random OWL schemas, and through the served G-SACS after
//! every step of seeded update sequences (delta relabeling), where the
//! patched labels must also equal a fresh compile. Every suite resweeps
//! under `GRDF_MASTER_SEED`.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use grdf::feature::{encode_feature, Feature};
use grdf::owl::reasoner::Reasoner;
use grdf::query::execute;
use grdf::rdf::term::{Term, Triple};
use grdf::rdf::vocab::{grdf as ns, rdfs};
use grdf::rdf::Graph;
use grdf::security::gsacs::{
    ClientRequest, GSacs, OntoRepository, OwlHorstEngine, UpdateOp, UpdateRequest,
};
use grdf::security::labels::{LabelIr, RoleHierarchy};
use grdf::security::policy::{Action, Policy, PolicySet};
use grdf::security::views::{secure_view, view_property_count};
use grdf::workload::incident::{incident_store, roles, scenario_policies, xacml_policies};

const TYPES: &[&str] = &["ChemSite", "Stream", "ChemInfo", "Depot"];
const PROPS: &[&str] = &[
    "hasSiteName",
    "hasChemCode",
    "hasContactPhone",
    "hasObjectID",
];

/// Every role's label-filtered view must equal its effective secure view.
fn assert_equivalent(data: &Graph, policies: &PolicySet, context: &str) {
    let ir = LabelIr::compile(data, policies);
    let divergences = ir.verify_label_equivalence(data, policies);
    assert!(
        divergences.is_empty(),
        "{context}: {} divergence(s), first: {}",
        divergences.len(),
        divergences[0]
    );
}

#[test]
fn label_equivalence_holds_on_every_corpus_graph() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus");
    let mut checked = 0;
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ttl"))
        .collect();
    paths.sort();
    for path in paths {
        if path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().ends_with(".policies.ttl"))
        {
            continue;
        }
        let src = fs::read_to_string(&path).expect("fixture readable");
        let graph = grdf::rdf::turtle::parse(&src).expect("fixture parses");
        let mut policies = Policy::decode_all(&graph);
        let sidecar = path.with_extension("policies.ttl");
        if sidecar.exists() {
            let pg = grdf::rdf::turtle::parse(&fs::read_to_string(&sidecar).expect("sidecar"))
                .expect("sidecar parses");
            policies.extend(Policy::decode_all(&pg));
        }
        if policies.is_empty() {
            continue;
        }
        assert_equivalent(
            &graph,
            &PolicySet::new(policies),
            &path.display().to_string(),
        );
        checked += 1;
    }
    assert!(checked >= 8, "corpus supplies enough policy-bearing graphs");
}

#[test]
fn scenario_three_roles_equivalent_with_geoxacml_contrast() {
    let mut store = incident_store(20, 20, 7);
    store.materialize();
    let ps = scenario_policies();
    let ir = LabelIr::compile(store.graph(), &ps);
    let divergences = ir.verify_label_equivalence(store.graph(), &ps);
    assert!(divergences.is_empty(), "{divergences:?}");

    // Fine-grained labels: 'main repair' sees extents but no chemistry…
    let chem_prop = ns::app("hasChemicalInfo");
    let mr = ir.filtered_view(store.graph(), &ir.authorizations(&roles::main_repair()));
    assert_eq!(view_property_count(&mr, &chem_prop), 0);
    assert!(view_property_count(&mr, &ns::iri("isBoundedBy")) > 0);

    // …while the object-level (GeoXACML-granularity) encoding of the same
    // intent must over-grant: whole ChemSites including the chemical link.
    let (xacml_view, _) = xacml_policies().view(store.graph(), &roles::main_repair());
    assert!(view_property_count(&xacml_view, &chem_prop) > 0);

    // Privilege ordering across the three roles.
    let count = |role: &str| {
        ir.filtered_view(store.graph(), &ir.authorizations(role))
            .len()
    };
    let (mr, hz, em) = (
        count(&roles::main_repair()),
        count(&roles::hazmat()),
        count(&roles::emergency()),
    );
    assert!(
        mr < hz && hz <= em,
        "expected MainRep < Hazmat <= Emergency, got {mr}/{hz}/{em}"
    );
}

/// A random instance dataset over the small type/property universe.
fn arb_dataset() -> impl Strategy<Value = Graph> {
    prop::collection::vec(
        (
            0..TYPES.len(),
            prop::collection::vec((0..PROPS.len(), "[a-z]{1,6}"), 0..4),
        ),
        1..10,
    )
    .prop_map(|features| {
        let mut g = Graph::new();
        for (i, (ty, props)) in features.into_iter().enumerate() {
            let mut f = Feature::new(&ns::app(&format!("x{i}")), TYPES[ty]);
            for (p, v) in props {
                f.set_property(PROPS[p], v.as_str());
            }
            encode_feature(&mut g, &f);
        }
        g
    })
}

/// A random OWL schema fragment: subclass edges over the type universe
/// and subproperty edges over the property universe.
fn arb_schema() -> impl Strategy<Value = Vec<(usize, usize, bool)>> {
    prop::collection::vec((0..TYPES.len(), 0..TYPES.len(), prop::bool::ANY), 0..4)
}

/// A random policy list for one role over the universe.
fn arb_role_policies(tag: usize) -> impl Strategy<Value = Vec<(usize, Option<Vec<usize>>, bool)>> {
    let _ = tag;
    prop::collection::vec(
        (
            0..TYPES.len(),
            prop::option::of(prop::collection::vec(0..PROPS.len(), 1..3)),
            prop::bool::ANY,
        ),
        0..5,
    )
}

fn build_policies(
    role: &str,
    tag: usize,
    rules: &[(usize, Option<Vec<usize>>, bool)],
) -> Vec<Policy> {
    rules
        .iter()
        .enumerate()
        .map(|(i, (ty, props, deny))| {
            let id = format!("urn:policy#{tag}-{i}");
            if *deny {
                Policy::deny(&id, role, &ns::app(TYPES[*ty]))
            } else {
                match props {
                    None => Policy::permit(&id, role, &ns::app(TYPES[*ty])),
                    Some(ps) => {
                        let names: Vec<String> = ps.iter().map(|p| ns::app(PROPS[*p])).collect();
                        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                        Policy::permit_properties(&id, role, &ns::app(TYPES[*ty]), &refs)
                    }
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ≥100 seeded cases: random data, random schema axioms, random
    /// two-role policy sets, random role-hierarchy edge — the compiled
    /// labels must always reproduce the secure views exactly.
    #[test]
    fn label_filter_equals_secure_view(
        data in arb_dataset(),
        schema in arb_schema(),
        rules_a in arb_role_policies(0),
        rules_b in arb_role_policies(1),
        link_roles in prop::bool::ANY,
        materialize in prop::bool::ANY,
    ) {
        let mut data = data;
        for (sub, sup, subprop) in schema {
            if sub == sup {
                continue;
            }
            if subprop {
                data.add(
                    Term::iri(&ns::app(PROPS[sub % PROPS.len()])),
                    Term::iri(rdfs::SUB_PROPERTY_OF),
                    Term::iri(&ns::app(PROPS[sup % PROPS.len()])),
                );
            } else {
                data.add(
                    Term::iri(&ns::app(TYPES[sub])),
                    Term::iri(rdfs::SUB_CLASS_OF),
                    Term::iri(&ns::app(TYPES[sup])),
                );
            }
        }
        let role_a = ns::sec("RoleA");
        let role_b = ns::sec("RoleB");
        if link_roles {
            let mut rh = RoleHierarchy::new();
            rh.add(&role_b, &role_a);
            rh.encode(&mut data);
        }
        if materialize {
            Reasoner::default().materialize(&mut data);
        }
        let mut policies = build_policies(&role_a, 0, &rules_a);
        policies.extend(build_policies(&role_b, 1, &rules_b));
        if policies.is_empty() {
            return Ok(());
        }
        assert_equivalent(&data, &PolicySet::new(policies), "random case");
    }
}

// --- delta relabeling through the served path ----------------------------

/// One seeded update step against the served G-SACS (see
/// [`delta_relabel_matches_reference_after_every_step`]).
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Type a site as a Refinery: into RoleA's (and, inherited, RoleB's)
    /// denied class.
    IntoDenied(usize),
    /// Delete that type again: out of the denied class (full rebuild).
    OutOfDenied(usize),
    /// A predicate the data has never held, named by RoleA's
    /// property-conditioned permit.
    NewPredicate(usize),
    /// A blank geometry subtree under a visible property, in three
    /// requests: hang a blank node off a site, fill it with its WKT and a
    /// deeper blank corner node, fill the corner. Each request can only
    /// edit the nodes the previous one typed (by range inference).
    Geometry(usize, usize),
    /// A schema triple: a new subclass or subproperty edge.
    Schema(usize),
    /// A value under the subproperty a schema step may declare.
    Alias(usize),
    /// Delete a site's name.
    DeleteName(usize),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0..7usize, 0..4usize, 0..3usize).prop_map(|(kind, site, node)| match kind {
            0 => Step::IntoDenied(site),
            1 => Step::OutOfDenied(site),
            2 => Step::NewPredicate(site),
            3 => Step::Geometry(site, node),
            4 => Step::Schema(node % 2),
            5 => Step::Alias(site),
            _ => Step::DeleteName(site),
        }),
        4..12,
    )
}

const EDITOR: &str = "urn:role#Editor";

fn site(i: usize) -> Term {
    Term::iri(&ns::app(&format!("site{i}")))
}

fn geometry_node(k: usize) -> Term {
    Term::blank(&format!("geo{k}"))
}

fn corner_node(k: usize) -> Term {
    Term::blank(&format!("corner{k}"))
}

/// Sites, a stream and a depot; Refinery ⊑ ChemSite; geometry links are
/// range-typed so the editor may fill the blank nodes they create; RoleB
/// is a sub-role of RoleA.
fn served_world() -> (Graph, PolicySet) {
    use grdf::rdf::vocab::rdf;
    let mut g = Graph::new();
    let iri = |s: &str| Term::iri(s);
    g.add(
        iri(&ns::app("Refinery")),
        iri(rdfs::SUB_CLASS_OF),
        iri(&ns::app("ChemSite")),
    );
    for p in [ns::iri("hasGeometry"), ns::app("hasCorner")] {
        g.add(iri(&p), iri(rdfs::RANGE), iri(&ns::iri("Geometry")));
    }
    for i in 0..4 {
        let mut f = Feature::new(&ns::app(&format!("site{i}")), "ChemSite");
        f.set_property("hasSiteName", format!("Site {i}").as_str());
        f.set_property("hasChemCode", format!("C{i}").as_str());
        encode_feature(&mut g, &f);
    }
    let mut stream = Feature::new(&ns::app("stream0"), "Stream");
    stream.set_property("hasObjectID", 7i64);
    encode_feature(&mut g, &stream);
    let mut depot = Feature::new(&ns::app("depot0"), "Depot");
    depot.set_property("hasSiteName", "Depot");
    encode_feature(&mut g, &depot);
    g.add(site(0), iri(rdf::TYPE), iri(&ns::app("Refinery")));
    let mut rh = RoleHierarchy::new();
    rh.add(&ns::sec("RoleB"), &ns::sec("RoleA"));
    rh.encode(&mut g);

    let edit = |id: &str, resource: &str, action| Policy {
        action,
        ..Policy::permit(id, EDITOR, resource)
    };
    let mut policies = vec![
        Policy::permit_properties(
            "urn:p:a-sites",
            &ns::sec("RoleA"),
            &ns::app("ChemSite"),
            &[
                &ns::app("hasSiteName"),
                &ns::iri("hasGeometry"),
                &ns::app("hasInspectionNote"),
            ],
        ),
        Policy::permit("urn:p:a-streams", &ns::sec("RoleA"), &ns::app("Stream")),
        Policy::deny(
            "urn:p:a-refineries",
            &ns::sec("RoleA"),
            &ns::app("Refinery"),
        ),
        Policy::permit("urn:p:b-depots", &ns::sec("RoleB"), &ns::app("Depot")),
        Policy::permit_properties(
            "urn:p:b-codes",
            &ns::sec("RoleB"),
            &ns::app("ChemSite"),
            &[&ns::app("hasChemCode")],
        ),
        Policy::permit("urn:p:c-sites", &ns::sec("RoleC"), &ns::app("ChemSite")),
        Policy::permit("urn:p:c-depots", &ns::sec("RoleC"), &ns::app("Depot")),
        // Schema steps edit the class and property they name.
        edit("urn:p:e-depot-class", &ns::app("Depot"), Action::Edit),
        edit("urn:p:e-alias", &ns::app("hasAlias"), Action::Edit),
    ];
    for (i, class) in [ns::app("ChemSite"), ns::app("Depot"), ns::iri("Geometry")]
        .iter()
        .enumerate()
    {
        policies.push(edit(&format!("urn:p:e-edit-{i}"), class, Action::Edit));
        policies.push(edit(&format!("urn:p:e-del-{i}"), class, Action::Delete));
    }
    (g, PolicySet::new(policies))
}

/// The update requests of one step, each a batch of ops.
fn step_requests(step: Step) -> Vec<Vec<UpdateOp>> {
    use grdf::rdf::vocab::rdf;
    let t = |s: Term, p: &str, o: Term| Triple::new(s, Term::iri(p), o);
    if let Step::Geometry(i, k) = step {
        return vec![
            vec![UpdateOp::Insert(t(
                site(i),
                &ns::iri("hasGeometry"),
                geometry_node(k),
            ))],
            vec![
                UpdateOp::Insert(t(
                    geometry_node(k),
                    &ns::iri("asWKT"),
                    Term::string(&format!("POINT ({k} {k})")),
                )),
                UpdateOp::Insert(t(geometry_node(k), &ns::app("hasCorner"), corner_node(k))),
            ],
            vec![UpdateOp::Insert(t(
                corner_node(k),
                &ns::iri("asWKT"),
                Term::string(&format!("POINT ({k} 0)")),
            ))],
        ];
    }
    let ops = match step {
        Step::IntoDenied(i) => vec![UpdateOp::Insert(t(
            site(i),
            rdf::TYPE,
            Term::iri(&ns::app("Refinery")),
        ))],
        Step::OutOfDenied(i) => vec![UpdateOp::Delete(t(
            site(i),
            rdf::TYPE,
            Term::iri(&ns::app("Refinery")),
        ))],
        Step::NewPredicate(i) => vec![UpdateOp::Insert(t(
            site(i),
            &ns::app("hasInspectionNote"),
            Term::string(&format!("note {i}")),
        ))],
        Step::Schema(0) => vec![UpdateOp::Insert(t(
            Term::iri(&ns::app("Depot")),
            rdfs::SUB_CLASS_OF,
            Term::iri(&ns::app("ChemSite")),
        ))],
        Step::Schema(_) => vec![UpdateOp::Insert(t(
            Term::iri(&ns::app("hasAlias")),
            rdfs::SUB_PROPERTY_OF,
            Term::iri(&ns::app("hasSiteName")),
        ))],
        Step::Alias(i) => vec![UpdateOp::Insert(t(
            site(i),
            &ns::app("hasAlias"),
            Term::string(&format!("alias {i}")),
        ))],
        Step::DeleteName(i) => vec![UpdateOp::Delete(t(
            site(i),
            &ns::app("hasSiteName"),
            Term::string(&format!("Site {i}")),
        ))],
        Step::Geometry(..) => unreachable!("expanded above"),
    };
    vec![ops]
}

/// Every visible triple, a geometry window, an EXISTS filter, a property
/// path, a join, and the dashboard shape (DISTINCT over a join with
/// duplicates, alone and under ORDER BY + LIMIT): the operators that read
/// triples, and the modifiers that run on their rows.
fn probe_queries() -> Vec<String> {
    let app = ns::APP_NS;
    let grdf_ns = ns::NS;
    vec![
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o }".to_string(),
        format!(
            "PREFIX app: <{app}>\nSELECT ?f WHERE {{ ?f a app:ChemSite . \
             FILTER(grdf:intersectsBox(?f, -1.0, -1.0, 9.0, 9.0)) }}"
        ),
        format!(
            "PREFIX app: <{app}>\nSELECT ?s WHERE {{ ?s a app:ChemSite . \
             FILTER(EXISTS {{ ?s app:hasSiteName ?n }}) }}"
        ),
        format!(
            "PREFIX g: <{grdf_ns}>\nPREFIX app: <{app}>\nSELECT ?s ?w WHERE {{ \
             ?s g:hasGeometry/app:hasCorner/g:asWKT ?w }}"
        ),
        format!(
            "PREFIX g: <{grdf_ns}>\nSELECT ?s ?w WHERE {{ ?g g:asWKT ?w . ?s g:hasGeometry ?g }}"
        ),
        format!(
            "PREFIX app: <{app}>\nSELECT DISTINCT ?s WHERE {{ ?s a ?t . ?s app:hasChemCode ?c }}"
        ),
        format!(
            "PREFIX g: <{grdf_ns}>\nSELECT DISTINCT ?s WHERE {{ ?s g:hasGeometry ?g . ?g ?p ?o }} \
             ORDER BY DESC(?s) LIMIT 2"
        ),
    ]
}

fn canonical(result: &grdf::query::QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = result
        .select_rows()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

/// Differences between two IRs over the same `data` (a patched table
/// against a fresh compile): every triple's role bitset, the instance
/// subjects, and each policy's match and predicate sets must agree.
fn label_differences(patched: &LabelIr, fresh: &LabelIr, data: &Graph) -> Vec<String> {
    let mut out = Vec::new();
    if patched.roles != fresh.roles {
        return vec![format!("roles {:?} vs {:?}", patched.roles, fresh.roles)];
    }
    data.for_each_match_ids(None, None, None, |s, p, o| {
        let (a, b) = (patched.table.bits(s, p), fresh.table.bits(s, p));
        if a.iter_ones() != b.iter_ones() {
            out.push(format!(
                "{} {} {}: roles {:?} vs {:?}",
                data.term_of(s),
                data.term_of(p),
                data.term_of(o),
                a.iter_ones(),
                b.iter_ones()
            ));
        }
    });
    if patched.instance_subjects != fresh.instance_subjects {
        out.push("instance subjects differ".to_string());
    }
    for (a, b) in patched.policies.iter().zip(&fresh.policies) {
        if a.matches != b.matches || a.allowed != b.allowed {
            out.push(format!("policy {} match or predicate set differs", a.id));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded update sequences through the served G-SACS: after every
    /// step, each role's answers equal `execute` over `secure_view` on its
    /// effective policy set, and the served labels — patched from each
    /// insert's delta, recompiled after schema inserts and deletes — equal
    /// a fresh compile of the served state.
    #[test]
    fn delta_relabel_matches_reference_after_every_step(steps in arb_steps()) {
        let (data, policies) = served_world();
        let mut svc = GSacs::new(
            OntoRepository::new(),
            policies.clone(),
            Box::<OwlHorstEngine>::default(),
            data,
            8,
        );
        let roles = [
            ns::sec("RoleA"),
            ns::sec("RoleB"),
            ns::sec("RoleC"),
            "urn:role#Nobody".to_string(),
        ];
        let queries = probe_queries();
        let requests = steps
            .iter()
            .flat_map(|&step| step_requests(step).into_iter().map(move |ops| (step, ops)));
        for (n, (step, ops)) in requests.enumerate() {
            let outcome = svc.handle_update(&UpdateRequest {
                role: EDITOR.to_string(),
                ops,
            });
            let context = format!("request {n} of {step:?} -> {outcome:?}");
            let fresh = LabelIr::compile(svc.dataset(), &policies);
            let diffs = label_differences(svc.labels(), &fresh, svc.dataset());
            prop_assert!(diffs.is_empty(), "{context}: patched labels differ: {diffs:?}");
            for role in &roles {
                let effective = fresh.effective_policy_set(&policies, role);
                let (view, _) = secure_view(svc.dataset(), &effective, role);
                for q in &queries {
                    let got = svc
                        .handle(&ClientRequest { role: role.clone(), query: q.clone() })
                        .expect("served query");
                    let want = execute(&view, q).expect("reference query");
                    prop_assert_eq!(
                        canonical(&got),
                        canonical(&want),
                        "{}: {} answers {}",
                        context,
                        role,
                        q
                    );
                }
            }
        }
    }
}
