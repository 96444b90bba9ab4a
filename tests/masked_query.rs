//! The secure serving path evaluates a query over the whole graph behind a
//! label mask (`execute_masked`). Its answers must equal evaluating the
//! same query over the subgraph the mask shows, for every operator the
//! evaluator has: BGPs and FILTER, OPTIONAL, UNION, property paths,
//! EXISTS, aggregation and the ASK and CONSTRUCT forms. Its charge, the
//! visible triples it read, must not change when only hidden triples do.

use grdf::query::{execute, execute_masked, QueryResult};
use grdf::rdf::graph::TermId;
use grdf::rdf::labels::{ScanMask, SubjectLabels, VisBitset};
use grdf::rdf::turtle;
use grdf::rdf::{Graph, Term};
use grdf::runtime::Deadline;

const WORLD: &str = "@prefix e: <urn:e#> .
    e:r1 e:flowsInto e:r2 . e:r2 e:flowsInto e:r3 . e:r3 e:flowsInto e:r1 .
    e:r4 e:flowsInto e:r3 . e:r5 e:flowsInto e:r5 . e:r3 e:flowsInto e:r6 .
    e:s1 a e:Site ; e:near e:r1 ; e:risk 7 .
    e:s2 a e:Site ; e:near e:r4 ; e:risk 3 .
    e:s3 a e:Site ; e:near e:r2 ; e:risk 9 .
    e:r1 e:name \"North\" . e:r2 e:name \"South\" . e:r4 e:name \"East\" .";

/// Subjects whose every triple the role sees.
const SEEN: &[&str] = &["s1", "s2", "r1", "r3", "r5"];
/// Subjects whose triples the role sees, except their `e:name`.
const UNNAMED: &[&str] = &["r2"];

fn e(local: &str) -> Term {
    Term::iri(&format!("urn:e#{local}"))
}

fn world() -> Graph {
    turtle::parse(WORLD).unwrap()
}

/// `world` plus triples the labels hide: under unlabeled subjects (deny
/// by default) and a name of the unnamed subject.
fn world_with_more_hidden() -> Graph {
    turtle::parse(&format!(
        "{WORLD}
         e:s3 e:near e:r1 . e:s4 a e:Site ; e:risk 8 ; e:near e:r3 .
         e:r4 e:flowsInto e:r1 . e:r6 e:flowsInto e:r2 . e:h1 e:flowsInto e:r3 .
         e:r2 e:name \"Other\" . e:h1 e:name \"Hidden\" ."
    ))
    .unwrap()
}

/// The one role's authorization set.
fn role() -> VisBitset {
    let mut bits = VisBitset::new(1);
    bits.set(0);
    bits
}

/// Labels for one role: subject class `seen` shows every predicate,
/// `unnamed` every predicate but `e:name`; any other subject is hidden.
fn labels(g: &Graph, seen: &[&str], unnamed: &[&str]) -> SubjectLabels {
    let mut labels = SubjectLabels::new(1);
    let seen_class = labels.add_class(vec![role()]);
    let unnamed_class = labels.add_class(vec![role()]);
    let names = labels.add_pred_class(|class| {
        if class == seen_class {
            role()
        } else {
            VisBitset::new(1)
        }
    });
    if let Some(p) = g.term_id(&e("name")) {
        labels.set_pred(p, names);
    }
    for (subjects, class) in [(seen, seen_class), (unnamed, unnamed_class)] {
        for s in subjects {
            if let Some(id) = g.term_id(&e(s)) {
                labels.set_subject(id, class);
            }
        }
    }
    labels
}

fn id(g: &Graph, t: &Term) -> TermId {
    g.term_id(t).expect("a stored term")
}

/// The triples of `g` that `mask` shows.
fn visible_subgraph(g: &Graph, mask: &ScanMask<'_>) -> Graph {
    let mut view = Graph::new();
    for t in g.iter() {
        if mask.visible(id(g, &t.subject), id(g, &t.predicate)) {
            view.insert(t);
        }
    }
    view
}

fn text(body: &str) -> String {
    format!("PREFIX e: <urn:e#>\n{body}")
}

fn masked(g: &Graph, mask: &ScanMask<'_>, body: &str) -> (QueryResult, u64) {
    execute_masked(g, mask, &text(body), &Deadline::never()).unwrap()
}

/// A result in a form independent of row order and term ids.
fn canonical(r: &QueryResult) -> Vec<String> {
    let mut out: Vec<String> = match r {
        QueryResult::Select { rows, .. } => rows.iter().map(|b| format!("{b:?}")).collect(),
        QueryResult::Boolean(b) => vec![b.to_string()],
        QueryResult::Graph(g) => g.iter().map(|t| format!("{t:?}")).collect(),
    };
    out.sort();
    if let QueryResult::Select { vars, .. } = r {
        out.insert(0, format!("{vars:?}"));
    }
    out
}

/// Each query's masked answer over `world` equals its answer over the
/// visible subgraph.
fn assert_masked_equals_view(queries: &[&str]) {
    let g = world();
    let labels = labels(&g, SEEN, UNNAMED);
    let mask = labels.mask(&role());
    let view = visible_subgraph(&g, &mask);
    for body in queries {
        let want = execute(&view, &text(body)).unwrap();
        assert_eq!(
            canonical(&masked(&g, &mask, body).0),
            canonical(&want),
            "{body}"
        );
    }
}

const BGP: &[&str] = &[
    "SELECT ?s ?r WHERE { ?s a e:Site ; e:near ?r }",
    "SELECT ?s WHERE { ?s e:risk ?k FILTER(?k > 5) }",
    "SELECT ?r ?n WHERE { ?r e:flowsInto ?y . ?y e:name ?n }",
    "SELECT ?x WHERE { ?x e:flowsInto ?x }",
    "SELECT ?s ?n WHERE { ?s a e:Site . ?r e:name ?n }",
];

const OPTIONAL: &[&str] = &[
    "SELECT ?s ?r ?n WHERE { ?s a e:Site OPTIONAL { ?s e:near ?r . ?r e:name ?n } }",
    "SELECT ?s ?x WHERE { ?s a e:Site OPTIONAL { ?s e:near ?x } ?x e:name ?n }",
    "SELECT ?r WHERE { ?r e:flowsInto ?y OPTIONAL { ?r e:name ?n } FILTER(!BOUND(?n)) }",
    "SELECT ?a ?b ?n WHERE { ?a e:flowsInto ?b OPTIONAL { ?a e:name ?n } OPTIONAL { ?b e:name ?n } }",
];

const UNION: &[&str] = &[
    "SELECT ?s ?x WHERE { { ?s a e:Site } UNION { ?s e:near ?x } ?x e:name ?n }",
    "SELECT * WHERE { { ?a e:flowsInto e:r3 } UNION { ?b e:name ?n } }",
    "SELECT ?s ?x WHERE { ?s a e:Site OPTIONAL { { ?s e:near ?x } UNION { ?s e:risk ?x } } }",
];

const PATHS: &[&str] = &[
    "SELECT ?x WHERE { e:r1 e:flowsInto+ ?x }",
    "SELECT ?x WHERE { ?x e:flowsInto* e:r3 }",
    "SELECT ?s ?x WHERE { ?s e:near/e:flowsInto ?x }",
    "SELECT ?x WHERE { ?x e:flowsInto+ ?x }",
    "SELECT ?x WHERE { e:r4 e:flowsInto* ?x }",
    "SELECT ?x WHERE { e:s1 (e:near|e:name) ?x }",
    "SELECT ?x WHERE { e:nope e:flowsInto* ?x }",
    "SELECT ?a ?b WHERE { ?a ^e:flowsInto ?b }",
];

const EXISTS: &[&str] = &[
    "SELECT ?s WHERE { ?s a e:Site FILTER(EXISTS { ?s e:near/e:flowsInto+ e:r3 }) }",
    "SELECT ?s WHERE { ?s a e:Site FILTER(NOT EXISTS { ?s e:near ?r . ?r e:name ?n }) }",
    "SELECT ?s WHERE { ?s a e:Site OPTIONAL { ?s e:near ?x } FILTER(EXISTS { ?x e:name ?n }) }",
];

const FORMS: &[&str] = &[
    "SELECT (COUNT(*) AS ?c) (SUM(?k) AS ?t) WHERE { ?s e:risk ?k }",
    "SELECT ?y (COUNT(?r) AS ?c) WHERE { ?r e:flowsInto ?y } GROUP BY ?y",
    "SELECT DISTINCT ?y WHERE { ?r e:flowsInto ?y } ORDER BY ?y LIMIT 2",
    "ASK { ?r e:name \"East\" }",
    "ASK { ?r e:name \"North\" }",
    "CONSTRUCT { ?r e:named ?n } WHERE { ?r e:name ?n }",
];

fn every_query() -> impl Iterator<Item = &'static str> {
    [BGP, OPTIONAL, UNION, PATHS, EXISTS, FORMS]
        .into_iter()
        .flatten()
        .copied()
}

#[test]
fn masked_bgps_and_filters_equal_the_visible_subgraph() {
    assert_masked_equals_view(BGP);
    // The mask is in force: s3 is hidden, and so is r2's name.
    let g = world();
    let labels = labels(&g, SEEN, UNNAMED);
    let mask = labels.mask(&role());
    let (sites, _) = masked(&g, &mask, "SELECT ?s WHERE { ?s a e:Site }");
    assert_eq!(sites.select_rows().len(), 2);
    let (names, _) = masked(&g, &mask, "SELECT ?n WHERE { ?r e:name ?n }");
    assert_eq!(canonical(&names).len(), 2, "the header and North");
}

#[test]
fn masked_optionals_equal_the_visible_subgraph() {
    assert_masked_equals_view(OPTIONAL);
}

#[test]
fn masked_unions_equal_the_visible_subgraph() {
    assert_masked_equals_view(UNION);
}

#[test]
fn masked_property_paths_equal_the_visible_subgraph() {
    assert_masked_equals_view(PATHS);
}

#[test]
fn masked_exists_equals_the_visible_subgraph() {
    assert_masked_equals_view(EXISTS);
}

#[test]
fn masked_aggregates_ask_and_construct_equal_the_visible_subgraph() {
    assert_masked_equals_view(FORMS);
}

#[test]
fn hidden_triples_change_neither_answers_nor_charge() {
    let (a, b) = (world(), world_with_more_hidden());
    let (la, lb) = (labels(&a, SEEN, UNNAMED), labels(&b, SEEN, UNNAMED));
    let (ma, mb) = (la.mask(&role()), lb.mask(&role()));
    let mut charged = 0;
    for body in every_query() {
        let (ra, ca) = masked(&a, &ma, body);
        let (rb, cb) = masked(&b, &mb, body);
        assert_eq!(canonical(&ra), canonical(&rb), "{body}");
        assert_eq!(ca, cb, "{body}");
        charged += ca;
    }
    assert!(charged > 0);
}

#[test]
fn a_mask_showing_everything_equals_no_mask() {
    let g = world();
    let subjects: Vec<String> = g
        .iter()
        .filter_map(|t| t.subject.as_iri().map(|i| i["urn:e#".len()..].to_string()))
        .collect();
    let subjects: Vec<&str> = subjects.iter().map(String::as_str).collect();
    let labels = labels(&g, &subjects, &[]);
    let mask = labels.mask(&role());
    for body in every_query() {
        let want = execute(&g, &text(body)).unwrap();
        assert_eq!(
            canonical(&masked(&g, &mask, body).0),
            canonical(&want),
            "{body}"
        );
    }
}

#[test]
fn a_mask_hiding_everything_equals_the_empty_graph_and_charges_nothing() {
    let g = world();
    let labels = SubjectLabels::new(1);
    let mask = labels.mask(&role());
    let empty = Graph::new();
    for body in every_query() {
        let (r, charge) = masked(&g, &mask, body);
        let want = execute(&empty, &text(body)).unwrap();
        assert_eq!(canonical(&r), canonical(&want), "{body}");
        assert_eq!(charge, 0, "{body}");
    }
}
