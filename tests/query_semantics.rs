//! SPARQL semantics the evaluator must keep whichever path a query takes:
//! a FILTER constrains its whole group (SPARQL 1.1 §5.2.2), and the
//! solution modifiers run in the order ORDER BY, projection, DISTINCT,
//! OFFSET/LIMIT (§18.2.5).

use grdf::query::{execute, QueryResult};
use grdf::rdf::turtle;
use grdf::rdf::{Graph, Term};

const PREFIX: &str = "PREFIX app: <http://grdf.org/app#>\n";

fn risks() -> Graph {
    turtle::parse(
        "@prefix app: <http://grdf.org/app#> .
         app:s1 app:risk 7 . app:s2 app:risk 3 . app:s3 app:risk 7 .",
    )
    .unwrap()
}

fn select(g: &Graph, body: &str) -> QueryResult {
    execute(g, &format!("{PREFIX}{body}")).unwrap()
}

/// The `var` column of a result, in row order.
fn column(r: &QueryResult, var: &str) -> Vec<Term> {
    r.select_rows().iter().map(|b| b[var].clone()).collect()
}

fn sorted(mut terms: Vec<Term>) -> Vec<Term> {
    terms.sort();
    terms
}

#[test]
fn a_filter_before_its_pattern_constrains_the_whole_group() {
    let g = risks();
    let r = select(&g, "SELECT ?s WHERE { FILTER(?r > 5) ?s app:risk ?r }");
    assert_eq!(
        sorted(column(&r, "s")),
        vec![
            Term::iri("http://grdf.org/app#s1"),
            Term::iri("http://grdf.org/app#s3")
        ]
    );
    // The same placement next to an OPTIONAL: the filter still sees the
    // variables the whole group binds.
    let r = select(
        &g,
        "SELECT ?s WHERE { FILTER(?r < 5) ?s app:risk ?r OPTIONAL { ?s app:name ?n } }",
    );
    assert_eq!(column(&r, "s"), vec![Term::iri("http://grdf.org/app#s2")]);
}

#[test]
fn distinct_runs_before_limit() {
    let r = select(
        &risks(),
        "SELECT DISTINCT ?r WHERE { ?s app:risk ?r } ORDER BY DESC(?r) LIMIT 2",
    );
    assert_eq!(column(&r, "r"), vec![Term::integer(7), Term::integer(3)]);
}

#[test]
fn distinct_runs_before_offset() {
    let r = select(
        &risks(),
        "SELECT DISTINCT ?r WHERE { ?s app:risk ?r } ORDER BY DESC(?r) OFFSET 1",
    );
    assert_eq!(column(&r, "r"), vec![Term::integer(3)]);
}

#[test]
fn projection_runs_before_distinct_on_every_path() {
    // A BGP alone, and the same solutions through OPTIONAL (which the id
    // pipeline does not take): both dedup on the projected tuple.
    let g = risks();
    for body in [
        "SELECT DISTINCT ?r WHERE { ?s app:risk ?r } ORDER BY ?r",
        "SELECT DISTINCT ?r WHERE { ?s app:risk ?r OPTIONAL { ?s app:name ?n } } ORDER BY ?r",
    ] {
        let r = select(&g, body);
        assert_eq!(
            column(&r, "r"),
            vec![Term::integer(3), Term::integer(7)],
            "{body}"
        );
    }
}
