//! SPARQL semantics the evaluator must keep whichever pattern a query
//! uses: a FILTER constrains its whole group (SPARQL 1.1 §5.2.2), the
//! solution modifiers run in the order ORDER BY, projection, DISTINCT,
//! OFFSET/LIMIT (§18.2.5), a variable that OPTIONAL or UNION leaves
//! unbound in a row is bound by a later pattern there and joined where
//! bound, and property paths relate terms the graph never stored. Further
//! cases pin the rest of each operator: OPTIONAL's scope and nesting,
//! UNION's alignment by name, closures over cycles and in either
//! direction, EXISTS over the tested row, repeated and predicate
//! variables, and how unbound cells sort, group, count and construct.

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
    // A BGP alone, and the same solutions through OPTIONAL: both dedup
    // on the projected tuple.
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

fn rivers() -> Graph {
    turtle::parse(
        "@prefix e: <urn:e#> .
         e:r1 e:flowsInto e:r2 . e:r2 e:flowsInto e:r3 . e:r3 e:flowsInto e:r1 .
         e:r4 e:flowsInto e:r3 . e:r5 e:flowsInto e:r5 .
         e:s1 a e:Site ; e:near e:r1 . e:s2 a e:Site .
         e:r1 e:name \"North\" . e:r2 e:name \"South\" .",
    )
    .unwrap()
}

fn e(local: &str) -> Term {
    Term::iri(&format!("urn:e#{local}"))
}

fn rivers_select(body: &str) -> QueryResult {
    execute(&rivers(), &format!("PREFIX e: <urn:e#>\n{body}")).unwrap()
}

/// Each row's terms for `vars`, rows sorted.
fn tuples(r: &QueryResult, vars: &[&str]) -> Vec<Vec<Term>> {
    let mut rows: Vec<Vec<Term>> = r
        .select_rows()
        .iter()
        .map(|b| vars.iter().map(|v| b[*v].clone()).collect())
        .collect();
    rows.sort();
    rows
}

/// `(s, x)` rows of local names, sorted.
fn pairs(rows: &[(&str, &str)]) -> Vec<Vec<Term>> {
    let mut rows: Vec<Vec<Term>> = rows.iter().map(|(s, x)| vec![e(s), e(x)]).collect();
    rows.sort();
    rows
}

#[test]
fn a_zero_length_path_relates_a_term_the_graph_never_stored() {
    for body in [
        "SELECT ?x WHERE { e:nope e:flowsInto* ?x }",
        "SELECT ?x WHERE { ?x e:flowsInto* e:nope }",
    ] {
        assert_eq!(column(&rivers_select(body), "x"), vec![e("nope")], "{body}");
    }
}

#[test]
fn a_variable_optional_leaves_unbound_is_bound_by_a_later_pattern() {
    // s1's ?x is bound by the OPTIONAL and joins; s2's is not and binds.
    let r =
        rivers_select("SELECT ?s ?x WHERE { ?s a e:Site OPTIONAL { ?s e:near ?x } ?x e:name ?n }");
    assert_eq!(
        tuples(&r, &["s", "x"]),
        pairs(&[("s1", "r1"), ("s2", "r1"), ("s2", "r2")])
    );
}

#[test]
fn union_branches_binding_different_variables_then_a_pattern() {
    // The first branch leaves ?x unbound, so the pattern binds it; the
    // second binds it, so the pattern joins.
    let r =
        rivers_select("SELECT ?s ?x WHERE { { ?s a e:Site } UNION { ?s e:near ?x } ?x e:name ?n }");
    assert_eq!(
        tuples(&r, &["s", "x"]),
        pairs(&[
            ("s1", "r1"),
            ("s1", "r1"),
            ("s1", "r2"),
            ("s2", "r1"),
            ("s2", "r2")
        ])
    );
}

#[test]
fn select_star_lists_only_variables_some_row_binds() {
    let r = rivers_select("SELECT * WHERE { ?s a e:Site OPTIONAL { ?s e:name ?z } }");
    match r {
        QueryResult::Select { vars, rows } => {
            assert_eq!(vars, vec!["s"]);
            assert_eq!(rows.len(), 2);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn a_path_from_a_variable_to_itself_finds_the_cycles() {
    let r = rivers_select("SELECT ?x WHERE { ?x e:flowsInto+ ?x }");
    assert_eq!(
        sorted(column(&r, "x")),
        vec![e("r1"), e("r2"), e("r3"), e("r5")]
    );
}

/// Each row's terms for `vars`, `None` where the row leaves one unbound,
/// rows sorted.
fn cells(r: &QueryResult, vars: &[&str]) -> Vec<Vec<Option<Term>>> {
    let mut rows: Vec<Vec<Option<Term>>> = r
        .select_rows()
        .iter()
        .map(|b| vars.iter().map(|v| b.get(*v).cloned()).collect())
        .collect();
    rows.sort();
    rows
}

fn rivers_ask(body: &str) -> bool {
    rivers_select(body).as_bool().expect("an ASK result")
}

fn name(n: &str) -> Option<Term> {
    Some(Term::string(n))
}

#[test]
fn a_filter_inside_an_optional_drops_only_the_extension() {
    // r1 is named North, so s1's extension fails the filter and s1 stays
    // unextended, like s2, which has no extension at all.
    let r = rivers_select(
        "SELECT ?s ?x WHERE { ?s a e:Site
           OPTIONAL { ?s e:near ?x . ?x e:name ?n FILTER(?n = \"South\") } }",
    );
    assert_eq!(
        cells(&r, &["s", "x"]),
        vec![vec![Some(e("s1")), None], vec![Some(e("s2")), None]]
    );
}

#[test]
fn not_bound_after_an_optional_keeps_the_rows_it_did_not_extend() {
    let r = rivers_select(
        "SELECT ?s WHERE { ?s a e:Site OPTIONAL { ?s e:near ?x } FILTER(!BOUND(?x)) }",
    );
    assert_eq!(column(&r, "s"), vec![e("s2")]);
}

#[test]
fn a_comparison_with_an_unbound_variable_drops_the_row() {
    // s2 leaves ?x unbound: comparing it is an error, and an error drops
    // the row whichever way the comparison points.
    for (op, want) in [("=", vec![e("s1")]), ("!=", vec![])] {
        let r = rivers_select(&format!(
            "SELECT ?s WHERE {{ ?s a e:Site OPTIONAL {{ ?s e:near ?x }} FILTER(?x {op} e:r1) }}"
        ));
        assert_eq!(column(&r, "s"), want, "{op}");
    }
}

#[test]
fn a_nested_optional_extends_only_rows_its_outer_optional_extended() {
    let r = rivers_select(
        "SELECT ?s ?x ?n WHERE { ?s a e:Site OPTIONAL { ?s e:near ?x OPTIONAL { ?x e:name ?n } } }",
    );
    assert_eq!(
        cells(&r, &["s", "x", "n"]),
        vec![
            vec![Some(e("s1")), Some(e("r1")), name("North")],
            vec![Some(e("s2")), None, None],
        ]
    );
}

#[test]
fn an_optional_matching_twice_yields_a_row_per_match() {
    // r3 flows into r1, and both r2 and r4 flow into r3.
    let r =
        rivers_select("SELECT ?r ?y WHERE { ?r e:flowsInto e:r1 OPTIONAL { ?y e:flowsInto ?r } }");
    assert_eq!(
        tuples(&r, &["r", "y"]),
        pairs(&[("r3", "r2"), ("r3", "r4")])
    );
}

#[test]
fn a_second_optional_joins_where_the_first_bound_and_binds_where_not() {
    let r = rivers_select(
        "SELECT ?a ?b ?n WHERE { ?a e:flowsInto ?b
           OPTIONAL { ?a e:name ?n } OPTIONAL { ?b e:name ?n } }",
    );
    assert_eq!(
        cells(&r, &["a", "b", "n"]),
        vec![
            // r2 is named South, which does not join with r1's North.
            vec![Some(e("r1")), Some(e("r2")), name("North")],
            // r3 has no name to join with.
            vec![Some(e("r2")), Some(e("r3")), name("South")],
            // Bound by the second OPTIONAL.
            vec![Some(e("r3")), Some(e("r1")), name("North")],
            vec![Some(e("r4")), Some(e("r3")), None],
            vec![Some(e("r5")), Some(e("r5")), None],
        ]
    );
}

#[test]
fn a_three_way_union_aligns_each_branch_by_name() {
    let r = rivers_select(
        "SELECT ?a ?b ?c WHERE { { ?a e:flowsInto e:r3 }
           UNION { e:s1 e:near ?b } UNION { ?c e:name \"North\" } }",
    );
    assert_eq!(
        cells(&r, &["a", "b", "c"]),
        vec![
            vec![None, None, Some(e("r1"))],
            vec![None, Some(e("r1")), None],
            vec![Some(e("r2")), None, None],
            vec![Some(e("r4")), None, None],
        ]
    );
}

#[test]
fn a_union_in_an_optional_extends_rows_from_either_branch() {
    let r = rivers_select(
        "SELECT ?s ?x WHERE { ?s a e:Site OPTIONAL { { ?s e:near ?x } UNION { ?s a ?x } } }",
    );
    assert_eq!(
        tuples(&r, &["s", "x"]),
        pairs(&[("s1", "r1"), ("s1", "Site"), ("s2", "Site")])
    );
}

#[test]
fn select_star_over_a_union_lists_each_branchs_variables() {
    match rivers_select("SELECT * WHERE { { ?a e:flowsInto e:r3 } UNION { e:s1 e:near ?b } }") {
        QueryResult::Select { vars, rows } => {
            assert_eq!(vars, vec!["a", "b"]);
            assert_eq!(rows.len(), 3);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn one_or_more_from_outside_a_cycle_reaches_the_cycle_but_not_the_start() {
    let r = rivers_select("SELECT ?x WHERE { e:r4 e:flowsInto+ ?x }");
    assert_eq!(sorted(column(&r, "x")), vec![e("r1"), e("r2"), e("r3")]);
}

#[test]
fn one_or_more_from_a_node_on_a_cycle_returns_to_it() {
    let r = rivers_select("SELECT ?x WHERE { e:r1 e:flowsInto+ ?x }");
    assert_eq!(sorted(column(&r, "x")), vec![e("r1"), e("r2"), e("r3")]);
}

#[test]
fn a_closure_over_a_self_loop_lists_its_node_once() {
    for body in [
        "SELECT ?x WHERE { e:r5 e:flowsInto+ ?x }",
        "SELECT ?x WHERE { e:r5 e:flowsInto* ?x }",
        "SELECT ?x WHERE { ?x e:flowsInto+ e:r5 }",
    ] {
        assert_eq!(column(&rivers_select(body), "x"), vec![e("r5")], "{body}");
    }
}

#[test]
fn an_inverse_closure_and_a_bound_object_closure_agree() {
    // Everything upstream of r3: the cycle and r4.
    for body in [
        "SELECT ?x WHERE { e:r3 ^e:flowsInto+ ?x }",
        "SELECT ?x WHERE { ?x e:flowsInto+ e:r3 }",
    ] {
        assert_eq!(
            sorted(column(&rivers_select(body), "x")),
            vec![e("r1"), e("r2"), e("r3"), e("r4")],
            "{body}"
        );
    }
}

#[test]
fn a_closure_between_two_constants_asks_for_reachability() {
    assert!(rivers_ask("ASK { e:r4 e:flowsInto* e:r1 }"));
    assert!(!rivers_ask("ASK { e:r1 e:flowsInto* e:r4 }"));
    // A stored term without an edge reaches itself by the zero-length
    // path only.
    assert!(rivers_ask("ASK { e:s2 e:flowsInto* e:s2 }"));
    assert!(!rivers_ask("ASK { e:s2 e:flowsInto+ e:s2 }"));
}

#[test]
fn a_sequence_path_walks_through_its_middle_node() {
    // s1 is near r1, which flows into r2.
    let r = rivers_select("SELECT ?s ?x WHERE { ?s e:near/e:flowsInto ?x }");
    assert_eq!(tuples(&r, &["s", "x"]), pairs(&[("s1", "r2")]));
    // With only the object bound, the sequence is walked backwards.
    let r = rivers_select("SELECT ?s WHERE { ?s e:near/e:flowsInto e:r2 }");
    assert_eq!(column(&r, "s"), vec![e("s1")]);
}

#[test]
fn a_closure_after_a_step_starts_from_each_middle_node() {
    let r = rivers_select("SELECT ?x WHERE { e:s1 e:near/e:flowsInto+ ?x }");
    assert_eq!(sorted(column(&r, "x")), vec![e("r1"), e("r2"), e("r3")]);
}

#[test]
fn an_alternative_path_unions_its_branches() {
    // r3 flows into r1, and r2 and r4 flow into r3.
    let r = rivers_select("SELECT ?x WHERE { e:r3 (e:flowsInto|^e:flowsInto) ?x }");
    assert_eq!(sorted(column(&r, "x")), vec![e("r1"), e("r2"), e("r4")]);
    // Branches over different predicates: one ends at a literal.
    let r = rivers_select("SELECT ?x WHERE { e:r1 (e:flowsInto|e:name) ?x }");
    assert_eq!(
        sorted(column(&r, "x")),
        sorted(vec![e("r2"), Term::string("North")])
    );
}

#[test]
fn a_path_start_bound_by_a_pattern_is_walked_from_each_binding() {
    let r = rivers_select("SELECT ?s ?x WHERE { ?s e:near ?r . ?r e:flowsInto+ ?x }");
    assert_eq!(
        tuples(&r, &["s", "x"]),
        pairs(&[("s1", "r1"), ("s1", "r2"), ("s1", "r3")])
    );
}

#[test]
fn a_path_binding_joins_a_pattern_whichever_comes_first() {
    for body in [
        "SELECT ?x ?n WHERE { e:r4 e:flowsInto+ ?x . ?x e:name ?n }",
        "SELECT ?x ?n WHERE { { e:r4 e:flowsInto+ ?x } ?x e:name ?n }",
    ] {
        assert_eq!(
            cells(&rivers_select(body), &["x", "n"]),
            vec![
                vec![Some(e("r1")), name("North")],
                vec![Some(e("r2")), name("South")]
            ],
            "{body}"
        );
    }
}

#[test]
fn a_path_over_a_predicate_the_graph_never_stored() {
    // No step exists, so only a zero-length path matches.
    let r = rivers_select("SELECT ?y WHERE { ?x e:nope+ ?y }");
    assert!(r.select_rows().is_empty());
    let r = rivers_select("SELECT ?y WHERE { e:r1 e:nope* ?y }");
    assert_eq!(column(&r, "y"), vec![e("r1")]);
}

#[test]
fn not_exists_tests_each_rows_own_binding() {
    let r = rivers_select("SELECT ?s WHERE { ?s a e:Site FILTER(NOT EXISTS { ?s e:near ?x }) }");
    assert_eq!(column(&r, "s"), vec![e("s2")]);
}

#[test]
fn exists_leaves_a_variable_the_row_does_not_bind_free() {
    // s1's ?x is r1, which is not named South; s2 leaves ?x unbound, so
    // inside EXISTS it may be any term named South.
    let r = rivers_select(
        "SELECT ?s WHERE { ?s a e:Site OPTIONAL { ?s e:near ?x }
           FILTER(EXISTS { ?x e:name \"South\" }) }",
    );
    assert_eq!(column(&r, "s"), vec![e("s2")]);
}

#[test]
fn exists_can_test_a_property_path() {
    // s1 is near r1, upstream of r3; s2 is near nothing.
    let r = rivers_select(
        "SELECT ?s WHERE { ?s a e:Site FILTER(EXISTS { ?s e:near/e:flowsInto+ e:r3 }) }",
    );
    assert_eq!(column(&r, "s"), vec![e("s1")]);
}

#[test]
fn a_variable_repeated_in_one_pattern_matches_only_equal_terms() {
    let r = rivers_select("SELECT ?x WHERE { ?x e:flowsInto ?x }");
    assert_eq!(column(&r, "x"), vec![e("r5")]);
}

#[test]
fn a_variable_predicate_ranges_over_every_stored_predicate() {
    let r = rivers_select("SELECT ?p ?o WHERE { e:s1 ?p ?o }");
    let mut want = vec![
        vec![Term::iri(grdf::rdf::vocab::rdf::TYPE), e("Site")],
        vec![e("near"), e("r1")],
    ];
    want.sort();
    assert_eq!(tuples(&r, &["p", "o"]), want);
}

#[test]
fn a_constant_the_graph_never_stored_matches_nothing() {
    let r = rivers_select("SELECT ?s WHERE { ?s e:unknown ?o }");
    assert!(r.select_rows().is_empty());
    // In a conjunction it empties the group.
    let r = rivers_select("SELECT ?s WHERE { ?s a e:Site . ?s e:unknown ?o }");
    assert!(r.select_rows().is_empty());
    // In an OPTIONAL it leaves every row unextended.
    let r = rivers_select("SELECT ?s WHERE { ?s a e:Site OPTIONAL { ?s e:unknown ?o } }");
    assert_eq!(sorted(column(&r, "s")), vec![e("s1"), e("s2")]);
}

#[test]
fn patterns_sharing_no_variable_form_a_cross_product() {
    let r = rivers_select("SELECT ?s ?n WHERE { ?s a e:Site . ?r e:name ?n }");
    assert_eq!(
        cells(&r, &["s", "n"]),
        vec![
            vec![Some(e("s1")), name("North")],
            vec![Some(e("s1")), name("South")],
            vec![Some(e("s2")), name("North")],
            vec![Some(e("s2")), name("South")],
        ]
    );
}

#[test]
fn a_pattern_without_variables_gates_its_group() {
    let r = rivers_select("SELECT ?s WHERE { ?s a e:Site . e:s1 e:near e:r1 }");
    assert_eq!(sorted(column(&r, "s")), vec![e("s1"), e("s2")]);
    let r = rivers_select("SELECT ?s WHERE { ?s a e:Site . e:s1 e:near e:r2 }");
    assert!(r.select_rows().is_empty());
    assert!(rivers_ask("ASK { e:s1 e:near e:r1 }"));
    assert!(!rivers_ask("ASK { e:s1 e:near e:r2 }"));
}

#[test]
fn order_by_sorts_an_unbound_value_first() {
    let q = "SELECT ?s ?x WHERE { ?s a e:Site OPTIONAL { ?s e:near ?x } } ORDER BY";
    let r = rivers_select(&format!("{q} ?x"));
    assert_eq!(column(&r, "s"), vec![e("s2"), e("s1")]);
    let r = rivers_select(&format!("{q} DESC(?x)"));
    assert_eq!(column(&r, "s"), vec![e("s1"), e("s2")]);
}

#[test]
fn limit_zero_and_an_offset_past_the_end_return_no_rows() {
    for body in [
        "SELECT ?x WHERE { ?x e:flowsInto ?y } LIMIT 0",
        "SELECT ?x WHERE { ?x e:flowsInto ?y } OFFSET 5",
        "SELECT ?x WHERE { ?x e:flowsInto ?y } ORDER BY ?x OFFSET 9 LIMIT 2",
    ] {
        assert!(rivers_select(body).select_rows().is_empty(), "{body}");
    }
    // Five edges: an offset of four leaves the last.
    let r = rivers_select("SELECT ?x WHERE { ?x e:flowsInto ?y } ORDER BY ?x OFFSET 4");
    assert_eq!(column(&r, "x"), vec![e("r5")]);
}

#[test]
fn count_of_a_variable_skips_the_rows_that_leave_it_unbound() {
    let r = rivers_select(
        "SELECT (COUNT(?x) AS ?n) (COUNT(*) AS ?all) WHERE { ?s a e:Site OPTIONAL { ?s e:near ?x } }",
    );
    let row = &r.select_rows()[0];
    assert_eq!(row["n"], Term::integer(1));
    assert_eq!(row["all"], Term::integer(2));
}

#[test]
fn count_distinct_counts_each_term_once() {
    // r3 is the object of two edges.
    let r = rivers_select(
        "SELECT (COUNT(?y) AS ?n) (COUNT(DISTINCT ?y) AS ?d) WHERE { ?r e:flowsInto ?y }",
    );
    let row = &r.select_rows()[0];
    assert_eq!(row["n"], Term::integer(5));
    assert_eq!(row["d"], Term::integer(4));
}

#[test]
fn grouping_by_a_variable_optional_leaves_unbound_makes_one_group_of_those_rows() {
    // r3, r4 and r5 have no name.
    let r = rivers_select(
        "SELECT ?n (COUNT(*) AS ?c) WHERE { ?r e:flowsInto ?y OPTIONAL { ?r e:name ?n } }
         GROUP BY ?n",
    );
    assert_eq!(
        cells(&r, &["n", "c"]),
        vec![
            vec![None, Some(Term::integer(3))],
            vec![name("North"), Some(Term::integer(1))],
            vec![name("South"), Some(Term::integer(1))],
        ]
    );
}

#[test]
fn distinct_treats_an_unbound_cell_as_one_value() {
    let r =
        rivers_select("SELECT DISTINCT ?n WHERE { ?r e:flowsInto ?y OPTIONAL { ?r e:name ?n } }");
    assert_eq!(
        cells(&r, &["n"]),
        vec![vec![None], vec![name("North")], vec![name("South")]]
    );
}

#[test]
fn construct_skips_a_template_triple_whose_variable_is_unbound() {
    let g = rivers_select(
        "CONSTRUCT { ?s e:seen ?x . ?s e:kind e:Site }
         WHERE { ?s a e:Site OPTIONAL { ?s e:near ?x } }",
    )
    .into_graph()
    .expect("a CONSTRUCT result");
    assert_eq!(g.len(), 3);
    assert!(g.has(&e("s1"), &e("seen"), &e("r1")));
    assert!(g.has(&e("s1"), &e("kind"), &e("Site")));
    assert!(g.has(&e("s2"), &e("kind"), &e("Site")));
}
