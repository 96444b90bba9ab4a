//! Property-based equivalence tests for the columnar LSM graph core: the
//! run + novelty-delta + tombstone representation must be observationally
//! identical to a plain `BTreeSet<Triple>` reference model under any
//! interleaving of inserts, removes, and compactions — on every
//! lint-corpus graph and on seeded random workloads, including compaction
//! concurrent with iteration (copy-on-write snapshot isolation),
//! `delta_ids_since` generation snapshots that span compactions, and the
//! id-space reads the query planner and merge join rely on: exact
//! `estimate_ids` counts for every pattern shape and the zero-copy
//! `pred_slices` columns.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use grdf::rdf::graph::{Graph, TermId};
use grdf::rdf::term::{Term, Triple};

// ---------------------------------------------------------------------------
// Reference model: the graph as a plain ordered set of triples.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Model {
    set: BTreeSet<Triple>,
    /// Successful inserts in order — mirrors the graph's generation log.
    log: Vec<Triple>,
}

impl Model {
    fn insert(&mut self, t: Triple) -> bool {
        let added = self.set.insert(t.clone());
        if added {
            self.log.push(t);
        }
        added
    }

    fn remove(&mut self, t: &Triple) -> bool {
        self.set.remove(t)
    }

    fn delta_since(&self, generation: usize) -> Vec<Triple> {
        self.log[generation.min(self.log.len())..]
            .iter()
            .filter(|t| self.set.contains(t))
            .cloned()
            .collect()
    }
}

/// Full observational equality: size, membership, iteration as a set,
/// pattern matches, and exact `estimate` counts for every (s, p, o)
/// wildcard combination over the model's term universe.
fn assert_equivalent(graph: &Graph, model: &Model, context: &str) {
    assert_eq!(graph.len(), model.set.len(), "{context}: len");
    let scanned: BTreeSet<Triple> = graph.iter().collect();
    assert_eq!(scanned, model.set, "{context}: iterated triple set");

    let mut subjects = BTreeSet::new();
    let mut predicates = BTreeSet::new();
    let mut objects = BTreeSet::new();
    for t in &model.set {
        subjects.insert(t.subject.clone());
        predicates.insert(t.predicate.clone());
        objects.insert(t.object.clone());
    }
    // Exercise every prefix shape, including misses.
    subjects.insert(Term::iri("urn:prop#never-a-subject"));
    for s in &subjects {
        let want = model.set.iter().filter(|t| t.subject == *s).count();
        assert_eq!(
            graph.estimate(Some(s), None, None),
            want,
            "{context}: estimate (s,?,?) for {s}"
        );
        for p in &predicates {
            let want = model
                .set
                .iter()
                .filter(|t| t.subject == *s && t.predicate == *p)
                .count();
            assert_eq!(
                graph.estimate(Some(s), Some(p), None),
                want,
                "{context}: estimate (s,p,?)"
            );
            let got: BTreeSet<Triple> = {
                let mut acc = BTreeSet::new();
                graph.for_each_match(Some(s), Some(p), None, |t| {
                    acc.insert(t);
                });
                acc
            };
            let want: BTreeSet<Triple> = model
                .set
                .iter()
                .filter(|t| t.subject == *s && t.predicate == *p)
                .cloned()
                .collect();
            assert_eq!(got, want, "{context}: match (s,p,?)");
        }
    }
    for p in &predicates {
        let want = model.set.iter().filter(|t| t.predicate == *p).count();
        assert_eq!(
            graph.estimate(None, Some(p), None),
            want,
            "{context}: estimate (?,p,?)"
        );
        for o in &objects {
            let want = model
                .set
                .iter()
                .filter(|t| t.predicate == *p && t.object == *o)
                .count();
            assert_eq!(
                graph.estimate(None, Some(p), Some(o)),
                want,
                "{context}: estimate (?,p,o)"
            );
        }
    }
    for o in &objects {
        let want = model.set.iter().filter(|t| t.object == *o).count();
        assert_eq!(
            graph.estimate(None, None, Some(o)),
            want,
            "{context}: estimate (?,?,o)"
        );
    }
    for t in model.set.iter().take(64) {
        assert!(graph.contains(t), "{context}: contains live triple");
    }
}

// ---------------------------------------------------------------------------
// Lint-corpus graphs: every fixture must round-trip the model exactly.
// ---------------------------------------------------------------------------

#[test]
fn corpus_graphs_match_reference_model() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ttl"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 8, "corpus should supply enough graphs");
    for path in paths {
        let src = fs::read_to_string(&path).expect("fixture readable");
        let parsed = grdf::rdf::turtle::parse(&src).expect("fixture parses");
        let mut graph = Graph::new();
        let mut model = Model::default();
        for t in parsed.iter() {
            assert_eq!(
                graph.insert(t.clone()),
                model.insert(t),
                "{}: insert agreement",
                path.display()
            );
        }
        // Force at least one compaction so both representations (pure run
        // and run+novelty) are exercised per fixture.
        assert_equivalent(&graph, &model, &format!("{} pre-compact", path.display()));
        graph.compact();
        assert_equivalent(&graph, &model, &format!("{} post-compact", path.display()));
    }
}

// ---------------------------------------------------------------------------
// Seeded random interleavings of insert / remove / compact.
// ---------------------------------------------------------------------------

/// One scripted operation over a small term universe (dense enough that
/// removes hit live triples and re-inserts resurrect tombstones).
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8, u8),
    /// Remove the i-th triple (mod current size) of the model set.
    RemoveNth(u16),
    Compact,
}

fn term(i: u8) -> Term {
    Term::iri(&format!("urn:prop#t{}", i % 12))
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(s, p, o)| Op::Insert(s, p, o)),
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(s, p, o)| Op::Insert(s, p, o)),
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(s, p, o)| Op::Insert(s, p, o)),
            any::<u16>().prop_map(Op::RemoveNth),
            Just(Op::Compact),
        ],
        1..120,
    )
}

fn apply(ops: &[Op]) -> (Graph, Model) {
    let mut graph = Graph::new();
    let mut model = Model::default();
    for op in ops {
        match op {
            Op::Insert(s, p, o) => {
                let t = Triple::new(term(*s), term(*p), term(*o));
                assert_eq!(graph.insert(t.clone()), model.insert(t), "insert agreement");
            }
            Op::RemoveNth(n) => {
                if model.set.is_empty() {
                    continue;
                }
                let t = model
                    .set
                    .iter()
                    .nth(*n as usize % model.set.len())
                    .cloned()
                    .expect("non-empty");
                assert!(model.remove(&t));
                assert!(graph.remove(&t), "columnar remove must hit live triple");
            }
            Op::Compact => graph.compact(),
        }
    }
    (graph, model)
}

/// The model's triples as id tuples of `graph`.
fn model_ids(graph: &Graph, model: &Model) -> Vec<(TermId, TermId, TermId)> {
    let id = |t: &Term| {
        graph
            .term_id(t)
            .expect("a live triple's terms are interned")
    };
    model
        .set
        .iter()
        .map(|t| (id(&t.subject), id(&t.predicate), id(&t.object)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_interleavings_match_reference(ops in arb_ops()) {
        let (graph, model) = apply(&ops);
        assert_equivalent(&graph, &model, "random interleaving");
    }

    /// `delta_ids_since` snapshots must survive compactions that happen
    /// after the generation marker was taken: the log is append-only and
    /// compaction must not renumber or drop it.
    #[test]
    fn delta_snapshots_span_compactions(
        before in arb_ops(),
        after in arb_ops(),
    ) {
        let (mut graph, mut model) = apply(&before);
        let marker = graph.generation();
        let model_marker = model.log.len();

        // Mutate past the marker, compacting along the way.
        graph.compact();
        for op in &after {
            match op {
                Op::Insert(s, p, o) => {
                    let t = Triple::new(term(*s), term(*p), term(*o));
                    prop_assert_eq!(graph.insert(t.clone()), model.insert(t));
                }
                Op::RemoveNth(n) => {
                    if model.set.is_empty() { continue; }
                    let t = model.set.iter().nth(*n as usize % model.set.len())
                        .cloned().expect("non-empty");
                    model.remove(&t);
                    graph.remove(&t);
                }
                Op::Compact => graph.compact(),
            }
        }
        graph.compact();

        let want = model.delta_since(model_marker);
        let got_terms = graph.delta_since(marker);
        prop_assert_eq!(&got_terms, &want, "delta_since across compactions");
        let got_ids: Vec<Triple> = graph
            .delta_ids_since(marker)
            .into_iter()
            .map(|(s, p, o): (TermId, TermId, TermId)| {
                Triple::new(
                    graph.term_of(s).clone(),
                    graph.term_of(p).clone(),
                    graph.term_of(o).clone(),
                )
            })
            .collect();
        prop_assert_eq!(&got_ids, &want, "delta_ids_since agrees with delta_since");
    }

    /// Copy-on-write isolation: an iterator over a clone must be
    /// unaffected by compacting (and further mutating) the original
    /// mid-iteration — the Arc-shared run is never modified in place.
    #[test]
    fn compaction_mid_iteration_is_isolated(ops in arb_ops()) {
        let (mut graph, model) = apply(&ops);
        let snapshot = graph.clone();
        let mut iter = snapshot.iter();

        // Drain half the iterator, then compact + mutate the original.
        let half: Vec<Triple> = iter.by_ref().take(model.set.len() / 2).collect();
        graph.compact();
        graph.insert(Triple::new(term(0), term(1), term(2)));
        for t in model.set.iter().take(3) {
            graph.remove(t);
        }
        graph.compact();

        // The snapshot's iteration still yields exactly the old set.
        let rest: Vec<Triple> = iter.collect();
        let seen: BTreeSet<Triple> = half.into_iter().chain(rest).collect();
        prop_assert_eq!(seen, model.set.clone(), "snapshot iteration isolated from compaction");
    }

    /// `estimate_ids` is the planner's only statistic, so it must be the
    /// exact match count for every shape of bound positions, probed with
    /// the positions of live triples.
    #[test]
    fn id_estimates_count_every_pattern_shape_exactly(ops in arb_ops()) {
        let (graph, model) = apply(&ops);
        let live = model_ids(&graph, &model);
        for &(s, p, o) in live.iter().take(32) {
            for shape in 0..8u8 {
                let pick = |bit: u8, id: TermId| (shape & bit != 0).then_some(id);
                let (qs, qp, qo) = (pick(1, s), pick(2, p), pick(4, o));
                let want = live
                    .iter()
                    .filter(|t| {
                        qs.is_none_or(|x| x == t.0)
                            && qp.is_none_or(|x| x == t.1)
                            && qo.is_none_or(|x| x == t.2)
                    })
                    .count();
                let mut scanned = 0;
                graph.for_each_match_ids(qs, qp, qo, |_, _, _| scanned += 1);
                prop_assert_eq!(graph.estimate_ids(qs, qp, qo), want, "shape {}", shape);
                prop_assert_eq!(scanned, want, "shape {}", shape);
            }
        }
        let mut by_predicate = graph.ids_by_predicate();
        by_predicate.sort_unstable();
        let mut want = live;
        want.sort_unstable();
        prop_assert_eq!(by_predicate, want, "ids_by_predicate holds the live set");
    }

    /// Where `pred_slices` offers a predicate's POS columns they hold
    /// exactly its live triples, sorted by object then subject, and a
    /// compacted graph offers them for every predicate.
    #[test]
    fn predicate_slices_hold_exactly_the_predicates_triples(ops in arb_ops()) {
        let (mut graph, model) = apply(&ops);
        for compacted in [false, true] {
            if compacted {
                graph.compact();
            }
            let live = model_ids(&graph, &model);
            let predicates: BTreeSet<TermId> = live.iter().map(|t| t.1).collect();
            for &p in &predicates {
                let Some((objects, subjects)) = graph.pred_slices(p) else {
                    prop_assert!(!compacted, "a compacted graph offers every slice");
                    continue;
                };
                let got: Vec<(TermId, TermId)> =
                    objects.iter().copied().zip(subjects.iter().copied()).collect();
                let mut want: Vec<(TermId, TermId)> =
                    live.iter().filter(|t| t.1 == p).map(|t| (t.2, t.0)).collect();
                want.sort_unstable();
                prop_assert_eq!(got, want, "predicate {}", p);
            }
        }
    }
}
