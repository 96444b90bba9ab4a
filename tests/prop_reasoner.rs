//! Property-based tests on the reasoner's core invariants: idempotence,
//! monotonicity, subclass-closure soundness/completeness, the interaction
//! between reasoning and consistency checking, and incremental
//! maintenance (insertion and retraction) against a from-scratch fixpoint.

use proptest::prelude::*;
use std::collections::HashSet;

use grdf::owl::consistency::check_consistency;
use grdf::owl::hierarchy::Hierarchy;
use grdf::owl::reasoner::{Edit, Maintenance, Reasoner};
use grdf::rdf::term::{Term, Triple};
use grdf::rdf::vocab::{owl, rdf, rdfs};
use grdf::rdf::Graph;
use grdf::runtime::Deadline;
use grdf::security::gsacs::{GSacs, OntoRepository, OwlHorstEngine, UpdateOp, UpdateRequest};
use grdf::security::policy::{Action, Policy, PolicySet};

/// Random subclass forest over `n` classes: each class i > 0 gets at most
/// one parent among classes 0..i, plus random instance assignments.
#[derive(Debug, Clone)]
struct Taxonomy {
    /// parent[i] = Some(j) with j < i.
    parents: Vec<Option<usize>>,
    /// (instance, class) memberships.
    memberships: Vec<(usize, usize)>,
}

fn arb_taxonomy(max_classes: usize, max_instances: usize) -> impl Strategy<Value = Taxonomy> {
    (2..max_classes).prop_flat_map(move |n| {
        let parents = (1..n)
            .map(|i| proptest::option::of(0..i))
            .collect::<Vec<_>>();
        let memberships = prop::collection::vec((0..max_instances, 0..n), 0..max_instances * 2);
        (parents, memberships).prop_map(|(mut ps, memberships)| {
            ps.insert(0, None);
            Taxonomy {
                parents: ps,
                memberships,
            }
        })
    })
}

fn class(i: usize) -> Term {
    Term::iri(&format!("urn:tax#C{i}"))
}

fn instance(i: usize) -> Term {
    Term::iri(&format!("urn:tax#i{i}"))
}

fn to_graph(t: &Taxonomy) -> Graph {
    let mut g = Graph::new();
    for (i, parent) in t.parents.iter().enumerate() {
        if let Some(p) = parent {
            g.add(class(i), Term::iri(rdfs::SUB_CLASS_OF), class(*p));
        }
    }
    for (inst, cls) in &t.memberships {
        g.add(instance(*inst), Term::iri(rdf::TYPE), class(*cls));
    }
    g
}

fn property(i: usize) -> Term {
    Term::iri(&format!("urn:tax#p{i}"))
}

/// A richer random graph than [`Taxonomy`]: a subclass forest plus random
/// property axioms (sub-property chains, domain/range, characteristics,
/// inverses), property assertions, and an optional OWL restriction. This
/// exercises every rule family the engine implements, so the equivalence
/// properties below compare the naive and semi-naive engines, and
/// incremental maintenance, over their full rule surface, not just
/// subclass closure.
#[derive(Debug, Clone)]
struct RichGraph {
    taxonomy: Taxonomy,
    /// `sub_props[i] = Some(j)` with `j < i`.
    sub_props: Vec<Option<usize>>,
    /// `(property, class)` domain axioms.
    domains: Vec<(usize, usize)>,
    /// `(property, class)` range axioms.
    ranges: Vec<(usize, usize)>,
    /// Properties declared `owl:TransitiveProperty`.
    transitive: Vec<usize>,
    /// Properties declared `owl:SymmetricProperty`.
    symmetric: Vec<usize>,
    /// `(p, q)` pairs declared `owl:inverseOf`.
    inverses: Vec<(usize, usize)>,
    /// Property assertions `(subject instance, property, object instance)`.
    assertions: Vec<(usize, usize, usize)>,
    /// Optional restriction `(property, filler class, kind)`; kind selects
    /// someValuesFrom / allValuesFrom / hasValue.
    restriction: Option<(usize, usize, u8)>,
}

fn arb_rich_graph() -> impl Strategy<Value = RichGraph> {
    let props = 4usize;
    let classes = 8usize;
    let instances = 6usize;
    (
        (
            arb_taxonomy(classes, instances),
            (1..props)
                .map(|i| proptest::option::of(0..i))
                .collect::<Vec<_>>(),
            prop::collection::vec((0..props, 0..classes), 0..3),
            prop::collection::vec((0..props, 0..classes), 0..3),
        ),
        (
            prop::collection::vec(0..props, 0..2),
            prop::collection::vec(0..props, 0..2),
            prop::collection::vec((0..props, 0..props), 0..2),
            prop::collection::vec((0..instances, 0..props, 0..instances), 0..12),
            proptest::option::of((0..props, 0..classes, 0u8..3)),
        ),
    )
        .prop_map(
            |(
                (taxonomy, mut sub_props, domains, ranges),
                (transitive, symmetric, inverses, assertions, restriction),
            )| {
                sub_props.insert(0, None);
                RichGraph {
                    taxonomy,
                    sub_props,
                    domains,
                    ranges,
                    transitive,
                    symmetric,
                    inverses,
                    assertions,
                    restriction,
                }
            },
        )
}

fn rich_to_graph(r: &RichGraph) -> Graph {
    let mut g = to_graph(&r.taxonomy);
    let n_classes = r.taxonomy.parents.len();
    for (i, parent) in r.sub_props.iter().enumerate() {
        if let Some(p) = parent {
            g.add(property(i), Term::iri(rdfs::SUB_PROPERTY_OF), property(*p));
        }
    }
    for (p, c) in &r.domains {
        g.add(property(*p), Term::iri(rdfs::DOMAIN), class(c % n_classes));
    }
    for (p, c) in &r.ranges {
        g.add(property(*p), Term::iri(rdfs::RANGE), class(c % n_classes));
    }
    for p in &r.transitive {
        g.add(
            property(*p),
            Term::iri(rdf::TYPE),
            Term::iri(owl::TRANSITIVE_PROPERTY),
        );
    }
    for p in &r.symmetric {
        g.add(
            property(*p),
            Term::iri(rdf::TYPE),
            Term::iri(owl::SYMMETRIC_PROPERTY),
        );
    }
    for (p, q) in &r.inverses {
        g.add(property(*p), Term::iri(owl::INVERSE_OF), property(*q));
    }
    for (s, p, o) in &r.assertions {
        g.add(instance(*s), property(*p), instance(*o));
    }
    if let Some((p, c, kind)) = &r.restriction {
        let node = Term::blank("restr");
        g.add(
            node.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(owl::RESTRICTION),
        );
        g.add(node.clone(), Term::iri(owl::ON_PROPERTY), property(*p));
        match kind {
            0 => g.add(
                node.clone(),
                Term::iri(owl::SOME_VALUES_FROM),
                class(c % n_classes),
            ),
            1 => g.add(
                node.clone(),
                Term::iri(owl::ALL_VALUES_FROM),
                class(c % n_classes),
            ),
            _ => g.add(node.clone(), Term::iri(owl::HAS_VALUE), instance(0)),
        };
        g.add(node, Term::iri(rdfs::SUB_CLASS_OF), class(0));
    }
    g
}

/// Axioms for the rules that run by trigger rather than by join, drawn
/// beside a [`RichGraph`] (whose own graphs stay free of `sameAs` and
/// boolean classes, as the retraction property needs). Each is optional.
#[derive(Debug, Clone)]
struct TriggerAxioms {
    /// `owl:sameAs` between two instances.
    same_as: Option<(usize, usize)>,
    /// A boolean class over two or three classes: `unionOf` when the flag
    /// is set, else `intersectionOf`.
    boolean: Option<(bool, Vec<usize>)>,
    /// A property declared `InverseFunctional` when the flag is set, else
    /// `Functional`.
    functional: Option<(usize, bool)>,
    /// An `equivalentProperty` axiom when the flag is set, else an
    /// `equivalentClass` axiom, between two classes or properties.
    equivalence: Option<(bool, usize, usize)>,
}

fn arb_trigger_axioms() -> impl Strategy<Value = TriggerAxioms> {
    (
        proptest::option::of((0..6usize, 0..6usize)),
        proptest::option::of((any::<bool>(), prop::collection::vec(0..8usize, 2..4))),
        proptest::option::of((0..4usize, any::<bool>())),
        proptest::option::of((any::<bool>(), 0..8usize, 0..8usize)),
    )
        .prop_map(
            |(same_as, boolean, functional, equivalence)| TriggerAxioms {
                same_as,
                boolean,
                functional,
                equivalence,
            },
        )
}

/// [`rich_to_graph`] plus the trigger axioms `x`.
fn rich_with_triggers(r: &RichGraph, x: &TriggerAxioms) -> Graph {
    let mut g = rich_to_graph(r);
    let n_classes = r.taxonomy.parents.len();
    let props = r.sub_props.len();
    if let Some((a, b)) = x.same_as {
        g.add(instance(a), Term::iri(owl::SAME_AS), instance(b));
    }
    if let Some((union, parts)) = &x.boolean {
        let parts: Vec<Term> = parts.iter().map(|c| class(c % n_classes)).collect();
        let head = g.write_list(&parts);
        let op = if *union {
            owl::UNION_OF
        } else {
            owl::INTERSECTION_OF
        };
        g.add(Term::iri("urn:tax#Boolean"), Term::iri(op), head);
    }
    if let Some((p, inverse)) = x.functional {
        let kind = if inverse {
            owl::INVERSE_FUNCTIONAL_PROPERTY
        } else {
            owl::FUNCTIONAL_PROPERTY
        };
        g.add(property(p % props), Term::iri(rdf::TYPE), Term::iri(kind));
    }
    match x.equivalence {
        Some((true, a, b)) => g.add(
            property(a % props),
            Term::iri(owl::EQUIVALENT_PROPERTY),
            property(b % props),
        ),
        Some((false, a, b)) => g.add(
            class(a % n_classes),
            Term::iri(owl::EQUIVALENT_CLASS),
            class(b % n_classes),
        ),
        None => false,
    };
    g
}

/// Materialize a copy of `g` under `reasoner` and return the fixpoint.
fn fixpoint(g: &Graph, reasoner: Reasoner) -> Graph {
    let mut out = g.clone();
    reasoner.materialize(&mut out);
    out
}

/// The three rule configurations the equivalence properties sweep.
fn rule_configs() -> [Reasoner; 3] {
    [
        Reasoner::rdfs_only(),
        Reasoner {
            restrictions: false,
            ..Reasoner::default()
        },
        Reasoner::default(),
    ]
}

/// Ground-truth ancestors of class `i` by following parent links.
fn ancestors(t: &Taxonomy, i: usize) -> HashSet<usize> {
    let mut out = HashSet::new();
    let mut cur = t.parents[i];
    while let Some(p) = cur {
        if !out.insert(p) {
            break;
        }
        cur = t.parents[p];
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn materialization_is_idempotent(t in arb_taxonomy(12, 8)) {
        let mut g = to_graph(&t);
        Reasoner::default().materialize(&mut g);
        let first = g.len();
        let stats = Reasoner::default().materialize(&mut g);
        prop_assert_eq!(stats.inferred, 0);
        prop_assert_eq!(g.len(), first);
    }

    #[test]
    fn type_closure_matches_ground_truth(t in arb_taxonomy(12, 8)) {
        let mut g = to_graph(&t);
        Reasoner::default().materialize(&mut g);
        for (inst, cls) in &t.memberships {
            // Soundness & completeness of inherited memberships.
            for anc in ancestors(&t, *cls) {
                prop_assert!(
                    g.has(&instance(*inst), &Term::iri(rdf::TYPE), &class(anc)),
                    "i{} should be a C{}", inst, anc
                );
            }
        }
        // Soundness: no membership in a non-ancestor class (unless asserted
        // via a different membership).
        for (inst, cls) in &t.memberships {
            let legal: HashSet<usize> = t
                .memberships
                .iter()
                .filter(|(i2, _)| i2 == inst)
                .flat_map(|(_, c2)| {
                    let mut s = ancestors(&t, *c2);
                    s.insert(*c2);
                    s
                })
                .collect();
            for c in 0..t.parents.len() {
                if !legal.contains(&c) {
                    prop_assert!(
                        !g.has(&instance(*inst), &Term::iri(rdf::TYPE), &class(c)),
                        "i{} must NOT be C{} (asserted C{})", inst, c, cls
                    );
                }
            }
        }
    }

    #[test]
    fn materialization_is_monotone(t in arb_taxonomy(10, 6), extra_cls in 0usize..6, extra_inst in 0usize..6) {
        // Entailments of G are preserved when G grows.
        let mut g1 = to_graph(&t);
        Reasoner::default().materialize(&mut g1);
        let before: Vec<_> = g1.iter().collect();

        let mut g2 = to_graph(&t);
        let n = t.parents.len();
        g2.add(instance(extra_inst + 100), Term::iri(rdf::TYPE), class(extra_cls % n));
        Reasoner::default().materialize(&mut g2);
        for triple in before {
            prop_assert!(g2.contains(&triple), "lost entailment {}", triple);
        }
    }

    #[test]
    fn hierarchy_queries_agree_with_reasoner(t in arb_taxonomy(10, 6)) {
        // Hierarchy::instances_transitive (no materialization) must equal
        // Hierarchy::instances (after materialization).
        let g_raw = to_graph(&t);
        let h_raw = Hierarchy::new(&g_raw);
        let mut g_mat = to_graph(&t);
        Reasoner::default().materialize(&mut g_mat);
        let h_mat = Hierarchy::new(&g_mat);
        for c in 0..t.parents.len() {
            let mut lazy = h_raw.instances_transitive(&class(c));
            let mut eager = h_mat.instances(&class(c));
            lazy.sort();
            eager.sort();
            eager.dedup();
            prop_assert_eq!(lazy, eager, "class C{}", c);
        }
    }

    #[test]
    fn consistent_taxonomies_stay_consistent(t in arb_taxonomy(10, 6)) {
        let mut g = to_graph(&t);
        Reasoner::default().materialize(&mut g);
        prop_assert!(check_consistency(&g).is_empty());
    }

    #[test]
    fn disjointness_violations_are_found_iff_shared_members(
        t in arb_taxonomy(8, 5),
        a in 0usize..8,
        b in 0usize..8,
    ) {
        let n = t.parents.len();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let mut g = to_graph(&t);
        g.add(
            class(a),
            Term::iri(grdf::rdf::vocab::owl::DISJOINT_WITH),
            class(b),
        );
        Reasoner::default().materialize(&mut g);
        let h = Hierarchy::new(&g);
        let members_a: HashSet<Term> = h.instances(&class(a)).into_iter().collect();
        let members_b: HashSet<Term> = h.instances(&class(b)).into_iter().collect();
        let overlap = members_a.intersection(&members_b).count();
        let violations = check_consistency(&g)
            .into_iter()
            .filter(|v| matches!(v, grdf::owl::consistency::Violation::Disjoint { .. }))
            .count();
        prop_assert_eq!(overlap > 0, violations > 0,
            "overlap {} vs violations {}", overlap, violations);
    }

    /// The semi-naive engine computes the exact same fixpoint as the naive
    /// reference, across every rule configuration (rdfs-only, owl without
    /// restrictions, full), and never needs more passes. The graphs also
    /// carry the axioms of the trigger-driven rules (`sameAs`, boolean
    /// classes, functional properties, equivalences), so the property
    /// covers schema absorption and trigger detection, not only the joins.
    #[test]
    fn semi_naive_equals_naive_on_random_graphs(r in arb_rich_graph(), x in arb_trigger_axioms()) {
        let g = rich_with_triggers(&r, &x);
        for config in rule_configs() {
            let mut g_naive = g.clone();
            let mut g_semi = g.clone();
            let stats_naive = config.materialize_naive(&mut g_naive);
            let stats_semi = config.materialize(&mut g_semi);
            prop_assert_eq!(&g_naive, &g_semi,
                "fixpoints differ (rdfs={} owl={} restrictions={})",
                config.rdfs, config.owl, config.restrictions);
            prop_assert_eq!(stats_naive.inferred, stats_semi.inferred);
            prop_assert!(stats_semi.passes <= stats_naive.passes,
                "semi-naive took {} passes vs naive {}",
                stats_semi.passes, stats_naive.passes);
        }
    }

    /// Incrementally deriving the consequences of a batch of additions
    /// yields exactly the same graph as re-materializing from scratch.
    #[test]
    fn incremental_update_equals_full_rematerialization(
        r in arb_rich_graph(),
        extra in prop::collection::vec((0..8usize, 0..4usize, 0..8usize), 1..6),
    ) {
        let reasoner = Reasoner::default();
        let mut incremental = rich_to_graph(&r);
        reasoner.materialize(&mut incremental);
        let mark = incremental.generation();
        let mut scratch = incremental.clone();
        for (s, p, o) in &extra {
            incremental.add(instance(*s + 50), property(*p), instance(*o + 50));
            scratch.add(instance(*s + 50), property(*p), instance(*o + 50));
        }
        reasoner
            .materialize_delta(&mut incremental, mark, &Deadline::never())
            .expect("never-expiring deadline");
        reasoner.materialize(&mut scratch);
        prop_assert_eq!(&incremental, &scratch);
    }

    /// Retracting a random subset of asserted instance triples — types
    /// under subclass chains, transitive (a fixed chain among them),
    /// inverse and symmetric edges, domain/range and restriction
    /// premises — through
    /// [`Reasoner::maintain`], with or without inserts in the same batch,
    /// yields exactly the from-scratch fixpoint of the edited base. A
    /// `twin` pick first gives the removed triple a second derivation (a
    /// subproperty or subclass alias), which must survive the retraction.
    /// Removing a schema triple may instead ask for a rebuild; instance
    /// triples never do here (the graphs have no `sameAs` and no boolean
    /// classes).
    #[test]
    fn retraction_equals_full_rematerialization(
        r in arb_rich_graph(),
        picks in prop::collection::vec((any::<usize>(), any::<bool>()), 1..6),
        schema_pick in proptest::option::of(any::<usize>()),
        extra in prop::collection::vec((0..8usize, 0..4usize, 0..8usize), 0..4),
    ) {
        let mut base = rich_to_graph(&r);
        add_chain(&mut base);
        let is_instance = |t: &Triple| t.subject.as_iri().is_some_and(|i| i.starts_with("urn:tax#i"));
        let instances: Vec<Triple> = base.iter().filter(is_instance).collect();
        let schema: Vec<Triple> = base.iter().filter(|t| !is_instance(t)).collect();
        prop_assume!(!instances.is_empty());
        let mut removed: Vec<Triple> = Vec::new();
        for (k, (pick, twin)) in picks.iter().enumerate() {
            let t = instances[pick % instances.len()].clone();
            if removed.contains(&t) {
                continue;
            }
            if *twin {
                add_alias(&mut base, &t, k);
            }
            removed.push(t);
        }
        if let Some(pick) = schema_pick.filter(|_| !schema.is_empty()) {
            removed.push(schema[pick % schema.len()].clone());
        }
        let mut edited = base.clone();
        for t in &removed {
            edited.remove(t);
        }
        for (s, p, o) in &extra {
            edited.add(instance(*s + 50), property(*p), instance(*o + 50));
        }
        for config in rule_configs() {
            let mut served = fixpoint(&base, config);
            let since = served.generation();
            for (s, p, o) in &extra {
                served.add(instance(*s + 50), property(*p), instance(*o + 50));
            }
            let asserted = |s: &Term, p: &Term, o: &Term| edited.has(s, p, o);
            let edit = Edit { removed: &removed, since, asserted: &asserted };
            let outcome = config
                .maintain(&mut served, &edit, &Deadline::never())
                .expect("never-expiring deadline");
            let scratch = fixpoint(&edited, config);
            match outcome {
                Maintenance::Maintained { retracted, .. } => {
                    prop_assert_eq!(&served, &scratch,
                        "retraction diverged (rdfs={} owl={} restrictions={})",
                        config.rdfs, config.owl, config.restrictions);
                    for &(s, p, o) in &retracted {
                        prop_assert!(!served.has_ids(s, p, o), "retracted triple still served");
                    }
                }
                Maintenance::Rebuild => prop_assert!(
                    schema_pick.is_some(),
                    "instance-only removals must not need a rebuild"
                ),
            }
        }
    }

    /// The served G-SACS after every update of a random sequence of
    /// deletes and inserts, over a rich graph that also holds an
    /// `owl:sameAs` clique and a union class: its dataset equals the
    /// from-scratch fixpoint of its base, whether the batch took the
    /// incremental path or fell back to the full rebuild (schema,
    /// `sameAs` and boolean-class deletes).
    #[test]
    fn gsacs_serves_the_fixpoint_after_deletes(
        r in arb_rich_graph(),
        ops in prop::collection::vec((any::<usize>(), any::<bool>()), 1..8),
    ) {
        let mut data = rich_to_graph(&r);
        data.add(instance(0), Term::iri(owl::SAME_AS), instance(1));
        let union = data.write_list(&[class(1), class(2)]);
        data.add(Term::iri("urn:tax#Either"), Term::iri(owl::UNION_OF), union);
        // Every IRI subject may be edited and deleted.
        let subjects: Vec<Term> = data
            .all_subjects()
            .into_iter()
            .filter(|s| s.as_iri().is_some())
            .collect();
        let mut policies = Vec::new();
        for (n, s) in subjects.iter().enumerate() {
            let iri = s.as_iri().expect("IRI subject");
            for action in [Action::Edit, Action::Delete] {
                policies.push(Policy {
                    action,
                    ..Policy::permit(&format!("urn:p:{n}:{action:?}"), "urn:role#admin", iri)
                });
            }
        }
        let candidates: Vec<Triple> = data.iter().filter(|t| t.subject.as_iri().is_some()).collect();
        let mut svc = GSacs::new(
            OntoRepository::new(),
            PolicySet::new(policies),
            Box::<OwlHorstEngine>::default(),
            data,
            0,
        );
        for (k, (pick, insert)) in ops.iter().enumerate() {
            let t = candidates[pick % candidates.len()].clone();
            let op = if *insert {
                // A fresh assertion on the same subject and predicate.
                UpdateOp::Insert(Triple::new(t.subject.clone(), t.predicate.clone(), instance(60 + k)))
            } else {
                UpdateOp::Delete(t)
            };
            let request = UpdateRequest { role: "urn:role#admin".to_string(), ops: vec![op] };
            svc.handle_update(&request);
            let scratch = fixpoint(svc.base_graph(), Reasoner::default());
            prop_assert_eq!(svc.dataset(), &scratch, "after {:?}", request.ops);
            prop_assert_eq!(svc.inferred, scratch.len() - svc.base_graph().len());
        }
    }
}

/// A transitive chain i30 → … → i34 whose property's domain sits under a
/// subclass edge: cutting an edge retracts closure pairs and types that
/// lie more than one rule step away from the cut.
fn add_chain(base: &mut Graph) {
    let chain = Term::iri("urn:tax#chain");
    let start = Term::iri("urn:tax#ChainStart");
    base.add(
        chain.clone(),
        Term::iri(rdf::TYPE),
        Term::iri(owl::TRANSITIVE_PROPERTY),
    );
    base.add(chain.clone(), Term::iri(rdfs::DOMAIN), start.clone());
    base.add(start, Term::iri(rdfs::SUB_CLASS_OF), class(0));
    for i in 30..34 {
        base.add(instance(i), chain.clone(), instance(i + 1));
    }
}

/// Give `t` a second derivation in `base`: an instance typed with a fresh
/// subclass of `t`'s class, or linked by a fresh subproperty of `t`'s
/// property.
fn add_alias(base: &mut Graph, t: &Triple, k: usize) {
    let alias = Term::iri(&format!("urn:tax#alias{k}"));
    if t.predicate.as_iri() == Some(rdf::TYPE) {
        base.add(
            alias.clone(),
            Term::iri(rdfs::SUB_CLASS_OF),
            t.object.clone(),
        );
        base.add(t.subject.clone(), t.predicate.clone(), alias);
    } else {
        base.add(
            alias.clone(),
            Term::iri(rdfs::SUB_PROPERTY_OF),
            t.predicate.clone(),
        );
        base.add(t.subject.clone(), alias, t.object.clone());
    }
}
