//! Forward-chaining materialization of the RDFS + OWL-Horst rule subset.
//!
//! The reasoner repeatedly applies entailment rules until a fixpoint and
//! inserts every derived triple into the graph ("materialization"), so that
//! downstream query answering is a plain pattern match. This is the
//! "logical inference" capability the paper claims as GRDF's main advantage
//! over GML (§1, §9).
//!
//! There is one rule set, and it runs in interned-id space. A pass joins a
//! *chunk* of triples against the full graph: every rule instance with a
//! premise in the chunk proposes its conclusion. The rules no single
//! triple can drive (`owl:sameAs` cliques, boolean classes, a restriction
//! whose declaration changed) re-run over the whole graph when the pass's
//! *triggers* name them. Two drivers run that one pass body:
//!
//! * [`Reasoner::materialize`] (semi-naive) — pass 1 takes the whole graph
//!   as its chunk; each later pass takes only the *delta*, the triples the
//!   previous pass derived. The schema index absorbs each delta
//!   incrementally, and the delta's triggers decide which clique-global
//!   rules run.
//! * [`Reasoner::materialize_naive`] (the reference for tests and
//!   benchmarks) — every pass takes the whole graph as its chunk, a schema
//!   index absorbed afresh and triggers that name every clique-global
//!   rule. Sharing the rule bodies, it checks the semi-naive delta logic
//!   (incremental absorption, triggers, delta × full coverage), not the
//!   rules themselves; the unit tests below hold hand-written
//!   expectations for those.
//!
//! The semi-naive engine also powers [`Reasoner::maintain`], which brings
//! an already-materialized graph up to date with one batch of base edits:
//! delete-and-rederive over the same delta rules retracts what the removed
//! triples supported, and the semi-naive loop derives the consequences of
//! the inserts — the primitive behind incremental G-SACS updates.
//!
//! Rule coverage:
//!
//! | group | rules |
//! |-------|-------|
//! | RDFS  | subClassOf/subPropertyOf transitivity, type inheritance, property inheritance, `rdfs:domain`, `rdfs:range` |
//! | OWL   | `inverseOf`, `SymmetricProperty`, `TransitiveProperty`, `FunctionalProperty` → `sameAs`, `InverseFunctionalProperty` → `sameAs`, `equivalentClass`/`equivalentProperty`, `sameAs` closure + substitution, `intersectionOf`/`unionOf` |
//! | Restrictions | `hasValue` (both directions), `someValuesFrom`, `allValuesFrom` |

use std::collections::{HashMap, HashSet};

use grdf_rdf::graph::{Graph, TermId};
use grdf_rdf::term::{Term, Triple};
use grdf_rdf::vocab::{owl, rdf, rdfs};
use grdf_runtime::{Deadline, DeadlineExceeded};

/// Statistics from one materialization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReasonerStats {
    /// Number of fixpoint passes executed.
    pub passes: usize,
    /// Triples added by inference.
    pub inferred: usize,
    /// Triples *consumed* as the delta of each pass. For the semi-naive
    /// engine this is the seed size followed by each pass's fresh
    /// derivations; for the naive reference it is the full graph size at
    /// the start of every pass — the gap between the two is the work the
    /// delta-driven engine avoids.
    pub delta_sizes: Vec<usize>,
}

/// Configurable forward-chaining reasoner.
#[derive(Debug, Clone, Copy)]
pub struct Reasoner {
    /// Apply the RDFS rule group.
    pub rdfs: bool,
    /// Apply the OWL property-semantics rule group.
    pub owl: bool,
    /// Apply restriction-class rules (`hasValue`, `someValuesFrom`,
    /// `allValuesFrom`).
    pub restrictions: bool,
    /// Safety valve for the fixpoint loop.
    pub max_passes: usize,
}

impl Default for Reasoner {
    fn default() -> Self {
        Reasoner {
            rdfs: true,
            owl: true,
            restrictions: true,
            max_passes: 64,
        }
    }
}

/// How often a delta pass polls the request deadline.
const DEADLINE_POLL_STRIDE: usize = 256;

/// One batch's change to the asserted base of a materialized graph — the
/// input of [`Reasoner::maintain`].
pub struct Edit<'a> {
    /// Asserted triples the batch removed from the base.
    pub removed: &'a [Triple],
    /// The graph's [`Graph::generation`] before the batch's inserts were
    /// added to it.
    pub since: u64,
    /// Whether the edited base still asserts `(s, p, o)`. An asserted
    /// triple is never retracted, whatever else it was derived from.
    pub asserted: &'a dyn Fn(&Term, &Term, &Term) -> bool,
}

/// How [`Reasoner::maintain`] left the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Maintenance {
    /// The graph holds the materialization of the edited base.
    Maintained {
        /// Passes over the over-deletion waves, the re-derivation seed
        /// and the forward fixpoint; `inferred` counts every triple the
        /// call added, re-derived ones included.
        stats: ReasonerStats,
        /// The triples the graph lost, as ids of the graph.
        retracted: Vec<(TermId, TermId, TermId)>,
    },
    /// The removals reach a rule that only a full fixpoint evaluates: a
    /// schema triple, an `owl:sameAs` clique, a boolean class or a
    /// restriction declaration. The graph holds the batch's inserts and is
    /// otherwise unchanged; rematerialize it from the edited base.
    Rebuild,
}

impl Reasoner {
    /// RDFS-only configuration (ablation arm).
    pub fn rdfs_only() -> Reasoner {
        Reasoner {
            rdfs: true,
            owl: false,
            restrictions: false,
            ..Reasoner::default()
        }
    }

    /// Materialize all entailments into `graph`; returns statistics.
    pub fn materialize(&self, graph: &mut Graph) -> ReasonerStats {
        self.materialize_with_deadline(graph, &Deadline::never())
            .expect("a never-expiring deadline cannot interrupt the fixpoint")
    }

    /// Materialize under a cooperative deadline, polled once per fixpoint
    /// pass (and once per `DEADLINE_POLL_STRIDE` delta triples inside
    /// each pass). On expiry the graph is left with whatever entailments
    /// the completed passes added (each pass only adds sound inferences,
    /// so the graph stays consistent — merely under-materialized) and the
    /// caller decides how to degrade.
    pub fn materialize_with_deadline(
        &self,
        graph: &mut Graph,
        deadline: &Deadline,
    ) -> Result<ReasonerStats, DeadlineExceeded> {
        // The seed comes straight off the POS columns: the bulk first pass
        // arrives predicate-grouped, so the rule pass dispatches per group
        // without re-sorting ~the whole graph.
        let voc = Voc::resolve(graph);
        let mut schema = IdSchema::default();
        let delta = graph.ids_by_predicate();
        let triggers = schema.absorb(graph, &voc, &delta);
        let maps = IdRestrictionMaps::build(&schema);
        let mut stats = ReasonerStats::default();
        self.fixpoint(
            graph,
            &voc,
            &mut schema,
            maps,
            (delta, triggers),
            &mut stats,
            deadline,
        )?;
        emit_totals(&stats);
        Ok(stats)
    }

    /// The reference fixpoint, for tests and benchmarks only: every pass
    /// runs the pass body [`Reasoner::materialize`] runs, with the whole
    /// graph as its chunk, a schema index absorbed afresh from it, and
    /// triggers that name every clique-global rule (`owl:sameAs`, boolean
    /// classes, every restriction). Its fixpoint must equal the
    /// semi-naive one in no fewer passes; `delta_sizes` holds the whole
    /// graph's size at the start of each pass.
    pub fn materialize_naive(&self, graph: &mut Graph) -> ReasonerStats {
        let voc = Voc::resolve(graph);
        let mut stats = ReasonerStats::default();
        loop {
            let all = graph.ids_by_predicate();
            let mut schema = IdSchema::default();
            schema.absorb(graph, &voc, &all);
            let maps = IdRestrictionMaps::build(&schema);
            let every = Triggers {
                same_as: true,
                boolean: true,
                dirty_restrictions: (0..schema.id_restrictions.len()).collect(),
            };
            let added = self
                .pass(
                    graph,
                    &voc,
                    &schema,
                    &maps,
                    (&all, &every),
                    &mut stats,
                    &Deadline::never(),
                )
                .expect("a never-expiring deadline cannot interrupt the fixpoint");
            if added == 0 || stats.passes >= self.max_passes {
                emit_totals(&stats);
                return stats;
            }
        }
    }

    /// Derive the consequences of just the triples inserted since
    /// `from_generation` (a marker from [`Graph::generation`] taken when
    /// the graph was last fully materialized): [`Reasoner::maintain`] with
    /// nothing removed.
    pub fn materialize_delta(
        &self,
        graph: &mut Graph,
        from_generation: u64,
        deadline: &Deadline,
    ) -> Result<ReasonerStats, DeadlineExceeded> {
        let edit = Edit {
            removed: &[],
            since: from_generation,
            asserted: &|_, _, _| true,
        };
        match self.maintain(graph, &edit, deadline)? {
            Maintenance::Maintained { stats, .. } => Ok(stats),
            Maintenance::Rebuild => unreachable!("an edit that removes nothing never rebuilds"),
        }
    }

    /// Bring a graph that was materialized before the batch `edit`
    /// describes up to date with it. The batch's inserts must already be
    /// in the graph (added after `edit.since`); its removals must not be
    /// (the graph still holds them, as entailments now at best).
    ///
    /// Delete-and-rederive (Gupta, Mumick & Subrahmanian, SIGMOD 1993)
    /// over the semi-naive delta rules, with one schema index for the
    /// batch, built from the whole graph:
    ///
    /// 1. **over-delete** — delta passes in waves, from the removed
    ///    triples, against the graph before removal, collect every
    ///    entailment derived through a removed one (never a triple the
    ///    base still asserts);
    /// 2. **remove** that set;
    /// 3. **re-derive** the removed triples that still have a one-step
    ///    derivation: one delta pass over the remaining triples that
    ///    touch their subjects, keeping the proposals that were removed;
    /// 4. **forward-chain** from the re-derived triples and the inserts
    ///    with the semi-naive loop.
    ///
    /// Answers [`Maintenance::Rebuild`], before touching the graph, when
    /// an over-deleted triple is schema or feeds a clique-global rule (see
    /// [`Maintenance::Rebuild`]): those rules re-evaluate whole cliques,
    /// so no delta pass can say what they stop deriving. On deadline
    /// expiry the graph may be half-maintained; rematerialize it.
    pub fn maintain(
        &self,
        graph: &mut Graph,
        edit: &Edit<'_>,
        deadline: &Deadline,
    ) -> Result<Maintenance, DeadlineExceeded> {
        let mut stats = ReasonerStats::default();
        let mut removed: Vec<IdTriple> = edit
            .removed
            .iter()
            .filter_map(|t| graph.ids_of(t))
            .filter(|&(s, p, o)| graph.has_ids(s, p, o))
            .collect();
        removed.sort_unstable();
        removed.dedup();
        removed.retain(|&t| !asserted_ids(graph, edit, t));
        if removed.is_empty() && graph.delta_ids_since(edit.since).is_empty() {
            return Ok(Maintenance::Maintained {
                stats,
                retracted: Vec::new(),
            });
        }
        // The schema must cover the *whole* graph: rules consult
        // declarations made long before the batch.
        let voc = Voc::resolve(graph);
        let mut schema = IdSchema::default();
        let all = graph.live_ids();
        schema.absorb(graph, &voc, &all);
        let maps = IdRestrictionMaps::build(&schema);
        let mut retracted = Vec::new();
        if !removed.is_empty() {
            let span = grdf_obs::span("reasoner.retract").tag("removed", removed.len());
            let Some(doomed) = self.over_delete(
                graph, &voc, &schema, &maps, removed, edit, &mut stats, deadline,
            )?
            else {
                drop(span.tag("rebuild", true));
                return Ok(Maintenance::Rebuild);
            };
            retracted = doomed.iter().copied().collect();
            graph.remove_ids(&retracted);
            let back = self.rederive(graph, &voc, &schema, &maps, &doomed, &mut stats, deadline)?;
            drop(
                span.tag("overdeleted", doomed.len())
                    .tag("rederived", back.len()),
            );
            stats.inferred += graph.extend_ids(back);
        }
        // Forward-chain from everything added since the marker: the
        // inserts and the re-derived triples. Only this delta decides
        // which clique-global rules need to run.
        let delta = graph.delta_ids_since(edit.since);
        if !delta.is_empty() {
            let triggers = schema.triggers_for(graph, &voc, &delta);
            self.fixpoint(
                graph,
                &voc,
                &mut schema,
                maps,
                (delta, triggers),
                &mut stats,
                deadline,
            )?;
        }
        retracted.retain(|&(s, p, o)| !graph.has_ids(s, p, o));
        retracted.sort_unstable();
        emit_totals(&stats);
        Ok(Maintenance::Maintained { stats, retracted })
    }

    /// DRed phase 1: the removed triples plus every entailment derived
    /// through one of them, or `None` when that set reaches a rule the
    /// delta passes cannot retract through (see [`Maintenance::Rebuild`]).
    #[allow(clippy::too_many_arguments)]
    fn over_delete(
        &self,
        g: &Graph,
        voc: &Voc,
        s: &IdSchema,
        maps: &IdRestrictionMaps,
        removed: Vec<IdTriple>,
        edit: &Edit<'_>,
        stats: &mut ReasonerStats,
        deadline: &Deadline,
    ) -> Result<Option<HashSet<IdTriple>>, DeadlineExceeded> {
        let mut doomed: HashSet<IdTriple> = removed.iter().copied().collect();
        let mut wave = removed;
        while !wave.is_empty() {
            deadline.check()?;
            if wave.iter().any(|&t| voc.structural(t)) || s.triggers_for(g, voc, &wave).any() {
                return Ok(None);
            }
            stats.passes += 1;
            stats.delta_sizes.push(wave.len());
            let (proposals, _) = self.delta_pass(g, voc, s, maps, &wave, deadline)?;
            wave = Vec::new();
            for t in proposals {
                if !doomed.contains(&t) && g.has_ids(t.0, t.1, t.2) && !asserted_ids(g, edit, t) {
                    doomed.insert(t);
                    wave.push(t);
                }
            }
        }
        Ok(Some(doomed))
    }

    /// DRed phase 3: the over-deleted triples that still have a one-step
    /// derivation from the remaining graph. Every rule has a premise that
    /// shares its subject or object with the conclusion's subject, and
    /// the delta pass fires the rule from that premise, so one pass over
    /// the triples touching the over-deleted subjects finds them all.
    #[allow(clippy::too_many_arguments)]
    fn rederive(
        &self,
        g: &Graph,
        voc: &Voc,
        s: &IdSchema,
        maps: &IdRestrictionMaps,
        doomed: &HashSet<IdTriple>,
        stats: &mut ReasonerStats,
        deadline: &Deadline,
    ) -> Result<Vec<IdTriple>, DeadlineExceeded> {
        let mut nodes: Vec<TermId> = doomed.iter().map(|t| t.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut seed: Vec<IdTriple> = Vec::new();
        for &n in &nodes {
            g.for_each_match_ids(Some(n), None, None, |s, p, o| seed.push((s, p, o)));
            g.for_each_match_ids(None, None, Some(n), |s, p, o| seed.push((s, p, o)));
        }
        seed.sort_unstable();
        seed.dedup();
        stats.passes += 1;
        stats.delta_sizes.push(seed.len());
        let (proposals, _) = self.delta_pass(g, voc, s, maps, &seed, deadline)?;
        let mut back: Vec<IdTriple> = proposals
            .into_iter()
            .filter(|t| doomed.contains(t))
            .collect();
        back.sort_unstable();
        back.dedup();
        Ok(back)
    }

    // ------------------------------------------------------------------
    // The pass body and the semi-naive loop
    // ------------------------------------------------------------------

    /// The semi-naive loop from a seeded delta: each pass runs the pass
    /// body on the delta and its triggers, then absorbs what it derived
    /// as the next delta. `maps` must be built from `schema`.
    #[allow(clippy::too_many_arguments)]
    fn fixpoint(
        &self,
        graph: &mut Graph,
        voc: &Voc,
        schema: &mut IdSchema,
        mut maps: IdRestrictionMaps,
        (mut delta, mut triggers): (Vec<IdTriple>, Triggers),
        stats: &mut ReasonerStats,
        deadline: &Deadline,
    ) -> Result<(), DeadlineExceeded> {
        let mut pass = 0;
        loop {
            pass += 1;
            let mark = graph.generation();
            let added = self.pass(
                graph,
                voc,
                schema,
                &maps,
                (&delta, &triggers),
                stats,
                deadline,
            )?;
            if added == 0 || pass >= self.max_passes {
                return Ok(());
            }
            delta = graph.delta_ids_since(mark);
            triggers = schema.absorb(graph, voc, &delta);
            // Restriction lookup tables depend only on the schema's
            // restriction list, which changes exactly when an absorb
            // reports dirty restrictions — rebuild them on that signal
            // instead of every pass (the build is a fixed per-pass cost
            // that dominates at small fixpoints).
            if !triggers.dirty_restrictions.is_empty() {
                maps = IdRestrictionMaps::build(schema);
            }
        }
    }

    /// One fixpoint pass, the body both drivers share: the delta × full
    /// joins over `chunk`, then the clique-global rules `triggers` names,
    /// run over the whole graph, with every proposal merged in one
    /// [`Graph::extend_ids`] batch. Returns the triples it added.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &self,
        graph: &mut Graph,
        voc: &Voc,
        schema: &IdSchema,
        maps: &IdRestrictionMaps,
        (chunk, triggers): (&[IdTriple], &Triggers),
        stats: &mut ReasonerStats,
        deadline: &Deadline,
    ) -> Result<usize, DeadlineExceeded> {
        deadline.check()?;
        stats.passes += 1;
        stats.delta_sizes.push(chunk.len());
        grdf_obs::observe("reasoner.delta.size", chunk.len() as u64);
        let span = grdf_obs::span("reasoner.pass")
            .tag("pass", stats.passes)
            .tag("delta", chunk.len());
        let (mut out, mut counts) = self.delta_pass(graph, voc, schema, maps, chunk, deadline)?;

        // Clique-global rules can't be expressed as a join against one
        // chunk triple; they re-run over the whole graph when triggered.
        if self.owl && triggers.same_as {
            let before = out.len();
            same_as_ids(graph, voc, &mut out);
            counts.same_as += (out.len() - before) as u64;
        }
        if self.restrictions {
            let before = out.len();
            for &i in &triggers.dirty_restrictions {
                restriction_over_ids(graph, voc, &schema.id_restrictions[i], &mut out);
            }
            counts.restrictions += (out.len() - before) as u64;
        }
        if self.owl && triggers.boolean {
            let before = out.len();
            boolean_classes_ids(graph, voc, &mut out);
            counts.boolean_classes += (out.len() - before) as u64;
        }
        counts.emit();

        let added = graph.extend_ids(out);
        drop(span.tag("inferred", added));
        stats.inferred += added;
        Ok(added)
    }

    /// Apply every delta-aware rule variant to `chunk`. Each delta triple
    /// is already *in* the graph, so joining it against the full graph
    /// also covers delta × delta pairs; every rule instance with a premise
    /// in `chunk` proposes its conclusion. Runs entirely in interned-id
    /// space.
    ///
    /// The chunk is processed as predicate-grouped column batches: it is
    /// sorted by predicate once, then each group pays for
    /// vocabulary comparisons and the schema lookup exactly once, and a
    /// group whose predicate carries no rule at all — the common case on
    /// the bulk first pass, where most triples are plain data — is
    /// skipped in O(1) without touching its members.
    fn delta_pass(
        &self,
        g: &Graph,
        voc: &Voc,
        s: &IdSchema,
        maps: &IdRestrictionMaps,
        chunk: &[IdTriple],
        deadline: &Deadline,
    ) -> Result<(Vec<IdTriple>, RuleCounts), DeadlineExceeded> {
        let mut out: Vec<IdTriple> = Vec::new();
        let mut c = RuleCounts::default();
        // Bulk seeds come off the POS index already grouped — detect that
        // with one linear scan and skip the copy + sort entirely.
        let owned: Vec<IdTriple>;
        let sorted: &[IdTriple] = if chunk.windows(2).all(|w| w[0].1 <= w[1].1) {
            chunk
        } else {
            let mut v = chunk.to_vec();
            v.sort_unstable_by_key(|&(_, p, _)| p);
            owned = v;
            &owned
        };
        let mut i = 0;
        while i < sorted.len() {
            let tp = sorted[i].1;
            let mut j = i + 1;
            while j < sorted.len() && sorted[j].1 == tp {
                j += 1;
            }
            self.delta_group(
                g,
                voc,
                s,
                maps,
                tp,
                &sorted[i..j],
                &mut out,
                &mut c,
                deadline,
            )?;
            i = j;
        }
        Ok((out, c))
    }

    /// One predicate group of a delta pass. `tp` is the group's shared
    /// predicate; `group` are its `(s, tp, o)` triples.
    #[allow(clippy::cognitive_complexity, clippy::too_many_arguments)]
    fn delta_group(
        &self,
        g: &Graph,
        voc: &Voc,
        s: &IdSchema,
        maps: &IdRestrictionMaps,
        tp: TermId,
        group: &[IdTriple],
        out: &mut Vec<IdTriple>,
        c: &mut RuleCounts,
        deadline: &Deadline,
    ) -> Result<(), DeadlineExceeded> {
        let pe = s.pred(tp);
        // Applicability gate, evaluated once per group.
        let vocab_rdfs = self.rdfs
            && (tp == voc.sub_class
                || tp == voc.sub_prop
                || tp == voc.domain
                || tp == voc.range
                || tp == voc.ty);
        let vocab_owl = self.owl
            && (tp == voc.equiv_class
                || tp == voc.equiv_prop
                || tp == voc.inverse_of
                || tp == voc.ty);
        let pe_rdfs = self.rdfs
            && pe.is_some_and(|pe| {
                !pe.supers.is_empty() || !pe.domains.is_empty() || !pe.ranges.is_empty()
            });
        let pe_owl = self.owl
            && pe.is_some_and(|pe| {
                !pe.inverses.is_empty()
                    || pe.flags & (SYMMETRIC | TRANSITIVE | FUNCTIONAL | INVERSE_FUNCTIONAL) != 0
            });
        let restr = self.restrictions
            && (tp == voc.ty || !IdRestrictionMaps::get(&maps.by_prop, tp).is_empty());
        if !vocab_rdfs && !vocab_owl && !pe_rdfs && !pe_owl && !restr {
            deadline.check()?;
            return Ok(());
        }

        macro_rules! counted {
            ($field:ident, $body:expr) => {{
                let before = out.len();
                $body;
                c.$field += (out.len() - before) as u64;
            }};
        }

        for (i, &(ts, _, to)) in group.iter().enumerate() {
            if i % DEADLINE_POLL_STRIDE == 0 {
                deadline.check()?;
            }

            if self.rdfs {
                if tp == voc.sub_class {
                    counted!(
                        subclass_transitivity,
                        delta_transitivity_ids(g, voc.sub_class, ts, to, out)
                    );
                    // Declaration side of type inheritance: existing
                    // members of the new subclass gain the superclass.
                    counted!(type_inheritance, {
                        g.for_each_match_ids(None, Some(voc.ty), Some(ts), |x, _, _| {
                            out.push((x, voc.ty, to));
                        });
                    });
                } else if tp == voc.sub_prop {
                    counted!(
                        subproperty_transitivity,
                        delta_transitivity_ids(g, voc.sub_prop, ts, to, out)
                    );
                    counted!(property_inheritance, {
                        g.for_each_match_ids(None, Some(ts), None, |ms, _, mo| {
                            out.push((ms, to, mo));
                        });
                    });
                } else if tp == voc.domain {
                    counted!(domain_range, {
                        g.for_each_match_ids(None, Some(ts), None, |ms, _, _| {
                            out.push((ms, voc.ty, to));
                        });
                    });
                } else if tp == voc.range {
                    counted!(domain_range, {
                        if !is_xsd_class(g.term_of(to)) {
                            g.for_each_match_ids(None, Some(ts), None, |_, _, mo| {
                                if g.term_of(mo).is_resource() {
                                    out.push((mo, voc.ty, to));
                                }
                            });
                        }
                    });
                } else if tp == voc.ty {
                    counted!(type_inheritance, {
                        for &sup in s.class_supers(to) {
                            out.push((ts, voc.ty, sup));
                        }
                    });
                }
                // Instance side: the predicate may carry RDFS declarations.
                if let Some(pe) = pe {
                    counted!(property_inheritance, {
                        for &q in &pe.supers {
                            out.push((ts, q, to));
                        }
                    });
                    counted!(domain_range, {
                        for &class in &pe.domains {
                            out.push((ts, voc.ty, class));
                        }
                    });
                    if !pe.ranges.is_empty() && g.term_of(to).is_resource() {
                        counted!(domain_range, {
                            for &class in &pe.ranges {
                                // Datatype ranges aren't class memberships.
                                if is_xsd_class(g.term_of(class)) {
                                    continue;
                                }
                                out.push((to, voc.ty, class));
                            }
                        });
                    }
                }
            }

            if self.owl {
                if tp == voc.equiv_class {
                    counted!(equivalences, {
                        for (a, b) in [(ts, to), (to, ts)] {
                            if g.term_of(b).is_resource() {
                                out.push((a, voc.sub_class, b));
                            }
                        }
                    });
                } else if tp == voc.equiv_prop {
                    counted!(equivalences, {
                        for (a, b) in [(ts, to), (to, ts)] {
                            out.push((a, voc.sub_prop, b));
                        }
                    });
                } else if tp == voc.inverse_of {
                    counted!(inverse, {
                        inverse_over_ids(g, ts, to, out);
                        inverse_over_ids(g, to, ts, out);
                    });
                } else if tp == voc.ty {
                    // A property characteristic arriving in the delta
                    // re-evaluates that one property over the full graph.
                    if to == voc.symmetric {
                        counted!(symmetric, symmetric_over_ids(g, ts, out));
                    } else if to == voc.transitive {
                        counted!(transitive, transitivity_over_ids(g, ts, out));
                    } else if to == voc.functional {
                        counted!(functional, functional_over_ids(g, voc, ts, out));
                    } else if to == voc.inverse_functional {
                        counted!(functional, inverse_functional_over_ids(g, voc, ts, out));
                    }
                }
                // Instance side: the predicate may carry OWL semantics.
                if let Some(pe) = pe {
                    if !pe.inverses.is_empty() && g.term_of(to).is_resource() {
                        counted!(inverse, {
                            for &q in &pe.inverses {
                                out.push((to, q, ts));
                            }
                        });
                    }
                    if pe.flags & SYMMETRIC != 0 && g.term_of(to).is_resource() {
                        counted!(symmetric, {
                            out.push((to, tp, ts));
                        });
                    }
                    if pe.flags & TRANSITIVE != 0 {
                        counted!(transitive, delta_transitivity_ids(g, tp, ts, to, out));
                    }
                    if pe.flags & FUNCTIONAL != 0 && g.term_of(to).is_resource() {
                        counted!(functional, {
                            let mut objs: Vec<TermId> = Vec::new();
                            g.for_each_match_ids(Some(ts), Some(tp), None, |_, _, y| {
                                if g.term_of(y).is_resource() {
                                    objs.push(y);
                                }
                            });
                            for pair in objs.windows(2) {
                                if pair[0] != pair[1] {
                                    out.push((pair[0], voc.same, pair[1]));
                                }
                            }
                        });
                    }
                    if pe.flags & INVERSE_FUNCTIONAL != 0 {
                        counted!(functional, {
                            let mut subs: Vec<TermId> = Vec::new();
                            g.for_each_match_ids(None, Some(tp), Some(to), |x, _, _| {
                                subs.push(x);
                            });
                            for pair in subs.windows(2) {
                                if pair[0] != pair[1] {
                                    out.push((pair[0], voc.same, pair[1]));
                                }
                            }
                        });
                    }
                }
            }

            if self.restrictions {
                if tp == voc.ty {
                    let idxs = IdRestrictionMaps::get(&maps.by_class, to);
                    if !idxs.is_empty() {
                        counted!(restrictions, {
                            for &ri in idxs {
                                let r = &s.id_restrictions[ri];
                                match r.kind {
                                    IdRKind::HasValue(v) => {
                                        out.push((ts, r.property, v));
                                    }
                                    IdRKind::AllValuesFrom(class) => {
                                        g.for_each_match_ids(
                                            Some(ts),
                                            Some(r.property),
                                            None,
                                            |_, _, y| {
                                                if g.term_of(y).is_resource() {
                                                    out.push((y, voc.ty, class));
                                                }
                                            },
                                        );
                                    }
                                    IdRKind::SomeValuesFrom(_) => {}
                                }
                            }
                        });
                    }
                    let idxs = IdRestrictionMaps::get(&maps.by_svf_class, to);
                    if !idxs.is_empty() {
                        counted!(restrictions, {
                            for &ri in idxs {
                                let r = &s.id_restrictions[ri];
                                g.for_each_match_ids(
                                    None,
                                    Some(r.property),
                                    Some(ts),
                                    |x, _, _| {
                                        out.push((x, voc.ty, r.node));
                                    },
                                );
                            }
                        });
                    }
                }
                let idxs = IdRestrictionMaps::get(&maps.by_prop, tp);
                if !idxs.is_empty() {
                    counted!(restrictions, {
                        for &ri in idxs {
                            let r = &s.id_restrictions[ri];
                            match r.kind {
                                IdRKind::HasValue(v) => {
                                    if to == v {
                                        out.push((ts, voc.ty, r.node));
                                    }
                                }
                                IdRKind::SomeValuesFrom(class) => {
                                    if g.term_of(to).is_resource() && g.has_ids(to, voc.ty, class) {
                                        out.push((ts, voc.ty, r.node));
                                    }
                                }
                                IdRKind::AllValuesFrom(class) => {
                                    if g.term_of(to).is_resource() && g.has_ids(ts, voc.ty, r.node)
                                    {
                                        out.push((to, voc.ty, class));
                                    }
                                }
                            }
                        }
                    });
                }
            }
        }
        Ok(())
    }
}

/// Per-rule proposal counts (before dedup) from one pass, emitted as the
/// `reasoner.rule.<name>` counters so decision traces and `grdf-cli
/// trace` can attribute fixpoint work to individual rules.
#[derive(Debug, Default, Clone, Copy)]
struct RuleCounts {
    subclass_transitivity: u64,
    type_inheritance: u64,
    subproperty_transitivity: u64,
    property_inheritance: u64,
    domain_range: u64,
    equivalences: u64,
    inverse: u64,
    symmetric: u64,
    transitive: u64,
    functional: u64,
    same_as: u64,
    restrictions: u64,
    boolean_classes: u64,
}

impl RuleCounts {
    fn entries(&self) -> [(&'static str, u64); 13] {
        [
            (
                "reasoner.rule.subclass_transitivity",
                self.subclass_transitivity,
            ),
            ("reasoner.rule.type_inheritance", self.type_inheritance),
            (
                "reasoner.rule.subproperty_transitivity",
                self.subproperty_transitivity,
            ),
            (
                "reasoner.rule.property_inheritance",
                self.property_inheritance,
            ),
            ("reasoner.rule.domain_range", self.domain_range),
            ("reasoner.rule.equivalences", self.equivalences),
            ("reasoner.rule.inverse", self.inverse),
            ("reasoner.rule.symmetric", self.symmetric),
            ("reasoner.rule.transitive", self.transitive),
            ("reasoner.rule.functional", self.functional),
            ("reasoner.rule.same_as", self.same_as),
            ("reasoner.rule.restrictions", self.restrictions),
            ("reasoner.rule.boolean_classes", self.boolean_classes),
        ]
    }

    fn emit(&self) {
        for (name, v) in self.entries() {
            if v > 0 {
                grdf_obs::add(name, v);
            }
        }
    }
}

/// Clique-global rules the delta pass cannot run per-triple; detected per
/// delta during schema absorption (the naive reference names them all).
#[derive(Debug, Default)]
struct Triggers {
    /// The delta asserted a `sameAs` pair or touched a term already in a
    /// `sameAs` clique: re-run the union-find + substitution rule.
    same_as: bool,
    /// The delta touched an `intersectionOf`/`unionOf` declaration, a
    /// list cell, or a membership in a boolean class or one of its parts.
    boolean: bool,
    /// Restrictions whose declarations changed in this delta; each gets a
    /// full (per-restriction) re-evaluation next pass.
    dirty_restrictions: Vec<usize>,
}

impl Triggers {
    fn any(&self) -> bool {
        self.same_as || self.boolean || !self.dirty_restrictions.is_empty()
    }
}

/// Add one run's totals to the `reasoner.passes` / `reasoner.inferred`
/// counters.
fn emit_totals(stats: &ReasonerStats) {
    grdf_obs::add("reasoner.passes", stats.passes as u64);
    grdf_obs::add("reasoner.inferred", stats.inferred as u64);
}

/// Whether the edited base still asserts the graph triple `t`.
fn asserted_ids(g: &Graph, edit: &Edit<'_>, (s, p, o): IdTriple) -> bool {
    (edit.asserted)(g.term_of(s), g.term_of(p), g.term_of(o))
}

// ---------------------------------------------------------------------
// Id-space schema index
// ---------------------------------------------------------------------

/// Sentinel for a vocabulary term the graph has never interned: ids are
/// dense indexes, so `TermId::MAX` compares equal to no real id.
const NO_TERM: TermId = TermId::MAX;

/// An interned triple as the delta pass sees it: three dense ids, no
/// heap-owned terms.
type IdTriple = (TermId, TermId, TermId);

/// Pre-resolved ids of every vocabulary term the delta pass dispatches
/// on, resolved once per materialization so no term is hashed in the
/// per-triple hot loop. The four terms the engine *emits* (`rdf:type`,
/// `rdfs:subClassOf`, `rdfs:subPropertyOf`, `owl:sameAs`) are interned up
/// front so their ids exist even when the input graph never mentions them
/// (interning adds no triples); the rest resolve to [`NO_TERM`] when
/// absent and then simply match no delta triple. Rules can only combine
/// ids of terms already in the graph, so no new vocabulary term can
/// appear mid-run and the ids stay complete for the whole fixpoint.
struct Voc {
    ty: TermId,
    sub_class: TermId,
    sub_prop: TermId,
    same: TermId,
    domain: TermId,
    range: TermId,
    inverse_of: TermId,
    equiv_class: TermId,
    equiv_prop: TermId,
    symmetric: TermId,
    transitive: TermId,
    functional: TermId,
    inverse_functional: TermId,
    restriction: TermId,
    on_property: TermId,
    has_value: TermId,
    some_values_from: TermId,
    all_values_from: TermId,
    intersection_of: TermId,
    union_of: TermId,
    first: TermId,
    rest: TermId,
    nil: TermId,
}

impl Voc {
    /// Whether triples with this predicate can carry schema information
    /// [`IdSchema::absorb`] cares about — the group-skip gate for bulk
    /// absorption.
    fn schema_relevant(&self, p: TermId) -> bool {
        p == self.ty
            || p == self.sub_class
            || p == self.sub_prop
            || p == self.same
            || p == self.domain
            || p == self.range
            || p == self.inverse_of
            || p == self.on_property
            || p == self.has_value
            || p == self.some_values_from
            || p == self.all_values_from
            || p == self.intersection_of
            || p == self.union_of
            || p == self.first
            || p == self.rest
    }

    /// Whether a triple is schema the delta rules join against (an
    /// [`IdSchema`] entry, an equivalence axiom, a `sameAs` link or a
    /// list cell): retracting through one needs a full fixpoint.
    fn structural(&self, (_, p, o): IdTriple) -> bool {
        if p == self.ty {
            return [
                self.symmetric,
                self.transitive,
                self.functional,
                self.inverse_functional,
                self.restriction,
            ]
            .contains(&o);
        }
        self.schema_relevant(p) || p == self.equiv_class || p == self.equiv_prop
    }

    fn resolve(g: &mut Graph) -> Voc {
        let id = |g: &Graph, iri: &str| g.term_id(&Term::iri(iri)).unwrap_or(NO_TERM);
        Voc {
            ty: g.intern_term(&Term::iri(rdf::TYPE)),
            sub_class: g.intern_term(&Term::iri(rdfs::SUB_CLASS_OF)),
            sub_prop: g.intern_term(&Term::iri(rdfs::SUB_PROPERTY_OF)),
            same: g.intern_term(&Term::iri(owl::SAME_AS)),
            domain: id(g, rdfs::DOMAIN),
            range: id(g, rdfs::RANGE),
            inverse_of: id(g, owl::INVERSE_OF),
            equiv_class: id(g, owl::EQUIVALENT_CLASS),
            equiv_prop: id(g, owl::EQUIVALENT_PROPERTY),
            symmetric: id(g, owl::SYMMETRIC_PROPERTY),
            transitive: id(g, owl::TRANSITIVE_PROPERTY),
            functional: id(g, owl::FUNCTIONAL_PROPERTY),
            inverse_functional: id(g, owl::INVERSE_FUNCTIONAL_PROPERTY),
            restriction: id(g, owl::RESTRICTION),
            on_property: id(g, owl::ON_PROPERTY),
            has_value: id(g, owl::HAS_VALUE),
            some_values_from: id(g, owl::SOME_VALUES_FROM),
            all_values_from: id(g, owl::ALL_VALUES_FROM),
            intersection_of: id(g, owl::INTERSECTION_OF),
            union_of: id(g, owl::UNION_OF),
            first: id(g, rdf::FIRST),
            rest: id(g, rdf::REST),
            nil: id(g, rdf::NIL),
        }
    }
}

const SYMMETRIC: u8 = 1;
const TRANSITIVE: u8 = 1 << 1;
const FUNCTIONAL: u8 = 1 << 2;
const INVERSE_FUNCTIONAL: u8 = 1 << 3;

/// Everything the delta pass needs to know about one predicate, gathered
/// so a single dense-table load answers all per-predicate questions.
#[derive(Default, Clone)]
struct PredEntry {
    /// `rdfs:subPropertyOf` superproperties (direct).
    supers: Vec<TermId>,
    /// `rdfs:domain` classes.
    domains: Vec<TermId>,
    /// `rdfs:range` classes.
    ranges: Vec<TermId>,
    /// `owl:inverseOf` partners (both directions).
    inverses: Vec<TermId>,
    /// OWL property-characteristic bits.
    flags: u8,
}

/// The rule pass's schema index, keyed by interned term id. The
/// per-predicate and per-class tables are sparse hash maps: schema-bearing
/// ids are a tiny fraction of a large graph's term space, and the
/// predicate-grouped rule pass probes them once per *group*, so dense
/// id-indexed vectors would spend more time zeroing `term_count` slots
/// than the probes ever save. The semi-naive loop maintains it
/// incrementally: each pass absorbs only that pass's delta.
#[derive(Default)]
struct IdSchema {
    preds: HashMap<TermId, PredEntry>,
    /// subclass id → superclass ids (direct).
    class_supers: HashMap<TermId, Vec<TermId>>,
    id_restrictions: Vec<IdRestriction>,
    /// Restriction node id → index into `id_restrictions`.
    restriction_index: HashMap<TermId, usize>,
    /// Ids appearing in any `sameAs` assertion (clique members).
    same_members: HashSet<TermId>,
    /// Boolean (intersection/union) class ids and their parts.
    boolean_relevant: HashSet<TermId>,
}

struct IdRestriction {
    node: TermId,
    property: TermId,
    kind: IdRKind,
    /// Named classes declared as subclasses of the restriction.
    subclasses: Vec<TermId>,
}

enum IdRKind {
    HasValue(TermId),
    SomeValuesFrom(TermId),
    AllValuesFrom(TermId),
}

impl IdRestriction {
    /// The restriction declared at `node`: `None` unless the node is
    /// typed `owl:Restriction` and names its property and a filler
    /// (`hasValue`, else `someValuesFrom`, else `allValuesFrom`; the
    /// first object in index order where several are given).
    fn read(g: &Graph, voc: &Voc, node: TermId) -> Option<IdRestriction> {
        if !g.has_ids(node, voc.ty, voc.restriction) {
            return None;
        }
        let property = first_object(g, node, voc.on_property)?;
        let kind = if let Some(v) = first_object(g, node, voc.has_value) {
            IdRKind::HasValue(v)
        } else if let Some(c) = first_object(g, node, voc.some_values_from) {
            IdRKind::SomeValuesFrom(c)
        } else {
            IdRKind::AllValuesFrom(first_object(g, node, voc.all_values_from)?)
        };
        let mut subclasses = Vec::new();
        g.for_each_match_ids(None, Some(voc.sub_class), Some(node), |c, _, _| {
            subclasses.push(c);
        });
        Some(IdRestriction {
            node,
            property,
            kind,
            subclasses,
        })
    }
}

impl IdSchema {
    fn pred(&self, p: TermId) -> Option<&PredEntry> {
        self.preds.get(&p)
    }

    fn class_supers(&self, c: TermId) -> &[TermId] {
        self.class_supers.get(&c).map_or(&[][..], Vec::as_slice)
    }

    /// Fold a delta's schema-level triples into the index and report which
    /// clique-global rules the delta makes necessary. Each triple must be
    /// absorbed exactly once over the life of the schema (deltas are
    /// disjoint, so this holds by construction).
    fn absorb(&mut self, g: &Graph, voc: &Voc, delta: &[(TermId, TermId, TermId)]) -> Triggers {
        let mut trig = Triggers::default();
        let mut candidates: Vec<TermId> = Vec::new();
        let mut candidate_set: HashSet<TermId> = HashSet::new();
        // Predicate-grouped deltas (the bulk seed) skip whole rule-free
        // groups: a group whose predicate is schema-irrelevant can only
        // matter through the sameAs-member catch at the bottom of
        // `absorb_one`, which is itself a no-op while no clique members
        // are known.
        if delta.windows(2).all(|w| w[0].1 <= w[1].1) {
            let mut i = 0;
            while i < delta.len() {
                let p = delta[i].1;
                let mut j = i + 1;
                while j < delta.len() && delta[j].1 == p {
                    j += 1;
                }
                if voc.schema_relevant(p) || !self.same_members.is_empty() {
                    for &(s, _, o) in &delta[i..j] {
                        self.absorb_one(
                            g,
                            voc,
                            (s, p, o),
                            &mut trig,
                            &mut candidates,
                            &mut candidate_set,
                        );
                    }
                }
                i = j;
            }
        } else {
            for &(s, p, o) in delta {
                self.absorb_one(
                    g,
                    voc,
                    (s, p, o),
                    &mut trig,
                    &mut candidates,
                    &mut candidate_set,
                );
            }
        }
        self.finish_candidates(g, voc, candidates, &mut trig);
        trig
    }

    /// Fold one delta triple into the schema index (the per-triple body of
    /// [`IdSchema::absorb`]).
    fn absorb_one(
        &mut self,
        g: &Graph,
        voc: &Voc,
        (s, p, o): (TermId, TermId, TermId),
        trig: &mut Triggers,
        candidates: &mut Vec<TermId>,
        candidate_set: &mut HashSet<TermId>,
    ) {
        {
            if p == voc.sub_class {
                self.class_supers.entry(s).or_default().push(o);
                // A new subclass edge into a restriction widens the
                // restriction's reach.
                if (self.restriction_index.contains_key(&o)
                    || g.has_ids(o, voc.ty, voc.restriction))
                    && candidate_set.insert(o)
                {
                    candidates.push(o);
                }
            } else if p == voc.sub_prop {
                self.preds.entry(s).or_default().supers.push(o);
            } else if p == voc.domain {
                self.preds.entry(s).or_default().domains.push(o);
            } else if p == voc.range {
                self.preds.entry(s).or_default().ranges.push(o);
            } else if p == voc.inverse_of {
                self.preds.entry(s).or_default().inverses.push(o);
                self.preds.entry(o).or_default().inverses.push(s);
            } else if p == voc.same {
                if g.term_of(o).is_resource() {
                    self.same_members.insert(s);
                    self.same_members.insert(o);
                    trig.same_as = true;
                }
            } else if p == voc.on_property
                || p == voc.has_value
                || p == voc.some_values_from
                || p == voc.all_values_from
            {
                if candidate_set.insert(s) {
                    candidates.push(s);
                }
            } else if p == voc.intersection_of || p == voc.union_of {
                self.boolean_relevant.insert(s);
                if let Some(parts) = read_list_ids(g, voc, o) {
                    self.boolean_relevant.extend(parts);
                }
                trig.boolean = true;
            } else if p == voc.first || p == voc.rest {
                // A list cell may extend a boolean class's part list.
                trig.boolean = true;
            } else if p == voc.ty {
                if o == voc.symmetric {
                    self.preds.entry(s).or_default().flags |= SYMMETRIC;
                } else if o == voc.transitive {
                    self.preds.entry(s).or_default().flags |= TRANSITIVE;
                } else if o == voc.functional {
                    self.preds.entry(s).or_default().flags |= FUNCTIONAL;
                } else if o == voc.inverse_functional {
                    self.preds.entry(s).or_default().flags |= INVERSE_FUNCTIONAL;
                } else if o == voc.restriction && candidate_set.insert(s) {
                    candidates.push(s);
                }
                if self.boolean_relevant.contains(&o) {
                    trig.boolean = true;
                }
            }
            if !trig.same_as && (self.same_members.contains(&s) || self.same_members.contains(&o)) {
                trig.same_as = true;
            }
        }
    }

    /// Read the restriction candidates collected during absorption.
    fn finish_candidates(
        &mut self,
        g: &Graph,
        voc: &Voc,
        candidates: Vec<TermId>,
        trig: &mut Triggers,
    ) {
        for node in candidates {
            if let Some(r) = IdRestriction::read(g, voc, node) {
                let i = *self
                    .restriction_index
                    .entry(node)
                    .or_insert(self.id_restrictions.len());
                if i == self.id_restrictions.len() {
                    self.id_restrictions.push(r);
                } else {
                    self.id_restrictions[i] = r;
                }
                trig.dirty_restrictions.push(i);
            }
        }
    }

    /// Trigger detection only — for a delta whose triples are *already*
    /// absorbed (the incremental-update seed, where the schema was built
    /// from the whole graph).
    fn triggers_for(&self, g: &Graph, voc: &Voc, delta: &[(TermId, TermId, TermId)]) -> Triggers {
        let mut trig = Triggers::default();
        let mut dirty: HashSet<usize> = HashSet::new();
        for &(s, p, o) in delta {
            if p == voc.same {
                if g.term_of(o).is_resource() {
                    trig.same_as = true;
                }
            } else if p == voc.intersection_of
                || p == voc.union_of
                || p == voc.first
                || p == voc.rest
            {
                trig.boolean = true;
            } else if p == voc.on_property
                || p == voc.has_value
                || p == voc.some_values_from
                || p == voc.all_values_from
            {
                if let Some(&i) = self.restriction_index.get(&s) {
                    dirty.insert(i);
                }
            } else if p == voc.sub_class {
                if let Some(&i) = self.restriction_index.get(&o) {
                    dirty.insert(i);
                }
            } else if p == voc.ty {
                if o == voc.restriction {
                    if let Some(&i) = self.restriction_index.get(&s) {
                        dirty.insert(i);
                    }
                }
                if self.boolean_relevant.contains(&o) {
                    trig.boolean = true;
                }
            }
            if !trig.same_as && (self.same_members.contains(&s) || self.same_members.contains(&o)) {
                trig.same_as = true;
            }
        }
        trig.dirty_restrictions = dirty.into_iter().collect();
        trig.dirty_restrictions.sort_unstable();
        trig
    }
}

/// Dispatch indexes over [`IdSchema::id_restrictions`], rebuilt per pass
/// (the restriction count is tiny next to the delta). Sparse maps keyed
/// by term id: the `by_prop` probe runs once per predicate *group*, and
/// the class probes only inside `rdf:type` groups, so hashing is off the
/// per-triple fast path while the tables stay O(restrictions) to build.
#[derive(Default)]
#[allow(clippy::struct_field_names)]
struct IdRestrictionMaps {
    /// `hasValue`: restriction node + declared subclasses (dir 1);
    /// `allValuesFrom`: restriction node.
    by_class: HashMap<TermId, Vec<usize>>,
    /// `someValuesFrom` filler class → restriction.
    by_svf_class: HashMap<TermId, Vec<usize>>,
    /// `onProperty` → restriction.
    by_prop: HashMap<TermId, Vec<usize>>,
}

impl IdRestrictionMaps {
    fn build(s: &IdSchema) -> IdRestrictionMaps {
        let mut m = IdRestrictionMaps::default();
        for (i, r) in s.id_restrictions.iter().enumerate() {
            m.by_prop.entry(r.property).or_default().push(i);
            match r.kind {
                IdRKind::HasValue(_) => {
                    for &c in r.subclasses.iter().chain(std::iter::once(&r.node)) {
                        m.by_class.entry(c).or_default().push(i);
                    }
                }
                IdRKind::AllValuesFrom(_) => {
                    m.by_class.entry(r.node).or_default().push(i);
                }
                IdRKind::SomeValuesFrom(class) => {
                    m.by_svf_class.entry(class).or_default().push(i);
                }
            }
        }
        m
    }

    fn get(table: &HashMap<TermId, Vec<usize>>, id: TermId) -> &[usize] {
        table.get(&id).map_or(&[][..], Vec::as_slice)
    }
}

fn is_xsd_class(c: &Term) -> bool {
    c.as_iri()
        .is_some_and(|i| i.starts_with(grdf_rdf::vocab::xsd::NS))
}

/// Delta step of `(a p b), (b p c) → (a p c)` for one new edge `(s, o)`:
/// forward join through the new edge's object and backward join into its
/// subject cover every pair the new edge participates in. Id inequality
/// is exact term inequality — the interner is injective.
fn delta_transitivity_ids(
    g: &Graph,
    p: TermId,
    s: TermId,
    o: TermId,
    out: &mut Vec<(TermId, TermId, TermId)>,
) {
    g.for_each_match_ids(Some(o), Some(p), None, |_, _, c| {
        if c != s {
            out.push((s, p, c));
        }
    });
    g.for_each_match_ids(None, Some(p), Some(s), |a, _, _| {
        if a != o {
            out.push((a, p, o));
        }
    });
}

/// One composition step of `(a p b), (b p c) → (a p c)` over every `p`
/// edge in the graph: the re-run for a property whose
/// `owl:TransitiveProperty` declaration arrives in the chunk.
fn transitivity_over_ids(g: &Graph, p: TermId, out: &mut Vec<(TermId, TermId, TermId)>) {
    let mut edges: HashMap<TermId, Vec<TermId>> = HashMap::new();
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        edges.entry(s).or_default().push(o);
    });
    for (&a, bs) in &edges {
        for b in bs {
            if let Some(cs) = edges.get(b) {
                for &c in cs {
                    if c != a {
                        out.push((a, p, c));
                    }
                }
            }
        }
    }
}

/// Emit `(y q x)` for every `(x p y)` in the graph (one inverse pair).
fn inverse_over_ids(g: &Graph, p: TermId, q: TermId, out: &mut Vec<(TermId, TermId, TermId)>) {
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        if g.term_of(o).is_resource() {
            out.push((o, q, s));
        }
    });
}

/// Emit `(y p x)` for every `(x p y)` with a resource object: the re-run
/// for a property whose `owl:SymmetricProperty` declaration arrives in
/// the chunk.
fn symmetric_over_ids(g: &Graph, p: TermId, out: &mut Vec<(TermId, TermId, TermId)>) {
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        if g.term_of(o).is_resource() {
            out.push((o, p, s));
        }
    });
}

/// `owl:FunctionalProperty` over the whole graph: the resource objects
/// one subject has through `p` are `owl:sameAs` (adjacent pairs in index
/// order; the `sameAs` closure links the rest).
fn functional_over_ids(g: &Graph, voc: &Voc, p: TermId, out: &mut Vec<(TermId, TermId, TermId)>) {
    let mut by_subject: HashMap<TermId, Vec<TermId>> = HashMap::new();
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        if g.term_of(o).is_resource() {
            by_subject.entry(s).or_default().push(o);
        }
    });
    for objs in by_subject.values() {
        for pair in objs.windows(2) {
            if pair[0] != pair[1] {
                out.push((pair[0], voc.same, pair[1]));
            }
        }
    }
}

/// `owl:InverseFunctionalProperty` over the whole graph: the subjects
/// that share an object through `p` are `owl:sameAs` (adjacent pairs in
/// index order; the `sameAs` closure links the rest).
fn inverse_functional_over_ids(
    g: &Graph,
    voc: &Voc,
    p: TermId,
    out: &mut Vec<(TermId, TermId, TermId)>,
) {
    let mut by_object: HashMap<TermId, Vec<TermId>> = HashMap::new();
    g.for_each_match_ids(None, Some(p), None, |s, _, o| {
        by_object.entry(o).or_default().push(s);
    });
    for subs in by_object.values() {
        for pair in subs.windows(2) {
            if pair[0] != pair[1] {
                out.push((pair[0], voc.same, pair[1]));
            }
        }
    }
}

/// `owl:sameAs` closure and substitution over the whole graph: union-find
/// over interned ids, then every clique emits its full `sameAs` square and
/// copies each triple that mentions one member to every other member.
fn same_as_ids(g: &Graph, voc: &Voc, out: &mut Vec<(TermId, TermId, TermId)>) {
    let mut pairs: Vec<(TermId, TermId)> = Vec::new();
    g.for_each_match_ids(None, Some(voc.same), None, |s, _, o| {
        if g.term_of(o).is_resource() {
            pairs.push((s, o));
        }
    });
    if pairs.is_empty() {
        return;
    }
    let mut parent: HashMap<TermId, TermId> = HashMap::new();
    fn find(parent: &mut HashMap<TermId, TermId>, x: TermId) -> TermId {
        let mut root = x;
        while let Some(&p) = parent.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        // Path compression.
        let mut cur = x;
        while let Some(&p) = parent.get(&cur) {
            if p == root {
                break;
            }
            parent.insert(cur, root);
            cur = p;
        }
        root
    }
    for &(a, b) in &pairs {
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        if ra != rb {
            parent.insert(ra, rb);
        }
        parent.entry(a).or_insert(a);
        parent.entry(b).or_insert(b);
    }
    let keys: Vec<TermId> = parent.keys().copied().collect();
    let mut members: HashMap<TermId, Vec<TermId>> = HashMap::new();
    for k in keys {
        let r = find(&mut parent, k);
        members.entry(r).or_default().push(k);
    }

    let mut groups: Vec<Vec<TermId>> = members.into_values().filter(|v| v.len() >= 2).collect();
    for group in &mut groups {
        // Deterministic member order (HashMap iteration order is not).
        group.sort_unstable();
        // Emit the full sameAs clique (symmetry + transitivity).
        for &a in group.iter() {
            for &b in group.iter() {
                if a != b {
                    out.push((a, voc.same, b));
                }
            }
        }
        // Substitution: every triple mentioning a member holds for all.
        for &a in group.iter() {
            g.for_each_match_ids(Some(a), None, None, |_, p, o| {
                if p == voc.same {
                    return;
                }
                for &b in group.iter() {
                    if b != a {
                        out.push((b, p, o));
                    }
                }
            });
            g.for_each_match_ids(None, None, Some(a), |s, p, _| {
                if p == voc.same {
                    return;
                }
                for &b in group.iter() {
                    if b != a {
                        out.push((s, p, b));
                    }
                }
            });
        }
    }
}

/// `owl:intersectionOf` / `owl:unionOf` over the whole graph:
///
/// * intersection: members of every part are members of the intersection
///   class, and vice versa (the class entails membership in every part —
///   which also makes parts behave as superclasses);
/// * union: members of any part are members of the union class.
fn boolean_classes_ids(g: &Graph, voc: &Voc, out: &mut Vec<IdTriple>) {
    g.for_each_match_ids(None, Some(voc.intersection_of), None, |class, _, head| {
        let Some(parts) = read_list_ids(g, voc, head) else {
            return;
        };
        let Some((&first, rest)) = parts.split_first() else {
            return;
        };
        // x ∈ all parts ⇒ x ∈ class.
        g.for_each_match_ids(None, Some(voc.ty), Some(first), |x, _, _| {
            if rest.iter().all(|&part| g.has_ids(x, voc.ty, part)) {
                out.push((x, voc.ty, class));
            }
        });
        // x ∈ class ⇒ x ∈ every part.
        g.for_each_match_ids(None, Some(voc.ty), Some(class), |x, _, _| {
            for &part in &parts {
                out.push((x, voc.ty, part));
            }
        });
    });
    g.for_each_match_ids(None, Some(voc.union_of), None, |class, _, head| {
        let Some(parts) = read_list_ids(g, voc, head) else {
            return;
        };
        for part in parts {
            g.for_each_match_ids(None, Some(voc.ty), Some(part), |x, _, _| {
                out.push((x, voc.ty, class));
            });
        }
    });
}

/// One restriction over the whole graph: the re-run for a restriction
/// whose declaration (node, property, filler or a subclass) arrives in the
/// chunk, since the delta rules only join it with triples that arrive
/// after it.
fn restriction_over_ids(g: &Graph, voc: &Voc, r: &IdRestriction, out: &mut Vec<IdTriple>) {
    match r.kind {
        IdRKind::HasValue(v) => {
            // x ∈ C (⊑ r) → x p v ; and x p v → x ∈ r.
            for &c in r.subclasses.iter().chain(std::iter::once(&r.node)) {
                g.for_each_match_ids(None, Some(voc.ty), Some(c), |x, _, _| {
                    out.push((x, r.property, v));
                });
            }
            g.for_each_match_ids(None, Some(r.property), Some(v), |x, _, _| {
                out.push((x, voc.ty, r.node));
            });
        }
        IdRKind::SomeValuesFrom(class) => {
            // x p y ∧ y ∈ D → x ∈ r.
            g.for_each_match_ids(None, Some(r.property), None, |x, _, y| {
                if g.term_of(y).is_resource() && g.has_ids(y, voc.ty, class) {
                    out.push((x, voc.ty, r.node));
                }
            });
        }
        IdRKind::AllValuesFrom(class) => {
            // x ∈ r ∧ x p y → y ∈ D.
            g.for_each_match_ids(None, Some(voc.ty), Some(r.node), |x, _, _| {
                g.for_each_match_ids(Some(x), Some(r.property), None, |_, _, y| {
                    if g.term_of(y).is_resource() {
                        out.push((y, voc.ty, class));
                    }
                });
            });
        }
    }
}

/// The first object of `(s, p, ?)` in index order — [`Graph::object`]
/// in id space.
fn first_object(g: &Graph, s: TermId, p: TermId) -> Option<TermId> {
    let mut found = None;
    g.for_each_match_ids_while(Some(s), Some(p), None, |_, _, o| {
        found = Some(o);
        false
    });
    found
}

/// The members of the RDF list at `head`, walked through `rdf:first` /
/// `rdf:rest` in id space: `None` on a malformed or cyclic list, as
/// [`Graph::read_list`] answers.
fn read_list_ids(g: &Graph, voc: &Voc, head: TermId) -> Option<Vec<TermId>> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut cur = head;
    while cur != voc.nil {
        if !seen.insert(cur) {
            return None; // cycle
        }
        out.push(first_object(g, cur, voc.first)?);
        cur = first_object(g, cur, voc.rest)?;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Characteristic, OntologyBuilder, RestrictionKind};
    use std::collections::BTreeSet;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }
    fn ty() -> Term {
        Term::iri(rdf::TYPE)
    }
    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(iri(s), iri(p), iri(o))
    }

    /// The triples `g` holds beyond those of `before`.
    fn added(before: &Graph, g: &Graph) -> BTreeSet<Triple> {
        g.iter().filter(|t| !before.contains(t)).collect()
    }

    #[test]
    fn subclass_chain_materializes() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("A", None);
        b.class("B", Some("A"));
        b.class("C", Some("B"));
        let mut g = b.into_graph();
        g.add(iri("urn:t#x"), ty(), iri("urn:t#C"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#x"), &ty(), &iri("urn:t#B")));
        assert!(g.has(&iri("urn:t#x"), &ty(), &iri("urn:t#A")));
        assert!(g.has(&iri("urn:t#C"), &iri(rdfs::SUB_CLASS_OF), &iri("urn:t#A")));
    }

    #[test]
    fn subproperty_inheritance() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("hasMother", None, None);
        b.object_property("hasParent", None, None);
        b.sub_property_of("hasMother", "hasParent");
        let mut g = b.into_graph();
        g.add(iri("urn:t#x"), iri("urn:t#hasMother"), iri("urn:t#m"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#x"), &iri("urn:t#hasParent"), &iri("urn:t#m")));
    }

    #[test]
    fn domain_and_range_typing() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Person", None);
        b.class("City", None);
        b.object_property("livesIn", Some("Person"), Some("City"));
        let mut g = b.into_graph();
        g.add(iri("urn:t#ann"), iri("urn:t#livesIn"), iri("urn:t#dallas"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#ann"), &ty(), &iri("urn:t#Person")));
        assert!(g.has(&iri("urn:t#dallas"), &ty(), &iri("urn:t#City")));
    }

    #[test]
    fn datatype_range_does_not_type_literals() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.datatype_property("age", None, Some(grdf_rdf::vocab::xsd::INTEGER));
        let mut g = b.into_graph();
        g.add(iri("urn:t#ann"), iri("urn:t#age"), Term::integer(30));
        let before = g.len();
        Reasoner::default().materialize(&mut g);
        // No rdf:type triples about the literal.
        assert_eq!(
            g.len(),
            before,
            "datatype range must not produce class-membership triples"
        );
    }

    #[test]
    fn inverse_of_fires_both_ways() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("contains", None, None);
        b.object_property("within", None, None);
        b.inverse_of("contains", "within");
        let mut g = b.into_graph();
        g.add(iri("urn:t#lake"), iri("urn:t#within"), iri("urn:t#park"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(
            &iri("urn:t#park"),
            &iri("urn:t#contains"),
            &iri("urn:t#lake")
        ));
    }

    #[test]
    fn symmetric_and_transitive() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("touches", None, None);
        b.characteristic("touches", Characteristic::Symmetric);
        b.object_property("upstreamOf", None, None);
        b.characteristic("upstreamOf", Characteristic::Transitive);
        let mut g = b.into_graph();
        g.add(iri("urn:t#a"), iri("urn:t#touches"), iri("urn:t#b"));
        g.add(iri("urn:t#r1"), iri("urn:t#upstreamOf"), iri("urn:t#r2"));
        g.add(iri("urn:t#r2"), iri("urn:t#upstreamOf"), iri("urn:t#r3"));
        g.add(iri("urn:t#r3"), iri("urn:t#upstreamOf"), iri("urn:t#r4"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#b"), &iri("urn:t#touches"), &iri("urn:t#a")));
        assert!(g.has(&iri("urn:t#r1"), &iri("urn:t#upstreamOf"), &iri("urn:t#r4")));
    }

    #[test]
    fn inverse_functional_property_derives_same_as_and_smushes() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("hasSiteId", None, None);
        b.characteristic("hasSiteId", Characteristic::InverseFunctional);
        let mut g = b.into_graph();
        // Two records for one chemical site in different datasets.
        g.add(
            iri("urn:t#siteA"),
            iri("urn:t#hasSiteId"),
            iri("urn:t#id4221"),
        );
        g.add(
            iri("urn:t#siteB"),
            iri("urn:t#hasSiteId"),
            iri("urn:t#id4221"),
        );
        g.add(
            iri("urn:t#siteA"),
            iri("urn:t#name"),
            Term::string("NT Energy"),
        );
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#siteA"), &iri(owl::SAME_AS), &iri("urn:t#siteB")));
        // Substitution carried the name to the other identifier.
        assert!(g.has(
            &iri("urn:t#siteB"),
            &iri("urn:t#name"),
            &Term::string("NT Energy")
        ));
    }

    #[test]
    fn functional_property_derives_same_as_and_smushes() {
        let mut g = Graph::new();
        g.add(iri("urn:t#mainSite"), ty(), iri(owl::FUNCTIONAL_PROPERTY));
        // Two records of one plant's main site.
        g.add(
            iri("urn:t#plant"),
            iri("urn:t#mainSite"),
            iri("urn:t#siteA"),
        );
        g.add(
            iri("urn:t#plant"),
            iri("urn:t#mainSite"),
            iri("urn:t#siteB"),
        );
        g.add(
            iri("urn:t#siteA"),
            iri("urn:t#name"),
            Term::string("NT Energy"),
        );
        // Two plants sharing a main site are not thereby the same.
        g.add(iri("urn:t#p1"), iri("urn:t#mainSite"), iri("urn:t#siteC"));
        g.add(iri("urn:t#p2"), iri("urn:t#mainSite"), iri("urn:t#siteC"));
        let before = g.clone();
        Reasoner::default().materialize(&mut g);
        assert_eq!(
            added(&before, &g),
            BTreeSet::from([
                t("urn:t#siteA", owl::SAME_AS, "urn:t#siteB"),
                t("urn:t#siteB", owl::SAME_AS, "urn:t#siteA"),
                // Substitution carries the name to the other record.
                Triple::new(
                    iri("urn:t#siteB"),
                    iri("urn:t#name"),
                    Term::string("NT Energy")
                ),
            ])
        );
        assert!(!g.has(&iri("urn:t#p1"), &iri(owl::SAME_AS), &iri("urn:t#p2")));
    }

    #[test]
    fn equivalent_property_gives_mutual_subproperties() {
        let mut g = Graph::new();
        g.add(
            iri("urn:t#flowsInto"),
            iri(owl::EQUIVALENT_PROPERTY),
            iri("urn:t#drainsTo"),
        );
        g.add(iri("urn:t#a"), iri("urn:t#flowsInto"), iri("urn:t#b"));
        g.add(iri("urn:t#c"), iri("urn:t#drainsTo"), iri("urn:t#d"));
        let before = g.clone();
        Reasoner::default().materialize(&mut g);
        assert_eq!(
            added(&before, &g),
            BTreeSet::from([
                t("urn:t#flowsInto", rdfs::SUB_PROPERTY_OF, "urn:t#drainsTo"),
                t("urn:t#drainsTo", rdfs::SUB_PROPERTY_OF, "urn:t#flowsInto"),
                t("urn:t#a", "urn:t#drainsTo", "urn:t#b"),
                t("urn:t#c", "urn:t#flowsInto", "urn:t#d"),
            ])
        );
        assert!(!g.has(&iri("urn:t#b"), &iri("urn:t#drainsTo"), &iri("urn:t#a")));
    }

    #[test]
    fn subproperty_chains_close_transitively() {
        let mut g = Graph::new();
        for (p, q) in [
            ("hasMother", "hasParent"),
            ("hasParent", "hasRelative"),
            ("hasRelative", "knows"),
        ] {
            g.add(
                iri(&format!("urn:t#{p}")),
                iri(rdfs::SUB_PROPERTY_OF),
                iri(&format!("urn:t#{q}")),
            );
        }
        g.add(iri("urn:t#ann"), iri("urn:t#hasMother"), iri("urn:t#beth"));
        let before = g.clone();
        Reasoner::default().materialize(&mut g);
        assert_eq!(
            added(&before, &g),
            BTreeSet::from([
                t(
                    "urn:t#hasMother",
                    rdfs::SUB_PROPERTY_OF,
                    "urn:t#hasRelative"
                ),
                t("urn:t#hasMother", rdfs::SUB_PROPERTY_OF, "urn:t#knows"),
                t("urn:t#hasParent", rdfs::SUB_PROPERTY_OF, "urn:t#knows"),
                t("urn:t#ann", "urn:t#hasParent", "urn:t#beth"),
                t("urn:t#ann", "urn:t#hasRelative", "urn:t#beth"),
                t("urn:t#ann", "urn:t#knows", "urn:t#beth"),
            ])
        );
        assert!(!g.has(
            &iri("urn:t#hasRelative"),
            &iri(rdfs::SUB_PROPERTY_OF),
            &iri("urn:t#hasMother")
        ));
    }

    #[test]
    fn equivalent_class_gives_mutual_membership() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Stream", None);
        b.class("Creek", None);
        b.equivalent_class("Stream", "Creek");
        let mut g = b.into_graph();
        g.add(iri("urn:t#x"), ty(), iri("urn:t#Creek"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#x"), &ty(), &iri("urn:t#Stream")));
    }

    #[test]
    fn has_value_restriction_fires_both_directions() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("TexasSite", None);
        b.object_property("inState", None, None);
        let r = b.restrict(
            "TexasSite",
            "inState",
            RestrictionKind::HasValue(Term::iri("urn:t#texas")),
        );
        let mut g = b.into_graph();
        g.add(iri("urn:t#s1"), ty(), iri("urn:t#TexasSite"));
        g.add(iri("urn:t#s2"), iri("urn:t#inState"), iri("urn:t#texas"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#s1"), &iri("urn:t#inState"), &iri("urn:t#texas")));
        assert!(
            g.has(&iri("urn:t#s2"), &ty(), &r),
            "value ⇒ restriction membership"
        );
    }

    #[test]
    fn some_values_from_classifies_subject() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Hazardous", None);
        b.class("Chemical", None);
        b.object_property("stores", None, None);
        let r = b.restrict(
            "Hazardous",
            "stores",
            RestrictionKind::SomeValuesFrom("Chemical".into()),
        );
        let mut g = b.into_graph();
        g.add(iri("urn:t#plant"), iri("urn:t#stores"), iri("urn:t#acid"));
        g.add(iri("urn:t#acid"), ty(), iri("urn:t#Chemical"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#plant"), &ty(), &r));
    }

    #[test]
    fn all_values_from_types_objects() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("StreamNetwork", None);
        b.class("Stream", None);
        b.object_property("hasMember", None, None);
        b.restrict(
            "StreamNetwork",
            "hasMember",
            RestrictionKind::AllValuesFrom("Stream".into()),
        );
        let mut g = b.into_graph();
        g.add(iri("urn:t#net"), ty(), iri("urn:t#StreamNetwork"));
        g.add(iri("urn:t#net"), iri("urn:t#hasMember"), iri("urn:t#s1"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#s1"), &ty(), &iri("urn:t#Stream")));
    }

    #[test]
    fn rdfs_only_skips_owl_rules() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.object_property("touches", None, None);
        b.characteristic("touches", Characteristic::Symmetric);
        let mut g = b.into_graph();
        g.add(iri("urn:t#a"), iri("urn:t#touches"), iri("urn:t#b"));
        Reasoner::rdfs_only().materialize(&mut g);
        assert!(!g.has(&iri("urn:t#b"), &iri("urn:t#touches"), &iri("urn:t#a")));
    }

    #[test]
    fn materialization_is_idempotent() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("A", None);
        b.class("B", Some("A"));
        let mut g = b.into_graph();
        g.add(iri("urn:t#x"), ty(), iri("urn:t#B"));
        let first = Reasoner::default().materialize(&mut g);
        assert!(first.inferred > 0);
        let second = Reasoner::default().materialize(&mut g);
        assert_eq!(second.inferred, 0, "second run must be a no-op");
        assert_eq!(second.passes, 1);
    }

    #[test]
    fn fixpoint_terminates_on_cyclic_schema() {
        let mut g = Graph::new();
        // A ⊑ B ⊑ C ⊑ A (legal, means equivalence).
        let sub = Term::iri(rdfs::SUB_CLASS_OF);
        g.add(iri("urn:t#A"), sub.clone(), iri("urn:t#B"));
        g.add(iri("urn:t#B"), sub.clone(), iri("urn:t#C"));
        g.add(iri("urn:t#C"), sub.clone(), iri("urn:t#A"));
        g.add(iri("urn:t#x"), ty(), iri("urn:t#A"));
        let stats = Reasoner::default().materialize(&mut g);
        assert!(stats.passes < 10);
        assert!(g.has(&iri("urn:t#x"), &ty(), &iri("urn:t#C")));
    }

    #[test]
    fn intersection_class_membership_both_ways() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Hazardous", None);
        b.class("Riverside", None);
        b.intersection_class("HazardousRiverside", &["Hazardous", "Riverside"]);
        let mut g = b.into_graph();
        g.add(iri("urn:t#p1"), ty(), iri("urn:t#Hazardous"));
        g.add(iri("urn:t#p1"), ty(), iri("urn:t#Riverside"));
        g.add(iri("urn:t#p2"), ty(), iri("urn:t#Hazardous")); // only one part
        g.add(iri("urn:t#p3"), ty(), iri("urn:t#HazardousRiverside")); // asserted directly
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#p1"), &ty(), &iri("urn:t#HazardousRiverside")));
        assert!(!g.has(&iri("urn:t#p2"), &ty(), &iri("urn:t#HazardousRiverside")));
        // Direction 2: direct members belong to every part.
        assert!(g.has(&iri("urn:t#p3"), &ty(), &iri("urn:t#Hazardous")));
        assert!(g.has(&iri("urn:t#p3"), &ty(), &iri("urn:t#Riverside")));
    }

    #[test]
    fn union_class_membership() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Stream", None);
        b.class("Lake", None);
        b.union_class("WaterBody", &["Stream", "Lake"]);
        let mut g = b.into_graph();
        g.add(iri("urn:t#creek"), ty(), iri("urn:t#Stream"));
        g.add(iri("urn:t#pond"), ty(), iri("urn:t#Lake"));
        g.add(iri("urn:t#rock"), ty(), iri("urn:t#Other"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#creek"), &ty(), &iri("urn:t#WaterBody")));
        assert!(g.has(&iri("urn:t#pond"), &ty(), &iri("urn:t#WaterBody")));
        assert!(!g.has(&iri("urn:t#rock"), &ty(), &iri("urn:t#WaterBody")));
    }

    #[test]
    fn union_interacts_with_subclass_rules() {
        // WaterBody = Stream ∪ Lake, and WaterBody ⊑ Feature.
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Stream", None);
        b.class("Lake", None);
        b.class("Feature", None);
        b.union_class("WaterBody", &["Stream", "Lake"]);
        b.sub_class_of("WaterBody", "Feature");
        let mut g = b.into_graph();
        g.add(iri("urn:t#creek"), ty(), iri("urn:t#Stream"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:t#creek"), &ty(), &iri("urn:t#Feature")));
    }

    #[test]
    fn same_as_clique_closure() {
        let mut g = Graph::new();
        let same = Term::iri(owl::SAME_AS);
        g.add(iri("urn:a"), same.clone(), iri("urn:b"));
        g.add(iri("urn:b"), same.clone(), iri("urn:c"));
        Reasoner::default().materialize(&mut g);
        assert!(g.has(&iri("urn:c"), &same, &iri("urn:a")));
        assert!(g.has(&iri("urn:a"), &same, &iri("urn:c")));
        assert!(g.has(&iri("urn:b"), &same, &iri("urn:a")));
    }

    // ---- semi-naive / incremental engine tests ----

    /// A graph exercising every rule group at once.
    fn kitchen_sink() -> Graph {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Feature", None);
        b.class("WaterBody", Some("Feature"));
        b.class("Stream", Some("WaterBody"));
        b.class("Lake", Some("WaterBody"));
        b.class("Creek", None);
        b.equivalent_class("Stream", "Creek");
        b.class("Chemical", None);
        b.class("Hazardous", None);
        b.object_property("contains", None, None);
        b.object_property("within", None, None);
        b.inverse_of("contains", "within");
        b.object_property("touches", None, None);
        b.characteristic("touches", Characteristic::Symmetric);
        b.object_property("upstreamOf", None, None);
        b.characteristic("upstreamOf", Characteristic::Transitive);
        b.object_property("hasSiteId", None, None);
        b.characteristic("hasSiteId", Characteristic::InverseFunctional);
        b.object_property("stores", Some("Feature"), Some("Chemical"));
        b.restrict(
            "Hazardous",
            "stores",
            RestrictionKind::SomeValuesFrom("Chemical".into()),
        );
        b.union_class("Wet", &["Stream", "Lake"]);
        let mut g = b.into_graph();
        for i in 0..12 {
            g.add(iri(&format!("urn:t#s{i}")), ty(), iri("urn:t#Stream"));
            g.add(
                iri(&format!("urn:t#s{i}")),
                iri("urn:t#upstreamOf"),
                iri(&format!("urn:t#s{}", i + 1)),
            );
            g.add(
                iri(&format!("urn:t#s{i}")),
                iri("urn:t#touches"),
                iri(&format!("urn:t#s{}", i + 1)),
            );
        }
        g.add(iri("urn:t#plant"), iri("urn:t#stores"), iri("urn:t#acid"));
        g.add(iri("urn:t#siteA"), iri("urn:t#hasSiteId"), iri("urn:t#id1"));
        g.add(iri("urn:t#siteB"), iri("urn:t#hasSiteId"), iri("urn:t#id1"));
        g.add(iri("urn:t#siteA"), iri("urn:t#within"), iri("urn:t#park"));
        g
    }

    #[test]
    fn semi_naive_matches_naive_fixpoint() {
        let mut naive = kitchen_sink();
        let mut semi = kitchen_sink();
        let naive_stats = Reasoner::default().materialize_naive(&mut naive);
        let semi_stats = Reasoner::default().materialize(&mut semi);
        assert_eq!(naive, semi, "both engines must reach the same fixpoint");
        assert_eq!(naive_stats.inferred, semi_stats.inferred);
        assert!(
            semi_stats.passes <= naive_stats.passes,
            "semi-naive needed {} passes vs naive {}",
            semi_stats.passes,
            naive_stats.passes
        );
        // After pass 1 the delta shrinks to the per-pass derivations.
        assert_eq!(semi_stats.delta_sizes[0], kitchen_sink().len());
        assert!(semi_stats.delta_sizes[1..]
            .iter()
            .all(|&d| d < semi_stats.delta_sizes[0]));
    }

    #[test]
    fn materialize_delta_equals_full_rematerialization() {
        // Materialize, snapshot the generation, add facts, then update
        // incrementally — and compare with materializing from scratch.
        let mut g = kitchen_sink();
        let reasoner = Reasoner::default();
        reasoner.materialize(&mut g);
        let mark = g.generation();
        let additions = vec![
            Triple::new(iri("urn:t#newSite"), ty(), iri("urn:t#Lake")),
            Triple::new(iri("urn:t#newSite"), iri("urn:t#stores"), iri("urn:t#acid")),
            Triple::new(iri("urn:t#s12"), iri("urn:t#upstreamOf"), iri("urn:t#s13")),
            Triple::new(iri("urn:t#newSite"), iri("urn:t#touches"), iri("urn:t#s0")),
            Triple::new(iri("urn:t#siteC"), iri("urn:t#hasSiteId"), iri("urn:t#id1")),
        ];
        let mut from_scratch = kitchen_sink();
        for t in &additions {
            g.insert(t.clone());
            from_scratch.insert(t.clone());
        }
        let stats = reasoner
            .materialize_delta(&mut g, mark, &Deadline::never())
            .unwrap();
        assert!(stats.inferred > 0, "the additions have consequences");
        reasoner.materialize(&mut from_scratch);
        assert_eq!(
            g, from_scratch,
            "incremental update must equal full re-materialization"
        );
        // The incremental seed is the 5 added triples, not the full graph.
        assert_eq!(stats.delta_sizes[0], additions.len());
    }

    #[test]
    fn materialize_delta_with_no_additions_is_free() {
        let mut g = kitchen_sink();
        Reasoner::default().materialize(&mut g);
        let mark = g.generation();
        let stats = Reasoner::default()
            .materialize_delta(&mut g, mark, &Deadline::never())
            .unwrap();
        assert_eq!(stats.passes, 0);
        assert_eq!(stats.inferred, 0);
    }

    #[test]
    fn late_schema_arrival_is_handled_incrementally() {
        // Declaring a restriction *after* materialization must reclassify
        // existing instances via the delta path.
        let mut g = Graph::new();
        g.add(iri("urn:t#plant"), iri("urn:t#stores"), iri("urn:t#acid"));
        g.add(iri("urn:t#acid"), ty(), iri("urn:t#Chemical"));
        let reasoner = Reasoner::default();
        reasoner.materialize(&mut g);
        let mark = g.generation();
        // Restriction declaration arrives as an update.
        let r = Term::blank("r1");
        g.add(r.clone(), ty(), iri(owl::RESTRICTION));
        g.add(r.clone(), iri(owl::ON_PROPERTY), iri("urn:t#stores"));
        g.add(r.clone(), iri(owl::SOME_VALUES_FROM), iri("urn:t#Chemical"));
        g.add(iri("urn:t#Hazardous"), iri(rdfs::SUB_CLASS_OF), r.clone());
        reasoner
            .materialize_delta(&mut g, mark, &Deadline::never())
            .unwrap();
        assert!(
            g.has(&iri("urn:t#plant"), &ty(), &r),
            "pre-existing instance data must meet the late restriction"
        );
    }

    #[test]
    fn boolean_classes_declared_late_apply_through_the_delta_path() {
        let mut g = Graph::new();
        for (x, c) in [
            ("creek", "Stream"),
            ("pond", "Lake"),
            ("rock", "Outcrop"),
            ("p1", "Hazardous"),
            ("p1", "Riverside"),
            ("p2", "Hazardous"),
        ] {
            g.add(iri(&format!("urn:t#{x}")), ty(), iri(&format!("urn:t#{c}")));
        }
        let reasoner = Reasoner::default();
        reasoner.materialize(&mut g);
        let mark = g.generation();
        // Both class expressions arrive as an update.
        let water = g.write_list(&[iri("urn:t#Stream"), iri("urn:t#Lake")]);
        g.add(iri("urn:t#WaterBody"), iri(owl::UNION_OF), water);
        let parts = g.write_list(&[iri("urn:t#Hazardous"), iri("urn:t#Riverside")]);
        g.add(
            iri("urn:t#HazardousRiverside"),
            iri(owl::INTERSECTION_OF),
            parts,
        );
        let declared = g.clone();
        reasoner
            .materialize_delta(&mut g, mark, &Deadline::never())
            .unwrap();
        assert_eq!(
            added(&declared, &g),
            BTreeSet::from([
                t("urn:t#creek", rdf::TYPE, "urn:t#WaterBody"),
                t("urn:t#pond", rdf::TYPE, "urn:t#WaterBody"),
                t("urn:t#p1", rdf::TYPE, "urn:t#HazardousRiverside"),
            ])
        );
        assert!(!g.has(&iri("urn:t#rock"), &ty(), &iri("urn:t#WaterBody")));
        assert!(!g.has(&iri("urn:t#p2"), &ty(), &iri("urn:t#HazardousRiverside")));
    }

    #[test]
    fn value_restrictions_declared_late_apply_through_the_delta_path() {
        let mut g = Graph::new();
        g.add(iri("urn:t#s1"), ty(), iri("urn:t#TexasSite"));
        g.add(iri("urn:t#s2"), iri("urn:t#inState"), iri("urn:t#texas"));
        g.add(iri("urn:t#net"), ty(), iri("urn:t#StreamNetwork"));
        g.add(iri("urn:t#net"), iri("urn:t#hasMember"), iri("urn:t#m1"));
        g.add(
            iri("urn:t#net"),
            iri("urn:t#hasMember"),
            Term::string("unnamed reach"),
        );
        let reasoner = Reasoner::default();
        reasoner.materialize(&mut g);
        let mark = g.generation();
        // A hasValue and an allValuesFrom restriction arrive as an update.
        let in_texas = Term::blank("inTexas");
        g.add(in_texas.clone(), ty(), iri(owl::RESTRICTION));
        g.add(
            in_texas.clone(),
            iri(owl::ON_PROPERTY),
            iri("urn:t#inState"),
        );
        g.add(in_texas.clone(), iri(owl::HAS_VALUE), iri("urn:t#texas"));
        g.add(
            iri("urn:t#TexasSite"),
            iri(rdfs::SUB_CLASS_OF),
            in_texas.clone(),
        );
        let only_streams = Term::blank("onlyStreams");
        g.add(only_streams.clone(), ty(), iri(owl::RESTRICTION));
        g.add(
            only_streams.clone(),
            iri(owl::ON_PROPERTY),
            iri("urn:t#hasMember"),
        );
        g.add(
            only_streams.clone(),
            iri(owl::ALL_VALUES_FROM),
            iri("urn:t#Stream"),
        );
        g.add(
            iri("urn:t#StreamNetwork"),
            iri(rdfs::SUB_CLASS_OF),
            only_streams.clone(),
        );
        let declared = g.clone();
        reasoner
            .materialize_delta(&mut g, mark, &Deadline::never())
            .unwrap();
        assert_eq!(
            added(&declared, &g),
            BTreeSet::from([
                Triple::new(iri("urn:t#s1"), ty(), in_texas.clone()),
                t("urn:t#s1", "urn:t#inState", "urn:t#texas"),
                // Only the restriction's re-run reaches s2: its value
                // edge is older than the declaration.
                Triple::new(iri("urn:t#s2"), ty(), in_texas),
                Triple::new(iri("urn:t#net"), ty(), only_streams),
                t("urn:t#m1", rdf::TYPE, "urn:t#Stream"),
            ])
        );
        assert!(!g.has(&Term::string("unnamed reach"), &ty(), &iri("urn:t#Stream")));
        assert!(!g.has(&iri("urn:t#s2"), &ty(), &iri("urn:t#TexasSite")));
    }

    /// Retract `removed` from the base of a materialized `base` through
    /// [`Reasoner::maintain`], and compare with materializing the edited
    /// base from scratch.
    fn retract_matches_scratch(base: Graph, removed: &[Triple]) -> Maintenance {
        let reasoner = Reasoner::default();
        let mut edited = base.clone();
        for t in removed {
            assert!(edited.remove(t), "{t} is asserted");
        }
        let mut served = base;
        reasoner.materialize(&mut served);
        let since = served.generation();
        let asserted = |s: &Term, p: &Term, o: &Term| edited.has(s, p, o);
        let edit = Edit {
            removed,
            since,
            asserted: &asserted,
        };
        let outcome = reasoner
            .maintain(&mut served, &edit, &Deadline::never())
            .unwrap();
        if let Maintenance::Maintained { .. } = outcome {
            let mut scratch = edited.clone();
            reasoner.materialize(&mut scratch);
            assert_eq!(served, scratch, "retraction must equal a fresh fixpoint");
        }
        outcome
    }

    #[test]
    fn retraction_removes_what_only_the_removed_triple_supported() {
        // Cut the upstreamOf chain s0 → … → s12 between s6 and s7, and
        // drop the plant's only `stores` edge.
        let removed = [
            Triple::new(iri("urn:t#s6"), iri("urn:t#upstreamOf"), iri("urn:t#s7")),
            Triple::new(iri("urn:t#plant"), iri("urn:t#stores"), iri("urn:t#acid")),
        ];
        let Maintenance::Maintained { stats, retracted } =
            retract_matches_scratch(kitchen_sink(), &removed)
        else {
            panic!("instance triples outside cliques and boolean classes retract incrementally");
        };
        // Every upstreamOf pair across the cut (7 × 6) goes, and so do the
        // plant's domain, range and restriction types.
        assert!(retracted.len() >= 42 + 3, "{} retracted", retracted.len());
        assert!(
            stats.passes >= 3,
            "over-delete, re-derive and forward passes"
        );
    }

    #[test]
    fn retraction_keeps_conclusions_with_a_second_derivation() {
        let mut b = OntologyBuilder::new("urn:t#");
        b.class("Feature", None);
        b.class("Stream", Some("Feature"));
        b.class("Lake", Some("Feature"));
        b.object_property("upstreamOf", None, None);
        b.characteristic("upstreamOf", Characteristic::Transitive);
        let mut g = b.into_graph();
        g.add(iri("urn:t#x"), ty(), iri("urn:t#Stream"));
        g.add(iri("urn:t#x"), ty(), iri("urn:t#Lake"));
        // a → b → c and a → c' → c: two routes from a to c.
        for (s, o) in [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")] {
            g.add(
                iri(&format!("urn:t#{s}")),
                iri("urn:t#upstreamOf"),
                iri(&format!("urn:t#{o}")),
            );
        }
        let removed = [
            Triple::new(iri("urn:t#x"), ty(), iri("urn:t#Stream")),
            Triple::new(iri("urn:t#a"), iri("urn:t#upstreamOf"), iri("urn:t#b")),
        ];
        let outcome = retract_matches_scratch(g, &removed);
        let Maintenance::Maintained { retracted, .. } = outcome else {
            panic!("plain instance triples retract incrementally");
        };
        // Only the two asserted triples go; x stays a Feature, a still
        // reaches c.
        assert_eq!(retracted.len(), 2);
    }

    #[test]
    fn retraction_through_clique_or_boolean_rules_asks_for_a_rebuild() {
        let g = kitchen_sink();
        for removed in [
            // siteA is in the sameAs clique its shared hasSiteId derives.
            Triple::new(iri("urn:t#siteA"), iri("urn:t#within"), iri("urn:t#park")),
            // Stream is a part of the union class Wet.
            Triple::new(iri("urn:t#s2"), ty(), iri("urn:t#Stream")),
            // Schema.
            Triple::new(
                iri("urn:t#Stream"),
                iri(rdfs::SUB_CLASS_OF),
                iri("urn:t#WaterBody"),
            ),
        ] {
            let mut served = g.clone();
            Reasoner::default().materialize(&mut served);
            let before = served.clone();
            let mut edited = g.clone();
            edited.remove(&removed);
            let asserted = |s: &Term, p: &Term, o: &Term| edited.has(s, p, o);
            let edit = Edit {
                removed: std::slice::from_ref(&removed),
                since: served.generation(),
                asserted: &asserted,
            };
            let outcome = Reasoner::default()
                .maintain(&mut served, &edit, &Deadline::never())
                .unwrap();
            assert_eq!(outcome, Maintenance::Rebuild, "{removed}");
            assert_eq!(
                served, before,
                "a rebuild answer leaves the graph as it was"
            );
        }
    }
}
