//! Label-compilation IR and the whole-policy-set static analyzer.
//!
//! Compile the List-8 policy set plus the role hierarchy (`sec:subRoleOf`)
//! into visibility labels over the interned-id graph — the Accumulo/GeoMesa
//! cell-level model, keyed by subject. A triple's label depends only on
//! its subject and predicate: a non-blank instance subject's class comes
//! from the policies that designate it, a blank node's from the roles its
//! visible owners pass down, and a predicate's class from the property
//! conditions that name it ([`grdf_rdf::labels::SubjectLabels`]). A request
//! resolves its role to an authorization bitset once
//! ([`LabelIr::authorizations`], [`SubjectLabels::mask`]); the query scan
//! then tests each triple with array loads, with zero per-role state.
//! Additive updates patch the table from their delta ([`LabelIr::relabel`]).
//!
//! Compilation resolves the *effective* policy set per role up front: a
//! sub-role inherits every ancestor's policies and deny-overrides applies
//! across the merged set, so a role's bit already encodes hierarchy-aware
//! evaluation. The differential verifier
//! ([`LabelIr::verify_label_equivalence`]) proves that label-filtered
//! scans produce exactly the materialized secure views of
//! [`crate::views::secure_view`] for every role.
//!
//! On top of the IR sit four whole-policy-set static passes (surfaced by
//! `grdf-lint` and the G-SACS `LintGate`):
//!
//! * **S007 unreachable-policy** — removing the policy changes no role's
//!   compiled visibility (shadowing at the whole-set level, beyond the
//!   pairwise S003 check).
//! * **S008 contradictory-overlap** — an effective Permit and Deny of one
//!   role collide on a concrete subject in a way the pairwise S001
//!   designator check cannot see (inherited policies, or designators that
//!   only meet on a multi-typed individual).
//! * **S009 entailment-leak** — a role's permitted subgraph plus the
//!   public schema OWL-Horst-entails a triple about a subject that role is
//!   explicitly denied (reusing the semi-naive id-space reasoner).
//! * **S010 non-monotonic-authorization** — a sub-role's effective view
//!   loses a triple its super-role can see.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use grdf_owl::hierarchy::Hierarchy;
use grdf_owl::reasoner::Reasoner;
use grdf_rdf::diagnostic::{Diagnostic, LintCode};
use grdf_rdf::graph::{Graph, TermId};
use grdf_rdf::labels::{LabelId, SubjectLabels, VisBitset, HIDDEN};
use grdf_rdf::term::{Term, Triple};
use grdf_rdf::vocab::{grdf, owl, rdf, rdfs};

use crate::policy::{Action, Condition, Decision, PolicySet};
use crate::views::secure_view;

/// IRI of the role-hierarchy property: `(sub, sec:subRoleOf, super)`.
/// A sub-role inherits every policy of its (transitive) super-roles.
pub fn sub_role_of() -> String {
    grdf::sec("subRoleOf")
}

/// The `sec:subRoleOf` DAG, decoded from the graph. Cycle-safe: a cycle
/// makes the members mutually inherit without looping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoleHierarchy {
    /// sub-role → direct super-roles.
    supers: BTreeMap<String, BTreeSet<String>>,
}

impl RoleHierarchy {
    /// An empty hierarchy (every role stands alone).
    #[must_use]
    pub fn new() -> RoleHierarchy {
        RoleHierarchy::default()
    }

    /// Declare `sub` a sub-role of `sup`.
    pub fn add(&mut self, sub: &str, sup: &str) {
        self.supers
            .entry(sub.to_string())
            .or_default()
            .insert(sup.to_string());
    }

    /// Decode every `sec:subRoleOf` edge in `graph`.
    #[must_use]
    pub fn decode(graph: &Graph) -> RoleHierarchy {
        let mut h = RoleHierarchy::new();
        for t in graph.match_pattern(None, Some(&Term::iri(&sub_role_of())), None) {
            if let (Some(sub), Some(sup)) = (t.subject.as_iri(), t.object.as_iri()) {
                h.add(sub, sup);
            }
        }
        h
    }

    /// Encode the hierarchy as `sec:subRoleOf` triples.
    pub fn encode(&self, graph: &mut Graph) {
        let p = Term::iri(&sub_role_of());
        for (sub, sups) in &self.supers {
            for sup in sups {
                graph.add(Term::iri(sub), p.clone(), Term::iri(sup));
            }
        }
    }

    /// True when no edge is declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.supers.is_empty()
    }

    /// Every declared `(sub, super)` edge, sorted.
    #[must_use]
    pub fn edges(&self) -> Vec<(String, String)> {
        self.supers
            .iter()
            .flat_map(|(sub, sups)| sups.iter().map(move |s| (sub.clone(), s.clone())))
            .collect()
    }

    /// All roles mentioned by any edge, sorted.
    #[must_use]
    pub fn roles(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (sub, sups) in &self.supers {
            out.insert(sub.clone());
            out.extend(sups.iter().cloned());
        }
        out
    }

    /// Transitive super-roles of `role`, excluding itself, sorted.
    #[must_use]
    pub fn ancestors(&self, role: &str) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(role);
        while let Some(r) = queue.pop_front() {
            if let Some(sups) = self.supers.get(r) {
                for s in sups {
                    if s != role && seen.insert(s.clone()) {
                        queue.push_back(s.as_str());
                    }
                }
            }
        }
        seen
    }
}

/// Precomputed resource-designator relations for a policy set: the named
/// superclass cone and asserted types of each distinct designator IRI.
///
/// [`DesignatorIndex::overlap`] reproduces the legacy pairwise
/// `resources_overlap` semantics (equal, subclass either way, or
/// instance-of either way) with the hierarchy walked once per designator
/// instead of once per policy pair — the pairwise `conflicts` pass and the
/// S008 suppression both route through it.
#[derive(Debug, Clone, Default)]
pub struct DesignatorIndex {
    /// designator → its transitive named superclasses (excluding itself).
    supers: HashMap<String, BTreeSet<String>>,
    /// designator → `{t} ∪ superclasses(t)` for each asserted named type.
    type_cones: HashMap<String, BTreeSet<String>>,
}

impl DesignatorIndex {
    /// Index every distinct resource designator in `policies` against the
    /// (materialized) hierarchy of `data`.
    #[must_use]
    pub fn new(data: &Graph, policies: &PolicySet) -> DesignatorIndex {
        let h = Hierarchy::new(data);
        let mut idx = DesignatorIndex::default();
        for p in &policies.policies {
            let r = p.resource.as_str();
            if idx.supers.contains_key(r) {
                continue;
            }
            let term = Term::iri(r);
            let supers: BTreeSet<String> = h
                .superclasses(&term)
                .iter()
                .filter_map(|t| t.as_iri().map(str::to_string))
                .collect();
            let mut cone = BTreeSet::new();
            for t in h.types_of(&term) {
                if let Some(i) = t.as_iri() {
                    cone.insert(i.to_string());
                }
                for s in h.superclasses(&t) {
                    if let Some(i) = s.as_iri() {
                        cone.insert(i.to_string());
                    }
                }
            }
            idx.supers.insert(r.to_string(), supers);
            idx.type_cones.insert(r.to_string(), cone);
        }
        idx
    }

    /// Whether two designators overlap: equal, one a subclass of the
    /// other, or an instance of the other (either direction).
    #[must_use]
    pub fn overlap(&self, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        let sup_has = |x: &str, y: &str| self.supers.get(x).is_some_and(|s| s.contains(y));
        let cone_has = |x: &str, y: &str| self.type_cones.get(x).is_some_and(|s| s.contains(y));
        sup_has(a, b) || sup_has(b, a) || cone_has(a, b) || cone_has(b, a)
    }
}

/// One policy after compilation: its subject-match set resolved against
/// the graph and its property conditions resolved to a concrete predicate
/// set.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    /// Index into the source [`PolicySet`].
    pub index: usize,
    /// Policy IRI.
    pub id: String,
    /// Declaring role IRI.
    pub role: String,
    /// Governed action.
    pub action: Action,
    /// Permit or Deny.
    pub decision: Decision,
    /// The raw resource designator.
    pub resource: String,
    /// Every graph subject the designator matches (instance IRI equality
    /// or a type inside the designator's subclass cone) — all subjects,
    /// not just instances; passes intersect with
    /// [`LabelIr::instance_subjects`] where view semantics demand it.
    pub matches: BTreeSet<TermId>,
    /// `None` for an unconditional policy; `Some(preds)` for a
    /// property-conditioned one (the predicate ids, of those present in
    /// the graph, that satisfy every condition). `rdf:type` is always
    /// visible on matched subjects regardless.
    pub allowed: Option<BTreeSet<TermId>>,
}

/// What one role's effective View policies conclude about one subject.
/// Normalized so that grants with equal effect compare equal: a grant
/// that shows nothing, or everything, carries no conditioned permits.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct RoleGrant {
    /// An effective View permit matches and no effective View deny does.
    visible: bool,
    /// An unconditional permit matches: every predicate is visible.
    all: bool,
    /// Indices of the matching property-conditioned permits, ascending.
    conds: Vec<usize>,
}

impl RoleGrant {
    /// Does the grant show the subject's triples of predicate class
    /// `pred`?
    fn shows(&self, pred: &PredKey) -> bool {
        self.visible
            && pred.iri
            && (pred.is_type
                || self.all
                || self
                    .conds
                    .iter()
                    .any(|c| pred.allowed_by.binary_search(c).is_ok()))
    }
}

/// What decides a subject class's row of the label grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ClassKey {
    /// A non-blank instance subject: one grant per role bit.
    Granted(Vec<RoleGrant>),
    /// A blank node: the roles its visible owners pass down (all of its
    /// triples share them).
    Reached(VisBitset),
}

/// What decides a predicate class's column of the label grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PredKey {
    /// Non-IRI predicates are never granted directly.
    iri: bool,
    /// `rdf:type`, visible under any permit.
    is_type: bool,
    /// Conditioned View permits whose conditions allow the predicate,
    /// ascending.
    allowed_by: Vec<usize>,
}

impl PredKey {
    /// Predicate class 0: an IRI no permit condition names.
    fn plain() -> PredKey {
        PredKey {
            iri: true,
            is_type: false,
            allowed_by: Vec::new(),
        }
    }
}

/// The roles that see a (subject class, predicate class) combination.
fn grid_cell(key: &ClassKey, pred: &PredKey, width: usize) -> VisBitset {
    match key {
        ClassKey::Reached(bits) => bits.clone(),
        ClassKey::Granted(grants) => {
            let mut bits = VisBitset::new(width);
            for (b, g) in grants.iter().enumerate() {
                if g.shows(pred) {
                    bits.set(b);
                }
            }
            bits
        }
    }
}

/// Does a type make its subject an instance (a non-OWL/RDFS class)?
fn is_instance_type(term: &Term) -> bool {
    term.as_iri()
        .is_some_and(|i| !i.starts_with(owl::NS) && !i.starts_with(rdfs::NS))
}

/// Designator lookups for one label pass: policy indices by the term id
/// of the designator IRI, and by the term id of each class in the
/// designator's subclass cone.
struct MatchMaps {
    by_iri: HashMap<TermId, Vec<usize>>,
    by_type: HashMap<TermId, Vec<usize>>,
}

impl MatchMaps {
    /// Policies designating `s` (by IRI, or through one of `types`),
    /// ascending.
    fn matched(&self, s: TermId, types: &[TermId]) -> Vec<usize> {
        let mut m: Vec<usize> = self.by_iri.get(&s).cloned().unwrap_or_default();
        for t in types {
            if let Some(ps) = self.by_type.get(t) {
                m.extend_from_slice(ps);
            }
        }
        m.sort_unstable();
        m.dedup();
        m
    }
}

/// The compiled label IR: roles, effective policy sets, per-policy match
/// sets, and the per-subject label table.
#[derive(Debug, Clone)]
pub struct LabelIr {
    /// Every role, sorted; a role's index is its bit in every
    /// [`VisBitset`].
    pub roles: Vec<String>,
    role_index: HashMap<String, usize>,
    /// The decoded `sec:subRoleOf` hierarchy.
    pub hierarchy: RoleHierarchy,
    /// Compiled policies, in source order.
    pub policies: Vec<CompiledPolicy>,
    /// Per role bit: indices of its effective policies (own plus every
    /// transitive ancestor's), ascending.
    pub effective: Vec<Vec<usize>>,
    /// The per-subject label table over the compile graph: the only label
    /// state a scan reads.
    pub table: SubjectLabels,
    /// Subjects that pass the instance test (typed with at least one
    /// non-OWL/RDFS class) and are not blank — the subjects secure views
    /// evaluate policies over.
    pub instance_subjects: BTreeSet<TermId>,
    /// designator IRI → subject-match cone (the designator plus its
    /// named-path subclass closure), for matching subjects that only
    /// appear in derived graphs.
    cones: HashMap<String, HashSet<Term>>,
    /// Each policy's conditions, for classifying predicates first seen
    /// after the compile.
    conditions: Vec<Vec<Condition>>,
    type_id: Option<TermId>,
    /// Subject class keys by class id (`[HIDDEN]` is an empty reach).
    class_keys: Vec<ClassKey>,
    class_ids: HashMap<ClassKey, LabelId>,
    /// Predicate class keys by class id.
    pred_keys: Vec<PredKey>,
    pred_ids: HashMap<PredKey, u32>,
    /// Predicates already given a class.
    classified: HashSet<TermId>,
    /// Roles with any effective deny.
    deny_bearing: VisBitset,
}

impl LabelIr {
    /// Compile `policies` (plus the `sec:subRoleOf` hierarchy found in
    /// `data`) into the per-subject label table over `data`. Materialize
    /// `data` first for full semantics-aware matching, exactly as for
    /// [`secure_view`].
    #[must_use]
    pub fn compile(data: &Graph, policies: &PolicySet) -> LabelIr {
        let hierarchy = RoleHierarchy::decode(data);
        let mut role_set: BTreeSet<String> =
            policies.policies.iter().map(|p| p.role.clone()).collect();
        role_set.extend(hierarchy.roles());
        let roles: Vec<String> = role_set.into_iter().collect();
        let role_index: HashMap<String, usize> = roles
            .iter()
            .enumerate()
            .map(|(i, r)| (r.clone(), i))
            .collect();

        // Effective policy set per role: own plus transitive ancestors'.
        let effective: Vec<Vec<usize>> = roles
            .iter()
            .map(|r| {
                let anc = hierarchy.ancestors(r);
                policies
                    .policies
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.role == *r || anc.contains(&p.role))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let mut deny_bearing = VisBitset::new(roles.len());
        for (b, eff) in effective.iter().enumerate() {
            if eff
                .iter()
                .any(|&i| policies.policies[i].decision == Decision::Deny)
            {
                deny_bearing.set(b);
            }
        }

        // Subject-match cones per distinct designator: the designator plus
        // every class reachable downward along named-class paths (blank
        // restriction classes are members but not expanded — mirroring
        // `Hierarchy::is_subclass_of`, whose upward walk only traverses
        // named superclasses).
        let sub_class_of = Term::iri(rdfs::SUB_CLASS_OF);
        let mut cones: HashMap<String, HashSet<Term>> = HashMap::new();
        for p in &policies.policies {
            if cones.contains_key(&p.resource) {
                continue;
            }
            let start = Term::iri(&p.resource);
            let mut cone: HashSet<Term> = HashSet::new();
            cone.insert(start.clone());
            let mut queue: VecDeque<Term> = VecDeque::new();
            queue.push_back(start);
            while let Some(c) = queue.pop_front() {
                for sub in data.subjects(&sub_class_of, &c) {
                    if cone.insert(sub.clone()) && !sub.is_blank() {
                        queue.push_back(sub);
                    }
                }
            }
            cones.insert(p.resource.clone(), cone);
        }

        let compiled: Vec<CompiledPolicy> = policies
            .policies
            .iter()
            .enumerate()
            .map(|(index, p)| CompiledPolicy {
                index,
                id: p.id.clone(),
                role: p.role.clone(),
                action: p.action,
                decision: p.decision,
                resource: p.resource.clone(),
                matches: BTreeSet::new(),
                allowed: (!p.conditions.is_empty()).then(BTreeSet::new),
            })
            .collect();
        let width = roles.len();
        let hidden = ClassKey::Reached(VisBitset::new(width));
        let mut ir = LabelIr {
            roles,
            role_index,
            hierarchy,
            policies: compiled,
            effective,
            table: SubjectLabels::new(width),
            instance_subjects: BTreeSet::new(),
            cones,
            conditions: policies
                .policies
                .iter()
                .map(|p| p.conditions.clone())
                .collect(),
            type_id: data.term_id(&Term::iri(rdf::TYPE)),
            class_keys: vec![hidden.clone()],
            class_ids: HashMap::from([(hidden, HIDDEN)]),
            pred_keys: vec![PredKey::plain()],
            pred_ids: HashMap::from([(PredKey::plain(), 0)]),
            classified: HashSet::new(),
            deny_bearing,
        };

        // Every triple in subject order, once: classify its predicates,
        // then sweep the subjects.
        let mut spo: Vec<(TermId, TermId, TermId)> = Vec::with_capacity(data.len());
        data.for_each_match_ids(None, None, None, |s, p, o| spo.push((s, p, o)));
        let mut is_pred = vec![false; data.term_count()];
        for &(_, p, _) in &spo {
            is_pred[p as usize] = true;
        }
        for (p, _) in is_pred.iter().enumerate().filter(|(_, &used)| used) {
            ir.classify_predicate(data, TermId::try_from(p).expect("term ids fit u32"));
        }
        ir.sweep_subjects(data, &spo);
        ir
    }

    /// The subject sweep: every subject's designator matches and class,
    /// then the reach of the blank nodes its granted triples expose.
    fn sweep_subjects(&mut self, data: &Graph, spo: &[(TermId, TermId, TermId)]) {
        let maps = self.match_maps(data);
        let mut seeds = Vec::new();
        for group in spo.chunk_by(|a, b| a.0 == b.0) {
            let s = group[0].0;
            let types: Vec<TermId> = group
                .iter()
                .filter(|t| Some(t.1) == self.type_id)
                .map(|t| t.2)
                .collect();
            if self.grant_subject(data, &maps, s, &types) != HIDDEN {
                seeds.extend(
                    group
                        .iter()
                        .map(|t| t.2)
                        .filter(|&o| data.term_of(o).is_blank()),
                );
            }
        }
        self.rereach(data, seeds);
    }

    /// Record which policies designate subject `s` (typed `types`) and
    /// give it its class: from those policies' grants when it is a
    /// non-blank instance, [`HIDDEN`] otherwise. Blank nodes keep the
    /// class their reach gives them. Returns the class.
    fn grant_subject(
        &mut self,
        data: &Graph,
        maps: &MatchMaps,
        s: TermId,
        types: &[TermId],
    ) -> LabelId {
        let matched = maps.matched(s, types);
        for &i in &matched {
            self.policies[i].matches.insert(s);
        }
        if data.term_of(s).is_blank() {
            return self.table.subject_class(s);
        }
        let class = if types.iter().any(|&t| is_instance_type(data.term_of(t))) {
            self.instance_subjects.insert(s);
            self.class_for_matches(&matched)
        } else {
            HIDDEN
        };
        self.table.set_subject(s, class);
        class
    }

    fn match_maps(&self, data: &Graph) -> MatchMaps {
        let mut maps = MatchMaps {
            by_iri: HashMap::new(),
            by_type: HashMap::new(),
        };
        for (i, c) in self.policies.iter().enumerate() {
            if let Some(id) = data.term_id(&Term::iri(&c.resource)) {
                maps.by_iri.entry(id).or_default().push(i);
            }
            for t in self.cones.get(&c.resource).into_iter().flatten() {
                if let Some(id) = data.term_id(t) {
                    maps.by_type.entry(id).or_default().push(i);
                }
            }
        }
        maps
    }

    /// Role `bit`'s grant on a subject its effective View policies
    /// designate where `designates` holds, optionally with one policy
    /// excluded (the S007 counterfactual). Deny overrides permit.
    fn role_grant(
        &self,
        bit: usize,
        designates: impl Fn(usize) -> bool,
        exclude: Option<usize>,
    ) -> RoleGrant {
        let mut g = RoleGrant::default();
        for &i in &self.effective[bit] {
            let c = &self.policies[i];
            if c.action != Action::View || exclude == Some(i) || !designates(i) {
                continue;
            }
            match (c.decision, &c.allowed) {
                (Decision::Deny, _) => return RoleGrant::default(),
                (Decision::Permit, None) => {
                    g.visible = true;
                    g.all = true;
                }
                (Decision::Permit, Some(_)) => {
                    g.visible = true;
                    g.conds.push(i);
                }
            }
        }
        if g.all {
            g.conds.clear();
        }
        g
    }

    /// The subject class of an instance subject designated by `matched`.
    fn class_for_matches(&mut self, matched: &[usize]) -> LabelId {
        let grants: Vec<RoleGrant> = (0..self.width())
            .map(|b| self.role_grant(b, |i| matched.binary_search(&i).is_ok(), None))
            .collect();
        if grants.iter().all(|g| !g.visible) {
            return HIDDEN;
        }
        self.intern_class(ClassKey::Granted(grants))
    }

    fn intern_class(&mut self, key: ClassKey) -> LabelId {
        if let Some(&id) = self.class_ids.get(&key) {
            return id;
        }
        let width = self.width();
        let row = self
            .pred_keys
            .iter()
            .map(|pk| grid_cell(&key, pk, width))
            .collect();
        let id = self.table.add_class(row);
        self.class_keys.push(key.clone());
        self.class_ids.insert(key, id);
        id
    }

    /// Give predicate `p` its class (once): which conditioned policies
    /// allow it, through its IRI or a superproperty (walked through every
    /// parent, blank or named — mirroring the evaluator's
    /// `is_subproperty_of`). A class not seen before extends every row.
    fn classify_predicate(&mut self, data: &Graph, p: TermId) {
        if !self.classified.insert(p) {
            return;
        }
        let term = data.term_of(p);
        let key = match term.as_iri() {
            None => PredKey {
                iri: false,
                is_type: false,
                allowed_by: Vec::new(),
            },
            Some(q) => {
                let sub_prop_of = Term::iri(rdfs::SUB_PROPERTY_OF);
                let mut supers: HashSet<String> = HashSet::new();
                let mut seen: HashSet<Term> = HashSet::new();
                let mut stack = vec![term.clone()];
                while let Some(cur) = stack.pop() {
                    for parent in data.objects(&cur, &sub_prop_of) {
                        if let Some(i) = parent.as_iri() {
                            supers.insert(i.to_string());
                        }
                        if seen.insert(parent.clone()) {
                            stack.push(parent);
                        }
                    }
                }
                let mut allowed_by = Vec::new();
                for (i, conds) in self.conditions.iter().enumerate() {
                    if conds.is_empty() {
                        continue;
                    }
                    let ok = conds.iter().all(|c| match c {
                        Condition::PropertyAccess(props) => {
                            props.iter().any(|a| a.as_str() == q || supers.contains(a))
                        }
                    });
                    if !ok {
                        continue;
                    }
                    let c = &mut self.policies[i];
                    if let Some(allowed) = &mut c.allowed {
                        allowed.insert(p);
                    }
                    if c.action == Action::View && c.decision == Decision::Permit {
                        allowed_by.push(i);
                    }
                }
                PredKey {
                    iri: true,
                    is_type: Some(p) == self.type_id,
                    allowed_by,
                }
            }
        };
        let class = if let Some(&k) = self.pred_ids.get(&key) {
            k
        } else {
            let width = self.width();
            let keys = &self.class_keys;
            let k = self
                .table
                .add_pred_class(|class| grid_cell(&keys[class as usize], &key, width));
            self.pred_keys.push(key.clone());
            self.pred_ids.insert(key, k);
            k
        };
        self.table.set_pred(p, class);
    }

    /// Patch the table after an update: `delta` holds every triple `data`
    /// gained since the table was last brought up to date, `removed` every
    /// triple it lost (asserted, inferred or retracted). Only what they
    /// touch is relabeled:
    ///
    /// * predicates first seen in the delta get their class, and
    ///   predicates the graph no longer holds lose theirs;
    /// * every subject of either list is re-granted from scratch (a new
    ///   type can move it into a designated class, a lost one out of it);
    ///   a subject left without triples drops out of the table;
    /// * blank nodes below a re-granted subject, or hanging off a gained
    ///   or lost triple, take their reach again from their owners.
    ///
    /// Returns `false`, leaving the table untouched, when either list
    /// holds an RDFS/OWL-vocabulary or `sec:subRoleOf` triple: those
    /// change designator cones, superproperty closures or effective
    /// policy sets, so the caller must recompile.
    pub fn relabel(
        &mut self,
        data: &Graph,
        delta: &[(TermId, TermId, TermId)],
        removed: &[(TermId, TermId, TermId)],
    ) -> bool {
        let span = grdf_obs::span("labels.relabel")
            .tag("delta", delta.len())
            .tag("removed", removed.len());
        let sub_role = sub_role_of();
        let structural = delta.iter().chain(removed).any(|&(_, p, _)| {
            data.term_of(p)
                .as_iri()
                .is_some_and(|i| i.starts_with(rdfs::NS) || i.starts_with(owl::NS) || i == sub_role)
        });
        if structural {
            drop(span.tag("recompile", true));
            return false;
        }
        if self.type_id.is_none() {
            self.type_id = data.term_id(&Term::iri(rdf::TYPE));
        }
        for &(_, p, _) in delta {
            self.classify_predicate(data, p);
        }
        for &(_, p, _) in removed {
            if self.classified.contains(&p) && data.estimate_ids(None, Some(p), None) == 0 {
                self.unclassify_predicate(p);
            }
        }
        let maps = self.match_maps(data);
        let is_blank = |id: TermId| data.term_of(id).is_blank();
        let mut dirty: Vec<TermId> = delta
            .iter()
            .chain(removed)
            .filter(|t| is_blank(t.2))
            .map(|t| t.2)
            .collect();
        let mut subjects: Vec<TermId> = delta.iter().chain(removed).map(|t| t.0).collect();
        subjects.sort_unstable();
        subjects.dedup();
        let mut regranted = 0;
        for s in subjects {
            let before = self.table.subject_class(s);
            for c in &mut self.policies {
                c.matches.remove(&s);
            }
            self.instance_subjects.remove(&s);
            if data.estimate_ids(Some(s), None, None) == 0 {
                // No triple names it as subject any more: a fresh compile
                // never sees it (a blank node keeps its reach).
                if !is_blank(s) {
                    self.table.set_subject(s, HIDDEN);
                }
                continue;
            }
            let mut types = Vec::new();
            if let Some(ty) = self.type_id {
                data.for_each_match_ids(Some(s), Some(ty), None, |_, _, o| types.push(o));
            }
            if self.grant_subject(data, &maps, s, &types) != before {
                regranted += 1;
                data.for_each_match_ids(Some(s), None, None, |_, _, o| {
                    if is_blank(o) {
                        dirty.push(o);
                    }
                });
            }
        }
        let reached = self.rereach(data, dirty);
        drop(span.tag("regranted", regranted).tag("rereached", reached));
        true
    }

    /// Forget predicate `p`'s class: the graph no longer holds a triple of
    /// it, so a fresh compile would never classify it.
    fn unclassify_predicate(&mut self, p: TermId) {
        self.classified.remove(&p);
        for c in &mut self.policies {
            if let Some(allowed) = &mut c.allowed {
                allowed.remove(&p);
            }
        }
        self.table.set_pred(p, 0);
    }

    /// Recompute the reach of `seeds` and every blank node below them.
    /// No edge leaves that closed set, so every node outside keeps its
    /// reach; inside, the least fixpoint is seeded from the owners outside
    /// under the current labels. Returns the size of the set.
    fn rereach(&mut self, data: &Graph, seeds: Vec<TermId>) -> usize {
        let is_blank = |id: TermId| data.term_of(id).is_blank();
        let mut set: HashSet<TermId> = HashSet::new();
        let mut stack = seeds;
        while let Some(n) = stack.pop() {
            if set.insert(n) {
                data.for_each_match_ids(Some(n), None, None, |_, _, o| {
                    if is_blank(o) && !set.contains(&o) {
                        stack.push(o);
                    }
                });
            }
        }
        let mut reach: HashMap<TermId, VisBitset> = HashMap::new();
        for &n in &set {
            let mut bits = VisBitset::new(self.width());
            data.for_each_match_ids(None, None, Some(n), |s, p, _| {
                if !set.contains(&s) {
                    bits.union_with(self.table.bits(s, p));
                }
            });
            reach.insert(n, bits);
        }
        let mut work: Vec<TermId> = set
            .iter()
            .copied()
            .filter(|n| !reach[n].is_empty())
            .collect();
        while let Some(n) = work.pop() {
            let bits = reach[&n].clone();
            data.for_each_match_ids(Some(n), None, None, |_, _, o| {
                if let Some(r) = reach.get_mut(&o) {
                    if r.union_with(&bits) {
                        work.push(o);
                    }
                }
            });
        }
        for (n, bits) in reach {
            let class = self.intern_class(ClassKey::Reached(bits));
            self.table.set_subject(n, class);
        }
        set.len()
    }

    /// Number of role bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.roles.len()
    }

    /// The bit index of `role`, if it appears in the policy set or
    /// hierarchy.
    #[must_use]
    pub fn role_bit(&self, role: &str) -> Option<usize> {
        self.role_index.get(role).copied()
    }

    /// Resolve a role to its session authorization set. Effective
    /// (hierarchy-resolved, deny-overrides) evaluation is already folded
    /// into the role's own bit at compile time, so the set is a singleton;
    /// unknown roles get the empty set (see nothing).
    #[must_use]
    pub fn authorizations(&self, role: &str) -> VisBitset {
        let mut bits = VisBitset::new(self.width());
        if let Some(b) = self.role_bit(role) {
            bits.set(b);
        }
        bits
    }

    /// Authorization set for a principal holding several roles: the union
    /// of the per-role sets (a triple visible to any held role is
    /// visible).
    #[must_use]
    pub fn authorizations_for(&self, roles: &[&str]) -> VisBitset {
        let mut bits = VisBitset::new(self.width());
        for r in roles {
            if let Some(b) = self.role_bit(r) {
                bits.set(b);
            }
        }
        bits
    }

    /// The roles with any effective deny (own or inherited). Without
    /// inference such a deny cannot be evaluated safely — it may rely on
    /// an entailed type — so degraded serving masks these roles out.
    #[must_use]
    pub fn deny_bearing(&self) -> &VisBitset {
        &self.deny_bearing
    }

    /// Scan-time filter: the subgraph of `data` visible under `auths`.
    /// Proven equal to [`secure_view`] over the role's effective policy
    /// set by [`LabelIr::verify_label_equivalence`].
    #[must_use]
    pub fn filtered_view(&self, data: &Graph, auths: &VisBitset) -> Graph {
        let mask = self.table.mask(auths);
        let mut visible = Vec::new();
        data.for_each_match_ids(None, None, None, |s, p, o| {
            if mask.visible(s, p) {
                visible.push((s, p, o));
            }
        });
        let mut view = Graph::new();
        view.extend_triples(visible.into_iter().map(|(s, p, o)| {
            Triple::new(
                data.term_of(s).clone(),
                data.term_of(p).clone(),
                data.term_of(o).clone(),
            )
        }));
        view
    }

    /// The role's *effective* policy set: its own policies plus every
    /// transitive ancestor's, re-tagged to the role so the legacy
    /// evaluator applies them — the reference semantics the label table
    /// must reproduce.
    #[must_use]
    pub fn effective_policy_set(&self, policies: &PolicySet, role: &str) -> PolicySet {
        let anc = self.hierarchy.ancestors(role);
        PolicySet::new(
            policies
                .policies
                .iter()
                .filter(|p| p.role == role || anc.contains(&p.role))
                .map(|p| {
                    let mut p = p.clone();
                    p.role = role.to_string();
                    p
                })
                .collect(),
        )
    }

    /// Differential verifier: for every compiled role, prove
    /// label-filtered scanning ≡ the materialized secure view over the
    /// role's effective policy set. Returns one human-readable divergence
    /// description per mismatching triple (empty = equivalent).
    #[must_use]
    pub fn verify_label_equivalence(&self, data: &Graph, policies: &PolicySet) -> Vec<String> {
        let mut out = Vec::new();
        for role in &self.roles {
            let eff = self.effective_policy_set(policies, role);
            let (expected, _) = secure_view(data, &eff, role);
            let actual = self.filtered_view(data, &self.authorizations(role));
            let want: BTreeSet<Triple> = expected.iter().collect();
            let got: BTreeSet<Triple> = actual.iter().collect();
            for t in want.difference(&got) {
                out.push(format!(
                    "role {role}: label filter hides {t} (view shows it)"
                ));
            }
            for t in got.difference(&want) {
                out.push(format!(
                    "role {role}: label filter leaks {t} (view hides it)"
                ));
            }
        }
        out
    }

    /// Does any effective deny of `bit` match `subject` (by compiled match
    /// set, or — for subjects only present in derived graphs — by IRI
    /// equality or a type in the deny's designator cone)? Returns the
    /// matching deny policy ids.
    fn denies_matching(
        &self,
        bit: usize,
        sid: Option<TermId>,
        subject: &Term,
        types: &[Term],
    ) -> Vec<&CompiledPolicy> {
        self.effective[bit]
            .iter()
            .map(|&i| &self.policies[i])
            .filter(|c| c.action == Action::View && c.decision == Decision::Deny)
            .filter(|c| {
                if let Some(sid) = sid {
                    if c.matches.contains(&sid) {
                        return true;
                    }
                }
                subject.as_iri() == Some(c.resource.as_str())
                    || types.iter().any(|t| {
                        self.cones
                            .get(&c.resource)
                            .is_some_and(|cone| cone.contains(t))
                    })
            })
            .collect()
    }

    /// The public schema subgraph: what any adversary is assumed to know
    /// regardless of policy — ontology axioms (RDF/RDFS/OWL-namespace
    /// predicates) about non-instance subjects (classes, properties,
    /// restriction blanks). Instance data, including hidden helper
    /// subtrees, is excluded.
    fn schema_graph(&self, data: &Graph) -> Graph {
        let mut schema = Graph::new();
        let type_term = Term::iri(rdf::TYPE);
        for t in data.iter() {
            let Some(p) = t.predicate.as_iri() else {
                continue;
            };
            if !(p.starts_with(rdf::NS) || p.starts_with(rdfs::NS) || p.starts_with(owl::NS)) {
                continue;
            }
            let is_instance = data.objects(&t.subject, &type_term).iter().any(|ty| {
                ty.as_iri()
                    .is_some_and(|i| !i.starts_with(owl::NS) && !i.starts_with(rdfs::NS))
            });
            if !is_instance {
                schema.insert(t);
            }
        }
        schema
    }

    /// Run every whole-policy-set static pass (S007–S010) over the
    /// compiled IR. `data` must be the graph the IR was compiled from.
    #[must_use]
    pub fn static_diagnostics(&self, data: &Graph, policies: &PolicySet) -> Vec<Diagnostic> {
        let mut out = self.unreachable_policies(data, policies);
        out.extend(self.contradictory_overlaps(data, policies));
        out.extend(self.entailment_leaks(data));
        out.extend(self.non_monotonic_authorizations(data));
        out
    }

    /// S007: policies whose removal changes no role's compiled
    /// visibility. Policies already implicated in a pairwise conflict
    /// (S001/S003/S004) are skipped — those findings explain the dead rule
    /// better.
    fn unreachable_policies(&self, data: &Graph, policies: &PolicySet) -> Vec<Diagnostic> {
        let mut in_pairwise: HashSet<String> = HashSet::new();
        for c in crate::conflicts::detect_conflicts(data, policies) {
            match c {
                crate::conflicts::PolicyConflict::PermitDenyOverlap { permit, deny, .. } => {
                    in_pairwise.insert(permit);
                    in_pairwise.insert(deny);
                }
                crate::conflicts::PolicyConflict::ShadowedRestriction {
                    broad, restricted, ..
                } => {
                    in_pairwise.insert(broad);
                    in_pairwise.insert(restricted);
                }
                crate::conflicts::PolicyConflict::DuplicateId { id } => {
                    in_pairwise.insert(id);
                }
            }
        }
        let mut out = Vec::new();
        for c in &self.policies {
            if c.action != Action::View || in_pairwise.contains(&c.id) {
                continue;
            }
            let matched: Vec<TermId> = c
                .matches
                .iter()
                .copied()
                .filter(|s| self.instance_subjects.contains(s))
                .collect();
            if matched.is_empty() {
                continue; // S002's territory: the designator matches nothing.
            }
            // Roles whose effective set contains this policy.
            let affected: Vec<usize> = (0..self.width())
                .filter(|&b| self.effective[b].contains(&c.index))
                .collect();
            // A deny with no permit anywhere on its territory is merely
            // redundant with deny-by-default — defensive, not dead (and
            // the S009 leak pass needs such denies to state intent).
            if c.decision == Decision::Deny {
                let any_permit = affected.iter().any(|&b| {
                    self.effective[b].iter().any(|&i| {
                        let p = &self.policies[i];
                        p.action == Action::View
                            && p.decision == Decision::Permit
                            && matched.iter().any(|sid| p.matches.contains(sid))
                    })
                });
                if !any_permit {
                    continue;
                }
            }
            let mut changes_something = false;
            'roles: for &b in &affected {
                for &sid in &matched {
                    let designates = |i: usize| self.policies[i].matches.contains(&sid);
                    let with = self.role_grant(b, designates, None);
                    let without = self.role_grant(b, designates, Some(c.index));
                    let mut differs = false;
                    data.for_each_match_ids(Some(sid), None, None, |_, p, _| {
                        let pred = &self.pred_keys[self.table.pred_class(p) as usize];
                        differs |= with.shows(pred) != without.shows(pred);
                    });
                    if differs {
                        changes_something = true;
                        break 'roles;
                    }
                }
            }
            if !changes_something {
                out.push(
                    Diagnostic::new(
                        LintCode::UnreachablePolicy,
                        Term::iri(&c.id),
                        format!(
                            "removing this {} for role {} changes no compiled visibility: \
                             the rest of the policy set already decides every triple it touches",
                            decision_word(c.decision),
                            c.role
                        ),
                    )
                    .with_related(vec![Term::iri(&c.role)])
                    .with_suggestion("delete the policy, or narrow the policies that shadow it"),
                );
            }
        }
        out
    }

    /// S008: effective Permit/Deny collisions on a concrete subject that
    /// the pairwise designator check (S001) cannot see.
    fn contradictory_overlaps(&self, data: &Graph, policies: &PolicySet) -> Vec<Diagnostic> {
        let idx = DesignatorIndex::new(data, policies);
        // (permit id, deny id, role) → best witness subject.
        let mut hits: BTreeMap<(String, String, String), Term> = BTreeMap::new();
        for (b, role) in self.roles.iter().enumerate() {
            for &sid in &self.instance_subjects {
                let eff: Vec<&CompiledPolicy> = self.effective[b]
                    .iter()
                    .map(|&i| &self.policies[i])
                    .filter(|c| c.matches.contains(&sid))
                    .collect();
                for p in eff.iter().filter(|c| c.decision == Decision::Permit) {
                    for d in eff.iter().filter(|c| c.decision == Decision::Deny) {
                        if p.action != d.action {
                            continue;
                        }
                        // The pairwise pass already reports same-role
                        // designator overlaps as S001.
                        if p.role == d.role && idx.overlap(&p.resource, &d.resource) {
                            continue;
                        }
                        let key = (p.id.clone(), d.id.clone(), role.clone());
                        let subject = data.term_of(sid).clone();
                        let best = hits.entry(key).or_insert_with(|| subject.clone());
                        if subject < *best {
                            *best = subject;
                        }
                    }
                }
            }
        }
        hits.into_iter()
            .map(|((permit, deny, role), witness)| {
                Diagnostic::new(
                    LintCode::ContradictoryOverlap,
                    Term::iri(&permit),
                    format!(
                        "role {role}: effective permit contradicts deny {deny} on {witness} \
                         (invisible to the pairwise designator check)"
                    ),
                )
                .with_related(vec![Term::iri(&deny), Term::iri(&role), witness])
                .with_suggestion(
                    "split the designators so the collision is explicit, or drop one rule",
                )
            })
            .collect()
    }

    /// S009: for every deny-bearing role, materialize its permitted view
    /// plus the public schema with the OWL-Horst reasoner and flag derived
    /// triples about subjects the role is explicitly denied.
    pub fn entailment_leaks(&self, data: &Graph) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let type_term = Term::iri(rdf::TYPE);
        let schema = self.schema_graph(data);
        for (b, role) in self.roles.iter().enumerate() {
            let has_deny = self.effective[b].iter().any(|&i| {
                let c = &self.policies[i];
                c.action == Action::View && c.decision == Decision::Deny
            });
            if !has_deny {
                continue;
            }
            let auths = self.authorizations(role);
            let mut adversary = self.filtered_view(data, &auths);
            let baseline: HashSet<Triple> = adversary.iter().chain(schema.iter()).collect();
            adversary.extend_from(&schema);
            Reasoner::default().materialize(&mut adversary);
            // deny policy id → sorted witness triples.
            let mut leaks: BTreeMap<String, BTreeSet<Triple>> = BTreeMap::new();
            for t in adversary.iter() {
                if baseline.contains(&t) {
                    continue;
                }
                // Already visible in the full graph's labels? Not hidden.
                if let (Some(s), Some(p), Some(o)) = (
                    data.term_id(&t.subject),
                    data.term_id(&t.predicate),
                    data.term_id(&t.object),
                ) {
                    if data.has_ids(s, p, o) && self.table.visible(s, p, &auths) {
                        continue;
                    }
                }
                let sid = data.term_id(&t.subject);
                let types = adversary.objects(&t.subject, &type_term);
                for d in self.denies_matching(b, sid, &t.subject, &types) {
                    leaks.entry(d.id.clone()).or_default().insert(t.clone());
                }
            }
            for (deny, witnesses) in leaks {
                let first = witnesses.iter().next().expect("non-empty");
                out.push(
                    Diagnostic::new(
                        LintCode::EntailmentLeak,
                        Term::iri(&deny),
                        format!(
                            "role {role}: permitted view OWL-Horst-entails {} denied triple(s) \
                             about subjects this deny protects, e.g. {first}",
                            witnesses.len()
                        ),
                    )
                    .with_related(vec![Term::iri(role), first.subject.clone()])
                    .with_suggestion(
                        "deny the entailing properties too, or widen the deny to cover the \
                         premises the reasoner combines",
                    ),
                );
            }
        }
        out
    }

    /// S010: `sec:subRoleOf` edges where the sub-role's effective view
    /// loses triples the super-role can see.
    fn non_monotonic_authorizations(&self, data: &Graph) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (sub, sup) in self.hierarchy.edges() {
            let (Some(sub_bit), Some(sup_bit)) = (self.role_bit(&sub), self.role_bit(&sup)) else {
                continue;
            };
            let mut lost = 0usize;
            data.for_each_match_ids(None, None, None, |s, p, _| {
                let bits = self.table.bits(s, p);
                if bits.get(sup_bit) && !bits.get(sub_bit) {
                    lost += 1;
                }
            });
            if lost > 0 {
                out.push(
                    Diagnostic::new(
                        LintCode::NonMonotonicAuthorization,
                        Term::iri(&sub),
                        format!(
                            "sub-role loses {lost} triple(s) its super-role {sup} can see: \
                             an explicit deny cuts inherited visibility"
                        ),
                    )
                    .with_related(vec![Term::iri(&sup)])
                    .with_suggestion(
                        "if the deny is intentional, detach the role from the hierarchy; \
                         otherwise drop the deny",
                    ),
                );
            }
        }
        out
    }

    /// Explain why `(subject, predicate, object)` is visible, hidden, or
    /// leaked for `role` — the engine behind `grdf-cli labels explain`.
    #[must_use]
    pub fn explain(&self, data: &Graph, role: &str, triple: &Triple) -> Explanation {
        let mut notes = Vec::new();
        let ids = (
            data.term_id(&triple.subject),
            data.term_id(&triple.predicate),
            data.term_id(&triple.object),
        );
        let in_graph = match ids {
            (Some(s), Some(p), Some(o)) => data.has_ids(s, p, o),
            _ => false,
        };
        // Only a triple of the graph carries its subject's label.
        let bits = match ids {
            (Some(s), Some(p), Some(_)) if in_graph => Some(self.table.bits(s, p)),
            _ => None,
        };
        let viewers: Vec<String> = bits
            .map(|bits| {
                bits.iter_ones()
                    .into_iter()
                    .filter_map(|b| self.roles.get(b).cloned())
                    .collect()
            })
            .unwrap_or_default();
        let bit = self.role_bit(role);
        let visible = match (bit, bits) {
            (Some(b), Some(bits)) => bits.get(b),
            _ => false,
        };

        if let Some(b) = bit {
            let sid = ids.0;
            for &i in &self.effective[b] {
                let c = &self.policies[i];
                if c.action != Action::View {
                    continue;
                }
                let matched = sid.is_some_and(|s| c.matches.contains(&s));
                let inherited = if c.role == role {
                    String::new()
                } else {
                    format!(" (inherited from {})", c.role)
                };
                if !matched {
                    notes.push(format!(
                        "{} {}{} on {}: subject not designated",
                        decision_word(c.decision),
                        c.id,
                        inherited,
                        c.resource
                    ));
                    continue;
                }
                let pred_note = match (&c.decision, &c.allowed, ids.1) {
                    (Decision::Deny, _, _) => "matches subject: hides everything".to_string(),
                    (Decision::Permit, None, _) => {
                        "matches subject, unconditional: predicate allowed".to_string()
                    }
                    (Decision::Permit, Some(preds), Some(pid)) => {
                        if Some(pid) == self.type_id || preds.contains(&pid) {
                            "matches subject: predicate allowed by conditions".to_string()
                        } else {
                            "matches subject but conditions exclude this predicate".to_string()
                        }
                    }
                    (Decision::Permit, Some(_), None) => {
                        "matches subject; predicate unknown to the graph".to_string()
                    }
                };
                notes.push(format!(
                    "{} {}{}: {}",
                    decision_word(c.decision),
                    c.id,
                    inherited,
                    pred_note
                ));
            }
        } else {
            notes.push(format!("role {role} has no policies and no hierarchy edge"));
        }

        let verdict = if visible {
            format!("VISIBLE to {role}")
        } else if bit.is_none() {
            "HIDDEN: unknown role (deny-by-default)".to_string()
        } else if !in_graph {
            "HIDDEN: triple not in the graph".to_string()
        } else if ids.0.is_some_and(|s| !self.instance_subjects.contains(&s)) && !viewers.is_empty()
        {
            "HIDDEN: blank-subtree triple not reachable from this role's grants".to_string()
        } else if ids.0.is_some_and(|s| !self.instance_subjects.contains(&s)) {
            "HIDDEN: subject is not an instance (schema or helper node)".to_string()
        } else {
            "HIDDEN: denied or deny-by-default (see policy notes)".to_string()
        };

        // Leak probe: can the role derive the hidden triple anyway?
        let mut leak = None;
        if let Some(b) = bit.filter(|_| !visible) {
            let mut adversary = self.filtered_view(data, &self.authorizations(role));
            adversary.extend_from(&self.schema_graph(data));
            let before = adversary.contains(triple);
            Reasoner::default().materialize(&mut adversary);
            if !before && adversary.contains(triple) {
                let types = adversary.objects(&triple.subject, &Term::iri(rdf::TYPE));
                let denies = self.denies_matching(b, ids.0, &triple.subject, &types);
                leak = Some(if denies.is_empty() {
                    "LEAKED: derivable from the permitted view via OWL-Horst \
                     (not explicitly denied — tighten S002/S006 coverage)"
                        .to_string()
                } else {
                    format!(
                        "LEAKED: derivable from the permitted view via OWL-Horst although \
                         explicitly denied by {}",
                        denies
                            .iter()
                            .map(|d| d.id.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                });
            }
        }

        Explanation {
            role: role.to_string(),
            triple: triple.clone(),
            in_graph,
            visible,
            viewers,
            notes,
            verdict,
            leak,
        }
    }
}

fn decision_word(d: Decision) -> &'static str {
    match d {
        Decision::Permit => "permit",
        Decision::Deny => "deny",
    }
}

/// The structured answer of [`LabelIr::explain`].
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The role asked about.
    pub role: String,
    /// The triple asked about.
    pub triple: Triple,
    /// Whether the triple exists in the graph.
    pub in_graph: bool,
    /// Whether the role's authorization bit is set on the triple's label.
    pub visible: bool,
    /// Every role that can see the triple.
    pub viewers: Vec<String>,
    /// Per-policy account of the effective set.
    pub notes: Vec<String>,
    /// One-line outcome.
    pub verdict: String,
    /// Set when the triple is hidden but derivable from the role's
    /// permitted view (the S009 condition, per-triple).
    pub leak: Option<String>,
}

impl Explanation {
    /// Multi-line human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "triple:  {}", self.triple);
        let _ = writeln!(
            out,
            "         {}",
            if self.in_graph {
                "present in graph"
            } else {
                "NOT present in graph"
            }
        );
        let _ = writeln!(out, "role:    {}", self.role);
        if self.viewers.is_empty() {
            let _ = writeln!(out, "label:   (unlabeled: hidden from every role)");
        } else {
            let _ = writeln!(out, "label:   visible to {}", self.viewers.join(", "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "policy:  {n}");
        }
        let _ = writeln!(out, "verdict: {}", self.verdict);
        if let Some(l) = &self.leak {
            let _ = writeln!(out, "leak:    {l}");
        }
        out
    }
}

/// Compile the IR and run every whole-policy-set pass (S007–S010) — the
/// entry point `grdf-lint`'s policy pass and the G-SACS gate call.
#[must_use]
pub fn diagnostics(data: &Graph, policies: &PolicySet) -> Vec<Diagnostic> {
    if policies.policies.is_empty() {
        return Vec::new();
    }
    let ir = LabelIr::compile(data, policies);
    ir.static_diagnostics(data, policies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use grdf_rdf::vocab::grdf;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    fn t(s: &Term, p: &str, o: &Term) -> Triple {
        Triple::new(s.clone(), iri(p), o.clone())
    }

    /// §7.1-style data: a chemical site with name/code/extent and a
    /// stream, plus class declarations.
    fn incident_data() -> Graph {
        let mut g = Graph::new();
        for c in ["ChemSite", "Stream"] {
            g.add(
                iri(&grdf::app(c)),
                iri(rdf::TYPE),
                iri(grdf_rdf::vocab::owl::CLASS),
            );
        }
        let site = iri(&grdf::app("NTEnergy"));
        g.add(site.clone(), iri(rdf::TYPE), iri(&grdf::app("ChemSite")));
        g.add(
            site.clone(),
            iri(&grdf::app("hasSiteName")),
            Term::string("NT Energy"),
        );
        g.add(
            site.clone(),
            iri(&grdf::app("hasChemCode")),
            Term::string("121NR"),
        );
        g.add(
            site,
            iri(&grdf::iri("isBoundedBy")),
            Term::string("0,0 10,10"),
        );
        let stream = iri(&grdf::app("WhiteRock"));
        g.add(stream.clone(), iri(rdf::TYPE), iri(&grdf::app("Stream")));
        g.add(
            stream,
            iri(&grdf::app("hasObjectID")),
            Term::string("11070"),
        );
        g
    }

    fn main_rep_policies() -> PolicySet {
        PolicySet::new(vec![
            Policy::permit_properties(
                &grdf::sec("MainRepPolicy1"),
                &grdf::sec("MainRep"),
                &grdf::app("ChemSite"),
                &[&grdf::iri("isBoundedBy")],
            ),
            Policy::permit(
                &grdf::sec("MainRepPolicy2"),
                &grdf::sec("MainRep"),
                &grdf::app("Stream"),
            ),
        ])
    }

    #[test]
    fn compiled_labels_match_secure_views() {
        let data = incident_data();
        let ps = main_rep_policies();
        let ir = LabelIr::compile(&data, &ps);
        assert!(ir.verify_label_equivalence(&data, &ps).is_empty());
        // Spot checks: extent visible, chemistry hidden.
        let auth = ir.authorizations(&grdf::sec("MainRep"));
        let view = ir.filtered_view(&data, &auth);
        let site = iri(&grdf::app("NTEnergy"));
        assert!(view.contains(&t(
            &site,
            &grdf::iri("isBoundedBy"),
            &Term::string("0,0 10,10")
        )));
        assert!(!view.contains(&t(&site, &grdf::app("hasChemCode"), &Term::string("121NR"))));
        assert!(view.contains(&t(&site, rdf::TYPE, &iri(&grdf::app("ChemSite")))));
    }

    #[test]
    fn unknown_role_has_empty_authorizations() {
        let data = incident_data();
        let ir = LabelIr::compile(&data, &main_rep_policies());
        let auth = ir.authorizations("urn:nobody");
        assert!(auth.is_empty());
        assert_eq!(ir.filtered_view(&data, &auth).len(), 0);
    }

    #[test]
    fn multi_role_authorizations_union() {
        let data = incident_data();
        let mut ps = main_rep_policies();
        ps.push(Policy::permit(
            &grdf::sec("HazPolicy"),
            &grdf::sec("Hazmat"),
            &grdf::app("ChemSite"),
        ));
        let ir = LabelIr::compile(&data, &ps);
        let both = ir.authorizations_for(&[&grdf::sec("MainRep"), &grdf::sec("Hazmat")]);
        let view = ir.filtered_view(&data, &both);
        let site = iri(&grdf::app("NTEnergy"));
        // Hazmat's unconditional grant exposes the chem code; MainRep adds
        // the stream.
        assert!(view.contains(&t(&site, &grdf::app("hasChemCode"), &Term::string("121NR"))));
        assert!(view.contains(&t(
            &iri(&grdf::app("WhiteRock")),
            &grdf::app("hasObjectID"),
            &Term::string("11070")
        )));
    }

    #[test]
    fn sub_role_inherits_and_deny_overrides() {
        let mut data = incident_data();
        let mut rh = RoleHierarchy::new();
        rh.add(&grdf::sec("Intern"), &grdf::sec("MainRep"));
        rh.encode(&mut data);
        let mut ps = main_rep_policies();
        ps.push(Policy::deny(
            &grdf::sec("InternDeny"),
            &grdf::sec("Intern"),
            &grdf::app("ChemSite"),
        ));
        let ir = LabelIr::compile(&data, &ps);
        // The differential verifier holds with hierarchy in play.
        assert!(ir.verify_label_equivalence(&data, &ps).is_empty());
        let intern = ir.filtered_view(&data, &ir.authorizations(&grdf::sec("Intern")));
        let site = iri(&grdf::app("NTEnergy"));
        // Inherited stream permit works; own deny cuts the site.
        assert!(intern.contains(&t(
            &iri(&grdf::app("WhiteRock")),
            &grdf::app("hasObjectID"),
            &Term::string("11070")
        )));
        assert!(!intern.contains(&t(
            &site,
            &grdf::iri("isBoundedBy"),
            &Term::string("0,0 10,10")
        )));
        // And S010 flags the lost visibility.
        let diags = ir.static_diagnostics(&data, &ps);
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::NonMonotonicAuthorization),
            "{diags:?}"
        );
    }

    #[test]
    fn s007_flags_duplicate_permits() {
        let data = incident_data();
        let ps = PolicySet::new(vec![
            Policy::permit("urn:a", &grdf::sec("R"), &grdf::app("Stream")),
            Policy::permit("urn:b", &grdf::sec("R"), &grdf::app("Stream")),
        ]);
        let diags = diagnostics(&data, &ps);
        let s007: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::UnreachablePolicy)
            .collect();
        assert_eq!(
            s007.len(),
            2,
            "both duplicates are individually dead: {diags:?}"
        );
    }

    #[test]
    fn s007_silent_on_distinct_grants() {
        let data = incident_data();
        let diags = diagnostics(&data, &main_rep_policies());
        assert!(
            !diags.iter().any(|d| d.code == LintCode::UnreachablePolicy),
            "{diags:?}"
        );
    }

    #[test]
    fn s008_fires_on_multi_typed_individual() {
        let mut data = incident_data();
        // x is both a Stream and a ChemSite; permit Stream + deny ChemSite
        // for one role never designator-overlap (unrelated classes), but
        // collide on x.
        let x = iri(&grdf::app("Mixed"));
        data.add(x.clone(), iri(rdf::TYPE), iri(&grdf::app("Stream")));
        data.add(x.clone(), iri(rdf::TYPE), iri(&grdf::app("ChemSite")));
        data.add(x, iri(&grdf::app("hasObjectID")), Term::string("7"));
        let ps = PolicySet::new(vec![
            Policy::permit("urn:permitStream", &grdf::sec("R"), &grdf::app("Stream")),
            Policy::deny("urn:denyChem", &grdf::sec("R"), &grdf::app("ChemSite")),
        ]);
        let diags = diagnostics(&data, &ps);
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::ContradictoryOverlap),
            "{diags:?}"
        );
        // The labels still resolve deny-overrides correctly.
        let ir = LabelIr::compile(&data, &ps);
        assert!(ir.verify_label_equivalence(&data, &ps).is_empty());
    }

    #[test]
    fn s009_catches_range_entailment_leak() {
        let mut data = incident_data();
        // feeds has range ChemSite; the stream feeds NTEnergy. A role
        // permitted the stream derives NTEnergy's type though ChemSite is
        // denied.
        data.add(
            iri(&grdf::app("feeds")),
            iri(rdfs::RANGE),
            iri(&grdf::app("ChemSite")),
        );
        data.add(
            iri(&grdf::app("WhiteRock")),
            iri(&grdf::app("feeds")),
            iri(&grdf::app("NTEnergy")),
        );
        let ps = PolicySet::new(vec![
            Policy::permit("urn:permitStream", &grdf::sec("R"), &grdf::app("Stream")),
            Policy::deny("urn:denyChem", &grdf::sec("R"), &grdf::app("ChemSite")),
        ]);
        let diags = diagnostics(&data, &ps);
        let leaks: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::EntailmentLeak)
            .collect();
        assert_eq!(leaks.len(), 1, "{diags:?}");
        assert_eq!(leaks[0].subject, iri("urn:denyChem"));
        // explain() reports the same leak for the derived type triple.
        let ir = LabelIr::compile(&data, &ps);
        let ex = ir.explain(
            &data,
            &grdf::sec("R"),
            &t(
                &iri(&grdf::app("NTEnergy")),
                rdf::TYPE,
                &iri(&grdf::app("ChemSite")),
            ),
        );
        assert!(!ex.visible);
        assert!(
            ex.leak.as_deref().is_some_and(|l| l.contains("denyChem")),
            "{ex:?}"
        );
    }

    #[test]
    fn s009_silent_without_denies() {
        let data = incident_data();
        let diags = diagnostics(&data, &main_rep_policies());
        assert!(
            !diags.iter().any(|d| d.code == LintCode::EntailmentLeak),
            "{diags:?}"
        );
    }

    #[test]
    fn explain_renders_visible_and_hidden() {
        let data = incident_data();
        let ir = LabelIr::compile(&data, &main_rep_policies());
        let site = iri(&grdf::app("NTEnergy"));
        let vis = ir.explain(
            &data,
            &grdf::sec("MainRep"),
            &t(&site, &grdf::iri("isBoundedBy"), &Term::string("0,0 10,10")),
        );
        assert!(vis.visible);
        assert!(vis.render().contains("VISIBLE"));
        let hid = ir.explain(
            &data,
            &grdf::sec("MainRep"),
            &t(&site, &grdf::app("hasChemCode"), &Term::string("121NR")),
        );
        assert!(!hid.visible);
        assert!(hid.render().contains("HIDDEN"), "{}", hid.render());
        assert!(
            hid.notes.iter().any(|n| n.contains("conditions exclude")),
            "{:?}",
            hid.notes
        );
    }

    #[test]
    fn designator_index_matches_legacy_overlap() {
        let mut data = Graph::new();
        data.add(
            iri(&grdf::app("Refinery")),
            iri(rdfs::SUB_CLASS_OF),
            iri(&grdf::app("ChemSite")),
        );
        data.add(
            iri(&grdf::app("plant1")),
            iri(rdf::TYPE),
            iri(&grdf::app("Refinery")),
        );
        let ps = PolicySet::new(vec![
            Policy::permit("urn:p1", "urn:r", &grdf::app("ChemSite")),
            Policy::deny("urn:p2", "urn:r", &grdf::app("Refinery")),
            Policy::deny("urn:p3", "urn:r", &grdf::app("plant1")),
            Policy::deny("urn:p4", "urn:r", &grdf::app("Stream")),
        ]);
        let idx = DesignatorIndex::new(&data, &ps);
        assert!(idx.overlap(&grdf::app("ChemSite"), &grdf::app("ChemSite")));
        assert!(idx.overlap(&grdf::app("Refinery"), &grdf::app("ChemSite")));
        assert!(idx.overlap(&grdf::app("ChemSite"), &grdf::app("Refinery")));
        assert!(idx.overlap(&grdf::app("plant1"), &grdf::app("ChemSite")));
        assert!(!idx.overlap(&grdf::app("Stream"), &grdf::app("ChemSite")));
    }

    #[test]
    fn role_hierarchy_roundtrip_and_cycles() {
        let mut rh = RoleHierarchy::new();
        rh.add("urn:a", "urn:b");
        rh.add("urn:b", "urn:c");
        rh.add("urn:c", "urn:a"); // cycle
        let mut g = Graph::new();
        rh.encode(&mut g);
        assert_eq!(RoleHierarchy::decode(&g), rh);
        let anc = rh.ancestors("urn:a");
        assert!(anc.contains("urn:b") && anc.contains("urn:c"));
        assert!(!anc.contains("urn:a"), "self excluded even in a cycle");
    }
}
