//! Policies: native structures, the List 8 RDF encoding, and the
//! semantics-aware evaluator.

use grdf_obs::TraceId;
use grdf_owl::hierarchy::Hierarchy;
use grdf_rdf::graph::Graph;
use grdf_rdf::term::Term;
use grdf_rdf::vocab::{grdf, rdf, rdfs};

/// The action a policy governs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Read access.
    View,
    /// Modification.
    Edit,
    /// Removal.
    Delete,
}

impl Action {
    /// IRI of the action individual.
    pub fn iri(self) -> String {
        grdf::sec(match self {
            Action::View => "View",
            Action::Edit => "Edit",
            Action::Delete => "Delete",
        })
    }

    fn from_iri(iri: &str) -> Option<Action> {
        match iri.strip_prefix(grdf::SEC_NS)? {
            "View" => Some(Action::View),
            "Edit" => Some(Action::Edit),
            "Delete" => Some(Action::Delete),
            _ => None,
        }
    }
}

/// The effect of a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Access granted.
    Permit,
    /// Access refused.
    Deny,
}

impl Decision {
    /// IRI of the decision individual.
    pub fn iri(self) -> String {
        grdf::sec(match self {
            Decision::Permit => "Permit",
            Decision::Deny => "Deny",
        })
    }

    fn from_iri(iri: &str) -> Option<Decision> {
        match iri.strip_prefix(grdf::SEC_NS)? {
            "Permit" => Some(Decision::Permit),
            "Deny" => Some(Decision::Deny),
            _ => None,
        }
    }
}

/// A condition restricting what a Permit exposes — the paper's List 8
/// `ConditionValue` with `hasPropertyAccess`: "only the geographic extent
/// of the sites would be viewable to this group".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// Only the listed property IRIs are accessible; every other property
    /// of the resource is suppressed. Property matching is semantics-aware:
    /// a listed property also grants its `rdfs:subPropertyOf` descendants.
    PropertyAccess(Vec<String>),
}

/// One policy: a role's conditional grant over a resource class or
/// instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// Policy IRI.
    pub id: String,
    /// The role (subject) IRI it applies to.
    pub role: String,
    /// Governed action.
    pub action: Action,
    /// Permit or Deny.
    pub decision: Decision,
    /// The protected resource: a class IRI (covers all members, including
    /// inferred ones) or an instance IRI.
    pub resource: String,
    /// Conditions (conjunctive).
    pub conditions: Vec<Condition>,
}

impl Policy {
    /// An unconditional permit for a role over a resource class.
    pub fn permit(id: &str, role: &str, resource: &str) -> Policy {
        Policy {
            id: id.to_string(),
            role: role.to_string(),
            action: Action::View,
            decision: Decision::Permit,
            resource: resource.to_string(),
            conditions: Vec::new(),
        }
    }

    /// A permit restricted to the given properties (fine-grained grant).
    pub fn permit_properties(id: &str, role: &str, resource: &str, props: &[&str]) -> Policy {
        Policy {
            conditions: vec![Condition::PropertyAccess(
                props.iter().map(std::string::ToString::to_string).collect(),
            )],
            ..Policy::permit(id, role, resource)
        }
    }

    /// An explicit deny.
    pub fn deny(id: &str, role: &str, resource: &str) -> Policy {
        Policy {
            decision: Decision::Deny,
            ..Policy::permit(id, role, resource)
        }
    }

    /// Encode this policy into `graph` in the List 8 shape.
    pub fn encode(&self, graph: &mut Graph) {
        let subject = Term::iri(&self.role);
        let policy = Term::iri(&self.id);
        graph.add(
            subject.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(&grdf::sec("Subject")),
        );
        graph.add(subject, Term::iri(&grdf::sec("hasPolicy")), policy.clone());
        graph.add(
            policy.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(&grdf::sec("Policy")),
        );
        graph.add(
            policy.clone(),
            Term::iri(&grdf::sec("hasAction")),
            Term::iri(&self.action.iri()),
        );
        graph.add(
            policy.clone(),
            Term::iri(&grdf::sec("hasPolicyDecision")),
            Term::iri(&self.decision.iri()),
        );
        graph.add(
            policy.clone(),
            Term::iri(&grdf::sec("hasResource")),
            Term::iri(&self.resource),
        );
        for (i, cond) in self.conditions.iter().enumerate() {
            let cnode = Term::iri(&format!("{}/cond{}", self.id, i));
            graph.add(
                policy.clone(),
                Term::iri(&grdf::sec("hasCondition")),
                cnode.clone(),
            );
            graph.add(
                cnode.clone(),
                Term::iri(rdf::TYPE),
                Term::iri(&grdf::sec("ConditionValue")),
            );
            match cond {
                Condition::PropertyAccess(props) => {
                    let def = Term::iri(&format!("{}/cond{}/def", self.id, i));
                    graph.add(
                        cnode,
                        Term::iri(&grdf::sec("condValDefinition")),
                        def.clone(),
                    );
                    for p in props {
                        graph.add(
                            def.clone(),
                            Term::iri(&grdf::sec("hasPropertyAccess")),
                            Term::iri(p),
                        );
                    }
                }
            }
        }
    }

    /// Decode every policy found in `graph`.
    pub fn decode_all(graph: &Graph) -> Vec<Policy> {
        let mut out = Vec::new();
        for t in graph.match_pattern(None, Some(&Term::iri(&grdf::sec("hasPolicy"))), None) {
            let (Some(role), Some(policy_iri)) = (t.subject.as_iri(), t.object.as_iri()) else {
                continue;
            };
            let pnode = t.object.clone();
            let action = graph
                .object(&pnode, &Term::iri(&grdf::sec("hasAction")))
                .and_then(|a| a.as_iri().and_then(Action::from_iri))
                .unwrap_or(Action::View);
            let decision = graph
                .object(&pnode, &Term::iri(&grdf::sec("hasPolicyDecision")))
                .and_then(|d| d.as_iri().and_then(Decision::from_iri))
                .unwrap_or(Decision::Deny);
            let Some(resource) = graph
                .object(&pnode, &Term::iri(&grdf::sec("hasResource")))
                .and_then(|r| r.as_iri().map(str::to_string))
            else {
                continue;
            };
            let mut conditions = Vec::new();
            for cnode in graph.objects(&pnode, &Term::iri(&grdf::sec("hasCondition"))) {
                for def in graph.objects(&cnode, &Term::iri(&grdf::sec("condValDefinition"))) {
                    let props: Vec<String> = graph
                        .objects(&def, &Term::iri(&grdf::sec("hasPropertyAccess")))
                        .into_iter()
                        .filter_map(|p| p.as_iri().map(str::to_string))
                        .collect();
                    if !props.is_empty() {
                        conditions.push(Condition::PropertyAccess(props));
                    }
                }
            }
            out.push(Policy {
                id: policy_iri.to_string(),
                role: role.to_string(),
                action,
                decision,
                resource,
                conditions,
            });
        }
        out
    }
}

/// What the evaluator concluded for a `(role, resource, property)` probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The triple/property may be shown.
    Granted,
    /// Suppressed by a property condition or an explicit deny.
    Denied,
    /// No applicable policy — treated as deny-by-default.
    NotApplicable,
}

/// A set of policies with the semantics-aware evaluator.
#[derive(Debug, Clone, Default)]
pub struct PolicySet {
    /// The policies.
    pub policies: Vec<Policy>,
}

impl PolicySet {
    /// Build from policies.
    pub fn new(policies: Vec<Policy>) -> PolicySet {
        PolicySet { policies }
    }

    /// Add a policy.
    pub fn push(&mut self, p: Policy) {
        self.policies.push(p);
    }

    /// Policies applying to `role`.
    pub fn for_role(&self, role: &str) -> Vec<&Policy> {
        self.policies.iter().filter(|p| p.role == role).collect()
    }

    /// Evaluate access for `role` to `property` of the individual
    /// `resource` within `data` (which supplies types and the class
    /// hierarchy — run the reasoner over `data` first for full semantics-
    /// aware matching).
    ///
    /// Resolution: explicit Deny wins, then a Permit whose conditions allow
    /// the property, then deny-by-default.
    pub fn evaluate(
        &self,
        data: &Graph,
        role: &str,
        resource: &Term,
        property: &str,
        action: Action,
    ) -> Access {
        let h = Hierarchy::new(data);
        let types = data.objects(resource, &Term::iri(rdf::TYPE));
        let mut permitted = false;
        let mut applicable = false;
        for p in self.for_role(role) {
            if p.action != action {
                continue;
            }
            if !Self::resource_matches(&h, p, resource, &types) {
                continue;
            }
            applicable = true;
            match p.decision {
                Decision::Deny => return Access::Denied,
                Decision::Permit => {
                    if Self::conditions_allow(data, p, property) {
                        permitted = true;
                    }
                }
            }
        }
        if permitted {
            Access::Granted
        } else if applicable {
            Access::Denied
        } else {
            Access::NotApplicable
        }
    }

    /// Like [`PolicySet::evaluate`], but also reports *which* policies
    /// applied and how — the raw material of a [`DecisionTrace`]. The
    /// decision logic is identical (deny-wins, permit-with-conditions,
    /// deny-by-default); only the bookkeeping differs, so the plain
    /// evaluator stays allocation-free on the view-build hot path.
    pub fn evaluate_explained(
        &self,
        data: &Graph,
        role: &str,
        resource: &Term,
        property: &str,
        action: Action,
    ) -> (Access, Vec<PolicyMatch>) {
        let h = Hierarchy::new(data);
        let types = data.objects(resource, &Term::iri(rdf::TYPE));
        let mut matches = Vec::new();
        let mut permitted = false;
        let mut applicable = false;
        for p in self.for_role(role) {
            if p.action != action {
                continue;
            }
            let Some(inference) = Self::resource_match_basis(&h, p, resource, &types) else {
                continue;
            };
            applicable = true;
            match p.decision {
                Decision::Deny => {
                    matches.push(PolicyMatch {
                        policy: p.id.clone(),
                        decision: Decision::Deny,
                        allowed: false,
                        inference,
                    });
                    return (Access::Denied, matches);
                }
                Decision::Permit => {
                    let allowed = Self::conditions_allow(data, p, property);
                    permitted |= allowed;
                    matches.push(PolicyMatch {
                        policy: p.id.clone(),
                        decision: Decision::Permit,
                        allowed,
                        inference,
                    });
                }
            }
        }
        let access = if permitted {
            Access::Granted
        } else if applicable {
            Access::Denied
        } else {
            Access::NotApplicable
        };
        (access, matches)
    }

    /// Does the policy's resource designate this individual? Either the
    /// instance itself, or a class the individual belongs to — directly or
    /// via the subclass hierarchy (semantics-aware matching).
    fn resource_matches(h: &Hierarchy<'_>, p: &Policy, resource: &Term, types: &[Term]) -> bool {
        if resource.as_iri() == Some(p.resource.as_str()) {
            return true;
        }
        let target = Term::iri(&p.resource);
        types
            .iter()
            .any(|t| t == &target || h.is_subclass_of(t, &target))
    }

    /// [`PolicySet::resource_matches`], additionally reporting *why* the
    /// policy applied: `Some(None)` for an instance or direct-type match,
    /// `Some(Some(step))` when the subclass hierarchy supplied the link,
    /// `None` when the policy does not apply.
    fn resource_match_basis(
        h: &Hierarchy<'_>,
        p: &Policy,
        resource: &Term,
        types: &[Term],
    ) -> Option<Option<String>> {
        if resource.as_iri() == Some(p.resource.as_str()) {
            return Some(None);
        }
        let target = Term::iri(&p.resource);
        for t in types {
            if t == &target {
                return Some(None);
            }
            if h.is_subclass_of(t, &target) {
                return Some(Some(format!(
                    "{} rdfs:subClassOf* {}",
                    t.as_iri().unwrap_or("_"),
                    p.resource
                )));
            }
        }
        None
    }

    /// Property conditions, semantics-aware: a listed property grants
    /// itself and any subproperty of it.
    fn conditions_allow(data: &Graph, p: &Policy, property: &str) -> bool {
        if p.conditions.is_empty() {
            return true;
        }
        // rdf:type is always visible on permitted resources, otherwise the
        // client cannot even tell what it is looking at.
        if property == rdf::TYPE {
            return true;
        }
        p.conditions.iter().all(|c| match c {
            Condition::PropertyAccess(props) => props
                .iter()
                .any(|allowed| allowed == property || is_subproperty_of(data, property, allowed)),
        })
    }
}

/// One applicable policy's contribution to an access decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyMatch {
    /// Policy IRI.
    pub policy: String,
    /// The policy's effect.
    pub decision: Decision,
    /// For permits: whether its conditions passed for the property asked
    /// about (a permit whose conditions failed suppresses nothing by
    /// itself — deny-by-default does).
    pub allowed: bool,
    /// The inference step that made the policy applicable, when the
    /// subclass hierarchy (not a direct type) supplied the link.
    pub inference: Option<String>,
}

/// The structured explanation of one G-SACS access decision: which
/// policies were consulted, which permitted or denied, and what inference
/// steps connected data to policy — linked to the audit log by
/// [`TraceId`]. Emitted when a role's secure view is built and stamped
/// per request by the service.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionTrace {
    /// The id of the request this decision explains.
    pub trace_id: TraceId,
    /// The requesting role.
    pub role: String,
    /// Every policy consulted for the role (id order preserved).
    pub consulted: Vec<String>,
    /// Permit policies that granted at least one triple.
    pub permitting: Vec<String>,
    /// Deny policies that fired at least once.
    pub denying: Vec<String>,
    /// Distinct inference steps used to make policies applicable.
    pub inference: Vec<String>,
    /// Triples granted into the view.
    pub granted: usize,
    /// Triples suppressed by policy (or deny-by-default).
    pub suppressed: usize,
    /// Whether the decision was taken in degraded mode (un-inferred data,
    /// deny-bearing roles masked).
    pub degraded: bool,
}

impl DecisionTrace {
    /// Multi-line human-readable rendering (used by `grdf-cli trace`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "decision trace {} role {}", self.trace_id, self.role);
        let _ = writeln!(
            out,
            "  consulted:  {}",
            if self.consulted.is_empty() {
                "(no policy for role)".to_string()
            } else {
                self.consulted.join(", ")
            }
        );
        if !self.permitting.is_empty() {
            let _ = writeln!(out, "  permitting: {}", self.permitting.join(", "));
        }
        if !self.denying.is_empty() {
            let _ = writeln!(out, "  denying:    {}", self.denying.join(", "));
        }
        if self.permitting.is_empty() && self.denying.is_empty() {
            let _ = writeln!(out, "  outcome:    deny-by-default (no policy fired)");
        }
        for step in &self.inference {
            let _ = writeln!(out, "  inference:  {step}");
        }
        let _ = writeln!(
            out,
            "  view:       {} granted, {} suppressed{}",
            self.granted,
            self.suppressed,
            if self.degraded {
                " [degraded: deny-bearing roles masked]"
            } else {
                ""
            }
        );
        out
    }
}

/// Transitive `rdfs:subPropertyOf` check.
fn is_subproperty_of(data: &Graph, sub: &str, sup: &str) -> bool {
    if sub == sup {
        return true;
    }
    let mut stack = vec![Term::iri(sub)];
    let mut seen = std::collections::HashSet::new();
    while let Some(cur) = stack.pop() {
        for parent in data.objects(&cur, &Term::iri(rdfs::SUB_PROPERTY_OF)) {
            if parent.as_iri() == Some(sup) {
                return true;
            }
            if seen.insert(parent.clone()) {
                stack.push(parent);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use grdf_owl::reasoner::Reasoner;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    /// Scenario data: a chemical site typed app:ChemSite with three
    /// properties, plus class hierarchy.
    fn scenario() -> Graph {
        let mut g = Graph::new();
        let site = iri("http://grdf.org/app#NTEnergy");
        g.add(
            site.clone(),
            Term::iri(rdf::TYPE),
            iri(&grdf::app("ChemSite")),
        );
        g.add(
            site.clone(),
            iri(&grdf::app("hasSiteName")),
            Term::string("NT Energy"),
        );
        g.add(
            site.clone(),
            iri(&grdf::iri("BoundedBy")),
            Term::string("0,0 10,10"),
        );
        g.add(site, iri(&grdf::app("hasChemCode")), Term::string("121NR"));
        g
    }

    /// The List 8 policy: 'main repair' may View ChemSites, but only their
    /// BoundedBy property.
    fn main_repair_policy() -> Policy {
        Policy::permit_properties(
            &grdf::sec("MainRepPolicy1"),
            &grdf::sec("MainRep"),
            &grdf::app("ChemSite"),
            &[&grdf::iri("BoundedBy")],
        )
    }

    #[test]
    fn list8_policy_grants_extent_only() {
        let g = scenario();
        let ps = PolicySet::new(vec![main_repair_policy()]);
        let site = iri("http://grdf.org/app#NTEnergy");
        let role = grdf::sec("MainRep");
        assert_eq!(
            ps.evaluate(&g, &role, &site, &grdf::iri("BoundedBy"), Action::View),
            Access::Granted
        );
        assert_eq!(
            ps.evaluate(&g, &role, &site, &grdf::app("hasChemCode"), Action::View),
            Access::Denied,
            "chemical info must be suppressed for 'main repair'"
        );
        assert_eq!(
            ps.evaluate(&g, &role, &site, rdf::TYPE, Action::View),
            Access::Granted,
            "type stays visible"
        );
    }

    #[test]
    fn unconditional_permit_grants_everything() {
        // 'emergency response' has an administrative role: full access.
        let g = scenario();
        let ps = PolicySet::new(vec![Policy::permit(
            &grdf::sec("EmergencyPolicy"),
            &grdf::sec("Emergency"),
            &grdf::app("ChemSite"),
        )]);
        let site = iri("http://grdf.org/app#NTEnergy");
        assert_eq!(
            ps.evaluate(
                &g,
                &grdf::sec("Emergency"),
                &site,
                &grdf::app("hasChemCode"),
                Action::View
            ),
            Access::Granted
        );
    }

    #[test]
    fn no_policy_means_not_applicable() {
        let g = scenario();
        let ps = PolicySet::default();
        let site = iri("http://grdf.org/app#NTEnergy");
        assert_eq!(
            ps.evaluate(
                &g,
                "urn:role",
                &site,
                &grdf::app("hasSiteName"),
                Action::View
            ),
            Access::NotApplicable
        );
    }

    #[test]
    fn explicit_deny_wins_over_permit() {
        let g = scenario();
        let role = grdf::sec("Contractor");
        let ps = PolicySet::new(vec![
            Policy::permit("urn:p1", &role, &grdf::app("ChemSite")),
            Policy::deny("urn:p2", &role, &grdf::app("ChemSite")),
        ]);
        let site = iri("http://grdf.org/app#NTEnergy");
        assert_eq!(
            ps.evaluate(&g, &role, &site, &grdf::app("hasSiteName"), Action::View),
            Access::Denied
        );
    }

    #[test]
    fn policy_applies_to_subclasses_after_reasoning() {
        // Merge robustness: weather data types its sites as
        // wx:MonitoredSite ⊑ app:ChemSite; the same policy keeps working.
        let mut g = scenario();
        let wx_site = iri("urn:wx#station9");
        g.add(
            wx_site.clone(),
            Term::iri(rdf::TYPE),
            iri("urn:wx#MonitoredSite"),
        );
        g.add(
            iri("urn:wx#MonitoredSite"),
            Term::iri(rdfs::SUB_CLASS_OF),
            iri(&grdf::app("ChemSite")),
        );
        g.add(
            wx_site.clone(),
            iri(&grdf::app("hasChemCode")),
            Term::string("999"),
        );
        Reasoner::default().materialize(&mut g);
        let ps = PolicySet::new(vec![main_repair_policy()]);
        assert_eq!(
            ps.evaluate(
                &g,
                &grdf::sec("MainRep"),
                &wx_site,
                &grdf::app("hasChemCode"),
                Action::View
            ),
            Access::Denied,
            "policy still applies (and still suppresses) after aggregation"
        );
        assert_eq!(
            ps.evaluate(
                &g,
                &grdf::sec("MainRep"),
                &wx_site,
                &grdf::iri("BoundedBy"),
                Action::View
            ),
            Access::Granted
        );
    }

    #[test]
    fn property_conditions_cover_subproperties() {
        let mut g = scenario();
        // hasPreciseExtent ⊑ BoundedBy.
        g.add(
            iri(&grdf::app("hasPreciseExtent")),
            Term::iri(rdfs::SUB_PROPERTY_OF),
            iri(&grdf::iri("BoundedBy")),
        );
        let ps = PolicySet::new(vec![main_repair_policy()]);
        let site = iri("http://grdf.org/app#NTEnergy");
        assert_eq!(
            ps.evaluate(
                &g,
                &grdf::sec("MainRep"),
                &site,
                &grdf::app("hasPreciseExtent"),
                Action::View
            ),
            Access::Granted,
            "subproperty of a granted property is granted"
        );
    }

    #[test]
    fn action_mismatch_is_not_applicable() {
        let g = scenario();
        let ps = PolicySet::new(vec![main_repair_policy()]); // View only
        let site = iri("http://grdf.org/app#NTEnergy");
        assert_eq!(
            ps.evaluate(
                &g,
                &grdf::sec("MainRep"),
                &site,
                &grdf::iri("BoundedBy"),
                Action::Edit
            ),
            Access::NotApplicable
        );
    }

    #[test]
    fn instance_level_policy() {
        let g = scenario();
        let site = iri("http://grdf.org/app#NTEnergy");
        let ps = PolicySet::new(vec![Policy::permit(
            "urn:p",
            "urn:role",
            "http://grdf.org/app#NTEnergy",
        )]);
        assert_eq!(
            ps.evaluate(
                &g,
                "urn:role",
                &site,
                &grdf::app("hasSiteName"),
                Action::View
            ),
            Access::Granted
        );
        assert_eq!(
            ps.evaluate(
                &g,
                "urn:role",
                &iri("urn:other"),
                &grdf::app("hasSiteName"),
                Action::View
            ),
            Access::NotApplicable
        );
    }

    #[test]
    fn encode_decode_roundtrip_list8() {
        let p = main_repair_policy();
        let mut g = Graph::new();
        p.encode(&mut g);
        // The List 8 shape is present.
        assert!(g.has(
            &iri(&grdf::sec("MainRep")),
            &iri(&grdf::sec("hasPolicy")),
            &iri(&grdf::sec("MainRepPolicy1"))
        ));
        let decoded = Policy::decode_all(&g);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0], p);
    }

    #[test]
    fn decode_multiple_policies() {
        let mut g = Graph::new();
        main_repair_policy().encode(&mut g);
        Policy::permit(
            &grdf::sec("P2"),
            &grdf::sec("Emergency"),
            &grdf::app("ChemSite"),
        )
        .encode(&mut g);
        Policy::deny(
            &grdf::sec("P3"),
            &grdf::sec("Blocked"),
            &grdf::app("Stream"),
        )
        .encode(&mut g);
        let decoded = Policy::decode_all(&g);
        assert_eq!(decoded.len(), 3);
        assert!(decoded.iter().any(|p| p.decision == Decision::Deny));
    }
}
