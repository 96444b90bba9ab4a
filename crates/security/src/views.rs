//! Middleware "layered views" (§7.1): "before presenting the layered view,
//! middleware needs to eliminate data that violates security with respect
//! to this role."
//!
//! [`secure_view`] filters a (merged, possibly materialized) graph down to
//! the triples a role may see under a [`PolicySet`], keeping the subtrees
//! (geometry nodes, envelope nodes) of granted properties reachable.
//!
//! This is the reference semantics. G-SACS never materializes these views
//! on its request path: it enforces the compiled labels of
//! [`crate::labels`] inside the query scan, which the differential
//! verifier (`LabelIr::verify_label_equivalence`), the label property
//! suites and the end-to-end benchmark prove equal to `secure_view` over
//! each role's effective policy set.

use std::collections::HashSet;

use grdf_rdf::graph::Graph;
use grdf_rdf::term::{Term, Triple};
#[cfg(test)]
use grdf_rdf::vocab::grdf;
use grdf_rdf::vocab::rdf;

use crate::policy::{Access, Action, Decision, DecisionTrace, PolicySet};

/// Statistics from building a view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Triples visible in the view.
    pub granted: usize,
    /// Triples suppressed by policy.
    pub suppressed: usize,
    /// Subjects with no applicable policy (all their triples suppressed,
    /// deny-by-default).
    pub unmatched_subjects: usize,
}

/// Build the role's view of `data`. `data` should already be materialized
/// if semantics-aware resource matching across subclasses is wanted.
///
/// Schema-level triples (subjects that are classes/properties — i.e. have
/// no `rdf:type` linking them to application classes) are not copied; the
/// view contains instance data only.
pub fn secure_view(data: &Graph, policies: &PolicySet, role: &str) -> (Graph, ViewStats) {
    secure_view_inner(data, policies, role, None)
}

/// [`secure_view`] that additionally returns the [`DecisionTrace`] for
/// the build: which policies were consulted, which permitted or denied
/// triples, and the inference steps that made them applicable. The
/// caller (G-SACS) stamps the trace id.
pub fn secure_view_explained(
    data: &Graph,
    policies: &PolicySet,
    role: &str,
) -> (Graph, ViewStats, DecisionTrace) {
    let mut trace = DecisionTrace {
        role: role.to_string(),
        consulted: policies
            .for_role(role)
            .iter()
            .map(|p| p.id.clone())
            .collect(),
        ..DecisionTrace::default()
    };
    let (view, stats) = secure_view_inner(data, policies, role, Some(&mut trace));
    trace.granted = stats.granted;
    trace.suppressed = stats.suppressed;
    (view, stats, trace)
}

fn secure_view_inner(
    data: &Graph,
    policies: &PolicySet,
    role: &str,
    mut trace: Option<&mut DecisionTrace>,
) -> (Graph, ViewStats) {
    let _span = grdf_obs::span("view.build").tag("role", role);
    let mut view = Graph::new();
    let mut stats = ViewStats::default();
    let mut included_objects: HashSet<Term> = HashSet::new();
    let mut inference_seen: HashSet<String> = HashSet::new();

    for subject in data.all_subjects() {
        // Only instance subjects: those with at least one type that is not
        // an OWL/RDFS meta-class.
        let types = data.objects(&subject, &Term::iri(rdf::TYPE));
        let is_instance = types.iter().any(|t| {
            t.as_iri().is_some_and(|i| {
                !i.starts_with(grdf_rdf::vocab::owl::NS)
                    && !i.starts_with(grdf_rdf::vocab::rdfs::NS)
            })
        });
        if !is_instance {
            continue;
        }
        // Skip structural helper nodes (geometry/envelope blanks) here;
        // they are pulled in via their owning property below.
        if subject.is_blank() {
            continue;
        }

        let mut any_granted = false;
        for t in data.match_pattern(Some(&subject), None, None) {
            let Some(pred) = t.predicate.as_iri() else {
                continue;
            };
            let access = match trace.as_deref_mut() {
                None => policies.evaluate(data, role, &subject, pred, Action::View),
                Some(rec) => {
                    let (access, matches) =
                        policies.evaluate_explained(data, role, &subject, pred, Action::View);
                    for m in matches {
                        let fired = match m.decision {
                            Decision::Permit => m.allowed,
                            Decision::Deny => true,
                        };
                        if fired {
                            let bucket = match m.decision {
                                Decision::Permit => &mut rec.permitting,
                                Decision::Deny => &mut rec.denying,
                            };
                            if !bucket.contains(&m.policy) {
                                bucket.push(m.policy);
                            }
                            if let Some(step) = m.inference {
                                if inference_seen.insert(step.clone()) {
                                    rec.inference.push(step);
                                }
                            }
                        }
                    }
                    access
                }
            };
            match access {
                Access::Granted => {
                    any_granted = true;
                    stats.granted += 1;
                    if t.object.is_blank() {
                        included_objects.insert(t.object.clone());
                    }
                    view.insert(t);
                }
                Access::Denied | Access::NotApplicable => {
                    stats.suppressed += 1;
                }
            }
        }
        if !any_granted {
            stats.unmatched_subjects += 1;
        }
    }

    // Pull in the helper subtrees of granted object properties (geometry
    // and envelope blank nodes).
    let mut frontier: Vec<Term> = included_objects.into_iter().collect();
    let mut seen: HashSet<Term> = HashSet::new();
    while let Some(node) = frontier.pop() {
        if !seen.insert(node.clone()) {
            continue;
        }
        for t in data.match_pattern(Some(&node), None, None) {
            if t.object.is_blank() && !seen.contains(&t.object) {
                frontier.push(t.object.clone());
            }
            view.insert(Triple::new(t.subject, t.predicate, t.object));
        }
    }

    grdf_obs::incr("view.builds");
    grdf_obs::add("view.granted", stats.granted as u64);
    grdf_obs::add("view.suppressed", stats.suppressed as u64);
    (view, stats)
}

/// Convenience: is the literal/IRI value of `(subject, property)` visible
/// in the view?
pub fn view_exposes(view: &Graph, subject: &str, property: &str) -> bool {
    !view
        .match_pattern(Some(&Term::iri(subject)), Some(&Term::iri(property)), None)
        .is_empty()
}

/// Count value-bearing triples of `property` anywhere in the view.
pub fn view_property_count(view: &Graph, property: &str) -> usize {
    view.count_pattern(None, Some(&Term::iri(property)), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use grdf_feature::feature::Feature;
    use grdf_feature::rdf_codec::encode_feature;
    use grdf_geometry::primitives::Point;

    /// The §7.1 dataset in miniature: one chemical site with name, chem
    /// code and geometry; one hydrology stream.
    fn incident_data() -> Graph {
        let mut g = Graph::new();
        let mut site = Feature::new(&grdf::app("NTEnergy"), "ChemSite");
        site.set_property("hasSiteName", "North Texas Energy");
        site.set_property("hasChemCode", "121NR");
        site.set_geometry(Point::new(5.0, 5.0).into());
        encode_feature(&mut g, &site);
        let mut stream = Feature::new(&grdf::app("WhiteRock"), "Stream");
        stream.set_property("hasObjectID", 11070i64);
        stream.set_geometry(Point::new(2.0, 2.0).into());
        encode_feature(&mut g, &stream);
        g
    }

    fn main_repair_policies() -> PolicySet {
        PolicySet::new(vec![
            // Extent-only on chemical sites (List 8)…
            Policy::permit_properties(
                &grdf::sec("MainRepPolicy1"),
                &grdf::sec("MainRep"),
                &grdf::app("ChemSite"),
                &[&grdf::iri("hasGeometry"), &grdf::iri("isBoundedBy")],
            ),
            // …and full access to the open hydrology layer.
            Policy::permit(
                &grdf::sec("MainRepPolicy2"),
                &grdf::sec("MainRep"),
                &grdf::app("Stream"),
            ),
        ])
    }

    #[test]
    fn main_repair_sees_extent_not_chemistry() {
        let data = incident_data();
        let (view, stats) = secure_view(&data, &main_repair_policies(), &grdf::sec("MainRep"));
        // Geometry visible.
        assert!(view_exposes(
            &view,
            &grdf::app("NTEnergy"),
            &grdf::iri("hasGeometry")
        ));
        // Chemistry suppressed.
        assert!(!view_exposes(
            &view,
            &grdf::app("NTEnergy"),
            &grdf::app("hasChemCode")
        ));
        assert!(!view_exposes(
            &view,
            &grdf::app("NTEnergy"),
            &grdf::app("hasSiteName")
        ));
        // Stream fully visible.
        assert!(view_exposes(
            &view,
            &grdf::app("WhiteRock"),
            &grdf::app("hasObjectID")
        ));
        assert!(stats.suppressed >= 2);
        assert!(stats.granted > 0);
    }

    #[test]
    fn geometry_subtree_is_reachable_in_view() {
        let data = incident_data();
        let (view, _) = secure_view(&data, &main_repair_policies(), &grdf::sec("MainRep"));
        // The blank geometry node's own triples came along.
        let gnode = view
            .object(
                &Term::iri(&grdf::app("NTEnergy")),
                &Term::iri(&grdf::iri("hasGeometry")),
            )
            .expect("geometry link visible");
        assert!(
            !view.match_pattern(Some(&gnode), None, None).is_empty(),
            "geometry node triples must be present"
        );
    }

    #[test]
    fn admin_role_sees_everything() {
        let data = incident_data();
        let ps = PolicySet::new(vec![
            Policy::permit("urn:pe1", &grdf::sec("Emergency"), &grdf::app("ChemSite")),
            Policy::permit("urn:pe2", &grdf::sec("Emergency"), &grdf::app("Stream")),
        ]);
        let (view, stats) = secure_view(&data, &ps, &grdf::sec("Emergency"));
        assert!(view_exposes(
            &view,
            &grdf::app("NTEnergy"),
            &grdf::app("hasChemCode")
        ));
        assert_eq!(stats.suppressed, 0);
    }

    #[test]
    fn unknown_role_sees_nothing() {
        let data = incident_data();
        let (view, stats) = secure_view(&data, &main_repair_policies(), "urn:nobody");
        assert_eq!(view.len(), 0);
        assert_eq!(stats.granted, 0);
        assert!(stats.suppressed > 0);
    }

    #[test]
    fn hazmat_gets_chemicals_but_not_contacts() {
        // 'hazmat personnel' need chemical names, not everything.
        let mut data = incident_data();
        data.add(
            Term::iri(&grdf::app("NTEnergy")),
            Term::iri(&grdf::app("hasContactPhone")),
            Term::string("555-0100"),
        );
        let ps = PolicySet::new(vec![Policy::permit_properties(
            &grdf::sec("HazmatPolicy"),
            &grdf::sec("Hazmat"),
            &grdf::app("ChemSite"),
            &[
                &grdf::app("hasChemCode"),
                &grdf::iri("hasGeometry"),
                &grdf::iri("isBoundedBy"),
            ],
        )]);
        let (view, _) = secure_view(&data, &ps, &grdf::sec("Hazmat"));
        assert!(view_exposes(
            &view,
            &grdf::app("NTEnergy"),
            &grdf::app("hasChemCode")
        ));
        assert!(!view_exposes(
            &view,
            &grdf::app("NTEnergy"),
            &grdf::app("hasContactPhone")
        ));
    }

    #[test]
    fn property_counts() {
        let data = incident_data();
        let (view, _) = secure_view(&data, &main_repair_policies(), &grdf::sec("MainRep"));
        assert_eq!(view_property_count(&view, &grdf::app("hasChemCode")), 0);
        assert_eq!(view_property_count(&view, &grdf::iri("hasGeometry")), 2);
    }
}
