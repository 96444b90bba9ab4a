//! Spatial evaluation support: extracting a feature's extent from its GRDF
//! triples so the `grdf:*` filter builtins can run against the graph.

use grdf_geometry::coord::parse_coord_list;
use grdf_geometry::envelope::Envelope;
use grdf_geometry::wkt;
use grdf_rdf::graph::{Graph, TermId};
use grdf_rdf::term::Term;
use grdf_rdf::vocab::grdf as ns;

use crate::eval::Source;

/// Spatial extent of the feature `subject`: the union of its geometry
/// nodes' extents (each from its WKT, else its coordinate list), or, when
/// no geometry yields one, of its `isBoundedBy` envelopes. Taking every
/// value rather than the first keeps the result independent of index
/// order.
pub fn feature_envelope(graph: &Graph, subject: &Term) -> Option<Envelope> {
    Source::new(graph, None).envelope(graph.term_id(subject)?)
}

/// The ids of the predicates a feature's extent is read from; `None` for
/// one the graph never interned, which no triple can use.
#[derive(Clone, Copy)]
pub(crate) struct GeoPreds {
    has_geometry: Option<TermId>,
    is_bounded_by: Option<TermId>,
    as_wkt: Option<TermId>,
    coordinates: Option<TermId>,
}

impl GeoPreds {
    fn of(graph: &Graph) -> GeoPreds {
        let id = |p: &str| graph.term_id(&Term::iri(&ns::iri(p)));
        GeoPreds {
            has_geometry: id("hasGeometry"),
            is_bounded_by: id("isBoundedBy"),
            as_wkt: id("asWKT"),
            coordinates: id("coordinates"),
        }
    }
}

impl Source<'_> {
    /// [`feature_envelope`] of the feature `f`, walked in id space and
    /// reading only the triples the source shows, so hidden geometry can
    /// never place a feature inside a window. The predicate ids are
    /// resolved once per source.
    pub(crate) fn envelope(&self, f: TermId) -> Option<Envelope> {
        let preds = *self.geo.get_or_init(|| GeoPreds::of(self.graph));
        let of_nodes = |p: Option<TermId>| {
            let mut env = None;
            self.for_each_ids(Some(f), Some(p?), None, |_, _, node| {
                add(&mut env, self.node_envelope(&preds, node));
            });
            env
        };
        of_nodes(preds.has_geometry).or_else(|| of_nodes(preds.is_bounded_by))
    }

    /// A geometry node's extent: from its WKT, else its coordinate list.
    fn node_envelope(&self, preds: &GeoPreds, node: TermId) -> Option<Envelope> {
        self.literal_extent(node, preds.as_wkt, |text| wkt::parse_wkt(text)?.envelope())
            .or_else(|| {
                self.literal_extent(node, preds.coordinates, |text| {
                    Envelope::of_coords(&parse_coord_list(text, 2)?)
                })
            })
    }

    /// The union of `extent` over the lexical forms of the literal objects
    /// of `(node, p, ?)`.
    fn literal_extent(
        &self,
        node: TermId,
        p: Option<TermId>,
        extent: impl Fn(&str) -> Option<Envelope>,
    ) -> Option<Envelope> {
        let mut env = None;
        self.for_each_ids(Some(node), Some(p?), None, |_, _, o| {
            let lit = self.graph.term_of(o).as_literal();
            add(&mut env, lit.and_then(|l| extent(l.lexical())));
        });
        env
    }
}

/// Grow `acc` by `env`.
fn add(acc: &mut Option<Envelope>, env: Option<Envelope>) {
    if let Some(e) = env {
        *acc = Some(acc.map_or(e, |a| a.union(&e)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grdf_feature::feature::Feature;
    use grdf_feature::rdf_codec::encode_feature;
    use grdf_geometry::coord::Coord;
    use grdf_geometry::primitives::{LineString, Point};

    fn graph_with_two_features() -> (Graph, Term, Term) {
        let mut g = Graph::new();
        let mut a = Feature::new("urn:a", "Stream");
        a.set_geometry(
            LineString::new(vec![Coord::xy(0.0, 0.0), Coord::xy(10.0, 10.0)])
                .unwrap()
                .into(),
        );
        let sa = encode_feature(&mut g, &a);
        let mut b = Feature::new("urn:b", "Site");
        b.set_geometry(Point::new(105.0, 5.0).into());
        let sb = encode_feature(&mut g, &b);
        (g, sa, sb)
    }

    #[test]
    fn envelope_from_geometry_wkt() {
        let (g, sa, _) = graph_with_two_features();
        let env = feature_envelope(&g, &sa).unwrap();
        assert_eq!(env.min, Coord::xy(0.0, 0.0));
        assert_eq!(env.max, Coord::xy(10.0, 10.0));
    }

    #[test]
    fn distance_between_extent_centers() {
        let (g, _, _) = graph_with_two_features();
        // Centers: (5,5) and (105,5) → 100.
        let r = crate::execute(
            &g,
            "SELECT DISTINCT ?a ?b WHERE { ?a a ?t . ?b a ?u . \
             FILTER(grdf:distance(?a, ?b) = 100) }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 2, "a to b and b to a");
    }

    #[test]
    fn missing_geometry_yields_none() {
        let mut g = Graph::new();
        assert!(feature_envelope(&g, &Term::iri("urn:none")).is_none());
        g.add(
            Term::iri("urn:a"),
            Term::iri(&ns::iri("hasGeometry")),
            Term::blank("empty"),
        );
        assert!(feature_envelope(&g, &Term::iri("urn:a")).is_none());
        let r = crate::execute(
            &g,
            "SELECT ?a WHERE { ?a ?p ?g . FILTER(grdf:distance(?a, ?a) >= 0) }",
        )
        .unwrap();
        assert!(r.select_rows().is_empty(), "no extent, no distance");
    }

    #[test]
    fn several_geometries_merge_into_one_extent() {
        let (mut g, sa, _) = graph_with_two_features();
        let extra = Term::blank("extra");
        g.add(
            sa.clone(),
            Term::iri(&ns::iri("hasGeometry")),
            extra.clone(),
        );
        g.add(
            extra,
            Term::iri(&ns::iri("asWKT")),
            Term::string("POINT (20 -5)"),
        );
        let env = feature_envelope(&g, &sa).unwrap();
        assert_eq!(env.min, Coord::xy(0.0, -5.0));
        assert_eq!(env.max, Coord::xy(20.0, 10.0));
    }

    #[test]
    fn wkt_comes_before_coordinates_and_geometry_before_bounds() {
        let (mut g, sa, _) = graph_with_two_features();
        let iri = |p: &str| Term::iri(&ns::iri(p));
        let node = g.objects(&sa, &iri("hasGeometry")).remove(0);
        g.add(node, iri("coordinates"), Term::string("50,50 60,60"));
        let bounds = Term::blank("bounds");
        g.add(sa.clone(), iri("isBoundedBy"), bounds.clone());
        g.add(bounds, iri("coordinates"), Term::string("70,70 80,80"));
        let env = feature_envelope(&g, &sa).unwrap();
        assert_eq!(env.min, Coord::xy(0.0, 0.0));
        assert_eq!(env.max, Coord::xy(10.0, 10.0));
    }

    #[test]
    fn bounded_by_fallback() {
        use grdf_feature::bounding::BoundingShape;
        let mut g = Graph::new();
        let mut f = Feature::new("urn:c", "Zone");
        f.bounded_by =
            BoundingShape::Envelope(Envelope::new(Coord::xy(1.0, 1.0), Coord::xy(3.0, 3.0)));
        let s = encode_feature(&mut g, &f);
        let env = feature_envelope(&g, &s).unwrap();
        assert_eq!(env.center(), Coord::xy(2.0, 2.0));
    }
}
