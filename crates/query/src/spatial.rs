//! Spatial evaluation support: extracting a feature's extent from its GRDF
//! triples so the `grdf:*` filter builtins can run against the graph.

use grdf_geometry::coord::parse_coord_list;
use grdf_geometry::envelope::Envelope;
use grdf_geometry::wkt;
use grdf_rdf::graph::Graph;
use grdf_rdf::term::Term;
use grdf_rdf::vocab::grdf as ns;

/// Spatial extent of the feature `subject`: the union of its geometry
/// nodes' extents (each from its WKT, else its coordinate list), or, when
/// no geometry yields one, of its `isBoundedBy` envelopes. Taking every
/// value rather than the first keeps the result independent of index
/// order.
pub fn feature_envelope(graph: &Graph, subject: &Term) -> Option<Envelope> {
    envelope_with(subject, &|s: &Term, p: &Term| graph.objects(s, p))
}

/// [`feature_envelope`] over any `(subject, predicate) → objects` lookup.
/// The query evaluator passes one that reads only the triples a request's
/// labels show, so hidden geometry can never place a feature inside a
/// window.
pub fn envelope_with(
    subject: &Term,
    objects: &impl Fn(&Term, &Term) -> Vec<Term>,
) -> Option<Envelope> {
    let of_nodes = |p: &str| {
        union_of(
            objects(subject, &Term::iri(&ns::iri(p)))
                .iter()
                .filter_map(|node| node_envelope(objects, node)),
        )
    };
    of_nodes("hasGeometry").or_else(|| of_nodes("isBoundedBy"))
}

fn node_envelope(objects: &impl Fn(&Term, &Term) -> Vec<Term>, node: &Term) -> Option<Envelope> {
    let literals = |p: &str| objects(node, &Term::iri(&ns::iri(p)));
    union_of(literals("asWKT").iter().filter_map(|w| {
        let l = w.as_literal()?;
        wkt::parse_wkt(l.lexical())?.envelope()
    }))
    .or_else(|| {
        union_of(literals("coordinates").iter().filter_map(|c| {
            let coords = parse_coord_list(c.as_literal()?.lexical(), 2)?;
            Envelope::of_coords(&coords)
        }))
    })
}

fn union_of(envelopes: impl Iterator<Item = Envelope>) -> Option<Envelope> {
    envelopes.reduce(|a, b| a.union(&b))
}

/// Planar distance between the centers of two features' extents, read
/// through an objects lookup (see [`envelope_with`]).
pub fn distance_with(
    a: &Term,
    b: &Term,
    objects: &impl Fn(&Term, &Term) -> Vec<Term>,
) -> Option<f64> {
    let ea = envelope_with(a, objects)?;
    let eb = envelope_with(b, objects)?;
    Some(ea.center().distance_2d(&eb.center()))
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
        let (g, sa, sb) = graph_with_two_features();
        let d = distance_with(&sa, &sb, &|s: &Term, p: &Term| g.objects(s, p)).unwrap();
        // Centers: (5,5) and (105,5) → 100.
        assert!((d - 100.0).abs() < 1e-9, "{d}");
    }

    #[test]
    fn missing_geometry_yields_none() {
        let g = Graph::new();
        assert!(feature_envelope(&g, &Term::iri("urn:none")).is_none());
        let objects = |s: &Term, p: &Term| g.objects(s, p);
        assert!(distance_with(&Term::iri("urn:a"), &Term::iri("urn:b"), &objects).is_none());
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
