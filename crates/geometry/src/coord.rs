//! Coordinates and elementary vector operations.

use std::fmt;

/// A coordinate tuple. GRDF geometries are predominantly planar (the
/// paper's datasets are projected Texas state-plane coordinates); the `z`
/// component defaults to zero and participates only in 3-D operations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coord {
    /// Easting / longitude.
    pub x: f64,
    /// Northing / latitude.
    pub y: f64,
    /// Elevation; 0.0 for planar data.
    pub z: f64,
}

impl Coord {
    /// Planar coordinate (z = 0).
    pub fn xy(x: f64, y: f64) -> Coord {
        Coord { x, y, z: 0.0 }
    }

    /// Full 3-D coordinate.
    pub fn xyz(x: f64, y: f64, z: f64) -> Coord {
        Coord { x, y, z }
    }

    /// Euclidean distance to `other` in the XY plane.
    pub fn distance_2d(&self, other: &Coord) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Euclidean distance to `other` in 3-D.
    pub fn distance_3d(&self, other: &Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Midpoint of the segment to `other`.
    #[must_use]
    pub fn midpoint(&self, other: &Coord) -> Coord {
        Coord {
            x: f64::midpoint(self.x, other.x),
            y: f64::midpoint(self.y, other.y),
            z: f64::midpoint(self.z, other.z),
        }
    }

    /// Component-wise translation.
    #[must_use]
    pub fn translate(&self, dx: f64, dy: f64) -> Coord {
        Coord {
            x: self.x + dx,
            y: self.y + dy,
            z: self.z,
        }
    }

    /// 2-D cross product (z of the 3-D cross) of `self→a` and `self→b`;
    /// positive when `b` lies counter-clockwise of `a` around `self`.
    pub fn cross(&self, a: &Coord, b: &Coord) -> f64 {
        (a.x - self.x) * (b.y - self.y) - (a.y - self.y) * (b.x - self.x)
    }

    /// Approximate equality within `eps` (planar).
    pub fn approx_eq(&self, other: &Coord, eps: f64) -> bool {
        (self.x - other.x).abs() <= eps
            && (self.y - other.y).abs() <= eps
            && (self.z - other.z).abs() <= eps
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.z == 0.0 {
            write!(f, "{} {}", self.x, self.y)
        } else {
            write!(f, "{} {} {}", self.x, self.y, self.z)
        }
    }
}

impl From<(f64, f64)> for Coord {
    fn from((x, y): (f64, f64)) -> Coord {
        Coord::xy(x, y)
    }
}

impl From<(f64, f64, f64)> for Coord {
    fn from((x, y, z): (f64, f64, f64)) -> Coord {
        Coord::xyz(x, y, z)
    }
}

/// Parse a GML-style coordinate list: coordinates separated by commas,
/// tuple components by spaces or commas depending on convention. GRDF uses
/// GML 3 `posList` convention: all numbers whitespace-separated, grouped by
/// `dim`. The GML 2 `coordinates` convention — `x,y x,y` — is also accepted.
pub fn parse_coord_list(text: &str, dim: usize) -> Option<Vec<Coord>> {
    assert!(dim == 2 || dim == 3, "dim must be 2 or 3");
    // One pass: numbers fold straight into tuples, with no intermediate
    // list of numbers.
    let mut coords = Vec::new();
    let mut tuple = [0.0; 3];
    let mut k = 0;
    for token in text.split([' ', ',', '\n', '\t', '\r']) {
        if token.is_empty() {
            continue;
        }
        tuple[k] = token.parse().ok()?;
        k += 1;
        if k == dim {
            coords.push(if dim == 2 {
                Coord::xy(tuple[0], tuple[1])
            } else {
                Coord::xyz(tuple[0], tuple[1], tuple[2])
            });
            k = 0;
        }
    }
    (k == 0 && !coords.is_empty()).then_some(coords)
}

/// Format a coordinate list in GML 2 `coordinates` convention (`x,y x,y`),
/// the style used in the paper's Lists 6–7.
pub fn format_coord_list(coords: &[Coord]) -> String {
    coords
        .iter()
        .map(|c| format!("{},{}", c.x, c.y))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Coord::xy(0.0, 0.0);
        let b = Coord::xy(3.0, 4.0);
        assert_eq!(a.distance_2d(&b), 5.0);
        let c = Coord::xyz(0.0, 0.0, 12.0);
        let d = Coord::xyz(3.0, 4.0, 0.0);
        assert_eq!(c.distance_3d(&d), 13.0);
    }

    #[test]
    fn midpoint_and_translate() {
        let a = Coord::xy(0.0, 0.0);
        let b = Coord::xy(2.0, 6.0);
        assert_eq!(a.midpoint(&b), Coord::xy(1.0, 3.0));
        assert_eq!(a.translate(5.0, -1.0), Coord::xy(5.0, -1.0));
    }

    #[test]
    fn cross_sign_tells_orientation() {
        let o = Coord::xy(0.0, 0.0);
        let a = Coord::xy(1.0, 0.0);
        let b = Coord::xy(0.0, 1.0);
        assert!(o.cross(&a, &b) > 0.0, "CCW positive");
        assert!(o.cross(&b, &a) < 0.0, "CW negative");
        assert_eq!(o.cross(&a, &Coord::xy(2.0, 0.0)), 0.0, "collinear zero");
    }

    #[test]
    fn parse_poslist_2d() {
        let cs = parse_coord_list("0 0 1 2 3 4", 2).unwrap();
        assert_eq!(
            cs,
            vec![
                Coord::xy(0.0, 0.0),
                Coord::xy(1.0, 2.0),
                Coord::xy(3.0, 4.0)
            ]
        );
    }

    #[test]
    fn parse_gml2_comma_style() {
        // The paper's List 6 coordinate style.
        let cs =
            parse_coord_list("2533822.17263276,7108248.82783879 2533900.5,7108300.25", 2).unwrap();
        assert_eq!(cs.len(), 2);
        assert!((cs[0].x - 2533822.17263276).abs() < 1e-6);
    }

    #[test]
    fn parse_3d() {
        let cs = parse_coord_list("1 2 3 4 5 6", 3).unwrap();
        assert_eq!(
            cs,
            vec![Coord::xyz(1.0, 2.0, 3.0), Coord::xyz(4.0, 5.0, 6.0)]
        );
    }

    #[test]
    fn parse_rejects_ragged_input() {
        assert!(parse_coord_list("1 2 3", 2).is_none());
        assert!(parse_coord_list("", 2).is_none());
        assert!(parse_coord_list("a b", 2).is_none());
    }

    #[test]
    fn parse_accepts_and_refuses_exactly_the_gml_lists() {
        let xy = |x, y| Coord::xy(x, y);
        let xyz = |x, y, z| Coord::xyz(x, y, z);
        // GML 3 posList and GML 2 coordinates, any separator run.
        assert_eq!(
            parse_coord_list(" 1\t2\n3 4\r\n", 2),
            Some(vec![xy(1.0, 2.0), xy(3.0, 4.0)])
        );
        assert_eq!(
            parse_coord_list("1,2 3,4", 2),
            Some(vec![xy(1.0, 2.0), xy(3.0, 4.0)])
        );
        assert_eq!(
            parse_coord_list("1,2,3 4,5,6", 3),
            Some(vec![xyz(1.0, 2.0, 3.0), xyz(4.0, 5.0, 6.0)])
        );
        assert_eq!(parse_coord_list("-1.5e2 0", 2), Some(vec![xy(-150.0, 0.0)]));
        // Empty input, or nothing but separators.
        assert_eq!(parse_coord_list("", 3), None);
        assert_eq!(parse_coord_list(" ,\n ", 2), None);
        // A count that is not a multiple of `dim`.
        assert_eq!(parse_coord_list("1", 2), None);
        assert_eq!(parse_coord_list("1 2 3 4", 3), None);
        assert_eq!(parse_coord_list("1 2 3 4 5", 2), None);
        // Any bad number, wherever it is.
        assert_eq!(parse_coord_list("1 2 x 4", 2), None);
        assert_eq!(parse_coord_list("1 2 3 4 5 6z", 3), None);
        assert_eq!(parse_coord_list("1;2", 2), None);
    }

    #[test]
    fn format_roundtrips_through_parse() {
        let cs = vec![Coord::xy(1.5, -2.0), Coord::xy(0.0, 3.25)];
        let text = format_coord_list(&cs);
        assert_eq!(parse_coord_list(&text, 2).unwrap(), cs);
    }

    #[test]
    fn display_elides_zero_z() {
        assert_eq!(Coord::xy(1.0, 2.0).to_string(), "1 2");
        assert_eq!(Coord::xyz(1.0, 2.0, 3.0).to_string(), "1 2 3");
    }
}
