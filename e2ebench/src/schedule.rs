//! Seeded request schedules. A schedule is a pure function of the
//! workload seed and the catalog: the program under test only ever sees
//! the requests, never the seed, and no request depends on a response.

use grdf_rdf::term::Term;

use grdf_rdf::vocab::grdf::app;

use crate::data::Catalog;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Read query shapes, with their share of read traffic in percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// Every visible property of one site.
    Point,
    /// One site's chemicals: site → ChemInfo → code.
    Join,
    /// ChemSites in a seeded 5 km `grdf:intersectsBox` window.
    Window,
    /// The 4-query hot set with large results.
    Dashboard,
    /// `ASK` by site name.
    Ask,
}

const SHAPE_MIX: [(Shape, usize); 5] = [
    (Shape::Point, 40),
    (Shape::Join, 15),
    (Shape::Window, 20),
    (Shape::Dashboard, 15),
    (Shape::Ask, 10),
];

/// What an operation is, for checking and for per-kind statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read(Shape),
    /// Freshness probe for the round's last update.
    Probe,
    /// Insert-only update: one new ChemInfo reading.
    Insert,
    /// Correction: replace one ChemInfo reading.
    Correct,
    /// Correction: reroute one stream's asserted `flowsInto` edge.
    Reroute,
}

impl Kind {
    pub fn is_update(self) -> bool {
        matches!(self, Kind::Insert | Kind::Correct | Kind::Reroute)
    }
}

/// The response an operation must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A well-formed query answer (checked for leaks, and against the
    /// reference when sampled).
    Answer,
    /// A SELECT whose single variable `var` takes exactly `values`
    /// (rendered terms, sorted).
    Values {
        var: &'static str,
        values: Vec<String>,
    },
    /// An update acknowledged with `{"applied": n}`.
    Applied(usize),
}

/// One request of a schedule.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    /// Index into [`crate::data::role_iris`].
    pub role: usize,
    pub body: String,
    pub expect: Expect,
}

impl Op {
    pub fn path(&self) -> &'static str {
        if self.kind.is_update() {
            "/update"
        } else {
            "/query"
        }
    }

    /// The exact bytes sent for this operation as `role`.
    pub fn request(&self, role: &str) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\nhost: e2ebench\r\nx-role: {role}\r\ncontent-type: text/plain\r\ncontent-length: {}\r\n\r\n{}",
            self.path(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

const PREFIX: &str = "PREFIX app: <http://grdf.org/app#>\n";

/// Origin and side of the area the generators place features in.
const AREA_X: f64 = 2_500_000.0;
const AREA_Y: f64 = 7_050_000.0;
const AREA_SIDE: f64 = 100_000.0;
const WINDOW_SIDE: f64 = 5_000.0;

/// The dashboard hot set: sites storing each of three chemical codes,
/// plus the first page of streams.
pub fn dashboard_queries(catalog: &Catalog) -> Vec<String> {
    let mut qs: Vec<String> = catalog
        .codes
        .iter()
        .take(3)
        .map(|code| {
            format!(
                "{PREFIX}SELECT DISTINCT ?s WHERE {{ ?s app:hasChemicalInfo ?i . ?i app:hasChemCode \"{code}\" }}"
            )
        })
        .collect();
    qs.push(format!(
        "{PREFIX}SELECT ?s ?n WHERE {{ ?s a app:Stream ; app:hasStreamName ?n }} ORDER BY ?s LIMIT 50"
    ));
    qs
}

/// Draw a shape with the read-mix shares.
fn draw_shape(rng: &mut Rng) -> Shape {
    let mut pick = rng.below(100);
    for (shape, share) in SHAPE_MIX {
        if pick < share {
            return shape;
        }
        pick -= share;
    }
    unreachable!("the shares sum to 100")
}

/// A query of `shape` with seeded parameters.
pub fn shape_query(rng: &mut Rng, catalog: &Catalog, dashboard: &[String], shape: Shape) -> String {
    let site = |rng: &mut Rng| &catalog.sites[rng.below(catalog.sites.len())];
    match shape {
        Shape::Point => format!("{PREFIX}SELECT ?p ?o WHERE {{ <{}> ?p ?o }}", site(rng).iri),
        Shape::Join => format!(
            "{PREFIX}SELECT ?i ?c WHERE {{ <{}> app:hasChemicalInfo ?i . ?i app:hasChemCode ?c }}",
            site(rng).iri
        ),
        Shape::Window => {
            let x0 = AREA_X + (rng.unit() * (AREA_SIDE - WINDOW_SIDE)).round();
            let y0 = AREA_Y + (rng.unit() * (AREA_SIDE - WINDOW_SIDE)).round();
            format!(
                "{PREFIX}SELECT ?f WHERE {{ ?f a app:ChemSite . FILTER(grdf:intersectsBox(?f, {x0:.1}, {y0:.1}, {:.1}, {:.1})) }}",
                x0 + WINDOW_SIDE,
                y0 + WINDOW_SIDE
            )
        }
        Shape::Dashboard => dashboard[rng.below(dashboard.len())].clone(),
        Shape::Ask => format!(
            "{PREFIX}ASK {{ ?s app:hasSiteName {} }}",
            Term::string(&site(rng).name)
        ),
    }
}

/// An endless read stream: roles drawn uniformly.
pub struct ReadStream<'a> {
    rng: Rng,
    catalog: &'a Catalog,
    dashboard: Vec<String>,
}

impl<'a> ReadStream<'a> {
    pub fn new(seed: u64, catalog: &'a Catalog) -> ReadStream<'a> {
        ReadStream {
            rng: Rng::new(seed.wrapping_mul(0x100_0000_01B3)),
            catalog,
            dashboard: dashboard_queries(catalog),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let role = self.rng.below(3);
        let shape = draw_shape(&mut self.rng);
        let body = shape_query(&mut self.rng, self.catalog, &self.dashboard, shape);
        Op {
            kind: Kind::Read(shape),
            role,
            body,
            expect: Expect::Answer,
        }
    }
}

/// Updates per round, then one probe, then this many reads.
pub const UPDATES_PER_ROUND: usize = 8;
pub const READS_PER_ROUND: usize = 9;
/// The shapes of a round's reads, whose roles rotate MainRep, Hazmat,
/// Emergency. A fixed pattern keeps every run's mix identical: one site
/// lookup per role, and the reads that pay a view rebuild at HEAD (the
/// first MainRep read on retractions, the first Emergency read always;
/// the probe pays Hazmat's) are a window and a dashboard query, so the
/// lookup median stays in the cheap mode and the rebuilds sit in the
/// tail. Shares: lookups 3/9, joins 2/9, windows 2/9, dashboards 1/9,
/// ASKs 1/9.
const ROUND_SHAPES: [Shape; READS_PER_ROUND] = [
    Shape::Window,
    Shape::Point,
    Shape::Dashboard,
    Shape::Point,
    Shape::Join,
    Shape::Point,
    Shape::Ask,
    Shape::Window,
    Shape::Join,
];
/// Reroutes per retraction round (at seeded positions); the rest of the
/// round's corrections replace readings.
pub const REROUTES_PER_ROUND: usize = 2;

/// The writer role (Emergency) and the probe role (Hazmat).
const WRITER: usize = 2;
const PROBER: usize = 1;

/// Endless rounds for the write workloads, generated against the
/// benchmark's own model of the data so every update is valid and every
/// probe has one right answer.
pub struct RoundStream<'a> {
    rng: Rng,
    catalog: &'a Catalog,
    dashboard: Vec<String>,
    retract: bool,
    readings: Vec<Vec<String>>,
    parents: Vec<Option<usize>>,
    /// Streams that can be rerouted: an asserted parent and at least one
    /// other earlier stream to move to.
    reroutable: Vec<usize>,
    fresh: u64,
}

impl<'a> RoundStream<'a> {
    pub fn new(seed: u64, retract: bool, catalog: &'a Catalog) -> RoundStream<'a> {
        let reroutable = (0..catalog.streams.len())
            .filter(|&i| i >= 2 && catalog.parents[i].is_some())
            .collect();
        RoundStream {
            rng: Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ u64::from(retract)),
            catalog,
            dashboard: dashboard_queries(catalog),
            retract,
            readings: catalog.infos.iter().map(|i| i.readings.clone()).collect(),
            parents: catalog.parents.clone(),
            reroutable,
            fresh: 0,
        }
    }

    fn fresh_reading(&mut self) -> String {
        self.fresh += 1;
        format!(
            "9{:06}:{:.1}",
            self.fresh,
            500.0 + self.rng.unit() * 9_500.0
        )
    }

    fn reading_line(&self, sign: char, info: usize, value: &str) -> String {
        format!(
            "{sign} <{}> <{}> {} .\n",
            self.catalog.infos[info].iri,
            app("hasReading"),
            Term::string(value)
        )
    }

    fn flow_line(&self, sign: char, from: usize, to: usize) -> String {
        format!(
            "{sign} <{}> <{}> <{}> .\n",
            self.catalog.streams[from],
            app("flowsInto"),
            self.catalog.streams[to]
        )
    }

    fn reading_probe(&self, info: usize) -> Op {
        let mut values: Vec<String> = self.readings[info]
            .iter()
            .map(|r| Term::string(r).to_string())
            .collect();
        values.sort();
        Op {
            kind: Kind::Probe,
            role: PROBER,
            body: format!(
                "{PREFIX}SELECT ?r WHERE {{ <{}> app:hasReading ?r }}",
                self.catalog.infos[info].iri
            ),
            expect: Expect::Values { var: "r", values },
        }
    }

    fn downstream_probe(&self, stream: usize) -> Op {
        let mut values = Vec::new();
        let mut at = self.parents[stream];
        while let Some(p) = at {
            values.push(format!("<{}>", self.catalog.streams[p]));
            at = self.parents[p];
        }
        values.sort();
        Op {
            kind: Kind::Probe,
            role: PROBER,
            body: format!(
                "{PREFIX}SELECT ?d WHERE {{ <{}> app:flowsInto ?d }}",
                self.catalog.streams[stream]
            ),
            expect: Expect::Values { var: "d", values },
        }
    }

    /// The next round: updates, one probe, reads rotating through roles.
    pub fn next_round(&mut self) -> Vec<Op> {
        let mut reroute_at = Vec::new();
        if self.retract && !self.reroutable.is_empty() {
            while reroute_at.len() < REROUTES_PER_ROUND {
                let k = self.rng.below(UPDATES_PER_ROUND);
                if !reroute_at.contains(&k) {
                    reroute_at.push(k);
                }
            }
        }
        let mut ops = Vec::with_capacity(UPDATES_PER_ROUND + 1 + READS_PER_ROUND);
        let mut probe = None;
        for k in 0..UPDATES_PER_ROUND {
            let op = if reroute_at.contains(&k) {
                let s = self.reroutable[self.rng.below(self.reroutable.len())];
                let old = self.parents[s].expect("reroutable streams have a parent");
                let mut new = self.rng.below(s - 1);
                if new >= old {
                    new += 1;
                }
                let body = self.flow_line('-', s, old) + &self.flow_line('+', s, new);
                self.parents[s] = Some(new);
                probe = Some(self.downstream_probe(s));
                Op {
                    kind: Kind::Reroute,
                    role: WRITER,
                    body,
                    expect: Expect::Applied(2),
                }
            } else {
                let info = self.rng.below(self.readings.len());
                let new = self.fresh_reading();
                let (kind, body, applied) = if self.retract {
                    let at = self.rng.below(self.readings[info].len());
                    let old = std::mem::replace(&mut self.readings[info][at], new.clone());
                    let body =
                        self.reading_line('-', info, &old) + &self.reading_line('+', info, &new);
                    (Kind::Correct, body, 2)
                } else {
                    self.readings[info].push(new.clone());
                    (Kind::Insert, self.reading_line('+', info, &new), 1)
                };
                probe = Some(self.reading_probe(info));
                Op {
                    kind,
                    role: WRITER,
                    body,
                    expect: Expect::Applied(applied),
                }
            };
            ops.push(op);
        }
        ops.push(probe.expect("a round has at least one update"));
        for (j, shape) in ROUND_SHAPES.into_iter().enumerate() {
            let body = shape_query(&mut self.rng, self.catalog, &self.dashboard, shape);
            ops.push(Op {
                kind: Kind::Read(shape),
                role: j % 3,
                body,
                expect: Expect::Answer,
            });
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{role_iris, DATA_SEED};
    use grdf_workload::incident::incident_graph_scaled;

    fn catalog() -> Catalog {
        Catalog::from_base(&incident_graph_scaled(25, 25, 3, DATA_SEED))
    }

    fn read_bytes(seed: u64, cat: &Catalog) -> Vec<u8> {
        let roles = role_iris();
        let mut s = ReadStream::new(seed, cat);
        (0..500)
            .flat_map(|_| {
                let op = s.next_op();
                op.request(&roles[op.role])
            })
            .collect()
    }

    fn round_bytes(seed: u64, retract: bool, cat: &Catalog) -> Vec<u8> {
        let roles = role_iris();
        let mut s = RoundStream::new(seed, retract, cat);
        (0..30)
            .flat_map(|_| s.next_round())
            .flat_map(|op| op.request(&roles[op.role]))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let cat = catalog();
        assert_eq!(read_bytes(7, &cat), read_bytes(7, &cat));
        assert_ne!(read_bytes(7, &cat), read_bytes(8, &cat));
        for retract in [false, true] {
            assert_eq!(round_bytes(7, retract, &cat), round_bytes(7, retract, &cat));
            assert_ne!(round_bytes(7, retract, &cat), round_bytes(8, retract, &cat));
        }
    }

    #[test]
    fn read_mix_matches_the_stated_shares() {
        let cat = catalog();
        let mut s = ReadStream::new(1, &cat);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            if let Kind::Read(shape) = s.next_op().kind {
                *counts.entry(shape).or_insert(0usize) += 1;
            }
        }
        for (shape, share) in SHAPE_MIX {
            let got = counts[&shape] as f64 / 200.0;
            assert!(
                (got - share as f64).abs() < 1.5,
                "{shape:?}: {got}% vs {share}%"
            );
        }
    }

    #[test]
    fn rounds_have_the_stated_structure() {
        let cat = catalog();
        for retract in [false, true] {
            let mut s = RoundStream::new(3, retract, &cat);
            for _ in 0..20 {
                let round = s.next_round();
                assert_eq!(round.len(), UPDATES_PER_ROUND + 1 + READS_PER_ROUND);
                let reroutes = round.iter().filter(|o| o.kind == Kind::Reroute).count();
                assert_eq!(reroutes, if retract { REROUTES_PER_ROUND } else { 0 });
                assert!(round[..UPDATES_PER_ROUND].iter().all(|o| o.role == WRITER));
                assert_eq!(round[UPDATES_PER_ROUND].kind, Kind::Probe);
                assert_eq!(round[UPDATES_PER_ROUND].role, PROBER);
                let reads = &round[UPDATES_PER_ROUND + 1..];
                for role in 0..3 {
                    let lookups = reads
                        .iter()
                        .filter(|o| o.role == role && o.kind == Kind::Read(Shape::Point))
                        .count();
                    assert_eq!(lookups, 1, "one lookup per role and round");
                }
            }
        }
    }
}
