//! The service under test: incident data at a fixed scale, the policy
//! set, the untimed prepare step, and the catalog of facts the workload
//! generator draws from.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use grdf_rdf::codec::encode_graph;
use grdf_rdf::graph::Graph;
use grdf_rdf::term::Term;
use grdf_rdf::vocab::grdf::{self, app};
use grdf_rdf::vocab::rdf;
use grdf_security::gsacs::{GSacs, OntoRepository, OwlHorstEngine};
use grdf_security::policy::{Action, Policy, PolicySet};
use grdf_security::resilience::ResilienceConfig;
use grdf_store::{FsBackend, StorageBackend, StoreConfig};
use grdf_workload::incident::{
    incident_graph_scaled, roles, scenario_policies, sensitive_properties,
};

/// Data seed of the incident graph; the workload seed never changes it.
pub const DATA_SEED: u64 = 42;

/// Cache capacity the restarted service runs with (as `grdf-cli serve`).
pub const CACHE_CAPACITY: usize = 16;

/// One store size: `streams` hydrology features, `sites` chemical sites,
/// and the density knob of `incident_graph_scaled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub name: &'static str,
    pub streams: usize,
    pub sites: usize,
    pub detail: usize,
}

/// 430,014 base triples; 486,942 served.
pub const LARGE: Scale = Scale {
    name: "1000x1000_d7",
    streams: 1000,
    sites: 1000,
    detail: 7,
};

/// 31,736 base triples; 39,746 served.
pub const MEDIUM: Scale = Scale {
    name: "250x250_d3",
    streams: 250,
    sites: 250,
    detail: 3,
};

/// The self-test scale.
pub const SMOKE: Scale = Scale {
    name: "25x25_d3",
    streams: 25,
    sites: 25,
    detail: 3,
};

/// The three §7.1 roles, in the order setup queries them.
pub fn role_iris() -> [String; 3] {
    [roles::main_repair(), roles::hazmat(), roles::emergency()]
}

/// `scenario_policies()` plus Edit and Delete permits for Emergency on
/// ChemInfo records and Streams, so field crews can write.
pub fn policies() -> PolicySet {
    let mut set = scenario_policies();
    for class in ["ChemInfo", "Stream"] {
        for action in [Action::Edit, Action::Delete] {
            set.push(Policy {
                action,
                ..Policy::permit(
                    &grdf::sec(&format!("EmWrite{class}{action:?}")),
                    &roles::emergency(),
                    &grdf::app(class),
                )
            });
        }
    }
    set
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the canonical encoding: equal exactly when the triple
/// sets are equal (up to hash collisions).
pub fn canonical_hash(g: &Graph) -> u64 {
    fnv1a(&encode_graph(g))
}

/// FNV-1a of this executable. It links the program crates statically, so
/// the fingerprint changes with the generator, the ontologies, the
/// policies, the reasoner and the store format, and a prepared store is
/// only ever reused by the build that wrote it.
pub fn code_fingerprint() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(fnv1a(&bytes))
}

fn repository() -> OntoRepository {
    let mut repo = OntoRepository::new();
    repo.register("grdf", grdf_core::ontology::grdf_ontology());
    repo.register("seconto", grdf_security::ontology::security_ontology());
    repo
}

/// The un-inferred base a store prepared for `scale` must hold: the
/// ontologies merged with the incident graph, as `GSacs::create_durable`
/// merges them.
pub fn generated_base(scale: &Scale) -> Graph {
    let mut base = repository().merged();
    base.extend_from(&incident_graph(scale));
    base
}

fn incident_graph(scale: &Scale) -> Graph {
    incident_graph_scaled(scale.streams, scale.sites, scale.detail, DATA_SEED)
}

/// What prepare generated, recorded next to the store so every restart
/// can be checked against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    pub base_triples: usize,
    pub base_hash: u64,
    pub served_triples: usize,
}

impl Manifest {
    fn render(&self) -> String {
        format!(
            "base_triples {}\nbase_hash {:016x}\nserved_triples {}\n",
            self.base_triples, self.base_hash, self.served_triples
        )
    }

    fn parse(text: &str) -> Option<Manifest> {
        let mut fields = HashMap::new();
        for line in text.lines() {
            let (k, v) = line.split_once(' ')?;
            fields.insert(k, v);
        }
        Some(Manifest {
            base_triples: fields.get("base_triples")?.parse().ok()?,
            base_hash: u64::from_str_radix(fields.get("base_hash")?, 16).ok()?,
            served_triples: fields.get("served_triples")?.parse().ok()?,
        })
    }
}

/// Write a fresh durable store for `scale` under `out/store` with the
/// default `StoreConfig` (fsync every 32 batches, 1 MiB checkpoint
/// threshold) and its manifest under `out/manifest`. Deterministic per
/// (scale, data seed).
pub fn prepare(scale: &Scale, out: &Path) -> Result<Manifest, String> {
    let store = out.join("store");
    std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
    let backend = FsBackend::open(&store).map_err(|e| format!("{}: {e}", store.display()))?;
    let svc = GSacs::create_durable(
        Arc::new(backend) as Arc<dyn StorageBackend>,
        StoreConfig::default(),
        repository(),
        policies(),
        Box::<OwlHorstEngine>::default(),
        incident_graph(scale),
        CACHE_CAPACITY,
        ResilienceConfig::default(),
    )
    .map_err(|e| format!("create_durable: {e}"))?;
    let manifest = Manifest {
        base_triples: svc.base_graph().len(),
        base_hash: canonical_hash(svc.base_graph()),
        served_triples: svc.dataset().len(),
    };
    drop(svc);
    let path = out.join("manifest");
    std::fs::write(&path, manifest.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(manifest)
}

/// A prepared scale: its pristine store and manifest.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub store: PathBuf,
    pub manifest: Manifest,
}

/// The store prepared for `scale` by the build with `fingerprint` (see
/// [`code_fingerprint`]) under `root`, running prepare in a child process
/// when it does not exist yet, so data generation never shows in the
/// measured process. Stores other builds prepared for the scale are
/// removed.
pub fn ensure_prepared(root: &Path, scale: &Scale, fingerprint: u64) -> Result<Prepared, String> {
    let parent = root.join("prepared");
    let stem = format!("{}-", scale.name);
    let name = format!("{stem}{fingerprint:016x}");
    let dir = parent.join(&name);
    let manifest_path = dir.join("manifest");
    if !manifest_path.exists() {
        let tmp = parent.join(format!("{}.tmp-{}", scale.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = Command::new(exe)
            .args(["prepare", "--scale", scale.name, "--out"])
            .arg(&tmp)
            .status()
            .map_err(|e| format!("spawn prepare: {e}"))?;
        if !status.success() {
            return Err(format!("prepare {} failed: {status}", scale.name));
        }
        if std::fs::rename(&tmp, &dir).is_err() {
            // Another run prepared the same scale first; its copy is
            // byte-identical.
            let _ = std::fs::remove_dir_all(&tmp);
        }
        for entry in std::fs::read_dir(&parent).map_err(|e| format!("{}: {e}", parent.display()))? {
            let other = entry.map_err(|e| e.to_string())?.file_name();
            let other = other.to_string_lossy();
            if other.starts_with(&stem) && other != name {
                let _ = std::fs::remove_dir_all(parent.join(other.as_ref()));
            }
        }
    }
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let manifest = Manifest::parse(&text).ok_or("malformed manifest")?;
    Ok(Prepared {
        store: dir.join("store"),
        manifest,
    })
}

/// Copy a store directory (flat: checkpoint, WAL, boot, audit files).
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// A chemical site the workload can look up.
#[derive(Debug, Clone)]
pub struct Site {
    pub iri: String,
    pub name: String,
}

/// A ChemInfo record and its inventory readings (lexical forms).
#[derive(Debug, Clone)]
pub struct Info {
    pub iri: String,
    pub readings: Vec<String>,
}

/// The facts the schedule draws from, read from the generated base graph.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub sites: Vec<Site>,
    pub infos: Vec<Info>,
    /// Stream IRIs in generator order; a stream only ever flows into an
    /// earlier one, so the `flowsInto` edges form a forest.
    pub streams: Vec<String>,
    /// Asserted `flowsInto` parent of each stream (index into `streams`).
    pub parents: Vec<Option<usize>>,
    /// Distinct chemical codes, sorted.
    pub codes: Vec<String>,
    /// Per role: rendered terms (predicate IRIs and their values) that no
    /// response to that role may carry.
    pub forbidden: HashMap<String, HashSet<String>>,
}

fn iri_of(t: &Term) -> Option<String> {
    t.as_iri().map(str::to_string)
}

fn lexical_of(t: &Term) -> Option<String> {
    t.as_literal().map(|l| l.lexical().to_string())
}

impl Catalog {
    /// Extract the catalog from an (un-inferred) base graph.
    pub fn from_base(base: &Graph) -> Catalog {
        let ty = Term::iri(rdf::TYPE);
        let subjects_of = |class: &str| -> Vec<String> {
            let mut v: Vec<String> = base
                .subjects(&ty, &Term::iri(&app(class)))
                .iter()
                .filter_map(iri_of)
                .collect();
            v.sort();
            v
        };
        let name_p = Term::iri(&app("hasSiteName"));
        let sites = subjects_of("ChemSite")
            .into_iter()
            .map(|iri| {
                let name = base
                    .object(&Term::iri(&iri), &name_p)
                    .as_ref()
                    .and_then(lexical_of)
                    .unwrap_or_default();
                Site { iri, name }
            })
            .collect();
        let reading_p = Term::iri(&app("hasReading"));
        let infos = subjects_of("ChemInfo")
            .into_iter()
            .map(|iri| {
                let mut readings: Vec<String> = base
                    .objects(&Term::iri(&iri), &reading_p)
                    .iter()
                    .filter_map(lexical_of)
                    .collect();
                readings.sort();
                Info { iri, readings }
            })
            .collect();
        // Generator order is the numeric object id in the IRI suffix.
        let mut streams = subjects_of("Stream");
        streams.sort_by_key(|s| {
            s.rsplit('.')
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(u64::MAX)
        });
        let index: HashMap<&str, usize> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();
        let flows = Term::iri(&app("flowsInto"));
        let parents = streams
            .iter()
            .map(|s| {
                base.object(&Term::iri(s), &flows)
                    .as_ref()
                    .and_then(Term::as_iri)
                    .and_then(|p| index.get(p).copied())
            })
            .collect();
        let mut codes: Vec<String> = base
            .match_pattern(None, Some(&Term::iri(&app("hasChemCode"))), None)
            .iter()
            .filter_map(|t| lexical_of(&t.object))
            .collect();
        codes.sort();
        codes.dedup();

        let forbid = |props: &[String]| -> HashSet<String> {
            let mut set = HashSet::new();
            for p in props {
                let pt = Term::iri(p);
                set.insert(pt.to_string());
                for t in base.match_pattern(None, Some(&pt), None) {
                    set.insert(t.object.to_string());
                }
            }
            set
        };
        let [main_rep, hazmat, _] = role_iris();
        let mut forbidden = HashMap::new();
        forbidden.insert(main_rep, forbid(&sensitive_properties()));
        forbidden.insert(hazmat, forbid(&[app("hasContactPhone"), app("hasSiteId")]));
        Catalog {
            sites,
            infos,
            streams,
            parents,
            codes,
            forbidden,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("e2ebench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn prepare_is_deterministic_and_recovers_exactly() {
        let (a, b) = (scratch("prep-a"), scratch("prep-b"));
        let ma = prepare(&SMOKE, &a).expect("prepare a");
        let mb = prepare(&SMOKE, &b).expect("prepare b");
        assert_eq!(ma, mb);
        let mut names: Vec<_> = std::fs::read_dir(a.join("store"))
            .expect("store dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        names.sort();
        assert!(!names.is_empty());
        for name in names {
            let fa = std::fs::read(a.join("store").join(&name)).expect("read a");
            let fb = std::fs::read(b.join("store").join(&name)).expect("read b");
            assert_eq!(fa, fb, "{name:?} differs between two prepares");
        }
        let backend = FsBackend::open(a.join("store")).expect("open store");
        let base = grdf_store::recover(&backend).expect("recover").base;
        assert_eq!(base.len(), ma.base_triples);
        assert_eq!(canonical_hash(&base), ma.base_hash);
        let generated = generated_base(&SMOKE);
        assert_eq!(generated.len(), ma.base_triples);
        assert_eq!(canonical_hash(&generated), ma.base_hash);
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn catalog_reads_the_incident_shape() {
        let base = incident_graph(&SMOKE);
        let cat = Catalog::from_base(&base);
        assert!(cat.sites.len() >= 25);
        assert!(cat.infos.iter().all(|i| i.readings.len() == 9));
        assert_eq!(cat.streams.len(), 25);
        for (i, p) in cat.parents.iter().enumerate() {
            assert!(
                p.is_none_or(|p| p < i),
                "stream {i} flows into a later stream"
            );
        }
        assert!(!cat.codes.is_empty());
        let main_rep = &cat.forbidden[&roles::main_repair()];
        assert!(main_rep.contains(&format!("<{}>", app("hasChemCode"))));
        assert!(main_rep.contains(&format!("\"{}\"", cat.codes[0])));
    }
}
