//! `grdf-cli` — command-line front end for the GRDF library.
//!
//! ```text
//! grdf-cli ontology [turtle|rdfxml]             emit the GRDF ontology
//! grdf-cli convert  <file> [turtle|rdfxml|gml]  convert between formats
//! grdf-cli query    <file> <sparql>             run a query (use @file for the query text)
//! grdf-cli validate <file>                      materialize + OWL consistency check
//! grdf-cli stats    <file>                      triple/feature/identity statistics
//! grdf-cli health   <file> [--json]             stand up G-SACS over the data and report service health
//! grdf-cli trace    <file> <sparql>             run a query through G-SACS with tracing on; print the
//!                                               per-stage timing tree and the access-decision trace
//! grdf-cli lint     <file> [--policies <file>] [--format text|json] [--deny-warnings]
//!                                               static analysis: referential, schema, consistency,
//!                                               policy (incl. label passes S007-S010), and topology
//!                                               passes; with policies, also the differential
//!                                               label/view equivalence proof
//! grdf-cli labels   explain <file> <role> <s> <p> <o> [--policies <file>]
//!                                               why a triple is visible/hidden/leaked for a role
//! grdf-cli labels   verify  <file | --scenario> [--policies <file>]
//!                                               prove label-filtered scans == secure views (exit 2
//!                                               on divergence)
//! grdf-cli labels   stats   <file | --scenario> [--policies <file>]
//!                                               label table statistics (roles, classes, coverage)
//! grdf-cli serve    <file> [--addr H:P] [--policies <file>] [--allow-probe] [...]
//!                                               serve the data over the multi-tenant HTTP layer
//! grdf-cli client   <url> [--role R] [--tenant T] [--deadline-ms N] [--body S|@f]
//!                                               one HTTP request against a running server
//! grdf-cli chaos    <addr> [--seed N] [--cases N]
//!                                               seeded socket-fault campaign against a server
//! grdf-cli sim      [--seed N] [--steps N] [--quick] [--replay] [--shrink]
//!                   [--bug NAME] [--swarm N] [--out DIR] [--json]
//!                                               deterministic whole-system simulation: one master
//!                                               seed drives engine, storage, connection, and clock
//!                                               faults against the full in-memory stack; failing
//!                                               schedules persist as {master_seed, step_count} and
//!                                               shrink to a minimal counterexample
//! grdf-cli top      <addr> [--iterations N] [--interval-ms N]
//!                                               poll /metrics: per-tenant QPS/p99/shed + SLO burn
//! grdf-cli metrics-check <file>                 Prometheus format-conformance gate for CI
//! ```
//!
//! Input format is detected from the extension: `.gml`, `.ttl`/`.turtle`,
//! `.rdf`/`.xml`/`.owl` (RDF/XML), `.nt` (N-Triples).
//!
//! Exit codes: `0` success (for `lint`: the gate passed), `1` usage or
//! I/O error, `2` error-level lint findings, `3` warnings rejected by
//! `--deny-warnings`.

use std::process::ExitCode;
use std::sync::Arc;

use grdf::core::ontology::{grdf_ontology, stats as onto_stats};
use grdf::core::store::GrdfStore;
use grdf::query::QueryResult;
use grdf::rdf::PrefixMap;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((output, code)) => {
            println!("{output}");
            ExitCode::from(code)
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  grdf-cli ontology [turtle|rdfxml]
  grdf-cli convert  <file> [turtle|rdfxml|gml]
  grdf-cli query    <file> <sparql | @queryfile>
  grdf-cli validate <file>
  grdf-cli stats    <file>
  grdf-cli health   <file | --from-json <file>> [--json] [--check]
  grdf-cli trace    <file> <sparql | @queryfile>
  grdf-cli lint     <file> [--policies <file>] [--format text|json] [--deny-warnings]
  grdf-cli labels   explain <file | --scenario> <role> <s> <p> <o> [--policies <file>]
  grdf-cli labels   verify  <file | --scenario> [--policies <file>]
  grdf-cli labels   stats   <file | --scenario> [--policies <file>]
  grdf-cli store    init <dir> <file>
  grdf-cli store    verify <dir> [--format text|json] [--json-out <path>]
  grdf-cli store    recover <dir>
  grdf-cli serve    <file> [--addr 127.0.0.1:0] [--policies <file>] [--allow-probe]
                    [--workers N] [--max-conns N] [--quota-rps F] [--quota-burst F]
                    [--deadline-ms N] [--max-requests N] [--trace-capacity N]
                    [--slo SPEC]... [--no-slo] [--tenant-cap N]
                    [--profile-interval-ms N] [--no-profile]
  grdf-cli top      <addr> [--iterations N] [--interval-ms N]
  grdf-cli metrics-check <file>
  grdf-cli client   <url> [--method M] [--role R] [--tenant T] [--deadline-ms N]
                    [--trace-id H] [--body S | --body @file]
  grdf-cli chaos    <addr> [--seed N] [--cases N]
  grdf-cli sim      [--seed N] [--steps N] [--quick] [--replay] [--shrink]
                    [--bug ack-without-wal|stale-entailment] [--swarm N] [--out DIR]
                    [--json]";

/// Run a CLI invocation; returns the text to print and the process exit
/// code (nonzero only for `lint` gate failures — usage and I/O errors go
/// through `Err`).
fn run(args: &[String]) -> Result<(String, u8), String> {
    let cmd = args.first().ok_or("missing command")?;
    if cmd == "lint" {
        return cmd_lint(&args[1..]);
    }
    if cmd == "labels" {
        return cmd_labels(&args[1..]);
    }
    if cmd == "store" {
        return cmd_store(&args[1..]);
    }
    if cmd == "health" {
        return cmd_health(&args[1..]);
    }
    if cmd == "serve" {
        return cmd_serve(&args[1..]);
    }
    if cmd == "top" {
        return cmd_top(&args[1..]);
    }
    if cmd == "metrics-check" {
        return cmd_metrics_check(&args[1..]);
    }
    if cmd == "client" {
        return cmd_client(&args[1..]);
    }
    if cmd == "chaos" {
        return cmd_chaos(&args[1..]);
    }
    if cmd == "sim" {
        return cmd_sim(&args[1..]);
    }
    let output = match cmd.as_str() {
        "ontology" => cmd_ontology(args.get(1).map_or("turtle", String::as_str)),
        "convert" => {
            let file = args.get(1).ok_or("convert needs an input file")?;
            let format = args.get(2).map_or("turtle", String::as_str);
            cmd_convert(file, format)
        }
        "query" => {
            let file = args.get(1).ok_or("query needs a data file")?;
            let query = args.get(2).ok_or("query needs a query string")?;
            cmd_query(file, query)
        }
        "validate" => cmd_validate(args.get(1).ok_or("validate needs a data file")?),
        "stats" => cmd_stats(args.get(1).ok_or("stats needs a data file")?),
        "trace" => {
            let file = args.get(1).ok_or("trace needs a data file")?;
            let query = args.get(2).ok_or("trace needs a query string")?;
            cmd_trace(file, query)
        }
        other => Err(format!("unknown command {other:?}")),
    }?;
    Ok((output, 0))
}

/// `lint <file> [--policies <file>] [--format text|json] [--deny-warnings]`.
///
/// Policies are decoded (List 8 shape) from the data graph itself and,
/// when `--policies` is given, from that file too. Exit code: `0` pass,
/// `2` error-level findings, `3` warnings rejected by `--deny-warnings`.
fn cmd_lint(args: &[String]) -> Result<(String, u8), String> {
    use grdf::security::{Policy, PolicySet};

    let mut file: Option<&str> = None;
    let mut policies_path: Option<&str> = None;
    let mut format = "text";
    let mut deny_warnings = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--policies" => {
                i += 1;
                policies_path = Some(args.get(i).ok_or("--policies needs a file")?);
            }
            "--format" => {
                i += 1;
                format = args.get(i).ok_or("--format needs text or json")?;
            }
            "--deny-warnings" => deny_warnings = true,
            flag if flag.starts_with("--") => return Err(format!("unknown lint flag {flag:?}")),
            f => {
                if file.replace(f).is_some() {
                    return Err("lint takes exactly one data file".to_string());
                }
            }
        }
        i += 1;
    }
    let file = file.ok_or("lint needs a data file")?;
    if format != "text" && format != "json" {
        return Err(format!("unknown lint format {format:?} (use text or json)"));
    }

    let store = load_store(file)?;
    let mut policies = Policy::decode_all(store.graph());
    if let Some(p) = policies_path {
        let pstore = load_store(p)?;
        policies.extend(Policy::decode_all(pstore.graph()));
    }
    let set = (!policies.is_empty()).then(|| PolicySet::new(policies));
    let report = grdf::lint::lint_all(store.graph(), set.as_ref());

    // With a policy set in hand, also prove the compiled label table
    // equivalent to the materialized secure views (the differential
    // verifier). A divergence is a gate failure, not a lint code: it
    // means the analyzer itself is out of sync with view semantics.
    let divergences = set.as_ref().map_or_else(Vec::new, |ps| {
        grdf::security::labels::LabelIr::compile(store.graph(), ps)
            .verify_label_equivalence(store.graph(), ps)
    });

    let mut output = match format {
        "json" => report.to_json(),
        _ => report.render_text(),
    };
    if !divergences.is_empty() && format == "text" {
        output.push_str("\nlabel/view divergence:\n");
        for d in &divergences {
            output.push_str("  ");
            output.push_str(d);
            output.push('\n');
        }
    }
    let code = if report.has_errors() || !divergences.is_empty() {
        2
    } else if deny_warnings && report.fails_gate(true) {
        3
    } else {
        0
    };
    Ok((output, code))
}

/// `labels explain|verify|stats` — inspect and prove the compiled label
/// table. Input is a data file (List-8 policies embedded or supplied via
/// `--policies`), or `--scenario` for the built-in §7.1 three-role
/// incident workload.
fn cmd_labels(args: &[String]) -> Result<(String, u8), String> {
    use grdf::rdf::term::Triple;
    use grdf::security::labels::LabelIr;
    use grdf::security::{Policy, PolicySet};

    let sub = args
        .first()
        .ok_or("labels needs a subcommand: explain, verify, or stats")?
        .as_str();
    let mut positional: Vec<&str> = Vec::new();
    let mut policies_path: Option<&str> = None;
    let mut scenario = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--policies" => {
                i += 1;
                policies_path = Some(args.get(i).ok_or("--policies needs a file")?);
            }
            "--scenario" => scenario = true,
            flag if flag.starts_with("--") => return Err(format!("unknown labels flag {flag:?}")),
            p => positional.push(p),
        }
        i += 1;
    }

    // Assemble the graph and policy set.
    let mut rest = positional.as_slice();
    let (graph, mut policies) = if scenario {
        let mut store = grdf::workload::incident::incident_store(30, 30, 11);
        store.materialize();
        (
            store.graph().clone(),
            grdf::workload::incident::scenario_policies().policies,
        )
    } else {
        let file = rest
            .first()
            .ok_or("labels needs a data file (or --scenario)")?;
        rest = &rest[1..];
        let mut store = load_store(file)?;
        store.materialize();
        let policies = Policy::decode_all(store.graph());
        (store.graph().clone(), policies)
    };
    if let Some(p) = policies_path {
        policies.extend(Policy::decode_all(load_store(p)?.graph()));
    }
    if policies.is_empty() {
        return Err("no List-8 policies found (embed them or pass --policies)".to_string());
    }
    let set = PolicySet::new(policies);
    let ir = LabelIr::compile(&graph, &set);

    match sub {
        "explain" => {
            let [role, s, p, o] = rest else {
                return Err(
                    "labels explain needs <role> <subject> <predicate> <object>".to_string()
                );
            };
            let triple = Triple::new(parse_cli_term(s), parse_cli_term(p), parse_cli_term(o));
            let role = parse_cli_term(role)
                .as_iri()
                .map(str::to_string)
                .ok_or_else(|| "role must be an IRI".to_string())?;
            let ex = ir.explain(&graph, &role, &triple);
            let code = u8::from(ex.leak.is_some()) * 2;
            Ok((ex.render(), code))
        }
        "verify" => {
            if !rest.is_empty() {
                return Err("labels verify takes no extra arguments".to_string());
            }
            let divergences = ir.verify_label_equivalence(&graph, &set);
            if divergences.is_empty() {
                Ok((
                    format!(
                        "label/view equivalence holds: {} role(s), {} labeled subject(s), \
                         {} subject class(es) x {} predicate class(es)",
                        ir.width(),
                        ir.table.labeled_subjects(),
                        ir.table.class_count(),
                        ir.table.pred_class_count()
                    ),
                    0,
                ))
            } else {
                let mut out = format!("label/view divergence ({}):\n", divergences.len());
                for d in &divergences {
                    out.push_str("  ");
                    out.push_str(d);
                    out.push('\n');
                }
                Ok((out, 2))
            }
        }
        "stats" => {
            if !rest.is_empty() {
                return Err("labels stats takes no extra arguments".to_string());
            }
            use std::fmt::Write as _;
            let mut out = String::new();
            let _ = writeln!(out, "graph triples:     {}", graph.len());
            let _ = writeln!(out, "policies:          {}", set.policies.len());
            let _ = writeln!(out, "roles (bits):      {}", ir.width());
            let _ = writeln!(out, "labeled subjects:  {}", ir.table.labeled_subjects());
            let _ = writeln!(out, "subject classes:   {}", ir.table.class_count());
            let _ = writeln!(out, "predicate classes: {}", ir.table.pred_class_count());
            for role in &ir.roles {
                let mask = ir.table.mask(&ir.authorizations(role));
                let mut visible = 0usize;
                graph.for_each_match_ids(None, None, None, |s, p, _| {
                    visible += usize::from(mask.visible(s, p));
                });
                let _ = writeln!(out, "  {role}: {visible} visible triple(s)");
            }
            Ok((out, 0))
        }
        other => Err(format!(
            "unknown labels subcommand {other:?} (use explain, verify, or stats)"
        )),
    }
}

/// Parse a CLI term argument: `_:x` is a blank node, `"..."` a string
/// literal, anything else an IRI.
fn parse_cli_term(s: &str) -> grdf::rdf::term::Term {
    use grdf::rdf::term::Term;
    if let Some(label) = s.strip_prefix("_:") {
        Term::blank(label)
    } else if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        Term::string(&s[1..s.len() - 1])
    } else {
        Term::iri(s)
    }
}

/// `store init|verify|recover` — inspect and exercise the crash-safe
/// durability layer (`grdf-store`) against a directory of WAL segments
/// and checkpoints.
///
/// * `init <dir> <file>` seeds a fresh store: checkpoint 0 holds the
///   file's graph and whatever List-8 policies it embeds.
/// * `verify <dir>` walks every artifact and classifies its health
///   (per-record CRC status, torn tails vs interior corruption). Exit
///   `2` when any damage is found — even recoverable damage — so CI can
///   alarm on silent corruption; the verdict line says whether recovery
///   would still succeed.
/// * `recover <dir>` runs the real recovery path read-only and reports
///   what it reconstructed. Interior corruption fails closed (exit 1).
fn cmd_store(args: &[String]) -> Result<(String, u8), String> {
    use grdf::security::Policy;
    use grdf::store::{DurableStore, FsBackend, StoreConfig};

    let sub = args.first().ok_or("store needs a subcommand")?;
    let dir = args.get(1).ok_or("store needs a directory")?;
    let backend = FsBackend::open(dir).map_err(|e| format!("{dir}: {e}"))?;
    match sub.as_str() {
        "init" => {
            let file = args.get(2).ok_or("store init needs a data file")?;
            let data = load_store(file)?;
            let mut policy_graph = grdf::rdf::graph::Graph::new();
            let policies = Policy::decode_all(data.graph());
            for p in &policies {
                p.encode(&mut policy_graph);
            }
            let store = DurableStore::create(
                std::sync::Arc::new(backend),
                StoreConfig::default(),
                data.graph(),
                &policy_graph,
            )
            .map_err(|e| format!("{dir}: {e}"))?;
            Ok((
                format!(
                    "initialized {dir}: checkpoint 0 with {} triples, {} policies (run id {})",
                    data.graph().len(),
                    policies.len(),
                    store.run_id()
                ),
                0,
            ))
        }
        "verify" => {
            let mut format = "text";
            let mut json_out: Option<&str> = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--format" => {
                        i += 1;
                        format = args.get(i).ok_or("--format needs text or json")?;
                    }
                    "--json-out" => {
                        i += 1;
                        json_out = Some(args.get(i).ok_or("--json-out needs a path")?);
                    }
                    other => return Err(format!("unknown store verify flag {other:?}")),
                }
                i += 1;
            }
            let report = grdf::store::verify(&backend).map_err(|e| format!("{dir}: {e}"))?;
            if let Some(path) = json_out {
                std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
            }
            let output = match format {
                "json" => report.to_json(),
                "text" => report.render(),
                other => return Err(format!("unknown store verify format {other:?}")),
            };
            let damaged = !report.recoverable
                || report.checkpoints.iter().any(|c| c.error.is_some())
                || report.wals.iter().any(|w| w.bad_records > 0 || w.torn);
            Ok((output, if damaged { 2 } else { 0 }))
        }
        "recover" => {
            let recovered = grdf::store::recover(&backend).map_err(|e| format!("{dir}: {e}"))?;
            let policies = Policy::decode_all(&recovered.policy_graph);
            Ok((
                format!(
                    "recovered from checkpoint {}: {} triples, {} policies\n\
                     replayed {} WAL batch(es) / {} op(s), truncated {} torn byte(s), \
                     skipped {} corrupt checkpoint(s)",
                    recovered.ckpt_seq,
                    recovered.base.len(),
                    policies.len(),
                    recovered.replayed_batches,
                    recovered.replayed_ops,
                    recovered.truncated_bytes,
                    recovered.skipped_checkpoints
                ),
                0,
            ))
        }
        other => Err(format!("unknown store subcommand {other:?}")),
    }
}

fn load_store(path: &str) -> Result<GrdfStore, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut store = GrdfStore::new();
    let lower = path.to_ascii_lowercase();
    let result = if lower.ends_with(".gml") {
        store.load_gml(&text).map(|_| ())
    } else if lower.ends_with(".ttl") || lower.ends_with(".turtle") {
        store.load_turtle(&text).map(|_| ())
    } else if lower.ends_with(".nt") {
        match grdf::rdf::ntriples::parse(&text) {
            Ok(g) => {
                store.merge_graph(&g);
                Ok(())
            }
            Err(e) => Err(grdf::core::store::StoreError::Rdf(e.to_string())),
        }
    } else if lower.ends_with(".rdf") || lower.ends_with(".xml") || lower.ends_with(".owl") {
        store.load_rdfxml(&text).map(|_| ())
    } else {
        // Fall back to trying Turtle, then RDF/XML.
        store
            .load_turtle(&text)
            .map(|_| ())
            .or_else(|_| store.load_rdfxml(&text).map(|_| ()))
    };
    result.map_err(|e| format!("{path}: {e}"))?;
    Ok(store)
}

fn emit(store: &GrdfStore, format: &str) -> Result<String, String> {
    match format {
        "turtle" | "ttl" => Ok(store.to_turtle()),
        "rdfxml" | "rdf" | "xml" => store.to_rdfxml().map_err(|e| e.to_string()),
        "gml" => Ok(store.to_gml()),
        "ntriples" | "nt" => Ok(grdf::rdf::ntriples::serialize(store.graph())),
        "nquads" | "nq" => Ok(store.to_dataset().to_nquads()),
        "trig" => Ok(store.to_dataset().to_trig(store.prefixes())),
        other => Err(format!("unknown output format {other:?}")),
    }
}

fn cmd_ontology(format: &str) -> Result<String, String> {
    let g = grdf_ontology();
    match format {
        "turtle" | "ttl" => Ok(grdf::rdf::turtle::serialize(&g, &PrefixMap::common())),
        "rdfxml" | "rdf" | "xml" => {
            grdf::rdf::rdfxml::serialize(&g, &PrefixMap::common()).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown output format {other:?}")),
    }
}

fn cmd_convert(path: &str, format: &str) -> Result<String, String> {
    let store = load_store(path)?;
    emit(&store, format)
}

fn cmd_query(path: &str, query: &str) -> Result<String, String> {
    let mut store = load_store(path)?;
    store.materialize();
    let text = if let Some(qfile) = query.strip_prefix('@') {
        std::fs::read_to_string(qfile).map_err(|e| format!("{qfile}: {e}"))?
    } else {
        query.to_string()
    };
    let result = store.query(&text).map_err(|e| e.to_string())?;
    Ok(render_result(&result))
}

fn render_result(result: &QueryResult) -> String {
    match result {
        QueryResult::Boolean(b) => b.to_string(),
        QueryResult::Graph(g) => grdf::rdf::turtle::serialize(g, &PrefixMap::common()),
        QueryResult::Select { vars, rows } => {
            let mut out = String::new();
            out.push_str(&vars.join("\t"));
            out.push('\n');
            for row in rows {
                let cells: Vec<String> = vars
                    .iter()
                    .map(|v| {
                        row.get(v)
                            .map(std::string::ToString::to_string)
                            .unwrap_or_default()
                    })
                    .collect();
                out.push_str(&cells.join("\t"));
                out.push('\n');
            }
            out.push_str(&format!("({} rows)", rows.len()));
            out
        }
    }
}

fn cmd_validate(path: &str) -> Result<String, String> {
    let mut store = load_store(path)?;
    let stats = store.materialize();
    match store.check() {
        Ok(()) => Ok(format!(
            "consistent ({} triples, {} inferred in {} passes)",
            store.len(),
            stats.inferred,
            stats.passes
        )),
        Err(grdf::core::store::StoreError::Inconsistent(violations)) => {
            let mut out = format!("INCONSISTENT: {} violation(s)\n", violations.len());
            for v in violations.iter().take(20) {
                out.push_str(&format!("  - {v}\n"));
            }
            Err(out)
        }
        Err(other) => Err(other.to_string()),
    }
}

fn cmd_stats(path: &str) -> Result<String, String> {
    let mut store = load_store(path)?;
    let before = store.len();
    let rs = store.materialize();
    let s = onto_stats(store.graph());
    Ok(format!(
        "triples (loaded):    {before}\n\
         triples (inferred):  {}\n\
         reasoner passes:     {}\n\
         classes:             {}\n\
         object properties:   {}\n\
         datatype properties: {}\n\
         features:            {}\n\
         sameAs identities:   {}",
        rs.inferred,
        rs.passes,
        s.classes,
        s.object_properties,
        s.datatype_properties,
        store.feature_count(),
        store.same_as_links().len(),
    ))
}

/// The probe role IRI used by `health` and `trace`.
const PROBE_ROLE: &str = "urn:grdf:health#probe";

/// Policies permitting the probe role on every class present in the data,
/// so probe requests exercise the full admission → view → query pipeline.
fn probe_policies(store: &GrdfStore) -> Vec<grdf::security::Policy> {
    use grdf::rdf::term::Term;
    use grdf::security::Policy;

    let mut types: Vec<String> = store
        .graph()
        .match_pattern(None, Some(&Term::iri(grdf::rdf::vocab::rdf::TYPE)), None)
        .into_iter()
        .filter_map(|t| t.object.as_iri().map(str::to_string))
        .collect();
    types.sort();
    types.dedup();
    types
        .iter()
        .enumerate()
        .map(|(i, ty)| Policy::permit(&format!("urn:grdf:health#p{i}"), PROBE_ROLE, ty))
        .collect()
}

/// Stand up G-SACS over the store's data with the given policies (or the
/// probe-role defaults when empty).
fn build_service(
    store: &GrdfStore,
    policies: Vec<grdf::security::Policy>,
    config: grdf::security::ResilienceConfig,
) -> grdf::security::GSacs {
    use grdf::security::gsacs::{GSacs, OntoRepository, OwlHorstEngine};
    use grdf::security::policy::PolicySet;

    let policies = if policies.is_empty() {
        probe_policies(store)
    } else {
        policies
    };
    GSacs::with_resilience(
        OntoRepository::new(),
        PolicySet::new(policies),
        Box::<OwlHorstEngine>::default(),
        store.graph().clone(),
        16,
        config,
    )
}

fn probe_service(
    store: &GrdfStore,
    config: grdf::security::ResilienceConfig,
) -> grdf::security::GSacs {
    build_service(store, Vec::new(), config)
}

/// Exit code for `health --check` / `metrics-check` gate failures.
const GATE_FAILED: u8 = 5;

/// `health <file | --from-json <file>> [--json] [--check]` — the same
/// `HealthReport` the server's `/health` endpoint serves, rendered for
/// humans or machines. `--from-json` gates on an already-scraped
/// `/health` body instead of building a local service (the CI
/// post-campaign health gate); `--check` exits nonzero when any declared
/// SLO is burning its error budget.
fn cmd_health(args: &[String]) -> Result<(String, u8), String> {
    use grdf::obs::{Objective, Obs, WindowConfig};
    use grdf::security::gsacs::ClientRequest;

    let mut file: Option<&str> = None;
    let mut from_json: Option<String> = None;
    let mut json = false;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--check" => check = true,
            "--from-json" => {
                i += 1;
                from_json = Some(args.get(i).ok_or("--from-json needs a file")?.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown health flag {flag:?}")),
            f => {
                if file.replace(f).is_some() {
                    return Err("health takes exactly one data file".to_string());
                }
            }
        }
        i += 1;
    }
    if let Some(path) = from_json {
        let body = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // The report's only "state" fields are the slo entries, so a
        // burning objective is exactly this substring (stable JSON).
        let burning = body.contains("\"state\": \"burning\"");
        let code = if check && burning { GATE_FAILED } else { 0 };
        let out = if json {
            body
        } else {
            format!("slo gate: {}", if burning { "BURNING" } else { "ok" })
        };
        return Ok((out, code));
    }
    let store = load_store(file.ok_or("health needs a data file")?)?;
    let clock = grdf::runtime::system_clock();
    let config = grdf::security::ResilienceConfig {
        obs: Obs::new().with_windows(WindowConfig::default(), Arc::clone(&clock)),
        slos: vec![
            Objective::parse("wall: p99(gsacs.wall_us) < 250ms over 5m")?,
            Objective::parse("errors: rate(gsacs.errors) / rate(gsacs.requests) < 5% over 5m")?,
        ],
        ..grdf::security::ResilienceConfig::default()
    };
    let svc = probe_service(&store, config);
    // Smoke the pipeline twice so the report shows cache activity.
    let req = ClientRequest {
        role: PROBE_ROLE.to_string(),
        query: "ASK { ?s ?p ?o }".to_string(),
    };
    for _ in 0..2 {
        svc.handle(&req).map_err(|e| e.to_string())?;
    }
    let health = svc.health();
    let code = if check && health.slo_burning() {
        GATE_FAILED
    } else {
        0
    };
    if json {
        return Ok((health.to_json(), code));
    }
    let mut out = health.render();
    out.push_str("\n\nmetrics:\n");
    out.push_str(&svc.obs().registry().render());
    Ok((out, code))
}

fn cmd_trace(path: &str, query: &str) -> Result<String, String> {
    use grdf::obs::Obs;
    use grdf::security::gsacs::ClientRequest;
    use grdf::security::ResilienceConfig;

    let store = load_store(path)?;
    let text = if let Some(qfile) = query.strip_prefix('@') {
        std::fs::read_to_string(qfile).map_err(|e| format!("{qfile}: {e}"))?
    } else {
        query.to_string()
    };
    let obs = Obs::with_tracing(4096);
    let config = ResilienceConfig {
        obs: obs.clone(),
        ..ResilienceConfig::default()
    };
    // Build the service *inside* the CLI scope so construction-time spans
    // (reasoner materialization, label compile) land in the same trace as
    // the request. The decision trace is recomputed outside it: it is an
    // explanation, not part of serving the request.
    let (svc, outcome) = {
        let _scope = obs.scope("cli.trace");
        let svc = probe_service(&store, config);
        let outcome = svc.handle(&ClientRequest {
            role: PROBE_ROLE.to_string(),
            query: text,
        });
        (svc, outcome)
    };
    let decision = svc.decision_trace_for(PROBE_ROLE);
    let records = obs.sink().records();
    let trace = records.last().ok_or("no trace captured")?;
    let mut out = format!("trace {}\n", trace.id);
    out.push_str(&render_trace_tree(trace));
    match &outcome {
        Ok(result) => {
            out.push_str(&format!("\nresult:\n{}\n", render_result(result)));
        }
        Err(e) => out.push_str(&format!("\nrequest failed: {e}\n")),
    }
    match decision {
        Some(d) => out.push_str(&format!("\n{}", d.render())),
        None => out.push_str("\n(no decision trace: no traced request)"),
    }
    Ok(out)
}

/// Indented per-stage timing tree, spans ordered by start time.
fn render_trace_tree(trace: &grdf::obs::TraceRecord) -> String {
    let mut spans: Vec<&grdf::obs::SpanRecord> = trace.spans.iter().collect();
    spans.sort_by_key(|s| (s.start_ns, s.depth));
    let mut out = String::new();
    for s in spans {
        let tags = if s.tags.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = s.tags.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", pairs.join(" "))
        };
        out.push_str(&format!(
            "{:>10.3}ms  {}{}{}\n",
            s.dur_ns as f64 / 1e6,
            "  ".repeat(s.depth),
            s.name,
            tags
        ));
    }
    out
}

/// `serve <file> [flags]` — bind the multi-tenant HTTP layer over the
/// file's data and serve until killed (or until `--max-requests` have
/// been routed, for scripted runs). The listening address is printed and
/// flushed immediately so callers can scrape it before the first request.
fn cmd_serve(args: &[String]) -> Result<(String, u8), String> {
    use grdf::obs::Obs;
    use grdf::security::{Policy, ResilienceConfig};
    use grdf::server::{GrdfServer, QuotaConfig, ServerConfig};
    use std::io::Write;

    let mut file: Option<&str> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut policies_path: Option<&str> = None;
    let mut allow_probe = false;
    let mut cfg = ServerConfig::default();
    let mut quota = QuotaConfig::default();
    let mut max_requests: Option<u64> = None;
    let mut trace_capacity: usize = 256;
    let mut slo_specs: Vec<String> = Vec::new();
    let mut no_slo = false;
    let mut profile_interval = std::time::Duration::from_millis(10);
    let mut no_profile = false;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i)
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--addr" => addr.clone_from(flag_value(&mut i)?),
            "--policies" => policies_path = Some(flag_value(&mut i)?.as_str()),
            "--allow-probe" => allow_probe = true,
            "--workers" => {
                cfg.workers = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--max-conns" => {
                cfg.max_connections = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--quota-rps" => {
                quota.rate_per_sec = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--quota-rps: {e}"))?;
            }
            "--quota-burst" => {
                quota.burst = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--quota-burst: {e}"))?;
            }
            "--deadline-ms" => {
                let ms: u64 = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                cfg.default_deadline = std::time::Duration::from_millis(ms);
            }
            "--max-requests" => {
                max_requests = Some(
                    flag_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--max-requests: {e}"))?,
                );
            }
            "--trace-capacity" => {
                trace_capacity = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--trace-capacity: {e}"))?;
            }
            "--slo" => slo_specs.push(flag_value(&mut i)?.clone()),
            "--no-slo" => no_slo = true,
            "--tenant-cap" => {
                cfg.tenant_cap = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--tenant-cap: {e}"))?;
            }
            "--profile-interval-ms" => {
                let ms: u64 = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--profile-interval-ms: {e}"))?;
                profile_interval = std::time::Duration::from_millis(ms.max(1));
            }
            "--no-profile" => no_profile = true,
            flag if flag.starts_with("--") => return Err(format!("unknown serve flag {flag:?}")),
            f => {
                if file.replace(f).is_some() {
                    return Err("serve takes exactly one data file".to_string());
                }
            }
        }
        i += 1;
    }
    cfg.quota = quota;
    let store = load_store(file.ok_or("serve needs a data file")?)?;
    let mut policies = Vec::new();
    if let Some(p) = policies_path {
        policies = Policy::decode_all(load_store(p)?.graph());
        if policies.is_empty() {
            return Err(format!("{p}: no policies found (List 8 shape expected)"));
        }
        if allow_probe {
            policies.extend(probe_policies(&store));
        }
    }
    // SLO objectives: the defaults guard server latency and 5xx ratio;
    // `--slo` replaces them, `--no-slo` disables the engine entirely.
    let slos = if no_slo {
        Vec::new()
    } else if slo_specs.is_empty() {
        vec![
            grdf::obs::Objective::parse("latency: p99(server.latency) < 250ms over 5m")?,
            grdf::obs::Objective::parse(
                "errors: rate(server.errors) / rate(server.requests) < 5% over 5m",
            )?,
        ]
    } else {
        slo_specs
            .iter()
            .map(|s| grdf::obs::Objective::parse(s))
            .collect::<Result<Vec<_>, _>>()?
    };
    let mut obs = if trace_capacity > 0 {
        Obs::with_tracing(trace_capacity)
    } else {
        Obs::new()
    };
    // Windowed metrics back both the SLO engine and the per-tenant
    // `/metrics` gauges; the profiler runs continuously unless disabled.
    obs = obs.with_windows(grdf::obs::WindowConfig::default(), Arc::clone(&cfg.clock));
    if !no_profile {
        obs = obs.with_profiler(profile_interval, Arc::clone(&cfg.clock));
    }
    let config = ResilienceConfig {
        obs,
        slos,
        ..ResilienceConfig::default()
    };
    let svc = build_service(&store, policies, config);
    let server = GrdfServer::bind(addr.as_str(), svc, cfg).map_err(|e| format!("{addr}: {e}"))?;
    println!("listening on http://{}", server.local_addr());
    let _ = std::io::stdout().flush();
    match max_requests {
        Some(n) => {
            while server.requests_total() < n {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            let requests = server.requests_total();
            let (accepted, finished) = server.shutdown();
            Ok((
                format!(
                    "served {requests} request(s); {finished}/{accepted} connection(s) drained"
                ),
                0,
            ))
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(1));
        },
    }
}

/// `client <url> [flags]` — one zero-dependency HTTP/1.1 request against
/// a running server. Prints the status line and body; exit code 0 for a
/// 2xx response, 4 otherwise.
fn cmd_client(args: &[String]) -> Result<(String, u8), String> {
    use std::io::{Read, Write};

    let mut url: Option<&str> = None;
    let mut method: Option<String> = None;
    let mut body = Vec::new();
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i)
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--method" => method = Some(flag_value(&mut i)?.to_ascii_uppercase()),
            "--role" => headers.push(("x-role".into(), flag_value(&mut i)?.clone())),
            "--tenant" => headers.push(("x-tenant".into(), flag_value(&mut i)?.clone())),
            "--deadline-ms" => headers.push(("deadline-ms".into(), flag_value(&mut i)?.clone())),
            "--trace-id" => headers.push(("x-trace-id".into(), flag_value(&mut i)?.clone())),
            "--body" => {
                let v = flag_value(&mut i)?;
                body = if let Some(path) = v.strip_prefix('@') {
                    std::fs::read(path).map_err(|e| format!("{path}: {e}"))?
                } else {
                    v.clone().into_bytes()
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown client flag {flag:?}")),
            u => {
                if url.replace(u).is_some() {
                    return Err("client takes exactly one URL".to_string());
                }
            }
        }
        i += 1;
    }
    let url = url.ok_or("client needs a URL")?;
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("unsupported URL {url:?} (http:// only)"))?;
    let (authority, path) = match rest.split_once('/') {
        Some((a, p)) => (a, format!("/{p}")),
        None => (rest, "/".to_string()),
    };
    let method = method.unwrap_or_else(|| if body.is_empty() { "GET" } else { "POST" }.to_string());
    let mut wire = format!("{method} {path} HTTP/1.1\r\nhost: {authority}\r\n").into_bytes();
    for (name, value) in &headers {
        wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    wire.extend_from_slice(
        format!(
            "content-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    wire.extend_from_slice(&body);

    let mut stream =
        std::net::TcpStream::connect(authority).map_err(|e| format!("{authority}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(&wire)
        .map_err(|e| format!("{authority}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{authority}: {e}"))?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("malformed response: no header terminator")?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status_line = head.lines().next().unwrap_or_default().to_string();
    let code: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let resp_body = String::from_utf8_lossy(&raw[head_end + 4..]);
    Ok((
        format!("{status_line}\n{resp_body}"),
        if (200..300).contains(&code) { 0 } else { 4 },
    ))
}

/// `chaos <addr> [--seed N] [--cases N]` — run the seeded socket-fault
/// campaign against a *running* server and report per-fault outcomes.
/// Exit code 2 when any case violates the teardown invariant.
fn cmd_chaos(args: &[String]) -> Result<(String, u8), String> {
    use grdf::runtime::SeededDecider;
    use grdf::server::{build_request, run_case};
    use std::collections::BTreeMap;
    use std::net::ToSocketAddrs;

    let mut addr: Option<&str> = None;
    let mut seed: u64 = 42;
    let mut cases: u64 = 50;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i)
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--seed" => {
                seed = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--cases" => {
                cases = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown chaos flag {flag:?}")),
            a => {
                if addr.replace(a).is_some() {
                    return Err("chaos takes exactly one address".to_string());
                }
            }
        }
        i += 1;
    }
    let addr = addr.ok_or("chaos needs a server address (host:port)")?;
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: no usable address"))?;
    let decider = SeededDecider::new(seed);
    let request = build_request("/query", &[("x-role", PROBE_ROLE)], b"ASK { ?s ?p ?o }");
    let mut by_fault: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut violations = 0u64;
    for n in 0..cases {
        let outcome = run_case(
            addr,
            &decider,
            n,
            &request,
            std::time::Duration::from_secs(2),
        )
        .map_err(|e| format!("case {n}: {e}"))?;
        let entry = by_fault.entry(format!("{:?}", outcome.fault)).or_default();
        entry.0 += 1;
        if !outcome.ok {
            entry.1 += 1;
            violations += 1;
        }
    }
    let mut out = format!("chaos campaign: seed {seed}, {cases} case(s)\n");
    for (fault, (total, bad)) in &by_fault {
        out.push_str(&format!(
            "  {fault:<22} {total:>4} case(s), {bad} violation(s)\n"
        ));
    }
    out.push_str(&if violations == 0 {
        "PASS: every fault ended in clean teardown or a well-formed response".to_string()
    } else {
        format!("FAIL: {violations} torn/ill-formed response(s)")
    });
    Ok((out, if violations == 0 { 0 } else { 2 }))
}

/// `sim [--seed N] [--steps N] [--quick] [--replay] [--shrink] [--bug B]
/// [--swarm N] [--out DIR] [--json]` — the deterministic whole-system
/// simulation (DESIGN.md §16).
///
/// Single-seed mode runs one schedule and reports the verdict; `--replay`
/// runs it twice and proves the fingerprint (verdict, graph hash, audit
/// length) is bit-identical; `--shrink` greedily minimizes a failing
/// schedule. `--swarm N` sweeps N consecutive seeds (the CI `sim-swarm`
/// job), persisting every failure as `{master_seed, step_count}` JSON
/// plus a shrunk counterexample under `--out`. Exit code 2 when any
/// oracle was violated.
fn cmd_sim(args: &[String]) -> Result<(String, u8), String> {
    use grdf::runtime::SeedTree;
    use grdf::sim::{run, shrink_seed, SimConfig};

    let mut seed = SeedTree::from_env("GRDF_MASTER_SEED", 0x51D_BA5E).master();
    let mut steps: Option<usize> = None;
    let mut quick = false;
    let mut replay = false;
    let mut do_shrink = false;
    let mut bug: Option<grdf::sim::Bug> = None;
    let mut swarm: Option<u64> = None;
    let mut out_dir: Option<String> = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i)
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--seed" => {
                let v = flag_value(&mut i)?;
                seed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => {
                        u64::from_str_radix(hex, 16).map_err(|e| format!("--seed: {e}"))?
                    }
                    None => v.parse().map_err(|e| format!("--seed: {e}"))?,
                };
            }
            "--steps" => {
                steps = Some(
                    flag_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?,
                );
            }
            "--quick" => quick = true,
            "--replay" => replay = true,
            "--shrink" => do_shrink = true,
            "--bug" => bug = Some(flag_value(&mut i)?.parse()?),
            "--swarm" => {
                swarm = Some(
                    flag_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--swarm: {e}"))?,
                );
            }
            "--out" => out_dir = Some(flag_value(&mut i)?.clone()),
            "--json" => json = true,
            other => return Err(format!("unknown sim flag {other:?}")),
        }
        i += 1;
    }
    let steps = steps.unwrap_or(if quick { 60 } else { 120 });
    let config_for = |master: u64| {
        let mut c = SimConfig::new(master, steps);
        c.bug = bug;
        c
    };
    let persist_failure = |dir: &str, config: &SimConfig| -> Result<String, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let report = run(config);
        let case = format!(
            "{}/seed-{:016x}.json",
            dir.trim_end_matches('/'),
            config.master_seed
        );
        std::fs::write(&case, report.to_json()).map_err(|e| format!("{case}: {e}"))?;
        let mut wrote = format!("wrote {case}");
        if let Some(shrunk) = shrink_seed(config) {
            let min = format!(
                "{}/seed-{:016x}.shrunk.txt",
                dir.trim_end_matches('/'),
                config.master_seed
            );
            std::fs::write(&min, shrunk.render()).map_err(|e| format!("{min}: {e}"))?;
            wrote.push_str(&format!(", {min}"));
        }
        Ok(wrote)
    };

    if let Some(count) = swarm {
        let mut out = format!(
            "sim swarm: seeds {seed}..{} ({steps} step(s) each)\n",
            seed + count
        );
        let mut failures = 0u64;
        for k in 0..count {
            let config = config_for(seed.wrapping_add(k));
            let report = run(&config);
            if report.passed() {
                continue;
            }
            failures += 1;
            out.push_str(&format!(
                "FAIL seed {:#x}: {} violation(s); replay: grdf-cli sim --seed {:#x} --steps {}\n",
                config.master_seed,
                report.violations.len(),
                config.master_seed,
                steps
            ));
            for v in &report.violations {
                out.push_str(&format!("  {v}\n"));
            }
            if let Some(dir) = &out_dir {
                out.push_str(&format!("  {}\n", persist_failure(dir, &config)?));
            }
        }
        out.push_str(&if failures == 0 {
            format!("PASS: {count} seed(s), every oracle held")
        } else {
            format!("FAIL: {failures}/{count} seed(s) violated oracles")
        });
        return Ok((out, u8::from(failures > 0) * 2));
    }

    let config = config_for(seed);
    let report = run(&config);
    let mut out = if json {
        report.to_json()
    } else {
        let mut s = format!(
            "sim: seed {:#x}, {} step(s), {} fault event(s)\n\
             acked {} update(s), denied {}, {} recover(ies), {} audit line(s), graph {:016x}\n",
            report.master_seed,
            report.steps,
            report.faults_enabled,
            report.acked,
            report.denied,
            report.recoveries,
            report.audit_total,
            report.graph_hash
        );
        if report.passed() {
            s.push_str("PASS: every oracle held");
        } else {
            s.push_str(&format!("FAIL: {} violation(s)", report.violations.len()));
            for v in &report.violations {
                s.push_str(&format!("\n  {v}"));
            }
        }
        s
    };
    if replay {
        let again = run(&config);
        if again.fingerprint() == report.fingerprint() {
            out.push_str("\nreplay: bit-identical (verdict, graph hash, audit length)");
        } else {
            out.push_str(&format!(
                "\nreplay: DIVERGED — {:?} vs {:?}",
                report.fingerprint(),
                again.fingerprint()
            ));
            return Ok((out, 2));
        }
    }
    if !report.passed() {
        if let Some(shrunk) = do_shrink.then(|| shrink_seed(&config)).flatten() {
            out.push('\n');
            out.push_str(&shrunk.render());
        }
        if let Some(dir) = &out_dir {
            out.push('\n');
            out.push_str(&persist_failure(dir, &config)?);
        }
        return Ok((out, 2));
    }
    Ok((out, 0))
}

/// One plain HTTP/1.1 GET; returns `(status, body)`.
fn http_get(authority: &str, path: &str) -> Result<(u16, String), String> {
    use std::io::{Read, Write};

    let mut stream =
        std::net::TcpStream::connect(authority).map_err(|e| format!("{authority}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nhost: {authority}\r\nconnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("{authority}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{authority}: {e}"))?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("malformed response: no header terminator")?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or("malformed status line")?;
    Ok((
        status,
        String::from_utf8_lossy(&raw[head_end + 4..]).into_owned(),
    ))
}

/// `top <addr> [--iterations N] [--interval-ms N]` — poll a running
/// server's `/metrics` exposition and tabulate per-tenant QPS (trailing
/// minute), windowed p99 latency, and sheds, with an SLO burn-rate
/// footer. One frame per iteration.
fn cmd_top(args: &[String]) -> Result<(String, u8), String> {
    use grdf::obs::expo;

    let mut addr: Option<&str> = None;
    let mut iterations: u32 = 1;
    let mut interval = std::time::Duration::from_secs(1);
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i)
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--iterations" => {
                iterations = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?;
            }
            "--interval-ms" => {
                let ms: u64 = flag_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?;
                interval = std::time::Duration::from_millis(ms);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown top flag {flag:?}")),
            a => {
                if addr.replace(a).is_some() {
                    return Err("top takes exactly one address".to_string());
                }
            }
        }
        i += 1;
    }
    let addr = addr.ok_or("top needs a server address (host:port)")?;
    let authority = addr.strip_prefix("http://").unwrap_or(addr);
    let mut out = String::new();
    for frame in 0..iterations.max(1) {
        if frame > 0 {
            std::thread::sleep(interval);
            out.push('\n');
        }
        let (status, body) = http_get(authority, "/metrics")?;
        if status != 200 {
            return Err(format!("{authority}/metrics returned {status}"));
        }
        let parsed = expo::parse(&body).map_err(|e| format!("/metrics is nonconformant: {e}"))?;
        out.push_str(&render_top_frame(&parsed));
    }
    Ok((out, 0))
}

/// One `top` frame from a parsed exposition.
fn render_top_frame(parsed: &grdf::obs::expo::Exposition) -> String {
    let mut out = String::new();
    let mut tenants: Vec<&str> = parsed
        .named("grdf_w1m_server_requests")
        .iter()
        .filter_map(|s| s.label("tenant"))
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    out.push_str(&format!(
        "{:<20} {:>8} {:>10} {:>8}\n",
        "TENANT", "QPS", "P99(ms)", "SHED"
    ));
    for tenant in tenants {
        let qps = parsed
            .value_with("grdf_w1m_server_requests", "tenant", tenant)
            .unwrap_or(0.0)
            / 60.0;
        let p99_ms = parsed
            .value_with("grdf_w1m_server_latency_p99", "tenant", tenant)
            .unwrap_or(0.0)
            / 1000.0;
        let shed = parsed
            .value_with("grdf_w1m_server_shed", "tenant", tenant)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "{tenant:<20} {qps:>8.2} {p99_ms:>10.2} {shed:>8.0}\n"
        ));
    }
    let objectives = parsed.named("grdf_slo_burn_fast");
    if !objectives.is_empty() {
        out.push_str("slo:\n");
        for s in objectives {
            let Some(name) = s.label("objective") else {
                continue;
            };
            let slow = parsed
                .value_with("grdf_slo_burn_slow", "objective", name)
                .unwrap_or(0.0);
            let burning = parsed
                .value_with("grdf_slo_burning", "objective", name)
                .unwrap_or(0.0)
                > 0.0;
            out.push_str(&format!(
                "  {:<16} burn {:.2}/{:.2} [{}]\n",
                name,
                s.value,
                slow,
                if burning { "BURNING" } else { "ok" }
            ));
        }
    }
    out
}

/// `metrics-check <file>` — the CI format-conformance gate: parse a
/// scraped Prometheus exposition and fail (exit 2) on any violation.
fn cmd_metrics_check(args: &[String]) -> Result<(String, u8), String> {
    let [file] = args else {
        return Err("metrics-check takes exactly one scraped /metrics file".to_string());
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    match grdf::obs::expo::parse(&text) {
        Ok(parsed) => Ok((
            format!(
                "ok: {} sample(s) across {} declared famil(ies)",
                parsed.samples.len(),
                parsed.families.len()
            ),
            0,
        )),
        Err(e) => Ok((format!("nonconformant exposition: {e}"), 2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run`, discarding the exit code (for commands where only the text
    /// matters).
    fn run_text(args: &[String]) -> Result<String, String> {
        run(args).map(|(s, _)| s)
    }

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("grdf-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().to_string()
    }

    const TTL: &str = r#"@prefix app: <http://grdf.org/app#> .
@prefix grdf: <http://grdf.org/ontology#> .
app:s1 a app:ChemSite ; app:hasSiteName "NT Energy" .
"#;

    #[test]
    fn ontology_emits_turtle_and_rdfxml() {
        let ttl = run_text(&["ontology".into()]).unwrap();
        assert!(ttl.contains("grdf:Feature"));
        let xml = run_text(&["ontology".into(), "rdfxml".into()]).unwrap();
        assert!(xml.contains("<rdf:RDF"));
        assert!(run_text(&["ontology".into(), "wat".into()]).is_err());
    }

    #[test]
    fn convert_turtle_to_ntriples() {
        let path = write_temp("data.ttl", TTL);
        let nt = run_text(&["convert".into(), path, "nt".into()]).unwrap();
        assert!(nt.contains("<http://grdf.org/app#s1>"), "{nt}");
    }

    #[test]
    fn query_selects_rows() {
        let path = write_temp("q.ttl", TTL);
        let out = run_text(&[
            "query".into(),
            path,
            "PREFIX app: <http://grdf.org/app#> SELECT ?n WHERE { ?s app:hasSiteName ?n }".into(),
        ])
        .unwrap();
        assert!(out.contains("NT Energy"), "{out}");
        assert!(out.contains("(1 rows)"), "{out}");
    }

    #[test]
    fn query_from_file() {
        let data = write_temp("qf.ttl", TTL);
        let qfile = write_temp("query.rq", "ASK { ?s ?p ?o }");
        let out = run_text(&["query".into(), data, format!("@{qfile}")]).unwrap();
        assert_eq!(out, "true");
    }

    #[test]
    fn validate_reports_consistency() {
        let good = write_temp("good.ttl", TTL);
        let out = run_text(&["validate".into(), good]).unwrap();
        assert!(out.starts_with("consistent"), "{out}");

        let bad = write_temp(
            "bad.ttl",
            "@prefix grdf: <http://grdf.org/ontology#> .\n<urn:x> a grdf:Point , grdf:Node .",
        );
        let err = run_text(&["validate".into(), bad]).unwrap_err();
        assert!(err.contains("INCONSISTENT"), "{err}");
    }

    #[test]
    fn stats_summarizes() {
        let path = write_temp("stats.ttl", TTL);
        let out = run_text(&["stats".into(), path]).unwrap();
        assert!(out.contains("features:"), "{out}");
        assert!(out.contains("classes:"), "{out}");
    }

    #[test]
    fn health_reports_service_state() {
        let path = write_temp("health.ttl", TTL);
        let out = run_text(&["health".into(), path]).unwrap();
        assert!(out.contains("reasoner:"), "{out}");
        assert!(out.contains("breaker:"), "{out}");
        assert!(out.contains("closed"), "{out}");
        assert!(
            out.contains("1 hits"),
            "cache hit from the repeated probe: {out}"
        );
    }

    #[test]
    fn health_json_matches_the_server_renderer() {
        let path = write_temp("health_json.ttl", TTL);
        let (out, code) = run(&["health".into(), path, "--json".into()]).unwrap();
        assert_eq!(code, 0);
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
        for field in [
            "\"reasoner\":",
            "\"breaker\":",
            "\"requests\":",
            "\"p99_us\":",
        ] {
            assert!(out.contains(field), "missing {field} in {out}");
        }
    }

    #[test]
    fn server_commands_reject_bad_usage() {
        assert!(run_text(&["serve".into()]).is_err());
        assert!(run_text(&["serve".into(), "a.ttl".into(), "--frob".into()]).is_err());
        assert!(run_text(&["serve".into(), "a.ttl".into(), "--workers".into()]).is_err());
        assert!(run_text(&["client".into()]).is_err());
        assert!(run_text(&["client".into(), "ftp://x/".into()]).is_err());
        assert!(run_text(&["chaos".into()]).is_err());
        assert!(run_text(&["chaos".into(), "not-an-addr".into()]).is_err());
        assert!(run_text(&["health".into(), "a.ttl".into(), "--frob".into()]).is_err());
    }

    #[test]
    fn errors_for_bad_usage() {
        assert!(run_text(&[]).is_err());
        assert!(run_text(&["frobnicate".into()]).is_err());
        assert!(run_text(&["convert".into()]).is_err());
        assert!(run_text(&["query".into(), "nonexistent.ttl".into(), "ASK {}".into()]).is_err());
        assert!(run_text(&["lint".into()]).is_err());
        assert!(run_text(&[
            "lint".into(),
            "a.ttl".into(),
            "--format".into(),
            "yaml".into()
        ])
        .is_err());
        assert!(run_text(&["lint".into(), "a.ttl".into(), "--frob".into()]).is_err());
    }

    #[test]
    fn lint_clean_data_passes() {
        let path = write_temp("lint_clean.ttl", TTL);
        let (out, code) = run(&["lint".into(), path]).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn lint_reports_errors_with_exit_code_2() {
        // measureValue is declared with range xsd:double in the GRDF
        // ontology; a string value is the List 1 MeasureType problem.
        let bad = write_temp(
            "lint_bad.ttl",
            "@prefix grdf: <http://grdf.org/ontology#> .\n\
             @prefix app: <http://grdf.org/app#> .\n\
             app:v1 a grdf:Value ; grdf:measureValue \"10.5mp\" .",
        );
        let (out, code) = run(&["lint".into(), bad.clone()]).unwrap();
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("G006"), "{out}");
        let (json, code) = run(&["lint".into(), bad, "--format".into(), "json".into()]).unwrap();
        assert_eq!(code, 2);
        assert!(json.starts_with("{\"version\":2"), "{json}");
        assert!(json.contains("\"tool_version\""), "{json}");
        assert!(json.contains("\"codes\":[\"G006\"]"), "{json}");
        assert!(json.contains("\"code\":\"G006\""), "{json}");
    }

    #[test]
    fn lint_deny_warnings_rejects_with_exit_code_3() {
        // An edge realized next to one that is not: T001, a warning.
        let warn = write_temp(
            "lint_warn.ttl",
            "@prefix grdf: <http://grdf.org/ontology#> .\n\
             @prefix app: <http://grdf.org/app#> .\n\
             app:n1 a grdf:Node . app:n2 a grdf:Node .\n\
             app:e1 a grdf:Edge ; grdf:startNode app:n1 ; grdf:endNode app:n2 ;\n\
                    grdf:realizedBy app:c1 .\n\
             app:e2 a grdf:Edge ; grdf:startNode app:n2 ; grdf:endNode app:n1 .\n\
             app:c1 a grdf:Curve .",
        );
        let (out, code) = run(&["lint".into(), warn.clone()]).unwrap();
        assert_eq!(code, 0, "warnings pass by default: {out}");
        assert!(out.contains("T001"), "{out}");
        let (_, code) = run(&["lint".into(), warn, "--deny-warnings".into()]).unwrap();
        assert_eq!(code, 3);
    }

    #[test]
    fn lint_separate_policy_file() {
        use grdf::rdf::graph::Graph;
        use grdf::security::Policy;
        // Encode a structurally-broken policy (empty role → S005) in the
        // List 8 RDF shape and lint it against clean data.
        let mut pg = Graph::new();
        Policy::permit(
            "http://grdf.org/security#bad",
            "",
            "http://grdf.org/app#ChemSite",
        )
        .encode(&mut pg);
        let pttl = write_temp("lint_policies.nt", &grdf::rdf::ntriples::serialize(&pg));
        let data = write_temp("lint_pdata.ttl", TTL);
        let (out, code) = run(&["lint".into(), data, "--policies".into(), pttl]).unwrap();
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("S005"), "{out}");
    }

    #[test]
    fn gml_input_detected_by_extension() {
        let gml = write_temp(
            "in.gml",
            r#"<gml:FeatureCollection xmlns:gml="http://www.opengis.net/gml" xmlns:app="http://grdf.org/app#">
              <gml:featureMember><app:Well gml:id="w1"><app:depth>12.5</app:depth></app:Well></gml:featureMember>
            </gml:FeatureCollection>"#,
        );
        let out = run_text(&["convert".into(), gml, "turtle".into()]).unwrap();
        assert!(out.contains("app:w1"), "{out}");
    }
}
