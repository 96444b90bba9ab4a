//! Metrics snapshot for CI: runs the E6 request-stream workload against
//! an instrumented G-SACS service and writes the registry *delta*
//! (workload-attributable counters and histograms, excluding
//! construction-time activity) as JSON.
//!
//! Snapshots are stamped with a **run id** minted from the durable
//! store's boot counter (`--state-dir`, default `target/metrics-state`):
//! counters reset to zero on restart, so a delta across process
//! lifetimes is meaningless. The diff mode refuses exactly that.
//!
//! Usage:
//!
//! * `metrics-snapshot [PATH]` — run the workload, write the run-id
//!   stamped delta to `PATH` (default `BENCH_METRICS.json`).
//! * `metrics-snapshot --diff BASE.json CURRENT.json [OUT.json]` — delta
//!   two previously written snapshots. Exits 2 with an explanation when
//!   the files carry different run ids.

use grdf_bench::{incident_graph, scenario_policies};
use grdf_core::ontology::grdf_ontology;
use grdf_obs::{MetricsSnapshot, Obs};
use grdf_security::gsacs::{ClientRequest, GSacs, OntoRepository, OwlHorstEngine};
use grdf_security::ResilienceConfig;
use grdf_store::{bump_boot, FsBackend};
use grdf_workload::requests::{generate_requests, RequestConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        diff_mode(&args[1..]);
        return;
    }
    let mut path = "BENCH_METRICS.json".to_string();
    let mut state_dir = "target/metrics-state".to_string();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--state-dir" {
            state_dir = it.next().expect("--state-dir needs a directory");
        } else {
            path = a;
        }
    }
    let run_id = mint_run_id(&state_dir);
    let obs = Obs::new();
    let config = ResilienceConfig {
        obs: obs.clone(),
        ..ResilienceConfig::default()
    };
    let mut repo = OntoRepository::new();
    repo.register("grdf", grdf_ontology());
    repo.register("seconto", grdf_security::ontology::security_ontology());
    let svc = GSacs::with_resilience(
        repo,
        scenario_policies(),
        Box::<OwlHorstEngine>::default(),
        incident_graph(100, 100, 17),
        64,
        config,
    );
    // Baseline *after* construction: the snapshot attributes only the
    // workload itself.
    let baseline = obs.registry().snapshot().with_run_id(run_id);
    let requests: Vec<ClientRequest> = generate_requests(&RequestConfig {
        count: 200,
        distinct_queries: 100,
        zipf_s: 1.2,
        seed: 23,
        ..Default::default()
    })
    .into_iter()
    .map(|r| ClientRequest {
        role: r.role,
        query: r.query,
    })
    .collect();
    let mut rows = 0usize;
    for r in &requests {
        rows += svc.handle(r).map_or(0, |res| res.select_rows().len());
    }
    let current = obs.registry().snapshot().with_run_id(run_id);
    let delta = current
        .try_delta(&baseline)
        .expect("same-process snapshots share a run id");
    std::fs::write(&path, delta.to_json()).expect("write metrics json");
    println!(
        "e6 request stream: {} requests, {} result rows (run id {run_id})",
        requests.len(),
        rows
    );
    println!("{}", delta.render());
    eprintln!("wrote {path}");
}

/// Boot-counter bump in `state_dir`: each invocation gets a fresh,
/// monotonically increasing run id, so two tool runs never share one.
fn mint_run_id(state_dir: &str) -> u64 {
    let backend = FsBackend::open(state_dir)
        .unwrap_or_else(|e| panic!("cannot open state dir {state_dir}: {e}"));
    bump_boot(&backend).unwrap_or_else(|e| panic!("cannot bump boot counter: {e}"))
}

/// `--diff BASE CURRENT [OUT]`: subtract two snapshot files, refusing
/// run-id mismatches (the cross-restart case the stamp exists to catch).
fn diff_mode(args: &[String]) {
    let [base_path, current_path, rest @ ..] = args else {
        eprintln!("usage: metrics-snapshot --diff BASE.json CURRENT.json [OUT.json]");
        std::process::exit(1);
    };
    let base = read_snapshot(base_path);
    let current = read_snapshot(current_path);
    match current.try_delta(&base) {
        Ok(delta) => {
            print!("{}", delta.render());
            if let Some(out) = rest.first() {
                std::fs::write(out, delta.to_json()).expect("write delta json");
                eprintln!("wrote {out}");
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn read_snapshot(path: &str) -> MetricsSnapshot {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    MetricsSnapshot::from_json(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}
