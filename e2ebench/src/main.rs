//! End-to-end benchmark of the secure G-SACS query path.
//!
//! ```text
//! e2ebench --workload <read_430k|ingest_40k|retract_40k> --seed N --seconds S --trace 0|1
//! e2ebench repeat --workload W --runs N [--seed S] [--seconds S]
//! ```
//!
//! A run restarts a durable G-SACS from a prepared store in a separate
//! process serving the real `grdf-server` on loopback, drives the
//! workload in a closed loop, checks every response, and prints a report
//! followed by one JSON line (`--trace 0`: end-to-end metrics; `--trace
//! 1`: per-layer metrics). `repeat` runs one workload N times and prints
//! the median, quartiles and range of every metric. See README.md.

mod check;
mod client;
mod data;
mod json;
mod run;
mod schedule;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grdf_obs::{Obs, WindowConfig};
use grdf_security::gsacs::{GSacs, OwlHorstEngine};
use grdf_security::resilience::ResilienceConfig;
use grdf_server::{GrdfServer, ServerConfig};
use grdf_store::{FsBackend, StorageBackend, StoreConfig};

use crate::run::{Metric, Outcome, RunConfig, Workload};

/// Where prepared stores, run copies and span files go, relative to the
/// directory the benchmark runs in.
const DATA_DIR: &str = ".e2ebench";

/// Every flag some command reads; any other is refused rather than
/// silently ignored.
const FLAGS: [&str; 9] = [
    "workload", "seed", "seconds", "trace", "scale", "data-dir", "runs", "out", "store",
];

struct Args {
    flags: BTreeMap<String, String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        let a = &pair[0];
        let Some(name) = a.strip_prefix("--").filter(|n| FLAGS.contains(n)) else {
            return Err(format!("unexpected argument {a:?}"));
        };
        let v = pair.get(1).ok_or_else(|| format!("{a} needs a value"))?;
        flags.insert(name.to_string(), v.clone());
    }
    Ok(Args { flags })
}

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn run_config(&self) -> Result<RunConfig, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let scale = match self.get("scale") {
            None => None,
            Some(s) => Some(
                [data::LARGE, data::MEDIUM, data::SMOKE]
                    .into_iter()
                    .find(|x| x.name == s)
                    .ok_or_else(|| format!("unknown scale {s:?}"))?,
            ),
        };
        let trace = match self.num::<u8>("trace", Some(0))? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        };
        let seconds: f64 = self.num("seconds", None)?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(RunConfig {
            workload,
            seed: self.num("seed", None)?,
            seconds,
            trace,
            data: PathBuf::from(self.get("data-dir").unwrap_or(DATA_DIR)),
            scale,
        })
    }

    fn run_config_for_repeat(&self) -> Result<RunConfig, String> {
        let mut a = Args {
            flags: self.flags.clone(),
        };
        a.flags.entry("seed".into()).or_insert_with(|| "1".into());
        a.flags
            .entry("seconds".into())
            .or_insert_with(|| "20".into());
        a.flags.remove("runs");
        a.run_config()
    }
}

fn fmt_metrics(metrics: &BTreeMap<&'static str, Metric>) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_report(cfg: &RunConfig, o: &Outcome) {
    println!(
        "e2ebench {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (title, metrics) in [
        ("end-to-end", &o.end_to_end),
        ("end-to-end (where defined)", &o.extra),
        ("per-layer", &o.per_layer),
    ] {
        println!("  {title}:");
        for (name, m) in metrics {
            println!(
                "    {name:<32} {:>14.4} {:<8} (n={})",
                m.value, m.unit, m.samples
            );
        }
    }
    for note in &o.notes {
        println!("  {note}");
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let cfg = args.run_config()?;
    let outcome = run::run(&cfg)?;
    print_report(&cfg, &outcome);
    let metrics = if cfg.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fmt_metrics(metrics)
    );
    Ok(())
}

/// Run one workload `--runs` times (seeds `--seed`, `--seed`+1, ...),
/// each in a process of its own so no run inherits another's state, and print
/// each metric's median, quartiles, range and relative spread.
fn cmd_repeat(args: &Args) -> Result<(), String> {
    let cfg = args.run_config_for_repeat()?;
    let runs: u64 = args.num("runs", Some(10))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut failed = 0;
    for i in 0..runs {
        let seed = cfg.seed + i;
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", cfg.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .arg("--data-dir")
            .arg(&cfg.data);
        if let Some(scale) = cfg.scale {
            cmd.args(["--scale", scale.name]);
        }
        let out = cmd.output().map_err(|e| format!("spawn run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "run with seed {seed} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let last = stdout.lines().last().unwrap_or_default();
        println!("run {i} seed {seed}: {last}");
        let _ = std::io::stdout().flush();
        if !last.contains("\"failed\": 0,") {
            failed += 1;
        }
        // Report lines: `    <name> <value> <unit> (n=<samples>)`.
        for line in stdout.lines().filter(|l| l.starts_with("    ")) {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [name, value, unit, _] = f.as_slice() {
                if let Ok(v) = value.parse::<f64>() {
                    let e = values
                        .entry((*name).to_string())
                        .or_insert((Vec::new(), (*unit).to_string()));
                    e.0.push(v);
                }
            }
        }
    }
    println!(
        "{} x {} ({} s each), {failed} run(s) with failed operations",
        cfg.workload.name(),
        runs,
        cfg.seconds
    );
    println!(
        "  {:<40} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "metric", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (name, (v, unit)) in &values {
        let med = stats::median(v).unwrap_or(0.0);
        let (q1, q3) = stats::quartiles(v).unwrap_or((med, med));
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
        println!(
            "  {:<40} {med:>12.4} {q1:>12.4} {q3:>12.4} {lo:>12.4} {hi:>12.4} {spread:>8.4}",
            format!("{name} [{unit}]")
        );
    }
    Ok(())
}

/// Child process: write a fresh prepared store.
fn cmd_prepare(args: &Args) -> Result<(), String> {
    let name = args.get("scale").ok_or("--scale is required")?;
    let scale = [data::LARGE, data::MEDIUM, data::SMOKE]
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown scale {name:?}"))?;
    let out = Path::new(args.get("out").ok_or("--out is required")?);
    data::prepare(&scale, out).map(|_| ())
}

/// Child process: the service under test. Restarts G-SACS from `--store`
/// as `grdf-cli serve` configures it (256-trace sink, windowed metrics,
/// 10 ms profiler, 16-entry query cache) with no SLO objectives and no
/// tenant quota, and serves it on loopback with the default
/// `ServerConfig` until told to stop (or until its stdin closes).
fn cmd_serve(args: &Args) -> Result<(), String> {
    let store = Path::new(args.get("store").ok_or("--store is required")?);
    let cfg = ServerConfig::default();
    let obs = Obs::with_tracing(256)
        .with_windows(WindowConfig::default(), Arc::clone(&cfg.clock))
        .with_profiler(Duration::from_millis(10), Arc::clone(&cfg.clock));
    let config = ResilienceConfig {
        obs,
        ..ResilienceConfig::default()
    };
    let backend = FsBackend::open(store).map_err(|e| format!("{}: {e}", store.display()))?;
    let (svc, recovered) = GSacs::recover_with_resilience(
        Arc::new(backend) as Arc<dyn StorageBackend>,
        StoreConfig::default(),
        Box::<OwlHorstEngine>::default(),
        data::CACHE_CAPACITY,
        config,
    )
    .map_err(|e| format!("recover: {e}"))?;
    // Integrity evidence for the benchmark; its time is reported so the
    // parent can keep it out of `setup_s`.
    let t = Instant::now();
    let base_triples = recovered.base.len();
    let base_hash = data::canonical_hash(&recovered.base);
    let hash_secs = t.elapsed().as_secs_f64();
    drop(recovered);
    let served_triples = svc.dataset().len();
    let server = GrdfServer::bind("127.0.0.1:0", svc, cfg).map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "listening {} {base_triples} {base_hash:016x} {hash_secs} {served_triples}",
        server.local_addr()
    )
    .and_then(|()| out.flush())
    .map_err(|e| e.to_string())?;
    drop(out);
    for line in std::io::stdin().lock().lines() {
        if line.map_or(true, |l| l.trim() == "stop") {
            break;
        }
    }
    server.shutdown();
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("repeat" | "prepare" | "serve")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let result = parse_args(rest).and_then(|args| match cmd {
        "repeat" => cmd_repeat(&args),
        "prepare" => cmd_prepare(&args),
        "serve" => cmd_serve(&args),
        _ => cmd_run(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
