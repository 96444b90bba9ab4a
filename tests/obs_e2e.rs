//! End-to-end observability suite for the tenant-attributed SLO engine:
//!
//! 1. **Acceptance (ManualClock)** — multi-tenant load driven through the
//!    windowed store via the production scope/tee path, asserting exact
//!    per-tenant rates and windowed latency summaries; the burn-rate
//!    alert fires on the fast window and clears after recovery; tenant
//!    cardinality stays capped.
//! 2. **Exposition conformance** — a live server's `/metrics` parses
//!    under the Prometheus conformance parser, carries per-tenant
//!    windowed gauges, and its exemplar trace ids resolve to spans in
//!    the trace sink.
//! 3. **Degraded admission** — a burning objective sheds a fixed
//!    fraction of mutating traffic with `503` while probes stay exempt.
//! 4. **Trace propagation across durability** — `/update`'s `X-Trace-Id`
//!    appears on the WAL-append and checkpoint-rotation spans and in the
//!    durable audit JSONL.
//! 5. **Cardinality regression** — 10k distinct tenant ids over one
//!    keep-alive connection cannot grow the registry or the windowed
//!    store past the configured cap.
//! 6. **Health from the registry** — `health()` reports the request
//!    count and the wall-time quantiles of the registry's
//!    `gsacs.requests` counter and `gsacs.wall_us` histogram, failed
//!    requests included.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use grdf::feature::{encode_feature, Feature};
use grdf::obs::{Objective, Obs, SloEngine, SloState, TenantDim, WindowConfig};
use grdf::rdf::vocab::grdf as ns;
use grdf::rdf::Graph;
use grdf::runtime::{system_clock, Clock, ManualClock};
use grdf::security::gsacs::{ClientRequest, GSacs, OntoRepository, OwlHorstEngine};
use grdf::security::policy::{Action, Policy, PolicySet};
use grdf::security::resilience::{FaultInjector, GsacsError, ResilienceConfig, Stage};
use grdf::server::{GrdfServer, ServerConfig};
use grdf::store::{MemBackend, StorageBackend, StoreConfig};

fn site_data(n: usize) -> Graph {
    let mut data = Graph::new();
    for i in 0..n {
        let mut site = Feature::new(&ns::app(&format!("site{i}")), "ChemSite");
        site.set_property("hasSiteName", format!("Site {i}").as_str());
        encode_feature(&mut data, &site);
    }
    data
}

fn policies() -> PolicySet {
    PolicySet::new(vec![
        Policy::permit(&ns::sec("E1"), &ns::sec("Emergency"), &ns::app("ChemSite")),
        Policy {
            action: Action::Edit,
            ..Policy::permit(&ns::sec("E2"), &ns::sec("Emergency"), &ns::app("ChemSite"))
        },
    ])
}

fn service(config: ResilienceConfig) -> GSacs {
    GSacs::with_resilience(
        OntoRepository::new(),
        policies(),
        Box::<OwlHorstEngine>::default(),
        site_data(8),
        16,
        config,
    )
}

fn select_query() -> String {
    format!(
        "PREFIX app: <{}>\nSELECT ?n WHERE {{ ?s app:hasSiteName ?n }}",
        ns::APP_NS
    )
}

/// One lockstep request/response exchange on an open keep-alive
/// connection: write the request, then read exactly one response
/// (headers + `content-length` body). Returns the raw response.
fn exchange(stream: &mut TcpStream, request: &[u8]) -> Vec<u8> {
    stream.write_all(request).expect("write request");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "peer closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().to_string())
        })
        .and_then(|v| v.parse().ok())
        .expect("content-length header");
    let total = head_end + 4 + content_length;
    while buf.len() < total {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "peer closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    buf.truncate(total);
    buf
}

/// A keep-alive request (unlike the chaos harness's `build_request`,
/// no `connection: close`).
fn keepalive_request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    for (name, value) in headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out
}

fn status_of(raw: &[u8]) -> u16 {
    String::from_utf8_lossy(raw)
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

fn body_of(raw: &[u8]) -> String {
    let text = String::from_utf8_lossy(raw);
    text.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// 1. ManualClock acceptance
// ---------------------------------------------------------------------------

#[test]
fn windowed_store_attributes_tenants_exactly_and_burn_alert_fires_and_clears() {
    let clock = Arc::new(ManualClock::new());
    let obs = Obs::new().with_windows(
        WindowConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let ws = Arc::clone(obs.windows().expect("windows attached"));
    let dim = TenantDim::new(4, Duration::from_hours(1));
    let now = || clock.now();

    // Ten 10-second slots of steady two-tenant traffic through the
    // production path: scope → set_tenant → free-function tees.
    // Per slot: acme sends 5 requests at 2 ms, globex 10 at 8 ms.
    for _slot in 0..10 {
        for (tenant, n, latency_us) in [("acme", 5u64, 2_000u64), ("globex", 10, 8_000)] {
            let _scope = obs.scope("e2e.load");
            grdf::obs::set_tenant(dim.resolve(tenant, now()).label);
            for _ in 0..n {
                grdf::obs::add("server.requests", 1);
                grdf::obs::observe("server.latency", latency_us);
            }
        }
        clock.advance(Duration::from_secs(10));
    }

    // Exact per-tenant attribution over the trailing 5 minutes (the
    // whole run so far).
    let w = Duration::from_mins(5);
    assert_eq!(ws.window_sum("server.requests", Some("acme"), w), 50);
    assert_eq!(ws.window_sum("server.requests", Some("globex"), w), 100);
    assert_eq!(ws.window_sum("server.requests", None, w), 150);
    assert!((ws.rate("server.requests", Some("acme"), w) - 50.0 / 300.0).abs() < 1e-9);
    assert!((ws.rate("server.requests", Some("globex"), w) - 100.0 / 300.0).abs() < 1e-9);
    let acme = ws
        .summary("server.latency", Some("acme"), w)
        .expect("acme summary");
    assert_eq!((acme.count, acme.sum, acme.max), (50, 50 * 2_000, 2_000));
    let globex = ws
        .summary("server.latency", Some("globex"), w)
        .expect("globex summary");
    assert_eq!(
        (globex.count, globex.sum, globex.max),
        (100, 100 * 8_000, 8_000)
    );
    // Windowed p99 lands in each tenant's log₂-bucket value range and
    // the tenants stay distinguishable.
    let p99_acme = ws
        .quantile("server.latency", Some("acme"), w, 0.99)
        .unwrap();
    let p99_globex = ws
        .quantile("server.latency", Some("globex"), w, 0.99)
        .unwrap();
    assert!((1_024..=2_048).contains(&p99_acme), "acme p99: {p99_acme}");
    assert!(
        (4_096..=8_192).contains(&p99_globex),
        "globex p99: {p99_globex}"
    );
    assert!(p99_globex > p99_acme);

    // Multi-window burn-rate: healthy traffic stays under the 20 ms
    // objective, an incident fires it, fast-window recovery clears it.
    let eng = SloEngine::new(vec![Objective::parse(
        "lat: p99(server.latency) < 20ms over 1m",
    )
    .unwrap()]);
    assert_eq!(eng.evaluate(&ws)[0].state, SloState::Ok);
    {
        let _scope = obs.scope("e2e.incident");
        for _ in 0..2_000 {
            grdf::obs::observe("server.latency", 100_000);
        }
    }
    let s = eng.evaluate(&ws).remove(0);
    assert_eq!(s.state, SloState::Burning, "incident should fire: {s:?}");
    assert!(s.burn_fast > 1.0 && s.burn_slow > 1.0);
    clock.advance(Duration::from_secs(70));
    {
        let _scope = obs.scope("e2e.recovery");
        for _ in 0..500 {
            grdf::obs::observe("server.latency", 2_000);
        }
    }
    let s = eng.evaluate(&ws).remove(0);
    assert_eq!(s.state, SloState::Ok, "fast-window recovery clears: {s:?}");
    assert!(s.burn_slow > 1.0, "slow window still remembers: {s:?}");

    // Cardinality: with both live tenants pinning slots and nothing idle
    // long enough to recycle, a burst of fresh ids fills the two free
    // slots and then collapses into `other`.
    for i in 0..1_000 {
        let r = dim.resolve(&format!("burst{i}"), now());
        if i >= 2 {
            assert_eq!(&*r.label, TenantDim::OVERFLOW, "burst{i} must overflow");
        }
    }
    assert!(dim.labels().len() <= 5, "labels: {:?}", dim.labels());
    // 2 teed series names × (global + ≤5 tenant labels) bounds the store.
    assert!(ws.series_count() <= 12, "series: {}", ws.series_count());
}

// ---------------------------------------------------------------------------
// 2. /metrics conformance + exemplar resolution
// ---------------------------------------------------------------------------

#[test]
fn metrics_exposition_conforms_and_exemplars_resolve_in_the_trace_sink() {
    let obs = Obs::with_tracing(256).with_windows(WindowConfig::default(), system_clock());
    let config = ResilienceConfig {
        obs,
        ..ResilienceConfig::default()
    };
    let server =
        GrdfServer::bind("127.0.0.1:0", service(config), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let wanted = "deadbeefcafe";
    for i in 0..4 {
        let raw = exchange(
            &mut conn,
            &keepalive_request(
                "POST",
                "/query",
                &[
                    ("x-role", &ns::sec("Emergency")),
                    ("x-tenant", "acme"),
                    ("x-trace-id", &format!("{wanted}{i:04}")),
                ],
                select_query().as_bytes(),
            ),
        );
        assert_eq!(status_of(&raw), 200, "{}", body_of(&raw));
    }
    let raw = exchange(&mut conn, &keepalive_request("GET", "/metrics", &[], b""));
    assert_eq!(status_of(&raw), 200);
    assert!(
        String::from_utf8_lossy(&raw).contains("content-type: text/plain; version=0.0.4"),
        "Prometheus content type"
    );
    let text = body_of(&raw);
    let parsed = grdf::obs::expo::parse(&text)
        .unwrap_or_else(|e| panic!("/metrics nonconformant: {e}\n{text}"));

    // Per-tenant windowed gauges for the bounded label.
    let acme_reqs = parsed
        .value_with("grdf_w1m_server_requests", "tenant", "acme")
        .expect("per-tenant request gauge");
    assert!(
        acme_reqs >= 4.0,
        "acme trailing-minute requests: {acme_reqs}"
    );
    assert!(parsed
        .value_with("grdf_w1m_server_latency_p99", "tenant", "acme")
        .is_some());

    // Exemplars on the latency histogram resolve to sink traces.
    let sink_ids: std::collections::BTreeSet<String> = server
        .obs()
        .sink()
        .records()
        .iter()
        .map(|r| r.id.to_string())
        .collect();
    let exemplars: Vec<String> = parsed
        .named("grdf_server_latency_bucket")
        .iter()
        .filter_map(|s| s.exemplar.as_ref().map(|(id, _)| id.clone()))
        .collect();
    assert!(!exemplars.is_empty(), "latency buckets carry exemplars");
    for id in &exemplars {
        assert!(
            sink_ids.contains(id),
            "exemplar {id} not resolvable in the sink ({sink_ids:?})"
        );
    }
    // Our requests pinned their trace ids, so every exemplar at scrape
    // time is one of them (16-hex form of deadbeefcafeNNNN).
    assert!(
        exemplars.iter().any(|id| id.contains(wanted)),
        "no exemplar from the pinned trace ids: {exemplars:?}"
    );

    // The JSON snapshot survives at /metrics.json for diff tooling.
    let raw = exchange(
        &mut conn,
        &keepalive_request("GET", "/metrics.json", &[], b""),
    );
    assert_eq!(status_of(&raw), 200);
    assert!(body_of(&raw).contains("\"counters\""));
    server.shutdown();
}

// ---------------------------------------------------------------------------
// 3. Degraded admission under a burning objective
// ---------------------------------------------------------------------------

#[test]
fn burning_slo_sheds_a_fraction_of_mutating_traffic_but_not_probes() {
    let obs = Obs::new().with_windows(WindowConfig::default(), system_clock());
    let config = ResilienceConfig {
        obs,
        // Impossible objective: any traffic at all burns it.
        slos: vec![Objective::parse("lat: p99(server.latency) < 1us over 1m").unwrap()],
        ..ResilienceConfig::default()
    };
    let server =
        GrdfServer::bind("127.0.0.1:0", service(config), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let query = |conn: &mut TcpStream| {
        status_of(&exchange(
            conn,
            &keepalive_request(
                "POST",
                "/query",
                &[("x-role", &ns::sec("Emergency"))],
                select_query().as_bytes(),
            ),
        ))
    };
    // Seed latency samples, then outlast the 1 s SLO-cache refresh so
    // the next evaluation sees them.
    for _ in 0..4 {
        assert_eq!(query(&mut conn), 200);
    }
    std::thread::sleep(Duration::from_millis(1100));
    let statuses: Vec<u16> = (0..16).map(|_| query(&mut conn)).collect();
    let shed = statuses.iter().filter(|s| **s == 503).count();
    assert!(
        (1..16).contains(&shed),
        "expected partial shedding, got {shed}/16: {statuses:?}"
    );
    // Probe endpoints stay exempt and report the burning objective.
    let raw = exchange(&mut conn, &keepalive_request("GET", "/health", &[], b""));
    assert_eq!(status_of(&raw), 200);
    assert!(
        body_of(&raw).contains("\"state\": \"burning\""),
        "health carries the burning SLO: {}",
        body_of(&raw)
    );
    assert!(server.obs().registry().counter("server.shed.slo").get() as usize >= shed);
    server.shutdown();
}

/// Regression: SLO-shed 503s must not feed the error-ratio objective
/// they were fired by. If they counted into `server.errors`, shedding
/// 1-in-4 requests would hold the fast window at a 25% error ratio and
/// the server would keep shedding forever after the incident resolved.
#[test]
fn shed_503s_do_not_sustain_an_error_ratio_burn() {
    let clock = Arc::new(ManualClock::new());
    let obs = Obs::new().with_windows(
        WindowConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let config = ResilienceConfig {
        obs,
        slos: vec![Objective::parse(
            "err: rate(server.errors) / rate(server.requests) < 10% over 1m",
        )
        .unwrap()],
        ..ResilienceConfig::default()
    };
    let cfg = ServerConfig {
        clock: Arc::clone(&clock) as Arc<dyn Clock>,
        keep_alive_requests: 20_000,
        ..ServerConfig::default()
    };
    let server = GrdfServer::bind("127.0.0.1:0", service(config), cfg).expect("bind");
    let ws = Arc::clone(server.obs().windows().expect("windows"));
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let query = |conn: &mut TcpStream| {
        status_of(&exchange(
            conn,
            &keepalive_request(
                "POST",
                "/query",
                &[("x-role", &ns::sec("Emergency"))],
                select_query().as_bytes(),
            ),
        ))
    };

    // Healthy seed traffic, then an incident: a burst of real errors
    // lands in the windowed store.
    for _ in 0..4 {
        assert_eq!(query(&mut conn), 200);
    }
    ws.add("server.errors", None, 100);
    clock.advance(Duration::from_secs(2)); // outlast the 1 s SLO cache
    let statuses: Vec<u16> = (0..8).map(|_| query(&mut conn)).collect();
    let shed = statuses.iter().filter(|s| **s == 503).count();
    assert!(
        (1..8).contains(&shed),
        "burning objective must shed a fraction: {statuses:?}"
    );

    // Recovery: the incident stops; traffic continues in SLO-cache-sized
    // steps until the injected errors age out of the 1 m fast window.
    // The shed 503s above (and along the way) must not re-enter
    // `server.errors`, or the burn would sustain itself indefinitely.
    for _ in 0..40 {
        clock.advance(Duration::from_secs(2));
        for _ in 0..4 {
            query(&mut conn);
        }
    }
    clock.advance(Duration::from_secs(2));
    let tail: Vec<u16> = (0..8).map(|_| query(&mut conn)).collect();
    assert!(
        tail.iter().all(|s| *s == 200),
        "shedding must clear once the incident ages out: {tail:?}"
    );
    // The only 5xx responses this test produced were self-inflicted
    // sheds, and none of them reached the error counter.
    assert_eq!(server.obs().registry().counter("server.errors").get(), 0);
    assert!(server.obs().registry().counter("server.shed.slo").get() >= shed as u64);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// 4. Trace-id propagation across durability
// ---------------------------------------------------------------------------

#[test]
fn update_trace_id_reaches_wal_checkpoint_spans_and_durable_audit() {
    let mem = Arc::new(MemBackend::new());
    let obs = Obs::with_tracing(256);
    let config = ResilienceConfig {
        obs,
        ..ResilienceConfig::default()
    };
    // A 1-byte checkpoint threshold: every applied update both appends
    // to the WAL and rotates a checkpoint, so one request crosses the
    // full durability surface.
    let svc = GSacs::create_durable(
        Arc::clone(&mem) as Arc<dyn StorageBackend>,
        StoreConfig {
            checkpoint_threshold: 1,
            ..StoreConfig::default()
        },
        OntoRepository::new(),
        policies(),
        Box::<OwlHorstEngine>::default(),
        site_data(8),
        16,
        config,
    )
    .expect("durable service");
    let server = GrdfServer::bind("127.0.0.1:0", svc, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let trace_id = "feedface0042";
    let update = format!(
        "+ <{}> <{}> \"observed\" .\n",
        ns::app("site0"),
        ns::app("hasInspectionNote")
    );
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let raw = exchange(
        &mut conn,
        &keepalive_request(
            "POST",
            "/update",
            &[("x-role", &ns::sec("Emergency")), ("x-trace-id", trace_id)],
            update.as_bytes(),
        ),
    );
    assert_eq!(status_of(&raw), 200, "{}", body_of(&raw));
    assert!(body_of(&raw).contains("\"applied\": 1"));

    // The spans of exactly that trace cover the WAL append and the
    // checkpoint rotation.
    let full_id = format!("{trace_id:0>16}");
    let record = server
        .obs()
        .sink()
        .records()
        .into_iter()
        .find(|r| r.id.to_string() == full_id)
        .unwrap_or_else(|| panic!("no trace with id {full_id}"));
    let span_names: Vec<&str> = record.spans.iter().map(|s| s.name).collect();
    assert!(
        span_names.contains(&"store.wal.append"),
        "WAL span missing: {span_names:?}"
    );
    assert!(
        span_names.contains(&"store.ckpt.rotate"),
        "checkpoint span missing: {span_names:?}"
    );

    server.shutdown();
    // The durable audit JSONL carries the same trace id on both the
    // update op and the checkpoint entry.
    let files = mem.clone_files();
    let audit = String::from_utf8_lossy(files.get("audit.jsonl").expect("audit file")).to_string();
    let with_id: Vec<&str> = audit.lines().filter(|l| l.contains(&full_id)).collect();
    assert!(
        with_id.iter().any(|l| l.contains("\"update-insert\"")),
        "audit JSONL lacks the traced update: {audit}"
    );
    assert!(
        with_id.iter().any(|l| l.contains("\"checkpoint\"")),
        "audit JSONL lacks the traced checkpoint: {audit}"
    );
}

// ---------------------------------------------------------------------------
// 5. Tenant-cardinality regression (PR 6 left `server.latency.<tenant>`
//    unbounded; the capped tenant dimension replaces it)
// ---------------------------------------------------------------------------

#[test]
fn ten_thousand_tenant_ids_cannot_grow_the_registry_or_window_store() {
    let obs = Obs::new().with_windows(WindowConfig::default(), system_clock());
    let config = ResilienceConfig {
        obs,
        ..ResilienceConfig::default()
    };
    let cfg = ServerConfig {
        keep_alive_requests: 20_000,
        tenant_cap: 8,
        ..ServerConfig::default()
    };
    let server = GrdfServer::bind("127.0.0.1:0", service(config), cfg).expect("bind");
    let addr: SocketAddr = server.local_addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for i in 0..10_000 {
        let tenant = format!("tenant-{i}");
        let raw = exchange(
            &mut conn,
            &keepalive_request("GET", "/health", &[("x-tenant", &tenant)], b""),
        );
        assert_eq!(status_of(&raw), 200, "request {i}");
    }
    let snapshot = server.obs().registry().snapshot().to_json();
    assert!(
        !snapshot.contains("server.latency.") && !snapshot.contains("tenant-"),
        "registry must hold no per-tenant series: {snapshot}"
    );
    let ws = server.obs().windows().expect("windows");
    // cap + `other`, never one label per raw id.
    assert!(
        ws.tenant_labels().len() <= 9,
        "tenant labels: {:?}",
        ws.tenant_labels()
    );
    assert!(
        ws.series_count() < 100,
        "windowed series must stay bounded: {}",
        ws.series_count()
    );
    server.shutdown();
}

/// Stalls each request at admission, on the injected clock, by the next
/// of its durations: under a manual clock that is the request's whole
/// wall time.
struct Stalls(Mutex<Vec<Duration>>);

impl FaultInjector for Stalls {
    fn inject(&self, stage: Stage, clock: &dyn Clock) -> Result<(), GsacsError> {
        if stage == Stage::Admission {
            if let Some(d) = self.0.lock().unwrap().pop() {
                clock.sleep(d);
            }
        }
        Ok(())
    }
}

fn emergency(query: String) -> ClientRequest {
    ClientRequest {
        role: ns::sec("Emergency"),
        query,
    }
}

#[test]
fn health_reports_the_registrys_request_count_and_wall_time_quantiles() {
    // 90 requests of 1 ms and 10 of 100 ms.
    let mut stalls = vec![Duration::from_millis(1); 90];
    stalls.extend([Duration::from_millis(100); 10]);
    let svc = service(ResilienceConfig {
        clock: Arc::new(ManualClock::new()),
        fault_injector: Some(Arc::new(Stalls(Mutex::new(stalls)))),
        ..ResilienceConfig::default()
    });
    for _ in 0..100 {
        svc.handle(&emergency(select_query())).expect("served");
    }
    let health = svc.health();
    let registry = svc.obs().registry();
    let wall = registry.histogram("gsacs.wall_us");
    assert_eq!(health.requests, 100);
    assert_eq!(registry.counter("gsacs.requests").get(), 100);
    assert_eq!(wall.count(), 100);
    assert_eq!(wall.sum(), 90 * 1_000 + 10 * 100_000);
    assert_eq!(health.p50, Duration::from_micros(wall.quantile(0.5)));
    assert_eq!(health.p99, Duration::from_micros(wall.quantile(0.99)));
    // Each quantile lies in the log2 bucket of the stall it measures:
    // [512, 1024) us, and [65536, 131072) us clamped to the 100 ms max.
    assert!((512..1_024).contains(&health.p50.as_micros()), "{health:?}");
    assert!(
        (65_536..=100_000).contains(&health.p99.as_micros()),
        "{health:?}"
    );
    let json = health.to_json();
    assert!(json.contains("\"requests\": 100"), "{json}");
    assert!(
        json.contains(&format!("\"p50_us\": {}", health.p50.as_micros())),
        "{json}"
    );
    assert!(
        json.contains(&format!("\"p99_us\": {}", health.p99.as_micros())),
        "{json}"
    );
}

#[test]
fn health_counts_and_times_failed_requests_like_served_ones() {
    let svc = service(ResilienceConfig::default());
    for _ in 0..3 {
        svc.handle(&emergency(select_query())).expect("served");
    }
    for _ in 0..2 {
        assert!(svc.handle(&emergency("SELECT WHERE".to_string())).is_err());
    }
    let registry = svc.obs().registry();
    assert_eq!(svc.health().requests, 5);
    assert_eq!(registry.counter("gsacs.errors").get(), 2);
    assert_eq!(registry.histogram("gsacs.wall_us").count(), 5);
}
