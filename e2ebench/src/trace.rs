//! The traced run's instruments: spans kept in memory and written out at
//! exit, and the direct calls into each layer's public entry points.
//!
//! Direct calls never touch the served state. They run on a replica
//! restarted from the same prepared store (which receives the same
//! requests in the same order, so its caches and views track the served
//! process), on copies of its graphs, or on a scratch store.

use std::collections::HashMap;
use std::io::{Cursor, Read, Write};
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use grdf_owl::reasoner::Reasoner;
use grdf_query::eval::execute_query_with_deadline;
use grdf_query::parser::parse_query;
use grdf_rdf::graph::Graph;
use grdf_rdf::ntriples;
use grdf_rdf::term::Triple;
use grdf_runtime::{Budget, Deadline};
use grdf_security::gsacs::{
    ClientRequest, GSacs, OwlHorstEngine, UpdateOp, UpdateOutcome, UpdateRequest,
};
use grdf_security::policy::{Access, Action, Policy, PolicySet};
use grdf_security::resilience::ResilienceConfig;
use grdf_security::views::{secure_view, secure_view_explained};
use grdf_server::http::HttpConn;
use grdf_store::{DurableStore, FsBackend, LoggedOp, StorageBackend, StoreConfig};

use crate::data::{copy_store, CACHE_CAPACITY};
use crate::schedule::Shape;
use crate::schedule::{Kind, Op};

/// One finished span. `parent` 0 is a root; spans of one request share
/// `trace`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A per-thread span recorder. Ids are unique across recorders because
/// each thread takes its own id lane.
pub struct Spans {
    epoch: Instant,
    lane: u64,
    next: u64,
    pub recs: Vec<SpanRec>,
}

impl Spans {
    pub fn new(epoch: Instant, lane: u64) -> Spans {
        Spans {
            epoch,
            lane,
            next: 0,
            recs: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh id (used for trace ids and span ids alike).
    pub fn fresh(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 40) | self.next
    }

    /// Record an already-timed interval.
    pub fn record(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.fresh();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.recs.push(SpanRec {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(trace, parent, name, start, Instant::now());
        out
    }
}

/// Write every span as one JSON line.
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    for s in spans {
        writeln!(
            out,
            "{{\"trace\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// An in-memory duplex stream holding one request, for timing the
/// server's request parser on the exact bytes sent.
struct MemStream(Cursor<Vec<u8>>);

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The server's request budget when a request names none.
const DEFAULT_BUDGET: Duration = Duration::from_secs(2);

/// The replica plus the scratch store and policy set the direct calls use.
pub struct Replica {
    svc: RwLock<GSacs>,
    policies: PolicySet,
    scratch: DurableStore,
    reasoner: Reasoner,
}

fn parse_update_lines(body: &str) -> Vec<(bool, &str)> {
    body.lines()
        .filter_map(|l| {
            let l = l.trim();
            let (sign, rest) = l.split_at_checked(1)?;
            Some((sign == "+", rest.trim()))
        })
        .collect()
}

impl Replica {
    /// Restart a replica from a copy of the prepared store under `dir`.
    pub fn restart(prepared: &Path, dir: &Path) -> Result<Replica, String> {
        let store = dir.join("replica");
        copy_store(prepared, &store)?;
        let backend = FsBackend::open(&store).map_err(|e| e.to_string())?;
        let (svc, recovered) = GSacs::recover_with_resilience(
            Arc::new(backend) as Arc<dyn StorageBackend>,
            StoreConfig::default(),
            Box::<OwlHorstEngine>::default(),
            CACHE_CAPACITY,
            ResilienceConfig::default(),
        )
        .map_err(|e| format!("replica recover: {e}"))?;
        let policies = PolicySet::new(Policy::decode_all(&recovered.policy_graph));
        let scratch_dir = dir.join("scratch");
        std::fs::create_dir_all(&scratch_dir).map_err(|e| e.to_string())?;
        let scratch = DurableStore::create(
            Arc::new(FsBackend::open(&scratch_dir).map_err(|e| e.to_string())?)
                as Arc<dyn StorageBackend>,
            StoreConfig::default(),
            &Graph::new(),
            &Graph::new(),
        )
        .map_err(|e| format!("scratch store: {e}"))?;
        Ok(Replica {
            svc: RwLock::new(svc),
            policies,
            scratch,
            reasoner: Reasoner::default(),
        })
    }

    /// Mirror a query the served process answered (setup or workload)
    /// without timing it.
    pub fn mirror_query(&self, role: &str, query: &str) {
        let req = ClientRequest {
            role: role.to_string(),
            query: query.to_string(),
        };
        let _ = self
            .svc
            .read()
            .expect("replica lock")
            .handle_with_budget(&req, Budget::with_time(DEFAULT_BUDGET));
    }

    /// The direct calls for one operation, as children of `root`.
    /// Returns a description of any disagreement with the served answer.
    pub fn direct_calls(
        &self,
        spans: &mut Spans,
        trace: u64,
        root: u64,
        op: &Op,
        role: &str,
        request: &[u8],
    ) -> Result<(), String> {
        spans.time(trace, root, "server.http_parse", || {
            let mut conn = HttpConn::new(MemStream(Cursor::new(request.to_vec())));
            std::hint::black_box(conn.read_request()).map_err(|e| e.to_string())
        })?;
        if op.kind.is_update() {
            self.update_calls(spans, trace, root, op, role)
        } else {
            self.query_calls(spans, trace, root, op, role)
        }
    }

    fn query_calls(
        &self,
        spans: &mut Spans,
        trace: u64,
        root: u64,
        op: &Op,
        role: &str,
    ) -> Result<(), String> {
        let req = ClientRequest {
            role: role.to_string(),
            query: op.body.clone(),
        };
        let svc = self.svc.read().expect("replica lock");
        spans
            .time(trace, root, "security.handle", || {
                svc.handle_with_budget(&req, Budget::with_time(DEFAULT_BUDGET))
            })
            .map_err(|e| format!("replica query: {e}"))?;
        let parsed = spans
            .time(trace, root, "query.parse", || parse_query(&op.body))
            .map_err(|e| e.to_string())?;
        // A cache hit implies the role's view is cached, so this lookup
        // never builds one.
        let view = svc.view_for(role);
        let eval = match op.kind {
            Kind::Read(Shape::Point) => "query.eval.point",
            Kind::Read(Shape::Join) => "query.eval.join",
            Kind::Read(Shape::Window) => "query.eval.window",
            Kind::Read(Shape::Dashboard) => "query.eval.dashboard",
            Kind::Read(Shape::Ask) => "query.eval.ask",
            _ => "query.eval.probe",
        };
        spans
            .time(trace, root, eval, || {
                execute_query_with_deadline(&view, &parsed, &Deadline::never())
            })
            .map_err(|e| e.to_string())?;
        let line = format!(
            "{{\"role\":\"{role}\",\"action\":\"query\",\"target\":\"{}\",\"allowed\":true}}",
            grdf_server::http::escape_json(&op.body)
        );
        spans
            .time(trace, root, "store.audit_append", || {
                self.scratch.append_audit_line(&line)
            })
            .map_err(|e| e.to_string())
    }

    fn update_calls(
        &self,
        spans: &mut Spans,
        trace: u64,
        root: u64,
        op: &Op,
        role: &str,
    ) -> Result<(), String> {
        let mut ops = Vec::new();
        for (insert, line) in parse_update_lines(&op.body) {
            let g = spans
                .time(trace, root, "rdf.nt_parse", || ntriples::parse(line))
                .map_err(|e| e.to_string())?;
            for t in g.iter() {
                ops.push(if insert {
                    UpdateOp::Insert(t)
                } else {
                    UpdateOp::Delete(t)
                });
            }
        }
        let inserted: Vec<Triple> = ops
            .iter()
            .filter_map(|o| match o {
                UpdateOp::Insert(t) => Some(t.clone()),
                UpdateOp::Delete(_) => None,
            })
            .collect();
        {
            let svc = self.svc.read().expect("replica lock");
            let data = svc.dataset();
            for o in &ops {
                let (t, action) = match o {
                    UpdateOp::Insert(t) => (t, Action::Edit),
                    UpdateOp::Delete(t) => (t, Action::Delete),
                };
                let pred = t.predicate.as_iri().unwrap_or_default();
                let access = spans.time(trace, root, "security.policy_check", || {
                    self.policies.evaluate(data, role, &t.subject, pred, action)
                });
                if access != Access::Granted {
                    return Err(format!("policy check refused {t}"));
                }
            }
            if !inserted.is_empty() {
                let mut copy = data.clone();
                let mark = copy.generation();
                for t in &inserted {
                    copy.insert(t.clone());
                }
                spans
                    .time(trace, root, "owl.delta", || {
                        self.reasoner
                            .materialize_delta(&mut copy, mark, &Deadline::never())
                    })
                    .map_err(|_| "delta materialization expired".to_string())?;
            }
        }
        let logged: Vec<LoggedOp> = ops
            .iter()
            .map(|o| match o {
                UpdateOp::Insert(t) => LoggedOp::Insert(t.clone()),
                UpdateOp::Delete(t) => LoggedOp::Delete(t.clone()),
            })
            .collect();
        spans
            .time(trace, root, "store.wal_append", || {
                self.scratch.append_batch(&logged)
            })
            .map_err(|e| e.to_string())?;
        let req = UpdateRequest {
            role: role.to_string(),
            ops,
        };
        let mut svc = self.svc.write().expect("replica lock");
        match spans.time(trace, root, "security.update", || {
            svc.handle_update_with_budget(&req, Budget::with_time(DEFAULT_BUDGET))
        }) {
            UpdateOutcome::Applied(_) => Ok(()),
            UpdateOutcome::Denied { reason, .. } => Err(format!("replica update denied: {reason}")),
        }
    }

    /// Per-role views of the served dataset by `views::secure_view`: the
    /// reference sampled responses are compared against.
    pub fn reference_views(&self, roles: &[String]) -> HashMap<String, Graph> {
        let svc = self.svc.read().expect("replica lock");
        roles
            .iter()
            .map(|role| {
                let (view, _) = secure_view(svc.dataset(), &self.policies, role);
                (role.clone(), view)
            })
            .collect()
    }

    /// Time the view build the service runs (`secure_view_explained`) once
    /// per role.
    pub fn time_view_builds(&self, spans: &mut Spans, roles: &[String]) {
        let svc = self.svc.read().expect("replica lock");
        let trace = spans.fresh();
        for role in roles {
            let built = spans.time(trace, 0, "security.view_build", || {
                secure_view_explained(svc.dataset(), &self.policies, role)
            });
            // Dropped outside the span: freeing a view is not building it.
            drop(built);
        }
    }

    /// Post-phase direct calls: full fixpoints from a clone of the base,
    /// the clones themselves, and read-only recoveries of the prepared
    /// store.
    pub fn layer_calls(
        &self,
        spans: &mut Spans,
        prepared: &Path,
        repeats: usize,
    ) -> Result<(), String> {
        let svc = self.svc.read().expect("replica lock");
        let trace = spans.fresh();
        for _ in 0..repeats {
            let mut base = spans.time(trace, 0, "rdf.base_clone", || svc.base_graph().clone());
            spans.time(trace, 0, "owl.fixpoint", || {
                self.reasoner.materialize(&mut base)
            });
            let backend = FsBackend::open(prepared).map_err(|e| e.to_string())?;
            spans
                .time(trace, 0, "store.recover", || grdf_store::recover(&backend))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}
