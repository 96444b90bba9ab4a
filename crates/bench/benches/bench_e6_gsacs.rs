//! E6 (Fig. 3): G-SACS end-to-end request handling under cache sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use grdf_bench::{incident_graph, roles, scenario_policies};
use grdf_core::ontology::grdf_ontology;
use grdf_security::gsacs::{ClientRequest, GSacs, OntoRepository, OwlHorstEngine};
use grdf_workload::requests::{generate_requests, RequestConfig};

fn service(cache: usize) -> GSacs {
    let mut repo = OntoRepository::new();
    repo.register("grdf", grdf_ontology());
    repo.register("seconto", grdf_security::ontology::security_ontology());
    GSacs::new(
        repo,
        scenario_policies(),
        Box::<OwlHorstEngine>::default(),
        incident_graph(100, 100, 17),
        cache,
    )
}

fn bench_request_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6/request_stream");
    group.sample_size(10);
    for cache in [0usize, 64, 1024] {
        let svc = service(cache);
        let reqs: Vec<ClientRequest> = generate_requests(&RequestConfig {
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
        group.bench_with_input(BenchmarkId::from_parameter(cache), &cache, |b, _| {
            b.iter(|| {
                let mut n = 0;
                for r in &reqs {
                    n += svc.handle(r).unwrap().select_rows().len();
                }
                black_box(n)
            });
        });
    }
    group.finish();
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let svc = service(1024);
    let req = ClientRequest {
        role: roles::emergency(),
        query: grdf_workload::requests::query_pool(1)[0].clone(),
    };
    // Warm the cache once.
    svc.handle(&req).unwrap();
    c.bench_function("e6/warm_cache_hit", |b| {
        b.iter(|| black_box(svc.handle(&req).unwrap().select_rows().len()));
    });

    let cold = service(0);
    c.bench_function("e6/uncached_request", |b| {
        b.iter(|| black_box(cold.handle(&req).unwrap().select_rows().len()));
    });
}

/// G-SACS is shared-state (`&self`) behind internal locks; measure the
/// same request stream handled by 1 vs 4 worker threads.
fn bench_concurrency(c: &mut Criterion) {
    let svc = service(1024);
    let reqs: Vec<ClientRequest> = generate_requests(&RequestConfig {
        count: 200,
        distinct_queries: 50,
        zipf_s: 1.0,
        seed: 29,
        ..Default::default()
    })
    .into_iter()
    .map(|r| ClientRequest {
        role: r.role,
        query: r.query,
    })
    .collect();

    let mut group = c.benchmark_group("e6/concurrency");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    let chunk = reqs.len().div_ceil(n);
                    for part in reqs.chunks(chunk) {
                        let svc = &svc;
                        scope.spawn(move || {
                            let mut total = 0usize;
                            for r in part {
                                total += svc.handle(r).unwrap().select_rows().len();
                            }
                            black_box(total)
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_request_stream,
    bench_cold_vs_warm,
    bench_concurrency
);
criterion_main!(benches);
