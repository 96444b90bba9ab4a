//! E1 (Fig. 1): ontology construction, materialization scaling, and the
//! triple-store index ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use grdf_bench::incident_store;
use grdf_core::ontology::grdf_ontology;
use grdf_rdf::graph::Graph;
use grdf_rdf::term::Term;
use grdf_rdf::vocab::{grdf, rdf};

fn bench_ontology_build(c: &mut Criterion) {
    c.bench_function("e1/ontology_build", |b| {
        b.iter(|| black_box(grdf_ontology().len()));
    });
}

fn bench_materialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1/materialize");
    group.sample_size(10);
    for features in [500usize, 2000] {
        group.bench_with_input(BenchmarkId::from_parameter(features), &features, |b, &f| {
            b.iter_batched(
                || incident_store(f / 2, f / 6, 11),
                |mut store| black_box(store.materialize().inferred),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_index_ablation(c: &mut Criterion) {
    let store = {
        let mut s = incident_store(500, 100, 11);
        s.materialize();
        s
    };
    let full: &Graph = store.graph();
    let ty = Term::iri(rdf::TYPE);
    let probe = Term::iri(&grdf::app("ChemSite"));
    let (ty_id, probe_id) = (full.term_id(&ty), full.term_id(&probe));

    let mut group = c.benchmark_group("e1/index_ablation");
    group.bench_function("full_indexes", |b| {
        b.iter(|| black_box(full.count_pattern(None, Some(&ty), Some(&probe))));
    });
    // Without the POS and OSP orders, `?s rdf:type C` is a scan of the
    // whole SPO order that keeps the matching triples.
    group.bench_function("spo_only", |b| {
        b.iter(|| {
            let mut n = 0;
            full.for_each_match_ids(None, None, None, |_, p, o| {
                n += usize::from(Some(p) == ty_id && Some(o) == probe_id);
            });
            black_box(n)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ontology_build,
    bench_materialize,
    bench_index_ablation
);
criterion_main!(benches);
