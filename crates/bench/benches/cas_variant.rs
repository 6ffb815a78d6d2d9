//! §7 bench: plain double-WRITE vs WRITE + COMPARE_SWAP insertion cost
//! and the strategy-comparison kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use dta_bench::storesim::{run, StoreSimParams};
use dta_core::cas::{key_bytes, synthetic_value};
use dta_core::config::{DartConfig, WriteStrategy};
use dta_core::hash::MappingKind;
use dta_core::store::DartStore;

fn bench_insert_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("cas/insert");
    group.throughput(Throughput::Elements(4096));
    for (name, strategy) in [
        ("2xWRITE", WriteStrategy::AllSlots),
        ("WRITE+CAS", WriteStrategy::WriteThenCas),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &strategy,
            |b, &strategy| {
                let config = DartConfig::builder()
                    .slots(1 << 14)
                    .copies(2)
                    .strategy(strategy)
                    .mapping(MappingKind::Mix64 { seed: 9 })
                    .build()
                    .unwrap();
                let mut store = DartStore::new(config);
                b.iter(|| {
                    for i in 0..4096u64 {
                        store
                            .insert(black_box(&key_bytes(i)), &synthetic_value(i, 20))
                            .unwrap();
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_comparison_kernel(c: &mut Criterion) {
    c.bench_function("cas/comparison_alpha1", |b| {
        b.iter(|| {
            let sim = |strategy| {
                run(
                    StoreSimParams {
                        slots: 1 << 12,
                        keys: 1 << 12,
                        copies: 2,
                        strategy,
                        seed: 5,
                        ..StoreSimParams::default()
                    },
                    1,
                )
            };
            let plain = sim(WriteStrategy::AllSlots);
            let cas = sim(WriteStrategy::WriteThenCas);
            black_box((plain, cas))
        });
    });
}

criterion_group!(benches, bench_insert_strategies, bench_comparison_kernel);
criterion_main!(benches);
