//! Lock-manager contention bench: acquire/release throughput of the
//! sharded manager across thread counts × key mixes.

use cc_bench::contention::{contention_threads, measure_contention, Mix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const OPS_PER_THREAD: usize = 2_000;

fn bench_contention(c: &mut Criterion) {
    for mix in [Mix::Disjoint, Mix::Hot] {
        let mut group = c.benchmark_group(format!("stm_contention/{mix}"));
        group.sample_size(3);
        for &threads in &contention_threads() {
            group.bench_function(BenchmarkId::new("sharded", format!("{threads}t")), |b| {
                b.iter(|| {
                    let point = measure_contention(threads, OPS_PER_THREAD, mix);
                    // Surface the throughput the timing alone hides.
                    println!("    -> {mix}/{threads}t: {:.0} txns/s", point.ops_per_sec);
                    point.ops_per_sec
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_contention);
criterion_main!(benches);
