//! Ablation benches for design choices not covered by the paper's
//! evaluation (`repro ablation` prints the same comparisons):
//!
//! * fork-join validation vs. serial re-validation vs. re-speculating
//!   (running the parallel *miner* again, which is what a validator would
//!   have to do without the published schedule),
//! * validator thread scaling,
//! * the cost of the validator's trace/race checking.

use cc_bench::{engine, DEFAULT_THREADS};
use cc_core::engine::{EngineConfig, ExecutionStrategy};
use cc_workload::{Benchmark, WorkloadSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_validator_strategies(c: &mut Criterion) {
    let workload = WorkloadSpec::new(Benchmark::Mixed, 200, 0.15).generate();
    let speculative = engine(ExecutionStrategy::SpeculativeStm, DEFAULT_THREADS);
    let no_trace_checks = EngineConfig::new()
        .threads(DEFAULT_THREADS)
        .check_traces(false)
        .build()
        .unwrap();
    let serial = engine(ExecutionStrategy::Serial, 1);
    let reference = speculative
        .mine(&workload.build_world(), workload.transactions())
        .unwrap();

    let mut group = c.benchmark_group("ablation/validator-strategy");
    group.sample_size(10);
    group.bench_function("fork-join", |b| {
        b.iter(|| {
            speculative
                .validate(&workload.build_world(), &reference.block)
                .unwrap()
        })
    });
    group.bench_function("fork-join-no-trace-checks", |b| {
        b.iter(|| {
            no_trace_checks
                .validate(&workload.build_world(), &reference.block)
                .unwrap()
        })
    });
    group.bench_function("serial-revalidation", |b| {
        b.iter(|| {
            serial
                .validate(&workload.build_world(), &reference.block)
                .unwrap()
        })
    });
    group.bench_function("re-speculate", |b| {
        b.iter(|| {
            // Without schedule metadata a concurrent validator would have to
            // redo the miner's speculative work (and could not check the
            // state deterministically) — this measures that cost.
            speculative
                .mine(&workload.build_world(), workload.transactions())
                .unwrap()
        })
    });
    group.finish();
}

fn bench_validator_thread_scaling(c: &mut Criterion) {
    let workload = WorkloadSpec::new(Benchmark::Ballot, 200, 0.15).generate();
    let reference = engine(ExecutionStrategy::SpeculativeStm, DEFAULT_THREADS)
        .mine(&workload.build_world(), workload.transactions())
        .unwrap();

    let mut group = c.benchmark_group("ablation/validator-threads");
    group.sample_size(10);
    for threads in [1usize, 2, 3, 4, 8] {
        let validator = engine(ExecutionStrategy::SpeculativeStm, threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                validator
                    .validate(&workload.build_world(), &reference.block)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_miner_thread_scaling(c: &mut Criterion) {
    let workload = WorkloadSpec::new(Benchmark::Ballot, 200, 0.15).generate();
    let mut group = c.benchmark_group("ablation/miner-threads");
    group.sample_size(10);
    let serial = engine(ExecutionStrategy::Serial, 1);
    group.bench_function("serial", |b| {
        b.iter(|| {
            serial
                .mine(&workload.build_world(), workload.transactions())
                .unwrap()
        })
    });
    for threads in [1usize, 2, 3, 4, 8] {
        let miner = engine(ExecutionStrategy::SpeculativeStm, threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                miner
                    .mine(&workload.build_world(), workload.transactions())
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_validator_strategies,
    bench_validator_thread_scaling,
    bench_miner_thread_scaling
);
criterion_main!(benches);
