//! Simulator throughput: cost of one scheduling quantum at the
//! occupancy levels the experiments use (27 one-per-core, 160 and 320
//! time-shared), the same quantum after a long launch-on-completion
//! history, and end-to-end function execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use litmus_sim::{MachineSpec, Placement, Simulator};
use litmus_workloads::{suite, BackfillPool, WorkloadMix};

fn populated_sim(functions: usize, cores: usize) -> (Simulator, BackfillPool) {
    let mut sim = Simulator::new(MachineSpec::cascade_lake());
    let mut pool = BackfillPool::new(suite::benchmarks(), 42, Placement::pool_range(0, cores))
        .expect("non-empty pool");
    pool.fill(&mut sim, functions).expect("fill");
    pool.run(&mut sim, 50).expect("warmup");
    (sim, pool)
}

/// A one-per-core machine whose fillers have already completed (and
/// been backfilled) `completions` times, as in a long replay. Short
/// fillers keep the set-up cheap; the live population is the same 27
/// as the fresh arm, so the two should cost about the same per quantum.
fn churned_sim(completions: usize) -> (Simulator, BackfillPool) {
    let mix = WorkloadMix::new(suite::benchmarks(), 42)
        .expect("non-empty pool")
        .with_scale(0.01);
    let mut sim = Simulator::new(MachineSpec::cascade_lake());
    let mut pool = BackfillPool::from_mix(mix, Placement::pool_range(0, 27));
    pool.fill(&mut sim, 27).expect("fill");
    let mut done = 0;
    while done < completions {
        let finished = sim.step();
        done += finished.len();
        pool.backfill(&mut sim, &finished).expect("backfill");
    }
    (sim, pool)
}

fn bench_quantum(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantum_step");
    for (functions, cores) in [(27usize, 27usize), (160, 16), (320, 16)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{functions}fns_{cores}cores")),
            &(functions, cores),
            |b, &(functions, cores)| {
                let (mut sim, mut pool) = populated_sim(functions, cores);
                b.iter(|| {
                    let finished = sim.step();
                    pool.backfill(&mut sim, black_box(&finished)).unwrap();
                })
            },
        );
    }
    group.bench_function("27fns_27cores_after_20k_completions", |b| {
        let (mut sim, mut pool) = churned_sim(20_000);
        b.iter(|| {
            let finished = sim.step();
            pool.backfill(&mut sim, black_box(&finished)).unwrap();
        })
    });
    group.finish();
}

fn bench_function_execution(c: &mut Criterion) {
    c.bench_function("solo_function_to_completion", |b| {
        let profile = suite::by_name("auth-go")
            .unwrap()
            .profile()
            .scaled(0.1)
            .unwrap();
        b.iter(|| {
            let mut sim = Simulator::new(MachineSpec::cascade_lake());
            let id = sim
                .launch(black_box(profile.clone()), Placement::pinned(0))
                .unwrap();
            sim.run_to_completion(id).unwrap()
        })
    });
}

criterion_group!(benches, bench_quantum, bench_function_execution);
criterion_main!(benches);
