//! Perf-trajectory runner: replay the bundled Azure fixture end to end
//! and write `BENCH_cluster.json` — the committed baseline CI's
//! bench-gate checks regressions against.
//!
//! Two arms, each run under BOTH replay engines (slice stepping — the
//! oracle — and the event engine, which skips quiet slices), at 1 and
//! 4 worker-pool threads:
//!
//! * **dense** — one fixture day with stealing + predictive
//!   autoscaling on: every slice boundary is a decision round, so this
//!   measures the full dispatch → simulate → probe → price → shard
//!   path and the per-stage breakdown (queue / dispatch / scale /
//!   steal / step / fan-out);
//! * **sparse** — a two-day fixture chain stretched to real-time
//!   minutes and thinned hard, so almost every slice is empty: the
//!   workload the event engine collapses. The file records the
//!   slice-vs-event speedup per thread count.
//!
//! The binary is also the CI perf-regression gate: it exits non-zero
//! if the event-driven replay is not bit-identical to the slice oracle
//! (full `ClusterReport` AND telemetry JSONL), or if event-driven
//! throughput on the sparse arm falls below slice-mode.
//!
//! Usage: `bench-trajectory [--smoke] [--out PATH]`
//! `--smoke` shrinks both arms for CI (and is NOT a number to commit:
//! the checked-in baseline is a full-mode run). `--out` defaults to
//! `BENCH_cluster.json` in the current directory — run from the repo
//! root, or let `scripts/bench_trajectory` do it for you.

use std::time::Instant;

use litmus_cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, ClusterReport, LitmusAware,
    MachineConfig, PredictiveConfig, StealingConfig, SteppingMode,
};
use litmus_core::{DiscountModel, PricingTables, TableBuilder};
use litmus_forecast::ForecasterSpec;
use litmus_platform::TraceSource;
use litmus_sim::MachineSpec;
use litmus_telemetry::json::{array, JsonObject};
use litmus_trace::{
    fixture, multi_day_source, ExpandConfig, IntraMinute, TraceTransform, TransformedSource,
};

const MACHINES: usize = 6;
const SPARSE_MACHINES: usize = 4;
const CORES_PER_MACHINE: usize = 8;
const SEED: u64 = 2024;

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Slice,
    Event,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Slice => "slice",
            Engine::Event => "event-driven",
        }
    }

    fn stepping(self) -> SteppingMode {
        match self {
            Engine::Slice => SteppingMode::Pooled,
            Engine::Event => SteppingMode::EventDriven,
        }
    }
}

fn calibration() -> (PricingTables, DiscountModel) {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 22])
        .reference_scale(0.05)
        .build()
        .expect("tables build");
    let model = DiscountModel::fit(&tables).expect("model fit");
    (tables, model)
}

fn cluster_config(threads: usize) -> ClusterConfig {
    let machines: Vec<_> = (0..MACHINES)
        .map(|i| {
            let background = if i < MACHINES / 2 { 20 } else { 0 };
            MachineConfig::new(CORES_PER_MACHINE)
                .background(background)
                .background_scale(0.05)
                .warmup_ms(80)
                .max_inflight(4)
                .seed(0xA27E + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), MACHINES, CORES_PER_MACHINE)
        .machines(machines)
        .serving_scale(0.05)
        .slice_ms(20)
        .threads(threads)
}

/// The sparse arm's fleet: idle machines only (background fillers are
/// never idle and would defeat the skip), no elasticity — the
/// multi-day-replay shape from the ROADMAP.
fn sparse_config(threads: usize) -> ClusterConfig {
    let machines: Vec<_> = (0..SPARSE_MACHINES)
        .map(|i| {
            MachineConfig::new(CORES_PER_MACHINE)
                .warmup_ms(80)
                .max_inflight(4)
                .seed(0xA27E + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(
        MachineSpec::cascade_lake(),
        SPARSE_MACHINES,
        CORES_PER_MACHINE,
    )
    .machines(machines)
    .serving_scale(0.05)
    .slice_ms(20)
    .threads(threads)
}

/// The same every-feature-on driver as `replay_inspect`: stealing +
/// predictive autoscaling + profiling, so the stage breakdown covers
/// every stage the replay loop has.
fn driver() -> ClusterDriver<LitmusAware> {
    ClusterDriver::new(LitmusAware::new())
        .stealing(StealingConfig::default().backlog_threshold(3))
        .autoscale(
            AutoscalerConfig::new(
                MachineConfig::new(CORES_PER_MACHINE)
                    .background_scale(0.05)
                    .warmup_ms(80)
                    .max_inflight(4)
                    .seed(0xB007),
            )
            .high_water(1.8)
            .low_water(1.05)
            .machine_bounds(MACHINES, 12)
            .cooldown_ms(200)
            .predictive(PredictiveConfig::new(
                ForecasterSpec::Ewma { alpha: 0.35 },
                120.0,
            )),
        )
        .profiling(true)
}

/// Plain Litmus-aware routing for the sparse arm: with elastic control
/// off, the event engine may bulk-skip quiet boundaries instead of
/// degrading to per-boundary probe ticks.
fn sparse_driver() -> ClusterDriver<LitmusAware> {
    ClusterDriver::new(LitmusAware::new()).profiling(true)
}

struct RunResult {
    engine: Engine,
    threads: usize,
    reps: usize,
    wall_ms: Vec<f64>,
    best: ClusterReport,
}

impl RunResult {
    fn best_ms(&self) -> f64 {
        self.wall_ms.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

fn run<S: TraceSource>(
    config: &ClusterConfig,
    driver: &ClusterDriver<LitmusAware>,
    source: impl Fn() -> S,
    engine: Engine,
    reps: usize,
) -> RunResult {
    let (tables, model) = calibration();
    let config = config.clone().stepping(engine.stepping());
    let mut wall_ms = Vec::with_capacity(reps);
    let mut best: Option<(f64, ClusterReport)> = None;
    for _ in 0..reps {
        let mut cluster =
            Cluster::build(config.clone(), tables.clone(), model.clone()).expect("cluster boots");
        let mut driver = driver.clone();
        let source = source();
        let started = Instant::now();
        let report = driver
            .replay_source(&mut cluster, source)
            .expect("replay succeeds");
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        wall_ms.push(elapsed);
        if best.as_ref().is_none_or(|(t, _)| elapsed < *t) {
            best = Some((elapsed, report));
        }
    }
    let (_, best) = best.expect("at least one rep");
    RunResult {
        engine,
        threads: config.threads,
        reps,
        wall_ms,
        best,
    }
}

/// The oracle gate: event-driven must be bit-identical to slice
/// stepping — report AND telemetry JSONL. Divergence fails the bench
/// (and therefore CI's bench-gate job).
fn assert_oracle_equal(slice: &RunResult, event: &RunResult, arm: &str) {
    if slice.best != event.best || slice.best.timeline_jsonl() != event.best.timeline_jsonl() {
        eprintln!(
            "BENCH GATE FAIL ({arm}, threads={}): event-driven replay diverged from the \
             slice oracle",
            slice.threads
        );
        std::process::exit(1);
    }
    println!(
        "  threads={}: event-driven bit-identical to slice oracle",
        slice.threads
    );
}

fn run_json(result: &RunResult, invocations: usize) -> String {
    let best_ms = result.best_ms();
    let mean_ms = result.wall_ms.iter().sum::<f64>() / result.wall_ms.len() as f64;
    let mut obj = JsonObject::new();
    obj.str_field("engine", result.engine.name());
    obj.u64_field("threads", result.threads as u64);
    obj.u64_field("reps", result.reps as u64);
    obj.u64_field("invocations", invocations as u64);
    obj.u64_field("completed", result.best.completed as u64);
    obj.f64_field("best_wall_ms", best_ms);
    obj.f64_field("mean_wall_ms", mean_ms);
    obj.f64_field("throughput_inv_per_s", invocations as f64 / (best_ms / 1e3));
    obj.u64_field("peak_machines", result.best.peak_machines as u64);
    // Wall-clock stage breakdown from the fastest rep — slice-vs-event
    // lives here ("fan-out" and "bulk-account" especially).
    obj.raw_field("stages", &result.best.telemetry().profile().to_json());
    obj.finish()
}

fn print_run(result: &RunResult, invocations: usize) {
    let best_ms = result.best_ms();
    println!(
        "  threads={} engine={}: best {best_ms:.1} ms, {:.0} inv/s",
        result.threads,
        result.engine.name(),
        invocations as f64 / (best_ms / 1e3),
    );
    print!("{}", result.best.telemetry().profile().summary());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster.json".to_string());

    // One trace minute compressed to this many sim ms; smoke shrinks
    // the day so CI finishes in seconds.
    let minute_ms: u64 = if smoke { 150 } else { 600 };
    // The sparse arm stretches minutes instead, so the two-day chain is
    // dominated by empty slices.
    let sparse_minute_ms: u64 = if smoke { 8_000 } else { 120_000 };
    let reps: usize = if smoke { 1 } else { 3 };

    let dataset = fixture::dataset();
    let trace = dataset
        .expand(
            ExpandConfig::new(SEED)
                .minute_ms(minute_ms)
                .placement(IntraMinute::Poisson),
        )
        .expect("fixture expands");
    println!(
        "bench-trajectory ({}): dense arm {} invocations over {} fixture minutes, \
         {} reps per engine/thread combination",
        if smoke { "smoke" } else { "full" },
        trace.len(),
        dataset.minutes(),
        reps,
    );

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let config = cluster_config(threads);
        let bench_driver = driver();
        let slice = run(
            &config,
            &bench_driver,
            || trace.source(),
            Engine::Slice,
            reps,
        );
        let event = run(
            &config,
            &bench_driver,
            || trace.source(),
            Engine::Event,
            reps,
        );
        assert_oracle_equal(&slice, &event, "dense");
        print_run(&slice, trace.len());
        print_run(&event, trace.len());
        runs.push(run_json(&slice, trace.len()));
        runs.push(run_json(&event, trace.len()));
    }

    // Sparse arm: two fixture days chained on a shared tenant map,
    // stretched to `sparse_minute_ms` per trace minute and thinned to
    // a trickle — the replay is almost entirely idle gaps.
    let days = [fixture::dataset(), fixture::dataset()];
    let sparse_expand = ExpandConfig::new(SEED)
        .minute_ms(sparse_minute_ms)
        .placement(IntraMinute::Poisson);
    let sparse_source = || {
        let source = multi_day_source(&days, sparse_expand).expect("two-day chain builds");
        TransformedSource::new(
            source,
            vec![TraceTransform::ScaleRate {
                keep_fraction: 0.04,
                seed: 9,
            }],
        )
        .expect("thinning transform builds")
    };
    let sparse_invocations = {
        let mut source = sparse_source();
        let mut n = 0usize;
        while source.next_event().is_some() {
            n += 1;
        }
        n
    };
    println!(
        "sparse arm: {} invocations over 2 fixture days at {} ms/minute",
        sparse_invocations, sparse_minute_ms,
    );

    let mut sparse_runs = Vec::new();
    let mut speedups = Vec::new();
    for threads in [1usize, 4] {
        let config = sparse_config(threads);
        let bench_driver = sparse_driver();
        let slice = run(&config, &bench_driver, sparse_source, Engine::Slice, reps);
        let event = run(&config, &bench_driver, sparse_source, Engine::Event, reps);
        assert_oracle_equal(&slice, &event, "sparse");
        print_run(&slice, sparse_invocations);
        print_run(&event, sparse_invocations);
        let speedup = slice.best_ms() / event.best_ms();
        println!("  threads={threads}: event-driven speedup {speedup:.1}x");
        sparse_runs.push(run_json(&slice, sparse_invocations));
        sparse_runs.push(run_json(&event, sparse_invocations));
        speedups.push((threads, speedup));
    }

    // The perf-regression gate: the event engine must not be slower
    // than the oracle on its home-turf workload, at any thread count.
    for &(threads, speedup) in &speedups {
        if speedup < 1.0 {
            eprintln!(
                "BENCH GATE FAIL (sparse, threads={threads}): event-driven replay is \
                 {speedup:.2}x slice-mode — throughput regressed below the oracle"
            );
            std::process::exit(1);
        }
    }

    let mut sparse_doc = JsonObject::new();
    sparse_doc.u64_field("minute_ms", sparse_minute_ms);
    sparse_doc.u64_field("days", days.len() as u64);
    sparse_doc.u64_field("machines", SPARSE_MACHINES as u64);
    sparse_doc.u64_field("invocations", sparse_invocations as u64);
    for &(threads, speedup) in &speedups {
        match threads {
            1 => sparse_doc.f64_field("speedup_threads_1", speedup),
            _ => sparse_doc.f64_field("speedup_threads_4", speedup),
        }
    }
    sparse_doc.raw_field("runs", &array(sparse_runs));

    let mut doc = JsonObject::new();
    doc.str_field("bench", "cluster_trajectory");
    doc.str_field("mode", if smoke { "smoke" } else { "full" });
    doc.u64_field("minute_ms", minute_ms);
    doc.u64_field("machines", MACHINES as u64);
    doc.u64_field("cores_per_machine", CORES_PER_MACHINE as u64);
    doc.u64_field("fixture_minutes", dataset.minutes() as u64);
    doc.u64_field("invocations", trace.len() as u64);
    doc.raw_field("runs", &array(runs));
    doc.raw_field("sparse", &sparse_doc.finish());
    let json = format!("{}\n", doc.finish());
    std::fs::write(&out_path, &json).expect("write bench trajectory file");
    println!("wrote {out_path}");
}
