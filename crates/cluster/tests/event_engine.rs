//! Oracle contract of the event-driven replay engine
//! ([`SteppingMode::EventDriven`]): for the same trace, cluster
//! configuration and policy it must produce a bit-identical
//! [`ClusterReport`] AND a byte-identical telemetry JSONL export
//! compared to slice stepping — across placement policies, thread
//! counts, elastic control on/off, and streaming vs materialized
//! replay. Plus the perf contract that makes the engine worth having:
//! an all-idle gap costs zero machine quanta.

use litmus_cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, ClusterReport, ForecasterSpec,
    LeastLoaded, LitmusAware, MachineConfig, PlacementPolicy, PredictiveConfig, RoundRobin,
    StealingConfig, SteppingMode, TelemetryConfig,
};
use litmus_core::{DiscountModel, PricingTables, TableBuilder};
use litmus_platform::{
    ArrivalPattern, InvocationTrace, TenantId, TenantTraffic, TraceEvent, TraceSource,
};
use litmus_sim::MachineSpec;
use litmus_telemetry::assert_jsonl_eq;
use litmus_workloads::suite::{self, TenantClass};

fn calibration() -> (PricingTables, DiscountModel) {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 24])
        .reference_scale(0.03)
        .build()
        .unwrap();
    let model = DiscountModel::fit(&tables).unwrap();
    (tables, model)
}

fn skewed_config(machines: usize, threads: usize) -> ClusterConfig {
    let configs: Vec<_> = (0..machines)
        .map(|i| {
            let background = if i < machines / 2 { 16 } else { 0 };
            MachineConfig::new(8)
                .background(background)
                .background_scale(0.05)
                .warmup_ms(60)
                .max_inflight(3)
                .seed(0xE1A5 + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), machines, 8)
        .machines(configs)
        .serving_scale(0.04)
        .threads(threads)
        .slice_ms(20)
}

/// Idle machines only (no background fillers), so quiet stretches are
/// genuinely skippable — the configuration the engine is built for.
fn quiet_config(machines: usize, threads: usize) -> ClusterConfig {
    let configs: Vec<_> = (0..machines)
        .map(|i| {
            MachineConfig::new(8)
                .warmup_ms(60)
                .max_inflight(3)
                .seed(0xD0E5 + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), machines, 8)
        .machines(configs)
        .serving_scale(0.04)
        .threads(threads)
        .slice_ms(20)
}

fn bursty_trace(duration_ms: u64, seed: u64) -> InvocationTrace {
    InvocationTrace::multi_tenant(
        vec![
            TenantTraffic {
                tenant: TenantId(0),
                pool: suite::tenant_pool(TenantClass::Interactive),
                pattern: ArrivalPattern::Steady { rate_per_s: 30.0 },
            },
            TenantTraffic {
                tenant: TenantId(1),
                pool: suite::tenant_pool(TenantClass::Analytics),
                pattern: ArrivalPattern::Bursty {
                    base_rate_per_s: 5.0,
                    burst_rate_per_s: 200.0,
                    period_ms: 1_000,
                    burst_ms: 250,
                },
            },
        ],
        duration_ms,
        seed,
    )
    .unwrap()
}

/// A sparse trace: one burst of arrivals at the start, then an all-idle
/// gap of `gap_ms`, then one trailing arrival — the multi-day-replay
/// shape the event engine collapses.
fn gapped_trace(gap_ms: u64) -> InvocationTrace {
    let pool = suite::tenant_pool(TenantClass::Interactive);
    let mut events: Vec<TraceEvent> = (0..6)
        .map(|i| TraceEvent {
            at_ms: 5 + i * 7,
            function: pool[i as usize % pool.len()].clone(),
            tenant: TenantId(0),
        })
        .collect();
    events.push(TraceEvent {
        at_ms: 50 + gap_ms,
        function: pool[0].clone(),
        tenant: TenantId(1),
    });
    InvocationTrace::from_events(events)
}

fn replay<P: PlacementPolicy, S: TraceSource>(
    mut driver: ClusterDriver<P>,
    config: ClusterConfig,
    source: S,
) -> (ClusterReport, Cluster) {
    let (tables, model) = calibration();
    let mut cluster = Cluster::build(config, tables, model).unwrap();
    let report = driver.replay_source(&mut cluster, source).unwrap();
    (report, cluster)
}

/// Asserts the full oracle contract: report bit-equality (placements,
/// billing, latencies, scale/steal/forecast records — everything
/// `PartialEq` covers) and telemetry JSONL byte-equality. The JSONL
/// check runs first so a divergence fails with the exact line and
/// surrounding context rather than a screenful of `Debug` output.
fn assert_oracle_equal(slice: &ClusterReport, event: &ClusterReport) {
    assert_jsonl_eq(
        "slice",
        &slice.timeline_jsonl(),
        "event",
        &event.timeline_jsonl(),
    );
    assert_eq!(slice, event);
}

#[test]
fn event_engine_matches_slice_oracle_across_policies_and_threads() {
    let trace = bursty_trace(2_000, 17);
    for threads in [1, 4] {
        let (slice_rr, _) = replay(
            ClusterDriver::new(RoundRobin::new()),
            skewed_config(4, threads),
            trace.source(),
        );
        let (event_rr, _) = replay(
            ClusterDriver::new(RoundRobin::new()),
            skewed_config(4, threads).stepping(SteppingMode::EventDriven),
            trace.source(),
        );
        assert_oracle_equal(&slice_rr, &event_rr);

        let (slice_ll, _) = replay(
            ClusterDriver::new(LeastLoaded::new()),
            skewed_config(4, threads),
            trace.source(),
        );
        let (event_ll, _) = replay(
            ClusterDriver::new(LeastLoaded::new()),
            skewed_config(4, threads).stepping(SteppingMode::EventDriven),
            trace.source(),
        );
        assert_oracle_equal(&slice_ll, &event_ll);

        let (slice_la, _) = replay(
            ClusterDriver::new(LitmusAware::new()),
            skewed_config(4, threads),
            trace.source(),
        );
        let (event_la, _) = replay(
            ClusterDriver::new(LitmusAware::new()),
            skewed_config(4, threads).stepping(SteppingMode::EventDriven),
            trace.source(),
        );
        assert_oracle_equal(&slice_la, &event_la);
    }
}

#[test]
fn event_engine_matches_slice_oracle_with_elastic_control() {
    // Stealing + predictive autoscaling: every boundary is a decision
    // round, so this exercises the engine's degenerate per-boundary
    // path (probe ticks on every slice) plus boot-ready events. Span
    // tracing at rate 1.0 puts the per-invocation chains into the
    // compared byte stream too.
    let driver = || {
        ClusterDriver::new(LitmusAware::new())
            .telemetry(TelemetryConfig::default().trace_sampling(0x0B5E, 1.0))
            .stealing(StealingConfig::default().backlog_threshold(2))
            .autoscale(
                AutoscalerConfig::new(
                    MachineConfig::new(8)
                        .background_scale(0.05)
                        .warmup_ms(60)
                        .max_inflight(3)
                        .seed(0xBEEF),
                )
                .high_water(1.6)
                .low_water(1.05)
                .machine_bounds(2, 8)
                .cooldown_ms(100)
                .boot_lead_ms(120)
                .predictive(PredictiveConfig::new(
                    ForecasterSpec::Ewma { alpha: 0.4 },
                    80.0,
                )),
            )
            .profiling(true)
    };
    let trace = bursty_trace(2_500, 23);
    let (slice, _) = replay(driver(), skewed_config(4, 4), trace.source());
    let (event, _) = replay(
        driver(),
        skewed_config(4, 4).stepping(SteppingMode::EventDriven),
        trace.source(),
    );
    assert!(!slice.scale_events().is_empty());
    assert_oracle_equal(&slice, &event);
}

#[test]
fn event_engine_matches_slice_oracle_on_gapped_traces() {
    // The engine's home turf: a sparse trace where almost every slice
    // is empty. Materialized and streaming replay must agree too. Span
    // tracing is on: completion spans settled before a bulk-skipped
    // gap must serialize identically whether the driver drained them
    // slice-by-slice or in one bulk batch.
    let traced = || {
        ClusterDriver::new(LitmusAware::new())
            .telemetry(TelemetryConfig::default().trace_sampling(0x0B5E, 1.0))
    };
    let trace = gapped_trace(10 * 60_000);
    let (slice, _) = replay(traced(), quiet_config(3, 2), trace.source());
    let (event, _) = replay(
        traced(),
        quiet_config(3, 2).stepping(SteppingMode::EventDriven),
        trace.source(),
    );
    assert_oracle_equal(&slice, &event);
    // The gap really was replayed, not truncated.
    assert!(slice.sim_ms > 10 * 60_000);
    assert_eq!(slice.completed, 7);
}

#[test]
fn all_idle_gap_costs_zero_machine_quanta() {
    // Doubling an all-idle gap must not add a single simulator
    // quantum: the serving work around the gap is identical, so the
    // stepped-quanta count must be too — in BOTH engines (machines
    // fast-forward idle stretches regardless of the driver loop).
    // Only the simulated clock may differ.
    let short = gapped_trace(5 * 60_000);
    let long = gapped_trace(10 * 60_000);
    for stepping in [SteppingMode::Pooled, SteppingMode::EventDriven] {
        let (report_short, cluster_short) = replay(
            ClusterDriver::new(RoundRobin::new()),
            quiet_config(2, 1).stepping(stepping),
            short.source(),
        );
        let (report_long, cluster_long) = replay(
            ClusterDriver::new(RoundRobin::new()),
            quiet_config(2, 1).stepping(stepping),
            long.source(),
        );
        assert_eq!(
            cluster_short.quanta_stepped(),
            cluster_long.quanta_stepped(),
            "{stepping:?}: idle gap performed machine steps"
        );
        assert_eq!(
            report_long.sim_ms - report_short.sim_ms,
            5 * 60_000,
            "{stepping:?}: gap not replayed in full"
        );
        assert_eq!(report_short.completed, report_long.completed);
    }
}

#[test]
fn event_engine_matches_slice_oracle_at_every_next_boundary_rule() {
    // One case per branch of the event engine's next-boundary rule
    // that the tests above do not reach: stealing alone (every
    // boundary is a probe round, no autoscaler), reactive autoscaling
    // (probe rounds and boot commissions, no forecast), and a drain
    // window that closes with work still outstanding (the last drain
    // boundary is the deadline, not a slice edge).
    fn traced() -> ClusterDriver<LitmusAware> {
        ClusterDriver::new(LitmusAware::new())
            .telemetry(TelemetryConfig::default().trace_sampling(0x0B5E, 1.0))
    }
    fn stealing_only() -> ClusterDriver<LitmusAware> {
        traced().stealing(StealingConfig::default().backlog_threshold(2))
    }
    fn reactive() -> ClusterDriver<LitmusAware> {
        traced().autoscale(
            AutoscalerConfig::new(
                MachineConfig::new(8)
                    .background_scale(0.05)
                    .warmup_ms(60)
                    .max_inflight(3)
                    .seed(0xBEEF),
            )
            .high_water(1.6)
            .low_water(1.05)
            .machine_bounds(2, 8)
            .cooldown_ms(100)
            .boot_lead_ms(120),
        )
    }
    type Case = (
        &'static str,
        fn() -> ClusterDriver<LitmusAware>,
        u64,
        fn(&ClusterReport) -> bool,
    );
    let cases: [Case; 3] = [
        ("stealing only", stealing_only, 60_000, |r| {
            r.redispatched > 0
        }),
        ("reactive autoscaling", reactive, 60_000, |r| {
            !r.scale_events().is_empty() && r.forecast_samples().is_empty()
        }),
        ("drain closes with work outstanding", traced, 5, |r| {
            r.unfinished > 0
        }),
    ];
    let trace = bursty_trace(1_200, 31);
    for (name, driver, drain_ms, reached) in cases {
        for threads in [1, 4] {
            let config = || skewed_config(4, threads).drain_ms(drain_ms);
            let (slice, _) = replay(driver(), config(), trace.source());
            let (event, _) = replay(
                driver(),
                config().stepping(SteppingMode::EventDriven),
                trace.source(),
            );
            assert!(
                reached(&slice),
                "{name} at {threads} threads: case not reached"
            );
            assert_jsonl_eq(
                &format!("slice ({name}, {threads} threads)"),
                &slice.timeline_jsonl(),
                "event",
                &event.timeline_jsonl(),
            );
            assert_eq!(slice, event, "{name} at {threads} threads");
        }
    }
}
