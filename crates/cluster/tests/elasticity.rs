//! Integration and property coverage for the elastic-capacity layer:
//! slice-boundary work stealing and probe-driven autoscaling on the
//! persistent worker pool.

use litmus_cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, ClusterReport, ForecasterSpec,
    LitmusAware, MachineConfig, PlacementPolicy, PredictiveConfig, RoundRobin, ScaleKind,
    ScaleReason, StealingConfig,
};
use litmus_core::{DiscountModel, PricingTables, TableBuilder};
use litmus_platform::{
    ArrivalPattern, InvocationTrace, TenantId, TenantTraffic, TraceEvent, TraceSource,
};
use litmus_sim::MachineSpec;
use litmus_workloads::suite::{self, TenantClass};
use proptest::prelude::*;

fn calibration() -> (PricingTables, DiscountModel) {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 24])
        .reference_scale(0.03)
        .build()
        .unwrap();
    let model = DiscountModel::fit(&tables).unwrap();
    (tables, model)
}

/// A cluster skewed enough that dispatch-time placement strands work:
/// half the machines carry heavy background load, and a tight
/// concurrency cap makes backlogs queue instead of time-sharing.
fn skewed_config(machines: usize, max_inflight: usize) -> ClusterConfig {
    let configs: Vec<_> = (0..machines)
        .map(|i| {
            let background = if i < machines / 2 { 16 } else { 0 };
            MachineConfig::new(8)
                .background(background)
                .background_scale(0.05)
                .warmup_ms(60)
                .max_inflight(max_inflight)
                .seed(0xE1A5 + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), machines, 8)
        .machines(configs)
        .serving_scale(0.04)
        .threads(4)
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
                    burst_rate_per_s: 220.0,
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

fn replay<P: PlacementPolicy>(
    driver: ClusterDriver<P>,
    config: ClusterConfig,
    trace: &InvocationTrace,
) -> (ClusterReport, Cluster) {
    let (tables, model) = calibration();
    let mut cluster = Cluster::build(config, tables, model).unwrap();
    let mut driver = driver;
    let report = driver.replay(&mut cluster, trace).unwrap();
    (report, cluster)
}

/// Checks the no-drop/no-double-bill invariants of one replay report
/// against its trace.
fn assert_conserved(report: &ClusterReport, trace: &InvocationTrace) {
    assert_eq!(report.unfinished, 0, "drain window must suffice");
    assert_eq!(report.completed, trace.len(), "an invocation was dropped");
    assert_eq!(
        report.billing.total().len(),
        trace.len(),
        "billed invoices must match arrivals exactly (no double billing)"
    );
    assert_eq!(
        report.dispatch_counts.iter().sum::<usize>(),
        trace.len(),
        "net dispatch counts must conserve arrivals across re-dispatches"
    );
    for tenant in trace.tenants() {
        let expected = trace.events().iter().filter(|e| e.tenant == tenant).count();
        let summary = report.billing.tenant(tenant).unwrap();
        assert_eq!(summary.len(), expected, "{tenant}");
        assert!(summary.litmus_revenue() <= summary.commercial_revenue() * (1.0 + 1e-9));
    }
}

#[test]
fn stealing_reduces_queue_wait_on_a_skewed_cluster() {
    // Round-robin keeps feeding the hot half of the cluster, so the
    // tight concurrency cap strands arrivals in hot queues; stealing
    // re-dispatches them to the machines whose probes read calm.
    let trace = bursty_trace(2_500, 91);
    assert!(trace.len() > 120, "trace too small: {}", trace.len());

    let (plain, _) = replay(
        ClusterDriver::new(RoundRobin::new()),
        skewed_config(4, 3),
        &trace,
    );
    let (stolen, _) = replay(
        ClusterDriver::new(RoundRobin::new())
            .stealing(StealingConfig::default().backlog_threshold(2)),
        skewed_config(4, 3),
        &trace,
    );

    assert_conserved(&plain, &trace);
    assert_conserved(&stolen, &trace);
    assert!(stolen.redispatched > 0, "no work was ever re-dispatched");
    assert_eq!(
        stolen.redispatched,
        stolen.steal_events().iter().map(|e| e.moved).sum::<usize>()
    );
    assert!(
        stolen.mean_queue_wait_ms < plain.mean_queue_wait_ms,
        "stealing must strictly reduce mean queued latency: {} vs {}",
        stolen.mean_queue_wait_ms,
        plain.mean_queue_wait_ms
    );
    assert!(
        stolen.mean_latency_ms < plain.mean_latency_ms,
        "stealing must reduce end-to-end latency: {} vs {}",
        stolen.mean_latency_ms,
        plain.mean_latency_ms
    );
}

#[test]
fn stealing_is_deterministic_across_thread_counts_and_modes() {
    let trace = bursty_trace(1_500, 7);
    let driver = || {
        ClusterDriver::new(RoundRobin::new())
            .stealing(StealingConfig::default().backlog_threshold(2))
    };
    let (a, _) = replay(driver(), skewed_config(4, 6).threads(1), &trace);
    let (b, _) = replay(driver(), skewed_config(4, 6).threads(4), &trace);
    let (c, _) = replay(
        driver(),
        skewed_config(4, 6)
            .threads(4)
            .stepping(litmus_cluster::SteppingMode::EventDriven),
        &trace,
    );
    assert_eq!(a.placements, b.placements);
    assert_eq!(a.steal_events(), b.steal_events());
    assert_eq!(a.billing, b.billing);
    assert_eq!(a.mean_queue_wait_ms, b.mean_queue_wait_ms);
    assert_eq!(a.placements, c.placements);
    assert_eq!(a.steal_events(), c.steal_events());
    assert_eq!(a.billing, c.billing);
}

#[test]
fn autoscaler_grows_under_load_and_retires_idle_machines() {
    // One sharp burst up front, then a trickle: the fleet must grow
    // through the burst and shrink back through the tail.
    let trace = InvocationTrace::multi_tenant(
        vec![
            TenantTraffic {
                tenant: TenantId(0),
                pool: suite::tenant_pool(TenantClass::Interactive),
                pattern: ArrivalPattern::Bursty {
                    base_rate_per_s: 3.0,
                    burst_rate_per_s: 500.0,
                    period_ms: 8_000,
                    burst_ms: 1_200,
                },
            },
            TenantTraffic {
                tenant: TenantId(1),
                pool: suite::tenant_pool(TenantClass::Batch),
                pattern: ArrivalPattern::Steady { rate_per_s: 4.0 },
            },
        ],
        8_000,
        13,
    )
    .unwrap();

    let template = MachineConfig::new(8)
        .warmup_ms(60)
        .max_inflight(12)
        .seed(0xA5CA1E);
    let machines: Vec<_> = (0..2)
        .map(|i| {
            MachineConfig::new(8)
                .warmup_ms(60)
                .max_inflight(12)
                .seed(0xBA5E + i as u64)
        })
        .collect();
    let config = ClusterConfig::homogeneous(MachineSpec::cascade_lake(), 2, 8)
        .machines(machines)
        .serving_scale(0.04)
        .threads(4)
        .slice_ms(20);
    let scaler = AutoscalerConfig::new(template)
        .high_water(2.0)
        .low_water(1.6)
        .machine_bounds(2, 12)
        .cooldown_ms(200);

    let (report, cluster) = replay(
        ClusterDriver::new(LitmusAware::new())
            .stealing(StealingConfig::default())
            .autoscale(scaler),
        config,
        &trace,
    );

    assert_conserved(&report, &trace);
    let ups = report
        .scale_events()
        .iter()
        .filter(|e| e.kind == ScaleKind::Up)
        .count();
    let retires = report
        .scale_events()
        .iter()
        .filter(|e| e.kind == ScaleKind::Retire)
        .count();
    assert!(ups > 0, "burst never triggered a scale-up");
    assert!(retires > 0, "tail never retired a machine");
    assert!(report.peak_machines > 2, "fleet never grew past its floor");
    assert_eq!(report.machine_lifetimes().len(), cluster.machines_ever());
    assert_eq!(report.dispatch_counts.len(), cluster.machines_ever());
    // Scaled-up machines were born mid-replay and the retired ones
    // record a coherent lifetime.
    assert!(report
        .machine_lifetimes()
        .iter()
        .any(|l| l.born_ms > 0 && l.dispatched > 0));
    for lifetime in report.machine_lifetimes() {
        if let Some(retired_ms) = lifetime.retired_ms {
            assert!(retired_ms >= lifetime.born_ms);
        }
    }
    assert_eq!(cluster.retired_count(), retires);
    // Retired machines' revenue is retained: cluster-lifetime billing
    // equals the report's.
    assert_eq!(cluster.billing(), report.billing);

    // Study-metric plumbing: one predicted-slowdown sample per trace
    // event, tail quantiles ordered, and machine-time bounded by the
    // peak-fleet rectangle while covering at least the floor's.
    assert_eq!(report.predicted_slowdowns().len(), trace.len());
    assert_eq!(report.predicted_slowdowns().len(), report.placements.len());
    let p50 = report.predicted_slowdown_quantile(0.5);
    let p99 = report.predicted_slowdown_quantile(0.99);
    assert!(p50 >= 1.0, "slowdowns are ≥ 1, got p50 {p50}");
    assert!(p99 >= p50, "quantiles out of order: p50 {p50}, p99 {p99}");
    assert_eq!(
        report.predicted_slowdown_quantile(1.0),
        report
            .predicted_slowdowns()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    );
    let machine_ms = report.machine_ms();
    assert!(machine_ms >= 2 * report.sim_ms, "below the 2-machine floor");
    assert!(
        machine_ms <= report.peak_machines as u64 * report.sim_ms,
        "exceeds the peak-fleet rectangle"
    );
}

/// A predictive autoscaler sized for [`bursty_trace`]: seasonal
/// forecaster keyed to the 1 s burst period (50 slices at 20 ms), a
/// lazy reactive backstop, and a per-machine rate that makes the
/// forecast ask for real capacity during bursts.
fn predictive_scaler() -> AutoscalerConfig {
    let template = MachineConfig::new(8)
        .warmup_ms(60)
        .max_inflight(12)
        .seed(0xF0CA5);
    AutoscalerConfig::new(template)
        .high_water(4.0)
        .low_water(1.3)
        .machine_bounds(2, 10)
        .cooldown_ms(200)
        .boot_lead_ms(120)
        .predictive(
            PredictiveConfig::new(
                ForecasterSpec::SeasonalHoltWinters {
                    alpha: 0.25,
                    beta: 0.05,
                    gamma: 0.35,
                    period: 50,
                },
                60.0,
            )
            .horizon_slices(5)
            .warmup_slices(25),
        )
}

fn small_cluster(machines: usize) -> ClusterConfig {
    let configs: Vec<_> = (0..machines)
        .map(|i| {
            MachineConfig::new(8)
                .warmup_ms(60)
                .max_inflight(12)
                .seed(0xBEA7 + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), machines, 8)
        .machines(configs)
        .serving_scale(0.04)
        .threads(4)
        .slice_ms(20)
}

#[test]
fn predictive_scaler_records_forecasts_and_boots_on_them() {
    let trace = bursty_trace(4_000, 23);
    let (report, _) = replay(
        ClusterDriver::new(LitmusAware::new()).autoscale(predictive_scaler()),
        small_cluster(2),
        &trace,
    );
    assert_conserved(&report, &trace);
    // One forecast sample per slice boundary the autoscaler saw.
    assert!(
        !report.forecast_samples().is_empty(),
        "predictive replays must record forecast samples"
    );
    for pair in report.forecast_samples().windows(2) {
        assert!(pair[0].at_ms < pair[1].at_ms, "samples must be in order");
        assert_eq!(pair[0].forecast.horizon, 5);
        assert!(pair[0].forecast.lo <= pair[0].forecast.hi);
    }
    // The bursts must trigger at least one forecast-led boot, and
    // every event carries a first-class reason.
    let ups: Vec<_> = report
        .scale_events()
        .iter()
        .filter(|e| e.kind == ScaleKind::Up)
        .collect();
    assert!(!ups.is_empty(), "bursts never grew the fleet");
    assert!(
        ups.iter().any(|e| e.reason == ScaleReason::Forecast),
        "no scale-up was forecast-led: {:?}",
        ups.iter().map(|e| e.reason).collect::<Vec<_>>()
    );
    for event in report.scale_events() {
        match event.kind {
            ScaleKind::Up => assert!(matches!(
                event.reason,
                ScaleReason::Forecast | ScaleReason::HighWater
            )),
            ScaleKind::DrainStart => assert_eq!(event.reason, ScaleReason::LowWater),
            ScaleKind::Retire => assert_eq!(event.reason, ScaleReason::Drained),
        }
    }
}

#[test]
fn predictive_streaming_replay_is_bit_identical_to_materialized() {
    // A hand-rolled source with no size hint, so the streamed path is
    // genuinely different plumbing from the materialized one.
    struct OwnedSource(std::collections::VecDeque<TraceEvent>);
    impl TraceSource for OwnedSource {
        fn next_event(&mut self) -> Option<TraceEvent> {
            self.0.pop_front()
        }
    }

    let trace = bursty_trace(3_000, 77);
    let (tables, model) = calibration();
    let driver = || {
        ClusterDriver::new(LitmusAware::new())
            .stealing(StealingConfig::default().backlog_threshold(3))
            .autoscale(predictive_scaler())
    };
    let mut materialized_cluster =
        Cluster::build(small_cluster(2), tables.clone(), model.clone()).unwrap();
    let materialized = driver().replay(&mut materialized_cluster, &trace).unwrap();
    let mut streamed_cluster = Cluster::build(small_cluster(2), tables, model).unwrap();
    let streamed = driver()
        .replay_source(
            &mut streamed_cluster,
            OwnedSource(trace.events().iter().cloned().collect()),
        )
        .unwrap();
    // Full-report equality covers placements, billing, scale events,
    // forecast samples and the study metrics in one shot.
    assert_eq!(materialized, streamed);
    assert!(!materialized.forecast_samples().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Predictive-mode replays conserve billing exactly like reactive
    /// ones: whatever the forecaster does, every arrival is billed
    /// once and net dispatch counts add up.
    #[test]
    fn predictive_replays_conserve_billing(
        seed in 0u64..1_000,
        horizon in 1usize..12,
        rate in 20.0f64..200.0,
    ) {
        let trace = bursty_trace(1_200, seed);
        let scaler = {
            let mut scaler = predictive_scaler();
            let litmus_cluster::ScalingPolicy::Predictive(mut predictive) = scaler.policy
            else { unreachable!("predictive_scaler is predictive") };
            predictive.horizon_slices = horizon;
            predictive.machine_rate_per_s = rate;
            scaler.policy = litmus_cluster::ScalingPolicy::Predictive(predictive);
            scaler
        };
        let (report, _) = replay(
            ClusterDriver::new(LitmusAware::new()).autoscale(scaler),
            small_cluster(2),
            &trace,
        );
        prop_assert_eq!(report.unfinished, 0);
        prop_assert_eq!(report.completed, trace.len());
        prop_assert_eq!(report.billing.total().len(), trace.len());
        prop_assert_eq!(report.dispatch_counts.iter().sum::<usize>(), trace.len());
        for tenant in trace.tenants() {
            let expected = trace.events().iter().filter(|e| e.tenant == tenant).count();
            prop_assert_eq!(report.billing.tenant(tenant).unwrap().len(), expected);
        }
    }

    /// Re-dispatch never double-bills or drops an invocation: for any
    /// seed, backlog threshold and concurrency cap, every arrival is
    /// billed exactly once and net dispatch counts are conserved.
    #[test]
    fn redispatch_conserves_billing(
        seed in 0u64..1_000,
        threshold in 1usize..6,
        cap in 2usize..10,
    ) {
        let trace = bursty_trace(900, seed);
        let (report, _) = replay(
            ClusterDriver::new(RoundRobin::new())
                .stealing(StealingConfig::default().backlog_threshold(threshold)),
            skewed_config(3, cap),
            &trace,
        );
        prop_assert_eq!(report.unfinished, 0);
        prop_assert_eq!(report.completed, trace.len());
        prop_assert_eq!(report.billing.total().len(), trace.len());
        prop_assert_eq!(report.dispatch_counts.iter().sum::<usize>(), trace.len());
        for tenant in trace.tenants() {
            let expected = trace.events().iter().filter(|e| e.tenant == tenant).count();
            prop_assert_eq!(report.billing.tenant(tenant).unwrap().len(), expected);
        }
    }
}
