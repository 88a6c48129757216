//! Property and end-to-end tests for the cluster serving layer:
//! billing conservation across shards, price-envelope invariants and
//! replay determinism.

use litmus_cluster::{
    BillingAggregator, BillingShard, Cluster, ClusterConfig, ClusterDriver, ClusterReport,
    LeastLoaded, LitmusAware, MachineConfig, PlacementPolicy, RoundRobin,
};
use litmus_core::{DiscountModel, Invoice, Price, PricingTables, TableBuilder};
use litmus_platform::{ArrivalPattern, InvocationTrace, TenantId, TenantTraffic};
use litmus_sim::{MachineSpec, PmuCounters};
use litmus_workloads::suite::{self, TenantClass};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Sharded-billing conservation: pure-math properties over synthetic
// invoices, exploring many partitions cheaply.
// ---------------------------------------------------------------------------

/// A synthetic invoice whose litmus price is guaranteed ≤ commercial
/// (`litmus_frac ≤ 1`), mirroring the envelope real pricing enforces.
fn invoice_from(commercial: f64, litmus_frac: f64, ideal_frac: f64) -> Invoice {
    Invoice {
        function: "synthetic".into(),
        counters: PmuCounters {
            cycles: commercial,
            instructions: commercial * 0.8,
            ..Default::default()
        },
        commercial: Price {
            private: commercial * 0.8,
            shared: commercial * 0.2,
        },
        litmus: Price {
            private: commercial * 0.8 * litmus_frac,
            shared: commercial * 0.2 * litmus_frac,
        },
        ideal: Price {
            private: commercial * 0.8 * ideal_frac,
            shared: commercial * 0.2 * ideal_frac,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folding invoices into per-machine shards and merging the shards
    /// equals folding everything into one monolithic shard, for any
    /// partition of invoices across machines and tenants.
    #[test]
    fn sharded_billing_equals_monolithic(
        invoices in prop::collection::vec(
            (1.0e3f64..1.0e9, 0.3f64..1.0, 0.2f64..1.0, 0usize..6, 0u32..4),
            1..64,
        ),
    ) {
        let shard_count = 6;
        let mut shards = vec![BillingShard::new(); shard_count];
        let mut mono = BillingShard::new();
        for (commercial, litmus_frac, ideal_frac, shard, tenant) in &invoices {
            let invoice = invoice_from(*commercial, *litmus_frac, *ideal_frac);
            shards[*shard].fold(TenantId(*tenant), &invoice);
            mono.fold(TenantId(*tenant), &invoice);
        }
        let mut aggregator = BillingAggregator::new();
        for shard in &shards {
            aggregator.absorb(shard);
        }
        // Counts are exact; revenue matches to float-addition-order eps.
        prop_assert_eq!(aggregator.total().len(), mono.total().len());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        prop_assert!(close(
            aggregator.total().commercial_revenue(),
            mono.total().commercial_revenue(),
        ));
        prop_assert!(close(
            aggregator.total().litmus_revenue(),
            mono.total().litmus_revenue(),
        ));
        prop_assert!(close(
            aggregator.total().ideal_revenue(),
            mono.total().ideal_revenue(),
        ));
        for (tenant, summary) in mono.tenants() {
            let merged = aggregator.tenant(tenant).unwrap();
            prop_assert_eq!(merged.len(), summary.len());
            prop_assert!(close(
                merged.commercial_revenue(),
                summary.commercial_revenue(),
            ));
            prop_assert!(close(merged.litmus_revenue(), summary.litmus_revenue()));
        }
    }

    /// The litmus ≤ commercial envelope survives any fold/merge chain:
    /// if every folded invoice respects it, every summary does.
    #[test]
    fn price_envelope_survives_aggregation(
        invoices in prop::collection::vec(
            (1.0e3f64..1.0e9, 0.3f64..1.0, 0.2f64..1.0, 0usize..3, 0u32..3),
            1..48,
        ),
    ) {
        let mut shards = vec![BillingShard::new(); 3];
        for (commercial, litmus_frac, ideal_frac, shard, tenant) in &invoices {
            let invoice = invoice_from(*commercial, *litmus_frac, *ideal_frac);
            prop_assert!(invoice.litmus.total() <= invoice.commercial.total());
            shards[*shard].fold(TenantId(*tenant), &invoice);
        }
        let mut aggregator = BillingAggregator::new();
        for shard in &shards {
            aggregator.absorb(shard);
            prop_assert!(
                shard.total().litmus_revenue()
                    <= shard.total().commercial_revenue() * (1.0 + 1e-12)
            );
        }
        prop_assert!(aggregator.total().average_discount() >= -1e-12);
        for (_, summary) in aggregator.tenants() {
            prop_assert!(
                summary.litmus_revenue()
                    <= summary.commercial_revenue() * (1.0 + 1e-12)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end cluster replays (small scales: these run in debug CI).
// ---------------------------------------------------------------------------

fn calibration() -> (PricingTables, DiscountModel) {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 24])
        .reference_scale(0.03)
        .build()
        .unwrap();
    let model = DiscountModel::fit(&tables).unwrap();
    (tables, model)
}

fn tenant_mix(duration_ms: u64) -> Vec<TenantTraffic> {
    vec![
        TenantTraffic {
            tenant: TenantId(0),
            pool: suite::tenant_pool(TenantClass::Interactive),
            pattern: ArrivalPattern::Steady { rate_per_s: 25.0 },
        },
        TenantTraffic {
            tenant: TenantId(1),
            pool: suite::tenant_pool(TenantClass::Analytics),
            pattern: ArrivalPattern::Bursty {
                base_rate_per_s: 5.0,
                burst_rate_per_s: 60.0,
                period_ms: 1_000,
                burst_ms: 200,
            },
        },
        TenantTraffic {
            tenant: TenantId(2),
            pool: suite::tenant_pool(TenantClass::Batch),
            pattern: ArrivalPattern::Diurnal {
                mean_rate_per_s: 12.0,
                amplitude: 0.8,
                period_ms: duration_ms,
            },
        },
    ]
}

fn multi_tenant_trace(duration_ms: u64, seed: u64) -> InvocationTrace {
    InvocationTrace::multi_tenant(tenant_mix(duration_ms), duration_ms, seed).unwrap()
}

/// Skewed cluster: the first half of the machines carry heavy
/// background load.
fn skewed_config(machines: usize, threads: usize) -> ClusterConfig {
    let configs: Vec<_> = (0..machines)
        .map(|i| {
            let background = if i < machines / 2 { 16 } else { 0 };
            MachineConfig::new(8)
                .background(background)
                .background_scale(0.05)
                .warmup_ms(60)
                .seed(0xBEEF + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), machines, 8)
        .machines(configs)
        .serving_scale(0.04)
        .threads(threads)
        .slice_ms(20)
}

fn replay<P: PlacementPolicy>(
    policy: P,
    config: ClusterConfig,
    trace: &InvocationTrace,
) -> ClusterReport {
    let (tables, model) = calibration();
    let mut cluster = Cluster::build(config, tables, model).unwrap();
    ClusterDriver::new(policy)
        .replay(&mut cluster, trace)
        .unwrap()
}

#[test]
fn replay_bills_every_tenant_and_conserves_revenue() {
    let trace = multi_tenant_trace(2_500, 42);
    assert!(trace.len() > 60, "trace too small: {}", trace.len());
    let (tables, model) = calibration();
    let mut cluster = Cluster::build(skewed_config(4, 4), tables, model).unwrap();
    let outcome = ClusterDriver::new(LeastLoaded::new())
        .replay(&mut cluster, &trace)
        .unwrap();

    assert_eq!(outcome.unfinished, 0, "drain window must suffice");
    assert_eq!(outcome.completed, trace.len());
    assert_eq!(outcome.placements.len(), trace.len());
    assert_eq!(outcome.dispatch_counts.iter().sum::<usize>(), trace.len());

    // Per-tenant invoice counts match the trace's tenant mix.
    for tenant in trace.tenants() {
        let expected = trace.events().iter().filter(|e| e.tenant == tenant).count();
        let summary = outcome.billing.tenant(tenant).unwrap();
        assert_eq!(summary.len(), expected, "{tenant}");
        // The pricing envelope holds tenant by tenant.
        assert!(summary.litmus_revenue() <= summary.commercial_revenue() * (1.0 + 1e-9));
        assert!(summary.average_discount() >= 0.0);
    }

    // Conservation: machine shards sum to the aggregated totals.
    let mut rebuilt = BillingAggregator::new();
    let mut shard_invoices = 0;
    for idx in 0..cluster.len() {
        let shard = cluster.machine(idx).unwrap().shard();
        shard_invoices += shard.len();
        rebuilt.absorb(shard);
    }
    assert_eq!(shard_invoices, outcome.completed);
    assert!(
        (rebuilt.total().litmus_revenue() - outcome.billing.total().litmus_revenue()).abs() < 1e-6
    );
    assert!(outcome.mean_latency_ms > 0.0);
    assert!(outcome.throughput_per_sim_s() > 0.0);
}

#[test]
fn replays_are_deterministic_per_policy_and_thread_count() {
    let trace = multi_tenant_trace(1_500, 7);
    // Same trace + config + policy ⇒ identical placements and billing,
    // across repeated runs AND across stepping thread counts.
    let a = replay(RoundRobin::new(), skewed_config(4, 1), &trace);
    let b = replay(RoundRobin::new(), skewed_config(4, 4), &trace);
    assert_eq!(a.placements, b.placements);
    assert_eq!(a.billing, b.billing);

    let a = replay(LeastLoaded::new(), skewed_config(4, 1), &trace);
    let b = replay(LeastLoaded::new(), skewed_config(4, 3), &trace);
    assert_eq!(a.placements, b.placements);
    assert_eq!(a.billing, b.billing);

    let a = replay(LitmusAware::new(), skewed_config(4, 1), &trace);
    let b = replay(LitmusAware::new(), skewed_config(4, 4), &trace);
    assert_eq!(a.placements, b.placements);
    assert_eq!(a.billing, b.billing);
    assert_eq!(a.mean_predicted_slowdown, b.mean_predicted_slowdown);

    // The event engine on the worker pool is bit-identical too.
    let c = replay(
        LitmusAware::new(),
        skewed_config(4, 4).stepping(litmus_cluster::SteppingMode::EventDriven),
        &trace,
    );
    assert_eq!(a.placements, c.placements);
    assert_eq!(a.billing, c.billing);
    assert_eq!(a.mean_latency_ms, c.mean_latency_ms);
}

#[test]
fn streaming_source_replay_is_bit_identical_to_materialized() {
    use litmus_platform::{SyntheticSource, TraceEvent, TraceSource};

    // A source the driver does not construct itself — replay() is
    // replay_source() on trace.source(), so that pair would be
    // vacuous. No size hint: the pre-allocation shortcut is off.
    struct OwnedSource(std::collections::VecDeque<TraceEvent>);
    impl TraceSource for OwnedSource {
        fn next_event(&mut self) -> Option<TraceEvent> {
            self.0.pop_front()
        }
    }

    let trace = multi_tenant_trace(1_500, 13);
    let (tables, model) = calibration();

    let mut cluster = Cluster::build(skewed_config(4, 2), tables.clone(), model.clone()).unwrap();
    let materialized = ClusterDriver::new(LitmusAware::new())
        .replay(&mut cluster, &trace)
        .unwrap();

    // Stream the same events through an independent source.
    let mut cluster = Cluster::build(skewed_config(4, 2), tables.clone(), model.clone()).unwrap();
    let streamed = ClusterDriver::new(LitmusAware::new())
        .replay_source(
            &mut cluster,
            OwnedSource(trace.events().iter().cloned().collect()),
        )
        .unwrap();
    assert_eq!(materialized, streamed);

    // Stream the synthetic generator directly — no trace ever exists.
    let source = SyntheticSource::new(tenant_mix(1_500), 1_500, 13).unwrap();
    let mut cluster = Cluster::build(skewed_config(4, 2), tables, model).unwrap();
    let generated = ClusterDriver::new(LitmusAware::new())
        .replay_source(&mut cluster, source)
        .unwrap();
    assert_eq!(materialized, generated);
    assert_eq!(materialized.completed, trace.len());
}

#[test]
fn litmus_aware_beats_round_robin_on_a_skewed_cluster() {
    let trace = multi_tenant_trace(2_000, 11);
    let rr = replay(RoundRobin::new(), skewed_config(4, 4), &trace);
    let la = replay(LitmusAware::new(), skewed_config(4, 4), &trace);
    assert_eq!(rr.policy, "round-robin");
    assert_eq!(la.policy, "litmus-aware");
    assert!(
        la.mean_predicted_slowdown < rr.mean_predicted_slowdown,
        "litmus-aware {} must beat round-robin {}",
        la.mean_predicted_slowdown,
        rr.mean_predicted_slowdown
    );
    // The hot half of the cluster receives less traffic than the cool
    // half under litmus-aware routing.
    let hot: usize = la.dispatch_counts[..2].iter().sum();
    let cool: usize = la.dispatch_counts[2..].iter().sum();
    assert!(hot < cool, "hot {hot} vs cool {cool}");
}

#[test]
fn empty_traces_and_empty_clusters_are_handled() {
    let (tables, model) = calibration();
    assert!(matches!(
        Cluster::build(
            skewed_config(4, 1).machines(Vec::new()),
            tables.clone(),
            model.clone()
        ),
        Err(litmus_cluster::ClusterError::NoMachines)
    ));

    let mut cluster = Cluster::build(skewed_config(2, 1), tables, model).unwrap();
    let outcome = ClusterDriver::new(RoundRobin::new())
        .replay(&mut cluster, &InvocationTrace::from_events(Vec::new()))
        .unwrap();
    assert_eq!(outcome.completed, 0);
    assert_eq!(outcome.mean_latency_ms, 0.0);
    assert!(outcome.billing.total().is_empty());
}
