//! The three trace-replay workloads: chained fixture days expanded
//! from the run's seed and replayed through `ClusterDriver`.

use litmus_cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, ClusterReport, ForecasterSpec,
    LitmusAware, MachineConfig, PredictiveConfig, StageProfile, StealingConfig, SteppingMode,
    TelemetryConfig,
};
use litmus_core::{DiscountModel, TableBuilder};
use litmus_observe::jsonl::{parse_export, FlatRecord};
use litmus_observe::SloSpec;
use litmus_platform::TraceSource;
use litmus_sim::MachineSpec;
use litmus_trace::{
    fixture, multi_day_source, union_assignments, AzureDataset, ExpandConfig, IntraMinute,
    TraceTransform, TransformedSource,
};

use crate::host::HostRef;
use crate::spans::{now, secs_since, TimedSource, Tracer};
use crate::stages;
use crate::{another_fits, median, summarize, timed_parse, Checks, Metrics, Run};

/// Inputs one run replays: the run's seed generates this many, and
/// each is replayed for an equal share of the measurement window.
/// Averaging the deterministic figures over several inputs keeps their
/// spread across seeds inside the bounds.
const INPUTS: u64 = 8;
const CORES: usize = 8;
const SLICE_MS: u64 = 20;
/// Host seconds each export is parsed for, per replay.
const PARSE_MIN_S: f64 = 0.25;
/// Timeline events `observed-stream` keeps in memory while streaming.
const RETENTION: usize = 4096;
/// Queue-wait threshold of the per-tenant SLOs, sim ms.
const QUEUE_WAIT_MS: u64 = 20;

/// One replay workload's shape.
pub struct ReplayWorkload {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Fixture days chained back to back.
    days: usize,
    /// Simulated length of one trace minute, ms.
    minute_ms: u64,
    /// Fraction of arrivals kept by a seeded `ScaleRate` thinning.
    keep_fraction: Option<f64>,
    /// Machines at boot.
    machines: usize,
    /// Machines (the first ones) running 20 background fillers.
    filler_machines: usize,
    /// Per-machine cap on concurrently executing invocations.
    max_inflight: usize,
    /// The traced run adds replays on two stepping threads (all other
    /// replays step on one).
    two_thread_arm: bool,
    /// Stealing and predictive autoscaling on.
    elastic: bool,
    /// Every invocation traced, per-tenant SLOs online, export streamed.
    observed: bool,
    /// Stages the profiled replay must record.
    stages: &'static [&'static str],
}

/// The replay workloads, by name.
pub const WORKLOADS: [ReplayWorkload; 3] = [
    ReplayWorkload {
        name: "dense-elastic",
        days: 2,
        minute_ms: 600,
        keep_fraction: None,
        machines: 6,
        filler_machines: 3,
        max_inflight: 4,
        two_thread_arm: true,
        elastic: true,
        observed: false,
        stages: &["dispatch", "scale", "steal", "step", "fan-out", "queue"],
    },
    ReplayWorkload {
        name: "sparse-multiday",
        days: 32,
        minute_ms: 120_000,
        keep_fraction: Some(0.04),
        machines: 4,
        filler_machines: 0,
        max_inflight: 4,
        two_thread_arm: false,
        elastic: false,
        observed: false,
        stages: &["dispatch", "step", "fan-out", "queue", "bulk-account"],
    },
    ReplayWorkload {
        name: "observed-stream",
        days: 2,
        minute_ms: 600,
        keep_fraction: None,
        machines: 4,
        filler_machines: 0,
        max_inflight: 2,
        two_thread_arm: false,
        elastic: false,
        observed: true,
        stages: &["dispatch", "step", "fan-out", "queue"],
    },
];

/// Host-time samples of one set-up: everything a replay needs before
/// its first pulled event.
struct SetupTimes {
    parse_s: f64,
    tables_s: f64,
    fit_s: f64,
    build_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.parse_s + self.tables_s + self.fit_s + self.build_s
    }
}

impl ReplayWorkload {
    fn cluster_config(&self) -> ClusterConfig {
        let machines = (0..self.machines)
            .map(|i| {
                let fillers = if i < self.filler_machines { 20 } else { 0 };
                MachineConfig::new(CORES)
                    .background(fillers)
                    .background_scale(0.05)
                    .warmup_ms(80)
                    .max_inflight(self.max_inflight)
                    .seed(0xA27E + i as u64)
            })
            .collect();
        ClusterConfig::homogeneous(MachineSpec::cascade_lake(), self.machines, CORES)
            .machines(machines)
            .serving_scale(0.05)
            .slice_ms(SLICE_MS)
            .threads(1)
            .stepping(SteppingMode::EventDriven)
    }

    fn driver(
        &self,
        days: &[AzureDataset],
        seed: u64,
        profiling: bool,
    ) -> ClusterDriver<LitmusAware> {
        let mut driver = ClusterDriver::new(LitmusAware::new());
        if self.elastic {
            driver = driver
                .stealing(StealingConfig::default().backlog_threshold(3))
                .autoscale(
                    AutoscalerConfig::new(
                        MachineConfig::new(CORES)
                            .background_scale(0.05)
                            .warmup_ms(80)
                            .max_inflight(self.max_inflight)
                            .seed(0xB007),
                    )
                    .high_water(1.8)
                    .low_water(1.05)
                    .machine_bounds(self.machines, 12)
                    .cooldown_ms(200)
                    .predictive(PredictiveConfig::new(
                        ForecasterSpec::Ewma { alpha: 0.35 },
                        120.0,
                    )),
                );
        }
        if self.observed {
            let slos = union_assignments(days)
                .iter()
                .map(|a| {
                    SloSpec::queue_wait(format!("queue-wait-t{}", a.tenant.0), QUEUE_WAIT_MS)
                        .tenant(a.tenant.0)
                        .objective(0.95)
                })
                .collect();
            driver = driver
                .telemetry(
                    TelemetryConfig::default()
                        .trace_sampling(seed, 1.0)
                        .timeline_retention(RETENTION),
                )
                .slos(slos);
        }
        driver.profiling(profiling)
    }

    /// The workload's input: the chained days expanded from `seed`.
    fn source(&self, days: &[AzureDataset], seed: u64) -> Box<dyn TraceSource> {
        let expand = ExpandConfig::new(seed)
            .minute_ms(self.minute_ms)
            .placement(IntraMinute::Poisson);
        let chain = multi_day_source(days, expand).expect("fixture days chain");
        match self.keep_fraction {
            None => Box::new(chain),
            Some(keep_fraction) => Box::new(
                TransformedSource::new(
                    chain,
                    vec![TraceTransform::ScaleRate {
                        keep_fraction,
                        seed: seed ^ 0x5CA1E,
                    }],
                )
                .expect("thinning transform is valid"),
            ),
        }
    }

    /// One set-up: parse the days, build the tables, fit the model and
    /// boot a cluster on `threads` stepping threads.
    fn setup(
        &self,
        threads: usize,
        tracer: &mut Tracer,
    ) -> (Vec<AzureDataset>, Cluster, SetupTimes) {
        tracer.enter("bench", "setup");
        let started = now();
        tracer.enter("trace", "parse");
        let days: Vec<AzureDataset> = (0..self.days).map(|_| fixture::dataset()).collect();
        tracer.exit();
        let parse_s = secs_since(started);

        let started = now();
        tracer.enter("core", "tables_build");
        let tables = TableBuilder::new(MachineSpec::cascade_lake())
            .levels([6, 14, 22])
            .reference_scale(0.05)
            .build()
            .expect("tables build");
        tracer.exit();
        let tables_s = secs_since(started);

        let started = now();
        tracer.enter("core", "model_fit");
        let model = DiscountModel::fit(&tables).expect("model fits");
        tracer.exit();
        let fit_s = secs_since(started);

        let started = now();
        tracer.enter("cluster", "build");
        let cluster = Cluster::build(self.cluster_config().threads(threads), tables, model)
            .expect("cluster boots");
        tracer.exit();
        let build_s = secs_since(started);
        tracer.exit();

        (
            days,
            cluster,
            SetupTimes {
                parse_s,
                tables_s,
                fit_s,
                build_s,
            },
        )
    }
}

/// Which replay a repetition ran.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    /// The timed replay: raw source, profiling off.
    Plain,
    /// Profiling on, source wrapped in [`TimedSource`].
    Traced,
    /// As `Traced`, on two stepping threads.
    TracedTwoThreads,
}

/// What one replay produced, beyond its report.
struct Rep {
    arm: Arm,
    setup: SetupTimes,
    wall_s: f64,
    completed: usize,
    parse_s: f64,
    export_bytes: usize,
    pull_us: f64,
    last_vs_first_day: f64,
}

/// `slo.alert.*` transitions, as `(name, at_ms, slo, severity, tenant)`.
type Transition = (String, u64, String, String, Option<u64>);

fn export_transitions(records: &[FlatRecord]) -> Vec<Transition> {
    let mut out: Vec<Transition> = records
        .iter()
        .filter(|r| r.record_type() == "event" && r.name().starts_with("slo.alert."))
        .map(|r| {
            (
                r.name().to_string(),
                r.num("at_ms").unwrap_or(-1.0) as u64,
                r.str_field("slo").unwrap_or("").to_string(),
                r.str_field("severity").unwrap_or("").to_string(),
                r.num("tenant").map(|t| t as u64),
            )
        })
        .collect();
    out.sort();
    out
}

fn report_transitions(report: &ClusterReport) -> Vec<Transition> {
    let mut out = Vec::new();
    for alert in report.slo_alerts() {
        let tenant = alert.tenant.map(u64::from);
        let fired = ("slo.alert.fired", Some(alert.fired_ms));
        for (name, at) in [fired, ("slo.alert.cleared", alert.cleared_ms)] {
            if let Some(at) = at {
                out.push((
                    name.to_string(),
                    at,
                    alert.slo.clone(),
                    alert.severity.to_string(),
                    tenant,
                ));
            }
        }
    }
    out.sort();
    out
}

/// The checks every replay's report must pass.
fn check_report(checks: &mut Checks, report: &ClusterReport, pulled: usize) {
    checks.check(report.completed + report.unfinished == pulled, || {
        format!(
            "completed {} + unfinished {} != {pulled} invocations pulled",
            report.completed, report.unfinished
        )
    });
    let total = report.billing.total();
    let (mut litmus, mut commercial, mut ideal, mut invoices) = (0.0, 0.0, 0.0, 0);
    for (_, summary) in report.billing.tenants() {
        litmus += summary.litmus_revenue();
        commercial += summary.commercial_revenue();
        ideal += summary.ideal_revenue();
        invoices += summary.len();
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    checks.check(
        invoices == total.len()
            && close(litmus, total.litmus_revenue())
            && close(commercial, total.commercial_revenue())
            && close(ideal, total.ideal_revenue()),
        || {
            format!(
                "per-tenant billing ({invoices} invoices, litmus {litmus}) does not sum to the \
                 fleet total ({} invoices, litmus {})",
                total.len(),
                total.litmus_revenue()
            )
        },
    );
    checks.check(total.litmus_revenue() <= total.commercial_revenue(), || {
        format!(
            "litmus revenue {} exceeds commercial {}",
            total.litmus_revenue(),
            total.commercial_revenue()
        )
    });
}

/// `ClusterReport`'s `PartialEq`, field for field, except that the
/// telemetry configs may differ in their `profiling` flag: the traced
/// replay turns it on, and the derived equality would count it.
fn same_but_profiling(a: &ClusterReport, b: &ClusterReport) -> bool {
    let (ta, tb) = (a.telemetry(), b.telemetry());
    let mut config = *ta.config();
    config.profiling = tb.config().profiling;
    config == *tb.config()
        && ta.registry() == tb.registry()
        && ta.timeline() == tb.timeline()
        && ta.recorder() == tb.recorder()
        && a.timeline_jsonl() == b.timeline_jsonl()
        && a.streamed_jsonl() == b.streamed_jsonl()
        && a.policy == b.policy
        && a.billing == b.billing
        && a.placements == b.placements
        && a.dispatch_counts == b.dispatch_counts
        && a.completed == b.completed
        && a.unfinished == b.unfinished
        && a.redispatched == b.redispatched
        && a.steal_events() == b.steal_events()
        && a.scale_events() == b.scale_events()
        && a.forecast_samples() == b.forecast_samples()
        && a.machine_lifetimes() == b.machine_lifetimes()
        && a.slo_alerts() == b.slo_alerts()
        && a.peak_machines == b.peak_machines
        && a.mean_latency_ms == b.mean_latency_ms
        && a.mean_queue_wait_ms == b.mean_queue_wait_ms
        && a.mean_predicted_slowdown == b.mean_predicted_slowdown
        && a.predicted_slowdowns() == b.predicted_slowdowns()
        && a.sim_ms == b.sim_ms
}

fn count_events(mut source: Box<dyn TraceSource>) -> usize {
    let mut n = 0;
    while source.next_event().is_some() {
        n += 1;
    }
    n
}

/// How far Litmus bills are from the ideal ones, tenant by tenant:
/// Σ over tenants of |Σlitmus − Σideal|, over Σideal, in percent. One
/// tenant's overcharge cannot cancel another's undercharge, as it does
/// in the fleet sums; each tenant weighs by its ideal bill.
fn tenant_price_gap_pct(report: &ClusterReport) -> f64 {
    let off: f64 = report
        .billing
        .tenants()
        .map(|(_, s)| (s.litmus_revenue() - s.ideal_revenue()).abs())
        .sum();
    off / report.billing.total().ideal_revenue() * 100.0
}

/// What one input's first replay produced: the deterministic figures
/// the metrics are built from. The report itself is dropped with its
/// input, so held reports do not add to the peak RSS.
struct Outcome {
    pulled: usize,
    completed: usize,
    price_gap_pct: f64,
    fleet_price_gap_pct: f64,
    mean_latency_ms: f64,
    sim_ms: u64,
    redispatched: usize,
    scale_events: usize,
    peak_machines: usize,
    forecast_samples: usize,
    peak_retained: usize,
    alerts: usize,
    export_bytes: usize,
    records: usize,
    quanta: u64,
    /// Boundaries stepped and `step` time (ms) of the input's first
    /// profiled replay.
    profiled: Option<(u64, f64)>,
}

impl Outcome {
    fn new(report: &ClusterReport, pulled: usize, export_bytes: usize, records: usize) -> Self {
        let total = report.billing.total();
        Outcome {
            pulled,
            completed: report.completed,
            price_gap_pct: tenant_price_gap_pct(report),
            fleet_price_gap_pct: (total.litmus_revenue() - total.ideal_revenue()).abs()
                / total.ideal_revenue()
                * 100.0,
            mean_latency_ms: report.mean_latency_ms,
            sim_ms: report.sim_ms,
            redispatched: report.redispatched,
            scale_events: report.scale_events().len(),
            peak_machines: report.peak_machines,
            forecast_samples: report.forecast_samples().len(),
            peak_retained: report.timeline_peak_retained(),
            alerts: report.slo_alerts().len(),
            export_bytes,
            records,
            quanta: 0,
            profiled: None,
        }
    }
}

/// Replays `input` in whole cycles of `arms`, at least one, for about
/// `share` host seconds (see [`another_fits`]), then once more traced
/// if `force_traced` and no traced replay ran yet. Checks every replay
/// and returns the first one's outcome.
#[allow(clippy::too_many_arguments)]
fn replay_input(
    spec: &ReplayWorkload,
    input: u64,
    arms: &[Arm],
    share: f64,
    force_traced: bool,
    checks: &mut Checks,
    tracer: &mut Tracer,
    host: &mut HostRef,
    reps: &mut Vec<Rep>,
    profiles: &mut Vec<(Arm, StageProfile)>,
) -> Outcome {
    let mut first: Option<(ClusterReport, Outcome)> = None;
    let mut profiled = None;
    let mut traced_seen = false;
    let window = now();
    let mut i = 0;
    loop {
        let arm = if i % arms.len() != 0 || another_fits(window, i / arms.len(), share) {
            arms[i % arms.len()]
        } else if force_traced && !traced_seen {
            Arm::Traced
        } else {
            break;
        };
        traced_seen |= arm == Arm::Traced;
        i += 1;

        host.sample();
        checks.begin();
        let threads = if arm == Arm::TracedTwoThreads { 2 } else { 1 };
        let (days, mut cluster, setup) = spec.setup(threads, tracer);
        let pulled = match &first {
            Some((_, first)) => first.pulled,
            None => count_events(spec.source(&days, input)),
        };
        let day_ms = days[0].minutes() as u64 * spec.minute_ms;
        let mut driver = spec.driver(&days, input, arm != Arm::Plain);
        let mut source = spec.source(&days, input);

        let (report, wall_s, pull_us, last_vs_first_day) = if arm == Arm::Plain {
            let started = now();
            let report = driver.replay_source(&mut cluster, &mut *source);
            (report, secs_since(started), f64::NAN, f64::NAN)
        } else {
            let mut timed = TimedSource::new(&mut *source);
            tracer.enter("cluster", "replay");
            let started = now();
            let report = driver.replay_source(&mut cluster, &mut timed);
            let wall_s = secs_since(started);
            let days = timed.day_intervals(day_ms);
            for &(start, end) in &days {
                tracer.record("trace", "day", start, end);
            }
            tracer.exit();
            checks.check(days.len() == spec.days, || {
                format!("{} replayed days timed, {} chained", days.len(), spec.days)
            });
            checks.check(timed.events() == pulled, || {
                format!(
                    "wrapper saw {} events, source holds {pulled}",
                    timed.events()
                )
            });
            let ratio = match (days.first(), days.last()) {
                (Some(first), Some(last)) => {
                    (last.1 - last.0).as_secs_f64() / (first.1 - first.0).as_secs_f64()
                }
                _ => f64::NAN,
            };
            (report, wall_s, timed.pull_us(), ratio)
        };
        let report = report.expect("replay succeeds");

        check_report(checks, &report, pulled);
        if let Some((reference, _)) = &first {
            let same = if arm == Arm::Plain {
                report == *reference
            } else {
                if report != *reference && !reps.iter().any(|r| r.arm != Arm::Plain) {
                    println!(
                        "known defect: ClusterReport PartialEq(traced, untraced) is false; \
                         it compares TelemetryConfig::profiling"
                    );
                }
                same_but_profiling(&report, reference)
            };
            checks.check(same, || {
                format!("input {input} replay {i} ({arm:?}) differs from its first replay")
            });
        }
        if arm != Arm::Plain {
            let profile = report.telemetry().profile();
            if let Err(drift) = stages::check(profile, spec.stages) {
                checks.check(false, || format!("{arm:?}: {drift}"));
            }
            if profiled.is_none() {
                let step = stages::reported_metrics()
                    .find(|stage| stage.name == "step")
                    .map_or(0.0, |stage| stages::total(profile, stage));
                let stepped =
                    stages::calls(profile, "step") - stages::calls(profile, "bulk-account");
                profiled = Some((stepped, step));
            }
            profiles.push((arm, profile.clone()));
        }

        tracer.enter("observe", "parse");
        let owned;
        let export = match report.streamed_jsonl() {
            Some(streamed) => streamed,
            None => {
                owned = report.timeline_jsonl();
                &owned
            }
        };
        let (records, parse_s) = match timed_parse(export, PARSE_MIN_S) {
            Ok(parsed) => parsed,
            Err(err) => {
                checks.check(false, || err);
                (0, f64::NAN)
            }
        };
        if spec.observed {
            let parsed = parse_export(export).unwrap_or_default();
            let from_export = export_transitions(&parsed);
            let from_report = report_transitions(&report);
            checks.check(from_export == from_report, || {
                format!(
                    "export holds {} slo.alert transitions, report.slo_alerts() implies {}",
                    from_export.len(),
                    from_report.len()
                )
            });
            checks.check(!report.slo_alerts().is_empty(), || {
                "observed-stream fired no SLO alert".to_string()
            });
        }
        tracer.exit();
        checks.end();

        reps.push(Rep {
            arm,
            setup,
            wall_s,
            completed: report.completed,
            parse_s,
            export_bytes: export.len(),
            pull_us,
            last_vs_first_day,
        });
        if first.is_none() {
            let mut outcome = Outcome::new(&report, pulled, export.len(), records);
            outcome.quanta = cluster.quanta_stepped();
            first = Some((report, outcome));
        }
    }
    let (_, mut outcome) = first.expect("at least one replay");
    outcome.profiled = profiled;
    outcome
}

/// Seed of the run's input `k`: SplitMix64's finalizer applied to
/// `INPUTS × seed + k`, so neighbouring inputs share no bit pattern.
/// Inputs seeded `INPUTS × seed + k` directly drew price gaps whose
/// run means spread more across seeds than eight independent inputs
/// would: 0.17 and 0.10 against 0.08 and 0.07 of the median on
/// `dense-elastic`, seeds 101–110 and 111–120.
fn input_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(INPUTS)
        .wrapping_add(k)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `spec` as asked and fills `metrics`.
pub fn run(
    spec: &ReplayWorkload,
    run: &Run,
    checks: &mut Checks,
    tracer: &mut Tracer,
    host: &mut HostRef,
    metrics: &mut Metrics,
) {
    // Every repetition sets up afresh, so set-up is timed over the same
    // window, and under the same host conditions, as the replays. The
    // timed run replays the raw source with profiling off, and the last
    // input once more traced, for the traced == untraced check. The
    // traced run cycles through its arms, so all of them see the same
    // host conditions.
    let arms: &[Arm] = match (run.traced, spec.two_thread_arm) {
        (false, _) => &[Arm::Plain],
        (true, false) => &[Arm::Plain, Arm::Traced],
        (true, true) => &[Arm::Plain, Arm::Traced, Arm::TracedTwoThreads],
    };
    let share = run.seconds / INPUTS as f64;
    let mut reps: Vec<Rep> = Vec::new();
    let mut profiles = Vec::new();
    tracer.enter("bench", "measure");
    let outcomes: Vec<Outcome> = (0..INPUTS)
        .map(|k| {
            let input = input_seed(run.seed, k);
            let force_traced = k + 1 == INPUTS;
            replay_input(
                spec,
                input,
                arms,
                share,
                force_traced,
                checks,
                tracer,
                host,
                &mut reps,
                &mut profiles,
            )
        })
        .collect();
    host.sample();
    tracer.exit();

    for (k, o) in outcomes.iter().enumerate() {
        println!(
            "work: input={k} invocations={} completed={} live_quanta={} sim_ms={} \
             scale_events={} peak_machines={} price_gap_pct={} mean_latency_ms={}",
            o.pulled,
            o.completed,
            o.quanta,
            o.sim_ms,
            o.scale_events,
            o.peak_machines,
            o.price_gap_pct,
            o.mean_latency_ms
        );
    }
    let sum = |f: fn(&Outcome) -> f64| -> f64 { outcomes.iter().map(f).sum() };
    let mean = |f: fn(&Outcome) -> f64| -> f64 { sum(f) / outcomes.len() as f64 };
    let of = |arm: Arm, f: fn(&Rep) -> f64| -> f64 {
        let values: Vec<f64> = reps.iter().filter(|r| r.arm == arm).map(f).collect();
        median(&values)
    };
    let all = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let plain = |f: fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter().filter(|r| r.arm == Arm::Plain).map(f).collect()
    };

    // End-to-end timings in reference seconds (see `host`).
    let scale = host.scale();
    metrics.set(
        "setup_s",
        summarize("setup_s", &all(|r| r.setup.total())) * scale,
    );
    let experiment_s = summarize("experiment_s", &plain(|r| r.wall_s));
    metrics.set("experiment_s", experiment_s * scale);
    let completed: f64 = plain(|r| r.completed as f64).iter().sum();
    let walls: f64 = plain(|r| r.wall_s).iter().sum();
    metrics.set("replay_inv_per_s", completed / (walls * scale));
    metrics.set("price_gap_pct", mean(|o| o.price_gap_pct));
    metrics.set("sim_mean_latency_ms", mean(|o| o.mean_latency_ms));
    metrics.set(
        "completed_frac",
        sum(|o| o.completed as f64) / sum(|o| o.pulled as f64),
    );
    let parse_mean = summarize("observe.parse_s", &all(|r| r.parse_s));
    let bytes: f64 = all(|r| r.export_bytes as f64).iter().sum();
    let parse_s: f64 = all(|r| r.parse_s).iter().sum();
    metrics.set("export_read_mb_per_s", bytes / 1e6 / (parse_s * scale));

    if !run.traced {
        return;
    }
    let mut absent = vec!["platform.* (a replay runs no PricingExperiment)"];
    if spec.elastic {
        absent.push(
            "sim.quanta, sim.step_us_per_quantum (Cluster::quanta_stepped counts only the \
             machines live at the end, and the autoscaler retires machines)",
        );
    }
    if !spec.two_thread_arm {
        absent.push("pool.threads2_vs_1 (no two-thread arm)");
    }
    println!("absent: {} reported as 0", absent.join(", "));
    let ms = |s: f64| s * 1e3;
    let traced_profiles: Vec<&StageProfile> = profiles
        .iter()
        .filter(|(arm, _)| *arm == Arm::Traced)
        .map(|(_, profile)| profile)
        .collect();

    metrics.set("trace.parse_ms", ms(median(&all(|r| r.setup.parse_s))));
    metrics.set("trace.pull_us", of(Arm::Traced, |r| r.pull_us));
    metrics.set("trace.events", sum(|o| o.pulled as f64));
    metrics.set("core.tables_build_s", median(&all(|r| r.setup.tables_s)));
    metrics.set("core.model_fit_ms", ms(median(&all(|r| r.setup.fit_s))));
    metrics.set("core.fleet_price_gap_pct", mean(|o| o.fleet_price_gap_pct));
    for stage in stages::reported_metrics() {
        let totals: Vec<f64> = traced_profiles
            .iter()
            .map(|p| stages::total(p, stage))
            .collect();
        metrics.set(stage.metric, median(&totals));
    }
    if spec.elastic {
        metrics.set("sim.quanta", 0.0);
        metrics.set("sim.step_us_per_quantum", 0.0);
    } else {
        let step_ms = sum(|o| o.profiled.map_or(0.0, |(_, step_ms)| step_ms));
        let quanta = sum(|o| o.quanta as f64);
        metrics.set("sim.quanta", quanta);
        metrics.set("sim.step_us_per_quantum", step_ms * 1e3 / quanta);
    }
    metrics.set(
        "sim.last_vs_first_day",
        of(Arm::Traced, |r| r.last_vs_first_day),
    );
    metrics.set("platform.experiment_s", 0.0);
    metrics.set("platform.invoices", 0.0);
    metrics.set("cluster.build_ms", ms(median(&all(|r| r.setup.build_s))));
    metrics.set("cluster.redispatched", sum(|o| o.redispatched as f64));
    metrics.set("cluster.scale_events", sum(|o| o.scale_events as f64));
    metrics.set(
        "cluster.peak_machines",
        outcomes.iter().map(|o| o.peak_machines).max().unwrap_or(0) as f64,
    );
    let boundaries = sum(|o| (o.sim_ms / SLICE_MS) as f64);
    let stepped = sum(|o| o.profiled.map_or(0.0, |(stepped, _)| stepped as f64));
    metrics.set("cluster.boundaries_stepped", stepped);
    metrics.set("cluster.boundaries_skipped", boundaries - stepped);
    metrics.set(
        "pool.threads2_vs_1",
        if spec.two_thread_arm {
            of(Arm::TracedTwoThreads, |r| r.wall_s) / of(Arm::Traced, |r| r.wall_s)
        } else {
            0.0
        },
    );
    metrics.set("forecast.samples", sum(|o| o.forecast_samples as f64));
    metrics.set("telemetry.export_bytes", sum(|o| o.export_bytes as f64));
    metrics.set("telemetry.records", sum(|o| o.records as f64));
    metrics.set(
        "telemetry.peak_retained",
        outcomes.iter().map(|o| o.peak_retained).max().unwrap_or(0) as f64,
    );
    metrics.set("observe.parse_ms", ms(parse_mean));
    metrics.set("observe.alerts", sum(|o| o.alerts as f64));
    let overhead = of(Arm::Traced, |r| r.wall_s) / of(Arm::Plain, |r| r.wall_s) - 1.0;
    metrics.set("traced_overhead_pct", overhead * 100.0);
}
