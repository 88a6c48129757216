//! `heavy-congestion`: the paper's Fig. 17 setting (320 functions on
//! 16 cores, table-driven Litmus pricing) through
//! `PricingExperiment::run`, at `ReproConfig::fast()` sizes.

use litmus_bench::ReproConfig;
use litmus_core::{DiscountModel, LitmusPricing, Method};
use litmus_platform::{CoRunEnv, ExperimentResults, HarnessConfig, PricingExperiment};
use litmus_sim::{FrequencyGovernor, MachineSpec};
use litmus_telemetry::{Telemetry, TelemetryConfig};
use litmus_workloads::suite;

use crate::host::HostRef;
use crate::spans::{now, secs_since, Tracer};
use crate::{another_fits, median, summarize, timed_parse, Checks, Metrics, Run};

/// Workload name on the command line.
pub const NAME: &str = "heavy-congestion";

/// Experiments per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Host seconds the invoice export is parsed for, per experiment.
const PARSE_MIN_S: f64 = 0.25;

fn experiment(config: &ReproConfig, spec: &MachineSpec, seed: u64) -> PricingExperiment {
    let mut mix = suite::benchmarks();
    for _ in 0..2 {
        mix.extend(suite::heavy_congestion_picks());
    }
    let harness = HarnessConfig::new(spec.clone())
        .governor(FrequencyGovernor::fixed(spec.frequency_ghz))
        .env(CoRunEnv::Shared {
            co_runners: 319,
            cores: 16,
        })
        .mix_pool(mix)
        .mix_scale(config.scale)
        .warmup_ms(config.warmup_ms)
        .seed(seed);
    PricingExperiment::new(harness)
        .reps(config.reps)
        .test_scale(config.scale)
}

/// The experiment's invoices as a telemetry export, one event each.
fn invoice_export(results: &ExperimentResults) -> String {
    let mut telemetry = Telemetry::new(TelemetryConfig::default());
    for (i, invoice) in results.invoices().iter().enumerate() {
        telemetry.event(
            i as u64,
            "pricing.invoice",
            vec![
                ("function", invoice.function.clone().into()),
                ("commercial", invoice.commercial.total().into()),
                ("litmus", invoice.litmus.total().into()),
                ("ideal", invoice.ideal.total().into()),
            ],
        );
    }
    telemetry.to_jsonl()
}

/// Runs the workload as asked and fills `metrics`.
pub fn run(
    run: &Run,
    checks: &mut Checks,
    tracer: &mut Tracer,
    host: &mut HostRef,
    metrics: &mut Metrics,
) {
    let config = ReproConfig::fast();
    let spec = MachineSpec::cascade_lake();
    let tests = suite::test_benchmarks();

    let experiment = experiment(&config, &spec, run.seed);

    // Every experiment sets up afresh (tables, model), so set-up is
    // timed over the same window, and under the same host conditions,
    // as the experiments.
    let mut tables_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut parse_s = Vec::new();
    let mut reference: Option<ExperimentResults> = None;
    let mut export = String::new();
    let mut records = 0;
    let window = now();
    tracer.enter("bench", "measure");
    let min_reps = if run.traced { MIN_REPS + 1 } else { MIN_REPS };
    let mut i = 0;
    while i < min_reps || another_fits(window, i, run.seconds) {
        // The traced run alternates plain and spanned experiments.
        let traced = run.traced && i % 2 == 1;
        i += 1;
        host.sample();
        checks.begin();
        tracer.enter("bench", "setup");
        let started = now();
        tracer.enter("core", "tables_build");
        let tables = config.shared_tables(&spec).expect("shared tables build");
        tracer.exit();
        tables_s.push(secs_since(started));
        let started = now();
        tracer.enter("core", "model_fit");
        let model = DiscountModel::fit(&tables).expect("model fits");
        tracer.exit();
        fit_s.push(secs_since(started));
        tracer.exit();
        let pricing = LitmusPricing::new(model).with_method(Method::TableDriven);

        if traced {
            tracer.enter("platform", "experiment");
        }
        let started = now();
        let results = experiment.run(&pricing, &tables, &tests);
        let wall = secs_since(started);
        if traced {
            tracer.exit();
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        let results = results.expect("experiment runs");

        let invoices = results.invoices();
        checks.check(invoices.len() == tests.len(), || {
            format!(
                "{} invoices for {} test functions",
                invoices.len(),
                tests.len()
            )
        });
        for (invoice, test) in invoices.iter().zip(&tests) {
            let prices = [
                invoice.commercial.total(),
                invoice.litmus.total(),
                invoice.ideal.total(),
            ];
            checks.check(
                invoice.function == test.name() && prices.iter().all(|p| p.is_finite() && *p > 0.0),
                || {
                    format!(
                        "invoice {} is not one finite priced invoice",
                        invoice.function
                    )
                },
            );
        }
        if let Some(reference) = &reference {
            checks.check(&results == reference, || {
                format!("experiment {i} differs from the first run of the same input")
            });
        }

        tracer.enter("observe", "parse");
        export = invoice_export(&results);
        match timed_parse(&export, PARSE_MIN_S) {
            Ok((n, secs)) => {
                records = n;
                parse_s.push(secs);
            }
            Err(err) => checks.check(false, || err),
        }
        tracer.exit();
        checks.check(records == invoices.len() + 1, || {
            format!(
                "invoice export holds {records} records for {} invoices",
                invoices.len()
            )
        });
        checks.end();
        if reference.is_none() {
            reference = Some(results);
        }
    }
    host.sample();
    tracer.exit();

    let results = reference.expect("at least one experiment");
    let invoices = results.invoices();
    let setup_s: Vec<f64> = tables_s.iter().zip(&fit_s).map(|(t, f)| t + f).collect();
    // End-to-end timings in reference seconds (see `host`).
    let scale = host.scale();
    metrics.set("setup_s", summarize("setup_s", &setup_s) * scale);
    let experiment_s = summarize("experiment_s", &walls);
    metrics.set("experiment_s", experiment_s * scale);
    let priced = (invoices.len() * config.reps) as f64;
    metrics.set("replay_inv_per_s", priced / (experiment_s * scale));
    metrics.set("price_gap_pct", results.abs_gmean_error() * 100.0);
    let cycles: f64 = invoices.iter().map(|i| i.counters.cycles).sum();
    metrics.set(
        "sim_mean_latency_ms",
        cycles / invoices.len() as f64 / (spec.frequency_ghz * 1e6),
    );
    metrics.set("completed_frac", invoices.len() as f64 / tests.len() as f64);
    let parse_mean = summarize("observe.parse_s", &parse_s);
    metrics.set(
        "export_read_mb_per_s",
        export.len() as f64 / 1e6 / (parse_mean * scale),
    );

    if !run.traced {
        return;
    }
    println!(
        "absent: trace.* (no trace input), sim.* (PricingExperiment exposes no quantum \
         counter), cluster.*, pool.*, forecast.* (no cluster) reported as 0"
    );
    for (name, _) in crate::PER_LAYER {
        metrics.set(name, 0.0);
    }
    metrics.set("core.tables_build_s", median(&tables_s));
    metrics.set("core.model_fit_ms", median(&fit_s) * 1e3);
    metrics.set("core.fleet_price_gap_pct", results.discount_gap() * 100.0);
    metrics.set("platform.experiment_s", median(&traced_walls));
    metrics.set("platform.invoices", invoices.len() as f64);
    metrics.set("telemetry.export_bytes", export.len() as f64);
    metrics.set("telemetry.records", records as f64);
    metrics.set("observe.parse_ms", parse_mean * 1e3);
    let overhead = median(&traced_walls) / experiment_s - 1.0;
    metrics.set("traced_overhead_pct", overhead * 100.0);
}
