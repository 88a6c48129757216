//! The repository's benchmark: named workloads driven through the
//! public APIs of the litmus crates, each generated from a seed, timed
//! from outside, and checked for correct output.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with `ClusterDriver`'s stage profiler and the benchmark's own
//! spans on, prints the per-layer metrics, and writes the spans to
//! `.bench_trace/<workload>-seed<n>.jsonl`. The last line of standard
//! output is always one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any failed output check exits with code 1. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod host;
mod pricing;
mod replay;
mod spans;
mod stages;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// End-to-end metrics every `--trace 0` run prints, with units.
const END_TO_END: [(&str, &str); 8] = [
    ("replay_inv_per_s", "1/s"),
    ("experiment_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("price_gap_pct", "%"),
    ("sim_mean_latency_ms", "ms"),
    ("completed_frac", "ratio"),
    ("export_read_mb_per_s", "MB/s"),
];

/// Per-layer metrics every `--trace 1` run prints, with units.
const PER_LAYER: [(&str, &str); 32] = [
    ("trace.parse_ms", "ms"),
    ("trace.pull_us", "us"),
    ("trace.events", "count"),
    ("core.tables_build_s", "s"),
    ("core.model_fit_ms", "ms"),
    ("core.fleet_price_gap_pct", "%"),
    ("sim.quanta", "count"),
    ("sim.step_ms", "ms"),
    ("sim.step_us_per_quantum", "us"),
    ("sim.last_vs_first_day", "ratio"),
    ("platform.experiment_s", "s"),
    ("platform.invoices", "count"),
    ("cluster.build_ms", "ms"),
    ("cluster.dispatch_us", "us"),
    ("cluster.steal_us", "us"),
    ("cluster.scale_us", "us"),
    ("cluster.redispatched", "count"),
    ("cluster.scale_events", "count"),
    ("cluster.peak_machines", "count"),
    ("cluster.queue_us", "us"),
    ("cluster.bulk_account_us", "us"),
    ("cluster.boundaries_stepped", "count"),
    ("cluster.boundaries_skipped", "count"),
    ("pool.fanout_ms", "ms"),
    ("pool.threads2_vs_1", "ratio"),
    ("forecast.samples", "count"),
    ("telemetry.export_bytes", "count"),
    ("telemetry.records", "count"),
    ("telemetry.peak_retained", "count"),
    ("observe.parse_ms", "ms"),
    ("observe.alerts", "count"),
    ("traced_overhead_pct", "%"),
];

/// What one run was asked to do.
pub struct Run {
    /// Workload input seed.
    pub seed: u64,
    /// Length of the measurement window, host seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
}

/// Output checks of one run: every operation attempted, and every
/// check that failed (with what it found).
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    open: Option<usize>,
}

impl Checks {
    /// Starts one checked operation.
    pub fn begin(&mut self) {
        self.attempted += 1;
        self.open = Some(self.failures.len());
    }

    /// Records one check of the operation in progress.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Ends the operation: it failed if any of its checks did.
    pub fn end(&mut self) {
        let started = self.open.take().expect("end matches a begin");
        if self.failures.len() > started {
            self.failed += 1;
        }
    }
}

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` (which must be one of the declared metrics).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Whether another repetition fits in a window of `seconds` that
/// opened at `window` and has held `done` repetitions: it does while
/// the window, extended by half a mean repetition, is still open, so a
/// run overshoots its window about as often as it stops short of it.
pub fn another_fits(window: std::time::Instant, done: usize, seconds: f64) -> bool {
    if done == 0 {
        return true;
    }
    let elapsed = spans::secs_since(window);
    elapsed + elapsed / done as f64 / 2.0 < seconds
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values`, after printing the sample count, median and range
/// of the timing series `name` on standard output.
///
/// Window timings are reported as means: a shared VM's speed alternates
/// between phases that last seconds, and the median of such a bimodal
/// sample jumps between them from run to run, while the mean over the
/// window averages them.
pub fn summarize(name: &str, values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "timing {name}: n={} mean={mean:.6} median={:.6} min={min:.6} max={max:.6}",
        values.len(),
        median(values)
    );
    mean
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parses `text` as a telemetry export repeatedly for at least
/// `min_s` host seconds and returns `(records, host seconds per
/// parse)`, or the first parse error.
pub fn timed_parse(text: &str, min_s: f64) -> Result<(usize, f64), String> {
    let started = spans::now();
    let mut parses = 0u32;
    let mut records = 0;
    while parses == 0 || spans::secs_since(started) < min_s {
        records = litmus_observe::jsonl::parse_export(std::hint::black_box(text))
            .map_err(|(line, err)| format!("export line {line}: {err}"))?
            .len();
        parses += 1;
    }
    Ok((records, spans::secs_since(started) / f64::from(parses)))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// alone (never from a repository further up), or `unknown`.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        }),
        None => Some(head),
    };
    commit
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the settings that shape the numbers: host parallelism, the
/// environment variables that change `ClusterConfig` defaults, the
/// compiler and the commit.
fn print_settings(workload: &str, run: &Run) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env =
        |name: &str| std::env::var(name).map_or_else(|_| "null".to_string(), |v| json_str(&v));
    println!(
        "settings: {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"LITMUS_POOL_THREADS\":{},\"LITMUS_STEPPING\":{},\"rustc\":{},\"commit\":{}}}",
        json_str(workload),
        run.seed,
        run.seconds,
        u8::from(run.traced),
        env("LITMUS_POOL_THREADS"),
        env("LITMUS_STEPPING"),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&git_commit()),
    );
}

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok((
        workload,
        Run {
            seed,
            seconds,
            traced,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!(
                "error: {err}\nusage: litmus-perfbench --workload <{}|{}> --seed <n> \
                 --seconds <s> --trace <0|1>",
                replay::WORKLOADS.map(|w| w.name).join("|"),
                pricing::NAME,
            );
            return ExitCode::from(2);
        }
    };
    print_settings(&workload, &run);

    let mut checks = Checks::default();
    let mut tracer = spans::Tracer::new(run.traced);
    let mut metrics = Metrics::default();
    let mut host = host::HostRef::new();
    if workload == pricing::NAME {
        pricing::run(&run, &mut checks, &mut tracer, &mut host, &mut metrics);
    } else if let Some(spec) = replay::WORKLOADS.iter().find(|w| w.name == workload) {
        replay::run(
            spec,
            &run,
            &mut checks,
            &mut tracer,
            &mut host,
            &mut metrics,
        );
    } else {
        eprintln!("error: unknown workload '{workload}'");
        return ExitCode::from(2);
    }
    metrics.set("peak_rss_mb", peak_rss_mb());

    if run.traced {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{workload}-seed{}.jsonl", run.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => println!("spans: {}", path.display()),
            Err(err) => println!("spans: not written ({err})"),
        }
    }

    let declared: &[(&str, &str)] = if run.traced { &PER_LAYER } else { &END_TO_END };
    let mut out = String::new();
    for (name, unit) in declared {
        let value = metrics.get(name);
        checks.check(value.is_some_and(f64::is_finite), || {
            format!("metric {name} missing or not finite: {value:?}")
        });
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            value.filter(|v| v.is_finite()).unwrap_or(0.0)
        );
    }
    for failure in &checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = checks.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{out}}}}}",
        checks.attempted.max(1),
        checks.failed.max(u64::from(!correct)),
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
