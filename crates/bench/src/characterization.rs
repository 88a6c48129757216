//! Workload-characterisation experiments: Table 1 and Figs. 1–4, 6.

use std::error::Error;

use litmus_platform::{CoRunEnv, CoRunHarness, HarnessConfig};
use litmus_sim::{Completion, MachineSpec, Placement, Simulator};
use litmus_workloads::{suite, Language, TrafficGenerator};

use crate::context::ReproConfig;
use crate::render::{f3, gmean, pct, TextTable};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Table 1: the 27 benchmarks and the reference set.
pub fn table1() -> String {
    let mut table = TextTable::new(
        "Table 1: serverless benchmarks & language runtimes (py, nj, go)",
        &["abbr", "function", "language", "suite", "reference"],
    );
    for b in suite::benchmarks() {
        table.row(&[
            b.name().to_string(),
            b.function().to_string(),
            b.language().to_string(),
            b.origin().to_string(),
            if b.is_reference() { "*" } else { "" }.to_string(),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "total {} functions, {} references (paper: 27 / 13)\n",
        suite::benchmarks().len(),
        suite::reference_benchmarks().len()
    ));
    out
}

/// Fig. 1: generator L2/L3 misses vs thread count, normalised to the
/// average misses of the serverless applications.
pub fn fig1(config: &ReproConfig) -> Result<String> {
    let spec = MachineSpec::cascade_lake();

    // Per-ms miss rates of the application fleet (normalisation base).
    let mut app_l2 = Vec::new();
    let mut app_l3 = Vec::new();
    for b in suite::benchmarks() {
        let mut sim = Simulator::new(spec.clone());
        let id = sim.launch(b.profile().scaled(config.scale)?, Placement::pinned(0))?;
        let r = sim.run_to_completion(id)?;
        app_l2.push(r.counters.l2_misses / r.wall_ms());
        app_l3.push(r.counters.l3_misses / r.wall_ms());
    }
    let base_l2 = app_l2.iter().sum::<f64>() / app_l2.len() as f64;
    let base_l3 = app_l3.iter().sum::<f64>() / app_l3.len() as f64;

    let mut table = TextTable::new(
        "Fig. 1: normalised L2/L3 misses of traffic generators",
        &["threads", "CT-L2", "CT-L3", "MB-L2", "MB-L3"],
    );
    let duration = 40.0;
    for level in [1usize, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31] {
        let mut cells = vec![level.to_string()];
        for gen in TrafficGenerator::ALL {
            let mut sim = Simulator::new(spec.clone());
            for core in 0..level {
                sim.launch(gen.thread_profile(duration), Placement::pinned(core))?;
            }
            // Fold in launch (id) order: float sums depend on it.
            let mut done = sim.run_until_idle()?;
            done.sort_by_key(|c| c.id);
            let mut l2 = 0.0;
            let mut l3 = 0.0;
            let mut wall: f64 = 0.0;
            for Completion { report: r, .. } in done {
                l2 += r.counters.l2_misses;
                l3 += r.counters.l3_misses;
                wall = wall.max(r.wall_ms());
            }
            cells.push(f3(l2 / wall / base_l2));
            cells.push(f3(l3 / wall / base_l3));
        }
        table.row(&cells);
    }
    let mut out = table.render();
    out.push_str("shape targets: CT-L2 >> MB-L2 at every level; MB-L3 >> CT-L3 (paper Fig. 1)\n");
    Ok(out)
}

/// Shared measurement for Figs. 2/3: every benchmark solo and with 26
/// co-runners (one per core, backfilled).
struct CoRunRow {
    name: String,
    wall_slowdown: f64,
    priv_slowdown: f64,
    shared_slowdown: f64,
}

fn corun_rows(config: &ReproConfig) -> Result<Vec<CoRunRow>> {
    let spec = MachineSpec::cascade_lake();
    let mut rows = Vec::new();
    for b in suite::benchmarks() {
        let profile = b.profile().scaled(config.scale)?;
        let mut sim = Simulator::new(spec.clone());
        let id = sim.launch(profile.clone(), Placement::pinned(0))?;
        let solo = sim.run_to_completion(id)?;

        let harness_config = HarnessConfig::new(spec.clone())
            .env(CoRunEnv::OnePerCore { co_runners: 26 })
            .mix_scale(config.scale)
            .warmup_ms(config.warmup_ms);
        let mut harness = CoRunHarness::start(harness_config)?;
        let congested = harness.measure(profile)?;

        rows.push(CoRunRow {
            name: b.name().to_string(),
            wall_slowdown: congested.wall_ms() / solo.wall_ms(),
            priv_slowdown: congested.counters.t_private_per_instruction()
                / solo.counters.t_private_per_instruction(),
            shared_slowdown: congested.counters.t_shared_per_instruction()
                / solo.counters.t_shared_per_instruction(),
        });
    }
    Ok(rows)
}

/// Fig. 2: execution-time slowdown with 26 co-runners.
pub fn fig2(config: &ReproConfig) -> Result<String> {
    let rows = corun_rows(config)?;
    let mut table = TextTable::new(
        "Fig. 2: normalised execution time with 26 co-runners",
        &["function", "slowdown"],
    );
    for r in &rows {
        table.row(&[r.name.clone(), f3(r.wall_slowdown)]);
    }
    let g = gmean(&rows.iter().map(|r| r.wall_slowdown).collect::<Vec<_>>());
    table.row(&["gmean".into(), f3(g)]);
    let mut out = table.render();
    out.push_str(&format!(
        "gmean slowdown {:.3} (paper ≈1.115, max ≈1.35)\n",
        g
    ));
    Ok(out)
}

/// Fig. 3: per-component slowdowns with 26 co-runners.
pub fn fig3(config: &ReproConfig) -> Result<String> {
    let rows = corun_rows(config)?;
    let mut table = TextTable::new(
        "Fig. 3: normalised T_private & T_shared with 26 co-runners",
        &["function", "T_private", "T_shared"],
    );
    for r in &rows {
        table.row(&[r.name.clone(), f3(r.priv_slowdown), f3(r.shared_slowdown)]);
    }
    let gp = gmean(&rows.iter().map(|r| r.priv_slowdown).collect::<Vec<_>>());
    let gs = gmean(&rows.iter().map(|r| r.shared_slowdown).collect::<Vec<_>>());
    table.row(&["gmean".into(), f3(gp), f3(gs)]);
    let mut out = table.render();
    out.push_str(&format!(
        "T_private +{:.1}% (paper ≈+4%), T_shared ×{:.2} (paper ≈×2.81, max ×5.9)\n",
        (gp - 1.0) * 100.0,
        gs
    ));
    Ok(out)
}

/// Fig. 4: solo T_private/T_shared distribution of execution time.
pub fn fig4(config: &ReproConfig) -> Result<String> {
    let spec = MachineSpec::cascade_lake();
    let mut table = TextTable::new(
        "Fig. 4: execution-time distribution (solo)",
        &["function", "T_private", "T_shared"],
    );
    let mut shared_fracs = Vec::new();
    for b in suite::benchmarks() {
        let mut sim = Simulator::new(spec.clone());
        let id = sim.launch(b.profile().scaled(config.scale)?, Placement::pinned(0))?;
        let r = sim.run_to_completion(id)?;
        let shared = r.counters.t_shared_cycles() / r.counters.cycles;
        shared_fracs.push(shared);
        table.row(&[b.name().to_string(), pct(1.0 - shared), pct(shared)]);
    }
    let mean = shared_fracs.iter().sum::<f64>() / shared_fracs.len() as f64;
    table.row(&["mean".into(), pct(1.0 - mean), pct(mean)]);
    let mut out = table.render();
    out.push_str(
        "shape targets: T_private dominates most functions; float-py ≈ all\n\
         private; graph/disk workloads carry the largest shared shares\n",
    );
    Ok(out)
}

/// Fig. 6: per-ms IPC of each language's startup phase (solo).
pub fn fig6(_config: &ReproConfig) -> Result<String> {
    let spec = MachineSpec::cascade_lake();
    let mut out = String::new();
    for lang in Language::ALL {
        let mut builder = litmus_sim::ExecutionProfile::builder(format!("{}-startup", lang.abbr()));
        for phase in lang.startup_phases() {
            builder = builder.startup_phase(phase);
        }
        let mut sim = Simulator::new(spec.clone());
        let id = sim.launch_sampled(builder.build()?, Placement::pinned(0))?;
        let report = sim.run_to_completion(id)?;
        let mut table = TextTable::new(
            format!("Fig. 6: startup IPC timeline — {lang}"),
            &["ms", "ipc"],
        );
        // Node.js is long: subsample it to keep the report readable.
        let stride = if report.samples.len() > 30 { 5 } else { 1 };
        for (i, sample) in report.samples.iter().enumerate() {
            if i % stride == 0 && sample.cycles > 0.0 {
                table.row(&[i.to_string(), f3(sample.ipc())]);
            }
        }
        out.push_str(&table.render());
        out.push_str(&format!(
            "{} startup: {:.1} ms solo (paper: Py ≈19 ms, NJ ≈100 ms, Go ≈6 ms)\n\n",
            lang,
            report.wall_ms()
        ));
    }
    out.push_str(
        "shape target: same-language functions share one startup signature,\n\
         so any one trace per language characterises the probe\n",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_everything() {
        let t = table1();
        assert!(t.contains("pager-py"));
        assert!(t.contains("27 functions, 13 references"));
    }

    #[test]
    fn fig4_runs_fast_config() {
        let out = fig4(&ReproConfig::fast()).unwrap();
        assert!(out.contains("float-py"));
        assert!(out.contains("mean"));
    }

    #[test]
    fn fig6_shows_three_languages() {
        let out = fig6(&ReproConfig::fast()).unwrap();
        assert!(out.contains("Python"));
        assert!(out.contains("Node.js"));
        assert!(out.contains("Go"));
    }
}
