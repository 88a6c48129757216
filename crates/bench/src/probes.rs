//! Probe and table experiments: Figs. 5, 7–10, 14.

use std::error::Error;

use litmus_core::{DiscountModel, LitmusReading, StartupBaseline};
use litmus_sim::{ExecPhase, ExecutionProfile, MachineSpec, Placement, Simulator};
use litmus_workloads::{suite, BackfillPool, Language, TrafficGenerator};

use crate::context::ReproConfig;
use crate::render::{f3, gmean, pct, TextTable};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Fig. 5: the congestion and performance tables themselves.
pub fn fig5(config: &ReproConfig) -> Result<String> {
    let spec = MachineSpec::cascade_lake();
    let tables = config.dedicated_tables(&spec)?;
    let mut out = String::new();
    for lang in Language::ALL {
        let mut table = TextTable::new(
            format!("Fig. 5 congestion table — {lang} startup"),
            &["level", "CT Tpriv", "CT Tshared", "MB Tpriv", "MB Tshared"],
        );
        let ct = tables.congestion(lang, TrafficGenerator::CtGen)?;
        let mb = tables.congestion(lang, TrafficGenerator::MbGen)?;
        for (c, m) in ct.iter().zip(mb) {
            table.row(&[
                c.level.to_string(),
                f3(c.private_slowdown),
                f3(c.shared_slowdown),
                f3(m.private_slowdown),
                f3(m.shared_slowdown),
            ]);
        }
        out.push_str(&table.render());
    }
    let mut table = TextTable::new(
        "Fig. 5 performance table — reference functions (gmean)",
        &["level", "CT Tpriv", "CT Tshared", "MB Tpriv", "MB Tshared"],
    );
    let ct = tables.performance(TrafficGenerator::CtGen)?;
    let mb = tables.performance(TrafficGenerator::MbGen)?;
    for (c, m) in ct.iter().zip(mb) {
        table.row(&[
            c.level.to_string(),
            f3(c.private_slowdown),
            f3(c.shared_slowdown),
            f3(m.private_slowdown),
            f3(m.shared_slowdown),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "shape targets (paper Fig. 5): Tshared rows ≫ Tpriv rows; every\n\
         column grows monotonically with the stress level\n",
    );
    Ok(out)
}

/// Fig. 7: Litmus tests observing congestion rise and fall over time on
/// a four-core machine.
pub fn fig7(_config: &ReproConfig) -> Result<String> {
    let spec = MachineSpec::cascade_lake();
    let baseline = StartupBaseline::measure(&spec, Language::Python)?;
    let mut sim = Simulator::new(spec);

    // Function #1: memory-intensive (≈450 ms on core 1 once its own
    // congestion is priced in — effective CPI ≈4 with this profile).
    let hog = ExecutionProfile::builder("function-1")
        .phase(ExecPhase::new(3.0e8, 0.6, 18.0, 0.75, 0.9, 120.0))
        .build()?;
    sim.launch(hog, Placement::pinned(1))?;
    // A light tenant on core 2.
    let light = suite::by_name("fib-go")
        .ok_or("fib-go missing from suite")?
        .profile()
        .scaled(2.0)?;
    sim.launch(light, Placement::pinned(2))?;
    // A second memory burst arriving later (the paper's Function #2).
    let second = ExecutionProfile::builder("function-2")
        .phase(ExecPhase::new(2.0e8, 0.6, 20.0, 0.8, 0.9, 110.0))
        .build()?;
    let mut second = Some(second);

    let probe = suite::by_name("auth-py")
        .ok_or("auth-py missing from suite")?
        .profile()
        .startup_only()?;
    let mut table = TextTable::new(
        "Fig. 7: Litmus tests tracking machine congestion",
        &["t(ms)", "probe Tshared x", "L3/ms", "level"],
    );
    while sim.now_ms() < 1200 {
        if sim.now_ms() >= 800 {
            if let Some(profile) = second.take() {
                sim.launch(profile, Placement::pinned(1))?;
            }
        }
        let id = sim.launch(probe.clone(), Placement::pinned(3))?;
        let report = sim.run_to_completion(id)?;
        let startup = report.startup.as_ref().expect("probe startup"); // lint:allow(panic-in-lib): probe config requests startup measurement; absence is a bench-harness bug
        let reading = LitmusReading::from_startup(&baseline, startup)?;
        let level = (reading.shared_slowdown - 1.0) * 8.0 + reading.l3_miss_rate / 50_000.0;
        table.row(&[
            report.launched_ms.to_string(),
            f3(reading.shared_slowdown),
            format!("{:.0}", reading.l3_miss_rate),
            format!("{level:.2}"),
        ]);
        let resume = sim.now_ms() + 120;
        while sim.now_ms() < resume {
            sim.step();
        }
    }
    let mut out = table.render();
    out.push_str(
        "shape target (paper Fig. 7): high congestion while function #1\n\
         runs, a sharp drop once it completes, and a fresh spike when\n\
         function #2 arrives\n",
    );
    Ok(out)
}

/// Fig. 8: reference-function slowdowns under MB-Gen at stress level 14.
pub fn fig8(config: &ReproConfig) -> Result<String> {
    let spec = MachineSpec::cascade_lake();
    let level = 14usize;
    let mut table = TextTable::new(
        "Fig. 8: reference slowdowns with MB-Gen at level 14",
        &["function", "T_private", "T_shared", "T_total"],
    );
    let mut privs = Vec::new();
    let mut shareds = Vec::new();
    let mut totals = Vec::new();
    let scale = config.table_scale;

    let run_with_generator = |profile: ExecutionProfile| -> Result<_> {
        let mut sim = Simulator::new(spec.clone());
        for i in 0..level {
            let core = spec.cores - 1 - i;
            sim.launch(
                TrafficGenerator::MbGen.thread_profile(1.0e7),
                Placement::pinned(core),
            )?;
        }
        sim.run_for_ms(5);
        let id = sim.launch(profile, Placement::pinned(0))?;
        Ok(sim.run_to_completion(id)?)
    };

    for bench in suite::reference_benchmarks() {
        let profile = bench.profile().scaled(scale)?;
        let mut solo_sim = Simulator::new(spec.clone());
        let id = solo_sim.launch(profile.clone(), Placement::pinned(0))?;
        let solo = solo_sim.run_to_completion(id)?;
        let congested = run_with_generator(profile)?;
        let p = congested.counters.t_private_per_instruction()
            / solo.counters.t_private_per_instruction();
        let s = congested.counters.t_shared_per_instruction()
            / solo.counters.t_shared_per_instruction();
        let t = (congested.counters.cycles / congested.counters.instructions)
            / (solo.counters.cycles / solo.counters.instructions);
        privs.push(p);
        shareds.push(s);
        totals.push(t);
        table.row(&[bench.name().to_string(), f3(p), f3(s), f3(t)]);
    }
    table.row(&[
        "gmean".into(),
        f3(gmean(&privs)),
        f3(gmean(&shareds)),
        f3(gmean(&totals)),
    ]);

    // The paper appends the Python startup itself ("start-py").
    let startup_profile = suite::by_name("fib-py")
        .ok_or("fib-py missing from suite")?
        .profile()
        .startup_only()?;
    let mut solo_sim = Simulator::new(spec.clone());
    let id = solo_sim.launch(startup_profile.clone(), Placement::pinned(0))?;
    let solo = solo_sim.run_to_completion(id)?;
    let congested = run_with_generator(startup_profile)?;
    table.row(&[
        "start-py".into(),
        f3(congested.counters.t_private_per_instruction()
            / solo.counters.t_private_per_instruction()),
        f3(congested.counters.t_shared_per_instruction()
            / solo.counters.t_shared_per_instruction()),
        f3(
            (congested.counters.cycles / congested.counters.instructions)
                / (solo.counters.cycles / solo.counters.instructions),
        ),
    ]);
    let mut out = table.render();
    out.push_str(
        "shape targets (paper Fig. 8): varying slowdowns under one stress\n\
         level; T_shared ≫ T_private for every function; start-py tracks\n\
         the reference gmean\n",
    );
    Ok(out)
}

/// Fig. 9: startup-vs-reference regression lines and their R².
pub fn fig9(config: &ReproConfig) -> Result<String> {
    let spec = MachineSpec::cascade_lake();
    let tables = config.dedicated_tables(&spec)?;
    let model = DiscountModel::fit(&tables)?;
    let mut out = String::new();
    let mut table = TextTable::new(
        "Fig. 9: startup→reference regressions (Python probe)",
        &["generator", "component", "slope", "intercept", "R^2"],
    );
    let (ct, mb) = model.generator_models(Language::Python)?;
    for gm in [ct, mb] {
        for (component, fit) in [
            ("T_private", gm.private_fit()),
            ("T_shared", gm.shared_fit()),
            ("T_total", gm.total_fit()),
        ] {
            table.row(&[
                gm.generator().to_string(),
                component.to_string(),
                f3(fit.slope()),
                f3(fit.intercept()),
                f3(fit.r_squared()),
            ]);
        }
    }
    out.push_str(&table.render());

    // The underlying points, for eyeballing the lines.
    for gen in TrafficGenerator::ALL {
        let congestion = tables.congestion(Language::Python, gen)?;
        let performance = tables.performance(gen)?;
        let mut pts = TextTable::new(
            format!("Fig. 9 points — {gen}"),
            &["level", "startup Tshared", "reference Tshared"],
        );
        for (c, p) in congestion.iter().zip(performance) {
            pts.row(&[
                c.level.to_string(),
                f3(c.shared_slowdown),
                f3(p.shared_slowdown),
            ]);
        }
        out.push_str(&pts.render());
    }
    out.push_str("shape target (paper Fig. 9): R² between 0.836 and 0.989\n");
    Ok(out)
}

/// Fig. 10: the L3-miss logarithmic interpolation walkthrough.
pub fn fig10(config: &ReproConfig) -> Result<String> {
    let spec = MachineSpec::cascade_lake();
    let tables = config.dedicated_tables(&spec)?;
    let model = DiscountModel::fit(&tables)?;
    let (ct, mb) = model.generator_models(Language::Python)?;

    let mut out = String::new();
    let mut curves = TextTable::new(
        "Fig. 10(a): L3-miss curves per generator (log-linear fits)",
        &["startup Tshared x", "CT-Gen L3/ms", "MB-Gen L3/ms"],
    );
    for slow in [1.2, 1.4, 1.6, 1.8, 2.0, 2.2] {
        curves.row(&[
            f3(slow),
            format!("{:.0}", ct.l3_fit().predict(slow)),
            format!("{:.0}", mb.l3_fit().predict(slow)),
        ]);
    }
    out.push_str(&curves.render());

    // The worked ①②③ example: same slowdown, three L3 readings.
    let slow = 1.6;
    let l3_ct = ct.l3_fit().predict(slow);
    let l3_mb = mb.l3_fit().predict(slow);
    let mid = (l3_ct * l3_mb).sqrt(); // log-space midpoint
    let mut example = TextTable::new(
        "Fig. 10(b): interpolated discounts at startup Tshared ×1.6",
        &[
            "observed L3/ms",
            "weight",
            "presumed shared slowdown",
            "discount",
        ],
    );
    for (label, l3) in [("CT-like", l3_ct), ("midpoint", mid), ("MB-like", l3_mb)] {
        let reading = LitmusReading {
            language: Language::Python,
            private_slowdown: 1.02,
            shared_slowdown: slow,
            total_slowdown: 0.4 * 1.02 + 0.6 * slow,
            l3_miss_rate: l3,
        };
        let est = model.estimate(&reading)?;
        example.row(&[
            format!("{label} ({l3:.0})"),
            f3(est.weight),
            f3(est.shared_slowdown),
            pct(1.0 - est.r_shared()),
        ]);
    }
    out.push_str(&example.render());
    out.push_str(
        "shape target (paper Fig. 10): weight 0 at the CT curve, 1 at the MB\n\
         curve, ≈0.5 at the log-space midpoint; discounts interpolate between\n\
         the two generator extremes\n",
    );
    Ok(out)
}

/// Fig. 14: `T_private` inflation vs co-resident functions on one core.
pub fn fig14(config: &ReproConfig) -> Result<String> {
    let spec = MachineSpec::cascade_lake();
    let scale = (config.scale * 0.5).max(0.02);
    let profile = suite::by_name("aes-py")
        .ok_or("aes-py missing from suite")?
        .profile()
        .scaled(scale)?;

    let t_priv_at = |count: usize| -> Result<f64> {
        let mut sim = Simulator::new(spec.clone());
        let mut pool = BackfillPool::new(suite::benchmarks(), 11, Placement::pinned(0))
            .expect("non-empty pool"); // lint:allow(panic-in-lib): pool built two lines up from a non-empty literal
        if count > 1 {
            pool.fill(&mut sim, count - 1)?;
            pool.run(&mut sim, 50)?;
        }
        let id = sim.launch(profile.clone(), Placement::pinned(0))?;
        let report = pool.run_until(&mut sim, id)?;
        Ok(report.counters.t_private_per_instruction())
    };

    let solo = t_priv_at(1)?;
    let mut table = TextTable::new(
        "Fig. 14: T_private vs co-resident count on one core",
        &["functions/core", "normalised T_private"],
    );
    for count in [1usize, 2, 3, 5, 7, 10, 13, 16, 20, 25] {
        table.row(&[
            count.to_string(),
            format!("{:.4}", t_priv_at(count)? / solo),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "shape targets (paper Fig. 14): logarithmic growth, ≈1.025 at 10\n\
         functions/core, flat past ≈20\n",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_walkthrough_weights_span_the_bracket() {
        let out = fig10(&ReproConfig::fast()).unwrap();
        assert!(out.contains("CT-like"));
        assert!(out.contains("MB-like"));
        assert!(out.contains("midpoint"));
    }

    #[test]
    fn fig14_reports_saturating_growth() {
        let out = fig14(&ReproConfig::fast()).unwrap();
        assert!(out.contains("functions/core"));
        assert!(out.contains("25"));
    }
}
