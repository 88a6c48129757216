//! Property-based tests on simulator invariants.

use litmus_sim::{
    ContentionInputs, ContentionModel, ExecPhase, ExecutionProfile, MachineSpec, Placement,
    Simulator,
};
use proptest::prelude::*;

fn arb_phase() -> impl Strategy<Value = ExecPhase> {
    (
        1.0e5f64..5.0e7, // instructions
        0.2f64..2.0,     // cpi_private
        0.0f64..20.0,    // l2_mpki
        0.0f64..1.0,     // l3_miss_ratio
        0.1f64..1.0,     // blocking
        0.5f64..120.0,   // footprint
    )
        .prop_map(|(i, cpi, mpki, ratio, blocking, fp)| {
            ExecPhase::new(i, cpi, mpki, ratio, blocking, fp)
        })
}

fn profile_from(phases: Vec<ExecPhase>) -> ExecutionProfile {
    let mut builder = ExecutionProfile::builder("prop");
    for p in phases {
        builder = builder.phase(p);
    }
    builder.build().expect("arbitrary phases are in-range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counters are internally consistent for any workload:
    /// instructions exactly match the profile, T_priv + T_shared equals
    /// total cycles, and L3 misses never exceed L2 misses.
    #[test]
    fn pmu_accounting_is_consistent(phases in prop::collection::vec(arb_phase(), 1..4)) {
        let profile = profile_from(phases);
        let expected_instr = profile.total_instructions();
        let mut sim = Simulator::new(MachineSpec::cascade_lake());
        let id = sim.launch(profile, Placement::pinned(0)).unwrap();
        let report = sim.run_to_completion(id).unwrap();
        let c = report.counters;
        prop_assert!((c.instructions - expected_instr).abs() < 1.0);
        prop_assert!(
            (c.t_private_cycles() + c.t_shared_cycles() - c.cycles).abs()
                < 1e-6 * c.cycles
        );
        prop_assert!(c.l3_misses <= c.l2_misses * (1.0 + 1e-9));
        prop_assert!(c.cycles > 0.0);
        prop_assert!(report.wall_ms() > 0.0);
    }

    /// Adding co-runners never speeds a workload up.
    #[test]
    fn corunners_never_speed_things_up(
        phase in arb_phase(),
        noise in arb_phase(),
        corunners in 1usize..12,
    ) {
        let profile = profile_from(vec![phase]);
        let mut solo = Simulator::new(MachineSpec::cascade_lake());
        let id = solo.launch(profile.clone(), Placement::pinned(0)).unwrap();
        let solo_report = solo.run_to_completion(id).unwrap();

        let mut busy = Simulator::new(MachineSpec::cascade_lake());
        for core in 1..=corunners {
            // Long-lived noise so it outlasts the measured workload.
            let noise_profile = profile_from(vec![ExecPhase::new(
                1.0e10,
                noise.cpi_private,
                noise.l2_mpki,
                noise.l3_miss_ratio,
                noise.blocking,
                noise.footprint_mb,
            )]);
            busy.launch(noise_profile, Placement::pinned(core)).unwrap();
        }
        let id = busy.launch(profile, Placement::pinned(0)).unwrap();
        let busy_report = busy.run_to_completion(id).unwrap();
        prop_assert!(
            busy_report.counters.cycles >= solo_report.counters.cycles * 0.999,
            "solo {} vs congested {}",
            solo_report.counters.cycles,
            busy_report.counters.cycles
        );
    }

    /// The contention model is monotone: more traffic never lowers
    /// latencies, and utilisations scale with demand.
    #[test]
    fn contention_model_is_monotone(
        l2_rate in 0.0f64..3.0e6,
        l3_rate in 0.0f64..2.0e6,
        footprint in 0.0f64..4096.0,
        bump in 1.01f64..3.0,
    ) {
        let model = ContentionModel::new(MachineSpec::cascade_lake());
        let l3_rate = l3_rate.min(l2_rate); // L3 misses ⊆ L2 misses
        let base = model.evaluate(
            ContentionInputs {
                l2_miss_rate: l2_rate,
                l3_miss_rate: l3_rate,
                total_footprint_mb: footprint,
            },
            8,
        );
        let more = model.evaluate(
            ContentionInputs {
                l2_miss_rate: l2_rate * bump,
                l3_miss_rate: l3_rate * bump,
                total_footprint_mb: footprint * bump,
            },
            8,
        );
        prop_assert!(more.l3_latency >= base.l3_latency);
        prop_assert!(more.mem_latency >= base.mem_latency);
        prop_assert!(more.capacity_pressure >= base.capacity_pressure);
        prop_assert!(base.l3_latency.is_finite());
        prop_assert!(more.mem_latency.is_finite());
    }

    /// Scaling a profile scales its cycles near-linearly when alone.
    #[test]
    fn scaled_profiles_scale_cycles(phase in arb_phase(), scale in 1.5f64..4.0) {
        let profile = profile_from(vec![phase]);
        let run = |p: ExecutionProfile| {
            let mut sim = Simulator::new(MachineSpec::cascade_lake());
            let id = sim.launch(p, Placement::pinned(0)).unwrap();
            sim.run_to_completion(id).unwrap().counters.cycles
        };
        let base = run(profile.clone());
        let scaled = run(profile.scaled(scale).unwrap());
        let ratio = scaled / base;
        prop_assert!(
            (ratio / scale - 1.0).abs() < 0.02,
            "cycles ratio {ratio} vs scale {scale}"
        );
    }

    /// Determinism: identical launch sequences give identical counters.
    #[test]
    fn simulation_is_reproducible(phases in prop::collection::vec(arb_phase(), 1..3)) {
        let run = || {
            let mut sim = Simulator::new(MachineSpec::cascade_lake());
            for (core, &p) in phases.iter().enumerate() {
                sim.launch(profile_from(vec![p]), Placement::pinned(core))
                    .unwrap();
            }
            let mut done = sim.run_until_idle().unwrap();
            done.sort_by_key(|c| c.id);
            done.into_iter()
                .map(|c| c.report.counters)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
