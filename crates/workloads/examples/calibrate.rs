//! Scratch calibration harness: prints the aggregates the paper reports
//! so the model constants can be tuned (Figs. 2, 3, 4 and probe
//! sensitivity). Not part of the public deliverables — kept as a
//! maintenance tool.

use std::collections::HashMap;

use litmus_sim::{InstanceId, MachineSpec, Placement, Simulator};
use litmus_workloads::{suite, Language, TrafficGenerator, WorkloadMix};

fn main() {
    solo_landscape();
    corun_landscape();
    probe_sensitivity();
}

/// Fig. 4: solo T_private / T_shared distribution.
fn solo_landscape() {
    println!("=== solo landscape (Fig. 4) ===");
    let mut fracs = Vec::new();
    for b in suite::benchmarks() {
        let mut sim = Simulator::new(MachineSpec::cascade_lake());
        let id = sim.launch(b.profile(), Placement::pinned(0)).unwrap();
        let r = sim.run_to_completion(id).unwrap();
        let frac = r.counters.t_shared_cycles() / r.counters.cycles;
        fracs.push(frac);
        println!(
            "{:14} wall {:7.1} ms  shared {:5.1}%  ipc {:.2}",
            b.name(),
            r.wall_ms(),
            frac * 100.0,
            r.counters.ipc()
        );
    }
    let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
    println!("mean shared fraction: {:.1}%\n", mean * 100.0);
}

/// Figs. 2/3: slowdown with 26 co-runners, one function per core.
fn corun_landscape() {
    println!("=== co-run with 26 others (Figs. 2/3) ===");
    let mut slowdowns = Vec::new();
    let mut priv_slow = Vec::new();
    let mut shared_slow = Vec::new();
    for b in suite::benchmarks() {
        // Solo baseline.
        let mut sim = Simulator::new(MachineSpec::cascade_lake());
        let id = sim.launch(b.profile(), Placement::pinned(0)).unwrap();
        let solo = sim.run_to_completion(id).unwrap();

        // Congested run: 26 co-runners on cores 1..=26, backfilled.
        let mut sim = Simulator::new(MachineSpec::cascade_lake());
        let mut mix = WorkloadMix::new(suite::benchmarks(), 42).unwrap();
        let mut core_of: HashMap<InstanceId, usize> = HashMap::new();
        for core in 1..=26 {
            let cid = sim
                .launch(mix.next_profile(), Placement::pinned(core))
                .unwrap();
            core_of.insert(cid, core);
        }
        // Warm up 200 ms with backfill.
        for _ in 0..200 {
            for done in sim.step() {
                if let Some(core) = core_of.remove(&done.id) {
                    let cid = sim
                        .launch(mix.next_profile(), Placement::pinned(core))
                        .unwrap();
                    core_of.insert(cid, core);
                }
            }
        }
        let tid = sim.launch(b.profile(), Placement::pinned(0)).unwrap();
        let cong = 'measure: loop {
            for done in sim.step() {
                if done.id == tid {
                    break 'measure done.report;
                } else if let Some(core) = core_of.remove(&done.id) {
                    let cid = sim
                        .launch(mix.next_profile(), Placement::pinned(core))
                        .unwrap();
                    core_of.insert(cid, core);
                }
            }
        };
        let slow = cong.wall_ms() / solo.wall_ms();
        let ps =
            cong.counters.t_private_per_instruction() / solo.counters.t_private_per_instruction();
        let ss =
            cong.counters.t_shared_per_instruction() / solo.counters.t_shared_per_instruction();
        slowdowns.push(slow);
        priv_slow.push(ps);
        shared_slow.push(ss);
        println!(
            "{:14} slowdown {:5.3}  Tpriv {:5.3}  Tshared {:5.3}",
            b.name(),
            slow,
            ps,
            ss
        );
    }
    let gmean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    println!(
        "gmean slowdown {:.3} (paper ~1.115), Tpriv {:.3} (paper ~1.04), Tshared {:.3} (paper ~2.81)\n",
        gmean(&slowdowns),
        gmean(&priv_slow),
        gmean(&shared_slow)
    );
}

/// Probe sensitivity: Python startup slowdown + machine L3 misses under
/// each generator at several levels (congestion-table raw material).
fn probe_sensitivity() {
    println!("=== python startup probe vs generators ===");
    // Solo startup baseline.
    let probe = suite::by_name("fib-py")
        .unwrap()
        .profile()
        .startup_only()
        .unwrap();
    let mut sim = Simulator::new(MachineSpec::cascade_lake());
    let id = sim.launch(probe.clone(), Placement::pinned(0)).unwrap();
    let solo = sim.run_to_completion(id).unwrap();
    let solo_priv = solo.counters.t_private_per_instruction();
    let solo_shared = solo.counters.t_shared_per_instruction();
    println!(
        "solo: wall {:.1} ms ipc {:.2} shared-frac {:.2}",
        solo.wall_ms(),
        solo.counters.ipc(),
        solo.counters.t_shared_cycles() / solo.counters.cycles
    );
    for gen in TrafficGenerator::ALL {
        for level in [4usize, 8, 14, 22, 31] {
            let mut sim = Simulator::new(MachineSpec::cascade_lake());
            for core in 1..=level {
                sim.launch(gen.thread_profile(100_000.0), Placement::pinned(core))
                    .unwrap();
            }
            sim.run_for_ms(5);
            let id = sim.launch(probe.clone(), Placement::pinned(0)).unwrap();
            let r = sim.run_to_completion(id).unwrap();
            let startup = r.startup.unwrap();
            println!(
                "{} level {:2}: Tpriv x{:.3} Tshared x{:.3} L3/ms {:>10.0}",
                gen,
                level,
                startup.counters.t_private_per_instruction() / solo_priv,
                startup.counters.t_shared_per_instruction() / solo_shared,
                startup.machine_l3_miss_rate
            );
        }
    }
    let _ = Language::ALL;
}
