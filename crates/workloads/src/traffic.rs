use std::fmt;

use litmus_sim::{ExecPhase, ExecutionProfile};

/// The paper's two traffic generators (§3), used by providers to build
/// congestion and performance tables at controlled stress levels.
///
/// Both are multi-threaded; the stress level is the number of spawned
/// threads (1–31 on the 32-core testbed), each pinned to its own core.
///
/// * **CT-Gen** exerts pressure *up to* the L3: massive L2 misses that
///   hit in the L3 (small per-thread footprint, near-zero L3 miss
///   ratio), saturating the shared ring/L3 ports.
/// * **MB-Gen** stresses resources *beyond* the L3: large per-thread
///   footprints and a high L3 miss ratio, consuming DRAM bandwidth and
///   evicting L3 blocks. Its L2 miss count is *lower* than CT-Gen's
///   because it throttles itself on its own L3 misses (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficGenerator {
    /// Core-to-L3 traffic generator.
    CtGen,
    /// Memory-bandwidth traffic generator.
    MbGen,
}

impl TrafficGenerator {
    /// Both generators, CT first (the paper's table order).
    pub const ALL: [TrafficGenerator; 2] = [TrafficGenerator::CtGen, TrafficGenerator::MbGen];

    /// Short name used in table headers (`CT-Gen` / `MB-Gen`).
    pub fn name(&self) -> &'static str {
        match self {
            TrafficGenerator::CtGen => "CT-Gen",
            TrafficGenerator::MbGen => "MB-Gen",
        }
    }

    /// The workload profile of a single generator thread running for
    /// (solo-equivalent) `duration_ms` milliseconds.
    ///
    /// Threads are modelled as one long homogeneous phase; stress level
    /// is produced by launching this profile on N distinct cores.
    pub fn thread_profile(&self, duration_ms: f64) -> ExecutionProfile {
        let phase = self.thread_phase(duration_ms);
        ExecutionProfile::builder(self.name())
            .phase(phase)
            .build()
            .expect("generator parameters are valid") // lint:allow(panic-in-lib): parameters are compile-time constants validated by unit tests
    }

    fn thread_phase(&self, duration_ms: f64) -> ExecPhase {
        match self {
            // Pointer-chase over an L3-resident buffer: every access
            // misses L2, almost none miss L3.
            TrafficGenerator::CtGen => {
                let instr_per_ms = 1.0e6;
                ExecPhase::new(instr_per_ms * duration_ms, 0.35, 65.0, 0.02, 0.9, 0.9)
            }
            // Streaming over a DRAM-sized buffer: fewer L2 misses per
            // instruction than CT-Gen (self-throttled), but most of
            // them miss the L3 too.
            TrafficGenerator::MbGen => {
                let instr_per_ms = 0.8e6;
                ExecPhase::new(instr_per_ms * duration_ms, 0.4, 38.0, 0.85, 0.92, 14.0)
            }
        }
    }
}

impl fmt::Display for TrafficGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litmus_sim::{Completion, MachineSpec, Placement, Simulator};

    #[test]
    fn ct_gen_hits_l3_mb_gen_misses_it() {
        let ct = TrafficGenerator::CtGen.thread_profile(10.0);
        let mb = TrafficGenerator::MbGen.thread_profile(10.0);
        let ct_phase = ct.phases()[0];
        let mb_phase = mb.phases()[0];
        assert!(ct_phase.l3_miss_ratio < 0.1);
        assert!(mb_phase.l3_miss_ratio > 0.7);
        assert!(ct_phase.l2_mpki > mb_phase.l2_mpki);
        // CT-Gen's aggregate footprint at 31 threads still fits the L3.
        assert!(ct_phase.footprint_mb * 31.0 < 44.0);
        // MB-Gen's does not.
        assert!(mb_phase.footprint_mb * 31.0 > 44.0);
    }

    #[test]
    fn generators_produce_fig1_miss_ordering() {
        // Run each generator at level 8 and compare machine L3 misses:
        // MB-Gen must dominate L3 misses; CT-Gen must dominate L2 misses.
        let mut results = Vec::new();
        for gen in TrafficGenerator::ALL {
            let mut sim = Simulator::new(MachineSpec::cascade_lake());
            for core in 0..8 {
                sim.launch(gen.thread_profile(50.0), Placement::pinned(core))
                    .unwrap();
            }
            let mut done = sim.run_until_idle().unwrap();
            done.sort_by_key(|c| c.id);
            let mut l2 = 0.0;
            let mut l3 = 0.0;
            for Completion { report: r, .. } in done {
                l2 += r.counters.l2_misses;
                l3 += r.counters.l3_misses;
            }
            results.push((l2, l3));
        }
        let (ct_l2, ct_l3) = results[0];
        let (mb_l2, mb_l3) = results[1];
        assert!(ct_l2 > mb_l2, "CT-Gen generates more L2 misses");
        assert!(mb_l3 > ct_l3 * 5.0, "MB-Gen dominates L3 misses");
    }

    #[test]
    fn higher_levels_generate_more_traffic() {
        let run = |threads: usize| {
            let mut sim = Simulator::new(MachineSpec::cascade_lake());
            for core in 0..threads {
                sim.launch(
                    TrafficGenerator::MbGen.thread_profile(30.0),
                    Placement::pinned(core),
                )
                .unwrap();
            }
            sim.run_until_idle().unwrap();
            sim.machine_l3_misses()
        };
        assert!(run(16) > run(4) * 2.0);
    }
}
