//! The one table from `ClusterDriver`'s wall-clock stage names to the
//! benchmark's per-layer metrics.
//!
//! `ClusterDriver::profiling(true)` records a `StageProfile` keyed by
//! free-form strings. The benchmark reads it as it is, through this
//! table alone: a stage missing from the table, or a workload's
//! expected stage that never shows up, fails the traced run, so a
//! renamed or dropped stage is caught from outside the program.

use std::collections::BTreeSet;

use litmus_cluster::StageProfile;

/// One known stage: its name and the metric it feeds.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Stage name as `ClusterDriver` records it.
    pub name: &'static str,
    /// Per-layer metric the stage's total wall time is reported as.
    pub metric: &'static str,
    /// Nanoseconds per unit of that metric.
    pub ns_per_unit: f64,
}

/// Every stage `ClusterDriver` records, and where each one is reported.
/// `barrier` is only recorded by multi-threaded slice stepping, which
/// no workload uses (the event engine drops it from its profile), so
/// its metric is never printed.
pub const STAGES: [Stage; 8] = [
    Stage {
        name: "dispatch",
        metric: "cluster.dispatch_us",
        ns_per_unit: 1e3,
    },
    Stage {
        name: "scale",
        metric: "cluster.scale_us",
        ns_per_unit: 1e3,
    },
    Stage {
        name: "steal",
        metric: "cluster.steal_us",
        ns_per_unit: 1e3,
    },
    Stage {
        name: "step",
        metric: "sim.step_ms",
        ns_per_unit: 1e6,
    },
    Stage {
        name: "fan-out",
        metric: "pool.fanout_ms",
        ns_per_unit: 1e6,
    },
    Stage {
        name: "queue",
        metric: "cluster.queue_us",
        ns_per_unit: 1e3,
    },
    Stage {
        name: "bulk-account",
        metric: "cluster.bulk_account_us",
        ns_per_unit: 1e3,
    },
    Stage {
        name: "barrier",
        metric: "pool.barrier_ms",
        ns_per_unit: 1e6,
    },
];

/// The per-layer metrics stage timings are reported as, `barrier`'s
/// excluded (see [`STAGES`]).
pub fn reported_metrics() -> impl Iterator<Item = &'static Stage> {
    STAGES.iter().filter(|stage| stage.name != "barrier")
}

/// Checks that every stage in `profile` is known to [`STAGES`] and
/// that each `expected` stage was recorded. Known stages a workload
/// does not list may appear (`bulk-account` does whenever the input
/// has a quiet gap).
pub fn check(profile: &StageProfile, expected: &[&str]) -> Result<(), String> {
    let seen: BTreeSet<&str> = profile.stages().map(|(name, _)| name).collect();
    if let Some(unknown) = seen
        .iter()
        .find(|name| !STAGES.iter().any(|s| s.name == **name))
    {
        return Err(format!("unknown stage '{unknown}' in the replay's profile"));
    }
    let missing: Vec<_> = expected
        .iter()
        .filter(|name| !seen.contains(*name))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "expected stages missing from the profile: {missing:?}"
        ));
    }
    Ok(())
}

/// Total wall time of `stage` in its metric's unit (0 when absent).
pub fn total(profile: &StageProfile, stage: &Stage) -> f64 {
    profile.stage(stage.name).map_or(0, |stat| stat.total_ns) as f64 / stage.ns_per_unit
}

/// Times `name` ran (0 when absent).
pub fn calls(profile: &StageProfile, name: &str) -> u64 {
    profile.stage(name).map_or(0, |stat| stat.calls)
}
