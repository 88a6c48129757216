//! Opt-in wall-clock stage profiling.
//!
//! Everything else in this crate is keyed to *sim* time and must be
//! bit-identical across hosts and thread counts; stage profiling is
//! the one deliberate exception. It measures where real time goes in
//! the replay loop — dispatch, stepping, the worker-pool fan-out,
//! stealing, scaling — so engine rework has a committed before/after. Because the numbers are wall clock,
//! the profile is excluded from [`crate::Telemetry`] equality and from
//! the deterministic JSONL export; it surfaces only through
//! [`StageProfile::summary`] / [`StageProfile::to_json`], which
//! callers opt into explicitly (e.g. the bench-trajectory runner).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::JsonObject;

/// Accumulated wall-clock cost of one named stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStat {
    /// Times the stage ran.
    pub calls: u64,
    /// Total wall time, ns.
    pub total_ns: u64,
    /// Longest single run, ns.
    pub max_ns: u64,
}

impl StageStat {
    /// Mean wall time per call, ns.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

/// Wall-clock profiler for the replay loop's stages. Disabled by
/// default: a disabled profiler never reads the clock, so the replay
/// hot path pays two branch checks per stage and nothing else.
#[derive(Debug, Clone, Default)]
pub struct StageProfile {
    enabled: bool,
    stages: BTreeMap<&'static str, StageStat>,
}

impl StageProfile {
    /// A profiler that records (`enabled`) or ignores everything.
    pub fn new(enabled: bool) -> Self {
        StageProfile {
            enabled,
            stages: BTreeMap::new(),
        }
    }

    /// Whether timings are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a measurement; returns `None` (and costs nothing) when
    /// disabled. Pair with [`StageProfile::stop`].
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Ends a measurement started with [`StageProfile::start`],
    /// charging the elapsed wall time to `stage`.
    pub fn stop(&mut self, stage: &'static str, started: Option<Instant>) {
        let Some(started) = started else { return };
        let elapsed = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let stat = self.stages.entry(stage).or_default();
        stat.calls += 1;
        stat.total_ns += elapsed;
        stat.max_ns = stat.max_ns.max(elapsed);
    }

    /// Times a closure as one run of `stage`.
    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let started = self.start();
        let result = f();
        self.stop(stage, started);
        result
    }

    /// All stages in name order.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, &StageStat)> + '_ {
        self.stages.iter().map(|(&name, stat)| (name, stat))
    }

    /// One stage's accumulated cost.
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.get(name)
    }

    /// Human-readable per-stage lines (empty when disabled or nothing
    /// ran). Explicitly labeled wall-clock so it is never mistaken for
    /// the deterministic export.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, stat) in self.stages() {
            out.push_str(&format!(
                "  {:<10} {:>9.2} ms total, {:>7} calls, mean {:>7.1} µs, max {:>8.1} µs\n",
                name,
                stat.total_ns as f64 / 1e6,
                stat.calls,
                stat.mean_ns() as f64 / 1e3,
                stat.max_ns as f64 / 1e3,
            ));
        }
        out
    }

    /// JSON array of per-stage objects (wall clock — excluded from the
    /// deterministic JSONL export; used by the bench-trajectory file).
    pub fn to_json(&self) -> String {
        let stages = self
            .stages()
            .map(|(name, stat)| {
                let mut obj = JsonObject::new();
                obj.str_field("stage", name);
                obj.u64_field("calls", stat.calls);
                obj.f64_field("total_ms", stat.total_ns as f64 / 1e6);
                obj.f64_field("mean_us", stat.mean_ns() as f64 / 1e3);
                obj.f64_field("max_us", stat.max_ns as f64 / 1e3);
                obj.finish()
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("[{stages}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut profile = StageProfile::new(false);
        profile.time("step", || {
            std::thread::sleep(std::time::Duration::from_micros(50))
        });
        assert!(profile.stages().next().is_none());
        assert!(profile.start().is_none());
        assert_eq!(profile.summary(), "");
    }

    #[test]
    fn enabled_profiler_accumulates_calls_and_time() {
        let mut profile = StageProfile::new(true);
        for _ in 0..3 {
            profile.time("step", || std::hint::black_box(1 + 1));
        }
        let stat = profile.stage("step").unwrap();
        assert_eq!(stat.calls, 3);
        assert!(stat.max_ns <= stat.total_ns);
        assert!(profile.summary().contains("step"));
        assert!(profile.to_json().starts_with(r#"[{"stage":"step""#));
    }
}
