//! The host-speed reference that every end-to-end timing is scaled by.
//!
//! The benchmark runs on a small VM that shares its processor's caches
//! and memory with other tenants. Their load comes and goes in phases
//! that last from seconds to minutes, and the program slows with it: in
//! five minutes of back-to-back replays of one `dense-elastic` input on
//! a 2-vCPU Xeon VM, the same replay took from 1.47 s to 2.65 s.
//!
//! So the benchmark times a small fixed kernel before every repetition:
//! a churn of an ordered map of 50 000 keys (branchy, allocating, with a
//! working set about the size of a core's cache). Of the kernels tried
//! (a pointer chase through 32 MiB, dependent integer and independent
//! floating-point arithmetic, the map churn, and mixes of them), the map
//! churn alone followed both the replays and the pricing experiments
//! best: over windows of eight repetitions, dividing the repetition
//! time by it cut its spread (quartile distance over median) from 0.14
//! to 0.05 on `dense-elastic` and from 0.16 to 0.04 on
//! `heavy-congestion`.
//!
//! Each end-to-end timing is reported in *reference seconds*: host
//! seconds divided by the run's mean slowness, the kernel's time over
//! its time on a quiet host ([`MAP_NS`]). The kernel is benchmark code,
//! the same on every commit, so a change to the program moves a scaled
//! timing as much as a raw one. Raw timings are printed too (`timing`
//! lines).

use std::collections::BTreeMap;

use crate::spans::{now, secs_since};

/// Inserts of one timed churn.
const OPS: u64 = 400_000;
/// Keys the map holds before each insert evicts the smallest.
const KEYS: usize = 50_000;
/// Nanoseconds per insert on a quiet host (the VM above).
pub const MAP_NS: f64 = 160.0;

/// Next value of a 64-bit linear congruential generator.
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Times one churn: [`OPS`] inserts of pseudo-random keys into a map
/// kept at [`KEYS`] entries. Returns nanoseconds per insert.
fn churn_ns() -> f64 {
    let started = now();
    let mut map = BTreeMap::new();
    let mut key = 7u64;
    for op in 0..OPS {
        key = lcg(key);
        map.insert(key % (4 * KEYS as u64), op);
        if map.len() > KEYS {
            map.pop_first();
        }
    }
    std::hint::black_box(&map);
    secs_since(started) * 1e9 / OPS as f64
}

/// The slowness samples taken in this run.
pub struct HostRef {
    slowness: Vec<f64>,
}

impl HostRef {
    /// A reference with no samples; runs the kernel once, untimed, so
    /// the first sample finds the allocator warm.
    pub fn new() -> Self {
        churn_ns();
        HostRef {
            slowness: Vec::new(),
        }
    }

    /// Times the kernel once and records the host's slowness: its time
    /// relative to a quiet host.
    pub fn sample(&mut self) {
        self.slowness.push(churn_ns() / MAP_NS);
    }

    /// Factor from host seconds to reference seconds: one over the
    /// run's mean slowness. Printed with its samples.
    pub fn scale(&self) -> f64 {
        let scale = 1.0 / crate::summarize("host.slowness", &self.slowness);
        println!("host: reference seconds = host seconds x {scale:.6}");
        scale
    }
}
