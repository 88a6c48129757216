//! Live congestion monitoring with Litmus tests (paper Fig. 7): four
//! cores, functions arriving over time, each startup probing the
//! machine state. A memory-hungry "Function #1" drives the congestion
//! level up; once it finishes, probes read a quiet machine again.
//!
//! Run with: `cargo run --release --example congestion_monitor`

use litmus::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = MachineSpec::cascade_lake();
    let tables = TableBuilder::new(spec.clone())
        .levels([6, 14, 22])
        .languages([Language::Python])
        .reference_scale(0.08)
        .build()?;
    let baseline = *tables.baseline(Language::Python)?;

    let mut sim = Simulator::new(spec);

    // Function #1: a memory-intensive tenant on core 1 (≈450 ms at its
    // congestion-inflated CPI of ≈4).
    let hog = ExecutionProfile::builder("function-1-memhog")
        .phase(ExecPhase::new(3.0e8, 0.6, 18.0, 0.75, 0.9, 120.0))
        .build()?;
    sim.launch(hog, Placement::pinned(1))?;

    // Background light tenant on core 2.
    let light = suite::by_name("fib-go").unwrap().profile().scaled(3.0)?;
    sim.launch(light, Placement::pinned(2))?;

    println!("time(ms)  probe-shared-slowdown  machine-L3/ms  congestion-level");
    let probe_profile = suite::by_name("auth-py")
        .unwrap()
        .profile()
        .startup_only()?;
    let mut t = 0;
    while t < 1400 {
        // Launch a Litmus probe on core 3 (a fresh function starting).
        let id = sim.launch(probe_profile.clone(), Placement::pinned(3))?;
        let report = sim.run_to_completion(id)?;
        let startup = report.startup.as_ref().expect("probe startup");
        let reading = LitmusReading::from_startup(&baseline, startup)?;
        // A scalar "level" in the Fig. 7 spirit from the probe signals.
        let level = (reading.shared_slowdown - 1.0) * 8.0 + (reading.l3_miss_rate / 50_000.0);
        println!(
            "{:7}  {:>20.3}  {:>13.0}  {:>16.2}",
            t, reading.shared_slowdown, reading.l3_miss_rate, level
        );
        // Idle gap until the next function arrival.
        let next = sim.now_ms() + 150;
        while sim.now_ms() < next {
            sim.step();
        }
        t = sim.now_ms() as i64 as i32;
    }
    println!("\n(function #1 completes around 450 ms — the probes see the drop)");
    Ok(())
}
