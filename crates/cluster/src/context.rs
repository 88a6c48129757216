use std::collections::BTreeMap;

use litmus_core::{
    CommercialPricing, DiscountModel, IdealPricing, Invoice, LitmusPricing, LitmusReading,
    PricingTables,
};
use litmus_sim::{ExecutionReport, MachineSpec, Placement, PmuCounters, Simulator};
use litmus_workloads::Benchmark;

use crate::error::ClusterError;
use crate::Result;

/// Everything a machine needs to turn a completed invocation into an
/// [`Invoice`], shared read-only across all machines while they step in
/// parallel: the fitted discount model, the calibration tables (probe
/// baselines) and a solo-oracle cache for the ideal-price comparison.
#[derive(Debug, Clone)]
pub struct ServingContext {
    pricing: LitmusPricing,
    model: DiscountModel,
    tables: PricingTables,
    scale: f64,
    solo: BTreeMap<&'static str, PmuCounters>,
}

impl ServingContext {
    /// Builds a context pricing with `model` against `tables`, scaling
    /// every served function's instruction counts by `scale`
    /// (experiments shrink bodies for speed; per-instruction behaviour
    /// is unchanged).
    pub fn new(tables: PricingTables, model: DiscountModel, scale: f64) -> Self {
        ServingContext {
            pricing: LitmusPricing::new(model.clone()),
            model,
            tables,
            scale,
            solo: BTreeMap::new(),
        }
    }

    /// The configured profile scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The calibration tables (probe baselines, congestion index).
    pub fn tables(&self) -> &PricingTables {
        &self.tables
    }

    /// The fitted discount model.
    pub fn model(&self) -> &DiscountModel {
        &self.model
    }

    /// Whether `function`'s solo oracle is already cached.
    pub fn is_warmed(&self, function: &Benchmark) -> bool {
        self.solo.contains_key(function.name())
    }

    /// Runs `function` alone on an idle `spec` machine and caches its
    /// solo counters (no-op when already cached). Replays call this
    /// lazily, the first time each function appears; each solo run
    /// gets its own fresh simulator, so warming order cannot matter.
    ///
    /// # Errors
    ///
    /// Propagates solo-run failures.
    pub fn warm_function(&mut self, spec: &MachineSpec, function: &Benchmark) -> Result<()> {
        let name = function.name();
        if self.solo.contains_key(name) {
            return Ok(());
        }
        let mut sim = Simulator::new(spec.clone());
        let profile = function
            .profile()
            .scaled(self.scale)
            .map_err(litmus_core::CoreError::from)?;
        let id = sim
            .launch(profile, Placement::pinned(0))
            .map_err(litmus_core::CoreError::from)?;
        let counters = sim
            .run_to_completion(id)
            .map_err(litmus_core::CoreError::from)?
            .counters;
        self.solo.insert(name, counters);
        Ok(())
    }

    /// Prices one completed invocation and returns the invoice plus the
    /// machine-congestion signal its startup probe produced (the
    /// presumed slowdown of a typical function, ≥ 1 — what
    /// [`crate::LitmusAware`] placement minimises).
    ///
    /// # Errors
    ///
    /// * [`ClusterError::UnknownFunction`] when the cache was not
    ///   warmed with this function;
    /// * propagated probe/pricing failures.
    pub fn price(&self, function: &Benchmark, report: &ExecutionReport) -> Result<(Invoice, f64)> {
        let solo = self
            .solo
            .get(function.name())
            .ok_or(ClusterError::UnknownFunction(function.name()))?;
        let baseline = self.tables.baseline(function.language())?;
        let startup = report
            .startup
            .as_ref()
            .ok_or(litmus_core::CoreError::NoStartup)?;
        let reading = LitmusReading::from_startup(baseline, startup)?;
        let estimate = self.model.estimate(&reading)?;
        let counters = report.counters;
        let invoice = Invoice {
            function: function.name().to_owned(),
            counters,
            commercial: CommercialPricing::new().price(&counters),
            litmus: self.pricing.price(&reading, &counters)?,
            ideal: IdealPricing::new().price(&counters, solo),
        };
        Ok((invoice, estimate.total_slowdown))
    }
}
