//! Probe-driven and forecast-driven autoscaling.
//!
//! Paper §5.1's observation — Litmus congestion probes give the
//! provider a free scheduling signal — also prices *capacity*. The
//! **reactive** policy acts on that signal directly: when the
//! fleetwide forward-adjusted slowdown prediction crosses a high-water
//! mark the fleet is too hot and a machine is booted; when it falls
//! under a low-water mark an idle machine is drained (its background
//! fillers stop being backfilled, the scheduler stops routing to it)
//! and retired once empty. The **predictive** policy
//! ([`ScalingPolicy::Predictive`]) additionally feeds each slice's
//! admitted-arrival count into an online forecaster
//! (`litmus-forecast`) and boots machines when the upper band of the
//! horizon forecast exceeds what the serving fleet can absorb —
//! *before* the burst lands, with the reactive high-water mark kept as
//! a backstop for forecast misses and scale-downs still probe-gated so
//! a bad forecast can only over-provision, never worsen the SLO tail.
//! Retired machines' billing shards are folded into the cluster's
//! retained aggregator first, so [`crate::BillingAggregator`] totals
//! are conserved across any scaling history.

use litmus_forecast::{BandedForecaster, Forecaster, ForecasterSpec, HorizonForecast};

use crate::error::ClusterError;
use crate::machine::{MachineConfig, MachineId};
use crate::policy::MachineSnapshot;
use crate::{Cluster, Result};

/// Forecast-driven capacity planning knobs for
/// [`ScalingPolicy::Predictive`].
///
/// The forecaster observes one value per scheduling slice — the
/// arrivals admitted in that slice — and the scaler provisions against
/// the *upper band* of the forecast [`PredictiveConfig::horizon_slices`]
/// ahead (the boot lead time), converting rate to machines through
/// [`PredictiveConfig::machine_rate_per_s`].
///
/// # Examples
///
/// ```
/// use litmus_cluster::{ForecasterSpec, PredictiveConfig};
///
/// let config = PredictiveConfig::new(
///     ForecasterSpec::SeasonalHoltWinters {
///         alpha: 0.3,
///         beta: 0.05,
///         gamma: 0.3,
///         period: 30,
///     },
///     120.0,
/// )
/// .horizon_slices(8)
/// .headroom(1.2)
/// .band_quantile(0.9);
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictiveConfig {
    /// Which forecasting model tracks the admitted-arrival series; a
    /// fresh zero-state instance is built per replay.
    pub spec: ForecasterSpec,
    /// Forecast lead in scheduling slices (≥ 1) — set it to cover the
    /// machine boot + warm-up time so capacity is serving when the
    /// forecast burst lands.
    pub horizon_slices: usize,
    /// Arrivals per second one machine absorbs at its target
    /// utilization — the per-machine service-rate estimate that turns
    /// a rate forecast into a machine count (> 0).
    pub machine_rate_per_s: f64,
    /// Safety multiplier on the forecast band before conversion
    /// (≥ 1).
    pub headroom: f64,
    /// Quantile of the upper forecast band capacity is provisioned
    /// against, in `(0.5, 1)`.
    pub band_quantile: f64,
    /// Residuals retained for the online band quantiles (≥ 2).
    pub residual_window: usize,
    /// Slices observed before forecasts are allowed to drive scaling
    /// (the reactive backstop covers the warm-up).
    pub warmup_slices: usize,
}

impl PredictiveConfig {
    /// Forecast-driven scaling with `spec` over a machine absorbing
    /// `machine_rate_per_s` arrivals per second: 8-slice lead, 15%
    /// headroom, 90% band over the last 128 residuals, 16 warm-up
    /// slices.
    pub fn new(spec: ForecasterSpec, machine_rate_per_s: f64) -> Self {
        PredictiveConfig {
            spec,
            horizon_slices: 8,
            machine_rate_per_s,
            headroom: 1.15,
            band_quantile: 0.9,
            residual_window: 128,
            warmup_slices: 16,
        }
    }

    /// Sets the forecast lead, in slices (minimum 1).
    pub fn horizon_slices(mut self, slices: usize) -> Self {
        self.horizon_slices = slices.max(1);
        self
    }

    /// Sets the capacity headroom multiplier.
    pub fn headroom(mut self, headroom: f64) -> Self {
        self.headroom = headroom;
        self
    }

    /// Sets the band quantile capacity is provisioned against.
    pub fn band_quantile(mut self, quantile: f64) -> Self {
        self.band_quantile = quantile;
        self
    }

    /// Sets the residual-window size.
    pub fn residual_window(mut self, window: usize) -> Self {
        self.residual_window = window;
        self
    }

    /// Sets the forecast warm-up, in slices.
    pub fn warmup_slices(mut self, slices: usize) -> Self {
        self.warmup_slices = slices;
        self
    }

    /// Checks the knobs are coherent (the forecaster spec itself is
    /// checked when built, with its own messages).
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidAutoscale`] for a non-positive service
    /// rate, a headroom below 1, or band parameters the forecast layer
    /// rejects.
    pub fn validate(&self) -> Result<()> {
        if !(self.machine_rate_per_s.is_finite() && self.machine_rate_per_s > 0.0) {
            return Err(ClusterError::InvalidAutoscale(
                "predictive machine_rate_per_s must be positive and finite",
            ));
        }
        if !(self.headroom.is_finite() && self.headroom >= 1.0) {
            return Err(ClusterError::InvalidAutoscale(
                "predictive headroom must be at least 1",
            ));
        }
        // Build (and drop) a forecaster + band once to surface spec
        // and band-parameter errors at config time.
        let forecaster = self.spec.build()?;
        BandedForecaster::new(
            forecaster,
            self.horizon_slices,
            self.band_quantile,
            self.residual_window,
        )?;
        Ok(())
    }
}

/// How the autoscaler decides to grow the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScalingPolicy {
    /// Water marks on the fleetwide probe signal only — capacity is
    /// bought after congestion is measured.
    #[default]
    Reactive,
    /// Forecast-driven scale-ups (reactive high-water kept as a
    /// backstop), probe-gated scale-downs.
    Predictive(PredictiveConfig),
}

/// Configuration of the autoscaler, enabled per replay via
/// [`crate::ClusterDriver::autoscale`].
///
/// # Examples
///
/// ```
/// use litmus_cluster::{AutoscalerConfig, MachineConfig};
///
/// let config = AutoscalerConfig::new(MachineConfig::new(8))
///     .high_water(2.5)
///     .low_water(1.2)
///     .machine_bounds(2, 16)
///     .cooldown_ms(400);
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct AutoscalerConfig {
    /// Fleetwide mean forward-adjusted slowdown prediction above which
    /// a machine is added.
    pub high_water: f64,
    /// Fleetwide mean forward-adjusted slowdown prediction below which
    /// an idle machine starts draining.
    pub low_water: f64,
    /// Fewest serving (non-draining) machines the fleet may shrink to.
    pub min_machines: usize,
    /// Most serving (non-draining) machines the fleet may grow to.
    pub max_machines: usize,
    /// Quiet period between scale decisions, ms — scale-ups need the
    /// new machine's probes to land before the signal is trusted again.
    pub cooldown_ms: u64,
    /// How long an ordered machine takes to come into service, ms
    /// (0 = instant, the historical behavior). With a non-zero lead a
    /// scale-up decision *orders* capacity that joins the fleet only
    /// `boot_lead_ms` later — the physical delay that makes reacting
    /// to congestion late and forecasting ahead valuable: a reactive
    /// scaler eats the lead *after* the burst lands, a predictive one
    /// orders ahead so capacity arrives with the burst.
    pub boot_lead_ms: u64,
    /// How scale-ups are decided ([`ScalingPolicy::Reactive`] by
    /// default).
    pub policy: ScalingPolicy,
    /// Template for scaled-up machines; each new machine gets a
    /// distinct deterministic seed derived from the template's.
    pub template: MachineConfig,
}

impl AutoscalerConfig {
    /// A conservative reactive default around `template`: grow above a
    /// mean predicted slowdown of 2.5×, drain below 1.15×, 1–64
    /// machines, 500 ms between decisions.
    pub fn new(template: MachineConfig) -> Self {
        AutoscalerConfig {
            high_water: 2.5,
            low_water: 1.15,
            min_machines: 1,
            max_machines: 64,
            cooldown_ms: 500,
            boot_lead_ms: 0,
            policy: ScalingPolicy::Reactive,
            template,
        }
    }

    /// Sets the scale-up mark.
    pub fn high_water(mut self, mark: f64) -> Self {
        self.high_water = mark;
        self
    }

    /// Sets the scale-down mark.
    pub fn low_water(mut self, mark: f64) -> Self {
        self.low_water = mark;
        self
    }

    /// Sets the fleet-size bounds.
    pub fn machine_bounds(mut self, min: usize, max: usize) -> Self {
        self.min_machines = min;
        self.max_machines = max;
        self
    }

    /// Sets the decision cooldown, ms.
    pub fn cooldown_ms(mut self, ms: u64) -> Self {
        self.cooldown_ms = ms;
        self
    }

    /// Sets the boot lead — the delay between ordering a machine and
    /// it entering service, ms.
    pub fn boot_lead_ms(mut self, ms: u64) -> Self {
        self.boot_lead_ms = ms;
        self
    }

    /// Switches scale-ups to forecast-driven planning.
    pub fn predictive(mut self, config: PredictiveConfig) -> Self {
        self.policy = ScalingPolicy::Predictive(config);
        self
    }

    /// Checks the marks, bounds and (if predictive) forecast knobs are
    /// coherent.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidAutoscale`] when the low-water mark is
    /// not below the high-water mark, a mark is not finite and ≥ 1,
    /// the machine bounds are empty/inverted, or the predictive knobs
    /// are out of range.
    pub fn validate(&self) -> Result<()> {
        if !(self.high_water.is_finite() && self.low_water.is_finite()) {
            return Err(ClusterError::InvalidAutoscale("water marks must be finite"));
        }
        if self.low_water < 1.0 || self.high_water <= self.low_water {
            return Err(ClusterError::InvalidAutoscale(
                "marks must satisfy 1 <= low_water < high_water",
            ));
        }
        if self.min_machines == 0 || self.max_machines < self.min_machines {
            return Err(ClusterError::InvalidAutoscale(
                "machine bounds must satisfy 1 <= min <= max",
            ));
        }
        if let ScalingPolicy::Predictive(predictive) = &self.policy {
            predictive.validate()?;
        }
        Ok(())
    }
}

/// What a [`ScaleEvent`] recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// A machine was booted into the fleet.
    Up,
    /// An idle machine began draining (no new work, fillers wind down).
    DrainStart,
    /// A drained machine left the fleet; its billing shard was folded
    /// into the cluster's retained aggregator.
    Retire,
}

/// Why a scale decision fired — so studies can attribute each boot to
/// the water mark or to the forecast without decoding the signal
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleReason {
    /// The fleetwide probe signal crossed the high-water mark.
    HighWater,
    /// The fleetwide probe signal fell under the low-water mark.
    LowWater,
    /// The forecast's upper band exceeded the serving fleet's
    /// capacity.
    Forecast,
    /// A draining machine emptied and retired (no threshold involved).
    Drained,
}

impl std::fmt::Display for ScaleReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScaleReason::HighWater => "high-water",
            ScaleReason::LowWater => "low-water",
            ScaleReason::Forecast => "forecast",
            ScaleReason::Drained => "drained",
        })
    }
}

/// One autoscaling decision, as surfaced in
/// [`crate::ClusterReport::scale_events`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Cluster time of the slice boundary the decision was taken at.
    pub at_ms: u64,
    /// The machine added, drained or retired.
    pub machine: MachineId,
    /// What happened.
    pub kind: ScaleKind,
    /// Why the decision fired.
    pub reason: ScaleReason,
    /// The fleetwide mean forward-adjusted slowdown prediction at the
    /// decision (for every reason, retirements included — the *why*
    /// lives in [`ScaleEvent::reason`], not in a sentinel value here).
    pub signal: f64,
}

/// One slice's forecast record, as surfaced in
/// [`crate::ClusterReport::forecast_samples`] — what the predictive
/// scaler saw, predicted and asked for, so studies can attribute
/// wins and losses to the forecast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastSample {
    /// The slice boundary the observation closed at.
    pub at_ms: u64,
    /// Arrivals admitted during the slice that just ended.
    pub observed: f64,
    /// The banded forecast for
    /// [`PredictiveConfig::horizon_slices`] ahead, frozen now.
    pub forecast: HorizonForecast,
    /// Serving machines the forecast asks for (0 while the forecaster
    /// is still warming up).
    pub required: usize,
    /// Serving (non-draining) machines at the decision.
    pub serving: usize,
}

/// Birth-to-retirement record of one machine, as surfaced in
/// [`crate::ClusterReport::machine_lifetimes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineLifetime {
    /// The machine.
    pub machine: MachineId,
    /// Cluster time the machine joined the fleet, ms.
    pub born_ms: u64,
    /// Cluster time the machine was retired, ms (`None` while alive).
    pub retired_ms: Option<u64>,
    /// Invocations completed and billed on the machine over its life.
    pub completed: usize,
    /// Invocations dispatched to the machine (net of re-dispatches
    /// away) over its life.
    pub dispatched: usize,
}

impl MachineLifetime {
    /// How long the machine served, ms (up to `now_ms` while alive).
    pub fn lifetime_ms(&self, now_ms: u64) -> u64 {
        self.retired_ms
            .unwrap_or(now_ms)
            .saturating_sub(self.born_ms)
    }
}

/// Fleetwide mean forward-adjusted slowdown over the serving
/// machines (0 when nothing serves).
fn fleet_signal(snaps: &[MachineSnapshot]) -> f64 {
    let serving: Vec<f64> = snaps
        .iter()
        .filter(|s| !s.draining)
        .map(MachineSnapshot::congestion_score)
        .collect();
    if serving.is_empty() {
        return 0.0;
    }
    serving.iter().sum::<f64>() / serving.len() as f64
}

/// Retires every drained machine in `cluster` and records one
/// [`ScaleKind::Retire`] event per machine. Retirements trigger on
/// emptiness ([`ScaleReason::Drained`]); the recorded signal is the
/// fleet signal at the boundary, like every other event. The signal
/// is only computed when something actually retired (the common slice
/// retires nothing, and retiring only removes *draining* machines, so
/// the serving set the signal averages is identical before and
/// after).
pub(crate) fn push_retirements(cluster: &mut Cluster, now_ms: u64, events: &mut Vec<ScaleEvent>) {
    let ids = cluster.retire_drained(now_ms);
    if ids.is_empty() {
        return;
    }
    let signal = fleet_signal(&cluster.snapshots());
    for id in ids {
        events.push(ScaleEvent {
            at_ms: now_ms,
            machine: id,
            kind: ScaleKind::Retire,
            reason: ScaleReason::Drained,
            signal,
        });
    }
}

/// The live forecasting state of a predictive replay: the banded
/// forecaster plus the knobs to turn its output into machines.
struct Predictor {
    banded: BandedForecaster<Box<dyn Forecaster + Send>>,
    config: PredictiveConfig,
    slice_ms: u64,
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Predictor")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Predictor {
    fn new(config: PredictiveConfig, slice_ms: u64) -> Result<Self> {
        let banded = BandedForecaster::new(
            config.spec.build()?,
            config.horizon_slices,
            config.band_quantile,
            config.residual_window,
        )?;
        Ok(Predictor {
            banded,
            config,
            slice_ms,
        })
    }

    /// Machines needed to absorb the forecast's upper band with
    /// headroom; 0 while warming up, so the reactive backstop governs.
    fn required_machines(&self, forecast: &HorizonForecast) -> usize {
        if self.banded.inner().len() < self.config.warmup_slices as u64 {
            return 0;
        }
        let per_slice = forecast.hi.max(0.0) * self.config.headroom;
        let per_s = per_slice * 1000.0 / self.slice_ms.max(1) as f64;
        (per_s / self.config.machine_rate_per_s).ceil() as usize
    }
}

/// Elastic capacity: grows the machine set on the probe signal
/// ([`ScalingPolicy::Reactive`]) or on the arrival-rate forecast with
/// the probe marks as backstop ([`ScalingPolicy::Predictive`]), and
/// drains/retires idle machines under the low-water mark. One instance
/// lives per replay; all state (cooldown clock, seed counter,
/// forecaster) is deterministic.
/// A machine ordered but still booting: it joins the fleet once the
/// configured lead has elapsed, carrying the reason and signal of the
/// decision that ordered it.
#[derive(Debug, Clone, Copy)]
struct PendingBoot {
    ready_at_ms: u64,
    reason: ScaleReason,
    signal: f64,
}

#[derive(Debug)]
pub(crate) struct Autoscaler {
    config: AutoscalerConfig,
    last_decision_ms: Option<u64>,
    spawned: u64,
    predictor: Option<Predictor>,
    /// Machines ordered and not yet in service, in order time.
    pending: Vec<PendingBoot>,
}

impl Autoscaler {
    pub(crate) fn new(config: AutoscalerConfig, slice_ms: u64) -> Result<Self> {
        let predictor = match &config.policy {
            ScalingPolicy::Reactive => None,
            ScalingPolicy::Predictive(predictive) => Some(Predictor::new(*predictive, slice_ms)?),
        };
        Ok(Autoscaler {
            config,
            last_decision_ms: None,
            spawned: 0,
            predictor,
            pending: Vec::new(),
        })
    }

    fn cooled_down(&self, now_ms: u64) -> bool {
        self.last_decision_ms
            .map(|last| now_ms.saturating_sub(last) >= self.config.cooldown_ms)
            .unwrap_or(true)
    }

    /// Boots a machine into service right now.
    fn spawn(
        &mut self,
        cluster: &mut Cluster,
        now_ms: u64,
        reason: ScaleReason,
        signal: f64,
        events: &mut Vec<ScaleEvent>,
    ) -> Result<()> {
        let mut template = self.config.template.clone();
        template.seed = template
            .seed
            .wrapping_add(0x5CA1E)
            .wrapping_add(self.spawned);
        self.spawned += 1;
        let id = cluster.spawn_machine(&template, now_ms)?;
        events.push(ScaleEvent {
            at_ms: now_ms,
            machine: id,
            kind: ScaleKind::Up,
            reason,
            signal,
        });
        Ok(())
    }

    /// Orders a machine: in service immediately with no boot lead, or
    /// queued to join once the lead elapses.
    fn order(
        &mut self,
        cluster: &mut Cluster,
        now_ms: u64,
        reason: ScaleReason,
        signal: f64,
        events: &mut Vec<ScaleEvent>,
    ) -> Result<()> {
        self.last_decision_ms = Some(now_ms);
        if self.config.boot_lead_ms == 0 {
            return self.spawn(cluster, now_ms, reason, signal, events);
        }
        self.pending.push(PendingBoot {
            ready_at_ms: now_ms + self.config.boot_lead_ms,
            reason,
            signal,
        });
        Ok(())
    }

    /// Brings ordered machines whose lead has elapsed into service.
    fn commission_due(
        &mut self,
        cluster: &mut Cluster,
        now_ms: u64,
        events: &mut Vec<ScaleEvent>,
    ) -> Result<()> {
        while let Some(boot) = self.pending.first().copied() {
            if boot.ready_at_ms > now_ms {
                break;
            }
            self.pending.remove(0);
            self.spawn(cluster, now_ms, boot.reason, boot.signal, events)?;
        }
        Ok(())
    }

    /// Runs one decision round at slice boundary `now_ms`: retires any
    /// machine that finished draining, feeds the forecaster the
    /// `admitted` arrival count of the slice that just ended
    /// (predictive policy only, recording a [`ForecastSample`]), then
    /// — when cooled down — boots or drains at most one machine.
    ///
    /// # Errors
    ///
    /// Propagates machine boot failures on scale-up.
    pub(crate) fn evaluate(
        &mut self,
        cluster: &mut Cluster,
        now_ms: u64,
        admitted: usize,
        events: &mut Vec<ScaleEvent>,
        samples: &mut Vec<ForecastSample>,
    ) -> Result<()> {
        // Retirements are free (the machine is already empty): no
        // cooldown gating. Ordered machines whose boot lead elapsed
        // enter service before this round's signal is read.
        push_retirements(cluster, now_ms, events);
        self.commission_due(cluster, now_ms, events)?;

        let snaps = cluster.snapshots();
        let serving: Vec<_> = snaps.iter().filter(|s| !s.draining).collect();
        if serving.is_empty() {
            return Ok(());
        }
        let signal = fleet_signal(&snaps);

        // The forecaster observes every slice, cooled down or not —
        // the series must not have decision-rate gaps.
        let required = match &mut self.predictor {
            Some(predictor) => {
                predictor.banded.observe(admitted as f64);
                let forecast = predictor.banded.forecast();
                let required = predictor.required_machines(&forecast);
                samples.push(ForecastSample {
                    at_ms: now_ms,
                    observed: admitted as f64,
                    forecast,
                    required,
                    serving: serving.len(),
                });
                Some(required)
            }
            None => None,
        };

        if !self.cooled_down(now_ms) {
            return Ok(());
        }

        // Both bounds count *committed* capacity — serving machines
        // plus ordered ones still booting (or the scaler re-orders
        // every round of the lead). A retiree mid-drain is winding
        // down and must neither block a scale-up at the cap (capacity
        // is needed exactly then) nor pad the scale-down floor.
        let committed = serving.len() + self.pending.len();
        let may_grow = committed < self.config.max_machines;
        if let Some(required) = required {
            // Forecast-led scale-up, ordered before congestion shows.
            // Unlike the water-mark path (one boot per cooldown, since
            // the signal must re-settle), the forecast states *how
            // many* machines the horizon needs — order the whole
            // deficit in one round.
            if required > committed && may_grow {
                let target = required.min(self.config.max_machines);
                for _ in committed..target {
                    self.order(cluster, now_ms, ScaleReason::Forecast, signal, events)?;
                }
                return Ok(());
            }
        }
        if signal > self.config.high_water && may_grow {
            // Reactive path — and the predictive policy's backstop for
            // forecast misses.
            self.order(cluster, now_ms, ScaleReason::HighWater, signal, events)?;
        } else if signal < self.config.low_water
            && serving.len() > self.config.min_machines
            && self.pending.is_empty()
        {
            // Scale-downs are probe-gated in every policy; the
            // predictive policy additionally refuses to drain capacity
            // its forecast still wants — and nothing drains while
            // ordered machines are still booting.
            if required.is_some_and(|required| required >= serving.len()) {
                return Ok(());
            }
            // Only an *idle* machine may leave; prefer the youngest
            // (highest id) so the stable core of the fleet persists.
            let candidate = serving
                .iter()
                .filter(|s| s.inflight == 0 && s.queued == 0)
                .max_by_key(|s| s.id)
                .map(|s| s.id);
            if let Some(id) = candidate {
                cluster.begin_drain(id);
                self.last_decision_ms = Some(now_ms);
                events.push(ScaleEvent {
                    at_ms: now_ms,
                    machine: id,
                    kind: ScaleKind::DrainStart,
                    reason: ScaleReason::LowWater,
                    signal,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_catches_bad_marks_and_bounds() {
        let template = MachineConfig::new(4);
        assert!(AutoscalerConfig::new(template.clone()).validate().is_ok());
        assert!(AutoscalerConfig::new(template.clone())
            .high_water(1.0)
            .low_water(2.0)
            .validate()
            .is_err());
        assert!(AutoscalerConfig::new(template.clone())
            .low_water(0.5)
            .validate()
            .is_err());
        assert!(AutoscalerConfig::new(template.clone())
            .machine_bounds(0, 4)
            .validate()
            .is_err());
        assert!(AutoscalerConfig::new(template)
            .machine_bounds(8, 2)
            .validate()
            .is_err());
    }

    #[test]
    fn predictive_validation_checks_rate_headroom_and_spec() {
        let spec = ForecasterSpec::Ewma { alpha: 0.4 };
        let template = MachineConfig::new(4);
        let with = |predictive: PredictiveConfig| {
            AutoscalerConfig::new(template.clone())
                .predictive(predictive)
                .validate()
        };
        assert!(with(PredictiveConfig::new(spec, 100.0)).is_ok());
        assert!(with(PredictiveConfig::new(spec, 0.0)).is_err());
        assert!(with(PredictiveConfig::new(spec, f64::NAN)).is_err());
        assert!(with(PredictiveConfig::new(spec, 100.0).headroom(0.5)).is_err());
        assert!(with(PredictiveConfig::new(spec, 100.0).band_quantile(0.2)).is_err());
        assert!(with(PredictiveConfig::new(spec, 100.0).residual_window(1)).is_err());
        // A broken forecaster spec surfaces at validation time too.
        assert!(with(PredictiveConfig::new(
            ForecasterSpec::Ewma { alpha: 7.0 },
            100.0
        ))
        .is_err());
    }

    #[test]
    fn required_machines_scales_with_the_band_and_respects_warmup() {
        let config = PredictiveConfig::new(ForecasterSpec::Ewma { alpha: 0.5 }, 50.0)
            .horizon_slices(2)
            .headroom(1.0)
            .warmup_slices(4);
        let mut predictor = Predictor::new(config, 100).unwrap();
        let forecast = |hi: f64| HorizonForecast {
            horizon: 2,
            point: hi,
            lo: hi,
            hi,
        };
        // Warming: nothing observed yet, the forecast may not act.
        assert_eq!(predictor.required_machines(&forecast(100.0)), 0);
        for _ in 0..4 {
            predictor.banded.observe(10.0);
        }
        // 10 arrivals / 100 ms slice = 100/s → 2 machines at 50/s.
        assert_eq!(predictor.required_machines(&forecast(10.0)), 2);
        assert_eq!(predictor.required_machines(&forecast(2.5)), 1);
        // Negative band edges clamp to zero demand.
        assert_eq!(predictor.required_machines(&forecast(-3.0)), 0);
    }

    #[test]
    fn scale_reasons_render_for_reports() {
        assert_eq!(ScaleReason::HighWater.to_string(), "high-water");
        assert_eq!(ScaleReason::Forecast.to_string(), "forecast");
        assert_eq!(ScaleReason::LowWater.to_string(), "low-water");
        assert_eq!(ScaleReason::Drained.to_string(), "drained");
    }

    #[test]
    fn lifetimes_measure_to_now_or_retirement() {
        let alive = MachineLifetime {
            machine: MachineId(0),
            born_ms: 100,
            retired_ms: None,
            completed: 0,
            dispatched: 0,
        };
        assert_eq!(alive.lifetime_ms(600), 500);
        let retired = MachineLifetime {
            retired_ms: Some(400),
            ..alive
        };
        assert_eq!(retired.lifetime_ms(600), 300);
    }
}
