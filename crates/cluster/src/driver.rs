use std::collections::BTreeMap;
use std::sync::Arc;

use litmus_core::{DiscountModel, PricingTables};
use litmus_observe::{
    Alert, CompletionSample, OnlineSloEngine, SloAlert, SloKind, SloSpec, SloTransition,
};
use litmus_platform::{ChunkedSource, InvocationTrace, TraceEvent, TraceSource};
use litmus_sim::MachineSpec;
use litmus_telemetry::{StageProfile, Telemetry, TelemetryConfig, Timeline, TraceId, TraceSampler};
use litmus_workloads::Language;

use crate::billing::BillingAggregator;
use crate::context::ServingContext;
use crate::error::ClusterError;
use crate::machine::{CompletionRecord, Machine, MachineConfig, MachineId};
use crate::policy::{MachineSnapshot, PlacementPolicy};
use crate::pool::{SteppingMode, WorkerPool};
use crate::scale::{
    Autoscaler, AutoscalerConfig, ForecastSample, MachineLifetime, ScaleEvent, ScaleKind,
    ScalingPolicy,
};
use crate::steal::{steal_pass, StealEvent, StealingConfig};
use crate::Result;

/// Configuration of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Hardware model shared by every machine.
    pub spec: MachineSpec,
    /// Per-machine serving configuration (pool size, background load).
    pub machines: Vec<MachineConfig>,
    /// Scheduling time-slice: arrivals are dispatched and machines
    /// stepped in windows of this many ms.
    pub slice_ms: u64,
    /// Worker threads stepping machines in parallel (1 = sequential).
    pub threads: usize,
    /// Which replay engine walks the trace: the slice oracle, or the
    /// event engine that skips quiet slices.
    pub stepping: SteppingMode,
    /// Instruction-count scale applied to served functions.
    pub serving_scale: f64,
    /// Extra time after the last arrival to let stragglers finish, ms.
    pub drain_ms: u64,
}

impl ClusterConfig {
    /// A homogeneous cluster: `count` machines, each serving on
    /// `cores` cores of `spec`, no background load, threads matching
    /// the host's parallelism.
    ///
    /// Two environment variables override the defaults so CI can run
    /// the same suite under different execution shapes without code
    /// changes (replays are bit-identical across both, so this is a
    /// determinism check, not a behaviour switch):
    ///
    /// * `LITMUS_POOL_THREADS` — stepping thread count (a positive
    ///   integer; anything else falls back to host parallelism);
    /// * `LITMUS_STEPPING` — `pooled` (the slice oracle) or
    ///   `event`/`event-driven` (anything else falls back to the
    ///   default mode).
    ///
    /// Explicit [`ClusterConfig::threads`] / [`ClusterConfig::stepping`]
    /// builder calls still win — the variables only seed the defaults.
    pub fn homogeneous(spec: MachineSpec, count: usize, cores: usize) -> Self {
        let threads = std::env::var("LITMUS_POOL_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let stepping = std::env::var("LITMUS_STEPPING")
            .ok()
            .and_then(|raw| match raw.trim() {
                "pooled" => Some(SteppingMode::Pooled),
                "event" | "event-driven" => Some(SteppingMode::EventDriven),
                _ => None,
            })
            .unwrap_or_default();
        ClusterConfig {
            spec,
            machines: (0..count)
                .map(|i| MachineConfig::new(cores).seed(0xC1A0 + i as u64))
                .collect(),
            slice_ms: 20,
            threads,
            stepping,
            serving_scale: 1.0,
            drain_ms: 60_000,
        }
    }

    /// Replaces the machine list (heterogeneous background loads).
    pub fn machines(mut self, machines: Vec<MachineConfig>) -> Self {
        self.machines = machines;
        self
    }

    /// Sets the scheduling slice, ms (minimum 1).
    pub fn slice_ms(mut self, ms: u64) -> Self {
        self.slice_ms = ms.max(1);
        self
    }

    /// Sets the stepping thread count (minimum 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the replay engine ([`SteppingMode::Pooled`], the slice
    /// oracle, by default).
    pub fn stepping(mut self, mode: SteppingMode) -> Self {
        self.stepping = mode;
        self
    }

    /// Sets the served-function profile scale.
    pub fn serving_scale(mut self, scale: f64) -> Self {
        self.serving_scale = scale;
        self
    }

    /// Sets the drain window, ms.
    pub fn drain_ms(mut self, ms: u64) -> Self {
        self.drain_ms = ms;
        self
    }
}

/// Per-machine serving counters, snapshotted at replay start so a
/// report covers one replay even on a reused cluster.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    completed: usize,
    dispatched: usize,
    launched: usize,
    latency_sum_ms: f64,
    queue_wait_sum_ms: f64,
}

impl Counters {
    fn of(machine: &Machine) -> Self {
        Counters {
            completed: machine.completed(),
            dispatched: machine.dispatched(),
            launched: machine.launched(),
            latency_sum_ms: machine.latency_sum_ms(),
            queue_wait_sum_ms: machine.queue_wait_sum_ms(),
        }
    }
}

/// A machine that left the fleet: its lifetime record plus the final
/// counters the replay report needs.
#[derive(Debug, Clone)]
pub(crate) struct Retired {
    machine: MachineId,
    born_ms: u64,
    retired_ms: u64,
    counters: Counters,
}

impl Retired {
    /// The machine's lifetime record, derived from the single source
    /// of truth (the final counters).
    fn lifetime(&self) -> MachineLifetime {
        MachineLifetime {
            machine: self.machine,
            born_ms: self.born_ms,
            retired_ms: Some(self.retired_ms),
            completed: self.counters.completed,
            dispatched: self.counters.dispatched,
        }
    }
}

/// A cluster of independently-simulated serving machines sharing one
/// calibration (tables + discount model) — the provider-side fleet the
/// paper's §5.1 scheduling observation applies to. The machine set is
/// elastic: an [`crate::AutoscalerConfig`] on the driver grows it under
/// load and drains/retires idle machines, with retired machines'
/// billing retained so the accounting period stays conserved.
#[derive(Debug)]
pub struct Cluster {
    machines: Vec<Machine>,
    ctx: Arc<ServingContext>,
    spec: MachineSpec,
    slice_ms: u64,
    threads: usize,
    stepping: SteppingMode,
    drain_ms: u64,
    pool: Option<WorkerPool>,
    probe_language: Language,
    next_id: u32,
    retired: Vec<Retired>,
    retired_billing: BillingAggregator,
}

impl Cluster {
    /// Boots every machine (background fillers, warm-up, one initial
    /// Litmus probe each) and prepares the shared serving context.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::NoMachines`] for an empty machine list;
    /// * propagated boot failures.
    pub fn build(
        config: ClusterConfig,
        tables: PricingTables,
        model: DiscountModel,
    ) -> Result<Self> {
        if config.machines.is_empty() {
            return Err(ClusterError::NoMachines);
        }
        let probe_language = tables
            .baselines()
            .first()
            .ok_or(litmus_core::CoreError::DegenerateMeasurement(
                "tables contain no startup baselines",
            ))?
            .language;
        let ctx = ServingContext::new(tables, model, config.serving_scale);
        let machines = config
            .machines
            .iter()
            .enumerate()
            .map(|(i, machine_config)| {
                Machine::boot(
                    MachineId(i as u32),
                    0,
                    config.spec.clone(),
                    machine_config,
                    probe_language,
                    &ctx,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Cluster {
            next_id: machines.len() as u32,
            machines,
            ctx: Arc::new(ctx),
            spec: config.spec,
            slice_ms: config.slice_ms,
            threads: config.threads,
            stepping: config.stepping,
            drain_ms: config.drain_ms,
            pool: None,
            probe_language,
            retired: Vec::new(),
            retired_billing: BillingAggregator::new(),
        })
    }

    /// Number of live machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the cluster has no live machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Total machines ever booted (live + retired); also the exclusive
    /// upper bound of [`MachineId`] values.
    pub fn machines_ever(&self) -> usize {
        self.next_id as usize
    }

    /// Machines retired so far over the cluster's lifetime.
    pub fn retired_count(&self) -> usize {
        self.retired.len()
    }

    /// Scheduler-visible state of every live machine.
    pub fn snapshots(&self) -> Vec<MachineSnapshot> {
        self.machines.iter().map(Machine::snapshot).collect()
    }

    /// One live machine by position, for inspection.
    pub fn machine(&self, idx: usize) -> Option<&Machine> {
        self.machines.get(idx)
    }

    /// Invocations executing or queued across the cluster.
    pub fn outstanding(&self) -> usize {
        self.machines.iter().map(Machine::outstanding).sum()
    }

    /// Cluster-lifetime billing: every live machine's shard folded on
    /// top of the shards retained from retired machines.
    pub fn billing(&self) -> BillingAggregator {
        let mut billing = self.retired_billing.clone();
        for machine in &self.machines {
            billing.absorb(machine.shard());
        }
        billing
    }

    /// Boots one more machine into the fleet at cluster time `born_ms`.
    pub(crate) fn spawn_machine(
        &mut self,
        config: &MachineConfig,
        born_ms: u64,
    ) -> Result<MachineId> {
        let id = MachineId(self.next_id);
        let machine = Machine::boot(
            id,
            born_ms,
            self.spec.clone(),
            config,
            self.probe_language,
            &self.ctx,
        )?;
        self.next_id += 1;
        self.machines.push(machine);
        Ok(id)
    }

    /// Starts draining the machine with `id` (no-op for unknown ids).
    pub(crate) fn begin_drain(&mut self, id: MachineId) {
        if let Some(machine) = self.machines.iter_mut().find(|m| m.id() == id) {
            machine.begin_drain();
        }
    }

    /// Retires every draining machine whose serving work has hit zero,
    /// folding each shard into the retained billing, and returns the
    /// retired ids in machine order.
    pub(crate) fn retire_drained(&mut self, now_ms: u64) -> Vec<MachineId> {
        let mut ids = Vec::new();
        let mut idx = 0;
        while idx < self.machines.len() {
            if self.machines[idx].is_draining() && self.machines[idx].outstanding() == 0 {
                let machine = self.machines.remove(idx);
                self.retired_billing.absorb(machine.shard());
                ids.push(machine.id());
                self.retired.push(Retired {
                    machine: machine.id(),
                    born_ms: machine.born_ms(),
                    retired_ms: now_ms,
                    counters: Counters::of(&machine),
                });
            } else {
                idx += 1;
            }
        }
        ids
    }

    /// Moves up to `count` queued invocations from machine position
    /// `from` to position `to`, returning how many moved.
    pub(crate) fn transfer_queued(&mut self, from: usize, to: usize, count: usize) -> usize {
        if from == to || count == 0 {
            return 0;
        }
        let shed = self.machines[from].shed_queued(count);
        let moved = shed.len();
        self.machines[to].accept_stolen(shed);
        moved
    }

    /// Steps every live machine to cluster time `target_ms`. When no
    /// machine has real quantum work before the target (no active
    /// instances, no launch due), every machine fast-forwards in O(1)
    /// on this thread — no shard trip to the worker pool. Otherwise the
    /// machines fan out across the worker pool when the cluster was
    /// configured with more than one thread, and the whole step is
    /// profiled as the `fan-out` stage. Machines are fully independent
    /// state machines, so pooled and sequential stepping produce
    /// bit-identical results.
    fn step_all(&mut self, target_ms: u64, profile: &mut StageProfile) -> Result<()> {
        let busy = self
            .machines
            .iter()
            .any(|machine| machine.needs_quanta_before(target_ms));
        let started = if busy { profile.start() } else { None };
        let result = if busy && self.threads.min(self.machines.len()) > 1 {
            // Size the pool by the configured thread count, not the
            // current machine count: an autoscaled fleet may grow past
            // its initial size, and the pool already caps the shards
            // it hands out by the live machine count.
            let workers = self.threads;
            let pool = self.pool.get_or_insert_with(|| WorkerPool::spawn(workers));
            pool.step_all(&mut self.machines, target_ms, &self.ctx)
        } else {
            let ctx = &self.ctx;
            self.machines
                .iter_mut()
                .try_for_each(|machine| machine.step_to(target_ms, ctx))
        };
        profile.stop("fan-out", started);
        result
    }

    /// Full simulator quanta actually stepped across the *live* fleet
    /// (retired machines take their counts with them) — the real
    /// serving work performed, with idle fast-forwards excluded. Two
    /// replay engines that agree here did the same co-run evaluations
    /// no matter how they sliced time.
    pub fn quanta_stepped(&self) -> u64 {
        self.machines.iter().map(Machine::quanta_stepped).sum()
    }
}

/// Result of replaying a trace through a [`Cluster`]: serving metrics,
/// per-tenant billing, and the elastic-capacity record (re-dispatches,
/// scale events, machine lifetimes).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Name of the placement policy that produced this report.
    pub policy: &'static str,
    /// Per-tenant billing, folded from every machine's shard (live and
    /// retired) — the cluster's whole accounting period.
    pub billing: BillingAggregator,
    /// Machine chosen for each trace event, in trace order —
    /// deterministic for a given trace, cluster config and policy.
    pub placements: Vec<MachineId>,
    /// Invocations dispatched to each machine this replay (net of
    /// re-dispatches away), indexed by [`MachineId`].
    pub dispatch_counts: Vec<usize>,
    /// Invocations completed and billed.
    pub completed: usize,
    /// Invocations still executing or queued when the drain window
    /// closed.
    pub unfinished: usize,
    /// Invocations the stealing pass re-dispatched (each counted once
    /// per move).
    pub redispatched: usize,
    /// Backing store of [`ClusterReport::steal_events`].
    steal_events: Vec<StealEvent>,
    /// Backing store of [`ClusterReport::scale_events`].
    scale_events: Vec<ScaleEvent>,
    /// Backing store of [`ClusterReport::forecast_samples`].
    forecast_samples: Vec<ForecastSample>,
    /// Backing store of [`ClusterReport::machine_lifetimes`].
    machine_lifetimes: Vec<MachineLifetime>,
    /// Backing store of [`ClusterReport::slo_alerts`].
    slo_alerts: Vec<Alert>,
    /// The replay's telemetry (registry + timeline + flight recorder);
    /// the typed vectors above are also mirrored onto its timeline.
    telemetry: Telemetry,
    /// Backing store of [`ClusterReport::streamed_jsonl`].
    streamed_jsonl: Option<String>,
    /// Most machines simultaneously alive during the replay.
    pub peak_machines: usize,
    /// Mean arrival→completion latency of completed invocations, ms.
    pub mean_latency_ms: f64,
    /// Mean arrival→launch wait of launched invocations, ms — the
    /// queueing delay stealing shrinks.
    pub mean_queue_wait_ms: f64,
    /// Mean (over dispatches) of the chosen machine's predicted
    /// slowdown at dispatch time — the placement-quality signal
    /// Litmus-aware routing minimises.
    pub mean_predicted_slowdown: f64,
    /// Backing store of [`ClusterReport::predicted_slowdowns`].
    predicted_slowdowns: Vec<f64>,
    /// Simulated time the replay covered, ms.
    pub sim_ms: u64,
}

impl ClusterReport {
    /// Every re-dispatch decision taken by the stealing pass, in
    /// occurrence order. All `at_ms` timestamps in the report are
    /// sim-time milliseconds on the cluster clock, whose epoch (0) is
    /// cluster boot — which coincides with replay start on a freshly
    /// built cluster. Wall-clock time never appears.
    pub fn steal_events(&self) -> &[StealEvent] {
        &self.steal_events
    }

    /// Every autoscaling decision, in occurrence order. Timestamps are
    /// sim-time ms (see [`ClusterReport::steal_events`] for the epoch).
    pub fn scale_events(&self) -> &[ScaleEvent] {
        &self.scale_events
    }

    /// One record per scheduling slice when the autoscaler ran with
    /// [`crate::ScalingPolicy::Predictive`]: what the forecaster
    /// observed, predicted and asked for — empty for reactive or
    /// non-autoscaled replays. Studies attribute scaling wins and
    /// losses to the forecast through these. Timestamps are sim-time
    /// ms (see [`ClusterReport::steal_events`] for the epoch).
    pub fn forecast_samples(&self) -> &[ForecastSample] {
        &self.forecast_samples
    }

    /// Birth/retirement record of every machine that served during the
    /// replay. `born_ms`/`retired_ms` are sim-time ms (see
    /// [`ClusterReport::steal_events`] for the epoch).
    pub fn machine_lifetimes(&self) -> &[MachineLifetime] {
        &self.machine_lifetimes
    }

    /// The chosen machine's predicted slowdown at dispatch time, one
    /// entry per trace event in trace order (parallel to
    /// [`ClusterReport::placements`]) — the per-invocation SLO signal
    /// autoscale studies cut tail quantiles from.
    pub fn predicted_slowdowns(&self) -> &[f64] {
        &self.predicted_slowdowns
    }

    /// The replay's full telemetry: metric registry, event timeline and
    /// flight recorder (plus the wall-clock stage profile when
    /// profiling was enabled on the driver).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The replay's event timeline: every scale/steal/forecast decision
    /// and machine lifetime as sim-time-keyed structured events, in the
    /// deterministic order the driver observed them.
    pub fn timeline(&self) -> &Timeline {
        self.telemetry.timeline()
    }

    /// Every SLO alert the replay's online engine fired, in
    /// `(fired_ms, spec, rule)` order — event-for-event equal to what a
    /// post-hoc `SloEngine::evaluate` of [`ClusterReport::timeline`]
    /// reports (empty unless the driver declared SLOs with
    /// [`ClusterDriver::slos`]). Timestamps are sim-time ms (see
    /// [`ClusterReport::steal_events`] for the epoch).
    pub fn slo_alerts(&self) -> &[Alert] {
        &self.slo_alerts
    }

    /// The deterministic JSONL export of the replay's telemetry —
    /// byte-identical across worker-pool thread counts, stepping modes,
    /// hosts, and streaming vs materialized replay.
    pub fn timeline_jsonl(&self) -> String {
        self.telemetry.to_jsonl()
    }

    /// The streamed JSONL export: `Some` only when the driver's
    /// telemetry config set a `timeline_retention` window, in which
    /// case timeline events were flushed through the sink as the replay
    /// ran (peak in-memory timeline stayed O(window), see
    /// [`ClusterReport::timeline_peak_retained`]) and this holds the
    /// finished export — byte-identical to the
    /// [`ClusterReport::timeline_jsonl`] a retention-free replay of the
    /// same trace produces. Note the in-memory [`ClusterReport::timeline`]
    /// is empty in that case: its events live here instead.
    pub fn streamed_jsonl(&self) -> Option<&str> {
        self.streamed_jsonl.as_deref()
    }

    /// High-water mark of timeline events simultaneously retained in
    /// memory during the replay — bounded by the configured retention
    /// window (+1 transiently) when streaming, the full event count
    /// otherwise.
    pub fn timeline_peak_retained(&self) -> usize {
        self.telemetry.timeline().peak_retained()
    }
    /// Completed invocations per simulated second.
    pub fn throughput_per_sim_s(&self) -> f64 {
        if self.sim_ms == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.sim_ms as f64 / 1000.0)
    }

    /// Total machine-on time across the replay, ms: every machine's
    /// lifetime clipped to the replay window — the capacity cost an
    /// autoscale study trades against the SLO tail. Divide by
    /// 3 600 000 for machine-hours.
    pub fn machine_ms(&self) -> u64 {
        self.machine_lifetimes
            .iter()
            .map(|lifetime| lifetime.lifetime_ms(self.sim_ms))
            .sum()
    }

    /// Quantile `q` in `[0, 1]` of the per-dispatch predicted
    /// slowdowns (nearest-rank on a sorted copy); 0 when nothing was
    /// dispatched. `predicted_slowdown_quantile(0.99)` is the p99
    /// slowdown the autoscale-study frontier plots. Each call sorts a
    /// copy — reading several quantiles of a large replay is cheaper
    /// through [`ClusterReport::predicted_slowdown_quantiles`].
    pub fn predicted_slowdown_quantile(&self, q: f64) -> f64 {
        self.predicted_slowdown_quantiles(&[q])[0]
    }

    /// Several slowdown quantiles from one sort of the per-dispatch
    /// samples (a real trace day is one sample per invocation, so the
    /// sort dominates): `qs` values clamped to `[0, 1]`, answers in
    /// `qs` order, all 0 when nothing was dispatched.
    pub fn predicted_slowdown_quantiles(&self, qs: &[f64]) -> Vec<f64> {
        if self.predicted_slowdowns.is_empty() {
            return vec![0.0; qs.len()];
        }
        let mut sorted = self.predicted_slowdowns.clone();
        sorted.sort_by(f64::total_cmp);
        qs.iter()
            .map(|q| {
                let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
                sorted[rank]
            })
            .collect()
    }
}

/// Replays an [`InvocationTrace`] against a [`Cluster`] under a
/// [`PlacementPolicy`]: per time-slice, route every arrival in the
/// slice (policy sees live snapshots, including the Litmus congestion
/// estimates), then let the optional autoscaler and stealing pass
/// rebalance capacity at the slice boundary, then step all machines
/// through the slice on the persistent worker pool while their shards
/// absorb the resulting invoices.
///
/// # Examples
///
/// ```no_run
/// use litmus_cluster::{
///     AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, LitmusAware,
///     MachineConfig, StealingConfig,
/// };
/// use litmus_core::{DiscountModel, TableBuilder};
/// use litmus_platform::InvocationTrace;
/// use litmus_sim::MachineSpec;
/// use litmus_workloads::suite;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = MachineSpec::cascade_lake();
/// let tables = TableBuilder::new(spec.clone()).build()?;
/// let model = DiscountModel::fit(&tables)?;
/// let trace = InvocationTrace::poisson(suite::benchmarks(), 200.0, 10_000, 7)
///     .expect("non-empty pool");
/// let config = ClusterConfig::homogeneous(spec, 8, 8);
/// let mut cluster = Cluster::build(config, tables, model)?;
/// let report = ClusterDriver::new(LitmusAware::new())
///     .stealing(StealingConfig::default())
///     .autoscale(AutoscalerConfig::new(MachineConfig::new(8)))
///     .replay(&mut cluster, &trace)?;
/// println!(
///     "{} billed, {} re-dispatched, {} scale events",
///     report.completed,
///     report.redispatched,
///     report.scale_events().len()
/// );
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct ClusterDriver<P> {
    policy: P,
    stealing: Option<StealingConfig>,
    autoscale: Option<AutoscalerConfig>,
    telemetry: TelemetryConfig,
    slos: Vec<SloSpec>,
    active_alerts: Vec<Alert>,
}

impl<P: PlacementPolicy> ClusterDriver<P> {
    /// Creates a driver routing with `policy`, with stealing and
    /// autoscaling off and default telemetry (1024-event flight
    /// recorder, no wall-clock profiling).
    pub fn new(policy: P) -> Self {
        ClusterDriver {
            policy,
            stealing: None,
            autoscale: None,
            telemetry: TelemetryConfig::default(),
            slos: Vec::new(),
            active_alerts: Vec::new(),
        }
    }

    /// Enables the slice-boundary stealing pass.
    pub fn stealing(mut self, config: StealingConfig) -> Self {
        self.stealing = Some(config);
        self
    }

    /// Enables probe-driven autoscaling.
    pub fn autoscale(mut self, config: AutoscalerConfig) -> Self {
        self.autoscale = Some(config);
        self
    }

    /// Declares SLOs the replay evaluates *online*: an incremental
    /// [`OnlineSloEngine`] is fed every sampled completion as it drains
    /// and advanced at every slice boundary in both stepping modes, so
    /// fired/cleared transitions land on the timeline (as
    /// `slo.alert.fired` / `slo.alert.cleared` events stamped with the
    /// boundary they became decidable at) while the replay is still
    /// running — and, being sim-time facts, land byte-identically
    /// across engines and thread counts. The full alert history is on
    /// [`ClusterReport::slo_alerts`]; alerts still open when the replay
    /// ended stay readable on [`ClusterDriver::active_alerts`].
    ///
    /// Online evaluation sees exactly the completions a post-hoc
    /// [`litmus_observe::SloEngine::evaluate`] of the finished timeline
    /// sees (the sampled `trace.*` chains), so the two agree
    /// event-for-event.
    pub fn slos(mut self, specs: Vec<SloSpec>) -> Self {
        self.slos = specs;
        self
    }

    /// SLO alerts still firing when the last replay finished (empty
    /// before any replay, or when every alert cleared).
    pub fn active_alerts(&self) -> &[Alert] {
        &self.active_alerts
    }

    /// Replaces the telemetry configuration (flight-recorder depth,
    /// histogram resolution, profiling) used by subsequent replays.
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Enables wall-clock profiling of the replay-loop stages (queue,
    /// dispatch, scale, steal, step and fan-out under both engines,
    /// plus bulk-account when the event engine skips quiet slices).
    /// Profiling is excluded from the deterministic telemetry
    /// export and from report equality, so it can stay on during
    /// determinism checks.
    pub fn profiling(mut self, enabled: bool) -> Self {
        self.telemetry.profiling = enabled;
        self
    }

    /// The policy's report name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Routes one arrival among the non-draining machines and returns
    /// `(machine position, predicted slowdown at dispatch)`.
    fn route(&mut self, cluster: &Cluster) -> (usize, MachineId, f64) {
        let snapshots = cluster.snapshots();
        // When machines are draining, offer the policy only the serving
        // ones, remembering each one's position. The common case (no
        // autoscaler, nothing draining) allocates nothing extra.
        let mut positions = Vec::new();
        let mut eligible = Vec::new();
        if snapshots.iter().any(|snap| snap.draining) {
            for (position, snap) in snapshots.iter().enumerate() {
                if !snap.draining {
                    positions.push(position);
                    eligible.push(*snap);
                }
            }
        }
        // `eligible` is empty when nothing is draining — and also in
        // the cannot-happen case of everything draining (the autoscaler
        // keeps at least min_machines serving); either way the policy
        // sees the full set rather than an empty slice.
        let pool: &[MachineSnapshot] = if eligible.is_empty() {
            &snapshots
        } else {
            &eligible
        };
        let chosen = self.policy.choose(pool);
        let snap = pool[chosen];
        let position = if eligible.is_empty() {
            chosen
        } else {
            positions[chosen]
        };
        (position, snap.id, snap.predicted_slowdown)
    }

    /// Replays a materialized `trace`; equivalent to
    /// [`ClusterDriver::replay_source`] on [`InvocationTrace::source`]
    /// (and bit-identical to it — same placements, billing and latency
    /// stats for the same trace, cluster config and policy).
    ///
    /// Billing shards live on the machines and accumulate for the
    /// lifetime of the cluster (an accounting period), so
    /// [`ClusterReport::billing`] of a second replay on the same
    /// cluster covers both replays — build a fresh [`Cluster`] per
    /// experiment when billing must be isolated. Every *serving*
    /// metric (`completed`, `dispatch_counts`, latency, placements,
    /// `sim_ms`) covers only the replay that returned it. One caveat
    /// on reuse: if a previous replay's drain window expired with work
    /// still queued, a stealing pass in this replay may re-dispatch
    /// those leftovers, skewing this replay's per-machine
    /// `dispatch_counts` (donors clamp at zero) — reuse a cluster that
    /// finished clean, or build a fresh one.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InvalidAutoscale`] for incoherent autoscaler
    ///   water marks or machine bounds;
    /// * propagated warm-up, boot, stepping and pricing failures.
    pub fn replay(
        &mut self,
        cluster: &mut Cluster,
        trace: &InvocationTrace,
    ) -> Result<ClusterReport> {
        self.replay_source(cluster, trace.source())
    }

    /// Replays a streaming [`TraceSource`]: per time-slice, the driver
    /// pulls the slice's chunk of events from the source, routes each
    /// one, then lets the autoscaler/stealing pass rebalance and steps
    /// the machines — the trace itself is never materialized; event
    /// buffering stays proportional to one slice's arrivals plus the
    /// work in flight. (The returned [`ClusterReport`] still carries
    /// one [`MachineId`] per event in
    /// [`ClusterReport::placements`], so the *report* grows with the
    /// trace; billing does not — shards aggregate in constant space.)
    /// Solo oracles are warmed lazily as functions first appear in the
    /// stream (warming order cannot affect results: each oracle runs
    /// on its own idle simulator).
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InvalidAutoscale`] for incoherent autoscaler
    ///   water marks or machine bounds;
    /// * propagated warm-up, boot, stepping and pricing failures.
    pub fn replay_source<S: TraceSource>(
        &mut self,
        cluster: &mut Cluster,
        source: S,
    ) -> Result<ClusterReport> {
        if let Some(config) = &self.autoscale {
            config.validate()?;
        }
        let mut source = ChunkedSource::new(source);

        // Machines carry lifetime counters (they also back the billing
        // shards); snapshot them so this report's serving metrics
        // cover this replay only, even on a reused cluster.
        let base: BTreeMap<MachineId, Counters> = cluster
            .machines
            .iter()
            .map(|m| (m.id(), Counters::of(m)))
            .collect();
        let retired_base = cluster.retired.len();

        let slice_ms = cluster.slice_ms;
        let autoscaler = self
            .autoscale
            .clone()
            .map(|config| Autoscaler::new(config, slice_ms))
            .transpose()?;

        // Everything telemetry records is keyed to the sim clock and
        // recorded on this thread at slice boundaries, so the timeline
        // (and its JSONL export) is byte-identical across thread
        // counts, stepping modes (the event-driven engine included:
        // its bulk-skipped boundaries are accounted with the exact
        // bulk registry forms) and streaming vs materialized replay.
        // The meta line must therefore never mention threads, hosts or
        // the engine.
        let mut telemetry = Telemetry::new(self.telemetry);
        telemetry.set_meta("policy", self.policy.name());
        telemetry.set_meta("slice_ms", slice_ms.to_string());
        telemetry.set_meta(
            "stealing",
            if self.stealing.is_some() { "on" } else { "off" },
        );
        telemetry.set_meta(
            "autoscale",
            match &self.autoscale {
                None => "off",
                Some(config) => match config.policy {
                    ScalingPolicy::Reactive => "reactive",
                    ScalingPolicy::Predictive(_) => "predictive",
                },
            },
        );
        if !self.slos.is_empty() {
            telemetry.set_meta("slos", self.slos.len().to_string());
        }
        let replay_span = telemetry.open_span(0, "replay", vec![]);

        // Mirror the SLO configuration onto the timeline head so a
        // stream consumer (`litmus-obs tail`) can reconstruct the specs
        // and re-derive every alert without the driver's config.
        for (spec_idx, spec) in self.slos.iter().enumerate() {
            let (kind, threshold) = match spec.kind {
                SloKind::Slowdown { max } => ("slowdown", max),
                SloKind::QueueWait { max_ms } => ("queue-wait", max_ms as f64),
                SloKind::BillingRate { max_per_s } => ("billing-rate", max_per_s),
            };
            let mut fields = vec![
                ("spec", spec_idx.into()),
                ("slo", spec.name.clone().into()),
                ("kind", kind.into()),
                ("threshold", threshold.into()),
                ("objective", spec.objective.into()),
            ];
            if let Some(tenant) = spec.tenant {
                fields.push(("tenant", tenant.into()));
            }
            telemetry.event(0, "slo.spec", fields);
            for (rule_idx, rule) in spec.rules.iter().enumerate() {
                telemetry.event(
                    0,
                    "slo.rule",
                    vec![
                        ("spec", spec_idx.into()),
                        ("rule", rule_idx.into()),
                        ("severity", rule.severity.into()),
                        ("fast_ms", rule.fast_ms.into()),
                        ("slow_ms", rule.slow_ms.into()),
                        ("factor", rule.factor.into()),
                    ],
                );
            }
        }

        let sampler = self.telemetry.trace_sampler();
        if sampler.is_active() {
            // The sampler is a pure function of (seed, rate, trace id),
            // so this meta key — like everything else on the line — is
            // engine- and thread-count-independent.
            telemetry.set_meta("trace_sampling", format!("{}", sampler.rate()));
        }

        let mut state = ReplayState {
            spec: cluster.spec.clone(),
            slice_ms,
            autoscaler,
            placements: Vec::with_capacity(source.size_hint().0),
            predicted_slowdowns: Vec::with_capacity(source.size_hint().0),
            steal_events: Vec::new(),
            scale_events: Vec::new(),
            forecast_samples: Vec::new(),
            redispatched: 0,
            peak_machines: cluster.machines.len(),
            now_ms: 0,
            chunk: Vec::new(),
            telemetry,
            mirrored: (0, 0, 0),
            sampler,
            trace_records: Vec::new(),
            slo: (!self.slos.is_empty()).then(|| OnlineSloEngine::new(self.slos.clone(), slice_ms)),
            slo_fed: 0,
            service_prev: BTreeMap::new(),
            service_prev_ms: 0,
        };
        self.active_alerts.clear();

        self.run(cluster, &mut source, &mut state)?;
        self.drain(cluster, &mut state)?;

        // The replay horizon is now known: fold the at-horizon tail
        // into the final slice and close the alert history — exactly
        // the clamp a post-hoc evaluation of the finished timeline
        // applies, so the two alert lists agree event-for-event.
        let mut slo_alerts = Vec::new();
        if let Some(mut engine) = state.slo.take() {
            for record in &state.trace_records[state.slo_fed..] {
                engine.record(&completion_sample(record));
            }
            state.slo_fed = state.trace_records.len();
            let transitions = engine.finish(state.now_ms);
            apply_slo_transitions(&mut state.telemetry, transitions);
            slo_alerts = engine.alerts();
            self.active_alerts = engine.active_alerts();
        }

        // Machines that emptied on the last slice still retire before
        // the report is cut.
        if state.autoscaler.is_some() {
            crate::scale::push_retirements(cluster, state.now_ms, &mut state.scale_events);
        }
        mirror_into_timeline(
            &mut state.telemetry,
            &mut state.mirrored,
            &state.scale_events,
            &state.forecast_samples,
            &state.steal_events,
        );
        emit_trace_spans(&mut state);
        state.telemetry.close_span(replay_span, state.now_ms);

        let ReplayState {
            placements,
            predicted_slowdowns,
            steal_events,
            scale_events,
            forecast_samples,
            redispatched,
            peak_machines,
            now_ms,
            mut telemetry,
            ..
        } = state;

        let replay_base = |id: MachineId| base.get(&id).copied().unwrap_or_default();
        let mut completed = 0;
        let mut launched = 0;
        let mut latency_sum = 0.0;
        let mut queue_wait_sum = 0.0;
        let mut dispatch_counts = vec![0usize; cluster.machines_ever()];
        let mut machine_lifetimes = Vec::new();

        let newly_retired = &cluster.retired[retired_base..];
        let live = cluster.machines.iter().map(|machine| {
            let counters = Counters::of(machine);
            (
                MachineLifetime {
                    machine: machine.id(),
                    born_ms: machine.born_ms(),
                    retired_ms: None,
                    completed: counters.completed,
                    dispatched: counters.dispatched,
                },
                counters,
            )
        });
        for (lifetime, counters) in newly_retired
            .iter()
            .map(|r| (r.lifetime(), r.counters))
            .chain(live)
        {
            let base = replay_base(lifetime.machine);
            completed += counters.completed - base.completed;
            launched += counters.launched - base.launched;
            latency_sum += counters.latency_sum_ms - base.latency_sum_ms;
            queue_wait_sum += counters.queue_wait_sum_ms - base.queue_wait_sum_ms;
            dispatch_counts[lifetime.machine.index()] =
                counters.dispatched.saturating_sub(base.dispatched);
            machine_lifetimes.push(lifetime);
        }
        machine_lifetimes.sort_by_key(|l| l.machine);

        // Machine lifetimes as timeline spans: retired machines close,
        // machines alive at replay end stay open (`end_ms: null`).
        for lifetime in &machine_lifetimes {
            let fields = vec![
                ("machine", lifetime.machine.index().into()),
                ("completed", lifetime.completed.into()),
                ("dispatched", lifetime.dispatched.into()),
            ];
            match lifetime.retired_ms {
                Some(end_ms) => telemetry.span("machine", lifetime.born_ms, end_ms, fields),
                None => {
                    telemetry.open_span(lifetime.born_ms, "machine", fields);
                }
            }
        }
        telemetry.inc("replay.completed", completed as u64);
        telemetry.inc("replay.unfinished", cluster.outstanding() as u64);

        // With a retention window configured the telemetry has been
        // streaming through its sink all along; this drains the final
        // window (registry snapshot included) into the finished export.
        let streamed_jsonl = telemetry.take_streamed();

        Ok(ClusterReport {
            policy: self.policy.name(),
            billing: cluster.billing(),
            dispatch_counts,
            completed,
            unfinished: cluster.outstanding(),
            redispatched,
            steal_events,
            scale_events,
            forecast_samples,
            machine_lifetimes,
            slo_alerts,
            telemetry,
            streamed_jsonl,
            peak_machines,
            mean_latency_ms: if completed == 0 {
                0.0
            } else {
                latency_sum / completed as f64
            },
            mean_queue_wait_ms: if launched == 0 {
                0.0
            } else {
                queue_wait_sum / launched as f64
            },
            mean_predicted_slowdown: if predicted_slowdowns.is_empty() {
                0.0
            } else {
                predicted_slowdowns.iter().sum::<f64>() / predicted_slowdowns.len() as f64
            },
            predicted_slowdowns,
            placements,
            sim_ms: now_ms,
        })
    }

    /// The replay loop both engines share: per round, pick the next
    /// boundary to process — the one place the engines differ — then
    /// process the slice that ends there exactly as the oracle would.
    ///
    /// Slice stepping ([`SteppingMode::Pooled`], the oracle) processes
    /// every boundary. So does the event engine whenever elastic
    /// control is on (autoscaler or stealing): each boundary is then a
    /// decision round — the forecaster observes every slice's admitted
    /// count and cooldown clocks advance per round — and its win comes
    /// from machine-level idle fast-forwarding instead. With elastic
    /// control off, the event engine jumps to the boundary that admits
    /// the next arrival and bulk-skips the quiet slices before it in
    /// O(1) bookkeeping.
    fn run<S: TraceSource>(
        &mut self,
        cluster: &mut Cluster,
        source: &mut ChunkedSource<S>,
        state: &mut ReplayState,
    ) -> Result<()> {
        let skip_quiet = cluster.stepping == SteppingMode::EventDriven
            && state.autoscaler.is_none()
            && self.stealing.is_none();
        while let Some(at_ms) = source.peek_at_ms() {
            let queue_started = state.telemetry.profile().start();
            let horizon = state.now_ms + state.slice_ms;
            // fill_before admits strictly-before, so an arrival at
            // `at_ms` is admitted by the first boundary after it; a
            // late (out-of-order) stamp clamps to the next boundary —
            // exactly where slice stepping would admit it.
            let next = if skip_quiet {
                ((at_ms / state.slice_ms + 1) * state.slice_ms).max(horizon)
            } else {
                horizon
            };
            state.telemetry.profile_mut().stop("queue", queue_started);
            if next > horizon {
                bulk_skip(cluster, state, next - state.slice_ms)?;
            }
            self.process_slice(cluster, source, state, next)?;
        }
        Ok(())
    }

    /// Processes one slice ending at `slice_end`, in the oracle's
    /// exact order: admit the slice's chunk of arrivals, route and
    /// dispatch each against live snapshots, run the boundary
    /// (autoscale → steal → timeline mirror → fleet gauge), then step
    /// every machine to the boundary.
    fn process_slice<S: TraceSource>(
        &mut self,
        cluster: &mut Cluster,
        source: &mut ChunkedSource<S>,
        state: &mut ReplayState,
        slice_end: u64,
    ) -> Result<()> {
        let mut chunk = std::mem::take(&mut state.chunk);
        chunk.clear();
        source.fill_before(slice_end, &mut chunk);
        let admitted = chunk.len();
        state.telemetry.inc("slices", 1);
        state.telemetry.inc("arrivals.admitted", admitted as u64);
        state.telemetry.observe("slice.admitted", admitted as f64);
        let dispatch_started = state.telemetry.profile().start();
        for event in chunk.drain(..) {
            if !cluster.ctx.is_warmed(&event.function) {
                // In-place: workers release their context clones at
                // the slice barrier, so the Arc is unique here.
                Arc::make_mut(&mut cluster.ctx).warm_function(&state.spec, &event.function)?;
                state.telemetry.inc("oracle.warmed", 1);
            }
            let (position, id, predicted) = self.route(cluster);
            state
                .telemetry
                .observe("dispatch.predicted_slowdown", predicted);
            // The trace id is the invocation's admission index in trace
            // order — a pure function of the trace, so the sampled set
            // (and every span) is identical across engines and threads.
            let trace_id = TraceId(state.placements.len() as u64);
            let trace = if state.sampler.sample(trace_id) {
                state.telemetry.inc("trace.sampled", 1);
                // A late out-of-order stamp can postdate its admitting
                // boundary; clamp so the admission span stays well-formed.
                let arrived = event.at_ms.min(slice_end);
                state.telemetry.span(
                    "trace.admission",
                    arrived,
                    slice_end,
                    vec![
                        ("trace", trace_id.0.into()),
                        ("tenant", event.tenant.0.into()),
                        ("function", event.function.name().into()),
                    ],
                );
                state.telemetry.event(
                    slice_end,
                    "trace.placement",
                    vec![
                        ("trace", trace_id.0.into()),
                        ("tenant", event.tenant.0.into()),
                        ("machine", id.index().into()),
                        ("probe_slowdown", predicted.into()),
                        ("fleet", cluster.machines.len().into()),
                    ],
                );
                Some(trace_id)
            } else {
                None
            };
            state.predicted_slowdowns.push(predicted);
            state.placements.push(id);
            cluster.machines[position].dispatch(event.at_ms, event.function, event.tenant, trace);
        }
        state.chunk = chunk;
        state
            .telemetry
            .profile_mut()
            .stop("dispatch", dispatch_started);
        self.boundary(cluster, state, slice_end, admitted)?;
        step_cluster(cluster, state, slice_end)?;
        state.now_ms = slice_end;
        Ok(())
    }

    /// One slice-boundary control round at `at_ms`: autoscale
    /// decision, stealing pass, timeline mirroring, fleet gauge — the
    /// order both engines share.
    fn boundary(
        &mut self,
        cluster: &mut Cluster,
        state: &mut ReplayState,
        at_ms: u64,
        admitted: usize,
    ) -> Result<()> {
        if let Some(scaler) = &mut state.autoscaler {
            // Observed per-machine completion rate over the probe
            // interval, gauged before the scaler mutates the fleet.
            // One set per live machine in fleet order folds the whole
            // fleet's range into the `machine.service_rate` gauge
            // (min = slowest machine-interval, max = fastest). Gated on
            // the autoscaler because only then is every boundary dense
            // (the event engine never bulk-skips), keeping the gauge —
            // and the export — identical across engines.
            let elapsed_ms = at_ms.saturating_sub(state.service_prev_ms);
            if elapsed_ms > 0 {
                for machine in &cluster.machines {
                    let completed = machine.completed();
                    let prev = state
                        .service_prev
                        .insert(machine.id(), completed)
                        .unwrap_or(completed);
                    let rate = completed.saturating_sub(prev) as f64 * 1000.0 / elapsed_ms as f64;
                    state.telemetry.gauge_set("machine.service_rate", rate);
                }
                state.service_prev_ms = at_ms;
            }
            let started = state.telemetry.profile().start();
            scaler.evaluate(
                cluster,
                at_ms,
                admitted,
                &mut state.scale_events,
                &mut state.forecast_samples,
            )?;
            state.telemetry.profile_mut().stop("scale", started);
            state.peak_machines = state.peak_machines.max(cluster.machines.len());
        }
        if let Some(config) = &self.stealing {
            let started = state.telemetry.profile().start();
            state.redispatched += steal_pass(cluster, config, at_ms, &mut state.steal_events);
            state.telemetry.profile_mut().stop("steal", started);
        }
        mirror_into_timeline(
            &mut state.telemetry,
            &mut state.mirrored,
            &state.scale_events,
            &state.forecast_samples,
            &state.steal_events,
        );
        state
            .telemetry
            .gauge_set("fleet.machines", cluster.machines.len() as f64);
        Ok(())
    }

    /// Lets in-flight work finish after the last arrival: slice-sized
    /// boundary rounds until the cluster empties or the drain window
    /// closes. Both engines drain boundary-by-boundary — the replay's
    /// `sim_ms` must end at the *first* boundary where nothing is
    /// outstanding, which only stepping each boundary can observe.
    fn drain(&mut self, cluster: &mut Cluster, state: &mut ReplayState) -> Result<()> {
        let drain_start_ms = state.now_ms;
        let drain_pending = cluster.outstanding();
        let deadline = drain_start_ms + cluster.drain_ms;
        while cluster.outstanding() > 0 && state.now_ms < deadline {
            let next_ms = (state.now_ms + state.slice_ms).min(deadline);
            state.telemetry.inc("slices", 1);
            self.boundary(cluster, state, next_ms, 0)?;
            step_cluster(cluster, state, next_ms)?;
            state.now_ms = next_ms;
        }
        if state.now_ms > drain_start_ms {
            state.telemetry.span(
                "drain",
                drain_start_ms,
                state.now_ms,
                vec![
                    ("pending", drain_pending.into()),
                    ("unfinished", cluster.outstanding().into()),
                ],
            );
        }
        Ok(())
    }
}

/// Mutable state of one replay, threaded through the engine stages so
/// the slice and event-driven loops share the exact same slice
/// processing, boundary and drain code.
struct ReplayState {
    spec: MachineSpec,
    slice_ms: u64,
    autoscaler: Option<Autoscaler>,
    placements: Vec<MachineId>,
    predicted_slowdowns: Vec<f64>,
    steal_events: Vec<StealEvent>,
    scale_events: Vec<ScaleEvent>,
    forecast_samples: Vec<ForecastSample>,
    redispatched: usize,
    peak_machines: usize,
    now_ms: u64,
    /// Reusable per-slice arrival buffer.
    chunk: Vec<TraceEvent>,
    telemetry: Telemetry,
    /// (scale, forecast, steal) entries already mirrored onto the
    /// timeline — the typed vectors stay the storage of record.
    mirrored: (usize, usize, usize),
    /// Deterministic per-invocation trace sampler.
    sampler: TraceSampler,
    /// Completion records drained from the machines after every step,
    /// merged and emitted as `trace.*` spans once the replay ends.
    trace_records: Vec<CompletionRecord>,
    /// Incremental SLO evaluator, fed at every boundary (None when the
    /// driver declared no SLOs).
    slo: Option<OnlineSloEngine>,
    /// `trace_records` entries already fed to the online engine.
    slo_fed: usize,
    /// Per-machine completed counts at the last probe boundary, for the
    /// `machine.service_rate` gauge.
    service_prev: BTreeMap<MachineId, usize>,
    /// Sim time of the last service-rate probe.
    service_prev_ms: u64,
}

/// The online engine's view of one drained completion record — field
/// for field the same values `emit_trace_spans` later writes to the
/// timeline, so the online input equals the post-hoc
/// `completions(timeline)` join.
fn completion_sample(record: &CompletionRecord) -> CompletionSample {
    CompletionSample {
        trace: record.trace.0,
        tenant: record.tenant.0,
        machine: record.machine.index() as u64,
        arrived_ms: record.arrived_ms,
        launched_ms: record.launched_ms,
        completed_ms: record.completed_ms as u64,
        wait_ms: record.launched_ms.saturating_sub(record.arrived_ms),
        moves: record.moves as u64,
        cost: record.cost,
        predicted: record.predicted,
    }
}

/// Feeds completion records drained since the last boundary to the
/// online SLO engine, advances it to `at_ms`, and lands the resulting
/// fired/cleared transitions on the timeline. Quiet slices append
/// nothing else to the timeline, so these events occupy identical
/// positions whether boundaries were stepped one by one (slice engine)
/// or finalized in one catch-up call after a bulk skip (event engine) —
/// the export stays byte-identical either way.
fn feed_slo_boundary(state: &mut ReplayState, at_ms: u64) {
    let Some(engine) = state.slo.as_mut() else {
        return;
    };
    for record in &state.trace_records[state.slo_fed..] {
        engine.record(&completion_sample(record));
    }
    state.slo_fed = state.trace_records.len();
    let transitions = engine.observe_boundary(at_ms);
    apply_slo_transitions(&mut state.telemetry, transitions);
}

/// Writes SLO fired/cleared transitions as timeline events (stamped
/// with the boundary they became decidable at) and registry counters.
fn apply_slo_transitions(telemetry: &mut Telemetry, transitions: Vec<SloAlert>) {
    for alert in transitions {
        let name = match alert.transition {
            SloTransition::Fired => "slo.alert.fired",
            SloTransition::Cleared => "slo.alert.cleared",
        };
        telemetry.inc(name, 1);
        let mut fields = vec![
            ("slo", alert.slo.into()),
            ("severity", alert.severity.into()),
            ("spec", alert.spec_idx.into()),
            ("rule", alert.rule_idx.into()),
            ("burn_fast", alert.burn_fast.into()),
            ("burn_slow", alert.burn_slow.into()),
        ];
        if let Some(tenant) = alert.tenant {
            fields.push(("tenant", tenant.into()));
        }
        if alert.transition == SloTransition::Cleared {
            fields.push(("peak_burn", alert.peak_burn.into()));
        }
        telemetry.event(alert.at_ms, name, fields);
    }
}

/// Steps every live machine to `target_ms`, wall-clock-profiled as
/// the "step" stage.
fn step_cluster(cluster: &mut Cluster, state: &mut ReplayState, target_ms: u64) -> Result<()> {
    let started = state.telemetry.profile().start();
    cluster.step_all(target_ms, state.telemetry.profile_mut())?;
    state.telemetry.profile_mut().stop("step", started);
    // Drain sampled completion records on the driver thread before the
    // next boundary can retire an emptied machine (records drop with
    // it). Each machine's record stream is step-granularity-invariant,
    // so the merged multiset is identical across engines.
    for machine in &mut cluster.machines {
        let records = machine.take_trace_records();
        if !records.is_empty() {
            state.trace_records.extend(records);
        }
    }
    // Every record completing before `target_ms` is now drained, which
    // is exactly what finalizing the boundaries strictly before it
    // needs — so the online SLO engine advances here, on the shared
    // path every step (slice, drain round, bulk skip) funnels through.
    feed_slo_boundary(state, target_ms);
    Ok(())
}

/// Emits every sampled invocation's completion-side chain — the
/// `trace.queue` span (arrival → launch), the `trace.exec` span
/// (launch → completion) and the `trace.billed` attribution event — in
/// one deterministic merge at replay end. Records are sorted by
/// (completion time, trace id): per-machine streams are identical
/// across stepping modes, and the sort key is unique per record, so
/// the emitted order never depends on how the driver batched the
/// drains (slice-by-slice vs one bulk skip).
fn emit_trace_spans(state: &mut ReplayState) {
    if state.trace_records.is_empty() {
        return;
    }
    let mut records = std::mem::take(&mut state.trace_records);
    records.sort_by(|a, b| {
        a.completed_ms
            .total_cmp(&b.completed_ms)
            .then_with(|| a.trace.cmp(&b.trace))
    });
    for record in &records {
        let completed = record.completed_ms as u64;
        let wait_ms = record.launched_ms.saturating_sub(record.arrived_ms);
        state.telemetry.span(
            "trace.queue",
            record.arrived_ms,
            record.launched_ms,
            vec![
                ("trace", record.trace.0.into()),
                ("tenant", record.tenant.0.into()),
                ("machine", record.machine.index().into()),
                ("moves", record.moves.into()),
            ],
        );
        state.telemetry.span(
            "trace.exec",
            record.launched_ms,
            completed,
            vec![
                ("trace", record.trace.0.into()),
                ("tenant", record.tenant.0.into()),
                ("machine", record.machine.index().into()),
            ],
        );
        state.telemetry.event(
            completed,
            "trace.billed",
            vec![
                ("trace", record.trace.0.into()),
                ("tenant", record.tenant.0.into()),
                ("machine", record.machine.index().into()),
                ("cost", record.cost.into()),
                ("predicted", record.predicted.into()),
            ],
        );
        state.telemetry.inc("trace.completed", 1);
        state
            .telemetry
            .observe("trace.queue_wait_ms", wait_ms as f64);
        if record.moves > 0 {
            state.telemetry.inc("trace.stolen", 1);
        }
    }
}

/// Accounts `(to_ms − now) / slice_ms` skipped quiet slices in O(1)
/// and advances the cluster to `to_ms`. Only reachable with elastic
/// control off, so the only per-slice effects to replicate are the
/// registry updates — applied with their exact bulk forms, keeping the
/// registry (and its JSONL export) bit-identical to stepping the
/// slices one by one.
fn bulk_skip(cluster: &mut Cluster, state: &mut ReplayState, to_ms: u64) -> Result<()> {
    let slices = (to_ms - state.now_ms) / state.slice_ms;
    let skip_started = state.telemetry.profile().start();
    state.telemetry.inc("slices", slices);
    state.telemetry.inc("arrivals.admitted", 0);
    state.telemetry.observe_n("slice.admitted", 0.0, slices);
    state
        .telemetry
        .gauge_set_n("fleet.machines", cluster.machines.len() as f64, slices);
    state
        .telemetry
        .profile_mut()
        .stop("bulk-account", skip_started);
    step_cluster(cluster, state, to_ms)?;
    state.now_ms = to_ms;
    Ok(())
}

/// Mirrors typed elasticity records appended since the last call onto
/// the telemetry timeline (as structured events) and registry (as
/// counters/histograms). `mirrored` tracks how many (scale, forecast,
/// steal) entries are already on the timeline, so the typed vectors
/// remain the storage of record and every entry lands exactly once.
fn mirror_into_timeline(
    telemetry: &mut Telemetry,
    mirrored: &mut (usize, usize, usize),
    scale_events: &[ScaleEvent],
    forecast_samples: &[ForecastSample],
    steal_events: &[StealEvent],
) {
    for event in &scale_events[mirrored.0..] {
        let (kind, counter) = match event.kind {
            ScaleKind::Up => ("up", "scale.up"),
            ScaleKind::DrainStart => ("drain-start", "scale.drain_start"),
            ScaleKind::Retire => ("retire", "scale.retire"),
        };
        telemetry.inc(counter, 1);
        telemetry.event(
            event.at_ms,
            "scale",
            vec![
                ("kind", kind.into()),
                ("machine", event.machine.index().into()),
                ("reason", event.reason.to_string().into()),
                ("signal", event.signal.into()),
            ],
        );
    }
    mirrored.0 = scale_events.len();
    for sample in &forecast_samples[mirrored.1..] {
        telemetry.event(
            sample.at_ms,
            "forecast",
            vec![
                ("observed", sample.observed.into()),
                ("point", sample.forecast.point.into()),
                ("lo", sample.forecast.lo.into()),
                ("hi", sample.forecast.hi.into()),
                ("horizon", sample.forecast.horizon.into()),
                ("required", sample.required.into()),
                ("serving", sample.serving.into()),
            ],
        );
    }
    mirrored.1 = forecast_samples.len();
    for event in &steal_events[mirrored.2..] {
        telemetry.inc("steal.redispatched", event.moved as u64);
        telemetry.observe("steal.moved", event.moved as f64);
        telemetry.event(
            event.at_ms,
            "steal",
            vec![
                ("from", event.from.index().into()),
                ("to", event.to.index().into()),
                ("moved", event.moved.into()),
            ],
        );
    }
    mirrored.2 = steal_events.len();
}
