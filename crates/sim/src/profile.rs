use std::sync::Arc;

use crate::error::SimError;
use crate::Result;

/// One homogeneous execution phase of a workload.
///
/// A phase is the unit of the simulator's performance model: while inside
/// a phase, a context retires instructions at a rate determined by the
/// phase parameters and the machine's current congestion state.
///
/// The parameters map one-to-one onto the signals the paper measures:
/// `l2_mpki` drives demand on shared resources (what CT-Gen maximises),
/// `l3_miss_ratio` decides how much of that demand reaches DRAM (what
/// MB-Gen maximises), `blocking` models memory-level parallelism (how
/// much of the post-L2 latency actually stalls retirement and therefore
/// lands in `T_shared`), and `footprint_mb` participates in L3 capacity
/// contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPhase {
    /// Instructions retired in this phase.
    pub instructions: f64,
    /// Cycles per instruction on private resources (core + L1/L2).
    pub cpi_private: f64,
    /// L2 misses per kilo-instruction — traffic sent past the L2.
    pub l2_mpki: f64,
    /// Fraction of L2 misses that also miss the L3 when running alone.
    pub l3_miss_ratio: f64,
    /// Fraction of the post-L2 latency that stalls retirement
    /// (1.0 = fully serialised misses, small = deep MLP overlap).
    pub blocking: f64,
    /// Live cache footprint in MiB while this phase executes.
    pub footprint_mb: f64,
}

impl ExecPhase {
    /// Creates a phase; arguments in declaration order.
    ///
    /// Prefer this over struct literals in examples; validation happens
    /// when the phase is added to a profile.
    pub fn new(
        instructions: f64,
        cpi_private: f64,
        l2_mpki: f64,
        l3_miss_ratio: f64,
        blocking: f64,
        footprint_mb: f64,
    ) -> Self {
        ExecPhase {
            instructions,
            cpi_private,
            l2_mpki,
            l3_miss_ratio,
            blocking,
            footprint_mb,
        }
    }

    fn validate(&self) -> Result<()> {
        fn check(cond: bool, field: &'static str, value: f64) -> Result<()> {
            if cond && value.is_finite() {
                Ok(())
            } else {
                Err(SimError::InvalidPhase { field, value })
            }
        }
        check(self.instructions > 0.0, "instructions", self.instructions)?;
        check(self.cpi_private > 0.0, "cpi_private", self.cpi_private)?;
        check(self.l2_mpki >= 0.0, "l2_mpki", self.l2_mpki)?;
        check(
            (0.0..=1.0).contains(&self.l3_miss_ratio),
            "l3_miss_ratio",
            self.l3_miss_ratio,
        )?;
        check(
            (0.0..=1.0).contains(&self.blocking),
            "blocking",
            self.blocking,
        )?;
        check(self.footprint_mb >= 0.0, "footprint_mb", self.footprint_mb)?;
        Ok(())
    }
}

/// A complete workload: an ordered sequence of [`ExecPhase`]s, optionally
/// with a *startup prefix* — the first `startup_len` phases model the
/// language runtime's startup routine that Litmus tests exploit as a
/// congestion probe (paper §6, step 1).
///
/// Profiles are immutable and cheaply clonable (`Arc` inside); build them
/// with [`ExecutionProfile::builder`].
///
/// # Examples
///
/// ```
/// use litmus_sim::{ExecPhase, ExecutionProfile};
///
/// let profile = ExecutionProfile::builder("fib-py")
///     .startup_phase(ExecPhase::new(45_000_000.0, 0.55, 14.0, 0.25, 0.8, 24.0))
///     .phase(ExecPhase::new(400_000_000.0, 0.42, 1.0, 0.1, 0.7, 8.0))
///     .build()
///     .unwrap();
/// assert_eq!(profile.startup_len(), 1);
/// assert_eq!(profile.total_instructions(), 445_000_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionProfile {
    inner: Arc<ProfileInner>,
}

#[derive(Debug, PartialEq)]
struct ProfileInner {
    name: String,
    phases: Vec<ExecPhase>,
    startup_len: usize,
}

impl ExecutionProfile {
    /// Starts building a profile with the given workload name.
    pub fn builder(name: impl Into<String>) -> ProfileBuilder {
        ProfileBuilder {
            name: name.into(),
            phases: Vec::new(),
            startup_len: 0,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The workload name, moved out when this is the profile's only
    /// handle (copied when a clone still shares it).
    pub(crate) fn into_name(self) -> String {
        Arc::try_unwrap(self.inner).map_or_else(|shared| shared.name.clone(), |inner| inner.name)
    }

    /// All phases, startup prefix first.
    pub fn phases(&self) -> &[ExecPhase] {
        &self.inner.phases
    }

    /// Number of phases forming the startup prefix.
    pub fn startup_len(&self) -> usize {
        self.inner.startup_len
    }

    /// Whether the profile has a startup prefix usable as a Litmus probe.
    pub fn has_startup(&self) -> bool {
        self.inner.startup_len > 0
    }

    /// Total instructions over all phases.
    pub fn total_instructions(&self) -> f64 {
        self.inner.phases.iter().map(|p| p.instructions).sum()
    }

    /// Instructions in the startup prefix (the Litmus probe window; the
    /// paper uses the first 45 M instructions of the Python startup).
    pub fn startup_instructions(&self) -> f64 {
        self.inner.phases[..self.inner.startup_len]
            .iter()
            .map(|p| p.instructions)
            .sum()
    }

    /// Returns a copy of this profile containing only the startup prefix
    /// (useful for probe-only calibration runs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyProfile`] when the profile has no startup
    /// prefix.
    pub fn startup_only(&self) -> Result<ExecutionProfile> {
        if self.inner.startup_len == 0 {
            return Err(SimError::EmptyProfile);
        }
        let phases = self.inner.phases[..self.inner.startup_len].to_vec();
        Ok(ExecutionProfile {
            inner: Arc::new(ProfileInner {
                name: format!("{}::startup", self.inner.name),
                startup_len: phases.len(),
                phases,
            }),
        })
    }

    /// Returns a copy of this profile without the startup prefix — a
    /// *warm start*: the sandbox is reused, the language runtime is
    /// already initialised, and (crucially for Litmus) no probe window
    /// exists.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyProfile`] when the profile is all
    /// startup (nothing would remain).
    pub fn body_only(&self) -> Result<ExecutionProfile> {
        if self.inner.startup_len >= self.inner.phases.len() {
            return Err(SimError::EmptyProfile);
        }
        let phases = self.inner.phases[self.inner.startup_len..].to_vec();
        Ok(ExecutionProfile {
            inner: Arc::new(ProfileInner {
                name: format!("{}::warm", self.inner.name),
                startup_len: 0,
                phases,
            }),
        })
    }

    /// Returns a copy with every phase's instruction count multiplied by
    /// `factor` — used to scale workload durations in sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPhase`] if `factor` is not a positive
    /// finite number.
    pub fn scaled(&self, factor: f64) -> Result<ExecutionProfile> {
        if factor <= 0.0 || !factor.is_finite() {
            return Err(SimError::InvalidPhase {
                field: "scale factor",
                value: factor,
            });
        }
        let phases = self
            .inner
            .phases
            .iter()
            .map(|p| ExecPhase {
                instructions: p.instructions * factor,
                ..*p
            })
            .collect();
        Ok(ExecutionProfile {
            inner: Arc::new(ProfileInner {
                name: self.inner.name.clone(),
                phases,
                startup_len: self.inner.startup_len,
            }),
        })
    }
}

/// Builder for [`ExecutionProfile`]; see [`ExecutionProfile::builder`].
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    name: String,
    phases: Vec<ExecPhase>,
    startup_len: usize,
}

impl ProfileBuilder {
    /// Appends a startup-prefix phase.
    ///
    /// # Panics
    ///
    /// Panics if called after a body [`ProfileBuilder::phase`] — the
    /// startup prefix must be contiguous at the front.
    pub fn startup_phase(mut self, phase: ExecPhase) -> Self {
        assert_eq!(
            self.phases.len(),
            self.startup_len,
            "startup phases must precede body phases"
        );
        self.phases.push(phase);
        self.startup_len += 1;
        self
    }

    /// Appends a body phase.
    pub fn phase(mut self, phase: ExecPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Finalises the profile.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyProfile`] when no phases were added.
    /// * [`SimError::InvalidPhase`] when any phase parameter is out of
    ///   range (see [`ExecPhase`] field docs).
    pub fn build(self) -> Result<ExecutionProfile> {
        if self.phases.is_empty() {
            return Err(SimError::EmptyProfile);
        }
        for phase in &self.phases {
            phase.validate()?;
        }
        if self.startup_len > self.phases.len() {
            return Err(SimError::StartupOutOfRange {
                startup: self.startup_len,
                phases: self.phases.len(),
            });
        }
        Ok(ExecutionProfile {
            inner: Arc::new(ProfileInner {
                name: self.name,
                phases: self.phases,
                startup_len: self.startup_len,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase() -> ExecPhase {
        ExecPhase::new(1_000_000.0, 0.5, 10.0, 0.3, 0.8, 8.0)
    }

    #[test]
    fn builder_produces_profile() {
        let p = ExecutionProfile::builder("w")
            .startup_phase(phase())
            .phase(phase())
            .build()
            .unwrap();
        assert_eq!(p.name(), "w");
        assert_eq!(p.phases().len(), 2);
        assert_eq!(p.startup_len(), 1);
        assert!(p.has_startup());
        assert_eq!(p.total_instructions(), 2_000_000.0);
        assert_eq!(p.startup_instructions(), 1_000_000.0);
    }

    #[test]
    fn empty_profile_rejected() {
        assert_eq!(
            ExecutionProfile::builder("w").build().unwrap_err(),
            SimError::EmptyProfile
        );
    }

    #[test]
    fn invalid_phase_parameters_rejected() {
        let bad = ExecPhase::new(0.0, 0.5, 10.0, 0.3, 0.8, 8.0);
        assert!(matches!(
            ExecutionProfile::builder("w").phase(bad).build(),
            Err(SimError::InvalidPhase {
                field: "instructions",
                ..
            })
        ));
        let bad = ExecPhase::new(1.0, 0.5, 10.0, 1.5, 0.8, 8.0);
        assert!(matches!(
            ExecutionProfile::builder("w").phase(bad).build(),
            Err(SimError::InvalidPhase {
                field: "l3_miss_ratio",
                ..
            })
        ));
        let bad = ExecPhase::new(1.0, 0.5, -3.0, 0.5, 0.8, 8.0);
        assert!(ExecutionProfile::builder("w").phase(bad).build().is_err());
    }

    #[test]
    #[should_panic(expected = "startup phases must precede")]
    fn startup_after_body_panics() {
        let _ = ExecutionProfile::builder("w")
            .phase(phase())
            .startup_phase(phase());
    }

    #[test]
    fn startup_only_extracts_prefix() {
        let p = ExecutionProfile::builder("w")
            .startup_phase(phase())
            .startup_phase(phase())
            .phase(phase())
            .build()
            .unwrap();
        let s = p.startup_only().unwrap();
        assert_eq!(s.phases().len(), 2);
        assert_eq!(s.startup_len(), 2);
        assert!(s.name().contains("startup"));
    }

    #[test]
    fn startup_only_requires_prefix() {
        let p = ExecutionProfile::builder("w")
            .phase(phase())
            .build()
            .unwrap();
        assert_eq!(p.startup_only().unwrap_err(), SimError::EmptyProfile);
    }

    #[test]
    fn body_only_strips_the_startup() {
        let p = ExecutionProfile::builder("w")
            .startup_phase(phase())
            .phase(phase())
            .phase(phase())
            .build()
            .unwrap();
        let warm = p.body_only().unwrap();
        assert_eq!(warm.phases().len(), 2);
        assert!(!warm.has_startup());
        assert!(warm.name().contains("warm"));
        // All-startup profiles cannot be warmed.
        let all_startup = ExecutionProfile::builder("s")
            .startup_phase(phase())
            .build()
            .unwrap();
        assert_eq!(all_startup.body_only().unwrap_err(), SimError::EmptyProfile);
    }

    #[test]
    fn scaled_multiplies_instructions() {
        let p = ExecutionProfile::builder("w")
            .phase(phase())
            .build()
            .unwrap();
        let s = p.scaled(2.5).unwrap();
        assert_eq!(s.total_instructions(), 2_500_000.0);
        assert!(p.scaled(0.0).is_err());
        assert!(p.scaled(f64::NAN).is_err());
    }

    #[test]
    fn profiles_are_cheap_to_clone() {
        let p = ExecutionProfile::builder("w")
            .phase(phase())
            .build()
            .unwrap();
        let q = p.clone();
        assert_eq!(p, q);
        // Same allocation behind both.
        assert!(Arc::ptr_eq(&p.inner, &q.inner));
    }
}
