use std::error::Error;
use std::fmt;

use crate::engine::InstanceId;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A profile was constructed with no phases.
    EmptyProfile,
    /// A phase parameter was outside its valid range.
    InvalidPhase {
        /// Which parameter was invalid.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The startup length exceeded the number of phases.
    StartupOutOfRange {
        /// Requested startup phase count.
        startup: usize,
        /// Total phases in the profile.
        phases: usize,
    },
    /// A placement referenced a core the machine does not have.
    UnknownCore {
        /// The requested core index.
        core: usize,
        /// Number of cores in the machine.
        cores: usize,
    },
    /// A placement allowed no cores at all.
    EmptyPlacement,
    /// An instance id did not name a live workload: never launched, or
    /// already finished and handed out in its completion.
    UnknownInstance(InstanceId),
    /// A machine specification parameter was invalid.
    InvalidSpec {
        /// Which parameter was invalid.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The simulation exceeded the safety horizon without completing.
    HorizonExceeded {
        /// The horizon in milliseconds.
        horizon_ms: u64,
    },
    /// `skip_idle_to` was called while instances were still active.
    SkipWhileActive {
        /// Instances active at the time of the call.
        active: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyProfile => write!(f, "execution profile has no phases"),
            SimError::InvalidPhase { field, value } => {
                write!(f, "invalid phase parameter {field} = {value}")
            }
            SimError::StartupOutOfRange { startup, phases } => {
                write!(f, "startup length {startup} exceeds phase count {phases}")
            }
            SimError::UnknownCore { core, cores } => {
                write!(f, "core {core} out of range (machine has {cores} cores)")
            }
            SimError::EmptyPlacement => write!(f, "placement allows no cores"),
            SimError::UnknownInstance(id) => {
                write!(f, "unknown instance id {}", id.as_usize())
            }
            SimError::InvalidSpec { field, value } => {
                write!(f, "invalid machine spec parameter {field} = {value}")
            }
            SimError::HorizonExceeded { horizon_ms } => {
                write!(f, "simulation exceeded the {horizon_ms} ms safety horizon")
            }
            SimError::SkipWhileActive { active } => {
                write!(
                    f,
                    "cannot fast-forward an idle skip with {active} active instances"
                )
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = SimError::UnknownCore {
            core: 40,
            cores: 32,
        };
        assert!(e.to_string().contains("40"));
        assert!(e.to_string().contains("32"));
        let e = SimError::InvalidPhase {
            field: "cpi_private",
            value: -1.0,
        };
        assert!(e.to_string().contains("cpi_private"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>(_: E) {}
        assert_err(SimError::EmptyProfile);
    }
}
