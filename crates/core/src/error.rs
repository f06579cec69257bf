//! Typed protocol and configuration failures.
//!
//! Infeasible configurations and exhausted work budgets used to abort
//! with `panic!`/`assert!` deep inside the drivers, which is the wrong
//! surface for a long-running service: a caller that can *choose* a
//! different configuration (shed the request, fall back to a weaker
//! protocol, report a non-zero exit) needs the failure as a value.
//! [`ProtocolError`] is that value. The panicking entry points remain —
//! [`Protocol::allocate`](crate::protocol::Protocol::allocate) keeps
//! its infallible signature for the simulation harness — but they are
//! now thin `unwrap`s over the fallible `try_*` paths, so the panic
//! message and the typed error can never disagree.

/// A protocol-level failure that a caller can handle instead of crash
/// on: the configuration is infeasible, a round or kick budget ran
/// out, or a streaming placement could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// More balls than total capacity: `m > Σ_j cap_j` can never be
    /// placed by any bounded-load scheme.
    InfeasibleCapacity {
        /// Balls requested.
        m: u64,
        /// Total capacity of all bins.
        capacity: u64,
    },
    /// A round-synchronous driver exhausted its round budget without
    /// placing every ball.
    Unconverged {
        /// Protocol display name.
        protocol: String,
        /// The exhausted round budget.
        rounds: u64,
    },
    /// A cuckoo insertion exhausted its kick budget (the abort-and-
    /// rehash signal of the relocation literature).
    KickBudgetExhausted {
        /// Kicks spent before giving up.
        kicks: u64,
    },
    /// The key being inserted is already present.
    DuplicateKey,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::InfeasibleCapacity { m, capacity } => {
                write!(f, "infeasible: m = {m} exceeds total capacity {capacity}")
            }
            ProtocolError::Unconverged { protocol, rounds } => {
                write!(f, "{protocol} failed to converge in {rounds} rounds")
            }
            ProtocolError::KickBudgetExhausted { kicks } => {
                write!(f, "cuckoo kick budget exhausted after {kicks} kicks")
            }
            ProtocolError::DuplicateKey => write!(f, "key already present"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A configuration rejected before any run starts: a count that must be
/// positive is zero, or a probability lies outside `[0, 1]`. The CLI
/// reports it on stderr and exits 2 (a usage error), the same as a
/// malformed flag.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `field` must be at least 1.
    Zero {
        /// The offending field.
        field: &'static str,
    },
    /// `field` must be a probability in `[0, 1]`.
    NotAProbability {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero { field } => write!(f, "{field} must be at least 1"),
            ConfigError::NotAProbability { field, value } => {
                write!(f, "{field} = {value} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(
            ProtocolError::InfeasibleCapacity { m: 5, capacity: 4 }.to_string(),
            "infeasible: m = 5 exceeds total capacity 4"
        );
        assert_eq!(
            ProtocolError::Unconverged {
                protocol: "bounded-load[1]".into(),
                rounds: 64
            }
            .to_string(),
            "bounded-load[1] failed to converge in 64 rounds"
        );
        assert_eq!(
            ProtocolError::KickBudgetExhausted { kicks: 9 }.to_string(),
            "cuckoo kick budget exhausted after 9 kicks"
        );
        assert_eq!(
            ConfigError::Zero {
                field: "probe_budget"
            }
            .to_string(),
            "probe_budget must be at least 1"
        );
        assert_eq!(
            ConfigError::NotAProbability {
                field: "fallback_alive_frac",
                value: 2.0
            }
            .to_string(),
            "fallback_alive_frac = 2 is outside [0, 1]"
        );
    }
}
