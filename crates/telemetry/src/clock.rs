//! The injected time source.
//!
//! Telemetry never reads the wall clock itself (the workspace `no-wallclock`
//! lint forbids it outside `crowdnet-socialsim::clock`). Instead a [`Clock`] is bound into each [`Telemetry`] handle:
//! the crawler binds its `SimClock`, the `repro` binary binds the system
//! clock. The trait is deliberately minimal — `now_ms` only — and is
//! implemented for any `Fn() -> u64` closure, so adapting an external clock
//! type costs one line: `Arc::new(move || sim.now_ms())`.
//!
//! [`Telemetry`]: crate::Telemetry

/// A read-only source of milliseconds timestamps.
pub trait Clock: Send + Sync {
    /// Current time in milliseconds (epoch is whatever the source uses).
    fn now_ms(&self) -> u64;
}

/// A clock frozen at a constant — the default for an unbound [`Telemetry`]
/// (everything stamps `t = 0`), and a handy fixture in tests.
///
/// [`Telemetry`]: crate::Telemetry
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedClock(pub u64);

impl Clock for FixedClock {
    fn now_ms(&self) -> u64 {
        self.0
    }
}

impl<F> Clock for F
where
    F: Fn() -> u64 + Send + Sync,
{
    fn now_ms(&self) -> u64 {
        self()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_clock_is_constant() {
        let c = FixedClock(77);
        assert_eq!(c.now_ms(), 77);
        assert_eq!(c.now_ms(), 77);
    }

    #[test]
    fn closures_are_clocks() {
        let c = || 5u64;
        assert_eq!(Clock::now_ms(&c), 5);
    }
}
