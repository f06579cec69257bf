//! The benchmark's only wall clock.
//!
//! Every timestamp in the benchmark is nanoseconds since the first call
//! into this module, so spans recorded on worker threads share one time
//! base with spans recorded on the main thread.

use std::sync::OnceLock;

// lint:allow(D1): the benchmark measures wall time by definition; no clock reading reaches the library
static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();

/// Nanoseconds since the benchmark's time origin.
pub fn now_ns() -> u64 {
    // lint:allow(D1): see ORIGIN
    let origin = ORIGIN.get_or_init(std::time::Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 * 1e-9
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now_ns();
    let out = f();
    (out, secs(t0, now_ns()))
}
