//! Observability: metrics registry, latency histograms, scoped gauges, and
//! logging.
//!
//! This module is the instrumentation substrate for the serving stack,
//! built std-only like everything else in the crate:
//!
//! - [`registry::Registry`] — per-server registry of named counters,
//!   gauges, and histograms, rendered by `GET /metrics` in Prometheus text
//!   exposition format. `/stats` reads the same handles, so the two
//!   surfaces can never disagree.
//! - [`histogram::Histogram`] — lock-free log-linear (HDR-style) latency
//!   histogram with ≤ 6.25% relative error and p50/p90/p99/p999 readouts.
//! - [`span::ScopedGauge`] — RAII in-flight tracking.
//! - [`log`] — leveled structured logger behind the crate-level
//!   `log_error!`/`log_warn!`/`log_info!`/`log_debug!` macros, replacing
//!   the scattered `eprintln!` calls the crate grew up with.

pub mod histogram;
pub mod log;
pub mod registry;
pub mod span;

pub use histogram::Histogram;
pub use log::{Format as LogFormat, Level as LogLevel};
pub use registry::{Counter, Gauge, Registry, Unit};
pub use span::ScopedGauge;

/// Crate version baked in at compile time.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// `git describe` output baked in at build time via the `GIT_DESCRIBE`
/// environment variable, or `"unknown"` when built outside a git checkout.
pub const BUILD_GIT: &str = match option_env!("GIT_DESCRIBE") {
    Some(v) => v,
    None => "unknown",
};
