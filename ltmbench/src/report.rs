//! What a run collects: metrics with units, operation counts, check
//! failures, and per-operation samples split by whether the round that
//! produced them was traced.

use std::collections::BTreeMap;

use crate::stats::median;

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Samples of one end-to-end quantity. In a traced run every other round
/// is traced; keeping the two halves apart yields the tracing overhead.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Samples from untraced rounds.
    pub untraced: Vec<f64>,
    /// Samples from traced rounds.
    pub traced: Vec<f64>,
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, traced: bool, value: f64) {
        if traced {
            self.traced.push(value);
        } else {
            self.untraced.push(value);
        }
    }

    /// Applies a summary (median, quantile, rate) to the untraced samples.
    pub fn summary(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        f(&self.untraced)
    }

    /// Traced-minus-untraced difference of the same summary.
    pub fn overhead(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        f(&self.traced) - f(&self.untraced)
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics.
    pub e2e: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Check failures (any makes the run incorrect).
    pub check_failures: Vec<String>,
    /// Host steal seconds accumulated during timed phases.
    pub steal_s: f64,
    /// Figures printed on the info line for reference only, without a
    /// bound: tail percentiles (host steal bursts move them by large
    /// factors between runs) and the streamed facts' accuracy.
    pub tails: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, Metric { value, unit });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.insert(name.to_owned(), Metric { value, unit });
    }

    /// Records a per-layer metric as the median of `samples`.
    pub fn layer_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if !samples.is_empty() {
            self.layer(name, median(samples), unit);
        }
    }

    /// Records an end-to-end metric from untraced samples, and its
    /// tracing overhead as a per-layer `overhead.<name>` metric when the
    /// run was traced.
    pub fn e2e_samples(
        &mut self,
        name: &'static str,
        samples: &Samples,
        unit: &'static str,
        f: impl Fn(&[f64]) -> f64,
    ) {
        self.e2e(name, samples.summary(&f), unit);
        if !samples.traced.is_empty() {
            self.layer(&format!("overhead.{name}"), samples.overhead(&f), unit);
        }
    }

    /// Counts one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a check: `ok` or the failure message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("ltmbench: CHECK FAILED: {msg}");
            self.check_failures.push(msg);
        }
    }
}
