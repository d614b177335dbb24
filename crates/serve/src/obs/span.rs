//! Scoped gauges: a [`ScopedGauge`] increments a gauge for its lifetime,
//! giving an in-flight count that stays right on early return or
//! panic-unwind.

use std::sync::Arc;

use super::registry::Gauge;

/// Holds a gauge incremented for the lifetime of the value.
#[derive(Debug)]
pub struct ScopedGauge {
    gauge: Arc<Gauge>,
}

impl ScopedGauge {
    /// Increment `gauge`; it is decremented when the value is dropped.
    pub fn enter(gauge: &Arc<Gauge>) -> ScopedGauge {
        gauge.inc();
        ScopedGauge {
            gauge: Arc::clone(gauge),
        }
    }
}

impl Drop for ScopedGauge {
    fn drop(&mut self) {
        self.gauge.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_gauge_tracks_lifetime() {
        let g = Arc::new(Gauge::default());
        {
            let _a = ScopedGauge::enter(&g);
            let _b = ScopedGauge::enter(&g);
            assert_eq!(g.get(), 2);
        }
        assert_eq!(g.get(), 0);
    }
}
