//! Epoch-swapped predictors.
//!
//! Queries never touch model-fitting state: they read an immutable
//! [`EpochSnapshot`] behind an `Arc`, and the refit daemon publishes a
//! whole new snapshot by swapping the `Arc` in one short critical
//! section. The `RwLock` around the `Arc` is held only for the pointer
//! clone (readers) or the pointer store (writer) — never across a fit or
//! even a prediction — so a query can stall behind a refit for at most
//! one pointer-swap, regardless of how long the refit itself runs (see
//! DESIGN.md §6 for the memory-ordering argument).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use ltm_core::{
    IncrementalLtm, IncrementalRealLtm, Priors, RealLtmConfig, RealSuffStats, SourceQuality,
};

use crate::model::{ModelKind, ServePredictor};
use crate::shadow::ShadowTables;

/// One immutable published predictor generation.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Monotonic epoch number (0 = the prior-only boot predictor).
    pub epoch: u64,
    /// The closed-form predictor for this epoch (Equation 3 for boolean
    /// and positive-only domains, the Student-t predictive for
    /// real-valued ones).
    pub predictor: ServePredictor,
    /// Largest per-fact Gelman–Rubin `R̂` of the refit that produced this
    /// epoch (1.0 for the boot predictor).
    pub max_rhat: f64,
    /// Fraction of facts with `R̂ ≤ 1.1` in that refit.
    pub converged_fraction: f64,
    /// Claims the refit folded in.
    pub trained_claims: usize,
    /// Sources covered by the learned quality.
    pub trained_sources: usize,
    /// Shadow baseline tables fit on the same extraction as this epoch
    /// (`None` for the boot predictor, for real-valued domains, and when
    /// [`crate::refit::RefitConfig::shadows`] is off). A snapshot restores
    /// them with the epoch.
    pub shadow: Option<Arc<ShadowTables>>,
}

impl EpochSnapshot {
    /// The epoch-0 boot predictor for a boolean (or positive-only)
    /// domain: prior-mean quality only.
    pub fn boot(priors: &Priors) -> Self {
        let empty = SourceQuality::estimate(
            &ltm_model::ClaimDb::from_parts(vec![], vec![], 0),
            &ltm_model::TruthAssignment::new(vec![]),
            priors,
        );
        Self::from_predictor(ServePredictor::Boolean(IncrementalLtm::new(&empty, priors)))
    }

    /// The epoch-0 boot predictor for a real-valued domain: the NIG
    /// prior-only Student-t predictive.
    pub fn boot_real(real: &RealLtmConfig) -> Self {
        Self::from_predictor(ServePredictor::Real(IncrementalRealLtm::new(
            real,
            RealSuffStats::zeros(0),
        )))
    }

    /// The epoch-0 boot predictor for `kind`.
    pub fn boot_for(kind: ModelKind, priors: &Priors, real: &RealLtmConfig) -> Self {
        match kind {
            ModelKind::Boolean | ModelKind::PositiveOnly => Self::boot(priors),
            ModelKind::RealValued => Self::boot_real(real),
        }
    }

    fn from_predictor(predictor: ServePredictor) -> Self {
        Self {
            epoch: 0,
            predictor,
            max_rhat: 1.0,
            converged_fraction: 1.0,
            trained_claims: 0,
            trained_sources: 0,
            shadow: None,
        }
    }
}

/// The atomically swapped predictor cell plus publish/reject counters.
#[derive(Debug)]
pub struct EpochPredictor {
    current: RwLock<Arc<EpochSnapshot>>,
    published: AtomicU64,
    rejected: AtomicU64,
    swapped_at: Mutex<Instant>,
}

impl EpochPredictor {
    /// Starts at the boolean epoch-0 boot predictor.
    pub fn new(priors: &Priors) -> Self {
        Self::with_boot(EpochSnapshot::boot(priors))
    }

    /// Starts at the given epoch-0 boot predictor (see
    /// [`EpochSnapshot::boot_for`] for the per-kind boots).
    pub fn with_boot(boot: EpochSnapshot) -> Self {
        Self {
            current: RwLock::new(Arc::new(boot)),
            published: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            swapped_at: Mutex::new(Instant::now()),
        }
    }

    /// The current snapshot. Cheap: one read-lock + `Arc` clone.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.read().expect("epoch lock"))
    }

    /// Publishes `snapshot` as the next epoch (its `epoch` field is
    /// overwritten with `current + 1`) and returns the new epoch number.
    pub fn publish(&self, mut snapshot: EpochSnapshot) -> u64 {
        let mut slot = self.current.write().expect("epoch lock");
        snapshot.epoch = slot.epoch + 1;
        let epoch = snapshot.epoch;
        *slot = Arc::new(snapshot);
        drop(slot);
        self.published.fetch_add(1, Ordering::Relaxed);
        *self.swapped_at.lock().expect("epoch swap clock") = Instant::now();
        epoch
    }

    /// Installs a snapshot restored from disk, keeping its epoch number.
    pub fn restore(&self, snapshot: EpochSnapshot) {
        *self.current.write().expect("epoch lock") = Arc::new(snapshot);
        *self.swapped_at.lock().expect("epoch swap clock") = Instant::now();
    }

    /// Seconds since the serving snapshot was last swapped (publish or
    /// restore); measures epoch staleness for `/metrics`.
    pub fn epoch_age_secs(&self) -> f64 {
        self.swapped_at
            .lock()
            .expect("epoch swap clock")
            .elapsed()
            .as_secs_f64()
    }

    /// Records a refit whose diagnostics failed the promotion gate.
    pub fn record_rejection(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Epochs published since boot (restores not counted).
    pub fn epochs_published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Refits rejected by the promotion gate since boot.
    pub fn epochs_rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltm_core::BetaPair;

    fn priors() -> Priors {
        Priors::default()
    }

    #[test]
    fn boot_predictor_is_epoch_zero_prior_mean() {
        let p = EpochPredictor::new(&priors());
        let snap = p.load();
        assert_eq!(snap.epoch, 0);
        // No claims → β prior mean.
        let b = priors().beta;
        assert!((snap.predictor.predict_fact(&[]) - b.mean()).abs() < 1e-12);
    }

    #[test]
    fn publish_bumps_epoch_and_counts() {
        let p = EpochPredictor::new(&priors());
        let mut snap = EpochSnapshot::boot(&priors());
        snap.max_rhat = 1.05;
        let e1 = p.publish(snap.clone());
        let e2 = p.publish(snap);
        assert_eq!((e1, e2), (1, 2));
        assert_eq!(p.load().epoch, 2);
        assert_eq!(p.epochs_published(), 2);
        p.record_rejection();
        assert_eq!(p.epochs_rejected(), 1);
    }

    #[test]
    fn restore_keeps_epoch_number() {
        let p = EpochPredictor::new(&priors());
        let mut snap = EpochSnapshot::boot(&priors());
        snap.epoch = 7;
        snap.predictor = ServePredictor::Boolean(IncrementalLtm::from_parts(
            vec![0.9],
            vec![0.1],
            BetaPair::new(1.0, 1.0),
            0.5,
            0.1,
        ));
        p.restore(snap);
        assert_eq!(p.load().epoch, 7);
        assert_eq!(p.epochs_published(), 0);
    }

    #[test]
    fn real_boot_predictor_is_prior_mean() {
        let real = RealLtmConfig::default();
        let p = EpochPredictor::with_boot(EpochSnapshot::boot_for(
            ModelKind::RealValued,
            &priors(),
            &real,
        ));
        let snap = p.load();
        assert_eq!(snap.epoch, 0);
        assert!(snap.predictor.as_real().is_some());
        // No claims → β prior mean, same contract as the boolean boot.
        assert!((snap.predictor.predict_real(&[]) - real.beta.mean()).abs() < 1e-12);
    }

    #[test]
    fn epoch_age_resets_on_publish() {
        let p = EpochPredictor::new(&priors());
        std::thread::sleep(std::time::Duration::from_millis(10));
        let before = p.epoch_age_secs();
        assert!(before >= 0.01);
        p.publish(EpochSnapshot::boot(&priors()));
        assert!(p.epoch_age_secs() < before);
    }

    #[test]
    fn load_is_stable_across_publish() {
        let p = EpochPredictor::new(&priors());
        let old = p.load();
        p.publish(EpochSnapshot::boot(&priors()));
        // The old Arc keeps serving its epoch; no tearing.
        assert_eq!(old.epoch, 0);
        assert_eq!(p.load().epoch, 1);
    }
}
