//! Named domains: one independently-served model universe per name.
//!
//! A [`Domain`] bundles everything one model needs to serve and learn —
//! its own sharded [`ShardedStore`], epoch-swapped
//! [`EpochPredictor`], refit accumulator ([`RefitState`]), and a
//! dedicated background [`RefitDaemon`] — bound to one
//! [`ModelKind`]. Domains share nothing but the process: a slow
//! real-valued fold in one domain can never delay another domain's
//! promotion, because every daemon is its own thread folding its own
//! store under its own refit lock.
//!
//! [`DomainSet`] is the server's registry: insertion-ordered (stable
//! `/stats` sections and snapshot layout), name-addressed (the `/d/{domain}/…`
//! routes), always containing the [`DEFAULT_DOMAIN`] that the legacy
//! un-prefixed routes address.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::epoch::{EpochPredictor, EpochSnapshot};
use crate::model::ModelKind;
use crate::refit::{RefitConfig, RefitDaemon, RefitState};
use crate::store::{BatchOutcome, JournalFn, LogRecord, ShardedStore};
use crate::sync::{LockExt, RwLockExt};
use crate::wal::DomainWal;

/// The domain addressed by the legacy un-prefixed routes (`/claims`,
/// `/query`, …) and created implicitly at every boot.
pub const DEFAULT_DOMAIN: &str = "default";

/// Maximum accepted domain-name length.
pub const MAX_DOMAIN_NAME: usize = 64;

/// Validates a domain name: 1–64 chars of `[A-Za-z0-9_-]` (URL-safe and
/// unambiguous in `/d/{domain}/…` paths).
pub fn validate_domain_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > MAX_DOMAIN_NAME {
        return Err(format!(
            "domain name must be 1..={MAX_DOMAIN_NAME} characters, got {}",
            name.len()
        ));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !c.is_ascii_alphanumeric() && *c != '_' && *c != '-')
    {
        return Err(format!(
            "domain name may only contain [A-Za-z0-9_-], got {c:?}"
        ));
    }
    Ok(())
}

/// One named model universe. See the module docs.
#[derive(Debug)]
pub struct Domain {
    name: String,
    kind: ModelKind,
    store: Arc<ShardedStore>,
    predictor: Arc<EpochPredictor>,
    refit_state: Arc<Mutex<RefitState>>,
    refit_lock: Arc<Mutex<()>>,
    /// Spawned after snapshot restore (so the first refit sees the
    /// restored accumulator), and immediately for runtime-created
    /// domains.
    daemon: OnceLock<RefitDaemon>,
    /// Attached after WAL replay when the server runs with `--wal-dir`;
    /// absent on WAL-less servers (the pre-durability behaviour).
    wal: OnceLock<Arc<DomainWal>>,
    /// Ingest metric handles attached by the server (absent in bare
    /// tests, where ingest records nothing).
    obs: OnceLock<DomainObs>,
    /// Ground-truth labels keyed by `(entity, attr)` names, loaded via
    /// `--labels` or `POST …/admin/labels` and joined against the shadow
    /// tables by `GET …/eval`. Held only for short copies — never across
    /// any store or epoch lock.
    labels: Mutex<HashMap<(String, String), bool>>,
}

/// Per-domain ingest metric handles, labeled `domain=`.
#[derive(Debug, Clone)]
pub struct DomainObs {
    /// Distribution of rows per ingest batch (`ltm_ingest_batch_rows`).
    pub batch_rows: Arc<crate::obs::Histogram>,
    /// Lifetime accepted rows (`ltm_ingest_rows_accepted_total`).
    pub rows_accepted: Arc<crate::obs::Counter>,
    /// Lifetime exact-duplicate rows
    /// (`ltm_ingest_rows_duplicate_total`); with `rows_accepted` this
    /// gives the dedup rate.
    pub rows_duplicate: Arc<crate::obs::Counter>,
}

impl DomainObs {
    /// Registers (or re-fetches) the ingest metric family for `domain`.
    pub fn for_domain(registry: &crate::obs::Registry, domain: &str) -> Self {
        let labels = &[("domain", domain)];
        DomainObs {
            batch_rows: registry.histogram(
                "ltm_ingest_batch_rows",
                labels,
                crate::obs::Unit::Count,
            ),
            rows_accepted: registry.counter("ltm_ingest_rows_accepted_total", labels),
            rows_duplicate: registry.counter("ltm_ingest_rows_duplicate_total", labels),
        }
    }
}

impl Domain {
    /// Creates a domain **without** spawning its refit daemon — the boot
    /// path, where snapshot restore must land before the first refit.
    /// Call [`Domain::spawn_daemon`] once restore has finished.
    pub fn new(name: &str, kind: ModelKind, shards: usize, refit: &RefitConfig) -> Arc<Domain> {
        Arc::new(Domain {
            name: name.to_owned(),
            kind,
            store: Arc::new(ShardedStore::new(shards)),
            predictor: Arc::new(EpochPredictor::with_boot(EpochSnapshot::boot_for(
                kind,
                &refit.ltm.priors,
                &refit.real,
            ))),
            refit_state: Arc::new(Mutex::new(RefitState::new())),
            refit_lock: Arc::new(Mutex::new(())),
            daemon: OnceLock::new(),
            wal: OnceLock::new(),
            obs: OnceLock::new(),
            labels: Mutex::new(HashMap::new()),
        })
    }

    /// Merges ground-truth labels into the domain's label set (later
    /// labels for the same `(entity, attr)` win) and returns the total
    /// number of labels now loaded.
    pub fn add_labels(&self, rows: impl IntoIterator<Item = (String, String, bool)>) -> usize {
        let mut labels = self.labels.locked();
        for (entity, attr, truth) in rows {
            labels.insert((entity, attr), truth);
        }
        labels.len()
    }

    /// A snapshot of the loaded ground-truth labels.
    pub fn labels(&self) -> Vec<(String, String, bool)> {
        self.labels
            .locked()
            .iter()
            .map(|((e, a), &t)| (e.clone(), a.clone(), t))
            .collect()
    }

    /// Number of ground-truth labels currently loaded.
    pub fn num_labels(&self) -> usize {
        self.labels.locked().len()
    }

    /// Attaches ingest metric handles (idempotent — first attachment
    /// wins).
    pub fn attach_obs(&self, obs: DomainObs) {
        let _ = self.obs.set(obs);
    }

    /// Attaches the domain's write-ahead log (idempotent; the boot path
    /// calls it once, after [`crate::wal::DomainWal::open`] has replayed
    /// the tail into this domain's store).
    pub fn attach_wal(&self, wal: Arc<DomainWal>) {
        let _ = self.wal.set(wal);
    }

    /// The domain's write-ahead log, when one is attached.
    pub fn wal(&self) -> Option<&Arc<DomainWal>> {
        self.wal.get()
    }

    /// Ingests a batch of rows atomically with respect to durability:
    /// the accepted rows are journaled to the WAL as **one record while
    /// the store's ingest-order lock is held**, then (lock released)
    /// fsync'd per the sync policy. Only after both succeed may the
    /// caller ack. Without an attached WAL this is just the batched
    /// in-memory ingest.
    ///
    /// On a WAL error the rows are already live in memory (reads see
    /// them; pending counts them); the caller must *not* ack. The WAL
    /// keeps the failed frame queued and re-journals it ahead of any
    /// later append ([`crate::wal::DomainWal::append_batch`]), so the
    /// on-disk log never gaps. A retry of the failed batch deduplicates
    /// against the rows already in memory (`accepted == 0`, no journal
    /// callback runs) — so before acking a duplicate-only batch this
    /// flushes the backlog explicitly: a 200 must never cover rows the
    /// WAL does not hold.
    pub fn ingest_batch(&self, rows: &[LogRecord]) -> io::Result<BatchOutcome> {
        let journal_fn;
        let journal: Option<JournalFn<'_>> = match self.wal.get() {
            Some(wal) => {
                let wal = Arc::clone(wal);
                journal_fn =
                    move |seq: u64, accepted: &[LogRecord]| wal.append_batch(seq, accepted);
                Some(&journal_fn)
            }
            None => None,
        };
        let outcome = self.store.ingest_batch(rows.to_vec(), journal)?;
        if let Some(obs) = self.obs.get() {
            obs.batch_rows.record(rows.len() as u64);
            obs.rows_accepted.add(outcome.accepted);
            obs.rows_duplicate.add(outcome.duplicates);
        }
        if let Some(wal) = self.wal.get() {
            if outcome.accepted == 0 {
                wal.flush_backlog()?;
            }
            wal.sync_for_ack()?;
        }
        Ok(outcome)
    }

    /// Spawns the domain's background refit daemon (idempotent: a second
    /// call is a no-op).
    pub fn spawn_daemon(&self, config: RefitConfig) {
        self.daemon.get_or_init(|| {
            RefitDaemon::spawn(
                Arc::clone(&self.store),
                Arc::clone(&self.predictor),
                self.kind,
                config,
                Arc::clone(&self.refit_state),
                Arc::clone(&self.refit_lock),
            )
        });
    }

    /// The domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model kind the domain runs.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The domain's claim store.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// The domain's epoch-swapped predictor.
    pub fn predictor(&self) -> &Arc<EpochPredictor> {
        &self.predictor
    }

    /// The domain's refit accumulator state.
    pub fn refit_state(&self) -> &Arc<Mutex<RefitState>> {
        &self.refit_state
    }

    /// The lock the domain's refit daemon holds for the duration of
    /// every refit (tests acquire it to hold the daemon hostage).
    pub fn refit_lock(&self) -> &Arc<Mutex<()>> {
        &self.refit_lock
    }

    /// The background daemon, if already spawned.
    pub fn daemon(&self) -> Option<&RefitDaemon> {
        self.daemon.get()
    }

    /// Forces a refit pass (the daemon's schedule picks the mode).
    pub fn trigger_refit(&self) {
        if let Some(d) = self.daemon.get() {
            d.trigger();
        }
    }

    /// Forces a full (reconciliation) refit pass.
    pub fn trigger_full_refit(&self) {
        if let Some(d) = self.daemon.get() {
            d.trigger_full();
        }
    }

    /// Stops the domain's daemon and joins its thread (idempotent; a
    /// never-spawned daemon is a no-op).
    pub fn shutdown(&self) {
        if let Some(d) = self.daemon.get() {
            d.shutdown();
        }
    }
}

/// Error inserting a domain into a [`DomainSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// A domain with that name already exists.
    AlreadyExists(String),
    /// The name failed [`validate_domain_name`].
    InvalidName(String),
    /// The domain's write-ahead log could not be opened (WAL-enabled
    /// servers refuse to create a domain that cannot journal).
    Wal(String),
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::AlreadyExists(name) => write!(f, "domain `{name}` already exists"),
            DomainError::InvalidName(msg) => f.write_str(msg),
            DomainError::Wal(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DomainError {}

/// The server's domain registry: insertion-ordered, name-addressed.
#[derive(Debug, Default)]
pub struct DomainSet {
    domains: RwLock<Vec<Arc<Domain>>>,
}

impl DomainSet {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves a domain by name.
    pub fn get(&self, name: &str) -> Option<Arc<Domain>> {
        self.domains
            .read_locked()
            .iter()
            .find(|d| d.name() == name)
            .cloned()
    }

    /// The [`DEFAULT_DOMAIN`].
    ///
    /// # Panics
    ///
    /// Panics if the default domain was never inserted (the server boot
    /// path always inserts it first).
    pub fn default_domain(&self) -> Arc<Domain> {
        // analyzer: allow(panic-expect) -- documented panic; every boot path inserts the default domain first
        self.get(DEFAULT_DOMAIN).expect("default domain exists")
    }

    /// Every domain, in insertion order.
    pub fn list(&self) -> Vec<Arc<Domain>> {
        self.domains.read_locked().clone()
    }

    /// Inserts a new domain, rejecting duplicates and invalid names.
    pub fn insert(&self, domain: Arc<Domain>) -> Result<(), DomainError> {
        validate_domain_name(domain.name()).map_err(DomainError::InvalidName)?;
        let mut domains = self.domains.write_locked();
        if domains.iter().any(|d| d.name() == domain.name()) {
            return Err(DomainError::AlreadyExists(domain.name().to_owned()));
        }
        domains.push(domain);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_with_default() -> DomainSet {
        let set = DomainSet::new();
        set.insert(Domain::new(
            DEFAULT_DOMAIN,
            ModelKind::Boolean,
            2,
            &RefitConfig::default(),
        ))
        .unwrap();
        set
    }

    #[test]
    fn insert_get_and_ordering() {
        let set = set_with_default();
        set.insert(Domain::new(
            "scores",
            ModelKind::RealValued,
            2,
            &RefitConfig::default(),
        ))
        .unwrap();
        assert_eq!(set.default_domain().kind(), ModelKind::Boolean);
        assert_eq!(set.get("scores").unwrap().kind(), ModelKind::RealValued);
        assert!(set.get("nope").is_none());
        let names: Vec<String> = set.list().iter().map(|d| d.name().to_owned()).collect();
        assert_eq!(names, vec!["default", "scores"]);
    }

    #[test]
    fn duplicate_and_invalid_names_rejected() {
        let set = set_with_default();
        let dup = Domain::new(
            DEFAULT_DOMAIN,
            ModelKind::Boolean,
            2,
            &RefitConfig::default(),
        );
        assert_eq!(
            set.insert(dup),
            Err(DomainError::AlreadyExists("default".into()))
        );
        for bad in ["", "has space", "a/b", &"x".repeat(65)] {
            assert!(validate_domain_name(bad).is_err(), "{bad:?}");
        }
        for good in ["a", "movie-directors", "scores_2", &"x".repeat(64)] {
            assert!(validate_domain_name(good).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn real_domain_boots_a_real_predictor() {
        let d = Domain::new("r", ModelKind::RealValued, 1, &RefitConfig::default());
        assert!(d.predictor().load().predictor.as_real().is_some());
        let b = Domain::new("b", ModelKind::PositiveOnly, 1, &RefitConfig::default());
        assert!(b.predictor().load().predictor.as_boolean().is_some());
        // Triggers before the daemon spawns are harmless no-ops.
        d.trigger_refit();
        d.shutdown();
    }
}
