//! The background refit daemon.
//!
//! A worker thread wakes when enough triples have accumulated (or a
//! forced trigger arrives) and folds the store into a **long-lived**
//! [`StreamingLtm`] accumulator shared across epochs (held in
//! [`RefitState`]). Two modes exist, exactly the paper's §5.4 split:
//!
//! * **Incremental** (the default): [`ShardedStore::shard_databases_since`]
//!   extracts only the facts dirtied since the fold watermark — including
//!   facts whose Definition-3 negative rows changed retroactively — and
//!   the fold costs `O(Δ)` Gibbs work, with shard locks held only to copy
//!   the dirty facts. Re-touched facts contribute their current rows
//!   *again* on top of their earlier contribution, so the accumulator
//!   drifts slowly toward over-weighting hot facts.
//! * **Full** (reconciliation): the accumulator is rebuilt from zero over
//!   every shard's complete CSR, discarding the drift. The daemon runs a
//!   full pass every [`RefitConfig::full_refit_every`] attempts, and
//!   `POST /admin/refit?mode=full` forces one.
//!
//! Each batch's fit is seeded with the quality priors accumulated so far
//! (shards/deltas as batches). The resulting cumulative quality becomes a
//! candidate [`EpochSnapshot`].
//!
//! **R̂-gated promotion**: the candidate is published only if its worst
//! per-fact Gelman–Rubin `R̂` (non-finite values read as `+∞`, never
//! silently dropped) is below the configured gate *or* no worse than the
//! currently served epoch's (an improvement is never rejected). The
//! prior-only epoch 0 was fit on nothing, so any first fit with a finite
//! `R̂` replaces it. A
//! rejected refit is counted and logged, but its fold *is* committed to
//! the accumulator and the store's pending counter is consumed — the data
//! was folded; only the promotion was vetoed — so a deterministic
//! non-converging fit cannot re-trigger in a hot loop. A **failed** fold
//! commits nothing and backs off exponentially instead of retrying every
//! interval.
//!
//! **Shadow tables** ([`crate::shadow`]) ride with a promoted boolean or
//! positive-only candidate: a full refit fits them on its own extraction,
//! an incremental one carries the served epoch's tables forward, so the
//! baselines refresh on the full-refit cadence and never cost an
//! incremental refit its `O(Δ)`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ltm_core::positive_only::positive_only_view;
use ltm_core::{
    worst_rhat, IncrementalLtm, LtmConfig, RealLtmConfig, SampleSchedule, StreamError,
    StreamingLtm, StreamingRealLtm,
};
use ltm_model::ClaimDb;

use crate::epoch::{EpochPredictor, EpochSnapshot};
use crate::model::{ModelKind, ServePredictor};
use crate::shadow::{fit_shadow_tables, ShadowTables};
use crate::store::ShardedStore;
use crate::sync::LockExt;

/// Refit daemon configuration (shared by every domain of a server; the
/// per-domain [`ModelKind`] selects which model configuration applies).
#[derive(Debug, Clone)]
pub struct RefitConfig {
    /// Base boolean model configuration (priors, schedule, seed, kernel)
    /// — used by boolean and positive-only domains.
    pub ltm: LtmConfig,
    /// Real-valued model configuration (NIG priors, `β`, schedule) —
    /// used by real-valued domains. Its `seed` field is overridden by the
    /// same per-attempt bump as `ltm.seed`.
    pub real: RealLtmConfig,
    /// Parallel Gibbs chains per shard fit (≥ 2 for meaningful `R̂`).
    pub chains: usize,
    /// Promotion gate: reject a refit whose worst `R̂` exceeds this and
    /// regresses the served epoch (epoch 0 yields to any finite `R̂`).
    pub rhat_gate: f64,
    /// Accepted triples that arm an automatic refit.
    pub min_pending: usize,
    /// How often the daemon checks the trigger condition.
    pub interval: Duration,
    /// Every Nth daemon refit runs in full (reconciliation) mode,
    /// rebuilding the accumulator from zero to shed incremental drift.
    /// `0` disables automatic full refits (manual `mode=full` triggers
    /// still work).
    pub full_refit_every: u64,
    /// Publish shadow baseline tables with boolean and positive-only
    /// epochs (see [`crate::shadow`]): a promoted full refit fits them
    /// afresh on its own extraction, as does any promotion while the
    /// served epoch has none; a promoted incremental refit carries the
    /// served epoch's tables forward unchanged. Disabling skips the
    /// baseline fits entirely and publishes no tables; `?methods=`
    /// queries beyond `ltm` then answer 409.
    pub shadows: bool,
}

impl Default for RefitConfig {
    fn default() -> Self {
        Self {
            ltm: LtmConfig {
                schedule: SampleSchedule::new(100, 20, 1),
                ..LtmConfig::default()
            },
            real: RealLtmConfig {
                iterations: 100,
                burn_in: 20,
                ..RealLtmConfig::default()
            },
            chains: 2,
            rhat_gate: 1.2,
            min_pending: 1,
            interval: Duration::from_millis(200),
            full_refit_every: 8,
            shadows: true,
        }
    }
}

/// Which extraction a refit pass folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitMode {
    /// Fold only the facts dirtied since the fold watermark into the
    /// long-lived accumulator.
    Incremental,
    /// Rebuild the accumulator from zero over the whole store.
    Full,
}

impl std::fmt::Display for RefitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefitMode::Incremental => write!(f, "incremental"),
            RefitMode::Full => write!(f, "full"),
        }
    }
}

/// Counter snapshot for `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefitCounters {
    /// Incremental refits that completed a fold (published or rejected).
    pub refits_incremental: u64,
    /// Full refits that completed a fold.
    pub refits_full: u64,
    /// Refit attempts whose fold failed (nothing committed).
    pub refits_failed: u64,
    /// Wall seconds of the most recent completed incremental fold.
    pub last_incremental_secs: f64,
    /// Wall seconds of the most recent completed full fold.
    pub last_full_secs: f64,
    /// Accepted rows covered by the accumulator.
    pub watermark: u64,
}

/// The accumulator state shared between a domain's refit daemon, its
/// `/stats` section, and snapshot capture/restore: one long-lived
/// streaming trainer whose accumulator spans every fold since the last
/// full refit, plus the fold watermark and mode counters. The trainer is
/// a [`StreamingLtm`] for boolean/positive-only domains and a
/// [`StreamingRealLtm`] for real-valued ones (at most one of the two is
/// ever populated — the owning domain's kind decides which). Always used
/// behind a `Mutex`; refit passes additionally serialise on the refit
/// lock, so the mutex is only ever held for short copies, never across a
/// fit.
#[derive(Debug, Default)]
pub struct RefitState {
    streaming: Option<StreamingLtm>,
    streaming_real: Option<StreamingRealLtm>,
    counters: RefitCounters,
    /// Phase-span metric handles attached by the server (absent in bare
    /// tests, where refits record nothing).
    obs: Option<RefitObs>,
    /// Per-method shadow-fit latency handles attached by the server
    /// (absent in bare tests).
    shadow_obs: Option<crate::shadow::ShadowObs>,
}

/// Refit phase-span metric handles: one histogram per phase of a refit
/// pass, labeled `phase=` and `domain=` and rendered as
/// `ltm_refit_phase_duration_seconds`.
#[derive(Debug, Clone)]
pub struct RefitObs {
    /// Delta extraction (`phase="extract"`): assembling the batches
    /// dirtied since the fold watermark.
    pub extract_seconds: Arc<crate::obs::Histogram>,
    /// The Gibbs fold (`phase="fold"`): multi-chain
    /// `try_observe_chains` over the delta, including per-batch R̂
    /// computation.
    pub fold_seconds: Arc<crate::obs::Histogram>,
    /// The promotion-gate decision (`phase="rhat"`): loading the served
    /// epoch and comparing diagnostics against the gate.
    pub rhat_seconds: Arc<crate::obs::Histogram>,
    /// Publish/reject plus accumulator commit (`phase="promote"`).
    pub promote_seconds: Arc<crate::obs::Histogram>,
}

impl RefitObs {
    /// Registers (or re-fetches) the refit phase metric family for
    /// `domain`.
    pub fn for_domain(registry: &crate::obs::Registry, domain: &str) -> Self {
        let phase = |name: &str| {
            registry.histogram(
                "ltm_refit_phase_duration_seconds",
                &[("phase", name), ("domain", domain)],
                crate::obs::Unit::Micros,
            )
        };
        RefitObs {
            extract_seconds: phase("extract"),
            fold_seconds: phase("fold"),
            rhat_seconds: phase("rhat"),
            promote_seconds: phase("promote"),
        }
    }
}

impl RefitState {
    /// Empty state: no accumulator, watermark zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The long-lived cumulative boolean trainer, if any fold has
    /// committed in a boolean or positive-only domain.
    pub fn streaming(&self) -> Option<&StreamingLtm> {
        self.streaming.as_ref()
    }

    /// The long-lived cumulative real-valued trainer, if any fold has
    /// committed in a real-valued domain.
    pub fn streaming_real(&self) -> Option<&StreamingRealLtm> {
        self.streaming_real.as_ref()
    }

    /// Accepted rows covered by the accumulator.
    pub fn watermark(&self) -> u64 {
        self.counters.watermark
    }

    /// Installs a restored boolean accumulator (the snapshot boot path),
    /// so the first post-restart refit folds only the unfolded tail
    /// instead of cold-refitting the whole store.
    pub fn restore(&mut self, streaming: StreamingLtm, watermark: u64) {
        self.streaming = Some(streaming);
        self.counters.watermark = watermark;
    }

    /// Installs a restored real-valued accumulator (see
    /// [`RefitState::restore`]).
    pub fn restore_real(&mut self, streaming: StreamingRealLtm, watermark: u64) {
        self.streaming_real = Some(streaming);
        self.counters.watermark = watermark;
    }

    /// Counter snapshot for `/stats`.
    pub fn counters(&self) -> RefitCounters {
        self.counters
    }

    /// Attaches phase-span metric handles (the server's boot path; a
    /// state without them records nothing).
    pub fn set_obs(&mut self, obs: RefitObs) {
        self.obs = Some(obs);
    }

    /// Attaches shadow-fit metric handles (the server's boot path; a
    /// state without them records nothing).
    pub fn set_shadow_obs(&mut self, obs: crate::shadow::ShadowObs) {
        self.shadow_obs = Some(obs);
    }
}

/// What one refit attempt did.
#[derive(Debug, Clone, PartialEq)]
pub enum RefitOutcome {
    /// A new epoch was published.
    Published {
        /// The new epoch number.
        epoch: u64,
        /// Worst per-fact `R̂` of the refit.
        max_rhat: f64,
        /// Which extraction was folded.
        mode: RefitMode,
        /// Claims contained in the folded batches.
        delta_claims: usize,
    },
    /// Diagnostics regressed past the gate; the served epoch is unchanged
    /// (the fold itself is still committed to the accumulator).
    Rejected {
        /// Worst per-fact `R̂` of the rejected refit.
        max_rhat: f64,
        /// The gate it failed.
        gate: f64,
        /// Which extraction was folded.
        mode: RefitMode,
    },
    /// Nothing to fold: the store held no claims, or no fact was dirtied
    /// since the watermark.
    Empty,
    /// A batch could not be folded (id-space drift); nothing was
    /// committed and pending was left armed — callers must back off.
    Failed(StreamError),
}

/// One completed (kind-specific) fold, ready for the promotion decision
/// and the accumulator commit.
struct Folded {
    /// The accumulator to commit on success.
    acc: FoldedAcc,
    /// The candidate epoch (epoch number overwritten by publish).
    candidate: EpochSnapshot,
    /// Watermark the fold covered.
    watermark: u64,
    /// Claims in the folded batches.
    delta_claims: usize,
    /// A full boolean fold's extraction with the global fact ids of its
    /// batch rows, kept for the shadow fit (`None` for incremental and
    /// real-valued folds).
    extraction: Option<Extraction>,
}

/// Full-extraction batches with, per batch, the global fact id of every
/// row (see [`ShardedStore::full_databases_with_ids`]).
type Extraction = (Vec<ClaimDb>, Vec<Vec<u64>>);

enum FoldedAcc {
    Boolean(StreamingLtm),
    Real(StreamingRealLtm),
}

/// Outcome of the kind-specific extraction + fold step.
enum FoldStep {
    /// Nothing dirty since the watermark (which is still advanced).
    Empty {
        watermark: u64,
    },
    Done(Box<Folded>),
    Failed(StreamError),
}

/// Extraction + fold for boolean and positive-only domains. Positive-only
/// differs in exactly one step: each batch is filtered through
/// [`positive_only_view`] before it is fitted and folded (paper §6.2 —
/// the model never trains on negative claims).
fn fold_boolean(
    store: &ShardedStore,
    kind: ModelKind,
    config: &RefitConfig,
    state: &Mutex<RefitState>,
    seed: u64,
    mode: RefitMode,
) -> FoldStep {
    let ltm = LtmConfig { seed, ..config.ltm };
    let obs = state.locked().obs.clone();
    let extract_started = Instant::now();
    let (mut streaming, delta, globals) = match mode {
        RefitMode::Full => {
            let (delta, globals) = store.full_databases_with_ids();
            (StreamingLtm::new(ltm), delta, Some(globals))
        }
        RefitMode::Incremental => {
            let st = state.locked();
            let mut streaming = st
                .streaming
                .clone()
                .unwrap_or_else(|| StreamingLtm::new(ltm));
            // The clone keeps the config it was created with; re-seed it
            // so the bump reaches steady-state incremental attempts too.
            streaming.set_seed(ltm.seed);
            let watermark = st.counters.watermark;
            drop(st);
            (streaming, store.shard_databases_since(watermark), None)
        }
    };
    if let Some(o) = &obs {
        o.extract_seconds.record_duration(extract_started.elapsed());
    }
    if delta.batches.is_empty() {
        return FoldStep::Empty {
            watermark: delta.watermark,
        };
    }

    let fold_started = Instant::now();
    let mut max_rhat: f64 = 1.0;
    let mut converged_weighted = 0.0;
    let mut facts_total = 0usize;
    for db in &delta.batches {
        let view;
        let batch = if kind == ModelKind::PositiveOnly {
            view = positive_only_view(db);
            &view
        } else {
            db
        };
        match streaming.try_observe_chains(batch, config.chains) {
            Ok(multi) => {
                max_rhat = worst_rhat(&[max_rhat, multi.diagnostics.max_rhat]);
                converged_weighted +=
                    multi.diagnostics.converged_fraction * batch.num_facts() as f64;
                facts_total += batch.num_facts();
            }
            Err(e) => return FoldStep::Failed(e),
        }
    }
    if let Some(o) = &obs {
        o.fold_seconds.record_duration(fold_started.elapsed());
    }

    let quality = streaming.quality();
    let candidate = EpochSnapshot {
        epoch: 0, // overwritten by publish()
        predictor: ServePredictor::Boolean(IncrementalLtm::new(&quality, &streaming.base_priors())),
        max_rhat,
        converged_fraction: if facts_total == 0 {
            1.0
        } else {
            converged_weighted / facts_total as f64
        },
        trained_claims: delta.total_claims,
        trained_sources: quality.num_sources(),
        shadow: None, // attached by refit_once iff the candidate promotes
    };
    FoldStep::Done(Box::new(Folded {
        acc: FoldedAcc::Boolean(streaming),
        candidate,
        watermark: delta.watermark,
        delta_claims: delta.delta_claims,
        extraction: globals.map(|globals| (delta.batches, globals)),
    }))
}

/// Extraction + fold for real-valued domains, over [`RealClaimDb`]
/// batches and the [`StreamingRealLtm`] accumulator.
fn fold_real(
    store: &ShardedStore,
    config: &RefitConfig,
    state: &Mutex<RefitState>,
    seed: u64,
    mode: RefitMode,
) -> FoldStep {
    let real = RealLtmConfig {
        seed,
        ..config.real
    };
    let obs = state.locked().obs.clone();
    let extract_started = Instant::now();
    let (mut streaming, delta) = match mode {
        RefitMode::Full => (StreamingRealLtm::new(real), store.full_real_databases()),
        RefitMode::Incremental => {
            let st = state.locked();
            let mut streaming = st
                .streaming_real
                .clone()
                .unwrap_or_else(|| StreamingRealLtm::new(real));
            streaming.set_seed(real.seed);
            let watermark = st.counters.watermark;
            drop(st);
            (streaming, store.real_databases_since(watermark))
        }
    };
    if let Some(o) = &obs {
        o.extract_seconds.record_duration(extract_started.elapsed());
    }
    if delta.batches.is_empty() {
        return FoldStep::Empty {
            watermark: delta.watermark,
        };
    }

    let fold_started = Instant::now();
    let mut max_rhat: f64 = 1.0;
    let mut converged_weighted = 0.0;
    let mut facts_total = 0usize;
    for db in &delta.batches {
        match streaming.try_observe_chains(db, config.chains) {
            Ok(multi) => {
                max_rhat = worst_rhat(&[max_rhat, multi.max_rhat]);
                converged_weighted += multi.converged_fraction * db.num_facts() as f64;
                facts_total += db.num_facts();
            }
            Err(e) => return FoldStep::Failed(e),
        }
    }
    if let Some(o) = &obs {
        o.fold_seconds.record_duration(fold_started.elapsed());
    }

    let candidate = EpochSnapshot {
        epoch: 0, // overwritten by publish()
        predictor: ServePredictor::Real(streaming.predictor()),
        max_rhat,
        converged_fraction: if facts_total == 0 {
            1.0
        } else {
            converged_weighted / facts_total as f64
        },
        trained_claims: delta.total_claims,
        trained_sources: streaming.accumulated().num_sources(),
        shadow: None, // real-valued domains have no boolean shadow fits
    };
    FoldStep::Done(Box::new(Folded {
        acc: FoldedAcc::Real(streaming),
        candidate,
        watermark: delta.watermark,
        delta_claims: delta.delta_claims,
        extraction: None,
    }))
}

/// The shadow tables a promoted boolean or positive-only candidate
/// publishes with. A full refit fits them afresh on its own `extraction`,
/// and so does a promotion while the `served` epoch has none (the first
/// one, or a restore without tables), from a new full extraction; any
/// other promotion carries the served epoch's tables forward unchanged,
/// keeping an incremental refit `O(Δ)`. `None` with shadows off and in
/// real-valued domains.
fn shadow_tables(
    store: &ShardedStore,
    config: &RefitConfig,
    state: &Mutex<RefitState>,
    candidate: &EpochSnapshot,
    served: &EpochSnapshot,
    extraction: Option<Extraction>,
) -> Option<Arc<ShadowTables>> {
    if !config.shadows {
        return None;
    }
    let ltm = candidate.predictor.as_boolean()?;
    let (batches, globals) = match (extraction, &served.shadow) {
        (Some(extraction), _) => extraction,
        (None, Some(tables)) => return Some(Arc::clone(tables)),
        (None, None) => {
            let (full, globals) = store.full_databases_with_ids();
            (full.batches, globals)
        }
    };
    if batches.is_empty() {
        return None;
    }
    let obs = state.locked().shadow_obs.clone();
    let mut tables = fit_shadow_tables(&batches, &globals, ltm, obs.as_ref());
    // `publish` numbers the candidate `served + 1`, and the refit lock
    // keeps any other refit from publishing in between.
    tables.epoch = served.epoch + 1;
    Some(Arc::new(tables))
}

/// Runs one refit over the store and (maybe) publishes an epoch.
///
/// `kind` selects the extraction, accumulator, and candidate-predictor
/// variant (see the kind table in [`crate::model`]). `refit_lock` is
/// held for the whole fold — tests grab it first to hold the daemon
/// hostage and prove queries still serve; it also serialises accumulator
/// read-modify-commit across callers. `seed_bump` decorrelates the
/// chains of successive attempts. The fold lands on a working copy of
/// the accumulator and is committed to `state` (with the new watermark)
/// only after it fully succeeds.
#[allow(clippy::too_many_arguments)] // the daemon is the only real caller
pub fn refit_once(
    store: &ShardedStore,
    predictor: &EpochPredictor,
    kind: ModelKind,
    config: &RefitConfig,
    state: &Mutex<RefitState>,
    refit_lock: &Mutex<()>,
    seed_bump: u64,
    mode: RefitMode,
) -> RefitOutcome {
    let _hostage = refit_lock.locked();
    let pending_at_start = store.pending();
    let started = Instant::now();

    let seed = config.ltm.seed.wrapping_add(seed_bump.wrapping_mul(0x9E37));
    let step = match kind {
        ModelKind::Boolean | ModelKind::PositiveOnly => {
            fold_boolean(store, kind, config, state, seed, mode)
        }
        ModelKind::RealValued => fold_real(store, config, state, seed, mode),
    };
    let folded = match step {
        FoldStep::Empty { watermark } => {
            // Nothing new to fold. Still advance the watermark and
            // consume pending: a snapshot race can restore pending
            // slightly larger than the accumulator's watermark implies,
            // and without this commit the daemon would re-arm forever
            // over an empty delta.
            let mut st = state.locked();
            st.counters.watermark = st.counters.watermark.max(watermark);
            drop(st);
            store.consume_pending(pending_at_start);
            return RefitOutcome::Empty;
        }
        FoldStep::Failed(e) => {
            state.locked().counters.refits_failed += 1;
            return RefitOutcome::Failed(e);
        }
        FoldStep::Done(folded) => folded,
    };
    let Folded {
        acc,
        mut candidate,
        watermark,
        delta_claims,
        extraction,
    } = *folded;
    let max_rhat = candidate.max_rhat;
    let elapsed = started.elapsed().as_secs_f64();
    let obs = state.locked().obs.clone();

    // The epoch decision is applied first, then the accumulator commit,
    // then pending is consumed. A snapshot capture reads the store first,
    // the refit state second, and the predictor last, so this ordering
    // means a racing capture can only pair a *newer* accumulator/epoch
    // with an older log — which errs toward a redundant re-fold after
    // restore, never toward silently excluding a folded tail.
    let rhat_started = Instant::now();
    let current = predictor.load();
    // Epoch 0 is the prior-only boot predictor, fit on nothing: its R̂ of
    // 1.0 is no bar, so any first fit with a finite R̂ replaces it.
    let promote = max_rhat <= config.rhat_gate
        || max_rhat <= current.max_rhat
        || (current.epoch == 0 && max_rhat.is_finite());
    if let Some(o) = &obs {
        o.rhat_seconds.record_duration(rhat_started.elapsed());
    }
    let promote_started = Instant::now();
    let outcome = if promote {
        // Shadow tables are settled only for epochs that will actually be
        // published (a vetoed candidate is dropped whole), on the daemon
        // thread before the epoch pointer-swap; queries never wait on
        // them.
        candidate.shadow = shadow_tables(store, config, state, &candidate, &current, extraction);
        let epoch = predictor.publish(candidate);
        RefitOutcome::Published {
            epoch,
            max_rhat,
            mode,
            delta_claims,
        }
    } else {
        predictor.record_rejection();
        RefitOutcome::Rejected {
            max_rhat,
            gate: config.rhat_gate,
            mode,
        }
    };
    {
        let mut st = state.locked();
        match acc {
            FoldedAcc::Boolean(s) => st.streaming = Some(s),
            FoldedAcc::Real(s) => st.streaming_real = Some(s),
        }
        st.counters.watermark = watermark;
        match mode {
            RefitMode::Incremental => {
                st.counters.refits_incremental += 1;
                st.counters.last_incremental_secs = elapsed;
            }
            RefitMode::Full => {
                st.counters.refits_full += 1;
                st.counters.last_full_secs = elapsed;
            }
        }
    }
    store.consume_pending(pending_at_start);
    if let Some(o) = &obs {
        o.promote_seconds.record_duration(promote_started.elapsed());
    }
    outcome
}

/// Cap on the exponential backoff applied after consecutive refit
/// failures (the delay doubles from `interval` up to this).
const MAX_BACKOFF: Duration = Duration::from_secs(60);

/// Delay before the next attempt after `failures` consecutive refit
/// failures: `interval · 2^failures`, capped at `max_backoff`.
fn failure_backoff(interval: Duration, failures: u32, max_backoff: Duration) -> Duration {
    interval
        .saturating_mul(2u32.saturating_pow(failures.min(16)))
        .min(max_backoff)
        .max(interval)
}

/// What a forced trigger asks for: a refit in whatever mode the daemon's
/// schedule picks next, or explicitly a full reconciliation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForcedTrigger {
    Auto,
    Full,
}

/// Shared daemon state behind the trigger condvar.
#[derive(Debug, Default)]
struct DaemonState {
    shutdown: bool,
    forced: Option<ForcedTrigger>,
}

/// Handle to the background refit thread.
#[derive(Debug)]
pub struct RefitDaemon {
    state: Arc<(Mutex<DaemonState>, Condvar)>,
    refits_started: Arc<AtomicU64>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl RefitDaemon {
    /// Spawns the daemon thread for one domain of kind `kind`.
    pub fn spawn(
        store: Arc<ShardedStore>,
        predictor: Arc<EpochPredictor>,
        kind: ModelKind,
        config: RefitConfig,
        refit_state: Arc<Mutex<RefitState>>,
        refit_lock: Arc<Mutex<()>>,
    ) -> Self {
        let state = Arc::new((Mutex::new(DaemonState::default()), Condvar::new()));
        let refits_started = Arc::new(AtomicU64::new(0));
        let thread_state = Arc::clone(&state);
        let thread_refits = Arc::clone(&refits_started);
        let handle = std::thread::Builder::new()
            .name("ltm-refit".into())
            .spawn(move || {
                let (lock, cv) = &*thread_state;
                let mut attempt: u64 = 0;
                let mut since_full: u64 = 0;
                let mut failures: u32 = 0;
                let mut backoff_until: Option<Instant> = None;
                loop {
                    let forced;
                    {
                        let mut st = lock.locked();
                        loop {
                            if st.shutdown {
                                return;
                            }
                            // A forced trigger bypasses both the pending
                            // threshold and the failure backoff.
                            if let Some(t) = st.forced.take() {
                                forced = Some(t);
                                break;
                            }
                            let in_backoff =
                                backoff_until.is_some_and(|until| Instant::now() < until);
                            if !in_backoff && store.pending() >= config.min_pending {
                                forced = None;
                                break;
                            }
                            let (next, _timeout) = cv
                                .wait_timeout(st, config.interval)
                                .unwrap_or_else(|poisoned| poisoned.into_inner());
                            st = next;
                        }
                    }
                    // Fold failures are deterministic state mismatches
                    // (id-space drift between accumulator and store), and
                    // a full rebuild is their one remedy — so after two
                    // consecutive failures the schedule escalates to Full
                    // on its own instead of retrying the same doomed
                    // incremental fold under backoff forever. Operators
                    // who disabled automatic full refits keep the manual
                    // heal only.
                    let scheduled = if config.full_refit_every > 0
                        && (failures >= 2 || since_full + 1 >= config.full_refit_every)
                    {
                        RefitMode::Full
                    } else {
                        RefitMode::Incremental
                    };
                    let mode = match forced {
                        Some(ForcedTrigger::Full) => RefitMode::Full,
                        _ => scheduled,
                    };
                    attempt += 1;
                    thread_refits.fetch_add(1, Ordering::Relaxed);
                    let outcome = refit_once(
                        &store,
                        &predictor,
                        kind,
                        &config,
                        &refit_state,
                        &refit_lock,
                        attempt,
                        mode,
                    );
                    match &outcome {
                        RefitOutcome::Failed(e) => {
                            // Exponential backoff: a persistent fold error
                            // must not retry every interval forever,
                            // spamming stderr and burning a core.
                            failures += 1;
                            let delay = failure_backoff(config.interval, failures, MAX_BACKOFF);
                            backoff_until = Some(Instant::now() + delay);
                            crate::log_warn!(
                                "refit",
                                "{mode} refit failed ({failures} consecutive): {e}; \
                                 backing off {delay:?}"
                            );
                            continue;
                        }
                        RefitOutcome::Published {
                            epoch, max_rhat, ..
                        } => {
                            crate::log_info!(
                                "refit",
                                "published epoch {epoch} ({mode} refit, \
                                 max R-hat {max_rhat:.3})"
                            );
                        }
                        RefitOutcome::Rejected { max_rhat, gate, .. } => {
                            crate::log_info!(
                                "refit",
                                "rejected {mode} refit: \
                                 max R-hat {max_rhat:.3} > gate {gate:.3}"
                            );
                        }
                        RefitOutcome::Empty => {}
                    }
                    failures = 0;
                    backoff_until = None;
                    if mode == RefitMode::Full {
                        since_full = 0;
                    } else {
                        since_full += 1;
                    }
                }
            })
            // analyzer: allow(panic-expect) -- boot-time spawn; fails only on OS thread exhaustion, before the domain serves
            .expect("spawn refit daemon");
        Self {
            state,
            refits_started,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Forces a refit pass regardless of the pending threshold (and of
    /// any failure backoff). The daemon's own full/incremental schedule
    /// picks the mode.
    pub fn trigger(&self) {
        self.force(ForcedTrigger::Auto);
    }

    /// Forces a full (reconciliation) refit pass.
    pub fn trigger_full(&self) {
        self.force(ForcedTrigger::Full);
    }

    fn force(&self, trigger: ForcedTrigger) {
        let (lock, cv) = &*self.state;
        let mut st = lock.locked();
        // A pending full request is never downgraded by a later auto one.
        st.forced = match (st.forced, trigger) {
            (Some(ForcedTrigger::Full), _) | (_, ForcedTrigger::Full) => Some(ForcedTrigger::Full),
            _ => Some(ForcedTrigger::Auto),
        };
        drop(st);
        cv.notify_all();
    }

    /// Refit attempts started since boot.
    pub fn refits_started(&self) -> u64 {
        self.refits_started.load(Ordering::Relaxed)
    }

    /// Stops the daemon and joins its thread (idempotent).
    pub fn shutdown(&self) {
        let (lock, cv) = &*self.state;
        if let Ok(mut st) = lock.lock() {
            st.shutdown = true;
        }
        cv.notify_all();
        let handle = self.handle.locked().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for RefitDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltm_core::ExpectedCounts;

    fn fast_config() -> RefitConfig {
        RefitConfig {
            ltm: LtmConfig {
                schedule: SampleSchedule::new(60, 20, 1),
                ..LtmConfig::default()
            },
            chains: 2,
            rhat_gate: 1.2,
            min_pending: usize::MAX, // manual triggers only
            interval: Duration::from_millis(10),
            ..RefitConfig::default()
        }
    }

    fn seeded_store() -> Arc<ShardedStore> {
        let store = Arc::new(ShardedStore::new(3));
        for e in 0..12 {
            for a in 0..2 {
                store.ingest(&format!("e{e}"), &format!("a{a}"), "good");
            }
            store.ingest(&format!("e{e}"), "a0", "lazy");
        }
        store
    }

    fn run(
        store: &ShardedStore,
        predictor: &EpochPredictor,
        cfg: &RefitConfig,
        state: &Mutex<RefitState>,
        bump: u64,
        mode: RefitMode,
    ) -> RefitOutcome {
        let lock = Mutex::new(());
        refit_once(
            store,
            predictor,
            ModelKind::Boolean,
            cfg,
            state,
            &lock,
            bump,
            mode,
        )
    }

    #[test]
    fn refit_once_publishes_an_epoch() {
        let store = seeded_store();
        let cfg = fast_config();
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(RefitState::new());
        let outcome = run(&store, &predictor, &cfg, &state, 1, RefitMode::Full);
        match outcome {
            RefitOutcome::Published { epoch, mode, .. } => {
                assert_eq!(epoch, 1);
                assert_eq!(mode, RefitMode::Full);
            }
            other => panic!("expected publish, got {other:?}"),
        }
        let snap = predictor.load();
        assert_eq!(snap.trained_claims, store.stats().claims);
        assert_eq!(store.pending(), 0, "pending consumed");
        let st = state.locked();
        assert_eq!(st.watermark(), store.accepted_seq());
        assert_eq!(st.counters().refits_full, 1);
        assert!(st.counters().last_full_secs > 0.0);
        drop(st);
        // The learned quality must rank `good` above `lazy` on sensitivity.
        let good = store.source_id("good").unwrap();
        let lazy = store.source_id("lazy").unwrap();
        let p_good = snap.predictor.predict_fact(&[(good, true)]);
        let p_lazy = snap.predictor.predict_fact(&[(lazy, true)]);
        assert!(
            p_good > p_lazy,
            "good-source claim should carry more weight: {p_good} vs {p_lazy}"
        );
    }

    #[test]
    fn refit_on_empty_store_is_a_noop() {
        let store = Arc::new(ShardedStore::new(2));
        let cfg = fast_config();
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(RefitState::new());
        for mode in [RefitMode::Full, RefitMode::Incremental] {
            assert_eq!(
                run(&store, &predictor, &cfg, &state, 0, mode),
                RefitOutcome::Empty
            );
        }
        assert_eq!(predictor.load().epoch, 0);
    }

    #[test]
    fn incremental_refit_folds_only_the_delta() {
        let store = seeded_store();
        let cfg = fast_config();
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(RefitState::new());
        // First incremental fold over an empty accumulator covers
        // everything (it IS the full extraction semantically).
        match run(&store, &predictor, &cfg, &state, 1, RefitMode::Incremental) {
            RefitOutcome::Published { delta_claims, .. } => {
                assert_eq!(delta_claims, store.stats().claims)
            }
            other => panic!("expected publish, got {other:?}"),
        }
        // A new entity asserted by one known source is a 1-claim delta.
        store.ingest("brand-new", "a0", "good");
        match run(&store, &predictor, &cfg, &state, 2, RefitMode::Incremental) {
            RefitOutcome::Published { delta_claims, .. } => assert_eq!(delta_claims, 1),
            other => panic!("expected publish, got {other:?}"),
        }
        assert_eq!(store.pending(), 0);
        let st = state.locked();
        assert_eq!(st.counters().refits_incremental, 2);
        assert_eq!(st.watermark(), store.accepted_seq());
        // The accumulator still covers the whole history, not just the
        // last delta.
        let acc_total = st.streaming().unwrap().accumulated().total();
        assert!(
            (acc_total - store.stats().claims as f64).abs() < 1e-6,
            "accumulator covers {acc_total}, store holds {}",
            store.stats().claims
        );
    }

    #[test]
    fn retroactive_coverage_flows_through_the_delta() {
        // A new source covering an old entity adds Definition-3 negative
        // rows to the entity's other facts; those rows must reach the
        // accumulator through the delta path, not wait for a full refit.
        let store = Arc::new(ShardedStore::new(2));
        store.ingest("e0", "a0", "s0");
        store.ingest("e0", "a1", "s0");
        store.ingest("e1", "a0", "s0");
        let cfg = fast_config();
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(RefitState::new());
        run(&store, &predictor, &cfg, &state, 1, RefitMode::Incremental);

        // `late` asserts one fact of e0 → covers e0 → negative on (e0,a1).
        store.ingest("e0", "a0", "late");
        match run(&store, &predictor, &cfg, &state, 2, RefitMode::Incremental) {
            RefitOutcome::Published { delta_claims, .. } => assert_eq!(
                delta_claims, 4,
                "both facts of e0 re-fold with 2 covering sources each"
            ),
            other => panic!("expected publish, got {other:?}"),
        }
        let st = state.locked();
        let acc = st.streaming().unwrap().accumulated();
        let late = store.source_id("late").unwrap();
        let late_total: f64 = [(true, true), (true, false), (false, true), (false, false)]
            .iter()
            .map(|&(label, obs)| acc.get(late, label, obs))
            .sum();
        assert!(
            (late_total - 2.0).abs() < 1e-9,
            "late contributed its positive AND its retroactive negative: {late_total}"
        );
    }

    #[test]
    fn full_refit_sheds_incremental_drift() {
        // Re-assert an already-covered fact between incremental refits:
        // the dirty fact re-folds on top of its earlier contribution, so
        // the accumulator over-counts. A full refit rebuilds it exactly.
        let store = seeded_store();
        let cfg = fast_config();
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(RefitState::new());
        run(&store, &predictor, &cfg, &state, 1, RefitMode::Incremental);
        // `lazy` now asserts a fact it previously only covered: the fact
        // was folded once already and re-folds entirely.
        store.ingest("e0", "a1", "lazy");
        run(&store, &predictor, &cfg, &state, 2, RefitMode::Incremental);
        let drifted = state
            .lock()
            .unwrap()
            .streaming()
            .unwrap()
            .accumulated()
            .total();
        let claims = store.stats().claims as f64;
        assert!(
            drifted > claims + 0.5,
            "re-folded fact double-counts: accumulator {drifted} vs store {claims}"
        );
        run(&store, &predictor, &cfg, &state, 3, RefitMode::Full);
        let reconciled = state
            .lock()
            .unwrap()
            .streaming()
            .unwrap()
            .accumulated()
            .total();
        assert!(
            (reconciled - claims).abs() < 1e-6,
            "full refit rebuilds exactly: {reconciled} vs {claims}"
        );
    }

    #[test]
    fn rhat_gate_rejects_regressions_but_commits_the_fold() {
        let store = seeded_store();
        let cfg = RefitConfig {
            // An impossible gate: any R̂ > 0 fails unless it improves on
            // the served epoch.
            rhat_gate: 0.0,
            ..fast_config()
        };
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        // Pretend a fitted epoch with a perfect R̂ is served, so neither
        // the "never reject an improvement" clause nor the epoch-0 rule
        // can save the candidate.
        let mut served = EpochSnapshot::boot(&cfg.ltm.priors);
        served.epoch = 1;
        served.max_rhat = 0.0;
        predictor.restore(served);
        let state = Mutex::new(RefitState::new());
        match run(&store, &predictor, &cfg, &state, 1, RefitMode::Incremental) {
            RefitOutcome::Rejected { gate, .. } => assert_eq!(gate, 0.0),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(predictor.load().epoch, 1, "served epoch unchanged");
        assert_eq!(predictor.epochs_rejected(), 1);
        assert_eq!(store.pending(), 0, "pending consumed even on rejection");
        let st = state.locked();
        assert!(
            st.streaming().is_some() && st.watermark() == store.accepted_seq(),
            "the fold is committed even when promotion is vetoed"
        );
    }

    #[test]
    fn first_full_refit_replaces_the_prior_only_epoch() {
        // Epoch 0 was fit on nothing, so even a gate no fit can pass must
        // not keep a fresh server on its priors.
        let store = seeded_store();
        let cfg = RefitConfig {
            rhat_gate: 0.0,
            ..fast_config()
        };
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(RefitState::new());
        match run(&store, &predictor, &cfg, &state, 1, RefitMode::Full) {
            RefitOutcome::Published { epoch, .. } => assert_eq!(epoch, 1),
            other => panic!("expected the first refit to publish, got {other:?}"),
        }
        assert_eq!(predictor.epochs_rejected(), 0);
    }

    /// `fast_config` with a gate every fit passes, so each refit promotes.
    fn promoting_config() -> RefitConfig {
        RefitConfig {
            rhat_gate: f64::INFINITY,
            ..fast_config()
        }
    }

    fn served_tables(predictor: &EpochPredictor) -> Arc<ShadowTables> {
        predictor
            .load()
            .shadow
            .clone()
            .expect("shadow tables served")
    }

    #[test]
    fn incremental_refits_carry_the_shadow_tables_until_the_next_full_refit() {
        let store = seeded_store();
        let cfg = promoting_config();
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(RefitState::new());
        run(&store, &predictor, &cfg, &state, 1, RefitMode::Full);
        let first = served_tables(&predictor);
        assert_eq!((predictor.load().epoch, first.epoch), (1, 1));

        store.ingest("brand-new", "a0", "good");
        let fresh = store.fact_id_by_name("brand-new", "a0").unwrap();
        match run(&store, &predictor, &cfg, &state, 2, RefitMode::Incremental) {
            RefitOutcome::Published { epoch: 2, .. } => {}
            other => panic!("expected epoch 2, got {other:?}"),
        }
        let carried = served_tables(&predictor);
        assert!(
            Arc::ptr_eq(&first, &carried),
            "an incremental refit fits no baselines"
        );
        assert_eq!(carried.epoch, 1);
        assert!(carried.fact_ids.binary_search(&fresh).is_err());

        match run(&store, &predictor, &cfg, &state, 3, RefitMode::Full) {
            RefitOutcome::Published { epoch: 3, .. } => {}
            other => panic!("expected epoch 3, got {other:?}"),
        }
        let refit = served_tables(&predictor);
        assert!(!Arc::ptr_eq(&first, &refit), "a full refit fits afresh");
        assert_eq!(refit.epoch, 3);
        assert!(refit.fact_ids.binary_search(&fresh).is_ok());
        assert_eq!(refit.num_facts(), store.stats().facts);
    }

    #[test]
    fn a_first_promotion_from_an_incremental_fold_fits_tables() {
        let store = seeded_store();
        let cfg = promoting_config();
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(RefitState::new());
        run(&store, &predictor, &cfg, &state, 1, RefitMode::Incremental);
        let tables = served_tables(&predictor);
        assert_eq!(tables.epoch, 1);
        assert_eq!(tables.num_facts(), store.stats().facts);
    }

    #[test]
    fn shadows_off_publishes_no_tables_even_over_served_ones() {
        let store = seeded_store();
        let cfg = promoting_config();
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(RefitState::new());
        run(&store, &predictor, &cfg, &state, 1, RefitMode::Full);
        served_tables(&predictor);
        let off = RefitConfig {
            shadows: false,
            ..cfg
        };
        for (bump, mode) in [(2, RefitMode::Incremental), (3, RefitMode::Full)] {
            store.ingest(&format!("new-{bump}"), "a0", "good");
            let outcome = run(&store, &predictor, &off, &state, bump, mode);
            assert!(
                matches!(outcome, RefitOutcome::Published { .. }),
                "{outcome:?}"
            );
            assert!(
                predictor.load().shadow.is_none(),
                "{mode} refit kept tables"
            );
        }
    }

    /// An accumulator claiming more sources than the store has interned:
    /// every incremental fold then fails with `SourceSpaceShrunk`.
    fn poisoned_state(cfg: &RefitConfig) -> RefitState {
        let mut st = RefitState::new();
        st.restore(
            StreamingLtm::from_accumulated(cfg.ltm, ExpectedCounts::zeros(64), 1),
            0,
        );
        st
    }

    #[test]
    fn failed_fold_commits_nothing_and_counts() {
        let store = seeded_store();
        let cfg = fast_config();
        let predictor = EpochPredictor::new(&cfg.ltm.priors);
        let state = Mutex::new(poisoned_state(&cfg));
        let pending_before = store.pending();
        match run(&store, &predictor, &cfg, &state, 1, RefitMode::Incremental) {
            RefitOutcome::Failed(StreamError::SourceSpaceShrunk { .. }) => {}
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(store.pending(), pending_before, "pending stays armed");
        let st = state.locked();
        assert_eq!(st.counters().refits_failed, 1);
        assert_eq!(st.watermark(), 0, "watermark not advanced");
        drop(st);
        // A full refit reconciles: fresh accumulator, healthy again.
        match run(&store, &predictor, &cfg, &state, 2, RefitMode::Full) {
            RefitOutcome::Published { .. } => {}
            other => panic!("expected full refit to heal, got {other:?}"),
        }
        assert_eq!(store.pending(), 0);
    }

    #[test]
    fn failure_backoff_doubles_and_caps() {
        let i = Duration::from_millis(100);
        let cap = Duration::from_secs(5);
        assert_eq!(failure_backoff(i, 1, cap), Duration::from_millis(200));
        assert_eq!(failure_backoff(i, 2, cap), Duration::from_millis(400));
        assert_eq!(failure_backoff(i, 5, cap), Duration::from_millis(3200));
        assert_eq!(failure_backoff(i, 6, cap), cap);
        assert_eq!(failure_backoff(i, 60, cap), cap, "exponent saturates");
        assert_eq!(failure_backoff(i, 0, cap), i, "never below the interval");
    }

    #[test]
    fn daemon_backs_off_after_persistent_failures() {
        // A poisoned accumulator makes every armed refit fail. Without
        // backoff the 10 ms interval would run ~10 attempts in 700 ms;
        // with exponential backoff (20, 40, 80, 160, 320 ms…) far fewer
        // land, and each failure is counted.
        let store = seeded_store();
        let cfg = RefitConfig {
            min_pending: 1,      // armed by the seeded ingest
            full_refit_every: 0, // no auto-reconciliation: every attempt fails
            ..fast_config()
        };
        let predictor = Arc::new(EpochPredictor::new(&cfg.ltm.priors));
        let state = Arc::new(Mutex::new(poisoned_state(&cfg)));
        let lock = Arc::new(Mutex::new(()));
        let daemon = RefitDaemon::spawn(
            Arc::clone(&store),
            Arc::clone(&predictor),
            ModelKind::Boolean,
            cfg,
            Arc::clone(&state),
            Arc::clone(&lock),
        );
        std::thread::sleep(Duration::from_millis(700));
        let started = daemon.refits_started();
        let failed = state.locked().counters().refits_failed;
        daemon.shutdown();
        assert!(started >= 2, "daemon must keep retrying: {started}");
        assert!(
            started <= 7,
            "daemon retried too often for an exponential backoff: {started}"
        );
        assert_eq!(failed, started, "every attempt failed and was counted");
        assert_eq!(predictor.load().epoch, 0);
    }

    #[test]
    fn daemon_escalates_to_full_after_persistent_failures() {
        // A poisoned accumulator makes incremental folds fail
        // deterministically; with automatic full refits enabled, the
        // daemon must escalate to a full rebuild on its own after two
        // consecutive failures and heal without operator intervention.
        let store = seeded_store();
        let cfg = RefitConfig {
            min_pending: 1,
            ..fast_config() // full_refit_every: default (8, enabled)
        };
        let predictor = Arc::new(EpochPredictor::new(&cfg.ltm.priors));
        let state = Arc::new(Mutex::new(poisoned_state(&cfg)));
        let daemon = RefitDaemon::spawn(
            Arc::clone(&store),
            Arc::clone(&predictor),
            ModelKind::Boolean,
            cfg,
            Arc::clone(&state),
            Arc::new(Mutex::new(())),
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        while predictor.load().epoch == 0 {
            assert!(Instant::now() < deadline, "daemon never self-healed");
            std::thread::sleep(Duration::from_millis(10));
        }
        let c = state.locked().counters();
        assert!(c.refits_failed >= 2, "escalation needs two failures: {c:?}");
        assert!(
            c.refits_full >= 1,
            "the healing refit was a full one: {c:?}"
        );
        assert_eq!(store.pending(), 0);
        daemon.shutdown();
    }

    #[test]
    fn forced_full_trigger_bypasses_backoff_and_heals() {
        let store = seeded_store();
        let cfg = RefitConfig {
            min_pending: 1,
            ..fast_config()
        };
        let predictor = Arc::new(EpochPredictor::new(&cfg.ltm.priors));
        let state = Arc::new(Mutex::new(poisoned_state(&cfg)));
        let daemon = RefitDaemon::spawn(
            Arc::clone(&store),
            Arc::clone(&predictor),
            ModelKind::Boolean,
            cfg,
            Arc::clone(&state),
            Arc::new(Mutex::new(())),
        );
        // Wait for at least one failure so a backoff is in force.
        let deadline = Instant::now() + Duration::from_secs(30);
        while state.locked().counters().refits_failed == 0 {
            assert!(Instant::now() < deadline, "daemon never attempted");
            std::thread::sleep(Duration::from_millis(10));
        }
        // A forced full refit rebuilds the accumulator and publishes
        // without waiting out the backoff.
        daemon.trigger_full();
        let deadline = Instant::now() + Duration::from_secs(30);
        while predictor.load().epoch == 0 {
            assert!(Instant::now() < deadline, "forced full refit never healed");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(state.locked().counters().refits_full >= 1);
        daemon.shutdown();
    }

    #[test]
    fn daemon_runs_periodic_full_refits() {
        let store = seeded_store();
        let cfg = RefitConfig {
            min_pending: usize::MAX,
            full_refit_every: 2, // every 2nd attempt reconciles
            ..fast_config()
        };
        let predictor = Arc::new(EpochPredictor::new(&cfg.ltm.priors));
        let state = Arc::new(Mutex::new(RefitState::new()));
        let daemon = RefitDaemon::spawn(
            Arc::clone(&store),
            Arc::clone(&predictor),
            ModelKind::Boolean,
            cfg,
            Arc::clone(&state),
            Arc::new(Mutex::new(())),
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            // New data before each trigger so no attempt is Empty.
            store.ingest(&format!("fresh-{}", daemon.refits_started()), "a0", "good");
            daemon.trigger();
            let c = state.locked().counters();
            if c.refits_full >= 1 && c.refits_incremental >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "daemon never mixed modes: {c:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon.shutdown();
    }

    #[test]
    fn daemon_trigger_and_shutdown() {
        let store = seeded_store();
        let cfg = fast_config();
        let predictor = Arc::new(EpochPredictor::new(&cfg.ltm.priors));
        let state = Arc::new(Mutex::new(RefitState::new()));
        let lock = Arc::new(Mutex::new(()));
        let daemon = RefitDaemon::spawn(
            Arc::clone(&store),
            Arc::clone(&predictor),
            ModelKind::Boolean,
            cfg,
            Arc::clone(&state),
            Arc::clone(&lock),
        );
        daemon.trigger();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while predictor.load().epoch == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never published"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(daemon.refits_started() >= 1);
        daemon.shutdown();
    }
}
