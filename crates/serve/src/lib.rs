//! **ltm-serve** — the truth-discovery *serving* layer.
//!
//! The paper's own pitch for LTMinc (§5.4, Equation 3) is that once
//! source quality is learned, new claims can be scored as fast as Voting
//! with no sampling — i.e. it is the natural online read path of a
//! truth-discovery service. This crate turns the workspace's library into
//! that service:
//!
//! * [`model`] + [`domain`] — **multi-model serving**: one process hosts
//!   named domains, each bound to a [`model::ModelKind`] (`boolean`,
//!   `real_valued`, or `positive_only`) with its own store, predictor,
//!   accumulator, and refit daemon, so a slow fold in one domain never
//!   delays another's promotion.
//! * [`store`] — a **sharded in-memory claim store**: triples are
//!   hash-partitioned by entity across N shards, each an append log with
//!   coverage indexes that rebuilds its CSR [`ltm_model::ClaimDb`] on
//!   refit. Source ids are global across shards.
//! * [`epoch`] — **epoch-swapped predictors**: reads clone an
//!   `Arc<EpochSnapshot>` out of one short critical section; the refit
//!   daemon publishes whole new generations atomically, so queries never
//!   wait on a fit.
//! * [`refit`] — the **background refit daemon**: keeps one long-lived
//!   [`ltm_core::StreamingLtm`] accumulator across epochs and folds only
//!   the store's **delta** (facts dirtied since the fold watermark) with
//!   multi-chain Gibbs fits — `O(Δ)` per refit, with periodic full
//!   reconciliation passes — and promotes the result only if its
//!   Gelman–Rubin `R̂` passes the gate (a regressing refit is rejected
//!   and logged; a failing one backs off exponentially).
//! * [`http`] + [`event_loop`] + [`server`] — a minimal HTTP/1.1 front
//!   end on `std::net::TcpListener`: one epoll readiness loop with
//!   keep-alive, pipelining, and a handler worker pool (no external deps
//!   beyond the vendored `epoll` shim). It serves on Linux only; on
//!   targets without epoll, `Server::start` fails at boot.
//! * [`snapshot`] — store + quality + accumulator persistence, so a
//!   restarted server resumes its last epoch *and* keeps refitting
//!   incrementally instead of cold-refitting. A snapshot stores its rows
//!   as WAL frames and restores them through the WAL's replay step, so
//!   rows have one durable encoding.
//! * [`wal`] — a per-domain **write-ahead log**: every accepted ingest
//!   batch is CRC32-framed, appended, and fsync'd (per `--wal-sync`)
//!   before the HTTP ack; a background compactor folds sealed segments
//!   into the snapshot, and boot replays the tail — so an acked batch
//!   survives `kill -9` (see DESIGN.md §6 "Durability").
//! * [`shadow`] — the **baseline shadow ensemble**: each promoted refit
//!   also fits the seven Table 7 baselines on the same extraction and
//!   publishes their truth tables beside LTM in the epoch swap, so
//!   `?methods=all` queries answer every method plus a rank-average
//!   ensemble, `/stats` and `/metrics` report method agreement
//!   (pairwise correlation + decision flips), and `GET /eval` scores
//!   them all live against loaded ground-truth labels.
//! * [`obs`] — the **observability spine**: a metrics registry of atomic
//!   counters, gauges, and lock-free log-linear latency histograms
//!   rendered by `GET /metrics` (Prometheus text format, `domain=`
//!   labels) that time requests, WAL appends and refit phases, and a
//!   leveled structured logger (`--log-level`, `--log-format`) behind
//!   the `log_error!`…`log_debug!` macros.
//!
//! The `ltm` binary wraps this as a CLI: `ltm serve`, `ltm ingest`,
//! `ltm query`. See README.md for a curl quickstart and DESIGN.md §6 for
//! the architecture notes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod domain;
pub mod epoch;
pub mod event_loop;
pub mod http;
pub mod model;
pub mod obs;
pub mod refit;
pub mod server;
pub mod shadow;
pub mod snapshot;
pub mod store;
pub mod sync;
pub mod wal;

pub use domain::{Domain, DomainError, DomainObs, DomainSet, DEFAULT_DOMAIN};
pub use epoch::{EpochPredictor, EpochSnapshot};
pub use http::{http_call, HttpClient};
pub use model::{ModelKind, ServePredictor};
pub use obs::{Counter, Gauge, Histogram, Registry, ScopedGauge, Unit};
pub use refit::{
    refit_once, RefitConfig, RefitCounters, RefitDaemon, RefitMode, RefitObs, RefitOutcome,
    RefitState,
};
pub use server::{ServeConfig, Server};
pub use shadow::{Agreement, ShadowColumn, ShadowObs, ShadowTables};
pub use snapshot::Snapshot;
pub use store::{
    BatchOutcome, FactView, IngestOutcome, LogRecord, RealFactView, RealStoreDelta, ShardedStore,
    StoreDelta, StoreDeltaOf, StoreStats,
};
pub use sync::{LockExt, RwLockExt};
pub use wal::{DomainWal, WalConfig, WalObs, WalSyncPolicy};
