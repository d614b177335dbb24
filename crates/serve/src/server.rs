//! The HTTP front end: routes, JSON schemas, and server lifecycle.
//!
//! A server hosts named **domains** (see [`crate::domain`]), each bound
//! to a [`ModelKind`]. Domain-scoped routes live under `/d/{domain}/…`;
//! the legacy un-prefixed routes address the [`DEFAULT_DOMAIN`]. The
//! complete request/response reference with curl examples is
//! `docs/API.md`; the route table:
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/claims`, `/d/{domain}/claims` | POST | ingest triples (4-field with value in real-valued domains) |
//! | `/facts/{id}`, `/d/{domain}/facts/{id}` | GET | one fact's names, claims, and current probability |
//! | `/query`, `/d/{domain}/query` | POST | score an ad-hoc claim list |
//! | `/admin/refit`, `/d/{domain}/admin/refit` | POST | force a refit pass (`?mode=full\|incremental`) |
//! | `/d/{domain}/stats` | GET | one domain's stats section |
//! | `/domains` | GET | list hosted domains |
//! | `/admin/domains` | POST | create a domain (`{"name","kind"}`) |
//! | `/healthz` | GET | liveness + default-domain epoch (503 `degraded` after a WAL/snapshot write failure) |
//! | `/stats` | GET | global + per-domain counters (incl. `wal_*` and compaction) |
//! | `/admin/snapshot` | POST | save a snapshot (`{"path": "…"}` optional) |
//! | `/admin/compact` | POST | seal + fold the WAL into the snapshot, delete covered segments |
//! | `/admin/shutdown` | POST | request a graceful stop |
//!
//! Queries read the current [`EpochSnapshot`] of their domain through
//! one `Arc` clone and never wait on any refit daemon; see DESIGN.md §6.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ltm_model::SourceId;
use serde::{Serialize, Value};

use crate::domain::{Domain, DomainError, DomainObs, DomainSet, DEFAULT_DOMAIN};
use crate::epoch::{EpochPredictor, EpochSnapshot};
use crate::event_loop::{self, EventLoop, EventLoopConfig};
use crate::http::{Request, Response};
use crate::model::ModelKind;
use crate::obs::registry::{escape_label, fmt_f64};
use crate::obs::{self, Counter, Gauge, Histogram, Registry, ScopedGauge, Unit};
use crate::refit::{RefitConfig, RefitCounters, RefitObs, RefitState};
use crate::shadow::{self, Agreement, ShadowObs, ShadowTables};
use crate::snapshot;
use crate::store::{LogRecord, ShardedStore, StoreStats};
use crate::sync::{wait_recovered, LockExt};
use crate::wal::{self, DomainWal, WalConfig, WalDomainMeta, WalObs};

/// Server configuration.
///
/// # Example
///
/// ```
/// use ltm_serve::model::ModelKind;
/// use ltm_serve::server::ServeConfig;
/// use std::time::Duration;
///
/// let config = ServeConfig {
///     addr: "127.0.0.1:0".into(), // ephemeral port
///     // A real-valued domain beside the implicit boolean `default`.
///     domains: vec![("scores".into(), ModelKind::RealValued)],
///     io_timeout: Duration::from_secs(5),
///     ..ServeConfig::default()
/// };
/// assert_eq!(config.shards, 4);
/// assert_eq!(config.domains[0].1, ModelKind::RealValued);
/// // Server::start(config) boots the multi-domain server.
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Store shard count (per domain); at least 1.
    pub shards: usize,
    /// Worker threads running request handlers behind the event loop;
    /// at least 1.
    pub threads: usize,
    /// Refit daemon configuration (shared by every domain).
    pub refit: RefitConfig,
    /// Extra domains to create at boot, beside the implicit boolean
    /// [`DEFAULT_DOMAIN`] (which always exists).
    pub domains: Vec<(String, ModelKind)>,
    /// Snapshot path: loaded at boot when the file exists, saved on
    /// graceful shutdown and on `POST /admin/snapshot`.
    pub snapshot: Option<PathBuf>,
    /// Per-connection deadline: a request must arrive whole within it of
    /// its first byte, a keep-alive connection may idle this long between
    /// requests, and a peer may stall its response's drain this long. A
    /// peer that stalls or drip-feeds bytes (slow-loris) is dropped once
    /// the deadline passes; until then it holds one connection-table
    /// slot, never a thread. `Duration::ZERO` disables all three.
    pub io_timeout: Duration,
    /// Write-ahead-log configuration. When set, every accepted ingest
    /// batch is journaled and fsync'd (per [`WalConfig::sync`]) before
    /// the HTTP ack, boot replays the WAL tail, and a background
    /// compactor folds sealed segments into the snapshot (defaulting
    /// `snapshot` to `<wal-dir>/snapshot.bin` when unset). `None` keeps
    /// the pre-durability behaviour: memory + explicit snapshots only.
    pub wal: Option<WalConfig>,
    /// Whether to record metrics (request latency histograms, WAL and
    /// refit spans, ingest counters). On by default; the benchmark
    /// harness turns it off to measure instrumentation overhead. With
    /// metrics off, `GET /metrics` still serves but the recorded
    /// families stay empty and `/stats` `requests` stays 0.
    pub metrics: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            shards: 4,
            threads: 4,
            refit: RefitConfig::default(),
            domains: Vec::new(),
            snapshot: None,
            io_timeout: Duration::from_secs(10),
            wal: None,
            metrics: true,
        }
    }
}

/// Everything a request handler needs, shared across workers.
struct Context {
    domains: Arc<DomainSet>,
    /// Shard count and refit config for runtime-created domains.
    shards: usize,
    refit: RefitConfig,
    snapshot_path: Option<PathBuf>,
    /// WAL configuration, when durability is on (runtime-created domains
    /// get their own [`DomainWal`] from it).
    wal: Option<WalConfig>,
    /// Serialises every snapshot save to `snapshot_path`. Compaction
    /// deletes WAL segments the snapshot covers, so a racing save that
    /// captured *older* state must never rename into place after a
    /// newer one — all configured-path saves go through this lock.
    persist: Mutex<()>,
    /// Set when the last snapshot save failed, cleared by the next
    /// success; `/healthz` then reports 503 `degraded`.
    snapshot_failed: AtomicBool,
    /// Compaction bookkeeping for `/stats`.
    compaction: Mutex<CompactionStatus>,
    /// The metrics registry behind both `GET /metrics` and the counter
    /// fields of `/stats` — one source of truth for both surfaces.
    obs: Arc<Registry>,
    /// Completed requests, all endpoints (`ltm_http_requests_total`).
    requests: Arc<Counter>,
    /// Requests currently being handled
    /// (`ltm_http_requests_in_flight`).
    in_flight: Arc<Gauge>,
    /// Open HTTP connections (`ltm_open_connections`).
    open_connections: Arc<Gauge>,
    /// Second-and-later requests served on one keep-alive connection
    /// (`ltm_keepalive_reuse_total`).
    keepalive_reuse: Arc<Counter>,
    /// Batched-query sizes, in fact queries per batch
    /// (`ltm_batch_query_size`); its count is the number of batch
    /// requests served.
    batch_size: Arc<Histogram>,
    /// Whether handlers record metrics (see [`ServeConfig::metrics`]).
    metrics: bool,
    started: Instant,
    shutdown_requested: (Mutex<bool>, Condvar),
    /// The WAL compactor's stop flag and the condvar it sleeps on, so
    /// that shutdown wakes it instead of waiting out its cadence.
    compactor_stop: (Mutex<bool>, Condvar),
}

/// When compaction last ran and how often it has.
#[derive(Debug, Default)]
struct CompactionStatus {
    last_done: Option<Instant>,
    runs: u64,
}

/// Sentinel "path" for connections whose request never parsed — they
/// still count, under `endpoint="malformed"`.
const MALFORMED_PATH: &str = "<malformed>";

impl Context {
    /// Whether the server should report itself degraded: the last WAL
    /// append/fsync of any domain failed, or the last snapshot save did.
    fn degraded(&self) -> bool {
        self.snapshot_failed.load(Ordering::Relaxed)
            || self
                .domains
                .list()
                .iter()
                .any(|d| d.wal().is_some_and(|w| w.degraded()))
    }

    /// Saves a snapshot to `path` — the one save path of
    /// `/admin/snapshot`, [`Server::save_snapshot`], compaction and
    /// shutdown. A save to the configured path, which WAL compaction
    /// deletes segments behind, holds the persist lock (so an older
    /// capture never renames over a newer one) and sets or clears the
    /// degraded flag; any other path is a plain save.
    fn save_snapshot(&self, path: &std::path::Path) -> io::Result<()> {
        if self.snapshot_path.as_deref() != Some(path) {
            return snapshot::save(&self.domains, path);
        }
        let _guard = self.persist.locked();
        let result = snapshot::save(&self.domains, path);
        self.snapshot_failed
            .store(result.is_err(), Ordering::Relaxed);
        result
    }

    /// One compaction pass: capture each domain's accepted sequence,
    /// fold everything into the snapshot (it holds every domain's whole
    /// row log, so one save covers every domain), then delete the sealed
    /// segments the snapshot now covers — only after [`snapshot::save`]
    /// has synced the file and its directory. Returns segments deleted.
    /// `seal_first` rotates active segments so the entire log becomes
    /// foldable (`/admin/compact`, shutdown); the background compactor
    /// leaves active segments alone.
    fn compact(&self, seal_first: bool) -> io::Result<usize> {
        let path = self.snapshot_path.as_deref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no snapshot path configured")
        })?;
        let walled: Vec<(Arc<Domain>, u64)> = self
            .domains
            .list()
            .into_iter()
            .filter(|d| d.wal().is_some())
            .map(|d| {
                let covered = d.store().accepted_seq();
                (d, covered)
            })
            .collect();
        if seal_first {
            for (domain, covered) in &walled {
                domain
                    .wal()
                    // analyzer: allow(panic-expect) -- walled only holds domains whose wal() was Some above
                    .expect("filtered to walled domains")
                    .seal_active(covered + 1)?;
            }
        }
        self.save_snapshot(path)?;
        let mut deleted = 0;
        for (domain, covered) in &walled {
            deleted += domain
                .wal()
                // analyzer: allow(panic-expect) -- walled only holds domains whose wal() was Some above
                .expect("filtered to walled domains")
                .delete_segments_covered_by(*covered)?;
        }
        let mut status = self.compaction.locked();
        status.last_done = Some(Instant::now());
        status.runs += 1;
        drop(status);
        Ok(deleted)
    }

    /// The age in seconds of the last completed compaction (`-1.0` when
    /// none has run or no WAL is configured) and how many have run.
    fn compaction_status(&self) -> (f64, u64) {
        let status = self.compaction.locked();
        let age = status.last_done.map_or(-1.0, |t| t.elapsed().as_secs_f64());
        (age, status.runs)
    }

    /// Records one completed request: the grand-total counter, the
    /// per-endpoint latency histogram, and a debug log line carrying the
    /// request id. Called after routing but **before** the response is
    /// written, so any strictly-later `/metrics` scrape already counts
    /// the request — within one scrape body,
    /// `ltm_http_requests_total == Σ ltm_http_request_duration_seconds_count`
    /// always holds.
    fn observe_request(
        &self,
        method: &str,
        path: &str,
        status: u16,
        started: Instant,
        req_id: u64,
    ) {
        if !self.metrics {
            return;
        }
        let elapsed = started.elapsed();
        let (endpoint, domain) = self.endpoint_label(path);
        self.requests.inc();
        self.obs
            .histogram(
                "ltm_http_request_duration_seconds",
                &[("endpoint", &endpoint), ("domain", &domain)],
                obs::Unit::Micros,
            )
            .record_duration(elapsed);
        crate::log_debug!(
            "http",
            "req#{req_id} {method} {path} -> {status} in {:.3}ms",
            elapsed.as_secs_f64() * 1e3
        );
    }

    /// Collapses a request path into a bounded `(endpoint, domain)`
    /// label pair: known routes verbatim, fact lookups as
    /// `/facts/{id}`, query strings stripped, unknown paths as `other`.
    /// `/d/{name}/…` paths only yield `domain=name` for names that
    /// resolve to a hosted domain — anything else is `other`, so an
    /// unauthenticated path scan cannot mint unbounded label values.
    fn endpoint_label(&self, path: &str) -> (String, String) {
        if path == MALFORMED_PATH {
            return ("malformed".into(), "none".into());
        }
        let (domain, rest) = match path.strip_prefix("/d/") {
            Some(after) => match after.split_once('/') {
                Some((name, rest)) if self.domains.get(name).is_some() => {
                    (name.to_owned(), format!("/{rest}"))
                }
                _ => return ("other".into(), "none".into()),
            },
            None => (DEFAULT_DOMAIN.to_owned(), path.to_owned()),
        };
        let rest = rest.split('?').next().unwrap_or("");
        let endpoint = match rest {
            "/healthz" | "/stats" | "/domains" | "/metrics" | "/claims" | "/query"
            | "/query/batch" | "/eval" | "/admin/domains" | "/admin/snapshot"
            | "/admin/compact" | "/admin/shutdown" | "/admin/refit" | "/admin/labels" => {
                rest.to_owned()
            }
            p if p.starts_with("/facts/") => "/facts/{id}".to_owned(),
            _ => "other".to_owned(),
        };
        (endpoint, domain)
    }
}

// ---------------------------------------------------------------------------
// JSON schemas
// ---------------------------------------------------------------------------

#[derive(Debug, Serialize)]
struct ClaimsResponse {
    domain: String,
    accepted: usize,
    duplicates: usize,
    new_facts: usize,
    pending: usize,
    epoch: u64,
}

/// One answered claim list: its probability under the served epoch, the
/// source names the store does not know, and, only when the request
/// carried `?methods=`, each requested method's score (`probability` is
/// the `ltm` one). `/query/batch` writes it as a `results` item;
/// `/query` writes its fields inline (see [`Answer::fields`]).
#[derive(Debug)]
struct Answer {
    probability: f64,
    unknown_sources: Vec<String>,
    methods: Option<BTreeMap<String, f64>>,
}

impl Answer {
    /// The answer's keys in wire order, with `epoch` after `probability`
    /// when given.
    fn fields(&self, epoch: Option<u64>) -> Vec<(String, Value)> {
        let mut fields = Vec::with_capacity(5);
        let mut put = |key: &str, value: Value| fields.push((key.to_owned(), value));
        put("probability", self.probability.to_value());
        if let Some(epoch) = epoch {
            put("epoch", epoch.to_value());
        }
        put("unknown_sources", self.unknown_sources.to_value());
        if let Some(methods) = &self.methods {
            put("methods", methods.to_value());
        }
        fields
    }
}

impl Serialize for Answer {
    fn to_value(&self) -> Value {
        Value::Object(self.fields(None))
    }
}

/// `POST …/query/batch` — every claim list answered against **one** epoch
/// snapshot, results in request order.
#[derive(Debug, Serialize)]
struct BatchResponse {
    domain: String,
    epoch: u64,
    count: usize,
    results: Vec<Answer>,
}

/// One method's rolling evaluation against the loaded labels.
#[derive(Debug, Serialize)]
struct MethodEval {
    accuracy: f64,
    precision: f64,
    recall: f64,
    f1: f64,
    auc: f64,
    brier: f64,
}

/// `GET …/eval` — per-method metrics over the labels that join to facts
/// in the current epoch's shadow tables.
#[derive(Debug, Serialize)]
struct EvalResponse {
    domain: String,
    epoch: u64,
    labels: usize,
    matched: usize,
    threshold: f64,
    methods: BTreeMap<String, MethodEval>,
}

#[derive(Debug, Serialize)]
struct LabelsResponse {
    domain: String,
    loaded: usize,
    total: usize,
}

#[derive(Debug, Serialize)]
struct FactResponse {
    domain: String,
    id: u64,
    entity: String,
    attribute: String,
    claims: usize,
    positive: usize,
    probability: f64,
    epoch: u64,
}

#[derive(Debug, Serialize)]
struct HealthResponse {
    status: String,
    epoch: u64,
}

#[derive(Debug, Serialize)]
struct DomainInfo {
    name: String,
    kind: String,
    epoch: u64,
    facts: usize,
}

#[derive(Debug, Serialize)]
struct DomainsResponse {
    domains: Vec<DomainInfo>,
}

#[derive(Debug, Serialize)]
struct ErrorResponse {
    error: String,
}

fn json<T: serde::Serialize>(status: u16, value: &T) -> (u16, String) {
    (
        status,
        serde_json::to_string(value).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}")),
    )
}

fn error(status: u16, message: impl Into<String>) -> (u16, String) {
    json(
        status,
        &ErrorResponse {
            error: message.into(),
        },
    )
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn route(ctx: &Context, req: &Request) -> (u16, String) {
    let method = req.method.as_str();
    let path = req.path.as_str();

    // Domain-scoped routes: `/d/{domain}/rest…`.
    if let Some(after) = path.strip_prefix("/d/") {
        let Some((name, rest)) = after.split_once('/') else {
            return error(
                404,
                format!("no route for {path} (expected /d/{{domain}}/…)"),
            );
        };
        let Some(domain) = ctx.domains.get(name) else {
            return error(404, format!("no domain `{name}`"));
        };
        return route_domain(ctx, &domain, method, &format!("/{rest}"), &req.body);
    }
    match path {
        "/healthz" => match method {
            "GET" => {
                let epoch = ctx.domains.default_domain().predictor().load().epoch;
                if ctx.degraded() {
                    json(
                        503,
                        &HealthResponse {
                            status: "degraded".into(),
                            epoch,
                        },
                    )
                } else {
                    json(
                        200,
                        &HealthResponse {
                            status: "ok".into(),
                            epoch,
                        },
                    )
                }
            }
            _ => error(405, "use GET /healthz"),
        },
        "/stats" => match method {
            "GET" => stats(ctx),
            _ => error(405, "use GET /stats"),
        },
        "/metrics" => match method {
            "GET" => metrics(ctx),
            _ => error(405, "use GET /metrics"),
        },
        "/domains" => match method {
            "GET" => list_domains(ctx),
            _ => error(405, "use GET /domains (create with POST /admin/domains)"),
        },
        "/admin/domains" => match method {
            "POST" => admin_create_domain(ctx, &req.body),
            _ => error(405, "use POST /admin/domains"),
        },
        "/admin/snapshot" => match method {
            "POST" => admin_snapshot(ctx, &req.body),
            _ => error(405, "use POST /admin/snapshot"),
        },
        "/admin/compact" => match method {
            "POST" => admin_compact(ctx),
            _ => error(405, "use POST /admin/compact"),
        },
        "/admin/shutdown" => match method {
            "POST" => {
                let (flag, cv) = &ctx.shutdown_requested;
                *flag.locked() = true;
                cv.notify_all();
                json(
                    202,
                    &HealthResponse {
                        status: "shutting down".into(),
                        epoch: ctx.domains.default_domain().predictor().load().epoch,
                    },
                )
            }
            _ => error(405, "use POST /admin/shutdown"),
        },
        // Everything else is a default-domain route.
        _ => route_domain(ctx, &ctx.domains.default_domain(), method, path, &req.body),
    }
}

/// Routes a request that resolved to one domain (either via `/d/{name}`
/// or the legacy un-prefixed paths on the default domain).
fn route_domain(
    ctx: &Context,
    domain: &Domain,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    match path {
        "/claims" => match method {
            "POST" => ingest(domain, body),
            _ => error(405, "use POST /claims"),
        },
        p if p == "/query/batch" || p.starts_with("/query/batch?") => match method {
            "POST" => query_batch(ctx, domain, p, body),
            _ => error(405, "use POST …/query/batch"),
        },
        p if p == "/query" || p.starts_with("/query?") => match method {
            "POST" => query(domain, p, body),
            _ => error(405, "use POST /query"),
        },
        "/stats" => match method {
            "GET" => json(200, &domain_section(&DomainSample::new(domain))),
            _ => error(405, "use GET …/stats"),
        },
        "/eval" => match method {
            "GET" => eval(domain),
            _ => error(405, "use GET …/eval"),
        },
        "/admin/labels" => match method {
            "POST" => admin_labels(domain, body),
            _ => error(405, "use POST …/admin/labels"),
        },
        p if p == "/admin/refit" || p.starts_with("/admin/refit?") => match method {
            "POST" => admin_refit(ctx, domain, p),
            _ => error(405, "use POST …/admin/refit"),
        },
        p if p.starts_with("/facts/") => match method {
            // analyzer: allow(panic-index) -- guarded by the starts_with("/facts/") arm
            "GET" => fact(domain, &p["/facts/".len()..]),
            _ => error(405, "use GET …/facts/{id}"),
        },
        other => error(404, format!("no route for {other}")),
    }
}

/// `POST …/admin/refit[?mode=full|incremental]` — arms the domain's
/// daemon. The default (no query) lets the daemon's own schedule pick
/// the mode; `mode=full` forces a reconciliation pass that rebuilds the
/// accumulator from zero.
fn admin_refit(_ctx: &Context, domain: &Domain, path: &str) -> (u16, String) {
    let query = path.split_once('?').map(|(_, q)| q).unwrap_or("");
    let status = match query {
        "" | "mode=incremental" => {
            domain.trigger_refit();
            "refit triggered"
        }
        "mode=full" => {
            domain.trigger_full_refit();
            "full refit triggered"
        }
        other => {
            return error(
                400,
                format!("unknown refit query `{other}` (use mode=full or mode=incremental)"),
            )
        }
    };
    json(
        202,
        &HealthResponse {
            status: status.into(),
            epoch: domain.predictor().load().epoch,
        },
    )
}

// ---------------------------------------------------------------------------
// Stats: one table behind `/d/{name}/stats`, `/stats` and `/metrics`
// ---------------------------------------------------------------------------

/// One domain's stat sources, each read once per render, so every row of
/// one response sees the same moment.
struct DomainSample<'a> {
    domain: &'a Domain,
    store: StoreStats,
    epoch: Arc<EpochSnapshot>,
    refit: RefitCounters,
    /// `(appends, fsyncs, bytes, replayed_rows)`; zeros without a WAL.
    wal: (u64, u64, u64, u64),
}

impl<'a> DomainSample<'a> {
    fn new(domain: &'a Domain) -> Self {
        Self {
            domain,
            store: domain.store().stats(),
            epoch: domain.predictor().load(),
            refit: domain.refit_state().locked().counters(),
            wal: domain.wal().map_or((0, 0, 0, 0), |w| w.counters()),
        }
    }
}

/// A stat's value. Integers render without a decimal point on both
/// surfaces; floats keep one in JSON.
#[derive(Debug, Clone, Copy)]
enum Num {
    Int(u64),
    Float(f64),
}

use Num::{Float, Int};

impl Num {
    fn add(self, other: Num) -> Num {
        match (self, other) {
            (Int(a), Int(b)) => Int(a + b),
            (a, b) => Float(a.as_f64() + b.as_f64()),
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Int(v) => v as f64,
            Float(v) => v,
        }
    }

    fn to_json(self) -> Value {
        match self {
            Int(v) => v.to_value(),
            Float(v) => Value::Float(v),
        }
    }

    fn to_prometheus(self) -> String {
        match self {
            Int(v) => v.to_string(),
            Float(v) => fmt_f64(v),
        }
    }
}

/// How the global `/stats` body reports a per-domain stat.
#[derive(Debug, Clone, Copy)]
enum Global {
    /// The sum over every domain, so the sections add up to it.
    Sum,
    /// The [`DEFAULT_DOMAIN`]'s value: the epoch-shaped stats, which
    /// single-domain deployments read at the top level.
    Mirror,
    /// Absent: only the per-domain sections carry it.
    Omit,
}

use Global::{Mirror, Omit, Sum};

/// One per-domain stat, named once for all three surfaces.
struct Stat {
    /// The `/stats` key; `None` keeps the stat off both JSON bodies.
    key: Option<&'static str>,
    /// The `/metrics` family and its type, one `domain=` series per
    /// domain; `None` keeps the stat off `/metrics`.
    family: Option<(&'static str, &'static str)>,
    global: Global,
    read: fn(&DomainSample<'_>) -> Num,
}

const fn stat(
    key: &'static str,
    family: Option<(&'static str, &'static str)>,
    global: Global,
    read: fn(&DomainSample<'_>) -> Num,
) -> Stat {
    Stat {
        key: Some(key),
        family,
        global,
        read,
    }
}

const fn gauge(family: &'static str) -> Option<(&'static str, &'static str)> {
    Some((family, "gauge"))
}

const fn counter(family: &'static str) -> Option<(&'static str, &'static str)> {
    Some((family, "counter"))
}

/// Every per-domain stat. `/d/{name}/stats`, `/stats` and `/metrics` all
/// walk this table, so the two surfaces cannot disagree and the `Sum`
/// rows of the global body are the sums of the sections by construction.
/// Adding a stat is adding a row.
#[rustfmt::skip]
const DOMAIN_STATS: &[Stat] = &[
    stat("shards",                      None,                                        Mirror, |s| Int(s.store.shards as u64)),
    stat("facts",                       gauge("ltm_store_facts"),                    Sum,    |s| Int(s.store.facts as u64)),
    stat("claims",                      gauge("ltm_store_claims"),                   Sum,    |s| Int(s.store.claims as u64)),
    stat("positive_claims",             gauge("ltm_store_positive_claims"),          Sum,    |s| Int(s.store.positive_claims as u64)),
    stat("sources",                     gauge("ltm_store_sources"),                  Sum,    |s| Int(s.store.sources as u64)),
    stat("pending",                     gauge("ltm_store_pending"),                  Sum,    |s| Int(s.store.pending as u64)),
    stat("duplicate_rows",              counter("ltm_store_duplicate_rows_total"),   Sum,    |s| Int(s.store.duplicate_rows)),
    stat("epoch",                       gauge("ltm_epoch"),                          Mirror, |s| Int(s.epoch.epoch)),
    stat("epoch_max_rhat",              gauge("ltm_epoch_max_rhat"),                 Mirror, |s| Float(s.epoch.max_rhat)),
    stat("epoch_converged_fraction",    gauge("ltm_epoch_converged_fraction"),       Mirror, |s| Float(s.epoch.converged_fraction)),
    stat("epoch_trained_claims",        gauge("ltm_epoch_trained_claims"),           Mirror, |s| Int(s.epoch.trained_claims as u64)),
    stat("epochs_published",            counter("ltm_epochs_published_total"),       Sum,    |s| Int(s.domain.predictor().epochs_published())),
    stat("epochs_rejected",             counter("ltm_epochs_rejected_total"),        Sum,    |s| Int(s.domain.predictor().epochs_rejected())),
    stat("refits_started",              counter("ltm_refits_started_total"),         Sum,    |s| Int(s.domain.daemon().map_or(0, |d| d.refits_started()))),
    stat("refits_incremental",          counter("ltm_refits_incremental_total"),     Sum,    |s| Int(s.refit.refits_incremental)),
    stat("refits_full",                 counter("ltm_refits_full_total"),            Sum,    |s| Int(s.refit.refits_full)),
    stat("refits_failed",               counter("ltm_refits_failed_total"),          Sum,    |s| Int(s.refit.refits_failed)),
    stat("last_incremental_refit_secs", gauge("ltm_last_incremental_refit_seconds"), Mirror, |s| Float(s.refit.last_incremental_secs)),
    stat("last_full_refit_secs",        gauge("ltm_last_full_refit_seconds"),        Mirror, |s| Float(s.refit.last_full_secs)),
    stat("fold_watermark",              gauge("ltm_fold_watermark"),                 Mirror, |s| Int(s.refit.watermark)),
    stat("wal_appends",                 counter("ltm_wal_appends_total"),            Sum,    |s| Int(s.wal.0)),
    stat("wal_fsyncs",                  counter("ltm_wal_fsyncs_total"),             Sum,    |s| Int(s.wal.1)),
    stat("wal_bytes",                   counter("ltm_wal_bytes_total"),              Sum,    |s| Int(s.wal.2)),
    stat("wal_replayed_rows",           counter("ltm_wal_replayed_rows_total"),      Sum,    |s| Int(s.wal.3)),
    stat("labels_loaded",               gauge("ltm_eval_labels"),                    Omit,   |s| Int(s.domain.num_labels() as u64)),
    stat("shadow_facts",                gauge("ltm_shadow_facts"),                   Omit,   |s| Int(s.epoch.shadow.as_deref().map_or(0, |t| t.num_facts()) as u64)),
    Stat { key: None, family: gauge("ltm_epoch_age_seconds"), global: Omit, read: |s| Float(s.domain.predictor().epoch_age_secs()) },
];

/// The pairwise agreement of a sample's shadow methods (empty when the
/// epoch has no shadow tables), with the methods as wire names.
fn agreement(s: &DomainSample<'_>) -> (Vec<String>, Agreement) {
    let agreement = s
        .epoch
        .shadow
        .as_deref()
        .map(|t| t.agreement.clone())
        .unwrap_or_default();
    let methods = agreement
        .methods
        .iter()
        .map(|m| shadow::wire_name(m))
        .collect();
    (methods, agreement)
}

/// One domain's `/stats` section: its kind, every keyed row of
/// [`DOMAIN_STATS`], and the shadow agreement matrices.
fn domain_section(s: &DomainSample<'_>) -> Value {
    let mut fields = vec![("kind".to_owned(), s.domain.kind().as_str().to_value())];
    for row in DOMAIN_STATS {
        if let Some(key) = row.key {
            fields.push((key.to_owned(), (row.read)(s).to_json()));
        }
    }
    let (methods, agreement) = agreement(s);
    let shadow = [
        ("shadow_methods", methods.to_value()),
        ("shadow_correlation", agreement.correlation.to_value()),
        ("shadow_decision_flips", agreement.decision_flips.to_value()),
    ];
    fields.extend(shadow.map(|(key, value)| (key.to_owned(), value)));
    Value::Object(fields)
}

/// `GET /stats` — the [`DOMAIN_STATS`] rows folded over every domain (see
/// [`Global`]), the server-wide counters, and every domain's section
/// under `domains`. `last_compaction_secs` is `-1.0` when no compaction
/// has run or no WAL is configured.
fn stats(ctx: &Context) -> (u16, String) {
    let domains = ctx.domains.list();
    let samples: Vec<DomainSample<'_>> = domains.iter().map(|d| DomainSample::new(d)).collect();
    let Some(default) = samples.iter().find(|s| s.domain.name() == DEFAULT_DOMAIN) else {
        return error(500, "the default domain is missing");
    };
    let mut fields = Vec::new();
    for row in DOMAIN_STATS {
        let Some(key) = row.key else { continue };
        let value = match row.global {
            Sum => samples.iter().map(row.read).fold(Int(0), Num::add),
            Mirror => (row.read)(default),
            Omit => continue,
        };
        fields.push((key.to_owned(), value.to_json()));
    }
    let (last_compaction_secs, compactions) = ctx.compaction_status();
    let uptime_secs = ctx.started.elapsed().as_secs_f64();
    let sections: BTreeMap<String, Value> = samples
        .iter()
        .map(|s| (s.domain.name().to_owned(), domain_section(s)))
        .collect();
    let server = [
        ("last_compaction_secs", last_compaction_secs.to_value()),
        ("compactions", compactions.to_value()),
        ("requests", ctx.requests.get().to_value()),
        ("open_connections", ctx.open_connections.get().to_value()),
        ("keepalive_reuses", ctx.keepalive_reuse.get().to_value()),
        ("batch_queries", ctx.batch_size.count().to_value()),
        ("uptime_secs", uptime_secs.to_value()),
        ("version", obs::BUILD_VERSION.to_value()),
        ("git_describe", obs::BUILD_GIT.to_value()),
        ("domains", sections.to_value()),
    ];
    fields.extend(server.map(|(key, value)| (key.to_owned(), value)));
    json(200, &Value::Object(fields))
}

/// `GET /metrics` — the whole registry in Prometheus text exposition
/// format, followed by the families sampled at scrape time.
fn metrics(ctx: &Context) -> (u16, String) {
    let mut out = String::new();
    ctx.obs.render_prometheus(&mut out);
    render_sampled_metrics(ctx, &mut out);
    (200, out)
}

/// Appends the point-in-time families `/metrics` samples at scrape time
/// (values that live in domain stores/predictors rather than in
/// registry-owned atomics): the server-wide gauges, every
/// [`DOMAIN_STATS`] row with a family, and the shadow agreement pairs.
fn render_sampled_metrics(ctx: &Context, out: &mut String) {
    use std::fmt::Write as _;

    let _ = writeln!(out, "# TYPE ltm_build_info gauge");
    let _ = writeln!(
        out,
        "ltm_build_info{{version=\"{}\",git=\"{}\"}} 1",
        escape_label(obs::BUILD_VERSION),
        escape_label(obs::BUILD_GIT)
    );
    let _ = writeln!(out, "# TYPE ltm_uptime_seconds gauge");
    let _ = writeln!(
        out,
        "ltm_uptime_seconds {}",
        fmt_f64(ctx.started.elapsed().as_secs_f64())
    );
    let _ = writeln!(out, "# TYPE ltm_degraded gauge");
    let _ = writeln!(out, "ltm_degraded {}", u8::from(ctx.degraded()));
    let (last_compaction_secs, compactions) = ctx.compaction_status();
    let _ = writeln!(out, "# TYPE ltm_wal_compactions_total counter");
    let _ = writeln!(out, "ltm_wal_compactions_total {compactions}");
    let _ = writeln!(out, "# TYPE ltm_last_compaction_age_seconds gauge");
    let _ = writeln!(
        out,
        "ltm_last_compaction_age_seconds {}",
        fmt_f64(last_compaction_secs)
    );

    let domains = ctx.domains.list();
    let samples: Vec<DomainSample<'_>> = domains.iter().map(|d| DomainSample::new(d)).collect();
    for row in DOMAIN_STATS {
        let Some((family, kind)) = row.family else {
            continue;
        };
        let _ = writeln!(out, "# TYPE {family} {kind}");
        for s in &samples {
            let _ = writeln!(
                out,
                "{family}{{domain=\"{}\"}} {}",
                escape_label(s.domain.name()),
                (row.read)(s).to_prometheus()
            );
        }
    }

    // The agreement matrices are symmetric with a trivial diagonal, so
    // only the upper triangle is exposed (a= < b= in method order).
    type Cell = fn(&Agreement, usize, usize) -> Option<String>;
    let matrices: [(&str, Cell); 2] = [
        ("ltm_shadow_correlation", |a, i, j| {
            a.correlation.get(i)?.get(j).map(|c| fmt_f64(*c))
        }),
        ("ltm_shadow_decision_flips", |a, i, j| {
            a.decision_flips.get(i)?.get(j).map(u64::to_string)
        }),
    ];
    let agreements: Vec<(Vec<String>, Agreement)> = samples.iter().map(agreement).collect();
    for (family, cell) in matrices {
        let _ = writeln!(out, "# TYPE {family} gauge");
        for (s, (methods, agreement)) in samples.iter().zip(&agreements) {
            for (i, a) in methods.iter().enumerate() {
                for (j, b) in methods.iter().enumerate().skip(i + 1) {
                    let Some(value) = cell(agreement, i, j) else {
                        continue;
                    };
                    let _ = writeln!(
                        out,
                        "{family}{{domain=\"{}\",a=\"{}\",b=\"{}\"}} {value}",
                        escape_label(s.domain.name()),
                        escape_label(a),
                        escape_label(b),
                    );
                }
            }
        }
    }
}

fn list_domains(ctx: &Context) -> (u16, String) {
    let domains = ctx
        .domains
        .list()
        .iter()
        .map(|d| DomainInfo {
            name: d.name().to_owned(),
            kind: d.kind().as_str().to_owned(),
            epoch: d.predictor().load().epoch,
            facts: d.store().stats().facts,
        })
        .collect();
    json(200, &DomainsResponse { domains })
}

fn admin_create_domain(ctx: &Context, body: &str) -> (u16, String) {
    let parsed: Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(e) => return error(400, format!("bad domain body: {e}")),
    };
    let field = |name: &str| match parsed.get_field(name) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("domain body needs a string `{name}` field")),
    };
    let (name, kind_text) = match (field("name"), field("kind")) {
        (Ok(n), Ok(k)) => (n, k),
        (Err(e), _) | (_, Err(e)) => return error(400, e),
    };
    let kind: ModelKind = match kind_text.parse() {
        Ok(k) => k,
        Err(e) => return error(400, format!("{e}")),
    };
    match create_domain(ctx, &name, kind) {
        Ok(domain) => json(
            201,
            &DomainInfo {
                name: domain.name().to_owned(),
                kind: domain.kind().as_str().to_owned(),
                epoch: 0,
                facts: 0,
            },
        ),
        Err(DomainError::AlreadyExists(name)) => {
            error(409, format!("domain `{name}` already exists"))
        }
        Err(DomainError::InvalidName(msg)) => error(400, msg),
        Err(DomainError::Wal(msg)) => error(500, msg),
    }
}

/// Creates and registers a runtime domain, spawning its refit daemon
/// only after the registry accepted the name. On a WAL-enabled server
/// the new domain gets its own log (and `meta.json` sidecar, so a later
/// boot re-creates the domain even if no snapshot ever records it)
/// before it can accept a single claim.
fn create_domain(ctx: &Context, name: &str, kind: ModelKind) -> Result<Arc<Domain>, DomainError> {
    let domain = Domain::new(name, kind, ctx.shards, &ctx.refit);
    if let Some(wal_config) = &ctx.wal {
        let meta = WalDomainMeta {
            kind: kind.as_str().to_owned(),
            shards: ctx.shards,
        };
        let (domain_wal, _) = DomainWal::open(wal_config, name, &meta, domain.store())
            .map_err(|e| DomainError::Wal(format!("cannot open WAL for `{name}`: {e}")))?;
        domain.attach_wal(Arc::new(domain_wal));
    }
    if ctx.metrics {
        attach_domain_obs(&ctx.obs, &domain);
    }
    ctx.domains.insert(Arc::clone(&domain))?;
    domain.spawn_daemon(ctx.refit.clone());
    Ok(domain)
}

/// Parses an ingest body into rows. Boolean and positive-only domains
/// take 3-field triples; real-valued domains take 4-field rows with a
/// finite numeric value.
fn parse_triples(body: &str, kind: ModelKind) -> Result<Vec<LogRecord>, String> {
    let parsed: Value = serde_json::from_str(body).map_err(|e| format!("bad claims body: {e}"))?;
    let Some(Value::Array(rows)) = parsed.get_field("triples") else {
        return Err("claims body needs a `triples` array".into());
    };
    let want = if kind.valued() { 4 } else { 3 };
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let Value::Array(fields) = row else {
            return Err(format!(
                "triple {i} is not an array; no triples were ingested"
            ));
        };
        if fields.len() != want {
            return Err(format!(
                "triple {i} has {} fields, expected {want} for a {} domain; no triples \
                 were ingested",
                fields.len(),
                kind
            ));
        }
        // analyzer: allow(panic-index) -- fields.len() == want was checked above; callers pass j < want
        let text = |j: usize| match &fields[j] {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("triple {i} field {j} is not a string: {other:?}")),
        };
        let value = if kind.valued() {
            // analyzer: allow(panic-index) -- valued kinds were checked to have want == 4 fields
            let Some(v) = fields[3].as_f64() else {
                return Err(format!(
                    "triple {i} value is not a number: {:?}; no triples were ingested",
                    // analyzer: allow(panic-index) -- valued kinds were checked to have want == 4 fields
                    fields[3]
                ));
            };
            if !v.is_finite() {
                return Err(format!("triple {i} value must be finite"));
            }
            Some(v)
        } else {
            None
        };
        out.push(LogRecord {
            entity: text(0)?,
            attr: text(1)?,
            source: text(2)?,
            value,
        });
    }
    Ok(out)
}

fn ingest(domain: &Domain, body: &str) -> (u16, String) {
    // Validate the whole batch before committing any of it, so a 400
    // never leaves a silently half-ingested prefix behind.
    let records = match parse_triples(body, domain.kind()) {
        Ok(records) => records,
        Err(e) => return error(400, e),
    };
    // One batched ingest: journaled to the WAL (if attached) under the
    // ingest-order lock and fsync'd before the 200 below — the ack IS
    // the durability contract.
    let outcome = match domain.ingest_batch(&records) {
        Ok(outcome) => outcome,
        Err(e) => {
            return error(
                500,
                format!(
                    "wal write failed: {e}; the rows are in memory but NOT durable — \
                     retry once the log recovers (duplicates are deduplicated, and the \
                     retry is acked only after the rows are re-journaled to the WAL)"
                ),
            )
        }
    };
    json(
        200,
        &ClaimsResponse {
            domain: domain.name().to_owned(),
            accepted: outcome.accepted as usize,
            duplicates: outcome.duplicates as usize,
            new_facts: outcome.new_facts as usize,
            pending: domain.store().pending(),
            epoch: domain.predictor().load().epoch,
        },
    )
}

/// Parses the `?methods=` query parameter of a query path. `Ok(None)`
/// when absent (the legacy LTM-only query), `Ok(Some(list))` with the
/// requested wire names otherwise (`all` expands to every shadow method
/// plus the ensemble).
fn parse_methods_param(path: &str) -> Result<Option<Vec<String>>, String> {
    let Some((_, query_string)) = path.split_once('?') else {
        return Ok(None);
    };
    let mut methods = None;
    for pair in query_string.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("methods", list)) => methods = Some(list),
            _ => return Err(format!("unknown query parameter `{pair}` (use methods=)")),
        }
    }
    let Some(list) = methods else { return Ok(None) };
    if list == "all" {
        let mut all = vec![shadow::wire_name(shadow::LTM_METHOD)];
        all.extend(
            ltm_baselines::all_baselines()
                .iter()
                .map(|m| shadow::wire_name(m.name())),
        );
        all.push(shadow::ENSEMBLE_METHOD.to_owned());
        return Ok(Some(all));
    }
    let requested: Vec<String> = list
        .split(',')
        .filter(|m| !m.is_empty())
        .map(str::to_owned)
        .collect();
    if requested.is_empty() {
        return Err("methods= lists no methods (use methods=all or a comma list)".into());
    }
    Ok(Some(requested))
}

/// Why `?methods=` is refused on a real-valued domain.
const NO_SHADOW_METHODS: &str = "real-valued domains have no shadow methods (drop ?methods=)";

/// Why shadow methods and `/eval` are refused on an epoch without shadow
/// tables.
const NO_SHADOW_TABLES: &str = "no shadow tables published yet (wait for the first promoted \
                                refit, or the server runs with shadow fitting disabled)";

/// Scores one boolean claim list under every requested method, given its
/// Equation-3 `probability`, which is both the `ltm` score and the LTM
/// member of the ensemble. Every method but `ltm` reads `tables`; a name
/// that matches no column is an unknown method.
fn method_scores(
    requested: &[String],
    tables: Option<&ShadowTables>,
    probability: f64,
    claims: &[(SourceId, bool)],
) -> Result<BTreeMap<String, f64>, String> {
    let ltm_wire = shadow::wire_name(shadow::LTM_METHOD);
    let mut out = BTreeMap::new();
    for wire in requested {
        let score = if *wire == ltm_wire {
            Some(probability)
        } else if *wire == shadow::ENSEMBLE_METHOD {
            tables.map(|tables| {
                let per_method: Vec<f64> = tables
                    .methods
                    .iter()
                    .enumerate()
                    .map(|(m, col)| {
                        if m == 0 {
                            probability
                        } else {
                            shadow::score_claims(&col.trust, claims)
                        }
                    })
                    .collect();
                tables.ensemble_of(&per_method)
            })
        } else {
            tables
                .and_then(|tables| tables.methods.get(tables.method_index(wire)?))
                .map(|col| shadow::score_claims(&col.trust, claims))
        };
        let Some(score) = score else {
            return Err(format!(
                "unknown method `{wire}` (use methods=all, or a comma list of \
                 ltm, ensemble, {})",
                ltm_baselines::all_baselines()
                    .iter()
                    .map(|m| shadow::wire_name(m.name()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        };
        out.insert(wire.clone(), score);
    }
    Ok(out)
}

/// One ad-hoc claim list parsed per the domain's kind: exactly one of
/// the two vectors is populated. Unknown source names resolve to an
/// out-of-range id that hits the predictor's prior-mean fallback and are
/// reported back by name.
struct ParsedClaims {
    bool_claims: Vec<(SourceId, bool)>,
    real_claims: Vec<(SourceId, f64)>,
    unknown: Vec<String>,
}

/// Parses one `claims`-shaped array (`[["source", true|false|value], …]`)
/// against a domain. `label` prefixes error messages (`"claim"` for the
/// single-query endpoint, `"query N claim"` for batch items).
fn parse_claim_rows(domain: &Domain, rows: &[Value], label: &str) -> Result<ParsedClaims, String> {
    let store = domain.store();
    let mut unknown = Vec::new();
    let mut resolve = |name: &str| {
        store.source_id(name).unwrap_or_else(|| {
            unknown.push(name.to_owned());
            SourceId::new(u32::MAX)
        })
    };
    let valued = domain.kind().valued();
    let mut bool_claims: Vec<(SourceId, bool)> = Vec::new();
    let mut real_claims: Vec<(SourceId, f64)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let Value::Array(fields) = row else {
            return Err(format!("{label} {i} is not an array"));
        };
        let [Value::Str(name), observation] = fields.as_slice() else {
            return Err(format!(
                "{label} {i} must be [\"source\", {}]",
                if valued { "value" } else { "true|false" }
            ));
        };
        if valued {
            let Some(v) = observation.as_f64() else {
                return Err(format!(
                    "{label} {i}: this domain is real_valued; expected a numeric \
                     value, got {observation:?}"
                ));
            };
            if !v.is_finite() {
                return Err(format!("{label} {i} value must be finite"));
            }
            real_claims.push((resolve(name), v));
        } else {
            let Value::Bool(o) = observation else {
                return Err(format!(
                    "{label} {i}: this domain is {}; expected true|false, got {observation:?}",
                    domain.kind()
                ));
            };
            bool_claims.push((resolve(name), *o));
        }
    }
    Ok(ParsedClaims {
        bool_claims,
        real_claims,
        unknown,
    })
}

/// The one answer path of `/query` and `/query/batch`: answers every
/// claim list against **one** epoch snapshot, so the answers agree with
/// each other and no promotion lands between two of them. `?methods=` is
/// refused with 409 on a real-valued domain, then with 409 for methods
/// beyond `ltm` while the epoch has no shadow tables, each checked once;
/// an unknown method is a 400 when the first list is scored. Each list's
/// probability is computed once. Returns the epoch and the answers in
/// list order.
fn answer(
    domain: &Domain,
    methods: Option<&[String]>,
    lists: Vec<ParsedClaims>,
) -> Result<(u64, Vec<Answer>), (u16, String)> {
    let valued = domain.kind().valued();
    let snap = domain.predictor().load();
    let tables = snap.shadow.as_deref();
    if let Some(requested) = methods {
        if valued {
            return Err(error(409, NO_SHADOW_METHODS));
        }
        let ltm_wire = shadow::wire_name(shadow::LTM_METHOD);
        if tables.is_none() && requested.iter().any(|m| *m != ltm_wire) {
            return Err(error(409, NO_SHADOW_TABLES));
        }
    }
    let mut answers = Vec::with_capacity(lists.len());
    for list in lists {
        let probability = if valued {
            snap.predictor.predict_real(&list.real_claims)
        } else {
            snap.predictor.predict_fact(&list.bool_claims)
        };
        let scores = methods
            .map(|requested| method_scores(requested, tables, probability, &list.bool_claims))
            .transpose()
            .map_err(|e| error(400, e))?;
        answers.push(Answer {
            probability,
            unknown_sources: list.unknown,
            methods: scores,
        });
    }
    Ok((snap.epoch, answers))
}

/// `POST …/query[?methods=…]` — answers one claim list
/// (`{"claims": [["source", true|false|value], …]}`) as
/// `{domain, probability, epoch, unknown_sources[, methods]}`.
fn query(domain: &Domain, path: &str, body: &str) -> (u16, String) {
    let methods = match parse_methods_param(path) {
        Ok(m) => m,
        Err(e) => return error(400, e),
    };
    let parsed: Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(e) => return error(400, format!("bad query body: {e}")),
    };
    let Some(Value::Array(rows)) = parsed.get_field("claims") else {
        return error(400, "query body needs a `claims` array");
    };
    let list = match parse_claim_rows(domain, rows, "claim") {
        Ok(list) => list,
        Err(e) => return error(400, e),
    };
    match answer(domain, methods.as_deref(), vec![list]) {
        Ok((epoch, answers)) => {
            let mut fields = vec![("domain".to_owned(), domain.name().to_value())];
            fields.extend(answers.iter().flat_map(|a| a.fields(Some(epoch))));
            json(200, &Value::Object(fields))
        }
        Err(rejection) => rejection,
    }
}

/// `POST …/query/batch[?methods=…]` — answers a JSON array of claim lists
/// (`{"queries": [[["source", true], …], …]}`) as `{domain, epoch, count,
/// results}`, results in request order. An empty batch is a valid no-op.
/// Every entry is parsed before any is answered, so a 400 never returns
/// a half-answered batch.
fn query_batch(ctx: &Context, domain: &Domain, path: &str, body: &str) -> (u16, String) {
    let methods = match parse_methods_param(path) {
        Ok(m) => m,
        Err(e) => return error(400, e),
    };
    let parsed: Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(e) => return error(400, format!("bad batch body: {e}")),
    };
    let Some(Value::Array(queries)) = parsed.get_field("queries") else {
        return error(
            400,
            "batch body needs a `queries` array (each entry a `claims`-shaped array)",
        );
    };
    let mut lists = Vec::with_capacity(queries.len());
    for (q, entry) in queries.iter().enumerate() {
        let Value::Array(rows) = entry else {
            return error(400, format!("query {q} is not an array of claims"));
        };
        match parse_claim_rows(domain, rows, &format!("query {q} claim")) {
            Ok(list) => lists.push(list),
            Err(e) => return error(400, e),
        }
    }
    if ctx.metrics {
        ctx.batch_size.record(lists.len() as u64);
    }
    match answer(domain, methods.as_deref(), lists) {
        Ok((epoch, results)) => json(
            200,
            &BatchResponse {
                domain: domain.name().to_owned(),
                epoch,
                count: results.len(),
                results,
            },
        ),
        Err(rejection) => rejection,
    }
}

/// `GET …/eval` — joins the loaded ground-truth labels against the
/// current epoch's shadow tables (by `(entity, attr)` name → global fact
/// id) and reports accuracy/precision/recall/F1/AUC/Brier per method,
/// including the rank-average ensemble.
fn eval(domain: &Domain) -> (u16, String) {
    let labels = domain.labels();
    if labels.is_empty() {
        return error(
            409,
            "no labels loaded (POST …/admin/labels or start with --labels FILE)",
        );
    }
    let snap = domain.predictor().load();
    let Some(tables) = snap.shadow.as_deref() else {
        return error(409, NO_SHADOW_TABLES);
    };
    // Join labels to shadow rows. The label lock is already released;
    // fact_id_by_name takes one shard lock per lookup.
    let store = domain.store();
    let mut rows: Vec<usize> = Vec::new();
    let mut truths: Vec<bool> = Vec::new();
    for (entity, attr, truth) in &labels {
        let Some(id) = store.fact_id_by_name(entity, attr) else {
            continue;
        };
        let Ok(row) = tables.fact_ids.binary_search(&id) else {
            continue;
        };
        rows.push(row);
        truths.push(*truth);
    }
    if rows.is_empty() {
        return error(
            409,
            format!(
                "none of the {} label(s) match facts in the current shadow tables",
                labels.len()
            ),
        );
    }
    let mut truth = ltm_model::GroundTruth::new();
    for (i, &t) in truths.iter().enumerate() {
        truth.insert(
            ltm_model::EntityId::new(0),
            ltm_model::FactId::from_usize(i),
            t,
        );
    }
    let threshold = 0.5;
    let score_eval = |scores: Vec<f64>| {
        let pred = ltm_model::TruthAssignment::new(scores);
        let m = ltm_eval::evaluate(&truth, &pred, threshold);
        MethodEval {
            accuracy: m.accuracy,
            precision: m.precision,
            recall: m.recall,
            f1: m.f1,
            auc: ltm_eval::auc(&truth, &pred),
            brier: ltm_eval::brier_score(&truth, &pred),
        }
    };
    let mut methods = BTreeMap::new();
    for col in &tables.methods {
        let scores: Vec<f64> = rows
            .iter()
            .filter_map(|&r| col.scores.get(r).copied())
            .collect();
        methods.insert(shadow::wire_name(&col.name), score_eval(scores));
    }
    let ensemble: Vec<f64> = rows
        .iter()
        .filter_map(|&r| tables.ensemble.get(r).copied())
        .collect();
    methods.insert(shadow::ENSEMBLE_METHOD.to_owned(), score_eval(ensemble));
    json(
        200,
        &EvalResponse {
            domain: domain.name().to_owned(),
            epoch: snap.epoch,
            labels: labels.len(),
            matched: rows.len(),
            threshold,
            methods,
        },
    )
}

/// `POST …/admin/labels` — merges ground-truth labels into the domain:
/// `{"labels": [["entity", "attr", true], …]}`.
fn admin_labels(domain: &Domain, body: &str) -> (u16, String) {
    let parsed: Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(e) => return error(400, format!("bad labels body: {e}")),
    };
    let Some(Value::Array(rows)) = parsed.get_field("labels") else {
        return error(400, "labels body needs a `labels` array");
    };
    let mut parsed_rows = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let Value::Array(fields) = row else {
            return error(
                400,
                format!("label {i} is not an array; no labels were loaded"),
            );
        };
        let [Value::Str(entity), Value::Str(attr), Value::Bool(truth)] = fields.as_slice() else {
            return error(
                400,
                format!("label {i} must be [\"entity\", \"attr\", true|false]"),
            );
        };
        parsed_rows.push((entity.clone(), attr.clone(), *truth));
    }
    let loaded = parsed_rows.len();
    let total = domain.add_labels(parsed_rows);
    json(
        200,
        &LabelsResponse {
            domain: domain.name().to_owned(),
            loaded,
            total,
        },
    )
}

/// How a `/facts/{id}` path segment parsed.
enum FactId {
    /// A canonical decimal id.
    Ok(u64),
    /// Syntactically not a fact id (signs, blanks, trailing segments…).
    Malformed,
    /// All digits but beyond `u64` — cannot name a stored fact.
    OutOfRange,
}

/// Strict fact-id parsing: ASCII digits only. `u64::from_str` also
/// accepts a leading `+`, so `/facts/+3` would otherwise alias
/// `/facts/3` — a malformed path must be a clean 400, never a quiet
/// alias of a valid one.
fn parse_fact_id(text: &str) -> FactId {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return FactId::Malformed;
    }
    match text.parse::<u64>() {
        Ok(id) => FactId::Ok(id),
        Err(_) => FactId::OutOfRange,
    }
}

fn fact(domain: &Domain, id_text: &str) -> (u16, String) {
    let id = match parse_fact_id(id_text) {
        FactId::Ok(id) => id,
        FactId::Malformed => return error(400, format!("bad fact id {id_text:?}")),
        FactId::OutOfRange => return error(404, format!("no fact {id_text}")),
    };
    let store: &ShardedStore = domain.store();
    let Some(view) = store.fact(id) else {
        return error(404, format!("no fact {id}"));
    };
    let snap = domain.predictor().load();
    let probability = if domain.kind().valued() {
        // analyzer: allow(panic-expect) -- fact(id) resolved above, so the registry maps id in fact_real too
        let real = store.fact_real(id).expect("fact resolved above");
        snap.predictor.predict_real(&real.claims)
    } else {
        snap.predictor.predict_fact(&view.claims)
    };
    json(
        200,
        &FactResponse {
            domain: domain.name().to_owned(),
            id: view.id,
            entity: view.entity,
            attribute: view.attr,
            claims: view.claims.len(),
            positive: view.claims.iter().filter(|(_, o)| *o).count(),
            probability,
            epoch: snap.epoch,
        },
    )
}

#[derive(Debug, serde::Deserialize)]
struct SnapshotRequest {
    path: Option<String>,
}

fn admin_snapshot(ctx: &Context, body: &str) -> (u16, String) {
    let requested: Option<PathBuf> = if body.trim().is_empty() {
        None
    } else {
        match serde_json::from_str::<SnapshotRequest>(body) {
            Ok(r) => r.path.map(PathBuf::from),
            Err(e) => return error(400, format!("bad snapshot body: {e}")),
        }
    };
    let Some(path) = requested.or_else(|| ctx.snapshot_path.clone()) else {
        return error(400, "no snapshot path configured or supplied");
    };
    match ctx.save_snapshot(&path) {
        Ok(()) => json(
            200,
            &HealthResponse {
                status: format!("snapshot saved to {}", path.display()),
                epoch: ctx.domains.default_domain().predictor().load().epoch,
            },
        ),
        Err(e) => error(500, format!("snapshot failed: {e}")),
    }
}

#[derive(Debug, Serialize)]
struct CompactResponse {
    status: String,
    deleted_segments: usize,
}

/// `POST /admin/compact` — seals every domain's active WAL segment,
/// folds the whole log into the snapshot, and deletes the covered
/// segments. 400 without a WAL.
fn admin_compact(ctx: &Context) -> (u16, String) {
    if ctx.wal.is_none() {
        return error(400, "no WAL configured (start the server with --wal-dir)");
    }
    match ctx.compact(true) {
        Ok(deleted) => json(
            200,
            &CompactResponse {
                status: "compacted".into(),
                deleted_segments: deleted,
            },
        ),
        Err(e) => error(500, format!("compaction failed: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

/// How often the background compactor looks for sealed WAL segments.
const COMPACT_EVERY: Duration = Duration::from_millis(1_000);

/// A running server. Stop it with [`Server::shutdown`]: dropping it
/// stops nothing and skips the final snapshot.
pub struct Server {
    addr: SocketAddr,
    ctx: Arc<Context>,
    event_loop: EventLoop,
    compactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, creates the configured domains, restores the snapshot (if
    /// configured and present — which may create further domains),
    /// replays each domain's WAL tail (when `--wal-dir` is set — which
    /// may also re-create domains that only ever lived in the WAL), and
    /// spawns the event loop with its worker pool, one refit daemon per
    /// domain, and the background WAL compactor.
    ///
    /// Fails with [`io::ErrorKind::Unsupported`] on targets without epoll
    /// (the event loop is the only front end), and with
    /// [`io::ErrorKind::InvalidInput`] when `threads` or `shards` is 0 —
    /// both before anything is bound or spawned.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        if !event_loop::SUPPORTED {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the HTTP front end needs epoll, which this target lacks",
            ));
        }
        for (setting, value) in [("threads", config.threads), ("shards", config.shards)] {
            if value == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("--{setting} must be at least 1"),
                ));
            }
        }
        // With a WAL but no explicit snapshot path, compaction still
        // needs somewhere to fold sealed segments: default it into the
        // WAL directory so `--wal-dir` alone gives full durability.
        let snapshot_path = match (&config.snapshot, &config.wal) {
            (Some(path), _) => Some(path.clone()),
            (None, Some(wal_config)) => Some(snapshot::default_path(&wal_config.dir)?),
            (None, None) => None,
        };
        if let Some(wal_config) = &config.wal {
            validate_wal_dir(&wal_config.dir)?;
        }
        if let Some(path) = &snapshot_path {
            // A crash mid-save leaves `<snapshot>.tmp.*` litter behind;
            // sweep it before anything can collide with those names.
            match snapshot::clean_stale_temps(path) {
                Ok(0) => {}
                Ok(n) => crate::log_info!(
                    "serve",
                    "removed {n} stale snapshot temp file(s) next to {}",
                    path.display()
                ),
                Err(e) => crate::log_warn!(
                    "serve",
                    "could not sweep stale snapshot temps next to {}: {e}",
                    path.display()
                ),
            }
        }

        let domains = Arc::new(DomainSet::new());
        domains
            .insert(Domain::new(
                DEFAULT_DOMAIN,
                ModelKind::Boolean,
                config.shards,
                &config.refit,
            ))
            // analyzer: allow(panic-expect) -- first insert into a fresh registry cannot collide
            .expect("empty registry accepts the default domain");
        for (name, kind) in &config.domains {
            domains
                .insert(Domain::new(name, *kind, config.shards, &config.refit))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        }
        if let Some(path) = &snapshot_path {
            if path.exists() {
                // Name the failing file: a bare "permission denied" with
                // no path is undebuggable from a service log.
                let snap = snapshot::load(path).map_err(|e| {
                    io::Error::new(e.kind(), format!("snapshot {}: {e}", path.display()))
                })?;
                snapshot::restore(&snap, &domains, &config.refit).map_err(|e| {
                    io::Error::new(e.kind(), format!("snapshot {}: {e}", path.display()))
                })?;
            }
        }
        if let Some(wal_config) = &config.wal {
            open_wals(wal_config, &domains, &config.refit)?;
        }
        // Metric handles attach after restore + replay (so the domain
        // set is final for boot) and before daemons spawn (so the first
        // refit's phase spans are recorded).
        let registry = Arc::new(Registry::new());
        if config.metrics {
            for domain in domains.list() {
                attach_domain_obs(&registry, &domain);
            }
        }
        // Daemons spawn only after restore AND WAL replay, so the first
        // refit of every domain sees the fully recovered store (replayed
        // rows count as pending and re-arm the trigger exactly like live
        // ingests).
        for domain in domains.list() {
            domain.spawn_daemon(config.refit.clone());
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::new(Context {
            domains,
            shards: config.shards,
            refit: config.refit.clone(),
            snapshot_path,
            wal: config.wal.clone(),
            persist: Mutex::new(()),
            snapshot_failed: AtomicBool::new(false),
            compaction: Mutex::new(CompactionStatus::default()),
            requests: registry.counter("ltm_http_requests_total", &[]),
            in_flight: registry.gauge("ltm_http_requests_in_flight", &[]),
            open_connections: registry.gauge("ltm_open_connections", &[]),
            keepalive_reuse: registry.counter("ltm_keepalive_reuse_total", &[]),
            batch_size: registry.histogram("ltm_batch_query_size", &[], Unit::Count),
            obs: registry,
            metrics: config.metrics,
            started: Instant::now(),
            shutdown_requested: (Mutex::new(false), Condvar::new()),
            compactor_stop: (Mutex::new(false), Condvar::new()),
        });

        // Duration::ZERO means "no deadlines" — mapped to None
        // explicitly, because a zero deadline would instead reap every
        // connection on the loop's first sweep.
        let io_timeout = (!config.io_timeout.is_zero()).then_some(config.io_timeout);
        let handler_ctx = Arc::clone(&ctx);
        let handler: event_loop::RequestHandler =
            Arc::new(move |req| handle_request(&handler_ctx, req));
        let malformed_ctx = Arc::clone(&ctx);
        let event_loop = EventLoop::start(
            listener,
            handler,
            EventLoopConfig {
                workers: config.threads,
                io_timeout,
                metrics: config.metrics,
                open_connections: Arc::clone(&ctx.open_connections),
                keepalive_reuse: Arc::clone(&ctx.keepalive_reuse),
                observe_malformed: Arc::new(move |status| {
                    malformed_ctx.observe_request(
                        "?",
                        MALFORMED_PATH,
                        status,
                        Instant::now(),
                        obs::log::next_request_id(),
                    );
                }),
            },
        )?;

        // Background compactor: folds naturally sealed segments into the
        // snapshot about once a second, keeping disk usage bounded
        // without ever stalling an ack (sealing is left to rotation and
        // /admin/compact). It sleeps on a condvar, so shutdown wakes it.
        let compactor = config.wal.is_some().then(|| {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("ltm-wal-compactor".into())
                .spawn(move || {
                    let (stop, wake) = &ctx.compactor_stop;
                    loop {
                        // The flag is read under the lock before every
                        // wait, so a stop sent during a pass is not lost.
                        let stopped = stop.locked();
                        if *stopped {
                            return;
                        }
                        let (stopped, _) = wake
                            .wait_timeout(stopped, COMPACT_EVERY)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                        if *stopped {
                            return;
                        }
                        drop(stopped);
                        let sealed = ctx
                            .domains
                            .list()
                            .iter()
                            .any(|d| d.wal().is_some_and(|w| w.has_sealed_segments()));
                        if !sealed {
                            continue;
                        }
                        if let Err(e) = ctx.compact(false) {
                            crate::log_warn!("serve", "background WAL compaction failed: {e}");
                        }
                    }
                })
                // analyzer: allow(panic-expect) -- boot-time spawn; fails only on OS thread exhaustion, before the server serves
                .expect("spawn compactor thread")
        });

        Ok(Server {
            addr,
            ctx,
            event_loop,
            compactor,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The domain registry.
    pub fn domains(&self) -> Arc<DomainSet> {
        Arc::clone(&self.ctx.domains)
    }

    /// Resolves a domain by name.
    pub fn domain(&self, name: &str) -> Option<Arc<Domain>> {
        self.ctx.domains.get(name)
    }

    /// Creates and registers a new domain at runtime (spawning its refit
    /// daemon) — the programmatic sibling of `POST /admin/domains`.
    pub fn create_domain(&self, name: &str, kind: ModelKind) -> Result<Arc<Domain>, DomainError> {
        create_domain(&self.ctx, name, kind)
    }

    /// The default domain's store (test/benchmark access).
    pub fn store(&self) -> Arc<ShardedStore> {
        Arc::clone(self.ctx.domains.default_domain().store())
    }

    /// The default domain's epoch predictor (test/benchmark access).
    pub fn predictor(&self) -> Arc<EpochPredictor> {
        Arc::clone(self.ctx.domains.default_domain().predictor())
    }

    /// The lock the default domain's refit daemon holds for the duration
    /// of every refit. Tests acquire it to hold the daemon hostage and
    /// verify queries still serve.
    pub fn refit_lock(&self) -> Arc<Mutex<()>> {
        Arc::clone(self.ctx.domains.default_domain().refit_lock())
    }

    /// Forces a default-domain refit pass (the daemon's schedule picks
    /// the mode).
    pub fn trigger_refit(&self) {
        self.ctx.domains.default_domain().trigger_refit();
    }

    /// Forces a full (reconciliation) refit pass on the default domain.
    pub fn trigger_full_refit(&self) {
        self.ctx.domains.default_domain().trigger_full_refit();
    }

    /// The default domain's refit accumulator state (test/benchmark
    /// access).
    pub fn refit_state(&self) -> Arc<Mutex<RefitState>> {
        Arc::clone(self.ctx.domains.default_domain().refit_state())
    }

    /// Saves a snapshot of every domain to `path` immediately, exactly as
    /// `POST /admin/snapshot` does (see `Context::save_snapshot`).
    pub fn save_snapshot(&self, path: &std::path::Path) -> io::Result<()> {
        self.ctx.save_snapshot(path)
    }

    /// Blocks until a `POST /admin/shutdown` arrives.
    pub fn wait_for_shutdown_request(&self) {
        let (flag, cv) = &self.ctx.shutdown_requested;
        let mut requested = flag.locked();
        while !*requested {
            requested = wait_recovered(cv, requested);
        }
    }

    /// Graceful stop: every domain's refit daemon, the event loop and
    /// its workers, the WAL compactor — then the final snapshot (if
    /// configured) and, on WAL-enabled servers, a final compaction that
    /// folds the whole log into it and deletes the covered segments.
    pub fn shutdown(self) -> io::Result<()> {
        for domain in self.ctx.domains.list() {
            domain.shutdown();
        }
        self.event_loop.shutdown();
        let (stop, wake) = &self.ctx.compactor_stop;
        *stop.locked() = true;
        wake.notify_all();
        if let Some(compactor) = self.compactor {
            let _ = compactor.join();
        }
        if self.ctx.wal.is_some() {
            // Seal + fold + delete: a clean shutdown leaves a snapshot
            // and an empty WAL tail, so the next boot replays nothing.
            self.ctx.compact(true)?;
        } else if let Some(path) = &self.ctx.snapshot_path {
            self.ctx.save_snapshot(path)?;
        }
        Ok(())
    }
}

/// Rejects an unusable `--wal-dir` at boot with a clear
/// [`io::ErrorKind::InvalidInput`] error (the CLI surfaces it and exits
/// instead of panicking): the directory is created if missing, then
/// probed with a real write+delete.
fn validate_wal_dir(dir: &std::path::Path) -> io::Result<()> {
    std::fs::create_dir_all(dir).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("--wal-dir {}: cannot create directory: {e}", dir.display()),
        )
    })?;
    let probe = dir.join(format!(".wal-write-probe.{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .and_then(|()| std::fs::remove_file(&probe))
        .map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "--wal-dir {}: directory is not writable: {e}",
                    dir.display()
                ),
            )
        })
}

/// Boot-time WAL bring-up: re-creates domains that exist only in the WAL
/// (their `meta.json` names a kind and shard count but no snapshot ever
/// recorded them), then opens + replays every registered domain's log
/// and attaches the append handles.
fn open_wals(wal_config: &WalConfig, domains: &DomainSet, refit: &RefitConfig) -> io::Result<()> {
    for name in wal::wal_domains(&wal_config.dir)? {
        if domains.get(&name).is_some() {
            continue;
        }
        let meta = wal::read_meta(&wal_config.dir, &name)?;
        let kind: ModelKind = meta.kind.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("WAL meta for `{name}`: {e}"),
            )
        })?;
        domains
            .insert(Domain::new(&name, kind, meta.shards, refit))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    }
    let mut replayed = 0u64;
    for domain in domains.list() {
        let meta = WalDomainMeta {
            kind: domain.kind().as_str().to_owned(),
            shards: domain.store().num_shards(),
        };
        let (domain_wal, report) =
            DomainWal::open(wal_config, domain.name(), &meta, domain.store())?;
        domain.attach_wal(Arc::new(domain_wal));
        replayed += report.replayed_rows;
    }
    if replayed > 0 {
        crate::log_info!(
            "serve",
            "WAL replay recovered {replayed} row(s) past the snapshot"
        );
    }
    Ok(())
}

/// Attaches the full per-domain metric family set (ingest, WAL, refit
/// phases) to one domain. Idempotent per domain: the underlying
/// attachments are first-write-wins.
fn attach_domain_obs(registry: &Registry, domain: &Domain) {
    domain.attach_obs(DomainObs::for_domain(registry, domain.name()));
    if let Some(wal) = domain.wal() {
        wal.attach_obs(WalObs::for_domain(registry, domain.name()));
    }
    let mut refit_state = domain.refit_state().locked();
    refit_state.set_obs(RefitObs::for_domain(registry, domain.name()));
    refit_state.set_shadow_obs(ShadowObs::for_domain(registry, domain.name()));
}

/// Handles one parsed request end to end — in-flight gauge, routing,
/// request metrics — and returns the response for the event loop to
/// frame and write.
fn handle_request(ctx: &Context, req: &Request) -> Response {
    let started = Instant::now();
    let _in_flight = ctx.metrics.then(|| ScopedGauge::enter(&ctx.in_flight));
    let req_id = obs::log::next_request_id();
    let (status, body) = route(ctx, req);
    // Recorded before the response bytes go out, so any scrape issued
    // after this response already counts this request (see
    // Context::observe_request).
    ctx.observe_request(&req.method, &req.path, status, started, req_id);
    let content_type = if req.path == "/metrics" && status == 200 {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    Response {
        status,
        content_type,
        body,
    }
}
