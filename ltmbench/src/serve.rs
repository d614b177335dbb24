//! Shared pieces of the two serving phases: the server as `ltm serve`
//! configures it (with the refit trigger disarmed), direct refits,
//! request rendering, and the checks of served answers.

use std::collections::HashMap;
use std::io;
use std::time::Duration;

use ltm_core::{LtmConfig, SampleSchedule};
use ltm_serve::{
    refit_once, Domain, LogRecord, ModelKind, RefitConfig, RefitMode, RefitOutcome, ServeConfig,
    Server, WalConfig,
};

use crate::client::Request;
use crate::data::{FactClaims, Triple};
use crate::eq3::{self, Eq3Params};
use crate::json::{quote, Json};

/// The refit settings of `ltm serve` (100/20/1 schedule, two chains,
/// `R̂` gate 1.2, shadows on), except that the daemon's trigger is
/// disarmed: every refit is a direct `refit_once` call at a fixed point
/// of the workload.
pub fn refit_config() -> RefitConfig {
    RefitConfig {
        ltm: LtmConfig {
            schedule: SampleSchedule::new(100, 20, 1),
            ..LtmConfig::default()
        },
        min_pending: usize::MAX,
        interval: Duration::from_millis(500),
        ..RefitConfig::default()
    }
}

/// Boots an in-process server on an ephemeral loopback port with the
/// `ltm serve` defaults (4 shards, 4 HTTP workers, metrics on).
pub fn boot(wal: Option<WalConfig>) -> io::Result<Server> {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        refit: refit_config(),
        wal,
        ..ServeConfig::default()
    })
}

/// One direct refit of the default domain, as the daemon would run it.
pub fn refit(server: &Server, mode: RefitMode, bump: u64) -> RefitOutcome {
    let domain = server.domains().default_domain();
    refit_once(
        domain.store(),
        domain.predictor(),
        ModelKind::Boolean,
        &refit_config(),
        domain.refit_state(),
        domain.refit_lock(),
        bump,
        mode,
    )
}

/// The first full refit of a freshly loaded store, as an operator would
/// force it: repeated (with the next seed bump) while the `R̂` gate
/// rejects it, up to five attempts. Returns the bump of the next refit.
pub fn publish_first_epoch(server: &Server) -> io::Result<u64> {
    for bump in 1..=5 {
        match refit(server, RefitMode::Full, bump) {
            RefitOutcome::Published { epoch: 1, .. } => return Ok(bump + 1),
            RefitOutcome::Rejected { max_rhat, gate, .. } => {
                eprintln!("ltmbench: first full refit rejected (max R-hat {max_rhat:.4} > {gate}); forcing another");
            }
            other => {
                return Err(io::Error::other(format!(
                    "first full refit did not publish epoch 1: {other:?}"
                )))
            }
        }
    }
    Err(io::Error::other("five full refits in a row were rejected"))
}

/// Ingests triples through `Domain::ingest_batch` (journaled and synced
/// when the domain has a WAL) in batches of `batch`. Returns the number of
/// batches that accepted rows.
pub fn preload(domain: &Domain, triples: &[Triple], batch: usize) -> io::Result<u64> {
    let mut appended = 0;
    for chunk in triples.chunks(batch) {
        let out = domain.ingest_batch(&records(chunk))?;
        appended += u64::from(out.accepted > 0);
    }
    Ok(appended)
}

/// Triples as the store's log records.
pub fn records(triples: &[Triple]) -> Vec<LogRecord> {
    triples
        .iter()
        .map(|t| LogRecord {
            entity: t.entity.clone(),
            attr: t.attr.clone(),
            source: t.source.clone(),
            value: None,
        })
        .collect()
}

/// `{"triples": [[entity, attr, source], …]}`.
pub fn claims_body(triples: &[Triple]) -> String {
    let rows: Vec<String> = triples
        .iter()
        .map(|t| {
            format!(
                "[{},{},{}]",
                quote(&t.entity),
                quote(&t.attr),
                quote(&t.source)
            )
        })
        .collect();
    format!("{{\"triples\":[{}]}}", rows.join(","))
}

fn claim_list(fact: &FactClaims) -> String {
    let claims: Vec<String> = fact
        .claims
        .iter()
        .map(|(s, o)| format!("[{},{o}]", quote(s)))
        .collect();
    format!("[{}]", claims.join(","))
}

/// `{"claims": [[source, true|false], …]}` for one fact.
pub fn query_body(fact: &FactClaims) -> String {
    format!("{{\"claims\":{}}}", claim_list(fact))
}

/// `{"queries": [claims, …]}` for several facts.
pub fn batch_body<'a>(facts: impl IntoIterator<Item = &'a FactClaims>) -> String {
    let lists: Vec<String> = facts.into_iter().map(claim_list).collect();
    format!("{{\"queries\":[{}]}}", lists.join(","))
}

/// A `POST /query/batch` request over `facts`.
pub fn batch_request<'a>(facts: impl IntoIterator<Item = &'a FactClaims>) -> Request {
    Request::new("POST", "/query/batch", &batch_body(facts))
}

/// Resolves a fact's claims to the store's source ids.
pub fn resolve(ids: &HashMap<String, usize>, fact: &FactClaims) -> Vec<(usize, bool)> {
    fact.claims
        .iter()
        .map(|(s, o)| (ids.get(s).copied().unwrap_or(usize::MAX), *o))
        .collect()
}

/// Source name → id, as the store assigned them.
pub fn source_ids(server: &Server) -> HashMap<String, usize> {
    server
        .store()
        .source_names()
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, i))
        .collect()
}

/// The current epoch's number and Equation-3 parameters.
pub fn epoch_params(server: &Server) -> (u64, Eq3Params) {
    let snap = server.predictor().load();
    let ltm = snap
        .predictor
        .as_boolean()
        .expect("the default domain is boolean");
    (snap.epoch, Eq3Params::of(ltm))
}

/// Checks one `/query` (or batch item) answer against Equation 3 on the
/// claims sent; returns the served probability.
pub fn check_answer(
    item: &Json,
    fact: &FactClaims,
    ids: &HashMap<String, usize>,
    params: &Eq3Params,
) -> Result<f64, String> {
    let p = item.num_at("probability")?;
    let want = params.probability(&resolve(ids, fact));
    if !eq3::same(p, want) {
        return Err(format!(
            "({}, {}) served {p}, Equation 3 gives {want}",
            fact.entity, fact.attr
        ));
    }
    let unknown = item.get("unknown_sources").and_then(Json::arr);
    if unknown.is_none_or(|u| !u.is_empty()) {
        return Err(format!(
            "({}, {}) reports unknown sources",
            fact.entity, fact.attr
        ));
    }
    Ok(p)
}

/// Checks a whole `/query/batch` response for `facts` at `epoch`;
/// returns the served probabilities in order.
pub fn check_batch(
    body: &str,
    facts: &[&FactClaims],
    epoch: u64,
    ids: &HashMap<String, usize>,
    params: &Eq3Params,
) -> Result<Vec<f64>, String> {
    let v = Json::parse(body)?;
    let served_epoch = v.num_at("epoch")?;
    if served_epoch != epoch as f64 {
        return Err(format!(
            "batch answered from epoch {served_epoch}, expected {epoch}"
        ));
    }
    let results = v
        .get("results")
        .and_then(Json::arr)
        .ok_or("batch response has no results")?;
    if results.len() != facts.len() || v.num_at("count")? != facts.len() as f64 {
        return Err(format!(
            "batch of {} answered {} results",
            facts.len(),
            results.len()
        ));
    }
    results
        .iter()
        .zip(facts)
        .map(|(item, fact)| check_answer(item, fact, ids, params))
        .collect()
}

/// A small deterministic generator (SplitMix64) for shuffles and samples.
pub struct Mix(u64);

impl Mix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Mix(seed)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
