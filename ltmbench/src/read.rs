//! The read phase: a store with one published epoch (shadow tables
//! included) answers a closed loop on one keep-alive connection:
//! `POST /query`, `POST /query?methods=all` and `POST /query/batch` in a
//! fixed interleave. No sampling, ingest, WAL or snapshot runs while it
//! is timed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ltm_serve::{shadow, Server};
use serde::Serialize;

use crate::client::{Conn, Request};
use crate::data::{self, Definition3, FactClaims};
use crate::eq3::Eq3Params;
use crate::json::Json;
use crate::report::{Report, Samples};
use crate::serve::{self, Mix};
use crate::stats::{interquartile_mean, median, quantile};

/// Facts per `/query/batch` request.
pub const BATCH: usize = 256;
/// Single `/query` requests per round (half before, half after the
/// first `?methods=all` query).
const SINGLES: usize = 16;
/// Rounds per block (about 0.15 s).
const BLOCK_ROUNDS: usize = 24;

/// The `/query` response shape, rendered to price the JSON encoder.
#[derive(Serialize)]
struct QueryAnswer {
    domain: String,
    probability: f64,
    epoch: u64,
    unknown_sources: Vec<String>,
}

/// A served store plus the requests rendered for it.
pub struct Read {
    server: Server,
    truth: HashMap<(String, String), bool>,
    /// Every stored fact, shuffled.
    facts: Vec<FactClaims>,
    query: Vec<(Request, String)>,
    methods: Vec<Request>,
    batches: Vec<(Request, String)>,
    healthz: Request,
}

/// Generates `num_books` books, boots a server, loads them, publishes
/// one full epoch and renders the requests.
pub fn setup(num_books: usize, seed: u64) -> std::io::Result<Read> {
    let books = data::generate(num_books, seed);
    let server = serve::boot(None)?;
    let domain = server.domains().default_domain();
    let triples: Vec<_> = books.by_book.iter().flatten().cloned().collect();
    serve::preload(&domain, &triples, 10_000)?;
    serve::publish_first_epoch(&server)?;
    let mut view = Definition3::new();
    view.add(&triples);
    let mut facts = view.facts();
    Mix::new(seed ^ 0x5EED).shuffle(&mut facts);
    let query = facts
        .iter()
        .map(|f| {
            let body = serve::query_body(f);
            (Request::new("POST", "/query", &body), body)
        })
        .collect();
    let methods = facts
        .iter()
        .map(|f| Request::new("POST", "/query?methods=all", &serve::query_body(f)))
        .collect();
    let batches = facts
        .chunks(BATCH)
        .map(|chunk| {
            let body = serve::batch_body(chunk);
            (Request::new("POST", "/query/batch", &body), body)
        })
        .collect();
    Ok(Read {
        server,
        truth: books.truth,
        facts,
        query,
        methods,
        batches,
        healthz: Request::new("GET", "/healthz", ""),
    })
}

/// Per-layer samples of traced rounds.
#[derive(Default)]
struct Layers {
    healthz_us: Vec<f64>,
    decode_query_us: Vec<f64>,
    source_id_us: Vec<f64>,
    epoch_load_us: Vec<f64>,
    predict_us: Vec<f64>,
    encode_us: Vec<f64>,
    score_methods_us: Vec<f64>,
    decode_batch_ms: Vec<f64>,
    batch_facts_per_s: Vec<f64>,
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Runs whole blocks of rounds until `budget` is spent (at least
/// `min_blocks`), checks every answer, then scores every stored fact
/// once for accuracy. Latency statistics are taken per block, and the
/// run reports their interquartile mean across blocks (see
/// [`interquartile_mean`]).
/// Returns the phase's accuracy.
pub fn run(rd: &Read, budget: Duration, min_blocks: usize, trace: bool, r: &mut Report) -> f64 {
    let ids = serve::source_ids(&rd.server);
    let (epoch, params) = serve::epoch_params(&rd.server);
    let mut conn = match Conn::connect(rd.server.addr()) {
        Ok(c) => c,
        Err(e) => {
            r.check(false, || format!("read: cannot connect: {e}"));
            return 0.0;
        }
    };
    let (mut query_p50, mut query_p90, mut methods_p50, mut batch_rate) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut layers = Layers::default();
    let mut pooled = Vec::new();
    // Whole batches only; the tail batch is scored by the accuracy pass.
    let chunks = rd.facts.len() / BATCH;
    let started = Instant::now();
    let (mut round, mut block) = (0usize, 0usize);
    while block < min_blocks || started.elapsed() < budget {
        let traced = trace && block % 2 == 1;
        let (mut query, mut methods, mut batch) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..BLOCK_ROUNDS {
            let chunk = round % chunks;
            let offset = (round / chunks * SINGLES) % BATCH;
            let first = chunk * BATCH + offset;
            let mut singles = Vec::with_capacity(SINGLES);
            for i in 0..SINGLES {
                let f = first + i;
                let t = Instant::now();
                let resp = conn.call(&rd.query[f].0);
                query.push(t.elapsed().as_secs_f64() * 1e3);
                singles.push(check_single(resp, &rd.facts[f], epoch, &ids, &params, r));
                if i % (SINGLES / 2) == SINGLES / 2 - 1 {
                    let m = first + i + 1 - SINGLES / 2;
                    let t = Instant::now();
                    let resp = conn.call(&rd.methods[m]);
                    methods.push(t.elapsed().as_secs_f64() * 1e3);
                    check_methods(resp, &rd.facts[m], &ids, &params, r);
                }
            }
            let t = Instant::now();
            let resp = conn.call(&rd.batches[chunk].0);
            batch.push(BATCH as f64 / t.elapsed().as_secs_f64());
            r.op(resp.as_ref().is_ok_and(|x| x.status == 200));
            let group: Vec<&FactClaims> = rd.facts[chunk * BATCH..(chunk + 1) * BATCH]
                .iter()
                .collect();
            match resp
                .map_err(|e| e.to_string())
                .and_then(|x| serve::check_batch(&x.body, &group, epoch, &ids, &params))
            {
                Ok(probs) => {
                    let same = singles
                        .iter()
                        .zip(&probs[offset..offset + SINGLES])
                        .all(|(s, b)| s.is_none_or(|s| s == *b));
                    r.check(same, || {
                        format!("read: batch {chunk} differs from the single answers for the same claims")
                    });
                }
                Err(e) => r.check(false, || format!("read: batch {chunk}: {e}")),
            }
            if traced {
                probe_layers(rd, &mut conn, first, chunk, &mut layers, r);
            }
            round += 1;
        }
        if !traced {
            pooled.extend_from_slice(&query);
        }
        query_p50.push(traced, median(&query));
        query_p90.push(traced, quantile(&query, 0.9));
        methods_p50.push(traced, median(&methods));
        batch_rate.push(traced, median(&batch));
        block += 1;
    }
    r.e2e_samples("query_p50_ms", &query_p50, "ms", interquartile_mean);

    r.e2e_samples(
        "methods_query_p50_ms",
        &methods_p50,
        "ms",
        interquartile_mean,
    );
    r.e2e_samples("batch_facts_per_s", &batch_rate, "1/s", interquartile_mean);
    r.e2e_samples("query_p90_ms", &query_p90, "ms", interquartile_mean);
    r.tails.insert("query_p99_ms", quantile(&pooled, 0.99));
    r.layer_median("http.healthz_us", &layers.healthz_us, "us");
    r.layer_median("json.decode_query_us", &layers.decode_query_us, "us");
    r.layer_median("store.source_id_us", &layers.source_id_us, "us");
    r.layer_median("epoch.load_us", &layers.epoch_load_us, "us");
    r.layer_median("incremental.predict_fact_us", &layers.predict_us, "us");
    r.layer_median("json.encode_response_us", &layers.encode_us, "us");
    r.layer_median("shadow.score_methods_us", &layers.score_methods_us, "us");
    r.layer_median("json.decode_batch_ms", &layers.decode_batch_ms, "ms");
    r.layer_median(
        "incremental.batch_facts_per_s",
        &layers.batch_facts_per_s,
        "1/s",
    );

    accuracy(rd, &mut conn, epoch, &ids, &params, r)
}

fn check_single(
    resp: std::io::Result<crate::client::Response>,
    fact: &FactClaims,
    epoch: u64,
    ids: &HashMap<String, usize>,
    params: &Eq3Params,
    r: &mut Report,
) -> Option<f64> {
    r.op(resp.as_ref().is_ok_and(|x| x.status == 200));
    let checked = resp
        .map_err(|e| e.to_string())
        .and_then(|x| Json::parse(&x.body))
        .and_then(|v| {
            if v.num_at("epoch")? != epoch as f64 {
                return Err(format!("answered from epoch {:?}", v.get("epoch")));
            }
            serve::check_answer(&v, fact, ids, params)
        });
    match checked {
        Ok(p) => Some(p),
        Err(e) => {
            r.check(false, || format!("read: /query: {e}"));
            None
        }
    }
}

/// `?methods=all` answers LTM, the seven baselines and the ensemble, each
/// in [0, 1], and its `ltm` entry is the served probability.
fn check_methods(
    resp: std::io::Result<crate::client::Response>,
    fact: &FactClaims,
    ids: &HashMap<String, usize>,
    params: &Eq3Params,
    r: &mut Report,
) {
    r.op(resp.as_ref().is_ok_and(|x| x.status == 200));
    let checked = resp
        .map_err(|e| e.to_string())
        .and_then(|x| Json::parse(&x.body))
        .and_then(|v| {
            let p = serve::check_answer(&v, fact, ids, params)?;
            let Some(Json::Obj(m)) = v.get("methods") else {
                return Err("no methods object".into());
            };
            let mut want: Vec<String> = ltm_baselines::all_baselines()
                .iter()
                .map(|b| shadow::wire_name(b.name()))
                .collect();
            want.push("ltm".into());
            want.push("ensemble".into());
            want.sort();
            let got: Vec<String> = m.keys().cloned().collect();
            if got != want {
                return Err(format!("methods {got:?}, expected {want:?}"));
            }
            if !m
                .values()
                .all(|x| x.num().is_some_and(|x| (0.0..=1.0).contains(&x)))
            {
                return Err(format!("a method score is outside [0, 1]: {m:?}"));
            }
            if m["ltm"].num() != Some(p) {
                return Err(format!(
                    "methods.ltm {:?} differs from probability {p}",
                    m["ltm"]
                ));
            }
            Ok(())
        });
    if let Err(e) = checked {
        r.check(false, || format!("read: /query?methods=all: {e}"));
    }
}

/// Times each layer of the read path by calling its public functions on
/// the round's own inputs.
fn probe_layers(
    rd: &Read,
    conn: &mut Conn,
    first: usize,
    chunk: usize,
    l: &mut Layers,
    r: &mut Report,
) {
    for _ in 0..2 {
        let t = Instant::now();
        let ok = conn.call(&rd.healthz).is_ok_and(|x| x.status == 200);
        l.healthz_us.push(us(t));
        r.check(ok, || "read: GET /healthz failed".into());
    }
    let store = rd.server.store();
    let predictor = rd.server.predictor();
    for f in first..first + SINGLES {
        let body = &rd.query[f].1;
        let t = Instant::now();
        let parsed: serde::Value = serde_json::from_str(body).expect("rendered body parses");
        l.decode_query_us.push(us(t));
        std::hint::black_box(parsed);

        let t = Instant::now();
        let claims: Vec<(ltm_model::SourceId, bool)> = rd.facts[f]
            .claims
            .iter()
            .map(|(s, o)| {
                (
                    store
                        .source_id(s)
                        .unwrap_or(ltm_model::SourceId::new(u32::MAX)),
                    *o,
                )
            })
            .collect();
        l.source_id_us.push(us(t));

        let t = Instant::now();
        let snap = predictor.load();
        l.epoch_load_us.push(us(t));

        let t = Instant::now();
        let p = snap.predictor.predict_fact(&claims);
        l.predict_us.push(us(t));

        let t = Instant::now();
        let text = serde_json::to_string(&QueryAnswer {
            domain: "default".into(),
            probability: p,
            epoch: snap.epoch,
            unknown_sources: Vec::new(),
        })
        .expect("answer encodes");
        l.encode_us.push(us(t));
        std::hint::black_box(text);

        if let Some(tables) = snap.shadow.as_deref() {
            let t = Instant::now();
            let mut per_method = vec![p];
            per_method.extend(
                tables.methods[1..]
                    .iter()
                    .map(|col| shadow::score_claims(&col.trust, &claims)),
            );
            let ensemble = tables.ensemble_of(&per_method);
            l.score_methods_us.push(us(t));
            std::hint::black_box(ensemble);
        }
    }

    let t = Instant::now();
    let parsed: serde::Value =
        serde_json::from_str(&rd.batches[chunk].1).expect("rendered body parses");
    l.decode_batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box(parsed);

    let resolved: Vec<Vec<(ltm_model::SourceId, bool)>> = rd.facts
        [chunk * BATCH..(chunk + 1) * BATCH]
        .iter()
        .map(|fact| {
            fact.claims
                .iter()
                .map(|(s, o)| {
                    (
                        store
                            .source_id(s)
                            .unwrap_or(ltm_model::SourceId::new(u32::MAX)),
                        *o,
                    )
                })
                .collect()
        })
        .collect();
    let snap = predictor.load();
    let t = Instant::now();
    let total: f64 = resolved
        .iter()
        .map(|c| snap.predictor.predict_fact(c))
        .sum();
    l.batch_facts_per_s
        .push(BATCH as f64 / t.elapsed().as_secs_f64());
    std::hint::black_box(total);
}

/// Scores every stored fact once through `/query/batch` (untimed) and
/// compares with the generator's truth and the majority vote.
fn accuracy(
    rd: &Read,
    conn: &mut Conn,
    epoch: u64,
    ids: &HashMap<String, usize>,
    params: &Eq3Params,
    r: &mut Report,
) -> f64 {
    let mut scored = Vec::with_capacity(rd.facts.len());
    for (chunk, (request, _)) in rd.batches.iter().enumerate() {
        let end = rd.facts.len().min((chunk + 1) * BATCH);
        let group: Vec<&FactClaims> = rd.facts[chunk * BATCH..end].iter().collect();
        let checked = conn
            .call(request)
            .map_err(|e| e.to_string())
            .and_then(|x| serve::check_batch(&x.body, &group, epoch, ids, params));
        match checked {
            Ok(probs) => scored.extend(group.into_iter().zip(probs)),
            Err(e) => r.check(false, || format!("read: accuracy batch {chunk}: {e}")),
        }
    }
    if scored.is_empty() {
        return 0.0;
    }
    let (accuracy, majority) = data::accuracy_vs_majority(scored, &rd.truth);
    r.check(accuracy >= majority, || {
        format!("read: accuracy {accuracy:.4} is below the majority vote's {majority:.4}")
    });
    accuracy
}

impl Read {
    /// Stops the server.
    pub fn shutdown(self) {
        if let Err(e) = self.server.shutdown() {
            eprintln!("ltmbench: read server shutdown: {e}");
        }
    }
}
