//! The write phase: a store preloaded through the WAL (`--wal-sync
//! always`) takes new books as `POST /claims` batches of 100 triples, in
//! rounds. Each round ends with an incremental `refit_once` and a query
//! of the round's facts. Then come repeated `POST /admin/compact` and
//! repeated clean restarts, each timed to the first answered query.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ltm_baselines::{all_baselines, source_agreement_trust};
use ltm_serve::wal::{encode_record, DomainWal, WalDomainMeta, WalRecord};
use ltm_serve::{
    shadow, snapshot, Domain, LockExt, ModelKind, RefitMode, RefitOutcome, Server, StoreStats,
    WalConfig,
};

use crate::client::{Conn, Request};
use crate::data::{self, Counts, Definition3, FactClaims, Triple};
use crate::json::Json;
use crate::report::{Report, Samples};
use crate::serve::{self, Mix};
use crate::stats::median;

/// Triples per `POST /claims` batch.
pub const CLAIMS_BATCH: usize = 100;
/// Rows per `Domain::ingest_batch` call while preloading.
const PRELOAD_BATCH: usize = 1_000;
/// Resident facts whose answers must survive compaction and restart.
const SAMPLE_FACTS: usize = 64;

/// Sizes of one write phase.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Books loaded before the stream.
    pub resident_books: usize,
    /// Books streamed per round.
    pub round_books: usize,
    /// Stream rounds.
    pub rounds: usize,
    /// Timed `POST /admin/compact` calls.
    pub compactions: usize,
    /// Timed clean restarts.
    pub restarts: usize,
}

/// One stream round, rendered during set-up.
struct Round {
    claims: Vec<(Request, String, Vec<Triple>)>,
    facts: Vec<FactClaims>,
    queries: Vec<Request>,
    /// Definition-3 claims of the round's (new) books: exactly what its
    /// incremental refit must fold.
    delta_claims: usize,
}

/// The write phase's server, inputs and running expectations.
pub struct Write {
    shape: Shape,
    dir: PathBuf,
    wal: WalConfig,
    server: Option<Server>,
    truth: HashMap<(String, String), bool>,
    rounds: Vec<Round>,
    /// Definition-3 view of everything sent so far.
    sent: Definition3,
    /// Triple-text bytes sent so far.
    user_bytes: usize,
    /// WAL appends expected so far (batches that accepted rows).
    appends: u64,
    sample: Vec<FactClaims>,
    sample_request: Request,
    epoch: u64,
    /// Seed bump of the next refit.
    bump: u64,
}

/// Generates the books, boots a WAL-backed server under `dir`, preloads
/// the resident books through the WAL, publishes a full epoch, compacts
/// once and renders the stream.
pub fn setup(shape: Shape, seed: u64, dir: &Path) -> std::io::Result<Write> {
    let total = shape.resident_books + shape.rounds * shape.round_books;
    let books = data::generate(total, seed);
    std::fs::create_dir_all(dir)?;
    let wal = WalConfig::new(dir.join("wal"));
    let server = serve::boot(Some(wal.clone()))?;
    let domain = server.domains().default_domain();
    let resident: Vec<Triple> = books.by_book[..shape.resident_books]
        .iter()
        .flatten()
        .cloned()
        .collect();
    let appends = serve::preload(&domain, &resident, PRELOAD_BATCH)?;
    let bump = serve::publish_first_epoch(&server)?;
    let mut conn = Conn::connect(server.addr())?;
    let compact = conn.call(&Request::new("POST", "/admin/compact", ""))?;
    if compact.status != 200 {
        return Err(std::io::Error::other(format!(
            "initial compaction answered {}: {}",
            compact.status, compact.body
        )));
    }

    let mut sent = Definition3::new();
    sent.add(&resident);
    let mut sample = sent.facts();
    Mix::new(seed ^ 0xC0FFEE).shuffle(&mut sample);
    sample.truncate(SAMPLE_FACTS);
    let sample_request = serve::batch_request(&sample);
    let rounds = books.by_book[shape.resident_books..]
        .chunks(shape.round_books)
        .map(|group| {
            let triples: Vec<Triple> = group.iter().flatten().cloned().collect();
            let mut view = Definition3::new();
            view.add(&triples);
            let facts = view.facts();
            Round {
                claims: triples
                    .chunks(CLAIMS_BATCH)
                    .map(|c| {
                        let body = serve::claims_body(c);
                        (Request::new("POST", "/claims", &body), body, c.to_vec())
                    })
                    .collect(),
                queries: facts
                    .chunks(crate::read::BATCH)
                    .map(serve::batch_request)
                    .collect(),
                delta_claims: view.counts().claims,
                facts,
            }
        })
        .collect();
    Ok(Write {
        shape,
        dir: dir.to_owned(),
        wal,
        server: Some(server),
        truth: books.truth,
        rounds,
        user_bytes: resident.iter().map(Triple::text_bytes).sum(),
        sent,
        appends,
        sample,
        sample_request,
        epoch: 1,
        bump,
    })
}

/// Per-layer samples of traced rounds.
#[derive(Default)]
struct Layers {
    decode_claims_us: Vec<f64>,
    ingest_batch_us: Vec<f64>,
    wal_encode_us: Vec<f64>,
    extract_delta_ms: Vec<f64>,
    fold_ms: Vec<f64>,
    extract_full_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    ltm_column_ms: Vec<f64>,
    baselines_ms: Vec<(String, Vec<f64>)>,
    capture_ms: Vec<f64>,
    save_ms: Vec<f64>,
    load_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Runs the stream, the compactions and the restarts, checking as it
/// goes. Returns the accuracy on the streamed facts.
pub fn run(w: &mut Write, trace: bool, r: &mut Report) -> f64 {
    let mut layers = Layers::default();
    match stream(w, trace, &mut layers, r) {
        Ok(accuracy) => {
            if let Err(e) = compactions(w, trace, &mut layers, r).and_then(|()| restarts(w, r)) {
                r.check(false, || format!("write: {e}"));
            }
            report_layers(&layers, r);
            accuracy
        }
        Err(e) => {
            r.check(false, || format!("write: {e}"));
            0.0
        }
    }
}

fn server(w: &Write) -> &Server {
    w.server.as_ref().expect("the write server is up")
}

fn stream(w: &mut Write, trace: bool, l: &mut Layers, r: &mut Report) -> Result<f64, String> {
    let mut conn = Conn::connect(server(w).addr()).map_err(|e| e.to_string())?;
    let domain = server(w).domains().default_domain();
    let probe = if trace {
        Some(probe_domain(&w.dir.join("probe-wal")).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let wal_before = domain.wal().ok_or("no WAL attached")?.counters();
    let (mut ack, mut refit) = (Samples::default(), Samples::default());
    let mut delta_claims = Vec::new();
    let mut stream_acks = 0u64;
    let mut scored: Vec<(usize, usize, f64)> = Vec::new();
    let mut pooled = Vec::new();
    for k in 0..w.rounds.len() {
        let traced = trace && k % 2 == 1;
        let round = &w.rounds[k];
        let mut acks = Vec::with_capacity(round.claims.len());
        for (request, body, rows) in &round.claims {
            let t = Instant::now();
            let resp = conn.call(request);
            acks.push(t.elapsed().as_secs_f64() * 1e3);
            let ok = resp.as_ref().is_ok_and(|x| x.status == 200);
            r.op(ok);
            let accepted = resp
                .map_err(|e| e.to_string())
                .and_then(|x| Json::parse(&x.body))
                .and_then(|v| v.num_at("accepted"));
            match accepted {
                Ok(a) if a == rows.len() as f64 => {
                    w.appends += 1;
                    stream_acks += 1;
                }
                other => r.check(false, || {
                    format!(
                        "write: /claims of {} new rows answered {other:?}",
                        rows.len()
                    )
                }),
            }
            w.sent.add(rows);
            w.user_bytes += rows.iter().map(Triple::text_bytes).sum::<usize>();
            if let (true, Some(probe)) = (traced, &probe) {
                probe_ingest(probe, body, rows, l);
            }
        }
        ack.push(traced, median(&acks));
        if !traced {
            pooled.extend_from_slice(&acks);
        }
        if traced {
            probe_refit(server(w), l);
        }
        let t = Instant::now();
        let outcome = serve::refit(server(w), RefitMode::Incremental, w.bump + k as u64);
        refit.push(traced, t.elapsed().as_secs_f64() * 1e3);
        let published = matches!(
            outcome,
            RefitOutcome::Published { epoch, mode: RefitMode::Incremental, .. } if epoch == w.epoch + 1
        );
        r.op(published);
        r.check(published, || {
            format!(
                "write: round {k} refit did not publish epoch {}: {outcome:?}",
                w.epoch + 1
            )
        });
        if let RefitOutcome::Published {
            delta_claims: d, ..
        } = outcome
        {
            delta_claims.push(d as f64);
            r.check(d == round.delta_claims, || {
                format!(
                    "write: round {k} refit folded {d} claims; the round's facts have {}",
                    round.delta_claims
                )
            });
        }
        w.epoch += 1;
        let ids = serve::source_ids(server(w));
        let (epoch, params) = serve::epoch_params(server(w));
        for (i, request) in round.queries.iter().enumerate() {
            let facts: Vec<&FactClaims> = round
                .facts
                .iter()
                .skip(i * crate::read::BATCH)
                .take(crate::read::BATCH)
                .collect();
            let resp = conn.call(request);
            r.op(resp.as_ref().is_ok_and(|x| x.status == 200));
            match resp
                .map_err(|e| e.to_string())
                .and_then(|x| serve::check_batch(&x.body, &facts, epoch, &ids, &params))
            {
                Ok(probs) => scored.extend(
                    probs
                        .into_iter()
                        .enumerate()
                        .map(|(j, p)| (k, i * crate::read::BATCH + j, p)),
                ),
                Err(e) => r.check(false, || format!("write: round {k} query: {e}")),
            }
        }
    }
    r.tails.insert(
        "ingest_ack_p50_ms",
        crate::stats::interquartile_mean(&ack.untraced),
    );
    r.e2e_samples("refit_publish_ms", &refit, "ms", median);
    r.tails
        .insert("ingest_ack_p90_ms", crate::stats::quantile(&pooled, 0.9));
    r.layer_median("refit.delta_claims", &delta_claims, "count");

    // The store holds exactly what was sent, and the WAL journaled every
    // batch that accepted rows, each synced before its ack.
    check_counts(
        r,
        "after the stream",
        server(w).store().stats(),
        w.sent.counts(),
    );
    let (appends, fsyncs, bytes, _) = domain.wal().ok_or("no WAL attached")?.counters();
    r.check(appends == w.appends, || {
        format!(
            "write: WAL appends {appends}, acked batches with accepted rows {}",
            w.appends
        )
    });
    r.check(fsyncs >= appends, || {
        format!("write: {fsyncs} fsyncs for {appends} appends")
    });
    r.layer(
        "wal.fsyncs_per_ack",
        (fsyncs - wal_before.1) as f64 / stream_acks.max(1) as f64,
        "count",
    );
    r.layer(
        "wal.bytes_per_row",
        bytes as f64 / w.sent.counts().positive as f64,
        "B",
    );

    let facts = scored.iter().map(|&(k, i, p)| (&w.rounds[k].facts[i], p));
    let (accuracy, majority) = data::accuracy_vs_majority(facts, &w.truth);
    r.check(accuracy >= majority, || {
        format!("write: accuracy {accuracy:.4} is below the majority vote's {majority:.4}")
    });
    Ok(accuracy)
}

fn check_counts(r: &mut Report, when: &str, got: StoreStats, want: Counts) {
    let got = (got.facts, got.claims, got.positive_claims);
    r.check(got == (want.facts, want.claims, want.positive), || {
        format!(
            "write: store (facts, claims, positive) {when} = {got:?}, Definition 3 gives {want:?}"
        )
    });
}

/// The resident sample's served answers, bitwise.
fn sample_answers(w: &Write, conn: &mut Conn) -> Result<Vec<u64>, String> {
    let resp = conn.call(&w.sample_request).map_err(|e| e.to_string())?;
    let v = Json::parse(&resp.body)?;
    v.get("results")
        .and_then(Json::arr)
        .ok_or_else(|| format!("sample batch answered {}: {}", resp.status, resp.body))?
        .iter()
        .map(|item| item.num_at("probability").map(f64::to_bits))
        .collect()
}

fn compactions(w: &mut Write, trace: bool, l: &mut Layers, r: &mut Report) -> Result<(), String> {
    let mut conn = Conn::connect(server(w).addr()).map_err(|e| e.to_string())?;
    let before = sample_answers(w, &mut conn)?;
    let mut compact = Samples::default();
    let request = Request::new("POST", "/admin/compact", "");
    for k in 0..w.shape.compactions {
        let traced = trace && k % 2 == 1;
        let t = Instant::now();
        let resp = conn.call(&request);
        compact.push(traced, t.elapsed().as_secs_f64());
        let ok = resp.as_ref().is_ok_and(|x| x.status == 200);
        r.op(ok);
        r.check(ok, || format!("write: /admin/compact answered {resp:?}"));
        check_counts(
            r,
            "after compaction",
            server(w).store().stats(),
            w.sent.counts(),
        );
        let after = sample_answers(w, &mut conn)?;
        r.check(after == before, || {
            "write: answers changed across compaction".into()
        });
        if traced {
            probe_snapshot(server(w), &w.dir.join("probe-snapshot.json"), l)
                .map_err(|e| e.to_string())?;
        }
    }
    r.e2e_samples("compact_s", &compact, "s", median);
    let disk = dir_bytes(&w.wal.dir).map_err(|e| e.to_string())?;
    r.e2e(
        "disk_bytes_per_user_byte",
        disk as f64 / w.user_bytes as f64,
        "ratio",
    );
    Ok(())
}

fn restarts(w: &mut Write, r: &mut Report) -> Result<(), String> {
    let mut conn = Conn::connect(server(w).addr()).map_err(|e| e.to_string())?;
    let before = sample_answers(w, &mut conn)?;
    let first = serve::query_body(&w.sample[0]);
    let first = Request::new("POST", "/query", &first);
    let mut restart = Vec::new();
    for k in 0..w.shape.restarts {
        let t = Instant::now();
        let old = w.server.take().expect("the write server is up");
        old.shutdown()
            .map_err(|e| format!("restart {k}: shutdown: {e}"))?;
        let new = serve::boot(Some(w.wal.clone())).map_err(|e| format!("restart {k}: {e}"))?;
        conn = Conn::connect(new.addr()).map_err(|e| e.to_string())?;
        let resp = conn.call(&first);
        restart.push(t.elapsed().as_secs_f64());
        w.server = Some(new);
        let ok = resp.as_ref().is_ok_and(|x| x.status == 200);
        r.op(ok);
        r.check(ok, || {
            format!("write: first query after restart {k} answered {resp:?}")
        });
        check_counts(
            r,
            "after restart",
            server(w).store().stats(),
            w.sent.counts(),
        );
        let replayed = server(w)
            .domains()
            .default_domain()
            .wal()
            .map(|wal| wal.counters().3);
        r.check(replayed == Some(0), || {
            format!("write: clean restart {k} replayed {replayed:?} WAL rows")
        });
        let after = sample_answers(w, &mut conn)?;
        r.check(after == before, || {
            format!("write: answers changed across restart {k}")
        });
    }
    r.e2e("restart_s", median(&restart), "s");
    Ok(())
}

/// A domain beside the server, with its own WAL, that prices
/// `Domain::ingest_batch` on batches shaped like the stream's.
fn probe_domain(dir: &Path) -> std::io::Result<Arc<Domain>> {
    let domain = Domain::new("probe", ModelKind::Boolean, 4, &serve::refit_config());
    let meta = WalDomainMeta {
        kind: ModelKind::Boolean.as_str().to_owned(),
        shards: 4,
    };
    let (wal, _) = DomainWal::open(&WalConfig::new(dir), "probe", &meta, domain.store())?;
    domain.attach_wal(Arc::new(wal));
    Ok(domain)
}

fn probe_ingest(probe: &Domain, body: &str, rows: &[Triple], l: &mut Layers) {
    let t = Instant::now();
    let parsed: serde::Value = serde_json::from_str(body).expect("rendered body parses");
    l.decode_claims_us.push(t.elapsed().as_secs_f64() * 1e6);
    std::hint::black_box(parsed);
    let records = serve::records(rows);
    let t = Instant::now();
    let frame = encode_record(&WalRecord {
        domain: "default".into(),
        first_seq: 1,
        rows: records.clone(),
    });
    l.wal_encode_us.push(t.elapsed().as_secs_f64() * 1e6);
    std::hint::black_box(frame);
    let t = Instant::now();
    let out = probe.ingest_batch(&records);
    l.ingest_batch_us.push(t.elapsed().as_secs_f64() * 1e6);
    assert!(out.is_ok(), "probe ingest failed: {out:?}");
}

/// Times each stage of a refit by calling its public functions on the
/// live store, before the round's real refit runs.
fn probe_refit(server: &Server, l: &mut Layers) {
    let domain = server.domains().default_domain();
    let store = domain.store();
    let (watermark, accumulator) = {
        let st = domain.refit_state().locked();
        (st.watermark(), st.streaming().cloned())
    };
    let t = Instant::now();
    let delta = store.shard_databases_since(watermark);
    l.extract_delta_ms.push(ms(t));
    if let Some(mut acc) = accumulator {
        let t = Instant::now();
        for db in &delta.batches {
            let fit = acc.try_observe_chains(db, serve::refit_config().chains);
            std::hint::black_box(fit.is_ok());
        }
        l.fold_ms.push(ms(t));
    }
    let t = Instant::now();
    let (full, globals) = store.full_databases_with_ids();
    l.extract_full_ms.push(ms(t));
    let t = Instant::now();
    let (db, _) = shadow::merge_extraction(&full.batches, &globals);
    l.merge_ms.push(ms(t));
    drop(full);
    let snap = server.predictor().load();
    if let Some(ltm) = snap.predictor.as_boolean() {
        let t = Instant::now();
        let scores = ltm.predict(&db);
        std::hint::black_box(source_agreement_trust(&db, &scores));
        l.ltm_column_ms.push(ms(t));
    }
    for method in all_baselines() {
        let t = Instant::now();
        let scores = method.infer(&db);
        std::hint::black_box(source_agreement_trust(&db, &scores));
        let elapsed = ms(t);
        let name = format!("baselines.{}_ms", metric_name(method.name()));
        match l.baselines_ms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(elapsed),
            None => l.baselines_ms.push((name, vec![elapsed])),
        }
    }
}

/// The per-layer metric name of a Table 7 method.
fn metric_name(method: &str) -> &'static str {
    match method {
        "3-Estimates" => "three_estimates",
        "Voting" => "voting",
        "TruthFinder" => "truthfinder",
        "Investment" => "investment",
        "HubAuthority" => "hub_authority",
        "AvgLog" => "avglog",
        "PooledInvestment" => "pooled_investment",
        other => panic!("no metric name for baseline `{other}`"),
    }
}

/// Times snapshot capture, save, load and restore (into a fresh domain
/// set) on a side path.
fn probe_snapshot(server: &Server, path: &Path, l: &mut Layers) -> std::io::Result<()> {
    let domains = server.domains();
    let t = Instant::now();
    std::hint::black_box(snapshot::capture(&domains));
    l.capture_ms.push(ms(t));
    let t = Instant::now();
    snapshot::save(&domains, path)?;
    l.save_ms.push(ms(t));
    l.snapshot_bytes.push(std::fs::metadata(path)?.len() as f64);
    let t = Instant::now();
    let snap = snapshot::load(path)?;
    l.load_ms.push(ms(t));
    let fresh = ltm_serve::DomainSet::new();
    let t = Instant::now();
    snapshot::restore(&snap, &fresh, &serve::refit_config())?;
    l.restore_ms.push(ms(t));
    std::fs::remove_file(path)
}

fn report_layers(l: &Layers, r: &mut Report) {
    r.layer_median("json.decode_claims_us", &l.decode_claims_us, "us");
    r.layer_median("domain.ingest_batch_us", &l.ingest_batch_us, "us");
    r.layer_median("wal.encode_us", &l.wal_encode_us, "us");
    r.layer_median("store.extract_delta_ms", &l.extract_delta_ms, "ms");
    r.layer_median("streaming.fold_ms", &l.fold_ms, "ms");
    r.layer_median("store.extract_full_ms", &l.extract_full_ms, "ms");
    r.layer_median("shadow.merge_ms", &l.merge_ms, "ms");
    r.layer_median("shadow.ltm_column_ms", &l.ltm_column_ms, "ms");
    for (name, samples) in &l.baselines_ms {
        r.layer_median(name, samples, "ms");
    }
    r.layer_median("snapshot.capture_ms", &l.capture_ms, "ms");
    r.layer_median("snapshot.save_ms", &l.save_ms, "ms");
    r.layer_median("snapshot.load_ms", &l.load_ms, "ms");
    r.layer_median("snapshot.restore_ms", &l.restore_ms, "ms");
    r.layer_median("snapshot.bytes", &l.snapshot_bytes, "B");
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

impl Write {
    /// Stops the server.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            if let Err(e) = server.shutdown() {
                eprintln!("ltmbench: write server shutdown: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::metric_name;

    #[test]
    fn baseline_metric_names() {
        let names: Vec<&str> = ltm_baselines::all_baselines()
            .iter()
            .map(|m| metric_name(m.name()))
            .collect();
        assert_eq!(
            names,
            [
                "three_estimates",
                "voting",
                "truthfinder",
                "investment",
                "hub_authority",
                "avglog",
                "pooled_investment"
            ]
        );
    }
}
