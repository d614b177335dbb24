//! End-to-end tests of the shadow-predictor ensemble: ingest over HTTP,
//! let a promoted refit publish the shadow tables, and verify that
//! `?methods=all` answers match offline fits on the same extraction;
//! then prove the tables survive a snapshot round trip bit-identically
//! and that a snapshot without shadow tables still loads.

use std::time::{Duration, Instant};

use latent_truth::core::LtmConfig;
use latent_truth::core::SampleSchedule;
use latent_truth::model::SourceId;
use ltm_serve::http::http_call;
use ltm_serve::refit::RefitConfig;
use ltm_serve::server::{ServeConfig, Server};
use ltm_serve::shadow::{self, score_claims};
use ltm_serve::snapshot;
use serde_json::from_str;

/// Test-speed server config with an always-promoting gate, so the first
/// refit is guaranteed to publish shadow tables.
fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 3,
        threads: 3,
        refit: RefitConfig {
            ltm: LtmConfig {
                schedule: SampleSchedule::new(60, 20, 1),
                ..LtmConfig::default()
            },
            chains: 2,
            rhat_gate: 1e9,
            min_pending: usize::MAX,
            interval: Duration::from_millis(20),
            ..RefitConfig::default()
        },
        snapshot: None,
        ..ServeConfig::default()
    }
}

/// The conflicting-source workload of `serve_e2e`: `good` asserts two
/// attributes per entity, `lazy` one, `spammy` a junk attribute.
fn workload_body(entities: usize) -> String {
    let mut triples = Vec::new();
    for e in 0..entities {
        triples.push(format!("[\"e{e}\",\"a0\",\"good\"]"));
        triples.push(format!("[\"e{e}\",\"a1\",\"good\"]"));
        triples.push(format!("[\"e{e}\",\"a0\",\"lazy\"]"));
        triples.push(format!("[\"e{e}\",\"junk\",\"spammy\"]"));
    }
    format!("{{\"triples\":[{}]}}", triples.join(","))
}

fn field_f64(body: &str, name: &str) -> f64 {
    let value: serde::Value = from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"));
    let field = value
        .get_field(name)
        .unwrap_or_else(|| panic!("no field {name} in {body}"));
    field
        .as_f64()
        .unwrap_or_else(|| panic!("field {name} is not a number: {field:?}"))
}

/// Extracts `methods.<wire>` from a `?methods=` response.
fn method_score(body: &str, wire: &str) -> f64 {
    let value: serde::Value = from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"));
    value
        .get_field("methods")
        .and_then(|m| m.get_field(wire))
        .and_then(serde::Value::as_f64)
        .unwrap_or_else(|| panic!("no methods.{wire} in {body}"))
}

fn wait_for_epoch(addr: std::net::SocketAddr, at_least: f64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = http_call(addr, "GET", "/stats", None).expect("stats");
        assert_eq!(status, 200, "{body}");
        if field_f64(&body, "epoch") >= at_least {
            return;
        }
        assert!(Instant::now() < deadline, "no epoch ≥ {at_least}: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn methods_all_matches_offline_fits_on_the_same_extraction() {
    let server = Server::start(config()).expect("boot");
    let addr = server.addr();

    let (status, body) = http_call(addr, "POST", "/claims", Some(&workload_body(12))).unwrap();
    assert_eq!(status, 200, "{body}");

    // Before the first promoted refit, shadow methods answer 409 but the
    // LTM-only request works against the boot epoch.
    let query = "{\"claims\":[[\"good\",true],[\"lazy\",false],[\"spammy\",true]]}";
    let (status, body) = http_call(addr, "POST", "/query?methods=all", Some(query)).unwrap();
    assert_eq!(status, 409, "shadow query before any refit: {body}");
    let (status, _) = http_call(addr, "POST", "/query?methods=ltm", Some(query)).unwrap();
    assert_eq!(status, 200);

    server.trigger_refit();
    wait_for_epoch(addr, 1.0);

    // The published tables must equal an offline fit on the same
    // extraction, bit for bit: same merged batches, same predictor.
    let snap = server.predictor().load();
    let published = snap.shadow.as_deref().expect("shadow tables published");
    let store = server.store();
    let (full, globals) = store.full_databases_with_ids();
    let ltm = snap.predictor.as_boolean().cloned().expect("boolean epoch");
    let offline = shadow::fit_shadow_tables(&full.batches, &globals, &ltm, None);
    assert_eq!(
        &offline, published,
        "published tables drifted from an offline fit"
    );
    assert_eq!(
        published.methods.len(),
        1 + ltm_baselines::all_baselines().len()
    );
    assert_eq!(published.num_facts(), 3 * 12); // a0, a1, junk per entity

    // `?methods=all` per-method answers reproduce the library scoring
    // exactly: Equation 3 for LTM, the trust-weighted vote for each
    // baseline, and the rank-average ensemble of all of them.
    let (status, body) = http_call(addr, "POST", "/query?methods=all", Some(query)).unwrap();
    assert_eq!(status, 200, "{body}");
    let claims: Vec<(SourceId, bool)> = [("good", true), ("lazy", false), ("spammy", true)]
        .iter()
        .map(|&(name, o)| (store.source_id(name).expect(name), o))
        .collect();

    let ltm_expect = snap.predictor.predict_fact(&claims);
    assert_eq!(method_score(&body, "ltm"), ltm_expect, "{body}");
    assert_eq!(field_f64(&body, "probability"), ltm_expect, "{body}");

    let mut per_method = vec![ltm_expect];
    for column in published.methods.iter().skip(1) {
        let expect = score_claims(&column.trust, &claims);
        let wire = shadow::wire_name(&column.name);
        assert_eq!(method_score(&body, &wire), expect, "method {wire}: {body}");
        per_method.push(expect);
    }
    let ensemble_expect = published.ensemble_of(&per_method);
    assert_eq!(method_score(&body, "ensemble"), ensemble_expect, "{body}");

    // Subset requests answer exactly the requested methods.
    let (status, body) = http_call(addr, "POST", "/query?methods=voting", Some(query)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        method_score(&body, "voting"),
        per_method[published
            .methods
            .iter()
            .position(|c| c.name == "Voting")
            .unwrap()]
    );

    // Unknown methods are a client error, not a panic.
    let (status, body) = http_call(addr, "POST", "/query?methods=oracle", Some(query)).unwrap();
    assert_eq!(status, 400, "{body}");

    server.shutdown().expect("clean shutdown");
}

#[test]
fn snapshot_round_trips_shadow_tables_bit_identically() {
    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("ltm-shadow-e2e-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snap_path);

    let mut cfg = config();
    cfg.snapshot = Some(snap_path.clone());
    let server = Server::start(cfg.clone()).expect("boot");
    let addr = server.addr();
    let (status, _) = http_call(addr, "POST", "/claims", Some(&workload_body(8))).unwrap();
    assert_eq!(status, 200);
    server.trigger_refit();
    wait_for_epoch(addr, 1.0);

    let query = "{\"claims\":[[\"good\",true],[\"lazy\",false]]}";
    let (status, before) = http_call(addr, "POST", "/query?methods=all", Some(query)).unwrap();
    assert_eq!(status, 200, "{before}");

    server.save_snapshot(&snap_path).unwrap();
    let saved = snapshot::load(&snap_path).unwrap();
    let rec = saved
        .domain(ltm_serve::DEFAULT_DOMAIN)
        .and_then(|d| d.epoch.as_ref())
        .expect("epoch saved");
    let shadow_rec = rec.shadow.as_ref().expect("shadow tables saved");
    assert_eq!(
        shadow_rec.methods.len(),
        1 + ltm_baselines::all_baselines().len()
    );
    server.shutdown().expect("clean shutdown");

    // Restart from the snapshot: the restored server must answer the
    // same `?methods=all` query with a byte-identical body (scores are
    // persisted as raw f64 and re-assembled deterministically).
    let restored = Server::start(cfg.clone()).expect("boot from snapshot");
    let addr = restored.addr();
    let (status, after) = http_call(addr, "POST", "/query?methods=all", Some(query)).unwrap();
    assert_eq!(status, 200, "{after}");
    assert_eq!(
        before, after,
        "shadow answers changed across a snapshot round trip"
    );
    restored.shutdown().expect("clean shutdown");

    // A snapshot *without* the shadow section (an epoch fit with shadows
    // disabled) still loads: plain queries serve the restored epoch,
    // shadow queries answer 409.
    let mut stripped = snapshot::load(&snap_path).unwrap();
    for d in &mut stripped.domains {
        if let Some(e) = &mut d.epoch {
            e.shadow = None;
        }
    }
    snapshot::write(&stripped, &snap_path).unwrap();
    let legacy = Server::start(cfg).expect("boot from a snapshot without shadow tables");
    let addr = legacy.addr();
    let (status, body) = http_call(addr, "POST", "/query", Some(query)).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = http_call(addr, "POST", "/query?methods=all", Some(query)).unwrap();
    assert_eq!(
        status, 409,
        "a snapshot without shadow tables must serve 409 for shadow methods: {body}"
    );
    legacy.shutdown().expect("clean shutdown");

    let _ = std::fs::remove_file(&snap_path);
}
