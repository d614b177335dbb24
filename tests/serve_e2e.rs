//! End-to-end tests of the `ltm-serve` subsystem: boot the HTTP server,
//! ingest over the wire, watch the background refit daemon publish an
//! epoch, verify query parity with the library, prove queries never block
//! on a refit, and restart from a snapshot.

use std::sync::Arc;
use std::time::{Duration, Instant};

use latent_truth::core::priors::BetaPair;
use latent_truth::core::{IncrementalLtm, LtmConfig, SampleSchedule};
use latent_truth::model::SourceId;
use ltm_serve::http::http_call;
use ltm_serve::refit::RefitConfig;
use ltm_serve::server::{ServeConfig, Server};
use ltm_serve::snapshot;
use serde_json::from_str;

/// Test-speed server config: tiny schedule, manual refit triggers only.
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
            rhat_gate: 2.0,
            min_pending: usize::MAX,
            interval: Duration::from_millis(20),
            ..RefitConfig::default()
        },
        snapshot: None,
        ..ServeConfig::default()
    }
}

/// A JSON body ingesting a small conflicting-source workload: `good`
/// asserts two attributes per entity, `lazy` asserts one, `spammy`
/// asserts a junk attribute per entity.
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

/// Extracts a JSON number field from a flat response body.
fn field_f64(body: &str, name: &str) -> f64 {
    let value: serde::Value = from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"));
    let field = value
        .get_field(name)
        .unwrap_or_else(|| panic!("no field {name} in {body}"));
    field
        .as_f64()
        .unwrap_or_else(|| panic!("field {name} is not a number: {field:?}"))
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
fn boot_ingest_refit_query_parity_and_snapshot_restart() {
    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("ltm-e2e-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snap_path);

    let mut cfg = config();
    cfg.snapshot = Some(snap_path.clone());
    let server = Server::start(cfg.clone()).expect("boot");
    let addr = server.addr();

    // Liveness before any data.
    let (status, body) = http_call(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");

    // Ingest over the wire.
    let (status, body) = http_call(addr, "POST", "/claims", Some(&workload_body(10))).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(field_f64(&body, "accepted"), 40.0, "{body}");

    // Background refit publishes epoch ≥ 1.
    server.trigger_refit();
    wait_for_epoch(addr, 1.0);

    // Query through HTTP…
    let query = "{\"claims\":[[\"good\",true],[\"lazy\",false],[\"spammy\",true]]}";
    let (status, body) = http_call(addr, "POST", "/query", Some(query)).unwrap();
    assert_eq!(status, 200, "{body}");
    let served = field_f64(&body, "probability");
    assert!((0.0..=1.0).contains(&served), "{body}");

    // …must match predict_fact on the same learned quality within 1e-9.
    // Rebuild the predictor from a snapshot of the served epoch.
    server.save_snapshot(&snap_path).unwrap();
    let saved = snapshot::load(&snap_path).unwrap();
    assert!(
        std::fs::read(&snap_path).unwrap().starts_with(b"LTMSNAP3"),
        "snapshots save in format v3"
    );
    let default = saved
        .domain(ltm_serve::DEFAULT_DOMAIN)
        .expect("default domain saved");
    let rec = default.epoch.as_ref().expect("epoch saved");
    let predictor = IncrementalLtm::from_parts(
        rec.phi1.clone(),
        rec.phi0.clone(),
        BetaPair::new(rec.beta_pos, rec.beta_neg),
        rec.default_phi1,
        rec.default_phi0,
    );
    let id_of = |name: &str| {
        SourceId::from_usize(
            default
                .sources
                .iter()
                .position(|s| s == name)
                .unwrap_or_else(|| panic!("source {name} not in snapshot")),
        )
    };
    let direct = predictor.predict_fact(&[
        (id_of("good"), true),
        (id_of("lazy"), false),
        (id_of("spammy"), true),
    ]);
    assert!(
        (served - direct).abs() < 1e-9,
        "served {served} vs direct {direct}"
    );

    // A fact endpoint agrees with the library on its own claims too.
    let (status, fact_body) = http_call(addr, "GET", "/facts/0", None).unwrap();
    assert_eq!(status, 200, "{fact_body}");
    let store = server.store();
    let view = store.fact(0).unwrap();
    let direct_fact = predictor.predict_fact(&view.claims);
    assert!((field_f64(&fact_body, "probability") - direct_fact).abs() < 1e-9);

    // Kill the server (graceful shutdown writes the final snapshot)…
    let epoch_before = field_f64(&http_call(addr, "GET", "/stats", None).unwrap().1, "epoch");
    server.shutdown().unwrap();

    // …and restart from the snapshot: same epoch, same answers, no refit.
    let restarted = Server::start(cfg).expect("restart");
    let addr2 = restarted.addr();
    let (status, body2) = http_call(addr2, "POST", "/query", Some(query)).unwrap();
    assert_eq!(status, 200, "{body2}");
    assert_eq!(
        field_f64(&body2, "probability"),
        served,
        "snapshot restart must preserve answers bit-for-bit"
    );
    assert_eq!(field_f64(&body2, "epoch"), epoch_before);
    let (_, fact2) = http_call(addr2, "GET", "/facts/0", None).unwrap();
    assert_eq!(
        field_f64(&fact2, "probability"),
        field_f64(&fact_body, "probability")
    );
    restarted.shutdown().unwrap();
    let _ = std::fs::remove_file(&snap_path);
}

/// Waits until the given `/stats` counter reaches `at_least`.
fn wait_for_stat(addr: std::net::SocketAddr, field: &str, at_least: f64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = http_call(addr, "GET", "/stats", None).expect("stats");
        assert_eq!(status, 200, "{body}");
        if field_f64(&body, field) >= at_least {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{field} never reached {at_least}: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The second ingest wave: a brand-new source `late` starts covering ten
/// *old* entities (retroactive Definition-3 negatives on their other
/// facts) and ten new entities arrive from the old sources.
fn second_wave_body() -> String {
    let mut triples = Vec::new();
    for e in 0..10 {
        triples.push(format!("[\"e{e}\",\"a0\",\"late\"]"));
    }
    for e in 20..30 {
        triples.push(format!("[\"e{e}\",\"a0\",\"good\"]"));
        triples.push(format!("[\"e{e}\",\"a1\",\"good\"]"));
        triples.push(format!("[\"e{e}\",\"a0\",\"lazy\"]"));
    }
    format!("{{\"triples\":[{}]}}", triples.join(","))
}

#[test]
fn incremental_and_full_refits_agree_within_tolerance() {
    // Same ingest history, two refit strategies: server A folds it in two
    // incremental deltas (the second containing retroactive coverage
    // changes), server B reconciles with one full refit. Their served
    // probabilities must agree within an MCMC + drift tolerance.
    let server_a = Server::start(config()).expect("boot A");
    let addr_a = server_a.addr();
    http_call(addr_a, "POST", "/claims", Some(&workload_body(20))).unwrap();
    server_a.trigger_refit();
    wait_for_stat(addr_a, "refits_incremental", 1.0);
    http_call(addr_a, "POST", "/claims", Some(&second_wave_body())).unwrap();
    server_a.trigger_refit();
    wait_for_stat(addr_a, "refits_incremental", 2.0);
    let (_, stats_a) = http_call(addr_a, "GET", "/stats", None).unwrap();
    assert_eq!(field_f64(&stats_a, "refits_full"), 0.0, "{stats_a}");
    assert_eq!(field_f64(&stats_a, "pending"), 0.0, "{stats_a}");

    let server_b = Server::start(config()).expect("boot B");
    let addr_b = server_b.addr();
    http_call(addr_b, "POST", "/claims", Some(&workload_body(20))).unwrap();
    http_call(addr_b, "POST", "/claims", Some(&second_wave_body())).unwrap();
    let (status, body) = http_call(addr_b, "POST", "/admin/refit?mode=full", None).unwrap();
    assert_eq!(status, 202, "{body}");
    wait_for_stat(addr_b, "refits_full", 1.0);

    for query in [
        "{\"claims\":[[\"good\",true],[\"lazy\",false]]}",
        "{\"claims\":[[\"late\",true]]}",
        "{\"claims\":[[\"good\",true],[\"spammy\",true],[\"late\",false]]}",
        "{\"claims\":[[\"lazy\",true],[\"spammy\",false]]}",
    ] {
        let (_, a) = http_call(addr_a, "POST", "/query", Some(query)).unwrap();
        let (_, b) = http_call(addr_b, "POST", "/query", Some(query)).unwrap();
        let (pa, pb) = (field_f64(&a, "probability"), field_f64(&b, "probability"));
        assert!(
            (pa - pb).abs() < 0.15,
            "incremental {pa} vs full {pb} diverged on {query}"
        );
    }

    // The unknown-source machinery agrees too: `late` is known to both.
    let (_, a) = http_call(
        addr_a,
        "POST",
        "/query",
        Some("{\"claims\":[[\"late\",true]]}"),
    )
    .unwrap();
    assert!(!a.contains("\"late\""), "late must be a known source: {a}");
    server_a.shutdown().unwrap();
    server_b.shutdown().unwrap();
}

#[test]
fn snapshot_restart_resumes_the_accumulator_incrementally() {
    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("ltm-e2e-acc-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snap_path);
    let mut cfg = config();
    cfg.snapshot = Some(snap_path.clone());

    let server = Server::start(cfg.clone()).expect("boot");
    let addr = server.addr();
    http_call(addr, "POST", "/claims", Some(&workload_body(12))).unwrap();
    server.trigger_refit();
    wait_for_stat(addr, "refits_incremental", 1.0);
    let (_, stats) = http_call(addr, "GET", "/stats", None).unwrap();
    let watermark = field_f64(&stats, "fold_watermark");
    assert_eq!(watermark, 48.0, "all accepted rows folded");
    // Graceful shutdown writes the snapshot (now carrying the accumulator).
    server.shutdown().unwrap();

    let restarted = Server::start(cfg).expect("restart");
    let addr2 = restarted.addr();
    // The accumulator is resumed at boot — before any refit runs.
    {
        let state = restarted.refit_state();
        let st = state.lock().unwrap();
        let resumed = st
            .streaming()
            .expect("restart must resume the accumulator, not cold-refit");
        // 12 entities × 3 facts × 3 covering sources = 108 claims.
        assert!(
            (resumed.accumulated().total() - 108.0).abs() < 1e-6,
            "accumulator covers the whole pre-restart history: {}",
            resumed.accumulated().total()
        );
        assert_eq!(st.watermark(), 48);
    }
    let (_, stats2) = http_call(addr2, "GET", "/stats", None).unwrap();
    assert_eq!(field_f64(&stats2, "fold_watermark"), watermark, "{stats2}");
    assert_eq!(field_f64(&stats2, "pending"), 0.0, "nothing left to refold");

    // New data after the restart is folded as a delta: the refit is
    // incremental, no cold full refit ever runs.
    http_call(
        addr2,
        "POST",
        "/claims",
        Some("{\"triples\":[[\"post-restart\",\"a0\",\"good\"]]}"),
    )
    .unwrap();
    restarted.trigger_refit();
    wait_for_stat(addr2, "refits_incremental", 1.0);
    let (_, stats3) = http_call(addr2, "GET", "/stats", None).unwrap();
    assert_eq!(field_f64(&stats3, "refits_full"), 0.0, "{stats3}");
    assert_eq!(field_f64(&stats3, "fold_watermark"), 49.0, "{stats3}");
    restarted.shutdown().unwrap();
    let _ = std::fs::remove_file(&snap_path);
}

#[test]
fn admin_refit_rejects_unknown_modes() {
    let server = Server::start(config()).expect("boot");
    let addr = server.addr();
    let (status, body) = http_call(addr, "POST", "/admin/refit?mode=sideways", None).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown refit query"), "{body}");
    let (status, _) = http_call(addr, "POST", "/admin/refit?mode=incremental", None).unwrap();
    assert_eq!(status, 202);
    server.shutdown().unwrap();
}

#[test]
fn queries_never_block_on_a_refit() {
    let server = Server::start(config()).expect("boot");
    let addr = server.addr();
    http_call(addr, "POST", "/claims", Some(&workload_body(8))).unwrap();

    // Hold the refit thread hostage: grab the lock it must take for the
    // whole fold, then force a refit.
    let hostage = server.refit_lock();
    let guard = hostage.lock().unwrap();
    server.trigger_refit();
    // Give the daemon time to wake up and block on the hostage lock.
    std::thread::sleep(Duration::from_millis(100));

    // Queries (and ingests, and stats) must all serve while the refit is
    // stuck, on the still-current epoch 0.
    for _ in 0..5 {
        let started = Instant::now();
        let (status, body) = http_call(
            addr,
            "POST",
            "/query",
            Some("{\"claims\":[[\"good\",true]]}"),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(field_f64(&body, "epoch"), 0.0, "refit must not publish");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "query stalled behind the held refit"
        );
    }
    let (_, stats) = http_call(addr, "GET", "/stats", None).unwrap();
    assert!(field_f64(&stats, "refits_started") >= 1.0, "{stats}");

    // Release the hostage: the pending refit completes and publishes.
    drop(guard);
    wait_for_epoch(addr, 1.0);
    server.shutdown().unwrap();
}

#[test]
fn stalled_connections_cannot_wedge_the_worker_pool() {
    // Slow-loris regression: a peer that connects and sends nothing must
    // be dropped after the configured io_timeout instead of blocking a
    // worker forever. Open enough idle connections to occupy every
    // worker, then prove a real request still gets served.
    let mut cfg = config();
    cfg.threads = 2;
    cfg.io_timeout = Duration::from_millis(200);
    let server = Server::start(cfg).expect("boot");
    let addr = server.addr();

    let idle: Vec<_> = (0..3)
        .map(|_| std::net::TcpStream::connect(addr).expect("connect idle"))
        .collect();
    let started = Instant::now();
    let (status, body) = http_call(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "request stalled behind idle connections: {:?}",
        started.elapsed()
    );
    drop(idle);
    server.shutdown().unwrap();
}

#[test]
fn http_error_paths_are_json() {
    let server = Server::start(config()).expect("boot");
    let addr = server.addr();
    let (status, body) = http_call(addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("error"), "{body}");
    let (status, body) = http_call(addr, "POST", "/claims", Some("not json")).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("error"), "{body}");
    let (status, body) = http_call(addr, "POST", "/query", Some("{\"claims\":[]}")).unwrap();
    assert_eq!(status, 200, "empty claim list scores the prior: {body}");
    let (status, _) = http_call(addr, "GET", "/facts/999", None).unwrap();
    assert_eq!(status, 404);
    let (status, body) = http_call(
        addr,
        "POST",
        "/claims",
        Some("{\"triples\":[[\"only\",\"two\"]]}"),
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("expected 3"), "{body}");
    server.shutdown().unwrap();
}

/// Reads one field from a `/stats` domain section.
fn domain_stat(stats_body: &str, domain: &str, field: &str) -> f64 {
    let value: serde::Value = from_str(stats_body).expect("stats JSON");
    let section = value
        .get_field("domains")
        .and_then(|d| d.get_field(domain))
        .unwrap_or_else(|| panic!("no domain section {domain} in {stats_body}"));
    section
        .get_field(field)
        .and_then(serde::Value::as_f64)
        .unwrap_or_else(|| panic!("domain field {field} missing or non-numeric: {stats_body}"))
}

#[test]
fn one_server_hosts_boolean_and_real_valued_domains_concurrently() {
    use latent_truth::datagen::streams::{real_valued_rows, RealStreamConfig};

    let mut cfg = config();
    cfg.domains = vec![("scores".into(), ltm_serve::ModelKind::RealValued)];
    let server = Server::start(cfg).expect("boot");
    let addr = server.addr();

    // Both domains are listed with their kinds.
    let (status, body) = http_call(addr, "GET", "/domains", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"default\"") && body.contains("\"boolean\""),
        "{body}"
    );
    assert!(
        body.contains("\"scores\"") && body.contains("\"real_valued\""),
        "{body}"
    );

    // Boolean ingest on the legacy route, real-valued ingest on the
    // domain route (4-field rows).
    let (status, body) = http_call(addr, "POST", "/claims", Some(&workload_body(10))).unwrap();
    assert_eq!(status, 200, "{body}");
    let rows = real_valued_rows(&RealStreamConfig {
        entities: 30,
        ..RealStreamConfig::default()
    });
    let rendered: Vec<String> = rows
        .iter()
        .map(|(e, a, s, v)| format!("[\"{e}\",\"{a}\",\"{s}\",{v}]"))
        .collect();
    let (status, body) = http_call(
        addr,
        "POST",
        "/d/scores/claims",
        Some(&format!("{{\"triples\":[{}]}}", rendered.join(","))),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(field_f64(&body, "accepted"), rows.len() as f64, "{body}");

    // Refit both domains; each publishes its own epoch independently.
    server.trigger_refit();
    let (status, _) = http_call(addr, "POST", "/d/scores/admin/refit", None).unwrap();
    assert_eq!(status, 202);
    wait_for_epoch(addr, 1.0);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, stats) = http_call(addr, "GET", "/stats", None).unwrap();
        if domain_stat(&stats, "scores", "epoch") >= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "scores never published: {stats}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The real domain learned the value separation: a high-valued claim
    // from an informative source scores far above a low-valued one.
    let (_, hi) = http_call(
        addr,
        "POST",
        "/d/scores/query",
        Some("{\"claims\":[[\"s0\",0.9]]}"),
    )
    .unwrap();
    let (_, lo) = http_call(
        addr,
        "POST",
        "/d/scores/query",
        Some("{\"claims\":[[\"s0\",0.2]]}"),
    )
    .unwrap();
    assert!(
        field_f64(&hi, "probability") > field_f64(&lo, "probability") + 0.5,
        "real domain did not separate values: {hi} vs {lo}"
    );
    // The boolean domain still answers boolean queries.
    let (status, body) = http_call(
        addr,
        "POST",
        "/query",
        Some("{\"claims\":[[\"good\",true],[\"lazy\",false]]}"),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");

    // A real-domain fact resolves with a probability; its claim count
    // covers every covering source.
    let (status, fact) = http_call(addr, "GET", "/d/scores/facts/0", None).unwrap();
    assert_eq!(status, 200, "{fact}");
    let p = field_f64(&fact, "probability");
    assert!((0.0..=1.0).contains(&p), "{fact}");

    // A positive-only domain can be created at runtime and serves too.
    let (status, body) = http_call(
        addr,
        "POST",
        "/admin/domains",
        Some("{\"name\":\"pos\",\"kind\":\"positive_only\"}"),
    )
    .unwrap();
    assert_eq!(status, 201, "{body}");
    let (status, body) = http_call(addr, "POST", "/d/pos/claims", Some(&workload_body(6))).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, _) = http_call(addr, "POST", "/d/pos/admin/refit", None).unwrap();
    assert_eq!(status, 202);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, stats) = http_call(addr, "GET", "/d/pos/stats", None).unwrap();
        if field_f64(&stats, "epoch") >= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "pos never published: {stats}");
        std::thread::sleep(Duration::from_millis(25));
    }
    // Duplicate creation conflicts cleanly.
    let (status, body) = http_call(
        addr,
        "POST",
        "/admin/domains",
        Some("{\"name\":\"pos\",\"kind\":\"boolean\"}"),
    )
    .unwrap();
    assert_eq!(status, 409, "{body}");

    server.shutdown().unwrap();
}

#[test]
fn a_failed_library_save_to_the_configured_path_degrades_healthz() {
    // `Server::save_snapshot` to the configured path goes through the
    // same save as `POST /admin/snapshot`: serialised with compaction,
    // and a failure turns `/healthz` to 503 `degraded`. The configured
    // path sits in a directory that does not exist, so every save fails.
    let missing = std::env::temp_dir()
        .join(format!("ltm-e2e-missing-dir-{}", std::process::id()))
        .join("snapshot.bin");
    let mut cfg = config();
    cfg.snapshot = Some(missing.clone());
    let server = Server::start(cfg).expect("boot");
    let addr = server.addr();
    let (status, body) = http_call(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    server.save_snapshot(&missing).unwrap_err();
    let (status, body) = http_call(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("degraded"), "{body}");
    // The final save on shutdown fails the same way.
    server.shutdown().unwrap_err();
}

#[test]
fn malformed_paths_get_clean_json_errors_on_every_route() {
    let mut cfg = config();
    cfg.domains = vec![("scores".into(), ltm_serve::ModelKind::RealValued)];
    let server = Server::start(cfg).expect("boot");
    let addr = server.addr();
    http_call(addr, "POST", "/claims", Some(&workload_body(2))).unwrap();

    // /facts/{id}: non-numeric, signed, blank, and trailing-junk ids are
    // 400s; digits that cannot name a stored fact are 404s. `+3` MUST NOT
    // alias `/facts/3` (u64::from_str would accept it).
    for bad in [
        "/facts/abc",
        "/facts/-1",
        "/facts/+1",
        "/facts/",
        "/facts/1x",
        "/facts/1/",
    ] {
        let (status, body) = http_call(addr, "GET", bad, None).unwrap();
        assert_eq!(status, 400, "{bad}: {body}");
        assert!(body.contains("error"), "{bad}: {body}");
    }
    for absent in ["/facts/999999", "/facts/99999999999999999999999999"] {
        let (status, body) = http_call(addr, "GET", absent, None).unwrap();
        assert_eq!(status, 404, "{absent}: {body}");
        assert!(body.contains("error"), "{absent}: {body}");
    }
    // Wrong methods are 405s with JSON bodies, not 404 fallthroughs.
    for (method, path) in [
        ("POST", "/healthz"),
        ("POST", "/stats"),
        ("GET", "/claims"),
        ("GET", "/query"),
        ("POST", "/facts/0"),
        ("GET", "/admin/shutdown"),
        ("GET", "/admin/snapshot"),
        ("GET", "/admin/domains"),
        ("POST", "/domains"),
        ("GET", "/d/scores/admin/refit"),
    ] {
        let (status, body) = http_call(addr, method, path, None).unwrap();
        assert_eq!(status, 405, "{method} {path}: {body}");
        assert!(body.contains("error"), "{method} {path}: {body}");
    }
    // Unknown domains and dangling /d/ paths are 404s.
    for path in ["/d/nope/claims", "/d/nope/stats", "/d/scores"] {
        let (status, body) = http_call(addr, "GET", path, None).unwrap();
        assert_eq!(status, 404, "{path}: {body}");
        assert!(body.contains("error"), "{path}: {body}");
    }
    // Kind-mismatched payloads are 400s with actionable messages.
    let (status, body) = http_call(
        addr,
        "POST",
        "/d/scores/claims",
        Some("{\"triples\":[[\"e\",\"a\",\"s\"]]}"),
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("expected 4"), "{body}");
    let (status, body) = http_call(
        addr,
        "POST",
        "/claims",
        Some("{\"triples\":[[\"e\",\"a\",\"s\",0.5]]}"),
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("expected 3"), "{body}");
    let (status, body) = http_call(
        addr,
        "POST",
        "/d/scores/query",
        Some("{\"claims\":[[\"s\",true]]}"),
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("real_valued"), "{body}");
    let (status, body) =
        http_call(addr, "POST", "/query", Some("{\"claims\":[[\"s\",0.5]]}")).unwrap();
    assert_eq!(status, 400, "{body}");
    // Bad domain-creation bodies: invalid kind, invalid name.
    let (status, body) = http_call(
        addr,
        "POST",
        "/admin/domains",
        Some("{\"name\":\"x\",\"kind\":\"gaussian\"}"),
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) = http_call(
        addr,
        "POST",
        "/admin/domains",
        Some("{\"name\":\"has space\",\"kind\":\"boolean\"}"),
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    server.shutdown().unwrap();
}

mod stats_sum_property {
    use super::*;
    use proptest::prelude::*;

    /// The additive `/stats` counters whose per-domain sections must sum
    /// to the global values exactly.
    const ADDITIVE: &[&str] = &[
        "facts",
        "claims",
        "positive_claims",
        "sources",
        "pending",
        "epochs_published",
        "epochs_rejected",
        "refits_started",
        "refits_incremental",
        "refits_full",
        "refits_failed",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Property: for every additive counter, the global `/stats`
        /// value equals the sum over the per-domain sections — under
        /// arbitrary ingest interleavings across a boolean, a
        /// real-valued, and a positive-only domain.
        #[test]
        fn per_domain_stats_sum_to_global(
            batches in proptest::collection::vec(
                (0usize..3, 0u8..6, 0u8..3, 0u8..4), 1..40),
        ) {
            let mut cfg = config();
            cfg.domains = vec![
                ("scores".into(), ltm_serve::ModelKind::RealValued),
                ("pos".into(), ltm_serve::ModelKind::PositiveOnly),
            ];
            let server = Server::start(cfg).expect("boot");
            let addr = server.addr();
            for (d, e, a, s) in batches {
                let (route, row) = match d {
                    0 => ("/claims".to_string(), format!("[\"e{e}\",\"a{a}\",\"s{s}\"]")),
                    1 => (
                        "/d/scores/claims".to_string(),
                        format!("[\"e{e}\",\"a{a}\",\"s{s}\",0.{s}5]"),
                    ),
                    _ => ("/d/pos/claims".to_string(), format!("[\"e{e}\",\"a{a}\",\"s{s}\"]")),
                };
                let (status, body) =
                    http_call(addr, "POST", &route, Some(&format!("{{\"triples\":[{row}]}}")))
                        .expect("ingest");
                prop_assert_eq!(status, 200, "{}", body);
            }
            let (_, stats) = http_call(addr, "GET", "/stats", None).expect("stats");
            for field in ADDITIVE {
                let global = field_f64(&stats, field);
                let sum: f64 = ["default", "scores", "pos"]
                    .iter()
                    .map(|d| domain_stat(&stats, d, field))
                    .sum();
                prop_assert_eq!(global, sum, "counter {} diverges: {}", field, stats);
            }
            server.shutdown().unwrap();
        }
    }
}

#[test]
fn admin_shutdown_unblocks_waiter() {
    let server = Server::start(config()).expect("boot");
    let addr = server.addr();
    let waiter = {
        let server = Arc::new(server);
        let s = Arc::clone(&server);
        let handle = std::thread::spawn(move || s.wait_for_shutdown_request());
        let (status, _) = http_call(addr, "POST", "/admin/shutdown", None).unwrap();
        assert_eq!(status, 202);
        handle.join().unwrap();
        server
    };
    Arc::try_unwrap(waiter)
        .ok()
        .expect("sole owner")
        .shutdown()
        .unwrap();
}
