//! End-to-end tests of the event-loop front end's new surface: the
//! `POST …/query/batch` endpoint (empty, oversize, mixed known/unknown,
//! `?methods=all` parity with single queries, the statuses of `/query`'s
//! rejections), HTTP/1.1 keep-alive reuse and its counters, and
//! pipelined-request ordering.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use latent_truth::core::{LtmConfig, SampleSchedule};
use ltm_serve::http::{http_call, HttpClient};
use ltm_serve::model::ModelKind;
use ltm_serve::refit::RefitConfig;
use ltm_serve::server::{ServeConfig, Server};
use serde::Value;
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

fn parse(body: &str) -> Value {
    from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

fn field_f64(value: &Value, name: &str) -> f64 {
    value
        .get_field(name)
        .unwrap_or_else(|| panic!("no field {name} in {value:?}"))
        .as_f64()
        .unwrap_or_else(|| panic!("field {name} is not a number"))
}

fn results<'a>(value: &'a Value, body: &str) -> &'a [Value] {
    match value.get_field("results") {
        Some(Value::Array(items)) => items,
        other => panic!("no results array in {body} ({other:?})"),
    }
}

/// Boots a server with an ingested workload and one published epoch.
fn boot_with_epoch() -> Server {
    let server = Server::start(config()).expect("boot");
    let addr = server.addr();
    let (status, body) = http_call(addr, "POST", "/claims", Some(&workload_body(10))).unwrap();
    assert_eq!(status, 200, "{body}");
    server.trigger_refit();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http_call(addr, "GET", "/stats", None).expect("stats");
        if field_f64(&parse(&body), "epoch") >= 1.0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "no epoch: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
    server
}

#[test]
fn empty_batch_is_a_valid_no_op() {
    let server = Server::start(config()).expect("boot");
    let (status, body) = http_call(
        server.addr(),
        "POST",
        "/query/batch",
        Some("{\"queries\":[]}"),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let value = parse(&body);
    assert_eq!(field_f64(&value, "count"), 0.0, "{body}");
    assert!(results(&value, &body).is_empty(), "{body}");
    server.shutdown().unwrap();
}

#[test]
fn oversize_batch_is_rejected_with_413_before_the_body_uploads() {
    let server = Server::start(config()).expect("boot");
    // Announce a body over MAX_BODY and send none of it: the front end
    // must reject from the head alone, without waiting for 17 MiB.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST /query/batch HTTP/1.1\r\nHost: ltm\r\nContent-Length: {}\r\n\r\n",
        17 * 1024 * 1024
    )
    .unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 413"),
        "expected 413, got: {text}"
    );
    server.shutdown().unwrap();
}

#[test]
fn batch_resolves_known_and_unknown_sources_per_item() {
    let server = boot_with_epoch();
    let body = "{\"queries\":[[[\"good\",true],[\"lazy\",false]],[[\"ghost\",true]],[]]}";
    let (status, body) = http_call(server.addr(), "POST", "/query/batch", Some(body)).unwrap();
    assert_eq!(status, 200, "{body}");
    let value = parse(&body);
    assert_eq!(field_f64(&value, "count"), 3.0, "{body}");
    let items = results(&value, &body);
    let unknowns = |item: &Value| match item.get_field("unknown_sources") {
        Some(Value::Array(names)) => names.len(),
        other => panic!("no unknown_sources in {other:?}"),
    };
    // Known sources resolve; the unknown one is reported, not an error;
    // an empty claims list still scores (the prior).
    assert_eq!(unknowns(&items[0]), 0, "{body}");
    assert_eq!(unknowns(&items[1]), 1, "{body}");
    assert!(body.contains("\"ghost\""), "{body}");
    for item in items {
        let p = field_f64(item, "probability");
        assert!((0.0..=1.0).contains(&p), "{body}");
    }
    server.shutdown().unwrap();
}

#[test]
fn batch_methods_all_matches_n_single_queries_on_one_epoch() {
    let server = boot_with_epoch();
    let addr = server.addr();
    let claim_sets = [
        "[[\"good\",true],[\"lazy\",false]]",
        "[[\"good\",true],[\"spammy\",true]]",
        "[[\"lazy\",true]]",
    ];
    let batch_body = format!("{{\"queries\":[{}]}}", claim_sets.join(","));
    let (status, batch) =
        http_call(addr, "POST", "/query/batch?methods=all", Some(&batch_body)).unwrap();
    assert_eq!(status, 200, "{batch}");
    let batch_value = parse(&batch);
    let batch_epoch = field_f64(&batch_value, "epoch");
    let items = results(&batch_value, &batch);
    assert_eq!(items.len(), claim_sets.len(), "{batch}");

    for (claims, item) in claim_sets.iter().zip(items) {
        let single_body = format!("{{\"claims\":{claims}}}");
        let (status, single) =
            http_call(addr, "POST", "/query?methods=all", Some(&single_body)).unwrap();
        assert_eq!(status, 200, "{single}");
        let single_value = parse(&single);
        // Same epoch answered both (no refit is armed), so every score
        // must agree exactly.
        assert_eq!(field_f64(&single_value, "epoch"), batch_epoch, "{single}");
        assert_eq!(
            field_f64(&single_value, "probability"),
            field_f64(item, "probability"),
            "{single} vs {batch}"
        );
        let (Some(Value::Object(single_methods)), Some(Value::Object(batch_methods))) =
            (single_value.get_field("methods"), item.get_field("methods"))
        else {
            panic!("missing methods maps: {single} vs {batch}");
        };
        assert_eq!(single_methods.len(), batch_methods.len(), "{batch}");
        assert!(
            single_methods.len() >= 3,
            "methods=all is a panel: {single}"
        );
        for (name, score) in single_methods {
            let batch_score = batch_methods
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("method {name} missing from batch item: {batch}"));
            assert_eq!(
                score.as_f64(),
                batch_score.as_f64(),
                "method {name}: {single} vs {batch}"
            );
        }
    }
    server.shutdown().unwrap();
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let server = boot_with_epoch();
    let mut client = HttpClient::new(server.addr()).unwrap();
    // Each request names a distinct unknown source, so each response is
    // attributable: response i must echo marker i.
    let bodies: Vec<String> = (0..8)
        .map(|i| format!("{{\"claims\":[[\"pipeline-marker-{i}\",true]]}}"))
        .collect();
    let requests: Vec<(&str, &str, Option<&str>)> = bodies
        .iter()
        .map(|b| ("POST", "/query", Some(b.as_str())))
        .collect();
    let responses = client.pipeline(&requests).expect("pipeline");
    assert_eq!(responses.len(), bodies.len());
    for (i, (status, body)) in responses.iter().enumerate() {
        assert_eq!(*status, 200, "{body}");
        assert!(
            body.contains(&format!("\"pipeline-marker-{i}\"")),
            "response {i} out of order: {body}"
        );
    }
    server.shutdown().unwrap();
}

#[test]
fn keepalive_reuse_shows_in_stats_and_metrics() {
    let server = Server::start(config()).expect("boot");
    let addr = server.addr();
    let mut client = HttpClient::new(addr).unwrap();
    for _ in 0..5 {
        let (status, body) = client.call("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    assert!(client.is_connected(), "keep-alive connection was dropped");

    // The parked keep-alive connection is visible in the gauge, and the
    // 4 follow-up requests on it counted as reuses — on both surfaces.
    let (status, stats) = http_call(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200, "{stats}");
    let value = parse(&stats);
    assert!(field_f64(&value, "open_connections") >= 1.0, "{stats}");
    assert!(field_f64(&value, "keepalive_reuses") >= 4.0, "{stats}");

    let (status, metrics) = http_call(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let reuse_line = metrics
        .lines()
        .find(|l| l.starts_with("ltm_keepalive_reuse_total"))
        .unwrap_or_else(|| panic!("no ltm_keepalive_reuse_total in metrics"));
    let reuses: f64 = reuse_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(reuses >= 4.0, "{reuse_line}");
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("ltm_open_connections")),
        "no ltm_open_connections in metrics"
    );
    server.shutdown().unwrap();
}

#[test]
fn batch_queries_count_into_the_size_histogram() {
    let server = Server::start(config()).expect("boot");
    let addr = server.addr();
    for queries in ["{\"queries\":[]}", "{\"queries\":[[],[]]}"] {
        let (status, body) = http_call(addr, "POST", "/query/batch", Some(queries)).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let (_, stats) = http_call(addr, "GET", "/stats", None).unwrap();
    assert_eq!(field_f64(&parse(&stats), "batch_queries"), 2.0, "{stats}");
    let (_, metrics) = http_call(addr, "GET", "/metrics", None).unwrap();
    let count_line = metrics
        .lines()
        .find(|l| l.starts_with("ltm_batch_query_size_count"))
        .unwrap_or_else(|| panic!("no ltm_batch_query_size_count in metrics"));
    assert!(count_line.ends_with(" 2"), "{count_line}");
    server.shutdown().unwrap();
}

#[test]
fn batch_rejects_what_a_single_query_rejects_with_the_same_status() {
    let server = Server::start(ServeConfig {
        domains: vec![("scores".into(), ModelKind::RealValued)],
        ..config()
    })
    .expect("boot");
    let addr = server.addr();
    // Sends one claim list to `{prefix}/query{query}` and, as a one-entry
    // batch, to `{prefix}/query/batch{query}`: both must answer `want`.
    let both = |prefix: &str, query: &str, claims: &str, want: u16| {
        for (path, body) in [
            (
                format!("{prefix}/query{query}"),
                format!("{{\"claims\":{claims}}}"),
            ),
            (
                format!("{prefix}/query/batch{query}"),
                format!("{{\"queries\":[{claims}]}}"),
            ),
        ] {
            let (status, response) = http_call(addr, "POST", &path, Some(&body)).unwrap();
            assert_eq!(status, want, "{path}: {response}");
        }
    };
    let claims = "[[\"good\",true]]";
    both("/d/scores", "?methods=all", "[[\"sv\",0.5]]", 409);
    both("", "?methods=voting", claims, 409);
    both("", "?methods=oracle", claims, 409);
    both("", "?explain=1", claims, 400);
    both("", "", "[[\"good\"]]", 400);

    let (status, body) = http_call(addr, "POST", "/claims", Some(&workload_body(10))).unwrap();
    assert_eq!(status, 200, "{body}");
    server.trigger_refit();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http_call(addr, "GET", "/stats", None).expect("stats");
        if field_f64(&parse(&body), "epoch") >= 1.0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "no epoch: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
    both("", "?methods=oracle", claims, 400);
    both("", "?methods=voting", claims, 200);

    // A non-array entry and a malformed one fail the batch, naming it.
    for (queries, named) in [
        ("[[],7]", "query 1 is not an array"),
        (
            "[[],[[\"good\",true],[\"lazy\"]]]",
            "query 1 claim 1 must be",
        ),
    ] {
        let body = format!("{{\"queries\":{queries}}}");
        let (status, response) = http_call(addr, "POST", "/query/batch", Some(&body)).unwrap();
        assert_eq!(status, 400, "{response}");
        assert!(response.contains(named), "{response}");
    }
    server.shutdown().unwrap();
}
