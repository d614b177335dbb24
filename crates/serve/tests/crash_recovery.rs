//! Crash-recovery fault-injection harness for the WAL (`ltm serve
//! --wal-dir …`).
//!
//! The core test boots the real `ltm` binary, streams ingest batches at
//! it while a killer thread `SIGKILL`s the process at a randomized
//! offset, restarts it on the same WAL directory, and repeats — 20
//! rounds on one continuously-growing lineage. After every kill it
//! asserts the ack contract: every batch acked with HTTP 200 is present
//! after recovery, and the one in-flight batch either landed whole or
//! not at all (never partially). At the end, a control server that never
//! crashed ingests the exact accepted ledger and both servers must agree
//! bit-for-bit: store counts, source resolution, per-fact responses, and
//! Gibbs-refit query probabilities.
//!
//! Companion tests cover a torn final record (appended garbage must be
//! truncated at boot, never refuse to start), mid-log corruption (must
//! refuse to start, with a nonzero exit), a JSON snapshot left under the
//! old default name (must refuse to start), and the injectable fault hook
//! (`/healthz` flips to 503 `degraded` while WAL writes fail).

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ltm_serve::http_call;
use serde::Value;

/// Deterministic splitmix64 — no rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ltm-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Extra flags every server in these tests shares: tiny segments (so
/// rotation + background compaction actually happen), auto-refits
/// disabled (so the crashed lineage and the control both take exactly
/// one forced full refit at daemon attempt 1 — same Gibbs seed, hence
/// bit-identical probabilities).
const COMMON_FLAGS: &[&str] = &[
    "--shards",
    "2",
    "--threads",
    "2",
    "--wal-sync",
    "always",
    "--wal-segment-bytes",
    "4096",
    "--refit-claims",
    "1000000000",
    "--refit-millis",
    "3600000",
];

struct ServerProc {
    child: Mutex<Child>,
    addr: String,
}

impl ServerProc {
    /// Boots `ltm serve --wal-dir <wal>` and waits for the port file.
    fn start(wal_dir: &Path, port_file: &Path) -> ServerProc {
        let _ = std::fs::remove_file(port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_ltm"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .arg("--wal-dir")
            .arg(wal_dir)
            .arg("--port-file")
            .arg(port_file)
            .args(COMMON_FLAGS)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn ltm serve");
        let deadline = Instant::now() + Duration::from_secs(60);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if text.contains(':') {
                    break text.trim().to_owned();
                }
            }
            assert!(
                Instant::now() < deadline,
                "server did not write its port file in time"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        ServerProc {
            child: Mutex::new(child),
            addr,
        }
    }

    /// SIGKILL + reap (the crash).
    fn kill(&self) {
        let mut child = self.child.lock().unwrap();
        let _ = child.kill();
        let _ = child.wait();
    }

    /// Graceful stop via `POST /admin/shutdown`, then reap.
    fn shutdown(&self) {
        let _ = http_call(&self.addr, "POST", "/admin/shutdown", Some(""));
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut child = self.child.lock().unwrap();
        loop {
            if child.try_wait().expect("try_wait").is_some() {
                return;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("server did not exit after /admin/shutdown");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Batch `b` of the ingest stream: 5 globally-unique triples over a
/// fixed pool of 8 sources. Uniqueness makes `positive_claims` equal the
/// number of accepted rows, which is how each round resolves whether the
/// in-flight batch landed.
fn batch_body(b: u64) -> String {
    let rows: Vec<String> = (0..5)
        .map(|i| format!("[\"e{b}-{i}\",\"a\",\"s{}\"]", (b * 5 + i) % 8))
        .collect();
    format!("{{\"triples\":[{}]}}", rows.join(","))
}

fn stat_u64(addr: &str, field: &str) -> u64 {
    let (status, body) = http_call(addr, "GET", "/stats", None).expect("GET /stats");
    assert_eq!(status, 200, "{body}");
    let parsed: Value = serde_json::from_str(&body).expect("stats json");
    parsed
        .get_field(field)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("no numeric `{field}` in {body}")) as u64
}

#[test]
fn acked_batches_survive_twenty_randomized_kills_and_match_a_control() {
    let root = temp_dir("kills");
    let wal_dir = root.join("wal");
    let port_file = root.join("port.txt");
    let mut rng = Rng(0x0001_775B_ADC0_FFEE);

    // The resolved ledger: batch ids that are durably accepted (acked,
    // or in-flight at the kill and found to have landed).
    let mut ledger: Vec<u64> = Vec::new();
    let mut next_batch = 0u64;

    let mut server = ServerProc::start(&wal_dir, &port_file);
    for round in 0..20 {
        let delay = Duration::from_millis(1 + rng.next() % 25);
        // Stream batches while the killer thread waits out its random
        // offset; the synchronous client means at most one batch is ever
        // unresolved per kill.
        let mut maybe: Option<u64> = None;
        std::thread::scope(|scope| {
            let server = &server;
            let killer = scope.spawn(move || {
                std::thread::sleep(delay);
                server.kill();
            });
            for _ in 0..40 {
                let b = next_batch;
                match http_call(&server.addr, "POST", "/claims", Some(&batch_body(b))) {
                    Ok((200, _)) => {
                        ledger.push(b);
                        next_batch += 1;
                    }
                    _ => {
                        // Refused, reset, or EOF: the server died before
                        // the ack. The batch may still have reached the
                        // log (killed between fsync and response).
                        maybe = Some(b);
                        break;
                    }
                }
            }
            killer.join().unwrap();
        });
        server.kill(); // no-op if the killer already got it

        // Restart on the same WAL directory and resolve the ack ledger.
        server = ServerProc::start(&wal_dir, &port_file);
        let recovered = stat_u64(&server.addr, "positive_claims");
        let acked = ledger.len() as u64 * 5;
        match maybe {
            Some(b) if recovered == acked + 5 => {
                // The in-flight batch landed whole; adopt it.
                ledger.push(b);
                next_batch = b + 1;
            }
            _ => {
                assert_eq!(
                    recovered,
                    acked,
                    "round {round}: recovery lost acked rows or kept a partial batch \
                     (ledger {} batches, in-flight {maybe:?})",
                    ledger.len()
                );
                if let Some(b) = maybe {
                    // Not durable: the client would retry it; our stream
                    // simply re-sends it next round.
                    next_batch = b;
                }
            }
        }
        assert!(
            stat_u64(&server.addr, "wal_replayed_rows") <= recovered,
            "replayed more rows than the store holds"
        );
    }
    assert!(
        !ledger.is_empty(),
        "no batch was ever acked across 20 rounds — the harness is broken"
    );

    // A never-crashed control ingests the exact resolved ledger.
    let control_wal = root.join("control-wal");
    let control = ServerProc::start(&control_wal, &root.join("control-port.txt"));
    for &b in &ledger {
        let (status, body) =
            http_call(&control.addr, "POST", "/claims", Some(&batch_body(b))).unwrap();
        assert_eq!(status, 200, "{body}");
    }

    // Same store shape on both sides.
    for field in ["positive_claims", "facts", "claims", "sources", "pending"] {
        assert_eq!(
            stat_u64(&server.addr, field),
            stat_u64(&control.addr, field),
            "`{field}` diverged from the control"
        );
    }

    // One forced full Gibbs refit each (both at daemon attempt 1 → same
    // seed → bit-identical quality), then compare answers.
    for s in [&server, &control] {
        let (status, _) = http_call(&s.addr, "POST", "/admin/refit?mode=full", Some("")).unwrap();
        assert_eq!(status, 202);
        let deadline = Instant::now() + Duration::from_secs(120);
        while stat_u64(&s.addr, "epochs_published") < 1 {
            assert!(Instant::now() < deadline, "refit never published an epoch");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    for source in 0..8 {
        let body = format!("{{\"claims\":[[\"s{source}\",true]]}}");
        let a = http_call(&server.addr, "POST", "/query", Some(&body)).unwrap();
        let b = http_call(&control.addr, "POST", "/query", Some(&body)).unwrap();
        assert_eq!(a, b, "query answer for s{source} diverged from the control");
    }
    for fact in [0u64, 1, 2] {
        let a = http_call(&server.addr, "GET", &format!("/facts/{fact}"), None).unwrap();
        let b = http_call(&control.addr, "GET", &format!("/facts/{fact}"), None).unwrap();
        assert_eq!(a, b, "fact {fact} diverged from the control");
    }

    server.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Newest WAL segment of the default domain.
fn newest_segment(wal_dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(wal_dir.join("default"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one WAL segment")
}

#[test]
fn torn_final_record_is_truncated_and_the_server_boots() {
    let root = temp_dir("torn");
    let wal_dir = root.join("wal");
    let port_file = root.join("port.txt");

    let server = ServerProc::start(&wal_dir, &port_file);
    for b in 0..4 {
        let (status, body) =
            http_call(&server.addr, "POST", "/claims", Some(&batch_body(b))).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    server.kill();

    // A crash mid-append: a frame header promising 200 bytes with only a
    // few behind it, at the very end of the newest segment.
    let seg = newest_segment(&wal_dir);
    let mut file = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    file.write_all(&[200, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3])
        .unwrap();
    drop(file);

    let server = ServerProc::start(&wal_dir, &port_file);
    assert_eq!(
        stat_u64(&server.addr, "positive_claims"),
        20,
        "every acked row must survive the torn tail"
    );
    let (status, body) = http_call(&server.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");

    // The metrics surface is live immediately after replay and reports
    // the replayed rows through the same counters /stats reads.
    let (status, metrics) = http_call(&server.addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200, "{metrics}");
    assert!(
        metrics.contains("ltm_wal_replayed_rows_total{domain=\"default\"} 20"),
        "replay counter missing from the scrape:\n{metrics}"
    );

    // Explicit compaction folds the whole log into the snapshot and
    // frees the sealed segments.
    let (status, body) = http_call(&server.addr, "POST", "/admin/compact", Some("")).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"deleted_segments\""), "{body}");
    assert!(wal_dir.join("snapshot.bin").exists());

    // And the compacted state still recovers after a clean stop.
    server.shutdown();
    let server = ServerProc::start(&wal_dir, &port_file);
    assert_eq!(stat_u64(&server.addr, "positive_claims"), 20);
    assert_eq!(
        stat_u64(&server.addr, "wal_replayed_rows"),
        0,
        "clean shutdown leaves no tail"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mid_log_corruption_refuses_to_boot_with_a_nonzero_exit() {
    let root = temp_dir("corrupt");
    let wal_dir = root.join("wal");
    let port_file = root.join("port.txt");

    let server = ServerProc::start(&wal_dir, &port_file);
    for b in 0..3 {
        let (status, _) = http_call(&server.addr, "POST", "/claims", Some(&batch_body(b))).unwrap();
        assert_eq!(status, 200);
    }
    server.kill();

    // Flip a payload byte of the FIRST record — valid records follow, so
    // this is disk corruption, not a torn append.
    let seg = newest_segment(&wal_dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    assert!(bytes.len() > 40, "expected several records in the segment");
    bytes[12] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();

    let _ = std::fs::remove_file(&port_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ltm"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .arg("--wal-dir")
        .arg(&wal_dir)
        .arg("--port-file")
        .arg(&port_file)
        .args(COMMON_FLAGS)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("server booted (or hung) on a corrupt mid-log record");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success(), "boot must fail on mid-log corruption");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(
        stderr.contains("corrupt WAL record"),
        "error should name the corruption, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unwritable_wal_dir_is_a_clean_startup_error() {
    let root = temp_dir("unwritable");
    let blocked = root.join("not-a-dir");
    std::fs::write(&blocked, "a file where a directory should be").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_ltm"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .arg("--wal-dir")
        .arg(&blocked)
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("failed to start") && stderr.contains("--wal-dir"),
        "want a clean validation error, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_json_snapshot_under_the_old_default_name_refuses_to_boot() {
    use ltm_serve::server::{ServeConfig, Server};
    use ltm_serve::wal::WalConfig;

    // `<wal-dir>/snapshot.json` is where JSON snapshots (formats v1 and
    // v2) were saved by default. Booting past it would serve an empty
    // store over segments that continue its sequence.
    let root = temp_dir("json-snapshot");
    let wal_dir = root.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    std::fs::write(
        wal_dir.join("snapshot.json"),
        "{\"version\":2,\"domains\":[]}",
    )
    .unwrap();
    let err = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        wal: Some(WalConfig::new(wal_dir.clone())),
        ..ServeConfig::default()
    })
    .err()
    .expect("boot must refuse a JSON snapshot");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("format v1 or v2"), "{err}");
    assert!(!wal_dir.join("snapshot.bin").exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn wal_write_failures_degrade_healthz_until_writes_recover() {
    use ltm_serve::server::{ServeConfig, Server};
    use ltm_serve::wal::{WalConfig, WalOp};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let root = temp_dir("degraded");
    let fail = Arc::new(AtomicBool::new(false));
    let hook_flag = Arc::clone(&fail);
    let mut wal = WalConfig::new(root.join("wal"));
    wal.fault_hook = Some(Arc::new(move |op| {
        (op == WalOp::Append && hook_flag.load(Ordering::Relaxed))
            .then(|| std::io::Error::other("injected disk failure"))
    }));
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        wal: Some(wal),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    let (status, _) = http_call(&addr, "POST", "/claims", Some(&batch_body(0))).unwrap();
    assert_eq!(status, 200);
    let (status, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.contains("\"ok\"")), (200, true), "{body}");

    fail.store(true, Ordering::Relaxed);
    let (status, body) = http_call(&addr, "POST", "/claims", Some(&batch_body(1))).unwrap();
    assert_eq!(status, 500, "a failed WAL append must not be acked: {body}");
    assert!(body.contains("NOT durable"), "{body}");
    let (status, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("degraded"), "{body}");

    // Retrying while writes still fail dedupes in memory (accepted: 0),
    // but the rows are only in memory — the ack must still be refused
    // until they can be re-journaled.
    let (status, body) = http_call(&addr, "POST", "/claims", Some(&batch_body(1))).unwrap();
    assert_eq!(
        status, 500,
        "a duplicate-only retry must not be acked while its rows are un-journaled: {body}"
    );

    fail.store(false, Ordering::Relaxed);
    // The retry of the failed batch: all duplicates in memory, but the
    // ack path re-journals the queued frame first, so this 200 is honest.
    let (status, body) = http_call(&addr, "POST", "/claims", Some(&batch_body(1))).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"duplicates\":5"), "{body}");
    let (status, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "recovered writes must clear the flag: {body}");
    let (status, _) = http_call(&addr, "POST", "/claims", Some(&batch_body(2))).unwrap();
    assert_eq!(status, 200);

    // The interesting step: restart on the same WAL. The re-journaled
    // frame means the log has no sequence gap — the server must boot
    // (not refuse with "WAL jumps to sequence") and hold every acked
    // row, including batch 1.
    server.shutdown().unwrap();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        wal: Some(WalConfig::new(root.join("wal"))),
        ..ServeConfig::default()
    })
    .expect("the recovered WAL must boot");
    let addr = server.addr().to_string();
    assert_eq!(
        stat_u64(&addr, "positive_claims"),
        15,
        "batches 0, 1, and 2 must all survive the restart"
    );
    let (status, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.contains("\"ok\"")), (200, true), "{body}");

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}
