//! End-to-end tests of `ltm-serve`'s lifecycle and its one front end:
//! boot-time validation of the worker and shard counts, a prompt clean
//! shutdown of a WAL-backed server, and the event loop's whole-request
//! deadline against a drip-feeding peer.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ltm_serve::http::http_call;
use ltm_serve::refit::RefitConfig;
use ltm_serve::server::{ServeConfig, Server};
use ltm_serve::wal::WalConfig;

/// Test-speed server config (no background refits).
fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        threads: 2,
        refit: RefitConfig {
            min_pending: usize::MAX,
            interval: Duration::from_millis(20),
            ..RefitConfig::default()
        },
        snapshot: None,
        ..ServeConfig::default()
    }
}

#[test]
fn zero_threads_or_shards_is_a_boot_error() {
    let mut no_threads = config();
    no_threads.threads = 0;
    let mut no_shards = config();
    no_shards.shards = 0;
    for (setting, cfg) in [("threads", no_threads), ("shards", no_shards)] {
        let err = match Server::start(cfg) {
            Ok(server) => {
                server.shutdown().unwrap();
                panic!("{setting} = 0 booted");
            }
            Err(e) => e,
        };
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(setting), "{err}");
    }
}

#[test]
fn wal_server_shuts_down_without_waiting_out_the_compactor() {
    let dir = std::env::temp_dir().join(format!("ltm-lifecycle-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config();
    cfg.wal = Some(WalConfig::new(dir.clone()));
    let server = Server::start(cfg).expect("boot");
    // Shut down at once: the compactor has just begun its first wait.
    let started = Instant::now();
    server.shutdown().expect("clean shutdown");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "shutdown idled on the compactor: {elapsed:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_deadline_caps_a_drip_feeding_peer() {
    let mut cfg = config();
    cfg.io_timeout = Duration::from_millis(300);
    let server = Server::start(cfg).expect("boot");
    let addr = server.addr();

    // One header byte every 50 ms, never finishing the head: each byte
    // keeps the connection busy, so only a whole-request deadline can
    // end the drip. A 50 ms read between bytes paces the drip and sees
    // the server hang up.
    let mut peer = TcpStream::connect(addr).expect("connect");
    peer.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let started = Instant::now();
    let mut dropped_after = None;
    for b in b"GET / HTTP/1.1\r\nX-Drip: ".iter().cycle().take(60) {
        let hung_up = peer.write_all(&[*b]).is_err()
            || match peer.read(&mut [0u8; 256]) {
                Ok(0) => true,
                Ok(_) => panic!("the server answered an unfinished request head"),
                Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            };
        if hung_up {
            dropped_after = Some(started.elapsed());
            break;
        }
    }
    let elapsed = dropped_after.expect("the drip-feeding peer was never dropped");
    assert!(
        elapsed < Duration::from_secs(2),
        "server held the peer past the deadline: {elapsed:?}"
    );

    // The reap counts as a request that never parsed.
    let (status, metrics) = http_call(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200, "{metrics}");
    assert!(
        metrics.contains(
            "ltm_http_request_duration_seconds_count{endpoint=\"malformed\",domain=\"none\"} 1"
        ),
        "{metrics}"
    );
    server.shutdown().unwrap();
}
