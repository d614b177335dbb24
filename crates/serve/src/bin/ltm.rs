//! `ltm` — the truth-discovery service CLI.
//!
//! ```text
//! ltm serve  [--addr A] [--shards N] [--threads N] [--chains N]
//!            [--refit-claims N] [--refit-millis MS] [--rhat-gate X]
//!            [--full-refit-every N] [--snapshot FILE] [--port-file FILE]
//!            [--io-timeout-millis MS] [--domain NAME=KIND]...
//!            [--labels FILE] [--no-shadows]
//!            [--wal-dir DIR] [--wal-sync always|never|interval:MS]
//!            [--wal-segment-bytes N]
//!            [--log-level error|warn|info|debug] [--log-format text|json]
//! ltm ingest <TRIPLES.csv> [--addr A] [--batch N] [--domain NAME]
//! ltm query  <SOURCE=true|false|VALUE>... [--addr A] [--domain NAME]
//! ltm domain add <NAME> <KIND> [--addr A]
//! ltm domain list [--addr A]
//! ```
//!
//! `serve` runs the sharded multi-domain server until
//! `POST /admin/shutdown`; its HTTP front end is an epoll loop, so it
//! serves on Linux only. `--domain` (repeatable) pre-creates extra
//! domains beside the implicit boolean `default` (KIND is `boolean`,
//! `real_valued`, or `positive_only`). `--wal-dir` turns on the
//! write-ahead log: accepted batches are journaled and fsync'd (per
//! `--wal-sync`, default `always`) before the HTTP ack, segments rotate
//! at `--wal-segment-bytes` (default 8 MiB), and a restart replays the
//! tail — see DESIGN.md §6 "Durability". `--labels FILE` loads ground
//! truth (`entity,attribute,true|false` CSV, header row skipped) into the
//! default domain at boot so `GET /eval` can report per-method accuracy
//! from the first promoted refit; `--no-shadows` skips the baseline
//! shadow fits (queries with `?methods=` beyond `ltm` then answer 409). `--log-level` (default `info`)
//! and `--log-format` (default `text`; `json` emits one object per line
//! for log shippers) control the structured logger; `GET /metrics` on
//! the running server exposes the Prometheus-format counters and latency
//! histograms behind the same observability layer. `ingest` streams an
//! `entity,attribute,source[,value]` CSV into a running server (the
//! 4-column form for real-valued domains); `query` scores an ad-hoc
//! claim list (`SOURCE=true|false` for boolean domains, `SOURCE=0.87`
//! for real-valued ones) and prints the JSON response; `domain`
//! adds/lists domains on a running server. See docs/API.md for the HTTP
//! surface behind every subcommand.

// The CLI's error contract is a nonzero exit status: every exit site here
// runs after its work is done (or before any began), so there is no Drop
// state to lose. Library code stays under the workspace-wide ban.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::time::Duration;

use ltm_core::{LtmConfig, SampleSchedule};
use ltm_serve::http::http_call;
use ltm_serve::model::ModelKind;
use ltm_serve::obs::log as obs_log;
use ltm_serve::refit::RefitConfig;
use ltm_serve::server::{ServeConfig, Server};
use ltm_serve::wal::{WalConfig, WalSyncPolicy};
use ltm_serve::DEFAULT_DOMAIN;

fn usage(msg: &str) -> ! {
    ltm_serve::log_error!("cli", "{msg}");
    eprintln!(
        "usage:\n  ltm serve  [--addr A] [--shards N] [--threads N] [--chains N]\n\
         \x20            [--refit-claims N] [--refit-millis MS] [--rhat-gate X]\n\
         \x20            [--full-refit-every N] [--snapshot FILE] [--port-file FILE]\n\
         \x20            [--io-timeout-millis MS] [--domain NAME=KIND]...\n\
         \x20            [--labels FILE] [--no-shadows]\n\
         \x20            [--wal-dir DIR] [--wal-sync always|never|interval:MS]\n\
         \x20            [--wal-segment-bytes N]\n\
         \x20            [--log-level error|warn|info|debug] [--log-format text|json]\n\
         \x20 ltm ingest <TRIPLES.csv> [--addr A] [--batch N] [--domain NAME]\n\
         \x20 ltm query  <SOURCE=true|false|VALUE>... [--addr A] [--domain NAME]\n\
         \x20 ltm domain add <NAME> <KIND> [--addr A]\n\
         \x20 ltm domain list [--addr A]\n\
         KIND is boolean, real_valued, or positive_only."
    );
    std::process::exit(2);
}

fn parse_or_usage<T: std::str::FromStr>(value: Option<String>, what: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{what} needs a valid value")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => serve(args),
        Some("ingest") => ingest(args),
        Some("query") => query(args),
        Some("domain") => domain(args),
        Some(other) => usage(&format!("unknown subcommand `{other}`")),
        None => usage("missing subcommand"),
    }
}

fn serve(mut args: impl Iterator<Item = String>) {
    let mut config = ServeConfig {
        refit: RefitConfig {
            ltm: LtmConfig {
                schedule: SampleSchedule::new(100, 20, 1),
                ..LtmConfig::default()
            },
            min_pending: 1000,
            interval: Duration::from_millis(500),
            ..RefitConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut port_file: Option<PathBuf> = None;
    let mut labels_file: Option<PathBuf> = None;
    let mut wal_dir: Option<PathBuf> = None;
    let mut wal_sync: Option<WalSyncPolicy> = None;
    let mut wal_segment_bytes: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = parse_or_usage(args.next(), "--addr"),
            "--shards" => config.shards = parse_or_usage(args.next(), "--shards"),
            "--threads" => config.threads = parse_or_usage(args.next(), "--threads"),
            "--chains" => config.refit.chains = parse_or_usage(args.next(), "--chains"),
            "--refit-claims" => {
                config.refit.min_pending = parse_or_usage(args.next(), "--refit-claims")
            }
            "--refit-millis" => {
                config.refit.interval =
                    Duration::from_millis(parse_or_usage(args.next(), "--refit-millis"))
            }
            "--rhat-gate" => config.refit.rhat_gate = parse_or_usage(args.next(), "--rhat-gate"),
            // Every Nth daemon refit reconciles the incremental
            // accumulator with a from-zero rebuild; 0 disables.
            "--full-refit-every" => {
                config.refit.full_refit_every = parse_or_usage(args.next(), "--full-refit-every")
            }
            "--snapshot" => config.snapshot = Some(parse_or_usage(args.next(), "--snapshot")),
            "--port-file" => port_file = Some(parse_or_usage(args.next(), "--port-file")),
            // 0 disables the per-connection deadline (trusted peers only).
            "--io-timeout-millis" => {
                config.io_timeout =
                    Duration::from_millis(parse_or_usage(args.next(), "--io-timeout-millis"))
            }
            // Pre-create a domain at boot: --domain scores=real_valued
            "--domain" => {
                let spec: String = parse_or_usage(args.next(), "--domain");
                let Some((name, kind_text)) = spec.split_once('=') else {
                    usage("--domain takes NAME=KIND (e.g. scores=real_valued)");
                };
                let kind: ModelKind = kind_text
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("--domain: {e}")));
                config.domains.push((name.to_owned(), kind));
            }
            "--labels" => labels_file = Some(parse_or_usage(args.next(), "--labels")),
            "--no-shadows" => config.refit.shadows = false,
            "--wal-dir" => wal_dir = Some(parse_or_usage(args.next(), "--wal-dir")),
            "--wal-sync" => {
                let text: String = parse_or_usage(args.next(), "--wal-sync");
                wal_sync = Some(text.parse().unwrap_or_else(|e: String| usage(&e)));
            }
            "--wal-segment-bytes" => {
                let bytes: u64 = parse_or_usage(args.next(), "--wal-segment-bytes");
                if bytes == 0 {
                    usage("--wal-segment-bytes must be at least 1");
                }
                wal_segment_bytes = Some(bytes);
            }
            // Logger knobs take effect immediately, so later argument
            // errors in the same invocation already honor the format.
            "--log-level" => {
                let text: String = parse_or_usage(args.next(), "--log-level");
                let level = obs_log::Level::parse(&text).unwrap_or_else(|| {
                    usage(&format!(
                        "--log-level takes error|warn|info|debug, got `{text}`"
                    ))
                });
                obs_log::set_level(level);
            }
            "--log-format" => {
                let text: String = parse_or_usage(args.next(), "--log-format");
                let format = obs_log::Format::parse(&text).unwrap_or_else(|| {
                    usage(&format!("--log-format takes text|json, got `{text}`"))
                });
                obs_log::set_format(format);
            }
            other => usage(&format!("unknown serve argument `{other}`")),
        }
    }
    match wal_dir {
        Some(dir) => {
            let mut wal = WalConfig::new(dir);
            if let Some(sync) = wal_sync {
                wal.sync = sync;
            }
            if let Some(bytes) = wal_segment_bytes {
                wal.segment_bytes = bytes;
            }
            config.wal = Some(wal);
        }
        None if wal_sync.is_some() || wal_segment_bytes.is_some() => {
            usage("--wal-sync / --wal-segment-bytes need --wal-dir");
        }
        None => {}
    }
    // An unusable --wal-dir (or a corrupt WAL / snapshot) surfaces here
    // as a clean startup error, never a panic. The error line names every
    // path-bearing flag so the operator sees *which* configured location
    // failed, not just the bare io error text.
    let addr = config.addr.clone();
    let snapshot_flag = config.snapshot.clone();
    let wal_dir_flag = config.wal.as_ref().map(|w| w.dir.clone());
    let server = Server::start(config).unwrap_or_else(|e| {
        ltm_serve::log_error!(
            "serve",
            "failed to start on --addr {addr}: {e} (--wal-dir {}, --snapshot {})",
            wal_dir_flag
                .as_deref()
                .map_or("unset".to_owned(), |p| p.display().to_string()),
            snapshot_flag
                .as_deref()
                .map_or("unset".to_owned(), |p| p.display().to_string()),
        );
        std::process::exit(1);
    });
    // Labels load before the port file is written, so anything watching
    // the port file sees a server whose /eval is already primed.
    if let Some(path) = &labels_file {
        let rows = read_labels(path).unwrap_or_else(|e| {
            ltm_serve::log_error!("serve", "failed to read --labels {}: {e}", path.display());
            std::process::exit(1);
        });
        let loaded = rows.len();
        let total = server.domains().default_domain().add_labels(rows);
        println!(
            "loaded {loaded} labels ({total} total) from {}",
            path.display()
        );
    }
    println!("ltm serve listening on {}", server.addr());
    for domain in server.domains().list() {
        println!("  domain {} ({})", domain.name(), domain.kind());
    }
    if let Some(path) = &port_file {
        std::fs::write(path, server.addr().to_string()).unwrap_or_else(|e| {
            ltm_serve::log_error!(
                "serve",
                "failed to write --port-file {}: {e}",
                path.display()
            );
            std::process::exit(1);
        });
    }
    server.wait_for_shutdown_request();
    println!("shutdown requested, stopping");
    if let Err(e) = server.shutdown() {
        ltm_serve::log_error!("serve", "shutdown error: {e}");
        std::process::exit(1);
    }
}

/// The `/claims` route for `domain` (`/claims` for the default domain,
/// `/d/{domain}/claims` otherwise) — same scheme for the other routes.
fn domain_route(domain: &str, rest: &str) -> String {
    if domain == DEFAULT_DOMAIN {
        rest.to_owned()
    } else {
        format!("/d/{domain}{rest}")
    }
}

/// One parsed CSV row: 3 fields (boolean domains) or 4 with a trailing
/// numeric value (real-valued domains).
enum CsvRow {
    Triple(String, String, String),
    Valued(String, String, String, f64),
}

/// Reads an `entity,attribute,source[,value]` CSV (header row skipped).
/// Fields follow the workspace's triples format — RFC-4180-style quoting
/// via [`ltm_model::io::split_record`], so files produced by
/// `ltm_model::io::write_triples` (including names with embedded commas)
/// ingest unchanged; the 4-column form requires a finite numeric value.
fn read_rows(path: &PathBuf) -> Result<Vec<CsvRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 || line.is_empty() {
            continue; // header / blank
        }
        let line_no = i + 1;
        let fields = ltm_model::io::split_record(line, line_no).map_err(|e| e.to_string())?;
        match fields.as_slice() {
            [e, a, s] => rows.push(CsvRow::Triple(e.clone(), a.clone(), s.clone())),
            [e, a, s, v] => {
                let value: f64 = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad value {v:?}"))?;
                if !value.is_finite() {
                    return Err(format!("line {line_no}: value must be finite, got {v:?}"));
                }
                rows.push(CsvRow::Valued(e.clone(), a.clone(), s.clone(), value));
            }
            other => {
                return Err(format!(
                    "line {line_no}: expected 3 or 4 fields, found {}",
                    other.len()
                ))
            }
        }
    }
    Ok(rows)
}

/// Reads an `entity,attribute,true|false` ground-truth CSV (header row
/// skipped) for `serve --labels`, with the same RFC-4180-style quoting
/// as [`read_rows`].
fn read_labels(path: &PathBuf) -> Result<Vec<(String, String, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 || line.is_empty() {
            continue; // header / blank
        }
        let line_no = i + 1;
        let fields = ltm_model::io::split_record(line, line_no).map_err(|e| e.to_string())?;
        match fields.as_slice() {
            [e, a, t] => {
                let truth = match t.trim() {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(format!(
                            "line {line_no}: label must be true|false, got {other:?}"
                        ))
                    }
                };
                rows.push((e.clone(), a.clone(), truth));
            }
            other => {
                return Err(format!(
                    "line {line_no}: expected 3 fields (entity,attribute,true|false), found {}",
                    other.len()
                ))
            }
        }
    }
    Ok(rows)
}

fn ingest(mut args: impl Iterator<Item = String>) {
    let mut file: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut batch = 1000usize;
    let mut domain = DEFAULT_DOMAIN.to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_or_usage(args.next(), "--addr"),
            "--batch" => batch = parse_or_usage(args.next(), "--batch"),
            "--domain" => domain = parse_or_usage(args.next(), "--domain"),
            other if file.is_none() && !other.starts_with("--") => {
                file = Some(PathBuf::from(other))
            }
            other => usage(&format!("unknown ingest argument `{other}`")),
        }
    }
    let file = file.unwrap_or_else(|| usage("ingest needs a triples file"));
    let rows = read_rows(&file).unwrap_or_else(|e| {
        ltm_serve::log_error!("ingest", "failed to read {}: {e}", file.display());
        std::process::exit(1);
    });

    let route = domain_route(&domain, "/claims");
    let mut sent = 0usize;
    for chunk in rows.chunks(batch.max(1)) {
        let body = claims_body(chunk);
        match http_call(&addr, "POST", &route, Some(&body)) {
            Ok((200, _)) => sent += chunk.len(),
            Ok((status, response)) => {
                ltm_serve::log_error!("ingest", "server rejected batch: HTTP {status}: {response}");
                std::process::exit(1);
            }
            Err(e) => {
                ltm_serve::log_error!("ingest", "ingest failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "ingested {sent} rows from {} into domain {domain}",
        file.display()
    );
}

/// Renders a `/claims` body from CSV rows.
fn claims_body(rows: &[CsvRow]) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|row| match row {
            CsvRow::Triple(e, a, s) => serde_json::to_string(&vec![e, a, s]).expect("serialize"),
            CsvRow::Valued(e, a, s, v) => format!(
                "[{},{},{},{v}]",
                serde_json::to_string(e).expect("serialize"),
                serde_json::to_string(a).expect("serialize"),
                serde_json::to_string(s).expect("serialize"),
            ),
        })
        .collect();
    format!("{{\"triples\":[{}]}}", rendered.join(","))
}

fn query(mut args: impl Iterator<Item = String>) {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut domain = DEFAULT_DOMAIN.to_string();
    let mut claims: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_or_usage(args.next(), "--addr"),
            "--domain" => domain = parse_or_usage(args.next(), "--domain"),
            other => match other.split_once('=') {
                Some((source, "true")) => {
                    claims.push(format!(
                        "[{},true]",
                        serde_json::to_string(&source.to_owned()).expect("serialize")
                    ));
                }
                Some((source, "false")) => {
                    claims.push(format!(
                        "[{},false]",
                        serde_json::to_string(&source.to_owned()).expect("serialize")
                    ));
                }
                Some((source, value)) => match value.parse::<f64>() {
                    Ok(v) if v.is_finite() => claims.push(format!(
                        "[{},{v}]",
                        serde_json::to_string(&source.to_owned()).expect("serialize")
                    )),
                    _ => usage(&format!(
                        "query arguments look like SOURCE=true|false (boolean domains) or \
                         SOURCE=0.87 (real-valued domains), got `{other}`"
                    )),
                },
                None => usage(&format!(
                    "query arguments look like SOURCE=true|false|VALUE, got `{other}`"
                )),
            },
        }
    }
    if claims.is_empty() {
        usage("query needs at least one SOURCE=… claim");
    }
    let body = format!("{{\"claims\":[{}]}}", claims.join(","));
    let route = domain_route(&domain, "/query");
    match http_call(&addr, "POST", &route, Some(&body)) {
        Ok((200, response)) => println!("{response}"),
        Ok((status, response)) => {
            ltm_serve::log_error!("query", "HTTP {status}: {response}");
            std::process::exit(1);
        }
        Err(e) => {
            ltm_serve::log_error!("query", "query failed: {e}");
            std::process::exit(1);
        }
    }
}

fn domain(mut args: impl Iterator<Item = String>) {
    match args.next().as_deref() {
        Some("add") => {
            let name = args
                .next()
                .unwrap_or_else(|| usage("domain add needs a NAME"));
            let kind_text = args
                .next()
                .unwrap_or_else(|| usage("domain add needs a KIND"));
            let kind: ModelKind = kind_text
                .parse()
                .unwrap_or_else(|e| usage(&format!("domain add: {e}")));
            let mut addr = "127.0.0.1:7878".to_string();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--addr" => addr = parse_or_usage(args.next(), "--addr"),
                    other => usage(&format!("unknown domain add argument `{other}`")),
                }
            }
            let body = format!(
                "{{\"name\":{},\"kind\":\"{kind}\"}}",
                serde_json::to_string(&name).expect("serialize")
            );
            match http_call(&addr, "POST", "/admin/domains", Some(&body)) {
                Ok((201, response)) => println!("{response}"),
                Ok((status, response)) => {
                    ltm_serve::log_error!("domain", "HTTP {status}: {response}");
                    std::process::exit(1);
                }
                Err(e) => {
                    ltm_serve::log_error!("domain", "domain add failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("list") => {
            let mut addr = "127.0.0.1:7878".to_string();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--addr" => addr = parse_or_usage(args.next(), "--addr"),
                    other => usage(&format!("unknown domain list argument `{other}`")),
                }
            }
            match http_call(&addr, "GET", "/domains", None) {
                Ok((200, response)) => println!("{response}"),
                Ok((status, response)) => {
                    ltm_serve::log_error!("domain", "HTTP {status}: {response}");
                    std::process::exit(1);
                }
                Err(e) => {
                    ltm_serve::log_error!("domain", "domain list failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => usage(&format!(
            "domain subcommands are `add` and `list`, got {other:?}"
        )),
    }
}
