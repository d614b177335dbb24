//! Per-domain binary write-ahead log: the durability layer behind the
//! ack contract *"HTTP 200 on `/claims` ⇒ the batch survives a crash"*.
//!
//! Every accepted ingest batch is encoded as one framed record —
//! length-prefixed, CRC32-checksummed, carrying the domain name, the
//! first accepted-row sequence, and the rows themselves (with values for
//! real-valued domains) — appended to the domain's active segment file
//! **while the store's ingest-order lock is still held** (so WAL order
//! can never disagree with sequence order), and fsync'd per the
//! configured [`WalSyncPolicy`] before the HTTP response is written.
//!
//! Segments rotate at [`WalConfig::segment_bytes`]; the server's
//! background compactor folds sealed segments into the snapshot and,
//! once that is synced, deletes them, so `snapshot + WAL tail` is always
//! a complete recovery image and disk usage stays bounded. On boot,
//! [`DomainWal::open`] replays the tail through the normal ingest path:
//! a **torn final record** (a crash mid-append) is truncated with a
//! warning — the server never refuses to boot over its own interrupted
//! write — while a corrupt record *followed by further valid data* is a
//! hard [`std::io::ErrorKind::InvalidData`] error, because bytes behind
//! it were acked and silently skipping them would break the ack contract.
//!
//! The record framing is `[len: u32 LE][crc32(payload): u32 LE][payload]`
//! with payload `domain, first_seq, rows[]` (see [`encode_record`]); the
//! CRC is the table-driven IEEE-802.3 polynomial implemented in
//! [`crc32`] (no external crates, per the vendored-dependency policy).
//! [`WalConfig::fault_hook`] injects write/fsync failures for the
//! crash-recovery and degraded-health tests.
//!
//! **Failed appends and the backlog.** A failed append cannot simply be
//! dropped: the store has already accepted the rows and consumed their
//! sequence numbers (it cannot un-ingest), so skipping the frame would
//! leave a sequence gap on disk that replay's contiguity check rightly
//! refuses to boot past. Instead the encoded frame is kept in an ordered
//! backlog, and **every later append drains the backlog first** — the
//! on-disk log is therefore always a gap-free prefix of the accepted
//! sequence. A client retry of the failed batch deduplicates in memory
//! (`accepted == 0`), so the ack path calls [`DomainWal::flush_backlog`]
//! before acking a duplicate-only batch; either way the rows reach disk
//! before any 200 covers them. The WAL stays `degraded` until the
//! backlog is empty again.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::store::{LogRecord, ShardedStore};
use crate::sync::LockExt;

/// Segment file names: `wal-{first_seq:020}.seg` (20 digits covers u64).
const SEGMENT_PREFIX: &str = "wal-";
/// See [`SEGMENT_PREFIX`].
const SEGMENT_SUFFIX: &str = ".seg";
/// Per-domain metadata file (model kind + shard count), written when the
/// domain's WAL directory is created so a boot can re-create domains
/// that exist only in the WAL (created at runtime, crashed before any
/// snapshot).
pub const META_FILE: &str = "meta.json";
/// Sanity bound on one record's payload: larger lengths are treated as
/// corruption, not allocation requests. Comfortably above the HTTP
/// layer's 16 MiB body cap.
const MAX_RECORD: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, table-driven)
// ---------------------------------------------------------------------------

/// The 256-entry CRC32 lookup table for the reflected IEEE-802.3
/// polynomial `0xEDB88320`, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // analyzer: allow(panic-index) -- const-evaluated loop, i < 256 == table.len()
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3) of `bytes` — the checksum guarding every WAL
/// record. Standard check value: `crc32(b"123456789") == 0xCBF43926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        // analyzer: allow(panic-index) -- index is masked to 0..=255 and the table has 256 entries
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// When appended WAL bytes are fsync'd relative to the HTTP ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSyncPolicy {
    /// fsync before every ack: an acked batch survives power loss.
    Always,
    /// fsync at most once per interval: an acked batch survives a
    /// process crash immediately, and power loss after at most the
    /// interval. The bound traded for ~one fsync per interval instead of
    /// one per batch.
    IntervalMs(u64),
    /// Never fsync on the ack path (the OS flushes at its leisure): an
    /// acked batch survives a process crash (`kill -9`) but not
    /// necessarily power loss. Segment seals and shutdown still sync.
    Never,
}

impl std::str::FromStr for WalSyncPolicy {
    type Err = String;

    /// Parses `always`, `never`, or `interval:<ms>` (a bare integer is
    /// also read as interval milliseconds).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(WalSyncPolicy::Always),
            "never" => Ok(WalSyncPolicy::Never),
            other => {
                let ms = other.strip_prefix("interval:").unwrap_or(other);
                ms.parse::<u64>()
                    .map(WalSyncPolicy::IntervalMs)
                    .map_err(|_| {
                        format!("bad --wal-sync `{other}`: use always, never, or interval:<millis>")
                    })
            }
        }
    }
}

impl std::fmt::Display for WalSyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalSyncPolicy::Always => f.write_str("always"),
            WalSyncPolicy::Never => f.write_str("never"),
            WalSyncPolicy::IntervalMs(ms) => write!(f, "interval:{ms}"),
        }
    }
}

/// The operation a [`FaultHook`] intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// A record append (file write).
    Append,
    /// An fsync.
    Sync,
}

/// Fault-injection hook: called before every WAL write/fsync; returning
/// `Some(err)` makes that operation fail without touching the file. The
/// crash-recovery harness and the degraded-`/healthz` tests use this to
/// exercise the failure paths deterministically.
pub type FaultHook = Arc<dyn Fn(WalOp) -> Option<io::Error> + Send + Sync>;

/// Write-ahead-log configuration (one per server, applied per domain).
#[derive(Clone)]
pub struct WalConfig {
    /// Root directory; each domain logs under `<dir>/<domain>/`.
    pub dir: PathBuf,
    /// fsync policy on the ack path.
    pub sync: WalSyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Optional fault-injection hook (tests only).
    pub fault_hook: Option<FaultHook>,
}

impl WalConfig {
    /// A config with the given root and the defaults used by `ltm serve`
    /// (`--wal-sync always`, 8 MiB segments, no fault hook).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: WalSyncPolicy::Always,
            segment_bytes: 8 * 1024 * 1024,
            fault_hook: None,
        }
    }
}

impl std::fmt::Debug for WalConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalConfig")
            .field("dir", &self.dir)
            .field("sync", &self.sync)
            .field("segment_bytes", &self.segment_bytes)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "…"))
            .finish()
    }
}

/// The per-domain metadata sidecar ([`META_FILE`]): enough to re-create
/// the domain at boot when it exists only in the WAL — the domain was
/// created at runtime and the process died before any snapshot recorded
/// it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalDomainMeta {
    /// [`crate::model::ModelKind`] wire name.
    pub kind: String,
    /// Store shard count (restore validation, like the snapshot's).
    pub shards: usize,
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// One decoded WAL record: an accepted batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Domain the batch was accepted into (replay validates it against
    /// the directory's domain — a mismatch is corruption).
    pub domain: String,
    /// Sequence of the first row in `rows`; row `i` has sequence
    /// `first_seq + i` (accepted rows of one batch are contiguous
    /// because the batch holds the ingest-order lock end to end).
    pub first_seq: u64,
    /// The accepted rows, in sequence order.
    pub rows: Vec<LogRecord>,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Encodes one record as a framed byte string:
/// `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`, where the
/// payload is `domain` (u32-length-prefixed UTF-8), `first_seq` (u64
/// LE), the row count (u32 LE), then per row the length-prefixed
/// `entity`, `attr`, `source` strings and a value tag (`0` = none,
/// `1` followed by the f64 LE bits).
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let (rows, seq) = (&record.rows, record.first_seq);
    let mut frame = Vec::with_capacity(72 + rows.len() * 48);
    put_frame(&mut frame, &record.domain, seq, rows, usize::MAX);
    frame
}

/// Appends one frame ([`encode_record`]'s format) to `out`, encoding a
/// prefix of the borrowed `rows` (numbered from `first_seq`) in place:
/// rows go in until the payload reaches `max_payload` bytes, and always
/// at least one. Returns how many rows the frame holds. WAL appends
/// pass `usize::MAX`, one frame per batch; snapshots cut the log into
/// frames of about 1 MiB.
pub(crate) fn put_frame(
    out: &mut Vec<u8>,
    domain: &str,
    first_seq: u64,
    rows: &[LogRecord],
    max_payload: usize,
) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 8]); // length and CRC, set below
    put_str(out, domain);
    out.extend_from_slice(&first_seq.to_le_bytes());
    let count_at = out.len();
    out.extend_from_slice(&[0; 4]); // row count, set below
    let mut count = 0u32;
    for row in rows {
        if count > 0 && out.len() - start - 8 >= max_payload {
            break;
        }
        put_str(out, &row.entity);
        put_str(out, &row.attr);
        put_str(out, &row.source);
        match row.value {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        count += 1;
    }
    out.splice(count_at..count_at + 4, count.to_le_bytes());
    let payload = out.get(start + 8..).unwrap_or_default();
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out.splice(
        start..start + 8,
        [len.to_le_bytes(), crc.to_le_bytes()].concat(),
    );
    count as usize
}

/// Why a segment's bytes stopped decoding cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentIssue {
    /// The final record is incomplete or fails its checksum with nothing
    /// after it — the signature of a crash mid-append. Recovery
    /// truncates the segment at `offset` and boots.
    TornTail {
        /// Byte offset of the start of the torn record.
        offset: usize,
    },
    /// A record in the *middle* of the log (or in a sealed segment) is
    /// damaged: valid data follows it, so this is disk corruption — not
    /// an interrupted append — and recovery refuses to skip acked bytes.
    Corrupt {
        /// Byte offset of the start of the damaged record.
        offset: usize,
        /// What failed (length sanity, checksum, payload shape).
        reason: String,
    },
}

fn parse_payload(payload: &[u8]) -> Result<WalRecord, String> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Result<&[u8], String> {
        let slice = payload
            .get(*at..*at + n)
            .ok_or_else(|| format!("payload truncated at byte {at}"))?;
        *at += n;
        Ok(slice)
    };
    let take_u32 = |at: &mut usize| -> Result<u32, String> {
        // analyzer: allow(panic-unwrap) -- take(_, 4) yielded exactly 4 bytes
        Ok(u32::from_le_bytes(take(at, 4)?.try_into().unwrap()))
    };
    let take_str = |at: &mut usize| -> Result<String, String> {
        let len = take_u32(at)? as usize;
        let bytes = take(at, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("non-UTF-8 string at byte {at}"))
    };
    let domain = take_str(&mut at)?;
    // analyzer: allow(panic-unwrap) -- take(_, 8) yielded exactly 8 bytes
    let first_seq = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
    let count = take_u32(&mut at)? as usize;
    let mut rows = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let entity = take_str(&mut at)?;
        let attr = take_str(&mut at)?;
        let source = take_str(&mut at)?;
        let value = match take(&mut at, 1)?[0] {
            0 => None,
            1 => Some(f64::from_bits(u64::from_le_bytes(
                // analyzer: allow(panic-unwrap) -- take(_, 8) yielded exactly 8 bytes
                take(&mut at, 8)?.try_into().unwrap(),
            ))),
            tag => return Err(format!("bad value tag {tag}")),
        };
        rows.push(LogRecord {
            entity,
            attr,
            source,
            value,
        });
    }
    if at != payload.len() {
        return Err(format!(
            "payload has {} trailing bytes after the last row",
            payload.len() - at
        ));
    }
    Ok(WalRecord {
        domain,
        first_seq,
        rows,
    })
}

/// Decodes the frame that starts at byte `at` of `bytes`, returning its
/// record and the offset just past it. Torn-vs-corrupt is decided here:
/// an incomplete frame, or a checksum failure on the **final** frame, is
/// [`SegmentIssue::TornTail`]; a damaged frame with bytes after it is
/// [`SegmentIssue::Corrupt`].
pub(crate) fn decode_frame(bytes: &[u8], at: usize) -> Result<(WalRecord, usize), SegmentIssue> {
    let torn = SegmentIssue::TornTail { offset: at };
    let rest = bytes.get(at..).unwrap_or_default();
    let Some((head, rest)) = rest.split_first_chunk::<8>() else {
        return Err(torn);
    };
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *head;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_RECORD {
        return Err(SegmentIssue::Corrupt {
            offset: at,
            reason: format!("implausible record length {len}"),
        });
    }
    let Some(payload) = rest.get(..len as usize) else {
        return Err(torn);
    };
    if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
        // A final-frame checksum failure is a partially persisted
        // append (the length landed, part of the payload did not);
        // mid-log it means the disk lied about acked bytes.
        return Err(if rest.len() == payload.len() {
            torn
        } else {
            SegmentIssue::Corrupt {
                offset: at,
                reason: "checksum mismatch".into(),
            }
        });
    }
    let record =
        parse_payload(payload).map_err(|reason| SegmentIssue::Corrupt { offset: at, reason })?;
    Ok((record, at + 8 + payload.len()))
}

/// Decodes a whole segment's bytes, one frame at a time. Returns the
/// cleanly decoded records, the byte length of the clean prefix, and the
/// issue that stopped decoding (if any): an incomplete frame, or a
/// checksum failure on the final frame, is [`SegmentIssue::TornTail`]; a
/// damaged frame with bytes after it is [`SegmentIssue::Corrupt`].
pub fn decode_segment(bytes: &[u8]) -> (Vec<WalRecord>, usize, Option<SegmentIssue>) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        match decode_frame(bytes, at) {
            Ok((record, next)) => {
                records.push(record);
                at = next;
            }
            Err(issue) => return (records, at, Some(issue)),
        }
    }
    (records, at, None)
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

fn segment_name(first_seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_seq:020}{SEGMENT_SUFFIX}")
}

/// First-sequence number encoded in a segment file name, if it is one.
fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Segment paths in a domain WAL directory, ascending by first sequence.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(segment_seq) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// What [`DomainWal::open`] recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Rows replayed into the store (rows already covered by the
    /// restored snapshot are skipped and not counted).
    pub replayed_rows: u64,
    /// Records decoded across all segments.
    pub records: u64,
    /// Bytes truncated off a torn final record (0 on a clean log).
    pub truncated_bytes: u64,
    /// Segment files scanned.
    pub segments: u64,
}

// ---------------------------------------------------------------------------
// DomainWal
// ---------------------------------------------------------------------------

/// The active-segment state behind the append lock.
#[derive(Debug)]
struct WalInner {
    file: File,
    path: PathBuf,
    /// Bytes in the active segment.
    written: u64,
    /// Whether bytes were appended since the last fsync.
    dirty: bool,
    last_sync: Instant,
    /// Encoded frames whose append failed, in sequence order. They must
    /// reach disk before any later frame (see the module docs) — every
    /// append and [`DomainWal::flush_backlog`] drain this front-first.
    backlog: VecDeque<(u64, Vec<u8>)>,
    /// Set when a partial append could not be truncated away: the file
    /// tail holds garbage, and appending anything after it would turn a
    /// recoverable torn tail into boot-refusing mid-log corruption. All
    /// further appends fail until restart.
    wedged: bool,
}

/// One domain's write-ahead log: an append handle on the active segment
/// plus counters. Appends happen under the store's ingest-order lock
/// (see [`crate::store::ShardedStore::ingest_batch`]); the fsync that
/// backs the ack runs after that lock is released
/// ([`DomainWal::sync_for_ack`]) — syncing later-arrived bytes too is
/// harmless, whereas fsyncing under the ingest lock would stall every
/// writer behind the disk.
pub struct DomainWal {
    domain: String,
    dir: PathBuf,
    sync: WalSyncPolicy,
    segment_bytes: u64,
    hook: Option<FaultHook>,
    inner: Mutex<WalInner>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
    replayed_rows: AtomicU64,
    /// Set when the last append/fsync failed, cleared on the next
    /// success; surfaces as `/healthz` 503 `degraded`.
    degraded: AtomicBool,
    /// Metric handles attached by the server (absent in bare tests).
    obs: OnceLock<WalObs>,
}

/// Per-domain WAL metric handles: append/fsync latency histograms and the
/// re-journal backlog depth gauge, all labeled `domain=`.
#[derive(Debug, Clone)]
pub struct WalObs {
    /// Latency of one framed-record append (microseconds recorded,
    /// rendered as `ltm_wal_append_duration_seconds`).
    pub append_seconds: Arc<crate::obs::Histogram>,
    /// Latency of one `fsync` (`ltm_wal_fsync_duration_seconds`).
    pub fsync_seconds: Arc<crate::obs::Histogram>,
    /// Frames currently queued for re-journal
    /// (`ltm_wal_backlog_depth`).
    pub backlog_depth: Arc<crate::obs::Gauge>,
}

impl WalObs {
    /// Registers (or re-fetches) the WAL metric family for `domain`.
    pub fn for_domain(registry: &crate::obs::Registry, domain: &str) -> Self {
        let labels = &[("domain", domain)];
        WalObs {
            append_seconds: registry.histogram(
                "ltm_wal_append_duration_seconds",
                labels,
                crate::obs::Unit::Micros,
            ),
            fsync_seconds: registry.histogram(
                "ltm_wal_fsync_duration_seconds",
                labels,
                crate::obs::Unit::Micros,
            ),
            backlog_depth: registry.gauge("ltm_wal_backlog_depth", labels),
        }
    }
}

impl std::fmt::Debug for DomainWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DomainWal")
            .field("domain", &self.domain)
            .field("dir", &self.dir)
            .field("sync", &self.sync)
            .field("segment_bytes", &self.segment_bytes)
            .finish_non_exhaustive()
    }
}

impl DomainWal {
    /// Opens (creating if needed) the WAL for `domain` under
    /// `config.dir/<domain>/`, **replays its tail** into `store` through
    /// the normal ingest path, and returns the append-ready WAL plus a
    /// replay report.
    ///
    /// Rows at or below the store's current accepted sequence (already
    /// restored from the snapshot) are skipped; a row that would skip
    /// *ahead* of the store (a deleted or missing segment) and any
    /// mid-log damage fail with [`io::ErrorKind::InvalidData`]. A torn
    /// final record is truncated with a warning on stderr — an
    /// interrupted append must never stop the boot.
    ///
    /// `meta` is validated against (or, for a fresh directory, written
    /// to) the domain's [`META_FILE`].
    pub fn open(
        config: &WalConfig,
        domain: &str,
        meta: &WalDomainMeta,
        store: &ShardedStore,
    ) -> io::Result<(DomainWal, ReplayReport)> {
        let dir = config.dir.join(domain);
        std::fs::create_dir_all(&dir)?;
        let meta_path = dir.join(META_FILE);
        if meta_path.exists() {
            let text = std::fs::read_to_string(&meta_path)?;
            let on_disk: WalDomainMeta = serde_json::from_str(&text)
                .map_err(|e| invalid(format!("{}: bad WAL meta: {e}", meta_path.display())))?;
            if &on_disk != meta {
                return Err(invalid(format!(
                    "{}: WAL was written by a `{}` domain with {} shards, but the server \
                     configures `{}` with {} shards",
                    meta_path.display(),
                    on_disk.kind,
                    on_disk.shards,
                    meta.kind,
                    meta.shards
                )));
            }
        } else {
            std::fs::write(
                &meta_path,
                serde_json::to_string(meta)
                    .map_err(|e| invalid(format!("encode WAL meta: {e}")))?,
            )?;
        }

        let report = replay_segments(&dir, domain, store)?;

        // Open the newest segment for append, or start the first one at
        // the next sequence the store will mint.
        let segments = list_segments(&dir)?;
        let (path, file) = match segments.last() {
            Some((_, path)) => {
                let file = OpenOptions::new().append(true).open(path)?;
                (path.clone(), file)
            }
            None => {
                let path = dir.join(segment_name(store.accepted_seq() + 1));
                let file = OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(&path)?;
                (path, file)
            }
        };
        let written = file.metadata()?.len();
        let wal = DomainWal {
            domain: domain.to_owned(),
            dir,
            sync: config.sync,
            segment_bytes: config.segment_bytes.max(1),
            hook: config.fault_hook.clone(),
            inner: Mutex::new(WalInner {
                file,
                path,
                written,
                dirty: false,
                last_sync: Instant::now(),
                backlog: VecDeque::new(),
                wedged: false,
            }),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            replayed_rows: AtomicU64::new(report.replayed_rows),
            degraded: AtomicBool::new(false),
            obs: OnceLock::new(),
        };
        Ok((wal, report))
    }

    /// The domain this WAL belongs to.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// Attaches metric handles (idempotent — the first attachment wins).
    /// Called by the server once the registry exists; a WAL used without
    /// attachment (unit tests) simply records nothing.
    pub fn attach_obs(&self, obs: WalObs) {
        let _ = self.obs.set(obs);
    }

    fn check_hook(&self, op: WalOp) -> io::Result<()> {
        if let Some(hook) = &self.hook {
            if let Some(err) = hook(op) {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Appends one accepted batch as a single framed record. Called by
    /// the store's batch ingest **while the ingest-order lock is held**,
    /// which is exactly what guarantees record order equals sequence
    /// order; the write itself is buffered by the OS — call
    /// [`DomainWal::sync_for_ack`] (after releasing the store lock)
    /// before acking the client.
    ///
    /// On failure the frame is **kept** in the backlog (the store has
    /// already consumed its sequence numbers and cannot un-ingest, so
    /// dropping it would gap the log): this and every later append
    /// re-attempt the queued frames, in order, before writing anything
    /// newer — the on-disk log is always a gap-free prefix of the
    /// accepted sequence. The WAL reports [`DomainWal::degraded`] until
    /// the backlog drains.
    pub fn append_batch(&self, first_seq: u64, rows: &[LogRecord]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(72 + rows.len() * 48);
        put_frame(&mut frame, &self.domain, first_seq, rows, usize::MAX);
        let mut inner = self.inner.locked();
        inner.backlog.push_back((first_seq, frame));
        let result = self.drain_backlog_locked(&mut inner);
        self.note_drain(&inner, &result);
        result
    }

    /// Re-journals every queued failed-append frame without adding a new
    /// one — the ack path for a **duplicate-only** batch (the retry of a
    /// batch whose append failed deduplicates against the rows already
    /// in memory, so no journal callback runs; acking it without this
    /// flush would cover rows the WAL does not hold). A no-op when the
    /// backlog is empty.
    pub fn flush_backlog(&self) -> io::Result<()> {
        let mut inner = self.inner.locked();
        if inner.backlog.is_empty() {
            return Ok(());
        }
        let result = self.drain_backlog_locked(&mut inner);
        self.note_drain(&inner, &result);
        result
    }

    /// Whether failed-append frames are still queued for re-journal.
    pub fn has_backlog(&self) -> bool {
        !self.inner.locked().backlog.is_empty()
    }

    /// Writes the queued frames front-first, stopping (and requeueing
    /// the failed frame) on the first error so sequence order on disk is
    /// never violated.
    fn drain_backlog_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        while let Some((first_seq, frame)) = inner.backlog.pop_front() {
            let started = Instant::now();
            if let Err(e) = self.append_locked(inner, first_seq, &frame) {
                inner.backlog.push_front((first_seq, frame));
                return Err(e);
            }
            if let Some(obs) = self.obs.get() {
                obs.append_seconds.record_duration(started.elapsed());
            }
            self.appends.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Updates the degraded flag and backlog gauge (and logs) after a
    /// backlog drain.
    fn note_drain(&self, inner: &WalInner, result: &io::Result<()>) {
        if let Some(obs) = self.obs.get() {
            obs.backlog_depth.set(inner.backlog.len() as i64);
        }
        match result {
            Ok(()) => self.degraded.store(false, Ordering::Relaxed),
            Err(e) => {
                crate::log_warn!(
                    "wal",
                    "{}: append failed: {e} ({} batch(es) queued for re-journal)",
                    self.domain,
                    inner.backlog.len()
                );
                self.degraded.store(true, Ordering::Relaxed);
            }
        }
    }

    fn append_locked(&self, inner: &mut WalInner, first_seq: u64, frame: &[u8]) -> io::Result<()> {
        if inner.wedged {
            return Err(io::Error::other(
                "WAL wedged: a partial append could not be truncated away; \
                 restart the server to recover (the tail will be truncated at boot)",
            ));
        }
        if inner.written >= self.segment_bytes && inner.written > 0 {
            self.rotate_locked(inner, first_seq)?;
        }
        self.check_hook(WalOp::Append)?;
        if let Err(e) = inner.file.write_all(frame) {
            // An unknown number of the frame's bytes may have reached
            // the file; cut back to the last record boundary so the
            // re-journal appends cleanly. If even that fails, stop
            // appending entirely — the garbage then stays a torn *tail*
            // (truncated at the next boot) instead of gaining valid
            // records behind it (mid-log corruption, which refuses to
            // boot).
            if inner.file.set_len(inner.written).is_err() {
                inner.wedged = true;
            }
            return Err(e);
        }
        inner.written += frame.len() as u64;
        inner.dirty = true;
        Ok(())
    }

    /// Seals the active segment and opens a fresh one whose name records
    /// `next_seq` as its first sequence. The sealed file is fsync'd
    /// **regardless of the sync policy** — compaction's delete trusts a
    /// sealed segment's contents reached disk, and
    /// [`WalSyncPolicy::Never`] only waives the per-ack sync, not seals.
    fn rotate_locked(&self, inner: &mut WalInner, next_seq: u64) -> io::Result<()> {
        if inner.dirty {
            let started = Instant::now();
            self.check_hook(WalOp::Sync)?;
            inner.file.sync_data()?;
            if let Some(obs) = self.obs.get() {
                obs.fsync_seconds.record_duration(started.elapsed());
            }
            inner.dirty = false;
            inner.last_sync = Instant::now();
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        let path = self.dir.join(segment_name(next_seq));
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        inner.file = file;
        inner.path = path;
        inner.written = 0;
        inner.dirty = false;
        Ok(())
    }

    /// The fsync backing an ack, per policy: `always` syncs now,
    /// `interval:<ms>` syncs when the interval has elapsed since the
    /// last sync, `never` returns immediately. Call after the store's
    /// ingest lock is released and before writing the HTTP response.
    pub fn sync_for_ack(&self) -> io::Result<()> {
        match self.sync {
            WalSyncPolicy::Never => Ok(()),
            WalSyncPolicy::Always => self.sync_now(),
            WalSyncPolicy::IntervalMs(ms) => {
                let due = {
                    let inner = self.inner.locked();
                    inner.dirty && inner.last_sync.elapsed() >= Duration::from_millis(ms)
                };
                if due {
                    self.sync_now()
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Unconditional fsync of the active segment (shutdown, tests).
    pub fn sync_now(&self) -> io::Result<()> {
        let mut inner = self.inner.locked();
        if !inner.dirty {
            return Ok(());
        }
        let started = Instant::now();
        let result = self
            .check_hook(WalOp::Sync)
            .and_then(|()| inner.file.sync_data());
        match &result {
            Ok(()) => {
                if let Some(obs) = self.obs.get() {
                    obs.fsync_seconds.record_duration(started.elapsed());
                }
                inner.dirty = false;
                inner.last_sync = Instant::now();
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                // Still degraded while frames await re-journal: the
                // acked prefix just synced, but the store holds rows the
                // WAL doesn't yet.
                if inner.backlog.is_empty() {
                    self.degraded.store(false, Ordering::Relaxed);
                }
            }
            Err(e) => {
                crate::log_warn!("wal", "{}: fsync failed: {e}", self.domain);
                self.degraded.store(true, Ordering::Relaxed);
            }
        }
        result
    }

    /// Seals the active segment now (compaction wants the whole log
    /// foldable): drains any failed-append backlog, syncs the segment
    /// (`rotate_locked` always syncs a dirty seal), and
    /// opens a fresh segment starting at `next_seq`. A no-op when the
    /// active segment is empty.
    pub fn seal_active(&self, next_seq: u64) -> io::Result<()> {
        let mut inner = self.inner.locked();
        let result = self.drain_backlog_locked(&mut inner).and_then(|()| {
            if inner.written == 0 {
                return Ok(());
            }
            self.rotate_locked(&mut inner, next_seq)
        });
        // Conservative flag maintenance: a failed seal degrades, but a
        // successful one leaves clearing to the next append/sync (the
        // paths that know whether the backlog is empty).
        if result.is_err() {
            self.degraded.store(true, Ordering::Relaxed);
        }
        result
    }

    /// Whether any sealed (non-active) segments exist — the background
    /// compactor's trigger condition.
    pub fn has_sealed_segments(&self) -> bool {
        let active = self.inner.locked().path.clone();
        list_segments(&self.dir)
            .map(|segs| segs.iter().any(|(_, p)| p != &active))
            .unwrap_or(false)
    }

    /// Deletes sealed segments wholly covered by a snapshot through
    /// sequence `covered_seq`, returning how many were removed. A sealed
    /// segment's coverage ends where the next segment begins, so segment
    /// `i` is deletable iff segment `i+1` starts at or below
    /// `covered_seq + 1`; the active segment is never deleted.
    pub fn delete_segments_covered_by(&self, covered_seq: u64) -> io::Result<usize> {
        let active = self.inner.locked().path.clone();
        let segments = list_segments(&self.dir)?;
        let mut deleted = 0;
        for pair in segments.windows(2) {
            // analyzer: allow(panic-index) -- windows(2) yields exactly-2-element slices
            let (_, path) = &pair[0];
            // analyzer: allow(panic-index) -- windows(2) yields exactly-2-element slices
            let (next_first, _) = &pair[1];
            if path != &active && *next_first <= covered_seq + 1 {
                std::fs::remove_file(path)?;
                deleted += 1;
            }
        }
        Ok(deleted)
    }

    /// `(appends, fsyncs, bytes, replayed_rows)` counters for `/stats`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.appends.load(Ordering::Relaxed),
            self.fsyncs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.replayed_rows.load(Ordering::Relaxed),
        )
    }

    /// Whether the last append or fsync failed (cleared by the next
    /// success). Surfaces as `/healthz` 503.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Replays every segment of a domain WAL directory into `store` (the
/// recovery half of [`DomainWal::open`], separated for testability).
fn replay_segments(dir: &Path, domain: &str, store: &ShardedStore) -> io::Result<ReplayReport> {
    let segments = list_segments(dir)?;
    let mut report = ReplayReport {
        segments: segments.len() as u64,
        ..ReplayReport::default()
    };
    let last_index = segments.len().saturating_sub(1);
    for (i, (_, path)) in segments.iter().enumerate() {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let (records, good_len, issue) = decode_segment(&bytes);
        match issue {
            None => {}
            Some(SegmentIssue::TornTail { offset }) if i == last_index => {
                let torn = bytes.len() - good_len;
                crate::log_warn!(
                    "wal",
                    "{}: torn final record at byte {offset} ({torn} bytes) — \
                     truncating (an interrupted append; the batch was never acked)",
                    path.display()
                );
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(good_len as u64)?;
                file.sync_data()?;
                report.truncated_bytes += torn as u64;
            }
            Some(SegmentIssue::TornTail { offset }) => {
                return Err(invalid(format!(
                    "{}: segment is truncated at byte {offset} but later segments exist — \
                     the WAL is missing acked data; refusing to boot",
                    path.display()
                )));
            }
            Some(SegmentIssue::Corrupt { offset, reason }) => {
                return Err(invalid(format!(
                    "{}: corrupt WAL record at byte {offset} ({reason}) with acked data \
                     after it; refusing to boot — restore the file or delete the WAL \
                     directory to accept the loss",
                    path.display()
                )));
            }
        }
        report.records += records.len() as u64;
        for record in records {
            report.replayed_rows += replay_record(record, domain, store)
                .map_err(|e| invalid(format!("{}: WAL {e}", path.display())))?;
        }
    }
    Ok(report)
}

/// Replays one decoded record into `store` and returns the rows replayed
/// — the one replay step of boot-time WAL replay and
/// [`crate::snapshot::restore`]. The rows move into the store through
/// [`ShardedStore::ingest_batch`], under one ingest-order lock per
/// record. Rows the store already holds are skipped; a sequence gap, a
/// duplicate row, or another domain's record is an error, which the
/// caller prefixes with the record's origin.
pub(crate) fn replay_record(
    record: WalRecord,
    domain: &str,
    store: &ShardedStore,
) -> Result<u64, String> {
    let WalRecord {
        domain: owner,
        first_seq,
        mut rows,
    } = record;
    if owner != domain {
        return Err(format!(
            "record for domain `{owner}` found in the `{domain}` log"
        ));
    }
    // Rows numbered up to `current` are already restored from the
    // snapshot. `first_seq` comes from disk, so nothing is added to it.
    let current = store.accepted_seq();
    let held = (current + 1).saturating_sub(first_seq);
    let skip = usize::try_from(held).unwrap_or(usize::MAX).min(rows.len());
    rows.drain(..skip);
    if rows.is_empty() {
        return Ok(0);
    }
    if held == 0 && first_seq != current + 1 {
        return Err(format!(
            "jumps to sequence {first_seq} but the store is at {current}: the rows in \
             between are missing"
        ));
    }
    let outcome = store.ingest_batch(rows, None).map_err(|e| e.to_string())?;
    if outcome.duplicates > 0 {
        return Err(format!(
            "the record from sequence {} replays {} row(s) as duplicates: the log \
             disagrees with the store",
            current + 1,
            outcome.duplicates
        ));
    }
    Ok(outcome.accepted)
}

/// Domain names with a WAL directory under `root` (for boot-time
/// discovery of domains that exist only in the WAL). Missing roots list
/// as empty — a fresh server simply has no WAL yet.
pub fn wal_domains(root: &Path) -> io::Result<Vec<String>> {
    if !root.exists() {
        return Ok(Vec::new());
    }
    let mut names = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() && entry.path().join(META_FILE).exists() {
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_owned());
            }
        }
    }
    names.sort();
    Ok(names)
}

/// Reads a domain's [`META_FILE`] under `root/<domain>/`.
pub fn read_meta(root: &Path, domain: &str) -> io::Result<WalDomainMeta> {
    let path = root.join(domain).join(META_FILE);
    let text = std::fs::read_to_string(&path)?;
    serde_json::from_str(&text)
        .map_err(|e| invalid(format!("{}: bad WAL meta: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ltm-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn row(e: &str, value: Option<f64>) -> LogRecord {
        LogRecord {
            entity: e.into(),
            attr: "a".into(),
            source: "s".into(),
            value,
        }
    }

    fn meta() -> WalDomainMeta {
        WalDomainMeta {
            kind: "boolean".into(),
            shards: 2,
        }
    }

    fn config(dir: &Path) -> WalConfig {
        WalConfig::new(dir)
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_round_trips_through_the_framing() {
        let rec = WalRecord {
            domain: "default".into(),
            first_seq: 7,
            rows: vec![row("e0", None), row("e1", Some(0.25)), row("", Some(-0.0))],
        };
        let frame = encode_record(&rec);
        let (records, good, issue) = decode_segment(&frame);
        assert_eq!(issue, None);
        assert_eq!(good, frame.len());
        assert_eq!(records, vec![rec]);
    }

    #[test]
    fn long_strings_survive_the_u32_length_prefix() {
        // Entity names can exceed u16::MAX bytes (HTTP bodies go to
        // 16 MiB) — the length prefix must be wide enough.
        let big = "x".repeat(70_000);
        let rec = WalRecord {
            domain: "default".into(),
            first_seq: 1,
            rows: vec![LogRecord {
                entity: big.clone(),
                attr: big.clone(),
                source: big,
                value: None,
            }],
        };
        let frame = encode_record(&rec);
        let (records, _, issue) = decode_segment(&frame);
        assert_eq!(issue, None);
        assert_eq!(records[0].rows[0].entity.len(), 70_000);
    }

    #[test]
    fn torn_tail_at_every_prefix_decodes_the_clean_records() {
        let r1 = WalRecord {
            domain: "d".into(),
            first_seq: 1,
            rows: vec![row("e0", None)],
        };
        let r2 = WalRecord {
            domain: "d".into(),
            first_seq: 2,
            rows: vec![row("e1", None)],
        };
        let mut bytes = encode_record(&r1);
        let first_len = bytes.len();
        bytes.extend_from_slice(&encode_record(&r2));
        // Every strict prefix that cuts into the second frame must yield
        // record 1 plus a torn tail at the second frame's start.
        for cut in first_len + 1..bytes.len() {
            let (records, good, issue) = decode_segment(&bytes[..cut]);
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(good, first_len, "cut at {cut}");
            assert_eq!(
                issue,
                Some(SegmentIssue::TornTail { offset: first_len }),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn final_frame_checksum_failure_reads_as_torn() {
        // A fully-written length with a partially persisted payload is
        // still a torn append when nothing follows it.
        let mut bytes = encode_record(&WalRecord {
            domain: "d".into(),
            first_seq: 1,
            rows: vec![row("e0", None)],
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let (records, good, issue) = decode_segment(&bytes);
        assert!(records.is_empty());
        assert_eq!(good, 0);
        assert_eq!(issue, Some(SegmentIssue::TornTail { offset: 0 }));
    }

    #[test]
    fn mid_log_damage_is_corruption_not_a_torn_tail() {
        let mut bytes = encode_record(&WalRecord {
            domain: "d".into(),
            first_seq: 1,
            rows: vec![row("e0", None)],
        });
        let flip = bytes.len() - 1; // inside record 1's payload
        bytes.extend_from_slice(&encode_record(&WalRecord {
            domain: "d".into(),
            first_seq: 2,
            rows: vec![row("e1", None)],
        }));
        bytes[flip] ^= 0xFF;
        let (records, _, issue) = decode_segment(&bytes);
        assert!(records.is_empty());
        assert!(
            matches!(issue, Some(SegmentIssue::Corrupt { offset: 0, .. })),
            "{issue:?}"
        );
    }

    #[test]
    fn implausible_length_is_corruption() {
        let mut bytes = vec![0u8; 16];
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (_, _, issue) = decode_segment(&bytes);
        assert!(
            matches!(issue, Some(SegmentIssue::Corrupt { .. })),
            "{issue:?}"
        );
    }

    #[test]
    fn sync_policy_parses_and_displays() {
        assert_eq!("always".parse(), Ok(WalSyncPolicy::Always));
        assert_eq!("never".parse(), Ok(WalSyncPolicy::Never));
        assert_eq!("interval:250".parse(), Ok(WalSyncPolicy::IntervalMs(250)));
        assert_eq!("250".parse(), Ok(WalSyncPolicy::IntervalMs(250)));
        assert!("sometimes".parse::<WalSyncPolicy>().is_err());
        assert_eq!(WalSyncPolicy::IntervalMs(250).to_string(), "interval:250");
    }

    #[test]
    fn append_replay_round_trip_through_a_store() {
        let dir = temp_dir("round-trip");
        let store = ShardedStore::new(2);
        let (wal, report) = DomainWal::open(&config(&dir), "default", &meta(), &store).unwrap();
        assert_eq!(report, ReplayReport::default());
        // Two batches through the real batch-ingest path.
        store
            .ingest_batch(
                vec![row("e0", None), row("e1", None)],
                Some(&|s, r| wal.append_batch(s, r)),
            )
            .unwrap();
        store
            .ingest_batch(vec![row("e2", None)], Some(&|s, r| wal.append_batch(s, r)))
            .unwrap();
        wal.sync_now().unwrap();
        let (appends, _, bytes, _) = wal.counters();
        assert_eq!(appends, 2);
        assert!(bytes > 0);

        let recovered = ShardedStore::new(2);
        let (wal2, report) =
            DomainWal::open(&config(&dir), "default", &meta(), &recovered).unwrap();
        assert_eq!(report.replayed_rows, 3);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(recovered.accepted_seq(), store.accepted_seq());
        assert_eq!(recovered.source_names(), store.source_names());
        assert_eq!(recovered.pending(), 3, "replayed rows re-arm the refit");
        drop(wal2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_truncates_and_boots() {
        let dir = temp_dir("torn");
        let store = ShardedStore::new(1);
        let (wal, _) = DomainWal::open(&config(&dir), "d", &meta_for("d"), &store).unwrap();
        store
            .ingest_batch(vec![row("e0", None)], Some(&|s, r| wal.append_batch(s, r)))
            .unwrap();
        wal.sync_now().unwrap();
        // Simulate a crash mid-append: half a frame at the tail.
        let seg = list_segments(&dir.join("d")).unwrap().pop().unwrap().1;
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[42, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);

        let recovered = ShardedStore::new(1);
        let (_, report) = DomainWal::open(&config(&dir), "d", &meta_for("d"), &recovered).unwrap();
        assert_eq!(report.replayed_rows, 1);
        assert_eq!(report.truncated_bytes, 7);
        assert_eq!(recovered.accepted_seq(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn meta_for(_domain: &str) -> WalDomainMeta {
        WalDomainMeta {
            kind: "boolean".into(),
            shards: 1,
        }
    }

    #[test]
    fn mid_log_corruption_refuses_to_boot() {
        let dir = temp_dir("corrupt");
        let store = ShardedStore::new(1);
        let (wal, _) = DomainWal::open(&config(&dir), "d", &meta_for("d"), &store).unwrap();
        for e in ["e0", "e1"] {
            store
                .ingest_batch(vec![row(e, None)], Some(&|s, r| wal.append_batch(s, r)))
                .unwrap();
        }
        wal.sync_now().unwrap();
        let seg = list_segments(&dir.join("d")).unwrap().pop().unwrap().1;
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[10] ^= 0xFF; // inside the first record, second record follows
        std::fs::write(&seg, bytes).unwrap();

        let err =
            DomainWal::open(&config(&dir), "d", &meta_for("d"), &ShardedStore::new(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt WAL record"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_compaction_deletes_covered_ones() {
        let dir = temp_dir("rotate");
        let store = ShardedStore::new(1);
        let mut cfg = config(&dir);
        cfg.segment_bytes = 1; // rotate on every batch after the first
        let (wal, _) = DomainWal::open(&cfg, "d", &meta_for("d"), &store).unwrap();
        for e in ["e0", "e1", "e2"] {
            store
                .ingest_batch(vec![row(e, None)], Some(&|s, r| wal.append_batch(s, r)))
                .unwrap();
        }
        assert!(wal.has_sealed_segments());
        assert_eq!(list_segments(&dir.join("d")).unwrap().len(), 3);

        // A snapshot covering sequence 1 frees only the first segment.
        assert_eq!(wal.delete_segments_covered_by(1).unwrap(), 1);
        // Covering everything frees the rest of the sealed ones; the
        // active segment survives.
        assert_eq!(wal.delete_segments_covered_by(3).unwrap(), 1);
        assert_eq!(list_segments(&dir.join("d")).unwrap().len(), 1);
        assert!(!wal.has_sealed_segments());

        // Recovery from snapshot(2 rows) + remaining tail still works.
        let recovered = ShardedStore::new(1);
        recovered.ingest("e0", "a", "s");
        recovered.ingest("e1", "a", "s");
        let (_, report) = DomainWal::open(&cfg, "d", &meta_for("d"), &recovered).unwrap();
        assert_eq!(report.replayed_rows, 1, "only the tail past the snapshot");
        assert_eq!(recovered.accepted_seq(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deleted_segment_gap_is_detected() {
        let dir = temp_dir("gap");
        let store = ShardedStore::new(1);
        let mut cfg = config(&dir);
        cfg.segment_bytes = 1;
        let (wal, _) = DomainWal::open(&cfg, "d", &meta_for("d"), &store).unwrap();
        for e in ["e0", "e1", "e2"] {
            store
                .ingest_batch(vec![row(e, None)], Some(&|s, r| wal.append_batch(s, r)))
                .unwrap();
        }
        drop(wal);
        // Remove the middle segment: recovery must refuse, not silently
        // skip sequence 2.
        let segs = list_segments(&dir.join("d")).unwrap();
        std::fs::remove_file(&segs[1].1).unwrap();
        let err = DomainWal::open(&cfg, "d", &meta_for("d"), &ShardedStore::new(1)).unwrap_err();
        assert!(err.to_string().contains("jumps to sequence"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_frame_repeating_an_accepted_row_refuses_to_boot() {
        // Both frames pass their CRC, but the second repeats the first's
        // row: the log disagrees with the store, so replay refuses.
        let dir = temp_dir("repeat");
        let store = ShardedStore::new(1);
        let (wal, _) = DomainWal::open(&config(&dir), "d", &meta_for("d"), &store).unwrap();
        store
            .ingest_batch(vec![row("e0", None)], Some(&|s, r| wal.append_batch(s, r)))
            .unwrap();
        wal.append_batch(2, &[row("e0", None)]).unwrap();
        drop(wal);
        let err =
            DomainWal::open(&config(&dir), "d", &meta_for("d"), &ShardedStore::new(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("as duplicates"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_hook_fails_appends_and_sets_degraded() {
        let dir = temp_dir("hook");
        let fail = Arc::new(AtomicBool::new(false));
        let hook_flag = Arc::clone(&fail);
        let mut cfg = config(&dir);
        cfg.fault_hook = Some(Arc::new(move |op| {
            (op == WalOp::Append && hook_flag.load(Ordering::Relaxed))
                .then(|| io::Error::other("injected append failure"))
        }));
        let store = ShardedStore::new(1);
        let (wal, _) = DomainWal::open(&cfg, "d", &meta_for("d"), &store).unwrap();
        store
            .ingest_batch(vec![row("e0", None)], Some(&|s, r| wal.append_batch(s, r)))
            .unwrap();
        assert!(!wal.degraded());

        fail.store(true, Ordering::Relaxed);
        let err = store
            .ingest_batch(vec![row("e1", None)], Some(&|s, r| wal.append_batch(s, r)))
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(wal.degraded(), "a failed append must mark the WAL degraded");
        assert!(wal.has_backlog(), "the failed frame must stay queued");

        fail.store(false, Ordering::Relaxed);
        store
            .ingest_batch(vec![row("e2", None)], Some(&|s, r| wal.append_batch(s, r)))
            .unwrap();
        assert!(!wal.degraded(), "a successful append clears the flag");
        assert!(!wal.has_backlog(), "the backlog drained");
        let (appends, _, _, _) = wal.counters();
        assert_eq!(appends, 3, "e1's frame was re-journaled ahead of e2's");

        // The whole point: the log has no sequence gap, so a restart
        // boots and recovers every row — including e1, whose own append
        // failed but which was re-journaled by e2's.
        let recovered = ShardedStore::new(1);
        let (_, report) = DomainWal::open(&config(&dir), "d", &meta_for("d"), &recovered).unwrap();
        assert_eq!(report.replayed_rows, 3);
        assert_eq!(recovered.accepted_seq(), store.accepted_seq());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_only_retry_flushes_the_backlog_before_acking() {
        // The retry of a failed batch dedupes against the rows left in
        // memory (accepted == 0), so no journal callback runs — the ack
        // path flushes the backlog explicitly instead. While writes
        // still fail, the flush must fail too (no ack for rows the WAL
        // doesn't hold).
        let dir = temp_dir("retry-flush");
        let fail = Arc::new(AtomicBool::new(false));
        let hook_flag = Arc::clone(&fail);
        let mut cfg = config(&dir);
        cfg.fault_hook = Some(Arc::new(move |op| {
            (op == WalOp::Append && hook_flag.load(Ordering::Relaxed))
                .then(|| io::Error::other("injected append failure"))
        }));
        let store = ShardedStore::new(1);
        let (wal, _) = DomainWal::open(&cfg, "d", &meta_for("d"), &store).unwrap();

        fail.store(true, Ordering::Relaxed);
        store
            .ingest_batch(vec![row("e0", None)], Some(&|s, r| wal.append_batch(s, r)))
            .unwrap_err();
        // The retry is duplicate-only; its journal callback never runs.
        let outcome = store
            .ingest_batch(vec![row("e0", None)], Some(&|s, r| wal.append_batch(s, r)))
            .unwrap();
        assert_eq!(outcome.accepted, 0);
        assert_eq!(outcome.duplicates, 1);
        // With writes still failing, the flush refuses the ack.
        wal.flush_backlog().unwrap_err();
        assert!(wal.degraded());

        // Once writes recover, the flush re-journals and the ack is
        // honest: a restart replays the row.
        fail.store(false, Ordering::Relaxed);
        wal.flush_backlog().unwrap();
        wal.sync_now().unwrap();
        assert!(!wal.degraded());
        let recovered = ShardedStore::new(1);
        let (_, report) = DomainWal::open(&cfg, "d", &meta_for("d"), &recovered).unwrap();
        assert_eq!(report.replayed_rows, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_under_never_policy_still_syncs_sealed_segments() {
        // WalSyncPolicy::Never waives only the per-ack fsync; a sealed
        // (rotated) segment must still be synced so compaction can trust
        // its contents reached disk before deleting it.
        let dir = temp_dir("never-rotate");
        let store = ShardedStore::new(1);
        let mut cfg = config(&dir);
        cfg.sync = WalSyncPolicy::Never;
        cfg.segment_bytes = 1; // rotate on every batch after the first
        let (wal, _) = DomainWal::open(&cfg, "d", &meta_for("d"), &store).unwrap();
        for e in ["e0", "e1", "e2"] {
            store
                .ingest_batch(vec![row(e, None)], Some(&|s, r| wal.append_batch(s, r)))
                .unwrap();
        }
        let (_, fsyncs, _, _) = wal.counters();
        assert_eq!(fsyncs, 2, "each of the two rotations sealed with an fsync");
        // sync_for_ack stays a no-op under `never`.
        wal.sync_for_ack().unwrap();
        let (_, fsyncs, _, _) = wal.counters();
        assert_eq!(fsyncs, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_mismatch_is_rejected() {
        let dir = temp_dir("meta");
        let store = ShardedStore::new(2);
        let (wal, _) = DomainWal::open(&config(&dir), "default", &meta(), &store).unwrap();
        drop(wal);
        let other = WalDomainMeta {
            kind: "real_valued".into(),
            shards: 2,
        };
        let err =
            DomainWal::open(&config(&dir), "default", &other, &ShardedStore::new(2)).unwrap_err();
        assert!(err.to_string().contains("real_valued"), "{err}");
        assert_eq!(wal_domains(&dir).unwrap(), vec!["default".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
