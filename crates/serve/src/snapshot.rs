//! Snapshot save/restore: every domain's store contents + learned state
//! in one file, so a restarted server resumes serving its last published
//! epochs without refitting from scratch.
//!
//! **Format v3**, the only one [`load`] reads, is one file of:
//!
//! * the 8-byte magic `LTMSNAP3`;
//! * a header: `[len: u64 LE][crc32(json): u32 LE]`, then compact JSON
//!   holding one [`DomainRec`] per hosted domain — name, [`ModelKind`]
//!   wire name, shard count, source names, row count, pending tail,
//!   refit accumulator, and served epoch with its shadow columns;
//! * every domain's accepted rows, domain by domain in header order and
//!   each from sequence 1, as WAL frames ([`crate::wal::encode_record`])
//!   of about 1 MiB each.
//!
//! So rows have one durable encoding, the WAL's CRC32 frame, and
//! [`restore`] brings them back through the replay step that boot-time
//! WAL replay uses ([`crate::wal::DomainWal::open`]): a sequence gap or
//! a duplicate row is an error in both. The JSON formats v1 and v2 are
//! refused with an error that says so; there is no converter.
//!
//! Per domain, the store side is the accepted-row log in arrival order
//! (replaying it through a fresh [`ShardedStore`] with the same shard
//! count reproduces every id assignment); the predictor side is the raw
//! parameter tables of the served epoch plus the pending watermark; the
//! refit side is the streaming accumulator — expected-count cells for
//! boolean domains (4 per source), Gaussian sufficient statistics for
//! real-valued ones (6 per source) — plus its fold watermark, so a
//! restarted server resumes *incremental* refits over the unfolded tail.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ltm_core::{
    BetaPair, ExpectedCounts, IncrementalLtm, IncrementalRealLtm, NigPrior, RealSuffStats,
    StreamingLtm, StreamingRealLtm,
};
use serde::{Deserialize, Serialize};

use crate::domain::{Domain, DomainSet};
use crate::epoch::EpochSnapshot;
use crate::model::{ModelKind, ServePredictor};
use crate::refit::RefitConfig;
use crate::shadow::{ShadowColumn, ShadowTables};
use crate::store::ShardedStore;
use crate::sync::LockExt;
use crate::wal::{self, invalid, WalRecord};

/// The file's first bytes; the last one names the format version, the
/// only place the version is written.
const MAGIC: &[u8; 8] = b"LTMSNAP3";
/// Why a JSON snapshot (formats v1 and v2) does not load.
const JSON_REFUSED: &str =
    "JSON snapshot (format v1 or v2): this version reads only format v3, with no converter";
/// Snapshot frames close once their payload reaches this many bytes.
const FRAME_BYTES: usize = 1 << 20;

/// The real-valued predictor parameters of a served epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealPredictorRec {
    /// Accumulated per-source statistics ([`RealSuffStats::cells`]).
    pub cells: Vec<f64>,
    /// False-side NIG prior mean `m₀`.
    pub side0_mean: f64,
    /// False-side NIG prior strength `κ₀`.
    pub side0_kappa: f64,
    /// False-side inverse-gamma shape `a₀`.
    pub side0_a: f64,
    /// False-side inverse-gamma rate `b₀`.
    pub side0_b: f64,
    /// True-side NIG prior mean `m₁`.
    pub side1_mean: f64,
    /// True-side NIG prior strength `κ₁`.
    pub side1_kappa: f64,
    /// True-side inverse-gamma shape `a₁`.
    pub side1_a: f64,
    /// True-side inverse-gamma rate `b₁`.
    pub side1_b: f64,
}

/// The published shadow tables of a served epoch. Only the fitted
/// columns are persisted; the ensemble, agreement matrices, and
/// percentile indexes are recomputed deterministically on restore
/// ([`crate::shadow::ShadowTables::assemble`]), so a round-trip serves
/// bit-identical shadow answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowRec {
    /// The epoch the tables were fit for ([`ShadowTables::epoch`]).
    /// Absent in files written before it was recorded, where it restores
    /// as the epoch record's own number.
    pub epoch: Option<u64>,
    /// Global fact ids of the fit extraction, ascending.
    pub fact_ids: Vec<u64>,
    /// Score columns, LTM first then Table 7 order.
    pub methods: Vec<ShadowColumn>,
}

/// The served epoch's parameters. Boolean and positive-only domains fill
/// the `φ` tables; real-valued domains fill `real` and leave the `φ`
/// tables empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRec {
    /// Epoch number at save time.
    pub epoch: u64,
    /// Per-source sensitivity `φ¹`, indexed by global source id.
    pub phi1: Vec<f64>,
    /// Per-source false-positive rate `φ⁰`.
    pub phi0: Vec<f64>,
    /// `β` prior pseudo-counts.
    pub beta_pos: f64,
    /// See `beta_pos`.
    pub beta_neg: f64,
    /// Fallback `φ¹` for unseen sources.
    pub default_phi1: f64,
    /// Fallback `φ⁰` for unseen sources.
    pub default_phi0: f64,
    /// Diagnostics of the refit that produced the epoch.
    pub max_rhat: f64,
    /// See `max_rhat`.
    pub converged_fraction: f64,
    /// Claims that refit folded in.
    pub trained_claims: usize,
    /// Sources covered by the learned quality.
    pub trained_sources: usize,
    /// Real-valued predictor parameters (real-valued domains only).
    pub real: Option<RealPredictorRec>,
    /// Shadow baseline tables of the epoch (absent in real-valued
    /// domains and in epochs fit with shadows disabled).
    pub shadow: Option<ShadowRec>,
}

/// The refit daemon's accumulator at save time. `cells` semantics follow
/// the domain kind: [`ExpectedCounts::cells`] (4 per source) for boolean
/// and positive-only domains, [`RealSuffStats::cells`] (6 per source)
/// for real-valued ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccumulatorRec {
    /// Raw accumulator cells in global source-id order.
    pub cells: Vec<f64>,
    /// Batches the saved trainer had folded (resumes per-batch seed
    /// decorrelation).
    pub batches_seen: usize,
    /// Accepted-row sequence the accumulator covers. Replay reproduces
    /// sequence numbers (they are replay-log positions), so this value
    /// is directly meaningful to the restored store.
    pub watermark: u64,
}

/// One domain's persisted state, rows aside: its header record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainRec {
    /// Domain name (`default` for the legacy un-prefixed routes).
    pub name: String,
    /// [`ModelKind`] wire name (`boolean` | `real_valued` |
    /// `positive_only`).
    pub kind: String,
    /// Shard count the log was built with — restore replays into the
    /// same partitioning so global fact ids survive.
    pub shards: usize,
    /// Global source names in id order (validation).
    pub sources: Vec<String>,
    /// Accepted rows the snapshot holds: sequences `1..=rows`, stored as
    /// frames in [`Snapshot::frames`].
    pub rows: u64,
    /// Tail of the rows not yet folded by a refit at save time. Restore
    /// leaves exactly this many rows pending so they still arm the refit
    /// trigger after a restart — the saved epoch never saw them.
    pub pending: usize,
    /// The refit accumulator, if any fold had committed by save time.
    pub accumulator: Option<AccumulatorRec>,
    /// The served epoch, if any was published before the save.
    pub epoch: Option<EpochRec>,
}

/// A snapshot in memory (the module docs describe its file).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Per-domain state, in the server's domain order.
    pub domains: Vec<DomainRec>,
    /// Every domain's accepted rows as WAL frames, domain by domain in
    /// `domains` order, each domain's from sequence 1.
    pub frames: Vec<u8>,
}

impl Snapshot {
    /// The record for `name`, if present.
    pub fn domain(&self, name: &str) -> Option<&DomainRec> {
        self.domains.iter().find(|d| d.name == name)
    }
}

/// Persists the raw shadow columns (the derived artifacts are rebuilt on
/// restore).
fn capture_shadow(tables: &ShadowTables) -> ShadowRec {
    ShadowRec {
        epoch: Some(tables.epoch),
        fact_ids: tables.fact_ids.clone(),
        methods: tables.methods.clone(),
    }
}

/// Rebuilds full shadow tables (ensemble, agreement, percentile indexes)
/// from persisted columns, stamped with their recorded epoch or, failing
/// that, with `epoch`, the number of the epoch record holding them.
/// Deterministic, so a save/restore round-trip serves bit-identical
/// shadow answers.
fn restore_shadow(rec: &ShadowRec, epoch: u64) -> ShadowTables {
    let mut tables = ShadowTables::assemble(rec.fact_ids.clone(), rec.methods.clone());
    tables.epoch = rec.epoch.unwrap_or(epoch);
    tables
}

/// Captures one domain's state, appending its rows' frames to `frames`:
/// store first (one consistent read under the ingest-order lock), the
/// refit accumulator second, the served epoch last — the same order a
/// refit commits in reverse. A refit that lands in between can only make the saved
/// accumulator/epoch *newer* than the saved log, which errs toward
/// re-folding already-folded rows at the next boot (the refit path
/// self-heals that with an Empty pass); the reverse order could pair an
/// old accumulator with `pending: 0` and silently exclude the unfolded
/// tail.
fn capture_domain(domain: &Domain, frames: &mut Vec<u8>) -> DomainRec {
    let store = domain.store();
    let (sources, rows, pending) = store.persistence_snapshot(|log| {
        let mut rest = log;
        let mut first_seq = 1;
        while !rest.is_empty() {
            let n = wal::put_frame(frames, domain.name(), first_seq, rest, FRAME_BYTES);
            rest = rest.get(n..).unwrap_or_default();
            first_seq += n as u64;
        }
        log.len() as u64
    });
    let accumulator = {
        let st = domain.refit_state().locked();
        match domain.kind() {
            ModelKind::Boolean | ModelKind::PositiveOnly => {
                st.streaming().map(|s| AccumulatorRec {
                    cells: s.accumulated().cells().to_vec(),
                    batches_seen: s.batches_seen(),
                    watermark: st.watermark(),
                })
            }
            ModelKind::RealValued => st.streaming_real().map(|s| AccumulatorRec {
                cells: s.accumulated().cells().to_vec(),
                batches_seen: s.batches_seen(),
                watermark: st.watermark(),
            }),
        }
    };
    let snap = domain.predictor().load();
    let epoch = if snap.epoch == 0 {
        None
    } else {
        Some(match &snap.predictor {
            ServePredictor::Boolean(p) => EpochRec {
                epoch: snap.epoch,
                phi1: p.phi1().to_vec(),
                phi0: p.phi0().to_vec(),
                beta_pos: p.beta().pos,
                beta_neg: p.beta().neg,
                default_phi1: p.fallback().0,
                default_phi0: p.fallback().1,
                max_rhat: snap.max_rhat,
                converged_fraction: snap.converged_fraction,
                trained_claims: snap.trained_claims,
                trained_sources: snap.trained_sources,
                real: None,
                shadow: snap.shadow.as_deref().map(capture_shadow),
            },
            ServePredictor::Real(p) => {
                let (side0, side1) = p.priors();
                EpochRec {
                    epoch: snap.epoch,
                    phi1: Vec::new(),
                    phi0: Vec::new(),
                    beta_pos: p.beta().pos,
                    beta_neg: p.beta().neg,
                    default_phi1: 0.0,
                    default_phi0: 0.0,
                    max_rhat: snap.max_rhat,
                    converged_fraction: snap.converged_fraction,
                    trained_claims: snap.trained_claims,
                    trained_sources: snap.trained_sources,
                    real: Some(RealPredictorRec {
                        cells: p.stats().cells().to_vec(),
                        side0_mean: side0.mean,
                        side0_kappa: side0.kappa,
                        side0_a: side0.a,
                        side0_b: side0.b,
                        side1_mean: side1.mean,
                        side1_kappa: side1.kappa,
                        side1_a: side1.a,
                        side1_b: side1.b,
                    }),
                    shadow: None,
                }
            }
        })
    };
    DomainRec {
        name: domain.name().to_owned(),
        kind: domain.kind().as_str().to_owned(),
        shards: store.num_shards(),
        sources,
        rows,
        pending,
        accumulator,
        epoch,
    }
}

/// Captures every domain's state.
pub fn capture(domains: &DomainSet) -> Snapshot {
    let mut frames = Vec::new();
    let domains = domains
        .list()
        .iter()
        .map(|d| capture_domain(d, &mut frames))
        .collect();
    Snapshot { domains, frames }
}

/// Saves a snapshot of every domain to `path` ([`capture`], then
/// [`write()`]).
pub fn save(domains: &DomainSet, path: &Path) -> io::Result<()> {
    write(&capture(domains), path)
}

/// Writes `snapshot` to `path` in format v3, atomically and durably: a
/// temporary file in the same directory is written, synced, and renamed
/// over the target, then the directory is synced. A kill mid-write never
/// leaves a truncated snapshot or clobbers the previous good one; once
/// this returns `Ok` the file survives power loss (WAL compaction
/// deletes segments only then), and any failed step fails the write.
pub fn write(snapshot: &Snapshot, path: &Path) -> io::Result<()> {
    let header = serde_json::to_string(&snapshot.domains).map_err(|e| invalid(e.to_string()))?;
    // Unique per call, not just per process: two workers saving the same
    // path concurrently (racing admin snapshots, or one racing the final
    // shutdown save) must not interleave writes into a shared temp file
    // and rename a torn snapshot into place.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(MAGIC)?;
            file.write_all(&(header.len() as u64).to_le_bytes())?;
            file.write_all(&wal::crc32(header.as_bytes()).to_le_bytes())?;
            file.write_all(header.as_bytes())?;
            file.write_all(&snapshot.frames)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    // Each write mints a unique temp name, so leaking it on failure
    // would accumulate litter across retries.
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    File::open(parent_dir(path))?.sync_all()
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    path.parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
}

/// Deletes stale `<snapshot>.tmp.*` temp files next to `path` — the
/// litter a crash mid-[`save`] leaves behind (the in-process cleanup in
/// `save` never runs when the process dies between write and rename).
/// Returns how many were removed. Called at boot, before the first save
/// can race anything. A missing parent directory counts as zero.
pub fn clean_stale_temps(path: &Path) -> io::Result<usize> {
    let parent = parent_dir(path);
    let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
        return Ok(0);
    };
    let prefix = format!("{file_name}.tmp.");
    if !parent.exists() {
        return Ok(0);
    }
    let mut removed = 0;
    for entry in std::fs::read_dir(parent)? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.starts_with(&prefix)) {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// The snapshot path of a WAL directory booted with no explicit one:
/// `<wal-dir>/snapshot.bin`. A `snapshot.json` there, the default name
/// of the JSON formats, is refused like any JSON snapshot: booting past
/// it would serve an empty store and number new rows from 1 into
/// segments that continue that snapshot's sequence.
pub(crate) fn default_path(wal_dir: &Path) -> io::Result<PathBuf> {
    let json = wal_dir.join("snapshot.json");
    if json.exists() {
        return Err(invalid(format!(
            "snapshot {}: {JSON_REFUSED}",
            json.display()
        )));
    }
    Ok(wal_dir.join("snapshot.bin"))
}

/// Loads a format-v3 snapshot file, refusing JSON ones (formats v1, v2).
/// The row frames are checked when [`restore`] decodes them.
pub fn load(path: &Path) -> io::Result<Snapshot> {
    decode(std::fs::read(path)?)
}

/// Parses a snapshot file's bytes (see [`load`]), keeping their buffer
/// as [`Snapshot::frames`].
fn decode(mut bytes: Vec<u8>) -> io::Result<Snapshot> {
    let Some(rest) = bytes.strip_prefix(MAGIC) else {
        return Err(invalid(if bytes.trim_ascii_start().starts_with(b"{") {
            JSON_REFUSED.into()
        } else {
            "not a format-v3 snapshot (bad magic)".into()
        }));
    };
    let truncated = || invalid("snapshot ends inside its header".into());
    let (len, rest) = rest.split_first_chunk::<8>().ok_or_else(truncated)?;
    let (crc, rest) = rest.split_first_chunk::<4>().ok_or_else(truncated)?;
    let header = usize::try_from(u64::from_le_bytes(*len))
        .ok()
        .and_then(|len| rest.get(..len))
        .ok_or_else(truncated)?;
    if wal::crc32(header) != u32::from_le_bytes(*crc) {
        return Err(invalid("snapshot header fails its checksum".into()));
    }
    let text = std::str::from_utf8(header).map_err(|e| invalid(e.to_string()))?;
    let domains =
        serde_json::from_str(text).map_err(|e| invalid(format!("snapshot header: {e}")))?;
    let header_end = bytes.len() - rest.len() + header.len();
    bytes.drain(..header_end);
    Ok(Snapshot {
        domains,
        frames: bytes,
    })
}

/// Restores a snapshot into `domains`: each recorded domain is resolved
/// by name — an existing domain must match the record's kind and shard
/// count (its store must be empty, i.e. freshly booted); a missing one
/// is created with the record's kind/shards and `config` and inserted.
/// Per domain the record's rows are replayed, the served epoch
/// installed, and the refit accumulator resumed so the first
/// post-restart refit is incremental. Restored-but-created domains do
/// **not** have a daemon yet; the server spawns daemons for every domain
/// after restore.
pub fn restore(snapshot: &Snapshot, domains: &DomainSet, config: &RefitConfig) -> io::Result<()> {
    // The row frames, decoded one at a time as their domain replays them.
    let bytes = &snapshot.frames;
    let mut at = 0;
    let mut frames = std::iter::from_fn(|| {
        (at < bytes.len()).then(|| match wal::decode_frame(bytes, at) {
            Ok((record, next)) => {
                at = next;
                Ok(record)
            }
            Err(issue) => {
                at = bytes.len();
                Err(invalid(format!("snapshot rows are damaged: {issue:?}")))
            }
        })
    })
    .peekable();
    for rec in &snapshot.domains {
        let kind: ModelKind = rec
            .kind
            .parse()
            .map_err(|e: crate::model::UnknownModelKind| invalid(e.to_string()))?;
        let domain = match domains.get(&rec.name) {
            Some(existing) => {
                if existing.kind() != kind {
                    return Err(invalid(format!(
                        "snapshot domain `{}` is {} but the configured domain is {}",
                        rec.name,
                        kind,
                        existing.kind()
                    )));
                }
                existing
            }
            None => {
                let created = Domain::new(&rec.name, kind, rec.shards, config);
                domains
                    .insert(Arc::clone(&created))
                    .map_err(|e| invalid(e.to_string()))?;
                created
            }
        };
        // The domain's frames are the next ones in the file (a damaged
        // frame is this domain's error).
        let rows = std::iter::from_fn(|| {
            frames.next_if(|frame| frame.as_ref().map_or(true, |r| r.domain == rec.name))
        });
        restore_domain(rec, kind, &domain, config, rows)?;
    }
    match frames.next() {
        None => Ok(()),
        Some(frame) => Err(invalid(format!(
            "snapshot rows of domain `{}` are out of header order",
            frame?.domain
        ))),
    }
}

fn restore_domain(
    rec: &DomainRec,
    kind: ModelKind,
    domain: &Domain,
    config: &RefitConfig,
    rows: impl Iterator<Item = io::Result<WalRecord>>,
) -> io::Result<()> {
    let store: &ShardedStore = domain.store();
    if store.num_shards() != rec.shards {
        return Err(invalid(format!(
            "snapshot domain `{}` was taken with {} shards but the store has {} — fact ids \
             would not survive the replay",
            rec.name,
            rec.shards,
            store.num_shards()
        )));
    }
    let cells_per_source = match kind {
        ModelKind::Boolean | ModelKind::PositiveOnly => 4,
        ModelKind::RealValued => 6,
    };
    if let Some(acc) = &rec.accumulator {
        if !acc.cells.len().is_multiple_of(cells_per_source) {
            return Err(invalid(format!(
                "domain `{}` accumulator cells come in blocks of {cells_per_source} per \
                 source, got {}",
                rec.name,
                acc.cells.len()
            )));
        }
    }
    for record in rows {
        wal::replay_record(record?, &rec.name, store)
            .map_err(|e| invalid(format!("snapshot domain `{}`: {e}", rec.name)))?;
    }
    if store.accepted_seq() != rec.rows {
        return Err(invalid(format!(
            "snapshot domain `{}` records {} rows but its frames hold {}",
            rec.name,
            rec.rows,
            store.accepted_seq()
        )));
    }
    // Only the rows a refit had folded by save time are marked consumed;
    // the saved `pending` tail was never seen by the saved epoch and must
    // still arm the refit trigger after restart — otherwise served
    // predictions silently exclude data the store visibly holds until
    // some future ingest re-arms the trigger.
    let mut folded = rec.rows.saturating_sub(rec.pending as u64);
    if let Some(acc) = &rec.accumulator {
        // A capture that raced a refit can legally pair an accumulator
        // slightly *newer* than the saved log: a fold that committed
        // between the store read and the state read may cover rows (and
        // even a source) the log never saw. Both mismatches are repaired
        // here rather than rejected — rejecting would make the server
        // unable to boot from its own legitimately-saved snapshot:
        //
        // * the watermark is clamped to the log, so the rows the log is
        //   missing are simply not marked folded (and the larger of the
        //   two folded counts is trusted: the accumulator provably
        //   folded through its watermark), and
        // * cells for sources beyond the log's id space are dropped
        //   (their rows are not in the log either — the source was
        //   interned after the log was read), keeping every remaining
        //   cell attributed to the id the replayed store assigns. The
        //   shed contribution is drift-sized and the next full refit
        //   reconciles it exactly.
        let watermark = acc.watermark.min(rec.rows);
        let mut cells = acc.cells.clone();
        cells.truncate(rec.sources.len() * cells_per_source);
        folded = folded.max(watermark);
        let mut st = domain.refit_state().locked();
        match kind {
            ModelKind::Boolean | ModelKind::PositiveOnly => st.restore(
                StreamingLtm::from_accumulated(
                    config.ltm,
                    ExpectedCounts::from_cells(cells),
                    acc.batches_seen,
                ),
                watermark,
            ),
            ModelKind::RealValued => st.restore_real(
                StreamingRealLtm::from_accumulated(
                    config.real,
                    RealSuffStats::from_cells(cells),
                    acc.batches_seen,
                ),
                watermark,
            ),
        }
    }
    store.consume_pending(usize::try_from(folded).unwrap_or(usize::MAX));
    if store.source_names() != rec.sources {
        return Err(invalid(format!(
            "domain `{}`: replay produced a different source-id assignment than the \
             snapshot records",
            rec.name
        )));
    }
    if let Some(e) = &rec.epoch {
        let predictor = match kind {
            ModelKind::Boolean | ModelKind::PositiveOnly => {
                ServePredictor::Boolean(IncrementalLtm::from_parts(
                    e.phi1.clone(),
                    e.phi0.clone(),
                    BetaPair::new(e.beta_pos, e.beta_neg),
                    e.default_phi1,
                    e.default_phi0,
                ))
            }
            ModelKind::RealValued => {
                let r = e.real.as_ref().ok_or_else(|| {
                    invalid(format!(
                        "domain `{}` is real_valued but its epoch record has no real \
                         predictor parameters",
                        rec.name
                    ))
                })?;
                if !r.cells.len().is_multiple_of(6) {
                    return Err(invalid(format!(
                        "domain `{}` epoch stats cells come in blocks of 6 per source, got {}",
                        rec.name,
                        r.cells.len()
                    )));
                }
                ServePredictor::Real(IncrementalRealLtm::from_parts(
                    NigPrior {
                        mean: r.side0_mean,
                        kappa: r.side0_kappa,
                        a: r.side0_a,
                        b: r.side0_b,
                    },
                    NigPrior {
                        mean: r.side1_mean,
                        kappa: r.side1_kappa,
                        a: r.side1_a,
                        b: r.side1_b,
                    },
                    BetaPair::new(e.beta_pos, e.beta_neg),
                    RealSuffStats::from_cells(r.cells.clone()),
                ))
            }
        };
        domain.predictor().restore(EpochSnapshot {
            epoch: e.epoch,
            predictor,
            max_rhat: e.max_rhat,
            converged_fraction: e.converged_fraction,
            trained_claims: e.trained_claims,
            trained_sources: e.trained_sources,
            shadow: e
                .shadow
                .as_ref()
                .map(|s| Arc::new(restore_shadow(s, e.epoch))),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DEFAULT_DOMAIN;
    use ltm_model::SourceId;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ltm-serve-test-{}-{name}", std::process::id()));
        p
    }

    fn boolean_set(shards: usize) -> DomainSet {
        let set = DomainSet::new();
        set.insert(Domain::new(
            DEFAULT_DOMAIN,
            ModelKind::Boolean,
            shards,
            &RefitConfig::default(),
        ))
        .unwrap();
        set
    }

    #[test]
    fn snapshot_round_trips_store_and_epoch() {
        let set = boolean_set(3);
        let domain = set.default_domain();
        let store = domain.store();
        store.ingest("e0", "a0", "s0");
        store.ingest("e0", "a1", "s1");
        store.ingest("e1", "a0", "s0");
        // Over 1 MiB of rows, so the log spans several frames.
        for i in 0..25_000 {
            store.ingest(&format!("row{i}"), &"a".repeat(40), "s1");
        }
        let mut snap = EpochSnapshot::boot(&RefitConfig::default().ltm.priors);
        snap.predictor = ServePredictor::Boolean(IncrementalLtm::from_parts(
            vec![0.9, 0.4],
            vec![0.05, 0.3],
            BetaPair::new(2.0, 3.0),
            0.5,
            0.1,
        ));
        snap.max_rhat = 1.07;
        snap.trained_claims = 4;
        domain.predictor().publish(snap);

        let path = temp_path("roundtrip.json");
        save(&set, &path).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, capture(&set));
        assert!(wal::decode_segment(&loaded.frames).0.len() > 1);

        let set2 = boolean_set(3);
        restore(&loaded, &set2, &RefitConfig::default()).unwrap();
        let domain2 = set2.default_domain();
        assert_eq!(domain2.store().stats().facts, store.stats().facts);
        assert_eq!(domain2.store().source_names(), store.source_names());
        assert_eq!(
            domain2.store().pending(),
            store.pending(),
            "restore preserves the unfolded tail"
        );

        let before = domain.predictor().load();
        let after = domain2.predictor().load();
        assert_eq!(after.epoch, before.epoch);
        let claims = [(SourceId::new(0), true), (SourceId::new(1), false)];
        assert_eq!(
            after.predictor.predict_fact(&claims),
            before.predictor.predict_fact(&claims),
            "bit-identical predictions after restore"
        );
    }

    #[test]
    fn shadow_epoch_round_trips_and_defaults_to_the_epoch_number() {
        let set = boolean_set(2);
        let domain = set.default_domain();
        domain.store().ingest("e0", "a0", "s0");
        let column = ShadowColumn {
            name: crate::shadow::LTM_METHOD.to_owned(),
            scores: vec![0.8],
            trust: vec![0.9],
        };
        let mut tables = ShadowTables::assemble(vec![0], vec![column]);
        tables.epoch = 3;
        let mut snap = EpochSnapshot::boot(&RefitConfig::default().ltm.priors);
        snap.epoch = 5;
        snap.shadow = Some(Arc::new(tables));
        domain.predictor().restore(snap);

        let path = temp_path("shadow-epoch.bin");
        save(&set, &path).unwrap();
        let mut loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let restored = |snapshot: &Snapshot| {
            let fresh = boolean_set(2);
            restore(snapshot, &fresh, &RefitConfig::default()).unwrap();
            let snap = fresh.default_domain().predictor().load();
            (snap.epoch, snap.shadow.as_ref().map(|t| t.epoch))
        };
        assert_eq!(restored(&loaded), (5, Some(3)));

        // A header written before shadow epochs were recorded lacks the
        // key: the tables restore as the epoch's own.
        let rec = loaded.domains[0]
            .epoch
            .as_mut()
            .and_then(|e| e.shadow.as_mut())
            .unwrap();
        let legacy = serde_json::to_string(&*rec)
            .unwrap()
            .replacen("\"epoch\":3,", "", 1);
        assert!(!legacy.contains("epoch"), "{legacy}");
        *rec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(rec.epoch, None);
        assert_eq!(restored(&loaded), (5, Some(5)));
    }

    #[test]
    fn snapshot_round_trips_a_real_domain() {
        let set = boolean_set(2);
        let cfg = RefitConfig::default();
        set.insert(Domain::new("scores", ModelKind::RealValued, 2, &cfg))
            .unwrap();
        let domain = set.get("scores").unwrap();
        let store = domain.store();
        store.ingest_valued("e0", "a0", "s0", 0.92);
        store.ingest_valued("e0", "a1", "s1", 0.15);
        store.ingest_valued("e1", "a0", "s0", 0.88);

        // A committed fold: real accumulator over the full store.
        let mut streaming = StreamingRealLtm::new(cfg.real);
        for db in store.full_real_databases().batches {
            streaming.try_observe(&db).unwrap();
        }
        let predictor = streaming.predictor();
        let cells_before = streaming.accumulated().cells().to_vec();
        domain
            .refit_state()
            .lock()
            .unwrap()
            .restore_real(streaming, 3);
        store.consume_pending(3);
        let mut snap = EpochSnapshot::boot_real(&cfg.real);
        snap.predictor = ServePredictor::Real(predictor);
        snap.max_rhat = 1.02;
        domain.predictor().publish(snap);
        // …then one more row arrives unfolded.
        store.ingest_valued("e1", "a1", "s1", 0.4);

        let path = temp_path("real-roundtrip.json");
        save(&set, &path).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let rec = loaded.domain("scores").expect("real domain saved");
        assert_eq!(rec.kind, "real_valued");
        let (records, _, _) = wal::decode_segment(&loaded.frames);
        assert_eq!(records[0].rows[0].value, Some(0.92));
        assert_eq!(rec.pending, 1);
        assert_eq!(rec.accumulator.as_ref().unwrap().cells, cells_before);

        // Restore into a fresh set that does NOT pre-configure `scores`:
        // the domain is created from the record.
        let set2 = boolean_set(2);
        restore(&loaded, &set2, &cfg).unwrap();
        let domain2 = set2.get("scores").expect("domain created by restore");
        assert_eq!(domain2.kind(), ModelKind::RealValued);
        assert_eq!(domain2.store().pending(), 1, "unfolded tail stays pending");
        let st = domain2.refit_state().lock().unwrap();
        assert_eq!(st.watermark(), 3);
        assert_eq!(
            st.streaming_real().unwrap().accumulated().cells(),
            &cells_before[..]
        );
        drop(st);
        let claims = [(SourceId::new(0), 0.9), (SourceId::new(1), 0.2)];
        assert_eq!(
            domain2.predictor().load().predictor.predict_real(&claims),
            domain.predictor().load().predictor.predict_real(&claims),
            "bit-identical real predictions after restore"
        );
    }

    #[test]
    fn restore_trusts_the_newer_of_pending_and_accumulator_watermark() {
        // A capture racing a refit can pair an older log view (pending
        // still unconsumed) with a newer accumulator; restore must trust
        // the accumulator's watermark instead of re-arming forever.
        let set = boolean_set(1);
        let domain = set.default_domain();
        let store = domain.store();
        store.ingest("e0", "a0", "s0");
        store.ingest("e1", "a0", "s0");
        let mut snapshot = capture(&set);
        assert_eq!(snapshot.domains[0].pending, 2);
        snapshot.domains[0].accumulator = Some(AccumulatorRec {
            cells: vec![0.0; 4],
            batches_seen: 1,
            watermark: 2,
        });
        let set2 = boolean_set(1);
        restore(&snapshot, &set2, &RefitConfig::default()).unwrap();
        let domain2 = set2.default_domain();
        assert_eq!(
            domain2.store().pending(),
            0,
            "accumulator already folded both rows"
        );
        assert_eq!(domain2.refit_state().lock().unwrap().watermark(), 2);
    }

    #[test]
    fn restore_leaves_unfolded_tail_pending() {
        let set = boolean_set(2);
        let domain = set.default_domain();
        let store = domain.store();
        store.ingest("e0", "a0", "s0");
        store.ingest("e0", "a1", "s1");
        store.ingest("e1", "a0", "s0");
        // A refit folded the first three rows…
        store.consume_pending(3);
        // …then two more arrived before the save.
        store.ingest("e2", "a0", "s1");
        store.ingest("e2", "a1", "s0");
        assert_eq!(store.pending(), 2);

        let snapshot = capture(&set);
        assert_eq!(snapshot.domains[0].pending, 2);
        let set2 = boolean_set(2);
        restore(&snapshot, &set2, &RefitConfig::default()).unwrap();
        assert_eq!(
            set2.default_domain().store().pending(),
            2,
            "the tail the saved epoch never saw must re-arm the refit trigger"
        );
    }

    #[test]
    fn restore_rejects_ragged_accumulator_cells() {
        let set = boolean_set(1);
        set.default_domain().store().ingest("e", "a", "s");
        let mut snapshot = capture(&set);
        snapshot.domains[0].accumulator = Some(AccumulatorRec {
            cells: vec![0.0; 6],
            batches_seen: 1,
            watermark: 1,
        });
        let err = restore(&snapshot, &boolean_set(1), &RefitConfig::default()).unwrap_err();
        assert!(err.to_string().contains("blocks of 4"), "{err}");
    }

    #[test]
    fn restore_repairs_an_accumulator_newer_than_the_log() {
        // A capture racing a refit can save an accumulator whose
        // watermark exceeds the log and whose cells cover a source the
        // log never interned. Restore must repair (clamp + truncate),
        // not reject — the snapshot was legitimately saved, and a boot
        // failure would strand the server until an operator deletes it.
        let set = boolean_set(1);
        set.default_domain().store().ingest("e", "a", "s");
        let mut snapshot = capture(&set);
        snapshot.domains[0].accumulator = Some(AccumulatorRec {
            // Two sources' cells, but the log only interns one.
            cells: vec![1.0; 8],
            batches_seen: 3,
            watermark: 99,
        });
        let set2 = boolean_set(1);
        restore(&snapshot, &set2, &RefitConfig::default()).unwrap();
        let domain2 = set2.default_domain();
        let st = domain2.refit_state().lock().unwrap();
        assert_eq!(st.watermark(), 1, "watermark clamped to the log length");
        let resumed = st.streaming().unwrap();
        assert_eq!(
            resumed.accumulated().num_sources(),
            1,
            "cells for the phantom source are dropped"
        );
        drop(st);
        assert_eq!(domain2.store().pending(), 0);
        // The repaired accumulator folds incrementally again — no
        // SourceSpaceShrunk poisoning.
        let store2 = domain2.store();
        let delta = store2.shard_databases_since(1);
        assert!(delta.batches.is_empty());
        store2.ingest("e2", "a", "s");
        assert_eq!(store2.shard_databases_since(1).delta_facts, 1);
    }

    #[test]
    fn clean_stale_temps_removes_only_this_snapshots_litter() {
        let dir = temp_path("stale-temps-dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        std::fs::write(&path, "{}").unwrap();
        std::fs::write(dir.join("snap.json.tmp.1234.0"), "torn").unwrap();
        std::fs::write(dir.join("snap.json.tmp.1234.7"), "torn").unwrap();
        std::fs::write(dir.join("other.json.tmp.1.0"), "not ours").unwrap();
        assert_eq!(clean_stale_temps(&path).unwrap(), 2);
        assert!(path.exists(), "the snapshot itself is untouched");
        assert!(dir.join("other.json.tmp.1.0").exists());
        // Idempotent, and fine on a directory with nothing to clean.
        assert_eq!(clean_stale_temps(&path).unwrap(), 0);
        assert_eq!(
            clean_stale_temps(&dir.join("missing/deep.json")).unwrap(),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_atomic_over_an_existing_snapshot() {
        let set = boolean_set(1);
        set.default_domain().store().ingest("e", "a", "s");
        let path = temp_path("atomic.json");
        std::fs::write(&path, "previous good snapshot").unwrap();
        save(&set, &path).unwrap();
        let reloaded = load(&path).unwrap();
        assert_eq!(reloaded, capture(&set));
        // No temp file left behind in the target directory.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&stem) && n != &stem)
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_corrupt_it() {
        let set = Arc::new(boolean_set(1));
        set.default_domain().store().ingest("e", "a", "s");
        let path = Arc::new(temp_path("concurrent-save.json"));
        let savers: Vec<_> = (0..8)
            .map(|_| {
                let set = Arc::clone(&set);
                let path = Arc::clone(&path);
                std::thread::spawn(move || save(&set, &path).unwrap())
            })
            .collect();
        for s in savers {
            s.join().unwrap();
        }
        // Whichever save renamed last, the file must be a whole snapshot.
        let reloaded = load(&path).unwrap();
        assert_eq!(reloaded, capture(&set));
        std::fs::remove_file(&*path).ok();
    }

    #[test]
    fn restore_refuses_a_frame_repeating_an_accepted_row() {
        let set = boolean_set(1);
        set.default_domain().store().ingest("e", "a", "s");
        let mut snapshot = capture(&set);
        // A second, CRC-valid frame that repeats row 1 as row 2.
        snapshot.frames.extend(wal::encode_record(&WalRecord {
            domain: DEFAULT_DOMAIN.into(),
            first_seq: 2,
            rows: set.default_domain().store().log_snapshot(),
        }));
        snapshot.domains[0].rows = 2;
        let err = restore(&snapshot, &boolean_set(1), &RefitConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("as duplicates"), "{err}");
    }

    #[test]
    fn restore_rejects_shard_count_mismatch() {
        let set = boolean_set(2);
        set.default_domain().store().ingest("e", "a", "s");
        let snapshot = capture(&set);
        let err = restore(&snapshot, &boolean_set(3), &RefitConfig::default()).unwrap_err();
        assert!(err.to_string().contains("shards"), "{err}");
    }

    #[test]
    fn restore_rejects_kind_mismatch() {
        let set = DomainSet::new();
        set.insert(Domain::new(
            DEFAULT_DOMAIN,
            ModelKind::RealValued,
            1,
            &RefitConfig::default(),
        ))
        .unwrap();
        let snapshot = capture(&set);
        // Restoring a real-valued `default` into a boolean-configured
        // server must fail loudly, not silently mix predictors.
        let err = restore(&snapshot, &boolean_set(1), &RefitConfig::default()).unwrap_err();
        assert!(err.to_string().contains("real_valued"), "{err}");
    }

    #[test]
    fn epoch_zero_saves_without_epoch_record() {
        let set = boolean_set(1);
        let snapshot = capture(&set);
        assert!(snapshot.domains[0].epoch.is_none());
        assert!(snapshot.domains[0].accumulator.is_none());
    }

    #[test]
    fn load_rejects_future_versions() {
        let path = temp_path("version.json");
        std::fs::write(&path, "{\"version\":9,\"domains\":[]}").unwrap();
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn damaged_or_foreign_files_fail_to_load_or_restore() {
        let set = boolean_set(2);
        let cfg = RefitConfig::default();
        for (e, a, s) in [("e0", "a0", "s0"), ("e0", "a1", "s1"), ("e1", "a0", "s1")] {
            set.default_domain().store().ingest(e, a, s);
        }
        let scores = Domain::new("scores", ModelKind::RealValued, 2, &cfg);
        scores.store().ingest_valued("r0", "a0", "s0", 0.92);
        scores.store().ingest_valued("r0", "a1", "s1", 0.15);
        set.insert(scores).unwrap();
        let path = temp_path("damage.bin");
        save(&set, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let restored = |bytes: &[u8]| restore(&decode(bytes.to_vec())?, &boolean_set(2), &cfg);
        restored(&bytes).expect("the undamaged file restores");
        let refused = |bytes: &[u8], what: &str| {
            let err = restored(bytes).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        };
        for cut in 0..bytes.len() {
            refused(&bytes[..cut], &format!("prefix of {cut} bytes"));
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            refused(&flipped, &format!("flip at byte {at}"));
        }
        refused(b"{\"version\":2,\"domains\":[]}", "a v2 JSON file");
        let mut magic = bytes.clone();
        magic[7] = b'4';
        refused(&magic, "a wrong version magic");
    }
}
