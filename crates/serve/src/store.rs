//! The sharded in-memory claim store.
//!
//! Triples land in one of `N` shards chosen by hashing the **entity**
//! name. Partitioning by entity (rather than by the full fact key) keeps
//! every fact of an entity — and therefore the entity's whole
//! mutual-exclusion group — inside one shard, so each shard can generate
//! Definition-3 negative claims locally: a source covers an entity iff it
//! asserted at least one triple about it, and that coverage is never
//! split across shards.
//!
//! Each shard is an append log of deduplicated rows plus incrementally
//! maintained coverage indexes; [`ShardedStore::full_databases_with_ids`] rebuilds
//! each shard's CSR [`ClaimDb`] from the log when the refit daemon asks
//! for it, and [`ShardedStore::shard_databases_since`] extracts only the
//! **delta** — facts touched since a fold watermark — so an incremental
//! refit costs `O(Δ)` instead of `O(store)`. **Source ids are global** —
//! interned once in [`ShardedStore`]-level state — because source quality
//! is the cross-shard signal the whole model exists to learn; every shard
//! database is emitted over the full global source-id space so their
//! expected counts can be folded into one accumulator.
//!
//! Delta tracking: every accepted triple gets a monotonically increasing
//! sequence number (its 1-based position in the replay log, so replaying
//! a snapshot reproduces the numbering exactly), and each shard keeps a
//! dirty map from local fact id to the last sequence that changed the
//! fact's Definition-3 claim row. Two kinds of ingest dirty a fact:
//!
//! * a triple asserting the fact itself (a negative row flips positive,
//!   or a brand-new fact appears), and
//! * a triple from a source that **newly covers the fact's entity** —
//!   Definition 3 then adds a retroactive negative row to *every* fact of
//!   that entity, so they are all marked dirty even though their own
//!   triples are old.
//!
//! Lock discipline: the replay `log` (Mutex) is the outermost **ingest-
//! order lock** — ingest holds it from before any id is minted until the
//! log entry is appended, then `sources` (RwLock), the shard (Mutex), and
//! the fact `registry` (RwLock) nest inside it in that order. Holding the
//! log across the whole ingest is what makes id minting and log append
//! one atomic step: without it, two racing ingests on different shards
//! could mint source/fact ids in one order and append log entries in the
//! other, and a snapshot replay (which is sequential) would then assign
//! different ids than the live server handed out. Readers that need the
//! registry copy the entry out and release it *before* touching a shard,
//! so no lock cycle exists.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use ltm_core::{RealClaim, RealClaimDb};
use ltm_model::interner::Interner;
use ltm_model::{AttrId, Claim, ClaimDb, EntityId, Fact, FactId, SourceId};

use crate::sync::{LockExt, RwLockExt};

/// One accepted row of the replay log: the triple plus the optional real
/// value carried by valued ([`crate::model::ModelKind::RealValued`])
/// domains. Replaying the log through a fresh store with the same shard
/// count reproduces every id assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Entity name.
    pub entity: String,
    /// Attribute name.
    pub attr: String,
    /// Source name.
    pub source: String,
    /// Claim value (`None` for boolean-domain rows).
    pub value: Option<f64>,
}

/// Where a globally-numbered fact lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactLocation {
    /// Shard index.
    pub shard: usize,
    /// Fact index local to that shard's [`ClaimDb`].
    pub local: u32,
}

/// Outcome of ingesting one triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The triple introduced a brand-new fact (global id attached).
    NewFact(u64),
    /// The triple added a new positive row to an existing fact.
    NewRow(u64),
    /// The triple was already present (Definition 1 deduplication).
    Duplicate(u64),
}

impl IngestOutcome {
    /// The global fact id the triple resolved to.
    pub fn fact_id(self) -> u64 {
        match self {
            IngestOutcome::NewFact(id)
            | IngestOutcome::NewRow(id)
            | IngestOutcome::Duplicate(id) => id,
        }
    }

    /// Whether the triple was accepted (not a duplicate).
    pub fn accepted(self) -> bool {
        !matches!(self, IngestOutcome::Duplicate(_))
    }
}

/// The journal callback [`ShardedStore::ingest_batch`] runs under the
/// ingest-order lock: `(first_seq, accepted_rows)` → buffered write.
pub type JournalFn<'a> = &'a (dyn Fn(u64, &[LogRecord]) -> std::io::Result<()> + 'a);

/// Outcome of one batch ingest ([`ShardedStore::ingest_batch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Rows accepted (not duplicates).
    pub accepted: u64,
    /// Rows rejected as Definition-1 duplicates.
    pub duplicates: u64,
    /// Accepted rows that introduced a brand-new fact.
    pub new_facts: u64,
    /// Sequence number of the first accepted row (the batch's accepted
    /// rows occupy `first_seq .. first_seq + accepted` contiguously).
    /// Meaningless when `accepted == 0`.
    pub first_seq: u64,
}

/// A resolved fact: names plus its current claim list (global source ids).
#[derive(Debug, Clone)]
pub struct FactView {
    /// Global fact id.
    pub id: u64,
    /// Entity name.
    pub entity: String,
    /// Attribute name.
    pub attr: String,
    /// One claim per source covering the entity, in ascending source id.
    pub claims: Vec<(SourceId, bool)>,
}

/// A resolved fact in a valued (real-valued) domain: like [`FactView`]
/// but claims carry their real value — a Definition-3 negative row reads
/// `0.0`, an asserted row without an explicit value reads `1.0`.
#[derive(Debug, Clone)]
pub struct RealFactView {
    /// Global fact id.
    pub id: u64,
    /// Entity name.
    pub entity: String,
    /// Attribute name.
    pub attr: String,
    /// One `(source, value)` claim per source covering the entity, in
    /// ascending source id.
    pub claims: Vec<(SourceId, f64)>,
}

/// Aggregate store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Shard count.
    pub shards: usize,
    /// Distinct facts across all shards.
    pub facts: usize,
    /// Claims (positive + generated negative) across all shards.
    pub claims: usize,
    /// Positive claims (accepted raw rows).
    pub positive_claims: usize,
    /// Global distinct sources.
    pub sources: usize,
    /// Accepted rows since the last [`ShardedStore::consume_pending`].
    pub pending: usize,
    /// Lifetime rows rejected as exact `(entity, attr, source)`
    /// duplicates (the ingest dedup counter).
    pub duplicate_rows: u64,
}

/// One extraction from the store: per-shard batches over the global
/// source-id space, plus the fold watermark the batches cover. Returned
/// by the full rebuilds ([`ShardedStore::full_databases_with_ids`],
/// [`ShardedStore::full_real_databases`]) and the delta paths
/// ([`ShardedStore::shard_databases_since`],
/// [`ShardedStore::real_databases_since`]); the batch type is
/// [`ClaimDb`] for boolean extractions and [`RealClaimDb`] for valued
/// ones.
#[derive(Debug)]
pub struct StoreDeltaOf<B> {
    /// Per-shard batches; shards contributing no facts are omitted.
    pub batches: Vec<B>,
    /// Accepted-row sequence covered once these batches are folded — the
    /// caller's next `*_databases_since` watermark.
    pub watermark: u64,
    /// Facts contained in the batches.
    pub delta_facts: usize,
    /// Claims contained in the batches.
    pub delta_claims: usize,
    /// Claims the whole store implies (all shards, not just the delta).
    pub total_claims: usize,
}

/// Boolean extraction (CSR [`ClaimDb`] batches).
pub type StoreDelta = StoreDeltaOf<ClaimDb>;

/// Valued extraction ([`RealClaimDb`] batches).
pub type RealStoreDelta = StoreDeltaOf<RealClaimDb>;

/// One shard: a deduplicated row log with coverage indexes.
#[derive(Debug, Default)]
struct Shard {
    entities: Interner<EntityId>,
    attrs: Interner<AttrId>,
    /// Deduplication set over `(entity, attr, source)` (local entity/attr
    /// ids, global source id).
    rows: HashSet<(u32, u32, u32)>,
    /// Claim values by row, populated only for valued ingests
    /// ([`ShardedStore::ingest_valued`]). Definition-1 dedup applies to
    /// values too: the first accepted value wins, later re-assertions of
    /// the same triple are duplicates regardless of value.
    values: HashMap<(u32, u32, u32), f64>,
    /// `(entity, attr, global fact id)` per local fact, in creation order —
    /// local fact id is the index.
    facts: Vec<(u32, u32, u64)>,
    fact_index: HashMap<(u32, u32), u32>,
    /// Per local entity: sorted global source ids covering it.
    cover: Vec<Vec<u32>>,
    /// Per local entity: local fact ids, in creation order.
    entity_facts: Vec<Vec<u32>>,
    /// Local fact id → last accepted-row sequence that changed its
    /// Definition-3 claim row (directly or via retroactive coverage).
    /// Entries at or below the fold watermark are pruned on extraction.
    dirty: HashMap<u32, u64>,
    /// Running `Σ per entity: facts × covering sources`, maintained on
    /// ingest so the delta path reads it in O(1) under the shard lock
    /// instead of rescanning every entity per refit.
    claims: usize,
}

impl Shard {
    /// Claims of local fact `f` per Definition 3, ascending source id.
    fn claims_of(&self, f: u32) -> Vec<(SourceId, bool)> {
        // analyzer: allow(panic-index) -- f is a local fact id minted by this shard
        let (e, a, _) = self.facts[f as usize];
        // analyzer: allow(panic-index) -- cover is grown to every interned entity on ingest
        self.cover[e as usize]
            .iter()
            .map(|&s| (SourceId::new(s), self.rows.contains(&(e, a, s))))
            .collect()
    }

    /// The real value of row `(e, a, s)` under the valued-domain reading:
    /// a missing row (Definition-3 negative) is `0.0`, an asserted row
    /// without an explicit value is `1.0`.
    fn value_of(&self, e: u32, a: u32, s: u32) -> f64 {
        if self.rows.contains(&(e, a, s)) {
            self.values.get(&(e, a, s)).copied().unwrap_or(1.0)
        } else {
            0.0
        }
    }

    /// Valued claims of local fact `f`, ascending source id.
    fn real_claims_of(&self, f: u32) -> Vec<(SourceId, f64)> {
        // analyzer: allow(panic-index) -- f is a local fact id minted by this shard
        let (e, a, _) = self.facts[f as usize];
        // analyzer: allow(panic-index) -- cover is grown to every interned entity on ingest
        self.cover[e as usize]
            .iter()
            .map(|&s| (SourceId::new(s), self.value_of(e, a, s)))
            .collect()
    }

    /// Total claims the shard currently implies (Σ per entity:
    /// facts × covering sources) — an O(1) read of the counter ingest
    /// maintains.
    fn num_claims(&self) -> usize {
        self.claims
    }

    /// Rebuilds the shard as a CSR [`ClaimDb`] over `num_sources` global
    /// source ids.
    fn to_claim_db(&self, num_sources: usize) -> ClaimDb {
        let facts: Vec<Fact> = self
            .facts
            .iter()
            .map(|&(e, a, _)| Fact {
                entity: EntityId::new(e),
                attr: AttrId::new(a),
            })
            .collect();
        let mut claims = Vec::with_capacity(self.num_claims());
        for (f, &(e, a, _)) in self.facts.iter().enumerate() {
            // analyzer: allow(panic-index) -- cover is grown to every interned entity on ingest
            for &s in &self.cover[e as usize] {
                claims.push(Claim {
                    fact: FactId::from_usize(f),
                    source: SourceId::new(s),
                    observation: self.rows.contains(&(e, a, s)),
                });
            }
        }
        ClaimDb::from_parts(facts, claims, num_sources)
    }

    /// Rebuilds the shard as a [`RealClaimDb`] over `num_sources` global
    /// source ids (the valued-domain analogue of
    /// [`Shard::to_claim_db`]): every covering source contributes one
    /// valued claim per fact, negatives at `0.0`.
    fn to_real_claim_db(&self, num_sources: usize) -> RealClaimDb {
        let mut claims = Vec::with_capacity(self.num_claims());
        for (f, &(e, a, _)) in self.facts.iter().enumerate() {
            // analyzer: allow(panic-index) -- cover is grown to every interned entity on ingest
            for &s in &self.cover[e as usize] {
                claims.push(RealClaim {
                    fact: FactId::from_usize(f),
                    source: SourceId::new(s),
                    value: self.value_of(e, a, s),
                });
            }
        }
        RealClaimDb::new(self.facts.len(), num_sources, claims)
    }

    /// The local fact ids dirtied in the sequence window `(watermark,
    /// upto]`, sorted for a deterministic batch layout, or `None` when
    /// the window is clean.
    fn dirty_in_window(&self, watermark: u64, upto: u64) -> Option<Vec<u32>> {
        let mut selected: Vec<u32> = self
            .dirty
            .iter()
            .filter(|&(_, &seq)| seq > watermark && seq <= upto)
            .map(|(&f, _)| f)
            .collect();
        if selected.is_empty() {
            return None;
        }
        // Deterministic batch layout regardless of hash-map iteration.
        selected.sort_unstable();
        Some(selected)
    }

    /// Raw `(facts, claims)` parts for the local facts dirtied in the
    /// sequence window `(watermark, upto]`, or `None` when the window is
    /// clean. Claims use batch-local fact indices and global source ids;
    /// the caller builds the [`ClaimDb`] after releasing the shard lock
    /// (the CSR width must be read with no shard lock held — see
    /// [`ShardedStore::shard_databases_since`]).
    fn delta_parts(&self, watermark: u64, upto: u64) -> Option<(Vec<Fact>, Vec<Claim>)> {
        let selected = self.dirty_in_window(watermark, upto)?;
        let mut facts = Vec::with_capacity(selected.len());
        let mut claims = Vec::new();
        for (i, &lf) in selected.iter().enumerate() {
            // analyzer: allow(panic-index) -- dirty_in_window only yields local fact ids of this shard
            let (e, a, _) = self.facts[lf as usize];
            facts.push(Fact {
                entity: EntityId::new(e),
                attr: AttrId::new(a),
            });
            // analyzer: allow(panic-index) -- cover is grown to every interned entity on ingest
            for &s in &self.cover[e as usize] {
                claims.push(Claim {
                    fact: FactId::from_usize(i),
                    source: SourceId::new(s),
                    observation: self.rows.contains(&(e, a, s)),
                });
            }
        }
        Some((facts, claims))
    }

    /// Valued-domain [`Shard::delta_parts`]: `(fact count, claims)` for
    /// the dirty window, claims carrying real values.
    fn real_delta_parts(&self, watermark: u64, upto: u64) -> Option<(usize, Vec<RealClaim>)> {
        let selected = self.dirty_in_window(watermark, upto)?;
        let mut claims = Vec::new();
        for (i, &lf) in selected.iter().enumerate() {
            // analyzer: allow(panic-index) -- dirty_in_window only yields local fact ids of this shard
            let (e, a, _) = self.facts[lf as usize];
            // analyzer: allow(panic-index) -- cover is grown to every interned entity on ingest
            for &s in &self.cover[e as usize] {
                claims.push(RealClaim {
                    fact: FactId::from_usize(i),
                    source: SourceId::new(s),
                    value: self.value_of(e, a, s),
                });
            }
        }
        Some((selected.len(), claims))
    }
}

/// Hash-partitioned claim store. See the module docs for the sharding
/// scheme and lock discipline.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Mutex<Shard>>,
    sources: RwLock<Interner<SourceId>>,
    registry: RwLock<Vec<FactLocation>>,
    /// Accepted rows in arrival order — replaying this log through a
    /// fresh store with the same shard count reproduces every id
    /// assignment (the snapshot-restore invariant). Doubles as the
    /// ingest-order lock: see the module docs.
    log: Mutex<Vec<LogRecord>>,
    pending: AtomicUsize,
    /// Mirror of `log.len()` maintained under the ingest-order lock, so
    /// extraction paths holding shard locks can read the accepted-row
    /// sequence without touching the log mutex (shard → log would invert
    /// the ingest lock order and deadlock).
    seq: AtomicU64,
    /// Lifetime count of rows rejected as exact duplicates, feeding the
    /// ingest dedup-rate in `/stats` and `/metrics`.
    duplicate_rows: AtomicU64,
}

impl ShardedStore {
    /// Creates an empty store with `shards` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            sources: RwLock::new(Interner::new()),
            registry: RwLock::new(Vec::new()),
            log: Mutex::new(Vec::new()),
            pending: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            duplicate_rows: AtomicU64::new(0),
        }
    }

    /// Shard index for an entity name.
    fn shard_of(&self, entity: &str) -> usize {
        let mut h = DefaultHasher::new();
        entity.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Interns a source name globally, returning its id.
    fn intern_source(&self, name: &str) -> SourceId {
        if let Some(id) = self.sources.read_locked().get(name) {
            return id;
        }
        self.sources.write_locked().intern(name)
    }

    /// Resolves a source name to its global id, if known.
    pub fn source_id(&self, name: &str) -> Option<SourceId> {
        self.sources.read_locked().get(name)
    }

    /// Global source names in id order.
    pub fn source_names(&self) -> Vec<String> {
        self.sources
            .read_locked()
            .iter()
            .map(|(_, n)| n.to_owned())
            .collect()
    }

    /// Number of distinct sources interned so far.
    pub fn num_sources(&self) -> usize {
        self.sources.read_locked().len()
    }

    /// Ingests one `(entity, attribute, source)` triple.
    pub fn ingest(&self, entity: &str, attr: &str, source: &str) -> IngestOutcome {
        self.ingest_record(entity, attr, source, None)
    }

    /// Ingests one valued `(entity, attribute, source, value)` row — the
    /// real-valued-domain ingest path. `value` must be finite (the HTTP
    /// layer rejects non-finite values with a 400 before they reach the
    /// store).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on a non-finite value.
    pub fn ingest_valued(
        &self,
        entity: &str,
        attr: &str,
        source: &str,
        value: f64,
    ) -> IngestOutcome {
        debug_assert!(value.is_finite(), "claim value must be finite");
        self.ingest_record(entity, attr, source, Some(value))
    }

    /// Ingests a batch of rows under **one** acquisition of the
    /// ingest-order lock, optionally journaling the accepted rows before
    /// the lock is released. The rows move into the log; a duplicate is
    /// dropped. Live ingest, WAL replay and snapshot restore all enter
    /// the store here.
    ///
    /// Holding the lock across the batch gives the accepted rows
    /// contiguous sequence numbers starting at
    /// [`BatchOutcome::first_seq`], and running `journal` (the WAL
    /// append) *inside* the lock guarantees journal-record order equals
    /// sequence order — recovery is then an exact prefix replay. The
    /// journal gets `(first_seq, accepted_rows)` and should only write
    /// (buffered); fsync belongs after this returns, off the ingest lock
    /// (see [`crate::wal::DomainWal::sync_for_ack`]).
    ///
    /// If the journal fails, the rows are **already in memory** (and
    /// counted as pending), with their sequence numbers consumed; the
    /// error is returned so the caller can refuse to ack. The journal
    /// implementation must therefore not *drop* the failed record — a
    /// later record journaled at a higher `first_seq` would leave a
    /// sequence gap that recovery rightly refuses to replay past.
    /// [`crate::wal::DomainWal::append_batch`] keeps the failed frame in
    /// a backlog and re-journals it ahead of any later frame; the
    /// client's retry deduplicates in memory and is acked only once that
    /// backlog has reached disk (see [`crate::domain::Domain::ingest_batch`]).
    pub fn ingest_batch(
        &self,
        rows: Vec<LogRecord>,
        journal: Option<JournalFn<'_>>,
    ) -> std::io::Result<BatchOutcome> {
        let mut log = self.log.locked();
        let start = log.len();
        let mut out = BatchOutcome {
            first_seq: start as u64 + 1,
            ..BatchOutcome::default()
        };
        for row in rows {
            match self.ingest_locked(&mut log, row) {
                IngestOutcome::Duplicate(_) => out.duplicates += 1,
                IngestOutcome::NewFact(_) => {
                    out.new_facts += 1;
                    out.accepted += 1;
                }
                IngestOutcome::NewRow(_) => out.accepted += 1,
            }
        }
        // The batch's accepted rows are exactly what it appended to the
        // log, so the journal encodes them from there, uncopied.
        if let Some(journal) = journal.filter(|_| out.accepted > 0) {
            journal(out.first_seq, log.get(start..).unwrap_or_default())?;
        }
        Ok(out)
    }

    fn ingest_record(
        &self,
        entity: &str,
        attr: &str,
        source: &str,
        value: Option<f64>,
    ) -> IngestOutcome {
        // Built before the lock: the allocations don't need serialising,
        // only id minting and the append do.
        let entry = LogRecord {
            entity: entity.to_owned(),
            attr: attr.to_owned(),
            source: source.to_owned(),
            value,
        };
        // Ingest-order lock: held across id minting AND the log append so
        // replay order can never disagree with id-assignment order (the
        // snapshot-restore invariant). Serialises ingest; reads and refit
        // rebuilds never take it.
        let mut log = self.log.locked();
        self.ingest_locked(&mut log, entry)
    }

    /// The ingest body, with the ingest-order lock already held by the
    /// caller (single-row ingest takes it per row; [`Self::ingest_batch`]
    /// holds it across a whole batch so the batch's accepted rows get
    /// contiguous sequence numbers and can be journaled as one record).
    fn ingest_locked(&self, log: &mut Vec<LogRecord>, entry: LogRecord) -> IngestOutcome {
        let (entity, attr, source, value) =
            (&entry.entity, &entry.attr, &entry.source, entry.value);
        let s = self.intern_source(source).raw();
        let shard_idx = self.shard_of(entity);
        // analyzer: allow(panic-index) -- shard_of reduces the hash modulo shards.len()
        let mut shard = self.shards[shard_idx].locked();
        let e = shard.entities.intern(entity).raw();
        let a = shard.attrs.intern(attr).raw();
        while shard.cover.len() <= e as usize {
            shard.cover.push(Vec::new());
            shard.entity_facts.push(Vec::new());
        }

        if !shard.rows.insert((e, a, s)) {
            // analyzer: allow(panic-index) -- a row in `rows` implies its fact was indexed on first insert
            let local = shard.fact_index[&(e, a)];
            self.duplicate_rows.fetch_add(1, Ordering::Relaxed);
            // analyzer: allow(panic-index) -- fact_index values are indices into facts
            return IngestOutcome::Duplicate(shard.facts[local as usize].2);
        }
        if let Some(v) = value {
            shard.values.insert((e, a, s), v);
        }
        // analyzer: allow(panic-index) -- cover was grown past e by the loop above
        let newly_covering = match shard.cover[e as usize].binary_search(&s) {
            Err(pos) => {
                // analyzer: allow(panic-index) -- cover was grown past e by the loop above
                shard.cover[e as usize].insert(pos, s);
                // One new negative-or-positive row per existing fact of
                // the entity (the asserted fact, if new, is counted when
                // it is created below, over the already-grown cover).
                // analyzer: allow(panic-index) -- entity_facts is grown in lockstep with cover
                shard.claims += shard.entity_facts[e as usize].len();
                true
            }
            Ok(_) => false,
        };

        let (global, new_fact, local) = match shard.fact_index.get(&(e, a)) {
            // analyzer: allow(panic-index) -- fact_index values are indices into facts
            Some(&local) => (shard.facts[local as usize].2, false, local),
            None => {
                // New fact: assign the next global id. Registry is only
                // ever locked while a shard lock is held (never the other
                // way round), so this nesting cannot deadlock.
                let mut registry = self.registry.write_locked();
                let global = registry.len() as u64;
                let local = shard.facts.len() as u32;
                registry.push(FactLocation {
                    shard: shard_idx,
                    local,
                });
                drop(registry);
                shard.facts.push((e, a, global));
                shard.fact_index.insert((e, a), local);
                // analyzer: allow(panic-index) -- entity_facts is grown in lockstep with cover
                shard.entity_facts[e as usize].push(local);
                // analyzer: allow(panic-index) -- cover was grown past e by the loop above
                shard.claims += shard.cover[e as usize].len();
                (global, true, local)
            }
        };

        // Dirty marking for delta refits. The sequence is this row's
        // 1-based replay-log position (stable under snapshot replay). A
        // source newly covering the entity retroactively adds a
        // Definition-3 negative row to every fact of the entity, so they
        // are all dirtied; otherwise only the asserted fact changed.
        let seq = log.len() as u64 + 1;
        let sh = &mut *shard;
        if newly_covering {
            // analyzer: allow(panic-index) -- entity_facts is grown in lockstep with cover
            for &lf in &sh.entity_facts[e as usize] {
                sh.dirty.insert(lf, seq);
            }
        } else {
            sh.dirty.insert(local, seq);
        }

        log.push(entry);
        // Published while the ingest-order and shard locks are still
        // held: a reader that acquires this shard's lock afterwards sees
        // every mutation numbered at or below the sequence it reads.
        self.seq.store(seq, Ordering::Release);
        self.pending.fetch_add(1, Ordering::Relaxed);
        if new_fact {
            IngestOutcome::NewFact(global)
        } else {
            IngestOutcome::NewRow(global)
        }
    }

    /// Resolves a global fact id to its names and current claim list.
    pub fn fact(&self, id: u64) -> Option<FactView> {
        let loc = *self.registry.read_locked().get(usize::try_from(id).ok()?)?;
        // Registry lock is released here; only then is the shard locked.
        // analyzer: allow(panic-index) -- registry entries record the shard index that minted them
        let shard = self.shards[loc.shard].locked();
        let &(e, a, global) = shard.facts.get(loc.local as usize)?;
        debug_assert_eq!(global, id);
        Some(FactView {
            id,
            entity: shard.entities.resolve(EntityId::new(e)).to_owned(),
            attr: shard.attrs.resolve(AttrId::new(a)).to_owned(),
            claims: shard.claims_of(loc.local),
        })
    }

    /// Resolves a global fact id to its names and valued claim list (the
    /// real-valued-domain sibling of [`ShardedStore::fact`]).
    pub fn fact_real(&self, id: u64) -> Option<RealFactView> {
        let loc = *self.registry.read_locked().get(usize::try_from(id).ok()?)?;
        // analyzer: allow(panic-index) -- registry entries record the shard index that minted them
        let shard = self.shards[loc.shard].locked();
        let &(e, a, global) = shard.facts.get(loc.local as usize)?;
        debug_assert_eq!(global, id);
        Some(RealFactView {
            id,
            entity: shard.entities.resolve(EntityId::new(e)).to_owned(),
            attr: shard.attrs.resolve(AttrId::new(a)).to_owned(),
            claims: shard.real_claims_of(loc.local),
        })
    }

    /// Resolves an `(entity, attribute)` name pair to its global fact id,
    /// if the fact has been ingested. This is the label-join used by
    /// `/eval`: ground-truth labels arrive as names and are matched to
    /// the shadow tables' global-id rows through this lookup.
    pub fn fact_id_by_name(&self, entity: &str, attr: &str) -> Option<u64> {
        // analyzer: allow(panic-index) -- shard_of reduces the hash modulo shards.len()
        let shard = self.shards[self.shard_of(entity)].locked();
        let e = shard.entities.get(entity)?;
        let a = shard.attrs.get(attr)?;
        let local = *shard
            .fact_index
            .get(&(e.index() as u32, a.index() as u32))?;
        shard.facts.get(local as usize).map(|&(_, _, g)| g)
    }

    /// Accepted-row sequence: the number of triples accepted so far
    /// (equal to the replay-log length, maintained without the log lock).
    pub fn accepted_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Rebuilds every non-empty shard as a [`ClaimDb`] over the global
    /// source-id space — the **full** (reconciliation) extraction — plus,
    /// per batch, the global fact id of every batch row (batch fact index
    /// `i` ↔ `ids[i]`). A full refit folds the batches and fits the shadow
    /// baselines on the same extraction, whose score tables are keyed by
    /// global fact id so `/eval`, `/stats` agreement, and snapshot
    /// persistence all address the same rows.
    ///
    /// Every shard lock is acquired *before* the source count and the
    /// accepted-row sequence are read: ingest interns a triple's source
    /// and bumps the sequence before releasing its shard lock, so once
    /// all shards are held, no stored row can reference a source id at or
    /// beyond `num_sources()` and every row numbered at or below the
    /// returned watermark is present in the batches. Ingestion stalls
    /// only for the rebuild itself, never for the fit that follows.
    pub fn full_databases_with_ids(&self) -> (StoreDelta, Vec<Vec<u64>>) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.locked()).collect();
        let watermark = self.accepted_seq();
        let num_sources = self.num_sources();
        let mut delta_facts = 0;
        let mut total_claims = 0;
        let mut globals = Vec::new();
        let batches: Vec<ClaimDb> = guards
            .iter()
            .filter(|s| !s.facts.is_empty())
            .map(|s| {
                delta_facts += s.facts.len();
                total_claims += s.num_claims();
                globals.push(s.facts.iter().map(|&(_, _, g)| g).collect());
                s.to_claim_db(num_sources)
            })
            .collect();
        (
            StoreDelta {
                batches,
                watermark,
                delta_facts,
                delta_claims: total_claims,
                total_claims,
            },
            globals,
        )
    }

    /// Extracts only the facts dirtied since `watermark` — the **delta**
    /// extraction behind incremental refits (paper §5.4: a new batch
    /// costs only the size of the increment). Each returned batch holds
    /// the *current* Definition-3 claim rows of its dirty facts,
    /// including retroactive negative rows added when a new source
    /// started covering an old entity.
    ///
    /// Shard locks are held one at a time, only long enough to copy that
    /// shard's dirty facts — ingest never stalls behind the Gibbs fit,
    /// and (unlike the full rebuild) not even behind other shards'
    /// copies. The window is bounded above by the sequence read before
    /// the first shard lock: rows accepted mid-extraction stay dirty and
    /// are picked up by the next delta. Dirty entries at or below
    /// `watermark` (already folded by the caller) are pruned in passing.
    ///
    /// The batches are emitted over the source-id space read *after* all
    /// copies complete, which covers every id any copied row can
    /// reference (sources are interned before their rows are stored).
    pub fn shard_databases_since(&self, watermark: u64) -> StoreDelta {
        let upto = self.accepted_seq();
        let mut parts = Vec::new();
        let mut delta_facts = 0;
        let mut delta_claims = 0;
        let mut total_claims = 0;
        for shard in &self.shards {
            let mut sh = shard.locked();
            total_claims += sh.num_claims();
            sh.dirty.retain(|_, seq| *seq > watermark);
            if let Some((facts, claims)) = sh.delta_parts(watermark, upto) {
                delta_facts += facts.len();
                delta_claims += claims.len();
                parts.push((facts, claims));
            }
        }
        let num_sources = self.num_sources();
        StoreDelta {
            batches: parts
                .into_iter()
                .map(|(facts, claims)| ClaimDb::from_parts(facts, claims, num_sources))
                .collect(),
            watermark: upto,
            delta_facts,
            delta_claims,
            total_claims,
        }
    }

    /// [`ShardedStore::full_databases_with_ids`] for valued domains: rebuilds
    /// every non-empty shard as a [`RealClaimDb`] (negative rows at
    /// `0.0`). Same locking discipline as the boolean full rebuild.
    pub fn full_real_databases(&self) -> RealStoreDelta {
        let guards: Vec<_> = self.shards.iter().map(|s| s.locked()).collect();
        let watermark = self.accepted_seq();
        let num_sources = self.num_sources();
        let mut delta_facts = 0;
        let mut total_claims = 0;
        let batches: Vec<RealClaimDb> = guards
            .iter()
            .filter(|s| !s.facts.is_empty())
            .map(|s| {
                delta_facts += s.facts.len();
                total_claims += s.num_claims();
                s.to_real_claim_db(num_sources)
            })
            .collect();
        RealStoreDelta {
            batches,
            watermark,
            delta_facts,
            delta_claims: total_claims,
            total_claims,
        }
    }

    /// [`ShardedStore::shard_databases_since`] for valued domains: only
    /// the facts dirtied since `watermark`, as [`RealClaimDb`] batches.
    /// Same locking discipline and watermark semantics as the boolean
    /// delta path (shard locks held one at a time, dirty entries at or
    /// below `watermark` pruned in passing).
    pub fn real_databases_since(&self, watermark: u64) -> RealStoreDelta {
        let upto = self.accepted_seq();
        let mut parts = Vec::new();
        let mut delta_facts = 0;
        let mut delta_claims = 0;
        let mut total_claims = 0;
        for shard in &self.shards {
            let mut sh = shard.locked();
            total_claims += sh.num_claims();
            sh.dirty.retain(|_, seq| *seq > watermark);
            if let Some((facts, claims)) = sh.real_delta_parts(watermark, upto) {
                delta_facts += facts;
                delta_claims += claims.len();
                parts.push((facts, claims));
            }
        }
        let num_sources = self.num_sources();
        RealStoreDelta {
            batches: parts
                .into_iter()
                .map(|(facts, claims)| RealClaimDb::new(facts, num_sources, claims))
                .collect(),
            watermark: upto,
            delta_facts,
            delta_claims,
            total_claims,
        }
    }

    /// Accepted rows since the last [`ShardedStore::consume_pending`].
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Subtracts `n` from the pending counter (called by the refit daemon
    /// after folding a snapshot of the store; rows ingested mid-refit stay
    /// pending).
    pub fn consume_pending(&self, n: usize) {
        let mut cur = self.pending.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.pending.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Aggregate statistics (locks each shard briefly).
    pub fn stats(&self) -> StoreStats {
        let mut facts = 0;
        let mut claims = 0;
        let mut positive = 0;
        for s in &self.shards {
            let s = s.locked();
            facts += s.facts.len();
            claims += s.num_claims();
            positive += s.rows.len();
        }
        StoreStats {
            shards: self.shards.len(),
            facts,
            claims,
            positive_claims: positive,
            sources: self.num_sources(),
            pending: self.pending(),
            duplicate_rows: self.duplicate_rows.load(Ordering::Relaxed),
        }
    }

    /// The accepted-row log in arrival order (for snapshots).
    pub fn log_snapshot(&self) -> Vec<LogRecord> {
        self.log.locked().clone()
    }

    /// One consistent persistence view: runs `read` over the accepted-row
    /// log and returns `(source names in id order, its result, pending
    /// count)`, all under one hold of the ingest-order lock so no
    /// concurrent ingest can interleave between them. Reading these
    /// piecemeal would let a racing ingest mint a source that appears in
    /// the log but not the sources copy — and that snapshot fails its own
    /// restore validation at the next boot. Ingest waits while `read`
    /// runs (snapshot capture encodes the log's frames here, uncopied).
    pub fn persistence_snapshot<R>(
        &self,
        read: impl FnOnce(&[LogRecord]) -> R,
    ) -> (Vec<String>, R, usize) {
        let log = self.log.locked();
        (self.source_names(), read(&log), self.pending())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_store(shards: usize) -> ShardedStore {
        let store = ShardedStore::new(shards);
        for (e, a, s) in [
            ("Harry Potter", "Daniel Radcliffe", "IMDB"),
            ("Harry Potter", "Emma Watson", "IMDB"),
            ("Harry Potter", "Rupert Grint", "IMDB"),
            ("Harry Potter", "Daniel Radcliffe", "Netflix"),
            ("Harry Potter", "Daniel Radcliffe", "BadSource.com"),
            ("Harry Potter", "Emma Watson", "BadSource.com"),
            ("Harry Potter", "Johnny Depp", "BadSource.com"),
            ("Pirates 4", "Johnny Depp", "Hulu.com"),
        ] {
            store.ingest(e, a, s);
        }
        store
    }

    #[test]
    fn matches_paper_table3_regardless_of_shard_count() {
        for shards in [1, 2, 7] {
            let store = table1_store(shards);
            let stats = store.stats();
            assert_eq!(stats.facts, 5, "{shards} shards");
            assert_eq!(stats.claims, 13, "{shards} shards");
            assert_eq!(stats.positive_claims, 8, "{shards} shards");
            assert_eq!(stats.sources, 4);
            let total: usize = store
                .full_databases_with_ids()
                .0
                .batches
                .iter()
                .map(|db| db.num_claims())
                .sum();
            assert_eq!(total, 13);
        }
    }

    #[test]
    fn ingest_outcomes_and_dedup() {
        let store = ShardedStore::new(2);
        let first = store.ingest("e", "a", "s0");
        assert!(matches!(first, IngestOutcome::NewFact(0)));
        assert!(matches!(
            store.ingest("e", "a", "s1"),
            IngestOutcome::NewRow(0)
        ));
        let dup = store.ingest("e", "a", "s0");
        assert_eq!(dup, IngestOutcome::Duplicate(0));
        assert!(!dup.accepted());
        assert_eq!(store.pending(), 2, "duplicates do not count as pending");
    }

    #[test]
    fn fact_view_exposes_negative_claims() {
        let store = ShardedStore::new(3);
        store.ingest("e", "a0", "s0");
        store.ingest("e", "a1", "s1");
        let f0 = store.fact(0).unwrap();
        assert_eq!((f0.entity.as_str(), f0.attr.as_str()), ("e", "a0"));
        // Both sources cover entity `e`; s1 did not assert a0.
        let s0 = store.source_id("s0").unwrap();
        let s1 = store.source_id("s1").unwrap();
        assert_eq!(f0.claims, vec![(s0, true), (s1, false)]);
        assert!(store.fact(99).is_none());
    }

    #[test]
    fn replaying_log_reproduces_ids() {
        let store = table1_store(4);
        store.ingest("Harry Potter", "Emma Watson", "Netflix");
        let replayed = ShardedStore::new(4);
        replayed.ingest_batch(store.log_snapshot(), None).unwrap();
        assert_eq!(replayed.source_names(), store.source_names());
        let n = store.stats().facts as u64;
        assert_eq!(replayed.stats().facts as u64, n);
        for id in 0..n {
            let a = store.fact(id).unwrap();
            let b = replayed.fact(id).unwrap();
            assert_eq!((a.entity, a.attr, a.claims), (b.entity, b.attr, b.claims));
        }
    }

    #[test]
    fn concurrent_ingest_log_replays_to_identical_ids() {
        // Regression test for the ingest-order race: id minting and the
        // log append must be one atomic step, or racing ingests on
        // different shards can mint source/fact ids in one order and log
        // in the other — and then the sequential snapshot replay assigns
        // different ids than the live server handed out.
        use std::sync::Arc;
        let store = Arc::new(ShardedStore::new(8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        // Distinct entities and sources per (thread, i) so
                        // every triple mints fresh ids in both spaces.
                        store.ingest(&format!("e{t}-{i}"), "a", &format!("s{t}-{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        let replayed = ShardedStore::new(8);
        replayed.ingest_batch(store.log_snapshot(), None).unwrap();
        assert_eq!(
            replayed.source_names(),
            store.source_names(),
            "replay must reproduce the source-id assignment"
        );
        let n = store.stats().facts as u64;
        assert_eq!(replayed.stats().facts as u64, n);
        for id in 0..n {
            let a = store.fact(id).unwrap();
            let b = replayed.fact(id).unwrap();
            assert_eq!(
                (a.entity, a.attr, a.claims),
                (b.entity, b.attr, b.claims),
                "global fact id {id} must resolve identically after replay"
            );
        }
    }

    #[test]
    fn persistence_snapshot_is_consistent_under_concurrent_ingest() {
        // Every source named in the log copy must exist in the sources
        // copy taken by the same call — otherwise the saved snapshot
        // fails its own restore validation at the next boot.
        use std::sync::Arc;
        let store = Arc::new(ShardedStore::new(4));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        store.ingest(&format!("e{t}-{i}"), "a", &format!("s{t}-{i}"));
                    }
                })
            })
            .collect();
        let mut done = false;
        while !done {
            done = writers.iter().all(|w| w.is_finished());
            let (sources, log, pending) = store.persistence_snapshot(<[LogRecord]>::to_vec);
            let known: HashSet<&str> = sources.iter().map(String::as_str).collect();
            for rec in &log {
                let s = &rec.source;
                assert!(known.contains(s.as_str()), "log names unknown source {s}");
            }
            // Nothing consumes pending in this test, so the two reads
            // under one lock hold must agree exactly.
            assert_eq!(pending, log.len());
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(store.pending(), 2000);
    }

    #[test]
    fn consume_pending_saturates() {
        let store = ShardedStore::new(1);
        store.ingest("e", "a", "s");
        store.consume_pending(10);
        assert_eq!(store.pending(), 0);
    }

    #[test]
    fn shard_databases_share_global_source_space() {
        let store = table1_store(8);
        for db in store.full_databases_with_ids().0.batches {
            assert_eq!(db.num_sources(), 4);
        }
    }

    #[test]
    fn delta_since_zero_matches_full_extraction() {
        let store = table1_store(4);
        let full = store.full_databases_with_ids().0;
        let delta = store.shard_databases_since(0);
        assert_eq!(delta.watermark, full.watermark);
        assert_eq!(delta.watermark, store.accepted_seq());
        assert_eq!(delta.delta_facts, full.delta_facts);
        assert_eq!(delta.delta_claims, 13, "every claim is in the delta");
        assert_eq!(delta.total_claims, 13);
        let total: usize = delta.batches.iter().map(|db| db.num_claims()).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn delta_after_watermark_contains_only_touched_facts() {
        let store = table1_store(4);
        let watermark = store.shard_databases_since(0).watermark;
        // A clean window extracts nothing.
        let clean = store.shard_databases_since(watermark);
        assert!(clean.batches.is_empty());
        assert_eq!(clean.delta_facts, 0);
        assert_eq!(clean.watermark, watermark);
        // One new entity from an existing source dirties only its fact.
        store.ingest("Inception", "Leonardo DiCaprio", "IMDB");
        let delta = store.shard_databases_since(watermark);
        assert_eq!(delta.delta_facts, 1);
        assert_eq!(delta.delta_claims, 1, "only IMDB covers the new entity");
        assert_eq!(delta.watermark, watermark + 1);
        // The store total keeps counting everything.
        assert_eq!(delta.total_claims, store.stats().claims);
    }

    #[test]
    fn retroactive_coverage_dirties_every_fact_of_the_entity() {
        // Definition 3: when a source newly covers an entity, every
        // existing fact of that entity gains a negative row — those facts
        // must reappear in the delta even though their own triples are
        // ancient.
        let store = ShardedStore::new(2);
        store.ingest("e", "a0", "s0");
        store.ingest("e", "a1", "s0");
        store.ingest("other", "a0", "s0");
        let watermark = store.shard_databases_since(0).watermark;

        // `late` asserts only (e, a0) — but now covers entity `e`.
        store.ingest("e", "a0", "late");
        let delta = store.shard_databases_since(watermark);
        assert_eq!(
            delta.delta_facts, 2,
            "both facts of `e` changed; `other` did not"
        );
        // 2 facts × 2 covering sources = 4 claims, with late's row on
        // (e, a1) present and negative.
        assert_eq!(delta.delta_claims, 4);
        let late = store.source_id("late").unwrap();
        let batch = &delta.batches[0];
        let late_rows: Vec<bool> = batch
            .fact_ids()
            .flat_map(|f| batch.claims_of_fact(f))
            .filter(|(s, _)| *s == late)
            .map(|(_, o)| o)
            .collect();
        assert_eq!(
            late_rows.iter().filter(|&&o| o).count(),
            1,
            "late asserted exactly one of the two facts"
        );
        assert_eq!(late_rows.len(), 2, "late has a row on both dirty facts");
    }

    #[test]
    fn replay_reproduces_delta_watermarks() {
        // Sequence numbers are replay-log positions, so a restored store
        // resumes the same watermark arithmetic as the one that saved.
        let store = table1_store(4);
        let w = store.shard_databases_since(0).watermark;
        store.ingest("Inception", "Leonardo DiCaprio", "IMDB");

        let replayed = ShardedStore::new(4);
        replayed.ingest_batch(store.log_snapshot(), None).unwrap();
        assert_eq!(replayed.accepted_seq(), store.accepted_seq());
        let delta = replayed.shard_databases_since(w);
        assert_eq!(delta.delta_facts, 1, "only the post-watermark fact");
        assert_eq!(delta.watermark, store.accepted_seq());
    }

    #[test]
    fn claim_counter_matches_recompute_under_mixed_ingest() {
        // The O(1) per-shard claim counter must track the Definition-3
        // recompute through every ingest shape: new facts, retroactive
        // coverage, re-asserted rows, and duplicates.
        let store = ShardedStore::new(3);
        let triples = [
            ("e0", "a0", "s0"), // new fact, new coverage
            ("e0", "a1", "s0"), // new fact, existing coverage
            ("e0", "a0", "s1"), // retroactive coverage of e0 (+2 rows)
            ("e0", "a1", "s1"), // obs flip only (no new claims)
            ("e0", "a1", "s1"), // duplicate (no change)
            ("e1", "a0", "s1"), // fresh entity
            ("e1", "a0", "s0"), // retroactive coverage of e1
        ];
        for (i, (e, a, s)) in triples.iter().enumerate() {
            store.ingest(e, a, s);
            // Independent recompute from the CSR rebuild path.
            let rebuilt: usize = store
                .full_databases_with_ids()
                .0
                .batches
                .iter()
                .map(|db| db.num_claims())
                .sum();
            assert_eq!(store.stats().claims, rebuilt, "after triple {i}");
        }
        // e0: 2 facts × 2 covering sources; e1: 1 fact × 2.
        assert_eq!(store.stats().claims, 6);
    }

    #[test]
    fn duplicates_do_not_advance_the_sequence_or_dirty_facts() {
        let store = ShardedStore::new(1);
        store.ingest("e", "a", "s");
        let w = store.shard_databases_since(0).watermark;
        assert_eq!(w, 1);
        store.ingest("e", "a", "s");
        assert_eq!(store.accepted_seq(), 1);
        assert!(store.shard_databases_since(w).batches.is_empty());
    }
}
