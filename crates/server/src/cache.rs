//! The content-addressed snapshot store.
//!
//! Every analysis the daemon serves is keyed by a digest of the exact
//! source bytes plus the build configuration (datatype policy, engine) —
//! see [`SnapshotKey`]. The store maps keys to frozen
//! [`QueryEngine`](stcfa_core::QueryEngine) snapshots shared across
//! requests via `Arc`, with three properties the protocol relies on:
//!
//! - **Build once.** Concurrent requests for the same key coalesce: the
//!   first builds, the rest wait on the build slot and share the result.
//!   A warm-cache request therefore *never* rebuilds an analysis, even
//!   under a racing burst — the differential acceptance test pins this
//!   through the `stats` counters.
//! - **Byte-accounted LRU.** Each snapshot carries an
//!   [`approx_bytes`](stcfa_core::QueryEngine::approx_bytes)-based cost;
//!   inserting past `capacity_bytes` evicts least-recently-used entries
//!   (never in-flight builds) until the store fits.
//! - **Checked staleness.** Evicted or explicitly invalidated digests are
//!   remembered as tombstones, so a client replaying an old snapshot id
//!   gets a structured *stale snapshot* error — never a silent rebuild
//!   under a different meaning, matching the
//!   [`StaleSnapshot`](stcfa_core::StaleSnapshot) discipline of the
//!   incremental layer. The tombstone set is bounded
//!   ([`TOMBSTONE_CAP`]): under long churn the oldest tombstones are
//!   forgotten, so a sufficiently ancient handle reports *unknown
//!   snapshot* instead of *stale snapshot* — memory stays bounded.
//! - **Collision-checked addressing.** The digest is 64-bit and
//!   non-cryptographic, so [`get_or_build`](SnapshotStore::get_or_build)
//!   keeps the source text in the snapshot and compares it on every hit:
//!   two distinct sources that collide produce a structured error, never
//!   one another's analysis results. (Handle lookups by bare digest via
//!   [`get`](SnapshotStore::get) carry no source to compare — they trust
//!   the digest the daemon itself issued.)

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use stcfa_core::{Analysis, AnalysisOptions, DatatypePolicy, QueryEngine};
use stcfa_devkit::hash::Fnv1a;
use stcfa_lambda::session::SessionProgram;
use stcfa_lambda::Program;
use stcfa_persist::{DecodedSnapshot, SnapshotImage};
use stcfa_precision::{PrecisionScheduler, SuspicionIndex};

use crate::proto::policy_from_disc;

/// The content address of one analysis: source digest × configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SnapshotKey(pub u64);

impl SnapshotKey {
    /// Derives the key for `source` analyzed under (`policy`, `engine`)
    /// configuration discriminants.
    pub fn derive(source: &str, policy: u64, engine: u64) -> SnapshotKey {
        SnapshotKey(Fnv1a::digest_parts(source.as_bytes(), &[policy, engine]))
    }

    /// The fixed-width hex form clients see (`%016x`).
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the hex form back into a key.
    pub fn from_hex(s: &str) -> Option<SnapshotKey> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(SnapshotKey)
    }
}

/// One cached analysis: the parsed program, the finished subtransitive
/// analysis, the frozen (and swept) query engine and its detector
/// scores, shared immutably.
///
/// Snapshots loaded from the disk tier carry no [`Analysis`] — only the
/// frozen engine is persisted, since every query answers through it. The
/// analysis is rebuilt lazily (and memoized) on the first request that
/// walks it directly (`lint`); see [`Snapshot::try_analysis`]. Everything
/// else a disk load re-derives up front, so a loaded snapshot serves
/// exactly like a built one.
#[derive(Debug)]
pub struct Snapshot {
    /// The parsed program.
    pub program: Program,
    /// The finished analysis, or — for disk-loaded snapshots — the slot
    /// it is lazily rebuilt into.
    analysis: OnceLock<Result<Analysis, String>>,
    /// The frozen query engine every query answers through.
    pub engine: QueryEngine,
    /// The exact source text the digest was derived from, kept to detect
    /// 64-bit digest collisions on cache hits.
    pub source: String,
    /// Wall-clock nanoseconds the build (parse + analyze + freeze) took.
    pub build_ns: u64,
    /// The datatype policy the analysis ran under (the lazy rebuild must
    /// reproduce the original configuration exactly).
    policy: DatatypePolicy,
    /// Stable content-address discriminants (policy, engine), written
    /// into the persisted header.
    policy_disc: u64,
    engine_disc: u64,
    /// Whether this snapshot's `source` is a session *manifest* rather
    /// than program text. Linked snapshots persist under the linked
    /// flavor: a disk load replays the manifest through
    /// [`SessionProgram`] — the exact path the linker took — to
    /// reconstruct an identical program arena.
    linked: bool,
    /// The degradation detector's per-component scores, computed at
    /// build time or adopted from the persisted image (which must carry
    /// them), and shared with the write-behind and the scheduler.
    pub suspicion: SuspicionIndex,
    /// The per-snapshot precision scheduler (escalation memo + budget),
    /// created on the first graded query against this snapshot.
    scheduler: OnceLock<PrecisionScheduler>,
}

impl Snapshot {
    /// A snapshot produced by a full build from source (persistable).
    #[allow(clippy::too_many_arguments)]
    pub fn built(
        program: Program,
        analysis: Analysis,
        engine: QueryEngine,
        source: String,
        build_ns: u64,
        policy: DatatypePolicy,
        policy_disc: u64,
        engine_disc: u64,
    ) -> Snapshot {
        let suspicion = SuspicionIndex::build(&analysis, &engine);
        Snapshot {
            program,
            analysis: OnceLock::from(Ok(analysis)),
            engine,
            source,
            build_ns,
            policy,
            policy_disc,
            engine_disc,
            linked: false,
            suspicion,
            scheduler: OnceLock::new(),
        }
    }

    /// A session's linked snapshot. Its `source` is the workspace
    /// manifest (not program text); it persists under the linked flavor,
    /// so `session/open` on a previously seen workspace digest warms
    /// from the disk tier instead of re-freezing.
    pub fn linked(
        program: Program,
        analysis: Analysis,
        engine: QueryEngine,
        manifest: String,
        build_ns: u64,
        policy: DatatypePolicy,
        policy_disc: u64,
    ) -> Snapshot {
        let suspicion = SuspicionIndex::build(&analysis, &engine);
        Snapshot {
            program,
            analysis: OnceLock::from(Ok(analysis)),
            engine,
            source: manifest,
            build_ns,
            policy,
            policy_disc,
            engine_disc: 0,
            linked: true,
            suspicion,
            scheduler: OnceLock::new(),
        }
    }

    /// Reconstructs a snapshot from a decoded disk image: re-parses the
    /// program from the stored source (deterministic, so expression ids
    /// match the engine's), adopts the persisted detector scores, runs
    /// the summary sweep the build path runs, and leaves the analysis to
    /// lazy rebuild. A linked image's source is a session manifest
    /// instead: the modules are replayed through [`SessionProgram`], the
    /// linker's own path, which yields the identical arena the engine was
    /// frozen from.
    ///
    /// An image without detector scores, or with scores that do not fit
    /// the engine, is malformed: the caller counts it, deletes it and
    /// rebuilds.
    fn from_disk(decoded: DecodedSnapshot) -> Result<Snapshot, String> {
        let DecodedSnapshot {
            policy: policy_disc,
            engine_disc,
            source,
            engine,
            suspicion,
            linked,
            ..
        } = decoded;
        let policy = policy_from_disc(policy_disc)
            .ok_or_else(|| format!("unknown persisted policy discriminant {policy_disc}"))?;
        let program = if linked {
            program_from_manifest(&source)?
        } else {
            Program::parse(&source)
                .map_err(|e| format!("persisted source no longer parses: {e}"))?
        };
        // The engine was frozen from *this* source (the content digest
        // pins it), so its index arrays must agree with the re-parse;
        // check the cheap shape facts rather than trust the file.
        let parts = engine.to_parts();
        if parts.expr_nodes.len() != program.size() {
            return Err(format!(
                "persisted engine indexes {} expressions, program has {}",
                parts.expr_nodes.len(),
                program.size()
            ));
        }
        if parts.label_count != program.label_count() {
            return Err(format!(
                "persisted engine carries {} labels, program has {}",
                parts.label_count,
                program.label_count()
            ));
        }
        let suspicion = match suspicion {
            Some(scores) if scores.len() == engine.comp_count() => SuspicionIndex::from_raw(scores),
            Some(scores) => {
                return Err(format!(
                    "persisted detector scores cover {} components, engine has {}",
                    scores.len(),
                    engine.comp_count()
                ))
            }
            None => return Err("persisted image carries no detector scores".to_owned()),
        };
        // The rows are not persisted: re-derive them exactly as a build
        // does, so every op after the load answers from the sweep.
        engine.prepare();
        Ok(Snapshot {
            program,
            analysis: OnceLock::new(),
            engine,
            source,
            build_ns: 0,
            policy,
            policy_disc,
            engine_disc,
            linked,
            suspicion,
            scheduler: OnceLock::new(),
        })
    }

    /// The finished analysis, rebuilding (and memoizing) it from the
    /// parsed program for disk-loaded snapshots. The rebuild runs the
    /// same policy the snapshot was originally built under; a failure —
    /// impossible for content that analyzed once, short of a node-budget
    /// policy change — is a structured error, never a panic.
    pub fn try_analysis(&self) -> Result<&Analysis, String> {
        self.analysis
            .get_or_init(|| {
                Analysis::run_with(
                    &self.program,
                    AnalysisOptions {
                        policy: self.policy,
                        max_nodes: None,
                    },
                )
                .map_err(|e| e.to_string())
            })
            .as_ref()
            .map_err(String::clone)
    }

    /// Whether the analysis is resident right now (no lazy rebuild has
    /// been forced yet). Test/stats hook.
    pub fn analysis_resident(&self) -> bool {
        matches!(self.analysis.get(), Some(Ok(_)))
    }

    /// The datatype policy this snapshot was analyzed under.
    pub fn policy(&self) -> DatatypePolicy {
        self.policy
    }

    /// The precision scheduler for this snapshot, created on first use.
    /// The first caller's `budget` wins (the daemon passes its single
    /// configured `--precision-budget`, so there is no ambiguity).
    pub fn scheduler(&self, budget: usize) -> &PrecisionScheduler {
        self.scheduler
            .get_or_init(|| PrecisionScheduler::new(self.suspicion.clone(), self.policy, budget))
    }

    /// The byte cost this snapshot is accounted at in the store.
    pub fn cost_bytes(&self) -> usize {
        self.source.len() + self.engine.approx_bytes()
    }
}

/// Point-in-time counters of one [`SnapshotStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Requests answered from an already-built snapshot. A request that
    /// coalesces onto an in-flight build counts as a hit only once that
    /// build resolves successfully — a coalesced wait that surfaces the
    /// build error is neither hit nor miss.
    pub hits: u64,
    /// Requests that had to build a snapshot.
    pub misses: u64,
    /// Requests that waited for another request's in-flight build.
    pub coalesced: u64,
    /// Snapshots evicted by the LRU policy or explicit invalidation.
    pub evictions: u64,
    /// Total build wall-clock nanoseconds spent so far.
    pub build_ns: u64,
    /// Resident snapshots right now.
    pub entries: usize,
    /// Accounted bytes resident right now.
    pub bytes: usize,
    /// The configured capacity, in bytes.
    pub capacity_bytes: usize,
    /// Tombstones currently remembered (bounded by [`TOMBSTONE_CAP`]).
    pub tombstones: usize,
    /// Resident snapshots pinned by open sessions right now.
    pub pinned: usize,
    /// Whether a disk tier is configured.
    pub disk: bool,
    /// Misses answered by decoding a persisted snapshot instead of
    /// building (the warm-restart path). Disk hits are *not* counted in
    /// `hits` or `misses`: `misses` stays "actual builds".
    pub disk_hits: u64,
    /// Snapshots persisted to the disk tier (write-behind, after a
    /// successful build).
    pub disk_writes: u64,
    /// Persisted files that failed to load (truncation, bit rot, version
    /// skew, digest mismatch, …). Each one was deleted and the snapshot
    /// rebuilt from source — the `cache-corrupt` log line carries the
    /// structured reason.
    pub disk_corrupt: u64,
}

/// Looking up a snapshot id can fail two ways; both are structured,
/// recoverable protocol errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupError {
    /// The digest was never seen by this store.
    Unknown,
    /// The digest was cached once but has since been evicted or
    /// invalidated — the client's handle is stale.
    Stale,
}

/// Outcome of [`SnapshotStore::invalidate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invalidate {
    /// A resident entry was evicted and tombstoned.
    Evicted,
    /// Nothing was resident; a tombstone was recorded anyway.
    Absent,
    /// The entry is pinned by an open session and was left untouched —
    /// no eviction, no tombstone.
    Pinned,
}

/// A build slot other requests can wait on: filled exactly once with the
/// build result (or the build error, which waiters propagate).
struct BuildCell {
    result: Mutex<Option<Result<Arc<Snapshot>, String>>>,
    done: Condvar,
}

enum Slot {
    /// A build is in flight; waiters block on the cell.
    Building(Arc<BuildCell>),
    /// Ready to serve.
    Ready {
        snapshot: Arc<Snapshot>,
        bytes: usize,
        last_used: u64,
        /// Open-session pin count: while positive the entry is exempt
        /// from LRU eviction and refuses explicit invalidation (the
        /// `evict` op reports a structured `pinned-snapshot` error
        /// instead of tombstoning a snapshot out from under a session).
        pins: u32,
    },
}

/// Upper bound on remembered tombstones: past this, the oldest half is
/// forgotten (those digests then report `Unknown` rather than `Stale`),
/// so a long-running daemon under cache churn stays bounded.
pub const TOMBSTONE_CAP: usize = 1 << 16;

struct Inner {
    map: HashMap<u64, Slot>,
    /// Digests that were resident once and are gone now, stamped with the
    /// tick they were tombstoned at. Bounded by [`TOMBSTONE_CAP`].
    evicted: HashMap<u64, u64>,
    /// Recency clock: bumped on every touch.
    tick: u64,
    bytes: usize,
}

impl Inner {
    /// Records a tombstone for `key`, pruning the oldest half of the set
    /// when it outgrows [`TOMBSTONE_CAP`] (amortized O(1) per insert).
    fn tombstone(&mut self, key: u64) {
        self.tick += 1;
        let tick = self.tick;
        self.evicted.insert(key, tick);
        if self.evicted.len() > TOMBSTONE_CAP {
            let mut ticks: Vec<u64> = self.evicted.values().copied().collect();
            ticks.sort_unstable();
            let cutoff = ticks[ticks.len() / 2];
            self.evicted.retain(|_, t| *t >= cutoff);
        }
    }
}

/// The content-addressed, byte-accounted, build-deduplicating LRU store.
/// See the [module docs](self).
pub struct SnapshotStore {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
    /// The persistent second tier: a directory of one snapshot file per
    /// key (see `stcfa-persist`). `None` = memory-only, the historical
    /// behavior, bit for bit.
    disk: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    build_ns: AtomicU64,
    disk_hits: AtomicU64,
    disk_writes: AtomicU64,
    disk_corrupt: AtomicU64,
}

impl SnapshotStore {
    /// An empty store that evicts past `capacity_bytes` of accounted
    /// snapshot weight.
    pub fn new(capacity_bytes: usize) -> SnapshotStore {
        Self::with_disk(capacity_bytes, None)
    }

    /// Like [`SnapshotStore::new`], with an optional write-behind disk
    /// tier rooted at `disk`: misses consult the directory before
    /// building, successful builds persist into it atomically, LRU
    /// eviction *demotes* (the digest stays answerable from disk) instead
    /// of dropping, and a fresh store pointed at a populated directory
    /// warms from it. The directory is created on first write.
    pub fn with_disk(capacity_bytes: usize, disk: Option<PathBuf>) -> SnapshotStore {
        SnapshotStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                evicted: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            capacity_bytes,
            disk,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            build_ns: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            disk_corrupt: AtomicU64::new(0),
        }
    }

    /// The snapshot for `key`, building it with `build` on a miss. The
    /// build runs outside the store lock; concurrent requests for the same
    /// key wait for the in-flight build instead of re-running it. Returns
    /// the snapshot and whether this call was a cache hit.
    ///
    /// `source` must be the exact text `key` was derived from: every hit
    /// compares it against the cached snapshot's source, so a 64-bit
    /// digest collision between distinct sources surfaces as an error
    /// instead of silently serving the wrong analysis.
    pub fn get_or_build(
        &self,
        key: SnapshotKey,
        source: &str,
        build: impl FnOnce() -> Result<Snapshot, String>,
    ) -> Result<(Arc<Snapshot>, bool), String> {
        let cell = {
            let mut inner = self.inner.lock().expect("store lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key.0) {
                Some(Slot::Ready {
                    snapshot,
                    last_used,
                    ..
                }) => {
                    verify_source(key, snapshot, source)?;
                    *last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(snapshot), true));
                }
                Some(Slot::Building(cell)) => {
                    // Another request is building this key: wait outside
                    // the store lock. Counted as a hit only if the build
                    // succeeds (below) — a propagated build error is
                    // neither hit nor miss.
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(cell))
                }
                None => {
                    let cell = Arc::new(BuildCell {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    inner.map.insert(key.0, Slot::Building(Arc::clone(&cell)));
                    inner.evicted.remove(&key.0);
                    None
                }
            }
        };

        if let Some(cell) = cell {
            let mut slot = cell.result.lock().expect("build cell poisoned");
            while slot.is_none() {
                slot = cell.done.wait(slot).expect("build cell poisoned");
            }
            return match slot.as_ref().expect("loop ensures Some") {
                Ok(snapshot) => {
                    verify_source(key, snapshot, source)?;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Ok((Arc::clone(snapshot), true))
                }
                Err(e) => Err(e.clone()),
            };
        }

        // This request owns the build slot. Probe the disk tier first,
        // then build; both run without holding any lock. A disk hit is
        // not a miss (`misses` keeps meaning "actual builds") and not a
        // memory hit — it counts under `disk_hits`.
        let (built, from_disk) = match self.load_from_disk(key, Some(source)) {
            Err(collision) => (Err(collision), false),
            Ok(Some(snapshot)) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                (Ok(snapshot), true)
            }
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let built = build().map(Arc::new);
                let elapsed = started.elapsed().as_nanos() as u64;
                self.build_ns.fetch_add(elapsed, Ordering::Relaxed);
                (built, false)
            }
        };

        let mut inner = self.inner.lock().expect("store lock poisoned");
        let Some(Slot::Building(cell)) = inner.map.get(&key.0) else {
            unreachable!("build slot owned by this request disappeared");
        };
        let cell = Arc::clone(cell);
        match &built {
            Ok(snapshot) => {
                let bytes = snapshot.cost_bytes();
                inner.tick += 1;
                let tick = inner.tick;
                inner.map.insert(
                    key.0,
                    Slot::Ready {
                        snapshot: Arc::clone(snapshot),
                        bytes,
                        last_used: tick,
                        pins: 0,
                    },
                );
                inner.bytes += bytes;
                self.evict_to_capacity(&mut inner, key.0);
            }
            Err(_) => {
                // Failed builds leave no residue (and no tombstone: the
                // key was never resident, so a retry is a fresh miss).
                inner.map.remove(&key.0);
            }
        }
        drop(inner);

        let to_waiters = match &built {
            Ok(snapshot) => Ok(Arc::clone(snapshot)),
            Err(e) => Err(e.clone()),
        };
        *cell.result.lock().expect("build cell poisoned") = Some(to_waiters);
        cell.done.notify_all();

        // Write-behind: persist a freshly built snapshot after coalesced
        // waiters have been released. The request that built it still
        // waits for the encode and the `sync_all` before it answers.
        if let Ok(snapshot) = &built {
            if !from_disk {
                self.persist(key, snapshot);
            }
        }

        // A disk hit reports `cached: true`: the caller skipped the build.
        built.map(|snapshot| (snapshot, from_disk))
    }

    /// Probes the disk tier for `key`. `Ok(None)` is a plain miss —
    /// including every corruption case, which is counted, logged with its
    /// structured reason, and the offending file deleted so the rebuild's
    /// write-behind replaces it. `Err` is a detected 64-bit digest
    /// collision (the persisted source differs from the request's), the
    /// same structured refusal the memory tier gives.
    fn load_from_disk(
        &self,
        key: SnapshotKey,
        source: Option<&str>,
    ) -> Result<Option<Arc<Snapshot>>, String> {
        let Some(dir) = &self.disk else {
            return Ok(None);
        };
        let decoded = match stcfa_persist::load(dir, key.0) {
            Ok(None) => return Ok(None),
            Ok(Some(decoded)) => decoded,
            Err(e) => {
                self.note_disk_corrupt(key, dir, e.kind(), &e.to_string());
                return Ok(None);
            }
        };
        if decoded.digest != key.0 {
            // The file's (self-consistent) header belongs to some other
            // key: it was renamed or copied over the wrong address. This
            // is corruption (rebuild), not a collision — the collision
            // refusal below only applies to a file that really carries
            // this digest.
            let msg = format!("file claims digest {:016x}", decoded.digest);
            self.note_disk_corrupt(key, dir, "digest-mismatch", &msg);
            return Ok(None);
        }
        if let Some(source) = source {
            if decoded.source != source {
                return Err(format!(
                    "digest collision on {}: a different source is persisted under \
                     this key; analysis refused to avoid serving wrong results",
                    key.hex()
                ));
            }
        }
        match Snapshot::from_disk(decoded) {
            Ok(snapshot) => Ok(Some(Arc::new(snapshot))),
            Err(e) => {
                self.note_disk_corrupt(key, dir, "malformed", &e);
                Ok(None)
            }
        }
    }

    /// Counts, logs and deletes one corrupt cache file. The log line is
    /// structured (`cache-corrupt digest=… kind=… action=rebuild`) so
    /// operators can grep restarts for decay.
    fn note_disk_corrupt(&self, key: SnapshotKey, dir: &std::path::Path, kind: &str, msg: &str) {
        self.disk_corrupt.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "stcfa-server: cache-corrupt digest={} kind={kind} action=rebuild: {msg}",
            key.hex()
        );
        let _ = stcfa_persist::remove(dir, key.0);
    }

    /// Write-behind persistence of a successful build, run on the
    /// building request's thread after its coalesced waiters are
    /// released. Failures are logged, not surfaced: the snapshot is
    /// already resident, and the next restart simply rebuilds.
    fn persist(&self, key: SnapshotKey, snapshot: &Snapshot) {
        let Some(dir) = &self.disk else { return };
        let bytes = stcfa_persist::encode(&SnapshotImage {
            digest: key.0,
            policy: snapshot.policy_disc,
            engine_disc: snapshot.engine_disc,
            source: &snapshot.source,
            engine: &snapshot.engine,
            suspicion: Some(snapshot.suspicion.as_slice()),
            linked: snapshot.linked,
        });
        match stcfa_persist::save_atomic(dir, key.0, &bytes) {
            Ok(_) => {
                self.disk_writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!(
                    "stcfa-server: cache-persist-failed digest={} action=skip: {e}",
                    key.hex()
                );
            }
        }
    }

    /// Evicts least-recently-used Ready entries until the accounted bytes
    /// fit the capacity. `keep` (the entry just inserted) survives even if
    /// it alone exceeds capacity, so oversized programs still get served.
    ///
    /// With a disk tier, eviction is a *demotion*: no tombstone is
    /// recorded, because the digest stays answerable — a later lookup
    /// re-promotes it from its file instead of reporting a stale handle.
    fn evict_to_capacity(&self, inner: &mut Inner, keep: u64) {
        while inner.bytes > self.capacity_bytes {
            let victim = inner
                .map
                .iter()
                .filter_map(|(&k, slot)| match slot {
                    Slot::Ready {
                        last_used, pins, ..
                    } if k != keep && *pins == 0 => Some((*last_used, k)),
                    _ => None,
                })
                .min()
                .map(|(_, k)| k);
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready { bytes, .. }) = inner.map.remove(&victim) {
                inner.bytes -= bytes;
                // With a disk tier every snapshot (linked included) is
                // persistable, so eviction is always a demotion there.
                if self.disk.is_none() {
                    inner.tombstone(victim);
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Looks up an already-built snapshot by digest (no build). Touches
    /// the LRU clock on success.
    ///
    /// With a disk tier, a handle that is not resident in memory is
    /// probed on disk before being declared unknown or stale: a restarted
    /// daemon (or one that demoted the entry under LRU pressure) serves
    /// the client's old handle by re-promoting the persisted snapshot.
    /// Handle lookups carry no source text, so no collision check applies
    /// — but the decoder's content-digest verification guarantees the
    /// loaded source really does hash to the digest the daemon issued.
    pub fn get(&self, key: SnapshotKey) -> Result<Arc<Snapshot>, LookupError> {
        {
            let mut inner = self.inner.lock().expect("store lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(Slot::Ready {
                snapshot,
                last_used,
                ..
            }) = inner.map.get_mut(&key.0)
            {
                *last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(snapshot));
            }
        }
        // Not resident: probe the disk tier outside the lock.
        if let Ok(Some(snapshot)) = self.load_from_disk(key, None) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            let mut inner = self.inner.lock().expect("store lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key.0) {
                // Raced with a concurrent insert: serve the resident copy.
                Some(Slot::Ready {
                    snapshot,
                    last_used,
                    ..
                }) => {
                    *last_used = tick;
                    return Ok(Arc::clone(snapshot));
                }
                // A build is in flight; hand out the loaded snapshot
                // without disturbing the slot (the completion path
                // pattern-matches on Building and must find it).
                Some(Slot::Building(_)) => return Ok(snapshot),
                None => {
                    let bytes = snapshot.cost_bytes();
                    inner.map.insert(
                        key.0,
                        Slot::Ready {
                            snapshot: Arc::clone(&snapshot),
                            bytes,
                            last_used: tick,
                            pins: 0,
                        },
                    );
                    inner.bytes += bytes;
                    inner.evicted.remove(&key.0);
                    self.evict_to_capacity(&mut inner, key.0);
                    return Ok(snapshot);
                }
            }
        }
        let inner = self.inner.lock().expect("store lock poisoned");
        if inner.evicted.contains_key(&key.0) {
            Err(LookupError::Stale)
        } else {
            Err(LookupError::Unknown)
        }
    }

    /// Explicitly invalidates a snapshot (the protocol's `evict` op).
    /// Pinned entries refuse invalidation — see [`Invalidate::Pinned`].
    /// After [`Invalidate::Evicted`] or [`Invalidate::Absent`], later
    /// lookups of the digest report [`LookupError::Stale`].
    ///
    /// Unlike LRU demotion, explicit invalidation reaches the disk tier
    /// too: the persisted file is deleted, so the digest cannot quietly
    /// re-promote after the client was told its handle is gone.
    pub fn invalidate(&self, key: SnapshotKey) -> Invalidate {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        let outcome = match inner.map.get(&key.0) {
            Some(Slot::Ready { pins, .. }) if *pins > 0 => return Invalidate::Pinned,
            Some(Slot::Ready { .. }) => {
                if let Some(Slot::Ready { bytes, .. }) = inner.map.remove(&key.0) {
                    inner.bytes -= bytes;
                }
                inner.tombstone(key.0);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                Invalidate::Evicted
            }
            // In-flight builds finish and insert; invalidating a digest
            // that is mid-build or absent just records the tombstone.
            _ => {
                inner.tombstone(key.0);
                Invalidate::Absent
            }
        };
        drop(inner);
        if let Some(dir) = &self.disk {
            let _ = stcfa_persist::remove(dir, key.0);
        }
        outcome
    }

    /// Pins the resident entry for `key`: while pinned it is exempt from
    /// LRU eviction and refuses [`SnapshotStore::invalidate`]. Pins
    /// stack (two sessions sharing one digest pin it twice). Returns
    /// `false` if nothing is resident under `key` — the caller must
    /// rebuild and retry.
    pub fn pin(&self, key: SnapshotKey) -> bool {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        match inner.map.get_mut(&key.0) {
            Some(Slot::Ready { pins, .. }) => {
                *pins += 1;
                true
            }
            _ => false,
        }
    }

    /// Releases one pin on `key` (session close or re-link). The entry
    /// stays resident and re-enters normal LRU accounting once its pin
    /// count drops to zero.
    pub fn unpin(&self, key: SnapshotKey) {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        if let Some(Slot::Ready { pins, .. }) = inner.map.get_mut(&key.0) {
            *pins = pins.saturating_sub(1);
        }
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock poisoned");
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            build_ns: self.build_ns.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
            capacity_bytes: self.capacity_bytes,
            tombstones: inner.evicted.len(),
            pinned: inner
                .map
                .values()
                .filter(|slot| matches!(slot, Slot::Ready { pins, .. } if *pins > 0))
                .count(),
            disk: self.disk.is_some(),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            disk_corrupt: self.disk_corrupt.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` over every resident snapshot (stats aggregation).
    pub fn for_each_resident(&self, mut f: impl FnMut(&Snapshot)) {
        let inner = self.inner.lock().expect("store lock poisoned");
        for slot in inner.map.values() {
            if let Slot::Ready { snapshot, .. } = slot {
                f(snapshot);
            }
        }
    }

    /// Tombstones currently remembered (bounded-growth test hook).
    #[cfg(test)]
    fn tombstone_count(&self) -> usize {
        self.inner
            .lock()
            .expect("store lock poisoned")
            .evicted
            .len()
    }
}

/// Replays a persisted session manifest (`"session\0"` then one
/// `name\x01source\x02` entry per module, in link order) through
/// [`SessionProgram::define`] — the linker's own growth path — so the
/// reconstructed arena is expression-for-expression identical to the one
/// the persisted engine was frozen from.
fn program_from_manifest(manifest: &str) -> Result<Program, String> {
    let rest = manifest
        .strip_prefix("session\u{0}")
        .ok_or_else(|| "linked snapshot carries no session manifest".to_string())?;
    let mut session = SessionProgram::new();
    for entry in rest.split_terminator('\u{2}') {
        let (name, source) = entry
            .split_once('\u{1}')
            .ok_or_else(|| "malformed session manifest entry".to_string())?;
        session
            .define(source)
            .map_err(|e| format!("persisted module `{name}` no longer parses: {e}"))?;
    }
    Ok(session.program().clone())
}

/// Rejects a hit whose cached source differs from the request's: a 64-bit
/// digest collision, surfaced as an error rather than a wrong answer.
fn verify_source(key: SnapshotKey, snapshot: &Snapshot, source: &str) -> Result<(), String> {
    if snapshot.source != source {
        return Err(format!(
            "digest collision on {}: a different source is cached under this key; \
             analysis refused to avoid serving wrong results",
            key.hex()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(source: &str) -> Result<Snapshot, String> {
        let program = Program::parse(source).map_err(|e| e.to_string())?;
        let analysis = Analysis::run(&program).map_err(|e| e.to_string())?;
        let engine = QueryEngine::freeze(&analysis);
        engine.prepare();
        Ok(Snapshot::built(
            program,
            analysis,
            engine,
            source.to_owned(),
            0,
            DatatypePolicy::default(),
            0,
            0,
        ))
    }

    const SRC_A: &str = "(fn x => x) (fn y => y)";
    const SRC_B: &str = "fun id x = x; id (fn u => u)";

    #[test]
    fn second_request_is_a_hit_and_shares_the_arc() {
        let store = SnapshotStore::new(usize::MAX);
        let key = SnapshotKey::derive(SRC_A, 0, 0);
        let (first, hit1) = store.get_or_build(key, SRC_A, || build(SRC_A)).unwrap();
        let (second, hit2) = store
            .get_or_build(key, SRC_A, || panic!("must not rebuild"))
            .unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn key_derivation_separates_content_and_config() {
        let k = SnapshotKey::derive(SRC_A, 0, 0);
        assert_ne!(k, SnapshotKey::derive(SRC_B, 0, 0));
        assert_ne!(k, SnapshotKey::derive(SRC_A, 1, 0));
        assert_ne!(k, SnapshotKey::derive(SRC_A, 0, 1));
        assert_eq!(SnapshotKey::from_hex(&k.hex()), Some(k));
        assert_eq!(SnapshotKey::from_hex("xyz"), None);
    }

    #[test]
    fn lru_evicts_by_bytes_and_reports_stale() {
        // Capacity fits either snapshot but not both: inserting the second
        // evicts the least recently used first.
        let cost_a = build(SRC_A).unwrap().cost_bytes();
        let cost_b = build(SRC_B).unwrap().cost_bytes();
        let store = SnapshotStore::new(cost_a + cost_b - 1);
        let ka = SnapshotKey::derive(SRC_A, 0, 0);
        let kb = SnapshotKey::derive(SRC_B, 0, 0);
        store.get_or_build(ka, SRC_A, || build(SRC_A)).unwrap();
        store.get_or_build(kb, SRC_B, || build(SRC_B)).unwrap();
        let s = store.stats();
        assert_eq!(s.evictions, 1, "{s:?}");
        assert!(s.bytes <= s.capacity_bytes, "{s:?}");
        assert_eq!(store.get(ka).unwrap_err(), LookupError::Stale);
        assert!(store.get(kb).is_ok());
        assert_eq!(
            store
                .get(SnapshotKey::derive("never seen", 0, 0))
                .unwrap_err(),
            LookupError::Unknown
        );
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        const SRC_C: &str = "(fn p => p p) (fn q => q)";
        // Capacity fits any two snapshots but not all three.
        let cost_a = build(SRC_A).unwrap().cost_bytes();
        let cost_b = build(SRC_B).unwrap().cost_bytes();
        let cost_c = build(SRC_C).unwrap().cost_bytes();
        let store = SnapshotStore::new(cost_a + cost_b + cost_c - 1);
        let ka = SnapshotKey::derive(SRC_A, 0, 0);
        let kb = SnapshotKey::derive(SRC_B, 0, 0);
        let kc = SnapshotKey::derive(SRC_C, 0, 0);
        store.get_or_build(ka, SRC_A, || build(SRC_A)).unwrap();
        store.get_or_build(kb, SRC_B, || build(SRC_B)).unwrap();
        // Touch A so B is now the least recently used.
        store.get(ka).unwrap();
        store.get_or_build(kc, SRC_C, || build(SRC_C)).unwrap();
        assert!(store.get(ka).is_ok(), "recently touched entry evicted");
        assert_eq!(store.get(kb).unwrap_err(), LookupError::Stale);
    }

    #[test]
    fn build_errors_propagate_and_leave_no_residue() {
        let store = SnapshotStore::new(usize::MAX);
        let key = SnapshotKey::derive("fn x =>", 0, 0);
        assert!(store
            .get_or_build(key, "fn x =>", || build("fn x =>"))
            .is_err());
        assert_eq!(store.stats().entries, 0);
        // A retry is a fresh miss, not a stale handle.
        assert_eq!(store.get(key).unwrap_err(), LookupError::Unknown);
        assert!(store.get_or_build(key, SRC_A, || build(SRC_A)).is_ok());
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        use std::sync::atomic::AtomicUsize;
        let store = SnapshotStore::new(usize::MAX);
        let key = SnapshotKey::derive(SRC_B, 0, 0);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (snap, _) = store
                        .get_or_build(key, SRC_B, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            build(SRC_B)
                        })
                        .unwrap();
                    assert!(snap.engine.node_count() > 0);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "coalescing failed");
        let s = store.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn coalesced_wait_on_a_failing_build_is_not_a_hit() {
        use std::time::Duration;
        let store = SnapshotStore::new(usize::MAX);
        const BAD: &str = "fn x =>";
        let key = SnapshotKey::derive(BAD, 0, 0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let r = store.get_or_build(key, BAD, || {
                    // Hold the build open until the other request has
                    // coalesced onto it, then fail (parse error).
                    while store.stats().coalesced == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    build(BAD)
                });
                assert!(r.is_err());
            });
            // The Building slot exists once the miss is counted.
            while store.stats().misses == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let r = store.get_or_build(key, BAD, || panic!("must coalesce"));
            assert!(r.is_err());
        });
        let s = store.stats();
        assert_eq!(
            (s.hits, s.misses, s.coalesced),
            (0, 1, 1),
            "a coalesced wait that surfaces the build error must not count as a hit"
        );
    }

    #[test]
    fn digest_collision_is_an_error_not_a_wrong_answer() {
        let store = SnapshotStore::new(usize::MAX);
        // Simulate an FNV collision: two distinct sources under one key.
        let key = SnapshotKey::derive(SRC_A, 0, 0);
        store.get_or_build(key, SRC_A, || build(SRC_A)).unwrap();
        let err = store
            .get_or_build(key, SRC_B, || panic!("collision must not rebuild"))
            .unwrap_err();
        assert!(err.contains("digest collision"), "{err}");
        // The honest source still hits.
        let (_, hit) = store.get_or_build(key, SRC_A, || build(SRC_A)).unwrap();
        assert!(hit);
    }

    #[test]
    fn tombstone_set_stays_bounded_under_churn() {
        let store = SnapshotStore::new(usize::MAX);
        // Invalidating an absent digest records a tombstone; churn through
        // more distinct digests than the cap allows.
        for i in 0..(TOMBSTONE_CAP as u64 + 2) {
            store.invalidate(SnapshotKey(i));
        }
        assert!(store.tombstone_count() <= TOMBSTONE_CAP);
        // Recent tombstones are still checked; the oldest were forgotten.
        assert_eq!(
            store
                .get(SnapshotKey(TOMBSTONE_CAP as u64 + 1))
                .unwrap_err(),
            LookupError::Stale
        );
        assert_eq!(store.get(SnapshotKey(0)).unwrap_err(), LookupError::Unknown);
    }

    #[test]
    fn invalidate_is_the_cache_invalidation_path() {
        let store = SnapshotStore::new(usize::MAX);
        let key = SnapshotKey::derive(SRC_A, 0, 0);
        store.get_or_build(key, SRC_A, || build(SRC_A)).unwrap();
        assert_eq!(store.invalidate(key), Invalidate::Evicted);
        assert_eq!(store.get(key).unwrap_err(), LookupError::Stale);
        assert_eq!(
            store.invalidate(key),
            Invalidate::Absent,
            "second invalidation is a no-op"
        );
        // Re-analyzing the same content rebuilds and clears the tombstone.
        let (_, hit) = store.get_or_build(key, SRC_A, || build(SRC_A)).unwrap();
        assert!(!hit);
        assert!(store.get(key).is_ok());
    }

    #[test]
    fn pinned_entries_refuse_invalidation_until_unpinned() {
        let store = SnapshotStore::new(usize::MAX);
        let key = SnapshotKey::derive(SRC_A, 0, 0);
        assert!(!store.pin(key), "nothing resident to pin yet");
        store.get_or_build(key, SRC_A, || build(SRC_A)).unwrap();
        assert!(store.pin(key));
        assert!(store.pin(key), "pins stack");
        assert_eq!(store.stats().pinned, 1);
        assert_eq!(store.invalidate(key), Invalidate::Pinned);
        assert!(store.get(key).is_ok(), "pinned entry must stay resident");
        store.unpin(key);
        assert_eq!(store.invalidate(key), Invalidate::Pinned, "one pin left");
        store.unpin(key);
        assert_eq!(store.stats().pinned, 0);
        assert_eq!(store.invalidate(key), Invalidate::Evicted);
        assert_eq!(store.get(key).unwrap_err(), LookupError::Stale);
    }

    /// A unique temp directory for one disk-tier test.
    fn disk_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stcfa-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_persists_builds_and_warms_a_fresh_store() {
        let dir = disk_dir("warm");
        let key = SnapshotKey::derive(SRC_A, 0, 0);
        let cold_sets = {
            let store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
            let (snap, cached) = store.get_or_build(key, SRC_A, || build(SRC_A)).unwrap();
            assert!(!cached);
            let s = store.stats();
            assert!(s.disk);
            assert_eq!((s.misses, s.disk_writes, s.disk_hits), (1, 1, 0), "{s:?}");
            assert!(
                dir.join(stcfa_persist::file_name(key.0)).exists(),
                "write-behind file missing"
            );
            snap.engine.all_label_sets()
        };
        // A fresh store over the same directory — the restarted daemon —
        // serves the digest without building.
        let store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
        let (snap, cached) = store
            .get_or_build(key, SRC_A, || panic!("warm restart must not rebuild"))
            .unwrap();
        assert!(cached, "a disk hit reports cached");
        // The image carries no summary rows: the load re-derives them with
        // exactly one sweep, and every query after it reads those rows.
        assert_eq!(snap.engine.query_stats().sweeps, 1);
        assert_eq!(snap.engine.all_label_sets(), cold_sets);
        assert_eq!(snap.engine.query_stats().sweeps, 1);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.disk_hits), (0, 0, 1), "{s:?}");
        // In-memory now: the next request is a plain memory hit.
        let (_, cached) = store
            .get_or_build(key, SRC_A, || panic!("resident"))
            .unwrap();
        assert!(cached);
        assert_eq!(store.stats().hits, 1);
        // A colliding source against the persisted file is refused, like
        // the memory tier's collision check.
        let fresh = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
        let err = fresh
            .get_or_build(key, SRC_B, || panic!("collision must not rebuild"))
            .unwrap_err();
        assert!(err.contains("digest collision"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_loaded_snapshots_rebuild_their_analysis_lazily() {
        let dir = disk_dir("lazy");
        let key = SnapshotKey::derive(SRC_B, 0, 0);
        SnapshotStore::with_disk(usize::MAX, Some(dir.clone()))
            .get_or_build(key, SRC_B, || build(SRC_B))
            .unwrap();
        let store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
        let (snap, _) = store
            .get_or_build(key, SRC_B, || panic!("must load from disk"))
            .unwrap();
        assert!(
            !snap.analysis_resident(),
            "disk load must not rebuild the analysis eagerly"
        );
        let analysis = snap.try_analysis().expect("lazy rebuild succeeds");
        assert_eq!(analysis.labels_of(snap.program.root()).len(), 1);
        assert!(snap.analysis_resident());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_files_fall_back_to_a_clean_rebuild() {
        use std::sync::atomic::AtomicUsize;
        let dir = disk_dir("corrupt");
        let key = SnapshotKey::derive(SRC_A, 0, 0);
        SnapshotStore::with_disk(usize::MAX, Some(dir.clone()))
            .get_or_build(key, SRC_A, || build(SRC_A))
            .unwrap();
        let path = dir.join(stcfa_persist::file_name(key.0));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // The poisoned file is detected, counted, deleted and rebuilt —
        // and the rebuild's answers match a from-scratch build.
        let store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
        let builds = AtomicUsize::new(0);
        let (snap, cached) = store
            .get_or_build(key, SRC_A, || {
                builds.fetch_add(1, Ordering::SeqCst);
                build(SRC_A)
            })
            .unwrap();
        assert!(!cached);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let s = store.stats();
        assert_eq!((s.misses, s.disk_hits, s.disk_corrupt), (1, 0, 1), "{s:?}");
        assert_eq!(
            snap.engine.all_label_sets(),
            build(SRC_A).unwrap().engine.all_label_sets()
        );
        // The write-behind of the rebuild replaced the poisoned file: the
        // next fresh store warms cleanly.
        assert_eq!(s.disk_writes, 1, "{s:?}");
        let warm = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
        let (_, cached) = warm
            .get_or_build(key, SRC_A, || panic!("replaced file must load"))
            .unwrap();
        assert!(cached);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn images_without_detector_scores_are_malformed_and_rebuilt() {
        let dir = disk_dir("unscored");
        let key = SnapshotKey::derive(SRC_A, 0, 0);
        let built = build(SRC_A).unwrap();
        let mis_sized = vec![0u32; built.engine.comp_count() + 1];
        for scores in [None, Some(mis_sized.as_slice())] {
            let bytes = stcfa_persist::encode(&SnapshotImage {
                digest: key.0,
                policy: 0,
                engine_disc: 0,
                source: SRC_A,
                engine: &built.engine,
                suspicion: scores,
                linked: false,
            });
            stcfa_persist::save_atomic(&dir, key.0, &bytes).unwrap();
            // The persist layer still decodes the image; the store refuses
            // it as malformed, counts it and rebuilds.
            assert!(stcfa_persist::load(&dir, key.0).unwrap().is_some());
            let store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
            let (snap, cached) = store.get_or_build(key, SRC_A, || build(SRC_A)).unwrap();
            assert!(!cached, "scores {scores:?}");
            let s = store.stats();
            assert_eq!((s.misses, s.disk_hits, s.disk_corrupt), (1, 0, 1), "{s:?}");
            assert_eq!(snap.suspicion, built.suspicion);
            // The rebuild's write-behind replaced the file with a scored one.
            let healed = stcfa_persist::load(&dir, key.0).unwrap().unwrap();
            assert_eq!(
                healed.suspicion.as_deref(),
                Some(built.suspicion.as_slice())
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_demotes_to_disk_and_handles_repromote() {
        let cost_a = build(SRC_A).unwrap().cost_bytes();
        let cost_b = build(SRC_B).unwrap().cost_bytes();
        let dir = disk_dir("demote");
        let store = SnapshotStore::with_disk(cost_a + cost_b - 1, Some(dir.clone()));
        let ka = SnapshotKey::derive(SRC_A, 0, 0);
        let kb = SnapshotKey::derive(SRC_B, 0, 0);
        store.get_or_build(ka, SRC_A, || build(SRC_A)).unwrap();
        store.get_or_build(kb, SRC_B, || build(SRC_B)).unwrap();
        let s = store.stats();
        assert_eq!(s.evictions, 1, "{s:?}");
        assert_eq!(
            s.tombstones, 0,
            "a demotion must not tombstone: the digest is still answerable"
        );
        // The old handle still resolves — promoted back off disk, not
        // reported stale as the memory-only store would.
        let snap = store.get(ka).expect("demoted handle must re-promote");
        assert_eq!(snap.source, SRC_A);
        assert_eq!(store.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_invalidation_reaches_the_disk_tier() {
        let dir = disk_dir("invalidate");
        let key = SnapshotKey::derive(SRC_A, 0, 0);
        let store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
        store.get_or_build(key, SRC_A, || build(SRC_A)).unwrap();
        let path = dir.join(stcfa_persist::file_name(key.0));
        assert!(path.exists());
        assert_eq!(store.invalidate(key), Invalidate::Evicted);
        assert!(!path.exists(), "invalidate must delete the persisted file");
        assert_eq!(
            store.get(key).unwrap_err(),
            LookupError::Stale,
            "an invalidated digest must not quietly re-promote"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn build_linked(manifest: &str) -> Snapshot {
        // Replay the manifest exactly the way a disk load would, so the
        // persisted engine indexes the arena the replay reconstructs.
        let program = super::program_from_manifest(manifest).unwrap();
        let analysis = Analysis::run(&program).unwrap();
        let engine = QueryEngine::freeze(&analysis);
        engine.prepare();
        Snapshot::linked(
            program,
            analysis,
            engine,
            manifest.to_owned(),
            0,
            DatatypePolicy::default(),
            0,
        )
    }

    #[test]
    fn linked_snapshots_persist_and_warm_reload() {
        let dir = disk_dir("linked");
        let manifest = "session\u{0}lib\u{1}val id = fn x => x\u{2}\
                        main\u{1}id (fn y => y)\u{2}";
        let key = SnapshotKey::derive(manifest, 0, 0);
        let cold_sets = {
            let store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
            let (snap, cached) = store
                .get_or_build(key, manifest, || Ok(build_linked(manifest)))
                .unwrap();
            assert!(!cached);
            let s = store.stats();
            assert_eq!((s.misses, s.disk_writes), (1, 1), "{s:?}");
            assert!(
                dir.join(stcfa_persist::file_name(key.0)).exists(),
                "linked snapshots must persist under the linked flavor"
            );
            snap.engine.all_label_sets()
        };
        // A fresh store — the restarted daemon — serves the session
        // digest without re-linking or re-freezing anything.
        let store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
        let (snap, cached) = store
            .get_or_build(key, manifest, || panic!("warm reopen must not rebuild"))
            .unwrap();
        assert!(cached, "a disk hit reports cached");
        assert_eq!(snap.source, manifest);
        assert_eq!(snap.engine.all_label_sets(), cold_sets);
        // The detector scores rode along: no analysis rebuild is needed
        // to grade queries against the reloaded snapshot.
        assert!(!snap.analysis_resident());
        assert_eq!(snap.suspicion.as_slice().len(), snap.engine.comp_count());
        let _ = snap.scheduler(0);
        assert!(!snap.analysis_resident(), "scores must come from the file");
        let s = store.stats();
        assert_eq!((s.misses, s.disk_hits), (0, 1), "{s:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_entries_survive_lru_pressure() {
        const SRC_C: &str = "(fn p => p p) (fn q => q)";
        let cost_a = build(SRC_A).unwrap().cost_bytes();
        let cost_b = build(SRC_B).unwrap().cost_bytes();
        // Capacity fits A plus one other snapshot, never all three.
        let store = SnapshotStore::new(cost_a + cost_b);
        let ka = SnapshotKey::derive(SRC_A, 0, 0);
        let kb = SnapshotKey::derive(SRC_B, 0, 0);
        let kc = SnapshotKey::derive(SRC_C, 0, 0);
        store.get_or_build(ka, SRC_A, || build(SRC_A)).unwrap();
        assert!(store.pin(ka));
        store.get_or_build(kb, SRC_B, || build(SRC_B)).unwrap();
        store.get_or_build(kc, SRC_C, || build(SRC_C)).unwrap();
        // A is the least recently used but pinned: B pays instead.
        assert!(store.get(ka).is_ok(), "pinned LRU entry was evicted");
        assert_eq!(store.get(kb).unwrap_err(), LookupError::Stale);
        // Tombstone count is visible in the stats.
        assert!(store.stats().tombstones >= 1);
    }
}
