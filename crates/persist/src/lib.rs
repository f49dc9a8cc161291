//! The on-disk snapshot tier: a zero-dependency persistent format for
//! frozen [`QueryEngine`]s.
//!
//! The server's snapshot store (`stcfa-server`) is content-addressed and
//! purely in-memory: a daemon restart forgets every build. This crate
//! gives each cache entry a durable twin — one file per snapshot key —
//! so a restarted daemon can answer a previously seen digest by decoding
//! arrays off disk instead of re-running the analysis. A load reads and
//! verifies the file, decodes the arrays, re-parses the stored source
//! and re-derives what the file leaves out, all in `O(V + E + n)`; it
//! never runs the build or close phase.
//!
//! # Format (version 3)
//!
//! A snapshot file is, in order (all integers little-endian):
//!
//! | part     | bytes | contents                                         |
//! |----------|-------|--------------------------------------------------|
//! | magic    | 8     | `STCFSNAP`                                       |
//! | version  | 4     | format version ([`FORMAT_VERSION`])              |
//! | header   | 44    | content digest, policy + engine discriminants, generation (+1, 0 = none), label count, section count |
//! | sections | —     | `section count` × (`u32` tag, `u64` byte length, payload) |
//! | trailer  | 8     | integrity digest of every preceding byte ([`word_digest`]) |
//!
//! The sections carry the engine's frozen arrays exactly as exported by
//! [`QueryEngine::to_parts`] — forward CSR offsets/targets, the SCC
//! assignment, the node-table metadata (node → label, expression → node,
//! binder → node, the flattened occurrence index) and the build-phase
//! statistics — plus the original source text. Two sections are
//! optional: the precision detector's per-component **suspicion
//! index**, and a **flavor** marker for *linked* session snapshots,
//! whose "source" is a module manifest rather than a single program
//! text.
//!
//! Everything derivable is left out and re-derived on load: the reverse
//! CSR and the condensation DAG (by [`QueryEngine::from_parts`], in
//! `O(V + E)`), the label-summary rows (by the caller's
//! [`QueryEngine::prepare`], one `O(E·L/64)` sweep — version 2 stored
//! them, and they made up three quarters of a typical file), and the
//! program itself (by re-parsing the source, which the content digest
//! vouches for; a stored arena would be a second program format). A
//! loaded engine is therefore the same object a build produces.
//!
//! # Integrity trailer
//!
//! The trailer is [`word_digest`]: FNV-1a's xor-then-multiply step
//! applied per little-endian `u64` word rather than per byte, each
//! multiply followed by a high-to-low fold `x ^ (x >> 32)`, with a
//! zero-padded final word and the byte length absorbed last, finished
//! with a splitmix64 avalanche. For a fixed word every part of the step
//! is a bijection on the 64-bit state, so any damage confined to one
//! word — every single-bit flip — changes the digest, and absorbing the
//! length catches zero bytes slipped into the final word's padding. The
//! fold keeps damage to several words from cancelling: a bare multiply
//! carries differences only upward, so two flips of bit 63 would
//! collide. It costs one multiply per 8 bytes where the byte-wise digest
//! paid one per byte.
//!
//! # Versioning and corruption policy
//!
//! Two digests guard a file. The *trailer* is an integrity check over the
//! file's own bytes: a bit flip or truncation, and a torn write short of
//! a 64-bit collision, surfaces as [`PersistError::Integrity`] before a
//! single section is parsed. The
//! *header* digest is the snapshot's cache address
//! (`Fnv1a::digest_parts(source, [policy, engine])`); the decoder
//! recomputes it from the decoded source and discriminants, so a file
//! renamed over the wrong key — intact but mislabeled — surfaces as
//! [`PersistError::DigestMismatch`]. Linked session snapshots are the
//! one exception: their address is the *session digest*, a chain digest
//! over module names/contents/imports that only the linker can compute,
//! so for them the decoder relies on the integrity trailer plus the
//! cache layer's own key-vs-header check and manifest comparison.
//! Everything past those gates is still untrusted: section shapes are
//! re-validated structurally by [`QueryEngine::from_parts`].
//!
//! Decoding **never panics and, short of a trailer collision, never
//! returns a wrong answer**: every failure mode is a structured
//! [`PersistError`], and the caller's
//! contract (see `stcfa-server`) is to treat any error as a cache miss —
//! delete the file and rebuild from source. There is no migration: a
//! version bump ([`PersistError::VersionSkew`]) also just means rebuild,
//! which is why the format can stay a dumb array dump.

#![warn(missing_docs)]

use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use stcfa_core::{AnalysisStats, EngineParts, QueryEngine};
use stcfa_devkit::hash::{word_digest, Fnv1a};

/// File magic: the first 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"STCFSNAP";

/// Current format version. Bump on any layout change; old files then
/// decode to [`PersistError::VersionSkew`] and are rebuilt, not migrated.
/// Version 2: suspicion-index and linked-flavor sections. Version 3: the
/// word-wise integrity trailer, and no summary-row section.
pub const FORMAT_VERSION: u32 = 3;

/// File extension used by [`file_name`] (without the dot).
pub const EXTENSION: &str = "stcfa";

/// Byte length of magic + version + fixed header fields.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8 + 8 + 4;

/// Byte length of the trailing integrity digest.
const TRAILER_LEN: usize = 8;

// Section tags. The encoder emits them in ascending order; the decoder
// accepts any order but rejects duplicates and unknown tags (an unknown
// tag under a known version is corruption, not an extension). Tag 10
// held the label-summary rows up to version 2 and is retired: the
// loader re-derives the rows, so a file carrying them is malformed.
const SEC_SOURCE: u32 = 1;
const SEC_CSR_OFFSETS: u32 = 2;
const SEC_CSR_TARGETS: u32 = 3;
const SEC_COMP_OF: u32 = 4;
const SEC_NODE_LABEL: u32 = 5;
const SEC_EXPR_NODES: u32 = 6;
const SEC_BINDER_NODES: u32 = 7;
const SEC_OCC_OFFSETS: u32 = 8;
const SEC_OCC_EXPRS: u32 = 9;
const SEC_RETIRED_SUMMARIES: u32 = 10;
const SEC_STATS: u32 = 11;
const SEC_SUSPICION: u32 = 12;
const SEC_FLAVOR: u32 = 13;

/// [`SEC_FLAVOR`] payload marking a linked session snapshot.
const FLAVOR_LINKED: u32 = 1;

/// Number of `u64` fields in the persisted [`AnalysisStats`] record.
const STATS_FIELDS: usize = 9;

/// Why a snapshot file could not be decoded (or read).
///
/// Every variant maps to "treat as cache miss and rebuild"; the variants
/// exist so logs and counters can say *which* failure occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The underlying file could not be read.
    Io(String),
    /// The byte stream ended before a required part.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// The first 8 bytes are not [`MAGIC`] — not a snapshot file.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    VersionSkew {
        /// The version found in the file.
        found: u32,
    },
    /// The trailing integrity digest does not match the file's bytes
    /// (torn write, truncation past the header, or bit rot).
    Integrity {
        /// Digest stored in the trailer.
        stored: u64,
        /// Digest recomputed over the file's bytes.
        computed: u64,
    },
    /// The header's content digest does not match one recomputed from the
    /// decoded source and discriminants — an intact file filed under the
    /// wrong cache address.
    DigestMismatch {
        /// Digest claimed by the header.
        header: u64,
        /// Digest recomputed from the decoded contents.
        computed: u64,
    },
    /// The sections are structurally invalid (bad tag, duplicate or
    /// missing section, misaligned length, or arrays that fail
    /// [`QueryEngine::from_parts`] validation).
    Malformed(String),
}

impl PersistError {
    /// A short stable tag for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            PersistError::Io(_) => "io",
            PersistError::Truncated { .. } => "truncated",
            PersistError::BadMagic => "bad-magic",
            PersistError::VersionSkew { .. } => "version-skew",
            PersistError::Integrity { .. } => "integrity",
            PersistError::DigestMismatch { .. } => "digest-mismatch",
            PersistError::Malformed(_) => "malformed",
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Truncated { what } => write!(f, "truncated while reading {what}"),
            PersistError::BadMagic => write!(f, "bad magic (not a snapshot file)"),
            PersistError::VersionSkew { found } => write!(
                f,
                "format version {found}, this build reads {FORMAT_VERSION}"
            ),
            PersistError::Integrity { stored, computed } => write!(
                f,
                "integrity digest mismatch: trailer {stored:016x}, bytes hash to {computed:016x}"
            ),
            PersistError::DigestMismatch { header, computed } => write!(
                f,
                "content digest mismatch: header claims {header:016x}, contents hash to {computed:016x}"
            ),
            PersistError::Malformed(e) => write!(f, "malformed sections: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Everything [`encode`] needs from one cache entry, borrowed.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotImage<'a> {
    /// The entry's cache address:
    /// `Fnv1a::digest_parts(source, [policy, engine])`.
    pub digest: u64,
    /// Datatype-policy discriminant (part of the address).
    pub policy: u64,
    /// Engine discriminant (part of the address).
    pub engine_disc: u64,
    /// The exact source text the snapshot was built from (for linked
    /// snapshots: the module manifest).
    pub source: &'a str,
    /// The frozen engine to serialize.
    pub engine: &'a QueryEngine,
    /// The precision detector's per-component suspicion scores, when
    /// they were computed for this snapshot.
    pub suspicion: Option<&'a [u32]>,
    /// Whether this is a *linked* session snapshot: `source` is a
    /// module manifest and `digest` is the linker's session digest
    /// (not derivable from the manifest bytes alone).
    pub linked: bool,
}

/// A decoded snapshot file: the reassembled engine plus the metadata the
/// cache layer needs to re-admit it.
#[derive(Debug)]
pub struct DecodedSnapshot {
    /// The entry's cache address (verified against the contents).
    pub digest: u64,
    /// Datatype-policy discriminant.
    pub policy: u64,
    /// Engine discriminant.
    pub engine_disc: u64,
    /// The original source text (re-parse it for lint-style consumers);
    /// for linked snapshots, the module manifest.
    pub source: String,
    /// The reassembled, fully re-validated engine.
    pub engine: QueryEngine,
    /// Persisted suspicion scores, if the file carried them. Length is
    /// *not* validated against the engine here — the cache layer checks
    /// it against `comp_count` before use.
    pub suspicion: Option<Vec<u32>>,
    /// Whether the file marks itself as a linked session snapshot.
    pub linked: bool,
}

// --- encode ----------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_section_u32s(out: &mut Vec<u8>, tag: u32, vals: &[u32]) {
    push_u32(out, tag);
    push_u64(out, (vals.len() * 4) as u64);
    for &v in vals {
        push_u32(out, v);
    }
}

fn push_section_u64s(out: &mut Vec<u8>, tag: u32, vals: &[u64]) {
    push_u32(out, tag);
    push_u64(out, (vals.len() * 8) as u64);
    for &v in vals {
        push_u64(out, v);
    }
}

fn stats_words(s: &AnalysisStats) -> [u64; STATS_FIELDS] {
    [
        s.build_nodes as u64,
        s.build_edges as u64,
        s.close_nodes as u64,
        s.close_edges as u64,
        s.edges_processed,
        s.demand_registrations,
        s.queries_answered,
        s.query_cache_hits,
        s.query_cache_misses,
    ]
}

fn stats_from_words(w: &[u64]) -> AnalysisStats {
    AnalysisStats {
        build_nodes: w[0] as usize,
        build_edges: w[1] as usize,
        close_nodes: w[2] as usize,
        close_edges: w[3] as usize,
        edges_processed: w[4],
        demand_registrations: w[5],
        queries_answered: w[6],
        query_cache_hits: w[7],
        query_cache_misses: w[8],
    }
}

/// Serializes one snapshot into the on-disk byte format.
///
/// Infallible: the engine's own arrays are trusted (they came from
/// [`QueryEngine::freeze`] or a prior validated decode). The companion
/// [`decode`] inverts this exactly — see the round-trip law in this
/// crate's tests.
pub fn encode(image: &SnapshotImage<'_>) -> Vec<u8> {
    let parts = image.engine.to_parts();
    let section_count = 10 + image.suspicion.is_some() as u32 + image.linked as u32;
    let mut out = Vec::with_capacity(
        HEADER_LEN
            + TRAILER_LEN
            + image.source.len()
            + 4 * (parts.csr.offsets().len()
                + parts.csr.targets().len()
                + parts.comp_of.len()
                + parts.node_label.len()
                + parts.expr_nodes.len()
                + parts.binder_nodes.len()
                + parts.occ_offsets.len()
                + parts.occ_exprs.len()
                + image.suspicion.map_or(0, <[u32]>::len)
                + image.linked as usize)
            + 8 * STATS_FIELDS
            + 12 * section_count as usize,
    );
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u64(&mut out, image.digest);
    push_u64(&mut out, image.policy);
    push_u64(&mut out, image.engine_disc);
    push_u64(&mut out, parts.generation.map_or(0, |g| g + 1));
    push_u64(&mut out, parts.label_count as u64);
    push_u32(&mut out, section_count);

    push_u32(&mut out, SEC_SOURCE);
    push_u64(&mut out, image.source.len() as u64);
    out.extend_from_slice(image.source.as_bytes());
    push_section_u32s(&mut out, SEC_CSR_OFFSETS, parts.csr.offsets());
    push_section_u32s(&mut out, SEC_CSR_TARGETS, parts.csr.targets());
    push_section_u32s(&mut out, SEC_COMP_OF, parts.comp_of);
    push_section_u32s(&mut out, SEC_NODE_LABEL, parts.node_label);
    push_section_u32s(&mut out, SEC_EXPR_NODES, parts.expr_nodes);
    push_section_u32s(&mut out, SEC_BINDER_NODES, parts.binder_nodes);
    push_section_u32s(&mut out, SEC_OCC_OFFSETS, parts.occ_offsets);
    push_section_u32s(&mut out, SEC_OCC_EXPRS, parts.occ_exprs);
    push_section_u64s(&mut out, SEC_STATS, &stats_words(&parts.base_stats));
    if let Some(scores) = image.suspicion {
        push_section_u32s(&mut out, SEC_SUSPICION, scores);
    }
    if image.linked {
        push_section_u32s(&mut out, SEC_FLAVOR, &[FLAVOR_LINKED]);
    }

    let trailer = word_digest(&out);
    push_u64(&mut out, trailer);
    out
}

// --- decode ----------------------------------------------------------------

/// A bounds-checked little-endian cursor over untrusted bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(PersistError::Truncated { what })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, PersistError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, PersistError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

fn decode_u32s(payload: &[u8], what: &'static str) -> Result<Vec<u32>, PersistError> {
    if !payload.len().is_multiple_of(4) {
        return Err(PersistError::Malformed(format!(
            "{what}: byte length {} is not a multiple of 4",
            payload.len()
        )));
    }
    Ok(payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

fn decode_u64s(payload: &[u8], what: &'static str) -> Result<Vec<u64>, PersistError> {
    if !payload.len().is_multiple_of(8) {
        return Err(PersistError::Malformed(format!(
            "{what}: byte length {} is not a multiple of 8",
            payload.len()
        )));
    }
    Ok(payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

/// Decodes (and fully re-validates) a snapshot file's bytes.
///
/// The byte stream is untrusted end to end: magic, version, the whole-file
/// integrity trailer and the header's content digest are checked in that
/// order, then every array shape is re-verified by
/// [`QueryEngine::from_parts`]. Any failure is a structured
/// [`PersistError`] — never a panic, and (because a failed decode is a
/// rebuild) never a wrong answer.
pub fn decode(bytes: &[u8]) -> Result<DecodedSnapshot, PersistError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(8, "magic")?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32("version")?;
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionSkew { found: version });
    }
    // Integrity gate before any section parsing: the trailer covers every
    // byte up to itself, so truncation and bit flips die here.
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(PersistError::Truncated { what: "header" });
    }
    let body_end = bytes.len() - TRAILER_LEN;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    let computed = word_digest(&bytes[..body_end]);
    if stored != computed {
        return Err(PersistError::Integrity { stored, computed });
    }

    let digest = r.u64("header digest")?;
    let policy = r.u64("header policy")?;
    let engine_disc = r.u64("header engine discriminant")?;
    let generation_plus1 = r.u64("header generation")?;
    let label_count = r.u64("header label count")?;
    let section_count = r.u32("header section count")?;

    let mut sections: [Option<&[u8]>; 14] = [None; 14];
    for _ in 0..section_count {
        let tag = r.u32("section tag")?;
        let len = r.u64("section length")?;
        let len = usize::try_from(len).map_err(|_| {
            PersistError::Malformed(format!("section {tag}: length {len} overflows"))
        })?;
        let payload = r.take(len, "section payload")?;
        let slot = sections
            .get_mut(tag as usize)
            .filter(|_| (SEC_SOURCE..=SEC_FLAVOR).contains(&tag) && tag != SEC_RETIRED_SUMMARIES)
            .ok_or_else(|| PersistError::Malformed(format!("unknown section tag {tag}")))?;
        if slot.replace(payload).is_some() {
            return Err(PersistError::Malformed(format!(
                "duplicate section tag {tag}"
            )));
        }
    }
    if r.pos != body_end {
        return Err(PersistError::Malformed(format!(
            "{} stray bytes after the last section",
            body_end - r.pos
        )));
    }
    let required = |tag: u32, what: &'static str| {
        sections[tag as usize]
            .ok_or_else(|| PersistError::Malformed(format!("missing section {what} ({tag})")))
    };

    let source = std::str::from_utf8(required(SEC_SOURCE, "source")?)
        .map_err(|e| PersistError::Malformed(format!("source is not UTF-8: {e}")))?
        .to_owned();
    let linked = match sections[SEC_FLAVOR as usize] {
        None => false,
        Some(p) => {
            let flavor = decode_u32s(p, "flavor")?;
            match flavor.as_slice() {
                [FLAVOR_LINKED] => true,
                other => {
                    return Err(PersistError::Malformed(format!(
                        "unknown snapshot flavor {other:?}"
                    )))
                }
            }
        }
    };
    // The header digest doubles as the cache address: recompute it from
    // the decoded contents so a file filed under the wrong key is caught
    // even though its bytes are internally consistent. Linked session
    // snapshots are addressed by the linker's session digest, which is
    // not a function of the manifest bytes alone — for them the cache
    // layer compares key and manifest itself.
    if !linked {
        let computed = Fnv1a::digest_parts(source.as_bytes(), &[policy, engine_disc]);
        if digest != computed {
            return Err(PersistError::DigestMismatch {
                header: digest,
                computed,
            });
        }
    }

    let stats = decode_u64s(required(SEC_STATS, "stats")?, "stats")?;
    if stats.len() != STATS_FIELDS {
        return Err(PersistError::Malformed(format!(
            "stats: {} fields, expected {STATS_FIELDS}",
            stats.len()
        )));
    }
    let label_count = usize::try_from(label_count)
        .map_err(|_| PersistError::Malformed(format!("label count {label_count} overflows")))?;
    let parts = EngineParts {
        csr_offsets: decode_u32s(required(SEC_CSR_OFFSETS, "csr offsets")?, "csr offsets")?,
        csr_targets: decode_u32s(required(SEC_CSR_TARGETS, "csr targets")?, "csr targets")?,
        comp_of: decode_u32s(required(SEC_COMP_OF, "comp-of")?, "comp-of")?,
        node_label: decode_u32s(required(SEC_NODE_LABEL, "node labels")?, "node labels")?,
        expr_nodes: decode_u32s(required(SEC_EXPR_NODES, "expr nodes")?, "expr nodes")?,
        binder_nodes: decode_u32s(required(SEC_BINDER_NODES, "binder nodes")?, "binder nodes")?,
        occ_offsets: decode_u32s(required(SEC_OCC_OFFSETS, "occ offsets")?, "occ offsets")?,
        occ_exprs: decode_u32s(required(SEC_OCC_EXPRS, "occ exprs")?, "occ exprs")?,
        label_count,
        base_stats: stats_from_words(&stats),
        generation: generation_plus1.checked_sub(1),
    };
    let engine = QueryEngine::from_parts(parts).map_err(PersistError::Malformed)?;
    let suspicion = match sections[SEC_SUSPICION as usize] {
        Some(p) => Some(decode_u32s(p, "suspicion")?),
        None => None,
    };
    Ok(DecodedSnapshot {
        digest,
        policy,
        engine_disc,
        source,
        engine,
        suspicion,
        linked,
    })
}

// --- file layer ------------------------------------------------------------

/// The file name a snapshot key is stored under: 16 lowercase hex digits
/// plus `.stcfa` (e.g. `00c4d01bd3b6d359.stcfa`).
pub fn file_name(digest: u64) -> String {
    format!("{digest:016x}.{EXTENSION}")
}

/// Inverts [`file_name`]; `None` for anything else in the directory.
pub fn parse_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_suffix(".stcfa")?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Monotone discriminator for temp-file names, so concurrent writers in
/// one process never collide.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically installs `bytes` as `dir/<file_name(digest)>`.
///
/// Writes to a dot-prefixed temp file in the same directory, flushes, and
/// renames over the final name — readers only ever observe either the old
/// complete file or the new complete file, never a torn prefix (and a
/// crash mid-write leaves only a temp file the integrity trailer would
/// reject anyway). Creates `dir` if needed. Returns the final path.
pub fn save_atomic(dir: &Path, digest: u64, bytes: &[u8]) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let final_path = dir.join(file_name(digest));
    let tmp_path = dir.join(format!(
        ".tmp-{digest:016x}-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp_path, &final_path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result.map(|()| final_path)
}

/// Reads and decodes `dir/<file_name(digest)>`.
///
/// A missing file is `Ok(None)` (a plain cache miss); an unreadable or
/// undecodable file is the structured error (the caller should delete it
/// and rebuild).
pub fn load(dir: &Path, digest: u64) -> Result<Option<DecodedSnapshot>, PersistError> {
    let path = dir.join(file_name(digest));
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PersistError::Io(format!("{}: {e}", path.display()))),
    };
    decode(&bytes).map(Some)
}

/// Removes `dir/<file_name(digest)>` if present. Errors other than
/// "not found" are reported (but are safe to ignore: a live file that
/// cannot be deleted will still decode to its old — integrity-valid —
/// contents or fail closed).
pub fn remove(dir: &Path, digest: u64) -> io::Result<()> {
    match std::fs::remove_file(dir.join(file_name(digest))) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_core::Analysis;
    use stcfa_lambda::Program;

    const SOURCE: &str = "(fn f => (fn x => f (f x)) (fn y => f y)) (fn z => z)";

    fn engine_for(source: &str) -> QueryEngine {
        let p = Program::parse(source).expect("test source parses");
        let a = Analysis::run(&p).expect("test source is bounded-type");
        QueryEngine::freeze(&a)
    }

    fn image_bytes(source: &str) -> (u64, Vec<u8>) {
        let engine = engine_for(source);
        let digest = Fnv1a::digest_parts(source.as_bytes(), &[1, 0]);
        let bytes = encode(&SnapshotImage {
            digest,
            policy: 1,
            engine_disc: 0,
            source,
            engine: &engine,
            suspicion: None,
            linked: false,
        });
        (digest, bytes)
    }

    fn assert_same_answers(source: &str, a: &QueryEngine, b: &QueryEngine) {
        let p = Program::parse(source).unwrap();
        for e in p.exprs() {
            assert_eq!(a.labels_of(e), b.labels_of(e), "labels at {e:?}");
        }
        for v in p.vars() {
            assert_eq!(a.labels_of_binder(v), b.labels_of_binder(v), "binder {v:?}");
        }
        for l in p.all_labels() {
            assert_eq!(
                a.exprs_with_label(l),
                b.exprs_with_label(l),
                "inverse {l:?}"
            );
        }
        assert_eq!(a.all_label_sets(), b.all_label_sets());
    }

    #[test]
    fn round_trips_with_and_without_summaries() {
        let (digest, plain) = image_bytes(SOURCE);
        for prepare in [false, true] {
            let engine = engine_for(SOURCE);
            if prepare {
                engine.prepare();
            }
            let bytes = encode(&SnapshotImage {
                digest,
                policy: 1,
                engine_disc: 0,
                source: SOURCE,
                engine: &engine,
                suspicion: None,
                linked: false,
            });
            // Swept or not, an engine encodes to the same bytes: the
            // summary rows are never written.
            assert_eq!(bytes, plain, "prepare {prepare}");
            let d = decode(&bytes).expect("clean bytes decode");
            assert_eq!(d.digest, digest);
            assert_eq!(d.policy, 1);
            assert_eq!(d.engine_disc, 0);
            assert_eq!(d.source, SOURCE);
            // Decode carries no rows; the first whole-graph query (or the
            // loader's `prepare`) re-derives them with exactly one sweep.
            assert_eq!(d.engine.query_stats().sweeps, 0);
            assert_same_answers(SOURCE, &engine_for(SOURCE), &d.engine);
            assert_eq!(d.engine.query_stats().sweeps, 1);
        }
    }

    #[test]
    fn generation_tag_round_trips() {
        let p = Program::parse(SOURCE).unwrap();
        let a = Analysis::run(&p).unwrap();
        for generation in [None, Some(0), Some(41)] {
            let engine = match generation {
                None => QueryEngine::freeze(&a),
                Some(g) => QueryEngine::freeze_with_generation(&a, g),
            };
            let digest = Fnv1a::digest_parts(SOURCE.as_bytes(), &[0, 0]);
            let bytes = encode(&SnapshotImage {
                digest,
                policy: 0,
                engine_disc: 0,
                source: SOURCE,
                engine: &engine,
                suspicion: None,
                linked: false,
            });
            let d = decode(&bytes).expect("decodes");
            assert_eq!(d.engine.generation(), generation);
        }
    }

    #[test]
    fn suspicion_scores_round_trip() {
        let engine = engine_for(SOURCE);
        let scores: Vec<u32> = (0..engine.comp_count() as u32).rev().collect();
        let digest = Fnv1a::digest_parts(SOURCE.as_bytes(), &[1, 0]);
        let bytes = encode(&SnapshotImage {
            digest,
            policy: 1,
            engine_disc: 0,
            source: SOURCE,
            engine: &engine,
            suspicion: Some(&scores),
            linked: false,
        });
        let d = decode(&bytes).expect("decodes");
        assert_eq!(d.suspicion.as_deref(), Some(scores.as_slice()));
        assert!(!d.linked);
        // Files without the section decode to `None`, not empty.
        let (_, plain) = image_bytes(SOURCE);
        assert_eq!(decode(&plain).unwrap().suspicion, None);
    }

    #[test]
    fn linked_snapshots_skip_the_source_digest_gate() {
        // A linked snapshot's address is the session digest — pick a
        // value that is deliberately NOT Fnv1a(source, [policy, disc]).
        let engine = engine_for(SOURCE);
        let manifest = "session\u{0}main\u{1}fn x => x\u{2}";
        let session_digest = 0xdead_beef_cafe_f00d_u64;
        let bytes = encode(&SnapshotImage {
            digest: session_digest,
            policy: 1,
            engine_disc: 0,
            source: manifest,
            engine: &engine,
            suspicion: None,
            linked: true,
        });
        let d = decode(&bytes).expect("linked snapshots decode");
        assert!(d.linked);
        assert_eq!(d.digest, session_digest);
        assert_eq!(d.source, manifest);
        // The same bytes *without* the flavor section must fail the
        // digest gate: linked-ness is not assumable.
        let built = encode(&SnapshotImage {
            digest: session_digest,
            policy: 1,
            engine_disc: 0,
            source: manifest,
            engine: &engine,
            suspicion: None,
            linked: false,
        });
        assert!(matches!(
            decode(&built).unwrap_err(),
            PersistError::DigestMismatch { .. }
        ));
        // An unknown flavor value is malformed, not silently trusted.
        let mut evil = bytes;
        let flavor_at = evil.len() - TRAILER_LEN - 4;
        evil[flavor_at..flavor_at + 4].copy_from_slice(&7u32.to_le_bytes());
        resign(&mut evil);
        assert!(matches!(
            decode(&evil).unwrap_err(),
            PersistError::Malformed(_)
        ));
    }

    /// A small image whose body (everything before the trailer) is not a
    /// whole number of words, so the trailer's zero-padded tail is in play.
    fn ragged_image() -> Vec<u8> {
        let (_, bytes) = image_bytes("fn x => x");
        assert_ne!((bytes.len() - TRAILER_LEN) % 8, 0, "body must end mid-word");
        bytes
    }

    #[test]
    fn truncation_at_every_length_is_structured() {
        let bytes = ragged_image();
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).expect_err("prefix must not decode");
            // Prefixes long enough to carry the magic/version see the
            // integrity or truncation gate; shorter ones, truncation.
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::Integrity { .. }
                        | PersistError::BadMagic
                        | PersistError::VersionSkew { .. }
                ),
                "prefix {len}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        // The trailer's per-word step (xor, multiply by an odd prime,
        // fold the high half down) is a bijection on the state for a
        // fixed word, so ANY corruption confined to one word before the
        // trailer changes the computed digest — the zero-padded last word
        // included; flips inside the trailer change the stored one.
        // Exhaustive over a small file.
        let bytes = ragged_image();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[i] ^= 1 << bit;
                let err = decode(&evil).expect_err("bit flip must not decode");
                assert!(
                    matches!(
                        err,
                        PersistError::Integrity { .. }
                            | PersistError::BadMagic
                            | PersistError::VersionSkew { .. }
                    ),
                    "byte {i} bit {bit}: unexpected {err:?}"
                );
            }
        }
    }

    #[test]
    fn damage_to_the_top_bytes_of_two_words_is_caught() {
        // A multiply carries differences only toward higher bits, so a
        // bare xor-multiply trailer lets two flips of bit 63 — bit 7 of
        // bytes 8j+7 and 8k+7 — cancel, and a ±128 change to an array
        // entry would then decode. The trailer's fold must catch every
        // such pair. Exhaustive over the body's word pairs; word 0's top
        // byte is the last magic byte.
        let bytes = ragged_image();
        let words = (bytes.len() - TRAILER_LEN) / 8;
        for j in 0..words {
            for k in j + 1..words {
                for delta in [0x80, 0xff] {
                    let mut evil = bytes.clone();
                    evil[8 * j + 7] ^= delta;
                    evil[8 * k + 7] ^= delta;
                    let err = decode(&evil).expect_err("two-word damage must not decode");
                    if j == 0 {
                        assert_eq!(err, PersistError::BadMagic);
                    } else {
                        assert!(
                            matches!(err, PersistError::Integrity { .. }),
                            "words {j} and {k}, delta {delta:#x}: unexpected {err:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_bytes_before_the_trailer_are_caught() {
        // The body ends mid-word, so the first few inserted zeros only
        // fill the last word's zero padding: the absorbed byte length is
        // what tells those images apart.
        let bytes = ragged_image();
        let body = bytes.len() - TRAILER_LEN;
        for extra in 1..=16 {
            let mut evil = bytes[..body].to_vec();
            evil.resize(body + extra, 0);
            evil.extend_from_slice(&bytes[body..]);
            assert!(
                matches!(decode(&evil).unwrap_err(), PersistError::Integrity { .. }),
                "{extra} zero bytes before the trailer"
            );
        }
    }

    #[test]
    fn version_skew_and_bad_magic_are_detected_first() {
        let (_, mut bytes) = image_bytes(SOURCE);
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode(&bytes).unwrap_err(),
            PersistError::VersionSkew {
                found: FORMAT_VERSION + 1
            }
        );
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).unwrap_err(), PersistError::BadMagic);
        assert_eq!(
            decode(&[]).unwrap_err(),
            PersistError::Truncated { what: "magic" }
        );
    }

    /// Re-sign `bytes` with a fresh integrity trailer (the attacker model
    /// for the inner gates: internally consistent, semantically wrong).
    fn resign(bytes: &mut [u8]) {
        let body = bytes.len() - TRAILER_LEN;
        let digest = word_digest(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest.to_le_bytes());
    }

    #[test]
    fn wrong_cache_address_is_a_digest_mismatch() {
        let (digest, mut bytes) = image_bytes(SOURCE);
        // Re-file the snapshot under a different address and re-sign: the
        // integrity trailer passes, the content digest does not.
        bytes[12..20].copy_from_slice(&(digest ^ 1).to_le_bytes());
        resign(&mut bytes);
        match decode(&bytes).unwrap_err() {
            PersistError::DigestMismatch { header, computed } => {
                assert_eq!(header, digest ^ 1);
                assert_eq!(computed, digest);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resigned_structural_corruption_is_malformed_not_panic() {
        // Damage an array *and* fix the trailer: only the structural
        // validators are left, and they must reject without panicking.
        let (_, clean) = image_bytes(SOURCE);
        let mutations: &[fn(&mut Vec<u8>)] = &[
            |b| b.truncate(b.len() - 16), // drop a section tail
            |b| {
                let at = HEADER_LEN + 12; // first section's payload
                b[at] = b[at].wrapping_add(1); // source byte → digest mismatch
            },
            |b| b[44..52].fill(0), // header label count → 0:
            // node_label entries go out of range
            |b| b.extend_from_slice(&[0; 7]), // stray trailing bytes
        ];
        for (i, m) in mutations.iter().enumerate() {
            let mut evil = clean.clone();
            m(&mut evil);
            if evil.len() >= HEADER_LEN + TRAILER_LEN {
                resign(&mut evil);
            }
            assert!(decode(&evil).is_err(), "mutation {i} must not decode");
        }
        // Re-signed section-count corruption: claims more sections than
        // the body holds.
        let count_at = HEADER_LEN - 4;
        let mut evil = clean.clone();
        evil[count_at..HEADER_LEN].copy_from_slice(&99u32.to_le_bytes());
        resign(&mut evil);
        assert!(decode(&evil).is_err());
        // A version-2 summary-row section is not accepted under version 3,
        // even well formed and re-signed.
        let mut evil = clean[..clean.len() - TRAILER_LEN].to_vec();
        let count = u32::from_le_bytes(evil[count_at..HEADER_LEN].try_into().unwrap());
        evil[count_at..HEADER_LEN].copy_from_slice(&(count + 1).to_le_bytes());
        push_section_u64s(&mut evil, SEC_RETIRED_SUMMARIES, &[0; 4]);
        evil.extend_from_slice(&[0; TRAILER_LEN]);
        resign(&mut evil);
        assert_eq!(
            decode(&evil).unwrap_err(),
            PersistError::Malformed(format!("unknown section tag {SEC_RETIRED_SUMMARIES}"))
        );
    }

    #[test]
    fn file_names_round_trip() {
        for digest in [0u64, 1, 0xc4d0_1bd3_b6d3_59b1, u64::MAX] {
            let name = file_name(digest);
            assert_eq!(parse_file_name(&name), Some(digest), "{name}");
        }
        assert_eq!(parse_file_name("deadbeef.stcfa"), None, "too short");
        assert_eq!(parse_file_name("00c4d01bd3b6d359.tmp"), None);
        assert_eq!(parse_file_name(".tmp-0000000000000000-1-2"), None);
    }

    #[test]
    fn save_load_remove_lifecycle() {
        let dir = std::env::temp_dir().join(format!(
            "stcfa-persist-test-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let (digest, bytes) = image_bytes(SOURCE);
        let path = save_atomic(&dir, digest, &bytes).expect("save");
        assert_eq!(path, dir.join(file_name(digest)));
        assert_eq!(std::fs::read(&path).expect("file exists"), bytes);
        // No temp files left behind.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| parse_file_name(&n.to_string_lossy()).is_none())
            .collect();
        assert!(stray.is_empty(), "stray temp files: {stray:?}");
        let loaded = load(&dir, digest).expect("load").expect("present");
        assert_eq!(loaded.digest, digest);
        assert_eq!(loaded.source, SOURCE);
        assert!(load(&dir, digest ^ 1)
            .expect("miss is not an error")
            .is_none());
        // Corrupt on disk → structured error, then remove clears it.
        let mut evil = bytes;
        evil[40] ^= 0x10;
        std::fs::write(&path, &evil).unwrap();
        assert!(load(&dir, digest).is_err());
        remove(&dir, digest).expect("remove");
        assert!(load(&dir, digest).expect("gone is a miss").is_none());
        remove(&dir, digest).expect("idempotent");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
