//! The workspace: named modules, the link graph, and the incremental
//! linker.
//!
//! # Linking model
//!
//! Modules are linked *in order* into one shared arena: module `i` is
//! parsed as a session fragment with every predecessor's top-level
//! scope (and datatype environment) ambient, then the incremental
//! analysis resumes — `core::incremental` adds the new fragment's basic
//! edges plus the binder→rhs edges that stitch the module onto its
//! predecessors (the cross-module dom/ran edges at the link boundary)
//! and re-runs the monotone close, whose cost is proportional to the
//! delta, not the workspace.
//!
//! # Invalidation
//!
//! The linker keeps ONE mutable *tip* (session program + incremental
//! analysis + binder-owner map) and, per linked module, a cheap *mark*:
//! the extent of every append-only table after that module, keyed by a
//! chain digest over the analysis options and every module name/content
//! digest up to that point. On re-link, the longest prefix of marks
//! whose chain digests still match is kept; the tip is *rewound* to the
//! last kept mark — popping the analysis's mutation journal and
//! truncating the arenas, in time proportional to what is being undone —
//! and only the suffix from the first changed module onward is re-parsed
//! and re-closed. Rewind-then-replay is bit-identical to a fresh link
//! (everything the linker mutates is append-only), so reused modules'
//! graph nodes are untouched and keep their original analysis
//! generations. Editing the *last* module of an `n`-module workspace
//! therefore costs one module, not `n` — with no per-checkpoint clones
//! of the session or graph on either the link or the re-link path.

use std::collections::{BTreeSet, HashMap};

use stcfa_core::analysis::AnalysisError;
use stcfa_core::incremental::{AnalysisMark, IncrementalAnalysis, StaleSnapshot};
use stcfa_core::{Analysis, AnalysisOptions, QueryEngine};
use stcfa_devkit::hash::Fnv1a;
use stcfa_lambda::parser::ParseError;
use stcfa_lambda::session::{SessionMark, SessionProgram};
use stcfa_lambda::{ExprKind, Program, VarId};

use crate::module::{LinkReport, Module, ModuleReport};

/// Why a [`Workspace::link`] failed. Both variants name the offending
/// module; the linker's marks up to that module stay valid, so fixing
/// the module and re-linking only re-does the suffix.
#[derive(Clone, Debug)]
pub enum LinkError {
    /// The module's source failed to parse (including references to
    /// names no predecessor exports).
    Parse {
        /// Offending module.
        module: String,
        /// The underlying parse error (positions are module-relative).
        error: ParseError,
    },
    /// Analysis of the module's fragment failed (node budget).
    Analysis {
        /// Offending module.
        module: String,
        /// The underlying analysis error.
        error: AnalysisError,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Parse { module, error } => {
                write!(f, "module `{module}`: {error}")
            }
            LinkError::Analysis { module, error } => {
                write!(f, "module `{module}`: {error}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

impl LinkError {
    /// The module the error is attributed to.
    pub fn module(&self) -> &str {
        match self {
            LinkError::Parse { module, .. } => module,
            LinkError::Analysis { module, .. } => module,
        }
    }
}

/// The linker's single mutable state: the composed session, the resumed
/// analysis, and the binder-owner map. Re-links never clone it — they
/// rewind it to the edit point and replay the suffix.
struct Tip {
    session: SessionProgram,
    analysis: IncrementalAnalysis,
    /// Which module each session binder belongs to (for import
    /// derivation in later modules).
    owner: HashMap<VarId, usize>,
    /// Journal of `owner` insertions. Fragment binders are always fresh
    /// `VarId`s, so an insertion never overwrites an entry and rewinding
    /// is pop-and-remove.
    owner_log: Vec<VarId>,
}

impl Tip {
    fn new(options: AnalysisOptions) -> Tip {
        Tip {
            session: SessionProgram::new(),
            analysis: IncrementalAnalysis::new(options),
            owner: HashMap::new(),
            owner_log: Vec::new(),
        }
    }

    /// Rewinds all three components to a common earlier extent.
    fn rewind(&mut self, session: SessionMark, analysis: AnalysisMark, owners: usize) {
        while self.owner_log.len() > owners {
            let v = self.owner_log.pop().expect("len checked");
            self.owner.remove(&v);
        }
        self.session.rewind(session);
        self.analysis.rewind(analysis);
    }
}

/// One linker mark: the tip's extent after linking a prefix of the
/// module list. Cheap (a few counters plus the module report) — the
/// heavy state lives only in the tip.
struct Mark {
    /// Chain digest over the options and modules `0..=i`.
    chain_digest: u64,
    session: SessionMark,
    analysis: AnalysisMark,
    /// `owner_log` length at this mark.
    owners: usize,
    /// The report of the module this mark linked (as built:
    /// `reused == false`).
    report: ModuleReport,
}

/// A workspace of named modules with an incremental linker.
pub struct Workspace {
    options: AnalysisOptions,
    modules: Vec<Module>,
    tip: Tip,
    /// Extents of the empty tip, for rewinding past module 0.
    base_session: SessionMark,
    base_analysis: AnalysisMark,
    marks: Vec<Mark>,
    /// Bumped by every content-changing [`Workspace::upsert`] /
    /// [`Workspace::remove`]; frozen into [`LinkedSnapshot`]s for the
    /// same staleness discipline as the REPL's `SessionSnapshot`.
    generation: u64,
    last_report: Option<LinkReport>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new(options: AnalysisOptions) -> Workspace {
        let tip = Tip::new(options);
        let base_session = tip.session.mark();
        let base_analysis = tip.analysis.mark();
        Workspace {
            options,
            modules: Vec::new(),
            tip,
            base_session,
            base_analysis,
            marks: Vec::new(),
            generation: 0,
            last_report: None,
        }
    }

    /// The analysis options every link uses.
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// The workspace generation: the number of content-changing module
    /// edits so far. [`LinkedSnapshot`]s frozen at an older generation
    /// are stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The modules, in link order.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// The module named `name`.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name() == name)
    }

    /// Adds a module (at the end of the link order) or replaces the
    /// source of the existing module with that name. Returns `true` if
    /// the workspace changed (a no-op upsert with identical source
    /// neither changes anything nor bumps the generation).
    pub fn upsert(&mut self, name: &str, source: &str) -> bool {
        let module = Module::new(name, source);
        match self.modules.iter_mut().find(|m| m.name() == name) {
            Some(slot) => {
                if slot.digest() == module.digest() && slot.source() == source {
                    return false;
                }
                *slot = module;
            }
            None => self.modules.push(module),
        }
        self.generation += 1;
        true
    }

    /// Replaces the whole module list in one step — the rollback path
    /// for transactional callers (the server's `session/update` restores
    /// the pre-update list when a link fails). Bumps the generation;
    /// marks matching a prefix of the restored list stay valid, so the
    /// follow-up link is still incremental.
    pub fn set_modules(&mut self, modules: Vec<Module>) {
        self.modules = modules;
        self.generation += 1;
    }

    /// Removes the module named `name`. Returns `true` if it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(i) = self.modules.iter().position(|m| m.name() == name) else {
            return false;
        };
        self.modules.remove(i);
        self.generation += 1;
        true
    }

    /// Chain digest per module: `chain[i]` covers the options plus every
    /// module name and content digest up to and including module `i`.
    fn chain_digests(&self) -> Vec<u64> {
        let mut h = Fnv1a::new();
        h.write_u64(self.options.policy.disc());
        h.write_u64(self.options.max_nodes.map(|n| n as u64 + 1).unwrap_or(0));
        self.modules
            .iter()
            .map(|m| {
                h.write(m.name().as_bytes());
                h.write_u64(m.digest());
                h.finish()
            })
            .collect()
    }

    /// Whether the marks currently cover the whole module list
    /// (i.e. [`Workspace::link`] has run since the last edit).
    pub fn is_linked(&self) -> bool {
        let chains = self.chain_digests();
        self.marks.len() == self.modules.len()
            && self
                .marks
                .iter()
                .zip(&chains)
                .all(|(m, &d)| m.chain_digest == d)
    }

    /// Rewinds the tip to the state after linking modules `0..keep` and
    /// drops the invalidated marks.
    fn rewind_to(&mut self, keep: usize) {
        let (session, analysis, owners) = match keep {
            0 => (self.base_session, self.base_analysis, 0),
            k => {
                let m = &self.marks[k - 1];
                (m.session, m.analysis, m.owners)
            }
        };
        self.tip.rewind(session, analysis, owners);
        self.marks.truncate(keep);
    }

    /// Links the workspace: keeps the longest unchanged mark prefix,
    /// rewinds the tip to it, re-parses and re-analyzes the suffix, and
    /// derives the import graph and session digest.
    ///
    /// On error the failing module is named and rolled back out of the
    /// tip; marks before it remain valid, so a later link after fixing
    /// the module re-does only the suffix.
    pub fn link(&mut self) -> Result<LinkReport, LinkError> {
        let chains = self.chain_digests();
        let mut keep = 0;
        while keep < self.marks.len()
            && keep < self.modules.len()
            && self.marks[keep].chain_digest == chains[keep]
        {
            keep += 1;
        }
        if keep < self.marks.len() {
            self.rewind_to(keep);
        }
        for (i, &chain_digest) in chains.iter().enumerate().skip(keep) {
            debug_assert!(self.tip.analysis.covers(&self.tip.session));
            let pre_analysis = self.tip.analysis.mark();
            let pre_owners = self.tip.owner_log.len();
            let module = &self.modules[i];
            let before = self.tip.session.program().size();
            // A failed define rewinds the session itself; the analysis
            // and owner map have not been touched yet.
            let fragment =
                self.tip
                    .session
                    .define(module.source())
                    .map_err(|e| LinkError::Parse {
                        module: module.name().to_string(),
                        error: e,
                    })?;
            let after = self.tip.session.program().size();
            // Import edges: any new variable occurrence whose binder an
            // earlier module owns links this module to that predecessor.
            let mut imports: BTreeSet<usize> = BTreeSet::new();
            for idx in before..after {
                if let ExprKind::Var(v) = self
                    .tip
                    .session
                    .program()
                    .kind(stcfa_lambda::ExprId::from_index(idx))
                {
                    if let Some(&owning) = self.tip.owner.get(v) {
                        imports.insert(owning);
                    }
                }
            }
            for b in &fragment.bindings {
                self.tip.owner.insert(b.binder, i);
                self.tip.owner_log.push(b.binder);
            }
            if let Err(e) = self.tip.analysis.update(&self.tip.session) {
                // Roll the half-linked module back out of the tip so the
                // marks through module `i - 1` stay usable.
                let pre_session = self.marks.last().map_or(self.base_session, |m| m.session);
                self.tip.rewind(pre_session, pre_analysis, pre_owners);
                return Err(LinkError::Analysis {
                    module: module.name().to_string(),
                    error: e,
                });
            }
            let report = ModuleReport {
                name: module.name().to_string(),
                digest: module.digest(),
                imports: imports
                    .iter()
                    .map(|&j| self.modules[j].name().to_string())
                    .collect(),
                exports: fragment
                    .bindings
                    .iter()
                    .filter(|b| !b.name.starts_with('$'))
                    .map(|b| b.name.clone())
                    .collect(),
                reused: false,
                generation: self.tip.analysis.generation(),
                exprs: after - before,
                expr_range: (before, after),
                value: fragment.value,
            };
            self.marks.push(Mark {
                chain_digest,
                session: self.tip.session.mark(),
                analysis: self.tip.analysis.mark(),
                owners: self.tip.owner_log.len(),
                report,
            });
        }
        let report = self.assemble_report(keep);
        self.last_report = Some(report.clone());
        Ok(report)
    }

    fn assemble_report(&self, keep: usize) -> LinkReport {
        let modules: Vec<ModuleReport> = self
            .marks
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut r = m.report.clone();
                r.reused = i < keep;
                r
            })
            .collect();
        let (nodes, edges, exprs) = if self.marks.is_empty() {
            (0, 0, 0)
        } else {
            (
                self.tip.analysis.node_count(),
                self.tip.analysis.edge_count(),
                self.tip.session.program().size(),
            )
        };
        LinkReport {
            session_digest: self.session_digest(&modules),
            generation: self.generation,
            reused: keep,
            relinked: modules.len() - keep,
            modules,
            nodes,
            edges,
            exprs,
        }
    }

    /// The session digest over the options, module names/digests in
    /// link order, and the derived import topology.
    fn session_digest(&self, modules: &[ModuleReport]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.options.policy.disc());
        h.write_u64(self.options.max_nodes.map(|n| n as u64 + 1).unwrap_or(0));
        h.write_u64(modules.len() as u64);
        for m in modules {
            h.write(m.name.as_bytes());
            h.write_u64(m.digest);
            h.write_u64(m.imports.len() as u64);
            for imp in &m.imports {
                h.write(imp.as_bytes());
            }
        }
        h.finish()
    }

    /// The last successful link's report, if still current.
    pub fn report(&self) -> Option<&LinkReport> {
        match &self.last_report {
            Some(r) if self.is_linked() => Some(r),
            _ => None,
        }
    }

    /// Looks up a top-level name in the linked scope (later modules
    /// shadow earlier ones). `None` when unlinked or unbound.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        if !self.is_linked() {
            return None;
        }
        self.tip.session.lookup(name)
    }

    /// Freezes the linked workspace into a self-contained
    /// [`LinkedSnapshot`]. Returns `None` if the workspace has unlinked
    /// edits — call [`Workspace::link`] first.
    pub fn freeze(&self) -> Option<LinkedSnapshot> {
        if !self.is_linked() {
            return None;
        }
        let mut report = self.last_report.clone()?;
        // An edit sequence that nets out to the same content (A → B → A)
        // keeps the checkpoints valid but advances the generation; the
        // frozen report must carry the generation the snapshot checks
        // against.
        report.generation = self.generation;
        // A linked workspace's tip *is* the linked state (for an empty
        // module list it is the empty base), so snapshotting clones from
        // the tip directly.
        let program = self.tip.session.program().clone();
        let analysis = self.tip.analysis.snapshot(self.tip.session.program());
        let engine = QueryEngine::freeze_with_generation(&analysis, self.generation);
        Some(LinkedSnapshot {
            program,
            analysis,
            engine,
            report,
            generation: self.generation,
        })
    }
}

/// A self-contained, immutable view of a linked workspace: the composed
/// program, its analysis, and a frozen [`QueryEngine`], tagged with the
/// workspace generation they were frozen at.
pub struct LinkedSnapshot {
    program: Program,
    analysis: Analysis,
    engine: QueryEngine,
    report: LinkReport,
    generation: u64,
}

impl LinkedSnapshot {
    /// The composed (forest) program. Its `root()` is meaningless; use
    /// [`LinkReport::default_value`] or per-module values instead.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The composed analysis.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The link report the snapshot was frozen with.
    pub fn report(&self) -> &LinkReport {
        &self.report
    }

    /// The workspace generation the snapshot was frozen at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The frozen engine, if `workspace` has not been edited since the
    /// freeze — the same checked-staleness discipline as the REPL's
    /// `SessionSnapshot`.
    pub fn engine(&self, workspace: &Workspace) -> Result<&QueryEngine, StaleSnapshot> {
        if workspace.generation() != self.generation {
            return Err(StaleSnapshot {
                frozen_at: self.generation,
                current: workspace.generation(),
            });
        }
        Ok(&self.engine)
    }

    /// Decomposes the snapshot into its parts (for cache storage).
    pub fn into_parts(self) -> (Program, Analysis, QueryEngine, LinkReport) {
        (self.program, self.analysis, self.engine, self.report)
    }
}
