//! The campaign runner: drives a set of experiments through the
//! crash-safe journal with checkpoint/resume and a content-addressed
//! check cache.
//!
//! Every campaign task builds one [`FpvTestbench`] and runs it in one
//! mode (bounded check or unbounded proof) through [`Campaign::check`],
//! the one function that serves a check from the journal or runs it live
//! and appends it; the `autocc` CLI calls it for its single check. With a
//! journal attached (`--journal`), each completed check — or, for a
//! decomposed bounded check, each cone cluster — is appended durably,
//! fsync'd, under its [`content_key`]: a stable hash of the COI-sliced
//! AIG, the property set, and the deterministic check budgets. A resumed
//! campaign
//! (`--resume`) recovers the journal, serves completed checks from it,
//! and re-runs exactly the ones whose content changed or that were lost
//! to a torn tail. Cached counterexamples are never trusted blindly:
//! they are replay-certified against the freshly built testbench
//! ([`FpvTestbench::certify_cex`]) and re-run live if certification
//! fails.
//!
//! A coarse supervisor watchdog sits above the portfolio: a live check
//! that produces no result within `hang_factor` times its configured
//! time budget (scaled by the property count, since properties check
//! serially; no limit when that overflows) is abandoned, journaled as
//! `FAILED (hang)`, and the campaign continues. On resume such rows are
//! served from the journal (skipped) unless `--retry-failed` asks for
//! another attempt.

use crate::fleet::{Fleet, FleetEngine};
use crate::workers::{ProcEngine, WorkerLimits, WorkerPool};
use autocc_bmc::{
    config_fingerprint, content_key, CertificateStatus, CheckConfig, CheckEngine, CheckMode,
    ContentKey, FailureReason, Isolation, JobFailure, Portfolio,
};
use autocc_core::{
    AutoCcOutcome, CheckReport, ClusterPlan, FpvTestbench, PropertyVerdict, TableRow,
};
use autocc_journal::ipc::wire_engine;
use autocc_journal::{Journal, JournalEntry, JournalError, JournalHeader, JOURNAL_SCHEMA_VERSION};
use autocc_telemetry::{SolverCounters, SpanKind};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// One experiment of a campaign: a testbench builder plus the metadata
/// that names its table row and telemetry span.
pub struct CampaignTask {
    /// Table-row id (`V5`, `C2`, ...).
    pub id: String,
    /// Table-row description.
    pub description: String,
    /// Experiment span name (`vscale:V5`, `cva6`, ...).
    pub span: String,
    /// Bounded check or unbounded proof.
    pub mode: CheckMode,
    /// Builds the testbench (runs inside the worker, under the span).
    pub build: Box<dyn FnOnce() -> FpvTestbench + Send>,
    /// Check-engine override — the seam hang/fault tests use to inject
    /// misbehaving engines. `None` runs the standard portfolio. Only
    /// honoured in [`CheckMode::Check`].
    pub engine: Option<Arc<dyn CheckEngine + Send + Sync>>,
}

impl CampaignTask {
    /// A bounded-check task.
    pub fn check(
        id: impl Into<String>,
        description: impl Into<String>,
        span: impl Into<String>,
        build: impl FnOnce() -> FpvTestbench + Send + 'static,
    ) -> CampaignTask {
        CampaignTask {
            id: id.into(),
            description: description.into(),
            span: span.into(),
            mode: CheckMode::Check,
            build: Box::new(build),
            engine: None,
        }
    }

    /// An unbounded-proof task.
    pub fn prove(
        id: impl Into<String>,
        description: impl Into<String>,
        span: impl Into<String>,
        build: impl FnOnce() -> FpvTestbench + Send + 'static,
    ) -> CampaignTask {
        CampaignTask {
            mode: CheckMode::Prove,
            ..CampaignTask::check(id, description, span, build)
        }
    }

    /// Overrides the check engine (test seam).
    pub fn with_engine(mut self, engine: Arc<dyn CheckEngine + Send + Sync>) -> CampaignTask {
        self.engine = Some(engine);
        self
    }
}

/// Journal and watchdog knobs for one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Journal path; `None` runs the campaign without durability.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal (`--resume`).
    pub resume: bool,
    /// Discard any existing journal and start over (`--fresh`).
    pub fresh: bool,
    /// Re-run journaled `FAILED` checks instead of serving them
    /// (`--retry-failed`).
    pub retry_failed: bool,
    /// Watchdog hard limit as a multiple of the per-job time budget
    /// (scaled by property count for bounded checks). `0` disarms the
    /// watchdog; it is also disarmed when no time budget is configured.
    pub hang_factor: u32,
    /// Worker pool for process-isolated checks. Only consulted when the
    /// campaign config asks for [`Isolation::Subprocess`] or a fleet is
    /// attached; `None` then builds a default pool (`current_exe()
    /// worker`, limits from the config). Tests inject pools pointing at
    /// a report binary or carrying fault-injection environment.
    pub pool: Option<Arc<WorkerPool>>,
    /// Remote worker fleet (`--listen`). When set, live checks dispatch
    /// to connected `worker --connect` processes under lease-based
    /// ownership, degrading to the local pool (and in-process) when the
    /// fleet cannot answer. Never changes answers — fleet knobs stay
    /// out of `content_key`, and remote workers run the same engines on
    /// the same deterministic budgets.
    pub fleet: Option<Arc<Fleet>>,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            journal: None,
            resume: false,
            fresh: false,
            retry_failed: false,
            hang_factor: 4,
            pool: None,
            fleet: None,
        }
    }
}

impl CampaignOptions {
    /// No journal, default watchdog — the mode the plain table functions
    /// use.
    pub fn off() -> CampaignOptions {
        CampaignOptions::default()
    }
}

/// Where live checks run: in-process, on an isolated worker pool, or on
/// a remote fleet with a local pool as its fallback rung. No placement
/// changes an answer: each runs the same engines on the same budgets.
#[derive(Clone)]
pub enum Placement {
    /// In the campaign's own process.
    InProcess,
    /// One supervised worker subprocess per attempt (`--isolate`).
    Isolated(Arc<WorkerPool>),
    /// Dispatched to `worker --connect` processes (`--listen`); the pool
    /// runs what the fleet cannot answer.
    Fleet(Arc<Fleet>, Option<Arc<WorkerPool>>),
}

/// A check engine that can move to a worker thread.
pub type SharedEngine = Box<dyn CheckEngine + Send + Sync>;

impl Placement {
    /// The placement `config` and `options` ask for. One pool serves the
    /// whole campaign, so kill counts and the quarantine ledger
    /// aggregate across tasks and retries; a fleet always gets one, as
    /// its fallback rung. Without an injected pool, the pool spawns
    /// `current_exe() worker` under the config's limits.
    pub fn new(config: &CheckConfig, options: &CampaignOptions) -> Placement {
        let pool = || {
            options
                .pool
                .clone()
                .unwrap_or_else(|| Arc::new(WorkerPool::new(WorkerLimits::from_config(config))))
        };
        match &options.fleet {
            Some(fleet) => Placement::Fleet(Arc::clone(fleet), Some(pool())),
            None if config.isolation == Isolation::Subprocess => Placement::Isolated(pool()),
            None => Placement::InProcess,
        }
    }

    /// The engines one job runs here: BMC for a bounded check; for a
    /// proof, k-induction, raced against a BMC falsifier when `jobs > 1`.
    pub fn engines(&self, mode: CheckMode, jobs: usize) -> Vec<SharedEngine> {
        let wires: &[&'static str] = match mode {
            CheckMode::Check => &["bmc"],
            CheckMode::Prove if jobs > 1 => &["k-induction", "falsifier-bmc"],
            CheckMode::Prove => &["k-induction"],
        };
        wires
            .iter()
            .map(|&wire| -> SharedEngine {
                match self {
                    Placement::InProcess => wire_engine(wire).expect("built-in wire engine"),
                    Placement::Isolated(pool) => Box::new(ProcEngine::new(Arc::clone(pool), wire)),
                    Placement::Fleet(fleet, pool) => {
                        Box::new(FleetEngine::new(Arc::clone(fleet), pool.clone(), wire))
                    }
                }
            })
            .collect()
    }

    /// Runs `ft`'s check or proof on [`Placement::engines`].
    pub fn run(&self, ft: &FpvTestbench, config: &CheckConfig, mode: CheckMode) -> CheckReport {
        let engines = self.engines(mode, config.jobs);
        let engines: Vec<&dyn CheckEngine> = engines.iter().map(|e| &**e as _).collect();
        match mode {
            CheckMode::Check => ft.check_portfolio_with(config, engines[0]),
            CheckMode::Prove => ft.prove_portfolio_with(config, &engines),
        }
    }
}

/// Counters describing how a campaign's rows were produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Rows served from the journal (including skipped failures).
    pub cached: u64,
    /// Rows produced by live checks this run.
    pub live: u64,
    /// Journaled CEXs that failed replay certification and were re-run
    /// live (counted under `live` as well).
    pub stale: u64,
    /// Live checks abandoned by the watchdog this run.
    pub hangs: u64,
    /// Journaled `FAILED` rows served without a retry (subset of
    /// `cached`; pass `--retry-failed` to re-run them).
    pub skipped_failed: u64,
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} served from cache ({} failed rows skipped), {} live ({} stale re-runs, {} hangs)",
            self.cached, self.skipped_failed, self.live, self.stale, self.hangs
        )
    }
}

/// A finished campaign: the table rows plus the journal statistics.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Table rows, in task order.
    pub rows: Vec<TableRow>,
    /// How the rows were produced.
    pub stats: CampaignStats,
}

/// Why a campaign could not start.
#[derive(Debug)]
pub enum CampaignError {
    /// The journal file could not be created, read, or recovered.
    Journal(JournalError),
    /// A journal exists at the path but neither `--resume` nor `--fresh`
    /// was given; refusing to guess whether to reuse or destroy it.
    ExistsWithoutResume(PathBuf),
    /// The journal was written under a different check configuration;
    /// its cached answers would not match this campaign's questions.
    FingerprintMismatch {
        /// Fingerprint of the current configuration.
        expected: u64,
        /// Fingerprint pinned in the journal header.
        found: u64,
    },
    /// The journal belongs to a different campaign (`table1` journal
    /// passed to `report_table2`, ...).
    RootMismatch {
        /// This campaign's name.
        expected: String,
        /// Campaign name pinned in the journal header.
        found: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "{e}"),
            CampaignError::ExistsWithoutResume(path) => write!(
                f,
                "journal {} already exists: pass --resume to continue it or --fresh to discard it",
                path.display()
            ),
            CampaignError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal was written under a different check configuration \
                 (fingerprint {found:016x}, current {expected:016x}); \
                 re-run with the original flags or pass --fresh"
            ),
            CampaignError::RootMismatch { expected, found } => write!(
                f,
                "journal belongs to campaign `{found}`, not `{expected}`; \
                 pass a different --journal path or --fresh"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> CampaignError {
        CampaignError::Journal(e)
    }
}

/// Journal handle plus the recovered check cache, shared by the workers.
struct SharedJournal {
    journal: Mutex<Journal>,
    /// Recovered entries by content key; for re-run checks the latest
    /// record wins.
    cache: HashMap<ContentKey, JournalEntry>,
}

/// Where one check's answer is journaled: its content key, the record id
/// (`V5`, or `V5:<cluster label>` for one cluster of a decomposed check)
/// and the mode.
struct Slot {
    key: ContentKey,
    id: String,
    mode: CheckMode,
}

#[derive(Default)]
struct Counters {
    cached: AtomicU64,
    live: AtomicU64,
    stale: AtomicU64,
    hangs: AtomicU64,
    skipped_failed: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> CampaignStats {
        CampaignStats {
            cached: self.cached.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            hangs: self.hangs.load(Ordering::Relaxed),
            skipped_failed: self.skipped_failed.load(Ordering::Relaxed),
        }
    }
}

/// Runs a campaign: fans `tasks` across `config.jobs` portfolio workers
/// (results merge in task order), each task one [`Campaign::check`] at
/// `jobs 1`, journaling each completed check when `options.journal` is
/// set. Fails fast — before any check runs — if the journal cannot be
/// opened or belongs to a different campaign or configuration.
pub fn run_campaign(
    name: &str,
    tasks: Vec<CampaignTask>,
    config: &CheckConfig,
    options: &CampaignOptions,
) -> Result<CampaignOutcome, CampaignError> {
    let campaign = Campaign::open(name, config, options)?;
    let meta: Vec<(String, String)> = tasks
        .iter()
        .map(|t| (t.id.clone(), t.description.clone()))
        .collect();
    let workers: Vec<_> = tasks
        .into_iter()
        .map(|task| {
            let campaign = &campaign;
            move || campaign.run_task(task, config)
        })
        .collect();
    let rows: Vec<TableRow> = Portfolio::new(config.jobs)
        .try_run(workers)
        .into_iter()
        .zip(meta)
        .map(|(result, (id, desc))| {
            result.unwrap_or_else(|p| TableRow::failed(id, desc, p.payload))
        })
        .collect();

    let stats = campaign.stats();
    if config.telemetry.enabled() {
        config.telemetry.gauge("journal_cache_hits", stats.cached);
        config.telemetry.gauge("journal_live_checks", stats.live);
        config.telemetry.gauge("journal_hangs", stats.hangs);
        if let Some(fleet) = &options.fleet {
            use autocc_telemetry::gauges;
            let fs = fleet.stats();
            config
                .telemetry
                .gauge(gauges::WORKERS_CONNECTED, fs.workers_seen);
            config
                .telemetry
                .gauge(gauges::WORKERS_PEAK, fs.workers_peak);
            config
                .telemetry
                .gauge(gauges::LEASES_EXPIRED, fs.leases_expired);
            config
                .telemetry
                .gauge(gauges::JOBS_REASSIGNED, fs.jobs_reassigned);
            config
                .telemetry
                .gauge(gauges::DUPLICATE_RESULTS, fs.duplicate_results);
            config.telemetry.gauge(gauges::JOBS_REMOTE, fs.jobs_remote);
            config
                .telemetry
                .gauge(gauges::FALLBACK_ENGAGED, fs.fallback_jobs);
        }
    }
    Ok(CampaignOutcome { rows, stats })
}

/// One campaign's shared state: the journal and its recovered cache,
/// where live checks run, the watchdog knobs, and the counters.
/// [`Campaign::check`] serves or runs one check; the report binaries call
/// it once per task through [`run_campaign`], the `autocc` CLI once for
/// its single check.
pub struct Campaign {
    options: CampaignOptions,
    journal: Option<SharedJournal>,
    placement: Placement,
    counters: Counters,
}

impl Campaign {
    /// Opens campaign `name` under `config`: the journal, when
    /// `options.journal` names one, per the `--resume`/`--fresh` policy,
    /// and the placement of live checks. Fails if the journal cannot be
    /// opened or belongs to a different campaign or configuration.
    pub fn open(
        name: &str,
        config: &CheckConfig,
        options: &CampaignOptions,
    ) -> Result<Campaign, CampaignError> {
        let journal = match &options.journal {
            None => None,
            Some(path) => Some(open_journal(path, name, config, options)?),
        };
        Ok(Campaign {
            options: options.clone(),
            journal,
            placement: Placement::new(config, options),
            counters: Counters::default(),
        })
    }

    /// How the checks so far were produced.
    pub fn stats(&self) -> CampaignStats {
        self.counters.snapshot()
    }

    /// Runs one task under its experiment span, at `jobs 1`.
    fn run_task(&self, task: CampaignTask, config: &CheckConfig) -> TableRow {
        let span = config.telemetry.child(SpanKind::Experiment, &task.span);
        let mut scoped = config.clone().jobs(1);
        scoped.telemetry = span.clone();
        let ft = Arc::new((task.build)());
        let (report, served) = self.check(&task.id, &ft, task.mode, task.engine, &scoped);
        span.close();
        TableRow::from_report(&task.id, &task.description, &report).cached(served)
    }

    /// Runs one check of `ft` in `mode` under `config` (`id` names its
    /// journal records). With a journal, the check is served from it when
    /// a record answers it, and otherwise runs live under the watchdog and
    /// is appended. Decomposed bounded checks journal one record per
    /// cluster, so a resume re-runs only the clusters whose cones
    /// changed; their clusters run on `config.jobs` workers, in plan
    /// order. Monolithic checks, proofs and engine overrides (the
    /// fault-injection seam, whose misbehaviour is part of the check's
    /// identity) journal one record per check. `engine` overrides the
    /// placement for bounded checks only. Returns the report and whether
    /// the journal served all of it.
    pub fn check(
        &self,
        id: &str,
        ft: &Arc<FpvTestbench>,
        mode: CheckMode,
        engine: Option<Arc<dyn CheckEngine + Send + Sync>>,
        config: &CheckConfig,
    ) -> (CheckReport, bool) {
        let engine = engine.filter(|_| mode == CheckMode::Check);
        if let Some(journal) = &self.journal {
            if mode == CheckMode::Check && engine.is_none() {
                if let Some(plan) = ft.cluster_plan(config) {
                    return self.check_clusters(journal, id, ft, plan, config);
                }
            }
        }
        let live = |attempt| {
            // A bounded check's properties deepen one after another, each
            // with its own time budget.
            let serial = match mode {
                CheckMode::Check => ft.properties().len(),
                CheckMode::Prove => 1,
            };
            let (ft, run_config, placement) =
                (Arc::clone(ft), config.clone(), self.placement.clone());
            let solve = move || match engine {
                Some(engine) => ft.check_portfolio_with(&run_config, &*engine),
                None => placement.run(&ft, &run_config, mode),
            };
            self.run_live(config, attempt, serial, String::new(), Vec::new(), solve)
        };
        let Some(journal) = &self.journal else {
            return (live(1).0, false);
        };
        let slot = Slot {
            key: content_key(ft.miter(), ft.properties(), ft.constraints(), config, mode),
            id: id.to_string(),
            mode,
        };
        self.serve_or_run(journal, slot, ft, config, live)
    }

    /// The per-cluster path of [`Campaign::check`]: every cluster of
    /// `plan` served or run as a record of its own, then merged. Every
    /// cluster runs on the one engine of the placement; the keys share
    /// the plan's blast, and so do the jobs if that engine answers in
    /// this process ([`ClusterPlan::release_blast_for`]).
    fn check_clusters(
        &self,
        journal: &SharedJournal,
        id: &str,
        ft: &Arc<FpvTestbench>,
        mut plan: ClusterPlan,
        config: &CheckConfig,
    ) -> (CheckReport, bool) {
        let keys = ft.cluster_keys(&plan, config, CheckMode::Check);
        let engines: Arc<[SharedEngine]> = self.placement.engines(CheckMode::Check, 1).into();
        plan.release_blast_for(&*engines[0]);
        let checks: Vec<_> = plan
            .clusters
            .iter()
            .zip(keys)
            .map(|(cluster, key)| {
                let slot = Slot {
                    key,
                    id: format!("{id}:{}", cluster.label),
                    mode: CheckMode::Check,
                };
                let (blast, engines) = (plan.blast.clone(), Arc::clone(&engines));
                move || {
                    let live = |attempt| {
                        // The members share one solve, but its depth still
                        // deepens per violation candidate: the hard limit
                        // scales by member count.
                        let members: Vec<String> = cluster
                            .members
                            .iter()
                            .map(|&i| ft.properties()[i].0.clone())
                            .collect();
                        let scope = format!("cluster {}: ", cluster.label);
                        let (ft, cluster, run_config) =
                            (Arc::clone(ft), cluster.clone(), config.clone());
                        let solve = move || {
                            ft.check_cluster(&cluster, blast.as_ref(), &run_config, &*engines[0])
                        };
                        self.run_live(config, attempt, members.len(), scope, members, solve)
                    };
                    self.serve_or_run(journal, slot, ft, config, live)
                }
            })
            .collect();
        let results = Portfolio::new(config.jobs).run(checks);
        let served = results.iter().all(|(_, served)| *served);
        let reports = results.into_iter().map(|(report, _)| report).collect();
        (ft.merge_cluster_reports(&plan, reports, config), served)
    }

    /// The journal's serve-and-append policy for one record: the record
    /// in `slot` serves the check when [`Campaign::serve_cached`] accepts
    /// it; otherwise `live` runs (given its attempt number) and its report
    /// is appended under `slot`. Returns the report and whether it was
    /// served.
    fn serve_or_run(
        &self,
        journal: &SharedJournal,
        slot: Slot,
        ft: &FpvTestbench,
        config: &CheckConfig,
        live: impl FnOnce(u32) -> (CheckReport, bool),
    ) -> (CheckReport, bool) {
        let cached = journal.cache.get(&slot.key);
        if let Some(report) = self.serve_cached(cached, ft, config) {
            return (report, true);
        }
        let attempt = cached.map_or(1, |e| e.attempt + 1);
        let (report, hung) = live(attempt);
        let entry = JournalEntry {
            key: slot.key,
            id: slot.id,
            mode: slot.mode,
            engine: if hung { "watchdog" } else { "portfolio" }.to_string(),
            attempt,
            report,
        };
        // An append failure costs only the durability of this record: the
        // check re-runs on resume.
        match journal.journal.lock() {
            Ok(mut handle) => {
                if let Err(e) = handle.append(&entry) {
                    eprintln!(
                        "warning: journal append failed for {}: {e}; \
                         this check will re-run on resume",
                        entry.id
                    );
                }
            }
            Err(_) => eprintln!(
                "warning: journal poisoned by a panicked worker; \
                 {} will re-run on resume",
                entry.id
            ),
        }
        (entry.report, false)
    }

    /// Decides whether a journaled entry can answer this check. Returns
    /// the report to serve, or `None` to run live.
    fn serve_cached(
        &self,
        cached: Option<&JournalEntry>,
        ft: &FpvTestbench,
        config: &CheckConfig,
    ) -> Option<CheckReport> {
        let entry = cached?;
        let failed = matches!(entry.report.outcome, AutoCcOutcome::Failed { .. });
        if failed && self.options.retry_failed {
            return None;
        }
        // Under --certify a conclusive verdict must carry a certificate. A
        // cached row recorded without one (an uncertified campaign's
        // journal) cannot be served as certified — re-run it live to mint
        // the proof.
        let conclusive = matches!(
            entry.report.outcome,
            AutoCcOutcome::Cex(_) | AutoCcOutcome::Clean { .. } | AutoCcOutcome::Proved { .. }
        );
        if config.certify && conclusive && !entry.report.certificate.is_certified() {
            self.counters.stale.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let report = match &entry.report.outcome {
            AutoCcOutcome::Cex(cex) => {
                // Never trust a cached counterexample: replay-certify it
                // against the freshly built testbench. A journal edited or
                // produced by a diverging build re-runs instead of lying.
                let raw = autocc_bmc::Cex {
                    property: cex.property.clone(),
                    depth: cex.depth,
                    trace: cex.trace.clone(),
                };
                match ft.certify_cex(&raw) {
                    Ok(certified) => CheckReport {
                        outcome: AutoCcOutcome::Cex(Box::new(certified)),
                        elapsed: entry.report.elapsed,
                        stats: entry.report.stats,
                        verdicts: entry.report.verdicts.clone(),
                        certificate: entry.report.certificate,
                    },
                    Err(failure) => {
                        eprintln!(
                            "journal: cached CEX for {} failed certification ({}); re-running",
                            entry.id, failure.detail
                        );
                        self.counters.stale.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
            }
            _ => entry.report.clone(),
        };
        // Telemetry marks the row as replayed, not solved.
        let replay = config.telemetry.child(SpanKind::Phase, "journal-replay");
        replay.gauge("journal_cached", 1);
        replay.close();
        self.counters.cached.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.counters.skipped_failed.fetch_add(1, Ordering::Relaxed);
        }
        Some(report)
    }

    /// Runs `solve` live, under the supervisor watchdog when armed: a hard
    /// limit of `hang_factor` times the time budget, times `serial` (the
    /// properties that each get the budget in turn). A limit past what a
    /// `Duration` holds is no limit. The watchdog abandons a wedged solve
    /// by detaching its thread — a deliberate leak of the testbench it
    /// holds, traded for letting the campaign proceed. A hang reads FAILED
    /// (hang), its detail led by `scope` and its verdict map marking
    /// `members` failed. Returns the report and whether the watchdog
    /// fired.
    fn run_live(
        &self,
        config: &CheckConfig,
        attempt: u32,
        serial: usize,
        scope: String,
        members: Vec<String>,
        solve: impl FnOnce() -> CheckReport + Send + 'static,
    ) -> (CheckReport, bool) {
        self.counters.live.fetch_add(1, Ordering::Relaxed);
        let factor = self.options.hang_factor;
        let serial = u32::try_from(serial.max(1)).unwrap_or(u32::MAX);
        let limit = config
            .time_budget
            .filter(|_| factor >= 1)
            .and_then(|budget| budget.checked_mul(factor)?.checked_mul(serial));
        let Some(limit) = limit else {
            return (solve(), false);
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve));
            let _ = tx.send(result);
        });
        match rx.recv_timeout(limit) {
            Ok(Ok(report)) => return (report, false),
            // Re-raise on the worker so the portfolio's panic containment
            // renders the row FAILED exactly as it would without a
            // watchdog.
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(_) => {}
        }
        self.counters.hangs.fetch_add(1, Ordering::Relaxed);
        let failure = JobFailure {
            engine: "watchdog".to_string(),
            property: None,
            depth: 0,
            reason: FailureReason::Hang,
            detail: format!(
                "{scope}no result within {factor}x the configured time budget \
                 ({}s hard limit)",
                limit.as_secs()
            ),
            attempts: attempt,
        };
        let report = CheckReport {
            outcome: AutoCcOutcome::Failed {
                failures: vec![failure],
            },
            elapsed: limit,
            stats: SolverCounters::default(),
            verdicts: members
                .into_iter()
                .map(|name| (name, PropertyVerdict::Failed))
                .collect(),
            certificate: CertificateStatus::Uncertified,
        };
        (report, true)
    }
}

/// Opens the campaign journal per the `--resume`/`--fresh` policy and
/// builds the content-addressed cache from its recovered entries.
fn open_journal(
    path: &std::path::Path,
    name: &str,
    config: &CheckConfig,
    options: &CampaignOptions,
) -> Result<SharedJournal, CampaignError> {
    let fingerprint = config_fingerprint(config);
    let header = JournalHeader {
        schema: JOURNAL_SCHEMA_VERSION,
        fingerprint,
        root: name.to_string(),
    };
    if options.fresh || !path.exists() {
        let journal = Journal::create(path, &header)?;
        return Ok(SharedJournal {
            journal: Mutex::new(journal),
            cache: HashMap::new(),
        });
    }
    if !options.resume {
        return Err(CampaignError::ExistsWithoutResume(path.to_path_buf()));
    }
    let (journal, recovered) = Journal::resume(path)?;
    if recovered.header.root != name {
        return Err(CampaignError::RootMismatch {
            expected: name.to_string(),
            found: recovered.header.root,
        });
    }
    if recovered.header.fingerprint != fingerprint {
        return Err(CampaignError::FingerprintMismatch {
            expected: fingerprint,
            found: recovered.header.fingerprint,
        });
    }
    if recovered.torn_bytes > 0 {
        eprintln!(
            "journal {}: discarded a torn final record ({} bytes); its check will re-run",
            path.display(),
            recovered.torn_bytes
        );
    }
    let mut cache = HashMap::new();
    for entry in recovered.entries {
        cache.insert(entry.key, entry);
    }
    Ok(SharedJournal {
        journal: Mutex::new(journal),
        cache,
    })
}
