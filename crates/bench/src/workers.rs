//! Process-isolated check execution: a [`CheckEngine`] that runs each
//! attempt in a supervised worker subprocess, and the supervision both
//! `--isolate` and the remote fleet share.
//!
//! In-process fault containment (panic catching, in-solver budgets) can
//! not survive the faults that kill the *process*: an OOM kill, a
//! runaway allocation, an `abort` in a dependency, a wedged solver that
//! stops polling its budgets. [`ProcEngine`] moves the blast radius of
//! one check attempt into a child process that speaks the
//! [`autocc_journal::ipc`] dialect on its stdio. [`watch_job`] watches
//! a dispatched job for heartbeats and RSS on either transport, and maps
//! every way a worker can be lost onto the failure taxonomy
//! ([`FailureReason::WorkerDied`], [`FailureReason::MemoryLimit`],
//! [`FailureReason::Hang`]) so a dead worker degrades one table row and
//! nothing else.
//!
//! The [`WorkerPool`] holds the policy shared by every isolated attempt
//! — worker command line, resource limits, and the **quarantine**
//! ledger: a check (identified by its [`content_key`], the same
//! identity the journal uses) that kills `quarantine_after` workers is
//! presumed check-shaped poison, not worker bad luck. Further attempts
//! short-circuit to [`FailureReason::Quarantined`] without spawning
//! anything, the journal records the quarantine durably, and `--resume`
//! skips it while `--retry-failed` reopens it.
//!
//! Isolation never changes answers — the worker runs the same engine on
//! the same spec with the same deterministic budgets — so
//! `content_key`/`config_fingerprint` deliberately exclude every knob in
//! here, and journals interoperate across `--isolate` modes.

use autocc_bmc::{
    content_key, CancelToken, CheckConfig, CheckEngine, CheckMode, CheckSpec, ContentKey,
    EngineOutcome, EngineRun, FailureReason, JobFailure, UnknownCause,
};
use autocc_journal::ipc::{
    ack_json, job_json, parse_worker_message, request_json, wire_engine, write_frame, FrameReader,
    Polled, WorkerMessage,
};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Resource limits and supervision policy for workers, local or remote.
#[derive(Clone, Copy, Debug)]
pub struct WorkerLimits {
    /// RSS ceiling per worker, in MiB; `None` = unlimited. Enforced from
    /// the parent on every heartbeat, so a worker past the limit is
    /// killed within one heartbeat period.
    pub memory_limit_mb: Option<u64>,
    /// Expected heartbeat period, in milliseconds.
    pub heartbeat_ms: u64,
    /// A worker silent for `heartbeat_ms * stall_factor` is declared
    /// wedged and killed.
    pub stall_factor: u64,
    /// A check that kills this many workers is quarantined.
    pub quarantine_after: u32,
}

impl Default for WorkerLimits {
    fn default() -> WorkerLimits {
        WorkerLimits {
            memory_limit_mb: None,
            heartbeat_ms: 250,
            stall_factor: 20,
            quarantine_after: 2,
        }
    }
}

impl WorkerLimits {
    /// Limits derived from a check config's isolation knobs.
    pub fn from_config(config: &CheckConfig) -> WorkerLimits {
        WorkerLimits {
            memory_limit_mb: config.memory_limit_mb,
            heartbeat_ms: config.heartbeat_ms.max(1),
            ..WorkerLimits::default()
        }
    }

    /// How long a worker may stay silent before it counts as wedged.
    fn stall_limit(&self) -> Duration {
        Duration::from_millis(self.heartbeat_ms.max(1).saturating_mul(self.stall_factor))
    }
}

/// Mutex access that shrugs off poisoning: supervisor bookkeeping must
/// stay usable even if some other attempt panicked mid-update.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Per-check worker kill counts, keyed by [`content_key`]. A check whose
/// count reaches `quarantine_after` is quarantined.
#[derive(Debug)]
pub(crate) struct KillLedger {
    quarantine_after: u32,
    kills: Mutex<HashMap<ContentKey, u32>>,
}

impl KillLedger {
    pub(crate) fn new(quarantine_after: u32) -> KillLedger {
        KillLedger {
            quarantine_after,
            kills: Mutex::new(HashMap::new()),
        }
    }

    /// Records that a worker running `key` was lost (died, broke
    /// protocol, stalled, or exceeded memory — not a lease expiry).
    /// Returns the updated kill count.
    pub(crate) fn record(&self, key: ContentKey) -> u32 {
        let mut kills = lock_clean(&self.kills);
        let count = kills.entry(key).or_insert(0);
        *count += 1;
        *count
    }

    /// Whether no worker has been lost yet: an empty ledger quarantines
    /// nothing, whatever the key.
    fn is_empty(&self) -> bool {
        lock_clean(&self.kills).is_empty()
    }

    /// Whether `key` has killed enough workers to be quarantined.
    pub(crate) fn is_quarantined(&self, key: ContentKey) -> bool {
        lock_clean(&self.kills)
            .get(&key)
            .is_some_and(|&n| n >= self.quarantine_after)
    }

    fn quarantined_count(&self) -> usize {
        lock_clean(&self.kills)
            .values()
            .filter(|&&n| n >= self.quarantine_after)
            .count()
    }
}

/// Shared supervisor state for a campaign's isolated workers: how to
/// spawn them, how hard to police them, and which checks are quarantined.
#[derive(Debug)]
pub struct WorkerPool {
    limits: WorkerLimits,
    command: PathBuf,
    env: Vec<(String, String)>,
    ledger: KillLedger,
}

impl WorkerPool {
    /// A pool spawning `current_exe() worker` — the hidden subcommand
    /// every report binary answers (see `maybe_run_worker`).
    pub fn new(limits: WorkerLimits) -> WorkerPool {
        let command = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("autocc"));
        WorkerPool {
            limits,
            command,
            env: Vec::new(),
            ledger: KillLedger::new(limits.quarantine_after),
        }
    }

    /// Overrides the worker executable (tests point this at a report
    /// binary; the default is the current executable).
    pub fn with_command(mut self, command: impl Into<PathBuf>) -> WorkerPool {
        self.command = command.into();
        self
    }

    /// Adds an environment variable to every spawned worker. The
    /// fault-injection suite uses this for `AUTOCC_WORKER_FAULT` instead
    /// of mutating the test process's own environment.
    pub fn with_env(mut self, key: &str, value: &str) -> WorkerPool {
        self.env.push((key.to_string(), value.to_string()));
        self
    }

    /// The pool's supervision policy.
    pub fn limits(&self) -> WorkerLimits {
        self.limits
    }

    /// Whether `key` has been quarantined.
    pub fn is_quarantined(&self, key: ContentKey) -> bool {
        self.ledger.is_quarantined(key)
    }

    /// Number of quarantined checks so far.
    pub fn quarantined_count(&self) -> usize {
        self.ledger.quarantined_count()
    }

    fn spawn(&self) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.command);
        cmd.arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in &self.env {
            cmd.env(k, v);
        }
        cmd.spawn()
    }
}

// ---------------------------------------------------------------------
// Supervision, shared by `--isolate` and the fleet
// ---------------------------------------------------------------------

/// Why a worker was lost: the failure reason and its detail.
pub(crate) type Loss = (FailureReason, String);

/// How watching a worker ended.
pub(crate) enum Watched {
    /// The worker answered the dispatched job.
    Answered(EngineRun),
    /// The caller asked to stop watching (cancellation, shutdown).
    Stopped,
    /// The worker is lost — it died, broke protocol, went silent, or
    /// exceeded the RSS ceiling — and counts as killed by its check.
    Lost(Loss),
}

fn died(cause: impl std::fmt::Display) -> Loss {
    (FailureReason::WorkerDied, cause.to_string())
}

fn silent(for_: Duration) -> Loss {
    let detail = format!(
        "worker heartbeat silent for {} ms; killed",
        for_.as_millis()
    );
    (FailureReason::Hang, detail)
}

const NO_RESULT: &str = "worker exited without a result frame";

/// Reads a worker's `hello`, the first frame on every stream, waiting
/// at most `within`; `Err` says how the worker was lost instead.
pub(crate) fn await_hello(reader: &mut FrameReader, within: Duration) -> Result<(), Loss> {
    match reader.poll_frame(within) {
        Ok(Polled::Frame(frame)) => match parse_worker_message(&frame) {
            Ok(WorkerMessage::Hello { .. }) => Ok(()),
            Ok(_) => Err(died("malformed worker frame: expected hello")),
            Err(e) => Err(died(format!("malformed worker frame: {e}"))),
        },
        Ok(Polled::Timeout) => Err(silent(within)),
        Ok(Polled::Eof) => Err(died(NO_RESULT)),
        Err(e) => Err(died(format!("{NO_RESULT}: {e}"))),
    }
}

/// Watches dispatched job `job` on `reader` until the worker answers it
/// or is lost: dead stream, protocol violation, a heartbeat silence past
/// the stall limit, or an RSS reading past the ceiling. `stop` runs
/// before every poll and ends the watch when it returns true; it is
/// also where a fleet expires leases. Frames answering another job id
/// are stale: heartbeats still prove liveness, results go to `stale`.
pub(crate) fn watch_job(
    reader: &mut FrameReader,
    job: u64,
    limits: &WorkerLimits,
    rss_peak_kb: &mut u64,
    mut stop: impl FnMut() -> bool,
    mut stale: impl FnMut(),
) -> Watched {
    let quantum = Duration::from_millis(limits.heartbeat_ms.clamp(1, 100));
    let stall_limit = limits.stall_limit();
    let mut last_beat = Instant::now();
    loop {
        if stop() {
            return Watched::Stopped;
        }
        if last_beat.elapsed() > stall_limit {
            return Watched::Lost(silent(last_beat.elapsed()));
        }
        let frame = match reader.poll_frame(quantum) {
            Ok(Polled::Frame(frame)) => frame,
            Ok(Polled::Timeout) => continue,
            Ok(Polled::Eof) => return Watched::Lost(died(NO_RESULT)),
            Err(e) => return Watched::Lost(died(format!("{NO_RESULT}: {e}"))),
        };
        match parse_worker_message(&frame) {
            Ok(WorkerMessage::Heartbeat { job: id, rss_kb }) => {
                last_beat = Instant::now();
                let Some(rss_kb) = rss_kb.filter(|_| id == job) else {
                    continue;
                };
                *rss_peak_kb = (*rss_peak_kb).max(rss_kb);
                if let Some(limit_mb) = limits.memory_limit_mb {
                    if rss_kb > limit_mb.saturating_mul(1024) {
                        let detail =
                            format!("worker RSS {rss_kb} KiB exceeded the {limit_mb} MiB limit");
                        return Watched::Lost((FailureReason::MemoryLimit, detail));
                    }
                }
            }
            Ok(WorkerMessage::Result { job: id, run }) if id == job => {
                return Watched::Answered(run)
            }
            Ok(WorkerMessage::Result { .. }) => stale(),
            Ok(WorkerMessage::Hello { .. }) => {
                return Watched::Lost(died("malformed worker frame: hello in mid-job"))
            }
            Err(e) => return Watched::Lost(died(format!("malformed worker frame: {e}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Wire engines
// ---------------------------------------------------------------------

/// The report name of a wire engine (see [`wire_engine`]): a falsifier
/// reports as the engine it wraps.
pub(crate) fn wire_name(wire: &str) -> &'static str {
    wire_engine(wire).map_or("unknown", |engine| engine.name())
}

/// The mode a wire engine's content key is computed in: BMC answers a
/// bounded check, the other engines take part in a proof.
pub(crate) fn wire_mode(wire: &str) -> CheckMode {
    if wire == "bmc" {
        CheckMode::Check
    } else {
        CheckMode::Prove
    }
}

/// A local worker serves one job, so its job id is fixed.
const LOCAL_JOB: u64 = 1;

/// A [`CheckEngine`] that runs each attempt in a supervised subprocess.
///
/// Same trait, same determinism, different blast radius: `check` ships
/// the spec to a worker, supervises it, and maps worker death onto
/// [`EngineOutcome::Failed`] instead of taking down the campaign.
/// Worker-killing retries are handled *here* (the in-process retry loop
/// only sees the final mapped outcome), so `attempts` in a reported
/// failure counts real subprocess attempts.
#[derive(Clone)]
pub struct ProcEngine {
    pool: Arc<WorkerPool>,
    wire: &'static str,
}

impl ProcEngine {
    /// Isolated BMC: the engine behind `--isolate` check campaigns.
    pub fn for_check(pool: Arc<WorkerPool>) -> ProcEngine {
        ProcEngine::new(pool, "bmc")
    }

    /// Isolated k-induction for prove campaigns.
    pub fn for_prove(pool: Arc<WorkerPool>) -> ProcEngine {
        ProcEngine::new(pool, "k-induction")
    }

    /// Isolated falsifier (BMC hunting a counterexample inside a proof
    /// race; reports as "bmc", like its in-process counterpart).
    pub fn falsifier(pool: Arc<WorkerPool>) -> ProcEngine {
        ProcEngine::new(pool, "falsifier-bmc")
    }

    /// The isolated form of wire engine `wire`.
    pub(crate) fn new(pool: Arc<WorkerPool>, wire: &'static str) -> ProcEngine {
        ProcEngine { pool, wire }
    }

    fn failure(&self, reason: FailureReason, detail: String, attempts: u32) -> EngineRun {
        EngineRun::from(EngineOutcome::Failed(JobFailure {
            engine: wire_name(self.wire).to_string(),
            property: None,
            depth: 0,
            reason,
            detail,
            attempts,
        }))
    }

    /// Runs one job on a fresh worker: spawn, hello, dispatch, watch,
    /// reap. The child is reaped before this returns, so its blast
    /// radius and its RSS reading stay this attempt's own. `Err` means
    /// no worker could be spawned.
    fn run_attempt(
        &self,
        request: autocc_journal::json::Json,
        cancel: &CancelToken,
        rss_peak_kb: &mut u64,
    ) -> std::io::Result<Watched> {
        let limits = self.pool.limits;
        let mut child = self.pool.spawn()?;
        let (Some(mut stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Ok(Watched::Lost(died("worker stdio was not captured")));
        };
        let mut reader = FrameReader::pipe(stdout);
        let watched = match await_hello(&mut reader, limits.stall_limit()) {
            Err(loss) => Watched::Lost(loss),
            Ok(()) => {
                // A write error means the worker is already dying; the
                // watch observes the same death.
                let _ = write_frame(&mut stdin, &job_json(LOCAL_JOB, None, request));
                let stop = || cancel.is_cancelled();
                watch_job(&mut reader, LOCAL_JOB, &limits, rss_peak_kb, stop, || {})
            }
        };
        if let Watched::Answered(_) = watched {
            // Ack, then close stdin: the worker exits after its job.
            let _ = write_frame(&mut stdin, &ack_json(LOCAL_JOB));
            drop(stdin);
        } else {
            let _ = child.kill();
        }
        let status = child
            .wait()
            .map(|s| s.to_string())
            .unwrap_or_else(|e| format!("unwaitable: {e}"));
        Ok(match watched {
            Watched::Lost((FailureReason::WorkerDied, detail)) => {
                Watched::Lost((FailureReason::WorkerDied, format!("{detail} ({status})")))
            }
            other => other,
        })
    }

    /// [`CheckEngine::check`] on the pool; `Err` means not even the first
    /// worker could be spawned, so nothing ran and no kill was counted.
    pub(crate) fn try_check(
        &self,
        spec: &CheckSpec<'_>,
        config: &CheckConfig,
        cancel: &CancelToken,
    ) -> std::io::Result<EngineRun> {
        let limits = self.pool.limits;
        // The key blasts the whole miter, so it is computed at most once,
        // and only when there is a ledger entry to consult or a lost
        // worker to record.
        let key_cell = OnceCell::new();
        let key = || {
            *key_cell.get_or_init(|| {
                content_key(
                    spec.module,
                    &spec.properties,
                    &spec.constraints,
                    config,
                    wire_mode(self.wire),
                )
            })
        };
        if !self.pool.ledger.is_empty() && self.pool.is_quarantined(key()) {
            return Ok(self.failure(
                FailureReason::Quarantined,
                format!(
                    "check quarantined after killing {} worker(s); \
                     --retry-failed reopens it",
                    limits.quarantine_after
                ),
                0,
            ));
        }

        let telemetry = &config.telemetry;
        let policy = config.retry_policy();
        let mut spawned = 0u32;
        let mut rss_peak_kb = 0u64;
        let mut counters_total = autocc_telemetry::SolverCounters::default();
        let mut run = loop {
            let attempt = spawned;
            let wire_config = config
                .clone()
                .conflicts(policy.escalated_budget(config.conflict_budget, attempt))
                .heartbeat_ms(limits.heartbeat_ms.max(1));
            let request = request_json(
                self.wire,
                spec.module,
                &spec.properties,
                &spec.constraints,
                &wire_config,
            );
            let watched = match self.run_attempt(request, cancel, &mut rss_peak_kb) {
                Ok(watched) => watched,
                Err(e) if spawned == 0 => return Err(e),
                Err(e) => {
                    let detail = format!("failed to spawn worker: {e}");
                    break self.failure(FailureReason::WorkerDied, detail, spawned);
                }
            };
            spawned += 1;
            let (reason, detail) = match watched {
                Watched::Answered(run) => {
                    counters_total.add(&run.counters);
                    // A worker that *answered* FAILED(panic) is a healthy
                    // process reporting a contained engine fault; retry it
                    // like the in-process scheduler retries panics.
                    let panicked = matches!(
                        &run.outcome,
                        EngineOutcome::Failed(f) if f.reason == FailureReason::Panic
                    );
                    if panicked && attempt < policy.max_retries {
                        continue;
                    }
                    break run;
                }
                Watched::Stopped => {
                    break EngineRun::from(EngineOutcome::Unknown {
                        depth: 0,
                        cause: UnknownCause::Cancelled,
                    });
                }
                Watched::Lost(loss) => loss,
            };

            // The worker was lost: quarantine bookkeeping, then retry or
            // give up.
            let kill_count = self.pool.ledger.record(key());
            if kill_count >= limits.quarantine_after {
                break self.failure(
                    FailureReason::Quarantined,
                    format!(
                        "quarantined: {kill_count} workers killed by this check \
                         (last: {detail})"
                    ),
                    spawned,
                );
            }
            if attempt < policy.max_retries {
                continue; // respawn and requeue the same attempt
            }
            break self.failure(reason, detail, spawned);
        };

        if telemetry.enabled() {
            telemetry.gauge("worker_spawned", u64::from(spawned));
            if spawned > 1 {
                telemetry.gauge("worker_respawns", u64::from(spawned - 1));
            }
            if rss_peak_kb > 0 {
                telemetry.gauge("worker_rss_peak_kb", rss_peak_kb);
            }
        }
        if let EngineOutcome::Failed(f) = &mut run.outcome {
            f.attempts = f.attempts.max(spawned);
        }
        run.counters = counters_total;
        Ok(run)
    }
}

impl CheckEngine for ProcEngine {
    fn name(&self) -> &'static str {
        wire_name(self.wire)
    }

    /// The worker is sent the module and blasts it itself.
    fn in_process(&self) -> bool {
        false
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        self.try_check(spec, config, cancel).unwrap_or_else(|e| {
            self.failure(
                FailureReason::WorkerDied,
                format!("failed to spawn worker: {e}"),
                1,
            )
        })
    }
}

/// Dispatches the hidden `worker` subcommand: every report binary (and
/// the `autocc` CLI) calls this first thing in `main`, so any of them
/// can serve as the worker executable for its own isolated campaign
/// (`worker`, on stdio) or attach to a remote fleet supervisor over TCP
/// (`worker --connect <addr>`). Both run the one serve loop. Never
/// returns when invoked as a worker: exits 0 once the supervisor hangs
/// up, 70 when a stdio worker broke, 69 when the fleet was unreachable
/// or the connection broke irrecoverably.
///
/// Remote form:
/// `worker --connect HOST:PORT [--backoff-ms N] [--backoff-max-ms N]
///  [--max-retries N]`
pub fn maybe_run_worker() {
    use autocc_journal::ipc::{run_remote_worker, serve};
    if std::env::args().nth(1).as_deref() != Some("worker") {
        return;
    }
    let rest: Vec<String> = std::env::args().skip(2).collect();
    let (served, broken) = if rest.is_empty() {
        let stdin = FrameReader::pipe(std::io::stdin());
        (serve(stdin, std::io::stdout()), 70)
    } else {
        (run_remote_worker(&parse_connect_args(&rest)), 69)
    };
    match served {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker: {e}");
            std::process::exit(broken);
        }
    }
}

fn parse_connect_args(rest: &[String]) -> autocc_journal::ipc::RemoteWorkerOptions {
    let mut opts = autocc_journal::ipc::RemoteWorkerOptions::default();
    let die = |msg: &str| -> ! {
        eprintln!("worker: {msg}");
        eprintln!(
            "usage: worker [--connect HOST:PORT [--backoff-ms N] \
             [--backoff-max-ms N] [--max-retries N]]"
        );
        std::process::exit(64);
    };
    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        let value_u64 = |i: &mut usize| -> u64 {
            *i += 1;
            match rest.get(*i).and_then(|v| v.parse().ok()) {
                Some(v) => v,
                None => die(&format!("{arg} needs a number")),
            }
        };
        match arg {
            "--connect" => {
                i += 1;
                match rest.get(i) {
                    Some(addr) => opts.addr = addr.clone(),
                    None => die("--connect needs HOST:PORT"),
                }
            }
            "--backoff-ms" => opts.backoff_base_ms = value_u64(&mut i).max(1),
            "--backoff-max-ms" => opts.backoff_max_ms = value_u64(&mut i).max(1),
            "--max-retries" => opts.max_connect_attempts = Some(value_u64(&mut i).max(1)),
            other => die(&format!("unknown worker flag `{other}`")),
        }
        i += 1;
    }
    if opts.addr.is_empty() {
        die("remote mode needs --connect HOST:PORT");
    }
    opts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_quarantines_at_the_threshold_and_only_after_a_kill() {
        let key = ContentKey(7);
        let ledger = KillLedger::new(2);
        assert!(!ledger.is_quarantined(key));
        assert_eq!(ledger.record(key), 1);
        assert!(!ledger.is_quarantined(key));
        assert_eq!(ledger.record(key), 2);
        assert!(ledger.is_quarantined(key));
        assert_eq!(ledger.quarantined_count(), 1);
        // A zero threshold still needs one kill before it quarantines.
        let eager = KillLedger::new(0);
        assert!(!eager.is_quarantined(key));
        eager.record(key);
        assert!(eager.is_quarantined(key));
    }
}
