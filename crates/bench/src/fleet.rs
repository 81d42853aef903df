//! Fault-tolerant remote worker fleet: a TCP listener that hands check
//! jobs to `worker --connect` processes under **lease-based ownership**,
//! with deterministic re-dispatch when workers vanish and graceful
//! degradation to local execution when the fleet drains.
//!
//! The design centers on three invariants:
//!
//! - **Leases, not trust.** Every dispatched job carries a lease derived
//!   from its own time budget (`time_budget × lease_factor × #props`).
//!   A worker that misses its lease — or stops heartbeating, or whose
//!   connection drops or half-opens — loses ownership and the job goes
//!   back on the queue for re-dispatch. The supervisor never waits
//!   indefinitely on any single worker.
//! - **At-most-once results.** Each job carries a generation counter,
//!   bumped on every (re-)claim. A result is accepted only when its
//!   sender still owns the current generation and nothing was delivered
//!   yet; a re-assigned job whose original worker resurfaces late is
//!   counted as a duplicate and dropped, so positional results cannot
//!   be corrupted by double-reports.
//! - **Degrade, never stall.** When no workers are connected (or a job
//!   exhausts its remote attempts, or its check quarantines out), the
//!   job resolves to [`FleetVerdict::Fallback`] and [`FleetEngine`]
//!   reruns it on the local [`ProcEngine`] pool — and, if even local
//!   spawning fails, in-process. Remote execution runs the same engines
//!   on the same deterministic budgets, so the degradation ladder never
//!   changes answers: `--stable` tables stay byte-identical to local
//!   mode under any interleaving of deaths, partitions, and reconnects.
//!
//! None of the fleet knobs participate in `content_key` /
//! `config_fingerprint`: journals written by fleet campaigns
//! interoperate with local ones, exactly like `--isolate`.

use crate::workers::{
    await_hello, lock_clean, watch_job, wire_mode, wire_name, KillLedger, ProcEngine, Watched,
    WorkerLimits, WorkerPool,
};
use autocc_bmc::{
    content_key, CancelToken, CheckConfig, CheckEngine, CheckSpec, ContentKey, EngineOutcome,
    EngineRun, FailureReason, UnknownCause,
};
use autocc_journal::ipc::{
    ack_json, job_json, request_json, split_connection, wire_engine, write_frame, FrameReader,
    Polled,
};
use autocc_journal::json::Json;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Policy knobs for a fleet supervisor.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Lease = `time_budget × lease_factor × max(1, #properties)`. The
    /// slack absorbs honest slowness (engine startup, network) without
    /// letting one silent worker pin a job forever.
    pub lease_factor: u64,
    /// Lease when the check has no time budget.
    pub default_lease: Duration,
    /// With zero workers connected, a job queued longer than this falls
    /// back to local execution instead of waiting for an attach.
    pub fallback_grace: Duration,
    /// A job re-dispatched this many times without a delivered result
    /// resolves to fallback; remote retry must terminate.
    pub max_remote_attempts: u32,
    /// A connection that has not sent its `hello` within this window is
    /// dropped (half-open sockets must not hold agent threads).
    pub hello_deadline: Duration,
    /// Heartbeat/stall/RSS/quarantine policy, shared with `--isolate`.
    pub limits: WorkerLimits,
}

impl FleetConfig {
    /// The lease for one dispatch of work with `time_budget` per
    /// property over `props` properties. Saturates rather than wraps, so
    /// a huge factor means a long lease, never an instant expiry.
    fn lease(&self, time_budget: Option<Duration>, props: usize) -> Duration {
        let clamp = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
        match time_budget {
            Some(tb) => tb
                .saturating_mul(clamp(self.lease_factor.max(1)))
                .saturating_mul(clamp(props.max(1) as u64)),
            None => self.default_lease,
        }
    }
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            lease_factor: 4,
            default_lease: Duration::from_secs(600),
            fallback_grace: Duration::from_secs(2),
            max_remote_attempts: 3,
            hello_deadline: Duration::from_secs(10),
            limits: WorkerLimits::default(),
        }
    }
}

/// How a submitted job resolved.
#[derive(Debug)]
pub enum FleetVerdict {
    /// A remote worker answered; the run is exactly what a local engine
    /// would have produced.
    Remote(EngineRun),
    /// The fleet could not (or should not) answer remotely; the reason
    /// is diagnostic. The caller reruns locally.
    Fallback(String),
}

/// One job's supervised state. Lock ordering: never take the fleet's
/// shared lock while holding a job lock (all paths take them disjointly
/// or shared-then-release-then-job).
struct JobState {
    id: u64,
    key: ContentKey,
    request: Json,
    lease: Duration,
    reply: mpsc::Sender<FleetVerdict>,
    /// Bumped on every claim; a result is only accepted from the
    /// current generation's owner.
    generation: u64,
    /// Dispatch count, capped by `max_remote_attempts`.
    attempts: u32,
    delivered: bool,
}

type Job = Arc<Mutex<JobState>>;

struct QueuedJob {
    job: Job,
    enqueued_at: Instant,
}

struct FleetShared {
    queue: VecDeque<QueuedJob>,
    workers: usize,
    shutdown: bool,
}

/// A submitted job's handle: the verdict arrives on `rx`.
pub struct FleetTicket {
    job: Job,
    rx: mpsc::Receiver<FleetVerdict>,
}

/// Monotonic counters for the fleet gauges.
#[derive(Default)]
struct FleetCounters {
    workers_seen: AtomicU64,
    workers_peak: AtomicU64,
    leases_expired: AtomicU64,
    jobs_reassigned: AtomicU64,
    duplicate_results: AtomicU64,
    jobs_remote: AtomicU64,
    fallback_jobs: AtomicU64,
}

/// A snapshot of the fleet's counters, printable as a one-line summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Distinct worker registrations (hellos) over the fleet's life.
    pub workers_seen: u64,
    /// Peak simultaneously-connected workers.
    pub workers_peak: u64,
    /// Leases that expired and returned their job to the queue.
    pub leases_expired: u64,
    /// Jobs returned to the queue for re-dispatch (any cause).
    pub jobs_reassigned: u64,
    /// Late/stale results dropped by at-most-once accounting.
    pub duplicate_results: u64,
    /// Jobs answered by remote workers.
    pub jobs_remote: u64,
    /// Jobs that degraded to local execution.
    pub fallback_jobs: u64,
}

impl std::fmt::Display for FleetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} worker(s) seen (peak {}), {} remote, {} fallback, \
             {} lease(s) expired, {} reassigned, {} duplicate(s) dropped",
            self.workers_seen,
            self.workers_peak,
            self.jobs_remote,
            self.fallback_jobs,
            self.leases_expired,
            self.jobs_reassigned,
            self.duplicate_results,
        )
    }
}

/// The fleet supervisor: owns the listener, the job queue, the lease
/// ledger, and the per-check kill/quarantine bookkeeping.
pub struct Fleet {
    shared: Mutex<FleetShared>,
    cv: Condvar,
    config: FleetConfig,
    addr: SocketAddr,
    next_job: AtomicU64,
    counters: FleetCounters,
    ledger: KillLedger,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("addr", &self.addr)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// What an agent's claim attempt produced.
enum Claim {
    /// A job to dispatch: (id, generation, request, lease).
    Job(Job, u64, u64, Json, Duration),
    /// Nothing queued within the wait window.
    Idle,
    /// The fleet is shutting down.
    Shutdown,
}

impl Fleet {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the accept and
    /// fallback-monitor threads. The bound address (with the real port)
    /// is available via [`Fleet::addr`].
    pub fn listen(addr: &str, config: FleetConfig) -> std::io::Result<Arc<Fleet>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let ledger = KillLedger::new(config.limits.quarantine_after);
        let fleet = Arc::new(Fleet {
            shared: Mutex::new(FleetShared {
                queue: VecDeque::new(),
                workers: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            config,
            addr,
            next_job: AtomicU64::new(1),
            counters: FleetCounters::default(),
            ledger,
            threads: Mutex::new(Vec::new()),
        });
        let accept = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || fleet.accept_loop(listener))
        };
        let monitor = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || fleet.monitor_loop())
        };
        lock_clean(&fleet.threads).extend([accept, monitor]);
        Ok(fleet)
    }

    /// The address workers should `--connect` to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the fleet's counters.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            workers_seen: self.counters.workers_seen.load(Ordering::Relaxed),
            workers_peak: self.counters.workers_peak.load(Ordering::Relaxed),
            leases_expired: self.counters.leases_expired.load(Ordering::Relaxed),
            jobs_reassigned: self.counters.jobs_reassigned.load(Ordering::Relaxed),
            duplicate_results: self.counters.duplicate_results.load(Ordering::Relaxed),
            jobs_remote: self.counters.jobs_remote.load(Ordering::Relaxed),
            fallback_jobs: self.counters.fallback_jobs.load(Ordering::Relaxed),
        }
    }

    /// Currently connected workers.
    pub fn workers_connected(&self) -> usize {
        lock_clean(&self.shared).workers
    }

    /// Enqueues a job for remote dispatch. The verdict — a remote run
    /// or a fallback instruction — arrives on the returned ticket.
    pub fn submit(&self, request: Json, lease: Duration, key: ContentKey) -> FleetTicket {
        let (reply, rx) = mpsc::channel();
        let job: Job = Arc::new(Mutex::new(JobState {
            id: self.next_job.fetch_add(1, Ordering::Relaxed),
            key,
            request,
            lease,
            reply,
            generation: 0,
            attempts: 0,
            delivered: false,
        }));
        let mut shared = lock_clean(&self.shared);
        if shared.shutdown {
            drop(shared);
            deliver_fallback(&job, "fleet is shut down", &self.counters);
        } else {
            shared.queue.push_back(QueuedJob {
                job: Arc::clone(&job),
                enqueued_at: Instant::now(),
            });
            drop(shared);
            self.cv.notify_one();
        }
        FleetTicket { job, rx }
    }

    /// Withdraws a ticket (cancellation): the job will not be
    /// dispatched again and any late result is dropped as a duplicate.
    pub fn abandon(&self, ticket: &FleetTicket) {
        let mut job = lock_clean(&ticket.job);
        job.delivered = true;
    }

    /// Stops accepting, closes worker connections at the next job
    /// boundary, and resolves everything still queued to fallback.
    pub fn shutdown(&self) {
        let drained: Vec<Job> = {
            let mut shared = lock_clean(&self.shared);
            if shared.shutdown {
                return;
            }
            shared.shutdown = true;
            shared.queue.drain(..).map(|q| q.job).collect()
        };
        self.cv.notify_all();
        for job in drained {
            deliver_fallback(
                &job,
                "fleet shut down with the job still queued",
                &self.counters,
            );
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let threads = std::mem::take(&mut *lock_clean(&self.threads));
        for t in threads {
            let _ = t.join();
        }
    }

    fn is_shutdown(&self) -> bool {
        lock_clean(&self.shared).shutdown
    }

    /// Returns a job to the queue after its owner lost it. No-op when
    /// the result was already delivered (the owner resurfaced late).
    fn requeue(&self, job: &Job) {
        {
            let state = lock_clean(job);
            if state.delivered {
                return;
            }
        }
        let mut shared = lock_clean(&self.shared);
        if shared.shutdown {
            drop(shared);
            deliver_fallback(job, "fleet shut down during re-dispatch", &self.counters);
            return;
        }
        self.counters
            .jobs_reassigned
            .fetch_add(1, Ordering::Relaxed);
        // Front of the queue: re-dispatch order stays deterministic
        // (the oldest claim wins the next free worker).
        shared.queue.push_front(QueuedJob {
            job: Arc::clone(job),
            enqueued_at: Instant::now(),
        });
        drop(shared);
        self.cv.notify_one();
    }

    /// Delivers a result for `job` if `gen` still owns it. Returns
    /// whether the result was accepted; a refusal is a counted
    /// duplicate (at-most-once accounting).
    fn deliver(&self, job: &Job, gen: u64, run: EngineRun) -> bool {
        let mut state = lock_clean(job);
        if state.delivered || state.generation != gen {
            drop(state);
            self.counters
                .duplicate_results
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        state.delivered = true;
        let sent = state.reply.send(FleetVerdict::Remote(run)).is_ok();
        drop(state);
        self.counters.jobs_remote.fetch_add(1, Ordering::Relaxed);
        sent
    }

    /// Claims the next dispatchable job, waiting up to `wait`.
    fn claim(&self, wait: Duration) -> Claim {
        let deadline = Instant::now() + wait;
        let mut shared = lock_clean(&self.shared);
        loop {
            if shared.shutdown {
                return Claim::Shutdown;
            }
            while let Some(entry) = shared.queue.pop_front() {
                // Decide under the job lock, with the shared lock
                // released (lock ordering: never nest them).
                drop(shared);
                if let Some(claim) = self.try_claim(&entry.job) {
                    return claim;
                }
                shared = lock_clean(&self.shared);
                if shared.shutdown {
                    return Claim::Shutdown;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Claim::Idle;
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(shared, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            shared = guard;
        }
    }

    /// Claims `job` if it is still live: bumps the generation, counts
    /// the attempt, and resolves exhausted/quarantined jobs to
    /// fallback. `None` means the job needs no dispatch.
    fn try_claim(&self, job: &Job) -> Option<Claim> {
        let mut state = lock_clean(job);
        if state.delivered {
            return None; // answered while queued (late result accepted)
        }
        if self.ledger.is_quarantined(state.key) {
            let reason = "check quarantined after repeatedly killing remote workers";
            deliver_fallback_locked(&mut state, reason, &self.counters);
            return None;
        }
        if state.attempts >= self.config.max_remote_attempts {
            let reason = format!(
                "job exhausted {} remote dispatch attempt(s)",
                state.attempts
            );
            deliver_fallback_locked(&mut state, &reason, &self.counters);
            return None;
        }
        state.generation += 1;
        state.attempts += 1;
        Some(Claim::Job(
            Arc::clone(job),
            state.id,
            state.generation,
            state.request.clone(),
            state.lease,
        ))
    }

    fn accept_loop(self: Arc<Fleet>, listener: TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.is_shutdown() {
                        return;
                    }
                    let fleet = Arc::clone(&self);
                    std::thread::spawn(move || fleet.run_agent(stream));
                }
                Err(_) => {
                    if self.is_shutdown() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Resolves jobs that have waited out the grace period with zero
    /// workers connected: the degradation path that keeps a campaign
    /// moving when the whole fleet is gone (or never arrived).
    fn monitor_loop(self: Arc<Fleet>) {
        loop {
            std::thread::sleep(Duration::from_millis(50));
            let expired: Vec<Job> = {
                let mut shared = lock_clean(&self.shared);
                if shared.shutdown {
                    return;
                }
                if shared.workers > 0 {
                    continue;
                }
                let grace = self.config.fallback_grace;
                let mut expired = Vec::new();
                while let Some(front) = shared.queue.front() {
                    if front.enqueued_at.elapsed() < grace {
                        break;
                    }
                    expired.push(shared.queue.pop_front().unwrap().job);
                }
                expired
            };
            for job in expired {
                deliver_fallback(&job, "no remote workers connected", &self.counters);
            }
        }
    }

    fn register_worker(&self) {
        let mut shared = lock_clean(&self.shared);
        shared.workers += 1;
        let now = shared.workers as u64;
        drop(shared);
        self.counters.workers_seen.fetch_add(1, Ordering::Relaxed);
        self.counters.workers_peak.fetch_max(now, Ordering::Relaxed);
    }

    fn deregister_worker(&self) {
        let mut shared = lock_clean(&self.shared);
        shared.workers = shared.workers.saturating_sub(1);
    }

    /// Serves one worker connection: registration, then a claim →
    /// dispatch → supervise loop until the connection dies or the
    /// fleet shuts down.
    fn run_agent(self: Arc<Fleet>, stream: TcpStream) {
        let Ok((mut reader, mut writer)) = split_connection(stream) else {
            return;
        };
        // Registration: a half-open or silent socket, or a worker in
        // another protocol version, must not get past the hello.
        if await_hello(&mut reader, self.config.hello_deadline).is_err() {
            return;
        }
        self.register_worker();
        loop {
            match self.claim(Duration::from_millis(100)) {
                Claim::Shutdown => break,
                Claim::Idle => {
                    // Probe the idle connection so a worker that died
                    // between jobs is deregistered promptly.
                    match reader.poll_frame(Duration::from_millis(1)) {
                        Ok(Polled::Timeout) => {}
                        Ok(Polled::Frame(_)) => {
                            // Stray frame between jobs: stale noise from
                            // an earlier lease; drop it.
                            self.counters
                                .duplicate_results
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Polled::Eof) | Err(_) => break,
                    }
                }
                Claim::Job(job, id, gen, request, lease) => {
                    let lease_ms = lease.as_millis().min(u128::from(u64::MAX)) as u64;
                    let frame = job_json(id, Some(lease_ms), request);
                    if write_frame(&mut writer, &frame).is_err() {
                        // Dead before dispatch: not the check's fault.
                        self.requeue(&job);
                        break;
                    }
                    if !self.supervise_job(&mut reader, &mut writer, &job, id, gen, lease) {
                        break;
                    }
                }
            }
        }
        self.deregister_worker();
    }

    /// Supervises one dispatched job on one connection. Returns whether
    /// the connection is still healthy enough for another claim.
    fn supervise_job(
        &self,
        reader: &mut FrameReader,
        writer: &mut TcpStream,
        job: &Job,
        id: u64,
        gen: u64,
        lease: Duration,
    ) -> bool {
        let key = lock_clean(job).key;
        // A lease past what an `Instant` can represent never expires.
        let lease_deadline = Instant::now().checked_add(lease);
        // `leased` drops to false once the lease expires: the job has
        // been requeued, but the connection keeps draining so a late
        // result is recognized (and dropped) instead of desynchronizing
        // the frame stream.
        let mut leased = true;
        let stop = || {
            if self.is_shutdown() {
                return true;
            }
            if leased && lease_deadline.is_some_and(|d| Instant::now() >= d) {
                // Lease expiry is not a kill: the worker may be honestly
                // slow. The job is re-dispatched; this connection keeps
                // draining.
                self.counters.leases_expired.fetch_add(1, Ordering::Relaxed);
                self.requeue(job);
                leased = false;
            }
            false
        };
        let duplicate = || {
            self.counters
                .duplicate_results
                .fetch_add(1, Ordering::Relaxed);
        };
        let limits = self.config.limits;
        match watch_job(reader, id, &limits, &mut 0, stop, duplicate) {
            Watched::Answered(run) => {
                // At-most-once: `deliver` refuses stale generations and
                // double-reports. Ack regardless: the worker needs it to
                // move on.
                self.deliver(job, gen, run);
                write_frame(writer, &ack_json(id)).is_ok()
            }
            Watched::Stopped => {
                if leased {
                    deliver_fallback(job, "fleet shut down mid-solve", &self.counters);
                }
                false
            }
            Watched::Lost(_) => {
                // Died, stalled, over memory or broke protocol: a kill,
                // and the job goes back on the queue if still ours.
                self.ledger.record(key);
                if leased {
                    self.requeue(job);
                }
                false
            }
        }
    }
}

fn deliver_fallback(job: &Job, reason: &str, counters: &FleetCounters) {
    let mut state = lock_clean(job);
    deliver_fallback_locked(&mut state, reason, counters);
}

fn deliver_fallback_locked(state: &mut JobState, reason: &str, counters: &FleetCounters) {
    if state.delivered {
        return;
    }
    state.delivered = true;
    counters.fallback_jobs.fetch_add(1, Ordering::Relaxed);
    let _ = state.reply.send(FleetVerdict::Fallback(reason.to_string()));
}

// ---------------------------------------------------------------------
// FleetEngine: CheckEngine over the fleet, with the degradation ladder
// ---------------------------------------------------------------------

/// A [`CheckEngine`] that ships each attempt to the remote fleet and
/// degrades — local [`ProcEngine`] pool, then in-process — when the
/// fleet cannot answer. Same trait, same determinism as `--isolate`.
#[derive(Clone)]
pub struct FleetEngine {
    fleet: Arc<Fleet>,
    /// Local subprocess pool for the fallback rung; `None` falls back
    /// straight to in-process.
    pool: Option<Arc<WorkerPool>>,
    wire: &'static str,
}

impl FleetEngine {
    /// Fleet-dispatched BMC for check campaigns.
    pub fn for_check(fleet: Arc<Fleet>, pool: Option<Arc<WorkerPool>>) -> FleetEngine {
        FleetEngine::new(fleet, pool, "bmc")
    }

    /// Fleet-dispatched k-induction for prove campaigns.
    pub fn for_prove(fleet: Arc<Fleet>, pool: Option<Arc<WorkerPool>>) -> FleetEngine {
        FleetEngine::new(fleet, pool, "k-induction")
    }

    /// Fleet-dispatched falsifier (reports as "bmc", like its local
    /// counterparts).
    pub fn falsifier(fleet: Arc<Fleet>, pool: Option<Arc<WorkerPool>>) -> FleetEngine {
        FleetEngine::new(fleet, pool, "falsifier-bmc")
    }

    /// The fleet-dispatched form of wire engine `wire`.
    pub(crate) fn new(
        fleet: Arc<Fleet>,
        pool: Option<Arc<WorkerPool>>,
        wire: &'static str,
    ) -> FleetEngine {
        FleetEngine { fleet, pool, wire }
    }

    /// The local rungs of the degradation ladder: the same wire engine
    /// on the pool when there is one, in-process as the floor. In-process
    /// only replaces the pool when the pool could not even spawn — a
    /// check that *kills* local workers must stay contained.
    fn run_fallback(
        &self,
        spec: &CheckSpec<'_>,
        config: &CheckConfig,
        cancel: &CancelToken,
    ) -> EngineRun {
        if let Some(pool) = &self.pool {
            let engine = ProcEngine::new(Arc::clone(pool), self.wire);
            if let Ok(run) = engine.try_check(spec, config, cancel) {
                return run;
            }
        }
        wire_engine(self.wire)
            .expect("fleet engines are built from known wire engines")
            .check(spec, config, cancel)
    }
}

impl CheckEngine for FleetEngine {
    fn name(&self) -> &'static str {
        wire_name(self.wire)
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        let key = content_key(
            spec.module,
            &spec.properties,
            &spec.constraints,
            config,
            wire_mode(self.wire),
        );
        let limits = self.fleet.config.limits;
        let policy = config.retry_policy();
        let mut attempt = 0u32;
        loop {
            // The remote worker runs the same deterministic budgets the
            // local engines would, including panic-retry escalation.
            let conflicts = policy.escalated_budget(config.conflict_budget, attempt);
            let wire_config = config
                .clone()
                .conflicts(conflicts)
                .heartbeat_ms(limits.heartbeat_ms.max(1));
            let request = request_json(
                self.wire,
                spec.module,
                &spec.properties,
                &spec.constraints,
                &wire_config,
            );
            let lease = self
                .fleet
                .config
                .lease(config.time_budget, spec.properties.len());
            let ticket = self.fleet.submit(request, lease, key);
            let verdict = loop {
                match ticket.rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(v) => break v,
                    Err(RecvTimeoutError::Timeout) => {
                        if cancel.is_cancelled() {
                            self.fleet.abandon(&ticket);
                            return EngineRun::from(EngineOutcome::Unknown {
                                depth: 0,
                                cause: UnknownCause::Cancelled,
                            });
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        break FleetVerdict::Fallback("fleet dropped the job".to_string());
                    }
                }
            };
            match verdict {
                FleetVerdict::Remote(run) => {
                    // A remote FAILED(panic) is a healthy worker
                    // reporting a contained engine fault; retry it like
                    // every local scheduler does.
                    let panicked = matches!(
                        &run.outcome,
                        EngineOutcome::Failed(f) if f.reason == FailureReason::Panic
                    );
                    if panicked && attempt < policy.max_retries {
                        attempt += 1;
                        continue;
                    }
                    return run;
                }
                FleetVerdict::Fallback(_reason) => {
                    return self.run_fallback(spec, config, cancel);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocc_bmc::BmcEngine;
    use autocc_hdl::{Bv, ModuleBuilder};

    /// A pool that cannot spawn is the one case where the fallback
    /// ladder drops to in-process: the check must still get its answer,
    /// and no kill is charged to it, whatever the retry policy.
    #[test]
    fn unspawnable_pool_falls_back_in_process() {
        let mut b = ModuleBuilder::new("probe");
        let inc = b.input("inc", 1);
        let ra = b.reg("a", 4, Bv::zero(4));
        let one = b.lit(4, 1);
        let na = b.add(ra, one);
        let next = b.mux(inc, na, ra);
        b.set_next(ra, next);
        let five = b.lit(4, 5);
        let ok = b.ult(ra, five);
        b.output("small", ok);
        let module = b.build();
        let spec = CheckSpec {
            module: &module,
            properties: vec![("small".to_string(), ok)],
            constraints: Vec::new(),
        };
        let config = CheckConfig::default().depth(8).no_timeout();
        let expected = BmcEngine.check(&spec, &config, &CancelToken::new());

        let fleet = Fleet::listen(
            "127.0.0.1:0",
            FleetConfig {
                fallback_grace: Duration::from_millis(20),
                ..FleetConfig::default()
            },
        )
        .expect("fleet listens");
        let pool = Arc::new(
            WorkerPool::new(WorkerLimits::default()).with_command("/nonexistent/autocc-worker"),
        );
        let engine = FleetEngine::for_check(Arc::clone(&fleet), Some(Arc::clone(&pool)));
        let run = engine.check(&spec, &config, &CancelToken::new());
        fleet.shutdown();

        assert_eq!(
            format!("{:?}", run.outcome),
            format!("{:?}", expected.outcome)
        );
        assert_eq!(pool.quarantined_count(), 0, "a spawn failure is no kill");
    }

    #[test]
    fn lease_formula_saturates_instead_of_wrapping() {
        let config = FleetConfig {
            lease_factor: 3,
            ..FleetConfig::default()
        };
        let budget = Some(Duration::from_millis(100));
        assert_eq!(config.lease(budget, 2), Duration::from_millis(600));
        assert_eq!(config.lease(budget, 0), Duration::from_millis(300));
        assert_eq!(config.lease(None, 5), config.default_lease);
        // 2^32 truncated to u32 is 0, which would expire every lease at
        // once and bounce each job until it fell back.
        let huge = FleetConfig {
            lease_factor: 1 << 32,
            ..FleetConfig::default()
        };
        let lease = huge.lease(Some(Duration::from_millis(300)), 1);
        assert!(lease >= Duration::from_millis(300) * u32::MAX, "{lease:?}");
    }
}
