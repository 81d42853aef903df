//! The unified check configuration.
//!
//! [`CheckConfig`] is the one knob surface for the whole check pipeline:
//! checker budgets (depth, conflicts, wall clock), engine switches
//! (slicing), scheduler shape (worker count, retries) and the telemetry
//! handle, behind a single builder:
//!
//! ```
//! use autocc_bmc::CheckConfig;
//! use std::time::Duration;
//!
//! let config = CheckConfig::default()
//!     .depth(32)
//!     .jobs(8)
//!     .slice(true)
//!     .timeout(Duration::from_secs(60));
//! assert_eq!(config.max_depth, 32);
//! assert_eq!(config.jobs, 8);
//! ```

use crate::portfolio::RetryPolicy;
use autocc_telemetry::{SolverCounters, Telemetry};
use std::time::Duration;

/// Lifts the SAT solver's [`autocc_sat::Stats`] into telemetry
/// [`SolverCounters`] (the two crates do not know each other).
pub fn solver_counters(stats: &autocc_sat::Stats) -> SolverCounters {
    SolverCounters {
        solve_calls: stats.solve_calls,
        conflicts: stats.conflicts,
        decisions: stats.decisions,
        propagations: stats.propagations,
        restarts: stats.restarts,
        learnt_clauses: stats.learnt_clauses,
        deleted_clauses: stats.deleted_clauses,
    }
}

/// Where a check attempt executes: on a thread of this process, or in a
/// supervised worker subprocess.
///
/// Subprocess isolation changes *survivability*, never answers: the worker
/// runs the identical deterministic solve, so outcomes (and therefore
/// content keys and stable tables) are byte-identical across the two
/// modes. What subprocess mode buys is blast-radius containment — a
/// solver OOM, stack overflow, or `abort()` kills one worker, not the
/// campaign — plus an enforceable RSS budget and heartbeat liveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Isolation {
    /// Run check attempts on threads of the calling process (default).
    #[default]
    InProcess,
    /// Run each check attempt in a supervised worker subprocess speaking
    /// the length-prefixed JSON IPC protocol (`--isolate`).
    Subprocess,
}

/// Jaccard overlap (`0.0 ..= 1.0`) of two attribution properties'
/// sequential cones at or above which they share a cluster.
pub const CLUSTER_OVERLAP: f64 = 0.9;

/// How finely the FT miter's equality obligation is decomposed into
/// individual properties.
///
/// Decomposition never changes the paper-table verdict: the Listing-1
/// monitor assertions are checked under identical semantics at either
/// granularity. What the finer one adds is *attribution* — extra
/// per-state-element properties with small cones — and a clustered,
/// per-cone-sliced plan journaled one record per cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Granularity {
    /// The monitor's per-output assertions, one job per assertion, each
    /// encoding the full miter cone unless `slice` is on.
    #[default]
    Monolithic,
    /// Additionally emit one equality property per DUT register and per
    /// memory word (`st__*` attribution properties); every property is
    /// checked in a cone cluster that is sliced to its own cone and
    /// cached under its own content key, while the check bit-blasts the
    /// miter once for all of its clusters. Verdicts then name the leaking
    /// state element.
    Register,
}

impl Granularity {
    /// Stable lower-case name (CLI value and fingerprint token).
    pub fn as_str(self) -> &'static str {
        match self {
            Granularity::Monolithic => "monolithic",
            Granularity::Register => "register",
        }
    }

    /// Inverse of [`Granularity::as_str`].
    pub fn parse(s: &str) -> Option<Granularity> {
        Some(match s {
            "monolithic" => Granularity::Monolithic,
            "register" => Granularity::Register,
            _ => return None,
        })
    }

    /// Whether this granularity checks a clustered (decomposed) plan
    /// instead of one job per exact property.
    pub fn is_decomposed(self) -> bool {
        self == Granularity::Register
    }
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unified configuration for a check or proof run — budgets, scheduling,
/// and the telemetry handle — consumed by the checker, the
/// engines, the portfolio scheduler, the testbench, and every binary.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Maximum unrolling depth (number of cycles).
    pub max_depth: usize,
    /// Total conflict budget across the run (`None` = unlimited).
    /// Deterministic: exhaustion is identical on every machine.
    pub conflict_budget: Option<u64>,
    /// Wall-clock budget for the run (`None` = unlimited). Time budgets
    /// make outcomes machine-dependent; deterministic runs should prefer
    /// conflict budgets.
    pub time_budget: Option<Duration>,
    /// Apply per-property cone-of-influence slicing before encoding.
    pub slice: bool,
    /// Portfolio worker count (min 1). Results are merged positionally,
    /// so any worker count produces bit-identical output.
    pub jobs: usize,
    /// Additional attempts after a contained engine-job panic
    /// (0 = fail fast).
    pub retries: u32,
    /// Where check attempts execute (in-process threads or supervised
    /// worker subprocesses). Excluded from the content key *and* the
    /// config fingerprint: isolation never changes answers, so journals
    /// written in either mode resume interchangeably.
    pub isolation: Isolation,
    /// RSS budget per worker subprocess, in MiB (`None` = unlimited).
    /// Only enforced under [`Isolation::Subprocess`]: a worker whose
    /// heartbeat reports more RSS is killed and the attempt degrades to
    /// a contained [`crate::FailureReason::MemoryLimit`] failure.
    pub memory_limit_mb: Option<u64>,
    /// Worker heartbeat period in milliseconds (min 1). A worker whose
    /// heartbeat goes silent for a supervisor-chosen multiple of this
    /// period is presumed wedged and killed.
    pub heartbeat_ms: u64,
    /// Property decomposition level for check runs. `Register` routes
    /// checks through per-cluster slicing and caching; `Monolithic`
    /// (default) runs one job per exact property.
    pub granularity: Granularity,
    /// Certify every UNSAT solve with a DRAT proof checked by the
    /// independent forward RUP checker (`--certify`). A failed or missing
    /// certificate degrades the outcome to FAILED(certification), never
    /// PASS. Like [`CheckConfig::isolation`], this knob is excluded from
    /// the content key *and* the config fingerprint: certification never
    /// changes answers, so stable tables stay byte-identical and journals
    /// written in either mode resume interchangeably.
    pub certify: bool,
    /// Telemetry handle; spans opened by the pipeline become children of
    /// its current span. Disabled ([`Telemetry::off`]) by default, in
    /// which case instrumentation is a no-op with no clock reads.
    pub telemetry: Telemetry,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            max_depth: 64,
            conflict_budget: None,
            time_budget: Some(Duration::from_secs(300)),
            slice: false,
            jobs: 1,
            retries: 1,
            isolation: Isolation::InProcess,
            memory_limit_mb: None,
            heartbeat_ms: 250,
            granularity: Granularity::Monolithic,
            certify: false,
            telemetry: Telemetry::off(),
        }
    }
}

impl CheckConfig {
    /// Sets the maximum unrolling depth.
    pub fn depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Sets (or clears) the total conflict budget.
    pub fn conflicts(mut self, budget: Option<u64>) -> Self {
        self.conflict_budget = budget;
        self
    }

    /// Sets the wall-clock budget.
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Removes the wall-clock budget (fully deterministic runs).
    pub fn no_timeout(mut self) -> Self {
        self.time_budget = None;
        self
    }

    /// Sets the portfolio worker count (clamped to at least 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Switches cone-of-influence slicing on or off.
    pub fn slice(mut self, slice: bool) -> Self {
        self.slice = slice;
        self
    }

    /// Sets the retry count for contained engine-job panics.
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets where check attempts execute.
    pub fn isolation(mut self, isolation: Isolation) -> Self {
        self.isolation = isolation;
        self
    }

    /// Shorthand for [`Isolation::Subprocess`] (the `--isolate` flag).
    pub fn isolate(self) -> Self {
        self.isolation(Isolation::Subprocess)
    }

    /// Sets (or clears) the per-worker RSS budget, in MiB.
    pub fn memory_limit_mb(mut self, limit: Option<u64>) -> Self {
        self.memory_limit_mb = limit;
        self
    }

    /// Sets the worker heartbeat period (clamped to at least 1 ms).
    pub fn heartbeat_ms(mut self, ms: u64) -> Self {
        self.heartbeat_ms = ms.max(1);
        self
    }

    /// Sets the property decomposition level.
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Switches DRAT certification of UNSAT solves on or off.
    pub fn certify(mut self, certify: bool) -> Self {
        self.certify = certify;
        self
    }

    /// Attaches a telemetry handle.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The retry policy derived from `retries`, at the default
    /// escalation.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::with_retries(self.retries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_and_clamps() {
        let c = CheckConfig::default()
            .depth(12)
            .conflicts(Some(5_000))
            .no_timeout()
            .jobs(0)
            .slice(true)
            .retries(3);
        assert_eq!(c.max_depth, 12);
        assert_eq!(c.conflict_budget, Some(5_000));
        assert_eq!(c.time_budget, None);
        assert_eq!(c.jobs, 1, "jobs clamps to 1");
        assert!(c.slice);
        let policy = c.retry_policy();
        assert_eq!(policy.max_retries, 3);
        assert_eq!(policy.escalation, 2);
    }

    #[test]
    fn granularity_knobs_compose_and_clamp() {
        let c = CheckConfig::default();
        assert_eq!(c.granularity, Granularity::Monolithic);
        let c = c.granularity(Granularity::Register);
        assert_eq!(c.granularity, Granularity::Register);
    }

    #[test]
    fn granularity_round_trips() {
        for g in [Granularity::Monolithic, Granularity::Register] {
            assert_eq!(Granularity::parse(g.as_str()), Some(g));
        }
        assert_eq!(Granularity::parse("bogus"), None);
        assert_eq!(Granularity::parse("output"), None);
        assert!(!Granularity::Monolithic.is_decomposed());
        assert!(Granularity::Register.is_decomposed());
    }

    #[test]
    fn isolation_knobs_compose_and_clamp() {
        let c = CheckConfig::default();
        assert_eq!(c.isolation, Isolation::InProcess);
        assert_eq!(c.memory_limit_mb, None);
        assert_eq!(c.heartbeat_ms, 250);
        let c = c.isolate().memory_limit_mb(Some(512)).heartbeat_ms(0);
        assert_eq!(c.isolation, Isolation::Subprocess);
        assert_eq!(c.memory_limit_mb, Some(512));
        assert_eq!(c.heartbeat_ms, 1, "heartbeat clamps to 1 ms");
    }

    #[test]
    fn certify_knob_composes() {
        let c = CheckConfig::default();
        assert!(!c.certify, "certification is opt-in");
        let c = c.certify(true);
        assert!(c.certify);
        assert!(!c.certify(false).certify);
    }

    #[test]
    fn default_matches_the_legacy_bmc_options() {
        // Behaviour preservation: `CheckConfig::default()` keeps the
        // checker's historical defaults (depth 64, 300 s, unsliced).
        let c = CheckConfig::default();
        assert_eq!(c.max_depth, 64);
        assert_eq!(c.conflict_budget, None);
        assert_eq!(c.time_budget, Some(Duration::from_secs(300)));
        assert!(!c.slice);
        assert_eq!(c.jobs, 1);
        assert!(!c.telemetry.enabled());
    }
}
