//! Observability for the AutoCC check pipeline.
//!
//! The checker, engines, and portfolio report *what they are doing* through
//! a [`Recorder`]: a span tree (run → experiment → property check → engine
//! attempt → phase / solve call) with monotonic timestamps, per-span solver
//! counters, and scalar gauges. The pipeline holds a cloneable [`Telemetry`]
//! handle — a recorder plus the current span — and opens children around
//! each unit of work.
//!
//! Instrumentation must cost nothing when nobody is listening: every
//! `Recorder` method has a no-op default, the disabled path never reads a
//! clock, and span names are static strings (no formatting on the hot
//! path). `--stable` runs therefore stay bit-deterministic whether or not
//! a recorder could have been attached.
//!
//! [`ProfileRecorder`] is the one real implementation: it captures the span
//! tree in memory and snapshots it into a versioned JSON [`RunProfile`]
//! (the `--profile <path>` output of the CLI and report binaries).
//!
//! [`json`] is the workspace's one JSON layer; the journal and the worker
//! wire frames read and write through it too.

#![forbid(unsafe_code)]

pub mod json;
mod profile;

pub use profile::{
    validate_profile_json, KindRollup, PhaseRollup, ProfileRecorder, ProfileSpan, ProfileSummary,
    RunProfile, PROFILE_VERSION,
};

/// Canonical gauge names for the remote worker fleet, recorded once per
/// campaign so profiles from fleet runs can be compared and asserted on
/// without string drift between the supervisor and its tests.
pub mod gauges {
    /// Distinct remote worker registrations over the campaign.
    pub const WORKERS_CONNECTED: &str = "fleet_workers_connected";
    /// Peak simultaneously-connected remote workers.
    pub const WORKERS_PEAK: &str = "fleet_workers_peak";
    /// Job leases that expired and triggered re-dispatch.
    pub const LEASES_EXPIRED: &str = "fleet_leases_expired";
    /// Jobs returned to the queue for re-dispatch (any cause).
    pub const JOBS_REASSIGNED: &str = "fleet_jobs_reassigned";
    /// Late or double-reported results dropped by at-most-once
    /// accounting.
    pub const DUPLICATE_RESULTS: &str = "fleet_duplicate_results";
    /// Jobs answered by remote workers.
    pub const JOBS_REMOTE: &str = "fleet_jobs_remote";
    /// Jobs that degraded to local execution (pool or in-process).
    pub const FALLBACK_ENGAGED: &str = "fleet_fallback_engaged";
}

use std::fmt;
use std::sync::Arc;

/// Identifier of a span within one recorder. `SpanId::NONE` (zero) means
/// "no span" — the id handed out on the disabled path and the parent of
/// root spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The null span: parent of roots, result of disabled recorders.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is a real span.
    pub fn is_some(self) -> bool {
        self != SpanId::NONE
    }
}

/// What level of the pipeline a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A whole CLI/report invocation.
    Run,
    /// One experiment of a report table (`V1`, `C2`, ...).
    Experiment,
    /// One property check job.
    Check,
    /// One engine attempt (retries open a fresh attempt).
    Attempt,
    /// A timed pipeline phase (`bit-blast`, `coi-slice`, `cnf-encode`,
    /// `certify`, ...).
    Phase,
    /// A single SAT solve call.
    Solve,
}

impl SpanKind {
    /// Stable lower-case name used in the JSON profile.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Experiment => "experiment",
            SpanKind::Check => "check",
            SpanKind::Attempt => "attempt",
            SpanKind::Phase => "phase",
            SpanKind::Solve => "solve",
        }
    }

    /// Inverse of [`SpanKind::as_str`].
    pub fn parse(s: &str) -> Option<SpanKind> {
        Some(match s {
            "run" => SpanKind::Run,
            "experiment" => SpanKind::Experiment,
            "check" => SpanKind::Check,
            "attempt" => SpanKind::Attempt,
            "phase" => SpanKind::Phase,
            "solve" => SpanKind::Solve,
            _ => return None,
        })
    }

    /// Every kind, in profile order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Run,
        SpanKind::Experiment,
        SpanKind::Check,
        SpanKind::Attempt,
        SpanKind::Phase,
        SpanKind::Solve,
    ];
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Cumulative SAT-solver work, in the same units as `sat::Stats`.
///
/// By convention the pipeline attaches counters to `Solve` spans only, so
/// rollups that sum every span do not double-count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Number of `solve` invocations.
    pub solve_calls: u64,
    /// Conflicts hit during search.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learnt_clauses: u64,
    /// Learned clauses deleted by reduction.
    pub deleted_clauses: u64,
}

impl SolverCounters {
    /// Component-wise sum.
    pub fn add(&mut self, other: &SolverCounters) {
        self.solve_calls += other.solve_calls;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.deleted_clauses += other.deleted_clauses;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SolverCounters::default()
    }
}

impl std::ops::AddAssign<&SolverCounters> for SolverCounters {
    fn add_assign(&mut self, other: &SolverCounters) {
        self.add(other);
    }
}

/// Sink for pipeline instrumentation events.
///
/// Every method defaults to a no-op so a disabled recorder costs nothing:
/// no allocation, no clock read, no synchronisation. Implementations must
/// be thread-safe — portfolio workers record concurrently.
pub trait Recorder: Send + Sync {
    /// Whether events are being kept. Call sites may use this to skip
    /// work that only feeds the recorder (e.g. reading a clock for a
    /// gauge); they must never let it change the *checking* behaviour.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a span under `parent` (or a root when `parent` is
    /// [`SpanId::NONE`]). Returns the new span's id.
    fn span_start(&self, _parent: SpanId, _kind: SpanKind, _name: &str) -> SpanId {
        SpanId::NONE
    }

    /// Closes a span. Unknown/already-closed ids are ignored.
    fn span_end(&self, _span: SpanId) {}

    /// Adds solver-work counters to a span (accumulates on repeat).
    fn counters(&self, _span: SpanId, _delta: &SolverCounters) {}

    /// Sets a scalar gauge on a span. Re-recording the same key
    /// overwrites, so periodic progress samples stay bounded.
    fn gauge(&self, _span: SpanId, _key: &str, _value: u64) {}
}

/// The default recorder: keeps nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A recorder plus the current span — the handle the pipeline threads
/// through configs and passes to child work.
///
/// Handles are cheap to clone (an `Arc` bump). Spans are closed
/// explicitly with [`Telemetry::close`]; there is no drop guard because
/// handles are freely cloned across threads.
#[derive(Clone)]
pub struct Telemetry {
    recorder: Arc<dyn Recorder>,
    span: SpanId,
}

impl Telemetry {
    /// A disabled handle (no-op recorder, no span).
    pub fn off() -> Telemetry {
        Telemetry {
            recorder: Arc::new(NoopRecorder),
            span: SpanId::NONE,
        }
    }

    /// Wraps a recorder with no current span; children become roots.
    pub fn new(recorder: Arc<dyn Recorder>) -> Telemetry {
        Telemetry {
            recorder,
            span: SpanId::NONE,
        }
    }

    /// Wraps a recorder and opens a root `Run` span named `name`.
    pub fn root(recorder: Arc<dyn Recorder>, name: &str) -> Telemetry {
        Telemetry::new(recorder).child(SpanKind::Run, name)
    }

    /// Whether the underlying recorder keeps events.
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// The current span id ([`SpanId::NONE`] when disabled or unopened).
    pub fn span(&self) -> SpanId {
        self.span
    }

    /// Opens a child span and returns a handle positioned on it.
    pub fn child(&self, kind: SpanKind, name: &str) -> Telemetry {
        Telemetry {
            recorder: Arc::clone(&self.recorder),
            span: self.recorder.span_start(self.span, kind, name),
        }
    }

    /// Closes the current span (no-op for unopened handles).
    pub fn close(&self) {
        if self.span.is_some() {
            self.recorder.span_end(self.span);
        }
    }

    /// Adds solver counters to the current span.
    pub fn counters(&self, delta: &SolverCounters) {
        self.recorder.counters(self.span, delta);
    }

    /// Sets a gauge on the current span.
    pub fn gauge(&self, key: &str, value: u64) {
        self.recorder.gauge(self.span, key, value);
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::off()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("span", &self.span)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        let child = t.child(SpanKind::Check, "p0");
        assert_eq!(child.span(), SpanId::NONE);
        child.counters(&SolverCounters::default());
        child.gauge("depth", 3);
        child.close();
        t.close();
    }

    #[test]
    fn span_kind_round_trips() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("bogus"), None);
    }

    #[test]
    fn counters_accumulate() {
        let mut a = SolverCounters {
            solve_calls: 1,
            conflicts: 10,
            ..SolverCounters::default()
        };
        let b = SolverCounters {
            solve_calls: 2,
            propagations: 7,
            ..SolverCounters::default()
        };
        a += &b;
        assert_eq!(a.solve_calls, 3);
        assert_eq!(a.conflicts, 10);
        assert_eq!(a.propagations, 7);
        assert!(!a.is_zero());
        assert!(SolverCounters::default().is_zero());
    }
}
