//! Pluggable check engines.
//!
//! A [`CheckEngine`] turns a [`CheckSpec`] (module + properties +
//! constraints) into an [`EngineOutcome`] under [`CheckConfig`] budgets.
//! Engines are `Send + Sync` and take a [`CancelToken`], so a portfolio
//! scheduler can race several of them over the same spec and cancel the
//! losers — the software analogue of JasperGold's engine portfolio that
//! the paper drives with a single property set.
//!
//! Two engines ship with the crate:
//!
//! * [`BmcEngine`] — incremental bounded model checking ([`Bmc::check`]).
//! * [`KInductionEngine`] — k-induction with simple-path constraints
//!   ([`Bmc::prove`]); can return [`EngineOutcome::Proved`].
//!
//! Cancellation and wall-clock deadlines are enforced *inside* the solver
//! (polled every few conflicts), so runaway solves are bounded — but an
//! uncancelled token and an absent deadline never alter the search, so a
//! run's SAT-level behaviour (and therefore its outcome and counterexample
//! depth) is bit-identical whether or not a token is installed — the
//! invariant the deterministic scheduler relies on. Outcomes that depend
//! on wall-clock time or cancellation are reported as
//! [`EngineOutcome::Unknown`] (machine-dependent), while conflict-budget
//! exhaustion stays [`EngineOutcome::Exhausted`] (deterministic).

use crate::certify::{cex_hash, CertificateStatus};
use crate::checker::{Bmc, Cex, CheckOutcome, FailureReason, ProveOutcome, StopCause};
use crate::config::CheckConfig;
use autocc_hdl::{Module, NodeId};
use autocc_telemetry::SolverCounters;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cancellation flag, cloned into every job of a race.
///
/// Engines poll [`CancelToken::is_cancelled`] at depth-step boundaries and
/// bail out with [`EngineOutcome::Exhausted`] once it is set.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// What to check: a module plus the properties asserted over it and the
/// environment constraints assumed over it.
#[derive(Clone, Debug)]
pub struct CheckSpec<'m> {
    /// The design under test.
    pub module: &'m Module,
    /// `(name, node)` safety properties; each node is 1 bit and must be 1
    /// on every cycle.
    pub properties: Vec<(String, NodeId)>,
    /// 1-bit constraint nodes assumed 1 on every cycle.
    pub constraints: Vec<NodeId>,
}

impl<'m> CheckSpec<'m> {
    /// An empty spec over `module`.
    pub fn new(module: &'m Module) -> CheckSpec<'m> {
        CheckSpec {
            module,
            properties: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a property (builder style).
    pub fn property(mut self, name: impl Into<String>, node: NodeId) -> Self {
        self.properties.push((name.into(), node));
        self
    }

    /// Adds a constraint (builder style).
    pub fn constraint(mut self, node: NodeId) -> Self {
        self.constraints.push(node);
        self
    }

    /// Adds a batch of constraints (builder style).
    pub fn constraints(mut self, nodes: &[NodeId]) -> Self {
        self.constraints.extend_from_slice(nodes);
        self
    }
}

/// Why a job ended [`EngineOutcome::Unknown`]: a machine-dependent stop
/// (wall-clock or cancellation), as opposed to the deterministic
/// conflict-budget exhaustion of [`EngineOutcome::Exhausted`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownCause {
    /// The wall-clock budget ran out mid-check.
    TimeBudget,
    /// The job was cancelled (e.g. it lost a portfolio race).
    Cancelled,
}

impl std::fmt::Display for UnknownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UnknownCause::TimeBudget => "timeout",
            UnknownCause::Cancelled => "cancelled",
        })
    }
}

/// A contained job fault: which engine failed, on what, how far it got,
/// why, and after how many attempts. Carried by [`EngineOutcome::Failed`]
/// instead of tearing down the batch.
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// Name of the failing engine ([`CheckEngine::name`]).
    pub engine: String,
    /// The property being checked, when the failure is attributable.
    pub property: Option<String>,
    /// Depth reached when the fault hit, in cycles.
    pub depth: usize,
    /// Failure classification.
    pub reason: FailureReason,
    /// Human-readable diagnostic (panic payload, divergence report, ...).
    pub detail: String,
    /// Number of attempts made (1 = no retries).
    pub attempts: u32,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine `{}` failed ({}) at depth {} after {} attempt{}: {}",
            self.engine,
            self.reason,
            self.depth,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.detail
        )?;
        if let Some(p) = &self.property {
            write!(f, " [property {p}]")?;
        }
        Ok(())
    }
}

/// Result of one engine run over one spec.
#[derive(Clone, Debug)]
pub enum EngineOutcome {
    /// A property is violated; the trace proves it.
    Cex(Cex),
    /// No violation exists within `depth` cycles (bounded proof).
    BoundReached {
        /// The proven bound, in cycles.
        depth: usize,
    },
    /// The properties hold on all reachable states, for any depth.
    Proved {
        /// The induction depth at which the step case closed.
        induction_depth: usize,
    },
    /// Conflict budget exhausted; `depth` cycles are still proven.
    /// Deterministic: identical on every machine and run.
    Exhausted {
        /// Deepest fully-proven depth, in cycles.
        depth: usize,
    },
    /// Stopped by wall-clock budget or cancellation; `depth` cycles are
    /// still proven, but where the run stopped is machine-dependent.
    Unknown {
        /// Deepest fully-proven depth, in cycles.
        depth: usize,
        /// What stopped the run.
        cause: UnknownCause,
    },
    /// The job hit an internal fault (panic, replay mismatch, ...); the
    /// result is unusable but the rest of the batch continues.
    Failed(JobFailure),
}

impl EngineOutcome {
    /// A conclusive outcome settles the question the job asked;
    /// [`EngineOutcome::Exhausted`], [`EngineOutcome::Unknown`] and
    /// [`EngineOutcome::Failed`] do not. Races stop on the first
    /// conclusive result.
    pub fn is_conclusive(&self) -> bool {
        matches!(
            self,
            EngineOutcome::Cex(_)
                | EngineOutcome::BoundReached { .. }
                | EngineOutcome::Proved { .. }
        )
    }

    /// The deepest fully-proven depth this outcome still guarantees, when
    /// it guarantees one ([`EngineOutcome::Failed`] guarantees nothing).
    pub fn proven_depth(&self) -> Option<usize> {
        match self {
            EngineOutcome::Cex(_) | EngineOutcome::Failed(_) => None,
            EngineOutcome::BoundReached { depth }
            | EngineOutcome::Exhausted { depth }
            | EngineOutcome::Unknown { depth, .. } => Some(*depth),
            EngineOutcome::Proved { .. } => Some(usize::MAX),
        }
    }
}

fn stop_outcome(depth: usize, cause: StopCause) -> EngineOutcome {
    match cause {
        StopCause::ConflictBudget => EngineOutcome::Exhausted { depth },
        StopCause::TimeBudget => EngineOutcome::Unknown {
            depth,
            cause: UnknownCause::TimeBudget,
        },
        StopCause::Cancelled => EngineOutcome::Unknown {
            depth,
            cause: UnknownCause::Cancelled,
        },
    }
}

/// One finished engine run: the outcome plus the solver work it cost.
///
/// Engines report their counters unconditionally (a struct copy, no clock
/// reads), so run reports carry stats even with telemetry disabled.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// What the engine concluded.
    pub outcome: EngineOutcome,
    /// Solver work spent reaching it.
    pub counters: SolverCounters,
    /// Whether the outcome carries an independently-checked certificate
    /// (DRAT transcript for UNSAT-backed verdicts, replayed trace for
    /// counterexamples). Always `Uncertified` without `--certify` and for
    /// inconclusive outcomes.
    pub certificate: CertificateStatus,
}

impl From<EngineOutcome> for EngineRun {
    fn from(outcome: EngineOutcome) -> EngineRun {
        EngineRun {
            outcome,
            counters: SolverCounters::default(),
            certificate: CertificateStatus::Uncertified,
        }
    }
}

/// One engine run that answered every property of its spec on its own
/// ([`CheckEngine::check_each`]).
#[derive(Clone, Debug)]
pub struct EachRun {
    /// One outcome and the certificate it earned per spec property, in
    /// spec order.
    pub answers: Vec<(EngineOutcome, CertificateStatus)>,
    /// Solver work of the whole run, counted once.
    pub counters: SolverCounters,
}

/// The certificate a conclusive outcome earned: the checker's transcript
/// hash for UNSAT-backed verdicts, the replayed-trace hash for
/// counterexamples, `Uncertified` for everything inconclusive.
fn certificate_for(
    outcome: &EngineOutcome,
    config: &CheckConfig,
    unsat: CertificateStatus,
) -> CertificateStatus {
    if !config.certify {
        return CertificateStatus::Uncertified;
    }
    match outcome {
        EngineOutcome::BoundReached { .. } | EngineOutcome::Proved { .. } => unsat,
        // A Cex has, by construction, already been replay-validated
        // against the interpreter; its trace is the certificate.
        EngineOutcome::Cex(cex) => CertificateStatus::Certified {
            hash: cex_hash(cex),
        },
        _ => CertificateStatus::Uncertified,
    }
}

/// A check engine: one strategy for deciding a [`CheckSpec`].
pub trait CheckEngine: Send + Sync {
    /// Short stable name, used in logs and reports.
    fn name(&self) -> &'static str;

    /// Runs the engine to completion, budget exhaustion, or cancellation.
    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun;

    /// Answers every property of `spec` on its own, in one run: property
    /// `i`'s outcome is the one [`CheckEngine::check`] gives over `spec`
    /// with that property alone (its wall-clock and conflict budgets
    /// apply to it alone too). `None`, the default, says the engine
    /// answers one spec per call, so callers run one `check` per
    /// property instead.
    fn check_each(
        &self,
        _spec: &CheckSpec<'_>,
        _config: &CheckConfig,
        _cancel: &CancelToken,
    ) -> Option<EachRun> {
        None
    }
}

fn configure<'m>(spec: &CheckSpec<'m>, config: &CheckConfig, cancel: &CancelToken) -> Bmc<'m> {
    let mut bmc = Bmc::with_telemetry(spec.module, config.telemetry.clone());
    for &c in &spec.constraints {
        bmc.add_constraint(c);
    }
    for (name, p) in &spec.properties {
        bmc.add_property(name.clone(), *p);
    }
    bmc.set_slicing(config.slice);
    bmc.set_cancel_token(cancel.clone());
    bmc
}

/// Incremental bounded model checking (falsification / bounded proof).
#[derive(Clone, Copy, Debug, Default)]
pub struct BmcEngine;

impl CheckEngine for BmcEngine {
    fn name(&self) -> &'static str {
        "bmc"
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        let mut bmc = configure(spec, config, cancel);
        let outcome = self.outcome(bmc.check(config), None);
        let certificate = certificate_for(&outcome, config, bmc.certificate());
        EngineRun {
            outcome,
            counters: bmc.counters(),
            certificate,
        }
    }

    /// One [`Bmc::check_each`] run: a property clean at the bound carries
    /// the run's final transcript hash, a counterexample its trace hash.
    fn check_each(
        &self,
        spec: &CheckSpec<'_>,
        config: &CheckConfig,
        cancel: &CancelToken,
    ) -> Option<EachRun> {
        let mut bmc = configure(spec, config, cancel);
        let outcomes = bmc.check_each(config);
        let unsat = bmc.certificate();
        let answers = outcomes
            .into_iter()
            .zip(&spec.properties)
            .map(|(outcome, (name, _))| {
                let outcome = self.outcome(outcome, Some(name));
                let certificate = certificate_for(&outcome, config, unsat);
                (outcome, certificate)
            })
            .collect();
        Some(EachRun {
            answers,
            counters: bmc.counters(),
        })
    }
}

impl BmcEngine {
    /// A checker outcome as an engine outcome; a failure names `property`
    /// when it is about one.
    fn outcome(&self, outcome: CheckOutcome, property: Option<&str>) -> EngineOutcome {
        match outcome {
            CheckOutcome::Cex(cex) => EngineOutcome::Cex(cex),
            CheckOutcome::BoundReached { depth } => EngineOutcome::BoundReached { depth },
            CheckOutcome::Exhausted { depth, cause } => stop_outcome(depth, cause),
            CheckOutcome::Failed(failure) => EngineOutcome::Failed(JobFailure {
                engine: self.name().to_string(),
                property: property.map(str::to_string),
                depth: failure.depth,
                reason: failure.reason,
                detail: failure.detail,
                attempts: 1,
            }),
        }
    }
}

/// K-induction with simple-path constraints (full proofs), interleaved
/// with base-case BMC (so it also finds counterexamples).
#[derive(Clone, Copy, Debug, Default)]
pub struct KInductionEngine;

impl CheckEngine for KInductionEngine {
    fn name(&self) -> &'static str {
        "k-induction"
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        let mut bmc = configure(spec, config, cancel);
        let outcome = match bmc.prove(config) {
            ProveOutcome::Proved { induction_depth } => EngineOutcome::Proved { induction_depth },
            ProveOutcome::Cex(cex) => EngineOutcome::Cex(cex),
            ProveOutcome::Exhausted { bound, cause } => stop_outcome(bound, cause),
            ProveOutcome::Failed(failure) => EngineOutcome::Failed(JobFailure {
                engine: self.name().to_string(),
                property: None,
                depth: failure.depth,
                reason: failure.reason,
                detail: failure.detail,
                attempts: 1,
            }),
        };
        let certificate = certificate_for(&outcome, config, bmc.prove_certificate());
        EngineRun {
            outcome,
            counters: bmc.counters(),
            certificate,
        }
    }
}

/// Demotes an engine's [`EngineOutcome::BoundReached`] to
/// [`EngineOutcome::Exhausted`], making it inconclusive.
///
/// Use this to enter a bounded engine into a *full-proof* race: the
/// falsifier can win only by finding a counterexample; merely reaching its
/// bound must not cancel a prover that could still close the proof.
#[derive(Clone, Copy, Debug, Default)]
pub struct Falsifier<E>(pub E);

impl<E: CheckEngine> CheckEngine for Falsifier<E> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        let mut run = self.0.check(spec, config, cancel);
        if let EngineOutcome::BoundReached { depth } = run.outcome {
            // The demoted outcome is inconclusive; it carries no
            // certificate even if the bounded proof checked.
            run.outcome = EngineOutcome::Exhausted { depth };
            run.certificate = CertificateStatus::Uncertified;
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocc_hdl::{Bv, ModuleBuilder};

    fn counter_module() -> Module {
        let mut b = ModuleBuilder::new("counter");
        let c = b.reg("count", 3, Bv::zero(3));
        let one = b.lit(3, 1);
        let next = b.add(c, one);
        b.set_next(c, next);
        let five = b.lit(3, 5);
        let below = b.ult(c, five);
        b.output("small", below);
        b.build()
    }

    #[test]
    fn bmc_engine_finds_cex() {
        let m = counter_module();
        let spec = CheckSpec::new(&m).property("count_below_5", m.output_node("small").unwrap());
        let config = CheckConfig::default().depth(16).no_timeout();
        let run = BmcEngine.check(&spec, &config, &CancelToken::new());
        match run.outcome {
            EngineOutcome::Cex(cex) => assert_eq!(cex.depth, 6),
            other => panic!("expected cex, got {other:?}"),
        }
        assert!(
            run.counters.solve_calls >= 6,
            "one solve call per depth step: {:?}",
            run.counters
        );
    }

    #[test]
    fn cancelled_job_exhausts_immediately() {
        let m = counter_module();
        let spec = CheckSpec::new(&m).property("count_below_5", m.output_node("small").unwrap());
        let config = CheckConfig::default().depth(16).no_timeout();
        let cancel = CancelToken::new();
        cancel.cancel();
        match BmcEngine.check(&spec, &config, &cancel).outcome {
            EngineOutcome::Unknown {
                depth: 0,
                cause: UnknownCause::Cancelled,
            } => {}
            other => panic!("expected immediate cancelled Unknown, got {other:?}"),
        }
    }

    #[test]
    fn sliced_and_unsliced_agree() {
        let m = counter_module();
        let spec = CheckSpec::new(&m).property("count_below_5", m.output_node("small").unwrap());
        let config = CheckConfig::default().depth(16).no_timeout();
        let plain = BmcEngine.check(&spec, &config, &CancelToken::new());
        let sliced = BmcEngine.check(&spec, &config.clone().slice(true), &CancelToken::new());
        match (plain.outcome, sliced.outcome) {
            (EngineOutcome::Cex(a), EngineOutcome::Cex(b)) => {
                assert_eq!(a.depth, b.depth);
                assert_eq!(a.property, b.property);
            }
            other => panic!("expected matching cexes, got {other:?}"),
        }
    }
}
