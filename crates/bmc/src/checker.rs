//! Incremental bounded model checking and k-induction.
//!
//! [`Bmc`] checks safety properties of a module: every property is a 1-bit
//! node that must evaluate to 1 on every cycle, under 1-bit constraint
//! nodes assumed to hold on every cycle. This is exactly the shape of the
//! AutoCC properties (Listing 1 of the paper): single-cycle implications
//! over interface signals, with assumptions constraining the environment.
//!
//! The checker unrolls the bit-blasted transition relation frame by frame
//! into the CDCL solver, reusing learnt clauses across depths (the
//! incremental analogue of JasperGold's bounded engines). Counterexamples
//! are returned as input traces and are *replay-validated* against the
//! word-level interpreter before being reported.

use crate::certify::{CertificateStatus, CertificationEffort, UnsatCertifier};
use crate::config::{solver_counters, CheckConfig};
use crate::engine::CancelToken;
use crate::trace::Trace;
use autocc_aig::{assert_true_lit, sequential_coi, FrameMap, SeqAig, SeqCoi};
use autocc_hdl::{Bv, Module, NodeId};
use autocc_sat::{Lit, SolveResult, Solver};
use autocc_telemetry::{SolverCounters, SpanKind, Telemetry};
use std::time::{Duration, Instant};

/// A counterexample to a property.
#[derive(Clone, Debug)]
pub struct Cex {
    /// Name of the violated property.
    pub property: String,
    /// Trace length in cycles (the paper's "depth").
    pub depth: usize,
    /// The violating input sequence, starting from reset.
    pub trace: Trace,
}

/// Why a check stopped before reaching a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// The conflict budget ran out — deterministic and machine-independent.
    ConflictBudget,
    /// The wall-clock budget ran out (machine-dependent by nature).
    TimeBudget,
    /// Cancellation was requested, e.g. the job lost a portfolio race.
    Cancelled,
}

impl std::fmt::Display for StopCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopCause::ConflictBudget => "conflict budget",
            StopCause::TimeBudget => "timeout",
            StopCause::Cancelled => "cancelled",
        })
    }
}

/// Why a check *failed* (as opposed to stopping at a budget): a fault that
/// is reported as a structured outcome instead of tearing the process down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureReason {
    /// A SAT-level counterexample did not reproduce on interpreter replay —
    /// an encoder/simulator divergence, i.e. a checker bug, never a finding.
    ReplayMismatch,
    /// An internal invariant of the check stack broke.
    InternalInconsistency,
    /// The job panicked and the panic was contained.
    Panic,
    /// The job exceeded the campaign watchdog's hard wall-clock limit (a
    /// multiple of its configured time budget) and was abandoned — a hang
    /// in a phase the in-solver deadline poll cannot see.
    Hang,
    /// An isolated check worker died without reporting a result (abort,
    /// OOM-kill, SIGKILL, or a crash the in-process containment cannot
    /// see). The parent survives; the attempt is the only casualty.
    WorkerDied,
    /// An isolated check worker exceeded its RSS memory budget and was
    /// killed by the supervisor before it could take the host down.
    MemoryLimit,
    /// The check killed enough workers to trip the per-content-key
    /// circuit breaker and is quarantined: journaled as failed, skipped
    /// on `--resume`, reopened only by `--retry-failed`.
    Quarantined,
    /// Under `--certify`, an UNSAT solve produced a proof the independent
    /// checker rejected, produced no certificate at all, or a journaled
    /// certificate failed its binding check. A certification failure is
    /// reported as FAILED — never silently downgraded to PASS — because
    /// it means the verdict cannot be independently trusted.
    Certification,
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureReason::ReplayMismatch => "replay mismatch",
            FailureReason::InternalInconsistency => "internal inconsistency",
            FailureReason::Panic => "panic",
            FailureReason::Hang => "hang",
            FailureReason::WorkerDied => "worker died",
            FailureReason::MemoryLimit => "memory limit",
            FailureReason::Quarantined => "quarantined",
            FailureReason::Certification => "certification",
        })
    }
}

/// A structured checker failure.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// What went wrong.
    pub reason: FailureReason,
    /// Human-readable diagnostic.
    pub detail: String,
    /// Depth reached when the failure was detected, in cycles.
    pub depth: usize,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at depth {}: {}",
            self.reason, self.depth, self.detail
        )
    }
}

/// Outcome of a bounded check.
#[derive(Clone, Debug)]
pub enum CheckOutcome {
    /// A property is violated; the trace proves it.
    Cex(Cex),
    /// No violation exists within `depth` cycles (bounded proof).
    BoundReached {
        /// The proven bound, in cycles.
        depth: usize,
    },
    /// Budget exhausted or cancelled before reaching the requested bound.
    Exhausted {
        /// Deepest fully-proven depth, in cycles.
        depth: usize,
        /// Which budget (or cancellation) stopped the check.
        cause: StopCause,
    },
    /// The check hit an internal fault; the result is unusable but the
    /// process survives.
    Failed(CheckFailure),
}

/// Outcome of a k-induction proof attempt.
#[derive(Clone, Debug)]
pub enum ProveOutcome {
    /// The properties hold on all reachable states, for any depth.
    Proved {
        /// The induction depth at which the step case closed.
        induction_depth: usize,
    },
    /// A real counterexample was found during the base case.
    Cex(Cex),
    /// Budget exhausted; `bound` cycles are still proven (base case).
    Exhausted {
        /// Deepest fully-proven depth, in cycles.
        bound: usize,
        /// Which budget (or cancellation) stopped the attempt.
        cause: StopCause,
    },
    /// The proof attempt hit an internal fault.
    Failed(CheckFailure),
}

/// Aggregate statistics of a checker instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct BmcStats {
    /// Frames encoded so far.
    pub frames: usize,
    /// SAT solver conflicts.
    pub conflicts: u64,
    /// SAT variables allocated.
    pub vars: usize,
    /// Wall-clock time spent inside `check`/`prove`.
    pub solve_time: Duration,
}

struct Frame {
    /// Fresh SAT literals for the input-port bits of this cycle.
    port_lits: Vec<Lit>,
    /// SAT literals of the next-state functions (inputs to the next frame).
    next_state: Vec<Lit>,
    /// SAT literal per property at this cycle.
    prop_lits: Vec<Lit>,
    /// Assumption literals: one that forces "some property violated
    /// here", or, in the per-property mode ([`Bmc::check_each`]), one per
    /// property that forces that property's violation.
    bad: Vec<Lit>,
}

/// Incremental bounded model checker for one module.
pub struct Bmc<'m> {
    module: &'m Module,
    seq: SeqAig,
    solver: Solver,
    const_true: Lit,
    constraints: Vec<NodeId>,
    properties: Vec<(String, NodeId)>,
    frames: Vec<Frame>,
    stats: BmcStats,
    slice: bool,
    coi: Option<SeqCoi>,
    /// Whether the frames carry one `bad` selector per property (the
    /// per-property mode of [`Bmc::check_each`]) instead of one in all.
    per_property: bool,
    cancel: CancelToken,
    telemetry: Telemetry,
    /// Solver work done outside the base solver (the k-induction step
    /// solver), folded into [`Bmc::counters`].
    aux_counters: SolverCounters,
    /// DRAT certification state for the base solver, armed by
    /// `CheckConfig::certify` before the first solve.
    certifier: Option<UnsatCertifier>,
    /// Certificate status of the last `prove` call's induction-step
    /// solver, folded into [`Bmc::prove_certificate`].
    step_cert: CertificateStatus,
    /// Checking work of the last `prove` call's induction-step certifier.
    step_effort: CertificationEffort,
}

/// The in-solver deadline of a run started at `start` with `budget` to
/// spend: none without a budget, and none when the budget reaches past
/// what an [`Instant`] can represent (a budget that large is no limit).
fn deadline(start: Instant, budget: Option<Duration>) -> Option<Instant> {
    budget.and_then(|tb| start.checked_add(tb))
}

/// What one property of a per-property run has spent so far: the
/// conflicts and wall time of its own solve calls.
#[derive(Clone, Copy, Default)]
struct Spent {
    conflicts: u64,
    time: Duration,
}

impl<'m> Bmc<'m> {
    /// Creates a checker for `module`. Constraints and properties must be
    /// added before the first [`Bmc::check`] call.
    pub fn new(module: &'m Module) -> Bmc<'m> {
        let seq = SeqAig::from_module(module);
        let mut solver = Solver::new();
        let const_true = assert_true_lit(&mut solver);
        Bmc {
            module,
            seq,
            solver,
            const_true,
            constraints: Vec::new(),
            properties: Vec::new(),
            frames: Vec::new(),
            stats: BmcStats::default(),
            slice: false,
            coi: None,
            per_property: false,
            cancel: CancelToken::new(),
            telemetry: Telemetry::off(),
            aux_counters: SolverCounters::default(),
            certifier: None,
            step_cert: CertificateStatus::Uncertified,
            step_effort: CertificationEffort::default(),
        }
    }

    /// Creates a checker with a telemetry handle attached; the bit-blast
    /// (word-level module → AIG) is timed under a `bit-blast` phase span.
    pub fn with_telemetry(module: &'m Module, telemetry: Telemetry) -> Bmc<'m> {
        let span = telemetry.child(SpanKind::Phase, "bit-blast");
        let mut bmc = Bmc::new(module);
        span.close();
        bmc.telemetry = telemetry;
        bmc
    }

    /// Attaches (or replaces) the telemetry handle; spans opened by this
    /// checker become children of its current span.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Enables or disables sequential cone-of-influence slicing: state and
    /// input bits outside the cone of the registered properties and
    /// constraints are never encoded, shrinking the SAT instance without
    /// changing any outcome.
    ///
    /// # Panics
    ///
    /// Panics if called after checking started.
    pub fn set_slicing(&mut self, on: bool) {
        assert!(self.frames.is_empty(), "set slicing before checking");
        self.slice = on;
        self.coi = None;
    }

    /// Installs a cancellation token, polled between depth steps. A
    /// cancelled check returns [`CheckOutcome::Exhausted`] at the deepest
    /// fully-proven depth.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// The cone-of-influence computed for the registered properties, if
    /// slicing is enabled and checking has started.
    pub fn coi(&self) -> Option<&SeqCoi> {
        self.coi.as_ref()
    }

    /// Computes the COI once, from the property and constraint roots.
    fn ensure_coi(&mut self) -> Option<SeqCoi> {
        if !self.slice {
            return None;
        }
        if self.coi.is_none() {
            let roots: Vec<_> = self
                .properties
                .iter()
                .map(|(_, p)| *p)
                .chain(self.constraints.iter().copied())
                .map(|n| self.seq.node_lits[n.index()][0])
                .collect();
            self.coi = Some(sequential_coi(&self.seq, &roots));
        }
        self.coi.clone()
    }

    /// The module under check.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Statistics so far.
    pub fn stats(&self) -> BmcStats {
        let mut s = self.stats;
        s.conflicts = self.solver.stats().conflicts;
        s.vars = self.solver.num_vars();
        s.frames = self.frames.len();
        s
    }

    /// Cumulative solver counters across this checker's lifetime — the
    /// base solver plus any k-induction step solver it has driven.
    pub fn counters(&self) -> SolverCounters {
        let mut c = solver_counters(&self.solver.stats());
        c += &self.aux_counters;
        c
    }

    /// Arms DRAT certification when `config.certify` asks for it: enables
    /// proof logging on the base solver (retro-logging clauses already
    /// encoded) and creates the independent checker. Logging must start
    /// before any search so the transcript is complete; a certify request
    /// arriving after a solve already ran cannot be honoured and degrades
    /// to a certification failure rather than silently passing.
    fn arm_certifier(&mut self, config: &CheckConfig) -> Result<(), CheckFailure> {
        if !config.certify || self.certifier.is_some() {
            return Ok(());
        }
        if self.solver.stats().solve_calls > 0 {
            return Err(CheckFailure {
                reason: FailureReason::Certification,
                detail: "certification requested after search already started; \
                         create the checker with certify enabled from the start"
                    .to_string(),
                depth: self.frames.len(),
            });
        }
        self.solver.enable_proof_logging();
        self.certifier = Some(UnsatCertifier::new());
        Ok(())
    }

    /// Certificate status of the base (bounded) side: `Certified` with the
    /// cumulative DRAT transcript hash when certification is armed — in
    /// which case every UNSAT solve so far was independently checked
    /// (failures return early as FAILED(certification)).
    pub fn certificate(&self) -> CertificateStatus {
        match &self.certifier {
            Some(c) => CertificateStatus::Certified {
                hash: c.transcript_hash(),
            },
            None => CertificateStatus::Uncertified,
        }
    }

    /// Certificate status of the last [`Bmc::prove`] call: base-case and
    /// induction-step certificates combined (certified only if both are).
    pub fn prove_certificate(&self) -> CertificateStatus {
        self.certificate().combine(&self.step_cert)
    }

    /// Proof steps checked, microseconds spent checking and chain
    /// fallbacks, across the base and (after `prove`) induction-step
    /// certifiers. `None` when certification is off.
    pub fn certification_effort(&self) -> Option<CertificationEffort> {
        self.certifier
            .as_ref()
            .map(|c| c.effort() + self.step_effort)
    }

    /// Test-only tamper hook: injects a raw step into the base solver's
    /// proof transcript, so tests can prove that a corrupted proof stream
    /// degrades the verdict to FAILED(certification) and never PASS. On a
    /// checker that has not searched yet, proof logging starts here, so
    /// the step lands ahead of the first certified solve.
    #[doc(hidden)]
    pub fn inject_proof_step_for_test(&mut self, step: autocc_sat::ProofStep) {
        if self.solver.stats().solve_calls == 0 {
            self.solver.enable_proof_logging();
        }
        self.solver.inject_proof_step(step);
    }

    /// Adds an environment constraint: `node` (1-bit) is assumed 1 on every
    /// cycle. This is the paper's `assume property (...)`.
    ///
    /// # Panics
    ///
    /// Panics if called after checking started or if `node` is not 1 bit.
    pub fn add_constraint(&mut self, node: NodeId) {
        assert!(self.frames.is_empty(), "add constraints before checking");
        assert_eq!(self.module.width(node), 1, "constraints must be 1 bit");
        self.constraints.push(node);
    }

    /// Adds a safety property: `node` (1-bit) must be 1 on every cycle.
    /// This is the paper's `assert property (...)`.
    ///
    /// # Panics
    ///
    /// Panics if called after checking started or if `node` is not 1 bit.
    pub fn add_property(&mut self, name: impl Into<String>, node: NodeId) {
        assert!(self.frames.is_empty(), "add properties before checking");
        assert_eq!(self.module.width(node), 1, "properties must be 1 bit");
        self.properties.push((name.into(), node));
    }

    /// Number of registered properties.
    pub fn num_properties(&self) -> usize {
        self.properties.len()
    }

    fn build_frame(&mut self) {
        let coi = self.ensure_coi();
        let keep_port = |k: usize| coi.as_ref().is_none_or(|c| c.port_keep[k]);
        let keep_state = |j: usize| coi.as_ref().is_none_or(|c| c.state_keep[j]);
        let t = self.frames.len();
        let state_lits: Vec<Lit> = if t == 0 {
            self.seq
                .state_init
                .iter()
                .map(|&b| if b { self.const_true } else { !self.const_true })
                .collect()
        } else {
            self.frames[t - 1].next_state.clone()
        };
        // Out-of-cone port bits get a constant placeholder instead of a
        // fresh variable; no encoded cone ever reads them (the COI is
        // transitively closed), so the placeholder value is never observed.
        let port_lits: Vec<Lit> = (0..self.seq.num_port_bits())
            .map(|k| {
                if keep_port(k) {
                    self.solver.new_var().positive()
                } else {
                    !self.const_true
                }
            })
            .collect();
        let mut aig_inputs = port_lits.clone();
        aig_inputs.extend_from_slice(&state_lits);
        let mut map = FrameMap::new(&self.seq.aig, &aig_inputs, self.const_true);

        // Constraints hold on every encoded cycle (hard clauses).
        for &c in &self.constraints.clone() {
            let lit = self.node_lit(&mut map, c);
            self.solver.add_clause(&[lit]);
        }
        // Property literals and the per-frame "bad" selectors.
        let prop_lits: Vec<Lit> = self
            .properties
            .clone()
            .iter()
            .map(|(_, p)| self.node_lit(&mut map, *p))
            .collect();
        let bad = if self.per_property {
            // bad_p → property p is false at this cycle, in property order.
            prop_lits
                .iter()
                .map(|&p| {
                    let bad = self.solver.new_var().positive();
                    self.solver.add_clause(&[!bad, !p]);
                    bad
                })
                .collect()
        } else {
            let bad = self.solver.new_var().positive();
            // bad → at least one property is false at this cycle.
            let mut clause: Vec<Lit> = vec![!bad];
            clause.extend(prop_lits.iter().map(|&p| !p));
            self.solver.add_clause(&clause);
            vec![bad]
        };

        // Next-state literals (wired into the following frame). Dropped
        // bits keep a constant placeholder so their cones never reach the
        // lazy encoder.
        let next_state: Vec<Lit> = self
            .seq
            .state_next
            .clone()
            .iter()
            .enumerate()
            .map(|(j, &l)| {
                if keep_state(j) {
                    map.sat_lit(&mut self.solver, &self.seq.aig, l)
                } else {
                    !self.const_true
                }
            })
            .collect();

        self.frames.push(Frame {
            port_lits,
            next_state,
            prop_lits,
            bad,
        });
    }

    fn node_lit(&mut self, map: &mut FrameMap, node: NodeId) -> Lit {
        let aig_lit = self.seq.node_lits[node.index()][0];
        map.sat_lit(&mut self.solver, &self.seq.aig, aig_lit)
    }

    /// Installs the cancellation hook (and, with telemetry on, live
    /// counter samples) on the solver, and records the slice phase before
    /// the first frame.
    fn start_run(&mut self) {
        let token = self.cancel.clone();
        self.solver
            .set_interrupt_hook(Some(Box::new(move || token.is_cancelled())));
        if self.telemetry.enabled() {
            // Live counter samples, at the same poll cadence as the
            // interrupt hook. A gauge overwrites its previous value, so
            // long searches stay bounded in the recorder.
            let t = self.telemetry.clone();
            self.solver.set_progress_hook(Some(Box::new(move |stats| {
                t.gauge("live_conflicts", stats.conflicts);
            })));
        }
        // The slice phase is recorded even with slicing off (near-zero
        // duration): profiles always show where COI time would go.
        if self.frames.is_empty() {
            let span = self.telemetry.child(SpanKind::Phase, "coi-slice");
            self.ensure_coi();
            span.close();
        }
    }

    /// Encodes the next frame, `depth`, under a `cnf-encode` span.
    fn encode_frame(&mut self, depth: usize) {
        let span = self.telemetry.child(SpanKind::Phase, "cnf-encode");
        self.build_frame();
        span.gauge("depth", depth as u64);
        span.close();
    }

    /// One solve at `depth` under the selector `bad`, in a `solve` span
    /// carrying its counters. Returns the verdict and the work it took.
    fn solve_at(&mut self, depth: usize, bad: Lit) -> (SolveResult, autocc_sat::Stats) {
        let span = self.telemetry.child(SpanKind::Solve, "solve");
        span.gauge("depth", depth as u64);
        let before = self.solver.stats();
        let verdict = self.solver.solve_with(&[bad]);
        let work = self.solver.stats().diff(&before);
        span.counters(&solver_counters(&work));
        span.close();
        (verdict, work)
    }

    /// The outcome of a SAT answer at `depth`: the replay-validated
    /// counterexample (extracted under a `certify` span), or the
    /// divergence that replay exposed.
    fn sat_outcome(&mut self, depth: usize, property: Option<usize>) -> CheckOutcome {
        let span = self.telemetry.child(SpanKind::Phase, "certify");
        let extracted = self.extract_cex(depth, property);
        span.close();
        match extracted {
            Ok(cex) => CheckOutcome::Cex(cex),
            Err(failure) => CheckOutcome::Failed(failure),
        }
    }

    /// Searches for a counterexample, deepening from the current frontier.
    ///
    /// Calling `check` again after [`CheckOutcome::Cex`] continues deepening
    /// and may find further (deeper) counterexamples to other properties —
    /// but the usual AutoCC workflow is to refine the testbench and re-run.
    ///
    /// # Panics
    ///
    /// Panics if no property is registered, or if the checker ran
    /// [`Bmc::check_each`].
    pub fn check(&mut self, config: &CheckConfig) -> CheckOutcome {
        assert!(
            !self.properties.is_empty(),
            "no properties registered before check"
        );
        assert!(!self.per_property, "a per-property checker cannot batch");
        if let Err(failure) = self.arm_certifier(config) {
            return CheckOutcome::Failed(failure);
        }
        let start = Instant::now();
        // Budgets are enforced *inside* the solver: the deadline and the
        // cancellation hook are polled every few conflicts, so a single
        // pathological SAT call cannot run past its wall-clock budget.
        self.solver
            .set_deadline(deadline(start, config.time_budget));
        self.start_run();
        let conflicts_start = self.solver.stats().conflicts;
        let mut depth = self.frames.len();
        while depth < config.max_depth {
            if self.cancel.is_cancelled() {
                self.stats.solve_time += start.elapsed();
                return CheckOutcome::Exhausted {
                    depth,
                    cause: StopCause::Cancelled,
                };
            }
            if let Some(tb) = config.time_budget {
                if start.elapsed() > tb {
                    self.stats.solve_time += start.elapsed();
                    return CheckOutcome::Exhausted {
                        depth,
                        cause: StopCause::TimeBudget,
                    };
                }
            }
            if self.frames.len() == depth {
                self.encode_frame(depth);
            }
            let frame_bad = self.frames[depth].bad[0];
            if let Some(cb) = config.conflict_budget {
                let used = self.solver.stats().conflicts - conflicts_start;
                if used >= cb {
                    self.stats.solve_time += start.elapsed();
                    return CheckOutcome::Exhausted {
                        depth,
                        cause: StopCause::ConflictBudget,
                    };
                }
                self.solver.set_conflict_budget(Some(cb - used));
            } else {
                self.solver.set_conflict_budget(None);
            }
            let (verdict, _) = self.solve_at(depth, frame_bad);
            match verdict {
                SolveResult::Sat => {
                    let outcome = self.sat_outcome(depth, None);
                    self.stats.solve_time += start.elapsed();
                    return outcome;
                }
                SolveResult::Unsat => {
                    // Under --certify, the bounded proof of this depth is
                    // only accepted once the independent checker validates
                    // the DRAT transcript and the assumption certificate.
                    if let Some(certifier) = &mut self.certifier {
                        if let Err(detail) =
                            certifier.certify_unsat(&mut self.solver, &[frame_bad], &self.telemetry)
                        {
                            self.stats.solve_time += start.elapsed();
                            return CheckOutcome::Failed(CheckFailure {
                                reason: FailureReason::Certification,
                                detail,
                                depth,
                            });
                        }
                    }
                    depth += 1;
                }
                SolveResult::Unknown => {
                    self.stats.solve_time += start.elapsed();
                    return CheckOutcome::Exhausted {
                        depth,
                        cause: StopCause::ConflictBudget,
                    };
                }
                SolveResult::Stopped => {
                    self.stats.solve_time += start.elapsed();
                    let cause = if self.cancel.is_cancelled() {
                        StopCause::Cancelled
                    } else {
                        StopCause::TimeBudget
                    };
                    return CheckOutcome::Exhausted { depth, cause };
                }
            }
        }
        self.stats.solve_time += start.elapsed();
        CheckOutcome::BoundReached {
            depth: config.max_depth,
        }
    }

    /// The per-property mode: answers every registered property on its
    /// own, from one unrolling. Each frame carries one `bad` selector per
    /// property, and the search runs depth by depth and, within a depth,
    /// in registration order: one solve per still-open property under its
    /// own selector. Every property so gets the answer a checker holding
    /// it alone gives (its first violation, or the bound), while the
    /// transition relation is encoded, and learnt about, once.
    ///
    /// - A SAT answer is that property's counterexample, which on replay
    ///   must violate that very property. An UNSAT answer is certified
    ///   when certification is armed, and the property deepens.
    /// - A property retires at its first counterexample or at
    ///   `max_depth`; encoding stops once every property has retired.
    /// - Budgets hold per property: each is charged the conflicts and
    ///   wall time of its own solve calls, and each solve's deadline is
    ///   what remains of its time budget. Cancellation stops every open
    ///   property.
    /// - One certifier covers the run. If it rejects the transcript,
    ///   every property without a counterexample reads
    ///   FAILED(certification); [`Bmc::certificate`] is the transcript
    ///   hash that properties clean at the bound carry.
    ///
    /// Returns one outcome per property, in registration order.
    ///
    /// # Panics
    ///
    /// Panics if no property is registered or if checking already started.
    pub fn check_each(&mut self, config: &CheckConfig) -> Vec<CheckOutcome> {
        assert!(
            !self.properties.is_empty(),
            "no properties registered before check"
        );
        assert!(self.frames.is_empty(), "check_each needs a fresh checker");
        self.per_property = true;
        let n = self.properties.len();
        if let Err(failure) = self.arm_certifier(config) {
            return vec![CheckOutcome::Failed(failure); n];
        }
        let start = Instant::now();
        self.start_run();
        let mut outcomes: Vec<Option<CheckOutcome>> = vec![None; n];
        let mut spent = vec![Spent::default(); n];
        // Deepest fully-proven depth of each property.
        let mut proven = vec![0; n];
        let mut cancelled = false;
        let mut depth = 0;
        'deepen: while depth < config.max_depth && outcomes.iter().any(Option::is_none) {
            if self.cancel.is_cancelled() {
                cancelled = true;
                break;
            }
            self.encode_frame(depth);
            for p in 0..n {
                if outcomes[p].is_some() {
                    continue;
                }
                let stop = |cause| Some(CheckOutcome::Exhausted { depth, cause });
                let remaining = match config.time_budget {
                    Some(tb) if spent[p].time > tb => {
                        outcomes[p] = stop(StopCause::TimeBudget);
                        continue;
                    }
                    budget => budget.map(|tb| tb - spent[p].time),
                };
                match config.conflict_budget {
                    Some(cb) if spent[p].conflicts >= cb => {
                        outcomes[p] = stop(StopCause::ConflictBudget);
                        continue;
                    }
                    budget => self
                        .solver
                        .set_conflict_budget(budget.map(|cb| cb - spent[p].conflicts)),
                }
                let solve_start = Instant::now();
                self.solver.set_deadline(deadline(solve_start, remaining));
                let bad = self.frames[depth].bad[p];
                let (verdict, work) = self.solve_at(depth, bad);
                spent[p].conflicts += work.conflicts;
                spent[p].time += solve_start.elapsed();
                match verdict {
                    SolveResult::Sat => outcomes[p] = Some(self.sat_outcome(depth, Some(p))),
                    SolveResult::Unsat => {
                        if let Some(certifier) = &mut self.certifier {
                            if let Err(detail) =
                                certifier.certify_unsat(&mut self.solver, &[bad], &self.telemetry)
                            {
                                // A rejected transcript discredits every
                                // UNSAT answer of the run; only replayed
                                // counterexamples still stand.
                                self.stats.solve_time += start.elapsed();
                                let failed = CheckOutcome::Failed(CheckFailure {
                                    reason: FailureReason::Certification,
                                    detail,
                                    depth,
                                });
                                return outcomes
                                    .into_iter()
                                    .map(|o| match o {
                                        Some(cex @ CheckOutcome::Cex(_)) => cex,
                                        _ => failed.clone(),
                                    })
                                    .collect();
                            }
                        }
                        proven[p] = depth + 1;
                    }
                    SolveResult::Unknown => outcomes[p] = stop(StopCause::ConflictBudget),
                    SolveResult::Stopped if self.cancel.is_cancelled() => {
                        cancelled = true;
                        break 'deepen;
                    }
                    SolveResult::Stopped => outcomes[p] = stop(StopCause::TimeBudget),
                }
            }
            depth += 1;
        }
        self.stats.solve_time += start.elapsed();
        outcomes
            .into_iter()
            .zip(proven)
            .map(|(outcome, proven)| {
                outcome.unwrap_or(if cancelled {
                    CheckOutcome::Exhausted {
                        depth: proven,
                        cause: StopCause::Cancelled,
                    }
                } else {
                    CheckOutcome::BoundReached {
                        depth: config.max_depth,
                    }
                })
            })
            .collect()
    }

    /// Reads the violating input sequence from the SAT model and
    /// replay-validates it against the interpreter: the trace must violate
    /// `property` (by index) when one is named, and some property
    /// otherwise. A replay that disagrees with the SAT model is an
    /// encoder/simulator divergence — a checker bug — and is returned as a
    /// structured failure, never as a finding.
    fn extract_cex(&mut self, depth: usize, property: Option<usize>) -> Result<Cex, CheckFailure> {
        let mut inputs = Vec::with_capacity(depth + 1);
        for frame in &self.frames[..=depth] {
            let mut cycle = Vec::with_capacity(self.module.inputs().len());
            let mut bit_idx = 0;
            for port in self.module.inputs() {
                let mut value = 0u64;
                for b in 0..port.width {
                    let lit = frame.port_lits[bit_idx];
                    bit_idx += 1;
                    let v = self.solver.lit_value_model(lit).unwrap_or(false);
                    value |= (v as u64) << b;
                }
                cycle.push(Bv::new(port.width, value));
            }
            inputs.push(cycle);
        }
        let trace = Trace::new(inputs);

        // Replay validation: the interpreter must agree that the property
        // fails at `depth` and all constraints hold throughout.
        let replay = trace.replay(self.module);
        for (t, _) in (0..=depth).enumerate() {
            for &c in &self.constraints {
                if !replay.node(t, c).as_bool() {
                    return Err(CheckFailure {
                        reason: FailureReason::ReplayMismatch,
                        detail: format!(
                            "encoder/simulator divergence: constraint violated at \
                             cycle {t} during replay"
                        ),
                        depth: depth + 1,
                    });
                }
            }
        }
        let violated = |(_, p): &&(String, NodeId)| !replay.node(depth, *p).as_bool();
        let found = match property {
            Some(i) => Some(&self.properties[i]).filter(violated),
            None => self.properties.iter().find(violated),
        };
        let (name, _) = found.ok_or_else(|| CheckFailure {
            reason: FailureReason::ReplayMismatch,
            detail: format!(
                "encoder/simulator divergence: SAT model does not violate {} on replay",
                property.map_or("any property".to_string(), |i| format!(
                    "`{}`",
                    self.properties[i].0
                ))
            ),
            depth: depth + 1,
        })?;

        Ok(Cex {
            property: name.clone(),
            depth: depth + 1,
            trace,
        })
    }

    /// Attempts a full (unbounded) proof by k-induction with simple-path
    /// constraints, interleaved with base-case BMC.
    ///
    /// Auxiliary strengthening invariants should be supplied as additional
    /// properties — they are proven too.
    pub fn prove(&mut self, config: &CheckConfig) -> ProveOutcome {
        let start = Instant::now();
        let coi = self.ensure_coi();
        let span = self.telemetry.child(SpanKind::Phase, "bit-blast");
        let mut induction = InductionStep::new(
            self.module,
            self.properties.clone(),
            self.constraints.clone(),
            coi,
        );
        span.close();
        induction.configure_run(
            deadline(start, config.time_budget),
            self.cancel.clone(),
            self.telemetry.clone(),
            config.certify,
        );
        let outcome = self.prove_loop(config, &mut induction, start);
        // Step-solver work counts toward this checker's totals, and its
        // certificate toward this prove call's combined certificate.
        self.aux_counters += &solver_counters(&induction.solver.stats());
        self.step_cert = induction.certificate();
        self.step_effort = induction.certification_effort();
        outcome
    }

    fn prove_loop(
        &mut self,
        config: &CheckConfig,
        induction: &mut InductionStep,
        start: Instant,
    ) -> ProveOutcome {
        for k in 1..=config.max_depth {
            if self.cancel.is_cancelled() {
                return ProveOutcome::Exhausted {
                    bound: self.frames.len(),
                    cause: StopCause::Cancelled,
                };
            }
            // Base case: no counterexample within k cycles.
            let mut base = config.clone();
            base.max_depth = k;
            base.time_budget = config
                .time_budget
                .map(|tb| tb.saturating_sub(start.elapsed()));
            match self.check(&base) {
                CheckOutcome::Cex(cex) => return ProveOutcome::Cex(cex),
                CheckOutcome::Exhausted { depth, cause } => {
                    return ProveOutcome::Exhausted {
                        bound: depth,
                        cause,
                    }
                }
                CheckOutcome::Failed(failure) => return ProveOutcome::Failed(failure),
                CheckOutcome::BoundReached { .. } => {}
            }
            // Step case: P holds for k consecutive (distinct) states ⇒ P
            // holds in the next one.
            if let Some(tb) = config.time_budget {
                if start.elapsed() > tb {
                    return ProveOutcome::Exhausted {
                        bound: k,
                        cause: StopCause::TimeBudget,
                    };
                }
            }
            match induction.step_holds(k, config) {
                StepResult::Holds => {
                    self.stats.solve_time += start.elapsed();
                    return ProveOutcome::Proved { induction_depth: k };
                }
                StepResult::Fails => {}
                StepResult::Unknown => {
                    return ProveOutcome::Exhausted {
                        bound: k,
                        cause: StopCause::ConflictBudget,
                    }
                }
                StepResult::Stopped => {
                    let cause = if self.cancel.is_cancelled() {
                        StopCause::Cancelled
                    } else {
                        StopCause::TimeBudget
                    };
                    return ProveOutcome::Exhausted { bound: k, cause };
                }
                StepResult::CertificationFailed(detail) => {
                    return ProveOutcome::Failed(CheckFailure {
                        reason: FailureReason::Certification,
                        detail,
                        depth: k,
                    })
                }
            }
        }
        ProveOutcome::Exhausted {
            bound: config.max_depth,
            cause: StopCause::ConflictBudget,
        }
    }
}

enum StepResult {
    Holds,
    Fails,
    Unknown,
    Stopped,
    /// The step case is UNSAT but its certificate did not check.
    CertificationFailed(String),
}

/// Incremental encoding of the k-induction step case: frames with a free
/// initial state, properties asserted on all but the last frame, pairwise
/// state-distinctness (simple path), violation solved at the last frame.
struct InductionStep {
    seq: SeqAig,
    properties: Vec<(String, NodeId)>,
    constraints: Vec<NodeId>,
    solver: Solver,
    const_true: Lit,
    frames: Vec<Frame>,
    /// Per-frame state literals (inputs to that frame), for simple-path.
    frame_states: Vec<Vec<Lit>>,
    /// Cone-of-influence restriction shared with the base case, if slicing.
    coi: Option<SeqCoi>,
    telemetry: Telemetry,
    /// DRAT certification state for the step solver, armed alongside the
    /// base solver's when the run is certified.
    certifier: Option<UnsatCertifier>,
}

impl InductionStep {
    fn new(
        module: &Module,
        properties: Vec<(String, NodeId)>,
        constraints: Vec<NodeId>,
        coi: Option<SeqCoi>,
    ) -> InductionStep {
        let mut solver = Solver::new();
        let const_true = assert_true_lit(&mut solver);
        InductionStep {
            seq: SeqAig::from_module(module),
            properties,
            constraints,
            solver,
            const_true,
            frames: Vec::new(),
            frame_states: Vec::new(),
            coi,
            telemetry: Telemetry::off(),
            certifier: None,
        }
    }

    /// Installs the wall-clock deadline and cancellation hook on the step
    /// solver (so the step case is interruptible mid-solve like the base),
    /// plus the telemetry handle of the run.
    fn configure_run(
        &mut self,
        deadline: Option<Instant>,
        cancel: CancelToken,
        telemetry: Telemetry,
        certify: bool,
    ) {
        self.solver.set_deadline(deadline);
        self.solver
            .set_interrupt_hook(Some(Box::new(move || cancel.is_cancelled())));
        self.telemetry = telemetry;
        if certify && self.certifier.is_none() {
            // The step solver is fresh at this point (only the constant-
            // true unit exists), so retro-logging captures everything.
            self.solver.enable_proof_logging();
            self.certifier = Some(UnsatCertifier::new());
        }
    }

    /// Certificate status of the step side (cumulative transcript hash).
    fn certificate(&self) -> CertificateStatus {
        match &self.certifier {
            Some(c) => CertificateStatus::Certified {
                hash: c.transcript_hash(),
            },
            None => CertificateStatus::Uncertified,
        }
    }

    /// Checking work of the step certifier so far.
    fn certification_effort(&self) -> CertificationEffort {
        self.certifier
            .as_ref()
            .map_or_else(CertificationEffort::default, UnsatCertifier::effort)
    }

    fn keep_state(&self, j: usize) -> bool {
        self.coi.as_ref().is_none_or(|c| c.state_keep[j])
    }

    fn build_frame(&mut self) {
        let t = self.frames.len();
        let state_lits: Vec<Lit> = if t == 0 {
            // Free symbolic initial state; out-of-cone bits are constant
            // placeholders (the kept bits form a closed sub-FSM, so the
            // step case over them is unchanged by the dropped ones).
            (0..self.seq.state_cur.len())
                .map(|j| {
                    if self.keep_state(j) {
                        self.solver.new_var().positive()
                    } else {
                        !self.const_true
                    }
                })
                .collect()
        } else {
            self.frames[t - 1].next_state.clone()
        };
        let port_lits: Vec<Lit> = (0..self.seq.num_port_bits())
            .map(|k| {
                if self.coi.as_ref().is_none_or(|c| c.port_keep[k]) {
                    self.solver.new_var().positive()
                } else {
                    !self.const_true
                }
            })
            .collect();
        let mut aig_inputs = port_lits.clone();
        aig_inputs.extend_from_slice(&state_lits);
        let mut map = FrameMap::new(&self.seq.aig, &aig_inputs, self.const_true);

        for &c in &self.constraints.clone() {
            let aig_lit = self.seq.node_lits[c.index()][0];
            let lit = map.sat_lit(&mut self.solver, &self.seq.aig, aig_lit);
            self.solver.add_clause(&[lit]);
        }
        let prop_lits: Vec<Lit> = self
            .properties
            .clone()
            .iter()
            .map(|(_, p)| {
                let aig_lit = self.seq.node_lits[p.index()][0];
                map.sat_lit(&mut self.solver, &self.seq.aig, aig_lit)
            })
            .collect();
        let bad = self.solver.new_var().positive();
        let mut clause: Vec<Lit> = vec![!bad];
        clause.extend(prop_lits.iter().map(|&p| !p));
        self.solver.add_clause(&clause);

        let next_state: Vec<Lit> = self
            .seq
            .state_next
            .clone()
            .iter()
            .enumerate()
            .map(|(j, &l)| {
                if self.keep_state(j) {
                    map.sat_lit(&mut self.solver, &self.seq.aig, l)
                } else {
                    !self.const_true
                }
            })
            .collect();

        // Simple path: this frame's state differs from every earlier one.
        // For each pair, a difference selector x with x → (a ⊕ b); the
        // clause "some x is true" then forces a genuine state difference.
        // Only in-cone bits participate: dropped bits carry placeholder
        // constants, and distinctness over the kept sub-FSM is what the
        // sliced step case needs.
        let states = state_lits.clone();
        for earlier in self.frame_states.clone() {
            let mut diff_bits = Vec::with_capacity(states.len());
            for (j, (&a, &b)) in earlier.iter().zip(&states).enumerate() {
                if !self.keep_state(j) {
                    continue;
                }
                let x = self.solver.new_var().positive();
                self.solver.add_clause(&[!x, a, b]);
                self.solver.add_clause(&[!x, !a, !b]);
                diff_bits.push(x);
            }
            if !diff_bits.is_empty() {
                self.solver.add_clause(&diff_bits);
            }
        }

        self.frame_states.push(states);
        self.frames.push(Frame {
            port_lits,
            next_state,
            prop_lits,
            bad: vec![bad],
        });
    }

    /// Checks whether the induction step closes at depth `k`:
    /// P at frames `0..k` (with distinct states) forces P at frame `k`.
    fn step_holds(&mut self, k: usize, config: &CheckConfig) -> StepResult {
        let encode = self.telemetry.child(SpanKind::Phase, "cnf-encode");
        while self.frames.len() <= k {
            // Before adding frame `t`, assert P at frame `t - 1` (it is no
            // longer the "last" frame).
            if let Some(prev) = self.frames.len().checked_sub(1) {
                for &p in &self.frames[prev].prop_lits.clone() {
                    self.solver.add_clause(&[p]);
                }
            }
            self.build_frame();
        }
        encode.close();
        self.solver.set_conflict_budget(config.conflict_budget);
        let bad = self.frames[k].bad[0];
        let span = self.telemetry.child(SpanKind::Solve, "solve");
        span.gauge("induction_k", k as u64);
        let before = self.solver.stats();
        let r = self.solver.solve_with(&[bad]);
        span.counters(&solver_counters(&self.solver.stats().diff(&before)));
        span.close();
        match r {
            SolveResult::Unsat => {
                // A closing step case is an UNSAT verdict that becomes a
                // full proof — exactly the answer that most needs an
                // independent certificate.
                if let Some(certifier) = &mut self.certifier {
                    if let Err(detail) =
                        certifier.certify_unsat(&mut self.solver, &[bad], &self.telemetry)
                    {
                        return StepResult::CertificationFailed(detail);
                    }
                }
                StepResult::Holds
            }
            SolveResult::Sat => StepResult::Fails,
            SolveResult::Unknown => StepResult::Unknown,
            SolveResult::Stopped => StepResult::Stopped,
        }
    }
}
