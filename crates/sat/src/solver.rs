//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The architecture follows MiniSat: two-watched-literal propagation,
//! first-UIP conflict analysis with clause minimisation, VSIDS decision
//! ordering with phase saving, Luby restarts, activity-driven learnt-clause
//! deletion, and incremental solving under assumptions with failed-assumption
//! extraction. This is the FPV engine backend of the AutoCC flow: the
//! bounded model checker in `autocc-bmc` encodes unrolled netlists into CNF
//! and drives this solver.
//!
//! Clauses live in a flat arena (`clause.rs`): propagation reads a
//! long clause's literals in place, and decides a binary clause from its
//! watcher alone. Learnt-clause reduction marks clauses removed, drops
//! their watchers in one order-preserving pass per watch list, and compacts
//! the arena once removed words pass 1/5 of it, relocating watchers, the
//! trail's reasons and `learnts`. Storage and speed work must leave the
//! search bit-identical: the same decisions, conflicts, propagations,
//! learnt and deleted clauses, models and DRAT transcript. Tests pin the
//! counters, so a change that alters the search says so and re-pins them.
//!
//! While proof logging is on, every stored clause carries its proof ID
//! (`proof.rs`), and conflict analysis records with each learnt clause the
//! chain of IDs that replays it. Recording reads the search state and
//! changes none of it; with logging off no chain is built.
//!
//! Solves are interruptible from inside the conflict loop: a wall-clock
//! [`Solver::set_deadline`] and a pluggable [`Solver::set_interrupt_hook`]
//! are polled every few conflicts (see [`Solver::set_poll_interval`]) and
//! stop a runaway solve with [`SolveResult::Stopped`], alongside the
//! deterministic conflict budget. Neither source alters the search while it
//! has not fired, so verdicts are bit-identical with or without them.

use crate::clause::{ClauseDb, ClauseRef, Watcher};
use crate::heap::VarHeap;
use crate::lit::{Lit, Var};
use crate::proof::ProofStep;
use std::time::Instant;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
    /// The solve was interrupted mid-search by the wall-clock deadline or
    /// the interrupt hook (see [`Solver::set_deadline`] and
    /// [`Solver::set_interrupt_hook`]). The solver stays usable; clearing
    /// the interrupt sources and solving again resumes from the learnt
    /// clauses accumulated so far.
    Stopped,
}

/// How often (in conflicts) the search loop polls the deadline and the
/// interrupt hook. Small enough that a runaway solve is stopped within
/// milliseconds of its budget, large enough that `Instant::now` never
/// shows up in a profile.
const DEFAULT_POLL_INTERVAL: u64 = 128;

/// Aggregate search statistics, reset never; useful for benches and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of `solve`/`solve_with` invocations.
    pub solve_calls: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
}

impl Stats {
    /// Component-wise difference against an earlier snapshot — the work
    /// done *since* `baseline`. Saturating, because `learnt_clauses` is a
    /// level (clauses currently held) rather than a monotone counter and
    /// can shrink across database reductions.
    pub fn diff(&self, baseline: &Stats) -> Stats {
        Stats {
            solve_calls: self.solve_calls.saturating_sub(baseline.solve_calls),
            conflicts: self.conflicts.saturating_sub(baseline.conflicts),
            decisions: self.decisions.saturating_sub(baseline.decisions),
            propagations: self.propagations.saturating_sub(baseline.propagations),
            restarts: self.restarts.saturating_sub(baseline.restarts),
            learnt_clauses: self.learnt_clauses.saturating_sub(baseline.learnt_clauses),
            deleted_clauses: self
                .deleted_clauses
                .saturating_sub(baseline.deleted_clauses),
        }
    }
}

/// Assignment bytes. A literal's value is its variable's byte XOR the
/// literal's sign bit, so `UNDEF` reads as 2 or 3.
const TRUE: u8 = 0;
const FALSE: u8 = 1;
const UNDEF: u8 = 2;

/// Value of the literal with code `code` under `assigns`.
#[inline]
fn value_of(assigns: &[u8], code: usize) -> u8 {
    assigns[code >> 1] ^ (code & 1) as u8
}

/// Read-only mid-search observer installed with
/// [`Solver::set_progress_hook`]; sees a [`Stats`] snapshot at every
/// deadline/interrupt poll.
pub type ProgressHook = Box<dyn Fn(&Stats) + Send>;

const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
const LUBY_UNIT: u64 = 128;
/// The arena is compacted once removed clauses hold more than
/// 1/`COMPACT_DIVISOR` of its words.
const COMPACT_DIVISOR: usize = 5;

/// Incremental CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use autocc_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// solver.add_clause(&[a, b]);
/// solver.add_clause(&[!a, b]);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// assert_eq!(solver.value(b.var()), Some(true));
/// ```
pub struct Solver {
    clauses: ClauseDb,
    /// Handles of learnt clauses (subset of `clauses`).
    learnts: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,

    assigns: Vec<u8>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    /// Trail position of each assigned variable; orders the chain hints of
    /// literals removed by minimisation.
    trail_pos: Vec<u32>,
    saved_phase: Vec<bool>,

    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    order: VarHeap,

    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Set false once an unconditional (empty-clause) contradiction is found.
    ok: bool,
    /// Failed assumptions of the last `Unsat` answer under assumptions.
    conflict_core: Vec<Lit>,
    model: Vec<bool>,

    max_learnts: f64,
    conflict_budget: Option<u64>,
    /// Absolute wall-clock deadline; the search stops with
    /// [`SolveResult::Stopped`] once it is passed.
    deadline: Option<Instant>,
    /// Pluggable interrupt source, polled every `poll_interval` conflicts;
    /// returning `true` stops the search with [`SolveResult::Stopped`].
    interrupt: Option<Box<dyn Fn() -> bool + Send>>,
    /// Read-only observer, polled at the same cadence as `interrupt`;
    /// never influences the search.
    progress: Option<ProgressHook>,
    /// Conflicts between interrupt/deadline polls.
    poll_interval: u64,
    /// Conflicts since the last poll.
    conflicts_since_poll: u64,
    stats: Stats,
    /// DRAT transcript buffer; `None` while proof logging is disabled.
    /// Logging only appends to this buffer, so search behaviour (and every
    /// statistic) is bit-identical with or without it.
    proof: Option<Vec<ProofStep>>,
    /// Proof ID of the next `Original` or `Add` step: the number of such
    /// steps logged so far, which is the checker slot the step will take.
    next_proof_id: u64,
    /// Certificate clause of the most recent [`SolveResult::Unsat`] answer:
    /// the negation of the failed-assumption core (empty for unconditional
    /// unsatisfiability). `None` after any other answer — in particular a
    /// [`SolveResult::Stopped`] or [`SolveResult::Unknown`] solve leaves no
    /// stale certificate for a later caller to mistake as proven.
    last_unsat: Option<Vec<Lit>>,
    /// Scratch for [`Solver::add_clause`], reused by every call.
    intake: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: ClauseDb::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail_pos: Vec::new(),
            saved_phase: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarHeap::new(),
            seen: Vec::new(),
            ok: true,
            conflict_core: Vec::new(),
            model: Vec::new(),
            max_learnts: 0.0,
            conflict_budget: None,
            deadline: None,
            interrupt: None,
            progress: None,
            poll_interval: DEFAULT_POLL_INTERVAL,
            conflicts_since_poll: 0,
            stats: Stats::default(),
            proof: None,
            next_proof_id: 0,
            last_unsat: None,
            intake: Vec::new(),
        }
    }

    /// Switches DRAT proof logging on. From here on, every clause event
    /// (original additions, learnt additions, reduction deletions) is
    /// recorded as a [`ProofStep`]; drain the transcript with
    /// [`Solver::take_proof_steps`]. Clauses added *before* enabling are
    /// retro-logged from [`Solver::dump_original`], so the transcript is
    /// self-contained as long as no search has happened yet.
    ///
    /// # Panics
    ///
    /// Panics if the solver has already searched (conflicts or learnt
    /// clauses exist) or is already root-level unsatisfiable — transcripts
    /// started there would be missing derivation steps.
    pub fn enable_proof_logging(&mut self) {
        assert!(
            self.ok && self.stats.conflicts == 0 && self.learnts.is_empty(),
            "proof logging must be enabled before any search"
        );
        if self.proof.is_some() {
            return;
        }
        // `dump_original` lists the root units, then the stored clauses in
        // arena order, and each takes the next proof ID. The arena is
        // rebuilt so every stored clause keeps its ID in its last word.
        let originals = self.dump_original();
        let units = originals.len() - self.clauses.len();
        self.next_proof_id = originals.len() as u64;
        self.proof = Some(originals.into_iter().map(ProofStep::Original).collect());
        let old = std::mem::take(&mut self.clauses);
        let mut moved = Vec::with_capacity(old.len());
        for (k, cref) in old.iter_refs().enumerate() {
            let lits: Vec<Lit> = old.lits(cref).collect();
            let id = u32::try_from(units + k).ok();
            moved.push((cref, self.clauses.insert(&lits, false, 0, id)));
        }
        let moved_to = |cref: ClauseRef| {
            moved[moved
                .binary_search_by_key(&cref, |&(old, _)| old)
                .expect("every watched or reason clause is live")]
            .1
        };
        for w in self.watches.iter_mut().flatten() {
            *w = Watcher::new(moved_to(w.cref()), w.blocker, w.is_binary());
        }
        for l in &self.trail {
            if let Some(r) = &mut self.reasons[l.var().index()] {
                *r = moved_to(*r);
            }
        }
    }

    /// Takes the proof ID of the next `Original` or `Add` step. `None`
    /// while logging is off, and for every step once the IDs outgrow a
    /// `u32`: they are never wrapped, and clauses without one get empty
    /// chains.
    fn take_proof_id(&mut self) -> Option<u32> {
        self.proof.as_ref()?;
        let id = self.next_proof_id;
        self.next_proof_id += 1;
        u32::try_from(id).ok()
    }

    /// Whether DRAT proof logging is enabled.
    pub fn proof_logging_enabled(&self) -> bool {
        self.proof.is_some()
    }

    /// Drains the DRAT transcript accumulated since the last drain (empty
    /// when logging is disabled). Feed the steps, in order, to a
    /// [`crate::DratChecker`] that persists across drains.
    pub fn take_proof_steps(&mut self) -> Vec<ProofStep> {
        match &mut self.proof {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// After a [`SolveResult::Unsat`] answer, the certificate clause: the
    /// negation of the failed-assumption core, empty for unconditional
    /// unsatisfiability. Validate it with
    /// [`crate::DratChecker::check_certificate`] once the transcript is
    /// applied. `None` after Sat/Unknown/Stopped answers.
    pub fn unsat_certificate(&self) -> Option<&[Lit]> {
        self.last_unsat.as_deref()
    }

    /// Appends an arbitrary step to the proof transcript (no-op while
    /// logging is disabled). An `Original` or `Add` step takes a proof ID
    /// like a logged one. Test hook for tamper-rejection coverage; never
    /// called by the solver itself.
    #[doc(hidden)]
    pub fn inject_proof_step(&mut self, step: ProofStep) {
        if !matches!(step, ProofStep::Delete(_)) {
            self.take_proof_id();
        }
        if let Some(buf) = &mut self.proof {
            buf.push(step);
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(UNDEF);
        self.levels.push(0);
        self.reasons.push(None);
        self.trail_pos.push(0);
        self.saved_phase.push(false);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.reserve_vars(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (original plus learnt) currently stored.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Limits the next `solve` calls to `conflicts` conflicts
    /// (`None` removes the limit). When exhausted, `solve` returns
    /// [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Installs (or clears) an absolute wall-clock deadline. Once it is
    /// passed, `solve` returns [`SolveResult::Stopped`] within
    /// [`Solver::set_poll_interval`] conflicts — interruption happens *inside*
    /// the search loop, so even a single pathological solve call is bounded.
    ///
    /// With no deadline installed the search never reads the clock, so the
    /// solve is bit-identical to one on a solver without this feature.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Installs (or clears) a pluggable interrupt hook, polled every
    /// [`Solver::set_poll_interval`] conflicts inside the search loop. When
    /// the hook returns `true`, `solve` returns [`SolveResult::Stopped`].
    ///
    /// The hook is how external cancellation (a portfolio race's cancel
    /// token) reaches into a running solve. A hook that returns `false`
    /// never alters the search: verdicts and statistics are identical with
    /// or without it installed.
    pub fn set_interrupt_hook(&mut self, hook: Option<Box<dyn Fn() -> bool + Send>>) {
        self.interrupt = hook;
    }

    /// Installs (or clears) a read-only progress observer, polled at the
    /// same [`Solver::set_poll_interval`] cadence as the interrupt hook.
    /// The observer sees a snapshot of [`Stats`] mid-search — telemetry
    /// recorders use it for live counter samples.
    ///
    /// The observer cannot influence the search: verdicts, statistics and
    /// models are identical with or without it installed, and with no
    /// observer (and no deadline/interrupt) the polling path stays a
    /// single branch per conflict.
    pub fn set_progress_hook(&mut self, hook: Option<ProgressHook>) {
        self.progress = hook;
    }

    /// Sets how many conflicts pass between deadline/hook polls (min 1).
    /// Smaller values tighten the interruption latency; the default (128)
    /// keeps polling cost unmeasurable.
    pub fn set_poll_interval(&mut self, conflicts: u64) {
        self.poll_interval = conflicts.max(1);
    }

    /// Whether an installed interrupt source has fired (deadline passed or
    /// hook returning `true`). Does not consult the poll interval.
    fn interrupt_fired(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        if let Some(hook) = &self.interrupt {
            if hook() {
                return true;
            }
        }
        false
    }

    /// Per-conflict interrupt check: cheap counter decrement, with the
    /// actual clock/hook poll only every `poll_interval` conflicts.
    fn poll_interrupt(&mut self) -> bool {
        if self.deadline.is_none() && self.interrupt.is_none() && self.progress.is_none() {
            return false;
        }
        self.conflicts_since_poll += 1;
        if self.conflicts_since_poll < self.poll_interval {
            return false;
        }
        self.conflicts_since_poll = 0;
        if let Some(observer) = &self.progress {
            observer(&self.stats);
        }
        self.interrupt_fired()
    }

    /// Current value of a literal under the partial assignment: `TRUE`,
    /// `FALSE`, or 2 or more when unassigned.
    #[inline]
    fn lit_value(&self, l: Lit) -> u8 {
        value_of(&self.assigns, l.code())
    }

    /// Adds a clause. Returns `false` if the formula is now trivially
    /// unsatisfiable (an empty clause arose at the root level).
    ///
    /// Duplicate literals are removed, tautologies are dropped, and literals
    /// already false at the root level are stripped.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        // Intake works in one buffer kept across calls; only a logged
        // proof step allocates.
        let mut clause = std::mem::take(&mut self.intake);
        clause.clear();
        clause.extend_from_slice(lits);
        let added = self.add_root_clause(&mut clause);
        self.intake = clause;
        added
    }

    /// [`Solver::add_clause`] at the root level, over a scratch copy of
    /// the clause that it sorts and cleans in place.
    fn add_root_clause(&mut self, clause: &mut Vec<Lit>) -> bool {
        clause.sort_unstable();
        clause.dedup();
        // A tautology (p and ¬p sit side by side once sorted) or a clause
        // already satisfied at the root adds nothing and logs nothing.
        if clause.windows(2).any(|w| w[0] == !w[1])
            || clause.iter().any(|&l| self.lit_value(l) == TRUE)
        {
            return true;
        }
        // Log the deduplicated clause *before* root-level stripping: the
        // checker re-derives the stripped literals' falsity itself, so the
        // stored (stripped) clause propagates identically on its side.
        let proof_id = self.take_proof_id();
        if let Some(buf) = &mut self.proof {
            buf.push(ProofStep::Original(clause.clone()));
        }
        clause.retain(|&l| self.lit_value(l) != FALSE);
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(clause[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                let cref = self.clauses.insert(clause, false, 0, proof_id);
                self.attach(cref);
                true
            }
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let binary = self.clauses.clause_len(cref) == 2;
        let (l0, l1) = (self.clauses.lit(cref, 0), self.clauses.lit(cref, 1));
        self.watches[(!l0).code()].push(Watcher::new(cref, l1, binary));
        self.watches[(!l1).code()].push(Watcher::new(cref, l0, binary));
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l) >= UNDEF);
        let vi = l.var().index();
        // The byte that makes `l` read TRUE is its own sign bit.
        self.assigns[vi] = (l.code() & 1) as u8;
        self.levels[vi] = self.decision_level() as u32;
        self.reasons[vi] = reason;
        self.trail_pos[vi] = self.trail.len() as u32;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    ///
    /// The search depends on the watch-list and literal orders this leaves
    /// behind: a long clause is reordered to [other, ¬p, ...] on every
    /// visit, and watch lists change only by `swap_remove` and blocker
    /// updates. A binary clause is decided from its watcher and keeps
    /// whatever order it has, so reason readers skip the implied literal by
    /// variable rather than by position 0, and a binary conflict is put in
    /// [other, ¬p] order, as a long conflict clause is, before `analyze`
    /// walks it.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let false_code = (!p).code() as u32;
            let mut i = 0;
            let mut watch_list = std::mem::take(&mut self.watches[p.code()]);
            'watchers: while i < watch_list.len() {
                let w = watch_list[i];
                let blocker_value = self.lit_value(w.blocker);
                if blocker_value == TRUE {
                    i += 1;
                    continue;
                }
                if w.is_binary() {
                    if blocker_value == FALSE {
                        let codes = self.clauses.codes_mut(w.cref());
                        if codes[0] == false_code {
                            codes.swap(0, 1);
                        }
                        conflict = Some(w.cref());
                        self.qhead = self.trail.len();
                        break;
                    }
                    self.unchecked_enqueue(w.blocker, Some(w.cref()));
                    i += 1;
                    continue;
                }
                let cref = w.cref();
                let codes = self.clauses.codes_mut(cref);
                // Normalise: watched literal !p at position 1.
                if codes[0] == false_code {
                    codes.swap(0, 1);
                }
                debug_assert_eq!(codes[1], false_code);
                let first = Lit::from_code(codes[0] as usize);
                let first_value = value_of(&self.assigns, first.code());
                if first != w.blocker && first_value == TRUE {
                    watch_list[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in 2..codes.len() {
                    let lk = codes[k] as usize;
                    if value_of(&self.assigns, lk) != FALSE {
                        codes.swap(1, k);
                        self.watches[lk ^ 1].push(Watcher::new(cref, first, false));
                        watch_list.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                watch_list[i].blocker = first;
                if first_value == FALSE {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = watch_list;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for idx in (bound..self.trail.len()).rev() {
            let l = self.trail[idx];
            let vi = l.var().index();
            self.saved_phase[vi] = l.is_positive();
            self.assigns[vi] = UNDEF;
            self.reasons[vi] = None;
            self.order.insert(l.var(), &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
        }
        self.order.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let activity = self.clauses.activity(cref) + self.clause_inc;
        self.clauses.set_activity(cref, activity);
        if activity > RESCALE_LIMIT {
            for &lref in &self.learnts {
                let scaled = self.clauses.activity(lref) * (1.0 / RESCALE_LIMIT);
                self.clauses.set_activity(lref, scaled);
            }
            self.clause_inc *= 1.0 / RESCALE_LIMIT;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backjump level, and, while proof logging is on,
    /// the clause's chain (see [`Solver::chain`]).
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, usize, Vec<u32>) {
        let logging = self.proof.is_some();
        let conflict = confl;
        // Reasons of the resolved current-level literals, in descending
        // trail order (logging only).
        let mut resolved: Vec<ClauseRef> = Vec::new();
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder slot
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            if self.clauses.is_learnt(confl) {
                self.bump_clause(confl);
            }
            // A reason clause's implied literal is `p` itself.
            let implied = p.map(Lit::var);
            for j in 0..self.clauses.clause_len(confl) {
                let q = self.clauses.lit(confl, j);
                let vi = q.var().index();
                if Some(q.var()) != implied && !self.seen[vi] && self.levels[vi] > 0 {
                    self.bump_var(q.var());
                    self.seen[vi] = true;
                    if self.levels[vi] as usize >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
            confl = self.reasons[pl.var().index()].expect("non-decision must have a reason");
            if logging {
                resolved.push(confl);
            }
        }
        learnt[0] = !p.expect("first UIP exists");

        // Cheap self-subsumption minimisation: a literal is redundant when
        // its reason clause only contains literals already in the learnt
        // clause (or fixed at the root level). The `seen` bits of all
        // literals in `learnt[1..]` are still set from the main loop; keep
        // the pre-minimisation list so every marked bit gets cleared — a
        // stale `seen` bit would silently strengthen future learnt clauses
        // into unsoundness.
        let marked: Vec<Lit> = learnt[1..].to_vec();
        let mut removed: Vec<Var> = Vec::new();
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let redundant = match self.reasons[l.var().index()] {
                None => false,
                Some(r) => self.clauses.lits(r).all(|q| {
                    q.var() == l.var()
                        || self.seen[q.var().index()]
                        || self.levels[q.var().index()] == 0
                }),
            };
            if !redundant {
                learnt[j] = l;
                j += 1;
            } else if logging {
                removed.push(l.var());
            }
        }
        learnt.truncate(j);

        for &l in &marked {
            self.seen[l.var().index()] = false;
        }
        let chain = if logging {
            self.chain(removed, &resolved, conflict)
        } else {
            Vec::new()
        };

        // Backjump level: the second-highest decision level in the clause.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var().index()] > self.levels[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.levels[learnt[1].var().index()] as usize
        };
        (learnt, bt_level, chain)
    }

    /// The chain of a learnt clause: the proof IDs of the clauses whose
    /// unit propagation, in order, refutes the clause's negation on top of
    /// the root assignment. First the reasons of the literals minimisation
    /// `removed`, in trail order (their reasons can contain each other's
    /// literals, and an earlier literal's comes first); then the reasons
    /// of the `resolved` current-level literals (given in descending trail
    /// order), in ascending trail order; then the `conflict` clause.
    /// Root-level literals need no hint: the checker's root assignment
    /// holds every one of them. Empty when a clause has no proof ID.
    fn chain(
        &self,
        mut removed: Vec<Var>,
        resolved: &[ClauseRef],
        conflict: ClauseRef,
    ) -> Vec<u32> {
        removed.sort_unstable_by_key(|v| self.trail_pos[v.index()]);
        let mut chain = Vec::with_capacity(removed.len() + resolved.len() + 1);
        let reasons = removed
            .iter()
            .map(|v| self.reasons[v.index()].expect("removed literals are implied"))
            .chain(resolved.iter().rev().copied())
            .chain([conflict]);
        for r in reasons {
            match self.clauses.proof_id(r) {
                Some(id) => chain.push(id),
                None => return Vec::new(),
            }
        }
        chain
    }

    /// Computes the subset of assumptions responsible for falsifying the
    /// assumption literal `failed`, storing that subset (including `failed`
    /// itself) in `conflict_core`. Every decision in the prefix is an
    /// assumption literal, so the collected decisions are assumptions.
    fn analyze_final(&mut self, failed: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(failed);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[failed.var().index()] = true;
        self.collect_assumption_core();
        self.seen[failed.var().index()] = false;
    }

    /// Like [`Solver::analyze_final`] but starting from a conflicting clause
    /// found while the trail only contains assumption decisions.
    fn analyze_final_conflict(&mut self, confl: ClauseRef) {
        self.conflict_core.clear();
        for q in self.clauses.lits(confl) {
            if self.levels[q.var().index()] > 0 {
                self.seen[q.var().index()] = true;
            }
        }
        self.collect_assumption_core();
    }

    /// Walks the trail top-down resolving marked literals: decisions are
    /// collected into `conflict_core`, propagated literals are replaced by
    /// their reason-clause antecedents.
    fn collect_assumption_core(&mut self) {
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[idx];
            let vi = x.var().index();
            if !self.seen[vi] {
                continue;
            }
            match self.reasons[vi] {
                None => {
                    debug_assert!(self.levels[vi] > 0);
                    self.conflict_core.push(x);
                }
                Some(r) => {
                    for q in self.clauses.lits(r) {
                        if q.var() != x.var() && self.levels[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[vi] = false;
        }
    }

    /// Deletes the less active half of the learnt clauses, except those
    /// that are a reason on the trail, binary, or of LBD at most 2.
    fn reduce_db(&mut self) {
        let clauses = &self.clauses;
        self.learnts.sort_by(|&a, &b| {
            clauses
                .activity(b)
                .partial_cmp(&clauses.activity(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let keep_from = self.learnts.len() / 2;
        let learnts = std::mem::take(&mut self.learnts);
        let mut kept = Vec::with_capacity(keep_from + 8);
        // Watch lists that hold a watcher of a removed clause.
        let mut touched: Vec<usize> = Vec::new();
        for (i, &cref) in learnts.iter().enumerate() {
            let l0 = self.clauses.lit(cref, 0);
            let locked = self.reasons[l0.var().index()] == Some(cref) && self.lit_value(l0) == TRUE;
            if i < keep_from
                || locked
                || self.clauses.clause_len(cref) <= 2
                || self.clauses.lbd(cref) <= 2
            {
                kept.push(cref);
            } else {
                if let Some(buf) = &mut self.proof {
                    buf.push(ProofStep::Delete(self.clauses.lits(cref).collect()));
                }
                touched.extend([(!l0).code(), (!self.clauses.lit(cref, 1)).code()]);
                self.clauses.remove(cref);
                self.stats.deleted_clauses += 1;
            }
        }
        // Watch-list order is part of the search, so the removed clauses'
        // watchers go by an order-preserving `retain`, one pass per list.
        // Binary clauses are never removed.
        touched.sort_unstable();
        touched.dedup();
        for code in touched {
            let clauses = &self.clauses;
            self.watches[code].retain(|w| w.is_binary() || !clauses.is_removed(w.cref()));
        }
        self.learnts = kept;
        self.stats.learnt_clauses = self.learnts.len() as u64;
        if self.clauses.wasted() * COMPACT_DIVISOR > self.clauses.words() {
            self.compact();
        }
    }

    /// Compacts the clause arena and moves every handle the solver holds:
    /// watchers, the reasons of trail literals, and `learnts`.
    fn compact(&mut self) {
        let reloc = self.clauses.compact();
        for watch_list in &mut self.watches {
            for w in watch_list.iter_mut() {
                *w = reloc.watcher(*w);
            }
        }
        for l in &self.trail {
            if let Some(r) = &mut self.reasons[l.var().index()] {
                *r = reloc.map(*r);
            }
        }
        for r in &mut self.learnts {
            *r = reloc.map(*r);
        }
    }

    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.levels[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v.index()] == UNDEF {
                return Some(v);
            }
        }
        None
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::failed_assumptions`] returns a
    /// subset of the assumptions that is already inconsistent with the
    /// formula. On [`SolveResult::Sat`], [`Solver::value`] reads the model.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solve_calls += 1;
        self.conflict_core.clear();
        self.last_unsat = None;
        if !self.ok {
            self.last_unsat = Some(Vec::new());
            return SolveResult::Unsat;
        }
        // An already-expired deadline or already-fired hook stops the solve
        // before any search happens (zero conflicts, zero decisions).
        if (self.deadline.is_some() || self.interrupt.is_some()) && self.interrupt_fired() {
            return SolveResult::Stopped;
        }
        self.conflicts_since_poll = 0;
        self.cancel_until(0);
        if self.max_learnts == 0.0 {
            self.max_learnts = (self.clauses.len() as f64 / 3.0).max(4000.0);
        }
        let budget_start = self.stats.conflicts;
        let mut restart_number = 0u64;

        loop {
            let restart_budget = luby(restart_number) * LUBY_UNIT;
            match self.search(assumptions, restart_budget, budget_start) {
                SearchOutcome::Sat => {
                    self.model = self.assigns.iter().map(|&a| a == TRUE).collect();
                    self.cancel_until(0);
                    return SolveResult::Sat;
                }
                SearchOutcome::Unsat => {
                    // Certificate clause: negation of the failed-assumption
                    // core; empty (= the empty clause) for unconditional
                    // unsatisfiability.
                    self.last_unsat = Some(self.conflict_core.iter().map(|&l| !l).collect());
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                SearchOutcome::Restart => {
                    restart_number += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
                SearchOutcome::BudgetExhausted => {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                SearchOutcome::Interrupted => {
                    self.cancel_until(0);
                    return SolveResult::Stopped;
                }
            }
        }
    }

    fn search(
        &mut self,
        assumptions: &[Lit],
        restart_budget: u64,
        budget_start: u64,
    ) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                if self.decision_level() <= assumptions.len() {
                    // Conflict while only assumption decisions are on the
                    // trail: everything assigned is entailed by the formula
                    // plus a prefix of the assumptions, so the assumptions
                    // are jointly inconsistent.
                    self.analyze_final_conflict(confl);
                    return SearchOutcome::Unsat;
                }
                let (learnt, bt, chain) = self.analyze(confl);
                self.backjump_and_learn(learnt, bt, chain);
                self.var_inc /= VAR_DECAY;
                self.clause_inc /= CLAUSE_DECAY;

                if let Some(b) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= b {
                        return SearchOutcome::BudgetExhausted;
                    }
                }
                if self.poll_interrupt() {
                    return SearchOutcome::Interrupted;
                }
                if conflicts_here >= restart_budget {
                    return SearchOutcome::Restart;
                }
                if self.learnts.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
            } else {
                // No conflict: place assumptions, then decide.
                if self.decision_level() < assumptions.len() {
                    let a = assumptions[self.decision_level()];
                    match self.lit_value(a) {
                        TRUE => {
                            // Already satisfied: open an empty decision level
                            // to keep level/assumption alignment.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        FALSE => {
                            self.analyze_final(a);
                            return SearchOutcome::Unsat;
                        }
                        _ => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                            continue;
                        }
                    }
                }
                match self.pick_branch_var() {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        let phase = self.saved_phase[v.index()];
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(Lit::new(v, phase), None);
                    }
                }
            }
        }
    }

    fn backjump_and_learn(&mut self, learnt: Vec<Lit>, bt_level: usize, chain: Vec<u32>) {
        // Every learnt clause — including root-level units — is a trivial
        // resolvent of live clauses, hence RUP: log it as a DRAT addition.
        let proof_id = self.take_proof_id();
        if let Some(buf) = &mut self.proof {
            buf.push(ProofStep::Add(learnt.clone(), chain));
        }
        self.cancel_until(bt_level);
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], None);
        } else {
            let lbd = self.lbd(&learnt);
            let asserting = learnt[0];
            let cref = self.clauses.insert(&learnt, true, lbd, proof_id);
            self.attach(cref);
            self.learnts.push(cref);
            self.stats.learnt_clauses = self.learnts.len() as u64;
            self.bump_clause(cref);
            self.unchecked_enqueue(asserting, Some(cref));
        }
    }

    /// Model value of `v` after a [`SolveResult::Sat`] answer.
    ///
    /// Returns `None` if no model is available (before the first SAT answer
    /// or for variables created afterwards).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).copied()
    }

    /// Model value of a literal after a [`SolveResult::Sat`] answer.
    pub fn lit_value_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_positive())
    }

    /// Snapshot of the original (non-learnt) clauses plus root-level units,
    /// for encoder debugging and differential tests.
    pub fn dump_original(&self) -> Vec<Vec<Lit>> {
        let mut out: Vec<Vec<Lit>> = Vec::new();
        let bound = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..bound] {
            out.push(vec![l]);
        }
        for cref in self.clauses.iter_refs() {
            if !self.clauses.is_learnt(cref) {
                let mut lits: Vec<Lit> = self.clauses.lits(cref).collect();
                lits.sort_unstable();
                out.push(lits);
            }
        }
        out
    }

    /// After an `Unsat` answer to [`Solver::solve_with`], the subset of
    /// assumption literals that is jointly inconsistent with the formula.
    /// Empty when the formula is unsatisfiable regardless of assumptions.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
    Interrupted,
}

/// Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i and its position.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], x: i32) -> Lit {
        let v = solver_vars[(x.unsigned_abs() - 1) as usize];
        Lit::new(v, x > 0)
    }

    fn setup(n: usize) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        (s, vars)
    }

    #[test]
    fn luby_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn trivial_sat() {
        let (mut s, v) = setup(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn trivial_unsat() {
        let (mut s, v) = setup(1);
        s.add_clause(&[lit(&v, 1)]);
        s.add_clause(&[lit(&v, -1)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let (mut s, _v) = setup(3);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let (mut s, v) = setup(4);
        s.add_clause(&[lit(&v, 1)]);
        s.add_clause(&[lit(&v, -1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -2), lit(&v, 3)]);
        s.add_clause(&[lit(&v, -3), lit(&v, 4)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for i in 1..=4 {
            assert_eq!(s.value(v[i - 1]), Some(true), "x{i}");
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let (mut s, v) = setup(6);
        let p = |i: usize, j: usize| lit(&v, (i * 2 + j + 1) as i32);
        for i in 0..3 {
            s.add_clause(&[p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(&[!p(a, j), !p(b, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_result() {
        let (mut s, v) = setup(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        assert_eq!(
            s.solve_with(&[lit(&v, -1), lit(&v, -2)]),
            SolveResult::Unsat
        );
        let failed = s.failed_assumptions().to_vec();
        assert!(!failed.is_empty());
        // Solver stays usable: without assumptions still SAT.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[lit(&v, -1)]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn incremental_clause_addition() {
        let (mut s, v) = setup(3);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[lit(&v, -1)]);
        s.add_clause(&[lit(&v, -2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Once root-level unsat, it stays unsat.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// `n` pigeons into `n - 1` holes: unsatisfiable, and exponentially
    /// hard for CDCL — the standard "runaway solve" instance.
    fn pigeonhole(n: usize) -> Solver {
        let holes = n - 1;
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n * holes).map(|_| s.new_var()).collect();
        let p = |i: usize, j: usize| vars[i * holes + j].positive();
        for i in 0..n {
            let row: Vec<Lit> = (0..holes).map(|j| p(i, j)).collect();
            s.add_clause(&row);
        }
        for j in 0..holes {
            for a in 0..n {
                for b in (a + 1)..n {
                    s.add_clause(&[!p(a, j), !p(b, j)]);
                }
            }
        }
        s
    }

    #[test]
    fn conflict_budget_yields_unknown_on_hard_instance() {
        let mut s = pigeonhole(7);
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn deadline_interrupts_a_runaway_solve() {
        use std::time::{Duration, Instant};
        // PHP(11) takes minutes unaided; the deadline must stop it
        // mid-solve within the poll interval.
        let mut s = pigeonhole(11);
        s.set_poll_interval(16);
        s.set_deadline(Some(Instant::now() + Duration::from_millis(50)));
        let start = Instant::now();
        assert_eq!(s.solve(), SolveResult::Stopped);
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "deadline ignored: solve ran {:?}",
            start.elapsed()
        );
        // The solver stays usable once the deadline is cleared.
        s.set_deadline(None);
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(), SolveResult::Unknown);
    }

    #[test]
    fn expired_deadline_stops_before_any_search() {
        use std::time::{Duration, Instant};
        let mut s = pigeonhole(7);
        s.set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(s.solve(), SolveResult::Stopped);
        assert_eq!(
            s.stats().conflicts,
            0,
            "no search under an expired deadline"
        );
    }

    #[test]
    fn interrupt_hook_stops_the_solve() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        let mut s = pigeonhole(11);
        s.set_poll_interval(1);
        let f = flag.clone();
        s.set_interrupt_hook(Some(Box::new(move || f.load(Ordering::Relaxed))));
        // Not yet fired: a budgeted solve ends in Unknown, not Stopped.
        s.set_conflict_budget(Some(50));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Fired: the next solve stops.
        flag.store(true, Ordering::Relaxed);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Stopped);
    }

    #[test]
    fn stopped_never_returned_without_interrupt_sources() {
        let mut s = pigeonhole(7);
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unfired_hook_leaves_the_verdict_and_stats_identical() {
        // The same instance solved with and without an (unfired) interrupt
        // hook must agree bit for bit — the determinism invariant the
        // portfolio scheduler relies on.
        let mut plain = pigeonhole(7);
        let mut hooked = pigeonhole(7);
        hooked.set_poll_interval(1);
        hooked.set_interrupt_hook(Some(Box::new(|| false)));
        assert_eq!(plain.solve(), SolveResult::Unsat);
        assert_eq!(hooked.solve(), SolveResult::Unsat);
        assert_eq!(plain.stats().conflicts, hooked.stats().conflicts);
        assert_eq!(plain.stats().decisions, hooked.stats().decisions);
        assert_eq!(plain.stats().propagations, hooked.stats().propagations);
        assert_eq!(plain.stats().restarts, hooked.stats().restarts);
    }

    #[test]
    fn progress_observer_sees_samples_but_never_alters_the_search() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let mut plain = pigeonhole(7);
        let mut observed = pigeonhole(7);
        let samples = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&samples);
        observed.set_poll_interval(8);
        observed.set_progress_hook(Some(Box::new(move |stats| {
            s.fetch_add(1, Ordering::Relaxed);
            let _ = stats.conflicts;
        })));
        assert_eq!(plain.solve(), SolveResult::Unsat);
        assert_eq!(observed.solve(), SolveResult::Unsat);
        assert!(
            samples.load(Ordering::Relaxed) > 0,
            "observer must be polled during a non-trivial search"
        );
        // Same work with or without the observer installed.
        assert_eq!(plain.stats(), observed.stats());
    }

    #[test]
    fn solve_calls_count_and_diff_subtracts_baselines() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        s.add_clause(&[a]);
        let before = s.stats();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[!a]), SolveResult::Unsat);
        let delta = s.stats().diff(&before);
        assert_eq!(delta.solve_calls, 2);
        assert_eq!(s.stats().diff(&s.stats()), Stats::default());
    }

    #[test]
    fn tautologies_and_duplicates_are_handled() {
        let (mut s, v) = setup(2);
        assert!(s.add_clause(&[lit(&v, 1), lit(&v, -1)])); // tautology dropped
        assert!(s.add_clause(&[lit(&v, 2), lit(&v, 2)])); // dedup to unit
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    /// What clause intake stores and logs: a skipped clause (tautology,
    /// root-true literal) takes no proof ID and logs nothing; a logged
    /// clause is the sorted, deduplicated one, root-false literals
    /// included, while the stored clause drops them.
    #[test]
    fn clause_intake_logs_and_stores_the_cleaned_clause() {
        use crate::proof::ProofStep;
        let (mut s, v) = setup(4);
        s.enable_proof_logging();
        let ids = |s: &Solver| {
            s.clauses
                .iter_refs()
                .map(|c| (s.clauses.lits(c).collect(), s.clauses.proof_id(c)))
                .collect::<Vec<(Vec<Lit>, Option<u32>)>>()
        };
        assert!(s.add_clause(&[lit(&v, 1)])); // a unit: a is root-true
        assert!(s.add_clause(&[lit(&v, 2), lit(&v, -2)])); // tautology
        assert!(s.add_clause(&[lit(&v, 3), lit(&v, 2), lit(&v, 3)])); // duplicate
        assert!(s.add_clause(&[lit(&v, 4), lit(&v, 1)])); // root-true literal
        assert!(s.add_clause(&[lit(&v, 4), lit(&v, -1), lit(&v, 3)])); // root-false literal
        assert_eq!(s.num_clauses(), 2);
        assert_eq!(
            ids(&s),
            vec![
                (vec![lit(&v, 2), lit(&v, 3)], Some(1)),
                (vec![lit(&v, 3), lit(&v, 4)], Some(2)),
            ]
        );
        assert!(!s.add_clause(&[lit(&v, -1), lit(&v, -1)])); // root-false only
        assert!(!s.add_clause(&[lit(&v, 2)])); // refused once unsatisfiable
        assert_eq!(s.num_clauses(), 2);
        assert_eq!(s.next_proof_id, 4);
        assert_eq!(
            s.take_proof_steps(),
            vec![
                ProofStep::Original(vec![lit(&v, 1)]),
                ProofStep::Original(vec![lit(&v, 2), lit(&v, 3)]),
                ProofStep::Original(vec![lit(&v, -1), lit(&v, 3), lit(&v, 4)]),
                ProofStep::Original(vec![lit(&v, -1)]),
            ]
        );
    }

    mod proof {
        use super::*;
        use crate::brute::check_model;
        use crate::clause::clause_words;
        use crate::dimacs::Cnf;
        use crate::proof::{DratChecker, ProofHasher, ProofStep};

        /// Drains the transcript into `checker` and validates the solver's
        /// current certificate against it.
        fn certify(s: &mut Solver, checker: &mut DratChecker, assumptions: &[Lit]) {
            let steps = s.take_proof_steps();
            assert!(!steps.is_empty() || checker.steps() > 0, "transcript empty");
            checker.apply_all(&steps).expect("transcript must check");
            let cert = s
                .unsat_certificate()
                .expect("Unsat answers carry a certificate")
                .to_vec();
            checker
                .check_certificate(assumptions, &cert)
                .expect("certificate must check");
            assert_eq!(
                checker.rup_fallbacks(),
                0,
                "every lemma checks by its chain"
            );
        }

        #[test]
        fn pigeonhole_unsat_produces_a_checkable_proof() {
            // PHP(6) forces real search: learning, minimisation, restarts.
            let holes = 5;
            let mut s = Solver::new();
            s.enable_proof_logging();
            let vars: Vec<Var> = (0..6 * holes).map(|_| s.new_var()).collect();
            let p = |i: usize, j: usize| vars[i * holes + j].positive();
            for i in 0..6 {
                let row: Vec<Lit> = (0..holes).map(|j| p(i, j)).collect();
                s.add_clause(&row);
            }
            for j in 0..holes {
                for a in 0..6 {
                    for b in (a + 1)..6 {
                        s.add_clause(&[!p(a, j), !p(b, j)]);
                    }
                }
            }
            assert_eq!(s.solve(), SolveResult::Unsat);
            let mut checker = DratChecker::new();
            certify(&mut s, &mut checker, &[]);
            assert!(checker.root_conflict());
        }

        #[test]
        fn database_reduction_deletions_keep_the_proof_checkable() {
            // A learnt-clause budget low enough to force reduce_db during
            // the solve, exercising Delete steps mid-transcript.
            let base = pigeonhole(7);
            let mut logged = Solver::new();
            logged.enable_proof_logging();
            for _ in 0..base.num_vars() {
                logged.new_var();
            }
            for c in base.dump_original() {
                logged.add_clause(&c);
            }
            logged.max_learnts = 16.0; // force frequent database reductions
            assert_eq!(logged.solve(), SolveResult::Unsat);
            assert!(
                logged.stats().deleted_clauses > 0,
                "test must exercise the deletion path"
            );
            let mut checker = DratChecker::new();
            certify(&mut logged, &mut checker, &[]);
        }

        #[test]
        fn assumption_unsat_certificates_check_incrementally() {
            let mut s = Solver::new();
            s.enable_proof_logging();
            let a = s.new_var().positive();
            let b = s.new_var().positive();
            s.add_clause(&[a, b]);
            let mut checker = DratChecker::new();

            // Solve 1: UNSAT under assumptions; core certificate.
            assert_eq!(s.solve_with(&[!a, !b]), SolveResult::Unsat);
            certify(&mut s, &mut checker, &[!a, !b]);

            // Solve 2: SAT — no certificate.
            assert_eq!(s.solve_with(&[!a]), SolveResult::Sat);
            assert!(s.unsat_certificate().is_none());
            checker.apply_all(&s.take_proof_steps()).unwrap();

            // Solve 3: clause added between solves, unconditional UNSAT.
            s.add_clause(&[!a]);
            s.add_clause(&[!b]);
            assert_eq!(s.solve(), SolveResult::Unsat);
            certify(&mut s, &mut checker, &[]);

            // Solve 4: root-level unsat fast path still certifies.
            assert_eq!(s.solve(), SolveResult::Unsat);
            certify(&mut s, &mut checker, &[]);
        }

        #[test]
        fn stopped_and_unknown_solves_leave_no_certificate() {
            let mut s = Solver::new();
            s.enable_proof_logging();
            let built = pigeonhole(7);
            for _ in 0..built.num_vars() {
                s.new_var();
            }
            for c in built.dump_original() {
                s.add_clause(&c);
            }
            // Unknown: budget exhausted.
            s.set_conflict_budget(Some(3));
            assert_eq!(s.solve(), SolveResult::Unknown);
            assert!(s.unsat_certificate().is_none());
            // Stopped: pre-fired interrupt.
            s.set_conflict_budget(None);
            s.set_interrupt_hook(Some(Box::new(|| true)));
            assert_eq!(s.solve(), SolveResult::Stopped);
            assert!(s.unsat_certificate().is_none());
            // The interrupted solves' learnt clauses stay in the transcript;
            // a later completed solve still certifies end to end.
            s.set_interrupt_hook(None);
            assert_eq!(s.solve(), SolveResult::Unsat);
            let mut checker = DratChecker::new();
            certify(&mut s, &mut checker, &[]);
        }

        #[test]
        fn logging_never_alters_the_search() {
            let mut plain = pigeonhole(7);
            let mut logged = Solver::new();
            logged.enable_proof_logging();
            for _ in 0..plain.num_vars() {
                logged.new_var();
            }
            for c in plain.dump_original() {
                logged.add_clause(&c);
            }
            assert_eq!(plain.solve(), SolveResult::Unsat);
            assert_eq!(logged.solve(), SolveResult::Unsat);
            assert_eq!(plain.stats(), logged.stats());
        }

        #[test]
        fn retro_logging_captures_clauses_added_before_enabling() {
            let mut s = Solver::new();
            let a = s.new_var().positive();
            let b = s.new_var().positive();
            s.add_clause(&[a, b]);
            s.add_clause(&[!a]);
            s.enable_proof_logging();
            s.add_clause(&[!b]);
            assert_eq!(s.solve(), SolveResult::Unsat);
            let mut checker = DratChecker::new();
            certify(&mut s, &mut checker, &[]);
        }

        #[test]
        fn injected_non_rup_step_is_rejected_by_the_checker() {
            let mut s = Solver::new();
            s.enable_proof_logging();
            let a = s.new_var().positive();
            let b = s.new_var().positive();
            s.add_clause(&[a, b]);
            // A clause no resolution derives: the checker must refuse it.
            s.inject_proof_step(ProofStep::Add(vec![!b], vec![]));
            let steps = s.take_proof_steps();
            let mut checker = DratChecker::new();
            assert!(checker.apply_all(&steps).is_err());
        }

        #[test]
        fn take_proof_steps_is_empty_when_logging_is_disabled() {
            let mut s = Solver::new();
            let a = s.new_var().positive();
            s.add_clause(&[a]);
            assert!(!s.proof_logging_enabled());
            assert_eq!(s.solve_with(&[!a]), SolveResult::Unsat);
            assert!(s.take_proof_steps().is_empty());
            // Certificates are still produced — only the transcript is off.
            assert_eq!(s.unsat_certificate(), Some(&[a][..]));
        }

        fn next(rng: &mut u64) -> u64 {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng
        }

        fn random_lit(rng: &mut u64, vars: &[Var]) -> Lit {
            let r = next(rng);
            Lit::new(vars[(r >> 1) as usize % vars.len()], r & 1 == 0)
        }

        /// An incremental run on a seeded random 3-SAT instance: 30 solves
        /// under four random assumptions each, with clauses added between
        /// solves until the clause/variable ratio passes the threshold. A
        /// learnt limit of 16 makes `reduce_db` and arena compaction run
        /// mid-search, with reasons on the trail. Every model is checked
        /// against the clauses, every UNSAT answer against the DRAT
        /// transcript, and the counters and transcript hash are pinned: a
        /// change that alters the search has to update them on purpose.
        #[test]
        fn reduction_and_compaction_leave_an_incremental_search_unchanged() {
            let mut rng = 0x2545_F491_4F6C_DD1D_u64;
            let n = 150;
            let mut s = Solver::new();
            s.enable_proof_logging();
            s.max_learnts = 16.0;
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let mut cnf = Cnf::new(n);
            let mut checker = DratChecker::new();
            let mut hasher = ProofHasher::new();
            let mut removed_words = 0;
            let mut unsat = 0;
            for round in 0..30 {
                let target = n * (300 + 5 * round) / 100;
                while cnf.clauses.len() < target {
                    let clause: Vec<Lit> = (0..3).map(|_| random_lit(&mut rng, &vars)).collect();
                    s.add_clause(&clause);
                    cnf.clauses.push(clause);
                }
                let assumptions: Vec<Lit> = (0..4).map(|_| random_lit(&mut rng, &vars)).collect();
                let result = s.solve_with(&assumptions);
                let steps = s.take_proof_steps();
                hasher.update(&steps);
                checker.apply_all(&steps).expect("transcript must check");
                for step in &steps {
                    if let ProofStep::Delete(lits) = step {
                        removed_words += clause_words(lits.len(), true, true);
                    }
                }
                match result {
                    SolveResult::Sat => {
                        let model: Vec<bool> = vars.iter().map(|&v| s.value(v).unwrap()).collect();
                        assert!(
                            check_model(&cnf, &model),
                            "round {round}: model violates a clause"
                        );
                        assert!(assumptions
                            .iter()
                            .all(|&a| s.lit_value_model(a) == Some(true)));
                    }
                    SolveResult::Unsat => {
                        unsat += 1;
                        let cert = s.unsat_certificate().expect("certificate").to_vec();
                        checker
                            .check_certificate(&assumptions, &cert)
                            .expect("certificate must check");
                    }
                    other => panic!("round {round}: {other:?}"),
                }
            }
            assert_eq!(unsat, 5);
            assert!(
                s.clauses.wasted() < removed_words,
                "the arena must have been compacted"
            );
            assert_eq!(
                s.stats(),
                Stats {
                    solve_calls: 30,
                    conflicts: 1829,
                    decisions: 3331,
                    propagations: 66718,
                    restarts: 8,
                    learnt_clauses: 549,
                    deleted_clauses: 1275,
                }
            );
            assert_eq!(hasher.finish(), 0x8825_2500_cbf5_5cf0);
            assert_eq!(
                checker.rup_fallbacks(),
                0,
                "every lemma checks by its chain"
            );
        }

        #[test]
        fn retro_logged_clauses_keep_their_proof_ids_and_the_search() {
            // (x ∨ y) is stored before (¬x) makes it the reason of the root
            // literal y; the pigeonhole clauses are stored too. Switching
            // logging on rebuilds the arena with ID words.
            let build = || {
                let mut s = pigeonhole(7);
                let x = s.new_var().positive();
                let y = s.new_var().positive();
                s.add_clause(&[x, y]);
                s.add_clause(&[!x]);
                s
            };
            let mut plain = build();
            let mut logged = build();
            logged.enable_proof_logging();
            let steps = logged.proof.as_ref().expect("logging on");
            for cref in logged.clauses.iter_refs() {
                let id = logged
                    .clauses
                    .proof_id(cref)
                    .expect("stored clauses carry IDs");
                let logged_lits = steps[id as usize].lits();
                assert!(logged.clauses.lits(cref).all(|l| logged_lits.contains(&l)));
            }
            for (code, list) in logged.watches.iter().enumerate() {
                for w in list {
                    let watched: Vec<Lit> = logged.clauses.lits(w.cref()).take(2).collect();
                    assert!(watched.contains(&!Lit::from_code(code)), "watcher moved");
                }
            }
            let y = logged.trail.last().copied().expect("y is implied");
            let reason = logged.reasons[y.var().index()].expect("by (x ∨ y)");
            assert!(logged.clauses.lits(reason).any(|l| l == y), "reason moved");

            assert_eq!(plain.solve(), SolveResult::Unsat);
            assert_eq!(logged.solve(), SolveResult::Unsat);
            assert_eq!(plain.stats(), logged.stats());
            let mut checker = DratChecker::new();
            certify(&mut logged, &mut checker, &[]);
        }

        #[test]
        fn proof_ids_past_u32_are_never_wrapped() {
            // Numbering that starts past the ID space gives no clause an
            // ID: every chain comes out empty, and full propagation still
            // certifies every lemma.
            let base = pigeonhole(7);
            let mut s = Solver::new();
            s.enable_proof_logging();
            s.next_proof_id = u64::from(u32::MAX) + 1;
            for _ in 0..base.num_vars() {
                s.new_var();
            }
            for c in base.dump_original() {
                s.add_clause(&c);
            }
            assert!(s
                .clauses
                .iter_refs()
                .all(|c| s.clauses.proof_id(c).is_none()));
            assert_eq!(s.solve(), SolveResult::Unsat);
            let steps = s.take_proof_steps();
            let lemmas = steps
                .iter()
                .filter(|step| matches!(step, ProofStep::Add(..)))
                .count();
            assert!(lemmas > 0);
            assert!(steps
                .iter()
                .all(|step| !matches!(step, ProofStep::Add(_, chain) if !chain.is_empty())));
            let mut checker = DratChecker::new();
            checker.apply_all(&steps).expect("transcript must check");
            checker
                .check_certificate(&[], &[])
                .expect("certificate must check");
            assert_eq!(checker.rup_fallbacks(), lemmas as u64);
        }
    }
}
