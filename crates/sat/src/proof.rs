//! DRAT proof logging and forward RUP checking.
//!
//! When proof logging is enabled ([`crate::Solver::enable_proof_logging`])
//! the solver records a transcript of clause events — original additions,
//! learnt additions, and database-reduction deletions — as [`ProofStep`]s.
//! Every learnt clause this solver produces is derivable by trivial
//! resolution from live clauses, so each `Add` step is *reverse unit
//! propagation* (RUP): asserting the negation of its literals and
//! propagating to fixpoint yields a conflict. [`DratChecker`] verifies the
//! transcript forward, step by step, with its own two-watched-literal
//! propagation — an independent implementation that shares no search code
//! with the solver.
//!
//! Every `Original` and `Add` step takes the next *proof ID*, in
//! transcript order: the index of the checker slot that stores it. The
//! solver records with each learnt clause the IDs of the clauses its
//! conflict analysis resolved (its *chain*, as in LRAT's hints), and the
//! checker first replays that chain: unit propagation over exactly those
//! clauses, in order. A chain that does not close falls back to full
//! propagation, so a chain can make a check faster but never make the
//! checker accept a lemma that full propagation would reject. Chains are
//! not part of the transcript's identity: [`ProofHasher`] and
//! [`proof_to_bytes`] see step kinds and literals only.
//!
//! Unsatisfiability under assumptions is certified the same way: the
//! solver's failed-assumption core `{a₁,…,aₖ}` yields the certificate
//! clause `¬a₁ ∨ … ∨ ¬aₖ` (empty for unconditional unsatisfiability),
//! which must itself be RUP against the checked clause database
//! ([`DratChecker::check_certificate`]). Incremental solving is handled by
//! keeping one checker alive across solves: each solve's transcript is
//! appended before its certificate is checked, mirroring the solver's own
//! persistent clause database.

use crate::lit::{LBool, Lit, Var};
use std::collections::HashMap;
use std::fmt;

/// One event of a DRAT proof transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// An input (non-learnt) clause, taken as an axiom by the checker.
    Original(Vec<Lit>),
    /// A learnt clause; must be RUP with respect to the clauses live at
    /// this point of the transcript. The second field is its chain: the
    /// proof IDs of the clauses whose unit propagation, in this order,
    /// refutes the clause's negation. An empty chain asks for full
    /// propagation.
    Add(Vec<Lit>, Vec<u32>),
    /// A clause removed by database reduction; must match a live clause.
    Delete(Vec<Lit>),
}

impl ProofStep {
    /// The literals of the clause this step concerns.
    pub fn lits(&self) -> &[Lit] {
        match self {
            ProofStep::Original(l) | ProofStep::Add(l, _) | ProofStep::Delete(l) => l,
        }
    }
}

/// Why a proof transcript or certificate was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// An `Add` step (or the certificate clause) is not reverse unit
    /// propagation: asserting its negation did not yield a conflict.
    NotRup(Vec<Lit>),
    /// A `Delete` step names a clause that is not live in the checker.
    MissingDelete(Vec<Lit>),
    /// A certificate literal is not the negation of any passed assumption,
    /// so the proof does not certify the claim being made.
    CertificateScope(Lit),
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(lits: &[Lit]) -> String {
            let strs: Vec<String> = lits.iter().map(|l| l.to_string()).collect();
            strs.join(" ")
        }
        match self {
            ProofError::NotRup(lits) => write!(f, "clause [{}] is not RUP", join(lits)),
            ProofError::MissingDelete(lits) => {
                write!(
                    f,
                    "deletion of [{}] does not match a live clause",
                    join(lits)
                )
            }
            ProofError::CertificateScope(l) => {
                write!(f, "certificate literal {l} does not negate any assumption")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// A malformed serialized proof (byte offset-free; carries the 1-based
/// line number of the offending text line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseProofError {
    /// 1-based line number of the unparseable line.
    pub line: usize,
}

impl fmt::Display for ParseProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed proof line {}", self.line)
    }
}

impl std::error::Error for ParseProofError {}

/// Sorted, deduplicated form of a clause — the identity used for deletion
/// matching and hashing. Complementary literals end up adjacent.
fn canonical(lits: &[Lit]) -> Vec<Lit> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

struct CheckedClause {
    /// Literal order is internal: positions 0 and 1 are the watched
    /// literals of watched clauses.
    lits: Vec<Lit>,
    /// Inert clauses (units, root-satisfied, tautologies) carry no watches.
    watched: bool,
}

/// Forward RUP/DRAT checker with a persistent root-level assignment.
///
/// Apply transcript steps in order with [`DratChecker::apply`]; after the
/// steps of an `Unsat` solve are applied, validate its certificate with
/// [`DratChecker::check_certificate`]. The checker keeps every root-level
/// consequence it derives, so incremental use (one checker across many
/// solves of a deepening BMC run) costs no re-propagation.
#[derive(Default)]
pub struct DratChecker {
    assigns: Vec<LBool>,
    trail: Vec<Lit>,
    qhead: usize,
    /// One slot per `Original` and `Add` step, indexed by proof ID; `None`
    /// once deleted.
    clauses: Vec<Option<CheckedClause>>,
    /// Watch lists indexed by literal code: slots whose clause watches the
    /// *negation* of that literal (same convention as the solver).
    watches: Vec<Vec<usize>>,
    /// Canonical clause → live slots holding it (duplicates allowed).
    index: HashMap<Vec<Lit>, Vec<usize>>,
    /// Set once the clause database is contradictory at the root; from then
    /// on every clause (including the empty certificate) is derivable.
    root_conflict: bool,
    steps: u64,
    rup_fallbacks: u64,
}

impl DratChecker {
    /// Creates an empty checker.
    pub fn new() -> DratChecker {
        DratChecker::default()
    }

    /// Number of transcript steps applied so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the checked clause database is contradictory at the root —
    /// i.e. the empty clause has been derived.
    pub fn root_conflict(&self) -> bool {
        self.root_conflict
    }

    /// Number of `Add` steps whose chain did not close (or was empty), so
    /// that full propagation decided them.
    pub fn rup_fallbacks(&self) -> u64 {
        self.rup_fallbacks
    }

    /// Applies one transcript step. `Original` clauses are axioms; `Add`
    /// clauses are RUP-checked before insertion, by their chain first;
    /// `Delete` must match a live clause (by literal set).
    pub fn apply(&mut self, step: &ProofStep) -> Result<(), ProofError> {
        self.steps += 1;
        match step {
            ProofStep::Original(lits) => {
                self.insert(lits);
                Ok(())
            }
            ProofStep::Add(lits, chain) => {
                let canon = canonical(lits);
                for &l in &canon {
                    self.ensure_var(l.var());
                }
                if !self.root_conflict && !self.replays(&canon, chain) {
                    self.rup_fallbacks += 1;
                    if !self.is_rup(&canon) {
                        return Err(ProofError::NotRup(canon));
                    }
                }
                self.insert(lits);
                Ok(())
            }
            ProofStep::Delete(lits) => self.delete(lits),
        }
    }

    /// Applies a whole transcript, stopping at the first invalid step.
    pub fn apply_all(&mut self, steps: &[ProofStep]) -> Result<(), ProofError> {
        for step in steps {
            self.apply(step)?;
        }
        Ok(())
    }

    /// Validates the certificate clause of an `Unsat` answer obtained under
    /// `assumptions`: every certificate literal must be the negation of a
    /// passed assumption (the proof certifies *this* claim, not some other
    /// formula's), and the clause must be RUP against the current database.
    /// An empty certificate claims unconditional unsatisfiability and
    /// requires the database itself to be contradictory.
    ///
    /// The certificate is *not* inserted: it only holds under the
    /// assumptions, not unconditionally.
    pub fn check_certificate(
        &mut self,
        assumptions: &[Lit],
        certificate: &[Lit],
    ) -> Result<(), ProofError> {
        for &l in certificate {
            if !assumptions.contains(&!l) {
                return Err(ProofError::CertificateScope(l));
            }
        }
        let canon = canonical(certificate);
        for &l in &canon {
            self.ensure_var(l.var());
        }
        if self.root_conflict || self.is_rup(&canon) {
            Ok(())
        } else {
            Err(ProofError::NotRup(canon))
        }
    }

    fn ensure_var(&mut self, v: Var) {
        while self.assigns.len() <= v.index() {
            self.assigns.push(LBool::Undef);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
        }
    }

    #[inline]
    fn value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].xor(!l.is_positive())
    }

    fn enqueue(&mut self, l: Lit) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        self.assigns[l.var().index()] = LBool::from_bool(l.is_positive());
        self.trail.push(l);
    }

    /// Inserts a clause into the database (already RUP-checked if needed)
    /// in the next slot, the empty clause included, so slot indices stay
    /// the steps' proof IDs.
    fn insert(&mut self, lits: &[Lit]) {
        let canon = canonical(lits);
        for &l in &canon {
            self.ensure_var(l.var());
        }
        let key = canon.clone();
        let tautology = canon.windows(2).any(|w| w[0] == !w[1]);
        let satisfied = canon.iter().any(|&l| self.value(l) == LBool::True);
        let slot = self.clauses.len();
        if tautology || satisfied {
            // Root assignments are monotone, so a clause satisfied now can
            // never propagate or conflict later: store it inert (it stays
            // addressable for deletion).
            self.clauses.push(Some(CheckedClause {
                lits: canon,
                watched: false,
            }));
        } else {
            let mut lits = canon;
            let undef: Vec<usize> = (0..lits.len())
                .filter(|&i| self.value(lits[i]) == LBool::Undef)
                .collect();
            match undef.len() {
                0 => {
                    // Every literal false at the root (or no literal): the
                    // empty clause.
                    self.root_conflict = true;
                    self.clauses.push(Some(CheckedClause {
                        lits,
                        watched: false,
                    }));
                }
                1 => {
                    let unit = lits[undef[0]];
                    self.clauses.push(Some(CheckedClause {
                        lits,
                        watched: false,
                    }));
                    self.enqueue(unit);
                    if self.propagate() {
                        self.root_conflict = true;
                    }
                }
                _ => {
                    lits.swap(0, undef[0]);
                    // After the first swap, undef[1] may have moved to slot
                    // undef[0]; it can never have been position 0 itself.
                    let second = if undef[1] == 0 { undef[0] } else { undef[1] };
                    lits.swap(1, second);
                    let (l0, l1) = (lits[0], lits[1]);
                    self.clauses.push(Some(CheckedClause {
                        lits,
                        watched: true,
                    }));
                    self.watches[(!l0).code()].push(slot);
                    self.watches[(!l1).code()].push(slot);
                }
            }
        }
        self.index.entry(key).or_default().push(slot);
    }

    fn delete(&mut self, lits: &[Lit]) -> Result<(), ProofError> {
        let canon = canonical(lits);
        let slot = match self.index.get_mut(&canon) {
            Some(slots) if !slots.is_empty() => slots.pop().expect("non-empty"),
            _ => return Err(ProofError::MissingDelete(canon)),
        };
        let clause = self.clauses[slot].take().expect("indexed slot is live");
        if clause.watched {
            let (l0, l1) = (clause.lits[0], clause.lits[1]);
            self.watches[(!l0).code()].retain(|&s| s != slot);
            self.watches[(!l1).code()].retain(|&s| s != slot);
        }
        Ok(())
    }

    /// Two-watched-literal unit propagation over the trail; returns `true`
    /// on conflict. Used both for persistent root propagation and (with
    /// rollback) for RUP tests.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let mut list = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            'watchers: while i < list.len() {
                let slot = list[i];
                let false_lit = !p;
                {
                    let c = self.clauses[slot].as_mut().expect("watched slot live");
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[slot].as_ref().expect("live").lits[0];
                if self.value(first) == LBool::True {
                    i += 1;
                    continue;
                }
                let len = self.clauses[slot].as_ref().expect("live").lits.len();
                for k in 2..len {
                    let lk = self.clauses[slot].as_ref().expect("live").lits[k];
                    if self.value(lk) != LBool::False {
                        self.clauses[slot].as_mut().expect("live").lits.swap(1, k);
                        self.watches[(!lk).code()].push(slot);
                        list.swap_remove(i);
                        continue 'watchers;
                    }
                }
                if self.value(first) == LBool::False {
                    self.watches[p.code()] = list;
                    return true;
                }
                self.enqueue(first);
                i += 1;
            }
            self.watches[p.code()] = list;
        }
        false
    }

    /// Reverse-unit-propagation test: asserting the negation of every
    /// literal of `canon` and propagating must yield a conflict. The trail
    /// extension is rolled back before returning, so the persistent root
    /// state is untouched.
    fn is_rup(&mut self, canon: &[Lit]) -> bool {
        let mark = self.trail.len();
        let conflict = self.assert_negation(canon) || self.propagate();
        self.backtrack(mark);
        conflict
    }

    /// The RUP test by `chain` alone: asserting the negation of `canon`
    /// and walking the chain must reach a clause with every literal false.
    /// A chain clause with a true literal is skipped and one with a single
    /// open literal assigns it. `false` when the walk cannot decide: an ID
    /// that names no live clause, a clause with two open literals, or a
    /// chain that ends without a conflict. Every assignment the walk makes
    /// is a unit propagation over live clauses, so `true` is a RUP
    /// derivation. Rolled back like [`DratChecker::is_rup`].
    fn replays(&mut self, canon: &[Lit], chain: &[u32]) -> bool {
        let mark = self.trail.len();
        let conflict = self.assert_negation(canon) || self.walk(chain);
        self.backtrack(mark);
        conflict
    }

    /// The chain walk of [`DratChecker::replays`].
    fn walk(&mut self, chain: &[u32]) -> bool {
        'chain: for &id in chain {
            let Some(Some(clause)) = self.clauses.get(id as usize) else {
                return false;
            };
            let mut open = None;
            let mut opens = 0;
            for &l in &clause.lits {
                match self.value(l) {
                    LBool::True => continue 'chain,
                    LBool::False => {}
                    LBool::Undef => {
                        open = Some(l);
                        opens += 1;
                    }
                }
            }
            match open {
                None => return true,
                Some(l) if opens == 1 => self.enqueue(l),
                Some(_) => return false,
            }
        }
        false
    }

    /// Asserts the negation of every literal of `canon` on top of the root
    /// assignment, which must be at its fixpoint. `true` when a literal of
    /// `canon` is already true: asserting its negation conflicts at once.
    fn assert_negation(&mut self, canon: &[Lit]) -> bool {
        debug_assert_eq!(self.qhead, self.trail.len(), "root propagation at fixpoint");
        for &l in canon {
            match self.value(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => self.enqueue(!l),
            }
        }
        false
    }

    /// Unassigns everything above trail position `mark`.
    fn backtrack(&mut self, mark: usize) {
        for idx in (mark..self.trail.len()).rev() {
            self.assigns[self.trail[idx].var().index()] = LBool::Undef;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
    }
}

/// Running FNV-1a 64-bit hash over a transcript's structure: step tags and
/// literal codes, order-sensitive. Stable across platforms and runs; used
/// as the certificate content hash that crosses IPC and journal
/// boundaries. Feed drained batches in order with [`ProofHasher::update`];
/// the result is identical to hashing the concatenated transcript.
#[derive(Clone, Copy, Debug)]
pub struct ProofHasher(u64);

impl Default for ProofHasher {
    fn default() -> ProofHasher {
        ProofHasher::new()
    }
}

impl ProofHasher {
    const PRIME: u64 = 0x1_0000_0000_01b3;

    /// A fresh hasher (FNV-1a offset basis).
    pub fn new() -> ProofHasher {
        ProofHasher(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Feeds a batch of steps into the hash: step kinds and literal codes.
    /// An `Add` step's chain is not hashed, so a transcript hashes the same
    /// with or without chains.
    pub fn update(&mut self, steps: &[ProofStep]) {
        for step in steps {
            let tag: u8 = match step {
                ProofStep::Original(_) => b'o',
                ProofStep::Add(..) => b'a',
                ProofStep::Delete(_) => b'd',
            };
            self.byte(tag);
            for l in step.lits() {
                for b in (l.code() as u32).to_le_bytes() {
                    self.byte(b);
                }
            }
            self.byte(0xff);
        }
    }

    /// The hash of everything fed so far (the hasher stays usable).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of a whole transcript — a one-shot
/// [`ProofHasher`].
pub fn proof_hash(steps: &[ProofStep]) -> u64 {
    let mut h = ProofHasher::new();
    h.update(steps);
    h.finish()
}

/// Serializes a transcript as DRAT-style text: one clause per line in
/// DIMACS literal notation, `0`-terminated. `Add` lines are plain DRAT,
/// without their chains, `Delete` lines carry the standard `d` prefix, and
/// `Original` lines use an `o` prefix (standard DRAT keeps originals in
/// the CNF file; this format is self-contained so a transcript replays
/// without one).
pub fn proof_to_bytes(steps: &[ProofStep]) -> Vec<u8> {
    let mut out = String::new();
    for step in steps {
        match step {
            ProofStep::Original(_) => out.push_str("o "),
            ProofStep::Add(..) => {}
            ProofStep::Delete(_) => out.push_str("d "),
        }
        for l in step.lits() {
            out.push_str(&l.to_string());
            out.push(' ');
        }
        out.push_str("0\n");
    }
    out.into_bytes()
}

/// Parses the output of [`proof_to_bytes`]. Rejects non-UTF-8 input,
/// unterminated lines, zero literals, and unknown prefixes. `Add` steps
/// come back with empty chains.
pub fn proof_from_bytes(bytes: &[u8]) -> Result<Vec<ProofStep>, ParseProofError> {
    let text = std::str::from_utf8(bytes).map_err(|_| ParseProofError { line: 1 })?;
    let mut steps = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let err = ParseProofError { line: i + 1 };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (kind, rest) = if let Some(rest) = line.strip_prefix("o ") {
            ('o', rest)
        } else if let Some(rest) = line.strip_prefix("d ") {
            ('d', rest)
        } else {
            ('a', line)
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in rest.split_ascii_whitespace() {
            if terminated {
                return Err(err);
            }
            let n: i64 = tok.parse().map_err(|_| err)?;
            if n == 0 {
                terminated = true;
            } else {
                let idx = n.unsigned_abs() - 1;
                if idx >= u32::MAX as u64 / 2 {
                    return Err(err);
                }
                lits.push(Lit::new(Var::from_index(idx as usize), n > 0));
            }
        }
        if !terminated {
            return Err(err);
        }
        steps.push(match kind {
            'o' => ProofStep::Original(lits),
            'd' => ProofStep::Delete(lits),
            _ => ProofStep::Add(lits, Vec::new()),
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(x: i32) -> Lit {
        Lit::new(Var::from_index((x.unsigned_abs() - 1) as usize), x > 0)
    }

    fn clause(xs: &[i32]) -> Vec<Lit> {
        xs.iter().map(|&x| lit(x)).collect()
    }

    #[test]
    fn rup_accepts_resolvents_and_rejects_random_clauses() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        // (2) follows by resolution — RUP.
        ck.apply(&ProofStep::Add(clause(&[2]), vec![])).unwrap();
        // (3) follows from nothing.
        assert_eq!(
            ck.apply(&ProofStep::Add(clause(&[3]), vec![])),
            Err(ProofError::NotRup(clause(&[3])))
        );
    }

    #[test]
    fn unconditional_unsat_reaches_root_conflict() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-2]))).unwrap();
        assert!(ck.root_conflict(), "unit propagation finds the conflict");
        // The empty certificate (unconditional unsatisfiability) passes.
        ck.check_certificate(&[], &[]).unwrap();
    }

    #[test]
    fn empty_certificate_requires_a_contradiction() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        assert_eq!(
            ck.check_certificate(&[], &[]),
            Err(ProofError::NotRup(vec![]))
        );
    }

    #[test]
    fn assumption_certificate_is_scoped_and_rup_checked() {
        let mut ck = DratChecker::new();
        // (¬a ∨ b) with assumptions [a, ¬b]: core is both, certificate
        // (¬a ∨ b) itself.
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        let assumptions = clause(&[1, -2]);
        ck.check_certificate(&assumptions, &clause(&[-1, 2]))
            .unwrap();
        // A certificate literal outside the assumption set is rejected even
        // if the clause is RUP.
        assert_eq!(
            ck.check_certificate(&clause(&[1]), &clause(&[-1, 2])),
            Err(ProofError::CertificateScope(lit(2)))
        );
        // A non-RUP certificate over valid assumptions is rejected.
        assert_eq!(
            ck.check_certificate(&clause(&[2]), &clause(&[-2])),
            Err(ProofError::NotRup(clause(&[-2])))
        );
    }

    #[test]
    fn deletes_match_by_literal_set_and_reject_unknown_clauses() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[3, 1, 2]))).unwrap();
        // Deletion uses the canonical literal-set identity, not order.
        ck.apply(&ProofStep::Delete(clause(&[2, 3, 1]))).unwrap();
        assert_eq!(
            ck.apply(&ProofStep::Delete(clause(&[1, 2, 3]))),
            Err(ProofError::MissingDelete(clause(&[1, 2, 3])))
        );
    }

    #[test]
    fn deleted_clauses_no_longer_support_rup() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[-1, 2]))).unwrap();
        ck.apply(&ProofStep::Delete(clause(&[-1, 2]))).unwrap();
        assert_eq!(
            ck.apply(&ProofStep::Add(clause(&[2]), vec![])),
            Err(ProofError::NotRup(clause(&[2])))
        );
    }

    #[test]
    fn duplicate_clauses_delete_one_copy_at_a_time() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1, 2, 3]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[1, 2, 3]))).unwrap();
        ck.apply(&ProofStep::Delete(clause(&[1, 2, 3]))).unwrap();
        ck.apply(&ProofStep::Delete(clause(&[1, 2, 3]))).unwrap();
        assert!(ck.apply(&ProofStep::Delete(clause(&[1, 2, 3]))).is_err());
    }

    #[test]
    fn serialization_round_trips_and_rejects_tampering() {
        let steps = vec![
            ProofStep::Original(clause(&[1, -2, 3])),
            ProofStep::Add(clause(&[-1, 3]), vec![]),
            ProofStep::Delete(clause(&[1, -2, 3])),
            ProofStep::Add(vec![], vec![]),
        ];
        let bytes = proof_to_bytes(&steps);
        assert_eq!(proof_from_bytes(&bytes).unwrap(), steps);

        // Corrupting the terminator makes the line unparseable.
        let mut bad = bytes.clone();
        let zero = bad.iter().rposition(|&b| b == b'0').unwrap();
        bad[zero] = b'x';
        assert!(proof_from_bytes(&bad).is_err());
    }

    #[test]
    fn proof_hash_is_structural_and_order_sensitive() {
        let a = vec![ProofStep::Add(clause(&[1, 2]), vec![])];
        let b = vec![ProofStep::Add(clause(&[2, 1]), vec![])];
        let c = vec![ProofStep::Delete(clause(&[1, 2]))];
        assert_ne!(proof_hash(&a), proof_hash(&b), "literal order matters");
        assert_ne!(proof_hash(&a), proof_hash(&c), "step kind matters");
        assert_eq!(proof_hash(&a), proof_hash(&a.clone()), "deterministic");
        assert_ne!(proof_hash(&[]), proof_hash(&a));
    }

    /// Originals with proof IDs 0-2: (1 ∨ 2), (¬1 ∨ 3), (¬2 ∨ 3). The
    /// lemma (3) is RUP, and the chain [1, 2, 0] replays it: ¬3 makes
    /// clauses 1 and 2 unit (¬1, then ¬2), and clause 0 goes all-false.
    fn diamond() -> DratChecker {
        let mut ck = DratChecker::new();
        for c in [&[1, 2][..], &[-1, 3], &[-2, 3]] {
            ck.apply(&ProofStep::Original(clause(c))).unwrap();
        }
        ck
    }

    #[test]
    fn a_correct_chain_checks_its_lemma_without_fallback() {
        let mut ck = diamond();
        ck.apply(&ProofStep::Add(clause(&[3]), vec![1, 2, 0]))
            .unwrap();
        assert_eq!(ck.rup_fallbacks(), 0);
        // The lemma took slot 3: a later chain can name it.
        ck.apply(&ProofStep::Original(clause(&[-3, 4]))).unwrap();
        ck.apply(&ProofStep::Add(clause(&[4]), vec![4, 3])).unwrap();
        assert_eq!(ck.rup_fallbacks(), 0);
    }

    #[test]
    fn broken_chains_fall_back_and_still_accept_a_rup_lemma() {
        let chains: [&[u32]; 5] = [
            &[0, 1, 2],  // wrong order: clause 0 has two open literals
            &[3, 2, 0],  // slot 3 held a copy of clause 1, now deleted
            &[1, 2, 99], // out of range
            &[1, 2],     // too short: ends without a conflict
            &[],         // empty: full propagation by request
        ];
        for chain in chains {
            let mut ck = diamond();
            ck.apply(&ProofStep::Original(clause(&[-1, 3]))).unwrap();
            ck.apply(&ProofStep::Delete(clause(&[-1, 3]))).unwrap();
            ck.apply(&ProofStep::Add(clause(&[3]), chain.to_vec()))
                .unwrap_or_else(|e| panic!("chain {chain:?}: {e}"));
            assert_eq!(ck.rup_fallbacks(), 1, "chain {chain:?}");
        }
    }

    #[test]
    fn a_forged_chain_cannot_pass_a_non_rup_lemma() {
        // (1) does not follow: ¬1 propagates 2, then 3, and stops.
        for chain in [vec![0], vec![1, 2, 0], vec![0, 2, 1, 0]] {
            let mut ck = diamond();
            assert_eq!(
                ck.apply(&ProofStep::Add(clause(&[1]), chain)),
                Err(ProofError::NotRup(clause(&[1])))
            );
            assert_eq!(ck.rup_fallbacks(), 1);
        }
    }

    #[test]
    fn satisfied_chain_clauses_are_skipped() {
        let mut ck = diamond();
        // Slot 3 is the unit (4), slot 4 the root-satisfied (4 ∨ 5).
        ck.apply(&ProofStep::Original(clause(&[4]))).unwrap();
        ck.apply(&ProofStep::Original(clause(&[4, 5]))).unwrap();
        // Slot 4 is true at the root, and slot 1's second visit is true
        // by the ¬1 its first visit assigned.
        ck.apply(&ProofStep::Add(clause(&[3]), vec![4, 1, 1, 2, 0]))
            .unwrap();
        assert_eq!(ck.rup_fallbacks(), 0);
    }

    #[test]
    fn root_satisfied_clauses_stay_inert_but_deletable() {
        let mut ck = DratChecker::new();
        ck.apply(&ProofStep::Original(clause(&[1]))).unwrap();
        // Satisfied at insertion: stored inert.
        ck.apply(&ProofStep::Original(clause(&[1, 2]))).unwrap();
        ck.apply(&ProofStep::Delete(clause(&[1, 2]))).unwrap();
        // Tautologies are likewise inert and harmless.
        ck.apply(&ProofStep::Original(clause(&[3, -3]))).unwrap();
        assert!(!ck.root_conflict());
    }
}
