//! UNSAT-side certification: the bridge between the solver's DRAT proof
//! log and the independent forward RUP checker.
//!
//! SAT answers (counterexamples) have been replay-certified against the
//! word-level interpreter since the beginning; this module closes the
//! other half of the trust story. Under [`CheckConfig::certify`], every
//! `Unsat` the BMC base loop or the k-induction step solver returns must
//! come with a DRAT transcript the self-contained [`DratChecker`] accepts
//! and a certificate clause that validates against the solve's
//! assumptions. A failed or missing certificate degrades the outcome to
//! `FAILED(certification)` — never PASS — mirroring the replay-mismatch
//! path on the SAT side.
//!
//! Certification never changes answers: proof logging only appends to a
//! side buffer, so the search (and therefore every outcome, content key
//! and stable table) is bit-identical with the knob on or off.
//!
//! [`CheckConfig::certify`]: crate::CheckConfig::certify

use crate::checker::Cex;
use autocc_sat::{DratChecker, Lit, ProofHasher, Solver};
use autocc_telemetry::{SpanKind, Telemetry};
use std::time::Instant;

/// Whether a conclusive outcome carries an independently-checked
/// certificate, and its content hash when it does.
///
/// For UNSAT-backed verdicts (bounded proofs, full k-induction proofs)
/// the hash is the FNV-1a 64 hash of the cumulative DRAT transcript; for
/// counterexamples it is the hash of the replay-validated trace. Only the
/// status and this hash ever cross the IPC or journal boundary — proofs
/// themselves can be large and stay inside the worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertificateStatus {
    /// No certificate: certification was off, or the outcome is
    /// inconclusive (budget stop, contained failure).
    Uncertified,
    /// The outcome was certified by an independent check.
    Certified {
        /// FNV-1a 64 content hash of the certificate material.
        hash: u64,
    },
}

impl CertificateStatus {
    /// The certificate content hash, when certified.
    pub fn hash(&self) -> Option<u64> {
        match self {
            CertificateStatus::Uncertified => None,
            CertificateStatus::Certified { hash } => Some(*hash),
        }
    }

    /// Whether this outcome carries a checked certificate.
    pub fn is_certified(&self) -> bool {
        matches!(self, CertificateStatus::Certified { .. })
    }

    /// Folds two statuses: certified only when *both* sides are, with an
    /// order-sensitive hash combining the two. Used when merging
    /// per-property reports and when a proof has a base and a step part.
    pub fn combine(&self, other: &CertificateStatus) -> CertificateStatus {
        match (self, other) {
            (
                CertificateStatus::Certified { hash: a },
                CertificateStatus::Certified { hash: b },
            ) => CertificateStatus::Certified {
                hash: fnv_fold(&[*a, *b]),
            },
            _ => CertificateStatus::Uncertified,
        }
    }
}

impl std::fmt::Display for CertificateStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateStatus::Uncertified => f.write_str("uncertified"),
            CertificateStatus::Certified { hash } => write!(f, "certified:{hash:016x}"),
        }
    }
}

/// FNV-1a 64 over a sequence of u64 words (little-endian bytes).
fn fnv_fold(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// Content hash of a replay-validated counterexample: property name,
/// depth, and every input value of the trace. This is the SAT-side
/// certificate hash — the trace *is* the certificate, and it has already
/// been replayed through the interpreter by the time a [`Cex`] exists.
pub fn cex_hash(cex: &Cex) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let byte = |b: u8, h: &mut u64| {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    for b in cex.property.as_bytes() {
        byte(*b, &mut h);
    }
    byte(0, &mut h);
    for b in (cex.depth as u64).to_le_bytes() {
        byte(b, &mut h);
    }
    for cycle in 0..cex.trace.len() {
        for port in 0..cex.trace.num_ports() {
            let v = cex.trace.input(cycle, port);
            byte(v.width() as u8, &mut h);
            for b in v.value().to_le_bytes() {
                byte(b, &mut h);
            }
        }
        byte(0xff, &mut h);
    }
    h
}

/// Work done checking UNSAT answers; see [`crate::Bmc::certification_effort`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CertificationEffort {
    /// Proof steps applied to the checker.
    pub proof_steps: u64,
    /// Wall-clock microseconds spent checking.
    pub check_us: u64,
    /// Learnt clauses whose chain did not close, so that full propagation
    /// decided them (0 when every lemma checks by its chain).
    pub rup_fallbacks: u64,
}

impl std::ops::Add for CertificationEffort {
    type Output = CertificationEffort;

    fn add(self, other: CertificationEffort) -> CertificationEffort {
        CertificationEffort {
            proof_steps: self.proof_steps + other.proof_steps,
            check_us: self.check_us + other.check_us,
            rup_fallbacks: self.rup_fallbacks + other.rup_fallbacks,
        }
    }
}

/// Per-solver certification state: the forward RUP checker tracking the
/// solver's clause database plus the running transcript hash and check
/// timing. One instance shadows the BMC base solver, another the
/// k-induction step solver.
///
/// The solver hands each learnt clause to the checker with its chain, so
/// the checker replays the clause's derivation instead of propagating the
/// whole database; chains are not hashed, so the transcript hash (the
/// certificate) is the same with or without them.
pub(crate) struct UnsatCertifier {
    checker: DratChecker,
    hasher: ProofHasher,
    check_us: u64,
}

impl UnsatCertifier {
    pub(crate) fn new() -> UnsatCertifier {
        UnsatCertifier {
            checker: DratChecker::new(),
            hasher: ProofHasher::new(),
            check_us: 0,
        }
    }

    /// Drains the solver's proof transcript into the checker and validates
    /// the UNSAT certificate of the solve that just returned `Unsat` under
    /// `assumptions`. On `Err` the caller must degrade the outcome to
    /// `FAILED(certification)`.
    ///
    /// Draining is cumulative and order-preserving, so steps logged during
    /// earlier SAT, `Stopped` or `Unknown` solves (whose learnt clauses
    /// stay in the solver's database) are applied before this solve's —
    /// the checker's database is always a superset of the solver's.
    pub(crate) fn certify_unsat(
        &mut self,
        solver: &mut Solver,
        assumptions: &[Lit],
        telemetry: &Telemetry,
    ) -> Result<(), String> {
        let span = telemetry.child(SpanKind::Phase, "certify-unsat");
        let start = Instant::now();
        let result = self.check(solver, assumptions);
        self.check_us += start.elapsed().as_micros() as u64;
        span.gauge("proof_steps", self.checker.steps());
        span.gauge("cert_check_us", self.check_us);
        span.gauge("rup_fallbacks", self.checker.rup_fallbacks());
        span.close();
        result
    }

    fn check(&mut self, solver: &mut Solver, assumptions: &[Lit]) -> Result<(), String> {
        let steps = solver.take_proof_steps();
        self.hasher.update(&steps);
        self.checker
            .apply_all(&steps)
            .map_err(|e| format!("proof transcript rejected: {e}"))?;
        let certificate: Vec<Lit> = solver
            .unsat_certificate()
            .ok_or_else(|| "UNSAT solve produced no certificate".to_string())?
            .to_vec();
        self.checker
            .check_certificate(assumptions, &certificate)
            .map_err(|e| format!("certificate rejected: {e}"))?;
        Ok(())
    }

    /// Running FNV-1a hash of the whole transcript drained so far.
    pub(crate) fn transcript_hash(&self) -> u64 {
        self.hasher.finish()
    }

    /// Total checking work so far.
    pub(crate) fn effort(&self) -> CertificationEffort {
        CertificationEffort {
            proof_steps: self.checker.steps(),
            check_us: self.check_us,
            rup_fallbacks: self.checker.rup_fallbacks(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use autocc_hdl::Bv;

    #[test]
    fn status_combines_conservatively() {
        let u = CertificateStatus::Uncertified;
        let a = CertificateStatus::Certified { hash: 1 };
        let b = CertificateStatus::Certified { hash: 2 };
        assert!(!u.is_certified());
        assert!(a.is_certified());
        assert_eq!(u.combine(&a), CertificateStatus::Uncertified);
        assert_eq!(a.combine(&u), CertificateStatus::Uncertified);
        let ab = a.combine(&b);
        let ba = b.combine(&a);
        assert!(ab.is_certified());
        assert_ne!(ab, ba, "combine is order-sensitive");
        assert_eq!(a.combine(&b), ab, "combine is deterministic");
        assert_ne!(ab.hash(), a.hash(), "combined hash differs from parts");
    }

    #[test]
    fn cex_hash_covers_name_depth_and_trace() {
        let cex = |prop: &str, depth: usize, bit: bool| Cex {
            property: prop.to_string(),
            depth,
            trace: Trace::new(vec![vec![Bv::bit(bit)]]),
        };
        let base = cex_hash(&cex("p", 1, false));
        assert_ne!(base, cex_hash(&cex("q", 1, false)), "name matters");
        assert_ne!(base, cex_hash(&cex("p", 2, false)), "depth matters");
        assert_ne!(base, cex_hash(&cex("p", 1, true)), "inputs matter");
        assert_eq!(base, cex_hash(&cex("p", 1, false)), "hash is stable");
    }

    #[test]
    fn certifier_accepts_a_real_unsat_and_reports_counters() {
        let mut solver = Solver::new();
        solver.enable_proof_logging();
        let a = solver.new_var().positive();
        let b = solver.new_var().positive();
        solver.add_clause(&[a, b]);
        solver.add_clause(&[!a, b]);
        solver.add_clause(&[a, !b]);
        solver.add_clause(&[!a, !b]);
        assert_eq!(solver.solve(), autocc_sat::SolveResult::Unsat);
        let mut certifier = UnsatCertifier::new();
        let telemetry = Telemetry::off();
        certifier
            .certify_unsat(&mut solver, &[], &telemetry)
            .expect("a genuine UNSAT must certify");
        let effort = certifier.effort();
        assert!(effort.proof_steps > 0, "transcript was applied");
        assert_eq!(effort.rup_fallbacks, 0, "every lemma checks by its chain");
        assert_ne!(certifier.transcript_hash(), ProofHasher::new().finish());
    }

    #[test]
    fn certifier_rejects_a_missing_certificate() {
        let mut solver = Solver::new();
        solver.enable_proof_logging();
        let a = solver.new_var().positive();
        solver.add_clause(&[a]);
        assert_eq!(solver.solve(), autocc_sat::SolveResult::Sat);
        // SAT leaves no UNSAT certificate; certifying anyway must fail
        // (this is the worker-death / bookkeeping-bug containment path).
        let mut certifier = UnsatCertifier::new();
        let err = certifier
            .certify_unsat(&mut solver, &[], &Telemetry::off())
            .expect_err("no certificate exists");
        assert!(err.contains("no certificate"), "got: {err}");
    }
}
