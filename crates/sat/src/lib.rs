//! # autocc-sat
//!
//! A conflict-driven clause-learning (CDCL) SAT solver, built from scratch as
//! the formal-property-verification engine backend of the AutoCC flow
//! (Orenes-Vera et al., *AutoCC: Automatic Discovery of Covert Channels in
//! Time-Shared Hardware*, MICRO 2023).
//!
//! The paper drives commercial (JasperGold) and open-source (SBY) FPV
//! engines; this crate plays their role. The bounded model checker in
//! `autocc-bmc` encodes the two-universe miter built by `autocc-core` into
//! CNF and asks this solver for counterexamples (covert channels) or
//! unsatisfiability (bounded proofs of isolation).
//!
//! ## Features
//!
//! * Two-watched-literal unit propagation.
//! * First-UIP clause learning with self-subsumption minimisation.
//! * VSIDS decision heuristic with phase saving and Luby restarts.
//! * Learnt-clause database reduction ranked by clause activity; binary
//!   clauses and clauses of LBD at most 2 are always kept.
//! * Incremental solving under assumptions with failed-assumption cores —
//!   this is what makes iterative BMC deepening cheap.
//! * DRAT proof logging with a self-contained forward RUP checker, so
//!   every `Unsat` answer (the paper's PASS verdicts) can be certified
//!   independently of the search code ([`Solver::enable_proof_logging`],
//!   [`DratChecker`]). Each learnt clause comes with the chain of clause
//!   IDs its conflict analysis resolved, and the checker replays that
//!   chain before falling back to full propagation.
//! * DIMACS I/O and a brute-force reference solver for differential testing.
//!
//! ## Example
//!
//! ```
//! use autocc_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) ⇒ b must hold.
//! solver.add_clause(&[a.positive(), b.positive()]);
//! solver.add_clause(&[a.negative(), b.positive()]);
//! assert_eq!(solver.solve_with(&[b.negative()]), SolveResult::Unsat);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod clause;
mod dimacs;
mod heap;
mod lit;
mod proof;
mod solver;

pub use brute::{check_model, solve_brute_force, BRUTE_FORCE_VAR_LIMIT};
pub use dimacs::{Cnf, ParseDimacsError};
pub use lit::{LBool, Lit, Var};
pub use proof::{
    proof_from_bytes, proof_hash, proof_to_bytes, DratChecker, ParseProofError, ProofError,
    ProofHasher, ProofStep,
};
pub use solver::{ProgressHook, SolveResult, Solver, Stats};
