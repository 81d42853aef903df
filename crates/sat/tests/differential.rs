//! Differential tests: CDCL vs exhaustive enumeration on random formulas.

use autocc_sat::{check_model, solve_brute_force, Cnf, DratChecker, Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

/// Strategy producing a random CNF with up to `max_vars` variables.
fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    (1..=max_vars).prop_flat_map(move |nv| {
        let clause = proptest::collection::vec((0..nv, any::<bool>()), 1..=4).prop_map(
            move |lits| -> Vec<Lit> {
                lits.into_iter()
                    .map(|(v, pos)| Lit::new(Var::from_index(v), pos))
                    .collect()
            },
        );
        proptest::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| Cnf {
            num_vars: nv,
            clauses,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The CDCL solver and the brute-force enumerator agree on SAT/UNSAT,
    /// and every SAT model returned actually satisfies the formula.
    #[test]
    fn cdcl_matches_brute_force(cnf in arb_cnf(10, 40)) {
        let brute = solve_brute_force(&cnf);
        let (mut solver, vars) = cnf.into_solver();
        match solver.solve() {
            SolveResult::Sat => {
                prop_assert!(brute.is_some(), "CDCL said SAT, brute force said UNSAT");
                let model: Vec<bool> = vars
                    .iter()
                    .map(|&v| solver.value(v).unwrap_or(false))
                    .collect();
                prop_assert!(check_model(&cnf, &model), "CDCL model does not satisfy formula");
            }
            SolveResult::Unsat => {
                prop_assert!(brute.is_none(), "CDCL said UNSAT, brute force found a model");
            }
            SolveResult::Unknown | SolveResult::Stopped => {
                prop_assert!(false, "no budget or interrupt was set")
            }
        }
    }

    /// Solving under assumptions equals solving the formula with the
    /// assumptions added as unit clauses.
    #[test]
    fn assumptions_equal_units(cnf in arb_cnf(8, 30), asmpt in proptest::collection::vec((0..8usize, any::<bool>()), 0..4)) {
        let assumptions: Vec<Lit> = asmpt
            .into_iter()
            .filter(|(v, _)| *v < cnf.num_vars)
            .map(|(v, pos)| Lit::new(Var::from_index(v), pos))
            .collect();

        let (mut incremental, _) = cnf.into_solver();
        let with_assumptions = incremental.solve_with(&assumptions);

        let mut unit_cnf = cnf.clone();
        for &l in &assumptions {
            unit_cnf.clauses.push(vec![l]);
        }
        let expected = match solve_brute_force(&unit_cnf) {
            Some(_) => SolveResult::Sat,
            None => SolveResult::Unsat,
        };
        prop_assert_eq!(with_assumptions, expected);

        // Failed-assumption core must itself be inconsistent.
        if with_assumptions == SolveResult::Unsat && !assumptions.is_empty() {
            let core: Vec<Lit> = incremental.failed_assumptions().to_vec();
            for l in &core {
                prop_assert!(assumptions.contains(l), "core literal {l:?} not an assumption");
            }
            let mut core_cnf = cnf.clone();
            for &l in &core {
                core_cnf.clauses.push(vec![l]);
            }
            prop_assert!(
                solve_brute_force(&core_cnf).is_none(),
                "failed-assumption core is not actually inconsistent"
            );
        }
    }

    /// Certification closure of the solver: with proof logging on, every
    /// UNSAT answer must emit a transcript the forward RUP checker accepts
    /// plus a certificate that validates against the assumptions, and every
    /// SAT answer must return a model `check_model` accepts. Solves run as
    /// an incremental sequence (assumptions, then unconditioned) against
    /// one persistent checker, covering the learnt-clause minimisation and
    /// incremental paths where a logging gap would hide.
    #[test]
    fn proofs_certify_every_unsat(
        cnf in arb_cnf(9, 36),
        asmpt in proptest::collection::vec((0..9usize, any::<bool>()), 0..4),
    ) {
        let mut solver = Solver::new();
        solver.enable_proof_logging();
        let vars: Vec<Var> = (0..cnf.num_vars).map(|_| solver.new_var()).collect();
        for clause in &cnf.clauses {
            solver.add_clause(clause);
        }
        let assumptions: Vec<Lit> = asmpt
            .into_iter()
            .filter(|(v, _)| *v < cnf.num_vars)
            .map(|(v, pos)| Lit::new(Var::from_index(v), pos))
            .collect();

        let mut checker = DratChecker::new();
        for pass in 0..2 {
            let asms: Vec<Lit> = if pass == 0 { assumptions.clone() } else { Vec::new() };
            let result = solver.solve_with(&asms);
            // The transcript must always check, answer or no answer.
            let steps = solver.take_proof_steps();
            if let Err(e) = checker.apply_all(&steps) {
                prop_assert!(false, "transcript rejected on pass {pass}: {e}");
            }
            match result {
                SolveResult::Sat => {
                    prop_assert!(solver.unsat_certificate().is_none());
                    let model: Vec<bool> = vars
                        .iter()
                        .map(|&v| solver.value(v).unwrap_or(false))
                        .collect();
                    prop_assert!(check_model(&cnf, &model), "model fails the formula");
                    for l in &asms {
                        prop_assert!(
                            model[l.var().index()] == l.is_positive(),
                            "model violates assumption {l:?}"
                        );
                    }
                }
                SolveResult::Unsat => {
                    let cert = solver
                        .unsat_certificate()
                        .expect("UNSAT answers carry a certificate")
                        .to_vec();
                    if let Err(e) = checker.check_certificate(&asms, &cert) {
                        prop_assert!(false, "certificate rejected on pass {pass}: {e}");
                    }
                }
                SolveResult::Unknown | SolveResult::Stopped => {
                    prop_assert!(false, "no budget or interrupt was set");
                }
            }
        }
        prop_assert_eq!(checker.rup_fallbacks(), 0, "every lemma checks by its chain");
    }

    /// The solver remains correct across repeated incremental calls.
    #[test]
    fn incremental_resolves(cnf in arb_cnf(8, 24), extra in arb_cnf(8, 10)) {
        let (mut solver, _) = cnf.into_solver();
        let _ = solver.solve();
        let mut combined = cnf.clone();
        for clause in &extra.clauses {
            let filtered: Vec<Lit> = clause
                .iter()
                .copied()
                .filter(|l| l.var().index() < cnf.num_vars)
                .collect();
            if filtered.is_empty() {
                continue;
            }
            solver.add_clause(&filtered);
            combined.clauses.push(filtered);
        }
        let expected = match solve_brute_force(&combined) {
            Some(_) => SolveResult::Sat,
            None => SolveResult::Unsat,
        };
        prop_assert_eq!(solver.solve(), expected);
    }
}

/// Regression: minimised-away literals must not leave stale `seen` bits.
/// Before the fix, learnt clauses after a minimising analyze could drop
/// literals and strengthen into unsoundness — detected as a wrong UNSAT on
/// a satisfiable incremental sequence (found via the BMC k-induction flow).
#[test]
fn minimisation_does_not_corrupt_seen() {
    use autocc_sat::Solver;
    // Re-solve a moderately hard satisfiable instance repeatedly while
    // adding satisfiable units; any stale `seen` corruption accumulates
    // and eventually flips a SAT answer to UNSAT.
    let mut rng_state = 0x243f6a8885a308d3u64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    let mut solver = Solver::new();
    let n = 40;
    let vars: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
    let mut cnf = Cnf::new(n);
    // Random 3-SAT at low density (satisfiable with high probability);
    // verify each answer against brute force on a projected subformula is
    // impractical at n=40, so instead assert consistency: the solver must
    // never flip from SAT to UNSAT when adding only clauses satisfied by
    // the previous model.
    for _ in 0..120 {
        let clause: Vec<Lit> = (0..3)
            .map(|_| Lit::new(vars[(next() % n as u64) as usize], next() & 1 == 1))
            .collect();
        cnf.clauses.push(clause.clone());
        solver.add_clause(&clause);
    }
    let mut last_model: Option<Vec<bool>> = None;
    for round in 0..30 {
        match solver.solve() {
            SolveResult::Sat => {
                let model: Vec<bool> = vars
                    .iter()
                    .map(|&v| solver.value(v).unwrap_or(false))
                    .collect();
                assert!(check_model(&cnf, &model), "invalid model at round {round}");
                last_model = Some(model.clone());
                // Add a unit consistent with the current model; the formula
                // stays satisfiable, so subsequent solves must stay SAT.
                let pick = (next() % n as u64) as usize;
                let unit = Lit::new(vars[pick], model[pick]);
                solver.add_clause(&[unit]);
                cnf.clauses.push(vec![unit]);
            }
            SolveResult::Unsat => {
                panic!(
                    "solver flipped to UNSAT at round {round}, but the last model {:?} still satisfies all clauses",
                    last_model
                );
            }
            SolveResult::Unknown | SolveResult::Stopped => {
                panic!("no budget or interrupt set")
            }
        }
    }
}
