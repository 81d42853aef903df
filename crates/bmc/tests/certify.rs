//! End-to-end UNSAT certification through the checker and engine layers:
//! certified runs return the identical outcome plus a checked certificate,
//! and every tampering or misuse path degrades to FAILED(certification) —
//! never PASS.

use autocc_bmc::{
    Bmc, BmcEngine, CancelToken, CertificateStatus, CheckConfig, CheckEngine, CheckOutcome,
    CheckSpec, EngineOutcome, FailureReason, Falsifier, KInductionEngine,
};
use autocc_hdl::{Bv, Module, ModuleBuilder};
use autocc_sat::{Lit, ProofStep, Var};
use autocc_telemetry::{ProfileRecorder, Telemetry};
use std::sync::Arc;

/// A 3-bit free-running counter with `small = count < limit`.
fn counter(limit: u64) -> Module {
    let mut b = ModuleBuilder::new("counter");
    let c = b.reg("count", 3, Bv::zero(3));
    let one = b.lit(3, 1);
    let next = b.add(c, one);
    b.set_next(c, next);
    let lim = b.lit(4, limit);
    let cz = b.zext(c, 4);
    let below = b.ult(cz, lim);
    b.output("small", below);
    b.build()
}

/// A register that holds its value forever: `zero = (r == 0)` is
/// inductive at k = 1, so k-induction proves it outright.
fn latch() -> Module {
    let mut b = ModuleBuilder::new("latch");
    let r = b.reg("r", 4, Bv::zero(4));
    b.set_next(r, r);
    let z = b.lit(4, 0);
    let eq = b.eq(r, z);
    b.output("zero", eq);
    b.build()
}

/// `assoc = ((a + b) + c == a + (b + c))` over free 10-bit inputs: true
/// on every cycle, and each depth's UNSAT takes real conflicts.
fn adder_associativity() -> Module {
    let mut b = ModuleBuilder::new("assoc");
    let x = b.input("a", 10);
    let y = b.input("b", 10);
    let z = b.input("c", 10);
    let xy = b.add(x, y);
    let left = b.add(xy, z);
    let yz = b.add(y, z);
    let right = b.add(x, yz);
    let eq = b.eq(left, right);
    b.output("assoc", eq);
    b.build()
}

fn spec<'m>(m: &'m Module, out: &str) -> CheckSpec<'m> {
    CheckSpec::new(m).property(out, m.output_node(out).unwrap())
}

#[test]
fn certified_bounded_proof_matches_uncertified_and_carries_a_hash() {
    // count < 8 is a tautology for a 3-bit counter: every depth is UNSAT.
    let m = counter(8);
    let base = CheckConfig::default().depth(12).no_timeout();
    let plain = BmcEngine.check(&spec(&m, "small"), &base, &CancelToken::new());
    let cert = BmcEngine.check(
        &spec(&m, "small"),
        &base.clone().certify(true),
        &CancelToken::new(),
    );
    match (&plain.outcome, &cert.outcome) {
        (EngineOutcome::BoundReached { depth: a }, EngineOutcome::BoundReached { depth: b }) => {
            assert_eq!(a, b, "certification must not change the verdict")
        }
        other => panic!("expected matching bounded proofs, got {other:?}"),
    }
    assert_eq!(
        plain.counters.conflicts, cert.counters.conflicts,
        "proof logging must not alter the search"
    );
    assert_eq!(plain.certificate, CertificateStatus::Uncertified);
    assert!(
        cert.certificate.is_certified(),
        "certified bounded proof carries a certificate: {:?}",
        cert.certificate
    );
}

#[test]
fn certified_kinduction_proof_combines_base_and_step_certificates() {
    let m = latch();
    let config = CheckConfig::default().depth(8).no_timeout().certify(true);
    let run = KInductionEngine.check(&spec(&m, "zero"), &config, &CancelToken::new());
    match run.outcome {
        EngineOutcome::Proved { induction_depth } => assert_eq!(induction_depth, 1),
        other => panic!("expected full proof, got {other:?}"),
    }
    assert!(run.certificate.is_certified(), "{:?}", run.certificate);
}

#[test]
fn certified_cex_is_the_replayed_trace() {
    // count < 5 fails at depth 6; the trace is the SAT-side certificate.
    let m = counter(5);
    let base = CheckConfig::default().depth(16).no_timeout();
    let plain = BmcEngine.check(&spec(&m, "small"), &base, &CancelToken::new());
    let cert = BmcEngine.check(
        &spec(&m, "small"),
        &base.clone().certify(true),
        &CancelToken::new(),
    );
    match (&plain.outcome, &cert.outcome) {
        (EngineOutcome::Cex(a), EngineOutcome::Cex(b)) => {
            assert_eq!(a.depth, b.depth);
            assert_eq!(a.property, b.property);
        }
        other => panic!("expected matching counterexamples, got {other:?}"),
    }
    assert_eq!(plain.certificate, CertificateStatus::Uncertified);
    assert!(cert.certificate.is_certified());
    assert_eq!(
        cert.certificate.hash(),
        match &cert.outcome {
            EngineOutcome::Cex(cex) => Some(autocc_bmc::cex_hash(cex)),
            _ => None,
        },
        "cex certificate hash is the trace hash"
    );
}

#[test]
fn tampered_proof_stream_degrades_to_failed_certification() {
    // Inject a clause no resolution chain derives (a unit over a fresh
    // variable), once with no chain and once with a forged chain naming
    // real clauses: the next certification pass must reject the transcript
    // either way.
    let forged: Vec<u32> = (0..32).collect();
    for chain in [Vec::new(), forged] {
        let m = counter(8);
        let mut bmc = Bmc::new(&m);
        bmc.add_property("small", m.output_node("small").unwrap());
        let config = CheckConfig::default().depth(2).no_timeout().certify(true);
        match bmc.check(&config) {
            CheckOutcome::BoundReached { depth: 2 } => {}
            other => panic!("expected certified bound, got {other:?}"),
        }
        let lemma = vec![Lit::new(Var::from_index(4000), true)];
        bmc.inject_proof_step_for_test(ProofStep::Add(lemma, chain.clone()));
        match bmc.check(&config.clone().depth(4)) {
            CheckOutcome::Failed(failure) => {
                assert_eq!(failure.reason, FailureReason::Certification);
                assert!(
                    failure.detail.contains("rejected"),
                    "diagnostic names the rejection: {}",
                    failure.detail
                );
            }
            other => {
                panic!("tampered proof (chain {chain:?}) must fail certification, got {other:?}")
            }
        }
    }
}

#[test]
fn certified_check_replays_every_lemma_by_its_chain() {
    let m = adder_associativity();
    let recorder = Arc::new(ProfileRecorder::new());
    let mut bmc = Bmc::with_telemetry(&m, Telemetry::root(recorder.clone(), "assoc"));
    bmc.add_property("assoc", m.output_node("assoc").unwrap());
    let config = CheckConfig::default().depth(3).no_timeout().certify(true);
    match bmc.check(&config) {
        CheckOutcome::BoundReached { depth: 3 } => {}
        other => panic!("expected certified bound, got {other:?}"),
    }
    assert!(bmc.counters().conflicts > 0, "the check must learn clauses");
    let effort = bmc.certification_effort().expect("certification is on");
    assert!(effort.proof_steps > 0);
    assert_eq!(effort.rup_fallbacks, 0, "every lemma checks by its chain");
    // The certify-unsat spans report the same gauge.
    let profile = recorder.profile();
    let fallbacks: Vec<u64> = profile
        .spans
        .iter()
        .filter(|s| s.name == "certify-unsat")
        .map(|s| {
            s.gauges
                .iter()
                .find(|(k, _)| k == "rup_fallbacks")
                .map(|&(_, v)| v)
                .expect("certify-unsat spans carry rup_fallbacks")
        })
        .collect();
    assert!(!fallbacks.is_empty(), "one span per UNSAT solve");
    assert!(fallbacks.iter().all(|&f| f == 0), "{fallbacks:?}");
}

#[test]
fn late_certify_request_fails_closed() {
    // Asking for certification after the search already ran cannot be
    // honoured (the transcript is incomplete); it must fail, not pass.
    let m = counter(8);
    let mut bmc = Bmc::new(&m);
    bmc.add_property("small", m.output_node("small").unwrap());
    let plain = CheckConfig::default().depth(2).no_timeout();
    assert!(matches!(
        bmc.check(&plain),
        CheckOutcome::BoundReached { depth: 2 }
    ));
    match bmc.check(&plain.certify(true).depth(4)) {
        CheckOutcome::Failed(failure) => {
            assert_eq!(failure.reason, FailureReason::Certification)
        }
        other => panic!("late certify must fail closed, got {other:?}"),
    }
}

#[test]
fn falsifier_demotion_drops_the_certificate() {
    let m = counter(8);
    let config = CheckConfig::default().depth(4).no_timeout().certify(true);
    let run = Falsifier(BmcEngine).check(&spec(&m, "small"), &config, &CancelToken::new());
    assert!(matches!(run.outcome, EngineOutcome::Exhausted { depth: 4 }));
    assert_eq!(
        run.certificate,
        CertificateStatus::Uncertified,
        "an inconclusive (demoted) outcome carries no certificate"
    );
}

/// A per-property run shares one transcript: once it is rejected, no
/// UNSAT answer of the run stands. The property violated at cycle 0 keeps
/// its replayed counterexample; the tautology and the property violated
/// later read FAILED(certification), never clean.
#[test]
fn tampered_per_property_transcript_fails_every_property_without_a_cex() {
    let mut b = ModuleBuilder::new("three");
    let c = b.reg("count", 3, Bv::zero(3));
    let one = b.lit(3, 1);
    let next = b.add(c, one);
    b.set_next(c, next);
    let zero = b.lit(3, 0);
    let nonzero = b.ne(c, zero);
    b.output("nonzero", nonzero);
    let eight = b.lit(4, 8);
    let cz = b.zext(c, 4);
    let small = b.ult(cz, eight);
    b.output("small", small);
    let five = b.lit(3, 5);
    let ne5 = b.ne(c, five);
    b.output("ne5", ne5);
    let m = b.build();
    let config = CheckConfig::default().depth(8).no_timeout().certify(true);
    let per_property = |tamper: bool| {
        let mut bmc = Bmc::new(&m);
        for out in ["nonzero", "small", "ne5"] {
            bmc.add_property(out, m.output_node(out).unwrap());
        }
        if tamper {
            let lemma = vec![Lit::new(Var::from_index(4000), true)];
            bmc.inject_proof_step_for_test(ProofStep::Add(lemma, Vec::new()));
        }
        bmc.check_each(&config)
    };

    let clean = per_property(false);
    assert!(matches!(&clean[0], CheckOutcome::Cex(cex) if cex.depth == 1));
    assert!(matches!(clean[1], CheckOutcome::BoundReached { depth: 8 }));
    assert!(matches!(&clean[2], CheckOutcome::Cex(cex) if cex.depth == 6));

    let tampered = per_property(true);
    assert!(
        matches!(&tampered[0], CheckOutcome::Cex(cex) if cex.depth == 1),
        "a replayed CEX needs no transcript: {:?}",
        tampered[0]
    );
    for outcome in &tampered[1..] {
        match outcome {
            CheckOutcome::Failed(failure) => {
                assert_eq!(failure.reason, FailureReason::Certification);
                assert!(failure.detail.contains("rejected"), "{}", failure.detail);
            }
            other => panic!("tampered transcript must fail certification, got {other:?}"),
        }
    }
}
