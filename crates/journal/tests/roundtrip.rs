//! Property-based round-trips for the journal's hand-rolled record
//! serde: an arbitrary header, entry, or outcome encodes to a line that
//! decodes to a value whose re-encoding is byte-identical. The encoding
//! is canonical, so re-encoded equality is full structural equality.

use autocc_bmc::{
    CertificateStatus, CheckMode, ContentKey, FailureReason, JobFailure, Trace, UnknownCause,
};
use autocc_core::{AutoCcOutcome, CheckReport, CovertChannelCex, PropertyVerdict, StateDivergence};
use autocc_hdl::Bv;
use autocc_journal::{
    entry_line, header_line, outcome_json, parse_entry, parse_header, parse_outcome, JournalEntry,
    JournalHeader,
};
use autocc_telemetry::SolverCounters;
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

/// A small alphabet that still exercises every string-escaping path:
/// plain ASCII, the two JSON metacharacters, control characters (written
/// as `\u` escapes), and multi-byte UTF-8 of every width (2, 3 and 4
/// bytes), so copied runs end next to escapes at each width.
fn arb_string() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 10] = ['a', 'Z', '_', '"', '\\', '\n', '\u{1}', 'é', '€', '𝄞'];
    vec(0usize..ALPHABET.len(), 0..12).prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_bv() -> impl Strategy<Value = Bv> {
    (1u32..=64, any::<u64>()).prop_map(|(w, v)| Bv::masked(w, v))
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (0usize..4, 0usize..4)
        .prop_flat_map(|(cycles, ports)| vec(vec(arb_bv(), ports), cycles))
        .prop_map(Trace::new)
}

fn arb_counters() -> impl Strategy<Value = SolverCounters> {
    vec(any::<u64>(), 7).prop_map(|v| SolverCounters {
        solve_calls: v[0],
        conflicts: v[1],
        decisions: v[2],
        propagations: v[3],
        restarts: v[4],
        learnt_clauses: v[5],
        deleted_clauses: v[6],
    })
}

fn arb_divergence() -> impl Strategy<Value = StateDivergence> {
    (arb_string(), 0usize..256, 0usize..256, arb_bv(), arb_bv()).prop_map(
        |(name, first, last, value_a, value_b)| StateDivergence {
            name,
            first_diff_cycle: first,
            last_diff_cycle: last,
            value_a,
            value_b,
        },
    )
}

fn arb_reason() -> impl Strategy<Value = FailureReason> {
    prop_oneof![
        Just(FailureReason::ReplayMismatch),
        Just(FailureReason::InternalInconsistency),
        Just(FailureReason::Panic),
        Just(FailureReason::Hang),
        Just(FailureReason::Certification),
    ]
}

fn arb_certificate() -> impl Strategy<Value = CertificateStatus> {
    prop_oneof![
        Just(CertificateStatus::Uncertified),
        any::<u64>().prop_map(|hash| CertificateStatus::Certified { hash }),
    ]
}

fn arb_failure() -> impl Strategy<Value = JobFailure> {
    (
        arb_string(),
        (any::<bool>(), arb_string()).prop_map(|(some, s)| some.then_some(s)),
        0usize..1024,
        arb_reason(),
        arb_string(),
        any::<u32>(),
    )
        .prop_map(
            |(engine, property, depth, reason, detail, attempts)| JobFailure {
                engine,
                property,
                depth,
                reason,
                detail,
                attempts,
            },
        )
}

fn arb_outcome() -> BoxedStrategy<AutoCcOutcome> {
    prop_oneof![
        (
            arb_string(),
            0usize..256,
            arb_trace(),
            0usize..256,
            vec(arb_divergence(), 0..3),
        )
            .prop_map(
                |(property, depth, trace, spy_start_cycle, diverging_state)| {
                    AutoCcOutcome::Cex(Box::new(CovertChannelCex {
                        property,
                        depth,
                        trace,
                        spy_start_cycle,
                        diverging_state,
                    }))
                }
            ),
        (0usize..1024).prop_map(|bound| AutoCcOutcome::Clean { bound }),
        (0usize..1024).prop_map(|induction_depth| AutoCcOutcome::Proved { induction_depth }),
        (0usize..1024).prop_map(|bound| AutoCcOutcome::Exhausted { bound }),
        (
            0usize..1024,
            prop_oneof![
                Just(UnknownCause::TimeBudget),
                Just(UnknownCause::Cancelled)
            ],
        )
            .prop_map(|(bound, cause)| AutoCcOutcome::Unknown { bound, cause }),
        vec(arb_failure(), 0..3).prop_map(|failures| AutoCcOutcome::Failed { failures }),
    ]
    .boxed()
}

fn arb_verdict() -> impl Strategy<Value = (String, PropertyVerdict)> {
    (
        arb_string(),
        prop_oneof![
            (0usize..1024).prop_map(|depth| PropertyVerdict::Cex { depth }),
            (0usize..1024).prop_map(|bound| PropertyVerdict::Clean { bound }),
            (0usize..1024).prop_map(|induction_depth| PropertyVerdict::Proved { induction_depth }),
            (0usize..1024).prop_map(|bound| PropertyVerdict::Exhausted { bound }),
            (0usize..1024).prop_map(|bound| PropertyVerdict::Unknown { bound }),
            Just(PropertyVerdict::Failed),
        ],
    )
}

fn arb_entry() -> impl Strategy<Value = JournalEntry> {
    (
        (
            any::<u64>(),
            arb_string(),
            prop_oneof![Just(CheckMode::Check), Just(CheckMode::Prove)],
            arb_string(),
            any::<u32>(),
        ),
        (
            arb_outcome(),
            any::<u64>(),
            arb_counters(),
            vec(arb_verdict(), 0..4),
            arb_certificate(),
        ),
    )
        .prop_map(
            |(
                (key, id, mode, engine, attempt),
                (outcome, elapsed_us, stats, verdicts, certificate),
            )| {
                JournalEntry {
                    key: ContentKey(key),
                    id,
                    mode,
                    engine,
                    attempt,
                    report: CheckReport {
                        outcome,
                        elapsed: Duration::from_micros(elapsed_us),
                        stats,
                        verdicts,
                        certificate,
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn entry_line_round_trips(entry in arb_entry()) {
        let line = entry_line(&entry);
        let decoded = parse_entry(&line)
            .unwrap_or_else(|e| panic!("parse failed: {e}\nline: {line}"));
        prop_assert_eq!(entry_line(&decoded), line);
        // The binding is recomputed from the record's own key, so a
        // faithful copy always restores the certificate exactly.
        prop_assert_eq!(decoded.report.certificate, entry.report.certificate);
    }

    #[test]
    fn header_line_round_trips(
        schema in any::<u64>(),
        fingerprint in any::<u64>(),
        root in arb_string(),
    ) {
        let header = JournalHeader { schema, fingerprint, root };
        let line = header_line(&header);
        let decoded = parse_header(&line)
            .unwrap_or_else(|e| panic!("parse failed: {e}\nline: {line}"));
        prop_assert_eq!(decoded, header);
    }

    #[test]
    fn outcome_json_round_trips(outcome in arb_outcome()) {
        let encoded = outcome_json(&outcome);
        let decoded = parse_outcome(&encoded)
            .unwrap_or_else(|e| panic!("parse failed: {e}"));
        prop_assert_eq!(outcome_json(&decoded), encoded);
    }

    #[test]
    fn content_key_hex_round_trips(raw in any::<u64>()) {
        let key = ContentKey(raw);
        let hex = key.to_string();
        prop_assert_eq!(hex.len(), 16, "display is always zero-padded");
        prop_assert_eq!(ContentKey::parse_hex(&hex), Some(key));
    }
}
