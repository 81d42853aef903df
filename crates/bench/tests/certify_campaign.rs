//! End-to-end certification through the campaign runner: a `--certify`
//! campaign stamps every conclusive row with an independently checked
//! certificate without perturbing the stable table, journaled
//! certificates survive resume, and a tampered journal (flipped
//! certificate hash) degrades the row to FAILED (certification) — it is
//! never served as a PASS.

use autocc_bench::{fix_validation_tasks, run_campaign, CampaignOptions, CampaignTask, Placement};
use autocc_bmc::{CheckConfig, CheckMode};
use autocc_core::{format_table_stable, FpvTestbench, FtSpec, RowStatus};
use autocc_duts::demo::config_device;
use std::path::{Path, PathBuf};

fn tmp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "autocc-certify-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn leaky_ft() -> FpvTestbench {
    FtSpec::new(&config_device(false)).generate()
}

fn flushed_ft() -> FpvTestbench {
    FtSpec::new(&config_device(true)).generate()
}

/// One CEX row and one clean row: both conclusive, so both must carry a
/// certificate under `--certify`.
fn two_tasks() -> Vec<CampaignTask> {
    vec![
        CampaignTask::check("D1", "leaky config register", "demo:D1", leaky_ft),
        CampaignTask::check("D2", "config register with flush", "demo:D2", flushed_ft),
    ]
}

fn config(certify: bool) -> CheckConfig {
    CheckConfig::default()
        .depth(8)
        .no_timeout()
        .certify(certify)
}

fn journaled(path: &Path) -> CampaignOptions {
    CampaignOptions {
        journal: Some(path.to_path_buf()),
        ..CampaignOptions::default()
    }
}

fn resuming(path: &Path) -> CampaignOptions {
    CampaignOptions {
        resume: true,
        ..journaled(path)
    }
}

#[test]
fn certified_campaign_stamps_every_conclusive_row_without_moving_the_table() {
    let uncertified = run_campaign(
        "demo",
        two_tasks(),
        &config(false),
        &CampaignOptions::default(),
    )
    .unwrap();
    let certified = run_campaign(
        "demo",
        two_tasks(),
        &config(true),
        &CampaignOptions::default(),
    )
    .unwrap();

    for row in &certified.rows {
        assert_eq!(row.status, RowStatus::Ok, "{}: {}", row.id, row.outcome);
        assert!(
            row.certificate.is_certified(),
            "{}: conclusive row missing its certificate",
            row.id
        );
    }
    for row in &uncertified.rows {
        assert!(
            !row.certificate.is_certified(),
            "{}: certificate minted without --certify",
            row.id
        );
    }
    // Certification adds evidence, never answers: the stable table is
    // byte-identical with and without it.
    assert_eq!(
        format_table_stable("t", &uncertified.rows),
        format_table_stable("t", &certified.rows),
    );
}

#[test]
fn certified_rows_resume_certified_from_the_journal() {
    let path = tmp_journal("resume");
    let first = run_campaign("demo", two_tasks(), &config(true), &journaled(&path)).unwrap();
    assert!(first.rows.iter().all(|r| r.certificate.is_certified()));

    let second = run_campaign("demo", two_tasks(), &config(true), &resuming(&path)).unwrap();
    assert_eq!(second.stats.cached, 2, "both rows replay from the journal");
    for (a, b) in first.rows.iter().zip(&second.rows) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.certificate, b.certificate,
            "{}: journaled certificate lost on resume",
            a.id
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn uncertified_journal_rows_rerun_live_under_certify() {
    // A journal written without --certify serves no conclusive row to a
    // certified resume: each re-runs live to mint its proof.
    let path = tmp_journal("upgrade");
    run_campaign("demo", two_tasks(), &config(false), &journaled(&path)).unwrap();

    let upgraded = run_campaign("demo", two_tasks(), &config(true), &resuming(&path)).unwrap();
    assert_eq!(upgraded.stats.cached, 0);
    assert_eq!(upgraded.stats.live, 2, "both rows re-run to mint proofs");
    assert!(upgraded.rows.iter().all(|r| r.certificate.is_certified()));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flipped_journal_certificate_hash_degrades_to_failed_certification() {
    let path = tmp_journal("tamper");
    run_campaign("demo", two_tasks(), &config(true), &journaled(&path)).unwrap();

    // Flip one hex digit of each record's certificate hash, exactly as a
    // bit-rotted or hand-edited journal would present it.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("\"cert\":["),
        "certified records were journaled"
    );
    let tampered: String = text
        .lines()
        .map(|line| {
            let flipped = match line.find("\"cert\":[\"") {
                Some(at) => {
                    let digit = at + "\"cert\":[\"".len();
                    let mut chars: Vec<char> = line.chars().collect();
                    chars[digit] = if chars[digit] == '0' { '1' } else { '0' };
                    chars.into_iter().collect()
                }
                None => line.to_string(),
            };
            format!("{flipped}\n")
        })
        .collect();
    std::fs::write(&path, tampered).unwrap();

    let resumed = run_campaign("demo", two_tasks(), &config(true), &resuming(&path)).unwrap();
    for row in &resumed.rows {
        assert_eq!(
            row.status,
            RowStatus::Failed,
            "{}: tampered certificate served as {}",
            row.id,
            row.outcome
        );
        assert!(
            row.outcome.contains("certification"),
            "{}: expected FAILED (certification), got {}",
            row.id,
            row.outcome
        );
        assert!(!row.certificate.is_certified());
    }
    let _ = std::fs::remove_file(&path);
}

/// A certificate is the hash of the DRAT transcript's step kinds and
/// literals, in order. These were recorded before learnt clauses carried
/// their chains; any change to what the solver logs, or in which order,
/// fails here, while a faster check changes nothing. The two bounded rows
/// fold the one transcript of their shared per-property run; the proofs
/// are k-induction results.
#[test]
fn certificate_hashes_are_pinned() {
    // `autocc config-device-fixed --prove --certify`.
    let ft = FtSpec::new(&config_device(true))
        .flush_done(|b, _ua, _ub| b.input_node("flush").expect("common flush"))
        .state_equality_invariants()
        .generate();
    let config = CheckConfig::default().depth(16).no_timeout().certify(true);
    let proof = Placement::InProcess.run(&ft, &config, CheckMode::Prove);
    assert_eq!(proof.certificate.hash(), Some(0x232e_99d6_efba_b4e4));

    // The fix-validation rows at depth 6: two bounded checks and a proof.
    let config = CheckConfig::default().depth(6).no_timeout().certify(true);
    let rows = run_campaign(
        "fix",
        fix_validation_tasks(),
        &config,
        &CampaignOptions::off(),
    )
    .expect("campaign without a journal starts")
    .rows;
    let pinned: Vec<(&str, Option<u64>)> = rows
        .iter()
        .map(|r| (r.id.as_str(), r.certificate.hash()))
        .collect();
    assert_eq!(
        pinned,
        [
            ("C1-C3 fixed", Some(0x4075_8728_0a4e_027d)),
            ("M2+M3 fixed", Some(0x8449_e6ce_bd30_c12d)),
            ("A1 refined", Some(0x4e62_86b4_62a8_c0f4)),
        ]
    );
}
