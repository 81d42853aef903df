//! Campaign-runner durability suite: resume serves completed checks from
//! the content-addressed journal, a torn tail re-runs exactly the lost
//! check, configuration drift invalidates the cache, tampered cached
//! CEXs are caught by replay certification, and the supervisor watchdog
//! journals hangs as contained failures that resume skips.

use autocc_bench::{run_campaign, CampaignError, CampaignOptions, CampaignTask};
use autocc_bmc::{
    BmcEngine, CancelToken, CheckConfig, CheckEngine, CheckSpec, EngineRun, FailureReason,
    Granularity, Trace,
};
use autocc_core::{AutoCcOutcome, CovertChannelCex, FpvTestbench, FtSpec, RowStatus};
use autocc_duts::demo::config_device;
use autocc_hdl::Bv;
use autocc_journal::{recover, Journal, JournalEntry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "autocc-campaign-{}-{name}.jsonl",
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

/// Two tasks over structurally different devices, so their content keys
/// differ and each occupies its own journal slot.
fn two_tasks() -> Vec<CampaignTask> {
    vec![
        CampaignTask::check("D1", "leaky config register", "demo:D1", leaky_ft),
        CampaignTask::check("D2", "config register with flush", "demo:D2", flushed_ft),
    ]
}

fn config() -> CheckConfig {
    CheckConfig::default().depth(8).no_timeout()
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
fn resume_serves_every_completed_check_from_the_journal() {
    let path = tmp_journal("resume");
    let config = config();
    let first = run_campaign("demo", two_tasks(), &config, &journaled(&path)).unwrap();
    assert_eq!(first.stats.live, 2);
    assert_eq!(first.stats.cached, 0);
    assert!(first.rows.iter().all(|r| !r.cached));

    let second = run_campaign("demo", two_tasks(), &config, &resuming(&path)).unwrap();
    assert_eq!(second.stats.cached, 2, "both checks replay from the cache");
    assert_eq!(second.stats.live, 0);
    assert_eq!(second.stats.stale, 0);
    assert!(second.rows.iter().all(|r| r.cached));
    for (a, b) in first.rows.iter().zip(&second.rows) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.outcome, b.outcome, "cached row diverged for {}", a.id);
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.status, b.status);
    }
    // Serving from the cache must not append new records.
    let bytes = std::fs::read(&path).unwrap();
    let recovered = recover(&bytes).unwrap();
    assert_eq!(recovered.entries.len(), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_reruns_exactly_the_lost_check() {
    let path = tmp_journal("torn");
    let config = config();
    run_campaign("demo", two_tasks(), &config, &journaled(&path)).unwrap();

    // Tear mid-record: drop the last few bytes of the final entry.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    let resumed = run_campaign("demo", two_tasks(), &config, &resuming(&path)).unwrap();
    assert_eq!(resumed.stats.cached, 1, "the intact check is served");
    assert_eq!(resumed.stats.live, 1, "exactly the torn check re-runs");
    assert!(resumed.rows.iter().all(|r| r.status == RowStatus::Ok));

    // The journal healed: torn tail truncated, the lost check recommitted.
    let recovered = recover(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(recovered.entries.len(), 2);
    assert_eq!(recovered.torn_bytes, 0);
    assert_eq!(recovered.entries[1].attempt, 1, "torn record never counted");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn existing_journal_without_resume_is_refused() {
    let path = tmp_journal("norflag");
    let config = config();
    run_campaign("demo", two_tasks(), &config, &journaled(&path)).unwrap();
    match run_campaign("demo", two_tasks(), &config, &journaled(&path)) {
        Err(CampaignError::ExistsWithoutResume(p)) => assert_eq!(p, path),
        other => panic!("expected ExistsWithoutResume, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn config_drift_invalidates_the_journal() {
    let path = tmp_journal("drift");
    run_campaign("demo", two_tasks(), &config(), &journaled(&path)).unwrap();
    // A different depth changes the check-relevant fingerprint.
    let drifted = CheckConfig::default().depth(9).no_timeout();
    match run_campaign("demo", two_tasks(), &drifted, &resuming(&path)) {
        Err(CampaignError::FingerprintMismatch { expected, found }) => {
            assert_ne!(expected, found)
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    // A different campaign root is refused even with a matching config.
    match run_campaign("other", two_tasks(), &config(), &resuming(&path)) {
        Err(CampaignError::RootMismatch { expected, found }) => {
            assert_eq!(expected, "other");
            assert_eq!(found, "demo");
        }
        other => panic!("expected RootMismatch, got {other:?}"),
    }
    // `--fresh` discards the stale journal and restarts cleanly.
    let fresh = CampaignOptions {
        fresh: true,
        ..journaled(&path)
    };
    let outcome = run_campaign("demo", two_tasks(), &drifted, &fresh).unwrap();
    assert_eq!(outcome.stats.live, 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tampered_cached_cex_fails_certification_and_reruns() {
    let path = tmp_journal("tamper");
    let config = config();
    let tasks = || {
        vec![CampaignTask::check(
            "D1",
            "leaky register",
            "demo:D1",
            leaky_ft,
        )]
    };
    run_campaign("demo", tasks(), &config, &journaled(&path)).unwrap();

    let recovered = recover(&std::fs::read(&path).unwrap()).unwrap();
    let entry = &recovered.entries[0];
    let AutoCcOutcome::Cex(cex) = &entry.report.outcome else {
        panic!(
            "the leaky device must produce a CEX, got {:?}",
            entry.report.outcome
        );
    };

    // Rewrite the journal with the CEX trace zeroed out: same content key,
    // same shape, but the inputs no longer demonstrate the violation.
    let zeroed: Vec<Vec<Bv>> = (0..cex.trace.len())
        .map(|c| {
            (0..cex.trace.num_ports())
                .map(|p| Bv::new(cex.trace.input(c, p).width(), 0))
                .collect()
        })
        .collect();
    let tampered = JournalEntry {
        report: autocc_core::CheckReport {
            outcome: AutoCcOutcome::Cex(Box::new(CovertChannelCex {
                trace: Trace::new(zeroed),
                ..(**cex).clone()
            })),
            elapsed: entry.report.elapsed,
            stats: entry.report.stats,
            verdicts: entry.report.verdicts.clone(),
            certificate: entry.report.certificate,
        },
        ..entry.clone()
    };
    let mut journal = Journal::create(&path, &recovered.header).unwrap();
    journal.append(&tampered).unwrap();
    drop(journal);

    let resumed = run_campaign("demo", tasks(), &config, &resuming(&path)).unwrap();
    assert_eq!(resumed.stats.stale, 1, "the tampered CEX is rejected");
    assert_eq!(resumed.stats.cached, 0);
    assert_eq!(resumed.stats.live, 1, "the check re-runs live");
    assert_eq!(resumed.rows[0].status, RowStatus::Ok);
    assert!(
        resumed.rows[0].outcome.starts_with("CEX"),
        "the genuine CEX is rediscovered, got {}",
        resumed.rows[0].outcome
    );

    // Provenance: the re-run superseded the tampered record as attempt 2.
    let healed = recover(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(healed.entries.last().unwrap().attempt, 2);
    let _ = std::fs::remove_file(&path);
}

/// Ignores its budget and cancellation for far longer than the watchdog
/// allows, then delegates to the real engine.
struct SleepyEngine {
    sleep: Duration,
}

impl CheckEngine for SleepyEngine {
    fn name(&self) -> &'static str {
        "sleepy"
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        std::thread::sleep(self.sleep);
        BmcEngine.check(spec, config, cancel)
    }
}

#[test]
fn watchdog_journals_hangs_and_resume_skips_them() {
    let path = tmp_journal("hang");
    let config = CheckConfig::default()
        .depth(8)
        .timeout(Duration::from_millis(500));
    let hang_tasks = || {
        vec![
            CampaignTask::check("D1", "leaky register", "demo:D1", leaky_ft).with_engine(Arc::new(
                SleepyEngine {
                    sleep: Duration::from_secs(8),
                },
            )),
        ]
    };
    let options = CampaignOptions {
        hang_factor: 1,
        ..journaled(&path)
    };
    let hung = run_campaign("demo", hang_tasks(), &config, &options).unwrap();
    assert_eq!(hung.stats.hangs, 1);
    assert_eq!(hung.rows[0].status, RowStatus::Failed);

    // The hang was committed as a contained failure with its provenance.
    let recovered = recover(&std::fs::read(&path).unwrap()).unwrap();
    let AutoCcOutcome::Failed { failures } = &recovered.entries[0].report.outcome else {
        panic!(
            "expected a journaled failure, got {:?}",
            recovered.entries[0].report.outcome
        );
    };
    assert_eq!(failures[0].reason, FailureReason::Hang);
    assert_eq!(recovered.entries[0].engine, "watchdog");

    // Plain resume (healthy engine now) serves the failed row — the
    // campaign does not silently retry known-bad checks.
    let live_tasks = || {
        vec![CampaignTask::check(
            "D1",
            "leaky register",
            "demo:D1",
            leaky_ft,
        )]
    };
    let skipped = run_campaign("demo", live_tasks(), &config, &resuming(&path)).unwrap();
    assert_eq!(skipped.stats.cached, 1);
    assert_eq!(skipped.stats.skipped_failed, 1);
    assert_eq!(skipped.stats.live, 0);
    assert_eq!(skipped.rows[0].status, RowStatus::Failed);

    // `--retry-failed` re-runs it and the genuine result supersedes the
    // hang as attempt 2.
    let retry = CampaignOptions {
        retry_failed: true,
        ..resuming(&path)
    };
    let retried = run_campaign("demo", live_tasks(), &config, &retry).unwrap();
    assert_eq!(retried.stats.live, 1);
    assert_eq!(retried.stats.cached, 0);
    assert_eq!(retried.rows[0].status, RowStatus::Ok);
    assert!(
        retried.rows[0].outcome.starts_with("CEX"),
        "got {}",
        retried.rows[0].outcome
    );
    let healed = recover(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(healed.entries.last().unwrap().attempt, 2);
    let _ = std::fs::remove_file(&path);
}

/// A time budget so large that the watchdog's hard limit (budget x
/// hang factor x properties) overflows a `Duration` means no hard limit:
/// every row still gets its answer, task by task and cluster by cluster.
#[test]
fn a_huge_time_budget_disarms_the_watchdog() {
    let huge = Duration::from_secs(u64::MAX);
    let plain = run_campaign(
        "demo",
        two_tasks(),
        &config().timeout(huge),
        &CampaignOptions::off(),
    )
    .unwrap();
    assert!(plain.rows.iter().all(|r| r.status == RowStatus::Ok));
    assert!(plain.rows[0].outcome.starts_with("CEX"));

    let path = tmp_journal("huge-budget");
    let register = || {
        let build = || {
            FtSpec::new(&config_device(false))
                .granularity(Granularity::Register)
                .generate()
        };
        vec![CampaignTask::check(
            "D1",
            "leaky register",
            "demo:D1",
            build,
        )]
    };
    let config = config().timeout(huge).granularity(Granularity::Register);
    let clustered = run_campaign("demo", register(), &config, &journaled(&path)).unwrap();
    assert_eq!(clustered.rows[0].status, RowStatus::Ok);
    assert!(clustered.rows[0].outcome.starts_with("CEX"));
    assert_eq!(clustered.stats.hangs, 0);
    let _ = std::fs::remove_file(&path);
}
