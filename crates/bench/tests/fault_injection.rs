//! Fault-injection suite for the resilient check path: engines that
//! panic, hang past their wall-clock budget, or fabricate counterexamples
//! must each degrade a single property — never tear down the run, never
//! smuggle an uncertified CEX into a report, and never perturb the
//! deterministic `jobs = 1` vs `jobs = N` merge.

use autocc_bench::{
    run_campaign, CampaignOptions, CampaignTask, ProcEngine, WorkerLimits, WorkerPool,
};
use autocc_bmc::{
    BmcEngine, CancelToken, Cex, CheckConfig, CheckEngine, CheckSpec, EachRun, EngineOutcome,
    EngineRun, FailureReason, Granularity, Trace, UnknownCause,
};
use autocc_core::{report_exit_code, AutoCcOutcome, FtSpec, PropertyVerdict, RowStatus};
use autocc_duts::aes::{build_aes, AesConfig};
use autocc_duts::demo::config_device;
use autocc_hdl::{Bv, Module, ModuleBuilder};
use autocc_telemetry::{ProfileRecorder, SpanKind, Telemetry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn options(max_depth: usize) -> CheckConfig {
    CheckConfig::default().depth(max_depth).no_timeout()
}

/// Panics the first `panics_per_property` attempts on every property it is
/// handed, then delegates to the real BMC engine. Counters are keyed by
/// property name, so the injected faults are identical for every worker
/// count and scheduling order.
struct FlakyBmc {
    panics_per_property: u32,
    attempts: Mutex<HashMap<String, u32>>,
}

impl FlakyBmc {
    fn new(panics_per_property: u32) -> FlakyBmc {
        FlakyBmc {
            panics_per_property,
            attempts: Mutex::new(HashMap::new()),
        }
    }
}

impl CheckEngine for FlakyBmc {
    fn name(&self) -> &'static str {
        "flaky-bmc"
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        let key = spec
            .properties
            .first()
            .map(|(n, _)| n.clone())
            .unwrap_or_default();
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap();
            let count = attempts.entry(key).or_insert(0);
            *count += 1;
            *count
        };
        if attempt <= self.panics_per_property {
            panic!("injected fault (attempt {attempt})");
        }
        BmcEngine.check(spec, config, cancel)
    }
}

/// Panics unconditionally on one named property; real BMC everywhere else.
/// A shared run holds every property, so it panics too and the check
/// falls back to one job per property.
struct TargetedPanic {
    property: String,
}

impl TargetedPanic {
    fn strike(&self, spec: &CheckSpec<'_>) {
        if spec.properties.iter().any(|(n, _)| *n == self.property) {
            panic!("injected fault on {}", self.property);
        }
    }
}

impl CheckEngine for TargetedPanic {
    fn name(&self) -> &'static str {
        "targeted-panic"
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        self.strike(spec);
        BmcEngine.check(spec, config, cancel)
    }

    fn check_each(
        &self,
        spec: &CheckSpec<'_>,
        config: &CheckConfig,
        cancel: &CancelToken,
    ) -> Option<EachRun> {
        self.strike(spec);
        BmcEngine.check_each(spec, config, cancel)
    }
}

/// Real BMC whose shared run always panics.
struct SharedRunPanics;

impl CheckEngine for SharedRunPanics {
    fn name(&self) -> &'static str {
        "shared-run-panics"
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        BmcEngine.check(spec, config, cancel)
    }

    fn check_each(
        &self,
        _spec: &CheckSpec<'_>,
        _config: &CheckConfig,
        _cancel: &CancelToken,
    ) -> Option<EachRun> {
        panic!("injected fault in the shared run");
    }
}

/// Claims a counterexample it never found: an all-zero input trace that
/// replays clean. Certification must reject it.
struct CorruptCexEngine;

impl CheckEngine for CorruptCexEngine {
    fn name(&self) -> &'static str {
        "corrupt-cex"
    }

    fn check(
        &self,
        spec: &CheckSpec<'_>,
        _config: &CheckConfig,
        _cancel: &CancelToken,
    ) -> EngineRun {
        let depth = 3;
        let cycle: Vec<Bv> = spec
            .module
            .inputs()
            .iter()
            .map(|p| Bv::zero(p.width))
            .collect();
        EngineOutcome::Cex(Cex {
            property: spec.properties[0].0.clone(),
            depth,
            trace: Trace::new(vec![cycle; depth]),
        })
        .into()
    }
}

/// Fabricates a counterexample, as [`CorruptCexEngine`] does, for every
/// job whose first property is `property`; real BMC everywhere else.
struct FabricatesFor {
    property: String,
}

impl CheckEngine for FabricatesFor {
    fn name(&self) -> &'static str {
        "fabricates-for"
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        if spec.properties[0].0 == self.property {
            CorruptCexEngine.check(spec, config, cancel)
        } else {
            BmcEngine.check(spec, config, cancel)
        }
    }
}

/// Two outputs that both read the leaky config register, so each of the
/// two properties has a genuine counterexample at the same depth.
fn two_leak_device() -> Module {
    let mut b = ModuleBuilder::new("two_leak");
    let we = b.input("we", 1);
    let re = b.input("re", 1);
    let data = b.input("data", 8);
    let cfg = b.reg("cfg", 8, Bv::zero(8));
    let next = b.mux(we, data, cfg);
    b.set_next(cfg, next);
    let zero = b.lit(8, 0);
    let q = b.mux(re, cfg, zero);
    let q2 = b.mux(re, cfg, zero);
    b.output("q", q);
    b.output("q2", q2);
    b.build()
}

/// A combinational two-output pass-through: outputs depend only on the
/// current (converged) inputs, so the testbench is clean — which makes the
/// fate of every individual property visible in the merged outcome.
fn mirror_device() -> Module {
    let mut b = ModuleBuilder::new("mirror2");
    let a = b.input("a", 4);
    let c = b.input("c", 4);
    b.output("pa", a);
    b.output("pc", c);
    b.build()
}

/// The leaky config register plus a clean pass-through output: one
/// property has a genuine CEX, the other is clean.
fn leaky_pair_device() -> Module {
    let mut b = ModuleBuilder::new("leaky2");
    let we = b.input("we", 1);
    let re = b.input("re", 1);
    let data = b.input("data", 4);
    let cfg = b.reg("cfg", 4, Bv::zero(4));
    let next = b.mux(we, data, cfg);
    b.set_next(cfg, next);
    let zero = b.lit(4, 0);
    let q = b.mux(re, cfg, zero);
    b.output("q", q);
    b.output("mirror", data);
    b.build()
}

#[test]
fn panicking_job_degrades_only_its_property() {
    let dut = mirror_device();
    let ft = FtSpec::new(&dut).generate();
    let config = options(6);
    let engine = TargetedPanic {
        property: "as__pa_eq".to_string(),
    };
    let report = ft.check_portfolio_with(&config, &engine);
    match report.outcome {
        AutoCcOutcome::Failed { failures } => {
            assert_eq!(failures.len(), 1, "only the injected property fails");
            let f = &failures[0];
            assert_eq!(f.property.as_deref(), Some("as__pa_eq"));
            assert_eq!(f.reason, FailureReason::Panic);
            assert_eq!(f.attempts, 2, "default policy retries a panic once");
            assert!(
                f.detail.contains("injected fault"),
                "panic payload is preserved: {}",
                f.detail
            );
        }
        other => panic!("expected a contained failure, got {other:?}"),
    }
}

/// A panic in the shared run of a monolithic check is contained and
/// recorded on its attempt span, and the check falls back to one job per
/// property: it answers exactly as the healthy shared run does (the CEX
/// trace aside, which the two solvers may pick differently).
#[test]
fn a_panicking_shared_run_falls_back_to_the_singleton_jobs() {
    let answers = |outcome: &AutoCcOutcome| match outcome {
        AutoCcOutcome::Cex(cex) => format!("CEX {} @ {}", cex.property, cex.depth),
        other => format!("{other:?}"),
    };
    for dut in [config_device(false), two_leak_device(), mirror_device()] {
        let ft = FtSpec::new(&dut).generate();
        let healthy = ft.check_portfolio(&options(12));
        let recorder = Arc::new(ProfileRecorder::new());
        let mut config = options(12);
        config.telemetry = Telemetry::root(recorder.clone(), "fallback");
        let report = ft.check_portfolio_with(&config, &SharedRunPanics);
        assert_eq!(answers(&report.outcome), answers(&healthy.outcome));
        assert_eq!(report.verdicts, healthy.verdicts);
        let profile = recorder.profile();
        let panicked: Vec<_> = profile
            .spans
            .iter()
            .filter(|s| {
                s.kind == SpanKind::Attempt && s.gauges.iter().any(|(k, _)| k == "panicked")
            })
            .collect();
        assert_eq!(
            panicked.len(),
            1,
            "the shared run's attempt records its panic"
        );
        assert_eq!(panicked[0].name, "shared-run-panics");
    }
}

#[test]
fn panicked_job_recovers_through_retries() {
    let dut = config_device(false);
    let ft = FtSpec::new(&dut).generate();
    let config = options(12);
    let baseline = ft.check_portfolio(&config);
    let baseline_cex = baseline.outcome.cex().expect("cfg register leaks");

    // One injected panic per property; the default policy's single retry
    // recovers and the run ends exactly where the healthy run does.
    let flaky = FlakyBmc::new(1);
    let report = ft.check_portfolio_with(&config, &flaky);
    let cex = report
        .outcome
        .cex()
        .expect("retry recovers the genuine counterexample");
    assert_eq!(cex.property, baseline_cex.property);
    assert_eq!(cex.depth, baseline_cex.depth);
}

#[test]
fn spent_retries_degrade_to_failed_not_panic() {
    let dut = config_device(false);
    let ft = FtSpec::new(&dut).generate();
    let config = options(12).retries(2);
    let flaky = FlakyBmc::new(10); // more faults than retries
    let report = ft.check_portfolio_with(&config, &flaky);
    match report.outcome {
        AutoCcOutcome::Failed { failures } => {
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].reason, FailureReason::Panic);
            assert_eq!(failures[0].attempts, 3, "initial attempt + 2 retries");
        }
        other => panic!("expected a contained failure, got {other:?}"),
    }
}

#[test]
fn corrupt_cex_is_rejected_by_replay_certification() {
    let dut = config_device(false);
    let ft = FtSpec::new(&dut).generate();
    let config = options(12);
    let report = ft.check_portfolio_with(&config, &CorruptCexEngine);
    match report.outcome {
        AutoCcOutcome::Failed { failures } => {
            assert!(!failures.is_empty());
            let f = &failures[0];
            assert_eq!(f.reason, FailureReason::ReplayMismatch);
            assert_eq!(f.engine, "certify");
            assert_eq!(f.property.as_deref(), Some("as__q_eq"));
        }
        other => panic!("a fabricated CEX must never be reported, got {other:?}"),
    }
    // A CEX that failed replay claims nothing in the verdict map either.
    assert!(!report.verdicts.is_empty());
    for (name, verdict) in &report.verdicts {
        assert_eq!(*verdict, PropertyVerdict::Failed, "{name}");
    }
}

/// One property's fabricated CEX fails replay; the other property's CEX is
/// genuine. Every job's CEX is replayed on its own, so the row reports the
/// genuine one — at monolithic granularity as at register granularity —
/// and the fabricated one only marks its own property failed.
#[test]
fn a_rejected_cex_beside_a_genuine_one_reports_the_genuine_one() {
    let dut = two_leak_device();
    let engine = FabricatesFor {
        property: "as__q_eq".to_string(),
    };
    for granularity in [Granularity::Monolithic, Granularity::Register] {
        let ft = FtSpec::new(&dut).granularity(granularity).generate();
        let config = options(12).granularity(granularity);
        let report = ft.check_portfolio_with(&config, &engine);
        let cex = report.outcome.cex().unwrap_or_else(|| {
            panic!(
                "{granularity}: the genuine CEX must be reported, got {:?}",
                report.outcome
            )
        });
        assert_eq!((cex.property.as_str(), cex.depth), ("as__q2_eq", 7));
        let verdict = |name: &str| {
            report
                .verdicts
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(
            verdict("as__q_eq"),
            Some(PropertyVerdict::Failed),
            "{granularity}"
        );
        assert_eq!(
            verdict("as__q2_eq"),
            Some(PropertyVerdict::Cex { depth: 7 }),
            "{granularity}"
        );
    }
}

#[test]
fn hung_check_is_stopped_by_the_wall_clock_budget() {
    // AES at depth 64 runs for minutes uninterrupted; the in-solver
    // deadline has to stop it mid-solve, not at the next depth boundary.
    let dut = build_aes(&AesConfig::default());
    let ft = FtSpec::new(&dut).generate();
    let config = CheckConfig::default()
        .depth(64)
        .timeout(Duration::from_millis(50));
    let start = Instant::now();
    let report = ft.check_portfolio(&config);
    let elapsed = start.elapsed();
    match report.outcome {
        AutoCcOutcome::Unknown { cause, .. } => {
            assert_eq!(cause, UnknownCause::TimeBudget);
        }
        other => panic!("expected a time-budget degrade, got {other:?}"),
    }
    // Generous bound: the point is "soon after the budget", not "never".
    assert!(
        elapsed < Duration::from_secs(30),
        "hung check ran {elapsed:?} past a 50 ms budget"
    );
}

// ---------------------------------------------------------------------
// Process-isolated workers: deaths the in-process containment cannot
// survive (SIGKILL, abort, runaway memory, wedged heartbeats) must each
// degrade to a contained failure — or recover through a respawn.
// ---------------------------------------------------------------------

/// A pool whose workers are the `report_table1` binary's hidden `worker`
/// subcommand — the same executable the isolated-mode CI job uses.
fn worker_pool(limits: WorkerLimits) -> WorkerPool {
    WorkerPool::new(limits).with_command(env!("CARGO_BIN_EXE_report_table1"))
}

#[test]
fn sigkilled_worker_degrades_to_a_contained_failure() {
    // A SIGKILLed worker, and one that cuts its result frame in half.
    for fault in ["sigkill", "net_drop_result"] {
        let dut = config_device(false);
        let ft = FtSpec::new(&dut).generate();
        let config = options(12).retries(0);
        let pool =
            Arc::new(worker_pool(WorkerLimits::default()).with_env("AUTOCC_WORKER_FAULT", fault));
        let report = ft.check_portfolio_with(&config, &ProcEngine::for_check(pool));
        match report.outcome {
            AutoCcOutcome::Failed { failures } => {
                assert!(!failures.is_empty());
                for f in &failures {
                    assert_eq!(f.reason, FailureReason::WorkerDied, "got: {f}");
                    assert!(
                        f.detail.contains("without a result frame"),
                        "death is diagnosed, not mislabelled: {}",
                        f.detail
                    );
                }
            }
            other => panic!("expected a contained worker death ({fault}), got {other:?}"),
        }
    }
}

#[test]
fn over_memory_worker_is_killed_and_reported() {
    let dut = config_device(false);
    let ft = FtSpec::new(&dut).generate();
    let config = options(12).retries(0);
    let limits = WorkerLimits {
        memory_limit_mb: Some(64),
        heartbeat_ms: 20,
        ..WorkerLimits::default()
    };
    // The fault makes every heartbeat claim ~1 GiB of RSS; the
    // supervisor must kill within one heartbeat of the first report.
    let pool = Arc::new(worker_pool(limits).with_env("AUTOCC_WORKER_FAULT", "rss:1048576"));
    let report = ft.check_portfolio_with(&config, &ProcEngine::for_check(pool));
    match report.outcome {
        AutoCcOutcome::Failed { failures } => {
            assert!(!failures.is_empty());
            for f in &failures {
                assert_eq!(f.reason, FailureReason::MemoryLimit, "got: {f}");
                assert!(f.detail.contains("exceeded"), "detail: {}", f.detail);
            }
        }
        other => panic!("expected a memory-limit kill, got {other:?}"),
    }
}

#[test]
fn stalled_worker_is_reaped_as_hang() {
    let dut = mirror_device();
    let ft = FtSpec::new(&dut).generate();
    let config = options(6).retries(0);
    let limits = WorkerLimits {
        heartbeat_ms: 10,
        stall_factor: 5, // 50 ms of silence = wedged
        ..WorkerLimits::default()
    };
    let pool = Arc::new(worker_pool(limits).with_env("AUTOCC_WORKER_FAULT", "stall"));
    let report = ft.check_portfolio_with(&config, &ProcEngine::for_check(pool));
    match report.outcome {
        AutoCcOutcome::Failed { failures } => {
            assert!(!failures.is_empty());
            for f in &failures {
                assert_eq!(f.reason, FailureReason::Hang, "got: {f}");
                assert!(f.detail.contains("silent"), "detail: {}", f.detail);
            }
        }
        other => panic!("expected a heartbeat-stall kill, got {other:?}"),
    }
}

#[test]
fn worker_death_respawns_and_recovers() {
    let dut = config_device(false);
    let ft = FtSpec::new(&dut).generate();
    let config = options(12); // default policy: one retry
    let baseline = ft.check_portfolio(&config);
    let baseline_cex = baseline.outcome.cex().expect("cfg register leaks");

    // `abort_if:<path>` kills exactly one worker (the flag file is
    // consumed); the respawned worker must requeue and finish the check.
    let flag =
        std::env::temp_dir().join(format!("autocc-fault-respawn-{}.flag", std::process::id()));
    std::fs::write(&flag, b"die once").expect("write flag file");
    let pool = Arc::new(worker_pool(WorkerLimits::default()).with_env(
        "AUTOCC_WORKER_FAULT",
        &format!("abort_if:{}", flag.display()),
    ));
    let report = ft.check_portfolio_with(&config, &ProcEngine::for_check(Arc::clone(&pool)));
    let _ = std::fs::remove_file(&flag);

    let cex = report
        .outcome
        .cex()
        .expect("respawned worker recovers the genuine counterexample");
    assert_eq!(cex.property, baseline_cex.property);
    assert_eq!(cex.depth, baseline_cex.depth);
    assert_eq!(
        pool.quarantined_count(),
        0,
        "a single death must not trip the circuit breaker"
    );
}

#[test]
fn repeated_killer_is_quarantined_and_resume_skips_it() {
    let dir = std::env::temp_dir().join(format!("autocc-fault-quarantine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("run.jsonl");
    let config = options(12).isolate().retries(1);
    let task = || {
        CampaignTask::check("Q1", "worker killer", "demo", || {
            FtSpec::new(&config_device(false)).generate()
        })
    };

    // Every worker aborts: two kills per check trip the default circuit
    // breaker, the row lands FAILED (quarantined), and the campaign's
    // exit code is the soft 3, not the hard 1.
    let killer =
        Arc::new(worker_pool(WorkerLimits::default()).with_env("AUTOCC_WORKER_FAULT", "abort"));
    let outcome = run_campaign(
        "fault-quarantine",
        vec![task()],
        &config,
        &CampaignOptions {
            journal: Some(journal.clone()),
            pool: Some(Arc::clone(&killer)),
            ..CampaignOptions::default()
        },
    )
    .expect("campaign starts");
    assert_eq!(outcome.rows.len(), 1);
    assert_eq!(outcome.rows[0].status, RowStatus::Quarantined);
    assert!(
        outcome.rows[0].outcome.contains("quarantined"),
        "label: {}",
        outcome.rows[0].outcome
    );
    assert!(killer.quarantined_count() >= 1);
    assert_eq!(report_exit_code(&outcome.rows), 3);

    // --resume with a healthy pool: the quarantined row is served from
    // the journal — no live check, no worker spawned for it.
    let healthy = Arc::new(worker_pool(WorkerLimits::default()));
    let resumed = run_campaign(
        "fault-quarantine",
        vec![task()],
        &config,
        &CampaignOptions {
            journal: Some(journal.clone()),
            resume: true,
            pool: Some(Arc::clone(&healthy)),
            ..CampaignOptions::default()
        },
    )
    .expect("resume starts");
    assert_eq!(resumed.stats.cached, 1);
    assert_eq!(resumed.stats.skipped_failed, 1);
    assert_eq!(resumed.stats.live, 0);
    assert_eq!(resumed.rows[0].status, RowStatus::Quarantined);

    // --retry-failed reopens the quarantined check; healthy workers find
    // the genuine counterexample.
    let retried = run_campaign(
        "fault-quarantine",
        vec![task()],
        &config,
        &CampaignOptions {
            journal: Some(journal),
            resume: true,
            retry_failed: true,
            pool: Some(healthy),
            ..CampaignOptions::default()
        },
    )
    .expect("retry starts");
    assert_eq!(retried.stats.live, 1);
    assert_eq!(retried.rows[0].status, RowStatus::Ok);
    assert!(
        retried.rows[0].outcome.starts_with("CEX"),
        "healthy rerun finds the leak: {}",
        retried.rows[0].outcome
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_faults_preserve_jobs_invariance() {
    let dut = leaky_pair_device();
    let ft = FtSpec::new(&dut).generate();

    // Recovered faults: every property panics once, retries recover.
    let outcome = |jobs: usize| {
        let config = options(12).jobs(jobs);
        let flaky = FlakyBmc::new(1);
        format!("{:?}", ft.check_portfolio_with(&config, &flaky).outcome)
    };
    assert_eq!(outcome(1), outcome(4), "recovered faults broke determinism");

    // Unrecovered faults: panics outlast the retries, every property
    // degrades — and the failure list is identical for any worker count.
    let failed = |jobs: usize| {
        let config = options(12).jobs(jobs).retries(1);
        let flaky = FlakyBmc::new(10);
        format!("{:?}", ft.check_portfolio_with(&config, &flaky).outcome)
    };
    assert_eq!(failed(1), failed(4), "contained failures broke determinism");
}
