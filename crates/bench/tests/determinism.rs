//! The portfolio scheduler must be invisible in the results: running the
//! Table 1/Table 2 experiments with `--jobs 4` yields byte-identical
//! stable report output to `--jobs 1`, with and without slicing.
//!
//! Depths are reduced against the report binaries' defaults so the suite
//! stays fast; determinism is about scheduling, not about bound size. The
//! time budget is `None` because wall-clock budgets are inherently
//! load-dependent (the stable table format omits runtimes for the same
//! reason).

use autocc_bench::{
    run_campaign, table1, table1_tasks, table1_tasks_with, table2, CampaignOptions, Fleet,
    FleetConfig, Placement, WorkerLimits, WorkerPool,
};
use autocc_bmc::{
    BmcEngine, CancelToken, CheckConfig, CheckEngine, CheckMode, CheckSpec, EngineRun, Granularity,
};
use autocc_core::{format_table_stable, AutoCcOutcome, CheckReport, FtSpec, PropertyVerdict};
use autocc_hdl::{Bv, Module, ModuleBuilder};
use autocc_telemetry::{ProfileRecorder, SolverCounters, Telemetry};
use std::sync::Arc;

fn options(max_depth: usize) -> CheckConfig {
    CheckConfig::default().depth(max_depth).no_timeout()
}

#[test]
fn table2_is_jobs_invariant() {
    let options = options(7);
    let render = |jobs: usize, slice: bool| {
        let rows = table2(&options.clone().jobs(jobs).slice(slice));
        format_table_stable("Table 2 (determinism check)", &rows)
    };
    let serial = render(1, false);
    assert_eq!(serial, render(4, false), "jobs=4 changed Table 2");
    assert_eq!(
        serial,
        render(4, true),
        "jobs=4 with slicing changed Table 2"
    );
}

/// `--isolate` must be invisible in the results: the same experiments
/// run through subprocess workers render a byte-identical stable table.
/// (This is also why the isolation knobs stay out of `content_key` and
/// `config_fingerprint` — journals interoperate across modes.)
#[test]
fn table1_is_isolation_invariant() {
    let base = options(5);
    let in_process = format_table_stable("Table 1 (isolation check)", &table1(&base));

    let pool = Arc::new(
        WorkerPool::new(WorkerLimits::from_config(&base))
            .with_command(env!("CARGO_BIN_EXE_report_table1")),
    );
    let isolated_rows = run_campaign(
        "table1",
        table1_tasks(),
        &base.isolate(),
        &CampaignOptions {
            pool: Some(pool),
            ..CampaignOptions::default()
        },
    )
    .expect("isolated campaign starts")
    .rows;
    let isolated = format_table_stable("Table 1 (isolation check)", &isolated_rows);
    assert_eq!(in_process, isolated, "--isolate changed Table 1");
}

/// Property decomposition must be invisible in the paper table: running
/// Table 1 at `--granularity register` (hundreds of per-bit attribution
/// properties, clustered and scheduled largest-cone-first) renders a
/// stable table that is byte-identical across `--jobs 1` and `--jobs 4`
/// *and* byte-identical to the monolithic run. Exact-class outcomes alone
/// decide each row; attribution verdicts live in the per-property verdict
/// map, never in the table.
#[test]
fn table1_register_granularity_is_jobs_invariant_and_verdict_equivalent() {
    let title = "Table 1 (granularity check)";
    let base = options(5);
    let render = |granularity: Granularity, jobs: usize| {
        let config = base.clone().granularity(granularity).jobs(jobs);
        let rows = run_campaign(
            "table1",
            table1_tasks_with(granularity),
            &config,
            &CampaignOptions::off(),
        )
        .expect("campaign without a journal cannot fail to start")
        .rows;
        format_table_stable(title, &rows)
    };
    let decomposed_serial = render(Granularity::Register, 1);
    assert_eq!(
        decomposed_serial,
        render(Granularity::Register, 4),
        "jobs=4 changed the decomposed Table 1"
    );
    assert_eq!(
        decomposed_serial,
        render(Granularity::Monolithic, 1),
        "register granularity changed Table 1 verdicts vs monolithic"
    );
}

/// Witness-property parity at a depth where counterexamples actually
/// fire. The M2/M3 maple rows report their CEXs at depth 8 — below that
/// every row is clean and parity is vacuous. This is the regression that
/// motivated singleton exact clusters: a batched exact solve reported
/// whichever member the SAT model happened to violate (`as__fault_eq`)
/// instead of the monolithic winner (`as__noc_req_addr_eq`). Restricted
/// to the maple rows so the suite stays affordable.
#[test]
fn maple_register_granularity_matches_monolithic_cex_witnesses() {
    let title = "Table 1 maple rows (witness parity)";
    let base = options(8);
    let render = |granularity: Granularity| {
        let config = base.clone().granularity(granularity);
        let mut tasks = table1_tasks_with(granularity);
        tasks.retain(|t| t.id.starts_with('M'));
        assert_eq!(tasks.len(), 2, "expected the M2/M3 maple rows");
        let rows = run_campaign("table1-maple", tasks, &config, &CampaignOptions::off())
            .expect("campaign without a journal cannot fail to start")
            .rows;
        format_table_stable(title, &rows)
    };
    let monolithic = render(Granularity::Monolithic);
    eprintln!("{monolithic}");
    assert!(
        monolithic.contains("CEX"),
        "depth 8 must be deep enough to fire the maple CEXs:\n{monolithic}"
    );
    assert_eq!(
        monolithic,
        render(Granularity::Register),
        "register granularity changed a maple CEX witness"
    );
}

#[test]
fn table1_is_jobs_invariant() {
    let options = options(5);
    let render = |jobs: usize, slice: bool| {
        let rows = table1(&options.clone().jobs(jobs).slice(slice));
        format_table_stable("Table 1 (determinism check)", &rows)
    };
    let serial = render(1, false);
    assert_eq!(serial, render(4, false), "jobs=4 changed Table 1");
    assert_eq!(
        serial,
        render(4, true),
        "jobs=4 with slicing changed Table 1"
    );
}

/// The solver's search is pinned, not just its verdicts: the per-row
/// counters of a serial monolithic campaign over three cheap Table-1 rows
/// (CEXs at depths 8, 8 and 9), each row one shared per-property run.
/// Clause-store and propagation rewrites must keep every decision,
/// conflict and learnt clause; a change that alters the search on purpose
/// updates these numbers and says so.
#[test]
fn cheap_table1_rows_pin_the_solver_counters() {
    let config = options(9).jobs(1);
    let mut tasks = table1_tasks_with(Granularity::Monolithic);
    tasks.retain(|t| matches!(t.id.as_str(), "M2" | "M3" | "A1"));
    let rows = run_campaign("table1-counters", tasks, &config, &CampaignOptions::off())
        .expect("campaign without a journal cannot fail to start")
        .rows;
    let got: Vec<(&str, Option<usize>, SolverCounters)> = rows
        .iter()
        .map(|r| {
            let stats = r.stats.expect("a live row carries its solver counters");
            (r.id.as_str(), r.depth, stats)
        })
        .collect();
    let counters = |solve_calls, conflicts, decisions, propagations, restarts, learnt_clauses| {
        SolverCounters {
            solve_calls,
            conflicts,
            decisions,
            propagations,
            restarts,
            learnt_clauses,
            deleted_clauses: 0,
        }
    };
    assert_eq!(
        got,
        vec![
            ("M2", Some(8), counters(52, 386, 17_681, 358_827, 0, 371)),
            ("M3", Some(8), counters(52, 517, 18_296, 402_488, 2, 502)),
            (
                "A1",
                Some(9),
                counters(18, 1_049, 31_417, 1_449_131, 6, 1_048)
            ),
        ]
    );
}

/// [`BmcEngine`] without its shared run: it answers one spec per call, so
/// a monolithic check runs one singleton job per property.
struct OneSpecPerCall;

impl CheckEngine for OneSpecPerCall {
    fn name(&self) -> &'static str {
        "bmc"
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        BmcEngine.check(spec, config, cancel)
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

/// What a report answers, apart from the trace that backs a CEX: the
/// outcome with its witness property and depth, and the verdict map.
fn answers(report: &CheckReport) -> (String, Vec<(String, PropertyVerdict)>) {
    let outcome = match &report.outcome {
        AutoCcOutcome::Cex(cex) => format!("CEX {} @ {}", cex.property, cex.depth),
        other => format!("{other:?}"),
    };
    (outcome, report.verdicts.clone())
}

/// The shared per-property run answers a monolithic check exactly as one
/// singleton job per property does: the same outcome, the same witness
/// and the same verdict map, on the cheap Table-1 rows at depth 9 (CEXs
/// at 8, 8 and 9) and on a device whose two properties leak at the same
/// depth (the witness is the lower property index).
#[test]
fn shared_run_answers_as_the_singleton_jobs() {
    let config = options(9);
    let mut tasks = table1_tasks_with(Granularity::Monolithic);
    tasks.retain(|t| matches!(t.id.as_str(), "M2" | "M3" | "A1"));
    assert_eq!(tasks.len(), 3);
    let mut testbenches: Vec<(String, _)> = tasks
        .into_iter()
        .map(|task| (task.id, (task.build)()))
        .collect();
    testbenches.push((
        "two-leak".to_string(),
        FtSpec::new(&two_leak_device()).generate(),
    ));
    for (id, ft) in &testbenches {
        let shared = ft.check_portfolio(&config);
        let singleton = ft.check_portfolio_with(&config, &OneSpecPerCall);
        assert!(shared.outcome.cex().is_some(), "{id}: {:?}", shared.outcome);
        assert_eq!(answers(&shared), answers(&singleton), "{id}");
    }
}

/// [`BmcEngine`] on a blast of its own: it drops the blast a spec carries,
/// so every cluster job blasts the miter itself. It is the reference the
/// shared blast must match.
struct OwnBlast;

impl CheckEngine for OwnBlast {
    fn name(&self) -> &'static str {
        "bmc"
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        let spec = CheckSpec {
            blast: None,
            ..spec.clone()
        };
        BmcEngine.check(&spec, config, cancel)
    }
}

/// A decomposed check blasts its miter once, for the plan, and its
/// in-process cluster jobs check on that blast. They must answer exactly
/// as jobs that blast for themselves: the same outcome, witness, verdict
/// map and solver counters, on Table-1 rows M2 and A1 and on the
/// two-leak device at register granularity and depth 5. The counters are
/// pinned too, so the search the shared blast feeds is the one the
/// per-job blasts fed. A profile of such a check holds one `bit-blast`
/// span and one `cnf-encode` span per cluster per depth.
#[test]
fn shared_blast_answers_as_per_job_blasts() {
    let config = options(5).granularity(Granularity::Register);
    let mut tasks = table1_tasks_with(Granularity::Register);
    tasks.retain(|t| matches!(t.id.as_str(), "M2" | "A1"));
    assert_eq!(tasks.len(), 2);
    let mut testbenches: Vec<(String, _)> = tasks
        .into_iter()
        .map(|task| (task.id, (task.build)()))
        .collect();
    testbenches.push((
        "two-leak".to_string(),
        FtSpec::new(&two_leak_device())
            .granularity(Granularity::Register)
            .generate(),
    ));
    let counters =
        |solve_calls, conflicts, decisions, propagations, learnt_clauses| SolverCounters {
            solve_calls,
            conflicts,
            decisions,
            propagations,
            restarts: 0,
            learnt_clauses,
            deleted_clauses: 0,
        };
    let pinned = [
        counters(55, 0, 0, 7_970, 0),
        counters(310, 179, 247, 130_540, 102),
        counters(50, 10, 10, 2_982, 0),
    ];
    for ((id, ft), pinned) in testbenches.iter().zip(pinned) {
        let shared = ft.check_portfolio(&config);
        let own = ft.check_portfolio_with(&config, &OwnBlast);
        assert_eq!(answers(&shared), answers(&own), "{id}");
        assert_eq!(shared.stats, own.stats, "{id}");
        assert_eq!(shared.stats, pinned, "{id}");

        let recorder = Arc::new(ProfileRecorder::new());
        let mut traced = config.clone();
        traced.telemetry = Telemetry::root(recorder.clone(), id);
        ft.check_portfolio(&traced);
        let spans = recorder.profile().spans;
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        let clusters = ft.cluster_plan(&config).expect("decomposed").clusters.len();
        assert_eq!(count("bit-blast"), 1, "{id}: one blast per check");
        assert_eq!(count("cnf-encode"), clusters * 5, "{id}");
    }
}

/// [`BmcEngine`] posing as an engine that answers in another process: it
/// must never be handed a blast, since a worker blasts what it is sent.
struct Remote;

impl CheckEngine for Remote {
    fn name(&self) -> &'static str {
        "bmc"
    }

    fn in_process(&self) -> bool {
        false
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        assert!(spec.blast.is_none(), "a remote job was handed a blast");
        BmcEngine.check(spec, config, cancel)
    }
}

/// A decomposed check releases its plan's blast before the jobs of an
/// engine that answers in another process start, and still answers as
/// the in-process check does. The engines of the isolated and the fleet
/// placements say they answer elsewhere; the in-process ones, the BMC
/// falsifier of a proof race included, say they do not.
#[test]
fn engines_in_other_processes_get_no_blast() {
    let config = options(9).granularity(Granularity::Register);
    let ft = FtSpec::new(&two_leak_device())
        .granularity(Granularity::Register)
        .generate();
    assert!(ft.cluster_plan(&config).expect("decomposed").clusters.len() > 1);
    let remote = ft.check_portfolio_with(&config, &Remote);
    let local = ft.check_portfolio(&config);
    assert!(remote.outcome.cex().is_some(), "{:?}", remote.outcome);
    assert_eq!(answers(&remote), answers(&local));
    assert_eq!(remote.stats, local.stats);

    let pool = Arc::new(WorkerPool::new(WorkerLimits::default()));
    let fleet = Fleet::listen("127.0.0.1:0", FleetConfig::default()).expect("fleet listens");
    let placements = [
        (Placement::InProcess, true),
        (Placement::Isolated(Arc::clone(&pool)), false),
        (Placement::Fleet(Arc::clone(&fleet), Some(pool)), false),
    ];
    for (placement, in_process) in &placements {
        let engines = placement
            .engines(CheckMode::Check, 1)
            .into_iter()
            .chain(placement.engines(CheckMode::Prove, 2));
        for engine in engines {
            assert_eq!(engine.in_process(), *in_process, "{}", engine.name());
        }
    }
    fleet.shutdown();
}
