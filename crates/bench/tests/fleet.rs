//! Loopback fleet fault suite: the remote worker fleet must be invisible
//! in the results. A Table 1 campaign dispatched to `worker --connect`
//! subprocesses renders a stable table byte-identical to the in-process
//! run — with healthy workers, with a SIGKILL'd worker, with a
//! connection severed mid-result-frame, and with no workers at all
//! (degradation to local execution). Lease expiry and at-most-once
//! accounting are exercised directly against the supervisor: a late
//! result from a worker whose lease expired after re-assignment is
//! counted as a duplicate and dropped, never double-reported.
//!
//! Every spawned pool injects `CARGO_BIN_EXE_report_table1` as the
//! worker command — the default would re-spawn the test harness itself.

use autocc_bench::{
    run_campaign, table1, table1_tasks, CampaignOptions, Fleet, FleetConfig, FleetEngine,
    WorkerLimits, WorkerPool,
};
use autocc_bmc::{BmcEngine, CancelToken, CheckConfig, CheckEngine, CheckSpec};
use autocc_core::format_table_stable;
use autocc_hdl::{Bv, Module, ModuleBuilder};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn options(max_depth: usize) -> CheckConfig {
    CheckConfig::default().depth(max_depth).no_timeout()
}

/// Spawns a `worker --connect` subprocess against `addr`, optionally
/// staged to die via `AUTOCC_WORKER_FAULT`.
fn spawn_worker(addr: &str, fault: Option<&str>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_report_table1"));
    cmd.args(["worker", "--connect", addr])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .env_remove("AUTOCC_WORKER_FAULT");
    if let Some(fault) = fault {
        cmd.env("AUTOCC_WORKER_FAULT", fault);
    }
    cmd.spawn().expect("spawn remote worker")
}

/// Waits until `n` workers have registered with the fleet.
fn wait_for_workers(fleet: &Fleet, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while fleet.workers_connected() < n {
        assert!(
            Instant::now() < deadline,
            "only {} of {n} workers connected",
            fleet.workers_connected()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reaps worker subprocesses after the fleet shut down; anything still
/// alive after the deadline is killed so the suite never hangs.
fn reap(children: Vec<Child>) {
    let deadline = Instant::now() + Duration::from_secs(20);
    for mut child in children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) | Err(_) => break,
                Ok(None) if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

fn local_pool() -> Arc<WorkerPool> {
    Arc::new(
        WorkerPool::new(WorkerLimits::default()).with_command(env!("CARGO_BIN_EXE_report_table1")),
    )
}

/// Runs the Table 1 campaign against `fleet` and renders it stably.
fn fleet_table1(config: &CheckConfig, fleet: &Arc<Fleet>) -> String {
    let rows = run_campaign(
        "table1",
        table1_tasks(),
        config,
        &CampaignOptions {
            pool: Some(local_pool()),
            fleet: Some(Arc::clone(fleet)),
            ..CampaignOptions::default()
        },
    )
    .expect("fleet campaign starts")
    .rows;
    format_table_stable("Table 1 (fleet check)", &rows)
}

/// Two healthy remote workers answer a Table 1 campaign; the stable
/// table is byte-identical to the in-process run and at least one job
/// actually went remote (the equality is not vacuous).
#[test]
fn table1_over_two_remote_workers_is_byte_identical() {
    let base = options(5).jobs(2);
    let local = format_table_stable("Table 1 (fleet check)", &table1(&base));

    let fleet = Fleet::listen("127.0.0.1:0", FleetConfig::default()).expect("fleet listens");
    let addr = fleet.addr().to_string();
    let workers = vec![spawn_worker(&addr, None), spawn_worker(&addr, None)];
    wait_for_workers(&fleet, 2);

    let remote = fleet_table1(&base, &fleet);
    let stats = fleet.stats();
    fleet.shutdown();
    reap(workers);

    assert_eq!(local, remote, "remote fleet changed Table 1");
    assert!(stats.jobs_remote > 0, "no job went remote: {stats}");
    assert_eq!(stats.workers_peak, 2, "unexpected peak: {stats}");
}

/// The acceptance scenario: one worker is SIGKILL'd on its first job,
/// another severs its connection mid-result-frame, and a third stays
/// healthy. The campaign completes without intervention and the stable
/// table stays byte-identical; the dead workers' jobs were re-assigned.
#[test]
fn table1_survives_sigkill_and_midframe_drop() {
    let base = options(5).jobs(2);
    let local = format_table_stable("Table 1 (fleet check)", &table1(&base));

    let fleet = Fleet::listen("127.0.0.1:0", FleetConfig::default()).expect("fleet listens");
    let addr = fleet.addr().to_string();
    let workers = vec![
        spawn_worker(&addr, Some("sigkill")),
        spawn_worker(&addr, Some("net_drop_result")),
        spawn_worker(&addr, None),
    ];
    wait_for_workers(&fleet, 3);

    let remote = fleet_table1(&base, &fleet);
    let stats = fleet.stats();
    fleet.shutdown();
    reap(workers);

    assert_eq!(local, remote, "worker faults changed Table 1");
    assert!(
        stats.jobs_reassigned >= 1,
        "faulted workers' jobs were never re-assigned: {stats}"
    );
}

/// With no workers ever connecting, every job waits out the fallback
/// grace and degrades to the local pool — same table, zero remote jobs.
#[test]
fn table1_with_empty_fleet_degrades_to_local_workers() {
    let base = options(5);
    let local = format_table_stable("Table 1 (fleet check)", &table1(&base));

    let config = FleetConfig {
        fallback_grace: Duration::from_millis(50),
        ..FleetConfig::default()
    };
    let fleet = Fleet::listen("127.0.0.1:0", config).expect("fleet listens");
    let remote = fleet_table1(&base, &fleet);
    let stats = fleet.stats();
    fleet.shutdown();

    assert_eq!(local, remote, "local degradation changed Table 1");
    assert_eq!(stats.jobs_remote, 0, "phantom remote jobs: {stats}");
    assert!(stats.fallback_jobs > 0, "nothing fell back: {stats}");
}

/// A tiny DUT-shaped module for direct supervisor tests: a counter whose
/// `small` output fails once the count reaches 5, so a depth-8 BMC run
/// deterministically finds a CEX.
fn probe_module() -> Module {
    let mut b = ModuleBuilder::new("probe");
    let inc = b.input("inc", 1);
    let ra = b.reg("a", 4, Bv::zero(4));
    let one = b.lit(4, 1);
    let na = b.add(ra, one);
    let next = b.mux(inc, na, ra);
    b.set_next(ra, next);
    let five = b.lit(4, 5);
    let ok = b.ult(ra, five);
    b.output("small", ok);
    b.build()
}

fn probe_outcome(run: &autocc_bmc::EngineRun) -> String {
    format!("{:?}", run.outcome)
}

/// A socket that connects but never says hello (half-open) must not
/// register as a worker, and a fleet holding only such sockets degrades
/// to local execution after the grace period.
#[test]
fn half_open_socket_never_registers_and_jobs_fall_back() {
    let config = FleetConfig {
        hello_deadline: Duration::from_millis(200),
        fallback_grace: Duration::from_millis(200),
        ..FleetConfig::default()
    };
    let fleet = Fleet::listen("127.0.0.1:0", config).expect("fleet listens");
    let _half_open = std::net::TcpStream::connect(fleet.addr()).expect("connect half-open");
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(fleet.workers_connected(), 0, "half-open socket registered");
    assert_eq!(fleet.stats().workers_seen, 0);

    let module = probe_module();
    let small = module.output_node("small").expect("probe output");
    let spec = CheckSpec {
        module: &module,
        properties: vec![("small".to_string(), small)],
        constraints: Vec::new(),
        blast: None,
    };
    let config = options(8);
    let expected = BmcEngine.check(&spec, &config, &CancelToken::new());

    let engine = FleetEngine::for_check(Arc::clone(&fleet), None);
    let run = engine.check(&spec, &config, &CancelToken::new());
    let stats = fleet.stats();
    fleet.shutdown();

    assert_eq!(probe_outcome(&run), probe_outcome(&expected));
    assert!(stats.fallback_jobs >= 1, "job never fell back: {stats}");
    assert_eq!(stats.jobs_remote, 0);
}

/// At-most-once accounting under lease expiry: a `net_slow` worker
/// claims the job and holds its result past a 300 ms lease while
/// heartbeating; the lease expires, the job is re-assigned to a healthy
/// worker that arrives later, and the slow worker's eventual result —
/// now from a stale generation — is dropped as a counted duplicate. The
/// answer delivered to the caller is the healthy worker's, identical to
/// the in-process run.
#[test]
fn late_result_after_lease_expiry_is_dropped_as_duplicate() {
    // A 300 ms lease from the lease formula: a 300 ms time budget x
    // lease factor 1 x one property.
    let config = FleetConfig {
        lease_factor: 1,
        fallback_grace: Duration::from_secs(30),
        ..FleetConfig::default()
    };
    let fleet = Fleet::listen("127.0.0.1:0", config).expect("fleet listens");
    let addr = fleet.addr().to_string();

    let slow = spawn_worker(&addr, Some("net_slow:4000"));
    wait_for_workers(&fleet, 1);
    // The healthy worker arrives only after the slow one has claimed
    // the job and its lease has expired.
    let healthy_handle = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(900));
            spawn_worker(&addr, None)
        })
    };

    let module = probe_module();
    let small = module.output_node("small").expect("probe output");
    let spec = CheckSpec {
        module: &module,
        properties: vec![("small".to_string(), small)],
        constraints: Vec::new(),
        blast: None,
    };
    let check_config = options(8).timeout(Duration::from_millis(300));
    let expected = BmcEngine.check(&spec, &check_config, &CancelToken::new());

    let engine = FleetEngine::for_check(Arc::clone(&fleet), None);
    let run = engine.check(&spec, &check_config, &CancelToken::new());
    assert_eq!(probe_outcome(&run), probe_outcome(&expected));

    // The slow worker's late result lands ~4 s after dispatch; wait for
    // the at-most-once ledger to count it.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let stats = fleet.stats();
        if stats.duplicate_results >= 1 {
            assert!(stats.leases_expired >= 1, "lease never expired: {stats}");
            assert!(stats.jobs_reassigned >= 1, "job never re-assigned: {stats}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "late result never counted as duplicate: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let healthy = healthy_handle.join().expect("healthy spawner");
    fleet.shutdown();
    reap(vec![slow, healthy]);
}
