//! Canonical testbench configurations for every experiment in the paper's
//! evaluation, shared by the report binaries and the Criterion benches.
//!
//! Every runner takes one [`CheckConfig`]: depth/budgets plus execution
//! knobs (jobs, slicing, retries) plus the telemetry handle. Parallelism
//! is *across* experiments — each runner opens a [`SpanKind::Experiment`]
//! span and forces `jobs = 1` inside it, so the table functions fan whole
//! experiments over `config.jobs` workers while each experiment checks
//! its properties serially. Jobs only change wall-clock behaviour:
//! results merge in submission order, so any `jobs` value produces the
//! same rows.

use crate::campaign::{run_campaign, CampaignOptions, CampaignTask};
use autocc_bmc::{CheckConfig, Granularity};
use autocc_core::{CheckReport, FpvTestbench, FtSpec, MonitorHandles, TableRow};
use autocc_duts::aes::{build_aes, stage_valid_names, AesConfig};
use autocc_duts::cva6::{build_cva6, Cva6Config, ARCH_REGS};
use autocc_duts::maple::{build_maple, MapleConfig};
use autocc_duts::vscale::{arch, build_vscale, VscaleConfig};
use autocc_hdl::{Instance, Module, ModuleBuilder, NodeId};
use autocc_telemetry::SpanKind;
use std::time::Duration;

/// Default config for CEX-hunting runs: serial, unsliced, 30-minute
/// wall-clock budget per check job.
pub fn default_options(max_depth: usize) -> CheckConfig {
    CheckConfig::default()
        .depth(max_depth)
        .timeout(Duration::from_secs(1800))
}

/// Runs one experiment under its own [`SpanKind::Experiment`] span with
/// properties checked serially (the schedulers above parallelise across
/// experiments, never inside one).
fn with_experiment(
    config: &CheckConfig,
    name: &str,
    run: impl FnOnce(&CheckConfig) -> CheckReport,
) -> CheckReport {
    let span = config.telemetry.child(SpanKind::Experiment, name);
    let mut scoped = config.clone().jobs(1);
    scoped.telemetry = span.clone();
    let report = run(&scoped);
    span.close();
    report
}

// ---------------------------------------------------------------------
// Vscale (Table 2)
// ---------------------------------------------------------------------

/// One stage of the Vscale refinement ladder.
pub struct VscaleStage {
    /// Paper id (`V1`, `V3/V4`, `V5`, `V2`, `—`).
    pub id: &'static str,
    /// Table-2 description.
    pub description: &'static str,
    /// Arch-state refinement level (0..=4) applied before the run.
    pub level: usize,
    /// Whether the CSR is blackboxed at this stage.
    pub blackbox_csr: bool,
}

/// The five stages of the Table-2 ladder, in discovery order.
pub const VSCALE_STAGES: [VscaleStage; 5] = [
    VscaleStage {
        id: "V1",
        description: "Jump/store consumes stale register file",
        level: 0,
        blackbox_csr: false,
    },
    VscaleStage {
        id: "V3/V4",
        description: "PC/valid pipeline registers differ",
        level: 1,
        blackbox_csr: false,
    },
    VscaleStage {
        id: "V5",
        description: "Pending interrupt from victim fires for spy",
        level: 2,
        blackbox_csr: false,
    },
    VscaleStage {
        id: "V2",
        description: "Jump to address read from CSR",
        level: 3,
        blackbox_csr: false,
    },
    VscaleStage {
        id: "proof",
        description: "Fully refined testbench (blackboxed CSR)",
        level: 4,
        blackbox_csr: true,
    },
];

/// Builds the Vscale testbench for a ladder stage (the check itself runs
/// separately — see [`run_vscale_stage`] / [`table2_tasks`]).
pub fn vscale_stage_testbench(stage: &VscaleStage) -> FpvTestbench {
    vscale_stage_testbench_with(stage, Granularity::Monolithic)
}

/// [`vscale_stage_testbench`] at an explicit property granularity.
pub fn vscale_stage_testbench_with(stage: &VscaleStage, granularity: Granularity) -> FpvTestbench {
    let dut = build_vscale(&VscaleConfig {
        blackbox_csr: stage.blackbox_csr,
        ..VscaleConfig::default()
    });
    let mut spec = FtSpec::new(&dut).granularity(granularity);
    if stage.level >= 1 {
        spec = spec.arch_mem(arch::REGFILE_MEM);
    }
    if stage.level >= 2 {
        for r in arch::PIPELINE_REGS {
            spec = spec.arch_reg(r);
        }
    }
    if stage.level >= 3 {
        for r in arch::INT_REGS {
            spec = spec.arch_reg(r);
        }
    }
    if stage.level >= 4 {
        spec = spec.state_equality_invariants();
    }
    spec.generate()
}

/// Builds the Vscale FT for a ladder stage and runs it through the check
/// engines.
pub fn run_vscale_stage(stage: &VscaleStage, config: &CheckConfig) -> CheckReport {
    with_experiment(config, &format!("vscale:{}", stage.id), |config| {
        let ft = vscale_stage_testbench(stage);
        if stage.level >= 4 {
            ft.prove(config)
        } else {
            ft.check_portfolio(config)
        }
    })
}

/// The Table-2 ladder as campaign tasks, one per stage.
pub fn table2_tasks() -> Vec<CampaignTask> {
    table2_tasks_with(Granularity::Monolithic)
}

/// [`table2_tasks`] at an explicit property granularity: the testbenches
/// emit their property sets (and, at `register`, the observer monitor and
/// attribution assertions) to match.
pub fn table2_tasks_with(granularity: Granularity) -> Vec<CampaignTask> {
    VSCALE_STAGES
        .iter()
        .map(|stage| {
            let span = format!("vscale:{}", stage.id);
            let build = move || vscale_stage_testbench_with(stage, granularity);
            if stage.level >= 4 {
                CampaignTask::prove(stage.id, stage.description, span, build)
            } else {
                CampaignTask::check(stage.id, stage.description, span, build)
            }
        })
        .collect()
}

/// Regenerates Table 2 (the Vscale ladder), fanning the stages across
/// `config.jobs` portfolio workers.
pub fn table2(config: &CheckConfig) -> Vec<TableRow> {
    run_campaign("table2", table2_tasks(), config, &CampaignOptions::off())
        .expect("campaign without a journal cannot fail to start")
        .rows
}

// ---------------------------------------------------------------------
// MAPLE (Table 1 rows M2, M3; refinement M1)
// ---------------------------------------------------------------------

/// flush_done: the invalidation completes in both universes this cycle.
pub fn maple_flush_done(b: &mut ModuleBuilder, ua: &Instance, ub: &Instance) -> NodeId {
    let da = ua.outputs["inv_done"];
    let db = ub.outputs["inv_done"];
    b.and(da, db)
}

/// The M1 refinement assumption: the NoC output buffer is empty while the
/// invalidation is in progress.
pub fn maple_assume_obuf_empty(
    b: &mut ModuleBuilder,
    ua: &Instance,
    ub: &Instance,
    _mon: &MonitorHandles,
) -> NodeId {
    let zero = b.lit(2, 0);
    let inv_a = b.read_reg(ua.regs["inv_state"]);
    let act_a = b.ne(inv_a, zero);
    let inv_b = b.read_reg(ub.regs["inv_state"]);
    let act_b = b.ne(inv_b, zero);
    let active = b.or(act_a, act_b);
    let ea = b.read_reg(ua.regs["obuf_valid"]);
    let eb = b.read_reg(ub.regs["obuf_valid"]);
    let full = b.or(ea, eb);
    let empty = b.not(full);
    let idle = b.not(active);
    b.or(idle, empty)
}

/// Builds the MAPLE testbench with the M1 assumption in place.
pub fn maple_testbench(config: &MapleConfig) -> FpvTestbench {
    maple_testbench_with(config, Granularity::Monolithic)
}

/// [`maple_testbench`] at an explicit property granularity.
pub fn maple_testbench_with(config: &MapleConfig, granularity: Granularity) -> FpvTestbench {
    let dut = build_maple(config);
    FtSpec::new(&dut)
        .granularity(granularity)
        .flush_done(maple_flush_done)
        .assume(maple_assume_obuf_empty)
        .generate()
}

/// Builds the MAPLE testbench *without* the M1 assumption.
pub fn maple_m1_testbench() -> FpvTestbench {
    let dut = build_maple(&MapleConfig::default());
    FtSpec::new(&dut).flush_done(maple_flush_done).generate()
}

/// Runs the MAPLE testbench with the M1 assumption in place.
pub fn run_maple(config: &MapleConfig, check: &CheckConfig) -> CheckReport {
    with_experiment(check, "maple", |check| {
        maple_testbench(config).check_portfolio(check)
    })
}

/// Runs the MAPLE testbench *without* the M1 assumption (the first CEX).
pub fn run_maple_m1(check: &CheckConfig) -> CheckReport {
    with_experiment(check, "maple-m1", |check| {
        maple_m1_testbench().check_portfolio(check)
    })
}

// ---------------------------------------------------------------------
// CVA6 (Table 1 rows C1–C3; known full-flush channels)
// ---------------------------------------------------------------------

/// flush_done: `fence.t` completes in both universes this cycle.
pub fn cva6_flush_done(b: &mut ModuleBuilder, ua: &Instance, ub: &Instance) -> NodeId {
    let da = ua.outputs["fence_done"];
    let db = ub.outputs["fence_done"];
    b.and(da, db)
}

/// Builds the CVA6 frontend testbench for a given configuration.
pub fn cva6_testbench(config: &Cva6Config) -> FpvTestbench {
    cva6_testbench_with(config, Granularity::Monolithic)
}

/// [`cva6_testbench`] at an explicit property granularity.
pub fn cva6_testbench_with(config: &Cva6Config, granularity: Granularity) -> FpvTestbench {
    let dut = build_cva6(config);
    let mut spec = FtSpec::new(&dut)
        .granularity(granularity)
        .flush_done(cva6_flush_done);
    for r in ARCH_REGS {
        spec = spec.arch_reg(r);
    }
    spec.generate()
}

/// Runs the CVA6 frontend testbench for a given configuration.
pub fn run_cva6(config: &Cva6Config, check: &CheckConfig) -> CheckReport {
    with_experiment(check, "cva6", |check| {
        cva6_testbench(config).check_portfolio(check)
    })
}

/// Per-CEX configurations, isolating each channel as the paper's
/// fix-then-continue workflow does.
pub fn cva6_cex_config(which: &str) -> Cva6Config {
    match which {
        "C1" => Cva6Config {
            fix_c2: true,
            fix_c3: true,
            ..Cva6Config::microreset()
        },
        "C2" => Cva6Config {
            fix_c1: true,
            fix_c3: false,
            ..Cva6Config::microreset()
        },
        "C3" => Cva6Config {
            fix_c1: true,
            fix_c2: true,
            ..Cva6Config::microreset()
        },
        _ => panic!("unknown CVA6 CEX {which}"),
    }
}

// ---------------------------------------------------------------------
// AES (Table 1 row A1; full proof)
// ---------------------------------------------------------------------

/// Builds the default AES testbench (the one that finds A1).
pub fn aes_a1_testbench() -> FpvTestbench {
    aes_a1_testbench_with(Granularity::Monolithic)
}

/// [`aes_a1_testbench`] at an explicit property granularity.
pub fn aes_a1_testbench_with(granularity: Granularity) -> FpvTestbench {
    let dut = build_aes(&AesConfig::default());
    FtSpec::new(&dut).granularity(granularity).generate()
}

/// Builds the refined AES testbench used for the full proof:
/// idle-pipeline flush condition plus the Sec.-4.4 strengthening
/// invariants.
pub fn aes_proof_testbench() -> FpvTestbench {
    let config = AesConfig::default();
    let dut = build_aes(&config);
    let idle_names = stage_valid_names(&config);
    let idle = move |b: &mut ModuleBuilder, ua: &Instance, ub: &Instance| -> NodeId {
        let mut all = Vec::new();
        for name in &idle_names {
            let va = b.read_reg(ua.regs[name]);
            let vb = b.read_reg(ub.regs[name]);
            let na = b.not(va);
            let nb = b.not(vb);
            all.push(na);
            all.push(nb);
        }
        b.all(&all)
    };
    let inv_names = stage_valid_names(&config);
    let invariant = move |b: &mut ModuleBuilder,
                          ua: &Instance,
                          ub: &Instance,
                          mon: &MonitorHandles|
          -> NodeId {
        let zero = {
            let w = b.width(mon.eq_cnt);
            b.lit(w, 0)
        };
        let counting = b.ne(mon.eq_cnt, zero);
        let engaged = b.or(counting, mon.spy_mode);
        let mut conds = Vec::new();
        for name in &inv_names {
            let va = b.read_reg(ua.regs[name]);
            let vb = b.read_reg(ub.regs[name]);
            conds.push(b.eq(va, vb));
            let stage = name.strip_suffix(".valid").expect("valid name");
            for field in ["data", "key"] {
                let da = b.read_reg(ua.regs[&format!("{stage}.{field}")]);
                let db = b.read_reg(ub.regs[&format!("{stage}.{field}")]);
                let eq = b.eq(da, db);
                let nv = b.not(va);
                conds.push(b.or(nv, eq));
            }
        }
        let all = b.all(&conds);
        let ne = b.not(engaged);
        b.or(ne, all)
    };
    FtSpec::new(&dut)
        .flush_done(idle)
        .assert_prop("pipeline_convergence", invariant)
        .generate()
}

/// Runs the default AES testbench (finds A1).
pub fn run_aes_a1(check: &CheckConfig) -> CheckReport {
    with_experiment(check, "aes-a1", |check| {
        aes_a1_testbench().check_portfolio(check)
    })
}

/// Runs the refined AES testbench to a full proof: idle-pipeline flush
/// condition plus the Sec.-4.4 strengthening invariants.
pub fn run_aes_proof(check: &CheckConfig) -> CheckReport {
    with_experiment(check, "aes-proof", |check| {
        aes_proof_testbench().prove(check)
    })
}

// ---------------------------------------------------------------------
// Table 1 (the valuable CEXs across all four DUTs)
// ---------------------------------------------------------------------

/// Table 1 (the valuable CEXs V5, C1, C2, C3, M2, M3, A1) as campaign
/// tasks, in table order.
pub fn table1_tasks() -> Vec<CampaignTask> {
    table1_tasks_with(Granularity::Monolithic)
}

/// [`table1_tasks`] at an explicit property granularity: the testbenches
/// emit their property sets (and, at `register`, the observer monitor and
/// attribution assertions) to match.
pub fn table1_tasks_with(granularity: Granularity) -> Vec<CampaignTask> {
    let mut tasks = Vec::new();

    // V5: the Vscale pending-interrupt channel (ladder stage 3).
    tasks.push(CampaignTask::check(
        "V5",
        "Interrupt in the WB stage stalls pipeline",
        "vscale:V5",
        move || vscale_stage_testbench_with(&VSCALE_STAGES[2], granularity),
    ));

    for (id, desc) in [
        ("C1", "Leaks invalid I-Cache data to the next PC"),
        ("C2", "Wrong transition in the FSM of the PTW"),
        ("C3", "Valid D$ line after flush caused by PTW"),
    ] {
        tasks.push(CampaignTask::check(id, desc, "cva6", move || {
            cva6_testbench_with(&cva6_cex_config(id), granularity)
        }));
    }

    // M2: fix nothing except M3 so the TLB-enable channel is the target.
    tasks.push(CampaignTask::check(
        "M2",
        "Leak whether the TLB was disabled",
        "maple",
        move || {
            maple_testbench_with(
                &MapleConfig {
                    fix_tlb_enable: false,
                    fix_array_base: true,
                },
                granularity,
            )
        },
    ));
    // M3: fix M2 so the array-base channel is the target.
    tasks.push(CampaignTask::check(
        "M3",
        "Leak the value of a configuration register",
        "maple",
        move || {
            maple_testbench_with(
                &MapleConfig {
                    fix_tlb_enable: true,
                    fix_array_base: false,
                },
                granularity,
            )
        },
    ));

    tasks.push(CampaignTask::check(
        "A1",
        "Request in the pipeline during the switch",
        "aes-a1",
        move || aes_a1_testbench_with(granularity),
    ));
    tasks
}

/// Regenerates Table 1 (the valuable CEXs V5, C1, C2, C3, M2, M3, A1),
/// fanning one check job per experiment across `config.jobs` workers.
/// Rows come back in table order regardless of worker count. Panic
/// containment happens at the experiment level: a harness panic costs
/// that row only, rendered FAILED, while the rest of the table fills.
pub fn table1(config: &CheckConfig) -> Vec<TableRow> {
    run_campaign("table1", table1_tasks(), config, &CampaignOptions::off())
        .expect("campaign without a journal cannot fail to start")
        .rows
}

/// Fix-validation runs as campaign tasks: every fixed DUT configuration
/// must be clean.
pub fn fix_validation_tasks() -> Vec<CampaignTask> {
    vec![
        CampaignTask::check(
            "C1-C3 fixed",
            "CVA6 microreset with all upstream fixes",
            "cva6",
            || cva6_testbench(&Cva6Config::all_fixed()),
        ),
        CampaignTask::check(
            "M2+M3 fixed",
            "MAPLE cleanup resets config registers",
            "maple",
            || maple_testbench(&MapleConfig::all_fixed()),
        ),
        CampaignTask::prove(
            "A1 refined",
            "AES with idle-pipeline flush condition",
            "aes-proof",
            aes_proof_testbench,
        ),
    ]
}

/// Fix-validation runs: every fixed DUT configuration must be clean.
pub fn fix_validation(config: &CheckConfig) -> Vec<TableRow> {
    run_campaign(
        "fix_validation",
        fix_validation_tasks(),
        config,
        &CampaignOptions::off(),
    )
    .expect("campaign without a journal cannot fail to start")
    .rows
}

/// A demo DUT for the flush-synthesis experiments: banked registers with a
/// configurable flush set (see `examples/flush_synthesis.rs`).
pub fn banked_device(flush_set: &std::collections::BTreeSet<String>) -> Module {
    let mut b = ModuleBuilder::new("banked_device");
    let we = b.input("we", 1);
    let sel = b.input("sel", 2);
    let re = b.input("re", 1);
    let data = b.input("data", 8);
    let flush = b.input_common("flush", 1);

    let zero8 = b.lit(8, 0);
    let mut regs: Vec<NodeId> = Vec::new();
    for (i, name) in ["bank0", "bank1", "bank2", "scratch"].iter().enumerate() {
        let r = b.reg(name, 8, autocc_hdl::Bv::zero(8));
        let hit = b.eq_lit(sel, i as u64);
        let wr_en = b.and(we, hit);
        let wr = b.mux(wr_en, data, r);
        let next = if flush_set.contains(*name) {
            b.mux(flush, zero8, wr)
        } else {
            wr
        };
        b.set_next(r, next);
        regs.push(r);
    }
    let s0 = b.eq_lit(sel, 0);
    let s1 = b.eq_lit(sel, 1);
    let m01 = b.mux(s1, regs[1], regs[2]);
    let read = b.mux(s0, regs[0], m01);
    let q = b.mux(re, read, zero8);
    b.output("q", q);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_cover_the_paper() {
        let ids: Vec<&str> = ["V5", "C1", "C2", "C3", "M2", "M3", "A1"].to_vec();
        // Construction-only check: all configurations build.
        for id in &ids {
            match *id {
                "C1" | "C2" | "C3" => {
                    let _ = build_cva6(&cva6_cex_config(id));
                }
                "M2" | "M3" => {
                    let _ = build_maple(&MapleConfig::default());
                }
                _ => {}
            }
        }
        assert_eq!(VSCALE_STAGES.len(), 5);
    }

    #[test]
    fn default_options_are_serial_with_a_wall_clock_budget() {
        let c = default_options(20);
        assert_eq!(c.max_depth, 20);
        assert_eq!(c.jobs, 1);
        assert!(!c.slice);
        assert_eq!(c.time_budget, Some(Duration::from_secs(1800)));
    }
}
