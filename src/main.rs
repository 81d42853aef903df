//! `autocc` — command-line front end, the equivalent of the paper's
//! `autocc.py` flow: point it at a DUT, get a generated FPV testbench, a
//! counterexample with root-cause analysis (or a proof), and optional
//! artifact dumps (SVA property file, Verilog, VCD waveform).
//!
//! ```text
//! autocc <dut> [--threshold N] [--prove] [--minimize] [--sva] [--verilog]
//!              [--vcd FILE] [shared check flags]
//! autocc --list
//! ```
//!
//! The shared check flags (`--depth`, `--jobs`, `--isolate`, `--listen`,
//! `--journal`, `--profile`, ...) are the report binaries' own, parsed by
//! `bench::cli`; only the defaults differ: depth 16 and a 3600 s budget
//! per check. The report-only flags (`--stable`, `--detailed`,
//! `--hang-factor`, `--retry-failed`) are refused.
//!
//! `--certify` makes every verdict independently checkable: UNSAT-backed
//! answers (CLEAN, PROVED) carry a DRAT proof checked by a self-contained
//! forward RUP checker, and counterexamples carry their replay-validated
//! trace hash. A missing or failed certificate degrades the verdict to
//! FAILED (certification) — never to a silent PASS.
//!
//! The check runs through the report binaries' campaign runner
//! (`bench::Campaign`) under its watchdog at the default hang factor of
//! 4. At `--granularity monolithic` one shared run answers every
//! generated assertion on its own from one unrolling (sliced to their
//! union cone of influence with `--slice on`), and `--timeout` bounds
//! each assertion by the time of its own solves; at `register` one job
//! per sliced cone cluster is fanned across `--jobs` worker threads and
//! merged identically for every `--jobs` value. `--prove --jobs N>1`
//! races k-induction against a BMC falsifier, first conclusive result
//! wins. `--journal FILE` journals the check as
//! the report binaries journal theirs — one record, or one per cluster at
//! `register` — and `--resume` serves what it holds, with a `journal: N
//! served from cache ...` line on stderr.
//!
//! Built-in DUTs: `vscale`, `vscale-refined`, `cva6`, `cva6-fixed`,
//! `maple`, `maple-fixed`, `aes`, `aes-refined`, `config-device`,
//! `config-device-fixed`.

use autocc::bench::{
    finish_fleet, finish_profile, maybe_run_worker, parse_flags, Campaign, ReportArgs,
};
use autocc::bmc::{CertificateStatus, CheckConfig, CheckMode};
use autocc::core::{
    format_duration, to_sva, AutoCcOutcome, CheckReport, FpvTestbench, FtSpec, PropertyVerdict,
};
use autocc::duts::aes::{build_aes, stage_valid_names, AesConfig};
use autocc::duts::cva6::{build_cva6, Cva6Config, ARCH_REGS};
use autocc::duts::demo::config_device;
use autocc::duts::maple::{build_maple, MapleConfig};
use autocc::duts::vscale::{arch, build_vscale, VscaleConfig};
use autocc::hdl::{to_verilog, Instance, Module, ModuleBuilder, NodeId};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const DUTS: &[(&str, &str)] = &[
    ("vscale", "3-stage RISC core, default testbench (finds V1)"),
    ("vscale-refined", "fully refined Vscale testbench (proof)"),
    ("cva6", "CVA6 frontend, unfixed microreset (finds C1/C2/C3)"),
    ("cva6-fixed", "CVA6 frontend with all upstream fixes"),
    ("maple", "MAPLE engine, unfixed (finds M2/M3)"),
    ("maple-fixed", "MAPLE engine with both fixes"),
    ("aes", "pipelined cipher accelerator (finds A1)"),
    ("aes-refined", "AES with idle-pipeline flush (full proof)"),
    (
        "config-device",
        "quickstart demo device (leaks its register)",
    ),
    ("config-device-fixed", "demo device with a working flush"),
];

/// The flags only the CLI has; everything else is a [`ReportArgs`] flag.
#[derive(Default)]
struct Cli {
    dut: String,
    threshold: Option<u32>,
    prove: bool,
    minimize: bool,
    dump_sva: bool,
    dump_verilog: bool,
    vcd: Option<String>,
}

const USAGE: &str = "\
usage: autocc <dut> [--depth N] [--threshold N] [--jobs N]
              [--slice on|off] [--retries N] [--timeout SECS]
              [--granularity monolithic|register] [--profile FILE]
              [--isolate] [--memory-limit-mb N] [--worker-heartbeat-ms N]
              [--listen ADDR] [--lease-factor N] [--fleet-grace-ms N]
              [--certify] [--journal FILE] [--resume | --fresh]
              [--prove] [--minimize]
              [--sva] [--verilog] [--vcd FILE]
       autocc --list";

fn parse_args() -> Result<(Cli, ReportArgs), ExitCode> {
    let mut cli = Cli::default();
    let mut list = false;
    let args = parse_flags(USAGE, std::env::args().skip(1), |arg, rest| {
        match arg {
            "--list" => list = true,
            "--threshold" => {
                let n = rest.next().and_then(|v| v.parse().ok());
                cli.threshold = Some(n.ok_or("--threshold needs a number")?);
            }
            "--prove" => cli.prove = true,
            "--minimize" => cli.minimize = true,
            "--sva" => cli.dump_sva = true,
            "--verilog" => cli.dump_verilog = true,
            "--vcd" => cli.vcd = Some(rest.next().ok_or("--vcd needs a file path")?),
            "--stable" | "--detailed" | "--hang-factor" | "--retry-failed" => {
                return Err(format!("{arg} is a report-binary flag"));
            }
            dut if !dut.starts_with('-') && cli.dut.is_empty() => cli.dut = dut.to_string(),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if list {
        println!("built-in DUTs:");
        for (name, desc) in DUTS {
            println!("  {name:<22} {desc}");
        }
        return Err(ExitCode::SUCCESS);
    }
    if cli.dut.is_empty() {
        eprintln!("error: no DUT given\n{USAGE}");
        return Err(ExitCode::from(2));
    }
    Ok((cli, args))
}

fn maple_flush(b: &mut ModuleBuilder, ua: &Instance, ub: &Instance) -> NodeId {
    let da = ua.outputs["inv_done"];
    let db = ub.outputs["inv_done"];
    b.and(da, db)
}

fn cva6_flush(b: &mut ModuleBuilder, ua: &Instance, ub: &Instance) -> NodeId {
    let da = ua.outputs["fence_done"];
    let db = ub.outputs["fence_done"];
    b.and(da, db)
}

/// Per-DUT testbench refinement applied to the generated `FtSpec`.
type SpecRefiner = Box<dyn Fn(FtSpec) -> FtSpec>;

/// Builds a DUT and its canonical testbench spec by name.
fn build(name: &str) -> Option<(Module, SpecRefiner)> {
    match name {
        "vscale" => Some((build_vscale(&VscaleConfig::default()), Box::new(|s| s))),
        "vscale-refined" => Some((
            build_vscale(&VscaleConfig {
                blackbox_csr: true,
                ..VscaleConfig::default()
            }),
            Box::new(|mut s| {
                s = s.arch_mem(arch::REGFILE_MEM).state_equality_invariants();
                for r in arch::PIPELINE_REGS.iter().chain(arch::INT_REGS.iter()) {
                    s = s.arch_reg(r);
                }
                s
            }),
        )),
        "cva6" | "cva6-fixed" => {
            let config = if name == "cva6" {
                Cva6Config::microreset()
            } else {
                Cva6Config::all_fixed()
            };
            Some((
                build_cva6(&config),
                Box::new(|mut s| {
                    s = s.flush_done(cva6_flush);
                    for r in ARCH_REGS {
                        s = s.arch_reg(r);
                    }
                    s
                }),
            ))
        }
        "maple" | "maple-fixed" => {
            let config = if name == "maple" {
                MapleConfig::default()
            } else {
                MapleConfig::all_fixed()
            };
            Some((
                build_maple(&config),
                Box::new(|s| s.flush_done(maple_flush)),
            ))
        }
        "aes" => Some((build_aes(&AesConfig::default()), Box::new(|s| s))),
        "aes-refined" => {
            let config = AesConfig::default();
            let names = stage_valid_names(&config);
            Some((
                build_aes(&config),
                Box::new(move |s| {
                    let names = names.clone();
                    s.flush_done(move |b, ua, ub| {
                        let mut all = Vec::new();
                        for name in &names {
                            let va = b.read_reg(ua.regs[name]);
                            let vb = b.read_reg(ub.regs[name]);
                            let na = b.not(va);
                            let nb = b.not(vb);
                            all.push(na);
                            all.push(nb);
                        }
                        b.all(&all)
                    })
                }),
            ))
        }
        "config-device" => Some((config_device(false), Box::new(|s| s))),
        "config-device-fixed" => Some((
            config_device(true),
            Box::new(|s| {
                s.flush_done(|b, _ua, _ub| b.input_node("flush").expect("common flush"))
                    .state_equality_invariants()
            }),
        )),
        _ => None,
    }
}

fn report(ft: &FpvTestbench, run: &CheckReport, minimize: bool, vcd: &Option<String>) {
    let outcome = &run.outcome;
    let elapsed = run.elapsed;
    match outcome {
        AutoCcOutcome::Cex(cex) => {
            let minimized;
            let cex = if minimize {
                println!("(trace minimised)");
                minimized = ft.minimize_cex(cex);
                &minimized
            } else {
                cex.as_ref()
            };
            println!("COVERT CHANNEL FOUND in {}", format_duration(elapsed));
            println!("  violated : {}", cex.property);
            println!(
                "  depth    : {} cycles (spy starts at cycle {})",
                cex.depth, cex.spy_start_cycle
            );
            println!("  leaking microarchitectural state:");
            for d in &cex.diverging_state {
                println!(
                    "    {:<28} a={:<8} b={:<8} (cycles {}..{})",
                    d.name,
                    d.value_a.to_string(),
                    d.value_b.to_string(),
                    d.first_diff_cycle,
                    d.last_diff_cycle
                );
            }
            println!();
            println!("{}", ft.convergence_waveform(cex).to_table());
            if let Some(path) = vcd {
                let wf = ft.convergence_waveform(cex);
                if let Err(e) = std::fs::write(path, wf.to_vcd("autocc_cex")) {
                    eprintln!("failed to write VCD {path}: {e}");
                } else {
                    println!("VCD written to {path}");
                }
            }
        }
        AutoCcOutcome::Clean { bound } => {
            println!(
                "CLEAN: no observable difference within {bound} cycles ({})",
                format_duration(elapsed)
            );
        }
        AutoCcOutcome::Proved { induction_depth } => {
            println!(
                "PROVED for unbounded executions (k-induction at k={induction_depth}, {})",
                format_duration(elapsed)
            );
        }
        AutoCcOutcome::Exhausted { bound } => {
            println!(
                "BUDGET EXHAUSTED at proven depth {bound} ({})",
                format_duration(elapsed)
            );
        }
        AutoCcOutcome::Unknown { bound, cause } => {
            println!(
                "UNKNOWN ({cause}) at proven depth {bound} ({})",
                format_duration(elapsed)
            );
            println!("  the run was stopped by a machine-dependent budget; rerun with a");
            println!("  larger --timeout (or no timeout) for a definitive answer");
        }
        AutoCcOutcome::Failed { failures } => {
            println!("CHECK FAILED ({}):", format_duration(elapsed));
            for f in failures {
                println!("  {f}");
            }
        }
    }
    if let CertificateStatus::Certified { hash } = run.certificate {
        println!("certificate: {hash:016x} (independently checked)");
    }
    // At `--granularity register` the attribution properties name the
    // state bits that survive an input-quiesced context switch — the
    // candidate storage of any channel. Per-bit verdicts are aggregated
    // back to their state element for display: `pc_f[3]` and `pc_f[9]`
    // render as one `pc_f` row with a bit count and the shallowest
    // witness depth.
    let mut leaking: Vec<(String, usize, usize)> = Vec::new();
    for (name, v) in &run.verdicts {
        let (PropertyVerdict::Cex { depth }, Some(stripped)) = (
            v,
            name.strip_prefix("st__")
                .and_then(|s| s.strip_suffix("_eq")),
        ) else {
            continue;
        };
        // `<reg>`, `<reg>[b]` and `<mem>[w]` aggregate on the element
        // (last index stripped unless it is a memory word); keeping it
        // simple, group on everything before the final `[...]` when more
        // than one index is present, else on the bare base name.
        let element = match stripped.match_indices('[').count() {
            0 => stripped.to_string(),
            1 => stripped[..stripped.find('[').unwrap()].to_string(),
            _ => stripped[..stripped.rfind('[').unwrap()].to_string(),
        };
        match leaking.iter_mut().find(|(e, _, _)| *e == element) {
            Some((_, bits, min_depth)) => {
                *bits += 1;
                *min_depth = (*min_depth).min(*depth);
            }
            None => leaking.push((element, 1, *depth)),
        }
    }
    if !leaking.is_empty() {
        println!();
        println!(
            "attribution: {} state element(s) survive a context switch:",
            leaking.len()
        );
        for (element, bits, depth) in leaking {
            println!(
                "  {:<32} {} bit(s) witnessed, shallowest at depth {}",
                element, bits, depth
            );
        }
    }
}

fn mode(cli: &Cli) -> CheckMode {
    if cli.prove {
        CheckMode::Prove
    } else {
        CheckMode::Check
    }
}

fn main() -> ExitCode {
    // `autocc worker` is the hidden subcommand isolated campaigns spawn
    // (and `autocc worker --connect ADDR` joins a fleet). Never returns
    // when invoked that way.
    maybe_run_worker();
    let (cli, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let Some((dut, configure)) = build(&cli.dut) else {
        eprintln!("unknown DUT `{}`; try --list", cli.dut);
        return ExitCode::FAILURE;
    };

    println!(
        "DUT `{}`: {} state bits, {} inputs, {} outputs",
        dut.name(),
        dut.state_bits(),
        dut.inputs().len(),
        dut.outputs().len()
    );
    if cli.dump_verilog {
        println!("\n{}", to_verilog(&dut));
    }

    let mut spec = FtSpec::new(&dut).granularity(args.granularity);
    if let Some(t) = cli.threshold {
        spec = spec.threshold(t);
    }
    let ft = configure(spec).generate();
    println!(
        "FT generated: {} assumptions, {} assertions, THRESHOLD={}",
        ft.constraints().len(),
        ft.properties().len(),
        ft.threshold()
    );
    if cli.dump_sva {
        println!("\n{}", to_sva(&ft, &dut));
    }

    // The CLI's own defaults under the shared flags: depth 16 and a
    // one-hour budget per check.
    let base = CheckConfig::default()
        .depth(16)
        .timeout(Duration::from_secs(3600));
    let (config, profile) = args.instrument(base, &cli.dut);
    let options = args.campaign_options();
    let campaign = match Campaign::open(&cli.dut, &config, &options) {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ft = Arc::new(ft);
    let (run, _) = campaign.check(&cli.dut, &ft, mode(&cli), None, &config);
    finish_fleet(&options);
    if options.journal.is_some() {
        eprintln!("journal: {}", campaign.stats());
    }
    report(&ft, &run, cli.minimize, &cli.vcd);
    finish_profile(&profile);
    if run.outcome.is_degraded() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
