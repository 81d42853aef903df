//! Regenerates Table 1: the valuable CEXs across all four DUTs.

use autocc_bench::{
    default_options, finish_profile, parse_report_args, run_campaign, table1_tasks_with,
};
use autocc_core::{certificate_summary, failure_summary, report_exit_code};

const USAGE: &str = "usage: report_table1 [--jobs N] [--slice on|off] [--stable] [--detailed]
                     [--retries N] [--timeout SECS]
                     [--granularity monolithic|register]
                     [--depth N] [--profile PATH]
                     [--journal PATH] [--resume | --fresh] [--retry-failed]
                     [--hang-factor N] [--isolate] [--memory-limit-mb N]
                     [--worker-heartbeat-ms N] [--certify]
                     [--listen ADDR] [--lease-factor N]
                     [--fleet-grace-ms N]
  --jobs N          fan experiments across N portfolio workers (default 1)
                    (a check's properties share one solver)
  --slice on|off    per-property cone-of-influence slicing (default off)
  --granularity G   property decomposition: monolithic (default) or
                    register (adds per-state attribution properties naming
                    the leaking signal, checked in sliced cone clusters)
  --stable          omit the Time column (byte-reproducible output)
  --detailed        per-row solver-work columns (solves, conflicts, src)
  --retries N       retry panicked engine jobs up to N times (default 1)
  --timeout SECS    wall-clock budget per property, charged with its own
                    solves, and per proof (degrades to UNKNOWN)
  --depth N         override the default check depth (default 20)
  --profile PATH    write a JSON run profile (span tree + rollups)
  --journal PATH    crash-safe campaign journal (content-addressed cache)
  --resume          continue an existing journal, skipping finished checks
  --fresh           discard any existing journal and start over
  --retry-failed    re-run journaled FAILED checks instead of serving them
  --hang-factor N   watchdog limit as a multiple of the time budget
                    (default 4; 0 disarms)
  --isolate         run each check attempt in a supervised worker subprocess
  --memory-limit-mb N  kill (and quarantine repeat offenders) any worker
                    whose RSS exceeds N MiB (isolated or fleet workers)
  --worker-heartbeat-ms N  worker heartbeat period (default 250)
  --certify         demand an independently checked certificate for every
                    conclusive verdict (DRAT proof for UNSAT answers,
                    replayed trace for CEXs); missing/failed certificates
                    degrade the row to FAILED (certification)
  --listen ADDR     accept remote `worker --connect` processes on ADDR and
                    dispatch checks to them under lease-based ownership;
                    degrades to local workers when the fleet drains
  --lease-factor N  remote lease = time budget x N x property count
                    (default 4)
  --fleet-grace-ms N  with zero workers connected, fall back to local
                    execution after this long (default 2000)
As `report_table1 worker --connect HOST:PORT [--backoff-ms N]
[--backoff-max-ms N] [--max-retries N]`, serves a remote fleet instead.";

fn main() {
    autocc_bench::maybe_run_worker();
    let args = parse_report_args(USAGE);
    let (config, sink) = args.instrument(default_options(20), "table1");
    let options = args.campaign_options();
    let outcome = match run_campaign(
        "table1",
        table1_tasks_with(args.granularity),
        &config,
        &options,
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let title = "Table 1 (reproduced): valuable CEXs across the four DUTs";
    println!("{}", args.render_table(title, &outcome.rows));
    println!("Paper reference (JasperGold, original RTL):");
    println!("  V5 depth 9 <10min | C1 depth 76 <30min | C2 depth 80 <6h | C3 depth 80 <6h");
    println!("  M2 depth 21 <30min | M3 depth 23 <3h | A1 depth 42 <1min");
    if options.journal.is_some() {
        eprintln!("journal: {}", outcome.stats);
    }
    if args.certify {
        eprintln!("{}", certificate_summary(&outcome.rows));
    }
    if let Some(summary) = failure_summary(&outcome.rows) {
        eprintln!("\n{summary}");
    }
    autocc_bench::finish_fleet(&options);
    finish_profile(&sink);
    std::process::exit(report_exit_code(&outcome.rows));
}
