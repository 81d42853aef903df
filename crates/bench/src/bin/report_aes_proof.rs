//! Regenerates the Sec. A.5.4 result: full proof of the AES accelerator
//! under the idle-pipeline flush condition.

use autocc_bench::{default_options, finish_profile, parse_report_args, run_aes_a1, run_aes_proof};
use autocc_core::{format_duration, AutoCcOutcome};

const USAGE: &str = "usage: report_aes_proof [--jobs N] [--slice on|off]
                     [--retries N] [--timeout SECS]
                     [--profile PATH]
  --jobs N          portfolio workers for experiment fan-out (default 1)
                    (a check's properties share one solver)
  --slice on|off    per-property cone-of-influence slicing (default off)
  --retries N       retry panicked engine jobs up to N times (default 1)
  --timeout SECS    wall-clock budget per property, charged with its own
                    solves, and per proof (degrades to UNKNOWN)
  --profile PATH    write a JSON run profile (span tree + rollups)
As `report_aes_proof worker --connect HOST:PORT [--backoff-ms N]
[--backoff-max-ms N] [--max-retries N]`, serves a remote fleet instead.";

fn main() {
    autocc_bench::maybe_run_worker();
    let args = parse_report_args(USAGE);
    println!("== AES accelerator: A1 and the full proof (A.5.4) ==\n");
    let (config, sink) = args.instrument(default_options(14), "aes-proof");
    let report = run_aes_a1(&config);
    match &report.outcome {
        AutoCcOutcome::Cex(cex) => println!(
            "A1   : CEX {} at depth {} in {} (paper: depth 42, seconds)",
            cex.property,
            cex.depth,
            format_duration(report.elapsed)
        ),
        other => println!("A1   : unexpected {other:?}"),
    }
    let report = run_aes_proof(&config);
    match &report.outcome {
        AutoCcOutcome::Proved { induction_depth } => println!(
            "proof: full proof at k={induction_depth} in {} (paper: full proof < 6h)",
            format_duration(report.elapsed)
        ),
        other => println!("proof: unexpected {other:?}"),
    }
    finish_profile(&sink);
}
