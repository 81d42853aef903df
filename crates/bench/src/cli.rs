//! Tiny flag parser shared by the report binaries.

use crate::campaign::CampaignOptions;
use crate::fleet::{Fleet, FleetConfig};
use crate::workers::WorkerLimits;
use autocc_bmc::{CheckConfig, Granularity};
use autocc_core::{format_table, format_table_detailed, format_table_stable, TableRow};
use autocc_telemetry::{ProfileRecorder, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Flags common to every report binary.
#[derive(Clone, Debug)]
pub struct ReportArgs {
    /// `--jobs N`: portfolio workers fanning experiments (min 1). It
    /// never splits a monolithic check: its properties share one solver.
    pub jobs: usize,
    /// `--slice on|off`: per-property cone-of-influence slicing.
    pub slice: bool,
    /// `--granularity monolithic|register`: property decomposition level.
    /// `register` adds per-state attribution properties naming the
    /// leaking signal and checks every property in a sliced cone cluster.
    pub granularity: Granularity,
    /// `--retries N`: retries for panicked check jobs.
    pub retries: u32,
    /// `--timeout SECS`: wall-clock budget per property of a check (each
    /// charged with its own solve calls) and per proof or cluster job;
    /// overrides the experiment's default time budget. Enforced
    /// mid-solve. Never per experiment: a shared experiment-level
    /// deadline would make each property's remaining time depend on
    /// scheduling order and break the `jobs`-invariance of the merged
    /// outcome.
    pub timeout: Option<Duration>,
    /// `--stable`: omit the Time column so output is byte-reproducible.
    pub stable: bool,
    /// `--detailed`: per-row solver-work columns (solves, conflicts).
    pub detailed: bool,
    /// `--profile PATH`: write a JSON run profile (span tree + rollups).
    pub profile: Option<PathBuf>,
    /// `--depth N`: override the experiment's default check depth.
    pub depth: Option<usize>,
    /// `--journal PATH`: crash-safe campaign journal with a
    /// content-addressed check cache.
    pub journal: Option<PathBuf>,
    /// `--resume`: continue an existing journal, serving completed
    /// checks from it.
    pub resume: bool,
    /// `--fresh`: discard any existing journal and start over.
    pub fresh: bool,
    /// `--retry-failed`: re-run journaled FAILED checks on resume
    /// instead of serving them.
    pub retry_failed: bool,
    /// `--hang-factor N`: watchdog hard limit as a multiple of the
    /// per-job time budget (0 disarms the watchdog).
    pub hang_factor: u32,
    /// `--isolate`: run each check attempt in a supervised worker
    /// subprocess (same answers, process-sized blast radius).
    pub isolate: bool,
    /// `--memory-limit-mb N`: RSS ceiling per worker, enforced by the
    /// supervisor on every heartbeat: on `--isolate` workers, and with
    /// `--listen` on the fleet's remote workers.
    pub memory_limit_mb: Option<u64>,
    /// `--worker-heartbeat-ms N`: heartbeat period for workers.
    pub worker_heartbeat_ms: Option<u64>,
    /// `--certify`: demand an independently checked certificate for every
    /// conclusive verdict — a DRAT proof (checked by the self-contained
    /// forward RUP checker) for UNSAT-backed answers, a replay-validated
    /// trace hash for counterexamples. A missing or failed certificate
    /// degrades the row to FAILED (certification), never to a PASS.
    pub certify: bool,
    /// `--listen ADDR`: accept remote `worker --connect` processes on
    /// `ADDR` (e.g. `127.0.0.1:0`) and dispatch checks to them under
    /// lease-based ownership, degrading to local execution when the
    /// fleet drains. Never changes answers.
    pub listen: Option<String>,
    /// `--lease-factor N`: lease = time budget × N × property count.
    pub lease_factor: Option<u64>,
    /// `--fleet-grace-ms N`: with zero workers connected, jobs queued
    /// longer than this fall back to local execution.
    pub fleet_grace_ms: Option<u64>,
}

impl Default for ReportArgs {
    fn default() -> ReportArgs {
        ReportArgs {
            jobs: 1,
            slice: false,
            granularity: Granularity::Monolithic,
            retries: 1,
            timeout: None,
            stable: false,
            detailed: false,
            profile: None,
            depth: None,
            journal: None,
            resume: false,
            fresh: false,
            retry_failed: false,
            hang_factor: CampaignOptions::default().hang_factor,
            isolate: false,
            memory_limit_mb: None,
            worker_heartbeat_ms: None,
            certify: false,
            listen: None,
            lease_factor: None,
            fleet_grace_ms: None,
        }
    }
}

impl ReportArgs {
    /// Applies the parsed flags to an experiment's base config.
    pub fn configure(&self, base: CheckConfig) -> CheckConfig {
        let mut config = base
            .jobs(self.jobs)
            .slice(self.slice)
            .granularity(self.granularity)
            .retries(self.retries);
        if let Some(t) = self.timeout {
            config = config.timeout(t);
        }
        if let Some(d) = self.depth {
            config = config.depth(d);
        }
        if self.isolate {
            config = config.isolate().memory_limit_mb(self.memory_limit_mb);
        }
        if let Some(ms) = self.worker_heartbeat_ms {
            config = config.heartbeat_ms(ms);
        }
        config.certify(self.certify)
    }

    /// The campaign journal/watchdog options these flags describe. The
    /// worker pool stays `None`: the campaign builds its own from the
    /// config's isolation knobs (tests inject a pool directly). With
    /// `--listen`, binds the fleet listener here — a bind failure is
    /// fatal before any check runs.
    pub fn campaign_options(&self) -> CampaignOptions {
        let fleet = self.listen.as_deref().map(|addr| {
            let mut fc = FleetConfig {
                limits: WorkerLimits {
                    memory_limit_mb: self.memory_limit_mb,
                    heartbeat_ms: self.worker_heartbeat_ms.unwrap_or(250).max(1),
                    ..WorkerLimits::default()
                },
                ..FleetConfig::default()
            };
            if let Some(f) = self.lease_factor {
                fc.lease_factor = f.max(1);
            }
            if let Some(ms) = self.fleet_grace_ms {
                fc.fallback_grace = Duration::from_millis(ms);
            }
            match Fleet::listen(addr, fc) {
                Ok(fleet) => {
                    eprintln!("fleet: listening on {}", fleet.addr());
                    fleet
                }
                Err(e) => {
                    eprintln!("error: cannot listen on {addr}: {e}");
                    std::process::exit(2);
                }
            }
        });
        CampaignOptions {
            journal: self.journal.clone(),
            resume: self.resume,
            fresh: self.fresh,
            retry_failed: self.retry_failed,
            hang_factor: self.hang_factor,
            pool: None,
            fleet,
        }
    }

    /// [`ReportArgs::configure`] plus profile instrumentation: with
    /// `--profile PATH`, attaches a [`ProfileRecorder`] whose root run
    /// span is named `root` and returns the sink that serializes the
    /// profile once the run finishes. Without the flag, telemetry stays
    /// disabled and instrumentation is a no-op.
    pub fn instrument(&self, base: CheckConfig, root: &str) -> (CheckConfig, Option<ProfileSink>) {
        let mut config = self.configure(base);
        let Some(path) = &self.profile else {
            return (config, None);
        };
        let recorder = Arc::new(ProfileRecorder::new());
        let telemetry = Telemetry::root(recorder.clone(), root);
        config.telemetry = telemetry.clone();
        (
            config,
            Some(ProfileSink {
                path: path.clone(),
                recorder,
                root: telemetry,
            }),
        )
    }

    /// Renders `rows` honouring `--stable` (no Time column) and
    /// `--detailed` (per-row solver-work columns). `--stable` wins when
    /// both are given: reproducible output is the point of that flag.
    pub fn render_table(&self, title: &str, rows: &[TableRow]) -> String {
        if self.stable {
            format_table_stable(title, rows)
        } else if self.detailed {
            format_table_detailed(title, rows)
        } else {
            format_table(title, rows)
        }
    }
}

/// Where a `--profile` run writes its JSON profile.
pub struct ProfileSink {
    path: PathBuf,
    recorder: Arc<ProfileRecorder>,
    root: Telemetry,
}

impl ProfileSink {
    /// Closes the root run span and writes the versioned JSON profile.
    pub fn write(&self) -> std::io::Result<()> {
        self.root.close();
        std::fs::write(&self.path, self.recorder.profile().to_json())
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Shuts a `--listen` fleet down (closing worker connections at the
/// next job boundary) and prints its one-line summary. Idempotent; a
/// no-op for local campaigns.
pub fn finish_fleet(options: &CampaignOptions) {
    if let Some(fleet) = &options.fleet {
        fleet.shutdown();
        eprintln!("fleet: {}", fleet.stats());
    }
}

/// Writes the profile (if a sink exists) and reports where it went.
/// Serialization failures are fatal: a requested profile that cannot be
/// written exits with status 2.
pub fn finish_profile(sink: &Option<ProfileSink>) {
    if let Some(sink) = sink {
        if let Err(e) = sink.write() {
            eprintln!("error: cannot write profile {}: {e}", sink.path().display());
            std::process::exit(2);
        }
        eprintln!("profile written to {}", sink.path().display());
    }
}

/// Parses `--jobs N`, `--slice on|off`, `--granularity G`, `--retries N`,
/// `--timeout SECS`, `--profile PATH`, `--depth N`, `--stable`,
/// `--detailed`, the journal flags (`--journal PATH`, `--resume`,
/// `--fresh`, `--retry-failed`, `--hang-factor N`), the isolation
/// flags (`--isolate`, `--memory-limit-mb N`, `--worker-heartbeat-ms N`),
/// and `--certify` from `argv`. Unknown flags print `usage` and exit
/// with status 2.
pub fn parse_report_args(usage: &str) -> ReportArgs {
    parse_report_arg_list(usage, std::env::args().skip(1))
}

fn parse_report_arg_list(usage: &str, args: impl Iterator<Item = String>) -> ReportArgs {
    parse_flags(usage, args, |_, _| Ok(false))
}

/// The shared flag parser behind [`parse_report_args`], for a binary with
/// flags of its own. `own` sees every argument first, with the remaining
/// arguments to take a value from: it returns `Ok(true)` when it
/// consumed the argument, `Ok(false)` to leave it to the shared flags,
/// and `Err` to refuse it. Refused and unknown arguments print `usage`
/// and exit with status 2.
pub fn parse_flags(
    usage: &str,
    mut args: impl Iterator<Item = String>,
    mut own: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
) -> ReportArgs {
    let mut parsed = ReportArgs::default();
    while let Some(arg) = args.next() {
        match own(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(msg) => die(usage, &msg),
        }
        match arg.as_str() {
            "--jobs" => {
                parsed.jobs = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&j| j >= 1)
                    .unwrap_or_else(|| die(usage, "--jobs needs a positive integer"));
            }
            "--slice" => {
                parsed.slice = match args.next().as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    _ => die(usage, "--slice needs `on` or `off`"),
                };
            }
            "--granularity" => {
                parsed.granularity = args
                    .next()
                    .as_deref()
                    .and_then(Granularity::parse)
                    .unwrap_or_else(|| die(usage, "--granularity needs monolithic or register"));
            }
            "--retries" => {
                parsed.retries = args
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .unwrap_or_else(|| die(usage, "--retries needs a non-negative integer"));
            }
            "--timeout" => {
                let secs = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&s| s >= 1)
                    .unwrap_or_else(|| die(usage, "--timeout needs a positive number of seconds"));
                parsed.timeout = Some(Duration::from_secs(secs));
            }
            "--profile" => {
                parsed.profile =
                    Some(PathBuf::from(args.next().unwrap_or_else(|| {
                        die(usage, "--profile needs an output path")
                    })));
            }
            "--depth" => {
                parsed.depth = Some(
                    args.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&d| d >= 1)
                        .unwrap_or_else(|| die(usage, "--depth needs a positive integer")),
                );
            }
            "--journal" => {
                parsed.journal =
                    Some(PathBuf::from(args.next().unwrap_or_else(|| {
                        die(usage, "--journal needs a file path")
                    })));
            }
            "--resume" => parsed.resume = true,
            "--fresh" => parsed.fresh = true,
            "--retry-failed" => parsed.retry_failed = true,
            "--hang-factor" => {
                parsed.hang_factor = args
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .unwrap_or_else(|| die(usage, "--hang-factor needs a non-negative integer"));
            }
            "--isolate" => parsed.isolate = true,
            "--certify" => parsed.certify = true,
            "--memory-limit-mb" => {
                parsed.memory_limit_mb = Some(
                    args.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .filter(|&m| m >= 1)
                        .unwrap_or_else(|| {
                            die(usage, "--memory-limit-mb needs a positive integer")
                        }),
                );
            }
            "--worker-heartbeat-ms" => {
                parsed.worker_heartbeat_ms = Some(
                    args.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .filter(|&m| m >= 1)
                        .unwrap_or_else(|| {
                            die(usage, "--worker-heartbeat-ms needs a positive integer")
                        }),
                );
            }
            "--listen" => {
                parsed.listen = Some(
                    args.next()
                        .unwrap_or_else(|| die(usage, "--listen needs an address (host:port)")),
                );
            }
            "--lease-factor" => {
                parsed.lease_factor = Some(
                    args.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .filter(|&f| f >= 1)
                        .unwrap_or_else(|| die(usage, "--lease-factor needs a positive integer")),
                );
            }
            "--fleet-grace-ms" => {
                parsed.fleet_grace_ms = Some(
                    args.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or_else(|| {
                            die(usage, "--fleet-grace-ms needs a non-negative integer")
                        }),
                );
            }
            "--stable" => parsed.stable = true,
            "--detailed" => parsed.detailed = true,
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => die(usage, &format!("unknown flag {other}")),
        }
    }
    parsed
}

fn die(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ReportArgs {
        parse_report_arg_list("usage", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_serial_unsliced() {
        let a = parse(&[]);
        assert_eq!(a.jobs, 1);
        assert!(!a.slice);
        assert!(!a.stable);
        assert_eq!(a.retries, 1);
        assert!(a.timeout.is_none());
        assert!(a.profile.is_none());
    }

    #[test]
    fn all_flags_parse() {
        let a = parse(&[
            "--jobs",
            "4",
            "--slice",
            "on",
            "--stable",
            "--retries",
            "3",
            "--timeout",
            "600",
            "--profile",
            "out.json",
        ]);
        assert_eq!(a.jobs, 4);
        assert!(a.slice);
        assert!(a.stable);
        assert_eq!(a.retries, 3);
        assert_eq!(a.timeout, Some(Duration::from_secs(600)));
        assert_eq!(a.profile.as_deref(), Some(Path::new("out.json")));
    }

    #[test]
    fn own_flags_are_offered_first_and_take_their_values() {
        let mut threshold = None;
        let a = parse_flags(
            "usage",
            ["--threshold", "5", "--depth", "9"]
                .map(String::from)
                .into_iter(),
            |arg, rest| match arg {
                "--threshold" => {
                    threshold = rest.next();
                    Ok(true)
                }
                _ => Ok(false),
            },
        );
        assert_eq!(threshold.as_deref(), Some("5"));
        assert_eq!(a.depth, Some(9), "the rest goes to the shared flags");
    }

    #[test]
    fn journal_flags_parse_and_map_to_campaign_options() {
        let a = parse(&[]);
        assert!(a.journal.is_none());
        assert!(a.depth.is_none());
        let o = a.campaign_options();
        assert!(o.journal.is_none());
        assert!(!o.resume && !o.fresh && !o.retry_failed);
        assert_eq!(o.hang_factor, 4);

        let a = parse(&[
            "--journal",
            "run.jsonl",
            "--resume",
            "--retry-failed",
            "--hang-factor",
            "2",
            "--depth",
            "9",
        ]);
        let o = a.campaign_options();
        assert_eq!(o.journal.as_deref(), Some(Path::new("run.jsonl")));
        assert!(o.resume);
        assert!(!o.fresh);
        assert!(o.retry_failed);
        assert_eq!(o.hang_factor, 2);
        let c = a.configure(CheckConfig::default().depth(20));
        assert_eq!(c.max_depth, 9, "--depth overrides the experiment default");
    }

    #[test]
    fn granularity_flags_parse_and_configure() {
        let a = parse(&[]);
        assert_eq!(a.granularity, Granularity::Monolithic);
        let c = a.configure(CheckConfig::default());
        assert_eq!(c.granularity, Granularity::Monolithic);

        let a = parse(&["--granularity", "register"]);
        assert_eq!(a.granularity, Granularity::Register);
        let c = a.configure(CheckConfig::default());
        assert_eq!(c.granularity, Granularity::Register);
    }

    #[test]
    fn isolation_flags_parse_and_configure() {
        use autocc_bmc::Isolation;
        let a = parse(&[]);
        assert!(!a.isolate);
        let c = a.configure(CheckConfig::default());
        assert_eq!(c.isolation, Isolation::InProcess);

        let a = parse(&[
            "--isolate",
            "--memory-limit-mb",
            "512",
            "--worker-heartbeat-ms",
            "50",
        ]);
        assert!(a.isolate);
        let c = a.configure(CheckConfig::default());
        assert_eq!(c.isolation, Isolation::Subprocess);
        assert_eq!(c.memory_limit_mb, Some(512));
        assert_eq!(c.heartbeat_ms, 50);
        assert!(a.campaign_options().pool.is_none());
    }

    #[test]
    fn certify_flag_parses_without_perturbing_the_fingerprint() {
        let a = parse(&[]);
        assert!(!a.certify);
        let plain = a.configure(CheckConfig::default());
        assert!(!plain.certify);

        let a = parse(&["--certify"]);
        assert!(a.certify);
        let certified = a.configure(CheckConfig::default());
        assert!(certified.certify);
        // Certification only adds evidence; it never changes answers, so
        // certified and uncertified campaigns share journals and produce
        // byte-identical stable tables.
        assert_eq!(
            autocc_bmc::config_fingerprint(&plain),
            autocc_bmc::config_fingerprint(&certified),
        );
    }

    #[test]
    fn configure_applies_every_knob() {
        let mut a = parse(&["--jobs", "2", "--slice", "on"]);
        a.timeout = Some(Duration::from_secs(7));
        let c = a.configure(CheckConfig::default().depth(20));
        assert_eq!(c.max_depth, 20);
        assert_eq!(c.jobs, 2);
        assert!(c.slice);
        assert_eq!(c.time_budget, Some(Duration::from_secs(7)));
        assert!(!c.telemetry.enabled(), "no --profile, no telemetry");
    }

    #[test]
    fn instrument_attaches_a_recorder_only_with_profile() {
        let plain = parse(&[]);
        let (c, sink) = plain.instrument(CheckConfig::default(), "test");
        assert!(!c.telemetry.enabled());
        assert!(sink.is_none());

        let mut profiled = parse(&[]);
        profiled.profile = Some(PathBuf::from("/tmp/ignored.json"));
        let (c, sink) = profiled.instrument(CheckConfig::default(), "test");
        assert!(c.telemetry.enabled());
        assert!(sink.is_some());
    }
}
