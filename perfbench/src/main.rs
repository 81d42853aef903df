//! The repository benchmark's measuring program.
//!
//! Runs one named workload through the public entry points (the
//! `autocc_bench` task builders with `run_campaign`, `FpvTestbench`,
//! `Journal` and `journal::ipc`), times set-up and campaign passes, and
//! prints the raw measurements plus every row's verdict as one JSON line
//! of integers and strings, written through `autocc_journal::json`.
//! `run.py` turns that line into the metrics named in `BENCHMARK.json`
//! and gates the verdicts against known answers.
//!
//! The load is closed-loop from this one process: the campaign runs its
//! checks one after another (`jobs 1`), and the isolated workload adds
//! at most one worker subprocess at a time.

mod procfs;
mod trace;
mod workload;

use autocc_bench::{run_campaign, CampaignOptions, CampaignStats, CampaignTask};
use autocc_bmc::{CheckConfig, ContentKey};
use autocc_core::{format_table_stable, PropertyVerdict, RowStatus, TableRow};
use autocc_journal::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Built, Workload};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --out-dir DIR
                 [--trace] [--depth N]";

/// Resume samples per run, at least. One follows every campaign pass;
/// when the run has fewer passes than this, the rest follow the last one.
/// Every resume pass is set up afresh, so set-up samples come with them.
const MIN_RESUME_SAMPLES: usize = 10;

/// One resume sample runs back-to-back resume passes for about this long
/// and reports their mean, so a pass of a few milliseconds is not timed
/// from one cold start alone.
const RESUME_SAMPLE: Duration = Duration::from_millis(300);

/// Parsed command line.
pub struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    out_dir: PathBuf,
    trace: bool,
    depth: Option<usize>,
}

impl Args {
    fn depth(&self) -> usize {
        self.depth.unwrap_or(self.workload.depth)
    }

    /// The workload's tasks in the seed's order. The seed permutes task
    /// order only; no verdict depends on it.
    fn tasks(&self) -> Vec<CampaignTask> {
        let tasks = self.workload.tasks();
        let order = workload::permutation(tasks.len(), self.seed);
        workload::reorder(tasks, &order)
    }

    /// Where the run keeps the journal its resume passes serve from.
    fn journal_path(&self) -> PathBuf {
        self.out_dir.join(format!(
            "{}-{}.journal",
            self.workload.name,
            std::process::id()
        ))
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut out_dir = None;
    let mut trace = false;
    let mut depth = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a non-negative number")?,
                )
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--trace" => trace = true,
            "--depth" => {
                depth = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|&d: &usize| d >= 1)
                        .ok_or("--depth needs a positive integer")?,
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
        trace,
        depth,
    })
}

fn main() {
    // Isolated campaigns spawn `current_exe() worker`: answer that first.
    autocc_bench::maybe_run_worker();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let result = if args.trace {
        trace::run(&args)
    } else {
        timed(&args)
    };
    let _ = std::fs::remove_file(args.journal_path());
    match result {
        Ok(json) => println!("{}", json.to_string_compact()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One `run_campaign` call and what it produced.
pub struct Pass {
    /// `campaign`, `journal`, `resume`, `traced`, `in-process` or
    /// `reference`.
    kind: &'static str,
    /// Wall time of the `run_campaign` call.
    pub wall: Duration,
    /// CPU ticks the process and its reaped children spent in the pass.
    cpu_ticks: Option<u64>,
    rows: Vec<TableRow>,
    stats: CampaignStats,
}

/// Takes resume samples: each runs back-to-back resume passes for about
/// `RESUME_SAMPLE`, a count fixed by the first sample, and reports their
/// mean.
#[derive(Default)]
struct ResumeSampler {
    passes_per_sample: Option<usize>,
}

impl ResumeSampler {
    fn sample(
        &mut self,
        args: &Args,
        config: &CheckConfig,
        setups: &mut Vec<Duration>,
    ) -> Result<Pass, String> {
        let options = campaign_options(args, Journaling::Resume);
        let n = self.passes_per_sample.unwrap_or(1);
        let mut passes = Vec::with_capacity(n);
        for _ in 0..n {
            let (tasks, setup) = workload::set_up(args.tasks());
            setups.push(setup);
            passes.push(campaign_pass(
                "resume",
                args.workload.name,
                tasks,
                config,
                &options,
            )?);
        }
        let sample = Pass::mean(passes);
        self.passes_per_sample.get_or_insert_with(|| {
            (RESUME_SAMPLE.as_secs_f64() / sample.wall.as_secs_f64())
                .ceil()
                .clamp(1.0, 1000.0) as usize
        });
        Ok(sample)
    }
}

impl Pass {
    /// Back-to-back passes of one kind as one: mean wall and CPU time,
    /// the last pass's rows, the fewest records any pass served from the
    /// cache, and every live or stale check any pass ran.
    fn mean(passes: Vec<Pass>) -> Pass {
        let n = passes.len() as u32;
        let wall = passes.iter().map(|p| p.wall).sum::<Duration>() / n;
        let cpu_ticks = passes
            .iter()
            .map(|p| p.cpu_ticks)
            .sum::<Option<u64>>()
            .map(|t| t / u64::from(n));
        let stats = CampaignStats {
            cached: passes.iter().map(|p| p.stats.cached).min().unwrap_or(0),
            live: passes.iter().map(|p| p.stats.live).sum(),
            stale: passes.iter().map(|p| p.stats.stale).sum(),
            ..CampaignStats::default()
        };
        let last = passes.into_iter().last().expect("a sample has a pass");
        Pass {
            wall,
            cpu_ticks,
            stats,
            ..last
        }
    }

    fn to_json(&self, title: &str) -> Json {
        obj(vec![
            ("kind", Json::Str(self.kind.to_string())),
            ("wall_us", micros(self.wall)),
            ("cpu_ticks", self.cpu_ticks.map_or(Json::Null, Json::Num)),
            ("cached", Json::Num(self.stats.cached)),
            ("live", Json::Num(self.stats.live)),
            ("stale", Json::Num(self.stats.stale)),
            ("table", Json::Str(format_table_stable(title, &self.rows))),
            ("rows", Json::Arr(self.rows.iter().map(row_json).collect())),
        ])
    }
}

/// Times one campaign over already set-up tasks.
pub fn campaign_pass(
    kind: &'static str,
    name: &str,
    tasks: Vec<CampaignTask>,
    config: &CheckConfig,
    options: &CampaignOptions,
) -> Result<Pass, String> {
    let cpu_before = procfs::cpu_ticks();
    let start = Instant::now();
    let outcome = run_campaign(name, tasks, config, options).map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    let cpu_ticks = cpu_before
        .zip(procfs::cpu_ticks())
        .map(|(before, after)| after.saturating_sub(before));
    Ok(Pass {
        kind,
        wall,
        cpu_ticks,
        rows: outcome.rows,
        stats: outcome.stats,
    })
}

/// How a campaign pass uses the workload's journal.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Journaling {
    /// No journal.
    Off,
    /// Write a fresh journal.
    Write,
    /// Serve from the journal written before.
    Resume,
}

/// Campaign options for a pass with the given journal use.
pub fn campaign_options(args: &Args, journaling: Journaling) -> CampaignOptions {
    if journaling == Journaling::Off {
        return CampaignOptions::off();
    }
    CampaignOptions {
        journal: Some(args.journal_path()),
        fresh: journaling == Journaling::Write,
        resume: journaling == Journaling::Resume,
        ..CampaignOptions::off()
    }
}

/// The journal use of the workload's measured campaign passes.
pub fn measured_journaling(w: &Workload) -> Journaling {
    if w.journal_measured {
        Journaling::Write
    } else {
        Journaling::Off
    }
}

/// The timed run. Rounds of set-up, campaign pass and resume sample
/// repeat while the next round is expected to end within `--seconds` (at
/// least one round); then resume samples run back to back up to
/// `MIN_RESUME_SAMPLES`.
fn timed(args: &Args) -> Result<Json, String> {
    let w = args.workload;
    let config = w.config(args.depth());
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let mut resume = ResumeSampler::default();
    if !w.journal_measured {
        // Written first, so resume samples can follow every measured pass.
        let (tasks, _) = workload::set_up(args.tasks());
        let options = campaign_options(args, Journaling::Write);
        passes.push(campaign_pass("journal", w.name, tasks, &config, &options)?);
    }
    let start = Instant::now();
    let measured = campaign_options(args, measured_journaling(w));
    let mut resumes = 0;
    loop {
        let round = Instant::now();
        let (tasks, setup) = workload::set_up(args.tasks());
        setups.push(setup);
        passes.push(campaign_pass(
            "campaign", w.name, tasks, &config, &measured,
        )?);
        passes.push(resume.sample(args, &config, &mut setups)?);
        resumes += 1;
        if (start.elapsed() + round.elapsed()).as_secs_f64() > args.seconds {
            break;
        }
    }
    while resumes < MIN_RESUME_SAMPLES {
        passes.push(resume.sample(args, &config, &mut setups)?);
        resumes += 1;
    }
    // Read before the reference run below, so the peak is this
    // workload's own.
    let peak_rss_kb = procfs::peak_rss_kb();
    let mut verdicts = Vec::new();
    if w.isolate {
        let (pass, compared) = reference(args)?;
        passes.push(pass);
        verdicts = compared;
    }
    Ok(obj(vec![
        ("mode", Json::Str("timed".to_string())),
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::Num(args.seed)),
        ("depth", Json::Num(args.depth() as u64)),
        (
            "setup_us",
            Json::Arr(setups.iter().map(|&d| micros(d)).collect()),
        ),
        ("peak_rss_kb", peak_rss_kb.map_or(Json::Null, Json::Num)),
        ("clusters", cluster_counts(args)),
        ("verdicts", Json::Arr(verdicts)),
        (
            "passes",
            Json::Arr(passes.iter().map(|p| p.to_json(w.name)).collect()),
        ),
    ]))
}

/// Clusters each task's plan holds (empty at monolithic granularity).
pub fn cluster_counts(args: &Args) -> Json {
    let config = args.workload.config(args.depth());
    let counts = args
        .tasks()
        .into_iter()
        .map(Built::new)
        .filter_map(|b| {
            let plan = b.ft.cluster_plan(&config)?;
            Some((b.id, Json::Num(plan.clusters.len() as u64)))
        })
        .collect();
    Json::Obj(counts)
}

/// The in-process reference for the isolated workload: the same tasks
/// through `run_campaign` in-process, journaled to a journal of its own.
/// Its rows form the reference table. Per row, the isolated campaign's
/// journal must hold the same cluster records (content keys) as the
/// reference journal, each with an identical verdict map.
fn reference(args: &Args) -> Result<(Pass, Vec<Json>), String> {
    let w = args.workload;
    let path = args
        .out_dir
        .join(format!("{}-{}.reference", w.name, std::process::id()));
    let options = CampaignOptions {
        journal: Some(path.clone()),
        fresh: true,
        ..CampaignOptions::off()
    };
    let (tasks, _) = workload::set_up(args.tasks());
    let in_process = w.in_process_config(args.depth());
    let pass = campaign_pass("reference", w.name, tasks, &in_process, &options);
    let want = journal_records(&path);
    let _ = std::fs::remove_file(&path);
    let (pass, want) = (pass?, want?);
    let got = journal_records(&args.journal_path())?;
    let compared = pass
        .rows
        .iter()
        .map(|row| {
            let records = want.get(&row.id);
            obj(vec![
                ("id", Json::Str(row.id.clone())),
                ("records", Json::Num(records.map_or(0, |r| r.len() as u64))),
                (
                    "identical",
                    Json::Bool(records.is_some() && records == got.get(&row.id)),
                ),
            ])
        })
        .collect();
    Ok((pass, compared))
}

/// A journal's records by table row: each cluster record's content key
/// and verdict map. Record ids are `<row id>:<cluster label>`.
fn journal_records(path: &Path) -> Result<Records, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let recovered = autocc_journal::recover(&bytes).map_err(|e| e.to_string())?;
    let mut rows = Records::new();
    for entry in recovered.entries {
        let row = entry.id.split_once(':').map_or(&*entry.id, |(row, _)| row);
        rows.entry(row.to_string())
            .or_default()
            .insert(entry.key, entry.report.verdicts);
    }
    Ok(rows)
}

type Records = BTreeMap<String, BTreeMap<ContentKey, Vec<(String, PropertyVerdict)>>>;

fn row_json(row: &TableRow) -> Json {
    let status = match row.status {
        RowStatus::Ok => "ok",
        RowStatus::Unknown => "unknown",
        RowStatus::Failed => "failed",
        RowStatus::Quarantined => "quarantined",
    };
    obj(vec![
        ("id", Json::Str(row.id.clone())),
        ("outcome", Json::Str(row.outcome.clone())),
        (
            "depth",
            row.depth.map_or(Json::Null, |d| Json::Num(d as u64)),
        ),
        ("status", Json::Str(status.to_string())),
        ("certified", Json::Bool(row.certificate.is_certified())),
        ("cached", Json::Bool(row.cached)),
    ])
}

/// A JSON object from borrowed keys.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A duration in whole microseconds.
pub fn micros(d: Duration) -> Json {
    Json::Num(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}
