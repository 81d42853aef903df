//! The traced run: one workload campaign under a `ProfileRecorder`,
//! next to untraced ones for the tracing overhead.
//!
//! The benchmark opens its own spans around each public call it makes
//! (`build_*`, `generate`, `cluster_plan`, `cluster_keys`,
//! `run_campaign`); inside a check the phases come from the program's
//! existing telemetry, attached through `CheckConfig::telemetry`. The
//! isolated workload also times `Journal::resume`/`append` over its own
//! journal and the IPC codec over its own cluster requests. Spans stay
//! in memory and go to a JSON-lines file when the run ends; every span
//! of one table row carries that row's id.

use crate::workload::{self, Built};
use crate::{
    campaign_options, campaign_pass, cluster_counts, measured_journaling, obj, Args, Journaling,
};
use autocc_bench::CampaignOptions;
use autocc_journal::ipc::{parse_request, read_frame, request_json, write_frame};
use autocc_journal::json::Json;
use autocc_journal::Journal;
use autocc_telemetry::{ProfileRecorder, ProfileSpan, RunProfile, SpanKind, Telemetry};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Runs the traced measurement and returns the raw result line.
pub fn run(args: &Args) -> Result<Json, String> {
    let w = args.workload;
    let config = w.config(args.depth());
    let ids: Vec<String> = args.tasks().into_iter().map(|t| t.id).collect();
    let mut passes = Vec::new();

    // The tracing overhead is measured against the mean of the untraced
    // passes: one before the traced pass, and one after it when a pass is
    // shorter than `--seconds`, so a short traced pass is not compared
    // with a cold one alone. A long pass needs no second one: warming up
    // is a small part of it.
    let options = campaign_options(args, measured_journaling(w));
    let untraced = || {
        let (tasks, _) = workload::set_up(args.tasks());
        campaign_pass("campaign", w.name, tasks, &config, &options)
    };
    let first = untraced()?;
    let short = first.wall.as_secs_f64() < args.seconds;
    passes.push(first);

    let recorder = Arc::new(ProfileRecorder::new());
    let root = Telemetry::root(recorder.clone(), w.name);
    let setup = root.child(SpanKind::Phase, "setup");
    let mut tasks = Vec::new();
    for task in args.tasks() {
        let row = setup.child(SpanKind::Experiment, &task.id);
        let (name, build_dut) = workload::dut_builder(&task.id);
        let span = row.child(SpanKind::Phase, name);
        build_dut();
        span.close();
        let span = row.child(SpanKind::Phase, "generate");
        let built = Built::new(task);
        span.close();
        let span = row.child(SpanKind::Phase, "cluster_plan");
        let plan = built.ft.cluster_plan(&config);
        span.close();
        if let Some(plan) = plan {
            span.gauge("clusters", plan.clusters.len() as u64);
            span.gauge("properties", plan.num_properties() as u64);
            let bits: usize = plan.clusters.iter().map(|c| c.cone_bits()).sum();
            span.gauge("cone_bits", bits as u64);
            let span = row.child(SpanKind::Phase, "cluster_keys");
            black_box(built.ft.cluster_keys(&plan, &config, built.mode));
            span.close();
        }
        row.close();
        tasks.push(built.into_task());
    }
    setup.close();

    let span = root.child(SpanKind::Phase, "run_campaign");
    let traced_config = config.clone().telemetry(span.clone());
    let pass = campaign_pass("traced", w.name, tasks, &traced_config, &options)?;
    span.close();
    passes.push(pass);
    if short {
        passes.push(untraced()?);
    }

    if !w.journal_measured {
        let (tasks, _) = workload::set_up(args.tasks());
        let options = campaign_options(args, Journaling::Write);
        passes.push(campaign_pass("journal", w.name, tasks, &config, &options)?);
    }
    let span = root.child(SpanKind::Phase, "resume");
    let resume_config = config.clone().telemetry(span.clone());
    let (tasks, _) = workload::set_up(args.tasks());
    let options = campaign_options(args, Journaling::Resume);
    let pass = campaign_pass("resume", w.name, tasks, &resume_config, &options)?;
    span.close();
    span.gauge("cached", pass.stats.cached);
    span.gauge("live", pass.stats.live);
    passes.push(pass);
    time_journal(&root, &args.journal_path(), &args.out_dir)?;

    if w.isolate {
        time_ipc(&root, args)?;
        // The same tasks in-process: the per-job cost of isolation is
        // the difference between the two campaigns.
        let (tasks, _) = workload::set_up(args.tasks());
        let in_process = w.in_process_config(args.depth());
        passes.push(campaign_pass(
            "in-process",
            w.name,
            tasks,
            &in_process,
            &CampaignOptions::off(),
        )?);
    }
    root.close();

    let path = args
        .out_dir
        .join(format!("trace-{}-{}.jsonl", w.name, args.seed));
    write_spans(&recorder.profile(), &ids, &path)?;
    Ok(obj(vec![
        ("mode", Json::Str("trace".to_string())),
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::Num(args.seed)),
        ("depth", Json::Num(args.depth() as u64)),
        ("trace", Json::Str(path.display().to_string())),
        ("clusters", cluster_counts(args)),
        (
            "passes",
            Json::Arr(passes.iter().map(|p| p.to_json(w.name)).collect()),
        ),
    ]))
}

/// Times recovery of the campaign's journal (`Journal::resume`) and
/// durable re-appending of every record it holds into a fresh journal.
fn time_journal(root: &Telemetry, journal: &Path, out_dir: &Path) -> Result<(), String> {
    let span = root.child(SpanKind::Phase, "journal_resume");
    let (handle, recovered) = Journal::resume(journal).map_err(|e| e.to_string())?;
    span.close();
    drop(handle);
    span.gauge("records", recovered.entries.len() as u64);
    let bytes = std::fs::metadata(journal).map_err(|e| e.to_string())?.len();
    span.gauge("bytes", bytes);

    let copy = out_dir.join(format!("append-{}.journal", std::process::id()));
    let span = root.child(SpanKind::Phase, "journal_append");
    let appended = Journal::create(&copy, &recovered.header).and_then(|mut j| {
        recovered
            .entries
            .iter()
            .try_for_each(|entry| j.append(entry))
    });
    span.close();
    span.gauge("records", recovered.entries.len() as u64);
    let _ = std::fs::remove_file(&copy);
    appended.map_err(|e| e.to_string())
}

/// Times the worker IPC codec on this workload's own cluster requests:
/// `request_json` + `write_frame` to encode, `read_frame` +
/// `parse_request` to decode. The requests are the ones an isolated
/// cluster job ships (full miter, member properties, class constraints,
/// sliced config).
fn time_ipc(root: &Telemetry, args: &Args) -> Result<(), String> {
    let config = args.workload.config(args.depth()).slice(true);
    let built: Vec<Built> = args.tasks().into_iter().map(Built::new).collect();
    let mut specs = Vec::new();
    for b in &built {
        let Some(plan) = b.ft.cluster_plan(&config) else {
            continue;
        };
        for cluster in plan.clusters {
            let properties: Vec<_> = cluster
                .members
                .iter()
                .map(|&i| b.ft.properties()[i].clone())
                .collect();
            let constraints = b.ft.class_constraints(&properties[0].0);
            specs.push((&b.ft, properties, constraints));
        }
    }

    let span = root.child(SpanKind::Phase, "ipc_encode");
    let mut frames = Vec::with_capacity(specs.len());
    for (ft, properties, constraints) in &specs {
        let request = request_json("bmc", ft.miter(), properties, constraints, &config);
        let mut frame = Vec::new();
        write_frame(&mut frame, &request).map_err(|e| e.to_string())?;
        frames.push(frame);
    }
    span.close();
    span.gauge("requests", frames.len() as u64);
    span.gauge("bytes", frames.iter().map(|f| f.len() as u64).sum());

    let span = root.child(SpanKind::Phase, "ipc_decode");
    for frame in &frames {
        let mut input: &[u8] = frame;
        let request = read_frame(&mut input)
            .map_err(|e| e.to_string())?
            .ok_or("empty IPC frame")?;
        black_box(parse_request(&request)?);
    }
    span.close();
    Ok(())
}

/// Writes one JSON line per span. A span's `row` is the table row it
/// belongs to: set-up rows are named by their task id, and the k-th
/// experiment span under a campaign is the k-th task (`jobs 1` runs
/// tasks in order); every other span inherits its parent's row.
fn write_spans(profile: &RunProfile, ids: &[String], path: &Path) -> Result<(), String> {
    let by_id: HashMap<u32, &ProfileSpan> = profile.spans.iter().map(|s| (s.id, s)).collect();
    let mut rows: HashMap<u32, String> = HashMap::new();
    let mut experiments_seen: HashMap<u32, usize> = HashMap::new();
    let mut out = String::new();
    // Ids follow creation order, so a parent's row is known before its
    // children are visited.
    for span in &profile.spans {
        let parent = by_id.get(&span.parent);
        let row = if span.kind == SpanKind::Experiment {
            match parent.map(|p| p.name.as_str()) {
                Some("setup") => Some(span.name.clone()),
                _ => {
                    let k = experiments_seen.entry(span.parent).or_insert(0);
                    *k += 1;
                    ids.get(*k - 1).cloned()
                }
            }
        } else {
            rows.get(&span.parent).cloned()
        };
        if let Some(row) = &row {
            rows.insert(span.id, row.clone());
        }
        let c = &span.counters;
        let line = obj(vec![
            ("id", Json::Num(u64::from(span.id))),
            ("parent", Json::Num(u64::from(span.parent))),
            ("row", row.map_or(Json::Null, Json::Str)),
            ("kind", Json::Str(span.kind.as_str().to_string())),
            ("name", Json::Str(span.name.clone())),
            ("start_us", Json::Num(span.start_us)),
            ("end_us", Json::Num(span.end_us)),
            (
                "counters",
                obj(vec![
                    ("solve_calls", Json::Num(c.solve_calls)),
                    ("conflicts", Json::Num(c.conflicts)),
                    ("decisions", Json::Num(c.decisions)),
                    ("propagations", Json::Num(c.propagations)),
                    ("learnt_clauses", Json::Num(c.learnt_clauses)),
                    ("deleted_clauses", Json::Num(c.deleted_clauses)),
                ]),
            ),
            (
                "gauges",
                Json::Obj(
                    span.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ]);
        out.push_str(&line.to_string_compact());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
