//! In-memory span capture and the versioned JSON run profile.
//!
//! [`ProfileRecorder`] is the enabled implementation of
//! [`Recorder`](crate::Recorder): it timestamps spans against a monotonic
//! origin and keeps the tree in a mutex-protected vector (span ids are
//! 1-based indices, so a parent always precedes its children).
//! [`RunProfile`] is a snapshot of that tree plus aggregate rollups,
//! serialised by hand to JSON — the build environment has no serde — and
//! re-parsed by [`validate_profile_json`] for schema checks in tests/CI.

use crate::json::{quote, Json};
use crate::{Recorder, SolverCounters, SpanId, SpanKind};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Version stamp of the profile JSON schema.
pub const PROFILE_VERSION: u32 = 1;

struct SpanRecord {
    parent: SpanId,
    kind: SpanKind,
    name: String,
    start_us: u64,
    end_us: Option<u64>,
    counters: SolverCounters,
    gauges: Vec<(String, u64)>,
}

/// Captures the span tree in memory; snapshot with
/// [`ProfileRecorder::profile`].
pub struct ProfileRecorder {
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl ProfileRecorder {
    /// A recorder whose timestamps count from "now".
    pub fn new() -> ProfileRecorder {
        ProfileRecorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Snapshots the tree into a profile. Spans still open are closed at
    /// the snapshot instant (in the snapshot only — recording continues).
    pub fn profile(&self) -> RunProfile {
        let now = self.now_us();
        let spans = self.spans.lock().unwrap();
        let out: Vec<ProfileSpan> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| ProfileSpan {
                id: (i + 1) as u32,
                parent: s.parent.0,
                kind: s.kind,
                name: s.name.clone(),
                start_us: s.start_us,
                end_us: s.end_us.unwrap_or(now),
                counters: s.counters,
                gauges: s.gauges.clone(),
            })
            .collect();
        RunProfile::from_spans(out)
    }
}

impl Default for ProfileRecorder {
    fn default() -> ProfileRecorder {
        ProfileRecorder::new()
    }
}

impl Recorder for ProfileRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, parent: SpanId, kind: SpanKind, name: &str) -> SpanId {
        let start_us = self.now_us();
        let mut spans = self.spans.lock().unwrap();
        spans.push(SpanRecord {
            parent,
            kind,
            name: name.to_string(),
            start_us,
            end_us: None,
            counters: SolverCounters::default(),
            gauges: Vec::new(),
        });
        SpanId(spans.len() as u32)
    }

    fn span_end(&self, span: SpanId) {
        let end_us = self.now_us();
        let mut spans = self.spans.lock().unwrap();
        if let Some(s) = span
            .0
            .checked_sub(1)
            .and_then(|i| spans.get_mut(i as usize))
        {
            if s.end_us.is_none() {
                s.end_us = Some(end_us);
            }
        }
    }

    fn counters(&self, span: SpanId, delta: &SolverCounters) {
        let mut spans = self.spans.lock().unwrap();
        if let Some(s) = span
            .0
            .checked_sub(1)
            .and_then(|i| spans.get_mut(i as usize))
        {
            s.counters += delta;
        }
    }

    fn gauge(&self, span: SpanId, key: &str, value: u64) {
        let mut spans = self.spans.lock().unwrap();
        if let Some(s) = span
            .0
            .checked_sub(1)
            .and_then(|i| spans.get_mut(i as usize))
        {
            match s.gauges.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => s.gauges.push((key.to_string(), value)),
            }
        }
    }
}

/// One closed span of a [`RunProfile`].
#[derive(Clone, Debug)]
pub struct ProfileSpan {
    /// 1-based id; parents always precede children.
    pub id: u32,
    /// Parent id, `0` for roots.
    pub parent: u32,
    /// Pipeline level.
    pub kind: SpanKind,
    /// Static label (`solve`, `cnf-encode`, a property name, ...).
    pub name: String,
    /// Microseconds since the recorder's origin.
    pub start_us: u64,
    /// Microseconds since the recorder's origin (`>= start_us`).
    pub end_us: u64,
    /// Solver work attributed to this span.
    pub counters: SolverCounters,
    /// Scalar annotations (`depth`, `queue_wait_us`, `attempt`, ...).
    pub gauges: Vec<(String, u64)>,
}

impl ProfileSpan {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Aggregate over all spans of one kind.
#[derive(Clone, Debug)]
pub struct KindRollup {
    /// The span kind.
    pub kind: SpanKind,
    /// How many spans of this kind.
    pub count: u64,
    /// Sum of their durations (overlapping spans sum, not union).
    pub total_us: u64,
}

/// Aggregate over all `Phase`/`Solve` spans sharing a name.
#[derive(Clone, Debug)]
pub struct PhaseRollup {
    /// Phase name (`bit-blast`, `coi-slice`, `cnf-encode`, `solve`,
    /// `certify`).
    pub name: String,
    /// How many spans carried this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_us: u64,
    /// Sum of their conflict counters.
    pub conflicts: u64,
}

/// A snapshot of one run: the span tree plus rollups, version-stamped.
#[derive(Clone, Debug)]
pub struct RunProfile {
    /// Schema version ([`PROFILE_VERSION`]).
    pub version: u32,
    /// Wall clock covered by the tree (max `end_us` over all spans).
    pub wall_us: u64,
    /// Sum of every span's counters (counters live on solve spans only,
    /// so this does not double-count).
    pub totals: SolverCounters,
    /// Per-kind rollup.
    pub kinds: Vec<KindRollup>,
    /// Per-phase rollup (phase and solve spans, grouped by name).
    pub phases: Vec<PhaseRollup>,
    /// The full span tree, id order.
    pub spans: Vec<ProfileSpan>,
}

impl RunProfile {
    /// Builds a profile (rollups included) from a finished span list.
    pub fn from_spans(spans: Vec<ProfileSpan>) -> RunProfile {
        let wall_us = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
        let mut totals = SolverCounters::default();
        for s in &spans {
            totals += &s.counters;
        }
        let kinds = SpanKind::ALL
            .iter()
            .filter_map(|&kind| {
                let of_kind: Vec<&ProfileSpan> = spans.iter().filter(|s| s.kind == kind).collect();
                if of_kind.is_empty() {
                    return None;
                }
                Some(KindRollup {
                    kind,
                    count: of_kind.len() as u64,
                    total_us: of_kind.iter().map(|s| s.duration_us()).sum(),
                })
            })
            .collect();
        let mut phases: Vec<PhaseRollup> = Vec::new();
        for s in &spans {
            if !matches!(s.kind, SpanKind::Phase | SpanKind::Solve) {
                continue;
            }
            match phases.iter_mut().find(|p| p.name == s.name) {
                Some(p) => {
                    p.count += 1;
                    p.total_us += s.duration_us();
                    p.conflicts += s.counters.conflicts;
                }
                None => phases.push(PhaseRollup {
                    name: s.name.clone(),
                    count: 1,
                    total_us: s.duration_us(),
                    conflicts: s.counters.conflicts,
                }),
            }
        }
        RunProfile {
            version: PROFILE_VERSION,
            wall_us,
            totals,
            kinds,
            phases,
            spans,
        }
    }

    /// The names present in the phase rollup.
    pub fn phase_names(&self) -> Vec<&str> {
        self.phases.iter().map(|p| p.name.as_str()).collect()
    }

    /// Serialises to the versioned JSON schema (see DESIGN.md
    /// "Observability").
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        let _ = writeln!(out, "  \"wall_us\": {},", self.wall_us);
        let _ = writeln!(out, "  \"totals\": {},", counters_json(&self.totals));
        out.push_str("  \"kinds\": [\n");
        for (i, k) in self.kinds.iter().enumerate() {
            let comma = if i + 1 < self.kinds.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"kind\": {}, \"count\": {}, \"total_us\": {}}}{comma}",
                quote(k.kind.as_str()),
                k.count,
                k.total_us
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 < self.phases.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"count\": {}, \"total_us\": {}, \"conflicts\": {}}}{comma}",
                quote(&p.name),
                p.count,
                p.total_us,
                p.conflicts
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let mut gauges = String::from("{");
            for (j, (k, v)) in s.gauges.iter().enumerate() {
                if j > 0 {
                    gauges.push_str(", ");
                }
                let _ = write!(gauges, "{}: {v}", quote(k));
            }
            gauges.push('}');
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"parent\": {}, \"kind\": {}, \"name\": {}, \
                 \"start_us\": {}, \"end_us\": {}, \"counters\": {}, \"gauges\": {gauges}}}{comma}",
                s.id,
                s.parent,
                quote(s.kind.as_str()),
                quote(&s.name),
                s.start_us,
                s.end_us,
                counters_json(&s.counters)
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

fn counters_json(c: &SolverCounters) -> String {
    format!(
        "{{\"solve_calls\": {}, \"conflicts\": {}, \"decisions\": {}, \"propagations\": {}, \
         \"restarts\": {}, \"learnt_clauses\": {}, \"deleted_clauses\": {}}}",
        c.solve_calls,
        c.conflicts,
        c.decisions,
        c.propagations,
        c.restarts,
        c.learnt_clauses,
        c.deleted_clauses
    )
}

/// Headline numbers extracted by [`validate_profile_json`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Schema version of the document.
    pub version: u32,
    /// Number of spans in the tree.
    pub span_count: usize,
    /// Wall clock covered, microseconds.
    pub wall_us: u64,
    /// Total solve calls across the run.
    pub solve_calls: u64,
    /// Total conflicts across the run.
    pub conflicts: u64,
    /// Names in the phase rollup, document order.
    pub phase_names: Vec<String>,
}

const COUNTER_KEYS: [&str; 7] = [
    "solve_calls",
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "learnt_clauses",
    "deleted_clauses",
];

fn check_counters(v: &Json, what: &str) -> Result<(), String> {
    for key in COUNTER_KEYS {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{what}: missing counter `{key}`"))?;
    }
    Ok(())
}

/// Parses and schema-checks a profile document, returning its headline
/// numbers. Errors name the first violated rule.
pub fn validate_profile_json(text: &str) -> Result<ProfileSummary, String> {
    let doc = Json::parse(text)?;
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("missing `version`")?;
    if version != u64::from(PROFILE_VERSION) {
        return Err(format!(
            "unsupported profile version {version} (expected {PROFILE_VERSION})"
        ));
    }
    let wall_us = doc
        .get("wall_us")
        .and_then(Json::as_u64)
        .ok_or("missing `wall_us`")?;
    let totals = doc.get("totals").ok_or("missing `totals`")?;
    check_counters(totals, "totals")?;

    let phases = doc
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("missing `phases` array")?;
    let mut phase_names = Vec::new();
    for (i, p) in phases.iter().enumerate() {
        let name = p
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("phases[{i}]: missing `name`"))?;
        for key in ["count", "total_us", "conflicts"] {
            p.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("phases[{i}]: missing `{key}`"))?;
        }
        phase_names.push(name.to_string());
    }

    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing `spans` array")?;
    if spans.is_empty() {
        return Err("empty `spans` array (a profile has at least a run span)".to_string());
    }
    for (i, s) in spans.iter().enumerate() {
        let id = s
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spans[{i}]: missing `id`"))?;
        if id != (i + 1) as u64 {
            return Err(format!(
                "spans[{i}]: id {id} out of order (expected {})",
                i + 1
            ));
        }
        let parent = s
            .get("parent")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spans[{i}]: missing `parent`"))?;
        if parent >= id {
            return Err(format!(
                "spans[{i}]: parent {parent} does not precede span {id}"
            ));
        }
        let kind = s
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("spans[{i}]: missing `kind`"))?;
        if SpanKind::parse(kind).is_none() {
            return Err(format!("spans[{i}]: unknown kind `{kind}`"));
        }
        s.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("spans[{i}]: missing `name`"))?;
        let start = s
            .get("start_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spans[{i}]: missing `start_us`"))?;
        let end = s
            .get("end_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spans[{i}]: missing `end_us`"))?;
        if end < start {
            return Err(format!("spans[{i}]: end_us {end} before start_us {start}"));
        }
        let counters = s
            .get("counters")
            .ok_or_else(|| format!("spans[{i}]: missing `counters`"))?;
        check_counters(counters, &format!("spans[{i}].counters"))?;
    }

    Ok(ProfileSummary {
        version: PROFILE_VERSION,
        span_count: spans.len(),
        wall_us,
        solve_calls: totals
            .get("solve_calls")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        conflicts: totals.get("conflicts").and_then(Json::as_u64).unwrap_or(0),
        phase_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanKind, Telemetry};
    use std::sync::Arc;

    fn sample_profile() -> RunProfile {
        let recorder = Arc::new(ProfileRecorder::new());
        let run = Telemetry::root(
            Arc::clone(&recorder) as Arc<dyn crate::Recorder>,
            "test-run",
        );
        let check = run.child(SpanKind::Check, "as__y_eq");
        let encode = check.child(SpanKind::Phase, "cnf-encode");
        encode.close();
        let solve = check.child(SpanKind::Solve, "solve");
        solve.gauge("depth", 3);
        solve.gauge("depth", 4);
        solve.counters(&SolverCounters {
            solve_calls: 1,
            conflicts: 42,
            decisions: 10,
            ..SolverCounters::default()
        });
        solve.close();
        check.close();
        run.close();
        recorder.profile()
    }

    #[test]
    fn recorder_builds_a_well_formed_tree() {
        let p = sample_profile();
        assert_eq!(p.version, PROFILE_VERSION);
        assert_eq!(p.spans.len(), 4);
        assert_eq!(p.spans[0].kind, SpanKind::Run);
        assert_eq!(p.spans[0].parent, 0);
        assert_eq!(p.spans[1].parent, p.spans[0].id);
        assert_eq!(p.spans[3].name, "solve");
        // Gauges overwrite on re-record.
        assert_eq!(p.spans[3].gauges, vec![("depth".to_string(), 4)]);
        assert_eq!(p.totals.conflicts, 42);
        assert_eq!(p.totals.solve_calls, 1);
        assert!(p.phase_names().contains(&"cnf-encode"));
        assert!(p.phase_names().contains(&"solve"));
    }

    #[test]
    fn json_round_trips_through_the_validator() {
        let p = sample_profile();
        let json = p.to_json();
        let summary = validate_profile_json(&json).expect("emitted profile validates");
        assert_eq!(summary.version, PROFILE_VERSION);
        assert_eq!(summary.span_count, 4);
        assert_eq!(summary.conflicts, 42);
        assert_eq!(summary.solve_calls, 1);
        assert!(summary.phase_names.iter().any(|n| n == "cnf-encode"));
    }

    #[test]
    fn validator_rejects_schema_violations() {
        assert!(validate_profile_json("not json").is_err());
        assert!(validate_profile_json("{}").unwrap_err().contains("version"));
        // 4294967297 is 2^32 + 1: it must not narrow to version 1.
        for wrong in ["999", "4294967297"] {
            let wrong_version = sample_profile().to_json().replacen(
                "\"version\": 1",
                &format!("\"version\": {wrong}"),
                1,
            );
            assert!(validate_profile_json(&wrong_version)
                .unwrap_err()
                .contains("version"));
        }
        let bad_parent = r#"{"version": 1, "wall_us": 0,
            "totals": {"solve_calls": 0, "conflicts": 0, "decisions": 0, "propagations": 0,
                       "restarts": 0, "learnt_clauses": 0, "deleted_clauses": 0},
            "kinds": [], "phases": [],
            "spans": [{"id": 1, "parent": 7, "kind": "run", "name": "x",
                       "start_us": 0, "end_us": 0,
                       "counters": {"solve_calls": 0, "conflicts": 0, "decisions": 0,
                                    "propagations": 0, "restarts": 0, "learnt_clauses": 0,
                                    "deleted_clauses": 0}, "gauges": {}}]}"#;
        assert!(validate_profile_json(bad_parent)
            .unwrap_err()
            .contains("parent"));
    }

    #[test]
    fn names_with_special_characters_survive() {
        let spans = vec![ProfileSpan {
            id: 1,
            parent: 0,
            kind: SpanKind::Run,
            name: "quote \" slash \\ tab \t".to_string(),
            start_us: 0,
            end_us: 1,
            counters: SolverCounters::default(),
            gauges: vec![("k".to_string(), 9)],
        }];
        let json = RunProfile::from_spans(spans).to_json();
        let summary = validate_profile_json(&json).expect("escaped names parse back");
        assert_eq!(summary.span_count, 1);
    }

    #[test]
    fn open_spans_are_closed_at_snapshot_time() {
        let recorder = ProfileRecorder::new();
        let id = recorder.span_start(SpanId::NONE, SpanKind::Run, "open");
        let p = recorder.profile();
        assert_eq!(p.spans.len(), 1);
        assert!(p.spans[0].end_us >= p.spans[0].start_us);
        // Recording continues after a snapshot.
        recorder.span_end(id);
        let p2 = recorder.profile();
        assert_eq!(p2.spans.len(), 1);
    }
}
