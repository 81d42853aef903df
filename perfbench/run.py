#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. It builds the measuring program
(`perfbench/src`, a Cargo package of its own) from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload in a fresh
process, checks every verdict against the known answers below, and prints
a stamped summary followed, as the last line, by one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end metrics of `BENCHMARK.json`; with `--trace 1`
they are its per-layer metrics, computed from the span file the traced
run writes. Exits 0 when every verdict is right, 1 when the gate trips,
and 2 when the program cannot be built or run (then no result is
printed).

`--self-test` runs every workload at depth 3 for one pass, checks that
every metric named in `BENCHMARK.json` is printed with its unit, and that
the gate trips on a deliberately wrong expectation.
"""

import argparse
import heapq
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """How long a run of `--seconds` may take before it is killed: one
    campaign pass can outlast `--seconds` (cex-search's takes about 30 s)."""
    return 2 * seconds + 150


# ---------------------------------------------------------------------
# Known answers, written by hand.
# ---------------------------------------------------------------------

# cex-search: the paper-contract CEX depth of each row and the assertion
# the stable table names as violated.
CEX_CONTRACT = {
    "C1": (12, "as__fetch_data_eq"),
    "C2": (9, "as__dmem_req_eq"),
    "C3": (9, "as__dmem_req_eq"),
    "M2": (8, "as__noc_req_addr_eq"),
    "M3": (8, "as__noc_req_addr_eq"),
    "A1": (9, "as__resp_valid_eq"),
    "V3/V4": (7, "as__imem_haddr_eq"),
}

# fix-certified: fixed designs stay clean to the bound; refined
# testbenches prove by 1-induction.
FIX_PROVED = {"A1 refined", "proof"}
FIX_CLEAN = {"C1-C3 fixed", "M2+M3 fixed"}

# attribution-sweep and isolated-journal: cone clusters per row at
# register granularity (Vscale V5: 283 properties in 11 clusters).
CLUSTERS = {
    "V5": 11, "C1": 14, "C2": 14, "C3": 14, "M2": 11, "M3": 11, "A1": 62,
    "V1": 11, "V3/V4": 11, "V2": 11,
}

EXPECTED = {
    "cex-search": set(CEX_CONTRACT),
    "fix-certified": FIX_PROVED | FIX_CLEAN,
    "attribution-sweep": set(CLUSTERS),
    "isolated-journal": set(CLUSTERS),
}


def expected_row(workload, row_id, depth):
    """The (outcome label, CEX depth) a row must show at check depth
    `depth`."""
    if workload == "cex-search":
        cex_depth, prop = CEX_CONTRACT[row_id]
        if cex_depth <= depth:
            return f"CEX {prop}", cex_depth
        return f"clean@{depth}", None
    if workload == "fix-certified" and row_id in FIX_PROVED:
        return "proved (k=1)", None
    return f"clean@{depth}", None


# ---------------------------------------------------------------------
# The gate.
# ---------------------------------------------------------------------

def gate(raw, expected=expected_row):
    """Checks every row of every pass. Returns (attempted, failed,
    problems). A row fails when its outcome or depth is not the known
    answer, when it degraded, when it is uncertified under --certify,
    or when its pass broke an invariant (tables differ between passes,
    a resume ran a check live, isolation changed a verdict map)."""
    workload = raw["workload"]
    depth = raw["depth"]
    passes = raw["passes"]
    problems = []
    attempted = failed = 0
    first_table = passes[0]["table"]
    want_ids = EXPECTED[workload]
    plan = raw.get("clusters", {})
    for p in passes:
        pass_ok = True
        if p["table"] != first_table:
            pass_ok = False
            problems.append(f"{p['kind']} pass: stable table differs from the first pass")
        if p["kind"] == "resume":
            records = sum(plan.values()) if plan else len(p["rows"])
            if p["live"] or p["stale"] or p["cached"] != records:
                pass_ok = False
                problems.append(
                    f"resume pass: {p['cached']} cached, {p['live']} live, "
                    f"{p['stale']} stale (want {records} cached, 0 live, 0 stale)")
        if {r["id"] for r in p["rows"]} != want_ids:
            pass_ok = False
            problems.append(f"{p['kind']} pass: rows {sorted(r['id'] for r in p['rows'])}")
        for row in p["rows"]:
            attempted += 1
            ok = pass_ok and row["status"] == "ok"
            if row["id"] in want_ids:
                label, cex_depth = expected(workload, row["id"], depth)
                if (row["outcome"], row["depth"]) != (label, cex_depth):
                    ok = False
                    problems.append(
                        f"{p['kind']} {row['id']}: {row['outcome']} depth {row['depth']} "
                        f"(want {label} depth {cex_depth})")
            if workload == "fix-certified" and p["kind"] != "reference" and not row["certified"]:
                ok = False
                problems.append(f"{p['kind']} {row['id']}: uncertified under --certify")
            if plan and plan.get(row["id"]) != CLUSTERS.get(row["id"]):
                ok = False
                problems.append(
                    f"{row['id']}: {plan.get(row['id'])} clusters (want {CLUSTERS.get(row['id'])})")
            failed += 0 if ok else 1
    for v in raw.get("verdicts", []):
        attempted += 1
        if not v["identical"]:
            failed += 1
            problems.append(f"{v['id']}: isolated verdict map differs from in-process")
    return attempted, failed, problems


# ---------------------------------------------------------------------
# End-to-end metrics (--trace 0).
# ---------------------------------------------------------------------

def end_to_end(raw):
    """The end-to-end metrics, as {name: (value, unit)}. A metric whose
    source is missing (no /proc) is left out, never reported as 0."""
    campaigns = [p for p in raw["passes"] if p["kind"] == "campaign"]
    resumes = [p for p in raw["passes"] if p["kind"] == "resume"]
    metrics = {
        "setup_s": (statistics.median(raw["setup_us"]) / 1e6, "s"),
        "campaign_s": (statistics.median(p["wall_us"] for p in campaigns) / 1e6, "s"),
        "resume_s": (statistics.median(p["wall_us"] for p in resumes) / 1e6, "s"),
    }
    ticks = [p["cpu_ticks"] for p in campaigns]
    if ticks and None not in ticks:
        metrics["cpu_s"] = (statistics.median(ticks) / os.sysconf("SC_CLK_TCK"), "s")
    if raw["peak_rss_kb"] is not None:
        metrics["peak_rss_mb"] = (raw["peak_rss_kb"] / 1024, "MB")
    return metrics


# ---------------------------------------------------------------------
# Per-layer metrics (--trace 1).
# ---------------------------------------------------------------------

# The one table from span names to layers. `certify` is CEX extraction
# and replay on the interpreter; `certify-unsat` is the DRAT check. A
# name missing here is reported as a layer of its own, so a renamed phase
# shows up as a new row instead of a silent zero.
PHASE_LAYER = {
    "bit-blast": "aig",
    "coi-slice": "aig",
    "cnf-encode": "aig",
    "solve": "sat",
    "certify": "core",
    "certify-unsat": "bmc",
    "journal-replay": "journal",
}
# The benchmark's own spans around the public calls it makes.
BENCH_LAYER = {
    "setup": "bench",
    "build_vscale": "duts",
    "build_cva6": "duts",
    "build_maple": "duts",
    "build_aes": "duts",
    "generate": "core",
    "cluster_plan": "core",
    "cluster_keys": "bmc",
    "run_campaign": "bench",
    "resume": "bench",
    "journal_resume": "journal",
    "journal_append": "journal",
    "ipc_encode": "ipc",
    "ipc_decode": "ipc",
}
LAYER_OF_NAME = {**PHASE_LAYER, **BENCH_LAYER}
# Spans the program opens around whole units of work.
LAYER_OF_KIND = {"run": "bench", "experiment": "bench", "check": "core", "attempt": "bmc"}
SHARE_LAYERS = ["core", "aig", "sat", "bmc", "journal", "bench"]


def layer_of(span):
    if span["kind"] in ("phase", "solve"):
        return LAYER_OF_NAME.get(span["name"], span["name"])
    if span["kind"] == "attempt" and "worker_spawned" in span["gauges"]:
        return "bench"  # the supervisor waiting on an isolated worker
    return LAYER_OF_KIND.get(span["kind"], span["kind"])


def exclusive_times(spans):
    """Each span's self time: its duration minus the time its children
    cover, where a span counts as covered while any span that started
    after it is still open. The program opens the check spans of a row's
    clusters together and closes them together, so a cluster's span also
    covers the time its queued siblings run; taking, at each instant, the
    latest-started open span splits the run without counting any instant
    twice. One thread works at a time (`jobs 1`), so that span is the one
    working."""
    events = []
    for s in spans:
        events.append((s["start_us"], 1, s["id"], s))
        events.append((s["end_us"], 0, s["id"], s))
    events.sort(key=lambda e: e[:3])
    open_spans, closed, out = [], set(), {s["id"]: 0 for s in spans}
    prev = None
    for t, starts, span_id, s in events:
        while open_spans and open_spans[0][2] in closed:
            heapq.heappop(open_spans)
        if open_spans and prev is not None:
            out[open_spans[0][2]] += t - prev
        if starts:
            heapq.heappush(open_spans, (-s["start_us"], -span_id, span_id))
        else:
            closed.add(span_id)
        prev = t
    return out


def subtree(spans, root_id):
    ids = {root_id}
    for s in spans:  # ids follow creation order: parents come first
        if s["parent"] in ids:
            ids.add(s["id"])
    return [s for s in spans if s["id"] in ids]


def per_layer(raw):
    """The per-layer metrics, as {name: (value, unit)}, plus the layer
    table of the traced campaign (every layer's self time, unknown span
    names included)."""
    spans = [json.loads(line) for line in Path(raw["trace"]).read_text().splitlines()]
    campaign = next(s for s in spans if s["name"] == "run_campaign")
    in_campaign = subtree(spans, campaign["id"])
    # The program's spans count in the traced campaign only.
    counted = {s["id"]: s for s in in_campaign}
    counted.update((s["id"], s) for s in spans if s["name"] in BENCH_LAYER)
    by_name = {}
    for s in counted.values():
        by_name.setdefault(s["name"], []).append(s)

    def ms(name):
        return sum(s["end_us"] - s["start_us"] for s in by_name.get(name, [])) / 1e3

    def count(name):
        return len(by_name.get(name, []))

    def gauge(name, key):
        return sum(s["gauges"].get(key, 0) for s in by_name.get(name, []))

    wall = {p["kind"]: p["wall_us"] for p in raw["passes"]}
    wall["campaign"] = statistics.mean(p["wall_us"] for p in raw["passes"] if p["kind"] == "campaign")
    selfs = exclusive_times(spans)
    layers = {}
    for s in in_campaign:
        layers[layer_of(s)] = layers.get(layer_of(s), 0) + selfs[s["id"]]
    traced_us = wall["traced"]

    solves = [s for s in in_campaign if s["kind"] == "solve"]
    counters = {k: sum(s["counters"][k] for s in solves)
                for k in ("solve_calls", "conflicts", "decisions", "propagations",
                          "learnt_clauses", "deleted_clauses")}
    solve_s = sum(s["end_us"] - s["start_us"] for s in solves) / 1e6
    # proof_steps is cumulative per checker: take the last value under
    # each parent span. A proof's base and step checkers share one span,
    # so for proofs this counts the larger of the two only.
    steps = {}
    for s in by_name.get("certify-unsat", []):
        steps[s["parent"]] = max(steps.get(s["parent"], 0), s["gauges"].get("proof_steps", 0))
    proof_steps = sum(steps.values())
    certify_unsat_s = ms("certify-unsat") / 1e3
    clusters = gauge("cluster_plan", "clusters")
    resume = by_name["resume"][0]["gauges"]
    served = resume.get("cached", 0) + resume.get("live", 0)
    workers = [s for s in in_campaign if s["kind"] == "attempt" and "worker_spawned" in s["gauges"]]
    jobs = len(workers)
    overhead = 0.0
    if jobs and "in-process" in wall:
        overhead = (wall["campaign"] - wall["in-process"]) / 1e3 / jobs
    bench_self = sum(selfs[s["id"]] for s in in_campaign
                     if s["kind"] == "experiment" or s["id"] == campaign["id"])

    metrics = {
        "duts.build_ms": (sum(ms(n) for n in by_name if n.startswith("build_")), "ms"),
        "core.generate_ms": (ms("generate") - sum(ms(n) for n in by_name if n.startswith("build_")), "ms"),
        "core.plan_ms": (ms("cluster_plan"), "ms"),
        "core.clusters": (clusters, "count"),
        "core.cone_bits_mean": (gauge("cluster_plan", "cone_bits") / clusters if clusters else 0.0, "bits"),
        "bmc.cache_key_ms": (ms("cluster_keys"), "ms"),
        "core.cex_replay_ms": (ms("certify"), "ms"),
        "core.cex_replays": (count("certify"), "count"),
        "aig.blast_ms": (ms("bit-blast"), "ms"),
        "aig.blasts": (count("bit-blast"), "count"),
        "aig.coi_ms": (ms("coi-slice"), "ms"),
        "aig.cnf_encode_ms": (ms("cnf-encode"), "ms"),
        "aig.cnf_encodes": (count("cnf-encode"), "count"),
        "sat.solve_ms": (solve_s * 1e3, "ms"),
        "sat.solve_calls": (counters["solve_calls"], "count"),
        "sat.conflicts": (counters["conflicts"], "count"),
        "sat.decisions": (counters["decisions"], "count"),
        "sat.propagations": (counters["propagations"], "count"),
        "sat.learnt_clauses": (counters["learnt_clauses"], "count"),
        "sat.deleted_clauses": (counters["deleted_clauses"], "count"),
        "sat.conflicts_per_s": (counters["conflicts"] / solve_s if solve_s else 0.0, "1/s"),
        "sat.propagations_per_s": (counters["propagations"] / solve_s if solve_s else 0.0, "1/s"),
        "bmc.certify_unsat_ms": (certify_unsat_s * 1e3, "ms"),
        "bmc.proof_steps": (proof_steps, "count"),
        "bmc.proof_steps_per_s": (proof_steps / certify_unsat_s if certify_unsat_s else 0.0, "1/s"),
        "journal.append_ms": (ms("journal_append"), "ms"),
        "journal.records": (gauge("journal_resume", "records"), "count"),
        "journal.bytes": (gauge("journal_resume", "bytes"), "bytes"),
        "journal.recover_ms": (ms("journal_resume"), "ms"),
        "journal.replay_ms": (ms("resume"), "ms"),
        "journal.hit_ratio": (resume.get("cached", 0) / served if served else 0.0, "ratio"),
        "ipc.encode_ms": (ms("ipc_encode"), "ms"),
        "ipc.decode_ms": (ms("ipc_decode"), "ms"),
        "ipc.request_bytes": (gauge("ipc_encode", "bytes"), "bytes"),
        "campaign.self_ms": (bench_self / 1e3, "ms"),
        "workers.jobs": (jobs, "count"),
        "workers.overhead_ms_per_job": (overhead, "ms"),
        "workers.retries": (sum(s["gauges"].get("worker_respawns", 0) for s in workers), "count"),
        "telemetry.overhead_pct": ((traced_us - wall["campaign"]) / wall["campaign"] * 100, "%"),
    }
    for name in SHARE_LAYERS:
        metrics[f"share.{name}"] = (layers.get(name, 0) / traced_us * 100, "%")
    table = {name: (us / 1e3, us / traced_us * 100) for name, us in sorted(layers.items())}
    return metrics, table


# ---------------------------------------------------------------------
# Running.
# ---------------------------------------------------------------------

def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds the measuring program; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return target_dir() / "release" / "perfbench"


def measure(binary, workload, seed, seconds, trace, extra=()):
    """Runs the measuring program in a fresh process; returns its raw
    result or None. A run past the time limit is killed with its whole
    process group (isolated workers included) and waited for."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out-dir", str(OUT_DIR), *extra]
    if trace:
        cmd.append("--trace")
    # One malloc arena: by default glibc gives the campaign's per-check
    # watchdog threads arenas of their own, and which arena a check lands
    # in changes run to run, so the same attribution-sweep run peaked at
    # 21 MB or 27 MB. With one arena it peaks at 17 MB every time.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True,
                            env=env)
    try:
        out, _ = proc.communicate(timeout=run_timeout_s(seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} did not finish in {run_timeout_s(seconds)} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def evaluate(raw, trace, expected=expected_row):
    """The result object and the human-readable summary lines."""
    attempted, failed, problems = gate(raw, expected)
    lines = [f"gate: {failed} of {attempted} rows failed "
             f"(failed_ratio {failed / attempted:.4f} ratio)"]
    lines += [f"  {p}" for p in problems]
    if trace:
        metrics, table = per_layer(raw)
        lines.append("layer self time in the traced campaign:")
        lines += [f"  {name:<16} {msv:12.3f} ms {share:7.2f} %" for name, (msv, share) in table.items()]
    else:
        metrics = end_to_end(raw)
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def run_workload(args):
    binary = build()
    if binary is None:
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    raw = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    if raw is None:
        return 2
    result, lines = evaluate(raw, args.trace)
    stamp = {"git_rev": git_rev(), "nproc": os.cpu_count(), "command": sys.argv,
             "seed": args.seed, "workload": args.workload, "trace": args.trace}
    record = OUT_DIR / f"result-{args.workload}-{args.seed}-trace{int(args.trace)}.json"
    record.write_text(json.dumps({"stamp": stamp, "summary": lines, "result": result}, indent=1))
    print("stamp: " + json.dumps(stamp))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------
# Self-test.
# ---------------------------------------------------------------------

def wrong_expectation(workload, row_id, depth):
    """A deliberately wrong known answer: the gate must trip on it."""
    label, cex_depth = expected_row(workload, row_id, depth)
    return label + " (wrong)", cex_depth


def self_test():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    binary = build()
    if binary is None:
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            raw = measure(binary, workload, 1, 0, trace, ("--depth", "3"))
            if raw is None:
                errors.append(f"{workload} trace={trace}: no result")
                continue
            result, lines = evaluate(raw, trace)
            if not result["correct"]:
                errors.append(f"{workload} trace={trace}: gate failed: {lines}")
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{workload} trace={trace}: {m['name']} missing or not in {m['unit']}")
                elif not any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                             for line in lines):
                    errors.append(f"{workload} trace={trace}: {m['name']} not printed with its unit")
            if set(result["metrics"]) - {m["name"] for m in declared}:
                errors.append(f"{workload} trace={trace}: undeclared metrics printed")
            if not trace:
                tripped, _ = evaluate(raw, False, wrong_expectation)
                if tripped["correct"] or tripped["failed"] == 0:
                    errors.append(f"{workload}: gate did not trip on a wrong expectation")
    for e in errors:
        print(f"self-test: {e}", file=sys.stderr)
    print(f"self-test: {'FAILED' if errors else 'passed'}")
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(EXPECTED))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
