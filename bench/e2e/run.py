#!/usr/bin/env python3
"""End-to-end benchmark runner for MLNClean (see README.md beside this file).

Run one workload, or all three when --workload is left out:

  python3 bench/e2e/run.py [--workload NAME] [--seed N] [--trace 0|1]
                           [--out DIR]

Builds bench/e2e into build-e2e on first use, runs each workload in its own
process, prints every metric by name with its unit, and ends with one JSON
line {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
check failed. With --trace 1 the metrics are the per-layer ones, derived
from the run's spans. --out DIR saves each run record there. Every run
measures for BENCHMARK.json's run_seconds; --seconds is accepted only with
that value, so two commits cannot be measured with different run lengths.

  python3 bench/e2e/run.py trace TRACE.json
  python3 bench/e2e/run.py compare PARENT_RUNS CHANGE_RUNS [--claim W:M ...]

`trace` summarizes a trace file written by mlnclean_e2e into the per-layer
metrics and checks that stage self times add up to each session span.
`compare` applies the bounds in BENCHMARK.json to two sets of saved runs
(directories or files of run records).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "mlnclean_e2e"
WORKLOADS = ["hai_batch", "car_batch", "hai_serve"]
STAGES = ["index", "agp", "learn", "rsc", "fscr", "dedup"]
# Reported for every run but not gated (README.md, "Informational").
INFORMATIONAL = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("failed_frac", "ratio"),
    ("f1", "ratio"),
    ("f1_first", "ratio"),
    ("reference_ms", "ms"),
]
RUN_TIMEOUT_S = 170
# A session's stage spans must cover it to within this share.
COVERAGE_TOLERANCE = 0.05


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    return json.loads(path.read_text())


# ------------------------------------------------------------------ build


def build():
    """Configures once, then lets cmake bring mlnclean_e2e up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"library sources not found under {ROOT}; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "mlnclean_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


def git_sha():
    # The ceiling keeps git from searching above the checkout when the
    # checkout is not a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False, env=env)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace_path=None):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    started = time.time()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"{workload}: mlnclean_e2e timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die(f"{workload}: mlnclean_e2e exited with {done.returncode}")
    record = json.loads(lines[-1])
    record["started"] = started
    record["git_sha"] = git_sha()
    return record


# ------------------------------------------------------------------ trace


def summarize_trace(trace):
    """Per-layer metrics of one trace, and how many of its sessions have
    stage spans that add up to the session span."""
    spans = trace["spans"]
    counters = trace["counters"]
    children = {}
    total_us = {}
    for _id, name, parent, _request, start, end in spans:
        children.setdefault(parent, []).append((name, end - start))
        total_us[name] = total_us.get(name, 0.0) + (end - start)

    sessions = [(span_id, end - start) for span_id, name, _p, _r, start, end
                in spans if name == "session"]
    stage_us = dict.fromkeys(STAGES, 0.0)
    covered = 0
    for span_id, duration in sessions:
        parts = [(name[len("stage."):], us) for name, us in children.get(span_id, [])
                 if name.startswith("stage.")]
        for stage, us in parts:
            stage_us[stage] += us
        if abs(duration - sum(us for _stage, us in parts)) <= COVERAGE_TOLERANCE * duration:
            covered += 1

    busy_ms = {s: stage_us[s] / 1e3 / max(1, len(sessions)) for s in STAGES}
    m = {f"{s}.busy_ms": busy_ms[s] for s in STAGES}
    all_stages_ms = sum(busy_ms.values())
    m["fscr.share"] = busy_ms["fscr"] / all_stages_ms if all_stages_ms else 0.0
    m["index.gammas"] = counters.get("index.gammas", 0)
    groups = counters.get("agp.abnormal_groups", 0)
    m["agp.abnormal_groups"] = groups
    m["agp.merged_frac"] = counters.get("agp.merged", 0) / groups if groups else 0.0
    m["rsc.replacements"] = counters.get("rsc.replacements", 0)
    tuples = counters.get("fscr.tuples", 0)
    m["fscr.conflict_tuples"] = counters.get("fscr.conflict_tuples", 0)
    m["fscr.fused_frac"] = counters.get("fscr.fused", 0) / tuples if tuples else 0.0
    m["dedup.rows_removed"] = counters.get("dedup.rows_removed", 0)
    m["engine.compile_ms"] = counters.get("engine.compile_ms", 0.0)
    # Served request time outside the session: admission, dispatch and
    # hand-back. 0 on the workloads that do not serve.
    served_us = total_us.get("server.request", 0.0)
    m["server.overhead_share"] = (1.0 - total_us["session"] / served_us
                                  if served_us else 0.0)
    overhead = trace["overhead"]
    untraced = overhead["untraced_p50_ms"]
    m["trace.overhead_frac"] = overhead["traced_p50_ms"] / untraced - 1.0 if untraced else 0.0
    return m, {"sessions": len(sessions), "covered": covered}


def coverage_line(coverage):
    return (f"stage spans cover {coverage['covered']} of {coverage['sessions']} "
            f"sessions to within {COVERAGE_TOLERANCE:.0%}")


def cmd_trace(args):
    spec = load_spec()
    trace = json.loads(Path(args.trace_file).read_text())
    metrics, coverage = summarize_trace(trace)
    print(f"{trace['workload']}: seed {trace['seed']}")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<26} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {coverage_line(coverage)}")
    sys.exit(0 if coverage["covered"] == coverage["sessions"] else 1)


# -------------------------------------------------------------------- run


def result_line(records, spec, traced):
    """The final JSON line; metric names carry the workload when several
    workloads ran."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for record in records:
        source = record["layers"] if traced else record["metrics"]
        prefix = "" if len(records) == 1 else record["workload"] + "."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": source[m["name"]],
                                           "unit": m["unit"]}
    return {
        "correct": all(r["mismatches"] == 0 and r["checks"] > 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def print_record(record, spec, traced):
    w = record["workload"]
    samples = record["samples"]
    print(f"{w}: seed {record['seed']}, {record['attempted']} attempted, "
          f"{record['failed']} failed, {record['checks']} output checks, "
          f"{record['mismatches']} mismatches; {samples['requests']} requests over "
          f"{samples['inputs']} inputs, each timed at least "
          f"{samples['min_repeats']} times; setup n={samples['setup']}, "
          f"reference n={samples['reference']}; "
          f"{record['build_type']}, {record['compiler']}, nproc {record['nproc']}")
    if traced:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<26} {record['layers'][m['name']]:>14.6g} {m['unit']}")
        print(f"  {coverage_line(record['coverage'])}")
        return
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<26} {record['metrics'][m['name']]:>14.6g} {m['unit']}")
    for name, unit in INFORMATIONAL:
        print(f"  {name:<26} {record['metrics'][name]:>14.6g} {unit} (informational)")


def cmd_run(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        die(f"--seconds must be BENCHMARK.json's run_seconds ({seconds})")
    workloads = WORKLOADS if args.workload is None else [args.workload]
    build()
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for workload in workloads:
        trace_path = None
        if args.trace:
            trace_path = BUILD / "traces" / f"{workload}-{args.seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
        record = run_workload(workload, args.seed, seconds, trace_path)
        if trace_path is not None:
            trace = json.loads(trace_path.read_text())
            record["layers"], record["coverage"] = summarize_trace(trace)
        print_record(record, spec, args.trace)
        if out_dir is not None:
            name = f"{workload}-s{args.seed}-{int(record['started'] * 1e3)}.json"
            (out_dir / name).write_text(json.dumps(record) + "\n")
        records.append(record)
    line = result_line(records, spec, args.trace)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


# ---------------------------------------------------------------- compare


def load_runs(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                runs.append(json.loads(line))
    if not runs:
        die(f"no run records in {path}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, parent, change):
    """Share by which `change` is worse than `parent` (negative: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if metric["better"] == "lower" else -delta


def better(metric, a, b):
    return a < b if metric["better"] == "lower" else a > b


def check_comparable(parent, change):
    """Refuses runs that were not measured the same way, Debug runs, runs
    whose outputs were wrong, and workloads run on different seeds."""
    runs = parent + change
    stamps = {(r["nproc"], r["build_type"], r["compiler"], r["seconds"], r["traced"])
              for r in runs}
    if len(stamps) != 1:
        die("refusing to compare runs with different nproc, build type, "
            f"compiler, run length or tracing: {sorted(stamps)}")
    if any(r["build_type"].lower() == "debug" for r in runs):
        die("refusing to compare Debug builds")
    wrong = [f"{r['workload']} seed {r['seed']}" for r in runs if r["mismatches"] > 0]
    if wrong:
        die(f"refusing runs with output mismatches: {', '.join(wrong)}")
    for workload in WORKLOADS:
        p_seeds = {r["seed"] for r in parent if r["workload"] == workload}
        c_seeds = {r["seed"] for r in change if r["workload"] == workload}
        if p_seeds and c_seeds and p_seeds != c_seeds:
            die(f"refusing to compare {workload} runs of different seeds: "
                f"{sorted(p_seeds)} vs {sorted(c_seeds)}")


def cmd_compare(args):
    spec = load_spec()
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    check_comparable(parent, change)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    failed = False
    print(f"{'workload':<11} {'metric':<15} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'worse by':>9}  verdict")
    for workload in WORKLOADS:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            continue
        for name, metric in metrics.items():
            pv = [r["metrics"][name] for r in p_runs]
            cv = [r["metrics"][name] for r in c_runs]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            worse = worse_by(metric, pm, cm)
            spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                         (c3 - c1) / abs(cm) if cm else 0.0)
            all_better = all(better(metric, c, p) for c in cv for p in pv)
            if worse > metric["bound"]:
                verdict = "regressed"
                failed = True
            elif spread > metric["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            p_text = f"{pm:.5g} [{p1:.5g}, {p3:.5g}]"
            c_text = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
            print(f"{workload:<11} {name:<15} {p_text:>32} {c_text:>32} "
                  f"{worse:>+9.1%}  {verdict} (bound {metric['bound']:.0%})")
    for claim in args.claim:
        if not claim_met(claim, parent, change, metrics):
            failed = True
    sys.exit(1 if failed else 0)


def failed_share(runs):
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def claim_met(claim, parent, change, metrics):
    """The paired rule: >= 10 pairs, each a parent and a change run of one
    seed in run order; the change wins >= 9/10 of them, the medians differ
    by more than the parent's IQR, and no larger share of requests fails."""
    workload, _, name = claim.partition(":")
    if name not in metrics:
        die(f"unknown metric in claim {claim!r}")
    metric = metrics[name]
    p_all = [r for r in parent if r["workload"] == workload]
    c_all = [r for r in change if r["workload"] == workload]
    pairs = []
    key = lambda r: r["started"]
    for seed in sorted({r["seed"] for r in p_all}):
        p_runs = sorted((r for r in p_all if r["seed"] == seed), key=key)
        c_runs = sorted((r for r in c_all if r["seed"] == seed), key=key)
        pairs += zip(p_runs, c_runs)
    wins = sum(better(metric, c["metrics"][name], p["metrics"][name])
               for p, c in pairs)
    ok = len(pairs) >= 10 and wins >= 0.9 * len(pairs)
    if ok:
        p1, pm, p3 = quartiles([r["metrics"][name] for r in p_all])
        cm = statistics.median([r["metrics"][name] for r in c_all])
        ok = better(metric, cm, pm) and abs(cm - pm) > p3 - p1
    p_failed, c_failed = failed_share(p_all), failed_share(c_all)
    if c_failed > p_failed:
        ok = False
    print(f"claim {claim}: {wins}/{len(pairs)} pairs won, failed "
          f"{p_failed:.4%} -> {c_failed:.4%} -> {'met' if ok else 'not met'}")
    return ok


# ------------------------------------------------------------------- main


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        parser = argparse.ArgumentParser(prog="run.py trace")
        parser.add_argument("trace_file")
        cmd_trace(parser.parse_args(argv[1:]))
    elif argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        parser.add_argument("--claim", action="append", default=[],
                            metavar="WORKLOAD:METRIC")
        cmd_compare(parser.parse_args(argv[1:]))
    else:
        parser = argparse.ArgumentParser(prog="run.py")
        parser.add_argument("--workload", choices=WORKLOADS)
        parser.add_argument("--seed", type=int, default=42)
        parser.add_argument("--seconds", type=int)
        parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
        parser.add_argument("--out")
        cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
