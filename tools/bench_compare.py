#!/usr/bin/env python3
"""Diffs a fresh micro_kernels run against the committed baseline.

Usage: bench_compare.py BASELINE.json FRESH.json [--threshold 0.25]
                        [--fail-on-removed] [--require-release]

The regression gate runs on the *intersection* of the two runs: a BM_*
present in both files fails the job when its real_time regressed by more
than the threshold. Benchmarks present on only one side are reported
explicitly — ADDED (fresh only; they join the gate once a refreshed
BENCH_micro.json is committed) and REMOVED (baseline only; pass
--fail-on-removed to make dropped coverage fail the job instead of just
being reported). Malformed benchmark entries are a clean diagnostic, not a
KeyError.

Both runs' `num_cpus` (from the google-benchmark context) are printed
first, with a WARNING line when they differ: timings from hosts of
different sizes are not comparable. The warning does not fail the job.
"""

import argparse
import json
import math
import sys


def check_release(path, data):
    """Rejects timings measured from a debug build.

    The binary stamps its own build type into the context as
    `mlnclean_build_type` (Debian's libbenchmark is compiled without
    NDEBUG, so the library's own `library_build_type` says "debug" even
    for a -O2/NDEBUG binary). Prefer the binary's stamp; fall back to the
    library field only for JSONs predating the custom key.
    """
    context = data.get("context", {})
    build_type = context.get("mlnclean_build_type")
    if build_type is not None:
        if build_type != "release":
            raise SystemExit(
                f"bench_compare: {path}: measured from a debug build "
                f"(mlnclean_build_type={build_type!r}); re-run from a "
                f"Release configure")
        return
    if context.get("library_build_type") == "debug":
        raise SystemExit(
            f"bench_compare: {path}: no mlnclean_build_type in context and "
            f"library_build_type is 'debug'; re-record from a Release build "
            f"of micro_kernels")


def fmt_time(t):
    """Formats a time to 3 significant digits, without an exponent."""
    if t == 0 or not math.isfinite(t):
        return f"{t:g}"
    decimals = 2 - math.floor(math.log10(abs(t)))
    return f"{round(t, decimals):.{max(decimals, 0)}f}"


def load(path, require_release=False):
    """Returns ({name: (real_time, unit)}, num_cpus or None) of one run."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")
    if require_release:
        check_release(path, data)
    out = {}
    for i, b in enumerate(data.get("benchmarks", [])):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        if name is None:
            raise SystemExit(
                f"bench_compare: {path}: benchmark entry {i} has no 'name'")
        if "real_time" not in b:
            raise SystemExit(
                f"bench_compare: {path}: benchmark '{name}' has no 'real_time'")
        try:
            real_time = float(b["real_time"])
        except (TypeError, ValueError):
            raise SystemExit(
                f"bench_compare: {path}: benchmark '{name}' has a non-numeric "
                f"real_time: {b['real_time']!r}")
        out[name] = (real_time, b.get("time_unit", "ns"))
    return out, data.get("context", {}).get("num_cpus")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed relative real_time regression")
    parser.add_argument("--fail-on-removed", action="store_true",
                        help="fail when a baseline benchmark is missing from "
                             "the fresh run (default: report only)")
    parser.add_argument("--require-release", action="store_true",
                        help="fail when either JSON was measured from a debug "
                             "build (mlnclean_build_type context key, with "
                             "library_build_type as a fallback)")
    args = parser.parse_args()

    base, base_cpus = load(args.baseline, require_release=args.require_release)
    fresh, fresh_cpus = load(args.fresh, require_release=args.require_release)

    print(f"num_cpus: baseline {base_cpus}, fresh run {fresh_cpus}")
    if base_cpus != fresh_cpus:
        print(f"WARNING num_cpus differs (baseline {base_cpus}, fresh run "
              f"{fresh_cpus}): the timings come from different hosts")

    added = sorted(fresh.keys() - base.keys())
    removed = sorted(base.keys() - fresh.keys())
    common = sorted(base.keys() & fresh.keys())

    if not common:
        # An empty intersection means the gate would vacuously pass (or the
        # loop below would print nothing useful) — every regression would
        # slip through as "ADDED". Fail up front with the counts so a
        # renamed/retargeted suite is diagnosed as such.
        print(f"bench_compare: no benchmark names in common — baseline "
              f"{args.baseline} has {len(base)}, fresh run {args.fresh} has "
              f"{len(fresh)}, intersection is empty.", file=sys.stderr)
        print("Either the wrong files were compared or the suite was "
              "renamed wholesale; re-record the baseline from a Release "
              "build (see BENCH_micro.json at the repo root) and commit it "
              "in the same PR.", file=sys.stderr)
        return 1

    failures = []
    for name in added:
        new_time, unit = fresh[name]
        print(f"ADDED   {name}: {fmt_time(new_time)} {unit} (no baseline; not gated)")
    for name in removed:
        old_time, unit = base[name]
        print(f"REMOVED {name}: was {fmt_time(old_time)} {unit} in the baseline, "
              f"missing from the fresh run")
        if args.fail_on_removed:
            failures.append(f"{name}: present in baseline but missing from the "
                            f"fresh run")
    for name in common:
        new_time, unit = fresh[name]
        old_time, old_unit = base[name]
        if unit != old_unit:
            failures.append(f"{name}: time unit changed {old_unit} -> {unit}")
            print(f"FAIL    {name}: time unit changed {old_unit} -> {unit}")
            continue
        ratio = new_time / old_time if old_time > 0 else float("inf")
        status = "OK     "
        if ratio > 1.0 + args.threshold:
            status = "FAIL   "
            failures.append(
                f"{name}: {fmt_time(old_time)} -> {fmt_time(new_time)} {unit} "
                f"({(ratio - 1.0) * 100:+.1f}%, threshold +{args.threshold * 100:.0f}%)")
        print(f"{status}{name}: {fmt_time(old_time)} -> {fmt_time(new_time)} {unit} "
              f"({(ratio - 1.0) * 100:+.1f}%)")

    if failures:
        print("\nPerf gate failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("(If the regression is intentional, refresh BENCH_micro.json "
              "at the repo root in the same PR.)", file=sys.stderr)
        return 1
    print("\nPerf gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
