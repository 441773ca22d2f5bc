#!/usr/bin/env python3
"""Compare two google-benchmark JSON files for performance regressions.

Usage:
    bench_compare.py BASELINE CANDIDATE [--max-regress 0.15]
                     [--warn-only] [--require-speedup NAME=FACTOR ...]
                     [--require-scaling NAME=FACTOR ...]

Compares items_per_second (falling back to 1/real_time when a
benchmark reports no item rate) for every benchmark present in both
files. A benchmark slower than baseline by more than --max-regress
fails the run (or warns with --warn-only, for noisy shared runners).
--require-speedup asserts a named benchmark got at least FACTOR times
faster than baseline — used to pin intentional optimizations so they
cannot silently rot back.

Thread-swept benchmark families (google-benchmark arg suffixes, e.g.
BM_ParallelEpoch/1 ... BM_ParallelEpoch/8) additionally get a scaling
report from the candidate file: speedup of each arg over the /1
variant and the parallel efficiency (speedup divided by threads).
--require-scaling NAME=FACTOR asserts the family's widest variant
runs at least FACTOR times faster than its /1 variant — the knob the
perf-parallel CI lane uses to keep the parallel engine's speedup
honest (warn-only on shared runners, like everything else here).

Benchmarks named mem.* are footprint gauges (bytes per simulated
node, reported through items_per_second; see perf_microbench.cpp):
for them LOWER is better, so the regression test inverts — a
candidate more than --max-regress ABOVE baseline fails. Everything
else about the comparison (strict/warn-only, NEW/MISSING handling)
is unchanged.

A benchmark only in the candidate is reported as NEW and never fails
the run: baselines are updated deliberately, not implicitly. A
benchmark only in the baseline is MISSING and fails the run (a warning
with --warn-only): a gauge or row that silently vanished must not pass
a gate that no longer measures it.

Exit codes: 0 ok, 1 regression (strict mode), 2 usage/parse error.
"""

import argparse
import json
import re
import sys


def die(msg):
    """One actionable line on stderr, exit 2 (usage/parse error) —
    never a traceback: CI logs should show what to fix, not where
    this script crashed."""
    print(f"bench_compare: error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_rates(path):
    """Map benchmark name -> items/sec (or inverse time) from a
    google-benchmark JSON file. Aggregate rows (mean/median/stddev,
    emitted with --benchmark_repetitions) are skipped so a repeated
    run compares like a plain one."""
    regen = ("regenerate it with: perf_microbench "
             f"--benchmark_out={path} --benchmark_out_format=json")
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        die(f"{path} does not exist; {regen}")
    except OSError as e:
        die(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        die(f"{path} is not valid JSON (line {e.lineno}: {e.msg}); "
            f"{regen}")
    if not isinstance(doc, dict) or not isinstance(
            doc.get("benchmarks"), list):
        die(f"{path} is JSON but not google-benchmark output "
            f"(expected an object with a 'benchmarks' array); {regen}")
    rates = {}
    for b in doc["benchmarks"]:
        if not isinstance(b, dict) or b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        if not isinstance(name, str):
            continue
        rate = b.get("items_per_second")
        if rate is None:
            t = b.get("real_time")
            rate = 1.0 / t if isinstance(t, (int, float)) and t else None
        if isinstance(rate, (int, float)) and rate:
            rates[name] = float(rate)
    if not rates:
        die(f"{path} contains no usable benchmark entries; {regen}")
    return rates


def lower_is_better(name):
    """mem.* rows are gauges (bytes/node) riding the items/sec
    channel: a bigger number is a fatter simulation, not a faster
    one."""
    return name.startswith("mem.")


def parse_speedup(spec):
    name, _, factor = spec.partition("=")
    if not name or not factor:
        die(f"bad requirement '{spec}', expected NAME=FACTOR")
    try:
        return name, float(factor)
    except ValueError:
        die(f"bad factor in requirement '{spec}', "
            "expected NAME=FACTOR with a numeric FACTOR")


def thread_families(rates):
    """Group thread-swept benchmarks into {family: {threads: rate}}.

    The thread count is the FIRST google-benchmark arg; any further
    args (e.g. the pinned tile shape of BM_ParallelEpochTile/T/R/C)
    are part of the family key, so 'BM_ParallelEpochTile/2/4/2' files
    under family 'BM_ParallelEpochTile/4/2' with threads=2. Every
    multi-variant family is returned, including ones missing the
    threads=1 anchor (a partial rerun, say): callers that need the
    anchor check for it and warn instead of this function silently
    dropping the family."""
    fams = {}
    for name, rate in rates.items():
        m = re.fullmatch(r"([^/]+)/(\d+)((?:/\d+)*)(?:/real_time)?",
                         name)
        if m:
            family = m.group(1) + m.group(3)
            fams.setdefault(family, {})[int(m.group(2))] = rate
    return {n: a for n, a in fams.items() if len(a) > 1}


def scaling_report(rates):
    fams = thread_families(rates)
    if not fams:
        return
    print("\nscaling (candidate, vs the 1-thread variant):")
    for name, by_arg in sorted(fams.items()):
        if 1 not in by_arg:
            print(f"  warning: thread family {name} has no /1 "
                  f"variant (have {sorted(by_arg)}); skipping its "
                  "scaling rows")
            continue
        for arg in sorted(by_arg):
            speedup = by_arg[arg] / by_arg[1]
            eff = speedup / arg
            print(f"  {name} @{arg}t: {speedup:5.2f}x "
                  f"(efficiency {eff:.0%})")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--max-regress", type=float, default=0.15,
                    help="allowed fractional slowdown (default 0.15)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 "
                         "(noisy shared runners)")
    ap.add_argument("--require-speedup", action="append", default=[],
                    metavar="NAME=FACTOR",
                    help="require NAME to be >= FACTOR x baseline")
    ap.add_argument("--require-scaling", action="append", default=[],
                    metavar="NAME=FACTOR",
                    help="require NAME's widest /THREADS variant to "
                         "be >= FACTOR x its /1 variant (candidate)")
    args = ap.parse_args()

    base = load_rates(args.baseline)
    cand = load_rates(args.candidate)
    required = dict(parse_speedup(s) for s in args.require_speedup)

    failures = []
    for name in sorted(set(base) | set(cand)):
        if name not in base:
            print(f"  NEW      {name}: {cand[name]:,.0f}/s "
                  "(no baseline)")
            continue
        if name not in cand:
            print(f"  MISSING  {name}: in baseline only")
            failures.append(f"{name}: in baseline but missing from "
                            f"candidate {args.candidate}")
            continue
        ratio = cand[name] / base[name]
        status = "ok"
        if lower_is_better(name):
            # Gauge row: growth is the regression, shrinkage the win.
            if ratio > 1.0 + args.max_regress:
                status = "REGRESSED"
                failures.append(
                    f"{name}: {ratio:.2f}x of baseline, but lower is "
                    f"better ({base[name]:,.0f} -> {cand[name]:,.0f} "
                    "bytes/node)")
            elif ratio < 1.0 - args.max_regress:
                status = "improved"
        elif ratio < 1.0 - args.max_regress:
            status = "REGRESSED"
            failures.append(
                f"{name}: {ratio:.2f}x of baseline "
                f"({base[name]:,.0f}/s -> {cand[name]:,.0f}/s)")
        elif ratio > 1.0 + args.max_regress:
            status = "improved"
        print(f"  {status:9s}{name}: {ratio:5.2f}x "
              f"({base[name]:,.0f}/s -> {cand[name]:,.0f}/s)")

    for name, factor in sorted(required.items()):
        if name not in base or name not in cand:
            failures.append(
                f"{name}: required {factor}x speedup but benchmark "
                "missing from "
                + ("baseline" if name not in base else "candidate"))
            continue
        ratio = cand[name] / base[name]
        ok = ratio >= factor
        print(f"  {'ok' if ok else 'TOO SLOW':9s}{name}: "
              f"required >= {factor}x, got {ratio:.2f}x")
        if not ok:
            failures.append(
                f"{name}: required >= {factor}x baseline, "
                f"got {ratio:.2f}x")

    scaling_report(cand)
    fams = thread_families(cand)
    base_fams = thread_families(base)
    for spec in args.require_scaling:
        name, factor = parse_speedup(spec)
        if name not in fams or 1 not in fams[name]:
            failures.append(
                f"{name}: required {factor}x scaling but no "
                "/1-anchored thread family in candidate")
            continue
        if name not in base_fams or 1 not in base_fams[name]:
            # A family the baseline has never seen would otherwise
            # sail through on candidate-only numbers — refresh the
            # baseline so the scaling requirement has teeth.
            failures.append(
                f"{name}: required {factor}x scaling but the family "
                f"is missing from baseline {args.baseline} — "
                "regenerate it (perf_microbench "
                f"--benchmark_out={args.baseline} "
                "--benchmark_out_format=json, see docs/PARALLEL.md) "
                "and commit the result")
            continue
        by_arg = fams[name]
        widest = max(by_arg)
        ratio = by_arg[widest] / by_arg[1]
        ok = ratio >= factor
        print(f"  {'ok' if ok else 'TOO SLOW':9s}{name} @{widest}t: "
              f"required >= {factor}x of the 1-thread variant, "
              f"got {ratio:.2f}x")
        if not ok:
            failures.append(
                f"{name}: required >= {factor}x scaling at "
                f"/{widest}, got {ratio:.2f}x")

    if failures:
        print("\nbench_compare: "
              + ("warnings:" if args.warn_only else "FAILURES:"))
        for f in failures:
            print(f"  {f}")
        return 0 if args.warn_only else 1
    print("\nbench_compare: all benchmarks within "
          f"{args.max_regress:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
