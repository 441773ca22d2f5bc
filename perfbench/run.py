#!/usr/bin/env python3
"""Host-time benchmark of the gs1280 simulator.

Builds perfbench/ (the driver plus the library from src/) into
.bench_build/perfbench, then measures one workload for --seconds:

    python3 perfbench/run.py --workload stream16 --seed 1 --seconds 20 --trace 0

Every operation is one simulation in its own driver process. --trace 0
reports the end-to-end metrics of untraced runs; --trace 1 alternates
untraced and sampled runs and reports the per-layer metrics. The last
line of stdout is the JSON result; the lines above it are the same
numbers for a reader, with the run manifest. --workload all runs every
workload in turn; --self-test checks the benchmark itself at tiny
sizes. perfbench/README.md explains the workloads and the metrics.
"""

import argparse
import bisect
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "gsbench")

DEFAULT_SEED = 1

# README.md says why each workload is here.
WORKLOADS = ["stream16", "gups32", "fluent16", "gups2048"]

# Host threads a workload's machine runs on; it is skipped, never run
# oversubscribed, when the host has fewer.
THREADS = {"gups2048": 4}

# Digest of telem::exportJson after the full-size run at DEFAULT_SEED.
# A change that moves any simulated statistic changes these.
DIGESTS = {
    "stream16": "536c4dd3fb7e1d3e",
    "gups32": "27d9f6a7ac504e38",
    "fluent16": "c6ca50b8106bdc4a",
    "gups2048": "02aff555a90101c1",
}

# Paper figures (EXPERIMENTS.md) for a workload's configuration.
ANCHORS = {
    "stream16": (67.2, "Fig 6: ~4.2 GB/s per CPU, linear, x16"),
}

E2E = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.peak_pending", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("host.kernel", "%"),
    ("par.epochs", "count"),
    ("par.lookahead_widened", "count"),
    ("par.mailbox_arrivals", "count"),
    ("par.barrier_wait_frac", "ratio"),
    ("par.steal_count", "count"),
    ("host.parallel", "%"),
    ("net.packets", "count"),
    ("net.flits", "count"),
    ("net.vc_stalls", "count"),
    ("net.link_busy_max", "ratio"),
    ("net.latency_mean_ns", "ns"),
    ("net.pool_allocated", "count"),
    ("host.net", "%"),
    ("host.topology", "%"),
    ("host.fault", "%"),
    ("coher.accesses", "count"),
    ("coher.misses", "count"),
    ("coher.l2_hit_ratio", "ratio"),
    ("coher.maf_merges", "count"),
    ("coher.msgs", "count"),
    ("coher.forwards", "count"),
    ("coher.invals", "count"),
    ("host.coherence", "%"),
    ("span.verify_s", "s"),
    ("mem.zbox_reads", "count"),
    ("mem.zbox_writes", "count"),
    ("mem.row_hit_ratio", "ratio"),
    ("mem.zbox_busy_frac", "ratio"),
    ("mem.model_mb", "MB"),
    ("mem.unaccounted_mb", "MB"),
    ("host.mem", "%"),
    ("host.cpu", "%"),
    ("host.workload", "%"),
    ("workload.ops", "count"),
    ("span.next_s", "s"),
    ("span.build_s", "s"),
    ("span.run_s", "s"),
    ("span.export_s", "s"),
    ("telem.paths", "count"),
    ("telem.export_bytes", "bytes"),
    ("host.system", "%"),
    ("host.telemetry", "%"),
    ("host.libc", "%"),
    ("host.other", "%"),
    ("model.sim_ns", "ns"),
    ("model.headline", "wl-unit"),
    ("trace.overhead_s", "s"),
    ("trace.samples", "count"),
]

LAYERS = ["kernel", "parallel", "net", "topology", "fault", "coherence",
          "mem", "cpu", "workload", "system", "telemetry", "libc", "other"]

# First `gs::<ns>` in a demangled symbol -> layer. Top-level gs::
# names belong to src/sim: the parallel engine's own, else the kernel.
NAMESPACE_LAYER = {
    "net": "net", "topo": "topology", "fault": "fault", "coher": "coherence",
    "mem": "mem", "cpu": "cpu", "wl": "workload", "sys": "system",
    "telem": "telemetry", "stats": "telemetry", "trace": "telemetry",
}
PARALLEL_NAMES = {"ParallelEngine", "AdaptiveLookahead", "chooseTileShape",
                  "chooseTileShape3", "tileDomainOf", "tileDomainOf3"}
GS_NAME = re.compile(r"\bgs::(\w+)")

SETUP_PROBES = 12     # set-up-only processes per run, for setup_s
# gups2048 spends ~7 s of its ~12 s operation in verifyCoherence, so a
# 20 s run would hold only two; three make a median that one slow
# operation cannot move.
MIN_OPS = 3
OP_TIMEOUT_S = 150


class OpFailed(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then build incrementally; die on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def manifest(workload, seed, op):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                            "--dirty"], capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    m = op["manifest"]
    return {"workload": workload, "seed": seed, "nproc": nproc(),
            "cpu_model": cpu, "build_type": m["build_type"],
            "compiler": m["compiler"], "git_describe": rev,
            "engine": m["engine"], "tile_shape": m["tile_shape"],
            "scale": m["scale"]}


def spawn(workload, seed, scale, trace, expect=None, setup_only=False):
    """Run one driver process; returns its JSON plus setup_s."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--trace", "1" if trace else "0"]
    if expect:
        cmd += ["--expect-digest", expect]
    if setup_only:
        cmd += ["--setup-only", "1"]
    t_spawn = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise OpFailed("timed out after %d s" % OP_TIMEOUT_S)
    if p.returncode != 0 or not p.stdout.strip():
        raise OpFailed("exit %d: %s" % (p.returncode, p.stderr.strip()[-500:]))
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["run_start_mono"] - t_spawn
    return res


class Symbols:
    """Link-time address -> demangled function name, from nm."""

    def __init__(self, exe):
        out = subprocess.run(["nm", "-C", "--defined-only", "-n", exe],
                             capture_output=True, text=True, check=True)
        self.addrs, self.names = [], []
        for line in out.stdout.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWi":
                self.addrs.append(int(parts[0], 16))
                self.names.append(parts[2])

    def name(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        return self.names[i] if i >= 0 else "?"


def layer_of(name):
    m = GS_NAME.search(name)
    if not m:
        # Standard-library code instantiated over non-gs types runs
        # the same code the shared libraries would.
        if name.startswith(("std::", "__gnu_cxx::", "operator new",
                            "operator delete")):
            return "libc"
        return "other"
    ns = m.group(1)
    if ns in NAMESPACE_LAYER:
        return NAMESPACE_LAYER[ns]
    return "parallel" if ns in PARALLEL_NAMES else "kernel"


def attribute(traced_ops):
    """Samples of all traced ops -> (layer shares %, top functions)."""
    syms = Symbols(EXE)
    per_layer = dict.fromkeys(LAYERS, 0)
    per_func = {}
    total = 0
    for op in traced_ops:
        s = op["samples"]
        total += s["total"]
        per_layer["other"] += s["anon"]
        per_layer["libc"] += sum(s["libs"].values())
        for name, n in s["libs"].items():
            per_func[(name, "libc")] = per_func.get((name, "libc"), 0) + n
        for addr, n in s["exe"]:
            fn = syms.name(addr)
            layer = layer_of(fn)
            per_layer[layer] += n
            per_func[(fn, layer)] = per_func.get((fn, layer), 0) + n
    shares = {k: 100.0 * v / total if total else 0.0
              for k, v in per_layer.items()}
    top = sorted(per_func.items(), key=lambda kv: -kv[1])[:15]
    return shares, total, [(fn, layer, 100.0 * n / total)
                           for (fn, layer), n in top]


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace, scale="full"):
    """Run operations for `seconds`; returns the result and a report."""
    expect = DIGESTS.get(workload) if (seed == DEFAULT_SEED and
                                       scale == "full") else None
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            try:
                setups.append(spawn(workload, seed, scale, False,
                                    setup_only=True)["setup_s"])
            except OpFailed as e:
                log("perfbench: set-up probe failed:", e)
    ops, traced, failed = [], [], 0
    first_digest = None
    deadline = time.monotonic() + seconds
    i = 0
    while i < (2 if trace else MIN_OPS) or time.monotonic() < deadline:
        is_traced = trace and i % 2 == 1
        i += 1
        try:
            op = spawn(workload, seed, scale, is_traced, expect)
        except OpFailed as e:
            log("perfbench: %s operation failed: %s" % (workload, e))
            failed += 1
            continue
        first_digest = first_digest or op["digest"]
        if op["digest"] != first_digest:
            op["errors"].append("export differs between runs of one seed")
        if op["errors"]:
            log("perfbench: %s operation failed: %s"
                % (workload, "; ".join(op["errors"])))
            failed += 1
            continue
        (traced if is_traced else ops).append(op)
    attempted = i
    if not ops or (trace and not traced):
        sys.exit("perfbench: %s: no operation succeeded" % workload)

    setups += [op["setup_s"] for op in ops + traced]
    run_s = median([op["run_s"] for op in ops])
    e2e = {
        "setup_s": median(setups),
        "run_s": run_s,
        "cpu_s": median([op["cpu_s"] for op in ops]),
        "peak_rss_mb": median([op["peak_rss_mb"] for op in ops]),
    }
    base = ops[0]
    lines = ["perfbench %s seed=%d trace=%d: %d operations, %d failed"
             % (workload, seed, trace, attempted, failed),
             "manifest " + json.dumps(manifest(workload, seed, base))]
    notes = {"setup_s": "median of %d set-ups" % len(setups)}
    for k in ("run_s", "cpu_s", "peak_rss_mb"):
        notes[k] = "median of %d untraced runs" % len(ops)
    lines.append("end-to-end:")
    for name, unit in E2E:
        lines.append("  %-24s %14.6g %-8s %s" % (name, e2e[name], unit,
                                                 notes[name]))
    head = base["model"]["model.headline"]
    if workload in ANCHORS and scale == "full":
        ref, src = ANCHORS[workload]
        err = "%+.1f %% vs %g %s (%s)" % (100.0 * (head - ref) / ref, ref,
                                          base["model"]["unit"], src)
    else:
        err = "unvalidated"
    lines.append("  %-24s %14.6g %-8s" % ("model.headline", head,
                                          base["model"]["unit"]))
    lines.append("  %-24s %s" % ("model.paper_err_pct", err))

    if not trace:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in E2E}
        return attempted, failed, metrics, lines

    shares, nsamples, top = attribute(traced)
    layer = dict(base["counts"])
    layer.update({"host." + k: v for k, v in shares.items()})
    for k in ("span.build_s", "span.run_s", "span.verify_s",
              "span.export_s", "span.next_s"):
        layer[k] = median([op["spans"][k] for op in traced])
    events = base["counts"]["sim.events"]
    layer["sim.host_ns_per_event"] = 1e9 * run_s / events if events else 0.0
    layer["mem.unaccounted_mb"] = (e2e["peak_rss_mb"] -
                                   base["counts"]["mem.model_mb"])
    layer["model.sim_ns"] = base["model"]["model.sim_ns"]
    layer["model.headline"] = head
    layer["trace.overhead_s"] = median([op["run_s"] for op in traced]) - run_s
    layer["trace.samples"] = nsamples
    lines.append("per-layer (counts from an untraced run, host.* and span.* "
                 "from %d traced runs, %d samples):" % (len(traced), nsamples))
    for name, unit in PER_LAYER:
        lines.append("  %-24s %14.6g %s" % (name, layer[name], unit))
    lines.append("top functions by self samples:")
    for fn, lay, pct in top:
        lines.append("  %6.2f %%  %-10s %s" % (pct, lay, fn[:110]))
    metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
    return attempted, failed, metrics, lines


def result_line(attempted, failed, metrics):
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def skipped(workload):
    need = THREADS.get(workload, 1)
    if need > nproc():
        return "%s skipped: needs %d host threads, nproc is %d" % (
            workload, need, nproc())
    return None


def self_test():
    """Tiny-size checks of the benchmark itself; returns failures."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        if skipped(workload):
            log("self-test:", skipped(workload))
            continue
        for trace, seconds in ((0, 1), (1, 4)):
            _, failed, metrics, lines = measure(workload, 1, seconds,
                                                trace, scale="tiny")
            log("\n".join(lines))
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != want[trace]:
                problems.append("%s trace=%d: metrics/units %s != %s"
                                % (workload, trace, got, want[trace]))
            if failed:
                problems.append("%s trace=%d: %d failed operations"
                                % (workload, trace, failed))
            if trace and metrics["host.other"]["value"] >= 5.0:
                problems.append("%s: host.other %.1f %% >= 5 %%"
                                % (workload, metrics["host.other"]["value"]))
    good = spawn("gups32", 1, "tiny", False)["digest"]
    if spawn("gups32", 1, "tiny", False, expect=good)["errors"]:
        problems.append("digest check rejects an unchanged seed")
    if not spawn("gups32", 2, "tiny", False, expect=good)["errors"]:
        problems.append("digest check misses a perturbed seed")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")

    build()
    if args.self_test:
        problems = self_test()
        for p in problems:
            log("self-test FAILED:", p)
        print("self-test: %s" % ("ok" if not problems else "FAILED"))
        sys.exit(1 if problems else 0)

    if args.workload != "all":
        if skipped(args.workload):
            sys.exit(skipped(args.workload))
        attempted, failed, metrics, lines = measure(
            args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(result_line(attempted, failed, metrics))
        return

    total_attempted, total_failed, all_metrics = 0, 0, {}
    for workload in WORKLOADS:
        if skipped(workload):
            print(skipped(workload))
            continue
        attempted, failed, metrics, lines = measure(
            workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines) + "\n", flush=True)
        total_attempted += attempted
        total_failed += failed
        all_metrics.update({workload + "." + k: v for k, v in metrics.items()})
    print(result_line(total_attempted, total_failed, all_metrics))


if __name__ == "__main__":
    main()
