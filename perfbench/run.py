#!/usr/bin/env python3
"""Simulator-cost benchmark: host time and memory of three fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call builds the simulator and the
probe binary (perfbench.cpp) in Release into .bench_build/perfbench.

--trace 0 starts one fresh single-threaded perfbench process per sample until
--seconds have passed, and reports the median wall_s, setup_s, run_s and
peak_rss_mb over the samples. --trace 1 is the traced run: the workload once
with spans at its setup/run/tail boundaries, its three set-up constructors
each timed cold in a process of its own, and nine per-operation probes; it
prints every per-layer metric beside the end-to-end metric it should move.
Every run checks the simulated results against the pins below and exits 1
if one differs. The last line of stdout is one JSON object. README.md in
this directory explains the choices.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
CHILD_TIMEOUT_S = 150

# Simulated results of each workload at seed 1, and the peak RSS a run needs.
# Only serve-knee takes the seed; the others have fixed inputs, so their pins
# hold at every seed.
WORKLOADS = {
    "allreduce-gputn": {
        "seeded": False,
        "peak_rss_mb": 1264,
        "pins": {"sim_time_ps": 480555576, "messages": 32512,
                 "switch_packets": 97536, "cpu_ops": 32640},
    },
    "serve-knee": {
        "seeded": True,
        "peak_rss_mb": 2085,
        "pins": {"sim_time_ps": 2076360000, "messages": 128000,
                 "switch_packets": 128000, "cpu_ops": 580661},
    },
    "jacobi-gputn": {
        "seeded": False,
        "peak_rss_mb": 327,
        "pins": {"sim_time_ps": 2487925280, "messages": 512,
                 "switch_packets": 1536, "cpu_ops": 143548},
    },
}
TINY_RSS_MB = 300
ALL = "all"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"),
              ("peak_rss_mb", "MB")]

# Per-layer metric, unit, the end-to-end metric it should move, the
# workloads it should move it on, the workloads on which it should stay flat.
# All three workloads run on a star, and none uses two-sided receives, so the
# topology build and receive matching move no end-to-end metric here.
PER_LAYER = [
    ("cluster.build_s", "s", "setup_s", ALL, ""),
    ("mem.dram_s", "s", "setup_s peak_rss_mb",
     "serve-knee allreduce-gputn", "jacobi-gputn"),
    ("mem.page_faults", "count", "setup_s peak_rss_mb",
     "serve-knee allreduce-gputn", "jacobi-gputn"),
    ("net.topology_s", "s", "setup_s", "", ALL),
    ("workloads.tail_s", "s", "wall_s", "jacobi-gputn", "serve-knee"),
    ("sim.sim_time_ps", "ps", "none (pinned)", "", ALL),
    ("net.messages", "count", "none (pinned)", "", ALL),
    ("net.switch_packets", "count", "none (pinned)", "", ALL),
    ("cpu.ops", "count", "none (pinned)", "", ALL),
    ("sim.event_ns", "ns", "run_s", ALL, ""),
    ("sim.process_ns", "ns", "run_s", "allreduce-gputn", "jacobi-gputn"),
    ("gpu.poll_ns", "ns", "run_s", "allreduce-gputn serve-knee", ""),
    ("cpu.poll_ns", "ns", "run_s", "serve-knee", "allreduce-gputn"),
    ("core.trigger_ns", "ns", "run_s", "allreduce-gputn serve-knee",
     "jacobi-gputn"),
    ("nic.put_ns", "ns", "run_s", "serve-knee allreduce-gputn",
     "jacobi-gputn"),
    ("nic.match_ns", "ns", "run_s", "", ALL),
    ("net.hop_ns", "ns", "run_s", "serve-knee allreduce-gputn",
     "jacobi-gputn"),
    ("mem.access_ns", "ns", "run_s", "jacobi-gputn", ""),
]


class BenchError(Exception):
    """A failure that ends the benchmark with exit code 1 and no result."""


def log(msg=""):
    print(msg, flush=True)


def build():
    """Configure once, then bring the Release probe binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            raise BenchError("build failed: " + " ".join(cmd))


def mem_available_mb():
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) // 1024
    raise BenchError("MemAvailable missing from /proc/meminfo")


def cmake_value(text, key):
    """Value of `set(KEY "value")` or a `KEY:TYPE=value` cache line."""
    for line in text.splitlines():
        if line.startswith(f'set({key} "'):
            return line.split('"')[1]
        if line.startswith(key + ":"):
            return line.partition("=")[2]
    return "?"


def host_line():
    build_type = cmake_value((BUILD / "CMakeCache.txt").read_text(),
                             "CMAKE_BUILD_TYPE")
    compiler = "?"
    for f in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        compiler = (cmake_value(text, "CMAKE_CXX_COMPILER_ID") + " " +
                    cmake_value(text, "CMAKE_CXX_COMPILER_VERSION"))
    uname = platform.uname()
    return (f"host: nproc={len(os.sched_getaffinity(0))} "
            f"mem_available_mb={mem_available_mb()} "
            f"kernel={uname.system} {uname.release} {uname.machine} "
            f"compiler={compiler} build_type={build_type}")


def preflight(workload, tiny):
    need = TINY_RSS_MB if tiny else WORKLOADS[workload]["peak_rss_mb"]
    need = int(need * 1.1) + 64
    have = mem_available_mb()
    if have < need:
        sys.stderr.write(f"perfbench: {workload} needs about {need} MB "
                         f"(pinned peak RSS plus margin) but MemAvailable is "
                         f"{have} MB; not starting it\n")
        sys.exit(2)


def measure(*args):
    """One fresh perfbench process; returns its JSON, or raises on failure."""
    cmd = [str(BINARY), *args]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s: "
                         + " ".join(args))
    if p.returncode != 0:
        raise BenchError(f"exit {p.returncode}: {' '.join(args)}: "
                         + p.stderr.strip())
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("no JSON result: " + " ".join(args))


def span(result, name):
    for s in result["spans"]:
        if s["name"] == name:
            return s["end_s"] - s["start_s"]
    raise BenchError(f"span {name} missing")


def check(workload, seed, tiny, result):
    """Errors in a workload run's simulated results (empty when it passes)."""
    errors = [] if result["correct"] else ["result not verified correct"]
    spec = WORKLOADS[workload]
    if not tiny and (seed == 1 or not spec["seeded"]):
        for key, want in spec["pins"].items():
            if result[key] != want:
                errors.append(f"{key} {result[key]} != pinned {want}")
    return errors


def simulated(result):
    return " ".join(f"{k} {result[k]}" for k in
                    ("sim_time_ps", "messages", "switch_packets", "cpu_ops",
                     "gpu_cu_ops"))


def run_args(workload, seed, tiny):
    return ["run", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])


def timed(args):
    """--trace 0: fresh-process samples until --seconds have passed."""
    samples, failed, attempted = [], 0, 0
    t0 = time.monotonic()
    while attempted == 0 or time.monotonic() - t0 < args.seconds:
        attempted += 1
        try:
            r = measure(*run_args(args.workload, args.seed, args.tiny))
            errors = check(args.workload, args.seed, args.tiny, r)
        except BenchError as e:
            r, errors = None, [str(e)]
        if errors:
            failed += 1
            log(f"sample {attempted}: FAILED: {'; '.join(errors)}")
            continue
        s = {"wall_s": span(r, "workload"), "setup_s": span(r, "setup"),
             "run_s": span(r, "run"), "tail_s": span(r, "tail"),
             "peak_rss_mb": r["peak_rss_mb"]}
        samples.append(s)
        log(f"sample {attempted}: " +
            " ".join(f"{k} {v:.4f}" for k, v in s.items()) +
            f" | {simulated(r)}")
    log(f"{len(samples)} of {attempted} samples ok in "
        f"{time.monotonic() - t0:.1f} s")
    metrics = {}
    for name, unit in END_TO_END:
        values = [s[name] for s in samples]
        if not values:
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        log(f"  {name:12s} median {metrics[name]['value']:.4f} {unit} "
            f"(min {min(values):.4f}, max {max(values):.4f}, "
            f"n {len(values)})")
    return attempted, failed, metrics


def traced(args):
    """--trace 1: spans around each layer's calls, exact counts, probes."""
    w, seed, tiny = args.workload, args.seed, args.tiny
    extra = ["--tiny"] if tiny else []
    steps = [("run", run_args(w, seed, tiny))]
    steps += [(f"build.{part}", ["build", w, part] + extra)
              for part in ("cluster", "dram", "topology")]
    steps += [("probes", ["probes", w] + extra)]
    out, failed = {}, 0
    for label, argv in steps:
        try:
            out[label] = measure(*argv)
            errors = check(w, seed, tiny, out[label]) if label == "run" else []
        except BenchError as e:
            errors = [str(e)]
        if errors:
            failed += 1
            out.pop(label, None)
            log(f"{label}: FAILED: {'; '.join(errors)}")
    spans_file = BUILD / "spans" / f"{w}-seed{seed}.json"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps(
        {k: v["spans"] for k, v in out.items()}, indent=1))

    values = {}
    if "run" in out:
        r = out["run"]
        log(f"traced workload: wall_s {span(r, 'workload'):.4f} setup_s "
            f"{span(r, 'setup'):.4f} run_s {span(r, 'run'):.4f} s; tracing "
            f"overhead = this wall_s minus the --trace 0 median")
        log(f"simulated: {simulated(r)}")
        values.update({"workloads.tail_s": span(r, "tail"),
                       "sim.sim_time_ps": r["sim_time_ps"],
                       "net.messages": r["messages"],
                       "net.switch_packets": r["switch_packets"],
                       "cpu.ops": r["cpu_ops"]})
    if "build.cluster" in out:
        values["cluster.build_s"] = span(out["build.cluster"], "cluster.build")
        values["mem.page_faults"] = out["build.cluster"]["page_faults"]
    if "build.dram" in out:
        values["mem.dram_s"] = span(out["build.dram"], "mem.dram")
    if "build.topology" in out:
        values["net.topology_s"] = span(out["build.topology"], "net.topology")
    if "probes" in out:
        for name, *_ in PER_LAYER:
            if name in out["probes"]:
                values[name] = out["probes"][name]

    log(f"per-layer metrics of {w} (spans: {spans_file.relative_to(ROOT)})")
    log(f"  {'metric':20s} {'value':>14s} {'unit':5s}  {'here':6s} "
        f"{'moves':20s} on / flat on")
    metrics = {}
    for name, unit, moves, on, flat in PER_LAYER:
        if name not in values:
            continue
        v = values[name]
        metrics[name] = {"value": v, "unit": unit}
        shown = f"{v:14d}" if isinstance(v, int) else f"{v:14.6g}"
        here = ("moves" if on == ALL or w in on.split() else
                "flat" if flat == ALL or w in flat.split() else "-")
        log(f"  {name:20s} {shown} {unit:5s}  {here:6s} {moves:20s} "
            f"{on or '-'} / {flat or '-'}")
    return len(steps), failed, metrics


def self_check():
    """Run every workload tiny in both modes; check each metric and unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", wl["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=900)
            where = f"{wl['name']} --trace {trace}"
            try:
                res = json.loads(p.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no JSON result (exit "
                                f"{p.returncode}) {p.stderr.strip()}")
                continue
            if p.returncode != 0 or not res["correct"] or res["failed"]:
                problems.append(f"{where}: exit {p.returncode}, {res}")
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: keys {sorted(res)}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            for k, v in res["metrics"].items():
                x = v.get("value")
                if not isinstance(x, (int, float)) or not math.isfinite(x):
                    problems.append(f"{where}: {k} value {x!r}")
            log(f"{where}: {len(got)} metrics with units")
    for p in problems:
        log("PROBLEM " + p)
    log("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check sizes; simulated pins are not checked")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        preflight(args.workload, args.tiny)
        log(host_line())
        log(f"workload {args.workload} seed {args.seed} trace {args.trace}"
            + (" tiny" if args.tiny else ""))
        attempted, failed, metrics = (traced if args.trace else timed)(args)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
