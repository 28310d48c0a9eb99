"""prarray benchmark: one workload, one seed, one line of metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads: sweep, large, algebra, cli (see perfbench/README.md).  Each
runs a seeded, fixed list of operations in a closed loop (one client,
the next operation starts when the previous one ends), in whole rounds,
until --seconds have passed.  Every output is checked.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run.  Set-up time is taken
from several fresh processes and reported as their median.

Standard library only; the program is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep", "large", "algebra", "cli")
SETUP_SAMPLES = 5  # processes whose set-up is timed; the last one measures
SETUP_TIMEOUT_S = 30.0
WORKER_TIMEOUT_S = 165.0


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "sympy"):
        try:
            from importlib.metadata import version

            versions[dist] = version(dist)
        except Exception:  # metadata missing: report, do not fail
            versions[dist] = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "sympy": versions["sympy"],
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn_worker(args, setup_only):
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else WORKER_TIMEOUT_S
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, p99 at 1000 samples or more; below 11 samples,
    the maximum (percentile 100)."""
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return ordered[-1], 100.0, n
    pct = 99.0 if n >= 1000 else 100.0 * (n - 10) / n
    rank = min(n - 1, max(0, int(round(pct / 100.0 * n)) - 1))
    return ordered[rank], pct, n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "prarray", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'prarray')}", file=sys.stderr)
        return 2

    samples = [spawn_worker(args, True) for _ in range(SETUP_SAMPLES - 1)]
    res = spawn_worker(args, False)
    samples.append(res)
    setups = [s["setup_s"] for s in samples]
    env = environment(args.seed)

    attempted, failed = res["attempted"], res["failed"]
    summary = {
        "workload": args.workload,
        "env": env,
        "digest": res["digest"],
        "rounds": res["rounds"],
        "ops_per_round": res["ops_per_round"],
        "setup_samples_s": setups,
        "raw_setup_samples_s": [s["raw_setup_s"] for s in samples],
        "host_speed": res["host_speed"],
        "failures": res["failures"],
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(res["per_layer"].items())}
        for key in ("module_shares", "known_defect_probes", "absent_hooks", "spans_file",
                    "traced_round_walls_s", "round_walls_s"):
            summary[key] = res[key]
    else:
        lat_ms = [s * 1000.0 for s in res["latencies_s"]]
        tail, pct, n = tail_latency(lat_ms)
        summary["latency_samples"] = n
        summary["op_tail_percentile"] = pct
        summary["round_walls_s"] = res["round_walls_s"]
        summary["raw_round_walls_s"] = res["raw_round_walls_s"]
        summary["op_kind_median_ms"] = res["op_kind_median_ms"]
        metrics = {
            "wall_s": {"value": statistics.median(res["round_walls_s"]), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_tail_ms": {"value": tail, "unit": "ms"},
            "success_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "metrics": metrics}, fh, indent=1, sort_keys=True)

    for name, m in metrics.items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{summary['op_tail_percentile']:.1f} of {summary['latency_samples']} ops)"
        elif name in ("wall_s",):
            extra = f"  (median of {res['rounds']} rounds)"
        elif name == "setup_s":
            extra = f"  (median of {len(setups)} processes)"
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}{extra}")
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
