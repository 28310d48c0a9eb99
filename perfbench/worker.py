"""One workload process: set up, run whole rounds of the operation list
for the requested time, and print one JSON result line.

Started by run.py, which passes the monotonic time at which it spawned
this process, so set-up time includes interpreter start and imports.
Times are read from a HostClock (reference-host seconds); raw
wall-clock round times are reported beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

from hostclock import REFERENCE_KERNEL_S, HostClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_out")
# stop starting rounds once another one could overrun this budget
ROUND_BUDGET_S = 140.0


def _import_prarray():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import prarray

    if not os.path.abspath(prarray.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"prarray imported from {prarray.__file__}, not from {src}")


def _warm_up(name, ctx):
    """Load lazily initialised paths (numpy, caches) before timing."""
    import workloads as w
    from prarray.folding import CodeParams
    from prarray.gf2poly import parse

    if name == "cli":
        w.cli_call(ctx, ["--help"], w.CLI_DEADLINE_S)
        return
    w._sweep_case(parse("x^6+x^5+x^4+x^2+1"), 21, CodeParams(3, 7, 2, 3), {})
    w._sweep_case(parse("x^10+x^3+1"), 1023, CodeParams(3, 341, 2, 5), {})
    w._vee_golden_op(*w.VEE_GOLDENS[0])
    w._exponent_op(73)


def run_round(ops, clock, tracer=None, sample_between=False):
    """(reference s, raw s, [(latency in reference s, ok, record or
    error)]) for one pass.  Calibration time is left out of every raw
    timing; each timing is then scaled by the host speed over its own
    interval.  With ``sample_between`` the clock is sampled before each
    operation and after the last, for operations that run in a child
    process (the SIGALRM timer would compete with the child)."""
    state = {}
    raw_results = []
    spent = clock.spent
    start = time.perf_counter()
    for idx, op in enumerate(ops):
        if sample_between:
            clock.sample(runs=3)
        span = None
        if tracer is not None:
            tracer.op_id = idx
            span = tracer.open(op.kind)
        op_spent = clock.spent
        t0 = time.perf_counter()
        try:
            rec, ok = op.run(state), True
        except Exception as exc:  # any failure of an operation is counted, not fatal
            rec, ok = f"{op.kind}: {type(exc).__name__}: {exc}", False
        t1 = time.perf_counter()
        if span is not None:
            tracer.close(span)
            tracer.op_id = None
        raw_results.append((t0, t1, t1 - t0 - (clock.spent - op_spent), ok, rec))
    if sample_between:
        clock.sample(runs=3)
    end = time.perf_counter()
    raw = end - start - (clock.spent - spent)
    results = []
    for (t0, t1, dt, ok, rec), op in zip(raw_results, ops):
        dt *= clock.scale(t0, t1)
        if ok and dt > op.deadline_s:
            rec, ok = f"{op.kind}: missed the {op.deadline_s}s deadline ({dt:.2f}s)", False
        results.append((dt, ok, rec))
    return raw * clock.scale(start, end), raw, results


def digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mib(include_children):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _subprocess_median(argv, env, clock, samples=5):
    import subprocess

    times = []
    for _ in range(samples):
        clock.sample(runs=3)
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        clock.sample(runs=3)
        times.append((t1 - t0) * clock.scale(t0, t1))
    return statistics.median(times)


def layer_metrics(tracer, traced_rounds, scale, instr, cache_delta, name, ctx, clock):
    import spans
    import workloads as w

    per = 1.0 / traced_rounds
    names = [f"{m}.{f}" for m, fs in spans.PUBLIC_LAYERS.items() for f in fs]
    names.append("gf2field.order")
    subcommands = ["construct", "verify", "vee", "check-fold", "enumerate", "classify", "conjecture"]
    cli_names = [f"cli.{s}" for s in subcommands]
    private = [label for label in spans.PRIVATE_LAYERS.values() if label not in instr.absent]
    totals = tracer.layer_totals(names + cli_names + private)
    out = {}
    for n in names + cli_names:
        calls, busy = totals[n]
        out[f"{n}.calls"] = (calls * per, "count")
        out[f"{n}.busy_s"] = (busy * per * scale, "s")
    for label in private:
        out[label] = (totals[label][1] * per * scale, "s")

    def work(layer, key):
        return tracer.counts.get(layer, {}).get(key, 0) * per

    def rate(layer, key):
        busy = totals[layer][1] * per * scale
        return work(layer, key) / busy if busy else 0.0

    out["criteria.det_test.rank_dim"] = (work("criteria.det_test", "rank_dim"), "count")
    out["verify.window_census.windows"] = (work("verify.window_census", "windows"), "count")
    out["verify.window_census.arrays"] = (work("verify.window_census", "arrays"), "count")
    out["verify.window_census.windows_per_s"] = (rate("verify.window_census", "windows"), "1/s")
    out["folding.fold_zero_factor.cells"] = (work("folding.fold_zero_factor", "cells"), "count")
    out["lfsr.zero_factor.states"] = (work("lfsr.zero_factor", "states"), "count")
    out["lfsr.zero_factor.cycles"] = (work("lfsr.zero_factor", "cycles"), "count")
    out["lfsr.zero_factor.states_per_s"] = (rate("lfsr.zero_factor", "states"), "1/s")
    out["gf2poly.enumerate_irreducible.polys"] = (
        work("gf2poly.enumerate_irreducible", "polys"), "count")
    for label, (hits, misses) in cache_delta.items():
        total = hits + misses
        out[label] = (hits / total if total else 0.0, "1")

    interp = imp = 0.0
    probed = mishandled = 0
    if name == "cli":
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        interp = _subprocess_median([sys.executable, "-c", "pass"], env, clock)
        imp = _subprocess_median([sys.executable, "-c", "import prarray.cli"], env, clock) - interp
        codes = w.probe_known_defects(ctx)
        probed = len(codes)
        mishandled = sum(1 for c in codes.values() if c != 2)
        out["_probes"] = codes
    out["cli.interpreter_s"] = (interp, "s")
    out["cli.import_s"] = (imp, "s")
    out["cli.refused_inputs.probed"] = (probed, "count")
    out["cli.refused_inputs.mishandled"] = (mishandled, "count")
    return out


def module_shares(tracer, round_wall):
    """Share of traced round time spent under each prarray module,
    counting nested spans of one module once."""
    import spans

    spans_ = tracer.spans
    modules = set(spans.PUBLIC_LAYERS) | {"gf2field"}
    busy = {}
    for name, _, _, parent, _, _, span_busy in spans_:
        mod = name.split(".")[0]
        if mod not in modules:
            continue
        p = parent
        nested = False
        while p >= 0:
            if spans_[p][0].split(".")[0] == mod:
                nested = True
                break
            p = spans_[p][3]
        if not nested:
            busy[mod] = busy.get(mod, 0.0) + span_busy
    return {m: b / round_wall for m, b in sorted(busy.items())}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    subprocess_ops = args.workload == "cli"
    if subprocess_ops and hasattr(os, "sched_setaffinity"):
        # children inherit this, so they run on the core the clock samples
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    clock = HostClock()
    if not subprocess_ops:
        clock.start_timer()
    _import_prarray()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as w

    os.makedirs(WORK_DIR, exist_ok=True)
    # a relative path, so the documents (and the digest) do not depend on where the checkout is
    ctx = w.CliContext(ROOT, os.path.relpath(os.path.join(WORK_DIR, f"cli-{args.seed}"), ROOT))
    wl = w.BUILDERS[args.workload](args.seed, ctx)
    _warm_up(args.workload, ctx)
    clock.sample()
    raw_setup_s = time.monotonic() - args.spawned_at - clock.spent
    setup_s = raw_setup_s * clock.scale(clock.samples[0][0], time.perf_counter())
    if args.setup_only:
        clock.stop_timer()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    import spans

    tracer = spans.Tracer(lambda: clock.spent) if args.trace else None
    plain_walls, traced_walls, raw_walls, all_results, first = [], [], [], [], None
    traced_scales = []
    instr = None
    cache_delta = {}
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and len(traced_walls) < len(plain_walls)
        if traced:
            before = spans.cache_snapshot()
            with spans.Instrumented(tracer) as instr:
                wall, raw, results = run_round(wl.ops, clock, tracer, subprocess_ops)
            for label, (h, m) in spans.cache_snapshot().items():
                h0, m0 = before.get(label, (0, 0))
                dh, dm = cache_delta.get(label, (0, 0))
                cache_delta[label] = (dh + h - h0, dm + m - m0)
            traced_walls.append(wall)
            traced_scales.append(wall / raw)
        else:
            wall, raw, results = run_round(wl.ops, clock, None, subprocess_ops)
            plain_walls.append(wall)
            raw_walls.append(raw)
        # every round repeats the same operations: records must repeat
        if first is None:
            first = [rec for _, ok, rec in results]
        else:
            for i, (dt, ok, rec) in enumerate(results):
                if ok and rec != first[i]:
                    results[i] = (dt, False, f"{wl.ops[i].kind}: result differs from the first round")
        all_results.extend(results)
        elapsed = time.monotonic() - started
        rounds = len(plain_walls) + len(traced_walls)
        need_more = rounds < wl.min_rounds or (args.trace and not traced_walls)
        if not need_more and (elapsed >= args.seconds or elapsed + raw > ROUND_BUDGET_S):
            break

    clock.stop_timer()
    failures = [rec for _, ok, rec in all_results if not ok]
    latencies = [dt for dt, ok, _ in all_results if ok]
    by_kind = {}
    for (dt, ok, _), op in zip(all_results, wl.ops * (len(all_results) // len(wl.ops))):
        if ok:
            by_kind.setdefault(op.kind, []).append(dt * 1000.0)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "rounds": len(plain_walls),
        "round_walls_s": plain_walls,
        "raw_round_walls_s": raw_walls,
        "host_speed": REFERENCE_KERNEL_S / statistics.median(k for _, k in clock.samples),
        "ops_per_round": len(wl.ops),
        "attempted": len(all_results),
        "failed": len(failures),
        "failures": failures[:20],
        "latencies_s": latencies,
        "op_kind_median_ms": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "digest": digest(first),
        "peak_rss_mib": peak_rss_mib(subprocess_ops),
    }
    if args.trace:
        per_layer = layer_metrics(tracer, len(traced_walls), statistics.median(traced_scales),
                                  instr, cache_delta, args.workload, ctx, clock)
        probes = per_layer.pop("_probes", None)
        plain = statistics.median(plain_walls)
        traced = statistics.median(traced_walls)
        per_layer["trace.overhead_ratio"] = ((traced - plain) / plain, "1")
        out["per_layer"] = per_layer
        out["traced_round_walls_s"] = traced_walls
        out["module_shares"] = module_shares(tracer, sum(w / f for w, f in zip(traced_walls, traced_scales)))
        out["known_defect_probes"] = probes
        out["absent_hooks"] = instr.absent
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.export()}, fh)
        out["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
