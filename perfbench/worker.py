"""Measure one workload in this process and write its metrics as JSON.

run.py starts this file in a fresh interpreter, so that peak memory
belongs to the workload alone:

    python3 perfbench/worker.py --workload certify --seed 0 --seconds 36 \
        --trace 0 --workdir DIR --result FILE

A run makes round(--seconds / nominal pass time) passes over the
workload's operation list, at least one.  The count depends on the
arguments only, not on how fast the host happens to be, so every run of
a workload pools the same samples.  Only a host slower than half the
nominal speed cuts a run short, after 2 x --seconds.  Each workload is
a closed loop with one client: an operation starts when the previous
one has been checked.

With --trace 1, untraced and traced passes alternate, untraced first,
at least one of each; the tracer is installed for the traced passes
only.  The cli workload then calls cli.main in-process in every pass, so
cli spans nest over the library spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import calibrate
import tracing
import workloads

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it.

    Nearest rank.  With ten samples or fewer no percentile qualifies and
    the maximum is reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    p = math.floor(100 * (n - 10) / n)
    return xs[math.ceil(p * n / 100) - 1], p


def run_pass(ops, ctx, chk, tracer=None) -> dict:
    """One pass over the operation list, every output checked.

    Untraced passes time the calibration kernel before the first operation
    and after each one; an operation's "scale" turns its raw seconds into
    reference seconds.  "wall_s" leaves the kernel's own time out.
    """
    ctx.outputs, ctx.counters = {}, {}
    records = []
    wall = scaled_wall = 0.0
    before = None if tracer else calibrate.sample()
    kernel = [before]
    root = tracer.open("bench.pass", "bench") if tracer else None
    for op in ops:
        t0 = time.perf_counter()
        if tracer:
            tracer.op = op.name
            sid = tracer.open(f"bench.op.{op.name}", "bench")
        latency = None
        try:
            if op.prepare:
                op.prepare(ctx)
            t = time.perf_counter()
            out = op.run(ctx)
            latency = time.perf_counter() - t
            chk.begin(op.name)
            op.check(chk, ctx, out)
            problems = chk.problems
        except Exception as e:  # an operation that raises counts as failed
            problems = [f"{type(e).__name__}: {e}"]
        if tracer:
            tracer.close(sid)
        segment = time.perf_counter() - t0
        scale = 1.0
        if not tracer:
            after = calibrate.sample()
            scale, before = calibrate.scale(before, after), after
            kernel.append(after)
        wall += segment
        scaled_wall += segment * scale
        records.append({"op": op.name, "tags": op.tags, "latency_s": latency,
                        "segment_s": segment, "scale": scale, "problems": problems})
    if tracer:
        tracer.close(root)
        tracer.op = None
    return {"wall_s": wall, "scaled_wall_s": scaled_wall, "ops": records,
            "kernel_s": kernel, "counters": dict(ctx.counters)}


def _scaled(r: dict) -> float:
    return r["latency_s"] * r["scale"]


def _tagged(p: dict, tag: str) -> float:
    return sum(_scaled(r) for r in p["ops"] if tag in r["tags"] and r["latency_s"] is not None)


def end_to_end(passes: list, peak_rss_mb: float) -> tuple:
    """(metrics, info) of untraced passes, in reference seconds: medians over
    passes, pooled latencies."""
    latencies = [_scaled(r) for p in passes for r in p["ops"] if r["latency_s"] is not None]
    tail_value, percentile = tail(latencies)
    metrics = {
        "wall_s": statistics.median(p["scaled_wall_s"] for p in passes),
        "decouple_s": statistics.median(_tagged(p, "decouple") for p in passes),
        "invert_s": statistics.median(_tagged(p, "invert") for p in passes),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"cmd_tail_percentile": percentile, "cmd_samples": len(latencies),
                     "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
                     "scale_median": statistics.median(r["scale"] for p in passes
                                                       for r in p["ops"])}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer: tracing.Tracer, p: dict) -> dict:
    """Layer metrics of one traced pass."""
    calls, count = tracer.calls, tracer.count
    self_s = tracer.self_times()
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.startswith(layer + "."))
        out[f"{layer}.failed"] = tracer.failed[layer]
    certs = sum("cert" in r["tags"] for r in p["ops"])
    out.update({
        "bench.self_s": self_s["bench"],
        "trace.wall_s": sum(s[5] - s[4] for s in tracer.spans if s[1] is None),
        "netham.assemble_per_cert": _ratio(calls["netham.assemble"], certs),
        "netham.dense_bytes": count["netham.dense_bytes"],
        "scheme.intervals": count["scheme.intervals"],
        "scheme.avg_flops": count["scheme.avg_flops"],
        "scheme.avg_bytes": count["scheme.avg_bytes"],
        "harmonic.avg_flops": count["harmonic.avg_flops"],
        "harmonic.dense_builds": _ratio(calls["harmonic.coupling_hamiltonian"],
                                        calls["harmonic.phase_average"]),
        "gf.elem_ops": calls["gf.add"] + calls["gf.mul"],
        "gf.fields_built": calls["gf.field_new"],
        "designs.entries_built": count["designs.entries_built"],
        "designs.pair_checks": count["designs.pair_checks"],
        "designs.group_checks": calls["designs.normalize_oa"],
        "signs.rows_built": count["signs.rows_built"],
        "bounds.eig_calls": calls["bounds.eigvals_sym"],
        "bounds.eig_dim_max": tracer.peak["bounds.eig_dim_max"],
        "bounds.search_gain": _ratio(count["bounds.search_gains"], count["bounds.search_trials"]),
        "graphcolor.edge_colorings": calls["graphcolor.edge_coloring"],
        "graphcolor.exact_share": _ratio(count["graphcolor.exact"],
                                         calls["graphcolor.edge_coloring"]),
        "cli.json_bytes_in": p["counters"].get("cli.json_bytes_in", 0),
        "cli.json_bytes_out": p["counters"].get("cli.json_bytes_out", 0),
    })
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
            expected: dict, ops: list | None = None, record: dict | None = None,
            spans_path: str | None = None) -> dict:
    """Run passes of one workload for about `seconds`; return metrics and outcomes."""
    make_ops, make_inputs, nominal = workloads.WORKLOADS[workload]
    count = max(1, round(seconds / nominal))
    op_list = [op for op in make_ops() if ops is None or op.name in ops]
    ctx = workloads.Context(seed, workdir, in_process=trace or workload != "cli")
    if make_inputs:
        make_inputs(ctx)
    chk = workloads.Checker(expected, workload, seed, record)
    # traced runs alternate untraced and traced passes so that both see the
    # same drift of the host's speed
    tracer = tracing.Tracer() if trace else None
    passes, untraced, layer_rows, spans = [], [], [], []
    give_up, last_wall = time.perf_counter() + 2 * seconds, 0.0
    for i in range(max(2, count) if trace else count):
        if i and time.perf_counter() + last_wall > give_up and (layer_rows or not trace):
            break
        traced = trace and i % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            p = run_pass(op_list, ctx, chk, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        last_wall = p["wall_s"]
        if traced:
            layer_rows.append(per_layer(tracer, p))
            spans.extend([i] + s for s in tracer.spans)
        (untraced if trace and not traced else passes).append(p)

    records = [r for p in passes + untraced for r in p["ops"]]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "ops": [{"name": op.name, "tags": list(op.tags)} for op in op_list],
        "passes": len(passes) + len(untraced),
        "attempted": len(records),
        "failed": sum(bool(r["problems"]) for r in records),
        "failures": sorted({f"{r['op']}: {msg}" for r in records for msg in r["problems"]}),
        "outcomes": {op.name: all(not r["problems"] for r in records if r["op"] == op.name)
                     for op in op_list},
        "numpy": np.__version__,
        "blas": _blas(),
    }
    if trace:
        metrics = {k: statistics.fmean(row[k] for row in layer_rows) for k in layer_rows[0]}
        reference = statistics.fmean(p["wall_s"] for p in untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - reference
        result["metrics"] = metrics
        result["info"] = {"untraced_wall_s": reference}
        if spans_path:
            with open(spans_path, "w") as f:
                for s in spans:
                    f.write(json.dumps(dict(zip(("pass", "id", "parent", "name", "layer",
                                                 "start", "end", "op", "raised"), s))) + "\n")
    else:
        who = resource.RUSAGE_SELF if ctx.in_process else resource.RUSAGE_CHILDREN
        peak_mb = resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB
        result["metrics"], result["info"] = end_to_end(passes, peak_mb)
        # raw timings of every pass, for the record that --out keeps
        result["timings"] = [{"kernel_s": p["kernel_s"],
                              "ops": [[r["op"], r["latency_s"], r["segment_s"]]
                                      for r in p["ops"]]} for p in passes]
    result["info"]["pass_walls_s"] = [round(p["wall_s"], 4) for p in passes]
    return result


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True, help="scratch directory for CLI files")
    ap.add_argument("--result", required=True, help="write the result JSON here")
    ap.add_argument("--spans", help="traced runs: write the spans here as JSON lines")
    ap.add_argument("--record", help="write the digests and default-seed values seen "
                                     "to this file (how expected.json was made)")
    args = ap.parse_args(argv)
    with open(EXPECTED) as f:
        expected = json.load(f)
    record = {} if args.record else None
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir,
                     expected, record=record, spans_path=args.spans)
    if record is not None:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
