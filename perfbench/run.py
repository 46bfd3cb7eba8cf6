"""Run one benchmark workload and print every metric with its unit.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 36 --trace 0

Run it from the repository root.  The workload runs in a fresh
interpreter (perfbench/worker.py) with PYTHONPATH=src and the BLAS
thread count pinned; set-up time is measured in fresh interpreters of
its own.  The human-readable report comes first: the environment, each
metric by name with its unit, and the output-check result.  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json,
timings in reference seconds (calibrate.py), with --trace 1 the per_layer
ones, in raw seconds.  --out DIR also keeps the full record
(environment, operation list, outcomes, spans) for report.py.

This file and calibrate.py use the standard library only, so that a
checkout without the package fails here, with a message and no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1          # no more than nproc; one thread keeps timings steady
SETUP_RUNS = 10           # set-up probes per run, half before the workload, half after
TIME_LIMIT_S = 170        # a run must end within 180 s
AFTER_RESERVE_S = 20      # kept from the worker's time for the probes after it
SETUP_CODE = """\
import pulseforge.cli
from pulseforge import error_basis, gf, netham
gf.field_new(2, 2)
error_basis.generalized_pauli_basis(2)
netham.gell_mann_basis(2)
print("ready", flush=True)
"""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    # cached bytecode as an installed package has it; the warm-up probe writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def setup_times(env: dict, count: int) -> list:
    """(raw, reference) seconds from a fresh interpreter until pulseforge is
    imported and the first basis and field are built, once per probe; the
    calibration kernel is timed before and after each probe."""
    times = []
    before = calibrate.sample()
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                              text=True, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise RuntimeError("set-up probe did not exit") from None
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError("set-up probe failed")
        after = calibrate.sample()
        times.append((t1 - t0, (t1 - t0) * calibrate.scale(before, after)))
        before = after
    return times


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(args, env: dict, workdir: str, result_path: str, spans_path: str | None,
               budget: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir, "--result", result_path]
    if spans_path:
        cmd += ["--spans", spans_path]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # the worker and its CLI children
            proc.wait()
            raise RuntimeError(f"workload did not finish within {budget:.0f} s")
    if code:
        raise RuntimeError(f"worker exited with code {code}")
    with open(result_path) as f:
        return json.load(f)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description="Run one pulseforge benchmark workload.")
    # the worker knows every workload, synthesize included, and refuses others
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory that keeps the full record of this run")
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "pulseforge", "__init__.py")):
        print(f"error: no pulseforge package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]

    # one CPU for this process and all it starts, so that the calibration
    # kernel runs where the work it calibrates runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    setup = []
    if not args.trace:
        # the first probe only warms caches; the others straddle the workload,
        # so a slow spell of a shared host does not catch all of them
        setup_times(env, 1)
        setup = setup_times(env, SETUP_RUNS // 2)
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = None
    if args.out and args.trace:
        os.makedirs(args.out, exist_ok=True)
        spans_path = os.path.join(os.path.abspath(args.out), stem + ".spans.jsonl")
    try:
        res = run_worker(args, env, workdir, os.path.join(workdir, "result.json"), spans_path,
                         TIME_LIMIT_S - AFTER_RESERVE_S - (time.perf_counter() - start))
        if not args.trace:
            setup += setup_times(env, SETUP_RUNS - len(setup))
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(ref for _, ref in setup)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: workload reported no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    env_record = {
        "python": platform.python_version(), "numpy": res["numpy"], "blas": res["blas"],
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "ops": res["ops"],
    }

    print("env " + json.dumps(env_record))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {res['passes']} passes, "
          f"{res['attempted']} operations, {res['failed']} failed "
          f"(fail_frac {res['failed'] / res['attempted']:.4g})")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    for key, value in res["info"].items():
        print(f"  ({key} = {value})")
    if not args.trace:
        print(f"  (setup_s is the median of {len(setup)} fresh interpreters, half of "
              f"them before the workload and half after; raw median "
              f"{statistics.median(raw for raw, _ in setup):.6g} s)")
    else:
        total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        print(f"  layer self times plus bench.self_s: {total:.6f} s "
              f"(trace.wall_s {values['trace.wall_s']:.6f} s)")
        print(f"  tracing overhead {values['trace.overhead_s']:+.4f} s "
              f"(traced {values['trace.wall_s']:.4f} s, untraced "
              f"{res['info']['untraced_wall_s']:.4f} s)")
    print("check: " + ("every output matched" if result["correct"] else
                       f"{res['failed']} operations failed"))
    for line in res["failures"][:20]:
        print("  FAILED " + line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, stem + ".json")
        with open(path, "w") as f:
            json.dump({"env": env_record, "result": result, "info": res["info"],
                       "setup_runs_s": setup, "timings": res.get("timings", []),
                       "outcomes": res["outcomes"],
                       "failures": res["failures"]}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
