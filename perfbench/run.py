"""latgauge benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fme-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports ``src/latgauge``).
Each run starts its own child processes, so set-up time and peak RSS
belong to the workload alone, with BLAS/OpenMP pools pinned to one
thread and every kernel cache in a private directory under
``.perfbench_tmp/``. With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics of the traced run instead
(spans go to ``.perfbench_out/``). Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170  # the whole run, all children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run."""


def _child(args, root: str, scratch: str, mode: str, index: int,
           deadline: float) -> tuple[dict, float]:
    """Start one worker, wait for it, and return its result together with
    the monotonic time at which it was started."""
    workdir = os.path.join(scratch, f"{mode}{index}")
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["LATGAUGE_CACHE"] = os.path.join(workdir, "cache")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--root", root, "--workdir", workdir, "--result", result_path]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s in a {mode} child") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path, encoding="ascii") as fh:
        return json.load(fh), started


def _setup_seconds(res: dict, started: float) -> float:
    """Set-up time of one child in reference seconds, scaled by the
    calibration samples it took right after."""
    speed = res["reference_s"] / statistics.median(res["calibration"])
    return (res["ready"] - started) * speed


def end_to_end(setups: list[float], res: dict) -> tuple[dict, list[str]]:
    loop = res["loop"]
    lat, busy = stats.scaled(loop, res["reference_s"])
    n = len(lat)
    if n == 0:
        raise BenchError("no op succeeded")
    raw = [x for x in loop["latencies"] if x is not None]
    tail_s, tail_pct, above = stats.tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (res["peak_rss_mib"], "MiB"),
    }
    cal = [s for _op, s in loop["samples"]]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{n} ops; wall {n / sum(loop['cycles']):.4g}/s",
        "op_p50_s": f"n={n}; wall {statistics.median(raw):.4g} s",
        "op_tail_s": f"p{tail_pct:.1f}, n={n}, {above} above; wall {stats.tail(raw)[0]:.4g} s",
        "peak_rss_mb": "worker process",
    }
    lines = [f"{k:<12} {v:>12.6g} {u:<4} ({notes[k]})" for k, (v, u) in metrics.items()]
    lines.append(f"{'error_rate':<12} {res['failed'] / res['attempted']:>12.6g} {'1':<4} "
                 f"({res['failed']} of {res['attempted']} ops failed)")
    lines.append(f"times in reference seconds; calibration median {statistics.median(cal):.4g} s "
                 f"over {len(cal)} samples, reference {res['reference_s']} s")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "latgauge", "cli.py")):
        print(f"error: no latgauge sources under {root}/src", file=sys.stderr)
        return 2
    tmp_parent = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=tmp_parent)
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + RUN_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for i in range(SETUPS - 1):
                res, started = _child(args, root, scratch, "setup", i, deadline)
                setups.append(_setup_seconds(res, started))
        res, started = _child(args, root, scratch, "run", 0, deadline)
        setups.append(_setup_seconds(res, started))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for err in res["errors"]:
        print(f"failed op: {err}")
    correct = res["failed"] == 0
    if args.trace:
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        for k, (v, u) in metrics.items():
            print(f"{k:<40} {v:>14.6g} {u}")
        print(f"{'error_rate':<40} {res['failed'] / res['attempted']:>14.6g} 1")
        if res["silent"]:
            print(f"error: layers {', '.join(res['silent'])} recorded no calls on "
                  f"{args.workload}", file=sys.stderr)
            return 1
    else:
        try:
            metrics, lines = end_to_end(setups, res)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
    if any(not math.isfinite(v) for v, _u in metrics.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
