"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py    # about two minutes

1. Perturbed outputs count as failed ops: each workload runs one real op
   through the benchmark's client, then ops whose output file is altered
   after ``latgauge.cli.main`` returns (a phase off by 1e-6, a center
   dimension off by one, ...) and ops that exit nonzero or raise.
2. A loop of 1 ms ops keeps calibration near its share of the run, so
   a run stays near ``--seconds`` long however short the ops get.
3. A one-second smoke run of each workload, untraced and traced, prints
   every metric of ``BENCHMARK.json`` with its unit, with no failed op.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types

from run import HERE, RUN_LIMIT_S, THREAD_VARS

ROOT = os.path.dirname(HERE)


def _edit_csv(path, row, col, delta=0.0, drop=False):
    with open(path, encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    if drop:
        del rows[row]
    else:
        rows[row][col] = repr(float(rows[row][col]) + delta)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def _edit_json(path, edit):
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)


def _rename_first_cross(doc):
    entry = next(e for e in doc["basis"] if e["label"].startswith("CROSS"))
    entry["label"] = entry["label"].replace("CROSS", "EDGE")


PERTURBATIONS = {
    "fme-sweep": {
        "phi_LR off by 1e-6": lambda p: _edit_csv(p, 2, 2, 1e-6),
        "phi_RR off by 1e-6": lambda p: _edit_csv(p, 6, 4, -1e-6),
        "entropy off by 1e-6": lambda p: _edit_csv(p, 3, 5, 1e-6),
        "tau row missing": lambda p: _edit_csv(p, 4, 0, drop=True),
    },
    "fme-large": {
        "phi_LL off by 1e-6": lambda p: _edit_csv(p, 1, 1, 1e-6),
    },
    "dynamics-trajectory": {
        "Gauss residual drifts by 1e-6": lambda p: _edit_csv(p, 500, 2, 1e-6),
        "last step missing": lambda p: _edit_csv(p, -1, 0, drop=True),
    },
    "algebra-centers": {
        "dimension off by one": lambda p: _edit_json(p, lambda d: d.update(dimension=d["dimension"] - 1)),
        "a center element missing": lambda p: _edit_json(p, lambda d: d["basis"].pop()),
        "an interior CROSS label missing": lambda p: _edit_json(p, _rename_first_cross),
    },
}


class _PerturbedCli:
    """Stands in for ``latgauge.cli``: runs the real command, then
    applies ``after`` to the output file it wrote."""

    def __init__(self, cli, out, after):
        self._cli, self._out, self._after = cli, out, after

    def main(self, argv):
        code = self._cli.main(argv)
        return self._after(self._out, code)


def _perturbation_checks(scratch: str) -> list[str]:
    import random

    import workloads
    from calibrate import Calibrator
    from worker import Client, _import_latgauge, _setup

    latgauge = _import_latgauge(ROOT)
    problems = []
    for name, perturbations in PERTURBATIONS.items():
        workload = workloads.make(name)
        workdir = tempfile.mkdtemp(dir=scratch)
        cache = os.path.join(workdir, "cache")
        _setup(latgauge, workload, cache)
        workload.prepare(latgauge)
        client = Client(latgauge, workload, random.Random(7), workdir, cache,
                        Calibrator(*workload.calibration[:2]))
        real_cli = client.cli

        def expect(label, fails):
            before = client.failed
            client.op()
            failed = client.failed > before
            print(f"{name:<20} {label:<32} {'failed' if failed else 'passed'}")
            if failed != fails:
                problems.append(f"{name}: {label}: the op {'failed' if failed else 'passed'}")

        expect("unaltered output", fails=False)
        for label, edit in perturbations.items():
            client.cli = _PerturbedCli(real_cli, client.out, lambda p, code, e=edit: (e(p), code)[1])
            expect(label, fails=True)
        client.cli = _PerturbedCli(real_cli, client.out, lambda _p, _code: 1)
        expect("exit code 1", fails=True)

        def raise_error(_p, _code):
            raise RuntimeError("injected")

        client.cli = _PerturbedCli(real_cli, client.out, raise_error)
        expect("exception", fails=True)
    return problems


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


class _ShortOp:
    """A workload whose op is a 1 ms call with nothing to check."""

    def make_op(self, _rng, _out, _cache_dir):
        return [], None

    def check(self, _out, _expect):
        pass


def _short_op_check(seconds: float = 3.0) -> list[str]:
    import random

    import stats
    import workloads
    from calibrate import Calibrator
    from worker import CALIBRATION_SHARE, Client

    latgauge = types.SimpleNamespace(cli=types.SimpleNamespace(
        main=lambda _argv: time.sleep(0.001) or 0))
    kind, fft_n, reference = workloads.CALIBRATION
    client = Client(latgauge, _ShortOp(), random.Random(0), ".", ".", Calibrator(kind, fft_n))
    start = time.perf_counter()
    loop = client.loop(seconds)
    stats.scaled(loop, reference)
    wall = time.perf_counter() - start
    run_seconds = _benchmark()["run_seconds"]
    print(f"short ops: {len(loop['cycles'])} ops, {len(loop['samples'])} calibration samples, "
          f"{wall:.2f} s wall for {seconds:g} s of ops; a {run_seconds} s run loops for about "
          f"{wall / seconds * run_seconds:.0f} s of its {RUN_LIMIT_S} s limit")
    if wall > seconds * (1 + 2 * CALIBRATION_SHARE) + 0.5:
        return [f"short ops: {wall:.2f} s wall for {seconds:g} s of ops"]
    return []


def _run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _smoke_checks() -> list[str]:
    import workloads

    bench = _benchmark()
    problems = []
    for name in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run_bench(ROOT, name, trace)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            printed = " ".join(lines[:-1])
            for metric, unit in list(want.items()) + [("error_rate", "1")]:
                if metric not in printed:
                    problems.append(f"{where}: {metric} ({unit}) not printed")
            print(f"smoke {where:<36} ok: {len(got)} metrics, {result['attempted']} ops")
    return problems


def _bare_directory_check(scratch: str) -> list[str]:
    bare = tempfile.mkdtemp(dir=scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(bare, "fme-sweep", 0)
    print(f"bare directory: exit {proc.returncode}")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark ran without the latgauge sources"]
    return []


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=tmp_parent)
    try:
        problems = _perturbation_checks(scratch)
        problems += _short_op_check()
        problems += _bare_directory_check(scratch)
        problems += _smoke_checks()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
