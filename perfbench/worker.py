"""One benchmark child process: import latgauge from the checkout, set up,
then (``--mode run``) drive ops in a closed loop with a single client and
write the raw results as JSON. Started by ``run.py``; not meant to be
run by hand."""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time

import stats
import workloads
from calibrate import Calibrator
from tracer import Tracer, layer_metrics, silent_layers

CALIBRATION_SHARE = 0.1  # calibration time as a share of the op cycle time
SETUP_CALIBRATION_SAMPLES = 5


def _import_latgauge(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    latgauge = importlib.import_module("latgauge")
    for name in ("cli", "spectral", "grid", "algebra"):
        importlib.import_module(f"latgauge.{name}")
    if not os.path.abspath(latgauge.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"latgauge was imported from {latgauge.__file__}, not from {src}")
    return latgauge


def _setup(latgauge, workload, cache_dir: str) -> None:
    """Everything before the first op can run: imports happened already;
    the fme workloads also build and write the kernel table into an empty
    private cache."""
    if workload.setup_grid is not None:
        grid = latgauge.grid.GridSpec(workload.setup_grid)
        latgauge.spectral.load_or_build_kernels(grid, cache_dir)


class Client:
    """A single closed-loop client: the next op starts when the previous
    one has finished and been checked."""

    def __init__(self, latgauge, workload, rng, workdir, cache_dir, calibrator):
        self.cli = latgauge.cli
        self.workload = workload
        self.rng = rng
        self.out = os.path.join(workdir, "out")
        self.cache_dir = cache_dir
        self.tracer = None
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self) -> float | None:
        """Run one op; return its latency, or None if it failed."""
        argv, expect = self.workload.make_op(self.rng, self.out, self.cache_dir)
        if os.path.exists(self.out):
            os.remove(self.out)
        if self.tracer is not None:
            self.tracer.op += 1
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)  # looked up per call so a traced wrapper is used
        except Exception as exc:  # an op that raises is a failed op, not a dead benchmark
            code, error = None, f"raised {exc!r}"
        latency = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                self.workload.check(self.out, expect)
            except (workloads.CheckFailed, OSError) as exc:
                error = f"check: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(argv)}: {error}")
            return None
        return latency

    def loop(self, seconds: float) -> dict:
        """Ops until ``seconds`` of op cycles have passed. Between ops,
        calibration samples are taken while the samples so far cover
        less than ``CALIBRATION_SHARE`` of the cycle time so far, so
        calibration costs that share of the run however short the ops
        get. Per op: its latency (None if it failed) and its cycle time;
        per sample: the index of the op it followed and its time."""
        latencies, cycles, samples = [], [], []
        busy = calibrated = 0.0
        while busy < seconds:
            start = time.perf_counter()
            latencies.append(self.op())
            cycles.append(time.perf_counter() - start)
            busy += cycles[-1]
            while calibrated < CALIBRATION_SHARE * busy:
                sample = self.calibrator.sample()
                samples.append((len(cycles) - 1, sample))
                calibrated += sample
        return {"latencies": latencies, "cycles": cycles, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    latgauge = _import_latgauge(args.root)
    workload = workloads.make(args.workload)
    _setup(latgauge, workload, os.path.join(args.workdir, "cache"))
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    kind, fft_n, result["reference_s"] = workload.calibration
    calibrator = Calibrator(kind, fft_n)
    result["calibration"] = [calibrator.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
    if args.mode == "run":
        workload.prepare(latgauge)
        client = Client(latgauge, workload, random.Random(args.seed), args.workdir,
                        os.path.join(args.workdir, "cache"), calibrator)
        client.op()  # warm-up: checked and counted, not timed
        if args.trace:
            result.update(_traced(args, latgauge, workload, client))
        else:
            result["loop"] = client.loop(args.seconds)
        result.update(
            attempted=client.attempted,
            failed=client.failed,
            errors=client.errors,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


def _traced(args, latgauge, workload, client) -> dict:
    """Half the run untraced, then a traced set-up into a fresh cache and
    traced ops for the other half; the ratio of the two halves' op rates
    is the tracing overhead."""
    plain = client.loop(args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        client.cache_dir = os.path.join(args.workdir, "cache-traced")
        _setup(latgauge, workload, client.cache_dir)
        client.tracer = tracer
        traced = client.loop(args.seconds / 2)
    finally:
        client.tracer = None
        tracer.uninstall()
    out_dir = os.path.join(args.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans_{args.workload}_seed{args.seed}.jsonl"))
    reference = workload.calibration[2]
    plain_lat, plain_busy = stats.scaled(plain, reference)
    traced_lat, traced_busy = stats.scaled(traced, reference)
    speed = reference / statistics.median(s for _op, s in traced["samples"])
    layers = layer_metrics(tracer, len(traced_lat), speed)
    layers["trace.ops"] = (len(traced_lat), "count")
    layers["trace.overhead_ratio"] = (
        (len(traced_lat) / traced_busy) / (len(plain_lat) / plain_busy) if plain_lat else 0.0,
        "ratio")
    return {"layers": layers, "silent": silent_layers(tracer, args.workload)}


if __name__ == "__main__":
    sys.exit(main())
