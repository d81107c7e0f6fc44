"""The golden corpus of ``latgauge`` outputs: argv cases whose exit code,
written file, stdout and stderr are pinned by sha256 and byte length in
``golden_cases.json``.

Each case runs in-process through ``cli.main`` with its output and a
private kernel cache in a scratch directory. ``test_golden.py`` replays
the manifest; this script rewrites it::

    PYTHONPATH=src python tests/golden.py --write   # record every case
    PYTHONPATH=src python tests/golden.py           # report mismatches

A rewrite changes checked output, so every changed case and its reason
belong in CHANGES.md. The digests hold for the numpy version the
manifest records (its FFT and reductions set the last bits).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from latgauge import cli

MANIFEST = Path(__file__).with_name("golden_cases.json")
STREAMS = ("exit", "file", "stdout", "stderr")


def _dynamics(n: int, a: float, seed: int, dt: float = 0.05, steps: int = 300):
    return [
        "--cache-dir", "{cache}", "--seed", str(seed), "dynamics", "--n", str(n),
        "--a", repr(a), "--dt", repr(dt), "--steps", str(steps), "--out", "{out}",
    ]


CASES = {
    **{
        f"dynamics-n{n}-a{a}-seed{seed}": _dynamics(n, a, seed)
        for n in (3, 4, 7, 16, 33, 48)
        for a in (1.0, 0.7)
        for seed in (0, 7)
    },
    "dynamics-n16-dt0.8": _dynamics(16, 1.0, 0, dt=0.8),  # near the drift bound
    # exit 1: H drifts past 1% at step 1, 11, 17, 51 and 163
    "dynamics-unstable-n16-dt10": _dynamics(16, 1.0, 0, dt=10.0),
    "dynamics-unstable-n16-dt0.92": _dynamics(16, 1.0, 0, dt=0.92),
    "dynamics-unstable-n33-dt0.84": _dynamics(33, 1.0, 0, dt=0.84),
    "dynamics-unstable-n4-dt0.56": _dynamics(4, 1.0, 0, dt=0.56),
    "dynamics-unstable-n16-dt0.86": _dynamics(16, 1.0, 0, dt=0.86),
    "dynamics-negative-seed": _dynamics(16, 1.0, -1),  # exit 2
}


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one argv template through ``cli.main`` in ``workdir``: the
    exit code and the digests of the written file (None when no file is
    left), stdout and stderr."""
    out = workdir / "out"
    out.unlink(missing_ok=True)
    argv = [arg.format(out=out, cache=workdir / "cache") for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {
        "exit": code,
        "file": _digest(out.read_bytes()) if out.exists() else None,
        "stdout": _digest(stdout.getvalue().encode()),
        "stderr": _digest(stderr.getvalue().encode()),
    }


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def mismatches(name: str, recorded: dict, got: dict, numpy_version: str) -> list[str]:
    """One line per stream of case ``name`` that differs from the record."""
    platform = (
        ""
        if numpy_version == np.__version__
        else f" (recorded with numpy {numpy_version}, running numpy {np.__version__})"
    )
    return [
        f"case {name}: {stream} is {got[stream]}, recorded {recorded[stream]}{platform}"
        for stream in STREAMS
        if got[stream] != recorded[stream]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the manifest")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.write:
            cases = [
                {"name": name, "argv": case, **run_case(case, Path(tmp))}
                for name, case in CASES.items()
            ]
            manifest = {"numpy": np.__version__, "cases": cases}
            MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
            print(f"wrote {len(cases)} cases to {MANIFEST}")
            return 0
        manifest = load()
        lines = [
            line
            for case in manifest["cases"]
            for line in mismatches(
                case["name"], case, run_case(case["argv"], Path(tmp)), manifest["numpy"]
            )
        ]
    print("\n".join(lines) or f"all {len(manifest['cases'])} cases match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
