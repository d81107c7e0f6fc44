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


def _cmd(*args: str, out: str | None = "--out"):
    """A non-``dynamics`` argv: ``args`` with ``out`` naming the written
    file (None for a run that writes no file)."""
    return ["--cache-dir", "{cache}", *args, *((out, "{out}") if out else ())]


# one pair of sites on one row per lattice size
_FME_SITES = {25: "12,7:12,17", 40: "20,12:20,28", 41: "20,12:20,28", 101: "50,40:50,60"}

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
    **{
        f"fme-n{n}-tau{tau}": _cmd("fme", "--n", str(n), "--sites", sites, "--tau", tau)
        for n, sites in _FME_SITES.items()
        for tau in ("0.0", "3.0")
    },
    **{
        f"fme-n{n}-sweep": _cmd("fme", "--n", str(n), "--sites", sites, "--sweep-tau", "0:100:12.5")
        for n, sites in _FME_SITES.items()
    },
    "fme-n41-sweep-region9": _cmd(
        "fme", "--n", "41", "--sites", "20,12:20,28", "--region-size", "9", "--sweep-tau", "0:2:0.25"
    ),
    **{
        f"fme-n{n}-null-test": _cmd("fme", "--n", str(n), "--sites", _FME_SITES[n], "--null-test", out=None)
        for n in (25, 101)
    },
    "fme-n25-default-tau": _cmd("fme", "--n", "25", "--sites", "12,7:12,17"),
    # exit 2: options the null test does not read
    "fme-null-test-out": _cmd("fme", "--n", "25", "--sites", "12,7:12,17", "--null-test"),
    "fme-null-test-tau": _cmd("fme", "--n", "25", "--sites", "12,7:12,17", "--null-test", "--tau", "0", out=None),
    "fme-null-test-sweep": _cmd(
        "fme", "--n", "25", "--sites", "12,7:12,17", "--null-test", "--sweep-tau", "0:5:1", out=None
    ),
    "fme-n25-stdout": _cmd("fme", "--n", "25", "--sites", "12,7:12,17", "--sweep-tau", "0:3:1", out=None),
    "coulomb-n31-two": _cmd("coulomb", "--n", "31", "--charges", "15,10;15,20"),
    "coulomb-n40-two": _cmd("coulomb", "--n", "40", "--charges", "0,0;0,38"),
    "coulomb-n31-three": _cmd("coulomb", "--n", "31", "--charges", "15,10;15,20;3,4"),
    **{
        f"algebra-n{n}-m{m}": _cmd("algebra", "--n", str(n), "--region", f"2,3,{m}", out="--dump")
        for n in (11, 12)
        for m in (3, 4, 5, 6)
    },
    # a != 1: 1/(2a) has a large odd denominator; regions on the grid's edges
    **{
        f"algebra-n{n}-a{a}-m{region.rsplit(',', 1)[1]}": _cmd(
            "algebra", "--n", str(n), "--a", a, "--region", region, out="--dump"
        )
        for n, a, region in ((20, "0.7", "3,4,7"), (16, "1e-3", "1,2,8"), (13, "2.5", "0,4,9"), (31, "0.1", "21,0,10"))
    },
    "continuum-d-log": _cmd("continuum", "--check", "d-log", "--n-list", "21,41", "--pairs", "2,4;1,2"),
    "continuum-g-scaling": _cmd("continuum", "--check", "g-scaling", "--n-list", "21,41", "--r", "3"),
    "continuum-kvec": _cmd("continuum", "--check", "kvec", "--n-list", "20,40,80", "--fraction", "0.05"),
    # exit 1: a phase that overflows, a spacing whose table is unusable,
    # and a sweep whose sixth phase overflows after five good rows
    "fme-tau-1e308": _cmd("fme", "--n", "25", "--sites", "12,7:12,17", "--tau", "1e308"),
    "fme-a-1e300": _cmd("fme", "--n", "101", "--sites", "50,40:50,60", "--a", "1e300"),
    "fme-sweep-overflow": _cmd("fme", "--n", "101", "--sites", "50,40:50,60", "--sweep-tau", "0:1e308:1e307"),
    # exit 2
    "algebra-whole-torus": _cmd("algebra", "--n", "4", "--region", "0,0,4", out="--dump"),
    "fme-malformed-sites": _cmd("fme", "--n", "25", "--sites", "12,7:12"),
    "fme-sweep-too-long": _cmd("fme", "--n", "25", "--sites", "12,7:12,17", "--sweep-tau", "0:1000000:1"),
    # exit 1: a step that overflows, with one error line and no numpy warning
    "dynamics-overflow-dt1e100": _dynamics(16, 1.0, 0, dt=1e100, steps=5),
    "dynamics-overflow-a1e-300": _dynamics(16, 1e-300, 0, steps=5),
}


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one argv template through ``cli.main`` in ``workdir``: the
    exit code and the digests of the written file (None when no file is
    left), stdout and stderr. The run may leave nothing in ``workdir``
    but its output and its kernel cache."""
    out = workdir / "out"
    out.unlink(missing_ok=True)
    argv = [arg.format(out=out, cache=workdir / "cache") for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    left = sorted(path.name for path in workdir.iterdir() if path.name not in ("out", "cache"))
    assert not left, f"the run left {left} beside its output"
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
