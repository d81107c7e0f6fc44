"""`latgauge` command line: every experiment behind one executable with
reproducible seeds, kernel caching, and CSV/JSON emission.

Exit codes: 0 success, 1 computational failure, 2 usage error. The
kernel cache directory resolves as --cache-dir, then $LATGAUGE_CACHE,
then ~/.cache/latgauge.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager

import numpy as np

from . import acceptance, continuum
from .algebra import Region, center_basis
from .dynamics import PhaseSpaceState, SourceConfig, UnstableStep, trajectory
from .fme import (
    BRANCHES,
    NotDensityMatrix,
    NotSeparable,
    ProtocolSpec,
    embezzlement_null_test,
    run_protocol,
)
from .gaussian import coulomb_energy_shift, ground_energy
from .grid import GridSpec
from .matter import MatterConfig, density
from .spectral import NonRealResult, load_or_build_kernels

__all__ = ["UsageError", "parse_args", "main"]


class UsageError(Exception):
    """Invalid command line; main() reports it and exits with code 2."""


@contextmanager
def _usage_errors():
    """Report a ValueError from checking command-line values as a UsageError."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _default_cache_dir() -> str:
    return os.environ.get("LATGAUGE_CACHE") or os.path.join(os.path.expanduser("~"), ".cache", "latgauge")


# an optional sign and ASCII digits; int() alone also accepts digit-group
# underscores and non-ASCII digits
_INT = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """argparse type of a single integer option, in the ``_INT`` grammar."""
    if not _INT.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"bad integer {text!r}, expected ASCII digits")
    return int(text)


def _parse_ints(text: str, sep: str, width: int, kind: str, form: str) -> list[tuple[int, ...]]:
    """Distinct ``width``-tuples of integers, one per ``sep``-separated
    chunk of comma-separated integers; any other text is a ``UsageError``
    naming ``kind`` and ``form``."""
    out = []
    for chunk in text.split(sep):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = [x.strip() for x in chunk.split(",")]
        if len(fields) != width or not all(_INT.fullmatch(x) for x in fields):
            raise UsageError(f"bad {kind} {chunk!r}, expected {form}")
        out.append(tuple(int(x) for x in fields))
    if not out:
        raise UsageError(f"no {kind}s in {text!r}")
    if len(set(out)) != len(out):
        raise UsageError(f"duplicate {kind}s in {text!r}")
    return out


def _ints(sep: str, width: int, kind: str, form: str):
    """argparse type of an integer-list option: ``_parse_ints`` in its grammar."""
    return lambda text: _parse_ints(text, sep, width, kind, form)


_MAX_SWEEP_POINTS = 10**6


def _parse_sweep(text: str) -> np.ndarray:
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise UsageError(f"bad sweep {text!r}, expected start:stop:step") from exc
    if not all(np.isfinite((start, stop, step))):
        raise UsageError(f"bad sweep {text!r}, bounds must be finite")
    if step <= 0 or stop < start:
        raise UsageError(f"bad sweep bounds {text!r}")
    span = np.floor((stop - start) / step + 1e-12)  # inf if it overflows
    if not span < _MAX_SWEEP_POINTS:
        raise UsageError(f"sweep {text!r} has more than {_MAX_SWEEP_POINTS} points")
    return start + step * np.arange(int(span) + 1)


def _d_log(n_list, pairs):
    series = continuum.d_log_check(n_list, pairs)
    return [(f"{r1},{r2},", f"pair ({r1},{r2}): ", s) for (r1, r2), s in zip(pairs, series)]


def _g_scaling(n_list, r):
    return [(f"{r},", "", continuum.g_scaling_check(n_list, r))]


def _kvec(n_list, fraction):
    return [("", "", continuum.kvec_convergence(n_list, fraction))]


# --check -> (the option it needs, CSV header, producer of
# (CSV row prefix, stdout label, series) triples)
_CHECKS = {
    "d-log": ("pairs", "r1,r2,N,value", _d_log),
    "g-scaling": ("r", "r,N,value", _g_scaling),
    "kvec": ("fraction", "N,value", _kvec),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgauge",
        description="2D periodic lattice gauge toy model experiments",
    )
    parser.add_argument("--seed", type=_int, default=0, help="seed for randomized runs")
    parser.add_argument("--cache-dir", default=None, help="kernel cache directory")
    sub = parser.add_subparsers(dest="command")

    dyn = sub.add_parser("dynamics", help="leapfrog trajectory diagnostics")
    dyn.add_argument("--n", type=_int, required=True)
    dyn.add_argument("--a", type=float, default=1.0)
    dyn.add_argument("--dt", type=float, required=True)
    dyn.add_argument("--steps", type=_int, required=True)
    dyn.add_argument("--out", required=True)

    cou = sub.add_parser("coulomb", help="static-source ground state energetics")
    cou.add_argument("--n", type=_int, required=True)
    cou.add_argument("--a", type=float, default=1.0)
    cou.add_argument(
        "--charges", type=_ints(";", 2, "site", "i,j"), required=True,
        help='semicolon list, e.g. "50,40;50,60"',
    )
    cou.add_argument("--out", required=True)

    fme_cmd = sub.add_parser("fme", help="field-mediated entanglement protocol")
    fme_cmd.add_argument("--n", type=_int, required=True)
    fme_cmd.add_argument("--a", type=float, default=1.0)
    fme_cmd.add_argument(
        "--sites", type=_ints(":", 2, "site", "i,j"), required=True,
        help='colon pair, e.g. "50,40:50,60"',
    )
    taus = fme_cmd.add_mutually_exclusive_group()
    taus.add_argument("--tau", type=float, default=0.0)
    taus.add_argument("--sweep-tau", type=_parse_sweep, default=None, help="start:stop:step")
    fme_cmd.add_argument("--region-size", type=_int, default=7)
    fme_cmd.add_argument("--out", default=None)
    fme_cmd.add_argument("--null-test", action="store_true")

    alg = sub.add_parser("algebra", help="local algebra centers")
    alg.add_argument("--n", type=_int, required=True)
    alg.add_argument("--a", type=float, default=1.0)
    alg.add_argument("--region", type=_ints(";", 3, "region", "i0,j0,M"), required=True, help="i0,j0,M")
    alg.add_argument("--dump", required=True)

    cont = sub.add_parser("continuum", help="large-lattice convergence checks")
    cont.add_argument("--check", choices=tuple(_CHECKS), required=True)
    cont.add_argument(
        "--n-list", type=_ints(",", 1, "lattice size", "an integer"), required=True,
        help="comma list of N >= 3, e.g. 51,101,201",
    )
    cont.add_argument("--pairs", type=_ints(";", 2, "pair", "r1,r2"), default=None, help='for d-log: "1,2;2,4"')
    cont.add_argument("--r", type=_int, default=None, help="for g-scaling")
    cont.add_argument("--fraction", type=float, default=None, help="for kvec")
    cont.add_argument("--out", required=True)

    st = sub.add_parser("selftest", help="run the acceptance criteria")
    st.add_argument(
        "--criteria", type=_ints(",", 1, "criterion number", "an integer"), default=None,
        help="comma list of numbers",
    )
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Validate the command line into argparse's namespace, with
    ``cache_dir`` resolved; raises UsageError on anything argparse
    itself does not reject."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        raise UsageError("missing subcommand")
    if ns.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {ns.seed}")
    if "n" in ns:
        with _usage_errors():
            GridSpec(ns.n, ns.a)
    ns.cache_dir = ns.cache_dir or _default_cache_dir()
    return ns


def _float_csv(x: float) -> str:
    return repr(float(x))


def _write(path: str | None, text: str) -> None:
    """Write ``text`` as ASCII with ``\\n`` line endings to ``path``, or
    to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _cmd_dynamics(ns: argparse.Namespace) -> int:
    if not (np.isfinite(ns.dt) and ns.dt > 0):
        raise UsageError(f"--dt must be finite and positive, got {ns.dt}")
    if ns.steps < 0:
        raise UsageError(f"--steps must be nonnegative, got {ns.steps}")
    grid = GridSpec(ns.n, ns.a)
    rng = np.random.default_rng(ns.seed)
    state = PhaseSpaceState.random(grid, rng)
    source = SourceConfig.vacuum(grid)
    # rows are kept until the last step passes the drift check, so a
    # failed run leaves no file
    rows = ["t,H,max_constraint_residual\n"] + [
        f"{_float_csv(t)},{_float_csv(h)},{_float_csv(res)}\n"
        for t, h, res in trajectory(state, source, ns.dt, ns.steps)
    ]
    _write(ns.out, "".join(rows))
    return 0


def _cmd_coulomb(ns: argparse.Namespace) -> int:
    grid = GridSpec(ns.n, ns.a)
    sites = ns.charges
    with _usage_errors():
        config = MatterConfig.from_sites(grid, sites)
    kernels = load_or_build_kernels(grid, ns.cache_dir)
    result = {
        "e0": ground_energy(grid),
        "e_shift": coulomb_energy_shift(density(config), kernels),
        "pair_distance": None,
        "D_of_d": None,
    }
    if len(sites) == 2:
        (i1, j1), (i2, j2) = sites
        # the minimal-image separation, at which D is read
        di, dj = grid.wrap(i2 - i1, j2 - j1)
        result["pair_distance"] = float(np.hypot(min(di, grid.n - di), min(dj, grid.n - dj)))
        result["D_of_d"] = kernels.d(i2 - i1, j2 - j1)
    _write(ns.out, json.dumps(result, indent=2) + "\n")
    return 0


def _cmd_fme(ns: argparse.Namespace) -> int:
    if len(ns.sites) != 2:
        raise UsageError(f"--sites needs two sites, got {len(ns.sites)}")
    taus = [ns.tau] if ns.sweep_tau is None else ns.sweep_tau
    with _usage_errors():
        spec = ProtocolSpec(GridSpec(ns.n, ns.a), *ns.sites, size=ns.region_size, taus=taus)
    kernels = load_or_build_kernels(spec.grid, ns.cache_dir)
    if ns.null_test:
        ok = embezzlement_null_test(spec, kernels)
        print(f"embezzlement null test: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    # each trace becomes its row as it arrives and only the rows are
    # kept, until the last tau, so a failed run leaves no file
    rows = ["tau,phi_LL,phi_LR,phi_RL,phi_RR,entropy\n"]
    for tau, trace in zip(spec.taus, run_protocol(spec, kernels)):
        fields = (tau, *(trace.phases[b] for b in BRANCHES), trace.h_sigma_a)
        rows.append(",".join(map(_float_csv, fields)) + "\n")
    _write(ns.out, "".join(rows))
    return 0


def _cmd_algebra(ns: argparse.Namespace) -> int:
    grid = GridSpec(ns.n, ns.a)
    if len(ns.region) != 1:
        raise UsageError(f"--region needs one region, got {len(ns.region)}")
    ((i0, j0, m),) = ns.region
    with _usage_errors():
        region = Region((i0, j0), m)
        region.validate_on(grid)
    basis = center_basis(region, grid)
    doc = {
        "n": grid.n,
        "a": grid.spacing,
        "region": [i0, j0, m],
        "dimension": len(basis.generators),
        "basis": [
            {
                "label": str(label),
                "terms": [
                    {
                        "field": "p",
                        "component": comp,
                        "site": [site[0], site[1]],
                        "coefficient": str(coeff),
                    }
                    for (site, comp), coeff in sorted(op.p_coeffs.items())
                ],
            }
            for op, label in zip(basis.generators, basis.labels)
        ],
    }
    _write(ns.dump, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_continuum(ns: argparse.Namespace) -> int:
    n_list = [n for (n,) in ns.n_list]
    with _usage_errors():
        for n in n_list:
            GridSpec(n)
    option, header, produce = _CHECKS[ns.check]
    if getattr(ns, option) is None:
        raise UsageError(f"--check {ns.check} needs --{option}")
    for other, *_ in _CHECKS.values():
        if other != option and getattr(ns, other) is not None:
            raise UsageError(f"--check {ns.check} does not read --{other}")
    try:
        produced = produce(n_list, getattr(ns, option))
    except continuum.OutOfRange as exc:
        raise UsageError(str(exc)) from exc
    lines = [header]
    for prefix, label, series in produced:
        lines += [f"{prefix}{n},{_float_csv(v)}" for n, v in zip(series.n_values, series.values)]
        print(f"{label}estimate {series.fit['estimate']!r} rate {series.fit['rate']!r}")
    _write(ns.out, "\n".join(lines) + "\n")
    return 0


def _cmd_selftest(ns: argparse.Namespace) -> int:
    numbers = None
    if ns.criteria:
        numbers = {str(c) for (c,) in ns.criteria}
        unknown = numbers.difference(num for num, _name, _func in acceptance.CRITERIA)
        if unknown:
            raise UsageError(f"no criterion numbered {', '.join(sorted(unknown))}")
    return 0 if acceptance.run_all(numbers, seed=ns.seed) else 1


# computational failures: reported in one line with exit code 1
_FAILURES = (
    ValueError,
    OSError,
    MemoryError,
    AssertionError,
    UnstableStep,
    NotSeparable,
    NotDensityMatrix,
    NonRealResult,
)

_COMMANDS = {
    "dynamics": _cmd_dynamics,
    "coulomb": _cmd_coulomb,
    "fme": _cmd_fme,
    "algebra": _cmd_algebra,
    "continuum": _cmd_continuum,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse errors carry their own code
        return int(exc.code or 0)
    except _FAILURES as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
