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
import sys
from dataclasses import dataclass, field

import numpy as np

from . import acceptance, continuum
from .algebra import Region, center_basis
from .dynamics import (
    PhaseSpaceState,
    SourceConfig,
    UnstableStep,
    _check_drift,
    constraint_residual,
    energy,
    step_leapfrog,
)
from .fme import (
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

__all__ = ["UsageError", "RunConfig", "parse_args", "main"]


class UsageError(Exception):
    """Invalid command line; main() reports it and exits with code 2."""


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    cache_dir: str | None = None
    seed: int = 0


def _default_cache_dir() -> str:
    env = os.environ.get("LATGAUGE_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "latgauge")


def _parse_sites(text: str, sep: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.split(sep):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            i_str, j_str = chunk.split(",")
            out.append((int(i_str), int(j_str)))
        except ValueError as exc:
            raise UsageError(f"bad site {chunk!r}, expected i,j") from exc
    if not out:
        raise UsageError(f"no sites in {text!r}")
    if len(set(out)) != len(out):
        raise UsageError(f"duplicate sites in {text!r}")
    return out


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            r1_str, r2_str = chunk.split(",")
            pairs.append((int(r1_str), int(r2_str)))
        except ValueError as exc:
            raise UsageError(f"bad pair {chunk!r}, expected r1,r2") from exc
    if not pairs:
        raise UsageError(f"no pairs in {text!r}")
    return pairs


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgauge",
        description="2D periodic lattice gauge toy model experiments",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized runs")
    parser.add_argument("--cache-dir", default=None, help="kernel cache directory")
    sub = parser.add_subparsers(dest="command")

    dyn = sub.add_parser("dynamics", help="leapfrog trajectory diagnostics")
    dyn.add_argument("--n", type=int, required=True)
    dyn.add_argument("--a", type=float, default=1.0)
    dyn.add_argument("--dt", type=float, required=True)
    dyn.add_argument("--steps", type=int, required=True)
    dyn.add_argument("--out", required=True)

    cou = sub.add_parser("coulomb", help="static-source ground state energetics")
    cou.add_argument("--n", type=int, required=True)
    cou.add_argument("--a", type=float, default=1.0)
    cou.add_argument("--charges", required=True, help='semicolon list, e.g. "50,40;50,60"')
    cou.add_argument("--out", required=True)

    fme_cmd = sub.add_parser("fme", help="field-mediated entanglement protocol")
    fme_cmd.add_argument("--n", type=int, required=True)
    fme_cmd.add_argument("--a", type=float, default=1.0)
    fme_cmd.add_argument("--sites", required=True, help='colon pair, e.g. "50,40:50,60"')
    fme_cmd.add_argument("--row", type=int, default=None)
    taus = fme_cmd.add_mutually_exclusive_group()
    taus.add_argument("--tau", type=float, default=0.0)
    taus.add_argument("--sweep-tau", default=None, help="start:stop:step")
    fme_cmd.add_argument("--region-size", type=int, default=7)
    fme_cmd.add_argument("--out", default=None)
    fme_cmd.add_argument("--null-test", action="store_true")

    alg = sub.add_parser("algebra", help="local algebra centers")
    alg.add_argument("--n", type=int, required=True)
    alg.add_argument("--a", type=float, default=1.0)
    alg.add_argument("--region", required=True, help="i0,j0,M")
    alg.add_argument("--dump", required=True)

    cont = sub.add_parser("continuum", help="large-lattice convergence checks")
    cont.add_argument("--check", choices=("d-log", "g-scaling", "kvec"), required=True)
    cont.add_argument("--n-list", required=True, help="comma list, e.g. 51,101,201")
    cont.add_argument("--pairs", default=None, help='for d-log: "1,2;2,4"')
    cont.add_argument("--r", type=int, default=None, help="for g-scaling")
    cont.add_argument("--fraction", type=float, default=None, help="for kvec")
    cont.add_argument("--out", required=True)

    st = sub.add_parser("selftest", help="run the acceptance criteria")
    st.add_argument("--criteria", default=None, help="comma list of numbers")
    return parser


def parse_args(argv) -> RunConfig:
    """Validate the command line into a RunConfig; raises UsageError on
    anything argparse itself does not reject."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        raise UsageError("missing subcommand")
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "seed", "cache_dir")}
    cfg = RunConfig(
        command=ns.command,
        params=params,
        cache_dir=ns.cache_dir or _default_cache_dir(),
        seed=ns.seed,
    )
    if "n" in params:
        try:
            GridSpec(params["n"], params.get("a", 1.0))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return cfg


def _float_csv(x: float) -> str:
    return repr(float(x))


def _cmd_dynamics(cfg: RunConfig) -> int:
    p = cfg.params
    if not (np.isfinite(p["dt"]) and p["dt"] > 0):
        raise UsageError(f"--dt must be finite and positive, got {p['dt']}")
    if p["steps"] < 0:
        raise UsageError(f"--steps must be nonnegative, got {p['steps']}")
    grid = GridSpec(p["n"], p["a"])
    rng = np.random.default_rng(cfg.seed)
    state = PhaseSpaceState.random(grid, rng)
    source = SourceConfig.vacuum(grid)

    def csv_row(state: PhaseSpaceState, h: float) -> str:
        return (
            f"{_float_csv(state.time)},{_float_csv(h)},"
            f"{_float_csv(constraint_residual(state, source).max_abs())}\n"
        )

    h0 = energy(state, source)
    with open(p["out"], "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,H,max_constraint_residual\n")
        fh.write(csv_row(state, h0))
        for step in range(1, p["steps"] + 1):
            state = step_leapfrog(state, source, p["dt"], 1, energy_check=False)
            h = energy(state, source)
            _check_drift(h0, h, step)
            fh.write(csv_row(state, h))
    return 0


def _cmd_coulomb(cfg: RunConfig) -> int:
    p = cfg.params
    grid = GridSpec(p["n"], p["a"])
    sites = _parse_sites(p["charges"], ";")
    try:
        config = MatterConfig.from_sites(grid, sites)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    kernels = load_or_build_kernels(grid, cfg.cache_dir)
    result = {
        "e0": ground_energy(grid),
        "e_shift": coulomb_energy_shift(density(config), kernels),
        "pair_distance": None,
        "D_of_d": None,
    }
    if len(sites) == 2:
        (i1, j1), (i2, j2) = sites
        result["pair_distance"] = float(np.hypot(i2 - i1, j2 - j1))
        result["D_of_d"] = kernels.d(i2 - i1, j2 - j1)
    with open(p["out"], "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


def _fme_spec(cfg: RunConfig, tau: float) -> ProtocolSpec:
    p = cfg.params
    grid = GridSpec(p["n"], p["a"])
    site_a, site_b = _parse_sites(p["sites"], ":")
    if p.get("row") is not None and (site_a[0] != p["row"] or site_b[0] != p["row"]):
        raise UsageError(f"--row {p['row']} disagrees with --sites rows")
    size = p["region_size"]
    half = size // 2
    try:
        return ProtocolSpec(
            grid=grid,
            site_a=site_a,
            site_b=site_b,
            region_a=Region.square((site_a[0] - half, site_a[1] - half), size),
            region_b=Region.square((site_b[0] - half, site_b[1] - half), size),
            tau=tau,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_fme(cfg: RunConfig) -> int:
    p = cfg.params
    spec = _fme_spec(cfg, p["tau"])
    kernels = load_or_build_kernels(spec.grid, cfg.cache_dir)
    if p["null_test"]:
        ok = embezzlement_null_test(spec, kernels)
        print(f"embezzlement null test: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    taus = _parse_sweep(p["sweep_tau"]) if p.get("sweep_tau") else [p["tau"]]
    rows = []
    for tau in taus:
        trace = run_protocol(_fme_spec(cfg, float(tau)), kernels)
        rows.append((float(tau), trace.phases, trace.h_sigma_a))
    out = p.get("out")
    lines = ["tau,phi_LL,phi_LR,phi_RL,phi_RR,entropy"]
    for tau, phases, entropy in rows:
        lines.append(
            ",".join(
                [_float_csv(tau)]
                + [_float_csv(phases[b]) for b in ("LL", "LR", "RL", "RR")]
                + [_float_csv(entropy)]
            )
        )
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_algebra(cfg: RunConfig) -> int:
    p = cfg.params
    grid = GridSpec(p["n"], p["a"])
    try:
        i0, j0, m = (int(x) for x in p["region"].split(","))
        region = Region.square((i0, j0), m)
        region.validate_on(grid)
    except ValueError as exc:
        raise UsageError(f"bad --region {p['region']!r}: {exc}") from exc
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
    with open(p["dump"], "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_continuum(cfg: RunConfig) -> int:
    p = cfg.params
    try:
        n_list = [int(x) for x in p["n_list"].split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --n-list {p['n_list']!r}") from exc
    check = p["check"]
    lines = []
    if check == "d-log":
        if not p.get("pairs"):
            raise UsageError("--check d-log needs --pairs")
        lines.append("r1,r2,N,value")
        for r1, r2 in _parse_pairs(p["pairs"]):
            series = continuum.d_log_check(n_list, r1, r2)
            for n, v in zip(series.n_values, series.values):
                lines.append(f"{r1},{r2},{n},{_float_csv(v)}")
            print(f"pair ({r1},{r2}): estimate {series.fit['estimate']!r} rate {series.fit['rate']!r}")
    elif check == "g-scaling":
        if p.get("r") is None:
            raise UsageError("--check g-scaling needs --r")
        series = continuum.g_scaling_check(n_list, p["r"])
        lines.append("r,N,value")
        for n, v in zip(series.n_values, series.values):
            lines.append(f"{p['r']},{n},{_float_csv(v)}")
        print(f"estimate {series.fit['estimate']!r} rate {series.fit['rate']!r}")
    else:
        if p.get("fraction") is None:
            raise UsageError("--check kvec needs --fraction")
        series = continuum.kvec_convergence(n_list, p["fraction"])
        lines.append("N,value")
        for n, v in zip(series.n_values, series.values):
            lines.append(f"{n},{_float_csv(v)}")
        print(f"estimate {series.fit['estimate']!r} rate {series.fit['rate']!r}")
    with open(p["out"], "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_selftest(cfg: RunConfig) -> int:
    numbers = None
    if cfg.params.get("criteria"):
        numbers = {x.strip() for x in cfg.params["criteria"].split(",")}
    ok = acceptance.run_all(numbers, seed=cfg.seed)
    return 0 if ok else 1


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
        cfg = parse_args(argv)
        return _COMMANDS[cfg.command](cfg)
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
