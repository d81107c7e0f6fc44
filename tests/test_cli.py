"""Command-line surface: parsing, outputs, determinism, caching."""

import errno
import json
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauge import cli
from latgauge import grid as grid_module
from latgauge.algebra import Region, center_basis
from latgauge.cli import UsageError, _parse_sweep, main, parse_args
from latgauge.dynamics import UnstableStep
from latgauge.fme import NotSeparable
from latgauge.grid import GridSpec
from latgauge.spectral import NonRealResult


def run(argv, tmp_path, env_cache=True):
    # keep kernel caches inside the test sandbox
    argv = list(argv)
    if env_cache and "--cache-dir" not in argv:
        argv = ["--cache-dir", str(tmp_path / "cache")] + argv
    return main(argv)


def assert_usage_error(code, capsys, out=None):
    """Exit 2 with one ``error:`` line on stderr and no output file."""
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out is None or not out.exists()


class TestParsing:
    def test_coulomb_config(self):
        cfg = parse_args(
            ["coulomb", "--n", "101", "--charges", "50,40;50,60", "--out", "x.json"]
        )
        assert cfg.command == "coulomb"
        assert cfg.charges == [(50, 40), (50, 60)]

    def test_tiny_lattice_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["coulomb", "--n", "2", "--charges", "0,0", "--out", "x.json"])

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_2(self):
        assert main(["coulomb", "--n", "9", "--wat", "1"]) == 2

    def test_seed_and_cache_are_global(self):
        cfg = parse_args(
            ["--seed", "7", "--cache-dir", "/tmp/k", "selftest"]
        )
        assert cfg.seed == 7 and cfg.cache_dir == "/tmp/k"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "\u0663", "selftest"],
            ["coulomb", "--n", "1_5", "--charges", "7,5;7,9", "--out", "o.json"],
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--region-size", "\uff17"],
            ["continuum", "--check", "g-scaling", "--n-list", "21,41", "--r", "3.0", "--out", "g.csv"],
        ],
        ids=["seed", "n", "region-size", "r"],
    )
    def test_single_integers_share_the_grammar(self, capsys, argv):
        # int() would read the first three as 3, 15 and 7
        assert main(argv) == 2
        assert "bad integer" in capsys.readouterr().err


class TestOneParser:
    """``_build_parser`` builds one parser per process, and parsing with
    it twice gives what two fresh parsers would."""

    def test_two_calls_build_one_parser(self, tmp_path):
        cli._build_parser.cache_clear()
        argv = ["continuum", "--check", "kvec", "--n-list", "20,40", "--fraction", "0.05"]
        for name in ("a.csv", "b.csv"):
            assert run(argv + ["--out", str(tmp_path / name)], tmp_path) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_no_default_leaks_between_calls(self):
        assert parse_args(["--seed", "7", "--cache-dir", "/tmp/k", "selftest"]).seed == 7
        cfg = parse_args(["selftest"])
        assert cfg.seed == 0 and cfg.criteria is None
        assert cfg.cache_dir == cli._default_cache_dir()

    def test_malformed_sites_after_a_good_call(self, tmp_path, capsys):
        argv = ["fme", "--n", "25", "--sites", "12,7:12;17", "--tau", "1"]
        cli._build_parser.cache_clear()
        assert run(argv, tmp_path) == 2
        fresh = capsys.readouterr().err
        assert run(["fme", "--n", "25", "--sites", "12,7:12,17", "--tau", "1"], tmp_path) == 0
        capsys.readouterr()
        assert run(argv, tmp_path) == 2
        assert capsys.readouterr().err == fresh
        assert fresh.startswith("error: bad site")

    def test_missing_subcommand_after_a_good_call(self, capsys):
        cli._build_parser.cache_clear()
        with pytest.raises(UsageError, match="missing subcommand"):
            parse_args([])
        fresh = capsys.readouterr().err
        parse_args(["selftest"])
        for _ in range(2):
            with pytest.raises(UsageError, match="missing subcommand"):
                parse_args([])
            assert capsys.readouterr().err == fresh
        assert fresh.startswith("usage: latgauge")
        assert main([]) == 2


class TestParseSweep:
    @given(
        start=st.floats(-100, 100),
        span=st.floats(0, 100),
        step=st.floats(1e-2, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_finite_sweep(self, start, span, step):
        stop = start + span
        taus = _parse_sweep(f"{start!r}:{stop!r}:{step!r}")
        # the grid start, start + step, ... up to the last point not past stop
        tol = 1e-9 * max(1.0, abs(start), abs(stop))
        assert taus[0] == start
        np.testing.assert_allclose(np.diff(taus), step, rtol=1e-9, atol=tol)
        assert taus[-1] <= stop + tol
        assert taus[-1] + step > stop - tol

    def test_point_count_is_bounded(self):
        assert len(_parse_sweep("0:999999:1")) == 10**6
        for text in ("0:1000000:1", "0:1e12:1e-3", "-1e308:1e308:1"):
            with pytest.raises(UsageError, match="more than 1000000 points"):
                _parse_sweep(text)

    @given(
        fields=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        bad=st.sampled_from(["nan", "inf", "-inf"]),
        where=st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_finite_field_is_usage_error(self, fields, bad, where):
        text = [repr(x) for x in fields]
        text[where] = bad
        with pytest.raises(UsageError):
            _parse_sweep(":".join(text))


_INTS = st.integers(-10**6, 10**6)
# a chunk that is not two comma-separated integers
_MALFORMED_CHUNK = st.one_of(
    _INTS.map(str),
    st.tuples(_INTS, _INTS, _INTS).map(lambda t: ",".join(map(str, t))),
    st.tuples(
        _INTS.map(str),
        # int() takes the last three (digit groups, full-width and
        # Arabic-Indic digits); the parsers must not
        st.sampled_from(
            ["", "x", "1.5", "1e3", "nan", "0x1", "+-1", "1 2", "1_2", "\uff11\uff12", "\u0663"]
        ),
        st.booleans(),
    ).map(lambda t: f"{t[0]},{t[1]}" if t[2] else f"{t[1]},{t[0]}"),
)


def _format(pairs, sep, pad):
    return sep.join(f"{pad}{i},{pad}{j}{pad}" for i, j in pairs)


def _parse_sites(text, sep):
    return cli._parse_ints(text, sep, 2, "site", "i,j")


def _parse_pairs(text):
    return cli._parse_ints(text, ";", 2, "pair", "r1,r2")


class TestParseSitesAndPairs:
    """``_parse_ints`` reads back the sites and pairs it is given, and
    rejects anything else with ``UsageError`` alone."""

    @given(
        pairs=st.lists(st.tuples(_INTS, _INTS), min_size=1, max_size=8, unique=True),
        sep=st.sampled_from([":", ";"]),
        pad=st.sampled_from(["", " "]),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, pairs, sep, pad):
        assert _parse_sites(_format(pairs, sep, pad), sep) == pairs
        assert _parse_pairs(_format(pairs, ";", pad)) == pairs

    @given(
        pairs=st.lists(st.tuples(_INTS, _INTS), max_size=6),
        bad=_MALFORMED_CHUNK,
        where=st.integers(0, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_malformed_chunk_is_usage_error(self, pairs, bad, where):
        chunks = [f"{i},{j}" for i, j in pairs]
        chunks.insert(min(where, len(chunks)), bad)
        with pytest.raises(UsageError):
            _parse_sites(":".join(chunks), ":")
        with pytest.raises(UsageError):
            _parse_pairs(";".join(chunks))

    @given(
        sites=st.lists(st.tuples(_INTS, _INTS), min_size=1, max_size=6, unique=True),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_duplicated_site_is_usage_error(self, sites, data):
        i, j = data.draw(st.sampled_from(sites))
        chunks = [f"{a},{b}" for a, b in sites]
        chunks.insert(data.draw(st.integers(0, len(chunks))), f" {i} , {j} ")
        with pytest.raises(UsageError, match="duplicate"):
            _parse_sites(":".join(chunks), ":")
        with pytest.raises(UsageError, match="duplicate"):
            _parse_pairs(";".join(chunks))

    @given(text=st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_parses_or_is_usage_error(self, text):
        for parse in (lambda t: _parse_sites(t, ":"), _parse_pairs):
            try:
                out = parse(text)
            except UsageError:
                continue
            assert out and all(type(i) is int and type(j) is int for i, j in out)

    @given(
        entries=st.lists(st.tuples(_INTS, _INTS, _INTS), min_size=1, max_size=6, unique=True),
        width=st.integers(1, 3),
        pad=st.sampled_from(["", " "]),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_width_round_trips(self, entries, width, pad):
        entries = list(dict.fromkeys(e[:width] for e in entries))
        text = ";".join(",".join(f"{pad}{x}{pad}" for x in e) for e in entries)
        assert cli._parse_ints(text, ";", width, "entry", "form") == entries
        for other in {1, 2, 3} - {width}:
            with pytest.raises(UsageError, match="bad entry"):
                cli._parse_ints(text, ";", other, "entry", "form")


class TestNumericArguments:
    """Non-finite and out-of-range numbers are usage errors (exit 2)."""

    def test_infinite_spacing(self, tmp_path):
        code = run(
            ["coulomb", "--n", "9", "--a", "inf", "--charges", "4,2;4,6",
             "--out", str(tmp_path / "o.json")],
            tmp_path,
        )
        assert code == 2

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau(self, tmp_path, tau):
        out = tmp_path / "fme.csv"
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--tau", tau,
             "--out", str(out)],
            tmp_path,
        )
        assert code == 2
        assert not out.exists()

    def test_non_finite_sweep_bound(self, tmp_path):
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--sweep-tau", "0:nan:1"],
            tmp_path,
        )
        assert code == 2

    def test_huge_sweep(self, tmp_path, capsys):
        # rejected before anything the size of the sweep is allocated
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--sweep-tau", "0:1e12:1e-3"],
            tmp_path,
        )
        assert code == 2
        assert "more than" in capsys.readouterr().err

    def test_tau_and_sweep_are_exclusive(self, tmp_path, capsys):
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--tau", "5",
             "--sweep-tau", "0:1:1"],
            tmp_path,
        )
        assert code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_nan_timestep(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(
            ["dynamics", "--n", "4", "--dt", "nan", "--steps", "2", "--out", str(out)],
            tmp_path,
        )
        assert code == 2
        assert not out.exists()

    def test_negative_step_count(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(
            ["dynamics", "--n", "4", "--dt", "0.1", "--steps", "-3", "--out", str(out)],
            tmp_path,
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["dynamics", "--n", "4", "--dt", "0.1", "--steps", "1", "--out", "OUT"], ["selftest"]],
        ids=["dynamics", "selftest"],
    )
    def test_negative_seed(self, tmp_path, capsys, argv):
        # numpy rejected it only when a run drew from it: selftest after
        # criteria 1-3 had passed
        out = tmp_path / "traj.csv"
        code = run(["--seed", "-1", *(str(out) if x == "OUT" else x for x in argv)], tmp_path)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --seed must be nonnegative, got -1\n"
        assert not out.exists()

    def test_off_grid_charge(self, tmp_path, capsys):
        code = run(
            ["coulomb", "--n", "9", "--charges", "20,20", "--out",
             str(tmp_path / "o.json")],
            tmp_path,
        )
        assert code == 2
        assert "outside" in capsys.readouterr().err


class TestComputationalFailures:
    @pytest.mark.parametrize(
        "exc",
        [
            MemoryError("Unable to allocate 7.28 PiB for an array"),
            MemoryError(),
            AssertionError("background violates the Gauss law by 1.00e-03"),
            UnstableStep("energy drifted"),
            NotSeparable("field shifts differ in branch LR"),
            NonRealResult("imaginary residue 1e-3"),
        ],
        ids=[
            "MemoryError",
            "MemoryError-no-message",
            "AssertionError",
            "UnstableStep",
            "NotSeparable",
            "NonRealResult",
        ],
    )
    def test_exit_1_with_one_line(self, tmp_path, monkeypatch, capsys, exc):
        def fail(cfg):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "fme", fail)
        code = run(["fme", "--n", "25", "--sites", "12,7:12,17"], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestOverflow:
    """Runs that overflow fail with exit 1 and one line, not a CSV of
    nan."""

    def test_overflowing_phase(self, tmp_path, capsys):
        out = tmp_path / "fme.csv"
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--tau", "1e308",
             "--out", str(out)],
            tmp_path,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("a", ["1e-300", "1e-154", "1e300"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fme", "--n", "101", "--sites", "50,40:50,60", "--out", "OUT"],
            ["coulomb", "--n", "101", "--charges", "50,40;50,60", "--out", "OUT"],
        ],
        ids=["fme", "coulomb"],
    )
    def test_extreme_spacing(self, tmp_path, capsys, argv, a):
        # |k|^2 overflows at a tiny spacing, dropping weights (at 1e-154
        # only the largest |k|, at 1e-300 all, leaving D all zeros), and
        # underflows at a huge one, giving infinite weights; no such table
        # is used, and numpy warns of none
        out = tmp_path / "out"
        code = run([*(str(out) if x == "OUT" else x for x in argv), "--a", a], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--dt", "1e100"], "error: energy drifted from 3.481904e+02 to inf over 1 steps\n"),
            (["--a", "1e-300", "--dt", "0.05"], "error: energy drifted from inf to nan over 1 steps\n"),
        ],
        ids=["dt-1e100", "a-1e-300"],
    )
    def test_overflowing_dynamics_prints_one_line(self, tmp_path, capsys, argv, message):
        # the drift check reports the overflow; numpy warns of nothing
        out = tmp_path / "traj.csv"
        code = run(["dynamics", "--n", "16", *argv, "--steps", "5", "--out", str(out)], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_unstable_dynamics(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        with np.errstate(all="raise"):
            # the drift check stops the run before anything overflows
            code = run(
                ["dynamics", "--n", "4", "--dt", "10", "--steps", "400",
                 "--out", str(out)],
                tmp_path,
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: energy drifted") and err.count("\n") == 1
        assert not out.exists()


# runs that fail after their first rows: the energy drifts past 1% at
# row 163, and the sixth phase overflows after five good rows
_FAILING_RUNS = {
    "dynamics": ["dynamics", "--n", "16", "--dt", "0.86", "--steps", "300"],
    "fme-sweep": ["fme", "--n", "101", "--sites", "50,40:50,60", "--sweep-tau", "0:1e308:1e307"],
}
_SHORT_RUN = ["dynamics", "--n", "8", "--dt", "0.05", "--steps", "20"]


def _listing(directory):
    """Every file in ``directory`` with its bytes."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class _FullDisk:
    """A text file that takes one chunk, then reports a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.fh.write(text)
        self.fh.flush()

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


class TestOneWriter:
    """``cli._write`` streams rows through ``grid._open_replacing``, the
    no-partial-file rule: into a file beside ``--out`` that replaces it
    only after the last row. Targets that cannot be swapped get the
    complete text."""

    @pytest.mark.parametrize("older", [None, b"older rows\n"], ids=["no-file", "older-file"])
    @pytest.mark.parametrize("name", list(_FAILING_RUNS))
    def test_failed_run_leaves_the_directory_as_it_was(self, tmp_path, capsys, name, older):
        runs = tmp_path / "runs"
        runs.mkdir()
        out = runs / "out.csv"
        if older is not None:
            out.write_bytes(older)
        before = _listing(runs)
        assert run([*_FAILING_RUNS[name], "--out", str(out)], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert _listing(runs) == before

    def test_write_error_after_the_first_chunk_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        monkeypatch.setattr(grid_module, "open", lambda *args, **kw: _FullDisk(open(*args, **kw)), raising=False)
        assert run([*_SHORT_RUN, "--out", str(runs / "out.csv")], tmp_path) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.ENOSPC}] No space left on device\n"
        assert _listing(runs) == {}

    def test_missing_directory_names_the_target(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        assert run([*_SHORT_RUN, "--out", str(out)], tmp_path) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_interrupt_leaves_an_older_file_as_it_was(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"older rows\n")

        def chunks():
            yield "t,H,max_constraint_residual\n"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cli._write(str(out), chunks())
        assert _listing(tmp_path) == {"out.csv": b"older rows\n"}

    def test_new_file_gets_the_mode_of_a_plain_open(self, tmp_path):
        assert run([*_SHORT_RUN, "--out", str(tmp_path / "out.csv")], tmp_path) == 0
        with open(tmp_path / "plain", "w"):
            pass
        assert os.stat(tmp_path / "out.csv").st_mode == os.stat(tmp_path / "plain").st_mode

    def test_symlinked_out_keeps_its_link(self, tmp_path):
        assert run([*_SHORT_RUN, "--out", str(tmp_path / "ref.csv")], tmp_path) == 0
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"older rows\n")
        link.symlink_to(target)
        assert run([*_SHORT_RUN, "--out", str(link)], tmp_path) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_fifo_out_gets_the_rows_and_stays_a_fifo(self, tmp_path):
        assert run([*_SHORT_RUN, "--out", str(tmp_path / "ref.csv")], tmp_path) == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run([*_SHORT_RUN, "--out", str(fifo)], tmp_path) == 0
        reader.join(timeout=30)
        assert got == [(tmp_path / "ref.csv").read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


class TestDynamicsCommand:
    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(
            ["dynamics", "--n", "8", "--dt", "0.05", "--steps", "20", "--out", str(out)],
            tmp_path,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,H,max_constraint_residual"
        assert len(lines) == 22  # header + initial row + 20 steps
        t, h, res = lines[-1].split(",")
        assert float(t) == pytest.approx(1.0)
        assert float(h) > 0 and float(res) >= 0

    def test_byte_identical_reruns(self, tmp_path):
        args = ["dynamics", "--n", "8", "--dt", "0.1", "--steps", "10"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(out1)], tmp_path)
        run(args + ["--out", str(out2)], tmp_path)
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_trajectory(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["--seed", "1", "dynamics", "--n", "8", "--dt", "0.1", "--steps", "5",
             "--out", str(out1)], tmp_path)
        run(["--seed", "2", "dynamics", "--n", "8", "--dt", "0.1", "--steps", "5",
             "--out", str(out2)], tmp_path)
        assert out1.read_bytes() != out2.read_bytes()


class TestCoulombCommand:
    def test_energies_json(self, tmp_path):
        out = tmp_path / "energies.json"
        code = run(
            ["coulomb", "--n", "31", "--charges", "15,10;15,20", "--out", str(out)],
            tmp_path,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"e0", "e_shift", "pair_distance", "D_of_d"}
        assert doc["pair_distance"] == 10.0
        assert doc["e0"] > 0

    def test_kernel_cache_reused_and_recovered(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["--cache-dir", str(cache), "coulomb", "--n", "21",
                "--charges", "10,8;10,12", "--out", str(tmp_path / "o.json")]
        assert main(args) == 0
        (cache_file,) = cache.iterdir()
        first = (tmp_path / "o.json").read_bytes()
        cache_file.write_bytes(b"corrupted")
        assert main(args) == 0  # rebuilt transparently
        assert (tmp_path / "o.json").read_bytes() == first

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("LATGAUGE_CACHE", str(cache))
        code = main(
            ["coulomb", "--n", "15", "--charges", "7,5;7,9", "--out",
             str(tmp_path / "o.json")]
        )
        assert code == 0
        assert any(cache.iterdir())

    def test_bad_charges_exit_2(self, tmp_path):
        code = run(
            ["coulomb", "--n", "15", "--charges", "oops", "--out", str(tmp_path / "o")],
            tmp_path,
        )
        assert code == 2

    def test_duplicate_charges_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = run(
            ["coulomb", "--n", "15", "--charges", "1,1;1,1", "--out", str(out)],
            tmp_path,
        )
        assert code == 2
        assert "duplicate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [100, 101])
    def test_pair_distance_is_minimal_image(self, tmp_path, n):
        # a pair N - 2 columns apart sits 2 apart the short way round,
        # the offset at which D is read
        docs = {}
        for charges in (f"0,0;0,{n - 2}", f"0,{n - 2};0,0", "0,0;0,2"):
            out = tmp_path / "o.json"
            assert run(["coulomb", "--n", str(n), "--charges", charges, "--out", str(out)], tmp_path) == 0
            docs[charges] = json.loads(out.read_text())
        assert {doc["pair_distance"] for doc in docs.values()} == {2.0}
        assert len({(doc["e_shift"], doc["D_of_d"]) for doc in docs.values()}) == 1


class TestFmeCommand:
    def test_single_row(self, tmp_path):
        out = tmp_path / "fme.csv"
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--tau", "3.0",
             "--out", str(out)],
            tmp_path,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,phi_LL,phi_LR,phi_RL,phi_RR,entropy"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[0]) == 3.0
        assert 0.0 <= float(fields[5]) <= np.log(2) + 1e-12

    def test_sweep(self, tmp_path):
        out = tmp_path / "fme.csv"
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--sweep-tau", "0:100:25",
             "--out", str(out)],
            tmp_path,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6  # header + taus 0,25,50,75,100
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[5]) < 1e-12  # LOCC shadow at tau = 0

    def test_null_test_exit_code(self, tmp_path):
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--null-test"], tmp_path
        )
        assert code == 0

    def test_stdout_when_no_out_file(self, tmp_path, capsys):
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--tau", "1.0"], tmp_path
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("tau,phi_LL")

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        args = ["fme", "--n", "25", "--sites", "12,7:12,17", "--sweep-tau", "0:2:0.5"]
        assert run(args, tmp_path) == 0
        stdout = capsys.readouterr().out
        assert run(args + ["--out", str(tmp_path / "fme.csv")], tmp_path) == 0
        assert (tmp_path / "fme.csv").read_bytes() == stdout.encode("ascii")

    def test_row_mismatch_is_usage_error(self, tmp_path):
        # there is no --row option: --sites already fixes the row
        for row in ("11", "12"):
            code = run(
                ["fme", "--n", "25", "--sites", "12,7:12,17", "--row", row], tmp_path
            )
            assert code == 2

    def test_sites_too_close_is_usage_error(self, tmp_path):
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,12"], tmp_path
        )
        assert code == 2

    @pytest.mark.parametrize("sites", ["12,7", "12,7:12,17:12,20"])
    def test_site_count_is_usage_error(self, tmp_path, capsys, sites):
        code = run(["fme", "--n", "25", "--sites", sites], tmp_path)
        assert code == 2
        assert "needs two sites" in capsys.readouterr().err

    def test_non_ascii_digits_are_usage_error(self, tmp_path, capsys):
        # int() would read each as the sites (12, 7) and (12, 17)
        out = tmp_path / "fme.csv"
        for sites in ("1_2,7:12,17", "\uff11\uff12,7:\u0661\u0662,17"):
            code = run(
                ["fme", "--n", "25", "--sites", sites, "--tau", "1", "--out", str(out)],
                tmp_path,
            )
            assert code == 2
            assert "bad site" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("size", ["2", "5", "-3"])
    def test_region_size_is_usage_error(self, tmp_path, size):
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--region-size", size],
            tmp_path,
        )
        assert code == 2

    def test_negative_sweep_start_is_usage_error(self, tmp_path, capsys):
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--sweep-tau=-1:1:1"],
            tmp_path,
        )
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--out", "{out}"], ["--tau", "0"], ["--sweep-tau", "0:5:1"]], ids=lambda o: o[0]
    )
    def test_null_test_refuses_options_it_does_not_read(self, tmp_path, capsys, option):
        out = tmp_path / "nt.csv"
        argv = ["fme", "--n", "25", "--sites", "12,7:12,17", "--null-test"]
        assert run(argv + [arg.format(out=out) for arg in option], tmp_path) == 2
        assert capsys.readouterr().err == f"error: --null-test does not read {option[0]}\n"
        assert not out.exists()

    def test_tau_defaults_to_zero(self, tmp_path, capsys):
        argv = ["fme", "--n", "25", "--sites", "12,7:12,17"]
        assert run(argv, tmp_path) == 0
        default = capsys.readouterr().out
        assert run(argv + ["--tau", "0"], tmp_path) == 0
        assert capsys.readouterr().out == default
        assert default.splitlines()[1].startswith("0.0,")


class TestAlgebraCommand:
    def test_center_dump(self, tmp_path):
        out = tmp_path / "center.json"
        code = run(
            ["algebra", "--n", "11", "--region", "2,2,5", "--dump", str(out)], tmp_path
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["dimension"] == 41
        assert len(doc["basis"]) == 41
        first = doc["basis"][0]
        assert first["label"].startswith("CROSS")
        assert all(isinstance(t["coefficient"], str) for t in first["terms"])
        assert "/" in first["terms"][0]["coefficient"]  # exact rationals

    def test_bad_region_exit_2(self, tmp_path):
        code = run(
            ["algebra", "--n", "11", "--region", "9,9,5", "--dump",
             str(tmp_path / "c.json")],
            tmp_path,
        )
        assert code == 2

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_whole_torus_region_is_usage_error(self, tmp_path, capsys, n):
        # a region as large as the grid has no boundary, so no edge labels
        out = tmp_path / "c.json"
        code = run(["algebra", "--n", str(n), "--region", f"0,0,{n}", "--dump", str(out)], tmp_path)
        assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize("region", ["\u0662,2,3", "2,2", "2,2,3;3,3,3"])
    def test_malformed_region_is_usage_error(self, tmp_path, capsys, region):
        # int() would read the first as the region 2,2,3
        out = tmp_path / "c.json"
        code = run(["algebra", "--n", "11", "--region", region, "--dump", str(out)], tmp_path)
        assert_usage_error(code, capsys, out)


def _center_doc(grid, region, basis):
    """The ``algebra`` dump as the document ``json.dumps(doc, indent=2)``
    renders, the oracle of ``cli._center_json``."""
    return {
        "n": grid.n,
        "a": grid.spacing,
        "region": list(region),
        "dimension": len(basis.generators),
        "basis": [
            {
                "label": str(label),
                "terms": [
                    {"field": "p", "component": comp, "site": [site[0], site[1]], "coefficient": str(coeff)}
                    for (site, comp), coeff in sorted(op.p_coeffs.items())
                ],
            }
            for op, label in zip(basis.generators, basis.labels)
        ],
    }


@st.composite
def _center_bases(draw):
    n = draw(st.integers(4, 13))
    m = draw(st.integers(3, min(n - 1, 8)))
    region = (draw(st.integers(0, n - m)), draw(st.integers(0, n - m)), m)
    spacing = draw(st.sampled_from([1.0, 0.7, 1e-3]) | st.floats(1e-6, 1e6))
    grid = GridSpec(n, spacing)
    return grid, region, center_basis(Region(region[:2], m), grid)


class TestCenterJson:
    @settings(max_examples=40, deadline=None)
    @given(_center_bases())
    def test_matches_json_dumps(self, case):
        grid, region, basis = case
        assert cli._center_json(grid, region, basis) == json.dumps(_center_doc(grid, region, basis), indent=2) + "\n"


class TestContinuumCommand:
    def test_d_log_csv(self, tmp_path):
        out = tmp_path / "dlog.csv"
        code = run(
            ["continuum", "--check", "d-log", "--n-list", "21,41", "--pairs",
             "2,4;4,8", "--out", str(out)],
            tmp_path,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r1,r2,N,value"
        assert len(lines) == 5

    def test_duplicate_pairs_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "dlog.csv"
        code = run(
            ["continuum", "--check", "d-log", "--n-list", "21,41", "--pairs",
             "2,4;2,4", "--out", str(out)],
            tmp_path,
        )
        assert code == 2
        assert "duplicate pairs" in capsys.readouterr().err
        assert not out.exists()

    def test_g_scaling_csv(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run(
            ["continuum", "--check", "g-scaling", "--n-list", "21,41", "--r", "3",
             "--out", str(out)],
            tmp_path,
        )
        assert code == 0
        assert out.read_text().startswith("r,N,value")

    def test_kvec_csv(self, tmp_path):
        out = tmp_path / "k.csv"
        code = run(
            ["continuum", "--check", "kvec", "--n-list", "20,40,80", "--fraction",
             "0.05", "--out", str(out)],
            tmp_path,
        )
        assert code == 0

    def test_missing_check_args_exit_2(self, tmp_path):
        code = run(
            ["continuum", "--check", "d-log", "--n-list", "21,41", "--out",
             str(tmp_path / "d.csv")],
            tmp_path,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "option, header, prefixes, labels",
        [
            (["d-log", "--pairs", "2,4;1,2"], "r1,r2,N,value", ["2,4,", "1,2,"],
             ["pair (2,4): ", "pair (1,2): "]),
            (["g-scaling", "--r", "3"], "r,N,value", ["3,"], [""]),
            (["kvec", "--fraction", "0.05"], "N,value", [""], [""]),
        ],
        ids=["d-log", "g-scaling", "kvec"],
    )
    def test_rows_and_estimate_lines(self, tmp_path, capsys, option, header, prefixes, labels):
        # one row per N and one stdout estimate line per series, in order
        out = tmp_path / "c.csv"
        code = run(
            ["continuum", "--n-list", "41,21", "--check"] + option + ["--out", str(out)], tmp_path
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert [row.rsplit(",", 1)[0] for row in lines[1:]] == [
            f"{prefix}{n}" for prefix in prefixes for n in (21, 41)
        ]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split("estimate ")[0] for line in printed] == labels

    @pytest.mark.parametrize("n_list", ["2_0,40", "\u0664\u0660,80", "40,40", "0,4", "2,4"])
    def test_bad_n_list_is_usage_error(self, tmp_path, capsys, n_list):
        # at the parent these ran as N = 20 and 40 (exit 0), failed with
        # exit 1, died of ZeroDivisionError, and wrote a row for N = 2
        out = tmp_path / "k.csv"
        code = run(
            ["continuum", "--check", "kvec", "--n-list", n_list, "--fraction", "0.05",
             "--out", str(out)],
            tmp_path,
        )
        assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["g-scaling", "--n-list", "21,41", "--r", "30"],
            ["kvec", "--n-list", "20,40", "--fraction", "0.3"],
            ["d-log", "--n-list", "21,41", "--pairs", "2,1"],
        ],
        ids=["r", "fraction", "pairs"],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, argv):
        # at the parent these exited 1 as computational failures
        out = tmp_path / "c.csv"
        code = run(["continuum", "--check"] + argv + ["--out", str(out)], tmp_path)
        assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["d-log", "--pairs", "1,2;2,4", "--fraction", "inf"],
            ["d-log", "--pairs", "1,2", "--r", "3"],
            ["g-scaling", "--r", "3", "--pairs", "1,2"],
            ["kvec", "--fraction", "0.05", "--r", "3"],
        ],
        ids=["d-log-fraction", "d-log-r", "g-scaling-pairs", "kvec-r"],
    )
    def test_unread_option_is_usage_error(self, tmp_path, capsys, argv):
        # at the parent the unread option was ignored and the run exited 0
        out = tmp_path / "c.csv"
        code = run(["continuum", "--n-list", "21,41", "--check"] + argv + ["--out", str(out)], tmp_path)
        assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize("fraction", ["nan", "inf"])
    def test_non_finite_fraction_is_usage_error(self, tmp_path, capsys, fraction):
        out = tmp_path / "k.csv"
        code = run(
            ["continuum", "--check", "kvec", "--n-list", "20,40", "--fraction", fraction,
             "--out", str(out)],
            tmp_path,
        )
        assert_usage_error(code, capsys, out)


class TestSelftestCommand:
    def test_cheap_subset_passes(self, capsys):
        code = main(["selftest", "--criteria", "1,3,6"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 3

    def test_unknown_criterion_is_usage_error(self, capsys):
        # the parent ran no criterion and exited 0
        assert_usage_error(main(["selftest", "--criteria", "99"]), capsys)

    def test_seed_independent_truths(self, capsys):
        # different seeds relabel the random draws, not the outcomes
        for seed in ("1", "2"):
            code = main(["--seed", seed, "selftest", "--criteria", "1,4"])
            assert code == 0
        capsys.readouterr()
