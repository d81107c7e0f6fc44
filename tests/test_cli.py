"""Command-line surface: parsing, outputs, determinism, caching."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauge import cli
from latgauge.cli import RunConfig, UsageError, _parse_sweep, main, parse_args
from latgauge.dynamics import UnstableStep
from latgauge.fme import NotSeparable
from latgauge.spectral import NonRealResult


def run(argv, tmp_path, env_cache=True):
    # keep kernel caches inside the test sandbox
    argv = list(argv)
    if env_cache and "--cache-dir" not in argv:
        argv = ["--cache-dir", str(tmp_path / "cache")] + argv
    return main(argv)


class TestParsing:
    def test_coulomb_config(self):
        cfg = parse_args(
            ["coulomb", "--n", "101", "--charges", "50,40;50,60", "--out", "x.json"]
        )
        assert isinstance(cfg, RunConfig)
        assert cfg.command == "coulomb"
        assert cfg.params["charges"] == "50,40;50,60"

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
        assert "nan" not in out.read_text()


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


class TestFmeCommand:
    def test_single_row(self, tmp_path):
        out = tmp_path / "fme.csv"
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--row", "12",
             "--tau", "3.0", "--out", str(out)],
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

    def test_row_mismatch_is_usage_error(self, tmp_path):
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,17", "--row", "11"], tmp_path
        )
        assert code == 2

    def test_sites_too_close_is_usage_error(self, tmp_path):
        code = run(
            ["fme", "--n", "25", "--sites", "12,7:12,12"], tmp_path
        )
        assert code == 2


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


class TestSelftestCommand:
    def test_cheap_subset_passes(self, capsys):
        code = main(["selftest", "--criteria", "1,3,6"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 3

    def test_seed_independent_truths(self, capsys):
        # different seeds relabel the random draws, not the outcomes
        for seed in ("1", "2"):
            code = main(["--seed", seed, "selftest", "--criteria", "1,4"])
            assert code == 0
        capsys.readouterr()
