"""DFT convention, wave vectors, kernel tables, and the cache format."""

import errno
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauge import grid as grid_module
from latgauge import spectral
from latgauge.acceptance import _dft_matrix, _direct_dft
from latgauge.grid import GridSpec, ScalarField, _block_rows, dbar
from latgauge.spectral import (
    FourierField,
    NonRealResult,
    _assert_table,
    _mode_weights,
    build_kernels,
    dft_forward,
    dft_inverse,
    kernel_values,
    load_kernels,
    load_or_build_kernels,
    save_kernels,
    wave_number_table,
    wave_vector,
    zero_mode_count,
)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal(grid.shape))


def direct_inverse(modes):
    """The defining inverse double sum with 1/N^2, complex: the oracle
    of ``dft_inverse``."""
    e = np.conj(_dft_matrix(modes.grid.n))
    return np.einsum("ai,ij,bj->ab", e, modes.modes, e) / modes.grid.n**2


def direct_kernel_values(grid, power):
    """The defining mode sum ``sum_{k != 0} e^{ik.x} / |k|^power / N^2``
    term by term, with the same excluded modes: the oracle of
    ``kernel_values``. Asserts the sum is real."""
    weights, _ = _mode_weights(grid, power)
    e = _dft_matrix(grid.n)
    values = np.einsum("ua,ab,vb->uv", e, weights.astype(complex), e) / grid.n**2
    assert np.max(np.abs(values.imag)) <= 1e-10 * np.max(np.abs(values))
    return values.real


class TestForward:
    def test_constant_field_concentrates_on_zero_mode(self):
        grid = GridSpec(4, 1.0)
        ft = dft_forward(ScalarField.constant(grid, 1.0))
        assert abs(ft.modes[0, 0] - 16.0) < 1e-12
        rest = ft.modes.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_single_site_is_flat(self):
        grid = GridSpec(5, 1.0)
        values = np.zeros(grid.shape)
        values[0, 0] = 1.0
        ft = dft_forward(ScalarField(grid, values))
        assert np.max(np.abs(ft.modes - 1.0)) < 1e-12

    def test_round_trip(self):
        grid = GridSpec(8, 1.0)
        f = random_field(grid, 1)
        back = dft_inverse(dft_forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(
            np.abs(f.values)
        )

    def test_direct_path_agrees_with_fft(self):
        grid = GridSpec(7, 1.0)
        f = random_field(grid, 2)
        fast = dft_forward(f).modes
        direct = _direct_dft(f.values)
        assert np.max(np.abs(fast - direct)) < 1e-10 * np.max(np.abs(fast))
        ff = FourierField(grid, fast)
        back_fast = dft_inverse(ff).values
        back_direct = direct_inverse(ff)
        assert np.max(np.abs(back_fast - back_direct)) < 1e-10

    def test_conjugate_symmetry_of_real_input(self):
        grid = GridSpec(6, 1.0)
        modes = dft_forward(random_field(grid, 3)).modes
        # f~[-alpha, -beta]: reverse both axes, then roll to negate mod N
        negated = np.roll(modes[::-1, ::-1], (1, 1), axis=(0, 1))
        defect = np.max(np.abs(modes - np.conj(negated))) / np.max(np.abs(modes))
        assert defect < 1e-10

    def test_parseval(self):
        grid = GridSpec(9, 1.0)
        f, g = random_field(grid, 4), random_field(grid, 5)
        lhs = np.sum(f.values * g.values)
        rhs = (
            np.sum(dft_forward(f).modes * np.conj(dft_forward(g).modes)).real
            / grid.n**2
        )
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)


class TestInverse:
    def test_delta_at_origin_gives_constant(self):
        grid = GridSpec(6, 1.0)
        modes = np.zeros(grid.shape, dtype=complex)
        modes[0, 0] = grid.n**2
        f = dft_inverse(FourierField(grid, modes))
        assert np.max(np.abs(f.values - 1.0)) < 1e-12

    def test_non_real_result_raises(self):
        grid = GridSpec(4, 1.0)
        modes = np.zeros(grid.shape, dtype=complex)
        modes[1, 0] = 1.0  # lone mode without its conjugate partner
        with pytest.raises(NonRealResult):
            dft_inverse(FourierField(grid, modes))

    def test_differentiation_rule(self):
        grid = GridSpec(8, 1.0)
        f = random_field(grid, 6)
        ft = dft_forward(f)
        kx, ky, _ = wave_number_table(grid)
        scale = np.max(np.abs(ft.modes))
        for direction, k in (("x", kx), ("y", ky)):
            lhs = dft_forward(dbar(f, direction)).modes
            assert np.max(np.abs(lhs - 1j * k * ft.modes)) < 1e-11 * scale

    def test_kronecker_identity(self):
        n = 5
        j = np.arange(n)
        for alpha in range(n):
            for gamma in range(n):
                val = np.sum(np.exp(2j * np.pi * (gamma - alpha) * j / n)) / n
                assert abs(val - (1.0 if alpha == gamma else 0.0)) < 1e-12


class TestWaveVector:
    def test_zero_mode(self):
        assert wave_vector(GridSpec(6, 1.0), 0, 0) == (0.0, 0.0)

    def test_even_lattice_extra_zero_mode(self):
        grid = GridSpec(4, 1.0)
        kx, ky = wave_vector(grid, 1, 0)
        assert abs(kx) < 1e-15 and abs(ky - 1.0) < 1e-15
        _, ky = wave_vector(grid, 2, 0)
        assert abs(ky) < 1e-15  # sin(pi) = 0: the doubler mode

    def test_diagonal_mode_magnitude(self):
        kx, ky = wave_vector(GridSpec(3, 1.0), 1, 1)
        s = np.sin(2 * np.pi / 3)
        assert abs(kx - s) < 1e-15 and abs(ky - s) < 1e-15
        assert abs(np.hypot(kx, ky) - 1.224744871391589) < 1e-12

    def test_mode_bounds(self):
        with pytest.raises(ValueError):
            wave_vector(GridSpec(4, 1.0), 4, 0)

    def test_zero_mode_count(self):
        assert zero_mode_count(GridSpec(5, 1.0)) == 1
        assert zero_mode_count(GridSpec(8, 1.0)) == 4


class TestKernels:
    def test_evenness(self):
        grid = GridSpec(7, 1.0)
        g = kernel_values(grid, 1)
        table = build_kernels(grid)
        n = 7
        for di in range(n):
            for dj in range(n):
                assert abs(g[di, dj] - g[-di % n, -dj % n]) < 1e-11
                assert abs(table.d(di, dj) - table.d(-di, -dj)) < 1e-11

    def test_g_origin_closed_form_n3(self):
        # 8 nonzero modes: four with |k| = sin(2pi/3), four sqrt(2) bigger
        g = kernel_values(GridSpec(3, 1.0), 1)
        expected = (8.0 / 9.0) * (1.0 / np.sqrt(3.0) + 1.0 / np.sqrt(6.0))
        assert abs(g[0, 0] - expected) < 1e-12

    def test_direct_path_agrees_with_fft(self):
        grid = GridSpec(5, 1.0)
        for power in (1, 2):
            fast = kernel_values(grid, power)
            direct = direct_kernel_values(grid, power)
            assert np.max(np.abs(fast - direct)) < 1e-12
        direct_d = direct_kernel_values(grid, 2)
        assert np.max(np.abs(build_kernels(grid).d_values - direct_d)) < 1e-12

    def test_d_difference_at_n101(self):
        # dense-mode-sum oracle value; the nearest-neighbour difference
        # carries the staggered doubler part of the dispersion, so it
        # sits nowhere near the naive continuum log difference
        table = build_kernels(GridSpec(101, 1.0))
        assert table.d(0, 1) - table.d(0, 2) == pytest.approx(-2.2434513, abs=1e-6)

    def test_even_lattice_builds(self):
        grid = GridSpec(8, 1.0)
        assert np.isfinite(kernel_values(grid, 1)).all()
        assert np.isfinite(build_kernels(grid).d_values).all()


def nn_green_values(n):
    """``G_N``: the zero-mode-excluded Green's function of the
    nearest-neighbour Laplacian on the N x N torus, mode weights
    ``1/(4 sin^2(pi alpha/N) + 4 sin^2(pi beta/N))``, by the same FFT."""
    w = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    lap = w[:, np.newaxis] + w
    kept = lap > 0
    weights = np.where(kept, 1.0 / np.where(kept, lap, 1.0), 0.0)
    return np.real(np.fft.fft2(weights)) / n**2


_EPS = np.finfo(float).eps


class TestNearestNeighbourRelabelling:
    """D is ``(2a)^2`` times the nearest-neighbour G of one lattice: the
    symmetric difference reaches two sites, so on an odd torus the wrap
    joins the parity classes into one lattice walked in steps of two, and
    on an even torus each class is its own lattice at spacing 2a."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 100).map(lambda k: 2 * k + 1), a=st.floats(1e-3, 1e3))
    def test_odd_n_is_one_lattice_walked_in_steps_of_two(self, n, a):
        d = kernel_values(GridSpec(n, a), 2)
        step = (n + 1) // 2 * np.arange(n) % n  # h i mod N, h the inverse of 2
        g = nn_green_values(n)[np.ix_(step, step)]
        assert np.max(np.abs(d - (2 * a) ** 2 * g)) <= 64 * _EPS * d[0, 0]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 100).map(lambda k: 2 * k), a=st.floats(1e-3, 1e3))
    def test_even_n_parity_classes_decouple(self, n, a):
        d = kernel_values(GridSpec(n, a), 2)
        assert np.max(np.abs(d[::2, ::2] - (2 * a) ** 2 * nn_green_values(n // 2))) <= 64 * _EPS * d[0, 0]
        other = np.ones((n, n), dtype=bool)
        other[::2, ::2] = False  # every offset with an odd component
        assert np.max(np.abs(d[other])) <= 32 * _EPS * d[0, 0]


def _write_lgk1(path, grid):
    """A cache file in the older LGK1 layout: the same header, then N^2 G
    and N^2 D doubles."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIdB", b"LGK1", grid.n, grid.spacing, 0))
        fh.write(kernel_values(grid, 1).astype("<f8").tobytes())
        fh.write(kernel_values(grid, 2).astype("<f8").tobytes())


class TestKernelCache:
    def test_round_trip(self, tmp_path):
        table = build_kernels(GridSpec(6, 2.0))
        path = tmp_path / "kern.lgk"
        save_kernels(table, path)
        back = load_kernels(path)
        assert back.grid == table.grid
        np.testing.assert_array_equal(back.d_values, table.d_values)

    def test_loaded_table_is_read_only(self, tmp_path):
        path = tmp_path / "kern.lgk"
        save_kernels(build_kernels(GridSpec(5, 1.0)), path)
        back = load_kernels(path)
        assert not back.d_values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.d_values[0, 0] = 1.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "kern.lgk"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_kernels(path)

    def test_unknown_policy_rejected(self, tmp_path):
        path = tmp_path / "kern.lgk"
        save_kernels(build_kernels(GridSpec(5, 1.0)), path)
        data = bytearray(path.read_bytes())
        data[16] = 1
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="policy"):
            load_kernels(path)

    def test_truncated_payload_rejected(self, tmp_path):
        table = build_kernels(GridSpec(5, 1.0))
        path = tmp_path / "kern.lgk"
        save_kernels(table, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_kernels(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "kern.lgk"
        save_kernels(build_kernels(GridSpec(5, 1.0)), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_kernels(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        grid = GridSpec(5, 1.0)
        load_or_build_kernels(grid, tmp_path)
        (cache_file,) = tmp_path.iterdir()
        header = cache_file.read_bytes()[:17]
        cache_file.write_bytes(header + np.full(25, np.nan).tobytes())
        with pytest.raises(AssertionError, match="not even"):
            load_kernels(cache_file)
        table = load_or_build_kernels(grid, tmp_path)
        np.testing.assert_array_equal(table.d_values, build_kernels(grid).d_values)

    def test_zero_payload_rejected(self, tmp_path):
        # a table of zeros, as |k|^2 overflowing at a tiny spacing gives,
        # is even but is no kernel table; the cache rebuilds it
        grid = GridSpec(5, 1.0)
        load_or_build_kernels(grid, tmp_path)
        (cache_file,) = tmp_path.iterdir()
        header = cache_file.read_bytes()[:17]
        cache_file.write_bytes(header + np.zeros(25).tobytes())
        with pytest.raises(AssertionError, match="0.0 at offset 0, not positive"):
            load_kernels(cache_file)
        table = load_or_build_kernels(grid, tmp_path)
        np.testing.assert_array_equal(table.d_values, build_kernels(grid).d_values)

    def test_failed_save_leaves_the_older_file(self, tmp_path, monkeypatch):
        path = tmp_path / "kern.lgk"
        save_kernels(build_kernels(GridSpec(5, 1.0)), path)
        older = path.read_bytes()

        class HalfPayload:
            # writes part of the payload, then the disk is full
            def __init__(self, values, dtype):
                self.data = np.asarray(values, dtype=dtype).tobytes()

            def tofile(self, fh):
                fh.write(self.data[: len(self.data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(spectral.np, "ascontiguousarray", HalfPayload)
        with pytest.raises(OSError, match="No space"):
            save_kernels(build_kernels(GridSpec(5, 2.0)), path)
        assert path.read_bytes() == older
        assert [f.name for f in tmp_path.iterdir()] == ["kern.lgk"]

    def test_failed_save_names_the_cache_file(self, tmp_path):
        path = tmp_path / "missing" / "kern.lgk"
        with pytest.raises(FileNotFoundError) as failed:
            save_kernels(build_kernels(GridSpec(5, 1.0)), path)
        assert failed.value.filename == str(path)

    def test_file_holds_header_and_d_only(self, tmp_path):
        path = tmp_path / "kern.lgk"
        save_kernels(build_kernels(GridSpec(1001, 1.0)), path)
        assert path.stat().st_size == 17 + 8 * 1001**2
        assert path.read_bytes()[:4] == b"LGK2"

    def test_load_or_build_recovers_from_corruption(self, tmp_path):
        grid = GridSpec(5, 1.0)
        first = load_or_build_kernels(grid, tmp_path)
        cache_files = list(tmp_path.iterdir())
        assert len(cache_files) == 1
        cache_files[0].write_bytes(b"garbage")
        rebuilt = load_or_build_kernels(grid, tmp_path)
        np.testing.assert_array_equal(rebuilt.d_values, first.d_values)
        # the rebuilt table was written back out
        assert load_kernels(cache_files[0]).grid == grid

    def test_load_or_build_rewrites_lgk1_as_lgk2(self, tmp_path):
        grid = GridSpec(9, 1.0)
        load_or_build_kernels(grid, tmp_path)
        (cache_file,) = tmp_path.iterdir()
        _write_lgk1(cache_file, grid)
        with pytest.raises(ValueError, match="magic"):
            load_kernels(cache_file)
        table = load_or_build_kernels(grid, tmp_path)
        np.testing.assert_array_equal(table.d_values, build_kernels(grid).d_values)
        assert cache_file.read_bytes()[:4] == b"LGK2"
        assert cache_file.stat().st_size == 17 + 8 * grid.n**2
        assert load_kernels(cache_file).grid == grid

    def test_load_or_build_rejects_table_for_another_grid(self, tmp_path):
        grid = GridSpec(101, 1.0)
        load_or_build_kernels(grid, tmp_path)
        (cache_file,) = tmp_path.iterdir()
        save_kernels(build_kernels(GridSpec(51, 1.0)), cache_file)
        table = load_or_build_kernels(grid, tmp_path)
        assert table.grid == grid
        np.testing.assert_array_equal(table.d_values, build_kernels(grid).d_values)
        # the right table was written back under the key
        assert load_kernels(cache_file).grid == grid

    def test_cache_hit_is_one_read(self, tmp_path, monkeypatch):
        # a hit opens the file once and neither makes nor probes the directory
        grid = GridSpec(9, 1.0)
        first = load_or_build_kernels(grid, tmp_path)
        loads = []

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit touched the directory")

        load = spectral.load_kernels
        monkeypatch.setattr(spectral, "load_kernels", lambda path: loads.append(path) or load(path))
        monkeypatch.setattr(spectral.os, "makedirs", refuse)
        monkeypatch.setattr(spectral.os.path, "exists", refuse)
        monkeypatch.setattr(spectral, "build_kernels", refuse)
        table = load_or_build_kernels(grid, tmp_path)
        assert len(loads) == 1
        np.testing.assert_array_equal(table.d_values, first.d_values)

    def test_missing_cache_directory_is_created(self, tmp_path):
        cache_dir = tmp_path / "not" / "yet"
        grid = GridSpec(9, 1.0)
        table = load_or_build_kernels(grid, cache_dir)
        (cache_file,) = cache_dir.iterdir()
        assert load_kernels(cache_file).grid == grid
        np.testing.assert_array_equal(table.d_values, build_kernels(grid).d_values)

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_load_makes_no_second_table(self, tmp_path, n):
        # the payload itself, and nothing N^2 beside it: the evenness
        # check works in row blocks (tracemalloc sees numpy's buffers)
        path = tmp_path / "kern.lgk"
        save_kernels(build_kernels(GridSpec(n, 1.0)), path)
        tracemalloc.start()
        try:
            load_kernels(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n


class TestAssertTable:
    """``_assert_table`` checks evenness in row blocks, reading each
    offset pair from its row in the upper half; an entry off by 1e-8 of
    D(0) anywhere, or a NaN, fails it."""

    @pytest.fixture(scope="class")
    def table(self):
        return build_kernels(GridSpec(1001, 1.0)).d_values

    @staticmethod
    def edge_sites(n):
        # row 0, column 0, the last row and column, the middle rows, and
        # the first and last row of the second and third blocks
        rows = _block_rows(n)
        return [
            (0, 1), (0, n // 2), (0, n - 1), (1, 0), (n // 2, 0), (n - 1, 0),
            (n - 1, 7), (n - 1, n - 1), (n // 2, 3), (n // 2 + 1, 3),
            (rows, 5), (rows + 1, 5), (2 * rows, n - 2), (2 * rows + 1, 2),
        ]

    @pytest.mark.parametrize("nan", [False, True])
    def test_one_bad_entry_fails(self, table, nan):
        n = table.shape[0]
        assert 2 * _block_rows(n) + 1 < n // 2  # the block edges lie in the checked half
        for site in self.edge_sites(n):
            bad = table.copy()
            bad[site] = np.nan if nan else bad[site] + 1e-8 * table[0, 0]
            with pytest.raises(AssertionError, match="not even"):
                _assert_table(bad)

    def test_nan_or_negative_at_the_origin_fails(self, table):
        for value in (np.nan, -table[0, 0]):
            bad = table.copy()
            bad[0, 0] = value
            with pytest.raises(AssertionError):
                _assert_table(bad)

    @given(n=st.integers(3, 40), rows=st.integers(1, 45), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_block_size_finds_any_bad_entry(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        good = kernel_values(GridSpec(n, rng.uniform(0.1, 10.0)), 2)
        i, j = rng.integers(0, n, size=2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid_module, "_BLOCK_ENTRIES", rows * n)
            _assert_table(good)
            site = (i, j)
            if ((-i) % n, (-j) % n) != site:  # not its own mirror, as (0, 0) is
                bad = good.copy()
                bad[site] += 1e-8 * good[0, 0]
                with pytest.raises(AssertionError, match="not even"):
                    _assert_table(bad)

    @pytest.mark.parametrize("n, a", [(3, 1.0), (4, 0.2), (257, 3.0), (258, 1.0), (1000, 0.5)])
    def test_passes_on_built_tables(self, n, a):
        _assert_table(kernel_values(GridSpec(n, a), 2))
