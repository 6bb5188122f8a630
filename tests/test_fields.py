"""Grid geometry, LG modes, overlaps, modal rotation, and propagation."""

from fractions import Fraction
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oamturb import (
    AliasingError,
    DomainError,
    GridSpec,
    RangeError,
    ScalarField,
    ShapeMismatchError,
    VectorField,
    make_lg_mode,
    overlap,
    propagate,
    rotate_modal,
)
from oamturb import fields, turbulence
from oamturb.elements import decode_factors
from oamturb.fields import (
    _SCRATCH_ROWS,
    _expi_half,
    _frame_fraction,
    _halves,
    _quarter_turns,
    _rotate_all,
    _shear_phase,
    _transfer,
    expi,
    intensity_frame_fraction,
)

GRID = GridSpec()


class TestGridSpec:
    def test_defaults(self):
        assert GRID.n == 256
        assert GRID.extent == 8.0
        assert GRID.pitch == pytest.approx(8.0 / 256)

    @pytest.mark.parametrize("n", [0, 16, 255, -64])
    def test_bad_size_rejected(self, n):
        with pytest.raises(RangeError):
            GridSpec(n, 8.0)

    @pytest.mark.parametrize("extent", [0.0, -1.0, math.inf, math.nan])
    def test_bad_extent_rejected(self, extent):
        with pytest.raises(RangeError):
            GridSpec(256, extent)

    def test_non_integer_size_rejected(self):
        with pytest.raises(TypeError, match="^grid size must be an integer, got 256.0$"):
            GridSpec(256.0, 8.0)

    @pytest.mark.parametrize("extent", [True, False, np.True_])
    def test_bool_extent_rejected(self, extent):
        # a bool is no extent, as it is no size: True is not 1.0 waists
        with pytest.raises(TypeError, match="grid extent must be a real number"):
            GridSpec(256, extent)
        with pytest.raises(TypeError, match="grid size must be an integer"):
            GridSpec(extent, 8.0)

    def test_coordinates_straddle_the_axis(self):
        g = GridSpec(64, 4.0)
        c = g.coords
        # half-pixel offset: no sample on the axis, exact odd symmetry
        assert c[32] == pytest.approx(g.pitch / 2)
        assert c[31] == pytest.approx(-g.pitch / 2)
        np.testing.assert_allclose(c, -c[::-1], atol=0)

    def test_coords_read_only(self):
        with pytest.raises(ValueError):
            GridSpec(32, 2.0).coords[0] = 99.0

    @pytest.mark.parametrize("n", [64, 256, 300, 512])
    def test_polar_is_bitwise_its_meshgrid_build(self, n):
        g = GridSpec(n, n / 32)
        x, y = np.meshgrid(g.coords, g.coords)
        r, theta = g.polar
        assert r.tobytes() == np.hypot(x, y).tobytes()
        assert theta.tobytes() == np.arctan2(y, x).tobytes()

    def test_caches_hold_only_1d_arrays(self):
        # an extent no other test uses, so every cache below builds on g
        g = GridSpec(64, 7.25)
        make_lg_mode(3, g)
        decode_factors(2, g)
        turbulence._tables(g)
        _transfer(g, 1.5, 0.5)
        shapes = {name: np.shape(value) for name, value in vars(g).items()}
        assert shapes == {"n": (), "extent": (), "coords": (64,), "freqs": (64,)}


class TestScalarField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ScalarField(GRID, np.zeros((5, 5)))

    def test_samples_read_only(self):
        f = ScalarField(GridSpec(32, 2.0), np.zeros((32, 32)))
        with pytest.raises(ValueError):
            f.samples[0, 0] = 1.0

    def test_power_is_discrete_l2_norm(self):
        g = GridSpec(32, 2.0)
        f = ScalarField(g, np.full((32, 32), 2.0 + 1j))
        assert f.power() == pytest.approx(5.0 * 32 * 32 * g.pitch**2, rel=1e-14)

    def test_vector_field_requires_matching_grids(self):
        a = ScalarField(GridSpec(32, 2.0), np.zeros((32, 32)))
        b = ScalarField(GridSpec(32, 3.0), np.zeros((32, 32)))
        with pytest.raises(ShapeMismatchError):
            VectorField(a, b)

    def test_vector_field_power_adds(self):
        f = make_lg_mode(1, GRID)
        v = VectorField(f, f)
        assert v.power() == pytest.approx(2.0, rel=1e-12)


class TestLgModes:
    @pytest.mark.parametrize("l", [0, 1, -3, 4, 8])
    def test_unit_power(self, l):
        assert make_lg_mode(l, GRID).power() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l, radius", [(1, 1 / math.sqrt(2)), (4, math.sqrt(2))])
    def test_ring_radius(self, l, radius):
        f = make_lg_mode(l, GRID)
        x, y = np.meshgrid(GRID.coords, GRID.coords)
        idx = np.argmax(np.abs(f.samples))
        r_peak = math.hypot(x.ravel()[idx], y.ravel()[idx])
        assert abs(r_peak - radius) <= GRID.pitch

    def test_azimuthal_phase_winding(self):
        f = make_lg_mode(2, GRID)
        x, y = np.meshgrid(GRID.coords, GRID.coords)
        residual = f.samples * np.exp(-1j * 2 * np.arctan2(y, x))
        assert np.max(np.abs(np.angle(residual[np.abs(f.samples) > 1e-6]))) < 1e-12

    def test_distinct_indices_orthogonal(self):
        pairs = [(1, 2), (1, -1), (0, 3)]
        for la, lb in pairs:
            val = overlap(make_lg_mode(la, GRID), make_lg_mode(lb, GRID))
            assert abs(val) < 1e-12

    def test_mode_cache_returns_same_object(self):
        assert make_lg_mode(1, GRID) is make_lg_mode(1, GRID)

    def test_index_range_enforced(self):
        with pytest.raises(RangeError, match=r"azimuthal index must be in \[-8, 8\], got 9"):
            make_lg_mode(9, GRID)
        with pytest.raises(TypeError, match="azimuthal index must be an integer"):
            make_lg_mode(1.0, GRID)
        with pytest.raises(TypeError, match="azimuthal index must be an integer"):
            make_lg_mode(True, GRID)
        assert make_lg_mode(np.int64(-8), GRID) is make_lg_mode(-8, GRID)

    @pytest.mark.parametrize("extent", [1e150, 1e300, 1e-300])
    @pytest.mark.parametrize("l", [0, 1, 8])
    def test_unsamplable_grid_rejected(self, extent, l):
        # no sample holds a finite positive power: one DomainError, no
        # overflow and no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="cannot resolve the unit waist"):
                make_lg_mode(l, GridSpec(32, extent))


class TestOverlap:
    def test_matches_elementwise_sum(self):
        g = GridSpec(64, 6.0)
        a, b = make_lg_mode(1, g), make_lg_mode(2, g)
        acc = 0.0 + 0.0j
        for i in range(64):
            for j in range(64):
                acc += a.samples[i, j].conjugate() * b.samples[i, j]
        acc *= g.pitch**2
        assert overlap(a, b) == pytest.approx(acc, abs=1e-15)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            overlap(make_lg_mode(1, GRID), make_lg_mode(1, GridSpec(64, 6.0)))

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_conjugate_symmetry_and_linearity(self, seed):
        g = GridSpec(32, 2.0)
        rng = np.random.default_rng(seed)
        a = ScalarField(g, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
        b = ScalarField(g, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
        c = ScalarField(g, b.samples * (0.3 - 0.7j) + a.samples)
        ab = overlap(a, b)
        assert ab == pytest.approx(overlap(b, a).conjugate(), rel=1e-12, abs=1e-12)
        assert overlap(a, c) == pytest.approx(
            (0.3 - 0.7j) * ab + overlap(a, a), rel=1e-10, abs=1e-10
        )


def _shear_x(f, a, cy, pitch):
    fx = np.fft.fftfreq(f.shape[1], d=pitch)
    ph = np.exp(-2j * np.pi * np.outer(cy * a, fx))
    return np.fft.ifft(np.fft.fft(f, axis=1) * ph, axis=1)


def _shear_y(f, b, cx, pitch):
    fy = np.fft.fftfreq(f.shape[0], d=pitch)
    ph = np.exp(-2j * np.pi * np.outer(fy, cx * b))
    return np.fft.ifft(np.fft.fft(f, axis=0) * ph, axis=0)


def half_up(th):
    """th / (pi/2) rounded half up in exact rational arithmetic."""
    return math.floor(Fraction(th) / Fraction(np.pi / 2) + Fraction(1, 2))


def half_even(th):
    """The split before ties were rounded up: np.round, half to even."""
    return int(np.round(th / (np.pi / 2)))


def literal_rotate_modal(f, theta, quarter_turns=half_up):
    """rotate_modal as three full-array shears with np.exp phases built per
    shear: the reference the cached, row-trimmed version must match.
    quarter_turns(th) is the number of quarter turns split off th."""
    th = float(theta) % (2 * np.pi)
    if th == 0.0:
        return f
    k = quarter_turns(th)
    return literal_turn_and_shear(f, k % 4, th - k * (np.pi / 2))


def literal_turn_and_shear(f, k, resid):
    """f turned by k quarter turns, then sheared by resid: three
    full-array shears with np.exp phases built per shear."""
    n = f.grid.n
    pitch = f.grid.pitch
    g = np.rot90(f.samples, -k) if k else f.samples
    if resid != 0.0:
        m = 2 * n
        s = (m - n) // 2
        big = np.zeros((m, m), dtype=np.complex128)
        big[s : s + n, s : s + n] = g
        cb = (np.arange(m) - m / 2 + 0.5) * pitch
        a = -np.tan(resid / 2)
        b = np.sin(resid)
        big = _shear_x(_shear_y(_shear_x(big, a, cb, pitch), b, cb, pitch), a, cb, pitch)
        g = big[s : s + n, s : s + n]
    else:
        g = g.copy()
    return ScalarField(f.grid, g)


PIN_ANGLES = tuple(2 * np.pi * k / 16 for k in range(16)) + (
    0.35, 2.0, 3 * np.pi / 2, -0.7, 1e-9, np.pi / 4, np.pi / 4 + 1e-12,
)
# the rotation scan's angles that are ties, pi/4 mod pi/2
TIE_ANGLES = tuple(2 * np.pi * k / 16 for k in (2, 6, 10, 14))


def _neighbours(x, steps=4):
    """x and the `steps` floats on each side of it."""
    out = [x]
    for way in (np.inf, -np.inf):
        y = x
        for _ in range(steps):
            y = float(np.nextafter(y, way))
            out.append(y)
    return out


class TestExpi:
    def test_equals_complex_exponential(self):
        x = np.concatenate([
            [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, np.pi / 2, 1e22, -1e22, 5e15],
            np.random.default_rng(3).uniform(-1e6, 1e6, 10_000),
            np.linspace(-50.0, 50.0, 10_001),
        ])
        u = expi(x)
        assert u.dtype == np.complex128
        assert np.array_equal(u, np.exp(1j * x))

    # at 34 and 46 the last two blocks overwrite their own rows of the
    # phase; at 32 and 256 only the last one does
    @pytest.mark.parametrize("n", [32, 34, 46, 256])
    def test_from_own_second_half_is_expi_bitwise(self, n):
        x = np.random.default_rng(n).uniform(-40.0, 40.0, (n, n))
        u = np.empty((n, n), complex)
        phase = _halves(u)[1]
        phase[...] = x
        assert np.shares_memory(u, phase) and phase.flags.c_contiguous
        copied = [i for i in range(0, n, _SCRATCH_ROWS)
                  if np.may_share_memory(u[i:i + _SCRATCH_ROWS], phase[i:i + _SCRATCH_ROWS])]
        assert len(copied) == (2 if n in (34, 46) else 1)
        assert _expi_half(u) is u
        assert u.tobytes() == expi(x).tobytes()


class TestQuarterTurns:
    def test_ties_share_the_residual_minus_quarter_pi(self):
        # one bitwise residual for the four ties of a 16-angle scan, one
        # more quarter turn than half-even rounding gave pi/4 and 5 pi/4
        got = [_quarter_turns(t) for t in TIE_ANGLES]
        assert [k for k, _ in got] == [1, 2, 3, 0]
        assert {r for _, r in got} == {-np.pi / 4}
        assert all(np.float64(r).tobytes() == np.float64(-np.pi / 4).tobytes()
                   for _, r in got)

    def test_residual_lies_in_half_open_quarter(self):
        # preset scans of 1-64 angles, every float within 4 ulp of a
        # multiple of pi/4 (floor(x + 1/2) in floats fails one ulp below
        # pi/4), negative angles and a random sample
        angles = [t for n in range(1, 65) for t in (2 * np.pi * np.arange(n) / n).tolist()]
        angles += [t for m in range(-9, 18) for t in _neighbours(m * np.pi / 4)]
        angles += list(PIN_ANGLES)
        angles += np.random.default_rng(4).uniform(-100.0, 100.0, 20_000).tolist()
        for theta in angles:
            k, r = _quarter_turns(theta)
            assert type(k) is int and 0 <= k < 4, theta
            assert -np.pi / 4 <= r < np.pi / 4, theta
            assert k == half_up(float(theta) % (2 * np.pi)) % 4, theta

    def test_only_ties_leave_the_half_even_split(self):
        # on every preset scan of 1-64 angles the split is half-even's,
        # bit for bit, except at a tie
        for n in range(1, 65):
            for theta in (2 * np.pi * np.arange(n) / n).tolist():
                th = theta % (2 * np.pi)
                k = half_even(th)
                old = (k % 4, th - k * (np.pi / 2))
                if abs(old[1]) != np.pi / 4:
                    assert _quarter_turns(theta) == old, (n, theta)


class TestRotateModal:
    # 40, 34, 46: 2n is no multiple of the y shear's 32-column chunk; at
    # 34 and 46 n/2, the padding on each side, is odd
    @pytest.mark.parametrize("n", [32, 34, 40, 46, 64, 128, 256])
    def test_matches_literal_three_shears_bitwise(self, n):
        g = GridSpec(n, 8.0)
        rng = np.random.default_rng(n)
        kinds = {
            "lg": make_lg_mode(1, g).samples,
            "decode": decode_factors(1, g)[1],
            "random": rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
        }
        for kind, samples in kinds.items():
            f = ScalarField(g, samples)
            for theta in PIN_ANGLES:
                got = rotate_modal(f, theta).samples
                want = literal_rotate_modal(f, theta).samples
                assert np.array_equal(got, want), (kind, theta)

    @pytest.mark.parametrize("n", [34, 64])
    @pytest.mark.parametrize("theta", [0.35, 2.0])
    def test_rotate_all_matches_rotate_modal_at_any_worker_count(self, n, theta):
        # a residual with and without a quarter turn, over a stack of three;
        # at 34 the 68 band columns end in a partial y shear chunk
        g = GridSpec(n, 8.0)
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        want = [rotate_modal(ScalarField(g, a), theta).samples.tobytes() for a in stack]
        k, r = _quarter_turns(theta)
        for workers in (1, 2, 3):
            bands = np.empty((3, n, 2 * n), complex)
            centres = _rotate_all(bands, [np.rot90(a, -k) for a in stack], g.pitch, r, workers)
            assert [b[:, n // 2:n // 2 + n].tobytes() for b in bands] == want, workers
            # the returned views of those columns, in order
            assert [c.base is b.base and np.shares_memory(c, b)
                    for c, b in zip(centres, bands)] == [True] * 3
            assert [c.tobytes() for c in centres] == want, workers

    @pytest.mark.parametrize("r", [np.pi / 4, -np.pi / 4, 0.35])
    def test_split_with_no_turn_is_a_pure_shear(self, r):
        # pi/4 is no _quarter_turns residual, yet the rotation scan shears
        # its projections by it, the exact adjoint of the tie residual -pi/4
        g = GridSpec(64, 8.0)
        stack = [*decode_factors(1, g), make_lg_mode(1, g).samples]
        want = [literal_turn_and_shear(ScalarField(g, a), 0, r).samples.tobytes()
                for a in stack]
        for workers in (1, 2, 3):
            bands = np.empty((3, g.n, 2 * g.n), complex)
            _rotate_all(bands, stack, g.pitch, r, workers)
            assert [b[:, g.n // 2:g.n // 2 + g.n].tobytes() for b in bands] == want, workers

    @pytest.mark.parametrize("n", [64, 256])
    def test_ties_stay_close_to_the_half_even_split(self, n):
        # A tie theta is now a quarter turn more and the residual -pi/4, not
        # +pi/4: another three-shear approximation of the same rotation.
        # Measured max |difference|: LG_1 and the decode projection 6.9e-9
        # at 64^2 and 2.0e-9 at 256^2, the smooth random field 5.7e-8 and
        # 2.3e-8; each split is 3.1e-7 (64^2) from LG_1's exact phase.  A
        # white-noise field is no band-limited field: its two splits differ
        # by O(1), so it is pinned by the literal build only.
        g = GridSpec(n, 8.0)
        rng = np.random.default_rng(n)
        noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        f2 = np.add.outer(np.fft.fftfreq(n, d=g.pitch)**2, np.fft.fftfreq(n, d=g.pitch)**2)
        r2 = np.add.outer(g.coords**2, g.coords**2)
        smooth = np.fft.ifft2(np.fft.fft2(noise) * np.exp(-2 * f2)) * np.exp(-r2 / 1.28)
        kinds = {
            "lg": make_lg_mode(1, g).samples,
            "decode": decode_factors(1, g)[1],
            "random": smooth / np.sqrt(np.sum(np.abs(smooth)**2) * g.pitch**2),
        }
        for kind, samples in kinds.items():
            f = ScalarField(g, samples)
            for theta in TIE_ANGLES:
                got = rotate_modal(f, theta).samples
                assert got.tobytes() == literal_rotate_modal(f, theta).samples.tobytes()
                old = literal_rotate_modal(f, theta, half_even).samples
                assert np.max(np.abs(got - old)) < 1e-7, (kind, theta)

    def test_quarter_turn_is_rot90_on_the_calling_thread(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a pure quarter turn started the worker pool")

        monkeypatch.setattr(fields, "parallel_fill", refuse)
        g = GridSpec(34, 8.0)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(34, 34)) + 1j * rng.normal(size=(34, 34))
        f = ScalarField(g, a)
        assert rotate_modal(f, 0.0) is f
        for k in range(1, 4):
            assert _quarter_turns(k * np.pi / 2) == (k, 0.0)
            assert rotate_modal(f, k * np.pi / 2).samples.tobytes() == np.rot90(a, -k).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_quarter_turn_holds_only_its_output(self, k):
        # an np.rot90 copy makes no band or chunk (2.25 outputs more at 256^2)
        f = make_lg_mode(1, GRID)
        rotate_modal(f, k * np.pi / 2)  # warm
        tracemalloc.start()
        try:
            rotate_modal(f, k * np.pi / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * f.samples.nbytes

    def test_shear_phases_shaped_and_read_only(self):
        g = GridSpec(64, 8.0)
        ph_x = _shear_phase(g.n, g.pitch, -np.tan(0.15), g.n // 2)
        ph_y = _shear_phase(g.n, g.pitch, np.sin(0.3), g.n)
        # each stores only the rows below the centre: x the n // 2 of the
        # band, y all n; the rest are their conjugate mirrors
        assert ph_x.shape == (g.n // 2, 2 * g.n)
        assert ph_y.shape == (g.n, 2 * g.n)
        for ph in (ph_x, ph_y):
            assert ph.flags.c_contiguous and not ph.flags.writeable
            with pytest.raises(ValueError):
                ph[0, 0] = 0.0

    @pytest.mark.parametrize("n", [32, 64, 256, 512])
    def test_shear_phase_is_the_full_expi_table_bitwise(self, n):
        # one quadrant plus conjugate mirrors == the literal full-table
        # build, zero signs included: a table keeps the rows of the (c, f)
        # table just below the centre, n // 2 for x and n for y
        m = 2 * n
        for pitch in (8.0 / n, 0.1, 16.0 / 512):
            c = (np.arange(m) - m / 2 + 0.5) * pitch
            f = np.fft.fftfreq(m, d=pitch)
            for coeff in (np.tan(np.pi / 16), -np.tan(np.pi / 16), np.sin(np.pi / 4),
                          -np.sin(np.pi / 4), np.sin(1e-9), -np.tan(0.175), 0.5):
                full = expi(-2 * np.pi * np.outer(c * coeff, f))
                want_x = full[n // 2:n]
                want_y = full[:n]
                assert _shear_phase(n, pitch, coeff, n // 2).tobytes() == want_x.tobytes()
                assert _shear_phase(n, pitch, coeff, n).tobytes() == want_y.tobytes()

    def test_zero_angle_is_identity_object(self):
        f = make_lg_mode(1, GRID)
        assert rotate_modal(f, 0.0) is f
        assert rotate_modal(f, 4 * np.pi) is f

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, theta):
        with pytest.raises(DomainError, match="rotation angle must be finite"):
            rotate_modal(make_lg_mode(1, GRID), theta)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_quarter_turns_are_exact_phases(self, k):
        # pure mode: rotation by theta multiplies by e^{-i l theta}
        f = make_lg_mode(1, GRID)
        rot = rotate_modal(f, k * np.pi / 2)
        expected = np.exp(-1j * k * np.pi / 2) * f.samples
        assert np.max(np.abs(rot.samples - expected)) < 1e-12

    def test_generic_angle_phases_a_pure_mode(self):
        g = GridSpec(192, 12.0)
        for l in (1, 2):
            f = make_lg_mode(l, g)
            rot = rotate_modal(f, 0.7)
            expected = np.exp(-1j * l * 0.7) * f.samples
            assert np.max(np.abs(rot.samples - expected)) < 1e-9

    def test_inverse_rotation_restores(self):
        g = GridSpec(192, 12.0)
        f = ScalarField(
            g, 0.6 * make_lg_mode(1, g).samples + 0.8j * make_lg_mode(-2, g).samples
        )
        back = rotate_modal(rotate_modal(f, 0.9), -0.9)
        assert np.max(np.abs(back.samples - f.samples)) < 1e-9

    def test_power_preserved(self):
        f = make_lg_mode(2, GridSpec(192, 12.0))
        assert rotate_modal(f, 1.1).power() == pytest.approx(1.0, abs=1e-9)


class TestPropagate:
    def test_gaussian_reaches_rayleigh_width(self):
        g = GridSpec(512, 24.0)
        f = make_lg_mode(0, g)
        wavelength = 0.5
        z_r = np.pi / wavelength  # Rayleigh range for unit waist
        out = propagate(f, z_r, wavelength)
        x, y = np.meshgrid(g.coords, g.coords)
        inten = out.samples.real**2 + out.samples.imag**2
        w = math.sqrt(2 * float(np.sum(inten * (x**2 + y**2)) / np.sum(inten)))
        assert w == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_power_conserved(self):
        g = GridSpec(512, 24.0)
        out = propagate(make_lg_mode(1, g), 3.0, 0.5)
        assert out.power() == pytest.approx(1.0, abs=1e-12)

    def test_cached_transfer_function_is_bitwise_literal(self):
        g = GridSpec(64, 6.0)
        f = make_lg_mode(0, g)
        fx, fy = np.meshgrid(g.freqs, g.freqs)
        tf = np.exp(-1j * np.pi * 0.5 * 1.5 * (fx**2 + fy**2))
        expected = np.fft.ifft2(np.fft.fft2(f.samples) * tf)
        for _ in range(2):  # first call fills the cache, the second reads it
            assert np.array_equal(propagate(f, 1.5, 0.5).samples, expected)
        assert not _transfer(g, 1.5, 0.5).flags.writeable

    @pytest.mark.parametrize("n", [32, 34, 46, 64, 256, 300, 512])
    def test_transfer_function_is_bitwise_its_meshgrid_build(self, n):
        # the cache holds rows 0 ... n/2; the literal's rows past n/2 are
        # the stored rows n/2 - 1 ... 1, as _fresnel reads them
        g = GridSpec(n, n / 16)
        fx, fy = np.meshgrid(g.freqs, g.freqs)
        literal = np.exp(-1j * np.pi * 0.01 * 30.0 * (fx**2 + fy**2))
        tf, h = _transfer(g, 30.0, 0.01), n // 2 + 1
        assert tf.shape == (h, n)
        assert tf.tobytes() == literal[:h].tobytes()
        assert tf[h - 2:0:-1].tobytes() == literal[h:].tobytes()

    def test_zero_distance_returns_input(self):
        f = make_lg_mode(0, GRID)
        assert propagate(f, 0.0, 0.5) is f

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(DomainError):
            propagate(make_lg_mode(0, GRID), 1.0, 0.0)
        with pytest.raises(DomainError):
            propagate(make_lg_mode(0, GRID), 1.0, -0.5)

    @pytest.mark.parametrize("distance, wavelength, message", [
        (math.nan, 0.5, "propagation distance must be finite, got nan"),
        (math.inf, 0.5, "propagation distance must be finite, got inf"),
        (-math.inf, 0.5, "propagation distance must be finite, got -inf"),
        (1.0, math.inf, "wavelength must be finite and positive, got inf"),
        (1.0, math.nan, "wavelength must be finite and positive, got nan"),
    ])
    def test_non_finite_distance_or_wavelength_rejected(self, distance, wavelength,
                                                         message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            propagate(make_lg_mode(0, GRID), distance, wavelength)

    def test_overflowing_phase_scale_rejected_before_the_table(self):
        # a call that raises caches nothing, so the second raises too
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^Fresnel phase overflows at "
                                                  r"wavelength=1e\+200, distance=1e\+200$"):
                propagate(make_lg_mode(0, GRID), 1e200, 1e200)

    def test_negative_distance_propagates_back(self):
        f = make_lg_mode(1, GRID)
        back = propagate(propagate(f, 1.5, 0.5), -1.5, 0.5)
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12

    def test_wraparound_guard_trips(self):
        # diffraction spread far beyond the grid half-extent
        with pytest.raises(AliasingError):
            propagate(make_lg_mode(0, GridSpec(64, 6.0)), 60.0, 0.5)


class TestBoundaryEnergyFraction:
    @pytest.mark.parametrize("n", [34, 64])
    def test_scratch_of_any_row_count_leaves_the_same_bytes(self, n):
        # _frame_fraction squares u scratch.shape[1] rows at a time: the
        # operation is elementwise, so every row count gives the bytes of a
        # full-size scratch, which are those of u.real**2 + u.imag**2; so
        # does inten as u's own first half, which overwrites the field
        rng = np.random.default_rng(n)
        u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        full = np.empty((n, n))
        expected = _frame_fraction(u, full, np.empty((2, n, n)))
        assert full.tobytes() == (u.real**2 + u.imag**2).tobytes()
        for rows in (1, 7, 16, 32, n):
            inten = np.empty((n, n))
            assert _frame_fraction(u, inten, np.empty((2, rows, n))) == expected, rows
            assert inten.tobytes() == full.tobytes(), rows
            spent = u.copy()
            inten = _halves(spent)[0]
            assert _frame_fraction(spent, inten, np.empty((2, rows, n))) == expected, rows
            assert inten.tobytes() == full.tobytes(), rows

    def test_uniform_field_frame_fraction(self):
        n = 256
        expected = (n**2 - (n - 4) ** 2) / n**2
        assert intensity_frame_fraction(np.ones((n, n))) == pytest.approx(expected, rel=1e-12)

    def test_contained_mode_is_negligible(self):
        assert intensity_frame_fraction(np.abs(make_lg_mode(1, GRID).samples) ** 2) < 1e-10

    def test_zero_field(self):
        assert intensity_frame_fraction(np.zeros((256, 256))) == 0.0
