"""Grid geometry, LG modes, overlaps, modal rotation, and propagation."""

import math
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
from oamturb import turbulence
from oamturb.elements import decode_factors
from oamturb.fields import (
    _shear_phase,
    _transfer_function,
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
        with pytest.raises(RangeError):
            GridSpec(256.0, 8.0)

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
        _transfer_function(g, 1.5, 0.5)
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
        with pytest.raises(RangeError, match=r"\|l\| <= 8 is required, got l=9"):
            make_lg_mode(9, GRID)
        with pytest.raises(RangeError, match="azimuthal index must be an integer"):
            make_lg_mode(1.0, GRID)
        with pytest.raises(RangeError, match="azimuthal index must be an integer"):
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


def literal_rotate_modal(f, theta):
    """rotate_modal as three full-array shears with np.exp phases built per
    shear: the reference the cached, row-trimmed version must match."""
    n = f.grid.n
    pitch = f.grid.pitch
    th = float(theta) % (2 * np.pi)
    if th == 0.0:
        return f
    k = int(np.round(th / (np.pi / 2)))
    resid = th - k * (np.pi / 2)
    k %= 4
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


class TestRotateModal:
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
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

    def test_shear_phases_cached_and_read_only(self):
        assert _shear_phase.cache_info().maxsize == 2
        g = GridSpec(64, 8.0)
        proj_r, proj_l = decode_factors(1, g)
        _shear_phase.cache_clear()
        rotate_modal(ScalarField(g, proj_r), 0.3)
        assert _shear_phase.cache_info().misses == 2
        # a second field at the same angle builds no phase
        rotate_modal(ScalarField(g, proj_l), 0.3)
        assert _shear_phase.cache_info().misses == 2
        ph_x = _shear_phase(g.n, g.pitch, -np.tan(0.15), 1)
        ph_y = _shear_phase(g.n, g.pitch, np.sin(0.3), 0)
        assert _shear_phase.cache_info().misses == 2
        assert ph_x.shape == (g.n, 2 * g.n) and ph_y.shape == (2 * g.n, 2 * g.n)
        for ph in (ph_x, ph_y):
            assert ph.flags.c_contiguous and not ph.flags.writeable
            with pytest.raises(ValueError):
                ph[0, 0] = 0.0

    @pytest.mark.parametrize("n", [32, 64, 256, 512])
    def test_shear_phase_is_the_full_expi_table_bitwise(self, n):
        # one quadrant plus conjugate mirrors == the literal full-table
        # build, zero signs included: x keeps the n central rows of the
        # (c, f) table, y is its frequency-major transpose
        m = 2 * n
        for pitch in (8.0 / n, 0.1, 16.0 / 512):
            c = (np.arange(m) - m / 2 + 0.5) * pitch
            f = np.fft.fftfreq(m, d=pitch)
            for coeff in (np.tan(np.pi / 16), -np.tan(np.pi / 16), np.sin(np.pi / 4),
                          -np.sin(np.pi / 4), np.sin(1e-9), -np.tan(0.175), 0.5):
                full = expi(-2 * np.pi * np.outer(c * coeff, f))
                want_x = full[n // 2:n // 2 + n]
                want_y = np.ascontiguousarray(full.T)
                assert _shear_phase(n, pitch, coeff, 1).tobytes() == want_x.tobytes()
                assert _shear_phase(n, pitch, coeff, 0).tobytes() == want_y.tobytes()

    def test_zero_angle_is_identity_object(self):
        f = make_lg_mode(1, GRID)
        assert rotate_modal(f, 0.0) is f
        assert rotate_modal(f, 4 * np.pi) is f

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
        assert not _transfer_function(g, 1.5, 0.5).flags.writeable

    @pytest.mark.parametrize("n", [64, 256, 300, 512])
    def test_transfer_function_is_bitwise_its_meshgrid_build(self, n):
        g = GridSpec(n, n / 16)
        fx, fy = np.meshgrid(g.freqs, g.freqs)
        literal = np.exp(-1j * np.pi * 0.01 * 30.0 * (fx**2 + fy**2))
        assert _transfer_function(g, 30.0, 0.01).tobytes() == literal.tobytes()

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
        (1.0, math.inf, "wavelength must be finite, got inf"),
        (1.0, math.nan, "wavelength must be finite, got nan"),
    ])
    def test_non_finite_distance_or_wavelength_rejected(self, distance, wavelength,
                                                         message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            propagate(make_lg_mode(0, GRID), distance, wavelength)

    def test_overflowing_phase_scale_rejected_before_the_table(self):
        built = _transfer_function.cache_info().misses
        with pytest.raises(DomainError, match=r"^pi \* wavelength \* propagation distance "
                                              r"must be finite, got inf$"):
            propagate(make_lg_mode(0, GRID), 1e200, 1e200)
        assert _transfer_function.cache_info().misses == built  # no NaN table

    def test_negative_distance_propagates_back(self):
        f = make_lg_mode(1, GRID)
        back = propagate(propagate(f, 1.5, 0.5), -1.5, 0.5)
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12

    def test_wraparound_guard_trips(self):
        # diffraction spread far beyond the grid half-extent
        with pytest.raises(AliasingError):
            propagate(make_lg_mode(0, GridSpec(64, 6.0)), 60.0, 0.5)


class TestBoundaryEnergyFraction:
    def test_uniform_field_frame_fraction(self):
        n = 256
        expected = (n**2 - (n - 4) ** 2) / n**2
        assert intensity_frame_fraction(np.ones((n, n))) == pytest.approx(expected, rel=1e-12)

    def test_contained_mode_is_negligible(self):
        assert intensity_frame_fraction(np.abs(make_lg_mode(1, GRID).samples) ** 2) < 1e-10

    def test_zero_field(self):
        assert intensity_frame_fraction(np.zeros((256, 256))) == 0.0
