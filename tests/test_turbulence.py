"""Kolmogorov statistics, screen synthesis, and the broadening inverter."""

import ast
import math
import re
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import leggauss

from oamturb import (
    AliasingError,
    Broadening,
    DomainError,
    GridSpec,
    PhaseScreen,
    RangeError,
    ShapeMismatchError,
    StatisticsError,
    TurbulenceParams,
    apply_screen,
    beam_broadening_mc,
    beam_broadening_sweep,
    coherence,
    coherence_estimate,
    fried_from_broadening,
    fried_parameter,
    generate_screen,
    load_screen,
    make_lg_mode,
    overlap,
    save_screen,
    structure_function,
    structure_function_estimate,
)
from oamturb import ScalarField, VectorField
from oamturb import parallel, turbulence
from oamturb.fields import BOUNDARY_ENERGY_LIMIT, intensity_frame_fraction
from oamturb.turbulence import STRUCTURE_COEFF

GRID = GridSpec()
P06 = TurbulenceParams(w_over_r0=0.6)
# the body of a 32^2 screen file, for headers written out literally
OLD_SCREEN_ROWS = (",".join(["0.25", "-0.5"] * 16) + "\n") * 32
P10 = TurbulenceParams(w_over_r0=1.0)


class TestFriedParameter:
    def test_reference_value(self):
        # 795 nm over 1 km of Cn^2 = 1e-14 m^(-2/3)
        assert fried_parameter(795e-9, 1e-14, 1000.0) == pytest.approx(
            0.0352868, rel=1e-5
        )

    def test_wavelength_power_law(self):
        a = fried_parameter(500e-9, 1e-14, 1000.0)
        b = fried_parameter(1000e-9, 1e-14, 1000.0)
        assert b / a == pytest.approx(2 ** 1.2, rel=1e-12)

    @pytest.mark.parametrize("args", [(0, 1e-14, 1e3), (500e-9, 0, 1e3), (500e-9, 1e-14, 0),
                                      (math.inf, 1e-14, 1e3), (500e-9, math.nan, 1e3),
                                      (500e-9, 1e-14, -math.inf)])
    def test_nonpositive_inputs_rejected(self, args):
        with pytest.raises(DomainError):
            fried_parameter(*args)

    @pytest.mark.parametrize("args", [(1e291, 1e-14, 1e3), (800e-9, 1e-300, 1e-300),
                                      (1e-309, 1e300, 1e10)])
    def test_non_finite_or_zero_result_rejected(self, args):
        # overflow, a zero denominator and an underflow to 0.0 in turn
        with pytest.raises(DomainError, match="not finite and positive"):
            fried_parameter(*args)


class TestTurbulenceParams:
    def test_strength_required(self):
        with pytest.raises(TypeError):
            TurbulenceParams()

    @pytest.mark.parametrize("w", [-0.1, float("nan"), float("inf")])
    def test_bad_strength_rejected(self, w):
        with pytest.raises(DomainError):
            TurbulenceParams(w_over_r0=w)

    def test_validated_range_is_held_by_the_params(self):
        assert TurbulenceParams(2.0).w_over_r0 == turbulence.MAX_W_OVER_R0
        with pytest.raises(RangeError, match=r"^w_over_r0 = 2\.5 outside the validated "
                                             r"range \[0, 2\.0\]$"):
            TurbulenceParams(2.5)


class TestTheory:
    def test_coherence_reference_point(self):
        # r w/r0 = 1/2 halves the 6.88 coefficient at opposite ring points
        assert coherence(0.5, np.pi, P10) == pytest.approx(math.exp(-3.44), rel=1e-12)

    def test_coherence_limits(self):
        assert coherence(0.0, np.pi, P10) == 1.0
        assert coherence(0.5, 0.0, P10) == 1.0

    def test_coherence_array_broadcast(self):
        r = np.array([0.2, 0.5, 1.0])
        vals = coherence(r, np.pi, P10)
        assert vals.shape == (3,)
        assert np.all(np.diff(vals) < 0)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            coherence(-0.1, 1.0, P10)

    def test_coherence_matches_literal_exponent_bitwise(self):
        r, dtheta = np.linspace(0, 3, 31)[:, None], np.linspace(-7, 7, 29)
        literal = np.exp(-(STRUCTURE_COEFF * 2 ** (2 / 3) * (r * 0.6) ** (5 / 3)
                           * np.abs(np.sin(dtheta / 2)) ** (5 / 3)))
        assert coherence(r, dtheta, P06).tobytes() == literal.tobytes()

    def test_structure_function_scaling(self):
        d1 = structure_function(0.3, P10)
        d2 = structure_function(0.6, P10)
        assert d2 / d1 == pytest.approx(2 ** (5 / 3), rel=1e-12)
        assert structure_function(1.0, P10) == pytest.approx(6.88, rel=1e-12)

    def test_structure_function_negative_rejected(self):
        with pytest.raises(DomainError):
            structure_function(-1.0, P10)

    def test_bessel_moment_matches_scipy_gamma_bitwise(self):
        # the module writes the two gamma values as literals; every screen
        # scales with PSD_COEFF, so this must hold bit for bit
        from scipy.special import gamma

        expected = 2 ** (-8 / 3) * (6 / 5) * gamma(1 / 6) / gamma(11 / 6)
        assert turbulence._BESSEL_MOMENT == expected
        assert turbulence.PSD_COEFF == turbulence.STRUCTURE_COEFF / (
            4 * np.pi * (2 * np.pi) ** (5 / 3) * expected)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        st.floats(0.0, 2.0), st.floats(0.0, 10.0), st.floats(0.05, 2.0)
    )
    def test_coherence_bounded(self, r, dtheta, w):
        val = coherence(r, dtheta, TurbulenceParams(w_over_r0=w))
        assert 0.0 < val <= 1.0


def full_amp_fft(tab):
    """The n-row amp_fft whose rows 0 ... n/2 the tables store: rows past
    n/2 are the stored rows n/2 - 1 ... 1."""
    return np.concatenate([tab.amp_fft, tab.amp_fft[-2:0:-1]])


def literal_unit_screen(grid, ss):
    """_unit_screen with two fresh normal arrays, a complex sum, the full
    amp_fft and an allocating ifft2: the reference the in-place synthesis
    must match."""
    n = grid.n
    tab = turbulence._tables(grid)
    rng = np.random.Generator(np.random.Philox(ss))
    zr = rng.standard_normal((n, n))
    zi = rng.standard_normal((n, n))
    zsh = rng.standard_normal((2, tab.amp_sh.size))
    ztilt = rng.standard_normal(2)
    scr = np.fft.ifft2((zr + 1j * zi) * full_amp_fft(tab)).real * (n * n)
    ck = (zsh[0] + 1j * zsh[1]) * tab.amp_sh
    coarse = ((tab.ey_nodes * ck) @ tab.ex_nodes).real
    coarse += tab.tilt_sigma * (
        ztilt[0] * tab.nodes[None, :] + ztilt[1] * tab.nodes[:, None]
    )
    scr += tab.upsample @ coarse @ tab.upsample.T
    return scr


def literal_amp_fft(grid):
    """The full n-row amp_fft, built over np.meshgrid coordinate meshes."""
    dfreq = 1.0 / grid.extent
    fx, fy = np.meshgrid(grid.freqs, grid.freqs)
    fsq = fx**2 + fy**2
    point = np.zeros_like(fsq)
    point[fsq > 0] = fsq[fsq > 0] ** (-11 / 6) * dfreq**2
    point[(np.abs(np.rint(fx / dfreq)) <= 1) & (np.abs(np.rint(fy / dfreq)) <= 1)] = 0.0
    return np.sqrt(turbulence.PSD_COEFF * point)


def literal_tables(grid):
    """_SynthesisTables' arrays built over np.meshgrid coordinate meshes:
    the reference for its broadcast build, of which amp_fft keeps rows
    0 ... n/2 (full_amp_fft)."""
    dfreq = 1.0 / grid.extent
    tab = {"amp_fft": literal_amp_fft(grid)[:grid.n // 2 + 1]}
    gl_x, gl_w = leggauss(16)
    cells = []
    half = 3 * turbulence._CELL_SPLIT // 2
    for level in range(1, turbulence.SUBHARMONIC_LEVELS + 1):
        s = dfreq / 3 ** (level - 1)
        cs = s / turbulence._CELL_SPLIT
        for i in range(-half, half):
            for j in range(-half, half):
                cx, cy = (i + 0.5) * cs, (j + 0.5) * cs
                if max(abs(cx), abs(cy)) < 0.5 * s * (1 - 1e-12):
                    continue
                ax, ay = np.meshgrid(cx + 0.5 * cs * gl_x, cy + 0.5 * cs * gl_x)
                pw = np.outer(0.5 * cs * gl_w, 0.5 * cs * gl_w) * (ax**2 + ay**2) ** (-11 / 6)
                cells.append(((pw * ax).sum() / pw.sum(), (pw * ay).sum() / pw.sum(),
                              pw.sum()))
    tab["sh_fx"], tab["sh_fy"], power = map(np.array, zip(*cells))
    tab["amp_sh"] = np.sqrt(turbulence.PSD_COEFF * power)
    h = 0.5 * dfreq / 3 ** (turbulence.SUBHARMONIC_LEVELS - 1)
    tq_x, tq_w = leggauss(64)
    radial = 3.0 * (h / np.cos(0.5 * (tq_x + 1) * (np.pi / 4))) ** (1 / 3)
    tilt_var = (2 * np.pi) ** 2 * 4.0 * float(np.sum(0.5 * (np.pi / 4) * tq_w * radial))
    tab["tilt_sigma"] = np.sqrt(turbulence.PSD_COEFF * tilt_var)
    m = turbulence._CHEB_ORDER
    tnodes = np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
    tab["nodes"] = tnodes * (grid.extent / 2)
    tab["upsample"] = chebvander(grid.coords / (grid.extent / 2), m - 1) @ np.linalg.inv(
        chebvander(tnodes, m - 1))
    tab["ey_nodes"] = np.exp(2j * np.pi * np.outer(tab["nodes"], tab["sh_fy"]))
    tab["ex_nodes"] = np.exp(2j * np.pi * np.outer(tab["sh_fx"], tab["nodes"]))
    return tab


def unit_screen(grid, ss):
    """_unit_screen into fresh arrays; checks that it returns its out array."""
    out = np.empty((grid.n, grid.n))
    got = turbulence._unit_screen(grid, ss, out, np.empty((grid.n, grid.n), complex),
                                  np.empty((grid.n, grid.n)))
    assert got is out
    return got


class TestGenerateScreen:
    def test_integer_seed_is_reproducible(self):
        a = generate_screen(P06, GRID, 7)
        b = generate_screen(P06, GRID, 7)
        assert np.array_equal(a.phase, b.phase)
        assert a.seed == 7

    def test_seed_sequence_is_reproducible(self):
        key = [2, 0, 5]
        a = generate_screen(P06, GRID, np.random.SeedSequence(entropy=key))
        b = generate_screen(P06, GRID, np.random.SeedSequence(entropy=key))
        assert np.array_equal(a.phase, b.phase)

    def test_distinct_seeds_differ(self):
        a = generate_screen(P06, GRID, 7)
        b = generate_screen(P06, GRID, 8)
        assert np.max(np.abs(a.phase - b.phase)) > 0.1

    def test_piston_removed(self):
        s = generate_screen(P10, GRID, 3)
        assert abs(s.phase.mean()) < 1e-12

    def test_strength_scaling_is_exact(self):
        # same seed, doubled strength: phase scales by 2^(5/6)
        a = generate_screen(P06, GRID, 5)
        b = generate_screen(TurbulenceParams(w_over_r0=1.2), GRID, 5)
        assert np.max(np.abs(b.phase - a.phase * 2 ** (5 / 6))) < 1e-12

    def test_zero_strength_is_flat(self):
        s = generate_screen(TurbulenceParams(w_over_r0=0.0), GRID, 1)
        assert np.all(s.phase == 0.0)

    def test_range_guards(self):
        with pytest.raises(RangeError):
            generate_screen(TurbulenceParams(w_over_r0=2.5), GRID, 1)
        with pytest.raises(RangeError):
            generate_screen(P06, GRID, -1)

    def test_screen_is_scaled_unit_screen(self):
        key = [4, 1]
        unit = unit_screen(GRID, np.random.SeedSequence(entropy=key))
        for w in (0.05, 0.3, 1.0, 1.7, 2.0):
            params = TurbulenceParams(w_over_r0=w)
            screen = generate_screen(params, GRID, np.random.SeedSequence(entropy=key))
            expected = unit * w ** (5 / 6)
            expected -= expected.mean()
            assert np.array_equal(screen.phase, expected)

    @pytest.mark.parametrize("grid,keys", [
        (GridSpec(32, 6.0), 4), (GridSpec(64, 8.0), 4), (GRID, 4),
        (GridSpec(512, 16.0), 2),
    ])
    def test_unit_screen_matches_literal_synthesis(self, grid, keys):
        for i in range(keys):
            key = [11, grid.n, i]
            got = unit_screen(grid, np.random.SeedSequence(entropy=key))
            want = literal_unit_screen(grid, np.random.SeedSequence(entropy=key))
            assert np.array_equal(got, want), i

    @pytest.mark.parametrize("n", [64, 256, 300, 512])
    def test_synthesis_tables_are_bitwise_their_meshgrid_build(self, n):
        grid = GridSpec(n, n / 32)
        got = vars(turbulence._tables(grid))
        want = literal_tables(grid)
        assert sorted(got) == sorted(want)
        for name, table in got.items():
            assert np.asarray(table).tobytes() == np.asarray(want[name]).tobytes(), name

    @pytest.mark.parametrize("n", [32, 34, 64, 256, 512])
    def test_amp_fft_rows_past_half_mirror_the_stored_rows(self, n):
        # the full meshgrid table's row n - k is its row k byte for byte,
        # which is why the tables keep rows 0 ... n/2 only
        grid = GridSpec(n, n / 32)
        full = literal_amp_fft(grid)
        for k in range(1, n // 2):
            assert full[n - k].tobytes() == full[k].tobytes(), k
        tab = turbulence._tables(grid)
        assert tab.amp_fft.shape == (n // 2 + 1, n)
        assert full_amp_fft(tab).tobytes() == full.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extent", [1e-300, 1e-150, 1e-100, 1e100, 1e150])
    def test_extreme_extent_rejected(self, extent):
        # the frequencies over- or underflow: no OverflowError, no warning,
        # no non-finite screen
        grid = GridSpec(32, extent)
        with pytest.raises(DomainError, match="non-finite screen synthesis tables"):
            generate_screen(P10, grid, 0)
        with pytest.raises(DomainError):
            beam_broadening_sweep([P06], 100, 30.0, 0.01, 1, grid, n_workers=1)

    def test_phase_read_only(self):
        s = generate_screen(P06, GRID, 1)
        with pytest.raises(ValueError):
            s.phase[0, 0] = 1.0

    def test_phase_factor_is_complex_exponential(self):
        # 3 strengths x 17 keys = 51 screens
        grid = GridSpec(128, 8.0)
        for w in (0.3, 1.4, 1.99):
            params = TurbulenceParams(w_over_r0=w)
            for i in range(17):
                s = generate_screen(params, grid, np.random.SeedSequence(entropy=[6, i]))
                u = s.phase_factor
                assert np.array_equal(u, np.exp(1j * s.phase)), (w, i)
                assert u is s.phase_factor
                assert not u.flags.writeable


def literal_coherence(screens, sep):
    """coherence_estimate's (mean, stderr) at one separation, from one cos
    of the two phase-difference arrays per screen."""
    lag = round(sep / screens[0].grid.pitch)
    vals = np.empty(len(screens))
    for i, s in enumerate(screens):
        ph = s.phase
        dx = ph[:, lag:] - ph[:, :-lag]
        dy = ph[lag:, :] - ph[:-lag, :]
        vals[i] = 0.5 * (np.mean(np.cos(dx)) + np.mean(np.cos(dy)))
    return vals.mean(), vals.std(ddof=1) / np.sqrt(len(vals))


def literal_structure_function(screens, separations):
    """structure_function_estimate as a loop over screens per separation."""
    out = {}
    for sep in separations:
        lag = round(sep / screens[0].grid.pitch)
        vals = np.empty(len(screens))
        for i, s in enumerate(screens):
            ph = s.phase
            dx = ph[:, lag:] - ph[:, :-lag]
            dy = ph[lag:, :] - ph[:-lag, :]
            vals[i] = 0.5 * (np.mean(dx**2) + np.mean(dy**2))
        out[sep] = (float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals))))
    return out


def literal_product_coherence(screens, separations):
    """coherence_estimate as its own loop over screens, one cos and one sin
    per screen and cos(phi' - phi) = c'c + s's."""
    lags = [round(sep / screens[0].grid.pitch) for sep in separations]
    vals = np.empty((len(lags), len(screens)))
    for i, s in enumerate(screens):
        c, sn = np.cos(s.phase), np.sin(s.phase)
        for j, lag in enumerate(lags):
            dx = c[:, lag:] * c[:, :-lag] + sn[:, lag:] * sn[:, :-lag]
            dy = c[lag:, :] * c[:-lag, :] + sn[lag:, :] * sn[:-lag, :]
            vals[j, i] = 0.5 * (np.mean(dx) + np.mean(dy))
    return {sep: (float(v.mean()), float(v.std(ddof=1) / np.sqrt(len(v))))
            for sep, v in zip(separations, vals)}


def unfillable(values):
    """A _screen_statistics fill that fails if it is ever called."""
    raise AssertionError("a screen was filled")


class WatchedScreen:
    """A screen's grid, params and phase; each read of the phase is logged."""

    def __init__(self, screen, reads):
        self.grid, self.params, self._screen, self._reads = (
            screen.grid, screen.params, screen, reads)

    @property
    def phase(self):
        self._reads.append(self._screen.seed)
        return self._screen.phase


@pytest.fixture(scope="module")
def screens_200():
    return [
        generate_screen(P10, GRID, np.random.SeedSequence(entropy=[11, i]))
        for i in range(200)
    ]


@pytest.fixture(scope="module")
def screens_64():
    return [generate_screen(P10, GridSpec(64, 8.0), np.random.SeedSequence(entropy=[9, i]))
            for i in range(300)]


def literal_loop_phases(params, n_real, key, grid):
    """The phase of every cell _screen_loop steps, by generate_screen per cell."""
    return {(j, i): generate_screen(p, grid, turbulence.screen_key(*key(j, i))).phase
            for j, p in enumerate(params)
            for i in range(1 if p.w_over_r0 == 0.0 else n_real)}


def looped_phases(params, n_real, key, grid, n_workers, vandal=False):
    """The phase each step of _screen_loop sees, by cell.  A vandal step
    fills phase, u and two work arrays with NaN once it has copied phase."""
    got = {}

    def step(j, i, phase, u, *work):
        got[j, i] = phase.copy()
        if vandal:
            for array in (phase, u, *work):
                array.fill(np.nan)

    turbulence._screen_loop(params, n_real, key, grid, n_workers, step,
                            lambda: (np.empty((grid.n, grid.n)), np.empty(3, complex)))
    return got


class TestScreenLoop:
    GRID = GridSpec(32, 6.0)
    PARAMS = [TurbulenceParams(w_over_r0=w) for w in (0.3, 0.0, 1.2, 0.3)]

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("shared, draws", [(False, 3 * 5), (True, 5)],
                             ids=["per-strength-keys", "shared-key"])
    def test_matches_literal_generate_screen_loop(self, monkeypatch, n_workers, shared,
                                                  draws):
        key = (lambda j, i: (5, i)) if shared else (lambda j, i: (5, j, i))
        want = literal_loop_phases(self.PARAMS, 5, key, self.GRID)
        drawn = []

        def counted(*args, _fn=turbulence._unit_screen):
            drawn.append(tuple(args[1].entropy))
            return _fn(*args)

        monkeypatch.setattr(turbulence, "_unit_screen", counted)
        got = looped_phases(self.PARAMS, 5, key, self.GRID, n_workers)
        assert sorted(got) == sorted(want)  # the zero strength at realization 0 only
        for cell, phase in want.items():
            assert got[cell].tobytes() == phase.tobytes(), cell
        # one unit screen per run of equal keys, none at zero strength
        assert len(drawn) == draws
        assert sorted(drawn) == sorted({key(j, i) for j, i in want if j != 1})

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("shared", [False, True], ids=["per-strength-keys", "shared-key"])
    def test_a_step_may_overwrite_every_array_it_is_handed(self, n_workers, shared):
        # with a shared key the next strength rescales the same unit screen,
        # which a step therefore must not be handed
        key = (lambda j, i: (5, i)) if shared else (lambda j, i: (5, j, i))
        want = literal_loop_phases(self.PARAMS, 5, key, self.GRID)
        got = looped_phases(self.PARAMS, 5, key, self.GRID, n_workers, vandal=True)
        assert sorted(got) == sorted(want)
        for cell, phase in want.items():
            assert got[cell].tobytes() == phase.tobytes(), cell


def source_callers(name):
    """Every "module.function" in the package whose body calls `name`; a call
    outside any function or method is listed under "module.<top>"."""
    callers = set()
    for path in sorted(Path(turbulence.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in defs:
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and name in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        callers.add(f"{path.stem}.{getattr(fn, 'name', '<top>')}")
    return callers


def test_one_function_besides_generate_screen_draws_unit_screens():
    # every engine draws its screens through the one screen loop
    callers = source_callers("_unit_screen")
    callers.discard("turbulence.generate_screen")
    assert len(callers) == 1, callers


def test_only_the_guard_constructs_aliasing_errors():
    # every wrap-around failure is decided by one threshold and worded once
    assert source_callers("AliasingError") == {"fields._guard"}


class TestEnsembleStatistics:
    def test_structure_function_matches_theory(self, screens_200):
        r0 = 1.0  # waist units at w/r0 = 1
        sep = round(r0 / GRID.pitch) * GRID.pitch
        est = structure_function_estimate(screens_200, [sep, 2 * sep])
        for s in (sep, 2 * sep):
            mean, stderr = est[s]
            assert mean == pytest.approx(structure_function(s, P10), rel=0.15)
            assert 0 < stderr < mean

    def test_structure_function_growth_rate(self, screens_200):
        sep = round(1.0 / GRID.pitch) * GRID.pitch
        est = structure_function_estimate(screens_200, [sep, 2 * sep])
        ratio = est[2 * sep][0] / est[sep][0]
        assert ratio == pytest.approx(2 ** (5 / 3), rel=0.15)

    def test_coherence_matches_theory(self, screens_200):
        sep = round(1.0 / GRID.pitch) * GRID.pitch
        mean, stderr = coherence_estimate(screens_200, [sep])[sep]
        theory = math.exp(-structure_function(sep, P10) / 2)
        assert abs(mean - theory) <= 4 * stderr

    def test_coherence_matches_literal_cosine_loop(self, screens_200):
        seps = [lag * GRID.pitch for lag in (1, 8, 32, 100)]
        est = coherence_estimate(screens_200, seps)
        for sep in seps:
            ref = literal_coherence(screens_200, sep)
            np.testing.assert_allclose(est[sep], ref, rtol=0, atol=1e-12)

    def test_too_few_screens_rejected(self, screens_200):
        with pytest.raises(StatisticsError):
            structure_function_estimate(screens_200[:50], [0.5])

    def test_estimators_equal_literal_loops(self, screens_200):
        seps = [lag * GRID.pitch for lag in (1, 5, 8, 32, 100, 255)]
        assert structure_function_estimate(screens_200, seps) == (
            literal_structure_function(screens_200, seps))
        assert coherence_estimate(screens_200, seps) == (
            literal_product_coherence(screens_200, seps))

    def test_one_pass_gives_both_estimators(self, screens_200):
        d_seps = [lag * GRID.pitch for lag in (2, 16, 64)]
        c_seps = [lag * GRID.pitch for lag in (4, 16)]

        def fill(values):
            for i, s in enumerate(screens_200):
                values(i, s.phase, np.empty(s.phase.shape, complex))

        d, c = turbulence._screen_statistics(200, GRID, d_seps, c_seps, fill)
        assert d == literal_structure_function(screens_200, d_seps)
        assert c == literal_product_coherence(screens_200, c_seps)

    @pytest.mark.parametrize("n_screens, separations, coherence_separations, error", [
        (99, [0.5], [], StatisticsError),
        (0, [], [0.5], StatisticsError),
        (100, [0.5, 0.0], [], DomainError),
        (100, [0.5], [GRID.extent], DomainError),
    ])
    def test_checks_run_before_a_screen_is_pulled(
        self, n_screens, separations, coherence_separations, error
    ):
        with pytest.raises(error):
            turbulence._screen_statistics(n_screens, GRID, separations,
                                          coherence_separations, unfillable)

    @pytest.mark.parametrize("odd", [
        PhaseScreen(GridSpec(128, 8.0), np.zeros((128, 128)), 0, P10),
        PhaseScreen(GRID, np.zeros((GRID.n, GRID.n)), 0, P06),
    ], ids=["grid", "params"])
    def test_mixed_ensemble_rejected(self, screens_200, odd):
        mixed = screens_200[:150] + [odd] + screens_200[151:]
        sep = 8 * GRID.pitch
        with pytest.raises(ShapeMismatchError):
            structure_function_estimate(mixed, [sep])
        with pytest.raises(ShapeMismatchError):
            coherence_estimate(mixed, [sep])

    @pytest.mark.parametrize("estimator", [structure_function_estimate, coherence_estimate])
    def test_mixed_list_rejected_before_a_phase_is_read(self, screens_200, estimator):
        odd = PhaseScreen(GRID, np.zeros((GRID.n, GRID.n)), 0, P06)
        reads = []
        clean = [WatchedScreen(s, reads) for s in screens_200]
        assert estimator(clean, [8 * GRID.pitch]) == estimator(screens_200, [8 * GRID.pitch])
        assert len(reads) == 200  # the logging itself works: each phase read once
        reads.clear()
        with pytest.raises(ShapeMismatchError):
            estimator(clean[:199] + [WatchedScreen(odd, reads)], [8 * GRID.pitch])
        assert reads == []

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_estimators_bitwise_at_any_worker_count(self, monkeypatch, screens_200,
                                                    n_workers):
        asked = []
        monkeypatch.setattr(parallel, "resolve_workers",
                            lambda n: asked.append(n) or n_workers)
        screens, seps = screens_200[:100], [lag * GRID.pitch for lag in (1, 32, 255)]
        assert structure_function_estimate(screens, seps) == (
            literal_structure_function(screens, seps))
        assert coherence_estimate(screens, seps) == literal_product_coherence(screens, seps)
        assert asked == [0, 0]  # each estimator asked the pool for every usable core

    @pytest.mark.parametrize("n_screens", [100, 300])
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("estimator", [structure_function_estimate, coherence_estimate])
    def test_working_set_is_a_few_screens_per_worker(self, monkeypatch, screens_64,
                                                     estimator, n_workers, n_screens):
        # per worker: the cos and sin scratch arrays, a lag's two difference
        # arrays and numpy's fixed 64 KiB ufunc buffers (2 screen sizes at
        # 64^2): 6.9-7.1 measured at 1-3 workers, so 9 leaves a margin.  The
        # result columns, one float per screen and lag, are taken off, and
        # the list is not copied, so the bound holds at any list length.
        monkeypatch.setattr(parallel, "resolve_workers", lambda n: n_workers)
        screens, grid = screens_64[:n_screens], screens_64[0].grid
        seps = [lag * grid.pitch for lag in (1, 4, 16, 63)]
        estimator(screens, seps)  # warm
        tracemalloc.start()
        try:
            estimator(screens, seps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = len(seps) * n_screens * np.dtype(float).itemsize
        assert peak - columns < 9 * n_workers * grid.n**2 * np.dtype(float).itemsize


class TestApplyScreen:
    def test_scalar_modulus_unchanged(self):
        f = make_lg_mode(1, GRID)
        s = generate_screen(P06, GRID, 9)
        out = apply_screen(f, s)
        assert np.max(np.abs(np.abs(out.samples) - np.abs(f.samples))) < 1e-14
        np.testing.assert_allclose(
            out.samples, f.samples * np.exp(1j * s.phase), atol=1e-14
        )

    def test_vector_components_share_the_screen(self):
        v = VectorField(make_lg_mode(1, GRID), make_lg_mode(-1, GRID))
        s = generate_screen(P06, GRID, 9)
        out = apply_screen(v, s)
        np.testing.assert_allclose(
            out.right.samples, v.right.samples * s.phase_factor, atol=1e-14
        )
        np.testing.assert_allclose(
            out.left.samples, v.left.samples * s.phase_factor, atol=1e-14
        )

    def test_mirror_mode_overlaps_coincide(self):
        # real screen phase: <l|psi_l> equals <-l|psi_{-l}> identically
        s = generate_screen(P06, GRID, 21)
        lg_p, lg_m = make_lg_mode(1, GRID), make_lg_mode(-1, GRID)
        a = overlap(lg_p, apply_screen(lg_p, s))
        b = overlap(lg_m, apply_screen(lg_m, s))
        assert a == pytest.approx(b, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        s = generate_screen(P06, GridSpec(64, 6.0), 1)
        with pytest.raises(ShapeMismatchError):
            apply_screen(make_lg_mode(1, GRID), s)


class TestScreenIo:
    def test_round_trip_is_bitwise(self, tmp_path):
        s = generate_screen(P06, GridSpec(64, 6.0), 17)
        path = tmp_path / "screen.csv"
        save_screen(s, path)
        back = load_screen(path)
        assert np.array_equal(back.phase, s.phase)
        assert back.grid == s.grid
        assert back.seed == s.seed
        assert back.params.w_over_r0 == s.params.w_over_r0

    def test_header_line(self, tmp_path):
        s = generate_screen(P06, GridSpec(64, 6.0), 17)
        path = tmp_path / "screen.csv"
        save_screen(s, path)
        header = path.read_text().splitlines()[0]
        assert header == "# n=64 extent=6.0 seed=17 w_over_r0=0.6"

    def test_header_with_kolmogorov_outer_scale_loads(self, tmp_path):
        # the header an older save_screen wrote, with its outer_scale=None
        path = tmp_path / "old.csv"
        path.write_text("# n=32 extent=6.0 seed=5 w_over_r0=0.6 wavelength_m=None "
                        "cn2=None path_m=None waist_m=None outer_scale=None\n"
                        + OLD_SCREEN_ROWS)
        back = load_screen(path)
        assert back.params == P06
        assert (back.grid, back.seed) == (GridSpec(32, 6.0), 5)
        assert back.phase[31, :2].tolist() == [0.25, -0.5]

    def test_older_header_physical_values_skipped(self, tmp_path):
        # the header's w_over_r0 holds the strength; the physical values
        # an older TurbulenceParams carried are read past, even inconsistent ones
        path = tmp_path / "old.csv"
        path.write_text("# n=32 extent=6.0 seed=5 w_over_r0=0.6 wavelength_m=7.95e-07 "
                        "cn2=1e-14 path_m=1000.0 waist_m=0.5 outer_scale=None\n"
                        + OLD_SCREEN_ROWS)
        assert load_screen(path).params == P06

    @pytest.mark.parametrize("value", ["5.0", "inf", "0.0"])
    def test_header_with_numeric_outer_scale_rejected(self, tmp_path, value):
        path = tmp_path / "karman.csv"
        path.write_text("# n=32 extent=6.0 seed=5 w_over_r0=0.6 wavelength_m=None "
                        f"cn2=None path_m=None waist_m=None outer_scale={value}\n"
                        + OLD_SCREEN_ROWS)
        with pytest.raises(DomainError, match=rf"von Karman screen \(outer_scale={value}\)"):
            load_screen(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.0\n0.0,0.0\n")
        with pytest.raises(DomainError):
            load_screen(path)

    @pytest.mark.parametrize("params", [TurbulenceParams(w_over_r0=0.6)])
    def test_round_trip_keeps_every_parameter(self, tmp_path, params):
        s = generate_screen(params, GridSpec(64, 6.0), 3)
        path = tmp_path / "screen.csv"
        save_screen(s, path)
        back = load_screen(path)
        assert back.params == s.params
        assert np.array_equal(back.phase, s.phase)

    @settings(max_examples=100, deadline=None)
    @given(
        phase=arrays(np.float64, (32, 32),
                     elements=st.floats(allow_nan=False, allow_infinity=False)),
        extent=st.floats(0.1, 100.0),
        seed=st.integers(min_value=0),
        w_over_r0=st.floats(0.0, turbulence.MAX_W_OVER_R0),
    )
    def test_round_trip_property(self, phase, extent, seed, w_over_r0):
        params = TurbulenceParams(w_over_r0=w_over_r0)
        s = PhaseScreen(GridSpec(32, extent), phase, seed, params)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "screen.csv"
            save_screen(s, path)
            back = load_screen(path)
        assert np.array_equal(back.phase, s.phase)
        assert back.grid == s.grid
        assert back.seed == seed
        assert back.params == params

    def test_strength_at_the_range_edge(self, tmp_path):
        path = tmp_path / "screen.csv"
        path.write_text("# n=32 extent=6.0 seed=5 w_over_r0=2.5\n" + OLD_SCREEN_ROWS)
        with pytest.raises(DomainError):
            load_screen(path)
        s = PhaseScreen(GridSpec(32, 6.0), np.zeros((32, 32)), 5, TurbulenceParams(2.0))
        save_screen(s, path)
        assert load_screen(path).params == s.params

    @pytest.mark.parametrize("value, reason", [
        ("outer_scale=5.0", "von Karman screen (outer_scale=5.0)"),
        ("n=2", "grid size must be even and >= 32, got 2"),
        ("w_over_r0=2.5", "w_over_r0 = 2.5 outside the validated range [0, 2.0]"),
    ])
    def test_rejected_header_value_names_its_reason_once(self, tmp_path, value, reason):
        meta = dict(item.split("=") for item in ["n=32", "extent=6.0", "seed=5",
                                                  "w_over_r0=0.6", value])
        path = tmp_path / "screen.csv"
        path.write_text("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"
                        + OLD_SCREEN_ROWS)
        with pytest.raises(DomainError) as info:
            load_screen(path)
        assert type(info.value) is DomainError
        assert str(info.value) == f"{path}: {reason}"

    @pytest.mark.parametrize("header", [
        "# n=64 extent=6.0 seed=1 w_over_r0=abc\n",
        "# n=64 extent=6.0 w_over_r0=0.6\n",
        "# n=64 extent=6.0 seed=1 w_over_r0=0.6 stray\n",
        "# n=64 extent=6.0 seed=1 w_over_r0=-1.0\n",
        "# n=64 extent=6.0 seed=1 w_over_r0=None\n",
        "# n=64 extent=6.0 seed=1 wavelength_m=7.95e-07 cn2=1e-14 path_m=1000.0 "
        "waist_m=0.0353\n",
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + "0.0,0.0\n")
        with pytest.raises(DomainError):
            load_screen(path)

    @pytest.mark.parametrize("damage", ["ragged row", "missing row", "header only"])
    def test_malformed_body_rejected(self, tmp_path, damage):
        path = tmp_path / "screen.csv"
        save_screen(generate_screen(P06, GridSpec(32, 6.0), 5), path)
        header, *rows = path.read_text().splitlines(keepends=True)
        if damage == "ragged row":
            rows[7] = rows[7].split(",", 1)[1]
        else:
            rows = rows[1:] if damage == "missing row" else []
        path.write_text(header + "".join(rows))
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: malformed"):
            load_screen(path)


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_phase_rejected(self, tmp_path, value):
        path = tmp_path / "screen.csv"
        save_screen(generate_screen(P06, GridSpec(32, 6.0), 5), path)
        header, *rows = path.read_text().splitlines(keepends=True)
        rows[7] = value + "," + rows[7].split(",", 1)[1]
        path.write_text(header + "".join(rows))
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: malformed screen "
                                              "file: .*not finite"):
            load_screen(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "screen.csv"
        path.write_text("# n=32 extent=6.0 seed=-1 w_over_r0=0.6\n" + OLD_SCREEN_ROWS)
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: malformed screen "
                                              "file: .*negative seed -1"):
            load_screen(path)


class TestBroadeningInverter:
    def test_exact_anchor(self):
        assert abs(fried_from_broadening(math.sqrt(10.0), 1.0) - 1.0) <= 1e-15

    def test_no_broadening_means_no_turbulence(self):
        assert fried_from_broadening(1.0, 1.0) == 0.0

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            fried_from_broadening(0.9, 1.0)
        with pytest.raises(DomainError):
            fried_from_broadening(1.0, 0.0)
        with pytest.raises(DomainError):
            fried_from_broadening(float("nan"), 1.0)

    @pytest.mark.parametrize("w_t, w", [(math.inf, 1.0), (math.inf, math.inf),
                                        (math.nan, 1.0), (2.0, math.inf)])
    def test_non_finite_widths_rejected(self, w_t, w):
        with pytest.raises(DomainError, match=f"^widths must be finite, got w_t={w_t}, w={w}$"):
            fried_from_broadening(w_t, w)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.1, 10.0))
    def test_inverts_the_growth_model(self, strength, w):
        w_t = w * math.sqrt(1 + 9 * strength**2)
        assert fried_from_broadening(w_t, w) == pytest.approx(strength, abs=1e-7)

    def test_monte_carlo_needs_enough_realizations(self):
        with pytest.raises(StatisticsError):
            beam_broadening_mc(P06, 10, 30.0, 0.01, 1)


SMALL = GridSpec(64, 16.0)


def frame_fraction(f):
    """The share of f's power in the grid's outer 2-pixel frame."""
    return intensity_frame_fraction(f.samples.real**2 + f.samples.imag**2)


def literal_propagate(f, distance, wavelength):
    """propagate as an allocating step: both guards and fft2, * tf, ifft2,
    each into a fresh array, tf the full meshgrid transfer function; the
    reference for the in-place Fresnel step."""
    if frame_fraction(f) >= BOUNDARY_ENERGY_LIMIT:
        raise AliasingError("input field reaches the grid boundary")
    if distance == 0.0:
        return f
    fx, fy = np.meshgrid(f.grid.freqs, f.grid.freqs)
    tf = np.exp(-1j * np.pi * wavelength * distance * (fx**2 + fy**2))
    out = ScalarField(f.grid, np.fft.ifft2(np.fft.fft2(f.samples) * tf))
    if frame_fraction(out) >= BOUNDARY_ENERGY_LIMIT:
        raise AliasingError("propagated field reaches the grid boundary")
    return out


def literal_broadening(params, n, distance, wavelength, seed, grid):
    """The per-strength loop beam_broadening_sweep replaces: a fresh screen,
    apply, an allocating propagation and moment for every realization.
    Returns (w_t, stderr, largest frame_fraction) or raises
    AliasingError."""
    gauss = make_lg_mode(0, grid)
    x, y = np.meshgrid(grid.coords, grid.coords)
    r2 = x**2 + y**2
    moments = np.empty(n)
    frame = 0.0
    for i in range(n):
        scr = generate_screen(params, grid, np.random.SeedSequence(entropy=[seed, i]))
        out = literal_propagate(apply_screen(gauss, scr), distance, wavelength)
        inten = out.samples.real**2 + out.samples.imag**2
        moments[i] = float(np.sum(inten * r2) / np.sum(inten))
        frame = max(frame, frame_fraction(out))
    w_t = math.sqrt(2 * moments.mean())
    return w_t, float(moments.std(ddof=1) / np.sqrt(n)) / w_t, frame


@pytest.fixture
def sweep_calls(monkeypatch):
    """Counts of unit-screen draws and propagations inside the sweep; the
    sweep propagates through the in-place step fields._fresnel."""
    calls = {"unit": 0, "propagate": 0}
    for name, key in (("_unit_screen", "unit"), ("_fresnel", "propagate")):
        def counted(*args, _fn=getattr(turbulence, name), _key=key):
            calls[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(turbulence, name, counted)
    return calls


class TestBroadeningSweep:
    def test_matches_literal_loop_bitwise(self):
        strengths = (0.0, 0.3, 1.0)
        swept = beam_broadening_sweep(
            [TurbulenceParams(w_over_r0=w) for w in strengths], 100, 30.0, 0.01, 9, SMALL
        )
        for w, got in zip(strengths, swept):
            params = TurbulenceParams(w_over_r0=w)
            expected = literal_broadening(params, 100, 30.0, 0.01, 9, SMALL)
            assert tuple(got) == expected
            assert beam_broadening_mc(params, 100, 30.0, 0.01, 9, SMALL) == expected[:2]

    def test_matches_literal_loop_bitwise_at_128(self):
        grid = GridSpec(128, 16.0)
        strengths = (0.0, 0.2, 0.6, 1.0)
        swept = beam_broadening_sweep(
            [TurbulenceParams(w_over_r0=w) for w in strengths], 100, 30.0, 0.01, 4, grid
        )
        for w, got in zip(strengths, swept):
            params = TurbulenceParams(w_over_r0=w)
            assert tuple(got) == literal_broadening(params, 100, 30.0, 0.01, 4, grid), w

    def test_margin_is_a_max_from_zero(self):
        # the Gaussian's frame fraction on 32^2/12 after 30 waists is -1.2e-16
        grid = GridSpec(32, 12.0)
        params = TurbulenceParams(w_over_r0=0.0)
        (got,) = beam_broadening_sweep([params], 100, 30.0, 0.01, 1, grid)
        assert tuple(got) == literal_broadening(params, 100, 30.0, 0.01, 1, grid)
        assert got.max_boundary_energy_fraction == 0.0

    def test_input_reaching_the_frame_fails_every_entry(self, sweep_calls):
        # a unit waist on a 3-waist grid: the input guard, run once on the
        # Gaussian, trips before any screen is drawn or field propagated
        grid = GridSpec(32, 3.0)
        with pytest.raises(AliasingError) as literal_error:
            literal_propagate(make_lg_mode(0, grid), 30.0, 0.01)
        assert str(literal_error.value) == "input field reaches the grid boundary"
        swept = beam_broadening_sweep(
            [TurbulenceParams(w_over_r0=w) for w in (0.0, 0.5)], 100, 30.0, 0.01, 1, grid,
            n_workers=1,  # the counts below are a serial run's
        )
        assert [str(r) for r in swept] == [str(literal_error.value)] * 2
        assert sweep_calls == {"unit": 0, "propagate": 0}

    def test_aliasing_strength_recorded_others_unchanged(self, sweep_calls):
        grid = GridSpec(64, 8.0)
        strengths = (0.2, 2.0, 1.0)
        swept = beam_broadening_sweep(
            [TurbulenceParams(w_over_r0=w) for w in strengths], 100, 60.0, 0.01, 2, grid,
            n_workers=1,
        )
        # w/r0 = 2.0 aliases in realization 0 and is still propagated in all 100
        assert sweep_calls["propagate"] == 3 * 100
        with pytest.raises(AliasingError) as literal_error:
            literal_broadening(TurbulenceParams(w_over_r0=2.0), 100, 60.0, 0.01, 2, grid)
        assert isinstance(swept[1], AliasingError)
        assert str(swept[1]) == str(literal_error.value)
        for k in (0, 2):
            params = TurbulenceParams(w_over_r0=strengths[k])
            assert tuple(swept[k]) == literal_broadening(params, 100, 60.0, 0.01, 2, grid)
        with pytest.raises(AliasingError, match=str(literal_error.value)):
            beam_broadening_mc(TurbulenceParams(w_over_r0=2.0), 100, 60.0, 0.01, 2, grid)

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_failing_entry_propagated_in_every_realization_at_any_worker_count(
        self, sweep_calls, n_workers
    ):
        # w/r0 = 2.0 aliases at realization 0; the guard reads its frame
        # fractions after the loop, so neither count nor result moves
        grid = GridSpec(64, 8.0)
        params = [TurbulenceParams(w_over_r0=w) for w in (0.2, 2.0, 1.0)]
        swept = beam_broadening_sweep(params, 100, 60.0, 0.01, 2, grid, n_workers)
        assert sweep_calls["propagate"] == 3 * 100
        serial = beam_broadening_sweep(params, 100, 60.0, 0.01, 2, grid, 1)
        assert str(swept[1]) == str(serial[1]) == "propagated field reaches the grid boundary"
        assert [swept[0], swept[2]] == [serial[0], serial[2]]

    def test_one_unit_screen_per_realization(self, sweep_calls):
        params = [TurbulenceParams(w_over_r0=w) for w in (0.0, 0.3, 0.6, 1.0)]
        beam_broadening_sweep(params, 100, 30.0, 0.01, 1, SMALL, n_workers=1)
        assert sweep_calls == {"unit": 100, "propagate": 1 + 3 * 100}
        sweep_calls.update(unit=0, propagate=0)
        beam_broadening_sweep(params[:1], 100, 30.0, 0.01, 1, SMALL, n_workers=1)
        assert sweep_calls == {"unit": 0, "propagate": 1}

    def test_working_set_is_a_few_screens(self):
        # one worker's unit screen, field and phase arrays are 2 screen
        # sizes; its subharmonic buffers (32 x 384 and 32 x 32 complex, a
        # fixed size) add 3.25 at 64^2, and numpy's 64 KiB ufunc buffers
        # are a screen size here: 7.82 measured, so 10 leaves a margin
        grid = GridSpec(64, 16.0)
        params = [TurbulenceParams(w_over_r0=w) for w in (0.0, 0.2, 0.6, 1.0, 1.4)]
        beam_broadening_sweep(params, 100, 30.0, 0.01, 1, grid, n_workers=1)  # warm
        tracemalloc.start()
        try:
            beam_broadening_sweep(params, 100, 30.0, 0.01, 1, grid, n_workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * grid.n**2 * np.dtype(complex).itemsize

    def test_working_set_is_two_grid_arrays_per_worker(self):
        # a worker's unit screen and field are 1.5 screen sizes (the phase
        # is the field's second half; |u|^2 and r^2 go to the spent field's
        # two halves); at 256^2 its subharmonic buffers add 0.2 and its
        # scratch rows 0.06: 1.91 measured, and a third real grid-sized
        # array would add 0.5
        grid = GridSpec(256, 16.0)
        params = [TurbulenceParams(w_over_r0=w) for w in (0.0, 0.6)]
        beam_broadening_sweep(params, 100, 30.0, 0.01, 1, grid, n_workers=1)  # warm
        tracemalloc.start()
        try:
            beam_broadening_sweep(params, 100, 30.0, 0.01, 1, grid, n_workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * grid.n**2 * np.dtype(complex).itemsize

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    def test_failing_realizations_fail_their_entry_at_any_worker_count(self, monkeypatch,
                                                                         n_workers):
        # the last entry's frame fraction is the limit at realizations 5, 6
        # and 9, which different shares step at more than one worker
        params = [TurbulenceParams(w_over_r0=w) for w in (0.2, 0.6, 1.0)]
        clean = beam_broadening_sweep(params, 100, 30.0, 0.01, 3, SMALL, n_workers)
        here = threading.local()  # this thread's realization and step in it

        def keyed(seed, i, _fn=turbulence.screen_key):
            here.i, here.step = i, 0
            return _fn(seed, i)

        def fresnel(*args, _fn=turbulence._fresnel):
            here.step += 1
            fraction = _fn(*args)
            return BOUNDARY_ENERGY_LIMIT if here.step == 3 and here.i in (5, 6, 9) else fraction

        monkeypatch.setattr(turbulence, "screen_key", keyed)
        monkeypatch.setattr(turbulence, "_fresnel", fresnel)
        swept = beam_broadening_sweep(params, 100, 30.0, 0.01, 3, SMALL, n_workers)
        assert isinstance(swept[2], AliasingError)
        assert str(swept[2]) == "propagated field reaches the grid boundary"
        assert swept[:2] == clean[:2]

    def test_worker_count_independent(self):
        # each share keeps its own failure record: switch threads as often
        # as possible, with more workers than cores
        grid = GridSpec(64, 8.0)
        params = [TurbulenceParams(w_over_r0=w) for w in (0.0, 0.2, 2.0, 1.0)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [[r if isinstance(r, Broadening) else str(r) for r in
                     beam_broadening_sweep(params, 100, 60.0, 0.01, 2, grid, n_workers)]
                    for n_workers in (1, 2, 3, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert runs[0][2] == "propagated field reaches the grid boundary"
        assert runs[1:] == [runs[0]] * 3

    def test_transfer_function_built_on_the_calling_thread(self, monkeypatch):
        # the sweep builds the table on the calling thread before its workers
        # start, so a worker's arena never holds it; (37.0, 0.011) is a key
        # no other test builds
        builders = []
        cached = turbulence._transfer

        def recorded(*args):
            misses = cached.cache_info().misses
            tf = cached(*args)
            if cached.cache_info().misses > misses:
                builders.append(threading.get_ident())
            return tf

        monkeypatch.setattr(turbulence, "_transfer", recorded)
        params = [TurbulenceParams(w_over_r0=w) for w in (0.3, 0.6)]
        beam_broadening_sweep(params, 100, 37.0, 0.011, 1, SMALL, n_workers=2)
        assert builders == [threading.get_ident()]

    def test_argument_checks(self):
        with pytest.raises(StatisticsError):
            beam_broadening_sweep([P06], 99, 30.0, 0.01, 1, SMALL)
        with pytest.raises(RangeError):
            beam_broadening_sweep([P06, TurbulenceParams(w_over_r0=2.5)], 100, 30.0,
                                  0.01, 1, SMALL)
        with pytest.raises(RangeError):
            beam_broadening_sweep([P06], 100, 30.0, 0.01, -1, SMALL)
        assert beam_broadening_sweep([], 100, 30.0, 0.01, 1, SMALL) == []
