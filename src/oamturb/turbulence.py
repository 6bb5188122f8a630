"""Kolmogorov weak-turbulence model.

Fried parameter, single-point-pair coherence, random phase screens with
validated structure-function statistics, and the beam-broadening
calibration that infers w/r0 from Gaussian spot growth.

The turbulence strength is always the dimensionless ratio w_over_r0 of the
beam waist to the Fried parameter; grids and separations are in waist
units, so a separation d in waist units corresponds to d * w_over_r0 Fried
lengths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import leggauss

from .errors import (
    AliasingError,
    DomainError,
    RangeError,
    ShapeMismatchError,
    StatisticsError,
)
from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    _fresnel,
    expi,
    make_lg_mode,
)
from .parallel import parallel_fill

# phase structure function D(d) = STRUCTURE_COEFF * (d/r0)^(5/3)
STRUCTURE_COEFF = 6.88
# ring coherence exponent D(2 r sin(dtheta/2)) / 2 per (r w/r0 |sin(dtheta/2)|)^(5/3)
_COHERENCE_SCALE = STRUCTURE_COEFF * 2 ** (2 / 3)

# Normalization of the 2-D phase power spectrum Phi(f) = PSD_COEFF *
# r0^(-5/3) * f^(-11/3), fixed by the standard isotropic identity
#   D(d) = 4 pi int_0^inf Phi(f) (1 - J0(2 pi f d)) f df
# with int_0^inf u^(-8/3) (1 - J0(u)) du = 2^(-8/3) (6/5) G(1/6)/G(11/6).
# G(1/6) and G(11/6) are literals of scipy.special.gamma's values, so the
# package never imports scipy.special; math.gamma(11/6) differs from it by
# 2 ulp, which would change every screen.
_BESSEL_MOMENT = 2 ** (-8 / 3) * (6 / 5) * 5.566316001780236 / 0.9406558582567717
PSD_COEFF = STRUCTURE_COEFF / (4 * np.pi * (2 * np.pi) ** (5 / 3) * _BESSEL_MOMENT)

MAX_W_OVER_R0 = 2.0
SUBHARMONIC_LEVELS = 3
_CELL_SPLIT = 4  # each subharmonic annulus is split into (3*_CELL_SPLIT)^2 cells
_CHEB_ORDER = 32


def fried_parameter(wavelength_m: float, cn2: float, path_m: float) -> float:
    """Fried parameter r0 = 0.185 (lambda^2 / (cn2 z))^(3/5), in meters."""
    if not all(math.isfinite(v) and v > 0 for v in (wavelength_m, cn2, path_m)):
        raise DomainError("wavelength, cn2 and path length must all be finite and positive")
    try:
        r0 = 0.185 * (wavelength_m**2 / (cn2 * path_m)) ** 0.6
    except (OverflowError, ZeroDivisionError):  # Python floats raise, not inf
        r0 = math.inf
    if not (math.isfinite(r0) and r0 > 0):
        raise DomainError(f"the Fried parameter r0 = {r0} m is not finite and positive")
    return r0


@dataclass(frozen=True)
class TurbulenceParams:
    """Turbulence strength: the dimensionless ratio w_over_r0 of the beam
    waist to the Fried parameter, finite and >= 0 (fried_parameter converts
    physical units)."""

    w_over_r0: float

    def __post_init__(self) -> None:
        value = float(self.w_over_r0)
        if not (math.isfinite(value) and value >= 0):
            raise DomainError(f"w_over_r0 must be finite and >= 0, got {value}")
        object.__setattr__(self, "w_over_r0", value)


def coherence(r, dtheta, params: TurbulenceParams):
    """Two-point coherence on a ring of radius r, angular separation dtheta.

    exp(-6.88 * 2^(2/3) * (r * w_over_r0)^(5/3) * |sin(dtheta/2)|^(5/3)),
    i.e. exp(-D(chord)/2) for the chord length 2 r sin(dtheta/2).  Accepts
    scalars or broadcastable arrays; values lie in (0, 1].
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("ring radius must be nonnegative")
    exponent = (
        _COHERENCE_SCALE
        * (r * params.w_over_r0) ** (5 / 3)
        * np.abs(np.sin(np.asarray(dtheta, dtype=float) / 2)) ** (5 / 3)
    )
    out = np.exp(-exponent)
    return float(out) if out.ndim == 0 else out


def structure_function(separation, params: TurbulenceParams):
    """Theoretical D(d) = 6.88 (d * w_over_r0)^(5/3) for separation d."""
    d = np.asarray(separation, dtype=float)
    if np.any(d < 0):
        raise DomainError("separation must be nonnegative")
    out = STRUCTURE_COEFF * (d * params.w_over_r0) ** (5 / 3)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PhaseScreen:
    """One realization of the turbulent phase over a grid, in radians."""

    grid: GridSpec
    phase: np.ndarray
    seed: int
    params: TurbulenceParams

    def __post_init__(self) -> None:
        arr = np.asarray(self.phase, dtype=np.float64)
        if arr.shape != (self.grid.n, self.grid.n):
            raise ShapeMismatchError(
                f"phase shape {arr.shape} does not match grid {self.grid.n}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "phase", arr)

    @functools.cached_property
    def phase_factor(self) -> np.ndarray:
        """exp(i phase), cached; read-only."""
        u = expi(self.phase)
        u.flags.writeable = False
        return u


class _SynthesisTables:
    """Strength-independent synthesis tables for one grid.

    The screen is the real part of an inverse FFT over point-sampled
    spectral amplitudes (with the 3x3 block around DC removed) plus
    SUBHARMONIC_LEVELS nested square annuli of low-frequency modes and a
    random linear tilt for what remains below the innermost annulus.  Each
    annulus cell carries its exactly integrated spectral power placed at
    the power-weighted centroid frequency; this keeps the synthetic
    structure function within ~1.5% of the Kolmogorov target over the
    inertial range, where point-sampled subharmonics err by tens of
    percent.  The annulus + tilt contribution is band-limited below
    1.5/extent, so it is evaluated on _CHEB_ORDER Chebyshev nodes per axis
    and upsampled exactly to the pixel grid by a fixed matrix.
    """

    def __init__(self, grid: GridSpec) -> None:
        dfreq = 1.0 / grid.extent
        fr = grid.freqs
        fx, fy = fr[None, :], fr[:, None]
        fsq = fx**2 + fy**2
        point = np.zeros_like(fsq)
        nz = fsq > 0
        point[nz] = fsq[nz] ** (-11 / 6) * dfreq**2
        dc_block = (np.abs(np.rint(fx / dfreq)) <= 1) & (np.abs(np.rint(fy / dfreq)) <= 1)
        point[dc_block] = 0.0
        self.amp_fft = np.sqrt(PSD_COEFF * point)

        gl_x, gl_w = leggauss(16)
        cell_fx, cell_fy, cell_pow = [], [], []
        half = 3 * _CELL_SPLIT // 2
        for level in range(1, SUBHARMONIC_LEVELS + 1):
            s = dfreq / 3 ** (level - 1)
            cs = s / _CELL_SPLIT
            du = 0.5 * cs * gl_x
            wu = 0.5 * cs * gl_w
            for i in range(-half, half):
                for j in range(-half, half):
                    cx = (i + 0.5) * cs
                    cy = (j + 0.5) * cs
                    if max(abs(cx), abs(cy)) < 0.5 * s * (1 - 1e-12):
                        continue  # covered by the next (finer) level
                    ax, ay = (cx + du)[None, :], (cy + du)[:, None]
                    pw = np.outer(wu, wu) * (ax**2 + ay**2) ** (-11 / 6)
                    total = pw.sum()
                    cell_fx.append((pw * ax).sum() / total)
                    cell_fy.append((pw * ay).sum() / total)
                    cell_pow.append(total)
        self.sh_fx = np.array(cell_fx)
        self.sh_fy = np.array(cell_fy)
        self.amp_sh = np.sqrt(PSD_COEFF * np.array(cell_pow))

        # Tilt variance from the uncovered hole |fx|,|fy| < h: linearizing
        # each mode exp(2 pi i f.x) about the origin gives per-axis slope
        # variance (2 pi)^2 int_hole Phi(f) fx^2 d^2f.  Fold the square
        # hole onto [0, pi/4] (the integrand has the full dihedral
        # symmetry once cos^2 is averaged with sin^2).
        h = 0.5 * dfreq / 3 ** (SUBHARMONIC_LEVELS - 1)
        tq_x, tq_w = leggauss(64)
        th = 0.5 * (tq_x + 1) * (np.pi / 4)
        tw = 0.5 * (np.pi / 4) * tq_w
        rmax = h / np.cos(th)
        radial = 3.0 * rmax ** (1 / 3)  # int_0^rmax rho^3 rho^(-11/3) d rho
        tilt_var = (2 * np.pi) ** 2 * 4.0 * float(np.sum(tw * radial))
        self.tilt_sigma = np.sqrt(PSD_COEFF * tilt_var)

        m = _CHEB_ORDER
        tnodes = np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
        scale = grid.extent / 2
        self.nodes = tnodes * scale
        self.upsample = chebvander(grid.coords / scale, m - 1) @ np.linalg.inv(
            chebvander(tnodes, m - 1)
        )
        self.ey_nodes = np.exp(2j * np.pi * np.outer(self.nodes, self.sh_fy))
        self.ex_nodes = np.exp(2j * np.pi * np.outer(self.sh_fx, self.nodes))


@functools.lru_cache(maxsize=8)
def _tables(grid: GridSpec) -> _SynthesisTables:
    """The grid's synthesis tables; DomainError if an extreme extent breaks them."""
    with np.errstate(all="ignore"):  # bad grids: checked below
        try:
            tab = _SynthesisTables(grid)
            finite = all(np.isfinite(table).all() for table in vars(tab).values())
        except OverflowError:  # a Python float's dfreq**2 raises, not inf
            finite = False
    if not finite:
        raise DomainError(f"a {grid.n}-pixel grid {grid.extent!r} waists wide has "
                          "non-finite screen synthesis tables")
    return tab


def _check_strength(w0: float) -> None:
    if w0 > MAX_W_OVER_R0:
        raise RangeError(
            f"w_over_r0 = {w0} outside the validated range [0, {MAX_W_OVER_R0}]"
        )


def screen_key(seed: int, *indices: int) -> np.random.SeedSequence:
    """SeedSequence(entropy=[seed, *indices]): the key of the screen at
    indices (strength, realization, ...) of a run with master seed seed."""
    return np.random.SeedSequence(entropy=[int(seed), *map(int, indices)])


def _unit_screen(
    grid: GridSpec,
    ss: np.random.SeedSequence,
    out: np.ndarray,
    spec: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """The screen of key ss at w_over_r0 = 1, piston not yet removed,
    written to out for the caller to scale in place.  spec (complex) and
    work (real) are work arrays of the grid's shape, so nothing grid-sized
    is allocated."""
    n = grid.n
    tab = _tables(grid)
    rng = np.random.Generator(np.random.Philox(ss))
    # the spectrum (zr + 1j * zi) * amp_fft, written part by part into one
    # complex array; zi is drawn into zr's buffer, in the same draw order
    scr = rng.standard_normal((n, n), out=out)
    np.multiply(scr, tab.amp_fft, out=spec.real)
    np.multiply(rng.standard_normal(out=scr), tab.amp_fft, out=spec.imag)
    zsh = rng.standard_normal((2, tab.amp_sh.size))
    ztilt = rng.standard_normal(2)
    # ifftn, not ifft2: numpy's ifft2 (2.4.6) silently ignores out= and
    # returns a fresh array, so spec would keep the spectrum
    np.fft.ifftn(spec, axes=(-2, -1), out=spec)
    np.multiply(spec.real, n * n, out=scr)
    ck = (zsh[0] + 1j * zsh[1]) * tab.amp_sh
    coarse = ((tab.ey_nodes * ck) @ tab.ex_nodes).real
    coarse += tab.tilt_sigma * (
        ztilt[0] * tab.nodes[None, :] + ztilt[1] * tab.nodes[:, None]
    )
    scr += np.matmul(tab.upsample @ coarse, tab.upsample.T, out=work)
    return scr


def _scale(unit: np.ndarray, w0: float, out: np.ndarray) -> np.ndarray:
    """Phase at strength w0 from a unit screen: times w0^(5/6), piston
    removed; all zeros at w0 = 0, where unit is not read.  out=unit scales
    in place."""
    if w0 == 0.0:
        out.fill(0.0)
        return out
    scr = np.multiply(unit, w0 ** (5 / 6), out=out)
    scr -= scr.mean()
    return scr


def _draw_phase(params: TurbulenceParams, grid: GridSpec, ss: np.random.SeedSequence,
                phase: np.ndarray, spec: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The phase of key ss at strength params, written to phase; spec
    (complex) and work (real) are _unit_screen's work arrays.  Nothing is
    drawn at zero strength."""
    w0 = params.w_over_r0
    _check_strength(w0)
    if w0 != 0.0:
        _unit_screen(grid, ss, phase, spec, work)
    return _scale(phase, w0, out=phase)


def _draw_phase_factor(
    params: TurbulenceParams,
    grid: GridSpec,
    ss: np.random.SeedSequence,
    out: np.ndarray,
    unit: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """generate_screen(params, grid, ss).phase_factor, bitwise, written to
    out (complex); unit and work are real work arrays of the grid's shape,
    so nothing grid-sized is allocated."""
    return expi(_draw_phase(params, grid, ss, unit, out, work), out=out)


def generate_screen(
    params: TurbulenceParams,
    grid: GridSpec,
    seed: int | np.random.SeedSequence,
) -> PhaseScreen:
    """Draw one phase screen; a pure function of (seed, params, grid).

    The generator is counter-based (Philox), so screens for distinct seeds
    can be produced in any order or thread with identical results.  seed
    may be a nonnegative integer or a numpy SeedSequence (the engines key
    their screens with screen_key); the stored PhaseScreen.seed is the
    integer itself, or a 64-bit digest of the SeedSequence for
    identification in exports.  One key gives the same screen at every
    strength up to the factor w_over_r0^(5/6) (before the piston is
    removed).
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
        seed_id = int(ss.generate_state(1, np.uint64)[0])
    else:
        if seed < 0:
            raise RangeError(f"seed must be nonnegative, got {seed}")
        ss = np.random.SeedSequence(int(seed))
        seed_id = int(seed)
    if params.w_over_r0 != 0.0:  # the arrays below reuse the memory this build frees
        _tables(grid)
    shape = (grid.n, grid.n)
    phase = _draw_phase(params, grid, ss, np.empty(shape),
                        np.empty(shape, dtype=np.complex128), np.empty(shape))
    return PhaseScreen(grid, phase, seed_id, params)


def apply_screen(f, s: PhaseScreen):
    """Multiply a field by e^{i phase}; the same screen acts on both
    polarization components of a VectorField."""
    if isinstance(f, ScalarField):
        if f.grid != s.grid:
            raise ShapeMismatchError("field and screen grids differ")
        return ScalarField(f.grid, f.samples * s.phase_factor)
    if isinstance(f, VectorField):
        if f.grid != s.grid:
            raise ShapeMismatchError("field and screen grids differ")
        u = s.phase_factor
        return VectorField(
            ScalarField(f.grid, f.right.samples * u),
            ScalarField(f.grid, f.left.samples * u),
        )
    raise TypeError(f"expected ScalarField or VectorField, got {type(f)!r}")


def _pixel_lag(separation: float, grid: GridSpec) -> int:
    lag = int(round(separation / grid.pitch))
    if lag < 1 or lag > grid.n - 1:
        raise DomainError(
            f"separation {separation} maps to pixel lag {lag}, outside [1, {grid.n - 1}]"
        )
    return lag


def screen_statistics(
    screens, n_screens: int, grid: GridSpec, separations, coherence_separations
) -> tuple[dict[float, tuple[float, float]], dict[float, tuple[float, float]]]:
    """structure_function_estimate at separations and coherence_estimate at
    coherence_separations, in one pass over screens.

    Every check runs before the first screen is pulled: at least 100
    screens, and every separation a whole pixel lag inside [1, n - 1].
    screens may be any iterable of exactly n_screens screens on grid that
    share one set of params; it is read one screen at a time, so a
    generator need never hold more than one.
    """
    if n_screens < 100:
        raise StatisticsError(f"need >= 100 screens, got {n_screens}")
    d_lags = {sep: _pixel_lag(sep, grid) for sep in separations}
    c_lags = {sep: _pixel_lag(sep, grid) for sep in coherence_separations}
    d_vals = np.empty((len(d_lags), n_screens))
    c_vals = np.empty((len(c_lags), n_screens))
    i, params = -1, None
    for i, s in enumerate(screens):
        params = params or s.params  # the first screen's
        if i == n_screens:
            raise ShapeMismatchError(f"more than the {n_screens} screens announced")
        if s.grid != grid or s.params != params:
            raise ShapeMismatchError("screens mix different grids or parameters")
        ph = s.phase
        for j, lag in enumerate(d_lags.values()):
            dx = ph[:, lag:] - ph[:, :-lag]
            dy = ph[lag:, :] - ph[:-lag, :]
            d_vals[j, i] = 0.5 * (np.mean(dx**2) + np.mean(dy**2))
        if c_lags:
            # cos(phi' - phi) = c'c + s's: one cos and one sin per screen
            c, sn = np.cos(ph), np.sin(ph)
            for j, lag in enumerate(c_lags.values()):
                dx = c[:, lag:] * c[:, :-lag] + sn[:, lag:] * sn[:, :-lag]
                dy = c[lag:, :] * c[:-lag, :] + sn[lag:, :] * sn[:-lag, :]
                c_vals[j, i] = 0.5 * (np.mean(dx) + np.mean(dy))
    if i + 1 < n_screens:
        raise ShapeMismatchError(f"got {i + 1} of the {n_screens} screens announced")
    return tuple(
        {sep: (float(v.mean()), float(v.std(ddof=1) / np.sqrt(n_screens)))
         for sep, v in zip(lags, vals)}
        for lags, vals in ((d_lags, d_vals), (c_lags, c_vals))
    )


def structure_function_estimate(
    screens, separations
) -> dict[float, tuple[float, float]]:
    """Empirical D(d) = <(phi(x) - phi(x'))^2> at each separation.

    Separations are rounded to whole pixel lags; pairs along both grid
    axes are pooled.  Returns {separation: (mean, stderr)} with the
    standard error taken across screens (per-screen means are iid).
    """
    grid = screens[0].grid if screens else None  # an empty list fails the count
    return screen_statistics(screens, len(screens), grid, separations, ())[0]


def coherence_estimate(screens, separations) -> dict[float, tuple[float, float]]:
    """Empirical Re<e^{i(phi(x) - phi(x'))}> at each pixel-pair separation.

    Companion to structure_function_estimate; compare against
    coherence(r, dtheta, params) at the chord 2 r sin(dtheta/2) equal to
    the separation.  Returns {separation: (mean, stderr)}.
    """
    grid = screens[0].grid if screens else None
    return screen_statistics(screens, len(screens), grid, (), separations)[1]


def fried_from_broadening(w_t: float, w: float) -> float:
    """Invert spot growth into turbulence strength: (1/3) sqrt((w_t/w)^2 - 1).

    w is the unperturbed spot size at the observation plane and w_t the
    turbulent one at the same plane.
    """
    if not w > 0:
        raise DomainError(f"reference width must be positive, got {w}")
    if w_t < w:
        raise DomainError(f"broadened width {w_t} smaller than reference {w}")
    return (1 / 3) * math.sqrt((w_t / w) ** 2 - 1)


class Broadening(NamedTuple):
    """One strength's ensemble spot size, from beam_broadening_sweep."""

    w_t: float  # width of the summed intensity, in input waists
    stderr: float  # standard error of w_t across realizations
    max_boundary_energy_fraction: float  # over the propagated fields


def beam_broadening_sweep(
    params_list,
    n_realizations: int,
    propagation_distance: float,
    wavelength: float,
    seed: int,
    grid: GridSpec | None = None,
    n_workers: int = 0,
) -> list[Broadening | AliasingError]:
    """beam_broadening_mc for several strengths in one pass over realizations.

    Realization i of every strength is keyed screen_key(seed, i), so its
    screen is drawn once at unit strength and scaled for each entry,
    bitwise as generate_screen would draw it.  A zero-strength
    entry sees the same field in every realization and is propagated
    once.  Realizations are split into strided shares over n_workers
    threads (0: every usable core), and each fills its own slots, an
    AliasingError included, so the result is the same for any worker
    count.  An entry whose field reaches the grid boundary gets the
    AliasingError of its lowest failing realization in place of its
    result; the others continue.  A share skips an entry only after it
    failed in that share, so the lowest failing realization is stepped.
    """
    if n_realizations < 100:
        raise StatisticsError(f"need >= 100 realizations, got {n_realizations}")
    for params in params_list:
        _check_strength(params.w_over_r0)
    if seed < 0:
        raise RangeError(f"seed must be nonnegative, got {seed}")
    if grid is None:
        grid = GridSpec(512, 16.0)
    shape = (grid.n, grid.n)
    gauss = make_lg_mode(0, grid).samples
    c2 = grid.coords**2
    r2 = c2[:, None] + c2[None, :]  # x**2 + y**2, broadcast from the 1-D coords
    moments = np.empty((len(params_list), n_realizations))
    frames = np.empty((len(params_list), n_realizations))
    errors = np.full((len(params_list), n_realizations), None)  # AliasingError slots

    def work_arrays():
        return (np.empty(shape), np.empty(shape, dtype=np.complex128),
                np.empty(shape), np.empty(shape))

    def share(items: range, arrays) -> None:
        unit, u, inten, scratch = arrays
        aliased = set()  # entries that failed earlier in this share
        for i in items:
            drawn = False  # the unit screen is drawn on first use
            for j, params in enumerate(params_list):
                w0 = params.w_over_r0
                if j in aliased or (w0 == 0.0 and i > 0):
                    continue
                if not drawn and w0 != 0.0:
                    _unit_screen(grid, screen_key(seed, i), unit, u, scratch)
                    drawn = True
                # apply_screen and propagate, in place: gauss * exp(i phase),
                # the phase held in inten until _fresnel overwrites it
                _scale(unit, w0, out=inten)
                np.multiply(gauss, expi(inten, out=u), out=u)
                try:
                    frames[j, i] = _fresnel(u, grid, propagation_distance, wavelength,
                                            inten, scratch)
                except AliasingError as exc:
                    errors[j, i] = exc
                    aliased.add(j)
                    continue
                moments[j, i] = float(np.sum(np.multiply(inten, r2, out=scratch))
                                      / np.sum(inten))

    # an all-zero sweep propagates realization 0 only
    active = any(params.w_over_r0 != 0.0 for params in params_list)
    parallel_fill(n_realizations if active else 1, share, n_workers, work_arrays)
    results: list[Broadening | AliasingError] = []
    for j, params in enumerate(params_list):
        failure = next((exc for exc in errors[j] if exc is not None), None)
        if failure is not None:
            results.append(failure)
            continue
        m, f = moments[j], frames[j]
        if params.w_over_r0 == 0.0:
            m[1:], f[1:] = m[0], f[0]  # one field in every realization, propagated once
        w_t = math.sqrt(2 * m.mean())
        stderr = float(m.std(ddof=1) / np.sqrt(n_realizations)) / w_t
        # max from 0.0, as a running max over the realizations would start
        results.append(Broadening(w_t, stderr, max(0.0, float(f.max()))))
    return results


def beam_broadening_mc(
    params: TurbulenceParams,
    n_realizations: int,
    propagation_distance: float,
    wavelength: float,
    seed: int,
    grid: GridSpec | None = None,
) -> tuple[float, float]:
    """Ensemble-averaged spot size of a screened, propagated Gaussian.

    Each realization sends the fundamental Gaussian through a fresh screen
    at the waist plane and propagates it; the width of the summed
    intensity (axis-referenced second moment, w = sqrt(2 <r^2>), which
    includes beam wander) is returned as w_t relative to the input waist,
    with a standard error across realizations.  Raises AliasingError when
    a propagated field reaches the grid boundary.  The public one-strength
    form of beam_broadening_sweep, which calibrate calls directly because
    it also reports each cell's guard margin.
    """
    (result,) = beam_broadening_sweep(
        [params], n_realizations, propagation_distance, wavelength, seed, grid
    )
    if isinstance(result, AliasingError):
        raise result
    return result.w_t, result.stderr


def save_screen(screen: PhaseScreen, path) -> None:
    """Write a screen as CSV: one comment header line carrying the grid, the
    seed and the strength w_over_r0, then n rows of n phase values
    (radians), full float64 round-trip precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# n={screen.grid.n} extent={screen.grid.extent!r} "
                 f"seed={screen.seed} w_over_r0={screen.params.w_over_r0!r}\n")
        for row in screen.phase:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_screen(path) -> PhaseScreen:
    """Read a screen written by save_screen.  A malformed file raises
    DomainError, and so does an older header's outer_scale unless it is
    None (Kolmogorov).  An older header's wavelength_m, cn2, path_m and
    waist_m are skipped, whatever their values: its w_over_r0 already holds
    the strength they implied."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise DomainError(f"{path}: missing screen header line")
        try:
            meta = dict(item.split("=", 1) for item in header[2:].split())
            if meta.get("outer_scale", "None") != "None":
                raise DomainError(f"{path}: von Karman screen (outer_scale={meta['outer_scale']})")
            grid = GridSpec(int(meta["n"]), float(meta["extent"]))
            seed = int(meta["seed"])
            params = TurbulenceParams(float(meta["w_over_r0"]))
            rows = [
                [float(v) for v in line.split(",")] for line in fh if line.strip()
            ]
        except (KeyError, ValueError) as exc:
            raise DomainError(f"{path}: malformed screen file: {exc!r}") from exc
    return PhaseScreen(grid, np.array(rows), seed, params)
