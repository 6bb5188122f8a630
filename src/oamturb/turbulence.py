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
    _SCRATCH_ROWS,
    GridSpec,
    ScalarField,
    VectorField,
    _expi_half,
    _fresnel,
    _guard,
    _halves,
    _mirrored,
    _transfer,
    expi,
    make_lg_mode,
    propagate,
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
# subharmonic cells: each level's (3*_CELL_SPLIT)^2 minus the inner _CELL_SPLIT^2
_SUB_CELLS = SUBHARMONIC_LEVELS * 8 * _CELL_SPLIT**2


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
    waist to the Fried parameter (fried_parameter converts physical units),
    finite and >= 0 (else DomainError) and within the screens' validated
    range [0, MAX_W_OVER_R0] (else RangeError); no engine checks it again."""

    w_over_r0: float

    def __post_init__(self) -> None:
        value = float(self.w_over_r0)
        if not (math.isfinite(value) and value >= 0):
            raise DomainError(f"w_over_r0 must be finite and >= 0, got {value}")
        if value > MAX_W_OVER_R0:
            raise RangeError(f"w_over_r0 = {value} outside the validated range "
                             f"[0, {MAX_W_OVER_R0}]")
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
        # rows 0 ... n/2, as row n - k is row k bitwise (fields._mirrored); a
        # half-height build peaked 0.5 MB higher in repeated 256^2 rotation scans
        self.amp_fft = np.sqrt(PSD_COEFF * point)[:grid.n // 2 + 1].copy()

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
    sub: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The screen of key ss at w_over_r0 = 1, piston not yet removed,
    written to out for the caller to scale in place.  spec (complex) and
    work (real, may be _halves(spec)[1]) are grid-shaped work arrays, so
    nothing grid-sized is allocated; sub, when given, holds the subharmonic
    sum's complex _CHEB_ORDER x _SUB_CELLS and _CHEB_ORDER^2 products."""
    n = grid.n
    tab = _tables(grid)
    rng = np.random.Generator(np.random.Philox(ss))
    # the spectrum (zr + 1j * zi) * amp_fft, written part by part into one
    # complex array; zi is drawn into zr's buffer, in the same draw order
    scr = rng.standard_normal((n, n), out=out)
    _mirrored(scr, tab.amp_fft, out=spec.real)
    _mirrored(rng.standard_normal(out=scr), tab.amp_fft, out=spec.imag)
    zsh = rng.standard_normal((2, tab.amp_sh.size))
    ztilt = rng.standard_normal(2)
    # ifftn, not ifft2: numpy's ifft2 (2.4.6) silently ignores out= and
    # returns a fresh array, so spec would keep the spectrum
    np.fft.ifftn(spec, axes=(-2, -1), out=spec)
    np.multiply(spec.real, n * n, out=scr)
    ck = (zsh[0] + 1j * zsh[1]) * tab.amp_sh
    ey_ck, coarse = sub or (None, None)
    coarse = np.matmul(np.multiply(tab.ey_nodes, ck, out=ey_ck), tab.ex_nodes,
                       out=coarse).real
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
    w0 = params.w_over_r0
    if w0 != 0.0:  # the arrays below reuse the memory this build frees
        _tables(grid)
    phase = np.empty((grid.n, grid.n))
    if w0 != 0.0:
        _unit_screen(grid, ss, phase, np.empty(phase.shape, complex), np.empty(phase.shape))
    return PhaseScreen(grid, _scale(phase, w0, out=phase), seed_id, params)


def _screen_loop(params_list, n_real: int, key, grid: GridSpec, n_workers: int, step,
                 work=tuple) -> None:
    """step(j, i, phase, u, *work()) for every strength j and realization
    i < n_real, phase holding generate_screen(params_list[j], grid,
    screen_key(*key(j, i))).phase bitwise; key gives index tuples.  A zero
    strength is one field, stepped at realization 0 only with no draw.
    Realizations run in strided shares (parallel_fill), each in order and
    strength by strength; one unit screen is drawn per run of equal keys.
    The complex u and work()'s arrays are the thread's own, phase is u's
    second half, _halves(u)[1], and a step may overwrite them all.  The
    synthesis tables are built here first."""
    shape = (grid.n, grid.n)
    if any(params.w_over_r0 != 0.0 for params in params_list):
        _tables(grid)

    def thread_arrays():  # _unit_screen's sub, the unit screen, u, work()'s
        return ((np.empty((_CHEB_ORDER, _SUB_CELLS), complex),
                 np.empty((_CHEB_ORDER, _CHEB_ORDER), complex)),
                (np.empty(shape), np.empty(shape, complex), *work()))

    def share(realizations: range, made) -> None:
        sub, (unit, u, *extra) = made
        phase = _halves(u)[1]  # also _unit_screen's work array
        drawn = None
        for i in realizations:
            for j, params in enumerate(params_list):
                w0 = params.w_over_r0
                if w0 == 0.0 and i > 0:
                    continue
                k = key(j, i)
                if w0 != 0.0 and k != drawn:
                    _unit_screen(grid, screen_key(*k), unit, u, phase, sub)
                    drawn = k
                _scale(unit, w0, out=phase)
                step(j, i, phase, u, *extra)

    parallel_fill(n_real, share, n_workers, thread_arrays)


def apply_screen(f, s: PhaseScreen):
    """Multiply a field by e^{i phase}; the same screen acts on both
    polarization components of a VectorField."""
    if not isinstance(f, (ScalarField, VectorField)):
        raise TypeError(f"expected ScalarField or VectorField, got {type(f)!r}")
    if f.grid != s.grid:
        raise ShapeMismatchError("field and screen grids differ")
    if isinstance(f, ScalarField):
        return ScalarField(f.grid, f.samples * s.phase_factor)
    u = s.phase_factor
    return VectorField(ScalarField(f.grid, f.right.samples * u),
                       ScalarField(f.grid, f.left.samples * u))


def _pixel_lag(separation: float, grid: GridSpec) -> int:
    lag = int(round(separation / grid.pitch))
    if lag < 1 or lag > grid.n - 1:
        raise DomainError(
            f"separation {separation} maps to pixel lag {lag}, outside [1, {grid.n - 1}]"
        )
    return lag


def _screen_statistics(n_screens: int, grid: GridSpec, separations, coherence_separations,
                       fill) -> tuple[dict[float, tuple[float, float]], ...]:
    """The estimators over fill(values), which passes each screen i once to
    values(i, phase, u), in any order and from any thread (u: that thread's
    complex grid-sized scratch).  Every check runs before fill: at least
    100 screens, each separation a pixel lag in [1, n - 1]."""
    if n_screens < 100:
        raise StatisticsError(f"need >= 100 screens, got {n_screens}")
    d_lags = {sep: _pixel_lag(sep, grid) for sep in separations}
    c_lags = {sep: _pixel_lag(sep, grid) for sep in coherence_separations}
    d_vals, c_vals = [np.empty((len(lags), n_screens)) for lags in (d_lags, c_lags)]

    def values(i: int, ph: np.ndarray, u: np.ndarray) -> None:
        for j, lag in enumerate(d_lags.values()):
            dx = ph[:, lag:] - ph[:, :-lag]  # squared in place: two temporaries a lag
            dy = ph[lag:, :] - ph[:-lag, :]
            d_vals[j, i] = 0.5 * (np.mean(np.square(dx, out=dx)) + np.mean(np.square(dy, out=dy)))
        if c_lags:
            # cos(phi' - phi) = c'c + s's: cos and sin in u's halves (sin in place
            # when ph is the loop's phase, the second)
            c, sn = np.cos(ph, out=_halves(u)[0]), np.sin(ph, out=_halves(u)[1])
            for j, lag in enumerate(c_lags.values()):
                dx = c[:, lag:] * c[:, :-lag]
                dx += sn[:, lag:] * sn[:, :-lag]
                dy = c[lag:, :] * c[:-lag, :]
                dy += sn[lag:, :] * sn[:-lag, :]
                c_vals[j, i] = 0.5 * (np.mean(dx) + np.mean(dy))

    fill(values)
    return tuple(
        {sep: (float(v.mean()), float(v.std(ddof=1) / np.sqrt(n_screens)))
         for sep, v in zip(lags, vals)}
        for lags, vals in ((d_lags, d_vals), (c_lags, c_vals))
    )


def _list_statistics(screens, separations, coherence_separations):
    """_screen_statistics over a list of screens, filled on parallel_fill's
    threads; a list that mixes grids or params fails before any is read."""
    grid = screens[0].grid if screens else None  # an empty list fails the count

    def fill(values) -> None:
        if any(s.grid != grid or s.params != screens[0].params for s in screens):
            raise ShapeMismatchError("screens mix different grids or parameters")

        def share(indices: range, u: np.ndarray) -> None:
            for i in indices:
                values(i, screens[i].phase, u)

        parallel_fill(len(screens), share, 0, lambda: np.empty((grid.n, grid.n), complex))

    return _screen_statistics(len(screens), grid, separations, coherence_separations, fill)


def structure_function_estimate(screens, separations) -> dict[float, tuple[float, float]]:
    """Empirical D(d) = <(phi(x) - phi(x'))^2> at each separation.

    Separations are rounded to whole pixel lags; pairs along both grid
    axes are pooled.  screens is a list on one grid with one set of params,
    read on every usable core.  Returns {separation: (mean, stderr)} with
    the standard error taken across screens (per-screen means are iid).
    """
    return _list_statistics(screens, separations, ())[0]


def coherence_estimate(screens, separations) -> dict[float, tuple[float, float]]:
    """Empirical Re<e^{i(phi(x) - phi(x'))}> at each pixel-pair separation.

    Companion to structure_function_estimate, over the same screens; compare
    against coherence(r, dtheta, params) at the chord 2 r sin(dtheta/2)
    equal to the separation.  Returns {separation: (mean, stderr)}.
    """
    return _list_statistics(screens, (), separations)[1]


def fried_from_broadening(w_t: float, w: float) -> float:
    """Invert spot growth into turbulence strength: (1/3) sqrt((w_t/w)^2 - 1).

    w is the unperturbed spot size at the observation plane and w_t the
    turbulent one at the same plane.
    """
    if not (math.isfinite(w_t) and math.isfinite(w)):
        raise DomainError(f"widths must be finite, got w_t={w_t}, w={w}")
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

    Realization i of every strength is keyed screen_key(seed, i), so
    _screen_loop draws its screen once and scales it for each entry; a
    zero-strength entry is one field, propagated once.  Realizations run
    on n_workers threads (0: every usable core), each filling its own
    slots of moments and frame fractions, so the result is the same for
    any worker count; the transfer function and synthesis tables are built
    on the calling thread, so no worker's allocator arena holds them.  A
    screen leaves |u| as it is, so the input guard runs once, on the
    Gaussian, after every other check, and fails every entry if it trips.
    Past it, every realization is propagated, and an entry whose largest
    frame fraction trips the propagated guard gets its AliasingError.
    """
    if n_realizations < 100:
        raise StatisticsError(f"need >= 100 realizations, got {n_realizations}")
    if seed < 0:
        raise RangeError(f"seed must be nonnegative, got {seed}")
    if grid is None:
        grid = GridSpec(512, 16.0)
    gauss = make_lg_mode(0, grid).samples
    if any(params.w_over_r0 != 0.0 for params in params_list):
        _tables(grid)
    # built here, before the guard's and the loop's arrays; built among the
    # first worker's arrays, 512^2 sweeps peaked 1 MB higher
    tf = _transfer(grid, propagation_distance, wavelength)
    try:
        propagate(make_lg_mode(0, grid), 0.0, wavelength)  # at distance 0: the input guard
    except AliasingError as exc:
        return [exc] * len(params_list)
    c2 = grid.coords**2
    moments = np.empty((len(params_list), n_realizations))
    frames = np.empty((len(params_list), n_realizations))

    def step(j: int, i: int, phase, u, scratch) -> None:
        # apply_screen and propagate's step, in place: gauss * exp(i phase),
        # then |u|^2 and r^2 = x^2 + y^2 (from the 1-D coords) in the spent
        # field's two halves, then r^2 |u|^2
        np.multiply(gauss, _expi_half(u), out=u)
        inten, r2 = _halves(u)
        frames[j, i] = _fresnel(u, tf, inten, scratch)
        np.add(c2[:, None], c2[None, :], out=r2)
        moments[j, i] = float(np.sum(np.multiply(inten, r2, out=r2)) / np.sum(inten))

    _screen_loop(params_list, n_realizations, lambda j, i: (seed, i), grid, n_workers, step,
                 lambda: (np.empty((2, _SCRATCH_ROWS, grid.n)),))
    results: list[Broadening | AliasingError] = []
    for j, params in enumerate(params_list):
        m, f = moments[j], frames[j]
        if params.w_over_r0 == 0.0:
            m[1:], f[1:] = m[0], f[0]  # one field in every realization, propagated once
        margin = max(0.0, float(f.max()))  # from 0.0, as a running max would start
        try:
            _guard(margin, "propagated")
        except AliasingError as exc:
            results.append(exc)
            continue
        w_t = math.sqrt(2 * m.mean())
        stderr = float(m.std(ddof=1) / np.sqrt(n_realizations)) / w_t
        results.append(Broadening(w_t, stderr, margin))
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
    form of beam_broadening_sweep; calibrate calls the sweep itself, once,
    with the zero-strength reference among its entries, because it also
    reports each cell's guard margin.
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
    """Read a screen written by save_screen.  A header value the package
    rejects raises DomainError "<path>: <its message>", as does an older
    header's outer_scale other than None (Kolmogorov); a file that does not
    parse or fit its grid, or holds a negative seed or a nonfinite phase,
    raises DomainError "<path>: malformed screen file: ...".  An older
    header's wavelength_m, cn2, path_m and waist_m are skipped, whatever
    their values: its w_over_r0 holds the strength."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise DomainError(f"{path}: missing screen header line")
        try:
            meta = dict(item.split("=", 1) for item in header[2:].split())
            if meta.get("outer_scale", "None") != "None":
                raise DomainError(f"von Karman screen (outer_scale={meta['outer_scale']})")
            grid = GridSpec(int(meta["n"]), float(meta["extent"]))
            seed = int(meta["seed"])
            if seed < 0:
                raise ValueError(f"negative seed {seed}")
            params = TurbulenceParams(float(meta["w_over_r0"]))
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
            phase = np.array(rows)  # a ragged row fails here, a missing one in PhaseScreen
            if not np.isfinite(phase).all():
                raise ValueError("a phase value is not finite")
            return PhaseScreen(grid, phase, seed, params)
        except (DomainError, RangeError) as exc:  # a header value, not a parse failure
            raise DomainError(f"{path}: {exc}") from exc
        except (KeyError, ValueError) as exc:
            raise DomainError(f"{path}: malformed screen file: {exc!r}") from exc
