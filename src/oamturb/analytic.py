"""Semi-analytic coupling coefficients and success probability.

A fixed-mode projection after a single phase screen, averaged over the
turbulence ensemble, keeps the weights

    C_dl = int int f(x) conj(f(x')) gamma(|x - x'|) d^2x d^2x'
         = int A(d) gamma(|d|) d^2d,

with f = |LG_{0,l}|^2 for the survival weight c0 (dl = 0) and f =
conj(LG_{0,-l}) LG_{0,l} for the mirror crosstalk c2l (dl = 2l), gamma(d) =
exp(-D(d)/2) the two-point coherence and A the direction-averaged
autocorrelation of f.  This is the exact expectation of the Monte Carlo
decode estimator; the success probability of the protocol is P_h = c0.
f is a Gaussian times a polynomial in z = x + iy and conj(z), so the
moments int y^j conj(y)^k e^{-4|y|^2} d^2y = delta_jk pi j! / 4^{j+1}
give A in closed form.  With s = |d|^2 in waist units, up to one constant,

    A_0(s) = e^{-s} sum_i C(l,i)^2 / C(2l,2i) s^{2i} / (2i)!,
    A_2l(s) = e^{-s} L_{2l}(s)    (Laguerre polynomial),

e.g. e^{-s}(1 + s^2/2) and e^{-s}(1 - 2s + s^2/2) at l = 1, leaving one
integral over d, normalized by its zero-turbulence value.

The single-radius reduction ring_coefficients keeps only the coherence
gamma(2 r sin(u/2)) between points of a common ring.  It is exact for a
detector resolving the azimuthal index irrespective of radial profile and
upper-bounds c0.

The coherence has a 5/3-power cusp at zero separation; cubic maps of the
separation (d = d_max t^3) and ring angle (u = pi t^3) flatten it for
Gauss-Legendre.  QuadratureConfig.radial_nodes sets the separation and
ring-radius rules, angular_nodes the ring-angle rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legder, leggauss, legval

from .errors import RangeError, ToleranceError
from .turbulence import _COHERENCE_SCALE, STRUCTURE_COEFF, TurbulenceParams

# turbulence strengths scanned in the experiments this package reproduces:
# 14 values spanning [0, 1.4] including the cross-validation checkpoints
DEFAULT_STRENGTHS = (
    0.0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4,
)

# Both cutoffs scale with sqrt(l).  Ring radii: the LG_{0,l} intensity
# r^{2l} e^{-2 r^2} peaks at r^2 = l/2 and is negligible past 36 l (~1e-31
# at l = 1).  Separations: A's bulk sits near s = d^2 = 2l, its tail past
# 36 l is < 1e-12.
_RADIAL_CUTOFF = 6.0
_SEPARATION_CUTOFF = 6.0


@dataclass(frozen=True)
class QuadratureConfig:
    radial_nodes: int = 200
    angular_nodes: int = 512
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.radial_nodes < 8 or self.angular_nodes < 8:
            raise RangeError("node counts must be at least 8")
        if not self.tolerance > 0:
            raise RangeError(f"tolerance must be positive, got {self.tolerance}")


DEFAULT_QUAD = QuadratureConfig()


@dataclass(frozen=True)
class CouplingCoefficients:
    c0: float
    c2l: float
    l: int
    w_over_r0: float
    residual: float = 0.0  # node-doubling change; 0.0 when not validated


# LAPACK's root-free QL/QR eigenvalue solver for a symmetric tridiagonal
# matrix, as numpy's OpenBLAS exports it (ILP64: 64-bit integer arguments)
_DSTERF = "scipy_dsterf_64_"


def _companion_eigenvalues(n: int) -> np.ndarray | None:
    """The eigenvalues of legcompanion's symmetric tridiagonal matrix for
    the degree-n Legendre polynomial, ascending, from dsterf on its zero
    diagonal and its off-diagonal; None when numpy's OpenBLAS lacks dsterf
    or dsterf fails.  eigvalsh, which leggauss calls on the dense matrix,
    finds it already tridiagonal and calls dsterf on the same two vectors."""
    import ctypes

    from .parallel import _openblas

    dsterf = getattr(_openblas(), _DSTERF, None)
    if dsterf is None:
        return None
    scl = 1. / np.sqrt(2 * np.arange(n) + 1)
    diag, off = np.zeros(n), np.arange(1, n) * scl[:-1] * scl[1:]
    size, info = ctypes.c_int64(n), ctypes.c_int64(0)
    dsterf(ctypes.byref(size), diag.ctypes.data_as(ctypes.c_void_p),
           off.ctypes.data_as(ctypes.c_void_p), ctypes.byref(info))
    return diag if info.value == 0 else None


@functools.lru_cache(maxsize=32)
def _legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n_nodes) bitwise, read-only, cached by node count.  The
    nodes start from _companion_eigenvalues, in O(n_nodes) memory where
    leggauss builds the dense n_nodes x n_nodes companion matrix; then
    leggauss's own Newton step, weights, symmetrisation and normalisation
    follow unchanged.  Without dsterf it calls leggauss itself."""
    x = _companion_eigenvalues(n_nodes)
    if x is None:
        x, w = leggauss(n_nodes)
    else:
        c = np.array([0] * n_nodes + [1])
        df = legval(x, legder(c))
        x -= legval(x, c) / df
        fm = legval(x, c[1:])
        fm /= np.abs(fm).max()
        df /= np.abs(df).max()
        w = 1 / (fm * df)
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
        w *= 2. / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _cubic_rule(n_nodes: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, scale] through x = scale t^3,
    whose Jacobian flattens a 5/3-power cusp at x = 0."""
    x, w = _legendre_rule(n_nodes)
    t = 0.5 * (x + 1)
    return scale * t**3, 3 * scale * t**2 * (0.5 * w)


def _theta_values(r: np.ndarray, w_over_r0: float, n_nodes: int,
                  *delta_ls: int) -> list[np.ndarray]:
    """Theta_dl at each radius for each dl in delta_ls: 2 pi * 2 *
    int_0^pi cos(dl u) gamma du, every dl from one radius x angle
    coherence matrix, built in place."""
    u, weight = _cubic_rule(n_nodes, np.pi)  # single cusp at u = 0
    gam = np.outer((r * w_over_r0) ** (5 / 3), np.abs(np.sin(u / 2)) ** (5 / 3))
    gam *= -_COHERENCE_SCALE
    np.exp(gam, out=gam)
    # one matrix-vector product per dl: a matrix-matrix product of the
    # stacked rows can round differently
    return [4 * np.pi * (gam @ (np.cos(dl * u) * weight)) for dl in delta_ls]


def _separation_rule(l: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separation nodes d and weights (k0, k2) with sum(k * g(d))
    approximating int A(d) g(d) d dd / int A_0(d) d dd for A = A_0, A_2l
    (module docstring), normalized by the same rule."""
    d, weight = _cubic_rule(n_nodes, _SEPARATION_CUTOFF * math.sqrt(l))
    s = d * d
    jac = weight * d  # polar measure d dd
    i = np.arange(l + 1)
    moments = [math.comb(l, k) ** 2 / math.comb(2 * l, 2 * k) for k in range(l + 1)]
    # Poisson terms s^{2i} e^{-s} / (2i)! in log form: no overflow at large l;
    # log (2i)! is correctly rounded (== gammaln(2i + 1) up to i = 6)
    log_fact = np.array([math.log(math.factorial(2 * k)) for k in range(l + 1)])
    poisson = np.exp(2 * i[:, None] * np.log(s) - s - log_fact[:, None])
    k0 = jac * (moments @ poisson)
    # e^{-s/2} L_k(s) stays within [-1, 1], so its recurrence cannot overflow
    half = np.exp(-s / 2)
    prev, laguerre = np.zeros_like(s), half
    for k in range(2 * l):
        prev, laguerre = laguerre, ((2 * k + 1 - s) * laguerre - k * prev) / (k + 1)
    k2 = jac * laguerre * half
    norm = k0.sum()
    return d, k0 / norm, k2 / norm


def _validated(l, params, quad, validate, once) -> CouplingCoefficients:
    """(c0, c2l) from once(l, radial_nodes, angular_nodes); validate=True
    re-runs at doubled node counts, raises ToleranceError if the change
    exceeds the tolerance and reports it as the residual."""
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 1:
        raise RangeError(f"l must be a positive integer, got {l!r}")
    l = int(l)
    c0, c2l = once(l, quad.radial_nodes, quad.angular_nodes)
    residual = 0.0
    if validate:
        r0, r2l = once(l, 2 * quad.radial_nodes, 2 * quad.angular_nodes)
        residual = max(abs(r0 - c0), abs(r2l - c2l))
        if residual > quad.tolerance:
            raise ToleranceError(
                f"quadrature not converged at {quad}: ({c0}, {c2l}) vs ({r0}, {r2l})"
            )
    return CouplingCoefficients(c0, max(c2l, 0.0), l, params.w_over_r0, residual)


def coupling_coefficients(
    l: int,
    params: TurbulenceParams,
    quad: QuadratureConfig = DEFAULT_QUAD,
    *,
    validate: bool = True,
) -> CouplingCoefficients:
    """Ensemble-averaged survival (c0) and mirror-crosstalk (c2l) weights
    of the fixed-mode LG_{0,l} projections, normalized so c0 = 1 at zero
    turbulence.

    Uses the two-point form, so the values equal the expectation of the
    Monte Carlo decode estimator.  validate=True recomputes at doubled
    node count, raises ToleranceError if not converged, and reports the
    change as the residual.
    """
    w0 = params.w_over_r0

    def once(l: int, radial_nodes: int, _) -> tuple[float, float]:
        if w0 == 0:
            return 1.0, 0.0
        d, k0, k2 = _separation_rule(l, radial_nodes)
        gam = np.exp(-0.5 * STRUCTURE_COEFF * (w0 * d) ** (5 / 3))
        return float(k0 @ gam), float(k2 @ gam)

    return _validated(l, params, quad, validate, once)


def ring_coefficients(
    l: int,
    params: TurbulenceParams,
    quad: QuadratureConfig = DEFAULT_QUAD,
    *,
    validate: bool = True,
) -> CouplingCoefficients:
    """Single-radius reduction C_dl = int |R|^2 Theta_dl(r) r dr (normalized).

    Exact for an azimuthal-index sorter insensitive to radial profile;
    upper-bounds the fixed-mode c0 of coupling_coefficients; the CLI
    reports it for comparison against the two-point values.  Validation
    and residual as in coupling_coefficients.
    """
    w0 = params.w_over_r0

    def once(l: int, radial_nodes: int, angular_nodes: int) -> tuple[float, float]:
        # LG_{0,l} intensity weights on [0, cutoff], normalized numerically
        x, w = _legendre_rule(radial_nodes)
        r = 0.5 * _RADIAL_CUTOFF * math.sqrt(l) * (x + 1)
        # r^{2l+1} e^{-2 r^2} in log form, scaled to peak 1: no overflow at large l
        log_dens = (2 * l + 1) * np.log(r) - 2 * r**2
        dens = w * np.exp(log_dens - log_dens.max())
        dens /= dens.sum()
        t0, t2 = _theta_values(r, w0, angular_nodes, 0, 2 * l)
        norm = (2 * np.pi) ** 2
        return float(dens @ t0) / norm, float(dens @ t2) / norm

    return _validated(l, params, quad, validate, once)


def success_probability(
    params: TurbulenceParams,
    l: int = 1,
    quad: QuadratureConfig = DEFAULT_QUAD,
    *,
    validate: bool = True,
) -> float:
    """Post-selection success probability of the hybrid protocol, = c0.

    Returned from the two-point quadrature, the form consistent with the
    chord-distance coherence and with the Monte Carlo decode pipeline;
    ring_coefficients exposes the single-radius reduction for comparison.
    """
    return coupling_coefficients(l, params, quad, validate=validate).c0
