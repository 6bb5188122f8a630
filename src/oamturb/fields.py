"""Scalar/vector optical fields on a square grid and the basic mode algebra.

All lengths are measured in units of the beam waist at the input plane, so
the fundamental Gaussian has intensity exp(-2 r^2) and unit L2 norm on the
grid.  Azimuthal indices are limited to |l| <= 8; the default 256 x 8 grid
resolves those modes to better than single precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, DomainError, RangeError, ShapeMismatchError

MAX_AZIMUTHAL_INDEX = 8

# fraction of total power allowed in the outer 2-pixel frame before
# FFT-based propagation is considered aliased
BOUNDARY_ENERGY_LIMIT = 1e-4


@dataclass(frozen=True)
class GridSpec:
    """Square sampling grid, symmetric about the beam axis.

    Sample points sit at half-pixel offsets, (k - n/2 + 1/2) * pitch, so no
    sample falls exactly on the axis and the grid has no privileged center
    pixel.  n must be even and at least 32.
    """

    n: int = 256
    extent: float = 8.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise RangeError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 32 or self.n % 2:
            raise RangeError(f"grid size must be even and >= 32, got {self.n}")
        if not (isinstance(self.extent, (int, float, np.floating)) and self.extent > 0):
            raise RangeError(f"grid extent must be positive, got {self.extent!r}")
        if self.extent == np.inf:
            raise RangeError("grid extent must be finite, got inf")
        object.__setattr__(self, "extent", float(self.extent))
        object.__setattr__(self, "n", int(self.n))

    @property
    def pitch(self) -> float:
        return self.extent / self.n

    @functools.cached_property
    def coords(self) -> np.ndarray:
        c = (np.arange(self.n) - self.n / 2 + 0.5) * self.pitch
        c.flags.writeable = False
        return c

    @property
    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, theta) of every sample, x along axis 1 and y along axis 0,
        broadcast from coords on each call: a grid caches only its 1-D
        coords and freqs."""
        c = self.coords
        return np.hypot(c[None, :], c[:, None]), np.arctan2(c[:, None], c[None, :])

    @functools.cached_property
    def freqs(self) -> np.ndarray:
        f = np.fft.fftfreq(self.n, d=self.pitch)
        f.flags.writeable = False
        return f


@dataclass(frozen=True)
class ScalarField:
    """Complex field samples on a grid.

    The constructor adopts the array (converting to complex128 if needed)
    and marks it read-only; pass a copy if you need to keep writing to it.
    """

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != (self.grid.n, self.grid.n):
            raise ShapeMismatchError(
                f"samples shape {arr.shape} does not match grid {self.grid.n}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def power(self) -> float:
        """Total power, sum |f|^2 * pitch^2."""
        s = self.samples
        return float(np.sum(s.real**2 + s.imag**2) * self.grid.pitch**2)


@dataclass(frozen=True)
class VectorField:
    """Paraxial two-component field in the circular polarization basis."""

    right: ScalarField
    left: ScalarField

    def __post_init__(self) -> None:
        if self.right.grid != self.left.grid:
            raise ShapeMismatchError("right/left components live on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.right.grid

    def power(self) -> float:
        return self.right.power() + self.left.power()


def make_lg_mode(l: int, grid: GridSpec) -> ScalarField:
    """Sample the Laguerre-Gauss mode LG_{0,l} at its unit waist.

    The profile is (sqrt(2) r)^|l| exp(-r^2) exp(i l theta), renormalized
    numerically so the grid sum of |f|^2 * pitch^2 is exactly 1.  The 16
    most recently used modes are cached per (l, grid), immutable and shared.
    A grid that holds no finite positive power of the mode raises DomainError.
    """
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool):
        raise RangeError(f"azimuthal index must be an integer, got {l!r}")
    if abs(l) > MAX_AZIMUTHAL_INDEX:
        raise RangeError(f"|l| <= {MAX_AZIMUTHAL_INDEX} is required, got l={l}")
    return _lg_mode(int(l), grid)


@functools.lru_cache(maxsize=16)
def _lg_mode(l: int, grid: GridSpec) -> ScalarField:
    r, theta = grid.polar
    with np.errstate(over="ignore", invalid="ignore"):  # bad grids: checked below
        rho = (np.sqrt(2.0) * r) ** abs(l) * np.exp(-(r**2))
        f = rho * np.exp(1j * l * theta)
        try:
            power = float(np.sum(f.real**2 + f.imag**2) * grid.pitch**2)
        except OverflowError:  # a Python float's pitch**2 raises, not inf
            power = np.inf
    if not 0 < power < np.inf:
        raise DomainError(f"a {grid.n}-pixel grid {grid.extent!r} waists wide samples "
                          f"LG_(0,{l}) with power {power}: it cannot resolve the unit waist")
    f /= np.sqrt(power)
    return ScalarField(grid, f)


def overlap(a: ScalarField, b: ScalarField) -> complex:
    """Inner product <a|b> = sum conj(a) * b * pitch^2."""
    if a.grid != b.grid:
        raise ShapeMismatchError("overlap requires both fields on the same grid")
    return complex(np.vdot(a.samples, b.samples) * a.grid.pitch**2)


def expi(x, out: np.ndarray | None = None) -> np.ndarray:
    """exp(1j * x) for real x: cos and sin written straight into one complex
    array (out, if given), == np.exp(1j * x) element for element at about
    half the cost."""
    u = np.empty(np.shape(x), dtype=np.complex128) if out is None else out
    np.cos(x, out=u.real)
    np.sin(x, out=u.imag)
    return u


@functools.lru_cache(maxsize=2)
def _shear_phase(n: int, pitch: float, coeff: float, axis: int) -> np.ndarray:
    """Read-only shear phase exp(-2 pi i coeff c f) along `axis` of the
    2n-point padded array of rotate_modal (c: centred coordinate, f: FFT
    frequency), in the layout it multiplies: x (axis 1), the n central rows
    of c by 2n of f; y (axis 0), frequency-major, 2n of f by 2n of c.  c and
    f (bar f = 0 and Nyquist) are antisymmetric exactly, so one quadrant's
    conjugate mirrors fill the rest, bitwise the full expi.  Two entries hold
    one angle's pair: a second field at the same angle builds none."""
    m, h = 2 * n, n // 2 if axis else n  # h: half the table's coordinates
    c = (np.arange(m) - m / 2 + 0.5) * pitch
    ph = np.empty((2 * h, m), dtype=np.complex128)
    t = ph.T if axis else ph  # frequency-major either way
    expi(-2 * np.pi * np.outer(np.fft.fftfreq(m, d=pitch)[:n + 1], c[n - h:n] * coeff),
         out=t[:n + 1, :h])
    np.conj(t[n - 1:0:-1, :h], out=t[n + 1:, :h])
    np.conj(t[:, h - 1::-1], out=t[:, h:])
    ph.flags.writeable = False
    return ph


def _quarter_turns(theta: float) -> tuple[int, float]:
    """theta mod 2 pi as k quarter turns, 0 <= k < 4, and a residual r."""
    th = float(theta) % (2 * np.pi)
    k = int(np.round(th / (np.pi / 2)))
    return k % 4, th - k * (np.pi / 2)


def rotate_modal(f: ScalarField, theta: float) -> ScalarField:
    """Rotate the transverse profile by theta about the beam axis.

    A pure mode c_l(r) e^{i l theta_az} maps to e^{-i l theta} times itself.
    Quadrant parts of the angle are exact array rotations; the residual in
    [-pi/4, pi/4] is applied as three FFT shears (x, y, x) on a 2x
    zero-padded copy, which is exact for fields that are band-limited and
    negligible at the grid edge.  The x shears act row by row, so they skip
    the padding rows: zero on the way in, cropped on the way out.  All three
    run in place in one padded array, each times a contiguous _shear_phase
    table: x holds only the n central rows, y is frequency-major.
    theta = 0 (mod 2 pi) returns the input unchanged.
    """
    n = f.grid.n
    pitch = f.grid.pitch
    k, resid = _quarter_turns(theta)
    if k == 0 and resid == 0.0:
        return f
    g = np.rot90(f.samples, -k) if k else f.samples
    if resid != 0.0:
        rows = slice(n // 2, n // 2 + n)
        a, b = -np.tan(resid / 2), np.sin(resid)
        big = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        big[rows, rows] = g
        band = big[rows]  # a view: the x shears write through it
        # every step in place: the 1-D fft and ifft honour out=, even on a
        # view (numpy's ifft2, 2.4.6, silently ignores it and allocates)
        for part, coeff, axis in ((band, a, 1), (big, b, 0), (band, a, 1)):
            np.fft.fft(part, axis=axis, out=part)
            part *= _shear_phase(n, pitch, coeff, axis)
            np.fft.ifft(part, axis=axis, out=part)
        g = band[:, rows]
    return ScalarField(f.grid, g.copy())


def intensity_frame_fraction(inten: np.ndarray) -> float:
    """Fraction of the total of an intensity |u|^2 in its outermost
    2-pixel frame."""
    total = float(inten.sum())
    if total == 0.0:
        return 0.0
    inner = float(inten[2:-2, 2:-2].sum())
    return (total - inner) / total


@functools.lru_cache(maxsize=4)
def _transfer_function(grid: GridSpec, distance: float, wavelength: float) -> np.ndarray:
    """Read-only Fresnel transfer function exp(-i pi lambda z f^2), cached
    because an ensemble propagates every screened field by one distance."""
    fsq = grid.freqs**2
    tf = np.exp(-1j * np.pi * wavelength * distance * (fsq[None, :] + fsq[:, None]))
    tf.flags.writeable = False
    return tf


def _fresnel(
    u: np.ndarray,
    grid: GridSpec,
    distance: float,
    wavelength: float,
    inten: np.ndarray,
    scratch: np.ndarray,
) -> float:
    """propagate() on the complex samples u, overwriting them: the same
    checks, messages and arithmetic, bitwise, with nothing grid-sized
    allocated.  inten and scratch are real work arrays of u's shape; inten
    is left holding |u|^2 of the result, and its
    intensity_frame_fraction is returned."""
    for name, value in (("wavelength", wavelength), ("propagation distance", distance)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not wavelength > 0:
        raise DomainError(f"wavelength must be positive, got {wavelength}")
    scale = np.pi * float(wavelength) * float(distance)  # the transfer function's phase
    if not np.isfinite(scale):  # checked here, so that no NaN table is cached
        raise DomainError(f"pi * wavelength * propagation distance must be finite, got {scale}")
    fraction = _frame_fraction(u, inten, scratch)
    if fraction >= BOUNDARY_ENERGY_LIMIT:
        raise AliasingError("input field reaches the grid boundary")
    if distance == 0.0:
        return fraction
    np.fft.fft2(u, out=u)
    u *= _transfer_function(grid, distance, wavelength)
    # ifftn, not ifft2: numpy's ifft2 (2.4.6) silently ignores out= and
    # returns a fresh array, so u would keep the spectrum
    np.fft.ifftn(u, axes=(-2, -1), out=u)
    fraction = _frame_fraction(u, inten, scratch)
    if fraction >= BOUNDARY_ENERGY_LIMIT:
        raise AliasingError("propagated field reaches the grid boundary")
    return fraction


def _frame_fraction(u: np.ndarray, inten: np.ndarray, scratch: np.ndarray) -> float:
    """intensity_frame_fraction of |u|^2, built in inten (== u.real**2 +
    u.imag**2 bitwise) with scratch as the second operand."""
    np.square(u.real, out=inten)
    inten += np.square(u.imag, out=scratch)
    return intensity_frame_fraction(inten)


def propagate(f: ScalarField, distance: float, wavelength: float) -> ScalarField:
    """Fresnel-propagate by `distance` using the FFT transfer function.

    distance and wavelength are in waist units, like the grid.  The
    transfer function exp(-i pi lambda z f^2) is unitary, so grid power is
    conserved.  Raises AliasingError when more than BOUNDARY_ENERGY_LIMIT
    of the power sits in the outer 2-pixel frame before or after the step,
    since wrap-around then contaminates the result.
    """
    u = f.samples.copy()
    _fresnel(u, f.grid, distance, wavelength, np.empty(u.shape), np.empty(u.shape))
    return f if distance == 0.0 else ScalarField(f.grid, u)
