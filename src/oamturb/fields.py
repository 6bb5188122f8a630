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

from .errors import AliasingError, DomainError, RangeError, ShapeMismatchError, _integer, _real
from .parallel import parallel_fill

MAX_AZIMUTHAL_INDEX = 8

# FFT-based propagation is considered aliased once at least this fraction
# of the total power sits in the outer 2-pixel frame
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
        object.__setattr__(self, "n", _integer("grid size", self.n))
        if self.n < 32 or self.n % 2:
            raise RangeError(f"grid size must be even and >= 32, got {self.n}")
        object.__setattr__(self, "extent",
                           _real("grid extent", self.extent, positive=True, error=RangeError))

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
    return _lg_mode(_integer("azimuthal index", l, -MAX_AZIMUTHAL_INDEX, MAX_AZIMUTHAL_INDEX),
                    grid)


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


_SCRATCH_ROWS = 16  # rows per block of _expi_half and of _fresnel's scratch


def _halves(u: np.ndarray) -> np.ndarray:
    """u's buffer as two contiguous real arrays of u's shape."""
    return u.view(float).reshape(2, *u.shape)


def _expi_half(u: np.ndarray) -> np.ndarray:
    """expi(x, out=u) bitwise for x = _halves(u)[1], u's own second half,
    in ascending blocks of rows: none writes rows of x that a later block
    reads, and one that overlaps its own (the last one or two) copies them."""
    x = _halves(u)[1]
    for i in range(0, len(u), _SCRATCH_ROWS):
        block, xs = u[i:i + _SCRATCH_ROWS], x[i:i + _SCRATCH_ROWS]
        expi(xs.copy() if np.may_share_memory(block, xs) else xs, out=block)
    return u


def _mirrored(a: np.ndarray, half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a times the n-row table whose rows 0 ... n/2 are half: fftfreq's
    squared frequencies mirror, so row n - k is row k bitwise."""
    np.multiply(a[:len(half)], half, out=out[:len(half)])
    np.multiply(a[len(half):], half[-2:0:-1], out=out[len(half):])
    return out


# band columns per chunk of rotate_modal's y shear, in place of a 2n x 2n array
_SHEAR_CHUNK = 32


def _shear_phase(n: int, pitch: float, coeff: float, rows: int) -> np.ndarray:
    """Shear phase exp(-2 pi i coeff c f) of rotate_modal's
    2n-point padded transforms (c: centred coordinate, f: FFT frequency),
    one row per coordinate c, for the `rows` coordinates c < 0 nearest the
    centre: n // 2 for the x shear, n for the y shear.  c and f (bar f = 0
    and Nyquist) are antisymmetric exactly, so conjugate mirrors fill the
    rest, bitwise the full expi: the columns past Nyquist here, and every
    row past the centre in _shear.  Read-only: worker threads share it."""
    m = 2 * n
    c = (np.arange(m) - m / 2 + 0.5) * pitch
    ph = np.empty((rows, m), dtype=np.complex128)
    expi(-2 * np.pi * np.outer(c[n - rows:n] * coeff, np.fft.fftfreq(m, d=pitch)[:n + 1]),
         out=ph[:, :n + 1])
    np.conj(ph[:, n - 1:0:-1], out=ph[:, n + 1:])
    ph.flags.writeable = False
    return ph


def _quarter_turns(theta: float) -> tuple[int, float]:
    """theta mod 2 pi as k quarter turns, 0 <= k < 4, and a residual r in
    [-pi/4, pi/4): k is theta / (pi/2) rounded half up, taken exactly from
    divmod's exact remainder (floor(x + 1/2) in floats puts r one ulp below
    -pi/4 just under theta = pi/4).  Every tie, theta = pi/4 mod pi/2, has
    r = -pi/4 bitwise, so the ties share one shear group.  A non-finite
    theta raises DomainError."""
    q, f = divmod(_real("rotation angle", theta) % (2 * np.pi), np.pi / 2)
    up = f >= np.pi / 4
    return (int(q) + up) % 4, f - up * (np.pi / 2)


def _shear(part: np.ndarray, table: np.ndarray, first: int) -> None:
    """One FFT shear of every row of part, in place.  Row i sits at the
    table's coordinate index t = first + i: a row with t < L = len(table)
    is multiplied by table[t], and a row past the centre by its conjugate
    mirror conj(table[2L-1-t]), taken as conj(conj(row) * table[2L-1-t]):
    bitwise the stored conjugate's product, with no copy of the table.  The
    1-D fft and ifft honour out=, even on a view (numpy's ifft2, 2.4.6,
    silently ignores it and allocates)."""
    size = len(table)
    below = min(max(size - first, 0), len(part))  # rows with t < L
    upper = part[below:]
    np.fft.fft(part, axis=1, out=part)
    part[:below] *= table[first:first + below]
    np.conj(upper, out=upper)
    upper *= table[2 * size - first - len(part):2 * size - first - below][::-1]
    np.conj(upper, out=upper)
    np.fft.ifft(part, axis=1, out=part)


def _rotate_into(band: np.ndarray, g: np.ndarray, x_table: np.ndarray,
                 y_table: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Shear the n x n samples g, in place in the n x 2n band, by the
    residual whose _shear_phase tables are x_table and y_table; return the
    view of the result, band's central n columns.  Of the 2n x 2n padded
    copy only the n central rows are read by the x shears and kept by the
    crop, so they alone live in the band.  The y shear takes band's 2n
    columns _SHEAR_CHUNK at a time, transposed into a zero-padded chunk's
    rows, and writes back only band's rows: every 1-D transform sees the
    data of the full padded array, so the result is bitwise the same."""
    n = g.shape[0]
    s = n // 2  # padding on each side
    mid = slice(s, s + n)
    band[:, :s] = band[:, s + n:] = 0.0
    band[:, mid] = g
    _shear(band, x_table, 0)
    for j in range(0, 2 * n, _SHEAR_CHUNK):
        cols = band[:, j:j + _SHEAR_CHUNK]
        part = chunk[:cols.shape[1]]
        part[:, :s] = part[:, s + n:] = 0.0
        part[:, mid] = cols.T
        _shear(part, y_table, j)
        cols[...] = part[:, mid].T
    _shear(band, x_table, 0)
    return band[:, mid]


def _rotate_all(bands: np.ndarray, arrays, pitch: float, r: float,
                n_workers: int = 1) -> list[np.ndarray]:
    """Shear each n x n arrays[q] by the residual r, any r with pi/4
    included, in place in its own n x 2n band, bands[q]; return the views
    of the results, the bands' central n columns, in order.  The x and y
    shear tables are built once, on the calling thread, and each array is
    one parallel_fill item of _rotate_into, each thread with its own
    _SHEAR_CHUNK x 2n chunk."""
    n = bands.shape[1]
    tables = (_shear_phase(n, pitch, -np.tan(r / 2), n // 2), _shear_phase(n, pitch, np.sin(r), n))
    return parallel_fill(
        len(bands), lambda q, chunk: _rotate_into(bands[q], arrays[q], *tables, chunk),
        n_workers, lambda: np.empty((_SHEAR_CHUNK, 2 * n), complex))


def rotate_modal(f: ScalarField, theta: float) -> ScalarField:
    """Rotate the transverse profile by theta about the beam axis.

    A pure mode c_l(r) e^{i l theta_az} maps to e^{-i l theta} times itself.
    Quadrant parts of the angle are exact array rotations (a pure quarter
    turn is one np.rot90 copy); the residual in [-pi/4, pi/4) is applied as
    three FFT shears (x, y, x) on a 2x zero-padded copy, exact for fields
    that are band-limited and negligible at the grid edge.  No 2n x 2n
    array is made: _rotate_all shears the quarter-turned samples in place
    in one n x 2n band of the padded copy's central rows, the y shear in
    column chunks, and the band's centre is copied out.  theta = 0
    (mod 2 pi) returns the input unchanged; a non-finite theta raises
    DomainError.
    """
    k, r = _quarter_turns(theta)
    if r == 0.0:
        return f if k == 0 else ScalarField(f.grid, np.rot90(f.samples, -k).copy())
    band = np.empty((1, f.grid.n, 2 * f.grid.n), complex)
    out = _rotate_all(band, np.rot90(f.samples, -k)[None], f.grid.pitch, r)[0]
    return ScalarField(f.grid, out.copy())


def intensity_frame_fraction(inten: np.ndarray) -> float:
    """Fraction of the total of an intensity |u|^2 in its outermost
    2-pixel frame."""
    total = float(inten.sum())
    if total == 0.0:
        return 0.0
    inner = float(inten[2:-2, 2:-2].sum())
    return (total - inner) / total


@functools.lru_cache(maxsize=4, typed=True)
def _transfer(grid: GridSpec, distance: float, wavelength: float) -> np.ndarray | None:
    """propagate's checks, then None at distance 0, else the read-only Fresnel
    transfer function exp(-i pi lambda z f^2) as its rows 0 ... n/2 (see
    _mirrored), cached because an ensemble propagates every screened field
    by one distance; a call that raises caches nothing, and typed keys keep
    a bool from the entry of an equal number."""
    wavelength = _real("wavelength", wavelength, positive=True)
    if _real("propagation distance", distance) == 0.0:
        return None
    fsq = grid.freqs**2
    with np.errstate(all="ignore"):  # an overflowing phase: checked below
        tf = np.exp(-1j * np.pi * wavelength * distance
                    * (fsq[None, :] + fsq[:grid.n // 2 + 1, None]))
    if not np.isfinite(tf).all():
        raise DomainError(f"Fresnel phase overflows at {wavelength=}, {distance=}")
    tf.flags.writeable = False
    return tf


def _guard(fraction: float, which: str) -> None:
    """The wrap-around guard: AliasingError when at least
    BOUNDARY_ENERGY_LIMIT of the power sits in the outer 2-pixel frame."""
    if fraction >= BOUNDARY_ENERGY_LIMIT:
        raise AliasingError(f"{which} field reaches the grid boundary")


def _fresnel(u: np.ndarray, tf: np.ndarray | None, inten: np.ndarray,
             scratch: np.ndarray) -> float:
    """propagate()'s step by tf = _transfer(...) (None: no step) on the
    samples u, in place and bitwise, allocating nothing grid-sized; both
    guards are the caller's.  inten (real, u's shape, may be _halves(u)[0])
    is left holding |u|^2, whose frame fraction is returned; scratch is
    real, 2 x any rows x n."""
    if tf is not None:
        np.fft.fft2(u, out=u)
        _mirrored(u, tf, out=u)
        np.fft.ifftn(u, axes=(-2, -1), out=u)  # ifft2 ignores out=, as in _unit_screen
    return _frame_fraction(u, inten, scratch)


def _frame_fraction(u: np.ndarray, inten: np.ndarray, scratch: np.ndarray) -> float:
    """intensity_frame_fraction of |u|^2, built in inten (== u.real**2 +
    u.imag**2 bitwise), scratch.shape[1] rows at a time.  Both squares are
    taken before a block is written, so inten may be _halves(u)[0]."""
    rows = scratch.shape[1]
    for i in range(0, len(u), rows):
        re, im = scratch[:, :min(rows, len(u) - i)]
        np.square(u.real[i:i + rows], out=re)
        np.add(re, np.square(u.imag[i:i + rows], out=im), out=inten[i:i + rows])
    return intensity_frame_fraction(inten)


def propagate(f: ScalarField, distance: float, wavelength: float) -> ScalarField:
    """Fresnel-propagate by `distance` using the FFT transfer function.

    distance and wavelength are in waist units, like the grid.  The
    transfer function exp(-i pi lambda z f^2) is unitary, so grid power is
    conserved.  _guard raises AliasingError when BOUNDARY_ENERGY_LIMIT or
    more of the power sits in the outer 2-pixel frame before or after the
    step, since wrap-around then contaminates the result.  The transfer
    function is cached as its rows 0 ... n/2, which mirror onto the rest.
    At distance 0 only the checks and the input guard run.
    """
    tf = _transfer(f.grid, distance, wavelength)
    inten, scratch = np.empty(f.samples.shape), np.empty((2, _SCRATCH_ROWS, f.grid.n))
    _guard(_frame_fraction(f.samples, inten, scratch), "input")
    if tf is None:
        return f
    u = f.samples.copy()
    _guard(_fresnel(u, tf, inten, scratch), "propagated")
    return ScalarField(f.grid, u)
