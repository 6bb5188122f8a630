"""Optical elements and the hybrid-qubit encode/decode pipeline.

The logical qubit lives on |0> = right-circular with azimuthal index +l
and |1> = left-circular with -l.  Jones matrices act in the circular
(right, left) basis; a waveplate with retardance delta at fast-axis angle
eta is

    [[cos(delta/2),                i sin(delta/2) e^{-i 2 eta}],
     [i sin(delta/2) e^{+i 2 eta}, cos(delta/2)]]

so HWP(0) swaps the components with a global factor i; that phase
convention is frozen by a unit test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, ShapeMismatchError, TotalLossError
from .fields import GridSpec, ScalarField, VectorField, expi, make_lg_mode, rotate_modal

MUB_LABELS = ("0", "1", "+", "-", "R", "L")


@dataclass(frozen=True)
class HybridQubit:
    """Qubit coefficients: alpha on |R, +l>, beta on |L, -l>."""

    alpha: complex
    beta: complex
    l: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.l, (int, np.integer)) or isinstance(self.l, bool):
            raise RangeError(f"l must be a positive integer, got {self.l!r}")
        if self.l < 1:
            raise RangeError(f"l must be >= 1, got {self.l}")
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise DomainError(f"qubit must be normalized, |alpha|^2+|beta|^2={norm_sq}")

    @classmethod
    def from_amplitudes(cls, alpha, beta, l: int = 1) -> "HybridQubit":
        """Build a qubit from unnormalized amplitudes."""
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if norm == 0:
            raise DomainError("amplitudes cannot both be zero")
        return cls(complex(alpha) / norm, complex(beta) / norm, l)


@dataclass(frozen=True)
class DecodeResult:
    """Projection amplitudes after post-selection, plus their total weight.

    recovered is the unnormalized two-component polarization state left
    after projecting out the spatial profile; success_prob is its squared
    norm, the probability of passing post-selection.
    """

    recovered: np.ndarray
    success_prob: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.recovered, dtype=np.complex128)
        if arr.shape != (2,):
            raise ShapeMismatchError(f"recovered must have shape (2,), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "recovered", arr)
        norm_sq = float(arr.real.dot(arr.real) + arr.imag.dot(arr.imag))
        if not abs(norm_sq - self.success_prob) <= 1e-9:
            raise DomainError(
                f"success_prob={self.success_prob} inconsistent with |recovered|^2={norm_sq}"
            )


_WAVEPLATE_RETARDANCE = {"hwp": np.pi, "qwp": np.pi / 2}


def _jones(kind: str, angle: float) -> np.ndarray:
    """Jones matrix of an ideal waveplate in the circular basis (module
    docstring)."""
    try:
        delta = _WAVEPLATE_RETARDANCE[kind.lower()]
    except (KeyError, AttributeError):
        raise DomainError(f"waveplate kind must be 'hwp' or 'qwp', got {kind!r}") from None
    c = np.cos(delta / 2)
    s = 1j * np.sin(delta / 2)
    off = np.exp(-2j * angle)
    return np.array([[c, s * off], [s * np.conj(off), c]])


def waveplate(kind: str, angle: float, f: VectorField) -> VectorField:
    """Apply an ideal waveplate ('hwp' or 'qwp') at fast-axis angle."""
    j = _jones(kind, angle)
    r, l = f.right.samples, f.left.samples
    out_r = j[0, 0] * r + j[0, 1] * l
    out_l = j[1, 0] * r + j[1, 1] * l
    return VectorField(ScalarField(f.grid, out_r), ScalarField(f.grid, out_l))


# decode's q-plate swap of the components followed by HWP(0), acting on
# the (right, left) projections of decode_factors
DECODE_MIX = _jones("hwp", 0.0)[:, ::-1]
DECODE_MIX.flags.writeable = False


def _qplate_phases(grid: GridSpec, two_q: int) -> tuple[np.ndarray, np.ndarray]:
    """e^{+i 2q theta} and its conjugate, built on each call: equal to
    np.exp(1j * two_q * grid.polar[1]), bitwise for two_q != 0."""
    c = grid.coords
    phase = np.arctan2(c[:, None], c[None, :])  # grid.polar's theta
    phase *= two_q
    plus = expi(phase)
    return plus, np.conj(plus)


def qplate(q: float, f: VectorField) -> VectorField:
    """Tuned q-plate: |L,m> -> |R,m+2q> and |R,m> -> |L,m-2q>.

    The left component reappears on the right with an extra e^{+i 2q theta}
    and vice versa with e^{-i 2q theta}; radial profiles are untouched.
    """
    two_q = 2 * q
    if abs(two_q - round(two_q)) > 1e-12:
        raise DomainError(f"q must be a half-integer, got {q}")
    plus, minus = _qplate_phases(f.grid, int(round(two_q)))
    out_r = f.left.samples * plus
    out_l = f.right.samples * minus
    return VectorField(ScalarField(f.grid, out_r), ScalarField(f.grid, out_l))


def encode(qubit: HybridQubit, grid: GridSpec) -> VectorField:
    """Prepare alpha |R> LG_{+l} + beta |L> LG_{-l} on the grid.

    Built directly from the cached LG modes; this equals the physical
    polarization-qubit + HWP(0) + qplate(l/2) chain up to a global phase
    and the radial reshaping of the Gaussian into the LG_l profile.
    """
    lg_p = make_lg_mode(qubit.l, grid)
    lg_m = make_lg_mode(-qubit.l, grid)
    return VectorField(
        ScalarField(grid, qubit.alpha * lg_p.samples),
        ScalarField(grid, qubit.beta * lg_m.samples),
    )


def reference_mode(l: int, grid: GridSpec) -> ScalarField:
    """Azimuthally uniform post-selection mode with the LG_{0,l} radial
    modulus, unit norm, built on each call.  Projecting on it makes the
    decoder lossless at zero turbulence."""
    return ScalarField(grid, np.abs(make_lg_mode(l, grid).samples))


def decode(f: VectorField, l: int) -> DecodeResult:
    """Undo the hybrid encoding and post-select the flat azimuthal mode.

    Applies qplate(q=l/2) then HWP(0), then projects each circular
    component onto reference_mode(l); post-selection is ideal.
    """
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 1:
        raise RangeError(f"l must be a positive integer, got {l!r}")
    g = waveplate("hwp", 0.0, qplate(l / 2, f))
    ref = reference_mode(int(l), f.grid)
    pitch_sq = f.grid.pitch**2
    amp_r = complex(np.vdot(ref.samples, g.right.samples) * pitch_sq)
    amp_l = complex(np.vdot(ref.samples, g.left.samples) * pitch_sq)
    recovered = np.array([amp_r, amp_l])
    success = float(recovered.real.dot(recovered.real) + recovered.imag.dot(recovered.imag))
    return DecodeResult(recovered, success)


def decode_factors(l: int, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """decode as two projections and the fixed 2x2 matrix DECODE_MIX.

    Returns (proj_right, proj_left) such that decode(f, l).recovered
    equals pitch^2 * DECODE_MIX @ (<proj_right, f.right>, <proj_left,
    f.left>) up to rounding, where <a, b> = vdot(a, b).  Each projection
    folds the q-plate phase into reference_mode(l).  Callers decoding many
    fields of one structure replace each full-grid decode by two overlaps.
    Nothing is cached: the pair is built in the q-plate phases' arrays;
    theta and the real modulus |LG_l| are the only other grid-sized arrays.
    """
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 1:
        raise RangeError(f"l must be a positive integer, got {l!r}")
    plus, minus = _qplate_phases(grid, int(l))
    ref = np.abs(make_lg_mode(int(l), grid).samples)
    return np.multiply(ref, plus, out=plus), np.multiply(ref, minus, out=minus)


def rotate_frame(f: VectorField, theta: float) -> VectorField:
    """Rotate the whole transverse frame (polarization and profile) by theta.

    Circular polarization vectors pick up e^{+i theta} (right) and
    e^{-i theta} (left); each spatial component is rotated with
    rotate_modal.  For the l = 1 hybrid basis states the two factors
    cancel exactly (zero total angular momentum) and the state is
    invariant.
    """
    phase = np.exp(1j * theta)
    out_r = rotate_modal(f.right, theta).samples * phase
    out_l = rotate_modal(f.left, theta).samples * np.conj(phase)
    return VectorField(ScalarField(f.grid, out_r), ScalarField(f.grid, out_l))


def fidelity(recovered, target: HybridQubit) -> float:
    """|<target | recovered>|^2 after normalizing the recovered state.

    recovered may be a DecodeResult or any two complex amplitudes.
    Raises TotalLossError when the recovered vector is exactly zero.
    """
    if isinstance(recovered, DecodeResult):
        amps = recovered.recovered
    else:
        amps = np.asarray(recovered, dtype=np.complex128)
        if amps.shape != (2,):
            raise ShapeMismatchError(f"recovered must have shape (2,), got {amps.shape}")
    norm_sq = float(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))
    if norm_sq == 0.0:
        raise TotalLossError("recovered state has zero amplitude (total loss)")
    value = (
        abs(np.conj(target.alpha) * amps[0] + np.conj(target.beta) * amps[1]) ** 2
        / norm_sq
    )
    return min(float(value), 1.0)


def mub_states(l: int = 1) -> list[HybridQubit]:
    """The six mutually-unbiased-basis states, in the fixed label order
    MUB_LABELS = ('0', '1', '+', '-', 'R', 'L')."""
    s = 1 / np.sqrt(2)
    return [
        HybridQubit(1, 0, l),
        HybridQubit(0, 1, l),
        HybridQubit(s, s, l),
        HybridQubit(s, -s, l),
        HybridQubit(s, -1j * s, l),
        HybridQubit(s, 1j * s, l),
    ]
