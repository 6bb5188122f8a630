"""Exception types, and the one rule for public numeric values (README, "Errors")."""

import numbers

import numpy as np


class OamTurbError(Exception):
    """Base class for all package errors."""


class RangeError(OamTurbError, ValueError):
    """Parameter outside the supported/validated range."""


class DomainError(OamTurbError, ValueError):
    """Mathematically invalid argument (nonpositive length, w_t < w, ...)."""


class ShapeMismatchError(OamTurbError, ValueError):
    """Operands live on different grids or have incompatible shapes."""


class AliasingError(OamTurbError, RuntimeError):
    """Boundary-energy guard tripped: the grid is too small for the field."""


class StatisticsError(OamTurbError, ValueError):
    """Not enough samples for the requested estimate."""


class ToleranceError(OamTurbError, RuntimeError):
    """Quadrature self-consistency check failed at the configured tolerance."""


class TotalLossError(OamTurbError, RuntimeError):
    """Recovered amplitude is zero; fidelity is undefined for this event."""


def _is_number(value, kind=numbers.Real) -> bool:
    """value is a kind of number (numbers.Integral, Real or Complex), never a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _integer(name: str, value, lo=None, hi=None, error=RangeError) -> int:
    """int(value) for an int or a numpy integer, never a bool or a float
    (else TypeError); error unless lo <= value (<= hi, when given)."""
    if not _is_number(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if lo is not None and not lo <= value <= (value if hi is None else hi):
        bound = f"in [{lo}, {hi}]" if hi is not None else "nonnegative" if lo == 0 else f">= {lo}"
        raise error(f"{name} must be {bound}, got {value}")
    return int(value)


def _real(name: str, value, lo: float | None = None, *, positive: bool = False,
          finite: bool = True, error=DomainError):
    """float(value) for an int, a float or a numpy real, never a bool or a
    str (else TypeError), or a list, tuple or array of them as a float
    array; error unless every value is finite (if finite) and >= lo, or
    > 0 if positive.  An int past the float range is an infinity."""
    x = np.asarray(value) if isinstance(value, (list, tuple, np.ndarray)) else value
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        x = x.astype(float)
    elif _is_number(x):
        x = float(x) if not abs(x) > np.finfo(float).max else np.inf if x > 0 else -np.inf
    else:
        raise TypeError(f"{name} must be a real number, got {value!r}")
    low = x <= 0 if positive else False if lo is None else x < lo  # False for NaN
    if np.any(low) or finite and not np.isfinite(x).all():
        bound = ["finite"] * finite + ["positive"] * positive + [f">= {lo}"] * (lo is not None)
        raise error(f"{name} must be {' and '.join(bound)}, got {value}")
    return x
