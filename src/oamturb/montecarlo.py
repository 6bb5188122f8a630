"""Seeded Monte Carlo ensemble engine for the hybrid-qubit pipeline.

Every engine draws its screens through turbulence._screen_loop, keyed
for a counter-based generator by (master_seed, strength index,
realization index) in the fidelity and rotation scans (the rotation scan's
one strength is index 0), by (master_seed, realization index) in
run_coefficient_estimate.  Results are then a pure function of the
configuration, bitwise at any n_workers, the thread count (0, the default:
every usable core).  Within a cell the same screens are shared
by all states (paired comparison).  decode is linear and a screen
multiplies both polarization components by one phase, so a realization
needs two overlaps per l of e^{i phi} with precomputed weights; every
state's amplitudes then follow by 2x2 algebra (elements.decode_factors,
DECODE_MIX), in place of a full-grid decode per state.  The fidelity scan
and the coefficient estimate differ only in those weights and their screen
key: both are steps of _overlaps.  The rotation scan rotates the
weights, not the screened fields, so every angle has its own rows; rather
than hold all angles' rows at once it holds a block of screens and one
angle's rows, dropped once that angle's products are taken.  The decode
projections of each group of angles that share a residual shear are
sheared by one fields._rotate_all call, each into its slot of one array,
on the worker threads.  The ties, pi/4 mod pi/2, share the residual -pi/4
(fields._quarter_turns): 16 angles make 3 groups, 8 angles 1.  No engine
keeps a grid-sized array once it returns, beyond the caches the README
lists (LG modes and synthesis tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .analytic import DEFAULT_STRENGTHS
from .elements import DECODE_MIX, MUB_LABELS, decode_factors, mub_states
from .errors import DomainError, RangeError, StatisticsError
from .fields import GridSpec, _expi_half, _quarter_turns, _rotate_all, expi, make_lg_mode
from .turbulence import TurbulenceParams, _screen_loop

# success_prob below this is a total-loss event, excluded from fidelity
LOSS_THRESHOLD = 1e-12
# screens the rotation scan holds at once (1 MB each at 256^2); each
# block rebuilds every angle's weights, shearing one residual group's
# projections at a time, so memory does not grow with the number of angles
_SCREEN_BLOCK = 32
# residual shears this close are one shear (2 pi k / 16 gives ulp-apart pairs)
_SHEAR_GROUP_TOL = 1e-12


@dataclass(frozen=True)
class EnsembleStats:
    mean: float
    stderr: float
    n: int
    min: float
    max: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EnsembleStats":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n == 0:
            nan = float("nan")
            return cls(nan, nan, 0, nan, nan)
        stderr = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(
            float(samples.mean()), stderr, int(n),
            float(samples.min()), float(samples.max()),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one ensemble run."""

    strengths: tuple = DEFAULT_STRENGTHS
    states: tuple = ()
    state_labels: tuple = ()
    n_realizations: int = 500
    master_seed: int = 2
    grid: GridSpec = field(default_factory=GridSpec)
    angles: tuple = ()

    def __post_init__(self) -> None:
        strengths = tuple(TurbulenceParams(s).w_over_r0 for s in self.strengths)
        if not strengths:
            raise DomainError("at least one turbulence strength is required")
        object.__setattr__(self, "strengths", strengths)
        states = tuple(self.states) if self.states else tuple(mub_states(1))
        labels = tuple(str(x) for x in self.state_labels)
        if not labels:
            if len(states) == len(MUB_LABELS) and not self.states:
                labels = MUB_LABELS
            else:
                labels = tuple(f"state{i}" for i in range(len(states)))
        if len(labels) != len(states):
            raise DomainError("state_labels length must match states")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "state_labels", labels)
        if self.n_realizations < 1:
            raise DomainError("n_realizations must be >= 1")
        if self.master_seed < 0:
            raise RangeError("master_seed must be a nonnegative integer")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))


@dataclass(frozen=True)
class FidelityScanRow:
    w_over_r0: float
    state_label: str
    fidelity: EnsembleStats
    success_prob: EnsembleStats
    n_loss: int
    fidelity_overshoot: float  # largest kept fidelity above 1 before clipping


@dataclass(frozen=True)
class RotationScanRow:
    theta: float
    state_label: str
    fidelity: EnsembleStats
    success_prob: EnsembleStats
    fidelity_overshoot: float


@dataclass(frozen=True)
class CoefficientEstimate:
    """Ensemble estimates of the +/-l coupling weights.

    c2l_reverse carries the opposite cross term |<l|psi_{-l}>|^2 and
    mirror_dev the largest per-realization |<l|psi_l> - <-l|psi_{-l}>| (an
    exact identity up to rounding).
    """

    c0: EnsembleStats
    c2l: EnsembleStats
    c2l_reverse: EnsembleStats
    mirror_dev: float
    n: int


def _weights(ls: list[int], grid: GridSpec, theta: float = 0.0,
             projections: list | None = None) -> np.ndarray:
    """Rows W_{+l}, W_{-l} per l in ls: for a screen phase factor u,
    X = W_{+l} . u and Y = W_{-l} . u are the decode_factors overlaps of
    rotate_frame(., theta) applied to LG_{+l} u and LG_{-l} u.

    rotate_modal is R_theta = S_r Q^k (fields._quarter_turns); its exact
    adjoint Q^{-k} S_{-r} acts on each projection, not on each screened field.
    projections: per l, the decode_factors pair sheared by -r (default r = 0),
    a pure shear even at a tie, where -r = pi/4: fields._rotate_all at the
    split (0, -r), not the (1, -pi/4) of _quarter_turns(pi/4), which is
    no exact adjoint (1e-8 to 2e-7 off on a 64^2 grid).
    """
    k = _quarter_turns(theta)[0]
    frame = np.exp(1j * theta)
    out = np.empty((len(ls), 2, grid.n, grid.n), dtype=np.complex128)  # rows, in place
    for l, pair, ws in zip(ls, projections or [decode_factors(l, grid) for l in ls], out):
        for proj, mode, phase, w in zip(pair, (l, -l), (np.conj(frame), frame), ws):
            if theta != 0.0:
                proj = np.multiply(np.rot90(proj, k), phase, out=w)
            np.multiply(np.conj(proj, out=w), make_lg_mode(mode, grid).samples, out=w)
    return out.reshape(2 * len(ls), -1)


def _score(xy: np.ndarray, config: ExperimentConfig):
    """(success, fidelity, unclipped fidelity) of every state from the
    overlaps xy[..., row] of _weights, each of shape xy.shape[:-1] +
    (n_states,).  Fidelity is clipped at 1 as elements.fidelity does, and
    is NaN for a total loss (success below LOSS_THRESHOLD)."""
    ls = sorted({s.l for s in config.states})
    row = np.array([2 * ls.index(s.l) for s in config.states])
    alpha = np.array([s.alpha for s in config.states])
    beta = np.array([s.beta for s in config.states])
    ax, by = alpha * xy[..., row], beta * xy[..., row + 1]
    pitch_sq = config.grid.pitch**2
    amp_r = pitch_sq * (DECODE_MIX[0, 0] * ax + DECODE_MIX[0, 1] * by)
    amp_l = pitch_sq * (DECODE_MIX[1, 0] * ax + DECODE_MIX[1, 1] * by)
    success = amp_r.real**2 + amp_r.imag**2 + amp_l.real**2 + amp_l.imag**2
    lost = success < LOSS_THRESHOLD
    inner = np.conj(alpha) * amp_r + np.conj(beta) * amp_l
    raw = (inner.real**2 + inner.imag**2) / np.where(lost, 1.0, success)
    raw[lost] = np.nan
    return success, np.minimum(raw, 1.0), raw


def _cell_stats(suc: np.ndarray, fid: np.ndarray, raw: np.ndarray) -> dict:
    """Row statistics of one cell; total losses count in success only."""
    kept = ~np.isnan(fid)
    return dict(
        fidelity=EnsembleStats.from_samples(fid[kept]),
        success_prob=EnsembleStats.from_samples(suc),
        fidelity_overshoot=float(np.max(raw[kept], initial=1.0)) - 1.0,
    )


def _overlaps(weights: np.ndarray, params: list[TurbulenceParams], n_real: int, key,
              grid: GridSpec, n_workers: int) -> np.ndarray:
    """xy[si, i] = weights @ u for the phase factor u of screen key(si, i)
    at params[si], built in place in the loop's complex array u, whose
    second half holds the phase (fields._expi_half).  At zero
    strength u is all ones, so such a cell is one field, not an ensemble:
    the loop steps its realization 0, copied here to the rest."""
    xy = np.empty((len(params), n_real, len(weights)), complex)

    def step(si: int, i: int, phase: np.ndarray, u: np.ndarray) -> None:
        xy[si, i] = weights @ _expi_half(u).ravel()

    _screen_loop(params, n_real, key, grid, n_workers, step)
    zero = [si for si, p in enumerate(params) if p.w_over_r0 == 0.0]
    xy[zero, 1:] = xy[zero, :1]
    return xy


def _fidelity_samples(config: ExperimentConfig, n_workers: int = 0):
    """_score of every (strength, realization, state)."""
    xy = _overlaps(_weights(sorted({s.l for s in config.states}), config.grid),
                   [TurbulenceParams(w_over_r0=strength) for strength in config.strengths],
                   config.n_realizations, lambda si, i: (config.master_seed, si, i),
                   config.grid, n_workers)
    return _score(xy, config)


def run_fidelity_scan(config: ExperimentConfig, n_workers: int = 0) -> list[FidelityScanRow]:
    """Fidelity and success probability per (strength, state) cell.

    Total-loss realizations (success below LOSS_THRESHOLD) are excluded
    from the fidelity statistics and counted in n_loss; success statistics
    include every realization.  A config with angles raises DomainError:
    only run_rotation_scan reads them.
    """
    if config.angles:
        raise DomainError("fidelity scan takes no angles; use run_rotation_scan")
    suc, fid, raw = _fidelity_samples(config, n_workers)
    return [
        FidelityScanRow(w_over_r0=strength, state_label=label,
                        n_loss=int(np.isnan(fid[si, :, k]).sum()),
                        **_cell_stats(suc[si, :, k], fid[si, :, k], raw[si, :, k]))
        for si, strength in enumerate(config.strengths)
        for k, label in enumerate(config.state_labels)
    ]


def _rotation_samples(config: ExperimentConfig, n_workers: int = 0):
    """_score of every (angle, realization, state).  Screens are held a
    block of _SCREEN_BLOCK realizations at a time while every angle's
    weights are built, one angle's at a time, so memory is bounded
    whatever the realizations and angles.  Each residual group's
    projections are sheared by one fields._rotate_all into `sheared`, which
    a scan of pure quarter turns (1, 2 or 4 angles) never allocates."""
    if len(config.strengths) != 1:
        raise DomainError("rotation scan runs at a single turbulence strength")
    if not config.angles:
        raise DomainError("rotation scan requires at least one angle")
    grid = config.grid
    params = TurbulenceParams(w_over_r0=config.strengths[0])
    ls = sorted({s.l for s in config.states})
    xy = np.empty((len(config.angles), config.n_realizations, 2 * len(ls)), complex)
    # at zero strength every realization is one field: 0 is taken and copied
    n_real = 1 if params.w_over_r0 == 0.0 else config.n_realizations
    groups: dict[float, list[int]] = {}  # first residual shear -> angles
    for j, resid in enumerate(_quarter_turns(t)[1] for t in config.angles):
        key = next((r for r in groups if abs(r - resid) < _SHEAR_GROUP_TOL), resid)
        groups.setdefault(key, []).append(j)
    # once per run; a grid that cannot sample the modes fails before any screen
    factors = [decode_factors(l, grid) for l in ls]
    # one residual group's sheared projections, refilled for every group
    sheared = np.empty((len(ls), 2, grid.n, grid.n), complex) if any(groups) else None
    # one block of phase factors, refilled for every block of realizations
    screens = np.empty((min(_SCREEN_BLOCK, n_real), grid.n * grid.n), dtype=np.complex128)

    def draw(_, b: int, phase: np.ndarray, u: np.ndarray) -> None:
        expi(phase, out=screens[b].reshape(grid.n, grid.n))

    for first in range(0, n_real, _SCREEN_BLOCK):
        block = range(first, min(first + _SCREEN_BLOCK, n_real))
        _screen_loop([params], len(block), lambda _, b: (config.master_seed, 0, block[b]),
                     grid, n_workers, draw)
        for resid, members in groups.items():
            if resid:
                _rotate_all(sheared.reshape(-1, grid.n, grid.n),
                            [p for pair in factors for p in pair], grid.pitch, (0, -resid),
                            n_workers)
            for j in members:
                weights = _weights(ls, grid, config.angles[j],
                                   list(sheared) if resid else factors)
                for i, u in zip(block, screens):
                    xy[j, i] = weights @ u
                del weights  # 2 MiB an l at 256^2: not held through the next group's shears
    xy[:, n_real:] = xy[:, :1]
    return _score(xy, config)


def run_rotation_scan(config: ExperimentConfig, n_workers: int = 0) -> list[RotationScanRow]:
    """Fidelity per (angle, state) with rotate_frame inserted between
    screen and decode, at a single turbulence strength.

    The theta = 0 column follows the identical arithmetic path as
    run_fidelity_scan, so those rows match it bitwise for the same seed.
    """
    suc, fid, raw = _rotation_samples(config, n_workers)
    return [
        RotationScanRow(theta=theta, state_label=label,
                        **_cell_stats(suc[j, :, k], fid[j, :, k], raw[j, :, k]))
        for j, theta in enumerate(config.angles)
        for k, label in enumerate(config.state_labels)
    ]


def run_coefficient_estimate(
    l: int,
    params: TurbulenceParams,
    n: int,
    master_seed: int,
    grid: GridSpec | None = None,
    n_workers: int = 0,
) -> CoefficientEstimate:
    """Monte Carlo estimate of the coupling weights from raw overlaps.

    Per screen: c0 sample |<l|psi_l>|^2, c2l sample |<-l|psi_l>|^2, and
    the reverse cross term |<l|psi_{-l}>|^2; psi_m is LG_m times the
    screen phase u, so each overlap <a|psi_b> is one weight row
    conj(LG_a) LG_b dotted with u.  The two keep rows (a = b) are built
    separately, so mirror_dev compares two independent overlaps.  Screens
    are keyed by (master_seed, realization index).
    """
    if n < 100:
        raise StatisticsError(f"need >= 100 realizations, got {n}")
    if master_seed < 0:
        raise RangeError("master_seed must be a nonnegative integer")
    if grid is None:
        grid = GridSpec()
    lg_p, lg_m = (make_lg_mode(m, grid).samples for m in (l, -l))
    # rows <l|psi_l>, <-l|psi_l>, <l|psi_{-l}>, <-l|psi_{-l}>
    weights = np.array([(np.conj(a) * b).ravel()
                        for a, b in ((lg_p, lg_p), (lg_m, lg_p), (lg_p, lg_m), (lg_m, lg_m))])
    ov = _overlaps(weights, [params], n, lambda si, i: (master_seed, i), grid, n_workers)[0]
    ov *= grid.pitch**2
    power = ov.real**2 + ov.imag**2
    return CoefficientEstimate(
        c0=EnsembleStats.from_samples(power[:, 0]),
        c2l=EnsembleStats.from_samples(power[:, 1]),
        c2l_reverse=EnsembleStats.from_samples(power[:, 2]),
        mirror_dev=float(np.abs(ov[:, 0] - ov[:, 3]).max()),
        n=int(n),
    )
