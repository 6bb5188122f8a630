"""Hybrid polarization/OAM qubits through weak Kolmogorov turbulence.

Numerical simulator and analysis library: Laguerre-Gauss fields, validated
Kolmogorov phase screens, q-plate encode/decode of rotation-invariant
hybrid qubits, semi-analytic coupling coefficients, and a seeded Monte
Carlo ensemble engine, all cross-checked against each other.
"""

__version__ = "0.1.0"

from .errors import (
    AliasingError,
    DomainError,
    OamTurbError,
    RangeError,
    ShapeMismatchError,
    StatisticsError,
    ToleranceError,
    TotalLossError,
)
from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    make_lg_mode,
    overlap,
    propagate,
    rotate_modal,
)
from .turbulence import (
    Broadening,
    PhaseScreen,
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
    save_screen,
    structure_function,
    structure_function_estimate,
)
from .elements import (
    MUB_LABELS,
    DecodeResult,
    HybridQubit,
    decode,
    encode,
    fidelity,
    mub_states,
    qplate,
    reference_mode,
    rotate_frame,
    waveplate,
)
from .analytic import (
    DEFAULT_STRENGTHS,
    CouplingCoefficients,
    QuadratureConfig,
    coupling_coefficients,
    ring_coefficients,
    success_probability,
)
from .montecarlo import (
    CoefficientEstimate,
    EnsembleStats,
    ExperimentConfig,
    FidelityScanRow,
    RotationScanRow,
    run_coefficient_estimate,
    run_fidelity_scan,
    run_rotation_scan,
)
