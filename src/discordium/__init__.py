"""Multipartite quantum discord for special N-qubit state families.

Closed forms with case-region dispatch, an independent numerical oracle over
sequential conditional measurements, and phase-flip decoherence dynamics
including freezing detection.
"""

from .analytic import (
    CaseRegion,
    DiscordResult,
    NoAnalyticCase,
    classify_region,
    discord_diagonal_field,
    discord_ghz,
    discord_symmetric,
    max_w,
    max_w_mod4,
)
from .decoherence import (
    ChannelParams,
    DynamicsSeries,
    FreezeReport,
    KrausSet,
    SeriesRow,
    apply_phase_flip,
    apply_phase_flip_dense,
    detect_freeze_transition,
    dynamics_sweep,
    evolved_params,
    freeze_changepoint,
    phase_flip_kraus,
)
from .oracle import (
    EnsembleBranch,
    MeasurementTree,
    OracleConfig,
    OracleResult,
    ReducedObjective,
    ReducedPoint,
    conditional_ensemble,
    discord_objective,
    measured_conditional_entropy,
    minimize_discord,
    minimize_family,
    minimize_reduced,
    oracle_reaches,
    reduced_objective,
)
from .pauli import (
    DenseCapExceeded,
    DensityMatrix,
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    PauliSum,
    PauliWord,
    build_diagonal_field,
    build_noisy_ghz_dense,
    build_noisy_ghz_pauli,
    build_symmetric_family,
    family_dense,
    partial_trace,
    realize,
)
from .spectral import (
    SpectrumResult,
    binary_h,
    closed_form_spectrum_3q,
    closed_form_spectrum_4q,
    diagonal_field_spectrum,
    family_spectrum,
    ghz_spectrum,
    hermitian_eigenvalues,
    require_physical,
    spectrum_4q_printed,
    symmetric_spectrum,
    von_neumann_entropy,
    xlog2,
)

__version__ = "0.1.0"
