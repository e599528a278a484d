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
)
from .decoherence import (
    ChannelParams,
    DynamicsSeries,
    FreezeReport,
    SeriesRow,
    detect_freeze_transition,
    dynamics_sweep,
    evolved_params,
)
from .oracle import (
    MeasurementTree,
    OracleConfig,
    OracleResult,
    minimize_discord,
    minimize_family,
    minimize_reduced,
    oracle_reaches,
)
from .pauli import (
    DenseCapExceeded,
    DensityMatrix,
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    realize,
)
from .spectral import (
    SpectrumResult,
    diagonal_field_spectrum,
    family_spectrum,
    ghz_spectrum,
    hermitian_eigenvalues,
    require_physical,
    symmetric_spectrum,
    von_neumann_entropy,
    xlog2,
)

__version__ = "0.1.0"
