"""Schreier graphs of tree automorphism groups, graph coverings, and
numerical certification of their spectra."""

from .config import DEFAULT_CONFIG, RunConfig, ResourceLimitError, FormatError
from .omega import (
    AlmostConstantError,
    OmegaClass,
    OmegaWord,
    classify_omega,
)
from .actions import (
    TreeAutomorphism,
    TrivialityResult,
    generator_action,
    verify_trivial,
    word_action,
)
from .presentation import (
    STANDARD_RELATIONS,
    abelianization_class,
    relators_U,
)
from .growth import BallEnumeration, GrowthReport, ball_sizes, enumerate_ball
from .graphs import (
    IsolatedVertexError,
    RadiusTooSmallError,
    LinearOperator,
    Edge,
    Multigraph,
    WeightedGraph,
    markov_weights,
    laplace_type_operator,
    markov_operator,
    shift_square_transform,
)
from .schreier import (
    NotAPathError,
    PathForm,
    IsomorphismResult,
    LevelCertificate,
    CayleyBall,
    path_canonical_form,
    UpsilonSpec,
    cayley_ball,
    check_isomorphic,
    level_certificate,
    level_path_form,
    level_projection_covering,
    schreier_graph,
    upsilon_graph,
)
from .covering import (
    WindowTooSmallError,
    BadStartError,
    NotAnEigenpairError,
    CoveringReport,
    FolnerReport,
    HulanickiRecord,
    InclusionReport,
    CoveringMap,
    fiber_count,
    folner_balls,
    hulanicki_residual,
    lift_path,
    lift_weights,
    spectral_inclusion_report,
    verify_covering,
    window_pullback_residual,
)
from .spectra import (
    SpectrumReport,
    SweepResult,
    DihedralSpectrum,
    DihedralReductionReport,
    MomentSequence,
    GRIG_TARGET,
    IntervalUnion,
    dihedral_reduction_check,
    dihedral_weighted_spectrum,
    level_spectrum,
    markov_eigenvalues_banded,
    moments_via_eigendecomposition,
    spectral_moments,
    spectrum_sweep,
)
from .serialize import (
    EIGENVALUE_CSV_HEADER,
    FORMAT_VERSION,
    export_dot,
    export_eigenvalue_csv,
    parse_graph,
    serialize_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
