"""hyperpolate: generalising datasets beyond their affine hull.

Classifies query points as autopolation / interpolation / extrapolation /
hyperpolation, and predicts off the data's subspace with nearest-neighbour,
extrusion, additive, symbolic-lifting and Bayesian methods.
"""

from .bayesian import (
    Hypothesis,
    HypothesisFamily,
    Posterior,
    PredictiveDistribution,
    build_prior,
    family_from_candidates,
    predict,
    update,
)
from .baselines import (
    PolationModel,
    SliceModel,
    fit_additive,
    fit_linear,
    fit_method,
    fit_nn_ambient,
    fit_slice_interpolant,
)
from .benchmark import (
    BenchmarkCase,
    OrderingComparison,
    Report,
    compare_orderings,
    evaluate_methods,
    generate_case,
    reports_equal,
)
from .errors import (
    ConfigurationError,
    CsvFormatError,
    DegenerateFitError,
    DimensionMismatchError,
    HyperpolateError,
    InvalidInputError,
    NoPredictionError,
    UnknownCaseError,
    UnsupportedGeometryError,
)
from .expressions import (
    Grammar,
    complexity,
    evaluate,
    parse,
    serialize,
    struct_key,
)
from .geometry import (
    AUTOPOLATION,
    EXTRAPOLATION,
    HYPERPOLATION,
    INTERPOLATION,
    AffineSubspace,
    Dataset,
    Point,
    Regime,
    Tolerances,
    affine_hull,
    classify,
    hull_chart,
    hyperpolation_distance,
    in_convex_hull,
    project,
)
from .symbolic import (
    CandidateLifting,
    lift_constants,
    predict_candidate,
    restrict,
    search_hyperpolation,
    tie_sets,
    top_tie_set,
)

__version__ = "0.1.0"
