"""Benchmark harness: built-in worked cases and error-vs-distance reports.

Each case embeds a 1D slice of a known 2D surface, samples it on a fixed
grid, and queries a fixed lattice of on- and off-slice points.  Reports bin
prediction error by distance from the data's affine hull, count the regime
of every query, and are deterministic given (case, seed) apart from the
wall-clock runtime field.
"""

import sys
import time
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .baselines import fit_method
from .errors import InvalidInputError, NoPredictionError, UnknownCaseError
from .expressions import _is_count, evaluate, parse, struct_key, variables_of
from .geometry import (
    AUTOPOLATION,
    EXTRAPOLATION,
    HYPERPOLATION,
    INTERPOLATION,
    Dataset,
    Tolerances,
    _as_points,
    classify,
    hyperpolation_distance,
)
from .symbolic import (
    _line_normal,
    predict_candidate,
    search_hyperpolation,
    top_tie_set,
)

__all__ = [
    "BenchmarkCase",
    "BandError",
    "MethodReport",
    "Report",
    "OrderingComparison",
    "BUILTIN_CASES",
    "DEFAULT_BAND_EDGES",
    "generate_case",
    "evaluate_methods",
    "compare_orderings",
    "reports_equal",
]

DEFAULT_BAND_EDGES = (0.0, 1.0, 5.0, 10.0, 20.0, 40.0)


def _real(v):
    """True for a finite real number; a bool is not one."""
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    return real and abs(v) <= sys.float_info.max


def _all(v, check, length=None):
    """True for a list or tuple of items that pass ``check``, ``length`` of them if given."""
    return isinstance(v, (list, tuple)) and length in (None, len(v)) and all(map(check, v))


def _is_truth(v):
    try:
        return isinstance(v, str) and variables_of(parse(v)) <= {"x", "y"}
    except InvalidInputError:
        return False


def _floats(v):
    return tuple(map(_floats, v)) if isinstance(v, (list, tuple)) else float(v)


# field -> (check, expected form) for every field of a BenchmarkCase
_CASE_RULES = {
    "name": (
        lambda v: isinstance(v, str) and v and not set(v) & set("/\\\0"),
        "a non-empty string without '/', '\\' or NUL",
    ),
    "truth": (_is_truth, "an expression over the variables x and y"),
    "slice_base": (lambda v: _all(v, _real, 2), "2 finite numbers"),
    "slice_direction": (lambda v: _all(v, _real, 2), "2 finite numbers"),
    "sample_params": (lambda v: _all(v, _real), "finite numbers"),
    "noise_sigma": (lambda v: _real(v) and v >= 0, "a finite number >= 0"),
    "seed": (_is_count, "a non-negative integer"),
    "grid_ranges": (
        lambda v: _all(v, lambda pair: _all(pair, _real, 2) and pair[0] <= pair[1], 2),
        "2 [lo, hi] pairs of finite numbers with lo <= hi",
    ),
    "grid_step": (lambda v: _real(v) and v > 0, "a finite number > 0"),
}


@dataclass(frozen=True)
class BenchmarkCase:
    """A ground-truth surface with a sampled slice and a query lattice, its
    fields checked by ``_CASE_RULES`` and its sequences stored as float tuples."""

    name: str
    truth: str  # expression over the ambient variables x, y
    slice_base: tuple
    slice_direction: tuple
    sample_params: tuple  # slice parameter values; locations = base + t*dir
    noise_sigma: float = 0.0
    seed: int = 0
    grid_ranges: tuple = ((-40.0, 40.0), (-40.0, 40.0))
    grid_step: float = 1.0

    def __post_init__(self):
        for field, (check, form) in _CASE_RULES.items():
            value = getattr(self, field)
            if not check(value):
                raise InvalidInputError(f"case field {field!r} must be {form}, got {value!r}")
            if isinstance(value, (list, tuple)):
                object.__setattr__(self, field, _floats(value))

    def truth_at(self, points):
        """The truth's values at the rows of an (n, 2) array of points."""
        values = evaluate(parse(self.truth), {"x": points[:, 0], "y": points[:, 1]})
        return np.broadcast_to(np.asarray(values, dtype=float), (points.shape[0],)).copy()

    def sample_locations(self):
        t = np.asarray(self.sample_params, dtype=float)
        base = np.asarray(self.slice_base, dtype=float)
        direction = np.asarray(self.slice_direction, dtype=float)
        return base[None, :] + t[:, None] * direction[None, :]

    def query_grid(self):
        (x0, x1), (y0, y1) = self.grid_ranges
        xs = np.arange(x0, x1 + self.grid_step / 2, self.grid_step)
        ys = np.arange(y0, y1 + self.grid_step / 2, self.grid_step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


def _builtin_cases():
    ripple = BenchmarkCase(
        name="ripple",
        truth="cos(sqrt(add(pow2(x),pow2(y))))",
        slice_base=(0.0, -20.0),
        slice_direction=(1.0, 0.0),
        sample_params=tuple(float(t) for t in range(-40, 41)),
        grid_ranges=((-40.0, 40.0), (-40.0, 40.0)),
    )
    cone = BenchmarkCase(
        name="cone",
        truth="sqrt(add(pow2(x),pow2(y)))",
        slice_base=(0.0, 1.0),
        slice_direction=(1.0, 0.0),
        sample_params=tuple(float(t) for t in range(-20, 21)),
        grid_ranges=((-20.0, 20.0), (-20.0, 20.0)),
    )
    diagonal = BenchmarkCase(
        name="diagonal_xy",
        truth="mul(x,y)",
        slice_base=(0.0, 0.0),
        slice_direction=(1.0, 1.0),
        sample_params=tuple(float(t) for t in range(-20, 21)),
        grid_ranges=((-20.0, 20.0), (-20.0, 20.0)),
    )
    return {c.name: c for c in (ripple, cone, diagonal)}


BUILTIN_CASES = _builtin_cases()


def generate_case(spec):
    """Deterministic (Dataset, BenchmarkCase) for a name or explicit case.

    Sample values come from the analytic truth expression; noise, when
    configured, is drawn from a generator seeded by the case seed.
    """
    if isinstance(spec, str):
        try:
            case = BUILTIN_CASES[spec]
        except KeyError:
            raise UnknownCaseError(
                f"unknown case {spec!r}; built-ins: {sorted(BUILTIN_CASES)}"
            ) from None
    elif isinstance(spec, BenchmarkCase):
        case = spec
    else:
        raise UnknownCaseError(f"cannot build a case from {type(spec).__name__}")
    locations = case.sample_locations()
    values = case.truth_at(locations)
    if case.noise_sigma > 0:
        rng = np.random.default_rng(case.seed)
        values = values + case.noise_sigma * rng.standard_normal(values.shape)
    return Dataset(locations, values, noise_sigma=case.noise_sigma), case


@dataclass(frozen=True)
class BandError:
    lo: float
    hi: float | None  # None = unbounded final band
    rmse: float
    max_abs: float
    count: int


@dataclass(frozen=True)
class MethodReport:
    name: str
    bands: tuple
    regime_counts: dict
    misses: int
    runtime_s: float


@dataclass(frozen=True)
class Report:
    case: str
    seed: int
    methods: tuple

    def to_dict(self):
        return asdict(self)

    def method(self, name):
        for m in self.methods:
            if m.name == name:
                return m
        raise KeyError(name)


def reports_equal(a, b):
    """Structural equality of two reports, ignoring wall-clock runtimes."""
    da, db = a.to_dict(), b.to_dict()
    for d in (da, db):
        for m in d["methods"]:
            m["runtime_s"] = 0.0
    return da == db


def _predictor(name, data, grammar, budget):
    """The predict function of method ``name`` fitted to ``data``: the top
    candidate of a symbolic search for 'symbolic', else a baseline."""
    if name != "symbolic":
        return fit_method(name, data).predict
    top = top_tie_set(search_hyperpolation(data, grammar=grammar, budget=budget))
    if not top:
        raise NoPredictionError("symbolic search returned no candidate")
    return partial(predict_candidate, top[0])


def evaluate_methods(
    methods,
    case,
    dataset=None,
    grammar=None,
    budget=None,
    tols=None,
):
    """Fit methods on the case dataset and bin grid errors by hull distance.

    ``methods`` maps names to fitted predictors (objects with .predict), or
    is a list of method names ('symbolic' triggers the search).  Prediction
    domain errors are counted as misses and excluded from the error bins.
    """
    generated, case = generate_case(case)
    data = dataset if dataset is not None else generated
    queries = case.query_grid()
    truth = case.truth_at(queries)
    tols = tols or Tolerances()
    dists = hyperpolation_distance(queries, data, tol=tols.subspace_tol)
    tags = [regime.tag for regime in classify(queries, data, tols)]
    regime_counts = {
        tag: tags.count(tag)
        for tag in (AUTOPOLATION, INTERPOLATION, EXTRAPOLATION, HYPERPOLATION)
    }
    edges = DEFAULT_BAND_EDGES
    method_reports = []
    predictions = {}
    for name in methods:
        t0 = time.perf_counter()
        if isinstance(methods, dict):
            predict = methods[name].predict
        else:
            predict = _predictor(name, data, grammar, budget)
        pred = np.asarray(predict(queries), dtype=float)
        runtime = time.perf_counter() - t0
        predictions[name] = pred
        finite = np.isfinite(pred)
        misses = int((~finite).sum())
        err = np.where(finite, pred - truth, np.nan)
        bands = []
        for i, lo in enumerate(edges):
            hi = edges[i + 1] if i + 1 < len(edges) else None
            mask = (dists >= lo) & (dists < (np.inf if hi is None else hi)) & finite
            count = int(mask.sum())
            if count:
                rmse = float(np.sqrt(np.mean(err[mask] ** 2)))
                mx = float(np.max(np.abs(err[mask])))
            else:
                rmse = mx = 0.0
            bands.append(BandError(lo=lo, hi=hi, rmse=rmse, max_abs=mx, count=count))
        method_reports.append(
            MethodReport(
                name=name,
                bands=tuple(bands),
                regime_counts=dict(regime_counts),
                misses=misses,
                runtime_s=runtime,
            )
        )
    report = Report(case=case.name, seed=case.seed, methods=tuple(method_reports))
    return report, predictions, truth, queries


@dataclass(frozen=True)
class OrderingComparison:
    """Reports for search-on-raw-samples vs interpolate-first pipelines."""

    pipeline_a: Report
    pipeline_b: Report
    top_a: object
    top_b: object
    resampled: Dataset

    def same_top_structure(self):
        if self.top_a is None or self.top_b is None:
            return False
        return struct_key(self.top_a.expr) == struct_key(self.top_b.expr)


def _slice_dataset(case, data):
    """The samples as a 1D dataset over the slice parameter."""
    t = np.asarray(case.sample_params, dtype=float)
    order = np.argsort(t, kind="stable")
    return t[order], data.values[order]


def resample_params(t, values):
    """Piecewise-linear resample at 4x density over the parameter.

    Returns the dense parameters, values, and a noise estimate derived from
    the second differences (the linear-interpolation error scale), so that
    searches on the resampled data run in flexible mode.
    """
    dense = np.linspace(t[0], t[-1], (t.size - 1) * 4 + 1)
    dense_vals = np.interp(dense, t, values)
    second = np.abs(np.diff(values, 2)) if t.size >= 3 else np.array([])
    est = float(np.max(second)) / 8.0 if second.size else 0.0
    return dense, dense_vals, max(est, 1e-9)


class _IntrinsicCandidateMethod:
    """Evaluate an intrinsic-frame (new-dimension) candidate on the grid.

    Grid queries map to (slice parameter, signed offset from the slice).
    """

    def __init__(self, candidate, case):
        self.candidate = candidate
        self.base = np.asarray(case.slice_base, dtype=float)
        direction = np.asarray(case.slice_direction, dtype=float)
        self.direction = direction
        self.normal = _line_normal(direction / np.linalg.norm(direction))

    def predict(self, points):
        pts, _ = _as_points(points, self.base.size)
        rel = pts - self.base
        t = rel @ self.direction / (self.direction @ self.direction)
        offset = rel @ self.normal
        return predict_candidate(self.candidate, np.column_stack([t, offset]))


def compare_orderings(case, grammar=None, budget=None):
    """Run both pipeline orderings and emit their reports side by side.

    Both pipelines search the slice data in its intrinsic 1D form (the
    question is about search strategy, not the embedding).  Pipeline A
    searches the raw samples; pipeline B first interpolates/extrapolates
    along the slice (piecewise-linear resample at 4x density) and searches
    the resampled data, necessarily in flexible mode.  Both reports are
    emitted side by side without a verdict.
    """
    data, case = generate_case(case)
    t, values = _slice_dataset(case, data)
    raw = Dataset(t[:, None], values, noise_sigma=data.noise_sigma)
    dense, dense_vals, est = resample_params(t, values)
    resampled = Dataset(
        dense[:, None], dense_vals, noise_sigma=max(data.noise_sigma, est)
    )
    cands_a = search_hyperpolation(raw, grammar=grammar, budget=budget)
    cands_b = search_hyperpolation(resampled, grammar=grammar, budget=budget)
    top_a = top_tie_set(cands_a)
    top_b = top_tie_set(cands_b)
    methods_a = (
        {"symbolic": _IntrinsicCandidateMethod(top_a[0], case)} if top_a else {}
    )
    methods_b = (
        {"symbolic": _IntrinsicCandidateMethod(top_b[0], case)} if top_b else {}
    )
    report_a, *_ = evaluate_methods(methods_a, case, dataset=data)
    report_b, *_ = evaluate_methods(methods_b, case, dataset=data)
    return OrderingComparison(
        pipeline_a=report_a,
        pipeline_b=report_b,
        top_a=top_a[0] if top_a else None,
        top_b=top_b[0] if top_b else None,
        resampled=resampled,
    )
