"""Non-symbolic polation baselines.

Two nearest-neighbour variants (ambient-nearest sample, and projection onto
the data subspace followed by a 1D interpolant), a least-squares linear model
on the subspace, extrusion of a subspace model along the orthogonal
directions, and the additive lifting f(x, y) = f(x) + f(y) - f(y0).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateFitError,
    UnsupportedGeometryError,
)
from .geometry import AffineSubspace, hull_chart

__all__ = [
    "SliceModel",
    "PolationModel",
    "NearestSampleModel",
    "ExtrusionModel",
    "LinearModel",
    "AdditiveModel",
    "METHOD_NAMES",
    "fit_slice_interpolant",
    "fit_nn_ambient",
    "fit_nn_projected",
    "fit_linear",
    "fit_extrusion",
    "fit_additive",
    "fit_method",
    "predict_additive",
]

METHOD_NAMES = ("nn_ambient", "nn_projected", "linear", "extrusion", "additive")


@dataclass(frozen=True, eq=False)
class SliceModel:
    """A piecewise-linear model of the function along a 1D subspace.

    It interpolates ``values`` at the sorted intrinsic ``knots`` and
    extrapolates linearly from the two outermost knots; a single knot gives
    a constant.
    """

    chart: AffineSubspace
    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.chart.dim != 1:
            raise UnsupportedGeometryError("slice models require a 1D subspace")
        object.__setattr__(self, "knots", np.asarray(self.knots, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        xs, ys = self.knots, self.values
        out = np.interp(t, xs, ys)
        if xs.size >= 2:
            lo = t < xs[0]
            hi = t > xs[-1]
            if np.any(lo):
                slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
                out = np.where(lo, ys[0] + slope * (t - xs[0]), out)
            if np.any(hi):
                slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
                out = np.where(hi, ys[-1] + slope * (t - xs[-1]), out)
        return float(out[0]) if scalar else out


def fit_slice_interpolant(data, chart=None):
    """Default inner model: piecewise-linear through the slice samples.

    Duplicate intrinsic locations are averaged (strict mode guarantees their
    values agree, so averaging is a no-op there).
    """
    chart = chart or hull_chart(data)
    if chart.dim != 1:
        raise UnsupportedGeometryError(
            f"piecewise-linear interpolant needs a 1D hull, got dim {chart.dim}"
        )
    t = chart.to_intrinsic(data.locations)[:, 0]
    order = np.argsort(t, kind="stable")
    ts, ys = t[order], data.values[order]
    knots, counts = [], []
    vals = []
    for ti, yi in zip(ts, ys):
        if knots and abs(ti - knots[-1]) <= 1e-12:
            vals[-1] += yi
            counts[-1] += 1
        else:
            knots.append(ti)
            vals.append(yi)
            counts.append(1)
    return SliceModel(chart, np.asarray(knots), np.asarray(vals) / np.asarray(counts))


class PolationModel:
    """A fitted prediction method; immutable, predictions are pure.

    Use the ``fit_*`` functions (or :func:`fit_method`) to construct one.
    ``predict`` takes one point (returns a float) or an (n, dim) array of
    points (returns an (n,) array).
    """

    def predict(self, points):
        points = np.asarray(points, dtype=float)
        scalar = points.ndim == 1
        out = self._predict(np.atleast_2d(points))
        return float(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class NearestSampleModel(PolationModel):
    """The value of the Euclidean-nearest sample location."""

    locations: np.ndarray
    values: np.ndarray

    def _predict(self, pts):
        d2 = ((pts[:, None, :] - self.locations[None, :, :]) ** 2).sum(axis=2)
        # argmin takes the first minimum: ties break to the lowest index
        return self.values[np.argmin(d2, axis=1)]


@dataclass(frozen=True, eq=False)
class ExtrusionModel(PolationModel):
    """A 1D subspace model evaluated at the query's projection."""

    chart: AffineSubspace
    inner: object

    def _predict(self, pts):
        t = self.chart.to_intrinsic(pts)[:, 0]
        return np.atleast_1d(self.inner(t))


@dataclass(frozen=True, eq=False)
class LinearModel(PolationModel):
    """An affine function of the intrinsic coordinates."""

    chart: AffineSubspace
    coeffs: np.ndarray

    def _predict(self, pts):
        coords = self.chart.to_intrinsic(pts)
        return self.coeffs[0] + coords @ self.coeffs[1:]


@dataclass(frozen=True, eq=False)
class AdditiveModel(PolationModel):
    """The additive lifting of a slice model; see :func:`predict_additive`."""

    inner: SliceModel
    offset: float
    literal: bool

    def _predict(self, pts):
        return predict_additive(self.inner, pts, self.offset, self.literal)


def fit_nn_ambient(data):
    """Predict the value of the Euclidean-nearest sample location."""
    return NearestSampleModel(data.locations, data.values)


def _as_inner(inner, chart):
    if isinstance(inner, SliceModel):
        model_chart = inner.chart
        fn = inner
    elif isinstance(inner, LinearModel):
        model_chart = inner.chart
        coeffs = inner.coeffs

        def fn(t):
            return coeffs[0] + coeffs[1] * np.asarray(t, dtype=float)

    else:
        raise ConfigurationError(
            "inner model must be a SliceModel or a fitted 'linear' PolationModel"
        )
    if model_chart.dim != chart.dim or not np.allclose(
        model_chart.basis, chart.basis, atol=1e-9
    ) or not np.allclose(model_chart.base, chart.base, atol=1e-9):
        raise ConfigurationError("inner model does not cover the data's affine hull")
    return fn


def fit_nn_projected(data, inner=None):
    """Interpolate/extrapolate along the subspace first, then carry those
    values to off-subspace queries at the projected location.

    This is extrusion of the slice interpolant: the model is the one
    :func:`fit_extrusion` builds.
    """
    return fit_extrusion(data, inner)


def fit_linear(data):
    """Least-squares affine model of the intrinsic coordinates.

    With exactly k+1 affinely independent strict samples this interpolates
    them exactly; a rank-deficient design raises DegenerateFitError.
    """
    chart = hull_chart(data)
    coords = chart.to_intrinsic(data.locations)
    design = np.column_stack([np.ones(len(data)), coords])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise DegenerateFitError(
            f"need at least {chart.dim + 1} affinely independent samples"
        )
    coeffs, *_ = np.linalg.lstsq(design, data.values, rcond=None)
    return LinearModel(chart, coeffs)


def fit_extrusion(data, inner=None):
    """Extrude a subspace model: constant along every orthogonal direction."""
    chart = hull_chart(data)
    if chart.dim != 1:
        raise UnsupportedGeometryError("extrusion baseline requires a 1D hull")
    if inner is None:
        inner_fn = fit_slice_interpolant(data, chart)
    else:
        inner_fn = _as_inner(inner, chart)
    return ExtrusionModel(chart, inner_fn)


def fit_additive(data, literal=False):
    """Additive lifting for an axis-aligned slice in a 2D ambient space.

    The default prediction is f(x) + f(y) - f(y0), which restricts to the
    slice model exactly; ``literal=True`` selects the uncorrected form
    f(x) + f(y).
    """
    chart = hull_chart(data)
    aligned = chart.axis_aligned_line()
    if aligned is None:
        raise UnsupportedGeometryError(
            "additive lifting needs an axis-aligned 1D slice in a 2D space"
        )
    _, _, offset = aligned
    inner = fit_slice_interpolant(data, chart)
    return AdditiveModel(inner, offset, bool(literal))


def predict_additive(model_x, p, slice_offset, literal=False):
    """Additive prediction f(x) + f(y) - f(y0) from a 1D slice model.

    ``model_x`` is evaluated at both coordinates of ``p``, one 2D point or an
    (n, 2) array of them; the value at ``slice_offset`` is subtracted unless
    the literal form is requested.  The sum is symmetric in x and y, so it
    needs no record of which axis the slice runs along.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != 2:
        raise UnsupportedGeometryError("additive lifting is defined on 2D points")
    pts = np.atleast_2d(p)
    out = np.atleast_1d(model_x(pts[:, 0])) + np.atleast_1d(model_x(pts[:, 1]))
    if not literal:
        out = out - model_x(slice_offset)
    return float(out[0]) if p.ndim == 1 else out


def fit_method(name, data):
    """Fit a baseline by its configuration name."""
    fitters = {
        "nn_ambient": fit_nn_ambient,
        "nn_projected": fit_nn_projected,
        "linear": fit_linear,
        "extrusion": fit_extrusion,
        "additive": fit_additive,
    }
    try:
        fitter = fitters[name]
    except KeyError:
        raise ConfigurationError(f"unknown method {name!r}") from None
    return fitter(data)
