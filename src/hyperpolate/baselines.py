"""Non-symbolic polation baselines.

Two nearest-neighbour variants (ambient-nearest sample, and projection onto
the data subspace followed by a 1D interpolant, which is the extrusion of
that interpolant along the orthogonal directions), a least-squares linear
model on the subspace, and the additive lifting f(x, y) = f(x) + f(y) - f(y0).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateFitError, UnsupportedGeometryError
from .geometry import AffineSubspace, _as_points, hull_chart

__all__ = [
    "SliceModel",
    "PolationModel",
    "NearestSampleModel",
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
]

METHOD_NAMES = ("nn_ambient", "nn_projected", "linear", "extrusion", "additive")


class PolationModel:
    """A fitted prediction method; immutable, predictions are pure.

    Use the ``fit_*`` functions (or :func:`fit_method`) to construct one.
    ``predict`` takes one point (returns a float) or an (n, dim) array of
    points (returns an (n,) array), in the data's ambient dimension, with
    finite coordinates.
    """

    @property
    def ambient_dim(self):
        return self.chart.ambient_dim

    def predict(self, points):
        pts, single = _as_points(points, self.ambient_dim)
        out = self._predict(pts)
        return float(out[0]) if single else out


@dataclass(frozen=True, eq=False)
class SliceModel(PolationModel):
    """A piecewise-linear model of the function along a 1D subspace,
    extruded: constant along every orthogonal direction.

    Called with intrinsic coordinates, it interpolates ``values`` at the
    sorted ``knots`` and extrapolates linearly from the two outermost knots;
    a single knot gives a constant.  ``predict`` evaluates it at the
    query's projection onto the subspace.
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

    def _predict(self, pts):
        return self(self.chart.to_intrinsic(pts)[:, 0])


def fit_slice_interpolant(data):
    """Piecewise-linear model through the slice samples.

    Duplicate intrinsic locations are averaged (strict mode guarantees their
    values agree, so averaging is a no-op there).
    """
    chart = hull_chart(data)
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


@dataclass(frozen=True, eq=False)
class NearestSampleModel(PolationModel):
    """The value of the Euclidean-nearest sample location."""

    locations: np.ndarray
    values: np.ndarray

    @property
    def ambient_dim(self):
        return self.locations.shape[1]

    def _predict(self, pts):
        d2 = ((pts[:, None, :] - self.locations[None, :, :]) ** 2).sum(axis=2)
        # argmin takes the first minimum: ties break to the lowest index
        return self.values[np.argmin(d2, axis=1)]


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
    """The additive lifting f(x) + f(y) - f(y0) of a slice model.

    ``inner`` is any callable of the slice coordinate and ``offset`` is the
    slice's transverse coordinate y0, so the lifting restricts to the slice
    model exactly.  The sum is symmetric in x and y, so it needs no record
    of which axis the slice runs along.
    """

    inner: object
    offset: float
    ambient_dim = 2

    def _predict(self, pts):
        f = self.inner
        return np.atleast_1d(f(pts[:, 0])) + np.atleast_1d(f(pts[:, 1])) - f(self.offset)


def fit_nn_ambient(data):
    """Predict the value of the Euclidean-nearest sample location."""
    return NearestSampleModel(data.locations, data.values)


def fit_nn_projected(data):
    """Interpolate/extrapolate along the subspace first, then carry those
    values to off-subspace queries at the projected location.

    This is extrusion of the slice interpolant: the model is the one
    :func:`fit_extrusion` builds.
    """
    return fit_extrusion(data)


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


def fit_extrusion(data):
    """Extrude the slice interpolant: constant along every orthogonal direction."""
    return fit_slice_interpolant(data)


def fit_additive(data):
    """Additive lifting for an axis-aligned slice in a 2D ambient space."""
    aligned = hull_chart(data).axis_aligned_line()
    if aligned is None:
        raise UnsupportedGeometryError(
            "additive lifting needs an axis-aligned 1D slice in a 2D space"
        )
    _, _, offset = aligned
    return AdditiveModel(fit_slice_interpolant(data), offset)


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
