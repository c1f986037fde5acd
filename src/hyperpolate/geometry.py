"""Exact classification of query points against a dataset.

A query either coincides with a sample location (autopolation), sits inside
the convex hull of the sample locations (interpolation), sits outside the
convex hull but on the data's affine hull (extrapolation), or lies off the
affine hull entirely (hyperpolation).  The four tags are mutually exclusive
and jointly exhaustive.

Convex-hull membership is decided by an LP feasibility problem; the affine
hull is recovered from an SVD of the centred sample locations with a relative
singular-value cut-off.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DimensionMismatchError, InvalidInputError

__all__ = [
    "Point",
    "LabeledSample",
    "Dataset",
    "AffineSubspace",
    "Regime",
    "Tolerances",
    "AUTOPOLATION",
    "INTERPOLATION",
    "EXTRAPOLATION",
    "HYPERPOLATION",
    "affine_hull",
    "hull_chart",
    "project",
    "in_convex_hull",
    "classify",
    "hyperpolation_distance",
]

AUTOPOLATION = "autopolation"
INTERPOLATION = "interpolation"
EXTRAPOLATION = "extrapolation"
HYPERPOLATION = "hyperpolation"

DEFAULT_POINT_TOL = 1e-9
DEFAULT_HULL_TOL = 1e-9
DEFAULT_SUBSPACE_TOL = 1e-8


def _as_coords(p, dim):
    """Coerce a Point/sequence/ndarray into a finite 1-D float array."""
    if isinstance(p, Point):
        arr = np.asarray(p.coords, dtype=float)
    else:
        arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"expected a single point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("point has non-finite coordinates")
    if arr.size != dim:
        raise DimensionMismatchError(f"point has dimension {arr.size}, expected {dim}")
    return arr


def _as_queries(p, dim):
    """(rows, single): one point as one row, or each row of an (n, dim) array."""
    if isinstance(p, Point) or np.ndim(p) != 2:
        return [_as_coords(p, dim)], True
    return [_as_coords(q, dim) for q in np.asarray(p, dtype=float)], False


@dataclass(frozen=True)
class Point:
    """A location in the ambient space."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise InvalidInputError("point needs at least one coordinate")
        if not all(np.isfinite(c) for c in coords):
            raise InvalidInputError("point has non-finite coordinates")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self):
        return len(self.coords)

    def array(self):
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class LabeledSample:
    """A sample location together with its observed function value."""

    location: Point
    value: float

    def __post_init__(self):
        if not isinstance(self.location, Point):
            object.__setattr__(self, "location", Point(tuple(self.location)))
        value = float(self.value)
        if not np.isfinite(value):
            raise InvalidInputError("sample value is not finite")
        object.__setattr__(self, "value", value)


class Dataset:
    """Immutable collection of labelled samples in a common ambient space.

    Parameters
    ----------
    locations : (m, n) array_like
        Sample locations, one row per sample.
    values : (m,) array_like
        Observed function values.
    noise_sigma : float, optional
        Standard deviation of observation noise.  0 selects strict mode, in
        which duplicate locations must carry equal values; under noise,
        duplicates with differing values are permitted.
    """

    def __init__(self, locations, values, noise_sigma=0.0):
        locations = np.atleast_2d(np.asarray(locations, dtype=float))
        values = np.asarray(values, dtype=float).ravel()
        if locations.shape[0] == 0:
            raise InvalidInputError("dataset needs at least one sample")
        if locations.shape[0] != values.shape[0]:
            raise InvalidInputError(
                f"{locations.shape[0]} locations vs {values.shape[0]} values"
            )
        if not np.all(np.isfinite(locations)):
            raise InvalidInputError("sample locations contain non-finite values")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("sample values contain non-finite values")
        noise_sigma = float(noise_sigma)
        if noise_sigma < 0:
            raise InvalidInputError("noise_sigma must be nonnegative")
        if noise_sigma == 0.0:
            _check_strict_duplicates(locations, values)
        self._locations = locations.copy()
        self._values = values.copy()
        self._locations.setflags(write=False)
        self._values.setflags(write=False)
        self.noise_sigma = noise_sigma
        self._hulls = {}  # affine_hull results by tol; the data never change

    @property
    def locations(self):
        return self._locations

    @property
    def values(self):
        return self._values

    @property
    def ambient_dim(self):
        return self._locations.shape[1]

    @property
    def strict(self):
        return self.noise_sigma == 0.0

    @property
    def samples(self):
        return tuple(
            LabeledSample(Point(tuple(loc)), val)
            for loc, val in zip(self._locations, self._values)
        )

    def __len__(self):
        return self._locations.shape[0]

    def __repr__(self):
        return (
            f"Dataset({len(self)} samples, dim={self.ambient_dim}, "
            f"sigma={self.noise_sigma})"
        )

    def with_sample(self, location, value):
        """New dataset with one sample appended."""
        loc = _as_coords(location, self.ambient_dim)
        return Dataset(
            np.vstack([self._locations, loc[None, :]]),
            np.append(self._values, float(value)),
            self.noise_sigma,
        )


def _check_strict_duplicates(locations, values):
    order = np.lexsort(locations.T[::-1])
    for a, b in zip(order[:-1], order[1:]):
        if np.array_equal(locations[a], locations[b]) and values[a] != values[b]:
            raise InvalidInputError(
                "strict mode: duplicate locations with differing values"
            )


@dataclass(frozen=True)
class AffineSubspace:
    """Affine hull of a dataset: base point plus an orthonormal basis.

    ``basis`` has shape (dim, ambient_dim); rows are pairwise orthonormal.
    """

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        basis = np.asarray(self.basis, dtype=float).reshape(-1, base.size)
        if basis.shape[0]:
            gram = basis @ basis.T
            if not np.allclose(gram, np.eye(basis.shape[0]), atol=1e-10):
                raise InvalidInputError("basis is not orthonormal")
        base = base.copy()
        basis = basis.copy()
        base.setflags(write=False)
        basis.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def ambient_dim(self):
        return self.base.size

    def to_intrinsic(self, points):
        """Intrinsic coordinates of (projections of) ambient points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.base) @ self.basis.T

    def from_intrinsic(self, coords):
        """Embed intrinsic coordinates back into the ambient space."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return self.base + coords @ self.basis

    def axis_aligned_line(self):
        """(parallel_axis, transverse_axis, offset) when the subspace is a 1D
        line parallel to a coordinate axis in a 2D ambient space, else None."""
        if self.ambient_dim != 2 or self.dim != 1:
            return None
        direction = self.basis[0]
        for axis in (0, 1):
            if abs(abs(direction[axis]) - 1.0) <= 1e-10:
                transverse = 1 - axis
                return axis, transverse, float(self.base[transverse])
        return None


def affine_hull(data, tol=DEFAULT_SUBSPACE_TOL):
    """Minimal affine subspace containing all sample locations.

    Singular directions of the centred location matrix below
    ``tol * largest_singular_value`` are discarded, so the tolerance is
    relative and survives rescaling of the data.

    Parameters
    ----------
    data : Dataset
    tol : float
        Relative singular-value cut-off; must be positive.

    Returns
    -------
    AffineSubspace
        Fitted once per dataset and ``tol``, then shared by every caller
        (it is immutable).
    """
    if not tol > 0:
        raise InvalidInputError("tol must be positive")
    sub = data._hulls.get(tol)
    if sub is None:
        sub = data._hulls[tol] = _fit_affine_hull(data.locations, tol)
    return sub


def _fit_affine_hull(locations, tol):
    centroid = locations.mean(axis=0)
    centred = locations - centroid
    # economy SVD: directions with relatively negligible spread are noise
    _, svals, vt = np.linalg.svd(centred, full_matrices=False)
    if svals.size and svals[0] > 0:
        keep = svals > tol * svals[0]
    else:
        keep = np.zeros(svals.shape, dtype=bool)
    basis = vt[keep]
    # deterministic sign: first nonzero component of each direction positive
    for i, row in enumerate(basis):
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            basis[i] = -row
    return AffineSubspace(base=centroid, basis=basis)


def hull_chart(data):
    """Deterministic intrinsic coordinates on the data's affine hull.

    The affine hull re-based at the projection of the ambient origin, with
    direction signs fixed by the hull fit, so two charts built from the same
    data coincide exactly.  Round-tripping intrinsic coordinates through the
    embedding is the identity on the subspace.
    """
    sub = affine_hull(data)
    base, _ = project(sub, np.zeros(sub.ambient_dim))
    return AffineSubspace(base=base, basis=sub.basis)


def project(sub, p):
    """Orthogonal projection of ``p`` onto ``sub``.

    Returns
    -------
    (ndarray, float)
        The projected point and the Euclidean residual distance.  Projecting
        the returned point again is a no-op.
    """
    coords = _as_coords(p, sub.ambient_dim)
    rel = coords - sub.base
    if sub.dim:
        onto = rel @ sub.basis.T @ sub.basis
    else:
        onto = np.zeros_like(rel)
    projected = sub.base + onto
    residual = float(np.linalg.norm(rel - onto))
    return projected, residual


@dataclass(frozen=True)
class Regime:
    """Classification verdict for one query point.

    ``weights`` witnesses interpolation (convex weights reconstructing the
    query); ``residual`` witnesses hyperpolation (distance off the affine
    hull).
    """

    tag: str
    weights: np.ndarray | None = None
    residual: float | None = None

    def __post_init__(self):
        if self.tag not in (AUTOPOLATION, INTERPOLATION, EXTRAPOLATION, HYPERPOLATION):
            raise InvalidInputError(f"unknown regime tag {self.tag!r}")


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle for classify(); all overridable, defaults give
    double-precision headroom."""

    point_tol: float = DEFAULT_POINT_TOL
    hull_tol: float = DEFAULT_HULL_TOL
    subspace_tol: float = DEFAULT_SUBSPACE_TOL

    def __post_init__(self):
        for name in ("point_tol", "hull_tol", "subspace_tol"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be positive")


def in_convex_hull(p, data, tol=DEFAULT_HULL_TOL):
    """Test whether ``p`` is a convex combination of the sample locations.

    Solved as an LP: minimise the L1 mismatch of ``sum_i a_i x_i - p`` over
    weights ``a`` in the closed simplex.  Membership holds when the optimal
    reconstruction lies within ``tol`` of ``p`` (closed hull: boundary points
    are members).

    Returns
    -------
    (bool, ndarray or None)
        Verdict and, when inside, a witness weight vector.
    """
    coords = _as_coords(p, data.ambient_dim)
    locations = data.locations
    m, n = locations.shape
    # variables: m weights, then n positive and n negative slack components
    c = np.concatenate([np.zeros(m), np.ones(2 * n)])
    a_eq = np.zeros((n + 1, m + 2 * n))
    a_eq[:n, :m] = locations.T
    a_eq[:n, m : m + n] = -np.eye(n)
    a_eq[:n, m + n :] = np.eye(n)
    a_eq[n, :m] = 1.0
    b_eq = np.concatenate([coords, [1.0]])
    bounds = [(0.0, 1.0)] * m + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        return False, None
    weights = np.clip(res.x[:m], 0.0, None)
    total = weights.sum()
    if total > 0:
        weights = weights / total
    reconstruction = weights @ locations
    if np.linalg.norm(reconstruction - coords) <= tol:
        return True, weights
    return False, None


def classify(p, data, tols=None):
    """Assign exactly one regime tag to a query point, or to each row of an
    (n, dim) array (then a list of regimes is returned).

    Order of tests: autopolation (within ``point_tol`` of a sample), then
    interpolation (convex hull), then extrapolation (within ``subspace_tol``
    of the affine hull), else hyperpolation with the off-hull residual as
    witness.  The affine hull is fitted once, at the first query that is not
    a sample.  Distance to it is convex, so no convex combination of the
    samples is farther off it than the farthest sample, at ``R``, and no hull
    member is farther than ``R + hull_tol``.  The LP is skipped, as it would
    fail, for residuals above twice that; the factor is room for rounding.
    """
    tols = tols or Tolerances()
    queries, single = _as_queries(p, data.ambient_dim)
    sub = lp_bound = None
    regimes = []
    for q in queries:
        if np.min(np.linalg.norm(data.locations - q, axis=1)) <= tols.point_tol:
            regimes.append(Regime(tag=AUTOPOLATION))
            continue
        sub = sub or affine_hull(data, tol=tols.subspace_tol)
        _, residual = project(sub, q)
        off_hull = residual > tols.subspace_tol
        if off_hull and lp_bound is None:
            rel = data.locations - sub.base  # a 0-dim hull has no basis rows
            off = np.linalg.norm(rel - rel @ sub.basis.T @ sub.basis, axis=1)
            lp_bound = 2.0 * (off.max() + tols.hull_tol)
        inside, weights = False, None
        if not off_hull or residual <= lp_bound:
            inside, weights = in_convex_hull(q, data, tol=tols.hull_tol)
        if inside:
            regimes.append(Regime(tag=INTERPOLATION, weights=weights))
        elif off_hull:
            regimes.append(Regime(tag=HYPERPOLATION, residual=residual))
        else:
            regimes.append(Regime(tag=EXTRAPOLATION))
    return regimes[0] if single else regimes


def hyperpolation_distance(p, data, tol=DEFAULT_SUBSPACE_TOL):
    """Euclidean distance from ``p`` to the data's affine hull, or the (n,)
    distances of the rows of an (n, dim) array.

    Zero (up to projection round-off) for every non-hyperpolation query.
    """
    queries, single = _as_queries(p, data.ambient_dim)
    sub = affine_hull(data, tol=tol)
    dists = np.array([project(sub, q)[1] for q in queries])
    return float(dists[0]) if single else dists
