"""Exact classification of query points against a dataset.

A query either coincides with a sample location (autopolation), sits inside
the convex hull of the sample locations (interpolation), sits outside the
convex hull but on the data's affine hull (extrapolation), or lies off the
affine hull entirely (hyperpolation).  The four tags are mutually exclusive
and jointly exhaustive.

Convex-hull membership is decided by an LP feasibility problem; the affine
hull is recovered from an SVD of the centred sample locations with a relative
singular-value cut-off.

Most queries that reach the LP in a batch lie outside the convex hull, and
the LP only proves that.  ``classify`` first tries to prove it more cheaply,
with a lower bound on the distance from the query to the convex hull:

* Orthogonal projection onto the affine hull is 1-Lipschitz and maps the
  convex hull of the samples onto the convex hull of their projections, so
  the distance from the projected query to the projected hull is a lower
  bound.  It is in turn at least the query's largest violation of any
  halfspace that contains every projected sample.  Those halfspaces form a
  facet table in the hull's intrinsic coordinates: the two ends of the
  interval for a 1-D hull, Qhull's facets (``scipy.spatial.ConvexHull``;
  Barber, Dobkin & Huhdanpaa, ACM TOMS 1996) for 2-D and 3-D hulls, none
  otherwise (a 0-D hull has no facets, and above 3-D the facet count grows
  as m^floor(d/2)).  The table is checked against every sample when it is
  built, so no soundness rests on Qhull.
* The distance of a point off the affine hull is a convex, 1-Lipschitz
  function, so no convex combination of the samples is farther off than the
  farthest sample, at R, and a query at residual r is at least r - R from
  every such combination.

The larger of the two is the bound.  When it exceeds ``hull_tol`` plus a
rounding allowance, the LP's own test (the reconstruction within
``hull_tol`` of the query) cannot pass, so skipping it changes no verdict
and no witness.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import DimensionMismatchError, InvalidInputError

__all__ = [
    "Point",
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

# Rounding allowance per sample or coordinate and per unit of magnitude (see
# classify)
_ROUNDING = 64.0 * np.finfo(float).eps


def _as_points(p, dim=None):
    """(pts, single): a Point, one point or an (n, dim) array as a finite 2-D
    float array ``dim`` wide (at least 1 wide when ``dim`` is None), and
    whether it was one point.  The one query check of every classifier and
    predictor."""
    arr = np.asarray(p.coords if isinstance(p, Point) else p, dtype=float)
    if arr.ndim not in (1, 2) or (dim is None and arr.shape[-1] == 0):
        raise InvalidInputError(f"one point or an (n, dim) array, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise DimensionMismatchError(f"point has dimension {arr.shape[-1]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("point has non-finite coordinates")
    single = arr.ndim == 1
    return (arr[None, :] if single else arr), single


def _as_coords(p, dim):
    """One point as a finite 1-D float array of width ``dim``."""
    pts, single = _as_points(p, dim)
    if not single:
        raise InvalidInputError(f"expected a single point, got shape {pts.shape}")
    return pts[0]


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
        if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
            raise InvalidInputError("noise_sigma must be finite and nonnegative")
        if noise_sigma > 0.0 and 2.0 * noise_sigma * noise_sigma == 0.0:
            # the Gaussian likelihood divides by 2 sigma^2
            raise InvalidInputError(
                f"noise_sigma {noise_sigma!r} is too small: 2 sigma^2 underflows to 0"
            )
        if noise_sigma == 0.0:
            _check_strict_duplicates(locations, values)
        self._locations = locations.copy()
        self._values = values.copy()
        self._locations.setflags(write=False)
        self._values.setflags(write=False)
        self.noise_sigma = noise_sigma
        self._hulls = {}  # affine_hull results by tol; the data never change
        self._facets = {}  # _FacetTable by subspace tol, built on first need

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
    for i, row in enumerate(basis):
        basis[i] = _canonical_sign(row)
    return AffineSubspace(base=centroid, basis=basis)


def _canonical_sign(v):
    """``v`` or ``-v``, whichever has its first component with |v_i| > 1e-12
    positive: a deterministic sign for a direction."""
    nz = np.nonzero(np.abs(v) > 1e-12)[0]
    return -v if nz.size and v[nz[0]] < 0 else v


def hull_chart(data):
    """Deterministic intrinsic coordinates on the data's affine hull.

    The affine hull re-based at the projection of the ambient origin, with
    direction signs fixed by the hull fit, so two charts built from the same
    data coincide exactly.  Round-tripping intrinsic coordinates through the
    embedding is the identity on the subspace.
    """
    sub = affine_hull(data)
    _, onto = _offsets(sub, np.zeros(sub.ambient_dim))
    return AffineSubspace(base=sub.base + onto, basis=sub.basis)


def _offsets(sub, coords):
    """``(rel, onto)``: the offset of ``coords`` from ``sub.base`` and its
    orthogonal projection onto the span of ``sub.basis``."""
    rel = coords - sub.base
    if sub.dim:
        onto = rel @ sub.basis.T @ sub.basis
    else:
        onto = np.zeros_like(rel)
    return rel, onto


def project(sub, p):
    """Orthogonal projection of ``p`` onto ``sub``.

    Returns
    -------
    (ndarray, float)
        The projected point and the Euclidean residual distance.  Projecting
        the returned point again is a no-op.
    """
    rel, onto = _offsets(sub, _as_coords(p, sub.ambient_dim))
    return sub.base + onto, float(np.linalg.norm(rel - onto))


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
            if not getattr(self, name) > 0:
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


@dataclass(frozen=True)
class _FacetTable:
    """Certificate data for queries outside the samples' convex hull.

    ``normals`` (k, d) are unit normals in the intrinsic coordinates of
    ``sub`` and ``offsets`` (k,) their offsets, widened by the build check's
    slack, so every projected sample y has ``normals @ y <= offsets``; both
    are None when there is no table.  ``reach`` is R, the largest residual
    of any sample off ``sub``; ``span`` the largest norm of a sample;
    ``rounding`` is ``64 (m + n) eps`` for m samples in n dimensions.
    """

    sub: AffineSubspace
    normals: np.ndarray | None
    offsets: np.ndarray | None
    reach: float
    span: float
    rounding: float


def _facets(coords):
    """(normals, offsets) of halfspaces containing the rows of ``coords``,
    or (None, None): an interval for 1-D, Qhull's facets for 2-D and 3-D,
    nothing for 0-D, above 3-D or when Qhull fails."""
    dim = coords.shape[1]
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([coords.max(), -coords.min()])
    if dim not in (2, 3):
        return None, None
    try:
        equations = ConvexHull(coords).equations
    except QhullError:
        return None, None
    norms = np.linalg.norm(equations[:, :-1], axis=1)
    return equations[:, :-1] / norms[:, None], -equations[:, -1] / norms


def _facet_table(data, subspace_tol):
    """The dataset's _FacetTable for ``subspace_tol``, built once."""
    table = data._facets.get(subspace_tol)
    if table is None:
        sub = affine_hull(data, tol=subspace_tol)
        rel = data.locations - sub.base  # a 0-dim hull has no basis rows
        coords = rel @ sub.basis.T
        reach = float(np.linalg.norm(rel - coords @ sub.basis, axis=1).max())
        span = float(np.linalg.norm(data.locations, axis=1).max())
        m, n = data.locations.shape
        rounding = _ROUNDING * (m + n)
        slack = rounding * span
        normals, offsets = _facets(coords)
        if normals is not None:
            # every halfspace must hold every sample: trust no facet blindly
            # (in blocks, so the check's table stays near 2**20 entries)
            rows = max(1, 2**20 // len(offsets))
            worst = max(
                np.max(coords[i : i + rows] @ normals.T - offsets)
                for i in range(0, m, rows)
            )
            if worst > slack:
                normals = offsets = None
            else:
                offsets = offsets + slack
        table = _FacetTable(sub, normals, offsets, reach, span, rounding)
        data._facets[subspace_tol] = table
    return table


def _outside_hull(table, q, residual, hull_tol):
    """True when a lower bound on the distance from ``q`` (at ``residual``
    off the affine hull) to the convex hull of the samples exceeds
    ``hull_tol`` plus the rounding allowance, so the LP cannot find a member
    within ``hull_tol`` of ``q``."""
    limit = hull_tol + table.rounding * (table.span + float(np.linalg.norm(q)))
    bound = residual - table.reach
    if bound <= limit and table.normals is not None:
        coords = (q - table.sub.base) @ table.sub.basis.T
        bound = max(bound, float(np.max(table.normals @ coords - table.offsets)))
    return bound > limit


def classify(p, data, tols=None):
    """Assign exactly one regime tag to a query point, or to each row of an
    (n, dim) array (then a list of regimes is returned).

    Order of tests: autopolation (within ``point_tol`` of a sample), then
    interpolation (convex hull), then extrapolation (within ``subspace_tol``
    of the affine hull), else hyperpolation with the off-hull residual as
    witness.  The affine hull and the facet table below are built once per
    dataset and ``subspace_tol``, at the first query that is not a sample.

    The LP runs only for a query that is not certified outside the convex
    hull.  The certificate is a lower bound on the distance to the hull,
    ``max(g, r - R)``: g is the largest violation, by the query's projection
    onto the affine hull, of a halfspace that holds every projected sample;
    r is the query's residual off the affine hull and R the largest
    sample's.  Projection onto the affine hull is 1-Lipschitz and maps the
    convex hull into the projected samples' hull, so g bounds the distance;
    the residual is convex and 1-Lipschitz, so every hull member is at most
    R off and at least r - R from the query.  The LP is skipped when the
    bound exceeds ``hull_tol + 64 (m + n) eps (max_i |x_i| + |q|)`` for m
    samples in n dimensions: the LP's reconstruction rounds by about
    ``(m + n) eps`` of that magnitude and the bound by a few ``n eps``.
    The halfspaces are the module's facet table.  A skipped LP would have
    failed, so verdicts and witnesses are those of running it.
    """
    tols = tols or Tolerances()
    queries, single = _as_points(p, data.ambient_dim)
    table = None
    regimes = []
    for q in queries:
        if np.min(np.linalg.norm(data.locations - q, axis=1)) <= tols.point_tol:
            regimes.append(Regime(tag=AUTOPOLATION))
            continue
        table = table or _facet_table(data, tols.subspace_tol)
        _, residual = project(table.sub, q)
        inside, weights = False, None
        if not _outside_hull(table, q, residual, tols.hull_tol):
            inside, weights = in_convex_hull(q, data, tol=tols.hull_tol)
        if inside:
            regimes.append(Regime(tag=INTERPOLATION, weights=weights))
        elif residual > tols.subspace_tol:
            regimes.append(Regime(tag=HYPERPOLATION, residual=residual))
        else:
            regimes.append(Regime(tag=EXTRAPOLATION))
    return regimes[0] if single else regimes


def hyperpolation_distance(p, data, tol=DEFAULT_SUBSPACE_TOL):
    """Euclidean distance from ``p`` to the data's affine hull, or the (n,)
    distances of the rows of an (n, dim) array.

    Zero (up to projection round-off) for every non-hyperpolation query.
    """
    queries, single = _as_points(p, data.ambient_dim)
    sub = affine_hull(data, tol=tol)
    dists = np.array([project(sub, q)[1] for q in queries])
    return float(dists[0]) if single else dists
