"""Symbolic lifting search.

Fits an expression to the data slice by exhaustive shape enumeration with
least-squares constant fitting, then lifts it off the slice by replacing
constants with expressions in a transverse coordinate, ranking every
candidate by (fit residual, description-length score).  The score is
``complexity``, whose fixed cost table the pruning is derived from.

Three dataset geometries are supported:

* ambient dimension 1 ("new_dim"): the transverse coordinate is a fresh
  variable ``y`` and each candidate chooses the calibration ``y0`` at which
  the slice sits.  Since nothing orients the new axis, mirror candidates
  (``y0 = -v``) are emitted alongside and liftings whose transverse
  dependence cannot be mirrored inside the family pay a one-bit orientation
  surcharge.
* ambient dimension 2 with an axis-aligned 1D hull ("axis"): ``y0`` is fixed
  by the hull position, substitutions must be consistent with it, and the
  frame breaks the mirror symmetry.
* ambient dimension 2 with a general 1D hull ("ambient"): candidates are
  enumerated directly over both ambient variables and fitted against the
  samples.

In strict (noise-free) mode only fits within ``STRICT_TOL`` of every sample
are kept, and most shapes cannot get there.  In flexible (noisy) mode only
the best ``MAX_SLICE_FITS`` fits are lifted, so once that many are known a
fit whose residual ranks after all of them cannot be lifted.  Both modes
screen with one rule against a band around the targets: the tolerance in
strict mode, and in flexible mode the reach of the ``MAX_SLICE_FITS``-th best
residual known before a level's fits run.  A shape with one constant and no
profiled linear wrap is ruled out when interval evaluation shows that no
constant can bring it within the band: first over one box spanning the whole
start grid, before the grid pass that picks the Brent brackets, then over
those brackets, before Brent runs; see ``_qualifying_fits``.  The enclosures
come from the value rows of the shape's known operands, for all shapes of a
level at once (``expressions._ShapeValues.enclose``), or, for a shape whose
operands have no rows, from ``expressions.compile_interval``.  In every mode
a shape with an operand that is nan at some sample is not fitted at all: it
could not fit.

Constants are fitted by bounded Brent (one slot) and Nelder-Mead (more),
scipy's loops written as state machines over arrays of lanes.  The lanes of
many shapes step together: each step evaluates each live shape's core once
and profiles the linear wrap once per kind of wrap (``_minimize``).
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, UnsupportedGeometryError
from .expressions import (
    INT_BIT_COST,
    OP_COST,
    VAR_COST,
    Grammar,
    ShapeEnumerator,
    _POOL_CELLS,
    _const_cost,
    _is_count,
    _operands_of,
    _rebuild_chain,
    _ShapeValues,
    _split_constants,
    assign_slots,
    canonical_simplify,
    chain_elements,
    compile_interval,
    compile_shape,
    complexity,
    const,
    evaluate,
    is_slot,
    node_count,
    serialize,
    substitute,
    var,
    variables_of,
)
from .geometry import AffineSubspace, _as_points, _canonical_sign, hull_chart

__all__ = [
    "STRICT_TOL",
    "SliceFrame",
    "CandidateLifting",
    "detect_frame",
    "lift_constants",
    "search_hyperpolation",
    "restrict",
    "predict_candidate",
    "top_tie_set",
    "tie_sets",
    "candidate_to_dict",
]

STRICT_TOL = 1e-9
INT_SNAP_REL = 1e-6
# The strict-mode screen of one-slot shapes halves its brackets for at most
# SCREEN_LEVELS levels and SCREEN_BOXES boxes before it lets Brent run.
SCREEN_LEVELS = 16
SCREEN_BOXES = 64
# Neither the level stop nor the bound skip applies at or below this level.
# Above it, strict mode stops at the first level n above the certified best
# score: this assumes every node costs at least 1 (OP_COST, VAR_COST and
# CONST_BASE), so that every candidate lifted from an n-node shape scores at
# least n.  The bound skip also drops shapes whose _shape_lower_bound exceeds
# the best score, but that bound is not always a lower bound (see there), so
# the skip can drop a candidate that would tie the best.
ENUM_FLOOR = 4
DEFAULT_BUDGET = 200_000
SHIFT_OFFSETS = (-2, -1, 1, 2)
MAX_SLICE_FITS = 64
# shapes per block of a level that _qualifying_fits values together
_SHAPE_BLOCK = 1024
RANK_DIGITS = 9


def quantize_residual(residual):
    """Ranking form of a residual: 0 below the strict tolerance, else
    rounded to 9 significant digits so equally-good fits tie exactly
    instead of being ordered by floating-point noise."""
    if residual <= STRICT_TOL:
        return 0.0
    if not math.isfinite(residual):
        return math.inf
    exponent = math.floor(math.log10(residual))
    return round(residual, RANK_DIGITS - 1 - exponent)


@dataclass(frozen=True)
class SliceFrame:
    """Geometry of the data slice used to interpret candidate expressions."""

    mode: str  # "new_dim" | "axis" | "ambient"
    slice_var: str
    transverse_var: str
    y0: float  # fixed slice offset ("axis"/"ambient"); 0.0 for "new_dim"
    chart: AffineSubspace | None = None
    parallel_axis: int = 0

    @property
    def free_calibration(self):
        return self.mode == "new_dim"


@dataclass(frozen=True)
class CandidateLifting:
    """A lifted hypothesis: expression plus the slice calibration y0.

    The restriction of ``expr`` at the transverse coordinate ``y0``
    reproduces the fitted slice expression; ``residual`` is its max-abs
    mismatch on the sample locations and ``score`` the ranking score
    (description length plus any orientation surcharge).
    """

    expr: tuple
    y0: float
    score: float
    residual: float
    kind: str
    frame: SliceFrame

    @property
    def rank_key(self):
        return (self.residual_rank, self.score, serialize(self.expr), self.y0)

    @property
    def residual_rank(self):
        return quantize_residual(self.residual)


def candidate_to_dict(c):
    return {
        "expr": serialize(c.expr),
        "y0": c.y0,
        "score": c.score,
        "residual": c.residual,
    }


def detect_frame(data):
    """Classify the dataset geometry into one of the supported frames."""
    chart = hull_chart(data)
    if data.ambient_dim == 1:
        if chart.dim != 1:
            raise UnsupportedGeometryError("all sample locations coincide")
        return SliceFrame(
            mode="new_dim", slice_var="x", transverse_var="y", y0=0.0, chart=chart
        )
    if data.ambient_dim == 2:
        if chart.dim != 1:
            raise UnsupportedGeometryError(
                f"symbolic search needs a 1D hull, got dim {chart.dim}"
            )
        aligned = chart.axis_aligned_line()
        names = ("x", "y")
        if aligned is not None:
            para, trans, offset = aligned
            return SliceFrame(
                mode="axis",
                slice_var=names[para],
                transverse_var=names[trans],
                y0=offset,
                chart=chart,
                parallel_axis=para,
            )
        normal = _line_normal(chart.basis[0])
        return SliceFrame(
            mode="ambient",
            slice_var="x",
            transverse_var="y",
            y0=float(chart.base @ normal),
            chart=chart,
        )
    raise UnsupportedGeometryError(
        f"symbolic search supports ambient dimension 1 or 2, got {data.ambient_dim}"
    )


def _line_normal(d):
    """Unit normal of a 2D line with unit direction ``d``, its first nonzero
    component positive."""
    return _canonical_sign(np.array([-d[1], d[0]]))


# ---------------------------------------------------------------------------
# constant fitting
# ---------------------------------------------------------------------------


def _scale_grid(envs, target):
    """Deterministic grid of starting values for constant fitting."""
    mags = [1.0]
    for arr in envs.values():
        mags.append(float(np.max(np.abs(arr))) if arr.size else 1.0)
    mags.append(float(np.max(np.abs(target))) if target.size else 1.0)
    mag = max(1.0, max(mags))
    try:
        top = 4.0 * mag**2
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise InvalidInputError(
            f"symbolic search: data magnitude {mag:.3g} is above about 6.7e+153, where "
            "the top of the constant fitting grid, 4 * magnitude^2, is not finite"
        )
    geo = np.geomspace(1e-2, top, 56)
    lin = np.linspace(top / 64.0, top, 24)
    grid = np.unique(np.concatenate([[0.0], geo, -geo, lin, -lin]))
    return grid


def _full(values, shape):
    """``np.broadcast_to(np.asarray(values, dtype=float), shape)``, without
    the call when the values already have that shape."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _linear_split(shape):
    """Strip profiled linear slots: shape == (core * c_a) + c_b.

    Returns (core, has_mul, has_add); the stripped slots are the last ones in
    DFS order, so the full constant vector is inner + [c_a] + [c_b].
    """
    has_add = has_mul = False
    core = shape
    if core[0] == "add":
        elements = chain_elements(core)
        if is_slot(elements[-1]):
            has_add = True
            core = _rebuild_chain("add", elements[:-1])
    if core[0] == "mul":
        elements = chain_elements(core)
        if is_slot(elements[-1]):
            has_mul = True
            core = _rebuild_chain("mul", elements[:-1])
    return core, has_mul, has_add


class _LaneObjective:
    """The profiled SSE of a shape's core as a function of its slot values,
    for many slot values per call.

    The core is ``u * c_a + c_b`` with the least-squares ``c_a`` and ``c_b``
    profiled out (linear scaling), each present when the shape has that
    slot.  ``at`` is the core's ``compile_shape`` evaluator: given each
    slot's values as an (L, 1) column, it yields the (L, m) table of L
    lanes' core values, one C-contiguous row per lane.
    """

    def __init__(self, at, target, has_mul, has_add):
        self.at = at
        self.target = target
        self.has_mul = has_mul
        self.has_add = has_add
        self.ym = target.mean()
        self.yc = target - self.ym

    def __call__(self, points, ceiling=math.inf):
        """SSE at each of L points (slot values: all scalars or all
        k-vectors), each bit-equal to the SSE of that point alone, and at
        most ``ceiling``."""
        pts = np.array(points, dtype=float)
        columns = (pts[:, None],) if pts.ndim == 1 else pts.T.copy()[:, :, None]
        u = _full(self.at(tuple(columns)), (len(points), self.target.size))
        return self.rows(u, ceiling)[0]

    def rows(self, u, ceiling=math.inf):
        """``(sse, c_a, c_b)`` for each row of an (L, m) table of core
        values: the SSE, at most ``ceiling``, as an (L,) array, and the
        profiled constants as (L, 1) columns, or 1.0 and 0.0 when absent.

        A mean is the sum divided by m, as ``ndarray.mean`` computes it, and
        a row sum is numpy's pairwise sum of that row, as for a single
        vector, so a row's values do not depend on the other rows: the
        grid SSEs that choose the starts, the lanes' SSEs and the final
        one-row refit are each bit-equal to the SSE of that point alone.
        The rows of many cores of one wrap kind may be stacked into one
        table (``_PoolObjective``).  Multiplying by the profiled 1 and adding
        the profiled 0 are exact and left out.  A non-finite core value
        always makes its row's sum non-finite (nan or inf), which ``fmin``
        turns into the ceiling.
        """
        y = self.target
        m = y.size
        ca, cb = 1.0, 0.0
        if self.has_mul and self.has_add:
            um = np.add.reduce(u, axis=1, keepdims=True) / m
            uc = u - um
            varu = np.add.reduce(uc * uc, axis=1)
            cov = np.add.reduce(uc * self.yc, axis=1)
            ca = np.where(varu > 0, cov / varu, 0.0)[:, None]
            cb = self.ym - ca * um
            resid = u * ca + cb - y
        elif self.has_mul:
            uu = np.add.reduce(u * u, axis=1)
            uy = np.add.reduce(u * y, axis=1)
            ca = np.where(uu > 0, uy / uu, 0.0)[:, None]
            resid = u * ca - y
        elif self.has_add:
            cb = np.add.reduce(y - u, axis=1, keepdims=True) / m
            resid = u + cb - y
        else:
            resid = u - y
        return np.fmin(np.add.reduce(np.multiply(resid, resid, out=resid), axis=1), ceiling), ca, cb


# The two minimizers below are the loops of scipy 1.17.1's
# ``scipy.optimize._optimize._minimize_scalar_bounded`` and
# ``_minimize_neldermead`` (BSD-3-Clause, Copyright (c) 2001-2002 Enthought,
# Inc. and 2003 onwards SciPy Developers), turned into state machines over
# arrays of lanes: ``ask()`` gives the points that the live lanes need next,
# and ``tell(values)`` takes the objective's values there and advances every
# live lane by one step, so that ``_minimize`` can evaluate all lanes of many
# cores at once.  ``owner`` names each live lane's objective (its core), and
# ``x_end`` and ``f_end`` hold each lane's result once it has stopped.
# Messages, callbacks and result objects are left out; every iterate is
# computed as scipy computes it, with both sides of each branch computed for
# every lane and the taken side selected.


_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


class _Brent:
    """Bounded Brent minimisation of each lane over its bracket [lo, hi]:
    ``minimize_scalar(f, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol, "maxiter": maxfun})``, one point per lane and
    step.

    scipy's ``np.sign`` and ``np.maximum`` of scalars become a sign test
    and ``np.maximum`` of arrays, and its test ``x < xf`` becomes ``not x
    >= xf``, which give the same results on the finite points of finite
    brackets.  All lanes evaluate once a step, so the evaluation count
    ``num`` is one number.
    """

    _FIELDS = ("a", "b", "fulc", "nfc", "xf", "ffulc", "fnfc", "fx", "rat", "e", "owner", "lane")

    def __init__(self, lo, hi, owner, xatol=1e-12, maxfun=500):
        self.a = np.array(lo, dtype=float)
        self.b = np.array(hi, dtype=float)
        self.fulc = self.nfc = self.xf = self.point = self.a + _GOLDEN_MEAN * (self.b - self.a)
        self.rat = self.e = np.zeros_like(self.a)
        self.owner = np.asarray(owner, dtype=np.intp)
        self.lane = np.arange(self.a.size)
        self.x_end, self.f_end = np.empty(self.a.size), np.empty(self.a.size)
        self.xatol, self.maxfun, self.num = xatol, maxfun, 0

    def ask(self):
        return self.point

    def tell(self, fu):
        self.num += 1
        if self.num == 1:
            self.fx = self.ffulc = self.fnfc = fu
        else:
            self._update(fu)
        a, b, xf = self.a, self.b, self.xf
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + self.xatol / 3.0
        tol2 = 2.0 * tol1
        go = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
        if self.num >= self.maxfun:
            go[:] = False
        if not go.all():
            stop = ~go
            self.x_end[self.lane[stop]] = xf[stop]
            self.f_end[self.lane[stop]] = self.fx[stop]
            for name in self._FIELDS:
                setattr(self, name, getattr(self, name)[go])
            xm, tol1, tol2 = xm[go], tol1[go], tol2[go]
        self.point = self._next(xm, tol1, tol2)

    def _update(self, fu):
        """scipy's bookkeeping after the value ``fu`` at ``self.point``."""
        x, xf, fx, nfc, fnfc, fulc = self.point, self.xf, self.fx, self.nfc, self.fnfc, self.fulc
        better = fu <= fx
        # better: a = xf if x >= xf else b = xf; worse: a = x if x < xf else b = x
        moved = np.where(better, xf, x)
        to_a = better == (x >= xf)
        self.a = np.where(to_a, moved, self.a)
        self.b = np.where(to_a, self.b, moved)
        worse = ~better
        near = worse & ((fu <= fnfc) | (nfc == xf))
        far = worse & ~near & ((fu <= self.ffulc) | (fulc == xf) | (fulc == nfc))
        shift = better | near
        self.fulc = np.where(shift, nfc, np.where(far, x, fulc))
        self.ffulc = np.where(shift, fnfc, np.where(far, fu, self.ffulc))
        self.nfc = np.where(better, xf, np.where(near, x, nfc))
        self.fnfc = np.where(better, fx, np.where(near, fu, fnfc))
        self.xf = np.where(better, x, xf)
        self.fx = np.where(better, fu, fx)

    def _next(self, xm, tol1, tol2):
        """The next trial point of each live lane: a parabolic step where
        scipy accepts the parabola, else a golden-section step."""
        a, b, xf, fx, nfc, fulc, e = self.a, self.b, self.xf, self.fx, self.nfc, self.fulc, self.e
        parabolic = np.abs(e) > tol1
        r = (xf - nfc) * (fx - self.ffulc)
        q = (xf - fulc) * (fx - self.fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        accept = (
            parabolic
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * (a - xf))
            & (p < q * (b - xf))
        )
        rat = (p + 0.0) / q
        x = xf + rat
        # scipy: rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        edge = ((x - a) < tol2) | ((b - x) < tol2)
        rat = np.where(edge, np.where(xm - xf < 0, -tol1, tol1), rat)
        golden = np.where(xf >= xm, a - xf, b - xf)
        self.e = np.where(accept, self.rat, golden)
        self.rat = np.where(accept, rat, _GOLDEN_MEAN * golden)
        # scipy: si = np.sign(rat) + (rat == 0)
        #        x = xf + si * np.maximum(np.abs(rat), tol1)
        step = np.maximum(np.abs(self.rat), tol1)
        return np.where(self.rat < 0, xf - step, xf + step)


# The Nelder-Mead coefficients at scipy's rho = 1, chi = 2, psi = sigma =
# 0.5: reflection 2 xbar - 1 w, expansion 3 xbar - 2 w, outside
# contraction 1.5 xbar - 0.5 w and inside contraction 0.5 xbar + 0.5 w,
# where 0.5 xbar - (-0.5) w is that sum, bit for bit.
_NM_XBAR = np.array([2.0, 3.0, 1.5, 0.5])[:, None]
_NM_WORST = np.array([1.0, 2.0, 0.5, -0.5])[:, None]


class _NelderMead:
    """Nelder-Mead minimisation from each lane's start: ``minimize(f, x0,
    method="Nelder-Mead", options={"xatol": xatol, "fatol": fatol,
    "maxiter": maxiter})``, the non-adaptive, unbounded form with no cap on
    evaluations.  ``starts`` is an (L, N) array.

    A step asks for the N + 1 vertices of the first simplex, then for one
    iteration's points at once: the reflection, the expansion, both
    contractions and the N points of a shrink, of which the iteration keeps
    what scipy's branches would have evaluated.  Each value is that of its
    point alone, so the iterates are scipy's.  The centroid is the row sum
    taken left to right, then divided by N; each convergence test reads
    ``max(d) <= tol``, which a nan d fails as scipy's does.  Simplex values
    are ordered by ``np.argsort``, row by row, as scipy orders them: its
    sort need not be stable, so ties and nans take numpy's order.  All lanes
    iterate together, so the iteration count is one number.
    """

    def __init__(self, starts, owner, maxiter, xatol=1e-10, fatol=1e-14):
        x0 = np.array(starts, dtype=float)
        lanes, n = x0.shape
        sim = np.repeat(x0[:, None, :], n + 1, axis=1)
        for k in range(n):
            v = sim[:, k + 1, k]
            sim[:, k + 1, k] = np.where(v != 0, (1 + 0.05) * v, 0.00025)
        self.sim, self.fsim, self.points = sim, None, sim
        self.owner = np.asarray(owner, dtype=np.intp)
        self.lane = np.arange(lanes)
        self.x_end, self.f_end = np.empty((lanes, n)), np.empty(lanes)
        self.maxiter, self.xatol, self.fatol, self.iterations = maxiter, xatol, fatol, 0
        # each choice's new simplex rows, indexing [simplex, trial points,
        # shrunk points]: the best n kept and the worst replaced by the
        # reflection, expansion or a contraction, or the best and the shrink
        last = list(range(n + 1, n + 5))
        self._rows = np.array([[*range(n), j] for j in last] + [[0, *range(n + 5, 2 * n + 5)]])

    def ask(self):
        pts = self.points if self.fsim is None else self.points[:, self.sim.shape[1] :]
        return pts.reshape(-1, pts.shape[-1])

    def tell(self, values):
        sim = self.sim
        lanes, n = sim.shape[0], sim.shape[2]
        across = np.arange(lanes)[:, None]
        if self.fsim is None:
            fsim = values.reshape(lanes, n + 1)
            for _ in range(2):  # scipy sorts twice before its loop
                order = fsim.argsort(axis=1)
                fsim, sim = fsim[across, order], sim[across, order]
        else:
            f = values.reshape(lanes, n + 4)
            fsim = self.fsim
            fxr, fxe, fxc, fxcc, worst = f[:, 0], f[:, 1], f[:, 2], f[:, 3], fsim[:, -1]
            shrink = 4
            choice = np.where(
                fxr < fsim[:, 0],
                np.where(fxe < fxr, 1, 0),
                np.where(
                    fxr < fsim[:, -2],
                    0,
                    np.where(
                        fxr < worst,
                        np.where(fxc <= fxr, 2, shrink),
                        np.where(fxcc < worst, 3, shrink),
                    ),
                ),
            )
            rows = self._rows[choice]
            fsim = np.concatenate([fsim, f], axis=1)[across, rows]
            order = fsim.argsort(axis=1)
            fsim, rows = fsim[across, order], rows[across, order]
            sim = self.points[across, rows]
        self.iterations += 1
        go = ~(
            (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= self.xatol)
            & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= self.fatol)
        )
        if self.iterations >= self.maxiter:
            go[:] = False
        if not go.all():
            stop = ~go
            self.x_end[self.lane[stop]] = sim[stop, 0]
            # scipy: np.min(fsim), nan when any value is; the sort put nans last
            self.f_end[self.lane[stop]] = np.where(np.isnan(fsim[stop, -1]), np.nan, fsim[stop, 0])
            sim, fsim = sim[go], fsim[go]
            self.owner, self.lane = self.owner[go], self.lane[go]
        self.sim, self.fsim = sim, fsim
        xbar = sim[:, 0]
        for j in range(1, n):
            xbar = xbar + sim[:, j]
        xbar = xbar / n
        trial = _NM_XBAR * xbar[:, None] - _NM_WORST * sim[:, -1:]
        shrunk = sim[:, :1] + 0.5 * (sim[:, 1:] - sim[:, :1])
        self.points = np.concatenate([sim, trial, shrunk], axis=1)


def _minimize(machine, objective):
    """Run a lane machine (``_Brent`` or ``_NelderMead``) until every lane
    has stopped: each step hands it ``objective(points, owner)``, the
    values at the points it asks for, the live lanes' points in lane order,
    each lane's points together.  Returns the machine, whose ``x_end`` and
    ``f_end`` hold the lanes' results.  Runs under ``np.errstate(all=
    "ignore")``: the machines compute both sides of every branch."""
    with np.errstate(all="ignore"):
        while machine.owner.size:
            machine.tell(objective(machine.ask(), machine.owner))
    return machine


class _PoolObjective:
    """The profiled SSEs (capped at ``ceiling``) of lanes of many cores, as
    ``_minimize`` asks for them: each step calls each live core's ``at``
    once, on its lanes' points stacked, and ``_LaneObjective.rows`` once
    per linear-wrap kind, on the stacked values of that kind's cores.
    ``objectives`` are the cores' ``_LaneObjective``s, sorted by kind; a
    lane's owner indexes them, and the lanes are in owner order."""

    def __init__(self, objectives, ceiling=math.inf):
        self.objectives = objectives
        self.ceiling = ceiling
        self._owner = None

    def __call__(self, points, owner):
        if owner is not self._owner:
            self._segments(owner)
        per = len(points) // len(owner)
        if points.ndim == 1:
            points = points[:, None]
        m = self.objectives[0].target.size
        out = np.empty(len(points))
        for rows, start, stop, cores in self._kinds:
            parts = []
            for at, a, b in cores:
                block = points[a * per : b * per]
                part = at(tuple(block[:, j : j + 1] for j in range(block.shape[1])))
                parts.append(_full(part, (len(block), m)))
            u = parts[0] if len(parts) == 1 else np.concatenate(parts)
            out[start * per : stop * per] = rows(u, self.ceiling)[0]
        return out

    def _segments(self, owner):
        """Each kind's lanes and each core's, from the owners of the live
        lanes."""
        self._owner = owner
        cuts = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
        kinds, last = [], None
        for a, b in zip([0, *cuts], [*cuts, len(owner)]):
            lanes = self.objectives[owner[a]]
            kind = (lanes.has_mul, lanes.has_add)
            if kind != last:
                kinds.append([lanes.rows, a, b, []])
                last = kind
            kinds[-1][2] = b
            kinds[-1][3].append((lanes.at, a, b))
        self._kinds = kinds


def _first_best(xs, fxs):
    """(constants, sse) of the first lane with the least finite SSE, or
    (None, inf) when no lane has one."""
    best_v, best_sse = None, np.inf
    for x, fx in zip(xs, fxs):
        if np.isfinite(fx) and fx < best_sse:
            best_sse, best_v = float(fx), tuple(float(v) for v in np.atleast_1d(x))
    return best_v, best_sse


class _Plan:
    """One shape's fit in progress, from ``_ShapeFitter._plan``: its profiled
    objective ``lanes`` with ``k`` inner slots, its ``core``, whether the
    screen checks it, its table slot ``path`` (when the screen's span
    box was checked from the value table), its lanes' ``starts`` and, once
    they have run, their ``runs``; a slot-free shape's ``fit`` and ``nan``
    are known at once (see ``_ShapeFitter.fit``)."""

    __slots__ = ("core", "k", "lanes", "screen", "path", "starts", "runs", "fit", "nan")

    def __init__(self, core, k, lanes=None, screen=False):
        self.core, self.k, self.lanes, self.screen, self.path = core, k, lanes, screen, None
        self.starts, self.runs, self.fit, self.nan = [], ((), ()), None, False


class _ShapeFitter:
    """Fits constant slots of shapes against targets over fixed sample envs.

    It returns None for one-slot shapes without a linear wrap that the
    interval screen (``_rule_out``) shows cannot come within the screen's
    band of every target.  A ``strict`` fitter serves a strict-mode search,
    which keeps only fits within ``STRICT_TOL``: its band is the targets
    +- ``2 * STRICT_TOL``, always.  A flexible fitter screens only in
    ``fit_all`` given a ``reach``, the radius from the slice-fit cap that
    the search sets (see ``_qualifying_fits``).
    """

    def __init__(self, envs, target, strict=False):
        self.envs = {k: np.asarray(v, dtype=float) for k, v in envs.items()}
        self.target = np.asarray(target, dtype=float)
        self.grid = _scale_grid(self.envs, self.target)
        self.strict = strict
        self.free_nan = False
        self._band = (self.target - 2.0 * STRICT_TOL, self.target + 2.0 * STRICT_TOL) if strict else None
        # the span box, which holds every Brent bracket (see _fit_plans)
        self._span = (float(self.grid[0] - 1.0), float(self.grid[-1] + 1.0))

    def fit(self, shape):
        """Return (const_vector, sse, max_abs) or None when no fit with
        finite constants and a finite SSE exists.  ``max_abs`` is the
        max-abs residual of a slot-free shape, whose values the fit computes
        anyway, and None for other shapes: a fit with ``max_abs`` is of a
        slot-free shape, which the search takes as its own fitted expression
        with this residual.  After each call ``free_nan`` says whether the
        shape is slot-free with values that are nan at some sample.

        The search fits a slot-free shape here when its operands have no
        values in its table, as for a variable; ``fit_all`` fits the shapes
        with slots together.  This path plans the one shape (``_plan``) and
        runs its lanes alone, without a table: it is the per-shape reference
        that the pooled fits are tested against."""
        with np.errstate(all="ignore"):
            plan = self._plan(shape)
            self.free_nan = plan.nan
            return self._fit_plans([plan], None)[0]

    def fit_all(self, shapes, values=None, reach=None):
        """The ``fit`` of each of the ``shapes``, in order, but None for a
        one-slot shape that the screen rules out.

        The shapes are planned one at a time (``_plan``, which compiles each
        core) and fitted together: the screen, the grid passes and then the
        Brent and Nelder-Mead lanes of all of them, in chunks of at most
        ``_POOL_CELLS`` cells of lane rows (``_minimize``).  Given ``values``
        (a ``_ShapeValues`` over these envs), the screen first checks the
        span box of every one-slot shape without a linear wrap that has a
        slot path there, all at once and before any of them is compiled,
        and later the brackets of those that survive.

        A strict fitter screens against its fixed band.  A flexible fitter
        screens only given a ``reach`` R, against the targets +- R, each
        end moved out by ``4 * eps * |target|`` so that a value outside the
        band is more than R (1 - eps) from its target after rounding too;
        without one it screens nothing.  The band holds for this call."""
        band = self._band
        if not self.strict and reach is not None:
            pad = reach + 4.0 * _EPS * np.abs(self.target)
            self._band = (self.target - pad, self.target + pad)
        try:
            return self._fit_all(shapes, values)
        finally:
            self._band = band

    def _fit_all(self, shapes, values):
        fits = [None] * len(shapes)
        paths = {}
        with np.errstate(all="ignore"):
            todo = range(len(shapes))
            if self._band is not None and values is not None:
                todo, paths = self._table_screen(shapes, values)
            chunk, cells = [], 0
            for i in todo:
                plan = self._plan(shapes[i])
                plan.path = paths.get(i)
                chunk.append((i, plan))
                cells += self.target.size * _lane_rows(plan.k)
                if cells >= _POOL_CELLS or i == todo[-1]:
                    # the last shape, or the lanes' bound: fit the chunk
                    for (j, _), fit in zip(chunk, self._fit_plans([p for _, p in chunk], values)):
                        fits[j] = fit
                    chunk, cells = [], 0
        return fits

    def _table_screen(self, shapes, values):
        """``(todo, paths)``: the positions of the ``shapes`` that the span
        box screen over the value table does not rule out, and the slot
        paths of the one-slot shapes that it checked."""
        wrapless = [i for i, shape in enumerate(shapes) if _linear_split(shape)[0] is shape]
        found = values.slot_paths([shapes[i] for i in wrapless])
        checked = [(i, path) for i, path in zip(wrapless, found) if path is not None]
        meets = self._table_meets(values, [path for _, path in checked])
        ruled = self._rule_out([[self._span]] * len(checked), meets)
        out = {i for (i, _), r in zip(checked, ruled) if r}
        paths = {i: path for (i, path), r in zip(checked, ruled) if not r}
        return [i for i in range(len(shapes)) if i not in out], paths

    def _plan(self, shape):
        """The per-shape entry of ``fit_all``: compile the shape's core and
        give its ``_Plan``.  A slot-free shape without a linear wrap is
        fitted here: its values are its fit."""
        core, has_mul, has_add = _linear_split(shape)
        k, at = compile_shape(core, self.envs)
        if k == 0 and not (has_mul or has_add):
            plan = _Plan(core, 0)
            vals = _full(at(()), self.target.shape)
            if not np.all(np.isfinite(vals)):
                plan.nan = bool(np.isnan(vals).any())
            else:
                resid = vals - self.target
                plan.fit = (), float(resid @ resid), float(np.max(np.abs(resid)))
            return plan
        lanes = _LaneObjective(at, self.target, has_mul, has_add)
        return _Plan(core, k, lanes, self._band is not None and k == 1 and not (has_mul or has_add))

    def _fit_plans(self, plans, values):
        """The fits of the planned shapes, fitted together, as a list.

        A one-slot shape gets its Brent brackets from a grid pass
        (``_brackets``).  When the screen checks it, its span box
        [g_0 - 1, g_last + 1] over the start grid g is screened first (here
        for shapes without a table path), and its brackets after the grid
        pass.  The span box contains every bracket, since a bracket's ends
        are grid neighbours, or a grid end moved by 1, and a bracket's snap
        padding is at most the span's; a shape ruled out over it needs no
        grid pass.  A two-slot shape's Nelder-Mead starts come from a coarse
        grid pass, and more slots start at fixed points."""
        one = [p for p in plans if p.k == 1]
        spans = [[self._span] if p.screen and p.path is None else [] for p in one]
        one = [p for p, out in zip(one, self._screen(one, spans, values)) if not out]
        for p in one:
            p.starts = self._brackets(p.lanes)
        brackets = [p.starts if p.screen else [] for p in one]
        for p, out in zip(one, self._screen(one, brackets, values)):
            if out:
                p.starts = []
        for p in plans:
            if p.k == 2:
                p.starts = self._nelder_mead_starts(p.lanes)
            elif p.k > 2:
                p.starts = list(itertools.islice(itertools.product(_MANY_STARTS, repeat=p.k), 64))
        self._run(one, lambda starts, owner: _Brent(*zip(*starts), owner), 1e300)
        for k in sorted({p.k for p in plans if p.k > 1}):
            maxiter = 400 if k == 2 else 600
            self._run(
                [p for p in plans if p.k == k],
                lambda starts, owner: _NelderMead(starts, owner, maxiter),
                math.inf,
            )
        return [self._finish(p) for p in plans]

    def _run(self, plans, machine, ceiling):
        """Run the lanes of ``plans`` (their ``starts``) together, the
        plans sorted by wrap kind, and keep each plan's lane results, its
        lanes' x and fx in start order, in ``runs``."""
        plans = sorted(
            (p for p in plans if p.starts), key=lambda p: (p.lanes.has_mul, p.lanes.has_add)
        )
        if not plans:
            return
        owner = np.repeat(np.arange(len(plans)), [len(p.starts) for p in plans])
        starts = [s for p in plans for s in p.starts]
        done = _minimize(machine(starts, owner), _PoolObjective([p.lanes for p in plans], ceiling))
        end = 0
        for p in plans:
            start, end = end, end + len(p.starts)
            p.runs = done.x_end[start:end], done.f_end[start:end]

    def _finish(self, plan):
        """The fit of a plan whose lanes have run: the best lane's inner
        constants with the profiled ones refitted on one row (a slot-free
        shape's fit is known from its plan)."""
        if plan.lanes is None:
            return plan.fit
        inner = ()
        lanes = plan.lanes
        if plan.k:
            inner, sse = _first_best(*plan.runs)
            if inner is None or not np.isfinite(sse):
                return None
        sse, ca, cb = lanes.rows(_full(lanes.at(inner), (1, self.target.size)))
        consts = self._assemble(inner, ca, cb, lanes.has_mul, lanes.has_add)
        if not (np.isfinite(sse[0]) and all(map(math.isfinite, consts))):
            return None
        return consts, float(sse[0]), None

    def _assemble(self, inner, ca, cb, has_mul, has_add):
        """The constant vector: ``inner`` then the profiled c_a and c_b
        present, from ``rows`` of one row."""
        out = list(inner)
        if has_mul:
            out.append(float(ca[0, 0]))
        if has_add:
            out.append(float(cb[0, 0]))
        return tuple(out)

    def _brackets(self, lanes):
        """The grid neighbours around each of the three best grid points
        with a finite SSE."""
        grid = self.grid
        sse = lanes(grid)
        brackets = []
        for idx in np.argsort(sse, kind="stable")[:3]:
            if not np.isfinite(sse[idx]):
                continue
            lo = grid[idx - 1] if idx > 0 else grid[idx] - 1.0
            hi = grid[idx + 1] if idx + 1 < grid.size else grid[idx] + 1.0
            brackets.append((float(lo), float(hi)))
        return brackets

    def _screen(self, plans, boxes, values):
        """Whether the screen rules out each plan (a one-slot core)
        over its ``boxes``, none for no boxes: from the value table for
        plans with a slot path, else by ``compile_interval``."""
        out = [bool(b) and p.path is None and self._cannot_qualify(p.core, b) for p, b in zip(plans, boxes)]
        tabled = [j for j, p in enumerate(plans) if p.path is not None and boxes[j]]
        if tabled:
            meets = self._table_meets(values, [plans[j].path for j in tabled])
            for j, ruled in zip(tabled, self._rule_out([boxes[j] for j in tabled], meets)):
                out[j] = bool(ruled)
        return out

    def _cannot_qualify(self, core, brackets):
        """True when no constant in the brackets, moved by up to two snap
        steps, brings the one-slot ``core`` within the band at every sample:
        ``_rule_out`` with ``compile_interval``'s enclosures.

        ``compile_interval`` encloses the core's values over each box, and
        also those of its ``canonical_simplify`` form, whose residual the
        search reads."""
        _, at = compile_interval(core, self.envs)

        def meets(owner, lo, hi):
            return self._meets(*at(((lo[:, None], hi[:, None]),)))

        return bool(self._rule_out([brackets], meets)[0])

    def _table_meets(self, values, paths):
        """``meets`` for ``_rule_out`` from the value table's enclosures of
        the shapes with these slot ``paths`` (``_ShapeValues.enclose``)."""

        def meets(owner, lo, hi):
            return values.enclose([paths[o] for o in owner.tolist()], lo, hi, self._meets)

        return meets

    def _meets(self, v_lo, v_hi):
        """Whether each box's enclosure meets the targets' band at every
        sample (an empty enclosure, nan, meets nothing): target +-
        ``2 * STRICT_TOL`` in strict mode, or the reach that ``fit_all``
        was given in flexible mode."""
        band_lo, band_hi = self._band
        return ((v_hi >= band_lo) & (v_lo <= band_hi)).all(axis=1)

    def _rule_out(self, boxes, meets):
        """For each shape, whether no constant in its ``boxes`` (brackets),
        moved by up to two snap steps, brings it within the band at every
        sample; ``meets(owner, lo, hi)`` tells, for boxes of the shapes
        ``owner``, whether each box's enclosure meets the band at every
        sample (``_meets``).

        Bounded Brent evaluates only inside its bracket, ``_first_best``
        returns one of its points and ``snap`` moves that by at most one
        snap step; the boxes leave room for two.  A box is ruled out when,
        at some sample, its enclosure misses the target's band or is empty
        (every value nan), and a shape when all its boxes are.  A shape's
        boxes that survive are halved until a level rules none of them out,
        or up to ``SCREEN_LEVELS`` levels and ``SCREEN_BOXES`` boxes.  The
        shapes are screened together, level by level; each box's verdict is
        its own."""
        count = len(boxes)
        out = np.zeros(count, dtype=bool)
        owner = np.repeat(np.arange(count), [len(b) for b in boxes])
        if not owner.size:
            return out
        lo, hi = np.array([box for b in boxes for box in b], dtype=float).T
        pad = 2.0 * INT_SNAP_REL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        lo, hi = lo - pad, hi + pad
        for level in range(SCREEN_LEVELS):
            with np.errstate(all="ignore"):
                live = meets(owner, lo, hi)
            total = np.bincount(owner, minlength=count)
            alive = np.bincount(owner[live], minlength=count)
            out |= (total > 0) & (alive == 0)
            # halving ruled nothing out; deeper levels seldom do
            go = (alive > 0) & (2 * alive <= SCREEN_BOXES) & ((alive < total) if level else True)
            keep = live & go[owner]
            if level + 1 == SCREEN_LEVELS or not keep.any():
                break
            lo, hi, owner = lo[keep], hi[keep], owner[keep]
            mid = 0.5 * (lo + hi)
            lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([owner, owner])
        return out

    def _coarse(self):
        g = self.grid
        return g[:: max(1, g.size // 28)]

    def _nelder_mead_starts(self, lanes):
        """The three best points of the coarse grid's rows with a finite
        SSE, each row's best."""
        coarse = self._coarse()
        grid = lanes([(c1, c2) for c1 in coarse for c2 in coarse])
        best = []
        for c1, sse in zip(coarse, grid.reshape(coarse.size, coarse.size)):
            idx = int(np.argmin(sse))
            if np.isfinite(sse[idx]):
                best.append((float(sse[idx]), float(c1), float(coarse[idx])))
        best.sort()
        return [(c1, c2) for _, c1, c2 in best[:3]]

    def snap(self, shape, consts, sse):
        """Round near-integer constants when the fit does not degrade."""
        if not consts:
            return consts, sse
        snapped = tuple(
            round(c) if abs(c - round(c)) <= INT_SNAP_REL * max(1.0, abs(c)) else c
            for c in consts
        )
        if snapped == consts:
            return consts, sse
        vals = evaluate(shape, self.envs, list(snapped))
        if not np.all(np.isfinite(vals)):
            return consts, sse
        resid = vals - self.target
        new_sse = float(resid @ resid)
        if new_sse <= sse * (1 + 1e-9) + 1e-18:
            return snapped, new_sse
        return consts, sse

    def free_residuals(self, values, shapes):
        """The max-abs residual of each of the ``shapes`` that ``values``
        (a ``_ShapeValues``) can value, which are slot-free, as an array:
        nan where its values are nan at some sample, inf where they are
        otherwise not finite or the residual overflows, and -1.0 for each
        other shape, which ``fit_all`` takes.  A finite entry is the
        ``max_abs`` that ``fit`` gives the shape, bit for bit."""
        out = np.full(len(shapes), -1.0)
        pos, vals = values.values(shapes)
        if len(pos):
            with np.errstate(all="ignore"):
                np.subtract(vals, self.target, out=vals)
                out[pos] = np.max(np.abs(vals, out=vals), axis=1)
        return out

    def residual_of(self, expr):
        vals = evaluate(expr, self.envs)
        vals = _full(vals, self.target.shape)
        if not np.all(np.isfinite(vals)):
            return np.inf
        return float(np.max(np.abs(vals - self.target)))


# the starts of fits with three or more inner slots: their first 64 tuples
_MANY_STARTS = (0.0, 1.0, -1.0, 2.0)


def _lane_rows(k):
    """Rows that the lanes of a shape with ``k`` inner slots evaluate in a
    step at most: three Brent lanes, three Nelder-Mead lanes for two slots
    and 64 for more, each with its 4 + k points of an iteration."""
    if k < 2:
        return 3 * k
    return (3 if k == 2 else 64) * (4 + k)


_ZERO_CONST_COST = _const_cost(0)
_MIN_CONST_COST = _const_cost(1)
_POW2_VAR_COST = OP_COST + VAR_COST


def _shape_lower_bound(facts, n):
    """Intended lower bound on any lifted-candidate score from a shape of
    ``n`` nodes, from its enumerator counts (``expressions._Counts``, or
    its ``_Facts``), which the strict search's bound skip compares with the
    best score.

    The costs are the expression cost table's, by which the search ranks.
    A shape holds operators, variables and slots.  A surviving constant
    costs at least ``_const_cost(1)`` (|c| >= 1 after identity folding)
    except in sub-LHS position, where 0 survives folding; the cheapest
    substitution is priced as pow2(y), two points.  The costs are small
    integers stored as floats, so these sums of them are exact.

    It is not a true lower bound: ``c -> y`` costs one point, and it is
    free of the orientation surcharge when the lift is even in ``y`` (a new
    dimension: ``abs(cos(mul(t,~)))`` lifts to ``abs(cos(mul(x,y)))`` at 5
    against a bound of 6) or when c equals the frame's y0 (``abs(add(pow2(t),
    ~))`` at c = y0 = 3 lifts to ``abs(add(pow2(x),y))`` at 5, bound 6).  So
    the skip can drop a candidate that would tie the certified best; the
    level stop does not depend on this bound.
    """
    variables = n - facts.operators - facts.slots
    units = facts.operators * OP_COST + variables * VAR_COST
    if not facts.slots:
        return units
    others = facts.slots - facts.lhs_slots
    total = units + others * _MIN_CONST_COST + facts.lhs_slots * _ZERO_CONST_COST
    # the dearest slot: _const_cost grows with |c|
    return min(total, total - (_MIN_CONST_COST if others else _ZERO_CONST_COST) + _POW2_VAR_COST)


# ---------------------------------------------------------------------------
# enumeration driver
# ---------------------------------------------------------------------------


def _nan_operand(shape, nan_shapes):
    """True when an operand of ``shape`` is in ``nan_shapes``, shapes with a
    slot-free part that is nan at some sample.  Nan passes through every
    grammar operator and the linear wrap, so the shape is nan there at any
    constants, and ``_ShapeFitter.fit`` would find no fit.  Inf does not
    pass through (1/inf = 0): only nan is tracked."""
    return any(op in nan_shapes for op in _operands_of(shape))


def _fitted(fitter, enum, shape, n, fit):
    """``(expr, residual, key)`` of a fit of the n-node ``shape`` that
    ``enum`` built, with ``key = serialize(expr)``, or None when the fitted
    expression folds to fewer nodes (a duplicate of a smaller shape) or its
    residual is not finite.

    A fit that carries ``max_abs`` is of a slot-free shape.  Every shape the
    enumerator builds is a ``canonical_simplify`` fixpoint, so that shape is
    its own fitted expression, of n nodes; its residual is ``max_abs``
    (``compile_shape``'s values are ``evaluate``'s, bit for bit) and its key
    the enumerator's.  Only a fit of a shape with slots is snapped, filled
    in, simplified, counted and serialized.
    """
    consts, sse, max_abs = fit
    if max_abs is not None:
        expr, residual, key = shape, max_abs, enum._key_of(shape)
    else:
        consts, sse = fitter.snap(shape, consts, sse)
        expr = canonical_simplify(assign_slots(shape, consts))
        if node_count(expr) < n:
            return None
        residual, key = fitter.residual_of(expr), serialize(expr)
    if not np.isfinite(residual):
        return None
    return expr, residual, key


def _cap_reach(results, free, batch, enum, seen):
    """The flexible screen's radius R before a level's fits run, or None
    while fewer than ``MAX_SLICE_FITS`` distinct fits are known.

    The known fits are the ``results`` so far and the level's slot-free
    shapes with a finite residual in ``free`` whose keys are not ``seen``.
    Let q be the ``MAX_SLICE_FITS``-th least ``quantize_residual`` among
    them, which is that of the ``MAX_SLICE_FITS``-th least residual, since
    ``quantize_residual`` is monotone.  Every residual above R =
    max(q, ``STRICT_TOL``) (1 + 1e-6) quantizes above q: the widening is
    far above rounding to ``RANK_DIGITS`` digits (see ``_qualifying_fits``).
    """
    known = [residual for _, residual, _ in results]
    for i in np.flatnonzero(np.isfinite(free) & (free >= 0.0)).tolist():
        if enum._key_of(batch[i]) not in seen:
            known.append(free[i])
    if len(known) < MAX_SLICE_FITS:
        return None
    q = quantize_residual(float(np.partition(known, MAX_SLICE_FITS - 1)[MAX_SLICE_FITS - 1]))
    return max(q, STRICT_TOL) * (1.0 + 1e-6)


def _qualifying_fits(fitter, grammar, budget, lift):
    """Enumerate shapes over the fitter's variables, which the frame sets,
    in ascending size, fit constants, and return the qualifying
    (expr, residual, key) triples, where ``key`` is ``serialize(expr)``.

    A strict fitter (``fitter.strict``) keeps only fits with max-abs
    residual at or below the strict tolerance.  The least score of a
    qualifying fit's candidates, ``min(c.score for c in lift(expr))``,
    certifies when no later level can still contribute; in strict mode
    shapes whose lower bound exceeds the certified best are skipped without
    fitting.  The certified stop is checked before a level is built, so the
    enumerator never builds a level that would not be fitted.  The
    ``grammar.max_depth`` filter runs only on levels above it: an n-node
    tree is at most n deep.  The caller lifts only the best
    ``MAX_SLICE_FITS`` of the fits, in every frame and mode.

    The search walks no shape's tree: the bound skip and the depth filter
    read the counts that the enumerator builds from the operands' facts
    without composing a key (``ShapeEnumerator._counts_of``), and a shape's
    node count is its level.
    A shape with an operand in ``nan_shapes`` (``_nan_operand``) is charged
    to the budget like any other but not fitted, since its fit would be
    None.  A slot-free shape joins ``nan_shapes`` when its values are nan
    at some sample; any shape joins it when its level becomes an operand
    level and one of its operands is in it.

    Nor does it fit a shape alone.  A level is fitted in three steps, after
    its batch is fixed: the bound skip and the budget read only earlier
    levels, and no shape of a level is an operand of another, so
    ``nan_shapes`` is fixed for the level too.  First the slot-free shapes
    whose operands have values in a table (``expressions._ShapeValues``)
    are valued ``_SHAPE_BLOCK`` at a time, one gather, operation and
    scatter per operator and operand levels; ``_ShapeFitter.free_residuals``
    gives each its max-abs residual, or marks it nan or not finite.  Then
    ``_ShapeFitter.fit_all`` fits every other shape of the level together:
    the screen over the table, the grid passes, and the Brent and
    Nelder-Mead lanes of many shapes as arrays.  Its fits equal
    ``_ShapeFitter.fit``'s of each shape alone, but for the fits that a
    flexible fitter screens out (below), and it names the slot-free shapes
    it fitted whose values are nan.  A level is handed to the table
    when it becomes an operand level, never while it is fitted, and
    without its shapes in ``nan_shapes``: a shape built on one is nan too,
    and is not fitted.  The table keeps the newest operand level as
    recipes and stores the rows of the levels below it (see
    ``_ShapeValues``).  Last the level is read in batch order, so ``seen``,
    the order of the results and the budget count are those of fitting each
    shape alone.  A slot-free shape is its own fitted expression
    (``_fitted``), which is not walked either; only fits of shapes with
    slots are simplified, counted and serialized.  The ``seen`` dedupe and
    the caller's sort read the returned key.

    The fitter returns no fit for a one-slot shape without a linear wrap
    when its interval screen rules out the span box over the whole start
    grid, or else every Brent bracket (``_ShapeFitter._rule_out``): when no
    constant in them brings the shape within a band around the targets at
    every sample.  ``fit_all`` screens the span boxes of a level's one-slot
    shapes from the table before it compiles any of them, so a shape ruled
    out there is never compiled.  Brent evaluates only inside its
    brackets, the fit is one of its points, and ``snap`` moves it by at
    most one snap step, which the screened boxes include; every bracket,
    with that padding, lies inside the padded span box, since a bracket's
    ends are grid points or a grid end moved by 1.  The screen encloses the
    values of the simplified expression whose residual is read here, chains
    re-sorted included.  So a ruled-out fit's residual is above the band's
    radius.  The modes differ only in that radius:

    * strict mode: ``2 * STRICT_TOL``, so a ruled-out fit would not have
      qualified;
    * flexible mode: the reach R of ``_cap_reach``, set before the level's
      fits run from the distinct fits known then (the results so far and
      the level's table residuals whose keys are not ``seen``), once at
      least ``MAX_SLICE_FITS`` are known.  A ruled-out fit quantizes above
      the ``MAX_SLICE_FITS``-th least quantized residual q of those, and
      more fits can only lower q, since ``quantize_residual`` is monotone.
      So at least ``MAX_SLICE_FITS`` fits of other keys rank before it in
      the caller's sort, and the cap would have dropped it.  Until that
      many are known, nothing is screened.

    The output is the same as without the screen.  A ruled-out fit would
    have been marked ``seen`` and kept only past the cap (strict mode: not
    kept), and a later fit of the same key has the same residual, so it is
    dropped the same way.  That needs fits with equal keys to have equal
    residuals.  ``serialize`` merges the sign of a zero constant, so two
    such fits can differ in it; the residuals could then differ only where
    a sample sends the sign through a division to a value that differs.
    """
    grammar = grammar or Grammar()
    enum = ShapeEnumerator(grammar, tuple(fitter.envs))
    strict = fitter.strict
    budget = DEFAULT_BUDGET if budget is None else int(budget)
    best_score = math.inf
    seen = set()
    results = []
    # shapes with a slot-free part that is nan at some sample
    nan_shapes = set()
    values = _ShapeValues(fitter.envs)

    level = []
    for n in range(grammar.max_nodes + 1):
        if budget <= 0:
            break
        if strict and math.isfinite(best_score) and n > max(best_score, ENUM_FLOOR):
            break
        # the last level's shapes become operands
        for shape in level:
            if _nan_operand(shape, nan_shapes):
                nan_shapes.add(shape)
        if n > 2:
            # the variables' rows are there from the start
            values.add_level(level, nan_shapes)
        if n == 0:
            # level 0 holds the bare-constant shape; level n the n-node shapes
            shapes = [("slot",)]
        else:
            level = shapes = enum.shapes(n)
            if n > grammar.max_depth:
                shapes = [s for s in level if enum._counts_of(s).depth <= grammar.max_depth]
        bound_skip = strict and math.isfinite(best_score) and n > ENUM_FLOOR
        batch = []
        for shape in shapes:
            if budget <= 0:
                break
            if bound_skip and _shape_lower_bound(enum._counts_of(shape), n) > best_score:
                continue
            batch.append(shape)
            budget -= 1
        # the table's residuals, block by block, then the fits of the rest
        free = np.empty(len(batch))
        pending = []
        for start in range(0, len(batch), _SHAPE_BLOCK):
            block = batch[start : start + _SHAPE_BLOCK]
            free[start : start + len(block)] = residuals = fitter.free_residuals(values, block)
            for i in np.flatnonzero(residuals < 0.0).tolist():
                if not _nan_operand(block[i], nan_shapes):  # else the fit would be None
                    pending.append(start + i)
        fits, pooled = {}, []
        for i in pending:
            # level 0's bare slot has no counts; every other shape has
            if n and not enum._counts_of(batch[i]).slots:
                fits[i] = fit = fitter.fit(batch[i])
                if fit is None and fitter.free_nan:
                    nan_shapes.add(batch[i])
            else:
                pooled.append(i)
        reach = None if strict else _cap_reach(results, free, batch, enum, seen)
        fits.update(zip(pooled, fitter.fit_all([batch[i] for i in pooled], values, reach)))
        for start in range(0, len(batch), _SHAPE_BLOCK):
            block = free[start : start + _SHAPE_BLOCK].tolist()
            for i, max_abs in enumerate(block, start):
                shape = batch[i]
                if max_abs < 0.0:
                    fit = fits.get(i)
                    out = None if fit is None else _fitted(fitter, enum, shape, n, fit)
                elif max_abs < math.inf:
                    # a slot-free shape is its own fit (see _fitted)
                    out = shape, max_abs, enum._key_of(shape)
                else:
                    if max_abs != max_abs:
                        nan_shapes.add(shape)
                    out = None
                if out is None:
                    continue
                expr, residual, key = out
                if key in seen:
                    continue
                seen.add(key)
                if strict:
                    if residual > STRICT_TOL:
                        continue
                    best_score = min(best_score, min(c.score for c in lift(expr)))
                results.append(out)
    return results


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _is_even_in(expr, name):
    """Numeric evenness check of expr in one variable (nan-tolerant)."""
    others = sorted(v for v in variables_of(expr) if v != name)
    grid = np.array([-13.7, -2.3, 0.41, 3.9, 29.0])
    u = np.array([0.37, 1.91, 5.3, 17.0])
    env_pos = {name: u[:, None]}
    env_neg = {name: -u[:, None]}
    for i, v in enumerate(others):
        env_pos[v] = grid[None, :] + i
        env_neg[v] = grid[None, :] + i
    a = np.asarray(evaluate(expr, env_pos), dtype=float)
    b = np.asarray(evaluate(expr, env_neg), dtype=float)
    a = np.broadcast_to(a, (u.size, grid.size))
    b = np.broadcast_to(b, (u.size, grid.size))
    both = np.isfinite(a) & np.isfinite(b)
    if not np.array_equal(np.isfinite(a), np.isfinite(b)):
        return False
    if not both.any():
        return True
    return bool(np.allclose(a[both], b[both], rtol=1e-9, atol=1e-12))


def _substitutions(c, frame):
    """``lift_constants``'s menu for one constant c: ``(body, y0, kind)``
    triples, where ``body`` at the calibration ``y0`` equals c."""
    y = var(frame.transverse_var)
    free, y0_fixed = frame.free_calibration, frame.y0
    if free or math.isclose(c, y0_fixed, rel_tol=1e-9, abs_tol=1e-9):
        yield y, c if free else y0_fixed, "sub_y"
    try:
        square = y0_fixed**2
    except OverflowError:
        square = None  # beyond every finite c - b
    for b in (0,) + SHIFT_OFFSETS:
        disc = c - b
        if disc < 0:
            continue
        root = math.sqrt(disc)
        body = _plus(("pow2", y), b)
        if free:
            for y0 in [0.0] if root == 0.0 else [-root, root]:
                yield body, y0, "sub_y2"
            continue
        if square is not None and math.isclose(square, disc, rel_tol=1e-9, abs_tol=1e-9):
            yield body, y0_fixed, "sub_y2"
        # shifted square (y - a)^2 + b with the frame pinning a
        for a in sorted({y0_fixed - root, y0_fixed + root}):
            if abs(a) <= 1e-12:
                continue  # plain y^2 handled above
            shift = y0_fixed - a  # squared by multiplying, which cannot raise
            if not math.isclose(shift * shift, disc, rel_tol=1e-9, abs_tol=1e-9):
                continue  # a rounded to y0, or near it: the square misses c - b
            if abs(a - round(a)) <= 1e-9:
                a = float(round(a))
            yield _plus(("pow2", ("sub", y, const(a))), b), y0_fixed, "sub_shift"


def _plus(body, b):
    return ("add", body, const(b)) if b else body


def lift_constants(expr, slice_hint=None):
    """Lift a slice expression into the transverse coordinate.

    The slice variable t is renamed to the ambient one; that is the identity
    (extrusion) lifting.  Each constant occurrence c is then replaced in
    turn by c -> y, and by c -> y^2 + b for b in 0 and ``SHIFT_OFFSETS``
    with c - b >= 0.  A new dimension calibrates y0 at each root of y0^2 = c
    - b.  A fixed frame keeps only the substitutions that its y0 satisfies,
    and adds the shifted squares c -> (y - a)^2 + b whose roots a +- sqrt(c
    - b) include its y0.  Pure-constant expressions only extrude: there is
    no structure for a new coordinate to explain.  Every candidate's
    residual is 0; the search measures each one's own.
    """
    frame = slice_hint or SliceFrame(
        mode="new_dim", slice_var="x", transverse_var="y", y0=0.0
    )
    tv = frame.transverse_var
    renamed = canonical_simplify(substitute(expr, {"t": var(frame.slice_var)}))
    out = []

    def emit(e, y0, kind):
        e = canonical_simplify(e)
        score = complexity(e)
        if frame.free_calibration and tv in variables_of(e) and not _is_even_in(e, tv):
            # the data cannot orient the new axis: unmirrorable transverse
            # dependence costs one extra bit
            score += INT_BIT_COST
        out.append(
            CandidateLifting(
                expr=e,
                y0=float(y0),
                score=score,
                residual=0.0,
                kind=kind,
                frame=frame,
            )
        )

    emit(renamed, frame.y0 if not frame.free_calibration else 0.0, "extrusion")
    if not variables_of(renamed):
        return _dedupe(out)
    shape, values = _split_constants(renamed)
    for index, c in enumerate(values):
        for body, y0, kind in _substitutions(c, frame):
            emit(assign_slots(shape, values[:index] + [body] + values[index + 1:]), y0, kind)
    return _dedupe(out)


def _dedupe(cands):
    seen = {}
    for c in cands:
        key = (serialize(c.expr), round(c.y0, 9))
        if key not in seen:
            seen[key] = c
    return list(seen.values())


def search_hyperpolation(data, grammar=None, budget=None):
    """Full search: slice fit composed with constant lifting, ranked.

    The frame sets the fitter's variables: ``t`` along the slice axis for a
    new dimension or an axis frame, whose fits ``lift_constants`` carries
    off the slice, and ``x`` and ``y`` for a general (non-axis-aligned) 2D
    hull, whose fits are enumerated directly over the ambient variables and
    each become one ``direct`` candidate.  In every frame and mode the best
    ``MAX_SLICE_FITS`` fits by (residual, slice complexity, serialization)
    are lifted, and each lifted candidate's residual is that of its slice
    restriction (a direct candidate keeps its fit's).  Returns candidates
    ordered by (residual, score) with deterministic tie-breaking on
    (serialized expression, y0); reflected-symmetry pairs carry identical
    scores and co-occur.

    ``budget`` caps the number of shapes fitted: None for
    ``DEFAULT_BUDGET``, or a non-negative integer.
    """
    if not (budget is None or _is_count(budget)):
        raise InvalidInputError(
            f"search budget must be None or a non-negative integer, got {budget!r}"
        )
    frame = detect_frame(data)
    if frame.mode == "ambient":
        envs = {"x": data.locations[:, 0], "y": data.locations[:, 1]}

        def lift(expr):
            return [CandidateLifting(expr, frame.y0, complexity(expr), 0.0, "direct", frame)]

    else:
        # a new-dimension frame's slice coordinate is its only axis, 0
        envs = {"t": data.locations[:, frame.parallel_axis]}

        def lift(expr):
            return lift_constants(expr, frame)

    fitter = _ShapeFitter(envs, data.values, data.strict)
    fits = _qualifying_fits(fitter, grammar, budget, lift)
    fits.sort(key=lambda f: (quantize_residual(f[1]), complexity(f[0]), f[2]))
    candidates = []
    for expr, fit_residual, _ in fits[:MAX_SLICE_FITS]:
        for cand in lift(expr):
            residual = fit_residual
            if cand.kind != "direct":
                restricted = substitute(restrict(cand), {frame.slice_var: var("t")})
                residual = fitter.residual_of(restricted)
            if np.isfinite(residual):
                candidates.append(replace(cand, residual=residual))
    candidates = _dedupe(candidates)
    candidates.sort(key=lambda c: c.rank_key)
    return candidates


def restrict(candidate):
    """Slice restriction of a candidate: the expression at y = y0.

    For general 2D hulls the restriction substitutes the line's unit-speed
    parametrization instead.
    """
    frame = candidate.frame
    if frame.mode in ("new_dim", "axis"):
        return canonical_simplify(
            substitute(candidate.expr, {frame.transverse_var: const(candidate.y0)})
        )
    chart = frame.chart
    b = chart.base
    d = chart.basis[0]
    mapping = {}
    for i, name in enumerate(("x", "y")):
        expr = ("add", ("mul", const(d[i]), var("t")), const(b[i]))
        mapping[name] = canonical_simplify(expr)
    return canonical_simplify(substitute(candidate.expr, mapping))


def predict_candidate(candidate, points):
    """Evaluate a candidate hypothesis at ambient query points.

    New-dimension candidates read queries as (x, offset) in the canonical
    embedding where the slice sits at offset 0; the candidate's own frame
    places the slice at y0, so the transverse coordinate is y0 + offset.
    """
    pts, _ = _as_points(points)
    vals = evaluate(candidate.expr, _candidate_env(candidate, pts))
    return np.broadcast_to(np.asarray(vals, dtype=float), (pts.shape[0],)).copy()


def _candidate_env(candidate, pts):
    """Variable arrays of ``candidate.expr`` at the rows of a 2-D float array
    (see ``predict_candidate``); for None, those of a hypothesis without one."""
    env, offset_var = _frame_env(None if candidate is None else candidate.frame, pts)
    if offset_var is not None:
        env[offset_var] = candidate.y0 + env[offset_var]
    return env


def _frame_env(frame, pts):
    """``(env, offset_var)``: the variable arrays of any candidate of
    ``frame`` at the rows of a 2-D float array, and the variable (or None)
    whose array holds an offset from the slice, which each candidate reads
    as its own y0 plus that offset; for ``frame`` None (no candidate), the
    coordinates named x, y and z.  The one variable rule of hypotheses."""
    if frame is None:
        return {name: pts[:, i] for i, name in enumerate("xyz"[: pts.shape[1]])}, None
    if frame.mode == "new_dim" and pts.shape[1] <= 2:
        x = pts[:, 0]
        offset = pts[:, 1] if pts.shape[1] > 1 else np.zeros_like(x)
        return {"x": x, "y": offset}, "y"
    if frame.mode != "new_dim" and pts.shape[1] == 2:
        return {"x": pts[:, 0], "y": pts[:, 1]}, None
    expected = "1 or 2" if frame.mode == "new_dim" else "2"
    raise DimensionMismatchError(
        f"points have dimension {pts.shape[1]}, expected {expected} for this candidate"
    )


def tie_sets(candidates):
    """Group a ranked candidate list into runs of equal (residual, score)."""
    groups = itertools.groupby(candidates, key=lambda c: (c.residual_rank, c.score))
    return [list(g) for _, g in groups]


def top_tie_set(candidates):
    """The best-ranked tie set (empty list for an empty search result)."""
    groups = tie_sets(candidates)
    return groups[0] if groups else []
