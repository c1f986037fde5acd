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
are kept, and most shapes cannot get there.  A shape with one constant and no
profiled linear wrap is ruled out when interval evaluation
(``expressions.compile_interval``) shows that no constant can bring it within
the tolerance: first over one box spanning the whole start grid, before the
grid pass that picks the Brent brackets, then over those brackets, before
Brent runs; see ``_qualifying_fits``.  In every mode a shape with an operand
that is nan at some sample is not fitted at all: it could not fit.

Constants are fitted by bounded Brent (one slot) and Nelder-Mead (more),
scipy's loops written as generators and run in lockstep; Nelder-Mead works
on Python floats.
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

    def capped(self, points):
        """``self(points)`` at most 1e300, so that a bounded Brent run sees
        no infinite value."""
        return self(points, 1e300)

    def rows(self, u, ceiling=math.inf):
        """``(sse, c_a, c_b)`` for each row of an (L, m) table of core
        values: the SSE, at most ``ceiling``, as an (L,) array, and the
        profiled constants as (L, 1) columns, or 1.0 and 0.0 when absent.

        A mean is the sum divided by m, as ``ndarray.mean`` computes it, and
        a row sum is numpy's pairwise sum of that row, as for a single
        vector, so a row's values do not depend on the other rows: the
        grid SSEs that choose the starts, the lanes' SSEs and the final
        one-row refit are each bit-equal to the SSE of that point alone.
        Multiplying by the profiled 1 and adding the profiled 0 are exact
        and left out.  A non-finite core value always makes its row's sum
        non-finite (nan or inf), which ``fmin`` turns into the ceiling.
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
        return np.fmin(np.add.reduce(resid * resid, axis=1), ceiling), ca, cb


# The two minimizers below are the loops of scipy 1.17.1's
# ``scipy.optimize._optimize._minimize_scalar_bounded`` and
# ``_minimize_neldermead`` (BSD-3-Clause, Copyright (c) 2001-2002 Enthought,
# Inc. and 2003 onwards SciPy Developers), turned into generators: each
# yields its next trial point and is sent that point's objective value
# (``fx = yield x``), so that ``_lockstep`` can evaluate many runs at once.
# Messages, callbacks and result objects are left out; every iterate is
# computed as scipy computes it.  In the Brent loop numpy's scalar ``abs``,
# ``sign`` and ``maximum`` are Python's ``abs``, a sign test and ``max``,
# which give the same floats on Python floats, faster.  Nelder-Mead keeps its
# simplex as lists of Python floats, with scipy's operations in scipy's
# order: the centroid is the row sum taken left to right, then divided by
# N; the coefficients at rho = 1, chi = 2, psi = sigma = 0.5 are 2 and 1
# (reflection), 3 and 2 (expansion), 1.5 and 0.5 (contraction); and each
# convergence test reads ``all(d <= tol)``, which a nan d fails as it fails
# ``np.max(d) <= tol``.  Simplex values are ordered as ``np.argsort`` orders
# them: its sort need not be stable, so ties and nans take numpy's order.


def _bounded_brent(x1, x2, xatol=1e-12, maxfun=500):
    """Bounded Brent minimisation over [x1, x2]; returns (x, f(x)).

    ``minimize_scalar(f, bounds=(x1, x2), method="bounded",
    options={"xatol": xatol, "maxiter": maxfun})``, one evaluation per step.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield x
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (
                (abs(p) < abs(0.5 * q * r))
                and (p > q * (a - xf))
                and (p < q * (b - xf))
            ):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    # scipy: rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
                    rat = -tol1 if xm - xf < 0 else tol1
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        # scipy: si = np.sign(rat) + (rat == 0)
        #        x = xf + si * np.maximum(np.abs(rat), tol1)
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = yield x
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break

    return xf, fx


def _nelder_mead(x0, xatol=1e-10, fatol=1e-14, maxiter=400):
    """Nelder-Mead minimisation from ``x0``; returns (x, f(x)), x an ndarray.

    ``minimize(f, x0, method="Nelder-Mead", options={"xatol": xatol,
    "fatol": fatol, "maxiter": maxiter})``: the non-adaptive, unbounded form
    with no cap on evaluations, one evaluation per step.  The simplex is a
    list of rows of Python floats, and each trial point a list.
    """
    x0 = [float(v) for v in x0]
    N = len(x0)
    sim = [x0]
    for k in range(N):
        y = list(x0)
        if y[k] != 0:
            y[k] = (1 + 0.05) * y[k]
        else:
            y[k] = 0.00025
        sim.append(y)

    fsim = []
    for point in sim:
        fsim.append((yield point))
    for _ in range(2):  # scipy sorts twice before its loop
        ind = _argsort(fsim)
        sim = [sim[i] for i in ind]
        fsim = [fsim[i] for i in ind]

    iterations = 1

    while iterations < maxiter:
        best, fbest = sim[0], fsim[0]
        if all(abs(v - b) <= xatol for row in sim[1:] for v, b in zip(row, best)) and all(
            abs(fbest - f) <= fatol for f in fsim[1:]
        ):
            break

        xbar = sim[0]
        for row in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, row)]
        xbar = [a / N for a in xbar]
        worst = sim[-1]
        # scipy's coefficients at rho = 1, chi = 2, psi = sigma = 0.5
        xr = [2 * a - 1 * w for a, w in zip(xbar, worst)]
        fxr = yield xr
        doshrink = 0

        if fxr < fsim[0]:
            xe = [3 * a - 2 * w for a, w in zip(xbar, worst)]
            fxe = yield xe

            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        else:  # fsim[0] <= fxr
            if fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            else:  # fxr >= fsim[-2]
                # Perform contraction
                if fxr < fsim[-1]:
                    xc = [1.5 * a - 0.5 * w for a, w in zip(xbar, worst)]
                    fxc = yield xc

                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = 1
                else:
                    # Perform an inside contraction
                    xcc = [0.5 * a + 0.5 * w for a, w in zip(xbar, worst)]
                    fxcc = yield xcc

                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = 1

                if doshrink:
                    for j in range(1, N + 1):
                        sim[j] = [b + 0.5 * (v - b) for v, b in zip(sim[j], sim[0])]
                        fsim[j] = yield sim[j]
        iterations += 1
        ind = _argsort(fsim)
        sim = [sim[i] for i in ind]
        fsim = [fsim[i] for i in ind]

    # scipy: np.min(fsim), nan when any value is; the sort put nans last
    return np.array(sim[0]), fsim[0] if fsim[-1] == fsim[-1] else math.nan


def _argsort(values):
    """``np.argsort(values)`` as a list.  Distinct values that are not nan
    have one ascending order, which Python's sort finds; for ties and nans
    numpy's own order is taken, since its sort need not be stable."""
    order = sorted(range(len(values)), key=values.__getitem__)
    for i, j in zip(order, order[1:]):
        if not values[i] < values[j]:
            return np.argsort(values).tolist()
    return order


def _lockstep(lanes, objective):
    """Run minimizer generators together; returns their results in order.

    Each step sends every live lane the value at the point it yielded last,
    computed for all of them by one call ``objective(points)``: given the
    list of the live lanes' points, it returns an array of their values.
    """
    results = [None] * len(lanes)
    live = list(range(len(lanes)))
    points = [next(lane) for lane in lanes]
    while live:
        values = objective([points[i] for i in live]).tolist()
        still = []
        for i, fx in zip(live, values):
            try:
                points[i] = lanes[i].send(fx)
            except StopIteration as stop:
                results[i] = stop.value
            else:
                still.append(i)
        live = still
    return results


def _first_best(runs):
    """(constants, sse) of the first run with the least finite SSE, or
    (None, inf) when no run has one."""
    best_v, best_sse = None, np.inf
    for x, fx in runs:
        if np.isfinite(fx) and fx < best_sse:
            best_sse, best_v = float(fx), tuple(float(v) for v in np.atleast_1d(x))
    return best_v, best_sse


class _ShapeFitter:
    """Fits constant slots of shapes against targets over fixed sample envs.

    A ``strict`` fitter serves a strict-mode search, which keeps only fits
    within ``STRICT_TOL``: it returns None for one-slot shapes that the
    interval screen (``_cannot_qualify``) shows cannot give such a fit.
    """

    def __init__(self, envs, target, strict=False):
        self.envs = {k: np.asarray(v, dtype=float) for k, v in envs.items()}
        self.target = np.asarray(target, dtype=float)
        self.grid = _scale_grid(self.envs, self.target)
        self.strict = strict
        self.free_nan = False

    def fit(self, shape):
        """Return (const_vector, sse, max_abs) or None when no fit with
        finite constants and a finite SSE exists.  ``max_abs`` is the
        max-abs residual of a slot-free shape, whose values the fit computes
        anyway, and None for other shapes: a fit with ``max_abs`` is of a
        slot-free shape, which the search takes as its own fitted expression
        with this residual.  After each call ``free_nan`` says whether the
        shape is slot-free with values that are nan at some sample.

        The search values most slot-free shapes a block at a time instead
        (``free_residuals``); it fits a slot-free shape here only when its
        operands have no values in the table, as for a variable, and this
        path is the reference that the block path is tested against."""
        self.free_nan = False
        with np.errstate(all="ignore"):
            return self._fit(shape)

    def _fit(self, shape):
        target = self.target
        core, has_mul, has_add = _linear_split(shape)
        k_inner, at = compile_shape(core, self.envs)
        if k_inner == 0 and not (has_mul or has_add):
            vals = _full(at(()), target.shape)
            if not np.all(np.isfinite(vals)):
                self.free_nan = bool(np.isnan(vals).any())
                return None
            resid = vals - target
            return (), float(resid @ resid), float(np.max(np.abs(resid)))
        lanes = _LaneObjective(at, target, has_mul, has_add)
        inner = ()
        if k_inner:
            if k_inner == 1:
                screen = self.strict and not (has_mul or has_add)
                inner, sse = self._fit_inner1(lanes, core if screen else None)
            elif k_inner == 2:
                inner, sse = self._fit_inner2(lanes)
            else:
                inner, sse = self._fit_inner_many(lanes, k_inner)
            if inner is None or not np.isfinite(sse):
                return None
        sse, ca, cb = lanes.rows(_full(at(inner), (1, target.size)))
        consts = self._assemble(inner, ca, cb, has_mul, has_add)
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

    def _fit_inner1(self, lanes, core=None):
        """Bounded Brent over ``_brackets``; given ``core``, the shape's
        slot-bearing part, only when the interval screen cannot rule out
        first the span box and then the brackets.

        The span box [g_0 - 1, g_last + 1] over the start grid g contains
        every bracket: a bracket's ends are grid neighbours, or a grid end
        moved by 1.  A bracket's snap padding is at most the span's, which
        is taken at the span's largest magnitude, so the padded span holds
        every padded bracket.  A shape ruled out over it needs no grid pass.
        """
        if core is not None:
            grid = self.grid
            if self._cannot_qualify(core, [(grid[0] - 1.0, grid[-1] + 1.0)]):
                return None, np.inf
        brackets = self._brackets(lanes)
        if core is not None and brackets and self._cannot_qualify(core, brackets):
            return None, np.inf
        runs = [_bounded_brent(lo, hi) for lo, hi in brackets]
        return _first_best(_lockstep(runs, lanes.capped))

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

    def _cannot_qualify(self, core, brackets):
        """True when no constant in the brackets, moved by up to two snap
        steps, makes the one-slot ``core`` reproduce every target within
        ``2 * STRICT_TOL``.

        Bounded Brent evaluates only inside its bracket, ``_first_best``
        returns one of its points and ``snap`` moves that by at most one
        snap step; the boxes leave room for two.  ``_fit_inner1`` calls this
        first with the one span box [g_0 - 1, g_last + 1] of the start grid,
        which holds every bracket, padded, that the grid pass could pick.
        ``compile_interval`` encloses the core's values over each box, and
        also those of its ``canonical_simplify`` form, whose residual the
        search reads.  A box is ruled out when, at some sample, its
        enclosure misses the target's band or is empty (every value nan).
        Boxes that survive are halved until a level rules none out, or up
        to ``SCREEN_LEVELS`` levels and ``SCREEN_BOXES`` boxes.
        """
        _, at = compile_interval(core, self.envs)
        lo, hi = np.array(brackets).T
        pad = 2.0 * INT_SNAP_REL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        lo, hi = lo - pad, hi + pad
        band_lo = self.target - 2.0 * STRICT_TOL
        band_hi = self.target + 2.0 * STRICT_TOL
        for level in range(SCREEN_LEVELS):
            v_lo, v_hi = at(((lo[:, None], hi[:, None]),))
            live = ((v_hi >= band_lo) & (v_lo <= band_hi)).all(axis=1)
            if not live.any():
                return True
            if level and live.all():
                return False  # halving ruled nothing out; deeper levels seldom do
            lo, hi = lo[live], hi[live]
            if 2 * lo.size > SCREEN_BOXES:
                return False
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        return False

    def _coarse(self):
        g = self.grid
        return g[:: max(1, g.size // 28)]

    def _fit_inner2(self, lanes):
        coarse = self._coarse()
        grid = lanes([(c1, c2) for c1 in coarse for c2 in coarse])
        best = []
        for c1, sse in zip(coarse, grid.reshape(coarse.size, coarse.size)):
            idx = int(np.argmin(sse))
            if np.isfinite(sse[idx]):
                best.append((float(sse[idx]), float(c1), float(coarse[idx])))
        best.sort()
        runs = [_nelder_mead((c1, c2)) for _, c1, c2 in best[:3]]
        return _first_best(_lockstep(runs, lanes))

    def _fit_inner_many(self, lanes, k):
        starts = [0.0, 1.0, -1.0, 2.0]
        combos = itertools.islice(itertools.product(starts, repeat=k), 64)
        runs = [_nelder_mead(x0, maxiter=600) for x0 in combos]
        return _first_best(_lockstep(runs, lanes))

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
        (a ``_ShapeValues``) can value, which are slot-free, as a list: nan
        where its values are nan at some sample, inf where they are
        otherwise not finite or the residual overflows, and -1.0 for each
        other shape, which ``fit`` takes alone.  A finite entry is the
        ``max_abs`` that ``fit`` gives the shape, bit for bit."""
        out = np.full(len(shapes), -1.0)
        pos, vals = values.values(shapes)
        if len(pos):
            with np.errstate(all="ignore"):
                np.subtract(vals, self.target, out=vals)
                out[pos] = np.max(np.abs(vals, out=vals), axis=1)
        return out.tolist()

    def residual_of(self, expr):
        vals = evaluate(expr, self.envs)
        vals = _full(vals, self.target.shape)
        if not np.all(np.isfinite(vals)):
            return np.inf
        return float(np.max(np.abs(vals - self.target)))


_ZERO_CONST_COST = _const_cost(0)
_MIN_CONST_COST = _const_cost(1)
_POW2_VAR_COST = OP_COST + VAR_COST


def _shape_lower_bound(facts, n):
    """Intended lower bound on any lifted-candidate score from a shape of
    ``n`` nodes, from its enumerator facts (``expressions._Facts``), which
    the strict search's bound skip compares with the best score.

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
    read the facts that the enumerator builds from the operands' facts
    (``ShapeEnumerator._facts_of``), and a shape's node count is its level.
    A shape with an operand in ``nan_shapes`` (``_nan_operand``) is charged
    to the budget like any other but not fitted, since its fit would be
    None.  A slot-free shape joins ``nan_shapes`` when its values are nan
    at some sample; any shape joins it when its level becomes an operand
    level and one of its operands is in it.

    Nor does it compile a slot-free shape alone.  A level's shapes are taken
    ``_SHAPE_BLOCK`` at a time, and the slot-free shapes of a block whose
    operands have values in a table (``expressions._ShapeValues``) are
    valued together, one gather, operation and scatter per operator and
    operand levels; ``_ShapeFitter.free_residuals`` gives each its max-abs
    residual, or marks it nan or not finite.  The other shapes, and those
    whose operands have no values there, are fitted one at a time
    (``_ShapeFitter.fit``), whose ``free_nan`` says whether a slot-free
    shape's values are nan.  A level is handed to the table when it becomes
    an operand level, never while it is fitted, and without its shapes in
    ``nan_shapes``: a shape built on one is nan too, and is not fitted.
    The table keeps the newest operand level as recipes and stores the
    rows of the levels below it (see ``_ShapeValues``).  The block is then
    read in batch order, so ``seen``, the order
    of the results and the budget count are those of fitting each shape
    alone.  A slot-free shape is its own fitted expression (``_fitted``),
    which is not walked either; only fits of shapes with slots are
    simplified, counted and serialized.  The ``seen`` dedupe and the
    caller's sort read the returned key.

    A strict fitter returns no fit for a one-slot shape without a linear
    wrap when its interval screen rules out the span box over the whole
    start grid, or else every Brent bracket
    (``_ShapeFitter._cannot_qualify``).  The output is the same as without
    the screen.  Brent evaluates only inside its brackets, the fit is one
    of its points, and ``snap`` moves it by at most one snap step, which
    the screened boxes include; every bracket, with that padding, lies
    inside the padded span box, since a bracket's ends are grid points or
    a grid end moved by 1.  The screen encloses the values of the
    simplified expression whose residual is read here, chains re-sorted
    included, so a ruled-out fit would not have qualified.  Such a fit
    would only have been marked ``seen`` and dropped, and a qualifying fit
    of the same expression has the same residual, so dropping it earlier
    hides no qualifying fit.
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

    def process(shape, n):
        if _nan_operand(shape, nan_shapes):
            return None  # the fit would be None
        fit = fitter.fit(shape)
        if fit is None:
            if fitter.free_nan:
                nan_shapes.add(shape)
            return None
        return _fitted(fitter, enum, shape, n, fit)

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
                shapes = [s for s in level if enum._facts_of(s).depth <= grammar.max_depth]
        bound_skip = strict and math.isfinite(best_score) and n > ENUM_FLOOR
        batch = []
        for shape in shapes:
            if budget <= 0:
                break
            if bound_skip and _shape_lower_bound(enum._facts_of(shape), n) > best_score:
                continue
            batch.append(shape)
            budget -= 1
        for start in range(0, len(batch), _SHAPE_BLOCK):
            block = batch[start : start + _SHAPE_BLOCK]
            for shape, max_abs in zip(block, fitter.free_residuals(values, block)):
                if max_abs < 0.0:
                    out = process(shape, n)
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
    (see ``predict_candidate``)."""
    env, offset_var = _frame_env(candidate.frame, pts)
    if offset_var is not None:
        env[offset_var] = candidate.y0 + env[offset_var]
    return env


def _frame_env(frame, pts):
    """``(env, offset_var)``: the variable arrays of any candidate of
    ``frame`` at the rows of a 2-D float array, and the variable (or None)
    whose array holds an offset from the slice, which each candidate reads
    as its own y0 plus that offset.  The one variable rule of candidates."""
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
