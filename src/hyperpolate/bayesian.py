"""Bayesian inference over an explicit, finite family of function hypotheses.

All three polation kinds reduce to the same procedure: weight hypotheses a
priori by simplicity (2^-score), update on the samples (exact-fit indicator
in strict mode, Gaussian likelihood under noise), and read predictions off
the resulting mixture at any query point.

``update``, ``predict`` and ``Posterior.to_records`` evaluate a family's
hypotheses together, as one ``_FamilyProgram``: their shared nodes are
computed once per point, in a few vectorised operations, with the values of
``Hypothesis.__call__`` bit for bit.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NoPredictionError
from .expressions import _OPS, _grouped, _run_groups, complexity, evaluate, serialize
from .geometry import _as_points
from .symbolic import STRICT_TOL, CandidateLifting, _candidate_env, _frame_env

__all__ = [
    "Hypothesis",
    "HypothesisFamily",
    "Posterior",
    "PredictiveDistribution",
    "build_prior",
    "family_from_candidates",
    "update",
    "predict",
]

NORMALIZATION_TOL = 1e-12
# hypothesis values at a query closer than this (relative to max(1, |v|))
# merge into one predictive atom
MERGE_TOL = 1e-12
# points per run of a family program: its buffer holds at most this many
# columns, one row per register
_BLOCK = 1024


@dataclass(frozen=True)
class Hypothesis:
    """One candidate function over the ambient space."""

    expr: tuple
    score: float
    candidate: CandidateLifting | None = None

    @property
    def label(self):
        if self.candidate is not None and self.candidate.frame.mode == "new_dim":
            return f"{serialize(self.expr)}@y0={self.candidate.y0:g}"
        return serialize(self.expr)

    def __call__(self, points):
        pts, _ = _as_points(points)
        env = _candidate_env(self.candidate, pts)
        try:
            vals = evaluate(self.expr, env)
        except KeyError as exc:
            raise InvalidInputError(
                f"hypothesis {self.label} uses variable {exc.args[0]!r}, "
                f"but the points have {pts.shape[1]} coordinate(s)"
            ) from None
        return np.broadcast_to(np.asarray(vals, dtype=float), (pts.shape[0],)).copy()


class _FamilyProgram:
    """The hypotheses of a family built once into one vectorised program.

    Every node of every hypothesis is hash-consed into a register, one row
    of an (R, n) buffer.  An operator node is keyed by its operator and its
    children's registers, a constant by its bits (``0.0 == -0.0``, and the
    two divide to infinities of opposite sign), and a variable by the frame
    that supplies it; only the offset variable of a new-dimension candidate
    (see ``symbolic._frame_env``) is keyed by the candidate's y0 as well.
    Variable-free subtrees are folded here with ``_OPS``, as ``_walk``
    folds them, so folded values equal ``evaluate``'s.  Operator
    registers are grouped by (height, operator): a run fills the leaves in a
    few assignments, then computes each group with one gather, operation
    and scatter, by the executor that the search's ``_ShapeValues`` shares
    (``expressions._run_groups``) over the one buffer.  The values equal
    ``Hypothesis.__call__``'s bit for bit.
    """

    def __init__(self, hypotheses):
        self._hypotheses = tuple(hypotheses)
        self._dims = set()
        self._nodes = None

    def values(self, pts):
        """(hypotheses, n) values at the rows of a 2-D float array, computed
        ``_BLOCK`` points at a time under the caller's numpy error state.

        The first time the points have a new dimension, each hypothesis is
        evaluated at none of them, in order, so that the first that cannot
        read such points raises its own error.
        """
        if pts.shape[1] not in self._dims:
            for h in self._hypotheses:
                h(pts[:0])
            self._dims.add(pts.shape[1])
            if self._nodes is None:
                self._build(pts[:0])
        if len(pts) <= _BLOCK:
            return self._run(pts)
        out = np.empty((len(self._hypotheses), len(pts)))
        for start in range(0, len(pts), _BLOCK):
            out[:, start : start + _BLOCK] = self._run(pts[start : start + _BLOCK])
        return out

    def _build(self, no_pts):
        """Hash-cons the hypotheses; ``no_pts`` is a (0, dim) array of a
        dimension that every hypothesis reads."""
        self._keys = {}
        self._nodes = []  # per register: (height, op, children or leaf data)
        frames, sources = [], {}  # id(frame) -> (index, offset variable)
        roots = []
        with np.errstate(all="ignore"):
            for h in self._hypotheses:
                frame = h.candidate.frame if h.candidate is not None else None
                if id(frame) not in sources:
                    sources[id(frame)] = (len(frames), _frame_env(frame, no_pts)[1])
                    frames.append(frame)
                late, root = self._node(h.expr, sources[id(frame)], h.candidate)
                roots.append(root if late else self._const(root))
        self._roots = np.array(roots, dtype=np.intp)
        consts, leaves = [], [([], []) for _ in frames]  # per frame: plain, offset
        for reg, (height, op, data) in enumerate(self._nodes):
            if op == "const":
                consts.append((reg, data))
            elif not height:
                leaves[data[0]][op == "offset"].append((reg, data[1]))
        self._const_regs, self._const_values = _columns(consts)
        self._fills = [
            (frame, plain, *_columns(offsets)) for frame, (plain, offsets) in zip(frames, leaves)
        ]
        nodes = {}
        for reg, (height, op, kids) in enumerate(self._nodes):
            if height:
                nodes.setdefault((height, op, (0,) * len(kids)), []).append((reg, *kids))
        self._groups = _grouped(nodes)

    def _register(self, key, node):
        reg = self._keys.get(key)
        if reg is None:
            reg = self._keys[key] = len(self._nodes)
            self._nodes.append(node)
        return reg

    def _const(self, value):
        return self._register(("const", np.float64(value).tobytes()), (0, "const", value))

    def _node(self, node, source, candidate):
        """(False, value) for a variable-free node, else (True, register)."""
        op = node[0]
        if op == "var":
            src, offset_var = source
            if node[1] != offset_var:
                return True, self._register(("var", src, node[1]), (0, "var", (src, node[1])))
            y0 = candidate.y0
            return True, self._register(
                ("offset", src, np.float64(y0).tobytes()), (0, "offset", (src, y0))
            )
        if op == "const":
            return False, node[1]
        kids = [self._node(kid, source, candidate) for kid in node[1:]]
        if not any(late for late, _ in kids):
            return False, _OPS[op](*(value for _, value in kids))
        regs = tuple(reg if late else self._const(reg) for late, reg in kids)
        height = 1 + max(self._nodes[reg][0] for reg in regs)
        return True, self._register((op, *regs), (height, op, regs))

    def _run(self, pts):
        buf = np.empty((len(self._nodes), len(pts)))
        buf[self._const_regs] = self._const_values
        for frame, plain, offsets, y0s in self._fills:
            env, offset_var = _frame_env(frame, pts)
            for reg, name in plain:
                buf[reg] = env[name]
            if len(offsets):
                buf[offsets] = y0s + env[offset_var]
        _run_groups(self._groups, (buf,), buf)
        return buf[self._roots]


def _columns(pairs):
    """A list of (register, value) pairs as a register array and a column
    of float values."""
    regs = np.array([reg for reg, _ in pairs], dtype=np.intp)
    return regs, np.array([value for _, value in pairs], dtype=float).reshape(-1, 1)


def _checked_weights(owner, what):
    """``owner.weights`` as a read-only float array: one finite,
    non-negative number per hypothesis of ``owner``, summing to 1 unless
    there are none; else ``InvalidInputError``, naming the ``what``
    weights."""
    w = np.asarray(owner.weights, dtype=float)
    if w.shape != (len(owner.hypotheses),) or not np.all(np.isfinite(w) & (w >= 0.0)):
        raise InvalidInputError(
            f"{what} weights must be one finite, nonnegative number per hypothesis"
        )
    if w.size and abs(w.sum() - 1.0) > NORMALIZATION_TOL:
        raise InvalidInputError(f"{what} weights must sum to 1")
    w = w.copy()
    w.setflags(write=False)
    return w


def _normalized(log_weights):
    log_weights = np.asarray(log_weights, dtype=float)
    finite = np.isfinite(log_weights)
    if not finite.any():
        return None
    shifted = log_weights - np.max(log_weights[finite])
    w = np.where(finite, np.exp(np.where(finite, shifted, -np.inf)), 0.0)
    return w / w.sum()


@dataclass(frozen=True)
class HypothesisFamily:
    """Hypotheses with normalized prior weights."""

    hypotheses: tuple
    weights: np.ndarray

    def __post_init__(self):
        if not self.hypotheses:
            raise InvalidInputError("hypothesis family must be nonempty")
        object.__setattr__(self, "weights", _checked_weights(self, "prior"))

    def __len__(self):
        return len(self.hypotheses)

    @cached_property
    def _program(self):
        return _FamilyProgram(self.hypotheses)


@dataclass(frozen=True)
class Posterior:
    """Updated weights; empty when no hypothesis survives the evidence.

    The weights are checked as a prior's are (``HypothesisFamily``), except
    that an empty posterior has none."""

    hypotheses: tuple
    weights: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _checked_weights(self, "posterior"))

    @property
    def is_empty(self):
        return len(self.hypotheses) == 0

    def __len__(self):
        return len(self.hypotheses)

    def map_hypothesis(self):
        if self.is_empty:
            raise NoPredictionError("empty posterior")
        idx = int(np.argmax(self.weights))
        return self.hypotheses[idx]

    def to_records(self, data):
        """JSON-ready records {expr, weight, residual}.

        The residual is the max-abs mismatch on the samples of ``data``, or
        None when a domain error makes it non-finite.
        """
        with np.errstate(all="ignore"):
            vals = self._program.values(_as_points(data.locations)[0])
        residuals = np.max(np.abs(vals - data.values), axis=1).tolist()
        out = []
        for h, w, residual in zip(self.hypotheses, self.weights, residuals):
            residual = residual if math.isfinite(residual) else None
            out.append({"expr": h.label, "weight": float(w), "residual": residual})
        return out

    @cached_property
    def _program(self):
        return _FamilyProgram(self.hypotheses)


@dataclass(frozen=True)
class PredictiveDistribution:
    """Discrete mixture of hypothesis values at one query point.

    ``map_value`` is the value of the highest-weight surviving hypothesis
    (not of the largest merged atom).
    """

    values: np.ndarray
    weights: np.ndarray
    mean: float
    map_value: float

    def __len__(self):
        return len(self.values)


def build_prior(expressions):
    """Prior over hypotheses with weights proportional to 2^(-score).

    ``expressions`` may hold expression trees, scored by their
    description-length ``complexity``, or Hypothesis objects, which keep
    their own score.
    """
    if not expressions:
        raise InvalidInputError("hypothesis family must be nonempty")
    hyps = []
    for e in expressions:
        if isinstance(e, Hypothesis):
            hyps.append(e)
        else:
            hyps.append(Hypothesis(expr=e, score=float(complexity(e))))
    log_w = np.array([-h.score * math.log(2.0) for h in hyps])
    return HypothesisFamily(hypotheses=tuple(hyps), weights=_normalized(log_w))


def family_from_candidates(candidates):
    """Prior built from search results, reusing their recorded scores."""
    return build_prior([Hypothesis(c.expr, float(c.score), c) for c in candidates])


def update(prior, data):
    """Condition the prior on the dataset.

    Strict mode (sigma = 0) keeps exactly the hypotheses whose max-abs
    residual is within tolerance; flexible mode multiplies by the Gaussian
    likelihood at sigma.  A hypothesis that hits an evaluation domain error
    at any sample gets zero weight, as does one with zero prior weight.
    When nothing survives, the result is an explicit empty posterior, not an
    exception.  The hypotheses are evaluated together, by the prior's
    ``_FamilyProgram``.
    """
    sigma = data.noise_sigma
    with np.errstate(divide="ignore"):
        log_w = np.log(prior.weights)
    with np.errstate(all="ignore"):
        vals = prior._program.values(_as_points(data.locations)[0])
    ok = np.all(np.isfinite(vals), axis=1)
    resid = vals[ok] - data.values
    if sigma == 0.0:
        ok[ok] = np.max(np.abs(resid), axis=1) <= STRICT_TOL
    else:
        # each row's dot product, by the vector path of ``resid @ resid``
        sq = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
        # Python float division, which raises ZeroDivisionError where numpy
        # would make a perfect fit's 0/0 nan; Dataset rejects a positive
        # sigma whose 2 sigma^2 underflows to zero, so it divides by a
        # positive number
        log_w[ok] -= [d / (2.0 * sigma * sigma) for d in sq.tolist()]
    log_w[~ok] = -np.inf
    weights = _normalized(log_w)
    if weights is None:
        return Posterior(hypotheses=(), weights=np.array([]), noise_sigma=sigma)
    return Posterior(hypotheses=prior.hypotheses, weights=weights, noise_sigma=sigma)


def predict(post, p):
    """Predictive distribution at one query point (a 1-D coordinate
    sequence), or a list of them for the rows of an (n, dim) array or
    nested sequence, as ``classify`` reads its queries.

    Hypothesis values closer than ``MERGE_TOL`` collapse into one atom, so a
    mirror-symmetric pair queried on its symmetry axis yields a point mass.
    Hypotheses that hit a domain error at a query are left out of its
    distribution.  The hypotheses are evaluated together, by the
    posterior's ``_FamilyProgram``, so a call costs a few vectorised
    operations per distinct node height and operator, not one evaluation
    per hypothesis.
    """
    if post.is_empty:
        raise NoPredictionError("cannot predict from an empty posterior")
    pts, single = _as_points(p)
    with np.errstate(all="ignore"):
        values = post._program.values(pts)
    # one contiguous row per point, so that its weighted sum is the
    # per-point one bit for bit
    dists = [_distribution(row, post.weights) for row in values.T.copy()]
    return dists[0] if single else dists


def _distribution(values, weights):
    """Mixture of one query's hypothesis values under the posterior weights."""
    finite = np.isfinite(values)
    if not finite.all():
        if not finite.any():
            raise NoPredictionError("all hypotheses hit domain errors at the query")
        values = values[finite]
        weights = weights[finite]
        weights = weights / weights.sum()
    mean = float(values @ weights)
    map_value = float(values[int(np.argmax(weights))])
    order = np.argsort(values, kind="stable")
    merged_v, merged_w = [], []
    for v, w in zip(values[order].tolist(), weights[order].tolist()):
        if merged_v and abs(v - merged_v[-1]) <= MERGE_TOL * max(1.0, abs(v)):
            merged_w[-1] += w
        else:
            merged_v.append(v)
            merged_w.append(w)
    return PredictiveDistribution(
        values=np.asarray(merged_v),
        weights=np.asarray(merged_w),
        mean=mean,
        map_value=map_value,
    )
