"""Bayesian inference over an explicit, finite family of function hypotheses.

All three polation kinds reduce to the same procedure: weight hypotheses a
priori by simplicity (2^-score), update on the samples (exact-fit indicator
in strict mode, Gaussian likelihood under noise), and read predictions off
the resulting mixture at any query point.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NoPredictionError
from .expressions import compile_expr, complexity, serialize
from .symbolic import STRICT_TOL, CandidateLifting, _candidate_env, predict_candidate

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
_AXES = ("x", "y", "z")


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

    @cached_property
    def compiled(self):
        """The compiled expression, built once (the candidate's own, if any)."""
        if self.candidate is not None:
            return self.candidate.compiled
        return compile_expr(self.expr)

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.candidate is not None:
            return predict_candidate(self.candidate, pts)
        with np.errstate(all="ignore"):
            vals = self._values(pts)
        return np.broadcast_to(np.asarray(vals, dtype=float), (pts.shape[0],)).copy()

    def _values(self, pts):
        """Values at the rows of a 2-D float array: an array, or a scalar for
        a constant; runs under the caller's numpy error state."""
        if self.candidate is not None:
            return self.compiled(_candidate_env(self.candidate, pts))
        env = {name: pts[:, i] for i, name in enumerate(_AXES[: pts.shape[1]])}
        try:
            return self.compiled(env)
        except KeyError as exc:
            raise InvalidInputError(
                f"hypothesis {self.label} uses variable {exc.args[0]!r}, "
                f"but the points have {pts.shape[1]} coordinate(s)"
            ) from None


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
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > NORMALIZATION_TOL:
            raise InvalidInputError("prior weights must sum to 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.hypotheses)


@dataclass(frozen=True)
class Posterior:
    """Updated weights; empty when no hypothesis survives the evidence."""

    hypotheses: tuple
    weights: np.ndarray
    noise_sigma: float

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
        out = []
        for h, w in zip(self.hypotheses, self.weights):
            vals = h(data.locations)
            residual = float(np.max(np.abs(vals - data.values)))
            residual = residual if math.isfinite(residual) else None
            out.append({"expr": h.label, "weight": float(w), "residual": residual})
        return out


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
    at any sample gets zero weight.  When nothing survives, the result is an
    explicit empty posterior, not an exception.
    """
    sigma = data.noise_sigma
    log_w = np.log(prior.weights)
    for i, h in enumerate(prior.hypotheses):
        vals = h(data.locations)
        if not np.all(np.isfinite(vals)):
            log_w[i] = -np.inf
            continue
        resid = vals - data.values
        if sigma == 0.0:
            if np.max(np.abs(resid)) > STRICT_TOL:
                log_w[i] = -np.inf
        else:
            log_w[i] -= float(resid @ resid) / (2.0 * sigma * sigma)
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
    distribution.
    """
    if post.is_empty:
        raise NoPredictionError("cannot predict from an empty posterior")
    pts = np.asarray(p, dtype=float)
    batch = pts.ndim == 2
    if pts.ndim not in (1, 2) or pts.shape[-1] == 0:
        raise InvalidInputError(
            f"predict takes one point or an (n, dim) array, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("point has non-finite coordinates")
    if not batch:
        pts = pts[None, :]
    values = np.empty((len(post), pts.shape[0]))
    with np.errstate(all="ignore"):
        for i, h in enumerate(post.hypotheses):
            values[i] = h._values(pts)
    # one contiguous row per point, so that its weighted sum is the
    # per-point one bit for bit
    dists = [_distribution(row, post.weights) for row in values.T.copy()]
    return dists if batch else dists[0]


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
