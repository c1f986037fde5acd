"""Workload inputs, timed operations and output checks.

Inputs are generated here from the seed; the library only ever receives the
resulting arrays (as ``Dataset`` objects) or CSV files. Every operation is
timed on its own and its output is checked afterwards, outside the timed
region, against oracles that do not use ``hyperpolate.geometry`` for regime
tags. A failed check or an exception counts one failed operation; nothing is
raised or skipped.
"""

import json
import math
import os
import time

import numpy as np

from tracer import NullTracer

NOISE_SIGMA = 0.01
NOISY_BUDGET = 5000
POSTERIOR_TOP = 64
WEIGHT_TOL = 1e-12
BENCH_METHODS = "nn_ambient,nn_projected,linear,extrusion,additive"
CLOUD_SAMPLES = 200
CLOUD_RANDOM_QUERIES = 900
CLOUD_SAMPLE_QUERIES = 100
# Queries closer than this to the boundary of the cloud's convex hull are not
# checked: the oracle and the library may resolve them differently within
# their tolerances.
CLOUD_BOUNDARY_MARGIN = 1e-6

RIPPLE_EXPR = "cos(sqrt(add(pow2(x),pow2(y))))"
CONE_EXPR = "sqrt(add(pow2(x),pow2(y)))"
PINNED_TIES = {
    "ripple1d": {(RIPPLE_EXPR, -20.0), (RIPPLE_EXPR, 20.0)},
    "cone1d": {(CONE_EXPR, -1.0), (CONE_EXPR, 1.0)},
}


class Outcome:
    """Timed operations and checked results of one pass over a workload.

    ``clock`` times the operations; ``tracer`` records each as a span.
    """

    def __init__(self, clock=time.perf_counter, tracer=None):
        self.clock = clock
        self.tracer = tracer or NullTracer()
        self.ops = []  # (operation name, start, end) in clock readings
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.queries = 0
        self.outputs = {}
        self.detail = {}

    def timed(self, name, fn, *args, **kwargs):
        """Run one operation; returns (result, error)."""
        with self.tracer.span(name):
            start = self.clock()
            try:
                result, error = fn(*args, **kwargs), None
            except Exception as exc:  # an operation failure is counted, not raised
                result, error = None, f"{type(exc).__name__}: {exc}"
            self.ops.append((name, start, self.clock()))
        return result, error

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check_many(self, oks, what):
        oks = list(oks)
        self.attempted += len(oks)
        bad = [i for i, ok in enumerate(oks) if not ok]
        self.failed += len(bad)
        self.failures.extend(f"{what}[{i}]" for i in bad)


# ---------------------------------------------------------------------------
# independent expression evaluation (used by the checks and top_rmse)
# ---------------------------------------------------------------------------

_UNARY = {
    "pow2": np.square,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
}
_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}


def eval_tree(node, env):
    op = node[0]
    if op == "var":
        return env[node[1]]
    if op == "const":
        return node[1]
    if op in _UNARY:
        return _UNARY[op](eval_tree(node[1], env))
    return _BINARY[op](eval_tree(node[1], env), eval_tree(node[2], env))


def candidate_values(cand, x, offset_or_y):
    """Candidate values at ambient points; 1D-data candidates read the second
    coordinate as the offset from the slice, placed at their own y0."""
    y = cand.y0 + offset_or_y if cand.frame.mode == "new_dim" else offset_or_y
    with np.errstate(all="ignore"):
        vals = eval_tree(cand.expr, {"x": x, "y": y})
    return np.broadcast_to(np.asarray(vals, dtype=float), np.shape(x))


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


class SearchCase:
    """A noise-free or noisy search input with its truth for top_rmse.

    ``slice_y`` is where the samples sit on the truth surface: for 1D data the
    lattice second coordinate is an offset from it, for 2D data a y value.
    """

    def __init__(self, name, locations, values, truth, lattice, on_slice, slice_y, sigma=0.0):
        self.name = name
        self.locations = locations
        self.values = values
        self.truth = truth
        self.lattice = lattice
        self.on_slice = on_slice
        self.slice_y = slice_y
        self.sigma = sigma


def _grid(lo, hi, step=1.0):
    axis = np.arange(lo, hi + step / 2, step)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _ripple(x, y):
    return np.cos(np.sqrt(x * x + y * y))


def _cone(x, y):
    return np.sqrt(x * x + y * y)


def exact_cases():
    """The four noise-free searches; they do not depend on the seed."""
    x40 = np.arange(-40.0, 41.0)
    x20 = np.arange(-20.0, 21.0)
    lat40, lat20 = _grid(-40, 40), _grid(-20, 20)
    diag = np.column_stack([x20, x20])
    axis = np.column_stack([x20, np.ones_like(x20)])
    return [
        SearchCase("ripple1d", x40[:, None], _ripple(x40, 20.0), _ripple,
                   lat40, lat40[:, 1] == 0, 20.0),
        SearchCase("cone1d", x20[:, None], _cone(x20, 1.0), _cone,
                   lat20, lat20[:, 1] == 0, 1.0),
        SearchCase("cone_axis", axis, _cone(axis[:, 0], axis[:, 1]), _cone,
                   lat20, lat20[:, 1] == 1, 0.0),
        SearchCase("diagonal", diag, diag[:, 0] * diag[:, 1], lambda x, y: x * y,
                   lat20, lat20[:, 0] == lat20[:, 1], 0.0),
    ]


def noisy_case(seed):
    x = np.arange(-20.0, 21.0)
    rng = np.random.default_rng(seed)
    values = _cone(x, 1.0) + NOISE_SIGMA * rng.standard_normal(x.size)
    lattice = _grid(-20, 20)
    return SearchCase("noisy_cone", x[:, None], values, _cone, lattice,
                      lattice[:, 1] == 0, 1.0, sigma=NOISE_SIGMA)


def off_slice_rmse(case, cand):
    """RMSE of a candidate against the truth at the lattice's off-slice
    points where the candidate is finite."""
    pts = case.lattice[~case.on_slice]
    pred = candidate_values(cand, pts[:, 0], pts[:, 1])
    truth = case.truth(pts[:, 0], case.slice_y + pts[:, 1])
    ok = np.isfinite(pred)
    if not ok.any():
        return math.inf
    return float(np.sqrt(np.mean((pred[ok] - truth[ok]) ** 2)))


def _tie_signature(hp, cands):
    return [(hp.serialize(c.expr), float(c.y0), float(c.score)) for c in cands]


def check_search(hp, outcome, case, cands, error):
    """One checked operation: the search ran, returned something, and its top
    tie set fits the samples (strict mode) and matches any pinned answer."""
    if error is not None or not cands:
        outcome.check(False, f"{case.name}: {error or 'no candidates'}")
        return None
    top = hp.top_tie_set(cands)
    ok = True
    if case.name in PINNED_TIES:
        got = {(hp.serialize(c.expr), float(c.y0)) for c in top}
        ok = got == PINNED_TIES[case.name]
    if case.sigma == 0.0:
        for c in top:
            on = case.locations
            if c.frame.mode == "new_dim":
                vals = candidate_values(c, on[:, 0], np.zeros(len(on)))
            else:
                vals = candidate_values(c, on[:, 0], on[:, 1])
            miss = np.max(np.abs(vals - case.values))
            ok = ok and bool(np.isfinite(miss) and miss <= hp.symbolic.STRICT_TOL)
    outcome.check(ok, f"{case.name}: top tie set {_tie_signature(hp, top)}")
    return top


def _dataset(hp, case):
    return hp.Dataset(case.locations, case.values, noise_sigma=case.sigma)


def prepare_search_exact(hp, seed, workdir):
    return [(case, _dataset(hp, case)) for case in exact_cases()]


def run_search_exact(hp, inputs, outcome):
    rmses = []
    for case, data in inputs:
        cands, error = outcome.timed(f"search_s.{case.name}", hp.search_hyperpolation, data)
        top = check_search(hp, outcome, case, cands, error)
        if top:
            outcome.outputs[case.name] = _tie_signature(hp, top)
            rmses.append(min(off_slice_rmse(case, c) for c in top))
    if rmses:
        outcome.detail["top_rmse"] = float(np.mean(rmses))


def prepare_search_noisy(hp, seed, workdir):
    case = noisy_case(seed)
    return case, _dataset(hp, case), case.lattice


def _posterior(hp, cands, data, lattice):
    prior = hp.family_from_candidates(cands[:POSTERIOR_TOP])
    post = hp.update(prior, data)
    means = np.array([hp.predict(post, p).mean for p in lattice]) if not post.is_empty else None
    return post, means


def run_search_noisy(hp, inputs, outcome):
    case, data, lattice = inputs
    cands, error = outcome.timed("search_s.noisy_cone", hp.search_hyperpolation,
                                 data, budget=NOISY_BUDGET)
    top = check_search(hp, outcome, case, cands, error)
    if not top:
        return
    outcome.outputs["noisy_cone"] = _tie_signature(hp, top)
    outcome.detail["top_rmse"] = min(off_slice_rmse(case, c) for c in top)
    result, error = outcome.timed("posterior_s", _posterior, hp, cands, data, lattice)
    ok = error is None and not result[0].is_empty
    if ok:
        post, means = result
        weights = np.asarray(post.weights, dtype=float)
        ok = abs(weights.sum() - 1.0) <= WEIGHT_TOL and bool(np.all(np.isfinite(means)))
        outcome.outputs["posterior_weights"] = weights.tolist()
        outcome.outputs["posterior_means"] = means.tolist()
    outcome.check(ok, f"posterior: {error or 'empty or unnormalised weights'}")


# ---------------------------------------------------------------------------
# batch classification through the CLI
# ---------------------------------------------------------------------------


def slice_queries(seed):
    """A lattice around the diagonal_xy segment, wider than it so that all four
    regimes occur, in a seeded order."""
    lattice = _grid(-30.0, 30.0, 2.5)
    return lattice[np.random.default_rng(seed).permutation(len(lattice))]


def slice_oracle(queries):
    """Closed-form tags for the diagonal segment t*(1, 1), t = -20..20 (step 1);
    lattice points are exact in binary floating point."""
    tags = []
    for qx, qy in queries:
        if qx != qy:
            tags.append("hyperpolation")
        elif qx == round(qx) and abs(qx) <= 20:
            tags.append("autopolation")
        elif abs(qx) <= 20:
            tags.append("interpolation")
        else:
            tags.append("extrapolation")
    return tags


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def prepare_classify_slice(hp, seed, workdir):
    t = np.arange(-20.0, 21.0)
    samples = np.column_stack([t, t, t * t])
    queries = slice_queries(seed)
    data = os.path.join(workdir, "data.csv")
    query = os.path.join(workdir, "queries.csv")
    out = os.path.join(workdir, "tags.jsonl")
    _write_csv(data, ["x1", "x2", "f"], samples)
    _write_csv(query, ["x1", "x2"], queries)
    bench_dir = os.path.join(workdir, "bench")
    return (data, query, out), queries, bench_dir


def cone_bench_oracle():
    """Regime counts of the built-in cone case: samples (t, 1), t = -20..20,
    queried on the integer lattice [-20, 20]^2."""
    grid = _grid(-20, 20)
    on = grid[:, 1] == 1
    return {
        "autopolation": int(on.sum()),
        "interpolation": 0,
        "extrapolation": 0,
        "hyperpolation": int((~on).sum()),
    }


def run_classify_slice(hp, inputs, outcome):
    (data, query, out), queries, bench_dir = inputs
    argv = ["classify", "--data", data, "--queries", query, "--out", out]
    code, error = outcome.timed("cli_s.classify", hp.cli.main, argv)
    outcome.queries += len(queries)
    expected = slice_oracle(queries)
    tags = []
    if error is None and code == 0:
        with open(out, encoding="utf-8") as fh:
            tags = [json.loads(line)["regime"] for line in fh if line.strip()]
    if len(tags) != len(expected):
        tags = [None] * len(expected)
    outcome.check_many((a == b for a, b in zip(tags, expected)), "classify")
    outcome.outputs["tags"] = tags
    argv = ["bench", "cone", "--methods", BENCH_METHODS, "--out", bench_dir]
    code, error = outcome.timed("cli_s.bench_cone", hp.cli.main, argv)
    counts = None
    if error is None and code == 0:
        with open(os.path.join(bench_dir, "report_cone.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        names = [m["name"] for m in report["methods"]]
        if names == BENCH_METHODS.split(","):
            counts = [m["regime_counts"] for m in report["methods"]]
    expected = cone_bench_oracle()
    outcome.check(
        counts is not None and all(c == expected for c in counts),
        f"bench cone: {error or code}",
    )
    outcome.outputs["bench_counts"] = counts


# ---------------------------------------------------------------------------
# per-point classification through the API
# ---------------------------------------------------------------------------


def prepare_classify_cloud(hp, seed, workdir):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, size=(CLOUD_SAMPLES, 3))
    picks = rng.choice(CLOUD_SAMPLES, size=CLOUD_SAMPLE_QUERIES, replace=False)
    queries = np.vstack([
        rng.uniform(-1.3, 1.3, size=(CLOUD_RANDOM_QUERIES, 3)),
        samples[picks],
    ])
    queries = queries[rng.permutation(len(queries))]
    data = hp.Dataset(samples, samples.sum(axis=1))
    return data, samples, queries, {}


def cloud_oracle(samples, queries):
    """Expected tags from scipy.spatial (None where a query is within the
    margin of the hull boundary). The samples span 3D, so no query is off
    their affine hull."""
    from scipy.spatial import ConvexHull, Delaunay

    inside = Delaunay(samples).find_simplex(queries) >= 0
    eq = ConvexHull(samples).equations
    depth = np.max(queries @ eq[:, :3].T + eq[:, 3], axis=1)
    known = {tuple(s) for s in samples}
    tags = []
    for q, ins, d in zip(queries, inside, depth):
        if tuple(q) in known:
            tags.append("autopolation")
        elif abs(d) < CLOUD_BOUNDARY_MARGIN:
            tags.append(None)
        else:
            tags.append("interpolation" if ins else "extrapolation")
    return tags


def run_classify_cloud(hp, inputs, outcome):
    data, samples, queries, cache = inputs
    tags = []
    for q in queries:
        regime, _ = outcome.timed("query", hp.classify, q, data)
        tags.append(regime.tag if regime is not None else None)
    outcome.queries += len(queries)
    if "oracle" not in cache:
        cache["oracle"] = cloud_oracle(samples, queries)
    expected = cache["oracle"]
    outcome.check_many(
        (got is not None and (want is None or got == want) for got, want in zip(tags, expected)),
        "query",
    )
    outcome.outputs["tags"] = tags


WORKLOADS = {
    "search_exact": (prepare_search_exact, run_search_exact),
    "search_noisy": (prepare_search_noisy, run_search_noisy),
    "classify_slice": (prepare_classify_slice, run_classify_slice),
    "classify_cloud": (prepare_classify_cloud, run_classify_cloud),
}
