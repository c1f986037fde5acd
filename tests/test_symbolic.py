import functools
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from hyperpolate import (
    Dataset,
    DimensionMismatchError,
    Grammar,
    InvalidInputError,
    UnsupportedGeometryError,
    evaluate,
    lift_constants,
    parse,
    restrict,
    search_hyperpolation,
    serialize,
    tie_sets,
    top_tie_set,
)
from hyperpolate import expressions, symbolic
from hyperpolate.expressions import (
    BINARY_OPS,
    UNARY_OPS,
    ShapeEnumerator,
    assign_slots,
    canonical_simplify,
    compile_shape,
    expr_depth,
    node_count,
    slot_count,
)
from hyperpolate.symbolic import predict_candidate

import _oracles as oracles


def small_grammar(max_nodes=5):
    return Grammar(max_nodes=max_nodes)


class TestFitSlice:
    """The search's slice stage: every kept slice fit is the extrusion
    candidate, whose restriction is the slice expression."""

    def test_constant_data(self):
        x = np.arange(-5.0, 6.0)
        data = Dataset(x[:, None], np.full_like(x, 5.0))
        cands = search_hyperpolation(data, grammar=small_grammar())
        extrusion = [c for c in cands if c.kind == "extrusion"][0]
        assert serialize(extrusion.expr) == serialize(restrict(extrusion)) == "5"
        assert extrusion.residual <= 1e-12

    def test_linear_data(self):
        x = np.arange(-4.0, 8.0)
        data = Dataset(x[:, None], 2.0 * x)
        cands = search_hyperpolation(data, grammar=small_grammar())
        extrusion = [c for c in cands if c.kind == "extrusion"][0]
        assert serialize(restrict(extrusion)) == "mul(x,2)"

    def test_cone_slice_constant_recovery(self, cone_1d_dataset):
        cands = search_hyperpolation(cone_1d_dataset, grammar=small_grammar(max_nodes=5))
        top = top_tie_set(cands)
        assert {(serialize(c.expr), c.y0) for c in top} == {
            ("sqrt(add(pow2(x),pow2(y)))", -1.0),
            ("sqrt(add(pow2(x),pow2(y)))", 1.0),
        }
        assert {serialize(restrict(c)) for c in top} == {"sqrt(add(pow2(x),1))"}

    def test_budget_zero_empty(self, monkeypatch):
        fitted = []
        fit = symbolic._ShapeFitter.fit

        def recording_fit(self, shape):
            fitted.append(shape)
            return fit(self, shape)

        monkeypatch.setattr(symbolic._ShapeFitter, "fit", recording_fit)
        x = np.arange(0.0, 8.0)
        data = Dataset(x[:, None], 2.0 * x)
        assert search_hyperpolation(data, grammar=small_grammar(), budget=0) == []
        assert fitted == []

    def test_max_depth_is_enforced(self, monkeypatch):
        fitted = []
        fit = symbolic._ShapeFitter.fit

        def recording_fit(self, shape):
            fitted.append(shape)
            return fit(self, shape)

        monkeypatch.setattr(symbolic._ShapeFitter, "fit", recording_fit)
        # no exact fit exists, so no certified stop cuts the search short
        rng = np.random.default_rng(0)
        x = np.arange(0.0, 12.0)
        data = Dataset(x[:, None], rng.standard_normal(12))
        search_hyperpolation(
            data, grammar=Grammar(max_nodes=6, max_depth=3)
        )
        assert max(node_count(s) for s in fitted) == 6
        assert max(expr_depth(s) for s in fitted) == 3

    def test_no_qualifying_fit_is_empty_not_error(self):
        # strict mode data that no tiny grammar expression matches exactly
        rng = np.random.default_rng(0)
        x = np.arange(0.0, 12.0)
        data = Dataset(x[:, None], rng.standard_normal(12))
        cands = search_hyperpolation(data, grammar=Grammar(max_nodes=2))
        assert cands == []


class TestLiftConstants:
    def test_ripple_menu(self):
        expr = parse("cos(sqrt(add(pow2(t),400)))")
        cands = lift_constants(expr)
        by_key = {(serialize(c.expr), c.y0) for c in cands}
        assert ("cos(sqrt(add(pow2(x),y)))", 400.0) in by_key
        assert ("cos(sqrt(add(pow2(x),pow2(y))))", 20.0) in by_key
        assert ("cos(sqrt(add(pow2(x),pow2(y))))", -20.0) in by_key
        assert ("cos(sqrt(add(pow2(x),400)))", 0.0) in by_key  # extrusion

    def test_cone_menu(self):
        cands = lift_constants(parse("sqrt(add(pow2(t),1))"))
        keys = {(serialize(c.expr), c.y0) for c in cands}
        assert ("sqrt(add(pow2(x),pow2(y)))", 1.0) in keys
        assert ("sqrt(add(pow2(x),pow2(y)))", -1.0) in keys

    def test_negative_constant_skips_square(self):
        cands = lift_constants(parse("add(t,-3)"))
        exprs = {serialize(c.expr) for c in cands}
        assert "add(pow2(y),x)" not in exprs  # -3 -> y^2 impossible
        assert ("add(x,y)") in exprs  # -3 -> y still fine

    def test_constant_free_expression_only_extrudes(self):
        cands = lift_constants(parse("t"))
        assert [c.kind for c in cands] == ["extrusion"]

    def test_pure_constant_only_extrudes(self):
        cands = lift_constants(parse("5"))
        assert [c.kind for c in cands] == ["extrusion"]

    def test_mirror_pairs_share_scores(self):
        cands = lift_constants(parse("cos(sqrt(add(pow2(t),400)))"))
        squares = [c for c in cands if serialize(c.expr) == "cos(sqrt(add(pow2(x),pow2(y))))"]
        assert sorted(c.y0 for c in squares) == [-20.0, 20.0]
        assert squares[0].score == squares[1].score

    @pytest.mark.filterwarnings("error")
    def test_axis_frame_whose_square_overflows(self):
        # y0^2 is out of float range: no plain square can match, but the
        # shifted squares and the extrusion still lift
        x = np.arange(-5.0, 6.0)
        data = Dataset(np.column_stack([x, np.full_like(x, 2.0**520)]), x + 1.0)
        cands = search_hyperpolation(data)
        assert len(cands) == 2
        assert all(c.residual <= symbolic.STRICT_TOL for c in cands)
        assert serialize(cands[0].expr) == "add(x,1)"

    def test_axis_frame_far_out_keeps_only_shifts_that_restrict(self):
        # at y0 = 1e16, a = y0 +- sqrt(c - b) rounds to y0 or its neighbours,
        # so (y - a)^2 + b would miss c at the slice
        x = np.arange(-5.0, 6.0)
        data = Dataset(np.column_stack([x, np.full_like(x, 1e16)]), x + 1.0)
        cands = search_hyperpolation(data)
        assert [serialize(c.expr) for c in cands] == ["add(x,1)", "add(pow2(add(y,-1e+16)),x,1)"]
        assert all(c.residual <= symbolic.STRICT_TOL for c in cands)


class TestRestrict:
    def test_cone_candidate(self, cone_search):
        candidates, _ = cone_search
        member = [c for c in top_tie_set(candidates) if c.y0 == 1.0][0]
        assert serialize(restrict(member)) == "sqrt(add(pow2(x),1))"

    def test_extrusion_unchanged(self):
        cands = lift_constants(parse("cos(sqrt(add(pow2(t),400)))"))
        extr = [c for c in cands if c.kind == "extrusion"][0]
        assert serialize(restrict(extr)) == "cos(sqrt(add(pow2(x),400)))"

    def test_ripple_candidate_negative_mirror(self, ripple_search):
        candidates, _ = ripple_search
        member = [c for c in top_tie_set(candidates) if c.y0 == -20.0][0]
        assert serialize(restrict(member)) == "cos(sqrt(add(pow2(x),400)))"

    def test_restriction_matches_samples(self, cone_search):
        candidates, _ = cone_search
        x = np.arange(-20.0, 21.0)
        values = np.sqrt(x**2 + 1.0)
        for cand in candidates:
            restricted = restrict(cand)
            vals = evaluate(restricted, {"x": x})
            vals = np.broadcast_to(np.asarray(vals, dtype=float), x.shape)
            assert np.max(np.abs(vals - values)) <= max(cand.residual, 1e-12) + 1e-12


    def test_general_line_candidates_reproduce_the_data(self, diagonal):
        data, cands = diagonal
        t = cands[0].frame.chart.to_intrinsic(data.locations)[:, 0]
        for cand in cands:
            vals = evaluate(restrict(cand), {"t": t})
            vals = np.broadcast_to(np.asarray(vals, dtype=float), t.shape)
            # the line's unit-speed parametrisation rounds: 1.7e-13 at most
            assert np.max(np.abs(vals - data.values)) <= 1e-12, serialize(cand.expr)


@pytest.fixture(scope="module")
def diagonal():
    """f = t² on the line (t, t): a general 2-D line, searched once."""
    t = np.arange(-20.0, 21.0)
    data = Dataset(np.column_stack([t, t]), t**2)
    return data, search_hyperpolation(data)


class TestSearch:
    def test_diagonal_contains_expected_liftings(self, diagonal):
        _, cands = diagonal
        exprs = {serialize(c.expr) for c in cands}
        assert {"mul(x,y)", "pow2(x)", "pow2(y)"} <= exprs
        for c in cands:
            if serialize(c.expr) in {"mul(x,y)", "pow2(x)", "pow2(y)"}:
                assert c.residual <= 1e-9
        assert {serialize(c.expr) for c in top_tie_set(cands)} == {"pow2(x)", "pow2(y)"}

    def test_symmetry_completeness(self, cone_search):
        candidates, _ = cone_search
        for c in candidates:
            if c.y0 != 0.0 and c.kind == "sub_y2":
                mirrors = [
                    m
                    for m in candidates
                    if serialize(m.expr) == serialize(c.expr) and m.y0 == -c.y0
                ]
                assert mirrors and mirrors[0].score == c.score

    def test_ranking_is_monotone(self, cone_search):
        candidates, _ = cone_search
        keys = [(c.residual_rank, c.score) for c in candidates]
        assert keys == sorted(keys)

    def test_tie_sets_are_maximal_runs(self, cone_search):
        candidates, _ = cone_search
        groups = tie_sets(candidates)
        flat = [c for g in groups for c in g]
        assert flat == candidates
        for a, b in zip(groups[:-1], groups[1:]):
            ka = (a[0].residual_rank, a[0].score)
            kb = (b[0].residual_rank, b[0].score)
            assert ka < kb

    def test_noisy_ambient_search_keeps_the_best_ranked(self, monkeypatch):
        t = np.arange(-20.0, 21.0)
        rng = np.random.default_rng(3)
        values = t**2 + 0.01 * rng.standard_normal(t.size)
        data = Dataset(np.column_stack([t, t]), values, noise_sigma=0.01)
        cands = search_hyperpolation(data, budget=500)
        assert cands[0].frame.mode == "ambient"
        assert len(cands) == symbolic.MAX_SLICE_FITS
        keys = [c.rank_key for c in cands]
        assert keys == sorted(keys)
        monkeypatch.setattr(symbolic, "MAX_SLICE_FITS", 10**6)
        uncapped = search_hyperpolation(data, budget=500)
        assert len(uncapped) > len(cands)
        assert [c.rank_key for c in uncapped[: len(cands)]] == keys

    def test_vertical_axis_aligned_hull(self):
        # slice runs along the y axis at x = 3; the slice variable is y
        t = np.arange(-6.0, 7.0)
        locs = np.column_stack([np.full_like(t, 3.0), t])
        data = Dataset(locs, t**2)
        cands = search_hyperpolation(
            data, grammar=Grammar(max_nodes=4)
        )
        assert serialize(cands[0].expr) == "pow2(y)"
        pts = np.array([[0.0, 2.0], [5.0, -3.0]])
        from hyperpolate import predict_candidate

        assert np.allclose(predict_candidate(cands[0], pts), [4.0, 9.0])

    def test_unsupported_geometry(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(6, 2)), rng.normal(size=6))  # 2D hull
        with pytest.raises(UnsupportedGeometryError):
            search_hyperpolation(data)

    @pytest.mark.parametrize("top", [1e154, 1e160])
    def test_magnitude_beyond_the_start_grid_is_invalid_input(self, top):
        # the start grid reaches 4 * top^2: inf above about 6.7e153, and the
        # square itself overflows above about 1.34e154
        x = np.arange(-5.0, 6.0)
        data = Dataset(x[:, None], top * (x + 5.0) / 10.0)
        with pytest.raises(InvalidInputError, match="6.7e\\+153"):
            search_hyperpolation(data)

    def test_certified_stop_builds_no_further_level(self, monkeypatch, cone_1d_dataset):
        requested = []

        class RecordingEnumerator(ShapeEnumerator):
            def shapes(self, n):
                requested.append(n)
                return super().shapes(n)

        monkeypatch.setattr(symbolic, "ShapeEnumerator", RecordingEnumerator)
        cands = search_hyperpolation(cone_1d_dataset)
        assert serialize(cands[0].expr) == "sqrt(add(pow2(x),pow2(y)))"
        # the answer costs 6 points, so the stop is certified after level 6
        assert max(requested) == 6

    def test_certified_search_equals_exhaustive_search(self, monkeypatch):
        # f = 2x on the line y = 2; the shape add(mul(sub(~,t),~),t) fitted at
        # (0, -1) simplifies to add(t,t) and must fold away as a duplicate
        x = np.arange(-5.0, 6.0)
        data = Dataset(np.column_stack([x, np.full_like(x, 2.0)]), 2.0 * x)
        grammar = Grammar(max_nodes=7, unary_ops=(), binary_ops=("add", "sub", "mul"))

        def top():
            cands = search_hyperpolation(data, grammar=grammar)
            return {(serialize(c.expr), c.score) for c in top_tie_set(cands)}

        certified = top()
        # a floor at max_nodes turns off the level stop and the bound skip
        monkeypatch.setattr(symbolic, "ENUM_FLOOR", grammar.max_nodes)
        assert top() == certified == {("mul(x,y)", 3.0)}

    def test_level_stop_invariant(self):
        """Strict mode stops at the first level above the certified best
        score, which needs every candidate lifted from an n-node shape's fit
        to score at least n.  Fits that fold to fewer nodes are dropped."""
        enum = ShapeEnumerator(Grammar(), ("t",))
        shapes = [s for n in range(1, 6) for s in enum.shapes(n) if slot_count(s)]
        # the tight cases: lifts even in a new y, c = 0, and c = y0 on an axis
        frames = [symbolic.SliceFrame("new_dim", "x", "y", 0.0)] + [
            symbolic.SliceFrame("axis", "x", "y", y0) for y0 in (1.0, 3.0)
        ]
        checks = 0
        for shape in shapes:
            n = node_count(shape)
            for fill in itertools.product((0.0, 1.0, 3.0, 20.0, 0.5, -2.0), repeat=slot_count(shape)):
                expr = canonical_simplify(assign_slots(shape, fill))
                if node_count(expr) < n:
                    continue
                for frame in frames:
                    for cand in lift_constants(expr, frame):
                        assert cand.score >= n, (serialize(shape), fill, serialize(cand.expr))
                        checks += 1
        assert checks > 55_000

    def test_budget_zero(self):
        x = np.arange(0.0, 8.0)
        data = Dataset(x[:, None], 2.0 * x)
        assert search_hyperpolation(data, budget=0) == []
        assert search_hyperpolation(data, budget=np.int64(0)) == []

    @pytest.mark.parametrize("budget", [-3, 2.7, 2.0, True, "5"])
    def test_budget_must_be_a_non_negative_integer(self, budget):
        x = np.arange(0.0, 8.0)
        data = Dataset(x[:, None], 2.0 * x)
        with pytest.raises(InvalidInputError, match="budget"):
            search_hyperpolation(data, budget=budget)

    def test_determinism_across_repeat_runs(self):
        rng = np.random.default_rng(9)
        grammar = Grammar(max_nodes=4)
        datasets = []
        for case in range(20):
            x = np.sort(rng.uniform(-5, 5, size=8))
            values = rng.choice([x**2, 2 * x, np.abs(x)]) + 0.0
            datasets.append(Dataset(x[:, None], values))

        def run(data):
            cands = search_hyperpolation(data, grammar=grammar)
            return [(serialize(c.expr), c.y0, c.score, c.residual, c.kind) for c in cands]

        # every search runs twice, with the other searches in between
        first = [run(data) for data in datasets]
        assert [run(data) for data in datasets] == first


class TestPrediction:
    def test_new_dim_candidate_evaluation(self, ripple_search):
        candidates, _ = ripple_search
        pair = top_tie_set(candidates)
        minus = [c for c in pair if c.y0 == -20.0][0]
        # canonical embedding: slice at offset 0; truth centred 20 below
        pts = np.array([[0.0, 0.0], [3.0, 5.0], [-11.0, -7.0]])
        expected = np.cos(np.sqrt(pts[:, 0] ** 2 + (pts[:, 1] - 20.0) ** 2))
        assert np.allclose(predict_candidate(minus, pts), expected, atol=1e-12)

    def test_new_dim_candidate_rejects_extra_coordinates(self, cone_search):
        candidates, _ = cone_search
        cand = top_tie_set(candidates)[0]
        assert serialize(cand.expr) == "sqrt(add(pow2(x),pow2(y)))"
        with pytest.raises(DimensionMismatchError):
            predict_candidate(cand, [[3.0, 0.0, 99.0]])
        # one coordinate is a point on the slice, at offset 0
        assert predict_candidate(cand, [[3.0]]) == predict_candidate(cand, [[3.0, 0.0]])


def _pointwise(f):
    """A lockstep objective that evaluates ``f`` at each point on its own."""
    return lambda points: np.array([f(p) for p in points], dtype=float)


def _rosenbrock(scale):
    return lambda x: (1 - x[0]) ** 2 + scale * (x[1] - x[0] ** 2) ** 2


# objective, brackets; the comment names the steps each case exercises
BRENT_CASES = {
    # smooth: parabolic steps, with golden ones where a parabola is refused
    "wavy": (lambda x: (x - 0.3) ** 2 + 0.1 * math.sin(5 * x), [(-2.0, 3.0), (-1.0, 0.5), (0.5, 2.5)]),
    # a kink at the minimum: mostly golden-section steps
    "vee": (lambda x: abs(x - 0.3), [(-2.0, 3.0), (0.0, 0.4)]),
    # the fitter's 1e300 clamp of an infinite SSE: a plateau left of 0.5
    "plateau": (lambda x: 1e300 if x < 0.5 else (x - 0.7) ** 2, [(-3.0, 1.0), (-3.0, 0.6)]),
    # minimum on the bound of a huge bracket: stops at the 500-call cap
    "cap": (lambda x: x, [(0.0, 1e300)]),
}


def _exp_fit3(x):
    """Least squares of c1 * exp(c0 * t) + (t - c2)^2 against 2 exp(0.3 t) +
    (t - 1)^2, the three-slot fit's objective."""
    return sum(
        (x[1] * math.exp(x[0] * t) + (t - x[2]) ** 2 - 2.0 * math.exp(0.3 * t) - (t - 1.0) ** 2) ** 2
        for t in range(-4, 5)
    )


# objective, starts; two variables run 400 iterations, three run 600, as in
# _fit_inner2 and _fit_inner_many
NELDER_MEAD_CASES = {
    # expansions and both contractions; (0, 0) and (0, 1) start on zdelt
    "rosenbrock": (_rosenbrock(100.0), [(-1.2, 1.0), (0.0, 0.0), (0.0, 1.0)]),
    # plateaus: the inside contraction fails and the simplex shrinks
    "steps": (
        lambda x: float(np.floor(4 * abs(x[0] - 0.3)) + np.floor(4 * abs(x[1] + 0.2))),
        [(2.0, -1.0), (0.0, 0.0)],
    ),
    # the outside contraction fails and the simplex shrinks
    "sawtooth": (
        lambda x: (x[0] % 0.37) + (x[1] % 0.29) + 0.01 * (x[0] ** 2 + x[1] ** 2),
        [(3.0, 2.0)],
    ),
    # an infinite SSE left of x0 = 0
    "infinite": (
        lambda x: math.inf if x[0] < 0 else (x[0] - 1) ** 2 + x[1] ** 2,
        [(0.5, 0.5), (0.0, 2.0)],
    ),
    # a narrow curved valley: stops at the 400-iteration cap
    "cap": (_rosenbrock(1e6), [(-1.2, 1.0)]),
    # every simplex value ties: each step sorts ties and shrinks
    "constant": (lambda x: 1.0, [(0.3, -2.0), (0.0, 0.0)]),
    # every value infinite: inf - inf is nan, so the fatol test never
    # passes and the run stops at the 400-iteration cap
    "infinite_simplex": (lambda x: math.inf, [(1.0, 2.0)]),
    # the three-slot fit's lanes
    "exp_fit3": (_exp_fit3, [(0.0, 1.0, -1.0), (1.0, 2.0, 0.0), (-1.0, 0.0, 2.0)]),
    # the first simplex values are (1, 1, 0, 0), which numpy's argsort may
    # order (3, 2, 1, 0) where a stable sort gives (2, 3, 0, 1)
    "ledge3": (lambda x: 1.0 if max(x[1], x[2]) <= 0 else 0.0, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]),
}
NELDER_MEAD_CAPPED = {"cap", "infinite_simplex"}


def _noisy_cone1():
    x = np.arange(-20.0, 21.0)
    rng = np.random.default_rng(1)
    return x, np.sqrt(x * x + 1.0) + 0.01 * rng.standard_normal(x.size)


def _ripple1d():
    x = np.arange(-40.0, 41.0)
    return x, np.cos(np.sqrt(x * x + 400.0))


def _scipy_fit(fitter, shape):
    """``fitter.fit(shape)[:2]`` with the inner constants fitted by the
    scipy reference in ``_oracles``, one minimizer call per start."""
    core, has_mul, has_add = symbolic._linear_split(shape)
    k, at = compile_shape(core, fitter.envs)
    target = fitter.target
    with np.errstate(all="ignore"):
        inner, sse = oracles.scipy_fit_inner(k, fitter.grid, target, at, has_mul, has_add)
        if inner is None or not np.isfinite(sse):
            return None
        u = np.broadcast_to(np.asarray(at(inner), dtype=float), (1, target.size))
        sse, ca, cb = oracles.profiled_sse(u, target, has_mul, has_add)
        sse = float(sse[0])
    if not np.isfinite(sse):
        return None
    return fitter._assemble(inner, ca, cb, has_mul, has_add), sse


class TestLockstepFitting:
    """The generator minimizers, run as lanes, give scipy's results bit for
    bit, and so does every constant fit."""

    @pytest.mark.parametrize("case", sorted(BRENT_CASES))
    def test_bounded_brent_matches_scipy(self, case):
        f, brackets = BRENT_CASES[case]
        lanes = [symbolic._bounded_brent(lo, hi) for lo, hi in brackets]
        runs = symbolic._lockstep(lanes, _pointwise(f))
        for (lo, hi), (x, fx) in zip(brackets, runs):
            with np.errstate(all="ignore"):
                res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
            assert (repr(x), repr(fx)) == (repr(float(res.x)), repr(float(res.fun)))
            assert res.nfev == 500 if case == "cap" else res.nfev < 500

    @pytest.mark.parametrize("case", sorted(NELDER_MEAD_CASES))
    def test_nelder_mead_matches_scipy(self, case):
        f, starts = NELDER_MEAD_CASES[case]
        maxiter = 400 if len(starts[0]) == 2 else 600
        lanes = [symbolic._nelder_mead(x0, maxiter=maxiter) for x0 in starts]
        runs = symbolic._lockstep(lanes, _pointwise(f))
        for x0, (x, fx) in zip(starts, runs):
            with np.errstate(all="ignore"):
                res = minimize(
                    f,
                    x0=list(x0),
                    method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": maxiter},
                )
            assert x.tobytes() == res.x.tobytes()
            assert repr(float(fx)) == repr(float(res.fun))
            assert res.nit == maxiter if case in NELDER_MEAD_CAPPED else res.nit < maxiter

    @pytest.mark.parametrize("data", [_ripple1d, _noisy_cone1], ids=["ripple1d", "noisy_cone1"])
    def test_fits_match_scipy_reference(self, data):
        """Every shape of at most 6 nodes with one or two inner slots."""
        t, y = data()
        fitter = symbolic._ShapeFitter({"t": t}, y)
        enum = ShapeEnumerator(Grammar(), ("t",))
        counts = {1: 0, 2: 0}
        for shape in (s for n in range(1, 7) for s in enum.shapes(n)):
            k = slot_count(symbolic._linear_split(shape)[0])
            if k not in counts:
                continue
            counts[k] += 1
            got = fitter.fit(shape)
            assert repr(got and got[:2]) == repr(_scipy_fit(fitter, shape)), serialize(shape)
        assert counts[1] > 2000 and counts[2] > 100

    def test_three_slot_fit_matches_scipy_reference(self):
        # three inner slots and no profiled ones: 64 Nelder-Mead lanes
        shape = ("add", ("mul", ("exp", ("mul", ("var", "t"), ("slot",))), ("slot",)),
                 ("pow2", ("sub", ("var", "t"), ("slot",))))
        assert symbolic._linear_split(shape) == (shape, False, False)
        t = np.arange(-4.0, 5.0)
        fitter = symbolic._ShapeFitter({"t": t}, 2.0 * np.exp(0.3 * t) + (t - 1.0) ** 2)
        got = fitter.fit(shape)
        assert repr(got[:2]) == repr(_scipy_fit(fitter, shape))
        assert got[1] < 1e-12
        assert np.allclose(got[0], (0.3, 2.0, 1.0), atol=1e-6)

    def test_slot_free_residual_is_the_fits(self):
        # the search reads a slot-free shape's residual off its fit
        t, y = _ripple1d()
        fitter = symbolic._ShapeFitter({"t": t}, y)
        shape = ("cos", ("sqrt", ("add", ("pow2", ("var", "t")), ("var", "t"))))
        consts, sse, max_abs = fitter.fit(shape)
        assert consts == ()
        assert repr(max_abs) == repr(fitter.residual_of(shape))
        assert fitter.fit(("add", ("var", "t"), ("slot",)))[2] is None

    def test_fit_with_an_infinite_constant_is_dropped(self):
        # Nelder-Mead runs the second constant off to -inf, where exp(t + c)
        # is 0 and the shape is the constant c1 at a finite SSE; neither snap
        # nor serialize can take an infinite constant
        x = np.arange(-5.0, 6.0)
        fitter = symbolic._ShapeFitter({"t": x}, 1e150 * (x + 5.0) / 10.0, strict=True)
        shape = ("sub", ("slot",), ("exp", ("add", ("var", "t"), ("slot",))))
        assert fitter.fit(shape) is None


def _one_slot_shapes(max_nodes):
    """The bare slot and every shape of at most ``max_nodes`` nodes over t
    with one inner slot and no profiled (linear) slot."""
    enum = ShapeEnumerator(Grammar(), ("t",))
    shapes = [("slot",)] + [s for n in range(1, max_nodes + 1) for s in enum.shapes(n)]
    out = []
    for shape in shapes:
        core, has_mul, has_add = symbolic._linear_split(shape)
        if slot_count(core) == 1 and not (has_mul or has_add):
            out.append(shape)
    return out


def _qualifies(fitter, shape, fit):
    """Whether the search would keep this fit in strict mode: snapped,
    simplified, and within the strict tolerance on every sample.  (The
    search also drops fits that fold to fewer nodes; this does not.)"""
    if fit is None:
        return False
    consts, _ = fitter.snap(shape, *fit[:2])
    expr = canonical_simplify(assign_slots(shape, consts))
    return fitter.residual_of(expr) <= symbolic.STRICT_TOL


class TestStrictScreen:
    """In strict mode a one-slot shape whose interval enclosure misses the
    targets over every Brent bracket is not fitted; that never drops a fit
    the search would keep."""

    def test_interval_table_covers_the_grammar(self):
        assert set(expressions._INTERVAL_OPS) == set(expressions._OPS)
        assert set(expressions._OPS) == set(UNARY_OPS + BINARY_OPS)

    def test_boxes_reach_one_snap_step_and_the_tolerance(self):
        t = np.arange(-3.0, 4.0)
        shape = ("add", ("var", "t"), ("slot",))
        fitter = symbolic._ShapeFitter({"t": t}, t + 5.0, strict=True)
        # Brent ends within 4e-6 of 5 on this bracket, and snap rounds to 5
        sse = _pointwise(lambda c: float(np.sum((t + c - fitter.target) ** 2)))
        ((x, fx),) = symbolic._lockstep([symbolic._bounded_brent(3.0, 5.0 - 4e-6)], sse)
        assert 5.0 - 5e-6 < x < 5.0
        assert _qualifies(fitter, shape, ((x,), fx))
        assert not fitter._cannot_qualify(shape, [(3.0, 5.0 - 4e-6)])
        assert fitter._cannot_qualify(shape, [(3.0, 4.99)])
        # a residual within the tolerance at a sample that no constant moves
        shape = ("mul", ("var", "t"), ("slot",))
        y = 2.0 * t
        y[3] = 0.5 * symbolic.STRICT_TOL  # t = 0
        fitter = symbolic._ShapeFitter({"t": t}, y, strict=True)
        assert _qualifies(fitter, shape, ((2.0,), 0.0))
        assert not fitter._cannot_qualify(shape, [(1.5, 2.5)])

    def test_never_rules_out_a_qualifying_fit(self):
        # each shape is fitted to its own values at c, so that it can
        # qualify; the second sample set holds 0 and negatives, where sqrt,
        # div and exp give nan or inf at some constants of the brackets
        samples = (np.arange(-20.0, 21.0), np.array([-6.0, -2.0, -1.0, -0.25, 0.0, 0.5, 1.0, 3.0]))
        constants = (-3.0, -0.5, 0.25, 2.0, 7.0, 400.0)
        shapes = _one_slot_shapes(5)
        ruled_out = kept = 0
        for t in samples:
            for shape in shapes:
                for c in constants:
                    y = np.broadcast_to(evaluate(shape, {"t": t}, [c]), t.shape)
                    # the start grid squares the largest magnitude: keep it finite
                    if not np.all(np.abs(y) < 1e150):
                        continue
                    strict = symbolic._ShapeFitter({"t": t}, y, strict=True)
                    _, at = compile_shape(shape, strict.envs)
                    lanes = symbolic._LaneObjective(at, strict.target, False, False)
                    with np.errstate(all="ignore"):
                        brackets = strict._brackets(lanes)
                        if not (brackets and strict._cannot_qualify(shape, brackets)):
                            kept += 1
                            continue
                    assert strict.fit(shape) is None
                    # the fit the screen spared: Brent over the same brackets
                    loose = symbolic._ShapeFitter({"t": t}, y)
                    assert not _qualifies(loose, shape, loose.fit(shape)), (serialize(shape), c)
                    ruled_out += 1
        assert len(shapes) > 300
        assert ruled_out > 50 and kept > 1000, (ruled_out, kept)

    def test_span_screen_never_rules_out_a_qualifying_fit(self):
        # the box over the whole start-grid span, screened before any grid
        # pass, on ripple1d's one-slot shapes without a linear wrap
        t, y = _ripple1d()
        strict = symbolic._ShapeFitter({"t": t}, y, strict=True)
        loose = symbolic._ShapeFitter({"t": t}, y)
        span = [(strict.grid[0] - 1.0, strict.grid[-1] + 1.0)]
        shapes = _one_slot_shapes(6)
        ruled_out = 0
        for shape in shapes:
            with np.errstate(all="ignore"):
                if not strict._cannot_qualify(shape, span):
                    continue
            ruled_out += 1
            assert strict.fit(shape) is None
            assert not _qualifies(loose, shape, loose.fit(shape)), serialize(shape)
        assert 2 * ruled_out > len(shapes), (ruled_out, len(shapes))


def _walked_lower_bound(shape):
    """The strict search's score bound by a walk over the shape's tree: the
    oracle for ``symbolic._shape_lower_bound``, which reads the enumerator's
    facts instead."""
    slot_mins = []

    def walk(node, sub_lhs=False):
        if node[0] == "slot":
            slot_mins.append(symbolic._ZERO_CONST_COST if sub_lhs else symbolic._MIN_CONST_COST)
            return 0.0
        if node[0] == "var":
            return expressions.VAR_COST
        if node[0] == "sub":
            return expressions.OP_COST + walk(node[1], sub_lhs=True) + walk(node[2])
        return expressions.OP_COST + sum(walk(c) for c in node[1:])

    units = walk(shape)
    if not slot_mins:
        return units
    total = units + sum(slot_mins)
    return min(total, total - max(slot_mins) + symbolic._POW2_VAR_COST)


class TestShapeFacts:
    """The enumerator builds each shape's facts from its operands' facts;
    they equal what the tree walks compute."""

    @pytest.mark.parametrize("variables, max_nodes", [(("t",), 7), (("x", "y"), 6)])
    def test_facts_match_tree_walks(self, variables, max_nodes):
        enum = ShapeEnumerator(Grammar(), variables)
        enum.shapes(max_nodes)
        count = 0
        for n in range(1, max_nodes + 1):
            for shape in enum.shapes(n):
                facts = enum._facts_of(shape)
                assert facts.key == serialize(shape)
                assert facts.depth == expr_depth(shape)
                assert facts.slots == slot_count(shape)
                assert node_count(shape) == n
                assert symbolic._shape_lower_bound(facts, n) == _walked_lower_bound(shape), (
                    facts.key
                )
                if n < max_nodes:
                    # levels below the last are operands: their facts are kept
                    assert enum._facts[shape] == facts
                count += 1
        assert count == len(enum._facts) - 1 + len(enum.shapes(max_nodes))

    @pytest.mark.parametrize(
        "grammar",
        [Grammar(), Grammar(unary_ops=("sqrt", "abs")), Grammar(binary_ops=("add", "sub"))],
        ids=["default", "sqrt_abs", "add_sub"],
    )
    @pytest.mark.parametrize("variables, max_nodes", [(("t",), 7), (("x", "y"), 6)])
    def test_shapes_are_simplify_fixpoints(self, grammar, variables, max_nodes):
        # the search takes a slot-free shape as its own fitted expression
        enum = ShapeEnumerator(grammar, variables)
        slot_free = 0
        for n in range(1, max_nodes + 1):
            for shape in enum.shapes(n):
                assert canonical_simplify(shape) == shape, serialize(shape)
                if not slot_count(shape):
                    assert assign_slots(shape, ()) == shape, serialize(shape)
                    slot_free += 1
        assert slot_free

    def test_bound_counts_sub_lhs_slots(self):
        # a bare slot on sub's left may keep 0, which costs 1 point, and
        # anywhere else at least 1, which costs 3 or is priced as pow2(y)
        enum = ShapeEnumerator(Grammar(), ("t",))
        by_key = {serialize(s): s for s in enum.shapes(3)}
        for key, bound in (("sub(~,t)", 3.0), ("add(t,~)", 4.0)):
            shape = by_key[key]
            assert symbolic._shape_lower_bound(enum._facts_of(shape), 3) == bound
            assert _walked_lower_bound(shape) == bound


def _walked_fit(fitter, shape, n, fit):
    """A fit's ``(expr, residual, key)`` by the walks over the fitted
    expression: the oracle for ``symbolic._fitted``, which takes a slot-free
    shape as its own fitted expression without them."""
    consts, sse, _ = fit
    consts, sse = fitter.snap(shape, consts, sse)
    expr = canonical_simplify(assign_slots(shape, consts))
    if node_count(expr) < n:
        return None
    residual = fitter.residual_of(expr)
    if not np.isfinite(residual):
        return None
    return expr, residual, serialize(expr)


class TestFittedExpression:
    """A fit's expression, residual and dedupe key, as the search reads
    them."""

    def test_slot_free_fits_equal_the_walked_path(self):
        t, y = _ripple1d()
        fitter = symbolic._ShapeFitter({"t": t}, y, strict=True)
        enum = ShapeEnumerator(Grammar(), ("t",))
        checked = 0
        for n in range(1, 7):
            for shape in enum.shapes(n):
                if slot_count(shape):
                    continue
                fit = fitter.fit(shape)
                if fit is None:
                    continue
                assert fit[2] is not None  # a slot-free fit carries max_abs
                fast = symbolic._fitted(fitter, enum, shape, n, fit)
                walked = _walked_fit(fitter, shape, n, fit)
                assert fast is not None and walked is not None, serialize(shape)
                assert fast[0] == walked[0] and fast[2] == walked[2], serialize(shape)
                assert repr(fast[1]) == repr(walked[1]), serialize(shape)
                checked += 1
        assert checked > 1000, checked

    @pytest.mark.parametrize("case", ["cone1d", "noisy1"])
    def test_keys_are_serializations(self, monkeypatch, case):
        x = np.arange(-20.0, 21.0)
        if case == "cone1d":
            data, budget = Dataset(x[:, None], np.sqrt(x * x + 1.0)), None
        else:
            noise = 0.01 * np.random.default_rng(1).standard_normal(x.size)
            data = Dataset(x[:, None], np.sqrt(x * x + 1.0) + noise, noise_sigma=0.01)
            budget = 5000
        returned = []
        qualifying_fits = symbolic._qualifying_fits

        def recorded(*args):
            fits = qualifying_fits(*args)
            returned.extend(fits)
            return fits

        monkeypatch.setattr(symbolic, "_qualifying_fits", recorded)
        assert search_hyperpolation(data, budget=budget)
        assert returned
        for expr, _, key in returned:
            assert key == serialize(expr)
        # the noisy search keeps fits of both paths: of slot-free shapes and
        # of shapes with constants; cone1d's one fit has a constant
        with_consts = sum(bool(expressions._split_constants(e)[1]) for e, _, _ in returned)
        assert with_consts > 0
        assert (with_consts < len(returned)) == (case == "noisy1"), (with_consts, len(returned))


@functools.lru_cache(maxsize=None)
def _nan_walk():
    """The search's nan record on ripple1d up to 6 nodes, walked one shape
    at a time with ``fit``, level by level: a level's shapes become operands
    once it is fitted.  Returns the record, the flagged shapes that got a
    fit (there should be none), and the counts of flagged and all shapes."""
    t, y = _ripple1d()
    fitter = symbolic._ShapeFitter({"t": t}, y)
    enum = ShapeEnumerator(Grammar(), ("t",))
    nan_shapes, level, fitted = set(), [], []
    flagged = total = 0
    for n in range(1, 7):
        for shape in level:
            if symbolic._nan_operand(shape, nan_shapes):
                nan_shapes.add(shape)
        level = enum.shapes(n)
        for shape in level:
            total += 1
            skip = symbolic._nan_operand(shape, nan_shapes)
            fit = fitter.fit(shape)
            if skip:
                flagged += 1
                if fit is not None:
                    fitted.append(serialize(shape))
            elif fit is None and fitter.free_nan:
                nan_shapes.add(shape)
    return frozenset(nan_shapes), fitted, flagged, total


class TestNanSkip:
    """A shape with an operand known to be nan at some sample is not fitted:
    its fit would be None."""

    def test_flagged_shapes_have_no_fit(self):
        _, fitted, flagged, total = _nan_walk()
        assert fitted == []
        assert 4 * flagged > total, (flagged, total)

    def test_free_nan_marks_nan_not_inf(self):
        t = np.array([-1.0, 0.0, 1000.0])
        fitter = symbolic._ShapeFitter({"t": t}, t)
        assert fitter.fit(("sqrt", ("var", "t"))) is None
        assert fitter.free_nan
        # exp(t) is inf at 1000, and inf does not pass through every
        # operator: 1/inf = 0
        assert fitter.fit(("exp", ("var", "t"))) is None
        assert not fitter.free_nan
        assert fitter.fit(("var", "t")) is not None
        assert not fitter.free_nan


def _value_env(samples, variables):
    """Variable arrays over ripple1d's samples, or over samples where sqrt,
    div and exp give nan and inf (negative, signed zero, subnormal and
    large arguments); a second variable runs over other values."""
    if samples == "ripple1d":
        t, y = _ripple1d()
    else:
        t = np.array([-750.0, -2.5, -1.0, -0.0, 0.0, 1e-310, 0.5, 3.0, 750.0])
        y = t[::-1].copy()
    return {"t": t} if variables == ("t",) else {"x": t, "y": y}


def _fallback_case(case):
    """(data, budget): ripple1d cut inside level 7, or noisy seed 1."""
    if case == "ripple1d":
        t, y = _ripple1d()
        return Dataset(t[:, None], y), 20000
    t, y = _noisy_cone1()
    return Dataset(t[:, None], y, noise_sigma=0.01), 5000


@functools.lru_cache(maxsize=None)
def _tabled_candidates(case):
    data, budget = _fallback_case(case)
    return _candidate_bits(search_hyperpolation(data, budget=budget))


def _candidate_bits(candidates):
    return [
        (serialize(c.expr), repr(c.y0), repr(c.score), float(c.residual).hex(), c.kind)
        for c in candidates
    ]


class TestShapeValues:
    """The search values slot-free shapes from their operands' value rows
    (``expressions._ShapeValues``), with the values, nan record and
    candidates of fitting each shape alone."""

    @pytest.mark.parametrize("samples", ["ripple1d", "nan_inf"])
    @pytest.mark.parametrize("variables, max_nodes", [(("t",), 7), (("x", "y"), 6)])
    def test_rows_equal_compile_shape(self, samples, variables, max_nodes):
        env = _value_env(samples, variables)
        m = len(env[variables[0]])
        enum = ShapeEnumerator(Grammar(), variables)
        values = expressions._ShapeValues(env)
        nan = inf = 0
        for n in range(1, max_nodes + 1):
            if n > 2:
                values.add_level(enum.shapes(n - 1))
            level = enum.shapes(n)
            pos, vals = values.values(level)
            # every slot-free operator shape has rows for its operands
            want = [i for i, s in enumerate(level) if n > 1 and not slot_count(s)]
            assert pos.tolist() == want
            ref = np.empty((len(want), m))
            for row, i in enumerate(want):
                ref[row] = compile_shape(level[i], env)[1](())
            same = (vals.view(np.int64) == ref.view(np.int64)).all(axis=1)
            bad = [serialize(level[i]) for i in pos[~same][:5]]
            assert same.all(), bad
            nan += int(np.isnan(vals).any(axis=1).sum())
            inf += int(np.isinf(vals).any(axis=1).sum())
        assert len(want) > 20000
        assert nan > 1000 and inf > 1000, (nan, inf)

    def test_nan_record_equals_walk(self, monkeypatch):
        # the search's record, captured from its _nan_operand calls
        records = []
        nan_operand = symbolic._nan_operand

        def recorded(shape, nan_shapes):
            records.append(nan_shapes)
            return nan_operand(shape, nan_shapes)

        monkeypatch.setattr(symbolic, "_nan_operand", recorded)
        t, y = _ripple1d()
        fitter = symbolic._ShapeFitter({"t": t}, y)
        symbolic._qualifying_fits(fitter, Grammar(max_nodes=6), None, None)
        assert records and all(r is records[0] for r in records)
        walked = _nan_walk()[0]
        assert len(walked) > 1000
        assert records[0] == walked

    @pytest.mark.parametrize("cells", [0, 5_000])
    @pytest.mark.parametrize("case", ["ripple1d", "noisy1"])
    def test_fallback_gives_the_same_candidates(self, monkeypatch, case, cells):
        # with the table bound patched low, shapes whose operands have no
        # rows are fitted one at a time (all of them at 0 cells)
        data, budget = _fallback_case(case)
        want = _tabled_candidates(case)
        fits = []
        fit = symbolic._ShapeFitter.fit

        def counted(self, shape):
            fits.append(slot_count(shape) == 0)
            return fit(self, shape)

        monkeypatch.setattr(symbolic._ShapeFitter, "fit", counted)
        monkeypatch.setattr(expressions, "_TABLE_CELLS", cells)
        assert _candidate_bits(search_hyperpolation(data, budget=budget)) == want
        # slot-free shapes other than the variable were fitted alone
        assert sum(fits) > 100
