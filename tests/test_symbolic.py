import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from hyperpolate import (
    Dataset,
    DimensionMismatchError,
    Grammar,
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
from hyperpolate import symbolic
from hyperpolate.expressions import (
    ShapeEnumerator,
    compile_shape,
    expr_depth,
    node_count,
    slot_count,
)
from hyperpolate.symbolic import predict_candidate

import _oracles as oracles


def small_grammar(max_nodes=5):
    return Grammar(variables=("t",), max_nodes=max_nodes)


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
            data, grammar=Grammar(variables=("t",), max_nodes=6, max_depth=3)
        )
        assert max(node_count(s) for s in fitted) == 6
        assert max(expr_depth(s) for s in fitted) == 3

    def test_no_qualifying_fit_is_empty_not_error(self):
        # strict mode data that no tiny grammar expression matches exactly
        rng = np.random.default_rng(0)
        x = np.arange(0.0, 12.0)
        data = Dataset(x[:, None], rng.standard_normal(12))
        cands = search_hyperpolation(data, grammar=Grammar(variables=("t",), max_nodes=2))
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
            data, grammar=Grammar(variables=("t",), max_nodes=4)
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

    def test_budget_zero(self):
        x = np.arange(0.0, 8.0)
        data = Dataset(x[:, None], 2.0 * x)
        assert search_hyperpolation(data, budget=0) == []

    def test_determinism_across_repeat_runs(self):
        rng = np.random.default_rng(9)
        grammar = Grammar(variables=("t",), max_nodes=4)
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

# objective, starts
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
}


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
        runs = symbolic._lockstep([symbolic._nelder_mead(x0) for x0 in starts], _pointwise(f))
        for x0, (x, fx) in zip(starts, runs):
            res = minimize(
                f,
                x0=list(x0),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400},
            )
            assert x.tobytes() == res.x.tobytes()
            assert repr(float(fx)) == repr(float(res.fun))
            assert res.nit == 400 if case == "cap" else res.nit < 400

    @pytest.mark.parametrize("data", [_ripple1d, _noisy_cone1], ids=["ripple1d", "noisy_cone1"])
    def test_fits_match_scipy_reference(self, data):
        """Every shape of at most 6 nodes with one or two inner slots."""
        t, y = data()
        fitter = symbolic._ShapeFitter({"t": t}, y)
        enum = ShapeEnumerator(Grammar(variables=("t",)))
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
