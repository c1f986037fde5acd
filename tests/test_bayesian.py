import hashlib
import json

import numpy as np
import pytest

from hyperpolate import (
    Dataset,
    DimensionMismatchError,
    Grammar,
    Hypothesis,
    HypothesisFamily,
    InvalidInputError,
    NoPredictionError,
    Posterior,
    build_prior,
    family_from_candidates,
    parse,
    predict,
    search_hyperpolation,
    top_tie_set,
    update,
)
from hyperpolate.bayesian import _FamilyProgram


class TestBuildPrior:
    def test_equal_scores_split_evenly(self):
        family = build_prior([Hypothesis(parse("x"), 3.0), Hypothesis(parse("y"), 3.0)])
        assert np.allclose(family.weights, [0.5, 0.5])

    def test_score_gap_of_one_doubles_weight(self):
        family = build_prior(
            [Hypothesis(parse("x"), 1.0), Hypothesis(parse("pow2(x)"), 2.0)]
        )
        assert family.weights[0] == pytest.approx(2.0 * family.weights[1])

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidInputError):
            build_prior([])

    def test_normalization(self):
        family = build_prior([parse("x"), parse("pow2(x)"), parse("abs(x)")])
        assert abs(family.weights.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "weights",
        [[1.0], [1.0, 0.0, 0.0], [1.5, -0.5], [np.nan, 1.0], [[0.5, 0.5]]],
        ids=["too_few", "too_many", "negative", "nan", "not_flat"],
    )
    def test_one_finite_nonnegative_weight_per_hypothesis(self, weights):
        hyps = (Hypothesis(parse("x"), 1.0), Hypothesis(parse("pow2(x)"), 2.0))
        with pytest.raises(InvalidInputError, match="one finite, nonnegative number"):
            HypothesisFamily(hyps, weights)

    def test_valid_weights_accepted(self):
        hyps = (Hypothesis(parse("x"), 1.0), Hypothesis(parse("pow2(x)"), 2.0))
        assert HypothesisFamily(hyps, [1.0, 0.0]).weights.tolist() == [1.0, 0.0]

    def test_candidates_prior_equals_expression_prior(self, cone_search):
        candidates, _ = cone_search
        scores = {_ser(c.expr): c.score for c in candidates}
        assert len(set(scores.values())) > 1
        family = family_from_candidates(candidates)
        prior = build_prior([Hypothesis(c.expr, scores[_ser(c.expr)]) for c in candidates])
        assert np.array_equal(family.weights, prior.weights)
        assert [h.candidate for h in family.hypotheses] == candidates


def _ser(e):
    from hyperpolate import serialize

    return serialize(e)


class TestUpdate:
    def test_strict_filter_keeps_exact_fitters(self):
        family = build_prior([parse("x"), parse("pow2(x)")])
        data = Dataset([[1.0], [2.0]], [1.0, 4.0])
        post = update(family, data)
        assert len(post) == 2
        assert post.weights[_index(post, "pow2(x)")] == pytest.approx(1.0)
        assert post.weights[_index(post, "x")] == 0.0

    def test_flexible_likelihood_prefers_smaller_residual(self):
        family = build_prior([Hypothesis(parse("x"), 1.0), Hypothesis(parse("mul(x,2)"), 1.0)])
        x = np.linspace(0, 3, 12)
        data = Dataset(x[:, None], 2.0 * x + 0.01, noise_sigma=0.5)
        post = update(family, data)
        assert post.weights[_index(post, "mul(x,2)")] > post.weights[_index(post, "x")]

    def test_domain_error_zeroes_weight(self):
        family = build_prior([parse("sqrt(x)"), parse("abs(x)")])
        data = Dataset([[-4.0], [1.0]], [4.0, 1.0])
        post = update(family, data)
        assert post.weights[_index(post, "sqrt(x)")] == 0.0

    def test_all_zero_posterior_is_explicit_empty(self):
        family = build_prior([parse("x")])
        data = Dataset([[1.0], [2.0]], [5.0, 9.0])
        post = update(family, data)
        assert post.is_empty
        with pytest.raises(NoPredictionError):
            predict(post, np.array([1.0]))

    @pytest.mark.filterwarnings("error")
    def test_zero_prior_weight_is_dropped_without_warning(self):
        # 2^-score underflows to a zero weight past about 1,075 points
        family = build_prior([Hypothesis(parse("x"), 1.0), Hypothesis(parse("pow2(x)"), 1200.0)])
        assert family.weights.tolist() == [1.0, 0.0]
        post = update(family, Dataset([[1.0], [2.0]], [1.0, 4.0], noise_sigma=1.0))
        assert post.weights.tolist() == [1.0, 0.0]

    def test_hypothesis_variable_missing_from_data(self):
        family = build_prior([parse("y")])
        data = Dataset([[1.0], [2.0]], [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            update(family, data)

    def test_candidate_dimension_mismatch(self):
        # candidates of a 2-D search updated on 1-D data
        t = np.arange(-3.0, 4.0)
        plane = Dataset(np.column_stack([t, np.ones_like(t)]), 2.0 * t)
        cands = search_hyperpolation(plane, grammar=Grammar(max_nodes=3))
        family = family_from_candidates(cands)
        data = Dataset([[1.0], [2.0]], [2.0, 4.0])
        with pytest.raises(InvalidInputError):
            update(family, data)

    def test_records_are_strict_json(self):
        family = build_prior([parse("sqrt(x)"), parse("abs(x)")])
        data = Dataset([[-4.0], [1.0]], [4.0, 1.0])
        records = update(family, data).to_records(data)

        def reject(token):
            raise ValueError(f"non-JSON number {token}")

        parsed = json.loads(json.dumps(records), parse_constant=reject)
        by_expr = {r["expr"]: r["residual"] for r in parsed}
        assert by_expr == {"sqrt(x)": None, "abs(x)": 0.0}

    def test_mirror_pair_equal_weights(self, ripple_search, ripple_1d_dataset):
        candidates, _ = ripple_search
        pair = top_tie_set(candidates)
        family = family_from_candidates(pair)
        post = update(family, ripple_1d_dataset)
        assert np.allclose(post.weights, [0.5, 0.5], atol=1e-12)


def _index(post, key):
    from hyperpolate import serialize

    for i, h in enumerate(post.hypotheses):
        if serialize(h.expr) == key:
            return i
    raise KeyError(key)


class TestPredict:
    def test_point_mass_single_hypothesis(self):
        family = build_prior([parse("pow2(x)")])
        data = Dataset([[1.0], [2.0]], [1.0, 4.0])
        post = update(family, data)
        dist = predict(post, np.array([3.0]))
        assert len(dist) == 1
        assert dist.mean == pytest.approx(9.0)
        assert dist.map_value == pytest.approx(9.0)

    @pytest.mark.parametrize("query", [3.0, [[1.0], [2.0]], []])
    def test_query_must_be_one_point(self, query):
        family = build_prior([parse("pow2(x)")])
        post = update(family, Dataset([[1.0], [2.0]], [1.0, 4.0]))
        if np.ndim(query) == 2:
            # a nested list is a batch of points, as for an (n, dim) array
            # and as classify reads it
            got = predict(post, query)
            want = predict(post, np.array(query))
            assert len(got) == 2
            assert all(_same_distribution(a, b) for a, b in zip(got, want))
            return
        with pytest.raises(InvalidInputError):
            predict(post, query)

    @pytest.mark.parametrize("query", [[np.nan, 0.0], [[1.0, 0.0], [np.inf, 0.0]]])
    def test_non_finite_query_rejected(self, cone_search, cone_1d_dataset, query):
        candidates, _ = cone_search
        post = update(family_from_candidates(top_tie_set(candidates)), cone_1d_dataset)
        with pytest.raises(InvalidInputError, match="non-finite coordinates"):
            predict(post, query)

    def test_new_dim_query_with_extra_coordinate_rejected(self, cone_search, cone_1d_dataset):
        candidates, _ = cone_search
        post = update(family_from_candidates(top_tie_set(candidates)), cone_1d_dataset)
        with pytest.raises(DimensionMismatchError):
            predict(post, [3.0, 0.0, 5.0])
        assert predict(post, [3.0, 0.0]).mean == pytest.approx(np.sqrt(10.0))

    def test_mirror_pair_symmetric_query_collapses(self, ripple_search, ripple_1d_dataset):
        candidates, _ = ripple_search
        family = family_from_candidates(top_tie_set(candidates))
        post = update(family, ripple_1d_dataset)
        dist = predict(post, np.array([0.0, 0.0]))
        assert len(dist) == 1
        assert dist.mean == pytest.approx(np.cos(20.0), abs=1e-12)
        assert dist.mean == pytest.approx(0.40808206, abs=1e-7)

    def test_mirror_pair_asymmetric_query_two_atoms(self, ripple_search, ripple_1d_dataset):
        candidates, _ = ripple_search
        family = family_from_candidates(top_tie_set(candidates))
        post = update(family, ripple_1d_dataset)
        dist = predict(post, np.array([0.0, 10.0]))
        assert len(dist) == 2
        assert np.allclose(dist.weights, [0.5, 0.5], atol=1e-12)
        assert np.allclose(
            sorted(dist.values), sorted([np.cos(10.0), np.cos(30.0)]), atol=1e-12
        )

    def test_strict_prediction_at_samples(self):
        family = build_prior([parse("pow2(x)"), parse("mul(x,x)")])
        data = Dataset([[1.0], [2.0], [-3.0]], [1.0, 4.0, 9.0])
        post = update(family, data)
        for loc, val in zip(data.locations, data.values):
            dist = predict(post, loc)
            assert dist.map_value == pytest.approx(val, abs=1e-12)
            assert dist.mean == pytest.approx(val, abs=1e-12)

    def test_normalization_chain(self):
        family = build_prior([parse("x"), parse("pow2(x)"), parse("abs(x)")])
        data = Dataset([[1.0], [2.0]], [1.0, 4.0])
        post = update(family, data)
        assert abs(post.weights.sum() - 1.0) <= 1e-12
        dist = predict(post, np.array([5.0]))
        assert abs(dist.weights.sum() - 1.0) <= 1e-12

    def test_posterior_export_records(self):
        family = build_prior([parse("x"), parse("pow2(x)")])
        data = Dataset([[1.0], [2.0]], [1.0, 4.0])
        post = update(family, data)
        records = post.to_records(data)
        assert [set(r) for r in records] == [{"expr", "weight", "residual"}] * 2
        import json

        assert json.loads(json.dumps(records)) == records


@pytest.fixture(scope="module")
def noisy_cone_posterior():
    """The seed-1 noisy cone (sigma 0.01) and the posterior over its top 64
    candidates at budget 5000, with the 41 x 41 lattice on [-20, 20]^2."""
    x = np.arange(-20.0, 21.0)
    values = np.sqrt(x * x + 1.0) + 0.01 * np.random.default_rng(1).standard_normal(x.size)
    data = Dataset(x[:, None], values, noise_sigma=0.01)
    cands = search_hyperpolation(data, budget=5000)
    post = update(family_from_candidates(cands[:64]), data)
    lattice = np.array([(a, b) for a in x for b in x])
    return post, lattice


def _same_distribution(a, b):
    return (
        np.array_equal(a.values, b.values, equal_nan=True)
        and np.array_equal(a.weights, b.weights, equal_nan=True)
        and np.array_equal(a.mean, b.mean, equal_nan=True)
        and np.array_equal(a.map_value, b.map_value, equal_nan=True)
    )


class TestCompiledHypotheses:
    @pytest.mark.parametrize("first", [0, 1])
    def test_signed_zero_constants_keep_their_own_sign(self, first):
        # raw tuples: ("const", 0.0) and ("const", -0.0) are equal and hash
        # equal, so a cache keyed by the expression would mix them up
        hyps = [Hypothesis(("mul", ("var", "x"), ("const", z)), 1.0) for z in (0.0, -0.0)]
        assert hyps[0] == hyps[1] and hash(hyps[0]) == hash(hyps[1])
        x = np.array([[1.0], [-2.0]])
        got = {}
        for i in (first, 1 - first):
            got[i] = hyps[i](x)
        assert np.signbit(got[0]).tolist() == [False, True]
        assert np.signbit(got[1]).tolist() == [True, False]

    def test_compiled_once_per_object(self):
        h = build_prior([parse("sqrt(x)")]).hypotheses[0]
        assert h.compiled is h.compiled
        t = np.arange(-3.0, 4.0)
        plane = Dataset(np.column_stack([t, np.ones_like(t)]), 2.0 * t)
        c = search_hyperpolation(plane, grammar=Grammar(max_nodes=3))[0]
        assert family_from_candidates([c]).hypotheses[0].compiled is c.compiled

    def test_per_point_predict_pinned(self, noisy_cone_posterior):
        # values computed with the recursive evaluator, before the compiled one
        post, lattice = noisy_cone_posterior
        dists = [predict(post, p) for p in lattice]
        digest = hashlib.sha256()
        for d in dists:
            for part in (d.values, d.weights, d.mean, d.map_value):
                digest.update(np.asarray(part, dtype=float).tobytes())
        assert digest.hexdigest() == (
            "03a2cac3d3a211a3ba123ba9e816baa9c3db5958d2c800ca580ae87e8261bda0"
        )
        assert sum(len(d) for d in dists) == 79652
        origin, above = dists[840], dists[841]  # (0, 0) and (0, 1)
        assert (len(origin), origin.mean, origin.map_value) == (
            4, 0.9977719800947499, 0.9977719800947499
        )
        assert (len(above), above.mean, above.map_value) == (
            37, 1.117109331672177, 0.0022280199052501226
        )


class TestBatchPredict:
    def test_batch_equals_per_point(self, noisy_cone_posterior):
        post, lattice = noisy_cone_posterior
        batch = predict(post, lattice)
        assert isinstance(batch, list) and len(batch) == len(lattice)
        for q, got in zip(lattice, batch):
            assert _same_distribution(got, predict(post, q)), q

    def test_constant_and_domain_error_hypotheses(self):
        family = build_prior([parse("sqrt(x)"), parse("3"), parse("x")])
        post = update(family, Dataset([[1.0], [4.0]], [1.0, 2.0], noise_sigma=1.0))
        queries = np.array([[-4.0], [0.0], [16.0]])
        batch = predict(post, queries)
        assert [len(d) for d in batch] == [2, 2, 3]  # sqrt(-4) left out, sqrt(0) = 0
        for q, got in zip(queries, batch):
            assert _same_distribution(got, predict(post, q))

    def test_empty_batch(self):
        post = update(build_prior([parse("x")]), Dataset([[1.0]], [1.0]))
        assert predict(post, np.zeros((0, 1))) == []

    def test_batch_without_coordinates_rejected(self):
        post = update(build_prior([parse("x")]), Dataset([[1.0]], [1.0]))
        with pytest.raises(InvalidInputError):
            predict(post, np.zeros((2, 0)))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_program_matches(hypotheses, points):
    """The family program's values equal each hypothesis's own, bit for bit,
    in one batch and one point at a time."""
    program = _FamilyProgram(hypotheses)
    points = np.asarray(points, dtype=float)
    want = np.array([h(points) for h in hypotheses]).reshape(len(hypotheses), len(points))
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(program.values(points)), _bits(want))
        for j, p in enumerate(points):
            got = program.values(p[None, :])[:, 0]
            assert np.array_equal(_bits(got), _bits(want[:, j])), p


_X20 = np.arange(-20.0, 21.0)
_LATTICE = np.array([(a, b) for a in _X20 for b in _X20])
_SMALL = np.array([(a, b) for a in _X20[::4] for b in _X20[::4]])


def _cone_axis():
    return Dataset(np.column_stack([_X20, np.ones_like(_X20)]), np.sqrt(_X20 * _X20 + 1.0))


def _diagonal():
    return Dataset(np.column_stack([_X20, _X20]), _X20 * _X20)


def _axis_candidates():
    """Axis-frame candidates: the line y = 1, with values 2x."""
    t = np.arange(-3.0, 4.0)
    plane = Dataset(np.column_stack([t, np.ones_like(t)]), 2.0 * t)
    return search_hyperpolation(plane, grammar=Grammar(max_nodes=3))


def _noisy_cone(seed):
    noise = np.random.default_rng(seed).standard_normal(_X20.size)
    values = np.sqrt(_X20 * _X20 + 1.0) + 0.01 * noise
    return Dataset(_X20[:, None], values, noise_sigma=0.01)


class TestFamilyProgram:
    def _check_family(self, candidates, points):
        family = family_from_candidates(candidates[:64])
        _assert_program_matches(family.hypotheses, points[::5])
        want = np.array([h(points) for h in family.hypotheses])
        with np.errstate(all="ignore"):
            got = _FamilyProgram(family.hypotheses).values(points)
        assert np.array_equal(_bits(got), _bits(want))

    def test_ripple_family(self, ripple_search):
        x40 = np.arange(-40.0, 41.0)
        ripple = np.array([(a, b) for a in x40[::4] for b in x40])
        self._check_family(ripple_search[0], ripple)

    def test_cone_family_one_and_two_coordinates(self, cone_search):
        self._check_family(cone_search[0], _LATTICE)
        self._check_family(cone_search[0], _X20[:, None])

    @pytest.mark.parametrize("make", [_cone_axis, _diagonal])
    def test_two_dimensional_families(self, make):
        self._check_family(search_hyperpolation(make()), _LATTICE)

    def test_noisy_seed_1_family(self, noisy_cone_posterior):
        post, lattice = noisy_cone_posterior
        _assert_program_matches(post.hypotheses, _SMALL)
        want = np.array([h(lattice) for h in post.hypotheses])
        with np.errstate(all="ignore"):
            got = _FamilyProgram(post.hypotheses).values(lattice)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("seed", [2, 3])
    def test_noisy_families(self, seed):
        self._check_family(search_hyperpolation(_noisy_cone(seed), budget=5000), _LATTICE)

    def test_signed_zeros_and_unsimplified_constants(self):
        x, one, zero, neg_zero = ("var", "x"), ("const", 1.0), ("const", 0.0), ("const", -0.0)
        folded_neg_zero = ("mul", ("const", -1.0), zero)
        exprs = [
            ("div", one, ("mul", x, zero)),
            ("div", one, ("mul", x, neg_zero)),
            ("div", one, ("mul", x, folded_neg_zero)),
            ("add", x, ("cos", ("const", 3.0))),
            ("mul", ("sqrt", ("const", 2.0)), ("sin", x)),
            ("div", ("exp", x), ("sub", ("const", 2.0), ("const", 2.0))),
            ("cos", ("const", 3.0)),
            neg_zero,
            zero,
            ("const", 3.0),
        ]
        hyps = [Hypothesis(e, 1.0) for e in exprs]
        _assert_program_matches(hyps, [[2.0], [-3.0], [0.0], [0.5]])

    def test_candidate_free_hypotheses_over_three_axes(self):
        exprs = ["x", "y", "z", "add(x,y)", "mul(z,y)", "sqrt(add(pow2(x),pow2(z)))", "cos(z)"]
        hyps = [Hypothesis(parse(e), 1.0) for e in exprs]
        pts = np.random.default_rng(0).uniform(-3.0, 3.0, size=(40, 3))
        _assert_program_matches(hyps, pts)

    def test_mixed_family(self, cone_search):
        cands = cone_search[0][:8]
        axis = _axis_candidates()[:8]
        assert cands and axis
        hyps = [Hypothesis(parse("pow2(x)"), 1.0)] + [
            Hypothesis(c.expr, c.score, c) for c in cands + axis
        ]
        _assert_program_matches(hyps, _SMALL)


class TestErrorParity:
    """The family program raises the error that the first hypothesis that
    cannot read the points raises itself."""

    def _raises_as_reference(self, hyps, pts, error):
        with pytest.raises(error) as ref:
            for h in hyps:
                h(pts)
        family = build_prior(list(hyps))
        with pytest.raises(error) as got:
            update(family, Dataset(pts, np.zeros(len(pts)), noise_sigma=1.0))
        assert str(got.value) == str(ref.value)
        post = Posterior(family.hypotheses, family.weights, 1.0)
        with pytest.raises(error) as got:
            predict(post, pts)
        assert str(got.value) == str(ref.value)
        return str(ref.value)

    def test_new_dim_candidates_reject_three_coordinates(self, cone_search):
        hyps = family_from_candidates(top_tie_set(cone_search[0])).hypotheses
        self._raises_as_reference(hyps, np.ones((3, 3)), DimensionMismatchError)

    def test_plain_y_hypothesis_rejects_one_coordinate(self):
        hyps = [Hypothesis(parse("x"), 1.0), Hypothesis(parse("add(x,y)"), 1.0)]
        message = self._raises_as_reference(hyps, np.ones((3, 1)), InvalidInputError)
        assert "'y'" in message

    @pytest.mark.parametrize("candidate_first", [True, False])
    def test_first_hypothesis_in_order_raises(self, candidate_first):
        axis = _axis_candidates()[0]
        hyps = [Hypothesis(axis.expr, axis.score, axis), Hypothesis(parse("z"), 1.0)]
        if not candidate_first:
            hyps.reverse()
        error = DimensionMismatchError if candidate_first else InvalidInputError
        self._raises_as_reference(hyps, np.ones((2, 1)), error)
