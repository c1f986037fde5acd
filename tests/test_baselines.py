import numpy as np
import pytest

from hyperpolate import (
    ConfigurationError,
    Dataset,
    DimensionMismatchError,
    Grammar,
    Hypothesis,
    InvalidInputError,
    UnsupportedGeometryError,
    build_prior,
    classify,
    fit_additive,
    fit_linear,
    fit_method,
    fit_nn_ambient,
    fit_slice_interpolant,
    generate_case,
    hull_chart,
    hyperpolation_distance,
    parse,
    predict,
    predict_candidate,
    search_hyperpolation,
    update,
)
from hyperpolate.baselines import METHOD_NAMES, AdditiveModel


def ripple_slice_dataset():
    x = np.arange(-40.0, 41.0)
    locs = np.column_stack([x, np.full_like(x, -20.0)])
    return Dataset(locs, np.cos(np.sqrt(x**2 + 400.0)))


class TestChart:
    def test_round_trip_identity(self):
        data = ripple_slice_dataset()
        chart = hull_chart(data)
        coords = chart.to_intrinsic(data.locations)
        back = chart.from_intrinsic(coords)
        assert np.allclose(back, data.locations, atol=1e-10)

    def test_axis_aligned_detection(self):
        chart = hull_chart(ripple_slice_dataset())
        para, trans, offset = chart.axis_aligned_line()
        assert (para, trans) == (0, 1)
        assert offset == pytest.approx(-20.0)

    def test_diagonal_not_axis_aligned(self):
        t = np.arange(-3.0, 4.0)
        data = Dataset(np.column_stack([t, t]), t**2)
        assert hull_chart(data).axis_aligned_line() is None

    # Base and intrinsic coordinates of sample rows 0, 1 and -1 and of the
    # off-hull point (3, 7), as the chart re-based at the projection of the
    # origin has always given them.
    PINNED = {
        "ripple": ([0.0, -20.0], [-40.0, -39.0, 40.0, 3.0]),
        "cone": ([0.0, 1.0], [-20.0, -19.0, 20.0, 3.0]),
        "diagonal_xy": (
            [0.0, 0.0],
            [-28.284271247461902, -26.870057685088806, 28.284271247461902,
             7.0710678118654755],
        ),
        "shifted_diagonal": (
            [-1.0, 1.0000000000000004],
            [1.4142135623730947, 2.82842712474619, 7.0710678118654755,
             7.0710678118654755],
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_rebased_chart_pinned(self, name):
        if name == "shifted_diagonal":
            # the centroid (2, 4) is not the base
            t = np.arange(0.0, 5.0)
            data = Dataset(np.column_stack([t, t + 2.0]), t)
        else:
            data, _ = generate_case(name)
        chart = hull_chart(data)
        base, coords = self.PINNED[name]
        points = np.vstack([data.locations[[0, 1, -1]], [[3.0, 7.0]]])
        assert np.array_equal(chart.base, base)
        assert np.array_equal(chart.to_intrinsic(points)[:, 0], coords)


class TestNearestNeighbourAmbient:
    def test_nearer_sample_wins(self):
        data = Dataset([[0.0, 0.0], [2.0, 0.0]], [1.0, 5.0])
        model = fit_nn_ambient(data)
        assert model.predict([0.4, 3.0]) == 1.0

    def test_sample_location_returns_stored_value(self):
        data = Dataset([[0.0, 0.0], [2.0, 0.0]], [1.0, 5.0])
        model = fit_nn_ambient(data)
        for loc, val in zip(data.locations, data.values):
            assert model.predict(loc) == val

    def test_tie_breaks_to_lowest_index(self):
        data = Dataset([[0.0, 0.0], [2.0, 0.0]], [1.0, 5.0])
        model = fit_nn_ambient(data)
        assert model.predict([1.0, 0.0]) == 1.0


class TestNearestNeighbourProjected:
    def test_on_line_matches_inner(self):
        x = np.arange(0.0, 5.0)
        data = Dataset(np.column_stack([x, np.zeros_like(x)]), x**2)
        model = fit_slice_interpolant(data)
        inner = fit_slice_interpolant(data)
        chart = model.chart
        for t in np.linspace(-1.0, 5.5, 23):
            p = chart.from_intrinsic([[t]])[0]
            assert model.predict(p) == pytest.approx(float(inner(t)), abs=1e-12)

    def test_ripple_query_at_origin(self):
        model = fit_slice_interpolant(ripple_slice_dataset())
        # projecting (0, 0) lands on the slice at x = 0
        assert model.predict([0.0, 0.0]) == pytest.approx(np.cos(20.0), abs=1e-12)
        assert model.predict([0.0, 0.0]) == pytest.approx(0.40808206, abs=1e-7)


class TestLinear:
    def test_two_point_line(self):
        data = Dataset([[0.0], [1.0]], [0.0, 2.0])
        model = fit_linear(data)
        assert model.predict([0.5]) == pytest.approx(1.0)
        assert model.predict([3.0]) == pytest.approx(6.0)

    def test_noisy_slope_within_tolerance(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 10.0, 100)
        values = t + 0.01 * rng.standard_normal(100)
        data = Dataset(t[:, None], values, noise_sigma=0.01)
        model = fit_linear(data)
        slope = model.predict([1.0]) - model.predict([0.0])
        assert abs(slope - 1.0) < 0.05

    def test_single_point_constant_model(self):
        # dim-0 hull needs one sample: the affine fit degenerates to a constant
        model = fit_linear(Dataset([[1.0, 1.0]], [2.0]))
        assert model.predict([9.0, -4.0]) == pytest.approx(2.0)


class TestExtrusion:
    def test_constant_along_normal(self):
        model = fit_slice_interpolant(ripple_slice_dataset())
        vals = [model.predict([5.0, y]) for y in (-35.0, -20.0, 0.0, 17.0)]
        assert np.allclose(vals, vals[0], atol=1e-12)

    def test_on_slice_equals_inner(self):
        data = ripple_slice_dataset()
        model = fit_slice_interpolant(data)
        for loc, val in zip(data.locations, data.values):
            assert model.predict(loc) == pytest.approx(val, abs=1e-12)

    def test_merged_knots_predict_their_mean(self):
        # two samples 1e-13 apart merge into one knot with the mean value
        data = Dataset([[0.0, 0.0], [1e-13, 0.0]], [1.0, 3.0])
        model = fit_slice_interpolant(data)
        assert fit_slice_interpolant(data).knots.size == 1
        xs = np.linspace(-50.0, 50.0, 21)
        grid = np.array([[x, y] for x in xs for y in xs])
        assert np.all(model.predict(grid) == 2.0)
        assert model.predict([7.0, -3.0]) == 2.0

    def test_orthogonal_constancy_random(self):
        data = ripple_slice_dataset()
        model = fit_slice_interpolant(data)
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.uniform(-40, 40, size=2)
            offset = rng.uniform(-30, 30)
            q = p + offset * np.array([0.0, 1.0])  # slice normal
            assert model.predict(q) == pytest.approx(model.predict(p), abs=1e-12)


class TestAdditive:
    def test_identity_slice(self):
        x = np.arange(-5.0, 6.0)
        data = Dataset(np.column_stack([x, np.zeros_like(x)]), x)
        model = fit_additive(data)
        assert model.predict([2.0, 3.0]) == pytest.approx(5.0)

    def test_restriction_reproduces_slice(self):
        x = np.arange(-5.0, 6.0)
        data = Dataset(np.column_stack([x, np.full_like(x, 1.0)]), x**2)
        model = fit_additive(data)
        inner = fit_slice_interpolant(data)
        for t in np.linspace(-5.0, 5.0, 37):
            assert model.predict([t, 1.0]) == pytest.approx(
                float(inner(t)), abs=1e-12
            )

    def test_square_slice_arithmetic(self):
        # f(t) = t^2 fitted on y0 = 1: prediction 4 + 9 - 1
        model = AdditiveModel(lambda t: np.asarray(t, dtype=float) ** 2, 1.0)
        assert model.predict([2.0, 3.0]) == pytest.approx(12.0)

    def test_non_axis_aligned_rejected(self):
        t = np.arange(-3.0, 4.0)
        data = Dataset(np.column_stack([t, t]), t**2)
        with pytest.raises(UnsupportedGeometryError):
            fit_additive(data)


class TestRegistry:
    def test_all_names_fit(self):
        data = ripple_slice_dataset()
        for name in ("nn_ambient", "nn_projected", "linear", "extrusion", "additive"):
            model = fit_method(name, data)
            assert np.isfinite(model.predict([1.0, -3.0]))

    def test_nn_projected_is_extrusion(self):
        data, case = generate_case("cone")
        grid = case.query_grid()
        assert grid.shape == (41 * 41, 2)
        assert np.array_equal(
            fit_method("nn_projected", data).predict(grid),
            fit_method("extrusion", data).predict(grid),
        )

    @pytest.mark.parametrize("name", ["nn_projected", "extrusion"])
    def test_slice_methods_need_a_1d_hull(self, name):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(6, 2)), rng.normal(size=6))
        with pytest.raises(UnsupportedGeometryError, match="needs a 1D hull, got dim 2"):
            fit_method(name, data)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            fit_method("kriging", ripple_slice_dataset())


# every public entry that takes query points, besides the baselines' predict
POINT_ENTRIES = (
    "classify",
    "hyperpolation_distance",
    "bayesian.predict",
    "Hypothesis",
    "predict_candidate",
)


@pytest.fixture(scope="module")
def point_entries():
    """name -> (one-argument entry, whether it knows the query width: 2)."""
    x = np.arange(-5.0, 6.0)
    data = Dataset(np.column_stack([x, np.ones_like(x)]), x**2)
    entries = {name: (fit_method(name, data).predict, True) for name in METHOD_NAMES}
    post = update(build_prior([parse("pow2(x)")]), data)
    candidate = search_hyperpolation(data, grammar=Grammar(max_nodes=3))[0]
    entries.update(
        {
            "classify": (lambda q: classify(q, data), True),
            "hyperpolation_distance": (lambda q: hyperpolation_distance(q, data), True),
            "bayesian.predict": (lambda q: predict(post, q), False),
            "Hypothesis": (Hypothesis(parse("pow2(x)"), 1.0), False),
            # an axis-frame candidate binds x and y
            "predict_candidate": (lambda q: predict_candidate(candidate, q), True),
        }
    )
    return entries


class TestPredictValidation:
    @pytest.mark.parametrize("name", METHOD_NAMES + POINT_ENTRIES)
    def test_bad_queries_rejected(self, name, point_entries):
        entry, knows_dim = point_entries[name]
        if knows_dim:
            for query in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]]):
                with pytest.raises(DimensionMismatchError, match="dimension .*, expected 2"):
                    entry(query)
        for shape in ((), (2, 2, 2)):
            with pytest.raises(InvalidInputError, match="one point or an"):
                entry(np.ones(shape))
        for query in ([np.nan, 0.0], [np.inf, 1.0], [[0.0, 1.0], [1.0, np.nan]]):
            with pytest.raises(InvalidInputError, match="non-finite"):
                entry(query)
        for query in ([], [[]]):
            with pytest.raises(InvalidInputError):
                entry(query)
