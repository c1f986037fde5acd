import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from hyperpolate import (
    AUTOPOLATION,
    EXTRAPOLATION,
    HYPERPOLATION,
    INTERPOLATION,
    Dataset,
    DimensionMismatchError,
    InvalidInputError,
    Point,
    Regime,
    Tolerances,
    affine_hull,
    classify,
    generate_case,
    hull_chart,
    hyperpolation_distance,
    in_convex_hull,
    project,
)
from hyperpolate.geometry import DEFAULT_SUBSPACE_TOL

from _oracles import convex_grid_verdict, convex_min_distance, reference_classify


def line_dataset():
    return Dataset([[0.0, 0.0], [1.0, 0.0]], [1.0, 3.0])


class TestTypes:
    def test_point_validation(self):
        with pytest.raises(InvalidInputError):
            Point((float("nan"), 1.0))
        assert Point((1, 2)).dim == 2

    def test_strict_duplicates_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset([[0.0], [0.0]], [1.0, 2.0], noise_sigma=0.0)
        # flexible mode permits repeated locations with differing values
        d = Dataset([[0.0], [0.0]], [1.0, 2.0], noise_sigma=0.1)
        assert len(d) == 2

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_sigma_rejected(self, sigma):
        with pytest.raises(InvalidInputError):
            Dataset([[0.0], [1.0]], [1.0, 2.0], noise_sigma=sigma)

    @pytest.mark.parametrize("field", ["point_tol", "hull_tol", "subspace_tol"])
    def test_nan_tolerance_rejected(self, field):
        with pytest.raises(InvalidInputError):
            Tolerances(**{field: float("nan")})

    def test_immutability(self):
        d = line_dataset()
        with pytest.raises(ValueError):
            d.locations[0, 0] = 5.0


class TestAffineHull:
    def test_collinear_points(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [0.0, 0.0, 0.0])
        sub = affine_hull(data, tol=1e-8)
        assert sub.dim == 1
        assert np.allclose(np.abs(sub.basis[0]), [1.0, 0.0])

    def test_single_point(self):
        data = Dataset([[3.0, 7.0]], [1.0])
        sub = affine_hull(data, tol=1e-8)
        assert sub.dim == 0
        assert np.allclose(sub.base, [3.0, 7.0])

    def test_affinely_independent(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.0])
        assert affine_hull(data, tol=1e-8).dim == 2

    def test_samples_on_hull(self):
        rng = np.random.default_rng(7)
        locs = rng.normal(size=(6, 4))
        locs[:, 3] = locs[:, 0] + 2 * locs[:, 1]  # rank 3
        data = Dataset(locs, np.zeros(6))
        sub = affine_hull(data, tol=1e-8)
        for loc in locs:
            _, resid = project(sub, loc)
            assert resid < 1e-8

    def test_bad_tol(self):
        with pytest.raises(InvalidInputError):
            affine_hull(line_dataset(), tol=0.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(InvalidInputError):
            affine_hull(line_dataset(), tol=float("nan"))

    def test_one_fit_per_dataset_and_tol(self, monkeypatch):
        svd = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        data = Dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [0.0, 1.0, 2.0])
        queries = np.array([[0.5, 0.5], [3.0, 3.0], [1.0, 0.0]])
        for q in queries:
            classify(q, data)
        classify(queries, data)
        hyperpolation_distance(queries[0], data)
        hyperpolation_distance(queries, data)
        hull_chart(data)
        assert affine_hull(data) is affine_hull(data, tol=1e-8)
        assert len(calls) == 1
        assert affine_hull(data, tol=1e-3) is not affine_hull(data)
        assert len(calls) == 2
        # a new dataset fits its own hull
        affine_hull(data.with_sample([3.0, 3.0], 3.0))
        assert len(calls) == 3


class TestProject:
    def test_axis_projection(self):
        sub = affine_hull(line_dataset())
        projected, resid = project(sub, [3.0, 4.0])
        assert np.allclose(projected, [3.0, 0.0])
        assert resid == pytest.approx(4.0)

    def test_idempotence(self):
        sub = affine_hull(line_dataset())
        projected, _ = project(sub, [3.0, 4.0])
        again, resid = project(sub, projected)
        assert np.allclose(again, projected)
        assert resid <= 1e-10

    def test_point_subspace(self):
        data = Dataset([[0.0, 0.0]], [0.0])
        sub = affine_hull(data)
        projected, resid = project(sub, [1.0, 1.0])
        assert np.allclose(projected, [0.0, 0.0])
        assert resid == pytest.approx(np.sqrt(2.0))


class TestConvexHull:
    def test_exact_combination(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0, 0, 0])
        inside, weights = in_convex_hull([0.5, 0.5], data)
        assert inside
        assert np.allclose(weights, [0.0, 0.5, 0.5], atol=1e-9)

    def test_outside_triangle(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0, 0, 0])
        inside, weights = in_convex_hull([2.0, 0.0], data)
        assert not inside
        assert weights is None

    def test_witness_reconstructs(self):
        rng = np.random.default_rng(3)
        locs = rng.normal(size=(6, 3))
        data = Dataset(locs, np.zeros(6))
        w = rng.dirichlet(np.ones(6))
        p = w @ locs
        inside, witness = in_convex_hull(p, data)
        assert inside
        assert witness.min() >= 0 and witness.max() <= 1
        assert abs(witness.sum() - 1.0) <= 1e-9
        assert np.linalg.norm(witness @ locs - p) <= 1e-9

    def test_against_grid_oracle_small(self):
        # three points keep the literal 1e-3 weight grid tractable
        rng = np.random.default_rng(11)
        locs = rng.normal(size=(3, 2)) * 2
        data = Dataset(locs, np.zeros(3))
        for query, expected_margin in [
            (locs.mean(axis=0), None),
            (locs[0] + 2.0 * (locs[0] - locs.mean(axis=0)), None),
        ]:
            verdict, _ = in_convex_hull(query, data)
            grid_verdict, grid_d = convex_grid_verdict(locs, query, step=1e-3)
            # grid distances are only step-accurate: compare clear cases
            if abs(grid_d - 1e-9) > 2e-3:
                assert verdict == (grid_d <= 2e-3)

    def test_against_pgd_oracle_cloud(self):
        rng = np.random.default_rng(5)
        locs = rng.normal(size=(5, 3))
        data = Dataset(locs, np.zeros(5))
        w = np.array([0.3, 0.3, 0.4, 0.0, 0.0])
        p = w @ locs
        verdict, _ = in_convex_hull(p, data)
        upper, _, _ = convex_min_distance(locs, p)
        assert verdict and upper <= 1e-9
        outside = locs[0] + 3.0 * (locs[0] - locs.mean(axis=0))
        verdict, _ = in_convex_hull(outside, data)
        _, lower, _ = convex_min_distance(locs, outside)
        assert (not verdict) and lower > 1e-6


class TestClassify:
    def test_figure_one_layout(self):
        data = line_dataset()
        assert classify([0.5, 0.0], data).tag == INTERPOLATION
        assert classify([2.0, 0.0], data).tag == EXTRAPOLATION
        regime = classify([0.5, 1.0], data)
        assert regime.tag == HYPERPOLATION
        assert regime.residual == pytest.approx(1.0)
        assert classify([1.0, 0.0], data).tag == AUTOPOLATION

    def test_partition_is_exhaustive(self):
        rng = np.random.default_rng(17)
        data = Dataset(rng.normal(size=(5, 3)), rng.normal(size=5))
        for _ in range(25):
            tag = classify(rng.normal(size=3) * 3, data).tag
            assert tag in (AUTOPOLATION, INTERPOLATION, EXTRAPOLATION, HYPERPOLATION)

    def test_degenerate_dataset(self):
        data = Dataset([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])
        assert classify([1.0, 1.0], data).tag == AUTOPOLATION
        assert classify([1.0, 2.0], data).tag == HYPERPOLATION
        assert classify([5.0, 5.0], data).tag == HYPERPOLATION

    def test_boundary_is_interpolation(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0, 0, 0])
        assert classify([0.5, 0.5], data).tag == INTERPOLATION  # on the edge

    def test_agreement_with_lp_free_oracle(self):
        from _oracles import oracle_regime

        rng = np.random.default_rng(23)
        tols = Tolerances()
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(0, min(3, n) + 1))
            m = int(rng.integers(3, 9))
            base = rng.uniform(-3, 3, size=n)
            basis = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :d].T
            coeffs = rng.uniform(-2, 2, size=(m, d))
            locs = base + coeffs @ basis if d else np.tile(base, (m, 1))
            data = Dataset(locs, np.zeros(m))
            q = rng.normal(size=n) * 2
            want = oracle_regime(locs, q)
            if want is None:
                continue
            checked += 1
            assert classify(q, data, tols).tag == want
        assert checked >= 50


def diagonal_lattice():
    """Samples t*(1, 1), t = -20..20, and a 2.5-step lattice over [-30, 30]^2."""
    t = np.arange(-20.0, 21.0)
    axis = np.arange(-30.0, 31.25, 2.5)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    queries = np.column_stack([gx.ravel(), gy.ravel()])
    return Dataset(np.column_stack([t, t]), t * t), queries


class TestBatchClassify:
    @staticmethod
    def assert_same(got, want):
        assert [r.tag for r in got] == [r.tag for r in want]
        for a, b in zip(got, want):
            for field in ("weights", "residual"):
                x, y = getattr(a, field), getattr(b, field)
                assert (x is None) == (y is None)
                assert x is None or np.array_equal(x, y)

    def batch_equals_points(self, queries, data):
        batch = classify(queries, data)
        assert isinstance(batch, list)
        self.assert_same(batch, [classify(q, data) for q in queries])
        dists = hyperpolation_distance(queries, data)
        assert np.array_equal(dists, [hyperpolation_distance(q, data) for q in queries])
        return batch

    def test_cone_grid(self):
        data, case = generate_case("cone")
        tags = [r.tag for r in self.batch_equals_points(case.query_grid(), data)]
        assert tags.count(AUTOPOLATION) == 41 and tags.count(HYPERPOLATION) == 1640

    def test_slice_lattice(self):
        data, queries = diagonal_lattice()
        tags = {r.tag for r in self.batch_equals_points(queries, data)}
        assert tags == {AUTOPOLATION, INTERPOLATION, EXTRAPOLATION, HYPERPOLATION}

    def test_cloud_3d(self):
        rng = np.random.default_rng(41)
        samples = rng.uniform(-1.0, 1.0, size=(40, 3))
        queries = np.vstack([rng.uniform(-1.3, 1.3, size=(50, 3)), samples[:10]])
        tags = {r.tag for r in self.batch_equals_points(queries, Dataset(samples, np.zeros(40)))}
        assert tags == {AUTOPOLATION, INTERPOLATION, EXTRAPOLATION}

    def test_empty_batch(self):
        data = line_dataset()
        assert classify(np.empty((0, 2)), data) == []
        assert hyperpolation_distance(np.empty((0, 2)), data).shape == (0,)

    def test_single_point_forms(self):
        data = line_dataset()
        (want,) = classify(np.array([[0.5, 0.0]]), data)
        for p in (Point((0.5, 0.0)), (0.5, 0.0), [0.5, 0.0], np.array([0.5, 0.0])):
            got = classify(p, data)
            assert isinstance(got, Regime)
            self.assert_same([got], [want])
            assert isinstance(hyperpolation_distance(p, data), float)
        with pytest.raises(DimensionMismatchError):
            classify(np.zeros((2, 3)), data)

    def test_one_dimensional_ambient(self):
        data = Dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 4.0])
        queries = np.array([[1.0], [0.5], [3.0]])
        tags = [r.tag for r in self.batch_equals_points(queries, data)]
        assert tags == [AUTOPOLATION, INTERPOLATION, EXTRAPOLATION]

    def test_jittered_line_verdicts(self, jittered_line):
        # pinned from the LP-first classifier that ran the LP on every query
        queries = np.array(
            [(0, 5e-6), (0.25, 2.5e-6), (0.5, 1e-6), (3, 2e-9), (2000, 0), (0.25, 1)]
        )
        tags = [r.tag for r in self.batch_equals_points(queries, jittered_line)]
        assert tags == [
            AUTOPOLATION,
            INTERPOLATION,
            INTERPOLATION,
            INTERPOLATION,
            EXTRAPOLATION,
            HYPERPOLATION,
        ]

    def test_lp_runs_only_for_non_samples_inside_the_segment(self, monkeypatch):
        import hyperpolate.geometry as geometry

        calls = []
        real = geometry.in_convex_hull

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "in_convex_hull", counting)
        data, queries = diagonal_lattice()
        classify(queries, data)
        # only these can be interpolation: the other on-line non-samples are
        # past the ends at +-20, which the interval table certifies
        inside = [-17.5, -12.5, -7.5, -2.5, 2.5, 7.5, 12.5, 17.5]
        assert np.array_equal(np.array(calls), np.column_stack([inside, inside]))


def random_hull_instance(rng):
    """Samples on a random d-dim affine hull in n dims at a random scale,
    with jitter below the fit's cut-off half the time, and queries at convex
    mixtures, within 1e-10 to 1e-6 of a facet on either side, far outside,
    off the hull and at or near samples."""
    n = int(rng.integers(1, 6))
    d = int(rng.integers(0, min(4, n) + 1))
    m = int(rng.integers(d + 2, d + 10))
    scale = 10.0 ** rng.uniform(-3, 3)
    base = rng.uniform(-3, 3, size=n) * scale
    frame = np.linalg.qr(rng.normal(size=(n, n)))[0].T
    basis, normal_space = frame[:d], frame[d:]
    coeffs = rng.uniform(-2, 2, size=(m, d)) * scale
    locs = base + coeffs @ basis
    if d and rng.random() < 0.5:
        locs = locs + rng.normal(size=(m, n)) * scale * 1e-11

    def embed(c):
        return base + c @ basis

    queries = [locs[0], locs[1] + scale * 1e-10]
    for _ in range(2):
        w = rng.dirichlet(np.ones(m)) * (rng.random(m) < 0.5)
        w = w / w.sum() if w.sum() > 0 else np.eye(m)[0]
        queries.append(w @ locs)
    if d == 1:
        facets = [(np.array([1.0]), coeffs.max()), (np.array([-1.0]), -coeffs.min())]
        on_facet = [np.array([coeffs.max()]), np.array([coeffs.min()])]
    elif d >= 2:
        hull = ConvexHull(coeffs)
        facets = [(eq[:-1], -eq[-1]) for eq in hull.equations]
        on_facet = [coeffs[simplex].mean(axis=0) for simplex in hull.simplices]
    for _ in range(4 if d else 0):
        j = int(rng.integers(len(facets)))
        normal = facets[j][0]
        t = 10.0 ** rng.uniform(-10, -6) * rng.choice([-1.0, 1.0])
        queries.append(embed(on_facet[j] + t * normal))
    if d:
        j = int(rng.integers(len(facets)))
        queries.append(embed(on_facet[j] + scale * rng.uniform(0.5, 3) * facets[j][0]))
    mixture = rng.dirichlet(np.ones(m)) @ locs
    for size in (10.0 ** rng.uniform(-10, -6), scale * rng.uniform(0.1, 3)):
        if n > d:
            queries.append(mixture + size * rng.normal(size=n - d) @ normal_space)
    queries.append(rng.normal(size=n) * 3 * scale + base)
    return locs, np.array(queries)


def regime_bytes(regimes):
    return [
        (r.tag, None if r.weights is None else r.weights.tobytes(), repr(r.residual))
        for r in regimes
    ]


def reference_bytes(locs, queries, tols=Tolerances()):
    return [
        (tag, None if w is None else w.tobytes(), repr(res))
        for tag, w, res in reference_classify(
            locs, queries, tols.point_tol, tols.hull_tol, tols.subspace_tol
        )
    ]


class CountedLinprog:
    def __init__(self, monkeypatch):
        import hyperpolate.geometry as geometry

        self.calls = 0
        real = geometry.linprog

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "linprog", counted)


class TestFacetCertificate:
    """The LP is skipped only where it would fail: verdicts, witness weights
    and residuals equal, byte for byte, those of the classifier that runs it
    for every non-sample query under the residual rule alone."""

    def test_matches_lp_reference(self, monkeypatch):
        rng = np.random.default_rng(2026)
        lp = CountedLinprog(monkeypatch)
        seen, queries_run = set(), 0
        for _ in range(48):
            locs, queries = random_hull_instance(rng)
            want = reference_bytes(locs, queries)
            values = np.zeros(len(locs))
            assert regime_bytes(classify(queries, Dataset(locs, values))) == want
            data = Dataset(locs, values)
            assert regime_bytes([classify(q, data) for q in queries]) == want
            seen.update(tag for tag, _, _ in want)
            queries_run += 2 * len(queries)
        assert seen == {AUTOPOLATION, INTERPOLATION, EXTRAPOLATION, HYPERPOLATION}
        assert lp.calls < queries_run // 2

    def test_jittered_line_matches_reference(self, jittered_line):
        queries = np.array(
            [(0, 5e-6), (0.25, 2.5e-6), (0.5, 1e-6), (3, 2e-9), (2000, 0), (0.25, 1),
             (1000 + 1e-10, 0), (1000 + 1e-7, 0), (-1000 - 1e-9, 3e-9)]
        )
        want = reference_bytes(jittered_line.locations, queries)
        assert regime_bytes(classify(queries, jittered_line)) == want

    def test_lp_runs_once_per_interpolation_verdict_in_3d(self, monkeypatch):
        import hyperpolate.geometry as geometry

        rng = np.random.default_rng(43)
        samples = rng.uniform(-1.0, 1.0, size=(60, 3))
        queries = np.vstack([rng.uniform(-1.3, 1.3, size=(80, 3)), samples[:5]])
        data = Dataset(samples, np.zeros(60))
        lp = CountedLinprog(monkeypatch)
        tags = [r.tag for r in classify(queries, data)]
        assert geometry._facet_table(data, DEFAULT_SUBSPACE_TOL).normals is not None
        assert tags.count(EXTRAPOLATION) > 0
        assert lp.calls == tags.count(INTERPOLATION)

    @staticmethod
    def check_fallback(monkeypatch, locs, queries):
        """Without a facet table every on-hull non-sample query runs the LP,
        and the verdicts still match the reference."""
        import hyperpolate.geometry as geometry

        data = Dataset(locs, np.zeros(len(locs)))
        lp = CountedLinprog(monkeypatch)
        got = regime_bytes(classify(queries, data))
        table = geometry._facet_table(data, DEFAULT_SUBSPACE_TOL)
        assert table.normals is None and table.offsets is None
        assert got == reference_bytes(locs, queries)
        assert EXTRAPOLATION in {tag for tag, _, _ in got}
        assert lp.calls == sum(tag != AUTOPOLATION for tag, _, _ in got)

    def cloud(self):
        rng = np.random.default_rng(47)
        samples = rng.uniform(-1.0, 1.0, size=(30, 3))
        return samples, np.vstack([rng.uniform(-1.3, 1.3, size=(12, 3)), samples[:2]])

    def test_four_dimensional_hull_runs_the_lp(self, monkeypatch):
        rng = np.random.default_rng(53)
        basis = np.linalg.qr(rng.normal(size=(5, 5)))[0][:, :4].T
        locs = rng.uniform(-1, 1, size=(12, 4)) @ basis
        queries = np.vstack([rng.uniform(-1.5, 1.5, size=(8, 4)) @ basis, locs[:1]])
        self.check_fallback(monkeypatch, locs, queries)

    def test_qhull_failure_runs_the_lp(self, monkeypatch):
        import hyperpolate.geometry as geometry

        def failing(points):
            raise QhullError("QH6154 initial simplex is flat")

        monkeypatch.setattr(geometry, "ConvexHull", failing)
        self.check_fallback(monkeypatch, *self.cloud())

    def test_halfspace_failing_the_build_check_runs_the_lp(self, monkeypatch):
        import hyperpolate.geometry as geometry

        class Shifted:
            def __init__(self, points):
                self.equations = ConvexHull(points).equations.copy()
                self.equations[0, -1] += 1e-6  # cuts a little into the hull

        monkeypatch.setattr(geometry, "ConvexHull", Shifted)
        self.check_fallback(monkeypatch, *self.cloud())


class TestHyperpolationDistance:
    def test_on_line_zero(self):
        data = line_dataset()
        assert hyperpolation_distance([0.3, 0.0], data) <= 1e-12

    def test_offset_five(self):
        data = line_dataset()
        for x in (-7.0, 0.0, 13.0):
            assert hyperpolation_distance([x, 5.0], data) == pytest.approx(5.0)

    def test_matches_gram_schmidt_oracle(self):
        from _oracles import gram_schmidt_distance

        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, min(3, n) + 1))
            base = rng.normal(size=n)
            directions = rng.normal(size=(d, n))
            coeffs = rng.uniform(-2, 2, size=(8, d))
            locs = base + coeffs @ directions
            data = Dataset(locs, np.zeros(8))
            q = rng.normal(size=n) * 3
            expected = gram_schmidt_distance(locs[0], locs[1:] - locs[0], q)
            assert hyperpolation_distance(q, data) == pytest.approx(
                expected, abs=1e-9
            )
