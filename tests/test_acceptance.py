"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from hyperpolate import (
    EXTRAPOLATION,
    HYPERPOLATION,
    INTERPOLATION,
    Dataset,
    Grammar,
    Tolerances,
    build_prior,
    classify,
    complexity,
    family_from_candidates,
    fit_additive,
    fit_extrusion,
    fit_slice_interpolant,
    affine_hull,
    parse,
    predict,
    project,
    restrict,
    search_hyperpolation,
    serialize,
    top_tie_set,
    update,
)
from hyperpolate.benchmark import evaluate_methods
from hyperpolate.symbolic import predict_candidate

from _oracles import oracle_band_errors, oracle_regime

# Frozen by the pre-build oracle run (tests/_oracles.py); both baselines
# coincide on the integer query grid because every query column contains a
# sample.  Tuples are (rmse, max_abs, count) per band.
RIPPLE_BASELINE_BANDS = [
    (0.0, 0.0, 81),
    (0.9981928662334869, 1.9908216934466365, 648),
    (1.0428611531026633, 1.9991660767505852, 810),
    (0.9551536008189516, 1.9992731144164986, 1620),
    (0.9749955054291628, 1.9991660767505852, 1701),
    (0.9610229247870721, 1.9992731144164986, 1701),
]


def report_line(num, text):
    print(f"\nACCEPTANCE {num}: PASS: {text}")


class TestCriterion1Trichotomy:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(20240817)
        tols = Tolerances()
        t0 = time.perf_counter()
        instances = 1000
        checked = agreed = 0
        for i in range(instances):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(0, min(3, n) + 1))
            m = int(rng.integers(3, 21))
            base = rng.uniform(-4, 4, size=n)
            if d:
                basis = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :d].T
                coeffs = rng.uniform(-2.5, 2.5, size=(m, d))
                locs = base + coeffs @ basis
            else:
                locs = np.tile(base, (m, 1))
            data = Dataset(locs, np.zeros(m))
            queries = []
            # one on-subspace mixture, one off-subspace point per instance
            w = rng.dirichlet(np.ones(m))
            queries.append(w @ locs)
            off = rng.normal(size=n)
            queries.append(locs[int(rng.integers(m))] + off)
            if i % 3 == 0:
                queries[1] = locs[int(rng.integers(m))]  # exact sample
            for q in queries:
                want = oracle_regime(locs, q)
                if want is None:
                    continue  # within oracle margin of a decision threshold
                got = classify(q, data, tols).tag
                checked += 1
                agreed += got == want
        elapsed = time.perf_counter() - t0
        assert agreed == checked
        assert checked >= 1500
        assert elapsed < 30.0
        report_line(
            1,
            f"classify agrees with the LP-free oracle on {agreed}/{checked} "
            f"clear queries across {instances} instances in {elapsed:.1f}s",
        )


class TestCriterion2RippleRecovery:
    def test_ripple(self, ripple_search):
        candidates, elapsed = ripple_search
        assert elapsed < 120.0
        top = top_tie_set(candidates)
        assert len(top) == 2
        assert {serialize(c.expr) for c in top} == {"cos(sqrt(add(pow2(x),pow2(y))))"}
        assert sorted(c.y0 for c in top) == [-20.0, 20.0]
        for c in top:
            assert c.residual < 1e-6
            assert serialize(restrict(c)) == "cos(sqrt(add(pow2(x),400)))"
        # default grid in the canonical embedding (slice at offset 0)
        xs = np.arange(-40.0, 41.0)
        offsets = np.arange(-40.0, 41.0) + 20.0  # ambient y in [-40, 40]
        gx, go = np.meshgrid(xs, offsets, indexing="ij")
        pts = np.column_stack([gx.ravel(), go.ravel()])
        off_slice = pts[np.abs(pts[:, 1]) > 0]
        truth = np.cos(np.sqrt(off_slice[:, 0] ** 2 + (off_slice[:, 1] - 20.0) ** 2))
        rmses = []
        for c in top:
            pred = predict_candidate(c, off_slice)
            rmses.append(float(np.sqrt(np.mean((pred - truth) ** 2))))
        assert min(rmses) < 1e-4
        report_line(
            2,
            f"ripple tie set = mirror pair at y0=±20, slice residual "
            f"{max(c.residual for c in top):.1e}, best off-slice RMSE "
            f"{min(rmses):.1e}, search {elapsed:.1f}s",
        )


class TestCriterion3ConeRecovery:
    def test_cone(self, cone_search):
        candidates, elapsed = cone_search
        assert elapsed < 60.0
        top = top_tie_set(candidates)
        assert len(top) == 2
        assert {serialize(c.expr) for c in top} == {"sqrt(add(pow2(x),pow2(y)))"}
        assert sorted(c.y0 for c in top) == [-1.0, 1.0]
        for c in top:
            assert c.residual < 1e-6
        xs = np.arange(-20.0, 21.0)
        offsets = np.arange(-20.0, 21.0) - 1.0  # ambient y in [-20, 20]
        gx, go = np.meshgrid(xs, offsets, indexing="ij")
        pts = np.column_stack([gx.ravel(), go.ravel()])
        off_slice = pts[np.abs(pts[:, 1]) > 0]
        truth = np.sqrt(off_slice[:, 0] ** 2 + (off_slice[:, 1] + 1.0) ** 2)
        rmses = []
        for c in top:
            pred = predict_candidate(c, off_slice)
            rmses.append(float(np.sqrt(np.mean((pred - truth) ** 2))))
        assert min(rmses) < 1e-4
        report_line(
            3,
            f"cone tie set = mirror pair at y0=±1, best off-slice RMSE "
            f"{min(rmses):.1e}, search {elapsed:.1f}s",
        )


class TestCriterion4SimplicityOrdering:
    def test_scores(self):
        y2 = complexity(parse("cos(sqrt(add(pow2(x),pow2(y))))"))
        c400 = complexity(parse("cos(sqrt(add(pow2(x),400)))"))
        assert y2 < c400
        report_line(4, f"complexity(y² form) = {y2} < {c400} = complexity(400 form)")


@pytest.fixture(scope="module")
def ripple_benchmark_report():
    report, predictions, truth, queries = evaluate_methods(
        ["extrusion", "nn_ambient", "symbolic"], "ripple"
    )
    return report


class TestCriterion5BaselineSeparation:
    def test_pinned_bands_and_symbolic_wins(self, ripple_benchmark_report):
        report = ripple_benchmark_report
        # the frozen literals still match a fresh oracle run
        for name in ("extrusion", "nn_ambient"):
            for frozen, recomputed in zip(
                RIPPLE_BASELINE_BANDS, oracle_band_errors("ripple", name)
            ):
                assert frozen == pytest.approx(recomputed, abs=1e-12)
            bands = report.method(name).bands
            for band, (rmse, max_abs, count) in zip(bands, RIPPLE_BASELINE_BANDS):
                assert band.count == count
                assert band.rmse == pytest.approx(rmse, abs=1e-9)
                assert band.max_abs == pytest.approx(max_abs, abs=1e-9)
        symbolic = report.method("symbolic").bands
        for i, band in enumerate(symbolic):
            if band.lo >= 1.0:
                assert band.rmse < report.method("extrusion").bands[i].rmse
                assert band.rmse < report.method("nn_ambient").bands[i].rmse
        worst = max(b.rmse for b in symbolic)
        report_line(
            5,
            f"baseline band errors match the pinned oracle to 1e-9; symbolic "
            f"recovery (worst band RMSE {worst:.1e}) beats both baselines in "
            f"every band with lower edge ≥ 1",
        )


class TestCriterion6BayesianInvariants:
    def test_invariants(self, ripple_search, ripple_1d_dataset):
        family = build_prior([parse("x"), parse("pow2(x)"), parse("abs(x)")])
        assert abs(family.weights.sum() - 1.0) <= 1e-12

        data = Dataset([[1.0], [2.0], [-3.0]], [1.0, 4.0, 9.0])
        post = update(family, data)
        assert abs(post.weights.sum() - 1.0) <= 1e-12
        map_h = post.map_hypothesis()
        vals = map_h(data.locations)
        assert np.max(np.abs(vals - data.values)) <= 1e-12

        candidates, _ = ripple_search
        pair = top_tie_set(candidates)
        mirror_post = update(family_from_candidates(pair), ripple_1d_dataset)
        assert abs(mirror_post.weights.sum() - 1.0) <= 1e-12
        assert np.allclose(mirror_post.weights, [0.5, 0.5], atol=1e-12)

        dist = predict(mirror_post, np.array([0.0, 10.0]))
        assert abs(dist.weights.sum() - 1.0) <= 1e-12
        report_line(
            6,
            "normalizations within 1e-12; strict MAP reproduces every sample; "
            "mirror pair carries equal posterior weight",
        )


class TestCriterion7PropertySuites:
    def test_properties(self):
        t0 = time.perf_counter()
        cases = {
            "affine invariance": self._affine_invariance(),
            "hull monotonicity": self._monotonicity(),
            "projection idempotence": self._idempotence(),
            "extrusion constancy": self._extrusion_constancy(),
            "additive restriction": self._additive_restriction(),
            "search determinism": self._search_determinism(),
        }
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert all(n >= 100 for n in cases.values()), cases
        summary = ", ".join(f"{k}: {v}" for k, v in cases.items())
        report_line(7, f"property suites in {elapsed:.1f}s ({summary})")

    @staticmethod
    def _affine_invariance():
        rng = np.random.default_rng(11)
        count = 0
        for _ in range(100):
            n = int(rng.integers(2, 4))
            d = int(rng.integers(1, n))
            m = int(rng.integers(d + 1, 8))
            base = rng.uniform(-2, 2, size=n)
            basis = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :d].T
            coeffs = rng.uniform(-2, 2, size=(m, d))
            locs = base + coeffs @ basis
            data = Dataset(locs, np.zeros(m))
            kind = count % 3
            if kind == 0:
                q = rng.dirichlet(np.ones(m)) @ locs
            elif kind == 1:
                c = coeffs.mean(axis=0) + 4.0 * (coeffs[0] - coeffs.mean(axis=0))
                q = base + c @ basis
            else:
                normal = rng.normal(size=n)
                if d:
                    normal -= (normal @ basis.T) @ basis
                norm = np.linalg.norm(normal)
                q = locs[0] + (normal / norm if norm > 1e-9 else np.ones(n) / np.sqrt(n))
            # well-conditioned affine map: singular values in [0.7, 3.5]
            u = np.linalg.qr(rng.normal(size=(n, n)))[0]
            v = np.linalg.qr(rng.normal(size=(n, n)))[0]
            sing = rng.uniform(0.7, 3.5, size=n)
            amat = u @ np.diag(sing) @ v
            shift = rng.uniform(-3, 3, size=n)
            mapped = Dataset(locs @ amat.T + shift, np.zeros(m))
            before = classify(q, data).tag
            after = classify(amat @ q + shift, mapped).tag
            assert before == after, (before, after)
            count += 1
        return count

    @staticmethod
    def _monotonicity():
        rng = np.random.default_rng(13)
        forbidden = {
            (INTERPOLATION, EXTRAPOLATION),
            (INTERPOLATION, HYPERPOLATION),
            (EXTRAPOLATION, HYPERPOLATION),
        }
        count = 0
        for _ in range(100):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, 7))
            locs = rng.normal(size=(m, n)) * 2
            data = Dataset(locs, np.zeros(m))
            q = rng.normal(size=n) * 2
            before = classify(q, data).tag
            grown = data.with_sample(rng.normal(size=n) * 2, 0.0)
            after = classify(q, grown).tag
            assert (before, after) not in forbidden, (before, after)
            count += 1
        return count

    @staticmethod
    def _idempotence():
        rng = np.random.default_rng(17)
        count = 0
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            locs = rng.normal(size=(m, n)) * 3
            data = Dataset(locs, np.zeros(m))
            sub = affine_hull(data)
            p = rng.normal(size=n) * 4
            projected, _ = project(sub, p)
            again, resid = project(sub, projected)
            assert np.allclose(again, projected, atol=1e-10)
            assert resid <= 1e-10
            on_sub = locs[int(rng.integers(m))]
            _, resid_on = project(sub, on_sub)
            assert resid_on <= 1e-10
            count += 1
        return count

    @staticmethod
    def _extrusion_constancy():
        x = np.arange(-40.0, 41.0)
        locs = np.column_stack([x, np.full_like(x, -20.0)])
        data = Dataset(locs, np.cos(np.sqrt(x**2 + 400.0)))
        model = fit_extrusion(data)
        rng = np.random.default_rng(19)
        count = 0
        for _ in range(100):
            p = rng.uniform(-40, 40, size=2)
            offset = rng.uniform(-25, 25)
            q = p + offset * np.array([0.0, 1.0])
            assert abs(model.predict(q) - model.predict(p)) <= 1e-12
            count += 1
        return count

    @staticmethod
    def _additive_restriction():
        x = np.arange(-10.0, 11.0)
        locs = np.column_stack([x, np.full_like(x, 2.0)])
        data = Dataset(locs, np.sin(x) + x)
        model = fit_additive(data)
        inner = fit_slice_interpolant(data)
        rng = np.random.default_rng(23)
        count = 0
        for _ in range(100):
            t = rng.uniform(-10, 10)
            assert abs(model.predict([t, 2.0]) - float(inner(t))) <= 1e-12
            count += 1
        return count

    @staticmethod
    def _search_determinism():
        rng = np.random.default_rng(29)
        grammar = Grammar(max_nodes=3)
        datasets = []
        for _ in range(100):
            m = int(rng.integers(5, 10))
            x = np.sort(rng.uniform(-4, 4, size=m))
            kind = int(rng.integers(3))
            values = [x**2, np.abs(x), 3.0 * x][kind]
            datasets.append(Dataset(x[:, None], values))

        def run(data):
            cands = search_hyperpolation(data, grammar=grammar)
            return [(serialize(c.expr), c.y0, c.score, c.residual, c.kind) for c in cands]

        # every search runs twice, with the other 99 searches in between
        first = [run(data) for data in datasets]
        count = 0
        for data, expected in zip(datasets, first):
            assert run(data) == expected
            count += 1
        return count
