import numpy as np
import pytest

from hyperpolate import (
    AUTOPOLATION,
    EXTRAPOLATION,
    HYPERPOLATION,
    INTERPOLATION,
    Grammar,
    UnknownCaseError,
    compare_orderings,
    generate_case,
    reports_equal,
    serialize,
)
from hyperpolate.benchmark import (
    BUILTIN_CASES,
    BenchmarkCase,
    evaluate_methods,
    resample_params,
)

from _oracles import oracle_band_errors


class TestGenerateCase:
    def test_ripple_layout(self):
        data, case = generate_case("ripple")
        assert len(data) == 81
        assert np.allclose(data.locations[:, 1], -20.0)
        xs = data.locations[:, 0]
        assert xs[0] == -40.0 and xs[-1] == 40.0
        assert np.allclose(data.values, np.cos(np.sqrt(xs**2 + 400.0)))

    def test_cone_layout(self):
        data, _ = generate_case("cone")
        assert len(data) == 41
        xs = data.locations[:, 0]
        assert np.allclose(data.values, np.sqrt(xs**2 + 1.0))

    def test_diagonal_layout(self):
        data, _ = generate_case("diagonal_xy")
        assert len(data) == 41
        assert np.allclose(data.locations[:, 0], data.locations[:, 1])
        assert np.allclose(data.values, data.locations[:, 0] ** 2)

    def test_unknown_name(self):
        with pytest.raises(UnknownCaseError):
            generate_case("klein_bottle")

    def test_noise_is_seeded(self):
        noisy = BenchmarkCase(**{**BUILTIN_CASES["ripple"].__dict__, "noise_sigma": 0.05, "seed": 7})
        d1, _ = generate_case(noisy)
        d2, _ = generate_case(noisy)
        assert np.array_equal(d1.values, d2.values)
        other = BenchmarkCase(**{**noisy.__dict__, "seed": 8})
        d3, _ = generate_case(other)
        assert not np.array_equal(d1.values, d3.values)


@pytest.fixture(scope="module")
def ripple_report():
    report, predictions, truth, queries = evaluate_methods(
        ["extrusion", "nn_ambient"], "ripple"
    )
    return report, predictions, truth, queries


class TestEvaluate:
    def test_band_accounting(self, ripple_report):
        report, _, _, queries = ripple_report
        for m in report.methods:
            total = sum(b.count for b in m.bands) + m.misses
            assert total == queries.shape[0]

    def test_band_edges_increasing(self, ripple_report):
        report, *_ = ripple_report
        for m in report.methods:
            los = [b.lo for b in m.bands]
            assert los == sorted(los)
            assert m.bands[-1].hi is None

    def test_regime_sanity(self, ripple_report):
        report, _, _, queries = ripple_report
        counts = report.methods[0].regime_counts
        assert sum(counts.values()) == queries.shape[0]
        # on-slice integer queries coincide with the samples
        assert counts["autopolation"] == 81
        assert counts["hyperpolation"] == queries.shape[0] - 81

    def test_extrusion_band_zero_is_exact(self, ripple_report):
        report, *_ = ripple_report
        band0 = report.method("extrusion").bands[0]
        assert band0.rmse == pytest.approx(0.0, abs=1e-9)

    def test_band_errors_match_oracle(self, ripple_report):
        report, *_ = ripple_report
        for name in ("extrusion", "nn_ambient"):
            oracle = oracle_band_errors("ripple", name)
            got = report.method(name).bands
            for band, (rmse, max_abs, count) in zip(got, oracle):
                assert band.count == count
                assert band.rmse == pytest.approx(rmse, abs=1e-9)
                assert band.max_abs == pytest.approx(max_abs, abs=1e-9)

    def test_cone_nn_band_pinned(self):
        # oracle run (tests/_oracles.py): nn_ambient on cone, band [10,20)
        report, *_ = evaluate_methods(["nn_ambient"], "cone")
        band = [b for b in report.method("nn_ambient").bands if b.lo == 10.0][0]
        assert band.rmse == pytest.approx(8.922898030553576, abs=1e-9)

    def test_regimes_come_from_classify(self, jittered_line):
        # (0, 5e-6) is a sample off the fitted line; (0, 0) is between samples
        case = BenchmarkCase(
            name="jittered_line",
            truth="x",
            slice_base=(0.0, 0.0),
            slice_direction=(1.0, 0.0),
            sample_params=tuple(float(t) for t in range(-1000, 1001)),
            grid_ranges=((0.0, 0.0), (0.0, 5e-6)),
            grid_step=5e-6,
        )
        report, *_ = evaluate_methods(["nn_ambient"], case, dataset=jittered_line)
        assert report.method("nn_ambient").regime_counts == {
            AUTOPOLATION: 1,
            INTERPOLATION: 1,
            EXTRAPOLATION: 0,
            HYPERPOLATION: 0,
        }

    def test_determinism(self):
        r1, *_ = evaluate_methods(["extrusion"], "cone")
        r2, *_ = evaluate_methods(["extrusion"], "cone")
        assert reports_equal(r1, r2)
        assert r1.to_dict() != {}


class TestCompareOrderings:
    def test_cone_pipelines_agree_structurally(self):
        grammar = Grammar(max_nodes=6)
        comp = compare_orderings("cone", grammar=grammar, budget=13000)
        assert comp.same_top_structure()
        assert serialize(comp.top_a.expr) == "sqrt(add(pow2(x),pow2(y)))"
        assert len(comp.resampled) == 4 * 40 + 1
        assert comp.resampled.noise_sigma > 0

    def test_noisy_ripple_emits_both_reports(self):
        case = BenchmarkCase(
            **{**BUILTIN_CASES["ripple"].__dict__, "noise_sigma": 0.05, "seed": 3}
        )
        grammar = Grammar(max_nodes=5)
        comp = compare_orderings(case, grammar=grammar, budget=2000)
        assert comp.pipeline_a.methods and comp.pipeline_b.methods
        assert comp.pipeline_a.case == comp.pipeline_b.case == "ripple"

    def test_two_sample_case_linear(self):
        case = BenchmarkCase(
            name="tiny",
            truth="add(x,y)",
            slice_base=(0.0, 0.0),
            slice_direction=(1.0, 0.0),
            sample_params=(0.0, 1.0),
            grid_ranges=((-2.0, 2.0), (-2.0, 2.0)),
        )
        grammar = Grammar(max_nodes=5)
        comp = compare_orderings(case, grammar=grammar, budget=2000)
        dense = comp.resampled
        # resampling two points is the straight line through them
        t = dense.locations[:, 0]
        assert np.allclose(dense.values, t, atol=1e-12)
        # and the recovered slice structure is affine in t
        from hyperpolate import evaluate

        grid = np.linspace(-3, 3, 13)
        from hyperpolate import restrict

        vals = evaluate(restrict(comp.top_b), {"x": grid})
        vals = np.broadcast_to(np.asarray(vals, dtype=float), grid.shape)
        assert np.allclose(np.diff(vals, 2), 0.0, atol=1e-8)


class TestResample:
    def test_factor_four_density(self):
        t = np.arange(0.0, 11.0)
        dense, vals, est = resample_params(t, t**2)
        assert dense.size == 4 * 10 + 1
        assert np.allclose(np.interp(t, dense, vals), t**2)
        assert est > 0
