import dataclasses

import numpy as np
import pytest

from hyperpolate import (
    AUTOPOLATION,
    EXTRAPOLATION,
    HYPERPOLATION,
    INTERPOLATION,
    Grammar,
    InvalidInputError,
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


def _grid(lo, hi):
    return ((lo, hi), (lo, hi))


class TestCaseRules:
    def test_builtin_fields_unchanged(self):
        def floats(lo, hi):
            return tuple(float(t) for t in range(lo, hi + 1))

        expected = {
            "ripple": ("cos(sqrt(add(pow2(x),pow2(y))))", (0.0, -20.0), (1.0, 0.0), floats(-40, 40), 40.0),
            "cone": ("sqrt(add(pow2(x),pow2(y)))", (0.0, 1.0), (1.0, 0.0), floats(-20, 20), 20.0),
            "diagonal_xy": ("mul(x,y)", (0.0, 0.0), (1.0, 1.0), floats(-20, 20), 20.0),
        }
        assert sorted(BUILTIN_CASES) == sorted(expected)
        for name, (truth, base, direction, params, half) in expected.items():
            fields = dataclasses.asdict(BUILTIN_CASES[name])
            assert fields == {
                "name": name,
                "truth": truth,
                "slice_base": base,
                "slice_direction": direction,
                "sample_params": params,
                "noise_sigma": 0.0,
                "seed": 0,
                "grid_ranges": _grid(-half, half),
                "grid_step": 1.0,
            }
            assert [type(v) for v in fields["sample_params"]] == [float] * len(params)

    def test_sequences_stored_as_float_tuples(self):
        case = BenchmarkCase(
            "mini", "add(x,y)", [0, 0], [1, 0], np.arange(3).tolist(), grid_ranges=[[-1, 1], [-2, 2]]
        )
        assert case.slice_base == (0.0, 0.0) and type(case.slice_base[0]) is float
        assert case.sample_params == (0.0, 1.0, 2.0)
        assert case.grid_ranges == ((-1.0, 1.0), (-2.0, 2.0))
        assert hash(case) == hash(dataclasses.replace(case))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_step", 0.0),
            ("grid_step", -1.0),
            ("grid_step", True),
            ("seed", -1),
            ("seed", 1.0),
            ("noise_sigma", float("nan")),
            ("noise_sigma", -0.1),
            ("name", ""),
            ("name", "a/b"),
            ("name", "a\\b"),
            ("name", "a\0b"),
            ("truth", "add(x,z)"),
            ("truth", "add(x,"),
            ("truth", 3.0),
            ("slice_base", (0.0,)),
            ("slice_direction", (1.0, float("inf"))),
            ("sample_params", (0.0, "1")),
            ("sample_params", (10**400,)),
            ("grid_ranges", _grid(1.0, 0.0)),
            ("grid_ranges", ((0.0, 1.0),)),
        ],
    )
    def test_field_breaking_its_rule_raises(self, field, value):
        with pytest.raises(InvalidInputError, match=f"case field '{field}' must be"):
            BenchmarkCase(**{**BUILTIN_CASES["cone"].__dict__, field: value})

    def test_replace_is_checked(self):
        with pytest.raises(InvalidInputError, match="case field 'seed'"):
            dataclasses.replace(BUILTIN_CASES["cone"], seed=-1)

    def test_truth_at(self):
        case = BUILTIN_CASES["diagonal_xy"]
        points = np.array([[2.0, 3.0], [-1.0, 4.0]])
        assert case.truth_at(points).tolist() == [6.0, -4.0]
        constant = dataclasses.replace(case, truth="2")
        assert constant.truth_at(points).tolist() == [2.0, 2.0]


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
