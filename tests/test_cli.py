import csv
import json

import numpy as np
import pytest

from hyperpolate import BenchmarkCase, CsvFormatError, Dataset, UnknownCaseError
from hyperpolate.cli import _load_case_spec, main
from hyperpolate.io import read_dataset_csv, read_queries_csv, write_dataset_csv


@pytest.fixture
def line_csv(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("x1,x2,f\n0.0,0.0,1.0\n1.0,0.0,3.0\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def queries_csv(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("x1,x2\n0.5,0.0\n2.0,0.0\n0.5,1.0\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_figure_one_tags(self, capsys, line_csv, queries_csv):
        code, out, _ = run(capsys, "classify", "--data", line_csv, "--queries", queries_csv)
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["regime"] for r in records] == [
            "interpolation",
            "extrapolation",
            "hyperpolation",
        ]
        assert records[0]["witness"] == [0.5, 0.5]
        assert records[2]["witness"] == pytest.approx(1.0)

    def test_empty_queries(self, capsys, line_csv, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2\n", encoding="utf-8")
        code, out, _ = run(capsys, "classify", "--data", line_csv, "--queries", str(empty))
        assert code == 0
        assert out == ""

    def test_dimension_mismatch_exits_2(self, capsys, line_csv, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1\n1.0\n", encoding="utf-8")
        code, _, err = run(capsys, "classify", "--data", line_csv, "--queries", str(bad))
        assert code == 2
        assert "dimension" in err

    @pytest.mark.parametrize("flag", ["--tol-hull", "--tol-point", "--tol-subspace"])
    def test_nan_tolerance_exits_2(self, capsys, tmp_path, flag):
        data = tmp_path / "diag.csv"
        data.write_text("x1,x2,f\n0,0,0\n1,1,2\n2,2,4\n", encoding="utf-8")
        queries = tmp_path / "q.csv"
        queries.write_text("x1,x2\n0.5,0.5\n1,1\n", encoding="utf-8")
        code, out, err = run(
            capsys, "classify", "--data", str(data), "--queries", str(queries), flag, "nan"
        )
        assert code == 2
        assert out == ""
        assert "must be positive" in err

    def test_malformed_csv_has_line_number(self, capsys, line_csv, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1.0,2.0\noops,3.0\n", encoding="utf-8")
        code, _, err = run(capsys, "classify", "--data", line_csv, "--queries", str(bad))
        assert code == 2
        assert "line 3" in err

    def test_json_lines_round_trip(self, capsys, line_csv, queries_csv, tmp_path):
        out_path = tmp_path / "out.jsonl"
        code, _, _ = run(
            capsys,
            "classify", "--data", line_csv, "--queries", queries_csv,
            "--out", str(out_path),
        )
        assert code == 0
        for line in out_path.read_text().strip().splitlines():
            record = json.loads(line)
            assert set(record) >= {"point", "regime", "distance"}


class TestSearch:
    def test_constant_data_extrusion_only(self, capsys, tmp_path):
        data = tmp_path / "const.csv"
        rows = "\n".join(f"{x},5.0" for x in range(-5, 6))
        data.write_text("x1,f\n" + rows + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "search", "--data", str(data), "--max-nodes", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["expr"] == "5"

    def test_budget_zero_empty_ok(self, capsys, tmp_path):
        data = tmp_path / "lin.csv"
        rows = "\n".join(f"{x},{2*x}" for x in range(-4, 5))
        data.write_text("x1,f\n" + rows + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "search", "--data", str(data), "--budget", "0")
        assert code == 0
        assert json.loads(out) == []

    def test_negative_budget_exits_2(self, capsys, tmp_path):
        data = tmp_path / "lin.csv"
        rows = "\n".join(f"{x},{2*x}" for x in range(-4, 5))
        data.write_text("x1,f\n" + rows + "\n", encoding="utf-8")
        code, out, err = run(capsys, "search", "--data", str(data), "--budget", "-3")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_nan_sigma_exits_2(self, capsys, tmp_path):
        data = tmp_path / "lin.csv"
        rows = "\n".join(f"{x},{2*x}" for x in range(-4, 5))
        data.write_text("x1,f\n" + rows + "\n", encoding="utf-8")
        code, out, err = run(capsys, "search", "--data", str(data), "--sigma", "nan")
        assert code == 2
        assert out == ""
        assert "noise_sigma" in err

    def test_underflowing_sigma_exits_2(self, capsys, tmp_path):
        # 2 sigma^2 underflows to 0 below about 1.5e-162
        data = tmp_path / "lin.csv"
        rows = "\n".join(f"{x},{2*x}" for x in range(-4, 5))
        data.write_text("x1,f\n" + rows + "\n", encoding="utf-8")
        code, out, err = run(capsys, "search", "--data", str(data), "--sigma", "1e-170")
        assert code == 2
        assert out == ""
        assert "noise_sigma" in err

    def test_non_1d_hull_exits_3(self, capsys, tmp_path):
        data = tmp_path / "plane.csv"
        rng = np.random.default_rng(0)
        lines = ["x1,x2,f"]
        for _ in range(6):
            x, y = rng.normal(size=2)
            lines.append(f"{x},{y},{0.0}")
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "search", "--data", str(data))
        assert code == 3

    def test_magnitude_beyond_the_start_grid_exits_2(self, capsys, tmp_path):
        data = tmp_path / "huge.csv"
        rows = "\n".join(f"{x},{x}e160" for x in range(-4, 5))
        data.write_text("x1,f\n" + rows + "\n", encoding="utf-8")
        code, out, err = run(capsys, "search", "--data", str(data))
        assert code == 2
        assert out == ""
        assert "6.7e+153" in err

    @pytest.mark.parametrize("flag", ["--max-nodes", "--grammar-depth"])
    def test_negative_grammar_size_exits_2(self, capsys, tmp_path, flag):
        data = tmp_path / "lin.csv"
        rows = "\n".join(f"{x},{2*x}" for x in range(-4, 5))
        data.write_text("x1,f\n" + rows + "\n", encoding="utf-8")
        code, out, err = run(capsys, "search", "--data", str(data), flag, "-1")
        assert code == 2
        assert out == ""
        assert "non-negative integer" in err

    @pytest.mark.parametrize("top, code, want", [("-1", 2, None), ("0", 0, [])])
    def test_top_must_be_a_count(self, capsys, tmp_path, top, code, want):
        data = tmp_path / "lin.csv"
        rows = "\n".join(f"{x},{2*x}" for x in range(-4, 5))
        data.write_text("x1,f\n" + rows + "\n", encoding="utf-8")
        got, out, err = run(
            capsys, "search", "--data", str(data), "--top", top, "--max-nodes", "3"
        )
        assert got == code
        if want is None:
            assert out == "" and err.startswith("error:") and "--top" in err
        else:
            assert json.loads(out) == want

    def test_top_keeps_tie_sets_whole(self, capsys, tmp_path):
        data = tmp_path / "cone.csv"
        lines = ["x1,f"] + [
            f"{x},{float(np.sqrt(x * x + 1.0))!r}" for x in np.arange(-20.0, 21.0)
        ]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "search", "--data", str(data), "--top", "1", "--max-nodes", "6"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2  # the mirror pair is never split
        assert {c["y0"] for c in payload} == {-1.0, 1.0}


    @pytest.mark.parametrize("depth, top", [(3, None), (4, "sqrt(add(pow2(x),pow2(y)))")])
    def test_grammar_depth_is_honoured(self, capsys, tmp_path, depth, top):
        data = tmp_path / "cone.csv"
        lines = ["x1,f"] + [
            f"{x},{float(np.sqrt(x * x + 1.0))!r}" for x in np.arange(-20.0, 21.0)
        ]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "search", "--data", str(data), "--max-nodes", "6",
            "--grammar-depth", str(depth), "--top", "1",
        )
        assert code == 0
        payload = json.loads(out)
        # sqrt(add(pow2(t),~)) has depth 4; no shallower shape fits exactly
        assert (payload[0]["expr"] if payload else None) == top


class TestBench:
    def test_unknown_case_exits_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "bench", "martian", "--out", str(tmp_path))
        assert code == 4

    def test_report_and_grid_files(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "bench", "cone",
            "--methods", "extrusion,nn_ambient",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report_cone.json").read_text())
        assert report["case"] == "cone"
        assert {m["name"] for m in report["methods"]} == {"extrusion", "nn_ambient"}
        with open(tmp_path / "grid_cone.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "truth", "pred_extrusion", "pred_nn_ambient"]
        assert len(rows) == 1 + 41 * 41

    def test_repeat_runs_identical_modulo_runtime(self, capsys, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            code, _, _ = run(
                capsys,
                "bench", "cone",
                "--methods", "extrusion",
                "--out", str(tmp_path / sub),
            )
            assert code == 0
        ra = json.loads((tmp_path / "a" / "report_cone.json").read_text())
        rb = json.loads((tmp_path / "b" / "report_cone.json").read_text())
        for r in (ra, rb):
            for m in r["methods"]:
                m["runtime_s"] = 0.0
        assert ra == rb
        assert (tmp_path / "a" / "grid_cone.csv").read_text() == (
            tmp_path / "b" / "grid_cone.csv"
        ).read_text()

    def test_bench_symbolic_without_candidate_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "bench", "cone",
            "--methods", "symbolic",
            "--budget", "0",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "no candidate" in err

    def test_bench_negative_budget_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "bench", "cone",
            "--methods", "symbolic",
            "--budget", "-1",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "budget" in err

    def test_bench_all_writes_one_report_per_case(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "bench", "all",
            "--methods", "nn_ambient",
            "--out", str(tmp_path),
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("report_*.json"))
        assert names == [
            "report_cone.json",
            "report_diagonal_xy.json",
            "report_ripple.json",
        ]

    def test_case_spec_file(self, capsys, tmp_path):
        spec = {
            "name": "mini",
            "truth": "add(x,y)",
            "slice_base": [0.0, 0.0],
            "slice_direction": [1.0, 0.0],
            "sample_params": [0.0, 1.0, 2.0],
            "grid_ranges": [[-2.0, 2.0], [-2.0, 2.0]],
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _, _ = run(
            capsys,
            "bench", str(path), "--methods", "nn_ambient", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "report_mini.json").exists()

    def test_tolerance_flags_reach_the_report(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "bench", "cone",
            "--methods", "nn_ambient",
            "--tol-point", "1.0",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report_cone.json").read_text())
        # the samples are (t, 1): the rows y = 0, 1 and 2 lie within 1.0 of one
        assert report["methods"][0]["regime_counts"]["autopolation"] == 3 * 41

    def test_case_spec_wrong_field_type_exits_2(self, capsys, tmp_path):
        spec = {
            "name": "mini",
            "truth": "add(x,y)",
            "slice_base": 5,
            "slice_direction": [1.0, 0.0],
            "sample_params": [0.0, 1.0, 2.0],
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _, err = run(
            capsys,
            "bench", str(path), "--methods", "nn_ambient", "--out", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error:") and "slice_base" in err


    @pytest.mark.parametrize(
        "truth",
        ["add(x,y", "pow3(x)", "True", "sqrt(" * 500 + "x" + ")" * 500],
        ids=["unclosed", "unknown_operator", "bool", "nested_500"],
    )
    def test_case_spec_bad_truth_exits_2(self, capsys, tmp_path, truth):
        spec = {
            "name": "mini",
            "truth": truth,
            "slice_base": [0.0, 0.0],
            "slice_direction": [1.0, 0.0],
            "sample_params": [0.0, 1.0, 2.0],
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _, err = run(
            capsys,
            "bench", str(path), "--methods", "nn_ambient", "--out", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("truth", "add(x,z)", "case field 'truth'"),
            ("grid_step", 0, "case field 'grid_step'"),
            ("grid_step", -1, "case field 'grid_step'"),
            ("grid_stp", 0.5, "unknown field(s) ['grid_stp']"),
            ("name", "a\u0000b", "case field 'name'"),
            ("name", "../../evil", "case field 'name'"),
            ("sample_params", [10**400], "case field 'sample_params'"),
            ("grid_ranges", [[1, 0], [0, 1]], "case field 'grid_ranges'"),
        ],
        ids=["unknown_variable", "zero_step", "negative_step", "unknown_key",
             "nul_name", "path_name", "huge_param", "reversed_range"],
    )
    def test_case_spec_breaking_a_rule_exits_2(self, capsys, tmp_path, key, value, message):
        spec = {
            "name": "mini",
            "truth": "add(x,y)",
            "slice_base": [0.0, 0.0],
            "slice_direction": [1.0, 0.0],
            "sample_params": [0.0, 1.0, 2.0],
            key: value,
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "bench", str(path), "--methods", "nn_ambient", "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "bench", "cone", "--seed", "-1", "--sigma", "0.1",
            "--methods", "nn_ambient", "--out", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error:") and "case field 'seed'" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_case_spec_defaults_and_missing_field(self, tmp_path):
        spec = {
            "name": "mini",
            "truth": "add(x,y)",
            "slice_base": [0.0, 0.0],
            "slice_direction": [1.0, 0.0],
            "sample_params": [0.0, 1.0, 2.0],
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        case = _load_case_spec(str(path))
        assert case == BenchmarkCase(
            "mini", "add(x,y)", (0.0, 0.0), (1.0, 0.0), (0.0, 1.0, 2.0)
        )
        del spec["truth"]
        path.write_text(json.dumps(spec), encoding="utf-8")
        with pytest.raises(UnknownCaseError, match="case spec missing field 'truth'"):
            _load_case_spec(str(path))

    def test_seed_and_sigma_reach_the_report(self, capsys, tmp_path):
        reports = {}
        for sub, flags in {
            "plain": [],
            "seed": ["--seed", "7"],
            "sigma": ["--sigma", "0.5"],
        }.items():
            code, _, _ = run(
                capsys,
                "bench", "cone", "--methods", "nn_ambient",
                "--out", str(tmp_path / sub), *flags,
            )
            assert code == 0
            report = json.loads((tmp_path / sub / "report_cone.json").read_text())
            report["methods"][0]["runtime_s"] = 0.0
            reports[sub] = report
        assert reports["plain"]["seed"] == 0 and reports["seed"]["seed"] == 7
        assert reports["sigma"]["seed"] == 0
        assert reports["sigma"]["methods"] != reports["plain"]["methods"]


class TestConfig:
    def test_json_config_merges_under_flags(self, capsys, line_csv, queries_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tol-subspace": 1e-3}), encoding="utf-8")
        code, out, _ = run(
            capsys,
            "classify",
            "--data", line_csv,
            "--queries", queries_csv,
            "--config", str(config),
        )
        assert code == 0

    def test_config_sets_bench_methods_and_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"methods": "nn_ambient", "out": "o2"}), encoding="utf-8")

        def method_names(out_dir):
            report = json.loads((tmp_path / out_dir / "report_cone.json").read_text())
            return [m["name"] for m in report["methods"]]

        code, _, _ = run(capsys, "bench", "cone", "--config", str(config))
        assert code == 0
        assert not (tmp_path / "report_cone.json").exists()
        assert method_names("o2") == ["nn_ambient"]
        code, _, _ = run(
            capsys,
            "bench", "cone", "--config", str(config),
            "--methods", "extrusion", "--out", "o3",
        )
        assert code == 0
        assert method_names("o3") == ["extrusion"]

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"tol_hull": "1e-9"}, "tol_hull"),
            ([{"tol_hull": 1e-9}], "JSON object"),
            ({"tol_hul": 1e-9}, "tol_hul"),
        ],
        ids=["string_for_float", "list_not_object", "misspelt_key"],
    )
    def test_malformed_config_exits_2(
        self, capsys, line_csv, queries_csv, tmp_path, config, message
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run(
            capsys,
            "classify",
            "--data", line_csv,
            "--queries", queries_csv,
            "--config", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err


class TestIO:
    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("x1,f\n1.0,2.0\n3.0\n", 3, "expected 2 columns, got 1"),
            ("x1,f\n1.0,2.0\n3.0,4.0,5.0\n", 3, "expected 2 columns, got 3"),
            ("x1,g\n1.0,2.0\n", 1, "expected header x1,...,xn,f"),
            ("x2,f\n1.0,2.0\n", 1, "expected coordinate columns"),
            ("f\n2.0\n", 1, "expected header x1,...,xn,f"),
            ("", 1, "empty file"),
            ("x1,f\n", 2, "dataset has no sample rows"),
            ("x1,f\n\n\n", 2, "dataset has no sample rows"),
            ("x1,f\n1.0,oops\n", 2, "could not convert"),
        ],
    )
    def test_dataset_csv_errors(self, tmp_path, text, line, message):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvFormatError, match=message) as info:
            read_dataset_csv(str(path))
        assert info.value.line == line

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", 1, "empty file"),
            ("x1,y\n", 1, "expected coordinate columns"),
            ("x1,x2\n1.0,2.0\n1.0\n", 3, "expected 2 columns, got 1"),
        ],
    )
    def test_queries_csv_errors(self, tmp_path, text, line, message):
        path = tmp_path / "q.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvFormatError, match=message) as info:
            read_queries_csv(str(path))
        assert info.value.line == line

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,f\n\n1.0,2.0\n\n3.0,4.0\n\n", encoding="utf-8")
        data = read_dataset_csv(str(path))
        assert data.locations.tolist() == [[1.0], [3.0]]
        assert data.values.tolist() == [2.0, 4.0]
        queries = tmp_path / "q.csv"
        queries.write_text("x1,x2\n\n1.0,2.0\n\n", encoding="utf-8")
        assert read_queries_csv(str(queries)).tolist() == [[1.0, 2.0]]

    def test_dataset_round_trip(self, tmp_path):
        data = Dataset([[0.25, -1.5], [3.0, 2.0]], [1.5, -0.125])
        path = tmp_path / "d.csv"
        write_dataset_csv(str(path), data)
        back = read_dataset_csv(str(path))
        assert np.array_equal(back.locations, data.locations)
        assert np.array_equal(back.values, data.values)
