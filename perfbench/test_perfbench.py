"""Tests of the benchmark itself: tracing changes no output and leaves
nothing behind.

Run from the root of the checkout: ``python3 -m pytest -q perfbench``.
The inputs are cut down from the real workloads so that the tests stay fast.
"""

import inspect
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, Tracer, package_modules  # noqa: E402

hp = run.import_library()


def _bindings():
    """Every module global and class attribute of the package, by identity."""
    out = {}
    for module in package_modules(PACKAGE):
        for name, obj in vars(module).items():
            out[(module.__name__, name)] = obj
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, raw in vars(obj).items():
                    out[(module.__name__, name, attr)] = raw
    return out


@pytest.fixture
def workdir():
    run.OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _small_inputs(name, workdir):
    prepare, _ = workloads.WORKLOADS[name]
    inputs = prepare(hp, 7, workdir)
    if name == "search_exact":
        return [(case, data) for case, data in inputs if case.name in ("cone_axis", "diagonal")]
    if name == "search_noisy":
        case, data, lattice = inputs
        return case, data, lattice[::40]
    if name == "classify_cloud":
        data, samples, queries, _ = inputs
        return data, samples, queries[:60], {}
    return inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_match_untraced(name, workdir, monkeypatch):
    monkeypatch.setattr(workloads, "NOISY_BUDGET", 400)
    _, run_pass = workloads.WORKLOADS[name]
    inputs = _small_inputs(name, workdir)
    plain = workloads.Outcome()
    run_pass(hp, inputs, plain)
    before = _bindings()
    tracer = Tracer(hooks=layers.HOOKS)
    traced = workloads.Outcome(tracer=tracer)
    with tracer:
        run_pass(hp, inputs, traced)
    after = _bindings()
    assert plain.outputs == traced.outputs
    assert (plain.attempted, plain.failed) == (traced.attempted, traced.failed)
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.spans and all("end" in s for s in tracer.spans)
    metrics = layers.per_layer(tracer, 1, 1.0, 1.0)
    assert all(np.isfinite(value) for value, _ in metrics.values())


def test_counts_repeat_exactly(workdir):
    _, run_pass = workloads.WORKLOADS["search_exact"]
    inputs = _small_inputs("search_exact", workdir)
    counts = []
    for _ in range(2):
        tracer = Tracer(hooks=layers.HOOKS)
        with tracer:
            run_pass(hp, inputs, workloads.Outcome(tracer=tracer))
        metrics = layers.per_layer(tracer, 1, 1.0, 1.0)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["expressions.shapes_built"] > 0 and counts[0]["symbolic.fits"] > 0


def test_boundaries_found_from_namespaces():
    sites = {
        (getattr(owner, "__name__", None), attr) for owner, attr, *_ in Tracer().targets()
    }
    for site in [
        ("hyperpolate.symbolic", "evaluate"),
        ("hyperpolate.symbolic", "minimize_scalar"),
        ("hyperpolate.geometry", "linprog"),
        ("hyperpolate.geometry", "in_convex_hull"),
        ("hyperpolate.cli", "classify"),
        ("hyperpolate.bayesian", "predict_candidate"),
        ("hyperpolate", "search_hyperpolation"),
        ("ShapeEnumerator", "shapes"),
    ]:
        assert site in sites
    assert ("hyperpolate.symbolic", "serialize") not in sites  # a leaf helper


def test_tracer_counts_recursion_once_and_restores_on_error():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            hp.expressions.canonical_simplify(hp.parse("add(x,mul(x,2))"))
            raise ZeroDivisionError
    assert tracer.stats["expressions.canonical_simplify"].count == 2  # parse + direct
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_inputs_follow_the_seed(workdir):
    for name, index in (("search_noisy", 1), ("classify_cloud", 0)):
        prepare, _ = workloads.WORKLOADS[name]
        a, b, c = (prepare(hp, seed, workdir)[index] for seed in (3, 3, 4))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
    assert np.array_equal(workloads.slice_queries(3), workloads.slice_queries(3))
