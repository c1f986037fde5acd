"""The library's independently settable options, pinned by name.

An option is a keyword parameter with a default on a public function or a
public method (``__init__`` included) of a public class, or a dataclass field
with a default; a dataclass's generated ``__init__`` is counted through its
fields.  Every module of the package is scanned; public means a name without
a leading underscore, defined in that module.  Adding or removing an option
changes this set.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import hyperpolate

OPTIONS = {
    "bayesian.Hypothesis.candidate",
    "benchmark.BenchmarkCase.noise_sigma",
    "benchmark.BenchmarkCase.seed",
    "benchmark.BenchmarkCase.grid_ranges",
    "benchmark.BenchmarkCase.grid_step",
    "benchmark.compare_orderings(grammar)",
    "benchmark.compare_orderings(budget)",
    "benchmark.evaluate_methods(dataset)",
    "benchmark.evaluate_methods(grammar)",
    "benchmark.evaluate_methods(budget)",
    "benchmark.evaluate_methods(tols)",
    "cli.main(argv)",
    "errors.CsvFormatError.__init__(line)",
    "expressions.Grammar.variables",
    "expressions.Grammar.unary_ops",
    "expressions.Grammar.binary_ops",
    "expressions.Grammar.max_nodes",
    "expressions.Grammar.max_depth",
    "expressions.evaluate(slot_values)",
    "geometry.Dataset.__init__(noise_sigma)",
    "geometry.Regime.weights",
    "geometry.Regime.residual",
    "geometry.Tolerances.point_tol",
    "geometry.Tolerances.hull_tol",
    "geometry.Tolerances.subspace_tol",
    "geometry.affine_hull(tol)",
    "geometry.classify(tols)",
    "geometry.hyperpolation_distance(tol)",
    "geometry.in_convex_hull(tol)",
    "io.read_dataset_csv(noise_sigma)",
    "symbolic.SliceFrame.chart",
    "symbolic.SliceFrame.parallel_axis",
    "symbolic.lift_constants(slice_hint)",
    "symbolic.search_hyperpolation(grammar)",
    "symbolic.search_hyperpolation(budget)",
}


def _keyword_defaults(prefix, fn):
    return [
        f"{prefix}({p.name})"
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
    ]


def _class_options(prefix, cls):
    out = []
    if dataclasses.is_dataclass(cls):
        out += [
            f"{prefix}.{f.name}"
            for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        ]
    for name, member in vars(cls).items():
        if name.startswith("_") and name != "__init__":
            continue
        if name == "__init__" and dataclasses.is_dataclass(cls):
            continue  # counted through the fields
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member):
            out += _keyword_defaults(f"{prefix}.{name}", member)
    return out


def library_options():
    out = []
    for info in pkgutil.iter_modules(hyperpolate.__path__):
        short = info.name
        module = importlib.import_module(f"hyperpolate.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out += _keyword_defaults(f"{short}.{name}", obj)
            elif inspect.isclass(obj):
                out += _class_options(f"{short}.{name}", obj)
    return out


def test_option_set_is_pinned():
    found = library_options()
    assert len(found) == len(set(found))
    assert set(found) == OPTIONS
    assert len(OPTIONS) == 35
