"""Per-layer metrics derived from a traced run.

Layers are the package's modules. Each metric is reported per traced pass;
counts repeat exactly when the passes do the same work. Times are the
tracer's: ``*_self_s`` excludes time spent in other traced functions,
the other ``*_s`` figures include it.
"""

HYPERPOLATION = "hyperpolation"
LP_KEY = "geometry.linprog"


def _lp_before(tracer, args, kwargs):
    return tracer.count(LP_KEY)


def _classify_after(tracer, lp_at_entry, args, kwargs, result):
    # an LP run for a query that ends off the affine hull decided nothing
    if getattr(result, "tag", None) == HYPERPOLATION:
        tracer.add("lp_wasted", tracer.count(LP_KEY) - lp_at_entry)


def _shapes_after(tracer, state, args, kwargs, result):
    tracer.add("shapes_built", len(result))


def _search_after(tracer, state, args, kwargs, result):
    tracer.add("candidates", len(result))


def _write_after(tracer, state, args, kwargs, result):
    text = kwargs["text"] if "text" in kwargs else args[1]
    tracer.add("bytes_written", len(text.encode("utf-8")))


HOOKS = {
    "geometry.classify": (_lp_before, _classify_after),
    "expressions.ShapeEnumerator.shapes": (None, _shapes_after),
    "symbolic.search_hyperpolation": (None, _search_after),
    "io.atomic_write_text": (None, _write_after),
}


def _last(key):
    return key.rsplit(".", 1)[-1]


def per_layer(tracer, passes, traced_wall, untraced_wall):
    """Per-layer metrics, per traced pass, plus the tracing overhead (the
    median traced pass time minus the untraced pass time)."""
    stats = tracer.stats

    def pick(keys, field):
        return sum(getattr(stats[k], field) for k in keys if k in stats)

    def layer_keys(layer, pred=lambda key: True):
        return [k for k, s in stats.items() if s.layer == layer and pred(k)]

    def calls(*keys):
        return pick(keys, "count")

    def total(*keys):
        return pick(keys, "total")

    extra = tracer.extra
    shapes = extra.get("shapes_built", 0)
    fits = calls("symbolic._ShapeFitter.fit")
    lp_calls = calls(LP_KEY)
    optimizers = ("symbolic.minimize_scalar", "symbolic.minimize")
    io_read = layer_keys("io", lambda k: _last(k).startswith("read"))
    io_write = layer_keys("io", lambda k: _last(k).startswith(("write", "atomic")))
    fit_keys = layer_keys("baselines", lambda k: _last(k).startswith("fit"))
    predict_keys = layer_keys("baselines", lambda k: _last(k).startswith("predict"))

    metrics = {
        "expressions.shapes_built": (shapes, "count"),
        "expressions.shapes_s": (total("expressions.ShapeEnumerator.shapes"), "s"),
        "expressions.evaluate_calls": (calls("expressions.evaluate"), "count"),
        "expressions.evaluate_s": (total("expressions.evaluate"), "s"),
        "expressions.simplify_s": (total("expressions.canonical_simplify"), "s"),
        "symbolic.fits": (fits, "count"),
        "symbolic.search_self_s": (pick(["symbolic.search_hyperpolation"], "self_s"), "s"),
        "symbolic.optimizer_calls": (calls(*optimizers), "count"),
        "symbolic.optimizer_s": (pick(optimizers, "self_s"), "s"),
        "symbolic.lift_calls": (calls("symbolic.lift_constants"), "count"),
        "symbolic.lift_s": (total("symbolic.lift_constants"), "s"),
        "symbolic.candidates": (extra.get("candidates", 0), "count"),
        "bayesian.update_s": (total("bayesian.update"), "s"),
        "bayesian.predict_s": (total("bayesian.predict"), "s"),
        "bayesian.hypothesis_evals": (
            tracer.site_calls("bayesian.predict_candidate") + tracer.site_calls("bayesian.evaluate"),
            "count",
        ),
        "geometry.lp_calls": (lp_calls, "count"),
        "geometry.lp_s": (total(LP_KEY), "s"),
        "geometry.classify_calls": (calls("geometry.classify"), "count"),
        "geometry.classify_self_s": (pick(["geometry.classify"], "self_s"), "s"),
        "geometry.hull_calls": (calls("geometry.affine_hull"), "count"),
        "geometry.hull_s": (total("geometry.affine_hull"), "s"),
        "geometry.project_s": (total("geometry.project"), "s"),
        "io.read_s": (pick(io_read, "outer"), "s"),
        "io.write_s": (pick(io_write, "outer"), "s"),
        "io.bytes_written": (extra.get("bytes_written", 0), "bytes"),
        "cli.self_s": (pick(layer_keys("cli"), "self_s"), "s"),
        "baselines.fit_s": (pick(fit_keys, "outer"), "s"),
        "baselines.predict_s": (pick(predict_keys, "outer"), "s"),
        "benchmark.evaluate_self_s": (pick(["benchmark.evaluate_methods"], "self_s"), "s"),
    }
    metrics = {name: (value / passes, unit) for name, (value, unit) in metrics.items()}
    metrics["symbolic.fit_frac"] = (fits / shapes if shapes else 0.0, "ratio")
    wasted = extra.get("lp_wasted", 0)
    metrics["geometry.lp_useful_frac"] = (
        (lp_calls - wasted) / lp_calls if lp_calls else 1.0, "ratio"
    )
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics
