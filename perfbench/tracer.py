"""Outside-in tracing of the hyperpolate layers.

The tracer never edits the library. It finds the boundaries to time from the
package's module namespaces at install time and rebinds them:

* every public module-level function of the package (in its home module's
  ``__all__``, or without a leading underscore where there is no ``__all__``)
  is rebound in each package namespace that holds it, including its home
  module and the package root, so calls between layers and calls through the
  public API are both seen;
* every solver entry point that a package module binds from scipy
  (``linprog``, ``minimize``, ``minimize_scalar``) is rebound in that module;
* every public method of a class defined in the package is replaced on the
  class, so ``ShapeEnumerator.shapes`` or ``PolationModel.predict`` are seen
  whoever calls them.

A function added to the package later is picked up without a change here.
Per-node expression helpers (``LEAF_HELPERS``) stay unwrapped: each call is
cheaper than the tracer's own bookkeeping, and the enumerator calls them
millions of times. A call that re-enters a function already on the stack runs
untraced, so recursion counts as one call.

Hot boundaries are aggregated per function (calls, inclusive time, self
time, and time not nested in another span of the same module). The
benchmark's own operations (a search, a CLI command, a posterior pass, a
query) are individual spans with parents, kept in memory and written out
when the run ends.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from contextlib import contextmanager, nullcontext

LEAF_HELPERS = frozenset(
    {
        "var",
        "const",
        "node_count",
        "expr_depth",
        "variables_of",
        "slot_count",
        "serialize",
        "struct_key",
    }
)
PACKAGE = "hyperpolate"
SOLVER_PREFIX = "scipy."


class Stat:
    """Aggregate of one traced function."""

    __slots__ = ("layer", "count", "total", "self_s", "outer", "active")

    def __init__(self, layer):
        self.layer = layer
        self.count = 0
        self.total = 0.0
        self.self_s = 0.0
        self.outer = 0.0  # inclusive time of calls not nested in the same layer
        self.active = False


def package_modules(package):
    """The package and all of its submodules, imported, in name order."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)
    return [
        sys.modules[name]
        for name in sorted(sys.modules)
        if name == package or name.startswith(package + ".")
    ]


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


def _is_public(module, name):
    names = getattr(module, "__all__", None)
    if names is not None:
        return name in names
    return not name.startswith("_")


def _method_function(raw):
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    if inspect.isfunction(raw):
        return raw
    return None


class NullTracer:
    """Stand-in for untraced runs: operations are not recorded."""

    def span(self, name):
        return nullcontext()


class Tracer:
    """Rebinds the package's boundaries while installed.

    ``clock`` times everything; a clock that skips the speed probe's own
    time keeps it out of every span. ``hooks`` maps a span key
    (``"geometry.classify"``) to a pair ``(before, after)``:
    ``before(tracer, args, kwargs)`` returns a state that
    ``after(tracer, state, args, kwargs, result)`` receives. Hooks add to
    ``tracer.extra``.
    """

    def __init__(self, hooks=None, clock=time.perf_counter):
        self.clock = clock
        self.hooks = dict(hooks or {})
        self.stats = {}
        self.extra = {}
        self.spans = []
        self._stack = []
        self._span_stack = []
        self._patches = []
        self._site_cells = {}

    # -- discovery -----------------------------------------------------------

    def targets(self):
        """(owner, attribute, raw value, span key, layer) for every boundary.

        The span key names the function where it is defined
        (``expressions.evaluate``), or the binding for a solver
        (``symbolic.minimize_scalar``).
        """
        found = []
        for module in package_modules(PACKAGE):
            for name, obj in sorted(vars(module).items()):
                if inspect.isfunction(obj):
                    home = sys.modules.get(obj.__module__)
                    if (
                        obj.__module__.startswith(PACKAGE)
                        and home is not None
                        and getattr(home, obj.__name__, None) is obj
                        and _is_public(home, obj.__name__)
                        and obj.__name__ not in LEAF_HELPERS
                    ):
                        layer = _short(obj.__module__)
                        key = f"{layer}.{obj.__qualname__}"
                        found.append((module, name, obj, key, layer))
                    elif obj.__module__.startswith(SOLVER_PREFIX) and module.__name__ != PACKAGE:
                        layer = _short(module.__name__)
                        found.append((module, name, obj, f"{layer}.{name}", layer))
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                ):
                    layer = _short(module.__name__)
                    for attr, raw in sorted(vars(obj).items()):
                        if attr.startswith("_") or _method_function(raw) is None:
                            continue
                        key = f"{layer}.{obj.__qualname__}.{attr}"
                        found.append((obj, attr, raw, key, layer))
        return found

    # -- install / uninstall -------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, raw, key, layer in self.targets():
            if inspect.isclass(owner):
                fn, site = _method_function(raw), key
            else:
                fn, site = raw, f"{_short(owner.__name__)}.{attr}"
            wrapped = self._wrap(fn, key, layer, site)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, key, layer, site):
        stat = self.stats.setdefault(key, Stat(layer))
        site_calls = self._site_cells.setdefault(site, [0])
        before, after = self.hooks.get(key, (None, None))
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stat.active:
                return fn(*args, **kwargs)
            state = before(self, args, kwargs) if before else None
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            stat.active = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.active = False
                stack.pop()
                stat.count += 1
                site_calls[0] += 1
                stat.total += elapsed
                stat.self_s += elapsed - frame[1]
                if parent is None or parent[0] != layer:
                    stat.outer += elapsed
                if parent is not None:
                    parent[1] += elapsed
            if after:
                after(self, state, args, kwargs, result)
            return result

        return traced

    def add(self, name, amount):
        self.extra[name] = self.extra.get(name, 0) + amount

    def count(self, key):
        stat = self.stats.get(key)
        return stat.count if stat else 0

    def site_calls(self, site):
        """Calls made through one binding (``bayesian.predict_candidate``)."""
        cell = self._site_cells.get(site)
        return cell[0] if cell else 0

    @contextmanager
    def span(self, name):
        """One benchmark operation, recorded with its parent span."""
        record = {
            "id": len(self.spans),
            "parent": self._span_stack[-1] if self._span_stack else None,
            "name": name,
            "start": self.clock(),
        }
        self.spans.append(record)
        self._span_stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._span_stack.pop()

    def summary(self):
        """Per-function aggregates as plain data."""
        return {
            key: {
                "calls": s.count,
                "total_s": s.total,
                "self_s": s.self_s,
                "outer_s": s.outer,
            }
            for key, s in sorted(self.stats.items())
            if s.count
        }
