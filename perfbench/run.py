"""hyperpolate benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload search_exact --seed 1 --seconds 10 --trace 0

Workloads: search_exact, search_noisy, classify_slice, classify_cloud (see
BENCHMARK.json for why each was chosen). The library is imported from the
checkout's ``src/`` directory, never from an installed copy.

A run sets up (imports the library, generates the seeded inputs), then runs
passes over the workload until ``--seconds`` have been spent, at least one,
with no untimed warm-up. Every pass is checked; a failed check counts one
failed operation. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics and add the per-operation breakdown (search time per case,
posterior time, top_rmse, queries per second, query latency percentiles) and
the raw, unscaled times.

Times are in reference seconds (see ``speed.py``): raw times rescaled by a
reference kernel sampled during the same interval, because this host's speed
drifts more than the effects worth measuring.

``--trace 0`` reports the end-to-end metrics, untraced:

* ``wall_s``: one pass over the workload's operations (median over passes);
* ``op_geomean_ms``: geometric mean of the single operations' times (a
  search, a CLI command, a posterior pass or a query), so that a slower small
  operation shows even next to a long one;
* ``setup_s``: median set-up time over this process and four fresh ones;
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``pass_frac``: operations that passed their checks over those attempted.

``--trace 1`` runs one untraced pass, then traced passes (``tracer.py``),
and reports the per-layer metrics per pass (``layers.py``) and the tracing
overhead; the spans and per-function aggregates are written to
``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60


def import_library():
    """Import hyperpolate from this checkout's src/ (and its CLI module)."""
    init = SRC / "hyperpolate" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no library source at {init}")
    sys.path.insert(0, str(SRC))
    import hyperpolate
    import hyperpolate.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(hyperpolate.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported hyperpolate from {hyperpolate.__file__}")
    return hyperpolate


def setup(workload, seed, workdir):
    """Library import plus input generation: everything before timing."""
    hp = import_library()
    prepare, run = workloads.WORKLOADS[workload]
    return hp, prepare(hp, seed, workdir), run


def probe_setup_seconds(args, workdir):
    """Set-up time of a fresh interpreter (it runs ``--setup-probe``)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-probe", workdir,
    ]
    out = subprocess.run(
        cmd, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT
    )
    return float(out.stdout.strip().splitlines()[-1])


def machine_facts():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Pass:
    """One checked pass with its operation times in reference seconds."""

    def __init__(self, outcome, probe):
        self.outcome = outcome
        self.raw_s = sum(end - start for _, start, end in outcome.ops)
        self.ops = [
            (name, (end - start) * probe.factor(start, end))
            for name, start, end in outcome.ops
        ]
        self.seconds = sum(s for _, s in self.ops)


def run_passes(hp, run, inputs, probe, seconds, tracer=None):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        outcome = workloads.Outcome(probe.now, tracer)
        run(hp, inputs, outcome)
        passes.append(outcome)
    return [Pass(o, probe) for o in passes]


def end_to_end(passes, setup_samples):
    ops = [s for p in passes for _, s in p.ops]
    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "op_geomean_ms": (1e3 * statistics.geometric_mean(ops), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
    }


def detail_lines(passes, raw_setup):
    """Per-operation breakdown (medians over passes, reference seconds) and
    the raw figures behind the rescaled ones."""
    lines = [
        f"raw_wall_s {statistics.median(p.raw_s for p in passes):.6g} s",
        f"raw_setup_s {raw_setup:.6g} s",
        f"speed {statistics.median(p.seconds / p.raw_s for p in passes):.4g} (reference s per s)",
    ]
    names = sorted({name for p in passes for name, _ in p.ops if name != "query"})
    for name in names:
        per_pass = [sum(s for n, s in p.ops if n == name) for p in passes]
        lines.append(f"{name} {statistics.median(per_pass):.6g} s")
    for key in sorted({k for p in passes for k in p.outcome.detail}):
        vals = [p.outcome.detail[key] for p in passes if key in p.outcome.detail]
        lines.append(f"{key} {statistics.median(vals):.6g}")
    queries = sum(p.outcome.queries for p in passes)
    if queries:
        busy = sum(
            s for p in passes for n, s in p.ops if n == "query" or n.startswith("cli_s.classify")
        )
        lines.append(f"queries_per_s {queries / busy:.6g} 1/s")
    latencies = [s for p in passes for n, s in p.ops if n == "query"]
    if len(latencies) >= 1000:
        p99 = statistics.quantiles(latencies, n=100)[98]
        lines.append(f"query_p50_ms {1e3 * statistics.median(latencies):.6g} ms ({len(latencies)} queries)")
        lines.append(f"query_p99_ms {1e3 * p99:.6g} ms")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("HYPERPOLATE_THREADS", None)

    if args.setup_probe:
        setup(args.workload, args.seed, args.setup_probe)
        raw = time.perf_counter() - _T0
        print(raw * speed.calibrate())
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        hp, inputs, run = setup(args.workload, args.seed, workdir)
        raw_setup = time.perf_counter() - _T0
        setup_samples = [raw_setup * speed.calibrate()]
        with speed.SpeedProbe() as probe:
            if args.trace:
                reference = run_passes(hp, run, inputs, probe, 0)
                tracer = Tracer(hooks=layers.HOOKS, clock=probe.now)
                with tracer:
                    passes = run_passes(hp, run, inputs, probe, args.seconds, tracer)
            else:
                passes = run_passes(hp, run, inputs, probe, args.seconds)
        if args.trace:
            metrics = layers.per_layer(
                tracer,
                len(passes),
                statistics.median(p.seconds for p in passes),
                statistics.median(p.seconds for p in reference),
            )
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"spans": tracer.spans, "functions": tracer.summary(), "extra": tracer.extra},
                indent=1,
            ))
            passes = reference + passes
        else:
            for _ in range(SETUP_REPEATS - 1):
                setup_samples.append(probe_setup_seconds(args, workdir))
            metrics = end_to_end(passes, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    facts = machine_facts()
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        for line in detail_lines(passes, raw_setup):
            print(line)
    for what in sorted({f for p in passes for f in p.outcome.failures}):
        print(f"failed: {what}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
