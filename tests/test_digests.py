"""Library outputs pinned byte for byte against ``golden_digests.json``.

Each entry is a sha256 under its ``BENCH_9.json`` or ``BENCH_10.json`` key
name, with that file's ``byte_identity.fields`` definition:

* ``cands_<case>``: ``json.dumps`` of one row per candidate, in ranked
  order: ``[serialize(expr), repr(y0), repr(score), repr(residual), kind]``.
  The data are perfbench's ``exact_cases()`` and ``noisy_case(seed)`` at
  budget 5000.
* ``predict_<case>``: sha256 of the float64 bytes of ``predict_candidate``
  at every point of the case's workload lattice, for each candidate in
  ranked order: the 81 x 81 grid of ``X40`` for ripple1d, else the
  41 x 41 grid of ``X20`` (both in ``meshgrid(..., indexing="ij")``
  order).  The candidates are those of ``cands_<case>``, and ``noisy1``'s
  are those of ``cands_noisy1``.
* ``noisy1_hypotheses``: as ``predict_<case>``, of ``Hypothesis.__call__``
  for each hypothesis of ``family_from_candidates`` on the first 64 noisy
  seed 1 candidates, over the 41 x 41 lattice.
* ``noisy1_prior`` / ``noisy1_post_weights``: ``json.dumps`` of the repr of
  each weight of ``family_from_candidates`` on the first 64 noisy seed 1
  candidates, and of its update on the data.
* ``noisy1_records``: ``json.dumps(post.to_records(data))``.
* ``noisy1_dists``: ``json.dumps`` of ``[values bytes hex, weights bytes hex,
  repr(mean), repr(map_value)]`` for each point of the 41 x 41 lattice, from
  one batch ``predict`` (equal to per-point calls).
* ``bench_<case>_report`` / ``_grid``: ``hyperpolate bench <case> --methods
  nn_ambient,nn_projected,linear,extrusion,additive`` (diagonal_xy without
  additive): ``json.dumps([exit code, report with runtime_s zeroed],
  sort_keys=True)``, and the grid CSV bytes.
* ``lift_menu``: ``json.dumps`` of one list per (expression, frame) pair
  of ``[serialize(expr), repr(y0), repr(score), kind]`` rows, one per
  ``lift_constants`` candidate.  The expressions are every t-grammar shape
  of at most 4 nodes with each slot filled by every product of
  ``LIFT_MENU_FILLS``, simplified; the frames are the new-dimension frame
  and axis frames at each of ``LIFT_MENU_Y0``.
* ``enum_t7`` / ``enum_xy6``: ``json.dumps`` of one list per level of
  ``repr(shape)``, in the order ``ShapeEnumerator(Grammar(), variables)``
  returns them: levels 1-7 over ``("t",)`` and 1-6 over ``("x", "y")``.
* ``cands_ripple1d_budget20000``: as ``cands_<case>``, for ripple1d at
  budget 20000, which runs out inside level 7 after the certified best
  score is known, so that the strict bound skip and the budget both act.
* ``slice_lattice_api`` / ``cloud_classify31``: ``json.dumps`` of ``[tag,
  weights bytes hex or None, repr(residual)]`` for each query of per-point
  ``classify`` calls (equal to one batch call on a fresh ``Dataset``): the
  625-point 2.5-step lattice over [-30, 30]^2 against diagonal_xy's samples
  t * (1, 1), and perfbench's ``classify_cloud`` queries for seed 31.

``PYTHONPATH=src python tests/test_digests.py`` prints the current digests
in the golden file's form.  A change that alters an output on purpose
regenerates the file with it and names the old and new digest in
CHANGES.md.
"""

import hashlib
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hyperpolate import (
    Dataset,
    Grammar,
    classify,
    cli,
    family_from_candidates,
    lift_constants,
    predict,
    predict_candidate,
    search_hyperpolation,
    serialize,
    update,
)
from hyperpolate.expressions import ShapeEnumerator, assign_slots, canonical_simplify, slot_count
from hyperpolate.symbolic import SliceFrame

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"

X20 = np.arange(-20.0, 21.0)
X40 = np.arange(-40.0, 41.0)
NOISY_BUDGET = 5000
POSTERIOR_TOP = 64
BENCH_METHODS = "nn_ambient,nn_projected,linear,extrusion,additive"
BENCH_CASES = {
    "cone": BENCH_METHODS,
    "ripple": BENCH_METHODS,
    "diagonal_xy": BENCH_METHODS.removesuffix(",additive"),
}


def sha256(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def cands_digest(candidates):
    rows = [
        [serialize(c.expr), repr(c.y0), repr(c.score), repr(c.residual), c.kind]
        for c in candidates
    ]
    return sha256(json.dumps(rows))


def ripple1d():
    return Dataset(X40[:, None], np.cos(np.sqrt(X40 * X40 + 400.0)))


def cone1d():
    return Dataset(X20[:, None], np.sqrt(X20 * X20 + 1.0))


def cone_axis():
    return Dataset(np.column_stack([X20, np.ones_like(X20)]), np.sqrt(X20 * X20 + 1.0))


def diagonal():
    return Dataset(np.column_stack([X20, X20]), X20 * X20)


EXACT_CASES = {make.__name__: make for make in (ripple1d, cone1d, cone_axis, diagonal)}


def noisy_data(seed):
    rng = np.random.default_rng(seed)
    values = np.sqrt(X20 * X20 + 1.0) + 0.01 * rng.standard_normal(X20.size)
    return Dataset(X20[:, None], values, noise_sigma=0.01)


def grid(axis):
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


LATTICES = {name: grid(X40 if name == "ripple1d" else X20) for name in EXACT_CASES}
LATTICES["noisy1"] = grid(X20)


def values_digest(rows):
    return sha256(b"".join(row.tobytes() for row in rows))


def predict_digest(name, candidates):
    return values_digest(predict_candidate(c, LATTICES[name]) for c in candidates)


def noisy_search(seed):
    data = noisy_data(seed)
    return data, search_hyperpolation(data, budget=NOISY_BUDGET)


def posterior_digests(data, candidates):
    prior = family_from_candidates(candidates[:POSTERIOR_TOP])
    post = update(prior, data)
    dists = predict(post, LATTICES["noisy1"])
    rows = [
        [d.values.tobytes().hex(), d.weights.tobytes().hex(), repr(d.mean), repr(d.map_value)]
        for d in dists
    ]
    return {
        "noisy1_prior": sha256(json.dumps([repr(w) for w in prior.weights])),
        "noisy1_post_weights": sha256(json.dumps([repr(w) for w in post.weights])),
        "noisy1_records": sha256(json.dumps(post.to_records(data))),
        "noisy1_dists": sha256(json.dumps(rows)),
        "noisy1_hypotheses": values_digest(h(LATTICES["noisy1"]) for h in prior.hypotheses),
    }


def bench_digests(case):
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(["bench", case, "--methods", BENCH_CASES[case], "--out", out])
        report = json.loads(Path(out, f"report_{case}.json").read_text())
        grid = Path(out, f"grid_{case}.csv").read_bytes()
    for method in report["methods"]:
        method["runtime_s"] = 0.0
    return {
        f"bench_{case}_report": sha256(json.dumps([code, report], sort_keys=True)),
        f"bench_{case}_grid": sha256(grid),
    }


def slice_lattice():
    t = np.arange(-20.0, 21.0)
    axis = np.arange(-30.0, 31.0, 2.5)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return Dataset(np.column_stack([t, t]), t * t), np.column_stack([gx.ravel(), gy.ravel()])


def cloud(seed):
    """200 samples in the cube [-1, 1]^3, 900 random queries in [-1.3, 1.3]^3
    and 100 of the samples, shuffled."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, size=(200, 3))
    picks = rng.choice(200, size=100, replace=False)
    queries = np.vstack([rng.uniform(-1.3, 1.3, size=(900, 3)), samples[picks]])
    return Dataset(samples, samples.sum(axis=1)), queries[rng.permutation(len(queries))]


CLASSIFY_CASES = {"slice_lattice_api": slice_lattice, "cloud_classify31": lambda: cloud(31)}


def classify_digest(regimes):
    rows = [
        [r.tag, None if r.weights is None else r.weights.tobytes().hex(), repr(r.residual)]
        for r in regimes
    ]
    return sha256(json.dumps(rows))


def per_point_classify_digest(make):
    data, queries = make()
    return classify_digest([classify(q, data) for q in queries])


LIFT_MENU_FILLS = (0.0, 1.0, 3.0, 20.0, 0.5, -2.0, 2.25)
LIFT_MENU_Y0 = (1.0, 3.0, -2.0, math.sqrt(2.0))


def lift_menu_exprs():
    enum = ShapeEnumerator(Grammar(), ("t",))
    return [
        canonical_simplify(assign_slots(shape, fill))
        for n in range(1, 5)
        for shape in enum.shapes(n)
        for fill in itertools.product(LIFT_MENU_FILLS, repeat=slot_count(shape))
    ]


def lift_menu_digest():
    frames = [None] + [
        SliceFrame(mode="axis", slice_var="x", transverse_var="y", y0=y0) for y0 in LIFT_MENU_Y0
    ]
    lists = [
        [[serialize(c.expr), repr(c.y0), repr(c.score), c.kind] for c in lift_constants(e, frame)]
        for e in lift_menu_exprs()
        for frame in frames
    ]
    return sha256(json.dumps(lists))


ENUM_CASES = {"enum_t7": (("t",), 7), "enum_xy6": (("x", "y"), 6)}
RIPPLE_BUDGET = 20000


def enum_digest(variables, max_nodes):
    enum = ShapeEnumerator(Grammar(), variables)
    return sha256(json.dumps([[repr(s) for s in enum.shapes(n)] for n in range(1, max_nodes + 1)]))


def current_digests():
    out = {}
    for name, make in EXACT_CASES.items():
        candidates = search_hyperpolation(make())
        out[f"cands_{name}"] = cands_digest(candidates)
        out[f"predict_{name}"] = predict_digest(name, candidates)
    for seed in (1, 2, 3):
        data, candidates = noisy_search(seed)
        out[f"cands_noisy{seed}"] = cands_digest(candidates)
        if seed == 1:
            out["predict_noisy1"] = predict_digest("noisy1", candidates)
            out.update(posterior_digests(data, candidates))
    for case in BENCH_CASES:
        out.update(bench_digests(case))
    for name, make in CLASSIFY_CASES.items():
        out[name] = per_point_classify_digest(make)
    out["lift_menu"] = lift_menu_digest()
    for name, (variables, max_nodes) in ENUM_CASES.items():
        out[name] = enum_digest(variables, max_nodes)
    out[f"cands_ripple1d_budget{RIPPLE_BUDGET}"] = cands_digest(
        search_hyperpolation(ripple1d(), budget=RIPPLE_BUDGET)
    )
    return dict(sorted(out.items()))


@pytest.fixture(scope="module")
def golden():
    # read here, not at import, so that the printer below can overwrite it
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def noisy1():
    return noisy_search(1)


def test_golden_keys(golden):
    assert set(golden) == (
        {f"cands_{name}" for name in EXACT_CASES}
        | {f"cands_noisy{seed}" for seed in (1, 2, 3)}
        | {f"predict_{name}" for name in LATTICES}
        | {"noisy1_prior", "noisy1_post_weights", "noisy1_records", "noisy1_dists"}
        | {"noisy1_hypotheses"}
        | {f"bench_{case}_{part}" for case in BENCH_CASES for part in ("report", "grid")}
        | set(CLASSIFY_CASES)
        | {"lift_menu"}
        | set(ENUM_CASES)
        | {f"cands_ripple1d_budget{RIPPLE_BUDGET}"}
    )


def test_ripple1d(golden, ripple_search):
    assert cands_digest(ripple_search[0]) == golden["cands_ripple1d"]
    assert predict_digest("ripple1d", ripple_search[0]) == golden["predict_ripple1d"]


def test_ripple1d_cut_inside_a_level(golden):
    got = cands_digest(search_hyperpolation(ripple1d(), budget=RIPPLE_BUDGET))
    assert got == golden[f"cands_ripple1d_budget{RIPPLE_BUDGET}"]


def test_cone1d(golden, cone_search):
    assert cands_digest(cone_search[0]) == golden["cands_cone1d"]
    assert predict_digest("cone1d", cone_search[0]) == golden["predict_cone1d"]


@pytest.mark.parametrize("name, make", [("cone_axis", cone_axis), ("diagonal", diagonal)])
def test_exact_case(golden, name, make):
    candidates = search_hyperpolation(make())
    assert cands_digest(candidates) == golden[f"cands_{name}"]
    assert predict_digest(name, candidates) == golden[f"predict_{name}"]


def test_noisy_seed_1(golden, noisy1):
    assert cands_digest(noisy1[1]) == golden["cands_noisy1"]
    assert predict_digest("noisy1", noisy1[1]) == golden["predict_noisy1"]


@pytest.mark.parametrize("seed", [2, 3])
def test_noisy_seed(golden, seed):
    assert cands_digest(noisy_search(seed)[1]) == golden[f"cands_noisy{seed}"]


def test_noisy1_posterior(golden, noisy1):
    got = posterior_digests(*noisy1)
    assert got == {key: golden[key] for key in got}


@pytest.mark.parametrize("case", sorted(BENCH_CASES))
def test_bench(golden, case):
    got = bench_digests(case)
    assert got == {key: golden[key] for key in got}


def test_lift_menu(golden):
    assert lift_menu_digest() == golden["lift_menu"]


@pytest.mark.parametrize("name", sorted(ENUM_CASES))
def test_enumeration_order(golden, name):
    assert enum_digest(*ENUM_CASES[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(CLASSIFY_CASES))
def test_classify(golden, name):
    make = CLASSIFY_CASES[name]
    assert per_point_classify_digest(make) == golden[name]
    data, queries = make()  # a fresh Dataset, so that the batch call builds the hull
    assert classify_digest(classify(queries, data)) == golden[name]


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=2))
