"""Candidate lists pinned byte for byte.

Each digest is the sha256 of ``json.dumps`` of one row per candidate, in
ranked order: ``[serialize(expr), repr(y0), repr(score), repr(residual),
kind]``.  The data are perfbench's ``exact_cases()`` and ``noisy_case(1)``
at budget 5000, and the values are the ``cands_*`` entries of
``BENCH_9.json``.  A change that alters a search output on purpose updates
the pinned value and names the old and new digest in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from hyperpolate import Dataset, search_hyperpolation, serialize

DIGESTS = {
    "ripple1d": "ea260cab6a6ba7e2330532c91e7958ab5254ec1e168f61907d70acfde2ac586b",
    "cone1d": "3bdab9c3b6edcca47dafa91948e6f272c2e190af5b539a640af35ae2549ae8d9",
    "cone_axis": "381d7f37cc154a04c4384e14e158662b36fb8b6ce4eacbd54b8246e0ce75f386",
    "diagonal": "d4dab286eab42949fdb7a5923dcd5f8db8be94b28bc1ba4234d2ed0f88666b5b",
    "noisy1": "26edf727bf1c0356d4c98b16c5fc74417971bab9ee9897a301e95de85e153e8d",
}

X20 = np.arange(-20.0, 21.0)


def digest(candidates):
    rows = [
        [serialize(c.expr), repr(c.y0), repr(c.score), repr(c.residual), c.kind]
        for c in candidates
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def cone_axis():
    return Dataset(np.column_stack([X20, np.ones_like(X20)]), np.sqrt(X20 * X20 + 1.0))


def diagonal():
    return Dataset(np.column_stack([X20, X20]), X20 * X20)


def test_ripple1d(ripple_search):
    assert digest(ripple_search[0]) == DIGESTS["ripple1d"]


def test_cone1d(cone_search):
    assert digest(cone_search[0]) == DIGESTS["cone1d"]


@pytest.mark.parametrize("name, make", [("cone_axis", cone_axis), ("diagonal", diagonal)])
def test_exact_case(name, make):
    assert digest(search_hyperpolation(make())) == DIGESTS[name]


def test_noisy_seed_1():
    rng = np.random.default_rng(1)
    values = np.sqrt(X20 * X20 + 1.0) + 0.01 * rng.standard_normal(X20.size)
    data = Dataset(X20[:, None], values, noise_sigma=0.01)
    assert digest(search_hyperpolation(data, budget=5000)) == DIGESTS["noisy1"]
