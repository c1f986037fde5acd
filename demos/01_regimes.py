"""Where does a query live: inside the data, along it, or off it entirely?

Samples on a 1D line inside the 2D plane split queries into four regimes:
autopolation (a known location), interpolation (inside the convex hull),
extrapolation (on the line but outside the hull), and hyperpolation (off
the line altogether).
"""

import numpy as np

from hyperpolate import Dataset, classify, hyperpolation_distance

data = Dataset(
    locations=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    values=[1.0, 3.0, 5.0],
)

queries = np.array([
    (0.5, 0.0),   # between samples, on the line
    (5.0, 0.0),   # beyond the samples, still on the line
    (0.5, 2.0),   # off the line: no amount of mixing samples reaches it
    (1.0, 0.0),   # exactly a sample location
])

# an (n, dim) array classifies and measures every query in one call
regimes = classify(queries, data)
dists = hyperpolation_distance(queries, data)

print(f"{'query':>12}  {'regime':<14} {'off-hull distance':>18}")
for q, regime, dist in zip(queries, regimes, dists):
    print(f"{str(tuple(q.tolist())):>12}  {regime.tag:<14} {dist:>18.3f}")

# Interpolation verdicts come with a convex-weight witness:
regime = classify((0.5, 0.0), data)
print("\nwitness weights for (0.5, 0):", np.round(regime.weights, 6))
print("reconstruction:", regime.weights @ data.locations)
