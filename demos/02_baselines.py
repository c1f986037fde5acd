"""Baseline ways to predict off the data's line.

The slice is one cross-section of the ripple surface cos(sqrt(x^2 + y^2)),
cut along y = -20.  Nearest-neighbour, extrusion, and the additive rule
each lift the slice differently; none of them can bend the wavefronts, so
their error grows with distance from the slice.
"""

import numpy as np

from hyperpolate import Dataset, fit_method

x = np.arange(-40.0, 41.0)
locations = np.column_stack([x, np.full_like(x, -20.0)])
data = Dataset(locations, np.cos(np.sqrt(x**2 + 400.0)))

# nn_projected and extrusion are one model: the slice interpolant, extruded
models = {
    name: fit_method(name, data)
    for name in ("nn_ambient", "nn_projected", "extrusion", "additive")
}

queries = np.array([[0.0, -20.0], [0.0, -10.0], [0.0, 0.0], [10.0, 5.0]])
truth = np.cos(np.sqrt(queries[:, 0] ** 2 + queries[:, 1] ** 2))

header = "query".ljust(16) + "truth".rjust(9)
for name in models:
    header += name.rjust(14)
print(header)
for i, q in enumerate(queries):
    label = f"({q[0]:g}, {q[1]:g})"
    row = label.ljust(16) + f"{truth[i]:9.4f}"
    for model in models.values():
        row += f"{model.predict(q):14.4f}"
    print(row)

# extrusion is constant along the slice normal by construction
extr = models["extrusion"]
print("\nextrusion at (5, y) for several y:",
      [round(extr.predict([5.0, y]), 6) for y in (-35.0, -20.0, 0.0, 40.0)])
