"""All polation is Bayesian inference over a hypothesis family.

Simplicity sets the prior (weights proportional to 2^-score), the samples
update it, and any query point gets a predictive mixture.  The two mirror
ripples restrict identically to the slice, so they keep equal posterior
weight: on the symmetry axis the prediction collapses to a point mass,
elsewhere it stays honestly bimodal.
"""

import numpy as np

from hyperpolate import (
    Dataset,
    family_from_candidates,
    predict,
    search_hyperpolation,
    top_tie_set,
    update,
)

x = np.arange(-40.0, 41.0)
data = Dataset(x[:, None], np.cos(np.sqrt(x**2 + 400.0)))

print("searching for ripple liftings (about half a minute)...")
pair = top_tie_set(search_hyperpolation(data))
family = family_from_candidates(pair)
posterior = update(family, data)

print("\nposterior over the mirror pair:")
for record in posterior.to_records(data):
    print(f"  {record['expr']:<45} weight={record['weight']:.3f}")

queries = ([0.0, 0.0], [0.0, 10.0])
for point, dist in zip(queries, predict(posterior, np.array(queries))):
    atoms = ", ".join(
        f"{v:+.4f} (w={w:.2f})" for v, w in zip(dist.values, dist.weights)
    )
    print(f"\nprediction at {point}: {atoms}")
    print(f"  mean={dist.mean:+.4f}  map={dist.map_value:+.4f}")
