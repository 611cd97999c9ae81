"""Vertical/horizontal splitting, fundamental tensors, divergence.

At each point the fiber splits into the anchor kernel and its orthogonal
complement.  The two fundamental tensors of that splitting control the
curvature bookkeeping, and the divergence of the geodesic field (in the
Sasaki metric) reduces to a vertical trace plus a mean-curvature pairing:
nonzero exactly when the vertical algebra fails to be unimodular or the
fibers curve in the horizontal directions.
"""

import numpy as np

from algebroid import catalog
from algebroid.charts import AVector
from algebroid.splitting import (
    divergence_terms,
    leaf_metric_matrix,
    oneill_curvature_check,
    oneill_H_apply,
    oneill_tensors,
    split,
)

np.set_printoptions(precision=6, suppress=True)

heis = catalog.get("heisenberg_central")
x = np.array([0.2, -0.5])
frame = split(heis.chart, heis.metric, x)
print("central extension over the plane at x =", x)
print("  anchor rank:", frame.q, " vertical dim:", frame.vertical_dim)
print("  vertical basis  :", frame.vertical)
print("  horizontal basis:\n", frame.horizontal)

H12 = oneill_H_apply(heis.chart, heis.metric, x, [1, 0, 0], [0, 1, 0])
print("  H(a1, a2) =", H12, " (half the vertical bracket part)")
tensors = oneill_tensors(heis.chart, heis.metric, x)
print("  max |T| =", np.max(np.abs(tensors.T)), " (totally geodesic fibers)")
print("  leaf metric:\n", leaf_metric_matrix(heis.chart, heis.metric, x))

chk = oneill_curvature_check(heis.chart, heis.metric, tensors)
print("  curvature identity residuals: mixed =", chk["curvature_mixed"],
      " horizontal =", chk["curvature_horizontal"])

print("\ndivergence of the geodesic field (trace term + mean curvature term):")
for name, mu in (("aff2", [1.0, 0.0]), ("so3_biinv", [0.4, 0.2, -0.1]),
                 ("heisenberg_central", [1.0, 2.0, 3.0]),
                 ("euclidean2", [1.0, 1.0])):
    entry = catalog.get(name)
    v = AVector(entry.chart.center(), mu)
    tr, mc = divergence_terms(entry.chart, entry.metric, v)
    print(f"  {name:20s} trace={tr:+.6f} mean_curv={mc:+.6f} total={tr + mc:+.6f}")
print("  (the affine algebra is the only non-unimodular entry: its flow"
      " compresses volume)")
