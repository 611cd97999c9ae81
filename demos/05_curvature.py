"""Connection coefficients and curvature.

The coefficients follow the metric/bracket closed form; their space
derivatives are exact (second-order forward mode), so curvature carries no step-size
parameter.  Two classical checks: the round-sphere chart has sectional
curvature 1, and a bi-invariant metric halves the structure constants.
"""

import numpy as np

from algebroid import catalog
from algebroid.metric import christoffel, curvature, sectional_curvature

np.set_printoptions(precision=6, suppress=True)

so3 = catalog.get("so3_biinv")
ch = christoffel(so3.chart, so3.metric, np.array([0.0]))
C, _ = so3.chart.eval_bracket(np.array([0.0]))
print("bi-invariant rotation algebra: max |Gamma - C/2| =",
      np.max(np.abs(ch.gamma - 0.5 * C)))

sphere = catalog.get("sphere_chart")
for x in (np.array([np.pi / 3, 1.0]), np.array([1.2, 4.0]), np.array([2.6, 0.5])):
    K = sectional_curvature(sphere.chart, sphere.metric, x, [1.0, 0.0], [0.0, 1.0])
    print(f"sphere chart K at x = {x}: {K:.12f}")

heis = catalog.get("heisenberg_central")
x = np.array([0.0, 0.0])
R = curvature(heis.chart, heis.metric, x)
print("\ncentral extension over the plane:")
print("  <R(a1,a2)a1, a2> =", R[0, 1, 0, 1])
print("  K(a1, a2)        =",
      sectional_curvature(heis.chart, heis.metric, x, [1, 0, 0], [0, 1, 0]))
print("  (the leaf is flat; the -3/4 comes entirely from the vertical twist)")

aff2 = catalog.get("aff2")
ch = christoffel(aff2.chart, aff2.metric, np.array([0.0]))
print("\naffine line algebra, nonzero coefficients:")
for i in range(2):
    for j in range(2):
        for k in range(2):
            if ch.gamma[i, j, k] != 0:
                print(f"  Gamma_{i+1}{j+1}^{k+1} = {ch.gamma[i, j, k]:+.1f}")
