"""Two-parameter families: defects, homotopies, variation formulas.

The defect Delta of a transverse family lies in the anchor kernel; the
distinguished family with zero defect turns geodesic pencils into Jacobi
sections and fixed-endpoint families into energy-critical ones.  The mixed
second-derivative identity closes the loop against the curvature tensor,
converging at second order in the mesh.
"""

import numpy as np

from algebroid import catalog
from algebroid.charts import AVector
from algebroid.paths import geodesic_integrate
from algebroid.variations import (
    PENCIL_EPS_STEP,
    anchor_of_grid,
    curvature_commutation_residual,
    delta,
    first_variation_residual,
    jacobi_from_geodesic_pencil,
    make_fixed_endpoint_homotopy,
    make_geodesic_pencil,
    row_energies,
    solve_transverse,
)

np.set_printoptions(precision=6, suppress=True)

heis = catalog.get("heisenberg_central")
chart, metric = heis.chart, heis.metric
a = AVector([-0.3, 0.1], [0.5, 0.4, 0.2])
u = np.array([0.2, -0.3, 0.4])

eps = PENCIL_EPS_STEP * np.arange(-2, 3)
pencil = make_geodesic_pencil(chart, metric, a, u, eps, (0.0, 1.0), 2e-3)
solved = solve_transverse(chart, metric, pencil, np.zeros((5, 3)))
deviation = jacobi_from_geodesic_pencil(chart, metric, solved, u)
print("geodesic pencil vs Jacobi equation: max deviation =", deviation)

d = delta(chart, solved)
print("defect of the distinguished family:", np.max(np.abs(d[1:-1, 1:-1])))
anchored = anchor_of_grid(chart, solved, d)
print("anchor applied to the defect     :", np.max(np.abs(anchored[1:-1, 1:-1])))

path = geodesic_integrate(chart, metric, a, (0.0, 1.0), 2e-3)
homotopy = make_fixed_endpoint_homotopy(chart, metric, path, [1.0, 0.5, 0.25])
res = first_variation_residual(chart, metric, homotopy)
E = row_energies(chart, metric, homotopy)
dE = np.gradient(E, homotopy.eps, edge_order=2)[len(homotopy.eps) // 2]
print("\nfixed-endpoint family around a geodesic:")
print("  first-variation identity residual:", res)
print("  dE/deps at the geodesic (criticality):", dE)

print("\nmixed-derivative identity, mesh refinement:")
prev = None
for N in (21, 41, 81):
    grid_eps = np.linspace(-0.05, 0.05, N)
    g = make_geodesic_pencil(chart, metric, a, u, grid_eps, (0.0, 1.0), 1.0 / (N - 1))
    sv = solve_transverse(chart, metric, g, np.zeros((N, 3)))
    tt, ee = np.meshgrid(g.ts, grid_eps)
    s = np.stack([np.sin(1 + 0.7 * k + tt + 0.5 * ee) for k in range(3)], axis=-1)
    r = curvature_commutation_residual(chart, metric, sv, s)
    note = "" if prev is None else f"  (order {np.log2(prev / r):.2f})"
    print(f"  {N:3d}x{N:<3d} nodes: residual {r:.3e}{note}")
    prev = r
