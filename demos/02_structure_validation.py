"""Structure data and the algebroid axioms.

A chart is (n, r, anchor matrix, bracket coefficients, domain box).  The
validator samples quasi-random points and reports the worst residual of
antisymmetry, the anchor-morphism property and the Jacobi identity; a
correct chart sits at machine zero, a broken one is flagged with the
offending indices.
"""

from algebroid import catalog
from algebroid.charts import validate

for name in catalog.names():
    entry = catalog.get(name)
    report = validate(entry.chart, samples=200, seed=42)
    worst = max(c.residual for c in report.checks)
    print(f"{name:20s} n={entry.chart.n} r={entry.chart.r} "
          f"pass={report.passed} worst_residual={worst:.2e}")

print("\nDeliberately broken variants of heisenberg_central:")
for name, chart in catalog.mutants().items():
    report = validate(chart, samples=100, seed=42)
    print(f"  {name}:")
    for check in report.checks:
        flag = "ok " if check.passed else "BAD"
        print(f"    [{flag}] {check.name:16s} residual={check.residual:.3f} "
              f"at indices {check.indices}")
