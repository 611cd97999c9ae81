"""Analytic scalar fields: parsing and exact derivatives.

Fields over a chart are plain text expressions in x1..xn.  One evaluation
returns the value together with the exact gradient and Hessian (exact
second-order chain rules, one array per partial), which is what keeps
every curvature quantity downstream free of finite-difference tuning.
"""

import numpy as np

from algebroid.expressions import parse

np.set_printoptions(precision=6, suppress=True)

f = parse("sin(x1)^2 * exp(-x2) + x1*x2", 2)
print("field      :", f)
print("round trip :", parse(str(f), 2) == f)

x = np.array([0.8, -0.4])
res = f.evaluate(x)
print("\nat x =", x)
print("value   :", res.value)
print("gradient:", res.gradient)
print("hessian :\n", res.hessian)

# central finite differences as an external sanity check
h = 1e-6
fd = [(f.values(x + e) - f.values(x - e)) / (2 * h) for e in np.eye(2) * h]
print("\nFD gradient     :", np.array(fd))
print("max discrepancy :", np.max(np.abs(np.array(fd) - res.gradient)))

print("\nhessian symmetry (exact by construction):",
      np.max(np.abs(res.hessian - res.hessian.T)))

# parse errors carry positions
try:
    parse("x1 + x7", 2)
except Exception as exc:
    print("\nbad input is rejected:", exc)
