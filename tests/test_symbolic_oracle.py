"""Gamma, dGamma and R against a symbolic derivation with sympy.

The reference route shares no code with `christoffel` / `curvature`: the
chart and metric expressions are re-parsed by sympy from their printed
form, differentiated symbolically, the metric is inverted symbolically,
and the Koszul formula and the curvature of R(a,b)s = D_a D_b s - D_b D_a s
- D_[a,b] s are written out as plain index loops.  The package route uses
its expression programs and tensor contractions; the reference route
never runs a program.
"""

import numpy as np
import pytest

from algebroid import catalog
from algebroid.expressions import Program
from algebroid.metric import MetricField, christoffel, curvature
from algebroid.sampling import sample_box

sp = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import parse_expr  # noqa: E402

TOL_REL = 1e-12


def _sym(expr, xs):
    # the package grammar writes powers as ^; its precedence and right
    # associativity match Python's **
    names = {f"x{i + 1}": x for i, x in enumerate(xs)}
    return parse_expr(str(expr).replace("^", "**"), local_dict=names)


def symbolic_connection(chart, metric):
    """Lambdified Gamma[i][j][k], dGamma[i][j][k][m] and R[i][j][k][l]."""
    n, r = chart.n, chart.r
    xs = sp.symbols(f"x1:{n + 1}")
    b = [[_sym(chart.b[s][i], xs) for i in range(n)] for s in range(r)]
    C = [[[sp.Integer(0)] * r for _ in range(r)] for _ in range(r)]
    for (s, t, u), expr in chart.c_upper.items():
        C[s][t][u] = _sym(expr, xs)
        C[t][s][u] = -C[s][t][u]
    g = sp.zeros(r, r)
    for (i, j), expr in metric.entries.items():
        g[i, j] = g[j, i] = _sym(expr, xs)
    ginv = g.inv()

    def anchor(s, f):
        return sum(b[s][i] * sp.diff(f, xs[i]) for i in range(n))

    koszul = [[[anchor(i, g[j, l]) + anchor(j, g[i, l]) - anchor(l, g[i, j])
                + sum(C[i][j][u] * g[u, l] + C[l][i][u] * g[u, j] + C[l][j][u] * g[u, i]
                      for u in range(r))
                for l in range(r)] for j in range(r)] for i in range(r)]
    gamma = [[[sum(koszul[i][j][l] * ginv[l, k] for l in range(r)) / 2
               for k in range(r)] for j in range(r)] for i in range(r)]
    dgamma = [[[[sp.diff(gamma[i][j][k], xs[m]) for m in range(n)]
                for k in range(r)] for j in range(r)] for i in range(r)]
    # D_{a_i} (f a_t) = #(a_i)(f) a_t + f Gamma_{it}^p a_p, applied to D_{a_j} a_k
    R = [[[[anchor(i, gamma[j][k][l]) - anchor(j, gamma[i][k][l])
            + sum(gamma[j][k][m] * gamma[i][m][l] - gamma[i][k][m] * gamma[j][m][l]
                  - C[i][j][m] * gamma[m][k][l] for m in range(r))
            for l in range(r)] for k in range(r)] for j in range(r)] for i in range(r)]
    return [sp.lambdify(xs, t, "math") for t in (gamma, dgamma, R)]


def _cases():
    for name in catalog.names():
        entry = catalog.get(name)
        yield name, entry.chart, entry.metric
    yield "twisted", catalog.twisted().chart, catalog.twisted().metric
    # non-constant anchor and bracket under a non-constant, non-diagonal
    # metric: the only case in which every term of dGamma is nonzero
    varying = {(1, 1): "2 + x1*x2", (1, 2): "0.3*x2", (2, 2): "1.5", (3, 3): "exp(x1)"}
    yield "twisted_varying_metric", catalog.twisted().chart, MetricField(varying, 3, 2)


CASES = {name: (chart, metric) for name, chart, metric in _cases()}


def _no_program(*args, **kwargs):
    raise AssertionError("the symbolic reference route ran an expression program")


@pytest.mark.parametrize("name", sorted(CASES))
def test_christoffel_and_curvature_match_sympy(name, monkeypatch):
    chart, metric = CASES[name]
    pts = sample_box(chart.domain, 5, seed=21, shrink=0.05)
    with monkeypatch.context() as m:
        m.setattr(Program, "run", _no_program)
        refs = symbolic_connection(chart, metric)
        wants = [np.array([ref(*p) for p in pts], dtype=float) for ref in refs]
    ch = christoffel(chart, metric, pts)
    R = curvature(chart, metric, pts)
    for got, want in zip((ch.gamma, ch.dgamma, R), wants):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= TOL_REL * scale
