"""Built-in example algebroids with known closed-form behavior.

Every entry passes the axiom validation to machine precision, and every
expected value stated in an entry's notes is covered by a test in the
module that owns the operation.  Lie algebras are encoded over a
one-dimensional dummy base with zero anchor, so base paths of vertical
flows are constant without any special casing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import AlgebroidChart
from .metric import MetricField

__all__ = ["CatalogEntry", "get", "names", "mutants", "twisted"]

_PI = 3.141592653589793


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    chart: AlgebroidChart
    metric: MetricField
    notes: str


def _euclidean2():
    chart = AlgebroidChart(
        n=2,
        r=2,
        b=[["1", "0"], ["0", "1"]],
        c_upper={},
        domain=[(-3.0, 3.0), (-3.0, 3.0)],
    )
    return CatalogEntry(
        "euclidean2",
        chart,
        MetricField.identity(2, 2),
        "Flat plane as its own tangent algebroid: identity anchor, zero "
        "bracket, identity metric.  Straight-line geodesics, zero "
        "connection coefficients, zero curvature, empty vertical space.",
    )


def _sphere_chart():
    chart = AlgebroidChart(
        n=2,
        r=2,
        b=[["1", "0"], ["0", "1"]],
        c_upper={},
        domain=[(0.1, _PI - 0.1), (0.1, 2 * _PI - 0.1)],
    )
    metric = MetricField({(1, 1): "1", (2, 2): "sin(x1)^2"}, r=2, n=2)
    return CatalogEntry(
        "sphere_chart",
        chart,
        metric,
        "Round unit sphere in colatitude/longitude coordinates, shrunk "
        "away from the poles and the seam.  Sectional curvature 1; "
        "the equator-type circles x1 = pi/2 are unit-speed geodesics "
        "with x2 advancing linearly; normal fields along them are "
        "parallel.",
    )


def _so3_biinv():
    # cyclic constants; the (3,1,2) one enters as C_{13}^2 = -1 (s < t storage)
    chart = AlgebroidChart(
        n=1,
        r=3,
        b=[["0"], ["0"], ["0"]],
        c_upper={(1, 2, 3): "1", (2, 3, 1): "1", (1, 3, 2): "-1"},
        domain=[(-1.0, 1.0)],
    )
    return CatalogEntry(
        "so3_biinv",
        chart,
        MetricField.identity(3, 1),
        "The rotation Lie algebra with its bi-invariant scalar product. "
        "Connection coefficients are half the structure constants, the "
        "geodesic field vanishes identically (fiber coordinates are "
        "constant in time), and the algebra is unimodular so the "
        "geodesic flow is divergence free.",
    )


def _aff2():
    chart = AlgebroidChart(
        n=1,
        r=2,
        b=[["0"], ["0"]],
        c_upper={(1, 2, 2): "1"},
        domain=[(-1.0, 1.0)],
    )
    return CatalogEntry(
        "aff2",
        chart,
        MetricField.identity(2, 1),
        "The affine line Lie algebra [e1, e2] = e2 with the flat metric. "
        "Nonzero coefficients: Gamma_{21}^2 = -1, Gamma_{22}^1 = 1.  Not "
        "unimodular: Tr ad_{e1} = 1, so the geodesic flow has divergence "
        "mu1 at (mu1, mu2).",
    )


def _heisenberg_central():
    chart = AlgebroidChart(
        n=2,
        r=3,
        b=[["1", "0"], ["0", "1"], ["0", "0"]],
        c_upper={(1, 2, 3): "1"},
        domain=[(-2.0, 2.0), (-2.0, 2.0)],
    )
    return CatalogEntry(
        "heisenberg_central",
        chart,
        MetricField.identity(3, 2),
        "Transitive rank-3 algebroid over the plane with a central "
        "vertical direction a3 = [a1, a2].  The splitting has "
        "vertical = span(a3); the horizontal-horizontal tensor gives "
        "H_{a1} a2 = a3/2 while T vanishes, the induced leaf metric is "
        "the identity, and K(a1, a2) = -3/4.",
    )


def _foliation_xy():
    chart = AlgebroidChart(
        n=3,
        r=2,
        b=[["1", "0", "0"], ["0", "1", "0"]],
        c_upper={},
        domain=[(-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)],
    )
    return CatalogEntry(
        "foliation_xy",
        chart,
        MetricField.identity(2, 3),
        "Integrable horizontal-plane subbundle of the tangent bundle of "
        "3-space: injective anchor, zero kernel, flat leaves.",
    )


_BUILDERS = {
    "euclidean2": _euclidean2,
    "sphere_chart": _sphere_chart,
    "so3_biinv": _so3_biinv,
    "aff2": _aff2,
    "heisenberg_central": _heisenberg_central,
    "foliation_xy": _foliation_xy,
}


def names():
    return sorted(_BUILDERS)


def get(name) -> CatalogEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; available: {', '.join(names())}"
        ) from None
    return builder()


def twisted() -> CatalogEntry:
    """The twisted chart with the identity metric.

    Kept out of `names()` and `get()`: the acceptance criteria, the CLI's
    `--catalog` and the benchmark's task set read those.
    """
    chart = AlgebroidChart(
        n=2,
        r=3,
        b=[["1", "0"], ["x1", "1"], ["0", "0"]],
        c_upper={(1, 2, 1): "1", (1, 3, 3): "x2", (2, 3, 3): "x1*x2 + x1"},
        domain=[(0.5, 1.5), (0.5, 1.5)],
    )
    return CatalogEntry(
        "twisted",
        chart,
        MetricField.identity(3, 2),
        "Rank-3 algebroid over the plane with non-constant anchor and "
        "bracket: the frame a1 = d/dx1, a2 = x1 d/dx1 + d/dx2 of the tangent "
        "bundle plus a central line rescaled by exp(x1*x2), so that "
        "[a1, a2] = a1, [a1, a3] = x2 a3 and [a2, a3] = (x1*x2 + x1) a3.  "
        "Its Jacobi identity balances the quadratic terms against the anchor "
        "derivatives of the structure functions.  No closed-form flows.",
    )


def mutants():
    """Deliberately defective variants of heisenberg_central.

    ``bad_bracket`` adds the spurious coefficient C_{13}^1 = 1: the Jacobi
    identity fails on the triple (1,2,3) with residual 1 and the anchor
    stops being a bracket morphism at (s,t) = (1,3) with residual 1.
    ``bad_anchor`` instead gives a3 the anchor d/dx1: the bracket table is
    still a Lie algebra (Jacobi passes) but #[a1,a2] = #a3 differs from
    [#a1, #a2] = 0, so the morphism axiom fails at (1,2) with residual 1.
    """
    bad_bracket = AlgebroidChart(
        n=2,
        r=3,
        b=[["1", "0"], ["0", "1"], ["0", "0"]],
        c_upper={(1, 2, 3): "1", (1, 3, 1): "1"},
        domain=[(-2.0, 2.0), (-2.0, 2.0)],
    )
    bad_anchor = AlgebroidChart(
        n=2,
        r=3,
        b=[["1", "0"], ["0", "1"], ["1", "0"]],
        c_upper={(1, 2, 3): "1"},
        domain=[(-2.0, 2.0), (-2.0, 2.0)],
    )
    return {"bad_bracket": bad_bracket, "bad_anchor": bad_anchor}
