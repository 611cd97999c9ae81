"""Lie algebroid structure data over a single chart.

A chart is the data of a base dimension n, a fiber rank r, an anchor matrix
b^{si}(x) and bracket coefficients C_{st}^u(x), all analytic expressions in
the chart variables.  Array conventions used throughout the package
(leading axes are evaluation-point batches):

==============  =======================  =========================
quantity        shape                    meaning
==============  =======================  =========================
``B``           (..., r, n)              ``B[s, i] = b^{si}``
``dB``          (..., r, n, n)           ``dB[s, i, m] = d b^{si} / d x_m``
``C``           (..., r, r, r)           ``C[s, t, u] = C_{st}^u``
``dC``          (..., r, r, r, n)        ``dC[s, t, u, m] = d C_{st}^u / d x_m``
==============  =======================  =========================

Bracket coefficients are stored for index pairs s < t only and mirrored
with a sign on evaluation, so the antisymmetry C_{st}^u = -C_{ts}^u holds
to the bit.  A Lie algebra is encoded as a chart with n = 1 and zero
anchor; every field is then constant and base paths degenerate to points.

B and C are evaluated by one `~algebroid.expressions.Program` per chart,
built on first use and shared with every connection of the chart:
constant entries and constant partials sit in templates that every
evaluation copies, the other entries are computed per call and scattered
over them, and an array that no entry touches is known to vanish
(`has_zero_anchor`, `is_constant`).

Charts are immutable after construction and all operations here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import Expression, Program, parse
from .sampling import AnchorError, sample_box

__all__ = [
    "AlgebroidChart",
    "AVector",
    "BracketError",
    "SectionField",
    "ValidationCheck",
    "ValidationReport",
    "anchor_apply",
    "bracket_sections",
    "validate",
]

TOL_ANTISYMMETRY = 1e-12  # exact by construction: the bracket is stored for s < t and mirrored
TOL_AXIOMS = 1e-9  # the anchor morphism and the Jacobi identity


class ChartError(ValueError):
    """Structural problems in chart data."""


class BracketError(ValueError):
    """Bracket products not finite where a check needs them."""


def _as_expression(obj, n):
    if isinstance(obj, Expression):
        if obj.n != n:
            raise ChartError(f"expression arity {obj.n} does not match chart n={n}")
        return obj
    return parse(str(obj), n)


@dataclass(frozen=True, eq=False)
class AlgebroidChart:
    """Structure functions of a Lie algebroid over one chart.

    Parameters
    ----------
    n, r : int
        Base dimension and fiber rank (both >= 1).
    b : sequence of r rows of n expressions
        Anchor matrix; entry (s, i) is b^{si} in #a_s = sum_i b^{si} d/dx_i.
    c_upper : dict
        Bracket coefficients, keyed by 1-based (s, t, u) with s < t; values
        are expressions (or strings).  Omitted entries are zero.
    domain : sequence of n (lo, hi) pairs
        Box used for sampling and for bounds checks during integration.
    """

    n: int
    r: int
    b: tuple
    c_upper: dict
    domain: np.ndarray

    def __init__(self, n, r, b, c_upper=None, domain=None):
        if n < 1 or r < 1:
            raise ChartError("need n >= 1 and r >= 1")
        rows = []
        if len(b) != r:
            raise ChartError(f"anchor matrix must have {r} rows, got {len(b)}")
        for row in b:
            if len(row) != n:
                raise ChartError(f"anchor row must have {n} entries, got {len(row)}")
            rows.append(tuple(_as_expression(e, n) for e in row))
        entries = {}
        for key, value in (c_upper or {}).items():
            s, t, u = key
            if not (1 <= s <= r and 1 <= t <= r and 1 <= u <= r):
                raise ChartError(f"bracket index {key} out of range for rank {r}")
            if s >= t:
                raise ChartError(
                    f"bracket entry {key}: only s < t entries are accepted "
                    "(the rest is filled by antisymmetry)"
                )
            entries[(s - 1, t - 1, u - 1)] = _as_expression(value, n)
        if domain is None:
            domain = [(-1.0, 1.0)] * n
        dom = np.asarray(domain, dtype=float)
        if dom.shape != (n, 2) or not np.all(np.isfinite(dom)) or np.any(dom[:, 0] >= dom[:, 1]):
            raise ChartError("domain must be n pairs of finite lo < hi")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "b", tuple(rows))
        object.__setattr__(self, "c_upper", dict(entries))
        object.__setattr__(self, "domain", dom)

    # -- evaluation ---------------------------------------------------------

    def _declare(self, prog):
        """Add the groups B (order 1) and C (order 1) to a program; returns
        their group numbers."""
        b = [(e, [((s, i), 1)]) for s, row in enumerate(self.b) for i, e in enumerate(row)]
        c = [(e, [((s, t, u), 1), ((t, s, u), -1)]) for (s, t, u), e in self.c_upper.items()]
        return (
            prog.add_group((self.r, self.n), 1, b),
            prog.add_group((self.r, self.r, self.r), 1, c),
        )

    def eval_anchor(self, points, order=0):
        """Anchor matrix B (..., r, n) and optionally dB (..., r, n, n)."""
        B, dB, _ = Program.of(self).run(np.asarray(points, dtype=float), (order, None))[0]
        return B, dB

    def eval_bracket(self, points, order=0):
        """Coefficients C (..., r, r, r) and optionally dC (..., r, r, r, n)."""
        C, dC, _ = Program.of(self).run(np.asarray(points, dtype=float), (None, order))[1]
        return C, dC

    # -- convenience --------------------------------------------------------

    @property
    def has_zero_anchor(self):
        return Program.of(self).is_zero(0)

    @property
    def is_constant(self):
        prog = Program.of(self)
        return prog.constant(0) is not None and prog.constant(1) is not None

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.domain[:, 0]) and np.all(x <= self.domain[:, 1]))

    def center(self):
        return 0.5 * (self.domain[:, 0] + self.domain[:, 1])


@dataclass(frozen=True, eq=False)
class AVector:
    """A fiber vector: base point x with fiber coordinates mu."""

    x: np.ndarray
    mu: np.ndarray

    def __init__(self, x, mu):
        object.__setattr__(self, "x", np.asarray(x, dtype=float))
        object.__setattr__(self, "mu", np.asarray(mu, dtype=float))


@dataclass(frozen=True, eq=False)
class SectionField:
    """A section x -> sum_s f_s(x) a_s given by r component expressions."""

    components: tuple
    n: int

    def __init__(self, components, n):
        comps = tuple(_as_expression(c, n) for c in components)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "n", n)

    @classmethod
    def constant(cls, vec, n):
        return cls([repr(float(v)) for v in vec], n)

    @classmethod
    def basis(cls, k, r, n):
        """The constant basis section a_k (1-based k)."""
        return cls.constant(np.eye(r)[k - 1], n)

    @property
    def r(self):
        return len(self.components)

    def _declare(self, prog):
        prog.add_group((self.r,), 1, [(e, [((k,), 1)]) for k, e in enumerate(self.components)])

    def eval_raw(self, points, order=0):
        """Components (..., r) and optionally their gradients (..., r, n)."""
        vals, grads, _ = Program.of(self).run(np.asarray(points, dtype=float), (order,))[0]
        return vals, grads

    def evaluate(self, x):
        return self.eval_raw(np.asarray(x, dtype=float))[0]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def anchor_apply(chart, v: AVector):
    """Tangent components of #(v): t_i = sum_s mu_s b^{si}(x)."""
    B, _ = chart.eval_anchor(v.x)
    return np.einsum("s,si->i", v.mu, B)


def bracket_sections(chart, f: SectionField, g: SectionField, x):
    """Fiber coordinates of [f, g] at x.

    Expands the Leibniz rule over the basis:
    [f, g]^u = sum_{s,t} f_s g_t C_{st}^u + #(f)(g_u) - #(g)(f_u).
    """
    x = np.asarray(x, dtype=float)
    fv, fg = f.eval_raw(x, order=1)
    gv, gg = g.eval_raw(x, order=1)
    B, _ = chart.eval_anchor(x)
    C, _ = chart.eval_bracket(x)
    quad = np.einsum("s,t,stu->u", fv, gv, C)
    adv = np.einsum("s,si,ui->u", fv, B, gg) - np.einsum("s,si,ui->u", gv, B, fg)
    return quad + adv


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationCheck:
    name: str
    indices: tuple
    residual: float
    tolerance: float
    point: np.ndarray

    @property
    def passed(self):
        return self.residual < self.tolerance


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def worst(self, name):
        rows = [c for c in self.checks if c.name == name]
        return max(rows, key=lambda c: c.residual) if rows else None


def _finite(error, name, product, pts):
    """`product` (one row per sample point), checked before any residual is
    formed from it: raises `error` naming the product and the first sample
    point where it is not finite (an entry or a product of two overflows)."""
    bad = ~np.isfinite(product.reshape(len(pts), -1)).all(axis=1)
    if bad.any():
        raise error(f"{name} not finite at x={pts[bad][0]}")
    return product


def _jacobiator(quad, adv):
    """J[..., s, t, u, v] of the cyclic bracket identity on basis triples.

    One cyclic slot is [[a_s, a_t], a_u]^v expanded through the Leibniz
    rule: quad - adv, with quad = sum_m C_{st}^m C_{mu}^v and
    adv = #(a_u)(C_{st}^v).
    """
    t0 = quad - adv
    t1 = np.einsum("...abcv->...cabv", t0)  # slot (t, u, s)
    t2 = np.einsum("...abcv->...bcav", t0)  # slot (u, s, t)
    return t0 + t1 + t2


def validate(chart, samples=200, seed=42) -> ValidationReport:
    """Check the algebroid axioms on quasi-random sample points.

    Reports the worst residual over the samples for (a) antisymmetry of C,
    (b) the anchor being a bracket morphism, (c) the Jacobi identity on
    basis triples.  The report passes iff (a) is below TOL_ANTISYMMETRY
    and (b) and (c) below TOL_AXIOMS.  Raises AnchorError (a product of
    (b)) or BracketError (a product of (c)), naming the product and the
    first such point, where a structure product is not finite.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    pts = sample_box(chart.domain, samples, seed)
    B, dB = chart.eval_anchor(pts, order=1)
    C, dC = chart.eval_bracket(pts, order=1)
    # #[a_s,a_t] = [#a_s, #a_t] in coordinates
    push = _finite(AnchorError, "anchor product C b", np.einsum("...stu,...uk->...stk", C, B), pts)
    lie_st = _finite(AnchorError, "anchor product b db", np.einsum("...sm,...tkm->...stk", B, dB), pts)
    lie_ts = np.einsum("...tm,...skm->...stk", B, dB)  # lie_st with s, t swapped
    quad = _finite(BracketError, "bracket product C C", np.einsum("...stm,...muv->...stuv", C, C), pts)
    adv = _finite(BracketError, "bracket product b dC", np.einsum("...ui,...stvi->...stuv", B, dC), pts)

    def worst(name, residuals, tolerance):
        # the sample axis comes first; the indices of the others are 1-based
        k = np.unravel_index(np.argmax(residuals), residuals.shape)
        indices = tuple(int(i) + 1 for i in k[1:])
        return ValidationCheck(name, indices, float(residuals[k]), tolerance, pts[k[0]])

    report = ValidationReport()
    antisymmetry = np.abs(C + np.swapaxes(C, -3, -2))
    report.checks.append(worst("antisymmetry", antisymmetry, TOL_ANTISYMMETRY))
    report.checks.append(worst("anchor_morphism", np.abs(push - (lie_st - lie_ts)), TOL_AXIOMS))

    jac = np.abs(_jacobiator(quad, adv))
    # only strict triples s < t < u carry information
    s, t, u = np.ogrid[: chart.r, : chart.r, : chart.r]
    mask = np.broadcast_to(((s < t) & (t < u))[..., None], jac.shape[1:])
    if mask.any():
        report.checks.append(worst("jacobi", np.where(mask, jac, 0.0), TOL_AXIOMS))
    else:
        report.checks.append(ValidationCheck("jacobi", (), 0.0, TOL_AXIOMS, pts[0]))
    return report
