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
over them, an array that no entry touches is known to vanish
(`has_zero_anchor`), and an array that no point changes is known to be
constant (`~algebroid.expressions.Program.constant`).

Charts are immutable after construction and all operations here are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailure, InputError
from .expressions import Expression, Program, parse
from .sampling import AnchorError, _finite, sample_box

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
VALIDATE_FLOATS = 2**22  # floats a chunk of `validate`'s samples may take per structure product


class ChartError(InputError):
    """Structural problems in chart data."""


class BracketError(CheckFailure, ValueError):
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

    def _declare(self, prog, order=1, at=None):
        """Add the groups B and C, of order 1 or `order`, to a program, at
        the coordinates or the slots `at` (`Program.add_group`); returns
        their group numbers."""
        b = [(e, [((s, i), 1)]) for s, row in enumerate(self.b) for i, e in enumerate(row)]
        c = [(e, [((s, t, u), 1), ((t, s, u), -1)]) for (s, t, u), e in self.c_upper.items()]
        return (
            prog.add_group((self.r, self.n), order, b, at=at),
            prog.add_group((self.r, self.r, self.r), order, c, at=at),
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
        """The constant section sum_s vec_s a_s, for the section-layer oracle tests."""
        return cls([repr(float(v)) for v in vec], n)

    @classmethod
    def basis(cls, k, r, n):
        """The constant basis section a_k (1-based k), for the section-layer oracle tests."""
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
        """The check of that name with the largest residual; acceptance 09 reads it."""
        rows = [c for c in self.checks if c.name == name]
        return max(rows, key=lambda c: c.residual) if rows else None


def validate(chart, samples=200, seed=42) -> ValidationReport:
    """Check the algebroid axioms on quasi-random sample points.

    Reports the worst residual over the samples for (a) antisymmetry of C,
    (b) the anchor being a bracket morphism, on the pairs s < t, (c) the
    Jacobi identity, on the triples s < t < u: the other index tuples
    repeat these up to sign or vanish.  An axiom with no such tuple (r = 1
    for (b), r < 3 for (c)) reports residual 0 with no indices.  The
    report passes iff (a) is below TOL_ANTISYMMETRY and (b) and (c) below
    TOL_AXIOMS.  Raises AnchorError (a product of (b)) or BracketError (a
    product of (c)), naming the product and the first such point, where a
    structure product is not finite.

    The samples are taken in order, in chunks of VALIDATE_FLOATS / (r^3 (r + n))
    points, so no product holds much more than VALIDATE_FLOATS floats; an
    axiom keeps its first worst entry, as one pass over all samples would,
    and a non-finite product is named in the first chunk that has one.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    pts = sample_box(chart.domain, samples, seed)
    r = chart.r
    s, t = np.triu_indices(r, 1)
    triples = list(itertools.combinations(range(r), 3))
    i, j, k = np.array(triples, dtype=int).reshape(-1, 3).T
    pair = np.zeros((r, r), dtype=int)
    pair[s, t] = np.arange(len(s))
    tuples = (list(np.ndindex(r, r)), list(zip(s, t)), triples)
    worst = ([], [], [])  # per axiom, one (residual, sample, 0-based indices) per chunk
    chunk = max(1, VALIDATE_FLOATS // (r**3 * (r + chart.n)))
    for lo in range(0, samples, chunk):
        x = pts[lo:lo + chunk]
        B, dB = chart.eval_anchor(x, order=1)
        C, dC = chart.eval_bracket(x, order=1)
        # #[a_s,a_t] = [#a_s, #a_t] in coordinates
        push = _finite(AnchorError, "anchor product C b", np.einsum("...stu,...uk->...stk", C, B), x)
        lie = _finite(AnchorError, "anchor product b db", np.einsum("...sm,...tkm->...stk", B, dB), x)
        # one cyclic slot [[a_s, a_t], a_u]^v per pair s < t, through the Leibniz
        # rule: sum_m C_{st}^m C_{mu}^v - #(a_u)(C_{st}^v)
        slot = _finite(BracketError, "bracket product C C", np.einsum("...pm,...muv->...puv", C[:, s, t], C), x)
        slot -= _finite(BracketError, "bracket product b dC", np.einsum("...ui,...pvi->...puv", B, dC[:, s, t]), x)
        antisymmetry = np.abs(C + np.swapaxes(C, -3, -2)).reshape(len(x), r * r, r)
        morphism = np.abs(push[:, s, t] - (lie[:, s, t] - lie[:, t, s]))
        # slot(u, s, t) = -slot(s, u, t) to the bit, as C is mirrored with its sign
        jacobi = np.abs((slot[:, pair[i, j], k] + slot[:, pair[j, k], i]) - slot[:, pair[i, k], j])
        for rows, residuals, tup in zip(worst, (antisymmetry, morphism, jacobi), tuples):
            if residuals.size:  # (samples, tuples, last index)
                p, e, m = np.unravel_index(np.argmax(residuals), residuals.shape)
                rows.append((float(residuals[p, e, m]), lo + p, (*tup[e], m)))

    report = ValidationReport()
    names = ("antisymmetry", "anchor_morphism", "jacobi")
    for name, tolerance, rows in zip(names, (TOL_ANTISYMMETRY, TOL_AXIOMS, TOL_AXIOMS), worst):
        # max keeps the first of equal residuals; the indices are 1-based
        residual, p, indices = max(rows, key=lambda row: row[0], default=(0.0, 0, ()))
        indices = tuple(int(v) + 1 for v in indices)
        report.checks.append(ValidationCheck(name, indices, residual, tolerance, pts[p]))
    return report
