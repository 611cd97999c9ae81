import tracemalloc
import warnings

import numpy as np
import pytest

from algebroid import catalog, charts
from algebroid.charts import (
    AlgebroidChart,
    AVector,
    BracketError,
    ChartError,
    SectionField,
    ValidationCheck,
    anchor_apply,
    bracket_sections,
    validate,
)
from algebroid.sampling import AnchorError, sample_box


class TestAnchor:
    def test_identity_anchor(self, euclidean2):
        v = AVector([0.3, -0.2], [1.0, 2.0])
        np.testing.assert_allclose(anchor_apply(euclidean2.chart, v), [1.0, 2.0])

    def test_central_direction_in_kernel(self, heisenberg):
        v = AVector([0.5, 0.5], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(anchor_apply(heisenberg.chart, v), [0.0, 0.0])

    def test_foliation_embeds(self, foliation):
        v = AVector([0.1, 0.2, 0.3], [2.0, 3.0])
        np.testing.assert_allclose(anchor_apply(foliation.chart, v), [2.0, 3.0, 0.0])

    def test_linearity_exact(self, heisenberg, rng):
        chart = heisenberg.chart
        x = np.array([0.4, -1.1])
        mu, nu = rng.randn(3), rng.randn(3)
        a, b = 2.5, -1.25
        lhs = anchor_apply(chart, AVector(x, a * mu + b * nu))
        rhs = a * anchor_apply(chart, AVector(x, mu)) + b * anchor_apply(
            chart, AVector(x, nu)
        )
        np.testing.assert_array_equal(lhs, rhs)


class TestBracket:
    def test_basis_sections_give_structure_functions(self, heisenberg):
        chart = heisenberg.chart
        x = np.array([0.7, -0.3])
        a1 = SectionField.basis(1, 3, 2)
        a2 = SectionField.basis(2, 3, 2)
        C, _ = chart.eval_bracket(x)
        np.testing.assert_allclose(bracket_sections(chart, a1, a2, x), C[0, 1])

    def test_bracket_with_itself_vanishes(self, twisted_chart):
        f = SectionField(["x1", "sin(x2)", "x1*x2"], 2)
        out = bracket_sections(twisted_chart, f, f, np.array([0.8, 1.2]))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_leibniz_expansion_by_hand(self, heisenberg):
        # [a1, x1*a2] at x=(2,0): x1*[a1,a2] + d(x1)/dx1 * a2 = a2 + 2 a3
        chart = heisenberg.chart
        a1 = SectionField.basis(1, 3, 2)
        f = SectionField(["0", "x1", "0"], 2)
        out = bracket_sections(chart, a1, f, np.array([2.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0], atol=1e-14)

    def test_leibniz_identity_property(self, twisted_chart, rng):
        # [f, h*g] = h*[f,g] + #(f)(h) g
        chart = twisted_chart
        f = SectionField(["x2", "1", "x1"], 2)
        g = SectionField(["sin(x1)", "x2", "1"], 2)
        h_text = "x1^2 + x2"
        hg = SectionField([f"({h_text}) * ({c})" for c in g.components], 2)
        from algebroid.expressions import parse

        h = parse(h_text, 2)
        for _ in range(10):
            x = rng.uniform(0.6, 1.4, size=2)
            lhs = bracket_sections(chart, f, hg, x)
            hv = h.evaluate(x)
            fv, _ = f.eval_raw(x)
            gv, _ = g.eval_raw(x)
            B, _ = chart.eval_anchor(x)
            anchored_f = np.einsum("s,si->i", fv, B)
            rhs = hv.value * bracket_sections(chart, f, g, x) + (
                anchored_f @ hv.gradient
            ) * gv
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_lie_algebra_over_point_convention(self, aff2):
        # constant sections bracket to the constant Lie bracket
        chart = aff2.chart
        u = SectionField.constant([2.0, 1.0], 1)
        v = SectionField.constant([0.5, -1.0], 1)
        out = bracket_sections(chart, u, v, np.array([0.0]))
        # [2e1+e2, 0.5e1-e2] = (2*(-1) - 1*0.5) e2 = -2.5 e2
        np.testing.assert_allclose(out, [0.0, -2.5])


class TestValidate:
    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog_passes(self, name):
        entry = catalog.get(name)
        report = validate(entry.chart, samples=200, seed=42)
        assert report.passed
        assert max(c.residual for c in report.checks) < 1e-12

    def test_twisted_chart_passes(self, twisted_chart):
        # non-constant structure functions: quadratic Jacobi terms must
        # cancel against anchor derivatives of C
        report = validate(twisted_chart, samples=200, seed=42)
        assert report.passed, [(c.name, c.residual) for c in report.checks]
        assert max(c.residual for c in report.checks) < 1e-12

    def test_bracket_mutant_flags_jacobi_and_anchor(self):
        chart = catalog.mutants()["bad_bracket"]
        report = validate(chart, samples=100, seed=42)
        assert not report.passed
        jac = report.worst("jacobi")
        assert jac.residual == pytest.approx(1.0, abs=1e-12)
        assert jac.indices[:3] == (1, 2, 3)
        am = report.worst("anchor_morphism")
        assert am.residual == pytest.approx(1.0, abs=1e-12)
        assert am.indices[:2] == (1, 3)

    def test_anchor_mutant_flags_anchor_only(self):
        chart = catalog.mutants()["bad_anchor"]
        report = validate(chart, samples=100, seed=42)
        assert not report.passed
        am = report.worst("anchor_morphism")
        assert am.residual == pytest.approx(1.0, abs=1e-12)
        assert am.indices[:2] == (1, 2)
        assert report.worst("jacobi").residual < 1e-12

    @pytest.mark.parametrize(
        "b,c_upper,error,product",
        [
            # the anchor fields commute, but b db overflows
            ([["1", "0"], ["0", "(x2 / 1e-6) * 1e150"]], {}, AnchorError, "anchor product b db"),
            # C is finite, C C overflows
            ([["1", "0"], ["0", "1"]], {(1, 2, 1): "(x2 / 1e-6) * 1e150"}, BracketError, "bracket product C C"),
        ],
    )
    def test_an_overflowing_structure_product_is_named(self, b, c_upper, error, product):
        chart = AlgebroidChart(n=2, r=2, b=b, c_upper=c_upper)
        with warnings.catch_warnings(), pytest.raises(error) as err:
            warnings.simplefilter("error")
            validate(chart, samples=200, seed=42)
        first = sample_box(chart.domain, 200, 42)[0]
        assert str(err.value) == f"{product} not finite at x={first}"

    def test_antisymmetry_structural(self, twisted_chart):
        report = validate(twisted_chart, samples=50)
        assert report.worst("antisymmetry").residual == 0.0

    def test_tolerances_are_the_cli_check_rows(self, twisted_chart):
        from algebroid.cli import CHECKS

        report = validate(twisted_chart, samples=10)
        rows = CHECKS["validate"]
        assert {c.name: c.tolerance for c in report.checks} == {
            name: rows[name][0] for name in ("antisymmetry", "anchor_morphism", "jacobi")
        }
        assert (rows["antisymmetry"][0], rows["jacobi"][0]) == (1e-12, 1e-9)


def _full_tensor_checks(chart, samples, seed):
    """The axiom checks as the full-tensor route forms them: the morphism on
    every (s, t, k), the Jacobiator on every (s, t, u, v) from one cyclic
    slot and its two permuted copies, masked to s < t < u."""
    pts = sample_box(chart.domain, samples, seed)
    B, dB = chart.eval_anchor(pts, order=1)
    C, dC = chart.eval_bracket(pts, order=1)
    push = np.einsum("...stu,...uk->...stk", C, B)
    lie_st = np.einsum("...sm,...tkm->...stk", B, dB)
    lie_ts = np.einsum("...tm,...skm->...stk", B, dB)
    t0 = np.einsum("...stm,...muv->...stuv", C, C) - np.einsum("...ui,...stvi->...stuv", B, dC)
    jac = np.abs(t0 + np.einsum("...abcv->...cabv", t0) + np.einsum("...abcv->...bcav", t0))
    s, t, u = np.ogrid[: chart.r, : chart.r, : chart.r]
    mask = np.broadcast_to(((s < t) & (t < u))[..., None], jac.shape[1:])

    def worst(name, residuals):
        k = np.unravel_index(np.argmax(residuals), residuals.shape)
        return ValidationCheck(name, tuple(int(i) + 1 for i in k[1:]), float(residuals[k]), 0.0, pts[k[0]])

    checks = [worst("antisymmetry", np.abs(C + np.swapaxes(C, -3, -2))),
              worst("anchor_morphism", np.abs(push - (lie_st - lie_ts)))]
    if mask.any():
        checks.append(worst("jacobi", np.where(mask, jac, 0.0)))
    else:
        checks.append(ValidationCheck("jacobi", (), 0.0, 0.0, pts[0]))
    return checks


def _random_chart(seed, n=2, r=6):
    """Structure functions with no relation between them: every axiom has
    nonzero residuals at distinct indices."""
    rng = np.random.RandomState(seed)

    def entry():
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        return f"{a:.3f} * x1 + {b:.3f} * x2^2 + {c:.3f} * sin(x1 * x2)"

    b = [[entry() for _ in range(n)] for _ in range(r)]
    c_upper = {(s, t, u): entry() for s in range(1, r + 1) for t in range(s + 1, r + 1)
               for u in range(1, r + 1) if rng.rand() < 0.6}
    return AlgebroidChart(n=n, r=r, b=b, c_upper=c_upper)


def _oracle_chart(name):
    if name == "twisted":
        return catalog.twisted().chart
    if name == "random_r6":
        return _random_chart(0)
    return catalog.mutants()[name] if name.startswith("bad_") else catalog.get(name).chart


@pytest.mark.parametrize("name", catalog.names() + ["twisted", "bad_bracket", "bad_anchor", "random_r6"])
def test_validate_matches_the_full_tensor_oracle(name):
    # the pairs s < t and triples s < t < u give the same worst residuals
    # and points to the bit; the indices agree wherever a residual is
    # nonzero (an all-zero axiom names its first informative entry)
    chart = _oracle_chart(name)
    report = validate(chart, samples=200, seed=42)
    oracle = _full_tensor_checks(chart, 200, 42)
    assert [c.name for c in report.checks] == [c.name for c in oracle]
    for got, want in zip(report.checks, oracle):
        assert got.residual == want.residual, got.name
        assert np.array_equal(got.point, want.point), got.name
        if want.residual != 0.0:
            assert got.indices == want.indices, got.name
    if name in ("bad_bracket", "random_r6"):
        assert min(c.residual for c in report.checks[1:]) > 0.1


@pytest.mark.parametrize("r, morphism, jacobi", [(1, (), ()), (2, (1, 2, 1), ()), (3, (1, 2, 1), (1, 2, 3, 1))])
def test_an_axiom_without_entries_reports_zero(r, morphism, jacobi):
    # r = 1 has no pair s < t, r < 3 no triple s < t < u
    chart = AlgebroidChart(n=1, r=r, b=[["0"]] * r)
    report = validate(chart, samples=5, seed=42)
    assert [(c.indices, c.residual) for c in report.checks[1:]] == [(morphism, 0.0), (jacobi, 0.0)]
    assert report.passed


def test_validate_in_chunks_is_one_pass(monkeypatch):
    # r = 6, n = 2: r^3 (r + n) = 1728 floats a sample, so these budgets take
    # 1 and 7 samples a chunk; the defaults take all 50 in one
    chart = _random_chart(1)
    whole = validate(chart, samples=50, seed=3)
    for floats in (1728, 7 * 1728 + 5):
        monkeypatch.setattr(charts, "VALIDATE_FLOATS", floats)
        chunked = validate(chart, samples=50, seed=3)
        for got, want in zip(chunked.checks, whole.checks, strict=True):
            assert (got.name, got.indices, got.residual) == (want.name, want.indices, want.residual)
            assert got.point.tobytes() == want.point.tobytes(), got.name
    assert whole.worst("antisymmetry").residual == 0.0 < whole.worst("jacobi").residual


def test_validate_holds_one_chunk_of_samples():
    # one pass over 200 samples of this r = 16 chart peaks near 170 MB
    chart = AlgebroidChart(n=1, r=16, b=[["1"]] + [["0"]] * 15)
    tracemalloc.start()
    try:
        assert validate(chart, samples=200).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


class TestChartConstruction:
    def test_rejects_lower_triangle_bracket_entries(self):
        with pytest.raises(ChartError, match="s < t"):
            AlgebroidChart(n=1, r=2, b=[["0"], ["0"]], c_upper={(2, 1, 1): "1"})

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ChartError, match="out of range"):
            AlgebroidChart(n=1, r=2, b=[["0"], ["0"]], c_upper={(1, 3, 1): "1"})

    def test_rejects_bad_anchor_shape(self):
        with pytest.raises(ChartError):
            AlgebroidChart(n=2, r=2, b=[["0", "0"]], c_upper={})

    def test_domain_bounds_checked(self):
        with pytest.raises(ChartError, match="domain"):
            AlgebroidChart(n=1, r=1, b=[["0"]], c_upper={}, domain=[(1.0, -1.0)])

    def test_contains(self, sphere):
        assert sphere.chart.contains([1.0, 1.0])
        assert not sphere.chart.contains([0.0, 1.0])
