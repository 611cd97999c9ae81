import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from algebroid.expressions import (
    BinOp,
    Const,
    EvalDomainError,
    Expression,
    Neg,
    ParseError,
    Program,
    parse,
)


def central_fd_gradient(expr, x, h=1e-5):
    n = len(x)
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (expr.values(x + e) - expr.values(x - e)) / (2 * h)
    return g


def central_fd_hessian(expr, x, h=1e-5):
    n = len(x)
    H = np.zeros((n, n))
    f0 = expr.values(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (expr.values(x + ei) - 2 * f0 + expr.values(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = H[j, i] = (
                expr.values(x + ei + ej)
                - expr.values(x + ei - ej)
                - expr.values(x - ei + ej)
                + expr.values(x - ei - ej)
            ) / (4 * h**2)
    return H


class TestParsing:
    def test_product_of_variables(self):
        e = parse("x1*x2", 2)
        assert str(e) == "x1 * x2"
        assert e.evaluate(np.array([3.0, 4.0])).value == 12.0

    def test_power_of_sine(self):
        e = parse("sin(x1)^2", 1)
        assert str(e) == "sin(x1) ^ 2.0"
        assert e.evaluate(np.array([0.5])).value == pytest.approx(math.sin(0.5) ** 2)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("x3", 2)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("x1 + y", 2)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + ", 2)
        assert err.value.position == 5

    def test_an_overflowing_literal_is_a_parse_error(self):
        # its printed form, inf, could not be read back
        with pytest.raises(ParseError) as err:
            parse("x1 + 1e999", 1)
        assert str(err.value) == "number '1e999' out of range (at position 5)"
        assert err.value.position == 5
        # an underflowing literal is 0.0, which prints and reads back
        e = parse("x1 + 1e-999", 1)
        assert str(e) == "x1 + 0.0" and str(parse(str(e), 1)) == str(e)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("sin(x1", 1)

    def test_precedence_power_over_neg(self):
        # -x1^2 means -(x1^2)
        e = parse("-x1^2", 1)
        assert e.evaluate(np.array([3.0])).value == -9.0

    def test_power_right_associative(self):
        e = parse("x1^2^3", 1)  # x1^(2^3) = x1^8
        assert e.evaluate(np.array([2.0])).value == 256.0

    def test_negative_exponent(self):
        e = parse("x1^-2", 1)
        assert e.evaluate(np.array([2.0])).value == 0.25

    def test_constant_folding(self):
        assert Program.of(parse("2*3 + 1", 1)).constant(0) is not None
        assert Program.of(parse("2*x1", 1)).constant(0) is None
        # the program folds what the parser leaves as written
        assert Program.of(parse("x1^0", 1)).constant(0) is not None
        assert Program.of(parse("sin(x1^0) + 2^0.5", 1)).constant(0) is not None

    def test_the_parser_keeps_constant_arithmetic_as_written(self):
        e = parse("2*3 + 1", 1)
        assert e.root == BinOp("+", BinOp("*", Const(2.0), Const(3.0)), Const(1.0))
        assert str(e) == "2.0 * 3.0 + 1.0"
        assert parse("-2", 1).root == Neg(Const(2.0))
        assert parse("6", 1) != e and e.values(np.array([0.5])) == 7.0

    def test_division_left_associative(self):
        e = parse("8/4/2", 1)
        assert e.evaluate(np.array([0.0])).value == 1.0


class TestEvaluation:
    def test_sine_squared_at_half_pi(self):
        e = parse("sin(x1)^2", 1)
        res = e.evaluate(np.array([math.pi / 2]))
        assert res.value == pytest.approx(1.0)
        assert res.gradient[0] == pytest.approx(0.0, abs=1e-15)

    def test_product_gradient_hessian(self):
        e = parse("x1*x2", 2)
        res = e.evaluate(np.array([3.0, 4.0]))
        assert res.value == 12.0
        np.testing.assert_allclose(res.gradient, [4.0, 3.0])
        np.testing.assert_allclose(res.hessian, [[0.0, 1.0], [1.0, 0.0]])

    def test_second_partial(self):
        e = parse("x1^2*x2", 2)
        res = e.evaluate(np.array([1.0, 5.0]))
        assert res.hessian[0, 0] == pytest.approx(10.0)

    def test_log_domain_error_names_subexpression(self):
        e = parse("log(x1 - 2)", 1)
        with pytest.raises(EvalDomainError, match=r"log\(x1 - 2\.0\)"):
            e.evaluate(np.array([1.0]))

    def test_sqrt_domain_error(self):
        with pytest.raises(EvalDomainError):
            parse("sqrt(x1)", 1).evaluate(np.array([-1.0]))

    def test_constant_domain_error_names_the_subexpression_as_written(self):
        # log(2 - 3) stays an op: its check fails at build time and runs at
        # every point
        e = parse("x1 + log(2 - 3)", 1)
        assert Program.of(e).constant(0) is None
        with pytest.raises(EvalDomainError, match=r"'log\(2\.0 - 3\.0\)'"):
            e.evaluate(np.array([1.0]))

    @pytest.mark.parametrize("text", ["exp(1000)", "1e300 * 1e300"])
    def test_a_constant_that_is_not_finite_stays_an_op(self, text):
        e = parse(text, 1)
        assert Program.of(e).constant(0) is None
        with np.errstate(over="ignore"):
            assert e.values(np.array([0.5])) == np.inf

    def test_a_function_of_a_constant_folds_to_numpys_value(self):
        for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh"):
            e = parse(f"{name}(0.7)", 1)
            assert Program.of(e).constant(0) is not None
            assert e.values(np.array([0.0])).tobytes() == np.float64(getattr(np, name)(0.7)).tobytes()

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            parse("x1 / x2", 2).evaluate(np.array([1.0, 0.0]))

    def test_batch_evaluation_matches_pointwise(self):
        e = parse("sin(x1)*x2 + x2^3", 2)
        pts = np.array([[0.1, 0.2], [1.0, -1.0], [2.0, 0.5]])
        batch = e.values(pts)
        for point, expected in zip(pts, batch):
            assert e.evaluate(point).value == pytest.approx(expected)


def _random_polynomial(rng, n, degree=4, terms=5):
    pieces = []
    for _ in range(terms):
        coef = rng.uniform(-2, 2)
        exps = rng.multinomial(rng.randint(0, degree + 1), np.ones(n) / n)
        mono = " * ".join(
            f"x{i + 1}^{int(k)}" for i, k in enumerate(exps) if k > 0
        )
        pieces.append(f"{coef:.6f}" + (f" * {mono}" if mono else ""))
    return " + ".join(pieces)


class TestDerivativeOracle:
    @pytest.mark.parametrize("case", range(12))
    def test_polynomials_match_finite_differences(self, case):
        rng = np.random.RandomState(1000 + case)
        n = rng.randint(1, 4)
        e = parse(_random_polynomial(rng, n), n)
        x = rng.uniform(-1.5, 1.5, size=n)
        res = e.evaluate(x)
        fd_g = central_fd_gradient(e, x)
        fd_h = central_fd_hessian(e, x)
        scale = max(1.0, float(np.max(np.abs(fd_g))))
        np.testing.assert_allclose(res.gradient, fd_g, rtol=0, atol=1e-6 * scale)
        hscale = max(1.0, float(np.max(np.abs(fd_h))))
        np.testing.assert_allclose(res.hessian, fd_h, rtol=0, atol=1e-5 * hscale)

    @pytest.mark.parametrize(
        "text,n",
        [
            ("exp(x1*x2) * sin(x2)", 2),
            ("sqrt(x1^2 + 1) / cosh(x2)", 2),
            ("tan(x1/4) + log(x2 + 3)", 2),
            ("sinh(x1)*cos(x2)^3", 2),
        ],
    )
    def test_transcendentals_match_finite_differences(self, text, n):
        e = parse(text, n)
        rng = np.random.RandomState(7)
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, size=n)
            res = e.evaluate(x)
            np.testing.assert_allclose(
                res.gradient, central_fd_gradient(e, x), rtol=1e-6, atol=1e-7
            )
            np.testing.assert_allclose(
                res.hessian, central_fd_hessian(e, x), rtol=1e-4, atol=1e-5
            )

    def test_hessian_exactly_symmetric(self):
        rng = np.random.RandomState(5)
        e = parse("exp(x1*x2)*sin(x1 + x3^2) / (x2^2 + 1)", 3)
        for _ in range(20):
            H = e.evaluate(rng.uniform(-1, 1, 3)).hessian
            assert np.max(np.abs(H - H.T)) < 1e-14


_expr_strategy = st.recursive(
    st.one_of(
        st.sampled_from(["x1", "x2"]),
        st.floats(min_value=-4, max_value=4, allow_nan=False).map(lambda v: f"{v:.3f}"),
    ),
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*"]), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sinh", "cosh"]), children).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        children.map(lambda c: f"-({c})"),
        st.tuples(children, st.integers(min_value=0, max_value=3)).map(
            lambda t: f"({t[0]})^{t[1]}"
        ),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @given(_expr_strategy)
    @settings(max_examples=150, deadline=None)
    def test_print_parse_identity(self, text):
        e = parse(text, 2)
        again = parse(str(e), 2)
        assert again == e

    def test_reprint_evaluates_identically(self):
        rng = np.random.RandomState(11)
        exprs = [
            "sin(x1)^2 + cos(x2)*x1",
            "-x1^3 / (2 + cosh(x2))",
            "exp(-(x1 - x2)^2)",
            "1e-3 * x1 + 2.5",
            _random_polynomial(np.random.RandomState(3), 2),
        ]
        for text in exprs:
            e = parse(text, 2)
            e2 = parse(str(e), 2)
            pts = rng.uniform(-1, 1, size=(100, 2))
            np.testing.assert_array_equal(e.values(pts), e2.values(pts))


# ---------------------------------------------------------------------------
# The program: exact derivatives against sympy, bitwise batch/point
# agreement, symmetry, domain errors and static sparsity
# ---------------------------------------------------------------------------

_FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh"]

_LEAVES = ["x1", "x2", "x3", "0.5", "1.5", "2", "3"]
_EXPONENTS = ["-2", "-1", "0", "1", "2", "3", "0.5", "1.5"]


@st.composite
def _trees(draw, depth=3):
    """Expression text over x1..x3 with every operator and function of the
    grammar; below the top, a branch may end early in a leaf."""
    if depth == 0 or (depth < 3 and draw(st.integers(0, 3)) == 0):
        return draw(st.sampled_from(_LEAVES))
    kind = draw(st.sampled_from(["binary", "call", "neg", "power"]))
    a = draw(_trees(depth - 1))
    if kind == "binary":
        return f"({a} {draw(st.sampled_from('+-*/'))} {draw(_trees(depth - 1))})"
    if kind == "call":
        return f"{draw(st.sampled_from(_FUNCS))}({a})"
    if kind == "neg":
        return f"-({a})"
    exponent = draw(st.one_of(st.sampled_from(_EXPONENTS), _trees(depth - 1)))
    return f"({a})^({exponent})"


_tree_strategy = _trees()

_box_point = st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=3, max_size=3).map(
    np.array
)


def _subtrees(node):
    yield node
    for child in ("arg", "lhs", "rhs"):
        if hasattr(node, child):
            yield from _subtrees(getattr(node, child))


def _well_conditioned(expr, x, bound=50.0):
    """Whether every subexpression is defined at x with value, gradient and
    Hessian below `bound`, so that rounding stays far below 1e-12."""
    for node in _subtrees(expr.root):
        try:
            t = Expression(node, expr.n).eval_raw(x, order=2)
        except EvalDomainError:
            return False
        parts = np.concatenate([np.ravel(t.v), t.g.ravel(), t.h.ravel()])
        if not np.all(np.isfinite(parts)) or np.max(np.abs(parts)) > bound:
            return False
    return True


def _sympy_jet(text, x):
    sp = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import parse_expr

    xs = sp.symbols("x1:4")
    f = parse_expr(text.replace("^", "**"), local_dict={f"x{i + 1}": s for i, s in enumerate(xs)})
    at = {s: sp.Float(float(v), 40) for s, v in zip(xs, x)}

    def num(e):
        return complex(e.evalf(30, subs=at))

    grad = [sp.diff(f, s) for s in xs]
    hess = [[sp.diff(g, s) for s in xs] for g in grad]
    return num(f), [num(g) for g in grad], [[num(h) for h in row] for row in hess]


def _ops(prog, orders):
    """Number of ops, domain checks included, one run of `orders` performs."""
    return len(prog._plan(orders)[0])


def _walk(prog, x):
    """A second interpreter of the op list, not `run`: every op in order at
    the single point x, then each group's arrays up to its top order."""
    vals = list(prog._vals)
    vals[: prog.n] = x
    for f, out, a, b, check in prog._ops:
        if check is not None:
            test, s, message, node = check
            if test(vals[s], 0.0):
                raise EvalDomainError(message, node)
        vals[out] = f(vals[a]) if b is None else f(vals[a], vals[b])
    groups = []
    for _, specs, _ in prog._groups:
        levels = [tmpl.copy() for tmpl, _, _ in specs]
        for level, (_, points, _) in zip(levels, specs):
            for cell, _, s in points:
                level[cell] = vals[s]
        groups.append(levels)
    return groups


def _same_as_run(prog, x):
    """Whether `_walk` reproduces `run` at x bit for bit, errors included."""
    try:
        want = prog.run(x, tuple(top for top, _, _ in prog._groups))
    except EvalDomainError as err:
        with pytest.raises(EvalDomainError) as again:
            _walk(prog, x)
        return (str(again.value), again.value.node) == (str(err), err.node)
    got = _walk(prog, x)
    return all(
        np.asarray(a).tobytes() == b.tobytes()
        for g, w in zip(got, want)
        for a, b in zip(g, w)
    )


def _close(got, want):
    assert abs(want.imag) <= 1e-12 * max(1.0, abs(want.real))
    assert abs(got - want.real) <= 1e-12 * max(1.0, abs(want.real)), (got, want)


class TestProgram:
    @given(_tree_strategy, _box_point)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
    def test_value_gradient_hessian_match_sympy(self, text, x):
        e = parse(text, 3)
        assume(_well_conditioned(e, x))
        t = e.eval_raw(x, order=2)
        v, g, h = _sympy_jet(str(e), x)
        _close(float(t.v), v)
        for m in range(3):
            _close(t.g[m], g[m])
            for l in range(3):
                _close(t.h[m, l], h[m][l])

    # batches up to 40 rows run numpy's vector loops as well as their tails
    @given(_tree_strategy, st.lists(_box_point, min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_point_equals_its_batch_row_bit_for_bit(self, text, rows):
        e = parse(text, 3)
        pts = np.array(rows)
        try:
            batch = e.eval_raw(pts, order=2)
        except EvalDomainError:
            assume(False)
        for k, x in enumerate(pts):
            one = e.eval_raw(x, order=2)
            for a, b in zip(one, batch):
                assert np.asarray(a).tobytes() == np.ascontiguousarray(b[k]).tobytes()

    @given(_tree_strategy, st.lists(_box_point, min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_hessian_symmetric_to_the_bit(self, text, rows):
        e = parse(text, 3)
        try:
            h = e.eval_raw(np.array(rows), order=2).h
        except EvalDomainError:
            assume(False)
        assert h.tobytes() == np.ascontiguousarray(h.swapaxes(-1, -2)).tobytes()

    @pytest.mark.parametrize(
        "text,inner,x,message",
        [
            ("x1 + x2 / (x1 - 1)", "x2 / (x1 - 1.0)", [1.0, 2.0], "division by zero"),
            ("2 * log(x1 - x2)", "log(x1 - x2)", [1.0, 2.0], "log of a non-positive value"),
            ("x2 * sqrt(x1 - 1)", "sqrt(x1 - 1.0)", [0.5, 2.0], "sqrt of a non-positive value"),
            (
                "1 + (x1 - 1)^0.5",
                "(x1 - 1.0) ^ 0.5",
                [0.5, 2.0],
                "non-positive base with non-integer exponent",
            ),
            (
                "sin((x1 - 1)^x2)",
                "(x1 - 1.0) ^ x2",
                [1.0, 2.0],
                "non-positive base with variable exponent",
            ),
            ("x2 - (x1 - 1)^-2", "(x1 - 1.0) ^ -2.0", [1.0, 2.0], "zero base with negative exponent"),
            # a base whose power folds to the constant 1 is still checked
            ("x2 + log(x1)^0", "log(x1)", [-1.0, 2.0], "log of a non-positive value"),
            ("sqrt(x1 - 1)^0 * x2", "sqrt(x1 - 1.0)", [0.5, 2.0], "sqrt of a non-positive value"),
            ("(x2 / (x1 - 1))^0", "x2 / (x1 - 1.0)", [1.0, 2.0], "division by zero"),
        ],
    )
    def test_domain_errors_name_their_subexpression(self, text, inner, x, message):
        e = parse(text, 2)
        good = np.array([1.25, 0.5])
        e.eval_raw(good, order=2)
        for order in (0, 1, 2):
            for pts in (np.array(x), np.array([good, x, good])):
                # the check runs before the op that would warn
                with warnings.catch_warnings(), pytest.raises(EvalDomainError, match=message) as err:
                    warnings.simplefilter("error")
                    e.eval_raw(pts, order=order)
                assert str(err.value.node) == inner
                assert f"'{inner}'" in str(err.value)

    @given(_tree_strategy, _box_point)
    @settings(max_examples=60)
    def test_a_second_interpreter_walks_the_op_list(self, text, x):
        assert _same_as_run(Program.of(parse(text, 3)), x)

    def test_a_second_interpreter_walks_the_structure_programs(self, sphere, twisted_chart):
        assert _same_as_run(Program.of(sphere.metric), np.array([1.0, 0.7]))
        assert _same_as_run(Program.of(twisted_chart), np.array([0.8, 1.3]))
        # a checked op raises in both, also where its value folds away
        prog = Program.of(parse("x2 + log(x1)^0", 2))
        assert _same_as_run(prog, np.array([1.5, 2.0]))
        with pytest.raises(EvalDomainError, match="log of a non-positive value"):
            _walk(prog, np.array([-1.0, 2.0]))
        assert _same_as_run(prog, np.array([-1.0, 2.0]))

    def test_domain_error_through_the_structure_arrays(self):
        from algebroid.charts import AlgebroidChart
        from algebroid.metric import MetricField, christoffel

        chart = AlgebroidChart(n=1, r=1, b=[["1"]], domain=[(-1.0, 1.0)])
        metric = MetricField({(1, 1): "2 + log(x1)"}, 1, 1)
        christoffel(chart, metric, np.array([0.5]))
        with pytest.raises(EvalDomainError, match=r"log\(x1\)"):
            christoffel(chart, metric, np.array([[0.5], [-0.5]]))
        with pytest.raises(EvalDomainError, match=r"log\(x1\)"):
            metric.eval(np.array([-0.5]))

    @pytest.mark.parametrize(
        "name", ["aff2", "euclidean2", "foliation_xy", "heisenberg_central", "so3_biinv"]
    )
    def test_constant_chart_and_metric_run_no_op(self, name):
        from algebroid import catalog
        from algebroid.metric import _Connection

        entry = catalog.get(name)
        chart_prog, metric_prog = Program.of(entry.chart), Program.of(entry.metric)
        assert chart_prog.constant(0) is not None and chart_prog.constant(1) is not None
        assert metric_prog.constant(0) is not None
        assert _ops(chart_prog, (1, 1)) == 0
        assert _ops(metric_prog, (2,)) == 0
        # Gamma and dGamma are settled once, at construction
        assert _Connection(entry.chart, entry.metric).gamma is not None
        sphere = catalog.get("sphere_chart")
        assert _ops(Program.of(sphere.metric), (2,)) > 0

    def test_subexpressions_are_shared_across_groups(self):
        from algebroid.charts import AlgebroidChart

        chart = AlgebroidChart(
            n=1, r=2, b=[["sin(x1)"], ["1"]], c_upper={(1, 2, 1): "sin(x1)^2"}, domain=[(0.1, 1.0)]
        )
        # sin(x1) once, then its square and, for C[1, 0, 0], the negation
        assert _ops(Program.of(chart), (0, 0)) == 3
        assert _ops(Program.of(chart), (0, None)) == 1
        B, _ = chart.eval_anchor(np.array([0.3]))
        C, _ = chart.eval_bracket(np.array([0.3]))
        assert C[0, 1, 0] == B[0, 0] ** 2

    def test_partials_of_constants_live_in_the_template(self):
        e = parse("2*x1 + x2^2", 2)
        t = e.eval_raw(np.array([[1.0, 3.0], [2.0, -1.0]]), order=2)
        np.testing.assert_array_equal(t.g, [[2.0, 6.0], [2.0, -2.0]])
        np.testing.assert_array_equal(t.h, [[[0.0, 0.0], [0.0, 2.0]]] * 2)
        # d/dx1 = 2 and d2/dx2^2 = 2 are constants: per point run only
        # 2*x1, x2^2, their sum and 2*x2
        assert _ops(Program.of(e), (2,)) == 4

    @pytest.mark.parametrize(
        "text",
        [
            "x1 + x2 - x3",
            "x1 * x2 / x3",
            "sin(x1*x2) + cos(x1 - x3)",
            "tan(x1/2) * exp(x2*x3)",
            "log(x1 + x2) / sqrt(x1*x3)",
            "sinh(x2) / cosh(x1)",
            "x1^-2 * x2^3 - x3^0 + x1^1",
            "x1^1.5 - x3^0.5",
            "x1^x2 + (x1*x2)^(x3 - 1)",
            "-x1^2 / (1 + x2^2)",
        ],
    )
    def test_every_rule_matches_sympy(self, text):
        e = parse(text, 3)
        for x in (np.array([0.7, 1.1, 1.3]), np.array([1.4, 0.6, 0.9])):
            t = e.eval_raw(x, order=2)
            v, g, h = _sympy_jet(str(e), x)
            _close(float(t.v), v)
            for m in range(3):
                _close(t.g[m], g[m])
                for l in range(3):
                    _close(t.h[m, l], h[m][l])

    @staticmethod
    def slot_program():
        """A Program(1) with the group x1 declared, as a program declares
        its groups before `op` combines their slots."""
        prog = Program(1)
        prog.add_group((), 0, [(parse("x1", 1), [((), 1)])])
        return prog

    def test_a_quotient_by_the_constant_one_is_its_dividend(self):
        # a / 1.0 is a: no op, and the check of the unit divisor is settled
        prog = self.slot_program()
        assert prog.op(operator.truediv, 0, prog.const(1.0), ("pivot", "g")) == 0
        assert prog._ops == []

    def test_a_check_that_a_constant_passes_is_dropped(self):
        prog = self.slot_program()
        s = prog.op(operator.truediv, 0, prog.const(2.0), ("pivot", "g"))
        [(f, out, a, b, check)] = prog._ops
        assert (f, out, a, b, check) == (operator.truediv, s, 0, prog.const(2.0), None)
        prog.add_group((), 0, [(s, [((), 1)])])
        values = prog.run(np.array([[3.0], [-1.0]]), (None, 0))[1][0]
        assert values.tolist() == [1.5, -0.5]

    def test_a_checked_quotient_built_before_any_group(self):
        # `op` before the first `add_group`: x1 / x2, checked x2 > 0
        prog = Program(2)
        s = prog.op(operator.truediv, 0, 1, ("pivot", "g"))
        prog.add_group((), 0, [(s, [((), 1)])])
        assert prog.run(np.array([3.0, 2.0]), (0,))[0][0] == 1.5
        for pts in (np.array([3.0, 0.0]), np.array([[3.0, 2.0], [1.0, -1.0]])):
            with pytest.raises(EvalDomainError, match="pivot in subexpression 'g'") as err:
                prog.run(pts, (0,))
            assert err.value.node == "g"

    @pytest.mark.parametrize("divisor", [0.0, -2.0])
    @pytest.mark.parametrize("dividend", ["x1", "constant"])
    def test_a_check_that_a_constant_fails_raises_at_every_point(self, divisor, dividend):
        # the op stays, with its check, also where every argument is constant
        prog = self.slot_program()
        a = 0 if dividend == "x1" else prog.const(3.0)
        s = prog.op(operator.truediv, a, prog.const(divisor), ("pivot 1 not positive", "g"))
        assert prog._vals[s] is None and prog._ops[-1][4] is not None
        prog.add_group((), 0, [(s, [((), 1)])])
        for pts in (np.array([3.0]), np.array([[3.0], [-1.0]])):
            # raised before it divides
            with warnings.catch_warnings(), pytest.raises(EvalDomainError, match="pivot 1 not positive"):
                warnings.simplefilter("error")
                prog.run(pts, (None, 0))


class TestCompiledPlan:
    """`Program.compile` writes a plan out as a Python function of floats:
    its outputs have the bits `run` gives at the point, and a domain check
    raises the same EvalDomainError, message and node."""

    POINTS = ([0.7, 0.3], [1.3, 0.4], [2.1, 1.7], [0.4, -0.0])

    @staticmethod
    def cells(prog, level):
        return np.array(prog.slots(0, level), dtype=object).ravel().tolist()

    @pytest.mark.parametrize(
        "text, bad",
        [
            ("sin(x1*x2)", None),
            ("cos(x1 - x2)", None),
            ("tan(x1/2 + x2)", None),
            ("exp(x1*x2)", None),
            ("log(x1 - x2)", [0.5, 1.0]),
            ("sqrt(x1 - x2)", [0.5, 1.0]),
            ("sinh(x2) * x1", None),
            ("cosh(x1 - x2)", None),
            ("x1^3 - x2", None),
            ("x1^-2 + x2", [0.0, 1.0]),
            ("x1^1.5 * x2", [-0.5, 1.0]),
            ("x1^x2", [-0.5, 1.0]),
            ("x2 / (x1 - 1)", [1.0, 2.0]),
            # d/dx1 is the constant -0.0: a cell of the template, not 0.0
            ("-0*x1 + x2", None),
        ],
    )
    def test_bits_and_domain_errors_match_run(self, text, bad):
        prog = Program.of(parse(text, 2))
        plan = prog.compile((2,), [self.cells(prog, k) for k in range(3)])
        for x in self.POINTS:
            want = prog.run(np.array(x), (2,))[0]
            for got, level in zip(plan(list(x)), want):
                assert np.array(got, dtype=float).tobytes() == level.tobytes()
        if bad is not None:
            with pytest.raises(EvalDomainError) as expected:
                prog.run(np.array(bad), (2,))
            with pytest.raises(EvalDomainError) as raised:
                plan(bad)
            assert str(raised.value) == str(expected.value) and raised.value.node is expected.value.node


class TestSquare:
    """A square is one product, x * x: numpy's power squares at exponent
    2, so the bits are those of np.power(x, 2.0), signed zeros included,
    interpreted on a batch and compiled on floats."""

    X = np.array([-0.0, 0.0, 1e-170, -3.7, 0.1, 2.0 / 3.0, 1e154, -1.3e-3, 7.25, 123456.789])

    @pytest.mark.parametrize("text, inner", [("x1^2", lambda x: x), ("sin(x1)^2", np.sin)])
    def test_bits_of_numpys_power(self, text, inner):
        prog = Program.of(parse(text, 1))
        assert not [op for op in prog._ops if op[0] is np.power]
        want = np.power(inner(self.X), 2.0)
        got = prog.run(self.X[:, None], (0,))[0][0]
        assert got.tobytes() == want.tobytes()
        plan = prog.compile((0,), [[prog.slots(0)]])
        for x, w in zip(self.X, want):
            [[value]] = plan([float(x)])
            assert np.float64(value).tobytes() == w.tobytes()
        assert not np.signbit(got[:2]).any()
