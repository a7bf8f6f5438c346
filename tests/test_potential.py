import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fraclap import EvaluationError, ParseError, parse, to_source
from fraclap.potential import BinOp, Call, Constant, Neg, Number, Variable


class TestParseAndEvaluate:
    @pytest.mark.parametrize(
        "source, x, expected",
        [
            ("x^2", 3.0, 9.0),
            ("x^4", -2.0, 16.0),
            ("2*cos(2*x)", 0.0, 2.0),
            ("abs(x)^1.5", -4.0, 8.0),
            ("1 + 2 * 3", 0.0, 7.0),
            ("(1 + 2) * 3", 0.0, 9.0),
            ("2^3^2", 0.0, 512.0),  # right-associative
            ("-x^2", 2.0, -4.0),  # unary minus binds below ^
            ("(-x)^2", 2.0, 4.0),
            ("x - x - x", 5.0, -5.0),  # left-associative
            ("8 / 4 / 2", 0.0, 1.0),
            ("sin(pi / 2)", 0.0, 1.0),
            ("exp(0)", 0.0, 1.0),
            ("sqrt(x^2)", -3.0, 3.0),
            ("--x", 4.0, 4.0),
            ("pi", 0.0, math.pi),
            ("1e2 + 2.5e-1", 0.0, 100.25),
        ],
    )
    def test_values(self, source, x, expected):
        assert parse(source)(x) == pytest.approx(expected, rel=1e-14)

    def test_callable_interface(self):
        expr = parse("x^2 + 1")
        assert expr.evaluate(2.0) == expr(2.0) == 5.0
        assert expr.source == "x^2 + 1"

    @pytest.mark.parametrize(
        "source, offset",
        [
            ("x +", 3),
            ("(x + 1", 6),
            ("x @ 2", 2),
            ("sin x", 4),
            ("y + 1", 0),
            ("1 2", 2),
            ("", 0),
            ("   ", 0),
        ],
    )
    def test_parse_errors_carry_offsets(self, source, offset):
        with pytest.raises(ParseError) as exc_info:
            parse(source)
        assert exc_info.value.offset == offset

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError) as exc_info:
            parse("1 / x")(0.0)
        assert exc_info.value.x == 0.0

    def test_sqrt_of_negative(self):
        with pytest.raises(EvaluationError):
            parse("sqrt(x)")(-1.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvaluationError):
            parse("x^0.5")(-2.0)
        # integer exponents on negative bases stay fine
        assert parse("x^3")(-2.0) == -8.0

    def test_overflow(self):
        with pytest.raises(EvaluationError):
            parse("exp(x)")(1e6)


class TestArrayEvaluation:
    def test_shape_and_type(self):
        expr = parse("x^2 + 1")
        x = np.array([[0.0, 1.0], [2.0, -3.0]])
        np.testing.assert_array_equal(expr.evaluate(x), x**2 + 1)
        assert type(expr.evaluate(2.0)) is float
        # a constant expression fills the shape of x
        np.testing.assert_array_equal(parse("pi").evaluate(np.zeros(3)), np.full(3, math.pi))

    @pytest.mark.parametrize(
        "source", ["exp(x)", "sin(x)", "cos(x)", "sqrt(abs(x))", "abs(x)^1.7", "x^3", "1 / x"]
    )
    def test_single_points_match_array_bit_for_bit(self, source):
        # numpy's exp and power differ from libm on ~5% of arguments, so a
        # scalar path through math would show here
        expr = parse(source)
        x = np.random.default_rng(0).uniform(-6.0, 6.0, 2000)
        alone = np.array([expr.evaluate(v) for v in x])
        np.testing.assert_array_equal(expr.evaluate(x).view(np.uint64), alone.view(np.uint64))

    @pytest.mark.parametrize(
        "source, xs, x_bad",
        [
            ("1 / x", [1.0, 0.0, -1.0, 0.0], 0.0),
            ("sqrt(x)", [4.0, 1.0, -1.0, -2.0], -1.0),
            ("x^0.5", [1.0, -2.0], -2.0),
            ("exp(x)", [0.0, 1e6], 1e6),
            ("x^400", [1.0, 10.0], 10.0),
            ("x^(-1)", [2.0, 0.0], 0.0),
            # the division fails first in tree order, but at a later point
            ("1 / (x + 3) + sqrt(x - 5)", [6.0, 0.0, -3.0], 0.0),
        ],
    )
    def test_failure_names_first_failing_point(self, source, xs, x_bad):
        expr = parse(source)
        with pytest.raises(EvaluationError) as alone:
            expr(x_bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EvaluationError) as exc_info:
                expr.evaluate(np.array(xs))
        assert exc_info.value.x == x_bad
        assert str(exc_info.value) == str(alone.value)


def test_array_domain_checks_survive_optimize():
    # the domain checks must not be asserts: python -O strips those
    code = (
        "import numpy as np\n"
        "from fraclap import EvaluationError, parse\n"
        "cases = [('1/x', 0.0), ('sqrt(x)', -1.0), ('x^0.5', -2.0), ('exp(x)', 1e6)]\n"
        "for source, x in cases:\n"
        "    try:\n"
        "        parse(source).evaluate(np.array([1.0, x]))\n"
        "    except EvaluationError as exc:\n"
        "        print(exc.x)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0.0", "-1.0", "-2.0", "1000000.0"]


class TestPrettyPrinter:
    @pytest.mark.parametrize(
        "source",
        [
            "x^2",
            "-x^2",
            "(-x)^2",
            "2^3^2",
            "(1 + x) * 3",
            "1 - (2 - 3)",
            "x / (2 * x)",
            "sin(cos(x)) + pi",
            "abs(x)^1.5 - sqrt(x^2 + 1)",
        ],
    )
    def test_round_trip_preserves_ast(self, source):
        first = parse(source)
        printed = to_source(first)
        assert parse(printed).ast == first.ast

    def test_random_ast_round_trip_corpus(self):
        # 50 seeded random trees: print, re-parse, trees must be identical,
        # and an independent recursive evaluator must agree with ours
        rng = random.Random(1234)

        def random_tree(depth):
            if depth == 0:
                return rng.choice(
                    [Number(float(rng.randint(1, 9))), Variable(), Constant("pi")]
                )
            kind = rng.randrange(4)
            if kind == 0:
                op = rng.choice(["+", "-", "*", "/", "^"])
                left = random_tree(depth - 1)
                right = random_tree(depth - 1)
                if op == "^":
                    # keep powers tame and real: positive base, small exponent
                    left = Call("abs", left)
                    right = Number(float(rng.randint(1, 3)))
                return BinOp(op, left, right)
            if kind == 1:
                return Neg(random_tree(depth - 1))
            if kind == 2:
                name = rng.choice(["sin", "cos", "abs"])
                return Call(name, random_tree(depth - 1))
            return random_tree(depth - 1)

        def oracle(node, x):
            if isinstance(node, Number):
                return node.value
            if isinstance(node, Variable):
                return x
            if isinstance(node, Constant):
                return math.pi
            if isinstance(node, Neg):
                return -oracle(node.child, x)
            if isinstance(node, Call):
                fn = {"sin": math.sin, "cos": math.cos, "abs": abs, "exp": math.exp, "sqrt": math.sqrt}
                return fn[node.name](oracle(node.arg, x))
            a, b = oracle(node.left, x), oracle(node.right, x)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return a / b
            return a**b

        checked = 0
        for _ in range(50):
            tree = random_tree(rng.randint(1, 4))
            printed = to_source(tree)
            reparsed = parse(printed)
            assert reparsed.ast == tree, printed
            for x in (-1.3, 0.0, 0.4, 2.0):
                try:
                    want = oracle(tree, x)
                except ZeroDivisionError:
                    continue
                got = reparsed(x)
                assert got == pytest.approx(want, rel=1e-15, abs=1e-15), printed
                checked += 1
        assert checked > 50  # the corpus actually exercised evaluation

    def test_number_formatting(self):
        assert to_source(parse("2")) == "2"
        assert to_source(parse("2.5")) == "2.5"
