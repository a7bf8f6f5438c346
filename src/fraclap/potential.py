"""Mini-language for potentials V(x): parse, evaluate, pretty-print.

Grammar (LL(1), no implicit multiplication):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')* power
    power  := atom ('^' power)?
    atom   := number | 'x' | 'pi' | func '(' expr ')' | '(' expr ')'

'^' is right-associative and binds above '*' and '/'; unary minus binds
below '^', so -x^2 means -(x^2).

An expression evaluates at a scalar x or over an array of points in one
walk of its tree, with numpy ufuncs throughout, so a point gives the same
bits alone as inside an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParseError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
}

_OPERATORS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Constant:
    name: str  # only 'pi'


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


@dataclass(frozen=True)
class PotentialExpr:
    """A parsed potential, evaluable at a real x or an array of them."""

    ast: object
    source: str

    def evaluate(self, x):
        """V(x) as a float for a scalar x, else as an array of x's shape.

        A domain failure raises ``EvaluationError`` at the first failing
        point, with the message that evaluating that point alone gives.
        """
        points = np.asarray(x, dtype=float)
        flat = points.reshape(-1)
        with np.errstate(all="ignore"):
            try:
                values = _eval_node(self.ast, flat)
            except _Failure as exc:
                failure = exc
                # A walk stops at the first node where any point fails, but an
                # earlier point may fail at a later node: walk the points
                # before the failing one again until they pass.  Each retry
                # stops at a later node than the one before.
                while failure.index:
                    try:
                        _eval_node(self.ast, flat[: failure.index])
                        break
                    except _Failure as earlier:
                        failure = earlier
                raise EvaluationError(failure.message, float(flat[failure.index])) from None
        if np.ndim(values) == 0:  # the expression does not depend on x
            values = np.full(flat.shape, values)
        return float(values[0]) if points.ndim == 0 else values.reshape(points.shape)

    __call__ = evaluate


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'name', 'op', 'lparen', 'rparen', 'end'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i)
            tokens.append(_Token("num", text, i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and source[j].isalnum():
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
        elif ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        negations = 0
        while self.cur.kind == "op" and self.cur.text == "-":
            self.advance()
            negations += 1
        node = self.power()
        for _ in range(negations):
            node = Neg(node)
        return node

    def power(self):
        base = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            self.advance()
            return BinOp("^", base, self.power())
        return base

    def atom(self):
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Number(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                return Variable()
            if tok.text == "pi":
                return Constant("pi")
            if tok.text in FUNCTIONS:
                if self.cur.kind != "lparen":
                    raise ParseError(
                        f"function {tok.text!r} needs parentheses", self.cur.pos
                    )
                self.advance()
                arg = self.expr()
                if self.cur.kind != "rparen":
                    raise ParseError("unbalanced parentheses", self.cur.pos)
                self.advance()
                return Call(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            if self.cur.kind != "rparen":
                raise ParseError("unbalanced parentheses", self.cur.pos)
            self.advance()
            return node
        raise ParseError(f"expected a value, got {tok.text or 'end of input'!r}", tok.pos)


def parse(source: str) -> PotentialExpr:
    """Parse a potential expression; errors carry a character offset."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    ast = parser.expr()
    if parser.cur.kind != "end":
        raise ParseError(f"trailing input {parser.cur.text!r}", parser.cur.pos)
    return PotentialExpr(ast=ast, source=source)


class _Failure(Exception):
    """A domain failure at position ``index`` of the points being walked."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index
        self.message = message


def _fail_where(bad, x: np.ndarray, template: str, *operands) -> None:
    """Raise _Failure at the first point where ``bad`` holds.

    ``template`` is formatted with each operand's value at that point.
    """
    if np.any(bad):
        i = int(np.argmax(np.broadcast_to(bad, x.shape)))
        values = (float(np.broadcast_to(v, x.shape)[i]) for v in operands)
        raise _Failure(i, template.format(*values))


def _eval_node(node, x: np.ndarray):
    """Value of ``node`` at the 1-d points x; a constant subtree gives a scalar."""
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Variable):
        return x
    if isinstance(node, Constant):
        return math.pi
    if isinstance(node, Neg):
        return np.negative(_eval_node(node.child, x))
    if isinstance(node, Call):
        arg = _eval_node(node.arg, x)
        if node.name == "sqrt":
            _fail_where(arg < 0, x, "sqrt of negative value {!r}", arg)
        value = FUNCTIONS[node.name](arg)
        _fail_where(~np.isfinite(value), x, node.name + "({!r}) is not finite", arg)
        return value
    if isinstance(node, BinOp):
        a = _eval_node(node.left, x)
        b = _eval_node(node.right, x)
        if node.op == "/":
            _fail_where(b == 0, x, "division by zero")
        if node.op != "^":
            return _OPERATORS[node.op](a, b)
        # a negative base requires an integer exponent to stay real
        _fail_where(
            (a < 0) & (b != np.trunc(b)), x,
            "negative base {!r} with non-integer exponent {!r}", a, b,
        )
        value = np.power(a, b)
        _fail_where(~np.isfinite(value), x, "power {!r}^{!r} is not finite", a, b)
        return value
    raise TypeError(f"not an AST node: {node!r}")  # pragma: no cover


def to_source(expr: PotentialExpr | object) -> str:
    """Pretty-print an AST; re-parsing the output gives an identical tree."""
    node = expr.ast if isinstance(expr, PotentialExpr) else expr
    return _print_node(node)


def _print_node(node, parent_prec: int = 0) -> str:
    # precedence levels: '+-' 1, '*/' 2, unary minus 3, '^' 4
    if isinstance(node, Number):
        text = repr(node.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(node, Variable):
        return "x"
    if isinstance(node, Constant):
        return node.name
    if isinstance(node, Neg):
        inner = f"-{_print_node(node.child, 3)}"
        return f"({inner})" if parent_prec > 3 else inner
    if isinstance(node, Call):
        return f"{node.name}({_print_node(node.arg)})"
    prec = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
    # left operand of '^' must be an atom; right-associativity needs the
    # left side parenthesized at equal precedence for '^', the right side
    # for the left-associative operators
    if node.op == "^":
        left = _print_node(node.left, 5)
        right = _print_node(node.right, prec)
    else:
        left = _print_node(node.left, prec)
        right = _print_node(node.right, prec + 1)
    text = f"{left} {node.op} {right}"
    return f"({text})" if parent_prec > prec else text
