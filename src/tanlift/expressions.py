"""Parser for the coefficient-expression grammar of scenario files.

The grammar covers numeric literals, named variables, +, -, *, /, unary
minus, parentheses, and the functions sin, cos, exp (one argument) and
pow (two arguments).  Parsing produces sympy expressions so that every
expression-defined field carries exact derivatives; evaluation goes
through lambdify.
"""

from __future__ import annotations

import functools
import re
from typing import Sequence

import numpy as np
import sympy as sp

from .errors import ExpressionError
from .manifold import ChartManifold, VectorField

_FUNCTIONS = {"sin": (sp.sin, 1), "cos": (sp.cos, 1), "exp": (sp.exp, 1), "pow": (None, 2)}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/(),]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None or match.end() == pos:
            stripped = src[pos:].lstrip()
            at = len(src) - len(stripped)
            raise ExpressionError(f"unexpected character {src[at]!r}", at)
        if match.group("number") is not None:
            tokens.append(("number", match.group(0).strip(), match.start()))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, symbols: dict):
        self.src = src
        self.symbols = symbols
        self.tokens = _tokenize(src)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, value):
        kind, text, pos = self.peek()
        if kind != "op" or text != value:
            raise ExpressionError(f"expected {value!r}", pos)
        return self.advance()

    def parse(self):
        expr = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {text!r}", pos)
        return expr

    def expression(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = node + rhs if text == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = node * rhs if text == "*" else node / rhs
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return -self.unary()
        if kind == "op" and text == "+":
            self.advance()
            return self.unary()
        return self.primary()

    def primary(self):
        kind, text, pos = self.advance()
        if kind == "number":
            return sp.Float(text) if ("." in text or "e" in text or "E" in text) else sp.Integer(int(text))
        if kind == "name":
            if text in _FUNCTIONS:
                self.expect("(")
                args = [self.expression()]
                while True:
                    k, t, p = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.expression())
                    else:
                        break
                self.expect(")")
                fn, arity = _FUNCTIONS[text]
                if len(args) != arity:
                    raise ExpressionError(f"{text} takes {arity} argument(s), got {len(args)}", pos)
                return args[0] ** args[1] if text == "pow" else fn(args[0])
            if text not in self.symbols:
                known = ", ".join(sorted(self.symbols))
                raise ExpressionError(f"unknown variable {text!r} (known: {known})", pos)
            return self.symbols[text]
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect(")")
            return node
        label = repr(text) if text else "end of input"
        raise ExpressionError(f"unexpected {label}", pos)


def chart_symbols(dim: int, prefix: str = "x") -> dict:
    return {f"{prefix}{i + 1}": sp.Symbol(f"{prefix}{i + 1}", real=True) for i in range(dim)}


def parse_expression(src: str, symbols: dict) -> sp.Expr:
    """Parse one coefficient expression over the given variable table."""
    return _Parser(src, symbols).parse()


def field_from_expressions(
    manifold: ChartManifold, exprs: Sequence[str], name: str = "X"
) -> VectorField:
    """Build a vector field from one coefficient expression per coordinate.

    Expressions use variables x1..xn.  The field carries an exact
    (symbolically differentiated) Jacobian and a symbolic payload used by
    bracket recursion.
    """
    if len(exprs) != manifold.dim:
        raise ValueError(
            f"need {manifold.dim} coefficient expressions for {manifold.name}, got {len(exprs)}"
        )
    table = chart_symbols(manifold.dim)
    args = [table[f"x{i + 1}"] for i in range(manifold.dim)]
    column = sp.Matrix([parse_expression(src, table) for src in exprs])
    return field_from_symbolic(manifold, column, args, name)


def field_from_symbolic(manifold: ChartManifold, column: sp.Matrix, args, name: str) -> VectorField:
    """Wrap a sympy column matrix as a VectorField.

    The coefficient vector compiles to one function here; the Jacobian
    is differentiated and compiled on the first ``jacobian_at``.
    """
    f_vec = sp.lambdify(args, list(column), modules="numpy")
    f_jac = functools.cache(lambda: sp.lambdify(args, column.jacobian(args), modules="numpy"))

    def func(x):
        return np.array(f_vec(*x), dtype=float)

    def jac(x):
        return np.asarray(f_jac()(*x), dtype=float).reshape(manifold.dim, manifold.dim)

    return VectorField(
        manifold=manifold, func=func, jac=jac, name=name, sym=(column, tuple(args))
    )


def fiber_dynamics_from_expressions(
    manifold: ChartManifold, exprs: Sequence[str], control_dim: int
):
    """Compile fiber dynamics f(x, y, u) from expressions over x*, y*, u*.

    Used by general (non-affine) vertical systems; returns a callable
    (x, y, u) -> dy/dt.
    """
    n = manifold.dim
    if len(exprs) != n:
        raise ValueError(f"need {n} fiber dynamics expressions, got {len(exprs)}")
    table = {}
    table.update(chart_symbols(n, "x"))
    table.update(chart_symbols(n, "y"))
    table.update(chart_symbols(control_dim, "u"))
    args = [table[f"x{i + 1}"] for i in range(n)]
    args += [table[f"y{i + 1}"] for i in range(n)]
    args += [table[f"u{i + 1}"] for i in range(control_dim)]
    parsed = [parse_expression(src, table) for src in exprs]
    f_vec = sp.lambdify(args, parsed, modules="numpy")

    def dynamics(x, y, u):
        u = np.zeros(control_dim) if u is None else np.asarray(u, dtype=float)
        return np.array(f_vec(*x, *y, *u), dtype=float)

    return dynamics
