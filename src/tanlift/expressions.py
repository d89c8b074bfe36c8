"""Parser for the coefficient-expression grammar of scenario files.

The grammar covers numeric literals, named variables, +, -, *, /, unary
minus, parentheses, and the functions sin, cos, exp (one argument) and
pow (two arguments).  Parsing produces sympy expressions so that every
expression-defined field carries exact derivatives; evaluation goes
through lambdify, with one memoized printer per field.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from typing import Sequence

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from .errors import ExpressionError
from .manifold import ChartManifold, VectorField

_FUNCTIONS = {"sin": (sp.sin, 1), "cos": (sp.cos, 1), "exp": (sp.exp, 1), "pow": (None, 2)}

# The smallest positive float (subnormal).
_FLOAT_TINY = math.ldexp(1.0, -1074)
_OUT_OF_RANGE = "result is undefined or out of the float range"

# What sympy reduces a division by zero or pow(0, negative) to.
_UNDEFINED = (sp.zoo, sp.nan, sp.oo, -sp.oo)

# Deepest nesting of parentheses, function calls and unary signs.  At 24
# levels of `1/sin(x2 + x1/sin(...))`, about four tree levels each, the
# field and its Jacobian kernel still compile within Python's default
# recursion limit, with 150 frames to spare.
_MAX_NESTING = 24

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
        self.depth = 0

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

    def nested(self, pos: int, parse):
        """``parse()`` one level deeper: inside parentheses, a call or a unary sign."""
        if self.depth == _MAX_NESTING:
            raise ExpressionError(f"expression nests deeper than {_MAX_NESTING} levels", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        expr = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {text!r}", pos)
        return expr

    def expression(self):
        node = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = _in_float_range(node + rhs if text == "+" else node - rhs, pos)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = _in_float_range(node * rhs if text == "*" else _defined(node / rhs, pos), pos)
            else:
                return node

    def unary(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return -self.nested(pos, self.unary)
        if kind == "op" and text == "+":
            self.advance()
            return self.nested(pos, self.unary)
        return self.primary()

    def arguments(self) -> list:
        """The parenthesized, comma-separated arguments of a function call."""
        self.expect("(")
        args = [self.expression()]
        while self.peek()[:2] == ("op", ","):
            self.advance()
            args.append(self.expression())
        self.expect(")")
        return args

    def primary(self):
        kind, text, pos = self.advance()
        if kind == "number":
            if not math.isfinite(float(text)):
                raise ExpressionError(f"number {text} is out of range", pos)
            return sp.Float(text) if ("." in text or "e" in text or "E" in text) else sp.Integer(int(text))
        if kind == "name":
            if text in _FUNCTIONS:
                args = self.nested(pos, self.arguments)
                fn, arity = _FUNCTIONS[text]
                if len(args) != arity:
                    raise ExpressionError(f"{text} takes {arity} argument(s), got {len(args)}", pos)
                return _in_float_range(_power(args[0], args[1], pos) if text == "pow" else fn(args[0]), pos)
            if text not in self.symbols:
                known = ", ".join(sorted(self.symbols))
                raise ExpressionError(f"unknown variable {text!r} (known: {known})", pos)
            return self.symbols[text]
        if kind == "op" and text == "(":
            node = self.nested(pos, self.expression)
            self.expect(")")
            return node
        label = repr(text) if text else "end of input"
        raise ExpressionError(f"unexpected {label}", pos)


def _magnitude(constant) -> float:
    """``abs`` of a constant expression to 5 digits; inf past the float range, nan if undefined."""
    return abs(complex(constant.evalf(5)))


def _power(base, exponent, pos: int):
    """``base ** exponent``, unless a constant power lies outside the float range.

    Sympy computes a power of rationals exactly, so a tower such as
    ``pow(2, pow(3, pow(3, 3)))`` would not finish; the magnitude of a
    constant power is evaluated first.
    """
    if base.is_number and exponent.is_number and not base.is_zero:
        if not _FLOAT_TINY <= _magnitude(sp.Pow(base, exponent, evaluate=False)) <= sys.float_info.max:
            raise ExpressionError(_OUT_OF_RANGE, pos)
    return _defined(base**exponent, pos)


def _in_float_range(node, pos: int):
    """``node``, unless it is a constant that is undefined or beyond the float range.

    Sympy evaluates functions of constants, and ``sin`` of a constant as
    large as ``exp(exp(31.6))`` would not finish.
    """
    if node.is_number and not _magnitude(node) <= sys.float_info.max:
        raise ExpressionError(_OUT_OF_RANGE, pos)
    return node


def _defined(node, pos: int):
    """``node``, unless sympy reduced it to an infinity or NaN."""
    if node.has(*_UNDEFINED):
        raise ExpressionError(f"undefined value {node} (division by zero)", pos)
    return node


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


def _printer() -> NumPyPrinter:
    """The printer ``lambdify`` would build for ``modules="numpy"``, with ``_print`` memoized.

    A field compiles its coefficients and later its kernel with one such
    printer, so each column entry and each repeated sub-tree is printed
    once.  The memo key holds the keyword arguments and whether the call
    is top-level, because sympy prints a top-level Float in full and a
    nested one stripped of trailing zeros.
    """
    printer = NumPyPrinter(
        {
            "fully_qualified_modules": False,
            "inline": True,
            "allow_unknown_functions": True,
            "user_functions": {},
        }
    )
    plain = printer._print
    memo = {}

    def print_once(expr, **kwargs):
        key = (expr, tuple(sorted(kwargs.items())), printer._print_level == 0)
        if key not in memo:
            memo[key] = plain(expr, **kwargs)
        return memo[key]

    printer._print = print_once
    return printer


def _compile(printer: NumPyPrinter, args, exprs: list):
    """``sp.lambdify(args, exprs, modules="numpy")`` printed by ``printer``, with no docstring render."""
    return sp.lambdify(
        args, exprs, modules="numpy", printer=printer, use_imps=False, docstring_limit=0
    )


def _power_free(exprs) -> bool:
    """No entry has a power, so numpy arrays, numpy scalars and Python floats evaluate it alike."""
    return not any(expr.has(sp.Pow) for expr in exprs)


def field_from_symbolic(manifold: ChartManifold, column: sp.Matrix, args, name: str) -> VectorField:
    """Wrap a sympy column matrix as a VectorField.

    The coefficient vector compiles to one function here.  On the first
    ``jacobian_at`` the Jacobian is differentiated and compiled together
    with the coefficients into the field's ``kernel``, one function that
    returns both; the printer the two compiles share is then dropped.  The
    symbolic Jacobian is formed at most once: ``sym`` carries it, as a
    cached function, to every bracket that takes the field as an operand.
    Only a field without powers is ``vectorized``: numpy rounds ``x**k``
    on arrays differently from ``x**k`` on one number.  By the same test
    on all its entries, a kernel without powers is called on Python floats,
    which is cheaper and rounds alike.  One with powers keeps numpy
    scalars: on floats ``1/x`` raises ZeroDivisionError, a large ``x**2``
    OverflowError, and ``(-1.0)**0.5`` is complex.  The test covers the
    Jacobian too, because x1*sin(x1*x2) has x1**2 in its Jacobian.
    """
    n = manifold.dim
    printer, f_kernel, on_floats = _printer(), None, False
    jacobian = functools.cache(lambda: column.jacobian(args))
    f_vec = _compile(printer, args, list(column))

    def func(x):
        return f_vec(*x)

    def kernel(x):
        nonlocal printer, f_kernel, on_floats
        if f_kernel is None:
            entries = list(column) + list(jacobian())
            f_kernel, printer, on_floats = _compile(printer, args, entries), None, _power_free(entries)
        return f_kernel(*(x.tolist() if on_floats else x))

    def jac(x):
        return np.array(kernel(x)[n:], dtype=float).reshape(n, n)

    return VectorField(
        manifold=manifold,
        func=func,
        jac=jac,
        name=name,
        sym=(column, tuple(args), jacobian),
        kernel=kernel,
        vectorized=_power_free(column),
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
    f_vec = _compile(_printer(), args, parsed)

    def dynamics(x, y, u):
        u = np.zeros(control_dim) if u is None else np.asarray(u, dtype=float)
        return np.array(f_vec(*x, *y, *u), dtype=float)

    return dynamics
