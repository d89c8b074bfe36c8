"""Coefficient expressions: the scenario grammar's parser and every sympy rule of the package.

The grammar covers numeric literals, named variables, +, -, *, /, unary
minus, parentheses, and sin, cos, exp (one argument) and pow (two).
Parsing produces sympy expressions; derivatives, brackets, structural
zeros and the constant rule are formed here, on a payload no other module
reads.  Evaluation goes through lambdify, with one memoized printer per
field, which prints sums and products to sympy's own text itself.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from typing import Sequence

import numpy as np
import sympy as sp
from sympy.core.exprtools import decompose_power
from sympy.ntheory.multinomial import multinomial_coefficients_iterator
from sympy.printing.numpy import NumPyPrinter
from sympy.printing.precedence import PRECEDENCE, precedence

from .errors import ExpressionError, NumericalError
from .manifold import ChartManifold, VectorField

_FUNCTIONS = {"sin": (sp.sin, 1), "cos": (sp.cos, 1), "exp": (sp.exp, 1), "pow": (None, 2)}

_OUT_OF_RANGE = "result is undefined or out of the float range"
# What ``_unfit_constant`` finds; the compile gate's messages end in them.
_NOT_REAL, _TOO_LARGE = "that is not real", "beyond the float range"

# What sympy reduces a division by zero or pow(0, negative) to.
_UNDEFINED = (sp.zoo, sp.nan, sp.oo, -sp.oo)

# Deepest nesting of parentheses, function calls and unary signs.  At 24
# levels of `1/sin(x2 + x1/sin(...))`, about four tree levels each, the
# field and its Jacobian kernel compile in about 320 frames above the
# caller, well within Python's default recursion limit of 1000.
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
        self.fit = {}  # the nodes ``_unfit_constant`` has passed in this parse

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
                node = _in_float_range(node + rhs if text == "+" else node - rhs, pos, self.fit)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = _in_float_range(node * rhs if text == "*" else _quotient(node, rhs, pos), pos, self.fit)
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
                node = _power(args[0], args[1], pos) if text == "pow" else fn(args[0])
                return _in_float_range(node, pos, self.fit)
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


def _power(base, exponent, pos: int):
    """``base ** exponent``, unless a constant power lies outside the float range.

    Sympy computes a power of rationals exactly, so a tower such as
    ``pow(2, pow(3, pow(3, 3)))`` would not finish, and a tiny power such
    as ``pow(2, -1000000000)`` would be expanded digit by digit; a constant
    power is evaluated first.  One that rounds to 0.0 from a nonzero base
    is below the smallest float; any other is held to ``_unfit_constant``.
    """
    if base.is_number and exponent.is_number and not base.is_zero:
        power = sp.Pow(base, exponent, evaluate=False)
        if not complex(power.evalf(17)):
            raise ExpressionError(_OUT_OF_RANGE, pos)
        _in_float_range(power, pos)
    return _defined(base**exponent, pos)


def _in_float_range(node, pos: int, fit: dict | None = None):
    """``node``, unless it is or holds a constant that ``_unfit_constant`` finds; ``fit`` as there.

    Sympy evaluates functions of constants, and ``sin`` of a constant as
    large as ``exp(exp(31.6))`` would not finish.  A constant such as
    ``pow(-2, 0.5)`` is complex, and compiled code cannot make it a float.
    """
    unfit = _unfit_constant([node], fit)
    if unfit:
        raise ExpressionError(_OUT_OF_RANGE if unfit == _TOO_LARGE else "result is not a real number", pos)
    return node


def _unfit_constant(entries, fit: dict | None = None):
    """``_TOO_LARGE`` or ``_NOT_REAL`` for the first unfit constant a walk of ``entries`` meets, else None.

    The one constant rule of the parser and the compile gate: a constant
    is fit when its value, rounded to a float, is finite and real.  The
    walk, in preorder, decides each topmost constant node whole.  A
    Rational rounds as Python's ``p / q`` does; a Float is screened by its
    exponent and only one past the screen is converted, and none is
    hashed (that converts it); any other constant, such as ``exp(710)`` or
    ``(-1)**(1/3)``, is evaluated to 17 digits.  An infinity or NaN is
    ``_defined``'s to reject in the parser, and compiled code reports it
    as not finite.

    ``fit`` holds, by ``id``, each node a walk has passed; the dict keeps
    the node alive, so no id is reused.  A walk skips them, so the parser,
    which keeps one ``fit`` for a whole parse and walks each node it forms,
    walks at each operator only the nodes that operator formed.  A walk
    that finds an unfit constant leaves ``fit`` holding nodes not yet
    decided; the caller then raises and drops it.

    Sympy can form an unfit constant as it folds, simplifies or
    differentiates.  It writes ``x1*exp(700)*exp(10)`` as ``x1*exp(710)``,
    pow(-exp(x1), 1/3) as (-1)**(1/3)*exp(x1/3), and the log(-2) in the
    Jacobian of pow(-2, x2) as log(2) + I*pi.  The Jacobian of
    N*x1*sin(N*x1) has N**2, and x1*1e200*1e200 the Float 1e400.
    """
    fit = {} if fit is None else fit
    for entry in entries:
        unfit = _unfit_node(entry, fit) if id(entry) not in fit else None
        if unfit:
            return unfit
    return None


def _unfit_node(node, fit: dict):
    """``_unfit_constant`` of one node that is not in ``fit``, which it and every node walked below it join."""
    fit[id(node)] = node
    if not node.is_number:
        for arg in node.args:
            unfit = _unfit_node(arg, fit) if id(arg) not in fit else None
            if unfit:
                return unfit
        return None
    # A Float is man * 2**exp, below 2**(exp + bits of man).
    if node.is_Float and sum(node._mpf_[2:]) < 1024 or node in _UNDEFINED:
        return None
    # sympy rounds p/q to the nearest float, and to inf where Python's p / q overflows.
    value = float(node) if node.is_Rational or node.is_Float else complex(node.evalf(17))
    if not cmath.isfinite(value):
        return _TOO_LARGE
    if value.imag:
        return _NOT_REAL
    return None


def _quotient(node, rhs, pos: int):
    """``node / rhs``, unless undefined; mpmath refuses a Float over a Float zero, so sympy's ``node * rhs**-1`` then."""
    try:
        return _defined(node / rhs, pos)
    except ZeroDivisionError:
        return _defined(node * rhs**-1, pos)


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
    args = list(table.values())
    column = tuple(parse_expression(src, table) for src in exprs)
    return field_from_symbolic(manifold, column, args, name)


def _sign(number):
    """-1, 0 or 1 for a finite Rational or Float, read off ``.p`` or ``._mpf_``; None for any other number."""
    if number.is_Rational:
        return (number.p > 0) - (number.p < 0)
    if number.is_Float:
        negative, mantissa, exponent, _ = number._mpf_
        # mpmath writes zero with mantissa and exponent 0, an infinity or NaN with mantissa 0 only.
        if mantissa:
            return -1 if negative else 1
        return None if exponent else 0
    return None


# sympy's ``precedence`` of the grammar's nodes; a Number's and a Mul's follow from a sign.
_PRECEDENCE = {
    sp.Symbol: PRECEDENCE["Atom"],
    sp.Add: PRECEDENCE["Add"],
    sp.Pow: PRECEDENCE["Pow"],
    **dict.fromkeys((sp.sin, sp.cos, sp.exp, sp.log), PRECEDENCE["Func"]),
}


def _precedence(node) -> int:
    """``sympy.printing.precedence.precedence(node)``, without the ``-node`` and the sign queries it makes."""
    kind = type(node)
    if kind in _PRECEDENCE:
        return _PRECEDENCE[kind]
    if kind is sp.Mul:
        # A Mul whose factors include a Function with its own precedence is sympy's case.
        if not any(isinstance(arg, sp.Function) and hasattr(arg, "precedence") for arg in node.args):
            first = node.args[0]
            sign = _sign(first) if first.is_Number else 1
            if sign is not None:
                return PRECEDENCE["Add"] if sign < 0 else PRECEDENCE["Mul"]
    elif isinstance(node, sp.Number):
        sign = _sign(node)
        if sign is not None:
            return PRECEDENCE["Add"] if sign < 0 else PRECEDENCE["Atom" if node.is_Integer or node.is_Float else "Mul"]
    return precedence(node)


def _ordered_terms(add) -> list:
    """``add.as_ordered_terms()``: sympy's order of a sum's terms for printing.

    Its special case first: a number and a negative multiple of one factor
    keep that order, as in ``1 - 2.5*x1``.  Otherwise ``Expr.as_terms``
    splits each term into a complex coefficient and the integer powers of
    its generators, and the terms sort by ``_parse_order``'s lex key: the
    negated exponents over the generators in ``default_sort_key`` order,
    then the coefficient.
    """
    if len(add.args) == 2:

        def numbers_first(node):
            return not isinstance(node, (sp.Number, sp.NumberSymbol))

        lead, second = sorted(add.args, key=numbers_first)
        if not numbers_first(lead) and isinstance(second, sp.Mul):
            factors = sorted(second.args, key=numbers_first)
            if len(factors) == 2 and isinstance(factors[0], sp.Number):
                positive, negative = _sign(lead), _sign(factors[0])
                positive = lead.is_positive if positive is None else positive > 0
                negative = factors[0].is_negative if negative is None else negative < 0
                if positive and negative:
                    return [lead, second]
    # A set, as sympy's: a sort key with a Float coefficient is not a total
    # order (1 and 1.0 are neither equal nor one less), so the order sorted
    # meets the generators in matters.
    gens, split = set(), []
    for term in add.args:
        if term.is_Mul and term.args[0].is_Number:
            number, factors = term.args[0], term.args[1:]
        elif term.is_Number:
            number, factors = term, ()
        else:
            number, factors = sp.S.One, term.args if term.is_Mul else (term,)
        # complex(number), without its evalf for a Rational or Float.
        coeff, powers = complex(float(number)) if _sign(number) is not None else complex(number), {}
        for factor in factors:
            if factor.is_number:
                try:
                    coeff *= complex(factor)
                except (TypeError, ValueError):
                    pass
                else:
                    continue
            base, exponent = decompose_power(factor)
            powers[base] = exponent
            gens.add(base)
        split.append((coeff, powers))
    index = {gen: i for i, gen in enumerate(sorted(gens, key=sp.default_sort_key))}

    def lex(position):
        coeff, powers = split[position]
        monomial = [0] * len(index)
        for base, exponent in powers.items():
            monomial[index[base]] = -exponent
        return tuple(monomial), (), ((bool(coeff.imag), coeff.imag), (coeff.real, coeff.imag))

    return [add.args[i] for i in sorted(range(len(split)), key=lex)]


class _SourcePrinter(NumPyPrinter):
    """``NumPyPrinter``, printing sums, products and parentheses to its text without building sympy objects.

    Most of sympy's printing time goes to objects and assumption queries
    formed only to decide a sign or an order: ``precedence`` of a Mul forms
    ``-self``, ``_print_Mul`` forms the product without its negative
    coefficient, and ``as_ordered_terms`` evaluates every coefficient.
    Here a number's sign comes from its digits, precedence from
    ``_precedence``, the positive product is an edit of the sorted factor
    list and the order of a sum is ``_ordered_terms``.  The text is
    ``NumPyPrinter``'s, string for string.  Every other node goes to
    sympy's printer, and so do a sum with an ``order`` keyword and a
    product whose coefficient is an infinity or NaN; sympy's
    ``precedence`` decides any node outside ``_PRECEDENCE`` and a product
    holding a Function with a precedence of its own.
    """

    def parenthesize(self, item, level, strict=False):
        prec = _precedence(item)
        if prec < level or (not strict and prec <= level):
            return f"({self._print(item)})"
        return self._print(item)

    def _add(self, expr, order=None):
        """``StrPrinter._print_Add``."""
        if order is not None:
            return super()._print_Add(expr, order)
        prec = _precedence(expr)
        parts = []
        for term in _ordered_terms(expr):
            text = self._print(term)
            sign = "+"
            if text.startswith("-"):
                sign, text = "-", text[1:]
            parts += [sign, f"({text})" if _precedence(term) < prec else text]
        return ("" if parts[0] == "+" else "-") + " ".join(parts[1:])

    def _mul(self, expr):
        """``CodePrinter._print_Mul``, its ``_keep_coeff`` an edit of the ordered factors."""
        first, *rest = expr.args
        coefficient = _sign(first) if first.is_Number else 1
        if coefficient is None:
            return super()._print_Mul(expr)
        prec = _precedence(expr)
        sign, factors = "", expr.args
        if coefficient < 0:
            # The list sympy sorts, since its sort is not a total order (see _ordered_terms).
            sign, factors = "-", rest if first is sp.S.NegativeOne else [-first, *rest]
        factors = sorted(factors, key=sp.default_sort_key)
        numerator, denominator = [], []
        for item in factors:
            if item.is_Pow and item.exp.is_Rational and item.exp.p < 0:
                # sympy distributes x**-1 over a product, so CodePrinter's parentheses for a Mul base never apply.
                power = item.base if item.exp is sp.S.NegativeOne else sp.Pow(item.base, -item.exp, evaluate=False)
                denominator.append(power)
            else:
                numerator.append(item)
        numerator = numerator or [sp.S.One]
        if len(numerator) == 1 and sign:
            # sympy's weight for Python's unary minus, between Mul and Pow.
            num = [self.parenthesize(numerator[0], (PRECEDENCE["Pow"] + PRECEDENCE["Mul"]) / 2)]
        else:
            num = [self.parenthesize(x, prec) for x in numerator]
        den = [self.parenthesize(x, prec) for x in denominator]
        if not denominator:
            return sign + "*".join(num)
        if len(denominator) == 1:
            return sign + "*".join(num) + "/" + den[0]
        return sign + "*".join(num) + "/(" + "*".join(den) + ")"

    # sympy's Printer finds a node's printer by the name ``_print_<class name>``.
    _print_Add, _print_Mul = _add, _mul


def _printer() -> _SourcePrinter:
    """The printer ``lambdify`` would build for ``modules="numpy"``, as a ``_SourcePrinter`` with ``_print`` memoized.

    A field compiles its coefficients and later its kernel with one such
    printer, so each column entry and each repeated sub-tree is printed
    once.  The memo key holds the keyword arguments and whether the call
    is top-level, because sympy prints a top-level Float in full and a
    nested one stripped of trailing zeros.
    """
    printer = _SourcePrinter(
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


def _compile(printer: _SourcePrinter, args, exprs: list, label: str):
    """``sp.lambdify(args, exprs, modules="numpy")`` printed by ``printer``, as a caller of one sequence.

    The one gate of every compiled product.  It checks constants and
    names: an entry with a constant beyond the float range or not real
    (``_unfit_constant``), or with a function the printer leaves under its
    sympy name, such as the ``DiracDelta`` of ``Abs``'s second derivative,
    is a NumericalError naming ``label``.  The caller it returns picks the
    scalars the code runs on.  With no power in any entry it passes the
    values as given, and Python floats are cheaper and round alike;
    otherwise numpy scalars, since on floats ``1/x`` raises
    ZeroDivisionError, a large ``x**2`` OverflowError, and ``(-1.0)**0.5``
    is complex.  A kernel's entries hold its Jacobian: x1*sin(x1*x2) has
    x1**2 there.  No docstring is rendered.
    """
    unfit = _unfit_constant(exprs)
    if unfit:
        raise NumericalError(f"{label} has a constant {unfit}")
    func = sp.lambdify(
        args, exprs, modules="numpy", printer=printer, use_imps=False, docstring_limit=0
    )
    unknown = sorted(set(func.__code__.co_names) - func.__globals__.keys() - func.__builtins__.keys())
    if unknown:
        raise NumericalError(f"{label} has {', '.join(unknown)}, which numpy cannot evaluate")
    if _power_free(exprs):
        return lambda values: func(*values)
    return lambda values: func(*np.array(values, dtype=float))


def _derivative(expr, x):
    """``expr.diff(x)``, the same tree, without sympy's closing ``is_zero`` query.

    ``Derivative.__new__`` asks ``obj.is_zero`` of each derivative it has
    built, at every level of the recursion, and returns ``obj`` either way;
    that query is most of the cost of a bracket's Jacobian.  This follows
    sympy's own rules node by node: Add, the Leibniz terms of
    ``Mul._eval_derivative_n_times``, ``Pow._eval_derivative``, and
    ``Function._eval_derivative`` for a one-argument function class that
    keeps it (sin, cos, exp, log).  Any other node, such as the ``Abs`` of
    ``pow(pow(x1, 2), 0.5)``, is left to ``expr.diff(x)``.
    """
    if x not in expr.free_symbols:
        return sp.S.Zero
    if expr == x:
        return sp.S.One
    kind = type(expr)
    if kind is sp.Add:
        return sp.Add(*[_derivative(a, x) for a in expr.args])
    if kind is sp.Mul:
        return sp.Add(*[
            c * sp.Mul(*[_derivative(a, x) if k else a for k, a in zip(orders, expr.args)])
            for orders, c in multinomial_coefficients_iterator(len(expr.args), 1)
        ])
    if kind is sp.Pow:
        base, exponent = expr.args
        dbase, dexp = _derivative(base, x), _derivative(exponent, x)
        return expr * (dexp * sp.log(base) + dbase * exponent / base)
    if len(expr.args) == 1 and getattr(kind, "_eval_derivative", None) is sp.Function._eval_derivative:
        da = _derivative(expr.args[0], x)
        return sp.S.Zero if da.is_zero else expr.fdiff(1) * da
    return expr.diff(x)


def symbolic_bracket(X: VectorField, Y: VectorField, name: str) -> VectorField:
    """[X, Y] = J_Y X - J_X Y of two symbolic fields, each entry the tree sympy's matrix product forms.

    ``Add`` of the products drops a product 0 and keeps a nan 0*zoo; ``* -1``
    flattens as sympy's product negates: -(-x2**0.0) is 1 there, x2**0.0 by ``-``.
    """
    (col_x, args, jac_x), (col_y, _, jac_y) = X.sym, Y.sym

    def dot(row, column):
        return sp.Add(*[a * b for a, b in zip(row, column)])

    column = tuple(dot(dy, col_x) + dot(dx, col_y) * -1 for dy, dx in zip(jac_y(), jac_x()))
    return field_from_symbolic(X.manifold, column, args, name)


def structurally_zero(F: VectorField) -> bool:
    """Every coefficient of F's payload is a sympy Number that is zero, 0.0 as 0: a proof that F vanishes.

    sympy's ``is_zero`` of an expression costs milliseconds and answers "unknown" for nonzero brackets.
    """
    return F.sym is not None and all(c.is_Number and c.is_zero for c in F.sym[0])


@functools.cache
def scalar_function(dim: int, src: str) -> tuple:
    """f, its gradient and its Hessian as functions of a coordinate vector, for ``src`` over x1..x_dim.

    The gradient is ``_derivative``'s column, a field on an unbounded chart whose kernel gives the Hessian.
    """
    table = chart_symbols(dim)
    args = list(table.values())
    expr = parse_expression(src, table)
    value = _compile(_printer(), args, [expr], "function")
    chart = ChartManifold(dim=dim, name=f"R{dim}")
    gradient = field_from_symbolic(chart, tuple(_derivative(expr, x) for x in args), args, "gradient")
    return (lambda x: value(x)[0]), gradient.value, gradient.jacobian_at


def _power_free(exprs) -> bool:
    """No entry has a power, so numpy arrays, numpy scalars and Python floats evaluate it alike."""
    return not any(expr.has(sp.Pow) for expr in exprs)


def field_from_symbolic(manifold: ChartManifold, column: Sequence, args, name: str) -> VectorField:
    """Wrap a tuple of sympy expressions, one per coordinate, as a VectorField.

    The coefficient vector compiles to one function here.  On the first
    ``jacobian_at`` the Jacobian is differentiated and compiled together
    with the coefficients into the field's ``kernel``, one function that
    returns both; the printer the two compiles share is then dropped.  The
    symbolic Jacobian is formed at most once: ``sym`` carries it, as a
    cached function, to every bracket that takes the field as an operand;
    its rows are tuples of ``_derivative``, sympy's ``Matrix.jacobian`` trees.
    Only a field without powers is ``vectorized``: numpy rounds ``x**k``
    on arrays differently from ``x**k`` on one number.
    """
    n = manifold.dim
    printer, f_kernel = _printer(), None
    jacobian = functools.cache(lambda: tuple(tuple(_derivative(entry, x) for x in args) for entry in column))
    func = _compile(printer, args, list(column), f"field {name!r}")

    def kernel(x):
        nonlocal printer, f_kernel
        if f_kernel is None:
            entries = [*column, *(entry for row in jacobian() for entry in row)]
            f_kernel, printer = _compile(printer, args, entries, f"Jacobian of field {name!r}"), None
        return f_kernel(x)

    def jac(x):
        return np.array(kernel(x.tolist())[n:], dtype=float).reshape(n, n)

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
    table = {**chart_symbols(n, "x"), **chart_symbols(n, "y"), **chart_symbols(control_dim, "u")}
    args = list(table.values())
    parsed = [parse_expression(src, table) for src in exprs]
    f_vec = _compile(_printer(), args, parsed, "fiber dynamics")

    def dynamics(x, y, u):
        u = np.zeros(control_dim) if u is None else u
        return np.array(f_vec(np.concatenate([x, y, u]).tolist()), dtype=float)

    return dynamics
