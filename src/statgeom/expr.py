"""Coordinate expression language with exact first and second derivatives.

An expression is parsed once into a small immutable tree; named parameters
are substituted by their numeric values at parse time, so evaluation never
touches a symbol table.  Every pass over trees is one non-recursive walk
in two steps: a :class:`Plan` keys the nodes of one or several roots by
their structure and numbers the distinct subtrees once, children first, and
its ``run`` applies a per-node rule once per number.  ``eval_fields``
propagates the jets of many fields at many points through one rule per
node, cut at derivative order 2 (value, gradient, Hessian), 1 (value,
gradient) or 0 (values alone, the same rule with no derivative term), so a
subtree shared by several fields is evaluated once per batch; a caller that
walks the same fields batch after batch (an ``ExpressionField``) makes
their plan once and passes it in.  ``eval2_points`` and ``eval_points``
are its one-field cases at orders 2 and 0, constant exponents are folded
by the same rule at order 0, and ``ScalarField.differentiate`` (for higher
derivatives) and ``format_expression`` build trees or text, so any tree the
parser builds goes through all of them.  A single point is a
batch of one; the recursive point-wise reference evaluator lives with the
tests, in ``tests/oracles.py``.

Grammar (``^`` binds tighter than unary minus and associates to the right)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := number | ident | ident "(" expr ")" | "(" expr ")"

Known functions: exp, log, sqrt, sin, cos, lgamma (plus digamma, trigamma
and polygammaN, which mainly appear in machine-generated derivative trees).
Exponents must be constant; a non-constant exponent is rewritten as
``exp(b*log(a))`` while parsing.

Everything here is immutable and evaluation is pure, so fields can be shared
and evaluated from any number of threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .special import log_gamma, polygamma


class ParseError(ValueError):
    """Malformed expression text; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationError(ArithmeticError):
    """Evaluation left the mathematical domain or produced a non-finite value."""


# --------------------------------------------------------------------------
# Syntax tree
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Unary:
    op: str  # "neg", "exp", "log", "sqrt", "sin", "cos", "lgamma"
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str  # "add", "sub", "mul", "div"
    left: object
    right: object


@dataclass(frozen=True)
class Power:
    base: object
    exponent: float  # constant by construction


@dataclass(frozen=True)
class Psi:
    """Polygamma node: value is psi_order(arg)."""

    order: int
    arg: object


_UNARY_FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "lgamma")


@dataclass(frozen=True)
class ScalarField:
    """An expression tree together with its chart arity and coordinate names."""

    root: object
    arity: int
    coord_names: tuple[str, ...]

    def __call__(self, point: Sequence[float]) -> float:
        return float(eval_points(self, [point])[0])

    def differentiate(self, index: int) -> "ScalarField":
        """Exact partial derivative with respect to coordinate ``index``, as a new field."""
        if not 0 <= index < self.arity:
            raise IndexError(f"coordinate index {index} out of range for arity {self.arity}")
        return ScalarField(_result(self.root, _derivative, index), self.arity, self.coord_names)


def constant_field(value: float, coords: Sequence[str]) -> ScalarField:
    names = tuple(coords)
    return ScalarField(Const(float(value)), len(names), names)


# --------------------------------------------------------------------------
# Tree walk (evaluation and every transform below are rules on it)
# --------------------------------------------------------------------------

def _head(node: object) -> tuple[tuple, tuple]:
    """The structural key of ``node`` without its children's numbers, and its children.

    Floats enter by their bits (``float.hex``), so 0.0 and -0.0 stay apart.
    """
    kind = type(node)
    if kind is Const:
        return (kind, float.hex(node.value)), ()
    if kind is Var:
        return (kind, node.index), ()
    if kind is Binary:
        return (kind, node.op), (node.left, node.right)
    if kind is Unary:
        return (kind, node.op), (node.arg,)
    if kind is Power:
        return (kind, float.hex(node.exponent)), (node.base,)
    if kind is Psi:
        return (kind, node.order), (node.arg,)
    raise TypeError(f"unknown node type {kind!r}")


class Plan:
    """The distinct subtrees of several roots, numbered once, children first.

    Nodes are keyed by their structure, so equal subtrees share one number
    whether or not they are one object.  :meth:`run` applies a per-node rule
    in that order, without recursion, so a plan made once serves every
    batch its roots are walked over.  A plan holds the trees and no result.
    """

    def __init__(self, roots: Sequence):
        numbers: dict[int, int] = {}  # id(node) -> number of its key; -1 while its children wait
        by_key: dict[tuple, int] = {}  # a node's head plus its children's numbers -> its number
        nodes: list = []  # one node per number, children first
        child_numbers: list[tuple] = []
        stack: list = list(reversed(roots))  # nodes to visit, and (node, head, children) to number
        while stack:
            item = stack.pop()
            if type(item) is tuple:  # its children are numbered
                node, head, children = item
                kids = tuple([numbers[id(child)] for child in children])
            else:
                node = item
                if id(node) in numbers:
                    continue
                head, children = _head(node)
                if children:
                    numbers[id(node)] = -1
                    stack.append((node, head, children))
                    stack.extend(reversed(children))
                    continue
                kids = ()
            key = head + kids
            number = by_key.get(key)
            if number is None:
                number = by_key[key] = len(nodes)
                nodes.append(node)
                child_numbers.append(kids)
            numbers[id(node)] = number
        last_reader = {kid: number for number, kids in enumerate(child_numbers) for kid in kids}
        frees: list[list[int]] = [[] for _ in nodes]  # results dropped once this number is read
        for kid, reader in last_reader.items():
            frees[reader].append(kid)
        readers: list[list[int]] = [[] for _ in nodes]  # the roots each number answers
        for i, root in enumerate(roots):
            readers[numbers[id(root)]].append(i)
        self._steps = tuple((node, kids, tuple(free), tuple(read), number in last_reader)
                            for number, (node, kids, free, read)
                            in enumerate(zip(nodes, child_numbers, frees, readers)))

    def run(self, rule, *context):
        """Yield ``(i, result)`` for each root ``i``, the result of ``rule(node, args, *context)``.

        ``args`` are the children's results.  The rule is applied once per
        number, a result is dropped after its last reader, and each root's
        result is yielded as soon as it is computed, not in root order.
        """
        results: list = [None] * len(self._steps)
        for number, (node, kids, frees, roots, kept) in enumerate(self._steps):
            args = [results[kid] for kid in kids]
            for kid in frees:
                results[kid] = None
            result = rule(node, args, *context)
            for i in roots:
                yield i, result
            if kept:
                results[number] = result


def _result(root: object, rule, *context):
    """The result of ``rule`` at a single root, through a one-root :class:`Plan`."""
    [(_, result)] = Plan((root,)).run(rule, *context)
    return result


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)

_POLYGAMMA_RE = re.compile(r"polygamma(\d+)$")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, coords: Sequence[str], params: Mapping[str, float]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coords = {name: i for i, name in enumerate(coords)}
        self.params = dict(params)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> object:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self) -> object:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Binary("add" if text == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> object:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Binary("mul" if text == "*" else "div", node, rhs)
            else:
                return node

    def factor(self) -> object:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> object:
        base = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.factor()
            try:
                const = _constant_value(exponent)
            except EvaluationError as err:
                raise ParseError(f"constant exponent is undefined: {err}", offset) from None
            if const is not None:
                return _pow(base, const)
            # Non-constant exponent: a^b -> exp(b*log(a)).
            return Unary("exp", Binary("mul", exponent, Unary("log", base)))
        return base

    def atom(self) -> object:
        kind, text, offset = self.advance()
        if kind == "number":
            return Const(float(text))
        if kind == "ident":
            next_kind, next_text, _ = self.peek()
            if next_kind == "op" and next_text == "(":
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return self.apply_function(text, arg, offset)
            if text in self.coords:
                return Var(self.coords[text])
            if text in self.params:
                return Const(float(self.params[text]))
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)

    def apply_function(self, name: str, arg: object, offset: int) -> object:
        if name in _UNARY_FUNCTIONS:
            return Unary(name, arg)
        if name == "digamma":
            return Psi(0, arg)
        if name == "trigamma":
            return Psi(1, arg)
        match = _POLYGAMMA_RE.match(name)
        if match:
            return Psi(int(match.group(1)), arg)
        raise ParseError(f"unknown function {name!r}", offset)


def parse_expression(
    text: str,
    coords: Sequence[str],
    params: Mapping[str, float] | None = None,
) -> ScalarField:
    """Parse ``text`` over the named coordinates, freezing parameter values into the tree."""
    names = tuple(coords)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate coordinate names in {names}")
    parser = _Parser(text, names, params or {})
    try:
        root = parser.parse()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.peek()[2]) from None
    return ScalarField(root, len(names), names)


def _constant_value(node: object) -> float | None:
    """Value of a variable-free subtree, or None, unevaluated, if it contains a coordinate.

    An undefined or non-finite value raises :class:`EvaluationError`.
    """
    if _result(node, lambda n, has_var: isinstance(n, Var) or any(has_var)):
        return None
    value = _result(node, _batch_node, None, None, 0)[0]
    if not math.isfinite(value):
        raise EvaluationError(f"non-finite value {value}")
    return value


# --------------------------------------------------------------------------
# Symbolic derivative (used to build higher-order derivative fields)
# --------------------------------------------------------------------------

def _is_zero(node: object) -> bool:
    return isinstance(node, Const) and node.value == 0.0


def _is_one(node: object) -> bool:
    return isinstance(node, Const) and node.value == 1.0


def _add(a: object, b: object) -> object:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Binary("add", a, b)


def _sub(a: object, b: object) -> object:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Unary("neg", b)
    return Binary("sub", a, b)


def _mul(a: object, b: object) -> object:
    if _is_zero(a) or _is_zero(b):
        return Const(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Binary("mul", a, b)


def _div(a: object, b: object) -> object:
    if _is_zero(a):
        return Const(0.0)
    if _is_one(b):
        return a
    return Binary("div", a, b)


def _pow(base: object, exponent: float) -> object:
    if exponent == 0.0:
        return Const(1.0)
    if exponent == 1.0:
        return base
    return Power(base, float(exponent))


def _derivative(node: object, derivatives: list, index: int) -> object:
    """The walk rule of d/d(coordinate ``index``), over the children's derivatives."""
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.index == index else 0.0)
    if isinstance(node, Binary):
        da, db = derivatives
        if node.op == "add":
            return _add(da, db)
        if node.op == "sub":
            return _sub(da, db)
        if node.op == "mul":
            return _add(_mul(da, node.right), _mul(node.left, db))
        if node.op == "div":
            return _sub(_div(da, node.right),
                        _div(_mul(node.left, db), _mul(node.right, node.right)))
        raise TypeError(f"unknown binary op {node.op!r}")
    du = derivatives[0]
    if isinstance(node, Power):
        scale = _mul(Const(node.exponent), _pow(node.base, node.exponent - 1.0))
        return _mul(scale, du)
    if isinstance(node, Unary):
        if node.op == "neg":
            return Unary("neg", du) if not _is_zero(du) else du
        if node.op == "exp":
            return _mul(node, du)
        if node.op == "log":
            return _div(du, node.arg)
        if node.op == "sqrt":
            return _div(du, _mul(Const(2.0), node))
        if node.op == "sin":
            return _mul(Unary("cos", node.arg), du)
        if node.op == "cos":
            return Unary("neg", _mul(Unary("sin", node.arg), du)) if not _is_zero(du) else du
        if node.op == "lgamma":
            return _mul(Psi(0, node.arg), du)
        raise TypeError(f"unknown unary op {node.op!r}")
    if isinstance(node, Psi):
        return _mul(Psi(node.order + 1, node.arg), du)
    raise TypeError(f"unknown node type {type(node)!r}")


# --------------------------------------------------------------------------
# Evaluation batched over points
# --------------------------------------------------------------------------
#
# A batched jet is a triple (value, grad, hess) over P points, cut at the
# walk's derivative ``order`` (Taylor-mode propagation: order 0 is the same
# rules with the derivative terms left out).  The value of a subtree without
# coordinates is a float, otherwise a (P,) array.  Such a subtree carries no
# gradient (None), nor does any subtree at order 0, and a linear subtree, or
# any subtree below order 2, carries no Hessian (None): these are the
# structural zeros.  A gradient is (n,) or (P, n) and a Hessian (n, n) or
# (P, n, n); both broadcast against the point axis.  Each rule below is the
# scalar chain rule with the absent terms left out.  A function's factors
# f, f′ and f″ are formed one at a time, each after its own domain checks,
# and only as many as the order asks for: at order 0 no derivative factor
# is formed and no derivative-only check runs (sqrt at zero, ``c·u^(c−1)``,
# the next polygamma), so values read past singular derivatives.  The
# transcendental functions run through ``math`` element by element, so
# every row equals ``eval2`` of ``tests/oracles.py`` at that point, except
# that a zero may differ in sign (``_minus(None, b)`` is −b where ``eval2``
# computes 0 − b, so a zero b gives −0.0 here and 0.0 there).  A rule's
# result depends only on the node's structure and its children's, so the
# walk shares one result among equal subtrees of a batch, bit for bit, and
# the parts formed at a lower order are the bits of those at a higher one.

def _col(value):
    """A value shaped to scale gradients: (P, 1) for an array, as is for a float."""
    return value[:, None] if isinstance(value, np.ndarray) else value


def _mat(value):
    """A value shaped to scale Hessians: (P, 1, 1) for an array, as is for a float."""
    return value[:, None, None] if isinstance(value, np.ndarray) else value


def _scaled(arr, factor):
    return None if arr is None else arr * factor


def _plus(a, b):
    if a is None:
        return b
    return a if b is None else a + b


def _minus(a, b):
    if b is None:
        return a
    return -b if a is None else a - b


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _swap(m):
    return np.swapaxes(m, -1, -2)


def _map(func, u, overflow: str = "overflow"):
    """``func`` applied to a float, or to each entry of a (P,) array.

    A math function outside its domain (sin(inf)) raises EvaluationError
    with its own message; an overflow or a division by zero, with ``overflow``.
    """
    try:
        if isinstance(u, np.ndarray):
            return np.array([func(x) for x in u.tolist()])
        return func(u)
    except ValueError as err:
        raise EvaluationError(str(err)) from None
    except (OverflowError, ZeroDivisionError):
        raise EvaluationError(overflow) from None


def _domain(bad, u, message: str) -> None:
    """Raise EvaluationError where ``bad`` holds; ``{}`` in the message is the first bad value."""
    if np.any(bad):
        first = u[np.argmax(bad)] if isinstance(u, np.ndarray) else u
        raise EvaluationError(message.format(float(first)))


def _batch_pow(u, c: float):
    """``u**c`` for a float or a (P,) array; a negative base needs an integer exponent."""
    if c != round(c):
        _domain(u < 0.0, u, f"negative base {{}} with non-integer exponent {c}")
    return _map(lambda x: x**c, u, f"pow domain failure: exponent {c}")


def _factors(node: object, u):
    """Yield f(u), f′(u) and f″(u) of the function at ``node``, each after its domain checks."""
    if isinstance(node, Power):
        c = node.exponent
        yield _batch_pow(u, c)
        yield c * _batch_pow(u, c - 1.0) if c != 0.0 else 0.0
        yield c * (c - 1.0) * _batch_pow(u, c - 2.0) if c not in (0.0, 1.0) else 0.0
    elif isinstance(node, Psi):
        _domain(u <= 0.0, u, "polygamma of non-positive value {}")
        for k in range(3):
            yield _map(functools.partial(polygamma, node.order + k), u, "polygamma overflow")
    elif node.op == "exp":
        f = _map(math.exp, u, "exp overflow")
        yield from (f, f, f)
    elif node.op == "log":
        _domain(u <= 0.0, u, "log of non-positive value {}")
        yield _map(math.log, u)
        inv = 1.0 / u
        yield inv
        yield -inv * inv
    elif node.op == "sqrt":
        _domain(u < 0.0, u, "sqrt of negative value {}")
        root = _map(math.sqrt, u)
        yield root
        _domain(u == 0.0, u, "sqrt has unbounded derivative at zero")
        slope = 0.5 / root
        yield slope
        yield -0.5 * slope / u
    elif node.op == "sin":
        s = _map(math.sin, u)
        yield s
        yield _map(math.cos, u)
        yield -s
    elif node.op == "cos":
        c = _map(math.cos, u)
        yield c
        yield -_map(math.sin, u)
        yield -c
    elif node.op == "lgamma":
        _domain(u <= 0.0, u, "lgamma of non-positive value {}")
        yield _map(log_gamma, u)
        yield _map(functools.partial(polygamma, 0), u, "lgamma overflow")
        yield _map(functools.partial(polygamma, 1), u, "lgamma overflow")
    else:
        raise TypeError(f"unknown unary op {node.op!r}")


def _batch_chain(u, factors, order: int):
    """The chain rule through ``factors`` yielding f, f′, f″; draws only f for a constant ``u``."""
    _, grad, hess = u
    f = list(itertools.islice(factors, 1 if grad is None else order + 1))
    if grad is None:
        return f[0], None, None
    if order < 2:
        return f[0], grad * _col(f[1]), None
    hess = _plus(_scaled(hess, _mat(f[1])), _outer(grad, grad) * _mat(f[2]))
    return f[0], grad * _col(f[1]), hess


def _batch_binary(op: str, a, b, order: int):
    (va, ga, ha), (vb, gb, hb) = a, b
    if op == "add":
        return va + vb, _plus(ga, gb), _plus(ha, hb)
    if op == "sub":
        return va - vb, _minus(ga, gb), _minus(ha, hb)
    if op == "mul":
        grad = _plus(_scaled(ga, _col(vb)), _scaled(gb, _col(va)))
        hess = _plus(_scaled(ha, _mat(vb)), _scaled(hb, _mat(va)))
        if order > 1 and ga is not None and gb is not None:
            cross = _outer(ga, gb)
            hess = _plus(_plus(hess, cross), _swap(cross))
        return va * vb, grad, hess
    if op == "div":
        _domain(vb == 0.0, vb, "division by zero")
        value = va / vb
        grad = _minus(ga, _scaled(gb, _col(value)))
        if grad is not None:
            grad = grad / _col(vb)
        hess = _minus(ha, _scaled(hb, _mat(value)))
        if order > 1 and grad is not None and gb is not None:
            cross = _outer(grad, gb)
            hess = _minus(_minus(hess, cross), _swap(cross))
        return value, grad, None if hess is None else hess / _mat(vb)
    raise TypeError(f"unknown binary op {op!r}")


def _batch_node(node: object, args: list, pts: np.ndarray, unit: np.ndarray, order: int):
    """The jet rule of ``node`` over a batch, cut at derivative ``order`` (0, 1 or 2)."""
    if isinstance(node, Const):
        return node.value, None, None
    if isinstance(node, Var):
        return pts[:, node.index], unit[node.index] if order else None, None
    if isinstance(node, Binary):
        return _batch_binary(node.op, args[0], args[1], order)
    if isinstance(node, Unary) and node.op == "neg":
        return tuple(None if part is None else -part for part in args[0])
    if isinstance(node, (Unary, Power, Psi)):
        return _batch_chain(args[0], _factors(node, args[0][0]), order)
    raise TypeError(f"unknown node type {type(node)!r}")


def _filled(part, shape: tuple) -> np.ndarray:
    """A part of a structured batched jet as a fresh array of ``shape``; zeros for None."""
    if part is None:
        return np.zeros(shape)
    if np.ndim(part) == 0:
        return np.full(shape, part)
    return np.broadcast_to(part, shape).copy()


@functools.lru_cache(maxsize=None)
def _unit_vectors(n: int) -> np.ndarray:
    """The gradients of the n coordinates, shared and read-only."""
    unit = np.eye(n)
    unit.flags.writeable = False
    return unit


def _ignore(i: int, parts: tuple) -> None:
    pass


def eval_fields(fields: Sequence[ScalarField], points, order: int, emit,
                plan: Plan | None = None, check_finite: bool = True) -> None:
    """Call ``emit(i, parts)`` with the batched jets of each ``fields[i]`` at P points.

    ``parts`` is (value, gradient, Hessian) for ``order`` 2, (value,
    gradient) for 1 and (value,) for 0, in the structured form above: a part
    is a float or an array that broadcasts against ``(P,)``, ``(P, n)`` or
    ``(P, n, n)``, or None where it vanishes.  All fields go through one
    walk, so each distinct subtree among them is evaluated once per batch;
    ``plan``, if given, is the :class:`Plan` of the fields' roots, made once
    for every batch.  A field is emitted as soon as its root is computed,
    not in field order, and ``emit`` must not modify the parts.  A domain
    failure, or a non-finite part unless ``check_finite`` is false, raises
    the :class:`EvaluationError` that the per-field functions below raise
    for the first failing field in order, naming its first failing point in
    sample order.  A caller that turns the check off checks the arrays it
    assembles and calls this function again, checked, to raise.
    """
    pts = np.asarray(points, dtype=float)
    for field in fields:
        if pts.ndim != 2 or pts.shape[1] != field.arity or pts.shape[0] == 0:
            raise ValueError(f"points of shape {pts.shape} do not match arity {field.arity}")
    if plan is None:
        plan = Plan([field.root for field in fields])
    try:
        with np.errstate(all="ignore"):  # a non-finite result is reported below
            for i, parts in plan.run(_batch_node, pts, _unit_vectors(pts.shape[1]), order):
                parts = parts[:order + 1]
                if check_finite and not all(
                        np.isfinite(part).all() for part in parts if part is not None):
                    raise EvaluationError(
                        "non-finite derivative data" if order else "non-finite value")
                emit(i, parts)
    except EvaluationError as err:
        if len(fields) > 1:  # the message of the first failing field, each walked alone
            for field in fields:
                eval_fields([field], pts, order, _ignore)
        elif pts.shape[0] == 1:
            raise EvaluationError(f"{err} at point {pts[0].tolist()}") from None
        else:  # find the first failing point in sample order
            for row in range(pts.shape[0]):
                eval_fields(fields, pts[row:row + 1], order, _ignore)
        raise


def _filled_parts(field: ScalarField, points, order: int) -> tuple[np.ndarray, ...]:
    """The parts of :func:`eval_fields` for one field, as fresh arrays with a point axis."""
    pts = np.asarray(points, dtype=float)
    parts = []
    eval_fields([field], pts, order, lambda _, jets: parts.extend(jets))
    count, n = pts.shape
    return tuple(_filled(part, shape)
                 for part, shape in zip(parts, ((count,), (count, n), (count, n, n))))


def eval2_points(field: ScalarField, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact values ``(P,)``, gradients ``(P, n)`` and Hessians ``(P, n, n)`` at P points.

    Row ``p`` is the jet of ``field`` at ``points[p]``.  The tree is walked once,
    without recursion, so arbitrarily deep expressions evaluate.  A domain
    failure raises :class:`EvaluationError` naming the first failing point in
    sample order.
    """
    return _filled_parts(field, points, 2)


def eval_points(field: ScalarField, points) -> np.ndarray:
    """Values ``(P,)`` at P points, with no derivatives.

    Entry ``p`` equals the value of :func:`eval2_points`, but only a failure
    of the value itself raises: a derivative that is singular where the
    value is finite (``sqrt(x*x)`` at 0) does not.  The walk and the error
    reporting are those of :func:`eval2_points`.
    """
    return _filled_parts(field, points, 0)[0]


# --------------------------------------------------------------------------
# Finite-difference oracle
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FdCheckReport:
    """Deviation of exact derivatives from second-order central differences."""

    grad_residual: float
    hess_residual: float

    @property
    def residual(self) -> float:
        return max(self.grad_residual, self.hess_residual)


def fd_check(field: ScalarField, point: Sequence[float], h: float = 1e-4) -> FdCheckReport:
    """Compare :func:`eval2_points` with central differences of step ``h`` (O(h²) accurate).

    Deviations are relative with a unit absolute floor: ``|ad - fd| / (1 + |ad|)``
    per entry, maximised over entries.  Raises :class:`EvaluationError` if the
    difference stencil falls outside the field's domain.
    """
    p = np.asarray(point, dtype=float)
    _, grad, hess = (part[0] for part in eval2_points(field, p[None]))
    n = field.arity
    steps = np.eye(n) * h
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # The stencil in the order the differences read it: p, p ± e_i, then p ± e_i ± e_j.
    stencil = [p]
    for i in range(n):
        stencil += [p + steps[i], p - steps[i]]
    for i, j in pairs:
        stencil += [p + steps[i] + steps[j], p + steps[i] - steps[j],
                    p - steps[i] + steps[j], p - steps[i] - steps[j]]
    try:
        values = iter(eval_points(field, np.array(stencil)).tolist())
    except EvaluationError as err:
        raise EvaluationError(
            f"finite-difference stencil left the domain near {p.tolist()}: {err}"
        ) from err

    center = next(values)
    grad_dev = 0.0
    hess_dev = 0.0
    for i in range(n):
        plus, minus = next(values), next(values)
        fd_grad = (plus - minus) / (2.0 * h)
        grad_dev = max(grad_dev, abs(fd_grad - grad[i]) / (1.0 + abs(grad[i])))
        fd_diag = (plus - 2.0 * center + minus) / (h * h)
        hess_dev = max(hess_dev, abs(fd_diag - hess[i, i]) / (1.0 + abs(hess[i, i])))
    for i, j in pairs:
        pp, pm, mp, mm = next(values), next(values), next(values), next(values)
        fd_cross = (pp - pm - mp + mm) / (4.0 * h * h)
        hess_dev = max(hess_dev, abs(fd_cross - hess[i, j]) / (1.0 + abs(hess[i, j])))
    return FdCheckReport(grad_residual=grad_dev, hess_residual=hess_dev)


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(node: object) -> int:
    if isinstance(node, Const):
        return _PREC_NEG if node.value < 0.0 else _PREC_ATOM
    if isinstance(node, (Var, Psi)):
        return _PREC_ATOM
    if isinstance(node, Unary):
        return _PREC_NEG if node.op == "neg" else _PREC_ATOM
    if isinstance(node, Power):
        return _PREC_POW
    if isinstance(node, Binary):
        return _PREC_ADD if node.op in ("add", "sub") else _PREC_MUL
    raise TypeError(f"unknown node type {type(node)!r}")


def _render(node: object, texts: list, names: tuple[str, ...]) -> str:
    """The walk rule of :func:`format_expression`: text from the children's texts."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return names[node.index]
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = texts[0]
            if _precedence(node.arg) < _PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({texts[0]})"
    if isinstance(node, Psi):
        name = {0: "digamma", 1: "trigamma"}.get(node.order, f"polygamma{node.order}")
        return f"{name}({texts[0]})"
    if isinstance(node, Power):
        base = texts[0]
        if _precedence(node.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{repr(node.exponent)}"
    if isinstance(node, Binary):
        symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[node.op]
        prec = _precedence(node)
        left, right = texts
        if _precedence(node.left) < prec:
            left = f"({left})"
        # A same-precedence right child is parenthesized even for + and *:
        # float arithmetic is not associative, and the round-trip contract
        # promises bitwise-identical evaluation.
        if _precedence(node.right) <= prec:
            right = f"({right})"
        return f"{left}{symbol}{right}"
    raise TypeError(f"unknown node type {type(node)!r}")


def format_expression(field: ScalarField) -> str:
    """Render a field as text that reparses to an evaluation-identical tree."""
    return _result(field.root, _render, field.coord_names)
