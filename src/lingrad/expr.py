"""Arithmetic mini-language for boundary and volume data.

Expressions are built over the variables x, y, r, theta (and the constant
pi) with +, -, *, /, ^, the functions sin, cos, sqrt, abs, sign,
indicator (1 where the argument is positive, else 0), and min/max of two
arguments.  Parsing is a tiny recursive-descent pass producing a closure
that evaluates vectorized over numpy arrays; no Python eval is involved.
Literals are float64 and evaluation ignores floating-point errors, so a
division by zero, an overflow or a negative base to a fractional power
gives inf or nan (which ``ProblemSpec`` rejects by field name); an
expression nested past Python's recursion limit raises SpecFileError.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import SpecFileError

__all__ = ["compile_expression", "evaluate_on_points"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\+|-|\*|/|\(|\)|,))"
)

_FUNCS1 = {
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": lambda v: np.sqrt(np.maximum(v, 0.0)),
    "abs": np.abs,
    "sign": np.sign,
    "indicator": lambda v: (np.asarray(v) > 0).astype(float),
}
_FUNCS2 = {"min": np.minimum, "max": np.maximum}
_CONSTS = {"pi": np.float64(np.pi)}
_VARS = ("x", "y", "r", "theta")


def _tokenize(src: str):
    pos = 0
    out = []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            if src[pos:].strip():
                raise SpecFileError(
                    f"bad character {src[pos:].strip()[0]!r} at column {pos + 1}")
            break
        if m.lastgroup == "num":
            out.append(("num", np.float64(m.group("num")), pos))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name"), pos))
        else:
            out.append(("op", m.group("op"), pos))
        pos = m.end()
    out.append(("end", None, len(src)))
    return out


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise SpecFileError(
                f"expected {value or kind} at column {tok[2] + 1} in {self.src!r}")
        if value is not None and tok[1] != value:
            raise SpecFileError(
                f"expected {value!r} at column {tok[2] + 1} in {self.src!r}")
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise SpecFileError(
                f"unexpected {tok[1]!r} at column {tok[2] + 1} in {self.src!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            node = (lambda a, b: (lambda env: a(env) + b(env)))(node, rhs) \
                if op == "+" else (lambda a, b: (lambda env: a(env) - b(env)))(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.factor()
            if op == "*":
                node = (lambda a, b: (lambda env: a(env) * b(env)))(node, rhs)
            else:
                node = (lambda a, b: (lambda env: a(env) / b(env)))(node, rhs)
        return node

    def factor(self):
        # unary minus binds looser than '^': -x^2 means -(x^2)
        if self.peek()[:2] == ("op", "-"):
            self.take()
            inner = self.factor()
            return lambda env: -inner(env)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            rhs = self.factor()  # right associative; exponent may be signed
            node = (lambda a, b: (lambda env: a(env) ** b(env)))(node, rhs)
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            val = tok[1]
            return lambda env: val
        if tok[0] == "name":
            self.take()
            name = tok[1]
            if self.peek()[:2] == ("op", "("):
                self.take()
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.take("op", ")")
                if name in _FUNCS1 and len(args) == 1:
                    fn, a = _FUNCS1[name], args[0]
                    return lambda env: fn(a(env))
                if name in _FUNCS2 and len(args) == 2:
                    fn, a, b = _FUNCS2[name], args[0], args[1]
                    return lambda env: fn(a(env), b(env))
                raise SpecFileError(
                    f"unknown function {name}/{len(args)} at column {tok[2] + 1}")
            if name in _CONSTS:
                val = _CONSTS[name]
                return lambda env: val
            if name in _VARS:
                return lambda env: env[name]
            raise SpecFileError(
                f"unknown identifier {name!r} at column {tok[2] + 1} "
                f"(variables: {', '.join(_VARS)})")
        if tok[:2] == ("op", "("):
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        raise SpecFileError(
            f"unexpected token at column {tok[2] + 1} in {self.src!r}")


def _too_deep(src: str) -> SpecFileError:
    return SpecFileError(
        f"expression nested too deeply ({len(src)} characters): {src[:40]!r}...")


def compile_expression(src: str):
    """Compile an expression string to a vectorized callable env -> array."""
    try:
        node = _Parser(src).parse()
    except RecursionError:
        raise _too_deep(src) from None

    def evaluate(env):
        try:
            with np.errstate(all="ignore"):
                return node(env)
        except RecursionError:
            raise _too_deep(src) from None

    return evaluate


def evaluate_on_points(src: str, points: np.ndarray) -> np.ndarray:
    """Evaluate an expression at points of shape (..., dim)."""
    fn = compile_expression(src)
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1] if pts.shape[-1] > 1 else np.zeros_like(x)
    env = {
        "x": x,
        "y": y,
        "r": np.sqrt(x * x + y * y),
        "theta": np.arctan2(y, x),
    }
    out = fn(env)
    return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()
