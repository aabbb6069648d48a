"""Arithmetic mini-language for boundary and volume data.

Expressions are built over the variables x, y, r, theta (and the constant
pi) with +, -, *, /, ^, the functions sin, cos, sqrt, abs, sign,
indicator (1 where the argument is positive, else 0), and min/max of two
arguments.  The text is read by Python's own expression parser,
``ast.parse``, once it is made a Python expression: whitespace, newlines
included, becomes a blank; a character outside the language, ``**`` and
a trailing comma in a call are rejected; a leading zero of a number
becomes a blank (``01`` is 1); ``^`` is written ``**``.  One compile pass
then turns each node the language allows into a closure that evaluates
vectorized over numpy arrays, and rejects any other node, naming its
column.  No Python eval is involved.  Literals are float64 and
evaluation ignores floating-point errors, so a division by zero, an
overflow or a negative base to a fractional power gives inf or nan
(which ``ProblemSpec`` rejects by field name); an expression nested too
deeply to parse or to evaluate raises SpecFileError.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings

import numpy as np

from .errors import SpecFileError

__all__ = ["compile_expression", "evaluate_on_points"]

_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
# not in the language: any other character, '**' (power is '^') and a
# trailing comma in a call, which Python would all read
_REJECT = re.compile(r"[^A-Za-z0-9_.+\-*/^(), ]|\*\*|, *\)")
# the leading zeros of a number, which Python rejects in an integer; those
# of an exponent ('1e-01') Python reads
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![eE][+-])0+(?=\d)")

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
_FUNCS = {
    ("sin", 1): np.sin,
    ("cos", 1): np.cos,
    ("sqrt", 1): lambda v: np.sqrt(np.maximum(v, 0.0)),
    ("abs", 1): np.abs,
    ("sign", 1): np.sign,
    ("indicator", 1): lambda v: (np.asarray(v) > 0).astype(float),
    ("min", 2): np.minimum,
    ("max", 2): np.maximum,
}
_NAMES = ("x", "y", "r", "theta", "pi")
_PI = np.float64(np.pi)


def _compile(node, text, fail):
    """The closure env -> value of one node of ``text``; ``fail(what, k)``
    is the error for a node outside the language at offset k."""
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _BINARY:
        fn = _BINARY[type(node.op)]
        a, b = _compile(node.left, text, fail), _compile(node.right, text, fail)
        return lambda env: fn(a(env), b(env))
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        a = _compile(node.operand, text, fail)
        return lambda env: -a(env)
    literal = ast.get_source_segment(text, node)
    if kind is ast.Constant and _NUMBER.fullmatch(literal):
        val = np.float64(literal)
        return lambda env: val
    if kind is ast.Name:
        name = node.id
        if name in _NAMES:
            return lambda env: env[name]
        raise fail(f"unknown identifier {name!r} (names: "
                   f"{', '.join(_NAMES)})", node.col_offset)
    # a call names its function: '(sin)(x)' is not one
    if (kind is ast.Call and type(node.func) is ast.Name
            and node.func.col_offset == node.col_offset and not node.keywords):
        fn = _FUNCS.get((node.func.id, len(node.args)))
        if fn is None:
            raise fail(f"unknown function {node.func.id}/{len(node.args)}",
                       node.col_offset)
        args = [_compile(arg, text, fail) for arg in node.args]
        return lambda env: fn(*[a(env) for a in args])
    raise fail(f"unexpected {literal!r}", node.col_offset)


def _too_deep(src: str) -> SpecFileError:
    return SpecFileError(
        f"expression nested too deeply ({len(src)} characters): {src[:40]!r}...")


def compile_expression(src: str):
    """Compile an expression string to a vectorized callable that maps
    points of shape (..., dim) to values of shape (...)."""
    # configparser joins continuation lines with '\n'; a non-ASCII digit
    # is read as its ASCII one
    text = re.sub(r"\d", lambda m: str(int(m[0])), re.sub(r"\s", " ", src))
    bad = _REJECT.search(text)
    if bad:
        raise SpecFileError(
            f"unexpected {bad[0]!r} at column {bad.start() + 1} in {src!r}")
    text = _LEADING_ZEROS.sub(lambda m: " " * len(m[0]), text)
    text = text.replace("^", "**")
    body = text.lstrip()
    lead = len(text) - len(body)

    def fail(what, k):
        column = len(text[:lead + k].replace("**", "^")) + 1
        return SpecFileError(f"{what} at column {column} in {src!r}")

    try:
        with warnings.catch_warnings():
            # '1if x else 2' warns, then parses to a node the compile rejects
            warnings.simplefilter("ignore")
            tree = ast.parse(body, mode="eval")
        node = _compile(tree.body, body, fail)
    except SyntaxError as exc:
        # Python puts an error at the end of the text at offset 0
        raise fail(exc.msg, (exc.offset or len(body) + 1) - 1) from None
    except (RecursionError, MemoryError):  # MemoryError: parser stack full
        raise _too_deep(src) from None

    def evaluate(points):
        pts = np.asarray(points, dtype=float)
        x = pts[..., 0]
        y = pts[..., 1] if pts.shape[-1] > 1 else np.zeros_like(x)
        env = {"x": x, "y": y, "r": np.sqrt(x * x + y * y),
               "theta": np.arctan2(y, x), "pi": _PI}
        try:
            with np.errstate(all="ignore"):
                out = node(env)
        except RecursionError:
            raise _too_deep(src) from None
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    return evaluate


def evaluate_on_points(src: str, points: np.ndarray) -> np.ndarray:
    """Evaluate an expression at points of shape (..., dim)."""
    return compile_expression(src)(points)
