"""Programmatic builder API for Contra policies.

The textual syntax (see :mod:`repro.core.parser`) mirrors the paper exactly;
this module offers an equivalent, IDE-friendly way to construct the same ASTs
from Python::

    from repro.core.builder import path, if_, matches, minimize, inf

    policy = minimize(if_(matches("A .*"), path.util, path.lat))

Numbers are coerced to :class:`~repro.core.ast.Const`, strings in boolean
positions are parsed as path regular expressions, and tuples become
lexicographic tuple ranks.
"""

from __future__ import annotations

from typing import Union

from repro.core import ast
from repro.core.attributes import ATTRIBUTES
from repro.core.regex import PathRegex, parse_regex
from repro.exceptions import PolicyError

__all__ = [
    "path", "inf", "const", "minimize", "if_", "matches", "rank_tuple",
    "add", "sub", "min_of", "max_of", "lt", "le", "gt", "ge", "eq", "ne",
    "not_", "and_", "or_", "as_expr", "as_bool",
]

ExprLike = Union[ast.Expr, int, float, tuple, list]
BoolLike = Union[ast.BoolExpr, str, PathRegex, bool]


class _PathNamespace:
    """Accessor object so policies can write ``path.util`` literally."""

    def __getattr__(self, name: str) -> ast.Attr:
        if name.startswith("_"):
            raise AttributeError(name)
        if name not in ATTRIBUTES:
            raise PolicyError(f"unknown path attribute {name!r}; supported: {sorted(ATTRIBUTES)}")
        return ast.Attr(name)

    def __repr__(self) -> str:
        return "path"


#: The ``path`` namespace: ``path.util``, ``path.lat``, ``path.len``.
path = _PathNamespace()

#: The infinite rank.
inf = ast.Infinite()


def const(value: float) -> ast.Const:
    """A constant numeric rank."""
    return ast.Const(float(value))


def as_expr(value: ExprLike) -> ast.Expr:
    """Coerce a Python value into a rank expression."""
    if isinstance(value, ast.Expr):
        return value
    if isinstance(value, bool):
        raise PolicyError("a boolean cannot be used as a rank expression")
    if isinstance(value, (int, float)):
        return ast.Const(float(value))
    if isinstance(value, (tuple, list)):
        return rank_tuple(*value)
    raise PolicyError(f"cannot interpret {value!r} as a rank expression")


def as_bool(value: BoolLike) -> ast.BoolExpr:
    """Coerce a Python value into a boolean test (strings become path regexes)."""
    if isinstance(value, ast.BoolExpr):
        return value
    if isinstance(value, bool):
        return ast.BoolConst(value)
    if isinstance(value, PathRegex):
        return ast.RegexTest(value)
    if isinstance(value, str):
        return ast.RegexTest(parse_regex(value))
    raise PolicyError(f"cannot interpret {value!r} as a boolean test")


def rank_tuple(*items: ExprLike) -> ast.Expr:
    """A lexicographic tuple rank; single-item tuples collapse to the item."""
    exprs = [as_expr(i) for i in items]
    if not exprs:
        raise PolicyError("rank_tuple() needs at least one component")
    if len(exprs) == 1:
        return exprs[0]
    return ast.TupleExpr(tuple(exprs))


def if_(condition: BoolLike, then_branch: ExprLike, else_branch: ExprLike) -> ast.If:
    """``if condition then then_branch else else_branch``."""
    return ast.If(as_bool(condition), as_expr(then_branch), as_expr(else_branch))


def matches(pattern: Union[str, PathRegex]) -> ast.RegexTest:
    """A boolean test that the path matches ``pattern``."""
    if isinstance(pattern, str):
        pattern = parse_regex(pattern)
    return ast.RegexTest(pattern)


def add(left: ExprLike, right: ExprLike) -> ast.BinOp:
    return ast.BinOp("+", as_expr(left), as_expr(right))


def sub(left: ExprLike, right: ExprLike) -> ast.BinOp:
    return ast.BinOp("-", as_expr(left), as_expr(right))


def min_of(left: ExprLike, right: ExprLike) -> ast.BinOp:
    return ast.BinOp("min", as_expr(left), as_expr(right))


def max_of(left: ExprLike, right: ExprLike) -> ast.BinOp:
    return ast.BinOp("max", as_expr(left), as_expr(right))


def lt(left: ExprLike, right: ExprLike) -> ast.Compare:
    return ast.Compare("<", as_expr(left), as_expr(right))


def le(left: ExprLike, right: ExprLike) -> ast.Compare:
    return ast.Compare("<=", as_expr(left), as_expr(right))


def gt(left: ExprLike, right: ExprLike) -> ast.Compare:
    return ast.Compare(">", as_expr(left), as_expr(right))


def ge(left: ExprLike, right: ExprLike) -> ast.Compare:
    return ast.Compare(">=", as_expr(left), as_expr(right))


def eq(left: ExprLike, right: ExprLike) -> ast.Compare:
    return ast.Compare("==", as_expr(left), as_expr(right))


def ne(left: ExprLike, right: ExprLike) -> ast.Compare:
    return ast.Compare("!=", as_expr(left), as_expr(right))


def not_(value: BoolLike) -> ast.Not:
    return ast.Not(as_bool(value))


def and_(left: BoolLike, right: BoolLike) -> ast.And:
    return ast.And(as_bool(left), as_bool(right))


def or_(left: BoolLike, right: BoolLike) -> ast.Or:
    return ast.Or(as_bool(left), as_bool(right))


def minimize(expression: ExprLike, name: str = "policy") -> ast.Policy:
    """Build a ``minimize`` policy from a rank expression (or number / tuple)."""
    return ast.Minimize(as_expr(expression), name=name)
