"""Abstract syntax tree for the Contra policy language (Figure 2).

A policy is ``minimize(e)`` where ``e`` ranks paths::

    e ::= n | ∞ | path.attr | e1 ∘ e2 | if b then e1 else e2 | (e1, ..., en)
    b ::= r | e1 <= e2 | not b | b1 or b2 | b1 and b2
    r ::= node | . | r1 + r2 | r1 r2 | r*

Expressions evaluate to :class:`~repro.core.rank.Rank` values given a
:class:`PathContext` — a concrete path plus its accumulated metric values.
The same AST is consumed by the static analyses (monotonicity, isotonicity,
decomposition) and by the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.core.attributes import attribute
from repro.core.rank import INFINITY, Rank
from repro.core.regex import PathRegex
from repro.exceptions import PolicyError

__all__ = [
    "PathContext",
    "Expr", "Const", "Infinite", "Attr", "BinOp", "If", "TupleExpr",
    "BoolExpr", "RegexTest", "Compare", "Not", "And", "Or", "BoolConst",
    "Policy", "Minimize",
]


class PathContext:
    """Everything needed to evaluate a policy on one concrete path.

    Parameters
    ----------
    path:
        The sequence of switch identifiers the traffic traverses, in traffic
        direction (source first, destination last).
    metrics:
        Accumulated path metric values by attribute name (e.g. ``{"util":
        0.3, "lat": 1.2, "len": 3}``).  Missing attributes are derived when
        possible (``len`` defaults to the number of links in ``path``).
    regex_results:
        Optional pre-computed regex outcomes; when provided they take priority
        over direct matching (the compiler uses this to evaluate policies from
        product-graph tags without re-running the regex).
    """

    def __init__(
        self,
        path: Sequence[str],
        metrics: Optional[Mapping[str, float]] = None,
        regex_results: Optional[Mapping[PathRegex, bool]] = None,
    ):
        self.path: Tuple[str, ...] = tuple(path)
        self._metrics: Dict[str, float] = dict(metrics or {})
        if "len" not in self._metrics and self.path:
            self._metrics["len"] = float(max(0, len(self.path) - 1))
        self._regex_results = dict(regex_results or {})

    def metric(self, name: str) -> float:
        attribute(name)  # validate
        try:
            return self._metrics[name]
        except KeyError:
            raise PolicyError(
                f"path context does not define metric {name!r} "
                f"(available: {sorted(self._metrics)})") from None

    def regex_matches(self, pattern: PathRegex) -> bool:
        if pattern in self._regex_results:
            return self._regex_results[pattern]
        return pattern.matches(self.path)


# =============================================================================
# Rank expressions
# =============================================================================

class Expr:
    """Base class of rank-valued policy expressions."""

    def evaluate(self, ctx: PathContext) -> Rank:
        """The rank of the path described by ``ctx``."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Direct rank-valued sub-expressions."""
        return ()

    def bool_children(self) -> Tuple["BoolExpr", ...]:
        """Direct boolean sub-expressions."""
        return ()

    def attributes(self) -> FrozenSet[str]:
        """All path attributes referenced anywhere in the expression."""
        result = set()
        for child in self.children():
            result |= child.attributes()
        for cond in self.bool_children():
            result |= cond.attributes()
        return frozenset(result)

    def regexes(self) -> Tuple[PathRegex, ...]:
        """All path regular expressions used, in syntactic order, de-duplicated."""
        found: List[PathRegex] = []
        for cond in self.bool_children():
            for r in cond.regexes():
                if r not in found:
                    found.append(r)
        for child in self.children():
            for r in child.regexes():
                if r not in found:
                    found.append(r)
        return tuple(found)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))  # type: ignore[attr-defined]

    def _key(self):
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Const(Expr):
    """A constant numeric rank."""

    value: float

    def evaluate(self, ctx: PathContext) -> Rank:
        return Rank(self.value)

    def _key(self):
        return self.value

    def __str__(self) -> str:
        return f"{self.value:g}"


@dataclass(frozen=True, eq=False)
class Infinite(Expr):
    """The infinite rank ∞ ("path not allowed")."""

    def evaluate(self, ctx: PathContext) -> Rank:
        return INFINITY

    def _key(self):
        return "inf"

    def __str__(self) -> str:
        return "inf"


@dataclass(frozen=True, eq=False)
class Attr(Expr):
    """A dynamic path attribute such as ``path.util``."""

    name: str

    def __post_init__(self):
        attribute(self.name)  # validate eagerly

    def evaluate(self, ctx: PathContext) -> Rank:
        return Rank(ctx.metric(self.name))

    def attributes(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def _key(self):
        return self.name

    def __str__(self) -> str:
        return f"path.{self.name}"


_BINOPS: Dict[str, Callable[[Rank, Rank], Rank]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "max": lambda a, b: a.combine_max(b),
    "min": lambda a, b: a.combine_min(b),
}


@dataclass(frozen=True, eq=False)
class BinOp(Expr):
    """A binary operation between two rank expressions (``+``, ``-``, ``min``, ``max``)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _BINOPS:
            raise PolicyError(f"unsupported binary operator {self.op!r}; "
                              f"supported: {sorted(_BINOPS)}")

    def evaluate(self, ctx: PathContext) -> Rank:
        return _BINOPS[self.op](self.left.evaluate(ctx), self.right.evaluate(ctx))

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def _key(self):
        return (self.op, self.left, self.right)

    def __str__(self) -> str:
        if self.op in ("min", "max"):
            return f"{self.op}({self.left}, {self.right})"
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, eq=False)
class If(Expr):
    """A conditional ``if b then e1 else e2``."""

    condition: "BoolExpr"
    then_branch: Expr
    else_branch: Expr

    def evaluate(self, ctx: PathContext) -> Rank:
        if self.condition.evaluate(ctx):
            return self.then_branch.evaluate(ctx)
        return self.else_branch.evaluate(ctx)

    def children(self) -> Tuple[Expr, ...]:
        return (self.then_branch, self.else_branch)

    def bool_children(self) -> Tuple["BoolExpr", ...]:
        return (self.condition,)

    def _key(self):
        return (self.condition, self.then_branch, self.else_branch)

    def __str__(self) -> str:
        return f"if {self.condition} then {self.then_branch} else {self.else_branch}"


@dataclass(frozen=True, eq=False)
class TupleExpr(Expr):
    """A lexicographically ordered tuple of rank expressions."""

    items: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise PolicyError("a tuple rank expression needs at least two components")

    def evaluate(self, ctx: PathContext) -> Rank:
        return Rank.tuple_of(item.evaluate(ctx) for item in self.items)

    def children(self) -> Tuple[Expr, ...]:
        return self.items

    def _key(self):
        return self.items

    def __str__(self) -> str:
        return "(" + ", ".join(str(i) for i in self.items) + ")"


# =============================================================================
# Boolean tests
# =============================================================================

class BoolExpr:
    """Base class of boolean policy tests."""

    def evaluate(self, ctx: PathContext) -> bool:
        raise NotImplementedError

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def regexes(self) -> Tuple[PathRegex, ...]:
        return ()

    def children(self) -> Tuple["BoolExpr", ...]:
        return ()

    def expr_children(self) -> Tuple[Expr, ...]:
        return ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))  # type: ignore[attr-defined]

    def _key(self):
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class BoolConst(BoolExpr):
    """A boolean literal (used by the decomposition pass when fixing guards)."""

    value: bool

    def evaluate(self, ctx: PathContext) -> bool:
        return self.value

    def _key(self):
        return self.value

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True, eq=False)
class RegexTest(BoolExpr):
    """Does the path match a regular expression?"""

    pattern: PathRegex

    def evaluate(self, ctx: PathContext) -> bool:
        return ctx.regex_matches(self.pattern)

    def regexes(self) -> Tuple[PathRegex, ...]:
        return (self.pattern,)

    def _key(self):
        return self.pattern

    def __str__(self) -> str:
        return str(self.pattern)


_COMPARATORS: Dict[str, Callable[[Rank, Rank], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True, eq=False)
class Compare(BoolExpr):
    """A comparison between two rank expressions (e.g. ``path.util < 0.8``)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _COMPARATORS:
            raise PolicyError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, ctx: PathContext) -> bool:
        return _COMPARATORS[self.op](self.left.evaluate(ctx), self.right.evaluate(ctx))

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def regexes(self) -> Tuple[PathRegex, ...]:
        return tuple(list(self.left.regexes()) + [r for r in self.right.regexes()
                                                  if r not in self.left.regexes()])

    def expr_children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def _key(self):
        return (self.op, self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, eq=False)
class Not(BoolExpr):
    """Boolean negation."""

    inner: BoolExpr

    def evaluate(self, ctx: PathContext) -> bool:
        return not self.inner.evaluate(ctx)

    def attributes(self) -> FrozenSet[str]:
        return self.inner.attributes()

    def regexes(self) -> Tuple[PathRegex, ...]:
        return self.inner.regexes()

    def children(self) -> Tuple[BoolExpr, ...]:
        return (self.inner,)

    def _key(self):
        return (self.inner,)

    def __str__(self) -> str:
        return f"not ({self.inner})"


@dataclass(frozen=True, eq=False)
class And(BoolExpr):
    """Boolean conjunction."""

    left: BoolExpr
    right: BoolExpr

    def evaluate(self, ctx: PathContext) -> bool:
        return self.left.evaluate(ctx) and self.right.evaluate(ctx)

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def regexes(self) -> Tuple[PathRegex, ...]:
        result = list(self.left.regexes())
        result.extend(r for r in self.right.regexes() if r not in result)
        return tuple(result)

    def children(self) -> Tuple[BoolExpr, ...]:
        return (self.left, self.right)

    def _key(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True, eq=False)
class Or(BoolExpr):
    """Boolean disjunction."""

    left: BoolExpr
    right: BoolExpr

    def evaluate(self, ctx: PathContext) -> bool:
        return self.left.evaluate(ctx) or self.right.evaluate(ctx)

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def regexes(self) -> Tuple[PathRegex, ...]:
        result = list(self.left.regexes())
        result.extend(r for r in self.right.regexes() if r not in result)
        return tuple(result)

    def children(self) -> Tuple[BoolExpr, ...]:
        return (self.left, self.right)

    def _key(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


# =============================================================================
# Policies
# =============================================================================

@dataclass(frozen=True, eq=False)
class Policy:
    """A complete Contra policy (currently always ``minimize``)."""

    expression: Expr
    name: str = "policy"

    def evaluate(self, ctx: PathContext) -> Rank:
        """The rank of one concrete path."""
        return self.expression.evaluate(ctx)

    def rank_path(
        self,
        path: Sequence[str],
        metrics: Optional[Mapping[str, float]] = None,
        regex_results: Optional[Mapping[PathRegex, bool]] = None,
    ) -> Rank:
        """Convenience wrapper: rank a path given its accumulated metric values."""
        return self.evaluate(PathContext(path, metrics, regex_results))

    def attributes(self) -> FrozenSet[str]:
        """All dynamic path attributes the policy depends on."""
        return self.expression.attributes()

    def regexes(self) -> Tuple[PathRegex, ...]:
        """All path regular expressions, in syntactic order."""
        return self.expression.regexes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Policy) and self.expression == other.expression

    def __hash__(self) -> int:
        return hash(self.expression)

    def __str__(self) -> str:
        return f"minimize({self.expression})"


def Minimize(expression: Expr, name: str = "policy") -> Policy:
    """Build a ``minimize`` policy (the only optimization direction in the paper)."""
    if not isinstance(expression, Expr):
        raise PolicyError(f"minimize() expects a rank expression, got {expression!r}")
    return Policy(expression, name=name)
