"""Regular expressions over network paths.

Contra policies classify paths with regular expressions whose alphabet is the
set of switch identifiers (Figure 2): ``r ::= node | . | r1 + r2 | r1 r2 | r*``.
A path ``A B D`` is the word ``["A", "B", "D"]``.

This module defines the regex AST, a parser for the concrete syntax used in
the paper (juxtaposition for concatenation, ``+`` for union, ``*`` for Kleene
star, ``.`` for "any single node"), structural reversal (probes travel in the
opposite direction to traffic, §4.1), and direct matching for tests.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.exceptions import PolicyParseError

__all__ = [
    "PathRegex", "Node", "AnyNode", "Epsilon", "EmptySet", "Concat", "Union", "Star",
    "parse_regex", "node", "concat", "union", "star", "any_node",
]


class PathRegex:
    """Base class for path regular expressions."""

    def reverse(self) -> "PathRegex":
        """The regex matching exactly the reversed words of this regex."""
        raise NotImplementedError

    def node_ids(self) -> FrozenSet[str]:
        """All concrete switch identifiers mentioned in the regex."""
        raise NotImplementedError

    def nullable(self) -> bool:
        """Whether the regex accepts the empty path."""
        raise NotImplementedError

    def matches(self, path: Sequence[str]) -> bool:
        """Whether the regex accepts the given path (sequence of node ids).

        Uses Brzozowski derivatives; intended for tests and the reference
        evaluator, not the data-plane fast path.
        """
        current: PathRegex = self
        for symbol in path:
            current = current.derivative(symbol)
            if isinstance(current, EmptySet):
                return False
        return current.nullable()

    def derivative(self, symbol: str) -> "PathRegex":
        """The Brzozowski derivative of the regex with respect to ``symbol``."""
        raise NotImplementedError

    # Operator sugar so policies can be built programmatically.
    def __add__(self, other: "PathRegex") -> "PathRegex":
        return union(self, other)

    def __rshift__(self, other: "PathRegex") -> "PathRegex":
        return concat(self, other)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))  # type: ignore[attr-defined]

    def _key(self):
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Node(PathRegex):
    """A single concrete switch identifier."""

    name: str

    def reverse(self) -> PathRegex:
        return self

    def node_ids(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def nullable(self) -> bool:
        return False

    def derivative(self, symbol: str) -> PathRegex:
        return Epsilon() if symbol == self.name else EmptySet()

    def _key(self):
        return self.name

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class AnyNode(PathRegex):
    """The wildcard ``.`` matching any single node."""

    def reverse(self) -> PathRegex:
        return self

    def node_ids(self) -> FrozenSet[str]:
        return frozenset()

    def nullable(self) -> bool:
        return False

    def derivative(self, symbol: str) -> PathRegex:
        return Epsilon()

    def _key(self):
        return "."

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True, eq=False)
class Epsilon(PathRegex):
    """The regex matching only the empty path."""

    def reverse(self) -> PathRegex:
        return self

    def node_ids(self) -> FrozenSet[str]:
        return frozenset()

    def nullable(self) -> bool:
        return True

    def derivative(self, symbol: str) -> PathRegex:
        return EmptySet()

    def _key(self):
        return "eps"

    def __str__(self) -> str:
        return "ε"


@dataclass(frozen=True, eq=False)
class EmptySet(PathRegex):
    """The regex matching nothing."""

    def reverse(self) -> PathRegex:
        return self

    def node_ids(self) -> FrozenSet[str]:
        return frozenset()

    def nullable(self) -> bool:
        return False

    def derivative(self, symbol: str) -> PathRegex:
        return self

    def _key(self):
        return "empty"

    def __str__(self) -> str:
        return "∅"


@dataclass(frozen=True, eq=False)
class Concat(PathRegex):
    """Concatenation ``r1 r2``."""

    left: PathRegex
    right: PathRegex

    def reverse(self) -> PathRegex:
        return Concat(self.right.reverse(), self.left.reverse())

    def node_ids(self) -> FrozenSet[str]:
        return self.left.node_ids() | self.right.node_ids()

    def nullable(self) -> bool:
        return self.left.nullable() and self.right.nullable()

    def derivative(self, symbol: str) -> PathRegex:
        first = concat(self.left.derivative(symbol), self.right)
        if self.left.nullable():
            return union(first, self.right.derivative(symbol))
        return first

    def _key(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_paren(self.left)} {_paren(self.right)}"


@dataclass(frozen=True, eq=False)
class Union(PathRegex):
    """Alternation ``r1 + r2``."""

    left: PathRegex
    right: PathRegex

    def reverse(self) -> PathRegex:
        return Union(self.left.reverse(), self.right.reverse())

    def node_ids(self) -> FrozenSet[str]:
        return self.left.node_ids() | self.right.node_ids()

    def nullable(self) -> bool:
        return self.left.nullable() or self.right.nullable()

    def derivative(self, symbol: str) -> PathRegex:
        return union(self.left.derivative(symbol), self.right.derivative(symbol))

    def _key(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_paren(self.left)} + {_paren(self.right)}"


@dataclass(frozen=True, eq=False)
class Star(PathRegex):
    """Kleene star ``r*``."""

    inner: PathRegex

    def reverse(self) -> PathRegex:
        return Star(self.inner.reverse())

    def node_ids(self) -> FrozenSet[str]:
        return self.inner.node_ids()

    def nullable(self) -> bool:
        return True

    def derivative(self, symbol: str) -> PathRegex:
        return concat(self.inner.derivative(symbol), self)

    def _key(self):
        return (self.inner,)

    def __str__(self) -> str:
        return f"{_paren(self.inner)}*"


def _paren(r: PathRegex) -> str:
    if isinstance(r, (Node, AnyNode, Epsilon, EmptySet, Star)):
        return str(r)
    return f"({r})"


# ----------------------------------------------------------------- smart constructors

def node(name: str) -> PathRegex:
    """A regex matching the single node ``name``."""
    return Node(name)


def any_node() -> PathRegex:
    """The ``.`` wildcard."""
    return AnyNode()


def concat(*parts: PathRegex) -> PathRegex:
    """Concatenation with ∅/ε simplification."""
    result: Optional[PathRegex] = None
    for part in parts:
        if isinstance(part, EmptySet):
            return EmptySet()
        if isinstance(part, Epsilon):
            continue
        result = part if result is None else Concat(result, part)
    return result if result is not None else Epsilon()


def union(*parts: PathRegex) -> PathRegex:
    """Alternation with ∅ simplification and duplicate removal."""
    kept: List[PathRegex] = []
    for part in parts:
        if isinstance(part, EmptySet):
            continue
        if part not in kept:
            kept.append(part)
    if not kept:
        return EmptySet()
    result = kept[0]
    for part in kept[1:]:
        result = Union(result, part)
    return result


def star(inner: PathRegex) -> PathRegex:
    """Kleene star with simplification of ``∅*`` and ``ε*`` to ``ε``."""
    if isinstance(inner, (EmptySet, Epsilon)):
        return Epsilon()
    if isinstance(inner, Star):
        return inner
    return Star(inner)


# ----------------------------------------------------------------------------- parser

_TOKEN_RE = _re.compile(r"\s*(?:(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<dot>\.)|(?P<star>\*)"
                        r"|(?P<plus>\+)|(?P<lparen>\()|(?P<rparen>\)))")


class _Parser:
    """Recursive-descent parser for the paper's regex syntax.

    Grammar (standard precedence: star > concat > union)::

        union  := concat ('+' concat)*
        concat := postfix postfix*
        postfix:= atom '*'*
        atom   := node-id | '.' | '(' union ')'
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                if text[pos:].strip() == "":
                    break
                raise PolicyParseError("unexpected character in path regex", pos, text)
            kind = match.lastgroup or ""
            self.tokens.append((kind, match.group(kind), match.start(kind)))
            pos = match.end()
        self.index = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def advance(self) -> Tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self) -> PathRegex:
        result = self.parse_union()
        if self.index != len(self.tokens):
            kind, value, pos = self.tokens[self.index]
            raise PolicyParseError(f"unexpected token {value!r} in path regex", pos, self.text)
        return result

    def parse_union(self) -> PathRegex:
        parts = [self.parse_concat()]
        while self.peek() is not None and self.peek()[0] == "plus":
            self.advance()
            parts.append(self.parse_concat())
        return union(*parts)

    def parse_concat(self) -> PathRegex:
        parts = [self.parse_postfix()]
        while self.peek() is not None and self.peek()[0] in ("id", "dot", "lparen"):
            parts.append(self.parse_postfix())
        return concat(*parts)

    def parse_postfix(self) -> PathRegex:
        result = self.parse_atom()
        while self.peek() is not None and self.peek()[0] == "star":
            self.advance()
            result = star(result)
        return result

    def parse_atom(self) -> PathRegex:
        token = self.peek()
        if token is None:
            raise PolicyParseError("unexpected end of path regex", len(self.text), self.text)
        kind, value, pos = token
        if kind == "id":
            self.advance()
            return Node(value)
        if kind == "dot":
            self.advance()
            return AnyNode()
        if kind == "lparen":
            self.advance()
            inner = self.parse_union()
            closing = self.peek()
            if closing is None or closing[0] != "rparen":
                raise PolicyParseError("missing ')' in path regex", pos, self.text)
            self.advance()
            return inner
        raise PolicyParseError(f"unexpected token {value!r} in path regex", pos, self.text)


def parse_regex(text: str) -> PathRegex:
    """Parse a path regular expression written in the paper's concrete syntax.

    Examples::

        parse_regex("A .* D")
        parse_regex(".* (F1 + F2) .*")
        parse_regex("A B D")
    """
    if not isinstance(text, str) or not text.strip():
        raise PolicyParseError("path regex must be a non-empty string")
    return _Parser(text).parse()
