"""Finite automata for path regular expressions.

The Contra compiler converts every regular expression in a policy into a
finite automaton over the alphabet of switch identifiers (§4.1).  Because
probes travel from the destination towards potential sources — opposite to
the direction of traffic — the compiler builds the automaton of the *reversed*
regex and then walks it as probes propagate.

The pipeline is the textbook one:

1. :class:`NFA` — Thompson construction from the regex AST, with transitions
   labelled either by a concrete switch id or by the wildcard ``.``;
2. :class:`DFA` — subset construction specialised to a concrete alphabet (the
   topology's switch set), including the explicit dead ("garbage") state the
   paper writes as ``-``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core import regex as rx
from repro.exceptions import CompilationError

__all__ = ["NFA", "DFA", "dfa_from_regex", "ANY_SYMBOL", "DEAD_STATE"]

#: Label used on NFA transitions that match any switch id.
ANY_SYMBOL = "."

#: Name of the DFA dead ("garbage") state, written ``-`` in the paper.
DEAD_STATE = -1


class NFA:
    """A non-deterministic finite automaton built by Thompson construction."""

    def __init__(self) -> None:
        self._next_state = 0
        self.start: int = 0
        self.accept: int = 0
        #: state -> list of (label, destination); label is a switch id or ANY_SYMBOL.
        self.transitions: Dict[int, List[Tuple[str, int]]] = {}
        #: state -> set of epsilon destinations.
        self.epsilon: Dict[int, Set[int]] = {}

    # -------------------------------------------------------------- building

    def new_state(self) -> int:
        state = self._next_state
        self._next_state += 1
        self.transitions.setdefault(state, [])
        self.epsilon.setdefault(state, set())
        return state

    def add_transition(self, src: int, label: str, dst: int) -> None:
        self.transitions.setdefault(src, []).append((label, dst))

    def add_epsilon(self, src: int, dst: int) -> None:
        self.epsilon.setdefault(src, set()).add(dst)

    @classmethod
    def from_regex(cls, pattern: rx.PathRegex) -> "NFA":
        """Thompson construction of an NFA accepting exactly ``pattern``."""
        nfa = cls()
        start, accept = nfa._build(pattern)
        nfa.start = start
        nfa.accept = accept
        return nfa

    def _build(self, pattern: rx.PathRegex) -> Tuple[int, int]:
        if isinstance(pattern, rx.EmptySet):
            start, accept = self.new_state(), self.new_state()
            return start, accept
        if isinstance(pattern, rx.Epsilon):
            start, accept = self.new_state(), self.new_state()
            self.add_epsilon(start, accept)
            return start, accept
        if isinstance(pattern, rx.Node):
            start, accept = self.new_state(), self.new_state()
            self.add_transition(start, pattern.name, accept)
            return start, accept
        if isinstance(pattern, rx.AnyNode):
            start, accept = self.new_state(), self.new_state()
            self.add_transition(start, ANY_SYMBOL, accept)
            return start, accept
        if isinstance(pattern, rx.Concat):
            s1, a1 = self._build(pattern.left)
            s2, a2 = self._build(pattern.right)
            self.add_epsilon(a1, s2)
            return s1, a2
        if isinstance(pattern, rx.Union):
            s1, a1 = self._build(pattern.left)
            s2, a2 = self._build(pattern.right)
            start, accept = self.new_state(), self.new_state()
            self.add_epsilon(start, s1)
            self.add_epsilon(start, s2)
            self.add_epsilon(a1, accept)
            self.add_epsilon(a2, accept)
            return start, accept
        if isinstance(pattern, rx.Star):
            s1, a1 = self._build(pattern.inner)
            start, accept = self.new_state(), self.new_state()
            self.add_epsilon(start, s1)
            self.add_epsilon(start, accept)
            self.add_epsilon(a1, s1)
            self.add_epsilon(a1, accept)
            return start, accept
        raise CompilationError(f"unsupported regex node {pattern!r}")

    # ------------------------------------------------------------- execution

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """All states reachable from ``states`` via epsilon transitions."""
        stack = list(states)
        closure = set(stack)
        while stack:
            state = stack.pop()
            for nxt in self.epsilon.get(state, ()):  # pragma: no branch
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return frozenset(closure)

    def move(self, states: Iterable[int], symbol: str) -> Set[int]:
        """States reachable from ``states`` by consuming ``symbol``."""
        result: Set[int] = set()
        for state in states:
            for label, dst in self.transitions.get(state, ()):  # pragma: no branch
                if label == ANY_SYMBOL or label == symbol:
                    result.add(dst)
        return result

    def accepts(self, word: Sequence[str]) -> bool:
        """Reference acceptance check used by tests."""
        current = self.epsilon_closure({self.start})
        for symbol in word:
            current = self.epsilon_closure(self.move(current, symbol))
            if not current:
                return False
        return self.accept in current


class DFA:
    """A deterministic automaton over a concrete switch alphabet.

    States are consecutive integers; state ``DEAD_STATE`` (-1) is the explicit
    garbage state from which no path can ever be accepted.

    Construction and minimisation work over *symbol classes*: each symbol
    the NFA names is a class of its own, and every other symbol — which
    moves any state exactly as the next one does — shares one more.  The
    class table (``_rows``) is what the product graph reads; the
    per-symbol ``_delta`` is expanded from it only when :meth:`transition`
    (or a test) first asks for it.
    """

    def __init__(self, alphabet: Iterable[str]):
        self.alphabet: Tuple[str, ...] = tuple(sorted(set(alphabet)))
        self.initial: int = 0
        self.accepting: Set[int] = set()
        self.num_states: int = 0
        #: Per alphabet symbol, in order, the index of its symbol class.
        self._class_of: Tuple[int, ...] = ()
        #: live state -> its target per symbol class, in ``_delta``'s row order.
        self._rows: Dict[int, Tuple[int, ...]] = {}

    # -------------------------------------------------------------- building

    @classmethod
    def from_nfa(cls, nfa: NFA, alphabet: Iterable[str]) -> "DFA":
        """Subset construction restricted to ``alphabet``, one move per symbol class.

        Classes are visited in the alphabet order of their first symbol,
        which is where a per-symbol loop first meets a class's target, so
        state numbering and ``_delta`` are the per-symbol construction's.
        """
        dfa = cls(alphabet)
        named = {label for moves in nfa.transitions.values() for label, _ in moves}
        named.discard(ANY_SYMBOL)
        firsts: List[str] = []          # the first symbol of every class
        other: Optional[int] = None
        class_of = []
        for symbol in dfa.alphabet:
            if symbol in named:
                class_of.append(len(firsts))
                firsts.append(symbol)
            else:
                if other is None:
                    other = len(firsts)
                    firsts.append(symbol)
                class_of.append(other)
        dfa._class_of = tuple(class_of)

        start = nfa.epsilon_closure({nfa.start})
        subset_index: Dict[FrozenSet[int], int] = {start: 0}
        dfa.num_states = 1
        if nfa.accept in start:
            dfa.accepting.add(0)
        queue: List[FrozenSet[int]] = [start]
        while queue:
            subset = queue.pop()
            row = []
            for symbol in firsts:
                target = nfa.epsilon_closure(nfa.move(subset, symbol))
                if not target:
                    row.append(DEAD_STATE)
                    continue
                state = subset_index.get(target)
                if state is None:
                    state = subset_index[target] = dfa.num_states
                    dfa.num_states += 1
                    if nfa.accept in target:
                        dfa.accepting.add(state)
                    queue.append(target)
                row.append(state)
            dfa._rows[subset_index[subset]] = tuple(row)
        return dfa

    @cached_property
    def _delta(self) -> Dict[Tuple[int, str], int]:
        """The transition table (state, symbol) -> state: per row of ``_rows``,
        every symbol in alphabet order."""
        symbols = tuple(zip(self.alphabet, self._class_of))
        delta = {}
        for src, row in self._rows.items():
            for symbol, symbol_class in symbols:
                delta[(src, symbol)] = row[symbol_class]
        return delta

    # ------------------------------------------------------------- interface

    def transition(self, state: int, symbol: str) -> int:
        """The successor state after consuming ``symbol`` (DEAD_STATE if none).

        The table holds every (live state, alphabet symbol) pair and nothing
        else, so the dead state and a symbol outside the alphabet both miss.
        """
        return self._delta.get((state, symbol), DEAD_STATE)

    def is_accepting(self, state: int) -> bool:
        return state in self.accepting

    def is_dead(self, state: int) -> bool:
        return state == DEAD_STATE

    @property
    def states(self) -> List[int]:
        """All live states (the dead state excluded)."""
        return list(range(self.num_states))

    def accepts(self, word: Sequence[str]) -> bool:
        """Reference acceptance check used by tests."""
        state = self.initial
        for symbol in word:
            state = self.transition(state, symbol)
            if state == DEAD_STATE:
                return False
        return self.is_accepting(state)

    def live_states(self) -> Set[int]:
        """States from which an accepting state is reachable."""
        reverse: Dict[int, Set[int]] = {s: set() for s in self.states}
        for (src, _symbol), dst in self._delta.items():
            if dst != DEAD_STATE:
                reverse[dst].add(src)
        live = set(self.accepting)
        stack = list(self.accepting)
        while stack:
            state = stack.pop()
            for pred in reverse.get(state, ()):  # pragma: no branch
                if pred not in live:
                    live.add(pred)
                    stack.append(pred)
        return live

    def minimize(self) -> "DFA":
        """Partition refinement over symbol classes.

        Reduces the number of product-graph virtual nodes and therefore the
        number of tags the data plane must carry.  A state's signature is its
        block and its targets' blocks, one per symbol class, with the dead
        state a block of its own; refinement only ever splits, so it has
        converged when the block count stops growing.  Blocks are numbered
        by their smallest state, the initial state's then swapped to 0, and
        a block's row sits where its first member's row did.
        """
        rows = self._rows
        if not rows:
            return self
        accepting = self.accepting
        block_of = {state: state in accepting for state in rows}
        count = len(set(block_of.values()))
        block_of[DEAD_STATE] = DEAD_STATE
        while True:
            signatures: Dict[Tuple[int, Tuple[int, ...]], int] = {}
            refined = {DEAD_STATE: DEAD_STATE}
            for state, row in rows.items():
                refined[state] = signatures.setdefault(
                    (block_of[state], tuple([block_of[target] for target in row])),
                    len(signatures))
            block_of = refined
            if len(signatures) == count:
                break
            count = len(signatures)

        number: Dict[int, int] = {}
        for state in sorted(rows):
            number.setdefault(block_of[state], len(number))
        start = number[block_of[self.initial]]
        if start:
            # Renumber so that the initial state is 0 (cosmetic but keeps reports stable).
            number = {block: 0 if n == start else start if n == 0 else n
                      for block, n in number.items()}
        number[DEAD_STATE] = DEAD_STATE
        rename = {state: number[block] for state, block in block_of.items()}

        minimized = DFA(self.alphabet)
        minimized.num_states = count
        minimized.accepting = {rename[state] for state in accepting}
        minimized._class_of = self._class_of
        for src, row in rows.items():
            target = rename[src]
            if target not in minimized._rows:
                minimized._rows[target] = tuple([rename[state] for state in row])
        return minimized

    def __repr__(self) -> str:
        return (f"DFA(states={self.num_states}, accepting={sorted(self.accepting)}, "
                f"alphabet={len(self.alphabet)} symbols)")


def dfa_from_regex(pattern: rx.PathRegex, alphabet: Iterable[str], minimize: bool = True) -> DFA:
    """Compile a path regex into a DFA over ``alphabet``.

    ``minimize`` controls whether Hopcroft minimization runs (on by default;
    the compiler exposes it as an optimization toggle for the ablation bench).
    """
    nfa = NFA.from_regex(pattern)
    dfa = DFA.from_nfa(nfa, alphabet)
    return dfa.minimize() if minimize else dfa
