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
    """

    def __init__(self, alphabet: Iterable[str]):
        self.alphabet: Tuple[str, ...] = tuple(sorted(set(alphabet)))
        self.initial: int = 0
        self.accepting: Set[int] = set()
        #: transition table: (state, symbol) -> state.
        self._delta: Dict[Tuple[int, str], int] = {}
        self.num_states: int = 0

    # -------------------------------------------------------------- building

    @classmethod
    def from_nfa(cls, nfa: NFA, alphabet: Iterable[str]) -> "DFA":
        """Subset construction restricted to ``alphabet``."""
        dfa = cls(alphabet)
        start = nfa.epsilon_closure({nfa.start})
        subset_index: Dict[FrozenSet[int], int] = {start: 0}
        dfa.num_states = 1
        if nfa.accept in start:
            dfa.accepting.add(0)
        queue: List[FrozenSet[int]] = [start]
        while queue:
            subset = queue.pop()
            src = subset_index[subset]
            # Every symbol no transition out of the subset names moves it along
            # its wildcard transitions only, so to one target: computed at the
            # first such symbol, where the per-symbol loop would first meet it.
            named = {label for state in subset for label, _ in nfa.transitions.get(state, ())}
            named.discard(ANY_SYMBOL)
            unnamed_target: Optional[FrozenSet[int]] = None
            for symbol in dfa.alphabet:
                if symbol in named:
                    target = nfa.epsilon_closure(nfa.move(subset, symbol))
                elif unnamed_target is None:
                    target = unnamed_target = nfa.epsilon_closure(nfa.move(subset, symbol))
                else:
                    target = unnamed_target
                if not target:
                    dfa._delta[(src, symbol)] = DEAD_STATE
                    continue
                if target not in subset_index:
                    subset_index[target] = dfa.num_states
                    dfa.num_states += 1
                    if nfa.accept in target:
                        dfa.accepting.add(subset_index[target])
                    queue.append(target)
                dfa._delta[(src, symbol)] = subset_index[target]
        return dfa

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
        """Hopcroft-style minimization (partition refinement).

        Reduces the number of product-graph virtual nodes and therefore the
        number of tags the data plane must carry.
        """
        states = set(self.states)
        if not states:
            return self
        accepting = set(self.accepting) & states
        non_accepting = states - accepting
        partitions: List[Set[int]] = [p for p in (accepting, non_accepting) if p]

        changed = True
        while changed:
            changed = False
            new_partitions: List[Set[int]] = []
            for block in partitions:
                # Split the block by transition signature.
                signature_of: Dict[int, Tuple[int, ...]] = {}
                for state in block:
                    signature = tuple(
                        self._block_index(partitions, self.transition(state, symbol))
                        for symbol in self.alphabet
                    )
                    signature_of[state] = signature
                groups: Dict[Tuple[int, ...], Set[int]] = {}
                for state, signature in signature_of.items():
                    groups.setdefault(signature, set()).add(state)
                if len(groups) > 1:
                    changed = True
                new_partitions.extend(groups.values())
            partitions = new_partitions

        # Build the minimized DFA.
        block_of: Dict[int, int] = {}
        for idx, block in enumerate(sorted(partitions, key=lambda b: min(b))):
            for state in block:
                block_of[state] = idx
        minimized = DFA(self.alphabet)
        minimized.num_states = len(partitions)
        minimized.initial = block_of[self.initial]
        minimized.accepting = {block_of[s] for s in self.accepting}
        for (src, symbol), dst in self._delta.items():
            if dst == DEAD_STATE:
                minimized._delta[(block_of[src], symbol)] = DEAD_STATE
            else:
                minimized._delta[(block_of[src], symbol)] = block_of[dst]
        # Renumber so that the initial state is 0 (cosmetic but keeps reports stable).
        if minimized.initial != 0:
            swap = minimized.initial
            remap = {swap: 0, 0: swap}
            minimized.initial = 0
            minimized.accepting = {remap.get(s, s) for s in minimized.accepting}
            minimized._delta = {
                (remap.get(src, src), symbol): remap.get(dst, dst) if dst != DEAD_STATE else DEAD_STATE
                for (src, symbol), dst in minimized._delta.items()
            }
        return minimized

    @staticmethod
    def _block_index(partitions: List[Set[int]], state: int) -> int:
        if state == DEAD_STATE:
            return -1
        for idx, block in enumerate(partitions):
            if state in block:
                return idx
        return -1

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
