"""Unit tests for the NFA/DFA construction used by the compiler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import regex as rx
from repro.core.automata import DEAD_STATE, DFA, NFA, dfa_from_regex

ALPHABET = ("A", "B", "C", "D", "W")
switch_ids = st.sampled_from(ALPHABET)
words = st.lists(switch_ids, min_size=0, max_size=6)


def small_regexes():
    leaf = st.one_of(
        switch_ids.map(rx.node),
        st.just(rx.any_node()),
        st.just(rx.Epsilon()),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pair: rx.concat(*pair)),
            st.tuples(children, children).map(lambda pair: rx.union(*pair)),
            children.map(rx.star),
        )

    return st.recursive(leaf, extend, max_leaves=8)


class TestNFA:
    def test_single_node(self):
        nfa = NFA.from_regex(rx.node("A"))
        assert nfa.accepts(["A"])
        assert not nfa.accepts(["B"])
        assert not nfa.accepts([])

    def test_concatenation(self):
        nfa = NFA.from_regex(rx.parse_regex("A B D"))
        assert nfa.accepts(["A", "B", "D"])
        assert not nfa.accepts(["A", "B"])

    def test_union(self):
        nfa = NFA.from_regex(rx.parse_regex("A + B"))
        assert nfa.accepts(["A"])
        assert nfa.accepts(["B"])
        assert not nfa.accepts(["C"])

    def test_star(self):
        nfa = NFA.from_regex(rx.parse_regex("A*"))
        assert nfa.accepts([])
        assert nfa.accepts(["A", "A", "A"])
        assert not nfa.accepts(["B"])

    def test_wildcard(self):
        nfa = NFA.from_regex(rx.parse_regex(". ."))
        assert nfa.accepts(["X", "Y"])
        assert not nfa.accepts(["X"])

    def test_empty_set(self):
        nfa = NFA.from_regex(rx.EmptySet())
        assert not nfa.accepts([])
        assert not nfa.accepts(["A"])

    @given(small_regexes(), words)
    @settings(max_examples=200)
    def test_nfa_agrees_with_derivative_matching(self, pattern, word):
        assert NFA.from_regex(pattern).accepts(word) == pattern.matches(word)


class TestDFA:
    def test_waypoint_dfa(self):
        dfa = dfa_from_regex(rx.parse_regex(".* W .*"), ALPHABET)
        assert dfa.accepts(["A", "W", "B"])
        assert dfa.accepts(["W"])
        assert not dfa.accepts(["A", "B"])

    def test_dead_state_transitions_stay_dead(self):
        dfa = dfa_from_regex(rx.parse_regex("A B"), ALPHABET)
        state = dfa.transition(dfa.initial, "B")  # no word starts with B
        assert state == DEAD_STATE
        assert dfa.transition(state, "A") == DEAD_STATE
        assert not dfa.is_accepting(DEAD_STATE)

    def test_symbol_outside_alphabet_goes_dead(self):
        dfa = dfa_from_regex(rx.parse_regex("A"), ("A",))
        assert dfa.transition(dfa.initial, "Z") == DEAD_STATE

    def test_minimization_preserves_language(self):
        pattern = rx.parse_regex("(A + B) (A + B) .*")
        raw = dfa_from_regex(pattern, ALPHABET, minimize=False)
        minimized = dfa_from_regex(pattern, ALPHABET, minimize=True)
        assert minimized.num_states <= raw.num_states
        for word in (["A"], ["A", "B"], ["B", "A", "C"], ["C", "A"], []):
            assert raw.accepts(word) == minimized.accepts(word)

    def test_minimization_merges_equivalent_states(self):
        # A A + A A has redundant states before minimization.
        pattern = rx.parse_regex("A A + A A")
        raw = dfa_from_regex(pattern, ("A",), minimize=False)
        minimized = dfa_from_regex(pattern, ("A",), minimize=True)
        assert minimized.num_states <= raw.num_states

    def test_states_enumeration(self):
        dfa = dfa_from_regex(rx.parse_regex("A B"), ALPHABET)
        assert dfa.initial in dfa.states
        assert all(s >= 0 for s in dfa.states)

    @given(small_regexes(), words)
    @settings(max_examples=200)
    def test_dfa_agrees_with_derivative_matching(self, pattern, word):
        dfa = dfa_from_regex(pattern, ALPHABET)
        assert dfa.accepts(word) == pattern.matches(word)

    @given(small_regexes(), words)
    @settings(max_examples=100)
    def test_reversed_dfa_accepts_reversed_words(self, pattern, word):
        """The construction the compiler relies on: run the reversed regex's DFA
        over the probe's (reversed) path."""
        dfa = dfa_from_regex(pattern.reverse(), ALPHABET)
        assert dfa.accepts(list(reversed(word))) == pattern.matches(word)

    def test_repr(self):
        dfa = dfa_from_regex(rx.parse_regex("A"), ALPHABET)
        assert "DFA" in repr(dfa)


def reference_from_nfa(nfa, alphabet):
    """Subset construction asking ``move`` + ``epsilon_closure`` for every symbol."""
    dfa = DFA(alphabet)
    start = nfa.epsilon_closure({nfa.start})
    subset_index = {start: 0}
    dfa.num_states = 1
    if nfa.accept in start:
        dfa.accepting.add(0)
    queue = [start]
    while queue:
        subset = queue.pop()
        src = subset_index[subset]
        for symbol in dfa.alphabet:
            target = nfa.epsilon_closure(nfa.move(subset, symbol))
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


def reference_minimize(dfa):
    """Partition refinement over every symbol, a block found by scanning the partition."""

    def block_index(partitions, state):
        if state == DEAD_STATE:
            return -1
        for idx, block in enumerate(partitions):
            if state in block:
                return idx
        return -1

    states = set(dfa.states)
    if not states:
        return dfa
    accepting = set(dfa.accepting) & states
    partitions = [p for p in (accepting, states - accepting) if p]
    changed = True
    while changed:
        changed = False
        new_partitions = []
        for block in partitions:
            groups = {}
            for state in block:
                signature = tuple(block_index(partitions, dfa.transition(state, symbol))
                                  for symbol in dfa.alphabet)
                groups.setdefault(signature, set()).add(state)
            if len(groups) > 1:
                changed = True
            new_partitions.extend(groups.values())
        partitions = new_partitions

    block_of = {}
    for idx, block in enumerate(sorted(partitions, key=min)):
        for state in block:
            block_of[state] = idx
    minimized = DFA(dfa.alphabet)
    minimized.num_states = len(partitions)
    minimized.initial = block_of[dfa.initial]
    minimized.accepting = {block_of[s] for s in dfa.accepting}
    for (src, symbol), dst in dfa._delta.items():
        minimized._delta[(block_of[src], symbol)] = \
            DEAD_STATE if dst == DEAD_STATE else block_of[dst]
    if minimized.initial != 0:
        swap = minimized.initial
        remap = {swap: 0, 0: swap}
        minimized.initial = 0
        minimized.accepting = {remap.get(s, s) for s in minimized.accepting}
        minimized._delta = {
            (remap.get(src, src), symbol): DEAD_STATE if dst == DEAD_STATE else remap.get(dst, dst)
            for (src, symbol), dst in minimized._delta.items()}
    return minimized


def assert_same_dfa(built, reference):
    """Same table in the same insertion order, so the same state numbering."""
    assert list(built._delta.items()) == list(reference._delta.items())
    assert (built.num_states, built.initial, built.accepting, built.alphabet) == \
        (reference.num_states, reference.initial, reference.accepting, reference.alphabet)


class TestSubsetConstructionSharesUnnamedSymbols:
    """``from_nfa`` closes once per subset for the symbols no transition names."""

    @staticmethod
    def policy_regexes():
        from repro.core import policies
        from repro.experiments.scalability import waypoint_policy_for
        from repro.topology.abilene import abilene

        topology = abilene()
        bundled = [factory() for factory in policies.ALL_POLICIES.values()]
        bundled.append(waypoint_policy_for(topology))
        # The Fig. 3 policies name F1, F2, X and Y, which Abilene does not have.
        alphabet = topology.switches + ["F1", "F2", "X", "Y"]
        return alphabet, [regex for policy in bundled for regex in policy.regexes()]

    def test_every_bundled_policy_regex_both_directions(self):
        alphabet, regexes = self.policy_regexes()
        assert len(regexes) >= 6
        for regex in regexes:
            for pattern in (regex, regex.reverse()):
                nfa = NFA.from_regex(pattern)
                assert_same_dfa(DFA.from_nfa(nfa, alphabet), reference_from_nfa(nfa, alphabet))

    def test_closures_are_per_named_symbol_not_per_symbol(self, monkeypatch):
        alphabet = [f"s{i:02d}" for i in range(40)]
        nfa = NFA.from_regex(rx.parse_regex(".* s07 .*"))
        closures = 0
        closure = NFA.epsilon_closure

        def counted(self, states):
            nonlocal closures
            closures += 1
            return closure(self, states)

        monkeypatch.setattr(NFA, "epsilon_closure", counted)
        dfa = DFA.from_nfa(nfa, alphabet)
        # The start closure, then per subset one for s07 and one for the rest.
        assert closures == 1 + 2 * dfa.num_states

    def test_a_switch_named_like_the_wildcard(self):
        """``.`` as a switch id only ever matches wildcard transitions."""
        nfa = NFA.from_regex(rx.concat(rx.node("A"), rx.any_node()))
        alphabet = ("A", "B", ".")
        assert_same_dfa(DFA.from_nfa(nfa, alphabet), reference_from_nfa(nfa, alphabet))

    @given(small_regexes())
    @settings(max_examples=150)
    def test_random_regexes(self, pattern):
        nfa = NFA.from_regex(pattern)
        assert_same_dfa(DFA.from_nfa(nfa, ALPHABET), reference_from_nfa(nfa, ALPHABET))


#: Symbols no drawn regex names, so every drawn DFA has a class of several.
WIDE_ALPHABET = ALPHABET + ("E", "F", "X", "Y", ".")


class TestSymbolClasses:
    """Construction and minimisation over symbol classes give the per-symbol tables."""

    @given(small_regexes(), st.sampled_from((ALPHABET, WIDE_ALPHABET, ("A",), ())))
    @settings(max_examples=200)
    def test_dfa_from_regex_equals_the_per_symbol_reference(self, pattern, alphabet):
        for candidate in (pattern, pattern.reverse()):
            reference = reference_from_nfa(NFA.from_regex(candidate), alphabet)
            assert_same_dfa(dfa_from_regex(candidate, alphabet, minimize=False), reference)
            assert_same_dfa(dfa_from_regex(candidate, alphabet), reference_minimize(reference))

    def test_a_waypoint_regex_has_two_classes(self):
        alphabet = [f"s{i:02d}" for i in range(40)]
        dfa = dfa_from_regex(rx.parse_regex(".* s07 .*").reverse(), alphabet)
        assert dfa._class_of == tuple(1 if symbol == "s07" else 0 for symbol in alphabet)
        assert all(len(row) == 2 for row in dfa._rows.values())
        assert len(dfa._delta) == dfa.num_states * len(alphabet)

    def test_minimising_twice_changes_nothing(self):
        dfa = dfa_from_regex(rx.parse_regex("A A + A A .*"), WIDE_ALPHABET)
        again = dfa.minimize()
        assert_same_dfa(again, dfa)
        assert again._rows == dfa._rows

    def test_figure3_policy_regexes(self):
        alphabet, regexes = TestSubsetConstructionSharesUnnamedSymbols.policy_regexes()
        for regex in regexes:
            for pattern in (regex, regex.reverse()):
                reference = reference_from_nfa(NFA.from_regex(pattern), alphabet)
                assert_same_dfa(dfa_from_regex(pattern, alphabet), reference_minimize(reference))
