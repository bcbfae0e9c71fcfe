"""Derivative classes, and the searches that take one derivative per class."""

import hashlib
import string

import pytest
from hypothesis import given

import helpers
from derivrex import (
    EMPTY,
    EPSILON,
    PairBudgetError,
    Regex,
    StateBudgetError,
    build_dfa,
    canonicalize,
    deriv_sym,
    deriv_word,
    equivalent,
    parse,
    to_dot,
    to_json,
)
from derivrex.automaton import _class_leaders
from derivrex.derivative import classes

SIGMA = string.ascii_lowercase

# sha256 over to_json and to_dot of the builds in
# test_exports_match_the_letter_by_letter_digest, taken from the
# letter-by-letter reference_build_dfa and the reference writers.  It was
# re-recorded when concat stopped reassociating products and diff began to
# absorb a 0 on its left: (a*b*)(a*b*)* now prints with its grouping, and
# the dead state 0-1 of b-a+1 is gone.
EXPORT_DIGEST_26 = "071183125313b5b2695be5c4615d325b31b5fd1250c78a06600e2ff878c8571e"


def outcome(check, e, f, alphabet, budget):
    try:
        v = check(e, f, alphabet, budget)
    except PairBudgetError as err:
        return ("budget", err.explored, err.max_pairs)
    return ("verdict", v.equal, v.counterexample)


def assert_same_search(e, f, alphabet):
    # Same verdict and counterexample, and the budget error at the same
    # budgets, from a budget of 1 up to the first one the search fits in.
    budget = 1
    while True:
        want = outcome(helpers.reference_equivalent, e, f, alphabet, budget)
        assert outcome(equivalent, e, f, alphabet, budget) == want, (e, f, alphabet, budget)
        if want[0] == "verdict":
            return want
        budget += 1


def dfa_outcome(build, e, alphabet, budget):
    try:
        d = build(e, alphabet, budget)
    except StateBudgetError as err:
        return ("budget", err.discovered, err.max_states)
    # Terms compare by identity, so equal state tuples hold the same objects.
    return ("dfa", d.states, d.alphabet, d.start, d.accepting, d.transitions)


def assert_same_closure(e, alphabet):
    # The same automaton, and the budget error at the same budgets, from a
    # budget of 1 up to the first one the closure fits in.
    budget = 1
    while True:
        want = dfa_outcome(helpers.reference_build_dfa, e, alphabet, budget)
        assert dfa_outcome(build_dfa, e, alphabet, budget) == want, (e, alphabet, budget)
        if want[0] == "dfa":
            return want
        budget += 1


def nth(n, sigma=SIGMA):
    s = "(" + "+".join(sigma) + ")"
    return s + "*a" + s * n


class TestAgreesWithLetterByLetterSearch:
    @pytest.mark.parametrize("alphabet", ["ab", "abc", "ba"])
    def test_corpus(self, corpus, alphabet):
        pairs = list(zip(corpus, corpus[1:])) + list(zip(corpus, corpus[7:]))
        verdicts = {assert_same_search(e, f, alphabet)[1] for e, f in pairs}
        assert verdicts == {True, False}

    @given(helpers.regexes("abcz"), helpers.regexes("abcz"))
    def test_random_terms(self, e, f):
        for alphabet in ("abcz", "zcba"):
            assert_same_search(e, f, alphabet)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alphabet", [SIGMA, SIGMA[::-1]])
    def test_nth_from_last_over_26_letters(self, n, alphabet):
        s = "(" + "+".join(SIGMA) + ")"
        left = parse(nth(n))
        reshaped = parse(f"({s}-a)*a({s}*a)*" + s * n)
        plus_z = parse(nth(n) + "+" + "z" * (n + 1))
        assert assert_same_search(left, reshaped, alphabet) == ("verdict", True, None)
        assert assert_same_search(left, plus_z, alphabet) == ("verdict", False, "z" * (n + 1))


class TestBuildDfaAgreesWithLetterByLetterLoop:
    @pytest.mark.parametrize("alphabet", ["abc", "abcz", "zcba"])
    def test_corpus(self, corpus, alphabet):
        for e in corpus:
            assert_same_closure(e, alphabet)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alphabet", [SIGMA, SIGMA[::-1]])
    def test_nth_from_last_over_26_letters(self, n, alphabet):
        d = assert_same_closure(parse(nth(n)), alphabet)
        assert len(d[1]) == 2 ** (n + 1)

    def test_exports_match_the_letter_by_letter_digest(self, corpus):
        jobs = [(parse(nth(n)), SIGMA) for n in (1, 2, 3, 4)]
        jobs += [(e, alphabet) for alphabet in ("abcz", "zcba") for e in corpus]
        h = hashlib.sha256()
        for e, alphabet in jobs:
            d = build_dfa(e, alphabet)
            h.update(to_json(d).encode())
            h.update(to_dot(d).encode())
        assert h.hexdigest() == EXPORT_DIGEST_26


class TestClasses:
    @given(helpers.regexes("abc"))
    def test_one_class_one_derivative(self, e):
        c = canonicalize(e)
        m = classes(c)
        for a in "abcz":
            d = deriv_sym(a, c)
            if a not in m:
                assert d is EMPTY
            for b in m:
                if m[b] == m.get(a):
                    assert deriv_sym(b, c) is d

    def test_a_union_of_all_letters_is_one_class(self):
        for text in ("+".join(SIGMA), "+".join(reversed(SIGMA)), f"({'+'.join(SIGMA)})*"):
            m = classes(canonicalize(parse(text)))
            assert m.keys() == set(SIGMA)
            assert len(set(m.values())) == 1

    def test_nullable_prefix_refines_by_the_rest(self):
        m = classes(canonicalize(parse(nth(0))))
        assert m["a"] != m["b"] == m["z"]
        assert classes(canonicalize(parse("a(b+c)"))) == {"a": 0}


class TestMapsArePerCall:
    # No term keeps a class map: each search makes a memo of its own, so a
    # second search on the same terms runs on warm derivatives and fresh maps.

    @pytest.mark.parametrize("n", [1, 2])
    def test_searches_called_twice_agree_with_the_references(self, n):
        s = "(" + "+".join(SIGMA) + ")"
        left = parse(nth(n))
        reshaped = parse(f"({s}-a)*a({s}*a)*" + s * n)
        plus_z = parse(nth(n) + "+" + "z" * (n + 1))
        for _ in range(2):
            assert assert_same_search(left, reshaped, SIGMA) == ("verdict", True, None)
            assert assert_same_search(left, plus_z, SIGMA) == ("verdict", False, "z" * (n + 1))
            assert len(assert_same_closure(left, SIGMA)[1]) == 2 ** (n + 1)
            assert len(assert_same_closure(plus_z, SIGMA)[1]) > 2 ** (n + 1)

    def test_classes_called_twice_gives_equal_maps(self, corpus):
        terms = [canonicalize(e) for e in corpus] + [EPSILON, canonicalize(parse(nth(3)))]
        for c in terms:
            assert classes(c) == classes(c)
        assert classes(EPSILON) == classes(EPSILON) == {}

    def test_a_memo_hit_on_an_empty_map_is_a_hit(self):
        # The map of 1 is {}: a memo that holds it returns that very map.
        memo = {}
        m = classes(EPSILON, memo)
        assert m == {} and memo[EPSILON] is m
        assert classes(EPSILON, memo) is m
        c = canonicalize(parse("a(1+b)"))
        assert classes(c, memo) is classes(c, memo) is memo[c]

    def test_no_term_keeps_a_map(self):
        left, right = parse(nth(2)), parse(nth(2) + "+zzz")
        d = build_dfa(left, SIGMA)
        assert not equivalent(left, right, SIGMA).equal
        for t in (*d.states, canonicalize(right)):
            assert not hasattr(t, "_classes")
        assert "_classes" not in Regex.__slots__


class TestOneMemoMeetsEachPairOnce:
    # Within one memo, two maps are met once, and the leaders of a pair of
    # maps are listed once: terms whose parts share maps share the results.

    @staticmethod
    def states():
        # Σ*aΣ^3+Σ^3 and Σ*aΣ^3+Σ^2, two states of Σ*aΣ^3.  Σ^3 and Σ^2 both
        # have Σ's map, so the two unions meet the same two maps.
        e = canonicalize(parse(nth(3)))
        return deriv_word("a", e), deriv_word("ab", e)

    def test_states_that_share_their_parts_maps_share_one_map(self):
        s1, s2 = self.states()
        memo = {}
        m = classes(s1, memo)
        assert classes(s2, memo) is m
        assert m == classes(s2)  # as a fresh memo gives it
        assert m["a"] != m["b"] == m["z"]

    def test_unions_of_the_same_letters_share_one_block(self):
        # ab and ac both have a's map, and a+b+c is the block of both.
        memo = {}
        m = classes(canonicalize(parse("a+b+c+ab")), memo)
        assert classes(canonicalize(parse("a+b+c+ac")), memo) is m
        assert m == {"a": 1, "b": 0, "c": 0}

    def test_pairs_of_the_same_maps_share_one_leader_list(self):
        s1, s2 = self.states()
        start = canonicalize(parse(nth(3)))
        alpha, maps = tuple(SIGMA), {}
        # As build_dfa asks for a state alone, and as equivalent for a pair.
        for q1, q2 in ((s1, s2), (start, start)):
            leaders = _class_leaders(alpha, maps, s1, q1)
            assert _class_leaders(alpha, maps, s2, q2) is leaders
            assert leaders == _class_leaders(alpha, {}, s2, q2)
        assert leaders == [0] + [1] * 25
