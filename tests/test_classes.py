"""Derivative classes, and the pair search that takes one derivative per class."""

import string

import pytest
from hypothesis import given

import helpers
from derivrex import EMPTY, PairBudgetError, canonicalize, deriv_sym, equivalent, parse
from derivrex.derivative import classes

SIGMA = string.ascii_lowercase


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
