"""equivalent and build_dfa against an exact oracle that takes no derivative.

helpers.oracle_dfa builds a DFA for a term from its structure alone, so
these checks cover the whole language, not a slice up to a length bound.
"""

import pytest
from hypothesis import given, strategies as st

import helpers
from derivrex import (
    Diff,
    Intersect,
    Union,
    build_dfa,
    dfa_accepts,
    enumerate_lang,
    equivalent,
    parse,
)

TERMS = {alphabet: helpers.regexes(alphabet) for alphabet in ("ab", "abc")}


def test_oracle_agrees_with_enumeration(corpus):
    for e in corpus:  # over a, b and c
        d = helpers.oracle_dfa(e, "abc")
        words = enumerate_lang(e, 4).words
        assert {w for w in helpers.words_upto(4, "abc") if dfa_accepts(d, w)} == words


def test_oracle_tells_languages_apart():
    e, f = (parse(t) for t in ("(a+b)*a(a+b)", "(a+b)*b(a+b)"))
    d, g = (helpers.oracle_dfa(x, "ab") for x in (e, f))
    assert helpers.shortest_difference(d, g) == "aa"
    assert helpers.shortest_difference(d, d) is None


@pytest.mark.parametrize("alphabet", TERMS)
@given(data=st.data())
def test_equivalent_agrees_with_the_oracle(alphabet, data):
    e, f, g = (data.draw(TERMS[alphabet]) for _ in range(3))
    # (e - g) + (e & g) is e, in a form canonicalization does not undo.
    for other in (f, Union(Diff(e, g), Intersect(e, g))):
        want = helpers.shortest_difference(
            helpers.oracle_dfa(e, alphabet), helpers.oracle_dfa(other, alphabet)
        )
        got = equivalent(e, other, alphabet)
        assert got.equal == (want is None)
        # Both searches go breadth-first in alphabet order, so both find the
        # first distinguishing word in that order, not only one as short.
        assert got.counterexample == want


@pytest.mark.parametrize("alphabet", TERMS)
@given(data=st.data())
def test_build_dfa_accepts_the_oracle_language(alphabet, data):
    e = data.draw(TERMS[alphabet])
    d = build_dfa(e, alphabet)
    assert helpers.shortest_difference(d, helpers.oracle_dfa(e, alphabet)) is None
