"""The independent semantics that second-guess the engine: the brute-force
enumerator, and stdlib re on the fragment it shares with derivrex."""

import re

import pytest
from hypothesis import given, strategies as st

import helpers
from derivrex import (
    EnumerationBudgetError,
    LangSample,
    QuotientBoundError,
    build_dfa,
    dfa_accepts,
    deriv_sym,
    deriv_word,
    dump_words,
    enumerate_lang,
    matches,
    parse,
    quotient,
)


def _re_fragment():
    # Pairs of a derivrex text and a stdlib re pattern for the same
    # language, built side by side over 0 1 + concatenation and star, so
    # the pattern owes nothing to derivrex's terms.
    leaves = st.sampled_from([("0", "(?!)"), ("1", "(?:)"), ("a", "a"), ("b", "b")])

    def compound(children):
        return st.one_of(
            st.builds(lambda l, r: (f"({l[0]}+{r[0]})", f"(?:{l[1]}|{r[1]})"), children, children),
            st.builds(lambda l, r: (f"({l[0]})({r[0]})", f"(?:{l[1]})(?:{r[1]})"), children, children),
            st.builds(lambda x: (f"({x[0]})*", f"(?:{x[1]})*"), children),
        )

    return st.recursive(leaves, compound, max_leaves=8)


class TestEnumerate:
    def test_star_of_a_two_letter_block(self):
        assert enumerate_lang(parse("(ab)*"), 4).words == {"", "ab", "abab"}

    def test_empty_language(self):
        assert enumerate_lang(parse("0"), 3).words == set()

    def test_prefixed_star(self):
        assert enumerate_lang(parse("a(a+b)*"), 2).words == {"a", "aa", "ab"}

    def test_boolean_connectives(self):
        assert enumerate_lang(parse("(a+b)&(b+1)"), 3).words == {"b"}
        assert enumerate_lang(parse("(a+b)-(b+1)"), 3).words == {"a"}

    def test_bound_zero(self):
        assert enumerate_lang(parse("a*"), 0).words == {""}
        assert enumerate_lang(parse("a"), 0).words == set()

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_lang(parse("a"), -1)

    def test_budget_cap(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_lang(parse("(a+b)*"), 10, cap=100)

    def test_budget_cap_on_a_product(self):
        # Both factors fit in the cap of 3; their product of 4 words does
        # not, and is stopped while it is paired up.
        with pytest.raises(EnumerationBudgetError):
            enumerate_lang(parse("(a+b)(a+b)"), 2, cap=3)

    def test_budget_cap_on_a_union(self):
        # Both operands fit in the cap of 1; their union of 2 words does
        # not, and is stopped by the check that every finished slice passes.
        with pytest.raises(EnumerationBudgetError):
            enumerate_lang(parse("a+b"), 1, cap=1)

    def test_rejects_what_is_not_a_term(self):
        with pytest.raises(TypeError):
            enumerate_lang(5, 1)

    @given(helpers.regexes(max_leaves=6), st.integers(min_value=0, max_value=5))
    def test_slices_grow_monotonically(self, e, k):
        small = enumerate_lang(e, k).words
        large = enumerate_lang(e, k + 1).words
        assert small <= large
        assert small == {w for w in large if len(w) <= k}


class TestAgreesWithStdlibRe:
    @given(_re_fragment(), st.lists(st.text(alphabet="ab", max_size=8), min_size=1, max_size=6))
    def test_membership(self, pair, words):
        text, pattern = pair
        want = [re.fullmatch(pattern, w) is not None for w in words]
        e = parse(text)
        # The first pass fills in the derivative tables of the freshly
        # parsed term, the second walks them warm.
        assert [matches(e, w) for w in words] == want
        assert [matches(e, w) for w in words] == want
        d = build_dfa(e, "ab")
        assert [dfa_accepts(d, w) for w in words] == want


class TestQuotient:
    def test_strips_the_leading_symbol(self):
        s = LangSample(2, frozenset({"", "a", "ab"}))
        assert quotient(s, "a") == LangSample(1, frozenset({"", "b"}))

    def test_on_a_star_slice(self):
        s = enumerate_lang(parse("(ab)*"), 4)
        assert quotient(s, "a").words == {"b", "bab"}

    def test_symbol_absent_everywhere(self):
        s = LangSample(3, frozenset({"", "ba"}))
        assert quotient(s, "a").words == set()

    def test_bound_zero_is_an_error(self):
        with pytest.raises(QuotientBoundError):
            quotient(LangSample(0, frozenset({""})), "a")

    @given(helpers.regexes(max_leaves=6), st.sampled_from("ab"), st.integers(min_value=0, max_value=4))
    def test_matches_the_derivative_language(self, e, a, k):
        lhs = enumerate_lang(deriv_sym(a, e), k).words
        rhs = quotient(enumerate_lang(e, k + 1), a).words
        assert lhs == rhs

    @given(helpers.regexes(max_leaves=6), st.integers(min_value=2, max_value=5))
    def test_composes_like_word_derivation(self, e, k):
        twice = quotient(quotient(enumerate_lang(e, k), "a"), "b")
        assert twice.words == enumerate_lang(deriv_word("ab", e), k - 2).words


class TestLangEqual:
    @pytest.mark.parametrize(
        "lhs,rhs,k,expected",
        [
            ("(1+a)*", "a*", 6, True),
            ("b+a*b", "a*b", 6, True),
            ("(ab)*", "a*b*", 2, False),
            ("(ab)*", "a*b*", 0, True),
        ],
    )
    def test_examples(self, lhs, rhs, k, expected):
        assert helpers.lang_equal_upto(parse(lhs), parse(rhs), k) is expected


class TestDump:
    def test_lexicographic_with_epsilon_as_blank_line(self):
        s = enumerate_lang(parse("(ab)*"), 4)
        assert dump_words(s) == "\nab\nabab\n"

    def test_empty_language_dumps_nothing(self):
        assert dump_words(enumerate_lang(parse("0"), 4)) == ""
