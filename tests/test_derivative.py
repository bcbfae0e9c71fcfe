"""Single-symbol and word derivatives, with their closed-form expansions."""

import pytest
from hypothesis import given, strategies as st

import helpers
from derivrex import (
    EMPTY,
    EPSILON,
    AlphabetError,
    Concat,
    Diff,
    Intersect,
    Star,
    Sym,
    Union,
    canonicalize,
    delta,
    deriv_sym,
    deriv_word,
    enumerate_lang,
    lang_equal_upto,
    matches,
    nullable,
    parse,
    render,
)

WORDS = st.text(alphabet="ab", max_size=5)


class TestNullable:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", False),
            ("1", True),
            ("a", False),
            ("a*", True),
            ("(ab)*", True),
            ("a+1", True),
            ("a1", False),
            ("a*b*", True),
            ("a*&b*", True),
            ("1-1", False),
            ("a*-1", False),
            ("a*-b", True),
        ],
    )
    def test_examples(self, text, expected):
        assert nullable(parse(text)) is expected

    @given(helpers.regexes())
    def test_star_always_nullable(self, e):
        assert nullable(Star(e))

    @given(helpers.regexes(max_leaves=6))
    def test_agrees_with_enumeration(self, e):
        assert nullable(e) == ("" in enumerate_lang(e, 0).words)

    def test_delta_is_a_unit(self):
        assert delta(parse("a*")) == EPSILON
        assert delta(parse("a")) == EMPTY
        assert delta(parse("1+ab")) == EPSILON


class TestDerivSym:
    @pytest.mark.parametrize(
        "expr,sym,expected",
        [
            ("a(a+b)*", "a", "(a+b)*"),
            ("a(a+b)*", "b", "0"),
            ("ab(a+b)*", "a", "b(a+b)*"),
            ("ab(a+b)*", "b", "0"),
            ("(a+b)*a", "a", "(a+b)*a+1"),
            ("(a+b)*a", "b", "(a+b)*a"),
            ("0", "a", "0"),
            ("1", "a", "0"),
            ("a", "a", "1"),
            ("a", "b", "0"),
            ("a*", "a", "a*"),
        ],
    )
    def test_worked_examples(self, expr, sym, expected):
        assert render(deriv_sym(sym, parse(expr))) == expected

    def test_intersection_distributes(self):
        got = deriv_sym("a", parse("(ab)&(a+ab)"))
        assert got == canonicalize(parse("b&(1+b)"))

    def test_difference_distributes(self):
        got = deriv_sym("a", parse("(ab)-(aa)"))
        assert got == canonicalize(parse("b-a"))

    def test_result_is_canonical(self):
        got = deriv_sym("a", parse("a(a+b)+a(a+b)"))
        assert canonicalize(got) == got


class TestDerivWord:
    def test_empty_word_just_canonicalizes(self):
        e = parse("a+a+0")
        assert deriv_word("", e) is canonicalize(e)

    def test_bad_symbol_raises_on_warm_and_cold_tables(self):
        # A symbol found in a derivative table is known to be valid, so a
        # warm walk must still stop at the bad symbol.
        warm = parse("(a+b)*a")
        assert not matches(warm, "abab")
        cold = [parse("(a+b)*a(a+b)(b+a)"), parse("(a+b)*a(b+a)(a+b)")]
        assert all(canonicalize(e)._derivs is None for e in cold)
        for e, f in ((warm, warm), cold):
            with pytest.raises(AlphabetError, match="'X' is not"):
                matches(e, "abXb")
            with pytest.raises(AlphabetError, match="'A' is not"):
                deriv_word("abA", f)

    def test_word_steps_first_symbol_first(self):
        assert render(deriv_word("aba", parse("(a+b)ab"))) == "0"

    def test_whole_literal_leaves_epsilon(self):
        assert deriv_word("ab", parse("ab")) == EPSILON

    @given(helpers.regexes(max_leaves=6), st.sampled_from("ab"), WORDS)
    def test_fundamental_law(self, e, a, w):
        # aw is in L(e) exactly when w is in the derivative's language.
        assert matches(e, a + w) == matches(deriv_sym(a, e), w)

    @given(helpers.regexes(max_leaves=6), WORDS)
    def test_matches_agrees_with_enumeration(self, e, w):
        assert matches(e, w) == (w in enumerate_lang(e, len(w)).words)


class TestConcatExpansion:
    @pytest.mark.parametrize(
        "w,e,f,expected",
        [
            ("a", "a", "b", "b"),
            ("ab", "ab", "b", "b"),
            ("a", "1", "a", "1"),
        ],
    )
    def test_worked_examples(self, w, e, f, expected):
        got = helpers.concat_expansion(w, parse(e), parse(f))
        assert render(got) == expected

    def test_rejects_the_empty_word(self):
        with pytest.raises(ValueError):
            helpers.concat_expansion("", parse("a"), parse("b"))

    @given(
        helpers.regexes(max_leaves=5),
        helpers.regexes(max_leaves=5),
        st.text(alphabet="ab", min_size=1, max_size=4),
    )
    def test_agrees_with_stepwise_derivation(self, e, f, w):
        assert lang_equal_upto(
            deriv_word(w, Concat(e, f)), helpers.concat_expansion(w, e, f), 5
        )


class TestStarExpansion:
    @pytest.mark.parametrize(
        "w,e,expected",
        [
            ("a", "ab", "b(ab)*"),
            ("ab", "a+b", "(a+b)*"),
            ("aa", "ab", "0"),
        ],
    )
    def test_worked_examples(self, w, e, expected):
        assert render(helpers.star_expansion(w, parse(e))) == expected

    def test_rejects_the_empty_word(self):
        with pytest.raises(ValueError):
            helpers.star_expansion("", parse("a"))

    @given(helpers.regexes(max_leaves=5), st.text(alphabet="ab", min_size=1, max_size=4))
    def test_agrees_with_stepwise_derivation(self, e, w):
        assert lang_equal_upto(deriv_word(w, Star(e)), helpers.star_expansion(w, e), 5)


class TestUnionAndBooleanLaws:
    @given(
        helpers.regexes(max_leaves=5),
        helpers.regexes(max_leaves=5),
        st.text(alphabet="ab", min_size=1, max_size=4),
    )
    def test_derivative_distributes_over_union(self, e, f, w):
        lhs = deriv_word(w, Union(e, f))
        rhs = Union(deriv_word(w, e), deriv_word(w, f))
        assert lang_equal_upto(lhs, rhs, 5)

    @given(helpers.regexes(max_leaves=5), helpers.regexes(max_leaves=5), st.sampled_from("ab"))
    def test_derivative_distributes_over_intersection(self, e, f, a):
        lhs = enumerate_lang(deriv_sym(a, Intersect(e, f)), 5).words
        rhs = enumerate_lang(deriv_sym(a, e), 5).words & enumerate_lang(deriv_sym(a, f), 5).words
        assert lhs == rhs

    @given(helpers.regexes(max_leaves=5), helpers.regexes(max_leaves=5), st.sampled_from("ab"))
    def test_derivative_distributes_over_difference(self, e, f, a):
        lhs = enumerate_lang(deriv_sym(a, Diff(e, f)), 5).words
        rhs = enumerate_lang(deriv_sym(a, e), 5).words - enumerate_lang(deriv_sym(a, f), 5).words
        assert lhs == rhs
