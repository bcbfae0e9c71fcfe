"""Parsing, printing, term ordering, and canonical forms."""

import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import helpers
from derivrex import (
    EMPTY,
    EPSILON,
    AlphabetError,
    Concat,
    DerivrexError,
    Diff,
    Intersect,
    ParseError,
    Star,
    Sym,
    Union,
    canonicalize,
    lang_equal_upto,
    letters,
    matches,
    parse,
    render,
    term_order,
    word_regex,
)

A, B, C = Sym("a"), Sym("b"), Sym("c")

# A parsed chain of 3,000 operands, far deeper than the interpreter's
# recursion limit.
WIDE_UNION = "+".join("ab"[i % 2] for i in range(3000))


class TestParse:
    def test_concat_binds_tighter_than_union(self):
        assert parse("a(a+b)*") == Concat(A, Star(Union(A, B)))

    def test_empty_atom(self):
        assert parse("0") == EMPTY

    def test_union_chain_is_left_nested(self):
        assert parse("a+b+a") == Union(Union(A, B), A)

    def test_difference_chain_is_left_nested(self):
        assert parse("a-b-a") == Diff(Diff(A, B), A)

    def test_juxtaposition_nests_to_the_right(self):
        assert parse("aba") == Concat(A, Concat(B, A))

    def test_operator_precedence_star_tightest(self):
        assert parse("ab*&b-a+1") == Union(
            Diff(Intersect(Concat(A, Star(B)), B), A), EPSILON
        )

    def test_whitespace_is_skipped(self):
        assert parse(" a + b ") == Union(A, B)

    def test_double_star(self):
        assert parse("a**") == Star(Star(A))

    @pytest.mark.parametrize(
        "text,position",
        [("a+", 2), ("(ab", 3), (")", 0), ("a$b", 1), ("", 0)],
    )
    def test_syntax_errors_carry_positions(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position

    def test_deep_nesting_parses(self):
        assert parse("(" * 10_000 + "a" + ")" * 10_000) is A

    def test_letter_outside_declared_alphabet(self):
        with pytest.raises(AlphabetError):
            parse("a(b+c)", alphabet="ab")
        assert parse("a(b+c)", alphabet="abc") == Concat(A, Union(B, C))


def parse_outcome(parser, text, alphabet):
    """The term a parser returns, or the type, message and position it raises."""
    try:
        return parser(text, alphabet)
    except DerivrexError as err:
        return type(err), str(err), getattr(err, "position", None)


def assert_parses_like_reference(text):
    for alphabet in (None, "a", "ab"):
        got = parse_outcome(parse, text, alphabet)
        want = parse_outcome(helpers.reference_parse, text, alphabet)
        if isinstance(want, tuple):
            assert got == want, (text, alphabet)
        else:
            assert got is want, (text, alphabet)


class TestAgreesWithRecursiveDescent:
    def test_every_short_text(self):
        for n in range(6):
            for chars in itertools.product("0a()+&*", repeat=n):
                assert_parses_like_reference("".join(chars))

    @given(st.text(alphabet="01abc()+-&* \t\0", max_size=40))
    def test_random_texts(self, text):
        assert_parses_like_reference(text)


class TestRender:
    @pytest.mark.parametrize(
        "term,text",
        [
            (EMPTY, "0"),
            (EPSILON, "1"),
            (Concat(A, Star(Union(A, B))), "a(a+b)*"),
            (Star(A), "a*"),
            (Star(Concat(A, B)), "(ab)*"),
            (Union(A, Union(B, A)), "a+(b+a)"),
            (Concat(Concat(A, B), A), "(ab)a"),
            (Diff(Intersect(A, B), C), "a&b-c"),
        ],
    )
    def test_examples(self, term, text):
        assert render(term) == text

    @given(helpers.regexes())
    def test_round_trips_through_parse(self, e):
        assert parse(render(e)) == e


class TestTermOrder:
    def test_empty_before_epsilon(self):
        assert term_order(EMPTY, EPSILON) < 0

    def test_symbols_compare_by_letter(self):
        assert term_order(A, B) < 0

    def test_reflexive_terms_tie(self):
        assert term_order(Star(A), Star(A)) == 0

    @given(helpers.regexes(max_leaves=5), helpers.regexes(max_leaves=5))
    def test_antisymmetric(self, a, b):
        assert term_order(a, b) == -term_order(b, a)
        if term_order(a, b) == 0:
            assert a == b

    @given(
        helpers.regexes(max_leaves=4),
        helpers.regexes(max_leaves=4),
        helpers.regexes(max_leaves=4),
    )
    def test_transitive(self, a, b, c):
        if term_order(a, b) <= 0 and term_order(b, c) <= 0:
            assert term_order(a, c) <= 0


class TestCanonicalize:
    @pytest.mark.parametrize(
        "term,expected",
        [
            (Union(A, EMPTY), A),
            (Concat(EPSILON, A), A),
            (Star(Star(A)), Star(A)),
            (Union(A, A), A),
            (Union(B, A), Union(A, B)),
            (Concat(A, EMPTY), EMPTY),
            (Star(EMPTY), EPSILON),
            (Star(EPSILON), EPSILON),
            (Intersect(A, Intersect(B, A)), Intersect(A, B)),
            (Intersect(A, EMPTY), EMPTY),
            (Diff(A, EMPTY), A),
            (Diff(Union(A, B), Union(B, A)), EMPTY),
        ],
    )
    def test_rewrites(self, term, expected):
        assert canonicalize(term) == expected

    def test_sums_put_epsilon_last(self):
        # Unit sums read the way they are conventionally written down.
        got = canonicalize(Union(EPSILON, Concat(Star(Union(A, B)), A)))
        assert render(got) == "(a+b)*a+1"

    @pytest.mark.parametrize(
        "lhs,rhs",
        [("0a", "0"), ("a0", "0"), ("0+a", "a"), ("a+0", "a"),
         ("1a", "a"), ("a1", "a"), ("1*", "1")],
    )
    def test_unit_laws_are_decided_structurally(self, lhs, rhs):
        assert canonicalize(parse(lhs)) == canonicalize(parse(rhs))

    def test_semantic_identities_are_not_rewritten(self):
        # (1+a)* = a* holds as languages but needs the equivalence checker;
        # canonical forms keep the two shapes apart.
        assert canonicalize(parse("(1+a)*")) != canonicalize(parse("a*"))

    @given(helpers.regexes())
    def test_idempotent(self, e):
        once = canonicalize(e)
        assert canonicalize(once) == once

    @given(helpers.regexes(max_leaves=6))
    def test_language_preserving(self, e):
        assert lang_equal_upto(e, canonicalize(e), 4)


class TestWordHelpers:
    def test_word_regex_builds_canonical_literals(self):
        assert word_regex("") == EPSILON
        assert word_regex("a") == A
        assert word_regex("aba") == Concat(A, Concat(B, A))
        assert canonicalize(word_regex("aba")) == word_regex("aba")

    def test_word_regex_rejects_nonletters(self):
        with pytest.raises(AlphabetError):
            word_regex("a1")

    def test_letters(self):
        assert letters(parse("a(b+c)*")) == frozenset("abc")
        assert letters(EMPTY) == frozenset()


class TestWideChains:
    def test_wide_union_canonicalizes_and_matches(self):
        e = parse(WIDE_UNION)
        assert canonicalize(e) is Union(A, B)
        assert matches(e, "a")
        assert letters(e) == frozenset("ab")

    def test_wide_union_of_distinct_words_matches_and_prints(self):
        e = parse(helpers.word_union_text())
        assert matches(e, "abc")
        assert not matches(e, "zzz")
        for t in (e, canonicalize(e)):
            assert parse(render(t)) is t

    def test_printing_a_wide_union_keeps_linear_memory(self):
        gc.collect()
        text = helpers.word_union_text()
        e = parse(text)
        tracemalloc.start()
        try:
            assert render(e) == text
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The text is 12 kB.  Keeping the text of every prefix of the chain
        # held about 18 MB.
        assert held < 2_000_000

    @pytest.mark.parametrize("op", ["&", "-"])
    def test_wide_infix_chain_round_trips(self, op):
        e = parse(op.join("ab"[i % 2] + "*" for i in range(3000)))
        assert parse(render(e)) is e

    def test_wide_intersection_canonicalizes(self):
        e = parse("&".join("ab"[i % 2] + "*" for i in range(3000)))
        assert canonicalize(e) is Intersect(Star(A), Star(B))
