"""Parsing, printing, term ordering, and canonical forms."""

import functools
import gc
import itertools
import random
import re
import string
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import helpers
from helpers import word_regex
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
    build_dfa,
    canonicalize,
    concat,
    deriv_sym,
    deriv_word,
    diff,
    equivalent,
    intersect,
    matches,
    parse,
    render,
    union,
)
from derivrex import derivative, syntax
from derivrex.syntax import _INTERNED, _operands

A, B, C = Sym("a"), Sym("b"), Sym("c")

# 1,500 distinct 7-letter words over abc, in alphabetical order.
CHAIN_WORDS = ["".join(p) for p in itertools.product("abc", repeat=7)][:1500]

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

    def test_every_short_text_with_every_token_kind(self):
        # Every token kind, whitespace, two letters and a stray character.
        for n in range(5):
            for chars in itertools.product("01ab()+-&* $", repeat=n):
                assert_parses_like_reference("".join(chars))


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

    def test_rejects_what_is_not_a_term(self):
        with pytest.raises(TypeError, match="not a regex term: 5"):
            render(5)

    @given(helpers.regexes())
    def test_round_trips_through_parse(self, e):
        assert parse(render(e)) == e

    def test_agrees_with_the_recursive_printer(self, corpus):
        # parse(render(e)) is e holds with a redundant pair of parentheses
        # too, so the bytes are pinned against the plain recursive printer.
        randoms = [t for seed in range(5) for t in helpers.random_terms(40, 7, seed)]
        terms = [*corpus, *randoms, *helpers.product_terms()]
        states = {s for e in corpus for s in build_dfa(e, "ab").states}
        for t in [*terms, *map(canonicalize, terms), *states]:
            assert render(t) == helpers.reference_render(t)

    @given(helpers.regexes("abc", max_leaves=16))
    def test_agrees_with_the_recursive_printer_on_any_term(self, e):
        assert render(e) == helpers.reference_render(e)

    # to_json writes state texts between quotes without escaping them.
    PRINTABLE = re.compile(r"[a-z01()+\-&*]*")

    def test_corpus_texts_need_no_json_escaping(self, corpus):
        states = {s for e in corpus for s in build_dfa(e, "ab").states}
        for t in [*corpus, *map(canonicalize, corpus), *states]:
            assert self.PRINTABLE.fullmatch(render(t))

    @given(helpers.regexes("abxyz"))
    def test_texts_need_no_json_escaping(self, e):
        assert self.PRINTABLE.fullmatch(render(e))
        assert self.PRINTABLE.fullmatch(render(canonicalize(e)))


class TestTermOrder:
    def test_empty_before_epsilon(self):
        assert helpers.term_order(EMPTY, EPSILON) < 0

    def test_symbols_compare_by_letter(self):
        assert helpers.term_order(A, B) < 0

    def test_reflexive_terms_tie(self):
        assert helpers.term_order(Star(A), Star(A)) == 0

    @given(helpers.regexes(max_leaves=5), helpers.regexes(max_leaves=5))
    def test_antisymmetric(self, a, b):
        assert helpers.term_order(a, b) == -helpers.term_order(b, a)
        if helpers.term_order(a, b) == 0:
            assert a == b

    @given(
        helpers.regexes(max_leaves=4),
        helpers.regexes(max_leaves=4),
        helpers.regexes(max_leaves=4),
    )
    def test_transitive(self, a, b, c):
        if helpers.term_order(a, b) <= 0 and helpers.term_order(b, c) <= 0:
            assert helpers.term_order(a, c) <= 0


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

    def test_union_of_nothing_is_empty(self):
        assert union() is EMPTY

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

    def test_products_keep_their_grouping(self):
        # (ab)c = a(bc) as languages; canonical forms keep the two groupings,
        # and the equivalence checker relates them.
        left, right = canonicalize(parse("(ab)c")), canonicalize(parse("a(bc)"))
        assert left is not right
        assert equivalent(left, right, "abc").equal

    def test_concat_applies_only_the_unit_and_zero_laws(self):
        ab = parse("ab")
        assert concat(ab, C) is Concat(ab, C)
        assert concat(C, ab) is Concat(C, ab)
        assert concat(EPSILON, ab) is ab is concat(ab, EPSILON)
        assert concat(EMPTY, ab) is EMPTY is concat(ab, EMPTY)

    @given(helpers.regexes())
    def test_idempotent(self, e):
        once = canonicalize(e)
        assert canonicalize(once) == once

    @given(helpers.regexes(max_leaves=6))
    def test_language_preserving(self, e):
        assert helpers.lang_equal_upto(e, canonicalize(e), 4)


BUILDERS = [
    pytest.param("+", union, helpers.reference_union, id="union"),
    pytest.param("&", intersect, helpers.reference_intersect, id="intersect"),
]
CANONICAL = helpers.regexes("abc", max_leaves=6).map(canonicalize)


@pytest.mark.parametrize("op,build,reference", BUILDERS)
class TestBuildersAgreeWithSetAndSort:
    """union and intersect keep the first chain's prefix and merge in the
    rest; the reference builders flatten, sort and rebuild everything."""

    @pytest.mark.parametrize(
        "texts",
        [
            ("0",), ("1",), ("a",), ("a", "0"), ("0", "a"), ("1", "1"),
            ("a", "1"), ("1", "a"), ("a+1", "b"), ("a+c+1", "b+1"), ("a+c", "1"),
            ("b", "a"), ("b", "c"), ("b", "b"), ("a+b", "b+a"),
            # new operands before, between and after a chain's operands
            ("b+d+f", "a"), ("b+d+f", "c"), ("b+d+f", "g"), ("b+d+f", "a+c+e+g"),
            # a new operand at the top of the prefix that is kept
            ("b+d+f", "d+e"), ("b+d+f", "f"), ("b+d+f", "b+c"), ("b+d+f", "b+d+f"),
            # chains on either side, and more than two operands
            ("a", "b+d+f"), ("e", "b+d+f"), ("b+d+f", "a+g", "c", "0", "e+1"),
            ("a*b", "a+b", "ab", "b*a+1", "a*"),
            # one new operand, which goes on top with one comparison when it
            # sorts after first's top, and the cases left to the merge:
            # after a chain's top or a single term,
            ("a+b", "c"), ("b+d", "e*"), ("a*", "ab"), ("a-b", "c"),
            # after a chain or a 1 that ends in 1, which stays last,
            ("a+b+1", "c"), ("a+b+1", "1"),
            # equal to the top, a chain itself, 0 or 1, after a 0
            ("a+b", "b"), ("a", "a"), ("a+b", "c+d"), ("a", "b+c"), ("a+b", "b+c"),
            ("a+b", "c-d"), ("a+b", "0"), ("a+b", "1"), ("0", "a+b"), ("0", "1"),
            ("1", "0"), ("0", "0"),
        ],
        ids=repr,
    )
    def test_cases(self, op, build, reference, texts):
        terms = [canonicalize(parse(t.replace("+", op))) for t in texts]
        assert build(*terms) is reference(*terms)

    @given(st.data())
    def test_canonical_terms_and_chains(self, op, build, reference, data):
        chains = st.lists(CANONICAL, min_size=1, max_size=6).map(lambda xs: reference(*xs))
        terms = data.draw(st.lists(st.one_of(CANONICAL, chains), min_size=1, max_size=4))
        assert build(*terms) is reference(*terms)

    def test_every_pair_of_corpus_derivatives(self, op, build, reference, corpus):
        states = {s for e in corpus for s in build_dfa(e, "ab").states}
        for x in states:
            for y in states:
                assert build(x, y) is reference(x, y)


@pytest.mark.parametrize("op,build,reference", BUILDERS)
class TestBuildersBuildOnlyNewNodes:
    """Nodes built, counted as the growth of the intern table.  The letters
    are ones no other test keeps terms over."""

    @staticmethod
    def count_built(build, *terms):
        gc.collect()
        before = len(_INTERNED)
        got = build(*terms)
        return got, len(_INTERNED) - before

    def test_one_operand_goes_under_a_top_one(self, op, build, reference):
        first, t = (canonicalize(parse(x.replace("+", op))) for x in ("m+n+1", "p"))
        got, built = self.count_built(build, first, t)
        assert built == 2  # m+n+p and m+n+p+1
        assert got is reference(first, t)

    def test_a_chain_operand_rebuilds_only_above_its_insertion_point(self, op, build, reference):
        first, t = (canonicalize(parse(x.replace("+", op))) for x in ("m+n+q+s", "p+r"))
        got, built = self.count_built(build, first, t)
        assert built == 4  # m+n is kept; p, q, r and s go on top of it
        assert got is reference(first, t)

    @pytest.mark.parametrize("top,calls", [("", 4), ("+1", 5)])
    def test_a_chain_operand_keeps_the_prefix_below_it(
        self, op, build, reference, top, calls, monkeypatch
    ):
        # Counted as _node calls, so nodes already interned count too: a
        # rebuild from the bottom would make one more, for m+n.
        first, t = (canonicalize(parse(x.replace("+", op))) for x in ("m+n+q+s" + top, "p+r"))
        made = []
        node = syntax._node
        monkeypatch.setattr(syntax, "_node", lambda *args: made.append(args) or node(*args))
        got = build(first, t)
        monkeypatch.undo()
        assert len(made) == calls  # p, q, r and s on m+n, and 1 on top
        assert got is reference(first, t)


@pytest.mark.parametrize("op,build,reference", BUILDERS)
class TestCanonicalizeBuildsEachChainOnce:
    """Within one canonicalize call, a + or & chain written in several
    orders is built once: the builder runs once per set of operands."""

    @staticmethod
    def text(op, seed):
        # The 26 letters joined by op in six seeded orders, side by side.
        rng = random.Random(seed)
        orders = [rng.sample(string.ascii_lowercase, 26) for _ in range(6)]
        return "".join(f"({op.join(order)})" for order in orders)

    def test_six_orders_build_the_chain_once(self, op, build, reference, monkeypatch):
        kind, e = (Union if op == "+" else Intersect), parse(self.text(op, 2828))
        made = []
        node = syntax._node
        monkeypatch.setattr(syntax, "_node", lambda *args: made.append(args) or node(*args))
        got = canonicalize(e)
        monkeypatch.undo()
        assert sum(cls is kind for cls, *_ in made) == 25  # one chain of 26
        chain = want = reference(*map(Sym, string.ascii_lowercase))
        for _ in range(5):  # juxtaposition nests to the right
            want = concat(chain, want)
        assert got is want
        # A second call, on other orders, gives the same object.
        assert canonicalize(parse(self.text(op, 2829))) is got


@pytest.mark.parametrize("op,build,reference", BUILDERS)
class TestInsertionUnderAChain:
    """An operand or a chain that sorts below every operand of the first
    chain goes under it, and each prefix passed keeps the result."""

    # Distinct canonical terms over abc in term order, none of them 0 or 1.
    POOL = sorted(
        {canonicalize(e) for e in helpers.product_terms(count=120, seed=21)} - {EMPTY, EPSILON},
        key=helpers.term_key,
    )

    @classmethod
    def draws(cls, op, reference):
        # Seeded pairs of t and C's operands: 3 to 8 pool terms not of the
        # builder's class, the lowest j of them joined into t.
        kind = Union if op == "+" else Intersect
        pool = [x for x in cls.POOL if type(x) is not kind]
        rng = random.Random(2121)
        for _ in range(60):
            ops = sorted(rng.sample(pool, rng.randint(3, 8)), key=helpers.term_key)
            j = rng.randint(1, len(ops) - 2)
            yield reference(*ops[:j]), ops[j:]

    def test_agrees_with_set_and_sort(self, op, build, reference):
        for t, above in self.draws(op, reference):
            for tops in ((), (EPSILON,)):
                chain = reference(*above, *tops)
                want = reference(chain, t)
                assert build(chain, t) is want  # built
                assert build(chain, t) is want  # kept
                # Every shorter prefix, and each one under a new top, finds
                # the result its own prefixes keep.
                for k in range(2, len(above)):
                    prefix = reference(*above[:k], *tops)
                    assert build(prefix, t) is reference(prefix, t)
                    assert build(reference(prefix, above[-1]), t) is reference(prefix, above[-1], t)

    @pytest.mark.parametrize("top", ["", "+1"])
    def test_a_repeated_insertion_makes_at_most_one_node_call(
        self, op, build, reference, top, monkeypatch
    ):
        chain, t = (canonicalize(parse(x.replace("+", op))) for x in ("m+n+q+s" + top, "k+l"))
        want = reference(chain, t)
        assert build(chain, t) is want
        calls = []
        node = syntax._node
        monkeypatch.setattr(syntax, "_node", lambda *args: calls.append(args) or node(*args))
        assert build(chain, t) is want
        assert len(calls) <= 1  # a rebuild makes one per operand of the result

    def test_bad_symbol_raises_with_a_chain_key_in_the_table(self, op, build, reference):
        # Tables keyed by letters also hold chains' insertions; a bad symbol
        # is still checked before it is looked up, warm or cold.
        chain, t = (canonicalize(parse(x.replace("+", op))) for x in ("b*+(a+b)*ba", "a"))
        build(chain, t)
        assert list(chain._derivs) == [t]
        for _ in ("cold", "warm"):
            with pytest.raises(AlphabetError, match="'X' is not"):
                matches(chain, "Xb")
            with pytest.raises(AlphabetError, match="'A' is not"):
                deriv_word("bA", chain)
            assert [matches(chain, w) for w in "ab"] == [False, op == "+"]
        assert chain._derivs.keys() == {t, "a", "b"}


class TestWordHelpers:
    def test_word_regex_builds_canonical_literals(self):
        assert word_regex("") == EPSILON
        assert word_regex("a") == A
        assert word_regex("aba") == Concat(A, Concat(B, A))
        assert canonicalize(word_regex("aba")) == word_regex("aba")

    def test_word_regex_rejects_nonletters(self):
        with pytest.raises(AlphabetError):
            word_regex("a1")

    @pytest.mark.parametrize("ch", ['"', "\\", "A", "ab", "", "0", " ", 5])
    def test_symbols_are_single_lowercase_letters(self, ch):
        with pytest.raises(AlphabetError):
            Sym(ch)

    def test_letters(self):
        assert helpers.letters(parse("a(b+c)*")) == frozenset("abc")
        assert helpers.letters(EMPTY) == frozenset()


class TestWideChains:
    def test_wide_union_canonicalizes_and_matches(self):
        e = parse(WIDE_UNION)
        assert canonicalize(e) is Union(A, B)
        assert matches(e, "a")
        assert helpers.letters(e) == frozenset("ab")

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

    # Chains of 1,500 distinct operands, walked down their left spines by
    # canonicalize, the derivative and the derivative classes.
    def test_long_intersection_chain_matches(self):
        # Words that start with c: a derivative by a or b puts operands
        # below the unions it makes of the others, and the chain above them
        # is rebuilt for each, which takes seconds.
        e = parse("&".join(f"(a+b+c)*{w}" for w in CHAIN_WORDS))
        for u in ("cb", "ccc"):
            assert matches(e, u) is all(u.endswith(w) for w in CHAIN_WORDS)

    def test_long_difference_chain_matches(self):
        e = parse("-".join(f"(a+b+c)*{w}" for w in CHAIN_WORDS))
        first, rest = CHAIN_WORDS[0], CHAIN_WORDS[1:]
        for u in ("cb", "b" + first, "b" + CHAIN_WORDS[1]):
            assert matches(e, u) is (u.endswith(first) and not any(map(u.endswith, rest)))

    def test_a_difference_chain_is_derived_in_linear_work(self):
        # A - chain is never batched, so its derivative does not count the
        # underived prefixes below each node: that count made the first
        # derivative quadratic, 659 traced lines per operand at this width
        # and 1,559 at 1,000 operands.  Without it, 63 at either width.
        n = 400
        e = canonicalize(parse("-".join(f"(a+b+c)*{w}" for w in CHAIN_WORDS[:n])))
        step = derivative._deriv_step.__code__
        lines = 0

        def count(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return count

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: count if frame.f_code is step else None)
        try:
            d = deriv_sym("a", e)
        finally:
            sys.settrace(previous)
        assert lines < 100 * n
        assert d is functools.reduce(diff, [deriv_sym("a", x) for x in _operands(e, Diff)])

    @pytest.mark.parametrize(
        "op,same",
        [("&", "0"), ("-", f"{CHAIN_WORDS[0]}(a+b+c)*")],
        ids=["intersection", "difference"],
    )
    def test_long_chain_equivalence(self, op, same):
        # Distinct words of one length begin no word in common, so the
        # intersection is empty and the difference is its first operand.
        e = parse(op.join(f"{w}(a+b+c)*" for w in CHAIN_WORDS))
        assert equivalent(e, e, "abc") == (True, None)
        assert equivalent(e, parse(same), "abc") == (True, None)
        assert equivalent(e, parse("a(a+b+c)*"), "abc") == (False, "a")

    # Words that start with a, b and c alike: the derivative by a of an
    # a-word's operand is a union, which sorts after the derivatives of the
    # b- and c-words' operands.  Merged in one at a time, each of those
    # rebuilt the chain above it: 268,312 nodes for + and 564,286 for &.
    @pytest.mark.parametrize(
        "op,reference",
        [("+", helpers.reference_union), ("&", helpers.reference_intersect)],
        ids=["union", "intersection"],
    )
    def test_long_chain_derivative_builds_few_nodes(self, op, reference):
        e = canonicalize(parse(op.join(f"(a+b+c)*{w}" for w in CHAIN_WORDS)))
        gc.collect()
        before = len(_INTERNED)
        d = deriv_sym("a", e)
        assert len(_INTERNED) - before < 5_000  # 2,957 for + and 2,228 for &
        cls = Union if op == "+" else Intersect
        assert d is reference(*(deriv_sym("a", x) for x in _operands(e, cls)))

    @pytest.mark.parametrize("op,verdict", [("+", any), ("&", all)], ids=["union", "intersection"])
    def test_long_chain_matches_in_time(self, op, verdict):
        e = parse(op.join(f"(a+b+c)*{w}" for w in CHAIN_WORDS))
        started = time.perf_counter()
        for u in ("abcabca", "bcaacba"):
            assert matches(e, u) is verdict(u.endswith(w) for w in CHAIN_WORDS)
        # About 0.6 s; a union merged in one operand at a time took 78 s
        # for the first word alone.
        assert time.perf_counter() - started < 10.0
