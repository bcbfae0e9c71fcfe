"""Terms far deeper than the interpreter's recursion limit.

Every engine call answers on them, and so does the oracle's enumerator:
the per-node memos and the enumerator's slices are filled on an explicit
stack, and tall sort keys compare in a loop.
"""

import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from derivrex import (
    EMPTY,
    EPSILON,
    Concat,
    Diff,
    Intersect,
    Star,
    Sym,
    Union,
    build_dfa,
    canonicalize,
    concat,
    deriv_word,
    dfa_accepts,
    equivalent,
    from_json,
    intersect,
    matches,
    parse,
    render,
    star,
    to_dot,
    to_json,
    union,
)
from derivrex import syntax

SRC = Path(__file__).resolve().parent.parent / "src"


def test_long_literal_matches_itself():
    word = "ab" * 2500
    e = parse(word)
    assert matches(e, word)
    assert not matches(e, word[:-1])


def test_long_literal_compiles_and_exports():
    word = "ab" * 750
    d = build_dfa(parse(word), "ab")
    assert len(d.states) == len(word) + 2  # every suffix, and 0
    assert d.states[-1] is EPSILON
    assert dfa_accepts(d, word)
    assert to_json(d) == helpers.reference_to_json(d)
    assert to_dot(d) == helpers.reference_to_dot(d)


def test_nested_stars_match():
    e = parse("(" * 5000 + "a" + ")*" * 5000)
    assert canonicalize(e) is parse("a*")
    assert matches(e, "aa")
    assert not matches(e, "ab")


def test_nested_starred_groups_match():
    # ((a*b)*b...)*b: a letter after each starred group, so no star collapses.
    e = parse("(" * 3000 + "a" + ")*b" * 3000)
    assert canonicalize(e) is e
    assert matches(e, "b")
    assert not matches(e, "")


def test_long_literals_are_equivalent():
    word = "ab" * 2500
    grouped = f"({word[:2500]})({word[2500:]})"
    assert equivalent(parse(word), parse(grouped), "ab") == (True, None)
    assert equivalent(parse(word), parse(word[:-1] + "a"), "ab") == (False, word[:-1] + "a")


def test_union_of_long_literals_that_differ_last():
    # Their sort keys nest 5,000 deep, too deep for the C tuple comparison.
    low, high = parse("a" * 4999 + "b"), parse("a" * 4999 + "c")
    u = union(high, low)
    assert u is Union(low, high)
    assert union(low, high) is u
    assert union(u, EPSILON) is Union(u, EPSILON)


def test_appending_tall_literals_one_at_a_time(monkeypatch):
    # Each append compares keys 1,200 deep, past the C tuple comparison, so
    # each merge runs again on tall keys, and still makes one comparison.
    compares = []

    class CountedKey(syntax._TallKey):
        __slots__ = ()

        def __lt__(self, other):
            compares[-1] += 1
            return super().__lt__(other)

    monkeypatch.setattr(syntax, "_TallKey", CountedKey)
    words = [parse("ab" * 600 + x + y) for x in "ab" for y in "abcdefghij"]
    assert all(canonicalize(w) is w for w in words)
    u = EMPTY
    for w in words:
        compares.append(0)
        u = union(u, w)
    assert compares == [0] + [1] * 19  # not a sort of every operand
    assert u is union(EMPTY, *reversed(words))
    assert syntax._operands(u, Union) == words


@pytest.mark.parametrize("top", [(), (EPSILON,)], ids=["plain", "under-1"])
@pytest.mark.parametrize("build,cls", [(union, Union), (intersect, Intersect)], ids=["+", "&"])
def test_merging_tall_operands_into_a_tall_chain(monkeypatch, build, cls, top):
    # Two operands that sort inside the chain: the merge takes the chain's
    # operands above the lower one off and sorts them in, on tall keys.
    tall = []

    class SeenKey(syntax._TallKey):
        __slots__ = ()

        def __init__(self, x):
            tall.append(x)
            super().__init__(x)

    monkeypatch.setattr(syntax, "_TallKey", SeenKey)
    a, b, c, d, e = (parse("ab" * 600 + x) for x in "abcde")
    chain = build(a, c, e, *top)
    assert syntax._operands(chain, cls) == [a, c, e, *top]
    for rest in ((b, d), (d, b), (build(b, d),)):
        tall.clear()
        got = build(chain, *rest)
        assert tall  # the merge ran again on tall keys
        assert syntax._operands(got, cls) == [a, b, c, d, e, *top]
        assert got is build(e, d, c, b, a, *top)


def test_union_of_tall_keys_that_share_subkeys():
    # u = concat(star(u), u): each key holds the one below twice, so written
    # out as a tree it has 2^600 parts.  The comparison walks one path down
    # to the first difference and skips the parts the two keys share.
    def tower(x, n):
        for _ in range(n):
            x = concat(star(x), x)
        return x

    low, high = tower(Sym("a"), 600), tower(Sym("b"), 600)
    assert union(high, low) is Union(low, high)
    assert union(low, high) is Union(low, high)
    shared = star(tower(Sym("c"), 60))  # 2^60 parts, ahead of the difference
    for _ in range(1200):
        low, high = concat(shared, low), concat(shared, high)
    assert union(high, low) is Union(low, high)


def test_a_tall_merge_that_overflows_raises(monkeypatch):
    # The tall run is the last one: its RecursionError is not caught again.
    calls = []

    def tall_key(x):
        calls.append(x)
        raise RecursionError

    monkeypatch.setattr(syntax, "_TallKey", tall_key)
    low, high = parse("a" * 1999 + "b"), parse("a" * 1999 + "c")
    with pytest.raises(RecursionError):
        union(high, low)
    assert len(calls) == 1


def test_printing_a_long_literal_keeps_linear_memory():
    gc.collect()
    word = "ab" * 2500
    e = parse(word)
    tracemalloc.start()
    try:
        assert render(e) == word
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The text is 5 kB.  Keeping the text of every suffix would hold
    # about 12.5 MB.
    assert held < 1_000_000


def test_deriving_nested_starred_groups_builds_few_nodes():
    # D_a of ((a*b)*b...)*b grows a product on the left at each level, and
    # each level builds a few nodes.  Reassociating the products rebuilt
    # every product below, about 2n^2 nodes in all (499,000 at n = 500).
    n = 500
    e = parse("(" * n + "a" + ")*b" * n)
    before = len(syntax._INTERNED)
    d = deriv_word("ab", e)
    assert len(syntax._INTERNED) - before < 5000
    assert matches(d, "b" * (n - 1))


def test_printing_a_left_nested_product_keeps_one_text():
    # ((ac)b)c...: only the top of the left spine keeps its text, as only
    # the top of a right-nested literal does.  A short prefix such as ac
    # may be live and printed already.
    factors = "".join("cb"[i % 2] + ")" for i in range(2499))
    e = parse("(" * 2499 + "a" + factors)
    spine, node = [], e
    while type(node) is Concat:
        spine.append(node)
        node = node.left
    assert len(spine) == 2499
    printed = {id(x) for x in spine if x._text is not None}
    assert parse(render(e)) is e
    assert [x for x in spine if x._text is not None and id(x) not in printed] == [e]


def _region(e):
    # The nodes of e's class reachable from e through nodes of that class.
    found, stack = {}, [e]
    while stack:
        x = stack.pop()
        if type(x) is type(e) and id(x) not in found:
            found[id(x)] = x
            stack += [x.inner] if type(x) is Star else [x.left, x.right]
    return list(found.values())


A, B = Sym("a"), Sym("b")
TOWERS = {
    "alternate-product": lambda z: Concat(A, Concat(z, B)),
    "star": Star,
    "right-union": lambda z: Union(A, z),
    "right-and": lambda z: Intersect(A, z),
    "right-minus": lambda z: Diff(A, z),
}


@pytest.mark.parametrize("level", TOWERS.values(), ids=TOWERS)
def test_printing_a_tower_keeps_one_text(level):
    # A tower of one class prints in one pass, and only its top keeps a
    # text.  Kept on every level, the texts take memory quadratic in the
    # tower: 12.6 MB for 2,500 alternately nested products.  The lowest
    # levels may be live and printed already.
    e = A
    for _ in range(2500):
        e = level(e)
    region = _region(e)
    assert len(region) >= 2500
    printed = {id(x) for x in region if x._text is not None}
    assert parse(render(e)) is e
    assert [x for x in region if x._text is not None and id(x) not in printed] == [e]


def test_a_star_tower_round_trips_through_json_with_one_text():
    state = "a" + "*" * 8000
    tower = _region(parse(state))
    printed = {id(x) for x in tower if x._text is not None}
    doc = (
        '{"alphabet":["a"],"states":["%s"],"start":0,"accepting":[0],'
        '"transitions":[{"from":0,"symbol":"a","to":0}]}' % state
    )
    d = from_json(doc)
    assert d.states[0] is tower[0]
    assert to_json(d) == doc
    assert [x for x in tower if x._text is not None and id(x) not in printed] == [tower[0]]


def _nodes(e):
    # Every node of e other than 0, 1 and symbols, each once.
    found, stack = {}, [e]
    while stack:
        x = stack.pop()
        if type(x) in (Star, Concat, Intersect, Diff, Union) and id(x) not in found:
            found[id(x)] = x
            stack += [x.inner] if type(x) is Star else [x.left, x.right]
    return list(found.values())


C = Sym("c")
ALTERNATING = {  # the levels of a tower, in turn
    "starred-group": [lambda z: Concat(Star(z), B)],
    "star-of-product": [lambda z: Star(Concat(z, B))],
    "and-plus": [lambda z: Intersect(C, z), lambda z: Union(B, z)],
}


@pytest.mark.parametrize("levels", ALTERNATING.values(), ids=ALTERNATING)
def test_printing_an_alternating_tower_keeps_two_texts(levels):
    # Only the printed term keeps its text, and so does its one part of
    # another class, which prints all below it inline.  With a text on
    # every level, 2,500 nested (…)*b held 25 MB.
    e = A
    for i in range(2500):
        e = levels[i % len(levels)](e)
    nodes = _nodes(e)
    assert len(nodes) >= 2500
    printed = {id(x) for x in nodes if x._text is not None}
    assert parse(render(e)) is e
    below = {Star: "inner", Concat: "left", Union: "right"}[type(e)]
    new = [x for x in nodes if x._text is not None and id(x) not in printed]
    assert new == [e, getattr(e, below)]


def test_nested_starred_groups_round_trip_through_json_with_two_texts():
    # render's own text of 4,000 nested (…)*b, 16 KB.
    state = "(" * 3999 + "a*b" + ")*b" * 3999
    e = parse(state)
    nodes = _nodes(e)
    printed = {id(x) for x in nodes if x._text is not None}
    doc = (
        '{"alphabet":["a","b"],"states":["%s"],"start":0,"accepting":[],'
        '"transitions":[{"from":0,"symbol":"a","to":0},{"from":0,"symbol":"b","to":0}]}' % state
    )
    d = from_json(doc)
    assert d.states[0] is e
    assert to_json(d) == doc
    assert [x for x in nodes if x._text is not None and id(x) not in printed] == [e, e.left]


def test_deep_terms_need_no_recursion():
    # With the limit at 100, any recursion per level of a term fails at once.
    script = textwrap.dedent(
        """
        import copy, sys
        from derivrex import (build_dfa, canonicalize, enumerate_lang, equivalent, matches,
                              parse, render, to_dot, to_json, union)

        n = 2000
        literal = "ab" * (n // 2)
        cases = [  # a text n deep, and whether it matches b
            (literal, False),
            ("(" * n + "a" + ")*" * n, False),
            ("(" * n + "a" + ")*b" * n, True),
            ("-".join(["(a+b)*"] + ["ab"] * n), True),
            ("&".join(["(a+b)*", "a*b"] * (n // 2)), True),
            ("(" * (n - 1) + "a" + "b)" * (n - 1), False),
            ("a(" * (n - 1) + "abb" + ")b" * (n - 1), False),
            ("a+(" * (n - 1) + "a+b" + ")" * (n - 1), True),
        ]
        sys.setrecursionlimit(100)
        for text, matches_b in cases:
            e = parse(text)
            assert parse(render(e)) is e
            assert copy.deepcopy(e) is e
            c = canonicalize(e)
            assert canonicalize(c) is c and parse(render(c)) is c
            assert matches(e, "b") is matches_b
            assert ("b" in enumerate_lang(e, 1).words) is matches_b
        d = build_dfa(parse(literal), "ab")
        assert len(d.states) == n + 2
        assert copy.deepcopy(d) == d
        assert to_json(d).count('"symbol"') == 2 * (n + 2)
        assert to_dot(d).count("->") == 2 * (n + 2) + 1
        other = literal[:-1] + "a"
        assert equivalent(parse(literal), parse(other), "ab").counterexample == other
        assert equivalent(parse(cases[1][0]), parse("a*"), "ab").equal
        assert union(parse("a" * n + "b"), parse("a" * n + "c")).right is parse("a" * n + "c")
        print("ok")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


DEEP = settings(max_examples=8)


@DEEP
@given(helpers.deep_terms())
def test_deep_terms_print_and_parse_back(e):
    assert parse(render(e)) is e


@DEEP
@given(helpers.deep_terms())
def test_canonicalize_is_idempotent_on_deep_terms(e):
    c = canonicalize(e)
    assert canonicalize(c) is c
    assert parse(render(c)) is c


# Stars over concatenations blow up the number of states, so this property
# draws from the kinds whose automata stay about as large as the term.
@DEEP
@given(
    helpers.deep_terms(kinds=("literal", "and", "minus")),
    st.lists(st.text("ab", max_size=6), min_size=1, max_size=4),
)
def test_deep_matches_agree_with_the_automaton(e, words):
    d = build_dfa(e, "ab")
    for w in words:
        assert matches(e, w) == dfa_accepts(d, w)

