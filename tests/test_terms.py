"""Hash-consed terms: sharing, identity, immutability, order and lifetime."""

import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given

import helpers
from helpers import word_regex
from derivrex import (
    EMPTY,
    EPSILON,
    Concat,
    Diff,
    Empty,
    Epsilon,
    Intersect,
    Star,
    Sym,
    Union,
    build_dfa,
    canonicalize,
    deriv_word,
    enumerate_lang,
    matches,
    nullable,
    parse,
    render,
    to_dot,
    to_json,
    union,
)
from derivrex import derivative
from derivrex.syntax import LETTERS, _INTERNED, _Ref, _drop, _publish, _TallKey

A, B = Sym("a"), Sym("b")


def nth_from_last(n):
    return parse("(a+b)*a" + "(a+b)" * n)


class TestInterning:
    def test_equal_symbols_are_one_object(self):
        assert Sym("a") is Sym("a")
        assert Sym("a") is not Sym("b")
        assert Empty() is EMPTY
        assert Epsilon() is EPSILON

    def test_equal_structure_built_twice_is_one_object(self):
        def build():
            return Union(Concat(Sym("a"), Star(Sym("b"))), Diff(EPSILON, Intersect(EMPTY, A)))

        assert build() is build()
        assert parse("a(a+b)*") is parse("a(a+b)*")
        assert parse("a+b") is not parse("b+a")

    @given(helpers.regexes())
    def test_printing_and_pickling_give_the_term_back(self, e):
        assert parse(render(e)) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_canonicalize_is_idempotent_by_identity(self, corpus):
        for e in corpus:
            c = canonicalize(e)
            assert canonicalize(c) is c
            assert canonicalize(e) is c

    def test_long_literal_hashes_and_compares(self):
        w = word_regex("ab" * 2500)
        same = word_regex("ab" * 2500)
        other = word_regex("ab" * 2499 + "aa")
        assert hash(w) == hash(same)
        assert len({w, same, other}) == 2
        assert w == same and w != other

    def test_terms_are_immutable(self):
        t = Union(A, B)
        with pytest.raises(AttributeError):
            t.left = B
        with pytest.raises(AttributeError):
            t.extra = 1
        with pytest.raises(AttributeError):
            del t.right
        assert (t.left, t.right) == (A, B)

    def test_fields_and_match_patterns(self):
        match parse("a*+b"):
            case Union(Star(Sym(x)), Sym(y)):
                assert (x, y) == ("a", "b")
            case other:
                pytest.fail(f"no pattern matched {other!r}")


def test_threads_building_the_same_terms_get_one_object():
    words = helpers.words_upto(7, "xy")
    results = [None] * 4
    barrier = threading.Barrier(len(results), timeout=60)

    def work(i):
        barrier.wait()
        results[i] = [Star(Union(word_regex(w), Sym("z"))) for w in words]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to provoke races
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(a is b for other in results[1:] for a, b in zip(results[0], other))


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="__reduce__ hands back a term's fields, so pickle recurses once per level; "
    "pickling the text instead loses the shared structure",
)
def test_pickling_a_deep_term():
    e = parse("ab" * 1000)
    assert pickle.loads(pickle.dumps(e)) is e


class TestInternTable:
    def test_a_late_callback_leaves_the_live_entry(self):
        # A term dies and its structure is interned again before the dead
        # reference's callback runs: the callback must not remove the new,
        # live entry.
        live = Concat(Star(Sym("x")), Sym("y"))
        key = (Concat, id(live.left), id(live.right))
        dropped = Star(Concat(Sym("y"), Sym("x")))
        stale = _Ref(dropped, None)
        stale.key = key
        del dropped
        gc.collect()
        assert stale() is None
        _drop(stale)
        assert _INTERNED[key]() is live
        # Under a key that holds the dead reference, the entry goes.
        _INTERNED[("stale",)] = stale
        stale.key = ("stale",)
        _drop(stale)
        assert ("stale",) not in _INTERNED

    def test_a_dead_reference_under_the_key_is_replaced(self):
        # A term died and its reference's callback has not run yet when the
        # same structure is built again: the new term takes the entry.
        x, z = Star(Sym("x")), Sym("z")
        key = (Concat, id(x), id(z))
        assert key not in _INTERNED
        dropped = Star(Concat(Sym("z"), Sym("x")))
        parked = _Ref(dropped, None)
        parked.key = key
        del dropped
        gc.collect()
        assert parked() is None
        _INTERNED[key] = parked
        t = Concat(x, z)
        assert (t.left, t.right) == (x, z)
        assert _INTERNED[key]() is t
        # The parked reference's callback, run late, leaves the live entry.
        _drop(parked)
        assert _INTERNED[key]() is t

    def test_a_dead_reference_under_a_star_key_is_replaced(self):
        # The same through the constructor of stars, whose key holds one id.
        inner = Concat(Sym("z"), Star(Sym("y")))
        key = (Star, id(inner))
        assert key not in _INTERNED
        parked = _Ref(Concat(Sym("y"), Sym("z")), None)
        parked.key = key
        gc.collect()
        assert parked() is None
        _INTERNED[key] = parked
        t = Star(inner)
        assert t.inner is inner and _INTERNED[key]() is t

    def test_a_node_that_loses_the_race_to_publish_gets_the_live_term(self):
        live = Concat(Sym("x"), Star(Sym("z")))
        key = (Concat, id(live.left), id(live.right))
        twin = object.__new__(Concat)
        assert _publish(twin, key, live._key, live._nullable) is live
        del twin
        gc.collect()
        assert _INTERNED[key]() is live

    def test_the_table_holds_no_term(self):
        t = Star(Concat(Sym("x"), Sym("z")))
        key = (Star, id(t.inner))
        probe = weakref.ref(t)
        assert type(_INTERNED[key]) is _Ref and _INTERNED[key]() is t
        del t
        gc.collect()
        assert probe() is None
        assert key not in _INTERNED


def fresh_letters(k):
    # k letters whose symbols are not live, so building one builds a node.
    gc.collect()
    free = sorted(ch for ch in LETTERS if (ref := _INTERNED.get((Sym, ch))) is None or ref() is None)
    assert len(free) >= k
    return free[:k]


class TestDerivativeTables:
    # Every node is born with its own empty derivative table, and keeps
    # that dict for life: only syntax sets the slot, once, in _publish.

    def test_zero_and_one_are_born_with_empty_tables(self):
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(here.parent / "src"))
        code = "from derivrex import EMPTY, EPSILON; print(EMPTY._derivs, EPSILON._derivs)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.split() == ["{}", "{}"]

    def test_new_nodes_are_born_with_empty_tables(self):
        p, q, r, s = fresh_letters(4)
        sym = Sym(p)
        assert sym._derivs == {}
        assert Star(sym)._derivs == {}
        raw = parse(f"{q}+{q}")  # a parsed binary node, not canonical
        assert type(raw) is Union and raw._derivs == {}
        assert canonicalize(raw) is Sym(q) and Sym(q)._derivs == {}
        chain = union(Sym(q), Sym(r), Sym(s))
        assert chain._derivs == {} and chain.left._derivs == {}
        under = union(chain, sym)  # put under the chain: its prefixes keep it
        assert under._derivs == {} and chain._derivs == {sym: under}

    def test_a_node_keeps_its_table_object(self):
        e = canonicalize(nth_from_last(3))
        nodes = _reachable(e)
        tables = [x._derivs for x in nodes]
        assert nullable(deriv_word("abba", e))
        assert e._derivs and e._derivs is tables[0]
        assert len(build_dfa(e, "ab").states) == 16
        c, d, f = fresh_letters(3)
        chain = union(Sym(d), Sym(f), e)
        held = [(chain, chain._derivs), (chain.left, chain.left._derivs)]
        low = Sym(c)
        assert union(chain, low) is union(chain, low)
        assert low in chain._derivs and low in chain.left._derivs
        assert all(x._derivs is t for x, t in zip(nodes, tables))
        assert all(x._derivs is t for x, t in held)

    def test_derivative_sets_no_slot(self):
        assert not [name for name in vars(derivative) if name.startswith("_set_")]


def _reachable(e):
    # e and its subterms, e first, each once.
    seen, stack = {}, [e]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen[x] = None
            stack += [getattr(x, f) for f in x.__match_args__ if f != "ch"]
    return list(seen)


# Whether l r is nullable, for l and r each one of 0, 1, a and a*, in that
# order: one string per l, one digit per r.
NULLABLE = {
    Concat: ["0000", "0101", "0000", "0101"],
    Intersect: ["0000", "0101", "0000", "0101"],
    Diff: ["0000", "1010", "0000", "1010"],
    Union: ["0101", "1111", "0101", "1111"],
}


@pytest.mark.parametrize("cls", list(NULLABLE), ids=lambda cls: cls.__name__)
def test_nullability_of_the_binary_classes(cls):
    operands = [EMPTY, EPSILON, A, Star(A)]
    for l, row in zip(operands, NULLABLE[cls]):
        for r, digit in zip(operands, row):
            t = cls(l, r)
            assert nullable(t) is (digit == "1")
            assert nullable(t) is ("" in enumerate_lang(t, 0).words)


def test_term_order_agrees_with_structural_key(corpus):
    terms = list(corpus) + [canonicalize(e) for e in corpus]
    keys = [helpers.term_key(t) for t in terms]
    for a, ka in zip(terms, keys):
        for b, kb in zip(terms, keys):
            assert helpers.term_order(a, b) == (ka > kb) - (ka < kb)


def test_tall_key_comparison_agrees_with_structural_key(corpus):
    # _merge runs again on _TallKey when sort keys are too tall to compare.
    terms = list(corpus) + [canonicalize(e) for e in corpus]
    keys = [helpers.term_key(t) for t in terms]
    talls = [_TallKey(t) for t in terms]
    for ta, ka in zip(talls, keys):
        for tb, kb in zip(talls, keys):
            assert (tb < ta) - (ta < tb) == (ka > kb) - (ka < kb)


def test_dropped_automata_release_their_terms():
    # Derivative tables hang off the terms, and a star's derivative holds
    # the star, so this also checks that the cycles are collectable.
    gc.collect()
    before = len(_INTERNED)
    for n in (9, 10, 11):
        d = build_dfa(nth_from_last(n), "ab")
        to_json(d)
        to_dot(d)
    assert len(_INTERNED) > before + 2**12
    del d
    gc.collect()
    assert len(_INTERNED) == before


def test_matching_keeps_no_state_once_the_terms_go():
    # The lazy DFA that matches walks is the terms' own derivative tables.
    gc.collect()
    before = len(_INTERNED)
    rng = random.Random(5)
    e = nth_from_last(8)
    for _ in range(3):
        matches(e, "".join(rng.choices("ab", k=20_000)))
    assert len(_INTERNED) > before + 2**8
    del e
    gc.collect()
    assert len(_INTERNED) == before


EXPORT_DIGEST = """
import hashlib
import helpers
from derivrex import build_dfa, parse, to_dot, to_json
terms = [parse("(a+b)*a" + "(a+b)" * 6)] + helpers.full_corpus()
h = hashlib.sha256()
for e in terms:
    d = build_dfa(e, "abc")
    h.update(to_json(d).encode())
    h.update(to_dot(d).encode())
print(h.hexdigest())
"""

# The digest of the same exports from the letter-by-letter
# reference_build_dfa and the reference writers; the bytes must not depend
# on how terms are stored.  It was re-recorded when concat stopped
# reassociating products and diff began to absorb a 0 on its left.
GOLDEN_DIGEST = "90cf9598dc5f7df00b34c1275364d6858a62dd3fa2aa258782d69b9ebbade657"


def test_exports_do_not_depend_on_hash_seed():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", EXPORT_DIGEST],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(done.stdout.strip())
    assert digests == {GOLDEN_DIGEST}
