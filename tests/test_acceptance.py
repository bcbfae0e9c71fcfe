"""End-to-end acceptance checks.

Each test here is one acceptance criterion and prints a single summary line
on success (visible under ``pytest -s``); the pytest verdict itself is the
pass/fail record.  Criteria:

1. the worked symbol derivatives and the dead-end word illustration render
   exactly as expected, in under a second;
2. membership agrees three ways (derivatives, DFA runs, brute-force
   enumeration) over the whole corpus and every word of length at most 6;
3. word derivatives of unions, products, and stars agree with their
   closed-form expansions;
4. derivatives mirror left quotients of enumerated languages;
5. the identity suite holds: equalities verified, non-identities refuted
   with shortest counterexamples, starred-word laws checked, and the CLI
   checker exits 0;
6. derivatives of word literals behave exhaustively as expected for all
   words up to length 4;
7. canonicalization is language-preserving and idempotent;
8. DFA construction and both export formats are byte-deterministic, and the
   running example compiles to exactly 3 states with 1 accepting.
"""

import time

import helpers
from helpers import word_regex
from derivrex import (
    EMPTY,
    EPSILON,
    build_dfa,
    canonicalize,
    concat,
    deriv_sym,
    deriv_word,
    dfa_accepts,
    enumerate_lang,
    equivalent,
    matches,
    parse,
    quotient,
    render,
    star,
    union,
)
from derivrex.cli import IDENTITIES, NON_IDENTITIES, main

AB = ("a", "b")

WORKED_DERIVATIVES = [
    ("a(a+b)*", "a", "(a+b)*"),
    ("a(a+b)*", "b", "0"),
    ("ab(a+b)*", "a", "b(a+b)*"),
    ("ab(a+b)*", "b", "0"),
    ("(a+b)*a", "a", "(a+b)*a+1"),
    ("(a+b)*a", "b", "(a+b)*a"),
]


def test_criterion_1_golden_derivatives():
    started = time.perf_counter()
    for expr, sym, expected in WORKED_DERIVATIVES:
        assert render(deriv_sym(sym, parse(expr))) == expected
    assert render(deriv_word("aba", parse("(a+b)ab"))) == "0"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"acceptance 1: golden derivatives reproduce exactly ({elapsed:.3f}s) PASS")


def test_criterion_2_membership_agrees_three_ways(corpus):
    words = helpers.words_upto(6)
    assert len(corpus) >= 30
    assert len(words) == 127
    started = time.perf_counter()
    for e in corpus:
        d = build_dfa(e, AB)
        language = enumerate_lang(e, 6).words
        for w in words:
            expected = w in language
            assert matches(e, w) == expected
            assert dfa_accepts(d, w) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"acceptance 2: {len(corpus)} expressions x {len(words)} words, "
        f"derivatives = DFA = oracle ({elapsed:.1f}s) PASS"
    )


def test_criterion_3_expansions_agree(corpus):
    words = [w for w in helpers.words_upto(4) if w]
    checked = 0
    for i, e in enumerate(corpus):
        f = corpus[(i + 7) % len(corpus)]
        for w in words:
            by_sum = union(deriv_word(w, e), deriv_word(w, f))
            assert helpers.lang_equal_upto(deriv_word(w, union(e, f)), by_sum, 6)
            assert helpers.lang_equal_upto(
                deriv_word(w, concat(e, f)), helpers.concat_expansion(w, e, f), 6
            )
            assert helpers.lang_equal_upto(deriv_word(w, star(e)), helpers.star_expansion(w, e), 6)
            checked += 3
    print(f"acceptance 3: union/product/star expansions agree ({checked} checks) PASS")


def test_criterion_4_quotient_law(corpus):
    for e in corpus:
        for a in AB:
            for k in range(6):
                direct = enumerate_lang(deriv_sym(a, e), k).words
                assert direct == quotient(enumerate_lang(e, k + 1), a).words
    print("acceptance 4: derivative languages are left quotients (k <= 5) PASS")


def test_criterion_5_identity_suite(capsys):
    for chain in IDENTITIES:
        alpha = _chain_alphabet(chain)
        for lhs, rhs in zip(chain, chain[1:]):
            verdict = equivalent(parse(lhs, alpha), parse(rhs, alpha), alpha)
            assert verdict.equal, (lhs, rhs, verdict.counterexample)

    for lhs, rhs in NON_IDENTITIES:
        alpha = _chain_alphabet((lhs, rhs))
        verdict = equivalent(parse(lhs, alpha), parse(rhs, alpha), alpha)
        assert not verdict.equal
        shortest = _shortest_separator(parse(lhs, alpha), parse(rhs, alpha))
        assert len(verdict.counterexample) == len(shortest)

    for w in ("b", "ba", "bab"):
        got = deriv_sym("a", parse(f"(a{w})*"))
        assert equivalent(got, parse(f"{w}(a{w})*"), AB).equal

    for e_text in ("b", "a+b", "b*"):
        got = deriv_sym("a", parse(f"(a({e_text}))*"))
        assert equivalent(got, parse(f"({e_text})(a({e_text}))*"), AB).equal

    assert main(["check-identities"]) == 0
    capsys.readouterr()
    print("acceptance 5: identity suite verified, CLI checker exits 0 PASS")


def test_criterion_6_word_literal_laws():
    words = helpers.words_upto(4)
    for w in words:
        assert deriv_word(w, word_regex(w)) == EPSILON
    for w in words:
        for v in words:
            if len(w) > len(v):
                assert deriv_word(w, word_regex(v)) == EMPTY
            if w and v and w[0] != v[0]:
                assert deriv_word(w, word_regex(v)) == EMPTY
            assert deriv_word(w, word_regex(w + v)) == word_regex(v)
    print("acceptance 6: word-literal derivative laws hold exhaustively PASS")


def test_criterion_7_canonicalization(corpus):
    for e in corpus:
        c = canonicalize(e)
        assert helpers.lang_equal_upto(e, c, 6)
        assert canonicalize(c) == c
    print("acceptance 7: canonicalization is sound and idempotent PASS")


def test_criterion_8_determinism(capsys):
    def render_dfa(fmt):
        assert main(["dfa", "a(a+b)*", "--format", fmt]) == 0
        return capsys.readouterr().out

    for fmt in ("dot", "json"):
        assert render_dfa(fmt) == render_dfa(fmt)

    d = build_dfa(parse("a(a+b)*"), AB)
    assert len(d.states) == 3
    assert len(d.accepting) == 1
    print("acceptance 8: exports byte-deterministic, 3-state machine PASS")


def _chain_alphabet(chain):
    found = set()
    for text in chain:
        found |= helpers.letters(parse(text))
    return tuple(sorted(found))


def _shortest_separator(e, f):
    diff = enumerate_lang(e, 6).words ^ enumerate_lang(f, 6).words
    assert diff
    return min(diff, key=lambda w: (len(w), w))
