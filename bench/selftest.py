"""Self-test of the benchmark's checks, by brute force over short words.

    PYTHONPATH=src python3 bench/selftest.py

Each predicate the benchmark trusts is compared, on every word up to a
length bound, with the language slice that ``derivrex.enumerate_lang``
computes by enumeration (it never takes a derivative), and with the
other predicates for the same input.  The checks must also reject
outputs that are wrong on purpose.  Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import sys

from derivrex import build_dfa, enumerate_lang, parse, to_dot, to_json

import checks
import inputs

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)


def slice_of(text: str, k: int) -> frozenset[str]:
    return enumerate_lang(parse(text), k).words


def agree(text: str, pred, symbols: str, k: int) -> None:
    """*pred* and the re translation of *text* equal the enumerated slice."""
    words = slice_of(text, k)
    re_pred = checks.re_predicate(text)
    for w in checks.words_upto(symbols, k):
        expect(pred(w) == (w in words), f"closed form of {text!r} on {w!r}")
        expect(re_pred(w) == (w in words), f"re translation of {text!r} on {w!r}")


def test_predicates() -> None:
    rng = inputs.rng_for("selftest")
    for n in range(5):
        agree(inputs.nth_text(n, rng), inputs.nth_from_last(n), "ab", 8)
    for _, text, pred, _ in inputs.match_patterns(1, 0):
        agree(text, pred, "ab", 9)
    for cmd in inputs.cli_round(1, 0, inputs.FULL):
        if cmd["command"] in ("derive", "match", "dfa") and cmd["argv"][1] != inputs.LONG_LITERAL:
            agree(cmd["argv"][1], cmd["pred"], "ab", 8)
        if cmd["command"] == "enum":
            agree(cmd["expr"], cmd["pred"], "ab", cmd["bound"])
    try:
        checks.re_predicate("(a&b)*")
        expect(False, "re translation accepted a nested &")
    except ValueError:
        pass


def test_equiv_constructions() -> None:
    # Over a small alphabet, so that every short word can be listed.
    for index, kind in enumerate(("equal", "unequal", "equal", "unequal")):
        sizes = {"sigma": "abz", "equal_n": index // 2 + 1, "unequal_n": index // 2 + 2,
                 "unequal_k": 2 + index // 2}
        left, right, lp, rp, cx = inputs.equiv_pair(kind, 1, index, sizes)
        k = 6
        ls, rs = slice_of(left, k), slice_of(right, k)
        for w in checks.words_upto("abz", k):
            expect(lp(w) == (w in ls), f"left predicate of {left!r} on {w!r}")
            expect(rp(w) == (w in rs), f"right predicate of {right!r} on {w!r}")
        expect(ls ^ rs == (set() if cx is None else {cx}), f"{kind} pair {index} differs elsewhere")
        expect(checks.check_verdict(cx is None, cx, lp, rp, cx) is None, "right verdict refused")
        if cx is not None:
            expect(checks.check_verdict(True, None, lp, rp, cx) is not None, "equal accepted")
            expect(checks.check_verdict(False, "a" + cx, lp, rp, cx) is not None,
                   "non-separating counterexample accepted")
        else:
            expect(checks.check_verdict(False, "a", lp, rp, cx) is not None, "unequal accepted")


def test_automaton_checks() -> None:
    n = 3
    pred = inputs.nth_from_last(n)
    d = build_dfa(parse(inputs.nth_text(n, inputs.rng_for("selftest-dfa"))), "ab")
    js, dot = to_json(d), to_dot(d)
    words = list(checks.words_upto("ab", 9))
    expect(checks.check_dfa_json(js, 2 ** (n + 1), pred, words) is None, "right JSON refused")
    expect(checks.check_dot(dot, checks.read_dfa_json(js)) is None, "right dot refused")
    doc = json.loads(js)
    doc["accepting"] = doc["accepting"][1:]
    wrong = json.dumps(doc)
    expect(checks.check_dfa_json(wrong, 2 ** (n + 1), pred, words) is not None,
           "JSON with a missing accepting state accepted")
    expect(checks.check_dfa_json(js, 2 ** n, pred, words) is not None, "wrong state count accepted")
    expect(checks.check_dot(dot.replace('label="a"', 'label="b"', 1),
                            checks.read_dfa_json(js)) is not None, "wrong dot accepted")


def test_cli_checks() -> None:
    good = "identity 01: (1+a)* = a* ... pass\nnote: a(aa) = (aa)a ... equal (x)\n" \
           'non-identity 1: (ab)* vs a*b* ... unequal as expected (counterexample "a")\n' \
           "check-identities: 3/3 checks passed\n"
    expect(checks.check_identities(good) is None, "right identity lines refused")
    for bad in (
        good.replace("(1+a)*", "(1+b)*"),  # a false identity
        good.replace('"a"', '"ab"'),  # a counterexample that is not shortest
        good.replace("3/3", "2/3"),
    ):
        expect(checks.check_identities(bad) is not None, f"wrong identity output accepted: {bad!r}")
    cmd = {"command": "derive", "pred": inputs.nth_from_last(1), "word": "a"}
    expect(checks.check_cli(cmd, "(a+b)*a(a+b)+(a+b)\nnullable=false\n", 0) is None,
           "right derivative refused")
    expect(checks.check_cli(cmd, "(a+b)*a(a+b)+a\nnullable=false\n", 0) is not None,
           "wrong derivative accepted")


def main() -> int:
    for test in (test_predicates, test_equiv_constructions, test_automaton_checks, test_cli_checks):
        before = len(FAILURES)
        test()
        print(f"selftest {test.__name__}: {'ok' if len(FAILURES) == before else 'FAILED'}")
    for f in FAILURES[:20]:
        print(f"  {f}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
