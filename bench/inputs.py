"""Seeded inputs of the benchmark workloads.

Every input is a pure function of the run's seed and an op or round
index, so a worker process rebuilds exactly the inputs the parent expects
without receiving them over a pipe.  Nothing here imports derivrex: the
inputs are expression texts and words, as a user would type them.

Unions are written with their operands in a seeded order, for example
``(b+a)`` or ``(a+b)``.  Canonicalization sorts union operands, so the
seed changes what ``parse`` and ``canonicalize`` see but not the size of
the closure the engine explores; that keeps ops of one workload at one
cost whatever the seed.
"""

from __future__ import annotations

import random
import string

SIGMA = string.ascii_lowercase

# Sizes of the timed runs and of the quick mode (`run.py --quick`).  The
# full sizes are chosen so that the ops of one workload cost about the
# same; README.md gives the measurements behind each choice.
FULL = {
    "dfa_n": 9,  # (a+b)*a(a+b)^9: 1,024 states
    "match_len": 30_000,  # symbols per match-long word
    "match_words": 3,  # words per pattern in one match-long batch
    "equal_n": 3,  # Σ*aΣ^3 vs (Σ-a)*a(Σ*a)*Σ^3
    "unequal_n": 5,  # Σ*aΣ^5 vs Σ*aΣ^5 + z^4
    "unequal_k": 4,
    "sigma": SIGMA,
}
QUICK = {
    "dfa_n": 3,
    "match_len": 400,
    "match_words": 2,
    "equal_n": 1,
    "unequal_n": 2,
    "unequal_k": 2,
    "sigma": "abcz",
}

# How many seeded words the benchmark runs through each exported automaton.
CHECK_WORDS = 200

# The one literal the CLI cannot handle today: it must match itself.
LONG_LITERAL = "a" * 400


def rng_for(*key) -> random.Random:
    """A generator seeded from a tuple of plain values.

    Seeding with a string goes through SHA-512, so the stream does not
    depend on the process's hash randomization.
    """
    return random.Random(":".join(map(str, key)))


def union_text(symbols: str, rng: random.Random) -> str:
    """``(a+b+...)`` over *symbols*, operands in seeded order."""
    ops = list(symbols)
    rng.shuffle(ops)
    return "(" + "+".join(ops) + ")"


def nth_text(n: int, rng: random.Random, symbols: str = "ab") -> str:
    """``Σ*aΣ^n``: the (n+1)-th symbol from the end is ``a``."""
    return union_text(symbols, rng) + "*a" + "".join(union_text(symbols, rng) for _ in range(n))


def nth_from_last(n: int):
    """Closed-form membership in ``Σ*aΣ^n``."""
    return lambda w: len(w) > n and w[-n - 1] == "a"


def random_words(rng: random.Random, count: int, max_len: int) -> list[str]:
    return ["".join(rng.choices("ab", k=rng.randint(0, max_len))) for _ in range(count)]


# ---------------------------------------------------------------------------
# dfa-nth


def dfa_text(seed: int, index: int, sizes: dict) -> str:
    return nth_text(sizes["dfa_n"], rng_for("dfa-nth", seed, index))


def dfa_check_words(seed: int, index: int, n: int) -> list[str]:
    return random_words(rng_for("dfa-words", seed, index), CHECK_WORDS, 3 * n + 3)


# ---------------------------------------------------------------------------
# match-long
#
# Three fixed patterns over ab, each with a closed-form predicate and a
# word generator that gives both verdicts.  At 30,000 symbols each
# `matches` call takes about the same time on all three.


def _uniform_words(rng: random.Random, length: int) -> str:
    return "".join(rng.choices("ab", k=length))


def _no_bb_words(rng: random.Random, length: int) -> str:
    # Tokens a and ba never make bb.  Half the words get one bb near the
    # end, which the difference must then reject.
    w = "".join(rng.choices(("a", "ba"), k=length))[:length]
    if rng.random() < 0.5:
        pos = rng.randrange(max(0, length - 64), length - 1)
        w = w[:pos] + "bb" + w[pos + 2 :]
    return w


def match_patterns(seed: int, worker: int):
    """(name, expression text, predicate, word generator) per pattern."""
    rng = rng_for("match-long", seed, worker)
    u = lambda: union_text("ab", rng)  # noqa: E731
    nth6, nth4 = nth_from_last(6), nth_from_last(4)
    return [
        ("nth", nth_text(6, rng), nth6, _uniform_words),
        (
            "diff",
            nth_text(4, rng) + " - " + u() + "*bb" + u() + "*",
            lambda w: nth4(w) and "bb" not in w,
            _no_bb_words,
        ),
        (
            "inter",
            nth_text(4, rng) + " & " + u() + "*b" + u() + u(),
            lambda w: nth4(w) and len(w) > 2 and w[-3] == "b",
            _uniform_words,
        ),
    ]


def match_batch(seed: int, worker: int, sizes: dict):
    """The fixed-order batch of one match-long worker: (pattern, word) pairs,
    each pattern's words in a row, so the first word of each is cold."""
    rng = rng_for("match-words", seed, worker)
    batch = []
    for name, text, pred, gen in match_patterns(seed, worker):
        for _ in range(sizes["match_words"]):
            batch.append((name, text, pred, gen(rng, sizes["match_len"])))
    return batch


# ---------------------------------------------------------------------------
# equiv-wide
#
# Equal:   Σ*aΣ^n  vs  (Σ-a)*a(Σ*a)*Σ^n.  The right side is "any word
#          ending in a" followed by n symbols, which is the left side.
# Unequal: Σ*aΣ^n  vs  Σ*aΣ^n + z^k.  z^k is not in the left side (it is
#          too short, or its (n+1)-th symbol from the end is z), so it is
#          the only word on which the two differ.


def equiv_pair(kind: str, seed: int, index: int, sizes: dict):
    """(left text, right text, left predicate, right predicate, counterexample)."""
    sigma = sizes["sigma"]
    rng = rng_for("equiv-wide", seed, index)
    s = lambda: union_text(sigma, rng)  # noqa: E731
    z = sigma[-1]
    if kind == "equal":
        n = sizes["equal_n"]
        left = nth_text(n, rng, sigma)
        right = f"({s()}-a)*a({s()}*a)*" + "".join(s() for _ in range(n))
        pred = nth_from_last(n)
        return left, right, pred, pred, None
    n, k = sizes["unequal_n"], sizes["unequal_k"]
    left = nth_text(n, rng, sigma)
    right = nth_text(n, rng, sigma) + "+" + z * k
    pred = nth_from_last(n)
    return left, right, pred, lambda w: pred(w) or w == z * k, z * k


# ---------------------------------------------------------------------------
# cli-oneshot


def cli_round(seed: int, r: int, sizes: dict) -> list[dict]:
    """One round of CLI commands.  Each dict holds the argv and what the
    check needs to know about the input; it never holds expected output."""
    rng = rng_for("cli-oneshot", seed, r)
    u = lambda: union_text("ab", rng)  # noqa: E731
    eq_sizes = {"sigma": "abc", "equal_n": 1, "unequal_n": 2, "unequal_k": 3}
    eq_left, eq_right, *_ = equiv_pair("equal", seed, 2 * r, eq_sizes)
    ne_left, ne_right, ne_lp, ne_rp, ne_cx = equiv_pair("unequal", seed, 2 * r + 1, eq_sizes)
    derive_word = "".join(rng.choices("ab", k=3))
    match_word = "".join(rng.choices("ab", k=12))
    enum_text = nth_text(1, rng) + " - " + u() + "*bb" + u() + "*"
    return [
        {"command": "derive", "argv": ["derive", nth_text(2, rng), derive_word],
         "pred": nth_from_last(2), "word": derive_word},
        {"command": "match", "argv": ["match", nth_text(3, rng), match_word],
         "pred": nth_from_last(3), "word": match_word},
        {"command": "dfa", "argv": ["dfa", nth_text(3, rng), "--format", "json"],
         "pred": nth_from_last(3), "states": 2 ** 4, "words": random_words(rng, 50, 10)},
        {"command": "equiv", "argv": ["equiv", eq_left, eq_right], "counterexample": None},
        {"command": "equiv", "argv": ["equiv", ne_left, ne_right], "counterexample": ne_cx,
         "preds": (ne_lp, ne_rp)},
        {"command": "enum", "argv": ["enum", enum_text, "--bound", "6"],
         "expr": enum_text, "bound": 6,
         "pred": lambda w: nth_from_last(1)(w) and "bb" not in w},
        {"command": "check-identities", "argv": ["check-identities"]},
        {"command": "match", "argv": ["match", LONG_LITERAL, LONG_LITERAL],
         "pred": lambda w: w == LONG_LITERAL, "word": LONG_LITERAL},
    ]
