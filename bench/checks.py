"""Correctness checks that do not use the derivative engine.

Three independent semantics back the benchmark's verdicts:

* closed-form predicates built with the inputs (see inputs.py), such as
  ``len(w) > n and w[-n-1] == "a"`` for ``(a+b)*a(a+b)^n``;
* ``re_predicate``, a translation of the ``0 1 + · *`` fragment to the
  standard library's ``re``, with ``&`` and ``-`` allowed at the top level;
* ``read_dfa_json`` and ``run_dfa``, the benchmark's own simulation of an
  exported automaton.

Each check returns ``None`` when the output is right and a one-line
description of the first problem otherwise.  selftest.py tests these
functions against brute force over all short words.
"""

from __future__ import annotations

import itertools
import json
import re

_RE_TOKENS = {"0": "(?!)", "1": "(?:)", "(": "(?:", ")": ")", "+": "|", "*": "*"}


def words_upto(symbols: str, k: int):
    """Every word over *symbols* of length at most *k*, shortest first."""
    for n in range(k + 1):
        for t in itertools.product(symbols, repeat=n):
            yield "".join(t)


def _split_top(text: str, op: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == op and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _compile_fragment(text: str) -> re.Pattern:
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(ch)
        elif ch in _RE_TOKENS:
            out.append(_RE_TOKENS[ch])
        else:
            raise ValueError(f"{ch!r} is outside the re fragment in {text!r}")
    return re.compile("".join(out))


def re_predicate(text: str):
    """Membership in the language of *text*, decided by ``re.fullmatch``.

    The grammar's precedence is ``+`` < ``-`` < ``&`` < juxtaposition, so
    splitting at depth 0 on ``+``, then ``-``, then ``&`` leaves pieces
    that translate token by token: ``0`` to ``(?!)``, ``1`` to ``(?:)``
    and ``+`` to ``|``.  A nested ``&`` or ``-`` raises ValueError.
    """
    text = "".join(text.split())
    unions = [
        [[_compile_fragment(c) for c in _split_top(d, "&")] for d in _split_top(u, "-")]
        for u in _split_top(text, "+")
    ]

    def inter(parts, w):
        return all(p.fullmatch(w) for p in parts)

    def member(w: str) -> bool:
        return any(
            inter(d[0], w) and not any(inter(x, w) for x in d[1:]) for d in unions
        )

    return member


# ---------------------------------------------------------------------------
# Exported automata


def read_dfa_json(text: str):
    """(alphabet, start, accepting, table) from a ``dfa --format json``
    document, with ``table[i][a]`` the target of state *i* on symbol *a*.
    Raises ValueError if the document is not a total automaton."""
    doc = json.loads(text)
    alphabet = doc["alphabet"]
    count = len(doc["states"])
    table = [dict() for _ in range(count)]
    for t in doc["transitions"]:
        i, a, j = t["from"], t["symbol"], t["to"]
        if not (0 <= i < count and 0 <= j < count and a in alphabet) or a in table[i]:
            raise ValueError(f"bad transition {t}")
        table[i][a] = j
    if any(len(row) != len(alphabet) for row in table):
        raise ValueError("automaton is not total")
    if not 0 <= doc["start"] < count:
        raise ValueError("start state out of range")
    return alphabet, doc["start"], frozenset(doc["accepting"]), table


def run_dfa(dfa, w: str) -> bool:
    _, state, accepting, table = dfa
    for ch in w:
        state = table[state][ch]
    return state in accepting


def check_dfa_json(text: str, states: int, pred, words) -> str | None:
    """The export has *states* states and accepts exactly the *words*
    that satisfy *pred*."""
    try:
        dfa = read_dfa_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable JSON automaton: {exc}"
    if len(dfa[3]) != states:
        return f"{len(dfa[3])} states, expected {states}"
    for w in words:
        if run_dfa(dfa, w) != pred(w):
            return f"exported automaton is wrong on {w!r}"
    return None


_DOT_NODE = re.compile(r'  s(\d+) \[shape=(circle|doublecircle),label="[^"]*"\];')
_DOT_EDGE = re.compile(r'  s(\d+) -> s(\d+) \[label="([a-z])"\];')


def check_dot(text: str, dfa) -> str | None:
    """The dot export draws the same automaton as the JSON one."""
    _, start, accepting, table = dfa
    nodes, edges = {}, {}
    for line in text.splitlines():
        if m := _DOT_NODE.fullmatch(line):
            nodes[int(m[1])] = m[2] == "doublecircle"
        elif m := _DOT_EDGE.fullmatch(line):
            edges[(int(m[1]), m[3])] = int(m[2])
    if f"  __start -> s{start};" not in text.splitlines():
        return "dot export marks the wrong start state"
    if nodes != {i: i in accepting for i in range(len(table))}:
        return "dot export has the wrong states"
    if edges != {(i, a): j for i, row in enumerate(table) for a, j in row.items()}:
        return "dot export has the wrong transitions"
    return None


# ---------------------------------------------------------------------------
# Equivalence verdicts


def check_verdict(equal: bool, counterexample, lpred, rpred, expected) -> str | None:
    """*expected* is None for a pair built equal, else the known shortest
    distinguishing word."""
    if expected is None:
        return None if equal else f"equal pair reported unequal ({counterexample!r})"
    if equal:
        return "unequal pair reported equal"
    if lpred(counterexample) == rpred(counterexample):
        return f"counterexample {counterexample!r} is in both or neither language"
    if len(counterexample) != len(expected):
        return f"counterexample {counterexample!r} is not of length {len(expected)}"
    return None


# ---------------------------------------------------------------------------
# CLI output

_IDENTITY = re.compile(r"identity \d+: (.+) \.\.\. pass")
_NON_IDENTITY = re.compile(
    r'non-identity \d+: (.+) vs (.+) \.\.\. unequal as expected \(counterexample "([a-z]*)"\)'
)
_NOTE = re.compile(r"note: (.+) = (.+) \.\.\. equal \(.*\)")
_SUMMARY = re.compile(r"check-identities: (\d+)/(\d+) checks passed")

# Identity lines are checked on every word up to this length.
IDENTITY_BOUND = 6


def _letters(texts) -> str:
    return "".join(sorted({ch for t in texts for ch in t if "a" <= ch <= "z"})) or "a"


def _agree(texts, bound: int) -> str | None:
    preds = [re_predicate(t) for t in texts]
    for w in words_upto(_letters(texts), bound):
        if len({p(w) for p in preds}) > 1:
            return w
    return None


def check_identities(stdout: str) -> str | None:
    """Every line of ``check-identities`` is checked by brute force: the
    expressions of an identity agree on all short words, a non-identity's
    counterexample separates its pair and no shorter word does."""
    lines = stdout.splitlines()
    if not lines or not (m := _SUMMARY.fullmatch(lines[-1])):
        return "no summary line"
    if m[1] != m[2] or int(m[2]) != len(lines) - 1:
        return f"summary {lines[-1]!r} does not count {len(lines) - 1} passing lines"
    for line in lines[:-1]:
        if m := _IDENTITY.fullmatch(line):
            if (w := _agree(m[1].split(" = "), IDENTITY_BOUND)) is not None:
                return f"{line!r} is false on {w!r}"
        elif m := _NON_IDENTITY.fullmatch(line):
            lp, rp, cx = re_predicate(m[1]), re_predicate(m[2]), m[3]
            if lp(cx) == rp(cx):
                return f"{line!r}: the counterexample does not separate the pair"
            if (w := _agree([m[1], m[2]], len(cx) - 1)) is not None:
                return f"{line!r}: {w!r} is a shorter counterexample"
        elif m := _NOTE.fullmatch(line):
            if (w := _agree([m[1], m[2]], IDENTITY_BOUND)) is not None:
                return f"{line!r} is false on {w!r}"
        else:
            return f"unexpected line {line!r}"
    return None


def check_cli(cmd: dict, stdout: str, code: int) -> str | None:
    """Check one CLI command's stdout and exit code (0 yes, 1 no)."""
    name, lines = cmd["command"], stdout.splitlines()
    if name in ("derive", "match"):
        pred, word = cmd["pred"], cmd["word"]
        if name == "match":
            want = pred(word)
            if lines != ["true" if want else "false"] or code != (0 if want else 1):
                return f"match printed {stdout!r} with exit {code}"
            return None
        if code != 0 or len(lines) != 2:
            return f"derive printed {stdout!r} with exit {code}"
        if lines[1] != f"nullable={'true' if pred(word) else 'false'}":
            return f"derive reported {lines[1]!r} for {word!r}"
        quotient = re_predicate(lines[0])
        for v in words_upto("ab", 5):
            if quotient(v) != pred(word + v):
                return f"derivative {lines[0]!r} is wrong on {v!r}"
        return None
    if name == "dfa":
        if code != 0:
            return f"dfa exited {code}"
        return check_dfa_json(stdout, cmd["states"], cmd["pred"], cmd["words"])
    if name == "equiv":
        expected = cmd["counterexample"]
        if expected is None:
            return None if (lines, code) == (["equal"], 0) else f"equiv printed {stdout!r}"
        if code != 1 or len(lines) != 1 or not lines[0].startswith("unequal "):
            return f"equiv printed {stdout!r} with exit {code}"
        return check_verdict(False, lines[0][len("unequal "):], *cmd["preds"], expected)
    if name == "enum":
        if code != 0:
            return f"enum exited {code}"
        re_pred = re_predicate(cmd["expr"])
        words = []
        for w in words_upto("ab", cmd["bound"]):
            if cmd["pred"](w) != re_pred(w):
                return f"closed form and re translation disagree on {w!r}"
            if re_pred(w):
                words.append(w)
        if stdout != "".join(w + "\n" for w in sorted(words)):
            return "enum listed the wrong words"
        return None
    if name == "check-identities":
        return check_identities(stdout) if code == 0 else f"check-identities exited {code}"
    raise ValueError(f"no check for command {name!r}")
