"""Brute-force language semantics, independent of the derivative engine.

A term's language is materialized as the exact set of its words up to a
length bound.  Nothing here consults nullability or derivatives, so these
slices serve as a second opinion when testing the engine proper.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EnumerationBudgetError, QuotientBoundError
from .syntax import (
    Concat,
    Diff,
    Empty,
    Epsilon,
    Intersect,
    Regex,
    Star,
    Sym,
    Union,
    _bottom_up,
    require_symbol,
)

DEFAULT_CAP = 1_000_000


class LangSample(NamedTuple):
    """Every word of some language whose length is at most *bound*."""

    bound: int
    words: frozenset[str]


def enumerate_lang(e: Regex, k: int, cap: int = DEFAULT_CAP) -> LangSample:
    """The exact length-at-most-*k* slice of the language of *e*.

    Raises EnumerationBudgetError if the slice (or an intermediate set)
    would hold more than *cap* words.
    """
    if k < 0:
        raise ValueError("length bound must be nonnegative")
    return LangSample(k, _bottom_up(e, _slice, (k, cap, {})))


def _slice(e: Regex, arg: tuple) -> frozenset[str] | list[Regex]:
    # The _bottom_up step of enumerate_lang: e's slice from its operands', or
    # the operands with no slice yet.  The memo belongs to one call.
    k, cap, memo = arg
    if e in memo:
        return memo[e]
    match e:
        case Star(x) if x not in memo:
            return [x]
        case Union(l, r) | Intersect(l, r) | Diff(l, r) | Concat(l, r) if {l, r} - memo.keys():
            return [x for x in (l, r) if x not in memo]
        case Empty():
            out = frozenset()
        case Epsilon():
            out = frozenset({""})
        case Sym(ch):
            out = frozenset({ch}) if k >= 1 else frozenset()
        case Union(l, r):
            out = memo[l] | memo[r]
        case Intersect(l, r):
            out = memo[l] & memo[r]
        case Diff(l, r):
            out = memo[l] - memo[r]
        case Concat(l, r):
            # Any word uv with |uv| <= k has |u| <= k and |v| <= k, so
            # pairing the two k-slices is exact.
            acc = set()
            for u in memo[l]:
                room = k - len(u)
                acc.update(u + v for v in memo[r] if len(v) <= room)
                if len(acc) > cap:
                    raise EnumerationBudgetError(cap)
            out = frozenset(acc)
        case Star(x):
            # Grow from the empty word by appending nonempty factors; every
            # star word of length <= k decomposes into such factors.
            factors = [f for f in memo[x] if f]
            words = {""}
            frontier = [""]
            while frontier:
                fresh = []
                for u in frontier:
                    for f in factors:
                        w = u + f
                        if len(w) <= k and w not in words:
                            words.add(w)
                            fresh.append(w)
                if len(words) > cap:
                    raise EnumerationBudgetError(cap)
                frontier = fresh
            out = frozenset(words)
        case _:
            raise TypeError(f"not a regex term: {e!r}")
    if len(out) > cap:
        raise EnumerationBudgetError(cap)
    memo[e] = out
    return out


def quotient(s: LangSample, a: str) -> LangSample:
    """Strip the leading symbol *a* from every word of *s* that has one.

    The result is exact for lengths up to s.bound - 1; quotienting a
    bound-0 sample is an error because nothing can be said about it.
    """
    require_symbol(a)
    if s.bound < 1:
        raise QuotientBoundError("cannot take the quotient of a bound-0 sample")
    return LangSample(
        s.bound - 1,
        frozenset(w[1:] for w in s.words if w.startswith(a)),
    )


def dump_words(s: LangSample) -> str:
    """One word per line in lexicographic order; the empty word is an empty line."""
    return "".join(w + "\n" for w in sorted(s.words))
